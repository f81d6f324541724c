//! Usage errors of the `experiments` binary: malformed option values
//! exit 2 with `error:` on stderr instead of falling back to a default.

use std::process::Command;

#[test]
fn exit_2_on_malformed_option() {
    for args in [
        &["--smoke", "--jobs", "x"][..],
        &["--smoke", "--timeout", "5parsecs"][..],
        &["--smoke", "--conflict-budget", "1e3"][..],
        &["--smoke", "--runs"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("spawn experiments");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "args {args:?}: {stderr}");
    }
}
