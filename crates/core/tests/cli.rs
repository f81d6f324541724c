//! End-to-end tests of the `scada-analyzer` binary: exit codes, bounded
//! enumeration termination, and the JSONL trace format.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scada-analyzer"))
}

/// Writes the binary's own `--template` config to a per-test temp file
/// and returns its path.
fn template_config(test: &str) -> PathBuf {
    let out = bin().arg("--template").output().expect("run --template");
    assert!(out.status.success(), "--template must exit 0");
    let path = std::env::temp_dir().join(format!(
        "scada-analyzer-cli-{}-{test}.scada",
        std::process::id()
    ));
    std::fs::write(&path, &out.stdout).expect("write template config");
    path
}

fn run(config: &PathBuf, args: &[&str]) -> Output {
    bin()
        .arg(config)
        .args(args)
        .output()
        .expect("spawn scada-analyzer")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("no exit code (killed by signal?)")
}

#[test]
fn exit_0_when_all_resilient() {
    let config = template_config("resilient");
    let out = run(&config, &["--property", "obs", "--k", "0", "--r", "0"]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", text(&out.stderr));
    assert!(text(&out.stdout).contains("RESILIENT"));
}

#[test]
fn exit_1_on_threat() {
    let config = template_config("threat");
    let out = run(&config, &["--property", "obs", "--k", "5"]);
    assert_eq!(exit_code(&out), 1);
    assert!(text(&out.stdout).contains("THREAT"));
}

#[test]
fn exit_2_on_malformed_numeric_option() {
    let config = template_config("badnum");
    // Regression: these used to be silently ignored and fall back to
    // the config's values.
    for args in [
        &["--k1", "two"][..],
        &["--jobs", "abc"][..],
        &["--conflict-budget", "1e3"][..],
        &["--timeout", "fast"][..],
    ] {
        let out = run(&config, args);
        assert_eq!(exit_code(&out), 2, "args {args:?}");
        assert!(text(&out.stderr).contains("error:"), "args {args:?}");
    }
    // A flag with no value at all is also a usage error.
    let out = run(&config, &["--k"]);
    assert_eq!(exit_code(&out), 2);
}

#[test]
fn exit_2_without_config_path() {
    let out = bin().output().expect("spawn");
    assert_eq!(exit_code(&out), 2);
    assert!(text(&out.stderr).contains("usage:"));
}

#[test]
fn exit_3_when_limits_leave_queries_undecided() {
    let config = template_config("undecided");
    // A zero wall-clock budget leaves every solver query UNKNOWN; no
    // threat is found, so this is exit 3, not 0. (Plain observability:
    // the template's secured properties already fail with nothing
    // failed, which is decided without the solver.)
    let out = run(&config, &["--property", "obs", "--timeout", "0ms"]);
    assert_eq!(exit_code(&out), 3);
    assert!(text(&out.stdout).contains("UNKNOWN"));
    // Those properties still answer the empty threat under the same
    // budget, and a threat outranks undecided.
    let out = run(&config, &["--timeout", "0ms"]);
    assert_eq!(exit_code(&out), 1);
    assert!(text(&out.stdout).contains("[observability] UNKNOWN"));
    assert!(text(&out.stdout).contains("[secured observability] THREAT {}"));
}

#[test]
fn bounded_enumeration_terminates_and_reports_undecided() {
    let config = template_config("enum-bounded");
    // Regression: --enumerate used to ignore the limits entirely, so a
    // bounded run could hang unbounded. Now the whole enumeration shares
    // the query deadline and reports an undecided threat space.
    let out = run(
        &config,
        &["--property", "obs", "--enumerate", "--timeout", "0ms"],
    );
    assert_eq!(exit_code(&out), 3);
    assert!(text(&out.stdout).contains("undecided: limit exhausted"));
}

#[test]
fn unbounded_enumeration_still_finds_the_full_space() {
    let config = template_config("enum-full");
    let out = run(&config, &["--property", "obs", "--k", "5", "--enumerate"]);
    assert_eq!(exit_code(&out), 1);
    let stdout = text(&out.stdout);
    assert!(stdout.contains("minimal vector(s)"));
    assert!(!stdout.contains("undecided"));
}

#[test]
fn security_index_prints_distribution_and_certifies() {
    let config = template_config("secidx");
    let out = run(
        &config,
        &[
            "--property",
            "obs",
            "--k",
            "0",
            "--r",
            "0",
            "--security-index",
            "--certify",
        ],
    );
    assert_eq!(exit_code(&out), 0, "stderr: {}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(
        stdout.contains("security index: min ") && stdout.contains("distribution: α="),
        "missing index summary: {stdout}"
    );
    assert!(
        stdout.contains("0 cert failure(s)"),
        "certified run must report its check tally: {stdout}"
    );
}

#[test]
fn security_index_certification_fault_exits_4() {
    let config = template_config("secidx-fault");
    for fault in ["proof", "model"] {
        let out = bin()
            .arg(&config)
            .args(["--property", "obs", "--security-index", "--certify"])
            .env("SCADA_CERTIFY_FAULT", fault)
            .output()
            .expect("spawn scada-analyzer");
        assert_eq!(exit_code(&out), 4, "fault {fault}");
        assert!(
            text(&out.stderr).contains("certification failed"),
            "fault {fault}: {}",
            text(&out.stderr)
        );
        // The index engine's own certificates must catch the fault too —
        // not just the verification queries sharing the run.
        let stdout = text(&out.stdout);
        let index_line = stdout
            .lines()
            .find(|l| l.starts_with("security index:"))
            .unwrap_or_else(|| panic!("no index summary under fault {fault}: {stdout}"));
        assert!(
            !index_line.contains(" 0 cert failure(s)"),
            "fault {fault} not caught by the index engine: {index_line}"
        );
    }
}

#[test]
fn trace_writes_valid_monotone_jsonl() {
    let config = template_config("trace");
    let trace = std::env::temp_dir().join(format!(
        "scada-analyzer-cli-{}-trace.jsonl",
        std::process::id()
    ));
    let out = run(
        &config,
        &[
            "--property",
            "obs",
            "--stats",
            "--trace",
            trace.to_str().unwrap(),
        ],
    );
    assert_eq!(exit_code(&out), 1, "stderr: {}", text(&out.stderr));
    assert!(
        text(&out.stdout).contains("metric"),
        "--stats table missing"
    );

    let content = std::fs::read_to_string(&trace).expect("trace file written");
    std::fs::remove_file(&trace).ok();
    let lines: Vec<&str> = content.lines().collect();
    assert!(!lines.is_empty(), "trace must not be empty");
    let mut last_t = 0u64;
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "line {i} is not a JSON object: {line}"
        );
        assert_eq!(
            field_u64(line, "seq"),
            Some(i as u64),
            "seq must match file order on line {i}: {line}"
        );
        let t = field_u64(line, "t_us").expect("t_us field");
        assert!(t >= last_t, "t_us must be monotone on line {i}: {line}");
        last_t = t;
        assert!(line.contains("\"ev\":\""), "missing ev field: {line}");
    }
    for ev in ["query_start", "solve_attempt", "query_done", "worker_done"] {
        assert!(
            content.contains(&format!("\"ev\":\"{ev}\"")),
            "trace lacks a {ev} event"
        );
    }
}

#[test]
fn certified_run_reports_checked_verdicts_and_keeps_exit_code() {
    let config = template_config("certify-basic");
    let out = run(&config, &["--property", "obs", "--certify"]);
    // Certification must not change the verdict-derived exit code when
    // every check passes.
    assert_eq!(exit_code(&out), 1, "stderr: {}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(
        stdout.contains("certificate:"),
        "per-verdict certificate line"
    );
    assert!(
        stdout.contains("verdict(s) checked, 0 failure(s)"),
        "summary line: {stdout}"
    );
}

#[test]
fn concurrent_certified_fleet_writes_one_clean_proof_per_query() {
    let config = template_config("certify-jobs");
    let dir =
        std::env::temp_dir().join(format!("scada-analyzer-cli-{}-proofs", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // All three properties verified by a 4-worker fleet, every verdict
    // certified, every query's DRAT proof written to its own file.
    let out = run(
        &config,
        &[
            "--jobs",
            "4",
            "--certify",
            "--proof-dir",
            dir.to_str().unwrap(),
        ],
    );
    assert_eq!(exit_code(&out), 1, "stderr: {}", text(&out.stderr));
    assert!(text(&out.stdout).contains("0 failure(s)"));

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("proof dir exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(
        names.len() >= 3,
        "one proof file per certified query, got {names:?}"
    );
    let mut query_ids = std::collections::HashSet::new();
    for name in &names {
        // Naming scheme: query-<id>-<seq>.drat with fixed-width fields.
        let rest = name
            .strip_prefix("query-")
            .and_then(|r| r.strip_suffix(".drat"))
            .unwrap_or_else(|| panic!("unexpected proof file name {name}"));
        let (id, seq) = rest.split_once('-').expect("id-seq name");
        assert!(id.len() == 5 && id.bytes().all(|b| b.is_ascii_digit()));
        assert!(seq.len() == 4 && seq.bytes().all(|b| b.is_ascii_digit()));
        query_ids.insert(id.to_owned());

        // Each file must be well-formed DRAT on its own: concurrent
        // workers interleaving bytes into a shared file would break
        // this line grammar immediately.
        let content = std::fs::read_to_string(dir.join(name)).expect("proof file readable");
        for (i, line) in content.lines().enumerate() {
            let body = line.strip_prefix("d ").unwrap_or(line);
            let mut terms = body.split(' ').peekable();
            let mut saw_zero = false;
            while let Some(term) = terms.next() {
                assert!(
                    term.parse::<i64>().is_ok(),
                    "{name}:{i}: non-integer token {term:?} in {line:?}"
                );
                if terms.peek().is_none() {
                    saw_zero = term == "0";
                }
            }
            assert!(saw_zero, "{name}:{i}: line not 0-terminated: {line:?}");
        }
    }
    assert_eq!(
        query_ids.len(),
        names.len(),
        "query ids must be globally unique across the fleet: {names:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_trace_flag_writes_no_file() {
    let config = template_config("no-trace");
    let out = run(&config, &["--property", "obs"]);
    assert_eq!(exit_code(&out), 1);
    assert!(!text(&out.stderr).contains("trace:"));
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Extracts an unsigned top-level `"name":N` field from one JSONL line.
fn field_u64(line: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let rest = &line[line.find(&key)? + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}
