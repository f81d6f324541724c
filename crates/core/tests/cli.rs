//! End-to-end tests of the `scada-analyzer` binary: exit codes, bounded
//! enumeration termination, the JSONL trace format, and the one request
//! path (an in-process engine prints what a `scadad` client prints).

use std::io::BufRead as _;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

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
        text(&out.stdout).contains("stats: {\"ok\":true"),
        "--stats line missing"
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
    for ev in [
        "service_request",
        "query_start",
        "solve_attempt",
        "query_done",
    ] {
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

/// A failed check that only the `--max-resiliency` sweep sees (the
/// corrupted model breaks the sweep's threat rungs, while the verify
/// reply's unsat proof checks) still exits 4.
#[test]
fn sweep_only_certification_failure_exits_4() {
    let out = bin()
        .args([
            "--case-study",
            "--property",
            "obs",
            "--max-resiliency",
            "--certify",
        ])
        .env("SCADA_CERTIFY_FAULT", "model")
        .output()
        .expect("spawn scada-analyzer");
    let stdout = text(&out.stdout);
    assert!(
        stdout.contains("[observability] RESILIENT") && stdout.contains("unsat proof checked"),
        "the verdict itself must certify: {stdout}"
    );
    assert_eq!(exit_code(&out), 4, "stdout: {stdout}");
    assert!(
        !stdout.contains(", 0 failure(s)"),
        "summary must count the sweep's failures: {stdout}"
    );
    assert!(
        text(&out.stderr).contains("certification failed: 1 maxres certificate failure(s)"),
        "stderr: {}",
        text(&out.stderr)
    );
}

#[test]
fn concurrent_certified_fleet_writes_one_clean_proof_per_query() {
    let config = template_config("certify-jobs");
    let dir =
        std::env::temp_dir().join(format!("scada-analyzer-cli-{}-proofs", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // All three properties verified, every verdict certified, every
    // query's DRAT proof written to its own file.
    let out = run(
        &config,
        &["--certify", "--proof-dir", dir.to_str().unwrap()],
    );
    assert_eq!(exit_code(&out), 1, "stderr: {}", text(&out.stderr));
    assert!(text(&out.stdout).contains("0 failure(s)"));

    let names = clean_query_proofs(&dir);
    assert!(
        names.len() >= 3,
        "one proof file per certified query, got {names:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A certified fleet audit on four workers: sessions certify
/// concurrently into one proof directory, and every query's proof is
/// its own well-formed file under a unique id.
#[test]
fn certified_batch_on_four_workers_writes_one_clean_proof_per_query() {
    let dir = std::env::temp_dir().join(format!(
        "scada-analyzer-cli-{}-batch-proofs",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let fleet = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fleet");
    let out = bin()
        .args(["--batch", fleet, "--jobs", "4", "--certify", "--proof-dir"])
        .arg(&dir)
        .output()
        .expect("spawn scada-analyzer");
    // sub14-bad is deliberately malformed: an error row, exit 6.
    assert_eq!(exit_code(&out), 6, "stderr: {}", text(&out.stderr));
    let names = clean_query_proofs(&dir);
    assert!(names.len() >= 4, "one proof per certified query: {names:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Checks every `query-<id>-<seq>.drat` file in `dir`: fixed-width
/// name fields, well-formed DRAT lines, and a query id no other file
/// shares. Returns the checked names.
fn clean_query_proofs(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("proof dir exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("query-"))
        .collect();
    names.sort();
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
    names
}

#[test]
fn no_trace_flag_writes_no_file() {
    let config = template_config("no-trace");
    let out = run(&config, &["--property", "obs"]);
    assert_eq!(exit_code(&out), 1);
    assert!(!text(&out.stderr).contains("trace:"));
}

/// `--jobs` sizes a `--batch` audit only; engine-side settings
/// (certification, proofs, tracing, the fault hook) are usage errors
/// with `--connect`, where the service owns them.
#[test]
fn misplaced_options_are_usage_errors() {
    let config = template_config("misplaced");
    let out = run(&config, &["--jobs", "2"]);
    assert_eq!(exit_code(&out), 2);
    assert!(text(&out.stderr).contains("--batch only"));
    let server = Scadad::start(&[]);
    for (flags, fault) in [
        (&["--certify"][..], ""),
        (&["--proof-dir", "proofs"][..], ""),
        (&["--trace", "trace.jsonl"][..], ""),
        (&[][..], "proof"),
    ] {
        let out = bin()
            .arg(&config)
            .args(["--connect", &server.addr])
            .args(flags)
            .env("SCADA_CERTIFY_FAULT", fault)
            .output()
            .expect("spawn scada-analyzer");
        assert_eq!(exit_code(&out), 2, "{flags:?} {fault}");
        assert!(text(&out.stderr).contains("not supported with --connect"));
    }
}

/// Regression: a config whose topology fails validation (a device
/// linked to itself) is an addressed load error, exit 1, in both modes
/// — never a panic (exit 101).
#[test]
fn self_link_config_exits_1_in_both_modes() {
    let template = bin().arg("--template").output().expect("run --template");
    let config = String::from_utf8(template.stdout)
        .unwrap()
        .replace("[links]\n", "[links]\n2 2\n");
    let path = std::env::temp_dir().join(format!(
        "scada-analyzer-cli-{}-selflink.scada",
        std::process::id()
    ));
    std::fs::write(&path, config).expect("write config");
    let server = Scadad::start(&[]);
    for connect in [&[][..], &["--connect", &server.addr][..]] {
        let out = bin()
            .arg(&path)
            .args(connect)
            .output()
            .expect("spawn scada-analyzer");
        assert_eq!(exit_code(&out), 1, "{connect:?}: {}", text(&out.stderr));
        assert!(
            text(&out.stderr).contains("invalid topology"),
            "{connect:?}: {}",
            text(&out.stderr)
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Regression: a certified local run is reproducible — two runs print
/// the same stdout modulo timings and write byte-identical proof sets.
#[test]
fn certified_proof_dir_is_reproducible() {
    let config = template_config("reproducible");
    let mut runs = Vec::new();
    for i in 0..2 {
        let dir = std::env::temp_dir().join(format!(
            "scada-analyzer-cli-{}-repro-{i}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let out = run(
            &config,
            &[
                "--enumerate",
                "--max-resiliency",
                "--certify",
                "--proof-dir",
                dir.to_str().unwrap(),
            ],
        );
        assert_eq!(exit_code(&out), 1, "stderr: {}", text(&out.stderr));
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("proof dir exists")
            .map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().into_string().unwrap();
                (name, std::fs::read(entry.path()).unwrap())
            })
            .collect();
        files.sort();
        std::fs::remove_dir_all(&dir).ok();
        runs.push((normalize(&text(&out.stdout)), files));
    }
    assert!(!runs[0].1.is_empty(), "proofs written");
    let names = |files: &[(String, Vec<u8>)]| files.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
    assert_eq!(
        names(&runs[0].1),
        names(&runs[1].1),
        "proof file names differ"
    );
    assert!(runs[0].1 == runs[1].1, "proof file contents differ");
    assert_eq!(runs[0].0, runs[1].0, "stdout differs beyond timings");
}

/// The one request path: for every single-model flag, on the case study
/// and on the template config, a local run prints exactly what a client
/// of a fresh `scadad` (with the same certification) prints, modulo
/// timings and the header's address, and exits with the same code.
#[test]
fn local_stdout_equals_connect_stdout() {
    let template = template_config("equivalence");
    let template = template.to_str().unwrap();
    let sources: [(&str, &str); 2] = [
        (
            "--case-study",
            r#"{"add_device":{"kind":"rtu","peers":[5]}}"#,
        ),
        (
            template,
            r#"{"set_profile":{"a":2,"b":3,"profiles":["chap 64","sha2 128"]}}"#,
        ),
    ];
    for (source, patch) in sources {
        let flag_sets: [&[&str]; 13] = [
            &[],
            &["--property", "obs", "--k", "2"],
            &["--property", "secured", "--k1", "2", "--k2", "0"],
            &["--property", "baddata", "--r", "0", "--links", "1"],
            &["--enumerate", "--rank"],
            &["--max-resiliency"],
            &["--security-index"],
            &["--repair"],
            &["--patch", patch, "--property", "secured", "--enumerate"],
            &["--timeout", "0ms", "--enumerate"],
            &["--timeout", "5s", "--max-resiliency"],
            &["--conflict-budget", "1", "--max-resiliency"],
            &[
                "--certify",
                "--enumerate",
                "--max-resiliency",
                "--security-index",
                "--repair",
            ],
        ];
        for flags in flag_sets {
            let certify = flags.contains(&"--certify");
            let local = bin().arg(source).args(flags).output().unwrap();
            let server = Scadad::start(if certify { &["--certify"] } else { &[] });
            let remote = bin()
                .args([source, "--connect", &server.addr])
                .args(flags.iter().filter(|&&f| f != "--certify"))
                .output()
                .unwrap();
            let case = format!("{source} {flags:?}");
            assert_eq!(
                exit_code(&local),
                exit_code(&remote),
                "{case}: {}",
                text(&remote.stderr)
            );
            let local = normalize(&text(&local.stdout));
            assert!(local.contains("µs)"), "{case}: {local}");
            assert_eq!(local, normalize(&text(&remote.stdout)), "{case}");
        }
    }
}

/// `--batch` through the in-process engine and through a `scadad` whose
/// fleet root is the same directory: the same rows, JSONL and CSV.
#[test]
fn local_batch_equals_connect_batch() {
    let fleet = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fleet");
    for format in ["jsonl", "csv"] {
        let server = Scadad::start(&["--fleet-root", fleet]);
        let local = bin()
            .args(["--batch", fleet, "--jobs", "2", "--format", format])
            .output()
            .unwrap();
        let remote = bin()
            .args(["--connect", &server.addr, "--batch", "."])
            .args(["--jobs", "2", "--format", format])
            .output()
            .unwrap();
        assert_eq!(exit_code(&local), 6, "{format}: {}", text(&local.stderr));
        assert_eq!(exit_code(&remote), 6, "{format}: {}", text(&remote.stderr));
        // Rows end in their elapsed time: the JSON field, the CSV column.
        let rows = |out: &Output| -> Vec<String> {
            text(&out.stdout)
                .lines()
                .map(|row| match row.rsplit_once(',') {
                    Some((head, _)) => head.to_string(),
                    None => row.to_string(),
                })
                .collect()
        };
        assert_eq!(rows(&local).len(), 13 + usize::from(format == "csv"));
        assert_eq!(rows(&local), rows(&remote), "{format}");
    }
}

/// A `scadad` listening on a loopback port, killed when dropped.
struct Scadad {
    child: Child,
    addr: String,
}

impl Scadad {
    fn start(args: &[&str]) -> Scadad {
        let mut child = Command::new(env!("CARGO_BIN_EXE_scadad"))
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn scadad");
        let mut banner = String::new();
        std::io::BufReader::new(child.stdout.as_mut().unwrap())
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner
            .trim()
            .strip_prefix("scadad: listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();
        Scadad { child, addr }
    }
}

impl Drop for Scadad {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A run's stdout with every `N µs` timing zeroed and the header's
/// engine address dropped.
fn normalize(stdout: &str) -> String {
    let mut out = String::new();
    for (i, line) in stdout.lines().enumerate() {
        let line = match line.split_once(": model ") {
            Some((_, rest)) if i == 0 => rest,
            _ => line,
        };
        let mut rest = line;
        while let Some(at) = rest.find(" µs") {
            out.push_str(rest[..at].trim_end_matches(|c: char| c.is_ascii_digit()));
            out.push_str("_ µs");
            rest = &rest[at + " µs".len()..];
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
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
