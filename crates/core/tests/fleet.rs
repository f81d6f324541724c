//! Fleet pipeline integration tests: the checked-in example fleet, the
//! import/export fixed point, patch-chain vs cold-build verdict
//! equivalence (including certification), shard-count byte equivalence
//! of the `batch` op, and malformed-config isolation through the CLI.
//!
//! The example fleet under `examples/fleet/` is generated — not
//! hand-maintained. `checked_in_fleet_matches_generator` pins the
//! checked-in files to the generator's output; to regenerate after
//! changing the generator run
//!
//! ```text
//! cargo test -p scada-analyzer --test fleet regenerate_example_fleet -- --ignored
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use proptest::prelude::*;
use scada_analyzer::fleet::{
    plan_fleet, run_batch, run_plan, scan_fleet, FleetMember, FleetPlan, FleetScan, PlanStep,
    ReportRow,
};
use scada_analyzer::ingest::{export_files, from_scada, import_files, ImportedConfig};
use scada_analyzer::service::{
    model_hash, security_normalized_hash, Engine, ServeOptions, ShardedEngine,
};
use scada_analyzer::{AnalysisInput, CertifyOptions};
use scadasim::{generate, CryptoProfile, ScadaConfig, ScadaGenConfig};

fn fleet_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/fleet")
}

// ---------------------------------------------------------------------------
// Example-fleet generator
// ---------------------------------------------------------------------------

fn base_scada(buses: usize, seed: u64) -> ScadaConfig {
    let system = powergrid::synthetic::ieee_sized(buses, 0);
    let generated = generate(
        system,
        &ScadaGenConfig {
            measurement_density: 0.7,
            hierarchy_level: 1,
            secure_fraction: 0.8,
            seed,
            ..Default::default()
        },
    );
    ScadaConfig {
        measurements: generated.measurements,
        topology: generated.topology,
        ied_measurements: generated.ied_measurements,
        resilience: (1, 1),
        corrupted: 1,
        link_failures: 0,
    }
}

fn parse_profiles(spec: &str) -> Vec<CryptoProfile> {
    let tokens: Vec<&str> = spec.split_whitespace().collect();
    tokens
        .chunks(2)
        .map(|pair| format!("{} {}", pair[0], pair[1]).parse().unwrap())
        .collect()
}

/// A variant of `scada` with the `i`-th explicit security entry (in
/// sorted pair order) replaced by `profiles` — exactly the kind of
/// site-local rotation the planner's `set_profile` chains absorb.
fn with_profiles(scada: &ScadaConfig, edits: &[(usize, &str)]) -> ScadaConfig {
    let mut out = scada.clone();
    let mut entries: Vec<_> = scada
        .topology
        .pair_security_entries()
        .map(|(a, b, p)| (a, b, p.to_vec()))
        .collect();
    entries.sort_by_key(|&(a, b, _)| (a, b));
    assert!(
        entries.len() >= 4,
        "generated fleets carry enough entries to vary"
    );
    for &(i, profiles) in edits {
        let (a, b, _) = entries[i % entries.len()];
        out.topology
            .set_pair_security(a, b, parse_profiles(profiles));
    }
    out
}

/// The whole example fleet as `(config name, relative path -> text)`.
/// Two similarity clusters (IEEE-14 and IEEE-30), each with a base, an
/// exact duplicate (exercising the `cached` route), and four
/// profile-rotation variants (exercising `set_profile` patch chains),
/// plus one deliberately malformed config.
fn example_fleet() -> Vec<(String, BTreeMap<String, String>)> {
    let mut fleet = Vec::new();
    for (buses, prefix, seed) in [(14usize, "sub14", 0u64), (30, "sub30", 1)] {
        let base = base_scada(buses, seed);
        let variants: Vec<(String, ScadaConfig, &str)> = vec![
            (format!("{prefix}-01"), base.clone(), "secured"),
            // Byte-identical to -01: the planner re-queries the warm
            // model and the verdict cache answers.
            (format!("{prefix}-02"), base.clone(), "secured"),
            (
                format!("{prefix}-03"),
                with_profiles(&base, &[(0, "aes 256")]),
                "secured",
            ),
            (
                format!("{prefix}-04"),
                with_profiles(&base, &[(0, "aes 256"), (1, "hmac 128 sha2 128")]),
                "secured",
            ),
            (
                format!("{prefix}-05"),
                with_profiles(&base, &[(2, "rsa 2048")]),
                "secured",
            ),
            (
                format!("{prefix}-06"),
                with_profiles(&base, &[(3, "md5 64")]),
                if buses == 30 { "obs" } else { "secured" },
            ),
        ];
        for (name, scada, property) in variants {
            let config =
                from_scada(&name, &scada, property).expect("generated config canonicalizes");
            fleet.push((name, export_files(&config)));
        }
    }
    // The deliberately malformed config: an unbalanced quote in its
    // manifest, which the strict CSV layer pins to channels.csv:2:1.
    let mut bad = BTreeMap::new();
    bad.insert(
        "channels.csv".to_string(),
        "channel,kind,uplink,transport,bandwidth_kbps\n\"mtu001,master,,ethernet,10000\n"
            .to_string(),
    );
    fleet.push(("sub14-bad".to_string(), bad));
    fleet.sort_by(|a, b| a.0.cmp(&b.0));
    fleet
}

/// Regenerates `examples/fleet/` from the generator. Ignored by
/// default: run explicitly after changing the generator, then commit
/// the result.
#[test]
#[ignore = "writes examples/fleet/; run explicitly to regenerate the checked-in fleet"]
fn regenerate_example_fleet() {
    let root = fleet_dir();
    for (name, files) in example_fleet() {
        let dir = root.join(&name);
        for (file, text) in files {
            let path = dir.join(&file);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        }
    }
}

/// The checked-in fleet is exactly what the generator produces — no
/// silent drift between the files tests/benches/CI audit and the
/// code that describes them.
#[test]
fn checked_in_fleet_matches_generator() {
    let root = fleet_dir();
    for (name, files) in example_fleet() {
        for (file, expected) in &files {
            let path = root.join(&name).join(file);
            let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "{}: {e}\nrun `cargo test -p scada-analyzer --test fleet \
                     regenerate_example_fleet -- --ignored` and commit the result",
                    path.display()
                )
            });
            assert_eq!(
                &on_disk, expected,
                "{name}/{file} drifted from the generator"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Import/export fixed point
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Canonicalize → export → import is a fixed point, and the
    /// canonical model hash is stable across the round trip.
    #[test]
    fn import_export_reimport_is_a_fixed_point(
        buses_pick in 0usize..3,
        seed in 0u64..200,
        density_pct in 40u64..90,
        secure_pct in 20u64..100,
    ) {
        let buses = [14usize, 30, 57][buses_pick];
        let system = powergrid::synthetic::ieee_sized(buses, 0);
        let generated = generate(
            system,
            &ScadaGenConfig {
                measurement_density: density_pct as f64 / 100.0,
                hierarchy_level: 1 + (seed % 2) as usize,
                secure_fraction: secure_pct as f64 / 100.0,
                seed,
                ..Default::default()
            },
        );
        let scada = ScadaConfig {
            measurements: generated.measurements,
            topology: generated.topology,
            ied_measurements: generated.ied_measurements,
            resilience: (1, 1),
            corrupted: 1,
            link_failures: 0,
        };
        let config = from_scada("prop", &scada, "secured").unwrap();
        let files = export_files(&config);
        let reimported = import_files("prop", &files).unwrap();
        prop_assert_eq!(&reimported, &config, "import(export(c)) != c");
        prop_assert_eq!(
            model_hash(&reimported.input()),
            model_hash(&config.input()),
            "model hash unstable across re-import"
        );
        prop_assert_eq!(export_files(&reimported), files, "export not deterministic");
    }
}

// ---------------------------------------------------------------------------
// Verdict equivalence: patch-chain route vs cold build
// ---------------------------------------------------------------------------

/// The verdict-bearing projection of a row: everything except the
/// route-dependent fields (`model` is a lineage hash on the patch
/// route, `provenance`/`route`/`elapsed_us` differ by construction).
#[allow(clippy::type_complexity)]
fn verdict_key(
    row: &ReportRow,
) -> (
    String,
    Option<String>,
    Option<String>,
    Option<String>,
    Option<String>,
    Option<Option<u64>>,
    Option<u64>,
    Vec<(u64, u64)>,
) {
    (
        row.config.clone(),
        row.error.clone(),
        row.property.clone(),
        row.verdict.clone(),
        row.certificate.clone(),
        row.max,
        row.index_floor,
        row.histogram.clone(),
    )
}

/// A plan with every member forced onto the cold route — the baseline
/// the delta-deduplicated plan must agree with verdict-for-verdict.
fn all_cold(plan: &FleetPlan) -> FleetPlan {
    FleetPlan {
        scan: plan.scan.clone(),
        clusters: (0..plan.scan.members.len())
            .map(|member| vec![PlanStep::Cold { member }])
            .collect(),
    }
}

fn run_with_engine(plan: &FleetPlan, certify: bool) -> Vec<ReportRow> {
    let engine = Engine::new(ServeOptions {
        certify: CertifyOptions {
            enabled: certify,
            ..CertifyOptions::default()
        },
        ..ServeOptions::default()
    });
    let submit = |line: &str| engine.handle_line(line).line;
    run_plan(plan, 1, &submit).rows
}

/// The planner's patch-chain route yields verdicts identical to cold
/// builds of every variant — with and without certification.
#[test]
fn patch_chain_route_matches_cold_build_verdicts() {
    let plan = plan_fleet(scan_fleet(&fleet_dir()).unwrap());
    let (cold_routes, patch_routes, dup_routes) = plan.route_counts();
    assert!(
        patch_routes >= 4 && dup_routes >= 2,
        "example fleet must exercise the delta routes \
         (got cold {cold_routes}, patch {patch_routes}, dup {dup_routes})"
    );
    let baseline = all_cold(&plan);
    for certify in [false, true] {
        let deduped = run_with_engine(&plan, certify);
        let cold = run_with_engine(&baseline, certify);
        let deduped: Vec<_> = deduped.iter().map(verdict_key).collect();
        let cold: Vec<_> = cold.iter().map(verdict_key).collect();
        assert_eq!(
            deduped, cold,
            "patch-chain verdicts diverged from cold builds (certify={certify})"
        );
        if certify {
            assert!(
                deduped
                    .iter()
                    .filter(|k| k.1.is_none())
                    .all(|k| k.4.as_deref() == Some("proof") || k.4.as_deref() == Some("threat")),
                "certified batch left an unchecked verdict"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Service `batch` op: shard-count byte equivalence
// ---------------------------------------------------------------------------

/// Strips every `"elapsed_us":N` (the only nondeterministic field)
/// from a reply line.
fn strip_timing(line: &str) -> String {
    let mut out = String::new();
    let mut rest = line;
    while let Some(pos) = rest.find("\"elapsed_us\":") {
        out.push_str(&rest[..pos]);
        let tail = &rest[pos + "\"elapsed_us\":".len()..];
        let digits = tail.chars().take_while(|c| c.is_ascii_digit()).count();
        out.push_str("\"elapsed_us\":0");
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// `run_batch` scans and executes on `jobs` workers; the rows
/// (malformed config included) are byte-identical, modulo timing, for
/// 1, 2 and all available workers, and for a `jobs` above the config
/// count (capped to one worker per config or cluster).
#[test]
fn run_batch_rows_are_identical_across_jobs() {
    let rows_at = |jobs: usize| -> Vec<String> {
        let engine = Engine::new(ServeOptions::default());
        let submit = |line: &str| engine.handle_line(line).line;
        let outcome = run_batch(&fleet_dir(), jobs, &submit).expect("fleet root readable");
        engine.drain();
        outcome
            .rows
            .iter()
            .map(|row| strip_timing(&row.render_json()))
            .collect()
    };
    let serial = rows_at(1);
    assert_eq!(serial.len(), 13);
    assert_eq!(
        serial
            .iter()
            .filter(|row| row.contains("\"ok\":false"))
            .count(),
        1,
        "the malformed config is the one error row"
    );
    for jobs in [2, 0, 64] {
        assert_eq!(rows_at(jobs), serial, "rows diverged at jobs {jobs}");
    }
}

/// The security-normalized hash as it was first defined: strip the
/// pair-security table from the config, lower it again, and hash.
fn relowered_normalized_hash(config: &ImportedConfig) -> scada_analyzer::service::ModelHash {
    let scada = &config.scada;
    let stripped = ScadaConfig {
        measurements: scada.measurements.clone(),
        topology: scadasim::Topology::new(
            scada.topology.devices().to_vec(),
            scada.topology.links().to_vec(),
        ),
        ied_measurements: scada.ied_measurements.clone(),
        resilience: scada.resilience,
        corrupted: scada.corrupted,
        link_failures: scada.link_failures,
    };
    model_hash(&AnalysisInput::from(stripped))
}

/// Checks that hashing the lowered input with its security section
/// skipped gives the key the strip-and-relower definition gives, and
/// that the plan is the same under either key.
fn assert_cluster_keys_unchanged(scan: FleetScan) {
    let mut relowered = scan.clone();
    for member in &mut relowered.members {
        let normalized = relowered_normalized_hash(&member.config);
        assert_eq!(
            security_normalized_hash(&member.config.input()),
            normalized,
            "{}",
            member.config.name
        );
        member.cluster.0 = normalized;
    }
    let plan = plan_fleet(scan);
    let reference = plan_fleet(relowered);
    assert_eq!(plan.route_counts(), reference.route_counts());
    assert_eq!(plan.clusters, reference.clusters);
}

#[test]
fn cluster_keys_match_the_relowered_definition() {
    assert_cluster_keys_unchanged(scan_fleet(&fleet_dir()).unwrap());

    // A generated portfolio: three systems, each with a duplicate, two
    // profile rotations and a member that lost an entry (cold fallback).
    let mut members = Vec::new();
    for (buses, seed) in [(14usize, 3u64), (30, 4), (57, 5)] {
        let base = base_scada(buses, seed);
        let mut lost = base.clone();
        lost.topology = scadasim::Topology::new(
            base.topology.devices().to_vec(),
            base.topology.links().to_vec(),
        );
        let variants = [
            base.clone(),
            base.clone(),
            with_profiles(&base, &[(0, "aes 256")]),
            with_profiles(&base, &[(1, "rsa 2048"), (2, "aes 128")]),
            lost,
        ];
        for (i, scada) in variants.iter().enumerate() {
            let config = from_scada(&format!("g{buses}-{i}"), scada, "secured").unwrap();
            members.push(FleetMember::new(config));
        }
    }
    let scan = FleetScan {
        members,
        errors: Vec::new(),
    };
    let (cold, patch, dup) = plan_fleet(scan.clone()).route_counts();
    assert_eq!((cold, patch, dup), (6, 6, 3));
    assert_cluster_keys_unchanged(scan);
}

/// Options with the `batch` op enabled on the example-fleet root.
fn fleet_options() -> ServeOptions {
    ServeOptions {
        fleet_root: Some(fleet_dir()),
        ..ServeOptions::default()
    }
}

/// The same portfolio through the `batch` op on a single engine and a
/// 3-shard router yields byte-equivalent consolidated reports. The
/// `dir` is relative to the configured `--fleet-root` (here `.`, the
/// root itself).
#[test]
fn batch_op_is_byte_equivalent_across_shard_counts() {
    let request = "{\"op\":\"batch\",\"dir\":\".\"}";
    let single = Engine::new(fleet_options());
    let baseline = strip_timing(&single.handle_line(request).line);
    assert!(
        baseline.starts_with("{\"ok\":true,\"op\":\"batch\""),
        "{baseline}"
    );
    for shards in [1usize, 3] {
        let sharded = ShardedEngine::new(fleet_options(), shards);
        let reply = strip_timing(&sharded.handle_line(request).line);
        assert_eq!(
            reply, baseline,
            "batch reply diverged between single engine and {shards} shard(s)"
        );
    }
}

/// Without `--fleet-root` the `batch` op is rejected outright: a
/// network client must not get the server to resolve arbitrary paths.
#[test]
fn batch_op_is_disabled_without_fleet_root() {
    let engine = Engine::new(ServeOptions::default());
    let reply = engine.handle_line("{\"op\":\"batch\",\"dir\":\".\"}").line;
    assert!(reply.starts_with("{\"ok\":false"), "{reply}");
    assert!(reply.contains("disabled"), "{reply}");
}

/// With a fleet root configured, `dir` may not escape it: absolute
/// paths and `..` components are rejected before touching the
/// filesystem.
#[test]
fn batch_op_rejects_dir_escapes() {
    let engine = Engine::new(fleet_options());
    for dir in ["/etc", "../..", "a/../../b"] {
        let reply = engine
            .handle_line(&format!("{{\"op\":\"batch\",\"dir\":\"{dir}\"}}"))
            .line;
        assert!(reply.starts_with("{\"ok\":false"), "`{dir}`: {reply}");
        assert!(reply.contains("relative path"), "`{dir}`: {reply}");
    }
}

/// A subtree can be audited by naming it relative to the root: with
/// the root one level up, `"dir":"fleet"` reaches the same portfolio.
#[test]
fn batch_op_audits_a_subdirectory_of_the_root() {
    let engine = Engine::new(ServeOptions {
        fleet_root: Some(fleet_dir().join("..")),
        ..ServeOptions::default()
    });
    let reply = engine
        .handle_line("{\"op\":\"batch\",\"dir\":\"fleet\"}")
        .line;
    assert!(
        reply.starts_with("{\"ok\":true,\"op\":\"batch\""),
        "{reply}"
    );
    assert!(reply.contains("\"configs\":13"), "{reply}");
}

// ---------------------------------------------------------------------------
// Remote batch: --connect end to end
// ---------------------------------------------------------------------------

/// `--connect --batch` forwards `--jobs` to the service, renders
/// `--format csv` client-side from the returned rows, resolves DIR
/// under the service's `--fleet-root`, and rejects escapes.
#[test]
fn batch_remote_forwards_jobs_and_renders_csv() {
    use std::io::BufRead as _;
    let mut server = Command::new(env!("CARGO_BIN_EXE_scadad"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--fleet-root",
            fleet_dir().to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    std::io::BufReader::new(server.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .trim()
        .strip_prefix("scadad: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();

    let out = Command::new(env!("CARGO_BIN_EXE_scada-analyzer"))
        .args([
            "--connect",
            &addr,
            "--batch",
            ".",
            "--jobs",
            "2",
            "--format",
            "csv",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next(),
        Some(ReportRow::CSV_HEADER),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(lines.count(), 13, "one CSV record per config:\n{stdout}");
    // The malformed config is isolated as an error row: exit 6.
    assert_eq!(out.status.code(), Some(6));

    // A dir escaping the fleet root is rejected by the service: a bad
    // --batch argument, exit 2 as in local mode.
    let out = Command::new(env!("CARGO_BIN_EXE_scada-analyzer"))
        .args(["--connect", &addr, "--batch", "../.."])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("relative path"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = server.kill();
    let _ = server.wait();
}

// ---------------------------------------------------------------------------
// CLI: malformed isolation, exit ladder, provenance floor
// ---------------------------------------------------------------------------

/// `--batch` on the example fleet isolates the malformed config as an
/// error row (exit 6), audits everything else, and verifies at least
/// half the configs via `delta` or `cached` provenance.
#[test]
fn batch_cli_isolates_malformed_and_amortizes() {
    let out = Command::new(env!("CARGO_BIN_EXE_scada-analyzer"))
        .args(["--batch", fleet_dir().to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(6),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout.lines().collect();
    assert_eq!(rows.len(), 13, "one report row per config:\n{stdout}");
    let bad: Vec<&&str> = rows.iter().filter(|r| r.contains("\"ok\":false")).collect();
    assert_eq!(
        bad.len(),
        1,
        "exactly the malformed config errors:\n{stdout}"
    );
    assert!(
        bad[0].contains("sub14-bad") && bad[0].contains("channels.csv:2:1"),
        "error row must name the config and the addressed cause: {}",
        bad[0]
    );
    let amortized = rows
        .iter()
        .filter(|r| {
            r.contains("\"provenance\":\"delta\"") || r.contains("\"provenance\":\"cached\"")
        })
        .count();
    assert!(
        amortized * 2 >= 12,
        "≥ half the valid configs must verify via delta/cached, got {amortized}/12:\n{stdout}"
    );
}

/// CSV output carries the same rows under the documented header.
#[test]
fn batch_cli_csv_format() {
    let out = Command::new(env!("CARGO_BIN_EXE_scada-analyzer"))
        .args(["--batch", fleet_dir().to_str().unwrap(), "--format", "csv"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(6));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some(ReportRow::CSV_HEADER));
    assert_eq!(lines.count(), 13);
}

/// An unreadable fleet root is a usage error (exit 2), not a panic and
/// not a half-empty report.
#[test]
fn batch_cli_unreadable_root_is_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_scada-analyzer"))
        .args(["--batch", "/nonexistent/fleet"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot read fleet root"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A clean sub-fleet (no malformed member) exits by verdict, not 6.
#[test]
fn batch_cli_clean_fleet_exits_by_verdict() {
    let src = fleet_dir();
    let tmp = std::env::temp_dir().join(format!("scada-fleet-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    for name in ["sub14-01", "sub14-02", "sub14-03"] {
        let from = src.join(name);
        for entry in walk(&from) {
            let rel = entry.strip_prefix(&from).unwrap();
            let to = tmp.join(name).join(rel);
            std::fs::create_dir_all(to.parent().unwrap()).unwrap();
            std::fs::copy(&entry, &to).unwrap();
        }
    }
    let out = Command::new(env!("CARGO_BIN_EXE_scada-analyzer"))
        .args(["--batch", tmp.to_str().unwrap()])
        .output()
        .unwrap();
    let code = out.status.code();
    assert!(
        code == Some(0) || code == Some(1) || code == Some(3),
        "clean fleet must exit by verdict, got {code:?}; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&tmp);
}

fn walk(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(walk(&path));
        } else {
            files.push(path);
        }
    }
    files
}

// ---------------------------------------------------------------------------
// Scan-level isolation
// ---------------------------------------------------------------------------

/// `scan_fleet` surfaces the malformed config as an error entry while
/// importing everything else, and the resulting members/plan are
/// independent of incidental files (README, dotfiles).
#[test]
fn scan_isolates_malformed_and_ignores_noise() {
    let scan = scan_fleet(&fleet_dir()).unwrap();
    assert_eq!(scan.members.len(), 12);
    assert_eq!(scan.errors.len(), 1);
    let (name, error) = &scan.errors[0];
    assert_eq!(name, "sub14-bad");
    assert!(error.contains("channels.csv:2:1"), "{error}");
    // Two similarity clusters: one per IEEE system.
    let clusters: std::collections::BTreeSet<_> = scan.members.iter().map(|m| m.cluster).collect();
    assert_eq!(
        clusters.len(),
        2,
        "expected exactly the IEEE-14 and IEEE-30 clusters"
    );
}

/// The executor survives a mid-chain service failure: if a patch step's
/// predecessor errored, the chain re-anchors with a cold load instead
/// of cascading the failure down the cluster.
#[test]
fn broken_chain_reanchors_with_cold_load() {
    let plan = plan_fleet(scan_fleet(&fleet_dir()).unwrap());
    let engine = Engine::new(ServeOptions::default());
    // Fail exactly the first `load` the executor issues; everything
    // afterwards goes through.
    let failed = std::sync::atomic::AtomicBool::new(false);
    let submit = move |line: &str| {
        if line.contains("\"op\":\"load\"")
            && !failed.swap(true, std::sync::atomic::Ordering::SeqCst)
        {
            return "{\"ok\":false,\"error\":\"injected\"}".to_string();
        }
        engine.handle_line(line).line
    };
    let outcome = run_plan(&plan, 1, &submit);
    let errored: Vec<&ReportRow> = outcome
        .rows
        .iter()
        .filter(|r| r.error.as_deref().is_some_and(|e| e.contains("injected")))
        .collect();
    assert_eq!(errored.len(), 1, "only the injected failure errors");
    // Every other previously-valid config still verified.
    assert_eq!(
        outcome.rows.iter().filter(|r| r.error.is_none()).count(),
        11
    );
    // The member chained after the failed base re-anchors with a cold
    // load and must be *reported* as cold, not keep its planned
    // patch/dup label — otherwise the report's dedup rate contradicts
    // the engine-reported provenance.
    let (cold, patch, dup) = plan.route_counts();
    let follow_up = plan
        .clusters
        .first()
        .map_or(0, |c| usize::from(c.len() > 1));
    assert!(
        follow_up == 1,
        "fixture: first cluster must chain ≥ 2 members"
    );
    let route_count = |route: &str| {
        outcome
            .rows
            .iter()
            .filter(|r| r.route == Some(route))
            .count()
    };
    assert_eq!(route_count("cold"), cold + follow_up);
    assert_eq!(
        route_count("patch") + route_count("dup"),
        patch + dup - follow_up
    );
}
