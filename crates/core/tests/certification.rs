//! End-to-end verdict certification: every verdict the certifying
//! analyzer produces — on the paper's case study and on randomized
//! generated grids — must carry an independently checked certificate,
//! agree with the exhaustive brute-force reference, and reject
//! deliberately corrupted proofs and models.

use scada_analyzer::bruteforce::DirectEvaluator;
use scada_analyzer::casestudy::five_bus_case_study;
use scada_analyzer::service::{parse_json, Engine, Json, ServeOptions};
use scada_analyzer::synthesis::{synthesize_upgrades, SynthesisOptions};
use scada_analyzer::{
    enumerate_threats_with, par_max_resiliency, AnalysisInput, Analyzer, BudgetAxis, CertFault,
    Certificate, CertifyOptions, MetricsRegistry, Obs, Property, QueryContext, QueryLimits,
    ResiliencySpec, Verdict,
};

/// A context that certifies every verdict.
fn certifying() -> QueryContext {
    QueryContext {
        certify: CertifyOptions::enabled(),
        ..QueryContext::default()
    }
}

fn all_specs() -> Vec<(Property, ResiliencySpec)> {
    let mut queries = Vec::new();
    for property in [
        Property::Observability,
        Property::SecuredObservability,
        Property::BadDataDetectability,
    ] {
        for k in 0..3 {
            queries.push((property, ResiliencySpec::total(k)));
        }
        for (k1, k2) in [(0, 0), (1, 1), (2, 1)] {
            queries.push((property, ResiliencySpec::split(k1, k2)));
        }
    }
    queries
}

#[test]
fn case_study_verdicts_all_certify() {
    let input = five_bus_case_study();
    let certify = CertifyOptions::enabled();
    let mut analyzer = Analyzer::with_options(&input, Obs::none(), certify.clone());
    for (property, spec) in all_specs() {
        let report = analyzer.verify_with_report(property, spec);
        let certificate = report
            .certificate
            .as_ref()
            .expect("certification was enabled");
        match (&report.verdict, certificate) {
            (Verdict::Resilient, Certificate::Proof { steps, .. }) => {
                // A real refutation of a nontrivial encoding replays
                // actual proof work (the first query at least).
                let _ = steps;
            }
            (Verdict::Threat(_), Certificate::Threat { .. }) => {}
            (verdict, certificate) => {
                panic!("verdict {verdict:?} carried certificate {certificate:?}")
            }
        }
    }
    assert_eq!(certify.log.checks(), all_specs().len() as u64);
    assert_eq!(
        certify.log.failures(),
        0,
        "{:?}",
        certify.log.first_failure()
    );
}

#[test]
fn certified_verdicts_agree_with_exhaustive_search_on_random_grids() {
    // Small generated grids keep the exhaustive reference tractable.
    for seed in 0..4u64 {
        let input = scada_bench_input(seed);
        let certify = CertifyOptions::enabled();
        let mut analyzer = Analyzer::with_options(&input, Obs::none(), certify.clone());
        let evaluator = DirectEvaluator::new(&input);
        for property in [Property::Observability, Property::SecuredObservability] {
            for k in 0..3 {
                let spec = ResiliencySpec::total(k);
                let verdict = analyzer.verify(property, spec);
                let reference = evaluator.find_threat_exhaustive(property, spec);
                match (&verdict, &reference) {
                    (Verdict::Threat(_), Some(_)) | (Verdict::Resilient, None) => {}
                    other => panic!("seed {seed} {property} k={k}: disagreement {other:?}"),
                }
            }
        }
        assert_eq!(
            certify.log.failures(),
            0,
            "seed {seed}: {:?}",
            certify.log.first_failure()
        );
        assert!(certify.log.checks() > 0);
    }
}

/// A small randomized grid (6-bus synthetic, seeded) whose exhaustive
/// threat search stays cheap.
fn scada_bench_input(seed: u64) -> AnalysisInput {
    use powergrid::synthetic::synthetic_system;
    use scadasim::{generate, ScadaGenConfig};
    let scada = generate(
        synthetic_system(format!("rand6-{seed}"), 6, 8, seed),
        &ScadaGenConfig {
            measurement_density: 0.8,
            hierarchy_level: 1,
            secure_fraction: 0.6,
            seed,
            ..Default::default()
        },
    );
    AnalysisInput::new(scada.measurements, scada.topology, scada.ied_measurements)
}

#[test]
fn incremental_sweeps_certify_every_query() {
    let input = five_bus_case_study();
    let serial = par_max_resiliency(
        &input,
        Property::Observability,
        BudgetAxis::Total,
        0,
        1,
        &certifying(),
    );
    let ctx = certifying();
    let certify = &ctx.certify;
    let k = par_max_resiliency(
        &input,
        Property::Observability,
        BudgetAxis::Total,
        0,
        2,
        &ctx,
    );
    assert_eq!(k, serial, "certification must not change the sweep answer");
    assert!(certify.log.checks() >= 3, "every sweep query certifies");
    assert_eq!(
        certify.log.failures(),
        0,
        "{:?}",
        certify.log.first_failure()
    );
}

#[test]
fn enumeration_certifies_vectors_and_exhaustion() {
    let input = five_bus_case_study();
    let certify = CertifyOptions::enabled();
    let mut analyzer = Analyzer::with_options(&input, Obs::none(), certify.clone());
    let space = enumerate_threats_with(
        &mut analyzer,
        Property::Observability,
        ResiliencySpec::split(2, 1),
        64,
        &QueryLimits::none(),
    );
    assert!(!space.is_empty());
    assert!(!space.truncated);
    // One sat certificate per vector, plus the closing unsat.
    assert_eq!(certify.log.checks(), space.len() as u64 + 1);
    assert_eq!(
        certify.log.failures(),
        0,
        "{:?}",
        certify.log.first_failure()
    );
}

#[test]
fn parallel_batch_certifies_into_one_shared_log() {
    let input = five_bus_case_study();
    let ctx = certifying();
    let certify = &ctx.certify;
    let mut sweeps = 0;
    for property in [
        Property::Observability,
        Property::SecuredObservability,
        Property::BadDataDetectability,
    ] {
        for axis in [
            BudgetAxis::IedsOnly,
            BudgetAxis::RtusOnly,
            BudgetAxis::Total,
        ] {
            let plain = par_max_resiliency(&input, property, axis, 1, 4, &QueryContext::default());
            let certified = par_max_resiliency(&input, property, axis, 1, 4, &ctx);
            assert_eq!(certified, plain, "{property} along {axis:?}");
            sweeps += 1;
        }
    }
    // Every sweep runs at least its k = 0 rung, on whichever of the four
    // workers takes it; all of them tally into the one log.
    assert!(certify.log.checks() >= sweeps);
    assert_eq!(
        certify.log.failures(),
        0,
        "{:?}",
        certify.log.first_failure()
    );
}

/// The max-resiliency sweep and upgrade synthesis under certification:
/// the same answers as the plain default context, every verdict
/// checked, and the sweep's fleet jobs counted in the registry.
#[test]
fn sweep_and_synthesis_certify_without_changing_answers() {
    use std::sync::Arc;

    let input = five_bus_case_study();
    let metrics = Arc::new(MetricsRegistry::new());
    let ctx = QueryContext {
        obs: Obs::none().with_metrics(metrics.clone()),
        ..certifying()
    };
    for property in [Property::Observability, Property::SecuredObservability] {
        let axis = BudgetAxis::IedsOnly;
        let plain = par_max_resiliency(&input, property, axis, 1, 2, &QueryContext::default());
        let certified = par_max_resiliency(&input, property, axis, 1, 2, &ctx);
        assert_eq!(certified, plain, "{property} sweep");
    }
    assert!(metrics.counter("fleet_jobs") > 0, "sweep rungs are counted");

    let synthesize = |obs: &Obs, certify: &CertifyOptions| {
        synthesize_upgrades(
            &input,
            Property::SecuredObservability,
            ResiliencySpec::split(1, 1),
            &SynthesisOptions::default(),
            obs,
            certify,
        )
    };
    let plain = synthesize(&Obs::none(), &CertifyOptions::default());
    assert_eq!(synthesize(&ctx.obs, &ctx.certify), plain);

    let log = &ctx.certify.log;
    assert!(log.checks() > 0);
    assert_eq!(log.failures(), 0, "{:?}", log.first_failure());
}

#[test]
fn corrupted_proofs_and_models_are_rejected() {
    let input = five_bus_case_study();

    // A corrupted proof breaks the unsat certificate of a resilient
    // verdict (the injected unjustified empty clause is never RUP).
    let certify = CertifyOptions {
        fault: Some(CertFault::CorruptProof),
        ..CertifyOptions::enabled()
    };
    let mut analyzer = Analyzer::with_options(&input, Obs::none(), certify.clone());
    let report = analyzer.verify_with_report(Property::Observability, ResiliencySpec::split(1, 1));
    assert!(report.verdict.is_resilient());
    match report.certificate {
        Some(Certificate::Failed { ref reason }) => {
            assert!(
                reason.contains("proof replay"),
                "unexpected reason: {reason}"
            )
        }
        other => panic!("corrupted proof must fail certification, got {other:?}"),
    }
    assert_eq!(certify.log.failures(), 1);

    // A corrupted model breaks the sat certificate of a threat verdict.
    let certify = CertifyOptions {
        fault: Some(CertFault::CorruptModel),
        ..CertifyOptions::enabled()
    };
    let mut analyzer = Analyzer::with_options(&input, Obs::none(), certify.clone());
    let report = analyzer.verify_with_report(Property::Observability, ResiliencySpec::split(2, 1));
    assert!(matches!(report.verdict, Verdict::Threat(_)));
    match report.certificate {
        Some(Certificate::Failed { .. }) => {}
        other => panic!("corrupted model must fail certification, got {other:?}"),
    }
    assert_eq!(certify.log.failures(), 1);
    assert!(certify.log.first_failure().is_some());
}

/// A failed check inside a sweep, an enumeration or a synthesis reaches
/// its reply as `cert_failures` — what a `scadad` client reads for exit
/// code 4 — and such a reply is answered afresh, never from the cache.
/// The corrupted model fails threat certificates only, so the
/// resilient `verify` beside them checks cleanly.
#[test]
fn engine_replies_count_failed_checks_beyond_verify() {
    let engine = Engine::new(ServeOptions {
        certify: CertifyOptions {
            fault: Some(CertFault::CorruptModel),
            ..CertifyOptions::enabled()
        },
        ..ServeOptions::default()
    });
    let send = |line: &str| parse_json(&engine.handle_line(line).line).unwrap();
    let load = send("{\"op\":\"load\",\"case_study\":true}");
    let model = load
        .get("model")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let query = |fields: &str| send(&format!("{{\"model\":\"{model}\",{fields}}}"));
    let count = |reply: &Json, key: &str| reply.get(key).and_then(Json::as_u64);

    let verify = query("\"op\":\"verify\",\"property\":\"obs\",\"spec\":{\"k1\":1,\"k2\":1}");
    assert_eq!(
        verify.get("certificate").and_then(Json::as_str),
        Some("proof")
    );
    let sweep = "\"op\":\"maxres\",\"property\":\"obs\",\"axis\":\"total\",\"r\":1";
    for _ in 0..2 {
        let reply = query(sweep);
        assert!(count(&reply, "cert_checks") > Some(0), "{reply:?}");
        assert!(count(&reply, "cert_failures") > Some(0), "{reply:?}");
        assert_ne!(
            reply.get("provenance").and_then(Json::as_str),
            Some("cached")
        );
    }
    let space =
        query("\"op\":\"enumerate\",\"property\":\"obs\",\"spec\":{\"k1\":2,\"k2\":1},\"cap\":10");
    assert!(count(&space, "cert_failures") > Some(0), "{space:?}");
    let repair = query("\"op\":\"repair\",\"property\":\"secured\",\"spec\":{\"k1\":1,\"k2\":1}");
    assert!(count(&repair, "cert_failures") > Some(0), "{repair:?}");
    engine.drain();

    // An uncertified engine's replies carry no tally at all.
    let plain = Engine::new(ServeOptions::default());
    let load = parse_json(
        &plain
            .handle_line("{\"op\":\"load\",\"case_study\":true}")
            .line,
    )
    .unwrap();
    let model = load.get("model").and_then(Json::as_str).unwrap();
    let line = plain
        .handle_line(&format!("{{\"model\":\"{model}\",{sweep}}}"))
        .line;
    assert!(!line.contains("cert_"), "{line}");
    plain.drain();
}

#[test]
fn proof_dir_gets_one_file_per_query() {
    let dir = std::env::temp_dir().join(format!("scada-cert-{}-proofs", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = five_bus_case_study();
    let certify = CertifyOptions {
        proof_dir: Some(dir.clone()),
        ..CertifyOptions::enabled()
    };
    let mut analyzer = Analyzer::with_options(&input, Obs::none(), certify.clone());
    for k in 0..3 {
        analyzer.verify(Property::Observability, ResiliencySpec::total(k));
    }
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 3, "one proof file per query: {files:?}");
    for file in &files {
        assert_eq!(file.extension().and_then(|e| e.to_str()), Some("drat"));
        let text = std::fs::read_to_string(file).unwrap();
        satcore::parse_drat(&text).expect("per-query proof file parses");
    }
    assert_eq!(certify.log.failures(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The served encoding at benchmark scale: an IEEE-57, density 1.0
/// model (cardinality counters over ~80 k clauses) audited the way a
/// certified `scadad` session is — observability and secured
/// observability at k=1,2, then a device removal patched into the warm
/// analyzer and a re-verify. Every certificate must check, and the
/// solver's antecedent hints must justify every lemma on their own: a
/// single fallback to full propagation means the hints went wrong.
#[test]
fn ieee57_battery_replays_hinted_without_fallback() {
    use powergrid::synthetic::ieee_sized;
    use scada_analyzer::obs::BufferSink;
    use scada_analyzer::{MetricsRegistry, ModelPatch};
    use scadasim::{generate, DeviceKind, ScadaGenConfig};
    use std::sync::Arc;

    let scada = generate(
        ieee_sized(57, 0),
        &ScadaGenConfig {
            measurement_density: 1.0,
            hierarchy_level: 1,
            secure_fraction: 0.9,
            seed: 1,
            ..Default::default()
        },
    );
    let input = AnalysisInput::new(scada.measurements, scada.topology, scada.ied_measurements);
    let metrics = Arc::new(MetricsRegistry::new());
    let trace = Arc::new(BufferSink::new());
    let obs = Obs::none()
        .with_metrics(metrics.clone())
        .with_tracer(trace.clone());
    let certify = CertifyOptions::enabled();
    let mut analyzer = Analyzer::with_options(&input, obs, certify.clone());
    let battery = [
        (Property::Observability, 1),
        (Property::Observability, 2),
        (Property::SecuredObservability, 1),
        (Property::SecuredObservability, 2),
    ];
    let audit = |analyzer: &mut Analyzer, queries: &[(Property, usize)]| {
        for &(property, k) in queries {
            let report = analyzer.verify_with_report(property, ResiliencySpec::total(k));
            match (&report.verdict, report.certificate.as_ref()) {
                (Verdict::Resilient, Some(Certificate::Proof { .. }))
                | (Verdict::Threat(_), Some(Certificate::Threat { .. })) => {}
                (verdict, certificate) => {
                    panic!("{property} k={k}: {verdict:?} carried {certificate:?}")
                }
            }
        }
    };
    audit(&mut analyzer, &battery);
    let ied = input
        .topology
        .devices()
        .iter()
        .find(|d| d.kind() == DeviceKind::Ied)
        .expect("generated model has IEDs")
        .id();
    analyzer
        .apply_patch(&ModelPatch::RemoveDevice { id: ied })
        .expect("patch applies");
    audit(&mut analyzer, &battery[..1]);
    audit(&mut analyzer, &battery[2..3]);

    assert_eq!(certify.log.checks(), 6);
    assert_eq!(
        certify.log.failures(),
        0,
        "{:?}",
        certify.log.first_failure()
    );
    assert_eq!(metrics.counter("cert_checks"), 6);
    assert_eq!(metrics.counter("cert_hint_fallbacks"), 0);
    let certified: Vec<String> = trace
        .lines()
        .into_iter()
        .filter(|l| l.contains("\"ev\":\"certified\""))
        .collect();
    assert_eq!(certified.len(), 6);
    assert!(certified.iter().all(|l| l.contains("\"fallbacks\":0,")));
    let steps: u64 = certified
        .iter()
        .map(|l| {
            let tail = &l[l.find("\"steps\":").expect("steps field") + 8..];
            tail[..tail.find(',').expect("field ends")]
                .parse::<u64>()
                .unwrap()
        })
        .sum();
    assert!(
        steps > 1000,
        "the battery replays real proof work ({steps} steps)"
    );
}

/// Failure counters start capped at 8 outputs and are rebuilt with the
/// cap doubled when a budget reads past it; a device added by a patch
/// rebuilds them again over the new population. Unsat verdicts after
/// each rebuild refute assumptions on the *new* counter's outputs while
/// the old counter's clauses stay in the solver and the checker — they
/// must replay from hints alone, without one fallback.
#[test]
fn counter_rebuilds_mid_session_replay_without_fallback() {
    use powergrid::synthetic::ieee_sized;
    use scada_analyzer::ModelPatch;
    use scadasim::{generate, DeviceKind, ScadaGenConfig};
    use std::sync::Arc;

    let scada = generate(
        ieee_sized(30, 0),
        &ScadaGenConfig {
            measurement_density: 1.0,
            hierarchy_level: 1,
            secure_fraction: 0.8,
            seed: 3,
            ..Default::default()
        },
    );
    let input = AnalysisInput::new(scada.measurements, scada.topology, scada.ied_measurements);
    let metrics = Arc::new(MetricsRegistry::new());
    let certify = CertifyOptions::enabled();
    let mut analyzer = Analyzer::with_options(
        &input,
        Obs::none().with_metrics(metrics.clone()),
        certify.clone(),
    );
    let audit = |analyzer: &mut Analyzer, spec: ResiliencySpec, resilient: bool| {
        let report = analyzer.verify_with_report(Property::Observability, spec);
        match (&report.verdict, report.certificate.as_ref()) {
            (Verdict::Resilient, Some(Certificate::Proof { .. })) if resilient => {}
            (Verdict::Threat(_), Some(Certificate::Threat { .. })) if !resilient => {}
            (verdict, certificate) => panic!("{spec}: {verdict:?} carried {certificate:?}"),
        }
        report.encoding.clauses
    };
    // This model survives any 3 field-device (or IED) failures, not 4.
    let before = audit(&mut analyzer, ResiliencySpec::total(3), true);
    let grown = audit(&mut analyzer, ResiliencySpec::total(9), false);
    assert!(
        grown > before,
        "k=9 reads past the cap and regrows the counter"
    );
    audit(&mut analyzer, ResiliencySpec::total(3), true);
    audit(&mut analyzer, ResiliencySpec::split(9, 0), false);
    audit(&mut analyzer, ResiliencySpec::split(3, 0), true);

    let rtu = input
        .topology
        .devices()
        .iter()
        .find(|d| d.kind() == DeviceKind::Rtu)
        .expect("generated model has RTUs")
        .id();
    analyzer
        .apply_patch(&ModelPatch::AddDevice {
            kind: DeviceKind::Ied,
            peers: vec![rtu],
        })
        .expect("patch applies");
    audit(&mut analyzer, ResiliencySpec::total(3), true);
    audit(&mut analyzer, ResiliencySpec::split(3, 0), true);

    assert_eq!(
        certify.log.failures(),
        0,
        "{:?}",
        certify.log.first_failure()
    );
    assert_eq!(certify.log.checks(), 7);
    assert_eq!(metrics.counter("cert_checks"), 7);
    assert_eq!(metrics.counter("cert_hint_fallbacks"), 0);
}
