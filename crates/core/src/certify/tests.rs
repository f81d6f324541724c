//! The checker thread against a serial checker: every certified script
//! runs once, with the solver's proof teed into the session's checker
//! thread and into a [`ProofBuffer`] that a serial [`RupChecker`] drains
//! after each query, the way a checker on the solver's thread would.
//! Both must reach the same certificates and the same checker counters
//! after every query, with default chunks and with one-record chunks
//! (every step crosses a chunk boundary). The checker thread's faults
//! must fail certificates, never hang or panic the analyzer.

use powergrid::synthetic::ieee_sized;
use satcore::{HintedProof, ProofBuffer, ProofSink};
use scadasim::{generate, CryptoAlgorithm, CryptoProfile, DeviceKind, ScadaGenConfig};

use super::*;
use crate::casestudy::five_bus_case_study;
use crate::encode::paths::enumerate_paths;
use crate::patch::ModelPatch;
use crate::spec::QueryLimits;
use crate::verify::Analyzer;

/// Hands every proof event to the checker thread's sink and to a buffer.
struct Tee {
    sink: ChunkSink,
    buffer: ProofBuffer,
}

impl ProofSink for Tee {
    fn add_axiom(&mut self, lits: &[Lit]) {
        self.sink.add_axiom(lits);
        self.buffer.add_axiom(lits);
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.sink.add_clause(lits);
        self.buffer.add_clause(lits);
    }

    fn add_clause_hinted(&mut self, lits: &[Lit], hints: &[u32]) {
        self.sink.add_clause_hinted(lits, hints);
        self.buffer.add_clause_hinted(lits, hints);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.sink.delete_clause(lits);
        self.buffer.delete_clause(lits);
    }

    fn begin_solve(&mut self) {
        self.sink.begin_solve();
    }

    fn flush_proof(&mut self) {
        self.sink.flush_proof();
    }
}

/// A certified analyzer and the serial checker shadowing its session.
struct Oracle<'a> {
    analyzer: Analyzer<'a>,
    buffer: ProofBuffer,
    serial: RupChecker,
    fault: Option<CertFault>,
}

impl<'a> Oracle<'a> {
    fn new(input: &'a AnalysisInput, fault: Option<CertFault>, entries: usize) -> Oracle<'a> {
        let buffer = ProofBuffer::new();
        let tee = buffer.clone();
        let certify = CertifyOptions {
            fault,
            ..CertifyOptions::enabled()
        };
        let analyzer = Analyzer::build_certified(
            std::sync::Arc::new(input.clone()),
            enumerate_paths(input),
            Obs::none(),
            certify,
            entries,
            move |sink| Box::new(Tee { sink, buffer: tee }),
        );
        Oracle {
            analyzer,
            buffer,
            serial: RupChecker::new(),
            fault,
        }
    }

    /// Feeds the serial checker the window's axioms and returns its steps.
    fn drain(&mut self) -> HintedProof {
        for clause in self.buffer.take_axioms().iter() {
            self.serial.add_axiom(clause);
        }
        self.buffer.take_hinted()
    }

    /// The serial checker's verdict on the query that just finished.
    fn serial_check(&mut self, verdict: &Verdict) -> Result<(), String> {
        let mut proof = self.drain();
        if self.fault == Some(CertFault::CorruptProof) {
            proof.insert_unhinted(0, ProofStep::Add(Vec::new()));
        }
        self.serial
            .replay(&proof)
            .map_err(|e| format!("proof replay failed: {e}"))?;
        let encoder = self.analyzer.encoder_mut();
        match verdict {
            Verdict::Unknown { .. } => Ok(()),
            Verdict::Resilient => match self.serial.refutes(encoder.last_assumptions()) {
                true => Ok(()),
                false => Err("proof does not refute the query's assumptions".into()),
            },
            Verdict::Threat(_) => {
                let mut model = encoder.solver().model_values().to_vec();
                if self.fault == Some(CertFault::CorruptModel) {
                    if let Some(v) = model.iter_mut().find(|v| v.is_defined()) {
                        *v = v.negate();
                    }
                }
                self.serial
                    .check_model(&model)
                    .map_err(|e| format!("model check failed: {e}"))
            }
        }
    }

    fn session_stats(&mut self) -> CheckStats {
        self.analyzer.cert_session().checker_stats()
    }

    fn verify(&mut self, property: Property, spec: ResiliencySpec) {
        let before = self.serial.stats();
        let report = self.analyzer.verify_with_report(property, spec);
        let serial = self.serial_check(&report.verdict);
        let after = self.serial.stats();
        let at = format!("{property} {spec}");
        assert_eq!(self.session_stats(), after, "{at}: checker counters");
        match (report.certificate.expect("certified"), serial) {
            (Certificate::Failed { reason }, Err(expected)) => assert_eq!(reason, expected, "{at}"),
            (
                Certificate::Proof {
                    steps,
                    propagations,
                    ..
                },
                Ok(()),
            ) => {
                assert!(report.verdict.is_resilient(), "{at}");
                assert_eq!(steps, after.steps - before.steps, "{at}");
                assert_eq!(
                    propagations,
                    after.propagations - before.propagations,
                    "{at}"
                );
            }
            (Certificate::Threat { steps, .. }, Ok(())) => {
                assert!(matches!(report.verdict, Verdict::Threat(_)), "{at}");
                assert_eq!(steps, after.steps - before.steps, "{at}");
            }
            (certificate, serial) => panic!("{at}: {certificate:?} but serially {serial:?}"),
        }
    }

    fn patch(&mut self, patch: &ModelPatch) {
        let proof = self.drain();
        let serial = self.serial.replay(&proof);
        let piped = self.analyzer.apply_patch(patch);
        assert_eq!(
            piped.is_ok(),
            serial.is_ok(),
            "{patch}: {piped:?} {serial:?}"
        );
        assert_eq!(self.session_stats(), self.serial.stats(), "{patch}");
    }
}

fn generated(buses: usize, secure_fraction: f64, seed: u64) -> AnalysisInput {
    let scada = generate(
        ieee_sized(buses, 0),
        &ScadaGenConfig {
            measurement_density: 1.0,
            hierarchy_level: 1,
            secure_fraction,
            seed,
            ..Default::default()
        },
    );
    AnalysisInput::new(scada.measurements, scada.topology, scada.ied_measurements)
}

fn first(input: &AnalysisInput, kind: DeviceKind) -> scadasim::DeviceId {
    input
        .topology
        .devices()
        .iter()
        .find(|d| d.kind() == kind)
        .expect("the model has one")
        .id()
}

const PROPERTIES: [Property; 3] = [
    Property::Observability,
    Property::SecuredObservability,
    Property::BadDataDetectability,
];

fn case_study(oracle: &mut Oracle<'_>) {
    for property in PROPERTIES {
        for k in 0..3 {
            oracle.verify(property, ResiliencySpec::total(k));
        }
        for (k1, k2) in [(0, 0), (1, 1), (2, 1)] {
            oracle.verify(property, ResiliencySpec::split(k1, k2));
        }
    }
}

fn battery(oracle: &mut Oracle<'_>) {
    for property in [Property::Observability, Property::SecuredObservability] {
        for k in 1..=2 {
            oracle.verify(property, ResiliencySpec::total(k));
        }
    }
}

fn patch_chain(oracle: &mut Oracle<'_>, input: &AnalysisInput) {
    let (ied, mtu) = (first(input, DeviceKind::Ied), input.topology.mtu());
    for bits in [256, 128] {
        oracle.verify(Property::SecuredObservability, ResiliencySpec::split(1, 1));
        oracle.patch(&ModelPatch::SetProfile {
            a: ied,
            b: mtu,
            profiles: vec![CryptoProfile::new(CryptoAlgorithm::Aes, bits)],
        });
    }
    oracle.verify(Property::Observability, ResiliencySpec::total(2));
    oracle.patch(&ModelPatch::RemoveDevice { id: ied });
    oracle.verify(Property::Observability, ResiliencySpec::total(2));
    oracle.verify(Property::SecuredObservability, ResiliencySpec::total(1));
}

fn counter_rebuild(oracle: &mut Oracle<'_>, input: &AnalysisInput) {
    for spec in [
        ResiliencySpec::total(3),
        ResiliencySpec::total(9),
        ResiliencySpec::total(3),
        ResiliencySpec::split(9, 0),
        ResiliencySpec::split(3, 0),
    ] {
        oracle.verify(Property::Observability, spec);
    }
    oracle.patch(&ModelPatch::AddDevice {
        kind: DeviceKind::Ied,
        peers: vec![first(input, DeviceKind::Rtu)],
    });
    oracle.verify(Property::Observability, ResiliencySpec::total(3));
    oracle.verify(Property::Observability, ResiliencySpec::split(3, 0));
}

/// Runs `script` over `input` with default chunks and with chunks that
/// one record fills.
fn pipelined_matches_serial(
    input: &AnalysisInput,
    fault: Option<CertFault>,
    script: impl Fn(&mut Oracle<'_>),
) {
    for entries in [CHUNK_ENTRIES, 1] {
        let mut oracle = Oracle::new(input, fault, entries);
        script(&mut oracle);
        if fault.is_none() {
            assert_eq!(
                oracle.session_stats().fallbacks,
                0,
                "chunks of {entries} entries"
            );
        }
    }
}

#[test]
fn pipelined_matches_serial_on_the_case_study() {
    pipelined_matches_serial(&five_bus_case_study(), None, case_study);
}

#[test]
fn pipelined_matches_serial_on_an_ieee57_battery() {
    pipelined_matches_serial(&generated(57, 0.9, 1), None, battery);
}

#[test]
fn pipelined_matches_serial_across_a_patch_chain() {
    let input = generated(30, 0.8, 3);
    pipelined_matches_serial(&input, None, |oracle| patch_chain(oracle, &input));
}

#[test]
fn pipelined_matches_serial_across_counter_rebuilds() {
    let input = generated(30, 0.8, 3);
    pipelined_matches_serial(&input, None, |oracle| counter_rebuild(oracle, &input));
}

#[test]
fn pipelined_matches_serial_under_both_faults() {
    let input = five_bus_case_study();
    for fault in [CertFault::CorruptProof, CertFault::CorruptModel] {
        pipelined_matches_serial(&input, Some(fault), case_study);
        pipelined_matches_serial(&input, Some(fault), |oracle| patch_chain(oracle, &input));
    }
}

#[test]
fn a_checker_panic_fails_every_certificate_without_hanging() {
    let input = five_bus_case_study();
    let certify = CertifyOptions {
        fault: Some(CertFault::CheckerPanic),
        ..CertifyOptions::enabled()
    };
    let mut analyzer = Analyzer::with_options(&input, Obs::none(), certify.clone());
    for spec in [ResiliencySpec::split(1, 1), ResiliencySpec::split(2, 1)] {
        let report = analyzer.verify_with_report(Property::Observability, spec);
        match report.certificate {
            Some(Certificate::Failed { reason }) => assert!(
                reason.contains("checker thread panicked")
                    && reason.contains("injected checker fault"),
                "{reason}"
            ),
            other => panic!("a dead checker must fail certification, got {other:?}"),
        }
    }
    // A patch boundary waits on the checker too: it must fail, not hang.
    let patch = ModelPatch::RemoveDevice {
        id: first(&input, DeviceKind::Ied),
    };
    assert!(analyzer.apply_patch(&patch).is_err());
    assert_eq!(certify.log.failures(), 2);
}

#[test]
fn a_closed_checker_channel_fails_certification() {
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::with_options(&input, Obs::none(), CertifyOptions::enabled());
    // Stop the checker thread behind the session's back, as if it had
    // exited early.
    let session = analyzer.cert_session();
    session
        .tx
        .send(ToChecker::Stop)
        .expect("checker is running");
    let report = analyzer.verify_with_report(Property::Observability, ResiliencySpec::split(1, 1));
    match report.certificate {
        Some(Certificate::Failed { reason }) => {
            assert_eq!(reason, "proof checker thread stopped early")
        }
        other => panic!("a stopped checker must fail certification, got {other:?}"),
    }
}

#[test]
fn dropping_an_analyzer_mid_query_joins_its_checker() {
    let input = generated(57, 0.9, 1);
    let certify = CertifyOptions::enabled();
    let mut analyzer = Analyzer::with_options(&input, Obs::none(), certify.clone());
    let alive = analyzer.cert_session().checker_alive();
    // Solve without certifying: the query's chunks are in flight, and
    // its window never ends.
    let limits = QueryLimits::none();
    analyzer.find_violation_armed(
        &limits,
        0,
        Property::Observability,
        ResiliencySpec::total(2),
    );
    assert!(
        alive.upgrade().is_some(),
        "the checker runs beside the solver"
    );
    drop(analyzer);
    assert!(alive.upgrade().is_none(), "drop joined the checker thread");
    assert_eq!(certify.log.checks(), 0);
}
