//! Differential fuzzing with certification: on random CNFs the CDCL
//! solver must agree with the exhaustive brute-force reference, *and*
//! every verdict must carry an independently checked certificate — sat
//! models re-validated by [`check_model`], unsat runs re-derived by the
//! RUP checker from the emitted DRAT proof. Proofs replay *hinted*
//! (each lemma validated from the antecedents the solver named) with
//! zero fallbacks to full propagation, and the hint-free replay accepts
//! every proof the hinted one does. The DRAT text round-trip
//! (`DratWriter` → `parse_drat`) is fuzzed on the same instances, so
//! the on-disk format is pinned by the same cases CI replays. Every
//! checker learns the formula from the axiom stream the solver hands
//! its proof sink.

use proptest::prelude::*;
use satcore::bruteforce::solve_brute_force;
use satcore::{
    check_hinted_proof, check_model, check_unsat_proof, parse_drat, CheckError, Cnf, CnfSink,
    DratWriter, Lit, ProofBuffer, ProofSink, ProofStep, RupChecker, SolveResult, Solver, Var,
};

/// Strategy producing a random CNF with up to `max_vars` variables.
fn arb_cnf(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    (1..=max_vars).prop_flat_map(move |nv| {
        let clause = proptest::collection::vec((0..nv, any::<bool>()), 1..=4).prop_map(
            move |lits| -> Vec<Lit> {
                lits.into_iter()
                    .map(|(v, pos)| Var::from_index(v).lit(pos))
                    .collect()
            },
        );
        proptest::collection::vec(clause, 0..=max_clauses).prop_map(move |clauses| Cnf {
            num_vars: nv,
            clauses,
        })
    })
}

/// Solves `cnf` with proof logging armed, returning the verdict plus
/// everything a certifier needs.
fn solve_certified(cnf: &Cnf) -> (SolveResult, Solver, ProofBuffer) {
    let mut s = Solver::new();
    let buffer = ProofBuffer::new();
    s.set_proof_sink(Some(Box::new(buffer.clone())));
    cnf.load_into(&mut s);
    let r = s.solve();
    (r, s, buffer)
}

/// The formula the solver's axiom stream defines: every clause it was
/// handed since the last drain, over all its variables.
fn axiom_stream(solver: &Solver, buffer: &ProofBuffer) -> Cnf {
    Cnf {
        num_vars: solver.num_vars(),
        clauses: buffer.take_axioms().iter().map(<[Lit]>::to_vec).collect(),
    }
}

/// Strategy producing random 3-CNF at the satisfiability threshold
/// (4.3 clauses per variable): too large for brute force, but hard
/// enough that conflict analysis resolves long chains and minimizes.
fn arb_threshold_3cnf() -> impl Strategy<Value = Cnf> {
    (30usize..=45).prop_flat_map(|nv| {
        let clause =
            proptest::collection::vec((0..nv, any::<bool>()), 3..=3).prop_map(|lits| -> Vec<Lit> {
                lits.into_iter()
                    .map(|(v, pos)| Var::from_index(v).lit(pos))
                    .collect()
            });
        let m = nv * 43 / 10;
        proptest::collection::vec(clause, m..=m).prop_map(move |clauses| Cnf {
            num_vars: nv,
            clauses,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hinted replay of real search — single-shot, then incremental
    /// queries under assumptions on the same solver — never falls back
    /// to full propagation, and the hint-free replay accepts the same
    /// proof.
    #[test]
    fn threshold_3cnf_replays_hinted_without_fallback(
        cnf in arb_threshold_3cnf(),
        pols in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 4), 3),
    ) {
        let mut s = Solver::new();
        let buffer = ProofBuffer::new();
        s.set_proof_sink(Some(Box::new(buffer.clone())));
        let vars = cnf.load_into(&mut s);
        let mut checker = RupChecker::new();
        let mut plain = RupChecker::new();
        for clause in buffer.take_axioms().iter() {
            checker.add_axiom(clause);
            plain.add_axiom(clause);
        }
        let queries = std::iter::once(Vec::new()).chain(pols.iter().map(|pol| {
            pol.iter().enumerate().map(|(i, &p)| vars[i * 7].lit(p)).collect::<Vec<Lit>>()
        }));
        for assumptions in queries {
            let verdict = s.solve_with_assumptions(&assumptions);
            let proof = buffer.take_hinted();
            checker.replay(&proof).expect("every emitted step is RUP");
            for step in proof.steps() {
                plain.apply(step).expect("hint-free replay accepts what hinted replay accepts");
            }
            match verdict {
                SolveResult::Sat => {
                    prop_assert_eq!(check_model(&cnf, s.model_values()), Ok(()));
                }
                SolveResult::Unsat => {
                    prop_assert!(checker.refutes(&assumptions));
                    prop_assert!(plain.refutes(&assumptions));
                }
                SolveResult::Unknown => unreachable!("no limits set"),
            }
        }
        prop_assert_eq!(checker.stats().fallbacks, 0, "solver hints must reach a conflict");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Every verdict agrees with brute force and certifies: sat models
    /// pass the independent model checker against the formula of the
    /// *axiom stream*, unsat proofs replay through the RUP checker —
    /// hinted with no fallback, and hint-free as well.
    #[test]
    fn verdicts_agree_and_certify(cnf in arb_cnf(8, 40)) {
        let reference = solve_brute_force(&cnf);
        let (verdict, solver, buffer) = solve_certified(&cnf);
        let formula = axiom_stream(&solver, &buffer);
        prop_assert_eq!(&formula, &cnf, "the axiom stream must reproduce the formula verbatim");
        match (reference, verdict) {
            (Some(_), SolveResult::Sat) => {
                prop_assert_eq!(check_model(&formula, solver.model_values()), Ok(()));
                let mut checker = RupChecker::new();
                for clause in &formula.clauses {
                    checker.add_axiom(clause);
                }
                checker.replay(&buffer.take_hinted()).expect("every emitted step is RUP");
                prop_assert_eq!(checker.stats().fallbacks, 0);
            }
            (None, SolveResult::Unsat) => {
                let proof = buffer.take_hinted();
                let stats = check_hinted_proof(&formula, &proof, &[])
                    .expect("emitted hinted proof must check");
                prop_assert!(stats.steps as usize == proof.len());
                prop_assert_eq!(stats.fallbacks, 0, "solver hints must reach a conflict");
                let plain = check_unsat_proof(&formula, proof.steps(), &[])
                    .expect("hint-free replay accepts what hinted replay accepts");
                prop_assert_eq!(plain.steps, stats.steps);
            }
            (r, v) => prop_assert!(false, "mismatch: reference={:?} cdcl={:?}", r.is_some(), v),
        }
    }

    /// Incremental certification across assumption queries: one
    /// persistent RUP checker audits a whole session, draining axiom
    /// and proof deltas after every query (sat solves learn clauses
    /// too, so their steps must also replay cleanly). Models are
    /// checked against the checker's own axiom store.
    #[test]
    fn incremental_assumption_queries_certify(
        cnf in arb_cnf(7, 25),
        pols in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 2), 3),
    ) {
        let mut s = Solver::new();
        let buffer = ProofBuffer::new();
        s.set_proof_sink(Some(Box::new(buffer.clone())));
        let vars = cnf.load_into(&mut s);
        let mut checker = RupChecker::new();
        let mut plain = RupChecker::new();
        for pol in &pols {
            let assumptions: Vec<Lit> = pol
                .iter()
                .enumerate()
                .filter(|&(i, _)| i < vars.len())
                .map(|(i, &p)| vars[i].lit(p))
                .collect();
            let verdict = s.solve_with_assumptions(&assumptions);
            // Drain this query's axiom and proof deltas into the checker.
            for clause in buffer.take_axioms().iter() {
                checker.add_axiom(clause);
                plain.add_axiom(clause);
            }
            let proof = buffer.take_hinted();
            checker.replay(&proof).expect("every emitted step is RUP");
            for step in proof.steps() {
                plain.apply(step).expect("hint-free replay accepts what hinted replay accepts");
            }
            match verdict {
                SolveResult::Sat => {
                    prop_assert_eq!(checker.check_model(s.model_values()), Ok(()));
                    prop_assert_eq!(check_model(&cnf, s.model_values()), Ok(()));
                }
                SolveResult::Unsat => {
                    prop_assert!(
                        checker.refutes(&assumptions),
                        "checker must refute the failed assumptions"
                    );
                    prop_assert!(plain.refutes(&assumptions));
                }
                SolveResult::Unknown => unreachable!("no limits set"),
            }
        }
        prop_assert_eq!(checker.stats().fallbacks, 0, "solver hints must reach a conflict");
    }

    /// The textual DRAT round-trip is lossless on real solver output,
    /// and the streaming [`DratWriter`] emits byte-identical text to
    /// the batch [`satcore::write_drat`].
    #[test]
    fn drat_text_round_trips(cnf in arb_cnf(8, 40)) {
        let (_verdict, _solver, buffer) = solve_certified(&cnf);
        let steps: Vec<ProofStep> = buffer.take_steps();

        let mut batch = Vec::new();
        satcore::write_drat(&steps, &mut batch).unwrap();

        let mut streaming = DratWriter::new(Vec::new());
        for step in &steps {
            match step {
                ProofStep::Add(lits) => streaming.add_clause(lits),
                ProofStep::Delete(lits) => streaming.delete_clause(lits),
            }
        }
        let streamed = streaming.into_inner().unwrap();
        prop_assert_eq!(&streamed, &batch);

        let parsed = parse_drat(std::str::from_utf8(&batch).unwrap()).unwrap();
        prop_assert_eq!(parsed, steps);
    }
}

/// A corrupted proof must be rejected: flipping one literal of a lemma
/// breaks the RUP chain (or the final refutation) on a formula where
/// the proof is non-trivial.
#[test]
fn corrupted_proof_step_is_rejected() {
    // Pigeonhole 3→2 is unsat and needs real lemmas.
    let mut cnf = Cnf::default();
    let (holes, pigeons) = (2usize, 3usize);
    cnf.num_vars = holes * pigeons;
    let v = |p: usize, h: usize| Var::from_index(p * holes + h);
    for p in 0..pigeons {
        cnf.clauses
            .push((0..holes).map(|h| v(p, h).positive()).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                cnf.clauses
                    .push(vec![v(p1, h).negative(), v(p2, h).negative()]);
            }
        }
    }
    let (verdict, _solver, buffer) = solve_certified(&cnf);
    assert_eq!(verdict, SolveResult::Unsat);
    let steps = buffer.take_steps();
    check_unsat_proof(&cnf, &steps, &[]).expect("pristine proof checks");

    // Deterministic corruption: replace the first lemma with a unit
    // clause over a variable no clause constrains. Nothing propagates
    // from it, so it cannot be RUP, and the checker must name the
    // corrupted step.
    let first_add = steps
        .iter()
        .position(|s| matches!(s, ProofStep::Add(lits) if !lits.is_empty()))
        .expect("a real refutation has lemmas");
    let mut mutated = steps.clone();
    let unconstrained = Var::from_index(cnf.num_vars + 5).positive();
    mutated[first_add] = ProofStep::Add(vec![unconstrained]);
    assert_eq!(
        check_unsat_proof(&cnf, &mutated, &[]),
        Err(CheckError::NotRup { step: first_add })
    );

    // Literal-flip sweep: mutations may survive by luck on a formula
    // this dense, but every failure must be a clean rejection, never a
    // panic or a wrong error kind.
    for i in 0..steps.len() {
        let ProofStep::Add(lits) = &steps[i] else {
            continue;
        };
        if lits.is_empty() {
            continue;
        }
        let mut mutated = steps.clone();
        let mut bad = lits.clone();
        bad[0] = !bad[0];
        mutated[i] = ProofStep::Add(bad);
        match check_unsat_proof(&cnf, &mutated, &[]) {
            Ok(_) | Err(CheckError::NotRup { .. }) | Err(CheckError::NotRefuted) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}

/// Pigeonhole `pigeons → pigeons - 1`: unsat, and hard enough for CDCL
/// to fill and reduce its learnt-clause database many times over.
fn pigeonhole(pigeons: usize) -> Cnf {
    let holes = pigeons - 1;
    let mut cnf = Cnf {
        num_vars: pigeons * holes,
        clauses: Vec::new(),
    };
    let v = |p: usize, h: usize| Var::from_index(p * holes + h);
    for p in 0..pigeons {
        cnf.clauses
            .push((0..holes).map(|h| v(p, h).positive()).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                cnf.clauses
                    .push(vec![v(p1, h).negative(), v(p2, h).negative()]);
            }
        }
    }
    cnf
}

/// Learnt-clause reductions and arena compactions under proof logging:
/// the deletions they emit and the clauses compaction moves must leave
/// every hint resolvable, so the proof replays hinted with no fallback
/// and refutes the formula.
#[test]
fn reduction_and_compaction_keep_the_proof_hinted() {
    let cnf = pigeonhole(9);
    let (verdict, solver, buffer) = solve_certified(&cnf);
    assert_eq!(verdict, SolveResult::Unsat);
    let stats = solver.stats();
    assert!(
        stats.reductions >= 3 && stats.compactions >= 1,
        "PHP(9,8) must reduce and compact: {stats:?}"
    );
    let mut checker = RupChecker::new();
    for clause in buffer.take_axioms().iter() {
        checker.add_axiom(clause);
    }
    let proof = buffer.take_hinted();
    assert!(proof
        .steps()
        .iter()
        .any(|step| matches!(step, ProofStep::Delete(_))));
    checker.replay(&proof).expect("every emitted step is RUP");
    assert_eq!(
        checker.stats().fallbacks,
        0,
        "solver hints must reach a conflict"
    );
    assert!(checker.refutes(&[]));
}
