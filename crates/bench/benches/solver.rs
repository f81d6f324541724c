//! Ablation benches for the engine layer: the CDCL solver on classic
//! hard instances, and proof replay with and without the solver's
//! antecedent hints (the design choices DESIGN.md calls out).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use satcore::{
    check_hinted_proof, check_unsat_proof, Cnf, CnfSink, ProofBuffer, SolveResult, Solver, Var,
};
use std::hint::black_box;

/// Pigeonhole principle php(n+1, n): canonical hard unsat family.
fn pigeonhole_cnf(holes: usize) -> Cnf {
    let pigeons = holes + 1;
    let mut cnf = Cnf::new();
    let vars: Vec<Var> = (0..pigeons * holes).map(|_| cnf.new_var()).collect();
    let v = |p: usize, h: usize| vars[p * holes + h];
    for p in 0..pigeons {
        let clause: Vec<_> = (0..holes).map(|h| v(p, h).positive()).collect();
        cnf.add_clause(&clause);
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                cnf.add_clause(&[v(p1, h).negative(), v(p2, h).negative()]);
            }
        }
    }
    cnf
}

fn pigeonhole(holes: usize) -> Solver {
    let mut s = Solver::new();
    pigeonhole_cnf(holes).load_into(&mut s);
    s
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("satcore");
    group.sample_size(10);
    for holes in [6usize, 7, 8] {
        group.bench_with_input(BenchmarkId::new("pigeonhole", holes), &holes, |b, &h| {
            b.iter(|| {
                let mut s = pigeonhole(black_box(h));
                assert_eq!(s.solve(), SolveResult::Unsat);
            })
        });
    }
    group.finish();
}

/// Proof replay: the same buffered pigeonhole proof (solved once,
/// outside the timer) checked from the solver's antecedent hints and
/// as plain DRAT by full unit propagation.
fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay");
    group.sample_size(10);
    for holes in [7usize, 8] {
        let cnf = pigeonhole_cnf(holes);
        let mut s = Solver::new();
        let buffer = ProofBuffer::new();
        s.set_proof_sink(Some(Box::new(buffer.clone())));
        cnf.load_into(&mut s);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let proof = buffer.take_hinted();
        group.bench_with_input(BenchmarkId::new("hinted", holes), &holes, |b, _| {
            b.iter(|| {
                let stats = check_hinted_proof(&cnf, black_box(&proof), &[]).unwrap();
                assert_eq!(stats.fallbacks, 0);
            })
        });
        group.bench_with_input(BenchmarkId::new("drat", holes), &holes, |b, _| {
            b.iter(|| check_unsat_proof(&cnf, black_box(proof.steps()), &[]).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solver, bench_replay);
criterion_main!(benches);
