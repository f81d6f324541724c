//! Property tests: the Tseitin encoding must be equisatisfiable with the
//! expression semantics, and cardinality encodings must agree with
//! popcount on random instances.

use proptest::prelude::*;

use boolexpr::{assert_at_most, CardEncoding, Encoder, ExprPool, NodeRef, UnaryCounter};
use satcore::{CnfSink, Lit, SolveResult, Solver, Var};

/// A recipe for building a random expression over `n` base literals.
#[derive(Debug, Clone)]
enum Recipe {
    Leaf(usize, bool),
    Not(Box<Recipe>),
    And(Vec<Recipe>),
    Or(Vec<Recipe>),
    Iff(Box<Recipe>, Box<Recipe>),
    Ite(Box<Recipe>, Box<Recipe>, Box<Recipe>),
}

fn arb_recipe(n_vars: usize) -> impl Strategy<Value = Recipe> {
    let leaf = (0..n_vars, any::<bool>()).prop_map(|(v, pol)| Recipe::Leaf(v, pol));
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(|r| Recipe::Not(Box::new(r))),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Recipe::And),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Recipe::Or),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Iff(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Recipe::Ite(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

fn build(pool: &mut ExprPool, recipe: &Recipe, base: &[Lit]) -> NodeRef {
    match recipe {
        Recipe::Leaf(v, pol) => {
            let l = if *pol { base[*v] } else { !base[*v] };
            pool.lit(l)
        }
        Recipe::Not(r) => {
            let x = build(pool, r, base);
            pool.not(x)
        }
        Recipe::And(rs) => {
            let xs: Vec<_> = rs.iter().map(|r| build(pool, r, base)).collect();
            pool.and(xs)
        }
        Recipe::Or(rs) => {
            let xs: Vec<_> = rs.iter().map(|r| build(pool, r, base)).collect();
            pool.or(xs)
        }
        Recipe::Iff(a, b) => {
            let x = build(pool, a, base);
            let y = build(pool, b, base);
            pool.iff(x, y)
        }
        Recipe::Ite(c, t, e) => {
            let x = build(pool, c, base);
            let y = build(pool, t, base);
            let z = build(pool, e, base);
            pool.ite(x, y, z)
        }
    }
}

fn eval_recipe(recipe: &Recipe, assignment: &[bool]) -> bool {
    match recipe {
        Recipe::Leaf(v, pol) => assignment[*v] == *pol,
        Recipe::Not(r) => !eval_recipe(r, assignment),
        Recipe::And(rs) => rs.iter().all(|r| eval_recipe(r, assignment)),
        Recipe::Or(rs) => rs.iter().any(|r| eval_recipe(r, assignment)),
        Recipe::Iff(a, b) => eval_recipe(a, assignment) == eval_recipe(b, assignment),
        Recipe::Ite(c, t, e) => {
            if eval_recipe(c, assignment) {
                eval_recipe(t, assignment)
            } else {
                eval_recipe(e, assignment)
            }
        }
    }
}

const N_VARS: usize = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The Tseitin definition literal of a random expression is forced to
    /// the expression's truth value under every full assignment of the
    /// base variables.
    #[test]
    fn tseitin_literal_matches_semantics(recipe in arb_recipe(N_VARS)) {
        let mut solver = Solver::new();
        let base: Vec<Lit> = (0..N_VARS).map(|_| solver.new_var().positive()).collect();
        let mut pool = ExprPool::new();
        let root = build(&mut pool, &recipe, &base);
        let mut enc = Encoder::new();
        let d = enc.literal(&pool, root, &mut solver);

        for bits in 0..(1u32 << N_VARS) {
            let assignment: Vec<bool> = (0..N_VARS).map(|i| (bits >> i) & 1 == 1).collect();
            let mut assumptions: Vec<Lit> = (0..N_VARS)
                .map(|i| if assignment[i] { base[i] } else { !base[i] })
                .collect();
            let expected = eval_recipe(&recipe, &assignment);
            // Pool-level eval agrees with recipe-level eval.
            let pool_val = pool.eval(root, |l: Lit| {
                assignment[l.var().index()] != l.is_negative()
            });
            prop_assert_eq!(pool_val, expected);
            // The definition literal is forced accordingly.
            assumptions.push(if expected { d } else { !d });
            prop_assert_eq!(solver.solve_with_assumptions(&assumptions), SolveResult::Sat);
            let last = assumptions.len() - 1;
            assumptions[last] = if expected { !d } else { d };
            prop_assert_eq!(solver.solve_with_assumptions(&assumptions), SolveResult::Unsat);
        }
    }

    /// Asserting a random expression keeps exactly its satisfying
    /// assignments (projected to base variables).
    #[test]
    fn tseitin_assert_equisatisfiable(recipe in arb_recipe(N_VARS)) {
        let mut solver = Solver::new();
        let base: Vec<Lit> = (0..N_VARS).map(|_| solver.new_var().positive()).collect();
        let mut pool = ExprPool::new();
        let root = build(&mut pool, &recipe, &base);
        let mut enc = Encoder::new();
        enc.assert(&pool, root, &mut solver);

        for bits in 0..(1u32 << N_VARS) {
            let assignment: Vec<bool> = (0..N_VARS).map(|i| (bits >> i) & 1 == 1).collect();
            let assumptions: Vec<Lit> = (0..N_VARS)
                .map(|i| if assignment[i] { base[i] } else { !base[i] })
                .collect();
            let expected = eval_recipe(&recipe, &assignment);
            let got = solver.solve_with_assumptions(&assumptions) == SolveResult::Sat;
            prop_assert_eq!(got, expected, "assignment {:?}", assignment);
        }
    }

    /// All three cardinality encodings agree with popcount on random
    /// (n, k) and random forced sub-assignments.
    #[test]
    fn cardinality_encodings_agree(
        n in 1usize..8,
        k_raw in 0usize..8,
        bits in 0u32..256,
    ) {
        let k = k_raw % (n + 1);
        let bits = bits & ((1 << n) - 1);
        for enc in [CardEncoding::Pairwise, CardEncoding::Sequential, CardEncoding::Totalizer] {
            let mut solver = Solver::new();
            let xs: Vec<Lit> = (0..n).map(|_| solver.new_var().positive()).collect();
            assert_at_most(&mut solver, &xs, k, enc);
            let assumptions: Vec<Lit> = (0..n)
                .map(|i| if (bits >> i) & 1 == 1 { xs[i] } else { !xs[i] })
                .collect();
            let expected = (bits.count_ones() as usize) <= k;
            let got = solver.solve_with_assumptions(&assumptions) == SolveResult::Sat;
            prop_assert_eq!(got, expected, "enc={:?} n={} k={} bits={:b}", enc, n, k, bits);
        }
    }

    /// The k-simplified totalizer at scale: under a random full input
    /// assignment, every output below a random cap is forced to
    /// `Σ ≥ j+1`, and the opposite polarity of the outputs around the
    /// true count (and of one random output) is refuted.
    #[test]
    fn capped_counter_matches_popcount_at_scale(
        n in 1usize..=200,
        cap_raw in 1usize..=200,
        probe in 0usize..200,
        assignment in proptest::collection::vec(any::<bool>(), 200),
    ) {
        let cap = 1 + (cap_raw - 1) % n;
        let mut solver = Solver::new();
        let xs: Vec<Lit> = (0..n).map(|_| solver.new_var().positive()).collect();
        let counter = UnaryCounter::build_capped(&mut solver, &xs, cap);
        prop_assert_eq!(counter.len(), n);
        prop_assert_eq!(counter.outputs().len(), cap);
        let base: Vec<Lit> = (0..n)
            .map(|i| if assignment[i] { xs[i] } else { !xs[i] })
            .collect();
        let pop = assignment[..n].iter().filter(|&&b| b).count();
        prop_assert_eq!(solver.solve_with_assumptions(&base), SolveResult::Sat);
        for (j, o) in counter.outputs().iter().enumerate() {
            let value = solver.value_of(o.var()).map(|v| v != o.is_negative());
            prop_assert_eq!(value, Some(pop > j), "n={} cap={} pop={} output {}", n, cap, pop, j);
        }
        for j in [pop.wrapping_sub(1), pop, probe % cap] {
            if let Some(&o) = counter.outputs().get(j) {
                let mut assumptions = base.clone();
                assumptions.push(if pop > j { !o } else { o });
                prop_assert_eq!(
                    solver.solve_with_assumptions(&assumptions),
                    SolveResult::Unsat,
                    "n={} cap={} pop={} output {} takes the wrong polarity", n, cap, pop, j
                );
            }
        }
    }
}

#[test]
fn pool_sharing_reduces_solver_size() {
    // Encoding the same sub-expression many times must not blow up the
    // variable count.
    let mut solver = Solver::new();
    let base: Vec<Lit> = (0..4).map(|_| solver.new_var().positive()).collect();
    let mut pool = ExprPool::new();
    let a = pool.lit(base[0]);
    let b = pool.lit(base[1]);
    let shared = pool.and([a, b]);
    let mut enc = Encoder::new();
    let before = solver.num_vars();
    for _ in 0..100 {
        enc.literal(&pool, shared, &mut solver);
    }
    let after = solver.num_vars();
    assert_eq!(after - before, 1, "shared node must be defined once");
    let _ = Var::from_index(0); // silence unused import in some cfgs
}
