//! Cardinality constraints over Boolean literals.
//!
//! The DSN'16 model uses two kinds of arithmetic: failure budgets
//! (`N − Σ Nodeᵢ ≤ k`) and measurement-count thresholds
//! (`Σ DelUMsr_E ≥ n`). Both are cardinality constraints, encoded here
//! three ways:
//!
//! * **pairwise** — the naive binomial encoding, only sensible for tiny
//!   inputs or `k ∈ {0, 1, n−1}`, kept as a baseline for the ablation
//!   bench,
//! * **sequential counter** (Sinz 2005) — `O(n·k)` clauses, asserts an
//!   at-most-k in one direction,
//! * **totalizer** (Bailleux & Boufkhad 2003) — `O(n²)` clauses building a
//!   full unary counter whose output literals are *equivalent* to the
//!   threshold atoms `Σ ≥ j`; this reification is what lets thresholds
//!   appear inside disjunctions (the unobservability constraint) and be
//!   queried incrementally under assumptions (the maximum-resiliency
//!   search). [`UnaryCounter::build_capped`] is its k-simplified form:
//!   only the first `cap` outputs, in `O(n·cap)` clauses, each still an
//!   equivalence.

use satcore::{CnfSink, Lit};

/// Which clause-level encoding to use for an asserted bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CardEncoding {
    /// Binomial encoding: one clause per (k+1)-subset.
    Pairwise,
    /// Sinz's sequential counter.
    Sequential,
    /// Bailleux–Boufkhad totalizer (via [`UnaryCounter`]).
    #[default]
    Totalizer,
}

/// Asserts `Σ lits ≤ k`.
///
/// # Panics
///
/// Panics if the pairwise encoding is requested for an instance where it
/// would exceed one million clauses.
pub fn assert_at_most<S: CnfSink>(sink: &mut S, lits: &[Lit], k: usize, enc: CardEncoding) {
    if k >= lits.len() {
        return; // trivially true
    }
    if k == 0 {
        for &l in lits {
            sink.add_clause(&[!l]);
        }
        return;
    }
    match enc {
        CardEncoding::Pairwise => pairwise_at_most(sink, lits, k),
        CardEncoding::Sequential => sequential_at_most(sink, lits, k),
        CardEncoding::Totalizer => {
            let counter = UnaryCounter::build(sink, lits);
            counter.assert_at_most(sink, k);
        }
    }
}

/// Asserts `Σ lits ≥ k` (as at-most over the negations).
pub fn assert_at_least<S: CnfSink>(sink: &mut S, lits: &[Lit], k: usize, enc: CardEncoding) {
    if k == 0 {
        return;
    }
    if k > lits.len() {
        sink.add_clause(&[]); // unsatisfiable
        return;
    }
    if k == 1 {
        sink.add_clause(lits);
        return;
    }
    let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
    assert_at_most(sink, &negated, lits.len() - k, enc);
}

/// Asserts `Σ lits = k`.
pub fn assert_exactly<S: CnfSink>(sink: &mut S, lits: &[Lit], k: usize, enc: CardEncoding) {
    assert_at_most(sink, lits, k, enc);
    assert_at_least(sink, lits, k, enc);
}

/// Clause budget above which the pairwise encoding refuses to run.
const MAX_PAIRWISE_CLAUSES: u128 = 1_000_000;

/// `C(n, r)` if it is at most `cap`, else `None`. Uses the smaller of
/// `r` and `n - r`, so the running prefix values `C(n, 1) … C(n, r)`
/// are nondecreasing and the early exit is exact; `checked_mul` catches
/// the step where the product itself would wrap `u128`.
fn binomial_capped(n: usize, r: usize, cap: u128) -> Option<u128> {
    let r = r.min(n - r);
    let mut value: u128 = 1;
    for i in 0..r {
        value = value.checked_mul((n - i) as u128)? / (i as u128 + 1);
        if value > cap {
            return None;
        }
    }
    Some(value)
}

fn pairwise_at_most<S: CnfSink>(sink: &mut S, lits: &[Lit], k: usize) {
    let n = lits.len();
    // The clause count C(n, k+1) must be bounded *while* it is computed:
    // for large (n, k) the full binomial product wraps u128 silently in
    // release builds, can land back under the budget, and the clause
    // loop below then effectively hangs.
    let combos = binomial_capped(n, k + 1, MAX_PAIRWISE_CLAUSES);
    assert!(
        combos.is_some(),
        "pairwise at-most-{k} over {n} literals needs more than \
         {MAX_PAIRWISE_CLAUSES} clauses; use another encoding"
    );
    // Emit one clause per (k+1)-subset: ¬l_{i1} ∨ … ∨ ¬l_{ik+1}.
    let mut idx: Vec<usize> = (0..=k).collect();
    loop {
        let clause: Vec<Lit> = idx.iter().map(|&i| !lits[i]).collect();
        sink.add_clause(&clause);
        // Next combination.
        let mut pos = k + 1;
        loop {
            if pos == 0 {
                return;
            }
            pos -= 1;
            if idx[pos] != pos + n - (k + 1) {
                break;
            }
            if pos == 0 {
                return;
            }
        }
        idx[pos] += 1;
        for j in (pos + 1)..=k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Sinz's sequential counter: registers `s[i][j]` meaning "at least `j+1`
/// of the first `i+1` literals are true".
#[allow(clippy::needless_range_loop)] // indices mirror the textbook subscripts
fn sequential_at_most<S: CnfSink>(sink: &mut S, lits: &[Lit], k: usize) {
    let n = lits.len();
    debug_assert!(k >= 1 && k < n);
    // s[i][j], i in 0..n-1 (no register row needed for the last literal),
    // j in 0..k.
    let rows = n - 1;
    let mut s: Vec<Vec<Lit>> = Vec::with_capacity(rows);
    for _ in 0..rows {
        s.push((0..k).map(|_| sink.new_var().positive()).collect());
    }
    // x_0 → s_{0,0}
    sink.add_clause(&[!lits[0], s[0][0]]);
    // ¬s_{0,j} for j ≥ 1
    for j in 1..k {
        sink.add_clause(&[!s[0][j]]);
    }
    for i in 1..rows {
        // x_i → s_{i,0}
        sink.add_clause(&[!lits[i], s[i][0]]);
        // s_{i-1,j} → s_{i,j}
        for j in 0..k {
            sink.add_clause(&[!s[i - 1][j], s[i][j]]);
        }
        // x_i ∧ s_{i-1,j-1} → s_{i,j}
        for j in 1..k {
            sink.add_clause(&[!lits[i], !s[i - 1][j - 1], s[i][j]]);
        }
        // x_i → ¬s_{i-1,k-1}  (would overflow to k+1)
        sink.add_clause(&[!lits[i], !s[i - 1][k - 1]]);
    }
    // Last literal: x_{n-1} → ¬s_{n-2,k-1}
    sink.add_clause(&[!lits[n - 1], !s[rows - 1][k - 1]]);
}

/// Which encoding [`assert_at_most_one`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AmoEncoding {
    /// One clause per pair: `O(n²)` clauses, zero auxiliary variables.
    Pairwise,
    /// Commander encoding (Klieber & Kwon): groups of three with a
    /// commander variable each, recursing over commanders — `O(n)`
    /// clauses and `O(n/2)` auxiliary variables.
    #[default]
    Commander,
}

/// Asserts `Σ lits ≤ 1` with an encoding specialized for the
/// at-most-one case (much lighter than the general counters).
pub fn assert_at_most_one<S: CnfSink>(sink: &mut S, lits: &[Lit], enc: AmoEncoding) {
    if lits.len() <= 1 {
        return;
    }
    match enc {
        AmoEncoding::Pairwise => {
            for i in 0..lits.len() {
                for j in (i + 1)..lits.len() {
                    sink.add_clause(&[!lits[i], !lits[j]]);
                }
            }
        }
        AmoEncoding::Commander => commander_amo(sink, lits),
    }
}

fn commander_amo<S: CnfSink>(sink: &mut S, lits: &[Lit]) {
    const GROUP: usize = 3;
    if lits.len() <= GROUP + 1 {
        // Small enough: pairwise is optimal.
        assert_at_most_one(sink, lits, AmoEncoding::Pairwise);
        return;
    }
    let mut commanders: Vec<Lit> = Vec::with_capacity(lits.len().div_ceil(GROUP));
    for group in lits.chunks(GROUP) {
        let c = sink.new_var().positive();
        // At most one within the group.
        assert_at_most_one(sink, group, AmoEncoding::Pairwise);
        // x → c for each member (so two groups cannot both fire).
        for &x in group {
            sink.add_clause(&[!x, c]);
        }
        // c → some member (keeps the commander exact, which lets this
        // encoding nest inside definitions).
        let mut clause: Vec<Lit> = group.to_vec();
        clause.push(!c);
        sink.add_clause(&clause);
        commanders.push(c);
    }
    commander_amo(sink, &commanders);
}

/// A unary counter over a set of literals (totalizer encoding).
///
/// After construction, `outputs()[j]` is a literal **equivalent** to
/// `Σ lits ≥ j+1`: both implication directions are emitted, so threshold
/// atoms can be embedded in arbitrary formulas or assumed positively and
/// negatively. A counter built by [`UnaryCounter::build_capped`] keeps
/// only the outputs below its cap; [`UnaryCounter::covers`] says which
/// bounds it can answer.
///
/// # Examples
///
/// ```
/// use boolexpr::UnaryCounter;
/// use satcore::{CnfSink, SolveResult, Solver};
///
/// let mut s = Solver::new();
/// let xs: Vec<_> = (0..4).map(|_| s.new_var().positive()).collect();
/// let counter = UnaryCounter::build(&mut s, &xs);
///
/// // Assume "at least 3": at most one xs literal may then be false.
/// let geq3 = counter.geq_lit(3).unwrap();
/// assert_eq!(
///     s.solve_with_assumptions(&[geq3, !xs[0], !xs[1]]),
///     SolveResult::Unsat
/// );
/// ```
#[derive(Debug, Clone)]
pub struct UnaryCounter {
    outputs: Vec<Lit>,
    inputs: usize,
}

impl UnaryCounter {
    /// Builds the full counter, emitting totalizer clauses into the sink.
    pub fn build<S: CnfSink>(sink: &mut S, lits: &[Lit]) -> UnaryCounter {
        UnaryCounter::build_capped(sink, lits, lits.len())
    }

    /// Builds a k-simplified totalizer that keeps only the first `cap`
    /// outputs: every merge node keeps `min(p+q, cap)` of them.
    ///
    /// Each kept output is still a full biconditional
    /// `outputs()[j] ⟺ Σ ≥ j+1`. A child's output `cap-1` only has to
    /// mean "at least `cap`", which it does in both directions, and no
    /// clause ever needs a child output past the cap, because each
    /// clause's index sum `i+j` stays below the parent's own output
    /// count. Reading a bound past the cap is refused: see
    /// [`UnaryCounter::covers`].
    pub fn build_capped<S: CnfSink>(sink: &mut S, lits: &[Lit], cap: usize) -> UnaryCounter {
        UnaryCounter {
            outputs: Self::tree(sink, lits, cap),
            inputs: lits.len(),
        }
    }

    fn tree<S: CnfSink>(sink: &mut S, lits: &[Lit], cap: usize) -> Vec<Lit> {
        match lits.len() {
            0 => Vec::new(),
            1 => lits[..cap.min(1)].to_vec(),
            n => {
                let (left, right) = lits.split_at(n / 2);
                let a = Self::tree(sink, left, cap);
                let b = Self::tree(sink, right, cap);
                Self::merge(sink, &a, &b, cap)
            }
        }
    }

    /// Merges two sorted unary vectors. `a[i]` ⟺ left sum ≥ i+1, same for
    /// `b`; produces `r` with the same property for the union, cut to
    /// `cap` outputs. A child shorter than its input count is itself
    /// capped; `i+j < r.len() ≤ cap` keeps every index read in range.
    fn merge<S: CnfSink>(sink: &mut S, a: &[Lit], b: &[Lit], cap: usize) -> Vec<Lit> {
        let p = a.len();
        let q = b.len();
        let m = (p + q).min(cap);
        let r: Vec<Lit> = (0..m).map(|_| sink.new_var().positive()).collect();
        for i in 0..=p.min(m) {
            for j in 0..=q.min(m - i) {
                // Lower bound: a ≥ i ∧ b ≥ j → r ≥ i+j.
                if i + j >= 1 {
                    let mut clause = Vec::with_capacity(3);
                    if i >= 1 {
                        clause.push(!a[i - 1]);
                    }
                    if j >= 1 {
                        clause.push(!b[j - 1]);
                    }
                    clause.push(r[i + j - 1]);
                    sink.add_clause(&clause);
                }
                // Upper bound: a < i+1 ∧ b < j+1 → r < i+j+1.
                if i + j < m {
                    let mut clause = Vec::with_capacity(3);
                    if i < p {
                        clause.push(a[i]);
                    }
                    if j < q {
                        clause.push(b[j]);
                    }
                    clause.push(!r[i + j]);
                    sink.add_clause(&clause);
                }
            }
        }
        r
    }

    /// The sorted output literals: `outputs()[j]` ⟺ `Σ ≥ j+1`.
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// Number of input literals.
    pub fn len(&self) -> usize {
        self.inputs
    }

    /// Whether the counter counts zero literals.
    pub fn is_empty(&self) -> bool {
        self.inputs == 0
    }

    /// Whether [`UnaryCounter::geq_lit`] can answer `Σ ≥ j`: `j` is at
    /// most the cap, or the counter is full (then `j > n` is trivially
    /// false).
    pub fn covers(&self, j: usize) -> bool {
        j <= self.outputs.len() || self.outputs.len() == self.inputs
    }

    /// Literal equivalent to `Σ ≥ j`. Returns `None` for the trivial
    /// bounds (`j == 0` is always true; `j > n` is always false).
    ///
    /// # Panics
    ///
    /// Panics if the counter is capped below `j` (`!self.covers(j)`):
    /// such a bound is neither trivial nor encoded.
    pub fn geq_lit(&self, j: usize) -> Option<Lit> {
        assert!(
            self.covers(j),
            "Σ ≥ {j} is past this counter's cap of {} outputs over {} inputs",
            self.outputs.len(),
            self.inputs
        );
        if j == 0 || j > self.outputs.len() {
            None
        } else {
            Some(self.outputs[j - 1])
        }
    }

    /// Literal equivalent to `Σ ≤ j` (the negation of `Σ ≥ j+1`).
    ///
    /// # Panics
    ///
    /// Panics if `Σ ≥ j+1` is past the cap, as [`UnaryCounter::geq_lit`].
    pub fn leq_lit(&self, j: usize) -> Option<Lit> {
        self.geq_lit(j.saturating_add(1)).map(|l| !l)
    }

    /// Asserts `Σ ≤ k` as unit clauses on the outputs.
    pub fn assert_at_most<S: CnfSink>(&self, sink: &mut S, k: usize) {
        if let Some(l) = self.leq_lit(k) {
            sink.add_clause(&[l]);
        }
    }

    /// Asserts `Σ ≥ k`.
    pub fn assert_at_least<S: CnfSink>(&self, sink: &mut S, k: usize) {
        if k == 0 {
            return;
        }
        match self.geq_lit(k) {
            Some(l) => sink.add_clause(&[l]),
            None => sink.add_clause(&[]), // k > n: unsatisfiable
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satcore::{SolveResult, Solver};

    fn fresh(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_var().positive()).collect()
    }

    /// Checks an asserted at-most-k against popcount over all assignments.
    fn check_at_most(n: usize, k: usize, enc: CardEncoding) {
        let mut s = Solver::new();
        let xs = fresh(&mut s, n);
        assert_at_most(&mut s, &xs, k, enc);
        for bits in 0..(1u32 << n) {
            let assumptions: Vec<Lit> = (0..n)
                .map(|i| if (bits >> i) & 1 == 1 { xs[i] } else { !xs[i] })
                .collect();
            let expected = bits.count_ones() as usize <= k;
            let got = s.solve_with_assumptions(&assumptions) == SolveResult::Sat;
            assert_eq!(got, expected, "n={n} k={k} bits={bits:b} enc={enc:?}");
        }
    }

    #[test]
    fn sequential_matches_popcount() {
        for n in 1..=6 {
            for k in 0..=n {
                check_at_most(n, k, CardEncoding::Sequential);
            }
        }
    }

    #[test]
    fn totalizer_matches_popcount() {
        for n in 1..=6 {
            for k in 0..=n {
                check_at_most(n, k, CardEncoding::Totalizer);
            }
        }
    }

    #[test]
    fn pairwise_matches_popcount() {
        for n in 1..=6 {
            for k in 0..=n {
                check_at_most(n, k, CardEncoding::Pairwise);
            }
        }
    }

    #[test]
    fn at_least_matches_popcount() {
        for enc in [
            CardEncoding::Pairwise,
            CardEncoding::Sequential,
            CardEncoding::Totalizer,
        ] {
            let n = 5;
            for k in 0..=n + 1 {
                let mut s = Solver::new();
                let xs = fresh(&mut s, n);
                assert_at_least(&mut s, &xs, k, enc);
                for bits in 0..(1u32 << n) {
                    let assumptions: Vec<Lit> = (0..n)
                        .map(|i| if (bits >> i) & 1 == 1 { xs[i] } else { !xs[i] })
                        .collect();
                    let expected = bits.count_ones() as usize >= k;
                    let got = s.solve_with_assumptions(&assumptions) == SolveResult::Sat;
                    assert_eq!(got, expected, "n={n} k={k} bits={bits:b} enc={enc:?}");
                }
            }
        }
    }

    #[test]
    fn exactly_matches_popcount() {
        let n = 5;
        for k in 0..=n {
            let mut s = Solver::new();
            let xs = fresh(&mut s, n);
            assert_exactly(&mut s, &xs, k, CardEncoding::Totalizer);
            for bits in 0..(1u32 << n) {
                let assumptions: Vec<Lit> = (0..n)
                    .map(|i| if (bits >> i) & 1 == 1 { xs[i] } else { !xs[i] })
                    .collect();
                let expected = bits.count_ones() as usize == k;
                let got = s.solve_with_assumptions(&assumptions) == SolveResult::Sat;
                assert_eq!(got, expected, "k={k} bits={bits:b}");
            }
        }
    }

    #[test]
    fn unary_counter_outputs_are_equivalences() {
        let n = 5;
        let mut s = Solver::new();
        let xs = fresh(&mut s, n);
        let counter = UnaryCounter::build(&mut s, &xs);
        for bits in 0..(1u32 << n) {
            let base: Vec<Lit> = (0..n)
                .map(|i| if (bits >> i) & 1 == 1 { xs[i] } else { !xs[i] })
                .collect();
            let pop = bits.count_ones() as usize;
            for j in 1..=n {
                let o = counter.geq_lit(j).unwrap();
                // o_j must be forced to (pop >= j) in both polarities.
                let mut with_pos = base.clone();
                with_pos.push(o);
                let sat_pos = s.solve_with_assumptions(&with_pos) == SolveResult::Sat;
                assert_eq!(sat_pos, pop >= j, "geq {j} pop {pop} (positive)");
                let mut with_neg = base.clone();
                with_neg.push(!o);
                let sat_neg = s.solve_with_assumptions(&with_neg) == SolveResult::Sat;
                assert_eq!(sat_neg, pop < j, "geq {j} pop {pop} (negative)");
            }
        }
    }

    /// The pindakaas `Checker` idiom applied to the k-simplified
    /// totalizer: for every input assignment, every output below the
    /// cap is forced to `Σ ≥ j+1` in both polarities.
    #[test]
    fn capped_counter_outputs_are_equivalences() {
        for n in 1..=8 {
            for cap in 1..=n {
                let mut s = Solver::new();
                let xs = fresh(&mut s, n);
                let counter = UnaryCounter::build_capped(&mut s, &xs, cap);
                assert_eq!(counter.outputs().len(), cap);
                for bits in 0..(1u32 << n) {
                    let base: Vec<Lit> = (0..n)
                        .map(|i| if (bits >> i) & 1 == 1 { xs[i] } else { !xs[i] })
                        .collect();
                    let pop = bits.count_ones() as usize;
                    for (j, &o) in counter.outputs().iter().enumerate() {
                        for polarity in [o, !o] {
                            let mut assumptions = base.clone();
                            assumptions.push(polarity);
                            let sat = s.solve_with_assumptions(&assumptions) == SolveResult::Sat;
                            assert_eq!(
                                sat,
                                (polarity == o) == (pop > j),
                                "n={n} cap={cap} bits={bits:b} output {j} polarity {polarity:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn capped_counter_uses_fewer_clauses() {
        use satcore::Cnf;
        let mut full = Cnf::new();
        let xs: Vec<Lit> = (0..64).map(|_| full.new_var().positive()).collect();
        UnaryCounter::build(&mut full, &xs);
        let mut capped = Cnf::new();
        let xs: Vec<Lit> = (0..64).map(|_| capped.new_var().positive()).collect();
        UnaryCounter::build_capped(&mut capped, &xs, 8);
        assert!(
            capped.clauses.len() * 3 < full.clauses.len(),
            "capped {} vs full {}",
            capped.clauses.len(),
            full.clauses.len()
        );
    }

    #[test]
    fn unary_counter_trivial_bounds() {
        let mut s = Solver::new();
        let xs = fresh(&mut s, 3);
        let counter = UnaryCounter::build(&mut s, &xs);
        assert!(counter.geq_lit(0).is_none());
        assert!(counter.geq_lit(4).is_none());
        assert!(counter.leq_lit(3).is_none());
        assert!(counter.covers(usize::MAX));
        assert_eq!(counter.len(), 3);
        assert!(!counter.is_empty());

        // A cap at or above n builds the full counter.
        let wide = UnaryCounter::build_capped(&mut s, &xs, 8);
        assert_eq!(wide.outputs().len(), 3);
        assert!(wide.geq_lit(4).is_none());

        // A capped counter still counts all its inputs, but answers
        // only the bounds up to its cap.
        let xs = fresh(&mut s, 10);
        let capped = UnaryCounter::build_capped(&mut s, &xs, 4);
        assert_eq!(capped.len(), 10);
        assert_eq!(capped.outputs().len(), 4);
        assert!(capped.covers(4) && !capped.covers(5));
        assert!(capped.geq_lit(4).is_some());
        assert!(capped.leq_lit(3).is_some());
    }

    /// A bound past the cap is neither trivial nor encoded: reading it
    /// must fail loudly rather than come back `None` ("trivially
    /// true/false").
    #[test]
    #[should_panic(expected = "past this counter's cap")]
    fn capped_counter_refuses_bounds_past_its_cap() {
        let mut s = Solver::new();
        let xs = fresh(&mut s, 10);
        let capped = UnaryCounter::build_capped(&mut s, &xs, 4);
        capped.leq_lit(4);
    }

    #[test]
    fn empty_counter() {
        let mut s = Solver::new();
        let counter = UnaryCounter::build(&mut s, &[]);
        assert!(counter.is_empty());
        counter.assert_at_most(&mut s, 0); // no-op
        assert_eq!(s.solve(), SolveResult::Sat);
        counter.assert_at_least(&mut s, 1); // unsatisfiable
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn amo_encodings_match_popcount() {
        for enc in [AmoEncoding::Pairwise, AmoEncoding::Commander] {
            for n in 1..=9 {
                let mut s = Solver::new();
                let xs = fresh(&mut s, n);
                assert_at_most_one(&mut s, &xs, enc);
                for bits in 0..(1u32 << n) {
                    let assumptions: Vec<Lit> = (0..n)
                        .map(|i| if (bits >> i) & 1 == 1 { xs[i] } else { !xs[i] })
                        .collect();
                    let expected = bits.count_ones() <= 1;
                    let got = s.solve_with_assumptions(&assumptions) == SolveResult::Sat;
                    assert_eq!(got, expected, "enc={enc:?} n={n} bits={bits:b}");
                }
            }
        }
    }

    #[test]
    fn commander_uses_fewer_clauses_at_scale() {
        use satcore::Cnf;
        let n = 60;
        let mut pairwise = Cnf::new();
        let xs: Vec<Lit> = (0..n).map(|_| pairwise.new_var().positive()).collect();
        assert_at_most_one(&mut pairwise, &xs, AmoEncoding::Pairwise);
        let mut commander = Cnf::new();
        let xs: Vec<Lit> = (0..n).map(|_| commander.new_var().positive()).collect();
        assert_at_most_one(&mut commander, &xs, AmoEncoding::Commander);
        assert!(
            commander.clauses.len() < pairwise.clauses.len() / 4,
            "commander {} vs pairwise {}",
            commander.clauses.len(),
            pairwise.clauses.len()
        );
    }

    /// C(140, 70) ≈ 2¹³⁶ overflows even u128. The old guard computed
    /// the full product first (wrapping in release, aborting with a
    /// bare overflow panic in debug) — the fix must refuse with the
    /// clean "use another encoding" message instead, before emitting a
    /// single clause.
    #[test]
    #[should_panic(expected = "use another encoding")]
    fn pairwise_guard_survives_u128_overflow() {
        use satcore::Cnf;
        let mut cnf = Cnf::new();
        let xs: Vec<Lit> = (0..140).map(|_| cnf.new_var().positive()).collect();
        assert_at_most(&mut cnf, &xs, 69, CardEncoding::Pairwise);
    }

    /// A large-n, near-n k is fine — C(40, 39) is only 40 clauses — but
    /// a naive early-exit on the *ascending* prefix C(40, 1..=39) would
    /// bail at C(40, 20) ≈ 1.4 × 10¹¹. The symmetric computation must
    /// keep accepting it.
    #[test]
    fn pairwise_guard_keeps_symmetric_small_counts() {
        use satcore::Cnf;
        let mut cnf = Cnf::new();
        let xs: Vec<Lit> = (0..40).map(|_| cnf.new_var().positive()).collect();
        assert_at_most(&mut cnf, &xs, 38, CardEncoding::Pairwise);
        assert_eq!(cnf.clauses.len(), 40);
    }

    #[test]
    fn at_most_zero_forces_all_false() {
        let mut s = Solver::new();
        let xs = fresh(&mut s, 4);
        assert_at_most(&mut s, &xs, 0, CardEncoding::Sequential);
        assert_eq!(s.solve(), SolveResult::Sat);
        for x in &xs {
            assert_eq!(s.value_of(x.var()), Some(false));
        }
    }
}
