//! Cardinality constraints over Boolean literals.
//!
//! The DSN'16 model uses two kinds of arithmetic: failure budgets
//! (`N − Σ Nodeᵢ ≤ k`) and measurement-count thresholds
//! (`Σ DelUMsr_E ≥ n`). Both are cardinality constraints, encoded here
//! by the **totalizer** (Bailleux & Boufkhad 2003): `O(n²)` clauses
//! building a full unary counter whose output literals are *equivalent*
//! to the threshold atoms `Σ ≥ j`. This reification is what lets
//! thresholds appear inside disjunctions (the unobservability
//! constraint) and be queried incrementally under assumptions (the
//! maximum-resiliency search). [`UnaryCounter::build_capped`] is its
//! k-simplified form: only the first `cap` outputs, in `O(n·cap)`
//! clauses, each still an equivalence.

use satcore::{CnfSink, Lit};

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

    /// Checks a counter's asserted `Σ ≤ k` (`at_most`) or `Σ ≥ k`
    /// against popcount over all assignments.
    fn check_bound(n: usize, k: usize, at_most: bool) {
        let mut s = Solver::new();
        let xs = fresh(&mut s, n);
        let counter = UnaryCounter::build(&mut s, &xs);
        if at_most {
            counter.assert_at_most(&mut s, k);
        } else {
            counter.assert_at_least(&mut s, k);
        }
        for bits in 0..(1u32 << n) {
            let assumptions: Vec<Lit> = (0..n)
                .map(|i| if (bits >> i) & 1 == 1 { xs[i] } else { !xs[i] })
                .collect();
            let pop = bits.count_ones() as usize;
            let expected = if at_most { pop <= k } else { pop >= k };
            let got = s.solve_with_assumptions(&assumptions) == SolveResult::Sat;
            assert_eq!(got, expected, "n={n} k={k} bits={bits:b} at_most={at_most}");
        }
    }

    #[test]
    fn totalizer_matches_popcount() {
        for n in 1..=6 {
            for k in 0..=n {
                check_bound(n, k, true);
            }
        }
    }

    #[test]
    fn at_least_matches_popcount() {
        for k in 0..=6 {
            check_bound(5, k, false);
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
}
