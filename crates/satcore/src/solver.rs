//! The CDCL solver.
//!
//! A conflict-driven clause-learning SAT solver in the MiniSat lineage:
//! two-watched-literal propagation, first-UIP conflict analysis with
//! self-subsumption minimization, VSIDS variable activities with phase
//! saving, Luby restarts, and LBD/activity-based learnt-clause deletion.
//! The solver is incremental: clauses and variables can be added between
//! calls to [`Solver::solve`], and [`Solver::solve_with_assumptions`]
//! supports querying under temporary unit assumptions with extraction of
//! an unsatisfiable core over those assumptions.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::clause::{Clause, ClauseDb, ClauseRef, NO_PROOF_ID};
use crate::dimacs::Cnf;
use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};
use crate::proof::{ProofSink, LEMMA_ID_TAG};

/// The result of a solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value_of`]
    /// or [`Solver::model`].
    Sat,
    /// No satisfying assignment exists (under the given assumptions).
    Unsat,
    /// A resource limit (conflict budget, deadline, or interrupt) stopped
    /// the search before a verdict.
    Unknown,
}

/// How often (in limit checks) the wall clock is actually read; interrupt
/// and budget checks are cheap and run every time.
const DEADLINE_CHECK_INTERVAL: u32 = 64;

/// Aggregate solver statistics, useful for the scalability evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently live.
    pub learnt_clauses: u64,
    /// Number of learnt-clause database reductions.
    pub reductions: u64,
}

impl SolverStats {
    /// The per-field difference `self - earlier` (saturating), for
    /// computing what a single solve call spent from two cumulative
    /// snapshots.
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learnt_clauses: self.learnt_clauses.saturating_sub(earlier.learnt_clauses),
            reductions: self.reductions.saturating_sub(earlier.reductions),
        }
    }
}

/// A mid-solve progress callback: called with the cumulative
/// [`SolverStats`] at every restart of a solve call.
pub type ProgressFn = Box<dyn FnMut(&SolverStats) + Send>;

/// [`ProgressFn`] wrapped so [`Solver`] can keep deriving `Debug`.
struct ProgressHook(ProgressFn);

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// A [`ProofSink`] wrapped so [`Solver`] can keep deriving `Debug`.
struct ProofHook(Box<dyn ProofSink>);

impl std::fmt::Debug for ProofHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProofHook(..)")
    }
}

/// Sink for CNF clauses.
///
/// Encoders (Tseitin transformation, cardinality constraints) are generic
/// over this trait so they can target a [`Solver`] directly, a DIMACS
/// writer, or a test harness.
pub trait CnfSink {
    /// Creates a fresh variable.
    fn new_var(&mut self) -> Var;
    /// Adds a clause (a disjunction of literals).
    fn add_clause(&mut self, lits: &[Lit]);
    /// Number of variables allocated so far.
    fn num_vars(&self) -> usize;
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    /// A literal of the clause other than the watched one; if it is
    /// already true the clause is satisfied and can be skipped cheaply.
    blocker: Lit,
}

#[derive(Debug, Clone, Copy)]
struct VarData {
    reason: Option<ClauseRef>,
    level: u32,
}

const VAR_ACTIVITY_RESCALE: f64 = 1e100;

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use satcore::{Solver, SolveResult, CnfSink};
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause(&[a, b]);
/// s.add_clause(&[!a, b]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.value_of(b.var()), Some(true));
/// ```
#[derive(Debug)]
pub struct Solver {
    db: ClauseDb,
    /// Watch lists indexed by the *asserted* literal: `watches[p]` holds
    /// clauses in which `¬p` is watched (visited when `p` becomes true).
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    var_data: Vec<VarData>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    var_decay: f64,
    order: VarHeap,
    saved_phase: Vec<bool>,
    cla_inc: f64,
    cla_decay: f64,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    analyze_clear: Vec<Var>,
    /// False once a top-level conflict makes the instance trivially unsat.
    ok: bool,
    learnts: Vec<ClauseRef>,
    max_learnts: f64,
    stats: SolverStats,
    conflict_budget: Option<u64>,
    /// Wall-clock limit of the current / next solve call.
    deadline: Option<Instant>,
    /// Cooperative cancellation: when the flag is raised from another
    /// thread the search stops at its next limit check.
    interrupt: Option<Arc<AtomicBool>>,
    /// Countdown until the next (comparatively expensive) clock read.
    deadline_countdown: u32,
    /// Cumulative stats at the start of the last solve call, for
    /// [`Solver::last_solve_stats`].
    solve_baseline: SolverStats,
    /// Optional mid-solve progress callback, fired at every restart.
    progress: Option<ProgressHook>,
    /// Conflicting assumptions from the last unsat solve-with-assumptions.
    conflict_core: Vec<Lit>,
    model: Vec<LBool>,
    /// Optional DRAT proof sink; every learnt clause, add-time
    /// simplification, clause deletion, and the final (empty or
    /// assumption-core) clause is emitted here, additions with hints.
    proof: Option<ProofHook>,
    /// Clauses handed to the solver so far: the next axiom's proof id
    /// (its mirror index when mirroring is on from the start).
    axioms_added: u32,
    /// Additions emitted so far: the next lemma's ordinal.
    lemmas_emitted: u32,
    /// Antecedent hints of the next addition, in propagation order.
    hints: Vec<u32>,
    /// Scratch for conflict analysis: (level, proof id) of the reasons
    /// of literals removed by minimization.
    removed_reasons: Vec<(u32, u32)>,
    /// Optional verbatim copy of every clause handed to the solver,
    /// pre-simplification — the formula an independent checker audits
    /// verdicts against.
    mirror: Option<Cnf>,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            db: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            var_data: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            var_decay: 0.95,
            order: VarHeap::new(),
            saved_phase: Vec::new(),
            cla_inc: 1.0,
            cla_decay: 0.999,
            seen: Vec::new(),
            analyze_clear: Vec::new(),
            ok: true,
            learnts: Vec::new(),
            max_learnts: 0.0,
            stats: SolverStats::default(),
            conflict_budget: None,
            deadline: None,
            interrupt: None,
            deadline_countdown: 0,
            solve_baseline: SolverStats::default(),
            progress: None,
            conflict_core: Vec::new(),
            model: Vec::new(),
            proof: None,
            axioms_added: 0,
            lemmas_emitted: 0,
            hints: Vec::new(),
            removed_reasons: Vec::new(),
            mirror: None,
        }
    }

    /// Installs a DRAT proof sink (`None` removes it).
    ///
    /// Install it **before adding clauses** so add-time simplifications
    /// are captured. The sink's [`ProofSink::flush_proof`] is called at
    /// every exit from a solve call — including deadline, budget, and
    /// interrupt [`SolveResult::Unknown`] exits — so a bounded solve
    /// never leaves an unflushed (torn) proof behind.
    pub fn set_proof_sink(&mut self, sink: Option<Box<dyn ProofSink>>) {
        self.proof = sink.map(ProofHook);
    }

    /// Enables (or disables) mirroring: every clause subsequently added
    /// is also recorded verbatim, pre-simplification. Enable it before
    /// the first clause for the mirror to define the whole formula.
    pub fn set_clause_mirror(&mut self, enabled: bool) {
        if enabled && self.mirror.is_none() {
            self.mirror = Some(Cnf {
                num_vars: self.assigns.len(),
                clauses: Vec::new(),
            });
        } else if !enabled {
            self.mirror = None;
        }
    }

    /// The mirrored formula, if mirroring is enabled. Grows
    /// monotonically, so incremental callers can certify query by query
    /// from a remembered clause index.
    pub fn mirror(&self) -> Option<&Cnf> {
        self.mirror.as_ref()
    }

    /// Emits an addition whose antecedents are in `self.hints`,
    /// returning its proof id.
    #[inline]
    fn emit_add(&mut self, lits: &[Lit]) -> u32 {
        let Some(p) = self.proof.as_mut() else {
            return NO_PROOF_ID;
        };
        p.0.add_clause_hinted(lits, &self.hints);
        let id = LEMMA_ID_TAG | self.lemmas_emitted;
        self.lemmas_emitted += 1;
        id
    }

    /// Emits an addition with the single antecedent `hint`.
    fn emit_add_from(&mut self, lits: &[Lit], hint: u32) -> u32 {
        if self.proof.is_none() {
            return NO_PROOF_ID;
        }
        self.hints.clear();
        self.hints.push(hint);
        self.emit_add(lits)
    }

    /// The proof id of a stored clause (see [`crate::proof`] for the
    /// id scheme).
    #[inline]
    fn proof_id(&self, cref: ClauseRef) -> u32 {
        self.db.get(cref).proof_id
    }

    #[inline]
    fn emit_delete(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.0.delete_clause(lits);
        }
    }

    /// Marks the instance permanently unsat, emitting the empty clause
    /// to the proof exactly once (at the `ok` true→false transition).
    /// `antecedent` is the proof id of a clause falsified at level 0.
    fn set_unsat(&mut self, antecedent: u32) {
        if self.ok {
            self.ok = false;
            self.emit_add_from(&[], antecedent);
        }
    }

    /// [`set_unsat`](Self::set_unsat) after `confl` conflicted at level 0.
    fn set_unsat_by(&mut self, confl: ClauseRef) {
        let id = self.proof_id(confl);
        self.set_unsat(id);
    }

    /// Flushes the proof sink and passes `r` through; called on every
    /// solve exit so even `Unknown` leaves a durable, untorn proof.
    fn finish(&mut self, r: SolveResult) -> SolveResult {
        if let Some(p) = self.proof.as_mut() {
            p.0.flush_proof();
        }
        r
    }

    /// Number of live clauses (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.db.num_original + self.db.num_learnt
    }

    /// Number of original (problem) clauses.
    pub fn num_original_clauses(&self) -> usize {
        self.db.num_original
    }

    /// Solver statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// What the most recent solve call spent: the stat delta since that
    /// call started. Zero before the first solve.
    pub fn last_solve_stats(&self) -> SolverStats {
        self.stats.delta_since(&self.solve_baseline)
    }

    /// Installs a progress callback fired at every restart of a solve
    /// call, with the cumulative [`SolverStats`] at that point (`None`
    /// removes it). Restarts follow the Luby sequence, so long searches
    /// report progress steadily without the hook ever being hot.
    pub fn set_progress_hook(&mut self, hook: Option<ProgressFn>) {
        self.progress = hook.map(ProgressHook);
    }

    /// Limits each subsequent solve call to roughly `conflicts` conflicts;
    /// `None` removes the limit. When exhausted the solve returns
    /// [`SolveResult::Unknown`].
    ///
    /// The budget is **per solve call**: every call to [`Solver::solve`] /
    /// [`Solver::solve_with_assumptions`] gets the full budget again, so an
    /// incremental session never inherits a spent budget from an earlier
    /// query.
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.conflict_budget = conflicts;
    }

    /// Limits each subsequent solve call to finish (with a verdict or
    /// [`SolveResult::Unknown`]) by `deadline`; `None` removes the limit.
    ///
    /// The clock is read every `DEADLINE_CHECK_INTERVAL`-th limit check,
    /// so overshoot is bounded by a few dozen decisions.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Installs a cooperative interrupt flag (`None` removes it).
    ///
    /// Raising the flag from another thread makes an in-flight solve return
    /// [`SolveResult::Unknown`] at its next limit check. The solver only
    /// reads the flag — clearing it between queries is the caller's job.
    pub fn set_interrupt(&mut self, flag: Option<Arc<AtomicBool>>) {
        self.interrupt = flag;
    }

    /// Whether the installed interrupt flag is currently raised.
    pub fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Whether any resource limit of the current solve is exhausted: the
    /// per-call conflict budget, the wall-clock deadline (checked every
    /// [`DEADLINE_CHECK_INTERVAL`]-th call), or the interrupt flag.
    fn limits_exhausted(&mut self, budget_start: u64) -> bool {
        if let Some(budget) = self.conflict_budget {
            if self.stats.conflicts - budget_start >= budget {
                return true;
            }
        }
        if self.interrupted() {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if self.deadline_countdown == 0 {
                self.deadline_countdown = DEADLINE_CHECK_INTERVAL;
                if Instant::now() >= deadline {
                    return true;
                }
            }
            self.deadline_countdown -= 1;
        }
        false
    }

    /// The truth value of `v` in the last satisfying model.
    ///
    /// Returns `None` when no model is available or the variable was
    /// created after the last solve.
    pub fn value_of(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index()) {
            Some(LBool::True) => Some(true),
            Some(LBool::False) => Some(false),
            _ => None,
        }
    }

    /// The full model of the last satisfying solve: `model()[v] == Some(true)`
    /// iff `v` is true. Unconstrained variables may be `None`.
    pub fn model(&self) -> Vec<Option<bool>> {
        self.model
            .iter()
            .map(|&b| match b {
                LBool::True => Some(true),
                LBool::False => Some(false),
                LBool::Undef => None,
            })
            .collect()
    }

    /// The raw ternary model of the last satisfying solve, indexed by
    /// variable — the exact shape [`crate::check::check_model`] takes.
    /// Empty when the last solve was not `Sat`.
    pub fn model_values(&self) -> &[LBool] {
        &self.model
    }

    /// After an unsat [`Solver::solve_with_assumptions`], the subset of
    /// assumptions that participated in the refutation (an unsat core).
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict_core
    }

    #[inline]
    fn value_lit(&self, l: Lit) -> LBool {
        let v = self.assigns[l.var().index()];
        if l.is_negative() {
            v.negate()
        } else {
            v
        }
    }

    #[inline]
    fn level(&self, v: Var) -> u32 {
        self.var_data[v.index()].level
    }

    #[inline]
    fn reason(&self, v: Var) -> Option<ClauseRef> {
        self.var_data[v.index()].reason
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause, simplifying against the top-level assignment.
    ///
    /// Returns `false` if the clause (or a resulting top-level conflict)
    /// makes the instance unsatisfiable.
    pub fn add_clause_checked(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let axiom_id = self.axioms_added;
        self.axioms_added = self.axioms_added.wrapping_add(1);
        // Mirror verbatim even when already unsat, so the mirror always
        // equals the full formula the caller defined.
        if let Some(mirror) = self.mirror.as_mut() {
            mirror.clauses.push(lits.to_vec());
        }
        if !self.ok {
            return false;
        }
        // Sort + dedup; drop clauses with complementary or true literals,
        // strip false literals.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut out: Vec<Lit> = Vec::with_capacity(c.len());
        let mut prev: Option<Lit> = None;
        for &l in &c {
            debug_assert!(l.var().index() < self.assigns.len(), "unknown variable");
            if let Some(p) = prev {
                if p == !l {
                    return true; // tautology
                }
            }
            match self.value_lit(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => out.push(l),
            }
            prev = Some(l);
        }
        // A clause shrunk by level-0 simplification no longer matches
        // what the caller added; emit the shrunk form as a proof step
        // (it is RUP: the stripped literals are all falsified by units
        // the checker has already propagated). Its antecedent is the
        // axiom it shrinks, and it stands for that axiom from now on.
        let mut id = axiom_id;
        if out.len() < c.len() && !out.is_empty() {
            id = self.emit_add_from(&out, axiom_id);
        }
        match out.len() {
            0 => {
                self.set_unsat(axiom_id);
                false
            }
            1 => {
                self.unchecked_enqueue(out[0], None);
                if let Some(confl) = self.propagate() {
                    self.set_unsat_by(confl);
                    false
                } else {
                    true
                }
            }
            _ => {
                let mut clause = Clause::new(out, false);
                clause.proof_id = id;
                let cref = self.db.push(clause);
                self.attach(cref);
                true
            }
        }
    }

    fn attach(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let c = self.db.get(cref);
            debug_assert!(c.len() >= 2);
            (c.lits[0], c.lits[1])
        };
        self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        self.assigns[l.var().index()] = LBool::from_bool(l.is_positive());
        self.var_data[l.var().index()] = VarData {
            reason,
            level: self.decision_level(),
        };
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Fast path: blocker already true.
                if self.value_lit(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                if self.db.get(cref).deleted {
                    continue; // lazily drop watchers of deleted clauses
                }
                // Make sure the falsified literal is at index 1.
                {
                    let c = self.db.get_mut(cref);
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], false_lit);
                }
                let first = self.db.get(cref).lits[0];
                if first != w.blocker && self.value_lit(first) == LBool::True {
                    ws[j] = Watcher {
                        cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.db.get(cref).len();
                for k in 2..len {
                    let lk = self.db.get(cref).lits[k];
                    if self.value_lit(lk) != LBool::False {
                        let c = self.db.get_mut(cref);
                        c.lits.swap(1, k);
                        self.watches[(!lk).code()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting under the first literal.
                ws[j] = Watcher {
                    cref,
                    blocker: first,
                };
                j += 1;
                if self.value_lit(first) == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    // Copy remaining watchers back.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                }
            }
            ws.truncate(j);
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.saved_phase[v.index()] = l.is_positive();
            self.assigns[v.index()] = LBool::Undef;
            self.var_data[v.index()].reason = None;
            if !self.order.contains(v) {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > VAR_ACTIVITY_RESCALE {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rebuild(&self.activity);
        }
        self.order.decrease_key_of_max_heap(v, &self.activity);
    }

    fn var_decay(&mut self) {
        self.var_inc /= self.var_decay;
    }

    fn clause_bump(&mut self, cref: ClauseRef) {
        let inc = self.cla_inc;
        let c = self.db.get_mut(cref);
        c.activity += inc;
        if c.activity > 1e20 {
            for r in 0..self.db.clauses.len() {
                self.db.clauses[r].activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn clause_decay(&mut self) {
        self.cla_inc /= self.cla_decay;
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level. With a proof sink, also
    /// leaves the learnt clause's antecedents in `self.hints`.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder slot 0
        let mut path_count: u32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let hinting = self.proof.is_some();
        if hinting {
            self.hints.clear();
            self.removed_reasons.clear();
        }

        loop {
            if hinting {
                // The conflict, then reasons in descending trail order.
                self.hints.push(self.proof_id(confl));
            }
            if self.db.get(confl).learnt {
                self.clause_bump(confl);
            }
            let start = if p.is_none() { 0 } else { 1 };
            let n = self.db.get(confl).len();
            for k in start..n {
                let q = self.db.get(confl).lits[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level(v) > 0 {
                    self.seen[v.index()] = true;
                    self.analyze_clear.push(v);
                    self.var_bump(v);
                    if self.level(v) >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            p = Some(pl);
            if path_count == 0 {
                break;
            }
            confl = self
                .reason(pl.var())
                .expect("non-decision literal must have a reason");
        }
        learnt[0] = !p.expect("analysis produces an asserting literal");

        // Self-subsumption minimization: drop literals whose reason clause
        // is fully covered by the remaining learnt literals.
        let mut keep = vec![true; learnt.len()];
        for (idx, &l) in learnt.iter().enumerate().skip(1) {
            if let Some(r) = self.reason(l.var()) {
                let mut redundant = true;
                for &q in &self.db.get(r).lits[1..] {
                    if !self.seen[q.var().index()] && self.level(q.var()) > 0 {
                        redundant = false;
                        break;
                    }
                }
                if redundant {
                    keep[idx] = false;
                    if hinting {
                        let entry = (self.level(l.var()), self.proof_id(r));
                        self.removed_reasons.push(entry);
                    }
                }
            }
        }
        if hinting {
            // Propagation order: the removed literals' reasons (lowest
            // level first), the resolved reasons in ascending trail
            // order, the conflict clause last. Level-0 literals need no
            // antecedent: the checker's root assignment holds them.
            self.hints.reverse();
            self.removed_reasons.sort_by_key(|&(level, _)| level);
            self.hints
                .splice(0..0, self.removed_reasons.iter().map(|&(_, id)| id));
        }
        let learnt: Vec<Lit> = learnt
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| keep[i])
            .map(|(_, l)| l)
            .collect();

        // Find backtrack level: max level among learnt[1..].
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level(learnt[i].var()) > self.level(learnt[max_i].var()) {
                    max_i = i;
                }
            }
            self.level(learnt[max_i].var())
        };

        // Clear the seen flags.
        for v in self.analyze_clear.drain(..) {
            self.seen[v.index()] = false;
        }
        (learnt, bt_level)
    }

    fn lbd_of(&self, lits: &[Lit]) -> u16 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level(l.var())).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len().min(u16::MAX as usize) as u16
    }

    fn record_learnt(&mut self, learnt: Vec<Lit>) {
        let id = self.emit_add(&learnt);
        self.stats.learnt_clauses = self.db.num_learnt as u64 + 1;
        if learnt.len() == 1 {
            self.unchecked_enqueue(learnt[0], None);
            self.stats.learnt_clauses -= 1;
            return;
        }
        // Put a literal of the backtrack level at index 1 so the watches
        // are on the two highest-level literals.
        let mut lits = learnt;
        let mut max_i = 1;
        for i in 2..lits.len() {
            if self.level(lits[i].var()) > self.level(lits[max_i].var()) {
                max_i = i;
            }
        }
        lits.swap(1, max_i);
        let lbd = self.lbd_of(&lits);
        let asserting = lits[0];
        let mut clause = Clause::new(lits, true);
        clause.lbd = lbd;
        clause.proof_id = id;
        let cref = self.db.push(clause);
        self.attach(cref);
        self.clause_bump(cref);
        self.learnts.push(cref);
        self.unchecked_enqueue(asserting, Some(cref));
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let c = self.db.get(cref);
        if c.deleted || c.is_empty() {
            return false;
        }
        let first = c.lits[0];
        self.value_lit(first) == LBool::True && self.reason(first.var()) == Some(cref)
    }

    /// Deletes roughly half of the learnt clauses, keeping glue clauses
    /// (LBD ≤ 2), locked clauses, and the most active ones.
    fn reduce_db(&mut self) {
        self.stats.reductions += 1;
        let mut cands: Vec<ClauseRef> = self
            .learnts
            .iter()
            .copied()
            .filter(|&r| {
                let c = self.db.get(r);
                !c.deleted && c.lbd > 2 && c.len() > 2 && !self.is_locked(r)
            })
            .collect();
        cands.sort_by(|&a, &b| {
            let ca = self.db.get(a);
            let cb = self.db.get(b);
            cb.lbd.cmp(&ca.lbd).then(
                ca.activity
                    .partial_cmp(&cb.activity)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_remove = cands.len() / 2;
        for &r in cands.iter().take(to_remove) {
            if self.proof.is_some() {
                let lits = self.db.get(r).lits.clone();
                self.emit_delete(&lits);
            }
            self.db.delete(r);
        }
        self.learnts.retain(|&r| !self.db.get(r).deleted);
        self.stats.learnt_clauses = self.db.num_learnt as u64;
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v.lit(self.saved_phase[v.index()]));
            }
        }
        None
    }

    /// Computes the subset of assumptions responsible for falsifying
    /// assumption `a` (analyzeFinal in MiniSat). The core stores the
    /// assumption literals themselves. With a proof sink, the reasons
    /// walked are left in `self.hints` in ascending trail order.
    fn analyze_final(&mut self, a: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(a);
        let hinting = self.proof.is_some();
        if hinting {
            self.hints.clear();
        }
        if self.decision_level() == 0 {
            return;
        }
        self.seen[a.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let v = self.trail[i].var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.reason(v) {
                None => {
                    // A decision: under assumption solving every decision at
                    // these levels is an assumption literal.
                    self.conflict_core.push(self.trail[i]);
                }
                Some(r) => {
                    if hinting {
                        self.hints.push(self.proof_id(r));
                    }
                    let n = self.db.get(r).len();
                    for k in 1..n {
                        let q = self.db.get(r).lits[k];
                        if self.level(q.var()) > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        self.seen[a.var().index()] = false;
        if hinting {
            self.hints.reverse();
        }
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given unit assumptions.
    ///
    /// On [`SolveResult::Unsat`], [`Solver::unsat_core`] holds the subset
    /// of assumptions used in the refutation.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.model.clear();
        self.conflict_core.clear();
        if !self.ok {
            return self.finish(SolveResult::Unsat);
        }
        self.cancel_until(0);
        if let Some(confl) = self.propagate() {
            self.set_unsat_by(confl);
            return self.finish(SolveResult::Unsat);
        }

        self.max_learnts = (self.db.num_original as f64 / 3.0).max(1000.0);
        // Fresh limits for this call: the full conflict budget, and an
        // immediate first clock check (so an already-expired deadline
        // stops the search before any work).
        let budget_start = self.stats.conflicts;
        self.solve_baseline = self.stats;
        self.deadline_countdown = 0;
        let mut restart_idx: u64 = 0;
        let restart_base: u64 = 100;
        let mut conflicts_until_restart = restart_base * crate::luby::luby(restart_idx);
        let mut conflicts_this_restart: u64 = 0;

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    // A conflict with no decisions refutes the formula
                    // itself (learnt clauses never resolve on assumption
                    // decisions), so the instance is permanently unsat.
                    self.set_unsat_by(confl);
                    self.conflict_core.clear();
                    self.cancel_until(0);
                    return self.finish(SolveResult::Unsat);
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                // Assumptions may sit above the backtrack level; replaying
                // them is handled by the decision loop below.
                self.record_learnt(learnt);
                self.var_decay();
                self.clause_decay();
                // Check limits here too: a long conflict chain must not
                // outrun the budget or deadline before the next decision.
                if self.limits_exhausted(budget_start) {
                    self.cancel_until(0);
                    return self.finish(SolveResult::Unknown);
                }
            } else {
                // No conflict.
                if self.limits_exhausted(budget_start) {
                    self.cancel_until(0);
                    return self.finish(SolveResult::Unknown);
                }
                if conflicts_this_restart >= conflicts_until_restart {
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    conflicts_until_restart = restart_base * crate::luby::luby(restart_idx);
                    conflicts_this_restart = 0;
                    self.cancel_until(0);
                    if let Some(hook) = self.progress.as_mut() {
                        let snapshot = self.stats;
                        (hook.0)(&snapshot);
                    }
                    continue;
                }
                if self.db.num_learnt as f64 >= self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.1;
                }

                // Assumption decisions first.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value_lit(a) {
                        LBool::True => {
                            // Already implied; open an empty decision level
                            // to keep the level-to-assumption mapping.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.analyze_final(a);
                            // The negated core is a RUP lemma (its
                            // falsification propagates to conflict via
                            // the same reason clauses the analysis
                            // walked), making the proof self-contained
                            // for this assumption query.
                            let negated: Vec<Lit> =
                                self.conflict_core.iter().map(|&l| !l).collect();
                            self.emit_add(&negated);
                            self.cancel_until(0);
                            return self.finish(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            next = Some(a);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(l) => Some(l),
                    None => self.pick_branch(),
                };
                match decision {
                    None => {
                        // All variables assigned: model found.
                        self.model = self.assigns.clone();
                        self.cancel_until(0);
                        return self.finish(SolveResult::Sat);
                    }
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }

    /// Simplifies the top-level clause database by removing clauses
    /// satisfied at decision level zero. Call between solves.
    pub fn simplify(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return;
        }
        let refs: Vec<ClauseRef> = self.db.live_refs().collect();
        for r in refs {
            if self.is_locked(r) {
                continue;
            }
            let satisfied = self
                .db
                .get(r)
                .lits
                .iter()
                .any(|&l| self.value_lit(l) == LBool::True);
            if satisfied {
                if self.proof.is_some() {
                    let lits = self.db.get(r).lits.clone();
                    self.emit_delete(&lits);
                }
                self.db.delete(r);
            }
        }
        self.learnts.retain(|&r| !self.db.get(r).deleted);
    }
}

impl CnfSink for Solver {
    fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        if let Some(mirror) = self.mirror.as_mut() {
            mirror.num_vars = self.assigns.len() + 1;
        }
        self.assigns.push(LBool::Undef);
        self.var_data.push(VarData {
            reason: None,
            level: 0,
        });
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assigns.len());
        self.order.insert(v, &self.activity);
        v
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.add_clause_checked(lits);
    }

    fn num_vars(&self) -> usize {
        self.assigns.len()
    }
}
