//! Independent verdict checking: model validation and RUP/DRAT proof
//! replay.
//!
//! This module is the trust anchor for the whole pipeline. It shares
//! **no code** and no storage type with the solver's propagation: where
//! the CDCL loop keeps clauses behind headers in a word arena and uses
//! a watched scheme with blocker literals, phase saving and conflict
//! analysis woven through it, the checker re-implements watched unit
//! propagation from scratch — a deliberately small engine (no blockers,
//! no learning) whose entire propagation loop fits on one screen. Its
//! clauses sit back to back in one literal vector, found by a per-clause
//! start offset, so a clause costs no allocation of its own. A verdict
//! accepted by both engines was derived by two independent
//! implementations, so a bookkeeping bug in one cannot silently
//! confirm itself.
//!
//! * [`check_model`] validates `sat` verdicts: every original clause
//!   must contain a literal the model makes true.
//!   [`RupChecker::check_model`] does the same over the axioms a
//!   checker holds, so an incremental session needs no second copy of
//!   its formula.
//! * [`RupChecker`] validates `unsat` verdicts by replaying a DRAT
//!   proof: every clause addition must be RUP (its negation leads to a
//!   conflict by unit propagation over the formula plus earlier
//!   lemmas), and the final state must refute the query's assumptions.
//!   The checker is *incremental*: axioms and proof steps can be fed
//!   across many solver queries, matching the incremental CDCL solver
//!   it audits, with no re-checking of already-validated prefixes.
//!
//! The RUP fragment checked here is exactly what a CDCL solver without
//! inprocessing emits — every learned clause follows from its reason
//! clauses by input resolution, which unit propagation re-derives.
//!
//! [`RupChecker::replay_chunk`] applies a [`ProofChunk`] — axioms and
//! hinted steps in arrival order, as [`crate::ChunkSink`] hands them to
//! a checker on another thread — with the same engine.
//!
//! **Hinted replay.** [`RupChecker::replay`] takes a [`HintedProof`],
//! whose additions name their antecedents by proof id (see
//! [`crate::proof`]). A hinted addition is validated by asserting its
//! negation and scanning only the named clauses: a unit clause asserts
//! its literal, a falsified one accepts the lemma, and the scan repeats
//! until a pass makes no progress. Hints are untrusted: they are
//! resolved through the checker's own axiom and lemma arrival counters,
//! and the scan only reads clauses the checker itself holds, so a wrong
//! id can at worst point at another clause the formula implies. When
//! the scan finds no conflict — hints wrong, missing, deleted or absent
//! — the checker falls back to full watched-literal propagation and
//! counts the fallback. A bad hint costs time, never soundness.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::dimacs::Cnf;
use crate::lit::{LBool, Lit};
use crate::proof::{ChunkRecord, HintedProof, ProofChunk, ProofStep, LEMMA_ID_TAG};

/// Why a certification check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The model leaves original clause `index` without a true literal.
    FalsifiedClause {
        /// Index of the falsified clause in the original formula.
        index: usize,
    },
    /// Proof step `step` (0-based, counting only this batch) added a
    /// clause that is not RUP with respect to the current clause set.
    NotRup {
        /// Index of the offending step in the applied sequence.
        step: usize,
    },
    /// The proof replayed cleanly but propagation under the query's
    /// assumptions does not yield a conflict — the proof does not
    /// actually refute this query.
    NotRefuted,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::FalsifiedClause { index } => {
                write!(f, "model falsifies original clause {index}")
            }
            CheckError::NotRup { step } => {
                write!(f, "proof step {step} is not RUP")
            }
            CheckError::NotRefuted => {
                write!(f, "proof does not refute the query's assumptions")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Work counters from a checking run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Proof steps applied so far.
    pub steps: u64,
    /// Literals propagated (persistent and temporary), hinted-scan
    /// units included.
    pub propagations: u64,
    /// Hinted additions accepted by scanning their hints alone.
    pub hinted: u64,
    /// Hinted additions whose hints reached no conflict, so they were
    /// re-checked by full propagation. Zero on solver output.
    pub fallbacks: u64,
}

/// Checks that `model` satisfies every clause of `cnf`.
///
/// `model` is indexed by variable; variables beyond its length count as
/// unassigned, and an unassigned variable satisfies nothing — a partial
/// model is accepted only if every clause is satisfied by the assigned
/// part.
pub fn check_model(cnf: &Cnf, model: &[LBool]) -> Result<(), CheckError> {
    first_falsified(cnf.clauses.iter().map(Vec::as_slice), model)
}

/// The first of `clauses` that `model` leaves without a true literal.
fn first_falsified<'a>(
    clauses: impl Iterator<Item = &'a [Lit]>,
    model: &[LBool],
) -> Result<(), CheckError> {
    for (index, clause) in clauses.enumerate() {
        let satisfied = clause.iter().any(|&l| {
            let v = model.get(l.var().index()).copied().unwrap_or(LBool::Undef);
            v == LBool::from_bool(l.is_positive())
        });
        if !satisfied {
            return Err(CheckError::FalsifiedClause { index });
        }
    }
    Ok(())
}

/// SplitMix64 finalizer: decorrelates literal codes before summing.
fn mix(code: u64) -> u64 {
    let mut z = code.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent hash of a clause's literal set (duplicates
/// ignored), used to index the deletion lookup. Candidates sharing a
/// hash are confirmed with [`same_clause`] — the hash only narrows the
/// search, it never decides a match. Summing mixed codes keeps the key
/// allocation-free on the insert path, which runs once per clause of
/// the formula and proof.
fn clause_key(lits: &[Lit]) -> u64 {
    let mut key = 0u64;
    for (i, &l) in lits.iter().enumerate() {
        if !lits[..i].contains(&l) {
            key = key.wrapping_add(mix(l.code() as u64));
        }
    }
    key
}

/// Set equality of two clauses (duplicate literals ignored).
fn same_clause(a: &[Lit], b: &[Lit]) -> bool {
    a.iter().all(|l| b.contains(l)) && b.iter().all(|l| a.contains(l))
}

/// Pass-through hasher for the deletion index: [`clause_key`] already
/// mixes its input, so rehashing with SipHash on every clause insert
/// would be pure overhead.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// Marker for "no previous clause with this key" in the deletion chain.
const NO_CLAUSE: u32 = u32::MAX;

/// Clause flag: an axiom, whose literals outlive its deletion because
/// [`RupChecker::check_model`] still reads them.
const AXIOM: u8 = 1;
/// Clause flag: it forced a persistent literal, so deletions skip it.
const LOCKED: u8 = 2;
/// Clause flag: deleted by a proof step.
const DELETED: u8 = 4;

/// A run of consecutive arrivals stored at consecutive clause ids.
#[derive(Debug, Clone, Copy)]
struct Run {
    ordinal: u32,
    clause: u32,
    len: u32,
}

/// Arrival ordinal → clause id, for resolving hint ids. Arrivals come in
/// batches (a query's axioms, then its lemmas), so a whole session
/// takes a few runs rather than a word per clause.
#[derive(Debug, Default)]
struct Arrivals {
    runs: Vec<Run>,
    next: u32,
}

impl Arrivals {
    /// Records the next arrival, stored at `clause` (`None`: a rejected
    /// lemma, which stores nothing).
    fn push(&mut self, clause: Option<u32>) {
        let ordinal = self.next;
        self.next = self.next.wrapping_add(1);
        let Some(clause) = clause else {
            return;
        };
        match self.runs.last_mut() {
            Some(r) if r.ordinal + r.len == ordinal && r.clause + r.len == clause => r.len += 1,
            _ => self.runs.push(Run {
                ordinal,
                clause,
                len: 1,
            }),
        }
    }

    /// The clause id arrival `ordinal` was stored at, if any.
    fn resolve(&self, ordinal: u32) -> Option<u32> {
        let i = self
            .runs
            .partition_point(|r| r.ordinal <= ordinal)
            .checked_sub(1)?;
        let r = self.runs[i];
        let offset = ordinal - r.ordinal;
        (offset < r.len).then(|| r.clause + offset)
    }
}

/// What a hinted clause says under the current assignment.
enum HintState {
    /// A literal is true, or the clause was deleted: nothing to learn.
    Done,
    /// Every literal is false.
    Falsified,
    /// Exactly one literal is unassigned and none is true.
    Unit(Lit),
    /// Two or more literals are unassigned.
    Open,
}

/// An incremental RUP/DRAT checker with its own propagation engine.
///
/// Feed original clauses with [`add_axiom`], replay solver output with
/// [`apply`], and validate an unsat answer with [`refutes`]. All state
/// persists across calls, so one checker audits an entire incremental
/// solving session step by step.
///
/// [`add_axiom`]: RupChecker::add_axiom
/// [`apply`]: RupChecker::apply
/// [`refutes`]: RupChecker::refutes
#[derive(Debug, Default)]
pub struct RupChecker {
    /// Every stored clause's literals, back to back. A live clause keeps
    /// its two watched literals first (clauses that are unit, empty, or
    /// satisfied at root level are stored unwatched).
    lits: Vec<Lit>,
    /// Per clause id: where its literals start in `lits`; they end where
    /// the next clause's start.
    starts: Vec<u32>,
    /// Per clause id: [`AXIOM`], [`LOCKED`] and [`DELETED`] bits. Locked
    /// clauses forced a persistent literal; deletions of these are
    /// ignored (the drat-trim convention — every kept clause is one the
    /// formula already implies, so keeping it is sound).
    flags: Vec<u8>,
    /// Literals of deleted lemmas, reclaimed once they are half of
    /// `lits`.
    dead: usize,
    /// For each literal code, the clauses currently watching that
    /// literal. Entries for deleted clauses are dropped lazily the next
    /// time traversal meets them.
    watch: Vec<Vec<u32>>,
    /// Persistent (level-0) assignment, indexed by variable.
    assign: Vec<LBool>,
    /// Persistent trail, in propagation order.
    trail: Vec<Lit>,
    /// Propagation queue head: trail literals below this index have had
    /// their watch lists traversed.
    processed: usize,
    /// Deletion lookup: order-independent clause hash → most recent
    /// clause id with that hash; older same-hash clauses follow via
    /// `chain`. Collisions are resolved by literal-set comparison.
    by_key: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    /// Per clause: previous clause id with the same hash ([`NO_CLAUSE`]
    /// ends the chain).
    chain: Vec<u32>,
    /// Propagation over the formula alone has already hit a conflict —
    /// every clause (including the empty one) is now implied.
    root_conflict: bool,
    /// Resolves untagged hint ids: axioms in arrival order.
    axioms: Arrivals,
    /// Resolves [`LEMMA_ID_TAG`]ged hint ids: lemmas in arrival order.
    lemmas: Arrivals,
    /// Scratch for the hinted scan's pending clause ids.
    scan: Vec<u32>,
    stats: CheckStats,
}

impl RupChecker {
    /// Creates an empty checker.
    pub fn new() -> RupChecker {
        RupChecker::default()
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> CheckStats {
        self.stats
    }

    /// Whether the clause set is already refuted outright (propagation
    /// reaches a conflict with no assumptions).
    pub fn root_conflict(&self) -> bool {
        self.root_conflict
    }

    /// Where clause `ci`'s literals sit in `lits`.
    fn range(&self, ci: usize) -> std::ops::Range<usize> {
        let end = self
            .starts
            .get(ci + 1)
            .map_or(self.lits.len(), |&e| e as usize);
        self.starts[ci] as usize..end
    }

    fn ensure_var(&mut self, l: Lit) {
        let need = l.var().index() + 1;
        if self.assign.len() < need {
            self.assign.resize(need, LBool::Undef);
        }
        if self.watch.len() < need * 2 {
            self.watch.resize(need * 2, Vec::new());
        }
    }

    fn value(&self, l: Lit) -> LBool {
        let v = self
            .assign
            .get(l.var().index())
            .copied()
            .unwrap_or(LBool::Undef);
        if l.is_negative() {
            v.negate()
        } else {
            v
        }
    }

    /// Asserts `l`; returns `false` on conflict (`l` already false).
    fn assert_lit(&mut self, l: Lit) -> bool {
        match self.value(l) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                self.assign[l.var().index()] = LBool::from_bool(l.is_positive());
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation over the unprocessed trail suffix: for each
    /// newly false literal, traverse the clauses watching it and either
    /// move the watch to another non-false literal, recognise the
    /// clause as satisfied, assert its remaining literal as unit, or
    /// report a conflict (return `false`). Backtracking needs no watch
    /// repair — a watch moved under a deeper assignment still points at
    /// a literal that is at worst unassigned once that assignment is
    /// undone. When `lock` is set, clauses that force a literal are
    /// marked reason-locked (persistent mode only).
    fn propagate(&mut self, lock: bool) -> bool {
        while self.processed < self.trail.len() {
            let p = self.trail[self.processed];
            self.processed += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let fcode = false_lit.code();
            if fcode >= self.watch.len() {
                continue;
            }
            let mut i = 0;
            while i < self.watch[fcode].len() {
                let ci = self.watch[fcode][i] as usize;
                // Deleted clauses leave stale watch entries; drop them
                // on contact.
                if self.flags[ci] & DELETED != 0 {
                    self.watch[fcode].swap_remove(i);
                    continue;
                }
                let clause = self.range(ci);
                let s = clause.start;
                if self.lits[s] == false_lit {
                    self.lits.swap(s, s + 1);
                }
                debug_assert_eq!(self.lits[s + 1], false_lit, "watched literal mismatch");
                let other = self.lits[s];
                if self.value(other) == LBool::True {
                    i += 1;
                    continue;
                }
                if let Some(k) =
                    (s + 2..clause.end).find(|&k| self.value(self.lits[k]) != LBool::False)
                {
                    self.lits.swap(s + 1, k);
                    self.watch[self.lits[s + 1].code()].push(ci as u32);
                    self.watch[fcode].swap_remove(i);
                    continue;
                }
                if self.value(other) == LBool::False {
                    return false;
                }
                if lock {
                    self.flags[ci] |= LOCKED;
                }
                let asserted = self.assert_lit(other);
                debug_assert!(asserted, "undef literal cannot conflict");
                i += 1;
            }
        }
        true
    }

    /// Pops the trail back to `mark`, unassigning everything above it.
    /// Watches need no attention — that laziness is what makes the
    /// temporary propagation in [`is_rup`](Self::is_rup) cheap to undo.
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let l = self.trail.pop().expect("trail above mark");
            self.assign[l.var().index()] = LBool::Undef;
        }
        if self.processed > self.trail.len() {
            self.processed = self.trail.len();
        }
    }

    /// The cheap cases every RUP test starts with: a refuted clause set
    /// implies everything, and a clause with a persistently true literal
    /// (or a tautology) is already implied.
    fn trivially_implied(&mut self, lits: &[Lit]) -> bool {
        if self.root_conflict {
            return true;
        }
        for &l in lits {
            self.ensure_var(l);
        }
        lits.iter()
            .enumerate()
            .any(|(i, &l)| self.value(l) == LBool::True || lits[..i].contains(&!l))
    }

    /// Asserts the negation of `lits` on the temporary trail; returns
    /// `true` when that alone conflicts.
    fn assert_negation(&mut self, lits: &[Lit]) -> bool {
        lits.iter().any(|&l| !self.assert_lit(!l))
    }

    /// Is `lits` RUP: does asserting its negation propagate to conflict?
    fn is_rup(&mut self, lits: &[Lit]) -> bool {
        if self.trivially_implied(lits) {
            return true;
        }
        let mark = self.trail.len();
        let result = self.assert_negation(lits) || !self.propagate(false);
        self.undo_to(mark);
        result
    }

    /// Is `lits` RUP by unit scans over the clauses `hints` names alone?
    /// `false` means only that the hints did not reach a conflict.
    fn is_hinted_rup(&mut self, lits: &[Lit], hints: &[u32]) -> bool {
        if self.trivially_implied(lits) {
            return true;
        }
        let mark = self.trail.len();
        let result = self.assert_negation(lits) || self.scan_hints(hints);
        self.undo_to(mark);
        result
    }

    /// The clause id a hint names, if that arrival stored a clause.
    fn resolve(&self, id: u32) -> Option<u32> {
        if id & LEMMA_ID_TAG != 0 {
            self.lemmas.resolve(id & !LEMMA_ID_TAG)
        } else {
            self.axioms.resolve(id)
        }
    }

    fn hint_state(&self, ci: usize) -> HintState {
        if self.flags[ci] & DELETED != 0 {
            return HintState::Done;
        }
        let mut unit = None;
        for &l in &self.lits[self.range(ci)] {
            match self.value(l) {
                LBool::True => return HintState::Done,
                LBool::False => {}
                LBool::Undef if unit.is_some() => return HintState::Open,
                LBool::Undef => unit = Some(l),
            }
        }
        unit.map_or(HintState::Falsified, HintState::Unit)
    }

    /// Scans the hinted clauses under the temporary assignment, in hint
    /// order: units assert their literal, a falsified clause is the
    /// conflict (return `true`). Passes repeat over the still-open
    /// clauses until one makes no progress. Only clauses this checker
    /// stores are ever read, which is what makes the hints untrusted.
    fn scan_hints(&mut self, hints: &[u32]) -> bool {
        let mut pending = std::mem::take(&mut self.scan);
        pending.clear();
        pending.extend(hints.iter().filter_map(|&id| self.resolve(id)));
        let mut conflict = false;
        loop {
            let mut progress = false;
            let mut open = 0;
            for k in 0..pending.len() {
                let ci = pending[k];
                match self.hint_state(ci as usize) {
                    HintState::Done => {}
                    HintState::Falsified => {
                        conflict = true;
                        break;
                    }
                    HintState::Unit(l) => {
                        self.assert_lit(l);
                        self.stats.propagations += 1;
                        progress = true;
                    }
                    HintState::Open => {
                        pending[open] = ci;
                        open += 1;
                    }
                }
            }
            if conflict || !progress {
                break;
            }
            pending.truncate(open);
        }
        self.scan = pending;
        conflict
    }

    /// Inserts a clause into the store, picks watches, and settles
    /// persistent units.
    ///
    /// Insertion only ever happens at root level (between RUP checks),
    /// so the settle logic reads the persistent assignment directly: a
    /// clause satisfied at root stays satisfied forever and needs no
    /// watches, a falsified one is an immediate root conflict, a unit
    /// asserts its literal, and only genuinely open clauses (two or
    /// more non-false literals) enter the watch lists.
    fn insert(&mut self, lits: &[Lit], flags: u8) -> u32 {
        let ci = self.starts.len();
        let start = self.lits.len();
        // Store with duplicate literals removed, so a clause like
        // (u ∨ u ∨ f) cannot end up watching the same literal twice.
        // Deduplication cannot change a clause's semantics.
        for &l in lits {
            self.ensure_var(l);
            if !self.lits[start..].contains(&l) {
                self.lits.push(l);
            }
        }
        // Settle scan: satisfied at root, or count the non-false
        // literals, remembering the first two as watch candidates.
        let mut satisfied = false;
        let mut open = 0usize;
        let mut first: Option<usize> = None;
        let mut second: Option<usize> = None;
        for k in start..self.lits.len() {
            match self.value(self.lits[k]) {
                LBool::True => {
                    satisfied = true;
                    break;
                }
                LBool::False => {}
                LBool::Undef => {
                    open += 1;
                    if first.is_none() {
                        first = Some(k);
                    } else if second.is_none() {
                        second = Some(k);
                    }
                }
            }
        }
        let watchable = !self.root_conflict && !satisfied && open >= 2;
        if watchable {
            // Move the two watch candidates to the front. `a < b`, so
            // the first swap cannot displace position `b`.
            let (a, b) = (first.expect("two open"), second.expect("two open"));
            self.lits.swap(start, a);
            self.lits.swap(start + 1, b);
            self.watch[self.lits[start].code()].push(ci as u32);
            self.watch[self.lits[start + 1].code()].push(ci as u32);
        }
        let key = clause_key(&self.lits[start..]);
        let prev = self.by_key.insert(key, ci as u32).unwrap_or(NO_CLAUSE);
        self.chain.push(prev);
        self.starts
            .push(u32::try_from(start).expect("checker holds under 4G literals"));
        self.flags.push(flags);
        if self.root_conflict || satisfied || watchable {
            return ci as u32;
        }
        match (open, first) {
            (0, _) => self.root_conflict = true,
            (1, Some(k)) => {
                self.flags[ci] |= LOCKED;
                let asserted = self.assert_lit(self.lits[k]);
                debug_assert!(asserted);
                if !self.propagate(true) {
                    self.root_conflict = true;
                }
            }
            _ => unreachable!("open >= 2 is watchable"),
        }
        ci as u32
    }

    /// Adds an original (axiom) clause, no RUP check. Its arrival
    /// ordinal is its proof id.
    pub fn add_axiom(&mut self, lits: &[Lit]) {
        let ci = self.insert(lits, AXIOM);
        self.axioms.push(Some(ci));
    }

    /// Checks that `model` satisfies every axiom added so far — deleted
    /// ones included, since a proof's deletion does not take a clause
    /// out of the formula. [`CheckError::FalsifiedClause`] names the
    /// axiom by arrival ordinal.
    pub fn check_model(&self, model: &[LBool]) -> Result<(), CheckError> {
        let ids = self
            .axioms
            .runs
            .iter()
            .flat_map(|r| r.clause..r.clause + r.len);
        first_falsified(ids.map(|ci| &self.lits[self.range(ci as usize)]), model)
    }

    /// Reclaims the literals of deleted lemmas. Clause ids index
    /// `starts`, so nothing that names a clause moves.
    fn compact(&mut self) {
        let mut write = 0;
        for ci in 0..self.starts.len() {
            let clause = self.range(ci);
            self.starts[ci] = write as u32;
            if self.flags[ci] & (DELETED | AXIOM) != DELETED {
                self.lits.copy_within(clause.clone(), write);
                write += clause.len();
            }
        }
        self.lits.truncate(write);
        self.dead = 0;
    }

    /// Applies one proof step: additions must be RUP (checked by full
    /// propagation), deletions remove one matching clause
    /// (reason-locked clauses are kept).
    pub fn apply(&mut self, step: &ProofStep) -> Result<(), CheckError> {
        self.apply_step(step, None)
    }

    /// Applies one proof step, validating an addition by scanning the
    /// clauses `hints` names first and falling back to full propagation
    /// (counted in [`CheckStats::fallbacks`]) when they reach no
    /// conflict. Accepts exactly the steps [`apply`](Self::apply) does.
    pub fn apply_hinted(&mut self, step: &ProofStep, hints: &[u32]) -> Result<(), CheckError> {
        self.apply_step(step, Some(hints))
    }

    /// Applies every step of `proof` with its hints, stopping at the
    /// first rejected one.
    pub fn replay(&mut self, proof: &HintedProof) -> Result<(), CheckError> {
        for (i, step) in proof.steps().iter().enumerate() {
            self.apply_hinted(step, proof.hints(i))?;
        }
        Ok(())
    }

    /// Applies every record of `chunk` in arrival order — axioms are
    /// added, steps applied with their hints — stopping at the first
    /// rejected step.
    pub fn replay_chunk(&mut self, chunk: &ProofChunk) -> Result<(), CheckError> {
        chunk
            .iter()
            .try_for_each(|record| self.apply_record(record))
    }

    /// Applies one record of a [`ProofChunk`]: an axiom is added like
    /// [`add_axiom`](Self::add_axiom), a step is applied like
    /// [`apply_hinted`](Self::apply_hinted).
    pub fn apply_record(&mut self, record: ChunkRecord<'_>) -> Result<(), CheckError> {
        match record {
            ChunkRecord::Axiom(lits) => {
                self.add_axiom(lits);
                Ok(())
            }
            ChunkRecord::Add(lits, hints) => self.apply_add(lits, Some(hints)),
            ChunkRecord::Delete(lits) => {
                self.apply_delete(lits);
                Ok(())
            }
        }
    }

    fn apply_step(&mut self, step: &ProofStep, hints: Option<&[u32]>) -> Result<(), CheckError> {
        match step {
            ProofStep::Add(lits) => self.apply_add(lits, hints),
            ProofStep::Delete(lits) => {
                self.apply_delete(lits);
                Ok(())
            }
        }
    }

    fn apply_add(&mut self, lits: &[Lit], hints: Option<&[u32]>) -> Result<(), CheckError> {
        let index = self.stats.steps as usize;
        self.stats.steps += 1;
        let rup = match hints {
            None => self.is_rup(lits),
            Some(hints) if self.is_hinted_rup(lits, hints) => {
                self.stats.hinted += 1;
                true
            }
            Some(_) => {
                self.stats.fallbacks += 1;
                self.is_rup(lits)
            }
        };
        if !rup {
            self.lemmas.push(None);
            return Err(CheckError::NotRup { step: index });
        }
        let ci = self.insert(lits, 0);
        self.lemmas.push(Some(ci));
        Ok(())
    }

    fn apply_delete(&mut self, lits: &[Lit]) {
        self.stats.steps += 1;
        // Walk the same-hash chain newest-first for a live, unlocked
        // instance; locked reasons stay, and the hash only narrows
        // candidates — the literal-set comparison decides the actual
        // match.
        let key = clause_key(lits);
        let mut cur = self.by_key.get(&key).copied().unwrap_or(NO_CLAUSE);
        while cur != NO_CLAUSE {
            let ci = cur as usize;
            let clause = self.range(ci);
            if self.flags[ci] & (LOCKED | DELETED) == 0
                && same_clause(&self.lits[clause.clone()], lits)
            {
                // Watch entries for `ci` go stale here; the propagation
                // loop drops them lazily.
                self.flags[ci] |= DELETED;
                if self.flags[ci] & AXIOM == 0 {
                    self.dead += clause.len();
                    if self.dead * 2 > self.lits.len() {
                        self.compact();
                    }
                }
                break;
            }
            cur = self.chain[ci];
        }
    }

    /// Checks that the current clause set refutes `assumptions`:
    /// asserting them all and unit-propagating must yield a conflict.
    /// With no assumptions this demands an outright root conflict (the
    /// proof must have derived the empty clause's effect).
    pub fn refutes(&mut self, assumptions: &[Lit]) -> bool {
        let negated: Vec<Lit> = assumptions.iter().map(|&a| !a).collect();
        self.is_rup(&negated)
    }
}

/// Batch check of a complete unsat proof for `cnf` under `assumptions`.
///
/// Convenience wrapper over [`RupChecker`] for one-shot (non-
/// incremental) use, e.g. checking a proof file from the `satcore`
/// DIMACS CLI.
pub fn check_unsat_proof(
    cnf: &Cnf,
    proof: &[ProofStep],
    assumptions: &[Lit],
) -> Result<CheckStats, CheckError> {
    check_batch(cnf, assumptions, |checker| {
        proof.iter().try_for_each(|step| checker.apply(step))
    })
}

/// [`check_unsat_proof`] for a hinted proof: each addition is validated
/// from its hints, with full propagation only as the fallback.
pub fn check_hinted_proof(
    cnf: &Cnf,
    proof: &HintedProof,
    assumptions: &[Lit],
) -> Result<CheckStats, CheckError> {
    check_batch(cnf, assumptions, |checker| checker.replay(proof))
}

fn check_batch(
    cnf: &Cnf,
    assumptions: &[Lit],
    replay: impl FnOnce(&mut RupChecker) -> Result<(), CheckError>,
) -> Result<CheckStats, CheckError> {
    let mut checker = RupChecker::new();
    for clause in &cnf.clauses {
        checker.add_axiom(clause);
    }
    replay(&mut checker)?;
    if !checker.refutes(assumptions) {
        return Err(CheckError::NotRefuted);
    }
    Ok(checker.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lit(n: i64) -> Lit {
        Var::from_index((n.unsigned_abs() - 1) as usize).lit(n > 0)
    }

    fn cnf(clauses: &[&[i64]]) -> Cnf {
        let mut c = Cnf::default();
        for clause in clauses {
            let lits: Vec<Lit> = clause.iter().map(|&n| lit(n)).collect();
            for &l in &lits {
                while c.num_vars <= l.var().index() {
                    c.num_vars += 1;
                }
            }
            c.clauses.push(lits);
        }
        c
    }

    #[test]
    fn model_checker_accepts_and_rejects() {
        let f = cnf(&[&[1, 2], &[-1, 2], &[-2, 3]]);
        let good = [LBool::False, LBool::True, LBool::True];
        assert_eq!(check_model(&f, &good), Ok(()));
        let bad = [LBool::True, LBool::False, LBool::True];
        assert_eq!(
            check_model(&f, &bad),
            Err(CheckError::FalsifiedClause { index: 1 })
        );
        // Partial model leaving a clause open is rejected too.
        let partial = [LBool::False];
        assert_eq!(
            check_model(&f, &partial),
            Err(CheckError::FalsifiedClause { index: 0 })
        );
    }

    #[test]
    fn rup_replay_of_a_hand_refutation() {
        // (1∨2)(1∨¬2)(¬1∨2)(¬1∨¬2) is unsat; lemma (1) is RUP, after
        // which propagation alone conflicts.
        let f = cnf(&[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]);
        let proof = [ProofStep::Add(vec![lit(1)]), ProofStep::Add(vec![])];
        let stats = check_unsat_proof(&f, &proof, &[]).expect("valid proof");
        assert!(stats.steps == 2 && stats.propagations > 0);
    }

    #[test]
    fn non_rup_addition_is_rejected() {
        let f = cnf(&[&[1, 2]]);
        // (¬1) does not follow from (1∨2) by unit propagation.
        let proof = [ProofStep::Add(vec![lit(-1)])];
        let mut checker = RupChecker::new();
        for c in &f.clauses {
            checker.add_axiom(c);
        }
        assert_eq!(
            checker.apply(&proof[0]),
            Err(CheckError::NotRup { step: 0 })
        );
    }

    #[test]
    fn satisfiable_formula_refutes_nothing() {
        let f = cnf(&[&[1, 2]]);
        let err = check_unsat_proof(&f, &[], &[]).unwrap_err();
        assert_eq!(err, CheckError::NotRefuted);
    }

    #[test]
    fn assumption_refutation() {
        // (¬1∨2)(¬2∨3): under assumptions {1, ¬3} propagation conflicts
        // with no lemmas at all.
        let f = cnf(&[&[-1, 2], &[-2, 3]]);
        let mut checker = RupChecker::new();
        for c in &f.clauses {
            checker.add_axiom(c);
        }
        assert!(checker.refutes(&[lit(1), lit(-3)]));
        // But {1} alone is satisfiable.
        assert!(!checker.refutes(&[lit(1)]));
        // And the temporary propagation left no residue.
        assert!(checker.refutes(&[lit(1), lit(-3)]));
    }

    #[test]
    fn deletion_of_locked_reasons_is_ignored() {
        // (1) forces 1, and (¬1∨2) then forces 2 — both are reasons.
        let f = cnf(&[&[1], &[-1, 2]]);
        let mut checker = RupChecker::new();
        for c in &f.clauses {
            checker.add_axiom(c);
        }
        checker
            .apply(&ProofStep::Delete(vec![lit(-1), lit(2)]))
            .unwrap();
        // 2 must still be persistently implied.
        assert!(checker.refutes(&[lit(-2)]));
    }

    #[test]
    fn deletion_removes_unlocked_clauses() {
        let f = cnf(&[&[1, 2]]);
        let mut checker = RupChecker::new();
        for c in &f.clauses {
            checker.add_axiom(c);
        }
        // With (1∨2) present, {¬1, ¬2} is refuted...
        assert!(checker.refutes(&[lit(-1), lit(-2)]));
        checker
            .apply(&ProofStep::Delete(vec![lit(1), lit(2)]))
            .unwrap();
        // ...and afterwards it is not.
        assert!(!checker.refutes(&[lit(-1), lit(-2)]));
    }

    #[test]
    fn empty_clause_requires_root_conflict() {
        let f = cnf(&[&[1, 2]]);
        let mut checker = RupChecker::new();
        for c in &f.clauses {
            checker.add_axiom(c);
        }
        assert_eq!(
            checker.apply(&ProofStep::Add(vec![])),
            Err(CheckError::NotRup { step: 0 })
        );
        assert!(!checker.root_conflict());
    }

    fn checker_over(f: &Cnf) -> RupChecker {
        let mut checker = RupChecker::new();
        for c in &f.clauses {
            checker.add_axiom(c);
        }
        checker
    }

    #[test]
    fn hinted_lemmas_chain_through_lemma_ids() {
        // (1∨2)(1∨¬2)(¬1∨2)(¬1∨¬2): (1) follows from axioms 0 and 1,
        // and the empty clause from lemma 0 with axioms 2 and 3.
        let f = cnf(&[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]);
        let mut checker = checker_over(&f);
        checker
            .apply_hinted(&ProofStep::Add(vec![lit(1)]), &[0, 1])
            .unwrap();
        checker
            .apply_hinted(&ProofStep::Add(vec![]), &[LEMMA_ID_TAG, 2, 3])
            .unwrap();
        let stats = checker.stats();
        assert_eq!((stats.hinted, stats.fallbacks), (2, 0));
        assert!(checker.refutes(&[]));
    }

    #[test]
    fn hints_naming_real_clauses_cannot_admit_a_non_rup_lemma() {
        // (¬1) does not follow from (1∨2)(¬2∨3); hints naming both
        // clauses (and a lemma id that does not exist) change nothing.
        let f = cnf(&[&[1, 2], &[-2, 3]]);
        let mut checker = checker_over(&f);
        assert_eq!(
            checker.apply_hinted(&ProofStep::Add(vec![lit(-1)]), &[0, 1, LEMMA_ID_TAG]),
            Err(CheckError::NotRup { step: 0 })
        );
        assert_eq!(checker.stats().fallbacks, 1);
        // A rejected lemma stores nothing: a later hint naming it
        // resolves to no clause, and the empty clause stays non-RUP.
        assert_eq!(
            checker.apply_hinted(&ProofStep::Add(vec![]), &[LEMMA_ID_TAG, 0, 1]),
            Err(CheckError::NotRup { step: 1 })
        );
    }

    #[test]
    fn bad_hints_fall_back_to_full_propagation() {
        // (¬1∨3) follows from axioms 0,1 (through 2) and from axioms
        // 2,3 (through 4).
        let f = cnf(&[&[-1, 2], &[-2, 3], &[-1, 4], &[-4, 3]]);
        let lemma = ProofStep::Add(vec![lit(-1), lit(3)]);
        let accepted = |hints: &[u32], delete: Option<&[i64]>| {
            let mut checker = checker_over(&f);
            if let Some(clause) = delete {
                let lits = clause.iter().map(|&n| lit(n)).collect();
                checker.apply(&ProofStep::Delete(lits)).unwrap();
            }
            let before = checker.stats();
            checker.apply_hinted(&lemma, hints).expect("valid lemma");
            let after = checker.stats();
            (
                after.hinted - before.hinted,
                after.fallbacks - before.fallbacks,
            )
        };
        assert_eq!(accepted(&[0, 1], None), (1, 0), "good hints");
        assert_eq!(accepted(&[4, 99], None), (0, 1), "axiom ids out of range");
        assert_eq!(
            accepted(&[LEMMA_ID_TAG | 7], None),
            (0, 1),
            "lemma id out of range"
        );
        assert_eq!(accepted(&[0, 1], Some(&[-2, 3])), (0, 1), "deleted hint");
        assert_eq!(accepted(&[], None), (0, 1), "no hints");
        assert_eq!(accepted(&[0], None), (0, 1), "hints stop short");
        // Out of propagation order the repeated scan still gets there,
        // one extra pass later — order costs time, not acceptance.
        assert_eq!(accepted(&[1, 0], None), (1, 0), "reordered hints");
        assert_eq!(accepted(&[3, 1, 2, 0], None), (1, 0), "reordered hints");
    }

    #[test]
    fn hinted_replay_of_solver_output_never_falls_back() {
        // Pigeonhole 6→5 needs hundreds of lemmas, minimized ones among
        // them; both replays must accept, the hinted one unaided.
        let (holes, pigeons) = (5usize, 6usize);
        let mut f = Cnf {
            num_vars: holes * pigeons,
            clauses: Vec::new(),
        };
        let v = |p: usize, h: usize| Var::from_index(p * holes + h);
        for p in 0..pigeons {
            f.clauses
                .push((0..holes).map(|h| v(p, h).positive()).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    f.clauses
                        .push(vec![v(p1, h).negative(), v(p2, h).negative()]);
                }
            }
        }
        let mut solver = crate::Solver::new();
        let buffer = crate::ProofBuffer::new();
        solver.set_proof_sink(Some(Box::new(buffer.clone())));
        f.load_into(&mut solver);
        assert_eq!(solver.solve(), crate::SolveResult::Unsat);
        let proof = buffer.take_hinted();
        let hinted = check_hinted_proof(&f, &proof, &[]).expect("hinted replay");
        assert_eq!(hinted.fallbacks, 0);
        assert!(hinted.hinted > 100, "{hinted:?}");
        let plain = check_unsat_proof(&f, proof.steps(), &[]).expect("plain replay");
        assert!(
            hinted.propagations < plain.propagations,
            "hinted {} vs plain {}",
            hinted.propagations,
            plain.propagations
        );
    }

    #[test]
    fn chunk_replay_matches_a_drained_replay() {
        // PHP(6,5) solved twice by the same deterministic solver: once
        // into one-entry chunks, once into a buffer drained after the
        // solve. Replaying the chunks in arrival order must do exactly
        // the work of axioms-then-steps.
        let (holes, pigeons) = (5usize, 6usize);
        let v = |p: usize, h: usize| Var::from_index(p * holes + h);
        let mut clauses: Vec<Vec<Lit>> = (0..pigeons)
            .map(|p| (0..holes).map(|h| v(p, h).positive()).collect())
            .collect();
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    clauses.push(vec![v(p1, h).negative(), v(p2, h).negative()]);
                }
            }
        }
        let f = Cnf {
            num_vars: holes * pigeons,
            clauses,
        };
        let chunks = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let out = chunks.clone();
        let mut solver = crate::Solver::new();
        solver.set_proof_sink(Some(Box::new(crate::ChunkSink::new(1, move |c| {
            out.lock().unwrap().push(c);
            crate::ProofChunk::default()
        }))));
        f.load_into(&mut solver);
        assert_eq!(solver.solve(), crate::SolveResult::Unsat);
        let mut piped = RupChecker::new();
        for chunk in chunks.lock().unwrap().iter() {
            piped.replay_chunk(chunk).expect("chunk replay");
        }

        let buffer = crate::ProofBuffer::new();
        let mut solver = crate::Solver::new();
        solver.set_proof_sink(Some(Box::new(buffer.clone())));
        f.load_into(&mut solver);
        assert_eq!(solver.solve(), crate::SolveResult::Unsat);
        let mut serial = RupChecker::new();
        for clause in buffer.take_axioms().iter() {
            serial.add_axiom(clause);
        }
        serial
            .replay(&buffer.take_hinted())
            .expect("drained replay");

        assert_eq!(piped.stats(), serial.stats());
        assert_eq!(piped.stats().fallbacks, 0);
        assert!(piped.refutes(&[]) && serial.refutes(&[]));
        assert_eq!(piped.stats(), serial.stats());
    }

    #[test]
    fn compaction_keeps_ids_and_check_model_reads_deleted_axioms() {
        // (1∨2)(¬1∨2)(¬2∨3): axioms 0..2.
        let f = cnf(&[&[1, 2], &[-1, 2], &[-2, 3]]);
        let mut checker = checker_over(&f);
        // Lemmas 0..2, each added and deleted: the third deletion makes
        // dead literals outnumber the live ones and compacts the store.
        for i in 0..3 {
            let lemma = vec![lit(2), lit(10 + i), lit(20 + i)];
            checker.apply(&ProofStep::Add(lemma.clone())).unwrap();
            checker.apply(&ProofStep::Delete(lemma)).unwrap();
        }
        assert_eq!((checker.lits.len(), checker.dead), (6, 0), "compacted");
        // Axiom and lemma ids still resolve to the right clauses.
        checker
            .apply_hinted(&ProofStep::Add(vec![lit(2)]), &[0, 1])
            .unwrap();
        checker
            .apply_hinted(&ProofStep::Add(vec![lit(3)]), &[LEMMA_ID_TAG | 3, 2])
            .unwrap();
        assert_eq!((checker.stats().hinted, checker.stats().fallbacks), (2, 0));
        // A deleted axiom is still part of the formula a model must
        // satisfy, and errors name axioms by arrival ordinal.
        checker
            .apply(&ProofStep::Delete(vec![lit(1), lit(2)]))
            .unwrap();
        let (t, f) = (LBool::True, LBool::False);
        assert_eq!(
            checker.check_model(&[f, f, t]),
            Err(CheckError::FalsifiedClause { index: 0 })
        );
        assert_eq!(
            checker.check_model(&[t, f, t]),
            Err(CheckError::FalsifiedClause { index: 1 })
        );
        assert_eq!(checker.check_model(&[f, t, t]), Ok(()));
    }

    #[test]
    fn incremental_axioms_between_proof_steps() {
        // Mirrors incremental solving: axioms arrive, lemmas arrive,
        // more axioms arrive, and refutation only holds at the end.
        let mut checker = RupChecker::new();
        checker.add_axiom(&[lit(1), lit(2)]);
        checker.add_axiom(&[lit(1), lit(-2)]);
        assert!(checker.refutes(&[lit(-1)]));
        checker.apply(&ProofStep::Add(vec![lit(1)])).unwrap();
        assert!(!checker.refutes(&[lit(1)]));
        checker.add_axiom(&[lit(-1)]);
        assert!(checker.root_conflict() || checker.refutes(&[]));
        assert!(checker.refutes(&[]));
    }
}
