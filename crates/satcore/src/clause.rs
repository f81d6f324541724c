//! Clause storage.
//!
//! Every clause lives inline in one flat arena of `u32` words
//! ([`ClauseDb`]), referred to by the offset of its header
//! ([`ClauseRef`]). A clause is a size-and-flags word, its proof id and
//! its literal codes; a learnt clause then carries its literal block
//! distance (LBD) and its `f64` activity, both used by the
//! clause-deletion policy. Storing a clause costs no allocation of its
//! own.
//!
//! A deleted clause keeps its words until the waste passes
//! [`WASTE_FRACTION`] of the arena; [`ClauseDb::compact`] then slides
//! the live clauses down in their existing order and reports where each
//! one moved, so the solver can relocate its references.

use crate::lit::Lit;

/// Proof id of a clause stored while no proof sink was installed: no
/// checker can resolve it, so a hint naming it costs a fallback.
pub(crate) const NO_PROOF_ID: u32 = u32::MAX;

/// Header flag: a learnt (not original) clause.
const LEARNT: u32 = 1;
/// Header flag: deleted, its words wasted until the next compaction.
const DELETED: u32 = 2;
/// The size-and-flags word keeps the literal count above the flags.
const LEN_SHIFT: u32 = 2;
/// Words before the literals: size-and-flags, proof id.
const HEADER_WORDS: usize = 2;
/// Words after a learnt clause's literals: LBD, activity (two words).
const LEARNT_WORDS: usize = 3;
/// Compact once deleted clauses waste more than this share of the arena.
const WASTE_FRACTION: f64 = 0.25;

/// The offset of a clause's header in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ClauseRef(u32);

impl ClauseRef {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The clause arena.
#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    words: Vec<u32>,
    /// Words held by deleted clauses.
    wasted: usize,
    /// Number of live (not deleted) original clauses.
    pub(crate) num_original: usize,
    /// Number of live (not deleted) learnt clauses.
    pub(crate) num_learnt: usize,
}

impl ClauseDb {
    pub(crate) fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Stores a clause of at least two literals (`lbd` is ignored for
    /// original clauses).
    pub(crate) fn push(
        &mut self,
        lits: &[Lit],
        learnt: bool,
        lbd: u16,
        proof_id: u32,
    ) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        assert!(
            lits.len() < 1 << (32 - LEN_SHIFT),
            "clause too long for its header"
        );
        let r = ClauseRef(u32::try_from(self.words.len()).expect("clause arena exceeds 4G words"));
        let flags = if learnt { LEARNT } else { 0 };
        self.words.push((lits.len() as u32) << LEN_SHIFT | flags);
        self.words.push(proof_id);
        self.words.extend(lits.iter().map(|l| l.code() as u32));
        if learnt {
            self.words.extend([u32::from(lbd), 0, 0]);
            self.num_learnt += 1;
        } else {
            self.num_original += 1;
        }
        r
    }

    #[inline]
    fn header(&self, r: ClauseRef) -> u32 {
        self.words[r.index()]
    }

    /// Number of literals.
    #[inline]
    pub(crate) fn len(&self, r: ClauseRef) -> usize {
        (self.header(r) >> LEN_SHIFT) as usize
    }

    #[inline]
    pub(crate) fn is_learnt(&self, r: ClauseRef) -> bool {
        self.header(r) & LEARNT != 0
    }

    #[inline]
    pub(crate) fn is_deleted(&self, r: ClauseRef) -> bool {
        self.header(r) & DELETED != 0
    }

    /// The clause's id in the emitted proof ([`NO_PROOF_ID`] when no
    /// proof sink was installed).
    #[inline]
    pub(crate) fn proof_id(&self, r: ClauseRef) -> u32 {
        self.words[r.index() + 1]
    }

    /// Literal `k` of the clause.
    #[inline]
    pub(crate) fn lit(&self, r: ClauseRef, k: usize) -> Lit {
        Lit::from_code(self.words[r.index() + HEADER_WORDS + k] as usize)
    }

    /// The literals, in their current order.
    pub(crate) fn lits(&self, r: ClauseRef) -> impl Iterator<Item = Lit> + '_ {
        let start = r.index() + HEADER_WORDS;
        self.words[start..start + self.len(r)]
            .iter()
            .map(|&w| Lit::from_code(w as usize))
    }

    /// The literal codes, for in-place reordering by propagation.
    #[inline]
    pub(crate) fn codes_mut(&mut self, r: ClauseRef) -> &mut [u32] {
        let start = r.index() + HEADER_WORDS;
        let len = self.len(r);
        &mut self.words[start..start + len]
    }

    /// Offset of a learnt clause's LBD word; activity follows it.
    #[inline]
    fn learnt_words(&self, r: ClauseRef) -> usize {
        debug_assert!(self.is_learnt(r));
        r.index() + HEADER_WORDS + self.len(r)
    }

    /// Literal block distance at learning time, saturating: only its
    /// order and `> 2` matter.
    #[inline]
    pub(crate) fn lbd(&self, r: ClauseRef) -> u16 {
        self.words[self.learnt_words(r)] as u16
    }

    /// Activity for the deletion heuristic.
    #[inline]
    pub(crate) fn activity(&self, r: ClauseRef) -> f64 {
        let at = self.learnt_words(r) + 1;
        f64::from_bits(u64::from(self.words[at]) | u64::from(self.words[at + 1]) << 32)
    }

    #[inline]
    pub(crate) fn set_activity(&mut self, r: ClauseRef, activity: f64) {
        let at = self.learnt_words(r) + 1;
        let bits = activity.to_bits();
        self.words[at] = bits as u32;
        self.words[at + 1] = (bits >> 32) as u32;
    }

    /// Words the clause at `offset` occupies.
    fn size_at(&self, offset: usize) -> usize {
        let header = self.words[offset];
        let extra = if header & LEARNT != 0 {
            LEARNT_WORDS
        } else {
            0
        };
        HEADER_WORDS + (header >> LEN_SHIFT) as usize + extra
    }

    pub(crate) fn delete(&mut self, r: ClauseRef) {
        if self.is_deleted(r) {
            return;
        }
        self.words[r.index()] |= DELETED;
        self.wasted += self.size_at(r.index());
        if self.is_learnt(r) {
            self.num_learnt -= 1;
        } else {
            self.num_original -= 1;
        }
    }

    /// Every stored clause, deleted ones included, in arena order.
    pub(crate) fn refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut offset = 0;
        std::iter::from_fn(move || {
            (offset < self.words.len()).then(|| {
                let r = ClauseRef(offset as u32);
                offset += self.size_at(offset);
                r
            })
        })
    }

    /// Arena words in use, deleted clauses' included.
    pub(crate) fn words(&self) -> usize {
        self.words.len()
    }

    /// Whether deleted clauses waste enough words to compact.
    pub(crate) fn wants_compaction(&self) -> bool {
        self.wasted as f64 > self.words.len() as f64 * WASTE_FRACTION
    }

    /// Slides every live clause down over the deleted ones, keeping
    /// their order, and returns where each survivor moved.
    pub(crate) fn compact(&mut self) -> Relocation {
        let mut moved = Vec::with_capacity(self.num_original + self.num_learnt);
        let (mut read, mut write) = (0, 0);
        while read < self.words.len() {
            let size = self.size_at(read);
            if self.words[read] & DELETED == 0 {
                self.words.copy_within(read..read + size, write);
                moved.push((read as u32, write as u32));
                write += size;
            }
            read += size;
        }
        self.words.truncate(write);
        self.wasted = 0;
        Relocation(moved)
    }
}

/// Old → new offsets of the clauses one compaction kept, ascending in
/// both (the compaction preserves order).
pub(crate) struct Relocation(Vec<(u32, u32)>);

impl Relocation {
    /// Where the clause at `r` moved; `None` when it was deleted.
    pub(crate) fn get(&self, r: ClauseRef) -> Option<ClauseRef> {
        let i = self.0.binary_search_by_key(&r.0, |&(old, _)| old).ok()?;
        Some(ClauseRef(self.0[i].1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(idxs: &[i32]) -> Vec<Lit> {
        idxs.iter()
            .map(|&i| {
                let v = Var::from_index(i.unsigned_abs() as usize);
                v.lit(i >= 0)
            })
            .collect()
    }

    #[test]
    fn clause_header_stays_compact() {
        // Original: size-and-flags, proof id, literals. Learnt: plus
        // LBD and a two-word activity. No per-clause allocation.
        let mut db = ClauseDb::new();
        db.push(&lits(&[0, 1, -2]), false, 0, 7);
        assert_eq!(db.words(), 2 + 3);
        db.push(&lits(&[3, 4]), true, 2, 8);
        assert_eq!(db.words(), 2 + 3 + 2 + 2 + 3);
    }

    #[test]
    fn push_and_get() {
        let mut db = ClauseDb::new();
        let r = db.push(&lits(&[0, 1, -2]), false, 0, 5);
        let l = db.push(&lits(&[3, -4]), true, 9, 6);
        db.set_activity(l, 1.5e30);
        assert_eq!(db.len(r), 3);
        assert_eq!(db.lits(r).collect::<Vec<_>>(), lits(&[0, 1, -2]));
        assert_eq!((db.proof_id(r), db.proof_id(l)), (5, 6));
        assert_eq!((db.lbd(l), db.activity(l)), (9, 1.5e30));
        assert!(!db.is_learnt(r) && db.is_learnt(l));
        assert_eq!(db.lit(l, 1), lits(&[-4])[0]);
        assert_eq!((db.num_original, db.num_learnt), (1, 1));
    }

    #[test]
    fn delete_updates_counts_once() {
        let mut db = ClauseDb::new();
        let r1 = db.push(&lits(&[0, 1]), false, 0, 0);
        let r2 = db.push(&lits(&[1, 2]), true, 0, 1);
        db.delete(r2);
        db.delete(r2); // idempotent
        assert_eq!(db.num_original, 1);
        assert_eq!(db.num_learnt, 0);
        assert!(db.is_deleted(r2));
        assert!(!db.is_deleted(r1));
        assert_eq!(db.refs().count(), 2, "a deleted clause keeps its words");
    }

    #[test]
    fn compaction_keeps_order_and_relocates() {
        let mut db = ClauseDb::new();
        let a = db.push(&lits(&[0, 1]), false, 0, 0);
        let b = db.push(&lits(&[1, 2, 3]), true, 4, 1);
        let c = db.push(&lits(&[-2, 3]), true, 3, 2);
        db.set_activity(c, 2.0);
        db.delete(b);
        assert!(db.wants_compaction());
        let moved = db.compact();
        assert_eq!(moved.get(a), Some(a));
        assert_eq!(moved.get(b), None);
        let c2 = moved.get(c).expect("live clause moves");
        assert_eq!(db.lits(c2).collect::<Vec<_>>(), lits(&[-2, 3]));
        assert_eq!((db.proof_id(c2), db.lbd(c2), db.activity(c2)), (2, 3, 2.0));
        assert_eq!(db.words(), 4 + 7);
        assert!(!db.wants_compaction());
        assert_eq!(db.refs().collect::<Vec<_>>(), vec![a, c2]);
    }
}
