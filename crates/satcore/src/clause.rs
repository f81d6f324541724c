//! Clause storage.
//!
//! Clauses live in a single arena ([`ClauseDb`]) and are referred to by
//! index ([`ClauseRef`]). Learnt clauses carry an activity score and a
//! literal-block-distance (LBD), both used by the clause-deletion policy.

use crate::lit::Lit;

/// Proof id of a clause stored while no proof sink was installed: no
/// checker can resolve it, so a hint naming it costs a fallback.
pub(crate) const NO_PROOF_ID: u32 = u32::MAX;

/// An index into the clause arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A disjunction of literals.
#[derive(Debug, Clone)]
pub struct Clause {
    pub(crate) lits: Vec<Lit>,
    /// Activity for the deletion heuristic (learnt clauses only).
    pub(crate) activity: f64,
    /// Literal block distance at learning time (learnt clauses only),
    /// saturating: only its order and `> 2` matter.
    pub(crate) lbd: u16,
    /// The clause's id in the emitted proof ([`NO_PROOF_ID`] when no
    /// proof sink was installed). Fits in the padding the narrow `lbd`
    /// frees.
    pub(crate) proof_id: u32,
    pub(crate) learnt: bool,
    pub(crate) deleted: bool,
}

impl Clause {
    pub(crate) fn new(lits: Vec<Lit>, learnt: bool) -> Clause {
        Clause {
            lits,
            activity: 0.0,
            lbd: 0,
            proof_id: NO_PROOF_ID,
            learnt,
            deleted: false,
        }
    }

    /// The literals of this clause.
    #[inline]
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Number of literals.
    #[inline]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Whether the clause has no literals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }
}

/// The clause arena.
#[derive(Debug, Default)]
pub struct ClauseDb {
    pub(crate) clauses: Vec<Clause>,
    /// Number of live (not deleted) original clauses.
    pub(crate) num_original: usize,
    /// Number of live (not deleted) learnt clauses.
    pub(crate) num_learnt: usize,
}

impl ClauseDb {
    pub(crate) fn new() -> ClauseDb {
        ClauseDb::default()
    }

    pub(crate) fn push(&mut self, clause: Clause) -> ClauseRef {
        debug_assert!(self.clauses.len() < u32::MAX as usize);
        if clause.learnt {
            self.num_learnt += 1;
        } else {
            self.num_original += 1;
        }
        let r = ClauseRef(self.clauses.len() as u32);
        self.clauses.push(clause);
        r
    }

    #[inline]
    pub(crate) fn get(&self, r: ClauseRef) -> &Clause {
        &self.clauses[r.index()]
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, r: ClauseRef) -> &mut Clause {
        &mut self.clauses[r.index()]
    }

    pub(crate) fn delete(&mut self, r: ClauseRef) {
        let c = &mut self.clauses[r.index()];
        if !c.deleted {
            c.deleted = true;
            if c.learnt {
                self.num_learnt -= 1;
            } else {
                self.num_original -= 1;
            }
            // Free the literal memory eagerly; the arena slot itself is
            // reclaimed at the next garbage collection.
            c.lits = Vec::new();
        }
    }

    /// Live learnt clause references.
    #[cfg(test)]
    pub(crate) fn learnt_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && !c.deleted)
            .map(|(i, _)| ClauseRef(i as u32))
    }

    /// All live clause references.
    pub(crate) fn live_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.deleted)
            .map(|(i, _)| ClauseRef(i as u32))
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
        // The proof id must not grow the arena for uncertified solves.
        assert!(std::mem::size_of::<Clause>() <= 40);
    }

    #[test]
    fn push_and_get() {
        let mut db = ClauseDb::new();
        let r = db.push(Clause::new(lits(&[0, 1, -2]), false));
        assert_eq!(db.get(r).len(), 3);
        assert_eq!(db.num_original, 1);
        assert_eq!(db.num_learnt, 0);
    }

    #[test]
    fn delete_updates_counts_once() {
        let mut db = ClauseDb::new();
        let r1 = db.push(Clause::new(lits(&[0, 1]), false));
        let r2 = db.push(Clause::new(lits(&[1, 2]), true));
        db.delete(r2);
        db.delete(r2); // idempotent
        assert_eq!(db.num_original, 1);
        assert_eq!(db.num_learnt, 0);
        assert!(db.get(r2).deleted);
        assert!(!db.get(r1).deleted);
    }

    #[test]
    fn learnt_refs_filters() {
        let mut db = ClauseDb::new();
        db.push(Clause::new(lits(&[0]), false));
        let l = db.push(Clause::new(lits(&[1, 2]), true));
        db.push(Clause::new(lits(&[3, 4]), true));
        db.delete(l);
        let learnts: Vec<_> = db.learnt_refs().collect();
        assert_eq!(learnts.len(), 1);
    }
}
