//! The verdict cache.
//!
//! A verdict for a given `(model, property, spec, limits, certify)` key
//! is a pure function of the key: the model hash pins the entire input,
//! and the solver is deterministic for a fixed conflict budget. Replies
//! are therefore cached and replayed with provenance `cached` — zero
//! solver work on a hit.
//!
//! Two deliberate exclusions keep the cache sound:
//!
//! * **undecided outcomes are never cached** (see
//!   [`QueryReply::is_cacheable`]): an `Unknown` produced under a
//!   wall-clock deadline is a fact about that machine at that moment,
//!   not about the model — the next identical request should retry;
//! * **entries die with their model**: evicting or reloading a session
//!   invalidates every cached verdict under the same hash via
//!   [`VerdictCache::invalidate_model`].
//!
//! Model patches get finer treatment ([`VerdictCache::migrate`]):
//! when a patch leaves an IED path-set family untouched (the encoder's
//! dirtiness diff says so), verdicts of the properties that depend
//! only on that family are *equal by construction* on the patched
//! model, so their entries move to the new hash instead of dying.

use std::collections::HashMap;

use crate::maxres::BudgetAxis;
use crate::spec::{Property, ResiliencySpec};

use super::hash::ModelHash;
use super::protocol::{LimitsSpec, QueryReply};

/// Default bound on cached replies.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// The query shape part of a cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryShape {
    /// A `verify` request.
    Verify {
        /// Property verified.
        property: Property,
        /// Spec verified against.
        spec: ResiliencySpec,
    },
    /// A `maxres` request.
    MaxRes {
        /// Property verified.
        property: Property,
        /// Budget axis swept.
        axis: BudgetAxis,
        /// Corrupted-measurement tolerance.
        r: usize,
    },
    /// An `enumerate` request.
    Enumerate {
        /// Property verified.
        property: Property,
        /// Spec verified against.
        spec: ResiliencySpec,
        /// Enumeration cap.
        cap: usize,
    },
    /// A `security_index` request (the whole distribution — no
    /// per-measurement parameters, so the shape carries none).
    SecurityIndex,
}

impl QueryShape {
    /// The resiliency property this query is about, `None` for queries
    /// (like `security_index`) that do not verify one.
    pub fn property(&self) -> Option<Property> {
        match self {
            QueryShape::Verify { property, .. }
            | QueryShape::MaxRes { property, .. }
            | QueryShape::Enumerate { property, .. } => Some(*property),
            QueryShape::SecurityIndex => None,
        }
    }
}

/// Full cache key: everything a reply depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical model content hash.
    pub model: ModelHash,
    /// Whether the service certifies verdicts (changes reply payloads).
    pub certify: bool,
    /// Per-request resource limits (identical requests under different
    /// budgets are different keys).
    pub limits: LimitsSpec,
    /// The query itself.
    pub shape: QueryShape,
}

struct Entry {
    reply: QueryReply,
    /// Logical timestamp of the last hit (for LRU eviction).
    touched: u64,
}

/// A bounded verdict cache with LRU eviction and per-model
/// invalidation. Not internally synchronized — the service engine holds
/// it behind its own lock.
#[derive(Default)]
pub struct VerdictCache {
    entries: HashMap<CacheKey, Entry>,
    capacity: usize,
    clock: u64,
}

impl std::fmt::Debug for VerdictCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerdictCache")
            .field("entries", &self.entries.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl VerdictCache {
    /// A cache bounded to `capacity` replies (0 disables caching).
    pub fn new(capacity: usize) -> VerdictCache {
        VerdictCache {
            entries: HashMap::new(),
            capacity,
            clock: 0,
        }
    }

    /// Cached replies currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a reply, bumping its recency. Counts nothing: the
    /// engine owns the hit/miss counters, because a lookup from the
    /// event loop's inline hit path must not count its misses (the
    /// executor that then runs the request counts it once).
    pub fn lookup(&mut self, key: &CacheKey) -> Option<QueryReply> {
        self.clock += 1;
        let entry = self.entries.get_mut(key)?;
        entry.touched = self.clock;
        Some(entry.reply.clone())
    }

    /// Inserts a reply if it is cacheable, evicting the least recently
    /// used entry when full. Returns whether the reply was stored.
    pub fn insert(&mut self, key: CacheKey, reply: &QueryReply) -> bool {
        if self.capacity == 0 || !reply.is_cacheable(&key.limits) {
            return false;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&oldest);
            }
        }
        self.clock += 1;
        self.entries.insert(
            key,
            Entry {
                reply: reply.clone(),
                touched: self.clock,
            },
        );
        true
    }

    /// Drops every entry for `model` (eviction / reload). Returns how
    /// many entries were invalidated.
    pub fn invalidate_model(&mut self, model: ModelHash) -> usize {
        let before = self.entries.len();
        self.entries.retain(|key, _| key.model != model);
        before - self.entries.len()
    }

    /// Migrates `old`'s entries to `new` after a model patch, keeping
    /// exactly the verdicts the patch provably did not change and
    /// dropping the rest. `keep_plain` keeps observability entries
    /// (every IED's plain path set survived the patch unchanged);
    /// `keep_secured` keeps secured-observability and bad-data entries
    /// (every secured path set survived). Equal path sets mean equal
    /// delivery semantics — retired or added devices are pinned
    /// available, so extra failure candidates cannot change a verdict —
    /// hence replaying the old verdict under the new hash is sound.
    /// Returns how many entries were migrated.
    pub fn migrate(
        &mut self,
        old: ModelHash,
        new: ModelHash,
        keep_plain: bool,
        keep_secured: bool,
    ) -> usize {
        let keepers = self.extract_migrated(old, keep_plain, keep_secured);
        if old == new {
            return 0;
        }
        self.adopt(new, keepers)
    }

    /// Removes every entry under `old`, returning (still keyed under
    /// `old`) exactly those a patch provably preserved — the selection
    /// rule of [`VerdictCache::migrate`], split out so a cross-shard
    /// patch can extract from the source shard's cache and adopt into
    /// the destination's.
    pub fn extract_migrated(
        &mut self,
        old: ModelHash,
        keep_plain: bool,
        keep_secured: bool,
    ) -> Vec<(CacheKey, QueryReply)> {
        let keys: Vec<CacheKey> = self
            .entries
            .keys()
            .filter(|k| k.model == old)
            .copied()
            .collect();
        let mut keepers = Vec::new();
        for key in keys {
            let Some(entry) = self.entries.remove(&key) else {
                continue;
            };
            let keep = match key.shape.property() {
                Some(Property::Observability) => keep_plain,
                Some(Property::SecuredObservability | Property::BadDataDetectability) => {
                    keep_secured
                }
                // Property-less queries (security indices) depend only
                // on the electrical measurement set, which no patch
                // kind mutates — they migrate unconditionally.
                None => true,
            };
            if keep {
                keepers.push((key, entry.reply));
            }
        }
        keepers
    }

    /// Inserts extracted entries under `model` (the post-patch hash).
    /// Returns how many were stored; insertion respects this cache's
    /// capacity, so adopting into a smaller shard cache can evict.
    pub fn adopt(&mut self, model: ModelHash, entries: Vec<(CacheKey, QueryReply)>) -> usize {
        let mut adopted = 0;
        for (mut key, reply) in entries {
            key.model = model;
            if self.insert(key, &reply) {
                adopted += 1;
            }
        }
        adopted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::Verdict;

    fn key(model: u128, k: usize) -> CacheKey {
        CacheKey {
            model: ModelHash(model),
            certify: false,
            limits: LimitsSpec::default(),
            shape: QueryShape::Verify {
                property: Property::Observability,
                spec: ResiliencySpec::total(k),
            },
        }
    }

    fn resilient() -> QueryReply {
        QueryReply::Verify {
            verdict: Verdict::Resilient,
            conflicts: 1,
            attempts: 1,
            certificate: None,
        }
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut cache = VerdictCache::new(2);
        assert!(cache.lookup(&key(1, 1)).is_none());
        assert!(cache.insert(key(1, 1), &resilient()));
        assert!(cache.insert(key(1, 2), &resilient()));
        // Touch (1,1) so (1,2) is the LRU victim.
        assert!(cache.lookup(&key(1, 1)).is_some());
        assert!(cache.insert(key(1, 3), &resilient()));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&key(1, 2)).is_none());
        assert!(cache.lookup(&key(1, 3)).is_some());
    }

    #[test]
    fn unknown_replies_are_not_cached() {
        let mut cache = VerdictCache::new(8);
        let unknown = QueryReply::Verify {
            verdict: Verdict::Unknown {
                conflicts: 9,
                elapsed: std::time::Duration::from_millis(1),
            },
            conflicts: 9,
            attempts: 2,
            certificate: None,
        };
        assert!(!cache.insert(key(1, 1), &unknown));
        assert!(cache.is_empty());
    }

    #[test]
    fn security_index_entries_survive_every_migration() {
        let mut cache = VerdictCache::new(8);
        let si_key = CacheKey {
            model: ModelHash(1),
            certify: false,
            limits: LimitsSpec::default(),
            shape: QueryShape::SecurityIndex,
        };
        let si_reply = QueryReply::SecurityIndex {
            indices: vec![2, 2],
            min: 2,
            max: 2,
            solves: 3,
            cert_failures: 0,
        };
        assert!(cache.insert(si_key, &si_reply));
        cache.insert(key(1, 1), &resilient());
        // A patch that dirties every path-set family still cannot touch
        // the electrical measurements: the verdict dies, the index
        // distribution migrates.
        assert_eq!(cache.migrate(ModelHash(1), ModelHash(9), false, false), 1);
        let migrated = CacheKey {
            model: ModelHash(9),
            ..si_key
        };
        assert_eq!(cache.lookup(&migrated), Some(si_reply));
        assert!(cache.lookup(&key(9, 1)).is_none());
    }

    #[test]
    fn model_invalidation_is_scoped() {
        let mut cache = VerdictCache::new(8);
        cache.insert(key(1, 1), &resilient());
        cache.insert(key(1, 2), &resilient());
        cache.insert(key(2, 1), &resilient());
        assert_eq!(cache.invalidate_model(ModelHash(1)), 2);
        assert!(cache.lookup(&key(1, 1)).is_none());
        assert!(cache.lookup(&key(2, 1)).is_some());
    }
}
