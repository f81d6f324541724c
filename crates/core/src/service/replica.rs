//! Read-mostly replication of hot verdict-cache entries.
//!
//! Each shard of a sharded engine owns a primary [`VerdictCache`]
//! behind a mutex, and every query for a model routes to the shard that
//! owns it — so under a hot, cacheable request mix, that one mutex is
//! the whole service's throughput ceiling. The [`ReplicaCache`] lifts
//! it: a single instance is shared by every shard behind an `RwLock`,
//! entries are *published* into it when they prove hot (a primary-cache
//! hit), and lookups take only the read lock, so any number of
//! connection workers replay a hot verdict concurrently without
//! touching the owning shard's mutex.
//!
//! [`VerdictCache`]: super::cache::VerdictCache
//!
//! # Epoch invalidation
//!
//! Replicated entries must never outlive their model: a `patch` rekeys
//! the session and migrates primary entries to the new hash, and an
//! `evict` drops them — in both cases a replica still answering under
//! the old hash would serve a verdict for a model the service no longer
//! has. Every model therefore carries an *epoch*:
//!
//! * a publisher snapshots the model's epoch **before** consulting any
//!   cache, and the entry is stored tagged with that snapshot;
//! * [`ReplicaCache::invalidate_model`] (called on patch and evict)
//!   bumps the epoch and eagerly drops the model's entries;
//! * a lookup answers only when the stored tag equals the current
//!   epoch.
//!
//! The ordering closes the publish/invalidate race: if an invalidation
//! lands between a publisher's snapshot and its `publish`, the entry is
//! stored with a stale tag and no lookup will ever serve it. A fresh
//! post-patch verdict re-replicates under the new hash (whose epoch the
//! patch never touched) the next time it runs hot.

use std::collections::HashMap;
use std::sync::RwLock;

use super::cache::CacheKey;
use super::hash::ModelHash;
use super::protocol::QueryReply;

struct Entry {
    reply: QueryReply,
    /// The owning model's epoch at publish-snapshot time.
    epoch: u64,
    /// Logical timestamp of the publish (oldest-published eviction).
    published: u64,
}

#[derive(Default)]
struct Inner {
    epochs: HashMap<ModelHash, u64>,
    entries: HashMap<CacheKey, Entry>,
    clock: u64,
}

/// A bounded, epoch-invalidated replica of hot verdict-cache entries,
/// shared read-mostly across shards. Capacity 0 disables it: every
/// operation is a cheap no-op, which is how a standalone (unsharded)
/// engine runs.
pub struct ReplicaCache {
    inner: RwLock<Inner>,
    capacity: usize,
}

impl std::fmt::Debug for ReplicaCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

fn read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ReplicaCache {
    /// A replica bounded to `capacity` entries (0 disables it).
    pub fn new(capacity: usize) -> ReplicaCache {
        ReplicaCache {
            inner: RwLock::new(Inner::default()),
            capacity,
        }
    }

    /// A disabled replica (what a standalone engine carries).
    pub fn disabled() -> ReplicaCache {
        ReplicaCache::new(0)
    }

    /// Whether publishes can ever store anything.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Replicated entries currently held.
    pub fn len(&self) -> usize {
        if !self.is_enabled() {
            return 0;
        }
        read(&self.inner).entries.len()
    }

    /// Whether the replica holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The model's current epoch. Publishers must snapshot this
    /// *before* consulting any cache (see the module docs for why).
    pub fn epoch_of(&self, model: ModelHash) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        read(&self.inner).epochs.get(&model).copied().unwrap_or(0)
    }

    /// Looks up a replicated reply under the read lock, answering only
    /// when the entry's epoch tag is current.
    pub fn lookup(&self, key: &CacheKey) -> Option<QueryReply> {
        if !self.is_enabled() {
            return None;
        }
        let inner = read(&self.inner);
        let entry = inner.entries.get(key)?;
        let current = inner.epochs.get(&key.model).copied().unwrap_or(0);
        if entry.epoch != current {
            return None;
        }
        Some(entry.reply.clone())
    }

    /// Publishes a hot entry tagged with the caller's epoch snapshot.
    /// Evicts the oldest-published entry when full. An entry published
    /// with a stale snapshot is stored but never served.
    pub fn publish(&self, key: &CacheKey, reply: &QueryReply, epoch: u64) {
        if !self.is_enabled() || !reply.is_cacheable(&key.limits) {
            return;
        }
        let mut inner = write(&self.inner);
        if inner.entries.len() >= self.capacity && !inner.entries.contains_key(key) {
            if let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.published)
                .map(|(k, _)| *k)
            {
                inner.entries.remove(&oldest);
            }
        }
        inner.clock += 1;
        let published = inner.clock;
        inner.entries.insert(
            *key,
            Entry {
                reply: reply.clone(),
                epoch,
                published,
            },
        );
    }

    /// Bumps the model's epoch and eagerly drops its entries — called
    /// when a patch or evict retires the hash. Returns how many entries
    /// were dropped (racing publishes may leave dead-on-arrival entries
    /// behind; the epoch check keeps those unservable).
    pub fn invalidate_model(&self, model: ModelHash) -> usize {
        if !self.is_enabled() {
            return 0;
        }
        let mut inner = write(&self.inner);
        *inner.epochs.entry(model).or_insert(0) += 1;
        let before = inner.entries.len();
        inner.entries.retain(|key, _| key.model != model);
        before - inner.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::cache::QueryShape;
    use crate::service::protocol::LimitsSpec;
    use crate::spec::{Property, ResiliencySpec};
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
    fn publish_lookup_and_scoped_invalidation() {
        let replica = ReplicaCache::new(8);
        let epoch = replica.epoch_of(ModelHash(1));
        replica.publish(&key(1, 1), &resilient(), epoch);
        replica.publish(&key(2, 1), &resilient(), replica.epoch_of(ModelHash(2)));
        assert!(replica.lookup(&key(1, 1)).is_some());
        assert_eq!(replica.invalidate_model(ModelHash(1)), 1);
        assert!(replica.lookup(&key(1, 1)).is_none());
        assert!(replica.lookup(&key(2, 1)).is_some());
    }

    #[test]
    fn stale_epoch_snapshot_is_never_served() {
        let replica = ReplicaCache::new(8);
        // Snapshot, then an invalidation wins the race, then publish.
        let epoch = replica.epoch_of(ModelHash(1));
        replica.invalidate_model(ModelHash(1));
        replica.publish(&key(1, 1), &resilient(), epoch);
        assert!(
            replica.lookup(&key(1, 1)).is_none(),
            "a dead-on-arrival publish must not be servable"
        );
        // A fresh snapshot under the new epoch serves fine.
        let epoch = replica.epoch_of(ModelHash(1));
        replica.publish(&key(1, 1), &resilient(), epoch);
        assert!(replica.lookup(&key(1, 1)).is_some());
    }

    #[test]
    fn disabled_replica_is_inert() {
        let replica = ReplicaCache::disabled();
        replica.publish(&key(1, 1), &resilient(), 0);
        assert!(replica.lookup(&key(1, 1)).is_none());
        assert_eq!(replica.len(), 0);
        assert_eq!(replica.invalidate_model(ModelHash(1)), 0);
    }
}
