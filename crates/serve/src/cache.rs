//! Thread-safe LRU cache of featurized plan graphs.
//!
//! Serving workers key the cache by the **model version** they have
//! pinned plus the structural
//! [`plan_fingerprint`](zsdb_core::fingerprint::plan_fingerprint) of an
//! incoming plan, so repeated query shapes skip re-featurization and go
//! straight to model inference.  Qualifying every entry by the version
//! that featurized it makes hot-swaps race-free by construction: a
//! worker that featurized against the old model can only ever insert —
//! and hit — entries under the old version's key, so a graph featurized
//! with one model's `FeaturizerConfig` is never served under another,
//! regardless of how inserts interleave with a concurrent
//! [`swap_model`](crate::PredictionServer::swap_model).  Hit/miss
//! counters feed the serving metrics.
//!
//! Recency bookkeeping is a **slab + intrusive doubly-linked list**: the
//! entries live in a preallocated `Vec` of slots chained into LRU order
//! by index, and the key → slot map is sized for `capacity` up front.
//! A cache *hit* therefore performs **zero heap allocations** — a hash
//! lookup, an `Arc` clone and four index writes to splice the slot to
//! the front of the list.  (The previous design kept recency in a
//! `BTreeMap<tick, key>`, which allocated a fresh tree node on every
//! single hit — measurable at sharded-server request rates, and exactly
//! the kind of steady-state allocation the warm-path regression test
//! forbids.)

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use zsdb_core::features::PlanGraph;

/// Cache key: the model version the graph was featurized for, plus the
/// structural plan fingerprint.
type VersionedKey = (u32, u64);

/// Sentinel slot index: "no neighbour" in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// One slab slot: the entry plus its intrusive LRU-list links.  Freed
/// slots drop their graph (`None`) but stay in the slab for reuse.
struct Slot {
    key: VersionedKey,
    graph: Option<Arc<PlanGraph>>,
    prev: usize,
    next: usize,
}

/// Interior LRU bookkeeping: a slab of slots threaded into a doubly
/// linked recency list (`head` = most recent, `tail` = eviction victim),
/// plus a key → slot map preallocated for the full capacity so steady-
/// state operation never rehashes.
struct LruInner {
    map: HashMap<VersionedKey, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl LruInner {
    /// Remove slot `i` from the recency list (it keeps its slab slot).
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
        self.slots[i].prev = NIL;
        self.slots[i].next = NIL;
    }

    /// Splice slot `i` in as the most recently used entry.
    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Mark slot `i` as most recently used.
    fn touch(&mut self, i: usize) {
        if self.head == i {
            return;
        }
        self.unlink(i);
        self.push_front(i);
    }
}

/// A bounded, thread-safe LRU cache mapping (model version, plan
/// fingerprint) pairs to featurized graphs.
pub struct FeatureCache {
    inner: Mutex<LruInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl FeatureCache {
    /// Create a cache holding at most `capacity` graphs (a capacity of 0
    /// disables caching: every lookup is a miss and nothing is stored).
    pub fn new(capacity: usize) -> Self {
        FeatureCache {
            inner: Mutex::new(LruInner {
                map: HashMap::with_capacity(capacity),
                slots: Vec::with_capacity(capacity),
                free: Vec::with_capacity(capacity),
                head: NIL,
                tail: NIL,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Maximum number of entries (0 = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drop every cached graph (hit/miss counters are lifetime counters
    /// and survive).  Correctness never depends on this — entries are
    /// version-qualified — but the serving layer calls it on every model
    /// hot-swap as memory hygiene: the old version's entries are dead
    /// weight the LRU would otherwise evict one miss at a time.
    pub fn invalidate(&self) {
        let mut inner = self.inner.lock().expect("feature cache poisoned");
        inner.map.clear();
        inner.free.clear();
        inner.head = NIL;
        inner.tail = NIL;
        for i in 0..inner.slots.len() {
            inner.slots[i].graph = None;
            inner.slots[i].prev = NIL;
            inner.slots[i].next = NIL;
            inner.free.push(i);
        }
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Look up a fingerprint under a model version, counting a hit or
    /// miss.  A hit allocates nothing.
    pub fn get(&self, version: u32, key: u64) -> Option<Arc<PlanGraph>> {
        let full_key = (version, key);
        let mut inner = self.inner.lock().expect("feature cache poisoned");
        match inner.map.get(&full_key).copied() {
            Some(slot) => {
                let graph = inner.slots[slot]
                    .graph
                    .clone()
                    .expect("mapped cache slot is occupied");
                inner.touch(slot);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(graph)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a graph under a model version, evicting the least recently
    /// used entry if the cache is full.  Re-inserting an existing key
    /// only refreshes its recency; the cached graph is kept.
    pub fn insert(&self, version: u32, key: u64, graph: Arc<PlanGraph>) {
        if self.capacity == 0 {
            return;
        }
        let full_key = (version, key);
        let mut inner = self.inner.lock().expect("feature cache poisoned");
        if let Some(slot) = inner.map.get(&full_key).copied() {
            inner.touch(slot);
            return;
        }
        if inner.map.len() >= self.capacity {
            let victim = inner.tail;
            debug_assert_ne!(victim, NIL, "full cache has a tail");
            inner.unlink(victim);
            let victim_key = inner.slots[victim].key;
            inner.map.remove(&victim_key);
            inner.slots[victim].graph = None;
            inner.free.push(victim);
        }
        let slot = match inner.free.pop() {
            Some(i) => {
                inner.slots[i].key = full_key;
                inner.slots[i].graph = Some(graph);
                i
            }
            None => {
                inner.slots.push(Slot {
                    key: full_key,
                    graph: Some(graph),
                    prev: NIL,
                    next: NIL,
                });
                inner.slots.len() - 1
            }
        };
        inner.push_front(slot);
        inner.map.insert(full_key, slot);
    }

    /// Current cache statistics.
    pub fn stats(&self) -> CacheStats {
        let len = self.inner.lock().expect("feature cache poisoned").map.len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            len,
            capacity: self.capacity,
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to featurize.
    pub misses: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum number of entries.
    pub capacity: usize,
    /// Times the cache was wholesale invalidated (model hot-swaps).
    pub invalidations: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when none served).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fold another (shard's) stats into this one: hits, misses, lengths
    /// and capacities are **summed** — so [`CacheStats::hit_rate`] over
    /// the merge divides total hits by total lookups, never averaging
    /// per-shard rates — while `invalidations` takes the **max**, because
    /// a model hot-swap invalidates every shard cache at once and counts
    /// as one logical invalidation of the (sharded) cache.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.len += other.len;
        self.capacity += other.capacity;
        self.invalidations = self.invalidations.max(other.invalidations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(tag: f64) -> PlanGraph {
        use zsdb_core::features::{GraphNode, NodeKind};
        PlanGraph {
            nodes: vec![GraphNode {
                kind: NodeKind::PlanOperator,
                features: vec![tag; NodeKind::PlanOperator.feature_dim()],
                children: vec![],
            }],
            root: 0,
            runtime_secs: None,
        }
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = FeatureCache::new(4);
        assert!(cache.get(1, 1).is_none());
        cache.insert(1, 1, Arc::new(graph(1.0)));
        assert!(cache.get(1, 1).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn least_recently_used_entry_is_evicted() {
        let cache = FeatureCache::new(2);
        cache.insert(1, 1, Arc::new(graph(1.0)));
        cache.insert(1, 2, Arc::new(graph(2.0)));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1, 1).is_some());
        cache.insert(1, 3, Arc::new(graph(3.0)));
        assert!(cache.get(1, 1).is_some());
        assert!(
            cache.get(1, 2).is_none(),
            "LRU entry should have been evicted"
        );
        assert!(cache.get(1, 3).is_some());
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn eviction_churn_reuses_slab_slots() {
        // Insert far more distinct keys than the capacity: the slab must
        // never grow past `capacity` slots — every eviction frees a slot
        // the next insert reuses — and LRU order must stay exact.
        let cache = FeatureCache::new(3);
        for key in 0..50u64 {
            cache.insert(1, key, Arc::new(graph(key as f64)));
        }
        let stats = cache.stats();
        assert_eq!(stats.len, 3);
        for key in 47..50u64 {
            let g = cache.get(1, key).expect("newest entries survive");
            assert_eq!(g.nodes[0].features[0], key as f64);
        }
        assert!(cache.get(1, 46).is_none(), "older entries were evicted");
    }

    #[test]
    fn entries_are_scoped_to_their_model_version() {
        let cache = FeatureCache::new(8);
        cache.insert(1, 7, Arc::new(graph(1.0)));
        // The same fingerprint under another version is a distinct
        // entry: a late insert from a worker still holding the old
        // version can never be served to the new one.
        assert!(
            cache.get(2, 7).is_none(),
            "version 2 must not see version 1's graph"
        );
        cache.insert(2, 7, Arc::new(graph(2.0)));
        assert_eq!(cache.get(2, 7).unwrap().nodes[0].features[0], 2.0);
        let g = cache
            .get(1, 7)
            .expect("version 1's own entry is still there");
        assert_eq!(g.nodes[0].features[0], 1.0);
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn invalidate_clears_entries_but_keeps_lifetime_counters() {
        let cache = FeatureCache::new(8);
        cache.insert(1, 1, Arc::new(graph(1.0)));
        assert!(cache.get(1, 1).is_some());
        cache.invalidate();
        let stats = cache.stats();
        assert_eq!(stats.len, 0, "entries dropped");
        assert_eq!(stats.hits, 1, "lifetime hits survive");
        assert_eq!(stats.invalidations, 1);
        // The same key misses again and repopulates cleanly.
        assert!(cache.get(1, 1).is_none());
        cache.insert(1, 1, Arc::new(graph(2.0)));
        let g = cache.get(1, 1).expect("repopulated");
        assert_eq!(g.nodes[0].features[0], 2.0, "post-invalidation value wins");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = FeatureCache::new(0);
        assert_eq!(cache.capacity(), 0);
        cache.insert(1, 7, Arc::new(graph(7.0)));
        assert!(cache.get(1, 7).is_none());
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn merged_stats_sum_lookups_before_dividing() {
        // Shard A: 9 hits / 1 miss (rate 0.9); shard B: 0 hits / 30
        // misses (rate 0.0).  Summing lookups first gives 9/40 = 0.225;
        // averaging the per-shard rates would claim 0.45 — the asymmetric
        // traffic makes the two definitions visibly disagree.
        let a = CacheStats {
            hits: 9,
            misses: 1,
            len: 4,
            capacity: 16,
            invalidations: 1,
        };
        let b = CacheStats {
            hits: 0,
            misses: 30,
            len: 2,
            capacity: 16,
            invalidations: 1,
        };
        let mut merged = CacheStats::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.hits, 9);
        assert_eq!(merged.misses, 31);
        assert!((merged.hit_rate() - 9.0 / 40.0).abs() < 1e-12);
        let averaged = (a.hit_rate() + b.hit_rate()) / 2.0;
        assert!(
            (merged.hit_rate() - averaged).abs() > 0.1,
            "summed-then-divided must differ from per-shard averaging here"
        );
        assert_eq!(merged.len, 6);
        assert_eq!(merged.capacity, 32);
        assert_eq!(
            merged.invalidations, 1,
            "one hot-swap invalidating every shard is one logical invalidation"
        );
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = Arc::new(FeatureCache::new(64));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let key = (t * 31 + i) % 100;
                    // What a worker does: look up, publish on a miss.
                    match cache.get(1, key) {
                        Some(g) => assert_eq!(g.nodes[0].features[0], key as f64),
                        None => cache.insert(1, key, Arc::new(graph(key as f64))),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 200);
        assert!(stats.len <= 64);
    }
}
