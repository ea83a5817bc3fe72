//! Memoizing snapshot cache for Status Queries (the caching layer of the
//! layout-and-caching PR).
//!
//! The serving and sweep paths issue the *same* Status Queries repeatedly:
//! the timeline pipeline evaluates every group-by node at each of the
//! `1 + ceil(100/x)` grid anchors, and batch/online queries revisit anchors
//! already computed. [`CachedStatusQueryEngine`] memoizes whole aggregate
//! snapshots in an [`LruCache`] keyed on
//! `(t*, group-by node, status, index epoch)`.
//!
//! **Invalidation** is epoch-based: the O(log n) dynamic insert path of
//! Section 4.1 bumps the index epoch
//! ([`crate::traits::MaintainableIndex::current_epoch`]), and because the
//! epoch is part of the key, a snapshot computed under an older epoch can
//! never be looked up again — stale entries simply age out of the LRU.
//!
//! **Surgical invalidation** (delta maintenance): when a mutation arrives
//! as a typed [`RccDelta`], [`CachedStatusQueryEngine::apply_delta`]
//! classifies every resident snapshot against the delta's
//! (type, SWLIN subtree, status, `t*`) footprint. Keys the delta cannot
//! affect are *re-keyed* to the new epoch and stay warm; only the affected
//! ones are dropped. If the delta or any resident key cannot be classified
//! (malformed key encoding, NaN timestamp, unknown row), the whole cache is
//! dropped and a counter bumped — degraded, never silently stale.
//!
//! **Bit-identity** holds by construction: a miss stores the exact
//! [`StatusAggregate`] the cold path produced (same `f64` summation order),
//! and a hit returns that stored value verbatim, so cached and uncached
//! runs — and any mix of them — emit identical bits.
//!
//! **Concurrency** composes with the PR-2 runtime rule of no locks on the
//! read path: the single-query path takes `&mut self` (no lock at all), and
//! the batch path gives each shard its own private [`LruCache`], handed off
//! through a `Mutex` acquired *once per shard per batch*, never per query.

use crate::arena::RccArena;
use crate::delta::RccDelta;
use crate::status_query::{StatusAggregate, StatusQuery, StatusQueryEngine};
use crate::traits::MaintainableIndex;
use crate::types::{HeapSize, LogicalRcc, RowId};
use domd_data::avail::Avail;
use domd_data::dataset::Dataset;
use domd_data::hash::FxHashMap;
use domd_data::rcc::Rcc;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

const NIL: u32 = u32::MAX;

/// Hit/miss/eviction counters of one cache (or a merged view of several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the cold path.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Element-wise sum (for merging per-shard stats).
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }
}

/// One slab entry of the LRU's intrusive recency list.
#[derive(Debug, Clone)]
struct LruSlot<K, V> {
    key: K,
    value: V,
    prev: u32,
    next: u32,
}

/// A capacity-bounded least-recently-used map: O(1) lookup via a hash map
/// into a slab, O(1) recency updates via an intrusive doubly-linked list.
/// No interior mutability — callers that share one must do so explicitly
/// (see the per-shard handoff in
/// [`CachedStatusQueryEngine::aggregate_batch_cached`]).
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: FxHashMap<K, u32>,
    slots: Vec<LruSlot<K, V>>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot (eviction victim).
    tail: u32,
    free: Vec<u32>,
    capacity: usize,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruCache {
            map: FxHashMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counters accumulated since construction (or the last [`Self::reset_stats`]).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the counters (entries are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, slot: u32) {
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Looks up `key`, counting a hit (moved to most-recent) or a miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(slot) => {
                self.stats.hits += 1;
                if self.head != slot {
                    self.unlink(slot);
                    self.push_front(slot);
                }
                Some(&self.slots[slot as usize].value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts or replaces `key`, evicting the least-recently-used entry
    /// when at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot as usize].value = value;
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "full cache must have a tail");
            self.unlink(victim);
            let old_key = self.slots[victim as usize].key.clone();
            self.map.remove(&old_key);
            self.free.push(victim);
            self.stats.evictions += 1;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].key = key.clone();
                self.slots[s as usize].value = value;
                s
            }
            None => {
                self.slots.push(LruSlot { key: key.clone(), value, prev: NIL, next: NIL });
                (self.slots.len() - 1) as u32
            }
        };
        self.push_front(slot);
        self.map.insert(key, slot);
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Rebuilds the cache keeping only the entries `keep` accepts, mapping
    /// each survivor's key through `rekey`. Recency order is preserved:
    /// entries are re-inserted least-recent first, so each insert becomes
    /// the momentary head and the original head ends up the head again.
    /// Returns `(dropped, retained)`. Counters are kept; re-insertion
    /// cannot evict because at most `len()` entries come back.
    pub fn retain_rekey(
        &mut self,
        mut keep: impl FnMut(&K) -> bool,
        mut rekey: impl FnMut(&K) -> K,
    ) -> (usize, usize) {
        let mut live: Vec<(K, V)> = Vec::with_capacity(self.map.len());
        let mut slot = self.tail;
        while slot != NIL {
            let s = &self.slots[slot as usize];
            live.push((s.key.clone(), s.value.clone()));
            slot = s.prev;
        }
        self.clear();
        let (mut dropped, mut retained) = (0, 0);
        for (k, v) in live {
            if keep(&k) {
                retained += 1;
                self.insert(rekey(&k), v);
            } else {
                dropped += 1;
            }
        }
        (dropped, retained)
    }
}

impl<K, V> HeapSize for LruCache<K, V> {
    fn heap_bytes(&self) -> usize {
        // HashMap buckets store (K, u32) plus control bytes; the pair size
        // is the dominant, portable term.
        self.map.capacity() * std::mem::size_of::<(K, u32)>()
            + self.slots.capacity() * std::mem::size_of::<LruSlot<K, V>>()
            + self.free.heap_bytes()
    }
}

/// Cache key of one memoized Status Query snapshot. The epoch field makes
/// invalidation structural: bumping the epoch changes every future key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SnapshotKey {
    /// `t*` as raw bits (`f64` is not `Hash`; bit equality is exactly the
    /// determinism contract the engine already obeys).
    pub t_bits: u64,
    /// RCC-type group-by arm: `RccType::index()` or `u8::MAX` for none.
    pub rcc_type: u8,
    /// SWLIN prefix, or `u32::MAX` for none.
    pub prefix: u32,
    /// SWLIN prefix length, or `u8::MAX` for none.
    pub len: u8,
    /// Status arm of Equations 3–6.
    pub status: u8,
    /// Index epoch the snapshot was computed under.
    pub epoch: u64,
}

impl SnapshotKey {
    /// Builds the key for `q` under `epoch`.
    pub fn new(q: &StatusQuery, epoch: u64) -> Self {
        let (prefix, len) = q.swlin_prefix.map_or((u32::MAX, u8::MAX), |(p, l)| (p, l as u8));
        SnapshotKey {
            t_bits: q.t_star.to_bits(),
            rcc_type: q.rcc_type.map_or(u8::MAX, |t| t.index() as u8),
            prefix,
            len,
            status: match q.status {
                domd_data::rcc::RccStatus::Active => 0,
                domd_data::rcc::RccStatus::Settled => 1,
                domd_data::rcc::RccStatus::Created => 2,
                domd_data::rcc::RccStatus::NotCreated => 3,
            },
            epoch,
        }
    }
}

/// Default snapshot-cache capacity (entries, not bytes): enough for every
/// (grid anchor × group node × status) combination of a full feature sweep
/// with room to spare.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// How one applied delta invalidated the memoized snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invalidation {
    /// Only the keys whose result the delta could change were dropped;
    /// the survivors were re-keyed to the new epoch and stay warm.
    Surgical {
        /// Entries the delta's footprint touched (discarded).
        dropped: usize,
        /// Entries carried over to the new epoch.
        retained: usize,
    },
    /// The delta (or a resident key) could not be classified; every entry
    /// was dropped and [`CachedStatusQueryEngine::full_invalidations`]
    /// bumped. Degraded, never silently stale.
    Full,
}

/// The (type, SWLIN, time-interval) footprint of one applied delta: the
/// classifier deciding which memoized snapshots the delta can affect.
#[derive(Debug, Clone, Copy)]
struct DeltaFootprint {
    /// `RccType::index()` of the mutated row.
    type_idx: u8,
    /// Packed SWLIN code of the mutated row.
    packed: u32,
    /// Logical start (a settle never moves it).
    start: f64,
    /// Upper bound of the `t*` range where Active results can differ:
    /// the row's end for insert/remove, `max(old_end, new_end)` for settle.
    active_hi: f64,
    /// Lower bound of the `t*` range where Settled results can differ:
    /// the row's end for insert/remove, `min(old_end, new_end)` for settle.
    settled_lo: f64,
}

impl DeltaFootprint {
    /// Reads the footprint off the arena *after* the delta was applied;
    /// `old_end` is the row's logical end from before (equal to the
    /// current end for insert/remove).
    fn capture(arena: &RccArena, row: RowId, old_end: f64) -> DeltaFootprint {
        let end = arena.end(row);
        DeltaFootprint {
            type_idx: arena.rcc_type(row).index() as u8,
            packed: arena.swlin(row).packed(),
            start: arena.start(row),
            active_hi: end.max(old_end),
            settled_lo: end.min(old_end),
        }
    }

    /// Whether the delta can change the snapshot stored under `key`;
    /// `None` when the key cannot be classified (full invalidation).
    fn affects(&self, key: &SnapshotKey) -> Option<bool> {
        // Group-by filters: a key scoped to a different type or a SWLIN
        // subtree not containing the mutated row can never see it.
        if key.rcc_type != u8::MAX && key.rcc_type != self.type_idx {
            return Some(false);
        }
        match (key.prefix, key.len) {
            (u32::MAX, u8::MAX) => {}
            (p, l) if (1..=8).contains(&l) => {
                // u64 arithmetic: an adversarial prefix would overflow the
                // u32 product the tree-side range computation performs.
                let unit = 10u64.pow(8 - u32::from(l));
                let lo = u64::from(p) * unit;
                if !(lo..lo + unit).contains(&u64::from(self.packed)) {
                    return Some(false);
                }
            }
            _ => return None, // inconsistent prefix encoding
        }
        let t = f64::from_bits(key.t_bits);
        if t.is_nan() {
            return None;
        }
        // A settle also changes the row's *duration*, which feeds the
        // aggregate of every set the row is a member of — so each arm
        // covers membership changes and contained-member mutations alike.
        Some(match key.status {
            0 => self.start <= t && t < self.active_hi,
            1 => t >= self.settled_lo,
            2 => t >= self.start,
            3 => t < self.start,
            _ => return None, // unknown status arm
        })
    }
}

/// A [`StatusQueryEngine`] wrapped with a memoizing snapshot LRU.
#[derive(Debug)]
pub struct CachedStatusQueryEngine<I> {
    engine: StatusQueryEngine<I>,
    cache: LruCache<SnapshotKey, StatusAggregate>,
    /// Private caches for the batch path, one per shard, kept across
    /// batches so repeated batches stay warm.
    shard_caches: Vec<Mutex<LruCache<SnapshotKey, StatusAggregate>>>,
    /// Times a delta fell back to dropping the whole cache (see
    /// [`Invalidation::Full`]).
    full_invalidations: u64,
}

impl<I: MaintainableIndex> CachedStatusQueryEngine<I> {
    /// Builds engine + cache for `dataset` (see [`StatusQueryEngine::build`]).
    pub fn build(dataset: &Dataset, projected: &[LogicalRcc], capacity: usize) -> Self {
        Self::from_engine(StatusQueryEngine::build(dataset, projected), capacity)
    }

    /// Wraps an existing engine with a cache of `capacity` entries.
    pub fn from_engine(engine: StatusQueryEngine<I>, capacity: usize) -> Self {
        CachedStatusQueryEngine {
            engine,
            cache: LruCache::new(capacity),
            shard_caches: Vec::new(),
            full_invalidations: 0,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &StatusQueryEngine<I> {
        &self.engine
    }

    /// The shared columnar storage.
    pub fn arena(&self) -> &Arc<RccArena> {
        self.engine.arena()
    }

    /// Current index epoch.
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// Merged hit/miss/eviction counters of the primary and shard caches.
    pub fn stats(&self) -> CacheStats {
        let mut total = self.cache.stats();
        for shard in &self.shard_caches {
            // domd-lint: allow(no-panic) — a poisoned shard lock means a worker already panicked; propagating is the only sound exit
            total = total.merged(&shard.lock().expect("shard cache lock").stats());
        }
        total
    }

    /// Uncached row retrieval (delegates to the engine).
    pub fn execute(&self, q: &StatusQuery) -> Vec<RowId> {
        self.engine.execute(q)
    }

    /// Memoized [`StatusQueryEngine::aggregate`]: a hit returns the stored
    /// cold-path snapshot verbatim; a miss computes, stores, and returns
    /// it. No locking — this is the single-threaded read path.
    pub fn aggregate_cached(&mut self, q: &StatusQuery) -> StatusAggregate {
        let key = SnapshotKey::new(q, self.engine.epoch());
        if let Some(&agg) = self.cache.get(&key) {
            return agg;
        }
        let agg = self.engine.aggregate(q);
        self.cache.insert(key, agg);
        agg
    }

    /// Dynamic maintenance: inserts the RCC (bumping the epoch, so every
    /// memoized snapshot keyed under the old epoch is dead on arrival).
    pub fn insert(&mut self, rcc: &Rcc, avail: &Avail) -> RowId {
        self.engine.insert(rcc, avail)
    }

    /// Times a delta fell back to full invalidation (never silently stale).
    pub fn full_invalidations(&self) -> u64 {
        self.full_invalidations
    }

    /// Delta-aware maintenance: applies the delta to the engine, then
    /// surgically invalidates only the resident snapshots its
    /// (type, SWLIN, status, `t*`) footprint can touch, re-keying the
    /// survivors to the new epoch so they keep hitting. An unclassifiable
    /// delta or resident key degrades to a counted full invalidation.
    pub fn apply_delta(&mut self, delta: &RccDelta) -> (Option<RowId>, Invalidation) {
        let old_epoch = self.engine.epoch();
        let old_end = match delta {
            RccDelta::Settle { row, .. } if self.engine.is_live(*row) => {
                Some(self.engine.arena().end(*row))
            }
            _ => None,
        };
        let applied = self.engine.apply_delta(delta);
        let Some(row) = applied else {
            // The engine refused the delta (unknown row): nothing changed,
            // but a delta we cannot map to a row is exactly the
            // unclassifiable case — drop everything rather than reason
            // about it.
            self.invalidate_all();
            return (None, Invalidation::Full);
        };
        let end_now = self.engine.arena().end(row);
        let fp = DeltaFootprint::capture(self.engine.arena(), row, old_end.unwrap_or(end_now));
        let new_epoch = self.engine.epoch();
        let classifiable = self.cache.map.keys().all(|k| fp.affects(k).is_some())
            && self.shard_caches.iter().all(|shard| {
                // domd-lint: allow(no-panic) — a poisoned shard lock means a worker already panicked; propagating is the only sound exit
                let cache = shard.lock().expect("shard cache lock");
                cache.map.keys().all(|k| fp.affects(k).is_some())
            });
        if !classifiable {
            self.invalidate_all();
            return (Some(row), Invalidation::Full);
        }
        let keep = |k: &SnapshotKey| k.epoch == old_epoch && fp.affects(k) == Some(false);
        let rekey = |k: &SnapshotKey| SnapshotKey { epoch: new_epoch, ..*k };
        let (mut dropped, mut retained) = self.cache.retain_rekey(keep, rekey);
        for shard in &self.shard_caches {
            // domd-lint: allow(no-panic) — a poisoned shard lock means a worker already panicked; propagating is the only sound exit
            let (d, r) = shard.lock().expect("shard cache lock").retain_rekey(keep, rekey);
            dropped += d;
            retained += r;
        }
        (Some(row), Invalidation::Surgical { dropped, retained })
    }

    fn invalidate_all(&mut self) {
        self.cache.clear();
        for shard in &self.shard_caches {
            // domd-lint: allow(no-panic) — a poisoned shard lock means a worker already panicked; propagating is the only sound exit
            shard.lock().expect("shard cache lock").clear();
        }
        self.full_invalidations += 1;
    }
}

impl<I: MaintainableIndex + Send + Sync> CachedStatusQueryEngine<I> {
    /// Batched memoized aggregation on the shared worker pool. Each shard
    /// owns a private LRU handed off through a `Mutex` locked once per
    /// shard per batch (never per query), so the per-query read path stays
    /// lock-free and results are bit-identical to sequential
    /// [`CachedStatusQueryEngine::aggregate_cached`] regardless of thread
    /// count or cache temperature.
    pub fn aggregate_batch_cached(
        &mut self,
        queries: &[StatusQuery],
        threads: usize,
    ) -> Vec<StatusAggregate> {
        let ranges = domd_runtime::chunk_ranges(queries.len(), threads.max(1));
        let capacity = self.cache.capacity();
        while self.shard_caches.len() < ranges.len() {
            self.shard_caches.push(Mutex::new(LruCache::new(capacity)));
        }
        let engine = &self.engine;
        let epoch = engine.epoch();
        let shard_caches = &self.shard_caches;
        let parts: Vec<Vec<StatusAggregate>> =
            domd_runtime::par_map(threads, &ranges, |shard_idx, range| {
                // domd-lint: allow(no-panic) — a poisoned shard lock means a worker already panicked; propagating is the only sound exit
                let mut cache = shard_caches[shard_idx].lock().expect("shard cache lock");
                queries[range.clone()]
                    .iter()
                    .map(|q| {
                        let key = SnapshotKey::new(q, epoch);
                        if let Some(&agg) = cache.get(&key) {
                            return agg;
                        }
                        let agg = engine.aggregate(q);
                        cache.insert(key, agg);
                        agg
                    })
                    .collect()
            });
        parts.into_iter().flatten().collect()
    }
}

impl<I: HeapSize> HeapSize for CachedStatusQueryEngine<I> {
    fn heap_bytes(&self) -> usize {
        self.engine.heap_bytes()
            + self.cache.heap_bytes()
            + self
                .shard_caches
                .iter()
                // domd-lint: allow(no-panic) — a poisoned shard lock means a worker already panicked; propagating is the only sound exit
                .map(|m| m.lock().expect("shard cache lock").heap_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avl::AvlIndex;
    use crate::types::project_dataset;
    use domd_data::rcc::{RccStatus, RccType};
    use domd_data::{generate, GeneratorConfig};

    fn cached_engine(capacity: usize) -> (Dataset, CachedStatusQueryEngine<AvlIndex>) {
        let ds = generate(&GeneratorConfig { n_avails: 20, target_rccs: 2000, scale: 1, seed: 11 });
        let proj = project_dataset(&ds);
        let eng = CachedStatusQueryEngine::<AvlIndex>::build(&ds, &proj, capacity);
        (ds, eng)
    }

    fn sample_queries(n: u32) -> Vec<StatusQuery> {
        let mut out = Vec::new();
        for t in 0..n {
            for status in RccStatus::FEATURE_STATUSES {
                out.push(StatusQuery {
                    rcc_type: if t % 3 == 0 { Some(RccType::Growth) } else { None },
                    swlin_prefix: if t % 2 == 0 { Some((4 + t % 5, 1)) } else { None },
                    status,
                    t_star: f64::from(t) * 2.5,
                });
            }
        }
        out
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: LruCache<u32, u32> = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(&10)); // 2 is now the LRU entry
        lru.insert(3, 30);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&2), None, "LRU victim must be 2");
        assert_eq!(lru.get(&1), Some(&10));
        assert_eq!(lru.get(&3), Some(&30));
        let s = lru.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 3);
    }

    #[test]
    fn lru_replace_updates_value_without_eviction() {
        let mut lru: LruCache<u32, u32> = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(1, 11);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&1), Some(&11));
        assert_eq!(lru.stats().evictions, 0);
    }

    #[test]
    fn lru_slot_reuse_after_eviction() {
        let mut lru: LruCache<u32, u32> = LruCache::new(3);
        for i in 0..100 {
            lru.insert(i, i);
        }
        assert_eq!(lru.len(), 3);
        assert!(lru.slots.len() <= 4, "evicted slots must be reused");
        assert_eq!(lru.get(&99), Some(&99));
        assert_eq!(lru.get(&97), Some(&97));
        assert_eq!(lru.get(&0), None);
    }

    #[test]
    fn hot_path_is_bit_identical_to_cold() {
        let (_, mut eng) = cached_engine(DEFAULT_CACHE_CAPACITY);
        let queries = sample_queries(40);
        let cold: Vec<StatusAggregate> =
            queries.iter().map(|q| eng.engine().aggregate(q)).collect();
        let first: Vec<StatusAggregate> =
            queries.iter().map(|q| eng.aggregate_cached(q)).collect();
        let second: Vec<StatusAggregate> =
            queries.iter().map(|q| eng.aggregate_cached(q)).collect();
        for ((c, f), s) in cold.iter().zip(&first).zip(&second) {
            assert_eq!(c.count, f.count);
            assert_eq!(c.sum_amount.to_bits(), f.sum_amount.to_bits());
            assert_eq!(c.sum_duration.to_bits(), f.sum_duration.to_bits());
            assert_eq!(f.sum_amount.to_bits(), s.sum_amount.to_bits());
            assert_eq!(f.sum_duration.to_bits(), s.sum_duration.to_bits());
        }
        let stats = eng.stats();
        assert_eq!(stats.hits as usize, queries.len(), "second pass must fully hit");
        assert_eq!(stats.misses as usize, queries.len(), "first pass must fully miss");
    }

    #[test]
    fn batch_cached_matches_sequential_for_every_thread_count() {
        let queries = sample_queries(40);
        let (_, mut seq_eng) = cached_engine(DEFAULT_CACHE_CAPACITY);
        let seq: Vec<StatusAggregate> =
            queries.iter().map(|q| seq_eng.aggregate_cached(q)).collect();
        for threads in [1, 2, 3, 7] {
            let (_, mut eng) = cached_engine(DEFAULT_CACHE_CAPACITY);
            // Run twice: cold batch and warm batch must both match.
            assert_eq!(eng.aggregate_batch_cached(&queries, threads), seq, "cold threads={threads}");
            assert_eq!(eng.aggregate_batch_cached(&queries, threads), seq, "warm threads={threads}");
            assert!(eng.stats().hits > 0, "warm batch must hit");
        }
    }

    #[test]
    fn epoch_bump_invalidates_snapshots() {
        use domd_data::rcc::{Rcc, RccId};
        let (ds, mut eng) = cached_engine(DEFAULT_CACHE_CAPACITY);
        let q = StatusQuery {
            rcc_type: Some(RccType::Growth),
            swlin_prefix: None,
            status: RccStatus::Created,
            t_star: 1e6,
        };
        let before = eng.aggregate_cached(&q);
        assert_eq!(eng.aggregate_cached(&q), before, "warm hit");
        let avail = ds.avails()[0].clone();
        eng.insert(
            &Rcc {
                id: RccId(9_000_002),
                avail: avail.id,
                rcc_type: RccType::Growth,
                swlin: "434-11-001".parse().unwrap(),
                created: avail.actual_start + 2,
                settled: avail.actual_start + 30,
                amount: 500.0,
            },
            &avail,
        );
        let after = eng.aggregate_cached(&q);
        assert_eq!(after.count, before.count + 1, "stale snapshot must never be served");
        assert!((after.sum_amount - before.sum_amount - 500.0).abs() < 1e-9);
        // And the fresh snapshot is itself memoized under the new epoch.
        assert_eq!(eng.aggregate_cached(&q), after);
    }

    #[test]
    fn tiny_capacity_still_correct() {
        let (_, mut eng) = cached_engine(2);
        let queries = sample_queries(20);
        let cold: Vec<StatusAggregate> =
            queries.iter().map(|q| eng.engine().aggregate(q)).collect();
        let got: Vec<StatusAggregate> =
            queries.iter().map(|q| eng.aggregate_cached(q)).collect();
        assert_eq!(cold, got, "thrashing cache must stay correct");
        assert!(eng.stats().evictions > 0, "capacity 2 must evict");
    }
}
