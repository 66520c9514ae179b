#![warn(missing_docs)]

//! # pf-cache — the content-addressed cross-job extraction cache
//!
//! Every pf-serve job used to re-extract its circuit from scratch, even
//! when traffic is dominated by repeated netlists.
//! This crate is the cross-job half of the "answer cheaply from local
//! state first" story (the cross-pass column ceilings of `pf-kcmatrix`
//! are the intra-run half):
//!
//! * **Exact hits.** Results are keyed by a canonical content digest
//!   ([`pf_kcmatrix::digest`]) of the submitted network's sorted cube
//!   literals (plus the result-affecting job parameters). An exact hit
//!   returns the memoized factored network outright — byte-identical to
//!   a cold run, because the stored value *is* the cold run's output.
//! * **Warm starts.** Each filled entry also records warm-start hints —
//!   the first search pass's per-column [`CeilingSnapshot`] and winning
//!   [`Rectangle`] — keyed by the content digest alone. A near hit
//!   (result entry evicted or expired, hints still resident) seeds the
//!   next cold run's `SearchPool` before its first pass. Hints never
//!   change results (the ceiling skip test is strict), only work.
//! * **Input memo.** The cheapest tier sits in front of both: a caller
//!   that names its input by a canonical key (pf-serve's
//!   `(profile, scale)`) memoises the input's content digest together
//!   with the circuit itself ([`ResolvedInput`]), so a repeated job
//!   finds its exact-hit key without building any network, and a miss
//!   rebuilds its input from the packed copy instead of regenerating it.
//! * **Bounded + sharded.** Each store is a sharded LRU (results with an
//!   optional TTL); inserts are atomic (a value is fully built before
//!   the shard lock is taken), so a worker panic mid-fill leaves no
//!   partial entry. Networks are held packed ([`PackedNetwork`]): flat,
//!   exactly sized arrays instead of one allocation per name and cube.

use parking_lot::Mutex;
use pf_kcmatrix::{network_digest, CeilingSnapshot, Digest, Rectangle};
use pf_network::{Network, PackedNetwork};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Construction options for an [`ExtractionCache`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Maximum resident result entries across all shards (≥ 1). The
    /// input memo holds at most as many inputs, and the warm-hint store
    /// (whose entries are small) four times as many.
    pub entries: usize,
    /// Optional time-to-live: result entries older than this answer as
    /// misses and are evicted. Warm hints have no TTL — they affect
    /// only search effort, never results, so they cannot go stale in
    /// any way that matters to a client.
    pub ttl: Option<Duration>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            entries: 64,
            ttl: None,
        }
    }
}

/// A memoized extraction result: the factored network plus the report
/// numbers a cache-served job must reproduce.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// The factored network exactly as the cold run left it.
    pub network: PackedNetwork,
    /// Literal count before extraction.
    pub lc_before: usize,
    /// Literal count after extraction.
    pub lc_after: usize,
    /// Extractions the cold run applied.
    pub extractions: usize,
    /// Total rectangle value of the cold run.
    pub total_value: i64,
}

/// Warm-start hints captured after a cold run's *first* search pass —
/// the only pass whose ceilings describe the initial (pre-extraction)
/// matrix, which is the matrix an identical future job starts from.
#[derive(Clone, Debug)]
pub struct WarmStart {
    /// Per-column ceilings recorded over the initial matrix (`None`
    /// when the cold run searched without a pool).
    pub ceilings: Option<CeilingSnapshot>,
    /// The first pass's winning rectangle, used to seed the next run's
    /// pruning bound (re-validated against the matrix before use).
    pub best: Rectangle,
}

/// A memoised input: the circuit a caller's key names, with its
/// content digest (the warm key, and half of every exact-hit key).
#[derive(Clone, Debug)]
pub struct ResolvedInput {
    /// [`network_digest`] of the circuit.
    pub digest: Digest,
    /// The circuit.
    pub network: PackedNetwork,
}

/// A point-in-time snapshot of the cache counters. The identity the
/// service's metrics extend: `lookups == hits + misses`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Result lookups performed.
    pub lookups: u64,
    /// Lookups answered from a resident, unexpired entry.
    pub hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Result entries evicted (LRU capacity or TTL expiry).
    pub evictions: u64,
    /// Result entries inserted.
    pub insertions: u64,
    /// Warm-hint lookups that found hints (the near-hit counter).
    pub warm_hits: u64,
    /// Input-memo lookups that found the input.
    pub memo_hits: u64,
    /// Input-memo lookups that had to build the input.
    pub memo_misses: u64,
}

impl CacheStats {
    /// Whether the counters satisfy the cache balance identity.
    pub fn balanced(&self) -> bool {
        self.lookups == self.hits + self.misses
    }
}

struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
    inserted: Instant,
}

/// One shard: a capacity-bounded map with counter-based LRU eviction.
struct Shard<V> {
    map: HashMap<Digest, Entry<V>>,
    cap: usize,
}

impl<V> Shard<V> {
    /// Inserts, evicting least-recently-used entries down to capacity.
    /// Returns how many entries were evicted.
    fn insert(&mut self, key: Digest, value: Arc<V>, tick: u64) -> u64 {
        self.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
                inserted: Instant::now(),
            },
        );
        let mut evicted = 0;
        while self.map.len() > self.cap {
            let oldest = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match oldest {
                Some(k) => {
                    self.map.remove(&k);
                    evicted += 1;
                }
                None => break, // cap 0 shard can't exist; key itself stays
            }
        }
        evicted
    }
}

struct Store<V> {
    shards: Vec<Mutex<Shard<V>>>,
}

impl<V> Store<V> {
    fn new(capacity: usize) -> Self {
        // Fewer shards than entries, so the total bound is exact: a
        // capacity-1 store is a single shard holding one entry.
        let nshards = capacity.clamp(1, 8);
        let shards = (0..nshards)
            .map(|i| {
                let cap = capacity / nshards + usize::from(i < capacity % nshards);
                Mutex::new(Shard {
                    map: HashMap::new(),
                    cap,
                })
            })
            .collect();
        Store { shards }
    }

    fn shard(&self, key: &Digest) -> &Mutex<Shard<V>> {
        &self.shards[(key.0 as usize) % self.shards.len()]
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }
}

/// The bounded, sharded, content-addressed extraction cache. Shared by
/// every worker of a service (`Arc`); all operations take one shard
/// lock for O(shard) time.
pub struct ExtractionCache {
    results: Store<CachedResult>,
    warm: Store<WarmStart>,
    inputs: Store<ResolvedInput>,
    capacity: usize,
    ttl: Option<Duration>,
    tick: AtomicU64,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    warm_hits: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
}

impl ExtractionCache {
    /// Builds a cache bounded at `cfg.entries` results (clamped ≥ 1).
    pub fn new(cfg: CacheConfig) -> Self {
        let capacity = cfg.entries.max(1);
        ExtractionCache {
            results: Store::new(capacity),
            warm: Store::new(capacity.saturating_mul(4)),
            // An input is about as large as a factored result, so the
            // memo's worst case matches the result store's.
            inputs: Store::new(capacity),
            capacity,
            ttl: cfg.ttl,
            tick: AtomicU64::new(1),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
        }
    }

    /// Configured result-entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident result entries right now.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether no result entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up a memoized result. Counts a hit or a miss; a hit bumps
    /// the entry's LRU position, a TTL-expired entry is evicted and
    /// answers as a miss.
    pub fn lookup(&self, key: &Digest) -> Option<Arc<CachedResult>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.results.shard(key).lock();
        if let Some(entry) = shard.map.get_mut(key) {
            if self.ttl.is_some_and(|ttl| entry.inserted.elapsed() > ttl) {
                shard.map.remove(key);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                entry.last_used = self.next_tick();
                let value = Arc::clone(&entry.value);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(value);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts a fully built result (and, when present, its warm-start
    /// hints under the content key). Returns how many result entries
    /// the insert evicted. The value is complete before any lock is
    /// taken — there is no observable partially-written state.
    pub fn insert(
        &self,
        key: Digest,
        warm_key: Digest,
        result: CachedResult,
        warm: Option<WarmStart>,
    ) -> u64 {
        let tick = self.next_tick();
        if let Some(w) = warm {
            self.warm
                .shard(&warm_key)
                .lock()
                .insert(warm_key, Arc::new(w), tick);
        }
        let evicted = self
            .results
            .shard(&key)
            .lock()
            .insert(key, Arc::new(result), tick);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Warm-start hints for a content digest, if resident (the near-hit
    /// path; counted in `warm_hits` when found).
    pub fn warm_hints(&self, warm_key: &Digest) -> Option<Arc<WarmStart>> {
        let mut shard = self.warm.shard(warm_key).lock();
        let entry = shard.map.get_mut(warm_key)?;
        entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        let value = Arc::clone(&entry.value);
        self.warm_hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// The input memoised under `key`, or — on a miss — the one `build`
    /// returns, digested, packed and memoised. The flag is whether the
    /// memo hit. `build` runs outside every lock, and the entry is
    /// inserted only after it returns: a `build` that panics leaves no
    /// entry. Two racing misses on one key both build; the later insert
    /// replaces an identical value. The key must name the input
    /// exactly, since a hit never checks it; inputs have no TTL.
    pub fn memo_input(
        &self,
        key: Digest,
        build: impl FnOnce() -> Network,
    ) -> (Arc<ResolvedInput>, bool) {
        if let Some(entry) = self.inputs.shard(&key).lock().map.get_mut(&key) {
            entry.last_used = self.next_tick();
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(&entry.value), true);
        }
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
        let network = build();
        let input = Arc::new(ResolvedInput {
            digest: network_digest(&network),
            network: network.pack(),
        });
        let tick = self.next_tick();
        self.inputs
            .shard(&key)
            .lock()
            .insert(key, Arc::clone(&input), tick);
        (input, false)
    }

    /// Resident input-memo entries right now.
    pub fn memo_len(&self) -> usize {
        self.inputs.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.memo_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_sop::{Cube, Lit, Sop};

    fn tiny_network(tag: u32) -> Network {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let f = nw
            .add_node(
                "f",
                Sop::from_cube(Cube::from_lits([Lit::pos(a), Lit::pos(tag + 10)])),
            )
            .unwrap();
        let _ = nw.add_input(format!("x{tag}")).unwrap();
        nw.mark_output(f).unwrap();
        nw
    }

    fn result(tag: u32) -> CachedResult {
        CachedResult {
            network: tiny_network(tag).pack(),
            lc_before: 10 + tag as usize,
            lc_after: 5,
            extractions: 1,
            total_value: 5,
        }
    }

    fn key(tag: u32) -> Digest {
        Digest::of_str(&format!("key-{tag}"))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let cache = ExtractionCache::new(CacheConfig::default());
        assert!(cache.lookup(&key(1)).is_none());
        cache.insert(key(1), key(100), result(1), None);
        let got = cache.lookup(&key(1)).expect("hit");
        assert_eq!(got.lc_before, 11);
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (2, 1, 1));
        assert!(s.balanced());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_one_evicts_lru_but_serves_correctly() {
        let cache = ExtractionCache::new(CacheConfig {
            entries: 1,
            ttl: None,
        });
        cache.insert(key(1), key(100), result(1), None);
        cache.insert(key(2), key(200), result(2), None);
        assert_eq!(cache.len(), 1, "capacity bound is exact");
        assert!(cache.lookup(&key(1)).is_none(), "older entry evicted");
        assert_eq!(cache.lookup(&key(2)).unwrap().lc_before, 12);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lru_prefers_recently_used() {
        let cache = ExtractionCache::new(CacheConfig {
            entries: 2,
            ttl: None,
        });
        // Force both keys into the same shard by capacity 2 → 2 shards;
        // use keys that land together.
        let mut keys = Vec::new();
        let mut tag = 0u32;
        while keys.len() < 3 {
            let k = key(tag);
            if (k.0 as usize).is_multiple_of(2) {
                keys.push((tag, k));
            }
            tag += 1;
        }
        let (t1, k1) = keys[0];
        let (t2, k2) = keys[1];
        let (t3, k3) = keys[2];
        // Shard cap for shard 0 of a 2-entry/2-shard store is 1, so the
        // second same-shard insert evicts the least recently used.
        cache.insert(k1, key(900), result(t1), None);
        let _ = cache.lookup(&k1); // bump
        cache.insert(k2, key(901), result(t2), None); // evicts k1 anyway (cap 1)
        assert!(cache.lookup(&k2).is_some());
        cache.insert(k3, key(902), result(t3), None);
        assert!(cache.lookup(&k3).is_some());
        assert!(cache.stats().balanced());
    }

    #[test]
    fn ttl_expiry_is_a_miss_and_an_eviction() {
        let cache = ExtractionCache::new(CacheConfig {
            entries: 4,
            ttl: Some(Duration::ZERO),
        });
        cache.insert(key(1), key(100), result(1), None);
        std::thread::sleep(Duration::from_millis(2));
        assert!(cache.lookup(&key(1)).is_none());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn warm_hints_survive_result_eviction() {
        let cache = ExtractionCache::new(CacheConfig {
            entries: 1,
            ttl: None,
        });
        let hints = WarmStart {
            ceilings: None,
            best: Rectangle {
                rows: vec![0],
                cols: vec![0, 1],
                value: 7,
            },
        };
        cache.insert(key(1), key(100), result(1), Some(hints));
        cache.insert(key(2), key(200), result(2), None); // evicts result 1
        assert!(cache.lookup(&key(1)).is_none());
        let w = cache.warm_hints(&key(100)).expect("hints outlive result");
        assert_eq!(w.best.value, 7);
        assert_eq!(cache.stats().warm_hits, 1);
        assert!(cache.warm_hints(&key(999)).is_none());
    }

    #[test]
    fn memo_builds_once_per_key_and_hits_after() {
        let cache = ExtractionCache::new(CacheConfig::default());
        let mut builds = 0;
        let (first, hit) = cache.memo_input(key(1), || {
            builds += 1;
            tiny_network(1)
        });
        assert!(!hit);
        assert_eq!(first.digest, network_digest(&tiny_network(1)));
        let (again, hit) = cache.memo_input(key(1), || {
            builds += 1;
            tiny_network(1)
        });
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(builds, 1);
        assert_eq!(
            format!("{:?}", again.network.unpack()),
            format!("{:?}", tiny_network(1))
        );
        let s = cache.stats();
        assert_eq!((s.memo_hits, s.memo_misses), (1, 1));
        assert_eq!(s.lookups, 0, "the memo is not a result lookup");
        assert_eq!(cache.memo_len(), 1);
    }

    #[test]
    fn memo_is_bounded_at_the_result_capacity() {
        let cache = ExtractionCache::new(CacheConfig {
            entries: 2,
            ttl: None,
        });
        for tag in 0..20 {
            cache.memo_input(key(tag), || tiny_network(tag));
        }
        // Each of the memo's 2 one-entry shards keeps its latest key.
        assert!((1..=2).contains(&cache.memo_len()), "{}", cache.memo_len());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn a_panicking_build_leaves_no_memo_entry() {
        let cache = ExtractionCache::new(CacheConfig::default());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.memo_input(key(1), || panic!("build failed"))
        }));
        assert!(unwound.is_err());
        assert_eq!(cache.memo_len(), 0);
        let (_, hit) = cache.memo_input(key(1), || tiny_network(1));
        assert!(!hit, "the next lookup builds afresh");
        assert_eq!(cache.stats().memo_misses, 2);
    }

    #[test]
    fn concurrent_access_keeps_the_identity() {
        let cache = Arc::new(ExtractionCache::new(CacheConfig {
            entries: 8,
            ttl: None,
        }));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..200u32 {
                        let tag = (t * 7 + i) % 24;
                        if cache.lookup(&key(tag)).is_none() {
                            cache.insert(key(tag), key(1000 + tag), result(tag), None);
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert!(s.balanced());
        assert!(cache.len() <= 8);
        assert!(s.hits > 0 && s.misses > 0);
    }
}
