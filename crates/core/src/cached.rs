//! Cache-aware extraction entry points.
//!
//! These wrap the drivers with a [`pf_cache::ExtractionCache`]: an exact
//! hit replays the memoized factored network (byte-identical to the cold
//! run — the stored value *is* the cold run's output), a near hit
//! warm-starts the engine from the previous run's first-pass hints, and
//! completed cold runs are admitted for the next submission. Callers own
//! the key: it must cover everything that affects the result (algorithm,
//! network content, target restriction, any non-default extraction
//! options) — [`pf_kcmatrix::network_digest`] plus
//! [`pf_kcmatrix::Digest::combine`] is the intended toolkit.
//!
//! Both entry points take the input through a loader, `load`, that
//! writes it into `nw` only when a run is needed (no handle, or an exact
//! miss): a caller that knows its input's digest without holding the
//! network (pf-serve's input memo) builds none for an exact hit. A
//! caller that already holds the input in `nw` passes `|_| {}`.

use crate::report::{ExtractReport, PhaseTiming};
use crate::seq::{extract_kernels_pooled, extract_kernels_warm, ExtractConfig, SEQ_SETUP};
use crate::trace::Tracer;
use pf_cache::{CachedResult, ExtractionCache, WarmStart};
use pf_kcmatrix::{Digest, SearchPool};
use pf_network::{Network, SignalId};
use std::time::Instant;

/// A borrowed cache plus this job's keys and admission decision.
pub struct CacheHandle<'a> {
    /// The shared cache.
    pub cache: &'a ExtractionCache,
    /// Exact-hit key: must cover everything result-affecting (the
    /// algorithm, the network content digest, structural options).
    pub key: Digest,
    /// Warm-start key: the network content digest alone, so hints flow
    /// between configurations that share the same initial matrix.
    pub warm_key: Digest,
    /// Whether a completed result may be admitted. Callers clear this
    /// for quarantined (previously faulting) jobs so a poisoned
    /// fingerprint can never serve future submissions from the cache.
    pub admit: bool,
}

/// What the cache did for one job — the worker folds these into the
/// service metrics (`cache_lookups == cache_hits + cache_misses`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheEvents {
    /// Exact-key lookups performed (0 or 1 per job).
    pub lookups: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real run.
    pub misses: u64,
    /// Entries evicted by this job's insert.
    pub evicted: u64,
    /// Whether warm-start hints were found and seeded (0 or 1).
    pub warm: u64,
    /// Whether this job's result was admitted (0 or 1).
    pub inserted: u64,
}

impl CacheEvents {
    fn looked_up() -> Self {
        CacheEvents {
            lookups: 1,
            ..Default::default()
        }
    }
}

/// Serves a hit: swaps in the memoized network and builds a well-formed
/// report — non-empty `phases` (one `cache` phase absorbing the whole
/// elapsed time, so the phases-sum-to-elapsed invariant holds) and the
/// cold run's quality numbers.
fn replay(nw: &mut Network, trace: &Tracer, hit: &CachedResult, start: Instant) -> ExtractReport {
    let mut lane = trace.lane("cache");
    let span = lane.start("cache");
    *nw = hit.network.unpack();
    lane.end_with(span, || {
        vec![
            ("lc_before", hit.lc_before as i64),
            ("lc_after", hit.lc_after as i64),
            ("extractions", hit.extractions as i64),
        ]
    });
    let elapsed = start.elapsed();
    ExtractReport {
        lc_before: hit.lc_before,
        lc_after: hit.lc_after,
        extractions: hit.extractions,
        total_value: hit.total_value,
        elapsed,
        phases: vec![PhaseTiming::new("cache", elapsed)],
        ..Default::default()
    }
}

/// Memoizes a completed run, unless the handle forbids admission.
fn admit(
    h: &CacheHandle<'_>,
    nw: &Network,
    report: &ExtractReport,
    warm: Option<WarmStart>,
    events: &mut CacheEvents,
) {
    if !h.admit || !report.completed() {
        return;
    }
    events.inserted = 1;
    events.evicted = h.cache.insert(
        h.key,
        h.warm_key,
        CachedResult {
            network: nw.pack(),
            lc_before: report.lc_before,
            lc_after: report.lc_after,
            extractions: report.extractions,
            total_value: report.total_value,
        },
        warm,
    );
}

/// [`extract_kernels_pooled`] behind a cache: exact hits replay, misses
/// run cold — warm-started when hints for this content are resident —
/// and completed, admissible results are memoized together with their
/// first-pass warm hints. `load` writes the input into `nw` before a
/// run; an exact hit never calls it and replaces `nw` wholesale.
pub fn extract_kernels_cached(
    nw: &mut Network,
    load: impl FnOnce(&mut Network),
    targets: &[SignalId],
    cfg: &ExtractConfig,
    pool: &mut Option<SearchPool>,
    handle: Option<&CacheHandle<'_>>,
) -> (ExtractReport, CacheEvents) {
    let Some(h) = handle else {
        load(nw);
        let report = extract_kernels_pooled(nw, targets, cfg, pool);
        return (report, CacheEvents::default());
    };
    let start = Instant::now();
    let mut events = CacheEvents::looked_up();
    if let Some(hit) = h.cache.lookup(&h.key) {
        events.hits = 1;
        return (replay(nw, &cfg.trace, &hit, start), events);
    }
    events.misses = 1;
    load(nw);
    let warm = h.cache.warm_hints(&h.warm_key);
    events.warm = warm.is_some() as u64;
    let mut capture = None;
    let report = extract_kernels_warm(
        nw,
        targets,
        cfg,
        pool,
        warm.as_deref(),
        Some(&mut capture),
        SEQ_SETUP,
    );
    admit(h, nw, &report, capture, &mut events);
    (report, events)
}

/// Cache wrapper for the parallel drivers (any `run` closure producing
/// an [`ExtractReport`]): exact hits replay, misses run the driver and
/// admit completed results. No warm seeding — the parallel drivers
/// manage their own engines — but their memoized results still serve
/// future exact hits. `load` is called as in [`extract_kernels_cached`].
pub fn run_cached(
    nw: &mut Network,
    load: impl FnOnce(&mut Network),
    trace: &Tracer,
    handle: Option<&CacheHandle<'_>>,
    run: impl FnOnce(&mut Network) -> ExtractReport,
) -> (ExtractReport, CacheEvents) {
    let Some(h) = handle else {
        load(nw);
        return (run(nw), CacheEvents::default());
    };
    let start = Instant::now();
    let mut events = CacheEvents::looked_up();
    if let Some(hit) = h.cache.lookup(&h.key) {
        events.hits = 1;
        return (replay(nw, trace, &hit, start), events);
    }
    events.misses = 1;
    load(nw);
    let report = run(nw);
    admit(h, nw, &report, None, &mut events);
    (report, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_cache::CacheConfig;
    use pf_kcmatrix::network_digest;
    use pf_network::example::example_1_1;

    fn dump(n: &Network) -> Vec<String> {
        let mut v: Vec<String> = n
            .node_ids()
            .map(|id| format!("{}={:?}", n.name(id), n.func(id)))
            .collect();
        v.sort();
        v
    }

    fn handle<'a>(cache: &'a ExtractionCache, nw: &Network, admit: bool) -> CacheHandle<'a> {
        let content = network_digest(nw);
        CacheHandle {
            cache,
            key: Digest::of_str("seq").combine(content),
            warm_key: content,
            admit,
        }
    }

    #[test]
    fn exact_hit_replays_byte_identically_with_cache_phase() {
        let cache = ExtractionCache::new(CacheConfig::default());
        let (mut cold, _) = example_1_1();
        let h = handle(&cache, &cold, true);
        let cfg = ExtractConfig::default();
        let mut pool = None;
        let (cold_report, ev) =
            extract_kernels_cached(&mut cold, |_| {}, &[], &cfg, &mut pool, Some(&h));
        assert_eq!((ev.hits, ev.misses, ev.inserted), (0, 1, 1));

        let (mut warm, _) = example_1_1();
        let h2 = handle(&cache, &warm, true);
        let (hit_report, ev2) =
            extract_kernels_cached(&mut warm, |_| {}, &[], &cfg, &mut pool, Some(&h2));
        assert_eq!((ev2.hits, ev2.misses, ev2.inserted), (1, 0, 0));
        assert_eq!(dump(&warm), dump(&cold), "replay is byte-identical");
        assert_eq!(hit_report.lc_before, cold_report.lc_before);
        assert_eq!(hit_report.lc_after, cold_report.lc_after);
        assert_eq!(hit_report.extractions, cold_report.extractions);
        assert_eq!(hit_report.total_value, cold_report.total_value);
        // Satellite 2: a cache-served job still emits a well-formed
        // report — a non-empty phase list summing to elapsed.
        assert_eq!(hit_report.phases.len(), 1);
        assert_eq!(hit_report.phases[0].name, "cache");
        assert_eq!(hit_report.phases_total(), hit_report.elapsed);
    }

    #[test]
    fn warm_start_after_eviction_matches_cold_run() {
        // Capacity 1: filling a second entry evicts the first's result
        // but its warm hints survive — the resubmission takes the
        // warm-started cold path and must still match a plain cold run.
        let cache = ExtractionCache::new(CacheConfig {
            entries: 1,
            ttl: None,
        });
        let mut cfg = ExtractConfig::default();
        cfg.search.par_threads = 2;
        let mut pool = None;

        let (mut first, _) = example_1_1();
        let h = handle(&cache, &first, true);
        let warm_key = h.warm_key;
        extract_kernels_cached(&mut first, |_| {}, &[], &cfg, &mut pool, Some(&h));

        // Evict the result entry with an unrelated insert.
        cache.insert(
            Digest::of_str("other"),
            Digest::of_str("other-warm"),
            CachedResult {
                network: Network::new().pack(),
                lc_before: 0,
                lc_after: 0,
                extractions: 0,
                total_value: 0,
            },
            None,
        );
        assert!(cache.warm_hints(&warm_key).is_some(), "hints survive");

        let (mut resub, _) = example_1_1();
        let h2 = handle(&cache, &resub, true);
        let (report, ev) =
            extract_kernels_cached(&mut resub, |_| {}, &[], &cfg, &mut pool, Some(&h2));
        assert_eq!((ev.hits, ev.misses, ev.warm), (0, 1, 1));
        assert_eq!(dump(&resub), dump(&first), "warm run is byte-identical");
        assert_eq!(report.lc_after, 21);
        assert!(!report.phases.is_empty());
    }

    #[test]
    fn non_admissible_results_are_never_inserted() {
        let cache = ExtractionCache::new(CacheConfig::default());
        let (mut nw, _) = example_1_1();
        let h = handle(&cache, &nw, false);
        let cfg = ExtractConfig::default();
        let mut pool = None;
        let (_, ev) = extract_kernels_cached(&mut nw, |_| {}, &[], &cfg, &mut pool, Some(&h));
        assert_eq!(ev.inserted, 0);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn a_hit_loads_no_input() {
        let cache = ExtractionCache::new(CacheConfig::default());
        let (input, _) = example_1_1();
        let h = handle(&cache, &input, true);
        let cfg = ExtractConfig::default();
        let mut pool = None;
        let load = |nw: &mut Network| *nw = input.clone();

        let mut cold = Network::new();
        let (_, ev) = extract_kernels_cached(&mut cold, load, &[], &cfg, &mut pool, Some(&h));
        assert_eq!((ev.misses, ev.inserted), (1, 1), "a miss loads and runs");
        assert_eq!(cold.literal_count(), 21);

        let mut seq_hit = Network::new();
        let (_, ev) = extract_kernels_cached(
            &mut seq_hit,
            |_| panic!("a hit loaded its input"),
            &[],
            &cfg,
            &mut pool,
            Some(&h),
        );
        assert_eq!(ev.hits, 1);
        assert_eq!(dump(&seq_hit), dump(&cold));

        let mut driver_hit = Network::new();
        let (report, ev) = run_cached(
            &mut driver_hit,
            |_| panic!("a hit loaded its input"),
            &cfg.trace,
            Some(&h),
            |_| panic!("a hit ran its driver"),
        );
        assert_eq!(ev.hits, 1);
        assert_eq!(report.phases[0].name, "cache");
        assert_eq!(dump(&driver_hit), dump(&cold));
    }

    #[test]
    fn run_cached_serves_parallel_drivers() {
        use crate::replicated::{replicated_extract, ReplicatedConfig};
        let cache = ExtractionCache::new(CacheConfig::default());
        let tracer = Tracer::disarmed();
        let rcfg = ReplicatedConfig::default();

        let (mut cold, _) = example_1_1();
        let content = network_digest(&cold);
        let key = Digest::of_str("replicated")
            .combine(content)
            .combine(Digest::of_bytes(&(rcfg.procs as u64).to_le_bytes()));
        let h = CacheHandle {
            cache: &cache,
            key,
            warm_key: content,
            admit: true,
        };
        let (cold_report, ev) = run_cached(
            &mut cold,
            |_| {},
            &tracer,
            Some(&h),
            |nw| replicated_extract(nw, &rcfg),
        );
        assert_eq!(ev.misses, 1);
        assert_eq!(ev.inserted, 1);

        let (mut again, _) = example_1_1();
        let (hit_report, ev2) = run_cached(
            &mut again,
            |_| {},
            &tracer,
            Some(&h),
            |nw| replicated_extract(nw, &rcfg),
        );
        assert_eq!(ev2.hits, 1);
        assert_eq!(dump(&again), dump(&cold));
        assert_eq!(hit_report.lc_after, cold_report.lc_after);
        assert_eq!(hit_report.phases[0].name, "cache");
    }
}
