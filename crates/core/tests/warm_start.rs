//! A warm start through a search carried over from an earlier job must
//! search this job's matrix only. The resident service keeps one search
//! per worker thread across jobs; a job whose exact cache entry was
//! evicted while its warm hints survived runs warm-started on that
//! carried-over search, and its result must be the cold run's, byte for
//! byte.

use pf_cache::{CacheConfig, ExtractionCache};
use pf_core::{extract_kernels_cached, CacheHandle, ExtractConfig};
use pf_kcmatrix::{network_digest, Digest};
use pf_network::example::example_1_1;

#[test]
fn warm_start_on_an_adopted_search_matches_the_cold_run() {
    let profile = pf_workloads::profile_by_name("dalu").expect("dalu profile exists");
    let base = pf_workloads::generate(&pf_workloads::scale_profile(&profile, 0.3));
    let content = network_digest(&base);
    for par_threads in [0usize, 1, 2] {
        let mut cfg = ExtractConfig::default();
        cfg.search.par_threads = par_threads;
        let cache = ExtractionCache::new(CacheConfig::default());
        let handle = |key: &str| CacheHandle {
            cache: &cache,
            key: Digest::of_str(key).combine(content),
            warm_key: content,
            admit: true,
        };
        let mut slot = None;

        // Cold: admits the result and the first-pass warm hints.
        let mut cold = base.clone();
        let (_, ev) =
            extract_kernels_cached(&mut cold, |_| {}, &[], &cfg, &mut slot, Some(&handle("a")));
        assert_eq!(
            (ev.misses, ev.inserted),
            (1, 1),
            "par_threads {par_threads}"
        );

        // Another job on the same slot leaves its own matrix state behind.
        let (mut other, _) = example_1_1();
        extract_kernels_cached(&mut other, |_| {}, &[], &cfg, &mut slot, None);

        // Same content under a second exact key: a miss that finds the
        // warm hints and runs warm-started on the carried-over search.
        let mut warm = base.clone();
        let (_, ev) =
            extract_kernels_cached(&mut warm, |_| {}, &[], &cfg, &mut slot, Some(&handle("b")));
        assert_eq!((ev.misses, ev.warm), (1, 1), "par_threads {par_threads}");
        assert_eq!(
            network_digest(&warm),
            network_digest(&cold),
            "par_threads {par_threads}: warm run differs from the cold run"
        );
    }
}
