//! Criterion benchmarks for the rectangle-search core: the reference
//! `Vec<RowIdx>` engine vs. the search on the scaled dalu matrix, and
//! the search inline and at 1/2/4/8 workers on the full-scale matrix.
//!
//! These back the numbers in `BENCH_rect.json` (refresh that file with
//! `parafactor bench-json`); run them directly with
//! `cargo bench --bench rect_search`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pf_kcmatrix::{
    reference, CeilingUpdate, CostModel, CubeRegistry, KcMatrix, LabelGen, SearchConfig, SearchPool,
};
use pf_sop::kernel::KernelConfig;
use pf_workloads::{generate, profile_by_name, scale_profile};
use std::hint::black_box;

/// KC matrix (and cube weights) of the dalu workload at `scale`.
fn dalu_matrix(scale: f64) -> (KcMatrix, Vec<u32>) {
    let nw = generate(&scale_profile(
        &profile_by_name("dalu").expect("dalu profile exists"),
        scale,
    ));
    let reg = CubeRegistry::new();
    let mut m = KcMatrix::new();
    let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
    let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
    for n in nw.node_ids() {
        m.add_node_kernels(
            n,
            nw.func(n),
            &KernelConfig::default(),
            &reg,
            &mut rl,
            &mut cl,
        );
    }
    let w = reg.weights_snapshot();
    (m, w)
}

/// One full search per iteration on a pool warmed for `cfg`, ceilings
/// off so every pass does the same work.
fn bench_find(b: &mut criterion::Bencher<'_>, m: &KcMatrix, w: &[u32], cfg: &SearchConfig) {
    let value_of = |id: u32| w[id as usize];
    let model = CostModel::area(&value_of);
    let mut pool = SearchPool::new();
    pool.warm(cfg.par_threads);
    b.iter(|| {
        let (best, _) = pool.find(m, &model, cfg, None, CeilingUpdate::Off);
        black_box(best)
    })
}

/// Vec reference engine vs. the search, one full search each.
fn vec_vs_bitset(c: &mut Criterion) {
    let (m, w) = dalu_matrix(0.35);
    let cfg = SearchConfig::default();
    let mut g = c.benchmark_group("rect_search");
    g.sample_size(15);
    g.bench_function("vec", |b| {
        b.iter(|| {
            let (best, _) = reference::best_rectangle(&m, &|id| w[id as usize], &cfg);
            black_box(best)
        })
    });
    g.bench_function("bitset", |b| bench_find(b, &m, &w, &cfg));
    g.finish();
}

/// The search at increasing worker counts on the full-scale matrix
/// (`seq` is the default, inline).
fn parallel_threads(c: &mut Criterion) {
    let (m, w) = dalu_matrix(1.0);
    let mut g = c.benchmark_group("par_search");
    g.sample_size(10);
    g.bench_function("seq", |b| bench_find(b, &m, &w, &SearchConfig::default()));
    for threads in [1usize, 2, 4, 8] {
        let cfg = SearchConfig {
            par_threads: threads,
            ..SearchConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(threads), &cfg, |b, cfg| {
            bench_find(b, &m, &w, cfg)
        });
    }
    g.finish();
}

criterion_group!(benches, vec_vs_bitset, parallel_threads);
criterion_main!(benches);
