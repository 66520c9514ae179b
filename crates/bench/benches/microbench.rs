//! Criterion micro-benchmarks for the engine's hot paths: kernel
//! enumeration, algebraic division, KC-matrix construction, rectangle
//! search, partitioning, simulation, and one end-to-end extraction per
//! algorithm on a small circuit.
//!
//! These complement the table binaries (which regenerate the paper's
//! tables); use them to catch regressions in the primitives.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pf_core::{
    extract_kernels, independent_extract, lshaped_extract, ExtractConfig, FaultPlan, FaultRule,
    IndependentConfig, LShapedConfig, RunCtl,
};
use pf_kcmatrix::{CeilingUpdate, CubeRegistry, KcMatrix, LabelGen, SearchConfig, SearchPool};
use pf_network::sim::simulate;
use pf_partition::{partition_network, PartitionConfig};
use pf_sop::kernel::{kernels, KernelConfig};
use pf_sop::{divide, Sop};
use pf_workloads::{generate, profile_by_name, scale_profile, CircuitProfile};
use std::hint::black_box;

fn bench_circuit(scale: f64) -> pf_network::Network {
    generate(&scale_profile(&profile_by_name("dalu").unwrap(), scale))
}

/// A single busy node function for the algebra benches.
fn busy_sop() -> Sop {
    let nw = generate(&CircuitProfile::small("bench", 42));
    nw.node_ids()
        .map(|n| nw.func(n).clone())
        .max_by_key(Sop::literal_count)
        .expect("generated nodes")
}

fn algebra(c: &mut Criterion) {
    let f = busy_sop();
    c.bench_function("kernels/busy_node", |b| b.iter(|| kernels(black_box(&f))));
    let ks = kernels(&f);
    if let Some(k) = ks.first() {
        c.bench_function("divide/by_kernel", |b| {
            b.iter(|| divide(black_box(&f), black_box(&k.kernel)))
        });
    }
    c.bench_function("sop/canonicalize", |b| {
        b.iter(|| Sop::from_cubes(black_box(f.cubes()).iter().cloned()))
    });
}

fn matrix(c: &mut Criterion) {
    let nw = bench_circuit(0.08);
    c.bench_function("kcmatrix/build", |b| {
        b.iter(|| {
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
            black_box(m.num_entries())
        })
    });

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
    let value_of = |id: u32| w[id as usize];
    let mut pool = SearchPool::new();
    c.bench_function("rectangle/best_full", |b| {
        b.iter(|| {
            pool.find(
                &m,
                &value_of,
                &SearchConfig::default(),
                None,
                CeilingUpdate::Off,
            )
        })
    });
}

fn partition(c: &mut Criterion) {
    let nw = bench_circuit(0.15);
    let mut g = c.benchmark_group("partition");
    for k in [2usize, 4, 6] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| partition_network(&nw, k, &PartitionConfig::default()))
        });
    }
    g.finish();
}

fn simulation(c: &mut Criterion) {
    let nw = bench_circuit(0.15);
    let inputs: Vec<u64> = (0..nw.input_ids().count() as u64)
        .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
        .collect();
    c.bench_function("simulate/64vectors", |b| {
        b.iter(|| simulate(black_box(&nw), black_box(&inputs)))
    });
}

fn algebra_extensions(c: &mut Criterion) {
    let f = busy_sop();
    c.bench_function("factor/quick_factor", |b| {
        b.iter(|| pf_sop::quick_factor(black_box(&f)))
    });
    // A mixed-phase SOP for simplify.
    let mixed = {
        use pf_sop::{Cube, Lit};
        Sop::from_cubes((0..12u32).map(|i| {
            Cube::from_lits([
                Lit::new(pf_sop::Var::new(i % 4), i % 2 == 0),
                Lit::pos(4 + i % 3),
                Lit::pos(8 + i % 2),
            ])
        }))
    };
    c.bench_function("minimize/simplify_sop", |b| {
        b.iter(|| pf_sop::simplify_sop(black_box(&mixed)))
    });

    let nw = bench_circuit(0.08);
    c.bench_function("cx/best_common_cube", |b| {
        b.iter(|| {
            let mut m = pf_kcmatrix::CubeLitMatrix::new();
            for n in nw.node_ids() {
                m.add_node(n, nw.func(n));
            }
            black_box(m.best_common_cube(1 << 20))
        })
    });

    let blif = pf_network::blif::write_blif(&nw, "bench");
    c.bench_function("blif/parse", |b| {
        b.iter(|| pf_network::blif::read_blif(black_box(&blif)).unwrap())
    });
}

fn fault_plane(c: &mut Criterion) {
    // The robustness contract for fault injection: a checkpoint with no
    // plan armed must cost one inlined `Option` test — indistinguishable
    // from the pre-fault-plane drivers. The armed variants price the
    // slow path for rules that miss vs. match the site prefix.
    let mut g = c.benchmark_group("fault_plane");
    let disabled = RunCtl::new();
    g.bench_function("checkpoint_disabled", |b| {
        b.iter(|| black_box(&disabled).fault_point(black_box("seq:cover")))
    });
    let miss = RunCtl::new().with_faults(std::sync::Arc::new(FaultPlan::new(1).with_rule(
        FaultRule::latency_at("some:other:site", std::time::Duration::ZERO),
    )));
    g.bench_function("checkpoint_armed_miss", |b| {
        b.iter(|| black_box(&miss).fault_point(black_box("seq:cover")))
    });
    let hit = RunCtl::new().with_faults(std::sync::Arc::new(FaultPlan::new(1).with_rule(
        FaultRule::latency_at("seq:cover", std::time::Duration::ZERO),
    )));
    g.bench_function("checkpoint_armed_zero_latency", |b| {
        b.iter(|| black_box(&hit).fault_point(black_box("seq:cover")))
    });
    g.finish();
}

fn trace_plane(c: &mut Criterion) {
    // The observability contract, mirroring `fault_plane`: a span
    // start/end pair on a *disarmed* tracer must cost one inlined
    // `Option` test each — cheap enough to leave compiled into every
    // driver. The armed variants price the real recording path.
    let mut g = c.benchmark_group("trace_plane");
    let disarmed = pf_core::Tracer::disarmed();
    let mut lane = disarmed.lane("bench");
    g.bench_function("span_disarmed", |b| {
        b.iter(|| {
            let s = black_box(&lane).start(black_box("cover"));
            lane.end_with(s, || vec![("value", 1)]);
        })
    });
    g.bench_function("event_disarmed", |b| {
        b.iter(|| lane.event(black_box("search"), || vec![("visited", 100)]))
    });
    let armed = pf_core::Tracer::with_capacity(1024);
    let mut armed_lane = armed.lane("bench");
    g.bench_function("span_armed", |b| {
        b.iter(|| {
            let s = black_box(&armed_lane).start(black_box("cover"));
            armed_lane.end_with(s, || vec![("value", 1)]);
        })
    });
    g.finish();
    drop(armed_lane);
    let _ = armed.take(); // keep the armed trace from accumulating
}

fn end_to_end(c: &mut Criterion) {
    let nw = bench_circuit(0.08);
    let mut g = c.benchmark_group("extract");
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| {
            let mut copy = nw.clone();
            extract_kernels(&mut copy, &[], &ExtractConfig::default())
        })
    });
    g.bench_function("independent_p2", |b| {
        b.iter(|| {
            let mut copy = nw.clone();
            independent_extract(
                &mut copy,
                &IndependentConfig {
                    procs: 2,
                    ..IndependentConfig::default()
                },
            )
        })
    });
    g.bench_function("lshaped_seq_p2", |b| {
        b.iter(|| {
            let mut copy = nw.clone();
            lshaped_extract(
                &mut copy,
                &LShapedConfig {
                    procs: 2,
                    sequential: true,
                    ..LShapedConfig::default()
                },
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    algebra,
    algebra_extensions,
    matrix,
    partition,
    simulation,
    fault_plane,
    trace_plane,
    end_to_end
);
criterion_main!(benches);
