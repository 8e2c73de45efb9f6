//! Criterion bench: single-evaluation latency of the analytical cost model
//! and of a full autotuning pass — the quantities that bound offline
//! database-generation throughput (§V "training takes several hours" on the
//! paper's setup).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_graph::datasets::Dataset;
use heteromap_model::{MConfig, Workload};
use heteromap_tune::CoarseRefine;

fn bench_cost_model(c: &mut Criterion) {
    let sys = MultiAcceleratorSystem::primary();
    let ctx = WorkloadContext::for_workload(Workload::SsspDelta, Dataset::LiveJournal.stats());
    let gpu = MConfig::gpu_default();
    let mc = MConfig::multicore_default();

    c.bench_function("cost_model/deploy_gpu", |b| {
        b.iter(|| black_box(sys.deploy(black_box(&ctx), black_box(&gpu)).time_ms))
    });
    c.bench_function("cost_model/deploy_multicore", |b| {
        b.iter(|| black_box(sys.deploy(black_box(&ctx), black_box(&mc)).time_ms))
    });

    let mut group = c.benchmark_group("autotune");
    group.sample_size(10);
    group.bench_function("fast_pass", |b| {
        b.iter(|| {
            black_box(
                CoarseRefine::FAST
                    .tune(|cfg| sys.deploy(&ctx, cfg).time_ms)
                    .cost,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cost_model);
criterion_main!(benches);
