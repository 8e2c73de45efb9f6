//! Criterion bench: the nine real graph kernels on dataset surrogates, at
//! one and several threads on the persistent pool — the host-execution
//! counterpart of the paper's workload suite.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use heteromap_graph::datasets::Dataset;
use heteromap_kernels::KernelRunner;
use heteromap_model::Workload;

fn bench_kernels(c: &mut Criterion) {
    // Moderate surrogates keep bench wall-time sane while exercising the
    // real parallel code paths.
    let road = Dataset::UsaCal.surrogate_graph(4_000, 7);
    let social = Dataset::LiveJournal.surrogate_graph(4_000, 7);

    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    for w in Workload::all() {
        for (graph, tag) in [(&road, "road"), (&social, "social")] {
            for threads in [1usize, 4] {
                let runner = KernelRunner::new(threads).with_pagerank_iterations(5);
                group.bench_with_input(
                    BenchmarkId::new(format!("{w}/{tag}"), threads),
                    &threads,
                    |b, _| b.iter(|| black_box(runner.run(w, graph).output.checksum())),
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
