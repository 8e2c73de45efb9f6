//! Deploying predicted machine choices on *real host kernels*: the
//! predicted `M` configuration (schedule from M11, chunk grain from M12)
//! runs on every host CPU in the budget, and each kernel round takes as
//! many of those threads as its own work pays for, closing the loop
//! between prediction and actual parallel execution. The deployed output
//! must equal a 1-thread run's.
//!
//! Run with: `cargo run --release --example deploy_real`

use heteromap::HeteroMap;
use heteromap_graph::datasets::Dataset;
use heteromap_kernels::par::Scheduler;
use heteromap_kernels::KernelRunner;
use heteromap_model::Workload;

fn main() {
    let hm = HeteroMap::with_decision_tree();
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    println!("host budget: {host_threads} threads\n");

    for (w, d) in [
        (Workload::SsspDelta, Dataset::UsaCal),
        (Workload::TriangleCount, Dataset::Facebook),
        (Workload::Bfs, Dataset::Cage14),
    ] {
        let placement = hm.schedule(w, d);
        let spec = hm.system().spec_for(placement.accelerator());
        let limits = spec.deploy_limits();
        let runner = KernelRunner::from_mconfig(&placement.config, &limits, host_threads);
        let graph = d.surrogate_graph(15_000, 11);

        println!(
            "--- {w} on {} (surrogate: {} V, {} E) ---",
            d.abbrev(),
            graph.vertex_count(),
            graph.edge_count()
        );
        println!(
            "  predicted: {} | M11 = {} | deployed host threads: {}",
            placement.accelerator(),
            placement.config.schedule,
            runner.threads()
        );
        let deployed = runner.run(w, &graph);
        // Compare against naive single-threaded static execution.
        let naive = KernelRunner::new(1).run(w, &graph);
        // And an intentionally mismatched schedule.
        let mismatched = KernelRunner::new(runner.threads())
            .with_scheduler(Scheduler::Dynamic { grain: 1 })
            .run(w, &graph);
        println!(
            "  deployed config: {:>8.2} ms | 1-thread: {:>8.2} ms | grain-1 dynamic: {:>8.2} ms",
            deployed.elapsed.as_secs_f64() * 1e3,
            naive.elapsed.as_secs_f64() * 1e3,
            mismatched.elapsed.as_secs_f64() * 1e3
        );
        assert_eq!(
            deployed.output.checksum(),
            naive.output.checksum(),
            "deployment must not change results"
        );
        println!("  results identical across configurations ✓\n");
    }
}
