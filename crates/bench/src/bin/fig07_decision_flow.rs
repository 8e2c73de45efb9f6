//! Regenerates **Fig. 7: Decision Tree Heuristic Model flow** for SSSP-BF
//! and SSSP-Delta with the USA-Cal input: the discretized variables, the
//! nine predicted M choices, and selected-vs-optimal completion time.

use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_graph::datasets::{Dataset, LiteratureMaxima};
use heteromap_model::{Grid, IVector, Workload};
use heteromap_predict::{DecisionTree, Predictor};
use heteromap_tune::CoarseRefine;

fn main() {
    println!("Fig. 7: Decision-tree flow for SSSP-BF / SSSP-Delta on USA-Cal\n");
    let sys = MultiAcceleratorSystem::primary();
    let tree = DecisionTree::paper();
    let i = IVector::from_stats(
        &Dataset::UsaCal.stats(),
        &LiteratureMaxima::paper(),
        Grid::PAPER,
    );
    println!(
        "input discretization: {i}  Avg.Deg={:.2}  Avg.Deg.Dia={:.2}\n",
        i.avg_deg(),
        i.avg_deg_dia()
    );

    for w in [Workload::SsspBf, Workload::SsspDelta] {
        let b = w.b_vector();
        let cfg = tree.predict(&b, &i);
        let ctx = WorkloadContext::for_workload(w, Dataset::UsaCal.stats());
        let selected = sys.deploy(&ctx, &cfg);
        let optimal = CoarseRefine::EXHAUSTIVE.tune(|c| sys.deploy(&ctx, c).time_ms);
        println!("--- {w} ---");
        println!("  B profile: {b}");
        println!("  M1 selects: {}", cfg.accelerator);
        println!(
            "  M choices: M2(cores)={:.1} M3(thr/core)={:.1} M4(blocktime)={:.1} \
             M5-7(place)={:.1} M8(affinity)={:.1}",
            cfg.cores,
            cfg.threads_per_core,
            cfg.blocktime,
            cfg.placement(),
            cfg.affinity
        );
        println!(
            "             M11(sched)={} M19(global)={:.1} M20(local)={:.1}",
            cfg.schedule, cfg.global_threads, cfg.local_threads
        );
        println!(
            "  selected: {:.2} ms on {} | optimal: {:.2} ms on {} | gap {:.1}%",
            selected.time_ms,
            cfg.accelerator,
            optimal.cost,
            optimal.config.accelerator,
            (selected.time_ms / optimal.cost - 1.0) * 100.0
        );
        println!();
    }
    println!(
        "Paper shape: SSSP-BF maps to the GPU with some global threading and\n\
         maximum local threading (M19=0.1, M20=1); SSSP-Delta maps to the\n\
         multicore with ~7 cores (M2=0.1), max threads/core, loose placement.\n\
         Deviation: the paper reports ~15% selected-vs-optimal gaps, implying\n\
         its Phi saturates beyond ~7 cores on this input; our simulator keeps\n\
         rewarding cores, so the M2=I1 equation under-threads and the gap is\n\
         larger (see EXPERIMENTS.md). The automated learners close this gap,\n\
         which is exactly the paper's argument for automating the model."
    );
}
