//! Regenerates **Fig. 14: Scheduler Comparisons with the GTX-970** — the
//! stronger-GPU setup of §VII-D. The machine-learning model is re-learned
//! for the architectural change, as in the paper.
//!
//! Usage: `fig14_sched_970 [train_samples]` (default 400).

use heteromap_accel::{AcceleratorSpec, MultiAcceleratorSystem};
use heteromap_bench::harness::SchedulerComparison;
use heteromap_bench::TextTable;
use heteromap_model::{Accelerator, Workload};
use heteromap_predict::{Evaluator, Objective};

fn main() {
    let args = heteromap_bench::apply_obs_flags(std::env::args().skip(1));
    let samples: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(400);
    let system = MultiAcceleratorSystem::new(
        AcceleratorSpec::gtx_970(),
        AcceleratorSpec::xeon_phi_7120p(),
    );
    heteromap_obs::diag("bench.progress", || {
        format!("re-learning Deep.128 for the GTX-970 pair ({samples} samples)...")
    });
    let cmp = SchedulerComparison::run(&system, Objective::Performance, samples, 42);

    println!("Fig. 14: completion time normalized to the GTX-970 GPU run");
    println!("(columns: Phi-only / HeteroMap / ideal; higher is worse)\n");
    // The GTX-750Ti setup's tuned baselines; both lists are workload-major.
    let weak = Evaluator::new(MultiAcceleratorSystem::primary(), Objective::Performance);
    let winner = |gpu_only: f64, multicore_only: f64| {
        if gpu_only <= multicore_only {
            Accelerator::Gpu
        } else {
            Accelerator::Multicore
        }
    };
    let flips = cmp
        .rows
        .iter()
        .zip(weak.references())
        .filter(|(r, rw)| {
            winner(r.gpu_only, r.multicore_only) != winner(rw.best_gpu, rw.best_multicore)
        })
        .count();
    for w in Workload::all() {
        let mut t = TextTable::new(["input", "XeonPhi", "HeteroMap", "ideal", "selected"]);
        for r in cmp.rows_for(w) {
            t.row([
                r.dataset.abbrev().to_string(),
                format!("{:.2}", r.multicore_only / r.gpu_only),
                format!("{:.2}", r.heteromap / r.gpu_only),
                format!("{:.2}", r.ideal / r.gpu_only),
                r.selected.to_string(),
            ]);
        }
        println!("--- {w} ---\n{}", t.render());
    }
    let (over_gpu, over_mc, gap) = cmp.headline();
    println!(
        "headline: HeteroMap beats GPU-only by {over_gpu:.1}% (paper ~14%) and\n\
         Phi-only by {over_mc:.1}% (paper ~3.8x on its combos); {gap:.1}% from ideal.\n\
         {flips} optimal-accelerator choices changed vs the GTX-750Ti setup\n\
         (paper: 'Optimal Choices change when compared to the GTX750Ti')."
    );
}
