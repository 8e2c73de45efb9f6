//! Regenerates **Fig. 12: Energy benefits** — normalized energy per
//! benchmark (geomean across inputs) for the Xeon-Phi-only, GPU-only,
//! energy-trained HeteroMap, and ideal runs, all normalized to the maximum
//! energy of any combination, as in the paper.
//!
//! Usage: `fig12_energy [train_samples]` (default 400).

use heteromap::HeteroMap;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_bench::harness::SchedulerComparison;
use heteromap_bench::{geomean, TextTable};
use heteromap_model::Workload;
use heteromap_predict::{Evaluator, Objective};

fn main() {
    let args = heteromap_bench::apply_obs_flags(std::env::args().skip(1));
    let samples: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(400);
    let system = MultiAcceleratorSystem::primary();
    heteromap_obs::diag("bench.progress", || {
        format!("training energy-objective Deep.128 on {samples} combinations...")
    });
    let hm = HeteroMap::train_deep_for(system.clone(), samples, 42, Objective::Energy);
    let cmp = SchedulerComparison::run_with(&Evaluator::new(system, Objective::Energy), &hm);

    // Normalize to the maximal energy of any B-I combination (paper).
    let max_energy = cmp
        .rows
        .iter()
        .flat_map(|r| [r.gpu_only, r.multicore_only, r.heteromap])
        .fold(0.0f64, f64::max);

    println!("Fig. 12: normalized energy per benchmark (geomean over inputs)\n");
    let mut t = TextTable::new(["benchmark", "XeonPhi", "GPU", "HeteroMap", "ideal"]);
    let mut totals = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for w in Workload::all() {
        let rows = cmp.rows_for(w);
        let g = |f: &dyn Fn(&heteromap_bench::harness::ComboRow) -> f64| {
            geomean(&rows.iter().map(|r| f(r) / max_energy).collect::<Vec<_>>())
        };
        let (phi, gpu, hm_e, ideal) = (
            g(&|r| r.multicore_only),
            g(&|r| r.gpu_only),
            g(&|r| r.heteromap),
            g(&|r| r.ideal),
        );
        totals.0.push(phi);
        totals.1.push(gpu);
        totals.2.push(hm_e);
        totals.3.push(ideal);
        t.row([
            w.abbrev().to_string(),
            format!("{phi:.3}"),
            format!("{gpu:.3}"),
            format!("{hm_e:.3}"),
            format!("{ideal:.3}"),
        ]);
    }
    t.row([
        "geomean".to_string(),
        format!("{:.3}", geomean(&totals.0)),
        format!("{:.3}", geomean(&totals.1)),
        format!("{:.3}", geomean(&totals.2)),
        format!("{:.3}", geomean(&totals.3)),
    ]);
    println!("{}", t.render());
    let vs_phi = geomean(&totals.0) / geomean(&totals.2);
    let vs_gpu = geomean(&totals.1) / geomean(&totals.2);
    println!(
        "energy benefit of HeteroMap: {vs_phi:.2}x over Phi-only, {vs_gpu:.2}x over\n\
         GPU-only (paper: ~2.4x over both, from (0.15, 0.16) down to 0.06).\n\
         Known deviation: with the paper's published TDPs (60 W GPU vs 300 W\n\
         Phi) and our calibrated ~31% performance headline, the GPU is\n\
         near-energy-optimal on most combinations, so the benefit over\n\
         GPU-only is small here; the benefit over the Phi reproduces\n\
         (see EXPERIMENTS.md)."
    );
}
