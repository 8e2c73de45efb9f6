//! **Fleet scheduling sweep**: sustained goodput, tail completion time and
//! migration counts of four placement policies driving a heterogeneous
//! accelerator cluster through seeded job traces at several fault
//! intensities.
//!
//! Each cell runs the same deterministic [`FleetTrace`] over the same
//! cluster with one [`Placer`]; the gap between the predictor-driven
//! placers (greedy, evolution) and the blind baselines (random,
//! round-robin) is what HeteroMap's runtime prediction buys at fleet
//! scale. Every cell's digest is checked bit-for-bit across thread counts
//! and a rerun — the simulator's determinism is part of what this
//! experiment certifies. Results are written to `BENCH_fleet.json`.
//!
//! Pass `--smoke` for a CI-sized run (smaller trace and cluster, fewer
//! thread counts).

use heteromap_bench::{write_artifact, TextTable};
use heteromap_fleet::{Cluster, FleetReport, FleetSim, FleetTrace, Placer};
use heteromap_obs::json::{self, Object, Value};

const SEED: u64 = 42;
const INTENSITIES: [f64; 3] = [0.0, 0.2, 0.4];

/// A named trace regime: label plus its `FleetTrace` constructor.
type Regime = (&'static str, fn(u64, f64) -> FleetTrace);

struct Cell {
    regime: &'static str,
    intensity: f64,
    placer: Placer,
    report: FleetReport,
}

/// Runs one simulator at every thread count, asserting accounting and
/// digest stability, and returns the (identical) report.
fn run_stable(sim: &FleetSim, thread_counts: &[usize]) -> FleetReport {
    let reference = sim.run(thread_counts[0]);
    assert!(reference.fully_accounted(), "every job resolves");
    for &threads in &thread_counts[1..] {
        let report = sim.run(threads);
        assert_eq!(
            report.digest,
            reference.digest,
            "digest diverged at {threads} threads ({})",
            sim.placer()
        );
    }
    let rerun = sim.run(*thread_counts.last().expect("thread counts"));
    assert_eq!(
        rerun.digest,
        reference.digest,
        "digest diverged on rerun ({})",
        sim.placer()
    );
    reference
}

fn cell_for<'a>(
    cells: &'a [Cell],
    regime: &str,
    intensity: f64,
    placer: Placer,
) -> &'a FleetReport {
    &cells
        .iter()
        .find(|c| c.regime == regime && c.intensity == intensity && c.placer == placer)
        .expect("cell exists")
        .report
}

fn main() {
    let args = heteromap_bench::apply_obs_flags(std::env::args().skip(1));
    let smoke = args.iter().any(|a| a == "--smoke");
    let thread_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16] };
    let n_per_spec = if smoke { 1 } else { 2 };
    let regimes: Vec<Regime> = if smoke {
        vec![("smoke", FleetTrace::smoke as _)]
    } else {
        vec![
            ("heavy", FleetTrace::heavy as _),
            ("steady", FleetTrace::steady as _),
        ]
    };
    let cluster = Cluster::uniform(n_per_spec);
    println!(
        "fleet sweep: {} devices ({n_per_spec}x each paper spec), seed {SEED}{}",
        cluster.len(),
        if smoke { " [smoke]" } else { "" },
    );
    println!("digests checked at {thread_counts:?} threads plus a rerun per cell\n");

    let mut cells: Vec<Cell> = Vec::new();
    for &(regime, trace_for) in &regimes {
        for &intensity in &INTENSITIES {
            for placer in Placer::ALL {
                let sim = FleetSim::new(trace_for(SEED, intensity), cluster.clone(), placer);
                let report = run_stable(&sim, thread_counts);
                println!(
                    "{regime}/{intensity:.1} {placer:<11} good {:>4}/{:<4} {:>8.1} jobs/s  \
                     p99 {:>9.1} ms  migr {:>3}",
                    report.good, report.jobs, report.jobs_per_sec, report.p99_ms, report.migrations,
                );
                cells.push(Cell {
                    regime,
                    intensity,
                    placer,
                    report,
                });
            }
        }
    }

    let mut table = TextTable::new([
        "regime",
        "intensity",
        "placer",
        "jobs",
        "good",
        "late",
        "failed",
        "shed",
        "migr",
        "jobs/s",
        "p99 ms",
        "util",
    ]);
    for cell in &cells {
        let r = &cell.report;
        table.row([
            cell.regime.to_string(),
            format!("{:.1}", cell.intensity),
            cell.placer.name().to_string(),
            r.jobs.to_string(),
            r.good.to_string(),
            r.late.to_string(),
            r.failed.to_string(),
            r.shed.to_string(),
            r.migrations.to_string(),
            format!("{:.1}", r.jobs_per_sec),
            format!("{:.1}", r.p99_ms),
            format!("{:.2}", r.avg_utilization),
        ]);
    }
    println!("\n{}", table.render());

    // Acceptance bars (ISSUE 8). Simulated time keeps these stable enough
    // to hard-assert: a regression exits non-zero.
    let primary = regimes[0].0;
    for &intensity in &INTENSITIES {
        for predictor in [Placer::Greedy, Placer::Evolution] {
            let p = cell_for(&cells, primary, intensity, predictor);
            for naive in [Placer::Random, Placer::RoundRobin] {
                let n = cell_for(&cells, primary, intensity, naive);
                assert!(
                    p.jobs_per_sec > n.jobs_per_sec,
                    "{predictor} must beat {naive} on jobs/sec at {primary}/{intensity}: \
                     {:.2} vs {:.2}",
                    p.jobs_per_sec,
                    n.jobs_per_sec
                );
                assert!(
                    p.p99_ms < n.p99_ms,
                    "{predictor} must beat {naive} on p99 at {primary}/{intensity}: \
                     {:.2} vs {:.2}",
                    p.p99_ms,
                    n.p99_ms
                );
            }
        }
    }
    let evolution_wins = cells
        .iter()
        .filter(|c| c.placer == Placer::Evolution)
        .any(|c| {
            let greedy = cell_for(&cells, c.regime, c.intensity, Placer::Greedy);
            c.report.jobs_per_sec >= greedy.jobs_per_sec
        });
    assert!(
        evolution_wins,
        "evolution must match or beat greedy goodput on at least one regime"
    );
    println!(
        "acceptance bars hold: predictor-driven placers beat both baselines on jobs/sec \
         and p99; evolution >= greedy on at least one regime"
    );

    let rows = cells.iter().map(|cell| {
        let r = &cell.report;
        Object::new()
            .field("regime", cell.regime)
            .field("intensity", cell.intensity)
            .field("placer", cell.placer.name())
            .field("jobs", r.jobs)
            .field("good", r.good)
            .field("late", r.late)
            .field("failed", r.failed)
            .field("shed", r.shed)
            .field("migrations", r.migrations)
            .field("jobs_per_sec", r.jobs_per_sec)
            .field("p99_ms", r.p99_ms)
            .field("span_ms", r.span_ms)
            .field("avg_utilization", r.avg_utilization)
            .field("breaker_opens", r.breaker_opens)
            .field("breaker_closes", r.breaker_closes)
            .field("digest", json::digest(r.digest))
    });
    write_artifact(
        "BENCH_fleet.json",
        "fleet_schedule",
        thread_counts.len() + 1, // digest-checked runs per cell
        Object::new()
            .field("smoke", smoke)
            .field("seed", SEED)
            .field("devices", cluster.len())
            .field("n_per_spec", n_per_spec)
            .field("thread_counts", thread_counts)
            .field("results", rows.collect::<Value>()),
    );
    println!("wrote BENCH_fleet.json ({} cells)", cells.len());
}
