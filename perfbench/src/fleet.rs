//! fleet-rounds: one op builds a fleet simulator for a seeded heavy-style
//! trace and runs its deterministic round loop (snapshot → per-round
//! parallel fan-out → serial fold → digest) on two threads.
//!
//! Runnable by hand but not listed in `BENCHMARK.json`: every round spawns
//! its workers afresh, so on a shared 2-vCPU virtual machine an op's time
//! is dominated by how fast the hypervisor wakes an idle vCPU. There, the
//! p99 spread (quartiles over median) was 0.77 and 0.40 in two sets of ten
//! seeds, and a busy-looping thread keeping the vCPUs awake made ops 1.5×
//! faster.

use crate::harness::{closed_loop, Client};
use crate::keys::stream_seed;
use crate::report::{Checks, Metrics, Tally};
use crate::setup::SetupTimes;
use crate::stats::{geomean, ratio};
use crate::trace::{span_opt, Tracer};
use crate::Outcome;
use heteromap::{clamp_config_for, HeteroMap};
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::FaultState;
use heteromap_fleet::{Cluster, FleetReport, FleetSim, FleetTrace, Placer, DATASETS, WORKLOADS};
use heteromap_model::MConfig;
use std::hint::black_box;
use std::time::Instant;

/// Distinct traces an op cycles through: enough (trace, placer) pairs that
/// op costs form a continuum, p99 does not sit on one pair's cost, and the
/// pool's mean cost moves little from seed to seed.
pub const TRACES: usize = 192;

/// Arrival rounds of trace `k`: heavy traces shortened to 4–27 rounds, so
/// one op takes a few milliseconds and a run completes thousands of ops.
/// Evolution ops cost about twice what Greedy ops do on the same trace;
/// spreading trace lengths makes the two placers' op costs overlap, so
/// the median does not sit in the gap between two clusters. The longest
/// length is shared by over a quarter of the traces, so p99 falls inside
/// a block of dozens of Evolution ops on 27-round traces rather than on
/// the one or two costliest traces a seed happens to draw.
pub fn rounds(k: usize) -> u32 {
    (4 + k * 32 / TRACES).min(MAX_ROUNDS) as u32
}

/// The longest trace, in arrival rounds.
const MAX_ROUNDS: usize = 27;

/// Fraction of (device, episode) cells that fault.
pub const FAULT_INTENSITY: f64 = 0.2;

/// Devices per accelerator spec in the cluster.
const DEVICES_PER_SPEC: usize = 2;

/// Worker threads of each simulation run.
const THREADS: usize = 2;

/// Set-ups per run. One takes a few tens of milliseconds, so many are
/// timed for a steady median.
const SETUP_REPEATS: usize = 25;

/// Warm-up traces of each set-up, and their arrival rounds. They come from
/// a fixed seed, so set-up cost does not move with the run seed.
const WARMUP_TRACES: u64 = 4;
const WARMUP_ROUNDS: u32 = 8;
const WARMUP_SEED: u64 = 0x3A7_F1EE;

/// The placers ops alternate between.
const PLACERS: [Placer; 2] = [Placer::Greedy, Placer::Evolution];

/// Re-issue period (ops) of the accelerator-evaluation probe in the traced
/// run.
const EVAL_EVERY: u64 = 16;

/// The trace pool for a run seed.
pub fn traces(seed: u64) -> Vec<FleetTrace> {
    (0..TRACES)
        .map(|k| FleetTrace {
            rounds: rounds(k),
            ..FleetTrace::heavy(stream_seed(seed, 0xF1EE + k as u64), FAULT_INTENSITY)
        })
        .collect()
}

/// The (trace, placer) pair of op `i`: placers alternate, traces cycle.
fn pair(i: u64) -> (usize, usize) {
    (
        (i as usize / PLACERS.len()) % TRACES,
        i as usize % PLACERS.len(),
    )
}

struct FleetClient<'a> {
    traces: &'a [FleetTrace],
    /// Single-thread reports per (trace, placer): the digest every op must
    /// reproduce at two threads.
    references: &'a [[FleetReport; 2]],
    probe: &'a [(WorkloadContext, MConfig)],
    cluster: &'a Cluster,
    last: Option<FleetReport>,
    tally: Tally,
    jobs: u64,
    migrations: u64,
    breaker_opens: u64,
    tracer: Option<Tracer>,
}

impl Client for FleetClient<'_> {
    fn op(&mut self, i: u64) {
        let (t, p) = pair(i);
        if let Some(tr) = &mut self.tracer {
            tr.begin_op("bench.fleet_op");
        }
        let (trace, cluster) = (self.traces[t], self.cluster);
        let sim = span_opt(&mut self.tracer, "fleet.new", "fleet", || {
            FleetSim::new(trace, cluster.clone(), PLACERS[p])
        });
        self.last = Some(span_opt(&mut self.tracer, "fleet.run", "fleet", || {
            sim.run(THREADS)
        }));
    }

    fn after(&mut self, i: u64, start: Instant, end: Instant) {
        let (t, p) = pair(i);
        let report = self.last.take().expect("op ran");
        let want = &self.references[t][p];
        self.tally.record(
            true,
            report.fully_accounted() && report.digest == want.digest,
            || {
                format!(
                    "op {i}: trace {t} {}: digest {:x} vs 1-thread {:x}",
                    PLACERS[p], report.digest, want.digest
                )
            },
        );
        self.jobs += report.jobs as u64;
        self.migrations += report.migrations;
        self.breaker_opens += report.breaker_opens;
        if let Some(tr) = &mut self.tracer {
            tr.end_op("bench", start, end);
            if i.is_multiple_of(EVAL_EVERY) {
                // The accelerator cost model the round loop calls per slot.
                let eval_start = Instant::now();
                tr.begin_op("bench.reissue");
                for (device, (ctx, cfg)) in self.cluster.devices().iter().zip(self.probe) {
                    let model = self.cluster.model();
                    black_box(tr.span("accel.eval", "accel", || {
                        device.evaluate(model, ctx, cfg, FaultState::Healthy)
                    }));
                }
                tr.end_op("bench", eval_start, Instant::now());
            }
        }
    }
}

/// Runs fleet-rounds.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let pool = traces(seed);
    let warmup: Vec<FleetTrace> = (0..WARMUP_TRACES)
        .map(|k| FleetTrace {
            rounds: WARMUP_ROUNDS,
            ..FleetTrace::heavy(stream_seed(WARMUP_SEED, k), FAULT_INTENSITY)
        })
        .collect();
    // Set-up a fleet process pays before its first op: the cluster and
    // warm-up runs of each placer.
    let set_up = || {
        let cluster = Cluster::uniform(DEVICES_PER_SPEC);
        for (&trace, placer) in warmup
            .iter()
            .flat_map(|t| PLACERS.iter().map(move |&p| (t, p)))
        {
            black_box(FleetSim::new(trace, cluster.clone(), placer).run(THREADS));
        }
        cluster
    };
    let mut times = SetupTimes::default();
    let cluster = times.time(set_up);
    let references: Vec<[FleetReport; 2]> = pool
        .iter()
        .map(|&trace| PLACERS.map(|placer| FleetSim::new(trace, cluster.clone(), placer).run(1)))
        .collect();
    let mut checks = Checks::default();
    let accounted = references
        .iter()
        .flatten()
        .filter(|r| r.fully_accounted())
        .count();
    checks.check(
        accounted == TRACES * PLACERS.len(),
        format!(
            "{accounted} of {} reference runs fully accounted",
            TRACES * PLACERS.len()
        ),
    );
    // One fixed combo re-clamped for each device, for the accel probe.
    let hm = HeteroMap::with_decision_tree();
    let ctx = WorkloadContext::for_workload(WORKLOADS[0], DATASETS[0].stats());
    let base = hm.predict_config(&ctx.b, &hm.ivector(&ctx.stats)).0;
    let probe: Vec<(WorkloadContext, MConfig)> = cluster
        .devices()
        .iter()
        .map(|d| (ctx, clamp_config_for(&base, d.role(), 1.0)))
        .collect();

    let client = |tracer: bool| FleetClient {
        traces: &pool,
        references: &references,
        probe: &probe,
        cluster: &cluster,
        last: None,
        tally: Tally::default(),
        jobs: 0,
        migrations: 0,
        breaker_opens: 0,
        tracer: tracer.then(|| Tracer::new(Instant::now(), 1)),
    };
    let (untraced, mut done) = closed_loop(vec![client(false)], seconds, 1);
    let mut tally = done.pop().expect("one client").tally;
    checks.check(
        tally.wrong == 0,
        format!(
            "digests identical at 1 and {THREADS} threads on all {} ops",
            tally.attempted
        ),
    );

    let mut traced_phase = None;
    if traced {
        let (phase, mut done) = closed_loop(vec![client(true)], seconds, 1);
        let c = done.pop().expect("one client");
        tally.merge(&c.tally);
        let tracer = c.tracer.expect("traced client");
        let ops = phase.ops as f64;
        let mut layers = Metrics::default();
        layers.set("fleet.new_ns", tracer.totals("fleet.new").mean_ns(), "ns");
        layers.set("fleet.run_ns", tracer.totals("fleet.run").mean_ns(), "ns");
        layers.set("fleet.jobs_per_op", ratio(c.jobs as f64, ops), "1/op");
        layers.set(
            "fleet.migrations_per_op",
            ratio(c.migrations as f64, ops),
            "1/op",
        );
        layers.set(
            "fleet.breaker_opens_per_op",
            ratio(c.breaker_opens as f64, ops),
            "1/op",
        );
        layers.set("accel.eval_ns", tracer.totals("accel.eval").mean_ns(), "ns");
        layers.set(
            "obs.reconcile_error_ratio",
            tracer.unattributed_ratio("bench.fleet_op"),
            "ratio",
        );
        traced_phase = Some((phase, tracer, layers));
    }
    for _ in 1..SETUP_REPEATS {
        black_box(times.time(set_up));
    }

    // Deterministic simulation outcomes over the whole pool.
    let all = references.iter().flatten();
    let (good, jobs) = all
        .clone()
        .fold((0, 0), |(g, j), r| (g + r.good, j + r.jobs));
    Outcome {
        setup: times,
        untraced,
        traced: traced_phase,
        tally,
        sim_completion_ms: geomean(all.map(|r| r.span_ms)),
        sim_goodput: ratio(good as f64, jobs as f64),
        checks,
        reconcile: "the share of op wall time outside the fleet.new and fleet.run spans",
        notes: vec![
            format!("clients=1 sequential simulations, {THREADS} threads each"),
            format!(
                "traces={TRACES} rounds={}..={} fault_intensity={FAULT_INTENSITY} devices={}",
                rounds(0),
                rounds(TRACES - 1),
                cluster.len()
            ),
        ],
    }
}
