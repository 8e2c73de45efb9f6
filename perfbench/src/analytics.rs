//! analytics-jobs: the paper's actual job. One job measures a graph's
//! statistics, asks the serving engine for a placement, and runs the
//! kernel on host threads with the predicted configuration.

use crate::decide::{matches_direct, quality, reissue, serve_layers, PlacementCounts};
use crate::harness::{closed_loop, Client};
use crate::keys::stream_seed;
use crate::report::{Checks, Metrics, Tally};
use crate::setup::{serving_engine, SetupTimes, SETUP_REPEATS};
use crate::stats::ratio;
use crate::trace::{span_opt, Tracer};
use crate::Outcome;
use heteromap::DeployOptions;
use heteromap_accel::cost::WorkloadContext;
use heteromap_graph::gen::{GraphGenerator, Grid, Kronecker, RMat, UniformRandom};
use heteromap_graph::{CsrGraph, GraphStats};
use heteromap_kernels::runner::{KernelOutput, KernelRun};
use heteromap_kernels::{verify, KernelRunner};
use heteromap_model::mconfig::DeployLimits;
use heteromap_model::{Accelerator, Workload};
use heteromap_serve::{ServeEngine, Served};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// The twelve kernels with their names in metrics and spans.
pub const KERNELS: [(Workload, &str, &str); 12] = [
    (Workload::SsspBf, "sssp_bf", "kernels.sssp_bf"),
    (Workload::SsspDelta, "sssp_delta", "kernels.sssp_delta"),
    (Workload::Bfs, "bfs", "kernels.bfs"),
    (Workload::Dfs, "dfs", "kernels.dfs"),
    (Workload::PageRank, "pagerank", "kernels.pagerank"),
    (Workload::PageRankDp, "pagerank_dp", "kernels.pagerank_dp"),
    (
        Workload::TriangleCount,
        "triangle_count",
        "kernels.triangle_count",
    ),
    (Workload::Community, "community", "kernels.community"),
    (Workload::ConnComp, "conncomp", "kernels.conncomp"),
    (Workload::Spmv, "spmv", "kernels.spmv"),
    (Workload::KCore, "kcore", "kernels.kcore"),
    (Workload::LabelProp, "labelprop", "kernels.labelprop"),
];

/// Absolute tolerance on shortest-path distances (f32 path sums can round
/// differently along equally short paths), plus a relative part for long
/// mesh paths.
pub const DISTANCE_TOLERANCE: (f32, f32) = (1e-2, 1e-5);

/// Relative tolerance on ranks (the push variant accumulates with atomic
/// f32 adds in scheduling order).
pub const RANK_TOLERANCE: f64 = 1e-3;

/// Graph pools (this run's plus seeded extras) the decision-quality
/// metrics are scored on.
const QUALITY_POOLS: u64 = 4;

/// PageRank iterations and label-propagation sweeps the runner uses by
/// default, which the references must match.
const PAGERANK_ITERATIONS: u32 = 20;
const LABEL_SWEEPS: u32 = 10;

/// The seeded graph pool: skewed (R-MAT, Kronecker), uniform and mesh
/// inputs from 4k to 32k vertices, so kernel cost varies with graph shape
/// as it does in GARDENIA's mix. Sizes step evenly within each family so
/// job costs form a continuum and the latency percentiles do not jump
/// between a few job classes from one seed to the next.
pub fn graph_pool(seed: u64) -> Vec<(&'static str, CsrGraph)> {
    let gens: [(&'static str, Box<dyn GraphGenerator>); 11] = [
        ("rmat-12", Box::new(RMat::new(12, 8.0, 0.57, 0.19, 0.19))),
        ("rmat-13", Box::new(RMat::new(13, 8.0, 0.57, 0.19, 0.19))),
        ("rmat-14", Box::new(RMat::new(14, 8.0, 0.57, 0.19, 0.19))),
        ("kronecker-12", Box::new(Kronecker::new(12, 8.0))),
        ("kronecker-13", Box::new(Kronecker::new(13, 8.0))),
        ("uniform-6k", Box::new(UniformRandom::new(6_000, 24_000))),
        ("uniform-12k", Box::new(UniformRandom::new(12_000, 48_000))),
        ("grid-64", Box::new(Grid::new(64, 64))),
        ("grid-100", Box::new(Grid::new(100, 100))),
        ("grid-140", Box::new(Grid::new(140, 140))),
        ("grid-180", Box::new(Grid::new(180, 180))),
    ];
    gens.into_iter()
        .enumerate()
        .map(|(k, (name, gen))| (name, gen.generate(stream_seed(seed, 0x6A0 + k as u64))))
        .collect()
}

/// What a kernel's output is checked against.
#[derive(Debug, Clone)]
enum Reference {
    /// Integer outputs: bit-exact.
    Exact(KernelOutput),
    /// DFS trees depend on scheduling; the reached set must equal BFS's.
    Reached(Vec<bool>),
    /// Distances within [`DISTANCE_TOLERANCE`].
    Distances(Vec<f32>),
    /// Ranks within [`RANK_TOLERANCE`].
    Ranks(Vec<f64>),
}

fn reference(w: Workload, g: &CsrGraph) -> Reference {
    match w {
        Workload::Bfs => Reference::Exact(KernelOutput::Levels(verify::bfs_seq(g, 0))),
        Workload::Dfs => Reference::Reached(
            verify::bfs_seq(g, 0)
                .iter()
                .map(|&l| l != u32::MAX)
                .collect(),
        ),
        Workload::SsspBf | Workload::SsspDelta => Reference::Distances(verify::dijkstra(g, 0)),
        Workload::PageRank | Workload::PageRankDp => {
            Reference::Ranks(verify::pagerank_seq(g, PAGERANK_ITERATIONS))
        }
        Workload::TriangleCount => Reference::Exact(KernelOutput::Count(verify::triangle_seq(g))),
        // Community has no sequential reference; its labels must not
        // depend on the thread count, so one thread is the reference.
        Workload::Community => Reference::Exact(KernelRunner::new(1).run(w, g).output),
        Workload::ConnComp => Reference::Exact(KernelOutput::Labels(verify::conncomp_seq(g))),
        // The runner's fixed SpMV input vector.
        Workload::Spmv => {
            let x: Vec<f32> = (0..g.vertex_count())
                .map(|i| 1.0 + (i % 7) as f32 * 0.25)
                .collect();
            Reference::Exact(KernelOutput::Distances(verify::spmv_seq(g, &x)))
        }
        Workload::KCore => Reference::Exact(KernelOutput::Labels(verify::kcore_seq(g))),
        Workload::LabelProp => {
            Reference::Exact(KernelOutput::Labels(verify::labelprop_seq(g, LABEL_SWEEPS)))
        }
        other => unreachable!("no kernel for {other}"),
    }
}

fn agrees(reference: &Reference, output: &KernelOutput) -> bool {
    match (reference, output) {
        (Reference::Exact(want), got) => want == got,
        (Reference::Reached(want), KernelOutput::Levels(parents)) => {
            want.len() == parents.len()
                && want
                    .iter()
                    .zip(parents)
                    .all(|(&r, &p)| r == (p != u32::MAX))
        }
        (Reference::Distances(want), KernelOutput::Distances(got)) => {
            let (abs, rel) = DISTANCE_TOLERANCE;
            want.len() == got.len()
                && want.iter().zip(got).all(|(&w, &g)| {
                    (w.is_infinite() && g.is_infinite()) || (w - g).abs() <= abs + rel * w.abs()
                })
        }
        (Reference::Ranks(want), KernelOutput::Ranks(got)) => {
            want.len() == got.len()
                && want
                    .iter()
                    .zip(got)
                    .all(|(&w, &g)| (w - g).abs() <= RANK_TOLERANCE * w.abs() + 1e-12)
        }
        _ => false,
    }
}

#[derive(Debug, Clone, Copy)]
struct Job {
    graph: usize,
    kernel: usize,
}

struct JobClient<'a> {
    engine: &'a ServeEngine,
    graphs: &'a [(&'static str, CsrGraph)],
    jobs: &'a [Job],
    references: &'a [Vec<Reference>],
    limits: [DeployLimits; 2],
    host_threads: usize,
    last: Option<(WorkloadContext, Served, KernelRun)>,
    tally: Tally,
    counts: PlacementCounts,
    kernel_runs: [u64; 12],
    threads: u64,
    kernel_edges: u64,
    tracer: Option<Tracer>,
}

impl Client for JobClient<'_> {
    fn op(&mut self, i: u64) {
        let job = self.jobs[i as usize % self.jobs.len()];
        let (w, _, span) = KERNELS[job.kernel];
        let g = &self.graphs[job.graph].1;
        if let Some(t) = &mut self.tracer {
            t.begin_op("bench.job");
        }
        let stats = span_opt(&mut self.tracer, "graph.measure", "graph", || {
            GraphStats::measure(g)
        });
        let ctx = WorkloadContext::for_workload(w, stats);
        let engine = self.engine;
        let served = span_opt(&mut self.tracer, "serve.call", "serve", || {
            engine.schedule_context_opts(&ctx, DeployOptions::default())
        });
        let limits = &self.limits[usize::from(served.placement.accelerator() == Accelerator::Gpu)];
        let host_threads = self.host_threads;
        let run = span_opt(&mut self.tracer, span, "kernels", || {
            KernelRunner::from_mconfig(&served.placement.config, limits, host_threads).run(w, g)
        });
        self.last = Some((ctx, served, run));
    }

    fn after(&mut self, i: u64, start: Instant, end: Instant) {
        if let Some(t) = &mut self.tracer {
            t.end_op("bench", start, end);
        }
        let job = self.jobs[i as usize % self.jobs.len()];
        let (ctx, served, run) = self.last.take().expect("op ran");
        let (graph, g) = &self.graphs[job.graph];
        let kernel = KERNELS[job.kernel].1;
        let ok_output = agrees(&self.references[job.graph][job.kernel], &run.output);
        let ok_direct = !i.is_multiple_of(16) || matches_direct(self.engine, &ctx, &served);
        self.tally.record(served.placement.completed(), ok_output && ok_direct, || {
            format!("op {i}: {kernel} on {graph}: output ok {ok_output}, served config ok {ok_direct}")
        });
        self.counts.add(&served.placement);
        self.kernel_runs[job.kernel] += 1;
        self.threads += run.threads as u64;
        self.kernel_edges += g.edge_count() as u64;
        if let Some(t) = &mut self.tracer {
            reissue(self.engine, t, &ctx, &served);
        }
    }
}

/// Runs analytics-jobs.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let graphs = graph_pool(seed);
    let mut jobs: Vec<Job> = (0..graphs.len())
        .flat_map(|graph| (0..KERNELS.len()).map(move |kernel| Job { graph, kernel }))
        .collect();
    jobs.shuffle(&mut StdRng::seed_from_u64(stream_seed(seed, 0x10B)));
    let references: Vec<Vec<Reference>> = graphs
        .iter()
        .map(|(_, g)| KERNELS.iter().map(|&(w, _, _)| reference(w, g)).collect())
        .collect();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut times = SetupTimes::default();
    let engine = serving_engine(&mut times, |_| {});
    let limits = engine.with_model(|m| {
        [Accelerator::Multicore, Accelerator::Gpu].map(|a| m.system().spec_for(a).deploy_limits())
    });
    let client = |tracer: bool| JobClient {
        engine: &engine,
        graphs: &graphs,
        jobs: &jobs,
        references: &references,
        limits,
        host_threads,
        last: None,
        tally: Tally::default(),
        counts: PlacementCounts::default(),
        kernel_runs: [0; 12],
        threads: 0,
        kernel_edges: 0,
        tracer: tracer.then(|| Tracer::new(Instant::now(), 1)),
    };

    let mut checks = Checks::default();
    let (untraced, mut done) = closed_loop(vec![client(false)], seconds, 1);
    let first = done.pop().expect("one client");
    let mut tally = first.tally.clone();
    let unexercised: Vec<&str> = KERNELS
        .iter()
        .zip(first.kernel_runs)
        .filter(|(_, n)| *n == 0)
        .map(|((_, name, _), _)| *name)
        .collect();
    checks.check(
        unexercised.is_empty(),
        format!("all 12 kernels ran; missing: {unexercised:?}"),
    );

    let mut traced_phase = None;
    if traced {
        let before = engine.metrics().snapshot();
        let (phase, mut done) = closed_loop(vec![client(true)], seconds, 1);
        let c = done.pop().expect("one client");
        tally.merge(&c.tally);
        let tracer = c.tracer.expect("traced client");
        let mut layers = Metrics::default();
        serve_layers(
            &mut layers,
            &engine,
            &before,
            &tracer,
            "serve.call",
            &c.counts,
        );
        let job_ns = tracer.totals("bench.job").total_ns as f64;
        let serve_share = ratio(tracer.totals("serve.call").total_ns as f64, job_ns);
        checks.check(
            serve_share < 0.01,
            format!("serve is {:.4}% of job time (< 1%)", serve_share * 100.0),
        );
        layers.set("serve.op_share", serve_share, "ratio");
        layers.set(
            "obs.reconcile_error_ratio",
            tracer.unattributed_ratio("bench.job"),
            "ratio",
        );
        let measure = tracer.totals("graph.measure");
        layers.set("graph.measure_ns", measure.mean_ns(), "ns");
        layers.set(
            "graph.measure_edges_per_s",
            ratio(c.kernel_edges as f64, measure.total_ns as f64 * 1e-9),
            "edges/s",
        );
        let (mut kernel_ns, mut kernel_count) = (0u64, 0u64);
        for (_, name, span) in KERNELS {
            let t = tracer.totals(span);
            kernel_ns += t.total_ns;
            kernel_count += t.count;
            layers.set(format!("kernels.{name}.run_ns"), t.mean_ns(), "ns");
        }
        layers.set(
            "kernels.run_ns",
            ratio(kernel_ns as f64, kernel_count as f64),
            "ns",
        );
        layers.set(
            "kernels.edges_per_s",
            ratio(c.kernel_edges as f64, kernel_ns as f64 * 1e-9),
            "edges/s",
        );
        layers.set(
            "kernels.threads_per_job",
            ratio(c.threads as f64, kernel_count as f64),
            "threads",
        );
        traced_phase = Some((phase, tracer, layers));
    }
    for _ in 1..SETUP_REPEATS {
        serving_engine(&mut times, |_| {});
    }

    // Decision quality over every kernel on this pool and on further
    // seeded pools of the same shapes (untimed, deterministic): simulated
    // times depend on each instance's degree and diameter, so more
    // instances keep the geomean from moving much from seed to seed.
    let mut stats: Vec<GraphStats> = graphs.iter().map(|(_, g)| GraphStats::measure(g)).collect();
    for extra in 1..QUALITY_POOLS {
        stats.extend(
            graph_pool(stream_seed(seed, extra))
                .iter()
                .map(|(_, g)| GraphStats::measure(g)),
        );
    }
    let placements: Vec<_> = stats
        .iter()
        .flat_map(|s| {
            KERNELS
                .iter()
                .map(move |&(w, _, _)| WorkloadContext::for_workload(w, *s))
        })
        .map(|ctx| engine.schedule_context(&ctx).placement)
        .collect();
    let (sim_completion_ms, sim_goodput) = quality(&placements);

    let sizes: Vec<String> = graphs
        .iter()
        .map(|(name, g)| format!("{name}:{}v/{}e", g.vertex_count(), g.edge_count()))
        .collect();
    Outcome {
        setup: times,
        untraced,
        traced: traced_phase,
        tally,
        sim_completion_ms,
        sim_goodput,
        checks,
        reconcile: "the share of job wall time outside the graph, serve and kernel spans",
        notes: vec![
            "clients=1 sequential jobs".to_string(),
            format!("host_threads={host_threads}"),
            format!("jobs={} graphs={}", jobs.len(), sizes.join(",")),
        ],
    }
}
