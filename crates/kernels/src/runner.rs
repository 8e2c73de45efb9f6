//! Uniform kernel dispatch used by examples, tests and benches.

use crate::par::Scheduler;
use crate::{
    bfs, community, conncomp, dfs, kcore, labelprop, pagerank, pagerank_dp, spmv, sssp_bf,
    sssp_delta, triangle,
};
use heteromap_graph::{CsrGraph, VertexId};
use heteromap_model::mconfig::DeployLimits;
use heteromap_model::{MConfig, OmpSchedule, Workload};
use std::time::{Duration, Instant};

/// Output of one kernel execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum KernelOutput {
    /// BFS/DFS-style levels or orders per vertex.
    Levels(Vec<u32>),
    /// Shortest-path distances per vertex.
    Distances(Vec<f32>),
    /// Rank values per vertex.
    Ranks(Vec<f64>),
    /// Component/community labels per vertex.
    Labels(Vec<u32>),
    /// A single scalar (triangle count).
    Count(u64),
}

impl KernelOutput {
    /// A coarse checksum used to keep benches honest (prevents dead-code
    /// elimination and catches wild nondeterminism).
    pub fn checksum(&self) -> f64 {
        match self {
            KernelOutput::Levels(v) => v
                .iter()
                .map(|&x| if x == u32::MAX { 0.0 } else { x as f64 })
                .sum(),
            KernelOutput::Distances(d) => {
                d.iter().filter(|x| x.is_finite()).map(|&x| x as f64).sum()
            }
            KernelOutput::Ranks(r) => r.iter().sum(),
            KernelOutput::Labels(l) => l.iter().map(|&x| x as f64).sum(),
            KernelOutput::Count(c) => *c as f64,
        }
    }
}

/// Timed execution result.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRun {
    /// What the kernel produced.
    pub output: KernelOutput,
    /// Wall-clock duration of the kernel body.
    pub elapsed: Duration,
    /// Threads used.
    pub threads: usize,
}

/// Dispatches the paper's nine workloads — plus the GARDENIA extensions
/// (SpMV, k-core, label propagation) — onto the real kernel
/// implementations.
///
/// Every run executes on the process-wide persistent
/// [`ThreadPool`](crate::pool::ThreadPool): the runner leases the pool for
/// the duration of each kernel invocation, so a full bench sweep spawns
/// each worker thread once instead of once per parallel region.
///
/// # Example
///
/// ```
/// use heteromap_graph::gen::{GraphGenerator, UniformRandom};
/// use heteromap_kernels::KernelRunner;
/// use heteromap_model::Workload;
///
/// let g = UniformRandom::new(500, 3_000).generate(0);
/// let run = KernelRunner::new(4).run(Workload::Bfs, &g);
/// assert!(run.elapsed.as_nanos() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRunner {
    threads: usize,
    source: VertexId,
    pagerank_iterations: u32,
    community_iterations: u32,
    delta: f32,
    scheduler: Scheduler,
}

impl KernelRunner {
    /// Creates a runner using `threads` worker threads.
    pub fn new(threads: usize) -> Self {
        KernelRunner {
            threads: threads.max(1),
            source: 0,
            pagerank_iterations: 20,
            community_iterations: 10,
            delta: 4.0,
            scheduler: Scheduler::Static,
        }
    }

    /// Builds a runner that *deploys* a predicted machine configuration on
    /// the host: every host CPU the job may use, the `M11` schedule, and an
    /// `M12`-derived dynamic grain. This is the reproduction's host-side
    /// stand-in for the paper's step-3 deployment.
    ///
    /// The thread count is `min(host_threads, available_parallelism)` for
    /// every configuration, so a `host_threads` budget larger than the
    /// machine cannot oversubscribe it. The predicted share of the
    /// *simulated* accelerator (`M2 x M3` of a 244-thread Xeon Phi, or the
    /// GPU's global threads) is not scaled onto the host, and `limits` is
    /// not read; it stays in the signature for the callers that pass the
    /// placed accelerator's limits. How many of the threads a round takes
    /// is each kernel's own choice, from its work (see
    /// [`phase_threads`](crate::par::phase_threads)).
    pub fn from_mconfig(cfg: &MConfig, _limits: &DeployLimits, host_threads: usize) -> Self {
        let available = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
        let scheduler = match cfg.schedule {
            OmpSchedule::Static => Scheduler::Static,
            _ => Scheduler::Dynamic {
                grain: ((cfg.chunk_size * 256.0) as usize).max(1),
            },
        };
        KernelRunner {
            threads: host_threads.clamp(1, available),
            scheduler,
            ..KernelRunner::new(1)
        }
    }

    /// Sets the work-distribution policy (`M11`/`M12`).
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the traversal source vertex (default 0).
    pub fn with_source(mut self, source: VertexId) -> Self {
        self.source = source;
        self
    }

    /// Sets PageRank power iterations (default 20, as in the cost model).
    pub fn with_pagerank_iterations(mut self, iterations: u32) -> Self {
        self.pagerank_iterations = iterations;
        self
    }

    /// Sets label-propagation sweeps for the `Community` and `LabelProp`
    /// workloads (default 10).
    pub fn with_community_iterations(mut self, iterations: u32) -> Self {
        self.community_iterations = iterations;
        self
    }

    /// Sets the Δ-stepping bucket width (default 4.0).
    pub fn with_delta(mut self, delta: f32) -> Self {
        self.delta = delta;
        self
    }

    /// Threads this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `workload` on `graph`, timing the kernel body.
    ///
    /// # Panics
    ///
    /// Panics if the configured source vertex is out of bounds for a
    /// traversal workload on a non-empty graph.
    pub fn run(&self, workload: Workload, graph: &CsrGraph) -> KernelRun {
        let name = workload_name(workload);
        let _span = heteromap_obs::span_cat(name, "kernel");
        let _region = heteromap_obs::region_scope(name);
        let start = Instant::now();
        let output = self.dispatch(workload, graph);
        KernelRun {
            output,
            elapsed: start.elapsed(),
            threads: self.threads,
        }
    }

    fn dispatch(&self, workload: Workload, graph: &CsrGraph) -> KernelOutput {
        match workload {
            Workload::Bfs => KernelOutput::Levels(bfs::bfs_with(
                graph,
                self.source,
                self.threads,
                self.scheduler,
            )),
            Workload::Dfs => {
                KernelOutput::Levels(dfs::dfs(graph, self.source, self.threads).parent)
            }
            Workload::SsspBf => KernelOutput::Distances(sssp_bf::sssp_bf_with(
                graph,
                self.source,
                self.threads,
                self.scheduler,
            )),
            Workload::SsspDelta => KernelOutput::Distances(sssp_delta::sssp_delta(
                graph,
                self.source,
                self.delta,
                self.threads,
            )),
            Workload::PageRank => KernelOutput::Ranks(pagerank::pagerank(
                graph,
                self.pagerank_iterations,
                self.threads,
            )),
            Workload::PageRankDp => KernelOutput::Ranks(pagerank_dp::pagerank_dp(
                graph,
                self.pagerank_iterations,
                self.threads,
            )),
            Workload::TriangleCount => KernelOutput::Count(triangle::triangle_count_with(
                graph,
                self.threads,
                match self.scheduler {
                    // Triangle counting defaults to dynamic for hub balance.
                    Scheduler::Static => Scheduler::Dynamic { grain: 64 },
                    dynamic => dynamic,
                },
            )),
            Workload::Community => KernelOutput::Labels(community::community(
                graph,
                self.community_iterations,
                self.threads,
            )),
            Workload::ConnComp => {
                KernelOutput::Labels(conncomp::conncomp_with(graph, self.threads, self.scheduler))
            }
            Workload::Spmv => KernelOutput::Distances(spmv::spmv_with(
                graph,
                &spmv_input(graph.vertex_count()),
                self.threads,
                self.scheduler,
            )),
            Workload::KCore => {
                KernelOutput::Labels(kcore::kcore_with(graph, self.threads, self.scheduler))
            }
            Workload::LabelProp => KernelOutput::Labels(labelprop::labelprop(
                graph,
                self.community_iterations,
                self.threads,
            )),
            // `Workload` is non_exhaustive; future variants fail loudly.
            #[allow(unreachable_patterns)]
            other => unimplemented!("no kernel for {other}"),
        }
    }
}

/// Static workload name used as the span name and parallel-region label
/// (the observability layer stores `&'static str` only).
fn workload_name(workload: Workload) -> &'static str {
    match workload {
        Workload::Bfs => "bfs",
        Workload::Dfs => "dfs",
        Workload::SsspBf => "sssp_bf",
        Workload::SsspDelta => "sssp_delta",
        Workload::PageRank => "pagerank",
        Workload::PageRankDp => "pagerank_dp",
        Workload::TriangleCount => "triangle_count",
        Workload::Community => "community",
        Workload::ConnComp => "conncomp",
        Workload::Spmv => "spmv",
        Workload::KCore => "kcore",
        Workload::LabelProp => "labelprop",
        #[allow(unreachable_patterns)]
        _ => "kernel",
    }
}

/// The runner's fixed SpMV input vector: a deterministic, non-constant
/// pattern so checksums are sensitive to row permutations.
fn spmv_input(n: usize) -> Vec<f32> {
    (0..n).map(|i| 1.0 + (i % 7) as f32 * 0.25).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_graph::gen::{GraphGenerator, UniformRandom};

    #[test]
    fn runs_all_nine_workloads() {
        let g = UniformRandom::new(200, 1_200).generate(1);
        let runner = KernelRunner::new(4);
        for w in Workload::all() {
            let run = runner.run(w, &g);
            assert!(run.output.checksum().is_finite(), "{w}");
        }
    }

    #[test]
    fn runs_the_extended_workload_set() {
        let g = UniformRandom::new(200, 1_200).generate(1);
        let runner = KernelRunner::new(4);
        for w in Workload::extended() {
            let run = runner.run(w, &g);
            assert!(run.output.checksum().is_finite(), "{w}");
        }
        // The GARDENIA kernels are deterministic across thread counts, so
        // their checksums must agree bit-for-bit between runners.
        for w in [Workload::Spmv, Workload::KCore, Workload::LabelProp] {
            let one = KernelRunner::new(1).run(w, &g).output;
            assert_eq!(KernelRunner::new(8).run(w, &g).output, one, "{w}");
        }
    }

    #[test]
    fn full_tracing_records_kernel_spans_and_worker_regions() {
        // Sparse enough to stay top-down, large enough that middle levels
        // pass the inline floor and enter the pool.
        let g = UniformRandom::new(20_000, 60_000).generate(3);
        let mut width = vec![0; g.vertex_count()];
        for level in crate::verify::bfs_seq(&g, 0) {
            if level != crate::UNREACHED {
                width[level as usize] += 1;
            }
        }
        assert!(!crate::bfs::direction_optimizing(&g));
        assert!(width
            .iter()
            .any(|&w| w >= crate::par::BFS_VERTICES_PER_PARTICIPANT));
        let runner = KernelRunner::new(4);
        heteromap_obs::set_level(heteromap_obs::TraceLevel::Full);
        let run = runner.run(Workload::Bfs, &g);
        heteromap_obs::set_level(heteromap_obs::TraceLevel::Off);
        assert!(run.output.checksum().is_finite());

        // The runner names a span per kernel invocation...
        assert!(!heteromap_obs::spans_named("bfs").is_empty());
        // ...and labels the pool's per-region worker timings with it, so
        // the utilization report can attribute busy time to kernels.
        let regions: Vec<_> = heteromap_obs::util::snapshot_regions()
            .0
            .into_iter()
            .filter(|r| r.label == "bfs")
            .collect();
        assert!(!regions.is_empty(), "pooled BFS must record regions");
        for region in &regions {
            assert!(!region.busy_ns.is_empty());
            let clamped: u64 = region.busy_ns.iter().map(|&b| b.min(region.wall_ns)).sum();
            assert!(clamped <= region.wall_ns * region.busy_ns.len() as u64);
        }
    }

    #[test]
    fn checksum_is_reproducible_for_deterministic_kernels() {
        let g = UniformRandom::new(150, 900).generate(2);
        let runner = KernelRunner::new(3);
        for w in [Workload::Bfs, Workload::PageRank, Workload::TriangleCount] {
            let a = runner.run(w, &g).output.checksum();
            let b = runner.run(w, &g).output.checksum();
            assert_eq!(a, b, "{w}");
        }
    }

    #[test]
    fn from_mconfig_deploys_threads_and_schedule() {
        let limits = DeployLimits {
            max_cores: 61,
            max_threads_per_core: 4,
            max_simd_width: 16,
            max_global_threads: 10_240,
            max_local_threads: 256,
            max_blocktime_ms: 1000,
        };
        let mut cfg = MConfig::multicore_default();
        cfg.cores = 1.0;
        cfg.threads_per_core = 1.0;
        cfg.schedule = OmpSchedule::Dynamic;
        cfg.chunk_size = 0.25;
        let r = KernelRunner::from_mconfig(&cfg, &limits, 8);
        // The job gets the full host budget, capped by what the host
        // actually has.
        let ap = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(usize::MAX);
        assert_eq!(r.threads(), 8.min(ap));
        assert_eq!(r.scheduler, Scheduler::Dynamic { grain: 64 });
        // A one-core configuration of the simulated accelerator, and a GPU
        // placement, deploy the same host budget: the predicted share is
        // not scaled onto the host.
        cfg.cores = 0.0;
        cfg.threads_per_core = 0.0;
        let r = KernelRunner::from_mconfig(&cfg, &limits, 8);
        assert_eq!(r.threads(), 8.min(ap));
        let gpu = MConfig::gpu_default();
        assert_eq!(
            KernelRunner::from_mconfig(&gpu, &limits, 8).threads(),
            8.min(ap)
        );
        // A budget of one thread, or none, runs on one thread.
        assert_eq!(KernelRunner::from_mconfig(&cfg, &limits, 1).threads(), 1);
        assert_eq!(KernelRunner::from_mconfig(&cfg, &limits, 0).threads(), 1);
        // M11 still picks the schedule.
        cfg.schedule = OmpSchedule::Static;
        let r = KernelRunner::from_mconfig(&cfg, &limits, 8);
        assert_eq!(r.scheduler, Scheduler::Static);
    }

    #[test]
    fn from_mconfig_never_oversubscribes_the_host() {
        let limits = DeployLimits {
            max_cores: 61,
            max_threads_per_core: 4,
            max_simd_width: 16,
            max_global_threads: 10_240,
            max_local_threads: 256,
            max_blocktime_ms: 1000,
        };
        let cfg = MConfig::multicore_default();
        // An absurd host budget must still clamp to real parallelism.
        let r = KernelRunner::from_mconfig(&cfg, &limits, 1 << 20);
        let ap = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(usize::MAX);
        assert!(r.threads() <= ap, "{} > {}", r.threads(), ap);
        assert!(r.threads() >= 1);
    }

    #[test]
    fn scheduler_choice_preserves_results() {
        let g = UniformRandom::new(250, 1_500).generate(5);
        let stat = KernelRunner::new(4);
        let dyn_ = KernelRunner::new(4).with_scheduler(Scheduler::Dynamic { grain: 16 });
        for w in [Workload::Bfs, Workload::SsspBf, Workload::ConnComp] {
            assert_eq!(
                stat.run(w, &g).output.checksum(),
                dyn_.run(w, &g).output.checksum(),
                "{w}"
            );
        }
    }

    #[test]
    fn builder_setters_apply() {
        let r = KernelRunner::new(0)
            .with_source(5)
            .with_pagerank_iterations(3)
            .with_delta(2.0);
        assert_eq!(r.threads(), 1); // clamped up
        assert_eq!(r.source, 5);
        assert_eq!(r.pagerank_iterations, 3);
        assert_eq!(r.delta, 2.0);
    }
}
