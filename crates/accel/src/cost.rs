//! Analytical accelerator cost model.
//!
//! This is the hardware substitution at the centre of the reproduction
//! (DESIGN.md §2): instead of executing OpenCL/OpenMP kernels on physical
//! GTX/Xeon-Phi silicon, a first-order analytical model maps
//! `(B, I, M, spec) -> (time, energy, utilization)`. Every term is one the
//! paper names as a performance mechanism:
//!
//! * **compute** — effective parallel lanes from the deployed thread
//!   configuration, degraded by divergence (B4/B5 phases, degree skew) on
//!   GPUs and boosted by SIMD on multicores when data is FP and dense;
//! * **memory** — CSR traffic scaled by cache fit (Phi's 32 MB vs the GPU's
//!   2 MB), indirect addressing (B8) and shared-data movement (B9/B10), with
//!   a coherence penalty for read-write sharing on incoherent GPUs;
//! * **synchronization** — atomics (B12) and barriers (B13 × iterations),
//!   with kernel-launch overhead per GPU round;
//! * **configuration fit** — schedule/chunk vs degree skew, thread placement
//!   vs `Avg.Deg.Dia`, affinity vs B10, blocktime vs contention;
//! * **streaming** — chunk refills when the graph exceeds device memory
//!   (Fig. 16).
//!
//! Constants live in [`Constants`] and were calibrated so the winner matrix
//! of Fig. 11 and the crossovers of Figs. 14–16 hold (see EXPERIMENTS.md).

use crate::spec::AcceleratorSpec;
use heteromap_graph::GraphStats;
use heteromap_model::workload::IterationModel;
use heteromap_model::{BVector, MConfig, OmpSchedule, Workload};

/// Everything the cost model needs to know about one benchmark-input
/// combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadContext {
    /// Benchmark variables.
    pub b: BVector,
    /// Raw input statistics (unnormalized — the model works in real units).
    pub stats: GraphStats,
    /// Outer-iteration scaling.
    pub iteration_model: IterationModel,
    /// Relative per-edge work.
    pub work_per_edge: f64,
}

impl WorkloadContext {
    /// Context for a named paper workload on `stats`.
    pub fn for_workload(workload: Workload, stats: GraphStats) -> Self {
        WorkloadContext {
            b: workload.b_vector(),
            stats,
            iteration_model: workload.iteration_model(),
            work_per_edge: workload.work_per_edge(),
        }
    }

    /// Context for a synthetic benchmark (training-data generation).
    pub fn synthetic(
        b: BVector,
        stats: GraphStats,
        iteration_model: IterationModel,
        work_per_edge: f64,
    ) -> Self {
        WorkloadContext {
            b,
            stats,
            iteration_model,
            work_per_edge,
        }
    }

    /// Resolved outer-iteration count (≥ 1).
    pub fn iterations(&self) -> f64 {
        match self.iteration_model {
            IterationModel::DiameterBound { factor } => {
                (factor * self.stats.diameter as f64).max(1.0)
            }
            IterationModel::Fixed(n) => n.max(1) as f64,
            IterationModel::Single => 1.0,
        }
    }
}

/// Decomposition of a simulated completion time into the model's terms
/// (diagnostics; milliseconds, pre-noise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimBreakdown {
    /// Compute-path time (lanes x frequency x penalties).
    pub compute_ms: f64,
    /// Memory-path time (bandwidth or stall bound).
    pub memory_ms: f64,
    /// Atomic/synchronization serialization time.
    pub sync_ms: f64,
    /// Per-round overhead (GPU kernel launches / multicore barriers).
    pub rounds_ms: f64,
    /// Out-of-memory chunking overhead.
    pub chunking_ms: f64,
    /// Effective parallel lanes the configuration achieved.
    pub lanes: f64,
    /// Cache hit rate the working set achieved.
    pub cache_hit: f64,
}

/// Simulated outcome of one deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// Completion time in milliseconds (on-chip processing only, like the
    /// paper: "only the time spent in processing the graph on-chip").
    pub time_ms: f64,
    /// Energy in joules over the completion time.
    pub energy_j: f64,
    /// Average core utilization in `[0, 1]` (Fig. 13's metric).
    pub utilization: f64,
}

/// Tunable constants of the analytical model. Grouped here so the
/// calibration bench can perturb them (`ablation` targets) and so every
/// magic number is named.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constants {
    /// Fraction of edges re-touched per extra outer iteration.
    pub edge_revisit_per_iter: f64,
    /// Vertex-loop bookkeeping ops per vertex per iteration.
    pub vertex_op_cost: f64,
    /// GPU kernel launch + device sync cost per barrier event (µs).
    pub gpu_launch_us: f64,
    /// Multicore barrier cost at 1 thread (µs); grows with √threads.
    pub mc_barrier_us: f64,
    /// GPU divergence penalty weight on push-pop phases (B4).
    pub gpu_divergence_pushpop: f64,
    /// GPU divergence penalty weight on reduction phases (B5).
    pub gpu_divergence_reduction: f64,
    /// GPU penalty weight for indirect addressing (B8).
    pub gpu_indirect: f64,
    /// GPU memory-path penalty for read-write shared data (no coherence).
    pub gpu_rw_shared: f64,
    /// Multicore memory-path penalty weights for B8/B10 (caches absorb most).
    pub mc_indirect: f64,
    /// Cycles per atomic op on a coherent cache hierarchy.
    pub mc_atomic_cycles: f64,
    /// Cycles per atomic op on a GPU (remote/serialized).
    pub gpu_atomic_cycles: f64,
    /// Fraction of edge work that triggers atomics (share of B12 data).
    pub atomic_fraction: f64,
    /// Fraction of a workload's FP data (B6) that needs double precision.
    pub dp_share: f64,
    /// Thread count at which GPU atomic contention halves throughput.
    pub gpu_atomic_contention_threads: f64,
    /// Baseline fraction of misses that are random (unprefetchable) even
    /// without indirect addressing; B8 raises it towards 1.
    pub random_miss_base: f64,
    /// Weight of the GPU over-threading memory-stress term.
    pub gpu_stress: f64,
    /// GPU memory-path inflation per unit of divergent phases (B4+B5) —
    /// divergent warps uncoalesce.
    pub gpu_uncoalesce_divergent: f64,
    /// GPU memory-path inflation per unit of indirect addressing (B8).
    pub gpu_uncoalesce_indirect: f64,
    /// GPU memory-path inflation from degree skew squared — one monster
    /// vertex (Twitter's 3M-degree hubs) serializes its warp's accesses.
    pub gpu_uncoalesce_skew: f64,
    /// Per-chunk overhead (ms) when streaming an out-of-memory graph.
    pub chunk_overhead_ms: f64,
    /// Busy-time inflation per doubling of chunk count (cut-edge revisits).
    pub chunk_cut_penalty: f64,
    /// Cache-line sharing factor for prefetchable streaming misses.
    pub line_share: f64,
    /// SMT yield: marginal throughput of each extra hardware thread/core.
    pub smt_yield: f64,
    /// Sub-linear thread-count scaling exponent: deploying a fraction `f`
    /// of a machine's cores/threads yields `f^gamma` of its peak (memory
    /// systems saturate well before full concurrency — the reason the
    /// paper's Fig. 7 finds 7 of 61 Phi cores within ~15% of optimal).
    pub thread_scaling_gamma: f64,
    /// GPU threads per core needed for full latency hiding.
    pub gpu_occupancy_threads: f64,
    /// Weight of the locality-need multiplier from B8/B10 on working set.
    pub locality_need_indirect: f64,
    /// Scale on the multicore's sustained IPC (calibration lever for how
    /// badly the in-order Phi cores fare on irregular traversals).
    pub mc_ipc_scale: f64,
    /// Scale on the multicore's memory-level parallelism.
    pub mc_mlp_scale: f64,
    /// Strength of the multicore SIMD boost on dense FP inner loops.
    pub simd_boost_weight: f64,
    /// Multicore memory-latency inflation per doubling of the
    /// footprint-to-cache ratio (TLB pressure, page-table walks, NUMA/ring
    /// hops on very large graphs) — the mechanism behind the paper's
    /// "Frnd/Kron perform better on the GPU because they are large".
    pub mc_large_graph: f64,
    /// Penalty weight for schedule/skew mismatch.
    pub schedule_mismatch: f64,
    /// Penalty weight for placement mismatch.
    pub placement_mismatch: f64,
    /// Penalty weight for affinity mismatch.
    pub affinity_mismatch: f64,
    /// Penalty weight for blocktime mismatch.
    pub blocktime_mismatch: f64,
    /// Multiplicative noise amplitude (deterministic, hash-seeded).
    pub noise_amp: f64,
}

impl Constants {
    /// Constants calibrated against the paper's Figs. 11–16 (EXPERIMENTS.md).
    pub fn paper() -> Self {
        Constants {
            edge_revisit_per_iter: 0.111,
            vertex_op_cost: 2.0,
            gpu_launch_us: 0.93,
            mc_barrier_us: 2.58,
            gpu_divergence_pushpop: 0.8,
            gpu_divergence_reduction: 6.0,
            gpu_indirect: 1.72,
            gpu_rw_shared: 0.22,
            mc_indirect: 0.085,
            mc_atomic_cycles: 1.0,
            gpu_atomic_cycles: 80.0,
            atomic_fraction: 0.143,
            dp_share: 1.0,
            gpu_atomic_contention_threads: 307.0,
            random_miss_base: 0.9,
            gpu_stress: 8.0e-6,
            gpu_uncoalesce_divergent: 0.195,
            gpu_uncoalesce_indirect: 0.43,
            gpu_uncoalesce_skew: 0.3,
            chunk_overhead_ms: 0.01,
            chunk_cut_penalty: 0.5,
            line_share: 2.0,
            smt_yield: 1.0,
            thread_scaling_gamma: 0.25,
            gpu_occupancy_threads: 4.52,
            locality_need_indirect: 1.5,
            mc_ipc_scale: 2.0,
            mc_mlp_scale: 2.0,
            simd_boost_weight: 5.2,
            mc_large_graph: 6.0,
            schedule_mismatch: 0.30,
            placement_mismatch: 0.25,
            affinity_mismatch: 0.15,
            blocktime_mismatch: 0.10,
            noise_amp: 0.02,
        }
    }
}

impl Default for Constants {
    fn default() -> Self {
        Constants::paper()
    }
}

/// The analytical cost model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostModel {
    constants: Constants,
}

impl CostModel {
    /// Model with the paper-calibrated constants.
    pub fn paper() -> Self {
        CostModel {
            constants: Constants::paper(),
        }
    }

    /// Model with custom constants (ablation studies).
    pub fn with_constants(constants: Constants) -> Self {
        CostModel { constants }
    }

    /// The active constants.
    pub fn constants(&self) -> &Constants {
        &self.constants
    }

    /// Simulates deploying `ctx` on `spec` with machine configuration `cfg`,
    /// using the spec's default memory capacity.
    ///
    /// Note: `cfg.accelerator` selects which machine in a *pair* runs the
    /// workload; this method evaluates `spec` regardless, so callers decide
    /// the mapping (see `MultiAcceleratorSystem`).
    pub fn evaluate(
        &self,
        spec: &AcceleratorSpec,
        ctx: &WorkloadContext,
        cfg: &MConfig,
    ) -> SimReport {
        self.evaluate_with_memory(spec, ctx, cfg, spec.mem_gb)
    }

    /// Simulates with an explicit memory capacity (Fig. 16 sweeps).
    pub fn evaluate_with_memory(
        &self,
        spec: &AcceleratorSpec,
        ctx: &WorkloadContext,
        cfg: &MConfig,
        mem_gb: f64,
    ) -> SimReport {
        self.evaluate_detailed(spec, ctx, cfg, mem_gb).0
    }

    /// Like [`CostModel::evaluate_with_memory`], but also returns the time
    /// decomposition — which architectural term bound the deployment.
    pub fn evaluate_detailed(
        &self,
        spec: &AcceleratorSpec,
        ctx: &WorkloadContext,
        cfg: &MConfig,
        mem_gb: f64,
    ) -> (SimReport, SimBreakdown) {
        let k = &self.constants;
        let b = ctx.b.as_array();
        let (b1, b2, b3, b4, b5) = (b[0], b[1], b[2], b[3], b[4]);
        let (b6, b7, b8, b9, b10) = (b[5], b[6], b[7], b[8], b[9]);
        let (_b11, b12, b13) = (b[10], b[11], b[12]);

        let v = (ctx.stats.vertices as f64).max(1.0);
        let e = (ctx.stats.edges as f64).max(1.0);
        let avg_deg = e / v;
        let iterations = ctx.iterations();
        // Degree skew in [0, 1]: how far the max degree sits above the mean.
        let skew =
            (((ctx.stats.max_degree as f64 + 1.0) / (avg_deg + 1.0)).log2() / 14.0).clamp(0.0, 1.0);

        // ----- total work ---------------------------------------------------
        let edge_revisit = 1.0 + k.edge_revisit_per_iter * (iterations - 1.0);
        let edge_ops = e * ctx.work_per_edge * edge_revisit;
        let vertex_ops = v * k.vertex_op_cost * iterations;
        let compute_ops = edge_ops + vertex_ops;

        // ----- effective lanes ----------------------------------------------
        let limits = spec.deploy_limits();
        let is_gpu = spec.is_gpu();
        // Available algorithmic parallelism: a traversal's per-round frontier
        // (V / iterations) fans out over its edges.
        let frontier = (v / iterations).max(1.0);
        let par_limit = frontier * (1.0 + avg_deg / 4.0);

        let (lanes, deployed_threads, occupancy) = if is_gpu {
            let t = limits.global_threads(cfg) as f64;
            let local = limits.local_threads(cfg) as f64;
            // Latency hiding needs several resident threads per core;
            // occupancy saturates sub-linearly (memory-bound kernels reach
            // near-peak well below full residency).
            let occ = (t / (spec.cores as f64 * k.gpu_occupancy_threads))
                .clamp(0.0, 1.0)
                .powf(k.thread_scaling_gamma)
                .clamp(0.05, 1.0);
            // Local threading should match edge density: too many local
            // threads on a sparse graph waste issue slots (Fig. 1's interior
            // optimum on CAGE-14), too few leave edge parallelism unused.
            let local_norm = local / limits.max_local_threads as f64;
            let density_target = (avg_deg / 32.0).clamp(0.05, 1.0);
            let local_eff = 1.0 - (local_norm - density_target).abs() * 0.45;
            let raw = spec.cores as f64 * occ * local_eff;
            (raw.min(par_limit), t, occ)
        } else {
            // Sub-linear core scaling: a fraction f of the cores delivers
            // f^gamma of peak throughput and memory-level parallelism.
            let c_raw = limits.cores(cfg) as f64;
            let c = spec.cores as f64 * (c_raw / spec.cores as f64).powf(k.thread_scaling_gamma);
            let tpc = limits.threads_per_core(cfg) as f64;
            let t = c_raw * tpc;
            // SMT threads yield diminishing returns.
            let smt = 1.0 + (tpc - 1.0) * k.smt_yield;
            // SIMD helps only FP-dense, non-indirect inner loops (§III-C).
            let simd_w = limits.simd_width(cfg) as f64;
            let simd_usable = b6 * (1.0 - b8) * (avg_deg / 16.0).clamp(0.0, 1.0);
            let simd_boost = 1.0
                + (simd_w - 1.0) / spec.simd_width.max(1) as f64
                    * simd_usable
                    * cfg.simd
                    * k.simd_boost_weight;
            let raw = c * smt * simd_boost;
            (
                raw.min(par_limit),
                t,
                (t / spec.hw_threads() as f64).min(1.0),
            )
        };
        let lanes = lanes.max(1.0);

        // ----- compute time -------------------------------------------------
        // FP penalty from the SP/DP imbalance: a `dp_share` fraction of the
        // FP work (B6) runs at the double-precision rate, which on the GTX
        // GPUs is ~1/32 of single precision (Table II).
        let dp_slowdown = (spec.sp_tflops / spec.dp_tflops.max(1e-3) - 1.0).clamp(0.0, 40.0);
        let fp_penalty = 1.0 + b6 * k.dp_share * dp_slowdown;
        // Divergence: serial-leaning phases and skewed degrees break warps.
        let divergence = if is_gpu {
            1.0 + k.gpu_divergence_pushpop * b4
                + k.gpu_divergence_reduction * b5
                + 1.2 * skew * (1.0 - cfg_dynamic(cfg))
        } else {
            1.0 + 0.25 * b4
        };
        // Indirect addressing is costly without big caches (§III-C B7/B8).
        let addressing = if is_gpu {
            1.0 + k.gpu_indirect * b8 + 0.15 * (1.0 - b7)
        } else {
            1.0 + k.mc_indirect * b8
        };
        // Configuration-fit multipliers (multicore knobs).
        let fit = self.config_fit(spec, ctx, cfg, skew);

        let ipc = if is_gpu {
            spec.ipc
        } else {
            spec.ipc * k.mc_ipc_scale
        };
        let ops_per_sec = lanes * spec.freq_ghz * ipc * 1e9;
        let compute_s = compute_ops * fp_penalty * divergence * addressing * fit / ops_per_sec;

        // ----- memory time ----------------------------------------------------
        let footprint = ctx.stats.footprint_bytes() as f64;
        let cache_bytes = spec.cache_mb * 1024.0 * 1024.0;
        // On the GPU, sharing and indirect access inflate the hot working set
        // (no coherence to keep shared lines resident); coherent multicores
        // keep read-write shared structures cached — their caches only
        // struggle with truly indirect metadata (§III-C).
        let locality_need = if is_gpu {
            1.0 + k.locality_need_indirect * b8 + 1.0 * b10 + 0.5 * b9
        } else {
            (1.0 + 0.5 * b8 - 0.4 * b9).max(0.6)
        };
        let hit = (cache_bytes / (footprint * locality_need)).clamp(0.02, 0.98);
        let miss_ops = compute_ops * (1.0 - hit);
        let rw_penalty = if is_gpu {
            // No coherence: read-write sharing bounces through DRAM.
            1.0 + k.gpu_rw_shared * b10
        } else {
            1.0 + 0.1 * b10
        };
        let memory_s = if is_gpu {
            // Bandwidth-bound: warp switching hides latency, but divergent
            // phases and indirect gathers break coalescing, and
            // over-threading stresses the small cache/memory system.
            let uncoalesce = 1.0
                + k.gpu_uncoalesce_divergent * (0.25 * b4 + b5)
                + k.gpu_uncoalesce_indirect * b8
                + k.gpu_uncoalesce_skew * skew * skew;
            let stress = 1.0
                + (deployed_threads / spec.hw_threads() as f64).powi(2)
                    * (footprint / (cache_bytes * 8.0)).clamp(0.0, 1.0)
                    * k.gpu_stress;
            let traffic = miss_ops * spec.bytes_per_miss_op * rw_penalty * uncoalesce;
            let low_occ_leak = 1.0 + (1.0 - occupancy) * 0.5;
            traffic * stress * low_occ_leak / (spec.mem_bw_gbs * spec.eff_bw_frac * 1e9)
        } else {
            // Two paths: streamed misses ride the prefetchers (bandwidth),
            // random misses stall the in-order/OoO cores (latency × MLP).
            let random_frac =
                (k.random_miss_base + (1.0 - k.random_miss_base) * b8).clamp(0.0, 1.0);
            let traffic = miss_ops * spec.bytes_per_miss_op * rw_penalty;
            let bw_s = traffic / (spec.mem_bw_gbs * spec.eff_bw_frac * 1e9);
            let active_cores = spec.cores as f64
                * (limits.cores(cfg) as f64 / spec.cores as f64).powf(k.thread_scaling_gamma);
            let mlp = spec.mlp_per_core
                * k.mc_mlp_scale
                * (1.0 + (limits.threads_per_core(cfg) as f64 - 1.0) * 0.5);
            let random_lines = miss_ops * random_frac;
            let streamed_lines = miss_ops * (1.0 - random_frac) / k.line_share;
            let tlb =
                1.0 + k.mc_large_graph * (footprint / (cache_bytes * 32.0)).log2().max(0.0) / 8.0;
            let stall_s = (random_lines + streamed_lines) * spec.mem_latency_ns * tlb * 1e-9
                / (active_cores * mlp).max(1.0);
            bw_s.max(stall_s)
        };

        // ----- synchronization time ------------------------------------------
        let barriers_per_iter = b13 * 10.0;
        let atomic_ops = edge_ops * b12 * k.atomic_fraction;
        let atomic_cycles = if is_gpu {
            k.gpu_atomic_cycles
        } else {
            k.mc_atomic_cycles
        };
        // Atomics serialize under contention: effective atomic parallelism
        // shrinks as contention (B12) and thread count grow.
        let contention_scale = if is_gpu {
            k.gpu_atomic_contention_threads
        } else {
            1024.0
        };
        let atomic_lanes = (lanes / (1.0 + b12 * deployed_threads / contention_scale)).max(1.0);
        let sync_s = atomic_ops * atomic_cycles / (atomic_lanes * spec.freq_ghz * 1e9);
        let round_overhead_s = if is_gpu {
            iterations * (barriers_per_iter + 1.0) * k.gpu_launch_us * 1e-6
        } else {
            let bt_relief = 1.0 - 0.3 * (1.0 - (cfg.blocktime - ctx.b.contention()).abs());
            iterations
                * (barriers_per_iter + 0.5)
                * k.mc_barrier_us
                * deployed_threads.powf(0.25)
                * bt_relief.max(0.4)
                * 1e-6
        };

        // ----- streaming (graph larger than device memory) --------------------
        // The paper excludes host-to-device transfer time from completion
        // time (§VI-C) but still processes oversized graphs in Stinger-style
        // chunks; chunking costs per-chunk setup rounds and cut-edge
        // revisits, so small memories hurt (Fig. 16) without modelling PCIe.
        let mem_bytes = mem_gb * 1e9;
        let (chunk_mult, chunk_s) = if footprint > mem_bytes {
            let chunks = (footprint / mem_bytes).ceil();
            let passes = match ctx.iteration_model {
                IterationModel::Single => 1.0,
                _ => (iterations * 0.25).max(1.0),
            };
            (
                1.0 + k.chunk_cut_penalty * chunks.log2().max(0.0),
                chunks * passes * k.chunk_overhead_ms * 1e-3,
            )
        } else {
            (1.0, 0.0)
        };

        // ----- assemble --------------------------------------------------------
        // Compute and memory overlap; sync and launch rounds do not.
        let busy_s = compute_s.max(memory_s) * chunk_mult;
        let total_s = busy_s + sync_s + round_overhead_s + chunk_s;
        let noise = 1.0 + k.noise_amp * hash_pm1(spec, ctx, cfg);
        let time_ms = total_s * 1e3 * noise;

        // Utilization: share of time cores do useful work, scaled by how
        // much of the machine is occupied. GPUs hide memory latency through
        // thread switching (paper §VII-C), multicores stall.
        let latency_hiding = if is_gpu { 0.6 * occupancy } else { 0.0 };
        let busy_frac = (compute_s + latency_hiding * memory_s).min(busy_s) / total_s;
        let machine_frac = if is_gpu {
            occupancy
        } else {
            deployed_threads / spec.hw_threads() as f64
        };
        let utilization = (busy_frac * machine_frac.clamp(0.05, 1.0)).clamp(0.01, 1.0);

        // Energy: idle + dynamic power over the run.
        let power_w = spec.idle_w() + (spec.tdp_w - spec.idle_w()) * utilization;
        let energy_j = power_w * total_s * noise;

        // Silence unused-variable warnings for phase vars folded into other
        // terms already (b1..b3 raise parallelism implicitly through the
        // absence of b4/b5 penalties).
        let _ = (b1, b2, b3);

        (
            SimReport {
                time_ms,
                energy_j,
                utilization,
            },
            SimBreakdown {
                compute_ms: compute_s * 1e3,
                memory_ms: memory_s * 1e3,
                sync_ms: sync_s * 1e3,
                rounds_ms: round_overhead_s * 1e3,
                chunking_ms: chunk_s * 1e3,
                lanes,
                cache_hit: hit,
            },
        )
    }

    /// Multiplier (≥ 1) capturing how well the second-order knobs fit the
    /// workload: OpenMP schedule vs skew, placement vs `Avg.Deg.Dia`,
    /// affinity vs read-write sharing, nested parallelism for dense inner
    /// loops.
    fn config_fit(
        &self,
        spec: &AcceleratorSpec,
        ctx: &WorkloadContext,
        cfg: &MConfig,
        skew: f64,
    ) -> f64 {
        let k = &self.constants;
        let b = ctx.b.as_array();
        let (b9, b10) = (b[8], b[9]);
        let avg_deg = ctx.stats.average_degree();
        let mut fit = 1.0;

        // Dynamic scheduling mitigates skewed work (paper §III-A: "dynamic
        // scheduling on read-write shared data"), at a small fixed cost.
        let want_dynamic = (skew * 1.5 + b10 * 0.4).clamp(0.0, 1.0);
        let have_dynamic = cfg_dynamic(cfg);
        fit += k.schedule_mismatch * (want_dynamic - have_dynamic).abs();
        // Chunk size should shrink as skew grows.
        let ideal_chunk = (1.0 - skew).clamp(0.1, 0.9);
        fit += 0.08 * (cfg.chunk_size - ideal_chunk).abs();

        if !spec.is_gpu() {
            // Loose placement for high-diameter graphs (paper's Avg.Deg.Dia
            // reasoning behind M5-7).
            let dia_norm = (ctx.stats.diameter as f64 / 2_622.0).sqrt().clamp(0.0, 1.0);
            let ideal_place = (0.2 + 0.6 * dia_norm + 0.2 * skew).clamp(0.0, 1.0);
            fit += k.placement_mismatch * (cfg.placement() - ideal_place).abs() * (b9 + b10);
            // Pin threads when read-write shared data is high (M8 equation).
            fit += k.affinity_mismatch * (cfg.affinity - b10).abs();
            // Blocktime should track contention (M4 equation).
            fit += k.blocktime_mismatch * (cfg.blocktime - ctx.b.contention()).abs();
            // Nested parallelism pays off on dense inner loops (the DFS-CO
            // exception in §VII-B) and costs a little otherwise.
            if cfg.nested {
                let dense = (avg_deg / 64.0).clamp(0.0, 1.0);
                fit -= 0.25 * dense * cfg.max_active_levels;
                fit += 0.04;
            }
            // Wait policy: active spinning helps at low contention.
            let contention = ctx.b.contention();
            if cfg.wait_policy_active {
                fit += 0.05 * contention;
            } else {
                fit += 0.05 * (1.0 - contention);
            }
            // proc_bind echoes affinity weakly; dynamic team adjustment
            // helps slightly under skew.
            fit += 0.03 * (cfg.proc_bind - b10).abs();
            if cfg.dynamic_adjust {
                fit -= 0.03 * skew;
                fit += 0.015;
            }
            // Spin count: longer active waits pay under high contention.
            fit += 0.04 * (cfg.spin_count - contention).abs();
        }
        fit.max(0.5)
    }
}

/// 1 for dynamic-ish schedules, 0 for static, graded in between.
fn cfg_dynamic(cfg: &MConfig) -> f64 {
    match cfg.schedule {
        OmpSchedule::Static => 0.0,
        OmpSchedule::Dynamic => 1.0,
        OmpSchedule::Guided => 0.8,
        OmpSchedule::Auto => 0.5,
    }
}

/// Deterministic noise in `[-1, 1]` from a hash of the scenario, so repeated
/// evaluations are stable but distinct scenarios de-tie.
fn hash_pm1(spec: &AcceleratorSpec, ctx: &WorkloadContext, cfg: &MConfig) -> f64 {
    use std::hash::{Hash, Hasher};
    let mut h = heteromap_model::StableHasher::new();
    spec.name.hash(&mut h);
    ctx.stats.vertices.hash(&mut h);
    ctx.stats.edges.hash(&mut h);
    ctx.stats.diameter.hash(&mut h);
    for x in ctx.b.as_array() {
        x.to_bits().hash(&mut h);
    }
    for x in cfg.as_array() {
        x.to_bits().hash(&mut h);
    }
    let v = h.finish();
    (v as f64 / u64::MAX as f64) * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_graph::datasets::Dataset;

    fn sim(spec: &AcceleratorSpec, w: Workload, d: Dataset, cfg: &MConfig) -> SimReport {
        CostModel::paper().evaluate(spec, &WorkloadContext::for_workload(w, d.stats()), cfg)
    }

    #[test]
    fn reports_are_finite_and_positive() {
        let gpu = AcceleratorSpec::gtx_750ti();
        let phi = AcceleratorSpec::xeon_phi_7120p();
        for w in Workload::all() {
            for d in Dataset::all() {
                for (spec, cfg) in [
                    (&gpu, MConfig::gpu_default()),
                    (&phi, MConfig::multicore_default()),
                ] {
                    let r = sim(spec, w, d, &cfg);
                    assert!(r.time_ms.is_finite() && r.time_ms > 0.0, "{w} {d}");
                    assert!(r.energy_j.is_finite() && r.energy_j > 0.0, "{w} {d}");
                    assert!((0.0..=1.0).contains(&r.utilization), "{w} {d}");
                }
            }
        }
    }

    #[test]
    fn more_edges_cost_more_time() {
        let gpu = AcceleratorSpec::gtx_750ti();
        let cfg = MConfig::gpu_default();
        let small = WorkloadContext::for_workload(
            Workload::PageRank,
            heteromap_graph::GraphStats::from_known(1_000_000, 8_000_000, 100, 10),
        );
        let large = WorkloadContext::for_workload(
            Workload::PageRank,
            heteromap_graph::GraphStats::from_known(1_000_000, 64_000_000, 100, 10),
        );
        let m = CostModel::paper();
        assert!(m.evaluate(&gpu, &large, &cfg).time_ms > m.evaluate(&gpu, &small, &cfg).time_ms);
    }

    #[test]
    fn diameter_hurts_gpu_more_than_multicore() {
        // The paper's Fig. 1 motivation: high-diameter road networks favour
        // the multicore for SSSP-Delta.
        let gpu = AcceleratorSpec::gtx_750ti();
        let phi = AcceleratorSpec::xeon_phi_7120p();
        let g = sim(
            &gpu,
            Workload::SsspDelta,
            Dataset::UsaCal,
            &MConfig::gpu_default(),
        );
        let m = sim(
            &phi,
            Workload::SsspDelta,
            Dataset::UsaCal,
            &MConfig::multicore_default(),
        );
        assert!(
            m.time_ms < g.time_ms,
            "Phi {:.2}ms should beat GPU {:.2}ms on SSSP-Delta/CA",
            m.time_ms,
            g.time_ms
        );
    }

    #[test]
    fn dense_graph_favours_gpu_for_sssp() {
        // Fig. 1's other half: CAGE-14 maps optimally onto the GPU.
        let gpu = AcceleratorSpec::gtx_750ti();
        let phi = AcceleratorSpec::xeon_phi_7120p();
        let g = sim(
            &gpu,
            Workload::SsspBf,
            Dataset::Cage14,
            &MConfig::gpu_default(),
        );
        let m = sim(
            &phi,
            Workload::SsspBf,
            Dataset::Cage14,
            &MConfig::multicore_default(),
        );
        assert!(
            g.time_ms < m.time_ms,
            "GPU {:.2}ms should beat Phi {:.2}ms on SSSP-BF/CAGE",
            g.time_ms,
            m.time_ms
        );
    }

    #[test]
    fn streaming_kicks_in_beyond_memory() {
        let gpu = AcceleratorSpec::gtx_750ti();
        let ctx = WorkloadContext::for_workload(Workload::PageRank, Dataset::Twitter.stats());
        let cfg = MConfig::gpu_default();
        let m = CostModel::paper();
        let small = m.evaluate_with_memory(&gpu, &ctx, &cfg, 1.0);
        let large = m.evaluate_with_memory(&gpu, &ctx, &cfg, 64.0);
        assert!(small.time_ms > large.time_ms);
    }

    #[test]
    fn fp_heavy_workloads_prefer_the_phi() {
        // PageRank needs FP; the Phi's DP capability dwarfs the GTX-750Ti's.
        let gpu = AcceleratorSpec::gtx_750ti();
        let phi = AcceleratorSpec::xeon_phi_7120p();
        let g = sim(
            &gpu,
            Workload::PageRank,
            Dataset::LiveJournal,
            &MConfig::gpu_default(),
        );
        let m = sim(
            &phi,
            Workload::PageRank,
            Dataset::LiveJournal,
            &MConfig::multicore_default(),
        );
        assert!(m.time_ms < g.time_ms);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let gpu = AcceleratorSpec::gtx_750ti();
        let a = sim(
            &gpu,
            Workload::Bfs,
            Dataset::Facebook,
            &MConfig::gpu_default(),
        );
        let b = sim(
            &gpu,
            Workload::Bfs,
            Dataset::Facebook,
            &MConfig::gpu_default(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn thread_sweep_has_interior_or_monotone_shape() {
        // Sweeping GPU global threads must produce a well-formed curve:
        // strictly positive, finite, and not constant.
        let gpu = AcceleratorSpec::gtx_750ti();
        let ctx = WorkloadContext::for_workload(Workload::SsspBf, Dataset::Cage14.stats());
        let m = CostModel::paper();
        let times: Vec<f64> = (0..=10)
            .map(|i| {
                let mut cfg = MConfig::gpu_default();
                cfg.global_threads = i as f64 / 10.0;
                m.evaluate(&gpu, &ctx, &cfg).time_ms
            })
            .collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.05, "sweep should vary: {times:?}");
    }

    #[test]
    fn breakdown_terms_compose_the_total() {
        let gpu = AcceleratorSpec::gtx_750ti();
        let ctx = WorkloadContext::for_workload(Workload::SsspDelta, Dataset::UsaCal.stats());
        let cfg = MConfig::gpu_default();
        let m = CostModel::paper();
        let (report, b) = m.evaluate_detailed(&gpu, &ctx, &cfg, 2.0);
        let assembled = b.compute_ms.max(b.memory_ms)
            * (1.0 + 0.0) // chunk multiplier is 1 when the graph fits
            + b.sync_ms
            + b.rounds_ms
            + b.chunking_ms;
        // Noise is +/-2%, so the assembled total matches within 3%.
        assert!(
            (assembled / report.time_ms - 1.0).abs() < 0.03,
            "assembled {assembled} vs {}",
            report.time_ms
        );
        assert!((0.0..=1.0).contains(&b.cache_hit));
        assert!(b.lanes >= 1.0);
    }

    #[test]
    fn phi_dissipates_more_energy_than_gpu_at_equal_time() {
        // "The Xeon Phi has a larger power rating ... hence it dissipates
        // more energy" — with comparable times, Phi energy must be higher.
        let gpu = AcceleratorSpec::gtx_750ti();
        let phi = AcceleratorSpec::xeon_phi_7120p();
        let g = sim(
            &gpu,
            Workload::Bfs,
            Dataset::Facebook,
            &MConfig::gpu_default(),
        );
        let m = sim(
            &phi,
            Workload::Bfs,
            Dataset::Facebook,
            &MConfig::multicore_default(),
        );
        let g_power = g.energy_j / g.time_ms;
        let m_power = m.energy_j / m.time_ms;
        assert!(m_power > g_power);
    }
}
