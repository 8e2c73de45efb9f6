//! Machine (`M`) variables — the 20 inter- and intra-accelerator choices of
//! Fig. 3.

use crate::discretize::Grid;
use crate::M_DIM;
use std::fmt;

/// The inter-accelerator choice `M1`: which machine runs the combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Accelerator {
    /// Run on the GPU (massive threading, small caches, no coherence).
    Gpu,
    /// Run on the multicore/manycore (caches, coherence, strong cores).
    Multicore,
}

impl Accelerator {
    /// Both accelerators, GPU first (the paper's better baseline).
    pub const ALL: [Accelerator; 2] = [Accelerator::Gpu, Accelerator::Multicore];

    /// The other accelerator of the pair (the failover target).
    pub fn other(self) -> Accelerator {
        match self {
            Accelerator::Gpu => Accelerator::Multicore,
            Accelerator::Multicore => Accelerator::Gpu,
        }
    }
}

impl fmt::Display for Accelerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Accelerator::Gpu => f.write_str("GPU"),
            Accelerator::Multicore => f.write_str("Multicore"),
        }
    }
}

/// OpenMP `for schedule` choice (`M11` in Fig. 3: "static, dynamic, guided,
/// or auto").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OmpSchedule {
    /// Fixed chunk assignment at loop entry.
    Static,
    /// Work-stealing chunk assignment at runtime.
    Dynamic,
    /// Exponentially shrinking chunks.
    Guided,
    /// Runtime picks.
    Auto,
}

impl OmpSchedule {
    /// All schedule kinds in `M11` encoding order.
    pub const ALL: [OmpSchedule; 4] = [
        OmpSchedule::Static,
        OmpSchedule::Dynamic,
        OmpSchedule::Guided,
        OmpSchedule::Auto,
    ];

    /// Encodes the schedule into `[0, 1]` (index / 3).
    pub fn to_level(self) -> f64 {
        match self {
            OmpSchedule::Static => 0.0,
            OmpSchedule::Dynamic => 1.0 / 3.0,
            OmpSchedule::Guided => 2.0 / 3.0,
            OmpSchedule::Auto => 1.0,
        }
    }

    /// Decodes a `[0, 1]` level into the nearest schedule.
    pub fn from_level(level: f64) -> Self {
        let idx = (level.clamp(0.0, 1.0) * 3.0).round() as usize;
        Self::ALL[idx.min(3)]
    }
}

impl fmt::Display for OmpSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OmpSchedule::Static => "static",
            OmpSchedule::Dynamic => "dynamic",
            OmpSchedule::Guided => "guided",
            OmpSchedule::Auto => "auto",
        };
        f.write_str(s)
    }
}

/// A full machine configuration `M1..M20`.
///
/// All continuous variables are stored **normalized** in `[0, 1]`; the
/// deployable (integer) values are obtained through [`DeployLimits`], which
/// carries each accelerator's maxima (e.g. `CL_KERNEL_WORK_GROUP_SIZE` →
/// `max_local_threads`). This mirrors the paper's `M = a(B, I) + k` equations
/// whose results are multiplied by the machine maxima on deployment.
///
/// This is a passive configuration record, so fields are public.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MConfig {
    /// `M1` — selected accelerator.
    pub accelerator: Accelerator,
    /// `M2` — multicore core count (normalized).
    pub cores: f64,
    /// `M3` — multicore threads per core (normalized).
    pub threads_per_core: f64,
    /// `M4` — KMP blocktime: how long a thread spins before sleeping.
    pub blocktime: f64,
    /// `M5` — thread placement: core ids.
    pub place_core_ids: f64,
    /// `M6` — thread placement: thread ids.
    pub place_thread_ids: f64,
    /// `M7` — thread placement: thread offsets.
    pub place_offsets: f64,
    /// `M8` — KMP affinity: 0 = movable by the scheduler, 1 = strictly pinned.
    pub affinity: f64,
    /// `M9` — `#pragma simd` usage intensity.
    pub simd: f64,
    /// `M10` — SIMD width (normalized).
    pub simd_width: f64,
    /// `M11` — OpenMP `for schedule` kind.
    pub schedule: OmpSchedule,
    /// `M12` — OpenMP schedule chunk/tile size (normalized).
    pub chunk_size: f64,
    /// `M13` — `OMP_NESTED`: exploit nested parallelism.
    pub nested: bool,
    /// `M14` — `OMP_MAX_ACTIVE_LEVELS` (normalized).
    pub max_active_levels: f64,
    /// `M15` — `GOMP_SPINCOUNT`: active-wait duration (normalized).
    pub spin_count: f64,
    /// `M16` — `OMP_WAIT_POLICY`: `true` = active, `false` = passive.
    pub wait_policy_active: bool,
    /// `M17` — `OMP_PROC_BIND` tightness (normalized).
    pub proc_bind: f64,
    /// `M18` — `OMP_DYNAMIC`: let the runtime adjust team sizes.
    pub dynamic_adjust: bool,
    /// `M19` — GPU global thread count (normalized).
    pub global_threads: f64,
    /// `M20` — GPU local (per-core / work-group) thread count (normalized).
    pub local_threads: f64,
}

impl MConfig {
    /// A neutral GPU configuration: full global threading, moderate local.
    pub fn gpu_default() -> Self {
        MConfig {
            accelerator: Accelerator::Gpu,
            global_threads: 1.0,
            local_threads: 0.5,
            ..Self::base()
        }
    }

    /// A neutral multicore configuration: all cores, moderate threading.
    pub fn multicore_default() -> Self {
        MConfig {
            accelerator: Accelerator::Multicore,
            cores: 1.0,
            threads_per_core: 0.5,
            ..Self::base()
        }
    }

    fn base() -> Self {
        MConfig {
            accelerator: Accelerator::Gpu,
            cores: 1.0,
            threads_per_core: 0.5,
            blocktime: 0.2,
            place_core_ids: 0.5,
            place_thread_ids: 0.5,
            place_offsets: 0.5,
            affinity: 0.5,
            simd: 0.5,
            simd_width: 0.5,
            schedule: OmpSchedule::Static,
            chunk_size: 0.5,
            nested: false,
            max_active_levels: 0.0,
            spin_count: 0.2,
            wait_policy_active: true,
            proc_bind: 0.5,
            dynamic_adjust: false,
            global_threads: 1.0,
            local_threads: 0.5,
        }
    }

    /// Encodes the configuration as 20 values in `[0, 1]`
    /// (`[M1, ..., M20]`; `M1`: 0 = GPU, 1 = multicore). This is the output
    /// encoding of every learned predictor.
    pub fn as_array(&self) -> [f64; M_DIM] {
        [
            match self.accelerator {
                Accelerator::Gpu => 0.0,
                Accelerator::Multicore => 1.0,
            },
            self.cores,
            self.threads_per_core,
            self.blocktime,
            self.place_core_ids,
            self.place_thread_ids,
            self.place_offsets,
            self.affinity,
            self.simd,
            self.simd_width,
            self.schedule.to_level(),
            self.chunk_size,
            if self.nested { 1.0 } else { 0.0 },
            self.max_active_levels,
            self.spin_count,
            if self.wait_policy_active { 1.0 } else { 0.0 },
            self.proc_bind,
            if self.dynamic_adjust { 1.0 } else { 0.0 },
            self.global_threads,
            self.local_threads,
        ]
    }

    /// Decodes a 20-value array (clamping each element into `[0, 1]`).
    pub fn from_array(values: [f64; M_DIM]) -> Self {
        let c = |x: f64| x.clamp(0.0, 1.0);
        MConfig {
            accelerator: if values[0] >= 0.5 {
                Accelerator::Multicore
            } else {
                Accelerator::Gpu
            },
            cores: c(values[1]),
            threads_per_core: c(values[2]),
            blocktime: c(values[3]),
            place_core_ids: c(values[4]),
            place_thread_ids: c(values[5]),
            place_offsets: c(values[6]),
            affinity: c(values[7]),
            simd: c(values[8]),
            simd_width: c(values[9]),
            schedule: OmpSchedule::from_level(values[10]),
            chunk_size: c(values[11]),
            nested: values[12] >= 0.5,
            max_active_levels: c(values[13]),
            spin_count: c(values[14]),
            wait_policy_active: values[15] >= 0.5,
            proc_bind: c(values[16]),
            dynamic_adjust: values[17] >= 0.5,
            global_threads: c(values[18]),
            local_threads: c(values[19]),
        }
    }

    /// Mean thread-placement level (average of `M5..M7`), the quantity the
    /// paper's `Avg.Deg.Dia` equation targets.
    pub fn placement(&self) -> f64 {
        (self.place_core_ids + self.place_thread_ids + self.place_offsets) / 3.0
    }

    /// Quantizes all continuous dimensions to `grid`.
    pub fn quantized(&self, grid: Grid) -> MConfig {
        let mut a = self.as_array();
        grid.quantize_slice(&mut a);
        MConfig::from_array(a)
    }

    /// Counts how many of the 20 dimensions match `other` after quantizing
    /// both to `grid` — the paper's "percentage accuracies are found by
    /// comparing the integer outputs (constituting choice selections)".
    pub fn matching_choices(&self, other: &MConfig, grid: Grid) -> usize {
        let a = self.quantized(grid).as_array();
        let b = other.quantized(grid).as_array();
        a.iter().zip(b.iter()).filter(|(x, y)| x == y).count()
    }
}

impl Default for MConfig {
    fn default() -> Self {
        MConfig::gpu_default()
    }
}

/// Per-accelerator maxima used to turn normalized `M` values into deployable
/// integers (the paper multiplies the normalized result by e.g.
/// `max_local_threads` and adds the minimum `k`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeployLimits {
    /// Maximum multicore cores (Xeon Phi: 61, 40-core CPU: 40).
    pub max_cores: u32,
    /// Maximum hardware threads per core (Phi: 4, CPU: 2).
    pub max_threads_per_core: u32,
    /// Maximum SIMD lanes (Phi: 16 x f32, CPU/AVX2: 8).
    pub max_simd_width: u32,
    /// Maximum GPU global threads.
    pub max_global_threads: u32,
    /// Maximum GPU local (work-group) threads.
    pub max_local_threads: u32,
    /// Maximum thread blocktime in milliseconds (paper: 1000 ms).
    pub max_blocktime_ms: u32,
}

impl DeployLimits {
    fn denorm(norm: f64, max: u32) -> u32 {
        // M = norm * max + k with k = 1, ceiling-clamped to max.
        let v = (norm.clamp(0.0, 1.0) * max as f64 + 1.0).floor() as u32;
        v.clamp(1, max.max(1))
    }

    /// Deployed multicore core count for `config` (at least 1).
    pub fn cores(&self, config: &MConfig) -> u32 {
        Self::denorm(config.cores, self.max_cores)
    }

    /// Deployed threads per core (at least 1).
    pub fn threads_per_core(&self, config: &MConfig) -> u32 {
        Self::denorm(config.threads_per_core, self.max_threads_per_core)
    }

    /// Deployed SIMD width (at least 1 lane).
    pub fn simd_width(&self, config: &MConfig) -> u32 {
        Self::denorm(config.simd_width, self.max_simd_width)
    }

    /// Deployed GPU global thread count (at least 1).
    pub fn global_threads(&self, config: &MConfig) -> u32 {
        Self::denorm(config.global_threads, self.max_global_threads)
    }

    /// Deployed GPU local thread count (at least 1).
    pub fn local_threads(&self, config: &MConfig) -> u32 {
        Self::denorm(config.local_threads, self.max_local_threads)
    }

    /// Deployed blocktime in milliseconds (paper: 1..=1000 ms).
    pub fn blocktime_ms(&self, config: &MConfig) -> u32 {
        Self::denorm(config.blocktime, self.max_blocktime_ms)
    }

    /// Total deployed multicore threads (`cores × threads_per_core`).
    pub fn total_multicore_threads(&self, config: &MConfig) -> u32 {
        self.cores(config) * self.threads_per_core(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_round_trip_is_lossless_on_grid() {
        let cfg = MConfig::multicore_default().quantized(Grid::PAPER);
        let rt = MConfig::from_array(cfg.as_array());
        assert_eq!(cfg, rt);
    }

    #[test]
    fn schedule_levels_round_trip() {
        for s in OmpSchedule::ALL {
            assert_eq!(OmpSchedule::from_level(s.to_level()), s);
        }
    }

    #[test]
    fn accelerator_decodes_at_half_threshold() {
        let mut a = MConfig::gpu_default().as_array();
        a[0] = 0.6;
        assert_eq!(MConfig::from_array(a).accelerator, Accelerator::Multicore);
        a[0] = 0.4;
        assert_eq!(MConfig::from_array(a).accelerator, Accelerator::Gpu);
    }

    #[test]
    fn phi_limits_reproduce_paper_worked_example() {
        // Paper Fig. 7: with I1 = 0.1, M2 resolves to 7 cores on the 61-core
        // Phi; with Avg.Deg = 1, M3 resolves to its maximum of 4 threads.
        let phi = DeployLimits {
            max_cores: 61,
            max_threads_per_core: 4,
            max_simd_width: 16,
            max_global_threads: 2048,
            max_local_threads: 256,
            max_blocktime_ms: 1000,
        };
        let mut cfg = MConfig::multicore_default();
        cfg.cores = 0.1;
        cfg.threads_per_core = 1.0;
        assert_eq!(phi.cores(&cfg), 7, "0.1 * 61 + 1 = 7.1 -> 7 cores");
        assert_eq!(phi.threads_per_core(&cfg), 4, "ceiling at the maximum");
    }

    #[test]
    fn deployed_values_are_at_least_one() {
        let lim = DeployLimits {
            max_cores: 61,
            max_threads_per_core: 4,
            max_simd_width: 16,
            max_global_threads: 2048,
            max_local_threads: 256,
            max_blocktime_ms: 1000,
        };
        let mut cfg = MConfig::gpu_default();
        cfg.cores = 0.0;
        cfg.global_threads = 0.0;
        cfg.local_threads = 0.0;
        assert_eq!(lim.cores(&cfg), 1);
        assert_eq!(lim.global_threads(&cfg), 1);
        assert_eq!(lim.local_threads(&cfg), 1);
    }

    #[test]
    fn matching_choices_is_20_for_identical() {
        let cfg = MConfig::gpu_default();
        assert_eq!(cfg.matching_choices(&cfg, Grid::PAPER), 20);
    }

    #[test]
    fn matching_choices_detects_differences() {
        let a = MConfig::gpu_default();
        let mut b = a;
        b.local_threads = 1.0;
        b.accelerator = Accelerator::Multicore;
        assert_eq!(a.matching_choices(&b, Grid::PAPER), 18);
    }

    #[test]
    fn from_array_clamps_wild_values() {
        let cfg = MConfig::from_array([5.0; M_DIM]);
        assert_eq!(cfg.cores, 1.0);
        assert_eq!(cfg.accelerator, Accelerator::Multicore);
        assert!(cfg.nested);
    }

    #[test]
    fn placement_is_mean_of_m5_to_m7() {
        let mut cfg = MConfig::multicore_default();
        cfg.place_core_ids = 0.9;
        cfg.place_thread_ids = 0.6;
        cfg.place_offsets = 0.3;
        assert!((cfg.placement() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn display_of_enums() {
        assert_eq!(Accelerator::Gpu.to_string(), "GPU");
        assert_eq!(OmpSchedule::Dynamic.to_string(), "dynamic");
    }

    #[test]
    fn other_accelerator_is_an_involution() {
        for a in Accelerator::ALL {
            assert_ne!(a.other(), a);
            assert_eq!(a.other().other(), a);
        }
    }

    #[test]
    fn total_threads_multiplies() {
        let lim = DeployLimits {
            max_cores: 10,
            max_threads_per_core: 2,
            max_simd_width: 8,
            max_global_threads: 100,
            max_local_threads: 32,
            max_blocktime_ms: 1000,
        };
        let mut cfg = MConfig::multicore_default();
        cfg.cores = 1.0;
        cfg.threads_per_core = 1.0;
        assert_eq!(lim.total_multicore_threads(&cfg), 20);
    }
}
