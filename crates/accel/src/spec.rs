//! Accelerator specifications (paper Table II and §VI-A/§VI-D).

use heteromap_model::mconfig::DeployLimits;
use std::fmt;

/// Broad architecture family of an accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcceleratorKind {
    /// Throughput-oriented GPU: many small cores, tiny incoherent caches,
    /// latency hiding through massive threading.
    Gpu,
    /// Manycore with in-order cores, wide SIMD and coherent caches
    /// (Xeon Phi).
    Manycore,
    /// Conventional out-of-order multicore CPU.
    Cpu,
}

/// Static description of one accelerator.
///
/// The fields mirror the paper's Table II plus the §VI-A/§VI-D prose for the
/// GTX-970 and the 40-core Xeon. These are passive data, so fields are
/// public.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorSpec {
    /// Marketing name, e.g. `"GTX-750Ti"`.
    pub name: &'static str,
    /// Architecture family.
    pub kind: AcceleratorKind,
    /// Hardware cores (GPU: CUDA cores; multicore: physical cores).
    pub cores: u32,
    /// Hardware thread contexts per core (Phi: 4; CPU: 2 with HT; GPU: the
    /// number of resident thread contexts each core can juggle).
    pub threads_per_core: u32,
    /// Core frequency in GHz.
    pub freq_ghz: f64,
    /// Last-level cache size in MiB.
    pub cache_mb: f64,
    /// Whether the cache hierarchy is hardware-coherent.
    pub coherent: bool,
    /// Default main-memory capacity in GiB (sweepable, Fig. 16).
    pub mem_gb: f64,
    /// Memory bandwidth in GB/s.
    pub mem_bw_gbs: f64,
    /// Single-precision throughput in TFLOP/s.
    pub sp_tflops: f64,
    /// Double-precision throughput in TFLOP/s.
    pub dp_tflops: f64,
    /// Board/package power in watts (for the energy model).
    pub tdp_w: f64,
    /// SIMD lanes per core (multicores; GPUs express this through warps).
    pub simd_width: u32,
    /// Fraction of peak bandwidth achievable on graph workloads (GPUs
    /// coalesce streaming CSR scans well; the Phi's ring interconnect and
    /// in-order cores leave much of the 352 GB/s unrealized).
    pub eff_bw_frac: f64,
    /// Average DRAM miss latency in nanoseconds.
    pub mem_latency_ns: f64,
    /// Outstanding misses per core (memory-level parallelism, incl.
    /// prefetching). GPUs hide latency through warp switching instead, so
    /// this only throttles the multicore stall path.
    pub mlp_per_core: f64,
    /// Bytes of DRAM traffic per missed operation (GPUs fetch 32 B coalesced
    /// segments shared across a warp; CPUs pull 64 B lines).
    pub bytes_per_miss_op: f64,
    /// Sustained instructions per cycle per lane on irregular graph code
    /// (in-order Phi cores stall often; OoO CPU cores extract ILP).
    pub ipc: f64,
}

impl AcceleratorSpec {
    /// NVidia GTX-750Ti — the paper's weaker GPU (Table II).
    pub fn gtx_750ti() -> Self {
        AcceleratorSpec {
            name: "GTX-750Ti",
            kind: AcceleratorKind::Gpu,
            cores: 640,
            threads_per_core: 16,
            freq_ghz: 1.3,
            cache_mb: 2.0,
            coherent: false,
            mem_gb: 2.0,
            mem_bw_gbs: 86.0,
            sp_tflops: 1.3,
            dp_tflops: 0.04,
            tdp_w: 60.0,
            simd_width: 1,
            eff_bw_frac: 0.85,
            mem_latency_ns: 350.0,
            mlp_per_core: 16.0,
            bytes_per_miss_op: 4.0,
            ipc: 0.9,
        }
    }

    /// NVidia GTX-970 — the stronger GPU (§VI-A: 1664 cores, 3.5 SP TFLOPs,
    /// 0.1 DP TFLOPs, 4 GB, 1.7 GHz per §VII-D).
    pub fn gtx_970() -> Self {
        AcceleratorSpec {
            name: "GTX-970",
            kind: AcceleratorKind::Gpu,
            cores: 1664,
            threads_per_core: 16,
            freq_ghz: 1.7,
            cache_mb: 3.5,
            coherent: false,
            mem_gb: 4.0,
            mem_bw_gbs: 224.0,
            sp_tflops: 3.5,
            dp_tflops: 0.1,
            tdp_w: 145.0,
            simd_width: 1,
            eff_bw_frac: 0.85,
            mem_latency_ns: 330.0,
            mlp_per_core: 16.0,
            bytes_per_miss_op: 4.0,
            ipc: 0.9,
        }
    }

    /// Intel Xeon Phi 7120P — the paper's manycore (Table II). The paper pins
    /// its memory to the smallest in the pair (2 GB) for the primary setup;
    /// the spec carries the full 16 GB and experiments clamp it.
    pub fn xeon_phi_7120p() -> Self {
        AcceleratorSpec {
            name: "XeonPhi-7120P",
            kind: AcceleratorKind::Manycore,
            cores: 61,
            threads_per_core: 4,
            freq_ghz: 1.238,
            cache_mb: 32.0,
            coherent: true,
            mem_gb: 16.0,
            mem_bw_gbs: 352.0,
            sp_tflops: 2.4,
            dp_tflops: 1.2,
            tdp_w: 300.0,
            simd_width: 16,
            eff_bw_frac: 0.45,
            mem_latency_ns: 250.0,
            mlp_per_core: 8.0,
            bytes_per_miss_op: 8.0,
            ipc: 0.5,
        }
    }

    /// 40-core Intel Xeon E5-2650 v3 setup (§VI-A: 10 hyper-threaded cores ×
    /// 4 sockets at 2.3 GHz, 1 TB DDR4; §VII-D compares it at 1–16 GB).
    pub fn cpu_40core() -> Self {
        AcceleratorSpec {
            name: "CPU-40-Core",
            kind: AcceleratorKind::Cpu,
            cores: 40,
            threads_per_core: 2,
            freq_ghz: 2.3,
            cache_mb: 100.0,
            coherent: true,
            mem_gb: 1024.0,
            mem_bw_gbs: 272.0,
            sp_tflops: 1.5,
            dp_tflops: 0.75,
            tdp_w: 420.0,
            simd_width: 8,
            eff_bw_frac: 0.65,
            mem_latency_ns: 90.0,
            mlp_per_core: 10.0,
            bytes_per_miss_op: 8.0,
            ipc: 1.6,
        }
    }

    /// Total hardware thread contexts.
    pub fn hw_threads(&self) -> u32 {
        self.cores * self.threads_per_core
    }

    /// Whether this accelerator plays the "GPU" role in a pair.
    pub fn is_gpu(&self) -> bool {
        self.kind == AcceleratorKind::Gpu
    }

    /// Deployment maxima for translating normalized `M` values into concrete
    /// thread counts etc. (see [`DeployLimits`]).
    pub fn deploy_limits(&self) -> DeployLimits {
        DeployLimits {
            max_cores: self.cores,
            max_threads_per_core: self.threads_per_core,
            max_simd_width: self.simd_width.max(1),
            max_global_threads: self.hw_threads(),
            max_local_threads: match self.kind {
                AcceleratorKind::Gpu => 256,
                _ => self.threads_per_core.max(1),
            },
            max_blocktime_ms: 1000,
        }
    }

    /// Idle power draw (watts), estimated as 30% of TDP.
    pub fn idle_w(&self) -> f64 {
        self.tdp_w * 0.3
    }

    /// The spec of this accelerator running on a surviving fraction of its
    /// cores ([`FaultState::Degraded`](crate::fault::FaultState)): compute
    /// resources scale down, the memory system stays intact.
    pub fn degraded(&self, surviving_fraction: f64) -> AcceleratorSpec {
        let f = surviving_fraction.clamp(1e-3, 1.0);
        let mut spec = self.clone();
        spec.cores = ((self.cores as f64 * f).round() as u32).max(1);
        spec.sp_tflops = self.sp_tflops * f;
        spec.dp_tflops = (self.dp_tflops * f).max(1e-3);
        spec
    }
}

impl fmt::Display for AcceleratorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:?}, {} cores)", self.name, self.kind, self.cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values_for_primary_pair() {
        let gpu = AcceleratorSpec::gtx_750ti();
        assert_eq!(gpu.cores, 640);
        assert_eq!(gpu.cache_mb, 2.0);
        assert!(!gpu.coherent);
        assert_eq!(gpu.mem_bw_gbs, 86.0);
        assert_eq!(gpu.sp_tflops, 1.3);
        assert_eq!(gpu.dp_tflops, 0.04);

        let phi = AcceleratorSpec::xeon_phi_7120p();
        assert_eq!(phi.cores, 61);
        assert_eq!(phi.hw_threads(), 244); // "61, 244" in Table II
        assert_eq!(phi.cache_mb, 32.0);
        assert!(phi.coherent);
        assert_eq!(phi.mem_bw_gbs, 352.0);
        assert_eq!(phi.dp_tflops, 1.2);
    }

    #[test]
    fn gtx970_is_stronger_than_750ti() {
        let weak = AcceleratorSpec::gtx_750ti();
        let strong = AcceleratorSpec::gtx_970();
        assert!(strong.cores > weak.cores);
        assert!(strong.sp_tflops > weak.sp_tflops);
        assert!(strong.cache_mb > weak.cache_mb);
        assert_eq!(strong.cores, 1664);
    }

    #[test]
    fn cpu_runs_at_higher_frequency_than_gpus() {
        // §VII-D: "the CPU runs at a higher frequency (2.3 GHz vs GTX750's
        // 1.3 GHz and GTX-970's 1.7 GHz)".
        let cpu = AcceleratorSpec::cpu_40core();
        assert!(cpu.freq_ghz > AcceleratorSpec::gtx_750ti().freq_ghz);
        assert!(cpu.freq_ghz > AcceleratorSpec::gtx_970().freq_ghz);
    }

    #[test]
    fn deploy_limits_reflect_hardware() {
        let phi = AcceleratorSpec::xeon_phi_7120p();
        let lim = phi.deploy_limits();
        assert_eq!(lim.max_cores, 61);
        assert_eq!(lim.max_threads_per_core, 4);
        assert_eq!(lim.max_simd_width, 16);
        let gpu = AcceleratorSpec::gtx_750ti().deploy_limits();
        assert_eq!(gpu.max_local_threads, 256);
        assert_eq!(gpu.max_global_threads, 640 * 16);
    }

    #[test]
    fn idle_power_is_fraction_of_tdp() {
        let s = AcceleratorSpec::gtx_750ti();
        assert!(s.idle_w() < s.tdp_w);
        assert!(s.idle_w() > 0.0);
    }

    #[test]
    fn display_mentions_name() {
        assert!(AcceleratorSpec::gtx_970().to_string().contains("GTX-970"));
    }
}
