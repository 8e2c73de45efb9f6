//! Known-answer tests for `heteromap_model::StableHasher`, the zero-key
//! SipHash-1-3 behind every seeded draw and digest in the workspace.
//!
//! Provenance: every pinned value below was computed with the standard
//! library's `std::collections::hash_map::DefaultHasher` (rustc 1.95.0,
//! x86_64) over the same byte streams, before the repository switched to
//! its own hasher. A failure here means a draw, a training label or a pinned
//! digest somewhere in the workspace has moved.

use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::{AcceleratorSpec, CostModel, FaultPlan};
use heteromap_graph::datasets::Dataset;
use heteromap_model::{Accelerator, MConfig, StableHasher, Workload};
use std::hash::{Hash, Hasher};

/// Thirteen benchmark-variable bit patterns, as `hash_pm1` and the fault
/// draw feed them.
const B: [f64; 13] = [
    0.1, 0.0, 0.9, 0.0, 0.0, 0.3, 1.0, 0.5, 0.2, 0.0, 0.7, 0.4, 0.6,
];

/// Twenty machine-variable bit patterns.
const M: [f64; 20] = [
    1.0, 0.5, 0.25, 0.0, 0.8, 0.1, 0.3, 0.6, 0.9, 0.4, 0.2, 0.7, 0.05, 0.95, 0.15, 0.35, 0.55,
    0.65, 0.75, 0.85,
];

/// `cost::hash_pm1`: a `str` (bytes + `0xff`, which misaligns every later
/// word), three `u64` graph statistics, then 33 `f64` bit patterns.
fn pm1_layout(h: &mut impl Hasher, name: &str, stats: [u64; 3]) {
    name.hash(h);
    for s in stats {
        s.hash(h);
    }
    for x in B.iter().chain(&M) {
        x.to_bits().hash(h);
    }
}

/// `fault::hash_unit`: `u64` seed, `u8` salt, `bool`, `u32` attempt, then
/// the `hash_pm1` scenario words.
fn fault_layout(h: &mut impl Hasher, seed: u64, salt: u8, gpu: bool, attempt: u32) {
    seed.hash(h);
    salt.hash(h);
    gpu.hash(h);
    attempt.hash(h);
    for s in [1_971_281_u64, 5_533_214, 849] {
        s.hash(h);
    }
    for x in B.iter().chain(&M) {
        x.to_bits().hash(h);
    }
}

/// Writes one byte stream into a hasher.
type Layout = Box<dyn Fn(&mut StableHasher)>;

/// The byte streams every call site writes, with their pinned hashes.
fn cases() -> Vec<(&'static str, u64, Layout)> {
    let pattern = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 31 + 7) as u8).collect() };
    let raw = |len: usize| -> Layout {
        let bytes = pattern(len);
        Box::new(move |h| h.write(&bytes))
    };
    vec![
        ("empty", 0xd1fb_a762_150c_532c, Box::new(|_| {})),
        ("raw-7", 0x4f17_0612_2bfd_8504, raw(7)),
        ("raw-8", 0x1bae_ec38_bf23_7654, raw(8)),
        ("raw-9", 0x8630_bb14_93b9_90aa, raw(9)),
        ("raw-255", 0xe393_efec_d467_6d80, raw(255)),
        ("raw-256", 0x7571_78b3_918b_2ee7, raw(256)),
        ("raw-301", 0x8049_2c73_94ee_e490, raw(301)),
        (
            // 254 + 1 bytes: `len & 0xff` is 255 in the final block.
            "str-255",
            0xf2d2_8773_4b3e_6af3,
            Box::new(|h| {
                let name: String = (0..254_u8).map(|i| char::from(b'a' + i % 26)).collect();
                name.as_str().hash(h)
            }),
        ),
        (
            // 9-byte name + 0xff + 24 + 264 = 298 bytes.
            "pm1-gtx750ti",
            0x125c_ac19_5a70_e5c5,
            Box::new(|h| pm1_layout(h, "GTX-750Ti", [1_971_281, 5_533_214, 849])),
        ),
        (
            // 16-byte name + 0xff + 24 + 264 = 305 bytes.
            "pm1-xeon-phi",
            0x54eb_13ca_340d_14da,
            Box::new(|h| pm1_layout(h, "Xeon Phi 7120P  ", [562, 577_350, 2])),
        ),
        (
            "pm1-empty-name",
            0x3800_d410_5ec8_300f,
            Box::new(|h| pm1_layout(h, "", [0, 0, 0])),
        ),
        (
            "fault-gpu-0x51",
            0x370e_ef7d_cc9a_1773,
            Box::new(|h| fault_layout(h, 0xC0FF_EE00_1234_5678, 0x51, true, 0)),
        ),
        (
            "fault-multicore-0xa7",
            0x0d77_4646_b3ca_5ca9,
            Box::new(|h| fault_layout(h, 7, 0xA7, false, 3)),
        ),
        (
            "device-draw",
            0xfa6c_20de_7afb_c968,
            Box::new(|h| {
                11_u64.hash(h);
                3_u64.hash(h);
                0xDEAD_BEEF_u64.hash(h);
                2_u32.hash(h);
                0x51_u8.hash(h);
            }),
        ),
        (
            "retry-backoff",
            0x6704_fef3_feca_5022,
            Box::new(|h| {
                42_u64.hash(h);
                5_u32.hash(h);
            }),
        ),
        (
            "trace-request",
            0xa8e8_5c0d_48ee_55db,
            Box::new(|h| {
                9_u64.hash(h);
                0x00C0_FFEE_u32.hash(h);
                17_u32.hash(h);
                4_u32.hash(h);
            }),
        ),
        (
            "episode-draw",
            0x6920_eb08_af2a_4160,
            Box::new(|h| {
                9_u64.hash(h);
                6_u32.hash(h);
                0x22_u8.hash(h);
            }),
        ),
        (
            "cell-draw",
            0xcd90_39e7_7f2e_e05c,
            Box::new(|h| {
                9_u64.hash(h);
                (3_u64 << 32 | 6).hash(h);
                0x31_u8.hash(h);
            }),
        ),
        (
            "digest-fold",
            0xdfdf_c098_3adb_938b,
            Box::new(|h| {
                for p in [0_u64, u64::MAX, 0x0123_4567_89AB_CDEF, 1 << 63, 12] {
                    p.hash(h);
                }
            }),
        ),
        (
            "mixed-widths",
            0x3245_f540_fe68_cb21,
            Box::new(|h| {
                0xAB_u8.hash(h);
                0xBEEF_u16.hash(h);
                false.hash(h);
                (-5_i32).hash(h);
                0x0102_0304_0506_0708_090A_0B0C_0D0E_0F10_u128.hash(h);
                77_usize.hash(h);
                "héteromap".hash(h);
                (-1_i64).hash(h);
            }),
        ),
    ]
}

#[test]
fn stable_hasher_matches_pinned_siphash13_values() {
    for (name, want, write) in cases() {
        let mut h = StableHasher::new();
        write(&mut h);
        assert_eq!(h.finish(), want, "{name}: got {:#018x}", h.finish());
    }
}

/// The cost model's noise term runs through the hasher, so `evaluate`'s
/// simulated time is pinned to the bit.
#[test]
fn cost_model_time_is_pinned() {
    let model = CostModel::paper();
    let cases = [
        (
            AcceleratorSpec::gtx_750ti(),
            Workload::Bfs,
            Dataset::LiveJournal,
            MConfig::gpu_default(),
            0x4036_7d09_7592_be9b_u64,
        ),
        (
            AcceleratorSpec::xeon_phi_7120p(),
            Workload::SsspDelta,
            Dataset::UsaCal,
            MConfig::multicore_default(),
            0x4057_f9cd_1b94_bbe1,
        ),
    ];
    for (spec, w, d, cfg, want) in cases {
        let ctx = WorkloadContext::for_workload(w, d.stats());
        let got = model.evaluate(&spec, &ctx, &cfg).time_ms.to_bits();
        assert_eq!(got, want, "{w:?} on {d:?}: got {got:#018x}");
    }
}

/// A transient fault plan that always fails draws its failure point from
/// the hasher; both draws are pinned to the bit.
#[test]
fn transient_failure_draw_is_pinned() {
    let plan = FaultPlan::transient(1.0, 0x5EED);
    let cases = [
        (
            Workload::PageRank,
            Dataset::Facebook,
            0,
            0x3fdd_8d8a_e888_cad5_u64,
        ),
        (
            Workload::ConnComp,
            Dataset::Cage14,
            2,
            0x3fc9_5b33_675e_2dbb,
        ),
    ];
    for (w, d, attempt, want) in cases {
        let ctx = WorkloadContext::for_workload(w, d.stats());
        let frac = plan
            .transient_failure_at(Accelerator::Gpu, &ctx, &MConfig::gpu_default(), attempt)
            .expect("a failure rate of 1 always fails");
        assert_eq!(
            frac.to_bits(),
            want,
            "{w:?} on {d:?}: got {:#018x}",
            frac.to_bits()
        );
    }
}

/// The round loops chain every request's outcome through
/// `heteromap_model::fold_digest`, so their digests pin the fold, the
/// hasher and every simulated outcome at once. Values come from the
/// committed `BENCH_chaos.json` and `BENCH_fleet.json` smoke runs; each
/// must hold at one thread and on the pool.
#[test]
fn round_loop_digests_are_pinned() {
    use heteromap_chaos::{ChaosPlan, ChaosRunner};
    use heteromap_fleet::{Cluster, FleetSim, FleetTrace, Placer};

    let chaos = [
        (0.1, true, 0x455c_fb98_fff6_234f_u64),
        (0.1, false, 0x5a7c_0610_6192_e848),
        (0.5, true, 0xcd38_6fd0_8b20_10d5),
        (0.5, false, 0x6338_10d1_df69_7e37),
    ];
    for (intensity, resilient, want) in chaos {
        let runner = ChaosRunner::new(ChaosPlan::smoke(42, intensity), resilient);
        for threads in [1, 4] {
            let got = runner.run(threads).digest;
            assert_eq!(
                got, want,
                "chaos {intensity} resilient={resilient} threads={threads}: got {got:#018x}"
            );
        }
    }

    let fleet = [
        (Placer::Random, 0xb8de_3044_5489_7efc_u64),
        (Placer::RoundRobin, 0x9d36_b390_fe93_8268),
        (Placer::Greedy, 0xad63_1fb0_05ad_60b0),
        (Placer::Evolution, 0xad63_1fb0_05ad_60b0),
    ];
    for (placer, want) in fleet {
        let sim = FleetSim::new(FleetTrace::smoke(42, 0.2), Cluster::uniform(1), placer);
        for threads in [1, 4] {
            let got = sim.run(threads).digest;
            assert_eq!(
                got, want,
                "fleet {placer} threads={threads}: got {got:#018x}"
            );
        }
    }
}

/// The dynamic-graph runner folds every epoch's incremental statistics,
/// diameter sweep, prediction and kernel checksum into its digest, so this
/// pin also catches drift in the stats/diameter path. Same inputs and
/// value as `heteromap-dyngraph`'s `digest_is_pinned`; it must hold at one
/// thread and on the pool.
#[test]
fn dyngraph_digest_is_pinned() {
    use heteromap::HeteroMap;
    use heteromap_dyngraph::{DeltaBatch, DynGraph, DynRunner, DynRunnerConfig};
    use heteromap_graph::gen::Densifying;

    let hm = HeteroMap::with_decision_tree();
    let gen = Densifying::new(250, 5, 350);
    // The first batch, one calm epoch, the remaining batches, one calm epoch.
    let mut trace = vec![DeltaBatch::from_edges(&gen.batch(7, 0)), DeltaBatch::new()];
    trace.extend((1..gen.batches()).map(|i| DeltaBatch::from_edges(&gen.batch(7, i))));
    trace.push(DeltaBatch::new());
    for threads in [1, 4] {
        let mut graph = DynGraph::new(gen.vertices());
        let cfg = DynRunnerConfig {
            threads,
            kernel_iterations: 2,
            ..Default::default()
        };
        let got = DynRunner::new(&hm, Workload::LabelProp)
            .with_config(cfg)
            .run(&mut graph, &trace)
            .digest;
        assert_eq!(
            got, 0xa09d_4759_0a6f_43a7,
            "threads={threads}: got {got:#018x}"
        );
    }
}
