//! Cross-crate property-based tests (proptest) on the library's invariants.

use heteromap_accel::cost::{CostModel, WorkloadContext};
use heteromap_accel::AcceleratorSpec;
use heteromap_graph::datasets::LiteratureMaxima;
use heteromap_graph::gen::{GraphGenerator, UniformRandom};
use heteromap_graph::stream::GraphStream;
use heteromap_graph::GraphStats;
use heteromap_model::workload::IterationModel;
use heteromap_model::{BVector, Grid, IVector, MConfig, Workload, M_DIM};
use proptest::prelude::*;

fn arbitrary_b() -> impl Strategy<Value = BVector> {
    // A random phase split plus independent B6-13 values.
    (0..=10u32, prop::array::uniform8(0.0f64..=1.0)).prop_map(|(split, rest)| {
        let b1 = split as f64 / 10.0;
        let b5 = 1.0 - b1;
        let mut v = [0.0; 13];
        v[0] = b1;
        v[4] = b5;
        v[5..].copy_from_slice(&rest);
        BVector::new_unchecked(v)
    })
}

fn arbitrary_stats() -> impl Strategy<Value = GraphStats> {
    (1_000u64..=100_000_000, 1u64..=64, 1u64..=2_000)
        .prop_map(|(v, deg, dia)| GraphStats::from_known(v, v.saturating_mul(deg), deg * 10, dia))
}

fn arbitrary_mconfig() -> impl Strategy<Value = MConfig> {
    prop::array::uniform20(0.0f64..=1.0).prop_map(MConfig::from_array)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cost_model_outputs_are_finite_positive(
        b in arbitrary_b(),
        stats in arbitrary_stats(),
        cfg in arbitrary_mconfig(),
    ) {
        let ctx = WorkloadContext::synthetic(
            b, stats, IterationModel::Fixed(5), 1.0,
        );
        let model = CostModel::paper();
        for spec in [
            AcceleratorSpec::gtx_750ti(),
            AcceleratorSpec::xeon_phi_7120p(),
            AcceleratorSpec::gtx_970(),
            AcceleratorSpec::cpu_40core(),
        ] {
            let r = model.evaluate(&spec, &ctx, &cfg);
            prop_assert!(r.time_ms.is_finite() && r.time_ms > 0.0);
            prop_assert!(r.energy_j.is_finite() && r.energy_j > 0.0);
            prop_assert!((0.0..=1.0).contains(&r.utilization));
        }
    }

    #[test]
    fn cost_is_monotone_in_edge_count(
        b in arbitrary_b(),
        cfg in arbitrary_mconfig(),
        v in 10_000u64..1_000_000,
        deg in 2u64..32,
    ) {
        let model = CostModel::paper();
        let spec = AcceleratorSpec::gtx_750ti();
        let small = WorkloadContext::synthetic(
            b,
            GraphStats::from_known(v, v * deg, deg * 8, 10),
            IterationModel::Fixed(5),
            1.0,
        );
        let large = WorkloadContext::synthetic(
            b,
            GraphStats::from_known(v, v * deg * 8, deg * 8, 10),
            IterationModel::Fixed(5),
            1.0,
        );
        prop_assert!(
            model.evaluate(&spec, &large, &cfg).time_ms
                >= model.evaluate(&spec, &small, &cfg).time_ms * 0.9
        );
    }

    #[test]
    fn m_config_array_round_trip_preserves_quantized(
        cfg in arbitrary_mconfig(),
    ) {
        let q = cfg.quantized(Grid::PAPER);
        let rt = MConfig::from_array(q.as_array());
        // Round trip after quantization is exact except the schedule slot,
        // which re-snaps to quarters.
        let a = q.as_array();
        let b = rt.as_array();
        for (idx, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            if idx == 10 { continue; }
            prop_assert!((x - y).abs() < 1e-12);
        }
        prop_assert_eq!(rt.schedule, q.schedule);
    }

    #[test]
    fn matching_choices_is_symmetric_and_bounded(
        a in arbitrary_mconfig(),
        b in arbitrary_mconfig(),
    ) {
        let ab = a.matching_choices(&b, Grid::PAPER);
        let ba = b.matching_choices(&a, Grid::PAPER);
        prop_assert_eq!(ab, ba);
        prop_assert!(ab <= M_DIM);
    }

    #[test]
    fn ivector_values_are_normalized_and_grid_aligned(
        stats in arbitrary_stats(),
    ) {
        let i = IVector::from_stats(&stats, &LiteratureMaxima::paper(), Grid::PAPER);
        for v in i.as_array() {
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!((v * 10.0 - (v * 10.0).round()).abs() < 1e-9);
        }
        prop_assert!((0.0..=1.0).contains(&i.avg_deg()));
        prop_assert!((0.0..=1.0).contains(&i.avg_deg_dia()));
    }

    #[test]
    fn stream_chunks_partition_vertices(
        n in 50usize..400,
        edges in 100usize..2_000,
        budget_kb in 1usize..64,
        seed in 0u64..50,
    ) {
        let g = UniformRandom::new(n, edges).generate(seed);
        let stream = GraphStream::with_byte_budget(&g, budget_kb * 1024);
        let total: usize = stream.iter().map(|c| c.graph.vertex_count()).sum();
        prop_assert_eq!(total, n);
    }

    #[test]
    fn workload_contexts_iterate_at_least_once(
        stats in arbitrary_stats(),
    ) {
        for w in Workload::all() {
            let ctx = WorkloadContext::for_workload(w, stats);
            prop_assert!(ctx.iterations() >= 1.0);
        }
    }
}

// Robustness: random chaos plans, any thread count — the harness must never
// panic, never deadlock (the run returning at all is the deadlock check),
// account for every request, and stay bit-reproducible across thread counts.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chaos_runs_resolve_every_request_at_any_thread_count(
        seed in 0u64..10_000,
        intensity in 0.0f64..=1.0,
        rounds in 1u32..12,
        requests_per_round in 1u32..8,
        episode_len in 1u32..5,
        threads in 1usize..8,
    ) {
        // The vendored proptest stub has no bool strategy; split on parity.
        let resilient = seed % 2 == 0;
        let plan = heteromap_chaos::ChaosPlan {
            seed,
            intensity,
            rounds,
            requests_per_round,
            episode_len,
            deadline_factor: 3.0,
        };
        let runner = heteromap_chaos::ChaosRunner::new(plan, resilient);
        let report = runner.run(threads);
        prop_assert!(report.fully_accounted(), "good {} late {} failed {} shed {} of {}",
            report.good, report.late, report.failed, report.shed, report.requests);
        prop_assert_eq!(report.requests,
            rounds as usize * requests_per_round as usize);
        if !resilient {
            prop_assert_eq!(report.shed, 0);
            prop_assert_eq!(report.breaker_opens, 0);
        }
        // Same plan, different worker count, bit-identical outcome.
        let other = runner.run(threads % 4 + 1);
        prop_assert_eq!(other.digest, report.digest);
        prop_assert_eq!(
            (other.good, other.late, other.failed, other.shed),
            (report.good, report.late, report.failed, report.shed)
        );
    }
}

// Robustness: random fleet traces × fault intensities × thread counts — the
// scheduler must never panic, never deadlock (returning at all is the
// deadlock check), resolve every generated job exactly once, and stay
// bit-reproducible across thread counts and reruns, for every placer.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fleet_runs_resolve_every_job_at_any_thread_count(
        seed in 0u64..10_000,
        intensity in 0.0f64..=1.0,
        rounds in 1u32..8,
        episode_len in 1u32..5,
        mean_arrivals in 0.5f64..6.0,
        load in 0.3f64..1.3,
        threads in 1usize..8,
    ) {
        // The vendored proptest stub has no enum strategy; pick by seed.
        let placer = heteromap_fleet::Placer::ALL[(seed % 4) as usize];
        let trace = heteromap_fleet::FleetTrace {
            seed,
            fault_intensity: intensity,
            rounds,
            episode_len,
            mean_arrivals,
            burst: 0.2,
            load,
            deadline_factor: 6.0,
            max_migrations: 2,
        };
        let sim = heteromap_fleet::FleetSim::new(
            trace,
            heteromap_fleet::Cluster::uniform(1),
            placer,
        );
        let report = sim.run(threads);
        prop_assert!(report.fully_accounted(), "good {} late {} failed {} shed {} of {}",
            report.good, report.late, report.failed, report.shed, report.jobs);
        if !placer.is_predictor_driven() {
            prop_assert_eq!(report.shed, 0);
            prop_assert_eq!(report.breaker_opens, 0);
        }
        // Same trace, different worker count, bit-identical outcome.
        let other = sim.run(threads % 4 + 1);
        prop_assert_eq!(other.digest, report.digest);
        prop_assert_eq!(
            (other.good, other.late, other.failed, other.shed, other.migrations),
            (report.good, report.late, report.failed, report.shed, report.migrations)
        );
    }
}

// Fault intensity only ever adds faults: raising it keeps every faulty
// episode (chaos) and every faulty (device, episode) cell (fleet) exactly as
// it was, because each cell's fault/no-fault draw is compared against the
// intensity and its kind and severity use independent draws.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn raising_intensity_keeps_every_fault_unchanged(
        seed in 0u64..1_000_000,
        x in 0.0f64..=1.0,
        y in 0.0f64..=1.0,
    ) {
        let (a, b) = (x.min(y), x.max(y));
        let (low, high) = (
            heteromap_chaos::ChaosPlan::seeded(seed, a),
            heteromap_chaos::ChaosPlan::seeded(seed, b),
        );
        for episode in 0..64 {
            let event = low.event_for_episode(episode);
            if event != heteromap_chaos::ChaosEvent::Calm {
                prop_assert_eq!(high.event_for_episode(episode), event);
            }
        }
        let (low, high) = (
            heteromap_fleet::FleetTrace::heavy(seed, a),
            heteromap_fleet::FleetTrace::heavy(seed, b),
        );
        for device in 0..8 {
            for episode in 0..32 {
                let state = low.fault_for(device, episode);
                if state != heteromap_accel::FaultState::Healthy {
                    prop_assert_eq!(high.fault_for(device, episode), state);
                }
            }
        }
    }
}

// Robustness: the readers must reject, never panic on, arbitrary bytes.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn edge_list_reader_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..1024),
    ) {
        // Ok or Err are both fine; panicking is not.
        let _ = heteromap_graph::io::read_edge_list(&bytes[..]);
    }

    #[test]
    fn profiler_db_readers_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..1024),
    ) {
        let _ = heteromap_predict::persist::read_database(&bytes[..]);
        let _ = heteromap_predict::persist::read_database_lenient(&bytes[..]);
    }

    #[test]
    fn profiler_db_readers_never_panic_past_a_valid_header(
        bytes in prop::collection::vec(0u8..=255, 0..1024),
    ) {
        // A correct header followed by garbage exercises the row parser.
        let mut data = b"heteromap-profiler-db v1\n".to_vec();
        data.extend_from_slice(&bytes);
        let _ = heteromap_predict::persist::read_database(&data[..]);
        // Lenient mode may only fail on i/o errors (e.g. invalid UTF-8
        // surfacing as InvalidData) — never on row contents.
        if let Err(e) = heteromap_predict::persist::read_database_lenient(&data[..]) {
            prop_assert!(
                matches!(e, heteromap_predict::persist::PersistError::Io(_)),
                "unexpected lenient failure: {e}"
            );
        }
    }
}
