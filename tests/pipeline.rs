//! End-to-end pipeline tests: synthetic training → learned predictor →
//! deployment, spanning every crate in the workspace.

use heteromap::HeteroMap;
use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_graph::datasets::Dataset;
use heteromap_model::{fold_digest, Accelerator, Workload};
use heteromap_predict::nn::TrainConfig;
use heteromap_predict::persist::{write_database, write_model};
use heteromap_predict::{NeuralPredictor, Objective, PersistedModel, Trainer};

#[test]
fn offline_training_to_online_evaluation() {
    // Fig. 8 end to end: database -> learner -> real-workload placements.
    let system = MultiAcceleratorSystem::primary();
    let trainer = Trainer::new(system.clone());
    let db = trainer.generate_database(80, 11);
    assert_eq!(db.len(), 80);
    let nn = NeuralPredictor::train(
        &db,
        TrainConfig {
            hidden: 32,
            epochs: 60,
            ..TrainConfig::default()
        },
    );
    let hm = HeteroMap::new(system, Box::new(nn));
    for w in Workload::all() {
        for d in Dataset::all() {
            let p = hm.schedule(w, d);
            assert!(
                p.report.time_ms.is_finite() && p.report.time_ms > 0.0,
                "{w}/{d}"
            );
            assert!(p.report.energy_j > 0.0);
            assert!((0.0..=1.0).contains(&p.report.utilization));
        }
    }
}

#[test]
fn trained_learner_beats_single_accelerator_geomean() {
    // The headline property: HeteroMap's placements are better in geomean
    // than always using one machine with a default configuration.
    let hm = HeteroMap::train_deep_with(
        MultiAcceleratorSystem::primary(),
        150,
        Objective::Performance,
        TrainConfig {
            hidden: 32,
            epochs: 60,
            seed: 21,
            ..TrainConfig::default()
        },
    );
    let system = hm.system().clone();
    let mut ln_hm = 0.0;
    let mut ln_gpu = 0.0;
    let mut ln_mc = 0.0;
    let mut n = 0;
    for w in Workload::all() {
        for d in Dataset::all() {
            let ctx = heteromap_accel::cost::WorkloadContext::for_workload(w, d.stats());
            let p = hm.schedule(w, d);
            ln_hm += p.report.time_ms.ln();
            ln_gpu += system
                .deploy(&ctx, &heteromap_model::MConfig::gpu_default())
                .time_ms
                .ln();
            ln_mc += system
                .deploy(&ctx, &heteromap_model::MConfig::multicore_default())
                .time_ms
                .ln();
            n += 1;
        }
    }
    let geo = |ln: f64| (ln / n as f64).exp();
    assert!(
        geo(ln_hm) < geo(ln_gpu),
        "HeteroMap {:.2} should beat default-GPU {:.2}",
        geo(ln_hm),
        geo(ln_gpu)
    );
    assert!(
        geo(ln_hm) < geo(ln_mc),
        "HeteroMap {:.2} should beat default-multicore {:.2}",
        geo(ln_hm),
        geo(ln_mc)
    );
}

#[test]
fn energy_training_shifts_placements_toward_low_power() {
    let system = MultiAcceleratorSystem::primary();
    let cfg = TrainConfig {
        hidden: 32,
        epochs: 60,
        seed: 5,
        ..TrainConfig::default()
    };
    let perf = HeteroMap::train_deep_with(system.clone(), 100, Objective::Performance, cfg);
    let energy = HeteroMap::train_deep_with(system, 100, Objective::Energy, cfg);
    let count_gpu = |hm: &HeteroMap| -> usize {
        Workload::all()
            .into_iter()
            .flat_map(|w| Dataset::all().into_iter().map(move |d| (w, d)))
            .filter(|&(w, d)| hm.schedule(w, d).accelerator() == Accelerator::Gpu)
            .count()
    };
    // The 60 W GPU should not lose share under the energy objective
    // relative to the 300 W Phi.
    assert!(count_gpu(&energy) + 5 >= count_gpu(&perf));
}

#[test]
fn parallel_training_matches_serial_bit_for_bit() {
    // The parallel database-generation path is a pure wall-clock
    // optimization: the trained model must predict identically.
    let cfg = TrainConfig {
        hidden: 32,
        epochs: 40,
        seed: 17,
        ..TrainConfig::default()
    };
    let serial = HeteroMap::train_deep_with(
        MultiAcceleratorSystem::primary(),
        60,
        Objective::Performance,
        cfg,
    );
    let parallel = HeteroMap::train_deep_parallel(
        MultiAcceleratorSystem::primary(),
        60,
        Objective::Performance,
        cfg,
        8,
    );
    for w in Workload::all() {
        for d in Dataset::all() {
            let i = serial.ivector(&d.stats());
            let (a, _) = serial.predict_config(&w.b_vector(), &i);
            let (b, _) = parallel.predict_config(&w.b_vector(), &i);
            assert_eq!(
                a.as_array().map(f64::to_bits),
                b.as_array().map(f64::to_bits),
                "{w}/{d}"
            );
        }
    }
}

#[test]
fn database_nearest_lookup_round_trips_through_training() {
    let system = MultiAcceleratorSystem::primary();
    let db = Trainer::new(system).generate_database(30, 3);
    for s in db.samples().iter().take(5) {
        let hit = db.nearest(&s.b, &s.i).expect("non-empty");
        assert_eq!(hit.b, s.b, "exact query returns the stored row");
    }
}

#[test]
fn decision_tree_and_deep_agree_on_extreme_combinations() {
    // On strongly-typed combinations, the analytical tree and a trained
    // network should converge to the same accelerator.
    let tree = HeteroMap::with_decision_tree();
    let deep = HeteroMap::train_deep_with(
        MultiAcceleratorSystem::primary(),
        250,
        Objective::Performance,
        TrainConfig {
            hidden: 64,
            epochs: 80,
            seed: 9,
            ..TrainConfig::default()
        },
    );
    for (w, d) in [
        (Workload::Bfs, Dataset::KronLarge), // massively parallel -> GPU
        (Workload::TriangleCount, Dataset::MouseRetina), // cache-resident -> MC
    ] {
        let a = tree.schedule(w, d).accelerator();
        let b = deep.schedule(w, d).accelerator();
        assert_eq!(a, b, "{w}/{d}: tree {a} vs deep {b}");
    }
}

/// Folds a byte stream (length first, then little-endian 8-byte words, the
/// last one zero-padded) through `fold_digest`.
fn bytes_digest(bytes: &[u8]) -> u64 {
    let mut parts = vec![bytes.len() as u64];
    parts.extend(bytes.chunks(8).map(|chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(word)
    }));
    fold_digest(0, &parts)
}

#[test]
fn training_database_and_deep16_model_are_pinned() {
    // The serving benchmark's database: every tuned optimum, and through
    // them every trained weight, must stay bit-identical.
    let trainer = Trainer::new(MultiAcceleratorSystem::primary());
    let db = trainer.generate_database(64, 0x4D0D_E128);
    let mut db_bytes = Vec::new();
    write_database(&db, &mut db_bytes).unwrap();
    let mut parallel_bytes = Vec::new();
    write_database(
        &trainer.generate_database_parallel(64, 0x4D0D_E128, 4),
        &mut parallel_bytes,
    )
    .unwrap();
    assert!(parallel_bytes == db_bytes, "4-thread database diverged");
    let db_digest = bytes_digest(&db_bytes);

    let nn = NeuralPredictor::train(
        &db,
        TrainConfig {
            hidden: 16,
            epochs: 250,
            seed: 0x4D0D_E128,
            ..TrainConfig::default()
        },
    );
    let mut model_bytes = Vec::new();
    write_model(&PersistedModel::Nn(nn), &mut model_bytes).unwrap();
    let model_digest = bytes_digest(&model_bytes);
    assert_eq!(
        db_digest, 0xb7e4_2884_33ae_9c8e,
        "database digest {db_digest:#018x}"
    );
    assert_eq!(
        model_digest, 0xa48a_8536_7c61_620f,
        "Deep.16 model digest {model_digest:#018x}"
    );
}
