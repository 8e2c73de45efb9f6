//! Allocation regression test for `NeuralPredictor::train`.
//!
//! The trainer sizes its activation and delta buffers once, before the
//! epoch loop, so the number of heap allocations a training run makes must
//! not depend on how many steps it takes. The test counts allocations with
//! the obs counting-allocator probe (`alloc-probe` feature, enabled through
//! this crate's dev-dependencies) and skips rather than report a vacuous
//! pass when the probe is compiled out.

use heteromap_accel::system::MultiAcceleratorSystem;
use heteromap_predict::{NeuralPredictor, TrainConfig, Trainer, TrainingSet};

/// Heap allocations made on this thread by one training run.
fn train_allocations(set: &TrainingSet, epochs: usize) -> u64 {
    let config = TrainConfig {
        hidden: 16,
        epochs,
        ..TrainConfig::default()
    };
    let before = heteromap_obs::thread_alloc_count();
    let nn = NeuralPredictor::train(set, config);
    let after = heteromap_obs::thread_alloc_count();
    drop(nn);
    after - before
}

#[test]
fn training_allocates_nothing_per_step() {
    if !heteromap_obs::probe_enabled() {
        eprintln!("alloc-probe feature off; skipping");
        return;
    }
    let set = Trainer::new(MultiAcceleratorSystem::primary()).generate_database(12, 5);
    let one = train_allocations(&set, 1);
    let many = train_allocations(&set, 25);
    assert!(one > 0, "the probe saw the set-up allocations");
    assert_eq!(one, many, "1 epoch allocated {one} times, 25 epochs {many}");
}
