//! Cross-crate fault-tolerance integration tests: failover coverage over
//! the full paper matrix, healthy-path equivalence, retry charging, and
//! OOM-driven re-streaming.

use heteromap::resilient::{AttemptOutcome, RetryPolicy};
use heteromap::HeteroMap;
use heteromap_accel::cost::WorkloadContext;
use heteromap_accel::{FaultPlan, FaultState, MultiAcceleratorSystem};
use heteromap_graph::datasets::Dataset;
use heteromap_graph::gen::{GraphGenerator, PowerLaw};
use heteromap_model::{Accelerator, Workload};
use heteromap_predict::DecisionTree;

fn decision_tree_on(plan: FaultPlan) -> HeteroMap {
    HeteroMap::new(
        MultiAcceleratorSystem::primary().with_faults(plan),
        Box::new(DecisionTree::paper()),
    )
}

/// The headline guarantee: with the GPU dead, every one of the 81 paper
/// combinations still completes — on the multicore, with the failover (or
/// the direct multicore pick) recorded exactly.
#[test]
fn all_combinations_complete_on_multicore_when_gpu_is_down() {
    let hm = decision_tree_on(FaultPlan::gpu_down());
    let reference = HeteroMap::with_decision_tree();
    for w in Workload::all() {
        for d in Dataset::all() {
            let p = hm.schedule(w, d);
            assert!(p.completed(), "{w} on {d} must complete");
            assert!(
                p.report.time_ms.is_finite() && p.report.time_ms > 0.0,
                "{w} {d}"
            );
            assert_eq!(p.accelerator(), Accelerator::Multicore, "{w} {d}");
            assert!(p.attempts.succeeded());

            // The attempt log must be exact: a GPU pick fails over once
            // (Down on the GPU, then success); a multicore pick deploys
            // directly with no failover.
            let predicted = reference.schedule(w, d).accelerator();
            match predicted {
                Accelerator::Gpu => {
                    assert_eq!(p.attempts.failovers, 1, "{w} {d}");
                    assert_eq!(p.attempts.total_attempts(), 2, "{w} {d}");
                    assert_eq!(p.attempts.records[0].accelerator, Accelerator::Gpu);
                    assert_eq!(
                        p.attempts.records[0].outcome,
                        AttemptOutcome::AcceleratorDown
                    );
                    assert_eq!(p.attempts.records[1].accelerator, Accelerator::Multicore);
                    assert_eq!(p.attempts.records[1].outcome, AttemptOutcome::Success);
                }
                Accelerator::Multicore => {
                    assert_eq!(p.attempts.failovers, 0, "{w} {d}");
                    assert_eq!(p.attempts.total_attempts(), 1, "{w} {d}");
                    assert_eq!(p.attempts.records[0].outcome, AttemptOutcome::Success);
                }
            }
        }
    }
}

/// An explicitly healthy fault plan must behave exactly like the seed's
/// infallible flow: same config, a deploy-time match, one clean attempt.
#[test]
fn healthy_fault_plan_is_equivalent_to_no_fault_plan() {
    let faulty_api = decision_tree_on(FaultPlan::healthy());
    let reference = HeteroMap::with_decision_tree();
    for w in Workload::all() {
        for d in [Dataset::Facebook, Dataset::LiveJournal, Dataset::UsaCal] {
            let a = faulty_api.schedule(w, d);
            let b = reference.schedule(w, d);
            assert_eq!(a.config, b.config, "{w} {d}");
            assert_eq!(a.attempts.records, b.attempts.records, "{w} {d}");
            assert_eq!(a.attempts.failovers, 0);
            assert_eq!(a.attempts.retry_time_ms, 0.0);
            // The predictor overhead is modeled, so the two completion
            // times agree bit for bit.
            assert_eq!(
                a.report.time_ms.to_bits(),
                b.report.time_ms.to_bits(),
                "{w} {d}: {} vs {}",
                a.report.time_ms,
                b.report.time_ms
            );
            // And the deploy itself is bit-identical to the infallible path.
            let ctx = WorkloadContext::for_workload(w, d.stats());
            assert_eq!(
                faulty_api.system().deploy(&ctx, &a.config),
                faulty_api
                    .system()
                    .try_deploy(&ctx, &a.config)
                    .expect("healthy try_deploy cannot fail"),
            );
        }
    }
}

/// Transient faults: the completion time of a placement that needed retries
/// must carry the charged retry/backoff cost, mirroring how predictor
/// overhead is charged.
#[test]
fn retry_cost_is_charged_into_completion_time() {
    let mut seen_retry = false;
    for seed in 0..48 {
        let hm = decision_tree_on(FaultPlan::transient(0.5, seed));
        let p = hm.schedule(Workload::PageRank, Dataset::LiveJournal);
        if !p.attempts.succeeded() || p.attempts.failovers > 0 {
            // Exhausted or failed over to the other accelerator's config —
            // not comparable against the clean predicted run.
            continue;
        }
        let clean =
            HeteroMap::with_decision_tree().schedule(Workload::PageRank, Dataset::LiveJournal);
        // The decision tree charges no modeled overhead, so the clean time
        // is the bare deploy and the retried time is that plus the retries.
        assert_eq!(clean.predictor_overhead_ms, 0.0);
        assert_eq!(p.predictor_overhead_ms, 0.0);
        assert_eq!(
            p.report.time_ms.to_bits(),
            (clean.report.time_ms + p.attempts.retry_time_ms).to_bits(),
            "seed {seed}: {} should be clean {} + retries {}",
            p.report.time_ms,
            clean.report.time_ms,
            p.attempts.retry_time_ms
        );
        if p.attempts.retry_time_ms > 0.0 {
            seen_retry = true;
        }
    }
    assert!(seen_retry, "no seed in 0..48 exercised a retry at p=0.5");
}

/// A degraded multicore still completes everything, slower, with the
/// degradation counted.
#[test]
fn degraded_multicore_completes_all_workloads() {
    let plan = FaultPlan::gpu_down().with_state(
        Accelerator::Multicore,
        FaultState::Degraded {
            surviving_core_fraction: 0.5,
        },
    );
    let hm = decision_tree_on(plan);
    for w in Workload::all() {
        let p = hm.schedule(w, Dataset::LiveJournal);
        assert!(p.completed(), "{w}");
        assert_eq!(p.attempts.degraded_deploys, 1, "{w}");
    }
}

/// Streaming with OOM faults: disabling streaming over a tiny memory makes
/// whole-graph chunks fail, and `schedule_stream` must recover by halving
/// the chunk budget until the pieces fit.
#[test]
fn stream_restreams_oom_chunks_at_halved_budget() {
    let g = PowerLaw::new(4_000, 5).generate(11);
    let footprint = g.footprint_bytes();
    // Capacity ~1/6 of the graph: full-graph and half-graph chunks OOM.
    let capacity_gb = footprint as f64 / 6.0 / 1e9;
    let system = MultiAcceleratorSystem::primary()
        .with_memory(capacity_gb, capacity_gb)
        .with_faults(FaultPlan::healthy().without_streaming());
    let hm = HeteroMap::new(system, Box::new(DecisionTree::paper()))
        .with_retry_policy(RetryPolicy::no_retry());
    let report = hm.schedule_stream(Workload::PageRank, &g, footprint);
    assert!(
        report.restreams > 0,
        "oversize chunks must trigger restreams"
    );
    assert!(
        report.chunks.iter().all(|p| p.completed()),
        "every final chunk must fit and complete"
    );
    assert!(report.total_time_ms().is_finite());
    // The same stream on a healthy system needs no restreams.
    let healthy =
        HeteroMap::with_decision_tree().schedule_stream(Workload::PageRank, &g, footprint);
    assert_eq!(healthy.restreams, 0);
}
