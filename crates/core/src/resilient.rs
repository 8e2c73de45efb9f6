//! Resilient scheduling primitives: retry policies, attempt bookkeeping and
//! the last-resort static predictor.
//!
//! The paper's framework assumes every deploy succeeds; this module carries
//! what the fault-tolerant scheduling path (see
//! [`HeteroMap::schedule_context`](crate::HeteroMap::schedule_context)) needs
//! on top of that:
//!
//! * [`RetryPolicy`] — how many times to retry a transient deploy failure,
//!   with capped decorrelated-jitter backoff drawn deterministically from a
//!   seed. All retry cost is *simulated* and charged to the completion time
//!   exactly like predictor overhead (§V-A);
//! * [`DeployOptions`] — per-request deadline and routing constraints the
//!   serving layer threads into the resilient deploy loop;
//! * [`AttemptLog`] / [`AttemptRecord`] — the audit trail of a scheduling
//!   decision: every attempt, failover, degraded deploy and the total time
//!   charged for resilience;
//! * [`StaticDefault`] — the end of the predictor fallback chain: a fixed
//!   default configuration that is always feasible.

use heteromap_model::{Accelerator, BVector, IVector, MConfig};
use heteromap_predict::Predictor;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Retry/backoff policy for transient deploy failures.
///
/// Backoff uses **seeded decorrelated jitter** (the AWS "decorrelated
/// jitter" scheme made deterministic): the wait before retry `k` is drawn
/// uniformly from `[base_backoff_ms, prev_wait × (backoff_multiplier + 1)]`
/// and capped at `max_backoff_ms`, with every draw a pure function of
/// `(seed, k)`. Runs are bit-reproducible, while policies with different
/// seeds spread their waits across the whole envelope instead of
/// synchronizing into thundering herds on the shared accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum deploy attempts per accelerator (≥ 1) before failing over.
    pub max_attempts: u32,
    /// Lower bound of every backoff wait, in simulated milliseconds.
    pub base_backoff_ms: f64,
    /// Growth knob: retry `k` draws from
    /// `[base, prev_wait × (backoff_multiplier + 1)]`, so the expected wait
    /// grows roughly geometrically with this factor.
    pub backoff_multiplier: f64,
    /// Upper cap on any single backoff wait, in simulated milliseconds.
    pub max_backoff_ms: f64,
    /// Per-attempt completion-time budget in milliseconds; an attempt whose
    /// simulated time exceeds it counts as a timeout. `f64::INFINITY`
    /// (the default) disables timeouts.
    pub attempt_timeout_ms: f64,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 1.0,
            backoff_multiplier: 2.0,
            max_backoff_ms: 64.0,
            attempt_timeout_ms: f64::INFINITY,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, immediate failover).
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Adds a per-attempt completion-time budget.
    pub fn with_timeout_ms(mut self, attempt_timeout_ms: f64) -> Self {
        self.attempt_timeout_ms = attempt_timeout_ms;
        self
    }

    /// Replaces the jitter seed (concurrent clients decorrelate by seeding
    /// differently).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Simulated backoff charged before retry number `retry` (1-based:
    /// the wait between attempt `retry - 1` failing and attempt `retry`
    /// starting). Returns 0 for `retry == 0`.
    ///
    /// Decorrelated jitter walks the whole chain of draws so that
    /// `backoff_ms(k)` is a pure function of `(seed, k)` — no mutable state,
    /// deterministic for a given policy, bounded by
    /// `[base_backoff_ms, max_backoff_ms]`.
    pub fn backoff_ms(&self, retry: u32) -> f64 {
        if retry == 0 {
            return 0.0;
        }
        let base = self.base_backoff_ms.max(0.0);
        let cap = self.max_backoff_ms.max(base);
        let growth = self.backoff_multiplier.max(1.0) + 1.0;
        let mut wait = base;
        for k in 1..=retry {
            let mut h = heteromap_model::StableHasher::new();
            self.seed.hash(&mut h);
            k.hash(&mut h);
            let unit = h.finish() as f64 / (u64::MAX as f64 + 1.0); // [0, 1)
            let hi = (wait * growth).clamp(base, cap);
            wait = base + unit * (hi - base);
        }
        wait
    }
}

/// Per-request constraints threaded into the resilient deploy loop by the
/// serving layer: a completion deadline and circuit-breaker routing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeployOptions {
    /// Total simulated completion budget in milliseconds (predictor
    /// overhead + retries/backoff + the run itself). Attempts whose
    /// deterministic completion time would bust the budget are not
    /// launched, and backoff never charges past it. `f64::INFINITY`
    /// (the default) disables the deadline.
    pub deadline_ms: f64,
    /// An accelerator to route around entirely (its circuit breaker is
    /// open); the deploy loop re-clamps the predicted configuration for the
    /// survivor instead.
    pub avoid: Option<Accelerator>,
}

impl Default for DeployOptions {
    fn default() -> Self {
        DeployOptions {
            deadline_ms: f64::INFINITY,
            avoid: None,
        }
    }
}

impl DeployOptions {
    /// Options with only a completion deadline.
    pub fn with_deadline_ms(deadline_ms: f64) -> Self {
        DeployOptions {
            deadline_ms,
            ..DeployOptions::default()
        }
    }

    /// Adds an accelerator to route around.
    pub fn avoiding(mut self, accelerator: Option<Accelerator>) -> Self {
        self.avoid = accelerator;
        self
    }

    /// Whether these options change nothing relative to the default flow.
    pub fn is_unconstrained(&self) -> bool {
        self.deadline_ms.is_infinite() && self.avoid.is_none()
    }
}

/// How one deploy attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttemptOutcome {
    /// The deploy completed.
    Success,
    /// The target accelerator was down.
    AcceleratorDown,
    /// A transient fault killed the attempt after `failed_after_ms`.
    TransientFailure {
        /// Simulated milliseconds wasted before the fault struck.
        failed_after_ms: f64,
    },
    /// The attempt would have exceeded the policy's per-attempt budget.
    Timeout {
        /// The simulated completion time that broke the budget.
        would_take_ms: f64,
    },
    /// The working set did not fit the accelerator's memory (streaming
    /// disabled in the fault plan).
    OutOfMemory {
        /// Working-set footprint in bytes.
        footprint_bytes: u64,
        /// Accelerator memory capacity in bytes.
        capacity_bytes: u64,
    },
    /// The attempt was not launched because its deterministic completion
    /// time would have busted the caller's [`DeployOptions::deadline_ms`]
    /// budget (the simulator knows the exact cost up front, so the loop
    /// skips doomed work instead of discovering the miss afterwards).
    DeadlineExceeded {
        /// The completion time the attempt would have needed (`INFINITY`
        /// when the budget was already exhausted before the attempt).
        would_take_ms: f64,
        /// Budget remaining when the attempt was considered.
        remaining_ms: f64,
    },
}

/// One deploy attempt in the audit trail.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// The accelerator the attempt targeted.
    pub accelerator: Accelerator,
    /// Zero-based attempt index on that accelerator.
    pub attempt: u32,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// Simulated milliseconds this attempt charged to the completion time
    /// (wasted partial runs, timeout budgets, backoff waits; 0 for a clean
    /// first-attempt success).
    pub charged_ms: f64,
}

/// Inline-first list of [`AttemptRecord`]s.
///
/// The fault-free fast path logs exactly one record per request, and almost
/// every faulty decision fits in two — so the first two records live inline
/// and only deeper retry chains spill to the heap. This keeps the serving
/// steady state allocation-free (`clean_success` was the last heap
/// allocation on the cached hot path). Dereferences to `&[AttemptRecord]`,
/// so call sites read it exactly like the `Vec` it replaced.
#[derive(Debug, Clone)]
pub struct AttemptList {
    inline: [AttemptRecord; Self::INLINE],
    inline_len: u8,
    /// Non-empty iff the list outgrew the inline capacity; then it holds
    /// *all* records and `inline` is dead.
    spill: Vec<AttemptRecord>,
}

impl Default for AttemptList {
    fn default() -> Self {
        // The inline slots need an initialized (never observed) filler;
        // only `..inline_len` is ever exposed.
        const FILLER: AttemptRecord = AttemptRecord {
            accelerator: Accelerator::Multicore,
            attempt: 0,
            outcome: AttemptOutcome::Success,
            charged_ms: 0.0,
        };
        AttemptList {
            inline: [FILLER; Self::INLINE],
            inline_len: 0,
            spill: Vec::new(),
        }
    }
}

impl AttemptList {
    const INLINE: usize = 2;

    /// An empty list.
    pub fn new() -> Self {
        AttemptList::default()
    }

    /// Appends a record (inline until the third, heap after).
    pub fn push(&mut self, record: AttemptRecord) {
        if !self.spill.is_empty() {
            self.spill.push(record);
        } else if (self.inline_len as usize) < Self::INLINE {
            self.inline[self.inline_len as usize] = record;
            self.inline_len += 1;
        } else {
            self.spill.reserve(Self::INLINE + 1);
            self.spill
                .extend_from_slice(&self.inline[..self.inline_len as usize]);
            self.spill.push(record);
        }
    }

    /// The records as a slice (also available through deref).
    pub fn as_slice(&self) -> &[AttemptRecord] {
        if self.spill.is_empty() {
            &self.inline[..self.inline_len as usize]
        } else {
            &self.spill
        }
    }
}

impl std::ops::Deref for AttemptList {
    type Target = [AttemptRecord];

    fn deref(&self) -> &[AttemptRecord] {
        self.as_slice()
    }
}

impl PartialEq for AttemptList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a> IntoIterator for &'a AttemptList {
    type Item = &'a AttemptRecord;
    type IntoIter = std::slice::Iter<'a, AttemptRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<AttemptRecord> for AttemptList {
    fn from_iter<T: IntoIterator<Item = AttemptRecord>>(iter: T) -> Self {
        let mut list = AttemptList::new();
        for r in iter {
            list.push(r);
        }
        list
    }
}

impl From<Vec<AttemptRecord>> for AttemptList {
    fn from(records: Vec<AttemptRecord>) -> Self {
        records.into_iter().collect()
    }
}

// The vendored serde is a marker-trait stub, so persistence support needs
// only the marker impls (derive would demand `AttemptRecord: Default`).
impl Serialize for AttemptList {}
impl<'de> Deserialize<'de> for AttemptList {}

/// Audit trail of one scheduling decision under faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AttemptLog {
    /// Every deploy attempt, in temporal order.
    pub records: AttemptList,
    /// How many times scheduling moved to the other accelerator.
    pub failovers: u32,
    /// How many successful deploys ran on degraded (partial-core) silicon.
    pub degraded_deploys: u32,
    /// How many times an infeasible prediction fell back down the predictor
    /// chain (trained model → decision tree → static default).
    pub predictor_fallbacks: u32,
    /// Total simulated retry/backoff/failover time charged to the
    /// completion time (on top of predictor overhead).
    pub retry_time_ms: f64,
}

impl AttemptLog {
    /// The log of a clean first-attempt success on `accelerator` — what the
    /// fault-free fast path records.
    pub fn clean_success(accelerator: Accelerator) -> Self {
        let mut records = AttemptList::new();
        records.push(AttemptRecord {
            accelerator,
            attempt: 0,
            outcome: AttemptOutcome::Success,
            charged_ms: 0.0,
        });
        AttemptLog {
            records,
            ..AttemptLog::default()
        }
    }

    /// Total number of deploy attempts made.
    pub fn total_attempts(&self) -> usize {
        self.records.len()
    }

    /// Whether the final attempt succeeded.
    pub fn succeeded(&self) -> bool {
        matches!(
            self.records.last().map(|r| r.outcome),
            Some(AttemptOutcome::Success)
        )
    }
}

/// Re-clamps a predicted configuration for a (possibly degraded) target
/// accelerator: `M1` is forced to `accelerator`, and when only
/// `surviving_fraction` of its cores are usable the concurrency knobs are
/// scaled up to recover the predicted parallelism on the surviving silicon
/// (cores first, spilling into threads-per-core once the core knob
/// saturates).
///
/// This is the migration path shared by the resilient deploy loop's
/// failover and the fleet scheduler's re-placement of jobs off
/// Degraded/Down devices.
pub fn clamp_config_for(
    predicted: &MConfig,
    accelerator: Accelerator,
    surviving_fraction: f64,
) -> MConfig {
    let mut config = *predicted;
    config.accelerator = accelerator;
    let frac = surviving_fraction.clamp(1e-3, 1.0);
    if frac < 1.0 {
        let wanted_cores = config.cores / frac;
        config.cores = wanted_cores.min(1.0);
        if wanted_cores > 1.0 {
            // Core knob saturated: recover the remaining concurrency
            // through threads per core.
            config.threads_per_core = (config.threads_per_core * wanted_cores).min(1.0);
        }
        config.global_threads = (config.global_threads / frac).min(1.0);
    }
    config
}

/// Last resort of the predictor fallback chain: a fixed default
/// configuration for one accelerator. Always feasible, never trained.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaticDefault {
    /// The accelerator the default routes everything to.
    pub accelerator: Accelerator,
}

impl Default for StaticDefault {
    fn default() -> Self {
        // The multicore is the conservative choice: coherent caches and no
        // divergence cliffs make its default configuration broadly safe.
        StaticDefault {
            accelerator: Accelerator::Multicore,
        }
    }
}

impl Predictor for StaticDefault {
    fn name(&self) -> &str {
        "Static Default"
    }

    fn predict(&self, _b: &BVector, _i: &IVector) -> MConfig {
        match self.accelerator {
            Accelerator::Gpu => MConfig::gpu_default(),
            Accelerator::Multicore => MConfig::multicore_default(),
        }
    }
}

/// Whether a predicted configuration can actually be deployed: every encoded
/// dimension must be finite (NaN/±inf survive `MConfig::from_array`'s clamp
/// and would poison the cost model).
pub fn config_is_feasible(config: &MConfig) -> bool {
    config.as_array().iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_stays_inside_the_decorrelated_envelope() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 3);
        assert_eq!(p.backoff_ms(0), 0.0);
        // Every wait is bounded by [base, cap], and by the exponential
        // envelope base × growth^k that decorrelated jitter never exceeds.
        let growth = p.backoff_multiplier + 1.0;
        for k in 1..=8u32 {
            let b = p.backoff_ms(k);
            assert!(b >= p.base_backoff_ms, "retry {k}: {b}");
            assert!(b <= p.max_backoff_ms, "retry {k}: {b}");
            assert!(
                b <= p.base_backoff_ms * growth.powi(k as i32),
                "retry {k}: {b}"
            );
        }
        // A tight cap clamps every draw.
        let capped = RetryPolicy {
            max_backoff_ms: 2.5,
            ..RetryPolicy::default()
        };
        for k in 1..=8u32 {
            assert!(capped.backoff_ms(k) <= 2.5);
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let a = RetryPolicy::default();
        let b = RetryPolicy::default();
        for k in 0..6 {
            assert_eq!(a.backoff_ms(k).to_bits(), b.backoff_ms(k).to_bits());
        }
        let other = RetryPolicy::default().with_seed(99);
        assert_ne!(a.backoff_ms(2), other.backoff_ms(2));
    }

    #[test]
    fn backoff_decorrelates_across_seeds() {
        // Thundering-herd regression: a population of concurrently retrying
        // clients (distinct seeds) must spread their first-retry waits over
        // the envelope instead of waking simultaneously. Exponential backoff
        // with ±10% jitter (the old scheme) kept everyone within a 20% band;
        // decorrelated jitter must do strictly better than a 50% band.
        let waits: Vec<f64> = (0..64u64)
            .map(|seed| RetryPolicy::default().with_seed(seed).backoff_ms(1))
            .collect();
        let lo = waits.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = waits.iter().cloned().fold(0.0, f64::max);
        assert!(
            (hi - lo) / hi > 0.5,
            "64 seeds spread only [{lo}, {hi}] at retry 1"
        );
        // And distinct retries of one client do not repeat each other.
        let p = RetryPolicy::default().with_seed(7);
        assert_ne!(p.backoff_ms(1), p.backoff_ms(2));
    }

    #[test]
    fn deploy_options_defaults_are_unconstrained() {
        let opts = DeployOptions::default();
        assert!(opts.is_unconstrained());
        assert!(!DeployOptions::with_deadline_ms(5.0).is_unconstrained());
        assert!(!DeployOptions::default()
            .avoiding(Some(Accelerator::Gpu))
            .is_unconstrained());
    }

    #[test]
    fn no_retry_policy_has_single_attempt() {
        assert_eq!(RetryPolicy::no_retry().max_attempts, 1);
    }

    #[test]
    fn clean_success_log_shape() {
        let log = AttemptLog::clean_success(Accelerator::Gpu);
        assert_eq!(log.total_attempts(), 1);
        assert!(log.succeeded());
        assert_eq!(log.failovers, 0);
        assert_eq!(log.retry_time_ms, 0.0);
        assert_eq!(log.records[0].charged_ms, 0.0);
        assert!(!AttemptLog::default().succeeded());
    }

    #[test]
    fn static_default_predicts_its_accelerator() {
        use heteromap_graph::datasets::LiteratureMaxima;
        use heteromap_graph::GraphStats;
        use heteromap_model::{Grid, Workload};
        let b = Workload::Bfs.b_vector();
        let i = IVector::from_stats(
            &GraphStats::from_known(1_000, 10_000, 30, 100),
            &LiteratureMaxima::paper(),
            Grid::PAPER,
        );
        let mc = StaticDefault::default();
        assert_eq!(mc.predict(&b, &i).accelerator, Accelerator::Multicore);
        let gpu = StaticDefault {
            accelerator: Accelerator::Gpu,
        };
        assert_eq!(gpu.predict(&b, &i).accelerator, Accelerator::Gpu);
        assert_eq!(gpu.name(), "Static Default");
    }

    #[test]
    fn feasibility_rejects_nan_configs() {
        let mut cfg = MConfig::gpu_default();
        assert!(config_is_feasible(&cfg));
        cfg.cores = f64::NAN;
        assert!(!config_is_feasible(&cfg));
        cfg.cores = f64::INFINITY;
        assert!(!config_is_feasible(&cfg));
    }
}
