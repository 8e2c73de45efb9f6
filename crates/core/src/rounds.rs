//! The deterministic round engine behind the chaos harness and the fleet
//! simulator. A [`RoundPolicy`] supplies what differs; [`run`] drives
//! every round the same way:
//!
//! 1. every [`RoundPolicy::episode_len`] rounds the policy re-draws its
//!    fault states and the engine records the policy's episode event;
//! 2. the policy opens the round serially: it admits work, snapshots
//!    routing and may resolve work outright (a shed);
//! 3. the engine evaluates the open slots on the pool through
//!    [`RoundPolicy::evaluate`], which takes `&self`: no slot can move
//!    routing state, and workers decide *who* computes a slot, never
//!    *what* it resolves to;
//! 4. the engine folds the outcomes in slot order through
//!    [`RoundPolicy::fold`] into one [`Ledger`];
//! 5. the policy closes the round (health passes, observers).
//!
//! The ledger's counts, completion times and chained digest are therefore
//! bit-identical at any thread count.

use crate::report::Placement;
use crate::resilient::AttemptOutcome;
use heteromap_kernels::par::par_map;
use heteromap_model::fold_digest;

/// How one request or job resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Completed within its deadline.
    Good,
    /// Resolved outside its deadline.
    Late,
    /// Every attempt failed, or the retry budget ran out.
    Failed,
    /// Refused without running.
    Shed,
}

impl Resolution {
    /// The digest tag: 1 to 4 in declaration order.
    pub fn tag(self) -> u64 {
        self as u64 + 1
    }

    /// The deadline rule for a deployed placement: `Good` if it completed
    /// within `deadline_ms`; `Late` if it ran past the deadline or an
    /// attempt was cut short by it
    /// ([`AttemptOutcome::DeadlineExceeded`]); `Failed` otherwise.
    pub fn of(placement: &Placement, deadline_ms: f64) -> Resolution {
        let within = placement.report.time_ms <= deadline_ms;
        if placement.completed() && within {
            Resolution::Good
        } else if !within
            || placement
                .attempts
                .records
                .iter()
                .any(|r| matches!(r.outcome, AttemptOutcome::DeadlineExceeded { .. }))
        {
            Resolution::Late
        } else {
            Resolution::Failed
        }
    }
}

/// What a run resolved, in fold order.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Resolutions counted by kind, indexed by `tag − 1`.
    pub counts: [usize; 4],
    /// Completion times in ms.
    pub times: Vec<f64>,
    digest: u64,
}

impl Ledger {
    /// An empty ledger whose digest chain starts at `seed`.
    pub fn new(seed: u64) -> Self {
        Ledger {
            counts: [0; 4],
            times: Vec::new(),
            digest: seed,
        }
    }

    /// Counts `resolution` and chains `(round, id, tag, rest…)`.
    pub fn resolve(
        &mut self,
        round: u32,
        id: u64,
        resolution: Resolution,
        rest: impl IntoIterator<Item = u64>,
    ) {
        self.counts[resolution as usize] += 1;
        self.chain(round, id, resolution.tag(), rest);
    }

    /// Chains `(round, id, tag, rest…)` into the digest without counting a
    /// resolution.
    pub fn chain(&mut self, round: u32, id: u64, tag: u64, rest: impl IntoIterator<Item = u64>) {
        let mut parts = vec![u64::from(round), id, tag];
        parts.extend(rest);
        self.digest = fold_digest(self.digest, &parts);
    }

    /// The digest chained so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The nearest-rank 99th percentile of the times (`NaN` when empty).
    pub fn p99_ms(&self) -> f64 {
        let mut times = self.times.clone();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let rank = (0.99 * times.len() as f64).ceil() as usize;
        times.get(rank.max(1) - 1).copied().unwrap_or(f64::NAN)
    }
}

/// The rules [`run`] drives: what a round admits, how a slot is evaluated
/// and how its outcome folds.
pub trait RoundPolicy: Sync {
    /// One slot's evaluated outcome.
    type Outcome: Send;
    /// Category of the `round`, `round.eval` and `round.fold` spans.
    const CATEGORY: &'static str;
    /// Event recorded at each episode boundary.
    const EPISODE_EVENT: &'static str;

    /// Where the digest chain starts: the run seed xor a per-policy salt.
    fn digest_seed(&self) -> u64;
    /// Rounds per fault episode.
    fn episode_len(&self) -> u32;
    /// Whether `round` runs; the first `false` ends the run.
    fn runs(&self, round: u32) -> bool;
    /// Re-draws the fault states for `episode`.
    fn begin_episode(&mut self, episode: u32);
    /// The episode event's detail after `episode=… round=…`.
    fn describe_episode(&self, episode: u32) -> String;
    /// Admits the round's work and snapshots routing; returns the number
    /// of slots to evaluate.
    fn open_round(&mut self, round: u32, ledger: &mut Ledger) -> usize;
    /// Evaluates one slot against the round's snapshot.
    fn evaluate(&self, round: u32, slot: usize) -> Self::Outcome;
    /// Folds one slot's outcome; called in slot order.
    fn fold(&mut self, round: u32, slot: usize, outcome: Self::Outcome, ledger: &mut Ledger);
    /// End-of-round passes after the fold.
    fn close_round(&mut self, round: u32, ledger: &Ledger);
}

/// Drives `policy` round by round, evaluating slots on up to `threads`
/// pool participants, and returns the run's ledger.
pub fn run<P: RoundPolicy>(policy: &mut P, threads: usize) -> Ledger {
    let episode_len = policy.episode_len().max(1);
    let mut ledger = Ledger::new(policy.digest_seed());
    let mut round = 0u32;
    while policy.runs(round) {
        let _round = heteromap_obs::span_cat("round", P::CATEGORY);
        if round.is_multiple_of(episode_len) {
            let episode = round / episode_len;
            policy.begin_episode(episode);
            heteromap_obs::event(P::EPISODE_EVENT, || {
                let detail = policy.describe_episode(episode);
                format!("episode={episode} round={round} {detail}")
            });
        }
        let slots = policy.open_round(round, &mut ledger);
        let outcomes = {
            let _span = heteromap_obs::span_cat("round.eval", P::CATEGORY);
            let snapshot: &P = policy;
            par_map(slots, threads, |slot| snapshot.evaluate(round, slot))
        };
        let _span = heteromap_obs::span_cat("round.fold", P::CATEGORY);
        for (slot, outcome) in outcomes.into_iter().enumerate() {
            policy.fold(round, slot, outcome, &mut ledger);
        }
        policy.close_round(round, &ledger);
        round += 1;
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_tags_are_one_to_four() {
        let tags = [
            Resolution::Good,
            Resolution::Late,
            Resolution::Failed,
            Resolution::Shed,
        ]
        .map(Resolution::tag);
        assert_eq!(tags, [1, 2, 3, 4]);
    }

    #[test]
    fn p99_is_nearest_rank() {
        let mut ledger = Ledger::new(0);
        assert!(ledger.p99_ms().is_nan());
        ledger.times = (1..=200).rev().map(f64::from).collect();
        assert_eq!(ledger.p99_ms(), 198.0);
        ledger.times = vec![7.0];
        assert_eq!(ledger.p99_ms(), 7.0);
    }

    #[test]
    fn resolve_counts_and_chains_like_fold_digest() {
        let mut ledger = Ledger::new(9);
        ledger.resolve(3, 5, Resolution::Late, [7, 8]);
        ledger.chain(4, 6, 5, []);
        let want = fold_digest(fold_digest(9, &[3, 5, 2, 7, 8]), &[4, 6, 5]);
        assert_eq!(ledger.digest(), want);
        assert_eq!(ledger.counts, [0, 1, 0, 0]);
    }
}
