//! The ensemble tuner: an AUC bandit allocating evaluations across
//! independent search techniques, with deterministic parallel oracle
//! evaluation and resumable persisted runs.
//!
//! # Determinism
//!
//! The loop alternates two phases per round. *Proposal* is strictly serial:
//! the bandit picks a technique, the technique proposes, and a visited-set
//! memo filters duplicates — all pure functions of the run seed.
//! *Evaluation* fans the round's batch over the `heteromap-kernels` pool
//! with [`par_map`], which returns results in index order, so the observed
//! sequence — and therefore every subsequent proposal — is identical at any
//! worker count. Same seed + budget ⇒ bit-identical best configuration on
//! 1, 4 or 16 threads.

use crate::bandit::AucBandit;
use crate::log::{EvalRecord, TuneLog, TuneLogError};
use crate::technique::{
    Evolution, GridSweep, HillClimb, PatternSearch, RandomSearch, SearchState, Technique,
};
use crate::visited::config_key;
use heteromap_kernels::par::par_map;
use heteromap_model::{MConfig, M_DIM};
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Which techniques the run searches with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Strategy {
    /// The full OpenTuner-style ensemble: random + hill-climb + evolution +
    /// pattern search under the AUC bandit.
    #[default]
    Ensemble,
    /// Seeded random sampling only (the unbiased baseline).
    RandomOnly,
    /// Hill-climbing with random restarts only.
    HillClimbOnly,
    /// Steady-state evolutionary search only.
    EvolutionOnly,
    /// Pattern/coordinate descent only.
    PatternOnly,
}

impl Strategy {
    /// All strategies, ensemble first.
    pub const ALL: [Strategy; 5] = [
        Strategy::Ensemble,
        Strategy::RandomOnly,
        Strategy::HillClimbOnly,
        Strategy::EvolutionOnly,
        Strategy::PatternOnly,
    ];

    /// Stable name used in logs and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Ensemble => "ensemble",
            Strategy::RandomOnly => "random-only",
            Strategy::HillClimbOnly => "hillclimb-only",
            Strategy::EvolutionOnly => "evolution-only",
            Strategy::PatternOnly => "pattern-only",
        }
    }

    /// Parses a [`Strategy::name`] back (log format, CLI flags).
    pub fn from_name(name: &str) -> Option<Strategy> {
        Strategy::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Builds the technique roster, each with its own seed-derived stream.
    fn techniques(self, seed: u64) -> Vec<Box<dyn Technique>> {
        let s = |k: u64| mix(seed, k);
        match self {
            Strategy::Ensemble => vec![
                Box::new(GridSweep::new(s(5))) as Box<dyn Technique>,
                Box::new(HillClimb::new(s(2))),
                Box::new(Evolution::new(s(3))),
                Box::new(PatternSearch::new(s(4))),
                Box::new(RandomSearch::new(s(1))),
            ],
            Strategy::RandomOnly => vec![Box::new(RandomSearch::new(s(1)))],
            Strategy::HillClimbOnly => vec![Box::new(HillClimb::new(s(2)))],
            Strategy::EvolutionOnly => vec![Box::new(Evolution::new(s(3)))],
            Strategy::PatternOnly => vec![Box::new(PatternSearch::new(s(4)))],
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// SplitMix64 step: derives an independent sub-seed from a run seed and a
/// salt (technique index, sample index, ...). Consumers that fan many
/// seeded runs out of one master seed (e.g. per-sample tuning in database
/// generation) use this so each run's stream is independent yet fully
/// determined by `(seed, salt)`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parameters of one tuning run.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Maximum oracle evaluations (must be positive).
    pub budget: usize,
    /// Proposals generated per round; also the width of one parallel
    /// evaluation wave. Fixed independently of `threads` so results are
    /// identical at any worker count.
    pub batch: usize,
    /// Worker threads for oracle evaluation (1 = inline, no pool).
    pub threads: usize,
    /// Run seed; every random draw derives from it.
    pub seed: u64,
    /// Technique roster.
    pub strategy: Strategy,
    /// Optional wall-clock deadline (checked between rounds). Runs under a
    /// deadline trade the determinism guarantee for bounded latency.
    pub deadline: Option<Duration>,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            budget: 300,
            batch: 8,
            threads: 1,
            seed: 0,
            strategy: Strategy::Ensemble,
            deadline: None,
        }
    }
}

impl TuneConfig {
    /// Overrides the evaluation budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the run seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the evaluation thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the proposal batch width.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch must be positive");
        self.batch = batch;
        self
    }

    /// Overrides the search strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Installs a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every budgeted evaluation was spent.
    BudgetExhausted,
    /// The wall-clock deadline fired between rounds.
    Deadline,
    /// The techniques could not propose any unvisited configuration.
    SpaceExhausted,
}

/// Per-technique provenance of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct TechniqueStats {
    /// Technique display name.
    pub name: &'static str,
    /// Times the bandit selected it.
    pub selections: u64,
    /// Oracle evaluations it was charged (memo hits excluded).
    pub evaluations: u64,
    /// New global bests it produced.
    pub wins: u64,
    /// Final AUC credit in `[0, 1]`.
    pub auc: f64,
}

/// One point of the best-cost-so-far curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Oracle evaluations spent when the improvement landed.
    pub evaluations: usize,
    /// Best cost after that evaluation.
    pub cost: f64,
}

/// Result and provenance of a tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOutcome {
    /// The best configuration found.
    pub config: MConfig,
    /// Objective value at the best configuration.
    pub cost: f64,
    /// Oracle evaluations spent.
    pub evaluations: usize,
    /// Run seed (provenance).
    pub seed: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Per-technique selection/win accounting.
    pub stats: Vec<TechniqueStats>,
    /// Best-cost-so-far improvements, in evaluation order.
    pub curve: Vec<CurvePoint>,
}

/// The ensemble tuner (see the module docs for the execution model).
///
/// # Example
///
/// ```
/// use heteromap_tune::{EnsembleTuner, TuneConfig};
///
/// let tuner = EnsembleTuner::new(TuneConfig::default().with_budget(120).with_seed(7));
/// let out = tuner.tune(|cfg| (cfg.global_threads - 0.6).powi(2) + 1.0);
/// assert!(out.cost < 1.01);
/// assert!(out.evaluations <= 120);
/// ```
#[derive(Debug, Clone)]
pub struct EnsembleTuner {
    config: TuneConfig,
}

/// Consecutive duplicate proposals tolerated before the run concludes the
/// reachable space is exhausted.
const STALL_LIMIT_PER_SLOT: usize = 64;

impl EnsembleTuner {
    /// Creates a tuner for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the budget or batch is zero.
    pub fn new(config: TuneConfig) -> Self {
        assert!(config.budget > 0, "budget must be positive");
        assert!(config.batch > 0, "batch must be positive");
        EnsembleTuner { config }
    }

    /// The run parameters.
    pub fn config(&self) -> &TuneConfig {
        &self.config
    }

    /// Runs the search against `oracle` (lower cost is better).
    pub fn tune<F: Fn(&MConfig) -> f64 + Sync>(&self, oracle: F) -> TuneOutcome {
        self.run(None, oracle)
            .expect("log-free runs cannot fail on log errors")
    }

    /// Runs the search, recording every evaluation into `log` and replaying
    /// any evaluations `log` already holds instead of re-querying the
    /// oracle. Persist the log (e.g. [`TuneLog::save_file`]) to make the
    /// run resumable: reloading it and calling this again continues from
    /// the first unrecorded evaluation and lands on the same final result
    /// as an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`TuneLogError::Mismatch`] when `log` was produced under a
    /// different seed/strategy/batch, and [`TuneLogError::Diverged`] when a
    /// recorded configuration disagrees with the replayed proposal stream
    /// (a different oracle, or a corrupt log).
    pub fn tune_logged<F: Fn(&MConfig) -> f64 + Sync>(
        &self,
        log: &mut TuneLog,
        oracle: F,
    ) -> Result<TuneOutcome, TuneLogError> {
        log.check_resumable(&self.config)?;
        self.run(Some(log), oracle)
    }

    fn run<F: Fn(&MConfig) -> f64 + Sync>(
        &self,
        mut log: Option<&mut TuneLog>,
        oracle: F,
    ) -> Result<TuneOutcome, TuneLogError> {
        let _span = heteromap_obs::span_cat("tune.run", "tune");
        let cfg = &self.config;
        let started = Instant::now();
        let mut techniques = cfg.strategy.techniques(cfg.seed);
        let mut bandit = AucBandit::new(techniques.len());
        let mut tech_evals = vec![0u64; techniques.len()];
        // NAN marks a configuration proposed in the current round whose cost
        // is still in flight; finite entries are the memo.
        let mut visited: HashMap<[u64; M_DIM], f64> = HashMap::new();
        let mut best = MConfig::gpu_default();
        let mut best_cost = f64::INFINITY;
        let mut have_best = false;
        let mut curve = Vec::new();
        let mut evaluations = 0usize;
        let mut stop = StopReason::BudgetExhausted;
        let mut leader: Option<usize> = None;

        'rounds: while evaluations < cfg.budget {
            if let Some(deadline) = cfg.deadline {
                if started.elapsed() >= deadline {
                    stop = StopReason::Deadline;
                    heteromap_obs::event("tune.deadline", || {
                        format!("evaluations={evaluations} budget={}", cfg.budget)
                    });
                    break 'rounds;
                }
            }
            let want = cfg.batch.min(cfg.budget - evaluations);
            // Phase 1 — serial proposals through the bandit.
            let mut round: Vec<(usize, MConfig)> = Vec::with_capacity(want);
            {
                let _span = heteromap_obs::span_cat("tune.technique", "tune");
                let mut stalls = 0usize;
                while round.len() < want {
                    let state = SearchState {
                        best: have_best.then_some(&best),
                        best_cost,
                    };
                    let t = bandit.select();
                    let proposal = techniques[t].propose(&state);
                    let key = config_key(&proposal);
                    match visited.get(&key) {
                        Some(cost) if cost.is_nan() => {
                            // In flight this round: nothing to feed back yet.
                            stalls += 1;
                        }
                        Some(&cost) => {
                            // Memo hit: feed the known cost back without
                            // spending budget. Deliberately NOT recorded in
                            // the bandit's credit window — a duplicate costs
                            // nothing, so it must not dilute the AUC of
                            // techniques (hill-climb especially) whose
                            // proposals legitimately revisit neighbourhoods.
                            techniques[t].observe(&proposal, cost, false);
                            stalls += 1;
                        }
                        None => {
                            visited.insert(key, f64::NAN);
                            round.push((t, proposal));
                            stalls = 0;
                        }
                    }
                    if stalls >= STALL_LIMIT_PER_SLOT {
                        break;
                    }
                }
            }
            if round.is_empty() {
                stop = StopReason::SpaceExhausted;
                heteromap_obs::event("tune.space_exhausted", || {
                    format!("evaluations={evaluations} visited={}", visited.len())
                });
                break 'rounds;
            }
            // Phase 2 — evaluation, replayed from the log where recorded,
            // fanned over the pool otherwise, merged by index.
            let costs = {
                let _span = heteromap_obs::span_cat("tune.eval", "tune");
                self.evaluate_round(&round, evaluations, log.as_deref_mut(), &oracle)?
            };
            // Phase 3 — serial observation in evaluation-index order.
            for ((t, proposal), cost) in round.iter().zip(costs) {
                evaluations += 1;
                visited.insert(config_key(proposal), cost);
                let new_best = cost < best_cost;
                if new_best {
                    best = *proposal;
                    best_cost = cost;
                    have_best = true;
                    curve.push(CurvePoint { evaluations, cost });
                    let name = techniques[*t].name();
                    heteromap_obs::event("tune.improvement", || {
                        format!("technique={name} cost={cost} evaluations={evaluations}")
                    });
                }
                techniques[*t].observe(proposal, cost, new_best);
                bandit.record(*t, new_best);
                tech_evals[*t] += 1;
            }
            // Leader accounting: promotion/demotion events for the bandit's
            // exploitation ranking.
            let now_leader = bandit.leader();
            if leader != Some(now_leader) {
                if let Some(old) = leader {
                    let name = techniques[old].name();
                    let auc = bandit.auc(old);
                    heteromap_obs::event("tune.demote", || {
                        format!("technique={name} auc={auc:.4}")
                    });
                }
                let name = techniques[now_leader].name();
                let auc = bandit.auc(now_leader);
                heteromap_obs::event("tune.promote", || {
                    format!("technique={name} auc={auc:.4} evaluations={evaluations}")
                });
                leader = Some(now_leader);
            }
        }
        if stop == StopReason::BudgetExhausted {
            heteromap_obs::event("tune.budget_exhausted", || {
                format!("budget={} best_cost={best_cost}", cfg.budget)
            });
        }
        let stats = techniques
            .iter()
            .enumerate()
            .map(|(t, tech)| TechniqueStats {
                name: tech.name(),
                selections: bandit.uses(t),
                evaluations: tech_evals[t],
                wins: bandit.wins(t),
                auc: bandit.auc(t),
            })
            .collect();
        Ok(TuneOutcome {
            config: best,
            cost: best_cost,
            evaluations,
            seed: cfg.seed,
            stop,
            stats,
            curve,
        })
    }

    /// Costs for one round: recorded evaluations are served from the log
    /// (validated against the replayed proposal), the rest are fanned over
    /// the pool with [`par_map`] and come back in proposal order.
    fn evaluate_round<F: Fn(&MConfig) -> f64 + Sync>(
        &self,
        round: &[(usize, MConfig)],
        base_index: usize,
        mut log: Option<&mut TuneLog>,
        oracle: &F,
    ) -> Result<Vec<f64>, TuneLogError> {
        let mut costs = vec![f64::NAN; round.len()];
        let mut missing: Vec<(usize, MConfig)> = Vec::new();
        for (i, (_, proposal)) in round.iter().enumerate() {
            match log.as_ref().and_then(|l| l.records().get(base_index + i)) {
                Some(rec) => {
                    if config_key(&rec.config) != config_key(proposal) {
                        return Err(TuneLogError::Diverged {
                            index: base_index + i,
                        });
                    }
                    costs[i] = rec.cost;
                }
                None => missing.push((i, *proposal)),
            }
        }
        if !missing.is_empty() {
            let fresh = par_map(missing.len(), self.config.threads, |k| {
                oracle(&missing[k].1)
            });
            for ((i, proposal), cost) in missing.into_iter().zip(fresh) {
                costs[i] = cost;
                if let Some(l) = log.as_deref_mut() {
                    // Replay always exhausts the recorded prefix before any
                    // fresh evaluation, so appends stay index-aligned.
                    debug_assert_eq!(l.len(), base_index + i);
                    l.push(EvalRecord {
                        config: proposal,
                        cost,
                    });
                }
            }
        }
        Ok(costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_model::Accelerator;

    fn convex_oracle(cfg: &MConfig) -> f64 {
        let accel_penalty = match cfg.accelerator {
            Accelerator::Gpu => 0.0,
            Accelerator::Multicore => 5.0,
        };
        accel_penalty + (cfg.global_threads - 0.7).powi(2) + (cfg.local_threads - 0.3).powi(2) + 1.0
    }

    #[test]
    fn finds_the_convex_optimum() {
        let out = EnsembleTuner::new(TuneConfig::default().with_budget(400).with_seed(1))
            .tune(convex_oracle);
        assert_eq!(out.config.accelerator, Accelerator::Gpu);
        assert!(out.cost < 1.01, "cost {}", out.cost);
        assert_eq!(out.stop, StopReason::BudgetExhausted);
        assert_eq!(out.evaluations, 400);
    }

    #[test]
    fn ensemble_beats_random_only_at_the_same_budget() {
        let budget = 200;
        let ens = EnsembleTuner::new(
            TuneConfig::default()
                .with_budget(budget)
                .with_seed(3)
                .with_strategy(Strategy::Ensemble),
        )
        .tune(convex_oracle);
        let rnd = EnsembleTuner::new(
            TuneConfig::default()
                .with_budget(budget)
                .with_seed(3)
                .with_strategy(Strategy::RandomOnly),
        )
        .tune(convex_oracle);
        assert!(
            ens.cost <= rnd.cost,
            "ensemble {} vs random {}",
            ens.cost,
            rnd.cost
        );
    }

    #[test]
    fn never_spends_budget_on_a_duplicate() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let out =
            EnsembleTuner::new(TuneConfig::default().with_budget(300).with_seed(5)).tune(|cfg| {
                assert!(
                    seen.lock().unwrap().insert(config_key(cfg)),
                    "oracle called twice for the same configuration"
                );
                convex_oracle(cfg)
            });
        assert_eq!(out.evaluations, seen.lock().unwrap().len());
    }

    #[test]
    fn stats_account_for_every_evaluation() {
        let out = EnsembleTuner::new(TuneConfig::default().with_budget(150).with_seed(9))
            .tune(convex_oracle);
        let total: u64 = out.stats.iter().map(|s| s.evaluations).sum();
        assert_eq!(total as usize, out.evaluations);
        assert_eq!(out.stats.len(), 5);
        let wins: u64 = out.stats.iter().map(|s| s.wins).sum();
        assert_eq!(wins as usize, out.curve.len());
    }

    #[test]
    fn curve_is_monotone_decreasing() {
        let out = EnsembleTuner::new(TuneConfig::default().with_budget(250).with_seed(2))
            .tune(convex_oracle);
        for pair in out.curve.windows(2) {
            assert!(pair[1].cost < pair[0].cost);
            assert!(pair[1].evaluations > pair[0].evaluations);
        }
        assert_eq!(out.curve.last().unwrap().cost, out.cost);
    }

    #[test]
    fn tiny_space_exhausts_instead_of_spinning() {
        // An oracle over a space the techniques can fully enumerate: pin
        // everything by quantizing to the coarse grid in the oracle key.
        // Budget far above the reachable space forces the stall path.
        let out = EnsembleTuner::new(
            TuneConfig::default()
                .with_budget(1_000_000)
                .with_batch(4)
                .with_seed(4)
                .with_strategy(Strategy::HillClimbOnly),
        )
        .tune(|cfg| {
            // Coarse surrogate: only the accelerator matters, so the climb
            // converges instantly and restarts chew through samples.
            match cfg.accelerator {
                Accelerator::Gpu => 1.0,
                Accelerator::Multicore => 2.0,
            }
        });
        // The run must terminate (this test hanging = the bug); either the
        // budget or the space ran out.
        assert!(out.evaluations <= 1_000_000);
    }

    #[test]
    fn deadline_stops_the_run() {
        let out = EnsembleTuner::new(
            TuneConfig::default()
                .with_budget(usize::MAX / 2)
                .with_seed(6)
                .with_deadline(Duration::from_millis(20)),
        )
        .tune(|cfg| {
            std::thread::sleep(Duration::from_micros(200));
            convex_oracle(cfg)
        });
        assert_eq!(out.stop, StopReason::Deadline);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_panics() {
        let _ = EnsembleTuner::new(TuneConfig::default().with_budget(0));
    }
}
