//! Weighted label vote shared by [`community`](crate::community) and
//! [`labelprop`](crate::labelprop).
//!
//! Each label's weight starts at `+0.0` and adds the voting edges' weights
//! in edge order, so every per-label sum is the same `f32` a map keyed by
//! label would hold. The winner is the largest `(weight desc, label asc)`
//! pair, starting from `(-inf, current)`. [`key`] packs that pair into one
//! `u64` whose integer order is this order, so the winner is a branch-free
//! integer max that does not depend on the order the labels are visited in:
//! labels are bit-identical to a hash-map tally.
//!
//! Two tallies feed the max:
//!
//! * **Stack lanes** (at most [`LANES`] ballots, e.g. every grid vertex):
//!   lane `j` sums `w[i]` over the ballots `i` (in edge order) whose label
//!   equals its own and adds `+0.0` for the others. A sum that starts at
//!   `+0.0` is never `-0.0`, so the extra `+0.0` terms leave its bits
//!   unchanged; lanes that share a label hold the same sum and key. This
//!   costs `LANES²` adds with no data-dependent branch, against a map
//!   tally's compare, branch and slot bookkeeping per edge.
//! * **Dense cells** (more ballots): `cell[label]` holds a `(stamp, sum)`
//!   pair that is live only while its stamp is the current vote's, so
//!   nothing is cleared between votes.

use crate::par::par_chunks_mut;
use heteromap_graph::{CsrGraph, VertexId};
use std::sync::Mutex;

/// Ballot count up to which a vote tallies in stack lanes.
const LANES: usize = 8;

/// The vote order as an integer: `key(a) > key(b)` exactly when `a` has
/// the larger weight, or the same weight and the smaller label.
///
/// The high half holds the weight's bits remapped so that unsigned order is
/// numeric order (negatives flipped, the sign bit set on the rest), after
/// `+ 0.0` folds `-0.0` into `+0.0`. A NaN weight maps to `0`, below every
/// other weight, so it never wins. The low half is `u32::MAX - label`.
fn key(weight: f32, label: u32) -> u64 {
    let bits = (weight + 0.0).to_bits();
    let ordered = bits ^ ((((bits as i32) >> 31) as u32) | 0x8000_0000);
    let ordered = if weight.is_nan() { 0 } else { ordered };
    (u64::from(ordered) << 32) | u64::from(u32::MAX - label)
}

/// The label packed into a [`key`].
fn label_of(key: u64) -> u32 {
    u32::MAX - key as u32
}

/// Reusable scratch for weighted label votes over labels `0..labels`.
#[derive(Debug)]
pub(crate) struct LabelVote {
    /// `cell[label] = (stamp, sum)`: the sum is live for the current dense
    /// vote only while `stamp == epoch`. Stamp and sum share a cache line,
    /// so a ballot costs one dependent load after its label.
    cell: Vec<(u32, f32)>,
    /// The current dense vote's labels in first-vote order.
    touched: Vec<u32>,
    epoch: u32,
}

impl LabelVote {
    /// Scratch for votes over labels `0..labels`.
    pub(crate) fn new(labels: usize) -> Self {
        LabelVote {
            cell: vec![(0, 0.0); labels],
            touched: Vec::new(),
            epoch: 0,
        }
    }

    /// The label with the largest total weight over one ballot per voter
    /// (voter `voters[i]` casts `labels[voters[i]]` with weight
    /// `weights[i]`), ties toward the smaller label. Returns `current` when
    /// there are no votes or no sum beats `-inf`.
    ///
    /// # Panics
    ///
    /// Panics if a voted label is outside the range given to [`Self::new`].
    pub(crate) fn winner(
        &mut self,
        current: u32,
        voters: &[VertexId],
        weights: &[f32],
        labels: &[u32],
    ) -> u32 {
        let start = key(f32::NEG_INFINITY, current);
        let best = if voters.len() <= LANES {
            stack_vote(start, voters, weights, labels)
        } else {
            self.dense_vote(start, voters, weights, labels)
        };
        label_of(best)
    }

    /// The dense tally: the best key over `start` and every label's sum.
    fn dense_vote(
        &mut self,
        start: u64,
        voters: &[VertexId],
        weights: &[f32],
        labels: &[u32],
    ) -> u64 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: forget every stamp so no stale cell reads as live.
            self.cell.iter_mut().for_each(|c| c.0 = 0);
            self.epoch = 1;
        }
        self.touched.clear();
        for (&u, &w) in voters.iter().zip(weights) {
            let label = labels[u as usize];
            let cell = &mut self.cell[label as usize];
            if cell.0 == self.epoch {
                cell.1 += w;
            } else {
                // Sums start at +0.0, as in a map tally.
                *cell = (self.epoch, 0.0 + w);
                self.touched.push(label);
            }
        }
        self.touched.iter().fold(start, |best, &label| {
            best.max(key(self.cell[label as usize].1, label))
        })
    }
}

/// The stack tally for at most [`LANES`] ballots: the best key over `start`
/// and every real lane's sum. Every loop runs over all [`LANES`] lanes, so
/// it compiles to straight-line vector code. Pad ballots carry weight
/// `+0.0`, which leaves every lane's sum unchanged, and pad lanes are
/// masked out of the max.
fn stack_vote(start: u64, voters: &[VertexId], weights: &[f32], labels: &[u32]) -> u64 {
    debug_assert!(voters.len() <= LANES);
    let mut lane_label = [u32::MAX; LANES];
    let mut lane_weight = [0.0f32; LANES];
    for (i, (&u, &w)) in voters.iter().zip(weights).enumerate() {
        lane_label[i] = labels[u as usize];
        lane_weight[i] = w;
    }
    let mut sum = [0.0f32; LANES];
    for (&label, &w) in lane_label.iter().zip(&lane_weight) {
        for (s, &own) in sum.iter_mut().zip(&lane_label) {
            *s += if own == label { w } else { 0.0 };
        }
    }
    let mut best = start;
    for (lane, (&s, &label)) in sum.iter().zip(&lane_label).enumerate() {
        best = best.max(if lane < voters.len() {
            key(s, label)
        } else {
            0
        });
    }
    best
}

/// Runs up to `iterations` synchronous (double-buffered) rounds of
/// weighted label propagation over the vertices of `voters`, starting from
/// each vertex's own id.
///
/// Each round, vertex `v` adopts the [`LabelVote::winner`] of the labels
/// its out-neighbours in `voters` held in the previous round, weighted by
/// the edges. Every vertex's tally is serial, so the result is
/// bit-identical for every thread count. Each participant takes one
/// [`LabelVote`] from a pool allocated at most once per participant per
/// call. A round is a pure function of the previous labels, so once a
/// round changes no label every later round would repeat it: the loop stops
/// there with the labels the full budget would give.
pub(crate) fn propagate(voters: &CsrGraph, iterations: u32, threads: usize) -> Vec<u32> {
    let n = voters.vertex_count();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut next = labels.clone();
    let scratch: Mutex<Vec<LabelVote>> = Mutex::new(Vec::new());
    for _ in 0..iterations {
        let labels_ref = &labels;
        let changed = par_chunks_mut(&mut next, threads, |offset, next_chunk| {
            let pooled = scratch.lock().unwrap_or_else(|e| e.into_inner()).pop();
            let mut vote = pooled.unwrap_or_else(|| LabelVote::new(n));
            let mut changed = false;
            for (off, nx) in next_chunk.iter_mut().enumerate() {
                let v = (offset + off) as VertexId;
                let current = labels_ref[v as usize];
                *nx = vote.winner(current, voters.neighbors(v), voters.weights(v), labels_ref);
                changed |= *nx != current;
            }
            scratch.lock().unwrap_or_else(|e| e.into_inner()).push(vote);
            changed
        });
        std::mem::swap(&mut labels, &mut next);
        if !changed.iter().any(|&c| c) {
            break;
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::community_seq;
    use heteromap_graph::gen::{GraphGenerator, RMat};

    /// Runs `ballots` (`(label, weight)` pairs) through [`LabelVote::winner`]:
    /// voter `label` holds label `label`.
    fn vote(v: &mut LabelVote, current: u32, ballots: &[(u32, f32)]) -> u32 {
        let voters: Vec<u32> = ballots.iter().map(|b| b.0).collect();
        let weights: Vec<f32> = ballots.iter().map(|b| b.1).collect();
        let labels: Vec<u32> = (0..v.cell.len() as u32).collect();
        v.winner(current, &voters, &weights, &labels)
    }

    /// Both tallies for `ballots` of at most [`LANES`] votes.
    fn both_paths(v: &mut LabelVote, current: u32, ballots: &[(u32, f32)]) -> (u32, u32) {
        let voters: Vec<u32> = ballots.iter().map(|b| b.0).collect();
        let weights: Vec<f32> = ballots.iter().map(|b| b.1).collect();
        let labels: Vec<u32> = (0..v.cell.len() as u32).collect();
        let start = key(f32::NEG_INFINITY, current);
        (
            label_of(stack_vote(start, &voters, &weights, &labels)),
            label_of(v.dense_vote(start, &voters, &weights, &labels)),
        )
    }

    /// The map tally with the branchy `(weight desc, label asc)` scan the
    /// hash-map oracles use.
    fn reference(current: u32, ballots: &[(u32, f32)]) -> u32 {
        let mut sums: Vec<(u32, f32)> = Vec::new();
        for &(label, w) in ballots {
            match sums.iter_mut().find(|(l, _)| *l == label) {
                Some((_, sum)) => *sum += w,
                None => sums.push((label, 0.0 + w)),
            }
        }
        let mut best = (current, f32::NEG_INFINITY);
        for &(label, weight) in &sums {
            if weight > best.1 || (weight == best.1 && label < best.0) {
                best = (label, weight);
            }
        }
        best.0
    }

    const SPECIAL: [f32; 12] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 4.0,
        f32::MIN_POSITIVE,
        1.0,
        -1.0,
        f32::MAX,
        f32::MIN,
    ];

    #[test]
    fn key_order_is_the_vote_order() {
        let labels = [0, 1, 7, u32::MAX - 1];
        for &wa in &SPECIAL {
            for &wb in &SPECIAL {
                for &la in &labels {
                    for &lb in &labels {
                        let (ka, kb) = (key(wa, la), key(wb, lb));
                        if wa.is_nan() {
                            // NaN sits below every candidate, -inf included.
                            assert!(ka < key(f32::NEG_INFINITY, lb), "{wa}/{la}");
                        } else if !wb.is_nan() {
                            let beats = wa > wb || (wa == wb && la < lb);
                            assert_eq!(ka > kb, beats, "({wa}, {la}) vs ({wb}, {lb})");
                            assert_eq!(ka == kb, wa == wb && la == lb);
                        }
                    }
                }
            }
        }
        for &l in &labels {
            assert_eq!(label_of(key(1.0, l)), l);
        }
    }

    #[test]
    fn stack_and_dense_tallies_agree_with_the_map_tally() {
        // A deterministic sweep of short ballot lists over a small label
        // set, so labels repeat and weights collide.
        let mut v = LabelVote::new(6);
        let mut state = 0x9E37_79B9u32;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for round in 0..4_000 {
            let len = round % (LANES + 1);
            let ballots: Vec<(u32, f32)> = (0..len)
                .map(|_| (next() % 6, SPECIAL[next() as usize % SPECIAL.len()]))
                .collect();
            let current = next() % 6;
            let expected = reference(current, &ballots);
            let (stack, dense) = both_paths(&mut v, current, &ballots);
            assert_eq!(stack, expected, "stack: {current} {ballots:?}");
            assert_eq!(dense, expected, "dense: {current} {ballots:?}");
        }
    }

    #[test]
    fn sums_per_label_and_picks_heaviest() {
        let mut v = LabelVote::new(8);
        assert_eq!(vote(&mut v, 7, &[(2, 1.0), (5, 1.5), (2, 1.0)]), 2);
        // Fresh tally: label 2's weight from the previous vote is gone.
        assert_eq!(vote(&mut v, 7, &[(5, 1.5), (2, 1.0)]), 5);
    }

    #[test]
    fn ties_break_toward_smaller_label_in_any_order() {
        let mut v = LabelVote::new(8);
        assert_eq!(vote(&mut v, 7, &[(4, 2.0), (1, 2.0), (3, 2.0)]), 1);
        assert_eq!(vote(&mut v, 7, &[(1, 2.0), (4, 2.0), (3, 2.0)]), 1);
    }

    #[test]
    fn no_votes_keeps_current_label() {
        let mut v = LabelVote::new(4);
        assert_eq!(vote(&mut v, 3, &[]), 3);
    }

    #[test]
    fn nan_weight_never_wins() {
        let mut v = LabelVote::new(4);
        assert_eq!(vote(&mut v, 3, &[(0, f32::NAN), (2, 1.0)]), 2);
        assert_eq!(vote(&mut v, 3, &[(0, f32::NAN)]), 3);
    }

    #[test]
    fn epoch_wrap_forgets_stale_slots() {
        // Twelve ballots take the dense path.
        let dense = |label: u32| -> Vec<(u32, f32)> { vec![(label, 1.0); 12] };
        let mut v = LabelVote::new(16);
        v.epoch = u32::MAX - 1;
        assert_eq!(vote(&mut v, 15, &dense(1)), 1);
        // The next vote wraps the epoch; label 1's stale cell must not count.
        assert_eq!(vote(&mut v, 15, &dense(2)), 2);
        let mut tie = dense(1);
        tie.truncate(6);
        tie.extend(vec![(2, 1.0); 6]);
        assert_eq!(vote(&mut v, 15, &tie), 1);
    }

    #[test]
    fn a_large_budget_stops_at_the_fixed_point() {
        let g = RMat::new(9, 8.0, 0.57, 0.19, 0.19).generate(3);
        // The first round count after which the (exit-free) oracle stops
        // changing labels.
        let converged = (0..)
            .find(|&k| community_seq(&g, k) == community_seq(&g, k + 1))
            .unwrap();
        assert!(converged > 1, "the graph needs several rounds");
        let expected = community_seq(&g, converged);
        for threads in [1, 4] {
            // Without the fixed-point exit this budget would run for
            // minutes.
            let labels = propagate(&g, 1_000_000, threads);
            assert_eq!(labels, expected, "threads={threads}");
            let exact = propagate(&g, converged, threads);
            assert_eq!(exact, expected, "threads={threads}");
        }
    }
}
