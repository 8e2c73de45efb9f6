//! Weighted label vote shared by [`community`](crate::community) and
//! [`labelprop`](crate::labelprop): a sparse accumulator over a dense label
//! range, so tallying a vote hashes and allocates nothing.
//!
//! Each label's weight starts at `0.0` and adds the voting edges' weights in
//! the order the caller yields them, so every per-label sum is the same `f32`
//! a map keyed by label would hold. The winner is the largest
//! `(weight desc, label asc)` pair, starting from `(current, -inf)`. That is
//! a strict total order on the candidates (a NaN weight never wins and never
//! becomes the incumbent), so the winner does not depend on the order the
//! labels are visited in: labels are bit-identical to a hash-map tally.

use crate::par::par_chunks_mut;
use heteromap_graph::VertexId;

/// Reusable scratch for weighted label votes over labels `0..labels`.
///
/// A slot of `weight` is live for the current vote only when its `stamp`
/// equals `epoch`; `touched` lists the live labels in first-vote order.
#[derive(Debug)]
pub(crate) struct LabelVote {
    weight: Vec<f32>,
    stamp: Vec<u32>,
    touched: Vec<u32>,
    epoch: u32,
}

impl LabelVote {
    /// Scratch for votes over labels `0..labels`.
    pub(crate) fn new(labels: usize) -> Self {
        LabelVote {
            weight: vec![0.0; labels],
            stamp: vec![0; labels],
            touched: Vec::new(),
            epoch: 0,
        }
    }

    /// Tallies `votes` (`(label, weight)` pairs, one per voting edge) and
    /// returns the label with the largest total weight, ties toward the
    /// smaller label. Returns `current` when there are no votes.
    ///
    /// # Panics
    ///
    /// Panics if a voted label is outside the range given to [`Self::new`].
    pub(crate) fn winner(
        &mut self,
        current: u32,
        votes: impl IntoIterator<Item = (u32, f32)>,
    ) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: forget every stamp so no stale slot reads as live.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
        for (label, w) in votes {
            let l = label as usize;
            if self.stamp[l] != self.epoch {
                self.stamp[l] = self.epoch;
                self.weight[l] = 0.0;
                self.touched.push(label);
            }
            self.weight[l] += w;
        }
        let mut best = (current, f32::NEG_INFINITY);
        for &label in &self.touched {
            let weight = self.weight[label as usize];
            if weight > best.1 || (weight == best.1 && label < best.0) {
                best = (label, weight);
            }
        }
        if self.touched.is_empty() {
            current
        } else {
            best.0
        }
    }
}

/// Runs up to `iterations` synchronous (double-buffered) rounds of
/// weighted label propagation over `n` vertices, starting from each
/// vertex's own id.
///
/// Each round, vertex `v` adopts the [`LabelVote::winner`] of the labels its
/// voters held in the previous round; `voters(v)` yields `(voter, weight)`
/// pairs in a fixed order. Each parallel chunk sizes one [`LabelVote`] per
/// round, and every vertex's tally is serial, so the result is bit-identical
/// for every thread count. A round is a pure function of the previous
/// labels, so once a round changes no label every later round would repeat
/// it: the loop stops there with the labels the full budget would give.
pub(crate) fn propagate<I>(
    n: usize,
    iterations: u32,
    threads: usize,
    voters: impl Fn(VertexId) -> I + Sync,
) -> Vec<u32>
where
    I: IntoIterator<Item = (VertexId, f32)>,
{
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut next = labels.clone();
    for _ in 0..iterations {
        let labels_ref = &labels;
        let changed = par_chunks_mut(&mut next, threads, |offset, next_chunk| {
            let mut vote = LabelVote::new(n);
            let mut changed = false;
            for (off, nx) in next_chunk.iter_mut().enumerate() {
                let v = (offset + off) as VertexId;
                let current = labels_ref[v as usize];
                let ballots = voters(v)
                    .into_iter()
                    .map(|(u, w)| (labels_ref[u as usize], w));
                *nx = vote.winner(current, ballots);
                changed |= *nx != current;
            }
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

    #[test]
    fn sums_per_label_and_picks_heaviest() {
        let mut v = LabelVote::new(8);
        assert_eq!(v.winner(7, [(2, 1.0), (5, 1.5), (2, 1.0)]), 2);
        // Fresh tally: label 2's weight from the previous vote is gone.
        assert_eq!(v.winner(7, [(5, 1.5), (2, 1.0)]), 5);
    }

    #[test]
    fn ties_break_toward_smaller_label_in_any_order() {
        let mut v = LabelVote::new(8);
        assert_eq!(v.winner(7, [(4, 2.0), (1, 2.0), (3, 2.0)]), 1);
        assert_eq!(v.winner(7, [(1, 2.0), (4, 2.0), (3, 2.0)]), 1);
    }

    #[test]
    fn no_votes_keeps_current_label() {
        let mut v = LabelVote::new(4);
        assert_eq!(v.winner(3, []), 3);
    }

    #[test]
    fn nan_weight_never_wins() {
        let mut v = LabelVote::new(4);
        assert_eq!(v.winner(3, [(0, f32::NAN), (2, 1.0)]), 2);
        assert_eq!(v.winner(3, [(0, f32::NAN)]), 3);
    }

    #[test]
    fn epoch_wrap_forgets_stale_slots() {
        let mut v = LabelVote::new(4);
        v.epoch = u32::MAX - 1;
        assert_eq!(v.winner(3, [(1, 5.0)]), 1);
        // The next vote wraps the epoch; label 1's stale slot must not count.
        assert_eq!(v.winner(3, [(2, 1.0)]), 2);
        assert_eq!(v.winner(3, [(1, 1.0), (2, 1.0)]), 1);
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
            let labels = propagate(g.vertex_count(), 1_000_000, threads, |v| g.edges(v));
            assert_eq!(labels, expected, "threads={threads}");
            let exact = propagate(g.vertex_count(), converged, threads, |v| g.edges(v));
            assert_eq!(exact, expected, "threads={threads}");
        }
    }
}
