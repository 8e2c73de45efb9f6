//! Sequential reference implementations used to validate the parallel
//! kernels (and as the single-thread baselines in the examples).

use crate::{Distance, UNREACHED};
use heteromap_graph::{CsrGraph, VertexId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Sequential BFS levels from `source` (`UNREACHED` if unreachable).
pub fn bfs_seq(graph: &CsrGraph, source: VertexId) -> Vec<u32> {
    let n = graph.vertex_count();
    let mut levels = vec![UNREACHED; n];
    let mut q = VecDeque::new();
    levels[source as usize] = 0;
    q.push_back(source);
    while let Some(v) = q.pop_front() {
        let l = levels[v as usize];
        for &t in graph.neighbors(v) {
            if levels[t as usize] == UNREACHED {
                levels[t as usize] = l + 1;
                q.push_back(t);
            }
        }
    }
    levels
}

/// Dijkstra shortest-path distances from `source` — the ground truth for
/// both SSSP kernels. Unreachable vertices get `f32::INFINITY`.
pub fn dijkstra(graph: &CsrGraph, source: VertexId) -> Vec<Distance> {
    let n = graph.vertex_count();
    let mut dist = vec![f32::INFINITY; n];
    let mut heap: BinaryHeap<Reverse<(u64, VertexId)>> = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((dbits, v))) = heap.pop() {
        let d = f64::from_bits(dbits) as f32;
        if d > dist[v as usize] {
            continue;
        }
        for (t, w) in graph.edges(v) {
            let nd = d + w;
            if nd < dist[t as usize] {
                dist[t as usize] = nd;
                heap.push(Reverse(((nd as f64).to_bits(), t)));
            }
        }
    }
    dist
}

/// Sequential recursive-order DFS preorder from `source`; returns the visit
/// order index per vertex (`UNREACHED` if unreachable).
pub fn dfs_seq(graph: &CsrGraph, source: VertexId) -> Vec<u32> {
    let n = graph.vertex_count();
    let mut order = vec![UNREACHED; n];
    let mut stack = vec![source];
    let mut counter = 0;
    while let Some(v) = stack.pop() {
        if order[v as usize] != UNREACHED {
            continue;
        }
        order[v as usize] = counter;
        counter += 1;
        // Push in reverse so the smallest neighbour is visited first.
        for &t in graph.neighbors(v).iter().rev() {
            if order[t as usize] == UNREACHED {
                stack.push(t);
            }
        }
    }
    order
}

/// Sequential pull PageRank with damping 0.85 over `iterations` rounds.
pub fn pagerank_seq(graph: &CsrGraph, iterations: u32) -> Vec<f64> {
    let n = graph.vertex_count();
    if n == 0 {
        return Vec::new();
    }
    let transpose = graph.transpose();
    let damping = 0.85;
    let mut rank = vec![1.0 / n as f64; n];
    let out_deg: Vec<usize> = (0..n).map(|v| graph.out_degree(v as VertexId)).collect();
    for _ in 0..iterations {
        let mut next = vec![(1.0 - damping) / n as f64; n];
        // Dangling mass is redistributed uniformly.
        let dangling: f64 = (0..n)
            .filter(|&v| out_deg[v] == 0)
            .map(|v| rank[v])
            .sum::<f64>()
            / n as f64;
        for (v, nx) in next.iter_mut().enumerate() {
            let mut sum = 0.0;
            for &u in transpose.neighbors(v as VertexId) {
                sum += rank[u as usize] / out_deg[u as usize] as f64;
            }
            *nx += damping * (sum + dangling);
        }
        rank = next;
    }
    rank
}

/// Sequential push PageRank in `f32` with damping 0.85 over `iterations`
/// rounds: every vertex scatters `rank[v] / out_deg(v)` to its
/// out-neighbours in vertex and edge order, and dangling mass sums in
/// vertex order. The oracle for
/// [`pagerank_dp`](crate::pagerank_dp::pagerank_dp), which equals it bit
/// for bit at one thread.
pub fn pagerank_push_seq(graph: &CsrGraph, iterations: u32) -> Vec<f64> {
    let n = graph.vertex_count();
    if n == 0 {
        return Vec::new();
    }
    let damping = 0.85f32;
    let mut rank = vec![1.0f32 / n as f32; n];
    for _ in 0..iterations {
        let mut next = vec![0.0f32; n];
        let mut dangling = 0.0f32;
        for (v, &r) in rank.iter().enumerate() {
            let deg = graph.out_degree(v as VertexId);
            if deg == 0 {
                dangling += r;
                continue;
            }
            let share = r / deg as f32;
            for &t in graph.neighbors(v as VertexId) {
                next[t as usize] += share;
            }
        }
        let dangling = dangling / n as f32;
        for (r, gathered) in rank.iter_mut().zip(next) {
            *r = (1.0 - damping) / n as f32 + damping * (gathered + dangling);
        }
    }
    rank.into_iter().map(f64::from).collect()
}

/// Sequential triangle count (each triangle counted once).
pub fn triangle_seq(graph: &CsrGraph) -> u64 {
    let n = graph.vertex_count();
    let mut count = 0u64;
    for v in 0..n as VertexId {
        let nv = graph.neighbors(v);
        for &u in nv {
            if u <= v {
                continue;
            }
            // Count w > u adjacent to both v and u.
            let nu = graph.neighbors(u);
            let (mut i, mut j) = (0, 0);
            while i < nv.len() && j < nu.len() {
                match nv[i].cmp(&nu[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        if nv[i] > u {
                            count += 1;
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    count
}

/// Sequential connected components over the *undirected closure* of the
/// graph (union-find); returns the minimum vertex id of each component.
pub fn conncomp_seq(graph: &CsrGraph) -> Vec<u32> {
    let n = graph.vertex_count();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], v: u32) -> u32 {
        let mut root = v;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = v;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for v in 0..n as u32 {
        for &t in graph.neighbors(v) {
            let (a, b) = (find(&mut parent, v), find(&mut parent, t));
            if a != b {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                parent[hi as usize] = lo;
            }
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// Sequential sparse matrix–vector multiply over the CSR adjacency:
/// `y[v] = Σ w(v,t) · x[t]`, accumulating in CSR edge order (the same
/// order the parallel kernel uses, so results are bit-identical).
pub fn spmv_seq(graph: &CsrGraph, x: &[f32]) -> Vec<f32> {
    let n = graph.vertex_count();
    assert_eq!(x.len(), n, "input vector length must match vertex count");
    (0..n as VertexId)
        .map(|v| {
            let mut sum = 0.0f32;
            for (t, w) in graph.edges(v) {
                sum += w * x[t as usize];
            }
            sum
        })
        .collect()
}

/// Sequential k-core decomposition by textbook peeling: at level `k`,
/// repeatedly remove every remaining vertex of remaining out-degree
/// `<= k` (decrementing its in-neighbors) until a fixpoint, then advance
/// `k`. The peeling fixpoint is unique, so this matches the parallel
/// wave-based kernel bit for bit.
pub fn kcore_seq(graph: &CsrGraph) -> Vec<u32> {
    let n = graph.vertex_count();
    let transpose = graph.transpose();
    let mut deg: Vec<u32> = (0..n)
        .map(|v| graph.out_degree(v as VertexId) as u32)
        .collect();
    let mut alive = vec![true; n];
    let mut core = vec![0u32; n];
    let mut remaining = n;
    let mut k = 0u32;
    while remaining > 0 {
        loop {
            let wave: Vec<usize> = (0..n).filter(|&v| alive[v] && deg[v] <= k).collect();
            if wave.is_empty() {
                break;
            }
            for &v in &wave {
                alive[v] = false;
                core[v] = k;
                for &u in transpose.neighbors(v as VertexId) {
                    deg[u as usize] = deg[u as usize].saturating_sub(1);
                }
            }
            remaining -= wave.len();
        }
        k += 1;
    }
    core
}

/// Sequential weighted community detection by label propagation: each
/// round every vertex adopts the label with the largest total out-edge
/// weight among its neighbours (ties toward the smaller label), updating
/// synchronously. A hash-map tally like [`labelprop_seq`]'s, independent
/// of the dense-slot vote the parallel kernels share.
pub fn community_seq(graph: &CsrGraph, iterations: u32) -> Vec<u32> {
    let n = graph.vertex_count();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    for _ in 0..iterations {
        let mut next = labels.clone();
        for (v, nx) in next.iter_mut().enumerate() {
            let mut weights: std::collections::HashMap<u32, f32> = std::collections::HashMap::new();
            for (u, w) in graph.edges(v as VertexId) {
                *weights.entry(labels[u as usize]).or_insert(0.0) += w;
            }
            let current = labels[v];
            let mut best = (current, f32::NEG_INFINITY);
            for (&label, &weight) in &weights {
                if weight > best.1 || (weight == best.1 && label < best.0) {
                    best = (label, weight);
                }
            }
            *nx = if weights.is_empty() { current } else { best.0 };
        }
        labels = next;
    }
    labels
}

/// Sequential push-direction weighted label propagation: each round every
/// vertex adopts the label with the largest total in-edge weight (ties
/// toward the smaller label), updating synchronously.
pub fn labelprop_seq(graph: &CsrGraph, iterations: u32) -> Vec<u32> {
    let n = graph.vertex_count();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    if n == 0 {
        return labels;
    }
    let transpose = graph.transpose();
    for _ in 0..iterations {
        let mut next = labels.clone();
        for (v, nx) in next.iter_mut().enumerate() {
            let mut votes: std::collections::HashMap<u32, f32> = std::collections::HashMap::new();
            for (u, w) in transpose.edges(v as VertexId) {
                *votes.entry(labels[u as usize]).or_insert(0.0) += w;
            }
            let current = labels[v];
            let mut best = (current, f32::NEG_INFINITY);
            for (&label, &weight) in &votes {
                if weight > best.1 || (weight == best.1 && label < best.0) {
                    best = (label, weight);
                }
            }
            *nx = if votes.is_empty() { current } else { best.0 };
        }
        labels = next;
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_graph::gen::{GraphGenerator, UniformRandom};
    use heteromap_graph::EdgeList;

    fn diamond() -> CsrGraph {
        let mut el = EdgeList::new(4);
        el.push(0, 1, 1.0);
        el.push(0, 2, 4.0);
        el.push(1, 3, 1.0);
        el.push(2, 3, 1.0);
        el.into_csr().unwrap()
    }

    #[test]
    fn dijkstra_picks_shorter_path() {
        let d = dijkstra(&diamond(), 0);
        assert_eq!(d, vec![0.0, 1.0, 4.0, 2.0]);
    }

    #[test]
    fn bfs_seq_levels() {
        assert_eq!(bfs_seq(&diamond(), 0), vec![0, 1, 1, 2]);
    }

    #[test]
    fn dfs_seq_visits_smallest_first() {
        let order = dfs_seq(&diamond(), 0);
        // 0 -> 1 -> 3 -> backtrack -> 2
        assert_eq!(order, vec![0, 1, 3, 2]);
    }

    #[test]
    fn pagerank_sums_to_one() {
        let g = UniformRandom::new(100, 600).generate(1);
        let r = pagerank_seq(&g, 20);
        let total: f64 = r.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "sum {total}");
    }

    #[test]
    fn triangle_counts_k4() {
        // Complete graph on 4 vertices has 4 triangles.
        let mut el = EdgeList::new(4);
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    el.push(a, b, 1.0);
                }
            }
        }
        let g = el.into_csr().unwrap();
        assert_eq!(triangle_seq(&g), 4);
    }

    #[test]
    fn triangle_counts_triangle_once() {
        let mut el = EdgeList::new(3);
        el.push_undirected(0, 1, 1.0);
        el.push_undirected(1, 2, 1.0);
        el.push_undirected(0, 2, 1.0);
        let g = el.into_csr().unwrap();
        assert_eq!(triangle_seq(&g), 1);
    }

    #[test]
    fn spmv_seq_by_hand() {
        let y = spmv_seq(&diamond(), &[1.0, 2.0, 3.0, 4.0]);
        // Row 0: 1*x1 + 4*x2; rows 1,2: edge to 3; row 3: empty.
        assert_eq!(y, vec![2.0 + 12.0, 4.0, 4.0, 0.0]);
    }

    #[test]
    fn kcore_seq_peels_a_lollipop() {
        // Triangle 0-1-2 with a tail 2-3: tail is 1-core, triangle 2-core.
        let mut el = EdgeList::new(4);
        el.push_undirected(0, 1, 1.0);
        el.push_undirected(1, 2, 1.0);
        el.push_undirected(0, 2, 1.0);
        el.push_undirected(2, 3, 1.0);
        let g = el.into_csr().unwrap();
        assert_eq!(kcore_seq(&g), vec![2, 2, 2, 1]);
    }

    #[test]
    fn labelprop_seq_ties_break_to_smaller_label() {
        // 1 and 2 push at 3 with equal weight: 3 adopts the smaller label.
        let mut el = EdgeList::new(4);
        el.push(1, 3, 1.0);
        el.push(2, 3, 1.0);
        let g = el.into_csr().unwrap();
        assert_eq!(labelprop_seq(&g, 1)[3], 1);
    }

    #[test]
    fn community_seq_follows_heaviest_out_edge_weight() {
        // 0 votes 1.0 for label 1 and 3.0 for label 2; 1 votes 2.0 each
        // for labels 2 and 3.
        let mut el = EdgeList::new(4);
        el.push(0, 1, 1.0);
        el.push(0, 2, 3.0);
        el.push(1, 3, 2.0);
        el.push(1, 2, 2.0);
        let g = el.into_csr().unwrap();
        // 0 takes the heavier label, 1 breaks its tie toward the smaller
        // label, and 2 and 3 have no out-edges and keep their labels.
        assert_eq!(community_seq(&g, 1), vec![2, 2, 2, 3]);
        assert_eq!(community_seq(&g, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn conncomp_two_components() {
        let mut el = EdgeList::new(5);
        el.push_undirected(0, 1, 1.0);
        el.push_undirected(3, 4, 1.0);
        let g = el.into_csr().unwrap();
        let c = conncomp_seq(&g);
        assert_eq!(c, vec![0, 0, 2, 3, 3]);
    }
}
