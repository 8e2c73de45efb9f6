//! Property test: the three fixpoint kernels (frontier-peeling k-core,
//! data-driven Bellman-Ford and union-find components) equal their
//! sequential oracles exactly on arbitrary directed multigraphs (self
//! loops, repeated edges, zero weights and isolated vertices included),
//! at one and four threads under every scheduling policy. Graphs this
//! small keep every wave and round below the phase floor, so these cases
//! check the algorithms on the caller; the concurrent rounds are checked
//! on larger graphs by the facade's kernel tests.

use heteromap_graph::EdgeList;
use heteromap_kernels::conncomp::conncomp_with;
use heteromap_kernels::kcore::kcore_with;
use heteromap_kernels::par::Scheduler;
use heteromap_kernels::sssp_bf::sssp_bf_with;
use heteromap_kernels::verify::{conncomp_seq, dijkstra, kcore_seq};
use proptest::prelude::*;
use proptest::prop::collection::vec;

/// Edge weights: zeros, values whose `f32` sums round, and a large one.
const WEIGHTS: [f32; 6] = [0.0, 0.1, 0.3, 1.0, 2.5, 1e4];

fn bits(dist: &[f32]) -> Vec<u32> {
    dist.iter().map(|d| d.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fixpoint_kernels_equal_their_oracles(
        n in 1usize..64,
        edges in vec((0u32..48, 0u32..48, 0usize..6), 0..300),
        source in 0u32..64,
    ) {
        // Endpoints stay below 48, so larger graphs keep isolated vertices.
        let mut el = EdgeList::new(n);
        for (a, b, w) in edges {
            el.push(a % n as u32, b % n as u32, WEIGHTS[w]);
        }
        let g = el.into_csr().unwrap();
        let source = source % n as u32;
        let core = kcore_seq(&g);
        let components = conncomp_seq(&g);
        let dist = bits(&dijkstra(&g, source));
        for threads in [1, 4] {
            for scheduler in [
                Scheduler::Static,
                Scheduler::Dynamic { grain: 1 },
                Scheduler::Dynamic { grain: 7 },
            ] {
                prop_assert_eq!(&kcore_with(&g, threads, scheduler), &core);
                prop_assert_eq!(&conncomp_with(&g, threads, scheduler), &components);
                prop_assert_eq!(&bits(&sssp_bf_with(&g, source, threads, scheduler)), &dist);
            }
        }
    }
}
