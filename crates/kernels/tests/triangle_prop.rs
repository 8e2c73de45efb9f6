//! Property test: triangle counting by marked intersection equals the
//! sequential full-list merge on arbitrary directed multigraphs (self
//! loops, repeated edges and one-way edges included) under every
//! scheduling policy.

use heteromap_graph::EdgeList;
use heteromap_kernels::par::Scheduler;
use heteromap_kernels::triangle::triangle_count_with;
use heteromap_kernels::verify::triangle_seq;
use proptest::prelude::*;
use proptest::prop::collection::vec;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn marked_intersection_equals_the_merge_oracle(
        n in 1usize..40,
        edges in vec((0u32..64, 0u32..64, 0u8..3), 0..400),
        threads in 1usize..6,
    ) {
        let mut el = EdgeList::new(n);
        for (a, b, kind) in edges {
            let (a, b) = (a % n as u32, b % n as u32);
            // Two thirds of the edges go both ways, so triangles close.
            if kind < 2 {
                el.push_undirected(a, b, 1.0);
            } else {
                el.push(a, b, 1.0);
            }
        }
        let g = el.into_csr().unwrap();
        let expected = triangle_seq(&g);
        for scheduler in [
            Scheduler::Static,
            Scheduler::Dynamic { grain: 1 },
            Scheduler::Dynamic { grain: 7 },
        ] {
            prop_assert_eq!(triangle_count_with(&g, threads, scheduler), expected);
        }
    }
}
