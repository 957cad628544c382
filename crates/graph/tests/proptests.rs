//! Property tests for the graph substrate.

use lmt_graph::{cuts, gen, io, props, subgraph, traversal, GraphBuilder};
use lmt_util::BitSet;
use proptest::prelude::*;

/// Strategy: an arbitrary edge list over `n ≤ 24` nodes.
fn edge_list() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..60).prop_map(|pairs| {
            pairs
                .into_iter()
                .filter(|(u, v)| u != v)
                .collect::<Vec<_>>()
        });
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_produces_valid_csr((n, edges) in edge_list()) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build();
        prop_assert!(g.validate().is_ok());
        // Every inserted edge is present; degree sums match 2m.
        for &(u, v) in &edges {
            prop_assert!(g.has_edge(u, v) && g.has_edge(v, u));
        }
        let degree_sum: usize = (0..n).map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.m());
    }

    #[test]
    fn io_roundtrip_arbitrary((n, edges) in edge_list()) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build();
        let back = io::from_str(&io::to_string(&g)).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn bfs_distances_satisfy_triangle((n, edges) in edge_list()) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build();
        let r = traversal::bfs(&g, 0);
        for (u, v) in g.edges() {
            let (du, dv) = (r.dist[u], r.dist[v]);
            if du != traversal::UNREACHED && dv != traversal::UNREACHED {
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}) distances {du},{dv}");
            } else {
                // Adjacent nodes are reached together or not at all.
                prop_assert_eq!(du == traversal::UNREACHED, dv == traversal::UNREACHED);
            }
        }
    }

    #[test]
    fn conductance_complement_symmetry((n, edges) in edge_list(), mask in any::<u32>()) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build();
        let mut s = BitSet::new(n);
        let mut comp = BitSet::new(n);
        for u in 0..n {
            if mask >> (u % 32) & 1 == 1 {
                s.insert(u);
            } else {
                comp.insert(u);
            }
        }
        prop_assert_eq!(cuts::conductance(&g, &s), cuts::conductance(&g, &comp));
    }

    #[test]
    fn random_regular_always_d_regular(nhalf in 3usize..24, d in 3usize..6, seed in any::<u64>()) {
        let n = 2 * nhalf;
        prop_assume!(d < n);
        let g = gen::random_regular(n, d, seed);
        prop_assert_eq!(props::regularity(&g), Some(d));
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn induced_subgraph_edges_subset((n, edges) in edge_list(), take in 1usize..10) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build();
        let nodes: Vec<usize> = (0..n).step_by(take.max(1)).collect();
        let ind = subgraph::induced_subgraph(&g, &nodes);
        for (a, b2) in ind.graph.edges() {
            prop_assert!(g.has_edge(ind.original[a], ind.original[b2]));
        }
        // Edge count equals edges of g with both endpoints selected.
        let selected: std::collections::HashSet<usize> = nodes.iter().copied().collect();
        let expect = g
            .edges()
            .filter(|(u, v)| selected.contains(u) && selected.contains(v))
            .count();
        prop_assert_eq!(ind.graph.m(), expect);
    }

    #[test]
    fn barbell_spec_consistency(beta in 1usize..8, k in 3usize..12) {
        let (g, spec) = gen::barbell(beta, k);
        prop_assert_eq!(g.n(), spec.n());
        prop_assert_eq!(
            g.m(),
            beta * k * (k - 1) / 2 + beta.saturating_sub(1)
        );
        prop_assert!(props::is_connected(&g));
    }
}
