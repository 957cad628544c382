//! Property tests for the CONGEST substrate: primitives vs centralized
//! references on random graphs, adversarial values in the binary search,
//! and outside-the-tree correction.

use lmt_congest::bfs::build_bfs_tree;
use lmt_congest::binsearch::{sum_of_r_smallest, Outside, TieBreak};
use lmt_congest::message::olog_budget;
use lmt_congest::tree::{convergecast, Op, Wide};
use lmt_congest::EngineKind;
use lmt_graph::{gen, props, traversal};
use proptest::prelude::*;

fn connected_graph() -> impl Strategy<Value = lmt_graph::Graph> {
    (3usize..30, 0.15f64..0.9, any::<u64>())
        .prop_map(|(n, p, seed)| gen::erdos_renyi(n, p, seed))
        .prop_filter("connected", props::is_connected)
}

proptest! {
    // 32 cases keeps this suite to a couple of seconds: each case builds a
    // BFS tree and runs several full CONGEST protocols on a ≤30-node graph.
    // Override per-run with the PROPTEST_CASES environment variable, e.g.
    // `PROPTEST_CASES=256 cargo test -p lmt-congest` for a deeper sweep or
    // `PROPTEST_CASES=4` for a fast CI smoke pass.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Distributed BFS equals centralized BFS distances for every source.
    #[test]
    fn bfs_matches_reference(g in connected_graph(), src_raw in any::<usize>()) {
        let src = src_raw % g.n();
        let (tree, _) = build_bfs_tree(
            &g, src, u32::MAX, olog_budget(g.n(), 8), EngineKind::Sequential, 1,
        ).unwrap();
        let reference = traversal::bfs(&g, src);
        for v in 0..g.n() {
            prop_assert_eq!(tree.dist[v].unwrap() as usize, reference.dist[v]);
        }
        prop_assert!(tree.validate(&g).is_ok());
    }

    /// Convergecast sum/min agree with local folds for arbitrary values.
    #[test]
    fn convergecast_agrees_with_fold(g in connected_graph(), vals in proptest::collection::vec(0u64..1_000_000, 30)) {
        let n = g.n();
        let values: Vec<u128> = (0..n).map(|i| vals[i % vals.len()] as u128).collect();
        let budget = olog_budget(n, 32);
        let (tree, _) = build_bfs_tree(&g, 0, u32::MAX, budget, EngineKind::Sequential, 2).unwrap();
        let (sum, _) = convergecast(
            &tree, Op::Sum, |id| Some(Wide::new(values[id], 40)), budget,
        ).unwrap();
        prop_assert_eq!(sum.unwrap().value, values.iter().sum::<u128>());
        let (mn, _) = convergecast(
            &tree, Op::Min, |id| Some(Wide::new(values[id], 40)), budget,
        ).unwrap();
        prop_assert_eq!(mn.unwrap().value, *values.iter().min().unwrap());
    }

    /// The distributed R-smallest sum is exact for arbitrary values
    /// (including heavy ties) and every R.
    #[test]
    fn binsearch_exact_for_all_r(g in connected_graph(), vals in proptest::collection::vec(0u64..50, 30), r_raw in any::<usize>()) {
        let n = g.n();
        let values: Vec<u128> = (0..n).map(|i| vals[i % vals.len()] as u128).collect();
        let r = 1 + r_raw % n;
        let budget = olog_budget(n, 32);
        let (tree, _) = build_bfs_tree(&g, 0, u32::MAX, budget, EngineKind::Sequential, 5).unwrap();
        let (res, _) = sum_of_r_smallest(
            &g, &tree, &values, r, 6, TieBreak::ThresholdCorrection, None,
            budget, EngineKind::Sequential, 6,
        ).unwrap();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(res.sum, sorted[..r].iter().sum::<u128>());
    }

    /// Outside-the-tree correction: restricting the BFS depth and passing
    /// the unreached nodes' common value yields the same answer as a
    /// spanning run where those nodes actually hold that value.
    #[test]
    fn outside_correction_equivalent(depth in 1u32..4, common in 0u128..64, r_raw in any::<usize>()) {
        let g = gen::path(12); // deep graph so depth limits bite
        let budget = olog_budget(12, 32);
        let (full, _) = build_bfs_tree(&g, 0, u32::MAX, budget, EngineKind::Sequential, 7).unwrap();
        let (limited, _) = build_bfs_tree(&g, 0, depth, budget, EngineKind::Sequential, 7).unwrap();
        let reached = limited.reached();
        prop_assume!(reached < 12);
        let r = 1 + r_raw % 12;
        // Values: tree nodes get i*3, outside nodes hold `common`.
        let values: Vec<u128> = (0..12)
            .map(|i| if limited.dist[i].is_some() { (i as u128) * 3 } else { common })
            .collect();
        let (spanning_res, _) = sum_of_r_smallest(
            &g, &full, &values, r, 8, TieBreak::ThresholdCorrection, None,
            budget, EngineKind::Sequential, 8,
        ).unwrap();
        let (corrected_res, _) = sum_of_r_smallest(
            &g, &limited, &values, r, 8, TieBreak::ThresholdCorrection,
            Some(Outside { count: (12 - reached) as u128, value: common }),
            budget, EngineKind::Sequential, 9,
        ).unwrap();
        prop_assert_eq!(spanning_res.sum, corrected_res.sum);
    }

    /// Jitter mode: sum within [exact, exact + R).
    #[test]
    fn jitter_error_bound(g in connected_graph(), vals in proptest::collection::vec(0u64..1000, 30), r_raw in any::<usize>(), seed in any::<u64>()) {
        let n = g.n();
        let values: Vec<u128> = (0..n).map(|i| vals[i % vals.len()] as u128).collect();
        let r = 1 + r_raw % n;
        let budget = olog_budget(n, 48);
        let (tree, _) = build_bfs_tree(&g, 0, u32::MAX, budget, EngineKind::Sequential, 10).unwrap();
        let (res, _) = sum_of_r_smallest(
            &g, &tree, &values, r, 10, TieBreak::RandomJitter { bits: 20 }, None,
            budget, EngineKind::Sequential, seed,
        ).unwrap();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let exact: u128 = sorted[..r].iter().sum();
        prop_assert!(res.sum >= exact && res.sum < exact + r as u128,
            "jitter sum {} vs exact {exact} (r = {r})", res.sum);
    }

    /// A trivial (zero-drop, no-crash) fault plan is invisible: the faulty
    /// BFS entry point produces bit-identical trees AND metrics to the
    /// fault-free one.
    #[test]
    fn trivial_fault_plan_is_invisible(g in connected_graph(), seed in any::<u64>(), fault_seed in any::<u64>()) {
        let n = g.n();
        let budget = olog_budget(n, 8);
        let plan = lmt_congest::FaultPlan::new(n, fault_seed);

        let (tree_a, m_a) =
            build_bfs_tree(&g, 0, u32::MAX, budget, EngineKind::Sequential, seed).unwrap();
        let (tree_b, m_b) = lmt_congest::bfs::build_bfs_tree_faulty(
            &g, 0, u32::MAX, budget, EngineKind::Sequential, seed, Some(plan),
        ).unwrap();
        prop_assert_eq!(&tree_a.dist, &tree_b.dist);
        prop_assert_eq!(&tree_a.parent, &tree_b.parent);
        prop_assert_eq!(m_a, m_b);
    }

    /// A node crashed before round 0 (and distinct from the source) never
    /// executes a round, so BFS can't assign it a distance; the crashed-node
    /// gauge records it.
    #[test]
    fn crashed_node_is_silent_in_bfs(g in connected_graph(), fault_seed in any::<u64>(), victim_raw in any::<usize>()) {
        let n = g.n();
        let victim = 1 + victim_raw % (n - 1); // never the source (node 0)
        let plan = lmt_congest::FaultPlan::new(n, fault_seed).with_crash(victim, 0);
        let (tree, m) = lmt_congest::bfs::build_bfs_tree_faulty(
            &g, 0, u32::MAX, olog_budget(n, 8), EngineKind::Sequential, 17, Some(plan),
        ).unwrap();
        prop_assert!(tree.dist[victim].is_none(),
            "crash-at-0 victim {victim} must stay unreached, got {:?}", tree.dist[victim]);
        prop_assert_eq!(m.crashed_nodes, 1);
    }
}
