//! Cross-crate substrate contracts: the distributed primitives must agree
//! with their centralized references on shared workloads, and the engine's
//! CONGEST accounting must hold across full algorithm runs.

use local_mixing_repro::prelude::*;
use lmt_congest::bfs::build_bfs_tree;
use lmt_congest::binsearch::{sum_of_r_smallest, TieBreak};
use lmt_congest::flood::FloodGraph;
use lmt_congest::message::olog_budget;
use lmt_util::order::sum_of_r_smallest as central_r_smallest;

#[test]
fn distributed_flood_equals_centralized_fixed_walk() {
    let (g, _) = gen::ring_of_cliques_regular(4, 8);
    for ell in [1u64, 5, 30] {
        let (w, scale, _) = g
            .estimate_flood(
                2,
                ell,
                6,
                WalkKind::Simple,
                olog_budget(g.n(), 10),
                EngineKind::Sequential,
                1,
            )
            .unwrap();
        let mut reference = lmt_walks::fixed_flood::FixedWalk::new(
            &g,
            2,
            6,
            lmt_walks::fixed_flood::Rounding::Nearest,
            WalkKind::Simple,
        );
        reference.run(&g, ell as usize);
        assert_eq!(w, reference.w, "ell={ell}");
        // And both track the exact f64 walk within the Lemma 2 bound.
        let exact = evolve_block(&g, &[2], WalkKind::Simple, ell as usize).remove(0);
        let bound = reference.error_bound(&g) + 1e-12;
        for (v, &wv) in w.iter().enumerate() {
            assert!((scale.to_f64(wv) - exact.get(v)).abs() <= bound);
        }
    }
}

#[test]
fn distributed_r_smallest_equals_centralized_selection() {
    let g = gen::random_regular(48, 6, 9);
    let budget = olog_budget(48, 16);
    let (tree, _) = build_bfs_tree(&g, 0, u32::MAX, budget, EngineKind::Sequential, 2).unwrap();
    let values: Vec<u128> = (0..48u128).map(|i| (i * 7919) % 5000).collect();
    let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    for r in [1usize, 7, 24, 48] {
        let (res, _) = sum_of_r_smallest(
            &g,
            &tree,
            &values,
            r,
            13,
            TieBreak::ThresholdCorrection,
            None,
            budget,
            EngineKind::Sequential,
            3,
        )
        .unwrap();
        let want = central_r_smallest(&as_f64, r).unwrap() as u128;
        assert_eq!(res.sum, want, "r={r}");
    }
}

#[test]
fn congest_budget_is_respected_by_full_algorithm2_run() {
    let (g, _) = gen::ring_of_cliques_regular(4, 16);
    let cfg = AlgoConfig::new(4.0);
    let r = local_mixing_time_approx(&g, 0, &cfg).unwrap();
    let budget = cfg.budget_bits(g.n());
    assert!(
        r.metrics.max_edge_bits <= budget,
        "edge bits {} exceed budget {budget}",
        r.metrics.max_edge_bits
    );
    // The budget itself is O(log n): multiplier × ⌈log₂ n⌉.
    assert_eq!(budget, cfg.budget_multiplier * 6);
}

#[test]
fn engines_produce_identical_full_runs() {
    let (g, _) = gen::ring_of_cliques_regular(3, 12);
    let mut cfg = AlgoConfig::new(3.0);
    let a = local_mixing_time_approx(&g, 4, &cfg).unwrap();
    cfg.engine = EngineKind::Parallel;
    let b = local_mixing_time_approx(&g, 4, &cfg).unwrap();
    assert_eq!(a.ell, b.ell);
    assert_eq!(a.accepted_size, b.accepted_size);
    assert_eq!(a.metrics, b.metrics);
}

#[test]
fn beta_one_distributed_matches_global_mixing_estimator() {
    // τ_s(1, ε) = τ_mix_s(ε) (§2.2) — the exact local algorithm at β = 1
    // and the global estimator must land within a step of each other
    // (their acceptance tests differ by the 4ε relaxation; on the complete
    // graph both resolve to the same step).
    let g = gen::complete(48);
    let cfg = AlgoConfig::new(1.0);
    let local = local_mixing_time_exact_distributed(&g, 0, &cfg).unwrap();
    let global = estimate_global_mixing_time(&g, 0, &cfg).unwrap();
    assert!(
        local.ell <= global.tau,
        "local-at-β=1 {} should not exceed global {} (4ε vs ε)",
        local.ell,
        global.tau
    );
    assert!(global.tau - local.ell <= 1);
}
