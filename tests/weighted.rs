//! The weighted-substrate acceptance layer (ISSUE 4).
//!
//! Two contracts are locked in here:
//!
//! 1. **Weighted ≡ unweighted at unit weights, bit-for-bit** — an
//!    all-weights-1.0 [`WeightedGraph`] must reproduce the unweighted
//!    `step` / `stationary` / `local_mixing_time_approx` outputs exactly
//!    (`Debug`-digest equality, same strictness as `tests/determinism.rs`),
//!    across random graphs. This is what lets the weighted subsystem ride
//!    on the same code paths without perturbing any paper-calibrated
//!    result.
//! 2. **The bridge weight of the weighted β-barbell is a real dial** — the
//!    local mixing time `τ_s` at a set size spanning two cliques, and the
//!    global mixing time, both move monotonically with the bridge weight.

use local_mixing_repro::prelude::*;
use lmt_core::graph_tau::graph_local_mixing_time_sampled;
use lmt_walks::stationary::stationary;
use lmt_walks::step::step;
use proptest::prelude::*;

/// Strategy: spec of a connected-ish random regular graph (n·d even,
/// degrees 2/4/6 so the bit-for-bit contract sees several share
/// denominators, not just one).
fn regular_spec() -> impl Strategy<Value = (usize, usize, u64)> {
    (5usize..20, 1usize..4, any::<u64>())
        .prop_map(|(half_n, half_d, seed)| (2 * half_n, 2 * half_d, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Unit-weight walk operator and stationary distribution: bit-for-bit.
    #[test]
    fn unit_weights_step_and_stationary_bit_identical((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let wg = WeightedGraph::unit(g.clone());

        prop_assert_eq!(
            format!("{:?}", stationary(&g)),
            format!("{:?}", stationary(&wg))
        );

        let mut p = Dist::point(n, 0);
        let mut wp = p.clone();
        for t in 0..25 {
            p = step(&g, &p, WalkKind::Lazy);
            wp = step(&wg, &wp, WalkKind::Lazy);
            prop_assert!(
                format!("{p:?}") == format!("{wp:?}"),
                "weighted step diverged from unweighted at step {}",
                t
            );
        }
        prop_assert_eq!(
            format!("{:?}", evolve_block(&g, &[1], WalkKind::Simple, 12).remove(0)),
            format!("{:?}", evolve_block(&wg, &[1], WalkKind::Simple, 12).remove(0))
        );
    }
}

proptest! {
    // Algorithm 2 runs real CONGEST phases per case; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Unit-weight Algorithm 2, end to end: accepted length, set size,
    /// accepted sum, per-iteration diagnostics, and CONGEST metrics.
    #[test]
    fn unit_weights_algorithm2_bit_identical((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let wg = WeightedGraph::unit(g.clone());
        let mut cfg = AlgoConfig::new(4.0);
        cfg.seed = seed ^ 0x11AA;
        cfg.kind = WalkKind::Lazy; // well-defined even if g is bipartite
        let a = local_mixing_time_approx(&g, 0, &cfg).expect("unweighted");
        let b = local_mixing_time_approx(&wg, 0, &cfg).expect("weighted");
        prop_assert_eq!(
            format!("{} {} {} {:?} {:?}", a.ell, a.accepted_size, a.accepted_sum, a.metrics, a.iterations),
            format!("{} {} {} {:?} {:?}", b.ell, b.accepted_size, b.accepted_sum, b.metrics, b.iterations)
        );
    }
}

/// The weighted β-barbell's τ_s depends on the bridge weight: with the set
/// size forced to span two cliques (β = 2 on a 4-clique barbell), mass must
/// cross bridges before any witness set can flatten, so a heavier bridge
/// means an earlier witness — measured: τ(0.25) ≈ 6.1k, τ(0.5) ≈ 3.4k,
/// τ(1.0) ≈ 1.8k. (Bridges much heavier than the clique edges leave the
/// AssumeFlat regime instead: the stationary distribution itself drifts
/// more than ε from flat and no witness ever appears — the weighted
/// analogue of the paper's near-regularity caveat.) Global mixing moves
/// the same way, and has no flatness assumption, so it tolerates the
/// heavy-bridge end too.
#[test]
fn weighted_barbell_bridge_weight_dials_tau() {
    let beta_graph = 4; // cliques in the graph
    let k = 12;
    let tau_s = |bridge: f64| {
        let (wg, _) = gen::weighted_barbell(beta_graph, k, bridge);
        let mut o = LocalMixOptions::new(2.0); // R ≥ n/2 = 2k: spans 2 cliques
        o.flat_policy = FlatPolicy::AssumeFlat; // ports are near-regular
        o.kind = WalkKind::Lazy;
        o.max_t = 60_000;
        local_mixing_time(&wg, 1, &o).expect("local mixing").tau
    };
    let (weak, mid, unit) = (tau_s(0.25), tau_s(0.5), tau_s(1.0));
    assert!(
        weak > mid && mid > unit,
        "τ_s must fall as the bridge strengthens: τ(0.25)={weak}, τ(0.5)={mid}, τ(1)={unit}"
    );

    let eps = 1.0 / (8.0 * std::f64::consts::E);
    let tau_mix = |bridge: f64| {
        let (wg, _) = gen::weighted_barbell(beta_graph, k, bridge);
        mixing_time(&wg, 1, eps, WalkKind::Lazy, 1_000_000)
            .expect("global mixing")
            .tau
    };
    let (gweak, gstrong) = (tau_mix(0.25), tau_mix(4.0));
    assert!(
        gweak > gstrong,
        "global mixing must also fall: τ_mix(0.25)={gweak}, τ_mix(4)={gstrong}"
    );
}

/// The weighted sweeps run through the same trait seam — and a weighted
/// graph-wide sweep on a weight-regular substrate behaves like its
/// unweighted twin.
#[test]
fn weighted_graph_tau_sweep_matches_unweighted_twin() {
    let (g, _) = gen::ring_of_cliques_regular(3, 8);
    let wg = WeightedGraph::unit(g.clone());
    let cfg = AlgoConfig::new(3.0);
    let a = graph_local_mixing_time_sampled(&g, &cfg, 6).expect("unweighted sweep");
    let b = graph_local_mixing_time_sampled(&wg, &cfg, 6).expect("weighted sweep");
    assert_eq!(a.tau, b.tau);
    assert_eq!(a.per_source, b.per_source);
    assert_eq!(a.metrics, b.metrics);
}
