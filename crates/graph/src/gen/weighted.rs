//! Weighted decorators over the graph families, plus the weighted
//! β-barbell with a tunable bridge weight.
//!
//! Every unweighted family in [`crate::gen`] lifts to the weighted world
//! through the decorators here: uniform weights, per-edge weight functions,
//! seeded random weights, and lazy-walk self-loops. The one family with its
//! own weighted generator is the β-barbell — the paper's Figure 1 graph —
//! where scaling the *bridge* weight directly dials the bottleneck
//! conductance, and with it the local-vs-global mixing separation that the
//! paper is about.

use crate::weighted::{WeightedGraph, WeightedGraphBuilder};
use crate::Graph;
use lmt_util::rng::fork;
use rand::Rng;

use crate::gen::BarbellSpec;

/// Give every edge of `topo` the same weight `w`.
///
/// With `w = 1.0` this is [`WeightedGraph::unit`]: walks reproduce the
/// unweighted walk bit-for-bit. Any other uniform weight leaves all
/// transition probabilities unchanged (the walk only sees ratios) but
/// scales walk degrees — useful for testing scale invariance.
pub fn uniform_weights(topo: Graph, w: f64) -> WeightedGraph {
    assert!(
        w.is_finite() && w > 0.0,
        "uniform weight {w} must be finite and > 0"
    );
    let mut b = WeightedGraphBuilder::new(topo.n());
    for (u, v) in topo.edges() {
        b.add_edge(u, v, w);
    }
    b.build()
}

/// Decorate `topo` with `weight(u, v)` per undirected edge (`u < v`).
///
/// # Panics
/// Panics if `weight` returns a non-finite or non-positive value.
pub fn with_edge_weights(
    topo: Graph,
    mut weight: impl FnMut(usize, usize) -> f64,
) -> WeightedGraph {
    let mut b = WeightedGraphBuilder::new(topo.n());
    for (u, v) in topo.edges() {
        b.add_edge(u, v, weight(u, v));
    }
    b.build()
}

/// Decorate `topo` with independent uniform random weights in `[lo, hi)`,
/// deterministic in `seed`.
pub fn random_weights(topo: Graph, lo: f64, hi: f64, seed: u64) -> WeightedGraph {
    assert!(lo.is_finite() && lo > 0.0 && hi > lo, "need 0 < lo < hi");
    let mut rng = fork(seed, 0x37E1_64E7);
    with_edge_weights(topo, move |_, _| rng.gen_range(lo..hi))
}

/// Add a self-loop of weight `W_neighbors(u)` (the node's neighbor-weight
/// sum) to every node: the resulting simple walk is **exactly the lazy
/// walk** of the base graph — stay with probability ½, else move with the
/// base transition probabilities. The standard reduction that makes
/// laziness a weight, not a special case.
pub fn lazy_loops(g: &WeightedGraph) -> WeightedGraph {
    let mut b = WeightedGraphBuilder::new(g.n());
    for u in 0..g.n() {
        for (v, w) in g.neighbor_weights(u) {
            if u < v {
                b.add_edge(u, v, w);
            }
        }
        let base_loop = g.loop_weight(u);
        let neighbor_sum = g.weighted_degree(u) - base_loop;
        // Loop grows so that stay-probability reaches ½ of the *whole*
        // walk degree: new_loop = old_loop + W(u) makes loop/(2W) = 1/2.
        let add = neighbor_sum + 2.0 * base_loop;
        if add > 0.0 {
            b.add_loop(u, add);
        }
    }
    b.build()
}

/// The **weighted β-barbell**: the Figure 1 path of `beta` cliques with
/// unit intra-clique weights, but every bridge edge carries
/// `bridge_weight`.
///
/// The bridge weight is the bottleneck dial: the escape probability from a
/// clique scales with `bridge_weight/(k − 1 + bridge_weight)`, so a heavy
/// bridge collapses the global mixing time toward the local one while a
/// light bridge widens the paper's `O(1)` local vs `Ω(β²)` global
/// separation. `bridge_weight = 1.0` recovers the unweighted barbell (as a
/// unit-weight decoration).
///
/// Returns the graph and its [`BarbellSpec`] (ports and clique ranges are
/// topology-level and unchanged by weighting).
///
/// # Panics
/// As [`crate::gen::barbell`], plus a finite-positive `bridge_weight`.
pub fn weighted_barbell(
    beta: usize,
    clique_size: usize,
    bridge_weight: f64,
) -> (WeightedGraph, BarbellSpec) {
    assert!(
        bridge_weight.is_finite() && bridge_weight > 0.0,
        "bridge weight {bridge_weight} must be finite and > 0"
    );
    let (topo, spec) = crate::gen::barbell(beta, clique_size);
    let is_bridge = move |u: usize, v: usize| {
        // Bridges connect consecutive cliques; intra-clique edges never
        // cross a clique boundary.
        u / clique_size != v / clique_size
    };
    let g = with_edge_weights(
        topo,
        |u, v| if is_bridge(u, v) { bridge_weight } else { 1.0 },
    );
    (g, spec)
}

/// Weighted variant of [`crate::gen::ring_of_cliques_regular`]: the exactly
/// `(k−1)`-regular clique ring with `bridge_weight` on the `beta` ring
/// bridges and unit weight inside cliques.
///
/// Unlike the barbell this is topologically regular, so with
/// `bridge_weight = 1.0` it is weight-regular too (flat stationary
/// distribution — the §3 algorithms' setting).
pub fn weighted_ring_of_cliques_regular(
    beta: usize,
    clique_size: usize,
    bridge_weight: f64,
) -> (WeightedGraph, BarbellSpec) {
    assert!(
        bridge_weight.is_finite() && bridge_weight > 0.0,
        "bridge weight {bridge_weight} must be finite and > 0"
    );
    let (topo, spec) = crate::gen::ring_of_cliques_regular(beta, clique_size);
    let g = with_edge_weights(topo, |u, v| {
        if u / clique_size != v / clique_size {
            bridge_weight
        } else {
            1.0
        }
    });
    (g, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::walk::WalkGraph;

    #[test]
    fn uniform_weights_scale_walk_degrees() {
        let g = uniform_weights(gen::cycle(6), 3.0);
        for u in 0..6 {
            assert_eq!(g.weighted_degree(u), 6.0);
        }
        assert_eq!(g.flat_stationary(), Some(1.0 / 6.0));
    }

    #[test]
    fn with_edge_weights_applies_function() {
        let g = with_edge_weights(gen::path(3), |u, v| (u + v) as f64);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 2), Some(3.0));
    }

    #[test]
    fn random_weights_deterministic_in_seed() {
        let a = random_weights(gen::complete(8), 0.5, 2.0, 11);
        let b = random_weights(gen::complete(8), 0.5, 2.0, 11);
        let c = random_weights(gen::complete(8), 0.5, 2.0, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for (_, w) in a.neighbor_weights(0) {
            assert!((0.5..2.0).contains(&w));
        }
        assert!(a.validate().is_ok());
    }

    #[test]
    fn lazy_loops_halve_move_probability() {
        let g = lazy_loops(&WeightedGraph::unit(gen::cycle(4)));
        for u in 0..4 {
            // Neighbor sum 2, loop 2 → stay probability 1/2.
            assert_eq!(g.loop_weight(u), 2.0);
            assert_eq!(g.weighted_degree(u), 4.0);
        }
    }

    #[test]
    fn weighted_barbell_bridges_carry_the_weight() {
        let (g, spec) = weighted_barbell(3, 4, 0.25);
        assert_eq!(
            g.edge_weight(spec.right_port(0), spec.left_port(1)),
            Some(0.25)
        );
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        // Port walk degree: (k−1) unit edges + one 0.25 bridge.
        assert_eq!(g.weighted_degree(spec.right_port(0)), 3.25);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn unit_bridge_recovers_unweighted_barbell() {
        let (wg, _) = weighted_barbell(3, 4, 1.0);
        let (topo, _) = gen::barbell(3, 4);
        assert_eq!(wg, WeightedGraph::unit(topo));
    }

    #[test]
    fn weighted_clique_ring_weight_regular_at_unit_bridge() {
        let (g, _) = weighted_ring_of_cliques_regular(3, 4, 1.0);
        assert!(g.flat_stationary().is_some());
        let (g2, _) = weighted_ring_of_cliques_regular(3, 4, 2.0);
        assert!(g2.flat_stationary().is_none()); // ports got heavier
    }
}
