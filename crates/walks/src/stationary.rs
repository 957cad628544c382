//! Stationary distributions, global and restricted (§2.2).
//!
//! Generic over [`WalkGraph`]: `π(v) ∝ W(v)` (walk degree), which is
//! `d(v)/2m` on unweighted graphs — the unweighted arithmetic is unchanged
//! bit-for-bit (integer-valued `f64` degrees divided by the integer-valued
//! volume).

use crate::Dist;
use lmt_graph::WalkGraph;
use lmt_util::BitSet;

/// The stationary distribution `π(v) = W(v)/Σ_u W(u)` of a connected
/// (weighted) undirected graph — `d(v)/2m` in the unweighted case —
/// identical for simple and lazy walks.
///
/// Isolated nodes get `π(v) = 0`, which is consistent (no walk ever
/// reaches them); a distribution *starting* on one is rejected by the walk
/// entry points instead (see [`crate::step::step`]).
///
/// # Panics
/// Panics if the graph has no edges (zero total walk weight).
pub fn stationary<G: WalkGraph + ?Sized>(g: &G) -> Dist {
    let total = g.total_walk_weight();
    assert!(
        total > 0.0,
        "stationary distribution undefined for edgeless graph"
    );
    Dist::from_vec((0..g.n()).map(|v| g.walk_degree(v) / total).collect())
}

/// The restricted stationary vector `π_S` of §2.2:
/// `π_S(v) = W(v)/µ(S)` for `v ∈ S`, 0 elsewhere (unweighted: `d(v)/µ(S)`).
/// A true distribution on `S`.
///
/// # Panics
/// Panics if `µ(S) = 0`.
pub fn stationary_restricted<G: WalkGraph + ?Sized>(g: &G, s: &BitSet) -> Dist {
    assert_eq!(s.capacity(), g.n(), "stationary_restricted: size mismatch");
    let mu: f64 = s.iter().map(|v| g.walk_degree(v)).sum();
    assert!(mu > 0.0, "π_S undefined: set has zero volume");
    let mut p = vec![0.0; g.n()];
    for v in s.iter() {
        p[v] = g.walk_degree(v) / mu;
    }
    Dist::from_vec(p)
}

/// For a `d`-regular graph, `π_S` is flat `1/|S|`; this helper returns that
/// value for a set size (what Algorithm 2's per-node difference uses).
#[inline]
pub fn flat_target(set_size: usize) -> f64 {
    assert!(set_size > 0, "flat_target: empty set");
    1.0 / set_size as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmt_graph::gen;

    #[test]
    fn stationary_sums_to_one() {
        let g = gen::lollipop(5, 3);
        let pi = stationary(&g);
        assert!(pi.check_mass(1e-12).is_ok());
        // Higher degree ⇒ higher mass.
        assert!(pi.get(0) > pi.get(7));
    }

    #[test]
    fn regular_graph_stationary_is_uniform() {
        let g = gen::cycle(8);
        let pi = stationary(&g);
        for v in 0..8 {
            assert!((pi.get(v) - 0.125).abs() < 1e-15);
        }
    }

    #[test]
    fn restricted_is_probability_on_set() {
        let g = gen::path(5); // degrees 1,2,2,2,1
        let mut s = BitSet::new(5);
        s.insert(1);
        s.insert(2);
        let pis = stationary_restricted(&g, &s);
        assert!((pis.mass() - 1.0).abs() < 1e-12);
        assert!((pis.get(1) - 0.5).abs() < 1e-12);
        assert_eq!(pis.get(0), 0.0);
    }

    #[test]
    fn restricted_full_set_is_stationary() {
        let (g, _) = gen::barbell(2, 4);
        let full = BitSet::full(g.n());
        let a = stationary_restricted(&g, &full);
        let b = stationary(&g);
        assert!(a.l1_distance(&b) < 1e-12);
    }

    #[test]
    fn flat_target_value() {
        assert!((flat_target(4) - 0.25).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "zero volume")]
    fn empty_set_restricted_panics() {
        let g = gen::path(3);
        let _ = stationary_restricted(&g, &BitSet::new(3));
    }

    #[test]
    fn weighted_stationary_proportional_to_walk_degree() {
        // Path 0-1-2 with weights 3 and 1: W = [3, 4, 1], ΣW = 8.
        let mut b = lmt_graph::WeightedGraphBuilder::new(3);
        b.add_edge(0, 1, 3.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        let pi = stationary(&g);
        assert!((pi.get(0) - 3.0 / 8.0).abs() < 1e-15);
        assert!((pi.get(1) - 0.5).abs() < 1e-15);
        assert!((pi.get(2) - 1.0 / 8.0).abs() < 1e-15);
    }

    #[test]
    fn unit_weights_stationary_bit_identical() {
        let g = gen::lollipop(5, 3);
        let wg = lmt_graph::WeightedGraph::unit(g.clone());
        assert_eq!(stationary(&g), stationary(&wg));
        let mut s = BitSet::new(g.n());
        s.insert(1);
        s.insert(6);
        assert_eq!(
            stationary_restricted(&g, &s),
            stationary_restricted(&wg, &s)
        );
    }

    #[test]
    fn loop_weight_enters_stationary() {
        // Loops add to W(u) and thus to π — the lazy-as-loops graph keeps
        // π *proportions* of the base graph (every W doubles).
        let base = lmt_graph::WeightedGraph::unit(gen::path(3));
        let lazy = lmt_graph::gen::weighted::lazy_loops(&base);
        assert!(stationary(&base).l1_distance(&stationary(&lazy)) < 1e-15);
    }
}
