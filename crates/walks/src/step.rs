//! One step of the walk operator: `p ↦ A p`, where `A` is the transpose of
//! the transition matrix (§2.1).
//!
//! [`step`] is the **dense reference**: it pulls all `n` nodes every call
//! and allocates a fresh [`Dist`]. Multi-step walks run on the evolution
//! engine ([`crate::engine::BlockEvolution`]), which is bit-identical to
//! iterating [`step`]; the reference stays for the spectral and stationary
//! code, the brute-force oracle, the `dense` sweep engine and the tests
//! that check the engine against it.
//!
//! Everything here is generic over [`WalkGraph`], so the same operator
//! drives unweighted [`lmt_graph::Graph`]s (transition `1/d(u)`, the
//! paper's setting — arithmetic unchanged bit-for-bit from the pre-trait
//! code) and [`lmt_graph::WeightedGraph`]s (transition `w(u,v)/W(u)`,
//! stationary `∝ W`).

use crate::Dist;
use lmt_graph::WalkGraph;
use rayon::prelude::*;

/// Which walk the distribution evolves under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkKind {
    /// Simple random walk: from `u`, move to a uniform neighbor.
    /// Undefined mixing on bipartite graphs (§2.1, footnote 5).
    Simple,
    /// Lazy walk: stay put with probability 1/2, else move to a uniform
    /// neighbor. Well-defined mixing on every connected graph.
    Lazy,
}

/// Minimum nodes per worker chunk. A pull is a handful of flops per
/// neighbor, so chunks below this are dominated by spawn overhead; the shim
/// runs the whole step inline when `n` is under twice this.
const PAR_MIN_CHUNK: usize = 2048;

/// Panic unless every node carrying mass can actually walk (positive walk
/// degree). Mass on an isolated node would silently *vanish* under the
/// simple operator (and bleed under the lazy one) — `gen::erdos_renyi` can
/// emit such nodes, so the walk entry points check up front instead of
/// failing (or drifting) deep in an iteration.
pub(crate) fn assert_walkable<G: WalkGraph + ?Sized>(g: &G, p: &[f64], what: &str) {
    for (v, &pv) in p.iter().enumerate() {
        if pv != 0.0 && g.walk_degree(v) <= 0.0 {
            panic!("{what}: distribution places mass {pv} on isolated node {v} (degree 0)");
        }
    }
}

/// Panic unless `src` is in range and non-isolated — the shared boundary
/// guard of every point-mass walk entry point (`mixing_time`, `l1_trace`,
/// the local-mixing oracle, the samplers). Public so front ends
/// (`lmt-service`) reject bad sources with the oracle's exact messages.
///
/// # Panics
/// Panics if `src ≥ n` or `src` has walk degree 0.
pub fn assert_source<G: WalkGraph + ?Sized>(g: &G, src: usize, what: &str) {
    assert!(src < g.n(), "{what}: source {src} out of range");
    assert!(
        g.walk_degree(src) > 0.0,
        "{what}: source {src} is an isolated node (degree 0)"
    );
}

/// Compute `p_{t+1}` from `p_t`:
/// `p'(v) = Σ_{u ∈ N(v)} p(u)·w(u,v)/W(u)` (+ the self-loop term, if any)
/// for the simple walk — `w ≡ 1`, `W = d` on unweighted graphs — with the
/// lazy 1/2-mixture for [`WalkKind::Lazy`].
///
/// Pull-based (each output node gathers from its neighbors), so the parallel
/// and sequential paths produce bit-identical results: each `p'(v)` sums in
/// neighbor-sorted order regardless of scheduling.
///
/// # Panics
/// Debug builds panic if `p` places mass on an isolated node (that mass
/// would silently vanish); the engine constructors and the mixing-time
/// functions check this in release builds too.
pub fn step<G: WalkGraph + ?Sized>(g: &G, p: &Dist, kind: WalkKind) -> Dist {
    assert_eq!(p.n(), g.n(), "step: distribution/graph size mismatch");
    let ps = p.as_slice();
    #[cfg(debug_assertions)]
    assert_walkable(g, ps, "step");
    let pull = |v: usize| -> f64 {
        let inflow = g.pull(v, ps);
        match kind {
            WalkKind::Simple => inflow,
            WalkKind::Lazy => 0.5 * ps[v] + 0.5 * inflow,
        }
    };
    let out: Vec<f64> = (0..g.n())
        .into_par_iter()
        .with_min_len(PAR_MIN_CHUNK)
        .map(pull)
        .collect();
    Dist::from_vec(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmt_graph::gen;

    #[test]
    fn complete_graph_one_step_is_near_uniform() {
        // §2.3(a): after one step from s, mass is 1/(n−1) on every other node.
        let g = gen::complete(5);
        let p1 = step(&g, &Dist::point(5, 0), WalkKind::Simple);
        assert_eq!(p1.get(0), 0.0);
        for v in 1..5 {
            assert!((p1.get(v) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn mass_is_conserved() {
        let g = gen::grid(4, 4);
        let mut p = Dist::point(16, 5);
        for _ in 0..50 {
            p = step(&g, &p, WalkKind::Simple);
            assert!(p.check_mass(1e-9).is_ok());
        }
    }

    #[test]
    fn lazy_keeps_half() {
        let g = gen::path(3);
        let p1 = step(&g, &Dist::point(3, 0), WalkKind::Lazy);
        assert!((p1.get(0) - 0.5).abs() < 1e-12);
        assert!((p1.get(1) - 0.5).abs() < 1e-12);
        assert_eq!(p1.get(2), 0.0);
    }

    #[test]
    fn evolve_matches_repeated_step() {
        let g = gen::cycle(7);
        let via_evolve = crate::engine::evolve_block(&g, &[0], WalkKind::Lazy, 5).remove(0);
        let mut p = Dist::point(7, 0);
        for _ in 0..5 {
            p = step(&g, &p, WalkKind::Lazy);
        }
        assert_eq!(via_evolve, p);
    }

    #[test]
    fn stationary_is_fixed_point() {
        // π(v) = d(v)/2m is invariant under the simple-walk operator.
        let (g, _) = gen::barbell(2, 4);
        let two_m = g.total_volume() as f64;
        let pi = Dist::from_vec((0..g.n()).map(|v| g.degree(v) as f64 / two_m).collect());
        let stepped = step(&g, &pi, WalkKind::Simple);
        assert!(pi.l1_distance(&stepped) < 1e-12);
        let lazy_stepped = step(&g, &pi, WalkKind::Lazy);
        assert!(pi.l1_distance(&lazy_stepped) < 1e-12);
    }

    #[test]
    fn weighted_stationary_is_fixed_point() {
        // π(v) = W(v)/ΣW is invariant under the weighted simple walk.
        let g = gen::weighted::random_weights(gen::grid(3, 4), 0.5, 4.0, 7);
        use lmt_graph::WalkGraph;
        let total = g.total_walk_weight();
        let pi = Dist::from_vec(
            (0..WalkGraph::n(&g))
                .map(|v| g.weighted_degree(v) / total)
                .collect(),
        );
        let stepped = step(&g, &pi, WalkKind::Simple);
        assert!(pi.l1_distance(&stepped) < 1e-12);
    }

    #[test]
    fn unit_weights_step_bit_identical_to_unweighted() {
        let (g, _) = gen::barbell(3, 5);
        let wg = lmt_graph::WeightedGraph::unit(g.clone());
        let mut p = Dist::point(g.n(), 2);
        let mut wp = p.clone();
        for _ in 0..40 {
            p = step(&g, &p, WalkKind::Simple);
            wp = step(&wg, &wp, WalkKind::Simple);
            assert_eq!(p, wp); // bit equality, not approximate
        }
    }

    #[test]
    fn heavy_edge_attracts_mass() {
        // Triangle with one heavy edge: after one step from node 0, the
        // heavy neighbor holds proportionally more mass.
        let mut b = lmt_graph::WeightedGraphBuilder::new(3);
        b.add_edge(0, 1, 9.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        let p1 = step(&g, &Dist::point(3, 0), WalkKind::Simple);
        assert!((p1.get(1) - 0.9).abs() < 1e-15);
        assert!((p1.get(2) - 0.1).abs() < 1e-15);
    }

    #[test]
    fn self_loop_weight_reproduces_lazy_walk() {
        // The standard reduction: a loop equal to the neighbor-weight sum
        // turns the simple weighted walk into the lazy walk of the base
        // graph (footnote 5's fix as a weight, not a special case).
        let base = gen::hypercube(3);
        let lazy_as_loops =
            gen::weighted::lazy_loops(&lmt_graph::WeightedGraph::unit(base.clone()));
        let mut p_lazy = Dist::point(8, 0);
        let mut p_loop = p_lazy.clone();
        for _ in 0..25 {
            p_lazy = step(&base, &p_lazy, WalkKind::Lazy);
            p_loop = step(&lazy_as_loops, &p_loop, WalkKind::Simple);
            assert!(p_lazy.l1_distance(&p_loop) < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "isolated node")]
    fn mass_on_isolated_node_rejected() {
        // Node 2 is isolated; a distribution touching it is refused up
        // front in debug builds. Release builds skip the per-step scan (the
        // one-shot entry points still check): there the mass observably
        // vanishes, and the test panics with a matching message itself.
        let mut b = lmt_graph::GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g = b.build();
        let p = Dist::point(3, 2);
        let stepped = step(&g, &p, WalkKind::Simple);
        assert_eq!(stepped.mass(), 0.0);
        panic!("isolated node mass vanished (release-mode observation)");
    }

    #[test]
    #[should_panic(expected = "isolated node")]
    fn evolve_rejects_isolated_mass_in_release_too() {
        let mut b = lmt_graph::GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g = b.build();
        let _ = crate::engine::evolve_block(&g, &[2], WalkKind::Simple, 5);
    }
}
