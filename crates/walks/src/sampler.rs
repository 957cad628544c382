//! Token-level random-walk sampling.
//!
//! Two uses in the reproduction:
//! * the **Das Sarma et al. \[10\] baseline** estimates the walk distribution
//!   empirically from many independent walk endpoints and compares it to the
//!   stationary distribution;
//! * the push–pull analysis of Theorem 3 treats a token's trajectory as a
//!   random walk, and tests validate that picture.

use crate::Dist;
use lmt_graph::WalkGraph;
use lmt_util::rng::fork;
use rand::Rng;
use rayon::prelude::*;

/// Panic unless a `len`-step token walk can start at `src`. An undirected
/// walk never *reaches* an isolated node, so checking the source up front
/// covers the whole trajectory — previously the panic fired mid-walk, deep
/// in the parallel fold, when `gen::erdos_renyi` handed over a degree-0
/// source.
#[inline]
fn assert_walk_start<G: WalkGraph + ?Sized>(g: &G, src: usize, len: usize, what: &str) {
    assert!(src < g.n(), "{what}: source {src} out of range");
    // Zero-length walks are fine anywhere (the endpoint is the source);
    // only a moving walk needs a non-isolated start.
    assert!(
        len == 0 || g.walk_degree(src) > 0.0,
        "{what}: source {src} is an isolated node (degree 0); a {len}-step walk cannot start"
    );
}

/// Walk a single token for `len` steps from `src`; returns the endpoint.
/// On weighted graphs each step moves with probability ∝ edge weight
/// (self-loops stay put).
///
/// # Panics
/// Panics up front if `src` is out of range or isolated with `len > 0`.
pub fn walk_endpoint<G: WalkGraph + ?Sized>(g: &G, src: usize, len: usize, seed: u64) -> usize {
    assert_walk_start(g, src, len, "walk_endpoint");
    let mut rng = fork(seed, 0x77A1_C0DE);
    let mut at = src;
    for _ in 0..len {
        at = g.sample_step(at, &mut rng);
    }
    at
}

/// Run `walks` independent walks of length `len` from `src` (rayon-parallel,
/// deterministic in `seed`) and return endpoint counts per node.
///
/// # Panics
/// As [`walk_endpoint`]: isolated sources are rejected before any walk
/// spawns.
pub fn endpoint_counts<G: WalkGraph + ?Sized>(
    g: &G,
    src: usize,
    len: usize,
    walks: usize,
    seed: u64,
) -> Vec<u64> {
    assert_walk_start(g, src, len, "endpoint_counts");
    // Each item is a full `len`-step walk — meaty enough that small chunks
    // pay off, but batching 16 walks still amortizes the per-chunk
    // accumulator (`vec![0; n]`) and the spawn.
    let counts = (0..walks)
        .into_par_iter()
        .with_min_len(16)
        .fold(
            || vec![0u64; g.n()],
            |mut acc, i| {
                let end = walk_endpoint(g, src, len, fork(seed, i as u64).gen());
                acc[end] += 1;
                acc
            },
        )
        .reduce(
            || vec![0u64; g.n()],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
    counts
}

/// Empirical endpoint distribution `p̂_len` from `walks` samples.
///
/// # Panics
/// Panics if `walks == 0`, or (as [`walk_endpoint`]) if `src` is out of
/// range or isolated with `len > 0`.
pub fn empirical_distribution<G: WalkGraph + ?Sized>(
    g: &G,
    src: usize,
    len: usize,
    walks: usize,
    seed: u64,
) -> Dist {
    assert!(walks > 0, "need at least one walk");
    // (src, len) are validated by endpoint_counts below.
    let counts = endpoint_counts(g, src, len, walks, seed);
    Dist::from_vec(
        counts
            .into_iter()
            .map(|c| c as f64 / walks as f64)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::evolve_block;
    use crate::step::WalkKind;
    use lmt_graph::gen;

    #[test]
    fn endpoint_deterministic_in_seed() {
        let g = gen::cycle(12);
        let a = walk_endpoint(&g, 0, 100, 5);
        let b = walk_endpoint(&g, 0, 100, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_length_walk_stays_home() {
        let g = gen::path(4);
        assert_eq!(walk_endpoint(&g, 2, 0, 9), 2);
        let d = empirical_distribution(&g, 2, 0, 50, 1);
        assert_eq!(d.get(2), 1.0);
    }

    #[test]
    fn counts_sum_to_walks() {
        let g = gen::complete(6);
        let counts = endpoint_counts(&g, 0, 3, 500, 42);
        assert_eq!(counts.iter().sum::<u64>(), 500);
    }

    #[test]
    fn empirical_approaches_exact_distribution() {
        let g = gen::complete(8);
        let len = 2;
        let exact = evolve_block(&g, &[0], WalkKind::Simple, len).remove(0);
        let emp = empirical_distribution(&g, 0, len, 40_000, 7);
        // L1 error of the empirical estimate should be tiny at 40k samples.
        assert!(
            emp.l1_distance(&exact) < 0.05,
            "L1 = {}",
            emp.l1_distance(&exact)
        );
    }

    #[test]
    fn parallel_reduction_deterministic() {
        let g = gen::grid(4, 4);
        let a = endpoint_counts(&g, 0, 10, 2000, 3);
        let b = endpoint_counts(&g, 0, 10, 2000, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_empirical_approaches_weighted_exact() {
        // Token sampling and the exact operator must agree on a skewed
        // weighted triangle: both see transition probability ∝ weight.
        let mut b = lmt_graph::WeightedGraphBuilder::new(3);
        b.add_edge(0, 1, 8.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        let len = 3;
        let exact = evolve_block(&g, &[0], WalkKind::Simple, len).remove(0);
        let emp = empirical_distribution(&g, 0, len, 40_000, 13);
        assert!(
            emp.l1_distance(&exact) < 0.05,
            "L1 = {}",
            emp.l1_distance(&exact)
        );
    }

    #[test]
    #[should_panic(expected = "cannot start")]
    fn isolated_source_rejected_up_front() {
        // erdos_renyi can emit degree-0 nodes; the sampler must refuse at
        // the boundary, not panic mid-walk inside the parallel fold.
        let g = gen::erdos_renyi(12, 0.05, 4);
        let isolated = (0..g.n())
            .find(|&v| g.degree(v) == 0)
            .expect("seed chosen to produce an isolated node");
        let _ = walk_endpoint(&g, isolated, 5, 1);
    }

    #[test]
    fn zero_length_walk_from_isolated_node_is_fine() {
        let g = lmt_graph::GraphBuilder::new(2).build();
        assert_eq!(walk_endpoint(&g, 1, 0, 3), 1);
    }
}
