//! The exact algorithm of §3.2 (Theorem 2).
//!
//! Identical per-length machinery to Algorithm 2, but the length advances by
//! **one step** per iteration, resuming the flood from the previous
//! distribution instead of recomputing it ("we resume the deterministic
//! flooding technique from the last step … and compute `p_ℓ` in one round").
//! This removes the doubling (so no Lemma 4 conductance assumption is
//! needed) at the price of a `D̃ = min{τ_s, D}` factor:
//! `O(τ_s · D̃ · log n · log_{1+ε} β)` rounds.

use crate::approx::{check_source, grid_check, AlgoError, IterationLog};
use crate::config::AlgoConfig;
use lmt_congest::bfs::build_bfs_tree;
use lmt_congest::flood::IncrementalFlood;
use lmt_congest::Metrics;
use lmt_graph::Graph;

/// Output of the exact algorithm.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// The first length at which the acceptance test passes — the exact
    /// `τ_s(β, ε)` with respect to the algorithm's (4ε, geometric-grid,
    /// fixed-point) acceptance semantics.
    pub ell: u64,
    /// The set size `R` at which the test passed.
    pub accepted_size: usize,
    /// The accepted sum (as `f64`, for reporting).
    pub accepted_sum: f64,
    /// Total CONGEST cost.
    pub metrics: Metrics,
    /// Per-length diagnostics.
    pub iterations: Vec<IterationLog>,
}

/// Run the §3.2 exact algorithm from `src`.
///
/// A source outside the graph or of degree 0 is an error
/// ([`AlgoError::SourceOutOfRange`], [`AlgoError::IsolatedSource`]).
pub fn local_mixing_time_exact_distributed(
    g: &Graph,
    src: usize,
    cfg: &AlgoConfig,
) -> Result<ExactResult, AlgoError> {
    cfg.validate();
    check_source(g, src)?;
    let budget = cfg.budget_bits(g.n());
    let mut metrics = Metrics::default();
    let mut iterations = Vec::new();

    let mut flood = IncrementalFlood::new(g, src, cfg.c, cfg.kind, budget);
    let scale = flood.scale();

    for ell in 1..=cfg.max_len {
        let rounds_before = metrics.rounds;

        // One more walk step (one CONGEST round).
        flood.advance();
        metrics.rounds += 1;

        // BFS tree of depth min{D, ℓ}, rebuilt per iteration as in §3.2.
        let depth_limit = u32::try_from(ell).unwrap_or(u32::MAX);
        let (tree, m_bfs) = build_bfs_tree(
            g,
            src,
            depth_limit,
            budget,
            cfg.engine,
            cfg.seed.wrapping_add(0xB0 + ell),
        )?;
        metrics.absorb(&m_bfs);

        let weights = flood.weights();
        let mut sizes_checked = 0;
        let accepted = grid_check(
            g,
            &tree,
            &weights,
            scale,
            cfg,
            budget,
            cfg.seed.wrapping_add(0x3000 + ell * 0x100),
            &mut metrics,
            &mut sizes_checked,
        )?;

        iterations.push(IterationLog {
            ell,
            bfs_depth: tree.depth,
            tree_reached: tree.reached(),
            sizes_checked,
            rounds: metrics.rounds - rounds_before,
        });

        if let Some((r, sum)) = accepted {
            // Fold the flood's message/bit cost in once at the end (its
            // rounds were already accumulated incrementally).
            let fm = flood.metrics();
            metrics.messages += fm.messages;
            metrics.bits += fm.bits;
            metrics.max_edge_bits = metrics.max_edge_bits.max(fm.max_edge_bits);
            return Ok(ExactResult {
                ell,
                accepted_size: r,
                accepted_sum: sum,
                metrics,
                iterations,
            });
        }
    }
    Err(AlgoError::NotMixedWithin(cfg.max_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::local_mixing_time_approx;
    use lmt_graph::gen;

    #[test]
    fn complete_graph_exact_is_one() {
        let g = gen::complete(24);
        let cfg = AlgoConfig::new(3.0);
        let r = local_mixing_time_exact_distributed(&g, 1, &cfg).unwrap();
        assert_eq!(r.ell, 1);
    }

    #[test]
    fn exact_lower_bounds_approx_and_within_factor_two() {
        // Theorem 1: the doubling output is ≤ 2·τ; the exact output is τ
        // (both w.r.t. the same acceptance semantics).
        let (g, _) = gen::ring_of_cliques_regular(4, 12);
        let cfg = AlgoConfig::new(4.0);
        let exact = local_mixing_time_exact_distributed(&g, 3, &cfg).unwrap();
        let approx = local_mixing_time_approx(&g, 3, &cfg).unwrap();
        assert!(
            exact.ell <= approx.ell,
            "exact {} > approx {}",
            exact.ell,
            approx.ell
        );
        assert!(
            approx.ell < 2 * exact.ell.max(1),
            "approx {} ≥ 2·exact {}",
            approx.ell,
            exact.ell
        );
    }

    #[test]
    fn acceptance_is_tight_left_boundary() {
        // ℓ−1 must not satisfy the test (first-acceptance semantics): rerun
        // the grid check at ℓ−1 via the approx machinery with max_len capped.
        let (g, _) = gen::ring_of_cliques_regular(3, 9);
        let cfg = AlgoConfig::new(3.0);
        let r = local_mixing_time_exact_distributed(&g, 0, &cfg).unwrap();
        assert!(r.ell >= 1);
        assert_eq!(r.iterations.len() as u64, r.ell, "one log entry per length");
        // Every earlier iteration must have checked the full grid without
        // accepting.
        for it in &r.iterations[..r.iterations.len() - 1] {
            assert_eq!(it.sizes_checked, cfg.size_grid(g.n()).len());
        }
    }

    #[test]
    fn bipartite_hypercube_simple_vs_lazy() {
        // Footnote 5: on the bipartite hypercube the simple walk never
        // *globally* mixes (β = 1 diverges)…
        let g = gen::hypercube(5); // 32 nodes, 5-regular, bipartite
        let mut cfg = AlgoConfig::new(1.0);
        cfg.max_len = 256;
        let global_simple = local_mixing_time_exact_distributed(&g, 0, &cfg);
        assert_eq!(global_simple.unwrap_err(), AlgoError::NotMixedWithin(256));

        // …but it *locally* mixes at β = 2: one side of the bipartition is a
        // valid local-mixing set (odd-step mass is near-uniform on it) — a
        // nuance footnote 5's lazy-walk fix doesn't mention. The accepted
        // set size is exactly n/2.
        let mut cfg2 = AlgoConfig::new(2.0);
        cfg2.max_len = 256;
        let local_simple = local_mixing_time_exact_distributed(&g, 0, &cfg2).unwrap();
        assert_eq!(local_simple.accepted_size, 16);
        assert!(local_simple.ell <= 16, "τ = {}", local_simple.ell);

        // The lazy walk fixes the global case (β = 1) as the paper says.
        cfg.kind = lmt_walks::WalkKind::Lazy;
        let global_lazy = local_mixing_time_exact_distributed(&g, 0, &cfg).unwrap();
        assert!(global_lazy.ell <= 128, "lazy τ = {}", global_lazy.ell);
        // And the approx variant brackets the exact one under lazy walks.
        let approx = local_mixing_time_approx(&g, 0, &cfg).unwrap();
        assert!(global_lazy.ell <= approx.ell && approx.ell < 2 * global_lazy.ell.max(1));
    }

    #[test]
    fn bad_sources_are_errors() {
        let cfg = AlgoConfig::new(2.0);
        let g = gen::cycle(6);
        let err = local_mixing_time_exact_distributed(&g, 9, &cfg).unwrap_err();
        assert_eq!(err, AlgoError::SourceOutOfRange { src: 9, n: 6 });
        // Node 2 of a path plus one isolated node.
        let mut b = lmt_graph::GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g = b.build();
        let err = local_mixing_time_exact_distributed(&g, 2, &cfg).unwrap_err();
        assert_eq!(err, AlgoError::IsolatedSource(2));
    }

    #[test]
    fn exact_respects_max_len() {
        let g = gen::path(32);
        let mut cfg = AlgoConfig::new(1.0);
        cfg.max_len = 5;
        let err = local_mixing_time_exact_distributed(&g, 0, &cfg).unwrap_err();
        assert_eq!(err, AlgoError::NotMixedWithin(5));
    }
}
