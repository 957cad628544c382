//! **Algorithm 2 (LOCAL-MIXING-TIME)** — the 2-approximation under the
//! Lemma 4 assumption `τ_s(β,ε)·φ(S) = o(1)` (Theorem 1).
//!
//! Per doubling length `ℓ = 1, 2, 4, …`:
//!
//! 1. build a BFS tree of depth `min{D, ℓ}` from the source (step 3);
//! 2. run Algorithm 1 for `ℓ` rounds so every node holds `p̃_ℓ(u)` (step 4);
//! 3. for each `R` on the `(1+ε)` grid (steps 5–12): every node locally
//!    computes `x_u = |p̃_ℓ(u) − 1/R|` in fixed point, the source learns the
//!    sum of the `R` smallest `x_u` by distributed binary search, and accepts
//!    if the sum is `< 4ε` (the relaxed test of Lemma 3 that covers the
//!    off-grid set sizes).
//!
//! No phase runs message by message on the CONGEST engine. The BFS is a
//! level-synchronous sweep, the flood steps the fixed-point walk and
//! charges one message per nonzero share, and the binary search runs on one
//! flat layout of the tree per `ℓ` with closed-form convergecast costs.
//! Each charges exactly the rounds, messages and bits of its
//! message-passing protocol, so the returned metrics are the algorithm's
//! true round/bit cost.
//!
//! Nodes beyond distance `ℓ` hold `p̃_ℓ = 0` and sit outside the depth-
//! limited tree; their common difference value `1/R` is folded in
//! arithmetically at the source (see `lmt_congest::binsearch::Outside` — the
//! paper leaves this bookkeeping implicit).

use crate::config::AlgoConfig;
use lmt_congest::bfs::{build_bfs_tree, BfsTree};
use lmt_congest::binsearch::{Outside, RSmallestSearch};
use lmt_congest::flood::FloodGraph;
use lmt_congest::{Metrics, RunError};
use lmt_graph::{Graph, WalkGraph};
use lmt_util::fixed::FixedScale;

/// Diagnostics for one doubling iteration.
#[derive(Clone, Copy, Debug)]
pub struct IterationLog {
    /// Walk length `ℓ` tried.
    pub ell: u64,
    /// Depth of the BFS tree built (`min{D, ℓ}` behaviour).
    pub bfs_depth: u32,
    /// Nodes inside the tree.
    pub tree_reached: usize,
    /// Set sizes inspected before acceptance / exhaustion.
    pub sizes_checked: usize,
    /// Rounds spent in this iteration (all phases).
    pub rounds: u64,
}

/// Output of Algorithm 2.
#[derive(Clone, Debug)]
pub struct ApproxResult {
    /// The accepted length — a 2-approximation of `τ_s(β, ε)` under the
    /// Lemma 4 assumption.
    pub ell: u64,
    /// The set size `R` at which the `4ε` test passed.
    pub accepted_size: usize,
    /// The accepted sum `Σ_R-smallest x_u` (as `f64`, for reporting).
    pub accepted_sum: f64,
    /// Total CONGEST cost across all phases.
    pub metrics: Metrics,
    /// Per-iteration diagnostics.
    pub iterations: Vec<IterationLog>,
}

/// Failure modes of the distributed algorithms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlgoError {
    /// Substrate failure (budget violation or round-limit).
    Congest(RunError),
    /// No acceptance up to the configured maximum length (e.g. a simple walk
    /// on a bipartite graph, or `max_len` set too low).
    NotMixedWithin(u64),
    /// The source is not a node of the graph.
    SourceOutOfRange {
        /// The requested source.
        src: usize,
        /// Nodes in the graph.
        n: usize,
    },
    /// The source has no edge to walk (degree 0), so Algorithm 1's flood
    /// could never move its mass.
    IsolatedSource(usize),
}

impl From<RunError> for AlgoError {
    fn from(e: RunError) -> Self {
        AlgoError::Congest(e)
    }
}

impl std::fmt::Display for AlgoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgoError::Congest(e) => write!(f, "CONGEST substrate error: {e}"),
            AlgoError::NotMixedWithin(l) => {
                write!(f, "no local-mixing acceptance up to length {l}")
            }
            AlgoError::SourceOutOfRange { src, n } => {
                write!(f, "source {src} out of range for a {n}-node graph")
            }
            AlgoError::IsolatedSource(src) => {
                write!(
                    f,
                    "source {src} is isolated (degree 0); no walk can leave it"
                )
            }
        }
    }
}

impl std::error::Error for AlgoError {}

/// The source check of every distributed entry point, made before any
/// phase runs: the source must be a node, and one the flood can walk from.
pub(crate) fn check_source<G: WalkGraph + ?Sized>(g: &G, src: usize) -> Result<(), AlgoError> {
    if src >= g.n() {
        return Err(AlgoError::SourceOutOfRange { src, n: g.n() });
    }
    if g.walk_degree(src) > 0.0 {
        Ok(())
    } else {
        Err(AlgoError::IsolatedSource(src))
    }
}

/// One grid pass (steps 5–12 of Algorithm 2) at a fixed length `ℓ`:
/// returns `Some((R, sum))` on acceptance. Shared with the exact variant.
/// The tree is laid out once and serves every grid size's search.
#[allow(clippy::too_many_arguments)]
pub(crate) fn grid_check(
    g: &Graph,
    tree: &BfsTree,
    weights: &[lmt_util::fixed::FixedQ],
    scale: FixedScale,
    cfg: &AlgoConfig,
    budget: u32,
    seed: u64,
    metrics: &mut Metrics,
    sizes_checked: &mut usize,
) -> Result<Option<(usize, f64)>, RunError> {
    let n = g.n();
    let four_eps = scale.from_f64(4.0 * cfg.eps);
    let value_width = scale.payload_bits();
    let outside_count = (n - tree.reached()) as u128;
    let mut search = RSmallestSearch::new(tree, budget);
    for (gi, &r) in cfg.size_grid(n).iter().enumerate() {
        *sizes_checked += 1;
        let target = scale.recip(r);
        let outside = (outside_count > 0).then_some(Outside {
            count: outside_count,
            value: target.numerator(), // |0 − 1/R|
        });
        // Local computation at each node: x_u = |p̃_ℓ(u) − 1/R|.
        let (res, m) = search.run(
            |u| scale.abs_diff(weights[u], target).numerator(),
            r,
            value_width,
            cfg.tie,
            outside,
            seed.wrapping_add(gi as u64),
        )?;
        metrics.absorb(&m);
        if res.sum < four_eps.numerator() {
            return Ok(Some((r, res.sum as f64 / scale.denominator() as f64)));
        }
    }
    Ok(None)
}

/// Run Algorithm 2 from `src`.
///
/// Generic over the [`FloodGraph`] seam: on a plain [`Graph`] this is the
/// paper's algorithm unchanged (and bit-identical to the pre-trait code);
/// on a [`lmt_graph::WeightedGraph`] the Algorithm 1 phase floods weighted
/// shares (`∝` quantized edge weight) while the BFS tree and the
/// binary-search convergecast run on the shared topology. The flat `1/R`
/// acceptance target is exact for weight-regular graphs and an
/// approximation for near-regular ones, mirroring the unweighted §3
/// regularity assumption.
///
/// A source outside the graph or without an edge to walk is an error
/// ([`AlgoError::SourceOutOfRange`], [`AlgoError::IsolatedSource`]), not a
/// panic.
pub fn local_mixing_time_approx<G: FloodGraph + ?Sized>(
    g: &G,
    src: usize,
    cfg: &AlgoConfig,
) -> Result<ApproxResult, AlgoError> {
    cfg.validate();
    check_source(g, src)?;
    let topo = g.topology();
    let budget = cfg.budget_bits(g.n());
    let mut metrics = Metrics::default();
    let mut iterations = Vec::new();

    let mut ell: u64 = 1;
    while ell <= cfg.max_len {
        let rounds_before = metrics.rounds;

        // Step 3: BFS tree of depth min{D, ℓ}.
        let depth_limit = u32::try_from(ell).unwrap_or(u32::MAX);
        let (tree, m_bfs) = build_bfs_tree(
            topo,
            src,
            depth_limit,
            budget,
            cfg.engine,
            cfg.seed.wrapping_add(ell),
        )?;
        metrics.absorb(&m_bfs);

        // Step 4: Algorithm 1 for ℓ rounds (per-substrate dispatch).
        let (weights, scale, m_flood) = g.estimate_flood(
            src,
            ell,
            cfg.c,
            cfg.kind,
            budget,
            cfg.engine,
            cfg.seed.wrapping_add(0x1000 + ell),
        )?;
        metrics.absorb(&m_flood);

        // Steps 5–12: the (1+ε) size grid with the 4ε acceptance test.
        let mut sizes_checked = 0;
        let accepted = grid_check(
            topo,
            &tree,
            &weights,
            scale,
            cfg,
            budget,
            cfg.seed.wrapping_add(0x2000 + ell * 0x100),
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
            return Ok(ApproxResult {
                ell,
                accepted_size: r,
                accepted_sum: sum,
                metrics,
                iterations,
            });
        }
        ell *= 2;
    }
    Err(AlgoError::NotMixedWithin(cfg.max_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmt_graph::gen;

    #[test]
    fn complete_graph_accepts_at_one_step() {
        let g = gen::complete(32);
        let cfg = AlgoConfig::new(4.0);
        let r = local_mixing_time_approx(&g, 0, &cfg).unwrap();
        assert_eq!(r.ell, 1);
        assert!(r.accepted_sum < 4.0 * cfg.eps);
        assert_eq!(r.iterations.len(), 1);
    }

    #[test]
    fn regular_clique_ring_accepts_quickly() {
        let (g, _) = gen::ring_of_cliques_regular(4, 16);
        let cfg = AlgoConfig::new(4.0);
        let r = local_mixing_time_approx(&g, 5, &cfg).unwrap();
        // Ground truth τ_s is 2–3 here; Algorithm 2 returns ≤ 2·τ on the
        // doubling schedule.
        assert!(r.ell <= 8, "ell = {}", r.ell);
        assert!(r.accepted_size >= 16);
    }

    #[test]
    fn rounds_metrics_accumulate_across_iterations() {
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let cfg = AlgoConfig::new(4.0);
        let r = local_mixing_time_approx(&g, 0, &cfg).unwrap();
        let per_iter: u64 = r.iterations.iter().map(|i| i.rounds).sum();
        assert_eq!(per_iter, r.metrics.rounds);
        assert!(r.metrics.rounds > 0);
        assert!(r.metrics.messages > 0);
    }

    #[test]
    fn max_len_exhaustion_reported() {
        // β = 1 on a long path: τ is in the thousands, cap at 8.
        let g = gen::path(64);
        let mut cfg = AlgoConfig::new(1.0);
        cfg.max_len = 8;
        let err = local_mixing_time_approx(&g, 0, &cfg).unwrap_err();
        assert_eq!(err, AlgoError::NotMixedWithin(8));
    }

    #[test]
    fn bad_sources_are_errors() {
        let g = gen::path(4);
        let cfg = AlgoConfig::new(2.0);
        let err = local_mixing_time_approx(&g, 4, &cfg).unwrap_err();
        assert_eq!(err, AlgoError::SourceOutOfRange { src: 4, n: 4 });
        assert_eq!(err.to_string(), "source 4 out of range for a 4-node graph");
        // One isolated node, plain and weighted.
        let lone = lmt_graph::GraphBuilder::new(1).build();
        let err = local_mixing_time_approx(&lone, 0, &cfg).unwrap_err();
        assert_eq!(err, AlgoError::IsolatedSource(0));
        assert!(err.to_string().contains("isolated"), "{err}");
        let weighted = lmt_graph::WeightedGraph::unit(lone);
        let err = local_mixing_time_approx(&weighted, 0, &cfg).unwrap_err();
        assert_eq!(err, AlgoError::IsolatedSource(0));
    }

    #[test]
    fn parallel_engine_identical_result() {
        let (g, _) = gen::ring_of_cliques_regular(3, 8);
        let mut cfg = AlgoConfig::new(3.0);
        let a = local_mixing_time_approx(&g, 2, &cfg).unwrap();
        cfg.engine = lmt_congest::EngineKind::Parallel;
        let b = local_mixing_time_approx(&g, 2, &cfg).unwrap();
        assert_eq!(a.ell, b.ell);
        assert_eq!(a.accepted_size, b.accepted_size);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn weighted_unit_graph_identical_to_unweighted() {
        // End-to-end Algorithm 2 on the weighted substrate with unit
        // weights: accepted length, set size, sum, and every metric must
        // match the unweighted run exactly.
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let wg = lmt_graph::WeightedGraph::unit(g.clone());
        let cfg = AlgoConfig::new(4.0);
        let a = local_mixing_time_approx(&g, 5, &cfg).unwrap();
        let b = local_mixing_time_approx(&wg, 5, &cfg).unwrap();
        assert_eq!(a.ell, b.ell);
        assert_eq!(a.accepted_size, b.accepted_size);
        assert_eq!(a.accepted_sum.to_bits(), b.accepted_sum.to_bits());
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn weighted_uniform_scaling_is_invisible_to_the_walk() {
        // The walk sees weight *ratios* only: uniform weight 3 must accept
        // at the same length/size as unit weight (shares differ by at most
        // quantization noise, which uniform scaling cancels exactly).
        let (g, _) = gen::ring_of_cliques_regular(3, 8);
        let unit = lmt_graph::WeightedGraph::unit(g.clone());
        let scaled = lmt_graph::gen::weighted::uniform_weights(g, 3.0);
        let cfg = AlgoConfig::new(3.0);
        let a = local_mixing_time_approx(&unit, 2, &cfg).unwrap();
        let b = local_mixing_time_approx(&scaled, 2, &cfg).unwrap();
        assert_eq!(a.ell, b.ell);
        assert_eq!(a.accepted_size, b.accepted_size);
    }
}
