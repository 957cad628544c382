//! Distributed **Algorithm 1** (ESTIMATE-RW-PROBABILITY), unweighted and
//! weighted.
//!
//! Per round, every node `u` with non-zero weight sends
//! `nint(w_{t−1}(u)/d(u))` — the nearest multiple of `1/n^c` — to each
//! neighbor; receivers *replace* their weight with the exact integer sum of
//! incoming shares. After `ℓ` rounds each node holds `p̃_ℓ(u)` (Lemma 2:
//! `|p̃_t − p_t| < t·n^{−c}`-grade accuracy).
//!
//! The **weighted** generalization ([`WeightedFloodNode`]) ships a
//! *per-neighbor* share `nint(w_{t−1}(u)·ω(u,v)/Ω(u))` instead, with edge
//! weights quantized once up front
//! ([`lmt_walks::fixed_flood::QuantizedWeights`]) so every share is exact
//! integer arithmetic at the same `n^c` scale — same wire width, same
//! silent-node rule. At unit weights the quantization cancels and the
//! weighted protocol is **message-for-message identical** to the
//! unweighted one; the tests enforce that.
//!
//! Both must agree **bit-for-bit** with their centralized references
//! (`lmt_walks::fixed_flood::{FixedWalk, WeightedFixedWalk}`); the tests
//! enforce that too. The [`FloodGraph`] trait is the dispatch seam
//! `lmt-core`'s Algorithm 2 uses to accept either substrate.

use crate::engine::{Ctx, EngineKind, Metrics, Network, Protocol, RunError};
use crate::message::Payload;
use lmt_graph::{Graph, WalkGraph, WeightedGraph};
use lmt_util::fixed::{FixedQ, FixedScale};
use lmt_walks::fixed_flood::{
    weighted_keep_of, weighted_share_of, FixedWalk, QuantizedWeights, Rounding,
};
use lmt_walks::WalkKind;

/// A probability share: a fixed-point numerator at the run's scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Share {
    /// The numerator of the share (denominator `n^c` implicit).
    pub num: u128,
    /// Wire width in bits (`⌈log₂ n^c⌉`).
    pub width: u32,
}

impl Payload for Share {
    fn encoded_bits(&self) -> u32 {
        self.width
    }
}

/// Per-node state of the flooding walk.
pub struct FloodNode {
    scale: FixedScale,
    steps: u64,
    width: u32,
    kind: WalkKind,
    /// Current weight `w_t(u)`.
    pub w: FixedQ,
}

impl FloodNode {
    fn send_shares(&self, ctx: &mut Ctx<'_, Share>) {
        if self.w.is_zero() {
            return; // Algorithm 1 step 3: only nodes with w ≠ 0 speak.
        }
        let d = ctx.degree();
        if d == 0 {
            return;
        }
        // Shared arithmetic with the centralized reference so the two stay
        // bit-identical (lazy walks ship w/2d and retain w/2, footnote 5).
        let share = FixedWalk::share_of(&self.scale, Rounding::Nearest, self.kind, self.w, d);
        if share.is_zero() {
            return;
        }
        ctx.send_all(Share {
            num: share.numerator(),
            width: self.width,
        });
    }
}

impl Protocol for FloodNode {
    type Msg = Share;

    fn init(&mut self, ctx: &mut Ctx<'_, Share>) {
        if self.steps > 0 {
            self.send_shares(ctx);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Share>, inbox: &[(u32, Share)]) {
        if ctx.round() > self.steps {
            return;
        }
        // w_t(u) = lazy-kept part + Σ incoming shares.
        let mut acc = FixedWalk::keep_of(&self.scale, Rounding::Nearest, self.kind, self.w);
        for (_, s) in inbox {
            acc = self.scale.add(acc, FixedQ::from_numerator(s.num));
        }
        self.w = acc;
        if ctx.round() < self.steps {
            self.send_shares(ctx);
        }
    }
}

/// Run Algorithm 1 for `ell` steps from `src` at scale `n^c`.
///
/// Returns each node's `p̃_ell` (as fixed-point values plus the scale) and
/// the CONGEST metrics (`rounds == ell`).
pub fn estimate_rw_probability(
    g: &Graph,
    src: usize,
    ell: u64,
    c: u32,
    budget_bits: u32,
    engine: EngineKind,
    seed: u64,
) -> Result<(Vec<FixedQ>, FixedScale, Metrics), RunError> {
    estimate_rw_probability_kind(g, src, ell, c, WalkKind::Simple, budget_bits, engine, seed)
}

/// [`estimate_rw_probability`] with an explicit walk kind (lazy for
/// bipartite graphs, footnote 5).
#[allow(clippy::too_many_arguments)]
pub fn estimate_rw_probability_kind(
    g: &Graph,
    src: usize,
    ell: u64,
    c: u32,
    kind: WalkKind,
    budget_bits: u32,
    engine: EngineKind,
    seed: u64,
) -> Result<(Vec<FixedQ>, FixedScale, Metrics), RunError> {
    estimate_rw_probability_faulty(g, src, ell, c, kind, budget_bits, engine, seed, None)
}

/// [`estimate_rw_probability_kind`] on a faulty network. Dropped shares are
/// simply lost mass: the per-node estimates no longer sum to the scale's
/// one, which is exactly the robustness question the fault sweeps measure.
/// A trivial (or absent) plan is bit-identical to the fault-free entry
/// points.
#[allow(clippy::too_many_arguments)]
pub fn estimate_rw_probability_faulty(
    g: &Graph,
    src: usize,
    ell: u64,
    c: u32,
    kind: WalkKind,
    budget_bits: u32,
    engine: EngineKind,
    seed: u64,
    plan: Option<crate::fault::FaultPlan>,
) -> Result<(Vec<FixedQ>, FixedScale, Metrics), RunError> {
    assert!(src < g.n(), "flood source out of range");
    let scale = FixedScale::new(g.n(), c);
    let width = scale.payload_bits();
    assert!(
        width <= budget_bits,
        "scale n^{c} needs {width}-bit shares but the edge budget is {budget_bits}; \
         raise the budget multiplier (the paper's O(log n) hides the factor c)"
    );
    let make = |id: usize| FloodNode {
        scale,
        steps: ell,
        width,
        kind,
        w: if id == src { scale.one() } else { scale.zero() },
    };
    let mut net = match plan {
        Some(plan) => Network::with_faults(g, make, budget_bits, engine, seed, plan),
        None => Network::new(g, make, budget_bits, engine, seed),
    };
    net.run_rounds(ell)?;
    let weights = net.node_states().map(|s| s.w).collect();
    Ok((weights, scale, net.metrics()))
}

/// Per-node state of the **weighted** flooding walk.
///
/// Each node owns its CSR-aligned quantized weight row (its "initial
/// knowledge" in the model of §1.1: the weights of its incident edges), so
/// a round is pure local computation plus per-neighbor sends in ascending
/// adjacency order — the routing fast path; no outbox ever needs
/// normalization, exactly like the unweighted broadcast.
pub struct WeightedFloodNode {
    scale: FixedScale,
    steps: u64,
    width: u32,
    kind: WalkKind,
    /// Quantized weights of this node's incident edges, neighbor-ascending.
    row: Vec<u64>,
    /// Quantized self-loop weight.
    loopq: u64,
    /// Quantized walk degree `Ωq(u)`.
    wdegq: u128,
    /// Current weight `w_t(u)`.
    pub w: FixedQ,
}

impl WeightedFloodNode {
    fn send_shares(&self, ctx: &mut Ctx<'_, Share>) {
        if self.w.is_zero() {
            return; // silent-node rule, as in the unweighted protocol
        }
        if self.wdegq == 0 {
            return;
        }
        for i in 0..self.row.len() {
            let share = weighted_share_of(&self.scale, self.kind, self.w, self.row[i], self.wdegq);
            if share.is_zero() {
                continue;
            }
            let v = ctx.neighbor(i);
            ctx.send(
                v,
                Share {
                    num: share.numerator(),
                    width: self.width,
                },
            );
        }
    }
}

impl Protocol for WeightedFloodNode {
    type Msg = Share;

    fn init(&mut self, ctx: &mut Ctx<'_, Share>) {
        if self.steps > 0 {
            self.send_shares(ctx);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Share>, inbox: &[(u32, Share)]) {
        if ctx.round() > self.steps {
            return;
        }
        // w_t(u) = loop/lazy-kept part + Σ incoming shares.
        let mut acc = weighted_keep_of(&self.scale, self.kind, self.w, self.loopq, self.wdegq);
        for (_, s) in inbox {
            acc = self.scale.add(acc, FixedQ::from_numerator(s.num));
        }
        self.w = acc;
        if ctx.round() < self.steps {
            self.send_shares(ctx);
        }
    }
}

/// Run the weighted Algorithm 1 for `ell` steps from `src` at scale `n^c`:
/// transition probability ∝ (quantized) edge weight, self-loop weights
/// retained locally.
///
/// Returns each node's `p̃_ell` and the CONGEST metrics (`rounds == ell`).
/// At unit weights this is bit-identical — weights, messages, metrics — to
/// [`estimate_rw_probability_kind`].
///
/// # Panics
/// Panics if `src` is out of range or isolated (zero walk degree): the
/// flood would silently lose all mass, the failure mode the walk stack's
/// degree-0 boundary checks exist to prevent.
#[allow(clippy::too_many_arguments)]
pub fn estimate_rw_probability_weighted(
    wg: &WeightedGraph,
    src: usize,
    ell: u64,
    c: u32,
    kind: WalkKind,
    budget_bits: u32,
    engine: EngineKind,
    seed: u64,
) -> Result<(Vec<FixedQ>, FixedScale, Metrics), RunError> {
    assert!(src < wg.n(), "flood source out of range");
    assert!(
        wg.weighted_degree(src) > 0.0,
        "flood source {src} is an isolated node (degree 0); its mass could never move"
    );
    let scale = FixedScale::new(wg.n(), c);
    let width = scale.payload_bits();
    assert!(
        width <= budget_bits,
        "scale n^{c} needs {width}-bit shares but the edge budget is {budget_bits}; \
         raise the budget multiplier (the paper's O(log n) hides the factor c)"
    );
    let qw = QuantizedWeights::new(wg);
    let topo = wg.topology();
    let mut net = Network::new(
        topo,
        |id| WeightedFloodNode {
            scale,
            steps: ell,
            width,
            kind,
            row: qw.row(topo, id).to_vec(),
            loopq: qw.loopq[id],
            wdegq: qw.wdegq[id],
            w: if id == src { scale.one() } else { scale.zero() },
        },
        budget_bits,
        engine,
        seed,
    );
    net.run_rounds(ell)?;
    let weights = net.node_states().map(|s| s.w).collect();
    Ok((weights, scale, net.metrics()))
}

/// The dispatch seam `lmt-core` uses to run Algorithm 2 on either walk
/// substrate: everything topology-shaped (BFS trees, the binary-search
/// convergecast) goes through [`WalkGraph::topology`], and the one
/// weight-aware phase — the Algorithm 1 flood — dispatches here.
pub trait FloodGraph: WalkGraph {
    /// Run Algorithm 1 (the substrate-appropriate variant) for `ell` steps
    /// from `src` at scale `n^c`; see [`estimate_rw_probability_kind`] /
    /// [`estimate_rw_probability_weighted`].
    #[allow(clippy::too_many_arguments)]
    fn estimate_flood(
        &self,
        src: usize,
        ell: u64,
        c: u32,
        kind: WalkKind,
        budget_bits: u32,
        engine: EngineKind,
        seed: u64,
    ) -> Result<(Vec<FixedQ>, FixedScale, Metrics), RunError>;
}

impl FloodGraph for Graph {
    fn estimate_flood(
        &self,
        src: usize,
        ell: u64,
        c: u32,
        kind: WalkKind,
        budget_bits: u32,
        engine: EngineKind,
        seed: u64,
    ) -> Result<(Vec<FixedQ>, FixedScale, Metrics), RunError> {
        estimate_rw_probability_kind(self, src, ell, c, kind, budget_bits, engine, seed)
    }
}

impl FloodGraph for WeightedGraph {
    fn estimate_flood(
        &self,
        src: usize,
        ell: u64,
        c: u32,
        kind: WalkKind,
        budget_bits: u32,
        engine: EngineKind,
        seed: u64,
    ) -> Result<(Vec<FixedQ>, FixedScale, Metrics), RunError> {
        estimate_rw_probability_weighted(self, src, ell, c, kind, budget_bits, engine, seed)
    }
}

impl FloodGraph for lmt_graph::ChurnGraph {
    /// The flood over a churning graph runs on its **current** topology:
    /// each call floods the post-edit CSR, exactly as if a static graph of
    /// that topology had been handed in. At zero churn this
    /// is bit-identical — weights, scale, metrics — to
    /// [`FloodGraph::estimate_flood`] on the base [`Graph`].
    fn estimate_flood(
        &self,
        src: usize,
        ell: u64,
        c: u32,
        kind: WalkKind,
        budget_bits: u32,
        engine: EngineKind,
        seed: u64,
    ) -> Result<(Vec<FixedQ>, FixedScale, Metrics), RunError> {
        estimate_rw_probability_kind(self.topology(), src, ell, c, kind, budget_bits, engine, seed)
    }
}

/// An Algorithm 1 flood that advances one step at a time.
///
/// The exact algorithm of §3.2 interleaves one walk step with a full
/// existence check per length `ℓ`; this wrapper keeps the flood network
/// alive between steps ("we resume the deterministic flooding technique
/// from the last step", §3.2).
pub struct IncrementalFlood<'g> {
    net: Network<'g, FloodNode>,
    scale: FixedScale,
    ell: u64,
}

impl<'g> IncrementalFlood<'g> {
    /// Set up the flood at `ℓ = 0` (point mass at `src`, simple walk).
    pub fn new(
        g: &'g Graph,
        src: usize,
        c: u32,
        budget_bits: u32,
        engine: EngineKind,
        seed: u64,
    ) -> Self {
        Self::with_kind(g, src, c, WalkKind::Simple, budget_bits, engine, seed)
    }

    /// Set up with an explicit walk kind (lazy for bipartite graphs).
    pub fn with_kind(
        g: &'g Graph,
        src: usize,
        c: u32,
        kind: WalkKind,
        budget_bits: u32,
        engine: EngineKind,
        seed: u64,
    ) -> Self {
        assert!(src < g.n(), "flood source out of range");
        let scale = FixedScale::new(g.n(), c);
        let width = scale.payload_bits();
        assert!(
            width <= budget_bits,
            "scale n^{c} needs {width}-bit shares but the edge budget is {budget_bits}"
        );
        let net = Network::new(
            g,
            |id| FloodNode {
                scale,
                steps: u64::MAX, // keep flooding; the caller decides when to stop
                width,
                kind,
                w: if id == src { scale.one() } else { scale.zero() },
            },
            budget_bits,
            engine,
            seed,
        );
        IncrementalFlood { net, scale, ell: 0 }
    }

    /// Advance to `p̃_{ℓ+1}` (one CONGEST round).
    pub fn advance(&mut self) -> Result<(), RunError> {
        self.net.step()?;
        self.ell += 1;
        Ok(())
    }

    /// Current length `ℓ`.
    pub fn ell(&self) -> u64 {
        self.ell
    }

    /// The scale in use.
    pub fn scale(&self) -> FixedScale {
        self.scale
    }

    /// Current per-node weights `p̃_ℓ`.
    pub fn weights(&self) -> Vec<FixedQ> {
        self.net.node_states().map(|s| s.w).collect()
    }

    /// Metrics of the flood so far (`rounds == ℓ`).
    pub fn metrics(&self) -> Metrics {
        self.net.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::olog_budget;
    use lmt_graph::gen;

    fn budget(n: usize) -> u32 {
        olog_budget(n, 8)
    }

    #[test]
    fn bit_identical_to_centralized_reference() {
        let (g, _) = gen::barbell(3, 5);
        for ell in [0u64, 1, 2, 7, 40] {
            let (w, _, m) = estimate_rw_probability(
                &g,
                2,
                ell,
                6,
                budget(g.n()),
                EngineKind::Sequential,
                11,
            )
            .unwrap();
            let mut reference = FixedWalk::new(&g, 2, 6, Rounding::Nearest);
            reference.run(&g, ell as usize);
            assert_eq!(w, reference.w, "ell={ell}");
            assert_eq!(m.rounds, ell);
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let g = gen::random_regular(64, 4, 5);
        let run = |kind| {
            estimate_rw_probability(&g, 0, 25, 6, budget(64), kind, 3).unwrap()
        };
        let (a, _, ma) = run(EngineKind::Sequential);
        let (b, _, mb) = run(EngineKind::Parallel);
        assert_eq!(a, b);
        assert_eq!(ma, mb);
    }

    #[test]
    fn rounds_equal_ell() {
        let g = gen::cycle(12);
        let (_, _, m) =
            estimate_rw_probability(&g, 0, 17, 6, budget(12), EngineKind::Sequential, 1).unwrap();
        assert_eq!(m.rounds, 17);
    }

    #[test]
    fn share_width_is_o_log_n() {
        let g = gen::complete(64);
        let (_, scale, m) =
            estimate_rw_probability(&g, 0, 3, 6, budget(64), EngineKind::Sequential, 1).unwrap();
        // 64^6 = 2^36 → 37-bit payloads; budget 8·6 = 48.
        assert_eq!(scale.payload_bits(), 37);
        assert!(m.max_edge_bits <= 37);
    }

    #[test]
    fn budget_too_small_is_rejected_up_front() {
        let g = gen::cycle(8);
        let err = std::panic::catch_unwind(|| {
            estimate_rw_probability(&g, 0, 1, 6, 4, EngineKind::Sequential, 1)
        });
        assert!(err.is_err());
    }

    #[test]
    fn incremental_matches_batch() {
        let g = gen::grid(4, 5);
        let mut inc = IncrementalFlood::new(&g, 3, 6, budget(20), EngineKind::Sequential, 2);
        for ell in 1..=15u64 {
            inc.advance().unwrap();
            let (batch, _, _) =
                estimate_rw_probability(&g, 3, ell, 6, budget(20), EngineKind::Sequential, 9)
                    .unwrap();
            assert_eq!(inc.weights(), batch, "ell={ell}");
            assert_eq!(inc.ell(), ell);
        }
        assert_eq!(inc.metrics().rounds, 15);
    }

    #[test]
    fn zero_steps_keeps_point_mass() {
        let g = gen::path(4);
        let (w, scale, _) =
            estimate_rw_probability(&g, 1, 0, 6, budget(4), EngineKind::Sequential, 1).unwrap();
        assert_eq!(w[1], scale.one());
        assert!(w[0].is_zero() && w[2].is_zero());
    }

    // -----------------------------------------------------------------
    // Weighted flood (ISSUE 4).
    // -----------------------------------------------------------------

    #[test]
    fn weighted_unit_flood_identical_to_unweighted_protocol() {
        // The tentpole's bit-for-bit contract at the substrate level:
        // weights, metrics (messages, bits, max edge load) — everything.
        let (g, _) = gen::barbell(3, 5);
        let wg = lmt_graph::WeightedGraph::unit(g.clone());
        for kind in [lmt_walks::WalkKind::Simple, lmt_walks::WalkKind::Lazy] {
            for ell in [0u64, 1, 2, 7, 40] {
                let (a, _, ma) = estimate_rw_probability_kind(
                    &g, 2, ell, 6, kind, budget(g.n()), EngineKind::Sequential, 11,
                )
                .unwrap();
                let (b, _, mb) = estimate_rw_probability_weighted(
                    &wg, 2, ell, 6, kind, budget(g.n()), EngineKind::Sequential, 11,
                )
                .unwrap();
                assert_eq!(a, b, "kind={kind:?} ell={ell}");
                assert_eq!(ma, mb, "kind={kind:?} ell={ell}");
            }
        }
    }

    #[test]
    fn weighted_flood_bit_identical_to_centralized_reference() {
        let (wg, _) = gen::weighted_barbell(3, 5, 0.5);
        for kind in [lmt_walks::WalkKind::Simple, lmt_walks::WalkKind::Lazy] {
            for ell in [0u64, 1, 2, 7, 40] {
                let (w, _, m) = estimate_rw_probability_weighted(
                    &wg, 2, ell, 6, kind, budget(wg.n()), EngineKind::Sequential, 11,
                )
                .unwrap();
                let mut reference =
                    lmt_walks::fixed_flood::WeightedFixedWalk::new(&wg, 2, 6, kind);
                reference.run(&wg, ell as usize);
                assert_eq!(w, reference.w, "kind={kind:?} ell={ell}");
                assert_eq!(m.rounds, ell);
            }
        }
    }

    #[test]
    fn weighted_flood_parallel_equals_sequential() {
        let wg = lmt_graph::gen::weighted::random_weights(
            gen::random_regular(64, 4, 5),
            0.5,
            2.0,
            9,
        );
        let run = |engine| {
            estimate_rw_probability_weighted(
                &wg,
                0,
                25,
                6,
                lmt_walks::WalkKind::Simple,
                budget(64),
                engine,
                3,
            )
            .unwrap()
        };
        let (a, _, ma) = run(EngineKind::Sequential);
        let (b, _, mb) = run(EngineKind::Parallel);
        assert_eq!(a, b);
        assert_eq!(ma, mb);
    }

    #[test]
    fn flood_graph_trait_dispatches_per_substrate() {
        use super::FloodGraph;
        let g = gen::cycle(8);
        let wg = lmt_graph::gen::weighted::uniform_weights(g.clone(), 1.0);
        let (a, _, ma) = g
            .estimate_flood(
                0, 5, 6, lmt_walks::WalkKind::Lazy, budget(8), EngineKind::Sequential, 2,
            )
            .unwrap();
        let (b, _, mb) = wg
            .estimate_flood(
                0, 5, 6, lmt_walks::WalkKind::Lazy, budget(8), EngineKind::Sequential, 2,
            )
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(ma, mb);
    }

    #[test]
    fn churn_graph_flood_zero_churn_is_bit_identical() {
        use super::FloodGraph;
        let (g, _) = gen::barbell(3, 5);
        let cg = lmt_graph::ChurnGraph::new(g.clone());
        for ell in [0u64, 1, 7, 40] {
            let (a, sa, ma) = g
                .estimate_flood(
                    2, ell, 6, lmt_walks::WalkKind::Simple, budget(g.n()),
                    EngineKind::Sequential, 11,
                )
                .unwrap();
            let (b, sb, mb) = cg
                .estimate_flood(
                    2, ell, 6, lmt_walks::WalkKind::Simple, budget(g.n()),
                    EngineKind::Sequential, 11,
                )
                .unwrap();
            assert_eq!(a, b, "ell={ell}");
            assert_eq!(sa.denominator(), sb.denominator());
            assert_eq!(ma, mb, "ell={ell}");
        }
    }

    #[test]
    fn churn_graph_flood_tracks_edits() {
        use super::FloodGraph;
        use lmt_graph::EdgeEdit;
        // After an edit, the churn flood equals a fresh flood on a static
        // graph of the post-edit topology.
        let g = gen::grid(4, 4);
        let mut cg = lmt_graph::ChurnGraph::new(g.clone());
        cg.apply(&[EdgeEdit::delete(0, 1), EdgeEdit::insert(0, 5)]).unwrap();
        let mut b = lmt_graph::GraphBuilder::new(g.n());
        b.extend_edges(cg.topology().edges());
        let fresh = b.build();
        let run = |fg: &dyn FloodGraph| {
            fg.estimate_flood(
                3, 9, 6, lmt_walks::WalkKind::Simple, budget(g.n()),
                EngineKind::Sequential, 4,
            )
            .unwrap()
        };
        let (want, _, mw) = run(&fresh);
        let (got, _, mg) = run(&cg);
        assert_eq!(got, want);
        assert_eq!(mg, mw);
    }

    #[test]
    #[should_panic(expected = "isolated node")]
    fn weighted_flood_rejects_isolated_source() {
        // Consistent with the walk stack's degree-0 boundary sweep: an
        // isolated source would silently drain all mass.
        let mut b = lmt_graph::WeightedGraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        let wg = b.build();
        let _ = estimate_rw_probability_weighted(
            &wg,
            2,
            5,
            6,
            lmt_walks::WalkKind::Simple,
            budget(3),
            EngineKind::Sequential,
            1,
        );
    }

    #[test]
    fn weighted_flood_self_loops_retain_mass() {
        // A node with a heavy loop keeps most mass locally under the
        // simple weighted walk.
        let mut b = lmt_graph::WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_loop(0, 3.0);
        let wg = b.build();
        let (w, scale, _) = estimate_rw_probability_weighted(
            &wg,
            0,
            1,
            6,
            lmt_walks::WalkKind::Simple,
            budget(2),
            EngineKind::Sequential,
            1,
        )
        .unwrap();
        // One step: keep 3/4, ship 1/4.
        assert_eq!(w[0].numerator(), 3 * scale.denominator() / 4);
        assert_eq!(w[1].numerator(), scale.denominator() / 4);
    }
}
