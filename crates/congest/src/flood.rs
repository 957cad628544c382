//! Distributed **Algorithm 1** (ESTIMATE-RW-PROBABILITY), unweighted and
//! weighted.
//!
//! Per round, every node `u` with non-zero weight sends
//! `nint(w_{t−1}(u)/d(u))` — the nearest multiple of `1/n^c` — to each
//! neighbor; receivers *replace* their weight with the exact integer sum of
//! incoming shares. After `ℓ` rounds each node holds `p̃_ℓ(u)` (Lemma 2:
//! `|p̃_t − p_t| < t·n^{−c}`-grade accuracy).
//!
//! On a weighted graph the same [`FloodNode`] ships a
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
//! enforce that too.
//!
//! There is one one-shot entry point, [`FloodGraph::estimate_flood`],
//! implemented for [`Graph`], [`WeightedGraph`] and
//! [`lmt_graph::ChurnGraph`] (which floods its current topology); it is
//! also the seam `lmt-core`'s Algorithm 2 dispatches through.
//! [`IncrementalFlood`] keeps an unweighted flood alive one round at a
//! time for the exact algorithm of §3.2. Every set-up shares one check: the
//! source must be in range and not isolated, and `n^c` must fit the edge
//! budget.

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

/// Per-node state of the flooding walk, unweighted or weighted.
pub struct FloodNode {
    scale: FixedScale,
    steps: u64,
    width: u32,
    kind: WalkKind,
    /// `None` on an unweighted graph.
    weights: Option<EdgeWeights>,
    /// Current weight `w_t(u)`.
    pub w: FixedQ,
}

/// A weighted node's quantized view of its edges — its "initial knowledge"
/// in the model of §1.1. The row is CSR-aligned, so the per-neighbor sends
/// go out in ascending adjacency order (the routing fast path, like the
/// unweighted broadcast).
struct EdgeWeights {
    /// Quantized weights of the incident edges, neighbor-ascending.
    row: Vec<u64>,
    /// Quantized self-loop weight.
    loopq: u64,
    /// Quantized walk degree `Ωq(u)`.
    wdegq: u128,
}

impl FloodNode {
    /// A node of a flood that runs `steps` rounds, holding all the mass iff
    /// `is_src`.
    fn start(
        scale: FixedScale,
        steps: u64,
        kind: WalkKind,
        weights: Option<EdgeWeights>,
        is_src: bool,
    ) -> Self {
        FloodNode {
            scale,
            steps,
            width: scale.payload_bits(),
            kind,
            weights,
            w: if is_src { scale.one() } else { scale.zero() },
        }
    }

    // Both rules share their arithmetic with the centralized references
    // (`FixedWalk`, `WeightedFixedWalk`), so the two stay bit-identical.
    fn send_shares(&self, ctx: &mut Ctx<'_, Share>) {
        if self.w.is_zero() {
            return; // Algorithm 1 step 3: only nodes with w ≠ 0 speak.
        }
        let msg = |share: FixedQ| Share {
            num: share.numerator(),
            width: self.width,
        };
        match &self.weights {
            None => {
                let d = ctx.degree();
                if d == 0 {
                    return;
                }
                // Lazy walks ship w/2d and retain w/2 (footnote 5).
                let share =
                    FixedWalk::share_of(&self.scale, Rounding::Nearest, self.kind, self.w, d);
                if !share.is_zero() {
                    ctx.send_all(msg(share));
                }
            }
            Some(ew) => {
                for (i, &wq) in ew.row.iter().enumerate() {
                    let share = weighted_share_of(&self.scale, self.kind, self.w, wq, ew.wdegq);
                    if !share.is_zero() {
                        let v = ctx.neighbor(i);
                        ctx.send(v, msg(share));
                    }
                }
            }
        }
    }

    /// The lazy- (and self-loop-) retained part of `w`.
    fn keep(&self) -> FixedQ {
        match &self.weights {
            None => FixedWalk::keep_of(&self.scale, Rounding::Nearest, self.kind, self.w),
            Some(ew) => weighted_keep_of(&self.scale, self.kind, self.w, ew.loopq, ew.wdegq),
        }
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
        // w_t(u) = retained part + Σ incoming shares.
        let mut acc = self.keep();
        for (_, s) in inbox {
            acc = self.scale.add(acc, FixedQ::from_numerator(s.num));
        }
        self.w = acc;
        if ctx.round() < self.steps {
            self.send_shares(ctx);
        }
    }
}

/// The setup check every flood shares: `src` must be in range and able to
/// walk, and `n^c`'s shares must fit the edge budget. Returns the scale.
///
/// # Panics
/// Panics if `src` is out of range, `src` is isolated (its mass could
/// never move, and the simple flood would silently lose it), or the shares
/// are wider than `budget_bits`.
fn flood_scale<G: WalkGraph + ?Sized>(g: &G, src: usize, c: u32, budget_bits: u32) -> FixedScale {
    assert!(src < g.n(), "flood source {src} out of range");
    assert!(
        g.walk_degree(src) > 0.0,
        "flood source {src} is an isolated node (degree 0); its mass could never move"
    );
    let scale = FixedScale::new(g.n(), c);
    let width = scale.payload_bits();
    assert!(
        width <= budget_bits,
        "scale n^{c} needs {width}-bit shares but the edge budget is {budget_bits}; \
         raise the budget multiplier (the paper's O(log n) hides the factor c)"
    );
    scale
}

/// Run Algorithm 1 for `ell` rounds on `g`'s topology, with the quantized
/// weights `qw` if the graph is weighted.
#[allow(clippy::too_many_arguments)]
fn flood<G: WalkGraph + ?Sized>(
    g: &G,
    qw: Option<&QuantizedWeights>,
    src: usize,
    ell: u64,
    c: u32,
    kind: WalkKind,
    budget_bits: u32,
    engine: EngineKind,
    seed: u64,
) -> Result<(Vec<FixedQ>, FixedScale, Metrics), RunError> {
    let scale = flood_scale(g, src, c, budget_bits);
    let topo = g.topology();
    let make = |id: usize| {
        let weights = qw.map(|qw| EdgeWeights {
            row: qw.row(topo, id).to_vec(),
            loopq: qw.loopq[id],
            wdegq: qw.wdegq[id],
        });
        FloodNode::start(scale, ell, kind, weights, id == src)
    };
    let mut net = Network::new(topo, make, budget_bits, engine, seed);
    net.run_rounds(ell)?;
    let weights = net.node_states().map(|s| s.w).collect();
    Ok((weights, scale, net.metrics()))
}

/// The one-shot entry point of Algorithm 1, and the dispatch seam
/// `lmt-core` uses to run Algorithm 2 on any walk substrate: everything
/// topology-shaped (BFS trees, the binary-search convergecast) goes
/// through [`WalkGraph::topology`], and the one weight-aware phase — the
/// flood — dispatches here.
pub trait FloodGraph: WalkGraph {
    /// Run Algorithm 1 for `ell` steps from `src` at scale `n^c` (the lazy
    /// walk for bipartite graphs, footnote 5).
    ///
    /// Returns each node's `p̃_ell` (fixed-point values plus the scale) and
    /// the CONGEST metrics (`rounds == ell`).
    ///
    /// # Panics
    /// Panics if `src` is out of range or isolated, or if `n^c` needs
    /// shares wider than `budget_bits`.
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
    /// The unweighted flood: every node ships one share to all neighbors.
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
        flood(self, None, src, ell, c, kind, budget_bits, engine, seed)
    }
}

impl FloodGraph for WeightedGraph {
    /// The weighted flood: transition probability ∝ (quantized) edge
    /// weight, self-loop weights retained locally. At unit weights this is
    /// bit-identical — weights, messages, metrics — to the unweighted flood.
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
        let qw = QuantizedWeights::new(self);
        flood(
            self,
            Some(&qw),
            src,
            ell,
            c,
            kind,
            budget_bits,
            engine,
            seed,
        )
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
        flood(self, None, src, ell, c, kind, budget_bits, engine, seed)
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
    /// Set up the flood at `ℓ = 0` (point mass at `src`; the lazy walk for
    /// bipartite graphs).
    ///
    /// # Panics
    /// As [`FloodGraph::estimate_flood`].
    pub fn new(
        g: &'g Graph,
        src: usize,
        c: u32,
        kind: WalkKind,
        budget_bits: u32,
        engine: EngineKind,
        seed: u64,
    ) -> Self {
        let scale = flood_scale(g, src, c, budget_bits);
        // Keep flooding (`steps = u64::MAX`); the caller decides when to stop.
        let make = |id: usize| FloodNode::start(scale, u64::MAX, kind, None, id == src);
        let net = Network::new(g, make, budget_bits, engine, seed);
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
    use lmt_walks::fixed_flood::WeightedFixedWalk;

    fn budget(n: usize) -> u32 {
        olog_budget(n, 8)
    }

    /// A sequential, simple-walk flood with the scale `n^6`.
    fn simple<G: FloodGraph + ?Sized>(
        g: &G,
        src: usize,
        ell: u64,
        seed: u64,
    ) -> (Vec<FixedQ>, FixedScale, Metrics) {
        g.estimate_flood(
            src,
            ell,
            6,
            WalkKind::Simple,
            budget(g.n()),
            EngineKind::Sequential,
            seed,
        )
        .unwrap()
    }

    #[test]
    fn bit_identical_to_centralized_reference() {
        let (g, _) = gen::barbell(3, 5);
        for ell in [0u64, 1, 2, 7, 40] {
            let (w, _, m) = simple(&g, 2, ell, 11);
            let mut reference = FixedWalk::new(&g, 2, 6, Rounding::Nearest, WalkKind::Simple);
            reference.run(&g, ell as usize);
            assert_eq!(w, reference.w, "ell={ell}");
            assert_eq!(m.rounds, ell);
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let g = gen::random_regular(64, 4, 5);
        let run = |engine| {
            g.estimate_flood(0, 25, 6, WalkKind::Simple, budget(64), engine, 3)
                .unwrap()
        };
        let (a, _, ma) = run(EngineKind::Sequential);
        let (b, _, mb) = run(EngineKind::Parallel);
        assert_eq!(a, b);
        assert_eq!(ma, mb);
    }

    #[test]
    fn rounds_equal_ell() {
        let g = gen::cycle(12);
        let (_, _, m) = simple(&g, 0, 17, 1);
        assert_eq!(m.rounds, 17);
    }

    #[test]
    fn share_width_is_o_log_n() {
        let g = gen::complete(64);
        let (_, scale, m) = simple(&g, 0, 3, 1);
        // 64^6 = 2^36 → 37-bit payloads; budget 8·6 = 48.
        assert_eq!(scale.payload_bits(), 37);
        assert!(m.max_edge_bits <= 37);
    }

    #[test]
    fn budget_too_small_is_rejected_up_front() {
        let g = gen::cycle(8);
        let err = std::panic::catch_unwind(|| {
            g.estimate_flood(0, 1, 6, WalkKind::Simple, 4, EngineKind::Sequential, 1)
        });
        assert!(err.is_err());
    }

    #[test]
    fn incremental_matches_batch() {
        let g = gen::grid(4, 5);
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            let mut inc =
                IncrementalFlood::new(&g, 3, 6, kind, budget(20), EngineKind::Sequential, 2);
            for ell in 1..=15u64 {
                inc.advance().unwrap();
                let (batch, _, _) = g
                    .estimate_flood(3, ell, 6, kind, budget(20), EngineKind::Sequential, 9)
                    .unwrap();
                assert_eq!(inc.weights(), batch, "kind={kind:?} ell={ell}");
                assert_eq!(inc.ell(), ell);
            }
            assert_eq!(inc.metrics().rounds, 15);
        }
    }

    #[test]
    fn zero_steps_keeps_point_mass() {
        let g = gen::path(4);
        let (w, scale, _) = simple(&g, 1, 0, 1);
        assert_eq!(w[1], scale.one());
        assert!(w[0].is_zero() && w[2].is_zero());
    }

    // -----------------------------------------------------------------
    // Weighted flood.
    // -----------------------------------------------------------------

    #[test]
    fn weighted_unit_flood_identical_to_unweighted_protocol() {
        // The bit-for-bit contract at the substrate level: weights,
        // metrics (messages, bits, max edge load) — everything.
        let (g, _) = gen::barbell(3, 5);
        let wg = lmt_graph::WeightedGraph::unit(g.clone());
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            for ell in [0u64, 1, 2, 7, 40] {
                let run = |fg: &dyn FloodGraph| {
                    fg.estimate_flood(2, ell, 6, kind, budget(g.n()), EngineKind::Sequential, 11)
                        .unwrap()
                };
                let (a, _, ma) = run(&g);
                let (b, _, mb) = run(&wg);
                assert_eq!(a, b, "kind={kind:?} ell={ell}");
                assert_eq!(ma, mb, "kind={kind:?} ell={ell}");
            }
        }
    }

    #[test]
    fn weighted_flood_bit_identical_to_centralized_reference() {
        let (wg, _) = gen::weighted_barbell(3, 5, 0.5);
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            for ell in [0u64, 1, 2, 7, 40] {
                let (w, _, m) = wg
                    .estimate_flood(2, ell, 6, kind, budget(wg.n()), EngineKind::Sequential, 11)
                    .unwrap();
                let mut reference = WeightedFixedWalk::new(&wg, 2, 6, kind);
                reference.run(&wg, ell as usize);
                assert_eq!(w, reference.w, "kind={kind:?} ell={ell}");
                assert_eq!(m.rounds, ell);
            }
        }
    }

    #[test]
    fn weighted_flood_parallel_equals_sequential() {
        let wg = gen::weighted::random_weights(gen::random_regular(64, 4, 5), 0.5, 2.0, 9);
        let run = |engine| {
            wg.estimate_flood(0, 25, 6, WalkKind::Simple, budget(64), engine, 3)
                .unwrap()
        };
        let (a, _, ma) = run(EngineKind::Sequential);
        let (b, _, mb) = run(EngineKind::Parallel);
        assert_eq!(a, b);
        assert_eq!(ma, mb);
    }

    #[test]
    fn flood_graph_trait_dispatches_per_substrate() {
        let g = gen::cycle(8);
        let wg = gen::weighted::uniform_weights(g.clone(), 1.0);
        let run = |fg: &dyn FloodGraph| {
            fg.estimate_flood(
                0,
                5,
                6,
                WalkKind::Lazy,
                budget(8),
                EngineKind::Sequential,
                2,
            )
            .unwrap()
        };
        let (a, _, ma) = run(&g);
        let (b, _, mb) = run(&wg);
        assert_eq!(a, b);
        assert_eq!(ma, mb);
    }

    #[test]
    fn churn_graph_flood_zero_churn_is_bit_identical() {
        let (g, _) = gen::barbell(3, 5);
        let cg = lmt_graph::ChurnGraph::new(g.clone());
        for ell in [0u64, 1, 7, 40] {
            let (a, sa, ma) = simple(&g, 2, ell, 11);
            let (b, sb, mb) = simple(&cg, 2, ell, 11);
            assert_eq!(a, b, "ell={ell}");
            assert_eq!(sa.denominator(), sb.denominator());
            assert_eq!(ma, mb, "ell={ell}");
        }
    }

    #[test]
    fn churn_graph_flood_tracks_edits() {
        use lmt_graph::EdgeEdit;
        // After an edit, the churn flood equals a fresh flood on a static
        // graph of the post-edit topology.
        let g = gen::grid(4, 4);
        let mut cg = lmt_graph::ChurnGraph::new(g.clone());
        cg.apply(&[EdgeEdit::delete(0, 1), EdgeEdit::insert(0, 5)])
            .unwrap();
        let mut b = lmt_graph::GraphBuilder::new(g.n());
        b.extend_edges(cg.topology().edges());
        let fresh = b.build();
        let (want, _, mw) = simple(&fresh, 3, 9, 4);
        let (got, _, mg) = simple(&cg, 3, 9, 4);
        assert_eq!(got, want);
        assert_eq!(mg, mw);
    }

    #[test]
    fn flood_rejects_isolated_source() {
        // Node 3 is isolated in every substrate: its point mass could never
        // move, so every flood set-up refuses it instead of returning an
        // estimate that silently lost (simple) or bled (lazy) the mass.
        let mut b = lmt_graph::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let cg = lmt_graph::ChurnGraph::new(g.clone());
        let wg = lmt_graph::WeightedGraph::unit(g.clone());
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            let one_shot = |fg: &dyn FloodGraph| {
                fg.estimate_flood(3, 3, 6, kind, budget(4), EngineKind::Sequential, 1)
                    .map(|_| ())
            };
            let rejects = |name: &str, run: &dyn Fn()| {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                    .expect_err(&format!("{name} {kind:?} accepted an isolated source"));
                let msg = err
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or("");
                assert!(msg.contains("isolated node"), "{name} {kind:?}: {msg}");
            };
            rejects("Graph", &|| one_shot(&g).unwrap());
            rejects("ChurnGraph", &|| one_shot(&cg).unwrap());
            rejects("WeightedGraph", &|| one_shot(&wg).unwrap());
            rejects("IncrementalFlood", &|| {
                let mut inc =
                    IncrementalFlood::new(&g, 3, 6, kind, budget(4), EngineKind::Sequential, 1);
                inc.advance().unwrap();
            });
        }
    }

    #[test]
    fn weighted_flood_self_loops_retain_mass() {
        // A node with a heavy loop keeps most mass locally under the
        // simple weighted walk.
        let mut b = lmt_graph::WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_loop(0, 3.0);
        let wg = b.build();
        let (w, scale, _) = simple(&wg, 0, 1, 1);
        // One step: keep 3/4, ship 1/4.
        assert_eq!(w[0].numerator(), 3 * scale.denominator() / 4);
        assert_eq!(w[1].numerator(), scale.denominator() / 4);
    }
}
