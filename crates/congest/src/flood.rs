//! Distributed **Algorithm 1** (ESTIMATE-RW-PROBABILITY), unweighted and
//! weighted.
//!
//! Per round, every node `u` with non-zero weight sends
//! `nint(w_{t−1}(u)/d(u))` — the nearest multiple of `1/n^c` — to each
//! neighbor; receivers *replace* their weight with the exact integer sum of
//! incoming shares. After `ℓ` rounds each node holds `p̃_ℓ(u)` (Lemma 2:
//! `|p̃_t − p_t| < t·n^{−c}`-grade accuracy). On a weighted graph the share
//! to `v` is `nint(w_{t−1}(u)·ω(u,v)/Ω(u))` over weights quantized once up
//! front ([`lmt_walks::fixed_flood::QuantizedWeights`]): same wire width,
//! same silent-node rule, and at unit weights the same shares.
//!
//! Every message is a pure function of the current state `p̃_t`, so the
//! flood does not run on the round engine: it steps
//! [`lmt_walks::fixed_flood::FixedWalk`], whose step returns the number of
//! nonzero per-edge shares it shipped, and meters those as the CONGEST
//! messages. A share that rounds to zero is not sent. Each message is one
//! `⌈log₂ n^c⌉`-bit numerator, checked against the edge budget up front,
//! and CSR rows hold each neighbor once, so an edge carries at most one
//! message per round and the budget cannot be exceeded.
//!
//! There is one one-shot entry point, [`FloodGraph::estimate_flood`],
//! implemented for [`Graph`], [`WeightedGraph`] and
//! [`lmt_graph::ChurnGraph`] (which floods its current topology); it is
//! also the seam `lmt-core`'s Algorithm 2 dispatches through.
//! [`IncrementalFlood`], the one flood type, advances a flood one round
//! at a time for the exact algorithm of §3.2; `estimate_flood` runs it for
//! `ℓ` rounds. Every set-up shares one check: the source must be in range
//! and not isolated, and `n^c` must fit the edge budget.

use crate::engine::{EngineKind, Metrics, RunError};
use lmt_graph::{Graph, WalkGraph, WeightedGraph};
use lmt_util::fixed::{FixedQ, FixedScale};
use lmt_walks::fixed_flood::{FixedWalk, Rounding};
use lmt_walks::WalkKind;

/// Run Algorithm 1 for `ell` rounds on the topology `g` from `walk`'s
/// point mass.
fn flood(
    g: &Graph,
    walk: FixedWalk,
    ell: u64,
    budget_bits: u32,
) -> Result<(Vec<FixedQ>, FixedScale, Metrics), RunError> {
    let mut run = IncrementalFlood::start(g, walk, budget_bits);
    for _ in 0..ell {
        run.advance();
    }
    let metrics = run.meter(run.shipped);
    Ok((run.walk.w, run.walk.scale, metrics))
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
    /// the CONGEST metrics: `rounds == ell`, one message of
    /// `payload_bits` per nonzero share sent in rounds `1..=ell`. The flood
    /// is deterministic and runs no engine, so `engine` and `seed` are
    /// ignored; the result is never `Err` (the budget is checked up front).
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
        _engine: EngineKind,
        _seed: u64,
    ) -> Result<(Vec<FixedQ>, FixedScale, Metrics), RunError> {
        let walk = FixedWalk::new(self, src, c, Rounding::Nearest, kind);
        flood(self, walk, ell, budget_bits)
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
        _engine: EngineKind,
        _seed: u64,
    ) -> Result<(Vec<FixedQ>, FixedScale, Metrics), RunError> {
        let walk = FixedWalk::weighted(self, src, c, kind);
        flood(self.topology(), walk, ell, budget_bits)
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
        _engine: EngineKind,
        _seed: u64,
    ) -> Result<(Vec<FixedQ>, FixedScale, Metrics), RunError> {
        let topo = self.topology();
        let walk = FixedWalk::new(topo, src, c, Rounding::Nearest, kind);
        flood(topo, walk, ell, budget_bits)
    }
}

/// An Algorithm 1 flood that advances one step at a time.
///
/// The exact algorithm of §3.2 interleaves one walk step with a full
/// existence check per length `ℓ`; this wrapper keeps the flood alive
/// between steps ("we resume the deterministic flooding technique from the
/// last step", §3.2). [`FloodGraph::estimate_flood`] runs on it too.
pub struct IncrementalFlood<'g> {
    g: &'g Graph,
    walk: FixedWalk,
    /// Shares shipped by the rounds run so far.
    shipped: u64,
}

impl<'g> IncrementalFlood<'g> {
    /// Set up the flood at `ℓ = 0` (point mass at `src`; the lazy walk for
    /// bipartite graphs).
    ///
    /// # Panics
    /// As [`FloodGraph::estimate_flood`].
    pub fn new(g: &'g Graph, src: usize, c: u32, kind: WalkKind, budget_bits: u32) -> Self {
        Self::start(
            g,
            FixedWalk::new(g, src, c, Rounding::Nearest, kind),
            budget_bits,
        )
    }

    /// The flood of `walk` on its topology `g`, once its shares are known
    /// to fit the edge budget.
    fn start(g: &'g Graph, walk: FixedWalk, budget_bits: u32) -> Self {
        let (c, width) = (walk.scale.c(), walk.scale.payload_bits());
        assert!(
            width <= budget_bits,
            "scale n^{c} needs {width}-bit shares but the edge budget is {budget_bits}; \
             raise the budget multiplier (the paper's O(log n) hides the factor c)"
        );
        IncrementalFlood {
            g,
            walk,
            shipped: 0,
        }
    }

    /// Advance to `p̃_{ℓ+1}` (one CONGEST round).
    pub fn advance(&mut self) {
        self.shipped += self.walk.step(self.g);
    }

    /// Current length `ℓ`.
    pub fn ell(&self) -> u64 {
        self.walk.t as u64
    }

    /// The scale in use.
    pub fn scale(&self) -> FixedScale {
        self.walk.scale
    }

    /// Current per-node weights `p̃_ℓ`.
    pub fn weights(&self) -> Vec<FixedQ> {
        self.walk.w.clone()
    }

    /// Metrics of the flood so far (`rounds == ℓ`). A flood kept alive is
    /// charged the next round's sends as soon as it has run a round, as the
    /// round engine charges a round's sends when it delivers the previous
    /// round: after `ℓ ≥ 1` advances the messages include the shares of
    /// `p̃_ℓ`.
    pub fn metrics(&self) -> Metrics {
        let pending = if self.ell() == 0 {
            0
        } else {
            self.walk.pending_shares(self.g)
        };
        self.meter(self.shipped + pending)
    }

    /// The CONGEST cost of `messages` shares over `ℓ` rounds.
    fn meter(&self, messages: u64) -> Metrics {
        let width = self.walk.scale.payload_bits();
        Metrics {
            rounds: self.ell(),
            messages,
            bits: messages * u64::from(width),
            max_edge_bits: if messages > 0 { width } else { 0 },
            ..Metrics::default()
        }
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

    /// A simple-walk flood with the scale `n^6`.
    fn simple<G: FloodGraph + ?Sized>(
        g: &G,
        src: usize,
        ell: u64,
    ) -> (Vec<FixedQ>, FixedScale, Metrics) {
        let budget = budget(g.n());
        g.estimate_flood(
            src,
            ell,
            6,
            WalkKind::Simple,
            budget,
            EngineKind::Sequential,
            0,
        )
        .unwrap()
    }

    #[test]
    fn bit_identical_to_centralized_reference() {
        let (g, _) = gen::barbell(3, 5);
        for ell in [0u64, 1, 2, 7, 40] {
            let (w, _, m) = simple(&g, 2, ell);
            let mut reference = FixedWalk::new(&g, 2, 6, Rounding::Nearest, WalkKind::Simple);
            reference.run(&g, ell as usize);
            assert_eq!(w, reference.w, "ell={ell}");
            assert_eq!(m.rounds, ell);
        }
    }

    #[test]
    fn rounds_equal_ell() {
        let g = gen::cycle(12);
        let (_, _, m) = simple(&g, 0, 17);
        assert_eq!(m.rounds, 17);
    }

    #[test]
    fn share_width_is_o_log_n() {
        let g = gen::complete(64);
        let (_, scale, m) = simple(&g, 0, 3);
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
            let mut inc = IncrementalFlood::new(&g, 3, 6, kind, budget(20));
            for ell in 1..=15u64 {
                inc.advance();
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
    fn metrics_count_the_nonzero_shares() {
        // At c = 1 (q = 4) every share is one 3-bit message.
        let metered = |rounds, messages| Metrics {
            rounds,
            messages,
            bits: 3 * messages,
            max_edge_bits: if messages > 0 { 3 } else { 0 },
            ..Metrics::default()
        };
        // K4 from node 0: round 1 carries nint(4/3) = 1 to each neighbor,
        // whose shares nint(1/3) round to zero, so later rounds are silent.
        let k4 = gen::complete(4);
        for (ell, messages) in [(0, 0), (1, 3), (4, 3)] {
            let (_, _, m) = k4
                .estimate_flood(0, ell, 1, WalkKind::Simple, 3, EngineKind::Sequential, 1)
                .unwrap();
            assert_eq!(m, metered(ell, messages), "ell={ell}");
        }
        // Path 0-1-2-3 from node 1 ships 2, 3 and 3 shares in its first
        // three rounds; the incremental flood is charged each next round's
        // sends as soon as it has run a round.
        let path = gen::path(4);
        let (_, _, m) = path
            .estimate_flood(1, 2, 1, WalkKind::Simple, 3, EngineKind::Sequential, 1)
            .unwrap();
        assert_eq!(m, metered(2, 2 + 3));
        let mut inc = IncrementalFlood::new(&path, 1, 1, WalkKind::Simple, 3);
        assert_eq!(inc.metrics(), metered(0, 0));
        for (ell, messages) in [(1, 2 + 3), (2, 2 + 3 + 3)] {
            inc.advance();
            assert_eq!(inc.metrics(), metered(ell, messages), "ell={ell}");
        }
    }

    #[test]
    fn zero_steps_keeps_point_mass() {
        let g = gen::path(4);
        let (w, scale, _) = simple(&g, 1, 0);
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
                let mut reference = FixedWalk::weighted(&wg, 2, 6, kind);
                reference.run(wg.topology(), ell as usize);
                assert_eq!(w, reference.w, "kind={kind:?} ell={ell}");
                assert_eq!(m.rounds, ell);
            }
        }
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
            let (a, sa, ma) = simple(&g, 2, ell);
            let (b, sb, mb) = simple(&cg, 2, ell);
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
        let (want, _, mw) = simple(&fresh, 3, 9);
        let (got, _, mg) = simple(&cg, 3, 9);
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
                IncrementalFlood::new(&g, 3, 6, kind, budget(4)).advance();
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
        let (w, scale, _) = simple(&wg, 0, 1);
        // One step: keep 3/4, ship 1/4.
        assert_eq!(w[0].numerator(), 3 * scale.denominator() / 4);
        assert_eq!(w[1].numerator(), scale.denominator() / 4);
    }
}
