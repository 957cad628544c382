//! Centralized reference of Algorithm 1 (ESTIMATE-RW-PROBABILITY).
//!
//! The distributed implementation in `lmt-congest::flood` must agree with
//! this iteration **bit-for-bit**: both perform, per step, per node `u` with
//! `w(u) ≠ 0`, the send of `round(w(u)/d(u))` to every neighbor (lazy:
//! `round(w/2d)` shipped, `round(w/2)` retained) and the exact integer
//! summation of received shares — they literally share [`FixedWalk::share_of`]
//! / [`FixedWalk::keep_of`].
//!
//! Error model (experiment T7): each per-edge share is rounded to the nearest
//! multiple of `1/n^c`, so one step adds at most `d_max/(2n^c)` of error at a
//! node, and after `t` steps `|p̃_t(u) − p_t(u)| ≤ t·d_max/(2n^c)` — the
//! concrete counterpart of the paper's Lemma 2 bound `t·n^{−c}` (which
//! absorbs degrees into the choice of `c`).

use crate::step::WalkKind;
use crate::Dist;
use lmt_graph::{Graph, WeightedGraph};
use lmt_util::fixed::{FixedQ, FixedScale};

/// Rounding mode for the per-edge share (the paper uses nearest).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rounding {
    /// Nearest multiple of `1/n^c` (paper's `nint`).
    Nearest,
    /// Round down — conservative one-sided variant for the T7 ablation.
    Floor,
}

/// The fixed-point walk state: one `FixedQ` weight per node.
#[derive(Clone, Debug, PartialEq)]
pub struct FixedWalk {
    /// Shared scale `q = n^c`.
    pub scale: FixedScale,
    /// Current weights `w_t(u)`.
    pub w: Vec<FixedQ>,
    /// Steps taken so far.
    pub t: usize,
    rounding: Rounding,
    kind: WalkKind,
}

impl FixedWalk {
    /// Initialize at the point mass on `src` with scale `n^c`. The lazy
    /// kind keeps `nint(w/2)` at the node and ships `nint(w/2d)` per edge —
    /// the footnote-5 fix that makes mixing well-defined on bipartite
    /// graphs.
    pub fn new(g: &Graph, src: usize, c: u32, rounding: Rounding, kind: WalkKind) -> Self {
        assert!(src < g.n(), "source out of range");
        let scale = FixedScale::new(g.n(), c);
        let mut w = vec![scale.zero(); g.n()];
        w[src] = scale.one();
        FixedWalk {
            scale,
            w,
            t: 0,
            rounding,
            kind,
        }
    }

    /// Per-edge share of a node holding weight `w` with degree `d`.
    ///
    /// Public so the distributed implementation (`lmt-congest::flood`) uses
    /// the *same* arithmetic and stays bit-identical to this reference.
    #[inline]
    pub fn share_of(
        scale: &FixedScale,
        rounding: Rounding,
        kind: WalkKind,
        w: FixedQ,
        d: usize,
    ) -> FixedQ {
        let denom = match kind {
            WalkKind::Simple => d,
            WalkKind::Lazy => 2 * d,
        };
        match rounding {
            Rounding::Nearest => scale.div_round(w, denom),
            Rounding::Floor => scale.div_floor(w, denom),
        }
    }

    /// Retained (lazy) part of a node's weight (see [`Self::share_of`]).
    #[inline]
    pub fn keep_of(
        scale: &FixedScale,
        rounding: Rounding,
        kind: WalkKind,
        w: FixedQ,
    ) -> FixedQ {
        match kind {
            WalkKind::Simple => scale.zero(),
            WalkKind::Lazy => match rounding {
                Rounding::Nearest => scale.div_round(w, 2),
                Rounding::Floor => scale.div_floor(w, 2),
            },
        }
    }

    /// Advance one step (one CONGEST round of Algorithm 1's loop body).
    pub fn step(&mut self, g: &Graph) {
        let mut next: Vec<FixedQ> = (0..g.n())
            .map(|u| Self::keep_of(&self.scale, self.rounding, self.kind, self.w[u]))
            .collect();
        for u in 0..g.n() {
            if self.w[u].is_zero() {
                continue; // silent node, as in Algorithm 1 step 3
            }
            let d = g.degree(u);
            if d == 0 {
                continue;
            }
            let share = Self::share_of(&self.scale, self.rounding, self.kind, self.w[u], d);
            if share.is_zero() {
                continue;
            }
            for v in g.neighbors(u) {
                next[v] = self.scale.add(next[v], share);
            }
        }
        self.w = next;
        self.t += 1;
    }

    /// Run `steps` more steps.
    pub fn run(&mut self, g: &Graph, steps: usize) {
        for _ in 0..steps {
            self.step(g);
        }
    }

    /// Current estimate as an `f64` distribution `p̃_t`.
    pub fn to_dist(&self) -> Dist {
        Dist::from_vec(self.w.iter().map(|&v| self.scale.to_f64(v)).collect())
    }

    /// The provable per-run error bound for this graph: each receiving node
    /// absorbs at most one half-ulp of rounding per incoming share (`d_max`
    /// of them) plus, for lazy walks, one for the retained half —
    /// `t·(d_max + lazy)/(2n^c)` overall.
    pub fn error_bound(&self, g: &Graph) -> f64 {
        let d_max = (0..g.n()).map(|u| g.degree(u)).max().unwrap_or(0);
        let lazy_extra = match self.kind {
            WalkKind::Simple => 0,
            WalkKind::Lazy => 1,
        };
        self.t as f64 * (d_max + lazy_extra) as f64 / (2.0 * self.scale.denominator() as f64)
    }
}

// ---------------------------------------------------------------------------
// Weighted Algorithm 1: quantized edge weights + the weighted share/keep
// arithmetic shared with the distributed implementation.
// ---------------------------------------------------------------------------

/// Edge weights quantized to integer numerators for the weighted wire
/// protocol.
///
/// CONGEST messages carry integers, so the weighted flood cannot divide by
/// an `f64` walk degree: instead every edge weight is rounded once, up
/// front, to a multiple of `1/2^20` (`wq = max(1, nint(w·2^20))` — weights
/// are strictly positive, so quantization never silently deletes an edge),
/// and each per-edge share is the **exact integer** rounding
/// `nint(w_num·wq/Ωq(u))` ([`FixedScale::mul_div_round`]). The flood
/// therefore tracks the walk on the *quantized* weights; the quantization
/// perturbs each transition probability by at most `2^-20/Ω(u)`-grade
/// relative error, far below Lemma 2's own `t·n^{-c}` rounding budget for
/// any sane weight range.
///
/// **Unit-weight reduction:** equal weights make `wq` uniform, the
/// quantization scale cancels inside `mul_div_round`, and every share
/// equals the unweighted `div_round(w, d)` bit-for-bit — so the weighted
/// protocol on a unit-weight graph is indistinguishable, message for
/// message, from the unweighted one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantizedWeights {
    /// Quantization denominator (`2^20`).
    pub scale: u64,
    /// Quantized weight per directed CSR slot (parallel to the topology's
    /// flat neighbor array).
    pub wq: Vec<u64>,
    /// Quantized self-loop weight per node.
    pub loopq: Vec<u64>,
    /// Quantized walk degree `Ωq(u) = Σ_i wq(u)[i] + loopq(u)`.
    pub wdegq: Vec<u128>,
}

impl QuantizedWeights {
    /// Quantization denominator `2^20`: fine enough that weight ratios
    /// survive to ~6 decimal digits, coarse enough that `w_num·wq` stays
    /// far from `u128` overflow at every laptop-scale `(n, c)`.
    pub const SCALE: u64 = 1 << 20;

    /// Quantize the weights of `wg`.
    ///
    /// # Panics
    /// Panics if any weight quantizes beyond `u64` (≈ 1.7e13 at the `2^20`
    /// scale): saturating there would silently collapse weight *ratios*
    /// (e.g. 2e13 vs 4e13 both saturate, turning a 1:2 split into 1:1),
    /// producing wrong floods with no signal. Rescale such graphs — the
    /// walk only sees weight ratios, so dividing all weights by a constant
    /// changes nothing.
    pub fn new(wg: &WeightedGraph) -> Self {
        let quantize = |w: f64| -> u64 {
            let q = (w * Self::SCALE as f64).round();
            assert!(
                q <= u64::MAX as f64,
                "edge/loop weight {w} overflows the 2^20 quantization scale; \
                 rescale the graph's weights (only ratios matter to the walk)"
            );
            (q as u64).max(1)
        };
        let topo = wg.topology();
        let mut wq = Vec::with_capacity(topo.total_volume());
        for u in 0..wg.n() {
            wq.extend(wg.weights_of(u).iter().map(|&w| quantize(w)));
        }
        let loopq: Vec<u64> = (0..wg.n())
            .map(|u| {
                let lw = wg.loop_weight(u);
                if lw > 0.0 {
                    quantize(lw)
                } else {
                    0
                }
            })
            .collect();
        let wdegq: Vec<u128> = (0..wg.n())
            .map(|u| {
                let range = topo.neighbor_range(u);
                wq[range].iter().map(|&w| w as u128).sum::<u128>() + loopq[u] as u128
            })
            .collect();
        QuantizedWeights {
            scale: Self::SCALE,
            wq,
            loopq,
            wdegq,
        }
    }

    /// The quantized weights of `u`'s incident edges (CSR-aligned).
    #[inline]
    pub fn row<'a>(&'a self, topo: &Graph, u: usize) -> &'a [u64] {
        &self.wq[topo.neighbor_range(u)]
    }
}

/// Weighted per-edge share: `nint(w·ω/(kd·Ω))` where `ω` is the quantized
/// edge weight, `Ω` the quantized walk degree, and `kd` 1 (simple) or 2
/// (lazy). Exact integer arithmetic; shared by the centralized reference
/// ([`WeightedFixedWalk`]) and the distributed flood
/// (`lmt-congest::flood`), which must stay bit-identical.
#[inline]
pub fn weighted_share_of(
    scale: &FixedScale,
    kind: WalkKind,
    w: FixedQ,
    edge_wq: u64,
    wdegq: u128,
) -> FixedQ {
    let den = match kind {
        WalkKind::Simple => wdegq,
        WalkKind::Lazy => 2 * wdegq,
    };
    scale.mul_div_round(w, edge_wq as u128, den)
}

/// Weighted retained part: the lazy half (`nint(w/2)`) plus the self-loop
/// share (`nint(w·loopq/(kd·Ω))`). Zero for simple walks on loop-free
/// graphs — matching [`FixedWalk::keep_of`] exactly.
#[inline]
pub fn weighted_keep_of(
    scale: &FixedScale,
    kind: WalkKind,
    w: FixedQ,
    loopq: u64,
    wdegq: u128,
) -> FixedQ {
    let lazy_half = match kind {
        WalkKind::Simple => scale.zero(),
        WalkKind::Lazy => scale.div_round(w, 2),
    };
    if loopq == 0 {
        return lazy_half;
    }
    scale.add(lazy_half, weighted_share_of(scale, kind, w, loopq, wdegq))
}

/// Centralized reference of the **weighted** Algorithm 1: the fixed-point
/// flood on a [`WeightedGraph`] with quantized weights. The distributed
/// implementation in `lmt-congest::flood` shares [`weighted_share_of`] /
/// [`weighted_keep_of`] and must agree with this iteration bit-for-bit.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedFixedWalk {
    /// Shared scale `q = n^c`.
    pub scale: FixedScale,
    /// The quantized weights driving the shares.
    pub qw: QuantizedWeights,
    /// Current weights `w_t(u)`.
    pub w: Vec<FixedQ>,
    /// Steps taken so far.
    pub t: usize,
    kind: WalkKind,
}

impl WeightedFixedWalk {
    /// Initialize at the point mass on `src` with scale `n^c`.
    ///
    /// # Panics
    /// Panics if `src` is out of range or isolated (zero walk degree) —
    /// the point mass could never move, and the flood would silently
    /// drain it.
    pub fn new(wg: &WeightedGraph, src: usize, c: u32, kind: WalkKind) -> Self {
        assert!(src < wg.n(), "source out of range");
        assert!(
            wg.weighted_degree(src) > 0.0,
            "source {src} is an isolated node (degree 0)"
        );
        let scale = FixedScale::new(wg.n(), c);
        let mut w = vec![scale.zero(); wg.n()];
        w[src] = scale.one();
        WeightedFixedWalk {
            scale,
            qw: QuantizedWeights::new(wg),
            w,
            t: 0,
            kind,
        }
    }

    /// Advance one step (one CONGEST round of the weighted Algorithm 1).
    pub fn step(&mut self, wg: &WeightedGraph) {
        let topo = wg.topology();
        let mut next: Vec<FixedQ> = (0..wg.n())
            .map(|u| {
                weighted_keep_of(
                    &self.scale,
                    self.kind,
                    self.w[u],
                    self.qw.loopq[u],
                    self.qw.wdegq[u],
                )
            })
            .collect();
        for u in 0..wg.n() {
            if self.w[u].is_zero() {
                continue; // silent node, as in Algorithm 1 step 3
            }
            let row = self.qw.row(topo, u);
            if row.is_empty() {
                continue;
            }
            for (i, v) in topo.neighbors(u).enumerate() {
                let share =
                    weighted_share_of(&self.scale, self.kind, self.w[u], row[i], self.qw.wdegq[u]);
                if share.is_zero() {
                    continue;
                }
                next[v] = self.scale.add(next[v], share);
            }
        }
        self.w = next;
        self.t += 1;
    }

    /// Run `steps` more steps.
    pub fn run(&mut self, wg: &WeightedGraph, steps: usize) {
        for _ in 0..steps {
            self.step(wg);
        }
    }

    /// Current estimate as an `f64` distribution `p̃_t`.
    pub fn to_dist(&self) -> Dist {
        Dist::from_vec(self.w.iter().map(|&v| self.scale.to_f64(v)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::evolve_block;
    use lmt_graph::gen;

    #[test]
    fn tracks_exact_distribution_within_lemma2_bound() {
        let g = gen::cycle(9);
        let mut fw = FixedWalk::new(&g, 0, 6, Rounding::Nearest, WalkKind::Simple);
        for t in 1..=50 {
            fw.step(&g);
            let exact = evolve_block(&g, &[0], WalkKind::Simple, t).remove(0);
            let est = fw.to_dist();
            let bound = fw.error_bound(&g) + 1e-12;
            for v in 0..9 {
                assert!(
                    (est.get(v) - exact.get(v)).abs() <= bound,
                    "t={t} v={v}: |{} - {}| > {bound}",
                    est.get(v),
                    exact.get(v)
                );
            }
        }
    }

    #[test]
    fn mass_stays_close_to_one_with_nearest() {
        let (g, _) = gen::barbell(2, 5);
        let mut fw = FixedWalk::new(&g, 0, 6, Rounding::Nearest, WalkKind::Simple);
        fw.run(&g, 100);
        let m = fw.to_dist().mass();
        assert!((m - 1.0).abs() < 1e-3, "mass drifted to {m}");
    }

    #[test]
    fn floor_mode_never_exceeds_mass_one() {
        let g = gen::complete(6);
        let mut fw = FixedWalk::new(&g, 0, 6, Rounding::Floor, WalkKind::Simple);
        for _ in 0..200 {
            fw.step(&g);
            assert!(fw.to_dist().mass() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn initial_state_is_point_mass() {
        let g = gen::path(4);
        let fw = FixedWalk::new(&g, 2, 6, Rounding::Nearest, WalkKind::Simple);
        let d = fw.to_dist();
        assert_eq!(d.get(2), 1.0);
        assert_eq!(d.mass(), 1.0);
        assert_eq!(fw.t, 0);
    }

    #[test]
    fn lazy_mode_tracks_lazy_walk_on_bipartite_graph() {
        // Footnote 5: on bipartite graphs only the lazy walk mixes; the
        // lazy fixed-point flood must track the exact lazy distribution.
        let g = gen::hypercube(4);
        let mut fw = FixedWalk::new(&g, 0, 6, Rounding::Nearest, WalkKind::Lazy);
        for t in 1..=60 {
            fw.step(&g);
            let exact = evolve_block(&g, &[0], WalkKind::Lazy, t).remove(0);
            let est = fw.to_dist();
            let bound = fw.error_bound(&g) + 1e-12;
            for v in 0..16 {
                assert!(
                    (est.get(v) - exact.get(v)).abs() <= bound,
                    "t={t} v={v}"
                );
            }
        }
        // And it actually approaches uniform (mixes), unlike the simple walk.
        let pi = Dist::uniform(16);
        assert!(fw.to_dist().l1_distance(&pi) < 0.05);
    }

    #[test]
    fn weighted_unit_flood_bit_identical_to_unweighted() {
        // The quantization scale cancels at uniform weights: the weighted
        // reference must reproduce FixedWalk exactly, numerator for
        // numerator, at every step — simple and lazy.
        let (g, _) = gen::barbell(3, 5);
        let wg = lmt_graph::WeightedGraph::unit(g.clone());
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            let mut fw = FixedWalk::new(&g, 2, 6, Rounding::Nearest, kind);
            let mut wfw = WeightedFixedWalk::new(&wg, 2, 6, kind);
            for t in 1..=40 {
                fw.step(&g);
                wfw.step(&wg);
                assert_eq!(fw.w, wfw.w, "kind={kind:?} t={t}");
            }
        }
    }

    #[test]
    fn weighted_flood_tracks_weighted_walk() {
        // The quantized flood must track the exact weighted f64 walk within
        // a Lemma 2-style bound (coarse: d_max half-ulps per step, plus the
        // weight quantization's sub-ulp drift).
        let wg = gen::weighted::random_weights(gen::grid(3, 3), 0.5, 2.0, 5);
        let mut wfw = WeightedFixedWalk::new(&wg, 0, 6, WalkKind::Simple);
        let q = 9f64.powi(6);
        for t in 1..=30 {
            wfw.step(&wg);
            let exact = evolve_block(&wg, &[0], WalkKind::Simple, t).remove(0);
            let est = wfw.to_dist();
            let bound = t as f64 * (4.0 + 1.0) / (2.0 * q) + t as f64 * 1e-5;
            for v in 0..9 {
                assert!(
                    (est.get(v) - exact.get(v)).abs() <= bound,
                    "t={t} v={v}: |{} - {}| > {bound}",
                    est.get(v),
                    exact.get(v)
                );
            }
        }
    }

    #[test]
    fn weighted_flood_mass_stays_near_one() {
        let (wg, _) = gen::weighted_barbell(3, 4, 0.5);
        let mut wfw = WeightedFixedWalk::new(&wg, 0, 6, WalkKind::Lazy);
        wfw.run(&wg, 100);
        let m = wfw.to_dist().mass();
        assert!((m - 1.0).abs() < 1e-3, "mass drifted to {m}");
    }

    #[test]
    fn quantization_clamps_tiny_weights_to_one_unit() {
        let mut b = lmt_graph::WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, 1e-12); // far below 1/2^20
        let wg = b.build();
        let qw = QuantizedWeights::new(&wg);
        assert_eq!(qw.wq, vec![1, 1]); // clamped, not deleted
        assert_eq!(qw.wdegq, vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "overflows the 2^20 quantization scale")]
    fn quantization_rejects_huge_weights_instead_of_saturating() {
        let mut b = lmt_graph::WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, 1e15); // would saturate u64 at the 2^20 scale
        let _ = QuantizedWeights::new(&b.build());
    }

    #[test]
    fn higher_c_tightens_error() {
        let g = gen::grid(3, 3);
        let exact = evolve_block(&g, &[0], WalkKind::Simple, 30).remove(0);
        let run = |c| {
            let mut fw = FixedWalk::new(&g, 0, c, Rounding::Nearest, WalkKind::Simple);
            fw.run(&g, 30);
            fw.to_dist()
        };
        let (coarse, fine) = (run(4), run(8));
        let err_coarse = coarse.l1_distance(&exact);
        let err_fine = fine.l1_distance(&exact);
        assert!(err_fine <= err_coarse + 1e-15, "{err_fine} > {err_coarse}");
    }
}
