//! Algorithm 1 (ESTIMATE-RW-PROBABILITY) as a fixed-point walk.
//!
//! [`FixedWalk`] is the one implementation of Algorithm 1: per step, every
//! node `u` with `w(u) ≠ 0` ships `nint(w(u)/d(u))` to each neighbor (lazy:
//! `nint(w/2d)` shipped, `nint(w/2)` retained, footnote 5), and every node
//! replaces its weight with the exact integer sum of what it retained and
//! received. Each shipped share is one CONGEST message, so
//! [`FixedWalk::step`] returns the round's message count, which is all
//! `lmt-congest::flood` needs to meter the distributed run: a share that
//! rounds to zero is not sent. On a weighted graph the share to `v` is
//! `nint(w(u)·ω(u,v)/Ω(u))` over weights quantized once up front
//! ([`QuantizedWeights`]).
//!
//! Error model (experiment T7): each per-edge share is rounded to the nearest
//! multiple of `1/n^c`, so one step adds at most `d_max/(2n^c)` of error at a
//! node, and after `t` steps `|p̃_t(u) − p_t(u)| ≤ t·d_max/(2n^c)` — the
//! concrete counterpart of the paper's Lemma 2 bound `t·n^{−c}` (which
//! absorbs degrees into the choice of `c`).

use crate::step::WalkKind;
use crate::Dist;
use lmt_graph::{Graph, WalkGraph, WeightedGraph};
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
#[derive(Clone, Debug)]
pub struct FixedWalk {
    /// Shared scale `q = n^c`.
    pub scale: FixedScale,
    /// Current weights `w_t(u)`.
    pub w: Vec<FixedQ>,
    /// Steps taken so far.
    pub t: usize,
    rounding: Rounding,
    kind: WalkKind,
    /// `None` on an unweighted graph.
    weights: Option<QuantizedWeights>,
    /// The next step's weights, reused across steps.
    next: Vec<FixedQ>,
}

impl FixedWalk {
    /// Initialize at the point mass on `src` with scale `n^c`. The lazy
    /// kind keeps `nint(w/2)` at the node and ships `nint(w/2d)` per edge —
    /// the footnote-5 fix that makes mixing well-defined on bipartite
    /// graphs.
    ///
    /// # Panics
    /// Panics if `src` is out of range or isolated: its point mass could
    /// never move, and the walk would silently lose it (simple) or halve it
    /// every step (lazy).
    pub fn new(g: &Graph, src: usize, c: u32, rounding: Rounding, kind: WalkKind) -> Self {
        Self::start(g, None, src, c, rounding, kind)
    }

    /// The walk on `wg` with its weights quantized ([`QuantizedWeights`])
    /// and nearest rounding. At unit weights every share equals
    /// [`Self::new`]'s bit-for-bit.
    ///
    /// # Panics
    /// As [`Self::new`].
    pub fn weighted(wg: &WeightedGraph, src: usize, c: u32, kind: WalkKind) -> Self {
        let weights = QuantizedWeights::new(wg);
        Self::start(wg, Some(weights), src, c, Rounding::Nearest, kind)
    }

    fn start<G: WalkGraph + ?Sized>(
        g: &G,
        weights: Option<QuantizedWeights>,
        src: usize,
        c: u32,
        rounding: Rounding,
        kind: WalkKind,
    ) -> Self {
        assert!(src < g.n(), "flood source {src} out of range");
        assert!(
            g.walk_degree(src) > 0.0,
            "flood source {src} is an isolated node (degree 0); its mass could never move"
        );
        let scale = FixedScale::new(g.n(), c);
        let mut w = vec![scale.zero(); g.n()];
        w[src] = scale.one();
        FixedWalk {
            scale,
            w,
            t: 0,
            rounding,
            kind,
            weights,
            next: Vec::new(),
        }
    }

    /// `w/d` at the walk's rounding.
    fn divide(&self, w: FixedQ, d: usize) -> FixedQ {
        match self.rounding {
            Rounding::Nearest => self.scale.div_round(w, d),
            Rounding::Floor => self.scale.div_floor(w, d),
        }
    }

    /// The share denominator's factor: 1 (simple) or 2 (lazy).
    fn kd(&self) -> usize {
        match self.kind {
            WalkKind::Simple => 1,
            WalkKind::Lazy => 2,
        }
    }

    /// The part of `w_t(u)` that `u` retains: the lazy half, plus on a
    /// weighted graph the self-loop share `nint(w·loopq/(kd·Ωq))`.
    fn keep(&self, u: usize) -> FixedQ {
        let w = self.w[u];
        let half = match self.kind {
            WalkKind::Simple => self.scale.zero(),
            WalkKind::Lazy => self.divide(w, 2),
        };
        match &self.weights {
            Some(qw) if qw.loopq[u] > 0 => {
                let den = self.kd() as u128 * qw.wdegq[u];
                let share = self.scale.mul_div_round(w, qw.loopq[u] as u128, den);
                self.scale.add(half, share)
            }
            _ => half,
        }
    }

    /// Call `ship(v, share)` for every nonzero share `u` sends this step,
    /// in adjacency order. Silent nodes (`w(u) = 0`, Algorithm 1 step 3)
    /// and zero shares send nothing.
    fn for_each_share(&self, g: &Graph, u: usize, mut ship: impl FnMut(usize, FixedQ)) {
        let w = self.w[u];
        if w.is_zero() {
            return;
        }
        match &self.weights {
            None => {
                let d = g.degree(u);
                if d == 0 {
                    return;
                }
                let share = self.divide(w, self.kd() * d);
                if !share.is_zero() {
                    g.neighbors(u).for_each(|v| ship(v, share));
                }
            }
            Some(qw) => {
                let den = self.kd() as u128 * qw.wdegq[u];
                for (v, &wq) in g.neighbors(u).zip(qw.row(g, u)) {
                    let share = self.scale.mul_div_round(w, wq as u128, den);
                    if !share.is_zero() {
                        ship(v, share);
                    }
                }
            }
        }
    }

    /// Advance one step (one CONGEST round of Algorithm 1's loop body) on
    /// the walk's topology `g`, and return the number of nonzero per-edge
    /// shares shipped: the round's messages.
    pub fn step(&mut self, g: &Graph) -> u64 {
        let mut next = std::mem::take(&mut self.next);
        next.clear();
        next.extend((0..self.w.len()).map(|u| self.keep(u)));
        let mut shipped = 0;
        for u in 0..self.w.len() {
            self.for_each_share(g, u, |v, share| {
                next[v] = self.scale.add(next[v], share);
                shipped += 1;
            });
        }
        self.next = std::mem::replace(&mut self.w, next);
        self.t += 1;
        shipped
    }

    /// The number of nonzero per-edge shares the next [`Self::step`] will
    /// ship, without taking it.
    pub fn pending_shares(&self, g: &Graph) -> u64 {
        let mut count = 0;
        for u in 0..self.w.len() {
            self.for_each_share(g, u, |_, _| count += 1);
        }
        count
    }

    /// Run `steps` more steps; returns the shares shipped.
    pub fn run(&mut self, g: &Graph, steps: usize) -> u64 {
        (0..steps).map(|_| self.step(g)).sum()
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
                assert!((est.get(v) - exact.get(v)).abs() <= bound, "t={t} v={v}");
            }
        }
        // And it actually approaches uniform (mixes), unlike the simple walk.
        let pi = Dist::uniform(16);
        assert!(fw.to_dist().l1_distance(&pi) < 0.05);
    }

    #[test]
    fn weighted_unit_flood_bit_identical_to_unweighted() {
        // The quantization scale cancels at uniform weights: the weighted
        // walk must reproduce the unweighted one exactly, numerator for
        // numerator and share for share, at every step — simple and lazy.
        let (g, _) = gen::barbell(3, 5);
        let wg = lmt_graph::WeightedGraph::unit(g.clone());
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            let mut fw = FixedWalk::new(&g, 2, 6, Rounding::Nearest, kind);
            let mut wfw = FixedWalk::weighted(&wg, 2, 6, kind);
            for t in 1..=40 {
                assert_eq!(fw.step(&g), wfw.step(&g), "kind={kind:?} t={t}");
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
        let mut wfw = FixedWalk::weighted(&wg, 0, 6, WalkKind::Simple);
        let q = 9f64.powi(6);
        for t in 1..=30 {
            wfw.step(wg.topology());
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
        let mut wfw = FixedWalk::weighted(&wg, 0, 6, WalkKind::Lazy);
        wfw.run(wg.topology(), 100);
        let m = wfw.to_dist().mass();
        assert!((m - 1.0).abs() < 1e-3, "mass drifted to {m}");
    }

    #[test]
    #[should_panic(expected = "flood source 3 is an isolated node")]
    fn isolated_source_is_rejected() {
        // Unchecked, a simple walk would lose the point mass in one step and
        // a lazy walk would halve it every step, silently.
        let mut b = lmt_graph::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let _ = FixedWalk::new(&b.build(), 3, 6, Rounding::Nearest, WalkKind::Lazy);
    }

    #[test]
    fn step_counts_nonzero_shares() {
        // Path 0-1-2-3 from node 1 at c = 1 (q = 4): node 1 ships 2 to each
        // neighbor, then node 0 (d = 1) ships 2 and node 2 (d = 2) ships 1
        // to each of its neighbors.
        let g = gen::path(4);
        let mut fw = FixedWalk::new(&g, 1, 1, Rounding::Nearest, WalkKind::Simple);
        assert_eq!(fw.pending_shares(&g), 2);
        assert_eq!(fw.run(&g, 2), 2 + 3);
        let nums: Vec<u128> = fw.w.iter().map(|w| w.numerator()).collect();
        assert_eq!(nums, [0, 3, 0, 1]);
        // K4 from node 0 at q = 4: each neighbor receives nint(4/3) = 1,
        // whose own shares nint(1/3) round to zero and are not sent.
        let k4 = gen::complete(4);
        let mut fw = FixedWalk::new(&k4, 0, 1, Rounding::Nearest, WalkKind::Simple);
        assert_eq!(fw.step(&k4), 3);
        assert_eq!(fw.pending_shares(&k4), 0);
        assert_eq!(fw.step(&k4), 0);
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
