//! Resumable per-source profile curves.
//!
//! A walk evolution from source `s` is `(β, ε)`-independent: the expensive
//! part of the τ oracle is producing the distribution sequence `p_0, p_1, …`,
//! while the per-step witness check is a cheap scan over a value-sorted view
//! of `p_t`. A [`SourceCurve`] records exactly that sorted view —
//! `(value, id)`-sorted ids plus the aligned ascending values, as produced by
//! [`WitnessScratch::load`], with the zero run cut out — for every step
//! taken so far, together with the last raw distribution for resuming the
//! walk. Because the sorted view is a pure function of `p_t`, and the zero
//! run is every id missing from the snapshot in ascending order, replaying a
//! snapshot through the witness scan returns **bit-for-bit** the witness a
//! fresh [`crate::local::local_mixing_time`] call sees at step `t`: one
//! evolution of `s` answers *every* subsequent `(β, ε)` query for `s`.
//!
//! This is the cache substrate of the `lmt-service` query layer; the curve
//! itself is engine-agnostic — callers feed it distributions from a
//! [`crate::engine::BlockEvolution`] lane (in place via
//! [`crate::engine::BlockEvolution::solo_lane`] for a one-source block) or
//! anything else, and extend a curve later by restarting the engine from
//! [`SourceCurve::resume_dist`] (see
//! [`crate::engine::BlockEvolution::from_dists`]).
//!
//! Memory: one snapshot is `12·|supp(p_t)|` bytes (`u32` id + `f64` value
//! per nonzero entry), so a curve recorded to step `T` holds
//! `12·Σ_t |supp(p_t)|` bytes plus the `8·n` resume distribution —
//! [`SourceCurve::snapshot_bytes`] reports the footprint so long-lived
//! caches can account for it. While the walk is local (the service's
//! clique- and expander-ring regimes) that is a few percent of `12·n` per
//! step.

use crate::local::{Witness, WitnessScratch};
use lmt_util::BitSet;

/// One recorded step: the `(value, id)`-sorted view of `p_t` without its
/// zero run.
struct Snapshot {
    /// Ids of the nonzero entries, sorted by `(value, id)`.
    ids: Vec<u32>,
    /// Values aligned with `ids` (ascending); `vals[k] == p[ids[k]]`.
    vals: Vec<f64>,
}

/// The recorded profile curve of one source: sorted snapshots of
/// `p_0 ..= p_T` plus `p_T` itself for resumption (see the module docs),
/// together with the curve's **exact cumulative support**
/// `∪_{t ≤ T} supp(p_t)` — the set of nodes that ever carried mass.
///
/// The support is exact, not an over-approximation: walk masses are
/// non-negative and evolve by adds and divides only, so a nonzero entry of
/// any recorded `p_t` is real mass (no cancellation can fake a zero). It is
/// the basis of the service layer's support-aware churn invalidation — a
/// curve whose support never touches an edited endpoint is provably
/// unchanged on the post-churn graph (every inflow term it ever summed had
/// an unedited row and degree; all other terms were `+0.0`).
pub struct SourceCurve {
    steps: Vec<Snapshot>,
    cur: Vec<f64>,
    support: BitSet,
}

impl Default for SourceCurve {
    fn default() -> Self {
        Self::new()
    }
}

impl SourceCurve {
    /// An empty curve (no steps recorded yet).
    pub fn new() -> Self {
        SourceCurve {
            steps: Vec::new(),
            cur: Vec::new(),
            support: BitSet::new(0),
        }
    }

    /// Record the next step's distribution (step `t = recorded()` before the
    /// call): snapshots the nonzero part of the sorted view of
    /// [`WitnessScratch::load`] and retains `p` as the new resume
    /// distribution. Nonzero entries join the cumulative support.
    pub fn record(&mut self, p: &[f64], scratch: &mut WitnessScratch) {
        scratch.load(p);
        let (ids, vals) = scratch.support_snapshot();
        self.steps.push(Snapshot { ids, vals });
        self.cur.clear();
        self.cur.extend_from_slice(p);
        if self.support.capacity() != p.len() {
            // First record (or a caller switching node counts, which resets
            // the accumulated support along with it).
            self.support = BitSet::new(p.len());
        }
        for (v, &pv) in p.iter().enumerate() {
            if pv != 0.0 {
                self.support.insert(v);
            }
        }
    }

    /// Number of recorded steps; the curve covers `t = 0 .. recorded()`.
    pub fn recorded(&self) -> usize {
        self.steps.len()
    }

    /// The last recorded distribution `p_T`, to restart an engine from
    /// (empty slice if nothing is recorded yet).
    pub fn resume_dist(&self) -> &[f64] {
        &self.cur
    }

    /// Replay the witness check at recorded step `t` — bit-for-bit the
    /// `check` a fresh oracle run performs on `p_t`.
    ///
    /// # Panics
    /// Panics if `t ≥ recorded()`.
    pub fn witness_at(
        &self,
        t: usize,
        sizes: &[usize],
        eps: f64,
        src: Option<usize>,
        scratch: &mut WitnessScratch,
    ) -> Option<Witness> {
        let s = &self.steps[t];
        scratch.check_support(self.cur.len(), &s.ids, &s.vals, sizes, eps, src)
    }

    /// First recorded step `t ≥ from_t` whose witness check passes, with its
    /// witness — the oracle's `min{t : …}` restricted to the recorded prefix.
    /// `None` means no recorded step in range mixes (the caller may need to
    /// extend the curve from [`resume_dist`](Self::resume_dist)).
    pub fn first_witness(
        &self,
        from_t: usize,
        sizes: &[usize],
        eps: f64,
        src: Option<usize>,
        scratch: &mut WitnessScratch,
    ) -> Option<(usize, Witness)> {
        (from_t..self.steps.len())
            .find_map(|t| self.witness_at(t, sizes, eps, src, scratch).map(|w| (t, w)))
    }

    /// True iff `v` ever carried mass in a recorded step — membership in
    /// the exact cumulative support `∪_{t ≤ recorded} supp(p_t)`.
    pub fn support_contains(&self, v: usize) -> bool {
        self.support.contains(v)
    }

    /// Size of the cumulative support (0 for an empty curve).
    pub fn support_len(&self) -> usize {
        self.support.len()
    }

    /// The cumulative support as a bitset (capacity `n` once recorded).
    pub fn support(&self) -> &BitSet {
        &self.support
    }

    /// Approximate heap footprint of the recorded snapshots, resume
    /// distribution, and support bitset, in bytes.
    pub fn snapshot_bytes(&self) -> usize {
        let per_step: usize = self
            .steps
            .iter()
            .map(|s| s.ids.len() * 4 + s.vals.len() * 8)
            .sum();
        per_step + self.cur.len() * 8 + self.support.capacity().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BlockEvolution;
    use crate::local::{local_mixing_time, size_grid, LocalMixOptions};
    use crate::step::WalkKind;
    use lmt_graph::gen;

    fn record_curve(
        g: &impl lmt_graph::WalkGraph,
        src: usize,
        kind: WalkKind,
        t_max: usize,
    ) -> SourceCurve {
        let mut curve = SourceCurve::new();
        let mut scratch = WitnessScratch::new(g.n());
        let mut ev = BlockEvolution::new(g, &[src], kind);
        for t in 0..=t_max {
            curve.record(ev.solo_lane(), &mut scratch);
            if t < t_max {
                ev.step();
            }
        }
        curve
    }

    #[test]
    fn replay_matches_fresh_oracle_across_grid() {
        // One recorded evolution must answer every (β, ε) pair identically
        // to a fresh oracle run — the contract the service cache relies on.
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let curve = record_curve(&g, 5, WalkKind::Simple, 120);
        let mut scratch = WitnessScratch::new(g.n());
        for beta in [1.5, 2.0, 4.0] {
            for eps in [0.05, 1.0 / (8.0 * std::f64::consts::E), 0.3] {
                for require_source in [false, true] {
                    let mut o = LocalMixOptions::new(beta);
                    o.eps = eps;
                    o.require_source = require_source;
                    let sizes = size_grid(g.n(), &o);
                    let src_opt = require_source.then_some(5);
                    let fresh = local_mixing_time(&g, 5, &o).unwrap();
                    let (t, w) = curve
                        .first_witness(0, &sizes, eps, src_opt, &mut scratch)
                        .expect("curve long enough to contain τ");
                    assert_eq!(t, fresh.tau, "β={beta} ε={eps} rs={require_source}");
                    assert_eq!(w.size, fresh.witness.size);
                    assert_eq!(w.l1.to_bits(), fresh.witness.l1.to_bits());
                    assert_eq!(w.nodes, fresh.witness.nodes);
                }
            }
        }
    }

    #[test]
    fn support_only_snapshots_replay_like_check() {
        // The zero run is cut out of each snapshot and rebuilt on replay;
        // `−0.0` entries come back as `+0.0`, negatives stay in front of
        // the run. Witnesses must match `check` on the original vector.
        let cases: [&[f64]; 3] = [
            &[0.0, 0.25, -0.0, 0.25, 0.0, 0.5, 0.0, 0.0],
            &[0.3, -0.1, 0.0, 0.3, -0.0, 0.5, 0.0, 0.0, 0.0],
            &[0.125; 8],
        ];
        let mut scratch = WitnessScratch::new(0);
        for p in cases {
            let mut curve = SourceCurve::new();
            curve.record(p, &mut scratch);
            let n = p.len();
            for beta in [1.0, 2.0, 4.0] {
                let o = LocalMixOptions {
                    grid: crate::local::SizeGrid::All,
                    ..LocalMixOptions::new(beta)
                };
                let sizes = size_grid(n, &o);
                for eps in [0.01, 0.2, 0.6, 1.5] {
                    for src in [None, Some(2), Some(5)] {
                        let want = scratch.check(p, &sizes, eps, src);
                        let got = curve.witness_at(0, &sizes, eps, src, &mut scratch);
                        let digest =
                            |w: Option<Witness>| w.map(|w| (w.size, w.l1.to_bits(), w.nodes));
                        assert_eq!(
                            digest(got),
                            digest(want),
                            "{p:?} β={beta} ε={eps} src={src:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn resume_dist_is_last_recorded_step() {
        let g = gen::complete(12);
        let curve = record_curve(&g, 0, WalkKind::Simple, 4);
        assert_eq!(curve.recorded(), 5);
        let mut ev = BlockEvolution::new(&g, &[0], WalkKind::Simple);
        for _ in 0..4 {
            ev.step();
        }
        assert_eq!(curve.resume_dist(), ev.solo_lane());
        // Snapshots hold only nonzero entries: 1, 11, then 12 ×3 of them.
        let entries = 1 + 11 + 3 * 12;
        assert_eq!(curve.snapshot_bytes(), 12 * entries + 8 * g.n() + 2);
    }

    #[test]
    fn support_is_the_exact_cumulative_nonzero_set() {
        // On a path from an endpoint, mass reaches node v first at step v:
        // the cumulative support after T steps is exactly {0, …, T}.
        let g = gen::path(12);
        let mut curve = SourceCurve::new();
        let mut scratch = WitnessScratch::new(g.n());
        let mut ev = BlockEvolution::new(&g, &[0], WalkKind::Simple);
        for t in 0..6 {
            curve.record(ev.solo_lane(), &mut scratch);
            assert_eq!(curve.support_len(), t + 1, "support after step {t}");
            for v in 0..g.n() {
                assert_eq!(curve.support_contains(v), v <= t, "node {v} at step {t}");
            }
            ev.step();
        }
        assert_eq!(
            curve.support().iter().collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_curve_has_empty_support() {
        let curve = SourceCurve::new();
        assert_eq!(curve.support_len(), 0);
        assert!(!curve.support_contains(0));
    }

    #[test]
    fn first_witness_respects_from_t() {
        // Starting the replay past τ must not resurrect earlier witnesses.
        let g = gen::complete(16);
        let curve = record_curve(&g, 3, WalkKind::Simple, 6);
        let o = LocalMixOptions::new(4.0);
        let sizes = size_grid(g.n(), &o);
        let mut scratch = WitnessScratch::new(g.n());
        let (tau, _) = curve
            .first_witness(0, &sizes, o.eps, None, &mut scratch)
            .unwrap();
        let (tau2, _) = curve
            .first_witness(tau + 1, &sizes, o.eps, None, &mut scratch)
            .unwrap();
        assert!(tau2 > tau);
    }
}
