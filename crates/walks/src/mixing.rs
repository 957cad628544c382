//! Global mixing time `τ_mix_s(ε)` (Definition 1) and distance traces.
//!
//! All entry points are thin wrappers over the evolution engine
//! ([`crate::engine`]): single-source quantities run frontier-sparse with
//! the dense crossover, and [`graph_mixing_time`] advances sources in
//! blocks of [`SWEEP_BLOCK`] columns through one shared CSR sweep per step
//! (sharing one `stationary(g)` across all of them). Results are
//! bit-for-bit what the historical per-source dense iteration produced.

use crate::engine::BlockEvolution;
use crate::stationary::stationary;
use crate::step::WalkKind;
use lmt_graph::WalkGraph;

/// How many sources a graph-wide sweep advances per shared CSR traversal.
/// Each extra column costs `8n` bytes of state and one lane of arithmetic
/// per touched edge, while the graph (offsets + neighbors + weights) is
/// read once for the whole block — 8 keeps the working set comfortably
/// cached while amortizing most of the graph traffic.
pub const SWEEP_BLOCK: usize = 8;

/// Outcome of a mixing-time computation.
#[derive(Clone, Debug, PartialEq)]
pub struct MixingResult {
    /// `τ_mix_s(ε) = min{t : ‖p_t − π‖₁ < ε}`.
    pub tau: usize,
    /// The distance `‖p_τ − π‖₁` actually achieved.
    pub achieved: f64,
}

/// Errors from mixing-time computations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MixingError {
    /// The distance did not drop below ε within `max_t` steps. For simple
    /// walks on bipartite graphs this is expected (footnote 5 of the paper);
    /// use [`WalkKind::Lazy`].
    NotMixedWithin(usize),
}

impl std::fmt::Display for MixingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MixingError::NotMixedWithin(t) => {
                write!(
                    f,
                    "walk did not ε-mix within {t} steps (bipartite graph with a simple walk?)"
                )
            }
        }
    }
}

impl std::error::Error for MixingError {}

/// Compute `τ_mix_s(ε)` by stepping `p_t` from the point mass at `src` until
/// `‖p_t − π‖₁ < ε`, up to `max_t` steps. Works on either walk substrate
/// ([`WalkGraph`]): unweighted `π ∝ d`, weighted `π ∝ W`.
///
/// By Lemma 1 the global L1 distance is non-increasing, so the first `t`
/// below ε is *the* mixing time — no search structure needed.
///
/// # Panics
/// Panics if `ε ∉ (0,1)`, `src` is out of range, or `src` is an isolated
/// node (the walk could never leave it, and the mass would silently vanish
/// mid-iteration otherwise — `gen::erdos_renyi` can emit such nodes).
pub fn mixing_time<G: WalkGraph + ?Sized>(
    g: &G,
    src: usize,
    eps: f64,
    kind: WalkKind,
    max_t: usize,
) -> Result<MixingResult, MixingError> {
    assert!(eps > 0.0 && eps < 1.0, "ε must lie in (0,1)");
    crate::step::assert_source(g, src, "mixing_time");
    let pi = stationary(g);
    let mut ev = BlockEvolution::new(g, &[src], kind);
    for t in 0..=max_t {
        let d = ev.lane_l1(0, pi.as_slice());
        if d < eps {
            return Ok(MixingResult {
                tau: t,
                achieved: d,
            });
        }
        if t < max_t {
            ev.step();
        }
    }
    Err(MixingError::NotMixedWithin(max_t))
}

/// The graph mixing time `τ_mix(ε) = max_v τ_mix_v(ε)` (Definition 1),
/// computed exactly by running every source — in blocks of [`SWEEP_BLOCK`]
/// columns per shared CSR sweep, with `stationary(g)` computed once for
/// all of them. Each source's `τ` is bit-for-bit what a solo
/// [`mixing_time`] call returns (a column is retired from its block the
/// step its distance first drops below `ε`).
///
/// # Panics
/// As [`mixing_time`] — in particular, any isolated node makes the
/// quantity undefined and panics.
pub fn graph_mixing_time<G: WalkGraph + ?Sized>(
    g: &G,
    eps: f64,
    kind: WalkKind,
    max_t: usize,
) -> Result<usize, MixingError> {
    let n = g.n();
    if n == 0 {
        return Ok(0);
    }
    assert!(eps > 0.0 && eps < 1.0, "ε must lie in (0,1)");
    crate::step::assert_source(g, 0, "mixing_time");
    let pi = stationary(g);
    for s in 1..n {
        crate::step::assert_source(g, s, "mixing_time");
    }
    let mut worst = 0;
    let sources: Vec<usize> = (0..n).collect();
    for chunk in sources.chunks(SWEEP_BLOCK) {
        let mut block = BlockEvolution::new(g, chunk, kind);
        for t in 0..=max_t {
            let mut j = 0;
            while j < block.width() {
                if block.lane_l1(j, pi.as_slice()) < eps {
                    worst = worst.max(t);
                    block.retire(j);
                } else {
                    j += 1;
                }
            }
            if block.width() == 0 {
                break;
            }
            if t == max_t {
                return Err(MixingError::NotMixedWithin(max_t));
            }
            block.step();
        }
    }
    Ok(worst)
}

/// The trace `t ↦ ‖p_t − π‖₁` for `t = 0..=t_max` (Lemma 1 asserts this is
/// non-increasing; experiment T9 checks it against the *restricted* trace,
/// which is not).
///
/// # Panics
/// As [`mixing_time`]: `src` must be in range and non-isolated.
pub fn l1_trace<G: WalkGraph + ?Sized>(
    g: &G,
    src: usize,
    kind: WalkKind,
    t_max: usize,
) -> Vec<f64> {
    crate::step::assert_source(g, src, "l1_trace");
    let pi = stationary(g);
    let mut ev = BlockEvolution::new(g, &[src], kind);
    let mut out = Vec::with_capacity(t_max + 1);
    for t in 0..=t_max {
        out.push(ev.lane_l1(0, pi.as_slice()));
        if t < t_max {
            ev.step();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmt_graph::gen;

    const EPS: f64 = 1.0 / (8.0 * std::f64::consts::E); // paper's 1/8e

    #[test]
    fn complete_graph_mixes_in_one_step() {
        // §2.3(a): mixing time of K_n is 1 (ε-near for reasonable ε).
        let g = gen::complete(64);
        let r = mixing_time(&g, 0, EPS, WalkKind::Simple, 10).unwrap();
        assert_eq!(r.tau, 1);
    }

    #[test]
    fn bipartite_simple_walk_never_mixes() {
        let g = gen::cycle(6);
        let err = mixing_time(&g, 0, EPS, WalkKind::Simple, 500).unwrap_err();
        assert_eq!(err, MixingError::NotMixedWithin(500));
    }

    #[test]
    fn bipartite_lazy_walk_mixes() {
        let g = gen::cycle(6);
        let r = mixing_time(&g, 0, EPS, WalkKind::Lazy, 500).unwrap();
        assert!(r.tau > 0);
        assert!(r.achieved < EPS);
    }

    #[test]
    fn trace_is_monotone_lemma1() {
        let (g, _) = gen::barbell(3, 4);
        let trace = l1_trace(&g, 0, WalkKind::Lazy, 200);
        for w in trace.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "global L1 distance increased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn path_mixing_grows_quadratically() {
        // §2.3(c): τ_mix(P_n) = O(n²); check the ratio between n and 2n.
        let t16 = mixing_time(&gen::path(16), 0, EPS, WalkKind::Lazy, 100_000)
            .unwrap()
            .tau as f64;
        let t32 = mixing_time(&gen::path(32), 0, EPS, WalkKind::Lazy, 100_000)
            .unwrap()
            .tau as f64;
        let ratio = t32 / t16;
        assert!(
            (2.5..6.5).contains(&ratio),
            "doubling n should ≈4x the mixing time, got {ratio}"
        );
    }

    #[test]
    fn graph_mixing_time_is_max_over_sources() {
        let g = gen::lollipop(5, 3);
        let gm = graph_mixing_time(&g, EPS, WalkKind::Lazy, 10_000).unwrap();
        let from_tail = mixing_time(&g, g.n() - 1, EPS, WalkKind::Lazy, 10_000)
            .unwrap()
            .tau;
        assert!(gm >= from_tail);
    }

    #[test]
    fn blocked_sweep_equals_per_source_sweep() {
        // n = 11 forces a ragged final block (8 + 3); the blocked sweep
        // must reproduce the per-source maximum exactly.
        let g = gen::lollipop(6, 5);
        let blocked = graph_mixing_time(&g, EPS, WalkKind::Lazy, 10_000).unwrap();
        let mut per_source = 0;
        for s in 0..g.n() {
            per_source =
                per_source.max(mixing_time(&g, s, EPS, WalkKind::Lazy, 10_000).unwrap().tau);
        }
        assert_eq!(blocked, per_source);
    }

    #[test]
    fn graph_mixing_time_not_mixed_error() {
        // Simple walk on a bipartite graph: no source ever mixes.
        let g = gen::cycle(8);
        let err = graph_mixing_time(&g, EPS, WalkKind::Simple, 50).unwrap_err();
        assert_eq!(err, MixingError::NotMixedWithin(50));
    }

    #[test]
    #[should_panic(expected = "(0,1)")]
    fn bad_eps_rejected() {
        let g = gen::path(4);
        let _ = mixing_time(&g, 0, 1.5, WalkKind::Lazy, 10);
    }

    #[test]
    #[should_panic(expected = "isolated node")]
    fn isolated_source_rejected() {
        // Degree-0 sources never mix and used to spin to max_t (simple
        // walk) or drift (lazy); now rejected at the API boundary.
        let mut b = lmt_graph::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let _ = mixing_time(&g, 3, EPS, WalkKind::Lazy, 100);
    }

    #[test]
    fn unit_weights_mixing_time_bit_identical() {
        let (g, _) = gen::barbell(3, 4);
        let wg = lmt_graph::WeightedGraph::unit(g.clone());
        let a = mixing_time(&g, 0, EPS, WalkKind::Lazy, 10_000).unwrap();
        let b = mixing_time(&wg, 0, EPS, WalkKind::Lazy, 10_000).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            l1_trace(&g, 0, WalkKind::Lazy, 50),
            l1_trace(&wg, 0, WalkKind::Lazy, 50)
        );
    }

    #[test]
    fn heavier_bridge_mixes_faster() {
        // The weighted β-barbell's bottleneck dial: global mixing time is
        // monotone-decreasing in the bridge weight.
        let tau = |w: f64| {
            let (g, _) = gen::weighted_barbell(3, 6, w);
            mixing_time(&g, 0, EPS, WalkKind::Lazy, 200_000)
                .unwrap()
                .tau
        };
        let (slow, unit, fast) = (tau(0.25), tau(1.0), tau(4.0));
        assert!(
            slow > unit && unit > fast,
            "bridge weight must dial mixing: τ(0.25)={slow}, τ(1)={unit}, τ(4)={fast}"
        );
    }
}
