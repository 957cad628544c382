//! Extension: local mixing time on **non-regular** graphs (§5 open problem).
//!
//! Definition 2 is degree-aware: the target is `π_S(v) = d(v)/µ(S)`, which
//! couples the per-node cost to the chosen set through `µ(S)`. The sorted-
//! window trick of the regular case no longer applies, and the paper leaves
//! the general case open ("whether it is possible to compute the local
//! mixing time efficiently … in arbitrary graphs").
//!
//! This module provides a **centralized heuristic upper bound**: candidate
//! sets are prefixes of the degree-normalized ordering (nodes sorted by
//! `p_t(u)/d(u)` descending — the natural sweep order, since inside a mixed
//! set `p(u)/d(u) ≈ 1/µ(S)` is flat), and the acceptance test uses the true
//! `π_S` target. The first `t` at which any allowed prefix passes is
//! reported. It is an upper bound because only `n` of the `2^n` candidate
//! sets are inspected; tests validate it against the brute-force oracle on
//! tiny graphs.

use lmt_graph::Graph;
use lmt_walks::step::{step, WalkKind};
use lmt_walks::Dist;

/// Result of the non-regular heuristic.
#[derive(Clone, Debug)]
pub struct GeneralLocalMix {
    /// First accepted step.
    pub tau: usize,
    /// Size of the accepted prefix set.
    pub set_size: usize,
    /// The accepted set (node ids).
    pub set: Vec<usize>,
    /// Achieved restricted L1 distance.
    pub l1: f64,
}

/// Heuristic local mixing time for arbitrary connected graphs.
///
/// Returns `None` if no prefix of allowed size passes within `max_t` steps.
pub fn local_mixing_time_general(
    g: &Graph,
    src: usize,
    beta: f64,
    eps: f64,
    kind: WalkKind,
    max_t: usize,
) -> Option<GeneralLocalMix> {
    assert!(beta >= 1.0, "β must be ≥ 1");
    assert!(eps > 0.0 && eps < 1.0, "ε must lie in (0,1)");
    assert!(src < g.n(), "source out of range");
    let n = g.n();
    let r_min = ((n as f64 / beta).ceil() as usize).clamp(1, n);
    let mut p = Dist::point(n, src);
    for t in 0..=max_t {
        if let Some(res) = best_prefix(g, &p, r_min, eps) {
            return Some(GeneralLocalMix {
                tau: t,
                set_size: res.0.len(),
                l1: res.1,
                set: res.0,
            });
        }
        if t < max_t {
            p = step(g, &p, kind);
        }
    }
    None
}

/// Scan prefixes of the `p(u)/d(u)`-descending ordering; return the first
/// (smallest) prefix of size ≥ `r_min` with `Σ_{u∈S}|p(u) − d(u)/µ(S)| < ε`.
fn best_prefix(g: &Graph, p: &Dist, r_min: usize, eps: f64) -> Option<(Vec<usize>, f64)> {
    let n = g.n();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let sa = p.get(a) / g.degree(a).max(1) as f64;
        let sb = p.get(b) / g.degree(b).max(1) as f64;
        sb.partial_cmp(&sa).expect("NaN score").then(a.cmp(&b))
    });
    // Incremental prefix volume; the distance needs a full pass per prefix
    // (µ changes), so this is O(n²) per step — heuristic-scale only.
    let mut volume = 0usize;
    let degrees: Vec<usize> = order.iter().map(|&u| g.degree(u)).collect();
    for k in r_min..=n {
        volume += degrees[k - 1];
        // Complete the volume for the first prefix checked.
        if k == r_min {
            volume = order[..k].iter().map(|&u| g.degree(u)).sum();
        }
        if volume == 0 {
            continue;
        }
        let mu = volume as f64;
        let dist: f64 = order[..k]
            .iter()
            .map(|&u| (p.get(u) - g.degree(u) as f64 / mu).abs())
            .sum();
        if dist < eps {
            return Some((order[..k].to_vec(), dist));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmt_graph::gen;
    use lmt_walks::local::brute_force_local_mixing_time;

    const EPS: f64 = 1.0 / (8.0 * std::f64::consts::E);

    #[test]
    fn upper_bounds_brute_force_on_tiny_nonregular_graph() {
        let g = gen::lollipop(6, 3); // decidedly non-regular
        let heur = local_mixing_time_general(&g, 0, 2.0, EPS, WalkKind::Lazy, 2000).unwrap();
        let (brute, _) =
            brute_force_local_mixing_time(&g, 0, 2.0, EPS, WalkKind::Lazy, 2000).unwrap();
        assert!(
            heur.tau >= brute,
            "heuristic {} must not beat the optimum {}",
            heur.tau,
            brute
        );
        // And it should be in the right ballpark (within the global mixing
        // time, which is an upper bound on any local mixing quantity).
        let global = lmt_walks::mixing::mixing_time(&g, 0, EPS, WalkKind::Lazy, 10_000)
            .unwrap()
            .tau;
        assert!(heur.tau <= global.max(1));
    }

    #[test]
    fn matches_regular_intuition_on_barbell() {
        // 2-barbell (Figure 1, β = 2), non-regular: the true Definition-2
        // target accepts the source clique once the lazy walk flattens inside
        // it (one bridge ⇒ tiny mass deficit). Note this is genuinely slower
        // than the *flat-window* oracle semantics, which can trade the set
        // size against leaked mass (a set of size R > |clique| with target
        // 1/R absorbs the deficit); with the exact π_S target the deficit
        // lower-bounds the distance.
        let (g, spec) = gen::barbell(2, 12);
        let r = local_mixing_time_general(&g, 0, 2.0, EPS, WalkKind::Lazy, 100).unwrap();
        assert!(r.tau <= 8, "clique should mix locally fast, got {}", r.tau);
        assert_eq!(r.set_size, spec.clique_size);
        // All members of the accepted set are the source clique.
        let mut set = r.set.clone();
        set.sort_unstable();
        assert_eq!(set, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn set_contains_high_probability_nodes() {
        let g = gen::lollipop(8, 4);
        let r = local_mixing_time_general(&g, 0, 2.0, EPS, WalkKind::Lazy, 5000).unwrap();
        assert!(r.set.len() >= g.n() / 2);
        assert!(r.l1 < EPS);
    }

    #[test]
    fn returns_none_when_capped() {
        let g = gen::path(64);
        assert!(local_mixing_time_general(&g, 0, 1.0, EPS, WalkKind::Lazy, 3).is_none());
    }
}
