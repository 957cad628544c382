//! Baseline estimators from the paper's related work (§1.2), reimplemented
//! on the same substrate so experiment T8's comparison is apples-to-apples.
//!
//! * [`estimate_global_mixing_time`] — the Molla–Pandurangan \[18\] style
//!   estimator of the **global** mixing time `τ_mix_s(ε)`: deterministic
//!   probability flooding plus a distributed distance check against the
//!   stationary distribution. Because the *global* L1 distance is monotone
//!   (Lemma 1), doubling + binary search over the length is sound here —
//!   precisely the structure that fails for local mixing (the restricted
//!   distance is not monotone), which is the paper's §1 point about why
//!   Algorithm 2 is non-trivial.
//! * [`das_sarma_style_estimate`] — a model of the Das Sarma et al. \[10\]
//!   sampling approach: `K` random-walk tokens of length `ℓ` are sampled and
//!   the **empirical** endpoint distribution is compared to the stationary
//!   one. We charge `ℓ + K` rounds per probe (pipelined tokens, an
//!   assumption *generous* to the baseline — \[10\]'s actual machinery pays
//!   `Õ(√(ℓD))` per walk) and surface the sampling-accuracy floor
//!   `≈ √(n/K)` that creates the paper's "grey area": for ε below the
//!   floor the estimate is unreliable (§1.2).

use crate::approx::{check_source, AlgoError};
use crate::config::AlgoConfig;
use lmt_congest::bfs::build_bfs_tree;
use lmt_congest::flood::FloodGraph;
use lmt_congest::message::id_bits;
use lmt_congest::tree::{convergecast, Op, Wide};
use lmt_congest::Metrics;
use lmt_graph::Graph;
use lmt_util::fixed::{FixedQ, FixedScale};
use lmt_walks::sampler::empirical_distribution;
use lmt_walks::stationary::stationary;

/// Output of the global mixing-time estimator.
#[derive(Clone, Debug)]
pub struct MixingEstimate {
    /// Estimated `τ_mix_s(ε)` (exact w.r.t. fixed-point semantics).
    pub tau: u64,
    /// Total CONGEST cost.
    pub metrics: Metrics,
}

/// Distributed check `‖p̃_ℓ − π‖₁ < ε` at one length: flood `ℓ` rounds, then
/// convergecast the sum of local differences over a spanning BFS tree.
fn distance_at(
    g: &Graph,
    tree: &lmt_congest::bfs::BfsTree,
    ell: u64,
    src: usize,
    cfg: &AlgoConfig,
    budget: u32,
    metrics: &mut Metrics,
) -> Result<FixedQ, AlgoError> {
    let (weights, scale, m_flood) = g.estimate_flood(
        src,
        ell,
        cfg.c,
        cfg.kind,
        budget,
        cfg.engine,
        cfg.seed.wrapping_add(0x9000 + ell),
    )?;
    metrics.absorb(&m_flood);
    // π(u) = d(u)/2m: every node computes its own stationary entry locally
    // (n and m are model inputs, §1.1).
    let two_m = g.total_volume();
    let diffs: Vec<u128> = (0..g.n())
        .map(|u| {
            let pi_u = scale.div_round(
                FixedQ::from_numerator(scale.denominator() * g.degree(u) as u128),
                two_m,
            );
            scale.abs_diff(weights[u], pi_u).numerator()
        })
        .collect();
    let width = scale.payload_bits() + id_bits(g.n()) + 1;
    let (sum, m_cc) = convergecast(tree, Op::Sum, |u| Some(Wide::new(diffs[u], width)), budget)?;
    metrics.absorb(&m_cc);
    Ok(FixedQ::from_numerator(sum.map_or(0, |v| v.value)))
}

/// \[18\]-style distributed global mixing time estimation: doubling to
/// bracket, then binary search (sound by Lemma 1 monotonicity).
///
/// A source outside the graph or of degree 0 is an error
/// ([`AlgoError::SourceOutOfRange`], [`AlgoError::IsolatedSource`]).
///
/// # Panics
/// Panics if the graph is not connected.
pub fn estimate_global_mixing_time(
    g: &Graph,
    src: usize,
    cfg: &AlgoConfig,
) -> Result<MixingEstimate, AlgoError> {
    cfg.validate();
    check_source(g, src)?;
    let budget = cfg.budget_bits(g.n());
    let mut metrics = Metrics::default();
    let scale = FixedScale::new(g.n(), cfg.c);
    let eps_num = scale.from_f64(cfg.eps);

    // One spanning BFS tree up front (O(D)).
    let (tree, m_bfs) = build_bfs_tree(g, src, u32::MAX, budget, cfg.engine, cfg.seed)?;
    metrics.absorb(&m_bfs);
    assert!(tree.spanning(), "graph must be connected");

    // Doubling to bracket the first ℓ with distance < ε.
    let mut hi = 1u64;
    loop {
        if hi > cfg.max_len {
            return Err(AlgoError::NotMixedWithin(cfg.max_len));
        }
        let d = distance_at(g, &tree, hi, src, cfg, budget, &mut metrics)?;
        if d < eps_num {
            break;
        }
        hi *= 2;
    }
    if hi == 1 {
        return Ok(MixingEstimate { tau: 1, metrics });
    }
    // Binary search in (hi/2, hi]: monotone by Lemma 1.
    let mut lo = hi / 2 + 1;
    let mut hi_b = hi;
    while lo < hi_b {
        let mid = lo + (hi_b - lo) / 2;
        let d = distance_at(g, &tree, mid, src, cfg, budget, &mut metrics)?;
        if d < eps_num {
            hi_b = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(MixingEstimate { tau: lo, metrics })
}

/// Output of the sampling-based estimator model.
#[derive(Clone, Debug)]
pub struct SamplingEstimate {
    /// Estimated mixing length (first probed `ℓ` whose empirical distance
    /// beats `ε`), or `None` if never within `max_len`.
    pub tau: Option<u64>,
    /// Rounds charged under the pipelined-token model (`Σ (ℓ + K)`).
    pub rounds_charged: u64,
    /// The sampling accuracy floor `√(n/K)` — estimates of distances below
    /// this are unreliable (the §1.2 "grey area").
    pub accuracy_floor: f64,
    /// Number of walks per probe.
    pub walks: usize,
    /// True when probing stopped early because of
    /// [`AlgoConfig::probe_budget`] — either the next probe would have
    /// pushed `rounds_charged` past the budget, or the run was in the grey
    /// area (`accuracy_floor > ε`) where no probe can certify mixing.
    pub bailed_out: bool,
}

impl SamplingEstimate {
    /// Whether the configured accuracy is below the sampling floor — the
    /// §1.2 "grey area" where this estimator's answer is unreliable.
    pub fn in_grey_area(&self, eps: f64) -> bool {
        self.accuracy_floor > eps
    }
}

/// \[10\]-style estimate: probe doubling lengths; per probe, sample `walks`
/// endpoints and compare the empirical distribution to `π`.
///
/// When [`AlgoConfig::probe_budget`] is set, two early bail-outs apply
/// (both flagged via [`SamplingEstimate::bailed_out`]):
///
/// * **grey area** — if the accuracy floor `√(n/K)` already exceeds `ε`,
///   no empirical distance below `ε` is trustworthy, so not a single probe
///   is charged (the §1.2 regime where \[10\]'s approach breaks down);
/// * **budget** — probing stops before any probe whose pipelined cost
///   `ℓ + K` would push `rounds_charged` past the budget.
///
/// # Example
///
/// The grey area in action: with `K = 64` walks on 32 nodes the sampling
/// floor is `√(32/64) ≈ 0.71`, far above the default `ε = 1/8e ≈ 0.046` —
/// so with a probe budget set, the estimator refuses to spend a single
/// round on probes that could not certify mixing anyway.
///
/// ```
/// use lmt_core::baselines::das_sarma_style_estimate;
/// use lmt_core::AlgoConfig;
/// use lmt_graph::gen;
///
/// let g = gen::complete(32);
/// let mut cfg = AlgoConfig::new(2.0);
/// cfg.probe_budget = Some(10_000);
/// let est = das_sarma_style_estimate(&g, 0, &cfg, 64);
/// assert!(est.bailed_out);
/// assert!(est.in_grey_area(cfg.eps));
/// assert_eq!(est.rounds_charged, 0);
/// ```
pub fn das_sarma_style_estimate(
    g: &Graph,
    src: usize,
    cfg: &AlgoConfig,
    walks: usize,
) -> SamplingEstimate {
    cfg.validate();
    assert!(walks > 0, "need at least one walk");
    let pi = stationary(g);
    let accuracy_floor = (g.n() as f64 / walks as f64).sqrt();
    if cfg.probe_budget.is_some() && accuracy_floor > cfg.eps {
        return SamplingEstimate {
            tau: None,
            rounds_charged: 0,
            accuracy_floor,
            walks,
            bailed_out: true,
        };
    }
    let mut rounds = 0u64;
    let mut ell = 1u64;
    while ell <= cfg.max_len {
        if let Some(budget) = cfg.probe_budget {
            if rounds + ell + walks as u64 > budget {
                return SamplingEstimate {
                    tau: None,
                    rounds_charged: rounds,
                    accuracy_floor,
                    walks,
                    bailed_out: true,
                };
            }
        }
        rounds += ell + walks as u64;
        let emp = empirical_distribution(
            g,
            src,
            ell as usize,
            walks,
            cfg.seed.wrapping_add(0xDA5 + ell),
        );
        if emp.l1_distance(&pi) < cfg.eps {
            return SamplingEstimate {
                tau: Some(ell),
                rounds_charged: rounds,
                accuracy_floor,
                walks,
                bailed_out: false,
            };
        }
        ell *= 2;
    }
    SamplingEstimate {
        tau: None,
        rounds_charged: rounds,
        accuracy_floor,
        walks,
        bailed_out: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmt_graph::gen;
    use lmt_walks::mixing::mixing_time;
    use lmt_walks::WalkKind;

    #[test]
    fn flood_estimator_matches_oracle_on_complete_graph() {
        let g = gen::complete(16);
        let cfg = AlgoConfig::new(1.0);
        let est = estimate_global_mixing_time(&g, 0, &cfg).unwrap();
        let oracle = mixing_time(&g, 0, cfg.eps, WalkKind::Simple, 100).unwrap();
        assert_eq!(est.tau, oracle.tau as u64);
    }

    #[test]
    fn flood_estimator_matches_oracle_on_expander() {
        let g = gen::random_regular(64, 6, 11);
        let cfg = AlgoConfig::new(1.0);
        let est = estimate_global_mixing_time(&g, 0, &cfg).unwrap();
        let oracle = mixing_time(&g, 0, cfg.eps, WalkKind::Simple, 10_000).unwrap();
        // Fixed-point vs f64 can differ by at most one step at the boundary.
        assert!(
            est.tau.abs_diff(oracle.tau as u64) <= 1,
            "est {} vs oracle {}",
            est.tau,
            oracle.tau
        );
    }

    #[test]
    fn bad_sources_are_errors() {
        let cfg = AlgoConfig::new(1.0);
        let err = estimate_global_mixing_time(&gen::complete(4), 4, &cfg).unwrap_err();
        assert_eq!(err, AlgoError::SourceOutOfRange { src: 4, n: 4 });
        let lone = lmt_graph::GraphBuilder::new(1).build();
        let err = estimate_global_mixing_time(&lone, 0, &cfg).unwrap_err();
        assert_eq!(err, AlgoError::IsolatedSource(0));
    }

    #[test]
    fn bipartite_never_mixes_reports_error() {
        let g = gen::cycle(8);
        let mut cfg = AlgoConfig::new(1.0);
        cfg.max_len = 64;
        let err = estimate_global_mixing_time(&g, 0, &cfg).unwrap_err();
        assert_eq!(err, AlgoError::NotMixedWithin(64));
    }

    #[test]
    fn sampling_estimator_finds_complete_graph_tau() {
        // Note: K_16's τ_mix(1/8e) is 2, not 1 — at ℓ = 1 the L1 distance is
        // exactly 2/n = 0.125 > 1/8e. The doubling probe schedule hits 2.
        let g = gen::complete(16);
        let cfg = AlgoConfig::new(1.0);
        let oracle = mixing_time(&g, 0, cfg.eps, WalkKind::Simple, 100).unwrap();
        assert_eq!(oracle.tau, 2);
        let est = das_sarma_style_estimate(&g, 0, &cfg, 20_000);
        assert_eq!(est.tau, Some(2));
        assert!(est.accuracy_floor < cfg.eps);
    }

    #[test]
    fn sampling_grey_area_with_few_walks() {
        // With K ≪ n/ε² the floor exceeds ε: the estimator is unreliable and
        // typically fails to certify mixing at all. Without a probe budget
        // it still pays for every probe up to max_len ([10]'s behavior).
        let g = gen::complete(64);
        let mut cfg = AlgoConfig::new(1.0);
        cfg.max_len = 16;
        let est = das_sarma_style_estimate(&g, 0, &cfg, 10);
        assert!(est.accuracy_floor > cfg.eps);
        assert!(est.in_grey_area(cfg.eps));
        assert!(est.tau.is_none(), "should not certify with 10 walks");
        assert!(!est.bailed_out);
        assert!(est.rounds_charged > 0);
    }

    #[test]
    fn probe_budget_bails_out_immediately_in_grey_area() {
        // Same grey-area setup, but with a probe budget: the estimator must
        // return without charging a single probe instead of probing to
        // max_len (which is left at its enormous default on purpose — if
        // the bail-out regressed, this test would hang rather than pass).
        let g = gen::complete(64);
        let mut cfg = AlgoConfig::new(1.0);
        cfg.probe_budget = Some(1_000_000);
        let est = das_sarma_style_estimate(&g, 0, &cfg, 10);
        assert!(est.in_grey_area(cfg.eps));
        assert!(est.bailed_out);
        assert_eq!(est.rounds_charged, 0);
        assert!(est.tau.is_none());
    }

    #[test]
    fn probe_budget_caps_rounds_outside_grey_area() {
        // Bipartite cycle: the simple walk never mixes, so unbudgeted
        // probing would double ℓ all the way to max_len. K = 5000 keeps the
        // floor √(8/5000) ≈ 0.04 below ε ≈ 0.046 (not grey), so only the
        // budget can stop it: probes cost ℓ + K, so 12_000 admits ℓ = 1 and
        // ℓ = 2 but not ℓ = 4.
        let g = gen::cycle(8);
        let mut cfg = AlgoConfig::new(1.0);
        cfg.max_len = 1 << 14; // safety net: still fast if the cap regresses
        cfg.probe_budget = Some(12_000);
        let walks = 5_000;
        let est = das_sarma_style_estimate(&g, 0, &cfg, walks);
        assert!(!est.in_grey_area(cfg.eps), "floor {}", est.accuracy_floor);
        assert!(est.bailed_out);
        assert!(
            est.rounds_charged <= 12_000,
            "charged {} rounds past the budget",
            est.rounds_charged
        );
        assert_eq!(est.rounds_charged, (1 + walks as u64) + (2 + walks as u64));
        assert!(est.tau.is_none());
    }

    #[test]
    fn probe_budget_does_not_disturb_successful_estimates() {
        // Where the estimator succeeds within budget, the answer must be
        // identical to the unbudgeted run.
        let g = gen::complete(16);
        let cfg = AlgoConfig::new(1.0);
        let unbudgeted = das_sarma_style_estimate(&g, 0, &cfg, 20_000);
        let mut b_cfg = cfg;
        b_cfg.probe_budget = Some(1_000_000);
        let budgeted = das_sarma_style_estimate(&g, 0, &b_cfg, 20_000);
        assert_eq!(budgeted.tau, unbudgeted.tau);
        assert_eq!(budgeted.rounds_charged, unbudgeted.rounds_charged);
        assert!(!budgeted.bailed_out);
    }
}
