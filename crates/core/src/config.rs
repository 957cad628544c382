//! Shared configuration for the distributed algorithms.

use lmt_congest::binsearch::TieBreak;
use lmt_congest::message::olog_budget;
use lmt_congest::EngineKind;
use lmt_walks::WalkKind;

/// Tunables shared by Algorithm 2, the exact variant, and the baselines.
#[derive(Clone, Copy, Debug)]
pub struct AlgoConfig {
    /// Set-size parameter `β ≥ 1` (candidate sets have `|S| ≥ n/β`).
    pub beta: f64,
    /// Accuracy `ε ∈ (0, 1)`; the paper suggests `1/8e` (§3).
    pub eps: f64,
    /// Fixed-point exponent `c` (values are multiples of `1/n^c`; `c = 6`
    /// per Algorithm 1).
    pub c: u32,
    /// Per-edge budget multiplier: the budget is `multiplier·⌈log₂ n⌉` bits.
    /// Must be at least `c + 2` so Algorithm 1's shares fit.
    pub budget_multiplier: u32,
    /// Sequential or rayon-parallel round engine. No phase of the
    /// algorithms in this crate runs on the engine (the BFS, the flood and
    /// the tree phases are sequential), so it affects no result:
    /// Parallel ≡ Sequential holds trivially.
    pub engine: EngineKind,
    /// Master seed for all per-node randomness: the binary search's
    /// [`TieBreak::RandomJitter`] draws and the sampling baselines' walks.
    /// The BFS and the flood are deterministic and ignore it.
    pub seed: u64,
    /// Hard cap on the walk length explored (guards non-terminating cases,
    /// e.g. simple walks on bipartite graphs).
    pub max_len: u64,
    /// Round budget for the sampling baseline's probe schedule
    /// (`das_sarma_style_estimate`): when set, probing stops before the
    /// total charged rounds would exceed it, and the estimator bails out
    /// immediately in the grey area (accuracy floor `√(n/K) > ε`), where no
    /// probe can certify mixing anyway (§1.2). `None` (the default)
    /// reproduces \[10\]'s behavior of probing doubling lengths up to
    /// [`AlgoConfig::max_len`].
    pub probe_budget: Option<u64>,
    /// Tie handling in the distributed binary search (§3.1).
    pub tie: TieBreak,
    /// Walk kind: lazy for bipartite graphs (footnote 5), else simple.
    pub kind: WalkKind,
}

impl AlgoConfig {
    /// Paper-faithful defaults for a given `β`: `ε = 1/8e`, `c = 6`.
    pub fn new(beta: f64) -> Self {
        AlgoConfig {
            beta,
            eps: 1.0 / (8.0 * std::f64::consts::E),
            c: 6,
            budget_multiplier: 10,
            engine: EngineKind::Sequential,
            seed: 0xC0FFEE,
            max_len: 1 << 22,
            probe_budget: None,
            tie: TieBreak::ThresholdCorrection,
            kind: WalkKind::Simple,
        }
    }

    /// The per-edge bit budget for an `n`-node run.
    pub fn budget_bits(&self, n: usize) -> u32 {
        olog_budget(n, self.budget_multiplier)
    }

    /// Validate invariants.
    pub fn validate(&self) {
        assert!(self.beta >= 1.0, "β must be ≥ 1 (got {})", self.beta);
        assert!(
            self.eps > 0.0 && self.eps < 0.25,
            "ε must lie in (0, 0.25) so the 4ε test stays below 1 (got {})",
            self.eps
        );
        assert!(self.c >= 2, "fixed-point exponent c must be ≥ 2");
        assert!(
            self.budget_multiplier >= self.c + 2,
            "budget multiplier {} too small for c = {} (shares would not fit)",
            self.budget_multiplier,
            self.c
        );
    }

    /// The `(1+ε)`-geometric grid of candidate set sizes `⌈n/β⌉ … n`
    /// (Algorithm 2, step 5): the oracle's grid,
    /// [`lmt_walks::local::geometric_grid`].
    pub fn size_grid(&self, n: usize) -> Vec<usize> {
        lmt_walks::local::geometric_grid(n, self.beta, self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        AlgoConfig::new(4.0).validate();
    }

    #[test]
    fn grid_matches_walks_oracle_grid() {
        let cfg = AlgoConfig::new(8.0);
        let mut opts = lmt_walks::local::LocalMixOptions::new(8.0);
        opts.eps = cfg.eps;
        let ours = cfg.size_grid(256);
        let oracle = lmt_walks::local::size_grid(256, &opts);
        assert_eq!(ours, oracle);
    }

    #[test]
    fn size_grid_tiny_eps_returns_every_size() {
        // `1 + 1e-17 == 1`: a per-step loop would never end.
        let mut cfg = AlgoConfig::new(2.0);
        cfg.eps = 1e-17;
        cfg.validate();
        assert_eq!(cfg.size_grid(100), (50..=100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "β must be ≥ 1")]
    fn beta_below_one_rejected() {
        AlgoConfig::new(0.5).validate();
    }

    #[test]
    #[should_panic(expected = "too small for c")]
    fn tight_budget_rejected() {
        let mut cfg = AlgoConfig::new(2.0);
        cfg.budget_multiplier = 6;
        cfg.validate();
    }
}
