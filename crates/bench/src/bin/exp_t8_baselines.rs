//! T8 — §1.2 positioning: our flood-based estimator vs the Das Sarma et al.
//! sampling model, both estimating the **global** mixing time.
//!
//! Claims echoed: (a) the flood estimator achieves high accuracy at
//! `O(τ log n)`-grade round cost; (b) the sampling estimator has an accuracy
//! floor `≈ √(n/K)` — the "grey area" where it cannot certify ε-mixing;
//! (c) local mixing (Algorithm 2) can undercut both on graphs where
//! `τ_s ≪ τ_mix`.

use lmt_bench::{fmt_opt, oracle_tau_mix, walk_kind_for, EPS};
use lmt_core::baselines::{das_sarma_style_estimate, estimate_global_mixing_time};
use lmt_core::{local_mixing_time_approx, AlgoConfig};
use lmt_graph::gen::{self, Workload};
use lmt_util::table::Table;
use lmt_walks::WalkKind;

fn main() {
    let mut t = Table::new(
        "T8: estimator comparison (global τ_mix unless noted; ε = 1/8e)",
        &[
            "graph",
            "oracle τ_mix",
            "flood τ̂ (rounds)",
            "sampling τ̂ (rounds, floor)",
            "algo2 τ_s ℓ (rounds)",
        ],
    );
    let workloads = vec![
        Workload::new(
            "expander(256,8)".to_string(),
            gen::random_regular(256, 8, 4),
            0,
        ),
        Workload::new(
            "clique-ring(8,32)".to_string(),
            gen::ring_of_cliques_regular(8, 32).0,
            0,
        ),
        Workload::new("complete(256)".to_string(), gen::complete(256), 0),
    ];
    for w in &workloads {
        let kind = walk_kind_for(w);
        assert_eq!(kind, WalkKind::Simple, "all T8 workloads are non-bipartite");
        let oracle = oracle_tau_mix(w, kind, 1 << 20);
        // β = 8 so Algorithm 2 looks for single-clique-sized sets on the
        // clique-ring — the τ_s ≪ τ_mix showcase.
        let mut cfg = AlgoConfig::new(8.0);
        cfg.max_len = 1 << 18;
        let flood = estimate_global_mixing_time(&w.graph, w.source, &cfg).ok();
        let walks = 2000usize;
        let samp = das_sarma_style_estimate(&w.graph, w.source, &cfg, walks);
        let local = local_mixing_time_approx(&w.graph, w.source, &cfg).ok();
        t.row(&[
            w.name.clone(),
            fmt_opt(oracle),
            flood
                .as_ref()
                .map(|f| format!("{} ({})", f.tau, f.metrics.rounds))
                .unwrap_or_else(|| "-".into()),
            format!(
                "{} ({}, floor {:.3})",
                samp.tau.map_or("∞".to_string(), |v| v.to_string()),
                samp.rounds_charged,
                samp.accuracy_floor
            ),
            local
                .map(|l| format!("{} ({})", l.ell, l.metrics.rounds))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    print!("{}", t.render());
    println!("ε = {EPS:.4}; sampling floor > ε on the 256-node workloads at K = 2000 ⇒ grey area (§1.2);");
    println!("expected: flood τ̂ == oracle (±1); algo2 ℓ ≪ flood τ̂ on the clique-ring");
}
