//! T5 — Theorem 3: push–pull achieves (δ,β)-partial information spreading
//! in O(τ(β,ε)·log n) rounds (LOCAL model).
//!
//! For each workload we measure rounds-to-β-spread over several seeds and
//! compare with τ_s(β,ε)·ln n (using the source-τ as a stand-in for the
//! graph-τ, which is the max over sources — see footnote 6 of the paper).

use lmt_bench::{classic_workloads, oracle_tau, walk_kind_for};
use lmt_gossip::coverage::rounds_to_beta_spread;
use lmt_gossip::GossipMode;
use lmt_util::stats::summarize;
use lmt_util::table::Table;

fn main() {
    let beta = 8usize;
    let mut t = Table::new(
        "T5: rounds to (δ,β)-partial spreading, push-pull LOCAL (β = 8, 5 seeds)",
        &[
            "graph",
            "n",
            "τ_s(β,ε)",
            "τ·ln n",
            "spread rounds (med)",
            "max",
            "ratio med/(τ·ln n)",
        ],
    );
    for w in classic_workloads(256, beta, 42) {
        let n = w.graph.n();
        let kind = walk_kind_for(&w);
        let tau = oracle_tau(&w, beta as f64, kind, 400_000).unwrap_or(u64::MAX);
        let budget = (tau.max(1) as f64 * (n as f64).ln() * 50.0) as u64 + 5_000;
        let rounds: Vec<f64> = (0..5)
            .filter_map(|s| {
                rounds_to_beta_spread(&w.graph, beta as f64, GossipMode::Local, 100 + s, budget)
            })
            .map(|r| r as f64)
            .collect();
        if rounds.is_empty() {
            t.row(&[
                w.name.clone(),
                n.to_string(),
                tau.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "cap".into(),
            ]);
            continue;
        }
        let st = summarize(&rounds);
        let theory = tau.max(1) as f64 * (n as f64).ln();
        t.row(&[
            w.name.clone(),
            n.to_string(),
            tau.to_string(),
            format!("{theory:.0}"),
            format!("{:.0}", st.median),
            format!("{:.0}", st.max),
            format!("{:.2}", st.median / theory),
        ]);
    }
    print!("{}", t.render());
    println!(
        "expected: ratio is O(1) and does not blow up on the clique-ring (where τ_mix·ln n would)"
    );
}
