//! T6 — footnote 10: CONGEST-limited push–pull needs
//! `O(τ(β,ε)·log n + n/β)` rounds (a node receiving one token per round
//! needs Ω(n/(βd)) rounds just to collect n/β tokens).

use lmt_bench::{classic_workloads, oracle_tau, walk_kind_for};
use lmt_gossip::coverage::rounds_to_beta_spread;
use lmt_gossip::GossipMode;
use lmt_util::table::Table;

fn main() {
    let beta = 8usize;
    let mut t = Table::new(
        "T6: CONGEST-limited push-pull (β = 8): rounds vs τ·ln n + n/β",
        &[
            "graph",
            "n",
            "LOCAL rounds",
            "CONGEST rounds",
            "τ·ln n + n/β",
            "ratio",
        ],
    );
    for w in classic_workloads(256, beta, 42) {
        let n = w.graph.n();
        let kind = walk_kind_for(&w);
        let tau = oracle_tau(&w, beta as f64, kind, 400_000).unwrap_or(1);
        let cap = 2_000_000u64;
        let local = rounds_to_beta_spread(&w.graph, beta as f64, GossipMode::Local, 11, cap);
        let congest =
            rounds_to_beta_spread(&w.graph, beta as f64, GossipMode::CongestLimited, 11, cap);
        let theory = tau.max(1) as f64 * (n as f64).ln() + n as f64 / beta as f64;
        let ratio = congest
            .map(|c| format!("{:.2}", c as f64 / theory))
            .unwrap_or_else(|| "cap".into());
        t.row(&[
            w.name.clone(),
            n.to_string(),
            local.map_or("cap".into(), |r| r.to_string()),
            congest.map_or("cap".into(), |r| r.to_string()),
            format!("{theory:.0}"),
            ratio,
        ]);
    }
    print!("{}", t.render());
    println!("expected: CONGEST ≥ LOCAL everywhere; ratio O(1); the n/β term dominates on the complete graph");
}
