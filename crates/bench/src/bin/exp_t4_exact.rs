//! T4 — Theorem 2: the exact algorithm's output and round complexity
//! `O(τ_s · D̃ · log n · log_{1+ε} β)`, `D̃ = min{τ_s, D}`.

use lmt_bench::EPS;
use lmt_core::exact::local_mixing_time_exact_distributed;
use lmt_core::AlgoConfig;
use lmt_graph::gen::{self, Workload};
use lmt_graph::props::diameter;
use lmt_util::table::Table;

fn main() {
    let beta = 4.0;
    let mut t = Table::new(
        "T4: exact algorithm (β = 4): output, rounds, Theorem 2 bound",
        &[
            "graph",
            "n",
            "D",
            "τ out",
            "rounds",
            "τ·D̃·log n·log_{1+ε}β",
            "ratio",
        ],
    );
    let mut workloads = vec![
        Workload::new("complete(128)".to_string(), gen::complete(128), 0),
        Workload::new(
            "expander(128,8)".to_string(),
            gen::random_regular(128, 8, 3),
            0,
        ),
        Workload::new(
            "clique-ring(8,16)".to_string(),
            gen::ring_of_cliques_regular(8, 16).0,
            0,
        ),
    ];
    workloads.push(Workload::new("path(64) β=4".to_string(), gen::path(64), 0));
    for w in &workloads {
        let n = w.graph.n();
        let d = diameter(&w.graph).unwrap() as f64;
        let mut cfg = AlgoConfig::new(beta);
        cfg.max_len = 1 << 14;
        match local_mixing_time_exact_distributed(&w.graph, w.source, &cfg) {
            Ok(r) => {
                let d_tilde = d.min(r.ell as f64).max(1.0);
                let log_n = (n as f64).log2().max(1.0);
                let log_beta = (beta.ln() / (1.0 + EPS).ln()).max(1.0);
                let bound = r.ell as f64 * d_tilde * log_n * log_beta;
                t.row(&[
                    w.name.clone(),
                    n.to_string(),
                    format!("{d:.0}"),
                    r.ell.to_string(),
                    r.metrics.rounds.to_string(),
                    format!("{bound:.0}"),
                    format!("{:.3}", r.metrics.rounds as f64 / bound),
                ]);
            }
            Err(e) => {
                t.row(&[
                    w.name.clone(),
                    n.to_string(),
                    format!("{d:.0}"),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    format!("{e}"),
                ]);
            }
        }
    }
    print!("{}", t.render());
    println!("expected: ratio stays O(1); path (non-regular ends) uses the paper's flat treatment");
}
