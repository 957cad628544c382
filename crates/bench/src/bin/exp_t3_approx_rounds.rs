//! T3 — Theorem 1 round complexity: measured rounds vs
//! `O(τ_s · log² n · log_{1+ε} β)`.
//!
//! Reports the measured round count of Algorithm 2 and the ratio to the
//! theorem's bound (which should stay bounded by a constant as n grows).

use lmt_bench::EPS;
use lmt_core::{local_mixing_time_approx, AlgoConfig};
use lmt_graph::gen::{self, Workload};
use lmt_util::table::Table;

fn bound(tau: f64, n: f64, beta: f64) -> f64 {
    let log_n = n.log2().max(1.0);
    let log_beta = (beta.ln() / (1.0 + EPS).ln()).max(1.0);
    tau.max(1.0) * log_n * log_n * log_beta
}

fn main() {
    let mut t = Table::new(
        "T3: Algorithm 2 measured rounds vs Theorem 1 bound (β = 4)",
        &[
            "graph",
            "n",
            "ℓ out",
            "rounds",
            "bound τ·log²n·log_{1+ε}β",
            "rounds/bound",
        ],
    );
    let mut workloads = Vec::new();
    for n in [64usize, 128, 256, 512] {
        workloads.push(Workload::new(
            format!("expander(n={n},d=8)"),
            gen::random_regular(n, 8, 5),
            0,
        ));
    }
    for beta_blocks in [4usize, 8, 16] {
        let k = 16;
        workloads.push(Workload::new(
            format!("clique-ring(β={beta_blocks},k={k})"),
            gen::ring_of_cliques_regular(beta_blocks, k).0,
            0,
        ));
    }
    for w in &workloads {
        let n = w.graph.n();
        let cfg = AlgoConfig::new(4.0);
        match local_mixing_time_approx(&w.graph, w.source, &cfg) {
            Ok(r) => {
                let b = bound(r.ell as f64, n as f64, 4.0);
                t.row(&[
                    w.name.clone(),
                    n.to_string(),
                    r.ell.to_string(),
                    r.metrics.rounds.to_string(),
                    format!("{b:.0}"),
                    format!("{:.3}", r.metrics.rounds as f64 / b),
                ]);
            }
            Err(e) => {
                t.row(&[
                    w.name.clone(),
                    n.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("{e}"),
                ]);
            }
        }
    }
    print!("{}", t.render());
    println!("expected: rounds/bound stays O(1) (no upward drift with n or β)");
}
