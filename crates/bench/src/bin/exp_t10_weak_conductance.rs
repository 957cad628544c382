//! T10 — §5 open problem: empirical relationship between local mixing time
//! `τ_s(β,ε)` and weak conductance `Φ_β(G)` \[4\].
//!
//! By analogy with `1/(1−λ₂) ≤ τ_mix ≤ log n/(1−λ₂)` and Cheeger, a natural
//! conjecture is `τ(β) = Õ(1/Φ_β²)` / `Ω(1/Φ_β)`. We report `τ·Φ_β` and
//! `τ·Φ_β²` across workloads (exact Φ on tiny graphs, heuristic at scale —
//! clearly marked).

use lmt_bench::{oracle_tau, walk_kind_for, EPS};
use lmt_core::general::local_mixing_time_general;
use lmt_graph::gen::{self, Workload};
use lmt_spectral::weak::{weak_conductance_exact, weak_conductance_heuristic};
use lmt_util::table::Table;
use lmt_walks::WalkKind;

fn main() {
    let mut t = Table::new(
        "T10: τ_s(β,ε) vs weak conductance Φ_β (heuristic Φ marked with ~)",
        &["graph", "β", "τ_s", "Φ_β", "τ·Φ", "τ·Φ²"],
    );
    // Tiny graphs: exact Φ_β. The barbell is non-regular, so its τ_s uses
    // the true-π_S general heuristic (the flat-window oracle never accepts
    // when stationary entries differ across degrees).
    for (name, g, beta) in [
        ("barbell(2,5) [exact]", gen::barbell(2, 5).0, 2.0),
        ("complete(10) [exact]", gen::complete(10), 2.0),
    ] {
        let w = Workload::new(name, g, 0);
        let kind = walk_kind_for(&w);
        let tau = local_mixing_time_general(&w.graph, w.source, beta, EPS, kind, 100_000)
            .map(|r| r.tau as f64)
            .unwrap_or_else(|| oracle_tau(&w, beta, WalkKind::Lazy, 100_000).unwrap_or(0) as f64);
        let phi = weak_conductance_exact(&w.graph, beta);
        t.row(&[
            w.name.clone(),
            format!("{beta}"),
            format!("{tau}"),
            format!("{phi:.4}"),
            format!("{:.3}", tau * phi),
            format!("{:.3}", tau * phi * phi),
        ]);
    }
    // Experiment scale: heuristic Φ_β.
    for (name, g, beta) in [
        (
            "clique-ring(4,16)",
            gen::ring_of_cliques_regular(4, 16).0,
            4.0,
        ),
        (
            "clique-ring(8,16)",
            gen::ring_of_cliques_regular(8, 16).0,
            8.0,
        ),
        ("expander(128,8)", gen::random_regular(128, 8, 6), 4.0),
    ] {
        let w = Workload::new(name, g, 0);
        let kind = walk_kind_for(&w);
        let tau = oracle_tau(&w, beta, kind, 200_000).unwrap() as f64;
        let sources: Vec<usize> = (0..w.graph.n()).step_by(w.graph.n() / 8).collect();
        let phi = weak_conductance_heuristic(&w.graph, beta, &sources, 10);
        t.row(&[
            format!("{} [~heur]", w.name),
            format!("{beta}"),
            format!("{tau}"),
            format!("~{phi:.4}"),
            format!("{:.3}", tau * phi),
            format!("{:.3}", tau * phi * phi),
        ]);
    }
    print!("{}", t.render());
    println!("reading: large Φ_β coincides with small τ_s across workloads, consistent with a");
    println!(
        "Cheeger-style τ(β) = Õ(1/Φ_β^2) relationship; a proof remains the paper's open problem."
    );
}
