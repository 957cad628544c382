//! T1 — §2.3 calibration: local vs global mixing time across graph classes.
//!
//! Claims checked (shape, not constants):
//! * complete:  τ_s ≈ τ_mix ≈ O(1)
//! * expander:  τ_s ≈ τ_mix ≈ Θ(log n)
//! * path:      τ_mix = Θ(n²), τ_s = Θ(n²/β²)  (gap ≈ β²)
//! * clique chain (β-barbell stand-in): τ_s = O(1), τ_mix = Ω(β²·k)

use lmt_bench::{classic_workloads, fmt_opt, oracle_tau, oracle_tau_mix, walk_kind_for};
use lmt_util::table::Table;

fn main() {
    let beta = 8usize;
    let mut t = Table::new(
        format!("T1: local vs global mixing time (β = {beta}, ε = 1/8e)"),
        &["graph", "n", "τ_s(β,ε)", "τ_mix_s(ε)", "gap"],
    );
    for n in [128usize, 256, 512] {
        for w in classic_workloads(n, beta, 42) {
            let kind = walk_kind_for(&w);
            let cap = 4 * n * n;
            let tau_local = oracle_tau(&w, beta as f64, kind, cap);
            let tau_mix = oracle_tau_mix(&w, kind, cap);
            let gap = match (tau_local, tau_mix) {
                (Some(l), Some(m)) if l > 0 => format!("{:.1}", m as f64 / l as f64),
                (Some(0), Some(m)) => format!(">{m}"),
                _ => "-".into(),
            };
            t.row(&[
                w.name.clone(),
                n.to_string(),
                fmt_opt(tau_local),
                fmt_opt(tau_mix),
                gap,
            ]);
        }
    }
    print!("{}", t.render());
    println!("expected shape: complete ≈1 · expander O(log n), gap ≈1 · clique-ring τ_s = O(1), huge gap");
    println!("boundary effects we observe and document (EXPERIMENTS.md):");
    println!(
        " * clique-ring at k = n/β = 16: the bridge-leak mass deficit (~0.06) exceeds ε = 1/8e,"
    );
    println!("   so the strict Definition-2 oracle only accepts at global mixing; k ≥ 32 shows the O(1) claim.");
    println!(
        " * path: the paper's τ_s = O(n²/β²) claim does NOT hold under Definition 2 with fixed ε —"
    );
    println!("   the endpoint walk's Gaussian profile is never ε-flat on any ≥ n/β window before");
    println!(
        "   near-global mixing (gap ≈ 1 here). The claim holds only for a sub-path in isolation."
    );
}
