//! T9 — the monotonicity asymmetry that motivates doubling over binary
//! search (§2.2, §3.1):
//!
//! * Lemma 1: the **global** distance `‖p_t − π‖₁` is non-increasing — we
//!   verify every consecutive pair.
//! * The **restricted** distance `‖p_tS − π_S‖₁` (fixed S = source clique)
//!   is NOT monotone — we exhibit the first increase.

use lmt_graph::gen;
use lmt_util::table::Table;
use lmt_walks::local::restricted_trace;
use lmt_walks::mixing::l1_trace;
use lmt_walks::WalkKind;

fn main() {
    let (g, spec) = gen::ring_of_cliques_regular(4, 16);
    let t_max = 120;
    let global = l1_trace(&g, 1, WalkKind::Simple, t_max);
    let clique: Vec<usize> = spec.clique_nodes(0).collect();
    let restricted = restricted_trace(&g, 1, &clique, WalkKind::Simple, t_max);

    let global_violations = global.windows(2).filter(|w| w[1] > w[0] + 1e-12).count();
    let first_restricted_increase = restricted.windows(2).position(|w| w[1] > w[0] + 1e-12);

    let mut t = Table::new(
        "T9: monotone global vs non-monotone restricted distance (clique-ring(4,16), S = source clique)",
        &["t", "‖p_t − π‖₁ (global)", "‖p_tS − π_S‖₁ (restricted)"],
    );
    for i in (0..=t_max).step_by(10) {
        t.row(&[
            i.to_string(),
            format!("{:.4}", global[i]),
            format!("{:.4}", restricted[i]),
        ]);
    }
    print!("{}", t.render());
    println!("global monotonicity violations (Lemma 1): {global_violations} (expected 0)");
    match first_restricted_increase {
        Some(i) => println!(
            "restricted distance first increases at t = {i} ({:.4} -> {:.4}) — binary search over ℓ is unsound, doubling is required",
            restricted[i], restricted[i + 1]
        ),
        None => println!("restricted distance never increased (unexpected on this workload)"),
    }
}
