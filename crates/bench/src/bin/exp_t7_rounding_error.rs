//! T7 — Lemma 2: the fixed-point flooding error after `t` steps.
//!
//! Paper statement: `|p̃_t(u) − p_t(u)| < t·n^{−c}`. Our provable per-run
//! form is `t·d_max/(2n^c)` (nearest rounding of each per-edge share). The
//! table reports the measured max error at several lengths against both, for
//! `c ∈ {4, 6, 8}`, plus the floor-rounding ablation.

use lmt_graph::gen;
use lmt_util::table::Table;
use lmt_walks::engine::evolve_block;
use lmt_walks::fixed_flood::{FixedWalk, Rounding};
use lmt_walks::step::WalkKind;

fn max_err(g: &lmt_graph::Graph, src: usize, t: usize, c: u32, rounding: Rounding) -> f64 {
    let mut fw = FixedWalk::new(g, src, c, rounding, WalkKind::Simple);
    fw.run(g, t);
    let est = fw.to_dist();
    let exact = evolve_block(g, &[src], WalkKind::Simple, t).remove(0);
    (0..g.n())
        .map(|v| (est.get(v) - exact.get(v)).abs())
        .fold(0.0, f64::max)
}

fn main() {
    let g = gen::random_regular(128, 8, 9);
    let n = g.n() as f64;
    let d_max = 8.0;
    let mut t = Table::new(
        "T7: Algorithm 1 rounding error, expander(128, d=8)",
        &[
            "c",
            "t",
            "max |p̃−p| (nearest)",
            "bound t·d/(2n^c)",
            "paper t·n^{-c}",
            "floor-mode err",
        ],
    );
    for c in [4u32, 6, 8] {
        for steps in [8usize, 32, 128] {
            let err = max_err(&g, 0, steps, c, Rounding::Nearest);
            let err_floor = max_err(&g, 0, steps, c, Rounding::Floor);
            let ours = steps as f64 * d_max / (2.0 * n.powi(c as i32));
            let paper = steps as f64 * n.powi(-(c as i32));
            t.row(&[
                c.to_string(),
                steps.to_string(),
                format!("{err:.3e}"),
                format!("{ours:.3e}"),
                format!("{paper:.3e}"),
                format!("{err_floor:.3e}"),
            ]);
        }
    }
    print!("{}", t.render());
    println!("expected: measured ≤ our bound at every row; nearest ≤ floor; error shrinks by ~n² per +2 in c");
}
