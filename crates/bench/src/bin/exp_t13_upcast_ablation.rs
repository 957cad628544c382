//! T13 (ablation) — §3.1's design choice: the distributed binary search vs
//! the naive pipelined upcast it replaces.
//!
//! "The upcast may take Ω(n) time in the worst case due to congestion in
//! the BFS tree. To overcome the congestion, we use the following efficient
//! approach [binary search]…" — measured head-to-head on identical inputs
//! (same tree, same values, same result at the source).

use lmt_congest::bfs::build_bfs_tree;
use lmt_congest::binsearch::{sum_of_r_smallest, TieBreak};
use lmt_congest::message::olog_budget;
use lmt_congest::upcast::upcast_collect;
use lmt_congest::EngineKind;
use lmt_graph::gen::{self, Workload};
use lmt_util::table::Table;

fn main() {
    let mut t = Table::new(
        "T13: sum of R smallest — naive pipelined upcast vs §3.1 binary search",
        &[
            "graph",
            "n",
            "D",
            "upcast rounds",
            "binsearch rounds",
            "speedup",
            "agree",
        ],
    );
    let workloads = vec![
        Workload::new("path(128)".to_string(), gen::path(128), 0),
        Workload::new("grid(12x12)".to_string(), gen::grid(12, 12), 0),
        Workload::new(
            "expander(128,8)".to_string(),
            gen::random_regular(128, 8, 6),
            0,
        ),
        Workload::new(
            "clique-ring(8,16)".to_string(),
            gen::ring_of_cliques_regular(8, 16).0,
            0,
        ),
        // Crossover scale: on a shallow tree the upcast's congestion grows
        // like n/deg(root) while the binary search stays at O(D·log range).
        Workload::new(
            "expander(4096,8)".to_string(),
            gen::random_regular(4096, 8, 6),
            0,
        ),
    ];
    for w in &workloads {
        let n = w.graph.n();
        let budget = olog_budget(n, 16);
        let (tree, _) = build_bfs_tree(
            &w.graph,
            w.source,
            u32::MAX,
            budget,
            EngineKind::Sequential,
            1,
        )
        .unwrap();
        let values: Vec<u128> = (0..n as u128).map(|i| (i * 2654435761) % 10_000).collect();
        let r = n / 4;

        let (collected, m_up) = upcast_collect(
            &w.graph,
            &tree,
            &values,
            16,
            budget,
            EngineKind::Sequential,
            2,
        )
        .unwrap();
        let upcast_sum: u128 = collected[..r].iter().sum();

        let (res, m_bs) = sum_of_r_smallest(
            &w.graph,
            &tree,
            &values,
            r,
            16,
            TieBreak::ThresholdCorrection,
            None,
            budget,
            EngineKind::Sequential,
            3,
        )
        .unwrap();

        t.row(&[
            w.name.clone(),
            n.to_string(),
            tree.depth.to_string(),
            m_up.rounds.to_string(),
            m_bs.rounds.to_string(),
            format!("{:.2}x", m_up.rounds as f64 / m_bs.rounds as f64),
            (upcast_sum == res.sum).to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("reading: at small n the naive upcast wins everywhere — its congestion is only");
    println!("~max-subtree-through-root (n/deg(root) on shallow trees, n−1 on the path), while");
    println!("the binary search pays ~2·D·log(range) with a visible constant. The paper's");
    println!("Ω(n)-vs-O(D log n) separation is asymptotic: the expander(4096) row shows the");
    println!("crossover. On the path (D = n) the binary search never wins — the paper's");
    println!("framing implicitly assumes D ≪ n, which is also Theorem 1's regime (D ≤ 2τ_s).");
}
