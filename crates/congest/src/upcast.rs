//! The naive pipelined upcast of §3.1 — the strawman the distributed binary
//! search replaces.
//!
//! "A naive way of doing this is to upcast all the values through the BFS
//! tree edges in a pipelining manner. … The upcast may take Ω(n) time in the
//! worst case due to congestion in the BFS tree."
//!
//! Every node ships its value to the root; an edge carries **one** value per
//! round (CONGEST), so an internal node queues values and drains them one
//! per round. Collection completes after `depth + (max values through one
//! edge) − 1` rounds — Θ(n) whenever some subtree holds Θ(n) nodes (e.g. any
//! tree over a path). Experiment T13 measures this against the §3.1 binary
//! search on identical inputs.

use crate::bfs::BfsTree;
use crate::engine::{Ctx, EngineKind, Metrics, Network, Protocol, RunError};
use crate::tree::Wide;
use lmt_graph::Graph;
use std::collections::VecDeque;

/// Per-node upcast state.
pub struct UpcastNode {
    parent: Option<u32>,
    is_root: bool,
    queue: VecDeque<Wide>,
    /// Values gathered at the root (empty elsewhere).
    pub collected: Vec<u128>,
}

impl Protocol for UpcastNode {
    type Msg = Wide;

    fn init(&mut self, ctx: &mut Ctx<'_, Wide>) {
        self.flush(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Wide>, inbox: &[(u32, Wide)]) {
        for (_, msg) in inbox {
            if self.is_root {
                self.collected.push(msg.value);
            } else {
                self.queue.push_back(*msg);
            }
        }
        self.flush(ctx);
    }
}

impl UpcastNode {
    /// Send at most one queued value per round toward the root (the CONGEST
    /// pipelining discipline).
    fn flush(&mut self, ctx: &mut Ctx<'_, Wide>) {
        if let (Some(p), Some(v)) = (self.parent, self.queue.pop_front()) {
            ctx.send(p as usize, v);
        }
    }
}

/// Collect every node's value at the BFS-tree root by pipelined upcast.
///
/// Returns the multiset of all `n` values as seen at the root (its own value
/// included) and the metrics — `rounds` is the quantity the §3.1 binary
/// search improves from Θ(n) to `O(D log n)`.
pub fn upcast_collect(
    g: &Graph,
    tree: &BfsTree,
    values: &[u128],
    value_width: u32,
    budget_bits: u32,
    engine: EngineKind,
    seed: u64,
) -> Result<(Vec<u128>, Metrics), RunError> {
    assert_eq!(values.len(), g.n(), "one value per node required");
    assert!(tree.spanning(), "upcast requires a spanning BFS tree");
    let mut net = Network::new(
        g,
        |id| UpcastNode {
            parent: tree.parent[id],
            is_root: id == tree.src,
            queue: VecDeque::from([Wide::new(values[id], value_width)]),
            collected: if id == tree.src {
                vec![values[id]]
            } else {
                Vec::new()
            },
        },
        budget_bits,
        engine,
        seed,
    );
    // Worst case: n−1 values serialized over one edge, plus tree depth.
    net.run_until(
        |n_| n_.node(tree.src).collected.len() == g.n(),
        g.n() as u64 + tree.depth as u64 + 2,
    )?;
    let mut collected = net.node(tree.src).collected.clone();
    collected.sort_unstable();
    Ok((collected, net.metrics()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::build_bfs_tree;
    use crate::message::olog_budget;
    use lmt_graph::gen;

    fn setup(g: &Graph, src: usize) -> BfsTree {
        build_bfs_tree(
            g,
            src,
            u32::MAX,
            olog_budget(g.n(), 8),
            EngineKind::Sequential,
            1,
        )
        .unwrap()
        .0
    }

    #[test]
    fn collects_exact_multiset() {
        let g = gen::grid(4, 5);
        let tree = setup(&g, 7);
        let values: Vec<u128> = (0..20).map(|i| (i * i % 7) as u128).collect();
        let (got, _) = upcast_collect(
            &g,
            &tree,
            &values,
            8,
            olog_budget(20, 8),
            EngineKind::Sequential,
            2,
        )
        .unwrap();
        let mut want = values.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn path_upcast_takes_linear_rounds() {
        // Root at one end of a path: every value crosses the last edge.
        let n = 48;
        let g = gen::path(n);
        let tree = setup(&g, 0);
        let values: Vec<u128> = (0..n as u128).collect();
        let (_, m) = upcast_collect(
            &g,
            &tree,
            &values,
            8,
            olog_budget(n, 8),
            EngineKind::Sequential,
            3,
        )
        .unwrap();
        assert!(
            m.rounds >= (n - 1) as u64,
            "pipelined upcast on a path must pay ≥ n−1 rounds, got {}",
            m.rounds
        );
    }

    #[test]
    fn star_upcast_is_fast() {
        // Root at the hub: depth 1, every leaf delivers in round 1.
        let g = gen::star(30);
        let tree = setup(&g, 0);
        let values: Vec<u128> = (0..30u128).collect();
        let (got, m) = upcast_collect(
            &g,
            &tree,
            &values,
            8,
            olog_budget(30, 8),
            EngineKind::Sequential,
            4,
        )
        .unwrap();
        assert_eq!(got.len(), 30);
        assert!(m.rounds <= 3, "rounds {}", m.rounds);
    }

    #[test]
    fn budget_allows_exactly_one_value_per_edge_round() {
        let g = gen::path(10);
        let tree = setup(&g, 0);
        let values = vec![200u128; 10];
        let (_, m) = upcast_collect(
            &g,
            &tree,
            &values,
            8,
            olog_budget(10, 8),
            EngineKind::Sequential,
            5,
        )
        .unwrap();
        assert!(m.max_edge_bits <= 8);
    }
}
