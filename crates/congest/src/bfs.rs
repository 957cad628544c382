//! Distributed BFS-tree construction by flooding (step 3 of Algorithm 2).
//!
//! The source floods `JOIN` beacons carrying hop counts; every other node
//! adopts the first beacon's sender as parent (ties broken toward the
//! smallest id, which is deterministic because inboxes are sorted by
//! sender), replies `ADOPT` so parents learn their children, and forwards
//! the beacon — unless the depth limit `min{D, ℓ}` has been reached, exactly
//! as Algorithm 2 prescribes.
//!
//! Cost: `depth + O(1)` rounds, one `O(log n)`-bit message per edge
//! direction — the textbook `O(D)` construction cited by the paper (\[20\]).

use crate::engine::{Ctx, EngineKind, Metrics, Network, Protocol, RunError};
use crate::message::{id_bits, Payload};
use lmt_graph::Graph;

/// BFS protocol message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BfsMsg {
    /// "I am at this hop distance" — invites adoption at distance+1.
    Join {
        /// Sender's distance from the source.
        dist: u32,
        /// Field width for the distance (⌈log₂ n⌉).
        width: u32,
    },
    /// "You are my parent."
    Adopt,
}

impl Payload for BfsMsg {
    fn encoded_bits(&self) -> u32 {
        match self {
            // 1 tag bit + the hop counter.
            BfsMsg::Join { width, .. } => 1 + width,
            BfsMsg::Adopt => 1,
        }
    }
}

/// Per-node BFS state.
pub struct BfsNode {
    is_source: bool,
    depth_limit: u32,
    width: u32,
    /// Hop distance, once known.
    pub dist: Option<u32>,
    /// Adopted parent, once known.
    pub parent: Option<u32>,
    /// Children discovered via ADOPT replies.
    pub children: Vec<u32>,
    forwarded: bool,
}

impl Protocol for BfsNode {
    type Msg = BfsMsg;

    fn init(&mut self, ctx: &mut Ctx<'_, BfsMsg>) {
        if self.is_source {
            self.dist = Some(0);
            if self.depth_limit > 0 {
                self.forwarded = true;
                ctx.send_all(BfsMsg::Join {
                    dist: 0,
                    width: self.width,
                });
            }
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, BfsMsg>, inbox: &[(u32, BfsMsg)]) {
        for &(from, msg) in inbox {
            match msg {
                BfsMsg::Join { dist, .. } => {
                    if self.dist.is_none() {
                        // First beacon (smallest sender id first): adopt.
                        self.dist = Some(dist + 1);
                        self.parent = Some(from);
                        ctx.send(from as usize, BfsMsg::Adopt);
                        if dist + 1 < self.depth_limit && !self.forwarded {
                            self.forwarded = true;
                            let d = dist + 1;
                            let w = self.width;
                            ctx.send_all(BfsMsg::Join { dist: d, width: w });
                        }
                    }
                }
                BfsMsg::Adopt => {
                    self.children.push(from);
                }
            }
        }
    }
}

/// A completed BFS tree, extracted from a network run.
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// The source/root node.
    pub src: usize,
    /// Hop distances (`None` = outside the depth limit / unreachable).
    pub dist: Vec<Option<u32>>,
    /// Parent pointers (root and unreached nodes have `None`).
    pub parent: Vec<Option<u32>>,
    /// Children lists, sorted ascending.
    pub children: Vec<Vec<u32>>,
    /// Maximum distance of any reached node.
    pub depth: u32,
}

impl BfsTree {
    /// Number of reached nodes (including the root).
    pub fn reached(&self) -> usize {
        self.dist.iter().filter(|d| d.is_some()).count()
    }

    /// True iff the tree spans all `n` nodes.
    pub fn spanning(&self) -> bool {
        self.reached() == self.dist.len()
    }

    /// Validate tree invariants against the graph (test / debugging aid).
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        if self.dist[self.src] != Some(0) {
            return Err("root distance must be 0".into());
        }
        for v in 0..g.n() {
            match (self.dist[v], self.parent[v]) {
                (Some(0), None) if v == self.src => {}
                (Some(d), Some(p)) => {
                    let p = p as usize;
                    if !g.has_edge(p, v) {
                        return Err(format!("parent edge ({p},{v}) missing"));
                    }
                    match self.dist[p] {
                        Some(pd) if pd + 1 == d => {}
                        other => {
                            return Err(format!(
                                "distance mismatch at {v}: {d} vs parent {other:?}"
                            ))
                        }
                    }
                    if !self.children[p].contains(&(v as u32)) {
                        return Err(format!("{p} missing child {v}"));
                    }
                }
                (None, None) => {}
                other => return Err(format!("inconsistent state at {v}: {other:?}")),
            }
        }
        Ok(())
    }
}

/// Build a BFS tree of depth at most `depth_limit` from `src`.
///
/// Returns the tree and the CONGEST metrics of the construction.
pub fn build_bfs_tree(
    g: &Graph,
    src: usize,
    depth_limit: u32,
    budget_bits: u32,
    engine: EngineKind,
    seed: u64,
) -> Result<(BfsTree, Metrics), RunError> {
    build_bfs_tree_faulty(g, src, depth_limit, budget_bits, engine, seed, None)
}

/// [`build_bfs_tree`] on a faulty network: with crashes or drops the result
/// is generally *not* a spanning tree — unreached nodes report `dist =
/// None` — and the quiescence-based round cap still applies (a lost JOIN
/// simply prunes that subtree). A trivial (or absent) plan is bit-identical
/// to [`build_bfs_tree`].
#[allow(clippy::too_many_arguments)]
pub fn build_bfs_tree_faulty(
    g: &Graph,
    src: usize,
    depth_limit: u32,
    budget_bits: u32,
    engine: EngineKind,
    seed: u64,
    plan: Option<crate::fault::FaultPlan>,
) -> Result<(BfsTree, Metrics), RunError> {
    assert!(src < g.n(), "bfs source out of range");
    let width = id_bits(g.n());
    let make = |id: usize| BfsNode {
        is_source: id == src,
        depth_limit,
        width,
        dist: None,
        parent: None,
        children: Vec::new(),
        forwarded: false,
    };
    let mut net = match plan {
        Some(plan) => Network::with_faults(g, make, budget_bits, engine, seed, plan),
        None => Network::new(g, make, budget_bits, engine, seed),
    };
    // Depth+2 rounds suffice; cap generously at n+2.
    net.run_until_quiet(g.n() as u64 + 2)?;
    let mut dist = Vec::with_capacity(g.n());
    let mut parent = Vec::with_capacity(g.n());
    let mut children = Vec::with_capacity(g.n());
    let mut depth = 0;
    for id in 0..g.n() {
        let node = net.node(id);
        dist.push(node.dist);
        parent.push(node.parent);
        let mut ch = node.children.clone();
        ch.sort_unstable();
        children.push(ch);
        if let Some(d) = node.dist {
            depth = depth.max(d);
        }
    }
    Ok((
        BfsTree {
            src,
            dist,
            parent,
            children,
            depth,
        },
        net.metrics(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::olog_budget;
    use lmt_graph::{gen, traversal};

    fn build(g: &Graph, src: usize, limit: u32) -> (BfsTree, Metrics) {
        build_bfs_tree(
            g,
            src,
            limit,
            olog_budget(g.n(), 8),
            EngineKind::Sequential,
            1,
        )
        .unwrap()
    }

    #[test]
    fn matches_centralized_distances() {
        let g = gen::grid(5, 6);
        let (tree, _) = build(&g, 7, u32::MAX);
        let reference = traversal::bfs(&g, 7);
        for v in 0..g.n() {
            assert_eq!(
                tree.dist[v].unwrap() as usize,
                reference.dist[v],
                "node {v}"
            );
        }
        assert!(tree.spanning());
        tree.validate(&g).unwrap();
    }

    #[test]
    fn depth_limit_respected() {
        let g = gen::path(10);
        let (tree, _) = build(&g, 0, 3);
        assert_eq!(tree.reached(), 4); // nodes 0..=3
        assert_eq!(tree.depth, 3);
        assert_eq!(tree.dist[3], Some(3));
        assert_eq!(tree.dist[4], None);
        tree.validate(&g).unwrap();
    }

    #[test]
    fn rounds_proportional_to_depth() {
        let g = gen::path(32);
        let (tree, m) = build(&g, 0, u32::MAX);
        assert_eq!(tree.depth, 31);
        assert!(
            m.rounds <= tree.depth as u64 + 3,
            "rounds {} >> depth {}",
            m.rounds,
            tree.depth
        );
    }

    #[test]
    fn children_partition_non_roots() {
        let (g, _) = gen::barbell(3, 4);
        let (tree, _) = build(&g, 0, u32::MAX);
        tree.validate(&g).unwrap();
        let total_children: usize = tree.children.iter().map(|c| c.len()).sum();
        assert_eq!(total_children, g.n() - 1);
    }

    #[test]
    fn depth_zero_reaches_only_root() {
        let g = gen::cycle(5);
        let (tree, _) = build(&g, 2, 0);
        assert_eq!(tree.reached(), 1);
        assert_eq!(tree.depth, 0);
    }

    #[test]
    fn parallel_engine_same_tree() {
        let g = gen::random_regular(60, 4, 3);
        let (a, ma) = build_bfs_tree(
            &g,
            0,
            u32::MAX,
            olog_budget(60, 8),
            EngineKind::Sequential,
            5,
        )
        .unwrap();
        let (b, mb) =
            build_bfs_tree(&g, 0, u32::MAX, olog_budget(60, 8), EngineKind::Parallel, 5).unwrap();
        assert_eq!(a.dist, b.dist);
        assert_eq!(a.parent, b.parent);
        assert_eq!(ma, mb);
    }
}
