//! BFS-tree construction (step 3 of Algorithm 2) and its CONGEST cost.
//!
//! The protocol ([`BfsNode`]): the source floods `JOIN` beacons carrying hop
//! counts; every other node adopts the first beacon's sender as parent (ties
//! broken toward the smallest id, which is deterministic because inboxes are
//! sorted by sender), replies `ADOPT` so parents learn their children, and
//! forwards the beacon — unless the depth limit `min{D, ℓ}` has been
//! reached, exactly as Algorithm 2 prescribes. Cost: `depth + O(1)` rounds,
//! one `O(log n)`-bit message per edge direction — the textbook `O(D)`
//! construction cited by the paper (\[20\]).
//!
//! The protocol is deterministic, so [`build_bfs_tree`] does not run it
//! message by message: a level-synchronous BFS over the CSR builds the same
//! tree (each node's parent is its smallest-id neighbor one level up) and
//! charges exactly what the protocol costs on a [`Network`]:
//!
//! * rounds: `depth + 1` — level `k` adopts in round `k`, and the round
//!   after the deepest level's `ADOPT`s sends nothing, which ends the run —
//!   or 0 when the source sends nothing (depth limit 0, or no neighbor);
//! * messages: each forwarding node's degree in `JOIN`s (a node forwards
//!   while below the depth limit), plus one `ADOPT` per reached non-root
//!   node;
//! * bits: `1 + width` per `JOIN`, 1 per `ADOPT`. A forwarding node sends
//!   its `ADOPT` and its `JOIN` to its parent in the same round, so that
//!   edge carries `2 + width` bits: the widest load of a run, and the first
//!   budget error when it alone exceeds the budget.
//!
//! [`build_bfs_tree_faulty`] runs [`BfsNode`] on a [`Network`]: a fault plan
//! needs the real message plane, and the tests use it as the flat
//! construction's oracle.

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

/// A completed BFS tree: distances, parents and children of every node.
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// The source/root node.
    pub src: usize,
    /// Hop distances (`None` = outside the depth limit / unreachable).
    pub dist: Vec<Option<u32>>,
    /// Parent pointers (root and unreached nodes have `None`).
    pub parent: Vec<Option<u32>>,
    /// Maximum distance of any reached node.
    pub depth: u32,
    /// Number of reached nodes (the root included).
    reached: usize,
    /// Node `v`'s children are `kids[kid_start[v]..kid_start[v + 1]]`.
    kid_start: Vec<u32>,
    kids: Vec<u32>,
}

impl BfsTree {
    /// Number of reached nodes (including the root).
    pub fn reached(&self) -> usize {
        self.reached
    }

    /// True iff the tree spans all `n` nodes.
    pub fn spanning(&self) -> bool {
        self.reached == self.dist.len()
    }

    /// Node `v`'s children, ascending.
    pub fn children(&self, v: usize) -> &[u32] {
        &self.kids[self.kid_start[v] as usize..self.kid_start[v + 1] as usize]
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
                    if !self.children(p).contains(&(v as u32)) {
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
/// Returns the tree and the CONGEST metrics of the construction, or the
/// protocol's first budget error — both exactly those of [`BfsNode`] on a
/// [`Network`] (see the module docs). The construction is sequential and
/// draws no randomness, so `engine` and `seed` do not affect it.
pub fn build_bfs_tree(
    g: &Graph,
    src: usize,
    depth_limit: u32,
    budget_bits: u32,
    _engine: EngineKind,
    _seed: u64,
) -> Result<(BfsTree, Metrics), RunError> {
    let n = g.n();
    assert!(src < n, "bfs source out of range");
    let join = BfsMsg::Join {
        dist: 0,
        width: id_bits(n),
    }
    .encoded_bits();
    let adopt = BfsMsg::Adopt.encoded_bits();
    let mut dist = vec![None; n];
    let mut parent: Vec<Option<u32>> = vec![None; n];
    dist[src] = Some(0);
    let (mut level, mut next) = (vec![src as u32], Vec::new());
    let (mut depth, mut joins, mut reached) = (0u32, 0u64, 1usize);
    // Level `depth` forwards JOIN while below the limit; a node hearing it
    // for the first time joins the next level under its smallest-id sender.
    while depth < depth_limit {
        for &u in &level {
            let nbrs = g.neighbors_raw(u as usize);
            joins += nbrs.len() as u64;
            for &v in nbrs {
                let v = v as usize;
                match dist[v] {
                    None => {
                        dist[v] = Some(depth + 1);
                        parent[v] = Some(u);
                        next.push(v as u32);
                    }
                    Some(d) if d == depth + 1 => {
                        parent[v] = parent[v].map(|p| p.min(u));
                    }
                    Some(_) => {}
                }
            }
        }
        if next.is_empty() {
            break;
        }
        reached += next.len();
        depth += 1;
        std::mem::swap(&mut level, &mut next);
        next.clear();
    }

    let adopts = reached as u64 - 1;
    let max_edge_bits = if depth_limit > 1 && adopts > 0 {
        adopt + join
    } else if joins > 0 {
        join
    } else {
        0
    };
    let metrics = Metrics {
        rounds: if joins > 0 { depth as u64 + 1 } else { 0 },
        messages: joins + adopts,
        bits: joins * join as u64 + adopts * adopt as u64,
        max_edge_bits,
        ..Metrics::default()
    };
    if max_edge_bits > budget_bits {
        // The first violation: the source's JOINs in round 0, or else the
        // ADOPT + JOIN that each level-1 node sends its parent in round 1.
        // The source's smallest neighbor (at level 1) names the edge.
        let v = g.neighbors_raw(src)[0] as usize;
        let (from, to, round, bits) = if join > budget_bits {
            (src, v, 0, join)
        } else {
            (v, src, 1, max_edge_bits)
        };
        return Err(RunError::BudgetExceeded {
            from,
            to,
            round,
            bits,
            budget: budget_bits,
        });
    }
    let (kid_start, kids) = children_of(&parent);
    let tree = BfsTree {
        src,
        dist,
        parent,
        depth,
        reached,
        kid_start,
        kids,
    };
    Ok((tree, metrics))
}

/// Children lists from parent pointers, in [`BfsTree`]'s CSR form: a count
/// per parent, prefix sums to range ends, then a descending fill that
/// leaves every range ascending and `start[p]` at its beginning.
fn children_of(parent: &[Option<u32>]) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; parent.len() + 1];
    for &p in parent.iter().flatten() {
        start[p as usize] += 1;
    }
    let mut end = 0;
    for s in &mut start {
        end += *s;
        *s = end;
    }
    let mut kids = vec![0u32; end as usize];
    for (v, &p) in parent.iter().enumerate().rev() {
        if let Some(p) = p {
            start[p as usize] -= 1;
            kids[start[p as usize] as usize] = v as u32;
        }
    }
    (start, kids)
}

/// [`BfsNode`] on a possibly faulty [`Network`]: with crashes or drops the
/// result is generally *not* a spanning tree — unreached nodes report `dist
/// = None`, and a parent whose `ADOPT` was lost does not list that child —
/// and the quiescence-based round cap still applies (a lost JOIN simply
/// prunes that subtree). A trivial (or absent) plan is bit-identical to
/// [`build_bfs_tree`].
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
    let (mut kid_start, mut kids) = (vec![0], Vec::new());
    for node in net.node_states() {
        dist.push(node.dist);
        parent.push(node.parent);
        let at = kids.len();
        kids.extend_from_slice(&node.children);
        kids[at..].sort_unstable();
        kid_start.push(kids.len() as u32);
    }
    let tree = BfsTree {
        src,
        depth: dist.iter().flatten().copied().max().unwrap_or(0),
        reached: dist.iter().flatten().count(),
        dist,
        parent,
        kid_start,
        kids,
    };
    Ok((tree, net.metrics()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::olog_budget;
    use lmt_graph::{gen, traversal};
    use proptest::prelude::*;

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

    /// [`BfsNode`] on a fault-free [`Network`]: the oracle.
    fn network(
        g: &Graph,
        src: usize,
        limit: u32,
        budget: u32,
        engine: EngineKind,
    ) -> Result<(BfsTree, Metrics), RunError> {
        build_bfs_tree_faulty(g, src, limit, budget, engine, 1, None)
    }

    /// Everything a tree holds, children included, for exact comparison.
    fn parts(t: &BfsTree) -> impl PartialEq + std::fmt::Debug + '_ {
        let children: Vec<&[u32]> = (0..t.dist.len()).map(|v| t.children(v)).collect();
        (t.src, &t.dist, &t.parent, children, t.depth, t.reached())
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
        let total_children: usize = (0..g.n()).map(|v| tree.children(v).len()).sum();
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
        // The protocol on both engines, and the flat construction, agree.
        let g = gen::random_regular(60, 4, 3);
        let budget = olog_budget(60, 8);
        let (a, ma) = network(&g, 0, u32::MAX, budget, EngineKind::Sequential).unwrap();
        let (b, mb) = network(&g, 0, u32::MAX, budget, EngineKind::Parallel).unwrap();
        let (c, mc) = build(&g, 0, u32::MAX);
        assert_eq!(parts(&a), parts(&b));
        assert_eq!(parts(&a), parts(&c));
        assert_eq!((ma, mb), (mc, mc));
    }

    fn any_graph() -> impl Strategy<Value = Graph> {
        (1usize..40, 0.0f64..0.5, any::<u64>())
            .prop_map(|(n, p, seed)| gen::erdos_renyi(n, p, seed))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The flat construction ≡ [`BfsNode`] on a [`Network`] under
        /// either engine: the tree (distances, parents, children, depth,
        /// reached count), every [`Metrics`] field and the [`RunError`],
        /// compared exactly. Graphs may be disconnected or have isolated
        /// sources; depth limits run 0–5 and unlimited; budgets sit one
        /// below, at and one above the `JOIN` width and the `ADOPT` +
        /// `JOIN` width.
        #[test]
        fn flat_bfs_matches_bfs_node(
            g in any_graph(),
            src_raw in any::<usize>(),
            limit_raw in 0u32..7,
            slack in 0u32..6,
            parallel in any::<bool>(),
        ) {
            let src = src_raw % g.n();
            let limit = if limit_raw == 6 { u32::MAX } else { limit_raw };
            let budget = id_bits(g.n()) + slack;
            let kind = if parallel { EngineKind::Parallel } else { EngineKind::Sequential };
            let got = build_bfs_tree(&g, src, limit, budget, kind, 1);
            let want = network(&g, src, limit, budget, kind);
            match (&got, &want) {
                (Ok((a, ma)), Ok((b, mb))) => {
                    prop_assert_eq!(parts(a), parts(b));
                    prop_assert_eq!(ma, mb);
                }
                _ => prop_assert!(
                    got.as_ref().err() == want.as_ref().err() && got.is_err(),
                    "flat {:?} != network {:?}", got.map(|x| x.1), want.map(|x| x.1)
                ),
            }
        }
    }
}
