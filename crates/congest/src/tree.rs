//! Broadcast and convergecast over a BFS tree (§3.1's upcast/downcast
//! toolkit; see also \[20\] in the paper).
//!
//! * **Broadcast**: the root pushes a value down the tree; `depth` rounds.
//! * **Convergecast**: every node contributes a value; aggregates flow up,
//!   each internal node combining its children's partials with its own
//!   before forwarding; `depth` rounds. The aggregation is an [`Op`] —
//!   min, max or sum (a count is a sum of ones).
//!
//! Both are phases of one protocol over [`Wide`] values, so a single
//! network can run any number of phases back to back: the crate's binary
//! search keeps one per call and resets it between phases
//! (`Network::reset`: fresh states, warm message arenas). That network
//! spans the tree's own nodes and edges, not the whole graph — phases never
//! leave the tree, so the execution is the same one, minus `O(n)` per phase
//! for nodes that would stay silent. The protocol declares
//! [`Protocol::SKIP_IDLE`] — after `init` a node acts only on a message
//! from its parent or a child — so a round costs what the active tree level
//! costs. [`broadcast`], [`convergecast`] and [`convergecast_partial`] are
//! one-shot wrappers over the same code.
//!
//! Every phase is real message passing on the engine, so every invocation
//! pays its true CONGEST round/bit cost: a value going down costs `width`
//! bits, a partial going up `1 + width` (a tag bit), and an empty-subtree
//! report 1 bit.

use crate::bfs::BfsTree;
use crate::engine::{Ctx, EngineKind, Metrics, Network, Protocol, RunError};
use crate::message::Payload;
use lmt_graph::{Graph, GraphBuilder};

/// A `u128` value with an explicit wire width, the workhorse payload for
/// fixed-point numerators (`c·log₂ n` bits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wide {
    /// The value.
    pub value: u128,
    /// Declared field width in bits.
    pub width: u32,
}

impl Wide {
    /// Construct, checking the value fits.
    pub fn new(value: u128, width: u32) -> Self {
        assert!(
            width >= crate::message::bits_for(value),
            "value {value} does not fit in {width} bits"
        );
        Wide { value, width }
    }
}

impl Payload for Wide {
    fn encoded_bits(&self) -> u32 {
        self.width
    }
}

/// The aggregation a convergecast computes (associative and commutative).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Smallest value.
    Min,
    /// Largest value.
    Max,
    /// Sum of the values. The caller sizes the width for the total: a sum
    /// of `≤ n` bounded values needs `⌈log₂ n⌉` carry bits on top — still
    /// `O(log n)` overall.
    Sum,
}

impl Op {
    /// Combine two partial aggregates. A sum keeps the wider field; min and
    /// max keep the winning operand (`a` on ties).
    ///
    /// # Panics
    /// Panics if a sum overflows `u128`.
    pub fn combine(self, a: Wide, b: Wide) -> Wide {
        match self {
            Op::Min if b.value < a.value => b,
            Op::Max if b.value > a.value => b,
            Op::Min | Op::Max => a,
            Op::Sum => Wide {
                value: a
                    .value
                    .checked_add(b.value)
                    .expect("convergecast sum overflow"),
                width: a.width.max(b.width),
            },
        }
    }
}

/// A tree-phase message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeMsg {
    /// A broadcast value on its way down: `width` bits.
    Down(Wide),
    /// A subtree's partial aggregate on its way up: a tag bit + `width`.
    Up(Wide),
    /// "Nothing from my subtree", sent so the parent can count finished
    /// children without waiting: 1 bit.
    Empty,
}

impl Payload for TreeMsg {
    fn encoded_bits(&self) -> u32 {
        match self {
            TreeMsg::Down(w) => w.width,
            TreeMsg::Up(w) => 1 + w.width,
            TreeMsg::Empty => 1,
        }
    }
}

/// One node's state in one tree phase. The node's place in the tree is
/// read from `tree` at `ctx.id()` when it acts, so building the state for a
/// phase touches nothing but the node's own slot.
struct TreeNode<'t> {
    tree: &'t BfsTree,
    /// `None` in a broadcast, the aggregation in a convergecast.
    op: Option<Op>,
    /// Forwarded (broadcast) or reported upward (convergecast).
    done: bool,
    /// Convergecast: children heard from.
    received: u32,
    /// Broadcast: the value held (the root's from the start, others' once
    /// received). Convergecast: the node's own contribution (`None` =
    /// contributes nothing); at the root, the aggregate once `done`.
    value: Option<Wide>,
    /// Convergecast: the children's partials combined so far.
    acc: Option<Wide>,
}

impl<'t> TreeNode<'t> {
    fn new(tree: &'t BfsTree, op: Option<Op>, value: Option<Wide>) -> Self {
        TreeNode {
            tree,
            op,
            done: false,
            received: 0,
            value,
            acc: None,
        }
    }

    /// Broadcast: hand `v` to every child.
    fn forward(&mut self, ctx: &mut Ctx<'_, TreeMsg>, v: Wide) {
        for &c in &self.tree.children[ctx.id()] {
            ctx.send(c as usize, TreeMsg::Down(v));
        }
        self.done = true;
    }

    /// Convergecast: once every child has reported, combine and report
    /// upward — even with nothing to contribute, so the parent's child
    /// counter advances. The root keeps the total instead. (A node outside
    /// the tree has neither children nor a parent: it finishes silently.)
    fn try_flush(&mut self, ctx: &mut Ctx<'_, TreeMsg>, op: Op) {
        let (id, tree) = (ctx.id(), self.tree);
        if self.done || (self.received as usize) < tree.children[id].len() {
            return;
        }
        self.done = true;
        let total = match (self.acc, self.value) {
            (Some(a), Some(o)) => Some(op.combine(a, o)),
            (a, o) => a.or(o),
        };
        if id == tree.src {
            self.value = total;
        } else if let Some(p) = tree.parent[id] {
            ctx.send(p as usize, total.map_or(TreeMsg::Empty, TreeMsg::Up));
        }
    }
}

impl Protocol for TreeNode<'_> {
    type Msg = TreeMsg;

    /// After `init` a node acts only on a message from its parent or a
    /// child, and never draws randomness.
    const SKIP_IDLE: bool = true;

    fn init(&mut self, ctx: &mut Ctx<'_, TreeMsg>) {
        match self.op {
            None => {
                if let (true, Some(v)) = (ctx.id() == self.tree.src, self.value) {
                    self.forward(ctx, v);
                }
            }
            Some(op) => self.try_flush(ctx, op),
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, TreeMsg>, inbox: &[(u32, TreeMsg)]) {
        match self.op {
            None => {
                if self.done {
                    return;
                }
                let parent = self.tree.parent[ctx.id()];
                for &(from, msg) in inbox {
                    if let (true, TreeMsg::Down(v)) = (Some(from) == parent, msg) {
                        self.value = Some(v);
                        self.forward(ctx, v);
                        return;
                    }
                }
            }
            Some(op) => {
                for &(_, msg) in inbox {
                    if let TreeMsg::Up(v) = msg {
                        self.acc = Some(self.acc.map_or(v, |a| op.combine(a, v)));
                    }
                    self.received += 1;
                }
                self.try_flush(ctx, op);
            }
        }
    }
}

/// A BFS tree as a network of its own: the members, relabeled `0..m` in
/// ascending id order, joined by the tree edges only.
///
/// A tree phase sends along tree edges only, and non-members never act, so
/// a network over the whole graph pays `O(n)` per phase — node states, RNG
/// streams, `init` — for nodes that stay silent (most of them, for the
/// small trees of Algorithm 2's first lengths). On the tree itself the
/// execution is the same one: the relabeling keeps id order, so every inbox
/// keeps its sender order, and every message crosses the same edge with the
/// same bits. Rounds, messages and bits are identical.
pub(crate) struct TreeTopology {
    graph: Graph,
    /// The tree in local ids; it spans `graph`.
    tree: BfsTree,
    /// `members[local]`: the node's id in the full graph, ascending.
    members: Vec<u32>,
}

impl TreeTopology {
    pub(crate) fn new(tree: &BfsTree) -> Self {
        let n = tree.dist.len();
        let members: Vec<u32> = (0..n as u32)
            .filter(|&u| tree.dist[u as usize].is_some())
            .collect();
        let mut local = vec![u32::MAX; n];
        for (i, &u) in members.iter().enumerate() {
            local[u as usize] = i as u32;
        }
        let mut b = GraphBuilder::new(members.len());
        b.extend_edges(members.iter().enumerate().filter_map(|(i, &u)| {
            tree.parent[u as usize].map(|p| (i, local[p as usize] as usize))
        }));
        let of = |u: u32| u as usize;
        let local_tree = BfsTree {
            src: local[tree.src] as usize,
            dist: members.iter().map(|&u| tree.dist[of(u)]).collect(),
            parent: members
                .iter()
                .map(|&u| tree.parent[of(u)].map(|p| local[of(p)]))
                .collect(),
            children: members
                .iter()
                .map(|&u| tree.children[of(u)].iter().map(|&c| local[of(c)]).collect())
                .collect(),
            depth: tree.depth,
        };
        TreeTopology {
            graph: b.build(),
            tree: local_tree,
            members,
        }
    }

    /// Each local node's id in the full graph.
    pub(crate) fn members(&self) -> &[u32] {
        &self.members
    }

    /// `err` with its node ids mapped back to the full graph's (the
    /// relabeling keeps id order, so the reported edge is still the
    /// lexicographically smallest offender).
    fn graph_ids(&self, err: RunError) -> RunError {
        match err {
            RunError::BudgetExceeded {
                from,
                to,
                round,
                bits,
                budget,
            } => RunError::BudgetExceeded {
                from: self.members[from] as usize,
                to: self.members[to] as usize,
                round,
                bits,
                budget,
            },
            other => other,
        }
    }
}

/// One network on a [`TreeTopology`] that runs any number of broadcast and
/// convergecast phases: the first phase builds it, every later one resets
/// it (`Network::reset`), so the message arenas stay warm and only one
/// network is alive at a time. Node ids are the topology's local ids,
/// except in a returned [`RunError`], which names full-graph nodes.
pub(crate) struct TreeNetwork<'a> {
    topo: &'a TreeTopology,
    budget_bits: u32,
    engine: EngineKind,
    net: Option<Network<'a, TreeNode<'a>>>,
}

impl<'a> TreeNetwork<'a> {
    pub(crate) fn new(topo: &'a TreeTopology, budget_bits: u32, engine: EngineKind) -> Self {
        TreeNetwork {
            topo,
            budget_bits,
            engine,
            net: None,
        }
    }

    /// The network set up for a new phase — exactly as a fresh
    /// `Network::new(graph, make, budget, engine, seed)` would be.
    fn phase(
        &mut self,
        make: impl FnMut(usize) -> TreeNode<'a>,
        seed: u64,
    ) -> &mut Network<'a, TreeNode<'a>> {
        let net = match self.net.take() {
            Some(mut net) => {
                net.reset(make, seed);
                net
            }
            None => Network::new(&self.topo.graph, make, self.budget_bits, self.engine, seed),
        };
        self.net.insert(net)
    }

    /// Broadcast `value` from the root; [`TreeNetwork::values`] then holds
    /// what every node received.
    pub(crate) fn broadcast(&mut self, value: Wide, seed: u64) -> Result<Metrics, RunError> {
        let topo = self.topo;
        let tree = &topo.tree;
        let net = self.phase(
            |id| TreeNode::new(tree, None, (id == tree.src).then_some(value)),
            seed,
        );
        net.run_until_quiet(tree.depth as u64 + 2)
            .map_err(|e| topo.graph_ids(e))?;
        Ok(net.metrics())
    }

    /// Each node's value after the last broadcast.
    pub(crate) fn values(&self) -> impl Iterator<Item = Option<Wide>> + use<'_, 'a> {
        self.net.iter().flat_map(|net| net.node_states().map(|s| s.value))
    }

    /// Aggregate the nodes' contributions with `op` at the root; see
    /// [`convergecast_partial`].
    pub(crate) fn convergecast(
        &mut self,
        op: Op,
        mut contribute: impl FnMut(usize) -> Option<Wide>,
        seed: u64,
    ) -> Result<(Option<Wide>, Metrics), RunError> {
        let topo = self.topo;
        let tree = &topo.tree;
        let net = self.phase(|id| TreeNode::new(tree, Some(op), contribute(id)), seed);
        net.run_until(|n| n.node(tree.src).done, tree.depth as u64 + 2)
            .map_err(|e| topo.graph_ids(e))?;
        Ok((net.node(tree.src).value, net.metrics()))
    }
}

/// Broadcast `value` from the tree root to every tree node.
///
/// Returns each node's received value (`None` outside the tree) and metrics.
pub fn broadcast(
    tree: &BfsTree,
    value: Wide,
    budget_bits: u32,
    engine: EngineKind,
    seed: u64,
) -> Result<(Vec<Option<Wide>>, Metrics), RunError> {
    let topo = TreeTopology::new(tree);
    let mut net = TreeNetwork::new(&topo, budget_bits, engine);
    let m = net.broadcast(value, seed)?;
    let mut values = vec![None; tree.dist.len()];
    for (&u, v) in topo.members().iter().zip(net.values()) {
        values[u as usize] = v;
    }
    Ok((values, m))
}

/// Convergecast: aggregate per-node contributions up to the root with `op`.
///
/// `contribute(id)` yields node `id`'s value (or `None` to contribute
/// nothing — how threshold-filtered counts/sums are expressed). Subtlety: a
/// node still *forwards* children's partials even when it contributes
/// nothing itself.
///
/// Returns the root's aggregate (`None` if nobody contributed) and metrics.
///
/// # Panics
/// Panics if the tree is not spanning. Algorithm 2 deliberately builds
/// depth-limited trees (`min{D, ℓ}`); use [`convergecast_partial`] there —
/// the caller then owns the correction for the unreached nodes (whose
/// `p_ℓ = 0` the source can account for arithmetically).
pub fn convergecast(
    tree: &BfsTree,
    op: Op,
    contribute: impl FnMut(usize) -> Option<Wide>,
    budget_bits: u32,
    engine: EngineKind,
    seed: u64,
) -> Result<(Option<Wide>, Metrics), RunError> {
    assert!(
        tree.spanning(),
        "convergecast requires a spanning BFS tree (reached {}/{}); \
         use convergecast_partial for depth-limited trees",
        tree.reached(),
        tree.dist.len()
    );
    convergecast_partial(tree, op, contribute, budget_bits, engine, seed)
}

/// [`convergecast`] over a possibly depth-limited tree: only tree members
/// participate; non-members neither contribute nor forward.
pub fn convergecast_partial(
    tree: &BfsTree,
    op: Op,
    mut contribute: impl FnMut(usize) -> Option<Wide>,
    budget_bits: u32,
    engine: EngineKind,
    seed: u64,
) -> Result<(Option<Wide>, Metrics), RunError> {
    let topo = TreeTopology::new(tree);
    let members = topo.members();
    TreeNetwork::new(&topo, budget_bits, engine).convergecast(
        op,
        |i| contribute(members[i] as usize),
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::build_bfs_tree;
    use crate::message::olog_budget;
    use lmt_graph::gen;

    fn tree_for(g: &Graph, src: usize) -> BfsTree {
        build_bfs_tree(g, src, u32::MAX, olog_budget(g.n(), 8), EngineKind::Sequential, 1)
            .unwrap()
            .0
    }

    #[test]
    fn broadcast_reaches_all_in_depth_rounds() {
        let g = gen::grid(4, 4);
        let tree = tree_for(&g, 0);
        let (vals, m) = broadcast(
            &tree,
            Wide::new(99, 8),
            olog_budget(16, 8),
            EngineKind::Sequential,
            2,
        )
        .unwrap();
        assert!(vals.iter().all(|v| v.map(|w| w.value) == Some(99)));
        assert!(m.rounds <= tree.depth as u64 + 2);
    }

    #[test]
    fn convergecast_sum_counts_nodes() {
        let (g, _) = gen::barbell(3, 4);
        let tree = tree_for(&g, 5);
        let width = crate::message::id_bits(g.n()) * 2;
        let (res, m) = convergecast(
            &tree,
            Op::Sum,
            |_| Some(Wide::new(1, width)),
            olog_budget(g.n(), 8),
            EngineKind::Sequential,
            3,
        )
        .unwrap();
        assert_eq!(res.unwrap().value, g.n() as u128);
        assert!(m.rounds <= tree.depth as u64 + 2);
    }

    #[test]
    fn convergecast_min_max() {
        let g = gen::path(7);
        let tree = tree_for(&g, 3);
        let vals: Vec<u128> = vec![50, 20, 90, 10, 70, 30, 60];
        let run = |op| {
            convergecast(
                &tree,
                op,
                |id| Some(Wide::new(vals[id], 8)),
                olog_budget(7, 16),
                EngineKind::Sequential,
                4,
            )
            .unwrap()
            .0
            .unwrap()
            .value
        };
        assert_eq!(run(Op::Min), 10);
        assert_eq!(run(Op::Max), 90);
    }

    #[test]
    fn filtered_contributions_still_forwarded() {
        // Only leaves contribute; internal nodes must forward.
        let g = gen::path(5);
        let tree = tree_for(&g, 2); // root mid-path; leaves 0 and 4
        let (res, _) = convergecast(
            &tree,
            Op::Sum,
            |id| (id == 0 || id == 4).then(|| Wide::new(5, 8)),
            olog_budget(5, 16),
            EngineKind::Sequential,
            5,
        )
        .unwrap();
        assert_eq!(res.unwrap().value, 10);
    }

    #[test]
    fn empty_contribution_yields_none() {
        let g = gen::cycle(4);
        let tree = tree_for(&g, 0);
        let (res, _) = convergecast(
            &tree,
            Op::Sum,
            |_| None,
            olog_budget(4, 16),
            EngineKind::Sequential,
            6,
        )
        .unwrap();
        assert!(res.is_none());
    }

    #[test]
    #[should_panic(expected = "spanning")]
    fn non_spanning_tree_rejected() {
        let g = gen::path(6);
        let (tree, _) = build_bfs_tree(&g, 0, 2, olog_budget(6, 8), EngineKind::Sequential, 1)
            .unwrap();
        let _ = convergecast(
            &tree,
            Op::Sum,
            |_| None,
            olog_budget(6, 16),
            EngineKind::Sequential,
            7,
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = gen::random_regular(48, 4, 8);
        let tree = tree_for(&g, 0);
        let run = |kind| {
            convergecast(
                &tree,
                Op::Sum,
                |id| Some(Wide::new(id as u128, 16)),
                olog_budget(48, 16),
                kind,
                9,
            )
            .unwrap()
        };
        let (a, ma) = run(EngineKind::Sequential);
        let (b, mb) = run(EngineKind::Parallel);
        assert_eq!(a.unwrap().value, b.unwrap().value);
        assert_eq!(ma, mb);
    }

    #[test]
    fn wire_bits_per_message_kind() {
        // Star rooted at the hub: every message crosses one hub–leaf edge.
        let n = 9;
        let g = gen::star(n);
        let tree = tree_for(&g, 0);
        let leaves = n as u64 - 1;
        let budget = olog_budget(n, 16);
        let (_, m) =
            broadcast(&tree, Wide::new(3, 12), budget, EngineKind::Sequential, 1).unwrap();
        assert_eq!((m.messages, m.bits), (leaves, 12 * leaves), "down: width");
        let (_, m) = convergecast(
            &tree,
            Op::Sum,
            |id| (id % 2 == 1).then(|| Wide::new(1, 12)),
            budget,
            EngineKind::Sequential,
            1,
        )
        .unwrap();
        // Leaves 1, 3, 5, 7 send a value (1 + 12 bits), 2, 4, 6, 8 an empty report.
        assert_eq!((m.messages, m.bits), (leaves, 4 * 13 + 4));
        assert_eq!(m.max_edge_bits, 13);
    }

    /// The tree protocol stepped in full every round: forwards everything
    /// to [`TreeNode`] but keeps the default `SKIP_IDLE = false`.
    struct Eager<'t>(TreeNode<'t>);

    impl Protocol for Eager<'_> {
        type Msg = TreeMsg;

        fn init(&mut self, ctx: &mut Ctx<'_, TreeMsg>) {
            self.0.init(ctx);
        }

        fn round(&mut self, ctx: &mut Ctx<'_, TreeMsg>, inbox: &[(u32, TreeMsg)]) {
            self.0.round(ctx, inbox);
        }
    }

    /// Everything a tree node holds, for comparing whole executions.
    fn digest<'a, 't: 'a>(nodes: impl Iterator<Item = &'a TreeNode<'t>>) -> Vec<String> {
        nodes
            .map(|s| format!("{:?} {:?} {} {}", s.value, s.acc, s.received, s.done))
            .collect()
    }

    /// Node states for one phase of [`skip_idle_matches_full_step`]: a
    /// broadcast (`op = None`) or a convergecast with filtered contributions.
    fn phase_node<'t>(tree: &'t BfsTree, op: Option<Op>) -> impl Fn(usize) -> TreeNode<'t> + 't {
        move |id| {
            let value = match op {
                None => (id == tree.src).then(|| Wide::new(5, 8)),
                Some(_) => (id % 3 != 1).then(|| Wide::new((id * 7919 % 1000) as u128, 24)),
            };
            TreeNode::new(tree, op, value)
        }
    }

    #[test]
    fn skip_idle_matches_full_step() {
        // A spanning tree and a depth-limited one (non-members never wake).
        let g = gen::random_regular(300, 6, 3);
        let limited =
            build_bfs_tree(&g, 4, 2, olog_budget(300, 8), EngineKind::Sequential, 1).unwrap().0;
        let budget = olog_budget(g.n(), 16);
        for tree in &[tree_for(&g, 4), limited] {
            for kind in [EngineKind::Sequential, EngineKind::Parallel] {
                for (seed, op) in [(11, None), (12, Some(Op::Min)), (13, Some(Op::Max)), (14, Some(Op::Sum))] {
                    let make = phase_node(tree, op);
                    let mut skip = Network::new(&g, &make, budget, kind, seed);
                    let mut full = Network::new(&g, |id| Eager(make(id)), budget, kind, seed);
                    skip.run_rounds(tree.depth as u64 + 3).unwrap();
                    full.run_rounds(tree.depth as u64 + 3).unwrap();
                    assert_eq!(skip.metrics(), full.metrics(), "{kind:?} seed {seed}");
                    assert_eq!(
                        digest(skip.node_states()),
                        digest(full.node_states().map(|e| &e.0)),
                        "{kind:?} seed {seed}"
                    );
                }
            }
        }
    }

    /// The reference execution of one phase: a fresh network on the whole
    /// graph, stopped by the same rule as [`TreeNetwork`]'s phases. Returns
    /// every node's final value and the metrics, or the run's error.
    fn fresh_full_graph_phase(
        g: &Graph,
        tree: &BfsTree,
        op: Option<Op>,
        mut value: impl FnMut(usize) -> Option<Wide>,
        budget: u32,
        kind: EngineKind,
        seed: u64,
    ) -> Result<(Vec<Option<Wide>>, Metrics), RunError> {
        let make = |id: usize| TreeNode::new(tree, op, tree.dist[id].and(value(id)));
        let mut net = Network::new(g, make, budget, kind, seed);
        let limit = tree.depth as u64 + 2;
        match op {
            None => net.run_until_quiet(limit),
            Some(_) => net.run_until(|n| n.node(tree.src).done, limit),
        }?;
        Ok((net.node_states().map(|s| s.value).collect(), net.metrics()))
    }

    #[test]
    fn tree_network_replays_fresh_full_graph_phases() {
        // Spanning and depth-limited trees; the reused network on the tree
        // alone must match a fresh full-graph network phase by phase.
        let g = gen::random_regular(120, 4, 2);
        let budget = olog_budget(120, 16);
        for (limit, kind) in [(u32::MAX, EngineKind::Sequential), (3, EngineKind::Parallel)] {
            let tree = build_bfs_tree(&g, 7, limit, budget, EngineKind::Sequential, 1)
                .unwrap()
                .0;
            let topo = TreeTopology::new(&tree);
            let members = topo.members();
            let own = |id: usize| (!id.is_multiple_of(4)).then(|| Wide::new(id as u128 * 3, 16));
            let mut net = TreeNetwork::new(&topo, budget, kind);
            for round in 0..3u64 {
                for op in [Op::Min, Op::Max, Op::Sum] {
                    let seed = round * 10 + op as u64;
                    let got = net.convergecast(op, |i| own(members[i] as usize), seed).unwrap();
                    let (vals, m) =
                        fresh_full_graph_phase(&g, &tree, Some(op), own, budget, kind, seed).unwrap();
                    assert_eq!(got, (vals[tree.src], m), "{op:?} round {round}");
                }
                let value = Wide::new(round as u128 + 40, 8);
                let m = net.broadcast(value, round).unwrap();
                let root = |id| (id == tree.src).then_some(value);
                let (vals, fresh_m) =
                    fresh_full_graph_phase(&g, &tree, None, root, budget, kind, round).unwrap();
                assert_eq!(m, fresh_m, "broadcast round {round}");
                let got: Vec<_> = net.values().collect();
                let want: Vec<_> = members.iter().map(|&u| vals[u as usize]).collect();
                assert_eq!(got, want, "broadcast round {round}");
                assert!(vals.iter().enumerate().all(|(u, v)| v.is_some() == tree.dist[u].is_some()));
            }
        }
    }

    #[test]
    fn budget_error_names_full_graph_nodes() {
        // Partial sums too wide for the budget on a depth-limited tree: the
        // tree network must report the edge and round a fresh full-graph
        // network reports, in full-graph ids, and still serve phases after.
        let g = gen::random_regular(120, 4, 2);
        let tree = build_bfs_tree(&g, 7, 3, olog_budget(120, 16), EngineKind::Sequential, 1)
            .unwrap()
            .0;
        let topo = TreeTopology::new(&tree);
        let members = topo.members();
        let wide = |id: usize| Some(Wide::new(id as u128, 24));
        let root = |id| (id == tree.src).then(|| Wide::new(9, 8));
        for kind in [EngineKind::Sequential, EngineKind::Parallel] {
            let mut net = TreeNetwork::new(&topo, 20, kind);
            let got = net.convergecast(Op::Sum, |i| wide(members[i] as usize), 1).unwrap_err();
            let want =
                fresh_full_graph_phase(&g, &tree, Some(Op::Sum), wide, 20, kind, 1).unwrap_err();
            assert!(matches!(got, RunError::BudgetExceeded { .. }), "{got:?}");
            assert_eq!(got, want, "{kind:?}");
            let after = net.broadcast(Wide::new(9, 8), 2).unwrap();
            let fresh = fresh_full_graph_phase(&g, &tree, None, root, 20, kind, 2).unwrap();
            assert_eq!(after, fresh.1, "{kind:?}");
        }
    }

    #[test]
    fn warm_phases_do_not_allocate() {
        let g = gen::random_regular(400, 6, 5);
        let tree = tree_for(&g, 0);
        for kind in [EngineKind::Sequential, EngineKind::Parallel] {
            let topo = TreeTopology::new(&tree);
            let mut net = TreeNetwork::new(&topo, olog_budget(400, 16), kind);
            let phase = |net: &mut TreeNetwork<'_>, i: u64| {
                net.broadcast(Wide::new(i as u128, 8), i).unwrap();
                net.convergecast(Op::Sum, |id| Some(Wide::new(id as u128, 20)), i)
                    .unwrap();
            };
            phase(&mut net, 0); // warm-up: arenas size themselves
            let events = |net: &TreeNetwork<'_>| net.net.as_ref().unwrap().routing_alloc_events();
            let warmed = events(&net);
            for i in 1..20 {
                phase(&mut net, i);
            }
            assert_eq!(events(&net), warmed, "tree phases allocated after warm-up ({kind:?})");
        }
    }
}
