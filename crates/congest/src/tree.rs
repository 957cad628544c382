//! Broadcast and convergecast over a BFS tree (§3.1's upcast/downcast
//! toolkit; see also \[20\] in the paper).
//!
//! * **Broadcast**: the root pushes a value down the tree; `depth` rounds.
//! * **Convergecast**: every node contributes a value; aggregates flow up,
//!   each internal node combining its children's partials with its own
//!   before forwarding; `depth` rounds. The aggregation is an [`Op`] —
//!   min, max or sum (a count is a sum of ones).
//!
//! A tree phase sends along tree edges only, one message per edge, and its
//! schedule is fixed by the tree's shape, so it is not simulated message by
//! message. A crate-private flat kernel lays the tree out in BFS order (the
//! root first, each node's children contiguous, a parent position per node):
//! once per call of the functions here, once per tree for
//! [`crate::binsearch::RSmallestSearch`]. A broadcast then delivers the
//! value to every member directly, and a convergecast is one pass over the
//! members in reverse BFS order that folds each subtree's partial into its
//! parent's slot (the binary search charges most of its convergecasts in
//! closed form instead, see [`crate::binsearch`]). The
//! kernel charges exactly what the message-passing protocol costs on a
//! full-graph [`crate::engine::Network`] (a differential test runs that
//! protocol as the oracle):
//!
//! * a phase takes `d` rounds for a tree of depth `d` (0 for a lone root)
//!   and sends `m − 1` messages for `m` members, one per tree edge;
//! * a value going down costs `width` bits, a partial going up `1 + width`
//!   (a tag bit), and an empty-subtree report 1 bit ([`TreeMsg`]);
//! * a convergecast node sends in the round equal to the height of its
//!   subtree (leaves report at once, in round 0);
//! * a message over the budget fails the phase with
//!   [`RunError::BudgetExceeded`] naming the first violating round and, in
//!   it, the smallest `(from, to)` pair, in full-graph ids.
//!
//! Tree phases are sequential and draw no randomness, so they take no
//! engine or seed: Parallel ≡ Sequential holds for them once the BFS tree
//! agrees. Results do not depend on the pass order because [`Op::combine`]
//! does not.

use crate::bfs::BfsTree;
use crate::engine::{Metrics, RunError};
use crate::message::Payload;

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
    /// max keep the winning operand, and on a tie in value the wider field.
    /// The result does not depend on the operands' order or grouping, so
    /// a convergecast may fold its partials in any order.
    ///
    /// # Panics
    /// Panics if a sum overflows `u128`.
    pub fn combine(self, a: Wide, b: Wide) -> Wide {
        let width = a.width.max(b.width);
        match self {
            Op::Min | Op::Max if a.value == b.value => Wide {
                value: a.value,
                width,
            },
            Op::Min if b.value < a.value => b,
            Op::Max if b.value > a.value => b,
            Op::Min | Op::Max => a,
            Op::Sum => Wide {
                value: a
                    .value
                    .checked_add(b.value)
                    .expect("convergecast sum overflow"),
                width,
            },
        }
    }
}

/// A tree-phase message: the wire format whose bits the flat kernel
/// charges for each tree edge a phase crosses.
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

/// A BFS tree laid out for flat tree phases: the members in BFS order
/// (the root first, each node's children contiguous and in the tree's
/// child order), each with its parent's position, plus the partials of the
/// current convergecast.
pub(crate) struct FlatTree {
    /// `order[i]`: the full-graph id of the member at BFS position `i`.
    order: Vec<u32>,
    /// `parent[i]`: the BFS position of member `i`'s parent (`0` for the
    /// root itself).
    parent: Vec<u32>,
    /// Rounds per phase: the depth of the deepest member.
    depth: u32,
    budget_bits: u32,
    /// Convergecast partial of each member's subtree so far: the value,
    /// its field width, and whether anything in the subtree contributed
    /// (sized by the first convergecast).
    part: Vec<u128>,
    width: Vec<u32>,
    full: Vec<bool>,
}

impl FlatTree {
    pub(crate) fn new(tree: &BfsTree, budget_bits: u32) -> Self {
        let mut order = vec![tree.src as u32];
        let mut parent = vec![0u32];
        let (mut level, mut depth) = (0..1, 0);
        loop {
            for i in level.clone() {
                let kids = tree.children(order[i] as usize);
                order.extend_from_slice(kids);
                parent.resize(order.len(), i as u32);
            }
            level = level.end..order.len();
            if level.is_empty() {
                break;
            }
            depth += 1;
        }
        debug_assert_eq!(order.len(), tree.reached(), "children must span the tree");
        FlatTree {
            order,
            parent,
            depth,
            budget_bits,
            part: Vec::new(),
            width: Vec::new(),
            full: Vec::new(),
        }
    }

    /// Full-graph ids of the members, in BFS order (the positions the
    /// convergecast's `contribute` receives).
    pub(crate) fn members(&self) -> &[u32] {
        &self.order
    }

    /// Messages of one phase: one per tree edge.
    fn sends(&self) -> u64 {
        self.order.len() as u64 - 1
    }

    /// Each member's subtree minimum of `value` (indexed by BFS position),
    /// written to `out` in one reverse-BFS pass.
    pub(crate) fn subtree_min(&self, value: &[u128], out: &mut Vec<u128>) {
        out.clear();
        out.extend_from_slice(value);
        for i in (1..out.len()).rev() {
            let p = self.parent[i] as usize;
            out[p] = out[p].min(out[i]);
        }
    }

    /// What [`FlatTree::convergecast`] charges, without the pass, when every
    /// contribution has field width `width` and `q` non-root members have a
    /// contribution in their subtree: those `q` report `1 + width` bits, the
    /// other non-root members an empty 1-bit report. `None` if a report
    /// exceeds the budget; the pass then names the error.
    pub(crate) fn convergecast_cost(&self, q: u64, width: u32) -> Option<Metrics> {
        let sends = self.sends();
        let up = 1 + width;
        let empty = TreeMsg::Empty.encoded_bits();
        let max_edge_bits = match (q, sends) {
            (_, 0) => 0,
            (0, _) => empty,
            _ => up,
        };
        (max_edge_bits <= self.budget_bits).then(|| Metrics {
            rounds: self.depth as u64,
            messages: sends,
            bits: q * up as u64 + (sends - q) * empty as u64,
            max_edge_bits,
            ..Metrics::default()
        })
    }

    /// The budget error of a `bits`-bit message in `round` over the tree
    /// edge between BFS positions `from` and `to`.
    fn exceeded(&self, from: usize, to: usize, round: u64, bits: u32) -> RunError {
        RunError::BudgetExceeded {
            from: self.order[from] as usize,
            to: self.order[to] as usize,
            round,
            bits,
            budget: self.budget_bits,
        }
    }

    /// Broadcast `value` from the root: every member receives it. The root
    /// sends in round 0 and a node at depth `k` forwards in round `k`.
    pub(crate) fn broadcast(&self, value: Wide) -> Result<Metrics, RunError> {
        let bits = TreeMsg::Down(value).encoded_bits();
        let sends = self.sends();
        if sends > 0 && bits > self.budget_bits {
            // Round 0 has one sender, the root; its children are positions
            // 1.. up to the first node whose parent is not the root.
            let first = (1..self.order.len())
                .take_while(|&i| self.parent[i] == 0)
                .min_by_key(|&i| self.order[i])
                .expect("a root with members below has a child");
            return Err(self.exceeded(0, first, 0, bits));
        }
        Ok(Metrics {
            rounds: self.depth as u64,
            messages: sends,
            bits: sends * bits as u64,
            max_edge_bits: if sends > 0 { bits } else { 0 },
            ..Metrics::default()
        })
    }

    /// Position `i`'s partial (meaningful where `full[i]`).
    #[inline]
    fn partial(&self, i: usize) -> Wide {
        Wide {
            value: self.part[i],
            width: self.width[i],
        }
    }

    /// Fold `w` into position `i`'s partial.
    #[inline]
    fn fold(&mut self, i: usize, op: Op, w: Wide) {
        let w = if self.full[i] {
            op.combine(self.partial(i), w)
        } else {
            self.full[i] = true;
            w
        };
        self.part[i] = w.value;
        self.width[i] = w.width;
    }

    /// Bits of position `i`'s report to its parent, once its subtree is
    /// folded.
    #[inline]
    fn report_bits(&self, i: usize) -> u32 {
        if self.full[i] {
            TreeMsg::Up(self.partial(i)).encoded_bits()
        } else {
            TreeMsg::Empty.encoded_bits()
        }
    }

    /// Aggregate with `op` at the root; `contribute(i)` is the contribution
    /// of the member at BFS position `i` (called once per member, in
    /// reverse BFS order). Every child sits at a later position than its
    /// parent, so one reverse pass completes each subtree before its root
    /// reports.
    ///
    /// # Panics
    /// Panics if a sum overflows `u128`.
    pub(crate) fn convergecast(
        &mut self,
        op: Op,
        mut contribute: impl FnMut(usize) -> Option<Wide>,
    ) -> Result<(Option<Wide>, Metrics), RunError> {
        let m = self.order.len();
        self.full.clear();
        self.full.resize(m, false);
        self.part.resize(m, 0);
        self.width.resize(m, 0);
        let (mut bits, mut max_edge_bits) = (0u64, 0u32);
        for i in (1..m).rev() {
            if let Some(own) = contribute(i) {
                self.fold(i, op, own);
            }
            let b = self.report_bits(i);
            bits += b as u64;
            max_edge_bits = max_edge_bits.max(b);
            if self.full[i] {
                self.fold(self.parent[i] as usize, op, self.partial(i));
            }
        }
        if let Some(own) = contribute(0) {
            self.fold(0, op, own);
        }
        if max_edge_bits > self.budget_bits {
            return Err(self.first_violation());
        }
        let root = self.full[0].then(|| self.partial(0));
        let metrics = Metrics {
            rounds: self.depth as u64,
            messages: self.sends(),
            bits,
            max_edge_bits,
            ..Metrics::default()
        };
        Ok((root, metrics))
    }

    /// The error of the last convergecast, which overran the budget: a node
    /// reports in the round equal to its subtree's height, so the first
    /// violating round is the smallest such height, and within it the
    /// smallest sender id names the edge (each sender has one edge up).
    fn first_violation(&self) -> RunError {
        let m = self.order.len();
        let mut height = vec![0u32; m];
        for i in (1..m).rev() {
            let p = self.parent[i] as usize;
            height[p] = height[p].max(height[i] + 1);
        }
        let i = (1..m)
            .filter(|&i| self.report_bits(i) > self.budget_bits)
            .min_by_key(|&i| (height[i], self.order[i]))
            .expect("a report over the budget");
        let p = self.parent[i] as usize;
        self.exceeded(i, p, height[i] as u64, self.report_bits(i))
    }
}

/// Broadcast `value` from the tree root to every tree node.
///
/// Returns each node's received value (`None` outside the tree) and metrics.
pub fn broadcast(
    tree: &BfsTree,
    value: Wide,
    budget_bits: u32,
) -> Result<(Vec<Option<Wide>>, Metrics), RunError> {
    let flat = FlatTree::new(tree, budget_bits);
    let m = flat.broadcast(value)?;
    let mut values = vec![None; tree.dist.len()];
    for &u in flat.members() {
        values[u as usize] = Some(value);
    }
    Ok((values, m))
}

/// Convergecast: aggregate per-node contributions up to the root with `op`.
///
/// `contribute(id)` yields node `id`'s value (or `None` to contribute
/// nothing — how threshold-filtered counts/sums are expressed); it is
/// called once per tree node, in no particular order. Subtlety: a node
/// still *forwards* children's partials even when it contributes nothing
/// itself.
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
) -> Result<(Option<Wide>, Metrics), RunError> {
    assert!(
        tree.spanning(),
        "convergecast requires a spanning BFS tree (reached {}/{}); \
         use convergecast_partial for depth-limited trees",
        tree.reached(),
        tree.dist.len()
    );
    convergecast_partial(tree, op, contribute, budget_bits)
}

/// [`convergecast`] over a possibly depth-limited tree: only tree members
/// participate; non-members neither contribute nor forward.
pub fn convergecast_partial(
    tree: &BfsTree,
    op: Op,
    mut contribute: impl FnMut(usize) -> Option<Wide>,
    budget_bits: u32,
) -> Result<(Option<Wide>, Metrics), RunError> {
    let mut flat = FlatTree::new(tree, budget_bits);
    let members = flat.members().to_vec();
    flat.convergecast(op, |i| contribute(members[i] as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::build_bfs_tree;
    use crate::engine::{Ctx, EngineKind, Network, Protocol};
    use crate::message::olog_budget;
    use lmt_graph::{gen, Graph};
    use proptest::prelude::*;

    fn tree_for(g: &Graph, src: usize) -> BfsTree {
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
    fn broadcast_reaches_all_in_depth_rounds() {
        let g = gen::grid(4, 4);
        let tree = tree_for(&g, 0);
        let (vals, m) = broadcast(&tree, Wide::new(99, 8), olog_budget(16, 8)).unwrap();
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
        )
        .unwrap();
        assert_eq!(res.unwrap().value, 10);
    }

    #[test]
    fn empty_contribution_yields_none() {
        let g = gen::cycle(4);
        let tree = tree_for(&g, 0);
        let (res, _) = convergecast(&tree, Op::Sum, |_| None, olog_budget(4, 16)).unwrap();
        assert!(res.is_none());
    }

    #[test]
    #[should_panic(expected = "spanning")]
    fn non_spanning_tree_rejected() {
        let g = gen::path(6);
        let (tree, _) =
            build_bfs_tree(&g, 0, 2, olog_budget(6, 8), EngineKind::Sequential, 1).unwrap();
        let _ = convergecast(&tree, Op::Sum, |_| None, olog_budget(6, 16));
    }

    #[test]
    fn parallel_matches_sequential() {
        // The engine only builds the tree (the BfsNode protocol on a
        // network); the phase on it must agree.
        let g = gen::random_regular(48, 4, 8);
        let run = |kind| {
            let budget = olog_budget(48, 16);
            let (tree, _) =
                crate::bfs::build_bfs_tree_faulty(&g, 0, u32::MAX, budget, kind, 1, None).unwrap();
            convergecast(&tree, Op::Sum, |id| Some(Wide::new(id as u128, 16)), budget).unwrap()
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
        let (_, m) = broadcast(&tree, Wide::new(3, 12), budget).unwrap();
        assert_eq!((m.messages, m.bits), (leaves, 12 * leaves), "down: width");
        let (_, m) = convergecast(
            &tree,
            Op::Sum,
            |id| (id % 2 == 1).then(|| Wide::new(1, 12)),
            budget,
        )
        .unwrap();
        // Leaves 1, 3, 5, 7 send a value (1 + 12 bits), 2, 4, 6, 8 an empty report.
        assert_eq!((m.messages, m.bits), (leaves, 4 * 13 + 4));
        assert_eq!(m.max_edge_bits, 13);
    }

    /// One node's state in one message-passing tree phase: the protocol the
    /// flat kernel replaces, kept as its differential oracle. The node's
    /// place in the tree is read from `tree` at `ctx.id()` when it acts.
    struct TreeNode<'t> {
        tree: &'t BfsTree,
        /// `None` in a broadcast, the aggregation in a convergecast.
        op: Option<Op>,
        /// Forwarded (broadcast) or reported upward (convergecast).
        done: bool,
        /// Convergecast: children heard from.
        received: u32,
        /// Broadcast: the value held (the root's from the start, others'
        /// once received). Convergecast: the node's own contribution
        /// (`None` = contributes nothing); at the root, the aggregate once
        /// `done`.
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
            for &c in self.tree.children(ctx.id()) {
                ctx.send(c as usize, TreeMsg::Down(v));
            }
            self.done = true;
        }

        /// Convergecast: once every child has reported, combine and report
        /// upward — even with nothing to contribute, so the parent's child
        /// counter advances. The root keeps the total instead. (A node
        /// outside the tree has neither children nor a parent: it finishes
        /// silently.)
        fn try_flush(&mut self, ctx: &mut Ctx<'_, TreeMsg>, op: Op) {
            let (id, tree) = (ctx.id(), self.tree);
            if self.done || (self.received as usize) < tree.children(id).len() {
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

    /// The reference execution of one phase: a fresh network on the whole
    /// graph running [`TreeNode`], stopped at quiescence (broadcast) or when
    /// the root is done (convergecast). Returns every node's final value
    /// and the metrics, or the run's error.
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

    /// One flat phase in the oracle's terms: every node's value (the
    /// broadcast value at members, the aggregate at the root) and the
    /// metrics.
    fn flat_phase(
        flat: &mut FlatTree,
        n: usize,
        src: usize,
        op: Option<Op>,
        mut value: impl FnMut(usize) -> Option<Wide>,
    ) -> Result<(Vec<Option<Wide>>, Metrics), RunError> {
        let members = flat.members().to_vec();
        let mut vals = vec![None; n];
        let m = match op {
            None => {
                let v = value(src).expect("the root holds the broadcast value");
                let m = flat.broadcast(v)?;
                for &u in &members {
                    vals[u as usize] = Some(v);
                }
                m
            }
            Some(op) => {
                let (root, m) = flat.convergecast(op, |i| value(members[i] as usize))?;
                vals[src] = root;
                m
            }
        };
        Ok((vals, m))
    }

    #[test]
    fn tree_network_replays_fresh_full_graph_phases() {
        // Spanning and depth-limited trees; one flat layout serving many
        // phases must match a fresh full-graph network phase by phase.
        let g = gen::random_regular(120, 4, 2);
        let budget = olog_budget(120, 16);
        for (limit, kind) in [
            (u32::MAX, EngineKind::Sequential),
            (3, EngineKind::Parallel),
        ] {
            let tree = build_bfs_tree(&g, 7, limit, budget, EngineKind::Sequential, 1)
                .unwrap()
                .0;
            let mut flat = FlatTree::new(&tree, budget);
            for round in 0..3u64 {
                let own = |id: usize| {
                    (!(id as u64 + round).is_multiple_of(4)).then(|| Wide::new(id as u128 * 3, 16))
                };
                for op in [Op::Min, Op::Max, Op::Sum] {
                    let seed = round * 10 + op as u64;
                    let got = flat_phase(&mut flat, g.n(), tree.src, Some(op), own).unwrap();
                    let want = fresh_full_graph_phase(&g, &tree, Some(op), own, budget, kind, seed)
                        .unwrap();
                    assert_eq!(got.0[tree.src], want.0[tree.src], "{op:?} round {round}");
                    assert_eq!(got.1, want.1, "{op:?} round {round}");
                }
                let value = Wide::new(round as u128 + 40, 8);
                let root = |id| (id == tree.src).then_some(value);
                let got = flat_phase(&mut flat, g.n(), tree.src, None, root).unwrap();
                let want =
                    fresh_full_graph_phase(&g, &tree, None, root, budget, kind, round).unwrap();
                assert_eq!(got, want, "broadcast round {round}");
                assert!(want
                    .0
                    .iter()
                    .enumerate()
                    .all(|(u, v)| v.is_some() == tree.dist[u].is_some()));
            }
        }
    }

    #[test]
    fn budget_error_names_full_graph_nodes() {
        // Partial sums too wide for the budget on a depth-limited tree: the
        // kernel must report the edge and round a fresh full-graph network
        // reports, in full-graph ids, and still serve phases after.
        let g = gen::random_regular(120, 4, 2);
        let tree = build_bfs_tree(&g, 7, 3, olog_budget(120, 16), EngineKind::Sequential, 1)
            .unwrap()
            .0;
        let wide = |id: usize| Some(Wide::new(id as u128, 24));
        let root = |id| (id == tree.src).then(|| Wide::new(9, 8));
        for kind in [EngineKind::Sequential, EngineKind::Parallel] {
            let mut flat = FlatTree::new(&tree, 20);
            let got = flat_phase(&mut flat, g.n(), tree.src, Some(Op::Sum), wide).unwrap_err();
            let want =
                fresh_full_graph_phase(&g, &tree, Some(Op::Sum), wide, 20, kind, 1).unwrap_err();
            assert!(matches!(got, RunError::BudgetExceeded { .. }), "{got:?}");
            assert_eq!(got, want, "{kind:?}");
            let after = flat_phase(&mut flat, g.n(), tree.src, None, root).unwrap();
            let fresh = fresh_full_graph_phase(&g, &tree, None, root, 20, kind, 2).unwrap();
            assert_eq!(after, fresh, "{kind:?}");
        }
    }

    #[test]
    fn min_max_ties_keep_the_wider_field() {
        let (a, b) = (Wide::new(5, 8), Wide::new(5, 12));
        for op in [Op::Min, Op::Max] {
            assert_eq!(op.combine(a, b), b, "{op:?}");
            assert_eq!(op.combine(b, a), b, "{op:?}");
        }
        assert_eq!(Op::Min.combine(Wide::new(3, 4), b), Wide::new(3, 4));
        assert_eq!(Op::Max.combine(Wide::new(3, 4), b), b);
    }

    fn connected_graph() -> impl Strategy<Value = Graph> {
        (1usize..40, 0.05f64..0.6, any::<u64>())
            .prop_map(|(n, p, seed)| gen::erdos_renyi(n, p, seed))
            .prop_filter("connected", lmt_graph::props::is_connected)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The flat kernel ≡ a fresh full-graph network running
        /// [`TreeNode`], phase by phase on one layout: the values, every
        /// [`Metrics`] field and the [`RunError`], compared exactly. Trees
        /// are spanning or depth-limited (limit 0 leaves the root alone);
        /// in each convergecast a different quarter of the nodes
        /// contributes; field widths vary per node (20–22 bits, messages of
        /// 21–23 bits up and 22 bits down) against budgets of 21–24 bits, so
        /// each phase meets a budget one below, equal to and one above its
        /// widest message.
        #[test]
        fn flat_phases_match_full_graph_network(
            g in connected_graph(),
            src_raw in any::<usize>(),
            limit_raw in 0u32..6,
            budget in 21u32..25,
            parallel in any::<bool>(),
            vals in proptest::collection::vec((0u32..4, 0u64..1 << 20, 0u32..3), 40),
        ) {
            let n = g.n();
            let src = src_raw % n;
            let limit = if limit_raw == 5 { u32::MAX } else { limit_raw };
            let tree = build_bfs_tree(&g, src, limit, olog_budget(n, 8), EngineKind::Sequential, 1)
                .unwrap()
                .0;
            let kind = if parallel { EngineKind::Parallel } else { EngineKind::Sequential };
            let root = |id| (id == src).then(|| Wide::new(7, 22));
            let mut flat = FlatTree::new(&tree, budget);
            for (seed, op) in [None, Some(Op::Min), Some(Op::Max), Some(Op::Sum)].into_iter().enumerate() {
                let own = |id: usize| {
                    let (pick, value, extra) = vals[id];
                    (pick as usize == seed).then(|| Wide::new(value as u128, 20 + extra))
                };
                let (got, want) = match op {
                    None => (
                        flat_phase(&mut flat, n, src, None, root),
                        fresh_full_graph_phase(&g, &tree, None, root, budget, kind, seed as u64),
                    ),
                    Some(_) => {
                        let got = flat_phase(&mut flat, n, src, op, own);
                        let want = fresh_full_graph_phase(&g, &tree, op, own, budget, kind, seed as u64)
                            .map(|(vals, m)| {
                                let mut root_only = vec![None; n];
                                root_only[src] = vals[src];
                                (root_only, m)
                            });
                        (got, want)
                    }
                };
                prop_assert!(got == want, "{op:?}: flat {got:?} != network {want:?}");
            }
        }
    }
}
