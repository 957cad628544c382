//! The synchronous round executor.
//!
//! Semantics: in round `t ≥ 1` every node first *receives* the messages sent
//! in round `t−1`, then performs local computation, then *sends* messages to
//! neighbors. Round 0 is the `init` hook (local setup + initial sends).
//!
//! Every node is stepped every round, so a protocol may rely on being
//! called with an empty inbox (timers, polling, spontaneous sends). Tree
//! phases, whose schedule is fixed by the tree, do not run here: the
//! [`crate::tree`] module meters them with a flat kernel instead.
//!
//! Two interchangeable engines execute node steps: sequential and
//! rayon-parallel (real threads — node ranges are chunked across a scoped
//! pool; see the `rayon` shim). Both produce **bit-identical** executions
//! because (a) every node owns an RNG stream derived from `(seed, node_id)`
//! only, (b) inboxes are assembled in ascending sender order by the
//! `routing` message plane, and (c) node steps never share mutable
//! state. `tests/determinism.rs` (workspace root) locks this equivalence in
//! at pool widths 1, 2, and 8.
//!
//! Message delivery lives in the `routing` module: each node's visit leaves
//! its outbox in destination order, and one sequential pass over the
//! senders in id order appends every outbox's runs to the receiving inboxes,
//! in buffers that are reused — not reallocated — every round. The engine
//! only decides *when* to route and meters the result.

use crate::fault::FaultPlan;
use crate::message::Payload;
use crate::routing::{self, FaultCtx, Router};
use lmt_graph::Graph;
use lmt_util::rng::RngFanout;
use rand::rngs::SmallRng;
use rayon::prelude::*;

/// Minimum nodes per worker chunk for the parallel engine. A node step is
/// cheap (inbox scan + a few sends), so below this the spawn overhead
/// dominates and the round runs inline on the calling thread.
const PAR_MIN_CHUNK: usize = 128;

/// Which executor to use. Results are identical; only wall-clock differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Plain loop over nodes.
    #[default]
    Sequential,
    /// Rayon `par_iter` over nodes. Routing is sequential in both.
    Parallel,
}

/// Aggregate cost metrics of a run (the paper's complexity measures).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Rounds executed (init not counted; matches the paper's convention of
    /// counting communication rounds).
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total bits delivered.
    pub bits: u64,
    /// Maximum bits observed on one directed edge in one round (attempted:
    /// the CONGEST budget meters what senders load onto the edge, whether
    /// or not the fault layer then loses it).
    pub max_edge_bits: u32,
    /// Messages lost to the fault layer (random drops and messages
    /// addressed to already-crashed receivers). Zero on fault-free runs.
    pub dropped_messages: u64,
    /// Nodes crashed at or before the current round (a gauge, not a
    /// counter). Zero on fault-free runs.
    pub crashed_nodes: u64,
}

impl Metrics {
    /// Accumulate another phase's metrics (used when an algorithm composes
    /// several protocol phases; rounds add, maxima combine — including the
    /// crashed-node gauge, which only grows over a run).
    pub fn absorb(&mut self, other: &Metrics) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
        self.max_edge_bits = self.max_edge_bits.max(other.max_edge_bits);
        self.dropped_messages += other.dropped_messages;
        self.crashed_nodes = self.crashed_nodes.max(other.crashed_nodes);
    }
}

/// Failures surfaced by the executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A node loaded more bits onto a directed edge in one round than the
    /// CONGEST budget allows. The reported edge is the lexicographically
    /// smallest violating `(from, to)` of the round; the network is not
    /// usable afterwards (the round's delivery is abandoned).
    BudgetExceeded {
        /// Sender node.
        from: usize,
        /// Receiver node.
        to: usize,
        /// Round in which the violation occurred.
        round: u64,
        /// Bits attempted on the edge.
        bits: u32,
        /// The configured per-edge budget.
        budget: u32,
    },
    /// The run did not reach its stop condition within the round cap.
    RoundLimit(u64),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::BudgetExceeded {
                from,
                to,
                round,
                bits,
                budget,
            } => write!(
                f,
                "CONGEST budget exceeded on edge {from}->{to} in round {round}: {bits} bits > {budget}"
            ),
            RunError::RoundLimit(r) => write!(f, "round limit {r} reached without termination"),
        }
    }
}

impl std::error::Error for RunError {}

/// Per-node protocol logic.
///
/// Implementations hold the node's local state. The engine calls
/// [`Protocol::init`] once, then [`Protocol::round`] every round with the
/// messages received. The inbox is assembled by the routing pass
/// (the `routing` module) as `(sender, message)` pairs **sorted by sender
/// id**, with one sender's messages in the order that sender sent them —
/// protocols may (and do) rely on that order for deterministic
/// tie-breaking.
pub trait Protocol: Send {
    /// The message type this protocol exchanges.
    type Msg: Payload;

    /// Round-0 hook: local setup and initial sends.
    fn init(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// One synchronous round: consume `inbox`, update state, send.
    fn round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: &[(u32, Self::Msg)]);
}

/// Per-step context handed to a node: identity, topology access, sending.
pub struct Ctx<'a, M: Payload> {
    id: usize,
    graph: &'a Graph,
    round: u64,
    outbox: &'a mut Vec<(u32, M)>,
    /// The node's deterministic RNG stream.
    pub rng: &'a mut SmallRng,
}

impl<M: Payload> Ctx<'_, M> {
    /// This node's id.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of nodes in the network (a model input, §1.1).
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Degree of this node.
    #[inline]
    pub fn degree(&self) -> usize {
        self.graph.degree(self.id)
    }

    /// Neighbor ids (initial knowledge per §1.1).
    #[inline]
    pub fn neighbors(&self) -> impl Iterator<Item = usize> + '_ {
        self.graph.neighbors(self.id)
    }

    /// The `i`-th neighbor of this node (0-based within the sorted
    /// adjacency) — indexed access for protocols that carry CSR-aligned
    /// per-edge state (e.g. the weighted flood's quantized weight row).
    ///
    /// # Panics
    /// Panics if `i >= degree()`.
    #[inline]
    pub fn neighbor(&self, i: usize) -> usize {
        self.graph.neighbor(self.id, i)
    }

    /// Current round number (0 during `init`).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Send `msg` to neighbor `to`.
    ///
    /// Sending to a non-neighbor (including to oneself — graphs have no
    /// self-loops) is a protocol bug, not a runtime condition.
    ///
    /// # Panics
    /// Panics if `to` is not adjacent: debug builds here, every build when
    /// the round is routed ("message addressed to non-neighbor").
    pub fn send(&mut self, to: usize, msg: M) {
        debug_assert!(
            self.graph.has_edge(self.id, to),
            "node {} sending to non-neighbor {}",
            self.id,
            to
        );
        self.outbox.push((to as u32, msg));
    }

    /// Send a copy of `msg` to every neighbor.
    ///
    /// Emits destinations in ascending adjacency order, so an outbox that
    /// only broadcasts is already in the destination order routing needs
    /// and is never sorted.
    pub fn send_all(&mut self, msg: M) {
        let dests = self.graph.neighbors_raw(self.id);
        self.outbox.extend(dests.iter().map(|&v| (v, msg.clone())));
    }
}

struct NodeSlot<P: Protocol> {
    proto: P,
    rng: SmallRng,
}

/// A network of nodes running protocol `P` on a graph.
///
/// # Example
///
/// A one-token flood, run to quiescence on a path — the smallest complete
/// protocol: infected nodes ping their neighbors once.
///
/// ```
/// use lmt_congest::engine::{Ctx, EngineKind, Network, Protocol};
/// use lmt_congest::message::{olog_budget, Ping};
/// use lmt_graph::gen;
///
/// struct Infect {
///     infected: bool,
/// }
///
/// impl Protocol for Infect {
///     type Msg = Ping;
///
///     fn init(&mut self, ctx: &mut Ctx<'_, Ping>) {
///         if ctx.id() == 0 {
///             self.infected = true;
///             ctx.send_all(Ping);
///         }
///     }
///
///     fn round(&mut self, ctx: &mut Ctx<'_, Ping>, inbox: &[(u32, Ping)]) {
///         if !inbox.is_empty() && !self.infected {
///             self.infected = true;
///             ctx.send_all(Ping);
///         }
///     }
/// }
///
/// let g = gen::path(6);
/// let mut net = Network::new(
///     &g,
///     |_| Infect { infected: false },
///     olog_budget(g.n(), 8),
///     EngineKind::Sequential,
///     42,
/// );
/// net.run_until_quiet(100)?;
/// assert!(net.node_states().all(|s| s.infected));
/// // The flood pays one round per hop of eccentricity (5 on this path),
/// // plus one quiet round to detect termination.
/// assert_eq!(net.metrics().rounds, 6);
/// # Ok::<(), lmt_congest::RunError>(())
/// ```
pub struct Network<'g, P: Protocol> {
    graph: &'g Graph,
    nodes: Vec<NodeSlot<P>>,
    outboxes: Vec<Vec<(u32, P::Msg)>>,
    router: Router<P::Msg>,
    round: u64,
    metrics: Metrics,
    budget_bits: u32,
    engine: EngineKind,
    last_round_sends: u64,
    initialized: bool,
    fault: Option<FaultPlan>,
}

impl<'g, P: Protocol> Network<'g, P> {
    /// Build a network: one protocol instance per node from `make`, a
    /// per-edge-per-round bit budget, an engine kind and a master seed.
    pub fn new(
        graph: &'g Graph,
        mut make: impl FnMut(usize) -> P,
        budget_bits: u32,
        engine: EngineKind,
        seed: u64,
    ) -> Self {
        let fan = RngFanout::new(seed);
        let nodes: Vec<NodeSlot<P>> = (0..graph.n())
            .map(|id| NodeSlot {
                proto: make(id),
                rng: fan.node(id),
            })
            .collect();
        let outboxes = (0..graph.n()).map(|_| Vec::new()).collect();
        Network {
            graph,
            nodes,
            outboxes,
            router: Router::new(graph.n()),
            round: 0,
            metrics: Metrics::default(),
            budget_bits,
            engine,
            last_round_sends: 0,
            initialized: false,
            fault: None,
        }
    }

    /// [`Network::new`] with a fault schedule attached (see the [`crate::fault`]
    /// module). A trivial plan (no crashes, zero drop probability) leaves
    /// every execution bit-identical to a plan-free network.
    ///
    /// # Panics
    /// Panics if the plan was built for a different node count.
    pub fn with_faults(
        graph: &'g Graph,
        make: impl FnMut(usize) -> P,
        budget_bits: u32,
        engine: EngineKind,
        seed: u64,
        plan: FaultPlan,
    ) -> Self {
        assert_eq!(
            plan.n(),
            graph.n(),
            "fault plan covers {} nodes but the graph has {}",
            plan.n(),
            graph.n()
        );
        let mut net = Network::new(graph, make, budget_bits, engine, seed);
        net.fault = Some(plan);
        net
    }

    /// The attached fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// True iff nothing has gone missing so far: no crashes have triggered
    /// and no message has been dropped. While this holds, quiescence
    /// ([`Network::run_until_quiet`]) retains its fault-free meaning —
    /// every sent message was delivered, so nothing is pending anywhere.
    pub fn lossless_so_far(&self) -> bool {
        self.metrics.dropped_messages == 0 && self.metrics.crashed_nodes == 0
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Immutable access to a node's protocol state (for result extraction).
    pub fn node(&self, id: usize) -> &P {
        &self.nodes[id].proto
    }

    /// Iterate over all node states.
    pub fn node_states(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter().map(|s| &s.proto)
    }

    /// Cumulative count of message-plane heap growth events (outbox and
    /// inbox buffers).
    ///
    /// The buffers warm up over the first rounds and are then reused, so
    /// this counter is **flat across steady-state rounds**, at any engine
    /// and pool width — the allocation-free-routing regression tests pin
    /// exactly that.
    pub fn routing_alloc_events(&self) -> u64 {
        self.router.alloc_events()
    }

    /// Run the `init` hook (idempotent).
    fn ensure_init(&mut self) -> Result<(), RunError> {
        if self.initialized {
            return Ok(());
        }
        self.initialized = true;
        self.visit(true);
        self.route()
    }

    /// Run one node hook on every node — `init`, or `round` on the routed
    /// inbox — skipping crashed nodes; each outbox is put in destination
    /// order in the same pass.
    fn visit(&mut self, init: bool) {
        let graph = self.graph;
        let round = self.round;
        let router = &self.router;
        let fault = self.fault.as_ref();
        let visit_node = |id: usize, slot: &mut NodeSlot<P>, outbox: &mut Vec<(u32, P::Msg)>| {
            if fault.is_some_and(|p| p.crashed_by(id, round)) {
                return;
            }
            let mut ctx = Ctx {
                id,
                graph,
                round,
                outbox: &mut *outbox,
                rng: &mut slot.rng,
            };
            if init {
                slot.proto.init(&mut ctx);
            } else {
                slot.proto.round(&mut ctx, router.inbox(id));
            }
            routing::normalize(outbox);
        };
        let nodes = &mut self.nodes[..];
        let outboxes = &mut self.outboxes[..];
        match self.engine {
            EngineKind::Sequential => {
                for (id, (slot, outbox)) in nodes.iter_mut().zip(outboxes.iter_mut()).enumerate() {
                    visit_node(id, slot, outbox);
                }
            }
            EngineKind::Parallel => {
                nodes
                    .par_iter_mut()
                    .with_min_len(PAR_MIN_CHUNK)
                    .zip(outboxes.par_iter_mut())
                    .enumerate()
                    .for_each(|(id, (slot, outbox))| visit_node(id, slot, outbox));
            }
        }
    }

    /// Deliver all outboxes into the inbox arena, enforcing the per-edge
    /// budget and updating metrics.
    ///
    /// The `routing` module's pass visits senders in ascending id order, so
    /// each inbox ends up sorted by sender, and empties the outboxes. On a
    /// budget violation the round's metrics are discarded and the smallest
    /// `(from, to)` offender is reported.
    fn route(&mut self) -> Result<(), RunError> {
        if let Some(plan) = &self.fault {
            self.metrics.crashed_nodes = plan.crashed_count_by(self.round);
        }
        let fault = self.fault.as_ref().map(|plan| FaultCtx {
            plan,
            round: self.round,
        });
        let outcome = self
            .router
            .route(self.graph, &mut self.outboxes, self.budget_bits, fault)
            .map_err(|(from, to, bits)| RunError::BudgetExceeded {
                from: from as usize,
                to: to as usize,
                round: self.round,
                bits,
                budget: self.budget_bits,
            })?;
        self.metrics.messages += outcome.delivered;
        self.metrics.bits += outcome.bits;
        self.metrics.max_edge_bits = self.metrics.max_edge_bits.max(outcome.max_edge_bits);
        self.metrics.dropped_messages += outcome.dropped;
        // Quiescence tracks *sends*, not deliveries: a protocol that keeps
        // transmitting into a lossy network is not quiet just because
        // every message was lost.
        self.last_round_sends = outcome.delivered + outcome.dropped;
        Ok(())
    }

    /// Execute one round; returns the number of messages *sent* in it.
    pub fn step(&mut self) -> Result<u64, RunError> {
        self.ensure_init()?;
        self.round += 1;
        self.metrics.rounds += 1;
        self.visit(false);
        self.route()?;
        Ok(self.last_round_sends)
    }

    /// Run exactly `k` rounds.
    pub fn run_rounds(&mut self, k: u64) -> Result<(), RunError> {
        for _ in 0..k {
            self.step()?;
        }
        Ok(())
    }

    /// Run until a round in which no messages were sent (network
    /// quiescence — every sent message is delivered the next round, so no
    /// sends also means nothing is pending), or until `max_rounds`.
    ///
    /// **Under faults, quiescence does not mean completion.** Dropped
    /// messages and crashed senders can empty the pending set while the
    /// protocol's goal (full infection, a spanning tree, …) was never
    /// reached — e.g. a flood whose only bridge message was dropped goes
    /// quiet with half the graph uninfected. Callers on a faulty network
    /// must check their own completion predicate (or
    /// [`Network::lossless_so_far`], which certifies that quiescence still
    /// carries its fault-free meaning).
    pub fn run_until_quiet(&mut self, max_rounds: u64) -> Result<(), RunError> {
        self.ensure_init()?;
        for _ in 0..max_rounds {
            if self.last_round_sends == 0 {
                return Ok(());
            }
            self.step()?;
        }
        if self.last_round_sends == 0 {
            return Ok(());
        }
        Err(RunError::RoundLimit(max_rounds))
    }

    /// Run until `pred` holds over the node states, checking after every
    /// round; errs with [`RunError::RoundLimit`] past `max_rounds`.
    pub fn run_until(
        &mut self,
        mut pred: impl FnMut(&Self) -> bool,
        max_rounds: u64,
    ) -> Result<(), RunError> {
        self.ensure_init()?;
        if pred(self) {
            return Ok(());
        }
        for _ in 0..max_rounds {
            self.step()?;
            if pred(self) {
                return Ok(());
            }
        }
        Err(RunError::RoundLimit(max_rounds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{olog_budget, Counter, Ping};
    use lmt_graph::gen;

    /// Flood a single token: infected nodes ping all neighbors once.
    struct Infect {
        infected: bool,
        is_source: bool,
        announced: bool,
    }

    impl Protocol for Infect {
        type Msg = Ping;

        fn init(&mut self, ctx: &mut Ctx<'_, Ping>) {
            if self.is_source {
                self.infected = true;
                self.announced = true;
                ctx.send_all(Ping);
            }
        }

        fn round(&mut self, ctx: &mut Ctx<'_, Ping>, inbox: &[(u32, Ping)]) {
            if !inbox.is_empty() && !self.infected {
                self.infected = true;
            }
            if self.infected && !self.announced {
                self.announced = true;
                ctx.send_all(Ping);
            }
        }
    }

    fn infect_net(g: &lmt_graph::Graph, kind: EngineKind) -> Network<'_, Infect> {
        Network::new(
            g,
            |id| Infect {
                infected: false,
                is_source: id == 0,
                announced: false,
            },
            olog_budget(g.n(), 8),
            kind,
            42,
        )
    }

    #[test]
    fn flood_reaches_everyone_in_ecc_rounds() {
        let g = gen::path(6);
        let mut net = infect_net(&g, EngineKind::Sequential);
        net.run_until_quiet(100).unwrap();
        assert!(net.node_states().all(|s| s.infected));
        // Path eccentricity from node 0 is 5; one extra quiet round allowed.
        assert!(net.metrics().rounds <= 7, "rounds={}", net.metrics().rounds);
    }

    #[test]
    fn sequential_and_parallel_identical() {
        let g = gen::random_regular(40, 4, 9);
        let mut a = infect_net(&g, EngineKind::Sequential);
        let mut b = infect_net(&g, EngineKind::Parallel);
        a.run_until_quiet(100).unwrap();
        b.run_until_quiet(100).unwrap();
        assert_eq!(a.metrics(), b.metrics());
        for id in 0..g.n() {
            assert_eq!(a.node(id).infected, b.node(id).infected);
        }
    }

    #[test]
    fn metrics_count_bits() {
        let g = gen::complete(4);
        let mut net = infect_net(&g, EngineKind::Sequential);
        net.run_until_quiet(10).unwrap();
        // Every node announces once: 4 nodes × 3 neighbors × 1 bit.
        assert_eq!(net.metrics().messages, 12);
        assert_eq!(net.metrics().bits, 12);
        assert_eq!(net.metrics().max_edge_bits, 1);
    }

    /// A protocol that deliberately overstuffs an edge.
    struct Blaster;
    impl Protocol for Blaster {
        type Msg = Counter;
        fn init(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            if ctx.id() == 0 {
                // 3 × 40-bit messages on one edge in one round.
                for _ in 0..3 {
                    ctx.send(1, Counter::new(1, 40));
                }
            }
        }
        fn round(&mut self, _: &mut Ctx<'_, Self::Msg>, _: &[(u32, Self::Msg)]) {}
    }

    #[test]
    fn budget_violation_detected() {
        let g = gen::path(3);
        let mut net = Network::new(&g, |_| Blaster, 64, EngineKind::Sequential, 0);
        let err = net.run_until_quiet(5).unwrap_err();
        match err {
            RunError::BudgetExceeded {
                from,
                to,
                bits,
                budget,
                ..
            } => {
                assert_eq!((from, to), (0, 1));
                assert_eq!(bits, 120);
                assert_eq!(budget, 64);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn run_until_predicate() {
        let g = gen::path(5);
        let mut net = infect_net(&g, EngineKind::Sequential);
        net.run_until(|n| n.node(3).infected, 100).unwrap();
        assert!(net.node(3).infected);
        assert_eq!(net.metrics().rounds, 3);
    }

    #[test]
    fn round_limit_error() {
        let g = gen::path(4);
        let mut net = infect_net(&g, EngineKind::Sequential);
        let err = net.run_until(|_| false, 3).unwrap_err();
        assert_eq!(err, RunError::RoundLimit(3));
    }

    // -----------------------------------------------------------------
    // Routing edge cases (ISSUE 3): zero-message rounds, self-sends,
    // hub nodes, arena reuse.
    // -----------------------------------------------------------------

    /// Sends a burst in one round, then goes silent for `quiet` rounds,
    /// then bursts again — exercising zero-message rounds mid-run and the
    /// arena's clear-between-rounds discipline.
    struct Bursty {
        bursts_seen: u64,
        inbox_log: Vec<(u64, Vec<u32>)>,
    }

    impl Protocol for Bursty {
        type Msg = Ping;

        fn init(&mut self, ctx: &mut Ctx<'_, Ping>) {
            if ctx.id() == 0 {
                ctx.send_all(Ping);
            }
        }

        fn round(&mut self, ctx: &mut Ctx<'_, Ping>, inbox: &[(u32, Ping)]) {
            if !inbox.is_empty() {
                self.bursts_seen += 1;
                self.inbox_log
                    .push((ctx.round(), inbox.iter().map(|(f, _)| *f).collect()));
            }
            // Node 0 bursts again in round 4 only.
            if ctx.id() == 0 && ctx.round() == 4 {
                ctx.send_all(Ping);
            }
        }
    }

    #[test]
    fn zero_message_rounds_and_no_cross_round_leaks() {
        for kind in [EngineKind::Sequential, EngineKind::Parallel] {
            let g = gen::star(8); // 8 nodes: hub 0 + 7 leaves
            let mut net = Network::new(
                &g,
                |_| Bursty {
                    bursts_seen: 0,
                    inbox_log: Vec::new(),
                },
                olog_budget(8, 8),
                kind,
                1,
            );
            net.run_rounds(8).unwrap();
            for id in 1..g.n() {
                let node = net.node(id);
                // Exactly two bursts arrive (rounds 1 and 5): the arena's
                // reuse never re-delivers round 1's messages during the
                // three silent rounds in between.
                assert_eq!(node.bursts_seen, 2, "node {id} ({kind:?})");
                assert_eq!(
                    node.inbox_log,
                    vec![(1, vec![0]), (5, vec![0])],
                    "node {id} ({kind:?})"
                );
            }
        }
    }

    /// Attempts a self-send, which the adjacency contract forbids (graphs
    /// have no self-loops).
    struct Narcissist;
    impl Protocol for Narcissist {
        type Msg = Ping;
        fn init(&mut self, ctx: &mut Ctx<'_, Ping>) {
            let id = ctx.id();
            ctx.send(id, Ping);
        }
        fn round(&mut self, _: &mut Ctx<'_, Ping>, _: &[(u32, Ping)]) {}
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn self_send_rejected() {
        let g = gen::path(3);
        let mut net = Network::new(&g, |_| Narcissist, 8, EngineKind::Sequential, 0);
        let _ = net.run_rounds(1);
    }

    /// Hub stress: on a star, the hub receives one message from every leaf
    /// in one round (max-degree inbox) and broadcasts to all of them the
    /// next (max-degree outbox).
    struct PingPong {
        got: usize,
    }
    impl Protocol for PingPong {
        type Msg = Ping;
        fn init(&mut self, ctx: &mut Ctx<'_, Ping>) {
            if ctx.id() != 0 {
                ctx.send(0, Ping);
            }
        }
        fn round(&mut self, ctx: &mut Ctx<'_, Ping>, inbox: &[(u32, Ping)]) {
            self.got += inbox.len();
            if ctx.id() == 0 && !inbox.is_empty() {
                ctx.send_all(Ping);
            }
        }
    }

    #[test]
    fn max_degree_hub_inbox_sorted_and_complete() {
        let n = 500; // beyond PAR_MIN_CHUNK so the parallel visits split
        let g = gen::star(n); // hub 0 + n−1 leaves
        for kind in [EngineKind::Sequential, EngineKind::Parallel] {
            let mut net = Network::new(&g, |_| PingPong { got: 0 }, 8, kind, 3);
            net.run_rounds(2).unwrap();
            assert_eq!(net.node(0).got, n - 1, "{kind:?}");
            for id in 1..g.n() {
                assert_eq!(net.node(id).got, 1, "leaf {id} ({kind:?})");
            }
            assert_eq!(net.metrics().messages, 2 * (n as u64 - 1));
        }
    }

    // -----------------------------------------------------------------
    // Fault layer (ISSUE 7): crash-stop, drops, quiescence caveat.
    // -----------------------------------------------------------------

    use crate::fault::FaultPlan;

    #[test]
    fn trivial_fault_plan_is_bit_identical_to_no_plan() {
        let g = gen::random_regular(40, 4, 9);
        for kind in [EngineKind::Sequential, EngineKind::Parallel] {
            let mut plain = infect_net(&g, kind);
            let mut faulted = Network::with_faults(
                &g,
                |id| Infect {
                    infected: false,
                    is_source: id == 0,
                    announced: false,
                },
                olog_budget(g.n(), 8),
                kind,
                42,
                FaultPlan::new(g.n(), 999),
            );
            plain.run_until_quiet(100).unwrap();
            faulted.run_until_quiet(100).unwrap();
            assert_eq!(plain.metrics(), faulted.metrics(), "{kind:?}");
            assert!(faulted.lossless_so_far());
            for id in 0..g.n() {
                assert_eq!(plain.node(id).infected, faulted.node(id).infected);
            }
        }
    }

    #[test]
    fn crashed_cut_node_quiesces_without_completion() {
        // Path 0–1–2–3–4 with the middle crashed from the start: the flood
        // goes quiet with the far side never infected — quiescence ≠
        // completion under faults.
        let g = gen::path(5);
        let mut net = Network::with_faults(
            &g,
            |id| Infect {
                infected: false,
                is_source: id == 0,
                announced: false,
            },
            olog_budget(5, 8),
            EngineKind::Sequential,
            1,
            FaultPlan::new(5, 0).with_crash(2, 0),
        );
        net.run_until_quiet(100).unwrap();
        assert!(net.node(1).infected);
        assert!(!net.node(2).infected, "crashed node never ran");
        assert!(!net.node(3).infected && !net.node(4).infected);
        let m = net.metrics();
        assert!(m.dropped_messages > 0, "message into the crash was lost");
        assert_eq!(m.crashed_nodes, 1);
        assert!(!net.lossless_so_far());
    }

    #[test]
    fn full_drop_rate_silences_everything() {
        let g = gen::complete(6);
        let mut net = Network::with_faults(
            &g,
            |id| Infect {
                infected: false,
                is_source: id == 0,
                announced: false,
            },
            olog_budget(6, 8),
            EngineKind::Sequential,
            3,
            FaultPlan::new(6, 4).with_drop_prob(1.0),
        );
        net.run_until_quiet(100).unwrap();
        // Only the source ever got the token; all its sends were dropped.
        assert_eq!(net.node_states().filter(|s| s.infected).count(), 1);
        let m = net.metrics();
        assert_eq!(m.messages, 0);
        assert_eq!(m.dropped_messages, 5);
        assert_eq!(m.max_edge_bits, 1, "attempted bits still metered");
    }

    #[test]
    fn crash_mid_run_freezes_state_and_stops_sends() {
        // Chatter normally floods forever; crash a node at round 3 and
        // check nobody hears from it in rounds > 3 (its round-2 sends are
        // delivered in round 3, the last legitimate arrivals).
        struct Logger {
            heard: Vec<(u64, Vec<u32>)>,
            rounds_run: u64,
        }
        impl Protocol for Logger {
            type Msg = Ping;
            fn init(&mut self, ctx: &mut Ctx<'_, Ping>) {
                ctx.send_all(Ping);
            }
            fn round(&mut self, ctx: &mut Ctx<'_, Ping>, inbox: &[(u32, Ping)]) {
                self.rounds_run = ctx.round();
                self.heard
                    .push((ctx.round(), inbox.iter().map(|(f, _)| *f).collect()));
                ctx.send_all(Ping);
            }
        }
        let g = gen::complete(5);
        let crash_round = 3;
        let victim = 2usize;
        let mut net = Network::with_faults(
            &g,
            |_| Logger {
                heard: Vec::new(),
                rounds_run: 0,
            },
            olog_budget(5, 8),
            EngineKind::Sequential,
            11,
            FaultPlan::new(5, 0).with_crash(victim, crash_round),
        );
        net.run_rounds(8).unwrap();
        assert_eq!(net.node(victim).rounds_run, crash_round - 1);
        for id in (0..5).filter(|&v| v != victim) {
            for (round, senders) in &net.node(id).heard {
                let heard_victim = senders.contains(&(victim as u32));
                assert_eq!(
                    heard_victim,
                    *round <= crash_round,
                    "node {id} round {round}: senders {senders:?}"
                );
            }
        }
        assert_eq!(net.metrics().crashed_nodes, 1);
    }

    #[test]
    fn steady_state_rounds_are_allocation_free() {
        // Flood shares back and forth forever: every round has the same
        // message volume, so after warm-up no buffer may grow.
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = Ping;
            fn init(&mut self, ctx: &mut Ctx<'_, Ping>) {
                ctx.send_all(Ping);
            }
            fn round(&mut self, ctx: &mut Ctx<'_, Ping>, _: &[(u32, Ping)]) {
                ctx.send_all(Ping);
            }
        }
        for kind in [EngineKind::Sequential, EngineKind::Parallel] {
            let g = gen::random_regular(300, 4, 5);
            let mut net = Network::new(&g, |_| Chatter, 8, kind, 7);
            net.run_rounds(3).unwrap(); // warm-up: arenas size themselves
            let warmed = net.routing_alloc_events();
            net.run_rounds(50).unwrap();
            assert_eq!(
                net.routing_alloc_events(),
                warmed,
                "message plane allocated during steady-state rounds ({kind:?})"
            );
        }
    }

    #[test]
    fn descending_sends_match_sorted_contract() {
        // A protocol that sends to neighbors in descending order: the
        // normalize pass must restore the sorted-inbox contract
        // (sender-ascending, per-sender send order).
        struct Reverse {
            seen: Vec<Vec<u32>>,
        }
        impl Protocol for Reverse {
            type Msg = Counter;
            fn init(&mut self, ctx: &mut Ctx<'_, Counter>) {
                let nbrs: Vec<usize> = ctx.neighbors().collect();
                for (i, &v) in nbrs.iter().rev().enumerate() {
                    ctx.send(v, Counter::new(i as u64, 8));
                }
            }
            fn round(&mut self, _: &mut Ctx<'_, Counter>, inbox: &[(u32, Counter)]) {
                self.seen.push(inbox.iter().map(|(f, _)| *f).collect());
            }
        }
        let g = gen::random_regular(64, 6, 11);
        let run = |kind| {
            let mut net = Network::new(&g, |_| Reverse { seen: Vec::new() }, 64, kind, 5);
            net.run_rounds(1).unwrap();
            let logs: Vec<Vec<Vec<u32>>> = net.node_states().map(|s| s.seen.clone()).collect();
            (logs, net.metrics())
        };
        let (seq_logs, seq_m) = run(EngineKind::Sequential);
        let (par_logs, par_m) = run(EngineKind::Parallel);
        assert_eq!(seq_logs, par_logs);
        assert_eq!(seq_m, par_m);
        for (id, logs) in seq_logs.iter().enumerate() {
            let senders = &logs[0];
            assert!(
                senders.windows(2).all(|w| w[0] < w[1]),
                "node {id} inbox not sender-sorted: {senders:?}"
            );
            assert_eq!(senders.len(), 6, "node {id} lost messages");
        }
    }
}
