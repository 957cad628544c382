//! # lmt-congest
//!
//! A synchronous message-passing network simulator for the **CONGEST model**
//! (§1.1 of Molla & Pandurangan, IPDPS 2018): `n` nodes on the vertices of an
//! undirected graph, communication in synchronous rounds, and — the defining
//! constraint — only `O(log n)` bits per edge per round.
//!
//! ## What the paper needs from the substrate
//!
//! The paper's cost measure is the **number of rounds**; local computation is
//! free (§1.1). The simulator therefore meters rounds, message counts, and
//! per-edge bits (rejecting protocols that exceed the configured budget), and
//! deliberately does *not* model wall-clock network latency.
//!
//! ## Rounds, the engine, and message routing
//!
//! [`engine::Network`] drives one [`engine::Protocol`] instance per node
//! through synchronous rounds: round 0 is the `init` hook; in every round
//! `t ≥ 1` a node receives the messages sent in round `t−1` (its *inbox*),
//! updates local state, and queues sends (its *outbox*). Between rounds the
//! routing pass (the crate-private `routing` module) moves every outbox
//! into the receiving inboxes while metering the CONGEST budget.
//!
//! Two contracts make executions reproducible and engine-independent:
//!
//! * **The outbox→inbox contract.** An inbox is a `&[(sender, message)]`
//!   slice **sorted by sender id**, with one sender's messages appearing in
//!   the order that sender sent them. Protocols rely on this for
//!   deterministic tie-breaking (e.g. BFS adopts the smallest-id parent).
//! * **Engine equivalence.** The sequential and rayon-parallel executors
//!   are bit-identical at every pool width: per-node RNG streams depend
//!   only on `(seed, node id)`, node steps share no mutable state, and
//!   both engines route with the same sequential pass.
//!
//! Each node's visit leaves its outbox in destination order (a stable
//! sort, skipped when the sends were already in order, as broadcasts are).
//! The router then walks the senders in ascending id order and appends
//! each destination's run to that destination's inbox, which is the
//! contract above. Per run it checks that the destination is a neighbor of
//! the sender (a send to a non-neighbor panics in every build), meters the
//! bits against the budget and applies the fault plan. Outbox and inbox
//! buffers are cleared — not dropped — between rounds, so steady-state
//! rounds are allocation-free
//! ([`engine::Network::routing_alloc_events`] observes this).
//!
//! ## Phases without the engine
//!
//! None of Algorithm 2's phases runs on [`engine::Network`]; each charges
//! the rounds, messages, bits and budget errors its message-passing
//! protocol produces there, and differential tests run those protocols as
//! oracles.
//!
//! * The BFS protocol is deterministic (a node adopts its smallest-id
//!   neighbor one level up), so [`bfs`] builds the same tree with a
//!   level-synchronous sweep over the CSR and counts its messages per
//!   forwarding node and per adopting node.
//! * Every message of Algorithm 1's flood is a pure function of the current
//!   fixed-point state, so [`flood`] steps the fixed-point walk of
//!   `lmt-walks::fixed_flood` and meters one message per nonzero share it
//!   ships.
//! * Broadcast and convergecast over a BFS tree have a schedule fixed by the
//!   tree's shape, so [`tree`] executes them with a flat, sequential kernel:
//!   a layout of the tree in BFS order, a broadcast that delivers directly,
//!   and a convergecast that is one reverse-BFS pass.
//! * The binary search — the bulk of Algorithm 2's rounds — charges its
//!   convergecasts in closed form from two ranks per threshold, on one
//!   layout per tree ([`binsearch`]).
//!
//! None of these phases depends on the engine kind. The BFS protocol still
//! runs on the engine under a fault plan ([`bfs::build_bfs_tree_faulty`]),
//! as do the naive upcast ([`upcast`]) and `lmt-gossip`'s protocols.
//!
//! ## Faults
//!
//! [`fault::FaultPlan`] layers deterministic failure injection onto the
//! routing plane: crash-stop schedules per node and an independent
//! per-message drop probability, all derived from one seed with the same
//! RNG fan-out discipline as everything else — so Parallel ≡ Sequential
//! bit-equality holds under faults too, and a trivial (fault-free) plan is
//! bit-identical to running without one. Under faults, quiescence no
//! longer implies completion (see
//! [`engine::Network::run_until_quiet`]); [`engine::Metrics`] reports
//! `dropped_messages` and `crashed_nodes` so callers can tell.
//!
//! ## Structure
//!
//! * [`message`] — the [`message::Payload`] trait (semantic wire-size
//!   accounting) and field-width helpers.
//! * [`engine`] — [`engine::Network`]: sequential and rayon-parallel round
//!   executors with identical (deterministic, seeded) semantics, budget
//!   enforcement, quiescence detection and [`engine::Metrics`].
//! * `routing` (crate-private) — the message plane described above.
//! * [`bfs`] — BFS-tree construction (depth-limited, as used in step 3 of
//!   Algorithm 2) at the cost of the `JOIN`/`ADOPT` flooding protocol,
//!   verified against the centralized traversal and against the protocol
//!   on the engine.
//! * [`tree`] — broadcast and convergecast (sum / min / max / count) over a
//!   constructed BFS tree — the upcast/downcast toolkit of §3.1, as the
//!   flat kernel described above.
//! * [`binsearch`] — the paper's distributed binary search that lets the
//!   source learn **the sum of the `R` smallest node values** in
//!   `O(D log n)` rounds (§3.1), with both the paper's random tie-breaking
//!   and an exact threshold-correction variant.
//! * [`flood`] — **Algorithm 1** (ESTIMATE-RW-PROBABILITY): per-round
//!   probability flooding in fixed point, metered as described above. One
//!   entry point, [`flood::FloodGraph::estimate_flood`], on plain, weighted
//!   and churning graphs, plus the round-at-a-time
//!   [`flood::IncrementalFlood`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod binsearch;
pub mod engine;
pub mod fault;
pub mod flood;
pub mod message;
pub(crate) mod routing;
pub mod tree;
pub mod upcast;

pub use engine::{EngineKind, Metrics, Network, RunError};
pub use fault::FaultPlan;
pub use message::Payload;
