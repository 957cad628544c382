//! # lmt-graph
//!
//! Graph substrate for the reproduction of Molla & Pandurangan, *Local Mixing
//! Time: Distributed Computation and Applications* (IPDPS 2018).
//!
//! The paper's algorithms are stated for undirected, unweighted, connected
//! graphs in the CONGEST model; its calibration section (§2.3) compares
//! local and global mixing times across specific graph families. This crate
//! provides both that substrate and its weighted generalization:
//!
//! * [`Graph`] — an immutable compressed-sparse-row (CSR) simple graph with
//!   `u32` adjacency storage *and* `u32` offsets (8 bytes/edge-slot total;
//!   see `csr`'s module docs for the compact layout and its capacity
//!   bound, reported as [`GraphError`] by the fallible builder entry
//!   points).
//! * [`WeightedGraph`] — the same CSR topology plus a parallel `f64` weight
//!   array sharing the offsets, with symmetric-positive-weight invariants
//!   and optional self-loop weights (transition probability ∝ edge weight;
//!   the lazy walk is the loop-weight special case).
//! * [`walk::WalkGraph`] — the trait seam both graph types implement, so
//!   walk machinery (`lmt-walks`) and the distributed algorithms
//!   (`lmt-core`) accept either substrate; the unweighted implementation
//!   keeps the historical arithmetic bit-for-bit.
//! * [`churn::ChurnGraph`] — the dynamic-network substrate: one CSR,
//!   rebuilt by every atomic batch of edge inserts/deletes, implementing
//!   [`WalkGraph`] by delegating to that CSR (so the whole walk stack runs
//!   unmodified over churning topology, bit-identically to the static
//!   [`Graph`] of the same shape), plus [`churn::SwapDrawer`], the seeded
//!   degree-preserving edit stream.
//! * [`builder::GraphBuilder`] / [`weighted::WeightedGraphBuilder`] —
//!   edge-list construction with de-duplication and self-loop rejection
//!   (weighted duplicates merge by weight addition).
//! * [`gen`] — every graph family the paper mentions (complete, path, cycle,
//!   d-regular expanders via random regular graphs, the **β-barbell** of
//!   Figure 1, rings/paths of cliques and of expanders) plus standard extras
//!   used by the test-suite (grid, torus, hypercube, star, Erdős–Rényi,
//!   lollipop, dumbbell, complete bipartite), and [`gen::weighted`] —
//!   uniform / functional / random weight decorators, lazy-walk loops, and
//!   the weighted β-barbell with tunable bridge weight.
//! * [`traversal`] — BFS/DFS, connected components.
//! * [`props`] — connectivity, bipartiteness, regularity, diameter
//!   (rayon-parallel all-pairs eccentricity for exact diameters).
//! * [`cuts`] — volume / cut / conductance `φ(S)` of vertex sets (Definition
//!   of §2.2) and exhaustive minimum conductance for tiny graphs.
//! * [`io`] — a plain edge-list text format for persisting workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod churn;
pub mod csr;
pub mod cuts;
pub mod gen;
pub mod io;
pub mod props;
pub mod subgraph;
pub mod traversal;
pub mod walk;
pub mod weighted;

pub use builder::{GraphBuilder, GraphError};
pub use churn::{ChurnError, ChurnGraph, EdgeEdit, SwapDrawer};
pub use csr::Graph;
pub use walk::WalkGraph;
pub use weighted::{WeightedGraph, WeightedGraphBuilder};
