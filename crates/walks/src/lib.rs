//! # lmt-walks
//!
//! Random-walk machinery for the reproduction of Molla & Pandurangan,
//! *Local Mixing Time: Distributed Computation and Applications*
//! (IPDPS 2018).
//!
//! Everything here is **centralized** ("oracle") computation: exact `f64`
//! power iteration of walk distributions, stationary distributions, global
//! mixing times (Definition 1), and the ground-truth **local mixing time**
//! `τ_s(β, ε)` (Definition 2) against which the distributed algorithms in
//! `lmt-core` are validated. The paper's Algorithm 1, fixed-point
//! flooding, is implemented here once ([`fixed_flood`]); `lmt-congest`
//! meters its shares as CONGEST messages.
//!
//! The whole stack is generic over the [`WalkGraph`] trait
//! (re-exported from `lmt-graph`), so every operator runs on plain
//! [`lmt_graph::Graph`]s — transition `1/d(u)`, the paper's setting, with
//! the historical arithmetic preserved bit-for-bit — *and* on
//! [`lmt_graph::WeightedGraph`]s, where the transition probability is
//! `w(u,v)/W(u)` and the stationary distribution is `∝ W` (weighted
//! degree). Unit weights reproduce the unweighted results exactly; the
//! lazy walk is recoverable as a self-loop weight
//! (`lmt_graph::gen::weighted::lazy_loops`).
//!
//! Modules:
//! * [`dist`] — dense distribution vectors, L1/L∞ distances, restrictions.
//! * [`step`] — the walk kinds and the dense reference step (simple or
//!   lazy, unweighted or weighted), rayon-parallel for large `n`.
//! * [`engine`] — the one evolution engine,
//!   [`engine::BlockEvolution`]: frontier-sparse stepping (cost
//!   `O(vol(support))`, bit-identical to the dense reference) and
//!   multi-source blocking (one shared CSR sweep for `B` columns). A
//!   single walk is a one-lane block ([`engine::evolve_block`] with one
//!   source for a one-shot run); the `mixing`/`local` entry points are
//!   thin wrappers over it.
//! * [`stationary`] — `π ∝ W` and restricted `π_S` (§2.2).
//! * [`mixing`] — `τ_mix_s(ε)` (Definition 1), using Lemma 1 monotonicity,
//!   with hard caps.
//! * [`local`] — ground-truth `τ_s(β, ε)` via the sorted-window oracle, with
//!   every set size or the paper's geometric `(1+ε)` grid, with or without
//!   the `s ∈ S` constraint; restricted-distance profiles for the
//!   non-monotonicity study. "Regular" means weight-regular on weighted
//!   graphs.
//! * [`profile`] — resumable per-source profile curves ([`profile::SourceCurve`]):
//!   value-sorted per-step snapshots that replay the `local` witness scan
//!   bit-for-bit for any `(β, ε)` without re-running the walk, plus the
//!   resume distribution for extending the walk later. The cache substrate
//!   of the `lmt-service` query layer.
//! * [`fixed_flood`] — Algorithm 1 (rounding to multiples of `1/n^c`):
//!   [`fixed_flood::FixedWalk`], unweighted or over quantized edge weights
//!   ([`fixed_flood::QuantizedWeights`]); each step returns the number of
//!   nonzero shares it shipped.
//! * [`sampler`] — token-level random-walk endpoint sampling (the Das Sarma
//!   et al. baseline ingredient), weighted-transition aware.
//!
//! Walk entry points reject distributions that place mass on isolated
//! (degree-0) nodes up front — `gen::erdos_renyi` can produce such nodes —
//! instead of panicking or silently losing mass deep in an iteration; see
//! the per-function `# Panics` sections.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod engine;
pub mod fixed_flood;
pub mod local;
pub mod mixing;
pub mod profile;
pub mod sampler;
pub mod stationary;
pub mod step;

pub use dist::Dist;
pub use lmt_graph::{WalkGraph, WeightedGraph};
pub use step::WalkKind;
