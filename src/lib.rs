//! # local-mixing-repro
//!
//! Umbrella crate for the reproduction of Molla & Pandurangan, *Local Mixing
//! Time: Distributed Computation and Applications* (IPDPS 2018). The
//! [`prelude`] re-exports the API surface the examples and integration tests
//! use; the implementation lives in the workspace crates:
//!
//! * `lmt-graph` — CSR graphs (static and churning), generators (β-barbell
//!   & co.), properties
//! * `lmt-walks` — walk distributions, the one evolution engine
//!   (`BlockEvolution`; a single walk is a one-lane block), mixing times,
//!   the τ_s(β,ε) oracle
//! * `lmt-spectral` — λ₂, Cheeger checks, sweep cuts, weak conductance
//! * `lmt-congest` — the CONGEST simulator and protocol primitives
//! * `lmt-core` — Algorithms 1–2, the exact variant, baselines
//! * `lmt-gossip` — push–pull, partial information spreading, applications
//! * `lmt-service` — τ-as-a-service: batched, cached query layer over the
//!   evolution engine, bit-identical to the oracle, with support-aware
//!   cache invalidation under churn

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// One-stop imports for examples and integration tests.
pub mod prelude {
    pub use lmt_congest::{EngineKind, FaultPlan, Metrics};
    pub use lmt_core::baselines::{das_sarma_style_estimate, estimate_global_mixing_time};
    pub use lmt_core::exact::local_mixing_time_exact_distributed;
    pub use lmt_core::general::local_mixing_time_general;
    pub use lmt_core::{local_mixing_time_approx, AlgoConfig};
    pub use lmt_gossip::apps::{
        distributed_max_coverage, elect_leader, elect_leader_faulty, election_ranks,
        rounds_to_full_spread, rounds_to_full_spread_faulty, CoverageInstance,
    };
    pub use lmt_gossip::consensus::{run_consensus, ConsensusOutcome};
    pub use lmt_gossip::coverage::{coverage_stats, is_beta_spread, rounds_to_beta_spread};
    pub use lmt_gossip::{Gossip, GossipMode};
    pub use lmt_graph::{
        cuts, gen, props, ChurnError, ChurnGraph, EdgeEdit, Graph, GraphBuilder, SwapDrawer,
        WalkGraph, WeightedGraph, WeightedGraphBuilder,
    };
    pub use lmt_service::{
        ChurnOutcome, ServiceClient, ServiceConfig, ServiceStats, ServiceWorker, TauAnswer,
        TauQuery, TauService,
    };
    pub use lmt_walks::engine::{evolve_block, BlockEvolution};
    pub use lmt_walks::local::{
        graph_local_mixing_time, local_mixing_time, restricted_trace, FlatPolicy,
        LocalMixError, LocalMixOptions, LocalMixResult, SizeGrid, WitnessScratch,
    };
    pub use lmt_walks::profile::SourceCurve;
    pub use lmt_walks::mixing::{graph_mixing_time, l1_trace, mixing_time};
    pub use lmt_walks::{Dist, WalkKind};
}
