//! # lmt-bench
//!
//! Shared harness for the `exp_*` experiment binaries, each of which
//! regenerates one table of `EXPERIMENTS.md`; `exp_all` runs the full
//! suite.
//!
//! It is also the τ-exact side of the perf trajectory: [`spec`] parses
//! declarative scenario-sweep specs (`specs/*.json`), [`sweep`] executes
//! them, [`record`] + [`fingerprint`] define the `BENCH_<tag>.json` schema
//! the runs emit, and [`diff`] compares two records (the `bench_diff`
//! gate). [`json`] is the vendored JSON layer underneath (no crates.io in
//! the build environment), and [`timing`] holds the wall-clock helpers the
//! sweep runner and `exp_churn` use. End-to-end timing lives in the
//! standalone `perfbench/` package (`BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod fingerprint;
pub mod json;
pub mod record;
pub mod spec;
pub mod sweep;
pub mod timing;

use lmt_graph::gen::{self, Workload};
use lmt_walks::local::{LocalMixError, LocalMixOptions, LocalMixResult, SizeGrid};
use lmt_walks::mixing::mixing_time;
use lmt_walks::WalkKind;

/// The paper's suggested accuracy parameter `ε = 1/8e`.
pub const EPS: f64 = 1.0 / (8.0 * std::f64::consts::E);

/// Oracle options used across experiments (geometric grid — what Algorithm 2
/// inspects; flat target per the paper's regular-graph setting).
pub fn oracle_opts(beta: f64) -> LocalMixOptions {
    let mut o = LocalMixOptions::new(beta);
    o.eps = EPS;
    o.grid = SizeGrid::Geometric;
    o
}

/// The standard workload set of §2.3: complete, d-regular expander, path,
/// and the (regularized) clique chain standing in for the β-barbell.
pub fn classic_workloads(n: usize, beta: usize, seed: u64) -> Vec<Workload> {
    // A ring needs at least three cliques; label from the *effective*
    // parameters so the recorded scenario name always matches the graph
    // that was measured (for beta < 3 the old label lied on both counts).
    let beta = beta.max(3);
    let k = (n / beta).max(4);
    vec![
        Workload::new(format!("complete(n={n})"), gen::complete(n), 0),
        Workload::new(
            format!("expander(n={n},d=8)"),
            gen::random_regular(n, 8, seed),
            0,
        ),
        Workload::new(format!("path(n={n})"), gen::path(n), 0),
        Workload::new(
            format!("clique-ring(beta={beta},k={k})"),
            gen::ring_of_cliques_regular(beta, k).0,
            0,
        ),
    ]
}

/// Oracle local mixing time; returns `None` when no witness appears within
/// the `max_t` cap (reported as `∞` by callers via [`fmt_opt`]).
pub fn oracle_tau(w: &Workload, beta: f64, kind: WalkKind, max_t: usize) -> Option<u64> {
    let mut o = oracle_opts(beta);
    o.kind = kind;
    o.max_t = max_t;
    // Non-regular workloads (the path endpoints differ) use the paper's own
    // loose flat treatment.
    o.flat_policy = lmt_walks::local::FlatPolicy::AssumeFlat;
    lmt_walks::local::local_mixing_time(&w.graph, w.source, &o)
        .ok()
        .map(|r| r.tau as u64)
}

/// Oracle global mixing time with the same conventions.
pub fn oracle_tau_mix(w: &Workload, kind: WalkKind, max_t: usize) -> Option<u64> {
    mixing_time(&w.graph, w.source, EPS, kind, max_t)
        .ok()
        .map(|r| r.tau as u64)
}

/// Pick the walk kind a workload needs (lazy iff bipartite).
pub fn walk_kind_for(w: &Workload) -> WalkKind {
    if lmt_graph::props::bipartition(&w.graph).is_some() {
        WalkKind::Lazy
    } else {
        WalkKind::Simple
    }
}

/// Format an optional count, `∞` when absent.
pub fn fmt_opt(x: Option<u64>) -> String {
    x.map_or("∞".into(), |v| v.to_string())
}

/// Whether two oracle outcomes are bit-identical: the same τ, witness set
/// and witness L1 bits, or the same error.
pub fn same_result(
    got: &Result<LocalMixResult, LocalMixError>,
    want: &Result<LocalMixResult, LocalMixError>,
) -> bool {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            g.tau == w.tau
                && g.witness.nodes == w.witness.nodes
                && g.witness.l1.to_bits() == w.witness.l1.to_bits()
        }
        (Err(g), Err(w)) => g == w,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_connected() {
        for w in classic_workloads(64, 8, 1) {
            assert!(
                lmt_graph::props::is_connected(&w.graph),
                "{} disconnected",
                w.name
            );
        }
    }

    #[test]
    fn walk_kind_lazy_for_path() {
        let ws = classic_workloads(32, 4, 1);
        let path = ws.iter().find(|w| w.name.starts_with("path")).unwrap();
        assert_eq!(walk_kind_for(path), WalkKind::Lazy);
        let complete = ws.iter().find(|w| w.name.starts_with("complete")).unwrap();
        assert_eq!(walk_kind_for(complete), WalkKind::Simple);
    }

    #[test]
    fn clique_ring_label_matches_effective_parameters() {
        // Regression: beta < 3 used to build with beta.max(3) cliques but
        // label the unclamped beta, and size cliques from the unclamped
        // divisor — the scenario name lied about the measured graph.
        let ws = classic_workloads(64, 2, 1);
        let ring = ws
            .iter()
            .find(|w| w.name.starts_with("clique-ring"))
            .unwrap();
        assert_eq!(ring.name, "clique-ring(beta=3,k=21)");
        assert_eq!(ring.graph.n(), 3 * 21);

        // Unclamped betas are untouched.
        let ws = classic_workloads(64, 8, 1);
        let ring = ws
            .iter()
            .find(|w| w.name.starts_with("clique-ring"))
            .unwrap();
        assert_eq!(ring.name, "clique-ring(beta=8,k=8)");
        assert_eq!(ring.graph.n(), 64);
    }

    #[test]
    fn oracle_helpers_run() {
        let ws = classic_workloads(32, 4, 1);
        let complete = &ws[0];
        assert_eq!(oracle_tau(complete, 4.0, WalkKind::Simple, 100), Some(1));
        assert!(oracle_tau_mix(complete, WalkKind::Simple, 100).is_some());
    }
}
