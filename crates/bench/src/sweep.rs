//! The sweep runner: execute every cell of a [`SweepSpec`] and produce one
//! [`BenchRecord`].
//!
//! Per cell, the runner builds the graph and decorates it with the cell's
//! weighting (both kept while the next cells share them), pins
//! `LMT_THREADS` to the cell's pool width (restoring the prior value
//! afterwards — the rayon shim reads the variable on every dispatch, so
//! mid-process pinning takes effect immediately), and wall-clocks `reps`
//! repetitions of the cell's measurement. The record stores the
//! median/min/max of those samples and the answer the **first timed rep**
//! computed: no untimed pass of the same measurement runs before the reps.
//!
//! Dense-reference cells are cross-checked: the engine computes τ first
//! (its no-witness path is non-panicking), the dense path is only timed
//! when a witness exists, and the first dense rep's τ is asserted equal to
//! the engine's — the record's τ column is simultaneously a correctness
//! regression net.
//!
//! Application cells (`elect`, `spread`) run the gossip applications under
//! the cell's fault plan and store **completion rounds** in the τ column
//! (`null` = the cap was exhausted — under faults a legitimate outcome,
//! not an error). Fault-free cells keep the pre-fault-dimension scenario
//! keys (no `|fault=` segment), so existing golden records still match.
//!
//! Service cells (`service_cold`, `service_warm`) time a
//! [`TauService`] batch over `service_sources` sources spread across the
//! graph — cold builds a fresh service per rep (every rep pays the
//! evolutions), warm replays the cache that one untimed batch on a fresh
//! service filled. Warm replays are asserted bit-identical to that warm-up
//! batch, itself a cold answer, so both cells record the same τ column
//! (max over the sampled sources) and the diff gate sees
//! cache-correctness regressions as τ mismatches.
//!
//! Churned service cells (a non-`"none"` churn dimension value) warm the
//! service, land the spec's seeded edit schedule through
//! [`TauService::apply_churn`], and answer the batch again: cold times that
//! whole episode per rep, warm runs it once untimed and times post-churn
//! replays. The recorded **post-churn** answers are asserted bit-identical
//! to a fresh oracle on the post-churn topology. Churn-free cells keep the
//! pre-churn-dimension scenario keys (no `|churn=` segment), so existing
//! goldens still match.

use lmt_gossip::apps::{
    elect_leader, elect_leader_faulty, rounds_to_full_spread, rounds_to_full_spread_faulty,
};
use lmt_gossip::GossipMode;
use lmt_graph::gen::Workload;
use lmt_graph::{ChurnGraph, EdgeEdit, Graph, WalkGraph};
use lmt_service::{ServiceConfig, TauAnswer, TauQuery, TauService};
use lmt_walks::local::{check_dist, size_grid, FlatPolicy, LocalMixOptions, SizeGrid};
use lmt_walks::{Dist, WalkKind};

use crate::record::{BenchRecord, Cell};
use crate::spec::{AnyGraph, ChurnSpec, EngineChoice, FaultSpec, SweepSpec};
use crate::{same_result, timing, walk_kind_for};

/// Pin `LMT_THREADS` for the guard's lifetime, restoring the prior value
/// (or its absence) on drop.
struct ThreadsGuard(Option<std::ffi::OsString>);

impl ThreadsGuard {
    fn pin(width: usize) -> ThreadsGuard {
        let prior = std::env::var_os("LMT_THREADS");
        std::env::set_var("LMT_THREADS", width.to_string());
        ThreadsGuard(prior)
    }
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        match self.0.take() {
            Some(prior) => std::env::set_var("LMT_THREADS", prior),
            None => std::env::remove_var("LMT_THREADS"),
        }
    }
}

/// One cell's coordinates: graph and weighting by index (they key the
/// substrate the cell runs on), the other dimensions by value.
struct Coord<'a> {
    graph: usize,
    weighting: usize,
    beta: f64,
    eps: f64,
    fault: &'a FaultSpec,
    churn: &'a ChurnSpec,
    engine: EngineChoice,
    width: usize,
}

impl<'a> Coord<'a> {
    /// Cell `i` in spec order (graphs × weightings × betas × epsilons ×
    /// faults × churns × engines × threads, the last varying fastest): `i`
    /// read as a mixed-radix number over the dimension lengths.
    fn of(spec: &'a SweepSpec, mut i: usize) -> Coord<'a> {
        let mut digit = |len: usize| {
            let d = i % len;
            i /= len;
            d
        };
        // Fields are evaluated in the order written: innermost digit first.
        Coord {
            width: spec.threads[digit(spec.threads.len())],
            engine: spec.engines[digit(spec.engines.len())],
            churn: &spec.churns[digit(spec.churns.len())],
            fault: &spec.faults[digit(spec.faults.len())],
            eps: spec.epsilons[digit(spec.epsilons.len())],
            beta: spec.betas[digit(spec.betas.len())],
            weighting: digit(spec.weightings.len()),
            graph: digit(spec.graphs.len()),
        }
    }
}

/// What a cell runs on: the built workload, its walk kind and its weighted
/// decoration.
struct Substrate {
    /// The `(graph, weighting)` coordinates it was built for.
    key: (usize, usize),
    workload: Workload,
    kind: WalkKind,
    g: AnyGraph,
}

impl Substrate {
    /// The substrate of cell `c`, reusing `prior`'s workload when only the
    /// weighting changed. The rest of `prior` is dropped before anything
    /// is built.
    fn for_cell(spec: &SweepSpec, c: &Coord, prior: Option<Substrate>) -> Substrate {
        let (workload, kind) = match prior.filter(|p| p.key.0 == c.graph) {
            Some(p) => (p.workload, p.kind),
            None => {
                let workload = spec.graphs[c.graph].build();
                let kind = walk_kind_for(&workload);
                (workload, kind)
            }
        };
        let g = spec.weightings[c.weighting].apply(workload.graph.clone());
        Substrate {
            key: (c.graph, c.weighting),
            workload,
            kind,
            g,
        }
    }
}

fn engine_tau(g: &AnyGraph, src: usize, opts: &LocalMixOptions) -> Option<u64> {
    match g {
        AnyGraph::Unweighted(g) => lmt_walks::local::local_mixing_time(g, src, opts),
        AnyGraph::Weighted(g) => lmt_walks::local::local_mixing_time(g, src, opts),
    }
    .ok()
    .map(|r| r.tau as u64)
}

/// `τ_s(β,ε)` by the pre-engine oracle loop, kept for A/B measurement
/// against `lmt_walks::engine` (the `dense` engine, e.g.
/// `specs/e1_engine_ab.json`): dense full-graph power iteration with fresh
/// sort/prefix buffers every step. Same τ bit-for-bit — only the cost
/// differs.
///
/// # Panics
/// Panics if no witness appears within `opts.max_t` steps.
fn dense_tau<G: WalkGraph>(g: &G, src: usize, opts: &LocalMixOptions) -> u64 {
    let sizes = size_grid(g.n(), opts);
    let src_opt = opts.require_source.then_some(src);
    let mut p = Dist::point(g.n(), src);
    for t in 0..=opts.max_t {
        if check_dist(&p, &sizes, opts.eps, src_opt).is_some() {
            return t as u64;
        }
        if t < opts.max_t {
            p = lmt_walks::step::step(g, &p, opts.kind);
        }
    }
    panic!("dense reference: no witness within {} steps", opts.max_t);
}

/// The τ column of a service cell: `Some(max τ)` iff every sampled source
/// mixed within the cap.
fn service_taus(answers: &[TauAnswer]) -> Option<u64> {
    answers
        .iter()
        .map(|a| a.result.as_ref().ok().map(|r| r.tau as u64))
        .collect::<Option<Vec<u64>>>()
        .and_then(|taus| taus.into_iter().max())
}

/// Assert `got` carries `want`'s answers bit for bit (τ, witness set and
/// witness L1, or the same error) — the service cells' correctness net.
fn assert_same_answers(got: &[TauAnswer], want: &[TauAnswer], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: answer count changed");
    for (g, w) in got.iter().zip(want) {
        assert!(
            same_result(&g.result, &w.result),
            "{what}: answers for source {} differ",
            g.query.source
        );
    }
}

/// A service cell's batch — `sources` sources spread evenly across the
/// `n` nodes, all at the cell's `(β, ε)` — and the service configuration
/// that mirrors `opts`.
fn service_batch(
    n: usize,
    opts: &LocalMixOptions,
    sources: usize,
) -> (Vec<TauQuery>, ServiceConfig) {
    let q = sources.min(n);
    let queries = (0..q)
        .map(|i| TauQuery {
            source: i * n / q,
            beta: opts.beta,
            eps: opts.eps,
        })
        .collect();
    let config = ServiceConfig {
        kind: opts.kind,
        max_t: opts.max_t,
        grid: opts.grid,
        flat_policy: opts.flat_policy,
        ..ServiceConfig::default()
    };
    (queries, config)
}

/// Time a service cell whose `episode` builds a fresh service and answers
/// the batch with it. Cold times one episode per rep; warm runs one
/// untimed episode and times replays of its service, each asserted
/// bit-identical to the episode's answers. Returns the first timed rep's
/// answers and the samples.
fn time_service<G: WalkGraph>(
    engine: EngineChoice,
    reps: usize,
    queries: &[TauQuery],
    episode: impl Fn() -> (TauService<G>, Vec<TauAnswer>),
) -> (Vec<TauAnswer>, Vec<f64>) {
    match engine {
        EngineChoice::ServiceCold => timing::time_reps_ms(reps, || episode().1),
        EngineChoice::ServiceWarm => {
            let (service, warm_up) = episode();
            let (replay, samples) = timing::time_reps_ms(reps, || service.submit_batch(queries));
            assert_same_answers(&replay, &warm_up, "warm replay");
            (replay, samples)
        }
        _ => unreachable!("service cell run for a non-service engine"),
    }
}

/// Run one service cell on a static graph (see [`time_service`]).
fn service_cell<G: WalkGraph + Clone>(
    g: &G,
    engine: EngineChoice,
    opts: &LocalMixOptions,
    sources: usize,
    reps: usize,
) -> (Option<u64>, Vec<f64>) {
    let (queries, config) = service_batch(g.n(), opts, sources);
    let (answers, samples) = time_service(engine, reps, &queries, || {
        let service = TauService::with_config(g.clone(), config);
        let answers = service.submit_batch(&queries);
        (service, answers)
    });
    (service_taus(&answers), samples)
}

/// Run one **churned** service cell over a [`ChurnGraph`] (see
/// [`time_service`]). Its episode warms a fresh service, drives the cell's
/// edit schedule through [`TauService::apply_churn`], and re-answers the
/// same batch on the churned topology, so the cold/warm gap shows what the
/// surviving cache is worth after churn.
///
/// The recorded answers are asserted bit-identical (τ, witness set,
/// witness L1) to a fresh oracle run on the post-churn topology: the
/// record's τ column doubles as a correctness net for support-aware cache
/// invalidation, exactly like the dense cross-check does for the engine.
fn churned_service_cell(
    g: &Graph,
    engine: EngineChoice,
    opts: &LocalMixOptions,
    sources: usize,
    reps: usize,
    schedule: &[Vec<EdgeEdit>],
) -> (Option<u64>, Vec<f64>) {
    let (queries, config) = service_batch(g.n(), opts, sources);
    let (post, samples) = time_service(engine, reps, &queries, || {
        let service = TauService::with_config(ChurnGraph::new(g.clone()), config);
        service.submit_batch(&queries);
        for batch in schedule {
            service
                .apply_churn(batch)
                .expect("scheduled batches are valid in application order");
        }
        let post = service.submit_batch(&queries);
        (service, post)
    });

    // Differential net: an independent mirror of the schedule yields the
    // post-churn topology, and a fresh oracle on it must give every
    // recorded answer.
    let mut mirror = ChurnGraph::new(g.clone());
    for batch in schedule {
        mirror
            .apply(batch)
            .expect("mirror replays the exact batches the service accepted");
    }
    let oracle: Vec<TauAnswer> = post
        .iter()
        .map(|a| TauAnswer {
            query: a.query,
            result: lmt_walks::local::local_mixing_time(mirror.topology(), a.query.source, opts),
        })
        .collect();
    assert_same_answers(&post, &oracle, "churned service vs post-churn oracle");
    (service_taus(&post), samples)
}

/// Completion rounds of an application cell (`None` = cap exhausted).
fn app_rounds(engine: EngineChoice, g: &Graph, fault: &FaultSpec, cap: u64) -> Option<u64> {
    let seed = fault.seed();
    let mode = GossipMode::Local;
    match (engine, fault.plan(g.n())) {
        (EngineChoice::Elect, None) => elect_leader(g, mode, seed, cap).map(|(_, r)| r),
        (EngineChoice::Elect, Some(plan)) => {
            elect_leader_faulty(g, mode, seed, cap, plan).map(|(_, r)| r)
        }
        (EngineChoice::Spread, None) => rounds_to_full_spread(g, mode, seed, cap),
        (EngineChoice::Spread, Some(plan)) => {
            rounds_to_full_spread_faulty(g, mode, seed, cap, plan)
        }
        _ => unreachable!("app_rounds called for a τ engine"),
    }
}

/// Run cell `c` on its substrate `s`: the τ column and the `reps`
/// wall-clock samples (`None` for a dense cell with no witness).
fn run_cell(spec: &SweepSpec, s: &Substrate, c: &Coord) -> (Option<u64>, Option<Vec<f64>>) {
    assert!(
        c.engine.is_service() || *c.churn == ChurnSpec::None,
        "non-trivial churn reached a non-service engine — \
         the spec parser should have rejected this"
    );
    let mut opts = LocalMixOptions::new(c.beta);
    opts.eps = c.eps;
    opts.grid = SizeGrid::Geometric;
    opts.kind = s.kind;
    opts.max_t = spec.max_t;
    // Paths and weighted decorations are not regular; use the paper's
    // loose flat treatment (as `oracle_tau`).
    opts.flat_policy = FlatPolicy::AssumeFlat;
    let (src, reps) = (s.workload.source, spec.reps);

    let (tau, samples) = match c.engine {
        EngineChoice::Engine => timing::time_reps_ms(reps, || engine_tau(&s.g, src, &opts)),
        EngineChoice::Dense => {
            // The dense reference panics on a missed cap; record such a
            // cell untimed instead.
            let Some(tau) = engine_tau(&s.g, src, &opts) else {
                eprintln!(
                    "warning: {}: no witness within max_t={}, dense cell untimed",
                    s.workload.name, spec.max_t
                );
                return (None, None);
            };
            let (dense, samples) = timing::time_reps_ms(reps, || match &s.g {
                AnyGraph::Unweighted(g) => dense_tau(g, src, &opts),
                AnyGraph::Weighted(g) => dense_tau(g, src, &opts),
            });
            assert_eq!(
                dense, tau,
                "dense/engine τ disagree on {} — bit-compat broken",
                s.workload.name
            );
            (Some(dense), samples)
        }
        EngineChoice::Elect | EngineChoice::Spread => {
            let AnyGraph::Unweighted(topo) = &s.g else {
                unreachable!("spec parse enforces unit weighting for app engines")
            };
            let cap = spec.max_t as u64;
            timing::time_reps_ms(reps, || app_rounds(c.engine, topo, c.fault, cap))
        }
        EngineChoice::ServiceCold | EngineChoice::ServiceWarm => {
            let schedule = c.churn.schedule(&s.workload.graph);
            let sources = spec.service_sources;
            match &s.g {
                AnyGraph::Unweighted(base) if !schedule.is_empty() => {
                    churned_service_cell(base, c.engine, &opts, sources, reps, &schedule)
                }
                _ if !schedule.is_empty() => {
                    unreachable!("spec parse enforces unit weighting for churn")
                }
                AnyGraph::Unweighted(g) => service_cell(g, c.engine, &opts, sources, reps),
                AnyGraph::Weighted(g) => service_cell(g, c.engine, &opts, sources, reps),
            }
        }
    };
    (tau, Some(samples))
}

/// Run every cell of `spec` and return the record (cells in spec order:
/// graphs × weightings × betas × epsilons × faults × churns × engines ×
/// threads).
pub fn run_sweep(spec: &SweepSpec) -> BenchRecord {
    let mut record = BenchRecord::new(spec.tag.clone());
    record.cells.reserve(spec.cell_count());
    let mut substrate: Option<Substrate> = None;
    for c in (0..spec.cell_count()).map(|i| Coord::of(spec, i)) {
        let key = (c.graph, c.weighting);
        if substrate.as_ref().is_none_or(|s| s.key != key) {
            substrate = Some(Substrate::for_cell(spec, &c, substrate.take()));
        }
        let s = substrate.as_ref().expect("built above");
        let (tau, samples) = {
            let _pin = ThreadsGuard::pin(c.width);
            run_cell(spec, s, &c)
        };
        let (fault, churn) = (c.fault.label(), c.churn.label());
        // Fault- and churn-free keys stay in the format that predates those
        // dimensions, so older records keep matching.
        let segment = |dim: &str, label: &str| match label {
            "none" => String::new(),
            _ => format!("|{dim}={label}"),
        };
        let (fault_key, churn_key) = (segment("fault", &fault), segment("churn", &churn));
        let weighting = spec.weightings[c.weighting].label();
        let (name, beta, eps, width) = (&s.workload.name, c.beta, c.eps, c.width);
        record.cells.push(Cell {
            scenario: format!(
                "g={name}|w={weighting}|beta={beta}|eps={eps}|engine={}{fault_key}{churn_key}|threads={width}",
                c.engine.label(),
            ),
            graph: name.clone(),
            weighting,
            beta,
            eps,
            engine: c.engine.label().to_string(),
            fault,
            churn,
            threads: width,
            tau,
            mem_bytes: Some(s.g.memory_bytes()),
            timing: samples.as_deref().and_then(timing::summarize),
        });
    }
    record
}

/// Render a record's cells as the repo's standard table (what `bench_sweep`
/// prints after a run).
pub fn render_table(record: &BenchRecord) -> String {
    let mut t = lmt_util::table::Table::new(
        format!("sweep {} ({} cells)", record.tag, record.cells.len()),
        &[
            "graph",
            "w",
            "β",
            "ε",
            "engine",
            "fault",
            "churn",
            "thr",
            "τ",
            "mem MiB",
            "median ms",
            "min..max",
        ],
    );
    for c in &record.cells {
        t.row(&[
            c.graph.clone(),
            c.weighting.clone(),
            format!("{}", c.beta),
            format!("{:.4}", c.eps),
            c.engine.clone(),
            c.fault.clone(),
            c.churn.clone(),
            c.threads.to_string(),
            crate::fmt_opt(c.tau),
            c.mem_bytes.map_or("-".into(), |b| {
                format!("{:.2}", b as f64 / (1 << 20) as f64)
            }),
            c.timing
                .map_or("-".into(), |s| format!("{:.3}", s.median_ms)),
            c.timing
                .map_or("-".into(), |s| format!("{:.3}..{:.3}", s.min_ms, s.max_ms)),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChurnSpec, GraphSpec, Weighting};

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            tag: "unit-e2e".into(),
            reps: 2,
            max_t: 10_000,
            graphs: vec![
                GraphSpec::Complete { n: 16 },
                GraphSpec::CliqueRing { beta: 4, k: 8 },
            ],
            weightings: vec![Weighting::Unit, Weighting::Uniform(2.0)],
            betas: vec![4.0],
            epsilons: vec![crate::EPS],
            faults: vec![FaultSpec::None],
            churns: vec![ChurnSpec::None],
            engines: vec![EngineChoice::Engine, EngineChoice::Dense],
            threads: vec![1],
            service_sources: 16,
        }
    }

    #[test]
    fn end_to_end_tiny_sweep() {
        let spec = tiny_spec();
        let record = run_sweep(&spec);
        assert_eq!(record.cells.len(), spec.cell_count());
        assert_eq!(record.tag, "unit-e2e");

        // Every cell measured: witness found, timing recorded, engine/dense
        // agree on τ within each (graph, weighting) pair.
        for cell in &record.cells {
            assert!(cell.tau.is_some(), "{} missed its witness", cell.scenario);
            let t = cell.timing.expect("timed");
            assert_eq!(t.reps, spec.reps);
            assert!(t.min_ms <= t.median_ms && t.median_ms <= t.max_ms);
        }
        for pair in record.cells.chunks(2) {
            assert_eq!(
                pair[0].tau, pair[1].tau,
                "engine/dense disagree: {} vs {}",
                pair[0].scenario, pair[1].scenario
            );
        }

        // Scenario keys are unique (the diff tool matches on them).
        let mut keys: Vec<&str> = record.cells.iter().map(|c| c.scenario.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), record.cells.len());

        // Weighted uniform cells agree with their unweighted twins (the
        // WalkGraph seam's bit-compat contract, surfaced in the record).
        let tau_of = |w: &str, e: &str| {
            record
                .cells
                .iter()
                .find(|c| c.graph.starts_with("complete") && c.weighting == w && c.engine == e)
                .unwrap()
                .tau
        };
        assert_eq!(tau_of("unit", "engine"), tau_of("uniform(2)", "engine"));

        // The record round-trips through the JSON layer.
        let text = record.to_json().render();
        assert_eq!(crate::record::BenchRecord::parse(&text).unwrap(), record);

        // And renders as a table without panicking.
        assert!(render_table(&record).contains("complete(n=16)"));
    }

    #[test]
    fn app_engine_cells_record_completion_rounds() {
        let spec = SweepSpec {
            tag: "apps".into(),
            reps: 1,
            max_t: 100_000,
            graphs: vec![GraphSpec::Barbell { beta: 2, k: 6 }],
            weightings: vec![Weighting::Unit],
            betas: vec![2.0],
            epsilons: vec![0.1],
            faults: vec![
                FaultSpec::None,
                FaultSpec::Drop { p: 0.3, seed: 7 },
                FaultSpec::Crash {
                    count: 2,
                    round: 1,
                    seed: 7,
                },
            ],
            churns: vec![ChurnSpec::None],
            engines: vec![EngineChoice::Elect, EngineChoice::Spread],
            threads: vec![1],
            service_sources: 16,
        };
        let record = run_sweep(&spec);
        assert_eq!(record.cells.len(), spec.cell_count());
        for cell in &record.cells {
            let rounds = cell
                .tau
                .unwrap_or_else(|| panic!("{} hit the cap", cell.scenario));
            assert!(rounds > 0, "{}", cell.scenario);
            assert!(cell.timing.is_some(), "{}", cell.scenario);
        }
        // Fault-free cells keep the legacy key shape; faulty cells carry
        // the fault label between the engine and threads segments.
        assert!(!record.cells[0].scenario.contains("fault="));
        assert_eq!(record.cells[0].fault, "none");
        assert!(record.cells[2]
            .scenario
            .contains("|engine=elect|fault=drop(p=0.3,seed=7)|threads=1"));
        // The whole sweep is deterministic: same spec, same τ column.
        let again = run_sweep(&spec);
        let taus = |r: &BenchRecord| r.cells.iter().map(|c| c.tau).collect::<Vec<_>>();
        assert_eq!(taus(&record), taus(&again));
    }

    #[test]
    fn service_cells_record_cold_and_warm() {
        let spec = SweepSpec {
            tag: "svc-e2e".into(),
            reps: 2,
            max_t: 10_000,
            graphs: vec![GraphSpec::CliqueRing { beta: 4, k: 8 }],
            weightings: vec![Weighting::Unit, Weighting::Uniform(2.0)],
            betas: vec![4.0],
            epsilons: vec![crate::EPS],
            faults: vec![FaultSpec::None],
            churns: vec![ChurnSpec::None],
            engines: vec![EngineChoice::ServiceCold, EngineChoice::ServiceWarm],
            threads: vec![1],
            service_sources: 5,
        };
        let record = run_sweep(&spec);
        assert_eq!(record.cells.len(), spec.cell_count());
        for pair in record.cells.chunks(2) {
            let (cold, warm) = (&pair[0], &pair[1]);
            assert_eq!(cold.engine, "service_cold", "{}", cold.scenario);
            assert_eq!(warm.engine, "service_warm", "{}", warm.scenario);
            // Both cells answer the same batch, so the τ column (max over
            // the sampled sources) must match — the diff gate's handle on
            // cache correctness.
            assert!(cold.tau.is_some(), "{}", cold.scenario);
            assert_eq!(cold.tau, warm.tau, "{}", warm.scenario);
            assert!(cold.timing.is_some() && warm.timing.is_some());
        }
        // Weighted uniform service cells agree with the unweighted twins.
        assert_eq!(record.cells[0].tau, record.cells[2].tau);
    }

    #[test]
    fn churned_service_cells_survive_the_oracle_net() {
        let spec = SweepSpec {
            tag: "churn-e2e".into(),
            reps: 1,
            max_t: 20_000,
            graphs: vec![GraphSpec::CliqueRing { beta: 4, k: 8 }],
            weightings: vec![Weighting::Unit],
            betas: vec![4.0],
            epsilons: vec![crate::EPS],
            faults: vec![FaultSpec::None],
            churns: vec![
                ChurnSpec::None,
                ChurnSpec::Swap {
                    batches: 2,
                    seed: 23,
                },
            ],
            engines: vec![EngineChoice::ServiceCold, EngineChoice::ServiceWarm],
            threads: vec![1],
            service_sources: 4,
        };
        let record = run_sweep(&spec);
        assert_eq!(record.cells.len(), spec.cell_count());
        // Cells in spec order: churn inside faults, engines inside churn.
        let (static_pair, churned_pair) = record.cells.split_at(2);
        for cell in static_pair {
            assert_eq!(cell.churn, "none");
            assert!(!cell.scenario.contains("churn="), "{}", cell.scenario);
        }
        for cell in churned_pair {
            assert_eq!(cell.churn, "swap(batches=2,seed=23)");
            assert!(
                cell.scenario
                    .contains("|churn=swap(batches=2,seed=23)|threads=1"),
                "{}",
                cell.scenario
            );
            // run_sweep already asserted every post-churn answer against a
            // fresh oracle on the post-churn topology; the cell records
            // that batch's τ.
            assert!(cell.tau.is_some(), "{}", cell.scenario);
            assert!(cell.timing.is_some(), "{}", cell.scenario);
        }
        // Cold and warm churned cells answer the same post-churn batch.
        assert_eq!(churned_pair[0].tau, churned_pair[1].tau);
        // The whole sweep is deterministic: same spec, same τ column.
        let again = run_sweep(&spec);
        let taus = |r: &BenchRecord| r.cells.iter().map(|c| c.tau).collect::<Vec<_>>();
        assert_eq!(taus(&record), taus(&again));
    }

    #[test]
    fn threads_guard_restores_prior_value() {
        // Serialize against other tests touching the variable via the
        // guard itself: pin an outer value first.
        let _outer = ThreadsGuard::pin(1);
        {
            let _inner = ThreadsGuard::pin(2);
            assert_eq!(std::env::var("LMT_THREADS").unwrap(), "2");
        }
        assert_eq!(std::env::var("LMT_THREADS").unwrap(), "1");
    }

    #[test]
    fn unreachable_tau_records_null_and_untimed_dense() {
        // ε so small the path never flattens within the cap.
        let spec = SweepSpec {
            tag: "unreached".into(),
            reps: 1,
            max_t: 4,
            graphs: vec![GraphSpec::Path { n: 16 }],
            weightings: vec![Weighting::Unit],
            betas: vec![2.0],
            epsilons: vec![0.001],
            faults: vec![FaultSpec::None],
            churns: vec![ChurnSpec::None],
            engines: vec![EngineChoice::Engine, EngineChoice::Dense],
            threads: vec![1],
            service_sources: 16,
        };
        let record = run_sweep(&spec);
        assert_eq!(record.cells.len(), 2);
        assert_eq!(record.cells[0].tau, None);
        // Engine cells still time the (failed) search; dense cells must
        // not run at all (the reference panics on a missed cap).
        assert!(record.cells[0].timing.is_some());
        assert_eq!(record.cells[1].tau, None);
        assert!(record.cells[1].timing.is_none());
    }
}
