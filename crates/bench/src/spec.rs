//! Declarative scenario-sweep specs: the experiment space as a committed
//! JSON file.
//!
//! A spec names a point set in **graph family × weighting × (β,ε) grid ×
//! fault plan × churn schedule × engine × pool width**; the runner ([`crate::sweep`])
//! executes every cell of the cross product and emits one
//! `BENCH_<tag>.json` record. Committed specs live under `specs/` (see
//! EXPERIMENTS.md for the format reference, `specs/tiny.json` for the CI
//! example, and `specs/faults_tiny.json` for the fault-dimension example).
//!
//! The parser is strict: unknown keys anywhere in the spec are errors, so a
//! typo'd dimension name cannot silently shrink a sweep. Cross-dimension
//! constraints are also enforced at parse time: application engines
//! (`elect`, `spread`) run on unit-weighted graphs only, non-trivial
//! faults only make sense for application engines (the τ engines have no
//! fault hook — a faulty τ cell would silently measure nothing), and
//! non-trivial churn only makes sense for the τ-service engines on unit
//! weighting (only `TauService` has an `apply_churn` hook, and the churn
//! substrate is the unweighted `ChurnGraph`).

use lmt_congest::fault::FaultPlan;
use lmt_graph::gen::{self, Workload};
use lmt_graph::{ChurnGraph, EdgeEdit, Graph, SwapDrawer, WalkGraph, WeightedGraph};

use crate::json::Json;

/// Gossip/application seed for fault-free (`"none"`) cells; faulty cells
/// reuse their fault seed so one number pins the whole cell.
pub const APP_SEED: u64 = 0x1517;

/// A parsed sweep spec (see module docs for the file format).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Run tag: names the output record `BENCH_<tag>.json`.
    pub tag: String,
    /// Timed repetitions per cell.
    pub reps: usize,
    /// Step cap for every τ computation in the sweep.
    pub max_t: usize,
    /// Graph-family dimension.
    pub graphs: Vec<GraphSpec>,
    /// Weighting dimension.
    pub weightings: Vec<Weighting>,
    /// β half of the (β,ε) grid.
    pub betas: Vec<f64>,
    /// ε half of the (β,ε) grid.
    pub epsilons: Vec<f64>,
    /// Fault-plan dimension (defaults to the single trivial plan).
    pub faults: Vec<FaultSpec>,
    /// Churn dimension: edit-batch schedules applied to the live service
    /// between cache warm-up and measurement (defaults to no churn).
    pub churns: Vec<ChurnSpec>,
    /// Engine dimension (which measurement runs the cell).
    pub engines: Vec<EngineChoice>,
    /// `LMT_THREADS` pool-width dimension.
    pub threads: Vec<usize>,
    /// How many sources the τ-service engines (`service_cold`,
    /// `service_warm`) query per cell (sources `0, n/q, 2n/q, …` — spread
    /// across the graph). Ignored — and rejected if spelled out — without a
    /// service engine.
    pub service_sources: usize,
}

/// One graph family + size from the generator zoo.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// `gen::complete(n)`.
    Complete {
        /// Node count.
        n: usize,
    },
    /// `gen::path(n)`.
    Path {
        /// Node count.
        n: usize,
    },
    /// `gen::cycle(n)`.
    Cycle {
        /// Node count.
        n: usize,
    },
    /// `gen::random_regular(n, d, seed)`.
    Expander {
        /// Node count.
        n: usize,
        /// Degree.
        d: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `gen::ring_of_cliques_regular(beta, k)` — the β-barbell stand-in.
    CliqueRing {
        /// Number of cliques (≥ 3).
        beta: usize,
        /// Clique size.
        k: usize,
    },
    /// `gen::barbell(beta, k)` — the paper's Figure 1 path-of-cliques.
    Barbell {
        /// Number of cliques (≥ 2).
        beta: usize,
        /// Clique size (≥ 3).
        k: usize,
    },
}

/// One fault plan in the fault dimension.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// No faults (the default dimension value).
    None,
    /// Per-message/per-direction drops with probability `p`.
    Drop {
        /// Drop probability in `(0, 1]`.
        p: f64,
        /// Plan seed (also the cell's application seed).
        seed: u64,
    },
    /// `count` nodes (picked by the plan seed) crash at `round`.
    Crash {
        /// How many nodes crash.
        count: usize,
        /// The crash round (0 = before any exchange).
        round: u64,
        /// Plan seed (also the cell's application seed).
        seed: u64,
    },
}

impl FaultSpec {
    /// Display label used in scenario keys (`"none"` for the trivial plan;
    /// fault-free scenario keys omit the fault segment entirely so
    /// pre-fault-dimension records keep matching).
    pub fn label(&self) -> String {
        match self {
            FaultSpec::None => "none".into(),
            FaultSpec::Drop { p, seed } => format!("drop(p={p},seed={seed})"),
            FaultSpec::Crash { count, round, seed } => {
                format!("crash(count={count},round={round},seed={seed})")
            }
        }
    }

    /// Build the plan for an `n`-node cell (`None` for the trivial spec —
    /// the substrate treats a trivial plan and no plan bit-identically, so
    /// this is a plain fast path, not a semantic difference).
    pub fn plan(&self, n: usize) -> Option<FaultPlan> {
        match *self {
            FaultSpec::None => None,
            FaultSpec::Drop { p, seed } => Some(FaultPlan::new(n, seed).with_drop_prob(p)),
            FaultSpec::Crash { count, round, seed } => {
                Some(FaultPlan::new(n, seed).with_random_crashes(count, round))
            }
        }
    }

    /// The cell's application seed: the plan's seed, or [`APP_SEED`] for
    /// fault-free cells.
    pub fn seed(&self) -> u64 {
        match *self {
            FaultSpec::None => APP_SEED,
            FaultSpec::Drop { seed, .. } | FaultSpec::Crash { seed, .. } => seed,
        }
    }
}

/// One churn schedule in the churn dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnSpec {
    /// No churn (the default dimension value).
    None,
    /// `batches` seeded edit batches, one degree-preserving 2-swap each
    /// (delete `(a,b)` and `(c,d)`, insert `(a,c)` and `(b,d)`), applied
    /// through `TauService::apply_churn` between cache warm-up and
    /// measurement. Degree-preserving, so regular families stay regular
    /// and every cell keeps answering real τ values.
    Swap {
        /// Number of edit batches.
        batches: usize,
        /// Schedule seed.
        seed: u64,
    },
}

impl ChurnSpec {
    /// Display label used in scenario keys (`"none"` for no churn;
    /// churn-free scenario keys omit the churn segment entirely so
    /// pre-churn-dimension records keep matching).
    pub fn label(&self) -> String {
        match self {
            ChurnSpec::None => "none".into(),
            ChurnSpec::Swap { batches, seed } => format!("swap(batches={batches},seed={seed})"),
        }
    }

    /// Materialize the edit-batch schedule against `base`: each batch is
    /// one 2-swap drawn by a [`SwapDrawer`] seeded with `seed` (same spec,
    /// same schedule, always) from the topology *as edited so far*, so
    /// later batches stay valid after earlier ones land. Batches where the
    /// drawer finds no valid swap are skipped (tiny dense graphs).
    pub fn schedule(&self, base: &Graph) -> Vec<Vec<EdgeEdit>> {
        let ChurnSpec::Swap { batches, seed } = *self else {
            return Vec::new();
        };
        let mut cg = ChurnGraph::new(base.clone());
        let mut swaps = SwapDrawer::new(seed);
        let mut out = Vec::new();
        for _ in 0..batches {
            if let Some(batch) = swaps.draw(cg.topology()) {
                cg.apply(&batch).expect("drawn swap is valid");
                out.push(batch.to_vec());
            }
        }
        out
    }
}

/// Weight decoration applied to a graph-family topology.
#[derive(Debug, Clone, PartialEq)]
pub enum Weighting {
    /// Plain unweighted graph.
    Unit,
    /// `gen::weighted::uniform_weights(g, w)` — all edges weight `w`.
    Uniform(f64),
    /// `gen::weighted::random_weights(g, lo, hi, seed)`.
    Random {
        /// Lower weight bound.
        lo: f64,
        /// Upper weight bound.
        hi: f64,
        /// Generator seed.
        seed: u64,
    },
}

/// What measurement a cell runs: a τ implementation, or a gossip
/// application whose completion-round count lands in the τ column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The frontier-sparse evolution engine (`lmt_walks::engine`).
    Engine,
    /// The pre-engine dense oracle loop (full-graph power iteration), timed
    /// against [`EngineChoice::Engine`] and cross-checked by its τ.
    Dense,
    /// Gossip leader election (rounds to live agreement).
    Elect,
    /// Gossip full information spreading (rounds to live completion).
    Spread,
    /// The τ-service (`lmt-service`) answering a query batch on a **fresh**
    /// service — every rep pays the evolutions (cold cache).
    ServiceCold,
    /// The τ-service answering the same batch on a **pre-warmed** service —
    /// every rep is pure cache replay (the sustained-QPS regime).
    ServiceWarm,
}

/// A built cell substrate: the topology's weighted/unweighted variant.
pub enum AnyGraph {
    /// Unweighted CSR graph.
    Unweighted(Graph),
    /// Weighted decoration of the same topology.
    Weighted(WeightedGraph),
}

impl AnyGraph {
    /// Heap footprint of the substrate in bytes
    /// ([`Graph::memory_bytes`] / [`WeightedGraph::memory_bytes`]) — the
    /// sweep runner records this per cell.
    pub fn memory_bytes(&self) -> u64 {
        match self {
            AnyGraph::Unweighted(g) => g.memory_bytes() as u64,
            AnyGraph::Weighted(g) => g.memory_bytes() as u64,
        }
    }
}

impl GraphSpec {
    /// Build the graph, with its display name and measurement source.
    pub fn build(&self) -> Workload {
        match *self {
            GraphSpec::Complete { n } => {
                Workload::new(format!("complete(n={n})"), gen::complete(n), 0)
            }
            GraphSpec::Path { n } => Workload::new(format!("path(n={n})"), gen::path(n), 0),
            GraphSpec::Cycle { n } => Workload::new(format!("cycle(n={n})"), gen::cycle(n), 0),
            GraphSpec::Expander { n, d, seed } => Workload::new(
                format!("expander(n={n},d={d})"),
                gen::random_regular(n, d, seed),
                0,
            ),
            GraphSpec::CliqueRing { beta, k } => Workload::new(
                format!("clique-ring(beta={beta},k={k})"),
                gen::ring_of_cliques_regular(beta, k).0,
                0,
            ),
            GraphSpec::Barbell { beta, k } => Workload::new(
                format!("barbell(beta={beta},k={k})"),
                gen::barbell(beta, k).0,
                0,
            ),
        }
    }
}

impl Weighting {
    /// Display label used in scenario keys, e.g. `uniform(2)`.
    pub fn label(&self) -> String {
        match self {
            Weighting::Unit => "unit".into(),
            Weighting::Uniform(w) => format!("uniform({w})"),
            Weighting::Random { lo, hi, seed } => format!("random({lo}..{hi},seed={seed})"),
        }
    }

    /// Decorate a topology.
    pub fn apply(&self, topology: Graph) -> AnyGraph {
        match *self {
            Weighting::Unit => AnyGraph::Unweighted(topology),
            Weighting::Uniform(w) => {
                AnyGraph::Weighted(gen::weighted::uniform_weights(topology, w))
            }
            Weighting::Random { lo, hi, seed } => {
                AnyGraph::Weighted(gen::weighted::random_weights(topology, lo, hi, seed))
            }
        }
    }
}

impl EngineChoice {
    /// Display label used in scenario keys.
    pub fn label(&self) -> &'static str {
        match self {
            EngineChoice::Engine => "engine",
            EngineChoice::Dense => "dense",
            EngineChoice::Elect => "elect",
            EngineChoice::Spread => "spread",
            EngineChoice::ServiceCold => "service_cold",
            EngineChoice::ServiceWarm => "service_warm",
        }
    }

    /// True for the gossip-application engines (vs the τ implementations).
    pub fn is_app(&self) -> bool {
        matches!(self, EngineChoice::Elect | EngineChoice::Spread)
    }

    /// True for the τ-service engines (`service_cold`, `service_warm`).
    pub fn is_service(&self) -> bool {
        matches!(self, EngineChoice::ServiceCold | EngineChoice::ServiceWarm)
    }
}

/// Error on object keys outside `allowed` (typo protection; see module
/// docs).
fn reject_unknown_keys(v: &Json, allowed: &[&str], what: &str) -> Result<(), String> {
    let pairs = v
        .as_obj()
        .ok_or_else(|| format!("{what} must be an object"))?;
    for (k, _) in pairs {
        if !allowed.contains(&k.as_str()) {
            return Err(format!(
                "{what}: unknown key {k:?} (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn usize_field(v: &Json, key: &str, what: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("{what}: missing/mistyped {key:?} (non-negative integer)"))
}

fn f64_field(v: &Json, key: &str, what: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{what}: missing/mistyped {key:?} (number)"))
}

fn parse_graph(v: &Json) -> Result<GraphSpec, String> {
    let family = v
        .get("family")
        .and_then(Json::as_str)
        .ok_or("graph: missing/mistyped \"family\"")?;
    let what = format!("graph family {family:?}");
    match family {
        "complete" | "path" | "cycle" => {
            reject_unknown_keys(v, &["family", "n"], &what)?;
            let n = usize_field(v, "n", &what)?;
            if n < 2 {
                return Err(format!("{what}: n must be ≥ 2"));
            }
            Ok(match family {
                "complete" => GraphSpec::Complete { n },
                "path" => GraphSpec::Path { n },
                _ => GraphSpec::Cycle { n },
            })
        }
        "expander" => {
            reject_unknown_keys(v, &["family", "n", "d", "seed"], &what)?;
            let n = usize_field(v, "n", &what)?;
            let d = usize_field(v, "d", &what)?;
            if d == 0 || d >= n {
                return Err(format!("{what}: need 0 < d < n"));
            }
            Ok(GraphSpec::Expander {
                n,
                d,
                seed: usize_field(v, "seed", &what)? as u64,
            })
        }
        "clique_ring" => {
            reject_unknown_keys(v, &["family", "beta", "k"], &what)?;
            let beta = usize_field(v, "beta", &what)?;
            let k = usize_field(v, "k", &what)?;
            if beta < 3 {
                return Err(format!(
                    "{what}: beta must be ≥ 3 (a ring needs three cliques)"
                ));
            }
            if k < 4 {
                return Err(format!("{what}: k must be ≥ 4"));
            }
            Ok(GraphSpec::CliqueRing { beta, k })
        }
        "barbell" => {
            reject_unknown_keys(v, &["family", "beta", "k"], &what)?;
            let beta = usize_field(v, "beta", &what)?;
            let k = usize_field(v, "k", &what)?;
            if beta < 2 {
                return Err(format!("{what}: beta must be ≥ 2 (a path of cliques)"));
            }
            if k < 3 {
                return Err(format!("{what}: k must be ≥ 3 (ports must be distinct)"));
            }
            Ok(GraphSpec::Barbell { beta, k })
        }
        other => Err(format!(
            "graph: unknown family {other:?} (complete, path, cycle, expander, clique_ring, barbell)"
        )),
    }
}

fn parse_fault(v: &Json) -> Result<FaultSpec, String> {
    if let Some(s) = v.as_str() {
        return match s {
            "none" => Ok(FaultSpec::None),
            other => Err(format!(
                "faults: unknown shorthand {other:?} (only \"none\"; use an object otherwise)"
            )),
        };
    }
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("faults: must be \"none\" or an object with a \"kind\"")?;
    let what = format!("fault {kind:?}");
    match kind {
        "none" => {
            reject_unknown_keys(v, &["kind"], &what)?;
            Ok(FaultSpec::None)
        }
        "drop" => {
            reject_unknown_keys(v, &["kind", "p", "seed"], &what)?;
            let p = f64_field(v, "p", &what)?;
            if p.is_nan() || p <= 0.0 || p > 1.0 {
                return Err(format!("{what}: need 0 < p ≤ 1 (p = 0 is \"none\")"));
            }
            Ok(FaultSpec::Drop {
                p,
                seed: usize_field(v, "seed", &what)? as u64,
            })
        }
        "crash" => {
            reject_unknown_keys(v, &["kind", "count", "round", "seed"], &what)?;
            let count = usize_field(v, "count", &what)?;
            if count == 0 {
                return Err(format!("{what}: count must be ≥ 1 (count = 0 is \"none\")"));
            }
            Ok(FaultSpec::Crash {
                count,
                round: usize_field(v, "round", &what)? as u64,
                seed: usize_field(v, "seed", &what)? as u64,
            })
        }
        other => Err(format!(
            "faults: unknown kind {other:?} (none, drop, crash)"
        )),
    }
}

fn parse_churn(v: &Json) -> Result<ChurnSpec, String> {
    if let Some(s) = v.as_str() {
        return match s {
            "none" => Ok(ChurnSpec::None),
            other => Err(format!(
                "churn: unknown shorthand {other:?} (only \"none\"; use an object otherwise)"
            )),
        };
    }
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("churn: must be \"none\" or an object with a \"kind\"")?;
    let what = format!("churn {kind:?}");
    match kind {
        "none" => {
            reject_unknown_keys(v, &["kind"], &what)?;
            Ok(ChurnSpec::None)
        }
        "swap" => {
            reject_unknown_keys(v, &["kind", "batches", "seed"], &what)?;
            let batches = usize_field(v, "batches", &what)?;
            if batches == 0 {
                return Err(format!("{what}: batches must be ≥ 1 (0 is \"none\")"));
            }
            Ok(ChurnSpec::Swap {
                batches,
                seed: usize_field(v, "seed", &what)? as u64,
            })
        }
        other => Err(format!("churn: unknown kind {other:?} (none, swap)")),
    }
}

fn parse_weighting(v: &Json) -> Result<Weighting, String> {
    if let Some(s) = v.as_str() {
        return match s {
            "unit" => Ok(Weighting::Unit),
            other => Err(format!(
                "weighting: unknown shorthand {other:?} (only \"unit\"; use an object otherwise)"
            )),
        };
    }
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("weighting: must be \"unit\" or an object with a \"kind\"")?;
    let what = format!("weighting {kind:?}");
    match kind {
        "unit" => {
            reject_unknown_keys(v, &["kind"], &what)?;
            Ok(Weighting::Unit)
        }
        "uniform" => {
            reject_unknown_keys(v, &["kind", "w"], &what)?;
            let w = f64_field(v, "w", &what)?;
            if w.is_nan() || w <= 0.0 {
                return Err(format!("{what}: w must be positive"));
            }
            Ok(Weighting::Uniform(w))
        }
        "random" => {
            reject_unknown_keys(v, &["kind", "lo", "hi", "seed"], &what)?;
            let lo = f64_field(v, "lo", &what)?;
            let hi = f64_field(v, "hi", &what)?;
            if lo.is_nan() || hi.is_nan() || lo <= 0.0 || hi < lo {
                return Err(format!("{what}: need 0 < lo ≤ hi"));
            }
            Ok(Weighting::Random {
                lo,
                hi,
                seed: usize_field(v, "seed", &what)? as u64,
            })
        }
        other => Err(format!(
            "weighting: unknown kind {other:?} (unit, uniform, random)"
        )),
    }
}

fn parse_engine(v: &Json) -> Result<EngineChoice, String> {
    match v.as_str() {
        Some("engine") => Ok(EngineChoice::Engine),
        Some("dense") => Ok(EngineChoice::Dense),
        Some("elect") => Ok(EngineChoice::Elect),
        Some("spread") => Ok(EngineChoice::Spread),
        Some("service_cold") => Ok(EngineChoice::ServiceCold),
        Some("service_warm") => Ok(EngineChoice::ServiceWarm),
        _ => Err(
            "engines: entries must be \"engine\", \"dense\", \"elect\", \"spread\", \
                  \"service_cold\" or \"service_warm\""
                .into(),
        ),
    }
}

fn non_empty_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("spec: missing/mistyped {key:?} (array)"))?;
    if arr.is_empty() {
        return Err(format!("spec: {key:?} must not be empty"));
    }
    Ok(arr)
}

impl SweepSpec {
    /// Parse a spec from JSON text. Strict: see module docs.
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        reject_unknown_keys(
            &v,
            &[
                "tag",
                "reps",
                "max_t",
                "graphs",
                "weightings",
                "betas",
                "epsilons",
                "faults",
                "churn",
                "engines",
                "threads",
                "service_sources",
            ],
            "spec",
        )?;

        let tag = v
            .get("tag")
            .and_then(Json::as_str)
            .ok_or("spec: missing/mistyped \"tag\"")?
            .to_string();
        if tag.is_empty()
            || !tag
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(format!(
                "spec: tag {tag:?} must be non-empty [A-Za-z0-9_-] (it names the output file)"
            ));
        }

        let reps = match v.get("reps") {
            None => 3,
            Some(r) => r.as_usize().ok_or("spec: \"reps\" must be an integer")?,
        };
        if reps == 0 {
            return Err("spec: \"reps\" must be ≥ 1".into());
        }
        let max_t = match v.get("max_t") {
            None => 1 << 20,
            Some(m) => m.as_usize().ok_or("spec: \"max_t\" must be an integer")?,
        };

        let graphs = non_empty_arr(&v, "graphs")?
            .iter()
            .map(parse_graph)
            .collect::<Result<Vec<_>, _>>()?;
        let weightings = match v.get("weightings") {
            None => vec![Weighting::Unit],
            Some(_) => non_empty_arr(&v, "weightings")?
                .iter()
                .map(parse_weighting)
                .collect::<Result<_, _>>()?,
        };
        let betas = non_empty_arr(&v, "betas")?
            .iter()
            .map(|b| {
                b.as_f64()
                    .filter(|b| *b >= 1.0)
                    .ok_or("spec: \"betas\" entries must be numbers ≥ 1")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let epsilons = non_empty_arr(&v, "epsilons")?
            .iter()
            .map(|e| {
                e.as_f64()
                    .filter(|e| *e > 0.0 && *e < 1.0)
                    .ok_or("spec: \"epsilons\" entries must be numbers in (0,1)")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let faults = match v.get("faults") {
            None => vec![FaultSpec::None],
            Some(_) => non_empty_arr(&v, "faults")?
                .iter()
                .map(parse_fault)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let churns = match v.get("churn") {
            None => vec![ChurnSpec::None],
            Some(_) => non_empty_arr(&v, "churn")?
                .iter()
                .map(parse_churn)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let engines: Vec<EngineChoice> = match v.get("engines") {
            None => vec![EngineChoice::Engine],
            Some(_) => non_empty_arr(&v, "engines")?
                .iter()
                .map(parse_engine)
                .collect::<Result<_, _>>()?,
        };
        if engines.iter().any(EngineChoice::is_app)
            && weightings.iter().any(|w| *w != Weighting::Unit)
        {
            return Err(
                "spec: application engines (elect, spread) run on unit weighting only".into(),
            );
        }
        if faults.iter().any(|f| *f != FaultSpec::None) && engines.iter().any(|e| !e.is_app()) {
            return Err(
                "spec: non-trivial faults need application engines (elect, spread) — \
                        the τ engines have no fault hook"
                    .into(),
            );
        }
        if churns.iter().any(|c| *c != ChurnSpec::None) {
            if engines.iter().any(|e| !e.is_service()) {
                return Err(
                    "spec: non-trivial churn needs service engines (service_cold, \
                            service_warm) — only the τ-service has an apply_churn hook"
                        .into(),
                );
            }
            if weightings.iter().any(|w| *w != Weighting::Unit) {
                return Err(
                    "spec: non-trivial churn runs on unit weighting only (the churn \
                     substrate is the unweighted ChurnGraph)"
                        .into(),
                );
            }
        }
        let threads = match v.get("threads") {
            None => vec![1],
            Some(_) => non_empty_arr(&v, "threads")?
                .iter()
                .map(|t| {
                    t.as_usize()
                        .filter(|t| *t >= 1)
                        .ok_or("spec: \"threads\" entries must be integers ≥ 1")
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let service_sources = match v.get("service_sources") {
            None => 16,
            Some(s) => {
                if !engines.iter().any(EngineChoice::is_service) {
                    return Err("spec: \"service_sources\" needs a service engine \
                                (service_cold, service_warm)"
                        .into());
                }
                s.as_usize()
                    .filter(|s| *s >= 1)
                    .ok_or("spec: \"service_sources\" must be an integer ≥ 1")?
            }
        };

        Ok(SweepSpec {
            tag,
            reps,
            max_t,
            graphs,
            weightings,
            betas,
            epsilons,
            faults,
            churns,
            engines,
            threads,
            service_sources,
        })
    }

    /// Number of cells the cross product expands to.
    pub fn cell_count(&self) -> usize {
        self.graphs.len()
            * self.weightings.len()
            * self.betas.len()
            * self.epsilons.len()
            * self.faults.len()
            * self.churns.len()
            * self.engines.len()
            * self.threads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"{
        "tag": "demo",
        "reps": 2,
        "max_t": 10000,
        "graphs": [
            {"family": "complete", "n": 16},
            {"family": "clique_ring", "beta": 4, "k": 8},
            {"family": "expander", "n": 32, "d": 4, "seed": 7}
        ],
        "weightings": ["unit", {"kind": "uniform", "w": 2.0}],
        "betas": [4, 8],
        "epsilons": [0.046],
        "engines": ["engine", "dense"],
        "threads": [1, 2]
    }"#;

    #[test]
    fn parses_full_spec_and_counts_cells() {
        let s = SweepSpec::parse(FULL).unwrap();
        assert_eq!(s.tag, "demo");
        assert_eq!(s.reps, 2);
        assert_eq!(s.max_t, 10000);
        // graphs × weightings × betas × epsilons × engines × threads
        assert_eq!(s.cell_count(), 3 * 2 * 2 * 2 * 2);
        assert_eq!(s.weightings[1], Weighting::Uniform(2.0));
        assert_eq!(s.engines, [EngineChoice::Engine, EngineChoice::Dense]);
    }

    #[test]
    fn defaults_fill_optional_dimensions() {
        let s = SweepSpec::parse(
            r#"{"tag": "t", "graphs": [{"family": "path", "n": 8}],
                "betas": [2], "epsilons": [0.1]}"#,
        )
        .unwrap();
        assert_eq!(s.reps, 3);
        assert_eq!(s.max_t, 1 << 20);
        assert_eq!(s.weightings, [Weighting::Unit]);
        assert_eq!(s.faults, [FaultSpec::None]);
        assert_eq!(s.engines, [EngineChoice::Engine]);
        assert_eq!(s.threads, [1]);
        assert_eq!(s.service_sources, 16);
    }

    #[test]
    fn parses_service_engines_and_sources() {
        let s = SweepSpec::parse(
            r#"{"tag": "svc", "graphs": [{"family": "clique_ring", "beta": 4, "k": 8}],
                "betas": [4], "epsilons": [0.1],
                "weightings": ["unit", {"kind": "uniform", "w": 2.0}],
                "engines": ["engine", "service_cold", "service_warm"],
                "service_sources": 5}"#,
        )
        .unwrap();
        assert_eq!(
            s.engines,
            [
                EngineChoice::Engine,
                EngineChoice::ServiceCold,
                EngineChoice::ServiceWarm,
            ]
        );
        assert_eq!(s.service_sources, 5);
        assert_eq!(EngineChoice::ServiceCold.label(), "service_cold");
        assert_eq!(EngineChoice::ServiceWarm.label(), "service_warm");
        // Service engines are τ engines (weighted graphs allowed, faults
        // not), not gossip applications.
        assert!(EngineChoice::ServiceCold.is_service());
        assert!(EngineChoice::ServiceWarm.is_service());
        assert!(!EngineChoice::ServiceCold.is_app());
        assert!(!EngineChoice::Engine.is_service());
    }

    #[test]
    fn parses_fault_dimension_with_app_engines() {
        let s = SweepSpec::parse(
            r#"{"tag": "f", "graphs": [{"family": "barbell", "beta": 4, "k": 8}],
                "betas": [4], "epsilons": [0.1],
                "faults": ["none",
                           {"kind": "drop", "p": 0.2, "seed": 7},
                           {"kind": "crash", "count": 2, "round": 0, "seed": 7}],
                "engines": ["elect", "spread"]}"#,
        )
        .unwrap();
        assert_eq!(
            s.faults,
            [
                FaultSpec::None,
                FaultSpec::Drop { p: 0.2, seed: 7 },
                FaultSpec::Crash {
                    count: 2,
                    round: 0,
                    seed: 7
                },
            ]
        );
        assert_eq!(s.engines, [EngineChoice::Elect, EngineChoice::Spread]);
        // graphs × weightings × betas × epsilons × faults × engines × threads
        assert_eq!(s.cell_count(), 3 * 2);
        assert_eq!(s.faults[1].label(), "drop(p=0.2,seed=7)");
        assert_eq!(s.faults[2].label(), "crash(count=2,round=0,seed=7)");
        assert_eq!(s.faults[0].seed(), APP_SEED);
        assert_eq!(s.faults[1].seed(), 7);
        assert!(s.faults[0].plan(8).is_none());
        let plan = s.faults[2].plan(8).unwrap();
        assert_eq!(plan.crashed_count_by(0), 2);
    }

    #[test]
    fn rejects_cross_dimension_misuse() {
        for (bad, needle) in [
            // App engines demand unit weighting.
            (
                r#"{"tag":"t","graphs":[{"family":"complete","n":8}],"betas":[2],"epsilons":[0.1],
                 "weightings":[{"kind":"uniform","w":2}],"engines":["elect"]}"#,
                "unit weighting",
            ),
            // Non-trivial faults demand app engines.
            (
                r#"{"tag":"t","graphs":[{"family":"complete","n":8}],"betas":[2],"epsilons":[0.1],
                 "faults":[{"kind":"drop","p":0.5,"seed":1}],"engines":["engine","elect"]}"#,
                "fault hook",
            ),
            // … which also excludes the τ-service engines.
            (
                r#"{"tag":"t","graphs":[{"family":"complete","n":8}],"betas":[2],"epsilons":[0.1],
                 "faults":[{"kind":"drop","p":0.5,"seed":1}],"engines":["service_warm"]}"#,
                "fault hook",
            ),
            // service_sources is meaningless without a service engine.
            (
                r#"{"tag":"t","graphs":[{"family":"complete","n":8}],"betas":[2],"epsilons":[0.1],
                 "service_sources":4}"#,
                "service engine",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"complete","n":8}],"betas":[2],"epsilons":[0.1],
                 "engines":["service_cold"],"service_sources":0}"#,
                "≥ 1",
            ),
            // Degenerate fault values are spelled "none", not 0.
            (
                r#"{"tag":"t","graphs":[{"family":"complete","n":8}],"betas":[2],"epsilons":[0.1],
                 "faults":[{"kind":"drop","p":0.0,"seed":1}],"engines":["elect"]}"#,
                "0 < p",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"complete","n":8}],"betas":[2],"epsilons":[0.1],
                 "faults":[{"kind":"crash","count":0,"round":0,"seed":1}],"engines":["elect"]}"#,
                "count",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"complete","n":8}],"betas":[2],"epsilons":[0.1],
                 "faults":[{"kind":"drop","p":0.5,"seed":1,"x":2}],"engines":["elect"]}"#,
                "\"x\"",
            ),
            // Barbell bounds.
            (
                r#"{"tag":"t","graphs":[{"family":"barbell","beta":1,"k":8}],"betas":[2],"epsilons":[0.1]}"#,
                "≥ 2",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"barbell","beta":2,"k":2}],"betas":[2],"epsilons":[0.1]}"#,
                "≥ 3",
            ),
        ] {
            let e = SweepSpec::parse(bad).unwrap_err();
            assert!(e.contains(needle), "{bad} -> {e}");
        }
    }

    #[test]
    fn rejects_unknown_keys_everywhere() {
        for (bad, needle) in [
            (
                r#"{"tag":"t","graphs":[{"family":"path","n":8}],"betas":[2],"epsilons":[0.1],"thread":[1]}"#,
                "thread",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"path","n":8,"m":2}],"betas":[2],"epsilons":[0.1]}"#,
                "\"m\"",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"path","n":8}],"betas":[2],"epsilons":[0.1],"weightings":[{"kind":"uniform","w":1,"x":2}]}"#,
                "\"x\"",
            ),
            // Duplicate keys die in the JSON layer, offset and all.
            (
                r#"{"tag":"t","graphs":[{"family":"path","n":8}],"betas":[2],"betas":[3],"epsilons":[0.1]}"#,
                "duplicate key",
            ),
        ] {
            let e = SweepSpec::parse(bad).unwrap_err();
            assert!(e.contains(needle), "{bad} -> {e}");
        }
    }

    #[test]
    fn rejects_bad_values() {
        for (bad, needle) in [
            (
                r#"{"tag":"a b","graphs":[{"family":"path","n":8}],"betas":[2],"epsilons":[0.1]}"#,
                "tag",
            ),
            (
                r#"{"tag":"t","graphs":[],"betas":[2],"epsilons":[0.1]}"#,
                "graphs",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"warp","n":8}],"betas":[2],"epsilons":[0.1]}"#,
                "warp",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"clique_ring","beta":2,"k":8}],"betas":[2],"epsilons":[0.1]}"#,
                "≥ 3",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"path","n":8}],"betas":[0.5],"epsilons":[0.1]}"#,
                "betas",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"path","n":8}],"betas":[2],"epsilons":[1.5]}"#,
                "epsilons",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"path","n":8}],"betas":[2],"epsilons":[0.1],"reps":0}"#,
                "reps",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"path","n":8}],"betas":[2],"epsilons":[0.1],"threads":[0]}"#,
                "threads",
            ),
        ] {
            let e = SweepSpec::parse(bad).unwrap_err();
            assert!(e.contains(needle), "{bad} -> {e}");
        }
    }

    #[test]
    fn graph_specs_build_with_matching_labels() {
        let w = GraphSpec::CliqueRing { beta: 4, k: 8 }.build();
        assert_eq!(w.name, "clique-ring(beta=4,k=8)");
        assert_eq!(w.graph.n(), 32);
        let w = GraphSpec::Expander {
            n: 32,
            d: 4,
            seed: 1,
        }
        .build();
        assert_eq!(w.name, "expander(n=32,d=4)");
        assert_eq!(w.graph.n(), 32);
        let w = GraphSpec::Barbell { beta: 4, k: 8 }.build();
        assert_eq!(w.name, "barbell(beta=4,k=8)");
        assert_eq!(w.graph.n(), 32);
    }

    #[test]
    fn parses_churn_dimension_and_multiplies_cells() {
        let s = SweepSpec::parse(
            r#"{"tag": "c", "graphs": [{"family": "clique_ring", "beta": 4, "k": 8}],
                "betas": [4], "epsilons": [0.1],
                "engines": ["service_cold", "service_warm"],
                "churn": ["none", {"kind": "swap", "batches": 3, "seed": 23}]}"#,
        )
        .unwrap();
        assert_eq!(
            s.churns,
            [
                ChurnSpec::None,
                ChurnSpec::Swap {
                    batches: 3,
                    seed: 23
                }
            ]
        );
        assert_eq!(s.churns[0].label(), "none");
        assert_eq!(s.churns[1].label(), "swap(batches=3,seed=23)");
        // graphs × weightings × betas × epsilons × faults × churns × engines × threads
        assert_eq!(s.cell_count(), 2 * 2);
    }

    #[test]
    fn churn_schedule_is_deterministic_and_degree_preserving() {
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let spec = ChurnSpec::Swap {
            batches: 3,
            seed: 23,
        };
        let schedule = spec.schedule(&g);
        assert_eq!(schedule, spec.schedule(&g), "same spec, same schedule");
        assert!(!schedule.is_empty(), "clique-ring has room for 2-swaps");
        let mut cg = ChurnGraph::new(g.clone());
        for batch in &schedule {
            assert_eq!(batch.len(), 4, "one 2-swap = 2 deletes + 2 inserts");
            cg.apply(batch)
                .expect("scheduled batches are valid in order");
        }
        let after = cg.topology();
        assert_eq!(after.m(), g.m());
        for v in 0..g.n() {
            assert_eq!(after.degree(v), g.degree(v), "2-swaps preserve degrees");
        }
        assert_eq!(ChurnSpec::None.schedule(&g), Vec::<Vec<EdgeEdit>>::new());
    }

    #[test]
    fn rejects_churn_misuse() {
        const SWAP: &str = r#"{"kind":"swap","batches":2,"seed":7}"#;
        for (bad, needle) in [
            // Non-trivial churn demands service engines…
            (
                format!(
                    r#"{{"tag":"t","graphs":[{{"family":"complete","n":8}}],"betas":[2],"epsilons":[0.1],
                     "churn":[{SWAP}],"engines":["engine"]}}"#
                ),
                "apply_churn hook",
            ),
            (
                format!(
                    r#"{{"tag":"t","graphs":[{{"family":"complete","n":8}}],"betas":[2],"epsilons":[0.1],
                     "churn":[{SWAP}],"engines":["service_warm","dense"]}}"#
                ),
                "apply_churn hook",
            ),
            // … and unit weighting.
            (
                format!(
                    r#"{{"tag":"t","graphs":[{{"family":"complete","n":8}}],"betas":[2],"epsilons":[0.1],
                     "weightings":[{{"kind":"uniform","w":2}}],
                     "churn":[{SWAP}],"engines":["service_warm"]}}"#
                ),
                "ChurnGraph",
            ),
            // Degenerate churn is spelled "none", not 0 batches.
            (
                r#"{"tag":"t","graphs":[{"family":"complete","n":8}],"betas":[2],"epsilons":[0.1],
                 "churn":[{"kind":"swap","batches":0,"seed":7}],"engines":["service_warm"]}"#
                    .into(),
                "≥ 1",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"complete","n":8}],"betas":[2],"epsilons":[0.1],
                 "churn":[{"kind":"swap","batches":1,"seed":7,"x":2}],"engines":["service_warm"]}"#
                    .into(),
                "\"x\"",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"complete","n":8}],"betas":[2],"epsilons":[0.1],
                 "churn":[{"kind":"flap","batches":1,"seed":7}],"engines":["service_warm"]}"#
                    .into(),
                "swap",
            ),
            (
                r#"{"tag":"t","graphs":[{"family":"complete","n":8}],"betas":[2],"epsilons":[0.1],
                 "churn":["all"],"engines":["service_warm"]}"#
                    .into(),
                "shorthand",
            ),
        ] {
            let e = SweepSpec::parse(&bad).unwrap_err();
            assert!(e.contains(needle), "{bad} -> {e}");
        }
    }

    #[test]
    fn weighting_labels_and_apply() {
        assert_eq!(Weighting::Unit.label(), "unit");
        assert_eq!(Weighting::Uniform(2.0).label(), "uniform(2)");
        let g = gen::complete(8);
        match Weighting::Uniform(2.0).apply(g.clone()) {
            AnyGraph::Weighted(_) => {}
            AnyGraph::Unweighted(_) => panic!("uniform must weight the graph"),
        }
        match Weighting::Unit.apply(g) {
            AnyGraph::Unweighted(_) => {}
            AnyGraph::Weighted(_) => panic!("unit must stay unweighted"),
        }
    }
}
