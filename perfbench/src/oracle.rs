//! `oracle-expander`: the exact oracle `local_mixing_time` on a 2²⁰-node
//! d = 8 random regular graph (the paper's §2.3(b) expander regime).

use std::collections::BTreeMap;
use std::time::Instant;

use lmt_graph::{gen, Graph, WalkGraph};
use lmt_util::rng::{fork, stream_seed};
use lmt_walks::engine::BlockEvolution;
use lmt_walks::local::{
    check_dist, local_mixing_time, size_grid, LocalMixError, LocalMixOptions, LocalMixResult,
    Witness, WitnessScratch,
};
use lmt_walks::step::step;
use lmt_walks::Dist;
use rand::Rng;

use crate::trace::{self, Tracer};
use crate::{end_to_end, reference, timed_setups, Args, Outcome};

pub const N: usize = 1 << 20;
pub const DEGREE: usize = 8;
pub const BETA: f64 = 8.0;
const SETUP_REPS: usize = 3;
/// Step cap of the dense cross-check (expanders mix in Θ(log n) steps).
const DENSE_MAX_T: usize = 256;

pub fn opts() -> LocalMixOptions {
    LocalMixOptions::new(BETA)
}

pub fn build(seed: u64) -> Graph {
    gen::random_regular(N, DEGREE, stream_seed(seed, 0))
}

/// The `k`-th query source of a seed.
pub fn source(seed: u64, k: usize) -> usize {
    fork(stream_seed(seed, 1), k as u64).gen_range(0..N)
}

/// Same τ and the same witness, to the bit.
pub fn same_answer(a: &LocalMixResult, tau: usize, w: &Witness) -> bool {
    a.tau == tau
        && a.witness.size == w.size
        && a.witness.l1.to_bits() == w.l1.to_bits()
        && a.witness.nodes == w.nodes
}

/// The historical dense oracle loop — a full-graph `step` and a one-shot
/// `check_dist` per step — as an evolution path independent of the
/// frontier-sparse engine the oracle runs on.
fn dense_answer(g: &Graph, src: usize, o: &LocalMixOptions) -> Option<(usize, Witness)> {
    let sizes = size_grid(g.n(), o);
    let mut p = Dist::point(g.n(), src);
    for t in 0..=DENSE_MAX_T.min(o.max_t) {
        if let Some(w) = check_dist(&p, &sizes, o.eps, None) {
            return Some((t, w));
        }
        p = step(g, &p, o.kind);
    }
    None
}

/// Walk-engine and witness counters of one staged oracle run.
#[derive(Default)]
pub struct StagedCounts {
    pub steps: u64,
    pub dense_steps: u64,
    pub support_frac_sum: f64,
    pub checks: u64,
}

/// The oracle loop of `local_mixing_time`, one layer call at a time under
/// spans: `BlockEvolution::step` (walks.step), `WitnessScratch::load`
/// (witness.load) and `check_sorted` on the loaded snapshot (witness.scan).
/// Source-free sets only (`require_source` off), as in every workload here.
pub fn staged<G: WalkGraph + ?Sized>(
    g: &G,
    src: usize,
    o: &LocalMixOptions,
    tr: &mut Tracer,
    query: u64,
    counts: &mut StagedCounts,
) -> Result<(usize, Witness), LocalMixError> {
    assert!(
        !o.require_source,
        "staged loop covers source-free sets only"
    );
    let q = Some(query);
    let root = tr.begin("oracle.query", q);
    let n = g.n();
    let sizes = size_grid(n, o);
    let mut ev = BlockEvolution::new(g, &[src], o.kind);
    let mut scratch = WitnessScratch::new(n);
    let mut lane = vec![0.0; n];
    let mut found = Err(LocalMixError::NotMixedWithin(o.max_t));
    for t in 0..=o.max_t {
        ev.copy_lane(0, &mut lane);
        tr.span("witness.load", q, || scratch.load(&lane));
        let ids = scratch.sorted_ids().to_vec();
        let vals = scratch.sorted_vals().to_vec();
        let w = tr.span("witness.scan", q, || {
            scratch.check_sorted(&ids, &vals, &sizes, o.eps, None)
        });
        counts.checks += 1;
        if let Some(w) = w {
            found = Ok((t, w));
            break;
        }
        if t < o.max_t {
            tr.span("walks.step", q, || ev.step());
            counts.steps += 1;
            counts.dense_steps += u64::from(ev.is_dense());
            counts.support_frac_sum += ev.support_len() as f64 / n as f64;
        }
    }
    tr.end(root);
    found
}

/// Per-layer walk and witness metrics from staged runs over `queries`
/// queries (per-query means).
pub fn walk_layer_metrics(
    layer: &mut BTreeMap<&'static str, f64>,
    spans: &[trace::Span],
    counts: &StagedCounts,
    queries: usize,
) {
    let summary = trace::summarize(spans);
    let per_q = |x: f64| x / queries.max(1) as f64;
    layer.insert(
        "walks.evolve_s",
        per_q(trace::total_s(&summary, "walks.step")),
    );
    layer.insert("walks.steps", per_q(counts.steps as f64));
    layer.insert("walks.dense_steps", per_q(counts.dense_steps as f64));
    layer.insert(
        "walks.support_frac",
        counts.support_frac_sum / counts.steps.max(1) as f64,
    );
    layer.insert(
        "witness.sort_s",
        per_q(trace::total_s(&summary, "witness.load")),
    );
    layer.insert(
        "witness.scan_s",
        per_q(trace::total_s(&summary, "witness.scan")),
    );
    layer.insert("witness.checks", per_q(counts.checks as f64));
}

pub fn run(args: &Args) -> Outcome {
    let o = opts();
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, 0, args.trace);
    let (setups, g) = timed_setups(SETUP_REPS, || {
        if args.trace {
            tr.span("graph.build", None, || build(args.seed))
        } else {
            build(args.seed)
        }
    });

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut latencies = Vec::new();
    let mut answers = Vec::new();
    let mut counts = StagedCounts::default();
    let mut staged_s = 0.0;
    let start = Instant::now();
    while answers.is_empty() || start.elapsed() < args.run_for {
        let k = answers.len();
        let src = source(args.seed, k);
        let t0 = Instant::now();
        let r = local_mixing_time(&g, src, &o);
        latencies.push(t0.elapsed().as_secs_f64());
        if args.trace {
            let t1 = Instant::now();
            let mirrored = staged(&g, src, &o, &mut tr, k as u64, &mut counts);
            staged_s += t1.elapsed().as_secs_f64();
            attempted += 1;
            let faithful = match (&r, &mirrored) {
                (Ok(a), Ok((tau, w))) => same_answer(a, *tau, w),
                _ => false,
            };
            if !faithful {
                failed += 1;
                eprintln!("oracle-expander: staged mirror drifted for source {src}");
            }
        }
        answers.push((src, r));
    }
    let timed_s = start.elapsed().as_secs_f64();

    // Correctness, outside the timed region: the stored reference answer
    // where the seed has one, else the independent dense path.
    let refs = reference::oracle(args.seed);
    for (k, (src, r)) in answers.iter().enumerate() {
        attempted += 1;
        let ok = r.as_ref().is_ok_and(|a| match refs.get(k) {
            Some(x) => {
                x.source == *src
                    && x.tau == a.tau
                    && x.size == a.witness.size
                    && x.l1.to_bits() == a.witness.l1.to_bits()
            }
            None => dense_answer(&g, *src, &o).is_some_and(|(t, w)| same_answer(a, t, &w)),
        });
        if !ok {
            failed += 1;
            eprintln!("oracle-expander: wrong answer for source {src}: {r:?}");
        }
    }
    println!(
        "info queries={} reference_answers={} taus={:?} latencies_ms={:.0?}",
        answers.len(),
        refs.len().min(answers.len()),
        answers
            .iter()
            .map(|(_, r)| r.as_ref().map_or(0, |a| a.tau))
            .collect::<Vec<_>>(),
        latencies.iter().map(|s| s * 1e3).collect::<Vec<_>>()
    );

    let metrics = if args.trace {
        let spans = tr.into_spans();
        let mut layer = BTreeMap::new();
        let summary = trace::summarize(&spans);
        layer.insert("graph.build_s", trace::mean_s(&summary, "graph.build"));
        layer.insert("graph.mem_bytes", g.memory_bytes() as f64);
        walk_layer_metrics(&mut layer, &spans, &counts, answers.len());
        let untraced: f64 = latencies.iter().sum();
        layer.insert("trace.overhead_frac", staged_s / untraced - 1.0);
        crate::write_trace(args, &spans);
        crate::per_layer(&layer)
    } else {
        end_to_end(&latencies, timed_s, &setups)
    };
    Outcome {
        attempted,
        failed,
        metrics,
    }
}
