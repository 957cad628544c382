//! `algo2-expander`: Algorithm 2 (`local_mixing_time_approx`, the paper's
//! distributed algorithm) on a 2¹¹-node d = 8 random regular graph.

use std::collections::BTreeMap;
use std::time::Instant;

use lmt_congest::bfs::build_bfs_tree;
use lmt_congest::binsearch::{sum_of_r_smallest, Outside};
use lmt_congest::flood::FloodGraph;
use lmt_congest::Metrics;
use lmt_core::approx::{local_mixing_time_approx, AlgoError, ApproxResult};
use lmt_core::config::AlgoConfig;
use lmt_graph::{gen, Graph};
use lmt_util::rng::{fork, stream_seed};
use rand::Rng;

use crate::trace::{self, Tracer};
use crate::{end_to_end, reference, timed_setups, Args, Outcome};

pub const N: usize = 1 << 11;
pub const DEGREE: usize = 8;
pub const BETA: f64 = 8.0;
const SETUP_REPS: usize = 31;

pub fn config() -> AlgoConfig {
    AlgoConfig::new(BETA)
}

pub fn build(seed: u64) -> Graph {
    gen::random_regular(N, DEGREE, stream_seed(seed, 0))
}

/// The `k`-th query source of a seed.
pub fn source(seed: u64, k: usize) -> usize {
    fork(stream_seed(seed, 1), k as u64).gen_range(0..N)
}

/// What [`replay`] returns: `(ℓ, R, sum, metrics)` and the phase totals'
/// rounds and messages of this query.
type Replayed = Result<((u64, usize, f64, Metrics), u64, u64), AlgoError>;

/// The replay reached the library's answer, and its phases add up to the
/// library's rounds and messages.
fn same_as_replay(a: &ApproxResult, replayed: &Replayed) -> bool {
    replayed
        .as_ref()
        .is_ok_and(|((ell, size, sum, m), rounds, messages)| {
            a.ell == *ell
                && a.accepted_size == *size
                && a.accepted_sum.to_bits() == sum.to_bits()
                && a.metrics == *m
                && a.metrics.rounds == *rounds
                && a.metrics.messages == *messages
        })
}

/// CONGEST cost of each Algorithm 2 phase, summed over queries.
#[derive(Default)]
struct Phases {
    bfs: Metrics,
    flood: Metrics,
    binsearch: Metrics,
    iterations: u64,
    binsearch_calls: u64,
}

impl Phases {
    /// Rounds and messages summed over the three phases.
    fn sums(&self) -> (u64, u64) {
        let ms = [self.bfs, self.flood, self.binsearch];
        (
            ms.iter().map(|m| m.rounds).sum(),
            ms.iter().map(|m| m.messages).sum(),
        )
    }
}

/// Algorithm 2 re-driven phase by phase through the public CONGEST entry
/// points, exactly as `lmt_core::approx` composes them, with a span around
/// each BFS, flood and binary-search call; the phase costs accumulate into
/// `phases`.
fn replay(
    g: &Graph,
    src: usize,
    cfg: &AlgoConfig,
    tr: &mut Tracer,
    query: u64,
    phases: &mut Phases,
) -> Replayed {
    cfg.validate();
    let before = phases.sums();
    let q = Some(query);
    let n = g.n();
    let budget = cfg.budget_bits(n);
    let root = tr.begin("algo2.query", q);
    let mut total = Metrics::default();
    let mut ell: u64 = 1;
    let mut outcome = Err(AlgoError::NotMixedWithin(cfg.max_len));
    while ell <= cfg.max_len {
        let depth_limit = u32::try_from(ell).unwrap_or(u32::MAX);
        let bfs = tr.span("algo2.bfs", q, || {
            build_bfs_tree(
                g,
                src,
                depth_limit,
                budget,
                cfg.engine,
                cfg.seed.wrapping_add(ell),
            )
        });
        let (tree, m) = match bfs {
            Ok(x) => x,
            Err(e) => {
                outcome = Err(e.into());
                break;
            }
        };
        phases.bfs.absorb(&m);
        total.absorb(&m);

        let flood = tr.span("algo2.flood", q, || {
            g.estimate_flood(
                src,
                ell,
                cfg.c,
                cfg.kind,
                budget,
                cfg.engine,
                cfg.seed.wrapping_add(0x1000 + ell),
            )
        });
        let (weights, scale, m) = match flood {
            Ok(x) => x,
            Err(e) => {
                outcome = Err(e.into());
                break;
            }
        };
        phases.flood.absorb(&m);
        total.absorb(&m);

        // The (1+ε) size grid with the 4ε acceptance test.
        let four_eps = scale.from_f64(4.0 * cfg.eps);
        let value_width = scale.payload_bits();
        let outside_count = (n - tree.reached()) as u128;
        let grid_seed = cfg.seed.wrapping_add(0x2000 + ell * 0x100);
        let mut accepted = None;
        for (gi, &r) in cfg.size_grid(n).iter().enumerate() {
            phases.binsearch_calls += 1;
            let target = scale.recip(r);
            let xs: Vec<u128> = weights
                .iter()
                .map(|&w| scale.abs_diff(w, target).numerator())
                .collect();
            let outside = (outside_count > 0).then_some(Outside {
                count: outside_count,
                value: target.numerator(),
            });
            let search = tr.span("algo2.binsearch", q, || {
                sum_of_r_smallest(
                    g,
                    &tree,
                    &xs,
                    r,
                    value_width,
                    cfg.tie,
                    outside,
                    budget,
                    cfg.engine,
                    grid_seed.wrapping_add(gi as u64),
                )
            });
            let (res, m) = match search {
                Ok(x) => x,
                Err(e) => {
                    accepted = Some(Err(e));
                    break;
                }
            };
            phases.binsearch.absorb(&m);
            total.absorb(&m);
            if res.sum < four_eps.numerator() {
                accepted = Some(Ok((r, res.sum as f64 / scale.denominator() as f64)));
                break;
            }
        }
        phases.iterations += 1;
        match accepted {
            Some(Ok((r, sum))) => {
                outcome = Ok((ell, r, sum, total));
                break;
            }
            Some(Err(e)) => {
                outcome = Err(e.into());
                break;
            }
            None => ell *= 2,
        }
    }
    tr.end(root);
    let after = phases.sums();
    outcome.map(|r| (r, after.0 - before.0, after.1 - before.1))
}

/// Internal consistency of one Algorithm 2 answer.
fn consistent(a: &ApproxResult) -> bool {
    a.iterations.iter().map(|i| i.rounds).sum::<u64>() == a.metrics.rounds
        && config().size_grid(N).contains(&a.accepted_size)
        && a.ell.is_power_of_two()
}

/// The answer equals the stored reference row, every metric included.
fn same_as_stored(a: &ApproxResult, src: usize, r: &reference::Algo2Ref) -> bool {
    r.source == src
        && r.ell == a.ell
        && r.accepted_size == a.accepted_size
        && r.accepted_sum.to_bits() == a.accepted_sum.to_bits()
        && r.metrics == a.metrics
}

pub fn run(args: &Args) -> Outcome {
    let cfg = config();
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
    let mut phases = Phases::default();
    let mut replays = Vec::new();
    let mut replay_s = 0.0;
    let start = Instant::now();
    while answers.is_empty() || start.elapsed() < args.run_for {
        let k = answers.len();
        let src = source(args.seed, k);
        let t0 = Instant::now();
        let r = local_mixing_time_approx(&g, src, &cfg);
        latencies.push(t0.elapsed().as_secs_f64());
        if args.trace {
            let t1 = Instant::now();
            replays.push(replay(&g, src, &cfg, &mut tr, k as u64, &mut phases));
            replay_s += t1.elapsed().as_secs_f64();
            attempted += 1;
            if !r.as_ref().is_ok_and(|a| same_as_replay(a, &replays[k])) {
                failed += 1;
                eprintln!("algo2-expander: phase replay drifted for source {src}");
            }
        }
        answers.push((src, r));
    }
    let timed_s = start.elapsed().as_secs_f64();

    // Correctness, outside the timed region: the stored reference where
    // the seed has one, else the phase-by-phase replay.
    let refs = reference::algo2(args.seed);
    for (k, (src, r)) in answers.iter().enumerate() {
        attempted += 1;
        let ok = r.as_ref().is_ok_and(|a| {
            consistent(a)
                && match refs.get(k) {
                    Some(stored) => same_as_stored(a, *src, stored),
                    None if args.trace => same_as_replay(a, &replays[k]),
                    None => {
                        let mut off = Tracer::new(origin, 0, false);
                        let fresh = replay(&g, *src, &cfg, &mut off, 0, &mut Phases::default());
                        same_as_replay(a, &fresh)
                    }
                }
        });
        if !ok {
            failed += 1;
            eprintln!("algo2-expander: wrong answer for source {src}: {r:?}");
        }
    }
    let ok: Vec<&ApproxResult> = answers
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok())
        .collect();
    println!(
        "info queries={} reference_answers={} ells={:?} rounds={} messages={} latencies_ms={:.0?}",
        answers.len(),
        refs.len().min(answers.len()),
        ok.iter().map(|a| a.ell).collect::<Vec<_>>(),
        ok.iter().map(|a| a.metrics.rounds).sum::<u64>(),
        ok.iter().map(|a| a.metrics.messages).sum::<u64>(),
        latencies.iter().map(|s| s * 1e3).collect::<Vec<_>>()
    );

    let metrics = if args.trace {
        let spans = tr.into_spans();
        let summary = trace::summarize(&spans);
        let nq = answers.len() as f64;
        let mut layer = BTreeMap::new();
        layer.insert("graph.build_s", trace::mean_s(&summary, "graph.build"));
        layer.insert("graph.mem_bytes", g.memory_bytes() as f64);
        for (span, m, [secs, rounds, messages]) in [
            (
                "algo2.bfs",
                phases.bfs,
                ["algo2.bfs_s", "algo2.bfs_rounds", "algo2.bfs_messages"],
            ),
            (
                "algo2.flood",
                phases.flood,
                [
                    "algo2.flood_s",
                    "algo2.flood_rounds",
                    "algo2.flood_messages",
                ],
            ),
            (
                "algo2.binsearch",
                phases.binsearch,
                [
                    "algo2.binsearch_s",
                    "algo2.binsearch_rounds",
                    "algo2.binsearch_messages",
                ],
            ),
        ] {
            layer.insert(secs, trace::total_s(&summary, span) / nq);
            layer.insert(rounds, m.rounds as f64 / nq);
            layer.insert(messages, m.messages as f64 / nq);
        }
        let (rounds, messages) = phases.sums();
        layer.insert("algo2.rounds", rounds as f64 / nq);
        layer.insert("algo2.messages", messages as f64 / nq);
        layer.insert("algo2.iterations", phases.iterations as f64 / nq);
        layer.insert("algo2.binsearch_calls", phases.binsearch_calls as f64 / nq);
        let untraced: f64 = latencies.iter().sum();
        layer.insert("trace.overhead_frac", replay_s / untraced - 1.0);
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
