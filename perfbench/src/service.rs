//! `service-ring`: a `TauService` (`FlatPolicy::AssumeFlat`) over a
//! `ChurnGraph` of a ring of 32 random 8-regular expanders of 512 nodes,
//! driven by a closed loop of two clients. Each client submits small query
//! batches through one `ServiceWorker` and turns every `CHURN_EVERY`-th
//! operation into an `apply_churn` batch of degree-preserving 2-swaps.
//!
//! Every query keeps β ≥ the block count (32): a set of n/β nodes then fits
//! in one block, where the walk mixes in 8–12 steps. Smaller β asks for
//! sets spanning several blocks, whose τ runs into the thousands, while the
//! unbounded curve cache stores 12·n bytes per step of every cached source.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lmt_graph::{gen, ChurnGraph, EdgeEdit, Graph, WalkGraph};
use lmt_service::{ServiceConfig, ServiceWorker, TauQuery, TauService};
use lmt_util::rng::{fork, stream_seed};
use lmt_walks::local::{local_mixing_time, FlatPolicy, LocalMixError, LocalMixResult};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::oracle::{same_answer, staged, walk_layer_metrics, StagedCounts};
use crate::trace::{self, Span, Tracer};
use crate::{median, Args, Outcome};

const BLOCKS: usize = 32;
const BLOCK: usize = 512;
const DEGREE: usize = 8;
const N: usize = BLOCKS * BLOCK;
const CLIENTS: usize = 2;
/// Sources that repeat (three queries in four go to one of them).
const HOT: usize = 8;
/// Sources queried rarely; each starts cold.
const COLD: usize = 8;
/// Queries per batch.
const BATCH: usize = 2;
/// Every `CHURN_EVERY`-th operation of a client is a churn batch.
const CHURN_EVERY: u64 = 6;
const SWAPS_PER_CHURN: usize = 2;
const BETAS: [f64; 3] = [32.0, 64.0, 128.0];
const EPSS: [f64; 3] = [1.0 / (8.0 * std::f64::consts::E), 0.02, 0.1];
const SETUP_REPS: usize = 15;
/// Sources are drawn at least this many hops from every bridge port. Churn
/// never edits an edge at a port or a port's neighbour, so they stay at
/// least 3 hops away all run.
const SOURCE_PORT_DISTANCE: u32 = 4;
/// Step cap per query: a query that has not mixed by then is answered
/// `NotMixedWithin` (and counted as failed) instead of running on.
const MAX_T: usize = 256;

fn config() -> ServiceConfig {
    ServiceConfig {
        flat_policy: FlatPolicy::AssumeFlat,
        max_t: MAX_T,
        ..ServiceConfig::default()
    }
}

fn build(seed: u64) -> Graph {
    gen::ring_of_expanders(BLOCKS, BLOCK, DEGREE, stream_seed(seed, 0), true)
}

/// Hop distance of every node from the nearest bridge port (the first and
/// last node of each block). A walk from next to a port leaks mass into the
/// neighbouring block within a step or two, and with ε = 0.02 such a source
/// does not mix locally at all.
fn port_distance(g: &Graph) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.n()];
    let mut queue = std::collections::VecDeque::new();
    for b in 0..BLOCKS {
        for port in [b * BLOCK, b * BLOCK + BLOCK - 1] {
            dist[port] = 0;
            queue.push_back(port);
        }
    }
    while let Some(u) = queue.pop_front() {
        for v in g.neighbors(u) {
            if dist[v] == u32::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The hot set and the cold pool: distinct seeded sources at least
/// `SOURCE_PORT_DISTANCE` hops from every bridge port.
fn sources(seed: u64, port_dist: &[u32]) -> (Vec<usize>, Vec<usize>) {
    let mut rng = fork(seed, 2);
    let mut picked = Vec::new();
    while picked.len() < HOT + COLD {
        let s = rng.gen_range(0..N);
        if port_dist[s] >= SOURCE_PORT_DISTANCE && !picked.contains(&s) {
            picked.push(s);
        }
    }
    let cold = picked.split_off(HOT);
    (picked, cold)
}

/// The `i`-th query of a client. The mix is fixed — every fourth query
/// goes to the cold pool and the rest to the hot set, each taken in turn, and
/// `(β, ε)` cycles through all nine pairs — so runs differ in which sources
/// the seed drew, not in how much of each kind of work they do.
fn nth_query(i: u64, hot: &[usize], cold: &[usize]) -> TauQuery {
    let (round, slot) = ((i / 4) as usize, (i % 4) as usize);
    let source = if slot == 3 {
        cold[round % cold.len()]
    } else {
        hot[(3 * round + slot) % hot.len()]
    };
    let pair = (i % 9) as usize;
    TauQuery {
        source,
        beta: BETAS[pair / 3],
        eps: EPSS[pair % 3],
    }
}

/// A batch of degree-preserving 2-swaps inside blocks owned by `client`
/// (block `b` belongs to client `b % CLIENTS`). Clients edit disjoint edge
/// sets, so each one's own view of its blocks stays exact and every batch
/// applies whatever the other client did meanwhile. Ports and their
/// neighbours are never endpoints.
fn pick_swaps(
    view: &mut ChurnGraph,
    port_dist: &[u32],
    client: usize,
    rng: &mut SmallRng,
) -> Vec<EdgeEdit> {
    let mut batch = Vec::new();
    while batch.len() < 4 * SWAPS_PER_CHURN {
        let block = CLIENTS * rng.gen_range(0..BLOCKS / CLIENTS) + client;
        let lo = block * BLOCK;
        let g = view.topology();
        let edge = |rng: &mut SmallRng| {
            let u = lo + rng.gen_range(0..BLOCK);
            let inside: Vec<usize> = g
                .neighbors(u)
                .filter(|&v| v / BLOCK == block && port_dist[v] >= 2)
                .collect();
            (port_dist[u] >= 2 && !inside.is_empty())
                .then(|| (u, inside[rng.gen_range(0..inside.len())]))
        };
        let (Some((a, b)), Some((c, d))) = (edge(rng), edge(rng)) else {
            continue;
        };
        if a == c || a == d || b == c || b == d || g.has_edge(a, c) || g.has_edge(b, d) {
            continue;
        }
        let swap = [
            EdgeEdit::delete(a, b),
            EdgeEdit::delete(c, d),
            EdgeEdit::insert(a, c),
            EdgeEdit::insert(b, d),
        ];
        view.apply(&swap)
            .expect("swap chosen against the client's exact view");
        batch.extend_from_slice(&swap);
    }
    batch
}

/// One answered query: the graph versions bracketing its batch, so the
/// version it was answered at lies in `v0..=v1`.
struct Answered {
    query: TauQuery,
    v0: u64,
    v1: u64,
    result: Result<LocalMixResult, LocalMixError>,
}

struct Churned {
    version: u64,
    edits: Vec<EdgeEdit>,
}

#[derive(Default)]
struct ClientLog {
    answered: Vec<Answered>,
    churned: Vec<Churned>,
    query_latency_s: Vec<f64>,
    churn_latency_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// What every client of a run shares.
struct Load<'a> {
    seed: u64,
    base: &'a Graph,
    port_dist: &'a [u32],
    service: &'a TauService<ChurnGraph>,
    start: Instant,
    run_for: Duration,
}

fn client_loop(
    client: usize,
    load: &Load,
    submit: lmt_service::ServiceClient,
    tr: &mut Tracer,
) -> ClientLog {
    let Load {
        seed,
        base,
        port_dist,
        service,
        start,
        run_for,
    } = *load;
    let (hot, cold) = sources(seed, port_dist);
    let mut rng = fork(seed, 10 + client as u64);
    let mut view = ChurnGraph::new(base.clone());
    let mut log = ClientLog::default();
    let mut op = 0u64;
    // Offset the clients' query sequences so they do not ask the same
    // queries in lockstep.
    let mut sent = client as u64 * 5;
    while start.elapsed() < run_for {
        op += 1;
        let batch_id = Some(((client as u64) << 32) | op);
        if op.is_multiple_of(CHURN_EVERY) {
            let edits = pick_swaps(&mut view, port_dist, client, &mut rng);
            log.attempted += 1;
            let t0 = Instant::now();
            let outcome = tr.span("client.apply_churn", batch_id, || {
                service.apply_churn(&edits)
            });
            log.churn_latency_s.push(t0.elapsed().as_secs_f64());
            match outcome {
                Ok(o) => log.churned.push(Churned {
                    version: o.version,
                    edits,
                }),
                Err(e) => {
                    log.failed += 1;
                    eprintln!("service-ring: churn batch rejected: {e:?}");
                }
            }
        } else {
            let queries: Vec<TauQuery> = (0..BATCH)
                .map(|_| {
                    sent += 1;
                    nth_query(sent, &hot, &cold)
                })
                .collect();
            log.attempted += queries.len() as u64;
            let v0 = service.graph_version();
            let t0 = Instant::now();
            let reply = tr.span("client.submit_wait", batch_id, || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    submit.submit_wait(queries.clone())
                }))
            });
            let latency = t0.elapsed().as_secs_f64();
            let v1 = service.graph_version();
            match reply {
                Ok(answers) if answers.len() == queries.len() => {
                    for a in answers {
                        log.query_latency_s.push(latency);
                        log.answered.push(Answered {
                            query: a.query,
                            v0,
                            v1,
                            result: a.result,
                        });
                    }
                }
                _ => {
                    log.failed += queries.len() as u64;
                    eprintln!("service-ring: batch of {} lost its reply", queries.len());
                }
            }
        }
    }
    log
}

/// Check every answer against `local_mixing_time` on a mirror of the
/// topology at each version its batch could have seen. Returns the number of
/// answers (and churn-log defects) that fail, and the final mirror.
fn verify(base: &Graph, answered: &[Answered], churned: &mut [Churned]) -> (u64, ChurnGraph) {
    let opts_of = |q: &TauQuery| config().opts(q);
    churned.sort_by_key(|c| c.version);
    let mut mirror = ChurnGraph::new(base.clone());
    let mut verified = vec![false; answered.len()];
    for v in 0..=churned.len() as u64 {
        if v > 0 {
            let c = &churned[v as usize - 1];
            if c.version != v || mirror.apply(&c.edits).is_err() {
                eprintln!("service-ring: churn log breaks at version {v}");
                return (answered.len() as u64, mirror);
            }
        }
        let topo = mirror.topology();
        let mut memo: HashMap<(usize, u64, u64), Result<LocalMixResult, LocalMixError>> =
            HashMap::new();
        for (a, ok) in answered.iter().zip(verified.iter_mut()) {
            if *ok || v < a.v0 || v > a.v1 {
                continue;
            }
            let q = a.query;
            let want = memo
                .entry((q.source, q.beta.to_bits(), q.eps.to_bits()))
                .or_insert_with(|| local_mixing_time(topo, q.source, &opts_of(&q)));
            *ok = match (&a.result, want) {
                (Ok(got), Ok(w)) => same_answer(got, w.tau, &w.witness),
                _ => false,
            };
        }
    }
    let mut failed = 0;
    for (a, ok) in answered.iter().zip(&verified) {
        if !ok {
            failed += 1;
            eprintln!("service-ring: wrong answer {:?} -> {:?}", a.query, a.result);
        }
    }
    (failed, mirror)
}

pub fn run(args: &Args) -> Outcome {
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, 0, args.trace);

    // Set-up: graph generation plus service and worker construction, timed
    // SETUP_REPS times; the mirror copy of the base graph is not timed.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, w)) = built.take() {
            ServiceWorker::shutdown(w);
        }
        let t0 = Instant::now();
        let base = if args.trace {
            tr.span("graph.build", None, || build(args.seed))
        } else {
            build(args.seed)
        };
        let gen_s = t0.elapsed().as_secs_f64();
        let mirror = base.clone();
        let t1 = Instant::now();
        let service = Arc::new(TauService::with_config(ChurnGraph::new(base), config()));
        let worker = ServiceWorker::spawn(service);
        setups.push(gen_s + t1.elapsed().as_secs_f64());
        built = Some((mirror, worker));
    }
    let (base, worker) = built.expect("SETUP_REPS >= 1");
    let service = Arc::clone(worker.service());
    let port_dist = port_distance(&base);

    let load = Load {
        seed: args.seed,
        base: &base,
        port_dist: &port_dist,
        service: &service,
        start: Instant::now(),
        run_for: args.run_for,
    };
    let logs: Vec<(ClientLog, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let submit = worker.client();
                let load = &load;
                s.spawn(move || {
                    let mut tr = Tracer::new(origin, c + 1, args.trace);
                    let log = client_loop(c, load, submit, &mut tr);
                    (log, tr.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let timed_s = load.start.elapsed().as_secs_f64();
    let stats = service.stats();
    let cache_bytes = service.cache_bytes();
    drop(service);
    worker.shutdown();

    let mut attempted = 0;
    let mut failed = 0;
    let mut answered = Vec::new();
    let mut churned = Vec::new();
    let mut query_latency = Vec::new();
    let mut churn_latency = Vec::new();
    let mut client_spans = Vec::new();
    for (log, spans) in logs {
        attempted += log.attempted;
        failed += log.failed;
        answered.extend(log.answered);
        churned.extend(log.churned);
        query_latency.extend(log.query_latency_s);
        churn_latency.extend(log.churn_latency_s);
        client_spans.push(spans);
    }
    let (wrong, mirror) = verify(&base, &answered, &mut churned);
    failed += wrong;
    println!(
        "info queries={} churn_batches={} cache_hits={} evolutions={} setups_s={setups:.4?}",
        answered.len(),
        churned.len(),
        stats.cache_hits,
        stats.evolutions
    );
    if answered.is_empty() {
        failed += 1;
        eprintln!("service-ring: no query answered");
        return Outcome {
            attempted: attempted.max(1),
            failed,
            metrics: Vec::new(),
        };
    }

    let metrics = if args.trace {
        // One hot query re-driven layer by layer on the final topology.
        let (hot, _) = sources(args.seed, &port_dist);
        let q = TauQuery {
            source: hot[0],
            beta: BETAS[0],
            eps: EPSS[0],
        };
        let o = config().opts(&q);
        let topo = mirror.topology();
        let t0 = Instant::now();
        let want = local_mixing_time(topo, q.source, &o);
        let untraced_s = t0.elapsed().as_secs_f64();
        let mut counts = StagedCounts::default();
        let t1 = Instant::now();
        let got = staged(topo, q.source, &o, &mut tr, 0, &mut counts);
        let staged_s = t1.elapsed().as_secs_f64();
        attempted += 1;
        let faithful =
            matches!((&want, &got), (Ok(w), Ok((tau, wit))) if same_answer(w, *tau, wit));
        if !faithful {
            failed += 1;
            eprintln!(
                "service-ring: staged mirror drifted for source {}",
                q.source
            );
        }

        let mut parts = vec![tr.into_spans()];
        parts.extend(client_spans);
        let spans = trace::merge(parts);
        let summary = trace::summarize(&spans);
        let mut layer = BTreeMap::new();
        layer.insert("graph.build_s", trace::mean_s(&summary, "graph.build"));
        layer.insert(
            "graph.mem_bytes",
            ChurnGraph::new(base.clone()).memory_bytes() as f64,
        );
        walk_layer_metrics(&mut layer, &spans, &counts, 1);
        let queries = stats.queries.max(1) as f64;
        layer.insert("service.hit_ratio", stats.cache_hits as f64 / queries);
        layer.insert("service.evolutions", stats.evolutions as f64 / queries);
        layer.insert("service.resumes", stats.resumes as f64 / queries);
        layer.insert("service.engine_steps", stats.engine_steps as f64 / queries);
        let kept = stats.curves_retained + stats.curves_dropped;
        layer.insert(
            "service.retain_ratio",
            stats.curves_retained as f64 / kept.max(1) as f64,
        );
        layer.insert("service.cache_bytes", cache_bytes as f64);
        layer.insert(
            "service.submit_s",
            trace::mean_s(&summary, "client.submit_wait"),
        );
        layer.insert(
            "service.churn_s",
            trace::mean_s(&summary, "client.apply_churn"),
        );
        if !churn_latency.is_empty() {
            layer.insert("service.churn_p50_ms", median(&churn_latency) * 1e3);
        }
        layer.insert("trace.overhead_frac", staged_s / untraced_s - 1.0);
        crate::write_trace(args, &spans);
        crate::per_layer(&layer)
    } else {
        if !churn_latency.is_empty() {
            println!(
                "info churn_p50_ms={} (samples={})",
                median(&churn_latency) * 1e3,
                churn_latency.len()
            );
        }
        crate::end_to_end(&query_latency, timed_s, &setups)
    };
    Outcome {
        attempted,
        failed,
        metrics,
    }
}
