//! Churn experiment — mixing degradation and recovery while the β-barbell
//! bridge flaps, measured through the τ-service's incremental cache.
//!
//! Workload: the paper's β-barbell (Figure 1) at β = 8 cliques of k = 8,
//! served by a [`TauService`] over a [`ChurnGraph`]. The bridge between
//! cliques 0 and 1 flaps — alternately deleted and reinserted through
//! [`TauService::apply_churn`] — and after every batch the service
//! re-answers one query per clique. Three things are recorded per batch:
//!
//! * **cache survival** — how many of the 8 cached curves the
//!   support-aware invalidation kept (sources whose walk support never
//!   reached the flapping bridge's endpoints survive; the two cliques
//!   adjacent to the bridge recompute),
//! * **post-churn τ** — max over the per-clique sources; deleting the
//!   bridge severs clique 0, and local mixing *still resolves* (the walk
//!   mixes inside its own clique — §2.3(d)'s point, now under churn),
//! * **replay cost** — wall-clock of re-answering the batch from the
//!   post-churn cache.
//!
//! Every post-churn answer, and the first timed replay of it, is checked
//! bit-identical to a fresh oracle on an independently maintained mirror
//! of the churned topology — the experiment is its own differential
//! harness, and exits 1 on any divergence.
//! Emits `BENCH_churn.json`. 1-CPU container wall clocks: compare shapes,
//! not absolute times, across hosts.

use lmt_bench::record::{bench_dir, BenchRecord, Cell};
use lmt_bench::{same_result, timing};
use lmt_graph::props::bipartition;
use lmt_graph::{gen, ChurnGraph, EdgeEdit, WalkGraph};
use lmt_service::{ServiceConfig, TauQuery, TauService};
use lmt_util::table::Table;
use lmt_walks::local::{local_mixing_time, FlatPolicy, LocalMixOptions, SizeGrid};
use lmt_walks::WalkKind;

/// Cliques in the barbell (the paper's β).
const BETA: usize = 8;
/// Clique size k; n = β·k = 64.
const K: usize = 8;
/// Flap batches: even batches delete the bridge, odd ones reinsert it.
const FLAPS: usize = 6;
/// Accuracy. Loose enough that τ stays well under the clique-path
/// diameter, so distant cliques' supports provably miss the bridge.
const EPS: f64 = 0.25;
/// Replay reps timed per batch.
const REPS: usize = 3;

fn main() {
    let (g, spec) = gen::barbell(BETA, K);
    let bridge = (spec.right_port(0), spec.left_port(1));
    // Cliques are complete, so the barbell is non-bipartite and the simple
    // walk converges; assert rather than assume.
    assert!(bipartition(&g).is_none(), "barbell must be non-bipartite");
    let kind = WalkKind::Simple;
    let config = ServiceConfig {
        kind,
        max_t: 100_000,
        grid: SizeGrid::Geometric,
        // Barbell bridge ports have degree k (everyone else k−1): not
        // regular, so use the paper's loose flat treatment.
        flat_policy: FlatPolicy::AssumeFlat,
        ..ServiceConfig::default()
    };
    let mut opts = LocalMixOptions::new(BETA as f64);
    opts.eps = EPS;
    opts.grid = config.grid;
    opts.kind = kind;
    opts.max_t = config.max_t;
    opts.flat_policy = config.flat_policy;

    // One query per clique, at an interior (non-port) node.
    let queries: Vec<TauQuery> = (0..BETA)
        .map(|i| TauQuery {
            source: spec.clique_nodes(i).start + 3,
            beta: BETA as f64,
            eps: EPS,
        })
        .collect();

    let service = TauService::with_config(ChurnGraph::new(g.clone()), config);
    let mut mirror = ChurnGraph::new(g);
    let warm = service.submit_batch(&queries);
    assert!(
        warm.iter().all(|a| a.result.is_ok()),
        "warm-up on the intact barbell must resolve every source"
    );
    eprintln!(
        "exp_churn: barbell(beta={BETA},k={K}), bridge {:?} flapping {FLAPS}x, \
         {} sources warm",
        bridge,
        queries.len()
    );

    let mut table = Table::new(
        "bridge flap: cache survival, post-churn τ, replay cost".to_string(),
        &[
            "batch",
            "edit",
            "retained",
            "dropped",
            "survival",
            "τ (max)",
            "evolutions",
            "replay ms",
        ],
    );
    let mut record = BenchRecord::new("churn");
    let mut all_ok = true;
    for flap in 0..FLAPS {
        let (edit, label) = if flap % 2 == 0 {
            (
                EdgeEdit::delete(bridge.0, bridge.1),
                format!("del({},{})", bridge.0, bridge.1),
            )
        } else {
            (
                EdgeEdit::insert(bridge.0, bridge.1),
                format!("ins({},{})", bridge.0, bridge.1),
            )
        };
        let outcome = service
            .apply_churn(std::slice::from_ref(&edit))
            .expect("bridge flaps are valid edits by construction");
        mirror
            .apply(std::slice::from_ref(&edit))
            .expect("mirror replays the same edit");

        let post = service.submit_batch(&queries);
        // Differential net: every post-churn answer must be bit-identical
        // to a fresh oracle run on the mirrored post-churn topology, and
        // the first timed replay must carry the same answers.
        for a in &post {
            let fresh = local_mixing_time(mirror.topology(), a.query.source, &opts);
            if !same_result(&a.result, &fresh) {
                eprintln!(
                    "exp_churn: batch {flap} src {} diverged from the oracle",
                    a.query.source
                );
                all_ok = false;
            }
        }
        let (replay, samples) = timing::time_reps_ms(REPS, || service.submit_batch(&queries));
        if replay.len() != post.len()
            || replay
                .iter()
                .zip(&post)
                .any(|(r, p)| !same_result(&r.result, &p.result))
        {
            eprintln!("exp_churn: batch {flap} replay diverged from the post-churn batch");
            all_ok = false;
        }

        let tau = post
            .iter()
            .map(|a| a.result.as_ref().ok().map(|r| r.tau as u64))
            .collect::<Option<Vec<u64>>>()
            .and_then(|t| t.into_iter().max());
        let timing = timing::summarize(&samples);
        let stats = service.stats();
        let survival = outcome.retained as f64 / (outcome.retained + outcome.dropped) as f64;
        table.row(&[
            (flap + 1).to_string(),
            label.clone(),
            outcome.retained.to_string(),
            outcome.dropped.to_string(),
            format!("{:.0}%", 100.0 * survival),
            tau.map_or("-".into(), |t| t.to_string()),
            stats.evolutions.to_string(),
            timing.map_or("-".into(), |s| format!("{:.3}", s.median_ms)),
        ]);
        let churn_label = format!("flap(batch={},{label})", flap + 1);
        record.cells.push(Cell {
            scenario: format!(
                "g=barbell(beta={BETA},k={K})|w=unit|beta={BETA}|eps={EPS}\
                 |engine=service_warm|churn={churn_label}|threads=1"
            ),
            graph: format!("barbell(beta={BETA},k={K})"),
            weighting: "unit".into(),
            beta: BETA as f64,
            eps: EPS,
            engine: "service_warm".into(),
            fault: "none".into(),
            churn: churn_label,
            threads: 1,
            tau,
            mem_bytes: Some(mirror.memory_bytes() as u64),
            timing,
        });
    }
    print!("{}", table.render());
    let stats = service.stats();
    println!(
        "totals: {} churn batches, {} curves retained, {} dropped, {} evolutions.",
        stats.churn_batches, stats.curves_retained, stats.curves_dropped, stats.evolutions
    );
    println!("every post-churn answer asserted bit-identical to a fresh oracle on the mirrored topology.");
    if !all_ok {
        eprintln!("exp_churn: differential harness FAILED (see above)");
        std::process::exit(1);
    }

    match record.write_to(&bench_dir()) {
        Ok(path) => println!("record: {}", path.display()),
        Err(e) => {
            eprintln!("exp_churn: cannot write record: {e}");
            std::process::exit(2);
        }
    }
}
