//! Differential property suite for the τ-service layer (PR 8).
//!
//! The `lmt-service` contract is *bit-identity*: every answer the service
//! produces — cold cache, warm cache, resumed curve, mid-batch mix of
//! cached and fresh sources — equals a fresh
//! [`local_mixing_time`] oracle call with the same options, witness bits
//! included. This suite pins that contract differentially on random
//! regular graphs and weighted decorations, and pins the invariances the
//! architecture promises: answers do not depend on arrival order, batch
//! boundaries, or duplicate queries.
//!
//! Digests render the witness `l1` through `f64::to_bits`, so "equal"
//! here means equal to the last mantissa bit, not approximately.

use local_mixing_repro::prelude::*;
use proptest::prelude::*;

/// Query grid used by the property tests: moderate and tight (β, ε) pairs.
const BETAS: [f64; 3] = [1.5, 2.0, 4.0];
const EPSILONS: [f64; 3] = [0.05, 0.1, 0.3];

/// Property-test config: lazy walks (well-defined on the bipartite
/// even-cycle cases `random_regular` produces at d = 2, where a simple
/// walk never mixes) and a modest cap so a capped verdict costs thousands
/// of steps, not the default 2²⁰.
fn test_cfg() -> ServiceConfig {
    ServiceConfig {
        kind: WalkKind::Lazy,
        max_t: 20_000,
        ..ServiceConfig::default()
    }
}

/// Bit-faithful digest of one answer (l1 via `to_bits`).
fn digest(a: &TauAnswer) -> String {
    match &a.result {
        Ok(r) => format!(
            "tau={} size={} l1={:016x} nodes={:?}",
            r.tau,
            r.witness.size,
            r.witness.l1.to_bits(),
            r.witness.nodes
        ),
        Err(e) => format!("err={e:?}"),
    }
}

/// A fresh oracle call for `q` under the service's own options — the
/// reference every service answer must equal.
fn oracle<G: WalkGraph>(g: &G, cfg: &ServiceConfig, q: &TauQuery) -> TauAnswer {
    TauAnswer {
        query: *q,
        result: local_mixing_time(g, q.source, &cfg.opts(q)),
    }
}

/// Assert every answer is bit-identical to its fresh-oracle reference.
fn assert_matches_oracle<G: WalkGraph>(g: &G, cfg: &ServiceConfig, answers: &[TauAnswer]) {
    for a in answers {
        assert_eq!(
            digest(a),
            digest(&oracle(g, cfg, &a.query)),
            "service answer diverged from the oracle for {:?}",
            a.query
        );
    }
}

/// Build a query list from proptest-chosen indices.
fn make_queries(n: usize, picks: &[(usize, usize, usize)]) -> Vec<TauQuery> {
    picks
        .iter()
        .map(|&(s, b, e)| TauQuery {
            source: s % n,
            beta: BETAS[b % BETAS.len()],
            eps: EPSILONS[e % EPSILONS.len()],
        })
        .collect()
}

proptest! {
    // Each case runs the oracle once per (query × regime); keep cases low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cold batch, warm replay, and a mid-batch mix of cached + fresh
    /// sources: all bit-identical to the fresh oracle.
    #[test]
    fn service_answers_equal_oracle_cold_warm_midbatch(
        (n, d, seed) in (5usize..16, 1usize..3, any::<u64>())
            .prop_map(|(h, hd, s)| (2 * h, 2 * hd, s)),
        picks in proptest::collection::vec(
            (0usize..64, 0usize..3, 0usize..3), 1..6),
        fresh_src in 0usize..64,
    ) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let queries = make_queries(n, &picks);
        let service = TauService::with_config(g.clone(), test_cfg());
        let cfg = *service.config();

        // Cold: every source evolves from scratch.
        let cold = service.submit_batch(&queries);
        assert_matches_oracle(&g, &cfg, &cold);

        // Warm: the same batch replays purely from cache — same bits.
        let warm = service.submit_batch(&queries);
        for (c, w) in cold.iter().zip(&warm) {
            prop_assert!(digest(c) == digest(w), "warm != cold for {:?}", c.query);
        }

        // Mid-batch: cached sources and a (likely) fresh one share a
        // batch; a tighter ε than anything cached forces a resume.
        let mut mixed = queries.clone();
        mixed.push(TauQuery { source: fresh_src % n, beta: 4.0, eps: 0.05 });
        mixed.push(TauQuery { source: queries[0].source, beta: 1.5, eps: 0.05 });
        let answers = service.submit_batch(&mixed);
        assert_matches_oracle(&g, &cfg, &answers);
    }

    /// Answers are a function of the query alone: arrival order, batch
    /// boundaries, and duplicates cannot change a single bit.
    #[test]
    fn service_invariant_to_order_batching_duplicates(
        (n, d, seed) in (5usize..16, 1usize..3, any::<u64>())
            .prop_map(|(h, hd, s)| (2 * h, 2 * hd, s)),
        picks in proptest::collection::vec(
            (0usize..64, 0usize..3, 0usize..3), 2..6),
    ) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let queries = make_queries(n, &picks);
        let cfg = test_cfg();

        // Reference: one fresh service, queries in given order, one batch.
        let reference: Vec<String> = TauService::with_config(g.clone(), cfg)
            .submit_batch(&queries)
            .iter()
            .map(digest)
            .collect();

        // Reversed arrival order (fresh service).
        let reversed: Vec<TauQuery> = queries.iter().rev().copied().collect();
        let rev_digests: Vec<String> = TauService::with_config(g.clone(), cfg)
            .submit_batch(&reversed)
            .iter()
            .rev()
            .map(digest)
            .collect();
        prop_assert!(reference == rev_digests, "arrival order changed answers");

        // One query per batch (fresh service): batch boundaries are
        // invisible.
        let solo_service = TauService::with_config(g.clone(), cfg);
        let solo: Vec<String> = queries
            .iter()
            .map(|q| digest(&solo_service.submit_batch(&[*q])[0]))
            .collect();
        prop_assert!(reference == solo, "batch splitting changed answers");

        // Duplicates inside one batch: both copies answer identically.
        let mut doubled = queries.clone();
        doubled.extend(queries.iter().copied());
        let dup = TauService::with_config(g.clone(), cfg).submit_batch(&doubled);
        for (i, q) in queries.iter().enumerate() {
            prop_assert!(
                digest(&dup[i]) == digest(&dup[i + queries.len()]),
                "duplicate copies of {:?} disagree", q
            );
            prop_assert_eq!(digest(&dup[i]), reference[i].clone());
        }

        // And everything above is still the oracle's answer.
        assert_matches_oracle(&g, &cfg, &dup);
    }

    /// Weighted graphs ride the same `WalkGraph` seam: uniform weights
    /// (still regular-flat) under the default policy, random weights under
    /// the paper's loose `AssumeFlat` treatment — service ≡ oracle either
    /// way.
    #[test]
    fn service_equals_oracle_on_weighted_graphs(
        (n, d, seed) in (5usize..12, 1usize..3, any::<u64>())
            .prop_map(|(h, hd, s)| (2 * h, 2 * hd, s)),
        picks in proptest::collection::vec(
            (0usize..64, 0usize..3, 0usize..3), 1..4),
    ) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let queries = make_queries(n, &picks);

        // Uniform weights: stationary is still flat, default policy holds.
        let wg = gen::weighted::uniform_weights(g.clone(), 2.5);
        let service = TauService::with_config(wg.clone(), test_cfg());
        let cfg = *service.config();
        assert_matches_oracle(&wg, &cfg, &service.submit_batch(&queries));
        assert_matches_oracle(&wg, &cfg, &service.submit_batch(&queries)); // warm

        // Random weights: not regular — the strict default policy must
        // reject exactly like the oracle, and AssumeFlat must answer
        // exactly like the oracle.
        let rg = gen::weighted::random_weights(g.clone(), 0.25, 4.0, seed ^ 0x9E);
        let strict = TauService::with_config(rg.clone(), test_cfg());
        let strict_cfg = *strict.config();
        for a in strict.submit_batch(&queries) {
            prop_assert!(
                digest(&a) == digest(&oracle(&rg, &strict_cfg, &a.query)),
                "strict-policy divergence for {:?}", a.query
            );
            prop_assert!(matches!(a.result, Err(LocalMixError::NotRegular)));
        }
        let flat_cfg = ServiceConfig {
            flat_policy: FlatPolicy::AssumeFlat,
            ..test_cfg()
        };
        let flat = TauService::with_config(rg.clone(), flat_cfg);
        assert_matches_oracle(&rg, &flat_cfg, &flat.submit_batch(&queries));
    }
}

/// Profile reuse (satellite 3): one evolution answers the entire (β, ε)
/// grid for a source — every grid answer equals a fresh per-pair oracle
/// call, and the service pays exactly one evolution for all of them.
#[test]
fn one_evolution_answers_full_grid_like_per_pair_oracles() {
    let (g, _) = gen::ring_of_cliques_regular(4, 8);
    let source = 5;
    let grid: Vec<TauQuery> = BETAS
        .iter()
        .flat_map(|&beta| EPSILONS.iter().map(move |&eps| TauQuery { source, beta, eps }))
        .collect();

    let service = TauService::new(g.clone());
    let cfg = *service.config();

    // The whole grid in one batch: phase A records p0, phase B extends the
    // single curve far enough for the tightest pair.
    let answers = service.submit_batch(&grid);
    assert_matches_oracle(&g, &cfg, &answers);
    assert_eq!(
        service.stats().evolutions,
        1,
        "the grid must share one evolution"
    );

    // Re-asking pair by pair is pure replay: same bits, still one
    // evolution, and every query after the first batch is a cache hit.
    for q in &grid {
        let again = service.submit_batch(&[*q]);
        assert_matches_oracle(&g, &cfg, &again);
    }
    assert_eq!(service.stats().evolutions, 1);
    assert_eq!(service.stats().cache_hits as usize, grid.len());
}

/// The cap verdict is cached and replayed like any other answer:
/// `NotMixedWithin(max_t)` from the service matches the oracle bit-for-bit
/// cold and warm, and a later, looser query on the same curve still
/// resolves.
#[test]
fn capped_queries_match_oracle_and_stay_cached() {
    let (g, _) = gen::ring_of_cliques_regular(4, 8);
    let cfg = ServiceConfig {
        max_t: 3, // far below τ for the tight pair on this family
        ..ServiceConfig::default()
    };
    let service = TauService::with_config(g.clone(), cfg);
    let tight = TauQuery { source: 2, beta: 4.0, eps: 0.05 };

    let cold = service.submit_batch(&[tight]);
    assert_matches_oracle(&g, &cfg, &cold);
    assert!(matches!(
        cold[0].result,
        Err(LocalMixError::NotMixedWithin(3))
    ));
    let warm = service.submit_batch(&[tight]);
    assert_eq!(digest(&cold[0]), digest(&warm[0]));

    // A pair loose enough to resolve within the same 3-step curve.
    let loose = TauQuery { source: 2, beta: 1.0, eps: 0.9 };
    assert_matches_oracle(&g, &cfg, &service.submit_batch(&[loose]));
}

// ---------------------------------------------------------------------------
// Churn (PR 10): the differential harness for support-aware invalidation.
// After `apply_churn`, every answer the service produces — replayed from a
// retained curve, recomputed for a dropped one, or cold — must be
// bit-identical to a fresh oracle call on the post-churn topology. A local
// mirror `ChurnGraph` replays the same edits to produce that topology.
// ---------------------------------------------------------------------------

/// BFS hop distances from `src` (usize::MAX for unreachable).
fn bfs_dist(g: &Graph, src: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    dist[src] = 0;
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for v in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

proptest! {
    // Each case warms a service, churns it twice, and re-oracles every
    // query on the post-churn graph; keep cases low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Post-churn bit-identity, differentially: warm cache → seeded edit
    /// batches through `apply_churn` → every answer (retained replay,
    /// dropped recompute, cold source) equals a fresh oracle on the
    /// post-churn topology.
    #[test]
    fn churned_service_equals_fresh_oracle_on_post_churn_graph(
        (n, d, seed) in (5usize..16, 1usize..3, any::<u64>())
            .prop_map(|(h, hd, s)| (2 * h, 2 * hd, s)),
        picks in proptest::collection::vec(
            (0usize..64, 0usize..3, 0usize..3), 1..5),
        churn_seed in any::<u64>(),
    ) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let queries = make_queries(n, &picks);
        let service = TauService::with_config(ChurnGraph::new(g.clone()), test_cfg());
        let cfg = *service.config();

        // Warm the cache on the pre-churn graph.
        let _ = service.submit_batch(&queries);
        let sources_cached = service.cached_sources();

        // Seeded degree-preserving swap batches (regular graphs stay
        // regular, so the service keeps answering rather than returning
        // `NotRegular`), mirrored locally so the test can build the
        // post-churn reference topology without peeking at service state.
        let mut mirror = ChurnGraph::new(g.clone());
        let mut swaps = SwapDrawer::new(churn_seed);
        for _ in 0..2 {
            if let Some(edits) = swaps.draw(mirror.topology()) {
                let outcome = service.apply_churn(&edits).unwrap();
                mirror.apply(&edits).unwrap();
                prop_assert!(outcome.retained + outcome.dropped <= sources_cached);
            }
        }
        let post = mirror.topology().clone();

        // Retained + dropped + a cold source, all in one batch: every
        // answer must be a fresh post-churn oracle answer, to the bit.
        let mut all = queries.clone();
        all.push(TauQuery { source: n / 2, beta: 4.0, eps: 0.05 });
        let answers = service.submit_batch(&all);
        assert_matches_oracle(&post, &cfg, &answers);
    }
}

/// The headline churn scenario, deterministically: a curve whose support a
/// distant edit batch provably cannot touch **survives** `apply_churn`
/// (strictly positive retained count, visible in [`ServiceStats`]), answers
/// by replay (no new evolution), and still matches a fresh oracle on the
/// post-churn graph; an edit at the source then drops it and forces a
/// recompute that also matches.
#[test]
fn churn_retains_distant_curves_and_recomputes_touched_ones() {
    let (g0, _) = gen::ring_of_cliques_regular(8, 8);
    let service = TauService::with_config(ChurnGraph::new(g0.clone()), test_cfg());
    let cfg = *service.config();
    let q = TauQuery { source: 0, beta: 8.0, eps: 0.3 };
    let first = service.submit_batch(&[q]);
    let tau = first[0].result.as_ref().unwrap().tau;

    // The curve recorded steps 0..=τ, so its support sits inside the
    // radius-τ BFS ball around the source; any edit strictly outside the
    // radius-(τ+1) ball is support-disjoint by construction.
    let dist = bfs_dist(&g0, q.source);
    let far_edges: Vec<(usize, usize)> = g0
        .edges()
        .filter(|&(u, v)| dist[u] > tau + 1 && dist[v] > tau + 1)
        .collect();
    let swap = far_edges
        .iter()
        .enumerate()
        .find_map(|(i, &(a, b))| {
            far_edges[i + 1..].iter().find_map(|&(c, d)| {
                (a != c && a != d && b != c && b != d
                    && !g0.has_edge(a, c)
                    && !g0.has_edge(b, d))
                .then(|| {
                    [
                        EdgeEdit::delete(a, b),
                        EdgeEdit::delete(c, d),
                        EdgeEdit::insert(a, c),
                        EdgeEdit::insert(b, d),
                    ]
                })
            })
        })
        .expect("a swap beyond the support radius exists on this family");

    let outcome = service.apply_churn(&swap).unwrap();
    assert_eq!((outcome.retained, outcome.dropped), (1, 0));
    assert!(service.stats().curves_retained >= 1, "retained count must show in stats");

    let mut mirror = ChurnGraph::new(g0.clone());
    mirror.apply(&swap).unwrap();
    let replayed = service.submit_batch(&[q]);
    assert_matches_oracle(&mirror.topology().clone(), &cfg, &replayed);
    assert_eq!(service.stats().evolutions, 1, "retained curve answers by replay");
    assert_eq!(service.stats().cache_hits, 1);

    // Now hit the source itself: the curve must drop and recompute.
    let b = g0.neighbors(0).next().unwrap();
    let post0 = mirror.topology().clone();
    let far2: Vec<(usize, usize)> = post0
        .edges()
        .filter(|&(u, v)| dist[u] > tau + 1 && dist[v] > tau + 1 && u != b && v != b)
        .collect();
    let (x, y) = *far2
        .iter()
        .find(|&&(x, y)| !post0.has_edge(0, x) && !post0.has_edge(b, y) && x != b && y != b)
        .expect("a distant partner edge exists");
    let near_swap = [
        EdgeEdit::delete(0, b),
        EdgeEdit::delete(x, y),
        EdgeEdit::insert(0, x),
        EdgeEdit::insert(b, y),
    ];
    let outcome = service.apply_churn(&near_swap).unwrap();
    assert_eq!((outcome.retained, outcome.dropped), (0, 1));
    mirror.apply(&near_swap).unwrap();
    let recomputed = service.submit_batch(&[q]);
    assert_matches_oracle(&mirror.topology().clone(), &cfg, &recomputed);
    assert_eq!(service.stats().evolutions, 2, "dropped curve re-evolves");
}
