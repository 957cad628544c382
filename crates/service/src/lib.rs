//! # lmt-service
//!
//! τ-as-a-service: a long-lived, library-first query layer answering local
//! mixing time queries `(source, β, ε)` over a shared graph — the serving
//! tier the ROADMAP's "millions of queries" north star calls for, built
//! directly on the `lmt-walks` oracle stack.
//!
//! Three ideas, stacked:
//!
//! 1. **One evolution answers the whole curve.** The expensive part of
//!    `τ_s(β, ε)` is the walk evolution `p_0, p_1, …` from source `s`,
//!    which does not depend on `(β, ε)` at all; the per-step witness check
//!    is a cheap scan. The service records each source's evolution as a
//!    [`SourceCurve`] — value-sorted
//!    per-step snapshots — so every subsequent `(β, ε)` query for `s` is
//!    answered from cache by replaying the stored snapshots through the
//!    same [`WitnessScratch`] scan the
//!    oracle runs. Curves are resumable: a query needing more steps than
//!    recorded restarts the engine from the stored distribution.
//! 2. **Distinct sources coalesce into blocks.** Pending sources of a batch
//!    advance together in [`BlockEvolution`] blocks of up to
//!    [`SWEEP_BLOCK`] columns — one shared CSR sweep per step for the whole
//!    block, exactly like the graph-wide sweep
//!    (`lmt_walks::local::graph_local_mixing_time`).
//! 3. **Answers are bit-for-bit the oracle's.** Engine lanes are
//!    bit-identical to solo runs, sorted snapshots are pure functions of
//!    the distribution, and the replay runs the identical scan — so every
//!    answer (cold, warm, or resumed) equals a fresh
//!    [`local_mixing_time`](lmt_walks::local::local_mixing_time) call with
//!    the same options, witness bits included. `tests/service.rs` holds the
//!    differential harness that pins this.
//!
//! The cache is keyed by `(source, graph_version)`:
//! [`TauService::replace_graph`] bumps the version and invalidates every
//! curve. For **dynamic graphs** there is a finer path:
//! [`TauService::apply_churn`] (available when the graph is a
//! [`ChurnGraph`]) applies an edge-edit batch in place and performs **support-aware incremental invalidation**
//! — every cached [`SourceCurve`] carries its exact cumulative support
//! (`∪_t supp(p_t)`), and a curve is *retained* iff no edited endpoint
//! lies in that support. Retention is sound to the bit: such a curve's
//! every recorded inflow term came from a node whose adjacency row and
//! degree are unchanged, and all other terms were `+0.0`, so each recorded
//! `p_t` equals what a fresh evolution on the post-churn graph would
//! produce — retained, recomputed, and cold answers are all bit-identical
//! to a fresh oracle call on the post-churn graph (`tests/service.rs`
//! churn harness).
//!
//! Concurrency: [`TauService::submit_batch`] is `&self` and thread-safe
//! (graph behind an `RwLock`, cache behind a `Mutex`; batches serialize,
//! and the engine inside a batch still uses the rayon pool). For streaming
//! use, [`ServiceWorker::spawn`] runs a dedicated worker loop that
//! coalesces concurrently submitted jobs into shared batches; any number of
//! cloneable [`ServiceClient`]s can submit from other threads.
//!
//! Robustness: queries are validated (panicking, with the oracle's own
//! messages) **before** the state mutex is acquired, so a rejected query
//! can never poison the cache lock; the accessors additionally recover
//! poisoned locks defensively instead of propagating the poison (state
//! mutations are append-only snapshots, valid at every unwind point). An
//! optional per-batch [`ServiceConfig::step_budget`] bounds the engine
//! work of one `submit_batch` call, resolving still-pending queries with a
//! graceful [`LocalMixError::NotMixedWithin`] at the horizon actually
//! explored — progress is kept in the cache, so retries resume instead of
//! restarting.
//!
//! ```
//! use lmt_graph::gen;
//! use lmt_service::{TauQuery, TauService};
//!
//! let (g, _) = gen::ring_of_cliques_regular(4, 8);
//! let service = TauService::new(g);
//! let answers = service.submit_batch(&[
//!     TauQuery { source: 3, beta: 4.0, eps: 0.05 },
//!     TauQuery { source: 17, beta: 4.0, eps: 0.05 },
//! ]);
//! let tau = answers[0].result.as_ref().unwrap().tau;
//! // A repeat query for source 3 is a pure cache replay — same bits.
//! let again = service.submit_batch(&[TauQuery { source: 3, beta: 4.0, eps: 0.05 }]);
//! assert_eq!(again[0].result.as_ref().unwrap().tau, tau);
//! assert_eq!(service.stats().cache_hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, PoisonError, RwLock};

use lmt_graph::{ChurnError, ChurnGraph, EdgeEdit, WalkGraph};
use lmt_walks::engine::BlockEvolution;
use lmt_walks::local::{
    size_grid, FlatPolicy, LocalMixError, LocalMixOptions, LocalMixResult, SizeGrid,
    WitnessScratch,
};
use lmt_walks::mixing::SWEEP_BLOCK;
use lmt_walks::profile::SourceCurve;
use lmt_walks::WalkKind;

mod worker;
pub use worker::{ServiceClient, ServiceWorker};

/// One local-mixing-time query: `τ_source(β, ε)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TauQuery {
    /// Source node `s`.
    pub source: usize,
    /// Set-size parameter `β ≥ 1`.
    pub beta: f64,
    /// Accuracy `ε ∈ (0, 1)`.
    pub eps: f64,
}

/// A query together with its oracle-identical result.
#[derive(Clone, Debug)]
pub struct TauAnswer {
    /// The query this answers.
    pub query: TauQuery,
    /// Exactly what [`lmt_walks::local::local_mixing_time`] returns for
    /// this query under the service's [`ServiceConfig`] — bit-for-bit,
    /// witness included.
    pub result: Result<LocalMixResult, LocalMixError>,
}

/// The per-service options shared by every query (the query itself carries
/// only `(source, β, ε)`). Mirrors the non-query fields of
/// [`LocalMixOptions`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Walk kind (lazy recommended on bipartite families).
    pub kind: WalkKind,
    /// Upper bound on steps before a query returns
    /// [`LocalMixError::NotMixedWithin`].
    pub max_t: usize,
    /// Which set sizes the witness check inspects.
    pub grid: SizeGrid,
    /// Enforce `s ∈ S` (Definition 2) or allow any set (Algorithm 2's view).
    pub require_source: bool,
    /// Regularity handling (see [`FlatPolicy`]).
    pub flat_policy: FlatPolicy,
    /// Optional per-batch engine-step budget. `None` (the default) lets a
    /// batch run to `max_t` — the oracle-bit-identity regime. `Some(b)`
    /// caps one [`TauService::submit_batch`] call at `b` engine steps:
    /// queries still pending when the budget runs out resolve gracefully
    /// with [`LocalMixError::NotMixedWithin`]`(t)` at the horizon `t`
    /// actually recorded for their source (a liveness guard under
    /// adversarial churn, **not** an oracle-identical answer — the oracle
    /// has no budget). Recorded progress stays cached, so a retried query
    /// resumes where the budget cut it off and converges to the oracle's
    /// answer across retries.
    pub step_budget: Option<u64>,
}

impl Default for ServiceConfig {
    /// The defaults of [`LocalMixOptions::new`] minus the query fields.
    fn default() -> Self {
        let o = LocalMixOptions::new(1.0);
        ServiceConfig {
            kind: o.kind,
            max_t: o.max_t,
            grid: o.grid,
            require_source: o.require_source,
            flat_policy: o.flat_policy,
            step_budget: None,
        }
    }
}

impl ServiceConfig {
    /// The exact oracle options a query resolves to under this config.
    pub fn opts(&self, q: &TauQuery) -> LocalMixOptions {
        LocalMixOptions {
            beta: q.beta,
            eps: q.eps,
            kind: self.kind,
            max_t: self.max_t,
            grid: self.grid,
            require_source: self.require_source,
            flat_policy: self.flat_policy,
        }
    }
}

/// Monotonic counters describing the work the service has done. Counters
/// only — answers carry no cache metadata, so cold and warm answers are
/// indistinguishable (and bit-identical).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries received by [`TauService::submit_batch`].
    pub queries: u64,
    /// Queries answered purely from snapshots recorded before their batch.
    pub cache_hits: u64,
    /// Fresh evolutions started (first time a source is seen).
    pub evolutions: u64,
    /// Cached curves resumed past their recorded horizon.
    pub resumes: u64,
    /// Coalesced [`BlockEvolution`] blocks run.
    pub blocks: u64,
    /// Engine steps taken (one shared CSR sweep each).
    pub engine_steps: u64,
    /// Churn batches applied via [`TauService::apply_churn`].
    pub churn_batches: u64,
    /// Cached curves kept across churn batches (support never touched an
    /// edited endpoint — the work incremental invalidation saves).
    pub curves_retained: u64,
    /// Cached curves dropped by churn batches (support touched an edit).
    pub curves_dropped: u64,
    /// Queries resolved by a [`ServiceConfig::step_budget`] cut-off rather
    /// than a witness or the `max_t` cap.
    pub budget_truncations: u64,
}

/// Mutable state behind the service lock: the per-source curve cache plus
/// the shared scratch buffers, all tied to one graph version.
struct State {
    /// Graph version the cache entries belong to.
    version: u64,
    cache: HashMap<usize, SourceCurve>,
    scratch: WitnessScratch,
    /// Lane copy-out buffer (length `n`).
    lane: Vec<f64>,
    stats: ServiceStats,
}

struct VersionedGraph<G> {
    g: G,
    version: u64,
}

/// What one [`TauService::apply_churn`] call did to the graph and cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnOutcome {
    /// The graph version after the batch (each batch bumps it once).
    pub version: u64,
    /// Curves kept: their support never touched an edited endpoint, so
    /// every recorded snapshot is still bit-exact on the new graph.
    pub retained: usize,
    /// Curves dropped and recomputed on next demand.
    pub dropped: usize,
}

/// The τ query service. See the [crate docs](crate) for the architecture
/// and the bit-identity contract.
pub struct TauService<G: WalkGraph> {
    graph: RwLock<VersionedGraph<G>>,
    state: Mutex<State>,
    config: ServiceConfig,
}

impl<G: WalkGraph> TauService<G> {
    /// A service over `graph` with the default [`ServiceConfig`].
    pub fn new(graph: G) -> Self {
        Self::with_config(graph, ServiceConfig::default())
    }

    /// A service over `graph` with an explicit config.
    pub fn with_config(graph: G, config: ServiceConfig) -> Self {
        let n = graph.n();
        TauService {
            graph: RwLock::new(VersionedGraph {
                g: graph,
                version: 0,
            }),
            state: Mutex::new(State {
                version: 0,
                cache: HashMap::new(),
                scratch: WitnessScratch::new(n),
                lane: vec![0.0; n],
                stats: ServiceStats::default(),
            }),
            config,
        }
    }

    /// The service's per-query options template.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Acquire the state mutex, recovering a poisoned lock. Safe to
    /// recover: every mutation of [`State`] keeps it structurally valid at
    /// each unwind point — curves grow by whole recorded snapshots, the
    /// cache holds only complete entries, and query validation happens
    /// before the lock is even taken — so a panic mid-batch (itself made
    /// unreachable for caller errors by pre-validation) cannot leave a
    /// half-written cache behind the poison marker.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn read_graph(&self) -> std::sync::RwLockReadGuard<'_, VersionedGraph<G>> {
        self.graph.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_graph(&self) -> std::sync::RwLockWriteGuard<'_, VersionedGraph<G>> {
        self.graph.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current graph version (bumped by [`replace_graph`](Self::replace_graph)
    /// and [`apply_churn`](Self::apply_churn)).
    pub fn graph_version(&self) -> u64 {
        self.read_graph().version
    }

    /// Swap in a new graph, invalidating every cached curve (the cache is
    /// keyed by `(source, graph_version)` and the version bumps). Returns
    /// the new version. For in-place edge churn with support-aware
    /// *incremental* invalidation, see [`Self::apply_churn`].
    pub fn replace_graph(&self, graph: G) -> u64 {
        let n = graph.n();
        let mut vg = self.write_graph();
        vg.g = graph;
        vg.version += 1;
        let mut state = self.lock_state();
        state.cache.clear();
        state.scratch = WitnessScratch::new(n);
        state.lane = vec![0.0; n];
        state.version = vg.version;
        vg.version
    }

    /// Work counters so far (see [`ServiceStats`]).
    pub fn stats(&self) -> ServiceStats {
        self.lock_state().stats
    }

    /// Number of sources with a cached curve for the current graph.
    pub fn cached_sources(&self) -> usize {
        self.lock_state().cache.len()
    }

    /// Approximate heap footprint of the cached curves, in bytes.
    pub fn cache_bytes(&self) -> usize {
        self.lock_state().cache.values().map(|c| c.snapshot_bytes()).sum()
    }

    /// Answer a batch of queries, in input order.
    ///
    /// Distinct pending sources advance together in [`BlockEvolution`]
    /// blocks of up to [`SWEEP_BLOCK`] columns; sources with cached curves
    /// are answered by snapshot replay (resuming the walk only if a query
    /// needs steps beyond the recorded horizon). Every answer is
    /// bit-for-bit what [`lmt_walks::local::local_mixing_time`] returns for
    /// `(source, β, ε)` under [`Self::config`] — independent of arrival
    /// order, batch splits, duplicate queries, and cache state.
    ///
    /// # Panics
    /// Panics — before answering anything — if any query is invalid, with
    /// the oracle's own messages: `β < 1`, `ε ∉ (0,1)`
    /// ([`LocalMixOptions::validate`]) or an out-of-range/isolated source.
    pub fn submit_batch(&self, queries: &[TauQuery]) -> Vec<TauAnswer> {
        let graph = self.read_graph();
        let g = &graph.g;
        let n = g.n();

        // Validate everything up front, mirroring the oracle's order —
        // and BEFORE acquiring the state mutex: a validation panic (the
        // documented response to a bad query) unwinds holding only the
        // RwLock read guard, which does not poison, so the service stays
        // fully usable for every later submit.
        for q in queries {
            self.config.opts(q).validate(n);
            lmt_walks::step::assert_source(g, q.source, "tau_service");
        }

        let mut guard = self.lock_state();
        let state = &mut *guard;
        if state.version != graph.version {
            // A replace_graph raced in between our lock acquisitions (it
            // resets the state eagerly, so this is belt and braces).
            state.cache.clear();
            state.scratch = WitnessScratch::new(n);
            state.lane = vec![0.0; n];
            state.version = graph.version;
        }
        state.stats.queries += queries.len() as u64;

        if self.config.flat_policy == FlatPolicy::RequireRegular && g.flat_stationary().is_none() {
            return queries
                .iter()
                .map(|&query| TauAnswer {
                    query,
                    result: Err(LocalMixError::NotRegular),
                })
                .collect();
        }

        let max_t = self.config.max_t;
        let grids: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| size_grid(n, &self.config.opts(q)))
            .collect();
        let mut results: Vec<Option<Result<LocalMixResult, LocalMixError>>> =
            vec![None; queries.len()];

        // Group queries by source; BTreeMap gives a deterministic source
        // order for the coalesced blocks (answers don't depend on it, but
        // stats and scheduling shouldn't wobble either).
        let mut by_src: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (qi, q) in queries.iter().enumerate() {
            by_src.entry(q.source).or_default().push(qi);
        }

        // Phase A: replay cached (or just-started) curves.
        let mut pending: Vec<(usize, bool, Vec<usize>)> = Vec::new();
        for (&src, qis) in &by_src {
            let existed = state.cache.contains_key(&src);
            let curve = state.cache.entry(src).or_default();
            if curve.recorded() == 0 {
                // Record p_0 = point mass at src: the oracle checks t = 0
                // before taking any step.
                state.lane.fill(0.0);
                state.lane[src] = 1.0;
                curve.record(&state.lane, &mut state.scratch);
                state.stats.evolutions += 1;
            }
            let mut unresolved = Vec::new();
            for &qi in qis {
                let q = &queries[qi];
                let src_opt = self.config.require_source.then_some(src);
                match curve.first_witness(0, &grids[qi], q.eps, src_opt, &mut state.scratch) {
                    Some((tau, witness)) => {
                        results[qi] = Some(Ok(LocalMixResult { tau, witness }));
                        if existed {
                            state.stats.cache_hits += 1;
                        }
                    }
                    None if curve.recorded() > max_t => {
                        // Steps 0..=max_t are all recorded and none mixed.
                        results[qi] = Some(Err(LocalMixError::NotMixedWithin(max_t)));
                        if existed {
                            state.stats.cache_hits += 1;
                        }
                    }
                    None => unresolved.push(qi),
                }
            }
            if !unresolved.is_empty() {
                pending.push((src, existed, unresolved));
            }
        }

        // Phase B: advance pending sources, coalesced into blocks of up to
        // SWEEP_BLOCK columns over one shared CSR sweep per step. The
        // optional step budget is shared by the whole batch; once spent,
        // every still-pending query resolves at its curve's recorded
        // horizon (progress stays cached — a retry resumes from there).
        let mut steps_left: Option<u64> = self.config.step_budget;
        for chunk in pending.chunks_mut(SWEEP_BLOCK) {
            if steps_left == Some(0) {
                for (src, _, qis) in chunk.iter() {
                    let horizon = state.cache[src].recorded() - 1;
                    for &qi in qis {
                        results[qi] = Some(Err(LocalMixError::NotMixedWithin(horizon)));
                        state.stats.budget_truncations += 1;
                    }
                }
                continue;
            }
            let cols: Vec<&[f64]> = chunk
                .iter()
                .map(|(src, _, _)| state.cache[src].resume_dist())
                .collect();
            let mut block = BlockEvolution::from_dists(g, &cols, self.config.kind);
            drop(cols);
            state.stats.blocks += 1;
            for &(_, existed, _) in chunk.iter() {
                if existed {
                    state.stats.resumes += 1;
                }
            }
            // Lane j belongs to chunk[lane_ci[j]] (mirrors the engine's
            // swap-remove on retire).
            let mut lane_ci: Vec<usize> = (0..chunk.len()).collect();
            while block.width() > 0 {
                if steps_left == Some(0) {
                    for &ci in &lane_ci {
                        let (src, _, qis) = &chunk[ci];
                        let horizon = state.cache[src].recorded() - 1;
                        for &qi in qis {
                            results[qi] = Some(Err(LocalMixError::NotMixedWithin(horizon)));
                            state.stats.budget_truncations += 1;
                        }
                    }
                    break;
                }
                block.step();
                if let Some(b) = steps_left.as_mut() {
                    *b -= 1;
                }
                state.stats.engine_steps += 1;
                let mut j = 0;
                while j < block.width() {
                    let (src, _, qis) = &mut chunk[lane_ci[j]];
                    let curve = state.cache.get_mut(src).expect("pending source cached");
                    block.copy_lane(j, &mut state.lane);
                    curve.record(&state.lane, &mut state.scratch);
                    let t = curve.recorded() - 1;
                    let src_opt = self.config.require_source.then_some(*src);
                    let scratch = &mut state.scratch;
                    qis.retain(|&qi| match curve.witness_at(t, &grids[qi], queries[qi].eps, src_opt, scratch)
                    {
                        Some(witness) => {
                            results[qi] = Some(Ok(LocalMixResult { tau: t, witness }));
                            false
                        }
                        None if t == max_t => {
                            results[qi] = Some(Err(LocalMixError::NotMixedWithin(max_t)));
                            false
                        }
                        None => true,
                    });
                    if qis.is_empty() {
                        block.retire(j);
                        lane_ci.swap_remove(j);
                    } else {
                        j += 1;
                    }
                }
            }
        }

        queries
            .iter()
            .zip(results)
            .map(|(&query, result)| TauAnswer {
                query,
                result: result.expect("every query resolved"),
            })
            .collect()
    }
}

impl TauService<ChurnGraph> {
    /// Apply one batch of edge edits to the live graph, with
    /// **support-aware incremental invalidation** of the curve cache.
    ///
    /// The batch is atomic ([`ChurnGraph::apply`]): on a
    /// [`ChurnError`], graph, cache, and version are all untouched. On
    /// success the graph version bumps once, and each cached
    /// [`SourceCurve`] is **retained iff no edited endpoint lies in its
    /// exact cumulative support** `∪_t supp(p_t)`. Soundness, to the bit:
    /// every inflow term such a curve ever summed reads `p_{t-1}(u)/d(u)`
    /// for a support node `u` — whose adjacency row and degree the batch
    /// provably did not change (an edit incident to `u` would put `u`'s
    /// endpoint in the support) — and every other term is `+0.0`, which
    /// never alters a non-negative partial sum. So each retained snapshot
    /// equals what a fresh evolution on the post-churn graph records, and
    /// replayed answers stay bit-identical to a fresh oracle call
    /// (`tests/service.rs` pins this differentially).
    ///
    /// Both locks are held across the edit so no batch can interleave
    /// between the graph mutation and the cache reconciliation; the state
    /// version is synced to the new graph version with the retained
    /// curves in place.
    pub fn apply_churn(&self, edits: &[EdgeEdit]) -> Result<ChurnOutcome, ChurnError> {
        let mut vg = self.write_graph();
        let mut state = self.lock_state();
        vg.g.apply(edits)?;
        vg.version += 1;
        let before = state.cache.len();
        state.cache.retain(|_, curve| {
            edits.iter().all(|e| {
                let (u, v) = e.endpoints();
                !curve.support_contains(u) && !curve.support_contains(v)
            })
        });
        let retained = state.cache.len();
        let dropped = before - retained;
        state.version = vg.version;
        state.stats.churn_batches += 1;
        state.stats.curves_retained += retained as u64;
        state.stats.curves_dropped += dropped as u64;
        Ok(ChurnOutcome {
            version: vg.version,
            retained,
            dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmt_graph::{gen, ChurnGraph};
    use lmt_walks::local::local_mixing_time;

    fn assert_oracle_identical(service: &TauService<lmt_graph::Graph>, g: &lmt_graph::Graph, q: TauQuery) {
        let answers = service.submit_batch(&[q]);
        let want = local_mixing_time(g, q.source, &service.config().opts(&q));
        match (&answers[0].result, &want) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.tau, b.tau);
                assert_eq!(a.witness.size, b.witness.size);
                assert_eq!(a.witness.l1.to_bits(), b.witness.l1.to_bits());
                assert_eq!(a.witness.nodes, b.witness.nodes);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            other => panic!("service/oracle disagree: {other:?}"),
        }
    }

    #[test]
    fn single_query_matches_oracle_cold_and_warm() {
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let service = TauService::new(g.clone());
        let q = TauQuery {
            source: 5,
            beta: 4.0,
            eps: 0.05,
        };
        assert_oracle_identical(&service, &g, q); // cold
        assert_oracle_identical(&service, &g, q); // warm (pure replay)
        let stats = service.stats();
        assert_eq!(stats.evolutions, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(service.cached_sources(), 1);
        assert!(service.cache_bytes() > 0);
    }

    #[test]
    fn coalesced_batch_matches_oracle_per_source() {
        // > SWEEP_BLOCK distinct sources forces two blocks.
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let service = TauService::new(g.clone());
        let queries: Vec<TauQuery> = (0..12)
            .map(|s| TauQuery {
                source: s * 2,
                beta: 4.0,
                eps: 0.05,
            })
            .collect();
        let answers = service.submit_batch(&queries);
        for (q, a) in queries.iter().zip(&answers) {
            let want = local_mixing_time(&g, q.source, &service.config().opts(q)).unwrap();
            let got = a.result.as_ref().unwrap();
            assert_eq!(got.tau, want.tau, "source {}", q.source);
            assert_eq!(got.witness.nodes, want.witness.nodes);
        }
        assert!(service.stats().blocks >= 2);
    }

    #[test]
    fn resume_extends_cached_curve() {
        // A loose query answers within few steps; a tighter query for the
        // same source must resume the cached walk, not restart it.
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let service = TauService::new(g.clone());
        let loose = TauQuery {
            source: 3,
            beta: 4.0,
            eps: 0.3,
        };
        let tight = TauQuery {
            source: 3,
            beta: 1.5,
            eps: 0.05,
        };
        service.submit_batch(&[loose]);
        assert_oracle_identical(&service, &g, tight);
        let stats = service.stats();
        assert_eq!(stats.evolutions, 1, "resume must not restart the walk");
        assert_eq!(stats.resumes, 1);
    }

    #[test]
    fn not_mixed_within_matches_oracle() {
        let (g, _) = gen::ring_of_cliques_regular(8, 8);
        let config = ServiceConfig {
            max_t: 2,
            ..ServiceConfig::default()
        };
        let service = TauService::with_config(g.clone(), config);
        let q = TauQuery {
            source: 0,
            beta: 1.0,
            eps: 0.01,
        };
        let a = service.submit_batch(&[q]);
        assert_eq!(
            a[0].result.as_ref().unwrap_err(),
            &LocalMixError::NotMixedWithin(2)
        );
        // And the capped verdict is itself cached.
        let b = service.submit_batch(&[q]);
        assert_eq!(
            b[0].result.as_ref().unwrap_err(),
            &LocalMixError::NotMixedWithin(2)
        );
        assert_eq!(service.stats().cache_hits, 1);
    }

    #[test]
    fn non_regular_graph_rejected_like_oracle() {
        let g = gen::star(8);
        let service = TauService::new(g);
        let a = service.submit_batch(&[TauQuery {
            source: 0,
            beta: 2.0,
            eps: 0.1,
        }]);
        assert_eq!(a[0].result.as_ref().unwrap_err(), &LocalMixError::NotRegular);
    }

    #[test]
    fn replace_graph_invalidates_cache() {
        let (g1, _) = gen::ring_of_cliques_regular(4, 8);
        let g2 = gen::complete(32);
        let service = TauService::new(g1);
        let q = TauQuery {
            source: 1,
            beta: 4.0,
            eps: 0.05,
        };
        let _ = service.submit_batch(&[q]);
        assert_eq!(service.graph_version(), 0);
        assert_eq!(service.replace_graph(g2.clone()), 1);
        assert_eq!(service.cached_sources(), 0);
        let a2 = service.submit_batch(&[q]).remove(0);
        let want = local_mixing_time(&g2, 1, &service.config().opts(&q)).unwrap();
        let got = a2.result.unwrap();
        assert_eq!(got.tau, want.tau);
        assert_eq!(got.witness.nodes, want.witness.nodes);
        assert_eq!(
            service.stats().evolutions,
            2,
            "the new graph's query must re-evolve, not reuse stale curves"
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let g = gen::complete(8);
        let service = TauService::new(g);
        assert!(service.submit_batch(&[]).is_empty());
        assert_eq!(service.stats(), ServiceStats::default());
    }

    #[test]
    #[should_panic(expected = "β must be ≥ 1")]
    fn invalid_beta_rejected_with_oracle_message() {
        let g = gen::complete(8);
        let service = TauService::new(g);
        let _ = service.submit_batch(&[TauQuery {
            source: 0,
            beta: 0.5,
            eps: 0.1,
        }]);
    }

    #[test]
    #[should_panic(expected = "isolated node")]
    fn isolated_source_rejected_like_oracle() {
        let mut b = lmt_graph::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let service = TauService::new(b.build());
        let _ = service.submit_batch(&[TauQuery {
            source: 3,
            beta: 2.0,
            eps: 0.1,
        }]);
    }

    #[test]
    fn panicking_query_does_not_poison_the_service() {
        // Regression: a bad query's validation panic used to unwind while
        // holding the state mutex, poisoning it and bricking every later
        // submit. Validation now runs before the mutex (and lock recovery
        // backstops the rest), so the service must keep answering.
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let service = TauService::new(g.clone());
        let good = TauQuery {
            source: 5,
            beta: 4.0,
            eps: 0.05,
        };
        assert_oracle_identical(&service, &g, good); // warm the cache first
        for bad in [
            TauQuery {
                source: 0,
                beta: 0.5, // β < 1
                eps: 0.1,
            },
            TauQuery {
                source: 0,
                beta: 2.0,
                eps: 1.5, // ε ∉ (0,1)
            },
            TauQuery {
                source: g.n() + 7, // out of range
                beta: 2.0,
                eps: 0.1,
            },
        ] {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                service.submit_batch(&[good, bad])
            }));
            assert!(unwound.is_err(), "invalid query must still panic");
        }
        // The service is fully usable: cache intact, answers bit-identical.
        assert_oracle_identical(&service, &g, good);
        let stats = service.stats();
        assert_eq!(stats.evolutions, 1, "cache must survive the panics");
        assert_eq!(stats.cache_hits, 1);
    }

    /// Degree-preserving 2-swap: delete `(a,b)` and `(c,d)`, insert `(a,c)`
    /// and `(b,d)` — the graph stays regular, so the service keeps
    /// answering. Picks the first pair of vertex-disjoint edges whose four
    /// endpoints all satisfy `ok` and whose replacement edges are absent.
    fn find_swap(g: &lmt_graph::Graph, ok: impl Fn(usize) -> bool) -> [EdgeEdit; 4] {
        let edges: Vec<(usize, usize)> = g
            .edges()
            .filter(|&(u, v)| ok(u) && ok(v))
            .collect();
        for (i, &(a, b)) in edges.iter().enumerate() {
            for &(c, d) in &edges[i + 1..] {
                if a != c && a != d && b != c && b != d && !g.has_edge(a, c) && !g.has_edge(b, d) {
                    return [
                        EdgeEdit::delete(a, b),
                        EdgeEdit::delete(c, d),
                        EdgeEdit::insert(a, c),
                        EdgeEdit::insert(b, d),
                    ];
                }
            }
        }
        panic!("no degree-preserving swap available under the constraint");
    }

    /// The curve cache's support set for `src`, as a membership predicate.
    fn support_of(service: &TauService<ChurnGraph>, src: usize) -> Vec<bool> {
        let n = service.read_graph().g.n();
        let state = service.lock_state();
        let curve = &state.cache[&src];
        (0..n).map(|v| curve.support_contains(v)).collect()
    }

    #[test]
    fn apply_churn_retains_unaffected_curves_and_stays_oracle_identical() {
        let (g0, _) = gen::ring_of_cliques_regular(8, 8);
        let service = TauService::new(ChurnGraph::new(g0));
        let q = TauQuery {
            source: 0,
            beta: 8.0,
            eps: 0.3,
        };
        let first = service.submit_batch(&[q]);
        assert!(first[0].result.is_ok());

        // A swap far from everything the curve ever touched: provably
        // support-disjoint, so the curve must survive the batch.
        let support = support_of(&service, 0);
        let far_edits = {
            let vg = service.read_graph();
            find_swap(vg.g.topology(), |v| !support[v])
        };
        let outcome = service.apply_churn(&far_edits).unwrap();
        assert_eq!(
            outcome,
            ChurnOutcome {
                version: 1,
                retained: 1,
                dropped: 0,
            }
        );
        assert_eq!(service.graph_version(), 1);

        // The retained curve answers by replay — and the replayed answer is
        // bit-identical to a fresh oracle on the POST-churn topology.
        let replayed = service.submit_batch(&[q]);
        let post = {
            let vg = service.read_graph();
            vg.g.topology().clone()
        };
        let want = local_mixing_time(&post, q.source, &service.config().opts(&q)).unwrap();
        let got = replayed[0].result.as_ref().unwrap();
        assert_eq!(got.tau, want.tau);
        assert_eq!(got.witness.l1.to_bits(), want.witness.l1.to_bits());
        assert_eq!(got.witness.nodes, want.witness.nodes);
        let stats = service.stats();
        assert_eq!(stats.evolutions, 1, "retained curve must not re-evolve");
        assert_eq!(stats.cache_hits, 1);
        assert_eq!((stats.curves_retained, stats.curves_dropped), (1, 0));

        // A swap touching the source's own support must drop the curve…
        let support = support_of(&service, 0);
        let near_edits = {
            let vg = service.read_graph();
            let g = vg.g.topology();
            let b = g.neighbors(0).next().unwrap();
            let [d2, ..] = find_swap(g, |v| !support[v]);
            let (c, d) = d2.endpoints();
            assert!(!g.has_edge(0, c) && !g.has_edge(b, d));
            [
                EdgeEdit::delete(0, b),
                EdgeEdit::delete(c, d),
                EdgeEdit::insert(0, c),
                EdgeEdit::insert(b, d),
            ]
        };
        let outcome = service.apply_churn(&near_edits).unwrap();
        assert_eq!((outcome.retained, outcome.dropped), (0, 1));

        // …and the recomputed answer matches a fresh oracle there too.
        let recomputed = service.submit_batch(&[q]);
        let post = {
            let vg = service.read_graph();
            vg.g.topology().clone()
        };
        let want = local_mixing_time(&post, q.source, &service.config().opts(&q)).unwrap();
        let got = recomputed[0].result.as_ref().unwrap();
        assert_eq!(got.tau, want.tau);
        assert_eq!(got.witness.l1.to_bits(), want.witness.l1.to_bits());
        assert_eq!(service.stats().evolutions, 2, "dropped curve re-evolves");
        assert_eq!(service.stats().churn_batches, 2);
    }

    #[test]
    fn apply_churn_rejects_bad_batches_atomically() {
        let (g0, _) = gen::ring_of_cliques_regular(4, 8);
        let service = TauService::new(ChurnGraph::new(g0.clone()));
        let q = TauQuery {
            source: 5,
            beta: 4.0,
            eps: 0.05,
        };
        let _ = service.submit_batch(&[q]);

        let (u, v) = {
            // Any absent edge: first non-neighbor pair.
            let a = 0usize;
            let b = (1..g0.n()).find(|&b| !g0.has_edge(a, b)).unwrap();
            (a, b)
        };
        let err = service
            .apply_churn(&[EdgeEdit::delete(u, v)])
            .unwrap_err();
        assert!(matches!(err, lmt_graph::ChurnError::MissingDelete { .. }));

        // Nothing moved: version, cache, and answers are all untouched.
        assert_eq!(service.graph_version(), 0);
        assert_eq!(service.cached_sources(), 1);
        assert_eq!(service.stats().churn_batches, 0);
        let again = service.submit_batch(&[q]);
        let want = local_mixing_time(&g0, q.source, &service.config().opts(&q)).unwrap();
        assert_eq!(again[0].result.as_ref().unwrap().tau, want.tau);
        assert_eq!(service.stats().cache_hits, 1);
    }

    #[test]
    fn step_budget_truncates_gracefully_then_resumes_to_oracle() {
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let config = ServiceConfig {
            step_budget: Some(2),
            ..ServiceConfig::default()
        };
        let service = TauService::with_config(g.clone(), config);
        let q = TauQuery {
            source: 3,
            beta: 1.5,
            eps: 0.05,
        };
        let want = local_mixing_time(&g, q.source, &service.config().opts(&q)).unwrap();
        assert!(want.tau > 2, "test needs a query deeper than the budget");

        // First batch runs out of budget: a graceful NotMixedWithin at the
        // recorded horizon, strictly earlier than the true τ.
        let first = service.submit_batch(&[q]);
        match first[0].result.as_ref().unwrap_err() {
            LocalMixError::NotMixedWithin(t) => assert!(*t < want.tau),
            other => panic!("expected budget truncation, got {other:?}"),
        }
        assert!(service.stats().budget_truncations >= 1);

        // Progress stays cached: resubmitting resumes where the budget cut
        // off, and the eventual answer is bit-identical to the oracle.
        let mut final_result = None;
        for _ in 0..10_000 {
            let a = service.submit_batch(&[q]).remove(0);
            if let Ok(r) = a.result {
                final_result = Some(r);
                break;
            }
        }
        let got = final_result.expect("budgeted batches must converge");
        assert_eq!(got.tau, want.tau);
        assert_eq!(got.witness.size, want.witness.size);
        assert_eq!(got.witness.l1.to_bits(), want.witness.l1.to_bits());
        assert_eq!(got.witness.nodes, want.witness.nodes);
        let stats = service.stats();
        assert_eq!(stats.evolutions, 1, "budget retries resume, never restart");
        assert!(stats.budget_truncations >= 1);
    }
}
