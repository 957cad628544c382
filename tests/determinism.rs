//! Determinism regression layer for the real thread pool (PR 2).
//!
//! The workspace's scheduling-independence contract says the `Parallel` and
//! `Sequential` engines produce **bit-identical** results — by design
//! (per-node RNG streams, sender-sorted inboxes, no shared mutable state)
//! and, since the `rayon` shim grew a real chunked thread pool, by the
//! shim's index-order recombination. This suite locks the contract in on
//! random graphs, at pool widths 1, 2, and 8 (`LMT_THREADS`): chunk
//! boundaries move with the width, so any order-dependence in a `par_*`
//! call site shows up as a cross-width or cross-engine mismatch here.
//!
//! Digests are `Debug` renderings of the full result structures (trees,
//! weight vectors, metrics, token sets) — coarse but strict: any bit that
//! prints differently fails the property.

use local_mixing_repro::prelude::*;
use lmt_congest::bfs::{build_bfs_tree, build_bfs_tree_faulty, BfsTree};
use lmt_congest::flood::FloodGraph;
use lmt_congest::message::olog_budget;
use lmt_core::graph_tau::graph_local_mixing_time_sampled;
use lmt_walks::sampler::endpoint_counts;
use proptest::prelude::*;
use std::sync::Mutex;

/// Pool widths exercised: inline (1), minimal split (2), oversubscribed (8).
const WIDTHS: [usize; 3] = [1, 2, 8];

/// Serializes width-pinning across this binary's tests (env is
/// process-global). Note the pinned width is advisory for *other* concurrent
/// test binaries' operations — harmless, since every assertion here is
/// width-independent by construction.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Restores the prior `LMT_THREADS` even if an assertion unwinds mid-loop.
struct EnvRestore(Option<String>);

impl Drop for EnvRestore {
    fn drop(&mut self) {
        match self.0.take() {
            Some(s) => std::env::set_var("LMT_THREADS", s),
            None => std::env::remove_var("LMT_THREADS"),
        }
    }
}

/// Run `f` once at each pool width; return the per-width results.
fn at_widths<T>(f: impl Fn() -> T) -> Vec<(usize, T)> {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = EnvRestore(std::env::var("LMT_THREADS").ok());
    WIDTHS
        .iter()
        .map(|&w| {
            std::env::set_var("LMT_THREADS", w.to_string());
            assert_eq!(rayon::current_num_threads(), w, "width pin failed");
            (w, f())
        })
        .collect()
}

/// Strategy: spec of a connected-ish random regular graph (n·d even).
fn regular_spec() -> impl Strategy<Value = (usize, usize, u64)> {
    (5usize..20, 2usize..3, any::<u64>()).prop_map(|(half_n, half_d, seed)| (2 * half_n, 2 * half_d, seed))
}

/// `(sequential digest, parallel digest)` of one engine-backed computation.
fn both_engines(digest: impl Fn(EngineKind) -> String) -> (String, String) {
    (digest(EngineKind::Sequential), digest(EngineKind::Parallel))
}

/// Assert every width saw parallel ≡ sequential, and that results did not
/// drift across widths.
macro_rules! assert_width_table {
    ($results:expr) => {
        for (w, (seq, par)) in &$results {
            prop_assert!(
                seq == par,
                "parallel != sequential at pool width {}:\n seq: {}\n par: {}",
                w,
                seq,
                par
            );
        }
        for pair in $results.windows(2) {
            prop_assert!(
                pair[0].1 == pair[1].1,
                "results drifted between widths {} and {}",
                pair[0].0,
                pair[1].0
            );
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// BFS-tree construction: tree structure and CONGEST metrics of the
    /// `BfsNode` protocol on the round engine (what fault plans run), and
    /// the flat construction (which takes no engine) equal to it.
    #[test]
    fn bfs_parallel_equals_sequential((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let budget = olog_budget(n, 10);
        let digest = |(tree, m): (BfsTree, Metrics)| format!("{tree:?} | {m:?}");
        let results = at_widths(|| {
            let flat = build_bfs_tree(&g, 0, u32::MAX, budget, EngineKind::Sequential, seed ^ 0xB5);
            let engines = both_engines(|engine| {
                digest(build_bfs_tree_faulty(&g, 0, u32::MAX, budget, engine, seed ^ 0xB5, None).expect("bfs"))
            });
            assert_eq!(digest(flat.expect("bfs")), engines.0, "flat BFS != BfsNode on the engine");
            engines
        });
        assert_width_table!(results);
    }

    /// Probability flooding (Algorithm 1's substrate): fixed-point weight
    /// vectors and metrics. The flood runs no engine, so this pins
    /// run-to-run determinism across pool widths.
    #[test]
    fn flood_deterministic_across_widths((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let results = at_widths(|| {
            let budget = olog_budget(n, 10);
            let (weights, scale, m) = g
                .estimate_flood(0, 8, 6, WalkKind::Lazy, budget, EngineKind::Sequential, seed ^ 0xF1)
                .expect("flood");
            format!("{weights:?} | {scale:?} | {m:?}")
        });
        for pair in results.windows(2) {
            prop_assert!(
                pair[0].1 == pair[1].1,
                "flood drifted between widths {} and {}",
                pair[0].0,
                pair[1].0
            );
        }
    }

    /// Gossip push–pull: per-node token sets after 20 rounds. (Gossip runs
    /// on its own simulator, not the round engine — this guards the
    /// contract if it ever gains a parallel path, and pins run-to-run
    /// determinism across pool widths today.)
    #[test]
    fn gossip_deterministic_across_widths((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let results = at_widths(|| {
            let mut gossip = Gossip::new(&g, GossipMode::Local, seed ^ 0x605);
            gossip.run(20);
            format!("{:?} | {}", gossip.tokens(), gossip.transmissions)
        });
        for pair in results.windows(2) {
            prop_assert!(
                pair[0].1 == pair[1].1,
                "gossip drifted between widths {} and {}",
                pair[0].0,
                pair[1].0
            );
        }
    }

    /// Walk sampling: the two-phase fold/reduce histogram. Width 1 takes the
    /// inline (sequential) path, so cross-width equality *is* the
    /// parallel ≡ sequential assertion for this call site.
    #[test]
    fn walk_sampling_parallel_equals_sequential((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let results = at_widths(|| endpoint_counts(&g, 0, 15, 600, seed ^ 0x3A7));
        for (w, counts) in &results {
            prop_assert!(counts.iter().sum::<u64>() == 600, "width {} lost walks", w);
        }
        for pair in results.windows(2) {
            prop_assert!(
                pair[0].1 == pair[1].1,
                "endpoint counts drifted between widths {} and {}",
                pair[0].0,
                pair[1].0
            );
        }
    }

    /// The weighted walk step (ISSUE 4): the rayon-parallel pull over a
    /// `WeightedGraph` — `p(u)·w(u,v)/W(u)` per inflow term — must be
    /// bit-identical at every pool width. Width 1 takes the shim's inline
    /// path, so cross-width equality is the parallel ≡ sequential
    /// assertion; weights are randomized so the float sums are
    /// order-sensitive if chunking ever leaked into summation order.
    #[test]
    fn weighted_step_parallel_equals_sequential((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let wg = gen::weighted::random_weights(g, 0.25, 4.0, seed ^ 0x7E1);
        let results = at_widths(|| {
            let p = evolve_block(&wg, &[0], WalkKind::Lazy, 20).remove(0);
            format!("{p:?}")
        });
        for pair in results.windows(2) {
            prop_assert!(
                pair[0].1 == pair[1].1,
                "weighted step drifted between widths {} and {}",
                pair[0].0,
                pair[1].0
            );
        }
    }
}

/// Adversarial workout for the router: every node rotates through three
/// send patterns — broadcast (`send_all`, already in destination order),
/// descending per-neighbor sends (the outbox must be sorted), and an
/// RNG-chosen single destination (exercises per-node streams) — and
/// folds every inbox it observes, order-sensitively, into a rolling hash.
/// Any routing discrepancy (ordering, duplication, loss, cross-round leak)
/// at any pool width lands in the digest.
mod routing_mixer {
    use lmt_congest::engine::{Ctx, Network, Protocol};
    use lmt_congest::message::Counter;
    use lmt_congest::EngineKind;
    use rand::Rng;

    const ROUNDS: u64 = 6;

    pub struct Mixer {
        hash: u64,
        horizon: u64,
    }

    impl Mixer {
        fn absorb(&mut self, round: u64, inbox: &[(u32, Counter)]) {
            for (from, c) in inbox {
                // Order-sensitive FNV-style fold: permuted inboxes diverge.
                for word in [round, *from as u64, c.value] {
                    self.hash = (self.hash ^ word).wrapping_mul(0x100000001b3);
                }
            }
        }
    }

    impl Protocol for Mixer {
        type Msg = Counter;

        fn init(&mut self, ctx: &mut Ctx<'_, Counter>) {
            ctx.send_all(Counter::new(ctx.id() as u64 & 0xFF, 8));
        }

        fn round(&mut self, ctx: &mut Ctx<'_, Counter>, inbox: &[(u32, Counter)]) {
            self.absorb(ctx.round(), inbox);
            if ctx.round() >= self.horizon {
                return;
            }
            match ctx.round() % 3 {
                0 => ctx.send_all(Counter::new(ctx.round() & 0xFF, 8)),
                1 => {
                    // Descending destinations: the outbox must be sorted.
                    let nbrs: Vec<usize> = ctx.neighbors().collect();
                    for (i, &v) in nbrs.iter().rev().enumerate() {
                        ctx.send(v, Counter::new(i as u64 & 0xFF, 8));
                    }
                }
                _ => {
                    // One RNG-chosen destination: the single-run path.
                    let d = ctx.degree();
                    let pick = ctx.rng.gen_range(0..d);
                    let v = ctx.neighbors().nth(pick).expect("degree > pick");
                    ctx.send(v, Counter::new(pick as u64 & 0xFF, 8));
                }
            }
        }
    }

    fn network(g: &lmt_graph::Graph, engine: EngineKind, seed: u64, horizon: u64) -> Network<'_, Mixer> {
        Network::new(
            g,
            move |_| Mixer {
                hash: 0xcbf29ce484222325,
                horizon,
            },
            lmt_congest::message::olog_budget(g.n(), 8),
            engine,
            seed,
        )
    }

    /// Per-node inbox hashes plus metrics after `ROUNDS` rounds.
    pub fn digest(g: &lmt_graph::Graph, engine: EngineKind, seed: u64) -> String {
        let mut net = network(g, engine, seed, ROUNDS);
        net.run_rounds(ROUNDS).expect("mixer run");
        let hashes: Vec<u64> = net.node_states().map(|s| s.hash).collect();
        format!("{hashes:?} | {:?}", net.metrics())
    }

    /// [`digest`] on a faulty network: two crash-stop nodes (one at round
    /// 0, one mid-run) and a 25% drop rate, all derived from `fault_seed`.
    /// Drop decisions are per (directed edge, round) and crash gating is
    /// per node — neither depends on the engine, so this digest must be
    /// engine- and width-stable exactly like the fault-free one.
    pub fn faulty_digest(
        g: &lmt_graph::Graph,
        engine: EngineKind,
        seed: u64,
        fault_seed: u64,
    ) -> String {
        let n = g.n();
        let plan = lmt_congest::FaultPlan::new(n, fault_seed)
            .with_drop_prob(0.25)
            .with_crash(fault_seed as usize % n, 0)
            .with_crash((fault_seed as usize / 7) % n, 3);
        let mut net = Network::with_faults(
            g,
            move |_| Mixer {
                hash: 0xcbf29ce484222325,
                horizon: ROUNDS,
            },
            lmt_congest::message::olog_budget(g.n(), 8),
            engine,
            seed,
            plan,
        );
        net.run_rounds(ROUNDS).expect("faulty mixer run");
        let hashes: Vec<u64> = net.node_states().map(|s| s.hash).collect();
        format!("{hashes:?} | {:?}", net.metrics())
    }

    /// [`digest`] with a *trivial* fault plan attached — must be
    /// bit-identical to running with no plan at all.
    pub fn trivial_plan_digest(g: &lmt_graph::Graph, engine: EngineKind, seed: u64) -> String {
        let mut net = Network::with_faults(
            g,
            move |_| Mixer {
                hash: 0xcbf29ce484222325,
                horizon: ROUNDS,
            },
            lmt_congest::message::olog_budget(g.n(), 8),
            engine,
            seed,
            lmt_congest::FaultPlan::new(g.n(), 0xFA17),
        );
        net.run_rounds(ROUNDS).expect("trivial-plan mixer run");
        let hashes: Vec<u64> = net.node_states().map(|s| s.hash).collect();
        format!("{hashes:?} | {:?}", net.metrics())
    }

    /// Warm the buffers through two full send-pattern cycles, then assert
    /// the message plane stops allocating.
    pub fn assert_steady_alloc(g: &lmt_graph::Graph, engine: EngineKind) {
        let mut net = network(g, engine, 0xA110C, 24);
        net.run_rounds(6).expect("warm-up");
        let warmed = net.routing_alloc_events();
        net.run_rounds(12).expect("steady run");
        assert_eq!(
            net.routing_alloc_events(),
            warmed,
            "message plane allocated in steady state ({engine:?}, width {})",
            rayon::current_num_threads(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The rebuilt message plane: mixed broadcast / descending-scatter /
    /// RNG-single sends must be bit-identical across engines and widths.
    #[test]
    fn routing_parallel_equals_sequential((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let results = at_widths(|| {
            both_engines(|engine| routing_mixer::digest(&g, engine, seed ^ 0x209))
        });
        assert_width_table!(results);
    }

    /// The fault plane (PR 7): the same mixer under crashes + 25% drops
    /// must stay bit-identical across engines and pool widths — the drop
    /// RNG is keyed per (directed edge, round), so nothing but the edge's
    /// own messages orders its draws.
    #[test]
    fn faulty_routing_parallel_equals_sequential((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let results = at_widths(|| {
            both_engines(|engine| {
                routing_mixer::faulty_digest(&g, engine, seed ^ 0x209, seed ^ 0xFA)
            })
        });
        assert_width_table!(results);
        // Faults actually fired: the round-0 crash victim absorbs nothing,
        // so the faulty digest cannot equal the fault-free one.
        let plain = routing_mixer::digest(&g, EngineKind::Sequential, seed ^ 0x209);
        prop_assert!(results[0].1 .0 != plain, "fault plan had no effect");
    }

    /// A trivial (fault-free) plan attached to the network must be
    /// bit-identical to no plan, across engines and widths.
    #[test]
    fn trivial_fault_plan_is_transparent((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let results = at_widths(|| {
            both_engines(|engine| {
                let plain = routing_mixer::digest(&g, engine, seed ^ 0x209);
                let trivial = routing_mixer::trivial_plan_digest(&g, engine, seed ^ 0x209);
                assert_eq!(plain, trivial, "trivial plan perturbed the run");
                plain
            })
        });
        assert_width_table!(results);
    }
}

/// The routing mixer at a size where the parallel engine really splits its
/// node visits: n = 1024 is 8× the engine's 128-node minimum chunk, so at
/// widths 2 and 8 the outboxes are filled and sorted on 2 and 8 threads,
/// which the small proptest graphs (one chunk) cannot show.
#[test]
fn routing_multi_shard_parallel_equals_sequential() {
    let g = gen::random_regular(1024, 4, 77);
    assert!(props::is_connected(&g), "workload must be connected");
    let results = at_widths(|| {
        both_engines(|engine| routing_mixer::digest(&g, engine, 0xD15C))
    });
    for (w, (seq, par)) in &results {
        assert_eq!(seq, par, "parallel != sequential at pool width {w}");
    }
    for pair in results.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "results drifted between widths {} and {}",
            pair[0].0, pair[1].0
        );
    }
    // Steady-state allocation-freedom must hold at every pool width too.
    at_widths(|| routing_mixer::assert_steady_alloc(&g, EngineKind::Parallel));
}

/// Literal pins of the message plane's output. Cross-engine equality only
/// shows that both engines agree; these FNV-1a-64 digests, recorded on the
/// router that normalized outboxes by insertion (≤ 64 messages) or by a
/// degree-indexed counting pass (larger), fix the inbox order, the fault
/// decisions and the metrics themselves. `complete(80)`'s 79-message
/// descending sends and BFS joins (an `Adopt` to the parent, then a
/// broadcast `Join`: 80 messages out of destination order) took the
/// counting pass; the 1024-node mixer and the perfbench graph's BFS took
/// insertion.
mod routing_pins {
    use super::*;
    use lmt_util::rng::{fork, stream_seed};
    use rand::Rng;

    pub fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// `[digest, faulty_digest]` of the routing mixer, sequential engine.
    pub fn mixer(g: &Graph) -> [u64; 2] {
        let plain = routing_mixer::digest(g, EngineKind::Sequential, 0xD15C);
        let faulty = routing_mixer::faulty_digest(g, EngineKind::Sequential, 0xD15C, 0xFA);
        [fnv(plain.into_bytes()), fnv(faulty.into_bytes())]
    }

    /// Digest of a full-depth BFS tree (`parent`, `dist`, `children`) and
    /// its metrics, sequential engine.
    pub fn bfs(g: &Graph, src: usize) -> u64 {
        let (t, m) =
            build_bfs_tree(g, src, u32::MAX, olog_budget(g.n(), 8), EngineKind::Sequential, 1)
                .expect("bfs");
        let opt = |x: Option<u32>| x.map_or(u64::MAX, u64::from);
        let mut words: Vec<u64> = Vec::new();
        words.extend(t.parent.iter().map(|&p| opt(p)));
        words.extend(t.dist.iter().map(|&d| opt(d)));
        for c in (0..g.n()).map(|v| t.children(v)) {
            words.push(c.len() as u64);
            words.extend(c.iter().map(|&v| u64::from(v)));
        }
        words.extend([
            m.rounds,
            m.messages,
            m.bits,
            u64::from(m.max_edge_bits),
            m.dropped_messages,
            m.crashed_nodes,
        ]);
        fnv(words.into_iter().flat_map(u64::to_le_bytes))
    }

    /// perfbench's seed-1 `algo2-expander` graph and its first query source.
    pub fn algo2_expander() -> (Graph, usize) {
        let n = 1 << 11;
        let g = gen::random_regular(n, 8, stream_seed(1, 0));
        (g, fork(stream_seed(1, 1), 0).gen_range(0..n))
    }
}

#[test]
fn routing_and_bfs_pinned_literals() {
    let expander = gen::random_regular(1024, 4, 77);
    let clique = gen::complete(80);
    let (algo2_g, algo2_src) = routing_pins::algo2_expander();
    let got = [
        routing_pins::mixer(&expander),
        routing_pins::mixer(&clique),
        [routing_pins::bfs(&clique, 5), routing_pins::bfs(&algo2_g, algo2_src)],
    ];
    assert_eq!(
        got,
        [
            [0x5f76_791c_b7aa_67eb, 0x4a2c_c6f9_1c00_b647],
            [0x0af3_000c_a7be_5aa1, 0xf0c5_fe72_b42b_d6b0],
            [0x6880_248b_9419_e433, 0xe4fe_62d8_28b9_4ba9],
        ],
        "[[mixer, faulty mixer] on random_regular(1024, 4, 77), same on \
         complete(80), [bfs complete(80) from 5, bfs algo2-expander seed 1]]"
    );
}

/// The walk evolution engine (ISSUE 5): the frontier-sparse path and the
/// multi-source-blocked path must both be **bit-identical** to the dense
/// reference (`lmt_walks::step::step` iterated), per lane, at every pool
/// width — on unweighted and on randomly-weighted graphs.
mod evolution_engine {
    use super::*;
    use lmt_walks::step::step;

    /// `p_0..p_t` by iterated dense steps — the historical reference path.
    pub fn dense_trajectory<G: WalkGraph + ?Sized>(
        g: &G,
        src: usize,
        kind: WalkKind,
        t: usize,
    ) -> Vec<Dist> {
        let mut p = Dist::point(g.n(), src);
        let mut out = vec![p.clone()];
        for _ in 0..t {
            p = step(g, &p, kind);
            out.push(p.clone());
        }
        out
    }

    /// Digest of a frontier-sparse evolution compared step-by-step against
    /// the dense reference; panics on the first bit mismatch.
    pub fn sparse_vs_dense_digest<G: WalkGraph + ?Sized>(
        g: &G,
        src: usize,
        kind: WalkKind,
        t: usize,
    ) -> String {
        let reference = dense_trajectory(g, src, kind, t);
        let mut ev = BlockEvolution::new(g, &[src], kind);
        for (step_no, want) in reference.iter().enumerate() {
            assert_eq!(ev.solo_lane(), want.as_slice(), "sparse != dense at step {step_no}");
            ev.step();
        }
        format!("{:?} | dense={}", reference.last().unwrap(), ev.is_dense())
    }

    /// Digest of a blocked evolution at the given block width compared
    /// lane-by-lane against solo dense runs.
    pub fn blocked_vs_solo_digest<G: WalkGraph + ?Sized>(
        g: &G,
        sources: &[usize],
        kind: WalkKind,
        t: usize,
    ) -> String {
        let blocked = evolve_block(g, sources, kind, t);
        for (j, &s) in sources.iter().enumerate() {
            let solo = dense_trajectory(g, s, kind, t).pop().unwrap();
            assert_eq!(blocked[j], solo, "blocked lane {j} != solo source {s}");
        }
        format!("{blocked:?}")
    }

    /// Digest of a dense (crossover 0) blocked evolution run at an explicit
    /// destination-tile override, compared lane-by-lane against solo dense
    /// runs. The tile is a pure cache policy — any tile size must reproduce
    /// the untiled arithmetic bit-for-bit.
    pub fn tiled_vs_solo_digest<G: WalkGraph + ?Sized>(
        g: &G,
        sources: &[usize],
        kind: WalkKind,
        t: usize,
        tile_rows: Option<usize>,
    ) -> String {
        let mut ev = BlockEvolution::with_crossover(g, sources, kind, 0.0);
        ev.set_tile_rows(tile_rows);
        for _ in 0..t {
            ev.step();
        }
        // Crossover 0 flips dense on the very first step, so every tiled
        // step above went through the blocked sweep.
        assert!(ev.is_dense(), "crossover 0 must go dense immediately");
        for (j, &s) in sources.iter().enumerate() {
            let solo = dense_trajectory(g, s, kind, t).pop().unwrap();
            assert_eq!(
                ev.lane_dist(j),
                solo,
                "tile {tile_rows:?} lane {j} != solo source {s}"
            );
        }
        (0..sources.len())
            .map(|j| format!("{:?}", ev.lane_dist(j)))
            .collect::<Vec<_>>()
            .join(" ; ")
    }

    /// A crossover sitting exactly on a step's candidate volume: lazy C_64
    /// from one source has candidate volume 2(2t+3) before step t+1, so
    /// 18/128 fires the ≥-threshold precisely entering step 4.
    pub fn boundary_digest() -> String {
        let g = gen::cycle(64);
        let reference = dense_trajectory(&g, 10, WalkKind::Lazy, 8);
        let mut ev = BlockEvolution::with_crossover(&g, &[10], WalkKind::Lazy, 18.0 / 128.0);
        for (t, want) in reference.iter().enumerate() {
            assert_eq!(&ev.lane_dist(0), want, "boundary mismatch at step {t}");
            assert_eq!(ev.is_dense(), t >= 4, "crossover fired off-boundary at {t}");
            ev.step();
        }
        format!("{:?}", reference.last().unwrap())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Frontier-sparse ≡ dense, bit-for-bit, across the crossover, at every
    /// pool width — unweighted and randomly weighted.
    #[test]
    fn engine_sparse_equals_dense((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let wg = gen::weighted::random_weights(g.clone(), 0.25, 4.0, seed ^ 0x51);
        let results = at_widths(|| {
            let a = evolution_engine::sparse_vs_dense_digest(&g, 0, WalkKind::Lazy, 18);
            let b = evolution_engine::sparse_vs_dense_digest(&wg, 0, WalkKind::Lazy, 18);
            format!("{a} || {b}")
        });
        for pair in results.windows(2) {
            prop_assert!(
                pair[0].1 == pair[1].1,
                "engine results drifted between widths {} and {}",
                pair[0].0,
                pair[1].0
            );
        }
    }

    /// Blocked ≡ one-source-at-a-time, bit-for-bit per lane, at block
    /// widths 1, 2, and 8, at every pool width — unweighted and weighted.
    #[test]
    fn engine_blocked_equals_solo((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let wg = gen::weighted::random_weights(g.clone(), 0.25, 4.0, seed ^ 0xB10C);
        let results = at_widths(|| {
            let mut digests = Vec::new();
            for block_width in [1usize, 2, 8] {
                let sources: Vec<usize> = (0..block_width).map(|j| (j * 3) % n).collect();
                digests.push(evolution_engine::blocked_vs_solo_digest(
                    &g, &sources, WalkKind::Lazy, 12,
                ));
                digests.push(evolution_engine::blocked_vs_solo_digest(
                    &wg, &sources, WalkKind::Lazy, 12,
                ));
            }
            digests.join(" || ")
        });
        for pair in results.windows(2) {
            prop_assert!(
                pair[0].1 == pair[1].1,
                "blocked results drifted between widths {} and {}",
                pair[0].0,
                pair[1].0
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The cache-blocked dense sweep (this PR): every destination-tile
    /// size — 1 (degenerate), odd (ragged last tile), larger than n
    /// (single tile) — and the width-adaptive default must be bit-identical
    /// to solo dense runs, at block widths 1/2/8 and at every pool width.
    /// Tiling only regroups the rows handed to `pull_block`; the per-row
    /// arithmetic never changes.
    #[test]
    fn engine_tiled_sweep_equals_solo((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let wg = gen::weighted::random_weights(g.clone(), 0.25, 4.0, seed ^ 0x71E);
        let results = at_widths(|| {
            let mut digests = Vec::new();
            for block_width in [1usize, 2, 8] {
                let sources: Vec<usize> = (0..block_width).map(|j| (j * 5) % n).collect();
                for tile in [None, Some(1), Some(7), Some(4096)] {
                    digests.push(evolution_engine::tiled_vs_solo_digest(
                        &g, &sources, WalkKind::Lazy, 10, tile,
                    ));
                    digests.push(evolution_engine::tiled_vs_solo_digest(
                        &wg, &sources, WalkKind::Lazy, 10, tile,
                    ));
                }
            }
            digests.join(" || ")
        });
        for pair in results.windows(2) {
            prop_assert!(
                pair[0].1 == pair[1].1,
                "tiled sweep drifted between widths {} and {}",
                pair[0].0,
                pair[1].0
            );
        }
    }
}

/// The crossover-threshold boundary case (candidate volume exactly at the
/// threshold) must behave identically — and stay bit-identical to dense —
/// at every pool width.
#[test]
fn engine_crossover_boundary_across_widths() {
    let results = at_widths(evolution_engine::boundary_digest);
    for pair in results.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "boundary digests drifted between widths {} and {}",
            pair[0].0, pair[1].0
        );
    }
}

/// Graph-wide sweeps (now blocked + engine-backed) must agree exactly with
/// the per-source wrappers at every pool width, unweighted and weighted.
#[test]
fn graph_sweeps_blocked_equal_per_source_across_widths() {
    let (g, _) = gen::ring_of_cliques_regular(3, 6); // n = 18: ragged block
    let wg = gen::weighted::uniform_weights(g.clone(), 1.5);
    let results = at_widths(|| {
        let eps = 1.0 / (8.0 * std::f64::consts::E);
        let swept = graph_mixing_time(&g, eps, WalkKind::Lazy, 100_000).unwrap();
        let per_source = (0..g.n())
            .map(|s| mixing_time(&g, s, eps, WalkKind::Lazy, 100_000).unwrap().tau)
            .max()
            .unwrap();
        assert_eq!(swept, per_source, "graph_mixing_time != max over sources");
        let o = LocalMixOptions::new(3.0);
        let local_swept = lmt_walks::local::graph_local_mixing_time(&wg, &o).unwrap();
        let local_per_source = (0..g.n())
            .map(|s| local_mixing_time(&wg, s, &o).unwrap().tau)
            .max()
            .unwrap();
        assert_eq!(local_swept, local_per_source, "graph τ(β,ε) != max over sources");
        format!("{swept} {local_swept}")
    });
    for pair in results.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "sweep results drifted between widths {} and {}",
            pair[0].0, pair[1].0
        );
    }
}

/// The τ-service layer (PR 8): concurrent multi-producer submissions
/// through the [`ServiceWorker`] coalescing loop must be bit-identical to
/// single-threaded direct `submit_batch` calls, at every pool width — and
/// a cache hit must reproduce the cache-miss answer exactly.
mod tau_service {
    use super::*;
    use std::sync::Arc;

    /// Lazy walks (well-defined on the bipartite even-cycle cases d = 2
    /// can produce, where a simple walk never mixes) and a modest cap so
    /// a capped verdict stays cheap.
    pub fn cfg() -> ServiceConfig {
        ServiceConfig {
            kind: WalkKind::Lazy,
            max_t: 20_000,
            ..ServiceConfig::default()
        }
    }

    /// Bit-faithful digest of a slice of answers (witness `l1` via
    /// `to_bits`, so equality is exact).
    pub fn digest(answers: &[TauAnswer]) -> String {
        answers
            .iter()
            .map(|a| match &a.result {
                Ok(r) => format!(
                    "s{}:tau={},size={},l1={:016x},nodes={:?}",
                    a.query.source,
                    r.tau,
                    r.witness.size,
                    r.witness.l1.to_bits(),
                    r.witness.nodes
                ),
                Err(e) => format!("s{}:err={e:?}", a.query.source),
            })
            .collect::<Vec<_>>()
            .join(" | ")
    }

    /// One producer thread per query, all racing into one worker; answers
    /// re-assembled in source order.
    pub fn concurrent_digest(g: &Graph, queries: &[TauQuery]) -> String {
        let worker = ServiceWorker::spawn(Arc::new(TauService::with_config(g.clone(), cfg())));
        let mut joins = Vec::new();
        for &q in queries {
            let client = worker.client();
            joins.push(std::thread::spawn(move || client.submit_wait(vec![q])));
        }
        let mut answers: Vec<TauAnswer> = joins
            .into_iter()
            .flat_map(|j| j.join().expect("producer thread"))
            .collect();
        answers.sort_by_key(|a| a.query.source);
        worker.shutdown();
        digest(&answers)
    }

    /// The single-threaded reference: one direct batch on a fresh service,
    /// already in source order.
    pub fn direct_digest(g: &Graph, queries: &[TauQuery]) -> String {
        digest(&TauService::with_config(g.clone(), cfg()).submit_batch(queries))
    }
}

proptest! {
    // Each case spawns one worker + producers per width; keep cases low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Concurrent multi-producer ≡ single-threaded, bit-for-bit, at pool
    /// widths 1, 2, and 8 — and no drift across widths.
    #[test]
    fn tau_service_concurrent_equals_single_threaded((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        // Distinct sources in ascending order (the concurrent digest
        // re-sorts by source, so answers line up positionally).
        let queries: Vec<TauQuery> = (0..4usize)
            .map(|j| TauQuery { source: (j * n) / 4, beta: 2.0, eps: 0.1 })
            .collect();
        let results = at_widths(|| {
            let direct = tau_service::direct_digest(&g, &queries);
            let concurrent = tau_service::concurrent_digest(&g, &queries);
            assert_eq!(
                direct, concurrent,
                "concurrent != single-threaded at width {}",
                rayon::current_num_threads()
            );
            direct
        });
        for pair in results.windows(2) {
            prop_assert!(
                pair[0].1 == pair[1].1,
                "service answers drifted between widths {} and {}",
                pair[0].0,
                pair[1].0
            );
        }
    }

    /// A cache hit replays the cache-miss answer exactly, at every width.
    #[test]
    fn tau_service_cache_hit_equals_miss((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let queries: Vec<TauQuery> = (0..3usize)
            .map(|j| TauQuery { source: (j * n) / 3, beta: 4.0, eps: 0.1 })
            .collect();
        let results = at_widths(|| {
            let service = TauService::with_config(g.clone(), tau_service::cfg());
            let miss = tau_service::digest(&service.submit_batch(&queries));
            let hit = tau_service::digest(&service.submit_batch(&queries));
            assert_eq!(miss, hit, "cache hit diverged from miss");
            assert_eq!(service.stats().cache_hits as usize, queries.len());
            miss
        });
        for pair in results.windows(2) {
            prop_assert!(
                pair[0].1 == pair[1].1,
                "cache digests drifted between widths {} and {}",
                pair[0].0,
                pair[1].0
            );
        }
    }
}

proptest! {
    // Each case runs Algorithm 2 from 2 sources × 2 engines × 3 widths;
    // keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Graph-wide τ(β,ε) via Algorithm 2 (sampled sources): the full
    /// per-source table, argmax, and aggregate CONGEST metrics.
    #[test]
    fn graph_tau_parallel_equals_sequential((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let results = at_widths(|| {
            both_engines(|engine| {
                let mut cfg = AlgoConfig::new(4.0);
                cfg.engine = engine;
                cfg.seed = seed ^ 0x7A0;
                cfg.kind = WalkKind::Lazy; // well-defined even if g is bipartite
                let r = graph_local_mixing_time_sampled(&g, &cfg, 2).expect("graph_tau");
                format!(
                    "tau={} argmax={} per_source={:?} metrics={:?}",
                    r.tau, r.argmax, r.per_source, r.metrics
                )
            })
        });
        assert_width_table!(results);
    }
}

/// The churn layer (PR 10): a `ChurnGraph` must be indistinguishable — to
/// the bit — from the static substrate it denotes. Two contracts:
/// zero churn ≡ static [`Graph`] (τ answers, flood fixed-point weights and
/// metrics, blocked-engine trajectories), and, after random valid edit
/// batches, churned ≡ a static rebuild of the post-edit topology — each at
/// pool widths 1/2/8 and engine block widths 1/2/8.
mod churn_layer {
    use super::*;

    /// Apply `batches` degree-preserving 2-swap batches drawn by a
    /// [`SwapDrawer`] seeded with `seed`, so every failure replays exactly.
    pub fn churned(g0: &Graph, batches: usize, seed: u64) -> ChurnGraph {
        let mut cg = ChurnGraph::new(g0.clone());
        let mut swaps = SwapDrawer::new(seed);
        for _ in 0..batches {
            if let Some(edits) = swaps.draw(cg.topology()) {
                cg.apply(&edits).expect("swap batch valid by construction");
            }
        }
        cg
    }

    /// Bit-faithful digest of everything the walk stack computes over `g`:
    /// τ-service answers, flood weights/scale/metrics, and blocked-engine
    /// final distributions at block widths 1, 2, and 8.
    pub fn full_digest<G: WalkGraph + FloodGraph + Clone>(
        g: &G,
        queries: &[TauQuery],
        t: usize,
        seed: u64,
    ) -> String {
        let service = TauService::with_config(g.clone(), tau_service::cfg());
        let tau = tau_service::digest(&service.submit_batch(queries));
        let n = g.n();
        let (weights, scale, m) = g
            .estimate_flood(0, 8, 6, WalkKind::Lazy, olog_budget(n, 10), EngineKind::Sequential, seed ^ 0xF1)
            .expect("flood");
        let flood = format!("{weights:?} | {scale:?} | {m:?}");
        let blocked: String = [1usize, 2, 8]
            .iter()
            .map(|&w| {
                let sources: Vec<usize> = (0..w).map(|j| (j * n) / w).collect();
                format!("{:?}", evolve_block(g, &sources, WalkKind::Lazy, t))
            })
            .collect::<Vec<_>>()
            .join(" ; ");
        format!("{tau} || {flood} || {blocked}")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A zero-edit `ChurnGraph` is the static graph, to the bit: τ answers,
    /// flood, and blocked trajectories all agree at every pool width.
    #[test]
    fn churn_zero_edit_equals_static((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let queries: Vec<TauQuery> = (0..3usize)
            .map(|j| TauQuery { source: (j * n) / 3, beta: 2.0, eps: 0.1 })
            .collect();
        let results = at_widths(|| {
            let s = churn_layer::full_digest(&g, &queries, 12, seed);
            let c = churn_layer::full_digest(&ChurnGraph::new(g.clone()), &queries, 12, seed);
            assert_eq!(s, c, "zero-churn ChurnGraph diverged from the static graph");
            s
        });
        for pair in results.windows(2) {
            prop_assert!(
                pair[0].1 == pair[1].1,
                "churn digests drifted between widths {} and {}",
                pair[0].0,
                pair[1].0
            );
        }
    }

    /// After random degree-preserving edit batches, the churned graph and
    /// a fresh builder rebuild of its post-edit topology are bitwise
    /// identical.
    #[test]
    fn churn_equals_static_rebuild((n, d, seed) in regular_spec()) {
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        let cg = churn_layer::churned(&g, 3, seed ^ 0xC0FF_EE00);
        prop_assume!(cg.topology() != &g);
        let mut b = GraphBuilder::new(n);
        b.extend_edges(cg.topology().edges());
        let rebuilt = b.build();
        prop_assert!(&rebuilt == cg.topology());
        let queries: Vec<TauQuery> = (0..3usize)
            .map(|j| TauQuery { source: (j * n) / 3, beta: 2.0, eps: 0.1 })
            .collect();
        let results = at_widths(|| {
            let a = churn_layer::full_digest(&cg, &queries, 12, seed);
            let c = churn_layer::full_digest(&rebuilt, &queries, 12, seed);
            assert_eq!(a, c, "churned graph diverged from a static rebuild");
            a
        });
        for pair in results.windows(2) {
            prop_assert!(
                pair[0].1 == pair[1].1,
                "churned digests drifted between widths {} and {}",
                pair[0].0,
                pair[1].0
            );
        }
    }
}

/// Tree phases on a flat BFS tree (neither takes an engine): a broadcast
/// and a convergecast per operation on a spanning expander tree, the same
/// at every pool width.
#[test]
fn tree_phases_deterministic_across_widths() {
    use lmt_congest::tree::{broadcast, convergecast, Op, Wide};
    let g = gen::random_regular(600, 6, 21);
    let budget = olog_budget(g.n(), 16);
    let results = at_widths(|| {
        let (tree, _) = build_bfs_tree(&g, 0, u32::MAX, budget, EngineKind::Sequential, 1).expect("bfs");
        let down = broadcast(&tree, Wide::new(77, 8), budget).expect("bcast");
        let mut out = format!("{down:?}");
        for op in [Op::Min, Op::Max, Op::Sum] {
            let up = convergecast(
                &tree,
                op,
                |id| (id % 3 != 0).then(|| Wide::new((id * 37 % 1000) as u128, 24)),
                budget,
            )
            .expect("convergecast");
            out += &format!("{up:?}");
        }
        out
    });
    for pair in results.windows(2) {
        assert_eq!(pair[0].1, pair[1].1, "results drifted between widths {} and {}", pair[0].0, pair[1].0);
    }
}

/// Algorithm 2 pinned end to end: ℓ, the accepted size and sum, the full
/// CONGEST [`Metrics`] and every per-iteration log, on fixed graphs, with
/// both engines at every pool width. The literals were recorded from the
/// one-network-per-phase implementation, so any change to the simulator
/// that moves a single round, message or bit of Algorithm 2 fails here.
mod algo2_pin {
    use super::*;

    /// `(ell, bfs_depth, tree_reached, sizes_checked, rounds)` per doubling
    /// iteration.
    type Iter = (u64, u32, usize, usize, u64);

    pub struct Pin {
        pub ell: u64,
        pub accepted_size: usize,
        pub accepted_sum_bits: u64,
        pub metrics: Metrics,
        pub iterations: &'static [Iter],
    }

    fn metrics(rounds: u64, messages: u64, bits: u64, max_edge_bits: u32) -> Metrics {
        Metrics {
            rounds,
            messages,
            bits,
            max_edge_bits,
            ..Metrics::default()
        }
    }

    /// `random_regular(256, 8, 3)` from node 17 with β = 2.
    pub fn regular() -> (Graph, usize, f64, Pin) {
        let pin = Pin {
            ell: 8,
            accepted_size: 210,
            accepted_sum_bits: 0x3fc55f2f7b1fe400,
            metrics: metrics(15039, 768855, 22321014, 59),
            iterations: &[
                (1, 1, 9, 17, 1614),
                (2, 2, 57, 17, 3231),
                (4, 4, 256, 17, 6173),
                (8, 4, 256, 12, 4021),
            ],
        };
        (gen::random_regular(256, 8, 3), 17, 2.0, pin)
    }

    /// `ring_of_cliques_regular(5, 8)` from node 7 with β = 2: depth-limited
    /// trees (the `Outside` fold) for every ℓ, since D = 7 < n.
    pub fn clique_ring() -> (Graph, usize, f64, Pin) {
        let pin = Pin {
            ell: 128,
            accepted_size: 32,
            accepted_sum_bits: 0x3fc60102f166e009,
            metrics: metrics(37704, 279545, 6236444, 40),
            iterations: &[
                (1, 1, 8, 16, 993),
                (2, 2, 15, 16, 1985),
                (4, 4, 24, 16, 3897),
                (8, 7, 40, 16, 6736),
                (16, 7, 40, 16, 6674),
                (32, 7, 40, 16, 6550),
                (64, 7, 40, 16, 6498),
                (128, 7, 40, 11, 4371),
            ],
        };
        (gen::ring_of_cliques_regular(5, 8).0, 7, 2.0, pin)
    }

    pub fn check(g: &Graph, src: usize, beta: f64, pin: &Pin) {
        for engine in [EngineKind::Sequential, EngineKind::Parallel] {
            let mut cfg = AlgoConfig::new(beta);
            cfg.engine = engine;
            let r = local_mixing_time_approx(g, src, &cfg).expect("Algorithm 2 accepts");
            assert_eq!(r.ell, pin.ell, "{engine:?}");
            assert_eq!(r.accepted_size, pin.accepted_size, "{engine:?}");
            assert_eq!(r.accepted_sum.to_bits(), pin.accepted_sum_bits, "{engine:?}");
            assert_eq!(r.metrics, pin.metrics, "{engine:?}");
            let iters: Vec<Iter> = r
                .iterations
                .iter()
                .map(|i| (i.ell, i.bfs_depth, i.tree_reached, i.sizes_checked, i.rounds))
                .collect();
            assert_eq!(iters, pin.iterations, "{engine:?}");
        }
    }
}

#[test]
fn algo2_pinned_across_engines_and_widths() {
    for (g, src, beta, pin) in [algo2_pin::regular(), algo2_pin::clique_ring()] {
        at_widths(|| algo2_pin::check(&g, src, beta, &pin));
    }
}

/// One Algorithm 2 query at n = 2¹⁴ (d = 8, β = 8, perfbench's seeding
/// with seed 14) pinned exactly: ℓ, R, the accepted sum's bits, the full
/// [`Metrics`] and every per-iteration log. The literals were recorded
/// from the message-passing BFS and the pass-per-phase binary search, so
/// the flat BFS and the ranked search must reproduce every round, message
/// and bit at a scale the small pins do not reach. `#[ignore]`d since a
/// debug build takes over a second (release: about 0.1 s); CI runs
/// `cargo test --release --test determinism -- --ignored`.
#[test]
#[ignore]
fn algo2_query_at_2_14_pinned() {
    use lmt_util::rng::{fork, stream_seed};
    use rand::Rng;
    let n = 1 << 14;
    let g = gen::random_regular(n, 8, stream_seed(14, 0));
    let src = fork(stream_seed(14, 1), 0).gen_range(0..n);
    let r = local_mixing_time_approx(&g, src, &AlgoConfig::new(8.0)).expect("Algorithm 2 accepts");
    let metrics = Metrics {
        rounds: 137_371,
        messages: 249_729_860,
        bits: 11_847_926_014,
        max_edge_bits: 101,
        ..Metrics::default()
    };
    assert_eq!(src, 12_998);
    assert_eq!((r.ell, r.accepted_size, r.accepted_sum.to_bits()), (16, 13_534, 0x3fc5_e8f8_7269_a8bb));
    assert_eq!(r.metrics, metrics);
    let iters: Vec<_> = r
        .iterations
        .iter()
        .map(|i| (i.ell, i.bfs_depth, i.tree_reached, i.sizes_checked, i.rounds))
        .collect();
    assert_eq!(
        iters,
        [
            (1, 1, 9, 48, 8_017),
            (2, 2, 65, 48, 16_033),
            (4, 4, 2_954, 48, 31_257),
            (8, 6, 16_384, 48, 44_943),
            (16, 6, 16_384, 43, 37_121),
        ]
    );
}
