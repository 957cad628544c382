//! Randomized families: random d-regular graphs (the paper's stand-in for
//! d-regular expanders), Erdős–Rényi, and composite expander chains.

use crate::builder::check_edge_slots;
use crate::csr::EdgeIndex;
use crate::{Graph, GraphBuilder};
use lmt_util::rng::fork;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;

/// Stub count below which [`random_regular`] runs on the calling thread
/// with the plain shuffle: a stub list this small (2 MiB) stays in cache,
/// so drawing ahead gains nothing and spawning workers costs more than
/// they save. The benchmarks' 2⁹- and 2¹¹-node graphs are far below it.
const INLINE_STUBS: usize = 1 << 19;

/// Fisher–Yates draws per block, taken ahead of the block's swaps. Two
/// blocks of `u32`s (512 KiB) fit in L2.
const DRAW_BLOCK: usize = 1 << 16;

/// Random `d`-regular simple graph on `n` nodes via the configuration model
/// with **edge-swap repair**.
///
/// Whole-matching retries are hopeless for moderate degrees (a pairing is
/// simple with probability `≈ e^{−(d²−1)/4}`, i.e. ~10⁻⁴ at `d = 6`), so
/// after the initial random pairing we repair each self-loop / duplicate by
/// 2-swapping it against a random healthy pair — each accepted swap strictly
/// reduces the defect count, so the loop terminates quickly in practice.
///
/// A random d-regular graph is an expander with high probability, which is
/// exactly how §2.3(b) uses the family (`τ_s = τ_mix = Θ(log n)`).
///
/// The draw sequence is the contract: the graph is a function of
/// `(n, d, seed)` alone, fixed by a Fisher–Yates shuffle of the stub list
/// (`j = gen_range(0..i + 1)` for `i = n·d − 1 … 1`) and then the
/// repair's draws from the same generator. How the work is scheduled
/// (pool width, inline or not) never changes a byte.
///
/// # Stub-slot table
///
/// Every node owns exactly `d` stubs, so one array of `n·d` slots, row `u`
/// = `u·d..u·d + d`, holds the partner of each stub. The multiplicity of
/// `{a, b}` is the number of `b`s in row `a` (a self-loop puts `a` twice in
/// row `a`), an accepted swap rewrites one slot in each of the four rows it
/// touches, and once the pairing is simple the rows, sorted, *are* the CSR
/// neighbor array with offsets `u·d`. The first defect pass checks only the
/// pairs whose first endpoint's row has a repeated entry (a self-loop puts
/// its node twice in its row); later passes rescan only the previous
/// defect list, since a swap only ever creates a pair whose multiplicity
/// was 0, so no pair off that list can turn defective.
///
/// Cost: one shuffle of the `n·d` stubs, two scattered writes per pair, a
/// sort of every length-`d` row, and `O(d)` work per swap attempt. From
/// `INLINE_STUBS` = 2¹⁹ stubs on, the work goes to the pool
/// (`LMT_THREADS` wide):
/// - the shuffle takes its draws `DRAW_BLOCK` = 2¹⁶ ahead of their swaps, so
///   the swaps' cache misses overlap, and a second worker draws the next
///   block while the current one swaps;
/// - the slot fill, the row sort and the row flags of the first defect
///   pass run one range of rows per worker. Each worker scans every pair
///   in order and writes only its own rows, so each row's contents and
///   order are those of a sequential fill.
///
/// Below `INLINE_STUBS` nothing is spawned. EXPERIMENTS.md times the
/// stages at `n = 2²⁰` and `2²⁴`.
///
/// Peak heap is `8·n·d + 4·n` bytes plus two blocks of draws (stub list,
/// slot table, per-row fill counters, which then hold the row flags):
/// 1.06 GiB at `n = 2²⁴, d = 8`. Workers allocate nothing; they write only
/// into the caller's buffers. The slot table is kept as the returned
/// graph's neighbor array.
///
/// # Panics
/// Panics if `n·d` is odd, `d ≥ n`, the edge slots `n·d + n` overflow the
/// compact `u32` offsets (before anything is allocated), or repair stalls.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    random_regular_with(n, d, seed, INLINE_STUBS, rayon::current_num_threads)
}

/// [`random_regular`] with the inline threshold and the pool width as
/// parameters (`width` is only asked for at or above `inline_stubs`
/// stubs): tests run the pooled fill on small graphs through it.
fn random_regular_with(
    n: usize,
    d: usize,
    seed: u64,
    inline_stubs: usize,
    width: impl FnOnce() -> usize,
) -> Graph {
    assert!(d >= 1, "random_regular: d must be ≥ 1");
    assert!(d < n, "random_regular: need d < n");
    check_edge_slots(n.saturating_mul(d), n).expect("edge slots exceed u32 offset range");
    assert!(
        (n * d).is_multiple_of(2),
        "random_regular: n·d must be even"
    );
    if d == n - 1 {
        // The unique (n−1)-regular graph is K_n; the swap repair has zero
        // slack there (every pair must appear exactly once).
        return crate::gen::complete(n);
    }
    let mut rng = fork(seed, 0xD_1234);
    // Stubs: node u appears d times; pair consecutively after a shuffle.
    let mut stubs: Vec<u32> = Vec::with_capacity(n * d);
    for u in 0..n as u32 {
        for _ in 0..d {
            stubs.push(u);
        }
    }
    // Small tables stay in cache: the plain shuffle, nothing spawned.
    let workers = if n * d < inline_stubs {
        stubs.shuffle(&mut rng);
        1
    } else {
        let workers = width().clamp(1, n);
        shuffle_ahead(&mut stubs, &mut rng, workers > 1);
        workers
    };
    let pair_count = stubs.len() / 2;

    // The stub-slot table, filled, sorted and flagged by row range. Fits:
    // n·d < u32::MAX (guard above).
    let mut slots = vec![0u32; n * d];
    let mut fill = vec![0u32; n];
    if workers == 1 {
        fill_rows(&stubs, d, 0, &mut slots, &mut fill);
    } else {
        let rows_per = n.div_ceil(workers);
        slots
            .par_chunks_mut(rows_per * d)
            .zip(fill.par_chunks_mut(rows_per))
            .enumerate()
            .for_each(|(k, (rows, fill))| fill_rows(&stubs, d, k * rows_per, rows, fill));
    }
    // Pack the row flags into bits, in place: the first defect pass looks
    // them up at random, and n/8 bytes stay in cache where 4·n do not.
    for w in 0..n.div_ceil(32) {
        let rows = 32 * w..(32 * w + 32).min(n);
        fill[w] = fill[rows].iter().rev().fold(0, |bits, &f| (bits << 1) | f);
    }
    let flagged = |u: u32| (fill[u as usize / 32] >> (u % 32)) & 1 == 1;
    let row = |u: u32| u as usize * d..(u as usize + 1) * d;
    // Multiplicity of {a, b} for a ≠ b: the number of b's in row a.
    let count = |slots: &[u32], a: u32, b: u32| slots[row(a)].iter().filter(|&&x| x == b).count();
    let pair = |stubs: &[u32], i: usize| (stubs[2 * i], stubs[2 * i + 1]);
    let is_bad = |slots: &[u32], (a, b): (u32, u32)| a == b || count(slots, a, b) > 1;

    let mut bad: Vec<usize> = (0..pair_count)
        .filter(|&i| flagged(stubs[2 * i]) && is_bad(&slots, pair(&stubs, i)))
        .collect();
    drop(fill);

    // Rows rewritten by a swap; re-sorted once repair is done.
    let mut touched: Vec<u32> = Vec::new();
    let mut guard = 0usize;
    while !bad.is_empty() {
        guard += 1;
        assert!(
            guard <= 200,
            "random_regular({n},{d}): repair stalled with {} defects",
            bad.len()
        );
        for &i in &bad {
            if !is_bad(&slots, pair(&stubs, i)) {
                continue; // fixed as a side effect of an earlier swap
            }
            for _ in 0..200 {
                let j = rng.gen_range(0..pair_count);
                if j == i {
                    continue;
                }
                let ((a, b), (c, e)) = (pair(&stubs, i), pair(&stubs, j));
                // Propose (a,b),(c,e) → (a,e),(c,b).
                if a == e || c == b {
                    continue;
                }
                if (a.min(e), a.max(e)) == (c.min(b), c.max(b))
                    || count(&slots, a, e) > 0
                    || count(&slots, c, b) > 0
                {
                    continue;
                }
                // Accept: defect at i disappears; j stays simple.
                for (u, old, new) in [(a, b, e), (b, a, c), (c, e, b), (e, c, a)] {
                    let r = &mut slots[row(u)];
                    let k = r
                        .iter()
                        .position(|&x| x == old)
                        .expect("stub-slot table out of sync");
                    r[k] = new;
                }
                touched.extend([a, b, c, e]);
                stubs[2 * i + 1] = e;
                stubs[2 * j + 1] = b;
                break;
            }
        }
        // A pair no swap touched can only have lost multiplicity, and a
        // swapped-in pair enters with multiplicity 1: the next defects are
        // a subset of these, in the same order.
        bad.retain(|&i| is_bad(&slots, pair(&stubs, i)));
    }
    drop(stubs);

    for u in touched {
        slots[row(u)].sort_unstable();
    }
    // Fits: every offset is ≤ n·d < u32::MAX (guard above).
    let offsets: Vec<EdgeIndex> = (0..=n).map(|u| (u * d) as EdgeIndex).collect();
    Graph::from_raw(offsets, slots)
}

/// `stubs.shuffle(rng)`: the same draws in the same order, so the same
/// permutation and the same generator state after, taken a block of
/// [`DRAW_BLOCK`] ahead of their swaps. Each swap's address is then known
/// early and the swaps' cache misses overlap. With `pooled`, a scoped
/// worker draws the next block while this thread swaps the current one;
/// it writes only into the caller's buffer.
fn shuffle_ahead(stubs: &mut [u32], rng: &mut SmallRng, pooled: bool) {
    // Positions i = end − 1 … start of the block below `end`, if any.
    let below = |end: usize| (end > 1).then(|| (end.saturating_sub(DRAW_BLOCK).max(1), end));
    // Fits: j ≤ i < n·d < u32::MAX.
    let draw = |rng: &mut SmallRng, js: &mut [u32], (start, end): (usize, usize)| {
        for (j, i) in js[..end - start].iter_mut().zip((start..end).rev()) {
            *j = rng.gen_range(0..i + 1) as u32;
        }
    };
    let swap = |stubs: &mut [u32], js: &[u32], (start, end): (usize, usize)| {
        for (&j, i) in js.iter().zip((start..end).rev()) {
            stubs.swap(i, j as usize);
        }
    };
    let Some(mut block) = below(stubs.len()) else {
        return;
    };
    // Room for one block, or two to alternate between.
    let draws = stubs.len() - 1;
    let mut buf = vec![0u32; draws.min(2 * DRAW_BLOCK)];
    let (mut cur, mut next) = buf.split_at_mut(draws.min(DRAW_BLOCK));
    draw(rng, cur, block);
    while let Some(after) = below(block.0) {
        if pooled {
            std::thread::scope(|s| {
                s.spawn(|| draw(rng, next, after));
                swap(stubs, cur, block);
            });
        } else {
            swap(stubs, cur, block);
            draw(rng, next, after);
        }
        (cur, next) = (next, cur);
        block = after;
    }
    swap(stubs, cur, block);
}

/// Fill rows `first..first + fill.len()` of the stub-slot table (`rows`,
/// `d` slots each) from the pairing in `stubs`, sort them, and leave in
/// `fill[r]` whether row `first + r` has a repeated entry: only such a row
/// can be a defective pair's first endpoint (a self-loop puts its node
/// twice in its row). Sorting a row reorders nothing a multiplicity count
/// can see.
fn fill_rows(stubs: &[u32], d: usize, first: usize, rows: &mut [u32], fill: &mut [u32]) {
    let (first, len) = (first as u32, fill.len() as u32);
    for p in stubs.chunks_exact(2) {
        for (a, b) in [(p[0], p[1]), (p[1], p[0])] {
            let r = a.wrapping_sub(first);
            if r < len {
                let r = r as usize;
                rows[r * d + fill[r] as usize] = b;
                fill[r] += 1;
            }
        }
    }
    for (row, flag) in rows.chunks_exact_mut(d).zip(fill) {
        row.sort_unstable();
        *flag = u32::from(row.windows(2).any(|w| w[0] == w[1]));
    }
}

/// The former map-based generator (SipHash multiplicity map, full defect
/// rescans, comparison-sort builder), kept as the differential reference
/// for [`random_regular`].
#[cfg(test)]
pub(crate) fn random_regular_reference(n: usize, d: usize, seed: u64) -> Graph {
    assert!(d >= 1, "random_regular: d must be ≥ 1");
    assert!(d < n, "random_regular: need d < n");
    assert!(
        (n * d).is_multiple_of(2),
        "random_regular: n·d must be even"
    );
    if d == n - 1 {
        return crate::gen::complete(n);
    }
    let mut rng = fork(seed, 0xD_1234);
    let mut stubs: Vec<u32> = Vec::with_capacity(n * d);
    for u in 0..n as u32 {
        for _ in 0..d {
            stubs.push(u);
        }
    }
    stubs.shuffle(&mut rng);
    let mut pairs: Vec<(u32, u32)> = stubs.chunks_exact(2).map(|c| (c[0], c[1])).collect();

    use std::collections::HashMap;
    let norm = |a: u32, b: u32| (a.min(b), a.max(b));
    let mut multiplicity: HashMap<(u32, u32), u32> = HashMap::with_capacity(pairs.len());
    for &(a, b) in &pairs {
        *multiplicity.entry(norm(a, b)).or_insert(0) += 1;
    }
    let is_bad =
        |(a, b): (u32, u32), mult: &HashMap<(u32, u32), u32>| a == b || mult[&norm(a, b)] > 1;

    let mut guard = 0usize;
    loop {
        let bad: Vec<usize> = (0..pairs.len())
            .filter(|&i| is_bad(pairs[i], &multiplicity))
            .collect();
        if bad.is_empty() {
            break;
        }
        guard += 1;
        assert!(
            guard <= 200,
            "random_regular({n},{d}): repair stalled with {} defects",
            bad.len()
        );
        for i in bad {
            if !is_bad(pairs[i], &multiplicity) {
                continue;
            }
            for _ in 0..200 {
                let j = rng.gen_range(0..pairs.len());
                if j == i {
                    continue;
                }
                let (a, b) = pairs[i];
                let (c, e) = pairs[j];
                if a == e || c == b {
                    continue;
                }
                let new1 = norm(a, e);
                let new2 = norm(c, b);
                if new1 == new2
                    || multiplicity.get(&new1).copied().unwrap_or(0) > 0
                    || multiplicity.get(&new2).copied().unwrap_or(0) > 0
                {
                    continue;
                }
                *multiplicity.get_mut(&norm(a, b)).unwrap() -= 1;
                *multiplicity.get_mut(&norm(c, e)).unwrap() -= 1;
                *multiplicity.entry(new1).or_insert(0) += 1;
                *multiplicity.entry(new2).or_insert(0) += 1;
                pairs[i] = (a, e);
                pairs[j] = (c, b);
                break;
            }
        }
    }

    let mut b = GraphBuilder::new(n);
    for &(u, v) in &pairs {
        b.add_edge(u as usize, v as usize);
    }
    let g = b.build_by_sort();
    assert_eq!(g.m(), n * d / 2, "repair produced a non-simple multigraph");
    g
}

/// Erdős–Rényi `G(n, p)`.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "erdos_renyi: p out of [0,1]");
    let mut rng = fork(seed, 0xE_5678);
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < p {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// A path (or ring) of `beta` random `d`-regular expanders of `k` nodes each,
/// consecutive blocks joined by a single bridge edge — the "class of graphs
/// with β equal-sized connected components, which have very small mixing time
/// such as expanders, that are connected via a path or ring" from §2.3(d).
///
/// `close_ring` selects ring (true) vs path (false) topology.
pub fn ring_of_expanders(beta: usize, k: usize, d: usize, seed: u64, close_ring: bool) -> Graph {
    assert!(beta >= 2, "ring_of_expanders needs β ≥ 2");
    assert!(k > d && d >= 3, "ring_of_expanders needs k > d ≥ 3");
    let n = beta * k;
    let mut b = GraphBuilder::new(n);
    for i in 0..beta {
        let block = random_regular(k, d, fork(seed, i as u64).gen());
        let base = i * k;
        for (u, v) in block.edges() {
            b.add_edge(base + u, base + v);
        }
    }
    let links = if close_ring { beta } else { beta - 1 };
    for i in 0..links {
        let from = i * k; // first node of block i
        let to = ((i + 1) % beta) * k + k - 1; // last node of next block
        b.add_edge(from, to);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::components;

    #[test]
    fn random_regular_is_regular() {
        let g = random_regular(50, 4, 7);
        assert_eq!(g.n(), 50);
        assert_eq!(g.m(), 100);
        for u in 0..50 {
            assert_eq!(g.degree(u), 4);
        }
        assert!(g.validate().is_ok());
    }

    #[test]
    fn random_regular_deterministic_in_seed() {
        let a = random_regular(30, 3, 42);
        let b = random_regular(30, 3, 42);
        let c = random_regular(30, 3, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_regular_d3_usually_connected() {
        // d ≥ 3 random regular graphs are connected whp.
        let g = random_regular(200, 3, 1);
        let (_, count) = components(&g);
        assert_eq!(count, 1);
    }

    /// `(n, d)` cases for the differential tests against
    /// [`random_regular_reference`]; infeasible ones are skipped.
    fn reference_cases() -> Vec<(usize, usize)> {
        let mut cases: Vec<(usize, usize)> = Vec::new();
        for n in [16, 17, 30, 257] {
            cases.extend((1..=15).map(|d| (n, d)));
        }
        // Dense: repair works hard, often for several passes.
        cases.extend([
            (12, 9),
            (12, 10),
            (8, 6),
            (10, 8),
            (16, 14),
            (17, 15),
            (40, 37),
        ]);
        // d = n − 1 goes through `complete`.
        cases.extend([(2, 1), (6, 5), (16, 15)]);
        cases.push((1 << 12, 8));
        // Three draw blocks, the last one partial.
        cases.push((1 << 13, 17));
        cases.retain(|&(n, d)| d < n && (n * d) % 2 == 0);
        cases
    }

    #[test]
    fn stub_slot_table_matches_map_reference() {
        for (n, d) in reference_cases() {
            for seed in 0..4 {
                assert_eq!(
                    outcome(|| random_regular(n, d, seed)),
                    outcome(|| random_regular_reference(n, d, seed)),
                    "random_regular({n}, {d}, {seed})"
                );
            }
        }
    }

    /// The pooled path (shuffle drawn ahead, row-range fill) with no
    /// inline threshold, at pool widths that split the rows evenly and
    /// unevenly: the same graph, or the same stalled-repair panic, as the
    /// reference.
    #[test]
    fn pooled_fill_matches_map_reference() {
        for (n, d) in reference_cases() {
            for seed in 0..4 {
                let want = outcome(|| random_regular_reference(n, d, seed));
                for width in [1, 2, 3, 8] {
                    assert_eq!(
                        outcome(|| random_regular_with(n, d, seed, 0, || width)),
                        want,
                        "random_regular({n}, {d}, {seed}) at width {width}"
                    );
                }
            }
        }
    }

    /// The graph, or the panic message: a stalled repair (e.g. at
    /// `d = n − 2` for odd `n`) must stall identically, defect count
    /// included.
    fn outcome(f: impl FnOnce() -> Graph + std::panic::UnwindSafe) -> Result<Graph, String> {
        std::panic::catch_unwind(f).map_err(|e| match e.downcast::<String>() {
            Ok(msg) => *msg,
            Err(e) => e
                .downcast_ref::<&str>()
                .map_or_else(String::new, |s| s.to_string()),
        })
    }

    #[test]
    #[should_panic(expected = "edge slots exceed u32 offset range")]
    fn oversized_stub_count_panics_before_allocating() {
        // n·d = 2³², a 16 GiB stub array if it were allocated.
        let _ = random_regular(1 << 29, 8, 0);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_total_degree_rejected() {
        let _ = random_regular(5, 3, 0);
    }

    #[test]
    fn full_degree_gives_complete_graph() {
        let g = random_regular(6, 5, 3);
        assert_eq!(g.m(), 15);
        for u in 0..6 {
            assert_eq!(g.degree(u), 5);
        }
    }

    #[test]
    fn near_full_degree_repairable() {
        // d = n−2 still has swap slack; must not stall.
        let g = random_regular(8, 6, 11);
        assert_eq!(lmt_util_regularity_check(&g), Some(6));
    }

    fn lmt_util_regularity_check(g: &crate::Graph) -> Option<usize> {
        crate::props::regularity(g)
    }

    #[test]
    fn erdos_renyi_extremes() {
        let empty = erdos_renyi(10, 0.0, 0);
        assert_eq!(empty.m(), 0);
        let full = erdos_renyi(10, 1.0, 0);
        assert_eq!(full.m(), 45);
    }

    #[test]
    fn expander_chain_structure() {
        let g = ring_of_expanders(3, 20, 4, 9, false);
        assert_eq!(g.n(), 60);
        // 3 blocks of 40 edges + 2 bridges.
        assert_eq!(g.m(), 3 * 40 + 2);
        let (_, count) = components(&g);
        assert_eq!(count, 1);

        let ring = ring_of_expanders(3, 20, 4, 9, true);
        assert_eq!(ring.m(), 3 * 40 + 3);
    }
}
