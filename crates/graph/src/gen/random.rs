//! Randomized families: random d-regular graphs (the paper's stand-in for
//! d-regular expanders), Erdős–Rényi, and composite expander chains.

use crate::builder::check_edge_slots;
use crate::csr::EdgeIndex;
use crate::{Graph, GraphBuilder};
use lmt_util::rng::fork;
use rand::seq::SliceRandom;
use rand::Rng;

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
/// # Stub-slot table
///
/// Every node owns exactly `d` stubs, so one array of `n·d` slots, row `u`
/// = `u·d..u·d + d`, holds the partner of each stub. The multiplicity of
/// `{a, b}` is the number of `b`s in row `a` (a self-loop puts `a` twice in
/// row `a`), an accepted swap rewrites one slot in each of the four rows it
/// touches, and once the pairing is simple the rows, sorted, *are* the CSR
/// neighbor array with offsets `u·d`. The first defect pass checks only the
/// pairs whose first endpoint's row has a repeated entry or its own id;
/// later passes rescan only the previous defect list, since a swap only
/// ever creates a pair whose multiplicity was 0, so no pair off that list
/// can turn defective.
///
/// Cost: one shuffle of the `n·d` stubs, two scattered writes per pair, a
/// sort of every length-`d` row, and `O(d)` work per swap attempt. Peak
/// heap is `8·n·d + 4·n` bytes (stub list, slot table, per-row fill
/// counters): 1.06 GiB at `n = 2²⁴, d = 8`. The slot table is kept as the
/// returned graph's neighbor array.
///
/// # Panics
/// Panics if `n·d` is odd, `d ≥ n`, the edge slots `n·d + n` overflow the
/// compact `u32` offsets (before anything is allocated), or repair stalls.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
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
    stubs.shuffle(&mut rng);
    let pair_count = stubs.len() / 2;

    // The stub-slot table. Fits: n·d < u32::MAX (guard above).
    let mut slots = vec![0u32; n * d];
    let mut fill = vec![0u32; n];
    for p in stubs.chunks_exact(2) {
        for (a, b) in [(p[0], p[1]), (p[1], p[0])] {
            slots[a as usize * d + fill[a as usize] as usize] = b;
            fill[a as usize] += 1;
        }
    }
    drop(fill);
    let row = |u: u32| u as usize * d..(u as usize + 1) * d;
    // Multiplicity of {a, b} for a ≠ b: the number of b's in row a.
    let count = |slots: &[u32], a: u32, b: u32| slots[row(a)].iter().filter(|&&x| x == b).count();
    let pair = |stubs: &[u32], i: usize| (stubs[2 * i], stubs[2 * i + 1]);
    let is_bad = |slots: &[u32], (a, b): (u32, u32)| a == b || count(slots, a, b) > 1;

    // First pass: only a row with a repeated entry or its own id can hold
    // a defective pair's first endpoint. Sorting a row reorders nothing a
    // count can see.
    let mut flagged = vec![false; n];
    for (u, r) in slots.chunks_exact_mut(d).enumerate() {
        r.sort_unstable();
        flagged[u] = r.windows(2).any(|w| w[0] == w[1]) || r.binary_search(&(u as u32)).is_ok();
    }
    let mut bad: Vec<usize> = (0..pair_count)
        .filter(|&i| flagged[stubs[2 * i] as usize] && is_bad(&slots, pair(&stubs, i)))
        .collect();
    drop(flagged);

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

    #[test]
    fn stub_slot_table_matches_map_reference() {
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
        for (n, d) in cases {
            if d >= n || (n * d) % 2 == 1 {
                continue;
            }
            for seed in 0..4 {
                assert_eq!(
                    outcome(|| random_regular(n, d, seed)),
                    outcome(|| random_regular_reference(n, d, seed)),
                    "random_regular({n}, {d}, {seed})"
                );
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
