//! Elementary families: complete, path, cycle, star, complete bipartite.
//!
//! `path` and `cycle` assemble their (trivially sorted) CSR arrays
//! directly instead of going through [`GraphBuilder`]: the builder keeps
//! every inserted edge (8 bytes) until its counting sort has scattered
//! both directions into the neighbor array, with a `usize` cursor per
//! node — 8 bytes per edge and 8 per node of transient memory on top of
//! the result, for a structure whose adjacency is known in closed form.
//! The emitted graphs are element-for-element identical to the builder's
//! output (both are checked by `Graph::validate` in debug builds, and the
//! regression tests below pin the equality).

use crate::csr::EdgeIndex;
use crate::{Graph, GraphBuilder};

/// Complete graph `K_n` (§2.3(a): `τ_s = τ_mix = O(1)`).
///
/// # Panics
/// Panics if `n < 2` (a single node has no walk to mix).
pub fn complete(n: usize) -> Graph {
    assert!(n >= 2, "complete graph needs n ≥ 2");
    let mut b = GraphBuilder::new(n);
    b.reserve(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Path `P_n` on nodes `0 — 1 — … — n−1` (§2.3(c): `τ_mix = O(n²)`,
/// `τ_s = O(n²/β²)`).
pub fn path(n: usize) -> Graph {
    assert!(n >= 2, "path needs n ≥ 2");
    crate::builder::check_edge_slots(2 * (n - 1), n).expect("path exceeds u32 offset range");
    let mut offsets: Vec<EdgeIndex> = Vec::with_capacity(n + 1);
    let mut neighbors: Vec<u32> = Vec::with_capacity(2 * (n - 1));
    offsets.push(0);
    for i in 0..n {
        if i > 0 {
            neighbors.push((i - 1) as u32);
        }
        if i + 1 < n {
            neighbors.push((i + 1) as u32);
        }
        offsets.push(neighbors.len() as EdgeIndex);
    }
    Graph::from_raw(offsets, neighbors)
}

/// Cycle `C_n`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs n ≥ 3");
    crate::builder::check_edge_slots(2 * n, n).expect("cycle exceeds u32 offset range");
    let mut offsets: Vec<EdgeIndex> = Vec::with_capacity(n + 1);
    let mut neighbors: Vec<u32> = Vec::with_capacity(2 * n);
    offsets.push(0);
    for i in 0..n {
        // Sorted adjacency {i−1 mod n, i+1 mod n}.
        let (a, b) = (((i + n - 1) % n) as u32, ((i + 1) % n) as u32);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        neighbors.push(lo);
        neighbors.push(hi);
        offsets.push(neighbors.len() as EdgeIndex);
    }
    Graph::from_raw(offsets, neighbors)
}

/// Star: node 0 is the hub, `1..n` are leaves.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "star needs n ≥ 2");
    let mut b = GraphBuilder::new(n);
    b.extend_edges((1..n).map(|v| (0, v)));
    b.build()
}

/// Complete bipartite `K_{a,b}`: parts `0..a` and `a..a+b`.
pub fn complete_bipartite(a: usize, b_count: usize) -> Graph {
    assert!(a >= 1 && b_count >= 1, "both parts must be non-empty");
    let mut b = GraphBuilder::new(a + b_count);
    for u in 0..a {
        for v in a..(a + b_count) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_is_regular_n_minus_1() {
        let g = complete(6);
        assert_eq!(g.m(), 15);
        for u in 0..6 {
            assert_eq!(g.degree(u), 5);
        }
    }

    #[test]
    fn path_endpoints_degree_1() {
        let g = path(7);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(6), 1);
        assert_eq!(g.degree(3), 2);
    }

    #[test]
    fn cycle_is_2_regular() {
        let g = cycle(5);
        assert_eq!(g.m(), 5);
        for u in 0..5 {
            assert_eq!(g.degree(u), 2);
        }
        assert!(g.has_edge(4, 0));
    }

    #[test]
    fn star_hub_degree() {
        let g = star(9);
        assert_eq!(g.degree(0), 8);
        assert_eq!(g.degree(5), 1);
    }

    #[test]
    fn bipartite_degrees() {
        let g = complete_bipartite(2, 3);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(4), 2);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
    }

    #[test]
    #[should_panic(expected = "n ≥ 2")]
    fn tiny_complete_rejected() {
        let _ = complete(1);
    }

    #[test]
    fn direct_csr_matches_builder_output() {
        // path/cycle skip GraphBuilder; pin element-for-element equality
        // against the builder's assembly.
        for n in [2usize, 3, 7, 64] {
            let mut b = GraphBuilder::new(n);
            b.extend_edges((0..n - 1).map(|i| (i, i + 1)));
            assert_eq!(path(n), b.build(), "path({n})");
        }
        for n in [3usize, 4, 7, 64] {
            let mut b = GraphBuilder::new(n);
            b.extend_edges((0..n).map(|i| (i, (i + 1) % n)));
            assert_eq!(cycle(n), b.build(), "cycle({n})");
        }
    }
}
