//! Clique-chain families: the paper's β-barbell (Figure 1) and relatives.

use crate::{Graph, GraphBuilder};

/// Parameters of a [`barbell`] instance, returned alongside generators so
/// experiments can label series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarbellSpec {
    /// Number of cliques `β`.
    pub beta: usize,
    /// Clique size `k = n/β`.
    pub clique_size: usize,
}

impl BarbellSpec {
    /// Total node count `n = β·k`.
    pub fn n(&self) -> usize {
        self.beta * self.clique_size
    }

    /// Node id of the "port" that links clique `i` to clique `i+1`
    /// (the last node of clique `i`).
    pub fn right_port(&self, i: usize) -> usize {
        (i + 1) * self.clique_size - 1
    }

    /// Node id of the port that links clique `i` to clique `i−1`
    /// (the first node of clique `i`).
    pub fn left_port(&self, i: usize) -> usize {
        i * self.clique_size
    }

    /// Range of node ids of clique `i`.
    pub fn clique_nodes(&self, i: usize) -> std::ops::Range<usize> {
        i * self.clique_size..(i + 1) * self.clique_size
    }
}

/// The **β-barbell graph** of Figure 1: a path of `beta` equal-size cliques,
/// consecutive cliques joined by a single bridge edge between the right port
/// of one and the left port of the next.
///
/// §2.3(d): local mixing time is `O(1)` (the walk mixes inside the source's
/// clique) while the global mixing time is `Ω(β²)` (the walk must traverse
/// the clique path, paying the clique escape probability `~1/k` per hop).
///
/// Returns the graph and its [`BarbellSpec`].
///
/// # Panics
/// Panics if `beta == 0` or `clique_size < 2` — or `< 3` when `beta > 1`,
/// since ports must be distinct from each other.
pub fn barbell(beta: usize, clique_size: usize) -> (Graph, BarbellSpec) {
    assert!(beta >= 1, "barbell needs β ≥ 1");
    assert!(clique_size >= 2, "barbell needs clique size ≥ 2");
    if beta > 1 {
        assert!(
            clique_size >= 3,
            "barbell with β > 1 needs clique size ≥ 3 so bridge ports are interior"
        );
    }
    let spec = BarbellSpec { beta, clique_size };
    let n = spec.n();
    let mut b = GraphBuilder::new(n);
    b.reserve(beta * clique_size * (clique_size - 1) / 2 + beta);
    for i in 0..beta {
        let range = spec.clique_nodes(i);
        for u in range.clone() {
            for v in (u + 1)..range.end {
                b.add_edge(u, v);
            }
        }
    }
    for i in 0..beta.saturating_sub(1) {
        b.add_edge(spec.right_port(i), spec.left_port(i + 1));
    }
    (b.build(), spec)
}

/// Ring of `beta` cliques: like [`barbell`] but the last clique also links
/// back to the first (mentioned in §2.3(d): "connected via a path or ring").
pub fn ring_of_cliques(beta: usize, clique_size: usize) -> (Graph, BarbellSpec) {
    assert!(beta >= 3, "ring of cliques needs β ≥ 3");
    assert!(clique_size >= 3, "ring of cliques needs clique size ≥ 3");
    let spec = BarbellSpec { beta, clique_size };
    let mut b = GraphBuilder::new(spec.n());
    for i in 0..beta {
        let range = spec.clique_nodes(i);
        for u in range.clone() {
            for v in (u + 1)..range.end {
                b.add_edge(u, v);
            }
        }
    }
    for i in 0..beta {
        // Close the ring: right port of i to left port of (i+1) mod β.
        b.add_edge(spec.right_port(i), spec.left_port((i + 1) % beta));
    }
    (b.build(), spec)
}

/// An **exactly `(k−1)`-regular** ring of cliques: as [`ring_of_cliques`],
/// but the intra-clique edge between each clique's two ports is removed, so
/// ports have degree `(k−2) + 1 = k−1` like everyone else.
///
/// This is the workhorse workload for §3's algorithms, which assume regular
/// graphs: it keeps the β-barbell's "local mixing O(1), global mixing
/// Ω(β²)" separation while satisfying the regularity assumption exactly
/// (the paper's own Figure 1 graph is only *nearly* regular — its ports
/// have degree `k`; see `FlatPolicy::AssumeFlat` in `lmt-walks`).
pub fn ring_of_cliques_regular(beta: usize, clique_size: usize) -> (Graph, BarbellSpec) {
    assert!(beta >= 3, "regular ring of cliques needs β ≥ 3");
    assert!(
        clique_size >= 4,
        "regular ring of cliques needs clique size ≥ 4"
    );
    let spec = BarbellSpec { beta, clique_size };
    let mut b = GraphBuilder::new(spec.n());
    for i in 0..beta {
        let range = spec.clique_nodes(i);
        let (lp, rp) = (spec.left_port(i), spec.right_port(i));
        for u in range.clone() {
            for v in (u + 1)..range.end {
                if (u, v) == (lp, rp) {
                    continue; // drop the port-port edge to even out degrees
                }
                b.add_edge(u, v);
            }
        }
    }
    for i in 0..beta {
        b.add_edge(spec.right_port(i), spec.left_port((i + 1) % beta));
    }
    (b.build(), spec)
}

/// Classic dumbbell: two cliques of size `clique_size` joined by a path of
/// `path_len` intermediate nodes (0 gives the 2-barbell).
pub fn dumbbell(clique_size: usize, path_len: usize) -> Graph {
    assert!(clique_size >= 3, "dumbbell needs clique size ≥ 3");
    let n = 2 * clique_size + path_len;
    let mut b = GraphBuilder::new(n);
    for base in [0, clique_size + path_len] {
        for u in base..base + clique_size {
            for v in (u + 1)..base + clique_size {
                b.add_edge(u, v);
            }
        }
    }
    // Chain: last node of clique 1 — path nodes — first node of clique 2.
    let left_port = clique_size - 1;
    let right_port = clique_size + path_len;
    let mut prev = left_port;
    for p in clique_size..clique_size + path_len {
        b.add_edge(prev, p);
        prev = p;
    }
    b.add_edge(prev, right_port);
    b.build()
}

/// Lollipop: a clique of size `clique_size` with a path of `path_len` nodes
/// hanging off it (the classic worst case for hitting times).
pub fn lollipop(clique_size: usize, path_len: usize) -> Graph {
    assert!(clique_size >= 3, "lollipop needs clique size ≥ 3");
    assert!(path_len >= 1, "lollipop needs path_len ≥ 1");
    let n = clique_size + path_len;
    let mut b = GraphBuilder::new(n);
    for u in 0..clique_size {
        for v in (u + 1)..clique_size {
            b.add_edge(u, v);
        }
    }
    let mut prev = clique_size - 1;
    for p in clique_size..n {
        b.add_edge(prev, p);
        prev = p;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::components;

    #[test]
    fn barbell_structure() {
        let (g, spec) = barbell(4, 5);
        assert_eq!(g.n(), 20);
        // 4 cliques of C(5,2)=10 edges plus 3 bridges.
        assert_eq!(g.m(), 4 * 10 + 3);
        // Bridges exist between consecutive ports.
        assert!(g.has_edge(spec.right_port(0), spec.left_port(1)));
        assert!(g.has_edge(spec.right_port(2), spec.left_port(3)));
        // No bridge across non-consecutive cliques.
        assert!(!g.has_edge(spec.right_port(0), spec.left_port(2)));
        let (_, count) = components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn barbell_degrees() {
        let (g, spec) = barbell(3, 4);
        // Interior clique nodes: degree k−1 = 3; ports: 4.
        assert_eq!(g.degree(spec.clique_nodes(0).start + 1), 3);
        assert_eq!(g.degree(spec.right_port(0)), 4);
        // Middle clique has two ports.
        assert_eq!(g.degree(spec.left_port(1)), 4);
        assert_eq!(g.degree(spec.right_port(1)), 4);
    }

    #[test]
    fn single_clique_barbell_is_complete() {
        let (g, _) = barbell(1, 6);
        assert_eq!(g.m(), 15);
    }

    #[test]
    fn ring_closes() {
        let (g, spec) = ring_of_cliques(3, 4);
        assert!(g.has_edge(spec.right_port(2), spec.left_port(0)));
        assert_eq!(g.m(), 3 * 6 + 3);
    }

    #[test]
    fn dumbbell_connected_with_path() {
        let g = dumbbell(4, 3);
        assert_eq!(g.n(), 11);
        let (_, count) = components(&g);
        assert_eq!(count, 1);
        // Path interior nodes have degree 2.
        assert_eq!(g.degree(5), 2);
    }

    #[test]
    fn lollipop_tail_end_degree_1() {
        let g = lollipop(5, 4);
        assert_eq!(g.n(), 9);
        assert_eq!(g.degree(8), 1);
        let (_, count) = components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    #[should_panic(expected = "interior")]
    fn barbell_tiny_cliques_rejected() {
        let _ = barbell(2, 2);
    }
}
