//! The CSR graph type.
//!
//! # Layout
//!
//! Adjacency lives in two flat arrays: `offsets` (length `n + 1`, element
//! type `EdgeIndex` = `u32`) and `neighbors` (length `2m`, `u32` node
//! ids). Both index types are 4 bytes, so the whole CSR costs
//! `4·(n + 1) + 4·2m` bytes — half the traffic of the former
//! `Vec<usize>` offsets on 64-bit hosts, which matters at the
//! n = 10⁷–10⁸ scale the ROADMAP targets (offsets alone at n = 10⁷ drop
//! from 80 MB to 40 MB, and every `pull` kernel reads two of them per
//! row). The public API still speaks `usize`; the compact types are an
//! internal layout choice, converted at the accessor boundary.
//!
//! The price of 4-byte offsets is a capacity bound: the edge-slot count
//! `2m` (plus the node count) must stay below `u32::MAX`. Builders
//! enforce this with a typed [`crate::GraphError`] instead of silently
//! truncating — see [`crate::GraphBuilder::try_build`].

/// Element type of the CSR offset array: positions into the flat neighbor
/// array. `u32` halves the offset footprint vs `usize`; builders guarantee
/// `2m` fits (see the module docs).
pub(crate) type EdgeIndex = u32;

/// An immutable undirected simple graph in compressed-sparse-row form.
///
/// Nodes are `0..n`. Adjacency is stored as two flat arrays — `offsets`
/// (length `n+1`, compact `EdgeIndex` entries) and `neighbors` (length
/// `2m`, each undirected edge appears in both endpoint lists) — with `u32`
/// ids throughout to halve memory traffic versus `usize` (per the HPC
/// guide's "smaller integers" advice; see the [module docs](self) for the
/// full layout). The public API speaks `usize`.
///
/// Invariants (enforced by [`crate::GraphBuilder`] and checked by
/// [`Graph::validate`]):
/// * neighbor lists are sorted ascending and duplicate-free,
/// * no self-loops,
/// * symmetry: `v ∈ N(u)` ⇔ `u ∈ N(v)`,
/// * `2m` (and so every offset) fits in `EdgeIndex`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<EdgeIndex>,
    neighbors: Vec<u32>,
}

impl Graph {
    /// Construct directly from raw CSR parts.
    ///
    /// Prefer [`crate::GraphBuilder`]; this is for generators that can emit
    /// sorted CSR directly. Debug builds validate.
    pub(crate) fn from_raw(offsets: Vec<EdgeIndex>, neighbors: Vec<u32>) -> Self {
        let g = Graph { offsets, neighbors };
        debug_assert!(g.validate().is_ok(), "invalid raw CSR");
        g
    }

    /// The raw CSR arrays `(offsets, neighbors)`, for crate-internal
    /// bulk copies.
    #[inline]
    pub(crate) fn raw_parts(&self) -> (&[EdgeIndex], &[u32]) {
        (&self.offsets, &self.neighbors)
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of node `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Neighbors of `u`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.neighbors[self.neighbor_range(u)]
            .iter()
            .map(|&v| v as usize)
    }

    /// Neighbor slice of `u` as raw `u32`s (hot loops).
    #[inline]
    pub fn neighbors_raw(&self, u: usize) -> &[u32] {
        &self.neighbors[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// The index range of `u`'s adjacency inside the flat neighbor array.
    ///
    /// Parallel per-edge attribute arrays (e.g. [`crate::WeightedGraph`]'s
    /// weights) share the CSR offsets; this is the slice of such an array
    /// that belongs to `u`, aligned entry-for-entry with
    /// [`Graph::neighbors_raw`].
    #[inline]
    pub fn neighbor_range(&self, u: usize) -> std::ops::Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }

    /// The `i`-th neighbor of `u` (0-based within the sorted list).
    ///
    /// # Panics
    /// Panics if `i >= degree(u)`.
    #[inline]
    pub fn neighbor(&self, u: usize, i: usize) -> usize {
        let d = self.degree(u);
        assert!(i < d, "neighbor index {i} out of range for degree {d}");
        self.neighbors[self.offsets[u] as usize + i] as usize
    }

    /// Adjacency test in `O(log deg)`.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u >= self.n() || v >= self.n() {
            return false;
        }
        self.neighbors_raw(u).binary_search(&(v as u32)).is_ok()
    }

    /// Iterate all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n()).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Sum of all degrees (`2m`), the graph volume `µ(V)` of §2.2.
    #[inline]
    pub fn total_volume(&self) -> usize {
        self.neighbors.len()
    }

    /// Heap bytes held by the CSR arrays (`4·(n+1)` offsets + `4·2m`
    /// neighbors). This is the resident footprint the bench records track;
    /// capacity slack from builders is excluded so the number is a pure
    /// function of the graph.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<EdgeIndex>()
            + self.neighbors.len() * std::mem::size_of::<u32>()
    }

    /// Check all CSR invariants; returns a human-readable error on failure.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n();
        if n > u32::MAX as usize || self.neighbors.len() >= u32::MAX as usize {
            return Err("CSR exceeds u32 index range".into());
        }
        if self.offsets[0] != 0 || *self.offsets.last().unwrap() as usize != self.neighbors.len() {
            return Err("offsets do not bracket neighbor array".into());
        }
        for u in 0..n {
            if self.offsets[u] > self.offsets[u + 1] {
                return Err(format!("offsets not monotone at {u}"));
            }
            let nb = self.neighbors_raw(u);
            for w in nb.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("neighbors of {u} not strictly sorted"));
                }
            }
            for &v in nb {
                let v = v as usize;
                if v >= n {
                    return Err(format!("neighbor {v} of {u} out of range"));
                }
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
                if self.neighbors_raw(v).binary_search(&(u as u32)).is_err() {
                    return Err(format!("asymmetric edge ({u},{v})"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn triangle() -> crate::Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.total_volume(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(g.neighbor(2, 0), 0);
        assert!(g.has_edge(0, 2) && g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn edges_each_once() {
        let g = triangle();
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn validate_ok() {
        assert!(triangle().validate().is_ok());
    }

    #[test]
    fn memory_bytes_counts_compact_layout() {
        // Triangle: offsets 4 × 4 bytes, neighbors 6 × 4 bytes.
        let g = triangle();
        assert_eq!(g.memory_bytes(), 4 * 4 + 6 * 4);
        // 4-byte offsets: the footprint is exactly 4·(n+1) + 4·2m, with no
        // 8-byte `usize` entries hiding anywhere.
        let p = crate::gen::path(100);
        assert_eq!(p.memory_bytes(), 4 * 101 + 4 * 2 * 99);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neighbor_index_out_of_range() {
        let g = triangle();
        let _ = g.neighbor(0, 2);
    }
}
