//! Edge-list construction of [`Graph`], and the typed capacity errors the
//! compact-offset layout needs.

use crate::csr::EdgeIndex;
use crate::Graph;

/// Capacity errors of the compact CSR layout.
///
/// The graph stores node ids and edge-array offsets as `u32`
/// (see `csr`'s module docs), so both the node count and the edge-slot
/// count `2m + n` must stay below `u32::MAX`. Builders report violations
/// with this type instead of silently truncating ids or offsets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The requested node count does not fit the `u32` id space.
    TooManyNodes {
        /// The rejected node count.
        n: usize,
    },
    /// The edge-slot count `2m + n` does not fit the `u32` offset space
    /// (`n` reserves headroom for per-node loop slots in the weighted
    /// layout, so both builders share one bound).
    TooManyEdgeSlots {
        /// The rejected slot count (`2m + n`).
        slots: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::TooManyNodes { n } => {
                write!(f, "node count {n} exceeds u32 range ({})", u32::MAX)
            }
            GraphError::TooManyEdgeSlots { slots } => {
                write!(
                    f,
                    "edge-slot count {slots} (2m + n) exceeds u32 offset range ({})",
                    u32::MAX
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Shared builder guard: `2m + n` slots must fit the `u32` offset space.
pub(crate) fn check_edge_slots(half_edges: usize, n: usize) -> Result<(), GraphError> {
    let slots = half_edges
        .checked_add(n)
        .ok_or(GraphError::TooManyEdgeSlots { slots: usize::MAX })?;
    if slots >= u32::MAX as usize {
        return Err(GraphError::TooManyEdgeSlots { slots });
    }
    Ok(())
}

/// Shared builder guard: node ids must fit `u32`.
pub(crate) fn check_node_count(n: usize) -> Result<(), GraphError> {
    if n > u32::MAX as usize {
        return Err(GraphError::TooManyNodes { n });
    }
    Ok(())
}

/// Accumulates undirected edges and builds a validated CSR [`Graph`].
///
/// Duplicate edges are merged; self-loops are rejected at insert time (the
/// paper works with simple graphs; laziness of walks is modelled in
/// `lmt-walks`, not with structural self-loops).
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    /// Undirected edges as inserted, one entry per `add_edge`; both
    /// directions are scattered into the CSR at build time.
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Builder for a graph on nodes `0..n`.
    ///
    /// # Panics
    /// Panics if `n` exceeds the `u32` id space — use
    /// [`GraphBuilder::try_new`] for a recoverable error.
    pub fn new(n: usize) -> Self {
        GraphBuilder::try_new(n).expect("node count exceeds u32 range")
    }

    /// Fallible [`GraphBuilder::new`]: rejects node counts outside the
    /// `u32` id space with [`GraphError::TooManyNodes`] instead of
    /// panicking (ids were never truncated — `new` always asserted — but
    /// callers ingesting untrusted sizes need the `Result` form).
    pub fn try_new(n: usize) -> Result<Self, GraphError> {
        check_node_count(n)?;
        Ok(GraphBuilder {
            n,
            edges: Vec::new(),
        })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Add the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or a self-loop.
    pub fn add_edge(&mut self, u: usize, v: usize) -> &mut Self {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range n={}",
            self.n
        );
        assert_ne!(u, v, "self-loop at {u} rejected (simple graphs only)");
        // In range: u, v < n ≤ u32::MAX (checked at construction).
        self.edges.push((u as u32, v as u32));
        self
    }

    /// Add every edge from an iterator of pairs.
    pub fn extend_edges<I: IntoIterator<Item = (usize, usize)>>(&mut self, it: I) -> &mut Self {
        for (u, v) in it {
            self.add_edge(u, v);
        }
        self
    }

    /// Reserve capacity for `extra` more undirected edges.
    pub fn reserve(&mut self, extra: usize) -> &mut Self {
        self.edges.reserve(extra);
        self
    }

    /// Finish: bucket by source node, deduplicate, and assemble CSR.
    ///
    /// # Panics
    /// Panics if the deduplicated edge-slot count overflows the compact
    /// offset layout — use [`GraphBuilder::try_build`] for a recoverable
    /// error.
    pub fn build(self) -> Graph {
        self.try_build()
            .expect("edge slots exceed u32 offset range")
    }

    /// Fallible [`GraphBuilder::build`]: rejects graphs whose
    /// (deduplicated) `2m + n` slot count overflows the `u32` offset space
    /// with [`GraphError::TooManyEdgeSlots`] — the failure mode the compact
    /// layout introduces, reported instead of silently wrapping offsets.
    ///
    /// The CSR is assembled by a counting sort on the source node: count
    /// each node's degree (duplicates included), scatter both directions of
    /// every edge into its row, then sort and deduplicate each row,
    /// compacting the rows leftward in place. That is `O(m + Σ d_u log d_u)`
    /// with no comparison sort over the whole edge list, and peaks at the
    /// edge list plus one `u32` per half-edge and one `usize` per node.
    /// Rows come out ascending and duplicate-free, exactly as a sort +
    /// dedup of all half-edges would give them.
    pub fn try_build(self) -> Result<Graph, GraphError> {
        let n = self.n;
        // `end[u]`: start of row u after the prefix sum; the scatter below
        // advances it to the end of row u.
        let mut end = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            end[u as usize + 1] += 1;
            end[v as usize + 1] += 1;
        }
        for u in 0..n {
            end[u + 1] += end[u];
        }
        let mut neighbors = vec![0u32; 2 * self.edges.len()];
        for &(u, v) in &self.edges {
            neighbors[end[u as usize]] = v;
            end[u as usize] += 1;
            neighbors[end[v as usize]] = u;
            end[v as usize] += 1;
        }
        drop(self.edges);
        // Sort and deduplicate each row; `end[u]` becomes the compacted end.
        let (mut start, mut write) = (0, 0);
        for row_end in &mut end[..n] {
            neighbors[start..*row_end].sort_unstable();
            let row_write = write;
            for k in start..*row_end {
                let v = neighbors[k];
                if write == row_write || neighbors[write - 1] != v {
                    neighbors[write] = v;
                    write += 1;
                }
            }
            start = *row_end;
            *row_end = write;
        }
        neighbors.truncate(write);
        neighbors.shrink_to_fit();
        check_edge_slots(write, n)?;
        // Fits: every offset is ≤ 2m < u32::MAX (guard above).
        let offsets: Vec<EdgeIndex> = std::iter::once(0)
            .chain(end[..n].iter().map(|&e| e as EdgeIndex))
            .collect();
        Ok(Graph::from_raw(offsets, neighbors))
    }

    /// The former comparison-sort assembly (sort + dedup all half-edges),
    /// kept as the differential reference for the counting sort.
    #[cfg(test)]
    pub(crate) fn build_by_sort(self) -> Graph {
        let mut arcs: Vec<(u32, u32)> = self
            .edges
            .iter()
            .flat_map(|&(u, v)| [(u, v), (v, u)])
            .collect();
        arcs.sort_unstable();
        arcs.dedup();
        check_edge_slots(arcs.len(), self.n).expect("edge slots exceed u32 offset range");
        let mut offsets: Vec<EdgeIndex> = Vec::with_capacity(self.n + 1);
        let mut neighbors = Vec::with_capacity(arcs.len());
        offsets.push(0);
        let mut idx = 0;
        for u in 0..self.n as u32 {
            while idx < arcs.len() && arcs[idx].0 == u {
                neighbors.push(arcs[idx].1);
                idx += 1;
            }
            offsets.push(neighbors.len() as EdgeIndex);
        }
        Graph::from_raw(offsets, neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dedup_merges_parallel_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn extend_edges_builds_path() {
        let mut b = GraphBuilder::new(4);
        b.extend_edges([(0, 1), (1, 2), (2, 3)]);
        let g = b.build();
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        GraphBuilder::new(2).add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_rejected() {
        GraphBuilder::new(2).add_edge(0, 2);
    }

    #[test]
    fn try_new_rejects_oversized_node_count() {
        let err = GraphBuilder::try_new(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(
            err,
            GraphError::TooManyNodes {
                n: u32::MAX as usize + 1
            }
        );
        assert!(err.to_string().contains("exceeds u32"));
        // The boundary value itself is fine (ids are 0..n−1 < u32::MAX)…
        assert!(GraphBuilder::try_new(u32::MAX as usize).is_ok());
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn new_panics_on_oversized_node_count() {
        let _ = GraphBuilder::new(u32::MAX as usize + 1);
    }

    #[test]
    fn edge_slot_guard_rejects_offset_overflow() {
        // The guard itself (a 4-billion-arc Vec is not buildable in a unit
        // test): 2m + n must stay strictly below u32::MAX.
        assert!(check_edge_slots(0, 0).is_ok());
        assert!(check_edge_slots(u32::MAX as usize - 11, 10).is_ok());
        let err = check_edge_slots(u32::MAX as usize - 10, 10).unwrap_err();
        assert_eq!(
            err,
            GraphError::TooManyEdgeSlots {
                slots: u32::MAX as usize
            }
        );
        assert!(err.to_string().contains("2m + n"));
        // usize overflow in the sum itself must not wrap around the guard.
        assert!(check_edge_slots(usize::MAX, 2).is_err());
    }

    #[test]
    fn try_build_succeeds_on_small_graphs() {
        let mut b = GraphBuilder::try_new(3).unwrap();
        b.add_edge(0, 1);
        let g = b.try_build().unwrap();
        assert_eq!(g.m(), 1);
    }

    /// Edge lists over `n ∈ 0..24` nodes: random pairs, each inserted 1–3
    /// times in a random orientation, plus the edge between the first and
    /// last node ids whenever there are two nodes to join.
    fn noisy_edge_list() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
        (0usize..24).prop_flat_map(|n| {
            let ids = 0..n.max(1);
            let picks =
                proptest::collection::vec((ids.clone(), ids, any::<bool>(), 1usize..4), 0..80);
            (Just(n), picks).prop_map(|(n, picks)| {
                let mut edges = Vec::new();
                if n >= 2 {
                    edges.push((n - 1, 0));
                }
                for (u, v, flip, copies) in picks {
                    if u != v {
                        for c in 0..copies {
                            edges.push(if flip ^ (c % 2 == 1) { (v, u) } else { (u, v) });
                        }
                    }
                }
                (n, edges)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn counting_sort_matches_sort_and_dedup((n, edges) in noisy_edge_list()) {
            let mut b = GraphBuilder::new(n);
            b.extend_edges(edges.iter().copied());
            let reference = b.clone().build_by_sort();
            let g = b.build();
            prop_assert!(g.validate().is_ok());
            prop_assert_eq!(g, reference);
        }
    }

    #[test]
    fn counting_sort_on_empty_and_single_node_graphs() {
        for n in [0, 1] {
            let b = GraphBuilder::new(n);
            assert_eq!(b.clone().build(), b.build_by_sort());
        }
        assert_eq!(GraphBuilder::new(0).build().n(), 0);
    }
}
