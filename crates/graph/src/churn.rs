//! Dynamic (edge-churn) graphs: one CSR, rebuilt on every edit batch.
//!
//! [`ChurnGraph`] is the substrate for the ROADMAP's dynamic-network
//! workload — P2P overlays with continual joins/leaves, the scenario the
//! paper's CONGEST model abstracts away. It holds exactly one [`Graph`],
//! the current topology, and implements [`WalkGraph`] by delegating every
//! method to it, so the walk engine, Algorithm 2, and the CONGEST flood
//! run unmodified over a churning topology, and every topology-shaped
//! consumer ([`WalkGraph::topology`]: BFS trees, frontier scans, the
//! dense-crossover volume test) sees the post-edit graph.
//!
//! # Bit-for-bit contract
//!
//! The CSR *is* the post-edit graph: after every batch it is the exact
//! CSR a [`crate::GraphBuilder`] makes of the live edge set, and every
//! kernel is the static one. So each result over a `ChurnGraph` is
//! bit-identical to the static [`Graph`] of the same topology, zero churn
//! included — the properties `tests/determinism.rs`'s churn layer pins.
//!
//! # Edit semantics
//!
//! Edits arrive in batches via [`ChurnGraph::apply`]. A batch is **atomic**:
//! it either applies entirely or returns a typed [`ChurnError`] leaving the
//! graph untouched. Node count is fixed (edge churn only); inserts reuse the
//! compact-offset capacity guards of [`crate::GraphError`], so a churned
//! graph can never outgrow the `u32` CSR layout. A batch costs one
//! `O(n + m)` rebuild in which every run of unedited rows is one bulk copy.
//!
//! [`SwapDrawer`] is the seeded degree-preserving edit stream the sweep
//! harness's churn schedules and the churn tests draw from.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;

use crate::builder::{check_edge_slots, GraphError};
use crate::csr::EdgeIndex;
use crate::{Graph, WalkGraph};

/// One undirected edge edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeEdit {
    /// Insert the currently absent edge `{u, v}`.
    Insert {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// Delete the currently present edge `{u, v}`.
    Delete {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
}

impl EdgeEdit {
    /// Shorthand for [`EdgeEdit::Insert`].
    pub fn insert(u: usize, v: usize) -> Self {
        EdgeEdit::Insert { u, v }
    }

    /// Shorthand for [`EdgeEdit::Delete`].
    pub fn delete(u: usize, v: usize) -> Self {
        EdgeEdit::Delete { u, v }
    }

    /// The edited endpoints `(u, v)` — what support-aware cache
    /// invalidation tests curves against.
    pub fn endpoints(&self) -> (usize, usize) {
        match *self {
            EdgeEdit::Insert { u, v } | EdgeEdit::Delete { u, v } => (u, v),
        }
    }
}

/// Typed rejection of an edit batch. Batches are atomic: any error leaves
/// the graph exactly as it was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnError {
    /// The edit would overflow the compact CSR layout (the same
    /// [`GraphError`] slot guards the builders enforce).
    Graph(GraphError),
    /// An endpoint is not a node of the graph.
    EndpointOutOfRange {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
        /// The (fixed) node count.
        n: usize,
    },
    /// Both endpoints are the same node (simple graphs only).
    SelfLoop {
        /// The offending node.
        u: usize,
    },
    /// Insert of an edge that already exists at that point of the batch.
    DuplicateInsert {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// Delete of an edge that does not exist at that point of the batch.
    MissingDelete {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::Graph(e) => write!(f, "churn rejected: {e}"),
            ChurnError::EndpointOutOfRange { u, v, n } => {
                write!(f, "edit ({u},{v}) out of range n={n}")
            }
            ChurnError::SelfLoop { u } => {
                write!(f, "self-loop edit at {u} rejected (simple graphs only)")
            }
            ChurnError::DuplicateInsert { u, v } => {
                write!(f, "insert of existing edge ({u},{v})")
            }
            ChurnError::MissingDelete { u, v } => {
                write!(f, "delete of absent edge ({u},{v})")
            }
        }
    }
}

impl std::error::Error for ChurnError {}

impl From<GraphError> for ChurnError {
    fn from(e: GraphError) -> Self {
        ChurnError::Graph(e)
    }
}

/// One batch's edits to a row. Invariants: both lists sorted ascending and
/// duplicate-free, `del ⊆ old row`, `ins ∩ old row = ∅` (re-inserting a
/// deleted edge cancels the deletion instead).
#[derive(Default)]
struct RowEdit {
    ins: Vec<u32>,
    del: Vec<u32>,
}

/// Insert `v` into the sorted list `list` (must be absent).
fn sorted_insert(list: &mut Vec<u32>, v: u32) {
    let at = list.binary_search(&v).unwrap_err();
    list.insert(at, v);
}

/// Remove `v` from the sorted list `list`; returns whether it was present.
fn sorted_remove(list: &mut Vec<u32>, v: u32) -> bool {
    match list.binary_search(&v) {
        Ok(at) => {
            list.remove(at);
            true
        }
        Err(_) => false,
    }
}

/// A dynamic graph: one CSR of the current topology, rebuilt by every
/// edit batch (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct ChurnGraph {
    g: Graph,
}

impl ChurnGraph {
    /// A churn graph starting at `g`.
    pub fn new(g: Graph) -> Self {
        ChurnGraph { g }
    }

    /// Number of nodes (fixed; churn is edge-only).
    pub fn n(&self) -> usize {
        self.g.n()
    }

    /// Number of undirected edges of the current topology.
    pub fn m(&self) -> usize {
        self.g.m()
    }

    /// Adjacency test on the current topology.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.g.has_edge(u, v)
    }

    /// Heap bytes of the CSR.
    pub fn memory_bytes(&self) -> usize {
        self.g.memory_bytes()
    }

    /// Does `{u, v}` exist under the current CSR plus this batch's `rows`?
    fn lives(&self, rows: &BTreeMap<u32, RowEdit>, u: usize, v: usize) -> bool {
        if let Some(r) = rows.get(&(u as u32)) {
            if r.ins.binary_search(&(v as u32)).is_ok() {
                return true;
            }
            if r.del.binary_search(&(v as u32)).is_ok() {
                return false;
            }
        }
        self.g.has_edge(u, v)
    }

    /// Apply one batch of edits **atomically**: on any [`ChurnError`] the
    /// graph is left exactly as it was. Within the batch, edits apply in
    /// order (so a batch may delete an edge it inserted). On success the
    /// CSR is rebuilt.
    pub fn apply(&mut self, edits: &[EdgeEdit]) -> Result<(), ChurnError> {
        if edits.is_empty() {
            return Ok(());
        }
        let n = self.n();
        // The batch's row edits, validated against the CSR plus the edits
        // before them; the CSR is only replaced once all of them pass.
        let mut rows: BTreeMap<u32, RowEdit> = BTreeMap::new();
        let mut half_edges = self.g.total_volume();
        for &e in edits {
            let (u, v) = e.endpoints();
            if u >= n || v >= n {
                return Err(ChurnError::EndpointOutOfRange { u, v, n });
            }
            if u == v {
                return Err(ChurnError::SelfLoop { u });
            }
            match e {
                EdgeEdit::Insert { .. } => {
                    if self.lives(&rows, u, v) {
                        return Err(ChurnError::DuplicateInsert { u, v });
                    }
                    check_edge_slots(half_edges + 2, n)?;
                    for (a, b) in [(u, v), (v, u)] {
                        let r = rows.entry(a as u32).or_default();
                        // Re-inserting a deleted edge cancels the deletion;
                        // otherwise it is a fresh insert.
                        if !sorted_remove(&mut r.del, b as u32) {
                            sorted_insert(&mut r.ins, b as u32);
                        }
                    }
                    half_edges += 2;
                }
                EdgeEdit::Delete { .. } => {
                    if !self.lives(&rows, u, v) {
                        return Err(ChurnError::MissingDelete { u, v });
                    }
                    for (a, b) in [(u, v), (v, u)] {
                        let r = rows.entry(a as u32).or_default();
                        // Deleting a same-batch insert cancels it;
                        // otherwise mark the edge deleted.
                        if !sorted_remove(&mut r.ins, b as u32) {
                            sorted_insert(&mut r.del, b as u32);
                        }
                    }
                    half_edges -= 2;
                }
            }
        }
        self.g = Self::rebuild(&self.g, &rows, half_edges);
        Ok(())
    }

    /// Apply `rows` to `old`, giving a fresh CSR.
    ///
    /// Walks `rows` in key order: each run of untouched rows between two
    /// edited ones is one bulk copy of old neighbors plus its offsets
    /// shifted by the edits so far, and each edited row is re-sorted.
    fn rebuild(old: &Graph, rows: &BTreeMap<u32, RowEdit>, half_edges: usize) -> Graph {
        let n = old.n();
        let (old_offsets, old_neighbors) = old.raw_parts();
        let mut offsets: Vec<EdgeIndex> = Vec::with_capacity(n + 1);
        let mut neighbors: Vec<u32> = Vec::with_capacity(half_edges);
        offsets.push(0);
        // Rows `lo..hi` unedited: copy them and their shifted ends. Fits:
        // half_edges stayed under the slot guard at every insert, and the
        // wrapping shift is exact because every result fits in u32.
        let copy_rows =
            |lo: usize, hi: usize, offsets: &mut Vec<EdgeIndex>, neighbors: &mut Vec<u32>| {
                let shift = (neighbors.len() as EdgeIndex).wrapping_sub(old_offsets[lo]);
                offsets.extend(
                    old_offsets[lo + 1..=hi]
                        .iter()
                        .map(|&o| o.wrapping_add(shift)),
                );
                neighbors.extend_from_slice(
                    &old_neighbors[old_offsets[lo] as usize..old_offsets[hi] as usize],
                );
            };
        let mut next = 0;
        for (&u, r) in rows {
            let u = u as usize;
            copy_rows(next, u, &mut offsets, &mut neighbors);
            let start = neighbors.len();
            neighbors.extend(
                old.neighbors_raw(u)
                    .iter()
                    .filter(|w| r.del.binary_search(w).is_err()),
            );
            neighbors.extend_from_slice(&r.ins);
            neighbors[start..].sort_unstable();
            offsets.push(neighbors.len() as EdgeIndex);
            next = u + 1;
        }
        copy_rows(next, n, &mut offsets, &mut neighbors);
        debug_assert_eq!(neighbors.len(), half_edges);
        Graph::from_raw(offsets, neighbors)
    }
}

/// A seeded stream of degree-preserving 2-swaps: each draw deletes `(a,b)`
/// and `(c,d)` and inserts `(a,c)` and `(b,d)`, so every degree is kept
/// (regular graphs stay regular and τ answers stay non-trivial).
///
/// A xorshift64* stream picks both edges uniformly from the topology it is
/// given — same seed, same topologies, same draws, always.
#[derive(Clone, Debug)]
pub struct SwapDrawer {
    state: u64,
}

impl SwapDrawer {
    /// A drawer seeded with `seed` (the state is `seed | 1`: xorshift
    /// must not start at 0).
    pub fn new(seed: u64) -> Self {
        SwapDrawer { state: seed | 1 }
    }

    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Draw one valid 2-swap on `g`, or `None` if 64 tries find none
    /// (tiny dense graphs).
    ///
    /// # Panics
    /// Panics if `g` has no edges.
    pub fn draw(&mut self, g: &Graph) -> Option<[EdgeEdit; 4]> {
        let edges: Vec<(usize, usize)> = g.edges().collect();
        for _ in 0..64 {
            let (a, b) = edges[(self.next() % edges.len() as u64) as usize];
            let (c, d) = edges[(self.next() % edges.len() as u64) as usize];
            if a != c && a != d && b != c && b != d && !g.has_edge(a, c) && !g.has_edge(b, d) {
                return Some([
                    EdgeEdit::delete(a, b),
                    EdgeEdit::delete(c, d),
                    EdgeEdit::insert(a, c),
                    EdgeEdit::insert(b, d),
                ]);
            }
        }
        None
    }
}

impl WalkGraph for ChurnGraph {
    #[inline]
    fn topology(&self) -> &Graph {
        &self.g
    }

    #[inline]
    fn walk_degree(&self, u: usize) -> f64 {
        self.g.walk_degree(u)
    }

    #[inline]
    fn total_walk_weight(&self) -> f64 {
        self.g.total_walk_weight()
    }

    #[inline]
    fn loop_weight(&self, u: usize) -> f64 {
        self.g.loop_weight(u)
    }

    #[inline]
    fn pull(&self, v: usize, p: &[f64]) -> f64 {
        self.g.pull(v, p)
    }

    #[inline]
    fn prescales(&self) -> bool {
        self.g.prescales()
    }

    #[inline]
    fn prescale_row(&self, u: usize, p_row: &[f64], q_row: &mut [f64]) {
        self.g.prescale_row(u, p_row, q_row)
    }

    #[inline]
    fn pull_block(&self, v: usize, q: &[f64], width: usize, out: &mut [f64]) {
        self.g.pull_block(v, q, width, out)
    }

    #[inline]
    fn flat_stationary(&self) -> Option<f64> {
        self.g.flat_stationary()
    }

    #[inline]
    fn sample_step(&self, at: usize, rng: &mut SmallRng) -> usize {
        self.g.sample_step(at, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::walk::tests::gather_source;

    fn dist(n: usize, salt: usize) -> Vec<f64> {
        (0..n)
            .map(|v| ((v * 7 + salt + 1) as f64).recip())
            .collect()
    }

    #[test]
    fn zero_churn_pull_is_bit_identical_to_static() {
        let (g, _) = gen::ring_of_cliques_regular(4, 6);
        let cg = ChurnGraph::new(g.clone());
        let p = dist(g.n(), 3);
        for v in 0..g.n() {
            assert_eq!(
                cg.pull(v, &p).to_bits(),
                g.pull(v, &p).to_bits(),
                "node {v}"
            );
        }
        assert_eq!(cg.topology(), &g);
    }

    #[test]
    fn edited_rows_match_rebuilt_static_graph_bitwise() {
        // After edits, pull/pull_block must match a from-scratch static
        // graph of the same topology.
        let g = gen::grid(4, 5);
        let mut cg = ChurnGraph::new(g.clone());
        cg.apply(&[
            EdgeEdit::delete(0, 1),
            EdgeEdit::insert(0, 6),
            EdgeEdit::insert(2, 13),
        ])
        .unwrap();
        let mut b = crate::GraphBuilder::new(g.n());
        b.extend_edges(cg.topology().edges());
        let fresh = b.build();
        assert_eq!(cg.topology(), &fresh);
        let n = g.n();
        let p = dist(n, 11);
        for width in [1usize, 2, 3, 8] {
            let mut interleaved = vec![0.0; n * width];
            for j in 0..width {
                for v in 0..n {
                    interleaved[v * width + j] = p[v] * (j + 1) as f64;
                }
            }
            let (q_cg, q_fresh) = (
                gather_source(&cg, &interleaved, width),
                gather_source(&fresh, &interleaved, width),
            );
            let mut got = vec![f64::NAN; width];
            let mut want = vec![f64::NAN; width];
            for v in 0..n {
                cg.pull_block(v, &q_cg, width, &mut got);
                fresh.pull_block(v, &q_fresh, width, &mut want);
                for j in 0..width {
                    assert_eq!(
                        got[j].to_bits(),
                        want[j].to_bits(),
                        "w={width} v={v} lane {j}"
                    );
                }
            }
            for v in 0..n {
                assert_eq!(cg.pull(v, &p).to_bits(), fresh.pull(v, &p).to_bits());
            }
        }
    }

    #[test]
    fn insert_delete_roundtrip_cancels_in_the_delta() {
        let g = gen::cycle(8);
        let mut cg = ChurnGraph::new(g.clone());
        // A flap of an existing edge within one batch: the deletion is
        // cancelled and the topology is unchanged.
        cg.apply(&[EdgeEdit::delete(0, 1), EdgeEdit::insert(0, 1)])
            .unwrap();
        assert_eq!(cg.topology(), &g);
        // Same for a fresh edge.
        cg.apply(&[EdgeEdit::insert(0, 4), EdgeEdit::delete(0, 4)])
            .unwrap();
        assert_eq!(cg.topology(), &g);
    }

    #[test]
    fn rejected_batches_are_atomic() {
        let g = gen::path(5);
        let mut cg = ChurnGraph::new(g.clone());
        let cases: Vec<(Vec<EdgeEdit>, &str)> = vec![
            (vec![EdgeEdit::insert(0, 9)], "out of range"),
            (vec![EdgeEdit::insert(2, 2)], "self-loop"),
            (vec![EdgeEdit::insert(0, 1)], "existing edge"),
            (vec![EdgeEdit::delete(0, 4)], "absent edge"),
            // Valid head, invalid tail: the head must not stick.
            (
                vec![EdgeEdit::insert(0, 2), EdgeEdit::delete(3, 0)],
                "absent edge",
            ),
            (
                vec![EdgeEdit::insert(0, 2), EdgeEdit::insert(0, 2)],
                "existing edge",
            ),
        ];
        for (batch, needle) in cases {
            let err = cg.apply(&batch).unwrap_err();
            assert!(err.to_string().contains(needle), "{batch:?} → {err}");
            assert_eq!(
                cg.topology(),
                &g,
                "{batch:?} must leave the graph unchanged"
            );
        }
    }

    #[test]
    fn capacity_guard_is_the_builders() {
        // The wrapped GraphError keeps the builders' message.
        let e = ChurnError::from(GraphError::TooManyEdgeSlots { slots: 42 });
        assert!(e.to_string().contains("2m + n"));
    }

    #[test]
    fn walk_graph_surface_tracks_current_topology() {
        let g = gen::path(4); // 0-1-2-3
        let mut cg = ChurnGraph::new(g);
        cg.apply(&[EdgeEdit::insert(0, 3)]).unwrap(); // now a 4-cycle
        assert_eq!(cg.walk_degree(0), 2.0);
        assert_eq!(cg.total_walk_weight(), 8.0);
        assert_eq!(cg.loop_weight(1), 0.0);
        assert_eq!(cg.flat_stationary(), Some(0.25));
        assert!(cg.has_edge(0, 3));
        assert_eq!(cg.m(), 4);
        let mut rng = lmt_util::rng::fork(3, 1);
        let step = cg.sample_step(0, &mut rng);
        assert!(step == 1 || step == 3);
        assert_eq!(cg.memory_bytes(), cg.topology().memory_bytes());
    }

    #[test]
    fn rebuild_matches_builder_over_live_edge_set() {
        // The live edge set is tracked independently (base − deletes +
        // inserts) and rebuilt with the builder after every batch. Batches
        // edit node 0, node n − 1, adjacent rows, and re-toggle earlier
        // edits.
        use rand::Rng;
        use std::collections::BTreeSet;
        let base = gen::random_regular(64, 4, 3);
        let n = base.n();
        let mut live: BTreeSet<(usize, usize)> = base.edges().collect();
        let mut cg = ChurnGraph::new(base);
        let mut rng = lmt_util::rng::fork(17, 0);
        let mut batches: Vec<Vec<(usize, usize)>> = vec![
            vec![(0, 1)],
            vec![(n - 1, n - 2)],
            vec![(0, n - 1), (n - 1, 1)],
            vec![(5, 6), (6, 7), (7, 8), (8, 9)],
            vec![(0, 1), (n - 2, n - 1)],
        ];
        for _ in 0..30 {
            let k = rng.gen_range(1..5);
            batches.push(
                (0..k)
                    .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                    .filter(|(u, v)| u != v)
                    .collect(),
            );
        }
        for batch in batches {
            let edits: Vec<EdgeEdit> = batch
                .into_iter()
                .map(|(u, v)| {
                    if live.remove(&(u.min(v), u.max(v))) {
                        EdgeEdit::delete(u, v)
                    } else {
                        live.insert((u.min(v), u.max(v)));
                        EdgeEdit::insert(u, v)
                    }
                })
                .collect();
            cg.apply(&edits).unwrap();
            let mut b = crate::GraphBuilder::new(n);
            b.extend_edges(live.iter().copied());
            assert_eq!(cg.topology(), &b.build(), "after {edits:?}");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let g = gen::complete(4);
        let mut cg = ChurnGraph::new(g.clone());
        cg.apply(&[]).unwrap();
        assert_eq!(cg.topology(), &g);
    }

    #[test]
    fn isolated_node_pull_matches_pull_block_to_the_bit() {
        // An empty row sums nothing: `pull` and every `pull_block` lane
        // must both give +0.0, not −0.0, on all three substrates.
        let g = gen::path(4);
        let mut cg = ChurnGraph::new(g.clone());
        cg.apply(&[EdgeEdit::delete(0, 1)]).unwrap(); // node 0 isolated
        let isolated = cg.topology().clone();
        let weighted = crate::WeightedGraph::unit(isolated.clone());
        let graphs: [&dyn WalkGraph; 3] = [&isolated, &weighted, &cg];
        for (k, wg) in graphs.into_iter().enumerate() {
            for width in [1usize, 2, 3, 4, 8] {
                let p: Vec<f64> = (0..4 * width).map(|i| (i + 1) as f64 / 64.0).collect();
                let q = gather_source(wg, &p, width);
                let mut out = vec![f64::NAN; width];
                wg.pull_block(0, &q, width, &mut out);
                for (j, o) in out.iter().enumerate() {
                    let col: Vec<f64> = (0..4).map(|v| p[v * width + j]).collect();
                    let at = format!("graph {k} w={width} lane {j}");
                    assert_eq!(o.to_bits(), wg.pull(0, &col).to_bits(), "{at}");
                    assert_eq!(o.to_bits(), 0.0f64.to_bits(), "{at}");
                }
            }
        }
    }

    #[test]
    fn swap_drawer_gives_up_without_a_valid_swap() {
        // Any two triangle edges share an endpoint: 64 tries, then `None`.
        assert_eq!(SwapDrawer::new(1).draw(&gen::complete(3)), None);
    }
}
