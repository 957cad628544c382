//! Dynamic (edge-churn) graphs: a base CSR plus an insert/delete delta log,
//! periodically compacted back into plain CSR form.
//!
//! [`ChurnGraph`] is the substrate for the ROADMAP's dynamic-network
//! workload — P2P overlays with continual joins/leaves, the scenario the
//! paper's CONGEST model abstracts away. It implements [`WalkGraph`], so the
//! walk engine, Algorithm 2, and the CONGEST flood run unmodified over a
//! churning topology, and it keeps a **materialized current CSR**
//! ([`WalkGraph::topology`]) so every topology-shaped consumer (BFS trees,
//! frontier scans, the dense-crossover volume test) sees the post-edit
//! graph without code changes.
//!
//! # Bit-for-bit contract
//!
//! The hot kernels ([`WalkGraph::pull`] / [`WalkGraph::pull_block`])
//! preserve the static [`Graph`] arithmetic exactly:
//!
//! * a node whose adjacency row carries **no pending delta** dispatches to
//!   the current CSR's kernels (the const-generic explicit-lane `pull_block`
//!   for widths 1/2/4/8 included), and
//! * an **edited row** is traversed through a sorted three-way merge of
//!   `base \ deleted ∪ inserted` — the same ascending-neighbor order, one
//!   add per live neighbor, with the *current* degree of each neighbor —
//!   which is precisely the operation sequence the static kernel performs
//!   on the compacted row.
//!
//! Hence zero-churn results are bit-identical to the static `Graph`, and a
//! compacted graph is bit-identical to its uncompacted twin — the
//! properties `tests/determinism.rs`'s churn layer pins.
//!
//! # Edit semantics
//!
//! Edits arrive in batches via [`ChurnGraph::apply`]. A batch is **atomic**:
//! it either applies entirely or returns a typed [`ChurnError`] leaving the
//! graph untouched. Node count is fixed (edge churn only); inserts reuse the
//! compact-offset capacity guards of [`crate::GraphError`], so a churned
//! graph can never outgrow the `u32` CSR layout it compacts back into.

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

/// Per-node delta versus the base CSR row. Invariants: both lists sorted
/// ascending and duplicate-free, `del ⊆ base row`, `ins ∩ base row = ∅`
/// (re-inserting a deleted base edge cancels the deletion instead).
#[derive(Clone, Debug, Default)]
struct NodeDelta {
    ins: Vec<u32>,
    del: Vec<u32>,
}

impl NodeDelta {
    fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty()
    }
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

/// Ascending merge of `base \ del ∪ ins` (see [`NodeDelta`]'s invariants:
/// the two result streams are disjoint, so the merge is a plain two-way
/// interleave with deleted base entries skipped).
struct MergedRow<'a> {
    base: &'a [u32],
    ins: &'a [u32],
    del: &'a [u32],
    b: usize,
    i: usize,
    d: usize,
}

impl Iterator for MergedRow<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        loop {
            if self.b < self.base.len() {
                let x = self.base[self.b];
                if self.d < self.del.len() && self.del[self.d] == x {
                    self.b += 1;
                    self.d += 1;
                    continue;
                }
                if self.i < self.ins.len() && self.ins[self.i] < x {
                    self.i += 1;
                    return Some(self.ins[self.i - 1]);
                }
                self.b += 1;
                return Some(x);
            }
            if self.i < self.ins.len() {
                self.i += 1;
                return Some(self.ins[self.i - 1]);
            }
            return None;
        }
    }
}

/// A dynamic graph: an immutable base CSR, a log of applied edge edits with
/// per-node sorted deltas, and a materialized current CSR (see the
/// [module docs](self) for the layout and the bit-for-bit contract).
#[derive(Clone, Debug)]
pub struct ChurnGraph {
    /// The last compacted snapshot — what un-edited rows are read from.
    base: Graph,
    /// The merged current topology ([`WalkGraph::topology`] and all
    /// weight-blind consumers read this).
    current: Graph,
    /// Per-node deltas vs `base`; nodes without pending edits are absent.
    delta: BTreeMap<u32, NodeDelta>,
    /// Edits applied since the last compaction, in application order.
    log: Vec<EdgeEdit>,
    /// Compact automatically once the log reaches this length (`None`:
    /// only on explicit [`ChurnGraph::compact`] calls).
    compact_after: Option<usize>,
    compactions: u64,
}

impl ChurnGraph {
    /// A churn graph starting at `base`, compacting only on explicit
    /// [`ChurnGraph::compact`] calls.
    pub fn new(base: Graph) -> Self {
        ChurnGraph {
            current: base.clone(),
            base,
            delta: BTreeMap::new(),
            log: Vec::new(),
            compact_after: None,
            compactions: 0,
        }
    }

    /// [`ChurnGraph::new`] with periodic compaction: after any
    /// [`apply`](Self::apply) that grows the delta log to `edits` entries
    /// or more, the graph compacts itself.
    ///
    /// # Panics
    /// Panics if `edits` is 0 (the log could never hold anything).
    pub fn with_compaction_threshold(base: Graph, edits: usize) -> Self {
        assert!(edits > 0, "compaction threshold must be positive");
        let mut g = Self::new(base);
        g.compact_after = Some(edits);
        g
    }

    /// Number of nodes (fixed; churn is edge-only).
    pub fn n(&self) -> usize {
        self.current.n()
    }

    /// Number of undirected edges of the current topology.
    pub fn m(&self) -> usize {
        self.current.m()
    }

    /// Adjacency test on the current topology.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.current.has_edge(u, v)
    }

    /// The base CSR the pending deltas are relative to.
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Edits applied since the last compaction.
    pub fn pending_edits(&self) -> usize {
        self.log.len()
    }

    /// The delta log since the last compaction, in application order.
    pub fn log(&self) -> &[EdgeEdit] {
        &self.log
    }

    /// True iff no deltas are pending (base ≡ current).
    pub fn is_compacted(&self) -> bool {
        self.log.is_empty()
    }

    /// Number of compactions performed (explicit and periodic).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Heap bytes of the two CSRs plus the delta structures.
    pub fn memory_bytes(&self) -> usize {
        let deltas: usize = self
            .delta
            .values()
            .map(|d| (d.ins.len() + d.del.len()) * 4)
            .sum();
        self.base.memory_bytes()
            + self.current.memory_bytes()
            + deltas
            + self.log.len() * std::mem::size_of::<EdgeEdit>()
    }

    /// Does `{u, v}` exist under `base + delta`?
    fn lives(base: &Graph, delta: &BTreeMap<u32, NodeDelta>, u: usize, v: usize) -> bool {
        if let Some(nd) = delta.get(&(u as u32)) {
            if nd.ins.binary_search(&(v as u32)).is_ok() {
                return true;
            }
            if nd.del.binary_search(&(v as u32)).is_ok() {
                return false;
            }
        }
        base.has_edge(u, v)
    }

    /// Apply one batch of edits **atomically**: on any [`ChurnError`] the
    /// graph is left exactly as it was. Within the batch, edits apply in
    /// order (so a batch may delete an edge it inserted). On success the
    /// current CSR is rebuilt, and — if a compaction threshold is set and
    /// reached — the graph compacts.
    pub fn apply(&mut self, edits: &[EdgeEdit]) -> Result<(), ChurnError> {
        if edits.is_empty() {
            return Ok(());
        }
        let n = self.n();
        // Work on a copy of the delta map so a mid-batch rejection cannot
        // leave a half-applied state (the map is proportional to pending
        // churn, not to the graph).
        let mut delta = self.delta.clone();
        let mut half_edges = self.current.total_volume();
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
                    if Self::lives(&self.base, &delta, u, v) {
                        return Err(ChurnError::DuplicateInsert { u, v });
                    }
                    check_edge_slots(half_edges + 2, n)?;
                    for (a, b) in [(u, v), (v, u)] {
                        let nd = delta.entry(a as u32).or_default();
                        // Re-inserting a deleted base edge cancels the
                        // deletion; otherwise it is a fresh insert.
                        if !sorted_remove(&mut nd.del, b as u32) {
                            sorted_insert(&mut nd.ins, b as u32);
                        }
                    }
                    half_edges += 2;
                }
                EdgeEdit::Delete { .. } => {
                    if !Self::lives(&self.base, &delta, u, v) {
                        return Err(ChurnError::MissingDelete { u, v });
                    }
                    for (a, b) in [(u, v), (v, u)] {
                        let nd = delta.entry(a as u32).or_default();
                        // Deleting a same-batch insert cancels it;
                        // otherwise mark the base edge deleted.
                        if !sorted_remove(&mut nd.ins, b as u32) {
                            sorted_insert(&mut nd.del, b as u32);
                        }
                    }
                    half_edges -= 2;
                }
            }
        }
        delta.retain(|_, nd| !nd.is_empty());
        self.current = Self::rebuild(&self.base, &delta, half_edges);
        self.delta = delta;
        self.log.extend_from_slice(edits);
        if self.compact_after.is_some_and(|thr| self.log.len() >= thr) {
            self.compact();
        }
        Ok(())
    }

    /// Merge `base + delta` into a fresh CSR.
    ///
    /// Walks `delta` in key order: each run of untouched rows between two
    /// edited ones is one bulk copy of base neighbors plus its offsets
    /// shifted by the edits so far, and each edited row is one merge.
    fn rebuild(base: &Graph, delta: &BTreeMap<u32, NodeDelta>, half_edges: usize) -> Graph {
        let n = base.n();
        let (base_offsets, base_neighbors) = base.raw_parts();
        let mut offsets: Vec<EdgeIndex> = Vec::with_capacity(n + 1);
        let mut neighbors: Vec<u32> = Vec::with_capacity(half_edges);
        offsets.push(0);
        // Rows `lo..hi` unedited: copy them and their shifted ends. Fits:
        // half_edges stayed under the slot guard at every insert, and the
        // wrapping shift is exact because every result fits in u32.
        let copy_rows =
            |lo: usize, hi: usize, offsets: &mut Vec<EdgeIndex>, neighbors: &mut Vec<u32>| {
                let shift = (neighbors.len() as EdgeIndex).wrapping_sub(base_offsets[lo]);
                offsets.extend(
                    base_offsets[lo + 1..=hi]
                        .iter()
                        .map(|&o| o.wrapping_add(shift)),
                );
                neighbors.extend_from_slice(
                    &base_neighbors[base_offsets[lo] as usize..base_offsets[hi] as usize],
                );
            };
        let mut next = 0;
        for (&u, nd) in delta {
            let u = u as usize;
            copy_rows(next, u, &mut offsets, &mut neighbors);
            neighbors.extend(MergedRow {
                base: base.neighbors_raw(u),
                ins: &nd.ins,
                del: &nd.del,
                b: 0,
                i: 0,
                d: 0,
            });
            offsets.push(neighbors.len() as EdgeIndex);
            next = u + 1;
        }
        copy_rows(next, n, &mut offsets, &mut neighbors);
        debug_assert_eq!(neighbors.len(), half_edges);
        Graph::from_raw(offsets, neighbors)
    }

    /// Promote the current topology to the new base and clear the delta
    /// log. Results are unchanged to the bit (the current CSR *is* the
    /// merged topology); only the storage shape changes.
    pub fn compact(&mut self) {
        if self.is_compacted() {
            return;
        }
        self.base = self.current.clone();
        self.delta.clear();
        self.log.clear();
        self.compactions += 1;
    }

    /// The pending delta of `v`'s row, if any.
    fn row_delta(&self, v: usize) -> Option<&NodeDelta> {
        self.delta.get(&(v as u32))
    }
}

/// Graphs that accept in-place edge churn — the seam
/// `lmt-service`'s `TauService::apply_churn` mutates its graph through.
pub trait Churnable {
    /// Apply one batch of edits atomically; `Err` leaves the graph
    /// unchanged. See [`ChurnGraph::apply`].
    fn apply_edits(&mut self, edits: &[EdgeEdit]) -> Result<(), ChurnError>;
}

impl Churnable for ChurnGraph {
    fn apply_edits(&mut self, edits: &[EdgeEdit]) -> Result<(), ChurnError> {
        self.apply(edits)
    }
}

impl WalkGraph for ChurnGraph {
    #[inline]
    fn topology(&self) -> &Graph {
        &self.current
    }

    #[inline]
    fn walk_degree(&self, u: usize) -> f64 {
        self.current.degree(u) as f64
    }

    #[inline]
    fn total_walk_weight(&self) -> f64 {
        self.current.total_volume() as f64
    }

    #[inline]
    fn loop_weight(&self, _u: usize) -> f64 {
        0.0
    }

    #[inline]
    fn pull(&self, v: usize, p: &[f64]) -> f64 {
        // Un-edited rows read the current CSR (identical bits: the row *is*
        // the base row and the kernel is the static one); edited rows
        // traverse the delta merge — same ascending order, same
        // per-neighbor add with the current degree.
        match self.row_delta(v) {
            None => self.current.pull(v, p),
            Some(nd) => {
                let mut acc = 0.0f64;
                let row = MergedRow {
                    base: self.base.neighbors_raw(v),
                    ins: &nd.ins,
                    del: &nd.del,
                    b: 0,
                    i: 0,
                    d: 0,
                };
                for u in row {
                    let u = u as usize;
                    let d = self.current.degree(u);
                    debug_assert!(d > 0);
                    acc += p[u] / d as f64;
                }
                acc
            }
        }
    }

    #[inline]
    fn pull_block(&self, v: usize, p: &[f64], width: usize, out: &mut [f64]) {
        // Un-edited rows dispatch to the current CSR's kernels (explicit
        // lanes for widths 1/2/4/8); edited rows take the dynamic
        // delta-merge loop — per lane the same adds in the same
        // ascending-neighbor order, so every lane stays bit-identical to a
        // solo `pull` (the `WalkGraph::pull_block` contract).
        match self.row_delta(v) {
            None => self.current.pull_block(v, p, width, out),
            Some(nd) => {
                out.fill(0.0);
                let row = MergedRow {
                    base: self.base.neighbors_raw(v),
                    ins: &nd.ins,
                    del: &nd.del,
                    b: 0,
                    i: 0,
                    d: 0,
                };
                for u in row {
                    let u = u as usize;
                    let d = self.current.degree(u);
                    debug_assert!(d > 0);
                    let d = d as f64;
                    let prow = &p[u * width..u * width + width];
                    for (o, &pu) in out.iter_mut().zip(prow) {
                        *o += pu / d;
                    }
                }
            }
        }
    }

    #[inline]
    fn flat_stationary(&self) -> Option<f64> {
        self.current.flat_stationary()
    }

    #[inline]
    fn sample_step(&self, at: usize, rng: &mut SmallRng) -> usize {
        self.current.sample_step(at, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn dist(n: usize, salt: usize) -> Vec<f64> {
        (0..n).map(|v| ((v * 7 + salt + 1) as f64).recip()).collect()
    }

    #[test]
    fn zero_churn_pull_is_bit_identical_to_static() {
        let (g, _) = gen::ring_of_cliques_regular(4, 6);
        let cg = ChurnGraph::new(g.clone());
        let p = dist(g.n(), 3);
        for v in 0..g.n() {
            assert_eq!(cg.pull(v, &p).to_bits(), g.pull(v, &p).to_bits(), "node {v}");
        }
        assert!(cg.is_compacted());
        assert_eq!(cg.topology(), &g);
    }

    #[test]
    fn edited_rows_match_rebuilt_static_graph_bitwise() {
        // After edits, pull/pull_block (delta-merge path on edited rows)
        // must match a from-scratch static graph of the same topology.
        let g = gen::grid(4, 5);
        let mut cg = ChurnGraph::new(g.clone());
        cg.apply(&[
            EdgeEdit::delete(0, 1),
            EdgeEdit::insert(0, 6),
            EdgeEdit::insert(2, 13),
        ])
        .unwrap();
        assert!(!cg.is_compacted());
        assert_eq!(cg.pending_edits(), 3);
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
            let mut got = vec![f64::NAN; width];
            let mut want = vec![f64::NAN; width];
            for v in 0..n {
                cg.pull_block(v, &interleaved, width, &mut got);
                fresh.pull_block(v, &interleaved, width, &mut want);
                for j in 0..width {
                    assert_eq!(got[j].to_bits(), want[j].to_bits(), "w={width} v={v} lane {j}");
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
        cg.apply(&[EdgeEdit::delete(0, 1), EdgeEdit::insert(0, 1)]).unwrap();
        // Topology is back to base; the log still records the flap.
        assert_eq!(cg.topology(), &g);
        assert_eq!(cg.pending_edits(), 2);
        assert!(cg.delta.is_empty(), "cancelling edits leave no row deltas");
        // Same within one batch for a fresh edge.
        cg.apply(&[EdgeEdit::insert(0, 4), EdgeEdit::delete(0, 4)]).unwrap();
        assert_eq!(cg.topology(), &g);
    }

    #[test]
    fn compact_promotes_current_and_clears_log() {
        let g = gen::complete(6);
        let mut cg = ChurnGraph::new(g.clone());
        cg.apply(&[EdgeEdit::delete(0, 1)]).unwrap();
        let before = cg.topology().clone();
        cg.compact();
        assert!(cg.is_compacted());
        assert_eq!(cg.compactions(), 1);
        assert_eq!(cg.base(), &before);
        assert_eq!(cg.topology(), &before);
        // Compacting a compacted graph is a no-op.
        cg.compact();
        assert_eq!(cg.compactions(), 1);
    }

    #[test]
    fn periodic_compaction_fires_at_threshold() {
        let g = gen::complete(6);
        let mut cg = ChurnGraph::with_compaction_threshold(g, 2);
        cg.apply(&[EdgeEdit::delete(0, 1)]).unwrap();
        assert!(!cg.is_compacted());
        cg.apply(&[EdgeEdit::delete(2, 3)]).unwrap();
        assert!(cg.is_compacted(), "threshold reached → auto-compacted");
        assert_eq!(cg.compactions(), 1);
        assert_eq!(cg.m(), 13);
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
            (vec![EdgeEdit::insert(0, 2), EdgeEdit::delete(3, 0)], "absent edge"),
            (vec![EdgeEdit::insert(0, 2), EdgeEdit::insert(0, 2)], "existing edge"),
        ];
        for (batch, needle) in cases {
            let err = cg.apply(&batch).unwrap_err();
            assert!(err.to_string().contains(needle), "{batch:?} → {err}");
            assert_eq!(cg.topology(), &g, "{batch:?} must leave the graph unchanged");
            assert!(cg.is_compacted());
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
        assert!(cg.memory_bytes() > cg.base().memory_bytes());
    }

    #[test]
    fn rebuild_matches_builder_over_live_edge_set() {
        // The live edge set is tracked independently (base − deletes +
        // inserts) and rebuilt with the builder after every batch. Batches
        // edit node 0, node n − 1, adjacent rows, and re-toggle earlier
        // edits, without compaction in between.
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
        assert!(!cg.is_compacted());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let g = gen::complete(4);
        let mut cg = ChurnGraph::with_compaction_threshold(g.clone(), 1);
        cg.apply(&[]).unwrap();
        assert!(cg.is_compacted());
        assert_eq!(cg.compactions(), 0);
        assert_eq!(cg.topology(), &g);
    }
}
