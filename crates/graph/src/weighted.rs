//! Weighted graphs: CSR topology plus a parallel edge-weight array.
//!
//! The paper's algorithms are stated for unweighted graphs, but the walk
//! operator generalizes canonically: move from `u` to `v` with probability
//! proportional to the edge weight `w(u,v)`, giving the stationary
//! distribution `π(v) ∝ W(v)` (weighted degree). [`WeightedGraph`] carries
//! exactly that structure:
//!
//! * the topology is an ordinary immutable [`Graph`] (so every weight-blind
//!   consumer — BFS, CONGEST routing, conductance of vertex sets — reuses
//!   the existing code unchanged), and
//! * weights live in a flat `Vec<f64>` **sharing the CSR offsets** with the
//!   neighbor array: `weights_of(u)[i]` is the weight of the edge to
//!   `neighbors_raw(u)[i]`.
//!
//! Optional per-node **self-loop weights** make the lazy walk a special
//! case: a loop of weight equal to the node's neighbor-weight sum yields
//! exactly the ½-stay/½-move chain (see `lmt-walks`' tests).
//!
//! Invariants (checked by [`WeightedGraph::validate`], enforced by
//! [`WeightedGraphBuilder`]):
//! * the topology satisfies all [`Graph`] invariants,
//! * every edge weight is finite and strictly positive,
//! * weights are symmetric: `w(u,v) == w(v,u)` exactly (bit equality),
//! * loop weights are finite and non-negative (0 = no loop).

use crate::{Graph, GraphBuilder};

/// An immutable undirected weighted graph in compressed-sparse-row form.
///
/// See the [module docs](self) for the representation and invariants.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedGraph {
    topo: Graph,
    /// Parallel to the topology's flat neighbor array (length `2m`).
    weights: Vec<f64>,
    /// Per-node self-loop weight (0 = none).
    loops: Vec<f64>,
    /// Cached walk degrees `W(u) = Σ_i weights_of(u)[i] + loops[u]`.
    wdeg: Vec<f64>,
    /// Cached `Σ_u W(u)`.
    total: f64,
}

impl WeightedGraph {
    /// Assemble from parts; `pub(crate)` — use [`WeightedGraphBuilder`] or
    /// the [`crate::gen::weighted`] decorators. Debug builds validate.
    pub(crate) fn from_parts(topo: Graph, weights: Vec<f64>, loops: Vec<f64>) -> Self {
        assert_eq!(weights.len(), topo.total_volume(), "weight array length");
        assert_eq!(loops.len(), topo.n(), "loop array length");
        let wdeg: Vec<f64> = (0..topo.n())
            .map(|u| loops[u] + weights[topo.neighbor_range(u)].iter().sum::<f64>())
            .collect();
        let total = wdeg.iter().sum();
        let g = WeightedGraph {
            topo,
            weights,
            loops,
            wdeg,
            total,
        };
        debug_assert!(g.validate().is_ok(), "invalid weighted graph");
        g
    }

    /// Decorate a topology with unit weight `1.0` on every edge and no
    /// loops. Walks on the result reproduce unweighted walks **bit-for-bit**
    /// (see `lmt-graph::walk`'s module docs).
    pub fn unit(topo: Graph) -> Self {
        let weights = vec![1.0; topo.total_volume()];
        let loops = vec![0.0; topo.n()];
        WeightedGraph::from_parts(topo, weights, loops)
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.topo.n()
    }

    /// Number of undirected edges `m` (loops not counted).
    #[inline]
    pub fn m(&self) -> usize {
        self.topo.m()
    }

    /// Topological degree of `u` (number of incident edges, loop excluded).
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.topo.degree(u)
    }

    /// The underlying unweighted topology.
    #[inline]
    pub fn topology(&self) -> &Graph {
        &self.topo
    }

    /// Neighbors of `u`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.topo.neighbors(u)
    }

    /// The weights of `u`'s incident edges, aligned entry-for-entry with
    /// [`Graph::neighbors_raw`] of the topology.
    #[inline]
    pub fn weights_of(&self, u: usize) -> &[f64] {
        &self.weights[self.topo.neighbor_range(u)]
    }

    /// `(neighbor, weight)` pairs of `u`, neighbor-ascending.
    #[inline]
    pub fn neighbor_weights(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.topo
            .neighbors_raw(u)
            .iter()
            .zip(self.weights_of(u))
            .map(|(&v, &w)| (v as usize, w))
    }

    /// Weight of the edge `{u, v}`, or `None` if not adjacent
    /// (`O(log deg)`).
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<f64> {
        if u >= self.n() || v >= self.n() {
            return None;
        }
        self.topo
            .neighbors_raw(u)
            .binary_search(&(v as u32))
            .ok()
            .map(|i| self.weights_of(u)[i])
    }

    /// Self-loop weight at `u` (0 = no loop).
    #[inline]
    pub fn loop_weight(&self, u: usize) -> f64 {
        self.loops[u]
    }

    /// The walk degree `W(u) = Σ_v w(u,v) + loop_weight(u)` (cached).
    #[inline]
    pub fn weighted_degree(&self, u: usize) -> f64 {
        self.wdeg[u]
    }

    /// `Σ_u W(u)` — twice the total edge weight plus loop weights (cached);
    /// the weighted analogue of the volume `2m`.
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Heap bytes held by the graph: the compact CSR topology
    /// ([`Graph::memory_bytes`]) plus the parallel `f64` arrays (`2m`
    /// weights, `n` loops, `n` cached walk degrees).
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.topo.memory_bytes()
            + (self.weights.len() + self.loops.len() + self.wdeg.len()) * std::mem::size_of::<f64>()
    }

    /// Explicit-lane weighted SpMM kernel: `pull_block` with the lane count
    /// fixed at compile time (see `lmt-graph::walk`'s module docs for the
    /// autovectorization rationale and the bit-identity argument). Per
    /// lane: multiply-then-divide per term, ascending-neighbor order, loop
    /// term last — exactly the dynamic kernel's operation sequence.
    #[inline]
    fn pull_lanes<const W: usize>(&self, v: usize, p: &[f64], out: &mut [f64]) {
        let mut acc = [0.0f64; W];
        for (u, w) in self.neighbor_weights(v) {
            let wd = self.wdeg[u];
            let row = &p[u * W..u * W + W];
            for j in 0..W {
                acc[j] += row[j] * w / wd;
            }
        }
        let lw = self.loops[v];
        if lw > 0.0 {
            let wd = self.wdeg[v];
            let row = &p[v * W..v * W + W];
            for j in 0..W {
                acc[j] += row[j] * lw / wd;
            }
        }
        out[..W].copy_from_slice(&acc);
    }

    /// Check all invariants (topology CSR invariants plus the
    /// symmetric-positive-weight invariants of the module docs); returns a
    /// human-readable error on the first failure.
    pub fn validate(&self) -> Result<(), String> {
        self.topo.validate()?;
        if self.weights.len() != self.topo.total_volume() {
            return Err("weight array does not share the CSR offsets".into());
        }
        if self.loops.len() != self.n() {
            return Err("loop array length mismatch".into());
        }
        for u in 0..self.n() {
            let lw = self.loops[u];
            if !lw.is_finite() || lw < 0.0 {
                return Err(format!("loop weight {lw} at {u} not finite/non-negative"));
            }
            for (v, w) in self.neighbor_weights(u) {
                if !w.is_finite() || w <= 0.0 {
                    return Err(format!("weight {w} on edge ({u},{v}) not finite/positive"));
                }
                // Symmetry must be exact: the walk arithmetic divides by
                // cached W(u), and an asymmetric pair would silently break
                // reversibility (π ∝ W).
                let back = self.edge_weight(v, u).expect("topology is symmetric");
                if back.to_bits() != w.to_bits() {
                    return Err(format!(
                        "asymmetric weights on edge ({u},{v}): {w} vs {back}"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl From<Graph> for WeightedGraph {
    /// Unit-weight decoration (see [`WeightedGraph::unit`]).
    fn from(g: Graph) -> Self {
        WeightedGraph::unit(g)
    }
}

impl crate::walk::WalkGraph for WeightedGraph {
    #[inline]
    fn topology(&self) -> &Graph {
        &self.topo
    }

    #[inline]
    fn walk_degree(&self, u: usize) -> f64 {
        self.wdeg[u]
    }

    #[inline]
    fn total_walk_weight(&self) -> f64 {
        self.total
    }

    #[inline]
    fn loop_weight(&self, u: usize) -> f64 {
        self.loops[u]
    }

    #[inline]
    fn pull(&self, v: usize, p: &[f64]) -> f64 {
        // Multiply-then-divide: with unit weights `p[u] * 1.0` is exact and
        // `wdeg[u]` is the exact integer degree, so this reproduces the
        // unweighted kernel `p[u] / d` bit-for-bit (summed in the same
        // neighbor-ascending order, from +0.0 like each `pull_block` lane).
        let mut inflow = self
            .neighbor_weights(v)
            .fold(0.0, |acc, (u, w)| acc + p[u] * w / self.wdeg[u]);
        let lw = self.loops[v];
        if lw > 0.0 {
            inflow += p[v] * lw / self.wdeg[v];
        }
        inflow
    }

    #[inline]
    fn pull_block(&self, v: usize, p: &[f64], width: usize, out: &mut [f64]) {
        // Lane-for-lane the weighted `pull` kernel: multiply-then-divide
        // per term, neighbors in ascending order, loop term last — so each
        // lane is bit-identical to a solo sweep (and, with unit weights, to
        // the unweighted kernel). Common widths take the explicit-lane
        // kernels; other widths the dynamic loop — same arithmetic.
        match width {
            1 => return self.pull_lanes::<1>(v, p, out),
            2 => return self.pull_lanes::<2>(v, p, out),
            4 => return self.pull_lanes::<4>(v, p, out),
            8 => return self.pull_lanes::<8>(v, p, out),
            _ => {}
        }
        out.fill(0.0);
        for (u, w) in self.neighbor_weights(v) {
            let wd = self.wdeg[u];
            let row = &p[u * width..u * width + width];
            for (o, &pu) in out.iter_mut().zip(row) {
                *o += pu * w / wd;
            }
        }
        let lw = self.loops[v];
        if lw > 0.0 {
            let wd = self.wdeg[v];
            let row = &p[v * width..v * width + width];
            for (o, &pv) in out.iter_mut().zip(row) {
                *o += pv * lw / wd;
            }
        }
    }

    fn flat_stationary(&self) -> Option<f64> {
        let n = self.n();
        if n == 0 {
            return None;
        }
        let w0 = self.wdeg[0];
        // Exact equality: generators that intend weight-regularity produce
        // identical sums; anything else should use AssumeFlat explicitly.
        self.wdeg
            .iter()
            .all(|&w| w == w0 && w > 0.0)
            .then(|| 1.0 / n as f64)
    }

    fn sample_step(&self, at: usize, rng: &mut rand::rngs::SmallRng) -> usize {
        use rand::Rng;
        let total = self.wdeg[at];
        assert!(total > 0.0, "walk stuck at isolated node {at}");
        // Inverse-CDF over [loop, then neighbors ascending]: deterministic
        // in the RNG stream, one uniform draw per step.
        let mut x = rng.gen::<f64>() * total;
        let lw = self.loops[at];
        if lw > 0.0 {
            if x < lw {
                return at;
            }
            x -= lw;
        }
        let mut last = at;
        for (v, w) in self.neighbor_weights(at) {
            last = v;
            if x < w {
                return v;
            }
            x -= w;
        }
        // Float round-off can leave a sliver past the last bucket; assign
        // it to the final neighbor (or the loop if there are none).
        last
    }
}

/// Accumulates weighted undirected edges and builds a validated
/// [`WeightedGraph`].
///
/// Duplicate edges are merged with their **weights summed** (the natural
/// multigraph collapse, and symmetric by construction); self-loops go
/// through [`WeightedGraphBuilder::add_loop`], not `add_edge`, mirroring
/// the unweighted builder's simple-graph rule.
#[derive(Clone, Debug)]
pub struct WeightedGraphBuilder {
    n: usize,
    /// Directed half-edges with weights; both directions pushed per edge.
    arcs: Vec<(u32, u32, f64)>,
    loops: Vec<f64>,
}

impl WeightedGraphBuilder {
    /// Builder for a weighted graph on nodes `0..n`.
    ///
    /// # Panics
    /// Panics if `n` exceeds the `u32` id space — use
    /// [`WeightedGraphBuilder::try_new`] for a recoverable error.
    pub fn new(n: usize) -> Self {
        WeightedGraphBuilder::try_new(n).expect("node count exceeds u32 range")
    }

    /// Fallible [`WeightedGraphBuilder::new`]: rejects node counts outside
    /// the `u32` id space with [`crate::GraphError::TooManyNodes`]. The
    /// guard runs *before* the per-node loop array is allocated, so an
    /// absurd `n` is an `Err`, not an allocation attempt.
    pub fn try_new(n: usize) -> Result<Self, crate::GraphError> {
        crate::builder::check_node_count(n)?;
        Ok(WeightedGraphBuilder {
            n,
            arcs: Vec::new(),
            loops: vec![0.0; n],
        })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Add the undirected edge `{u, v}` with weight `w`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, a self-loop (use
    /// [`WeightedGraphBuilder::add_loop`]), or a non-finite / non-positive
    /// weight.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) -> &mut Self {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range n={}",
            self.n
        );
        assert_ne!(u, v, "self-loop at {u}: use add_loop for loop weights");
        assert!(
            w.is_finite() && w > 0.0,
            "edge ({u},{v}) weight {w} must be finite and > 0"
        );
        self.arcs.push((u as u32, v as u32, w));
        self.arcs.push((v as u32, u as u32, w));
        self
    }

    /// Add `w` to the self-loop weight of `u` (the walk stays put with
    /// probability `loop/W(u)`; a loop equal to the neighbor-weight sum is
    /// exactly the lazy walk).
    ///
    /// # Panics
    /// Panics on an out-of-range node or a non-finite / non-positive weight.
    pub fn add_loop(&mut self, u: usize, w: f64) -> &mut Self {
        assert!(u < self.n, "loop node {u} out of range n={}", self.n);
        assert!(
            w.is_finite() && w > 0.0,
            "loop weight {w} must be finite and > 0"
        );
        self.loops[u] += w;
        self
    }

    /// Add every `(u, v, w)` edge from an iterator.
    pub fn extend_edges<I: IntoIterator<Item = (usize, usize, f64)>>(
        &mut self,
        it: I,
    ) -> &mut Self {
        for (u, v, w) in it {
            self.add_edge(u, v, w);
        }
        self
    }

    /// Finish: sort, merge duplicates (summing weights), assemble CSR.
    ///
    /// # Panics
    /// Panics if the deduplicated edge-slot count overflows the compact
    /// offset layout — use [`WeightedGraphBuilder::try_build`] for a
    /// recoverable error.
    pub fn build(self) -> WeightedGraph {
        self.try_build()
            .expect("edge slots exceed u32 offset range")
    }

    /// Fallible [`WeightedGraphBuilder::build`]: rejects graphs whose
    /// (deduplicated) `2m + n` slot count — edge-weight slots plus
    /// per-node loop slots — overflows the `u32` offset space with
    /// [`crate::GraphError::TooManyEdgeSlots`].
    pub fn try_build(mut self) -> Result<WeightedGraph, crate::GraphError> {
        // Sort by (src, dst) only — weights of duplicate arcs merge by
        // addition, which is order-insensitive up to float association;
        // both directions of an edge see the same addend sequence (arcs
        // are pushed pairwise), so symmetry holds bitwise.
        self.arcs.sort_by_key(|&(u, v, _)| (u, v));
        let mut b = GraphBuilder::try_new(self.n)?;
        let mut weights: Vec<f64> = Vec::with_capacity(self.arcs.len());
        let mut i = 0;
        while i < self.arcs.len() {
            let (u, v, mut w) = self.arcs[i];
            i += 1;
            while i < self.arcs.len() && self.arcs[i].0 == u && self.arcs[i].1 == v {
                w += self.arcs[i].2;
                i += 1;
            }
            if u < v {
                b.add_edge(u as usize, v as usize);
            }
            weights.push(w);
        }
        let topo = b.try_build()?;
        Ok(WeightedGraph::from_parts(topo, weights, self.loops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::walk::WalkGraph;

    fn weighted_triangle() -> WeightedGraph {
        let mut b = WeightedGraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(0, 2, 4.0);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = weighted_triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.edge_weight(0, 2), Some(4.0));
        assert_eq!(g.edge_weight(2, 0), Some(4.0));
        assert_eq!(g.edge_weight(0, 3), None);
        assert_eq!(g.weighted_degree(0), 5.0);
        assert_eq!(g.weighted_degree(2), 6.0);
        assert_eq!(g.total_weight(), 14.0);
        assert_eq!(g.weights_of(1), &[1.0, 2.0]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn duplicate_edges_sum_weights() {
        let mut b = WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, 1.5);
        b.add_edge(1, 0, 0.5);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
    }

    #[test]
    fn loops_enter_walk_degree_but_not_m() {
        let mut b = WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_loop(0, 3.0);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.loop_weight(0), 3.0);
        assert_eq!(g.weighted_degree(0), 4.0);
        assert_eq!(g.weighted_degree(1), 1.0);
        assert_eq!(g.total_weight(), 5.0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn unit_decoration_matches_degrees() {
        let g = WeightedGraph::unit(gen::star(5));
        assert_eq!(g.weighted_degree(0), 4.0);
        assert_eq!(g.weighted_degree(3), 1.0);
        assert_eq!(g.total_weight(), 8.0);
        assert_eq!(g.edge_weight(0, 2), Some(1.0));
    }

    #[test]
    fn pull_weights_transitions() {
        let g = weighted_triangle();
        // p'(2) = p(0)·w(0,2)/W(0) + p(1)·w(1,2)/W(1).
        let p = [0.5, 0.5, 0.0];
        let expect = 0.5 * 4.0 / 5.0 + 0.5 * 2.0 / 3.0;
        assert!((g.pull(2, &p) - expect).abs() < 1e-15);
    }

    #[test]
    fn flat_stationary_detects_weight_regularity() {
        // Cycle with uniform weight 2.5: weight-regular.
        let mut b = WeightedGraphBuilder::new(4);
        for i in 0..4 {
            b.add_edge(i, (i + 1) % 4, 2.5);
        }
        assert_eq!(b.build().flat_stationary(), Some(0.25));
        // The triangle above is not.
        assert_eq!(weighted_triangle().flat_stationary(), None);
    }

    #[test]
    fn pull_block_lanes_bit_identical_to_pull() {
        // Weighted kernel with a self-loop in play: every lane of the
        // blocked sweep must match the solo sweep bit-for-bit.
        let mut b = WeightedGraphBuilder::new(4);
        b.add_edge(0, 1, 1.5);
        b.add_edge(1, 2, 2.0);
        b.add_edge(0, 2, 4.0);
        b.add_edge(2, 3, 0.25);
        b.add_loop(2, 3.0);
        let g = b.build();
        let n = g.n();
        let width = 2;
        let cols: Vec<Vec<f64>> = (0..width)
            .map(|j| (0..n).map(|v| 0.1 + 0.3 * ((v + j) as f64)).collect())
            .collect();
        let mut interleaved = vec![0.0; n * width];
        for (j, col) in cols.iter().enumerate() {
            for v in 0..n {
                interleaved[v * width + j] = col[v];
            }
        }
        let mut out = vec![f64::NAN; width];
        for v in 0..n {
            g.pull_block(v, &interleaved, width, &mut out);
            for (j, col) in cols.iter().enumerate() {
                assert_eq!(
                    out[j].to_bits(),
                    g.pull(v, col).to_bits(),
                    "lane {j} at node {v}"
                );
            }
        }
    }

    #[test]
    fn memory_bytes_counts_weight_arrays() {
        let g = weighted_triangle();
        // Topology (4 offsets + 6 neighbors, 4 bytes each) + 6 weights +
        // 3 loops + 3 cached walk degrees (8 bytes each).
        assert_eq!(g.memory_bytes(), (4 + 6) * 4 + (6 + 3 + 3) * 8);
    }

    #[test]
    fn try_new_rejects_oversized_node_count() {
        let err = WeightedGraphBuilder::try_new(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(
            err,
            crate::GraphError::TooManyNodes {
                n: u32::MAX as usize + 1
            }
        );
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn new_panics_on_oversized_node_count() {
        let _ = WeightedGraphBuilder::new(u32::MAX as usize + 1);
    }

    #[test]
    fn try_build_succeeds_on_small_graphs() {
        let mut b = WeightedGraphBuilder::try_new(2).unwrap();
        b.add_edge(0, 1, 0.5);
        let g = b.try_build().unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(0.5));
    }

    #[test]
    fn explicit_lane_kernels_bit_identical_to_pull() {
        // All dispatch widths (1/2/4/8 explicit, 3/5 dynamic) on a weighted
        // graph with a loop in play: each lane must match the solo kernel
        // bit-for-bit.
        let mut b = WeightedGraphBuilder::new(5);
        b.add_edge(0, 1, 1.5);
        b.add_edge(1, 2, 2.0);
        b.add_edge(0, 2, 4.0);
        b.add_edge(2, 3, 0.25);
        b.add_edge(3, 4, 1.0 / 3.0);
        b.add_loop(2, 3.0);
        let g = b.build();
        let n = g.n();
        for width in [1usize, 2, 3, 4, 5, 8] {
            let cols: Vec<Vec<f64>> = (0..width)
                .map(|j| (0..n).map(|v| 0.1 + 0.3 * ((v + j) as f64)).collect())
                .collect();
            let mut interleaved = vec![0.0; n * width];
            for (j, col) in cols.iter().enumerate() {
                for v in 0..n {
                    interleaved[v * width + j] = col[v];
                }
            }
            let mut out = vec![f64::NAN; width];
            for v in 0..n {
                g.pull_block(v, &interleaved, width, &mut out);
                for (j, col) in cols.iter().enumerate() {
                    assert_eq!(
                        out[j].to_bits(),
                        g.pull(v, col).to_bits(),
                        "width {width}, lane {j} at node {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn sample_step_deterministic_and_supported() {
        let g = weighted_triangle();
        let mut a = lmt_util::rng::fork(3, 1);
        let mut b = lmt_util::rng::fork(3, 1);
        for _ in 0..50 {
            let x = g.sample_step(0, &mut a);
            let y = g.sample_step(0, &mut b);
            assert_eq!(x, y);
            assert!(x == 1 || x == 2);
        }
    }

    #[test]
    fn heavy_loop_mostly_stays() {
        let mut b = WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_loop(0, 1e6);
        let g = b.build();
        let mut rng = lmt_util::rng::fork(9, 2);
        let stays = (0..200).filter(|_| g.sample_step(0, &mut rng) == 0).count();
        assert!(stays >= 195, "loop weight ignored: {stays}/200 stays");
    }

    #[test]
    #[should_panic(expected = "must be finite and > 0")]
    fn zero_weight_rejected() {
        WeightedGraphBuilder::new(2).add_edge(0, 1, 0.0);
    }

    #[test]
    #[should_panic(expected = "use add_loop")]
    fn self_loop_edge_rejected() {
        WeightedGraphBuilder::new(2).add_edge(1, 1, 1.0);
    }

    #[test]
    fn validate_catches_asymmetric_weights() {
        let mut g = weighted_triangle();
        // Corrupt one direction of edge (0,1): weights[0] is 0→1.
        g.weights[0] += 1.0;
        let err = g.validate().unwrap_err();
        assert!(err.contains("asymmetric"), "{err}");
    }
}
