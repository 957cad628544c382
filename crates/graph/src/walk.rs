//! The [`WalkGraph`] seam: one trait both [`Graph`] and
//! [`crate::WeightedGraph`] implement, so the random-walk
//! machinery in `lmt-walks` and the distributed algorithms in `lmt-core`
//! accept either substrate through a single generic parameter.
//!
//! Design constraints (and why the methods look the way they do):
//!
//! * **Bit-for-bit preservation of the unweighted path.** The
//!   [`Graph`] implementation performs *exactly* the
//!   floating-point operations the pre-trait code performed, in the same
//!   order ([`WalkGraph::pull`] is the old pull closure verbatim), so every
//!   unweighted walk result — distributions, mixing times, sampled
//!   endpoints — is unchanged to the last bit. Its blocked kernel divides
//!   once per node instead of once per half-edge (see below): every term
//!   is still the same IEEE division `p(u) / deg(u)`.
//! * **Unit weights ≡ unweighted.** The
//!   [`crate::WeightedGraph`] implementation computes each
//!   inflow term as `p(u)·w/W(u)` (multiply *then* divide). With every
//!   `w = 1.0` the multiplication is exact and `W(u)` is the exact integer
//!   degree, so the weighted path reproduces the unweighted one bit-for-bit
//!   — the property the workspace's `tests/weighted.rs` locks in.
//! * **Scheduling independence.** Implementations are `Sync` and pure
//!   (besides [`WalkGraph::sample_step`]'s caller-supplied RNG), so the
//!   rayon-parallel walk step stays deterministic.
//!
//! # Prescaled gather
//!
//! The unweighted inflow term `p(u) / deg(u)` depends only on the source
//! node `u`, so [`Graph`] computes it once per node per step
//! ([`WalkGraph::prescale_row`] fills `q(u) = p(u) / deg(u)`) and its
//! [`WalkGraph::pull_block`] is a plain gather-sum of `q` over the CSR row:
//! no division and no `deg(u)` lookup per half-edge. Each term is the
//! division the per-edge kernel performed, added in the same order, so
//! the sum is bit-identical. A weighted term `(p(u)·w)/W(u)` depends on
//! the edge weight before its rounding division, so it has no bit-exact
//! prescaled form: [`crate::WeightedGraph`] does not prescale
//! ([`WalkGraph::prescales`] is `false`) and gathers from `p` itself.
//!
//! # Explicit-lane `pull_block` kernels
//!
//! Both implementations dispatch [`WalkGraph::pull_block`] to
//! **const-generic explicit-lane kernels** for the common block widths
//! `W ∈ {1, 2, 4, 8}` (every other width falls back to the dynamic-width
//! loop). The lane count being a compile-time constant turns the per-lane
//! accumulator into a fixed `[f64; W]` on the stack with a fixed-trip-count
//! inner loop — the shape LLVM unrolls and autovectorizes — where the
//! dynamic-width loop compiles to scalar adds over a runtime-length slice.
//!
//! **Why this cannot change a single bit:** for each lane `j`, the kernel
//! performs *the same floating-point operations in the same order* as the
//! dynamic loop — terms are added in ascending-neighbor order, one add per
//! neighbor, loop term last (weighted). Vectorization only batches the
//! *independent* per-lane accumulators side by side; it never reassociates
//! the per-lane addition chains, so lane `j` of any kernel is bit-identical
//! to a solo [`WalkGraph::pull`] (the property the kernel tests and the
//! workspace determinism suite pin).
//!
//! Later scenario growth (the ROADMAP's dynamic edge-churn networks) plugs
//! in by implementing this trait, not by rewriting the walk stack.

use crate::Graph;
use rand::rngs::SmallRng;
use rand::Rng;

/// A graph a (possibly weighted) random walk can run on.
///
/// The walk semantics: from `u`, move to neighbor `v` with probability
/// `w(u,v)/W(u)` and stay put with probability `loop_weight(u)/W(u)`, where
/// `W(u) = Σ_v w(u,v) + loop_weight(u)` is the **walk degree**. The
/// stationary distribution of this chain is `π(v) = W(v)/Σ_u W(u)` (weights
/// are symmetric, so the chain is reversible). Unweighted graphs are the
/// all-`w = 1`, no-loop special case; the lazy walk is the
/// `loop_weight(u) = W_neighbors(u)` special case.
pub trait WalkGraph: Sync {
    /// The CSR topology the walk moves on (for BFS trees, CONGEST routing,
    /// neighbor iteration — everything that is weight-blind).
    fn topology(&self) -> &Graph;

    /// Number of nodes.
    #[inline]
    fn n(&self) -> usize {
        self.topology().n()
    }

    /// The walk degree `W(u)` (plain degree for unweighted graphs).
    fn walk_degree(&self, u: usize) -> f64;

    /// `Σ_u W(u)` — the normalization of the stationary distribution
    /// (`2m` for unweighted graphs).
    fn total_walk_weight(&self) -> f64;

    /// Self-loop weight at `u` (0 for simple graphs).
    fn loop_weight(&self, u: usize) -> f64;

    /// One simple-walk pull: the inflow
    /// `Σ_{u ∈ N(v)} p(u)·w(u,v)/W(u) + p(v)·loop_weight(v)/W(v)`
    /// gathered at `v` from the distribution slice `p`.
    ///
    /// This is the hot kernel of the walk operator; each implementation
    /// keeps its own arithmetic (see the module docs for why).
    fn pull(&self, v: usize, p: &[f64]) -> f64;

    /// Whether [`WalkGraph::prescale_row`] does any arithmetic. When it
    /// does not (the default: a weighted term has no bit-exact prescaled
    /// form, see the module docs), it is the identity copy and callers may
    /// hand `p` itself to [`WalkGraph::pull_block`].
    #[inline]
    fn prescales(&self) -> bool {
        false
    }

    /// Fill node `u`'s block row `q_row` of the **gather source**
    /// [`WalkGraph::pull_block`] reads, from `u`'s block row `p_row` of the
    /// node-major interleaved distribution matrix (`p_row[j]` is column
    /// `j`'s mass at `u`; the two rows have the same length).
    ///
    /// The unweighted implementation writes `q_row = p_row / deg(u)`, the
    /// factor every inflow term `u` sends shares; the default copies
    /// `p_row` unchanged. A row is a pure function of its own `p` row, so
    /// callers may fill any subset of rows, in any order or in parallel.
    /// An all-`+0.0` row stays all `+0.0`.
    #[inline]
    fn prescale_row(&self, _u: usize, p_row: &[f64], q_row: &mut [f64]) {
        q_row.copy_from_slice(p_row);
    }

    /// Blocked variant of [`WalkGraph::pull`]: gather the inflow at `v` for
    /// `width` distributions at once from the **node-major interleaved**
    /// gather source `q` that [`WalkGraph::prescale_row`] builds from the
    /// distribution matrix `p` (`p[u * width + j]` is column `j`'s mass at
    /// `u`; when [`WalkGraph::prescales`] is `false`, `q` may be `p`
    /// itself), writing column `j`'s inflow to `out[j]`.
    ///
    /// This is the SpMM kernel of `lmt-walks`' multi-source evolution
    /// engine: one CSR row traversal feeds every column, instead of one
    /// graph sweep per column. The engine prescales each live row once per
    /// step and then gathers every destination row from the same `q`.
    ///
    /// **Contract (bit-for-bit lane independence):** for every column `j`,
    /// `out[j]` must be produced by *exactly* the floating-point operations
    /// [`WalkGraph::pull`] performs on the single distribution
    /// `u ↦ p[u * width + j]`, in the same order, counting the ones
    /// [`WalkGraph::prescale_row`] performed for it — each lane of a
    /// blocked sweep is indistinguishable from a solo sweep. The unweighted
    /// kernel adds the prescaled `p(u) / deg(u)` in neighbor-ascending
    /// order; the weighted one computes `p(u)·w/W(u)` per term with the
    /// loop term last — each mirroring its `pull`.
    ///
    /// Implementations may assume `out.len() == width` and
    /// `q.len() == n * width`.
    fn pull_block(&self, v: usize, q: &[f64], width: usize, out: &mut [f64]);

    /// `Some(π-value)` if the stationary distribution is exactly flat
    /// (`1/n` everywhere — topologically regular for unweighted graphs,
    /// equal walk degrees for weighted ones), else `None`. The §3
    /// window-oracle and Algorithm 2 acceptance tests are only exact in
    /// this setting.
    fn flat_stationary(&self) -> Option<f64>;

    /// One token step: sample the successor of `at` (a neighbor, or `at`
    /// itself under a self-loop) from the walk's transition distribution.
    ///
    /// The unweighted implementation draws a uniform neighbor index with
    /// the exact RNG consumption of the historical sampler, so seeded
    /// unweighted walks are unchanged.
    ///
    /// # Panics
    /// Panics if `at` has walk degree zero (no neighbors and no loop).
    fn sample_step(&self, at: usize, rng: &mut SmallRng) -> usize;
}

impl Graph {
    /// Explicit-lane unweighted SpMM kernel: [`WalkGraph::pull_block`] with
    /// the lane count fixed at compile time, so the `W` accumulators live
    /// in a stack array and the inner loop has a constant trip count (the
    /// autovectorizable shape — module docs). Per lane, the adds are the
    /// dynamic kernel's adds in the same ascending-neighbor order, each of
    /// a term prescaled by [`WalkGraph::prescale_row`].
    #[inline]
    fn pull_lanes<const W: usize>(&self, v: usize, q: &[f64], out: &mut [f64]) {
        let mut acc = [0.0f64; W];
        for &u in self.neighbors_raw(v) {
            let u = u as usize;
            let row = &q[u * W..u * W + W];
            for j in 0..W {
                acc[j] += row[j];
            }
        }
        out[..W].copy_from_slice(&acc);
    }
}

impl WalkGraph for Graph {
    #[inline]
    fn topology(&self) -> &Graph {
        self
    }

    #[inline]
    fn walk_degree(&self, u: usize) -> f64 {
        self.degree(u) as f64
    }

    #[inline]
    fn total_walk_weight(&self) -> f64 {
        self.total_volume() as f64
    }

    #[inline]
    fn loop_weight(&self, _u: usize) -> f64 {
        0.0
    }

    #[inline]
    fn pull(&self, v: usize, p: &[f64]) -> f64 {
        // Every neighbor u of v has degree ≥ 1 (v is its neighbor), so the
        // division is safe. The fold starts at +0.0 like each `pull_block`
        // lane (`Iterator::sum` would give −0.0 on an isolated node).
        self.neighbors(v).fold(0.0, |acc, u| {
            let d = self.degree(u);
            debug_assert!(d > 0);
            acc + p[u] / d as f64
        })
    }

    #[inline]
    fn prescales(&self) -> bool {
        true
    }

    #[inline]
    fn prescale_row(&self, u: usize, p_row: &[f64], q_row: &mut [f64]) {
        // `pull`'s divisor. An isolated node is no one's neighbor, so its
        // row is never gathered; dividing it by 1 keeps the engine's +0.0
        // there +0.0 rather than 0/0 = NaN.
        let d = self.degree(u).max(1) as f64;
        for (qj, &pj) in q_row.iter_mut().zip(p_row) {
            *qj = pj / d;
        }
    }

    #[inline]
    fn pull_block(&self, v: usize, q: &[f64], width: usize, out: &mut [f64]) {
        // Lane-for-lane the `pull` kernel above: each lane's sum starts at
        // 0.0 and adds `p_j(u) / d(u)` — prescaled into `q` — in
        // neighbor-ascending order. Common widths dispatch to the
        // explicit-lane kernels (see the module docs); uncommon widths
        // (retired-lane blocks) take the dynamic loop below — same
        // arithmetic either way.
        match width {
            1 => return self.pull_lanes::<1>(v, q, out),
            2 => return self.pull_lanes::<2>(v, q, out),
            4 => return self.pull_lanes::<4>(v, q, out),
            8 => return self.pull_lanes::<8>(v, q, out),
            _ => {}
        }
        out.fill(0.0);
        for &u in self.neighbors_raw(v) {
            let u = u as usize;
            let row = &q[u * width..u * width + width];
            for (o, &qu) in out.iter_mut().zip(row) {
                *o += qu;
            }
        }
    }

    #[inline]
    fn flat_stationary(&self) -> Option<f64> {
        // A 0-regular (edgeless) graph is "regular" to props::regularity,
        // but has no stationary distribution at all — mirror the weighted
        // impl's positive-degree requirement.
        crate::props::regularity(self)
            .filter(|&d| d > 0)
            .map(|_| 1.0 / self.n() as f64)
    }

    #[inline]
    fn sample_step(&self, at: usize, rng: &mut SmallRng) -> usize {
        let d = self.degree(at);
        assert!(d > 0, "walk stuck at isolated node {at}");
        self.neighbor(at, rng.gen_range(0..d))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gen;
    use lmt_util::rng::fork;

    /// The gather source of a whole interleaved matrix, one row at a time.
    pub(crate) fn gather_source(g: &dyn WalkGraph, p: &[f64], width: usize) -> Vec<f64> {
        let mut q = vec![f64::NAN; p.len()];
        for (u, (q_row, p_row)) in q
            .chunks_exact_mut(width)
            .zip(p.chunks_exact(width))
            .enumerate()
        {
            g.prescale_row(u, p_row, q_row);
        }
        q
    }

    #[test]
    fn graph_walk_degree_is_degree() {
        let g = gen::path(4); // degrees 1,2,2,1
        assert_eq!(g.walk_degree(0), 1.0);
        assert_eq!(g.walk_degree(1), 2.0);
        assert_eq!(g.total_walk_weight(), 6.0);
        assert_eq!(g.loop_weight(2), 0.0);
    }

    #[test]
    fn graph_pull_matches_manual_inflow() {
        let g = gen::path(3);
        let p = [0.5, 0.25, 0.25];
        // Node 1 gathers p(0)/1 + p(2)/1.
        assert_eq!(g.pull(1, &p), 0.75);
        // Node 0 gathers p(1)/2.
        assert_eq!(g.pull(0, &p), 0.125);
    }

    #[test]
    fn flat_stationary_only_for_regular() {
        assert_eq!(gen::cycle(6).flat_stationary(), Some(1.0 / 6.0));
        assert_eq!(gen::star(4).flat_stationary(), None);
        // 0-regular is "regular" but has no stationary distribution.
        assert_eq!(crate::GraphBuilder::new(3).build().flat_stationary(), None);
    }

    #[test]
    fn sample_step_is_uniform_neighbor_draw() {
        let g = gen::complete(5);
        let mut a = fork(7, 1);
        let mut b = fork(7, 1);
        let via_trait = g.sample_step(2, &mut a);
        let manual = g.neighbor(2, b.gen_range(0..g.degree(2)));
        assert_eq!(via_trait, manual);
    }

    #[test]
    fn pull_block_lanes_bit_identical_to_pull() {
        // Three interleaved columns; every lane of the blocked kernel must
        // reproduce the solo kernel to the last bit.
        let g = gen::lollipop(5, 3);
        let n = g.n();
        let width = 3;
        let cols: Vec<Vec<f64>> = (0..width)
            .map(|j| {
                (0..n)
                    .map(|v| ((v * 7 + j * 3 + 1) as f64).recip())
                    .collect()
            })
            .collect();
        let mut interleaved = vec![0.0; n * width];
        for (j, col) in cols.iter().enumerate() {
            for v in 0..n {
                interleaved[v * width + j] = col[v];
            }
        }
        let q = gather_source(&g, &interleaved, width);
        let mut out = vec![f64::NAN; width];
        for v in 0..n {
            g.pull_block(v, &q, width, &mut out);
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
    fn explicit_lane_kernels_bit_identical_to_pull() {
        // Widths 1/2/4/8 hit the const-generic kernels, 3/5/7 the dynamic
        // fallback; every lane of every width must reproduce the solo
        // kernel to the last bit.
        let g = gen::lollipop(6, 4);
        let n = g.n();
        for width in [1usize, 2, 3, 4, 5, 7, 8] {
            let cols: Vec<Vec<f64>> = (0..width)
                .map(|j| {
                    (0..n)
                        .map(|v| ((v * 13 + j * 5 + 1) as f64).recip())
                        .collect()
                })
                .collect();
            let mut interleaved = vec![0.0; n * width];
            for (j, col) in cols.iter().enumerate() {
                for v in 0..n {
                    interleaved[v * width + j] = col[v];
                }
            }
            let q = gather_source(&g, &interleaved, width);
            let mut out = vec![f64::NAN; width];
            for v in 0..n {
                g.pull_block(v, &q, width, &mut out);
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
    #[should_panic(expected = "isolated node")]
    fn sample_step_isolated_panics() {
        let g = crate::GraphBuilder::new(2).build();
        let mut rng = fork(0, 0);
        let _ = g.sample_step(0, &mut rng);
    }
}
