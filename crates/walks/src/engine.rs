//! Frontier-sparse, multi-source-blocked walk evolution.
//!
//! Every ground-truth quantity in the reproduction — `τ_mix_s` (Definition
//! 1), `τ_s(β,ε)` (Definition 2), and the graph-wide `τ(β,ε) = max_v τ_v`
//! that footnote 6 prices at an O(n)-factor overhead — is a power iteration
//! of the walk operator from a point mass. The dense [`crate::step::step`]
//! pulls all `n` nodes over all `2m` half-edges every step, even while the
//! distribution's support is a tiny ball around the source (on the paper's
//! §2.3 calibration families — β-barbells and clique chains with
//! `τ_s = O(1)` vs `τ_mix = Ω(β²)` — that is the *common* case, not the
//! exception). This module is the engine those sweeps run on, with two
//! composable optimizations:
//!
//! **(a) Frontier-sparse stepping.** The exact support `A_t = {v : p_t(v)
//! ≠ 0}` is tracked in a [`BitSet`]. One step only computes `pull(v)` for
//! the candidates `v ∈ A_t ∪ N(A_t)` — every other node's inflow is zero by
//! construction. Cost per step is `O(vol(candidates))` instead of `O(2m)`.
//!
//! **(b) Multi-source blocking.** [`BlockEvolution`] advances `B` columns
//! through **one shared CSR traversal per step** (an SpMM in place of `B`
//! SpMVs, via [`WalkGraph::pull_block`]): the graph's offsets, neighbor
//! ids, and weights are read once per step for the whole block, so
//! graph-wide sweeps (`graph_mixing_time`, `graph_local_mixing_time`) stop
//! re-reading the graph once per source per step. Columns are stored
//! node-major interleaved (`data[v·B + j]`), so the per-neighbor inner loop
//! reads `B` contiguous lanes.
//!
//! Each step first fills the **gather source** `q` once per node
//! ([`WalkGraph::prescale_row`]: `q(u) = p(u) / deg(u)` on unweighted
//! graphs), then gathers every destination row from it, so an unweighted
//! step divides once per node instead of once per half-edge. Weighted
//! graphs do not prescale and gather from `p` itself (see `lmt-graph`'s
//! `walk` module docs for why, and why the prescaled sum is the same to
//! the bit).
//!
//! [`BlockEvolution`] is the crate's only multi-step walk engine. A single
//! walk is a one-lane block, whose lane is stored contiguously and read in
//! place through [`BlockEvolution::solo_lane`]; [`evolve_block`] is the
//! one-shot form. [`crate::step::step`] is the dense reference the engine
//! is checked against.
//!
//! # The bit-for-bit sparsity invariant
//!
//! The sparse path is **bit-for-bit identical** to the dense path, not
//! approximately equal, by the following argument:
//!
//! * A candidate node's inflow is computed by iterating its **full CSR
//!   neighbor row in ascending order** — exactly the dense kernel. Terms
//!   from zero-mass neighbors contribute `p(u)·w/W = (+0.0)·w/W = +0.0`
//!   (prescaled: `q(u) = +0.0 / deg(u) = +0.0`), and adding `+0.0` to any
//!   partial sum leaves it unchanged *including its sign bit*, so skipping
//!   nothing inside a row means skipping no rounding either.
//! * The sparse step prescales only the support `A_t`, so every other row
//!   of `q` must already hold `+0.0`: before prescaling it re-zeroes the
//!   rows it prescaled the step before (`A_{t−1}`, the same rows it
//!   re-zeroes in the output buffer). A simple walk leaves nodes behind —
//!   the source is not in `A_1` — so a stale row would leak old mass.
//! * A non-candidate node has no neighbor (and no self-loop) in `A_t`, so
//!   the dense kernel computes a sum of `+0.0` terms starting from `0.0`.
//!   Weights are strictly positive and probabilities non-negative, so no
//!   term is ever `-0.0` and no cancellation occurs: the dense result is
//!   exactly `+0.0` — the very value the sparse path writes by leaving the
//!   (zeroed) slot untouched.
//! * Support tracking is exact, not conservative: after a sparse step, a
//!   candidate joins `A_{t+1}` iff its computed value is nonzero. (Again
//!   because all terms are non-negative, a computed `0.0` means *no* mass
//!   arrived, never mass that cancelled.)
//!
//! The same argument applies lane-wise to a block: lanes are arithmetically
//! independent (see [`WalkGraph::pull_block`]'s contract), and the shared
//! support is the **union** of the lanes' supports — a lane with no mass at
//! a candidate just accumulates `+0.0`s there. `tests/determinism.rs` locks
//! both equalities (sparse ≡ dense, blocked ≡ one-source-at-a-time) in at
//! pool widths 1/2/8 on random and weighted graphs.
//!
//! # Crossover policy
//!
//! Sparse stepping pays `O(vol(A_t) + vol(candidates))` sequentially; the
//! dense path pays `O(2m + n)` on the rayon pool. Before each sparse step
//! the engine measures the candidate volume `Σ_{v ∈ A ∪ N(A)} deg(v)`
//! (a by-product of building the candidate set) and, once it reaches
//! [`DENSE_CROSSOVER`] of the total volume `2m`, switches to the dense
//! parallel path **permanently** — supports on mixing-scale workloads only
//! grow, and a one-way switch keeps the policy trivially deterministic
//! (the decision depends on the exact support, which is itself bit-exact,
//! never on thread count or timing). Either path produces identical bits,
//! so the threshold is pure policy; [`BlockEvolution::with_crossover`]
//! exposes it for tuning and for the determinism suite's boundary test.
//!
//! # Cache-blocked dense sweep
//!
//! The dense path is tiled: destination rows are processed in runs of
//! [`dense_tile_rows`]`(width)` rows, sized so one tile's output block-row
//! (`width` lanes × tile rows × 8 bytes) plus the band of the gather
//! source `q` its pulls touch stay within an L2-sized working set
//! (`TILE_L2_BYTES`, 256 KiB); a lazy walk also reads each destination's
//! own row of `cur` for its holding term. On index-local topologies
//! (paths, cycles, grids, cliques-in-a-row — most of the §2.3 calibration
//! families) a destination tile's sources are a narrow band of `q`, so the
//! whole step streams through cache-resident tiles instead of walking the
//! full `n × width` matrix per scheduling quantum. The prescale pass before
//! it is one sequential stream over `cur` and `q`, split on the same tile
//! boundaries. The tiles ride the same `par_chunks_mut` seam the thread pool
//! already splits — a tile is just the new chunk unit — and tiling is
//! **pure policy**: each destination row's arithmetic is untouched and
//! rows are disjoint writes, so the result is bit-identical for every tile
//! size and thread count (the workspace determinism suite pins tile sizes
//! × `LMT_THREADS` 1/2/8). [`BlockEvolution::set_tile_rows`] overrides the
//! policy for tests and tuning. `lmt-spectral::power` and `lmt-service`
//! drive their dense sweeps through this engine, so they inherit the
//! blocking for free.

use crate::dist::Dist;
use crate::step::{assert_walkable, WalkKind};
use lmt_graph::WalkGraph;
use lmt_util::BitSet;
use rayon::prelude::*;

/// Fraction of the total volume `2m` the candidate volume must reach for
/// the engine to cross over to the dense parallel path (see the module docs
/// for the cost model; the value is policy, not correctness).
pub const DENSE_CROSSOVER: f64 = 0.5;

/// Minimum matrix rows (nodes) per worker chunk in the dense path, matching
/// the dense step's chunking economics: a block row is `width` lanes of a
/// few flops per neighbor, so the per-row floor shrinks as the block
/// widens.
const PAR_MIN_ROWS: usize = 2048;

/// Working-set target for one dense-sweep tile: 256 KiB, a conservative
/// per-core L2 slice that leaves room for the CSR row data the tile reads
/// alongside the two f64 block-rows it touches.
const TILE_L2_BYTES: usize = 1 << 18;

/// Dense-sweep tile height (destination rows per tile) for a block of
/// `width` lanes: the output block-row plus an equal-sized band of `q`
/// (2 × `width` × 8 bytes per row) fit `TILE_L2_BYTES` (256 KiB), floored at 64
/// rows so narrow blocks do not degenerate into per-row scheduling. The
/// value is pure policy (see the module docs); results are identical for
/// any tile size.
pub fn dense_tile_rows(width: usize) -> usize {
    (TILE_L2_BYTES / (2 * 8 * width.max(1))).max(64)
}

/// `B` walk distributions advanced in lock-step through one shared CSR
/// sweep per step, frontier-sparse until the support outgrows the
/// [`DENSE_CROSSOVER`] threshold.
///
/// Columns are independent walks: lane `j` of every accessor is bit-for-bit
/// the distribution a solo [`crate::step::step`] iteration from the same
/// start would produce. Finished columns can be [retired](Self::retire)
/// mid-flight so the rest of the block stops paying for them.
pub struct BlockEvolution<'g, G: WalkGraph + ?Sized> {
    g: &'g G,
    kind: WalkKind,
    n: usize,
    width: usize,
    /// Current distributions, node-major interleaved (`cur[v·width + j]`).
    cur: Vec<f64>,
    /// Scratch for the next step; outside `nxt_support` it is all zeros.
    nxt: Vec<f64>,
    /// Gather source `q` of the step being taken, prescaled from `cur`
    /// ([`WalkGraph::prescale_row`]); empty when the graph does not
    /// prescale and steps gather from `cur` itself. While sparse, it is
    /// all zeros outside `nxt_support` between steps, like `nxt`.
    q: Vec<f64>,
    /// Exact union support of `cur` (meaningful while `!dense`).
    cur_support: BitSet,
    /// Support of the stale data in `nxt` (lanes to re-zero before writing).
    nxt_support: BitSet,
    /// Scratch: candidate set `A ∪ N(A)` of the upcoming step.
    candidates: BitSet,
    /// One-way flag: the dense parallel path has taken over.
    dense: bool,
    crossover: f64,
    /// Dense-sweep tile override; `None` = [`dense_tile_rows`] policy
    /// (recomputed per step — [`Self::retire`] changes the width
    /// mid-flight).
    tile_rows: Option<usize>,
    steps: usize,
}

impl<'g, G: WalkGraph + ?Sized> BlockEvolution<'g, G> {
    /// Start `sources.len()` point-mass columns (`p_0 = 1_{sources[j]}` in
    /// lane `j`) under the default [`DENSE_CROSSOVER`] policy.
    ///
    /// # Panics
    /// Panics if `sources` is empty, or any source is out of range or
    /// isolated (walk degree 0 — the walk could never leave it).
    pub fn new(g: &'g G, sources: &[usize], kind: WalkKind) -> Self {
        Self::with_crossover(g, sources, kind, DENSE_CROSSOVER)
    }

    /// As [`BlockEvolution::new`] with an explicit crossover fraction
    /// (`crossover ≥ 1.0 + ε` never leaves the sparse path; `0.0` starts
    /// dense after the first candidate scan). Results are identical for any
    /// value — only the cost profile changes.
    pub fn with_crossover(g: &'g G, sources: &[usize], kind: WalkKind, crossover: f64) -> Self {
        Self::start(g, kind, sources.len(), crossover, |cur, support| {
            for (j, &s) in sources.iter().enumerate() {
                crate::step::assert_source(g, s, "evolve_block");
                cur[s * sources.len() + j] = 1.0;
                support.insert(s);
            }
        })
    }

    /// Start one column per entry of `cols` from **arbitrary**
    /// distributions, used by the τ-service to resume cached walks
    /// mid-flight in one coalesced block. The union support is rebuilt
    /// exactly from the nonzero entries, so lane `j` continues bit-for-bit
    /// as a solo run whose current distribution is `cols[j]` (lanes are
    /// arithmetically independent; see the module docs).
    ///
    /// # Panics
    /// Panics if `cols` is empty, any column's length differs from `n`, or
    /// any column places mass on an isolated node.
    pub fn from_dists(g: &'g G, cols: &[&[f64]], kind: WalkKind) -> Self {
        Self::start(g, kind, cols.len(), DENSE_CROSSOVER, |cur, support| {
            for (j, col) in cols.iter().enumerate() {
                assert_eq!(
                    col.len(),
                    g.n(),
                    "evolution: distribution/graph size mismatch"
                );
                assert_walkable(g, col, "evolution");
                for (v, &pv) in col.iter().enumerate() {
                    if pv != 0.0 {
                        cur[v * cols.len() + j] = pv;
                        support.insert(v);
                    }
                }
            }
        })
    }

    /// The one constructor: `width` zeroed lanes that `fill` loads with the
    /// starting distributions and their exact union support.
    fn start(
        g: &'g G,
        kind: WalkKind,
        width: usize,
        crossover: f64,
        fill: impl FnOnce(&mut [f64], &mut BitSet),
    ) -> Self {
        assert!(width > 0, "block evolution needs ≥ 1 source");
        let n = g.n();
        let mut cur = vec![0.0; n * width];
        let mut cur_support = BitSet::new(n);
        fill(&mut cur, &mut cur_support);
        BlockEvolution {
            g,
            kind,
            n,
            width,
            cur,
            nxt: vec![0.0; n * width],
            q: if g.prescales() {
                vec![0.0; n * width]
            } else {
                Vec::new()
            },
            cur_support,
            nxt_support: BitSet::new(n),
            candidates: BitSet::new(n),
            dense: false,
            crossover,
            tile_rows: None,
            steps: 0,
        }
    }

    /// Number of live (un-retired) columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Steps taken so far.
    #[inline]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// True once the engine has crossed over to the dense parallel path
    /// (the switch is one-way; see the module docs).
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.dense
    }

    /// Override the dense-sweep tile height (`None` restores the
    /// [`dense_tile_rows`] policy, which re-adapts when [`Self::retire`]
    /// narrows the block). Tile size is **pure policy**: every value
    /// yields bit-identical results at every thread count — the override
    /// exists for the determinism suite (which pins exactly that) and for
    /// tuning.
    pub fn set_tile_rows(&mut self, rows: Option<usize>) {
        self.tile_rows = rows;
    }

    /// Size of the current union support. After the dense crossover the
    /// engine stops tracking supports and this returns `n`.
    pub fn support_len(&self) -> usize {
        if self.dense {
            self.n
        } else {
            self.cur_support.len()
        }
    }

    /// Advance every live column by one walk step.
    pub fn step(&mut self) {
        self.steps += 1;
        if !self.dense {
            let vol = self.scan_candidates();
            let total = self.g.topology().total_volume();
            if (vol as f64) < self.crossover * total as f64 {
                self.sparse_step();
                self.swap_buffers();
                return;
            }
            self.dense = true;
        }
        self.dense_step();
        self.swap_buffers();
    }

    /// Rebuild `candidates = A ∪ N(A)`; returns its volume `Σ deg`.
    fn scan_candidates(&mut self) -> usize {
        self.candidates.clear();
        let topo = self.g.topology();
        let mut vol = 0usize;
        for v in self.cur_support.iter() {
            if self.candidates.insert(v) {
                vol += topo.degree(v);
            }
            for &u in topo.neighbors_raw(v) {
                if self.candidates.insert(u as usize) {
                    vol += topo.degree(u as usize);
                }
            }
        }
        vol
    }

    /// Pull only the candidate rows; everything else stays (exactly) zero.
    fn sparse_step(&mut self) {
        let w = self.width;
        let prescaled = !self.q.is_empty();
        // Re-zero the lanes holding the stale step-before-last result, and
        // the gather source prescaled from it.
        for v in self.nxt_support.iter() {
            self.nxt[v * w..(v + 1) * w].fill(0.0);
            if prescaled {
                self.q[v * w..(v + 1) * w].fill(0.0);
            }
        }
        self.nxt_support.clear();
        // Prescale the support; every other row of `q` is +0.0, as the
        // prescaled zero row of `cur` would be.
        let src = if prescaled {
            for u in self.cur_support.iter() {
                let (p_row, q_row) = (
                    &self.cur[u * w..(u + 1) * w],
                    &mut self.q[u * w..(u + 1) * w],
                );
                self.g.prescale_row(u, p_row, q_row);
            }
            &self.q
        } else {
            &self.cur
        };
        for v in self.candidates.iter() {
            let row = &mut self.nxt[v * w..(v + 1) * w];
            self.g.pull_block(v, src, w, row);
            if self.kind == WalkKind::Lazy {
                for (o, &c) in row.iter_mut().zip(&self.cur[v * w..(v + 1) * w]) {
                    *o = 0.5 * c + 0.5 * *o;
                }
            }
            // Exact support update: terms are non-negative, so a computed
            // 0.0 really is "no mass arrived" (see the module docs).
            if row.iter().any(|&x| x != 0.0) {
                self.nxt_support.insert(v);
            }
        }
    }

    /// Prescale every row, then pull every row, each on the rayon pool
    /// (same arithmetic, full sweep). The pull is cache-blocked: the chunk
    /// unit is a *tile* of `tile` destination rows (see the module docs),
    /// walked row by row inside each worker. Per-row arithmetic is
    /// identical to the untiled sweep, so tile size is pure policy.
    fn dense_step(&mut self) {
        let w = self.width;
        let g = self.g;
        let kind = self.kind;
        let cur = &self.cur;
        let tile = self.tile_rows.unwrap_or_else(|| dense_tile_rows(w)).max(1);
        let min_tiles = ((PAR_MIN_ROWS / w).max(1)).div_ceil(tile);
        let src = if self.q.is_empty() {
            cur
        } else {
            self.q
                .par_chunks_mut(w * tile)
                .with_min_len(min_tiles.max(1))
                .enumerate()
                .for_each(|(ti, q_tile)| {
                    let base = ti * tile;
                    for (r, q_row) in q_tile.chunks_mut(w).enumerate() {
                        let u = base + r;
                        g.prescale_row(u, &cur[u * w..(u + 1) * w], q_row);
                    }
                });
            &self.q
        };
        self.nxt
            .par_chunks_mut(w * tile)
            .with_min_len(min_tiles.max(1))
            .enumerate()
            .for_each(|(ti, tile_buf)| {
                let base = ti * tile;
                for (r, row) in tile_buf.chunks_mut(w).enumerate() {
                    let v = base + r;
                    g.pull_block(v, src, w, row);
                    if kind == WalkKind::Lazy {
                        for (o, &c) in row.iter_mut().zip(&cur[v * w..(v + 1) * w]) {
                            *o = 0.5 * c + 0.5 * *o;
                        }
                    }
                }
            });
    }

    fn swap_buffers(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.nxt);
        std::mem::swap(&mut self.cur_support, &mut self.nxt_support);
    }

    /// Column `j`'s current value at node `v`.
    ///
    /// # Panics
    /// Panics if `v` or `j` is out of range (lane indices shift when a
    /// column is [retired](Self::retire) — an unchecked stale `j` would
    /// silently read a neighbor row's lane).
    #[inline]
    pub fn value(&self, v: usize, j: usize) -> f64 {
        assert!(j < self.width, "lane {j} out of range width {}", self.width);
        assert!(v < self.n, "node {v} out of range n {}", self.n);
        self.cur[v * self.width + j]
    }

    /// Iterate column `j` in node order.
    pub fn lane_iter(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(j < self.width, "lane {j} out of range width {}", self.width);
        self.cur[j..].iter().step_by(self.width).copied()
    }

    /// The distribution of a width-1 block, in place (lane 0 of a width-1
    /// block is stored contiguously, so this is a borrow, not a copy).
    ///
    /// # Panics
    /// Panics unless the block has exactly one lane.
    pub fn solo_lane(&self) -> &[f64] {
        assert_eq!(self.width, 1, "solo_lane: block has {} lanes", self.width);
        &self.cur
    }

    /// Copy column `j` into `out` (length `n`).
    ///
    /// # Panics
    /// Panics if `j` is out of range or `out.len() != n`.
    pub fn copy_lane(&self, j: usize, out: &mut [f64]) {
        assert!(j < self.width, "lane {j} out of range width {}", self.width);
        assert_eq!(out.len(), self.n, "copy_lane: length mismatch");
        for (v, o) in out.iter_mut().enumerate() {
            *o = self.cur[v * self.width + j];
        }
    }

    /// Column `j` materialized as a [`Dist`].
    pub fn lane_dist(&self, j: usize) -> Dist {
        Dist::from_vec(self.lane_iter(j).collect())
    }

    /// `‖lane_j − other‖₁`, summed in node order — bit-identical to
    /// [`Dist::l1_distance`] on the materialized column.
    pub fn lane_l1(&self, j: usize, other: &[f64]) -> f64 {
        assert!(j < self.width, "lane {j} out of range width {}", self.width);
        assert_eq!(other.len(), self.n, "lane_l1: length mismatch");
        let w = self.width;
        self.cur[j..]
            .iter()
            .step_by(w)
            .zip(other)
            .map(|(a, b)| (a - b).abs())
            .sum()
    }

    /// Drop column `j` from the block (swap-remove: the last column takes
    /// lane `j`). Graph-wide sweeps retire a source the step its stopping
    /// rule fires, so the remaining columns stop paying for it. The caller
    /// owns the lane ↦ source mapping and should mirror the `swap_remove`.
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    pub fn retire(&mut self, j: usize) {
        let w = self.width;
        assert!(j < w, "retire: lane {j} out of range width {w}");
        let nw = w - 1;
        for buf in [&mut self.cur, &mut self.nxt] {
            // Move the last lane into j, then re-stride row by row. Reads
            // stay ahead of writes (nw < w), so one forward pass is safe.
            for v in 0..self.n {
                buf[v * w + j] = buf[v * w + nw];
                let (dst, src) = (v * nw, v * w);
                for l in 0..nw {
                    buf[dst + l] = buf[src + l];
                }
            }
            buf.truncate(self.n * nw);
        }
        // While sparse, the gather source is +0.0 outside the rows the
        // last step prescaled (`nxt_support`): zeroing those leaves it all
        // +0.0 at any stride. The dense path rewrites it whole.
        if !self.dense && !self.q.is_empty() {
            for v in self.nxt_support.iter() {
                self.q[v * w..(v + 1) * w].fill(0.0);
            }
        }
        self.q.truncate(self.n * nw);
        self.width = nw;
    }
}

/// Advance `sources.len()` point-mass walks `t` steps through one shared
/// sweep per step and return the resulting distributions, in source order.
/// Column `j` is bit-for-bit the result of `t` dense
/// [`crate::step::step`]s from the point mass at `sources[j]`; a one-source
/// call is the convenience form of a single walk.
///
/// # Panics
/// As [`BlockEvolution::new`].
pub fn evolve_block<G: WalkGraph + ?Sized>(
    g: &G,
    sources: &[usize],
    kind: WalkKind,
    t: usize,
) -> Vec<Dist> {
    let mut block = BlockEvolution::new(g, sources, kind);
    for _ in 0..t {
        block.step();
    }
    (0..block.width()).map(|j| block.lane_dist(j)).collect()
}

/// Fill `out[v] = f(v)` for every `v`, in parallel on the rayon pool. The
/// engine's dense sweep stripped of walk semantics — `lmt-spectral`'s power
/// iteration applies its symmetrized operator through this, so the exact-τ
/// plane and the spectral plane share one parallel kernel driver. Results
/// are scheduling-independent by construction (each slot is a pure function
/// of `v`).
pub fn dense_sweep_into(out: &mut [f64], min_chunk: usize, f: impl Fn(usize) -> f64 + Sync) {
    out.par_iter_mut()
        .enumerate()
        .with_min_len(min_chunk.max(1))
        .for_each(|(v, slot)| *slot = f(v));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::step;
    use lmt_graph::gen;

    fn dense_reference<G: WalkGraph + ?Sized>(
        g: &G,
        src: usize,
        kind: WalkKind,
        t: usize,
    ) -> Vec<Dist> {
        let mut p = Dist::point(g.n(), src);
        let mut out = vec![p.clone()];
        for _ in 0..t {
            p = step(g, &p, kind);
            out.push(p.clone());
        }
        out
    }

    #[test]
    fn sparse_equals_dense_on_barbell() {
        // On a local-mixing horizon (τ_s = O(1)) the support stays within a
        // couple of cliques: the engine must stay sparse — support spreads
        // at topological speed, one clique per ~2 steps, so 4 steps touch
        // at most 2 of the 8 cliques — and still agree bit-for-bit with
        // the dense step.
        let (g, _) = gen::barbell(8, 16);
        let reference = dense_reference(&g, 3, WalkKind::Simple, 4);
        let mut ev = BlockEvolution::new(&g, &[3], WalkKind::Simple);
        for (t, want) in reference.iter().enumerate() {
            assert_eq!(ev.solo_lane(), want.as_slice(), "step {t}");
            ev.step();
        }
        assert!(!ev.is_dense(), "β=8 barbell should stay frontier-sparse");
    }

    #[test]
    fn sparse_equals_dense_through_crossover() {
        // An expander floods the graph fast: the engine must cross to the
        // dense path mid-run and stay bit-identical across the switch.
        let g = gen::random_regular(64, 6, 9);
        let reference = dense_reference(&g, 0, WalkKind::Lazy, 10);
        let mut ev = BlockEvolution::new(&g, &[0], WalkKind::Lazy);
        for (t, want) in reference.iter().enumerate() {
            assert_eq!(ev.solo_lane(), want.as_slice(), "step {t}");
            ev.step();
        }
        assert!(ev.is_dense(), "expander run should have crossed to dense");
    }

    #[test]
    fn crossover_fires_exactly_at_threshold() {
        // Lazy walk on C_64 from one node: after t steps the support is
        // 2t+1 nodes, the candidate set 2t+3 nodes, all of degree 2 —
        // candidate volume 2(2t+3) against total volume 128. A crossover
        // fraction of exactly 18/128 (f64-exact) makes step 4's scan (t=3,
        // vol 18) the first to reach the threshold: the ≥-comparison's
        // boundary case.
        let g = gen::cycle(64);
        let frac = 18.0 / 128.0;
        let reference = dense_reference(&g, 10, WalkKind::Lazy, 8);
        let mut ev = BlockEvolution::with_crossover(&g, &[10], WalkKind::Lazy, frac);
        for (t, want) in reference.iter().enumerate() {
            assert_eq!(&ev.lane_dist(0), want, "step {t}");
            assert_eq!(
                ev.is_dense(),
                t >= 4,
                "crossover must fire entering step 4, observed at t={t}"
            );
            ev.step();
        }
    }

    #[test]
    fn blocked_equals_solo_lanes() {
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let sources = [0usize, 9, 17, 31];
        let t = 15;
        let blocked = evolve_block(&g, &sources, WalkKind::Simple, t);
        for (j, &s) in sources.iter().enumerate() {
            let solo = dense_reference(&g, s, WalkKind::Simple, t).pop().unwrap();
            assert_eq!(blocked[j], solo, "lane {j} (source {s})");
        }
    }

    #[test]
    fn blocked_weighted_with_loops_equals_solo() {
        let wg = gen::weighted::lazy_loops(&lmt_graph::WeightedGraph::unit(gen::hypercube(4)));
        let sources = [0usize, 7, 15];
        let blocked = evolve_block(&wg, &sources, WalkKind::Simple, 9);
        for (j, &s) in sources.iter().enumerate() {
            let solo = dense_reference(&wg, s, WalkKind::Simple, 9).pop().unwrap();
            assert_eq!(blocked[j], solo, "lane {j} (source {s})");
        }
    }

    #[test]
    fn retire_preserves_surviving_lanes() {
        let g = gen::random_regular(32, 4, 5);
        let sources = [1usize, 8, 20, 30];
        let mut block = BlockEvolution::new(&g, &sources, WalkKind::Lazy);
        let mut lane_src: Vec<usize> = sources.to_vec();
        for _ in 0..3 {
            block.step();
        }
        block.retire(1);
        lane_src.swap_remove(1);
        for _ in 0..4 {
            block.step();
        }
        assert_eq!(block.width(), 3);
        for (j, &s) in lane_src.iter().enumerate() {
            let solo = dense_reference(&g, s, WalkKind::Lazy, 7).pop().unwrap();
            assert_eq!(block.lane_dist(j), solo, "lane {j} (source {s})");
        }
    }

    /// Every lane of `BlockEvolution` from `sources` equals the dense
    /// `pull` reference (`step::step`) to the bit at every step up to 24,
    /// under crossovers that start dense, cross mid-run and never leave the
    /// sparse path.
    fn assert_lanes_match_pull<G: WalkGraph + ?Sized>(
        name: &str,
        g: &G,
        sources: &[usize],
        kind: WalkKind,
    ) {
        let t_max = 24;
        let reference: Vec<Vec<Dist>> = sources
            .iter()
            .map(|&s| dense_reference(g, s, kind, t_max))
            .collect();
        for crossover in [0.0, DENSE_CROSSOVER, 2.0] {
            let mut ev = BlockEvolution::with_crossover(g, sources, kind, crossover);
            for t in 0..=t_max {
                for (j, lane) in reference.iter().enumerate() {
                    for (v, (got, want)) in ev.lane_iter(j).zip(lane[t].as_slice()).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{name} {kind:?} width {} crossover {crossover} step {t} lane {j} node {v}",
                            sources.len()
                        );
                    }
                }
                ev.step();
            }
        }
    }

    #[test]
    fn prescaled_gather_matches_pull_reference() {
        // Degrees 3, 5, 6 and 7 make `p / d` and `p · (1/d)` round apart,
        // and a simple walk leaves its source behind at step 1, so a stale
        // prescaled row outside the support would leak mass. Widths 1, 2,
        // 4 and 8 take the explicit-lane kernels, 3 and 5 the dynamic one.
        let mut graphs: Vec<(String, lmt_graph::Graph)> = [3usize, 5, 6, 7]
            .iter()
            .map(|&d| {
                let g = gen::random_regular(64, d, 40 + d as u64);
                (format!("random_regular(64, {d})"), g)
            })
            .collect();
        let er = gen::erdos_renyi(80, 0.03, 5);
        assert!(
            (0..er.n()).any(|v| er.degree(v) == 0),
            "the Erdős–Rényi case needs isolated nodes"
        );
        graphs.push(("erdos_renyi(80, 0.03)".into(), er));
        for (name, g) in &graphs {
            let live: Vec<usize> = (0..g.n()).filter(|&v| g.degree(v) > 0).collect();
            for kind in [WalkKind::Simple, WalkKind::Lazy] {
                for width in [1usize, 2, 3, 4, 5, 8] {
                    let sources: Vec<usize> =
                        (0..width).map(|j| live[(j * 11) % live.len()]).collect();
                    assert_lanes_match_pull(name, g, &sources, kind);
                }
            }
        }
    }

    #[test]
    fn churned_graph_gathers_like_its_topology() {
        // `ChurnGraph` prescales by delegation: deleting edges from a
        // 4-regular graph leaves degrees 3 and 4 behind.
        let mut cg = lmt_graph::ChurnGraph::new(gen::random_regular(64, 4, 8));
        let cut: Vec<lmt_graph::EdgeEdit> = [0usize, 9, 30]
            .iter()
            .map(|&u| lmt_graph::EdgeEdit::delete(u, cg.topology().neighbor(u, 0)))
            .collect();
        cg.apply(&cut).unwrap();
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            assert_lanes_match_pull("churned", &cg, &[0, 9, 30], kind);
        }
    }

    #[test]
    fn retire_while_sparse_keeps_the_gather_source_clean() {
        // A simple walk on the sparse path leaves prescaled rows behind
        // every step; retiring a lane re-strides the block, and the
        // survivors must still match their solo runs at every step.
        let g = gen::random_regular(128, 5, 3);
        let sources = [1usize, 40, 77, 100, 120];
        let runs: Vec<Vec<Dist>> = sources
            .iter()
            .map(|&s| dense_reference(&g, s, WalkKind::Simple, 12))
            .collect();
        // by_step[t][i]: source i's distribution after t steps.
        let by_step: Vec<Vec<&Dist>> = (0..=12)
            .map(|t| runs.iter().map(|run| &run[t]).collect())
            .collect();
        let mut lane_ref: Vec<usize> = (0..sources.len()).collect();
        let mut block = BlockEvolution::with_crossover(&g, &sources, WalkKind::Simple, 2.0);
        for (t, wants) in by_step.iter().enumerate().skip(1) {
            block.step();
            if t == 2 || t == 5 {
                block.retire(1);
                lane_ref.swap_remove(1);
            }
            for (j, &r) in lane_ref.iter().enumerate() {
                let want = wants[r].as_slice();
                for (v, (got, w)) in block.lane_iter(j).zip(want).enumerate() {
                    assert_eq!(got.to_bits(), w.to_bits(), "step {t} lane {j} node {v}");
                }
            }
        }
        assert!(!block.is_dense());
        assert_eq!(block.width(), 3);
    }

    #[test]
    fn tile_size_never_changes_dense_results() {
        // Force the dense path from step 0 and sweep tile heights from
        // degenerate (1 row) through "one tile covers everything": every
        // trajectory must be bit-identical to the policy default.
        let g = gen::random_regular(96, 6, 11);
        let sources = [0usize, 17, 40];
        let t = 8;
        let reference: Vec<Dist> = {
            let mut b = BlockEvolution::with_crossover(&g, &sources, WalkKind::Lazy, 0.0);
            for _ in 0..t {
                b.step();
            }
            (0..b.width()).map(|j| b.lane_dist(j)).collect()
        };
        for tile in [1usize, 2, 7, 64, 4096] {
            let mut b = BlockEvolution::with_crossover(&g, &sources, WalkKind::Lazy, 0.0);
            b.set_tile_rows(Some(tile));
            for _ in 0..t {
                b.step();
            }
            assert!(b.is_dense());
            for (j, want) in reference.iter().enumerate() {
                assert_eq!(&b.lane_dist(j), want, "tile {tile}, lane {j}");
            }
        }
    }

    #[test]
    fn tile_policy_adapts_to_width() {
        // Narrow blocks get tall tiles, wide blocks short ones; both ends
        // respect the 64-row floor.
        assert_eq!(dense_tile_rows(1), (1 << 18) / 16);
        assert_eq!(dense_tile_rows(8), (1 << 18) / 128);
        assert_eq!(dense_tile_rows(1 << 20), 64);
        assert_eq!(dense_tile_rows(0), dense_tile_rows(1));
    }

    #[test]
    fn lane_l1_matches_dist_l1() {
        let g = gen::grid(4, 4);
        let pi = crate::stationary::stationary(&g);
        let mut block = BlockEvolution::new(&g, &[2, 13], WalkKind::Lazy);
        for _ in 0..6 {
            block.step();
        }
        for j in 0..2 {
            let via_lane = block.lane_l1(j, pi.as_slice());
            let via_dist = block.lane_dist(j).l1_distance(&pi);
            assert_eq!(via_lane.to_bits(), via_dist.to_bits(), "lane {j}");
        }
    }

    #[test]
    fn from_dist_tracks_existing_support() {
        let g = gen::path(6);
        let p0 = Dist::from_vec(vec![0.0, 0.5, 0.0, 0.5, 0.0, 0.0]);
        let mut ev = BlockEvolution::from_dists(&g, &[p0.as_slice()], WalkKind::Lazy);
        let mut p = p0;
        for t in 0..10 {
            assert_eq!(ev.solo_lane(), p.as_slice(), "step {t}");
            ev.step();
            p = step(&g, &p, WalkKind::Lazy);
        }
    }

    #[test]
    fn from_dists_lanes_continue_solo_runs() {
        // Resume three walks mid-flight in one block: lane j must continue
        // bit-for-bit as the solo run it was taken from, including a lane
        // whose distribution is still a point mass.
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let sources = [0usize, 9, 17];
        let t_pre = 3;
        let pre: Vec<Dist> = sources
            .iter()
            .map(|&s| {
                dense_reference(&g, s, WalkKind::Simple, t_pre)
                    .pop()
                    .unwrap()
            })
            .collect();
        let mut cols: Vec<&[f64]> = pre.iter().map(|d| d.as_slice()).collect();
        let point = Dist::point(g.n(), 30);
        cols.push(point.as_slice());
        let mut block = BlockEvolution::from_dists(&g, &cols, WalkKind::Simple);
        let t_post = 5;
        for _ in 0..t_post {
            block.step();
        }
        for (j, &s) in sources.iter().enumerate() {
            let solo = dense_reference(&g, s, WalkKind::Simple, t_pre + t_post)
                .pop()
                .unwrap();
            assert_eq!(block.lane_dist(j), solo, "resumed lane {j} (source {s})");
        }
        let fresh = dense_reference(&g, 30, WalkKind::Simple, t_post)
            .pop()
            .unwrap();
        assert_eq!(block.lane_dist(3), fresh, "fresh point-mass lane");
    }

    #[test]
    #[should_panic(expected = "≥ 1 source")]
    fn from_dists_empty_rejected() {
        let g = gen::path(4);
        let _ = BlockEvolution::from_dists(&g, &[], WalkKind::Lazy);
    }

    #[test]
    #[should_panic(expected = "lane 3 out of range width 3")]
    fn copy_lane_rejects_out_of_range_lane() {
        let g = gen::path(8);
        let block = BlockEvolution::new(&g, &[0, 3, 7], WalkKind::Lazy);
        let mut out = vec![0.0; 8];
        block.copy_lane(3, &mut out);
    }

    #[test]
    #[should_panic(expected = "solo_lane: block has 2 lanes")]
    fn solo_lane_rejects_wide_block() {
        let g = gen::path(4);
        let _ = BlockEvolution::new(&g, &[0, 3], WalkKind::Lazy).solo_lane();
    }

    #[test]
    fn dense_sweep_matches_sequential_fill() {
        let mut par = vec![0.0; 1000];
        dense_sweep_into(&mut par, 64, |v| (v as f64).sqrt() * 0.5);
        let seq: Vec<f64> = (0..1000).map(|v| (v as f64).sqrt() * 0.5).collect();
        assert_eq!(par, seq);
    }

    #[test]
    #[should_panic(expected = "≥ 1 source")]
    fn empty_block_rejected() {
        let g = gen::path(4);
        let _ = BlockEvolution::new(&g, &[], WalkKind::Lazy);
    }

    #[test]
    #[should_panic(expected = "isolated node")]
    fn isolated_source_rejected() {
        let mut b = lmt_graph::GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g = b.build();
        let _ = BlockEvolution::new(&g, &[0, 2], WalkKind::Lazy);
    }

    #[test]
    fn duplicate_sources_are_independent_lanes() {
        let g = gen::complete(6);
        let out = evolve_block(&g, &[2, 2], WalkKind::Simple, 4);
        assert_eq!(out[0], out[1]);
    }
}
