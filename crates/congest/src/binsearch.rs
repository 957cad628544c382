//! §3.1's distributed binary search: the source learns the **sum of the `R`
//! smallest per-node values** in `O(D log n)` rounds.
//!
//! The routine composes tree phases, paying actual rounds for every step,
//! exactly as the paper describes:
//!
//! 1. convergecast `min` and `max` of the values;
//! 2. binary search on the value range: broadcast a candidate threshold
//!    `x_mid` down the BFS tree, convergecast the count of *qualified* nodes
//!    (`x_u ≤ x_mid`), and halve the range until the smallest threshold `T`
//!    with `count(≤ T) ≥ R` is found;
//! 3. broadcast `T` and convergecast the qualified count and sum.
//!
//! The phases are charged exactly what the message-passing protocol costs
//! on a full-graph network (see the [`crate::tree`] docs), but a
//! convergecast is not run as a pass over the tree. Its cost is closed
//! form: with `m` members and a tree of depth `d` it takes `d` rounds and
//! `m − 1` messages, and if `q` non-root members have a qualifying value in
//! their subtree (subtree minimum `≤` the threshold), those `q` report
//! `1 + width` bits and the others a 1-bit empty report. So each call
//! computes every member's subtree minimum once, in one reverse-BFS pass,
//! and each threshold then needs only two ranks, `#{x ≤ t}` and
//! `#{subtree-min ≤ t}`. Both come from candidate vectors that keep only
//! the values still inside the search range `[lo, hi]`, plus the count (and
//! sum) of those already below `lo`, so the work per iteration shrinks with
//! the range. A phase whose widest report would exceed the budget runs on
//! the flat kernel instead, which names the exact
//! [`RunError::BudgetExceeded`].
//!
//! [`RSmallestSearch`] lays the tree out once and serves many searches on
//! it (Algorithm 2 runs one per grid size at each length);
//! [`sum_of_r_smallest`] is the one-shot form. The search is sequential:
//! `engine` does not affect it, and `seed` only feeds the
//! [`TieBreak::RandomJitter`] draws.
//!
//! **Tie handling.** The paper has every node add a small random jitter
//! `r_u ∈ [1/n⁸, 1/n⁴]` so all values are distinct whp and the count can hit
//! `R` exactly ([`TieBreak::RandomJitter`]). We additionally provide an
//! *exact* deterministic variant ([`TieBreak::ThresholdCorrection`], the
//! default): search the smallest `T` with `count(≤T) ≥ R` and return
//! `sum(≤T) − (count − R)·T` — the surplus entries all equal `T`, so the
//! correction is exact and needs no randomness. Experiment T2 runs both.

use crate::bfs::BfsTree;
use crate::engine::{EngineKind, Metrics, RunError};
use crate::message::id_bits;
use crate::tree::{FlatTree, Op, Wide};
use lmt_graph::Graph;
use lmt_util::rng::fork;
use rand::Rng;

/// Tie-breaking strategy for duplicate values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TieBreak {
    /// Exact deterministic correction at the threshold (default).
    ThresholdCorrection,
    /// The paper's randomized jitter: append `bits` random low-order bits to
    /// every value, making them distinct whp. The returned sum then carries
    /// an additive error `< R` in (pre-jitter) numerator units.
    RandomJitter {
        /// Number of appended jitter bits.
        bits: u32,
    },
}

/// Result of the distributed R-smallest-sum routine.
#[derive(Clone, Copy, Debug)]
pub struct RSmallestResult {
    /// Sum of the `R` smallest values (exact under
    /// [`TieBreak::ThresholdCorrection`]).
    pub sum: u128,
    /// The final threshold `T` (pre-jitter scale).
    pub threshold: u128,
    /// Number of broadcast+convergecast search iterations used.
    pub iterations: u32,
}

/// Virtual contribution of the nodes *outside* a depth-limited BFS tree.
///
/// Algorithm 2 builds trees of depth `min{D, ℓ}`, but a node at distance
/// `> ℓ` from the source provably holds `p_ℓ(u) = 0`, so its difference
/// value `x_u = |0 − 1/R|` is the same known constant for all of them. The
/// source knows `n` (a model input, §1.1) and learns the tree size, so it
/// folds these in arithmetically — no messages needed. The paper leaves
/// this bookkeeping implicit; we make it explicit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outside {
    /// How many nodes are outside the tree.
    pub count: u128,
    /// Their common value (pre-jitter scale).
    pub value: u128,
}

/// The values of a search still inside its range `[lo, hi]`, and the count
/// and sum of those already below `lo`.
#[derive(Default)]
struct Ranked {
    live: Vec<u128>,
    below: u128,
    below_sum: u128,
}

impl Ranked {
    fn reset(&mut self, values: &[u128]) {
        self.live.clear();
        self.live.extend_from_slice(values);
        self.below = 0;
        self.below_sum = 0;
    }

    /// `#{x ≤ t}`, for `t ≥` the last `lo`.
    fn count_le(&self, t: u128) -> u128 {
        self.below + self.live.iter().filter(|&&v| v <= t).count() as u128
    }

    /// `Σ{x ≤ t}`, for `t ≥` the last `lo`.
    fn sum_le(&self, t: u128) -> u128 {
        self.below_sum + self.live.iter().filter(|&&v| v <= t).sum::<u128>()
    }

    /// The range became `[lo, mid]` (`keep_low`) or `[mid + 1, hi]`.
    fn narrow(&mut self, mid: u128, keep_low: bool) {
        if keep_low {
            self.live.retain(|&v| v <= mid);
            return;
        }
        let (below, below_sum) = (&mut self.below, &mut self.below_sum);
        self.live.retain(|&v| {
            if v <= mid {
                *below += 1;
                *below_sum += v;
            }
            v > mid
        });
    }
}

/// A BFS tree laid out for §3.1 searches, with the scratch they reuse:
/// build it once per tree and call [`RSmallestSearch::run`] per value
/// vector.
pub struct RSmallestSearch {
    flat: FlatTree,
    /// Node count of the graph.
    n: usize,
    /// The current search's working values in BFS order (jittered under
    /// [`TieBreak::RandomJitter`]), and their subtree minima.
    work: Vec<u128>,
    mins: Vec<u128>,
    /// Working values, and non-root subtree minima, inside the range.
    values: Ranked,
    subtrees: Ranked,
}

impl RSmallestSearch {
    /// Lay `tree` out for searches under a `budget_bits` per-edge budget.
    pub fn new(tree: &BfsTree, budget_bits: u32) -> Self {
        RSmallestSearch {
            flat: FlatTree::new(tree, budget_bits),
            n: tree.dist.len(),
            work: Vec::new(),
            mins: Vec::new(),
            values: Ranked::default(),
            subtrees: Ranked::default(),
        }
    }

    /// Charge a convergecast whose `q` non-root reporters carry `width`-bit
    /// partials of the members with working value `≤ t` (all members when
    /// `t` is `u128::MAX`): closed form, or the flat pass's budget error.
    fn convergecast(
        &mut self,
        q: u128,
        width: u32,
        t: u128,
        total: &mut Metrics,
    ) -> Result<(), RunError> {
        if let Some(m) = self.flat.convergecast_cost(q as u64, width) {
            total.absorb(&m);
            return Ok(());
        }
        let work = &self.work;
        let contribute = |i: usize| (work[i] <= t).then_some(Wide { value: 1, width });
        Err(self
            .flat
            .convergecast(Op::Sum, contribute)
            .expect_err("a report over the budget fails the pass"))
    }

    /// The sum of the `r` smallest of `value(u)` over all `n` nodes — the
    /// tree's members, plus `outside` for the unreached ones (their
    /// `value` is never called) — with `value_width`-bit values.
    pub fn run(
        &mut self,
        value: impl Fn(usize) -> u128,
        r: usize,
        value_width: u32,
        tie: TieBreak,
        outside: Option<Outside>,
        seed: u64,
    ) -> Result<(RSmallestResult, Metrics), RunError> {
        let n = self.n;
        assert!(r >= 1 && r <= n, "R must be in [1, n], got {r}");
        let out_count = outside.map_or(0, |o| o.count);
        let m = self.flat.members().len();
        assert_eq!(
            m as u128 + out_count,
            n as u128,
            "outside.count must cover exactly the unreached nodes"
        );
        let mut total = Metrics::default();

        // Jitter preprocessing: each node appends random low-order bits
        // locally (node-local randomness; modelled by a per-node fork of
        // the seed).
        let (work_width, jbits) = match tie {
            TieBreak::ThresholdCorrection => (value_width, 0),
            TieBreak::RandomJitter { bits } => {
                assert!(bits > 0 && bits <= 32, "jitter bits out of range");
                (value_width + bits, bits)
            }
        };
        self.work.clear();
        self.work.extend(self.flat.members().iter().map(|&u| {
            let v = value(u as usize);
            if jbits == 0 {
                return v;
            }
            let mut rng = fork(seed ^ 0x71E_B4EA, u as u64);
            (v << jbits) | rng.gen_range(0..(1u128 << jbits))
        }));
        self.flat.subtree_min(&self.work, &mut self.mins);
        self.values.reset(&self.work);
        self.subtrees.reset(&self.mins[1..]);

        // The outside value lives on the jittered scale too (shifted, no
        // jitter bits needed: it only has to order correctly against
        // jittered values, and `v << bits ≤ jittered(v) < (v+1) << bits`
        // keeps ranks aligned).
        let outside_work = outside.map(|o| Outside {
            count: o.count,
            value: o.value << jbits,
        });

        // Phase 1: min and max over tree nodes (every non-root member
        // reports), folded with the outside value.
        for _ in [Op::Min, Op::Max] {
            self.convergecast(m as u128 - 1, work_width, u128::MAX, &mut total)?;
        }
        let mut lo = self.mins[0];
        let mut hi = *self.work.iter().max().expect("the root is a member");
        if let Some(o) = outside_work {
            if o.count > 0 {
                lo = lo.min(o.value);
                hi = hi.max(o.value);
            }
        }
        let outside_le = |t: u128| outside_work.filter(|o| o.value <= t);

        // Phase 2: smallest T with count(≤ T) ≥ R.
        let count_width = id_bits(n) + 1;
        let mut iterations = 0;
        while lo < hi {
            iterations += 1;
            let mid = lo + (hi - lo) / 2;
            total.absorb(&self.flat.broadcast(Wide::new(mid, work_width))?);
            let q = self.subtrees.count_le(mid);
            self.convergecast(q, count_width, mid, &mut total)?;
            let count = self.values.count_le(mid) + outside_le(mid).map_or(0, |o| o.count);
            let keep_low = count >= r as u128;
            if keep_low {
                hi = mid;
            } else {
                lo = mid + 1;
            }
            self.values.narrow(mid, keep_low);
            self.subtrees.narrow(mid, keep_low);
        }
        let t = lo;

        // Phase 3: qualified count and sum (the count for the correction).
        total.absorb(&self.flat.broadcast(Wide::new(t, work_width))?);
        let q = self.subtrees.count_le(t);
        self.convergecast(q, count_width, t, &mut total)?;
        let sum_width = work_width + id_bits(n) + 1;
        self.convergecast(q, sum_width, t, &mut total)?;
        let mut count = self.values.count_le(t);
        let mut qsum = self.values.sum_le(t);
        if let Some(o) = outside_le(t) {
            count += o.count;
            qsum += o.count * o.value;
        }
        debug_assert!(count >= r as u128, "threshold search postcondition");

        // Exact correction: surplus qualified entries all equal T.
        let corrected = qsum - (count - r as u128) * t;
        let result = RSmallestResult {
            sum: corrected >> jbits,
            threshold: t >> jbits,
            iterations,
        };
        Ok((result, total))
    }
}

/// The distributed sum-of-R-smallest routine (§3.1), one-shot.
///
/// `values[u]` is node `u`'s local fixed-point numerator `x_u`;
/// `value_width` its wire width. `tree` is the BFS tree rooted at the
/// querying source; if it is depth-limited, pass the unreached nodes'
/// common value via `outside` (their `values[…]` entries are ignored).
/// The search is sequential, so `engine` does not affect the run; `seed`
/// drives only the jitter of [`TieBreak::RandomJitter`]. To run many
/// searches on one tree, lay it out once with [`RSmallestSearch`].
#[allow(clippy::too_many_arguments)]
pub fn sum_of_r_smallest(
    g: &Graph,
    tree: &BfsTree,
    values: &[u128],
    r: usize,
    value_width: u32,
    tie: TieBreak,
    outside: Option<Outside>,
    budget_bits: u32,
    _engine: EngineKind,
    seed: u64,
) -> Result<(RSmallestResult, Metrics), RunError> {
    assert_eq!(values.len(), g.n(), "one value per node required");
    RSmallestSearch::new(tree, budget_bits).run(|u| values[u], r, value_width, tie, outside, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::build_bfs_tree;
    use crate::message::olog_budget;
    use lmt_graph::gen;
    use proptest::prelude::*;

    fn setup(g: &Graph, src: usize) -> BfsTree {
        build_bfs_tree(
            g,
            src,
            u32::MAX,
            olog_budget(g.n(), 8),
            EngineKind::Sequential,
            7,
        )
        .unwrap()
        .0
    }

    fn reference_sum(values: &[u128], r: usize) -> u128 {
        let mut v = values.to_vec();
        v.sort_unstable();
        v[..r].iter().sum()
    }

    #[test]
    fn exact_on_distinct_values() {
        let g = gen::grid(3, 4);
        let tree = setup(&g, 0);
        let values: Vec<u128> = (0..12).map(|i| (i * 13 + 5) as u128 % 97).collect();
        for r in [1usize, 3, 7, 12] {
            let (res, _) = sum_of_r_smallest(
                &g,
                &tree,
                &values,
                r,
                8,
                TieBreak::ThresholdCorrection,
                None,
                olog_budget(12, 16),
                EngineKind::Sequential,
                1,
            )
            .unwrap();
            assert_eq!(res.sum, reference_sum(&values, r), "r={r}");
        }
    }

    #[test]
    fn exact_with_heavy_ties() {
        let g = gen::cycle(10);
        let tree = setup(&g, 0);
        let values = vec![5u128, 5, 5, 5, 2, 2, 9, 9, 9, 5];
        for r in 1..=10 {
            let (res, _) = sum_of_r_smallest(
                &g,
                &tree,
                &values,
                r,
                4,
                TieBreak::ThresholdCorrection,
                None,
                olog_budget(10, 16),
                EngineKind::Sequential,
                2,
            )
            .unwrap();
            assert_eq!(res.sum, reference_sum(&values, r), "r={r}");
        }
    }

    #[test]
    fn jitter_variant_close_to_exact() {
        let g = gen::random_regular(24, 4, 4);
        let tree = setup(&g, 0);
        let values: Vec<u128> = (0..24).map(|i| ((i % 5) * 1000) as u128).collect();
        let r = 9;
        let exact = reference_sum(&values, r);
        let (res, _) = sum_of_r_smallest(
            &g,
            &tree,
            &values,
            r,
            16,
            TieBreak::RandomJitter { bits: 16 },
            None,
            olog_budget(24, 16),
            EngineKind::Sequential,
            3,
        )
        .unwrap();
        // Error < R numerator units (jitter analysis).
        assert!(
            res.sum >= exact && res.sum < exact + r as u128,
            "sum {} vs exact {exact}",
            res.sum
        );
    }

    #[test]
    fn rounds_scale_like_depth_times_iterations() {
        let g = gen::path(32);
        let tree = setup(&g, 0);
        let values: Vec<u128> = (0..32).map(|i| i as u128).collect();
        let (res, m) = sum_of_r_smallest(
            &g,
            &tree,
            &values,
            10,
            6,
            TieBreak::ThresholdCorrection,
            None,
            olog_budget(32, 16),
            EngineKind::Sequential,
            4,
        )
        .unwrap();
        // Each iteration costs ≤ 2·(depth+2) rounds plus min/max/final phases.
        let per_phase = (tree.depth as u64) + 2;
        let bound = (2 * res.iterations as u64 + 8) * per_phase;
        assert!(
            m.rounds <= bound,
            "rounds {} exceed bound {bound} (iters {})",
            m.rounds,
            res.iterations
        );
        // Iterations are logarithmic in the value range.
        assert!(res.iterations <= 6, "iterations {}", res.iterations);
    }

    #[test]
    fn r_equals_n_sums_everything() {
        let g = gen::complete(6);
        let tree = setup(&g, 0);
        let values = vec![3u128, 1, 4, 1, 5, 9];
        let (res, _) = sum_of_r_smallest(
            &g,
            &tree,
            &values,
            6,
            4,
            TieBreak::ThresholdCorrection,
            None,
            olog_budget(6, 16),
            EngineKind::Sequential,
            5,
        )
        .unwrap();
        assert_eq!(res.sum, 23);
    }

    #[test]
    fn all_equal_values() {
        let g = gen::path(5);
        let tree = setup(&g, 2);
        let values = vec![7u128; 5];
        let (res, _) = sum_of_r_smallest(
            &g,
            &tree,
            &values,
            3,
            3,
            TieBreak::ThresholdCorrection,
            None,
            olog_budget(5, 16),
            EngineKind::Sequential,
            6,
        )
        .unwrap();
        assert_eq!(res.sum, 21);
        assert_eq!(res.threshold, 7);
        assert_eq!(res.iterations, 0); // lo == hi immediately
    }

    /// The search as a sequence of flat-kernel phases, one convergecast
    /// pass per count and sum: the implementation the ranked search
    /// replaced, kept as its differential oracle.
    #[allow(clippy::too_many_arguments)]
    fn flat_reference(
        g: &Graph,
        tree: &BfsTree,
        values: &[u128],
        r: usize,
        value_width: u32,
        tie: TieBreak,
        outside: Option<Outside>,
        budget_bits: u32,
        seed: u64,
    ) -> Result<(RSmallestResult, Metrics), RunError> {
        let mut flat = FlatTree::new(tree, budget_bits);
        let mut total = Metrics::default();
        let jbits = match tie {
            TieBreak::ThresholdCorrection => 0,
            TieBreak::RandomJitter { bits } => bits,
        };
        let work_width = value_width + jbits;
        let work: Vec<u128> = flat
            .members()
            .iter()
            .map(|&u| {
                let v = values[u as usize];
                if jbits == 0 {
                    return v;
                }
                let mut rng = fork(seed ^ 0x71E_B4EA, u as u64);
                (v << jbits) | rng.gen_range(0..(1u128 << jbits))
            })
            .collect();
        let outside = outside.map(|o| Outside {
            count: o.count,
            value: o.value << jbits,
        });
        let mut tally = |flat: &mut FlatTree, op, t: u128, sum: bool, width| {
            let (res, m) = flat.convergecast(op, |i| {
                let v = work[i];
                (v <= t).then_some(Wide {
                    value: if sum { v } else { 1 },
                    width,
                })
            })?;
            total.absorb(&m);
            Ok::<_, RunError>(res.map_or(0, |v| v.value))
        };
        let extreme = |flat: &mut FlatTree, op| {
            let (res, m) = flat.convergecast(op, |i| Some(Wide::new(work[i], work_width)))?;
            Ok::<_, RunError>((res.unwrap().value, m))
        };
        let (mut lo, m_lo) = extreme(&mut flat, Op::Min)?;
        let (mut hi, m_hi) = extreme(&mut flat, Op::Max)?;
        let mut phases = vec![m_lo, m_hi];
        if let Some(o) = outside.filter(|o| o.count > 0) {
            lo = lo.min(o.value);
            hi = hi.max(o.value);
        }
        let outside_le = |t: u128| outside.filter(|o| o.value <= t);
        let count_width = id_bits(g.n()) + 1;
        let mut iterations = 0;
        while lo < hi {
            iterations += 1;
            let mid = lo + (hi - lo) / 2;
            phases.push(flat.broadcast(Wide::new(mid, work_width))?);
            let count = tally(&mut flat, Op::Sum, mid, false, count_width)?
                + outside_le(mid).map_or(0, |o| o.count);
            if count >= r as u128 {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let t = lo;
        phases.push(flat.broadcast(Wide::new(t, work_width))?);
        let sum_width = work_width + id_bits(g.n()) + 1;
        let mut count = tally(&mut flat, Op::Sum, t, false, count_width)?;
        let mut qsum = tally(&mut flat, Op::Sum, t, true, sum_width)?;
        if let Some(o) = outside_le(t) {
            count += o.count;
            qsum += o.count * o.value;
        }
        for m in &phases {
            total.absorb(m);
        }
        let corrected = qsum - (count - r as u128) * t;
        let result = RSmallestResult {
            sum: corrected >> jbits,
            threshold: t >> jbits,
            iterations,
        };
        Ok((result, total))
    }

    fn any_graph() -> impl Strategy<Value = Graph> {
        (1usize..32, 0.05f64..0.6, any::<u64>())
            .prop_map(|(n, p, seed)| gen::erdos_renyi(n, p, seed))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ranked search ≡ the flat kernel's phase-by-phase search:
        /// the sum, threshold and iteration count, every [`Metrics`]
        /// field and the [`RunError`], compared exactly. Trees are
        /// spanning or depth-limited (limit 0 leaves the root alone), the
        /// unreached nodes folded in through [`Outside`]; values are
        /// heavy ties (0–3) or spread over 16 bits; both tie modes run;
        /// budgets sit at, just below, and just above each message width
        /// (the broadcast value, the min/max, count and sum reports).
        #[test]
        fn ranked_search_matches_flat_kernel(
            g in any_graph(),
            src_raw in any::<usize>(),
            (limit_raw, ties, jitter) in (0u32..5, any::<bool>(), 0u32..4),
            raw in proptest::collection::vec(any::<u16>(), 32),
            (out_raw, r_raw, seed) in (any::<u16>(), any::<usize>(), any::<u64>()),
            (pick, offset) in (0usize..5, 0u32..3),
        ) {
            let n = g.n();
            let src = src_raw % n;
            let limit = if limit_raw == 4 { u32::MAX } else { limit_raw };
            let tree = build_bfs_tree(&g, src, limit, olog_budget(n, 8), EngineKind::Sequential, 1)
                .unwrap()
                .0;
            let shrink = |v: u16| if ties { u128::from(v % 4) } else { u128::from(v) };
            let values: Vec<u128> = raw[..n].iter().map(|&v| shrink(v)).collect();
            let value_width = if ties { 2 } else { 16 };
            let out_count = (n - tree.reached()) as u128;
            let outside = (out_count > 0).then_some(Outside { count: out_count, value: shrink(out_raw) });
            let r = 1 + r_raw % n;
            let tie = match jitter {
                0 => TieBreak::ThresholdCorrection,
                bits => TieBreak::RandomJitter { bits: 4 * bits },
            };
            let work_width = value_width + if jitter == 0 { 0 } else { 4 * jitter };
            let id = id_bits(n);
            let widths = [work_width, 1 + work_width, 2 + id, 2 + work_width + id, 40];
            let budget = widths[pick] + offset - 1;
            let got = RSmallestSearch::new(&tree, budget).run(|u| values[u], r, value_width, tie, outside, seed);
            let want = flat_reference(&g, &tree, &values, r, value_width, tie, outside, budget, seed);
            let key = |x: &Result<(RSmallestResult, Metrics), RunError>| {
                x.clone().map(|(res, m)| (res.sum, res.threshold, res.iterations, m))
            };
            prop_assert_eq!(key(&got), key(&want));
        }
    }
}
