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
//! 3. broadcast `T` and convergecast the qualified sum.
//!
//! All of a call's phases — `2·iterations + 5` of them — run on **one**
//! flat layout of the tree, built at the start of the call (see the
//! [`crate::tree`] docs): a broadcast costs nothing to deliver, and a
//! convergecast is one reverse-BFS pass over the members' values, which the
//! call keeps in BFS order. Rounds, messages and bits are exactly those of
//! the message-passing protocol on a fresh full-graph network per phase.
//! Like every tree phase, the search is sequential: `engine` does not
//! affect it, and `seed` only feeds the [`TieBreak::RandomJitter`] draws.
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

/// Convergecast over the tree members qualified by the last broadcast
/// threshold `t` (`work[i] ≤ t`, `work` in BFS order): their count, or with
/// `sum` the sum of their values, in `width`-bit fields.
fn tally(
    flat: &mut FlatTree,
    work: &[u128],
    t: u128,
    sum: bool,
    width: u32,
    total: &mut Metrics,
) -> Result<u128, RunError> {
    let (res, m) = flat.convergecast(Op::Sum, |i| {
        let v = work[i];
        (v <= t).then_some(Wide {
            value: if sum { v } else { 1 },
            width,
        })
    })?;
    total.absorb(&m);
    Ok(res.map_or(0, |v| v.value))
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

/// The distributed sum-of-R-smallest routine (§3.1).
///
/// `values[u]` is node `u`'s local fixed-point numerator `x_u`;
/// `value_width` its wire width. `tree` is the BFS tree rooted at the
/// querying source; if it is depth-limited, pass the unreached nodes'
/// common value via `outside` (their `values[…]` entries are ignored).
/// The tree phases are sequential, so `engine` does not affect the run;
/// `seed` drives only the jitter of [`TieBreak::RandomJitter`].
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
    assert!(r >= 1 && r <= g.n(), "R must be in [1, n], got {r}");
    let out_count = outside.map_or(0, |o| o.count);
    assert_eq!(
        tree.reached() as u128 + out_count,
        g.n() as u128,
        "outside.count must cover exactly the unreached nodes"
    );
    // Every phase below runs on one flat layout of the tree; `work[i]` is
    // the working value of the member at BFS position `i`.
    let mut flat = FlatTree::new(tree, budget_bits);
    let mut total = Metrics::default();

    // Jitter preprocessing: each node appends random low-order bits locally
    // (node-local randomness; modelled by a per-node fork of the seed).
    let (work_width, jbits) = match tie {
        TieBreak::ThresholdCorrection => (value_width, 0),
        TieBreak::RandomJitter { bits } => {
            assert!(bits > 0 && bits <= 32, "jitter bits out of range");
            (value_width + bits, bits)
        }
    };
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

    // The outside value lives on the jittered scale too (shifted, no jitter
    // bits needed: it only has to order correctly against jittered values,
    // and `v << bits ≤ jittered(v) < (v+1) << bits` keeps ranks aligned).
    let outside_work = outside.map(|o| Outside {
        count: o.count,
        value: o.value << jbits,
    });

    // Phase 1: min and max over tree nodes, folded with the outside value.
    let mut extreme = |op| {
        let (res, m) = flat.convergecast(op, |i| Some(Wide::new(work[i], work_width)))?;
        total.absorb(&m);
        Ok::<_, RunError>(res.expect("an extreme over ≥ 1 tree nodes").value)
    };
    let mut lo = extreme(Op::Min)?;
    let mut hi = extreme(Op::Max)?;
    if let Some(o) = outside_work {
        if o.count > 0 {
            lo = lo.min(o.value);
            hi = hi.max(o.value);
        }
    }

    // Phase 2: smallest T with count(≤ T) ≥ R.
    let count_width = id_bits(g.n()) + 1;
    let mut iterations = 0;
    while lo < hi {
        iterations += 1;
        let mid = lo + (hi - lo) / 2;
        total.absorb(&flat.broadcast(Wide::new(mid, work_width))?);
        let mut count = tally(&mut flat, &work, mid, false, count_width, &mut total)?;
        if let Some(o) = outside_work {
            if o.value <= mid {
                count += o.count;
            }
        }
        if count >= r as u128 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let t = lo;

    // Phase 3: qualified sum (and final count for the correction).
    total.absorb(&flat.broadcast(Wide::new(t, work_width))?);
    let mut count = tally(&mut flat, &work, t, false, count_width, &mut total)?;
    let sum_width = work_width + id_bits(g.n()) + 1;
    let mut qsum = tally(&mut flat, &work, t, true, sum_width, &mut total)?;
    if let Some(o) = outside_work {
        if o.value <= t {
            count += o.count;
            qsum += o.count * o.value;
        }
    }
    debug_assert!(count >= r as u128, "threshold search postcondition");

    // Exact correction: surplus qualified entries all equal T.
    let corrected = qsum - (count - r as u128) * t;
    let (sum, threshold) = if jbits > 0 {
        (corrected >> jbits, t >> jbits)
    } else {
        (corrected, t)
    };
    Ok((
        RSmallestResult {
            sum,
            threshold,
            iterations,
        },
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::build_bfs_tree;
    use crate::message::olog_budget;
    use lmt_graph::gen;

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
}
