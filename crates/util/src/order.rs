//! Order statistics helpers.
//!
//! Algorithm 2 of the paper repeatedly needs "the sum of the `R` smallest
//! `x_u` values" — centrally this is a selection problem; in the distributed
//! algorithm it becomes a binary search over a BFS tree (see
//! `lmt-congest::binsearch`). The centralized versions here serve as the
//! reference implementations that the distributed protocol is tested against,
//! and are also used by the ground-truth local-mixing-time oracle.

/// Sum of the `r` smallest values of `xs` (not required to be sorted).
///
/// `O(n log n)`; good enough for reference use. Returns `None` if `r > n`.
pub fn sum_of_r_smallest(xs: &[f64], r: usize) -> Option<f64> {
    if r > xs.len() {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sum_of_r_smallest"));
    Some(v[..r].iter().sum())
}

/// Precomputed prefix sums over a **sorted ascending** slice, supporting
/// `O(log n)` evaluation of `Σ_{i∈window} |v_i − c|` for any contiguous
/// window and constant `c`.
///
/// This is the inner kernel of the ground-truth local-mixing-time oracle:
/// for a fixed set size `R`, the optimal mixing set (the `R` values of the
/// distribution closest to `1/R`) is a contiguous window of the sorted
/// distribution, and its L1 distance to the flat vector decomposes around
/// the crossing point of `c = 1/R`.
#[derive(Clone, Debug)]
pub struct SortedPrefix {
    /// Sorted ascending values.
    vals: Vec<f64>,
    /// `pre[i] = vals[0] + … + vals[i-1]`.
    pre: Vec<f64>,
    /// `|vals[0]| + … + |vals[n-1]|`: the scale of the rounding error in
    /// `pre` (see [`SortedPrefix::best_window_below`]).
    abs_sum: f64,
}

impl SortedPrefix {
    /// Build from arbitrary values; sorts internally.
    ///
    /// # Panics
    /// Panics if any value is NaN.
    pub fn new(mut vals: Vec<f64>) -> Self {
        vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN in SortedPrefix"));
        let mut sp = SortedPrefix {
            vals: Vec::with_capacity(vals.len()),
            pre: Vec::with_capacity(vals.len() + 1),
            abs_sum: 0.0,
        };
        sp.refill_sorted(vals);
        sp
    }

    /// An empty prefix structure, ready for [`SortedPrefix::refill_sorted`]
    /// — the allocation-reuse entry point for per-step callers (the
    /// local-mixing oracle rebuilds the prefix every walk step).
    pub fn empty() -> Self {
        SortedPrefix::new(Vec::new())
    }

    /// Refill from values that are **already sorted ascending**, reusing
    /// the existing allocations. Produces exactly the state
    /// [`SortedPrefix::new`] would (`new` sorts, then accumulates the same
    /// prefix sums left to right), minus the sort and the allocations.
    ///
    /// Debug builds verify sortedness; release builds trust the caller.
    pub fn refill_sorted<I: IntoIterator<Item = f64>>(&mut self, vals: I) {
        let vals = vals.into_iter();
        self.vals.clear();
        self.pre.clear();
        self.vals.reserve_exact(vals.size_hint().0);
        self.pre.reserve_exact(vals.size_hint().0 + 1);
        self.pre.push(0.0);
        let mut acc = 0.0;
        let mut abs = 0.0;
        for v in vals {
            debug_assert!(
                self.vals.last().is_none_or(|&prev| prev <= v),
                "refill_sorted: values not ascending"
            );
            self.vals.push(v);
            acc += v;
            abs += v.abs();
            self.pre.push(acc);
        }
        self.abs_sum = abs;
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True iff no values.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The sorted values.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// `Σ_{i=lo..hi} |vals[i] − c|` for the half-open window `[lo, hi)`.
    pub fn window_abs_dev(&self, lo: usize, hi: usize, c: f64) -> f64 {
        assert!(lo <= hi && hi <= self.vals.len(), "bad window [{lo},{hi})");
        // First index in [lo, hi) with vals[idx] >= c.
        let split = lo + self.vals[lo..hi].partition_point(|&v| v < c);
        // Below the split: Σ (c − v) = (split−lo)·c − (pre[split]−pre[lo]).
        let below = (split - lo) as f64 * c - (self.pre[split] - self.pre[lo]);
        // At/above: Σ (v − c) = (pre[hi]−pre[split]) − (hi−split)·c.
        let above = (self.pre[hi] - self.pre[split]) - (hi - split) as f64 * c;
        below + above
    }

    /// The earliest minimizer of [`Self::window_abs_dev`] over the windows
    /// of width `w` whose value can fall below `bound`: returns
    /// `(best, scanned)`, where `best = Some((lo, value))` unless no window
    /// can (then `None`) and `scanned` counts the windows evaluated.
    ///
    /// **Pruning.** A window `W` has `Σ_W |v − c| ≥ Σ_W (c − v) =
    /// w·c − mass(W)`, so a window whose mass is below `w·c − bound` cannot
    /// go below `bound`. The values are ascending, so the exact mass of
    /// `[lo, lo+w)` never decreases as `lo` grows, and the skippable
    /// windows form a prefix `lo < lo₀` of the start positions. `lo₀` is
    /// found by binary search on the prefix sums against the threshold
    /// `T = w·c − bound − M`; if even the top window `lo = n − w` falls
    /// below `T`, the size is skipped in `O(1)`. The search only moves its
    /// lower end past a position `mid` after evaluating
    /// `m̂(mid) = pre[mid+w] − pre[mid] < T`, so `m̂(lo₀−1) < T` holds by
    /// explicit test; every `lo < lo₀−1` then has exact mass
    /// `≤ mass(lo₀−1)` by the monotonicity of **exact** masses. Nothing
    /// relies on computed masses being monotone.
    ///
    /// **The margin `M`.** With `u = EPSILON/2`, `S = Σ|v|`, `C = w·|c|`,
    /// `B = |bound|` and `n·u ≤ 2⁻¹⁰`: every `pre[i]` is a recursive sum
    /// within `γ_n·S ≤ 1.01·n·u·S` of the exact prefix, so every computed
    /// difference of two prefix sums (a window mass, or either half of a
    /// window value) is within `δ = (2.03·n + 1.01)·u·S` of its exact
    /// counterpart. The computed window value (two products, three
    /// subtractions, one addition) is within `5.03·u·C + 3.01·u·S + 2.02·δ`
    /// of the exact `Σ_W |v − c|`, and the computed threshold is at most
    /// `3.1·u·C + 2.1·u·B + 1.1·u·M` above the exact `w·c − bound − M`.
    /// Chaining these, a skipped window's computed value exceeds
    /// `bound + 0.99·M − 8.2·u·C − 2.1·u·B − (6.2·n + 6.2)·u·S`, and
    /// `M = 8·(n + 2)·EPSILON·(S + C + B)` (with `S` itself a computed sum,
    /// within 1% of exact) makes that at least `bound + EPSILON·B`. So
    /// every skipped window's computed value is `≥ bound` with one rounding
    /// of `bound` to spare: a bound that is itself a rounded difference
    /// (`eps − own` in the `s ∈ S` check) is still safe. `c` is assumed
    /// normal, as `1/R` is; an infinite or NaN `S` or `bound` makes `T`
    /// `−∞` or NaN, which skips nothing.
    ///
    /// **Same bits.** Scanned windows are evaluated by the same
    /// expressions, in the same order, as a scan of all `n − w + 1`
    /// windows. If that full scan's earliest minimizer has value `< bound`
    /// it is not skipped, and every earlier window, skipped or not, has a
    /// larger value — so it is returned with identical `lo` and value bits.
    /// If the full minimum is `≥ bound`, so is the pruned one (or `best`
    /// is `None`). A caller that accepts only a value below `bound` (or any
    /// monotone test failing at `bound`) cannot tell the two apart.
    ///
    /// The crossing point of `c` inside `[lo, lo+w)` is the global crossing
    /// point clamped into the window, so it is computed once per call; each
    /// window's value is the two prefix-sum expressions of
    /// [`Self::window_abs_dev`], `O(1)` per window.
    pub fn best_window_below(&self, w: usize, c: f64, bound: f64) -> (Option<(usize, f64)>, usize) {
        let n = self.vals.len();
        if w == 0 || w > n {
            return (None, 0);
        }
        let top = n - w;
        let mass = |lo: usize| self.pre[lo + w] - self.pre[lo];
        let threshold = w as f64 * c - bound - self.prune_margin(w, c, bound);
        if mass(top) < threshold {
            return (None, 0);
        }
        // Invariant: `mass(a − 1) < threshold` was evaluated (or a = 0), and
        // `mass(b) < threshold` is false (b = top was tested above).
        let (mut a, mut b) = (0, top);
        while a < b {
            let mid = a + (b - a) / 2;
            if mass(mid) < threshold {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        let lb = self.vals.partition_point(|&v| v < c);
        let mut best = (a, f64::INFINITY);
        for lo in a..=top {
            let hi = lo + w;
            let split = lb.clamp(lo, hi);
            let below = (split - lo) as f64 * c - (self.pre[split] - self.pre[lo]);
            let above = (self.pre[hi] - self.pre[split]) - (hi - split) as f64 * c;
            let v = below + above;
            if v < best.1 {
                best = (lo, v);
            }
        }
        (Some(best), top - a + 1)
    }

    /// The rounding margin `M` of [`Self::best_window_below`] (derived in
    /// its docs): `8·(n + 2)·EPSILON·(Σ|v| + w·|c| + |bound|)`.
    fn prune_margin(&self, w: usize, c: f64, bound: f64) -> f64 {
        8.0 * (self.vals.len() + 2) as f64
            * f64::EPSILON
            * (self.abs_sum + w as f64 * c.abs() + bound.abs())
    }

    /// The unpruned scan: the earliest minimizer over all `n − w + 1`
    /// windows. The differential reference for
    /// [`Self::best_window_below`].
    #[cfg(test)]
    fn best_window(&self, w: usize, c: f64) -> Option<(usize, f64)> {
        if w == 0 || w > self.vals.len() {
            return None;
        }
        let lb = self.vals.partition_point(|&v| v < c);
        let mut best = (0usize, f64::INFINITY);
        for lo in 0..=(self.vals.len() - w) {
            let hi = lo + w;
            let split = lb.clamp(lo, hi);
            let below = (split - lo) as f64 * c - (self.pre[split] - self.pre[lo]);
            let above = (self.pre[hi] - self.pre[split]) - (hi - split) as f64 * c;
            let v = below + above;
            if v < best.1 {
                best = (lo, v);
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_abs_dev(vals: &[f64], c: f64) -> f64 {
        vals.iter().map(|v| (v - c).abs()).sum()
    }

    #[test]
    fn r_smallest_matches_sort() {
        let xs = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(sum_of_r_smallest(&xs, 3), Some(6.0));
        assert_eq!(sum_of_r_smallest(&xs, 0), Some(0.0));
        assert_eq!(sum_of_r_smallest(&xs, 6), None);
    }

    #[test]
    fn window_abs_dev_matches_brute_force() {
        let vals = vec![0.9, 0.1, 0.4, 0.4, 0.2, 0.75, 0.0];
        let sp = SortedPrefix::new(vals);
        let sorted = sp.values().to_vec();
        for lo in 0..sorted.len() {
            for hi in lo..=sorted.len() {
                for &c in &[0.0, 0.15, 0.4, 1.2] {
                    let got = sp.window_abs_dev(lo, hi, c);
                    let want = brute_abs_dev(&sorted[lo..hi], c);
                    assert!((got - want).abs() < 1e-12, "lo={lo} hi={hi} c={c}");
                }
            }
        }
    }

    #[test]
    fn best_window_matches_per_window_scan() {
        // The hoisted-split fast path must agree with a literal
        // window_abs_dev scan — same earliest lo, same value bits.
        let sp = SortedPrefix::new(vec![0.0, 0.0, 0.1, 0.1, 0.1, 0.25, 0.3, 0.9]);
        for r in 1..=8 {
            for &c in &[0.0, 0.05, 0.1, 0.2, 0.5, 1.0] {
                let got = sp.best_window(r, c).unwrap();
                let mut want = (0usize, f64::INFINITY);
                for lo in 0..=(sp.len() - r) {
                    let v = sp.window_abs_dev(lo, lo + r, c);
                    if v < want.1 {
                        want = (lo, v);
                    }
                }
                assert_eq!(got.0, want.0, "r={r} c={c}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "r={r} c={c}");
            }
        }
    }

    /// Random sorted inputs for the pruning tests: runs of zeros, values
    /// tied exactly at `1/w` and `1/(w+1)`, duplicates, and total mass that
    /// is 1 only up to rounding, or not 1 at all.
    fn pruning_case(rng: &mut rand::rngs::SmallRng) -> Vec<f64> {
        use rand::Rng;
        let n = rng.gen_range(1..40usize);
        let w = rng.gen_range(1..n + 1);
        let mut vals: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..4u32) {
                0 | 1 => 0.0,
                2 => rng.gen::<f64>() / n as f64,
                _ => rng.gen::<f64>(),
            })
            .collect();
        let total: f64 = vals.iter().sum();
        let scale = [1.0, 1.0, 0.25, 3.5][rng.gen_range(0..4usize)];
        if total > 0.0 {
            vals.iter_mut().for_each(|v| *v *= scale / total);
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let i = rng.gen_range(0..n);
            vals[i] = 1.0 / (w + rng.gen_range(0..2usize)) as f64;
        }
        if rng.gen_bool(0.3) {
            let i = rng.gen_range(0..n);
            vals[i] = vals[(i + 1) % n];
        }
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        vals
    }

    /// One pruned query against the unpruned reference: every skipped
    /// window is provably not below `bound`, and a passing reference
    /// minimizer comes back with the same `lo` and value bits. Returns the
    /// number of windows skipped.
    fn assert_pruned_matches(sp: &SortedPrefix, w: usize, c: f64, bound: f64) -> usize {
        let (got, scanned) = sp.best_window_below(w, c, bound);
        let (ref_lo, ref_v) = sp.best_window(w, c).unwrap();
        let windows = sp.len() - w + 1;
        assert!(scanned <= windows);
        let first = windows - scanned;
        for lo in 0..first {
            let v = sp.window_abs_dev(lo, lo + w, c);
            assert!(
                v >= bound + f64::EPSILON * bound.abs(),
                "skipped window lo={lo} w={w} c={c} has {v} < bound {bound}"
            );
        }
        match got {
            Some((lo, v)) => {
                assert!(lo >= first && lo + w <= sp.len());
                assert_eq!(v.to_bits(), sp.window_abs_dev(lo, lo + w, c).to_bits());
                if ref_v < bound {
                    assert_eq!((lo, v.to_bits()), (ref_lo, ref_v.to_bits()), "w={w} c={c}");
                } else {
                    assert!(v >= ref_v);
                }
            }
            None => {
                assert_eq!(scanned, 0);
                assert!(
                    ref_v >= bound,
                    "pruned a passing window: w={w} c={c} bound={bound}"
                );
            }
        }
        first
    }

    #[test]
    fn best_window_below_matches_full_scan() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(16);
        let mut skipped = 0;
        for _ in 0..150 {
            let sp = SortedPrefix::new(pruning_case(&mut rng));
            for w in 1..=sp.len() {
                for c in [1.0 / w as f64, 1.0 / (w + 1) as f64] {
                    let (_, ref_v) = sp.best_window(w, c).unwrap();
                    let mut bounds = vec![0.02, 1.0 / (8.0 * std::f64::consts::E), 0.5, -0.1];
                    if ref_v.is_finite() {
                        bounds.extend([ref_v, ref_v.next_up(), ref_v.next_down()]);
                    }
                    // Bounds that put the pruning threshold w·c − bound − M
                    // right at (and a few roundings either side of) each
                    // window's computed mass.
                    for lo in 0..=(sp.len() - w) {
                        let gap = w as f64 * c - (sp.pre[lo + w] - sp.pre[lo]);
                        let b = gap - sp.prune_margin(w, c, gap);
                        let b = gap - sp.prune_margin(w, c, b);
                        let m = sp.prune_margin(w, c, b);
                        let mut x = b;
                        for _ in 0..3 {
                            x = x.next_up();
                            bounds.push(x);
                        }
                        x = b;
                        for _ in 0..3 {
                            x = x.next_down();
                            bounds.push(x);
                        }
                        bounds.extend([b, b + m, b - m, b + 0.5 * m, b - 0.5 * m]);
                    }
                    for bound in bounds {
                        skipped += assert_pruned_matches(&sp, w, c, bound);
                    }
                }
            }
        }
        assert!(
            skipped > 10_000,
            "pruning barely exercised: {skipped} windows skipped"
        );
    }

    #[test]
    fn best_window_below_skips_whole_sizes() {
        // Windows holding less than w·c − bound of mass are skipped: only
        // the top width-3 window holds the mass 0.9 that a value below 0.1
        // needs at c = 1/3.
        let sp = SortedPrefix::new(vec![0.0, 0.0, 0.0, 0.1, 0.45, 0.45]);
        let (best, scanned) = sp.best_window_below(3, 1.0 / 3.0, 0.1);
        assert_eq!((best.map(|b| b.0), scanned), (Some(3), 1));
        // Half the mass missing: the top window of width 5 (w·c = 1) holds
        // 0.5 < 0.9, so the whole size goes in O(1); width 2 (w·c = 0.5)
        // keeps only its top window.
        let half = SortedPrefix::new(vec![0.0, 0.0, 0.0, 0.0, 0.25, 0.25]);
        assert_eq!(half.best_window_below(5, 0.2, 0.1), (None, 0));
        assert_eq!(half.best_window_below(2, 0.25, 0.1), (Some((4, 0.0)), 1));
        assert_eq!(half.best_window_below(7, 0.2, 0.1), (None, 0));
        assert_eq!(half.best_window_below(0, 0.2, 0.1), (None, 0));
        // A NaN bound skips nothing.
        assert_eq!(half.best_window_below(5, 0.2, f64::NAN).1, 2);
    }

    #[test]
    fn best_window_finds_minimum() {
        let sp = SortedPrefix::new(vec![0.0, 0.0, 0.24, 0.26, 0.25, 0.25]);
        // Width-4 window closest to c = 0.25 is the last four values.
        let (lo, v) = sp.best_window(4, 0.25).unwrap();
        assert_eq!(lo, 2);
        assert!(v < 0.03);
        assert!(sp.best_window(7, 0.25).is_none());
        assert!(sp.best_window(0, 0.25).is_none());
    }

    #[test]
    fn empty_prefix() {
        let sp = SortedPrefix::new(vec![]);
        assert!(sp.is_empty());
        assert_eq!(sp.len(), 0);
    }

    #[test]
    fn refill_sorted_matches_new_bitwise() {
        let rounds = [
            vec![0.1, 0.2, 0.2, 0.7],
            vec![0.0, 0.0, 0.5],
            vec![],
            vec![1.0 / 3.0, 2.0 / 3.0, 0.9, 1.1, 1.3],
        ];
        let mut sp = SortedPrefix::empty();
        for vals in rounds {
            sp.refill_sorted(vals.iter().copied());
            let fresh = SortedPrefix::new(vals.clone());
            assert_eq!(sp.values(), fresh.values());
            assert_eq!(sp.len(), fresh.len());
            for r in 0..=vals.len() {
                for &c in &[0.0, 0.3, 0.8] {
                    let a = sp.best_window(r, c);
                    let b = fresh.best_window(r, c);
                    match (a, b) {
                        (None, None) => {}
                        (Some((la, va)), Some((lb, vb))) => {
                            assert_eq!(la, lb);
                            assert_eq!(va.to_bits(), vb.to_bits(), "r={r} c={c}");
                        }
                        other => panic!("mismatch: {other:?}"),
                    }
                }
            }
        }
    }
}
