//! Ground-truth local mixing time `τ_s(β, ε)` (Definition 2 of the paper).
//!
//! `τ_s(β, ε) = min{ t : ∃ S ∋ s, |S| ≥ n/β, ‖p_tS − π_S‖₁ < ε }`.
//!
//! For a **d-regular** graph `π_S` is the flat vector `1/|S|`, so for a fixed
//! set size `R` the optimal set is the `R` nodes whose probabilities are
//! closest to `1/R` — and since "closest to a scalar" is an interval, those
//! nodes form a **contiguous window of the value-sorted distribution**. That
//! turns the per-step existence check into a sort plus a window scan per
//! size instead of an exponential subset search ([`check_dist`]), and both
//! halves are sparse ([`WitnessScratch`]): only the nonzero entries are
//! sorted (the zeros are one id-ordered run), and a window of size `R`
//! holding less than `1 − ε` of the mass cannot pass
//! (`Σ|p − 1/R| ≥ 1 − mass`), so each size scans only the few windows that
//! hold nearly all of it. Most steps need neither half: a bucket histogram
//! of `p_t`, built in one `O(n)` pass, bounds every set's distance from
//! below, and a step it proves witness-free skips the sort and the scan
//! ([`WitnessScratch::check`]). On the 2²⁰-node expander that leaves one
//! sort per query, at step `τ_s`.
//!
//! The oracle supports:
//! * every set size (`SizeGrid::All`) — the exact Definition 2 quantity — or
//!   the paper's geometric `(1+ε)` grid (`SizeGrid::Geometric`), which is
//!   what Algorithm 2 actually inspects;
//! * optional enforcement of the `s ∈ S` constraint (the paper's Algorithm 2
//!   drops it, collecting the `R` smallest `x_u` globally; we support both so
//!   experiment T2 can quantify the difference);
//! * an exponential-time brute force ([`brute_force_local_mixing_time`]) for
//!   arbitrary (even non-regular) tiny graphs, used to validate the window
//!   oracle in tests.
//!
//! The oracle's power iteration runs on the frontier-sparse evolution
//! engine ([`crate::engine`]) — on the paper's clique-chain calibration
//! families the support stays near the source for the whole `τ_s = O(1)`
//! horizon, so each step costs `O(vol(support))`, not `O(2m)` — and
//! [`graph_local_mixing_time`] advances its sources in blocks through one
//! shared CSR sweep per step. Per-step sort/prefix buffers are reused
//! across steps and sources. All results are bit-for-bit identical to the
//! historical dense per-source iteration with a full sort and an unpruned
//! scan.

use crate::engine::BlockEvolution;
use crate::mixing::SWEEP_BLOCK;
use crate::step::{step, WalkKind};
use crate::Dist;
use lmt_graph::WalkGraph;
use lmt_util::order::SortedPrefix;

/// Which set sizes the existence check inspects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SizeGrid {
    /// Every integer size in `[⌈n/β⌉, n]` — exact Definition 2.
    ///
    /// **Still quadratic per step in the worst case.** The witness check
    /// scans, for each size `R`, only the windows that hold at least
    /// `1 − ε` of the mass (up to a rounding margin); for a probability
    /// vector those are at most about `ε·n + 1` per size, because dropping
    /// any `j` of the largest entries drops at least `j/n` of the mass. All
    /// `n − ⌈n/β⌉ + 1` sizes together can still cost up to `O(ε·n²)`
    /// window evaluations per walk step. A near-flat `p_t` costs `Θ(ε²·n²)`:
    /// every size `R ≥ (1 − ε)·n` keeps all its `n − R + 1` windows, about
    /// `ε²·n²/2` in total (~10⁹ at n = 2²⁰, ε = 1/8e). While the support
    /// is small it is far cheaper: a size whose heaviest window is too light
    /// is dropped in `O(1)`. The bucket certificate of
    /// [`WitnessScratch::check`] does not help here: it gives up once
    /// `|sizes|` times its nonempty buckets exceeds `n`, which with
    /// `|sizes| ≈ n·(1 − 1/β)` is almost always, so every step pays its
    /// `O(n)` histogram pass on top of the sort and the scan. Meant for
    /// small graphs and for cross-checking [`SizeGrid::Geometric`], which
    /// inspects only `O(log β / ε)` sizes.
    All,
    /// The paper's grid: `⌈n/β⌉, ⌈(1+ε)n/β⌉, ⌈(1+ε)²n/β⌉, …, n`.
    Geometric,
}

/// How strictly to enforce the paper's §3 regularity assumption.
///
/// On weighted graphs "regular" means **weight-regular** — equal walk
/// degrees `W(u)`, which is what makes the stationary distribution flat
/// (checked via [`WalkGraph::flat_stationary`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlatPolicy {
    /// Reject non-regular graphs ([`LocalMixError::NotRegular`]).
    RequireRegular,
    /// Use the flat `1/|S|` target regardless of degrees. This matches the
    /// paper's own loose treatment of its Figure 1 β-barbell (whose bridge
    /// ports have degree `k`, not `k−1`); sensible only for *near*-regular
    /// graphs, where the target error is `O(1/(kn))` per port.
    AssumeFlat,
}

/// Options for the oracle.
#[derive(Clone, Copy, Debug)]
pub struct LocalMixOptions {
    /// Set-size parameter `β ≥ 1`: candidate sets have `|S| ≥ n/β`.
    pub beta: f64,
    /// Accuracy `ε ∈ (0,1)`; acceptance is `‖p_tS − π_S‖₁ < ε`.
    pub eps: f64,
    /// Walk kind (lazy recommended on bipartite families).
    pub kind: WalkKind,
    /// Upper bound on steps before giving up.
    pub max_t: usize,
    /// Which set sizes to inspect.
    pub grid: SizeGrid,
    /// Enforce `s ∈ S` (Definition 2) or allow any set (Algorithm 2's view).
    pub require_source: bool,
    /// Regularity handling (see [`FlatPolicy`]).
    pub flat_policy: FlatPolicy,
}

impl LocalMixOptions {
    /// Reasonable defaults: the paper's `ε = 1/8e`, geometric grid, simple
    /// walk, source not enforced (matching Algorithm 2's check).
    pub fn new(beta: f64) -> Self {
        LocalMixOptions {
            beta,
            eps: 1.0 / (8.0 * std::f64::consts::E),
            kind: WalkKind::Simple,
            max_t: 1 << 20,
            grid: SizeGrid::Geometric,
            require_source: false,
            flat_policy: FlatPolicy::RequireRegular,
        }
    }

    /// Assert the option invariants the oracle entry points enforce
    /// (`β ≥ 1`, `ε ∈ (0,1)`, non-empty graph). Public so front ends
    /// (`lmt-service`) reject invalid queries with the oracle's exact
    /// messages.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    pub fn validate(&self, n: usize) {
        assert!(self.beta >= 1.0, "β must be ≥ 1 (got {})", self.beta);
        assert!(
            self.eps > 0.0 && self.eps < 1.0,
            "ε must lie in (0,1) (got {})",
            self.eps
        );
        assert!(n >= 1, "empty graph");
    }
}

/// A set witnessing local mixing at some step.
#[derive(Clone, Debug)]
pub struct Witness {
    /// Set size `|S|`.
    pub size: usize,
    /// Achieved restricted L1 distance `Σ_{u∈S} |p(u) − 1/|S||`.
    pub l1: f64,
    /// The member node ids, as `u32` like the CSR's neighbor ids (a
    /// witness can hold most of the graph, and callers may keep many).
    pub nodes: Vec<u32>,
}

/// Result of the oracle.
#[derive(Clone, Debug)]
pub struct LocalMixResult {
    /// The local mixing time `τ_s(β, ε)` (w.r.t. the chosen size grid).
    pub tau: usize,
    /// A witnessing set at step `tau`.
    pub witness: Witness,
}

/// Errors from the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalMixError {
    /// No witnessing set found within `max_t` steps.
    NotMixedWithin(usize),
    /// The window oracle requires a regular graph (the paper's §3 setting).
    NotRegular,
}

impl std::fmt::Display for LocalMixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocalMixError::NotMixedWithin(t) => {
                write!(f, "no local-mixing set found within {t} steps")
            }
            LocalMixError::NotRegular => {
                write!(
                    f,
                    "window oracle requires a regular graph (paper §3 assumption)"
                )
            }
        }
    }
}

impl std::error::Error for LocalMixError {}

/// Build the list of candidate set sizes for `n` nodes under `opts`.
pub fn size_grid(n: usize, opts: &LocalMixOptions) -> Vec<usize> {
    match opts.grid {
        SizeGrid::All => (min_size(n, opts.beta)..=n).collect(),
        SizeGrid::Geometric => geometric_grid(n, opts.beta, opts.eps),
    }
}

/// The smallest candidate set size, `⌈n/β⌉` clamped to `1..=n`.
fn min_size(n: usize, beta: f64) -> usize {
    ((n as f64 / beta).ceil() as usize).clamp(1, n)
}

/// The `(1+ε)`-geometric grid of candidate set sizes `⌈n/β⌉ … n`: the
/// oracle's [`SizeGrid::Geometric`] and Algorithm 2's step 5 (the one copy
/// of the grid both use).
pub fn geometric_grid(n: usize, beta: f64, eps: f64) -> Vec<usize> {
    let r_min = min_size(n, beta);
    // The geometric loop multiplies `r ≤ n − 1` by `f = fl(1 + ε)`, and
    // `f ≤ (1 + ε)(1 + u)` with `u = EPSILON/2`, so for `0 ≤ ε < 1` each
    // step adds `0 ≤ fl(r·f) − r ≤ r·ε + 4u·r`, which is `< 1` once
    // `n·ε ≤ 1/2`. So `⌈r⌉` never skips an integer, and whenever the
    // loop ends it has pushed exactly `r_min..=n`. The shortcut returns
    // that directly, also where the loop would never end (`1 + ε == 1`)
    // or would take `≈ ln β / ε` steps.
    if n as f64 * eps <= 0.5 {
        return (r_min..=n).collect();
    }
    geometric_sizes(r_min, n, eps)
}

/// The `(1+ε)` grid from `r_min` to `n`, one multiplication per step.
fn geometric_sizes(r_min: usize, n: usize, eps: f64) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut r = r_min as f64;
    loop {
        let ri = (r.ceil() as usize).min(n);
        if sizes.last() != Some(&ri) {
            sizes.push(ri);
        }
        if ri >= n {
            break;
        }
        r *= 1.0 + eps;
    }
    sizes
}

/// Reusable buffers for the per-step witness check: the id permutation,
/// the prefix-sum structure, the `s ∈ S` side buffers and the
/// certificate's bucket table, allocated once and refilled in place on
/// every walk step.
///
/// The check is **certify-first**, **support-sparse** and **prune-first**:
/// [`check`](Self::check) first tries to prove from an `O(n)` bucket
/// histogram that no grid size has a passing set, and returns `None`
/// without sorting when it can. Otherwise [`load`](Self::load) emits the
/// zero-mass ids in one `O(n)` pass and sorts only the support, and the
/// grid scan hands each size to [`SortedPrefix::best_window_below`], which
/// skips (by binary search, or the whole size in `O(1)`) every window too
/// light to pass. While `supp(p_t)` is a small ball a sorted step costs
/// `O(n + k log k)` for `k` nonzero entries plus a few windows per size,
/// instead of a full sort and `Θ(n)` windows per size. Every witness —
/// size, `l1` bits, node list — is identical to the unpruned scan over the
/// full `(value, id)` sort.
///
/// This is *the* witness evaluator of the repo: the solo oracle
/// ([`local_mixing_time`]), the blocked sweep ([`graph_local_mixing_time`]),
/// and the service cache replay (`lmt-service`, via
/// [`crate::profile::SourceCurve`]) all run the same [`scan`](Self::check)
/// over a `(value, id)`-sorted view of a distribution. The split entry
/// points exist so the cached path can skip the sort: [`load`](Self::load)
/// sorts a live distribution and exposes the sorted snapshot
/// ([`sorted_ids`](Self::sorted_ids) / [`sorted_vals`](Self::sorted_vals));
/// [`check_sorted`](Self::check_sorted) replays a stored snapshot through
/// the identical scan — bit-for-bit the witness `check` on the original
/// distribution returns, because the sorted view is a pure function of the
/// distribution. The curve cache ([`crate::profile::SourceCurve`]) stores
/// the same view without its zero run and replays it through the same
/// scan.
pub struct WitnessScratch {
    /// Node ids, `(value, id)`-sorted as of the last load.
    ids: Vec<u32>,
    sp: SortedPrefix,
    rest_ids: Vec<u32>,
    rest_sp: SortedPrefix,
    /// Node-indexed marks for rebuilding a zero run; all `false` between
    /// calls.
    mark: Vec<bool>,
    /// The certificate's nonempty buckets in value order, as of the last
    /// [`certify`](Self::certify); at most `BUCKETS + 3` entries.
    buckets: Vec<Bucket>,
    /// Windows evaluated by all scans so far.
    windows: u64,
    /// `check` calls answered by the certificate alone.
    certified: u64,
    /// Calls of `load`.
    sorts: u64,
}

/// Leading [`order_key`] bits that name a certificate bucket: the sign,
/// the 11 exponent bits and the top 8 mantissa bits, so 256 buckets per
/// binade, each spanning less than 0.4% of its values.
const BUCKET_KEY_BITS: u32 = 20;

/// The bottom of the certificate's binned range, `2⁻⁶⁴`. Positive entries
/// below it share one underflow bucket, which loosens each one's distance
/// to `c` by less than `2⁻⁶⁴`: under `2⁻³²` of any `c = 1/w` with `w < 2³²`.
const BUCKET_FLOOR: f64 = 1.0 / (1u128 << 64) as f64;

/// Binned slots of the certificate's table: the 72 binades from
/// [`BUCKET_FLOOR`] up to `2⁸`. Entries at or above `2⁸` share one overflow
/// bucket, and zeros have one of their own, so the table is `BUCKETS + 3`
/// slots of 24 bytes (≈ 432 KiB), whatever `n` is.
const BUCKETS: usize = 72 << (BUCKET_KEY_BITS - 12);

/// Count and exact value range of the entries in one certificate bucket,
/// the range as bit patterns: ordered like the values, as every entry is
/// `≥ +0.0` whenever a bucket is read (the zero bucket's ends are `±0.0`
/// either way).
#[derive(Clone, Copy)]
struct Bucket {
    count: u32,
    lo: u64,
    hi: u64,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        count: 0,
        lo: u64::MAX,
        hi: 0,
    };

    fn min(&self) -> f64 {
        f64::from_bits(self.lo)
    }

    fn max(&self) -> f64 {
        f64::from_bits(self.hi)
    }
}

/// `LB(w)` for `c = 1/w` (see [`WitnessScratch::check`]): the sum of the
/// `w` smallest per-entry distances `dist(c, [min, max])`, taken outward
/// from `c` over the value-ordered, disjoint `buckets` by two pointers; `+∞`
/// if they hold fewer than `w` entries.
fn lower_bound(buckets: &[Bucket], w: usize, c: f64) -> f64 {
    let mut lo = buckets.partition_point(|b| b.max() < c);
    let mut hi = lo;
    let mut need = w as u64;
    let mut lb = 0.0;
    while need > 0 {
        let below = lo
            .checked_sub(1)
            .map_or(f64::INFINITY, |i| c - buckets[i].max());
        let above = buckets
            .get(hi)
            .map_or(f64::INFINITY, |b| (b.min() - c).max(0.0));
        let (d, b) = if below < above {
            lo -= 1;
            (below, buckets[lo])
        } else if hi < buckets.len() {
            hi += 1;
            (above, buckets[hi - 1])
        } else {
            return f64::INFINITY;
        };
        let take = need.min(u64::from(b.count));
        lb += take as f64 * d;
        need -= take;
    }
    lb
}

/// Order-preserving map of a non-NaN `f64` to `u64`: `a < b` iff
/// `order_key(a) < order_key(b)`, negatives included, and `−0.0` maps to
/// the key of `+0.0` (the two compare equal). Positive values get the sign
/// bit set; negative values have all bits flipped, which reverses their
/// magnitude order and puts them below every non-negative key.
fn order_key(v: f64) -> u64 {
    let bits = (v + 0.0).to_bits(); // −0.0 + 0.0 = +0.0
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

impl WitnessScratch {
    /// Fresh buffers, pre-sized for `n`-node distributions.
    pub fn new(n: usize) -> Self {
        WitnessScratch {
            ids: Vec::with_capacity(n),
            sp: SortedPrefix::empty(),
            rest_ids: Vec::new(),
            rest_sp: SortedPrefix::empty(),
            mark: Vec::new(),
            buckets: Vec::new(),
            windows: 0,
            certified: 0,
            sorts: 0,
        }
    }

    /// Sort the ids of `p` by `(value, id)` and refill the prefix sums.
    ///
    /// The order is a pure function of `p`: exactly the historical stable
    /// sort of ascending ids by value. Zero entries (`±0.0`) tie with each
    /// other, so they form one id-ascending run, which a single `O(n)` pass
    /// emits directly. Only the nonzero entries are sorted, as packed
    /// `(order key << 32) | id` keys (`order_key`) with `sort_unstable`;
    /// the ids are unique, so that is the comparator's order exactly.
    /// Negative entries (not walk masses, but allowed) land before the zero
    /// run. The keys live only inside this call, and are freed before the
    /// prefix sums are filled from `p`, so the sort's 16 bytes per entry
    /// never coexist with the scan's buffers.
    ///
    /// # Panics
    /// Panics with "NaN probability" if `p` holds a NaN.
    pub fn load(&mut self, p: &[f64]) {
        self.sorts += 1;
        self.ids.clear();
        let mut keys = Vec::with_capacity(p.iter().filter(|&&v| v != 0.0).count());
        for (i, &v) in p.iter().enumerate() {
            if v == 0.0 {
                self.ids.push(i as u32);
            } else {
                assert!(!v.is_nan(), "NaN probability");
                keys.push(u128::from(order_key(v)) << 32 | i as u128);
            }
        }
        keys.sort_unstable();
        let zeros = self.ids.len();
        let zero_key = u128::from(order_key(0.0)) << 32;
        let neg = keys.partition_point(|&k| k < zero_key);
        self.ids.extend(keys.iter().map(|&k| k as u32));
        drop(keys);
        self.ids[..neg + zeros].rotate_left(zeros);
        self.sp
            .refill_sorted(self.ids.iter().map(|&i| p[i as usize]));
    }

    /// Load a stored `(value, id)`-sorted snapshot (as produced by
    /// [`load`](Self::load) and read back via [`sorted_ids`](Self::sorted_ids)
    /// / [`sorted_vals`](Self::sorted_vals)) without re-sorting.
    ///
    /// # Panics
    /// Panics if the slices disagree in length; debug builds also verify
    /// `vals` is ascending.
    pub fn load_sorted(&mut self, ids: &[u32], vals: &[f64]) {
        assert_eq!(ids.len(), vals.len(), "snapshot ids/vals length mismatch");
        self.ids.clear();
        self.ids.extend_from_slice(ids);
        self.sp.refill_sorted(vals.iter().copied());
    }

    /// Node ids of the last loaded distribution, sorted by `(value, id)`.
    /// Defined only after [`load`](Self::load) (or another loading entry
    /// point): a [`check`](Self::check) the certificate answers loads
    /// nothing and leaves the previous view in place.
    pub fn sorted_ids(&self) -> &[u32] {
        &self.ids
    }

    /// Values aligned with [`sorted_ids`](Self::sorted_ids)
    /// (`sorted_vals()[k] == p[sorted_ids()[k]]`, ascending), under the
    /// same condition.
    pub fn sorted_vals(&self) -> &[f64] {
        self.sp.values()
    }

    /// The existence check behind [`check_dist`], on borrowed buffers:
    /// the certificate, then, unless it answers, [`load`](Self::load) and
    /// the grid scan. A certified call returns `None` and leaves the sorted
    /// view unloaded (whatever the last load left).
    ///
    /// **The certificate.** One pass buckets every nonzero entry by the
    /// top 20 bits of its order key (the monotone `u64` image of a value
    /// that [`load`](Self::load) sorts by), keeping each bucket's count and
    /// exact min and max; the zeros form one more bucket at `0`. Keys are
    /// monotone, so the buckets are disjoint value ranges in value order.
    /// For a size `w` and `c = 1/w`, every entry `v` has
    /// `|v − c| ≥ dist(c, [min, max])` of its bucket, so every `w`-set has
    /// `Σ|v − c| ≥ LB(w)`, the sum of the `w` smallest such per-entry
    /// distances (`+∞` if `w > n`: no such set, and no window to scan). A
    /// set that must contain `s` is still a `w`-set, so the same bound
    /// covers `src`. A size is certified when the computed
    /// `LB(w) ≥ ε + M′`; the call is answered when every size is (stopping
    /// at the first that is not). Any call that is not answered runs
    /// exactly the uncertified code, so no witness can change.
    ///
    /// **The margin `M′`.** With `u = EPSILON/2`, `S = Σ|v|`, `C = w·c`
    /// and `X` the smallest exact `Σ|v − c|` over `w`-sets:
    /// * `LB(w)` is computed as one subtraction per bucket, one product
    ///   `count·d` per bucket and a recursive sum of at most `m ≤ n`
    ///   products, all nonnegative. Each computed distance is at most
    ///   `(1+u)` times its bucket's exact one, fl is monotone, and per side
    ///   of `c` the distances grow outward, so the two-pointer merge takes
    ///   the `w` smallest computed distances; hence
    ///   `LB̂ ≤ (1 + γ_{m+2})·X`. As `X ≤ S + C`, `X ≥ LB̂ − 1.02·(n+2)·u·(S+C)`.
    /// * A window value the scan computes is within
    ///   `E = 5.03·u·C + 3.01·u·S + 2.02·(2.03·n + 1.01)·u·S` of its exact
    ///   value ([`SortedPrefix::best_window_below`]'s margin derivation).
    ///   With `src`, the window is over the `n − 1` other entries and the
    ///   scan tests `fl(own + sum)` with `own = fl(|p_s − c|)`, which loses
    ///   at most `u·(S + C)` more before the final rounding; `ε` is a
    ///   float, so `fl(x) ≥ ε` whenever the real `x ≥ ε`.
    ///
    /// So every computed value the scan could test is `≥ ε` once
    /// `LB̂ ≥ ε + (5.2·n + 8.2)·u·(S + C)`. The certificate takes
    /// `M′ = 8·(n + 2)·EPSILON·(S + C + |ε|)`, the form of the scan's own
    /// margin `M`: that is `16·(n + 2)·u·(S + C + |ε|)`, over three times
    /// the need, which also absorbs the rounding of `M′`, of `ε + M′`
    /// (hence the `|ε|` term) and of `S`, taken as the bucket sum
    /// `Σ count·max ≥ S`. `ε` need not be positive, and a NaN `ε`
    /// certifies nothing.
    ///
    /// **Cost.** The table bins the fixed range `[2⁻⁶⁴, 2⁸)` (18 432 slots,
    /// ≈ 432 KiB, independent of `n`); the positive entries below and above
    /// it share an underflow and an overflow bucket, which keep their exact
    /// min and max, so the bound stays valid. Each size costs
    /// `O(log b + buckets touched)` for `b` nonempty buckets. When
    /// `|sizes|·b > n` the certificate gives up (a fixed rule that keeps
    /// [`SizeGrid::All`] from going quadratic), as it does on a negative,
    /// infinite or NaN entry.
    ///
    /// # Panics
    /// Panics with "NaN probability" if `p` holds a NaN, and if `src` is
    /// `Some(s)` with `s ≥ p.len()`.
    pub fn check(
        &mut self,
        p: &[f64],
        sizes: &[usize],
        eps: f64,
        src: Option<usize>,
    ) -> Option<Witness> {
        if let Some(s) = src {
            assert!(
                s < p.len(),
                "require_source: source missing from distribution"
            );
        }
        if self.certify(p, sizes, eps) {
            self.certified += 1;
            return None;
        }
        self.load(p);
        self.scan(sizes, eps, src)
    }

    /// Whether the certificate of [`check`](Self::check) proves that no
    /// size in `sizes` has a set below `eps` in `p`.
    fn certify(&mut self, p: &[f64], sizes: &[usize], eps: f64) -> bool {
        // For `v ≥ +0.0`, `order_key(v)` is `v.to_bits()` with the sign bit
        // set, so the bits name the same buckets, in the same order. Any
        // other bit pattern (a negative entry, `−∞` or a NaN) is above
        // `+∞`'s and lands in the overflow bucket.
        let shift = 64 - BUCKET_KEY_BITS;
        let floor = (BUCKET_FLOOR.to_bits() >> shift) as usize;
        let overflow = BUCKETS + 2;
        self.buckets.clear();
        self.buckets.resize(overflow + 1, Bucket::EMPTY);
        let mut tally = |bits: u64| {
            let binned = ((bits >> shift) as usize + 1)
                .saturating_sub(floor)
                .min(BUCKETS + 1)
                + 1;
            // Slot 0 holds the zeros of either sign, slot 1 the underflow;
            // a branch here would mispredict on a half-filled support.
            let b = &mut self.buckets[binned * usize::from(bits << 1 != 0)];
            b.count += 1;
            b.lo = b.lo.min(bits);
            b.hi = b.hi.max(bits);
        };
        // A walk's early steps are nearly all zeros, so an all-zero chunk
        // is counted whole (into slot 0, as `+0.0`).
        let mut zeros = 0;
        let mut chunks = p.chunks_exact(16);
        for chunk in &mut chunks {
            if chunk.iter().fold(0, |any, &v| any | v.to_bits() << 1) == 0 {
                zeros += 16;
            } else {
                chunk.iter().for_each(|&v| tally(v.to_bits()));
            }
        }
        chunks.remainder().iter().for_each(|&v| tally(v.to_bits()));
        if zeros > 0 {
            let b = &mut self.buckets[0];
            b.count += zeros;
            b.lo = 0; // `hi ≥ 0` already
        }
        if self.buckets[overflow].hi > f64::INFINITY.to_bits() {
            return false;
        }
        self.buckets.retain(|b| b.count > 0);
        let abs: f64 = self
            .buckets
            .iter()
            .map(|b| f64::from(b.count) * b.max())
            .sum();
        if !abs.is_finite() || sizes.len().saturating_mul(self.buckets.len()) > p.len() {
            return false;
        }
        let n = p.len() as f64;
        sizes.iter().all(|&w| {
            let c = 1.0 / w as f64;
            let margin = 8.0 * (n + 2.0) * f64::EPSILON * (abs + w as f64 * c + eps.abs());
            lower_bound(&self.buckets, w, c) >= eps + margin
        })
    }

    /// [`check`](Self::check) on a stored sorted snapshot: `load_sorted` +
    /// the same scan. Bit-for-bit equal to `check` on the distribution the
    /// snapshot was taken from.
    pub fn check_sorted(
        &mut self,
        ids: &[u32],
        vals: &[f64],
        sizes: &[usize],
        eps: f64,
        src: Option<usize>,
    ) -> Option<Witness> {
        self.load_sorted(ids, vals);
        self.scan(sizes, eps, src)
    }

    /// The loaded sorted view with its zero run cut out: the nonzero
    /// entries' ids and values, still `(value, id)`-ordered — the
    /// support-only snapshot [`check_support`](Self::check_support)
    /// replays.
    pub(crate) fn support_snapshot(&self) -> (Vec<u32>, Vec<f64>) {
        let vals = self.sp.values();
        let zeros = vals.partition_point(|&v| v < 0.0)..vals.partition_point(|&v| v <= 0.0);
        (
            [&self.ids[..zeros.start], &self.ids[zeros.end..]].concat(),
            [&vals[..zeros.start], &vals[zeros.end..]].concat(),
        )
    }

    /// [`check_sorted`](Self::check_sorted) on a **support-only** snapshot
    /// of an `n`-entry distribution: `ids` / `vals` are its nonzero entries
    /// in `(value, id)` order, as
    /// [`support_snapshot`](Self::support_snapshot) returns them. The zero
    /// run (every other id, ascending) goes back in where the values cross
    /// zero, as `+0.0`. The scan cannot tell a `−0.0` entry from `+0.0` (the prefix
    /// sums start at `+0.0` and never become `−0.0`, and `|·|` and the
    /// comparisons with `c = 1/R` agree on both), so the witness is
    /// bit-for-bit the one [`check`](Self::check) returns on the original
    /// distribution.
    ///
    /// # Panics
    /// Panics if the slices disagree in length or an id is `≥ n`.
    pub(crate) fn check_support(
        &mut self,
        n: usize,
        ids: &[u32],
        vals: &[f64],
        sizes: &[usize],
        eps: f64,
        src: Option<usize>,
    ) -> Option<Witness> {
        assert_eq!(ids.len(), vals.len(), "snapshot ids/vals length mismatch");
        let neg = vals.partition_point(|&v| v < 0.0);
        self.mark.resize(n, false);
        for &i in ids {
            self.mark[i as usize] = true;
        }
        self.ids.clear();
        self.ids.extend_from_slice(&ids[..neg]);
        self.ids
            .extend((0..n as u32).filter(|&i| !self.mark[i as usize]));
        self.ids.extend_from_slice(&ids[neg..]);
        for &i in ids {
            self.mark[i as usize] = false;
        }
        self.sp.refill_sorted(
            vals[..neg]
                .iter()
                .copied()
                .chain(std::iter::repeat_n(0.0, n - ids.len()))
                .chain(vals[neg..].iter().copied()),
        );
        self.scan(sizes, eps, src)
    }

    /// Windows evaluated by every scan of this scratch so far (cumulative;
    /// binary-search probes not counted) — a deterministic work counter
    /// for the pruned scan.
    pub fn windows_scanned(&self) -> u64 {
        self.windows
    }

    /// [`check`](Self::check) calls the certificate answered without a
    /// sort (cumulative) — a deterministic work counter.
    pub fn certified_steps(&self) -> u64 {
        self.certified
    }

    /// Support sorts run so far, one per [`load`](Self::load), including
    /// those of uncertified [`check`](Self::check) calls (cumulative).
    pub fn full_sorts(&self) -> u64 {
        self.sorts
    }

    /// The grid scan over the currently loaded sorted view. Reads values
    /// only through the sorted buffers, so the live-distribution and
    /// snapshot entry points share every instruction of the scan.
    ///
    /// Only the first passing size is reported, and a size's window search
    /// skips only windows that provably cannot pass
    /// ([`SortedPrefix::best_window_below`]), so the witness is the one the
    /// unpruned scan finds.
    fn scan(&mut self, sizes: &[usize], eps: f64, src: Option<usize>) -> Option<Witness> {
        match src {
            None => {
                for &r in sizes {
                    let c = 1.0 / r as f64;
                    let (best, scanned) = self.sp.best_window_below(r, c, eps);
                    self.windows += scanned as u64;
                    if let Some((lo, sum)) = best {
                        if sum < eps {
                            return Some(Witness {
                                size: r,
                                l1: sum,
                                nodes: self.ids[lo..lo + r].to_vec(),
                            });
                        }
                    }
                }
                None
            }
            Some(s) => {
                // Optimal set containing s = {s} ∪ best (R−1)-window of the
                // rest. `sorted_vals[k] == p[ids[k]]` exactly, so filtering
                // the aligned pairs reproduces the historical
                // `p[i as usize]` reads bit-for-bit.
                let pos = self
                    .ids
                    .iter()
                    .position(|&i| i as usize == s)
                    .expect("require_source: source missing from distribution");
                let ps = self.sp.values()[pos];
                self.rest_ids.clear();
                self.rest_ids
                    .extend(self.ids.iter().copied().filter(|&i| i as usize != s));
                self.rest_sp.refill_sorted(
                    self.ids
                        .iter()
                        .zip(self.sp.values())
                        .filter(|&(&i, _)| i as usize != s)
                        .map(|(_, &v)| v),
                );
                for &r in sizes {
                    let c = 1.0 / r as f64;
                    let own = (ps - c).abs();
                    let (lo, sum) = if r == 1 {
                        (0, 0.0)
                    } else {
                        // `own + sum < eps` needs `sum < eps − own`: windows
                        // provably at or above that bound cannot pass.
                        let (best, scanned) = self.rest_sp.best_window_below(r - 1, c, eps - own);
                        self.windows += scanned as u64;
                        match best {
                            Some(w) => w,
                            None => continue,
                        }
                    };
                    let total = own + sum;
                    if total < eps {
                        let mut nodes = self.rest_ids[lo..lo + (r - 1)].to_vec();
                        nodes.push(s as u32);
                        return Some(Witness {
                            size: r,
                            l1: total,
                            nodes,
                        });
                    }
                }
                None
            }
        }
    }
}

/// Existence check for one distribution: is there a set of an allowed size
/// whose restricted distance to flat is `< eps`? Returns the first witness
/// (smallest grid size) if so.
///
/// `src` is `Some(s)` to enforce `s ∈ S`.
///
/// One-shot convenience: allocates its working buffers per call. The
/// per-step loops in this module share one scratch across all steps (and,
/// in the graph-wide sweep, across all sources) instead.
pub fn check_dist(p: &Dist, sizes: &[usize], eps: f64, src: Option<usize>) -> Option<Witness> {
    WitnessScratch::new(p.n()).check(p.as_slice(), sizes, eps, src)
}

/// Ground-truth local mixing time for a **regular** graph (weight-regular
/// in the weighted case — see [`FlatPolicy`]).
///
/// Steps the exact `f64` distribution from the point mass at `src` on the
/// frontier-sparse engine ([`crate::engine`]) and runs the witness check
/// each step until one appears. Bit-for-bit the historical dense result.
///
/// # Panics
/// Panics on invalid options, an out-of-range source, or an isolated
/// source (the walk could never leave it).
pub fn local_mixing_time<G: WalkGraph + ?Sized>(
    g: &G,
    src: usize,
    opts: &LocalMixOptions,
) -> Result<LocalMixResult, LocalMixError> {
    opts.validate(g.n());
    crate::step::assert_source(g, src, "local_mixing_time");
    if opts.flat_policy == FlatPolicy::RequireRegular && g.flat_stationary().is_none() {
        return Err(LocalMixError::NotRegular);
    }
    let sizes = size_grid(g.n(), opts);
    let src_opt = opts.require_source.then_some(src);
    let mut ev = BlockEvolution::new(g, &[src], opts.kind);
    let mut scratch = WitnessScratch::new(g.n());
    for t in 0..=opts.max_t {
        if let Some(w) = scratch.check(ev.solo_lane(), &sizes, opts.eps, src_opt) {
            return Ok(LocalMixResult { tau: t, witness: w });
        }
        if t < opts.max_t {
            ev.step();
        }
    }
    Err(LocalMixError::NotMixedWithin(opts.max_t))
}

/// The local mixing time of the graph, `τ(β,ε) = max_v τ_v(β,ε)`
/// (Definition 2), by running every source — the quantity §1 footnote 6
/// prices at an O(n)-factor overhead.
///
/// Sources advance in blocks of [`SWEEP_BLOCK`] columns through one shared
/// CSR sweep per step ([`BlockEvolution`]); the size grid and the check
/// scratch are computed once and shared across all sources. Each source's
/// `τ` is bit-for-bit what a solo [`local_mixing_time`] call returns (its
/// column is retired the step its witness appears).
pub fn graph_local_mixing_time<G: WalkGraph + ?Sized>(
    g: &G,
    opts: &LocalMixOptions,
) -> Result<usize, LocalMixError> {
    let n = g.n();
    if n == 0 {
        return Ok(0);
    }
    opts.validate(n);
    crate::step::assert_source(g, 0, "local_mixing_time");
    if opts.flat_policy == FlatPolicy::RequireRegular && g.flat_stationary().is_none() {
        return Err(LocalMixError::NotRegular);
    }
    for s in 1..n {
        crate::step::assert_source(g, s, "local_mixing_time");
    }
    let sizes = size_grid(n, opts);
    let mut scratch = WitnessScratch::new(n);
    let mut lane = vec![0.0; n];
    let mut worst = 0;
    let all: Vec<usize> = (0..n).collect();
    for chunk in all.chunks(SWEEP_BLOCK) {
        let mut block = BlockEvolution::new(g, chunk, opts.kind);
        let mut lane_src: Vec<usize> = chunk.to_vec();
        for t in 0..=opts.max_t {
            let mut j = 0;
            while j < block.width() {
                block.copy_lane(j, &mut lane);
                let src_opt = opts.require_source.then_some(lane_src[j]);
                if scratch.check(&lane, &sizes, opts.eps, src_opt).is_some() {
                    worst = worst.max(t);
                    block.retire(j);
                    lane_src.swap_remove(j);
                } else {
                    j += 1;
                }
            }
            if block.width() == 0 {
                break;
            }
            if t == opts.max_t {
                return Err(LocalMixError::NotMixedWithin(opts.max_t));
            }
            block.step();
        }
    }
    Ok(worst)
}

/// The restricted-distance trace `t ↦ ‖p_tS − π_S‖₁` for a **fixed** set `S`
/// on a regular graph (flat target `1/|S|`).
pub fn restricted_trace<G: WalkGraph + ?Sized>(
    g: &G,
    src: usize,
    set: &[usize],
    kind: WalkKind,
    t_max: usize,
) -> Vec<f64> {
    assert!(!set.is_empty(), "restricted trace needs a non-empty set");
    crate::step::assert_source(g, src, "restricted_trace");
    let target = 1.0 / set.len() as f64;
    let mut out = Vec::with_capacity(t_max + 1);
    let mut ev = BlockEvolution::new(g, &[src], kind);
    for t in 0..=t_max {
        let p = ev.solo_lane();
        let d: f64 = set.iter().map(|&u| (p[u] - target).abs()).sum();
        out.push(d);
        if t < t_max {
            ev.step();
        }
    }
    out
}

/// Exponential brute force over **all** subsets of allowed sizes, valid for
/// arbitrary (including non-regular, weighted) graphs with `n ≤ 20`: the
/// acceptance test uses the true `π_S(v) = W(v)/µ(S)` target (unweighted:
/// `d(v)/µ(S)`).
///
/// Only the `s ∈ S` semantics of Definition 2 is offered (`require_source`
/// equivalent); used to validate the window oracle.
pub fn brute_force_local_mixing_time<G: WalkGraph + ?Sized>(
    g: &G,
    src: usize,
    beta: f64,
    eps: f64,
    kind: WalkKind,
    max_t: usize,
) -> Option<(usize, Vec<usize>)> {
    let n = g.n();
    assert!(n <= 20, "brute force limited to n ≤ 20");
    let r_min = min_size(n, beta);
    let mut p = Dist::point(n, src);
    for t in 0..=max_t {
        for mask in 0u32..(1 << n) {
            if mask >> src & 1 == 0 {
                continue;
            }
            let size = mask.count_ones() as usize;
            if size < r_min {
                continue;
            }
            let members: Vec<usize> = (0..n).filter(|&b| mask >> b & 1 == 1).collect();
            let mu: f64 = members.iter().map(|&u| g.walk_degree(u)).sum();
            if mu == 0.0 {
                continue;
            }
            let dist: f64 = members
                .iter()
                .map(|&u| (p.get(u) - g.walk_degree(u) / mu).abs())
                .sum();
            if dist < eps {
                return Some((t, members));
            }
        }
        if t < max_t {
            p = step(g, &p, kind);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmt_graph::gen;

    const EPS: f64 = 1.0 / (8.0 * std::f64::consts::E);

    fn opts(beta: f64) -> LocalMixOptions {
        LocalMixOptions::new(beta)
    }

    #[test]
    fn complete_graph_local_equals_global() {
        // §2.3(a): both are 1.
        let g = gen::complete(32);
        let r = local_mixing_time(&g, 0, &opts(4.0)).unwrap();
        assert_eq!(r.tau, 1);
    }

    #[test]
    fn barbell_locally_mixes_fast() {
        // §2.3(d): τ_s = O(1) on the β-barbell — the walk flattens inside the
        // source clique almost immediately, while global mixing needs Ω(β²).
        let (rg, _) = gen::ring_of_cliques_regular(4, 16);
        assert_eq!(lmt_graph::props::regularity(&rg), Some(15));
        let r = local_mixing_time(&rg, 3, &opts(4.0)).unwrap();
        assert!(r.tau <= 4, "expected O(1) local mixing, got {}", r.tau);
        assert!(r.witness.size >= 16);
    }

    #[test]
    fn nearly_regular_barbell_via_assume_flat() {
        // The paper's own Figure 1 graph: ports have degree k, interiors k−1.
        // AssumeFlat mirrors the paper's treatment and still finds O(1) τ_s.
        let (g, _) = gen::barbell(4, 16);
        let mut o = opts(4.0);
        o.flat_policy = FlatPolicy::AssumeFlat;
        let r = local_mixing_time(&g, 3, &o).unwrap();
        assert!(r.tau <= 4, "expected O(1) local mixing, got {}", r.tau);
    }

    #[test]
    fn beta_one_equals_global_mixing_time() {
        // §2.2: τ_s(1, ε) = τ_mix_s(ε).
        let g = gen::complete(16);
        let local = local_mixing_time(&g, 0, &opts(1.0)).unwrap().tau;
        let global = crate::mixing::mixing_time(&g, 0, EPS, WalkKind::Simple, 1000)
            .unwrap()
            .tau;
        assert_eq!(local, global);
    }

    #[test]
    fn monotone_in_beta() {
        // §2.3: β₁ ≥ β₂ ⇒ τ_s(β₁) ≤ τ_s(β₂). Strict monotonicity is a
        // property of the exact Definition 2 (all set sizes); the geometric
        // grid can violate it by a step (see tests/properties.rs).
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let all = |beta: f64| {
            let mut o = opts(beta);
            o.grid = SizeGrid::All;
            local_mixing_time(&g, 0, &o).unwrap().tau
        };
        let (t_beta4, t_beta2) = (all(4.0), all(2.0));
        assert!(t_beta4 <= t_beta2, "τ(β=4)={t_beta4} > τ(β=2)={t_beta2}");
    }

    #[test]
    fn oracle_matches_brute_force_on_small_regular_graph() {
        let g = gen::cycle(8);
        let mut o = opts(2.0);
        o.kind = WalkKind::Lazy;
        o.grid = SizeGrid::All;
        o.require_source = true;
        let fast = local_mixing_time(&g, 0, &o).unwrap().tau;
        let (brute, _) =
            brute_force_local_mixing_time(&g, 0, 2.0, o.eps, WalkKind::Lazy, 1000).unwrap();
        assert_eq!(fast, brute);
    }

    #[test]
    fn oracle_matches_brute_force_complete() {
        let g = gen::complete(8);
        let mut o = opts(2.0);
        o.grid = SizeGrid::All;
        o.require_source = true;
        let fast = local_mixing_time(&g, 3, &o).unwrap().tau;
        let (brute, _) =
            brute_force_local_mixing_time(&g, 3, 2.0, o.eps, WalkKind::Simple, 100).unwrap();
        assert_eq!(fast, brute);
    }

    #[test]
    fn geometric_grid_contains_bounds() {
        let o = opts(8.0);
        let sizes = size_grid(256, &o);
        assert_eq!(*sizes.first().unwrap(), 32);
        assert_eq!(*sizes.last().unwrap(), 256);
        for w in sizes.windows(2) {
            assert!(w[0] < w[1]);
        }
        let all = size_grid(
            16,
            &LocalMixOptions {
                grid: SizeGrid::All,
                ..opts(4.0)
            },
        );
        assert_eq!(all, (4..=16).collect::<Vec<_>>());
    }

    #[test]
    fn size_grid_tiny_eps_returns_every_size() {
        // `1 + 1e-17 == 1`: the geometric loop would never end.
        for eps in [1e-17, 1e-10] {
            let o = LocalMixOptions { eps, ..opts(2.0) };
            assert_eq!(size_grid(100, &o), (50..=100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn size_grid_shortcut_matches_loop() {
        // Wherever the loop is affordable, the `n·ε ≤ 1/2` shortcut and
        // the loop agree; the ε values straddle the shortcut's boundary.
        for n in [1, 2, 7, 100, 1000, 4096] {
            for beta in [1.0, 2.0, 3.5, 8.0] {
                let boundary = 0.5 / n as f64;
                for eps in [
                    1e-4,
                    2.5e-4,
                    boundary.next_down(),
                    boundary,
                    boundary.next_up(),
                    1e-3,
                ] {
                    let o = LocalMixOptions { eps, ..opts(beta) };
                    assert_eq!(
                        size_grid(n, &o),
                        geometric_sizes(min_size(n, beta), n, eps),
                        "n={n} β={beta} ε={eps}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_regular_rejected_by_window_oracle() {
        let g = gen::star(8);
        let err = local_mixing_time(&g, 0, &opts(2.0)).unwrap_err();
        assert_eq!(err, LocalMixError::NotRegular);
    }

    #[test]
    fn witness_nodes_are_distinct_and_sized() {
        let (g, _) = gen::ring_of_cliques_regular(3, 8);
        let r = local_mixing_time(&g, 0, &opts(3.0)).unwrap();
        let mut nodes = r.witness.nodes.clone();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), r.witness.size);
    }

    #[test]
    fn require_source_never_smaller_tau() {
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let free = local_mixing_time(&g, 5, &opts(4.0)).unwrap().tau;
        let mut o = opts(4.0);
        o.require_source = true;
        let constrained = local_mixing_time(&g, 5, &o).unwrap().tau;
        assert!(constrained >= free);
    }

    #[test]
    fn restricted_trace_hits_zero_distance_region() {
        let (g, spec) = gen::ring_of_cliques(4, 8);
        let set: Vec<usize> = spec.clique_nodes(0).collect();
        let trace = restricted_trace(&g, 1, &set, WalkKind::Simple, 20);
        // Initially far from flat (all mass on source).
        assert!(trace[0] > 1.0);
        // Quickly becomes small inside the source clique.
        let min = trace.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min < 0.3, "min restricted distance {min}");
    }

    #[test]
    fn weight_regular_graph_accepted_by_window_oracle() {
        // Uniform weights keep transition probabilities — and τ_s — exactly
        // equal to the unweighted graph's (the walk only sees ratios).
        let (topo, _) = gen::ring_of_cliques_regular(4, 8);
        let wg = gen::weighted::uniform_weights(topo.clone(), 2.5);
        let a = local_mixing_time(&topo, 0, &opts(4.0)).unwrap();
        let b = local_mixing_time(&wg, 0, &opts(4.0)).unwrap();
        assert_eq!(a.tau, b.tau);
        assert_eq!(a.witness.size, b.witness.size);
    }

    #[test]
    fn weight_irregular_rejected_without_assume_flat() {
        // A 1.25-weight bridge on k=16 cliques leaves walk degrees within
        // ~2% of flat: RequireRegular must reject (weight-regularity is
        // exact), AssumeFlat must still find the O(1) local mixing — the
        // same treatment the paper gives its nearly-regular Figure 1 graph.
        let (wg, _) = gen::weighted_ring_of_cliques_regular(4, 16, 1.25);
        let err = local_mixing_time(&wg, 3, &opts(4.0)).unwrap_err();
        assert_eq!(err, LocalMixError::NotRegular);
        let mut o = opts(4.0);
        o.flat_policy = FlatPolicy::AssumeFlat;
        let r = local_mixing_time(&wg, 3, &o).unwrap();
        assert!(r.tau <= 6, "expected fast local mixing, got {}", r.tau);
    }

    #[test]
    fn weighted_oracle_matches_brute_force() {
        // Weight-regular weighted cycle: window oracle (flat target) must
        // agree with the exponential brute force (true π_S target).
        let wg = gen::weighted::uniform_weights(gen::cycle(8), 3.0);
        let mut o = opts(2.0);
        o.kind = WalkKind::Lazy;
        o.grid = SizeGrid::All;
        o.require_source = true;
        let fast = local_mixing_time(&wg, 0, &o).unwrap().tau;
        let (brute, _) =
            brute_force_local_mixing_time(&wg, 0, 2.0, o.eps, WalkKind::Lazy, 1000).unwrap();
        assert_eq!(fast, brute);
    }

    #[test]
    #[should_panic(expected = "isolated node")]
    fn isolated_source_rejected() {
        let mut b = lmt_graph::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let _ = local_mixing_time(&g, 3, &opts(2.0));
    }

    #[test]
    fn graph_sweep_equals_per_source_sweep() {
        // n = 24 = 3 full blocks of 8; also run with require_source on so
        // the blocked sweep exercises the per-lane `s ∈ S` constraint.
        let (g, _) = gen::ring_of_cliques_regular(3, 8);
        for require_source in [false, true] {
            let mut o = opts(3.0);
            o.require_source = require_source;
            let blocked = graph_local_mixing_time(&g, &o).unwrap();
            let mut per_source = 0;
            for s in 0..g.n() {
                per_source = per_source.max(local_mixing_time(&g, s, &o).unwrap().tau);
            }
            assert_eq!(blocked, per_source, "require_source={require_source}");
        }
    }

    #[test]
    fn graph_sweep_propagates_not_regular() {
        let g = gen::star(8);
        let err = graph_local_mixing_time(&g, &opts(2.0)).unwrap_err();
        assert_eq!(err, LocalMixError::NotRegular);
    }

    /// The historical witness check: ids sorted by the `(value, id)`
    /// comparator, then every window of every size evaluated. The
    /// differential reference for the support-sparse `load` and the pruned
    /// scan; `window_abs_dev` evaluates a window with the expressions the
    /// scan uses (pinned bitwise in `lmt_util::order`).
    fn reference_check(
        p: &[f64],
        sizes: &[usize],
        eps: f64,
        src: Option<usize>,
    ) -> Option<Witness> {
        let mut ids: Vec<usize> = (0..p.len()).collect();
        ids.sort_by(|&a, &b| {
            p[a].partial_cmp(&p[b])
                .expect("NaN probability")
                .then(a.cmp(&b))
        });
        ids.retain(|&i| Some(i) != src);
        let sp = SortedPrefix::new(ids.iter().map(|&i| p[i]).collect());
        for &r in sizes {
            let c = 1.0 / r as f64;
            let w = if src.is_some() { r - 1 } else { r };
            let (lo, sum) = if w == 0 {
                (0, 0.0)
            } else if w > sp.len() {
                continue;
            } else {
                let mut best = (0, f64::INFINITY);
                for lo in 0..=sp.len() - w {
                    let v = sp.window_abs_dev(lo, lo + w, c);
                    if v < best.1 {
                        best = (lo, v);
                    }
                }
                best
            };
            let l1 = match src {
                Some(s) => (p[s] - c).abs() + sum,
                None => sum,
            };
            if l1 < eps {
                let nodes = ids[lo..lo + w].iter().chain(&src).map(|&i| i as u32);
                return Some(Witness {
                    size: r,
                    l1,
                    nodes: nodes.collect(),
                });
            }
        }
        None
    }

    /// `local_mixing_time` by dense steps and [`reference_check`].
    fn reference_tau<G: WalkGraph + ?Sized>(
        g: &G,
        src: usize,
        o: &LocalMixOptions,
    ) -> Result<(usize, Witness), LocalMixError> {
        let sizes = size_grid(g.n(), o);
        let mut p = Dist::point(g.n(), src);
        for t in 0..=o.max_t {
            if let Some(w) =
                reference_check(p.as_slice(), &sizes, o.eps, o.require_source.then_some(src))
            {
                return Ok((t, w));
            }
            p = step(g, &p, o.kind);
        }
        Err(LocalMixError::NotMixedWithin(o.max_t))
    }

    type Digest = Option<(usize, u64, Vec<u32>)>;

    fn digest(w: Option<Witness>) -> Digest {
        w.map(|w| (w.size, w.l1.to_bits(), w.nodes))
    }

    /// Distributions for the differential test: runs of `+0.0` and `−0.0`,
    /// values tied exactly at `1/r`, duplicates, and total mass 1 only up
    /// to rounding, or not 1 at all.
    fn witness_case() -> impl proptest::strategy::Strategy<Value = Vec<f64>> {
        use proptest::prelude::*;
        (
            proptest::collection::vec((0u32..6, 0.0f64..1.0), 1..36),
            0u32..4,
        )
            .prop_map(|(raw, scale)| {
                let n = raw.len();
                let mut p: Vec<f64> = raw
                    .iter()
                    .map(|&(kind, x)| match kind {
                        0 | 1 => 0.0,
                        2 => x / n as f64,
                        _ => x,
                    })
                    .collect();
                let total: f64 = p.iter().sum();
                let scale = [1.0, 1.0, 0.5, 2.5][scale as usize];
                if total > 0.0 {
                    p.iter_mut().for_each(|v| *v *= scale / total);
                }
                for (i, &(kind, x)) in raw.iter().enumerate() {
                    match kind {
                        1 if x < 0.3 => p[i] = -0.0,
                        4 if x < 0.3 => {
                            p[i] = 1.0 / (1 + (x * 10.0 * n as f64) as usize % n) as f64
                        }
                        5 if x < 0.2 => p[i] = p[(i + 1) % n],
                        _ => {}
                    }
                }
                p
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The certificate, then the pruned scan over the support-sparse
        /// sort, return exactly the reference witness — size, `l1` bits and
        /// nodes — for both `src` modes, both size grids, and thresholds `ε`
        /// placed exactly on, and one rounding either side of, achieved
        /// window values; every call the certificate answers is one the
        /// reference rejects.
        #[test]
        fn pruned_check_matches_full_reference(p in witness_case(), src in 0usize..36) {
            let n = p.len();
            let mut scratch = WitnessScratch::new(n);
            for grid in [SizeGrid::All, SizeGrid::Geometric] {
                for beta in [1.0, 2.0, 3.5, 8.0] {
                    let sizes = size_grid(n, &LocalMixOptions { grid, ..opts(beta) });
                    for src in [None, Some(src % n)] {
                        let mut eps = vec![EPS, 0.02, 0.3];
                        let mut e = 0.999;
                        for _ in 0..3 {
                            match reference_check(&p, &sizes, e, src) {
                                Some(w) => {
                                    eps.extend([w.l1, w.l1.next_up(), w.l1.next_down()]);
                                    e = w.l1;
                                }
                                None => break,
                            }
                        }
                        for eps in eps {
                            let want = digest(reference_check(&p, &sizes, eps, src));
                            let certified = scratch.certified_steps();
                            let got = digest(scratch.check(&p, &sizes, eps, src));
                            proptest::prop_assert!(
                                scratch.certified_steps() == certified || want.is_none(),
                                "{:?} β={} src={:?} ε={}: certified, but {:?}",
                                grid, beta, src, eps, want
                            );
                            proptest::prop_assert!(
                                got == want,
                                "{:?} β={} src={:?} ε={}: {:?} != {:?}",
                                grid, beta, src, eps, got, want
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_and_graph_sweep_match_full_reference() {
        let graphs = [
            gen::random_regular(24, 4, 3),
            gen::random_regular(32, 6, 5),
            gen::ring_of_cliques_regular(3, 6).0,
            gen::ring_of_expanders(3, 10, 4, 7, true),
        ];
        for g in &graphs {
            for grid in [SizeGrid::All, SizeGrid::Geometric] {
                for require_source in [false, true] {
                    for beta in [2.0, 4.0] {
                        let o = LocalMixOptions {
                            grid,
                            require_source,
                            kind: WalkKind::Lazy,
                            max_t: 150,
                            eps: 0.1,
                            flat_policy: FlatPolicy::AssumeFlat,
                            ..opts(beta)
                        };
                        let mut worst = Ok(0);
                        for s in 0..g.n() {
                            let want = reference_tau(g, s, &o);
                            if s % 3 == 0 {
                                let got = local_mixing_time(g, s, &o);
                                assert_eq!(
                                    got.map(|r| (r.tau, digest(Some(r.witness)))),
                                    want.clone().map(|(t, w)| (t, digest(Some(w)))),
                                    "source {s} {grid:?} require_source={require_source} β={beta}"
                                );
                            }
                            worst = match (worst, want) {
                                (Ok(a), Ok((b, _))) => Ok(a.max(b)),
                                (Err(e), _) | (_, Err(e)) => Err(e),
                            };
                        }
                        assert_eq!(graph_local_mixing_time(g, &o), worst);
                    }
                }
            }
        }
    }

    #[test]
    fn load_matches_comparator_sort() {
        let tiny = f64::from_bits(1); // smallest subnormal
        let cases: [&[f64]; 4] = [
            &[0.0, -0.0, 0.5, -0.0, 0.0, 0.5, 0.25],
            &[
                -1.5,
                0.0,
                tiny,
                -tiny,
                -0.0,
                2.0 * tiny,
                tiny,
                -1.5,
                f64::MIN_POSITIVE,
            ],
            &[3.0, -2.0, -2.0, 1e-300, -1e-300, 0.0, 7.0, 3.0, -0.0],
            &[0.1, 0.1, 0.1, 0.1],
        ];
        let mut scratch = WitnessScratch::new(0);
        for p in cases {
            scratch.load(p);
            let mut want: Vec<u32> = (0..p.len() as u32).collect();
            want.sort_by(|&a, &b| {
                p[a as usize]
                    .partial_cmp(&p[b as usize])
                    .unwrap()
                    .then(a.cmp(&b))
            });
            assert_eq!(scratch.sorted_ids(), &want[..], "{p:?}");
            let vals: Vec<u64> = scratch.sorted_vals().iter().map(|v| v.to_bits()).collect();
            let want_vals: Vec<u64> = want.iter().map(|&i| p[i as usize].to_bits()).collect();
            assert_eq!(vals, want_vals, "{p:?}");
        }
        let ascending = [
            f64::NEG_INFINITY,
            -1.5,
            -tiny,
            -0.0,
            0.0,
            tiny,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for w in ascending.windows(2) {
            let want = w[0].partial_cmp(&w[1]).unwrap();
            assert_eq!(order_key(w[0]).cmp(&order_key(w[1])), want, "{w:?}");
        }
        assert_eq!(order_key(-0.0), order_key(0.0));
    }

    #[test]
    #[should_panic(expected = "NaN probability")]
    fn load_rejects_nan() {
        WitnessScratch::new(3).load(&[0.5, f64::NAN, 0.5]);
    }

    #[test]
    fn pruned_scan_work_counter() {
        // One oracle query on a 2¹²-node expander, without and with the
        // `s ∈ S` constraint: the pruned scan evaluates a few hundred
        // windows where the unpruned scan of every inspected size evaluates
        // Σ (n − r + 1) ≈ 1.45 M, and the certificate answers some steps
        // without a sort (those scan nothing). The pinned counts — windows,
        // certified steps, support sorts — gate the work of both.
        let g = gen::random_regular(1 << 12, 8, 1);
        let n = g.n();
        for (require_source, pinned) in [(false, (315, 6, 7)), (true, (298, 6, 7))] {
            let o = LocalMixOptions {
                require_source,
                ..opts(8.0)
            };
            let sizes = size_grid(n, &o);
            let mut ev = BlockEvolution::new(&g, &[0], o.kind);
            let mut scratch = WitnessScratch::new(n);
            let mut unpruned = 0u64;
            let mut t = 0;
            let w = loop {
                let src_opt = require_source.then_some(0);
                let found = scratch.check(ev.solo_lane(), &sizes, o.eps, src_opt);
                let inspected = found.as_ref().map_or(sizes.len(), |w| {
                    sizes.iter().position(|&r| r == w.size).unwrap() + 1
                });
                unpruned += sizes[..inspected]
                    .iter()
                    .map(|&r| (n - r + 1) as u64)
                    .sum::<u64>();
                if let Some(w) = found {
                    break w;
                }
                ev.step();
                t += 1;
            };
            let oracle = local_mixing_time(&g, 0, &o).unwrap();
            assert_eq!(
                (t, digest(Some(w))),
                (oracle.tau, digest(Some(oracle.witness)))
            );
            let scanned = scratch.windows_scanned();
            assert_eq!(
                (scanned, scratch.certified_steps(), scratch.full_sorts()),
                pinned,
                "require_source={require_source}: pinned work counts"
            );
            assert_eq!(
                scratch.certified_steps() + scratch.full_sorts(),
                t as u64 + 1
            );
            assert!(
                scanned * 100 <= unpruned,
                "{scanned} windows scanned vs {unpruned} unpruned"
            );
        }
    }

    #[test]
    fn certificate_margin_covers_near_tie() {
        // 35 equal entries: one bucket with min = max, so the bucket bound
        // is exact. For the single size 35 the certificate's computed LB
        // exceeds the window value the scan computes from its prefix sums,
        // so with ε just above the scan's value a witness exists that an
        // unmargined certificate would deny. The same holds with `s ∈ S`.
        let p = vec![8.0_f64 / 245.0; 35];
        let bits = p[0].to_bits();
        let lb = lower_bound(
            &[Bucket {
                count: 35,
                lo: bits,
                hi: bits,
            }],
            35,
            1.0 / 35.0,
        );
        let sizes = [35];
        for src in [None, Some(7)] {
            let l1 = reference_check(&p, &sizes, 1.0, src).unwrap().l1;
            let eps = l1.next_up();
            assert!(
                lb >= eps,
                "src={src:?}: not a near tie, LB {lb} vs window {l1}"
            );
            let want = digest(reference_check(&p, &sizes, eps, src));
            assert!(want.is_some());
            let mut scratch = WitnessScratch::new(p.len());
            assert_eq!(
                digest(scratch.check(&p, &sizes, eps, src)),
                want,
                "src={src:?}"
            );
            assert_eq!(scratch.certified_steps(), 0);
        }
    }

    #[test]
    fn certificate_bounds_each_bucket_by_its_range() {
        // 64 distinct entries in one bucket, all below (then all above)
        // c = 1/64: each is at least c − max (min − c) from c, but in total
        // ≈ 2.4e-4 (9.6e-4) closer than the far end of the bucket would
        // claim. With ε just above the window's value a witness exists,
        // which a bound from the wrong end would deny.
        let c = 1.0 / 64.0;
        let sizes = [64];
        for scale in [0.5, 2.0] {
            let p: Vec<f64> = (0..64)
                .map(|i| scale * c * (1.0 + f64::from(i) / 65536.0))
                .collect();
            let mut scratch = WitnessScratch::new(p.len());
            assert!(!scratch.certify(&p, &sizes, 2.0));
            assert_eq!(scratch.buckets.len(), 1);
            for src in [None, Some(7)] {
                let eps = reference_check(&p, &sizes, 2.0, src).unwrap().l1.next_up();
                let want = digest(reference_check(&p, &sizes, eps, src));
                assert!(want.is_some());
                assert_eq!(
                    digest(scratch.check(&p, &sizes, eps, src)),
                    want,
                    "scale {scale} src={src:?}"
                );
            }
            assert_eq!(scratch.certified_steps(), 0);
        }
    }

    #[test]
    fn certificate_counts_every_entry() {
        // Zero runs long enough to be counted a chunk at a time, a `−0.0`
        // inside a mixed chunk, and a tail shorter than a chunk.
        let mut p = vec![0.0; 100];
        p[40] = 0.25;
        p[41] = -0.0;
        p[70] = 0.5;
        p[98] = 0.25;
        let mut scratch = WitnessScratch::new(p.len());
        assert!(!scratch.certify(&p, &[100], 2.0));
        let counts: Vec<u32> = scratch.buckets.iter().map(|b| b.count).collect();
        assert_eq!(counts, [97, 2, 1]);
        assert_eq!(scratch.buckets[0].min(), 0.0);
        assert_eq!(scratch.buckets[0].max(), 0.0);
    }

    #[test]
    fn scratch_reuse_matches_one_shot_check() {
        // Drive one scratch through several successive distributions and
        // compare against the allocating one-shot `check_dist` (which is
        // the historical per-step behavior): taus, witness sizes, l1s, and
        // node sets must all agree — including tie-heavy early steps where
        // most probabilities are exactly 0.0.
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let o = opts(4.0);
        let sizes = size_grid(g.n(), &o);
        let mut scratch = WitnessScratch::new(g.n());
        for src in [0usize, 13] {
            let mut p = Dist::point(g.n(), src);
            for _ in 0..6 {
                for src_opt in [None, Some(src)] {
                    let a = scratch.check(p.as_slice(), &sizes, o.eps, src_opt);
                    let b = check_dist(&p, &sizes, o.eps, src_opt);
                    match (a, b) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            assert_eq!(x.size, y.size);
                            assert_eq!(x.l1.to_bits(), y.l1.to_bits());
                            assert_eq!(x.nodes, y.nodes);
                        }
                        other => panic!("scratch/one-shot mismatch: {other:?}"),
                    }
                }
                p = step(&g, &p, o.kind);
            }
        }
    }
}
