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
//! hold nearly all of it.
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
    /// is dropped in `O(1)`. Meant for small graphs and for cross-checking
    /// [`SizeGrid::Geometric`], which inspects only `O(log β / ε)` sizes.
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
    /// The member node ids.
    pub nodes: Vec<usize>,
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
                write!(f, "window oracle requires a regular graph (paper §3 assumption)")
            }
        }
    }
}

impl std::error::Error for LocalMixError {}

/// Build the list of candidate set sizes for `n` nodes under `opts`.
pub fn size_grid(n: usize, opts: &LocalMixOptions) -> Vec<usize> {
    let r_min = ((n as f64 / opts.beta).ceil() as usize).clamp(1, n);
    match opts.grid {
        SizeGrid::All => (r_min..=n).collect(),
        SizeGrid::Geometric => {
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
                r *= 1.0 + opts.eps;
            }
            sizes
        }
    }
}

/// Reusable buffers for the per-step witness check: the id permutation,
/// the packed sort keys, the prefix-sum structure, and the `s ∈ S` side
/// buffers, allocated once and refilled in place on every walk step.
///
/// The check is **support-sparse** and **prune-first**:
/// [`load`](Self::load) emits the zero-mass ids in one `O(n)` pass and
/// sorts only the support, and the grid scan hands each size to
/// [`SortedPrefix::best_window_below`], which skips (by binary search, or
/// the whole size in `O(1)`) every window too light to pass. While
/// `supp(p_t)` is a small ball a step costs `O(n + k log k)` for `k` nonzero
/// entries plus a few windows per size, instead of a full sort and
/// `Θ(n)` windows per size. Every witness — size, `l1` bits, node list —
/// is identical to the unpruned scan over the full `(value, id)` sort.
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
    /// `(order key << 32) | id` of each nonzero entry (see [`order_key`]).
    keys: Vec<u128>,
    sp: SortedPrefix,
    rest_ids: Vec<u32>,
    rest_sp: SortedPrefix,
    /// Node-indexed marks for rebuilding a zero run; all `false` between
    /// calls.
    mark: Vec<bool>,
    /// Windows evaluated by all scans so far.
    windows: u64,
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

/// Inverse of [`order_key`] (which is a bijection away from `−0.0`).
fn key_value(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

impl WitnessScratch {
    /// Fresh buffers, pre-sized for `n`-node distributions.
    pub fn new(n: usize) -> Self {
        WitnessScratch {
            ids: Vec::with_capacity(n),
            keys: Vec::new(),
            sp: SortedPrefix::empty(),
            rest_ids: Vec::with_capacity(n),
            rest_sp: SortedPrefix::empty(),
            mark: Vec::new(),
            windows: 0,
        }
    }

    /// Sort the ids of `p` by `(value, id)` and refill the prefix sums.
    ///
    /// The order is a pure function of `p`: exactly the historical stable
    /// sort of ascending ids by value. Zero entries (`±0.0`) tie with each
    /// other, so they form one id-ascending run, which a single `O(n)` pass
    /// emits directly. Only the nonzero entries are sorted, as packed
    /// `(order key, id)` pairs with `sort_unstable`; the ids are unique, so
    /// that is the comparator's order exactly. Negative entries (not walk
    /// masses, but allowed) land before the zero run.
    ///
    /// # Panics
    /// Panics with "NaN probability" if `p` holds a NaN.
    pub fn load(&mut self, p: &[f64]) {
        self.ids.clear();
        self.keys.clear();
        for (i, &v) in p.iter().enumerate() {
            if v == 0.0 {
                self.ids.push(i as u32);
            } else {
                assert!(!v.is_nan(), "NaN probability");
                self.keys.push(u128::from(order_key(v)) << 32 | i as u128);
            }
        }
        self.keys.sort_unstable();
        let zeros = self.ids.len();
        let zero_key = u128::from(order_key(0.0)) << 32;
        let neg = self.keys.partition_point(|&k| k < zero_key);
        self.ids.extend(self.keys.iter().map(|&k| k as u32));
        self.ids[..neg + zeros].rotate_left(zeros);
        let val = |&k: &u128| key_value((k >> 32) as u64);
        self.sp.refill_sorted(
            self.keys[..neg]
                .iter()
                .map(val)
                .chain(self.ids[neg..neg + zeros].iter().map(|&i| p[i as usize]))
                .chain(self.keys[neg..].iter().map(val)),
        );
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
    pub fn sorted_ids(&self) -> &[u32] {
        &self.ids
    }

    /// Values aligned with [`sorted_ids`](Self::sorted_ids)
    /// (`sorted_vals()[k] == p[sorted_ids()[k]]`, ascending).
    pub fn sorted_vals(&self) -> &[f64] {
        self.sp.values()
    }

    /// The existence check behind [`check_dist`], on borrowed buffers.
    pub fn check(
        &mut self,
        p: &[f64],
        sizes: &[usize],
        eps: f64,
        src: Option<usize>,
    ) -> Option<Witness> {
        self.load(p);
        self.scan(sizes, eps, src)
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
                            let nodes = self.ids[lo..lo + r].iter().map(|&i| i as usize).collect();
                            return Some(Witness {
                                size: r,
                                l1: sum,
                                nodes,
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
                        let mut nodes: Vec<usize> = self.rest_ids[lo..lo + (r - 1)]
                            .iter()
                            .map(|&i| i as usize)
                            .collect();
                        nodes.push(s);
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
    let r_min = ((n as f64 / beta).ceil() as usize).clamp(1, n);
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
        let all = size_grid(16, &LocalMixOptions {
            grid: SizeGrid::All,
            ..opts(4.0)
        });
        assert_eq!(all, (4..=16).collect::<Vec<_>>());
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
                let mut nodes = ids[lo..lo + w].to_vec();
                nodes.extend(src);
                return Some(Witness { size: r, l1, nodes });
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

    type Digest = Option<(usize, u64, Vec<usize>)>;

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

        /// The pruned scan over the support-sparse sort returns exactly the
        /// reference witness — size, `l1` bits and nodes — for both `src`
        /// modes, both size grids, and thresholds `ε` placed exactly on,
        /// and one rounding either side of, achieved window values.
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
                            let got = digest(scratch.check(&p, &sizes, eps, src));
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
        for v in [
            -1.5,
            -tiny,
            -0.0,
            0.0,
            tiny,
            1.0,
            f64::MAX,
            f64::NEG_INFINITY,
            f64::INFINITY,
        ] {
            assert_eq!(key_value(order_key(v)).to_bits(), (v + 0.0).to_bits());
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
        // Σ (n − r + 1) ≈ 1.45 M. The pinned counts gate the pruning's work.
        let g = gen::random_regular(1 << 12, 8, 1);
        let n = g.n();
        for (require_source, pinned) in [(false, 626), (true, 461)] {
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
                scanned, pinned,
                "require_source={require_source}: pinned window count"
            );
            assert!(
                scanned * 100 <= unpruned,
                "{scanned} windows scanned vs {unpruned} unpruned"
            );
        }
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
