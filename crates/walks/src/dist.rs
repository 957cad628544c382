//! Dense probability distribution vectors over graph nodes.

use lmt_util::BitSet;

/// A dense probability (sub-)distribution over nodes `0..n`.
///
/// Invariants are *checked on demand* ([`Dist::check_mass`]) rather than on
/// every operation: restricted distributions (`p_tS` in the paper, §2.2) are
/// legitimately sub-stochastic.
#[derive(Clone, Debug, PartialEq)]
pub struct Dist {
    p: Vec<f64>,
}

impl Dist {
    /// The point distribution `p_0(s)`: all mass at `src`.
    pub fn point(n: usize, src: usize) -> Self {
        assert!(src < n, "point source {src} out of range n={n}");
        let mut p = vec![0.0; n];
        p[src] = 1.0;
        Dist { p }
    }

    /// Wrap a raw vector (caller asserts semantics).
    pub fn from_vec(p: Vec<f64>) -> Self {
        assert!(
            p.iter().all(|x| x.is_finite() && *x >= 0.0),
            "Dist entries must be finite and non-negative"
        );
        Dist { p }
    }

    /// The uniform distribution on `n` nodes.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "uniform distribution needs n > 0");
        Dist {
            p: vec![1.0 / n as f64; n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.p.len()
    }

    /// Probability at node `v`.
    #[inline]
    pub fn get(&self, v: usize) -> f64 {
        self.p[v]
    }

    /// Raw slice access.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.p
    }

    /// Consume into the raw vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.p
    }

    /// Total mass `Σ_v p(v)`.
    pub fn mass(&self) -> f64 {
        self.p.iter().sum()
    }

    /// Assert the mass is 1 up to `tol` (returns an error string otherwise).
    pub fn check_mass(&self, tol: f64) -> Result<(), String> {
        let m = self.mass();
        if (m - 1.0).abs() <= tol {
            Ok(())
        } else {
            Err(format!(
                "distribution mass {m} deviates from 1 by more than {tol}"
            ))
        }
    }

    /// L1 distance `‖p − q‖₁ = Σ_v |p(v) − q(v)|`.
    pub fn l1_distance(&self, other: &Dist) -> f64 {
        assert_eq!(self.n(), other.n(), "L1 distance: dimension mismatch");
        self.p
            .iter()
            .zip(&other.p)
            .map(|(a, b)| (a - b).abs())
            .sum()
    }

    /// L∞ distance `max_v |p(v) − q(v)|`.
    pub fn linf_distance(&self, other: &Dist) -> f64 {
        assert_eq!(self.n(), other.n(), "L∞ distance: dimension mismatch");
        self.p
            .iter()
            .zip(&other.p)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// The restriction `p_S` of §2.2: `p_S(v) = p(v)` for `v ∈ S`, else 0.
    /// Sub-stochastic in general.
    pub fn restrict(&self, s: &BitSet) -> Dist {
        assert_eq!(self.n(), s.capacity(), "restrict: dimension mismatch");
        let mut q = vec![0.0; self.n()];
        for v in s.iter() {
            q[v] = self.p[v];
        }
        Dist { p: q }
    }

    /// `Σ_{v∈S} p(v)`, the mass retained inside `S` (used by the Lemma 4
    /// leakage experiment).
    pub fn mass_on(&self, s: &BitSet) -> f64 {
        s.iter().map(|v| self.p[v]).sum()
    }

    /// Restricted L1 distance `‖p_S − q_S‖₁` without materializing copies.
    pub fn restricted_l1(&self, other: &Dist, s: &BitSet) -> f64 {
        assert_eq!(self.n(), other.n(), "restricted L1: dimension mismatch");
        s.iter().map(|v| (self.p[v] - other.p[v]).abs()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_mass() {
        let d = Dist::point(4, 2);
        assert_eq!(d.get(2), 1.0);
        assert_eq!(d.mass(), 1.0);
        assert!(d.check_mass(1e-12).is_ok());
    }

    #[test]
    fn uniform_mass() {
        let d = Dist::uniform(8);
        assert!((d.mass() - 1.0).abs() < 1e-12);
        assert!((d.get(3) - 0.125).abs() < 1e-15);
    }

    #[test]
    fn l1_and_linf() {
        let a = Dist::from_vec(vec![0.5, 0.5, 0.0]);
        let b = Dist::from_vec(vec![0.0, 0.5, 0.5]);
        assert!((a.l1_distance(&b) - 1.0).abs() < 1e-12);
        assert!((a.linf_distance(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.l1_distance(&a), 0.0);
    }

    #[test]
    fn restriction_is_substochastic() {
        let d = Dist::from_vec(vec![0.25, 0.25, 0.25, 0.25]);
        let mut s = BitSet::new(4);
        s.insert(1);
        s.insert(3);
        let r = d.restrict(&s);
        assert_eq!(r.get(0), 0.0);
        assert_eq!(r.get(1), 0.25);
        assert!((r.mass() - 0.5).abs() < 1e-12);
        assert!((d.mass_on(&s) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn restricted_l1_matches_materialized() {
        let a = Dist::from_vec(vec![0.7, 0.1, 0.2, 0.0]);
        let b = Dist::from_vec(vec![0.1, 0.3, 0.3, 0.3]);
        let mut s = BitSet::new(4);
        s.insert(0);
        s.insert(2);
        let direct = a.restricted_l1(&b, &s);
        let via = a.restrict(&s).l1_distance(&b.restrict(&s));
        assert!((direct - via).abs() < 1e-15);
    }

    #[test]
    fn check_mass_fails_on_sub() {
        let d = Dist::from_vec(vec![0.2, 0.2]);
        assert!(d.check_mass(1e-6).is_err());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rejected() {
        let _ = Dist::from_vec(vec![0.5, -0.5]);
    }
}
