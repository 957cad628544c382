//! Cuts, volumes, and conductance `φ(S)` (Definition in §2.2 of the paper).
//!
//! `φ(S) = |E(S, V∖S)| / min{µ(S), µ(V∖S)}`, with `µ(S) = Σ_{v∈S} d(v)`.
//!
//! Lemma 4 of the paper rests on the assumption `τ_s(β,ε)·φ(S) = o(1)` for
//! the local mixing set `S`; experiment T11 measures exactly this product on
//! discovered sets. The exhaustive minimum conductance here is exponential
//! and reserved for tiny test graphs; sweep-cut approximations live in
//! `lmt-spectral`.

use crate::Graph;
use lmt_util::BitSet;

/// Volume `µ(S) = Σ_{v∈S} d(v)` of a set given as a membership bitset.
pub fn volume(g: &Graph, s: &BitSet) -> usize {
    s.iter().map(|u| g.degree(u)).sum()
}

/// Number of edges crossing the cut `(S, V∖S)`.
pub fn cut_size(g: &Graph, s: &BitSet) -> usize {
    let mut cut = 0;
    for u in s.iter() {
        for v in g.neighbors(u) {
            if !s.contains(v) {
                cut += 1;
            }
        }
    }
    cut
}

/// Conductance `φ(S)`; `None` when the denominator is zero (empty or full
/// volume side).
pub fn conductance(g: &Graph, s: &BitSet) -> Option<f64> {
    let vol_s = volume(g, s);
    let vol_rest = g.total_volume() - vol_s;
    let denom = vol_s.min(vol_rest);
    if denom == 0 {
        return None;
    }
    Some(cut_size(g, s) as f64 / denom as f64)
}

/// Convenience: conductance of a set given as a slice of node ids.
pub fn conductance_of_nodes(g: &Graph, nodes: &[usize]) -> Option<f64> {
    let mut s = BitSet::new(g.n());
    for &u in nodes {
        s.insert(u);
    }
    conductance(g, &s)
}

/// Exhaustive minimum conductance over all non-trivial subsets.
///
/// `O(2^n·m)`: only for tiny graphs (n ≤ 22 enforced). Returns the minimizing
/// set and its conductance. Used to validate sweep-cut heuristics and the
/// Cheeger-bound checks in `lmt-spectral`.
pub fn min_conductance_exhaustive(g: &Graph) -> Option<(Vec<usize>, f64)> {
    let n = g.n();
    assert!(
        n <= 22,
        "exhaustive conductance limited to n ≤ 22 (got {n})"
    );
    if n < 2 {
        return None;
    }
    let mut best: Option<(u64, f64)> = None;
    // Fix node 0 out of S to halve the search (φ(S) = φ(V∖S)).
    for mask in 1u64..(1 << (n - 1)) {
        let mut s = BitSet::new(n);
        for b in 0..(n - 1) {
            if mask >> b & 1 == 1 {
                s.insert(b + 1);
            }
        }
        if let Some(phi) = conductance(g, &s) {
            if best.is_none_or(|(_, b)| phi < b) {
                best = Some((mask, phi));
            }
        }
    }
    best.map(|(mask, phi)| {
        let nodes: Vec<usize> = (0..n - 1)
            .filter(|b| mask >> b & 1 == 1)
            .map(|b| b + 1)
            .collect();
        (nodes, phi)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn set_of(g: &Graph, nodes: &[usize]) -> BitSet {
        let mut s = BitSet::new(g.n());
        for &u in nodes {
            s.insert(u);
        }
        s
    }

    #[test]
    fn volume_and_cut_on_path() {
        let g = gen::path(4); // degrees 1,2,2,1
        let s = set_of(&g, &[0, 1]);
        assert_eq!(volume(&g, &s), 3);
        assert_eq!(cut_size(&g, &s), 1);
        assert_eq!(conductance(&g, &s), Some(1.0 / 3.0));
    }

    #[test]
    fn conductance_symmetry() {
        let g = gen::cycle(6);
        let s = set_of(&g, &[0, 1, 2]);
        let comp = set_of(&g, &[3, 4, 5]);
        assert_eq!(conductance(&g, &s), conductance(&g, &comp));
    }

    #[test]
    fn degenerate_sets_none() {
        let g = gen::complete(4);
        assert_eq!(conductance(&g, &BitSet::new(4)), None);
        assert_eq!(conductance(&g, &BitSet::full(4)), None);
    }

    #[test]
    fn complete_graph_half_cut() {
        let g = gen::complete(4);
        // S = {0,1}: cut = 4, vol(S) = 6 → φ = 2/3.
        let phi = conductance_of_nodes(&g, &[0, 1]).unwrap();
        assert!((phi - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn exhaustive_finds_barbell_bridge() {
        let (g, spec) = gen::barbell(2, 5);
        let (set, phi) = min_conductance_exhaustive(&g).unwrap();
        // The bridge is the min cut: one crossing edge over volume of one clique.
        let clique_vol: usize = spec.clique_nodes(1).map(|u| g.degree(u)).sum();
        assert!((phi - 1.0 / clique_vol as f64).abs() < 1e-12, "phi={phi}");
        assert_eq!(set.len(), 5, "min cut isolates one clique");
    }

    #[test]
    fn exhaustive_matches_known_cycle_value() {
        // Cycle C_6: min conductance cut is any arc of 3 nodes: cut 2, vol 6.
        let g = gen::cycle(6);
        let (_, phi) = min_conductance_exhaustive(&g).unwrap();
        assert!((phi - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "n ≤ 22")]
    fn exhaustive_size_guard() {
        let g = gen::cycle(30);
        let _ = min_conductance_exhaustive(&g);
    }
}
