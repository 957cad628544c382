//! Property tests for the walk machinery: the oracle against brute force,
//! fixed-point error bounds, and distribution invariants.

use lmt_graph::{gen, props};
use lmt_walks::engine::evolve_block;
use lmt_walks::fixed_flood::{FixedWalk, Rounding};
use lmt_walks::local::{
    brute_force_local_mixing_time, check_dist, local_mixing_time, LocalMixOptions, SizeGrid,
};
use lmt_walks::mixing::mixing_time;
use lmt_walks::stationary::stationary;
use lmt_walks::step::{step, WalkKind};
use proptest::prelude::*;

const EPS: f64 = 1.0 / (8.0 * std::f64::consts::E);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sorted-window oracle equals the exponential brute force on small
    /// regular graphs (the core correctness claim of the oracle).
    #[test]
    fn window_oracle_equals_brute_force(k in 3usize..7, seed in any::<u64>(), src in 0usize..6) {
        // Random regular graph on ≤ 12 nodes (brute force territory).
        let n = 2 * k;
        let d = 3 + (seed % 2) as usize * 2; // 3 or 5, keeps n·d even
        prop_assume!(d < n);
        let g = gen::random_regular(n, d, seed);
        prop_assume!(props::is_connected(&g));
        prop_assume!(props::bipartition(&g).is_none());
        let src = src % n;
        let mut o = LocalMixOptions::new(2.0);
        o.grid = SizeGrid::All;
        o.require_source = true;
        o.max_t = 4000;
        let fast = local_mixing_time(&g, src, &o);
        let brute = brute_force_local_mixing_time(&g, src, 2.0, o.eps, WalkKind::Simple, 4000);
        match (fast, brute) {
            (Ok(f), Some((b, _))) => prop_assert_eq!(f.tau, b),
            (Err(_), None) => {}
            (f, b) => prop_assert!(false, "oracle/brute disagree: {:?} vs {:?}", f.map(|r| r.tau), b.map(|x| x.0)),
        }
    }

    /// Lemma 2-style error bound holds on arbitrary connected graphs for
    /// both rounding modes.
    #[test]
    fn fixed_flood_error_bounded(n in 4usize..20, p in 0.2f64..0.9, seed in any::<u64>(), steps in 1usize..60) {
        let g = gen::erdos_renyi(n, p, seed);
        prop_assume!(props::is_connected(&g));
        for rounding in [Rounding::Nearest, Rounding::Floor] {
            let mut fw = FixedWalk::new(&g, 0, 6, rounding, WalkKind::Simple);
            fw.run(&g, steps);
            let exact = evolve_block(&g, &[0], WalkKind::Simple, steps).remove(0);
            let est = fw.to_dist();
            // Floor mode loses at most 1 ulp per neighbor per step, i.e.
            // twice the nearest-mode per-share bound.
            let bound = 2.0 * fw.error_bound(&g) + 1e-12;
            for v in 0..n {
                prop_assert!((est.get(v) - exact.get(v)).abs() <= bound);
            }
        }
    }

    /// The stationary distribution is an exact fixed point on arbitrary
    /// connected graphs, and mixing (lazy) eventually reaches it.
    #[test]
    fn stationary_fixed_point_and_lazy_mixing(n in 4usize..24, p in 0.25f64..0.9, seed in any::<u64>()) {
        let g = gen::erdos_renyi(n, p, seed);
        prop_assume!(props::is_connected(&g));
        let pi = stationary(&g);
        let stepped = step(&g, &pi, WalkKind::Simple);
        prop_assert!(pi.l1_distance(&stepped) < 1e-10);
        let r = mixing_time(&g, 0, EPS, WalkKind::Lazy, 1 << 16);
        prop_assert!(r.is_ok(), "lazy walk must mix on connected graphs");
    }

    /// `check_dist` witnesses are genuine: re-evaluating the restricted
    /// distance of the returned set reproduces the reported L1 value.
    #[test]
    fn witness_self_consistent(n in 6usize..40, seed in any::<u64>()) {
        let n = n + n % 2;
        let g = gen::random_regular(n, 4, seed);
        prop_assume!(props::is_connected(&g));
        let p = evolve_block(&g, &[0], WalkKind::Lazy, 10).remove(0);
        let sizes: Vec<usize> = (n / 4..=n).collect();
        if let Some(w) = check_dist(&p, &sizes, 0.9, None) {
            let target = 1.0 / w.size as f64;
            let recomputed: f64 = w.nodes.iter().map(|&u| (p.get(u as usize) - target).abs()).sum();
            prop_assert!((recomputed - w.l1).abs() < 1e-9);
            prop_assert!(w.l1 < 0.9);
            prop_assert_eq!(w.nodes.len(), w.size);
        }
    }

    /// Empirical sampling converges: more walks ⇒ no worse L1 error to the
    /// exact distribution (statistically; we allow generous slack).
    #[test]
    fn sampler_concentrates(seed in any::<u64>()) {
        let g = gen::complete(12);
        let exact = evolve_block(&g, &[0], WalkKind::Simple, 3).remove(0);
        let few = lmt_walks::sampler::empirical_distribution(&g, 0, 3, 50, seed);
        let many = lmt_walks::sampler::empirical_distribution(&g, 0, 3, 20_000, seed);
        prop_assert!(many.l1_distance(&exact) < few.l1_distance(&exact) + 0.05);
        prop_assert!(many.l1_distance(&exact) < 0.1);
    }
}
