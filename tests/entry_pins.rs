//! Literal bit pins of walk and flood entry points that no sweep golden
//! covers: an FNV-1a-64 digest over every value each call returns (`f64`s
//! by their bits, integers as little-endian `u64`s), in the style of
//! `crates/graph/tests/csr_pins.rs`.
//!
//! The values were recorded when the walks still had several public
//! stepping front ends (`Evolution`, `step::evolve`) and Algorithm 1 had
//! one wrapper function per substrate, so a change to the arithmetic
//! behind any entry point fails here directly.

use lmt_congest::flood::{FloodGraph, IncrementalFlood};
use lmt_congest::message::olog_budget;
use lmt_congest::EngineKind;
use lmt_util::fixed::{FixedQ, FixedScale};
use lmt_walks::local::LocalMixError;
use lmt_walks::mixing::MixingError;
use local_mixing_repro::prelude::*;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.eat(x.to_bits());
    }

    fn fs(&mut self, xs: &[f64]) {
        self.eat(xs.len() as u64);
        xs.iter().for_each(|&x| self.f(x));
    }

    /// Weight numerators and the scale's denominator (each as two `u64`
    /// halves), then the share width and the metrics.
    fn flood(&mut self, weights: &[FixedQ], scale: FixedScale, m: &Metrics) {
        self.eat(weights.len() as u64);
        for num in weights
            .iter()
            .map(|w| w.numerator())
            .chain([scale.denominator()])
        {
            self.eat(num as u64);
            self.eat((num >> 64) as u64);
        }
        let (width, edge) = (u64::from(scale.payload_bits()), u64::from(m.max_edge_bits));
        for x in [
            width,
            m.rounds,
            m.messages,
            m.bits,
            edge,
            m.dropped_messages,
            m.crashed_nodes,
        ] {
            self.eat(x);
        }
    }
}

const EPS: f64 = 1.0 / (8.0 * std::f64::consts::E);

/// Every exact-walk entry point from two sources under both walk kinds.
fn walk_digest<G: WalkGraph + ?Sized>(g: &G, flat: FlatPolicy) -> u64 {
    let mut h = Fnv::new();
    let n = g.n();
    for kind in [WalkKind::Simple, WalkKind::Lazy] {
        match graph_mixing_time(g, EPS, kind, 3000) {
            Ok(t) => h.eat(t as u64),
            Err(MixingError::NotMixedWithin(t)) => h.eat(!(t as u64)),
        }
        for src in [0, n / 3] {
            match mixing_time(g, src, EPS, kind, 3000) {
                Ok(r) => {
                    h.eat(r.tau as u64);
                    h.f(r.achieved);
                }
                Err(MixingError::NotMixedWithin(t)) => h.eat(!(t as u64)),
            }
            h.fs(&l1_trace(g, src, kind, 40));
            let set: Vec<usize> = (0..n).step_by(3).collect();
            h.fs(&restricted_trace(g, src, &set, kind, 40));
            for (beta, require_source) in [(2.0, false), (4.0, true)] {
                let mut o = LocalMixOptions::new(beta);
                o.kind = kind;
                o.max_t = 3000;
                o.require_source = require_source;
                o.flat_policy = flat;
                match local_mixing_time(g, src, &o) {
                    Ok(r) => {
                        h.eat(r.tau as u64);
                        h.eat(r.witness.size as u64);
                        h.f(r.witness.l1);
                        for &v in &r.witness.nodes {
                            h.eat(v as u64);
                        }
                    }
                    Err(LocalMixError::NotMixedWithin(t)) => h.eat(!(t as u64)),
                    Err(LocalMixError::NotRegular) => h.eat(u64::MAX),
                }
            }
        }
    }
    h.0
}

/// A ring of 4 cliques on 16 nodes (regular, so the window oracle applies).
fn unweighted() -> Graph {
    gen::ring_of_cliques_regular(4, 16).0
}

/// The same ring with weights in `[0.9, 1.1]`: near-flat, so
/// `FlatPolicy::AssumeFlat` still finds witnesses.
fn weighted() -> WeightedGraph {
    gen::weighted::random_weights(unweighted(), 0.9, 1.1, 0xA11)
}

#[test]
fn unweighted_walk_entry_points_pinned() {
    assert_eq!(
        walk_digest(&unweighted(), FlatPolicy::RequireRegular),
        0x569a_70a6_63cc_fe17
    );
}

#[test]
fn weighted_walk_entry_points_pinned() {
    assert_eq!(
        walk_digest(&weighted(), FlatPolicy::AssumeFlat),
        0xf355_d605_b03e_292a
    );
}

/// `estimate_flood` from two sources, both walk kinds and both engines.
fn flood_digest<G: FloodGraph + ?Sized>(g: &G) -> u64 {
    let mut h = Fnv::new();
    let n = g.n();
    for kind in [WalkKind::Simple, WalkKind::Lazy] {
        for engine in [EngineKind::Sequential, EngineKind::Parallel] {
            for (src, ell) in [(0, 0), (0, 9), (n / 2, 25)] {
                let (w, scale, m) = g
                    .estimate_flood(src, ell, 6, kind, olog_budget(n, 10), engine, 0xF100D)
                    .expect("flood");
                h.flood(&w, scale, &m);
            }
        }
    }
    h.0
}

#[test]
fn flood_on_graph_pinned() {
    assert_eq!(flood_digest(&unweighted()), 0x0bc7_5040_c855_893d);
}

#[test]
fn flood_on_weighted_graph_pinned() {
    assert_eq!(flood_digest(&weighted()), 0x7153_20a5_de89_49e5);
}

#[test]
fn flood_on_churned_graph_pinned() {
    let mut cg = ChurnGraph::new(unweighted());
    let mut swaps = SwapDrawer::new(0xC4);
    for _ in 0..12 {
        let edits = swaps.draw(cg.topology()).expect("room for 2-swaps");
        cg.apply(&edits).unwrap();
    }
    assert_eq!(flood_digest(&cg), 0x746f_6301_a8e0_5325);
}

#[test]
fn incremental_flood_pinned() {
    let g = unweighted();
    let mut h = Fnv::new();
    for kind in [WalkKind::Simple, WalkKind::Lazy] {
        // Two identical legs: the digest was recorded with one leg per
        // engine, before the flood stopped running on one.
        for _ in 0..2 {
            let mut inc = IncrementalFlood::new(&g, 7, 6, kind, olog_budget(g.n(), 10));
            for _ in 0..3 {
                for _ in 0..5 {
                    inc.advance();
                }
                h.eat(inc.ell());
                h.flood(&inc.weights(), inc.scale(), &inc.metrics());
            }
        }
    }
    assert_eq!(h.0, 0x102c_e8ae_a730_273d);
}

/// Algorithm 1 at `c = 2`, where many per-edge shares round to zero and are
/// not sent (the pins above run at `c = 6` on 16 nodes, where none may):
/// `estimate_flood` from three sources under both walk kinds.
fn silent_share_digest<G: FloodGraph + ?Sized>(g: &G) -> u64 {
    let mut h = Fnv::new();
    let n = g.n();
    for kind in [WalkKind::Simple, WalkKind::Lazy] {
        for (src, ell) in [(0, 1), (n / 2, 12), (n - 1, 40)] {
            let budget = olog_budget(n, 10);
            let (w, scale, m) = g
                .estimate_flood(src, ell, 2, kind, budget, EngineKind::Sequential, 5)
                .expect("flood");
            h.flood(&w, scale, &m);
        }
    }
    h.0
}

#[test]
fn flood_with_silent_shares_pinned() {
    let expander = gen::random_regular(512, 8, 3);
    assert_eq!(silent_share_digest(&expander), 0x28b7_c071_9e53_a609);
    assert_eq!(silent_share_digest(&gen::path(40)), 0x0983_5635_928e_39e9);
    let wg = gen::weighted::random_weights(gen::random_regular(256, 6, 9), 0.5, 3.0, 0xA1);
    assert_eq!(silent_share_digest(&wg), 0xc4e9_155f_6ac7_a59b);
}

#[test]
fn incremental_flood_with_silent_shares_pinned() {
    let mut h = Fnv::new();
    for g in [gen::random_regular(512, 8, 3), gen::path(40)] {
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            let mut inc = IncrementalFlood::new(&g, 1, 2, kind, olog_budget(g.n(), 10));
            for _ in 0..4 {
                for _ in 0..10 {
                    inc.advance();
                }
                h.eat(inc.ell());
                h.flood(&inc.weights(), inc.scale(), &inc.metrics());
            }
        }
    }
    assert_eq!(h.0, 0x96a2_4cf4_ea39_3b77);
}
