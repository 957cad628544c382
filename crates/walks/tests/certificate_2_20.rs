//! The witness certificate at benchmark scale: one oracle query on the
//! 2²⁰-node, 8-regular expander of the `oracle-expander` workload (seed 1,
//! its first source). Every step before τ must be certified witness-free
//! from the bucket histogram, so the query runs exactly one support sort,
//! and the answer must match the workload's stored reference.
//!
//! Takes seconds in release and is `#[ignore]`d — run it with
//! `cargo test --release -p lmt-walks -- --ignored`.

use lmt_graph::gen;
use lmt_util::rng::{fork, stream_seed};
use lmt_walks::engine::BlockEvolution;
use lmt_walks::local::{local_mixing_time, size_grid, LocalMixOptions, WitnessScratch};
use rand::Rng;

#[test]
#[ignore = "2^20 nodes: run in release with --ignored"]
fn benchmark_query_sorts_once() {
    let n = 1 << 20;
    let g = gen::random_regular(n, 8, stream_seed(1, 0));
    let src = fork(stream_seed(1, 1), 0).gen_range(0..n);
    assert_eq!(src, 221_983);
    let o = LocalMixOptions::new(8.0);
    let sizes = size_grid(n, &o);
    let mut ev = BlockEvolution::new(&g, &[src], o.kind);
    let mut scratch = WitnessScratch::new(n);
    let mut t = 0;
    let w = loop {
        if let Some(w) = scratch.check(ev.solo_lane(), &sizes, o.eps, None) {
            break w;
        }
        ev.step();
        t += 1;
    };
    assert_eq!(
        (t, scratch.full_sorts(), scratch.certified_steps()),
        (17, 1, 17)
    );
    assert_eq!(w.size, 1_036_764);
    assert_eq!(w.l1.to_bits(), 0.034_135_481_885_566_31_f64.to_bits());
    let oracle = local_mixing_time(&g, src, &o).unwrap();
    assert_eq!(
        (
            oracle.tau,
            oracle.witness.size,
            oracle.witness.l1.to_bits(),
            oracle.witness.nodes
        ),
        (t, w.size, w.l1.to_bits(), w.nodes)
    );
}
