//! Literal byte pins of generated graphs: the FNV-1a-64 of the CSR offset
//! array followed by the neighbor array (both as little-endian `u32`s).
//! The values were recorded with the map-based `random_regular` and the
//! comparison-sort `GraphBuilder`, so any change to the bytes a generator
//! emits fails here directly, not only through a τ golden.
//!
//! The churned pin was recorded with the base-plus-delta `ChurnGraph`
//! and the sweep harness's inline swap drawer, so it also pins that
//! rebuilding each batch from the current CSR, and `SwapDrawer`, give the
//! same graph.
//!
//! The 2²⁰-node pin is the benchmark's `oracle-expander` graph; it takes
//! seconds in release and is `#[ignore]`d — run it with
//! `cargo test --release -p lmt-graph -- --ignored`.

use lmt_graph::{gen, ChurnGraph, EdgeEdit, Graph, SwapDrawer, WalkGraph};
use lmt_util::rng::stream_seed;

fn csr_fnv(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut offset = 0u32;
    eat(offset);
    for u in 0..g.n() {
        offset += g.degree(u) as u32;
        eat(offset);
    }
    for u in 0..g.n() {
        for &v in g.neighbors_raw(u) {
            eat(v);
        }
    }
    h
}

#[test]
fn random_regular_2_16_bytes_pinned() {
    let g = gen::random_regular(1 << 16, 8, stream_seed(1, 0));
    assert_eq!(csr_fnv(&g), 0x213d_3ab2_539f_5031);
}

#[test]
fn ring_of_expanders_bytes_pinned() {
    let g = gen::ring_of_expanders(32, 512, 8, 5, true);
    assert_eq!(csr_fnv(&g), 0xb3f0_5291_d9c3_8c6d);
}

#[test]
fn churned_ring_of_expanders_bytes_pinned() {
    // The 400 batches of the sweep harness's `swap(batches=400,seed=23)`
    // schedule, then one batch isolating node 7.
    let mut cg = ChurnGraph::new(gen::ring_of_expanders(32, 512, 8, 5, true));
    let mut swaps = SwapDrawer::new(23);
    for _ in 0..400 {
        let edits = swaps
            .draw(cg.topology())
            .expect("the ring has room for 2-swaps");
        cg.apply(&edits).unwrap();
    }
    let isolate: Vec<EdgeEdit> = cg
        .topology()
        .neighbors(7)
        .map(|v| EdgeEdit::delete(7, v))
        .collect();
    cg.apply(&isolate).unwrap();
    assert_eq!(cg.m(), 65_560);
    assert_eq!(csr_fnv(cg.topology()), 0x0fa1_03d8_9c31_0267);
}

#[test]
#[ignore = "2^20 nodes: run in release with --ignored"]
fn random_regular_2_20_benchmark_graph_bytes_pinned() {
    let g = gen::random_regular(1 << 20, 8, stream_seed(1, 0));
    assert_eq!(csr_fnv(&g), 0x7610_d829_f2a2_7c59);
}
