//! Deterministic, seedable fault injection for the CONGEST substrate.
//!
//! A [`FaultPlan`] describes two classic failure modes the model's clean
//! abstraction hides from the paper's §4 applications:
//!
//! * **Crash-stop nodes** — node `v` with crash round `r` executes no
//!   protocol step from round `r` on (with `r = 0` it never even runs
//!   `init`), sends nothing, and every message addressed to it from round
//!   `r` on is dropped. Crashes happen *between* rounds: a node alive in
//!   round `r − 1` still gets that round's sends delivered to others.
//! * **Message drops** — every directed-edge message is lost independently
//!   with probability `drop_prob`.
//!
//! Everything derives from one seed through the same
//! [`stream_seed`]/[`fork`] discipline as the rest of the workspace: the
//! drop decisions for directed edge `(from, to)` in round `t` come from the
//! RNG `fork(stream_seed(seed, t), from << 32 | to)`, drawn in message
//! order within the edge's per-round run. Routing is one sequential pass
//! whatever the engine, so the decisions are independent of the engine and
//! the pool width — Parallel ≡ Sequential stays bit-for-bit under faults
//! (`tests/determinism.rs`).
//!
//! A plan with no crashes and `drop_prob == 0` is *trivial*: the engine
//! takes exactly the fault-free code path for it, so zero-fault runs are
//! bit-identical to runs constructed without any plan (property-tested for
//! flood, BFS and gossip).

use lmt_util::rng::{fork, stream_seed};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// A deterministic fault schedule for an `n`-node network.
///
/// Built fluently: [`FaultPlan::new`] is fault-free; [`with_drop_prob`],
/// [`with_crash`] and [`with_random_crashes`] add faults.
///
/// [`with_drop_prob`]: FaultPlan::with_drop_prob
/// [`with_crash`]: FaultPlan::with_crash
/// [`with_random_crashes`]: FaultPlan::with_random_crashes
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_prob: f64,
    /// `crash_round[v] = Some(r)` ⇒ node `v` stops before executing round
    /// `r` (init counts as round 0).
    crash_round: Vec<Option<u64>>,
}

impl FaultPlan {
    /// A fault-free plan for `n` nodes rooted at `seed` (the seed only
    /// matters once drops are enabled).
    pub fn new(n: usize, seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            crash_round: vec![None; n],
        }
    }

    /// Drop every directed-edge message independently with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of [0,1]");
        self.drop_prob = p;
        self
    }

    /// Crash-stop `node` at the start of round `round` (it executes rounds
    /// `< round` only; `0` means it never runs `init`). An earlier crash
    /// for the same node wins.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn with_crash(mut self, node: usize, round: u64) -> Self {
        let slot = &mut self.crash_round[node];
        *slot = Some(slot.map_or(round, |r| r.min(round)));
        self
    }

    /// Crash `count` distinct nodes, chosen uniformly from the plan's seed
    /// (aux stream, so drop decisions are unaffected), all at `round`.
    ///
    /// # Panics
    /// Panics if `count` exceeds the node count.
    pub fn with_random_crashes(mut self, count: usize, round: u64) -> Self {
        let n = self.crash_round.len();
        assert!(count <= n, "cannot crash {count} of {n} nodes");
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut fork(self.seed, CRASH_PICK_STREAM));
        for &v in &ids[..count] {
            self = self.with_crash(v, round);
        }
        self
    }

    /// Number of nodes the plan covers.
    pub fn n(&self) -> usize {
        self.crash_round.len()
    }

    /// The plan's master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-message drop probability.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// `node`'s crash round, if it is scheduled to crash.
    pub fn crash_round(&self, node: usize) -> Option<u64> {
        self.crash_round[node]
    }

    /// True iff `node` does not execute round `round` (it crashed at or
    /// before it).
    #[inline]
    pub fn crashed_by(&self, node: usize, round: u64) -> bool {
        matches!(self.crash_round[node], Some(r) if r <= round)
    }

    /// Number of nodes crashed at or before `round`.
    pub fn crashed_count_by(&self, round: u64) -> u64 {
        self.crash_round
            .iter()
            .filter(|c| matches!(c, Some(r) if *r <= round))
            .count() as u64
    }

    /// True iff the plan injects no faults at all — the engine then takes
    /// the fault-free code path verbatim.
    pub fn is_trivial(&self) -> bool {
        self.drop_prob == 0.0 && self.crash_round.iter().all(Option::is_none)
    }

    /// The drop-decision RNG for directed edge `(from, to)` in round
    /// `round`: one uniform draw per message, in send order. Public so the
    /// gossip layer applies the identical discipline to its contact
    /// exchanges.
    #[inline]
    pub fn edge_rng(&self, round: u64, from: u32, to: u32) -> SmallRng {
        fork(
            stream_seed(self.seed, round),
            ((from as u64) << 32) | to as u64,
        )
    }

    /// One drop decision for the next message on `(from, to)`'s run: draw
    /// from `rng` and compare against the plan's drop probability.
    #[inline]
    pub fn drops(&self, rng: &mut SmallRng) -> bool {
        rng.gen::<f64>() < self.drop_prob
    }
}

/// Stream tag for the random-crash node pick, kept in the aux half of the
/// id space (high bit set) so it can never collide with a round stream.
const CRASH_PICK_STREAM: u64 = (1 << 63) | 0xFA;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_plan_detected() {
        let p = FaultPlan::new(8, 7);
        assert!(p.is_trivial());
        assert!(!p.clone().with_drop_prob(0.1).is_trivial());
        assert!(!p.with_crash(3, 5).is_trivial());
    }

    #[test]
    fn earlier_crash_wins() {
        let p = FaultPlan::new(4, 0).with_crash(2, 9).with_crash(2, 3);
        assert_eq!(p.crash_round(2), Some(3));
        assert!(p.crashed_by(2, 3));
        assert!(!p.crashed_by(2, 2));
        assert_eq!(p.crashed_count_by(2), 0);
        assert_eq!(p.crashed_count_by(3), 1);
    }

    #[test]
    fn random_crashes_are_distinct_and_seed_deterministic() {
        let a = FaultPlan::new(16, 5).with_random_crashes(6, 2);
        let b = FaultPlan::new(16, 5).with_random_crashes(6, 2);
        assert_eq!(a, b);
        assert_eq!(a.crashed_count_by(2), 6);
        let c = FaultPlan::new(16, 6).with_random_crashes(6, 2);
        assert_ne!(a, c, "different seeds should pick different victims");
    }

    #[test]
    fn edge_rng_streams_are_per_edge_and_per_round() {
        let p = FaultPlan::new(4, 11).with_drop_prob(0.5);
        let draw = |round, from, to| p.edge_rng(round, from, to).gen::<u64>();
        assert_eq!(draw(1, 0, 1), draw(1, 0, 1));
        assert_ne!(draw(1, 0, 1), draw(1, 1, 0));
        assert_ne!(draw(1, 0, 1), draw(2, 0, 1));
    }

    #[test]
    fn drop_rate_roughly_matches_probability() {
        let p = FaultPlan::new(2, 3).with_drop_prob(0.25);
        let mut rng = p.edge_rng(1, 0, 1);
        let dropped = (0..4000).filter(|_| p.drops(&mut rng)).count();
        assert!((800..1200).contains(&dropped), "dropped {dropped}/4000");
    }
}
