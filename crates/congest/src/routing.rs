//! The engine's message plane: one sequential pass from outboxes to inboxes.
//!
//! Every round the engine moves each node's outbox into its neighbors'
//! inboxes while (a) enforcing the CONGEST per-edge bit budget and (b)
//! keeping the **inbox contract**: each inbox is sorted by sender id, and
//! one sender's messages appear in the order they were sent.
//!
//! An outbox is a plain `Vec<(destination, message)>`. The node-visit pass
//! (parallel under `EngineKind::Parallel`) leaves it in destination order
//! with [`normalize`], a stable sort, so each destination's messages form
//! one run in send order. [`Router::route`] then walks the senders in
//! ascending id order and appends each run to its destination's inbox:
//! ascending senders × in-order runs *is* the inbox contract. A run is one
//! directed edge's messages of the round, so the pass also checks the
//! destination against the sender's sorted adjacency (a send to a
//! non-neighbor panics, in every build), meters the run's bits against the
//! budget and makes the fault layer's decisions for it. The pass is
//! ordered, so the first violating run is the lexicographically smallest
//! `(from, to)` offender.
//!
//! Outbox and inbox buffers persist across rounds and are cleared, not
//! dropped, so steady-state rounds allocate nothing
//! (`Network::routing_alloc_events` observes this). A touched list keeps
//! the clearing of a quiet round's inboxes O(touched).

use crate::fault::FaultPlan;
use crate::message::Payload;
use lmt_graph::Graph;

/// Put an outbox in ascending destination order, keeping one destination's
/// messages in send order. Broadcasts (`Ctx::send_all` emits the sorted
/// adjacency) and single-destination sends are already in order and are
/// only checked.
pub(crate) fn normalize<M>(outbox: &mut [(u32, M)]) {
    if !outbox.is_sorted_by_key(|&(to, _)| to) {
        outbox.sort_by_key(|&(to, _)| to);
    }
}

/// Per-round delivery statistics.
#[derive(Default)]
pub(crate) struct RouteOutcome {
    /// Messages delivered (= messages sent, on a fault-free network).
    pub delivered: u64,
    /// Messages lost to the fault layer (random drops + crashed receivers).
    pub dropped: u64,
    /// Total bits across all directed edges (delivered messages only).
    pub bits: u64,
    /// Maximum bits on one directed edge (attempted, pre-drop: the CONGEST
    /// budget meters what senders load onto the edge).
    pub max_edge_bits: u32,
}

/// The first budget violation of a round: `(from, to, attempted bits)`.
pub(crate) type Violation = (u32, u32, u32);

/// The fault layer's view of one routing pass: the plan plus the *sending*
/// round (receivers read these messages in `round + 1`, which is the round
/// a crashed receiver is tested against).
#[derive(Clone, Copy)]
pub(crate) struct FaultCtx<'a> {
    /// The network's fault schedule.
    pub plan: &'a FaultPlan,
    /// Round in which the outboxes being routed were filled.
    pub round: u64,
}

/// The per-network router: one reusable inbox buffer per destination.
pub(crate) struct Router<M> {
    inboxes: Vec<Vec<(u32, M)>>,
    /// Destinations whose inbox the last route filled, so the next one
    /// clears only those.
    touched: Vec<u32>,
    /// Total outbox capacity at the last route, and capacity of `touched`:
    /// watermarks for counting growth.
    outbox_cap: usize,
    touched_cap: usize,
    /// Cumulative heap-growth events (see `Network::routing_alloc_events`).
    grew: u64,
}

impl<M: Payload> Router<M> {
    /// A router for `n` destinations.
    pub(crate) fn new(n: usize) -> Self {
        Router {
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            touched: Vec::new(),
            outbox_cap: 0,
            touched_cap: 0,
            grew: 0,
        }
    }

    /// Deliver every (normalized) outbox of `graph`'s nodes into the inbox
    /// arena and empty it, keeping its allocation.
    ///
    /// The budget is metered on *attempted* bits (the sender loaded the
    /// edge whether or not delivery succeeds); `bits` counts delivered
    /// payload only. Per run, a crashed receiver loses the whole run
    /// without a random draw; otherwise, if the plan drops messages, one
    /// `edge_rng(round, from, to)` decides each message in send order.
    /// On a violation the pass stops and its partial effects are
    /// meaningless: the network is not usable afterwards.
    ///
    /// # Panics
    /// Panics if a message is addressed to a non-neighbor of its sender.
    pub(crate) fn route(
        &mut self,
        graph: &Graph,
        outboxes: &mut [Vec<(u32, M)>],
        budget_bits: u32,
        fault: Option<FaultCtx<'_>>,
    ) -> Result<RouteOutcome, Violation> {
        for &v in &self.touched {
            self.inboxes[v as usize].clear();
        }
        self.touched.clear();
        let mut out = RouteOutcome::default();
        let mut outbox_cap = 0;
        for (u, outbox) in outboxes.iter_mut().enumerate() {
            outbox_cap += outbox.capacity();
            if outbox.is_empty() {
                continue;
            }
            let mut adj = graph.neighbors_raw(u).iter();
            let u = u as u32;
            for run in outbox.chunk_by(|a, b| a.0 == b.0) {
                let to = run[0].0;
                // Runs and adjacency both ascend, so one walk checks them all.
                assert!(
                    adj.any(|&v| v == to),
                    "message addressed to non-neighbor {to} of node {u}"
                );
                let mut dead = false;
                let mut drops = None;
                if let Some(f) = fault {
                    dead = f.plan.crashed_by(to as usize, f.round + 1);
                    if !dead && f.plan.drop_prob() > 0.0 {
                        drops = Some((f.plan, f.plan.edge_rng(f.round, u, to)));
                    }
                }
                let inbox = &mut self.inboxes[to as usize];
                let cap = inbox.capacity();
                let mut edge_bits = 0u32;
                for (_, msg) in run {
                    let bits = msg.encoded_bits();
                    edge_bits = edge_bits.saturating_add(bits);
                    let lost = dead || drops.as_mut().is_some_and(|(p, r)| p.drops(r));
                    if lost {
                        out.dropped += 1;
                        continue;
                    }
                    if inbox.is_empty() {
                        self.touched.push(to);
                    }
                    inbox.push((u, msg.clone()));
                    out.delivered += 1;
                    out.bits += u64::from(bits);
                }
                if inbox.capacity() != cap {
                    self.grew += 1;
                }
                if edge_bits > budget_bits {
                    return Err((u, to, edge_bits));
                }
                out.max_edge_bits = out.max_edge_bits.max(edge_bits);
            }
            outbox.clear();
        }
        for (seen, now) in [
            (&mut self.outbox_cap, outbox_cap),
            (&mut self.touched_cap, self.touched.capacity()),
        ] {
            if *seen != now {
                *seen = now;
                self.grew += 1;
            }
        }
        Ok(out)
    }

    /// Inbox of destination `v`, from the last `route` call.
    #[inline]
    pub(crate) fn inbox(&self, v: usize) -> &[(u32, M)] {
        &self.inboxes[v]
    }

    /// Cumulative heap-growth events of the inboxes, the touched list and
    /// (one per route in which any grew) the outboxes.
    pub(crate) fn alloc_events(&self) -> u64 {
        self.grew
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Counter, Ping};
    use lmt_graph::gen;

    fn outboxes<M>(n: usize) -> Vec<Vec<(u32, M)>> {
        (0..n).map(|_| Vec::new()).collect()
    }

    #[test]
    fn normalize_small_is_stable() {
        // Messages carry distinct widths so stability is observable.
        let mut ob: Vec<(u32, Counter)> = [(6u32, 10), (1, 11), (6, 12), (4, 13), (1, 14)]
            .into_iter()
            .map(|(to, w)| (to, Counter::new(0, w)))
            .collect();
        normalize(&mut ob);
        let flat: Vec<(u32, u32)> = ob.iter().map(|(t, c)| (*t, c.width)).collect();
        assert_eq!(flat, vec![(1, 11), (1, 14), (4, 13), (6, 10), (6, 12)]);
    }

    #[test]
    fn normalize_large_is_stable() {
        // Past std's small-slice insertion sort: 73 messages interleaved
        // over three destinations must keep their send order per
        // destination (an unstable sort fails this).
        let total = 73;
        let mut ob: Vec<(u32, Counter)> = (0..total)
            .map(|i| {
                (
                    [10, 20, 30][(total - 1 - i) % 3],
                    Counter::new(i as u64, 16),
                )
            })
            .collect();
        normalize(&mut ob);
        assert!(ob.is_sorted_by_key(|&(to, _)| to), "not sorted");
        for w in ob.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1.value < w[1].1.value, "not stable");
            }
        }
    }

    #[test]
    fn gather_observes_inbox_contract() {
        // Path 0–1–2: both ends message the middle; its inbox must be
        // sender-ascending although node 2 filled its outbox first.
        let g = gen::path(3);
        let mut obs = outboxes(3);
        obs[2].push((1, Ping));
        obs[0].push((1, Ping));
        let mut r: Router<Ping> = Router::new(3);
        let out = r.route(&g, &mut obs, 8, None).unwrap();
        assert_eq!(out.delivered, 2);
        let senders: Vec<u32> = r.inbox(1).iter().map(|(f, _)| *f).collect();
        assert_eq!(senders, vec![0, 2]);
        assert!(r.inbox(0).is_empty() && r.inbox(2).is_empty());
        assert!(obs.iter().all(Vec::is_empty), "routed outboxes are emptied");
    }

    #[test]
    fn crashed_receiver_drops_whole_run_and_meters_attempted_bits() {
        let g = gen::path(3);
        let mut obs = outboxes(3);
        obs[0].extend([(1, Ping), (1, Ping)]);
        obs[2].push((1, Ping));
        let plan = FaultPlan::new(3, 0).with_crash(1, 1);
        let mut r: Router<Ping> = Router::new(3);
        // Sends of round 0 are read in round 1, when node 1 is already dead.
        let out = r
            .route(
                &g,
                &mut obs,
                8,
                Some(FaultCtx {
                    plan: &plan,
                    round: 0,
                }),
            )
            .unwrap();
        assert_eq!(out.delivered, 0);
        assert_eq!(out.dropped, 3);
        assert_eq!(out.bits, 0, "no delivered payload");
        assert_eq!(out.max_edge_bits, 2, "budget meters attempted bits");
        assert!(r.inbox(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "message addressed to non-neighbor")]
    fn route_rejects_non_neighbor() {
        // Node 0 of the path 0–1–2 addresses node 2; the first run (to its
        // neighbor 1) is legal, the second is not.
        let g = gen::path(3);
        let mut obs = outboxes(3);
        obs[0].extend([(1, Ping), (2, Ping)]);
        let mut r: Router<Ping> = Router::new(3);
        let _ = r.route(&g, &mut obs, 8, None);
    }
}
