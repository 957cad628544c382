//! The engine's message plane: arena-backed, allocation-free routing.
//!
//! Every round the engine must move each node's outbox into its neighbors'
//! inboxes while (a) enforcing the CONGEST per-edge bit budget and (b)
//! preserving the **inbox contract**: each inbox is sorted by sender id,
//! and a given sender's messages appear in the order they were sent. The
//! original implementation re-allocated every outbox via `std::mem::take`
//! and comparison-sorted it by destination, every round, on one thread.
//! This module replaces that with:
//!
//! * **Reusable arenas** — [`Outbox`] buffers, normalization scratch, and
//!   the per-destination inbox buffers ([`Shard`]) are allocated once per
//!   `Network` and *cleared, not dropped*, so steady-state rounds perform
//!   no message-plane heap allocations. Growth is observable through
//!   `Network::routing_alloc_events`, which the regression suite pins flat
//!   for warmed-up runs.
//! * **A sorted-outbox fast path** — [`Outbox`] tracks incrementally
//!   whether pushes arrived in ascending destination order.
//!   `Ctx::send_all` emits neighbors in ascending adjacency order, so
//!   protocols that only broadcast or send to a single destination per
//!   round — BFS beacons, Algorithm 1 flooding — never pay any sorting at
//!   all.
//! * **Cheap normalization instead of a per-round comparison sort** — an
//!   outbox that *did* interleave destinations is restored by an in-place
//!   stable insertion sort when small, or by a stable counting pass keyed
//!   on the sender's adjacency index (degree-indexed buckets; destinations
//!   of a legal send are always neighbors) when large — both
//!   allocation-free, unlike `sort_by_key`'s merge scratch.
//! * **Destination-sharded parallel delivery** — once outboxes are
//!   destination-sorted, the messages bound for a destination range
//!   `[a, b)` form one contiguous run-sequence per sender, located with a
//!   single binary search. Each [`Shard`] owns a contiguous destination
//!   range and scans senders in ascending id order, appending each run to
//!   the receiving inbox — which *is* the inbox contract, with no sort and
//!   no comparison beyond run boundaries. Distinct destinations touch
//!   disjoint state, so shards execute concurrently on the `rayon` shim's
//!   thread pool. Shard boundaries are invisible in the output: each
//!   inbox's content is fully determined by `(outboxes, graph)`, and the
//!   per-shard metrics merge with commutative operations (`+`, `max`,
//!   lexicographic-min violation), so Parallel ≡ Sequential stays
//!   bit-for-bit at every pool width (`tests/determinism.rs`).
//!
//! Budget enforcement rides along with delivery: within a sorted outbox,
//! one destination's run *is* the per-directed-edge message group whose
//! bits the model meters. On a violation the round's metrics are discarded
//! and the lexicographically smallest `(from, to)` offender is reported —
//! the same edge the old sender-major scan reported first.

use crate::fault::FaultPlan;
use crate::message::Payload;
use rayon::prelude::*;

/// Minimum destinations per routing shard: below this, shard bookkeeping
/// outweighs the gather work and routing runs single-sharded (inline).
const ROUTE_MIN_SHARD: usize = 256;

/// Outboxes up to this many messages normalize by in-place insertion sort;
/// larger ones (think max-degree hubs) use the counting pass instead.
const INSERTION_MAX: usize = 64;

/// A node's outgoing message buffer for the current round.
///
/// Tracks, incrementally, whether messages were pushed in ascending
/// destination order (`sorted`); [`Outbox::normalize`] restores that order
/// with a stable, allocation-free pass when they were not. All buffers —
/// the message buffer and the large-outbox scratch — persist across
/// rounds.
pub(crate) struct Outbox<M> {
    /// `(destination, message)` in send order until normalized.
    buf: Vec<(u32, M)>,
    /// True iff `buf` is non-descending by destination (vacuously true when
    /// empty). Maintained by [`Outbox::push`]; restored by `normalize`.
    sorted: bool,
    /// Counting-path scratch, boxed so the common (never-unsorted-large)
    /// outbox stays small — the router's active scan strides over these.
    scratch: Option<Box<Scratch<M>>>,
    /// Capacity watermark of `buf` at the last [`Outbox::clear`].
    buf_cap: usize,
    /// Cumulative heap-growth events (see `Network::routing_alloc_events`).
    grew: u64,
}

/// Reusable buffers for the large-outbox counting sort.
struct Scratch<M> {
    /// Adjacency-index key of each message.
    keys: Vec<u32>,
    /// Per-adjacency-slot counts, then scatter cursors.
    counts: Vec<u32>,
    /// Stable-scatter target (`Option` so no `unsafe` is needed).
    slots: Vec<Option<(u32, M)>>,
}

impl<M: Payload> Outbox<M> {
    pub(crate) fn new() -> Self {
        Outbox {
            buf: Vec::new(),
            sorted: true,
            scratch: None,
            buf_cap: 0,
            grew: 0,
        }
    }

    /// Queue one message. O(1); one destination comparison maintains the
    /// sorted-order flag.
    #[inline]
    pub(crate) fn push(&mut self, to: u32, msg: M) {
        if let Some(&(last, _)) = self.buf.last() {
            if to < last {
                self.sorted = false;
            }
        }
        self.buf.push((to, msg));
    }

    /// Queue one copy of `msg` per destination in `dests` (a node's sorted
    /// adjacency slice). The broadcast fast path: only the first
    /// destination needs comparing against the buffer tail.
    #[inline]
    pub(crate) fn extend_broadcast(&mut self, dests: &[u32], msg: M) {
        if let (Some(&(last, _)), Some(&first)) = (self.buf.last(), dests.first()) {
            if first < last {
                self.sorted = false;
            }
        }
        self.buf.extend(dests.iter().map(|&v| (v, msg.clone())));
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// The normalized (destination-sorted) message sequence.
    #[inline]
    fn as_slice(&self) -> &[(u32, M)] {
        debug_assert!(self.sorted, "outbox read before normalization");
        &self.buf
    }

    /// Restore ascending-destination order (stable) if pushes interleaved
    /// destinations. `adj` is the sending node's sorted adjacency slice.
    ///
    /// Small outboxes sort in place by stable insertion (the common case:
    /// a handful of per-neighbor sends); large ones take a counting pass —
    /// destinations map to their index in `adj` (binary search), per-slot
    /// counts prefix-sum into degree-indexed bucket offsets, and one
    /// stable scatter through reusable scratch re-orders `buf`. Neither
    /// path allocates in steady state.
    ///
    /// # Panics
    /// May panic if a message is addressed to a non-neighbor — a protocol
    /// contract violation (see `Ctx::send`).
    pub(crate) fn normalize(&mut self, adj: &[u32]) {
        if self.sorted {
            return;
        }
        let m = self.buf.len();
        if m <= INSERTION_MAX {
            // Stable: only strictly-descending pairs swap.
            for i in 1..m {
                let mut j = i;
                while j > 0 && self.buf[j - 1].0 > self.buf[j].0 {
                    self.buf.swap(j - 1, j);
                    j -= 1;
                }
            }
            self.sorted = true;
            return;
        }
        let d = adj.len();
        let grew = &mut self.grew;
        let s = self.scratch.get_or_insert_with(|| {
            *grew += 1;
            Box::new(Scratch {
                keys: Vec::new(),
                counts: Vec::new(),
                slots: Vec::new(),
            })
        });
        s.keys.clear();
        grow_to(&mut s.counts, d, 0, grew);
        s.counts[..d].fill(0);
        for (to, _) in &self.buf {
            let k = adj.partition_point(|&x| x < *to);
            assert!(
                k < d && adj[k] == *to,
                "message addressed to non-neighbor {to}"
            );
            if s.keys.capacity() == s.keys.len() {
                *grew += 1;
            }
            s.keys.push(k as u32);
            s.counts[k] += 1;
        }
        // Exclusive prefix sums: counts[k] becomes the first slot of the
        // k-th adjacency bucket, then advances as the scatter fills it.
        let mut acc = 0u32;
        for c in s.counts[..d].iter_mut() {
            let n_k = *c;
            *c = acc;
            acc += n_k;
        }
        grow_to(&mut s.slots, m, None, grew);
        s.slots[..m].fill_with(|| None);
        for (i, (to, msg)) in self.buf.drain(..).enumerate() {
            let k = s.keys[i] as usize;
            let pos = s.counts[k] as usize;
            s.counts[k] += 1;
            s.slots[pos] = Some((to, msg));
        }
        self.buf.extend(
            s.slots[..m]
                .iter_mut()
                .map(|s| s.take().expect("normalize scatter filled every slot")),
        );
        self.sorted = true;
    }

    /// Empty the buffer for the next round, keeping its allocation, and
    /// record whether this round grew it past the previous watermark.
    pub(crate) fn clear(&mut self) {
        if self.buf.capacity() != self.buf_cap {
            self.buf_cap = self.buf.capacity();
            self.grew += 1;
        }
        self.buf.clear();
        self.sorted = true;
    }

    pub(crate) fn alloc_events(&self) -> u64 {
        self.grew
    }
}

/// Resize `v` up to at least `len` entries, counting a growth event when
/// the heap allocation actually grows. Never shrinks.
fn grow_to<T: Clone>(v: &mut Vec<T>, len: usize, fill: T, grew: &mut u64) {
    if v.len() < len {
        let cap = v.capacity();
        v.resize(len, fill);
        if v.capacity() != cap {
            *grew += 1;
        }
    }
}

/// Per-round delivery statistics of one shard, merged across shards with
/// commutative operations so shard boundaries cannot affect the result.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RouteOutcome {
    /// Messages delivered (= messages sent, for contract-abiding protocols
    /// on a fault-free network).
    pub delivered: u64,
    /// Messages lost to the fault layer (random drops + crashed receivers).
    pub dropped: u64,
    /// Total bits across all directed edges (delivered messages only).
    pub bits: u64,
    /// Maximum bits on one directed edge (attempted, pre-drop: the CONGEST
    /// budget meters what senders load onto the edge).
    pub max_edge_bits: u32,
    /// Lexicographically smallest `(from, to, bits)` budget violation.
    pub violation: Option<(u32, u32, u32)>,
}

impl RouteOutcome {
    fn merge(&mut self, other: RouteOutcome) {
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.bits += other.bits;
        self.max_edge_bits = self.max_edge_bits.max(other.max_edge_bits);
        if let Some(v) = other.violation {
            self.note_violation(v);
        }
    }

    #[inline]
    fn note_violation(&mut self, v: (u32, u32, u32)) {
        match self.violation {
            Some(cur) if (cur.0, cur.1) <= (v.0, v.1) => {}
            _ => self.violation = Some(v),
        }
    }
}

/// The fault layer's view of one routing pass: the plan plus the *sending*
/// round (receivers read these messages in `round + 1`, which is the round
/// a crashed receiver is tested against). `Copy` so the parallel shards
/// share it freely.
#[derive(Clone, Copy)]
pub(crate) struct FaultCtx<'a> {
    /// The network's fault schedule.
    pub plan: &'a FaultPlan,
    /// Round in which the outboxes being routed were filled.
    pub round: u64,
}

/// One contiguous destination range's slice of the inbox arena: a
/// persistent `(sender, message)` buffer per destination, cleared (not
/// dropped) at the start of each gather.
struct Shard<M> {
    /// First destination id covered (inclusive).
    start: usize,
    /// One past the last destination id covered.
    end: usize,
    /// Inbox buffer per destination in `start..end`.
    inboxes: Vec<Vec<(u32, M)>>,
    /// Local indices of inboxes filled by the last gather — so sparse
    /// rounds clear only what they touched instead of sweeping the range.
    touched: Vec<u32>,
    touched_cap: usize,
    /// Cumulative heap-growth events.
    grew: u64,
}

impl<M: Payload> Shard<M> {
    fn new(start: usize, end: usize) -> Self {
        Shard {
            start,
            end,
            inboxes: (start..end).map(|_| Vec::new()).collect(),
            touched: Vec::new(),
            touched_cap: 0,
            grew: 0,
        }
    }

    /// Deliver this shard's destination range: scan senders in ascending
    /// id order, binary-search each non-empty (destination-sorted) outbox
    /// once for the sub-sequence of messages bound for `[start, end)`, and
    /// append its runs to the receiving inboxes. Ascending senders ×
    /// in-order runs ⇒ every inbox satisfies the contract with no further
    /// work. Metering rides along: each run is one directed edge's
    /// per-round message group.
    ///
    /// Fault injection also rides along: a run is one directed edge, so
    /// its drop decisions (crashed receiver, per-message random drops) are
    /// made wholly inside the shard that owns the destination — shard
    /// layout and pool width cannot reorder the RNG draws. The budget is
    /// metered on *attempted* bits (the sender loaded the edge whether or
    /// not delivery succeeds); `bits` counts delivered payload only.
    fn gather(
        &mut self,
        outboxes: &[Outbox<M>],
        active: &[u32],
        budget_bits: u32,
        fault: Option<FaultCtx<'_>>,
    ) -> RouteOutcome {
        // Clear exactly the inboxes the previous round filled, keeping
        // their allocations — a quiet or sparse round costs O(touched),
        // not O(destinations).
        let inboxes = &mut self.inboxes;
        let touched = &mut self.touched;
        for &local in touched.iter() {
            inboxes[local as usize].clear();
        }
        touched.clear();
        let (a, b) = (self.start as u32, self.end as u32);
        let mut out = RouteOutcome::default();
        for &u in active {
            let buf = outboxes[u as usize].as_slice();
            let mut i = if a == 0 {
                0
            } else {
                buf.partition_point(|p| p.0 < a)
            };
            while i < buf.len() && buf[i].0 < b {
                let to = buf[i].0;
                let run_start = i;
                // A run only takes the (slower) faulty path when this edge
                // can actually lose messages — a trivial plan costs one
                // branch per run and changes nothing downstream.
                let mut run_fault = None;
                if let Some(f) = fault {
                    let dead = f.plan.crashed_by(to as usize, f.round + 1);
                    if dead || f.plan.drop_prob() > 0.0 {
                        run_fault =
                            Some((f.plan, (!dead).then(|| f.plan.edge_rng(f.round, u, to))));
                    }
                }
                let ib = &mut inboxes[(to - a) as usize];
                let cap = ib.capacity();
                let mut edge_bits = 0u32;
                match run_fault {
                    None => {
                        if ib.is_empty() {
                            touched.push(to - a);
                        }
                        while i < buf.len() && buf[i].0 == to {
                            edge_bits = edge_bits.saturating_add(buf[i].1.encoded_bits());
                            ib.push((u, buf[i].1.clone()));
                            i += 1;
                        }
                        out.delivered += (i - run_start) as u64;
                        out.bits += edge_bits as u64;
                    }
                    Some((plan, mut rng)) => {
                        // rng is None iff the receiver is crashed: the
                        // whole run drops without consuming random draws.
                        let mut delivered_bits = 0u64;
                        while i < buf.len() && buf[i].0 == to {
                            let mbits = buf[i].1.encoded_bits();
                            edge_bits = edge_bits.saturating_add(mbits);
                            let lost = match rng.as_mut() {
                                None => true,
                                Some(r) => plan.drops(r),
                            };
                            if lost {
                                out.dropped += 1;
                            } else {
                                if ib.is_empty() {
                                    touched.push(to - a);
                                }
                                ib.push((u, buf[i].1.clone()));
                                out.delivered += 1;
                                delivered_bits += mbits as u64;
                            }
                            i += 1;
                        }
                        out.bits += delivered_bits;
                    }
                }
                if ib.capacity() != cap {
                    self.grew += 1;
                }
                out.max_edge_bits = out.max_edge_bits.max(edge_bits);
                if edge_bits > budget_bits {
                    out.note_violation((u, to, edge_bits));
                }
            }
        }
        if touched.capacity() != self.touched_cap {
            self.touched_cap = touched.capacity();
            self.grew += 1;
        }
        out
    }

    /// Inbox slice for destination `v` (must be in this shard's range).
    #[inline]
    fn inbox(&self, v: usize) -> &[(u32, M)] {
        &self.inboxes[v - self.start]
    }
}

/// The per-network router: owns the destination shards and their arenas.
pub(crate) struct Router<M> {
    shards: Vec<Shard<M>>,
    /// Senders with a non-empty outbox this round, ascending — built once
    /// per route so shards skip silent nodes without scanning them (the
    /// win for sparse rounds: BFS frontiers, quiescing floods).
    active: Vec<u32>,
    active_cap: usize,
    active_grew: u64,
    /// Growth events of shards dropped by a re-layout, so
    /// [`Router::alloc_events`] stays monotone across pool-width changes.
    retired_grew: u64,
    /// Number of destinations (graph nodes).
    n: usize,
}

impl<M: Payload> Router<M> {
    /// A router for `n` destinations.
    pub(crate) fn new(n: usize) -> Self {
        Router {
            shards: Vec::new(),
            active: Vec::new(),
            active_cap: 0,
            active_grew: 0,
            retired_grew: 0,
            n,
        }
    }

    /// (Re)build the shard layout for `want` shards over `self.n`
    /// destinations: contiguous balanced ranges (sizes differ by at most
    /// one). No-op when the layout already matches, so a run at a stable
    /// pool width configures exactly once and stays allocation-free.
    fn configure(&mut self, want: usize) {
        let want = want.clamp(1, self.n.max(1));
        if self.shards.len() == want {
            return;
        }
        self.retired_grew += self.shards.iter().map(|s| s.grew).sum::<u64>();
        self.shards.clear();
        let base = self.n / want;
        let rem = self.n % want;
        let mut start = 0;
        for i in 0..want {
            // Later shards take the remainder, mirroring the pool's
            // `split_even` ("earlier chunks never larger").
            let end = start + base + usize::from(i >= want - rem);
            self.shards.push(Shard::new(start, end));
            start = end;
        }
        debug_assert_eq!(start, self.n);
    }

    /// Deliver all outboxes: normalization is assumed done (the engine
    /// folds it into the node-step pass), so this is the pure gather.
    /// `parallel` selects destination-sharded execution on the thread
    /// pool; the result is identical either way.
    pub(crate) fn route(
        &mut self,
        outboxes: &[Outbox<M>],
        budget_bits: u32,
        parallel: bool,
        fault: Option<FaultCtx<'_>>,
    ) -> RouteOutcome {
        let want = if parallel {
            rayon::current_num_threads().min((self.n / ROUTE_MIN_SHARD).max(1))
        } else {
            1
        };
        self.configure(want);
        self.active.clear();
        self.active.extend(
            outboxes
                .iter()
                .enumerate()
                .filter(|(_, ob)| ob.len() > 0)
                .map(|(u, _)| u as u32),
        );
        if self.active.capacity() != self.active_cap {
            self.active_cap = self.active.capacity();
            self.active_grew += 1;
        }
        let active = &self.active;
        if self.shards.len() == 1 {
            self.shards[0].gather(outboxes, active, budget_bits, fault)
        } else {
            // merge is commutative and associative, so the shim's
            // chunk-order reduce is deterministic and Vec-free.
            self.shards
                .par_iter_mut()
                .map(|s| s.gather(outboxes, active, budget_bits, fault))
                .reduce(RouteOutcome::default, |mut a, b| {
                    a.merge(b);
                    a
                })
        }
    }

    /// Inbox slice of destination `v`, from the last `route` call.
    #[inline]
    pub(crate) fn inbox(&self, v: usize) -> &[(u32, M)] {
        debug_assert!(!self.shards.is_empty(), "inbox read before first route");
        let i = self.shards.partition_point(|s| s.end <= v);
        self.shards[i].inbox(v)
    }

    /// Senders that had a non-empty outbox at the last `route` call.
    pub(crate) fn active(&self) -> &[u32] {
        &self.active
    }

    /// Cumulative arena-growth events on the receive side (monotone:
    /// counters of shards retired by a re-layout are carried over).
    pub(crate) fn alloc_events(&self) -> u64 {
        self.active_grew
            + self.retired_grew
            + self.shards.iter().map(|s| s.grew).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Ping;

    fn filled(sends: &[(u32, Ping)]) -> Outbox<Ping> {
        let mut ob = Outbox::new();
        for &(to, m) in sends {
            ob.push(to, m);
        }
        ob
    }

    #[test]
    fn sorted_flag_tracks_order() {
        let mut ob = filled(&[(1, Ping), (3, Ping), (3, Ping), (7, Ping)]);
        assert!(ob.sorted);
        ob.push(2, Ping);
        assert!(!ob.sorted);
    }

    #[test]
    fn broadcast_keeps_sorted() {
        let mut ob = Outbox::new();
        ob.extend_broadcast(&[2, 5, 9], Ping);
        assert!(ob.sorted);
        // A second broadcast restarts below the tail → unsorted.
        ob.extend_broadcast(&[2, 5, 9], Ping);
        assert!(!ob.sorted);
    }

    #[test]
    fn normalize_small_is_stable() {
        // Messages carry distinct widths so stability is observable.
        use crate::message::Counter;
        let adj: Vec<u32> = vec![1, 4, 6];
        let mut ob = Outbox::new();
        for (to, w) in [(6u32, 10), (1, 11), (6, 12), (4, 13), (1, 14)] {
            ob.push(to, Counter::new(0, w));
        }
        ob.normalize(&adj);
        let flat: Vec<(u32, u32)> = ob.buf.iter().map(|(t, c)| (*t, c.width)).collect();
        assert_eq!(flat, vec![(1, 11), (1, 14), (4, 13), (6, 10), (6, 12)]);
        assert!(ob.sorted);
    }

    #[test]
    fn normalize_large_counting_path_is_stable() {
        use crate::message::Counter;
        // Degree-3 sender, > INSERTION_MAX messages interleaved across its
        // three neighbors: must take the counting path and stay stable.
        let adj: Vec<u32> = vec![10, 20, 30];
        let mut ob = Outbox::new();
        let total = INSERTION_MAX + 9;
        for i in 0..total {
            let to = adj[(total - 1 - i) % 3];
            ob.push(to, Counter::new(i as u64, 16));
        }
        ob.normalize(&adj);
        let buf = &ob.buf;
        assert!(buf.windows(2).all(|w| w[0].0 <= w[1].0), "not sorted");
        for w in buf.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1.value < w[1].1.value, "counting path not stable");
            }
        }
        assert_eq!(buf.len(), total);
        // Idempotent and allocation-stable on reuse.
        let events = ob.alloc_events();
        ob.sorted = false;
        ob.normalize(&adj);
        assert_eq!(ob.alloc_events(), events);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn normalize_counting_path_rejects_non_neighbor() {
        use crate::message::Counter;
        let mut ob = Outbox::new();
        for i in 0..(INSERTION_MAX + 2) {
            ob.push(if i == 0 { 5 } else { 2 }, Counter::new(0, 8));
        }
        ob.push(1, Counter::new(0, 8)); // force unsorted
        ob.normalize(&[1, 2]);
    }

    #[test]
    fn shard_layout_is_balanced_and_contiguous() {
        let mut r: Router<Ping> = Router::new(10);
        r.configure(3);
        let spans: Vec<(usize, usize)> = r.shards.iter().map(|s| (s.start, s.end)).collect();
        assert_eq!(spans, vec![(0, 3), (3, 6), (6, 10)]);
        r.configure(1);
        assert_eq!(r.shards.len(), 1);
        assert_eq!((r.shards[0].start, r.shards[0].end), (0, 10));
    }

    #[test]
    fn gather_observes_inbox_contract() {
        // Path 0–1–2: both ends message the middle; middle's inbox must be
        // sender-ascending regardless of shard layout.
        let mut obs: Vec<Outbox<Ping>> = (0..3).map(|_| Outbox::new()).collect();
        obs[2].push(1, Ping);
        obs[0].push(1, Ping);
        let active: Vec<u32> = vec![0, 2]; // node 1 is silent
        for shards in [1usize, 2, 3] {
            let mut r: Router<Ping> = Router::new(3);
            r.configure(shards);
            let mut total = RouteOutcome::default();
            for s in &mut r.shards {
                total.merge(s.gather(&obs, &active, 8, None));
            }
            assert_eq!(total.delivered, 2);
            let senders: Vec<u32> = r.inbox(1).iter().map(|(f, _)| *f).collect();
            assert_eq!(senders, vec![0, 2], "shards={shards}");
            assert!(r.inbox(0).is_empty() && r.inbox(2).is_empty());
        }
    }

    #[test]
    fn crashed_receiver_drops_whole_run_and_meters_attempted_bits() {
        let mut obs: Vec<Outbox<Ping>> = (0..3).map(|_| Outbox::new()).collect();
        obs[0].push(1, Ping);
        obs[0].push(1, Ping);
        obs[2].push(1, Ping);
        let plan = FaultPlan::new(3, 0).with_crash(1, 1);
        let mut r: Router<Ping> = Router::new(3);
        // Sends of round 0 are read in round 1, when node 1 is already dead.
        let out = r.route(&obs, 8, false, Some(FaultCtx { plan: &plan, round: 0 }));
        assert_eq!(out.delivered, 0);
        assert_eq!(out.dropped, 3);
        assert_eq!(out.bits, 0, "no delivered payload");
        assert_eq!(out.max_edge_bits, 2, "budget meters attempted bits");
        assert!(r.inbox(1).is_empty());
    }

    #[test]
    fn drop_decisions_are_shard_layout_independent() {
        // All nodes message node n-1 and node 0 so runs land in different
        // shards depending on layout; delivered/dropped must not change.
        let n = 12usize;
        let plan = FaultPlan::new(n, 9).with_drop_prob(0.5);
        let mk = || {
            let mut obs: Vec<Outbox<Ping>> = (0..n).map(|_| Outbox::new()).collect();
            for (u, ob) in obs.iter_mut().enumerate() {
                if u != 0 {
                    ob.push(0, Ping);
                }
                if u != n - 1 {
                    ob.push((n - 1) as u32, Ping);
                }
            }
            obs
        };
        let active: Vec<u32> = (0..n as u32).collect();
        let mut reference: Option<(u64, u64, Vec<u32>)> = None;
        for shards in [1usize, 2, 5] {
            let obs = mk();
            let mut r: Router<Ping> = Router::new(n);
            r.configure(shards);
            let mut total = RouteOutcome::default();
            let fc = FaultCtx { plan: &plan, round: 3 };
            for s in &mut r.shards {
                total.merge(s.gather(&obs, &active, 8, Some(fc)));
            }
            let senders: Vec<u32> = r.inbox(0).iter().map(|(f, _)| *f).collect();
            assert_eq!(total.delivered + total.dropped, 2 * (n as u64 - 1));
            match &reference {
                None => reference = Some((total.delivered, total.dropped, senders)),
                Some((d, p, s)) => {
                    assert_eq!((total.delivered, total.dropped), (*d, *p), "shards={shards}");
                    assert_eq!(&senders, s, "shards={shards}");
                }
            }
        }
        let (delivered, dropped, _) = reference.unwrap();
        assert!(delivered > 0 && dropped > 0, "p=0.5 should split the traffic");
    }
}
