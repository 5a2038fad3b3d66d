//! The discrete-event core: event kinds and a deterministic scheduler.
//!
//! The scheduler is a hierarchical timing wheel (6 levels × 64 slots over
//! the picosecond clock, an overflow heap past its horizon, and a sorted
//! run for the tick being dispatched). It preserves the exact total order
//! of the original `BinaryHeap` implementation — (time, insertion
//! sequence) — so golden replays stay bit-identical; see DESIGN.md §8.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::packet::Packet;
use crate::types::{FlowId, LinkId, NodeId};
use crate::units::Time;

/// Everything that can happen in the simulation.
///
/// Packets ride boxed so the scheduled node stays within 32 B: the wheel,
/// the ready run and the overflow heap move nodes by value on every
/// schedule/pop, and moving a full `Packet` (with its inline `IntStack`)
/// dominated the hot path. The box itself is recycled through `Simulator`'s
/// packet pool, so steady-state scheduling still does no allocation.
#[derive(Clone, Debug)]
pub enum Event {
    /// A flow's first byte becomes available at its sender.
    FlowStart(FlowId),
    /// The last bit of a packet arrives at the far end of `link`.
    Arrival { link: LinkId, packet: Box<Packet> },
    /// `link` finishes serializing its current packet and may start the
    /// next one.
    TxComplete { link: LinkId },
    /// A pacing timer for egress `link`: a flow at its source host, or a
    /// DCI per-flow queue at its source switch, may now be allowed to
    /// send.
    Wake { link: LinkId },
    /// A per-flow timer owned by a congestion-control module at `node`.
    CcTimer { node: NodeId, flow: FlowId },
    /// A retransmission timeout check for `flow` at its sender.
    RtoCheck { node: NodeId, flow: FlowId },
    /// Periodic measurement sampling.
    MonitorTick,
    /// A PFC pause/resume frame takes effect at the receiving end of
    /// `link` (pause frames bypass queues; only propagation delay applies).
    PfcUpdate { link: LinkId, paused: bool },
    /// A scheduled fault transition: `link` goes down (`down = true`) or
    /// comes back up. Packets serialized while down are black-holed.
    LinkFault { link: LinkId, down: bool },
    /// A scheduled node-level fault transition: a host or switch
    /// crashes (`down = true`) or restarts. A down host black-holes
    /// everything addressed to it and emits nothing; a down switch
    /// additionally drains (drops) its buffered packets at crash time.
    NodeFault { node: NodeId, down: bool },
}

/// A scheduled event. Ordering: time, then insertion sequence — two events
/// at the same instant always fire in the order they were scheduled, which
/// makes runs bit-for-bit reproducible.
#[derive(Clone, Debug)]
struct Scheduled {
    at: Time,
    seq: u64,
    event: Event,
}

/// 16 B key + 16 B `Event`: a fatter `Event` must fail the build, not a benchmark.
const MAX_SCHEDULED_BYTES: usize = 32;
const _: () = assert!(std::mem::size_of::<Scheduled>() <= MAX_SCHEDULED_BYTES);

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the earliest is the overflow heap's max and sorts last.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// log2 of the wheel tick in picoseconds. One tick = 2^16 ps ≈ 65.5 ns,
/// comfortably below a single-packet serialization time at 100 Gbps, so
/// level-0 slots rarely hold more than a handful of events.
const BASE_SHIFT: u32 = 16;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Wheel levels. Total span: 2^(6·6) ticks = 2^52 ps ≈ 75 minutes of
/// simulated time; anything further out waits in the overflow heap.
const LEVELS: usize = 6;
/// Bits of tick covered by the wheel; ticks differing from the cursor
/// above this bit live in the overflow heap until their block arrives.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// Floor of the explicit tie-break keys used by
/// [`EventQueue::schedule_with_seq`]. Ordinary insertion sequences count
/// up from zero and can never plausibly reach 2^62, so content-derived
/// keys above this base always sort after same-instant ordinary events
/// and never collide with them.
pub const BOUNDARY_SEQ_BASE: u64 = 1 << 62;

/// The deterministic tie-break key for a boundary arrival: a function of
/// the carrying link and that link's per-packet wire sequence, identical
/// at every shard count. Link ids fit 20 bits with room to spare on any
/// fabric we build; wire sequences get the low 40 bits (a trillion
/// packets per link before wrap).
#[inline]
pub fn boundary_seq(link: LinkId, wire_seq: u64) -> u64 {
    debug_assert!(wire_seq < (1 << 40), "per-link wire sequence overflow");
    BOUNDARY_SEQ_BASE | ((link.0 as u64) << 40) | wire_seq
}

/// Deterministic event queue: hierarchical timing wheel + overflow heap.
///
/// Invariants (with `tick = at >> BASE_SHIFT`):
/// * `ready` holds every pending event with `tick == ready_tick`, sorted
///   earliest last; events scheduled later into that tick are inserted.
/// * The wheel holds events with `tick > ready_tick` whose tick shares the
///   cursor's top block (`tick >> WHEEL_BITS == elapsed >> WHEEL_BITS`);
///   `occupied` bitmaps mirror slot occupancy exactly.
/// * `overflow` holds everything beyond the wheel horizon.
/// * The cursor `elapsed` never passes an occupied slot without draining
///   it, so slot indices never wrap within a level: at level `l` every
///   live event shares the cursor's bits above `6·(l+1)` and sits at a
///   slot index ≥ the cursor's.
pub struct EventQueue {
    slots: Vec<Vec<Scheduled>>,
    occupied: [u64; LEVELS],
    /// Current wheel tick: every event with an earlier tick has been
    /// drained into `ready` (and possibly popped).
    elapsed: u64,
    /// Events of the tick currently being dispatched, earliest last.
    ready: Vec<Scheduled>,
    /// The tick whose events `ready` is (or was last) serving.
    ready_tick: Option<u64>,
    /// Events beyond the wheel horizon, earliest first.
    overflow: BinaryHeap<Scheduled>,
    /// Also the count of events ever scheduled (seq values are dense).
    next_seq: u64,
    /// Events scheduled with an explicit out-of-band sequence key (see
    /// [`EventQueue::schedule_with_seq`]); counted separately so
    /// [`EventQueue::scheduled_total`] stays exact.
    extra_scheduled: u64,
    len: usize,
    peak_len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn tick_of(at: Time) -> u64 {
    at >> BASE_SHIFT
}

/// The wheel level for an event `tick` given the cursor: the level of the
/// highest bit block where they differ. `LEVELS` or more means overflow.
#[inline]
fn level_for(elapsed: u64, tick: u64) -> usize {
    let differing = elapsed ^ tick;
    if differing == 0 {
        return 0;
    }
    ((63 - differing.leading_zeros()) / SLOT_BITS) as usize
}

impl EventQueue {
    pub fn new() -> Self {
        Self {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            elapsed: 0,
            ready: Vec::new(),
            ready_tick: None,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            extra_scheduled: 0,
            len: 0,
            peak_len: 0,
        }
    }

    /// Pre-reserve `per_slot` entries in every wheel slot, the ready run
    /// and the overflow heap, so a steady-state workload whose per-slot
    /// event density stays under `per_slot` never grows a slot `Vec`
    /// mid-run. Used by allocation-budget tests; a no-op for capacity
    /// already reserved.
    pub fn prewarm(&mut self, per_slot: usize) {
        for slot in &mut self.slots {
            slot.reserve(per_slot.saturating_sub(slot.len()));
        }
        self.ready
            .reserve(per_slot.saturating_sub(self.ready.len()));
        self.overflow
            .reserve(per_slot.saturating_sub(self.overflow.len()));
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: Time, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_scheduled(at, seq, event);
    }

    /// Schedule `event` at `at` with an explicit, content-derived tie-break
    /// key instead of a fresh insertion sequence. Used for cross-shard
    /// boundary arrivals, whose same-instant order must be a function of
    /// the packet (link id + per-link wire sequence), not of which shard
    /// happened to schedule first. Keys must be ≥ [`BOUNDARY_SEQ_BASE`] so
    /// they never collide with (and always sort after) ordinary
    /// insertion sequences at the same instant.
    pub fn schedule_with_seq(&mut self, at: Time, seq: u64, event: Event) {
        debug_assert!(
            seq >= BOUNDARY_SEQ_BASE,
            "explicit seq keys live above BOUNDARY_SEQ_BASE"
        );
        self.extra_scheduled += 1;
        self.push_scheduled(at, seq, event);
    }

    fn push_scheduled(&mut self, at: Time, seq: u64, event: Event) {
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
        let s = Scheduled { at, seq, event };
        let tick = tick_of(at);
        // Events landing in the tick currently being dispatched (or
        // earlier — the sim never does that, but the contract allows it)
        // join the ready run at their (at, seq) place.
        if self.ready_tick.is_some_and(|rt| tick <= rt) {
            let pos = self.ready.partition_point(|e| *e < s);
            self.ready.insert(pos, s);
            return;
        }
        debug_assert!(tick >= self.elapsed, "scheduling into a drained tick");
        self.insert_wheel(s);
    }

    fn insert_wheel(&mut self, s: Scheduled) {
        let tick = tick_of(s.at);
        let level = level_for(self.elapsed, tick);
        if level >= LEVELS {
            self.overflow.push(s);
            return;
        }
        let slot = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.slots[level * SLOTS + slot].push(s);
        self.occupied[level] |= 1 << slot;
    }

    /// First occupied (level, slot) at or after the cursor, lowest level
    /// first. Lower levels always hold earlier ticks (they share a longer
    /// prefix with the cursor), so this finds the slot of the minimum
    /// pending tick.
    fn next_occupied(&self) -> Option<(usize, usize)> {
        for level in 0..LEVELS {
            let cur = (self.elapsed >> (SLOT_BITS * level as u32)) & SLOT_MASK;
            let masked = self.occupied[level] & (!0u64 << cur);
            if masked != 0 {
                return Some((level, masked.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Ensure `ready` holds the earliest pending tick's events (if any
    /// events are pending at all).
    fn advance(&mut self) {
        loop {
            if !self.ready.is_empty() {
                return;
            }
            // Pull overflow events whose top block has arrived into the
            // wheel. The overflow heap is (at, seq)-ordered, so events of
            // the current block drain before any later block's.
            while let Some(s) = self.overflow.peek() {
                if tick_of(s.at) >> WHEEL_BITS != self.elapsed >> WHEEL_BITS {
                    break;
                }
                let s = self.overflow.pop().expect("peeked");
                self.insert_wheel(s);
            }
            match self.next_occupied() {
                Some((0, slot)) => {
                    // The minimum tick: the ready run takes it, sorted once.
                    // Keys are unique, so the unstable sort is exact.
                    self.occupied[0] &= !(1 << slot);
                    let tick = (self.elapsed & !SLOT_MASK) | slot as u64;
                    self.elapsed = tick;
                    self.ready_tick = Some(tick);
                    self.ready.append(&mut self.slots[slot]);
                    debug_assert!(self.ready.iter().all(|s| tick_of(s.at) == tick));
                    self.ready.sort_unstable();
                    return;
                }
                Some((level, slot)) => {
                    // Cascade: move the cursor to the slot's first tick and
                    // re-insert its events one level (or more) down.
                    self.occupied[level] &= !(1 << slot);
                    let shift = SLOT_BITS * level as u32;
                    self.elapsed = (((self.elapsed >> (shift + SLOT_BITS)) << SLOT_BITS)
                        | slot as u64)
                        << shift;
                    let idx = level * SLOTS + slot;
                    let mut moved = std::mem::take(&mut self.slots[idx]);
                    for s in moved.drain(..) {
                        self.insert_wheel(s);
                    }
                    // Hand the spare capacity back to the slot.
                    self.slots[idx] = moved;
                }
                None => {
                    // Wheel empty: jump the cursor to the overflow's block.
                    let Some(s) = self.overflow.peek() else {
                        return;
                    };
                    self.elapsed = (tick_of(s.at) >> WHEEL_BITS) << WHEEL_BITS;
                }
            }
        }
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        self.advance();
        let s = self.ready.pop()?;
        self.len -= 1;
        Some((s.at, s.event))
    }

    /// Time of the earliest pending event. Takes `&mut self` because it
    /// may advance the wheel cursor to stage that event (the total order
    /// the queue exposes is unchanged by staging).
    pub fn peek_time(&mut self) -> Option<Time> {
        self.advance();
        self.ready.last().map(|s| s.at)
    }

    /// Total events ever scheduled. Sequence numbers are allocated densely
    /// per schedule, so the statistic cannot drift from the tie-break seq;
    /// explicit-key schedules are counted separately.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq + self.extra_scheduled
    }

    /// High-water mark of pending events.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Visit every pending event (wheel slots, the staged ready run,
    /// and the overflow heap) in no particular order. The auditor's
    /// drain-time census uses this to find in-flight `Arrival` packets.
    #[cfg(feature = "audit")]
    pub fn for_each_pending(&self, mut f: impl FnMut(Time, &Event)) {
        for slot in &self.slots {
            for s in slot {
                f(s.at, &s.event);
            }
        }
        for s in &self.ready {
            f(s.at, &s.event);
        }
        for s in &self.overflow {
            f(s.at, &s.event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick() -> Event {
        Event::MonitorTick
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, tick());
        q.schedule(10, tick());
        q.schedule(20, tick());
        assert_eq!(q.pop().unwrap().0, 10);
        assert_eq!(q.pop().unwrap().0, 20);
        assert_eq!(q.pop().unwrap().0, 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, Event::FlowStart(FlowId(0)));
        q.schedule(5, Event::FlowStart(FlowId(1)));
        q.schedule(5, Event::FlowStart(FlowId(2)));
        for expect in 0..3u32 {
            match q.pop().unwrap().1 {
                Event::FlowStart(f) => assert_eq!(f, FlowId(expect)),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(42, tick());
        q.schedule(7, tick());
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.pop().unwrap().0, 7);
        assert_eq!(q.peek_time(), Some(42));
    }

    #[test]
    fn counts_scheduled() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(i, tick());
        }
        assert_eq!(q.scheduled_total(), 10);
        assert_eq!(q.len(), 10);
        q.pop();
        assert_eq!(q.scheduled_total(), 10, "popping does not change the total");
        assert_eq!(q.len(), 9);
    }

    #[test]
    fn tracks_peak_depth() {
        let mut q = EventQueue::new();
        q.schedule(1, tick());
        q.schedule(2, tick());
        q.schedule(3, tick());
        q.pop();
        q.pop();
        q.schedule(4, tick());
        assert_eq!(q.peak_len(), 3, "peak was three pending events");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn same_tick_reschedule_pops_in_order() {
        // An event scheduled *while* its tick is being dispatched (the
        // common "wake me now" pattern) must still pop before later ticks
        // and after earlier same-tick events.
        let mut q = EventQueue::new();
        q.schedule(100, Event::FlowStart(FlowId(0)));
        q.schedule(1 << 20, Event::FlowStart(FlowId(1)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 100);
        // Same wheel tick as 100 (both < one tick), scheduled mid-dispatch.
        q.schedule(150, Event::FlowStart(FlowId(2)));
        let (t, ev) = q.pop().unwrap();
        assert_eq!(t, 150);
        assert!(matches!(ev, Event::FlowStart(FlowId(2))));
        assert_eq!(q.pop().unwrap().0, 1 << 20);
    }

    #[test]
    fn explicit_seq_sorts_after_ordinary_events_and_by_key() {
        // Boundary arrivals at the same instant must pop after ordinary
        // same-instant events (their keys sit above BOUNDARY_SEQ_BASE)
        // and among themselves in key order, regardless of scheduling
        // order.
        let mut q = EventQueue::new();
        q.schedule_with_seq(5, boundary_seq(LinkId(3), 1), Event::FlowStart(FlowId(3)));
        q.schedule_with_seq(5, boundary_seq(LinkId(3), 0), Event::FlowStart(FlowId(2)));
        q.schedule(5, Event::FlowStart(FlowId(0)));
        q.schedule(5, Event::FlowStart(FlowId(1)));
        q.schedule_with_seq(5, boundary_seq(LinkId(9), 0), Event::FlowStart(FlowId(4)));
        for expect in 0..5u32 {
            match q.pop().unwrap().1 {
                Event::FlowStart(f) => assert_eq!(f, FlowId(expect)),
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(q.scheduled_total(), 5, "explicit-seq schedules counted");
    }

    #[test]
    fn prewarmed_ready_run_absorbs_same_tick_inserts_without_growing() {
        // `prewarm(n)` must let a dispatching tick take `n` zero-delay
        // self-posts without reallocating the ready run: the zero-alloc
        // gate depends on it.
        const N: usize = 300;
        let mut q = EventQueue::new();
        q.prewarm(N);
        q.schedule(10, tick());
        q.schedule(1 << 20, tick());
        assert_eq!(q.pop().unwrap().0, 10, "dispatches the first tick");
        let cap = q.ready.capacity();
        assert!(cap >= N);
        // Later instants first, so most inserts land mid-run, not at the end.
        for i in (0..N as u64).rev() {
            q.schedule(100 + 50 * i, tick());
        }
        assert_eq!(q.ready.len(), N);
        assert_eq!(q.ready.capacity(), cap, "the ready run grew mid-dispatch");
        for i in 0..N as u64 {
            assert_eq!(q.pop().unwrap().0, 100 + 50 * i);
        }
        assert_eq!(q.pop().unwrap().0, 1 << 20);
    }

    #[test]
    fn scheduled_node_stays_under_budget() {
        // The const assertion enforces the same ceiling at build time;
        // this records the measured value.
        let sz = std::mem::size_of::<Scheduled>();
        assert!(sz <= MAX_SCHEDULED_BYTES, "Scheduled is {sz} bytes");
    }

    #[test]
    fn far_future_overflow_roundtrip() {
        // Beyond the wheel horizon (2^52 ps) and back.
        let mut q = EventQueue::new();
        let far = 1u64 << 60;
        q.schedule(far + 5, Event::FlowStart(FlowId(1)));
        q.schedule(far + 5, Event::FlowStart(FlowId(2)));
        q.schedule(3, Event::FlowStart(FlowId(0)));
        assert_eq!(q.pop().unwrap().0, 3);
        let (t, ev) = q.pop().unwrap();
        assert_eq!(t, far + 5);
        assert!(matches!(ev, Event::FlowStart(FlowId(1))));
        let (t, ev) = q.pop().unwrap();
        assert_eq!(t, far + 5);
        assert!(matches!(ev, Event::FlowStart(FlowId(2))));
        assert!(q.pop().is_none());
        assert_eq!(q.scheduled_total(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::{SimRng, Xoshiro256StarStar};

    /// Whatever order events are scheduled in, they pop in
    /// non-decreasing time order, and same-time events pop in
    /// scheduling order (seeded-loop property test).
    #[test]
    fn total_order() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xE7E27);
        for _ in 0..64 {
            let n = rng.gen_range(1..200) as usize;
            let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000)).collect();
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(t, Event::FlowStart(FlowId(i as u32)));
            }
            let mut last: Option<(Time, u32)> = None;
            while let Some((t, ev)) = q.pop() {
                let id = match ev {
                    Event::FlowStart(f) => f.0,
                    _ => unreachable!(),
                };
                if let Some((lt, lid)) = last {
                    assert!(t >= lt);
                    if t == lt {
                        assert!(id > lid, "same-time events must pop in insertion order");
                    }
                }
                last = Some((t, id));
            }
        }
    }

    /// Reference implementation: the original `BinaryHeap` scheduler, kept
    /// verbatim as the ordering oracle for the timing wheel.
    struct HeapOracle {
        heap: BinaryHeap<Scheduled>,
        next_seq: u64,
    }

    impl HeapOracle {
        fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }
        fn schedule(&mut self, at: Time, event: Event) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { at, seq, event });
        }
        fn schedule_with_seq(&mut self, at: Time, seq: u64, event: Event) {
            self.heap.push(Scheduled { at, seq, event });
        }
        fn pop(&mut self) -> Option<(Time, Event)> {
            self.heap.pop().map(|s| (s.at, s.event))
        }
        fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|s| s.at)
        }
    }

    /// Satellite: seeded-loop equivalence against the old heap order.
    /// Random schedule/pop interleavings — same-time bursts, mid-dispatch
    /// re-schedules, and far-future overflow times — must pop the
    /// identical (time, event) sequence from both implementations.
    #[test]
    fn matches_binary_heap_oracle() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x0DD5EED);
        for round in 0..48 {
            let mut wheel = EventQueue::new();
            let mut oracle = HeapOracle::new();
            // `now` tracks the last popped time so we only ever schedule
            // into the present or future, like the simulator does.
            let mut now: Time = 0;
            let mut next_id = 0u32;
            let mut pending = 0i64;
            let mut popped = 0u64;
            for _ in 0..2_000 {
                let do_pop = pending > 0 && rng.gen_range(0..100) < 45;
                if do_pop {
                    let a = wheel.pop().expect("wheel has pending events");
                    let b = oracle.pop().expect("oracle has pending events");
                    let (ta, ia) = (a.0, id_of(&a.1));
                    let (tb, ib) = (b.0, id_of(&b.1));
                    assert_eq!(
                        (ta, ia),
                        (tb, ib),
                        "round {round}: wheel and heap diverged after {popped} pops"
                    );
                    now = ta;
                    pending -= 1;
                    popped += 1;
                } else {
                    // Mix of horizons: same-instant bursts, sub-tick
                    // offsets, near future, and far-future overflow.
                    let at = match rng.gen_range(0..10) {
                        0 => now,
                        1 | 2 => now + rng.gen_range(0..1 << BASE_SHIFT),
                        3..=6 => now + rng.gen_range(0..1 << 24),
                        7 | 8 => now + rng.gen_range(0..1 << 40),
                        _ => now + (1 << 52) + rng.gen_range(0..1 << 40),
                    };
                    let burst = 1 + rng.gen_range(0..4);
                    for _ in 0..burst {
                        wheel.schedule(at, Event::FlowStart(FlowId(next_id)));
                        oracle.schedule(at, Event::FlowStart(FlowId(next_id)));
                        next_id += 1;
                        pending += 1;
                    }
                }
            }
            // Drain both completely.
            loop {
                match (wheel.pop(), oracle.pop()) {
                    (None, None) => break,
                    (Some(a), Some(b)) => {
                        assert_eq!((a.0, id_of(&a.1)), (b.0, id_of(&b.1)));
                        now = a.0;
                    }
                    (a, b) => panic!(
                        "round {round}: one queue drained early (wheel={:?} oracle={:?})",
                        a.map(|x| x.0),
                        b.map(|x| x.0)
                    ),
                }
            }
            assert_eq!(wheel.scheduled_total(), oracle.next_seq);
            let _ = now;
        }
    }

    /// The ready run's binary-search insert against the heap
    /// oracle. Boundary keys (at `now` and in the future, from several
    /// links so keys do not rise in scheduling order) are interleaved with
    /// ordinary schedules, `peek_time` is checked before every pop, and
    /// after a pop a burst of ordinary and boundary events often lands in
    /// the tick being dispatched.
    #[test]
    fn matches_binary_heap_oracle_with_boundary_keys_and_peeks() {
        const LINKS: usize = 6;
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xB0DA_5EED);
        for round in 0..48 {
            let mut wheel = EventQueue::new();
            let mut oracle = HeapOracle::new();
            let mut wire_seq = [0u64; LINKS];
            let mut now: Time = 0;
            let mut next_id = 0u32;
            let mut pending = 0usize;
            let mut schedule = |wheel: &mut EventQueue,
                                oracle: &mut HeapOracle,
                                rng: &mut Xoshiro256StarStar,
                                at: Time| {
                let ev = || Event::FlowStart(FlowId(next_id));
                if rng.gen_range(0..3) == 0 {
                    let link = rng.gen_range(0..LINKS as u64) as usize;
                    let key = boundary_seq(LinkId(link as u32), wire_seq[link]);
                    wire_seq[link] += 1;
                    wheel.schedule_with_seq(at, key, ev());
                    oracle.schedule_with_seq(at, key, ev());
                } else {
                    wheel.schedule(at, ev());
                    oracle.schedule(at, ev());
                }
                next_id += 1;
            };
            for _ in 0..2_000 {
                if pending > 0 && rng.gen_range(0..100) < 45 {
                    assert_eq!(
                        wheel.peek_time(),
                        oracle.peek_time(),
                        "round {round}: peek diverged"
                    );
                    let a = wheel.pop().expect("wheel has pending events");
                    let b = oracle.pop().expect("oracle has pending events");
                    assert_eq!(
                        (a.0, id_of(&a.1)),
                        (b.0, id_of(&b.1)),
                        "round {round}: wheel and heap diverged"
                    );
                    now = a.0;
                    pending -= 1;
                    if rng.gen_range(0..2) == 0 {
                        // Mid-dispatch burst into the current tick.
                        let tick_end = (tick_of(now) + 1) << BASE_SHIFT;
                        for _ in 0..1 + rng.gen_range(0..8) {
                            let at = if rng.gen_range(0..2) == 0 {
                                now
                            } else {
                                now + rng.gen_range(0..tick_end - now)
                            };
                            schedule(&mut wheel, &mut oracle, &mut rng, at);
                            pending += 1;
                        }
                    }
                } else {
                    let at = match rng.gen_range(0..8) {
                        0 | 1 => now,
                        2 | 3 => now + rng.gen_range(0..1 << BASE_SHIFT),
                        4 | 5 => now + rng.gen_range(0..1 << 24),
                        6 => now + rng.gen_range(0..1 << 40),
                        _ => now + (1 << 52) + rng.gen_range(0..1 << 40),
                    };
                    for _ in 0..1 + rng.gen_range(0..4) {
                        schedule(&mut wheel, &mut oracle, &mut rng, at);
                        pending += 1;
                    }
                }
            }
            loop {
                assert_eq!(wheel.peek_time(), oracle.peek_time());
                match (wheel.pop(), oracle.pop()) {
                    (None, None) => break,
                    (Some(a), Some(b)) => assert_eq!((a.0, id_of(&a.1)), (b.0, id_of(&b.1))),
                    (a, b) => panic!(
                        "round {round}: one queue drained early (wheel={:?} oracle={:?})",
                        a.map(|x| x.0),
                        b.map(|x| x.0)
                    ),
                }
            }
            assert_eq!(wheel.scheduled_total(), next_id as u64);
        }
    }

    fn id_of(ev: &Event) -> u32 {
        match ev {
            Event::FlowStart(f) => f.0,
            _ => unreachable!("oracle test only schedules FlowStart"),
        }
    }

    /// The wheel horizon in picoseconds: ticks differing from the cursor
    /// above this bound live in the overflow heap.
    const HORIZON: u64 = 1 << (BASE_SHIFT + WHEEL_BITS);

    /// Satellite: the 2^52 ps overflow boundary, deterministically.
    /// Events straddling the horizon — just inside the wheel, exactly at
    /// the boundary block, and beyond — plus same-tick bursts at each
    /// position must pop in exact (time, insertion-seq) order.
    #[test]
    fn overflow_boundary_exact_order() {
        let mut q = EventQueue::new();
        let mut oracle = HeapOracle::new();
        let mut id = 0u32;
        // Around the boundary: the last tick inside the wheel, the first
        // tick of the next block (overflow), deep overflow, and a
        // sub-tick pair on each side of the exact horizon time.
        let times = [
            HORIZON - (1 << BASE_SHIFT), // last wheel tick
            HORIZON - 1,                 // same tick, later instant
            HORIZON,                     // first overflow tick
            HORIZON + 1,                 // same overflow tick
            HORIZON + (1 << BASE_SHIFT), // next overflow tick
            3 * HORIZON + 17,            // a block the cursor must jump to
            5,                           // near present, scheduled last
        ];
        for &at in &times {
            // Same-tick burst: three events at the identical instant must
            // preserve insertion order across the wheel/overflow split.
            for _ in 0..3 {
                q.schedule(at, Event::FlowStart(FlowId(id)));
                oracle.schedule(at, Event::FlowStart(FlowId(id)));
                id += 1;
            }
        }
        let mut last: Option<(Time, u32)> = None;
        while let Some((t, ev)) = q.pop() {
            let (to, evo) = oracle.pop().expect("oracle in lockstep");
            assert_eq!((t, id_of(&ev)), (to, id_of(&evo)));
            if let Some((lt, lid)) = last {
                assert!(t > lt || (t == lt && id_of(&ev) > lid));
            }
            last = Some((t, id_of(&ev)));
        }
        assert!(oracle.pop().is_none());
        assert_eq!(q.scheduled_total(), 21);
    }

    /// Satellite: seeded-loop property test hammering the overflow
    /// boundary from a *moving* cursor. Times are clustered within a few
    /// ticks of `now + 2^52` (so each schedule lands randomly on either
    /// side of the wheel horizon as the cursor advances), mixed with
    /// same-tick bursts and near-present events; the pop sequence must
    /// match the binary-heap oracle exactly.
    #[test]
    fn overflow_boundary_total_order_under_churn() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x0B0B_B0A2D);
        for round in 0..32 {
            let mut wheel = EventQueue::new();
            let mut oracle = HeapOracle::new();
            let mut now: Time = 0;
            let mut next_id = 0u32;
            let mut pending = 0i64;
            for _ in 0..1_500 {
                if pending > 0 && rng.gen_range(0..100) < 40 {
                    let a = wheel.pop().expect("wheel has pending events");
                    let b = oracle.pop().expect("oracle has pending events");
                    assert_eq!(
                        (a.0, id_of(&a.1)),
                        (b.0, id_of(&b.1)),
                        "round {round}: diverged at the overflow boundary"
                    );
                    now = a.0;
                    pending -= 1;
                } else {
                    // ±2 ticks around the horizon measured from `now`,
                    // sub-tick offsets included, so events land just
                    // inside the wheel, exactly at, or just past it.
                    let tick_jitter = rng.gen_range(0..5) as i64 - 2;
                    let sub = rng.gen_range(0..1 << BASE_SHIFT);
                    let base = now + HORIZON;
                    let at = if rng.gen_range(0..8) == 0 {
                        now + rng.gen_range(0..1 << 20) // near present
                    } else {
                        base.wrapping_add_signed(tick_jitter * (1 << BASE_SHIFT)) + sub
                    };
                    let burst = 1 + rng.gen_range(0..3);
                    for _ in 0..burst {
                        wheel.schedule(at, Event::FlowStart(FlowId(next_id)));
                        oracle.schedule(at, Event::FlowStart(FlowId(next_id)));
                        next_id += 1;
                        pending += 1;
                    }
                }
            }
            loop {
                match (wheel.pop(), oracle.pop()) {
                    (None, None) => break,
                    (Some(a), Some(b)) => {
                        assert_eq!((a.0, id_of(&a.1)), (b.0, id_of(&b.1)));
                    }
                    (a, b) => panic!(
                        "round {round}: one queue drained early \
                         (wheel={:?} oracle={:?})",
                        a.map(|x| x.0),
                        b.map(|x| x.0)
                    ),
                }
            }
        }
    }
}
