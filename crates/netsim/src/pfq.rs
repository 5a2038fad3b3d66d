//! Per-Flow Queuing (PFQ) at the receiver-side DCI switch.
//!
//! Each cross-DC flow entering the receiver datacenter is parked in its
//! own virtual queue whose dequeue rate is the `R_credit` the receiver
//! computes (Algorithm 1 of the paper). Dequeue is token-paced per flow
//! with round-robin arbitration among eligible flows, which is exactly the
//! "AFC per-queue rate control" primitive of programmable DCI switches.

use std::collections::VecDeque;

use crate::packet::Packet;
use crate::types::FlowId;
use crate::units::{tx_time, Bandwidth, Time, SEC};

/// One flow's virtual queue. Holds `Box<Packet>` so enqueue/dequeue
/// moves a pointer, never the packet struct.
#[derive(Debug)]
pub struct PfqState {
    queue: VecDeque<Box<Packet>>,
    bytes: u64,
    /// Applied dequeue rate (R_credit from the receiver's ACKs).
    rate_bps: Bandwidth,
    /// Token bucket level in bytes (fractional for exact pacing).
    tokens: f64,
    last_refill: Time,
    /// Credit stamp C_D: the last C_R read from an ACK of this flow.
    pub c_d: u32,
    /// Lifetime statistics.
    pub enqueued_bytes: u64,
    pub dequeued_bytes: u64,
    /// High-water mark of this virtual queue.
    pub peak_bytes: u64,
}

impl PfqState {
    fn new(init_rate: Bandwidth, now: Time) -> Self {
        PfqState {
            queue: VecDeque::new(),
            bytes: 0,
            rate_bps: init_rate,
            tokens: 0.0,
            last_refill: now,
            c_d: 0,
            enqueued_bytes: 0,
            dequeued_bytes: 0,
            peak_bytes: 0,
        }
    }

    fn refill(&mut self, now: Time, cap_bytes: f64) {
        if now > self.last_refill {
            let dt = (now - self.last_refill) as f64;
            self.tokens += dt * self.rate_bps as f64 / (8.0 * SEC as f64);
            if self.tokens > cap_bytes {
                self.tokens = cap_bytes;
            }
            self.last_refill = now;
        }
    }

    /// Time until the head packet becomes eligible at the current rate.
    fn eligible_in(&self) -> Option<Time> {
        let head = self.queue.front()?;
        let need = head.size as f64 - self.tokens;
        if need <= 0.0 {
            return Some(0);
        }
        if self.rate_bps == 0 {
            return None; // never, until the rate changes
        }
        // Round up so that by the returned time the tokens are sufficient.
        Some(tx_time(need.ceil() as u64, self.rate_bps).max(1))
    }

    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    #[inline]
    pub fn rate_bps(&self) -> Bandwidth {
        self.rate_bps
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Credit-conservation invariants, checked after every enqueue and
    /// dequeue when the auditor is compiled in: the token bucket never
    /// goes negative, never exceeds the burst cap, and the lifetime
    /// byte counters balance against the queued backlog.
    #[cfg(feature = "audit")]
    fn audit_invariants(&self, burst_cap: f64) {
        assert!(
            self.tokens >= 0.0,
            "AUDIT VIOLATION: PFQ credit went negative ({} tokens)",
            self.tokens
        );
        assert!(
            self.tokens <= burst_cap,
            "AUDIT VIOLATION: PFQ credit {} exceeds burst cap {}",
            self.tokens,
            burst_cap
        );
        assert!(
            self.dequeued_bytes <= self.enqueued_bytes,
            "AUDIT VIOLATION: PFQ dequeued {} bytes > enqueued {}",
            self.dequeued_bytes,
            self.enqueued_bytes
        );
        assert_eq!(
            self.enqueued_bytes - self.dequeued_bytes,
            self.bytes,
            "AUDIT VIOLATION: PFQ byte ledger out of balance"
        );
    }
}

/// Outcome of a dequeue attempt.
#[derive(Debug)]
pub enum PfqDequeue {
    /// A packet is ready now.
    Packet(Box<Packet>),
    /// Nothing is eligible yet; retry no earlier than this time.
    NextAt(Time),
    /// All virtual queues are empty.
    Empty,
}

/// The set of per-flow queues on one DCI egress.
#[derive(Debug)]
pub struct PfqSet {
    /// Sparse per-flow table indexed by flow id.
    flows: Vec<Option<Box<PfqState>>>,
    /// Flows with at least one queued packet, in round-robin order.
    active: VecDeque<FlowId>,
    /// Initial dequeue rate assigned to a brand-new PFQ.
    init_rate: Bandwidth,
    /// Token cap: limits post-idle bursts to a couple of packets.
    burst_bytes: f64,
    total_bytes: u64,
    /// High-water mark across all virtual queues.
    pub peak_total_bytes: u64,
}

impl PfqSet {
    pub fn new(init_rate: Bandwidth, mtu_wire_bytes: u32) -> Self {
        PfqSet {
            flows: Vec::new(),
            active: VecDeque::new(),
            init_rate,
            burst_bytes: 2.0 * mtu_wire_bytes as f64,
            total_bytes: 0,
            peak_total_bytes: 0,
        }
    }

    fn slot(&mut self, flow: FlowId) -> &mut Option<Box<PfqState>> {
        let idx = flow.index();
        if idx >= self.flows.len() {
            self.flows.resize_with(idx + 1, || None);
        }
        &mut self.flows[idx]
    }

    /// State for a flow, if its PFQ exists.
    pub fn get(&self, flow: FlowId) -> Option<&PfqState> {
        self.flows.get(flow.index()).and_then(|s| s.as_deref())
    }

    /// Pre-reserve ring capacity for `per_flow` packets in every
    /// **existing** per-flow queue, so backlog oscillation below that
    /// depth never grows a queue mid-run. Used by allocation-budget
    /// tests after a warmup has created the flows' queues.
    pub fn reserve_queues(&mut self, per_flow: usize) {
        for st in self.flows.iter_mut().flatten() {
            st.queue.reserve(per_flow.saturating_sub(st.queue.len()));
        }
        self.active.reserve(self.flows.len());
    }

    /// Queue a data packet, creating the PFQ on first use. Returns true
    /// when the flow was new (the paper sends new PFQs at the initial
    /// rate).
    pub fn enqueue(&mut self, pkt: Box<Packet>, now: Time) -> bool {
        let init = self.init_rate;
        #[cfg(feature = "audit")]
        let burst = self.burst_bytes;
        let size = pkt.size as u64;
        let flow = pkt.flow;
        let slot = self.slot(flow);
        let created = slot.is_none();
        let st = slot.get_or_insert_with(|| Box::new(PfqState::new(init, now)));
        let was_empty = st.queue.is_empty();
        st.queue.push_back(pkt);
        st.bytes += size;
        st.enqueued_bytes += size;
        st.peak_bytes = st.peak_bytes.max(st.bytes);
        #[cfg(feature = "audit")]
        st.audit_invariants(burst);
        self.total_bytes += size;
        self.peak_total_bytes = self.peak_total_bytes.max(self.total_bytes);
        if was_empty {
            self.active.push_back(flow);
        }
        created
    }

    /// Read the credit stamp for a flow (creating nothing).
    pub fn c_d(&self, flow: FlowId) -> Option<u32> {
        self.get(flow).map(|s| s.c_d)
    }

    /// Record the credit counter C_R read from an ACK (Algorithm 1 line 3-4).
    pub fn set_credit(&mut self, flow: FlowId, c_r: u32, now: Time) {
        let init = self.init_rate;
        let st = self
            .slot(flow)
            .get_or_insert_with(|| Box::new(PfqState::new(init, now)));
        st.c_d = c_r;
    }

    /// Apply the dequeue rate R_credit read from an ACK.
    pub fn set_rate(&mut self, flow: FlowId, rate: Bandwidth, now: Time) {
        let init = self.init_rate;
        let burst = self.burst_bytes;
        let st = self
            .slot(flow)
            .get_or_insert_with(|| Box::new(PfqState::new(init, now)));
        // Settle tokens at the old rate before switching.
        st.refill(now, burst);
        st.rate_bps = rate.max(1);
    }

    /// Attempt to dequeue the next packet under per-flow pacing.
    pub fn dequeue(&mut self, now: Time) -> PfqDequeue {
        if self.active.is_empty() {
            return PfqDequeue::Empty;
        }
        let burst = self.burst_bytes;
        let n = self.active.len();
        let mut next_at: Option<Time> = None;
        for _ in 0..n {
            let flow = self.active[0];
            let st = self.flows[flow.index()]
                .as_deref_mut()
                .expect("active flow has a PFQ");
            st.refill(now, burst);
            match st.eligible_in() {
                Some(0) => {
                    let pkt = st.queue.pop_front().expect("eligible head exists");
                    let size = pkt.size as u64;
                    st.bytes -= size;
                    st.dequeued_bytes += size;
                    st.tokens -= size as f64;
                    #[cfg(feature = "audit")]
                    st.audit_invariants(burst);
                    self.total_bytes -= size;
                    self.active.pop_front();
                    if !st.queue.is_empty() {
                        self.active.push_back(flow);
                    }
                    return PfqDequeue::Packet(pkt);
                }
                Some(dt) => {
                    let t = now + dt;
                    next_at = Some(next_at.map_or(t, |cur: Time| cur.min(t)));
                    self.active.rotate_left(1);
                }
                None => {
                    // Rate currently zero; skip until a rate update.
                    self.active.rotate_left(1);
                }
            }
        }
        match next_at {
            Some(t) => PfqDequeue::NextAt(t),
            // All active flows are rate-zero: poll again when a rate
            // arrives; signal Empty so no timer spins.
            None => PfqDequeue::Empty,
        }
    }

    /// Remove and yield every queued packet across all per-flow queues
    /// — the crash path for a failed DCI switch. Drained packets count
    /// as dequeued in the lifetime ledgers so byte accounting stays
    /// balanced; tokens and rates are untouched for a potential
    /// restart.
    pub fn drain_all(&mut self, mut f: impl FnMut(Box<Packet>)) {
        for st in self.flows.iter_mut().flatten() {
            while let Some(pkt) = st.queue.pop_front() {
                let size = pkt.size as u64;
                st.bytes -= size;
                st.dequeued_bytes += size;
                self.total_bytes -= size;
                f(pkt);
            }
        }
        self.active.clear();
    }

    /// Total bytes across all virtual queues.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Iterate over (flow, queued bytes) for monitoring.
    pub fn per_flow_bytes(&self) -> impl Iterator<Item = (FlowId, u64)> + '_ {
        self.flows.iter().enumerate().filter_map(|(i, s)| {
            s.as_deref()
                .filter(|st| st.bytes > 0)
                .map(move |st| (FlowId(i as u32), st.bytes))
        })
    }

    /// Full-set audit: per-flow credit invariants, queue contents vs
    /// byte counters, and total-byte conservation across the set.
    /// O(queued packets) — called at drain time, not per event.
    #[cfg(feature = "audit")]
    pub fn audit_check(&self) {
        let mut total = 0u64;
        for st in self.flows.iter().flatten() {
            st.audit_invariants(self.burst_bytes);
            let queued: u64 = st.queue.iter().map(|p| p.size as u64).sum();
            assert_eq!(
                queued, st.bytes,
                "AUDIT VIOLATION: PFQ queue contents disagree with byte counter"
            );
            total += st.bytes;
        }
        assert_eq!(
            total, self.total_bytes,
            "AUDIT VIOLATION: PFQ total_bytes disagrees with per-flow sum"
        );
    }

    /// Visit every queued packet (the auditor's drain-time census).
    #[cfg(feature = "audit")]
    pub fn for_each_packet(&self, mut f: impl FnMut(&Packet)) {
        for st in self.flows.iter().flatten() {
            for pkt in &st.queue {
                f(pkt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NodeId;
    use crate::units::{GBPS, MS};

    fn pkt(flow: u32, id: u64) -> Box<Packet> {
        Box::new(Packet::data(
            id,
            FlowId(flow),
            NodeId(0),
            NodeId(1),
            0,
            1000,
            0,
        ))
    }

    #[test]
    fn new_flow_creates_pfq() {
        let mut set = PfqSet::new(25 * GBPS, 1048);
        assert!(set.enqueue(pkt(3, 1), 0));
        assert!(!set.enqueue(pkt(3, 2), 10));
        assert_eq!(
            set.per_flow_bytes().collect::<Vec<_>>(),
            vec![(FlowId(3), 2 * 1048)]
        );
        assert_eq!(set.total_bytes(), 2 * 1048);
    }

    #[test]
    fn paced_dequeue_matches_rate() {
        // 1 Gbps: a 1048-byte packet every 8.384 us.
        let mut set = PfqSet::new(1 * GBPS, 1048);
        for i in 0..3 {
            set.enqueue(pkt(0, i), 0);
        }
        // At t=0 there are no tokens yet.
        let first = match set.dequeue(0) {
            PfqDequeue::NextAt(t) => t,
            other => panic!("expected NextAt, got {other:?}"),
        };
        assert_eq!(first, tx_time(1048, 1 * GBPS));
        // At the suggested time, the packet dequeues.
        match set.dequeue(first) {
            PfqDequeue::Packet(p) => assert_eq!(p.id, 0),
            other => panic!("expected packet, got {other:?}"),
        }
        // Immediately after, the next packet is not yet eligible.
        match set.dequeue(first) {
            PfqDequeue::NextAt(t) => assert!(t > first),
            other => panic!("expected NextAt, got {other:?}"),
        }
    }

    #[test]
    fn round_robin_across_flows() {
        let mut set = PfqSet::new(100 * GBPS, 1048);
        set.enqueue(pkt(0, 10), 0);
        set.enqueue(pkt(0, 11), 0);
        set.enqueue(pkt(1, 20), 0);
        set.enqueue(pkt(1, 21), 0);
        // Give both flows plenty of tokens.
        let t = 1 * MS;
        let mut order = Vec::new();
        for _ in 0..4 {
            match set.dequeue(t) {
                PfqDequeue::Packet(p) => order.push(p.flow.0),
                other => panic!("expected packet, got {other:?}"),
            }
        }
        assert_eq!(order, vec![0, 1, 0, 1], "flows alternate");
    }

    #[test]
    fn rate_update_applies() {
        let mut set = PfqSet::new(1 * GBPS, 1048);
        set.enqueue(pkt(0, 1), 0);
        set.set_rate(FlowId(0), 100 * GBPS, 0);
        // At 100 Gbps eligibility comes 100x sooner.
        match set.dequeue(0) {
            PfqDequeue::NextAt(t) => assert_eq!(t, tx_time(1048, 100 * GBPS)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn credit_stamp_round_trip() {
        let mut set = PfqSet::new(1 * GBPS, 1048);
        set.enqueue(pkt(7, 1), 0);
        assert_eq!(set.c_d(FlowId(7)), Some(0));
        set.set_credit(FlowId(7), 5, 0);
        assert_eq!(set.c_d(FlowId(7)), Some(5));
    }

    #[test]
    fn empty_set() {
        let mut set = PfqSet::new(1 * GBPS, 1048);
        assert!(matches!(set.dequeue(0), PfqDequeue::Empty));
        assert_eq!(set.total_bytes(), 0);
    }

    #[test]
    fn token_cap_limits_burst() {
        let mut set = PfqSet::new(10 * GBPS, 1048);
        // Enqueue long after creation: tokens would be huge without a cap.
        set.enqueue(pkt(0, 1), 0);
        for i in 2..6 {
            set.enqueue(pkt(0, i), 0);
        }
        // After a long idle period, at most burst_bytes of tokens exist:
        // two packets dequeue immediately, the third must wait.
        let t = 10 * MS;
        assert!(matches!(set.dequeue(t), PfqDequeue::Packet(_)));
        assert!(matches!(set.dequeue(t), PfqDequeue::Packet(_)));
        match set.dequeue(t) {
            PfqDequeue::NextAt(next) => assert!(next > t),
            other => panic!("expected pacing delay, got {other:?}"),
        }
    }

    #[test]
    fn per_flow_bytes_reports_queued() {
        let mut set = PfqSet::new(1 * GBPS, 1048);
        set.enqueue(pkt(2, 1), 0);
        set.enqueue(pkt(5, 2), 0);
        set.enqueue(pkt(5, 3), 0);
        let mut v: Vec<_> = set.per_flow_bytes().collect();
        v.sort();
        assert_eq!(v, vec![(FlowId(2), 1048), (FlowId(5), 2 * 1048)]);
    }

    #[test]
    fn long_run_rate_is_accurate() {
        // Dequeue continuously for 1 ms at 5 Gbps and verify the achieved
        // rate is within 1% of the target.
        let rate = 5 * GBPS;
        let mut set = PfqSet::new(rate, 1048);
        for i in 0..2000 {
            set.enqueue(pkt(0, i), 0);
        }
        let mut now = 0;
        let mut bytes = 0u64;
        let horizon = 1 * MS;
        loop {
            match set.dequeue(now) {
                PfqDequeue::Packet(p) => bytes += p.size as u64,
                PfqDequeue::NextAt(t) => {
                    if t > horizon {
                        break;
                    }
                    now = t;
                }
                PfqDequeue::Empty => break,
            }
            if now > horizon {
                break;
            }
        }
        let achieved = bytes as f64 * 8.0 / (horizon as f64 / SEC as f64);
        let target = rate as f64;
        assert!(
            (achieved - target).abs() / target < 0.01,
            "achieved {achieved}, target {target}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::{SimRng, Xoshiro256StarStar};
    use crate::types::NodeId;
    use crate::units::{GBPS, US};

    /// Byte accounting is conserved: total_bytes always equals the sum
    /// of per-flow bytes, and dequeued ≤ enqueued (seeded-loop property
    /// test over random enqueue/dequeue traces on 4 flows).
    #[test]
    fn byte_conservation() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x9F6);
        for _ in 0..64 {
            let n_ops = rng.gen_range(1..200);
            let mut set = PfqSet::new(100 * GBPS, 1048);
            let mut now = 0u64;
            let mut id = 0u64;
            for _ in 0..n_ops {
                let flow = rng.gen_range(0..4) as u32;
                now += 10 * US;
                match rng.gen_range(0..8) {
                    0..=3 => {
                        id += 1;
                        set.enqueue(
                            Box::new(Packet::data(
                                id,
                                FlowId(flow),
                                NodeId(0),
                                NodeId(1),
                                0,
                                1000,
                                now,
                            )),
                            now,
                        );
                    }
                    4..=5 => {
                        // Dequeue; sometimes drop the box on the floor
                        // (admission-fail churn) — accounting must not care.
                        if let PfqDequeue::Packet(p) = set.dequeue(now) {
                            drop(p);
                        }
                    }
                    6 => {
                        let rate = (1 + rng.gen_range(0..100)) * GBPS;
                        set.set_rate(FlowId(flow), rate, now);
                    }
                    _ => set.set_credit(FlowId(flow), rng.gen_range(0..1000) as u32, now),
                }
                let per_flow: u64 = set.per_flow_bytes().map(|(_, b)| b).sum();
                assert_eq!(per_flow, set.total_bytes());
                for (f, b) in set.per_flow_bytes() {
                    let st = set.get(f).unwrap();
                    assert_eq!(st.bytes(), b);
                    assert!(st.dequeued_bytes <= st.enqueued_bytes);
                    assert_eq!(st.enqueued_bytes - st.dequeued_bytes, b);
                    assert!(st.peak_bytes >= b);
                }
            }
        }
    }
}
