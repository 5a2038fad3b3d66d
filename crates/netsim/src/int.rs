//! In-band network telemetry (INT).
//!
//! Every egress pushes one [`IntHop`] record onto a data packet as the
//! packet starts serializing, exactly like the HPCC/Tofino INT model:
//! a timestamp, the queue length left behind, the cumulative bytes ever
//! transmitted by that egress, and the egress line rate. Receivers (and the
//! MLCC DCI switch) difference consecutive records from the same hop to
//! recover the hop's short-term throughput.

use crate::units::{rate_bps, Bandwidth, Time};

/// Maximum number of hop records a packet can carry.
///
/// The deepest path in the two-DC topology is
/// host → leaf → spine → DCI → DCI → spine → leaf → host = 7 egresses,
/// and the MLCC DCI strips the stack mid-path, so 8 is comfortable.
pub const MAX_INT_HOPS: usize = 8;

/// Telemetry older than this many loop base RTTs is stale: a controller
/// stops trusting it and discards its [`HopHistory`], because per-hop
/// deltas spanning a dark period (loss burst, link flap) mix pre-gap
/// queue samples with post-gap counters and produce garbage utilization
/// estimates. MLCC's INT rate controller and HPCC share this guard.
pub const STALE_RTT_MULTIPLE: u64 = 16;

/// One hop's telemetry record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntHop {
    /// Identifier of the egress that produced the record (stable per link).
    pub hop_id: u32,
    /// Time the record was produced (egress serialization start).
    pub ts: Time,
    /// Bytes queued at the egress when the packet departed.
    pub qlen_bytes: u64,
    /// Cumulative bytes ever transmitted by this egress.
    pub tx_bytes: u64,
    /// Egress line rate.
    pub link_bps: Bandwidth,
    /// True when the record came from a DCI-switch per-flow queue; the MLCC
    /// receiver treats that hop with the DQM algorithm rather than the
    /// credit (intra-DC) loop.
    pub is_dci: bool,
}

impl IntHop {
    /// Hop utilization estimate given the previous record from the same
    /// hop, following HPCC: `U = qlen/(B*T) + txRate/B`.
    ///
    /// `t_base` is the control-loop base RTT used to normalize the queue
    /// term. Returns `None` when the records cannot be differenced (e.g.
    /// same timestamp or mismatched hop).
    pub fn utilization(&self, prev: &IntHop, t_base: Time) -> Option<f64> {
        if prev.hop_id != self.hop_id || self.ts <= prev.ts {
            return None;
        }
        let tx_rate = rate_bps(
            self.tx_bytes.saturating_sub(prev.tx_bytes),
            self.ts - prev.ts,
        );
        let bdp = crate::units::bytes_in(t_base, self.link_bps) as f64;
        let qterm = if bdp > 0.0 {
            // Use the smaller of the two queue samples, like HPCC's
            // reference implementation, to avoid double counting the
            // transient spike the rate term already captures.
            self.qlen_bytes.min(prev.qlen_bytes) as f64 / bdp
        } else {
            0.0
        };
        Some(qterm + tx_rate / self.link_bps as f64)
    }
}

/// A fixed-capacity stack of [`IntHop`] records carried in a packet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntStack {
    hops: [IntHop; MAX_INT_HOPS],
    len: u8,
}

const EMPTY_HOP: IntHop = IntHop {
    hop_id: 0,
    ts: 0,
    qlen_bytes: 0,
    tx_bytes: 0,
    link_bps: 0,
    is_dci: false,
};

impl Default for IntStack {
    fn default() -> Self {
        Self::new()
    }
}

impl IntStack {
    /// An empty stack.
    pub const fn new() -> Self {
        IntStack {
            hops: [EMPTY_HOP; MAX_INT_HOPS],
            len: 0,
        }
    }

    /// Number of records currently carried.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no records are carried.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Push a record. Silently drops records beyond [`MAX_INT_HOPS`], like
    /// hardware INT with a bounded header budget; paths in this repository
    /// never exceed the budget.
    #[inline]
    pub fn push(&mut self, hop: IntHop) {
        if (self.len as usize) < MAX_INT_HOPS {
            self.hops[self.len as usize] = hop;
            self.len += 1;
        } else {
            debug_assert!(false, "INT stack overflow: path deeper than MAX_INT_HOPS");
        }
    }

    /// Remove all records, returning the previous contents.
    pub fn take(&mut self) -> IntStack {
        std::mem::take(self)
    }

    /// Clear all records.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The records as a slice, oldest (closest to the sender) first.
    #[inline]
    pub fn hops(&self) -> &[IntHop] {
        &self.hops[..self.len as usize]
    }

    /// Wire size contribution of the INT metadata, bytes (reporting only;
    /// packets in this simulator use fixed header budgets).
    pub fn wire_bytes(&self) -> u32 {
        self.len as u32 * 16
    }
}

/// Per-flow memory of the last record seen from each hop, used to compute
/// per-hop utilization from consecutive stacks.
///
/// Storage is a fixed inline array, not a `Vec`: this struct lives
/// inside per-flow CC state and is fed on the ACK hot path, where a lazy
/// heap growth per fresh flow would break the zero-allocation
/// steady-state guarantee under flow churn (see `tests/collective_churn.rs`).
/// A path carries at most [`MAX_INT_HOPS`] records; if a reroute ever
/// parades more distinct hops past one flow than that, the stalest entry
/// is evicted.
#[derive(Clone, Debug)]
pub struct HopHistory {
    prev: [IntHop; MAX_INT_HOPS],
    len: usize,
}

impl Default for HopHistory {
    fn default() -> Self {
        HopHistory {
            prev: [EMPTY_HOP; MAX_INT_HOPS],
            len: 0,
        }
    }
}

impl HopHistory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `hop` as the latest sighting, evicting the stalest entry
    /// if all slots are taken by other hops.
    fn remember(&mut self, hop: &IntHop) {
        if self.len < MAX_INT_HOPS {
            self.prev[self.len] = *hop;
            self.len += 1;
            return;
        }
        let stalest = (0..self.len)
            .min_by_key(|&i| self.prev[i].ts)
            .expect("history is non-empty when full");
        self.prev[stalest] = *hop;
    }

    /// Fold a new stack into the history and return the maximum hop
    /// utilization across the stack (HPCC's bottleneck rule), if any hop
    /// could be differenced.
    ///
    /// `filter` selects which hops participate (e.g. exclude DCI hops when
    /// computing the intra-DC credit rate).
    pub fn max_utilization<F>(&mut self, stack: &IntStack, t_base: Time, filter: F) -> Option<f64>
    where
        F: FnMut(&IntHop) -> bool,
    {
        self.max_over(stack, filter, |cur, prev| cur.utilization(prev, t_base))
    }

    /// Fold a new stack into the history and return the maximum of
    /// `metric(current, previous)` over the hops `filter` selects, if any
    /// hop had a previous record and `metric` produced a value for it.
    /// A hop's first sighting is only remembered.
    pub fn max_over<F, M>(&mut self, stack: &IntStack, mut filter: F, mut metric: M) -> Option<f64>
    where
        F: FnMut(&IntHop) -> bool,
        M: FnMut(&IntHop, &IntHop) -> Option<f64>,
    {
        let mut max: Option<f64> = None;
        for hop in stack.hops() {
            if !filter(hop) {
                continue;
            }
            if let Some(prev) = self.prev[..self.len]
                .iter_mut()
                .find(|p| p.hop_id == hop.hop_id)
            {
                if let Some(m) = metric(hop, prev) {
                    max = Some(max.map_or(m, |x: f64| x.max(m)));
                }
                *prev = *hop;
            } else {
                self.remember(hop);
            }
        }
        max
    }

    /// Most recent record seen for a given hop, if any.
    pub fn last(&self, hop_id: u32) -> Option<&IntHop> {
        self.prev[..self.len].iter().find(|p| p.hop_id == hop_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{GBPS, US};

    fn hop(hop_id: u32, ts: Time, qlen: u64, tx: u64) -> IntHop {
        IntHop {
            hop_id,
            ts,
            qlen_bytes: qlen,
            tx_bytes: tx,
            link_bps: 100 * GBPS,
            is_dci: false,
        }
    }

    #[test]
    fn stack_push_and_read() {
        let mut s = IntStack::new();
        assert!(s.is_empty());
        s.push(hop(1, 10, 0, 0));
        s.push(hop(2, 20, 5, 100));
        assert_eq!(s.len(), 2);
        assert_eq!(s.hops()[0].hop_id, 1);
        assert_eq!(s.hops()[1].hop_id, 2);
    }

    #[test]
    fn stack_take_empties() {
        let mut s = IntStack::new();
        s.push(hop(1, 10, 0, 0));
        let t = s.take();
        assert!(s.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn stack_bounded() {
        let mut s = IntStack::new();
        for i in 0..MAX_INT_HOPS {
            s.push(hop(i as u32, i as Time, 0, 0));
        }
        assert_eq!(s.len(), MAX_INT_HOPS);
    }

    #[test]
    fn utilization_pure_rate() {
        // Empty queue, transmitting at exactly line rate over 10 us:
        // U should be ~1.0.
        let bw = 100 * GBPS;
        let bytes = crate::units::bytes_in(10 * US, bw);
        let a = hop(1, 0, 0, 0);
        let b = hop(1, 10 * US, 0, bytes);
        let u = b.utilization(&a, 10 * US).unwrap();
        assert!((u - 1.0).abs() < 1e-6, "u = {u}");
    }

    #[test]
    fn utilization_queue_term() {
        // No transmission, but a standing queue of exactly one BDP: U ~= 1.
        let t_base = 10 * US;
        let bdp = crate::units::bytes_in(t_base, 100 * GBPS);
        let a = hop(1, 0, bdp, 0);
        let b = hop(1, 10 * US, bdp, 0);
        let u = b.utilization(&a, t_base).unwrap();
        assert!((u - 1.0).abs() < 1e-6, "u = {u}");
    }

    #[test]
    fn utilization_rejects_bad_pairs() {
        let a = hop(1, 100, 0, 0);
        let b = hop(2, 200, 0, 0);
        assert!(b.utilization(&a, US).is_none(), "hop mismatch");
        let c = hop(1, 100, 0, 0);
        assert!(c.utilization(&a, US).is_none(), "same timestamp");
    }

    #[test]
    fn hop_history_tracks_max() {
        let mut h = HopHistory::new();
        let bw = 100 * GBPS;
        let t = 10 * US;
        let mut s1 = IntStack::new();
        s1.push(hop(1, 0, 0, 0));
        s1.push(hop(2, 0, 0, 0));
        assert!(
            h.max_utilization(&s1, t, |_| true).is_none(),
            "first stack has no deltas"
        );

        let mut s2 = IntStack::new();
        // Hop 1 at half line rate, hop 2 at line rate: max = hop 2.
        s2.push(hop(1, t, 0, crate::units::bytes_in(t, bw) / 2));
        s2.push(hop(2, t, 0, crate::units::bytes_in(t, bw)));
        let u = h.max_utilization(&s2, t, |_| true).unwrap();
        assert!((u - 1.0).abs() < 1e-6, "u = {u}");
    }

    #[test]
    fn hop_history_filter() {
        let mut h = HopHistory::new();
        let t = 10 * US;
        let bw = 100 * GBPS;
        let mk = |ts, tx| {
            let mut s = IntStack::new();
            let mut d = hop(9, ts, 0, tx);
            d.is_dci = true;
            s.push(d);
            s
        };
        h.max_utilization(&mk(0, 0), t, |hp| !hp.is_dci);
        // The DCI hop is filtered out, so no utilization is produced even
        // though the records difference cleanly.
        let u = h.max_utilization(&mk(t, crate::units::bytes_in(t, bw)), t, |hp| !hp.is_dci);
        assert!(u.is_none());
    }

    #[test]
    fn max_over_custom_metric() {
        let mut h = HopHistory::new();
        let mk = |ts, q1, q2, q9| {
            let mut s = IntStack::new();
            s.push(hop(1, ts, q1, 0));
            s.push(hop(2, ts, q2, 0));
            let mut d = hop(9, ts, q9, 0);
            d.is_dci = true;
            s.push(d);
            s
        };
        // Queue growth per hop; the DCI hop is filtered out.
        let growth =
            |cur: &IntHop, prev: &IntHop| Some(cur.qlen_bytes as f64 - prev.qlen_bytes as f64);
        assert!(
            h.max_over(&mk(0, 10, 10, 10), |hp| !hp.is_dci, growth)
                .is_none(),
            "a first sighting yields nothing"
        );
        // Hop 2 grew most among the unfiltered hops; hop 9 grew more but
        // is filtered.
        assert_eq!(
            h.max_over(&mk(5, 13, 40, 1000), |hp| !hp.is_dci, growth),
            Some(30.0)
        );
        // The metric sees the record folded last time, not the first one.
        assert_eq!(
            h.max_over(&mk(9, 14, 40, 0), |hp| !hp.is_dci, growth),
            Some(1.0)
        );
        // The filtered hop was never remembered.
        assert!(h.last(9).is_none());
        // A metric that declines every pair yields nothing but still folds.
        assert!(h
            .max_over(&mk(12, 0, 0, 0), |_| true, |_, _| None)
            .is_none());
        assert_eq!(h.last(2).map(|r| r.ts), Some(12));
    }
}
