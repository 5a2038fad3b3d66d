//! PowerTCP (Addanki et al., NSDI 2022) — power-based (current × voltage)
//! window control from INT.
//!
//! For each hop the sender computes normalized power
//! `Γ = (λ · v) / (C · BDP)` where the *current* `λ = dq/dt·8 + txRate`
//! captures both queue growth and throughput, and the *voltage*
//! `v = q·8 + C·τ` is the queue plus one base-RTT BDP (in bits). The
//! bottleneck is the hop with maximum power. The window update smooths
//! `w ← γ(w_past/Γ + β) + (1-γ)w`, reacting to both the queue's level and
//! its derivative — PowerTCP's key advantage over HPCC on transients.

use netsim::cc::{clamp_rate, AckView, SenderCc};
use netsim::int::{HopHistory, IntHop};
use netsim::units::{bytes_in, rate_bps, Bandwidth, Time, SEC};

/// PowerTCP parameters (paper defaults).
#[derive(Clone, Copy, Debug)]
pub struct PowerTcpParams {
    /// EWMA smoothing factor γ.
    pub gamma: f64,
    /// Additive term β in bytes; the paper sets it from the expected flow
    /// count — we default to Wmax·(1-η)/N like HPCC with η=0.95, N=16,
    /// computed at construction.
    pub beta_flows: u32,
}

impl Default for PowerTcpParams {
    fn default() -> Self {
        PowerTcpParams {
            gamma: 0.9,
            beta_flows: 16,
        }
    }
}

/// PowerTCP sender state for one flow.
pub struct PowerTcp {
    p: PowerTcpParams,
    line_rate: f64,
    base_rtt: Time,
    w_max: f64,
    beta: f64,
    w: f64,
    /// Previous INT record per hop.
    hops: HopHistory,
}

impl PowerTcp {
    pub fn new(p: PowerTcpParams, line_rate_bps: Bandwidth, base_rtt: Time) -> Self {
        let w_max = bytes_in(base_rtt, line_rate_bps) as f64;
        let beta = (w_max * 0.05 / p.beta_flows as f64).max(1.0);
        PowerTcp {
            p,
            line_rate: line_rate_bps as f64,
            base_rtt,
            w_max,
            beta,
            w: w_max,
            hops: HopHistory::new(),
        }
    }

    #[inline]
    pub fn window(&self) -> f64 {
        self.w
    }
}

/// Normalized power of one hop given its previous record from the same
/// hop, for a flow with base RTT `base_rtt`.
fn hop_power(base_rtt: Time, cur: &IntHop, prev: &IntHop) -> Option<f64> {
    if cur.ts <= prev.ts {
        return None;
    }
    let dt = (cur.ts - prev.ts) as f64 / SEC as f64;
    let dq_bits = (cur.qlen_bytes as f64 - prev.qlen_bytes as f64) * 8.0;
    let tx = rate_bps(cur.tx_bytes.saturating_sub(prev.tx_bytes), cur.ts - prev.ts);
    let lambda = (dq_bits / dt + tx).max(0.0);
    let c = cur.link_bps as f64;
    let tau = base_rtt as f64 / SEC as f64;
    let v = cur.qlen_bytes as f64 * 8.0 + c * tau;
    let base = c * (c * tau);
    if base <= 0.0 {
        return None;
    }
    Some((lambda * v / base).max(1e-3))
}

impl SenderCc for PowerTcp {
    fn on_ack(&mut self, ack: &AckView<'_>) {
        // Bottleneck = maximum normalized power across hops.
        let base_rtt = self.base_rtt;
        let gamma_norm = self.hops.max_over(
            ack.int,
            |_| true,
            |cur, prev| hop_power(base_rtt, cur, prev),
        );
        let Some(g) = gamma_norm else {
            return;
        };
        let target = self.w / g + self.beta;
        let mut w_new = self.p.gamma * target + (1.0 - self.p.gamma) * self.w;
        // Bound the per-ACK step: INT records are quantized at packet
        // granularity, so the instantaneous dq/dt term swings wildly at
        // small BDPs; an unbounded step lets single-sample noise crash
        // the window. ±1/3 per ACK still halves/doubles within ~3 ACKs.
        w_new = w_new.clamp(0.75 * self.w, 1.33 * self.w);
        self.w = w_new.clamp(1.0, self.w_max);
    }

    fn rate_bps(&self) -> f64 {
        let t = self.base_rtt.max(1) as f64 / SEC as f64;
        clamp_rate(self.w * 8.0 / t, self.line_rate as u64)
    }

    fn window_bytes(&self) -> Option<u64> {
        Some(self.w as u64)
    }

    fn name(&self) -> &'static str {
        "powertcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::int::IntStack;
    use netsim::units::{GBPS, US};

    const LINE: u64 = 25 * GBPS;
    const BASE: Time = 10 * US;

    fn hop(ts: Time, qlen: u64, tx: u64) -> IntHop {
        IntHop {
            hop_id: 1,
            ts,
            qlen_bytes: qlen,
            tx_bytes: tx,
            link_bps: LINE,
            is_dci: false,
        }
    }

    fn feed(p: &mut PowerTcp, hopinfo: IntHop) {
        let mut int = IntStack::new();
        int.push(hopinfo);
        p.on_ack(&AckView {
            seq: 0,
            ecn_echo: false,
            rtt_sample: Some(BASE),
            int: &int,
            r_dqm_bps: None,
            now: hopinfo.ts,
        });
    }

    #[test]
    fn equilibrium_at_line_rate_empty_queue() {
        // λ = C, v = BDP → Γ = 1 → window drifts to w + β (≈ stable).
        let mut p = PowerTcp::new(PowerTcpParams::default(), LINE, BASE);
        let w0 = p.window();
        let per = bytes_in(BASE, LINE);
        let mut tx = 0;
        feed(&mut p, hop(0, 0, tx));
        for i in 1..10u64 {
            tx += per;
            feed(&mut p, hop(i * BASE, 0, tx));
        }
        assert!(
            p.window() >= w0 * 0.95 && p.window() <= w0 + 1.0,
            "w {}",
            p.window()
        );
    }

    #[test]
    fn growing_queue_cuts_window_before_its_large() {
        // Queue growing fast but still small: the derivative term must
        // already push the window down (PowerTCP's selling point).
        let mut p = PowerTcp::new(PowerTcpParams::default(), LINE, BASE);
        let per = bytes_in(BASE, LINE);
        let w0 = p.window();
        feed(&mut p, hop(0, 0, 0));
        // In one RTT the queue grows by a full BDP while the hop also
        // transmits at line rate: λ = 2C, v slightly above BDP → Γ ≈ 2.
        // Each ACK step is bounded at -25%; two congested samples
        // compound.
        feed(&mut p, hop(BASE, per, per));
        feed(&mut p, hop(2 * BASE, 2 * per, 2 * per));
        assert!(p.window() < w0 * 0.7, "w {} vs {}", p.window(), w0);
    }

    #[test]
    fn standing_queue_also_cuts() {
        let mut p = PowerTcp::new(PowerTcpParams::default(), LINE, BASE);
        let per = bytes_in(BASE, LINE);
        let w0 = p.window();
        feed(&mut p, hop(0, 2 * per, 0));
        // Standing queue of 2 BDP at line rate: λ = C, v = 3·BDP → Γ = 3.
        feed(&mut p, hop(BASE, 2 * per, per));
        feed(&mut p, hop(2 * BASE, 2 * per, 2 * per));
        feed(&mut p, hop(3 * BASE, 2 * per, 3 * per));
        assert!(p.window() < w0 * 0.6, "w {}", p.window());
    }

    #[test]
    fn draining_queue_lets_window_recover() {
        let mut p = PowerTcp::new(PowerTcpParams::default(), LINE, BASE);
        let per = bytes_in(BASE, LINE);
        // Crash the window with a big queue first.
        feed(&mut p, hop(0, 4 * per, 0));
        feed(&mut p, hop(BASE, 4 * per, per));
        let w_low = p.window();
        // Queue draining to zero with low throughput: Γ < 1 → grow.
        feed(&mut p, hop(2 * BASE, per / 4, per + per / 8));
        feed(&mut p, hop(3 * BASE, 0, per + per / 4));
        assert!(p.window() > w_low, "w {} vs {}", p.window(), w_low);
    }

    #[test]
    fn window_bounded() {
        let mut p = PowerTcp::new(PowerTcpParams::default(), LINE, BASE);
        let bdp = bytes_in(BASE, LINE) as f64;
        feed(&mut p, hop(0, 0, 0));
        for i in 1..100u64 {
            // Alternate absurd overload and idle.
            let q = if i % 2 == 0 { 100 * bdp as u64 } else { 0 };
            feed(&mut p, hop(i * BASE, q, i * bdp as u64));
            assert!(p.window() >= 1.0 && p.window() <= bdp);
        }
    }
}
