#![allow(clippy::identity_op)] // `1 * MS` reads better than `MS` in timing code

//! # mlcc-core — Micro Loop Congestion Control
//!
//! The paper's contribution: a cross-datacenter congestion-control
//! protocol built from **fast micro control loops** instead of one long
//! end-to-end loop.
//!
//! ```text
//!  sender ──data──▶ [sender-side DC] ──▶ DCI ══ long haul ══ DCI ──▶ [receiver-side DC] ──▶ receiver
//!    ▲                                   │                    ▲  per-flow queues (PFQ)        │
//!    └────── Switch-INT (R_NS) ──────────┘                    └── R_credit via ACKs ──────────┘
//!    ▲                                                                                        │
//!    └───────────────────────────── R̄_DQM in ACKs (Eq. 9) ──────────────────────────────────┘
//! ```
//!
//! * **Near-source loop** (§3.2.1): the sender-side DCI strips the INT
//!   stack from departing data and returns it to the sender in a
//!   Switch-INT packet; [`rate_ctl::IntRateController`] turns it into
//!   `R_NS` within one intra-DC RTT.
//! * **Receiver-driven loop** (§3.2.2, Algorithm 1): [`credit::CreditLoop`]
//!   paces one update per receiver-side RTT via the credit echo and
//!   computes the PFQ dequeue rate `R_credit`.
//! * **DQM** (§3.3.1, Algorithm 2): [`dqm::Dqm`] predicts the DCI queue
//!   one cross-DC RTT ahead (Eq. 1–4), derates the sender (Eq. 5), and
//!   smooths with a token bucket (Eq. 6–9, [`token::TokenSmoother`]).
//! * **End-to-end combine** (§3.3.2): [`MlccSender`] is the DQM governor
//!   [`DqmGoverned`] over the near-source loop [`NearSource`]; it sends
//!   at `min(R_NS, R̄_DQM)` (Eq. 10), the same combine the hybrid applies
//!   to a legacy sender.
//!
//! The data-plane mechanics (PFQ, credit stamping, Switch-INT emission)
//! live in `netsim`'s DCI switch; enable them with
//! [`netsim::config::DciFeatures::mlcc`].

pub mod credit;
pub mod dqm;
pub mod hybrid;
pub mod params;
pub mod rate_ctl;
pub mod receiver;
pub mod sender;
pub mod token;

use netsim::cc::{CcEnv, CcFactory, IntEchoReceiver, ReceiverCc, SenderCc};

pub use credit::{CreditLoop, CreditRound};
pub use dqm::Dqm;
pub use hybrid::{DqmGoverned, HybridFactory};
pub use params::MlccParams;
pub use rate_ctl::{HopFilter, IntRateController};
pub use receiver::MlccReceiver;
pub use sender::{MlccSender, NearSource};
pub use token::TokenSmoother;

/// Factory wiring MLCC senders and receivers per flow.
///
/// Remember to run the simulator with
/// [`DciFeatures::mlcc()`](netsim::config::DciFeatures::mlcc) so the DCI
/// switches actually operate the PFQ and near-source mechanisms.
#[derive(Default)]
pub struct MlccFactory {
    pub params: MlccParams,
}

impl MlccFactory {
    pub fn new(params: MlccParams) -> Self {
        MlccFactory { params }
    }

    /// The MLCC sender of the flow `env` describes. The near-source
    /// loop runs over the sender-side DC RTT on cross-DC flows and over
    /// the path RTT on intra-DC flows.
    fn mlcc_sender(&self, env: &CcEnv) -> MlccSender {
        let path = &env.path;
        let loop_rtt = if path.cross_dc {
            path.src_dc_rtt
        } else {
            path.base_rtt
        };
        let ns = NearSource::new(&self.params, path.line_rate_bps, loop_rtt, path.cross_dc);
        DqmGoverned::new(ns, path.line_rate_bps, path.cross_dc)
    }
}

impl CcFactory for MlccFactory {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
        Box::new(self.mlcc_sender(env))
    }

    /// Cross-DC flows run the credit loop and DQM; intra-DC flows run
    /// the short end-to-end INT loop, whose receiver just echoes the
    /// stack.
    fn receiver(&self, env: &CcEnv) -> Box<dyn ReceiverCc> {
        if env.path.cross_dc {
            Box::new(MlccReceiver::for_cross_dc(self.params, env))
        } else {
            Box::new(IntEchoReceiver)
        }
    }

    fn name(&self) -> &'static str {
        "mlcc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::cc::AckView;
    use netsim::flow::{FlowPath, FlowSpec};
    use netsim::int::{IntHop, IntStack};
    use netsim::packet::Packet;
    use netsim::types::{FlowId, NodeId};
    use netsim::units::{bytes_in, Time, GBPS, MS, US};

    fn env(cross: bool) -> CcEnv {
        CcEnv {
            flow: FlowSpec {
                id: FlowId(0),
                src: NodeId(0),
                dst: NodeId(1),
                size_bytes: 1_000_000,
                start: 0,
            },
            path: FlowPath {
                base_rtt: if cross { 6 * MS } else { 10 * US },
                src_dc_rtt: 20 * US,
                dst_dc_rtt: 25 * US,
                cross_dc: cross,
                line_rate_bps: 25 * GBPS,
                bottleneck_bps: 25 * GBPS,
                hops: if cross { 7 } else { 2 },
            },
            mtu_bytes: 1000,
        }
    }

    #[test]
    fn factory_builds_both_halves() {
        let f = MlccFactory::default();
        let s = f.sender(&env(true));
        assert_eq!(s.name(), "mlcc");
        assert_eq!(s.rate_bps(), 25e9);
        let _r = f.receiver(&env(true));
        let _s2 = f.sender(&env(false));
    }

    fn hop(ts: Time, qlen: u64, tx: u64, is_dci: bool) -> IntHop {
        IntHop {
            hop_id: if is_dci { 50 } else { 1 },
            ts,
            qlen_bytes: qlen,
            tx_bytes: tx,
            link_bps: 25 * GBPS,
            is_dci,
        }
    }

    #[test]
    fn receivers_run_loops_only_for_cross_dc_flows() {
        let f = MlccFactory::default();
        // The first packet a PFQ credited (C_D = 0) closes a credit round.
        let mut pkt = Packet::data(1, FlowId(0), NodeId(0), NodeId(1), 0, 1000, 0);
        pkt.mlcc.set_c_d(Some(0));
        pkt.push_hop(hop(0, 0, 0, true));
        pkt.push_hop(hop(0, 0, 0, false));

        let intra = f.receiver(&env(false)).on_data(&pkt, 0);
        assert!(intra.echo_int, "the intra-DC INT loop needs the stack");
        assert!(intra.mlcc.c_r().is_none());
        assert!(intra.mlcc.r_credit_bps().is_none());
        assert!(intra.mlcc.r_dqm_bps().is_none());

        let cross = f.receiver(&env(true)).on_data(&pkt, 0);
        assert!(!cross.echo_int);
        assert_eq!(cross.mlcc.c_r(), Some(1));
        assert!(cross.mlcc.r_credit_bps().is_some());
        assert!(cross.mlcc.r_dqm_bps().is_some());
    }

    #[test]
    fn cross_dc_sender_sends_at_eq10() {
        let f = MlccFactory::default();
        let mut s = f.mlcc_sender(&env(true));
        let eq10 = |s: &MlccSender| s.inner().rate_bps().min(s.ceiling_bps());
        let empty = IntStack::new();
        let ack = |r_dqm, now| AckView {
            seq: 1,
            ecn_echo: false,
            rtt_sample: Some(6 * MS),
            int: &empty,
            r_dqm_bps: Some(r_dqm),
            now,
        };
        // R̄_DQM binds.
        s.on_ack(&ack(5_000_000_000, 0));
        assert_eq!(s.ceiling_bps(), 5e9);
        assert_eq!(s.rate_bps(), 5e9);
        assert_eq!(s.rate_bps(), eq10(&s));
        // Switch-INT from a congested sender-side hop pushes R_NS under it.
        let t = 20 * US;
        let q = 10 * bytes_in(t, 25 * GBPS);
        for i in 0..=20u64 {
            let mut int = IntStack::new();
            int.push(hop(i * t, q, i * bytes_in(t, 25 * GBPS), false));
            s.on_switch_int(&int, i * t);
        }
        assert!(s.inner().rate_bps() < 5e9, "{}", s.inner().rate_bps());
        assert_eq!(s.rate_bps(), s.inner().rate_bps());
        assert_eq!(s.rate_bps(), eq10(&s));
    }

    #[test]
    fn factory_name() {
        assert_eq!(MlccFactory::default().name(), "mlcc");
    }
}
