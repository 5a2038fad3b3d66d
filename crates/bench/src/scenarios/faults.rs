//! Fault-sweep study: cross-DC transfer robustness under WAN impairments.
//!
//! The paper's evaluation assumes a clean long haul; real DCI segments
//! see random loss, bursty loss, and delay jitter. This scenario runs
//! identical cross-DC transfer batches on the testbed dumbbell while a
//! [`FaultProfile`] degrades both directions of the long-haul link, and
//! reports completion and FCT degradation relative to the clean cell.
//! The claim under test is *robustness*: loss recovery (go-back-N with
//! backed-off RTOs) plus the telemetry-staleness guards keep every flow
//! completing at WAN-plausible loss rates (≤1%), for MLCC and the
//! baselines alike.

use netsim::prelude::*;
use simstats::FctBreakdown;

use crate::algo::Algo;

/// A fault the fabric never heals from within the run — the column of
/// the sweep that exercises the graceful-degradation layer instead of
/// loss recovery. Cells carrying one must still *terminate*, with every
/// stranded flow reaching a typed [`FlowOutcome::Failed`] verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PermFault {
    /// No permanent fault (the recoverable loss/jitter column).
    None,
    /// Both long-haul directions go down mid-transfer and stay down.
    LinkCut,
    /// One receiving server crashes mid-transfer and never restarts.
    HostCrash,
}

impl PermFault {
    pub fn label(self) -> &'static str {
        match self {
            PermFault::None => "-",
            PermFault::LinkCut => "link-cut",
            PermFault::HostCrash => "host-crash",
        }
    }
}

/// One cell of the sweep: an algorithm against one impairment level.
#[derive(Clone, Copy, Debug)]
pub struct FaultCell {
    pub algo: Algo,
    /// Uniform per-packet loss probability, both long-haul directions.
    pub loss: f64,
    /// Maximum extra one-way delay, both long-haul directions.
    pub jitter: Time,
    /// Permanent, unrecoverable fault injected mid-transfer.
    pub perm: PermFault,
    pub seed: u64,
    /// Cross-DC senders per side (each sends one flow to its peer).
    pub flows_per_side: usize,
    pub flow_bytes: u64,
}

impl FaultCell {
    /// The standard sweep batch: 4 × 2 MB per side.
    pub fn sweep(algo: Algo, loss: f64, jitter: Time) -> Self {
        FaultCell {
            algo,
            loss,
            jitter,
            perm: PermFault::None,
            seed: 1,
            flows_per_side: 4,
            flow_bytes: 2_000_000,
        }
    }

    /// A cheap CI smoke batch: 2 × 500 KB per side.
    pub fn smoke(algo: Algo, loss: f64, jitter: Time) -> Self {
        FaultCell {
            algo,
            loss,
            jitter,
            perm: PermFault::None,
            seed: 1,
            flows_per_side: 2,
            flow_bytes: 500_000,
        }
    }

    /// Add a permanent failure to this cell.
    pub fn with_perm(mut self, perm: PermFault) -> Self {
        self.perm = perm;
        self
    }
}

/// Outcome of one cell.
pub struct FaultCellResult {
    pub cell: FaultCell,
    pub flows_total: usize,
    pub flows_completed: usize,
    /// Flows with a typed `Failed` verdict (permanent-failure cells).
    pub flows_failed: usize,
    /// Flows with *no* terminal verdict at the end of the run — a hung
    /// flow; the termination guarantee says this is always zero.
    pub flows_hung: usize,
    pub breakdown: FctBreakdown,
    pub fault_drops: u64,
    pub retransmits: u64,
}

impl FaultCellResult {
    pub fn completed_all(&self) -> bool {
        self.flows_completed == self.flows_total
    }
}

/// Run one cell on the dumbbell: `flows_per_side` cross-DC transfers in
/// each direction, impairments on both long-haul directions.
pub fn run_cell(cell: FaultCell) -> FaultCellResult {
    let params = DumbbellParams::default();
    let topo = DumbbellTopology::build(params);
    let degrading = cell.perm != PermFault::None;
    let cfg = SimConfig {
        // Generous ceiling: sustained 1% loss costs many backed-off RTO
        // rounds, and a stranded flow should show up as an incomplete
        // cell, not a hung benchmark.
        stop_time: 20 * SEC,
        dci: cell.algo.dci_features(),
        seed: cell.seed,
        // Permanent-failure cells arm the give-up policy (with the
        // watchdog as backstop) so stranded flows fail in bounded time
        // instead of spinning RTOs to the stop time.
        giveup_rto_limit: if degrading { 5 } else { 0 },
        watchdog_window: if degrading { 500 * MS } else { 0 },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net, cfg, cell.algo.factory());
    let mut profile = FaultProfile::uniform_loss(cell.loss).with_jitter(cell.jitter);
    if cell.perm == PermFault::LinkCut {
        // Down while the batch is still serializing onto the long haul
        // (500 KB crosses a 100 Gbps wire in 40 µs), never up within
        // the run: no flow can finish, every flow moved some bytes.
        profile.flaps.push(FlapWindow {
            down_at: 20 * US,
            up_at: cfg.stop_time + SEC,
        });
    }
    for l in topo.long_haul {
        sim.inject_link_faults(l, profile.clone());
    }
    if cell.perm == PermFault::HostCrash {
        sim.inject_node_fault(NodeFault::crash(topo.servers[1][0], 500 * US));
    }
    let mut total = 0;
    for side in 0..2 {
        let senders = &topo.servers[side];
        let receivers = &topo.servers[1 - side];
        for i in 0..cell.flows_per_side {
            let src = senders[i % senders.len()];
            let dst = receivers[i % receivers.len()];
            // Light stagger so the batch is not a synchronized burst.
            sim.add_flow(src, dst, cell.flow_bytes, (i as Time) * 100 * US);
            total += 1;
        }
    }
    sim.run_until_flows_complete();
    FaultCellResult {
        cell,
        flows_total: total,
        flows_completed: sim.out.fcts.len(),
        flows_failed: sim.out.failed().count(),
        flows_hung: total - sim.out.outcomes.len(),
        breakdown: FctBreakdown::new(&sim.out.fcts),
        fault_drops: sim.out.fault_drops,
        retransmits: sim.out.retransmits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cell_completes_without_fault_drops() {
        let r = run_cell(FaultCell::smoke(Algo::Dcqcn, 0.0, 0));
        assert!(r.completed_all());
        assert_eq!(r.fault_drops, 0);
        assert!(r.breakdown.cross_dc.count > 0);
    }

    #[test]
    fn lossy_cell_completes_with_recovery() {
        let r = run_cell(FaultCell::smoke(Algo::Mlcc, 0.005, 0));
        assert!(r.completed_all(), "{}/{}", r.flows_completed, r.flows_total);
        assert!(r.fault_drops > 0);
        assert!(r.retransmits > 0);
    }

    #[test]
    fn link_cut_cell_terminates_with_typed_failures() {
        let r = run_cell(FaultCell::smoke(Algo::Mlcc, 0.0, 0).with_perm(PermFault::LinkCut));
        assert_eq!(r.flows_completed, 0, "nothing crosses a severed long haul");
        assert_eq!(r.flows_failed, r.flows_total, "every flow gets a verdict");
        assert_eq!(r.flows_hung, 0, "termination guarantee");
    }

    #[test]
    fn host_crash_cell_terminates_without_hung_flows() {
        let r = run_cell(FaultCell::smoke(Algo::Dcqcn, 0.0, 0).with_perm(PermFault::HostCrash));
        assert!(r.flows_failed > 0, "the crash must strand someone");
        assert_eq!(
            r.flows_completed + r.flows_failed,
            r.flows_total,
            "completed + failed must account for every flow"
        );
        assert_eq!(r.flows_hung, 0, "termination guarantee");
    }
}
