//! The two extension studies beyond the paper: ML collectives on a
//! fat-tree, and WAN faults on the dumbbell long haul.

use std::fmt::Write;

use netsim::prelude::*;
use simstats::TextTable;
use workload::CollectiveOp;

use crate::scenarios::collective::{self, CollectiveConfig, CollectiveResult};
use crate::scenarios::faults::{run_cell, FaultCell, FaultCellResult, PermFault};
use crate::scenarios::run_parallel;
use crate::Algo;

/// Extension experiment — synchronized ML collectives on a k=4 fat-tree.
///
/// Not a paper figure: the paper's target regime (synchronized bulk
/// transfers, oversubscribed multipath fabric) expressed as the three
/// canonical collectives — ring allreduce, tree allreduce, all-to-all —
/// run in lockstep under every CC algorithm. The discriminating metric
/// is the **step time**: each training step waits for its slowest
/// transfer, so the tail of one step's FCT distribution is the whole
/// job's critical path. Reported per (collective, algorithm): total job
/// time, worst barriered step, and the effective allreduce bus
/// bandwidth.
pub fn collective(_full: bool) -> String {
    let mut out = String::new();
    let bytes_per_rank: u64 = 1_000_000;

    let mut jobs: Vec<Box<dyn FnOnce() -> CollectiveResult + Send>> = Vec::new();
    for op in CollectiveOp::ALL {
        for algo in Algo::ALL {
            let cfg = CollectiveConfig {
                op,
                algo,
                bytes_per_rank,
                ..CollectiveConfig::default()
            };
            jobs.push(Box::new(move || collective::run(&cfg)));
        }
    }
    let results = run_parallel(jobs);

    let _ = writeln!(
        out,
        "# Collectives on the k=4 fat-tree (16 ranks, {} per rank, lockstep barriers)",
        fmt_bytes(bytes_per_rank as f64)
    );
    let _ = writeln!(
        out,
        "collective,algorithm,total_ms,max_step_us,bus_bw_gbps,flows,hung"
    );
    for r in &results {
        let _ = writeln!(
            out,
            "{},{},{:.3},{:.0},{:.2},{},{}",
            r.op.name(),
            r.algo.name(),
            to_millis(r.total_time),
            to_micros(r.max_step()),
            r.bus_bw_bps / 1e9,
            r.completed_flows,
            r.hung_flows
        );
    }

    // Shape checks: every collective completes under every algorithm
    // (zero hung flows — the acceptance bar), and the barriered step
    // structure is intact.
    for r in &results {
        assert_eq!(
            r.hung_flows,
            0,
            "{} under {} left flows hanging",
            r.op.name(),
            r.algo.name()
        );
        assert!(r.step_durations.iter().all(|&d| d > 0));
    }
    // The ring moves the most data per step and must be the slowest of
    // the three for a fixed payload; the tree's full-payload hops make
    // it slower than all-to-all's 1/N chunks.
    for algo in Algo::ALL {
        let t = |op: CollectiveOp| {
            results
                .iter()
                .find(|r| r.op == op && r.algo == algo)
                .unwrap()
                .total_time
        };
        assert!(
            t(CollectiveOp::RingAllreduce) > t(CollectiveOp::AllToAll),
            "{}: ring must outweigh all-to-all",
            algo.name()
        );
    }
    let _ = writeln!(
        out,
        "SHAPE OK: all {} collective jobs completed with zero hung flows",
        results.len()
    );
    out
}

/// Fault sweep: MLCC vs DCQCN across WAN loss and jitter on the DCI link.
///
/// Sweeps uniform loss 0–1% and delay jitter on both directions of the
/// dumbbell long haul, running the same cross-DC transfer batch per
/// cell. Asserts 100% completion everywhere (the hardened loss-recovery
/// path must never strand a flow at WAN-plausible loss rates) and
/// reports the average cross-DC FCT degradation relative to each
/// algorithm's clean cell.
///
/// A permanent-failure column rides along: a mid-transfer link cut that
/// never heals and a host crash without restart. Those cells cannot
/// complete — the assertion flips to the *termination guarantee*: every
/// flow ends with a typed `Failed` verdict and zero flows hang.
pub fn fault_sweep(_full: bool) -> String {
    let mut out = String::new();
    let losses = [0.0, 0.001, 0.005, 0.01];
    let jitters = [0, 20 * US];
    let algos = [Algo::Mlcc, Algo::Dcqcn];

    let mut jobs: Vec<Box<dyn FnOnce() -> FaultCellResult + Send>> = Vec::new();
    for &algo in &algos {
        for &loss in &losses {
            for &jitter in &jitters {
                let cell = FaultCell::sweep(algo, loss, jitter);
                jobs.push(Box::new(move || run_cell(cell)));
            }
        }
        // The unsurvivable column, one cell per permanent fault kind.
        for perm in [PermFault::LinkCut, PermFault::HostCrash] {
            let cell = FaultCell::sweep(algo, 0.0, 0).with_perm(perm);
            jobs.push(Box::new(move || run_cell(cell)));
        }
    }
    let results = run_parallel(jobs);

    let _ = writeln!(
        out,
        "# Fault sweep: cross-DC batch on the dumbbell, loss+jitter on both long-haul directions"
    );
    let mut t = TextTable::new(vec![
        "algo",
        "loss",
        "jitter (µs)",
        "perm",
        "done",
        "failed",
        "cross avg (µs)",
        "degradation",
        "fault drops",
        "retx",
    ]);
    for r in &results {
        let clean = results
            .iter()
            .find(|c| {
                c.cell.algo == r.cell.algo
                    && c.cell.loss == 0.0
                    && c.cell.jitter == 0
                    && c.cell.perm == PermFault::None
            })
            .expect("clean cell present");
        let (cross, degr) = if r.breakdown.cross_dc.count > 0 {
            let d = r.breakdown.cross_dc.avg_us / clean.breakdown.cross_dc.avg_us;
            (
                format!("{:.1}", r.breakdown.cross_dc.avg_us),
                format!("{d:.2}x"),
            )
        } else {
            ("-".to_string(), "-".to_string())
        };
        t.row(vec![
            r.cell.algo.name().to_string(),
            format!("{:.2}%", r.cell.loss * 100.0),
            format!("{:.0}", r.cell.jitter as f64 / US as f64),
            r.cell.perm.label().to_string(),
            format!("{}/{}", r.flows_completed, r.flows_total),
            format!("{}", r.flows_failed),
            cross,
            degr,
            format!("{}", r.fault_drops),
            format!("{}", r.retransmits),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());

    for r in &results {
        if r.cell.perm == PermFault::None {
            assert!(
                r.completed_all(),
                "{} stranded {} of {} flows at loss {:.2}% jitter {} µs",
                r.cell.algo.name(),
                r.flows_total - r.flows_completed,
                r.flows_total,
                r.cell.loss * 100.0,
                r.cell.jitter / US,
            );
            if r.cell.loss > 0.0 {
                assert!(
                    r.fault_drops > 0,
                    "lossy cell must actually lose packets ({})",
                    r.cell.algo.name()
                );
            }
        } else {
            // A permanent fault cannot be survived — it must be
            // *accounted for*: typed failures, no hung flows.
            assert!(
                r.flows_failed > 0,
                "{} {} cell failed nothing",
                r.cell.algo.name(),
                r.cell.perm.label()
            );
            assert_eq!(
                r.flows_completed + r.flows_failed,
                r.flows_total,
                "{} {} cell: completed + failed must cover every flow",
                r.cell.algo.name(),
                r.cell.perm.label()
            );
            assert_eq!(
                r.flows_hung,
                0,
                "{} {} cell left hung flows",
                r.cell.algo.name(),
                r.cell.perm.label()
            );
        }
    }
    let n_perm = results
        .iter()
        .filter(|r| r.cell.perm != PermFault::None)
        .count();
    let _ = writeln!(
        out,
        "SHAPE OK: 100% completion across {} recoverable cells (loss ≤ 1%, jitter ≤ {} µs) \
         and typed termination across {} permanent-failure cells for MLCC and DCQCN",
        results.len() - n_perm,
        jitters.iter().max().unwrap() / US,
        n_perm,
    );
    out
}
