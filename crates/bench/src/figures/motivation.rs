//! Figs. 2–4: the motivation experiments, DCQCN and PowerTCP only.

use std::fmt::Write;

use netsim::units::{to_millis, Time, MS};

use super::sample_indices;
use crate::scenarios::motivation::{experiment1, experiment2, experiment3};
use crate::scenarios::run_parallel;
use crate::Algo;

const ALGOS: [Algo; 2] = [Algo::Dcqcn, Algo::PowerTcp];

/// Mean of the samples in `[lo_ms, hi_ms)`.
fn window_avg(s: &[(Time, f64)], lo_ms: u64, hi_ms: u64) -> f64 {
    let vals: Vec<f64> = s
        .iter()
        .filter(|(t, _)| *t >= lo_ms * MS && *t < hi_ms * MS)
        .map(|x| x.1)
        .collect();
    vals.iter().sum::<f64>() / vals.len().max(1) as f64
}

/// Fig. 2 (Experiment 1) — when a cross-DC burst reaches the
/// receiver-side datacenter, the shallow-buffered switches fill and PFC
/// fires, hurting the intra-DC flows sharing the bottleneck.
///
/// Four Rack-5→Rack-6 intra-DC flows start at 1 ms; four Rack-1→Rack-6
/// cross-DC flows join at 2 ms. Shown for DCQCN and PowerTCP.
pub fn fig02(_full: bool) -> String {
    let mut out = String::new();
    let results = run_parallel(
        ALGOS
            .iter()
            .map(|&a| move || (a, experiment1(a, 20 * MS)))
            .collect(),
    );

    for (algo, r) in &results {
        let _ = writeln!(
            out,
            "# Fig 2 ({}): avg throughput per group (Gbps) + bottleneck queue (MB)",
            algo.name()
        );
        let _ = writeln!(out, "time_ms,intra_gbps,cross_gbps,leaf_queue_mb");
        for i in sample_indices(r.group_a_gbps.len(), 40) {
            let (t, intra) = r.group_a_gbps[i];
            let cross = r.group_b_gbps[i].1;
            let q = r.queue[(i + 1).min(r.queue.len() - 1)].1;
            let _ = writeln!(
                out,
                "{:.2},{:.2},{:.2},{:.3}",
                to_millis(t),
                intra / 1e9,
                cross / 1e9,
                q as f64 / 1e6
            );
        }
        let _ = writeln!(out, "# PFC pause transitions: {}", r.pfc_total);
        let first_pfc = r.pfc_events.first().map(|&(t, _)| to_millis(t));
        let _ = writeln!(out, "# first PFC at: {:?} ms", first_pfc);
        let _ = writeln!(out);
    }

    // Shape checks. DCQCN (rate-based, no inflight bound) must trigger
    // PFC once the cross burst lands; PowerTCP's windows bound the
    // inflight enough that PFC may stay quiet, but the intra flows must
    // still collapse when the cross traffic arrives (the paper's damage
    // signal).
    for (algo, r) in &results {
        let before = window_avg(&r.group_a_gbps, 1, 2);
        let after = window_avg(&r.group_a_gbps, 6, 10);
        let _ = writeln!(
            out,
            "# {}: intra avg before cross burst {:.1} Gbps, after {:.1} Gbps",
            algo.name(),
            before / 1e9,
            after / 1e9
        );
        assert!(
            after < 0.5 * before,
            "{}: intra flows must be damaged by the arriving cross burst",
            algo.name()
        );
    }
    let dcqcn = &results[0].1;
    assert!(
        dcqcn.pfc_total > 0,
        "DCQCN: cross burst must trigger PFC at the receiver DC"
    );
    let first = dcqcn.pfc_events.first().map(|&(t, _)| t).unwrap();
    assert!(
        first >= 2 * MS,
        "PFC should fire only after the cross flows arrive"
    );
    let _ = writeln!(
        out,
        "SHAPE OK: cross-DC burst triggers PFC (DCQCN) and collapses intra throughput (both)"
    );
    out
}

/// Fig. 3 (Experiment 2) — unfairness between intra-DC and cross-DC
/// traffic when the congestion point is in the sender-side datacenter:
/// as staggered cross-DC flows join the shared Rack-1 uplinks, the
/// short-RTT intra flows detect congestion first, back off first, and
/// end up with the smaller share.
pub fn fig03(_full: bool) -> String {
    let mut out = String::new();
    let results = run_parallel(
        ALGOS
            .iter()
            .map(|&a| move || (a, experiment2(a, 14 * MS)))
            .collect(),
    );

    for (algo, r) in &results {
        let _ = writeln!(
            out,
            "# Fig 3 ({}): avg throughput per group (Gbps)",
            algo.name()
        );
        let _ = writeln!(out, "time_ms,intra_gbps,cross_gbps");
        for i in sample_indices(r.group_a_gbps.len(), 40) {
            let (t, intra) = r.group_a_gbps[i];
            let cross = r.group_b_gbps[i].1;
            let _ = writeln!(
                out,
                "{:.2},{:.2},{:.2}",
                to_millis(t),
                intra / 1e9,
                cross / 1e9
            );
        }
        let _ = writeln!(out);
    }

    // Shape check over the paper's observation window: once the staggered
    // cross flows are all active (≈6 ms, i.e. one cross RTT after the
    // last join) and before their own delayed control kicks in, the
    // long-RTT flows hold the bandwidth and the short-RTT intra flows are
    // squeezed. (Over longer horizons DCQCN's stale cross-CNPs produce a
    // slow alternating sawtooth — see EXPERIMENTS.md.)
    for (algo, r) in &results {
        let intra = window_avg(&r.group_a_gbps, 7, 12);
        let cross = window_avg(&r.group_b_gbps, 7, 12);
        let _ = writeln!(
            out,
            "# {} window 7-12 ms: intra {:.2} Gbps, cross {:.2} Gbps (ratio {:.2})",
            algo.name(),
            intra / 1e9,
            cross / 1e9,
            cross / intra.max(1.0)
        );
        // DCQCN's damage is drastic (the paper's Fig. 3a); PowerTCP's
        // fine-grained windows soften but do not remove the asymmetry
        // (Fig. 3b).
        let min_ratio = if *algo == Algo::Dcqcn { 2.0 } else { 1.3 };
        assert!(
            cross > min_ratio * intra,
            "{}: cross flows must dominate the shared sender-side bottleneck in the observation window (intra {intra:.3e}, cross {cross:.3e})",
            algo.name()
        );
    }
    let _ = writeln!(
        out,
        "SHAPE OK: long-RTT cross flows squeeze short-RTT intra flows under end-to-end CC"
    );
    out
}

/// Fig. 4 (Experiment 3) — cross-DC flows queue heavily at the
/// receiver-side DCI switch: eight cross-DC flows incast a single
/// 25 Gbps receiver; the deep DCI buffer absorbs megabytes and the queue
/// oscillates with the end-to-end ECN duty cycle.
pub fn fig04(_full: bool) -> String {
    let mut out = String::new();
    let results = run_parallel(
        ALGOS
            .iter()
            .map(|&a| move || (a, experiment3(a, 60 * MS)))
            .collect(),
    );

    for (algo, r) in &results {
        let _ = writeln!(
            out,
            "# Fig 4 ({}): receiver-side DCI queue (MB) + per-group throughput (Gbps)",
            algo.name()
        );
        let _ = writeln!(out, "time_ms,dci_queue_mb,rack1_gbps,rack4_gbps");
        for i in sample_indices(r.group_a_gbps.len(), 45) {
            let (t, a) = r.group_a_gbps[i];
            let b = r.group_b_gbps[i].1;
            let q = r.queue[(i + 1).min(r.queue.len() - 1)].1;
            let _ = writeln!(
                out,
                "{:.2},{:.3},{:.2},{:.2}",
                to_millis(t),
                q as f64 / 1e6,
                a / 1e9,
                b / 1e9
            );
        }
        let peak = r.queue.iter().map(|x| x.1).max().unwrap_or(0);
        let _ = writeln!(out, "# DCI queue peak: {:.1} MB", peak as f64 / 1e6);
        let _ = writeln!(out);
    }

    // Shape checks: the DCI queue reaches megabytes and fluctuates
    // (repeatedly rising and falling by large amounts).
    for (algo, r) in &results {
        let peak = r.queue.iter().map(|x| x.1).max().unwrap_or(0);
        assert!(
            peak > 1_000_000,
            "{}: DCI queue must reach megabytes (peak {peak})",
            algo.name()
        );
        // Count direction reversals of the smoothed queue.
        let qs: Vec<u64> = r.queue.iter().map(|x| x.1).collect();
        let mut reversals = 0;
        let mut last_dir = 0i8;
        for w in qs.windows(20).step_by(20) {
            let dir = if w[w.len() - 1] > w[0] { 1 } else { -1 };
            if last_dir != 0 && dir != last_dir {
                reversals += 1;
            }
            last_dir = dir;
        }
        let _ = writeln!(
            out,
            "# {}: queue direction reversals {reversals}",
            algo.name()
        );
        assert!(
            reversals >= 2,
            "{}: queue should oscillate with the feedback duty cycle",
            algo.name()
        );
    }
    let _ = writeln!(
        out,
        "SHAPE OK: deep DCI buffers hide congestion until the queue is megabytes, then oscillate"
    );
    out
}
