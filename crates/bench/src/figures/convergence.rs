//! Figs. 7–10: MLCC convergence and DCI queue management.

use std::fmt::Write;

use mlcc_core::MlccParams;
use netsim::units::{to_millis, Time, MS};

use super::sample_indices;
use crate::scenarios::convergence::{run, sequential_burst, Bottleneck, ConvergenceResult};
use crate::scenarios::{downsample, run_parallel};
use crate::Algo;

/// Runs MLCC with simultaneous and with sequential flow starts.
fn both_start_patterns(
    bottleneck: Bottleneck,
    duration: Time,
) -> Vec<(&'static str, ConvergenceResult)> {
    run_parallel(
        [true, false]
            .iter()
            .map(|&simultaneous| {
                move || {
                    let label = if simultaneous {
                        "simultaneous"
                    } else {
                        "sequential"
                    };
                    let params = MlccParams::default();
                    (
                        label,
                        run(Algo::Mlcc, bottleneck, simultaneous, duration, params),
                    )
                }
            })
            .collect(),
    )
}

/// One row of per-flow rates (Gbps) at sample `i`.
fn flow_row(r: &ConvergenceResult, i: usize) -> String {
    let row: Vec<String> = r
        .flow_throughput
        .iter()
        .map(|s| format!("{:.2}", s[i].1 / 1e9))
        .collect();
    row.join(",")
}

/// Final per-flow rates rounded to 0.1 Gbps.
fn final_rates(r: &ConvergenceResult) -> Vec<f64> {
    r.final_rates
        .iter()
        .map(|x| (x / 1e8).round() / 10.0)
        .collect()
}

/// Fig. 7 — MLCC convergence with the bottleneck in the **sender-side**
/// datacenter, under simultaneous and sequential flow starts.
///
/// Four 25 Gbps cross-DC flows share a 50 Gbps sender-side leaf uplink;
/// fair share is 12.5 Gbps. The paper shows MLCC converging quickly to
/// the fair allocation in both start patterns.
pub fn fig07(_full: bool) -> String {
    let mut out = String::new();
    let results = both_start_patterns(Bottleneck::SenderSide, 30 * MS);

    for (label, r) in &results {
        let _ = writeln!(out, "# Fig 7 ({label}): per-flow throughput (Gbps)");
        let _ = writeln!(out, "time_ms,flow0,flow1,flow2,flow3");
        for i in sample_indices(r.flow_throughput[0].len(), 60) {
            let t = r.flow_throughput[0][i].0;
            let _ = writeln!(out, "{:.2},{}", to_millis(t), flow_row(r, i));
        }
        let _ = writeln!(out, "# final rates (Gbps): {:?}", final_rates(r));
        let _ = writeln!(
            out,
            "# Jain fairness index (last quarter): {:.4}",
            r.jain_final
        );
        let _ = writeln!(out, "# PFC pauses: {}", r.pfc_pauses);
        let _ = writeln!(out);
    }

    // Paper-shape checks.
    for (label, r) in &results {
        assert!(
            r.jain_final > 0.9,
            "Fig7 {label}: flows must converge to fairness (jain = {})",
            r.jain_final
        );
        let sum: f64 = r.final_rates.iter().sum();
        assert!(
            sum > 0.8 * 50e9,
            "Fig7 {label}: bottleneck must stay utilized (sum = {sum:.3e})"
        );
    }
    let _ = writeln!(
        out,
        "SHAPE OK: MLCC converges to fair share in both start patterns"
    );
    out
}

/// Fig. 8 — MLCC convergence with the bottleneck in the **receiver-side**
/// datacenter (two 25 Gbps receiver downlinks shared two-ways; fair share
/// 12.5 Gbps), simultaneous and sequential starts.
///
/// The paper's observation: after converging to the fair rate, if the
/// queueing delay at the receiver-side DCI exceeds the threshold, DQM
/// gradually derates the senders and the flows re-converge with a short
/// queue.
pub fn fig08(_full: bool) -> String {
    let mut out = String::new();
    let results = both_start_patterns(Bottleneck::ReceiverSide, 100 * MS);

    for (label, r) in &results {
        let _ = writeln!(
            out,
            "# Fig 8 ({label}): per-flow throughput (Gbps) and DCI queue (MB)"
        );
        let _ = writeln!(out, "time_ms,flow0,flow1,flow2,flow3,dci_queue_mb");
        let q = &r.dci_queue;
        for i in sample_indices(r.flow_throughput[0].len(), 50) {
            let t = r.flow_throughput[0][i].0;
            // Queue samples are offset by one (throughput differentiates).
            let qmb = q[(i + 1).min(q.len() - 1)].1 as f64 / 1e6;
            let _ = writeln!(out, "{:.2},{},{:.2}", to_millis(t), flow_row(r, i), qmb);
        }
        let _ = writeln!(out, "# final rates (Gbps): {:?}", final_rates(r));
        let _ = writeln!(
            out,
            "# Jain: {:.4}   PFC pauses: {}",
            r.jain_final, r.pfc_pauses
        );
        let _ = writeln!(out);
    }

    for (label, r) in &results {
        assert!(r.jain_final > 0.9, "Fig8 {label}: jain {}", r.jain_final);
        let sum: f64 = r.final_rates.iter().sum();
        assert!(
            sum > 0.7 * 50e9,
            "Fig8 {label}: receiver links must stay utilized (sum {sum:.3e})"
        );
        // After convergence the DCI queue must be bounded (DQM working):
        // the tail-of-run queue should sit well below the early peak.
        let peak = r.dci_queue.iter().map(|x| x.1).max().unwrap_or(0);
        let tail_avg = {
            let n = r.dci_queue.len();
            let tail = &r.dci_queue[n - n / 5..];
            tail.iter().map(|x| x.1).sum::<u64>() / tail.len().max(1) as u64
        };
        let _ = writeln!(
            out,
            "# {label}: DCI queue peak {:.1} MB, tail avg {:.1} MB",
            peak as f64 / 1e6,
            tail_avg as f64 / 1e6
        );
        assert!(
            tail_avg < peak || peak < 2_000_000,
            "Fig8 {label}: DQM must keep the tail queue below the peak"
        );
    }
    let _ = writeln!(
        out,
        "SHAPE OK: MLCC re-converges to fairness with bounded DCI queue"
    );
    out
}

/// Fig. 9 — receiver-side DCI buffer occupancy under DQM.
///
/// (a) total DCI queue vs time for θ ∈ {6, 18, 30 ms} with a
///     simultaneous 4-flow burst: smaller θ reacts aggressively (jitter),
///     larger θ converges slowly, 18 ms is the sweet spot;
/// (b) per-flow PFQ occupancy at θ = 18 ms, D_t = 1 ms — each flow's
///     queue settles near `fair rate × D_t` (≈1.5 MB at 12.5 Gbps).
pub fn fig09(_full: bool) -> String {
    let mut out = String::new();
    let duration = 100 * MS;
    let thetas = [6 * MS, 18 * MS, 30 * MS];
    let results = run_parallel(
        thetas
            .iter()
            .map(|&theta| {
                move || {
                    let params = MlccParams {
                        theta,
                        ..MlccParams::default()
                    };
                    run(Algo::Mlcc, Bottleneck::ReceiverSide, true, duration, params)
                }
            })
            .collect(),
    );

    // (a) total queue series per θ.
    let _ = writeln!(
        out,
        "# Fig 9a: receiver-side DCI total queue (MB) vs time, theta sweep"
    );
    let _ = writeln!(out, "time_ms,theta6,theta18,theta30");
    for i in sample_indices(results[0].dci_queue.len(), 60) {
        let t = results[0].dci_queue[i].0;
        let cells: Vec<String> = results
            .iter()
            .map(|r| format!("{:.2}", r.dci_queue[i].1 as f64 / 1e6))
            .collect();
        let _ = writeln!(out, "{:.2},{}", to_millis(t), cells.join(","));
    }

    // (b) per-flow PFQ at θ = 18 ms.
    let r18 = &results[1];
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "# Fig 9b: per-flow PFQ occupancy (MB) at theta=18ms, D_t=1ms"
    );
    let _ = writeln!(out, "time_ms,flow0,flow1,flow2,flow3");
    for i in sample_indices(r18.pfq_series.len(), 50) {
        let (t, per_flow) = &r18.pfq_series[i];
        let mut cells = [0.0f64; 4];
        for &(f, b) in per_flow {
            if (f.0 as usize) < 4 {
                cells[f.0 as usize] = b as f64 / 1e6;
            }
        }
        let s: Vec<String> = cells.iter().map(|c| format!("{c:.2}")).collect();
        let _ = writeln!(out, "{:.2},{}", to_millis(*t), s.join(","));
    }

    // Shape checks.
    let peak =
        |r: &ConvergenceResult| r.dci_queue.iter().map(|x| x.1).max().unwrap_or(0) as f64 / 1e6;
    let tail = |r: &ConvergenceResult| {
        let n = r.dci_queue.len();
        let t = &r.dci_queue[n - n / 5..];
        t.iter().map(|x| x.1).sum::<u64>() as f64 / t.len() as f64 / 1e6
    };
    let _ = writeln!(out);
    for (theta, r) in thetas.iter().zip(&results) {
        let _ = writeln!(
            out,
            "# theta={}ms: peak {:.1} MB → tail {:.2} MB (jain {:.4})",
            theta / MS,
            peak(r),
            tail(r),
            r.jain_final
        );
        assert!(
            tail(r) < 0.25 * peak(r),
            "theta={}ms: DQM must pull the queue well below the burst peak",
            theta / MS
        );
    }
    // θ=18ms settles into a small standing queue near the D_t target.
    assert!(
        tail(&results[1]) < 8.0,
        "theta=18ms tail {:.2} MB",
        tail(&results[1])
    );
    let _ = writeln!(
        out,
        "SHAPE OK: DQM drains the burst for every theta; 18 ms settles near the D_t target"
    );
    out
}

/// Fig. 10 — receiver-side DCI queue under a **sequential** burst of
/// finite flows: DQM caps the build-up, holds a small working queue, and
/// the queue empties as flows complete.
pub fn fig10(_full: bool) -> String {
    let mut out = String::new();
    let (queue, completed) = sequential_burst(Algo::Mlcc, MlccParams::default());

    let _ = writeln!(
        out,
        "# Fig 10: receiver-side DCI queue (MB), sequential 60 MB flows"
    );
    let _ = writeln!(out, "time_ms,queue_mb");
    for (t, q) in downsample(&queue, 80) {
        let _ = writeln!(out, "{:.2},{:.2}", to_millis(t), q as f64 / 1e6);
    }

    let peak = queue.iter().map(|x| x.1).max().unwrap_or(0) as f64 / 1e6;
    let last = queue.last().map(|x| x.1).unwrap_or(0) as f64 / 1e6;
    let _ = writeln!(
        out,
        "# completed flows: {completed}/4, peak {peak:.1} MB, final {last:.2} MB"
    );

    assert_eq!(completed, 4, "all staggered flows must complete");
    assert!(peak > 1.0, "the burst must visibly queue at the DCI");
    assert!(
        last < 0.1 * peak.max(1.0),
        "queue must drain as flows finish (final {last:.2} MB, peak {peak:.1} MB)"
    );
    let _ = writeln!(
        out,
        "SHAPE OK: queue builds on each arrival wave and empties as flows complete"
    );
    out
}
