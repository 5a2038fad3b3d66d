//! Fig. 16 on the simulated testbed dumbbell, and the cross-DC incast
//! extension experiment.

use std::fmt::Write;

use netsim::prelude::*;
use simstats::{percentile, TextTable};
use workload::{request_completion_times, IncastPattern};

use crate::scenarios::{run_parallel, testbed};
use crate::Algo;

/// Fig. 16 — the testbed experiment on the simulated dumbbell: Hadoop
/// traffic, DCQCN vs MLCC, overall average FCT.
///
/// The paper reports MLCC improving the overall average FCT by 19.3% on
/// their 100 Gbps P4/XDP testbed; we reproduce the same dumbbell and
/// workload in the simulator (see DESIGN.md, substitutions).
pub fn fig16(_full: bool) -> String {
    let mut out = String::new();
    let load = 0.4;
    let duration = 40 * MS;
    let results = run_parallel(
        [Algo::Dcqcn, Algo::Mlcc]
            .iter()
            .map(|&a| move || testbed::run(a, load, duration, 11))
            .collect(),
    );

    let _ = writeln!(out, "# Fig 16: dumbbell testbed, Hadoop mix at 40% load");
    let mut t = TextTable::new(vec!["algorithm", "overall avg (µs)", "p99.9 (µs)", "done"]);
    for r in &results {
        t.row(vec![
            r.algo.name().to_string(),
            format!("{:.1}", r.breakdown.all.avg_us),
            format!("{:.1}", r.breakdown.all.p999_us),
            format!("{}/{}", r.flows_completed, r.flows_total),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());

    let dcqcn = &results[0];
    let mlcc = &results[1];
    let gain = (1.0 - mlcc.breakdown.all.avg_us / dcqcn.breakdown.all.avg_us) * 100.0;
    let _ = writeln!(
        out,
        "# MLCC improves the overall average FCT by {gain:+.1}% (paper: +19.3%)"
    );
    assert_eq!(dcqcn.flows_completed, dcqcn.flows_total);
    assert_eq!(mlcc.flows_completed, mlcc.flows_total);
    assert!(
        mlcc.breakdown.all.avg_us < dcqcn.breakdown.all.avg_us,
        "MLCC must improve the overall average FCT on the dumbbell"
    );
    let _ = writeln!(out, "SHAPE OK: MLCC beats DCQCN on the testbed dumbbell");
    out
}

struct IncastResult {
    algo: Algo,
    rct_us: Vec<f64>,
    victim_p99_us: f64,
    victim_avg_us: f64,
    completed: usize,
    total: usize,
    pfc: u64,
}

/// One incast run. The DCQCN and HPCC rows come out identical because
/// neither algorithm ever acts here: every flow has sent its last byte
/// before its first feedback arrives. A 1 MB response serializes in
/// 320 µs at 25 Gbps, while its first CNP or INT-bearing ACK needs the
/// ≥ 6 ms long-haul round trip (the closest call leaves a 5.7 ms gap).
/// An 8 KB victim fits in its first line-rate burst. Both baselines
/// start at line rate (HPCC with a one-BDP window, which neither flow
/// size exceeds), so they send exactly what a sender without CC does:
/// DCQCN, HPCC and `NoCcFactory` give the same FCTs, 688 PFC pauses and
/// 236,202 ECN marks. MLCC differs because its per-flow queues at the
/// receiver-side DCI switch pace the burst without the long-haul loop.
fn run_incast(algo: Algo) -> IncastResult {
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 4,
        ..TwoDcParams::default()
    });
    // 12 senders spread over DC0's racks, aggregator in DC1. One epoch
    // delivers 12 MB — ~77% of what the 25 Gbps receiver link can drain
    // per 5 ms period, so consecutive epochs contend in the fabric.
    let senders: Vec<NodeId> = (0..12).map(|i| topo.server(1 + i / 4, i % 4)).collect();
    let receiver = topo.server(5, 0);
    let pattern = IncastPattern {
        senders,
        receiver,
        response_bytes: 1_000_000,
        period: 5 * MS,
        epochs: 12,
        start: MS,
    };
    let cfg = SimConfig {
        stop_time: 400 * MS,
        dci: algo.dci_features(),
        seed: 3,
        ..SimConfig::default()
    };
    // Victim RPCs inside the receiver DC: 8 KB flows every 100 µs from
    // rack-6 servers to the aggregator's rack-mates in rack 5.
    let victim_srcs: Vec<NodeId> = (0..4).map(|i| topo.server(6, i)).collect();
    let victim_dsts: Vec<NodeId> = (1..4).map(|i| topo.server(5, i)).collect();

    let mut sim = Simulator::new(topo.net, cfg, algo.factory());
    let mut flow_ids = Vec::new();
    for epoch in pattern.generate() {
        for f in epoch {
            flow_ids.push(sim.add_flow(f.src, f.dst, f.size_bytes, f.start));
        }
    }
    let n_incast = flow_ids.len();
    let mut n_victims = 0;
    let mut t = MS;
    while t < MS + 12 * 5 * MS {
        let src = victim_srcs[(n_victims as usize) % victim_srcs.len()];
        let dst = victim_dsts[(n_victims as usize) % victim_dsts.len()];
        sim.add_flow(src, dst, 8_000, t);
        n_victims += 1;
        t += 100 * US;
    }
    let done = sim.run_until_flows_complete();
    assert!(
        done,
        "{}: incast epochs and victims must complete",
        algo.name()
    );
    // Reassemble incast finishes in flow order.
    let mut finishes = vec![0; n_incast];
    let mut victim_fcts: Vec<Time> = Vec::new();
    for rec in &sim.out.fcts {
        if rec.flow.index() < n_incast {
            finishes[rec.flow.index()] = rec.finish;
        } else {
            victim_fcts.push(rec.fct());
        }
    }
    let rct = request_completion_times(&pattern, &finishes);
    let victim_avg_us =
        victim_fcts.iter().map(|&t| to_micros(t)).sum::<f64>() / victim_fcts.len() as f64;
    let victim_p99_us = to_micros(percentile(&mut victim_fcts, 99.0));
    IncastResult {
        algo,
        rct_us: rct.iter().map(|&t| to_micros(t)).collect(),
        victim_p99_us,
        victim_avg_us,
        completed: sim.out.fcts.len(),
        total: n_incast + n_victims as usize,
        pfc: sim.total_pfc_pauses(),
    }
}

/// Extension experiment — cross-DC synchronized incast with victims.
///
/// Not a paper figure: a partition–aggregate stress test whose static
/// limit is the paper's Experiment 3. Every 5 ms, twelve remote workers
/// fire a 1 MB response at one aggregator across the long haul. The
/// epoch's request completion time (RCT) is capacity-limited and thus
/// similar for all algorithms; the discriminating metric is the damage
/// to **victim** RPCs inside the receiver datacenter — small intra-DC
/// flows sharing the aggregator's rack, whose tail latency balloons when
/// the incast bursts trigger PFC there.
pub fn incast(_full: bool) -> String {
    let mut out = String::new();
    let results = run_parallel(
        [Algo::Dcqcn, Algo::Hpcc, Algo::Mlcc]
            .iter()
            .map(|&a| move || run_incast(a))
            .collect(),
    );

    let _ = writeln!(
        out,
        "# Cross-DC incast: 12 × 1 MB → 1 aggregator every 5 ms, 12 epochs + victim RPCs"
    );
    let _ = writeln!(
        out,
        "algorithm,rct_avg_us,victim_avg_us,victim_p99_us,pfc,done"
    );
    for r in &results {
        let avg = r.rct_us.iter().sum::<f64>() / r.rct_us.len() as f64;
        let _ = writeln!(
            out,
            "{},{avg:.0},{:.0},{:.0},{},{}/{}",
            r.algo.name(),
            r.victim_avg_us,
            r.victim_p99_us,
            r.pfc,
            r.completed,
            r.total
        );
    }

    let get = |a: Algo| results.iter().find(|r| r.algo == a).unwrap();
    let mlcc = get(Algo::Mlcc);
    let dcqcn = get(Algo::Dcqcn);
    let rct = |r: &IncastResult| r.rct_us.iter().sum::<f64>() / r.rct_us.len() as f64;
    let _ = writeln!(
        out,
        "# RCT is capacity-limited: MLCC {:.0} vs DCQCN {:.0} µs",
        rct(mlcc),
        rct(dcqcn)
    );
    let _ = writeln!(
        out,
        "# victim p99: MLCC {:.0} vs DCQCN {:.0} µs ({:+.1}%)",
        mlcc.victim_p99_us,
        dcqcn.victim_p99_us,
        (1.0 - mlcc.victim_p99_us / dcqcn.victim_p99_us) * 100.0
    );
    assert!(
        rct(mlcc) < 1.2 * rct(dcqcn),
        "MLCC incast RCT should be at worst comparable to DCQCN"
    );
    assert!(
        mlcc.victim_p99_us < dcqcn.victim_p99_us,
        "MLCC must protect the victim RPC tail from the incast"
    );
    let _ = writeln!(
        out,
        "SHAPE OK: MLCC shields victim RPCs from the cross-DC incast at no RCT cost"
    );
    out
}
