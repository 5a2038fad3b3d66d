//! Quickstart: build the paper's two-datacenter topology, run one MLCC
//! cross-DC flow next to one intra-DC flow, and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mlcc_core::MlccFactory;
use netsim::prelude::*;

fn main() {
    // The Fig. 1 fabric, scaled to 4 servers per rack for a quick run.
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 4,
        ..TwoDcParams::default()
    });

    // MLCC needs its DCI features (PFQ + near-source feedback) enabled.
    let cfg = SimConfig {
        stop_time: 200 * MS,
        dci: DciFeatures::mlcc(),
        ..SimConfig::default()
    };

    let src_cross = topo.server(1, 0); // rack 1 = DC 0
    let dst_cross = topo.server(5, 0); // rack 5 = DC 1
    let src_intra = topo.server(5, 1);
    let dst_intra = topo.server(6, 0);

    let mut sim = Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()));
    let f_cross = sim.add_flow(src_cross, dst_cross, 10_000_000, 0); // 10 MB across DCs
    let f_intra = sim.add_flow(src_intra, dst_intra, 1_000_000, 0); // 1 MB within DC 1

    let all_done = sim.run_until_flows_complete();
    assert!(all_done, "both flows should finish");

    for rec in &sim.out.fcts {
        let path = sim.flow_path(rec.flow).unwrap();
        println!(
            "flow {}: {} in {:.2} ms ({}, base RTT {:.1} µs, achieved {})",
            rec.flow,
            fmt_bytes(rec.size_bytes as f64),
            to_millis(rec.fct()),
            if rec.cross_dc { "cross-DC" } else { "intra-DC" },
            to_micros(path.base_rtt),
            fmt_bw(rec.size_bytes as f64 * 8.0 / to_secs(rec.fct())),
        );
    }
    println!(
        "events processed: {}, PFC pauses: {}, drops: {}",
        sim.out.events_processed,
        sim.out.pfc_events.len(),
        sim.out.total_dropped()
    );

    let cross = sim.out.fcts.iter().find(|r| r.flow == f_cross).unwrap();
    let intra = sim.out.fcts.iter().find(|r| r.flow == f_intra).unwrap();
    assert!(
        cross.fct() > intra.fct(),
        "cross-DC flows pay the long-haul RTT"
    );
}
