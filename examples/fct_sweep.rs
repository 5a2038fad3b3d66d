//! A miniature version of the paper's large-scale evaluation: WebSearch
//! traffic at moderate load through the two-DC fabric, DCQCN vs MLCC,
//! reporting average and tail FCT per traffic class. It runs the Fig. 11
//! scenario (`mlcc_bench::scenarios::large_scale`) at 40% intra-DC and
//! 10% cross-DC load over a 15 ms arrival window.
//!
//! ```sh
//! cargo run --release --example fct_sweep
//! ```

use mlcc_bench::scenarios::large_scale::{self, LargeScaleConfig, LargeScaleResult};
use mlcc_bench::Algo;
use netsim::units::MS;
use simstats::TextTable;
use workload::TrafficMix;

fn run(algo: Algo) -> LargeScaleResult {
    println!("running {}…", algo.name());
    let r = large_scale::run(
        algo,
        LargeScaleConfig {
            duration: 15 * MS,
            drain: 135 * MS,
            intra_load: 0.4,
            cross_load: 0.1,
            seed: 42,
            ..LargeScaleConfig::heavy(TrafficMix::WebSearch)
        },
    );
    println!(
        "  ({} flows, {} completed, {} PFC pauses)",
        r.flows_total, r.flows_completed, r.pfc_pauses
    );
    r
}

fn main() {
    let dcqcn = run(Algo::Dcqcn).breakdown;
    let mlcc = run(Algo::Mlcc).breakdown;

    let mut t = TextTable::new(vec![
        "class",
        "metric",
        "DCQCN (µs)",
        "MLCC (µs)",
        "MLCC wins",
    ]);
    for (class, d, m) in [
        ("intra-DC", &dcqcn.intra_dc, &mlcc.intra_dc),
        ("cross-DC", &dcqcn.cross_dc, &mlcc.cross_dc),
    ] {
        t.row(vec![
            class.to_string(),
            "avg".into(),
            format!("{:.1}", d.avg_us),
            format!("{:.1}", m.avg_us),
            format!("{}", m.avg_us < d.avg_us),
        ]);
        t.row(vec![
            class.to_string(),
            "p99.9".into(),
            format!("{:.1}", d.p999_us),
            format!("{:.1}", m.p999_us),
            format!("{}", m.p999_us < d.p999_us),
        ]);
    }
    println!("{}", t.render());
}
