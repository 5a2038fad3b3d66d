//! DQM parameter exploration: how θ (the drain-time budget) and D_t (the
//! target queueing delay) shape the receiver-side DCI queue. Each point
//! is the Fig. 8 convergence scenario (`mlcc_bench::scenarios::convergence`):
//! 4 cross-DC flows into two shared receivers.
//!
//! ```sh
//! cargo run --release --example dqm_tuning
//! ```

use mlcc_bench::scenarios::convergence::{self, Bottleneck};
use mlcc_bench::Algo;
use mlcc_core::MlccParams;
use netsim::units::MS;

/// Peak and settled (last fifth of the run) DCI queue, in MB.
fn run(params: MlccParams) -> (f64, f64) {
    let r = convergence::run(Algo::Mlcc, Bottleneck::ReceiverSide, true, 80 * MS, params);
    let series = r.dci_queue;
    let peak = series.iter().map(|x| x.1).max().unwrap_or(0) as f64 / 1e6;
    let tail = {
        let n = series.len();
        let t = &series[n - n / 5..];
        t.iter().map(|x| x.1).sum::<u64>() as f64 / t.len() as f64 / 1e6
    };
    (peak, tail)
}

fn main() {
    println!("theta_ms,d_t_ms,peak_mb,settled_mb");
    let mut settled_by_dt = Vec::new();
    for theta_ms in [6u64, 18, 30] {
        for dt_ms in [1u64, 3] {
            let params = MlccParams {
                theta: theta_ms * MS,
                d_t: dt_ms * MS,
                ..MlccParams::default()
            };
            let (peak, tail) = run(params);
            println!("{theta_ms},{dt_ms},{peak:.1},{tail:.2}");
            if theta_ms == 18 {
                settled_by_dt.push((dt_ms, tail));
            }
        }
    }
    // A larger target delay should settle to a larger standing queue.
    settled_by_dt.sort_by_key(|&(dt, _)| dt);
    println!(
        "=> at theta=18ms, settled queue grows with D_t: {:?}",
        settled_by_dt
    );
}
