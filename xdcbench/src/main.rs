//! The benchmark command: runs one workload at one seed for a given
//! number of host seconds, checks the outputs, and prints the metrics.
//!
//! ```text
//! cargo run --release --manifest-path xdcbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats untraced runs and reports the end-to-end metrics;
//! `--trace 1` alternates untraced and traced runs (every CC hook timed)
//! and reports the per-layer metrics. Both also time the set-up on its
//! own between runs, for `setup_s`. Human-readable lines come first; the
//! last line of standard output is one JSON object. The exit code is 1
//! when an output check fails and 2 on bad arguments.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use netsim::alloc::CountingAlloc;
use netsim::flow::FctRecord;
use netsim::sim::SimOutput;
use simstats::json::Value;
use simstats::FctBreakdown;
use xdcbench::cctrace::{hook_index, CcTotals, HOOKS};
use xdcbench::scenario::{FlowFacts, Mode, Rep, Scenario, SetupTimes, Workload, SHARDS};
use xdcbench::{check, cpu_model, digest, median, packet_hops};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Before each measured run, set-ups are timed on their own for this long
/// (at least once). A set-up takes 0.1 to 20 ms and the host's speed
/// drifts over seconds, so `setup_s` needs many samples spread over the
/// whole window.
const SETUP_SLICE: Duration = Duration::from_millis(50);

/// Workload instances an end-to-end run pools: the one at `--seed` and
/// more at seeds derived from it. One Hadoop instance has ~4.8k flows,
/// and its p99 FCT and peak heap move by 10–20 % from seed to seed;
/// pooling four instances halves that. Traced runs use the first alone,
/// so the per-layer figures describe the workload at `--seed` itself.
const INSTANCES: u64 = 4;

/// Hooks every workload calls, timed one by one.
const TIMED_ALONE: [&str; 5] = ["on_ack", "on_sent", "rate_bps", "on_data", "create"];
/// Feedback hooks, timed together: each workload calls only some of them
/// (MLCC takes Switch-INT; DCQCN takes CNPs and timers), and a time that
/// is zero on every run is no measurement.
const FEEDBACK: [&str; 3] = ["on_cnp", "on_switch_int", "on_timer"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(val).ok_or_else(|| format!("unknown workload {val}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics in report order: (name, unit, value).
type Metrics = Vec<(String, &'static str, f64)>;

fn push(m: &mut Metrics, name: &str, unit: &'static str, value: f64) {
    m.push((name.to_string(), unit, value));
}

/// Simulated goodput: bytes acknowledged over the simulated time until
/// the last flow ended. (The sharded engine runs on after that, draining
/// ACKs in flight, so its `finished_at` would dilute the figure.)
fn goodput_gbps(out: &SimOutput) -> f64 {
    let acked: u64 = out.outcomes.iter().map(|o| o.bytes_acked).sum();
    let last_end = out.outcomes.iter().map(|o| o.ended).max().unwrap_or(0);
    acked as f64 * 8.0 / netsim::units::to_secs(last_end) / 1e9
}

/// Host milliseconds per simulated millisecond, per engine.
fn slices_ms(cc: &[CcTotals]) -> Vec<f64> {
    cc.iter()
        .flat_map(|t| {
            t.marks
                .windows(2)
                .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
        })
        .collect()
}

/// Switch-INT feedbacks per data packet sent.
fn switch_int_per_data_pkt(cc: &[CcTotals]) -> f64 {
    let int = sum_hooks(cc, &[hook_index("on_switch_int")]).0;
    let sent = sum_hooks(cc, &[hook_index("on_sent")]).0;
    int as f64 / sent.max(1) as f64
}

/// Calls and host seconds of a set of hooks, summed over engines.
fn sum_hooks(cc: &[CcTotals], hooks: &[usize]) -> (u64, f64) {
    let mut acc = (0, 0.0);
    for t in cc {
        for &h in hooks {
            acc.0 += t.hooks[h].calls;
            acc.1 += t.hooks[h].nanos as f64 * 1e-9;
        }
    }
    acc
}

/// Seed of instance `k`; instance 0 runs at `seed` itself.
fn instance_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Everything one invocation measured. Untraced run `i` is of instance
/// `i % n`; traced runs are of instance 0.
struct Runs {
    setups: Vec<SetupTimes>,
    plain: Vec<Rep>,
    traced: Vec<Rep>,
}

impl Runs {
    fn plain_median(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.plain.iter().map(f).collect::<Vec<_>>())
    }

    fn traced_median(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.traced.iter().map(f).collect::<Vec<_>>())
    }

    fn setup_median(&self, f: impl Fn(&SetupTimes) -> f64) -> f64 {
        median(&self.setups.iter().map(f).collect::<Vec<_>>())
    }
}

/// Repeat measured runs (untraced, or untraced and traced in turn) until
/// the window is spent and every instance has run, with at least one
/// traced run when tracing; before each, time set-ups on their own for
/// `SETUP_SLICE`.
fn measure(scs: &[Scenario], window: Duration, trace: bool) -> Runs {
    let start = Instant::now();
    let (mut setups, mut plain, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let tracing = trace && plain.len() > traced.len();
        let sc = if tracing {
            &scs[0]
        } else {
            &scs[plain.len() % scs.len()]
        };
        let slice = Instant::now();
        setups.push(sc.rep(Mode::SetupOnly).setup);
        while slice.elapsed() < SETUP_SLICE {
            setups.push(sc.rep(Mode::SetupOnly).setup);
        }
        if tracing {
            traced.push(sc.rep(Mode::Traced));
        } else {
            let rep = sc.rep(Mode::Untraced);
            setups.push(rep.setup);
            plain.push(rep);
        }
        if start.elapsed() >= window && plain.len() >= scs.len() && (!trace || !traced.is_empty()) {
            break;
        }
    }
    Runs {
        setups,
        plain,
        traced,
    }
}

/// Delivered data packet-hops of a run: all, and cross-DC.
struct Hops {
    all: f64,
    cross: f64,
}

/// End-to-end metrics over the pooled instances (one `Hops` each).
fn end_to_end(m: &mut Metrics, runs: &Runs, hops: &[Hops]) {
    let n = hops.len();
    let pooled: Vec<FctRecord> = runs.plain[..n]
        .iter()
        .flat_map(|r| r.out.fcts.iter().copied())
        .collect();
    let fct = FctBreakdown::new(&pooled).all;
    let rates: Vec<f64> = runs
        .plain
        .iter()
        .enumerate()
        .map(|(i, r)| hops[i % n].all / r.run_s / 1e6)
        .collect();
    push(m, "setup_s", "s", runs.setup_median(|s| s.total_s));
    push(m, "mhops_per_s", "Mhop/s", median(&rates));
    push(
        m,
        "peak_heap_mb",
        "MB",
        runs.plain_median(|r| r.peak_heap_bytes as f64 / 1e6),
    );
    push(m, "fct_p50_us", "us", fct.p50_us);
    push(m, "fct_p99_us", "us", fct.p99_us);
}

fn per_layer(m: &mut Metrics, runs: &Runs, hops: &Hops, wl: Workload, flows: usize) {
    let out = &runs.plain[0].out;
    let cc = &runs.traced[0].cc;
    let run_s = runs.plain_median(|r| r.run_s);
    let traced_run_s = runs.traced_median(|r| r.run_s);
    let cc_self = runs.traced_median(|r| r.cc.iter().map(CcTotals::seconds).sum());
    // Shard threads run in parallel, so on the sharded workload the
    // engine's share is counted in thread-seconds.
    let engines = if wl == Workload::XdcHadoopMlcc2Shard {
        SHARDS as f64
    } else {
        1.0
    };
    push(m, "sim.run_s", "s", run_s);
    push(m, "sim.events", "count", out.events_processed as f64);
    push(
        m,
        "sim.events_scheduled",
        "count",
        out.events_scheduled as f64,
    );
    push(
        m,
        "sim.events_per_hop",
        "count",
        out.events_processed as f64 / hops.all,
    );
    push(m, "sim.ns_per_hop", "ns", run_s * 1e9 / hops.all);
    push(m, "sim.self_s", "s", engines * traced_run_s - cc_self);
    push(
        m,
        "sim.peak_queue_depth",
        "count",
        out.peak_queue_depth as f64,
    );
    push(
        m,
        "sim.slice_ms_p50",
        "ms",
        runs.traced_median(|r| median(&slices_ms(&r.cc))),
    );
    push(
        m,
        "sim.slice_ms_max",
        "ms",
        runs.traced_median(|r| slices_ms(&r.cc).into_iter().fold(0.0, f64::max)),
    );
    push(
        m,
        "sim.alloc_calls",
        "count",
        runs.plain_median(|r| r.alloc_calls as f64),
    );
    for (i, hook) in HOOKS.iter().enumerate() {
        push(
            m,
            &format!("cc.{hook}.calls"),
            "count",
            sum_hooks(cc, &[i]).0 as f64,
        );
    }
    for hook in TIMED_ALONE {
        let i = [hook_index(hook)];
        push(
            m,
            &format!("cc.{hook}.s"),
            "s",
            runs.traced_median(|r| sum_hooks(&r.cc, &i).1),
        );
    }
    let feedback = FEEDBACK.map(hook_index);
    push(
        m,
        "cc.feedback.s",
        "s",
        runs.traced_median(|r| sum_hooks(&r.cc, &feedback).1),
    );
    push(m, "cc.self_s", "s", cc_self);
    push(m, "buffer.drops", "count", out.buffer_drops as f64);
    push(m, "ecn.marks", "count", out.ecn_marks as f64);
    push(m, "host.retransmits", "count", out.retransmits as f64);
    push(
        m,
        "monitor.samples",
        "count",
        out.monitor.samples.len() as f64,
    );
    push(
        m,
        "workload.generate_s",
        "s",
        runs.setup_median(|s| s.generate_s),
    );
    push(
        m,
        "topology.build_s",
        "s",
        runs.setup_median(|s| s.topology_s),
    );
    push(m, "sim.new_s", "s", runs.setup_median(|s| s.sim_new_s));
    push(
        m,
        "sim.add_flow_s",
        "s",
        runs.setup_median(|s| s.add_flow_s),
    );
    push(m, "shard.setup_s", "s", runs.setup_median(|s| s.shard_s));
    push(m, "shard.cpu_s", "s", runs.plain_median(|r| r.cpu_s));
    let per_engine: Vec<u64> = cc.iter().map(CcTotals::calls).collect();
    let busy = per_engine.iter().copied().max().unwrap_or(0);
    let light = per_engine.iter().copied().min().unwrap_or(0);
    push(
        m,
        "shard.cc_calls_ratio",
        "ratio",
        busy as f64 / light.max(1) as f64,
    );
    push(m, "trace.run_s", "s", traced_run_s);
    push(
        m,
        "trace.overhead_frac",
        "ratio",
        traced_run_s / run_s - 1.0,
    );
    push(m, "goodput_gbps", "Gbps", goodput_gbps(out));
    push(m, "pfc_pauses", "count", out.pfc_events.len() as f64);
    push(
        m,
        "failed_frac",
        "ratio",
        out.failed().count() as f64 / flows as f64,
    );
    push(
        m,
        "prop.switch_int_per_data_pkt",
        "ratio",
        switch_int_per_data_pkt(cc),
    );
    push(m, "prop.cross_dc_hop_share", "ratio", hops.cross / hops.all);
    push(
        m,
        "prop.flows_per_mhop",
        "1/Mhop",
        flows as f64 / (hops.all / 1e6),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xdcbench: {e}");
            eprintln!(
                "usage: xdcbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(|w| w.name()).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let n = if args.trace { 1 } else { INSTANCES };
    let scs: Vec<Scenario> = (0..n)
        .map(|k| Scenario::new(wl, instance_seed(args.seed, k)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host: nproc={nproc} rustc=\"{}\" cpu=\"{}\"",
        env!("XDCBENCH_RUSTC_VERSION"),
        cpu_model()
    );

    let facts: Vec<Vec<FlowFacts>> = scs.iter().map(Scenario::flow_facts).collect();
    let runs = measure(&scs, Duration::from_secs(args.seconds), args.trace);
    let n = scs.len();
    println!(
        "workload: {} seed={} instances={n} runs={} untraced + {} traced, set-ups={}",
        wl.name(),
        args.seed,
        runs.plain.len(),
        runs.traced.len(),
        runs.setups.len()
    );
    let run_times: Vec<f64> = runs.plain.iter().map(|r| r.run_s).collect();
    println!("run_s of each untraced run: {run_times:.3?}");

    // Output checks: every run of an instance, traced or not, must produce
    // the identical simulated output, and that output must pass the checks.
    let firsts = &runs.plain[..n];
    let want: Vec<u64> = firsts.iter().map(|r| digest(&r.out)).collect();
    let mut problems = Vec::new();
    for (k, r) in firsts.iter().enumerate() {
        problems.extend(check(wl, &r.out, &facts[k]));
        println!(
            "instance {k}: seed={} flows={} digest={:#018x}",
            scs[k].seed,
            facts[k].len(),
            want[k]
        );
    }
    let differing = runs
        .plain
        .iter()
        .enumerate()
        .filter(|(i, r)| digest(&r.out) != want[i % n])
        .count()
        + runs
            .traced
            .iter()
            .filter(|r| digest(&r.out) != want[0])
            .count();
    if differing > 0 {
        problems.push(format!(
            "{differing} runs differ from their instance's first output"
        ));
    }

    let mtu = netsim::config::SimConfig::default().mtu_payload;
    let hops: Vec<Hops> = firsts
        .iter()
        .zip(&facts)
        .map(|(r, f)| {
            let (all, cross) = packet_hops(&r.out, f, mtu);
            Hops {
                all: all as f64,
                cross: cross as f64,
            }
        })
        .collect();
    let failed: Vec<usize> = firsts.iter().map(|r| r.out.failed().count()).collect();
    let int_per_pkt = runs
        .traced
        .first()
        .map_or("(traced runs only)".to_string(), |r| {
            format!("{:.4}", switch_int_per_data_pkt(&r.cc))
        });
    let out = &firsts[0].out;
    println!(
        "properties of instance 0: pfc_pauses={} switch_int_per_data_pkt={int_per_pkt} \
         cross_dc_hop_share={:.4} monitor_samples={} flows_per_mhop={:.2} failed_flows={}",
        out.pfc_events.len(),
        hops[0].cross / hops[0].all,
        out.monitor.samples.len(),
        facts[0].len() as f64 / (hops[0].all / 1e6),
        failed[0],
    );

    let mut m = Metrics::new();
    if args.trace {
        per_layer(&mut m, &runs, &hops[0], wl, facts[0].len());
    } else {
        end_to_end(&mut m, &runs, &hops);
    }
    for (name, unit, value) in &m {
        println!("metric {name} = {value} {unit}");
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    if correct {
        println!("checks: ok");
    }
    // Traced runs are of instance 0, like untraced run 0.
    let instance_of = (0..runs.plain.len())
        .map(|i| i % n)
        .chain(runs.traced.iter().map(|_| 0));
    let (attempted, failed) =
        instance_of.fold((0, 0), |(a, f), k| (a + facts[k].len(), f + failed[k]));
    let failed = if correct { failed } else { attempted };
    let mut metrics = Value::object();
    for (name, unit, value) in &m {
        metrics.set(
            name,
            Value::object().with("value", *value).with("unit", *unit),
        );
    }
    let result = Value::object()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics);
    println!("{}", result.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
