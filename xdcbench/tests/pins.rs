//! Benchmark tests: the CC timing decorator leaves the simulation
//! untouched, and the Hadoop workloads at seed 7 are the scenarios the
//! `engine_perf` harness records in `BENCH_netsim.json`.
//!
//! Run with `cargo test --manifest-path xdcbench/Cargo.toml`.

use xdcbench::cctrace::hook_index;
use xdcbench::scenario::{Mode, Rep, Scenario, Workload};
use xdcbench::{check, digest, fct_vector};

/// Run one workload plain and traced; both must pass the output checks
/// and produce the same simulated-output digest.
fn plain_and_traced(wl: Workload, seed: u64) -> (Rep, Rep) {
    let sc = Scenario::new(wl, seed);
    let facts = sc.flow_facts();
    let plain = sc.rep(Mode::Untraced);
    let traced = sc.rep(Mode::Traced);
    for rep in [&plain, &traced] {
        let problems = check(wl, &rep.out, &facts);
        assert!(problems.is_empty(), "{}: {problems:?}", wl.name());
    }
    assert_eq!(
        digest(&plain.out),
        digest(&traced.out),
        "{}: the CC timing decorator changed the simulation",
        wl.name()
    );
    assert!(plain.cc.is_empty(), "untraced runs record no CC totals");
    (plain, traced)
}

#[test]
fn decorator_is_transparent_on_the_storm() {
    let (plain, traced) = plain_and_traced(Workload::XdcPfcStormDcqcn, 7);
    assert!(!plain.out.pfc_events.is_empty(), "the storm raises PFC");
    let [cc] = &traced.cc[..] else {
        panic!("one engine, one CC record; got {}", traced.cc.len());
    };
    // DCQCN runs its CNP and timer hooks here; Switch-INT is MLCC's.
    assert!(cc.hooks[hook_index("on_cnp")].calls > 0);
    assert!(cc.hooks[hook_index("on_timer")].calls > 0);
    assert_eq!(cc.hooks[hook_index("on_switch_int")].calls, 0);
    assert_eq!(
        cc.hooks[hook_index("create")].calls,
        16,
        "8 flows, 2 halves"
    );
    // The simulated-time clock stamps every millisecond of the storm
    // phase (1–20 ms inclusive).
    assert_eq!(cc.marks.len(), 20);
}

#[test]
fn xl_workloads_reproduce_engine_perf_and_each_other() {
    // `large_scale_xl` and `large_scale_xl_mc2` in BENCH_netsim.json.
    let (w1, w1_traced) = plain_and_traced(Workload::XdcHadoopMlcc, 7);
    assert_eq!(w1.out.events_processed, 31_799_950);
    assert_eq!(w1.out.events_scheduled, 31_800_137);
    assert_eq!(w1.out.outcomes.len(), 4_808);
    assert_eq!(w1.out.fcts.len(), 4_808);
    assert_eq!(w1_traced.cc.len(), 1);
    assert_eq!(w1_traced.cc[0].marks.len(), 21, "0–20 ms inclusive");

    let (w3, w3_traced) = plain_and_traced(Workload::XdcHadoopMlcc2Shard, 7);
    assert_eq!(w3.out.events_processed, 31_800_247);
    assert_eq!(w3.out.fcts.len(), 4_808);
    assert_eq!(
        fct_vector(&w3.out),
        fct_vector(&w1.out),
        "sharding must not change any flow's completion time"
    );
    // One CC record per shard, crossing back from the shard threads;
    // together they saw every data packet the single engine saw. (ACKs
    // differ: the single engine stops at the last completion, the
    // sharded one drains the ACKs still in flight.)
    assert_eq!(w3_traced.cc.len(), 2);
    for hook in ["on_sent", "on_data"] {
        let h = hook_index(hook);
        let sharded: u64 = w3_traced.cc.iter().map(|c| c.hooks[h].calls).sum();
        assert_eq!(sharded, w1_traced.cc[0].hooks[h].calls, "{hook}");
    }
    assert!(w3.setup.shard_s > 0.0 && w3.run_s > 0.0);
}
