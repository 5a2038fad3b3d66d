//! The repository benchmark: three two-DC workloads run end to end, with
//! output checks, a simulated-output digest, and the CC, engine and shard
//! layers timed from outside through their public functions.
//!
//! `src/main.rs` is the command; `README.md` lists the workloads, the
//! metrics and which layer metric should move which end-to-end metric.

pub mod cctrace;
pub mod scenario;

use netsim::flow::FlowOutcome;
use netsim::sim::SimOutput;

use scenario::{FlowFacts, Workload};

/// FNV-1a over the simulated output a speed-only change must leave
/// identical: the FCT vector, the outcomes, the PFC events and the event
/// counts. Records are hashed in flow order, so the digest does not
/// depend on the order an engine emitted them in.
pub fn digest(out: &SimOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in fct_vector(out) {
        eat(r.0);
        eat(r.1);
    }
    let mut outcomes: Vec<_> = out.outcomes.iter().collect();
    outcomes.sort_by_key(|o| o.flow.0);
    for o in outcomes {
        eat(o.flow.0 as u64);
        eat(o.bytes_acked);
        eat(o.ended);
        eat(match o.outcome {
            FlowOutcome::Completed => 0,
            FlowOutcome::Failed(r) => 1 + r as u64,
        });
    }
    let mut pfc = out.pfc_events.clone();
    pfc.sort_unstable();
    for (t, node) in pfc {
        eat(t);
        eat(node.0 as u64);
    }
    eat(out.events_processed);
    eat(out.events_scheduled);
    h
}

/// `(flow, FCT)` of every completed flow, in flow order.
pub fn fct_vector(out: &SimOutput) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = out
        .fcts
        .iter()
        .map(|r| (r.flow.0 as u64, r.fct()))
        .collect();
    v.sort_unstable();
    v
}

/// Check a run's outputs; returns one line per violated check.
pub fn check(workload: Workload, out: &SimOutput, facts: &[FlowFacts]) -> Vec<String> {
    let mut bad = Vec::new();
    let mut seen = vec![0u32; facts.len()];
    for o in &out.outcomes {
        match seen.get_mut(o.flow.index()) {
            Some(n) => *n += 1,
            None => bad.push(format!("outcome for unregistered flow {}", o.flow.0)),
        }
    }
    let missing_or_dup = seen.iter().filter(|&&n| n != 1).count();
    if missing_or_dup > 0 {
        bad.push(format!(
            "{missing_or_dup} of {} flows lack exactly one outcome",
            facts.len()
        ));
    }
    let too_fast: Vec<u64> = out
        .fcts
        .iter()
        .filter(|r| {
            facts
                .get(r.flow.index())
                .is_none_or(|f| r.fct() < f.min_fct)
        })
        .map(|r| r.flow.0 as u64)
        .collect();
    if !too_fast.is_empty() {
        bad.push(format!(
            "{} completed flows beat their physical FCT floor (first: flow {})",
            too_fast.len(),
            too_fast[0]
        ));
    }
    if workload == Workload::XdcPfcStormDcqcn {
        if out.buffer_drops != 0 {
            bad.push(format!(
                "storm dropped {} packets on a lossless fabric",
                out.buffer_drops
            ));
        }
        if out.pfc_events.is_empty() {
            bad.push("storm raised no PFC pause".to_string());
        }
    }
    bad
}

/// Delivered data packet-hops: Σ ⌈acked bytes / MTU⌉ × path hops. For a
/// completed flow the acked bytes are its size.
pub fn packet_hops(out: &SimOutput, facts: &[FlowFacts], mtu: u32) -> (u64, u64) {
    let (mut all, mut cross) = (0, 0);
    for o in &out.outcomes {
        let f = &facts[o.flow.index()];
        let h = o.bytes_acked.div_ceil(mtu as u64) * f.hops as u64;
        all += h;
        if f.cross_dc {
            cross += h;
        }
    }
    (all, cross)
}

/// Process CPU seconds (all threads) since the process started.
#[cfg(target_os = "linux")]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), the only memory clock_gettime writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The CPU's brand string, read with CPUID.
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports how many extended leaves exist.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002..=0x8000_0004u32 {
        let r = __cpuid(leaf);
        for w in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".to_string()
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
