//! The three workloads, and one repetition of a workload: set it up, run
//! it, and time the calls into each layer from outside.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mlcc_bench::scenarios::large_scale::LargeScaleConfig;
use mlcc_bench::Algo;
use netsim::alloc::CountingAlloc;
use netsim::cc::CcFactory;
use netsim::prelude::*;
use workload::{FlowRequest, TrafficClass, TrafficGen, TrafficMix};

use crate::cctrace::{CcSink, CcTotals, TimedFactory};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 11 heavy Hadoop load at XL scale under MLCC, one thread.
    XdcHadoopMlcc,
    /// Fig. 2 Experiment 1 (the receiver-DC PFC storm) under DCQCN.
    XdcPfcStormDcqcn,
    /// `XdcHadoopMlcc` on the sharded engine, one shard per DC.
    XdcHadoopMlcc2Shard,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::XdcHadoopMlcc,
        Workload::XdcPfcStormDcqcn,
        Workload::XdcHadoopMlcc2Shard,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::XdcHadoopMlcc => "xdc_hadoop_mlcc",
            Workload::XdcPfcStormDcqcn => "xdc_pfc_storm_dcqcn",
            Workload::XdcHadoopMlcc2Shard => "xdc_hadoop_mlcc_2shard",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn algo(self) -> Algo {
        match self {
            Workload::XdcPfcStormDcqcn => Algo::Dcqcn,
            _ => Algo::Mlcc,
        }
    }
}

/// Storm flow size. Fig. 2 runs 2 GB flows for a fixed window; 30 MB
/// keeps every flow alive through the storm (the pause transitions end
/// by about 20 ms) and lets all of them complete near 30 ms, so the
/// storm has FCTs like the other workloads. 10 MB flows raise no storm.
pub const STORM_FLOW_BYTES: u64 = 30_000_000;
/// The storm phase, over which the traced run measures host time per
/// simulated millisecond.
pub const STORM_PHASE: Time = 20 * MS;
/// Stop time of the storm workload: a safety bound far past the last
/// completion; a flow still running then fails.
pub const STORM_STOP: Time = 200 * MS;
/// Monitor sampling period of the storm workload (as in Fig. 2).
pub const STORM_MONITOR: Time = 50 * US;
/// Shards of the sharded workload: one per DC.
pub const SHARDS: u32 = 2;

/// One workload at one seed.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    pub workload: Workload,
    pub seed: u64,
}

/// What a repetition does after setting up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Set up, then run with a zero stop time: times the set-up alone.
    SetupOnly,
    /// The measured run.
    Untraced,
    /// The run with every CC hook timed.
    Traced,
}

/// Per-flow facts the checks and the hop count need.
#[derive(Clone, Copy, Debug)]
pub struct FlowFacts {
    pub hops: u32,
    pub cross_dc: bool,
    /// Physical FCT floor: every link's propagation delay plus the
    /// payload's serialization at the path bottleneck.
    pub min_fct: Time,
}

/// Host seconds of each set-up layer. On the sharded workload the
/// per-shard figures are the slowest shard's.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub topology_s: f64,
    pub sim_new_s: f64,
    pub add_flow_s: f64,
    /// Engine construction plus flow registration; per shard on the
    /// sharded workload (the slowest shard).
    pub shard_s: f64,
    pub total_s: f64,
}

/// One repetition's output and host measurements.
pub struct Rep {
    pub out: SimOutput,
    pub setup: SetupTimes,
    pub run_s: f64,
    /// Process CPU seconds over the run.
    pub cpu_s: f64,
    pub alloc_calls: u64,
    pub peak_heap_bytes: u64,
    /// One entry per engine; empty unless traced.
    pub cc: Vec<CcTotals>,
}

/// One shard's set-up, recorded on its own thread.
#[derive(Clone, Copy)]
struct ShardSetup {
    topology_s: f64,
    sim_new_s: f64,
    add_flow_s: f64,
    started: Instant,
    done: Instant,
    cpu_at_done: f64,
    allocs_at_done: u64,
}

thread_local! {
    /// (start, topology built, engine built) of this thread's shard.
    static SHARD_BUILD: Cell<Option<(Instant, Instant, Instant)>> = const { Cell::new(None) };
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

impl Scenario {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Scenario { workload, seed }
    }

    fn large_scale(&self) -> LargeScaleConfig {
        LargeScaleConfig {
            seed: self.seed,
            ..LargeScaleConfig::xl(TrafficMix::Hadoop)
        }
    }

    fn params(&self) -> TwoDcParams {
        match self.workload {
            // Shallow receiver-DC switches are the point of Exp. 1 (see
            // `mlcc_bench::scenarios::motivation::experiment1`).
            Workload::XdcPfcStormDcqcn => TwoDcParams {
                servers_per_leaf: 4,
                spines_per_dc: 2,
                dc_switch_buffer: 2_750_000,
                ..TwoDcParams::default()
            },
            _ => {
                let ls = self.large_scale();
                TwoDcParams {
                    servers_per_leaf: ls.servers_per_leaf,
                    long_haul_delay: ls.long_haul_delay,
                    ..TwoDcParams::default()
                }
            }
        }
    }

    fn sim_config(&self, mode: Mode) -> SimConfig {
        let algo = self.workload.algo();
        let base = SimConfig {
            dci: algo.dci_features(),
            seed: self.seed,
            ..SimConfig::default()
        };
        let cfg = match self.workload {
            Workload::XdcPfcStormDcqcn => SimConfig {
                stop_time: STORM_STOP,
                monitor_interval: STORM_MONITOR,
                ..base
            },
            _ => {
                let ls = self.large_scale();
                SimConfig {
                    stop_time: ls.duration + ls.drain,
                    monitor_interval: 0,
                    ..base
                }
            }
        };
        match mode {
            Mode::SetupOnly => SimConfig {
                stop_time: 0,
                ..cfg
            },
            _ => cfg,
        }
    }

    /// Simulated window over which the traced run stamps host time per
    /// simulated millisecond: the flow-arrival window of the Hadoop
    /// workloads, the storm phase after the first flows start.
    pub fn slice_window(&self) -> (Time, Time) {
        match self.workload {
            Workload::XdcPfcStormDcqcn => (MS, STORM_PHASE),
            _ => (0, self.large_scale().duration),
        }
    }

    /// The flows to register: generated from the seed for the Hadoop
    /// workloads (in the order `large_scale::run` generates them, so
    /// seed 7 is `engine_perf`'s `large_scale_xl`), fixed for the storm.
    fn requests(&self, topo: &TwoDcTopology) -> Vec<FlowRequest> {
        if self.workload == Workload::XdcPfcStormDcqcn {
            // Four Rack-5 → Rack-6 flows at 1 ms, then four Rack-1
            // flows into the same Rack-6 receivers at 2 ms.
            let req = |src, dst, start| FlowRequest {
                src,
                dst,
                size_bytes: STORM_FLOW_BYTES,
                start,
            };
            let intra = (0..4).map(|i| req(topo.server(5, i), topo.server(6, i), MS));
            let cross = (0..4).map(|i| req(topo.server(1, i), topo.server(6, i), 2 * MS));
            return intra.chain(cross).collect();
        }
        let ls = self.large_scale();
        let params = topo.params;
        let mut gen = TrafficGen::new(ls.seed, params.server_link);
        let mut requests = Vec::new();
        for dc in 0..2 {
            let servers = topo.dc_servers(dc);
            let class = TrafficClass {
                senders: servers.clone(),
                receivers: servers,
                load: ls.intra_load,
                mix: ls.mix,
            };
            requests.extend(gen.generate(&class, 0, ls.duration));
        }
        for (src_dc, dst_dc) in [(0usize, 1usize), (1, 0)] {
            let senders = topo.dc_servers(src_dc);
            let eq_load = ls.cross_load * params.long_haul_link as f64
                / (senders.len() as f64 * params.server_link as f64);
            let class = TrafficClass {
                senders,
                receivers: topo.dc_servers(dst_dc),
                load: eq_load.min(1.0),
                mix: ls.mix,
            };
            requests.extend(gen.generate(&class, 0, ls.duration));
        }
        requests
    }

    /// The storm's monitor: the Rack-6 receiver downlinks, every flow,
    /// and PFC at the Rack-6 leaf and the receiver-DC spine (as Fig. 2).
    fn monitor(&self, topo: &TwoDcTopology) -> Option<MonitorSpec> {
        if self.workload != Workload::XdcPfcStormDcqcn {
            return None;
        }
        let down_links = (0..4)
            .map(|i| {
                let host = topo.net.nodes[topo.server(6, i).index()]
                    .as_host()
                    .expect("servers are hosts");
                topo.net.links[host.uplink.index()].reverse
            })
            .collect();
        Some(MonitorSpec {
            queues: down_links,
            flows: (0..8).map(FlowId).collect(),
            pfc_switches: vec![topo.leaves[1][1], topo.spines[1][0]],
            pfq_link: None,
            fault_links: Vec::new(),
        })
    }

    fn register(sim: &mut Simulator, requests: &[FlowRequest], monitor: &Option<MonitorSpec>) {
        for r in requests {
            sim.add_flow(r.src, r.dst, r.size_bytes, r.start);
        }
        if let Some(spec) = monitor {
            sim.set_monitor(spec.clone());
        }
    }

    fn factory(&self, mode: Mode, sink: &CcSink) -> Box<dyn CcFactory> {
        let inner = self.workload.algo().factory();
        if mode != Mode::Traced {
            return inner;
        }
        let (from, to) = self.slice_window();
        Box::new(TimedFactory::new(inner, sink.clone(), from, to, MS))
    }

    /// Per-flow facts, from an engine set up outside any timed region.
    pub fn flow_facts(&self) -> Vec<FlowFacts> {
        let topo = TwoDcTopology::build(self.params());
        let (requests, monitor) = (self.requests(&topo), self.monitor(&topo));
        let sim_cfg = self.sim_config(Mode::SetupOnly);
        let mut sim = Simulator::new(topo.net, sim_cfg, self.workload.algo().factory());
        Self::register(&mut sim, &requests, &monitor);
        sim.flows
            .iter()
            .map(|spec| {
                let path = sim.flow_path(spec.id).expect("registered flows have paths");
                let propagation: Time = sim
                    .resolve_path_links(spec)
                    .iter()
                    .map(|l| sim.links[l.index()].delay)
                    .sum();
                FlowFacts {
                    hops: path.hops,
                    cross_dc: path.cross_dc,
                    min_fct: propagation + tx_time(spec.size_bytes, path.bottleneck_bps),
                }
            })
            .collect()
    }

    /// Set up and run once.
    pub fn rep(&self, mode: Mode) -> Rep {
        let base = CountingAlloc::live_bytes();
        CountingAlloc::reset_peak();
        let sink: CcSink = Arc::new(Mutex::new(Vec::new()));
        let mut rep = match self.workload {
            Workload::XdcHadoopMlcc2Shard => self.rep_sharded(mode, &sink),
            _ => self.rep_single(mode, &sink),
        };
        rep.peak_heap_bytes = CountingAlloc::peak_bytes() - base;
        rep.cc = std::mem::take(&mut *sink.lock().expect("CC sink poisoned"));
        rep
    }

    fn rep_single(&self, mode: Mode, sink: &CcSink) -> Rep {
        let t0 = Instant::now();
        let topo = TwoDcTopology::build(self.params());
        let t1 = Instant::now();
        let (requests, monitor) = (self.requests(&topo), self.monitor(&topo));
        let t2 = Instant::now();
        let mut sim = Simulator::new(topo.net, self.sim_config(mode), self.factory(mode, sink));
        let t3 = Instant::now();
        Self::register(&mut sim, &requests, &monitor);
        let t4 = Instant::now();
        let (cpu0, allocs0) = (crate::process_cpu_s(), CountingAlloc::alloc_calls());
        let t5 = Instant::now();
        sim.run_until_flows_complete();
        let run_s = t5.elapsed().as_secs_f64();
        let (cpu1, allocs1) = (crate::process_cpu_s(), CountingAlloc::alloc_calls());
        let out = std::mem::take(&mut sim.out);
        // Dropping the engine hands the CC totals to the sink.
        drop(sim);
        Rep {
            out,
            setup: SetupTimes {
                generate_s: secs(t1, t2),
                topology_s: secs(t0, t1),
                sim_new_s: secs(t2, t3),
                add_flow_s: secs(t3, t4),
                shard_s: secs(t2, t4),
                total_s: secs(t0, t4),
            },
            run_s,
            cpu_s: cpu1 - cpu0,
            alloc_calls: allocs1 - allocs0,
            peak_heap_bytes: 0,
            cc: Vec::new(),
        }
    }

    fn rep_sharded(&self, mode: Mode, sink: &CcSink) -> Rep {
        let params = self.params();
        let sim_cfg = self.sim_config(mode);
        let t0 = Instant::now();
        let topo = TwoDcTopology::build(params);
        let t1 = Instant::now();
        let requests = self.requests(&topo);
        let t2 = Instant::now();
        drop(topo);
        let shards: Mutex<Vec<ShardSetup>> = Mutex::new(Vec::new());
        // Each shard thread builds its own engine and registers every
        // flow; ownership gating inside the engine does the rest.
        let build = || {
            let b0 = Instant::now();
            let topo = TwoDcTopology::build(params);
            let b1 = Instant::now();
            let sim = Simulator::new(topo.net, sim_cfg, self.factory(mode, sink));
            SHARD_BUILD.with(|c| c.set(Some((b0, b1, Instant::now()))));
            sim
        };
        let setup = |sim: &mut Simulator| {
            let s0 = Instant::now();
            Self::register(sim, &requests, &None);
            let done = Instant::now();
            let (b0, b1, b2) = SHARD_BUILD
                .with(|c| c.take())
                .expect("build runs before setup on the shard thread");
            let rec = ShardSetup {
                topology_s: secs(b0, b1),
                sim_new_s: secs(b1, b2),
                add_flow_s: secs(s0, done),
                started: b0,
                done,
                cpu_at_done: crate::process_cpu_s(),
                allocs_at_done: CountingAlloc::alloc_calls(),
            };
            shards.lock().expect("shard setup log poisoned").push(rec);
        };
        let sh = netsim::shard::run_sharded(SHARDS, None, build, setup);
        let end = Instant::now();
        let (cpu1, allocs1) = (crate::process_cpu_s(), CountingAlloc::alloc_calls());
        let shards = shards.into_inner().expect("shard setup log poisoned");
        let max_of = |f: fn(&ShardSetup) -> f64| shards.iter().map(f).fold(0.0, f64::max);
        // The run starts when the last shard finishes setting up: the
        // engines rendezvous at a barrier before the first window.
        let last = *shards
            .iter()
            .max_by_key(|s| s.done)
            .expect("every shard sets up");
        let shard_s = max_of(|s| secs(s.started, s.done));
        Rep {
            out: sh.out,
            setup: SetupTimes {
                generate_s: secs(t1, t2),
                topology_s: secs(t0, t1) + max_of(|s| s.topology_s),
                sim_new_s: max_of(|s| s.sim_new_s),
                add_flow_s: max_of(|s| s.add_flow_s),
                shard_s,
                total_s: secs(t0, t2) + shard_s,
            },
            run_s: secs(last.done, end),
            cpu_s: cpu1 - last.cpu_at_done,
            alloc_calls: allocs1 - last.allocs_at_done,
            peak_heap_bytes: 0,
            cc: Vec::new(),
        }
    }
}
