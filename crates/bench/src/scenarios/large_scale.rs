//! Figs. 11–15: large-scale mixed-workload simulations.
//!
//! Two traffic classes share the Fig. 1 fabric: intra-DC flows inside
//! each datacenter (load as a fraction of server NIC capacity) and
//! cross-DC flows in both directions (load as a fraction of the
//! long-haul capacity, which is what makes 20–50% feasible against a
//! single 100 Gbps interconnect).

use netsim::prelude::*;
use simstats::FctBreakdown;
use workload::{TrafficClass, TrafficGen, TrafficMix};

use crate::algo::Algo;

/// Configuration of one large-scale run.
#[derive(Clone, Copy, Debug)]
pub struct LargeScaleConfig {
    pub servers_per_leaf: usize,
    /// Window during which new flows arrive.
    pub duration: Time,
    /// Extra drain time allowed after the arrival window.
    pub drain: Time,
    /// Intra-DC load as a fraction of aggregate server capacity.
    pub intra_load: f64,
    /// Cross-DC load as a fraction of long-haul capacity (per direction).
    pub cross_load: f64,
    pub mix: TrafficMix,
    pub long_haul_delay: Time,
    pub seed: u64,
}

impl LargeScaleConfig {
    /// Heavy load (Fig. 11): 50% intra + 20% cross.
    pub fn heavy(mix: TrafficMix) -> Self {
        LargeScaleConfig {
            servers_per_leaf: 2,
            duration: 20 * MS,
            drain: 150 * MS,
            intra_load: 0.5,
            cross_load: 0.2,
            mix,
            long_haul_delay: 3 * MS,
            seed: 7,
        }
    }

    /// Light load (Fig. 12): 30% intra + 10% cross.
    pub fn light(mix: TrafficMix) -> Self {
        LargeScaleConfig {
            intra_load: 0.3,
            cross_load: 0.1,
            ..LargeScaleConfig::heavy(mix)
        }
    }

    /// Paper-scale topology (32 servers per leaf) and a longer window.
    pub fn full(mut self) -> Self {
        self.servers_per_leaf = 8;
        self.duration = 40 * MS;
        self
    }

    /// XL scale-up study: 4x the hosts of [`Self::heavy`] (8 servers
    /// per leaf, 64 total), same mix and load fractions. Stresses the
    /// engine's memory behaviour — pools, dense tables, event queue —
    /// at a host count the heavy configuration never reaches.
    pub fn xl(mix: TrafficMix) -> Self {
        LargeScaleConfig {
            servers_per_leaf: 8,
            ..LargeScaleConfig::heavy(mix)
        }
    }
}

/// Result of one run.
pub struct LargeScaleResult {
    pub algo: Algo,
    /// Display label (the algorithm name, or an ablation variant).
    pub label: &'static str,
    pub breakdown: FctBreakdown,
    pub flows_total: usize,
    pub flows_completed: usize,
    /// Total packet drops: buffer overflow plus injected faults.
    pub dropped_packets: u64,
    pub pfc_pauses: u64,
}

/// Run one algorithm over one workload configuration.
pub fn run(algo: Algo, cfg: LargeScaleConfig) -> LargeScaleResult {
    run_custom(algo, algo.name(), algo.factory(), algo.dci_features(), cfg)
}

/// Run an arbitrary factory/DCI-feature combination (ablations).
pub fn run_custom(
    algo: Algo,
    label: &'static str,
    factory: Box<dyn netsim::cc::CcFactory>,
    dci: netsim::config::DciFeatures,
    cfg: LargeScaleConfig,
) -> LargeScaleResult {
    let params = TwoDcParams {
        servers_per_leaf: cfg.servers_per_leaf,
        long_haul_delay: cfg.long_haul_delay,
        ..TwoDcParams::default()
    };
    let topo = TwoDcTopology::build(params);
    let sim_cfg = SimConfig {
        stop_time: cfg.duration + cfg.drain,
        monitor_interval: 0,
        dci,
        seed: cfg.seed,
        ..SimConfig::default()
    };

    // Generate the two traffic classes.
    let mut gen = TrafficGen::new(cfg.seed, params.server_link);
    let mut requests = Vec::new();
    for dc in 0..2 {
        let servers = topo.dc_servers(dc);
        let class = TrafficClass {
            senders: servers.clone(),
            receivers: servers,
            load: cfg.intra_load,
            mix: cfg.mix,
        };
        requests.extend(gen.generate(&class, 0, cfg.duration));
    }
    // Cross-DC, both directions; translate "fraction of long-haul" into
    // the generator's per-sender load definition.
    for (src_dc, dst_dc) in [(0usize, 1usize), (1, 0)] {
        let senders = topo.dc_servers(src_dc);
        let eq_load = cfg.cross_load * params.long_haul_link as f64
            / (senders.len() as f64 * params.server_link as f64);
        let class = TrafficClass {
            senders,
            receivers: topo.dc_servers(dst_dc),
            load: eq_load.min(1.0),
            mix: cfg.mix,
        };
        requests.extend(gen.generate(&class, 0, cfg.duration));
    }

    let mut sim = Simulator::new(topo.net, sim_cfg, factory);
    for r in &requests {
        sim.add_flow(r.src, r.dst, r.size_bytes, r.start);
    }
    sim.run_until_flows_complete();

    LargeScaleResult {
        algo,
        label,
        breakdown: FctBreakdown::new(&sim.out.fcts),
        flows_total: requests.len(),
        flows_completed: sim.out.fcts.len(),
        dropped_packets: sim.out.total_dropped(),
        pfc_pauses: sim.total_pfc_pauses(),
    }
}
