//! Network construction: a generic builder plus the paper's topologies.
//!
//! * [`TwoDcTopology`] — Fig. 1: two datacenters, each with 2 spines and 4
//!   leaves (racks), connected by DCI switches over a long-haul link.
//! * [`DumbbellTopology`] — the testbed of §4.6: 2 ToRs, 2 DCI switches,
//!   2 servers per ToR.
//! * [`FatTreeTopology`] — a k-ary fat-tree (hosts → edge → agg → core)
//!   with a configurable oversubscription ratio, the canonical multipath
//!   fabric for collective workloads.
//! * [`MultiDcTopology`] — N ≥ 2 spine-leaf or fat-tree islands joined
//!   pairwise by dedicated DCI switches over long-haul links.

use crate::ecn::EcnConfig;
use crate::host::Host;
use crate::link::{Link, LinkOpts};
use crate::node::Node;
use crate::pfc::PfcConfig;
use crate::pfq::PfqSet;
use crate::queue::PrioQueues;
use crate::routing::{GraphView, RoutingTables};
use crate::switch::{DciState, Switch, SwitchKind};
use crate::types::{LinkId, NodeId};
use crate::units::{Bandwidth, Time, GBPS, MS, US};

/// A constructed network, ready to hand to the simulator.
pub struct Network {
    pub nodes: Vec<Node>,
    pub links: Vec<Link>,
    pub routes: RoutingTables,
    pub hosts: Vec<NodeId>,
}

/// Incremental network builder.
pub struct NetBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(LinkId, NodeId)>>,
    hosts: Vec<NodeId>,
    mtu_payload: u32,
}

impl NetBuilder {
    pub fn new(mtu_payload: u32) -> Self {
        NetBuilder {
            nodes: Vec::new(),
            links: Vec::new(),
            adjacency: Vec::new(),
            hosts: Vec::new(),
            mtu_payload,
        }
    }

    /// Add a server. Its uplink is wired by the first `connect` call that
    /// names it.
    pub fn add_host(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Host(Host::new(
            id,
            LinkId(u32::MAX),
            self.mtu_payload,
        )));
        self.adjacency.push(Vec::new());
        self.hosts.push(id);
        id
    }

    /// Add a switch.
    pub fn add_switch(&mut self, kind: SwitchKind, buffer_bytes: u64, pfc: PfcConfig) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes
            .push(Node::Switch(Switch::new(id, kind, buffer_bytes, pfc)));
        self.adjacency.push(Vec::new());
        id
    }

    /// Override the ECN profile of one link's egress.
    pub fn set_link_ecn(&mut self, link: LinkId, ecn: EcnConfig) {
        self.links[link.index()].ecn = ecn;
    }

    /// Connect two nodes with a bidirectional link pair; returns
    /// `(a→b, b→a)`.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth: Bandwidth,
        delay: Time,
        opts: LinkOpts,
    ) -> (LinkId, LinkId) {
        let fwd = LinkId(self.links.len() as u32);
        let rev = LinkId(self.links.len() as u32 + 1);
        let ecn = opts.ecn.unwrap_or_else(|| EcnConfig::dc_switch(bandwidth));
        for (id, reverse, src, dst) in [(fwd, rev, a, b), (rev, fwd, b, a)] {
            self.links.push(Link {
                id,
                src,
                dst,
                bandwidth,
                delay,
                reverse,
                opts,
                ecn,
                queues: PrioQueues::new(),
                pfq: None,
                busy: false,
                tx_bytes: 0,
                wake_at: None,
                hop_id: id.0,
                wire_seq: 0,
                faults: None,
            });
        }
        self.adjacency[a.index()].push((fwd, b));
        self.adjacency[b.index()].push((rev, a));
        // First link out of a host becomes its uplink.
        for (n, l) in [(a, fwd), (b, rev)] {
            if let Node::Host(h) = &mut self.nodes[n.index()] {
                if h.uplink == LinkId(u32::MAX) {
                    h.uplink = l;
                }
            }
        }
        (fwd, rev)
    }

    /// Attach an MLCC per-flow-queue set to a link's egress.
    pub fn enable_pfq(&mut self, link: LinkId, init_rate: Bandwidth) {
        let mtu_wire = self.mtu_payload + crate::packet::DATA_HEADER_BYTES;
        self.links[link.index()].pfq = Some(PfqSet::new(init_rate, mtu_wire));
    }

    /// Declare a switch as a DCI endpoint of the long-haul link pair.
    pub fn set_dci(
        &mut self,
        node: NodeId,
        long_haul_out: LinkId,
        long_haul_in: LinkId,
        switch_int_min_interval: Time,
    ) {
        if let Node::Switch(sw) = &mut self.nodes[node.index()] {
            sw.dci = Some(DciState::new(
                long_haul_out,
                long_haul_in,
                switch_int_min_interval,
            ));
        } else {
            panic!("set_dci on a host");
        }
    }

    /// Finalize: resolve per-ingress PFC headroom and compute routing
    /// tables.
    ///
    /// Headroom resolution walks every link into a PFC-enabled switch
    /// and dedicates `headroom_bytes` of that switch's buffer to the
    /// ingress port: the configured value when `Some(n)`, or the pause
    /// loop's worst case `2 × delay × rate + 2 MTU` (computed from the
    /// upstream link itself) when `None`.
    pub fn build(mut self) -> Network {
        let mtu_wire = (self.mtu_payload + crate::packet::DATA_HEADER_BYTES) as u64;
        for i in 0..self.links.len() {
            let (id, dst, delay, bw) = {
                let l = &self.links[i];
                (l.id, l.dst, l.delay, l.bandwidth)
            };
            if let Node::Switch(sw) = &mut self.nodes[dst.index()] {
                if !sw.pfc.enabled {
                    continue;
                }
                let hr = sw
                    .pfc
                    .headroom_bytes
                    .unwrap_or_else(|| PfcConfig::auto_headroom_bytes(bw, delay, mtu_wire));
                if hr > 0 {
                    sw.set_ingress_headroom(id, hr);
                }
            }
        }
        let routes = RoutingTables::build(&GraphView {
            adjacency: &self.adjacency,
            hosts: &self.hosts,
        });
        Network {
            nodes: self.nodes,
            links: self.links,
            routes,
            hosts: self.hosts,
        }
    }
}

// ---------------------------------------------------------------------------
// The paper's two-DC spine-leaf topology (Fig. 1).
// ---------------------------------------------------------------------------

/// Parameters of the Fig. 1 topology, defaulting to the paper's §4.1 setup.
#[derive(Clone, Copy, Debug)]
pub struct TwoDcParams {
    pub spines_per_dc: usize,
    pub leaves_per_dc: usize,
    pub servers_per_leaf: usize,
    pub server_link: Bandwidth,
    pub fabric_link: Bandwidth,
    pub long_haul_link: Bandwidth,
    pub server_delay: Time,
    pub fabric_delay: Time,
    pub long_haul_delay: Time,
    pub dc_switch_buffer: u64,
    pub dci_switch_buffer: u64,
    /// PFC on intra-DC switches.
    pub pfc: PfcConfig,
    /// ECN marking on DCI switches (baselines rely on it; MLCC does not).
    pub dci_ecn: EcnConfig,
    /// MLCC per-flow-queue initial rate (PFQs are created on the DCI's
    /// toward-DC egresses; they only activate when the run's
    /// `DciFeatures::pfq_enabled` is set).
    pub pfq_init_rate: Bandwidth,
    pub switch_int_min_interval: Time,
    pub mtu_payload: u32,
}

impl Default for TwoDcParams {
    fn default() -> Self {
        TwoDcParams {
            spines_per_dc: 2,
            leaves_per_dc: 4,
            // Paper scale is 32 (4:1 oversubscription at 25G/100G); the
            // default here is paper-faithful. Scenarios scale it down
            // for quick runs.
            servers_per_leaf: 32,
            server_link: 25 * GBPS,
            fabric_link: 100 * GBPS,
            long_haul_link: 100 * GBPS,
            server_delay: 1 * US,
            fabric_delay: 5 * US,
            long_haul_delay: 3 * MS,
            dc_switch_buffer: 22_000_000,
            dci_switch_buffer: 128_000_000,
            pfc: PfcConfig::dc_switch(),
            dci_ecn: EcnConfig::dci_switch(),
            pfq_init_rate: 25 * GBPS,
            switch_int_min_interval: 4 * US,
            mtu_payload: 1000,
        }
    }
}

/// Handles into the built two-DC network.
pub struct TwoDcTopology {
    pub net: Network,
    pub params: TwoDcParams,
    /// `servers[dc][leaf][i]`.
    pub servers: Vec<Vec<Vec<NodeId>>>,
    /// `leaves[dc][i]`, `spines[dc][i]`.
    pub leaves: Vec<Vec<NodeId>>,
    pub spines: Vec<Vec<NodeId>>,
    /// DCI switch per DC.
    pub dcis: Vec<NodeId>,
    /// Long-haul links: `long_haul[0]` is DC0→DC1.
    pub long_haul: [LinkId; 2],
    /// DCI→spine egress links per DC (the receiver-side PFQ egresses).
    pub dci_to_spine: Vec<Vec<LinkId>>,
    /// spine→DCI egress links per DC (the sender-side DCI approaches).
    pub spine_to_dci: Vec<Vec<LinkId>>,
}

impl TwoDcTopology {
    pub fn build(params: TwoDcParams) -> Self {
        let mut b = NetBuilder::new(params.mtu_payload);
        let mut servers = Vec::new();
        let mut leaves = Vec::new();
        let mut spines = Vec::new();
        let mut dcis = Vec::new();

        for _dc in 0..2 {
            let dc_leaves: Vec<NodeId> = (0..params.leaves_per_dc)
                .map(|_| b.add_switch(SwitchKind::Leaf, params.dc_switch_buffer, params.pfc))
                .collect();
            let dc_spines: Vec<NodeId> = (0..params.spines_per_dc)
                .map(|_| b.add_switch(SwitchKind::Spine, params.dc_switch_buffer, params.pfc))
                .collect();
            let dci = b.add_switch(
                SwitchKind::Dci,
                params.dci_switch_buffer,
                PfcConfig::disabled(),
            );
            let mut dc_servers = Vec::new();
            for &leaf in &dc_leaves {
                let rack: Vec<NodeId> = (0..params.servers_per_leaf)
                    .map(|_| {
                        let h = b.add_host();
                        b.connect(
                            h,
                            leaf,
                            params.server_link,
                            params.server_delay,
                            LinkOpts::default(),
                        );
                        h
                    })
                    .collect();
                dc_servers.push(rack);
            }
            for &leaf in &dc_leaves {
                for &spine in &dc_spines {
                    b.connect(
                        leaf,
                        spine,
                        params.fabric_link,
                        params.fabric_delay,
                        LinkOpts::default(),
                    );
                }
            }
            servers.push(dc_servers);
            leaves.push(dc_leaves);
            spines.push(dc_spines);
            dcis.push(dci);
        }

        // Spine ↔ DCI links.
        let mut dci_to_spine = vec![Vec::new(), Vec::new()];
        let mut spine_to_dci = vec![Vec::new(), Vec::new()];
        for dc in 0..2 {
            for &spine in &spines[dc] {
                let (s2d, d2s) = b.connect(
                    spine,
                    dcis[dc],
                    params.fabric_link,
                    params.fabric_delay,
                    LinkOpts::default(),
                );
                spine_to_dci[dc].push(s2d);
                dci_to_spine[dc].push(d2s);
                b.enable_pfq(d2s, params.pfq_init_rate);
                // Deep-buffer egress: the DCI marks far later than the
                // shallow DC switches.
                b.set_link_ecn(d2s, params.dci_ecn);
            }
        }

        // Long-haul link.
        let (lh01, lh10) = b.connect(
            dcis[0],
            dcis[1],
            params.long_haul_link,
            params.long_haul_delay,
            LinkOpts {
                int_enabled: true,
                int_is_dci: true,
                long_haul: true,
                ecn: Some(params.dci_ecn),
            },
        );
        b.set_dci(dcis[0], lh01, lh10, params.switch_int_min_interval);
        b.set_dci(dcis[1], lh10, lh01, params.switch_int_min_interval);

        TwoDcTopology {
            net: b.build(),
            params,
            servers,
            leaves,
            spines,
            dcis,
            long_haul: [lh01, lh10],
            dci_to_spine,
            spine_to_dci,
        }
    }

    /// Server `i` of 1-based rack number `rack` (paper numbering: racks
    /// 1–4 are DC0, racks 5–8 are DC1).
    pub fn server(&self, rack: usize, i: usize) -> NodeId {
        assert!((1..=2 * self.params.leaves_per_dc).contains(&rack));
        let dc = (rack - 1) / self.params.leaves_per_dc;
        let leaf = (rack - 1) % self.params.leaves_per_dc;
        self.servers[dc][leaf][i]
    }

    /// All servers in one DC, flattened.
    pub fn dc_servers(&self, dc: usize) -> Vec<NodeId> {
        self.servers[dc].iter().flatten().copied().collect()
    }
}

// ---------------------------------------------------------------------------
// Testbed dumbbell (§4.6).
// ---------------------------------------------------------------------------

/// Parameters of the testbed dumbbell.
#[derive(Clone, Copy, Debug)]
pub struct DumbbellParams {
    pub servers_per_tor: usize,
    pub nic_link: Bandwidth,
    pub fabric_link: Bandwidth,
    pub long_haul_delay: Time,
    pub tor_buffer: u64,
    pub dci_buffer: u64,
    pub mtu_payload: u32,
    /// PFC profile of the ToR switches (DCIs always run PFC-disabled).
    pub pfc: PfcConfig,
}

impl Default for DumbbellParams {
    fn default() -> Self {
        DumbbellParams {
            servers_per_tor: 2,
            nic_link: 100 * GBPS,
            fabric_link: 100 * GBPS,
            long_haul_delay: 1 * MS,
            tor_buffer: 22_000_000,
            dci_buffer: 128_000_000,
            mtu_payload: 1000,
            pfc: PfcConfig::dc_switch(),
        }
    }
}

/// Handles into the dumbbell network.
pub struct DumbbellTopology {
    pub net: Network,
    pub params: DumbbellParams,
    /// `servers[side][i]`.
    pub servers: Vec<Vec<NodeId>>,
    pub tors: [NodeId; 2],
    pub dcis: [NodeId; 2],
    pub long_haul: [LinkId; 2],
    pub dci_to_tor: [LinkId; 2],
}

impl DumbbellTopology {
    pub fn build(params: DumbbellParams) -> Self {
        let mut b = NetBuilder::new(params.mtu_payload);
        let mut servers = Vec::new();
        let mut tors = Vec::new();
        let mut dcis = Vec::new();
        let mut dci_to_tor = Vec::new();
        for _side in 0..2 {
            let tor = b.add_switch(SwitchKind::Leaf, params.tor_buffer, params.pfc);
            let dci = b.add_switch(SwitchKind::Dci, params.dci_buffer, PfcConfig::disabled());
            let side_servers: Vec<NodeId> = (0..params.servers_per_tor)
                .map(|_| {
                    let h = b.add_host();
                    b.connect(h, tor, params.nic_link, 1 * US, LinkOpts::default());
                    h
                })
                .collect();
            let (_t2d, d2t) = b.connect(tor, dci, params.fabric_link, 5 * US, LinkOpts::default());
            b.enable_pfq(d2t, params.nic_link);
            b.set_link_ecn(d2t, EcnConfig::dci_switch());
            servers.push(side_servers);
            tors.push(tor);
            dcis.push(dci);
            dci_to_tor.push(d2t);
        }
        let (lh01, lh10) = b.connect(
            dcis[0],
            dcis[1],
            params.fabric_link,
            params.long_haul_delay,
            LinkOpts {
                int_enabled: true,
                int_is_dci: true,
                long_haul: true,
                ecn: Some(EcnConfig::dci_switch()),
            },
        );
        b.set_dci(dcis[0], lh01, lh10, 4 * US);
        b.set_dci(dcis[1], lh10, lh01, 4 * US);
        DumbbellTopology {
            net: b.build(),
            params,
            servers,
            tors: [tors[0], tors[1]],
            dcis: [dcis[0], dcis[1]],
            long_haul: [lh01, lh10],
            dci_to_tor: [dci_to_tor[0], dci_to_tor[1]],
        }
    }
}

// ---------------------------------------------------------------------------
// k-ary fat-tree (hosts → edge → agg → core).
// ---------------------------------------------------------------------------

/// Parameters of a k-ary fat-tree.
///
/// The canonical k-ary fat-tree has `(k/2)²` core switches, `k` pods of
/// `k/2` aggregation and `k/2` edge switches each, and `k/2` hosts per
/// edge switch. `hosts_per_edge` is the oversubscription knob: with
/// equal host and fabric speeds, `hosts_per_edge / (k/2)` is the
/// edge-layer oversubscription ratio (1:1 at the canonical `k/2`).
#[derive(Clone, Copy, Debug)]
pub struct FatTreeParams {
    /// Port radix; must be even and ≥ 2.
    pub k: usize,
    /// Hosts attached to each edge switch (≥ 1).
    pub hosts_per_edge: usize,
    pub host_link: Bandwidth,
    pub fabric_link: Bandwidth,
    pub host_delay: Time,
    pub fabric_delay: Time,
    pub switch_buffer: u64,
    pub pfc: PfcConfig,
    pub mtu_payload: u32,
}

impl Default for FatTreeParams {
    fn default() -> Self {
        FatTreeParams {
            k: 4,
            hosts_per_edge: 2,
            host_link: 25 * GBPS,
            fabric_link: 100 * GBPS,
            host_delay: 1 * US,
            fabric_delay: 5 * US,
            switch_buffer: 22_000_000,
            pfc: PfcConfig::dc_switch(),
            mtu_payload: 1000,
        }
    }
}

impl FatTreeParams {
    /// Edge-layer oversubscription ratio: host capacity entering an edge
    /// switch over its uplink capacity toward the aggs.
    pub fn oversubscription(&self) -> f64 {
        (self.hosts_per_edge as f64 * self.host_link as f64)
            / ((self.k / 2) as f64 * self.fabric_link as f64)
    }

    fn validate(&self) {
        assert!(
            self.k >= 2 && self.k.is_multiple_of(2),
            "fat-tree k must be even and >= 2, got {}",
            self.k
        );
        assert!(self.hosts_per_edge >= 1, "fat-tree needs hosts per edge");
    }
}

/// Handles into a built fat-tree.
pub struct FatTreeTopology {
    pub net: Network,
    pub params: FatTreeParams,
    /// All hosts, pod-major then edge-major.
    pub hosts: Vec<NodeId>,
    /// `edges[pod][i]`, `aggs[pod][i]`.
    pub edges: Vec<Vec<NodeId>>,
    pub aggs: Vec<Vec<NodeId>>,
    pub cores: Vec<NodeId>,
    /// Every agg ↔ core link pair as `[agg→core, core→agg]`, in
    /// deterministic pod/agg/core order (fault-injection targets).
    pub agg_core_links: Vec<[LinkId; 2]>,
}

/// Node and link handles of one fat-tree wired into a [`NetBuilder`].
struct FatTreeWiring {
    hosts: Vec<NodeId>,
    edges: Vec<Vec<NodeId>>,
    aggs: Vec<Vec<NodeId>>,
    cores: Vec<NodeId>,
    agg_core_links: Vec<[LinkId; 2]>,
}

/// Wire a k-ary fat-tree into `b`: the cores, then per pod its aggs, its
/// edges, each edge's hosts and edge→agg links, and the pod's agg→core
/// links. [`FatTreeTopology`] and the fat-tree islands of
/// [`MultiDcTopology`] both build through here, so ids follow one order.
fn wire_fat_tree(b: &mut NetBuilder, params: &FatTreeParams) -> FatTreeWiring {
    let half = params.k / 2;
    let switch = |b: &mut NetBuilder, kind| b.add_switch(kind, params.switch_buffer, params.pfc);
    let cores: Vec<NodeId> = (0..half * half)
        .map(|_| switch(b, SwitchKind::Spine))
        .collect();
    let mut w = FatTreeWiring {
        hosts: Vec::new(),
        edges: Vec::new(),
        aggs: Vec::new(),
        cores,
        agg_core_links: Vec::new(),
    };
    for _pod in 0..params.k {
        let pod_aggs: Vec<NodeId> = (0..half).map(|_| switch(b, SwitchKind::Spine)).collect();
        let pod_edges: Vec<NodeId> = (0..half).map(|_| switch(b, SwitchKind::Leaf)).collect();
        for &edge in &pod_edges {
            for _ in 0..params.hosts_per_edge {
                let h = b.add_host();
                b.connect(
                    h,
                    edge,
                    params.host_link,
                    params.host_delay,
                    LinkOpts::default(),
                );
                w.hosts.push(h);
            }
            for &agg in &pod_aggs {
                b.connect(
                    edge,
                    agg,
                    params.fabric_link,
                    params.fabric_delay,
                    LinkOpts::default(),
                );
            }
        }
        // Agg j serves the core group [j·k/2, (j+1)·k/2).
        for (j, &agg) in pod_aggs.iter().enumerate() {
            for &core in &w.cores[j * half..(j + 1) * half] {
                let (up, down) = b.connect(
                    agg,
                    core,
                    params.fabric_link,
                    params.fabric_delay,
                    LinkOpts::default(),
                );
                w.agg_core_links.push([up, down]);
            }
        }
        w.edges.push(pod_edges);
        w.aggs.push(pod_aggs);
    }
    w
}

/// Edge and agg switches, pod-major (a pod's edges before its aggs).
fn pod_major(edges: &[Vec<NodeId>], aggs: &[Vec<NodeId>]) -> Vec<NodeId> {
    edges
        .iter()
        .zip(aggs)
        .flat_map(|(e, a)| e.iter().chain(a))
        .copied()
        .collect()
}

impl FatTreeTopology {
    pub fn build(params: FatTreeParams) -> Self {
        params.validate();
        let mut b = NetBuilder::new(params.mtu_payload);
        let w = wire_fat_tree(&mut b, &params);
        FatTreeTopology {
            net: b.build(),
            params,
            hosts: w.hosts,
            edges: w.edges,
            aggs: w.aggs,
            cores: w.cores,
            agg_core_links: w.agg_core_links,
        }
    }

    /// All non-core switches (edge + agg), pod-major — the pool
    /// node-fault scenarios pick victims from.
    pub fn pod_switches(&self) -> Vec<NodeId> {
        pod_major(&self.edges, &self.aggs)
    }
}

// ---------------------------------------------------------------------------
// Multi-island fabric: N datacenters joined pairwise by long-haul links.
// ---------------------------------------------------------------------------

/// What each island of a [`MultiDcTopology`] looks like inside.
#[derive(Clone, Copy, Debug)]
pub enum IslandKind {
    /// A Fig.-1-style spine-leaf datacenter.
    SpineLeaf {
        spines: usize,
        leaves: usize,
        servers_per_leaf: usize,
    },
    /// A k-ary fat-tree datacenter (DCI switches attach to the cores).
    FatTree { k: usize, hosts_per_edge: usize },
}

/// Parameters of the multi-island fabric.
///
/// Every island pair is joined by its own long-haul link between two
/// dedicated DCI switches (one per side), so each DCI switch terminates
/// exactly one long-haul pair — the same per-pair wiring as the two-DC
/// fabric, replicated across the full island mesh. Shortest-path
/// routing therefore never transits a third island.
#[derive(Clone, Copy, Debug)]
pub struct MultiDcParams {
    /// Number of islands (≥ 2).
    pub islands: usize,
    pub island: IslandKind,
    pub server_link: Bandwidth,
    pub fabric_link: Bandwidth,
    pub long_haul_link: Bandwidth,
    pub server_delay: Time,
    pub fabric_delay: Time,
    pub long_haul_delay: Time,
    pub dc_switch_buffer: u64,
    pub dci_switch_buffer: u64,
    pub pfc: PfcConfig,
    pub dci_ecn: EcnConfig,
    pub pfq_init_rate: Bandwidth,
    pub switch_int_min_interval: Time,
    pub mtu_payload: u32,
}

impl Default for MultiDcParams {
    fn default() -> Self {
        MultiDcParams {
            islands: 3,
            island: IslandKind::SpineLeaf {
                spines: 2,
                leaves: 2,
                servers_per_leaf: 2,
            },
            server_link: 25 * GBPS,
            fabric_link: 100 * GBPS,
            long_haul_link: 100 * GBPS,
            server_delay: 1 * US,
            fabric_delay: 5 * US,
            long_haul_delay: 3 * MS,
            dc_switch_buffer: 22_000_000,
            dci_switch_buffer: 128_000_000,
            pfc: PfcConfig::dc_switch(),
            dci_ecn: EcnConfig::dci_switch(),
            pfq_init_rate: 25 * GBPS,
            switch_int_min_interval: 4 * US,
            mtu_payload: 1000,
        }
    }
}

impl MultiDcParams {
    fn validate(&self) {
        assert!(self.islands >= 2, "need at least two islands");
        match self.island {
            IslandKind::SpineLeaf {
                spines,
                leaves,
                servers_per_leaf,
            } => {
                assert!(
                    spines >= 1 && leaves >= 1 && servers_per_leaf >= 1,
                    "degenerate spine-leaf island: {:?}",
                    self.island
                );
            }
            IslandKind::FatTree { k, hosts_per_edge } => {
                assert!(
                    k >= 2 && k % 2 == 0 && hosts_per_edge >= 1,
                    "degenerate fat-tree island: {:?}",
                    self.island
                );
            }
        }
    }
}

/// Handles into the built multi-island network.
pub struct MultiDcTopology {
    pub net: Network,
    pub params: MultiDcParams,
    /// `servers[island]`, flattened within each island.
    pub servers: Vec<Vec<NodeId>>,
    /// Intra-island switches (spine-leaf: leaves then spines; fat-tree:
    /// edges then aggs then cores), per island.
    pub island_switches: Vec<Vec<NodeId>>,
    /// `dcis[island]` — one DCI switch per peer island, in peer order
    /// (the slot for the island itself is skipped).
    pub dcis: Vec<Vec<NodeId>>,
    /// One entry per island pair `(a, b)` with `a < b`, in
    /// lexicographic order: `[a→b, b→a]` long-haul links.
    pub long_haul: Vec<(usize, usize, [LinkId; 2])>,
}

impl MultiDcTopology {
    pub fn build(params: MultiDcParams) -> Self {
        params.validate();
        let n = params.islands;
        let mut b = NetBuilder::new(params.mtu_payload);
        let mut servers = Vec::new();
        let mut island_switches = Vec::new();
        let mut dcis: Vec<Vec<NodeId>> = Vec::new();
        // Per island: the top-tier switches its DCI switches attach to.
        let mut top_tiers: Vec<Vec<NodeId>> = Vec::new();

        for _island in 0..n {
            let (isl_servers, switches, top) = match params.island {
                IslandKind::SpineLeaf {
                    spines,
                    leaves,
                    servers_per_leaf,
                } => {
                    let isl_leaves: Vec<NodeId> = (0..leaves)
                        .map(|_| {
                            b.add_switch(SwitchKind::Leaf, params.dc_switch_buffer, params.pfc)
                        })
                        .collect();
                    let isl_spines: Vec<NodeId> = (0..spines)
                        .map(|_| {
                            b.add_switch(SwitchKind::Spine, params.dc_switch_buffer, params.pfc)
                        })
                        .collect();
                    let mut isl_servers = Vec::new();
                    for &leaf in &isl_leaves {
                        for _ in 0..servers_per_leaf {
                            let h = b.add_host();
                            b.connect(
                                h,
                                leaf,
                                params.server_link,
                                params.server_delay,
                                LinkOpts::default(),
                            );
                            isl_servers.push(h);
                        }
                        for &spine in &isl_spines {
                            b.connect(
                                leaf,
                                spine,
                                params.fabric_link,
                                params.fabric_delay,
                                LinkOpts::default(),
                            );
                        }
                    }
                    let mut switches = isl_leaves.clone();
                    switches.extend(&isl_spines);
                    (isl_servers, switches, isl_spines)
                }
                IslandKind::FatTree { k, hosts_per_edge } => {
                    let w = wire_fat_tree(
                        &mut b,
                        &FatTreeParams {
                            k,
                            hosts_per_edge,
                            host_link: params.server_link,
                            fabric_link: params.fabric_link,
                            host_delay: params.server_delay,
                            fabric_delay: params.fabric_delay,
                            switch_buffer: params.dc_switch_buffer,
                            pfc: params.pfc,
                            mtu_payload: params.mtu_payload,
                        },
                    );
                    let mut switches = pod_major(&w.edges, &w.aggs);
                    switches.extend(&w.cores);
                    (w.hosts, switches, w.cores)
                }
            };
            // One DCI switch per peer island, attached to every top-tier
            // switch; the toward-island egresses get PFQs and the
            // deep-buffer ECN profile exactly like the two-DC fabric.
            let mut isl_dcis = Vec::new();
            for _peer in 0..n - 1 {
                let dci = b.add_switch(
                    SwitchKind::Dci,
                    params.dci_switch_buffer,
                    PfcConfig::disabled(),
                );
                for &t in &top {
                    let (_t2d, d2t) = b.connect(
                        t,
                        dci,
                        params.fabric_link,
                        params.fabric_delay,
                        LinkOpts::default(),
                    );
                    b.enable_pfq(d2t, params.pfq_init_rate);
                    b.set_link_ecn(d2t, params.dci_ecn);
                }
                isl_dcis.push(dci);
            }
            servers.push(isl_servers);
            island_switches.push(switches);
            top_tiers.push(top);
            dcis.push(isl_dcis);
        }

        // Long-haul mesh: pair (a, b) uses a's DCI slot for peer b and
        // b's slot for peer a (slots skip the island itself).
        let slot = |island: usize, peer: usize| peer - usize::from(peer > island);
        let mut long_haul = Vec::new();
        for a in 0..n {
            for bb in a + 1..n {
                let da = dcis[a][slot(a, bb)];
                let db = dcis[bb][slot(bb, a)];
                let (fwd, rev) = b.connect(
                    da,
                    db,
                    params.long_haul_link,
                    params.long_haul_delay,
                    LinkOpts {
                        int_enabled: true,
                        int_is_dci: true,
                        long_haul: true,
                        ecn: Some(params.dci_ecn),
                    },
                );
                b.set_dci(da, fwd, rev, params.switch_int_min_interval);
                b.set_dci(db, rev, fwd, params.switch_int_min_interval);
                long_haul.push((a, bb, [fwd, rev]));
            }
        }

        MultiDcTopology {
            net: b.build(),
            params,
            servers,
            island_switches,
            dcis,
            long_haul,
        }
    }

    /// The long-haul link pair between islands `a` and `b` as
    /// `[a→b, b→a]` (order-insensitive in the arguments).
    pub fn long_haul_pair(&self, a: usize, b: usize) -> [LinkId; 2] {
        let (lo, hi, flip) = if a < b { (a, b, false) } else { (b, a, true) };
        let &(_, _, [fwd, rev]) = self
            .long_haul
            .iter()
            .find(|&&(x, y, _)| x == lo && y == hi)
            .unwrap_or_else(|| panic!("no long haul between islands {a} and {b}"));
        if flip {
            [rev, fwd]
        } else {
            [fwd, rev]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> TwoDcParams {
        TwoDcParams {
            servers_per_leaf: 2,
            ..TwoDcParams::default()
        }
    }

    #[test]
    fn two_dc_counts() {
        let t = TwoDcTopology::build(small_params());
        // Per DC: 4 leaves + 2 spines + 1 DCI + 8 servers = 15 nodes.
        assert_eq!(t.net.nodes.len(), 30);
        assert_eq!(t.net.hosts.len(), 16);
        assert_eq!(t.dcis.len(), 2);
        // Links: per DC, 8 server pairs + 4*2 leaf-spine pairs + 2
        // spine-DCI pairs = 18 pairs → 36 links; ×2 DCs + 2 long-haul.
        assert_eq!(t.net.links.len(), 2 * 36 + 2);
    }

    #[test]
    fn rack_numbering_matches_paper() {
        let t = TwoDcTopology::build(small_params());
        // Rack 1 is DC0 leaf 0; rack 5 is DC1 leaf 0.
        assert_eq!(t.server(1, 0), t.servers[0][0][0]);
        assert_eq!(t.server(5, 1), t.servers[1][0][1]);
        assert_eq!(t.server(8, 0), t.servers[1][3][0]);
    }

    #[test]
    fn dci_roles_are_wired() {
        let t = TwoDcTopology::build(small_params());
        let sw0 = t.net.nodes[t.dcis[0].index()].as_switch().unwrap();
        assert!(sw0.is_long_haul_egress(t.long_haul[0]));
        assert!(sw0.is_long_haul_ingress(t.long_haul[1]));
        let sw1 = t.net.nodes[t.dcis[1].index()].as_switch().unwrap();
        assert!(sw1.is_long_haul_egress(t.long_haul[1]));
        assert!(sw1.is_long_haul_ingress(t.long_haul[0]));
    }

    #[test]
    fn pfq_on_dci_to_spine_egresses() {
        let t = TwoDcTopology::build(small_params());
        for dc in 0..2 {
            for &l in &t.dci_to_spine[dc] {
                assert!(t.net.links[l.index()].pfq.is_some());
            }
            for &l in &t.spine_to_dci[dc] {
                assert!(t.net.links[l.index()].pfq.is_none());
            }
        }
    }

    #[test]
    fn routes_cross_dc_exist() {
        let t = TwoDcTopology::build(small_params());
        let src = t.server(1, 0);
        let dst = t.server(6, 0);
        // From the source host there is exactly one way out.
        let c = t.net.routes.candidates(src, dst);
        assert_eq!(c.len(), 1);
        // From the source leaf there are two spine choices.
        let leaf = t.leaves[0][0];
        assert_eq!(t.net.routes.candidates(leaf, dst).len(), 2);
    }

    #[test]
    fn host_uplinks_assigned() {
        let t = TwoDcTopology::build(small_params());
        for &h in &t.net.hosts {
            let host = t.net.nodes[h.index()].as_host().unwrap();
            assert_ne!(host.uplink, LinkId(u32::MAX));
            assert_eq!(t.net.links[host.uplink.index()].src, h);
        }
    }

    #[test]
    fn fat_tree_counts_and_shape() {
        let t = FatTreeTopology::build(FatTreeParams::default());
        // k=4: 4 cores, 4 pods × (2 agg + 2 edge), 2 hosts per edge.
        assert_eq!(t.cores.len(), 4);
        assert_eq!(t.edges.len(), 4);
        assert_eq!(t.aggs.len(), 4);
        assert_eq!(t.hosts.len(), 16);
        assert_eq!(t.net.hosts.len(), 16);
        // Links: 16 host pairs + 4·2·2 edge-agg pairs + 4·2·2 agg-core
        // pairs = 48 pairs → 96 links.
        assert_eq!(t.net.links.len(), 96);
        assert_eq!(t.agg_core_links.len(), 16);
        assert_eq!(t.pod_switches().len(), 16);
        // Canonical hosts_per_edge = k/2 with 25G hosts on a 100G
        // fabric: 4:1 at the host speed ratio.
        assert!((t.params.oversubscription() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn fat_tree_multipath_candidates() {
        let t = FatTreeTopology::build(FatTreeParams::default());
        // Cross-pod: 2 agg choices at the edge, 2 core choices at the agg.
        let src = t.hosts[0]; // pod 0, edge 0
        let dst = *t.hosts.last().unwrap(); // pod 3
        assert_eq!(t.net.routes.candidates(src, dst).len(), 1);
        assert_eq!(t.net.routes.candidates(t.edges[0][0], dst).len(), 2);
        assert_eq!(t.net.routes.candidates(t.aggs[0][0], dst).len(), 2);
        // Down path from a core is unique.
        assert_eq!(t.net.routes.candidates(t.cores[0], dst).len(), 1);
        // Intra-edge traffic never leaves the edge switch.
        let c = t.net.routes.candidates(t.edges[0][0], t.hosts[1]);
        assert_eq!(c.len(), 1);
        assert_eq!(t.net.links[c[0].index()].dst, t.hosts[1]);
    }

    #[test]
    #[should_panic(expected = "fat-tree k must be even")]
    fn fat_tree_rejects_odd_k() {
        FatTreeTopology::build(FatTreeParams {
            k: 3,
            ..FatTreeParams::default()
        });
    }

    #[test]
    fn multi_dc_counts_and_dci_roles() {
        let p = MultiDcParams::default(); // 3 spine-leaf islands
        let t = MultiDcTopology::build(p);
        assert_eq!(t.servers.len(), 3);
        assert_eq!(t.servers[0].len(), 4);
        // Per island: 2 leaves + 2 spines intra, 2 per-peer DCI switches.
        assert_eq!(t.island_switches[0].len(), 4);
        assert_eq!(t.dcis[0].len(), 2);
        // 3 island pairs, each with its own long haul.
        assert_eq!(t.long_haul.len(), 3);
        for &(a, bb, [fwd, rev]) in &t.long_haul {
            assert!(t.net.links[fwd.index()].opts.long_haul);
            assert_eq!(t.net.links[fwd.index()].reverse, rev);
            let sa = t.net.links[fwd.index()].src;
            let sb = t.net.links[fwd.index()].dst;
            assert!(t.dcis[a].contains(&sa) && t.dcis[bb].contains(&sb));
            let swa = t.net.nodes[sa.index()].as_switch().unwrap();
            assert!(swa.is_long_haul_egress(fwd) && swa.is_long_haul_ingress(rev));
        }
        assert_eq!(t.long_haul_pair(2, 0), {
            let [f, r] = t.long_haul_pair(0, 2);
            [r, f]
        });
    }

    #[test]
    fn multi_dc_routes_use_only_the_pair_dci() {
        let t = MultiDcTopology::build(MultiDcParams {
            islands: 4,
            ..MultiDcParams::default()
        });
        // A cross-island path crosses exactly one long haul — never a
        // third island — and it is the pair's own long haul.
        let rt = &t.net.routes;
        for (a, bb) in [(0usize, 1usize), (1, 3), (2, 0)] {
            let (src, dst) = (t.servers[a][0], t.servers[bb][1]);
            let mut cur = src;
            let mut crossed = Vec::new();
            let mut hops = 0;
            while cur != dst {
                let l = rt.pick(cur, dst, crate::types::FlowId(7)).unwrap();
                if t.net.links[l.index()].opts.long_haul {
                    crossed.push(l);
                }
                cur = t.net.links[l.index()].dst;
                hops += 1;
                assert!(hops < 16, "routing loop");
            }
            assert_eq!(crossed, vec![t.long_haul_pair(a, bb)[0]]);
        }
    }

    #[test]
    fn multi_dc_fat_tree_islands_build() {
        let t = MultiDcTopology::build(MultiDcParams {
            islands: 3,
            island: IslandKind::FatTree {
                k: 4,
                hosts_per_edge: 1,
            },
            ..MultiDcParams::default()
        });
        assert_eq!(t.servers[0].len(), 8);
        // edges + aggs + cores per island.
        assert_eq!(t.island_switches[0].len(), 20);
        // DCI switches attach to all 4 cores, with PFQ toward them.
        for &dci in &t.dcis[0] {
            let toward: Vec<_> = t
                .net
                .links
                .iter()
                .filter(|l| l.src == dci && !l.opts.long_haul)
                .collect();
            assert_eq!(toward.len(), 4);
            assert!(toward.iter().all(|l| l.pfq.is_some()));
        }
        // Cross-island routing works from a fat-tree island.
        let c = t.net.routes.candidates(t.servers[0][0], t.servers[2][7]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn dumbbell_counts() {
        let d = DumbbellTopology::build(DumbbellParams::default());
        // 2 sides × (1 ToR + 1 DCI + 2 servers) = 8 nodes.
        assert_eq!(d.net.nodes.len(), 8);
        // Per side: 2 server pairs + 1 tor-dci pair = 3 pairs = 6 links;
        // ×2 sides + 2 long-haul = 14.
        assert_eq!(d.net.links.len(), 14);
        assert!(d.net.links[d.dci_to_tor[0].index()].pfq.is_some());
    }
}
