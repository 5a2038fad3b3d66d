//! The simulator core: event dispatch, forwarding, and the DCI-switch
//! data-plane behaviours (near-source Switch-INT feedback, per-flow
//! queueing with credit-controlled dequeue).

use crate::cc::{CcEnv, CcFactory};
use crate::config::{ConfigError, SimConfig};
use crate::event::{boundary_seq, Event, EventQueue};
use crate::fault::{FaultProfile, FaultState, NodeFault};
use crate::flow::{FailReason, FctRecord, FlowOutcome, FlowPath, FlowSpec, OutcomeRecord};
use crate::host::{HostTx, RtoVerdict};
use crate::int::IntHop;
use crate::monitor::{MonitorLog, MonitorSpec, Sample};
use crate::node::Node;
use crate::packet::{Packet, PacketKind, PktPool, CONTROL_PACKET_BYTES};
use crate::pfc::PfcAction;
use crate::pfq::PfqDequeue;
use crate::rng::{SimRng, Xoshiro256StarStar};
use crate::routing::RoutingTables;
use crate::topology::Network;
use crate::trace::{Trace, TraceEvent};
use crate::types::{FlowId, LinkId, NodeId, Priority};
use crate::units::{tx_time, Time, US};

/// The liveness watchdog's diagnostic: the run made no receiver
/// progress for a full detection window while flows were outstanding.
/// Deterministic — a stalled run produces the identical report at
/// every shard count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogReport {
    /// When the stall was declared: `last_progress_at + window`.
    pub stalled_at: Time,
    /// Last instant any receiver advanced its in-order byte count.
    pub last_progress_at: Time,
    /// The configured detection window.
    pub window: Time,
    /// Flows neither completed nor given up at declaration.
    pub unfinished_flows: u32,
    /// In-order bytes delivered fabric-wide at declaration.
    pub delivered_bytes: u64,
    /// PFC pause transitions observed fabric-wide at declaration.
    pub pfc_pauses: u64,
}

/// The liveness watchdog's inputs: one engine's progress, or a sharded
/// run's merged across shards. The rule ([`Progress::verdict`]) reads
/// nothing else, so both engines reach the identical verdict.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Progress {
    /// Last instant a receiver advanced its in-order byte count.
    pub last_progress_at: Time,
    /// In-order bytes delivered at receivers.
    pub delivered_bytes: u64,
    /// Flows completed at their receivers.
    pub completed: u64,
    /// Sender-side give-ups. Monotone: a straggling completion that
    /// later supersedes the failure does not take it back.
    pub giveups: u64,
    /// PFC pause transitions.
    pub pfc_pauses: u64,
}

/// What the liveness rule says about the next event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Liveness {
    /// No deadline applies: the watchdog is off or no flow is
    /// outstanding.
    Unbounded,
    /// The next event is within the deadline. A sharded window must end
    /// at this instant (`deadline + 1`), so the rule is applied again
    /// once every event up to the deadline has run.
    Until(Time),
    /// The run is stalled at exactly the deadline.
    Stalled(WatchdogReport),
}

impl Progress {
    /// Combine two engines' snapshots: the later progress instant, the
    /// summed counts.
    pub(crate) fn merge(self, o: Progress) -> Progress {
        Progress {
            last_progress_at: self.last_progress_at.max(o.last_progress_at),
            delivered_bytes: self.delivered_bytes + o.delivered_bytes,
            completed: self.completed + o.completed,
            giveups: self.giveups + o.giveups,
            pfc_pauses: self.pfc_pauses + o.pfc_pauses,
        }
    }

    /// The liveness rule, for both engines: with flows outstanding, if
    /// the `next` event lies past `last_progress_at + window`, the run
    /// is stalled at exactly that deadline. `window == 0` disables it.
    ///
    /// Outstanding flows are the `flows` registered, minus completions,
    /// minus give-ups. A flow whose receiver completes *after* its
    /// sender gave up is counted by both, so the count is one short:
    /// deterministically, and only in a corner no healthy run reaches.
    pub(crate) fn verdict(self, flows: u64, window: Time, next: Time) -> Liveness {
        let outstanding = flows.saturating_sub(self.completed + self.giveups);
        if window == 0 || outstanding == 0 {
            return Liveness::Unbounded;
        }
        let deadline = self.last_progress_at + window;
        if next <= deadline {
            return Liveness::Until(deadline + 1);
        }
        Liveness::Stalled(WatchdogReport {
            stalled_at: deadline,
            last_progress_at: self.last_progress_at,
            window,
            unfinished_flows: outstanding as u32,
            delivered_bytes: self.delivered_bytes,
            pfc_pauses: self.pfc_pauses,
        })
    }
}

/// Everything a run produces.
#[derive(Default)]
pub struct SimOutput {
    /// Completion records, in completion order.
    pub fcts: Vec<FctRecord>,
    /// One terminal outcome per registered flow — completed or failed
    /// with a typed reason and partial byte count — in `(ended, flow)`
    /// order. Populated at finalize; a run never leaves a flow
    /// unaccounted (flows still in flight at `stop_time` fail with
    /// [`FailReason::Unfinished`]).
    pub outcomes: Vec<OutcomeRecord>,
    /// The liveness watchdog's verdict, if it declared a global stall
    /// (requires `cfg.watchdog_window > 0`).
    pub watchdog: Option<WatchdogReport>,
    /// (time, switch) of every PFC pause transition.
    pub pfc_events: Vec<(Time, NodeId)>,
    /// Periodic samples.
    pub monitor: MonitorLog,
    pub events_processed: u64,
    /// Total events ever scheduled (≥ `events_processed`; the rest were
    /// still pending at finalize).
    pub events_scheduled: u64,
    /// High-water mark of the event queue.
    pub peak_queue_depth: u64,
    pub finished_at: Time,
    /// Shared-buffer overflow drops at switches (congestion loss),
    /// aggregated at finalize. Zero on a lossless (PFC) fabric even
    /// when fault injection is active.
    pub buffer_drops: u64,
    /// Packets discarded by injected link faults (random loss, burst
    /// loss, down links), aggregated at finalize.
    pub fault_drops: u64,
    /// Packets whose arrival was delayed by injected jitter.
    pub fault_jittered: u64,
    /// Down transitions of fault-injected links that actually fired.
    pub link_flaps: u64,
    pub retransmits: u64,
    /// Data packets CE-marked at switch enqueue.
    pub ecn_marks: u64,
    /// Packets discarded at (or inside) a crashed node: arrivals at a
    /// down host or switch, and the buffered packets a switch drains
    /// when it dies. Distinct from `fault_drops` (wire-level link
    /// faults).
    pub blackhole_drops: u64,
    /// Telemetry actions suppressed by a control-plane outage: INT hop
    /// insertions skipped and Switch-INT feedback opportunities not
    /// taken while dark.
    pub int_suppressed: u64,
}

impl SimOutput {
    /// All packet loss, regardless of cause.
    #[inline]
    pub fn total_dropped(&self) -> u64 {
        self.buffer_drops + self.fault_drops + self.blackhole_drops
    }

    /// Outcome records of flows that did not complete.
    pub fn failed(&self) -> impl Iterator<Item = &OutcomeRecord> {
        self.outcomes.iter().filter(|o| o.outcome.is_failed())
    }
}

/// A flow's terminal state: the per-flow slot behind
/// [`SimOutput::outcomes`].
#[derive(Clone, Copy)]
struct FlowEnd {
    ended: Time,
    outcome: FlowOutcome,
    acked: u64,
}

/// The simulator.
pub struct Simulator {
    pub now: Time,
    pub cfg: SimConfig,
    pub events: EventQueue,
    pub nodes: Vec<Node>,
    pub links: Vec<Link2>,
    pub routes: RoutingTables,
    pub hosts: Vec<NodeId>,
    pub flows: Vec<FlowSpec>,
    pub paths: Vec<FlowPath>,
    factory: Box<dyn CcFactory>,
    /// Per-link ECN samplers: each egress draws from its own substream
    /// keyed by `(cfg.seed ⊕ ECN_STREAM_SALT, link id)`, so the draw
    /// sequence a link sees depends only on that link's enqueue history —
    /// never on interleaving with other links. That independence is what
    /// lets a sharded run reproduce the single-threaded mark pattern.
    ecn_rngs: Vec<Xoshiro256StarStar>,
    /// Shard context when this simulator runs as one shard of a
    /// [`crate::shard::run_sharded`] run; `None` in ordinary runs.
    pub shard: Option<crate::shard::ShardCtx>,
    /// Packet-id source plus the recycled heap boxes (packets and INT
    /// stacks) that make the steady-state data path allocation-free: a
    /// packet lives in exactly one box from birth at the host NIC to
    /// recycling at its sink.
    pub pkt_pool: PktPool,
    pub out: SimOutput,
    /// Node-level fault table, replicated on every shard so down-state
    /// queries ([`Self::node_is_down`]) answer identically everywhere;
    /// the crash/restart *actions* (buffer drain, traces) are events
    /// owned by the crashed node's shard.
    node_faults: Vec<NodeFault>,
    /// Control-plane outage windows `[from, until)` — queried per
    /// telemetry action, never event-driven, so they replicate freely.
    ctrl_outages: Vec<(Time, Time)>,
    /// Per-flow end-state slots, parallel to `flows`. A completion
    /// replaces an earlier failure (see [`Self::note_flow_end`]).
    flow_end: Vec<Option<FlowEnd>>,
    /// `Some` slots in `flow_end` — the run-loop termination count.
    ended_count: usize,
    /// Flows whose *sender* saw its final ACK, parallel to `flows`.
    /// Survives send-state GC; the finalize backfill uses it to avoid
    /// mislabeling a delivered cross-shard flow as unfinished.
    sender_done: Vec<bool>,
    /// Monotone count of sender-side give-ups ([`Progress::giveups`]).
    giveup_count: u64,
    /// Sim time of the last in-order byte delivered at any receiver
    /// this engine owns.
    last_progress_at: Time,
    /// In-order bytes delivered at receivers this engine owns.
    delivered_total: u64,
    /// Optional flight recorder (see [`crate::trace`]). Off by default.
    pub trace: Option<Trace>,
    /// Fabric invariant auditor (see [`crate::audit`]). Observation-only:
    /// it draws no randomness and schedules nothing, so seeded runs stay
    /// bit-identical with the feature on or off.
    #[cfg(feature = "audit")]
    pub audit: crate::audit::Auditor,
}

// The link type is defined in `link.rs`; alias locally for brevity.
use crate::link::Link as Link2;

/// Mixed into the simulation seed before deriving the per-link ECN
/// substreams, so they can never collide with the fault substreams (or
/// any other consumer keyed off the raw seed).
const ECN_STREAM_SALT: u64 = 0x00EC_117E_57A7_5EED;

impl Simulator {
    /// Create a simulator over a built network, panicking on degenerate
    /// inputs (see [`crate::config::validate`]). Use [`Self::try_new`]
    /// to handle the error instead.
    pub fn new(net: Network, cfg: SimConfig, factory: Box<dyn CcFactory>) -> Self {
        match Self::try_new(net, cfg, factory) {
            Ok(sim) => sim,
            Err(e) => panic!("invalid simulation config: {e}"),
        }
    }

    /// Fallible constructor: rejects zero-byte MTUs, empty or host-less
    /// topologies, zero-rate links, and inverted ECN thresholds with a
    /// typed [`ConfigError`] instead of running a nonsensical fabric.
    pub fn try_new(
        net: Network,
        cfg: SimConfig,
        factory: Box<dyn CcFactory>,
    ) -> Result<Self, ConfigError> {
        crate::config::validate(&cfg, &net)?;
        #[cfg(feature = "audit")]
        let n_links = net.links.len();
        let ecn_rngs = (0..net.links.len() as u64)
            .map(|l| Xoshiro256StarStar::substream(cfg.seed ^ ECN_STREAM_SALT, l))
            .collect();
        let mut sim = Simulator {
            now: 0,
            ecn_rngs,
            shard: None,
            cfg,
            events: EventQueue::new(),
            nodes: net.nodes,
            links: net.links,
            routes: net.routes,
            hosts: net.hosts,
            flows: Vec::new(),
            paths: Vec::new(),
            factory,
            pkt_pool: PktPool::default(),
            out: SimOutput::default(),
            node_faults: Vec::new(),
            ctrl_outages: Vec::new(),
            flow_end: Vec::new(),
            ended_count: 0,
            sender_done: Vec::new(),
            giveup_count: 0,
            last_progress_at: 0,
            delivered_total: 0,
            trace: None,
            #[cfg(feature = "audit")]
            audit: crate::audit::Auditor::new(n_links),
        };
        if sim.cfg.monitor_interval > 0 {
            sim.events.schedule(0, Event::MonitorTick);
        }
        let (limit, deadline) = (sim.cfg.giveup_rto_limit, sim.cfg.flow_deadline);
        for n in &mut sim.nodes {
            if let Some(h) = n.as_host_mut() {
                h.set_giveup(limit, deadline);
            }
        }
        Ok(sim)
    }

    /// What the monitor samples (set before running).
    pub fn set_monitor(&mut self, spec: MonitorSpec) {
        self.out.monitor = MonitorLog::new(spec);
    }

    /// Attach a flight recorder with the given ring capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// Pre-provision the allocation-sensitive engine structures: spare
    /// packet/INT boxes in the pool, wheel-slot and heap capacity in the
    /// event queue, ring capacity in every per-egress priority queue
    /// (`events_per_slot` per class bounds the worst single-egress
    /// burst), and ring capacity in every per-flow queue that
    /// already exists. Allocation-budget tests call this (optionally
    /// after a warmup run has created the flows' PFQ state) so the
    /// measured steady-state window performs zero allocator calls.
    /// Purely a capacity hint: event order and results are unaffected.
    pub fn prewarm(&mut self, n_packets: usize, n_stacks: usize, events_per_slot: usize) {
        self.pkt_pool.prewarm(n_packets, n_stacks);
        self.events.prewarm(events_per_slot);
        #[cfg(feature = "audit")]
        self.audit.prewarm(events_per_slot);
        for lk in &mut self.links {
            lk.queues.reserve(events_per_slot);
            if let Some(pfq) = &mut lk.pfq {
                pfq.reserve_queues(n_packets);
            }
        }
    }

    /// Attach a fault profile to one link (call before running).
    ///
    /// The link gets its own RNG substream keyed by `(cfg.seed, link)`,
    /// so injecting faults here never perturbs draws anywhere else —
    /// see [`crate::fault`] for the full determinism contract. Inert
    /// profiles are ignored entirely.
    pub fn inject_link_faults(&mut self, link: LinkId, profile: FaultProfile) {
        if let Err(e) = profile.validate() {
            panic!("invalid fault profile: {e}");
        }
        if !profile.is_active() {
            return;
        }
        // In shard mode only the owner of the link's egress serializes
        // onto it; other shards ignore the profile entirely so flap
        // events and drop counters are not double-counted.
        if !self.owns_node(self.links[link.index()].src) {
            return;
        }
        for w in &profile.flaps {
            self.events
                .schedule(w.down_at, Event::LinkFault { link, down: true });
            self.events
                .schedule(w.up_at, Event::LinkFault { link, down: false });
        }
        let st = FaultState::new(profile, self.cfg.seed, link.0 as u64);
        self.links[link.index()].faults = Some(Box::new(st));
    }

    /// Schedule a node-level fault — a host or switch crash, with an
    /// optional restart (call before running).
    ///
    /// The fault table is replicated on every shard (down-state queries
    /// must answer identically everywhere), but the crash/restart
    /// *actions* — buffer drain, trace records — are events owned by
    /// the crashed node's shard, so they fire exactly once per run at
    /// any shard count.
    pub fn inject_node_fault(&mut self, fault: NodeFault) {
        if let Err(e) = fault.validate() {
            panic!("invalid node fault: {e}");
        }
        assert!(
            fault.node.index() < self.nodes.len(),
            "node fault targets nonexistent {}",
            fault.node
        );
        if self.owns_node(fault.node) {
            self.events.schedule(
                fault.down_at,
                Event::NodeFault {
                    node: fault.node,
                    down: true,
                },
            );
            if let Some(up) = fault.up_at {
                self.events.schedule(
                    up,
                    Event::NodeFault {
                        node: fault.node,
                        down: false,
                    },
                );
            }
        }
        self.node_faults.push(fault);
    }

    /// Make the fabric's telemetry control plane dark over
    /// `[from, until)`: no INT hop records are inserted and no
    /// Switch-INT feedback is generated anywhere while dark. Data,
    /// ACKs, and PFQ credit stamps still flow — they are data-plane
    /// state. Purely table-driven (no events), so the window
    /// replicates freely across shards; each suppression is counted
    /// once, at the egress that would have telemetered.
    pub fn inject_ctrl_outage(&mut self, from: Time, until: Time) {
        assert!(from < until, "empty control-plane outage window");
        self.ctrl_outages.push((from, until));
    }

    /// Whether the telemetry control plane is dark at `now`.
    #[inline]
    pub fn ctrl_dark(&self, now: Time) -> bool {
        self.ctrl_outages.iter().any(|&(f, u)| f <= now && now < u)
    }

    /// Whether node-fault injection has `node` crashed at `now` —
    /// inclusive of `down_at`, exclusive of `up_at`. Answered from the
    /// replicated fault table (never from event state), so any shard
    /// can ask about any node and all agree, independent of same-time
    /// event ordering.
    #[inline]
    pub fn node_is_down(&self, node: NodeId, now: Time) -> bool {
        self.node_faults
            .iter()
            .any(|nf| nf.node == node && nf.down_at <= now && nf.up_at.is_none_or(|u| now < u))
    }

    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if let Some(tr) = &mut self.trace {
            tr.record(self.now, ev);
        }
    }

    /// Register a flow; it starts at `start`. Panics on degenerate
    /// specs — use [`Self::try_add_flow`] for the typed error.
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId, size_bytes: u64, start: Time) -> FlowId {
        match self.try_add_flow(src, dst, size_bytes, start) {
            Ok(id) => id,
            Err(e) => panic!("flow {src} → {dst}: {e}"),
        }
    }

    /// Fallible flow registration: rejects self-flows, zero-byte flows,
    /// and endpoints that are not hosts with a typed [`ConfigError`].
    ///
    /// The receive side (resolved path + receiver CC) is installed
    /// eagerly here rather than at the `FlowStart` event: registration
    /// has no observable side effect before the first data packet
    /// lands, and it means a shard that owns only the destination of a
    /// cross-shard flow never needs to see the source's events.
    pub fn try_add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size_bytes: u64,
        start: Time,
    ) -> Result<FlowId, ConfigError> {
        if src == dst {
            return Err(ConfigError::SelfFlow { node: src });
        }
        if size_bytes == 0 {
            return Err(ConfigError::EmptyFlow { src, dst });
        }
        for ep in [src, dst] {
            if self
                .nodes
                .get(ep.index())
                .is_none_or(|n| n.as_host().is_none())
            {
                return Err(ConfigError::NonHostFlowEndpoint { node: ep });
            }
        }
        let id = FlowId(self.flows.len() as u32);
        let spec = FlowSpec {
            id,
            src,
            dst,
            size_bytes,
            start,
        };
        self.flows.push(spec);
        self.flow_end.push(None);
        self.sender_done.push(false);
        let path = self.resolve_path(&spec);
        self.paths.push(path);
        let env = CcEnv {
            flow: spec,
            path,
            mtu_bytes: self.cfg.mtu_payload,
        };
        let receiver = self.factory.receiver(&env);
        if let Some(h) = self.nodes[spec.dst.index()].as_host_mut() {
            h.add_recv_flow(spec, path, receiver);
        }
        if self.owns_node(src) {
            self.events.schedule(start, Event::FlowStart(id));
        }
        Ok(id)
    }

    /// Whether this simulator is responsible for `node`'s events: always
    /// true in ordinary runs, and true exactly for the owned partition
    /// when running as a shard.
    #[inline]
    pub fn owns_node(&self, node: NodeId) -> bool {
        match &self.shard {
            None => true,
            Some(sh) => sh.owns(node),
        }
    }

    /// Install the shard context. Must precede flow registration (flow
    /// start scheduling is ownership-gated) and rules out the periodic
    /// monitor, which samples state a single shard does not own.
    pub fn set_shard(&mut self, ctx: crate::shard::ShardCtx) {
        assert_eq!(
            self.cfg.monitor_interval, 0,
            "the periodic monitor is unsupported in sharded runs"
        );
        assert!(self.flows.is_empty(), "set_shard must precede add_flow");
        self.shard = Some(ctx);
    }

    /// Deliver a boundary packet exported by a peer shard (at a window
    /// barrier): adopt the box into this shard's pool, record the wire
    /// crossing, and schedule the arrival under its content-derived key.
    pub fn deliver_boundary(&mut self, bp: crate::shard::BoundaryPacket) {
        self.pkt_pool.adopt(&bp.packet);
        #[cfg(feature = "audit")]
        self.audit.on_wire(bp.link, &bp.packet);
        self.events.schedule_with_seq(
            bp.at,
            bp.seq,
            Event::Arrival {
                link: bp.link,
                packet: bp.packet,
            },
        );
    }

    /// Run every pending event with `t < until` (and within
    /// `stop_time`): one lookahead window of a sharded run.
    pub fn run_window(&mut self, until: Time) {
        while let Some(t) = self.events.peek_time() {
            if t >= until || t > self.cfg.stop_time {
                break;
            }
            self.step();
        }
    }

    /// Whether a pending event within `stop_time` remains.
    pub fn has_runnable_events(&mut self) -> bool {
        self.events
            .peek_time()
            .is_some_and(|t| t <= self.cfg.stop_time)
    }

    /// Hop-by-hop links a flow will take (ECMP-resolved).
    pub fn resolve_path_links(&self, spec: &FlowSpec) -> Vec<LinkId> {
        let mut cur = spec.src;
        let mut path = Vec::new();
        while cur != spec.dst {
            let l = self
                .routes
                .pick(cur, spec.dst, spec.id)
                .unwrap_or_else(|| panic!("no route {} → {}", cur, spec.dst));
            path.push(l);
            cur = self.links[l.index()].dst;
            assert!(path.len() < 32, "routing loop {} → {}", spec.src, spec.dst);
        }
        path
    }

    fn resolve_path(&self, spec: &FlowSpec) -> FlowPath {
        let links = self.resolve_path_links(spec);
        let mtu_wire = self.cfg.mtu_wire() as u64;
        let mut fwd: Time = 0;
        let mut rev: Time = 0;
        let mut cross = false;
        let mut lh_idx = None;
        let mut bottleneck = u64::MAX;
        for (i, &l) in links.iter().enumerate() {
            let lk = &self.links[l.index()];
            fwd += lk.delay + tx_time(mtu_wire, lk.bandwidth);
            rev += lk.delay + tx_time(CONTROL_PACKET_BYTES as u64, lk.bandwidth);
            bottleneck = bottleneck.min(lk.bandwidth);
            if lk.opts.long_haul {
                cross = true;
                lh_idx = Some(i);
            }
        }
        let base_rtt = fwd + rev;
        let (src_dc_rtt, dst_dc_rtt) = match lh_idx {
            Some(i) => {
                let seg = |l: &LinkId| {
                    let lk = &self.links[l.index()];
                    2 * lk.delay
                        + tx_time(mtu_wire, lk.bandwidth)
                        + tx_time(CONTROL_PACKET_BYTES as u64, lk.bandwidth)
                };
                let s: Time = links[..i].iter().map(seg).sum();
                let d: Time = links[i + 1..].iter().map(seg).sum();
                (s.max(US), d.max(US))
            }
            None => (base_rtt, base_rtt),
        };
        FlowPath {
            base_rtt,
            src_dc_rtt,
            dst_dc_rtt,
            cross_dc: cross,
            line_rate_bps: self.links[links[0].index()].bandwidth,
            bottleneck_bps: bottleneck,
            hops: links.len() as u32,
        }
    }

    // -----------------------------------------------------------------
    // Run control
    // -----------------------------------------------------------------

    /// Run until the event queue drains or `stop_time` passes.
    pub fn run(&mut self) {
        while let Some(t) = self.events.peek_time() {
            if t > self.cfg.stop_time {
                break;
            }
            self.step();
        }
        self.finalize();
    }

    /// Run until every registered flow has reached a terminal outcome —
    /// completed *or* failed (give-up policy, deadline, crash,
    /// watchdog) — or `stop_time` passes. Returns true when every flow
    /// **completed**; the per-flow verdicts are in
    /// [`SimOutput::outcomes`] either way.
    pub fn run_until_flows_complete(&mut self) -> bool {
        while self.ended_count < self.flows.len() {
            let Some(t) = self.events.peek_time() else {
                break;
            };
            if t > self.cfg.stop_time {
                break;
            }
            self.step();
        }
        self.finalize();
        self.out.fcts.len() == self.flows.len()
    }

    /// Aggregate the run's statistics and outcomes into `out` (the shard
    /// runner calls this once per shard, after the last barrier).
    pub(crate) fn finalize(&mut self) {
        #[cfg(feature = "audit")]
        self.audit_drain_check();
        self.out.finished_at = self.now;
        self.out.events_scheduled = self.events.scheduled_total();
        self.out.peak_queue_depth = self.events.peak_len() as u64;
        self.out.buffer_drops = self
            .nodes
            .iter()
            .filter_map(|n| n.as_switch())
            .map(|s| s.buffer.dropped_packets)
            .sum();
        self.out.fault_drops = 0;
        self.out.fault_jittered = 0;
        for lk in &self.links {
            if let Some(fs) = &lk.faults {
                self.out.fault_drops += fs.drops;
                self.out.fault_jittered += fs.jittered;
            }
        }
        self.out.retransmits = self
            .nodes
            .iter()
            .filter_map(|n| n.as_host())
            .map(|h| h.total_retransmits())
            .sum();
        self.backfill_unfinished();
        self.out.outcomes.clear();
        for (i, end) in self.flow_end.iter().enumerate() {
            let Some(e) = end else { continue };
            let spec = self.flows[i];
            self.out.outcomes.push(OutcomeRecord {
                flow: spec.id,
                src: spec.src,
                dst: spec.dst,
                size_bytes: spec.size_bytes,
                bytes_acked: if e.outcome == FlowOutcome::Completed {
                    spec.size_bytes
                } else {
                    e.acked
                },
                start: spec.start,
                ended: e.ended,
                outcome: e.outcome,
            });
        }
        self.out.outcomes.sort_by_key(|r| (r.ended, r.flow.0));
        #[cfg(feature = "audit")]
        self.audit_watchdog_check();
    }

    /// Close out every flow with no recorded end: it neither completed
    /// nor failed before the run stopped. Only the shard owning the
    /// sender reports — the shard owning the receiver of a delivered
    /// cross-shard flow holds the completion record instead, and the
    /// merge keeps completions over failures.
    fn backfill_unfinished(&mut self) {
        for i in 0..self.flows.len() {
            if self.flow_end[i].is_some() || self.sender_done[i] {
                continue;
            }
            let spec = self.flows[i];
            if !self.owns_node(spec.src) {
                continue;
            }
            let acked = self.nodes[spec.src.index()]
                .as_host()
                .and_then(|h| h.send_flow(spec.id))
                .map_or(0, |f| f.bytes_acked);
            // Stamped at stop_time (not this engine's final `now`) so
            // every shard count writes the identical record.
            let at = self.cfg.stop_time;
            if let Some(tr) = &mut self.trace {
                tr.record(
                    at,
                    TraceEvent::FlowFailed {
                        flow: spec.id,
                        reason: FailReason::Unfinished,
                        acked,
                    },
                );
            }
            self.note_flow_end(
                spec.id,
                at,
                FlowOutcome::Failed(FailReason::Unfinished),
                acked,
            );
        }
    }

    /// This engine's liveness snapshot.
    pub(crate) fn progress(&self) -> Progress {
        Progress {
            last_progress_at: self.last_progress_at,
            delivered_bytes: self.delivered_total,
            completed: self.out.fcts.len() as u64,
            giveups: self.giveup_count,
            pfc_pauses: self.out.pfc_events.len() as u64,
        }
    }

    /// Write a flow's end-state slot. First writer wins, with one
    /// exception: a receiver-side completion replaces an earlier
    /// sender-side failure — every byte was delivered; the sender
    /// merely gave up before the last ACK reached it. Failures never
    /// replace a completion.
    fn note_flow_end(&mut self, flow: FlowId, ended: Time, outcome: FlowOutcome, acked: u64) {
        let slot = &mut self.flow_end[flow.index()];
        match slot {
            None => {
                *slot = Some(FlowEnd {
                    ended,
                    outcome,
                    acked,
                });
                self.ended_count += 1;
            }
            Some(e) if e.outcome.is_failed() && outcome == FlowOutcome::Completed => {
                *slot = Some(FlowEnd {
                    ended,
                    outcome,
                    acked,
                });
            }
            Some(_) => {}
        }
    }

    /// Record a sender-side failure: trace it, write the outcome slot
    /// (unless the receiver already completed the flow — completion
    /// wins), and prune the dead send state. The trace record is
    /// stamped at `ended`, not the engine clock: during a sharded
    /// stall declaration each shard's local `now` differs, but the
    /// failure instant is a property of the scenario.
    fn fail_flow(&mut self, flow: FlowId, reason: FailReason, ended: Time) {
        let spec = self.flows[flow.index()];
        let acked = self.nodes[spec.src.index()]
            .as_host()
            .and_then(|h| h.send_flow(flow))
            .map_or(0, |f| f.bytes_acked);
        if let Some(tr) = &mut self.trace {
            tr.record(
                ended,
                TraceEvent::FlowFailed {
                    flow,
                    reason,
                    acked,
                },
            );
        }
        self.note_flow_end(flow, ended, FlowOutcome::Failed(reason), acked);
        if let Some(h) = self.nodes[spec.src.index()].as_host_mut() {
            h.gc_finished();
        }
    }

    /// Declare a global stall: record the watchdog report and fail
    /// every unfinished started flow this engine owns, at the stall
    /// time. The run then *continues* — remaining events (timers,
    /// stragglers) still execute, so event accounting matches across
    /// engines; the failed flows just no longer send.
    pub(crate) fn declare_stall(&mut self, report: WatchdogReport) {
        #[cfg(feature = "audit")]
        if matches!(self.audit.chaos, Some(crate::audit::Chaos::MuteWatchdog)) {
            return; // sabotage shim: swallow the verdict (fuzzer bait)
        }
        debug_assert!(self.out.watchdog.is_none(), "the watchdog fires once");
        self.out.watchdog = Some(report);
        for i in 0..self.flows.len() {
            let spec = self.flows[i];
            if self.flow_end[i].is_some() || self.sender_done[i] {
                continue; // already ended, or delivered (record at dst)
            }
            if !self.owns_node(spec.src) {
                continue; // the owning shard fails it, same report
            }
            if spec.start > report.stalled_at {
                continue; // not yet started at the stall point
            }
            if let Some(h) = self.nodes[spec.src.index()].as_host_mut() {
                h.abandon_flow(spec.id);
            }
            self.fail_flow(spec.id, FailReason::Stalled, report.stalled_at);
        }
    }

    /// Audit-mode cross-check: with the watchdog armed, a run that in
    /// fact stalled (no receiver progress for a full window with flows
    /// outstanding) must have produced a report — catches a muted or
    /// suppressed watchdog (see [`crate::audit::Chaos::MuteWatchdog`]).
    /// Single-engine only: one shard cannot judge global progress by
    /// itself; the sharded merge compares shard verdicts instead.
    #[cfg(feature = "audit")]
    fn audit_watchdog_check(&self) {
        if self.shard.is_some() || self.out.watchdog.is_some() {
            return;
        }
        let (flows, window) = (self.flows.len() as u64, self.cfg.watchdog_window);
        if let Liveness::Stalled(r) = self.progress().verdict(flows, window, self.now) {
            panic!(
                "AUDIT VIOLATION: no receiver progress since {} (window {}, now {}) \
                 with {} unfinished flows, but the watchdog never reported",
                r.last_progress_at, r.window, self.now, r.unfinished_flows
            );
        }
    }

    /// Process one event.
    pub fn step(&mut self) {
        // The liveness rule (`Progress::verdict`) on the single-threaded
        // engine, applied to the *next* event before popping it, so the
        // stall is declared at exactly the deadline, before any later
        // event runs. A sharded run applies it to the merged snapshot at
        // window barriers (`shard::run_one_shard`). The window test
        // first skips the peek while the watchdog is off.
        let window = self.cfg.watchdog_window;
        if window > 0 && self.shard.is_none() && self.out.watchdog.is_none() {
            if let Some(t) = self.events.peek_time().filter(|&t| t <= self.cfg.stop_time) {
                let flows = self.flows.len() as u64;
                if let Liveness::Stalled(report) = self.progress().verdict(flows, window, t) {
                    self.declare_stall(report);
                }
            }
        }
        let Some((t, ev)) = self.events.pop() else {
            return;
        };
        debug_assert!(t >= self.now, "time went backwards");
        #[cfg(feature = "audit")]
        self.audit_on_event(t);
        self.now = t;
        self.out.events_processed += 1;
        match ev {
            Event::FlowStart(f) => self.handle_flow_start(f),
            Event::Arrival { link, packet } => self.handle_arrival(link, packet),
            Event::TxComplete { link } => {
                self.links[link.index()].busy = false;
                self.try_start_tx(link);
            }
            Event::Wake { link } => {
                let lk = &mut self.links[link.index()];
                if lk.wake_at == Some(t) {
                    lk.wake_at = None;
                }
                self.try_start_tx(link);
            }
            Event::CcTimer { node, flow } => self.handle_cc_timer(node, flow),
            Event::RtoCheck { node, flow } => self.handle_rto(node, flow),
            Event::MonitorTick => self.handle_monitor(),
            Event::PfcUpdate { link, paused } => {
                self.links[link.index()]
                    .queues
                    .set_paused(Priority::Data, paused);
                if !paused {
                    self.try_start_tx(link);
                }
            }
            Event::LinkFault { link, down } => {
                if let Some(fs) = self.links[link.index()].faults.as_mut() {
                    fs.down = down;
                }
                if down {
                    self.out.link_flaps += 1;
                    self.record(TraceEvent::LinkDown { link });
                } else {
                    self.record(TraceEvent::LinkUp { link });
                    // Anything queued behind the dead serializer may flow
                    // again (the serializer itself kept draining — down
                    // only black-holes the wire — but a kick is harmless
                    // and covers links that went idle while dark).
                    self.try_start_tx(link);
                }
            }
            Event::NodeFault { node, down } => self.handle_node_fault(node, down),
        }
    }

    // -----------------------------------------------------------------
    // Event handlers
    // -----------------------------------------------------------------

    /// A node crashes or restarts. On crash, everything parked at the
    /// dead node's egresses is drained and black-holed (a dead switch
    /// holds no buffers), with full dequeue-side accounting so the
    /// shared buffer and PFC watermarks are clean for a restart.
    /// Packets already on the wire still *arrive* — and die there,
    /// because [`Self::handle_arrival`] black-holes anything addressed
    /// to a down node. On restart every egress gets a kick; host CC
    /// and RTO machinery kept ticking while down, so senders resume
    /// (or give up) naturally.
    fn handle_node_fault(&mut self, node: NodeId, down: bool) {
        if down {
            self.record(TraceEvent::NodeDown { node });
            let mut drained: Vec<Box<Packet>> = Vec::new();
            for l in 0..self.links.len() {
                if self.links[l].src == node {
                    self.links[l].drain_queued(|p| drained.push(p));
                }
            }
            for pkt in drained {
                self.note_dequeue(node, pkt.size as u64, pkt.is_data(), pkt.in_link);
                self.blackhole(pkt, node);
            }
        } else {
            self.record(TraceEvent::NodeUp { node });
            for l in 0..self.links.len() {
                if self.links[l].src == node {
                    self.try_start_tx(LinkId(l as u32));
                }
            }
        }
    }

    /// Discard a packet that hit (or was buffered inside) a crashed
    /// node.
    fn blackhole(&mut self, pkt: Box<Packet>, at: NodeId) {
        self.out.blackhole_drops += 1;
        #[cfg(feature = "audit")]
        self.audit.on_blackhole(&pkt);
        self.record(TraceEvent::PacketBlackholed { flow: pkt.flow, at });
        self.pkt_pool.put(pkt);
    }

    fn handle_flow_start(&mut self, fid: FlowId) {
        let spec = self.flows[fid.index()];
        self.record(TraceEvent::FlowStarted {
            flow: fid,
            src: spec.src,
            dst: spec.dst,
            size_bytes: spec.size_bytes,
        });
        let path = self.paths[fid.index()];
        let env = CcEnv {
            flow: spec,
            path,
            mtu_bytes: self.cfg.mtu_payload,
        };
        let sender = self.factory.sender(&env);
        let (timer, uplink, rto_at) = {
            let h = self.nodes[spec.src.index()]
                .as_host_mut()
                .expect("flow source is a host");
            let timer = h.add_send_flow(spec, path, sender, self.now);
            let rto_at = h.arm_rto(fid, self.now);
            (timer, h.uplink, rto_at)
        };
        if let Some((f, at)) = timer {
            self.events.schedule(
                at,
                Event::CcTimer {
                    node: spec.src,
                    flow: f,
                },
            );
        }
        if let Some(at) = rto_at {
            self.events.schedule(
                at,
                Event::RtoCheck {
                    node: spec.src,
                    flow: fid,
                },
            );
        }
        self.try_start_tx(uplink);
    }

    fn handle_arrival(&mut self, link: LinkId, packet: Box<Packet>) {
        #[cfg(feature = "audit")]
        self.audit.on_arrival(link, &packet, self.now);
        let dst = self.links[link.index()].dst;
        if self.node_is_down(dst, self.now) {
            self.blackhole(packet, dst);
            return;
        }
        if self.nodes[dst.index()].is_host() {
            self.host_arrival(dst, packet);
        } else {
            self.switch_arrival(dst, link, packet);
        }
    }

    fn host_arrival(&mut self, node: NodeId, mut pkt: Box<Packet>) {
        let now = self.now;
        let (out, uplink, progress) = {
            let h = self.nodes[node.index()].as_host_mut().expect("host");
            let before = h.delivered_bytes;
            let out = h.on_packet(&mut pkt, now, &mut self.pkt_pool);
            if out.sender_done {
                h.gc_finished();
            }
            (out, h.uplink, h.delivered_bytes - before)
        };
        // Watchdog food: any in-order receiver advance is progress.
        if progress > 0 {
            self.delivered_total += progress;
            self.last_progress_at = now;
        }
        let done_flow = if out.sender_done {
            Some(pkt.flow)
        } else {
            None
        };
        // The arrival box dies at its sink; recycle it first so the ACK
        // it usually provokes is boxed into the very same allocation.
        #[cfg(feature = "audit")]
        self.audit.on_delivered(&pkt);
        self.pkt_pool.put(pkt);
        if let Some(f) = done_flow {
            self.sender_done[f.index()] = true;
        }
        if let Some(ack) = out.ack {
            let b = self.pkt_pool.boxed(ack);
            #[cfg(feature = "audit")]
            self.audit.on_born(&b);
            self.links[uplink.index()].queues.enqueue(b);
        }
        if let Some(cnp) = out.cnp {
            let b = self.pkt_pool.boxed(cnp);
            #[cfg(feature = "audit")]
            self.audit.on_born(&b);
            self.links[uplink.index()].queues.enqueue(b);
        }
        if let Some((f, at)) = out.timer {
            self.events.schedule(at, Event::CcTimer { node, flow: f });
        }
        if let Some((f, at)) = out.rto_check {
            self.events.schedule(at, Event::RtoCheck { node, flow: f });
        }
        if let Some(rec) = out.completed {
            self.record(TraceEvent::FlowCompleted {
                flow: rec.flow,
                fct: rec.fct(),
            });
            self.note_flow_end(rec.flow, rec.finish, FlowOutcome::Completed, rec.size_bytes);
            self.out.fcts.push(rec);
        }
        self.try_start_tx(uplink);
    }

    fn switch_arrival(&mut self, node: NodeId, in_link: LinkId, mut pkt: Box<Packet>) {
        let now = self.now;
        let (is_lh_in, has_dci) = {
            let sw = self.nodes[node.index()].as_switch().expect("switch");
            (sw.is_long_haul_ingress(in_link), sw.dci.is_some())
        };

        // Receiver-side DCI: data from the long haul goes to its PFQ.
        if pkt.is_data() && is_lh_in && self.cfg.dci.pfq_enabled {
            // "Erase and reinsert the INT information" (§3.2.2): the
            // sender-side records were already consumed by the
            // near-source loop; the stack restarts here. Its box goes
            // back to the pool rather than dying with the packet.
            if let Some(s) = pkt.int.take() {
                self.pkt_pool.put_int(s);
            }
            let Some(egress) = self.routes.pick(node, pkt.dst, pkt.flow) else {
                #[cfg(feature = "audit")]
                self.audit_no_route(&pkt, node);
                debug_assert!(false, "no route at DCI");
                self.pkt_pool.put(pkt);
                return;
            };
            let size = pkt.size as u64;
            {
                let sw = self.nodes[node.index()].as_switch_mut().expect("switch");
                if !sw.buffer.admit(size, true) {
                    #[cfg(feature = "audit")]
                    self.audit_on_buffer_drop(node, &pkt);
                    self.record(TraceEvent::PacketDropped {
                        flow: pkt.flow,
                        at: node,
                    });
                    self.pkt_pool.put(pkt);
                    return; // also counted by the buffer
                }
                let cap = sw.buffer.shared_capacity();
                let used = sw.buffer.shared_used();
                let pfc = sw.pfc;
                // Ingress accounting kept symmetric with dequeue even
                // though DCI PFC is disabled by default.
                let act = sw
                    .ingress
                    .get_or_default(in_link)
                    .on_enqueue(size, &pfc, cap, used, now);
                debug_assert_eq!(act, PfcAction::None, "DCI PFC should stay off");
                sw.dci
                    .as_mut()
                    .expect("dci role")
                    .pfq_link
                    .insert(pkt.flow, egress);
            }
            pkt.in_link = Some(in_link);
            let flow = pkt.flow;
            let created = self.links[egress.index()]
                .pfq
                .as_mut()
                .expect("PFQ on DCI toward-DC egress")
                .enqueue(pkt, now);
            if created {
                self.record(TraceEvent::PfqCreated { flow, link: egress });
            }
            self.try_start_tx(egress);
            return;
        }

        // Receiver-side DCI: ACKs heading out the long haul carry the
        // credit counter C_R and the dequeue rate R_credit (Algorithm 1).
        if pkt.kind == PacketKind::Ack && has_dci && self.cfg.dci.pfq_enabled {
            if let Some(egress) = self.routes.pick(node, pkt.dst, pkt.flow) {
                let is_out = self.nodes[node.index()]
                    .as_switch()
                    .is_some_and(|sw| sw.is_long_haul_egress(egress));
                if is_out {
                    let pfq_link = self.nodes[node.index()]
                        .as_switch()
                        .and_then(|sw| sw.dci.as_ref())
                        .and_then(|d| d.pfq_link.get(pkt.flow))
                        .copied();
                    if let Some(pl) = pfq_link {
                        let mut kick = false;
                        if let Some(pfq) = self.links[pl.index()].pfq.as_mut() {
                            if let Some(cr) = pkt.mlcc.c_r() {
                                pfq.set_credit(pkt.flow, cr, now);
                            }
                            if let Some(r) = pkt.mlcc.r_credit_bps() {
                                pfq.set_rate(pkt.flow, r, now);
                                kick = true;
                            }
                        }
                        if kick {
                            self.try_start_tx(pl);
                        }
                    }
                }
            }
        }

        self.forward_from(node, Some(in_link), pkt);
    }

    /// Normal store-and-forward at a switch (also used for locally
    /// generated Switch-INT feedback, with `in_link = None`).
    fn forward_from(&mut self, node: NodeId, in_link: Option<LinkId>, mut pkt: Box<Packet>) {
        let now = self.now;
        let Some(egress) = self.routes.pick(node, pkt.dst, pkt.flow) else {
            #[cfg(feature = "audit")]
            self.audit_no_route(&pkt, node);
            debug_assert!(false, "no route {} → {}", node, pkt.dst);
            self.pkt_pool.put(pkt);
            return;
        };
        let size = pkt.size as u64;
        let droppable = pkt.is_data();
        // Headroom charging is decided before admission: a data packet
        // landing on an ingress that has paused its upstream is the
        // in-flight tail of the pause loop and draws on the dedicated
        // reservation (guaranteed admission) instead of the shared pool.
        let charged_headroom = droppable
            && in_link.is_some_and(|il| {
                self.nodes[node.index()]
                    .as_switch()
                    .expect("switch")
                    .charges_headroom(il, size)
            });
        {
            let sw = self.nodes[node.index()].as_switch_mut().expect("switch");
            if charged_headroom {
                sw.buffer.admit_headroom(size);
            } else if !sw.buffer.admit(size, droppable) {
                #[cfg(feature = "audit")]
                self.audit_on_buffer_drop(node, &pkt);
                self.record(TraceEvent::PacketDropped {
                    flow: pkt.flow,
                    at: node,
                });
                self.pkt_pool.put(pkt);
                return;
            }
        }
        if pkt.is_data() {
            // ECN at enqueue, on the egress data queue depth, with the
            // egress port's marking profile. The uniform sample is drawn
            // only when the marking probability is nonzero, so runs with
            // ECN disabled (or queues below Kmin throughout) consume no
            // RNG state and stay bitwise-identical to marking-enabled
            // topologies under the same seed.
            let qlen = self.links[egress.index()].data_queued_bytes();
            let p = self.links[egress.index()].ecn.mark_probability(qlen);
            if p > 0.0 && self.ecn_rngs[egress.index()].gen_f64() < p {
                pkt.ecn = true;
                self.out.ecn_marks += 1;
            }
            // PFC ingress accounting. Headroom-charged bytes skip the
            // threshold check: the ingress is already paused, and the
            // charge must not re-trigger Pause or move the DT math.
            if let Some(il) = in_link {
                if charged_headroom {
                    let sw = self.nodes[node.index()].as_switch_mut().expect("switch");
                    sw.ingress.get_or_default(il).on_enqueue_headroom(size);
                } else {
                    let signal_delay = self.links[il.index()].delay;
                    let act = {
                        let sw = self.nodes[node.index()].as_switch_mut().expect("switch");
                        let cap = sw.buffer.shared_capacity();
                        let used = sw.buffer.shared_used();
                        let pfc = sw.pfc;
                        sw.ingress
                            .get_or_default(il)
                            .on_enqueue(size, &pfc, cap, used, now)
                    };
                    // Chaos shim (identity unless a fuzz test armed it).
                    #[cfg(feature = "audit")]
                    let act = self.audit.chaos_pfc_action(act);
                    if act == PfcAction::Pause {
                        self.out.pfc_events.push((now, node));
                        self.record(TraceEvent::PfcPause {
                            at: node,
                            ingress: il,
                        });
                        self.events.schedule(
                            now + signal_delay,
                            Event::PfcUpdate {
                                link: il,
                                paused: true,
                            },
                        );
                    }
                }
            }
        }
        pkt.in_link = in_link;
        self.links[egress.index()].queues.enqueue(pkt);
        self.try_start_tx(egress);
    }

    /// Schedule a [`Event::Wake`] for egress `l` at `t`, unless the one
    /// already pending (mirrored in `Link::wake_at`) fires first.
    fn schedule_wake(&mut self, l: LinkId, t: Time) {
        let lk = &mut self.links[l.index()];
        if lk.wake_at.is_none_or(|w| w <= self.now || w > t) {
            lk.wake_at = Some(t);
            self.events.schedule(t, Event::Wake { link: l });
        }
    }

    /// Try to start serializing the next packet on `l`.
    fn try_start_tx(&mut self, l: LinkId) {
        let now = self.now;
        if self.links[l.index()].busy {
            return;
        }
        // A crashed node serializes nothing: its queues were drained at
        // crash time, its hosts generate nothing, and the restart event
        // kicks every egress back to life.
        if self.node_is_down(self.links[l.index()].src, now) {
            return;
        }
        let data_paused = self.links[l.index()].queues.is_paused(Priority::Data);
        let mut from_pfq = false;
        let mut pkt = self.links[l.index()].queues.dequeue();
        // MLCC per-flow queues (respect PFC pause on the data class).
        if pkt.is_none() && !data_paused && self.links[l.index()].pfq.is_some() {
            match self.links[l.index()].pfq.as_mut().unwrap().dequeue(now) {
                PfqDequeue::Packet(p) => {
                    pkt = Some(p);
                    from_pfq = true;
                }
                PfqDequeue::NextAt(t) => self.schedule_wake(l, t),
                PfqDequeue::Empty => {}
            }
        }
        // Host on-demand data generation.
        if pkt.is_none() && !data_paused {
            let src = self.links[l.index()].src;
            if let Node::Host(h) = &mut self.nodes[src.index()] {
                match h.next_data_packet(now, &mut self.pkt_pool) {
                    HostTx::Packet(p) => {
                        #[cfg(feature = "audit")]
                        self.audit.on_born(&p);
                        pkt = Some(p);
                    }
                    HostTx::WakeAt(t) => self.schedule_wake(l, t),
                    HostTx::Idle => {}
                }
            }
        }
        let Some(mut pkt) = pkt else {
            return;
        };

        // Dequeue bookkeeping at switch egresses.
        let src = self.links[l.index()].src;
        self.note_dequeue(src, pkt.size as u64, pkt.is_data(), pkt.in_link);

        // INT insertion at serialization start. The hop is computed
        // under a shared borrow of the link; the stack box (if the
        // packet does not carry one yet) comes from the pool. A
        // control-plane outage suppresses the insertion entirely — the
        // PFQ credit stamp below is data-plane state and survives.
        let dark = self.ctrl_dark(now);
        {
            let lk = &self.links[l.index()];
            if pkt.is_data() {
                if dark {
                    self.out.int_suppressed += 1;
                } else {
                    let qlen = if from_pfq {
                        lk.pfq
                            .as_ref()
                            .and_then(|p| p.get(pkt.flow))
                            .map_or(0, |s| s.bytes())
                    } else {
                        lk.queues.bytes(Priority::Data)
                    };
                    let hop = IntHop {
                        hop_id: lk.hop_id,
                        ts: now,
                        qlen_bytes: qlen,
                        tx_bytes: lk.tx_bytes,
                        link_bps: lk.bandwidth,
                        is_dci: lk.opts.long_haul || from_pfq,
                    };
                    if pkt.int.is_none() {
                        pkt.int = Some(self.pkt_pool.take_int());
                    }
                    pkt.int.as_mut().expect("just attached").push(hop);
                }
            }
            if from_pfq {
                // Algorithm 1: stamp the PFQ's credit C_D into the data.
                pkt.mlcc
                    .set_c_d(lk.pfq.as_ref().and_then(|p| p.c_d(pkt.flow)));
            }
        }

        // Sender-side DCI near-source loop: strip INT onto a Switch-INT
        // feedback packet as the data leaves the datacenter. Dark
        // control plane: no feedback is generated and the pacing state
        // is untouched — the switch's telemetry agent is down, not
        // merely rate-limited.
        let mut feedback: Option<Packet> = None;
        if pkt.is_data() && self.cfg.dci.near_source_enabled {
            let is_lh = self.nodes[src.index()]
                .as_switch()
                .is_some_and(|sw| sw.is_long_haul_egress(l));
            if is_lh {
                // Strip the stack by move: either it rides the feedback
                // packet or its box goes straight back to the pool.
                let stack = pkt.int.take();
                if dark {
                    self.out.int_suppressed += 1;
                    if let Some(s) = stack {
                        self.pkt_pool.put_int(s);
                    }
                } else {
                    let due = self.nodes[src.index()]
                        .as_switch_mut()
                        .and_then(|sw| sw.dci.as_mut())
                        .is_some_and(|d| d.switch_int_due(pkt.flow, now));
                    if due {
                        let id = self.pkt_pool.next_id();
                        feedback = Some(Packet::switch_int(id, pkt.flow, src, pkt.src, stack));
                    } else if let Some(s) = stack {
                        self.pkt_pool.put_int(s);
                    }
                }
            }
        }

        // Start serialization. The serializer always runs for the full
        // wire time — fault injection decides what the far end sees.
        let (ser, delay) = {
            let lk = &mut self.links[l.index()];
            lk.tx_bytes += pkt.size as u64;
            lk.busy = true;
            (lk.ser_time(pkt.size as u64), lk.delay)
        };
        self.events
            .schedule(now + ser, Event::TxComplete { link: l });
        let mut arrival_at = Some(now + ser + delay);
        if let Some(fs) = self.links[l.index()].faults.as_mut() {
            if fs.down {
                // Black hole: data and control alike die on a dark wire.
                fs.down_drop();
                arrival_at = None;
            } else if fs.loses(pkt.is_data()) {
                arrival_at = None;
            } else {
                arrival_at = arrival_at.map(|t| fs.jittered_arrival(t));
            }
        }
        match arrival_at {
            Some(at) => {
                // The packet keeps living in the same box it was born
                // in: scheduling the arrival moves one pointer.
                if self.links[l.index()].opts.long_haul {
                    // Long-haul arrivals tie-break by (link, wire seq)
                    // instead of insertion order, so the same-instant
                    // order is a function of the packet itself and every
                    // shard count reproduces it.
                    let ws = {
                        let lk = &mut self.links[l.index()];
                        let s = lk.wire_seq;
                        lk.wire_seq += 1;
                        s
                    };
                    let key = boundary_seq(l, ws);
                    let dst = self.links[l.index()].dst;
                    if self.owns_node(dst) {
                        #[cfg(feature = "audit")]
                        self.audit.on_wire(l, &pkt);
                        self.events.schedule_with_seq(
                            at,
                            key,
                            Event::Arrival {
                                link: l,
                                packet: pkt,
                            },
                        );
                    } else {
                        // Cross-shard: hand the box to the destination
                        // shard at the next barrier. The auditor's
                        // on_wire fires at delivery in the owning shard
                        // (outbox order preserves per-link FIFO), and
                        // the pool's outstanding count transfers with
                        // the box.
                        self.pkt_pool.export(&pkt);
                        self.shard
                            .as_mut()
                            .expect("non-owned link dst implies shard mode")
                            .outbox
                            .push(crate::shard::BoundaryPacket {
                                at,
                                link: l,
                                seq: key,
                                packet: pkt,
                            });
                    }
                } else {
                    #[cfg(feature = "audit")]
                    self.audit.on_wire(l, &pkt);
                    self.events.schedule(
                        at,
                        Event::Arrival {
                            link: l,
                            packet: pkt,
                        },
                    );
                }
            }
            None => {
                #[cfg(feature = "audit")]
                self.audit.on_fault_drop(&pkt);
                self.record(TraceEvent::PacketLost {
                    flow: pkt.flow,
                    link: l,
                });
                self.pkt_pool.put(pkt);
            }
        }

        if let Some(fb) = feedback {
            let b = self.pkt_pool.boxed(fb);
            #[cfg(feature = "audit")]
            self.audit.on_born(&b);
            self.forward_from(src, None, b);
        }
    }

    /// Dequeue-side bookkeeping shared by the serializer and the crash
    /// drain: release the shared buffer at a switch egress and run PFC
    /// ingress accounting, scheduling the Resume toward the upstream
    /// when the pause threshold clears.
    fn note_dequeue(&mut self, src: NodeId, size: u64, is_data: bool, in_link: Option<LinkId>) {
        let now = self.now;
        let mut resume_on: Option<LinkId> = None;
        if let Node::Switch(sw) = &mut self.nodes[src.index()] {
            // Headroom drains first (the Broadcom MMU convention): the
            // headroom-charged part of this departure is returned to the
            // reservation, the rest to the shared pool.
            let from_hr = if is_data {
                in_link
                    .and_then(|il| sw.ingress.get(il))
                    .map_or(0, |st| st.hr_bytes.min(size))
            } else {
                0
            };
            sw.buffer.release(size);
            if from_hr > 0 {
                sw.buffer.release_headroom(from_hr);
            }
            if is_data {
                if let Some(il) = in_link {
                    let cap = sw.buffer.shared_capacity();
                    let used = sw.buffer.shared_used();
                    let pfc = sw.pfc;
                    let act = sw
                        .ingress
                        .get_or_default(il)
                        .on_dequeue(size, from_hr, &pfc, cap, used, now);
                    if act == PfcAction::Resume {
                        resume_on = Some(il);
                    }
                }
            }
        }
        if let Some(il) = resume_on {
            self.record(TraceEvent::PfcResume {
                at: src,
                ingress: il,
            });
            let d = self.links[il.index()].delay;
            self.events.schedule(
                now + d,
                Event::PfcUpdate {
                    link: il,
                    paused: false,
                },
            );
        }
    }

    fn handle_cc_timer(&mut self, node: NodeId, flow: FlowId) {
        let now = self.now;
        let (out, uplink) = {
            let Some(h) = self.nodes[node.index()].as_host_mut() else {
                return;
            };
            let out = h.on_cc_timer(flow, now);
            (out, h.uplink)
        };
        if let Some((f, at)) = out.timer {
            self.events.schedule(at, Event::CcTimer { node, flow: f });
        }
        if let Some((f, at)) = out.rto_check {
            self.events.schedule(at, Event::RtoCheck { node, flow: f });
        }
        self.try_start_tx(uplink);
    }

    fn handle_rto(&mut self, node: NodeId, flow: FlowId) {
        let now = self.now;
        let (verdict, next, uplink) = {
            let Some(h) = self.nodes[node.index()].as_host_mut() else {
                return;
            };
            let (verdict, next) = h.on_rto_check(flow, now);
            (verdict, next, h.uplink)
        };
        match verdict {
            RtoVerdict::None => {}
            RtoVerdict::Retransmit => {
                let from_seq = self.nodes[node.index()]
                    .as_host()
                    .and_then(|h| h.send_flow(flow))
                    .map_or(0, |f| f.bytes_acked);
                self.record(TraceEvent::Retransmit { flow, from_seq });
                self.try_start_tx(uplink);
            }
            RtoVerdict::GiveUp(reason) => {
                // A flow that starves while one of its endpoints is
                // crashed failed *because of* the crash; report the
                // cause, not the symptom. The check reads the
                // replicated fault table, so every shard names the
                // same reason even when it owns only one endpoint.
                let spec = self.flows[flow.index()];
                let reason = if self.node_is_down(spec.src, now) || self.node_is_down(spec.dst, now)
                {
                    FailReason::HostCrash
                } else {
                    reason
                };
                self.giveup_count += 1;
                self.fail_flow(flow, reason, now);
            }
        }
        if let Some(at) = next {
            self.events.schedule(at, Event::RtoCheck { node, flow });
        }
    }

    fn handle_monitor(&mut self) {
        let now = self.now;
        // Pre-size every per-sample vector from the spec: a sample's
        // shape is fully known up front, so collection never reallocates
        // mid-push.
        let n_q = self.out.monitor.spec.queues.len();
        let n_f = self.out.monitor.spec.flows.len();
        let n_p = self.out.monitor.spec.pfc_switches.len();
        let n_fl = self.out.monitor.spec.fault_links.len();
        let mut s = Sample {
            t: now,
            queue_bytes: Vec::with_capacity(n_q),
            flow_rx_bytes: Vec::with_capacity(n_f),
            pfc_pauses: Vec::with_capacity(n_p),
            pfq_per_flow: Vec::new(),
            fault_drops: Vec::with_capacity(n_fl),
        };
        // Sample against the spec without holding a borrow on out.monitor.
        for i in 0..n_q {
            let q = self.out.monitor.spec.queues[i];
            s.queue_bytes.push(self.links[q.index()].queued_bytes());
        }
        for i in 0..n_f {
            let f = self.out.monitor.spec.flows[i];
            let dst = self.flows[f.index()].dst;
            let b = self.nodes[dst.index()]
                .as_host()
                .and_then(|h| h.recv_flow(f))
                .map_or(0, |r| r.expected);
            s.flow_rx_bytes.push(b);
        }
        for i in 0..n_p {
            let n = self.out.monitor.spec.pfc_switches[i];
            s.pfc_pauses.push(
                self.nodes[n.index()]
                    .as_switch()
                    .map_or(0, |sw| sw.pfc_pause_count()),
            );
        }
        if let Some(pl) = self.out.monitor.spec.pfq_link {
            if let Some(pfq) = self.links[pl.index()].pfq.as_ref() {
                s.pfq_per_flow = pfq.per_flow_bytes().collect();
            }
        }
        for i in 0..n_fl {
            let l = self.out.monitor.spec.fault_links[i];
            s.fault_drops
                .push(self.links[l.index()].faults.as_ref().map_or(0, |f| f.drops));
        }
        self.out.monitor.samples.push(s);
        let next = now + self.cfg.monitor_interval;
        if next <= self.cfg.stop_time {
            self.events.schedule(next, Event::MonitorTick);
        }
    }

    // -----------------------------------------------------------------
    // Introspection helpers for scenarios and tests
    // -----------------------------------------------------------------

    /// Total in-order bytes delivered to the receivers this engine owns.
    pub fn total_delivered(&self) -> u64 {
        self.delivered_total
    }

    /// The resolved path of a registered flow (`None` for an unknown id).
    pub fn flow_path(&self, f: FlowId) -> Option<FlowPath> {
        self.paths.get(f.index()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{FixedRateCc, NoCcFactory, ReceiverCc, SenderCc};
    use crate::ecn::EcnConfig;
    use crate::link::LinkOpts;
    use crate::pfc::PfcConfig;
    use crate::switch::SwitchKind;
    use crate::topology::NetBuilder;
    use crate::units::{GBPS, MS, US};

    /// h0 — s — h1, both links 10 Gbps / 1 µs.
    fn line_net() -> Network {
        let mut b = NetBuilder::new(1000);
        let h0 = b.add_host();
        let h1 = b.add_host();
        let s = b.add_switch(SwitchKind::Leaf, 22_000_000, PfcConfig::dc_switch());
        b.connect(h0, s, 10 * GBPS, 1 * US, LinkOpts::default());
        b.connect(h1, s, 10 * GBPS, 1 * US, LinkOpts::default());
        b.build()
    }

    #[test]
    fn single_flow_completes_with_expected_fct() {
        let net = line_net();
        let cfg = SimConfig::default();
        let mut sim = Simulator::new(net, cfg, Box::new(NoCcFactory));
        let size = 100_000u64;
        sim.add_flow(NodeId(0), NodeId(1), size, 0);
        assert!(sim.run_until_flows_complete());
        assert_eq!(sim.out.fcts.len(), 1);
        let fct = sim.out.fcts[0].fct();
        // Ideal: ~size/10Gbps + path latency. 100 packets of 1048 B at
        // 10 Gbps is 83.84 µs; propagation+ser overheads add a few µs.
        let ideal = tx_time(100 * 1048, 10 * GBPS);
        assert!(fct >= ideal, "fct {fct} < ideal {ideal}");
        assert!(fct < ideal + 20 * US, "fct {fct} ≫ ideal {ideal}");
        assert_eq!(sim.out.total_dropped(), 0);
        assert_eq!(sim.out.retransmits, 0);
    }

    #[test]
    fn liveness_rule_boundaries() {
        // (last progress, delivered, completed, give-ups, PFC pauses)
        let p = |at, delivered_bytes, completed, giveups, pfc_pauses| Progress {
            last_progress_at: at * US,
            delivered_bytes,
            completed,
            giveups,
            pfc_pauses,
        };
        let (a, b) = (p(10, 5_000, 1, 1, 3), p(4, 1_000, 1, 0, 2));
        let merged = a.merge(b);
        assert_eq!(merged, p(10, 6_000, 2, 1, 5));
        assert_eq!(b.merge(a), merged, "merge is order-free");
        let (flows, window, deadline) = (4, 2 * US, 12 * US);
        // An event exactly at the deadline still runs: the window ends
        // just past it.
        let until = merged.verdict(flows, window, deadline);
        assert_eq!(until, Liveness::Until(deadline + 1));
        // One tick later the run is stalled, at exactly the deadline.
        let Liveness::Stalled(r) = merged.verdict(flows, window, deadline + 1) else {
            panic!("past the deadline with a flow outstanding must stall");
        };
        assert_eq!((r.stalled_at, r.last_progress_at), (deadline, 10 * US));
        assert_eq!((r.window, r.unfinished_flows), (window, 1));
        assert_eq!((r.delivered_bytes, r.pfc_pauses), (6_000, 5));
        // Nothing outstanding, or the watchdog off: no deadline applies.
        assert_eq!(merged.verdict(3, window, deadline + 1), Liveness::Unbounded);
        assert_eq!(merged.verdict(flows, 0, deadline + 1), Liveness::Unbounded);
    }

    #[test]
    fn self_flow_is_rejected_loudly() {
        // A src == dst flow has no path; it must die at add_flow with a
        // message naming the host, not as an index panic deep in
        // route resolution (found by fuzz_sim seed 9).
        let net = line_net();
        let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.add_flow(NodeId(0), NodeId(0), 1000, 0);
        }))
        .expect_err("src == dst must be rejected");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("source and destination"), "got: {msg}");
    }

    #[test]
    fn zero_byte_flow_is_rejected() {
        // A zero-byte flow would "complete" without ever sending and
        // wedge completion accounting (found by fuzz_sim size shrink).
        let mut sim = Simulator::new(line_net(), SimConfig::default(), Box::new(NoCcFactory));
        assert_eq!(
            sim.try_add_flow(NodeId(0), NodeId(1), 0, 0),
            Err(ConfigError::EmptyFlow {
                src: NodeId(0),
                dst: NodeId(1)
            })
        );
        assert!(sim.flows.is_empty(), "rejected flow must not register");
    }

    #[test]
    fn switch_flow_endpoint_is_rejected() {
        // NodeId(2) is the switch in line_net: it can neither source nor
        // sink a flow, and pre-validation used to index into host state.
        let mut sim = Simulator::new(line_net(), SimConfig::default(), Box::new(NoCcFactory));
        assert_eq!(
            sim.try_add_flow(NodeId(0), NodeId(2), 1000, 0),
            Err(ConfigError::NonHostFlowEndpoint { node: NodeId(2) })
        );
        assert_eq!(
            sim.try_add_flow(NodeId(2), NodeId(1), 1000, 0),
            Err(ConfigError::NonHostFlowEndpoint { node: NodeId(2) })
        );
    }

    #[test]
    fn out_of_range_flow_endpoint_is_rejected() {
        let mut sim = Simulator::new(line_net(), SimConfig::default(), Box::new(NoCcFactory));
        assert_eq!(
            sim.try_add_flow(NodeId(0), NodeId(99), 1000, 0),
            Err(ConfigError::NonHostFlowEndpoint { node: NodeId(99) })
        );
    }

    #[test]
    fn byte_conservation_across_flows() {
        let net = line_net();
        let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
        let sizes = [5_000u64, 42_000, 99_999];
        for (i, &s) in sizes.iter().enumerate() {
            sim.add_flow(NodeId(0), NodeId(1), s, (i as u64) * 10 * US);
        }
        assert!(sim.run_until_flows_complete());
        assert_eq!(sim.total_delivered(), sizes.iter().sum::<u64>());
    }

    #[test]
    fn two_senders_one_receiver_share_bottleneck() {
        // h0 and h2 both send to h1 at line rate: the s→h1 link is the
        // bottleneck; PFC keeps everything lossless, so both flows
        // complete and deliver all bytes.
        let mut b = NetBuilder::new(1000);
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let s = b.add_switch(SwitchKind::Leaf, 22_000_000, PfcConfig::dc_switch());
        for h in [h0, h1, h2] {
            b.connect(h, s, 10 * GBPS, 1 * US, LinkOpts::default());
        }
        let net = b.build();
        let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
        sim.add_flow(h0, h1, 500_000, 0);
        sim.add_flow(h2, h1, 500_000, 0);
        assert!(sim.run_until_flows_complete());
        assert_eq!(sim.out.buffer_drops, 0, "lossless fabric");
        // Two 10G senders into one 10G sink: finishing takes at least
        // 2 × 500 KB at 10 Gbps.
        let min_time = tx_time(2 * 500_000, 10 * GBPS);
        assert!(sim.out.finished_at >= min_time);
    }

    #[test]
    fn pfc_triggers_under_incast() {
        // Small switch buffer forces PFC pauses under 2:1 incast.
        let mut b = NetBuilder::new(1000);
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let s = b.add_switch(SwitchKind::Leaf, 200_000, PfcConfig::dc_switch());
        // 200 KB shared buffer; marking off so only PFC acts.
        for h in [h0, h1, h2] {
            b.connect(h, s, 10 * GBPS, 1 * US, LinkOpts::default());
        }
        let net = b.build();
        let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
        sim.add_flow(h0, h1, 2_000_000, 0);
        sim.add_flow(h2, h1, 2_000_000, 0);
        assert!(sim.run_until_flows_complete());
        assert!(!sim.out.pfc_events.is_empty(), "incast must trigger PFC");
        assert_eq!(sim.out.buffer_drops, 0, "PFC prevents loss");
        assert!(!sim.out.pfc_events.is_empty());
    }

    #[test]
    fn drops_without_pfc_then_rto_recovers() {
        let mut b = NetBuilder::new(1000);
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let s = b.add_switch(SwitchKind::Leaf, 100_000, PfcConfig::disabled());
        for h in [h0, h1, h2] {
            b.connect(h, s, 10 * GBPS, 1 * US, LinkOpts::default());
        }
        let net = b.build();
        let cfg = SimConfig {
            stop_time: 200 * MS,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(net, cfg, Box::new(NoCcFactory));
        sim.add_flow(h0, h1, 1_000_000, 0);
        sim.add_flow(h2, h1, 1_000_000, 0);
        let done = sim.run_until_flows_complete();
        assert!(sim.out.buffer_drops > 0, "no PFC → overflow drops");
        assert!(done, "go-back-N still completes the flows");
        assert!(sim.out.retransmits > 0);
    }

    #[test]
    fn ecn_marks_build_up_under_congestion() {
        // Receiver counts marked packets via a probe ReceiverCc.
        use std::cell::Cell;
        use std::rc::Rc;

        struct CountingReceiver(Rc<Cell<u64>>);
        impl ReceiverCc for CountingReceiver {
            fn on_data(&mut self, pkt: &Packet, _now: Time) -> crate::cc::AckFields {
                if pkt.ecn {
                    self.0.set(self.0.get() + 1);
                }
                crate::cc::AckFields::default()
            }
        }
        struct ProbeFactory(Rc<Cell<u64>>);
        impl CcFactory for ProbeFactory {
            fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
                Box::new(FixedRateCc::new(env.path.line_rate_bps as f64))
            }
            fn receiver(&self, _env: &CcEnv) -> Box<dyn ReceiverCc> {
                Box::new(CountingReceiver(self.0.clone()))
            }
            fn name(&self) -> &'static str {
                "probe"
            }
        }

        let mut b = NetBuilder::new(1000);
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let s = b.add_switch(SwitchKind::Leaf, 22_000_000, PfcConfig::dc_switch());
        let custom = EcnConfig {
            kmin_bytes: 20_000,
            kmax_bytes: 80_000,
            pmax: 0.2,
            enabled: true,
        };
        for h in [h0, h1, h2] {
            b.connect(
                h,
                s,
                10 * GBPS,
                1 * US,
                LinkOpts {
                    ecn: Some(custom),
                    ..LinkOpts::default()
                },
            );
        }
        let net = b.build();
        let marks = Rc::new(Cell::new(0));
        let mut sim = Simulator::new(
            net,
            SimConfig::default(),
            Box::new(ProbeFactory(marks.clone())),
        );
        sim.add_flow(h0, h1, 2_000_000, 0);
        sim.add_flow(h2, h1, 2_000_000, 0);
        assert!(sim.run_until_flows_complete());
        assert!(marks.get() > 0, "standing queue must produce CE marks");
    }

    #[test]
    fn monitor_collects_samples() {
        let net = line_net();
        let cfg = SimConfig {
            monitor_interval: 10 * US,
            stop_time: 1 * MS,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(net, cfg, Box::new(NoCcFactory));
        let uplink = sim.nodes[0].as_host().unwrap().uplink;
        sim.set_monitor(crate::monitor::MonitorSpec {
            queues: vec![uplink],
            flows: vec![FlowId(0)],
            pfc_switches: vec![NodeId(2)],
            ..crate::monitor::MonitorSpec::default()
        });
        sim.add_flow(NodeId(0), NodeId(1), 100_000, 0);
        sim.run();
        assert!(sim.out.monitor.samples.len() >= 50);
        // Flow progress is monotone in the samples.
        let rx: Vec<u64> = sim
            .out
            .monitor
            .samples
            .iter()
            .map(|s| s.flow_rx_bytes[0])
            .collect();
        assert!(rx.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*rx.last().unwrap(), 100_000);
    }

    #[test]
    fn path_resolution_intra_dc() {
        let net = line_net();
        let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
        let f = sim.add_flow(NodeId(0), NodeId(1), 1000, 0);
        sim.run_until_flows_complete();
        let p = sim.flow_path(f).unwrap();
        assert!(!p.cross_dc);
        assert_eq!(p.hops, 2);
        assert_eq!(p.line_rate_bps, 10 * GBPS);
        assert_eq!(p.bottleneck_bps, 10 * GBPS);
        assert_eq!(p.base_rtt, p.src_dc_rtt);
        // Base RTT: 2 links of 1 µs each way + serialization.
        assert!(
            p.base_rtt > 4 * US && p.base_rtt < 10 * US,
            "{}",
            p.base_rtt
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let net = line_net();
            let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
            sim.add_flow(NodeId(0), NodeId(1), 250_000, 0);
            sim.run_until_flows_complete();
            (sim.out.fcts[0].fct(), sim.out.events_processed)
        };
        assert_eq!(run(), run());
    }

    // -----------------------------------------------------------------
    // Fault injection
    // -----------------------------------------------------------------

    use crate::fault::{FaultProfile, GilbertElliott};
    use crate::units::SEC;

    /// In `line_net`, the data path h0→h1 crosses LinkId(0) (h0→s) and
    /// LinkId(3) (s→h1); ACKs return over LinkId(2) and LinkId(1).
    const DATA_LAST_HOP: LinkId = LinkId(3);

    #[test]
    fn inert_profile_is_never_attached() {
        let run = |inject: bool| {
            let net = line_net();
            let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
            if inject {
                sim.inject_link_faults(DATA_LAST_HOP, FaultProfile::default());
                assert!(
                    sim.links[DATA_LAST_HOP.index()].faults.is_none(),
                    "inert profile must not allocate fault state"
                );
            }
            sim.add_flow(NodeId(0), NodeId(1), 250_000, 0);
            sim.run_until_flows_complete();
            (sim.out.fcts[0].fct(), sim.out.events_processed)
        };
        assert_eq!(run(true), run(false), "default profile is a no-op");
    }

    #[test]
    fn uniform_loss_forces_retransmission_but_flow_completes() {
        let net = line_net();
        let cfg = SimConfig {
            stop_time: 2 * SEC,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(net, cfg, Box::new(NoCcFactory));
        sim.enable_trace(1 << 16);
        sim.inject_link_faults(DATA_LAST_HOP, FaultProfile::uniform_loss(0.02));
        sim.add_flow(NodeId(0), NodeId(1), 500_000, 0);
        assert!(
            sim.run_until_flows_complete(),
            "2% WAN loss must not strand the flow"
        );
        assert!(sim.out.fault_drops > 0, "losses must actually occur");
        assert_eq!(sim.out.buffer_drops, 0, "no congestion loss here");
        assert!(sim.out.retransmits > 0, "recovery is via go-back-N");
        assert_eq!(sim.total_delivered(), 500_000);
        // Every fault drop leaves a PacketLost trace record.
        let lost = sim
            .trace
            .as_ref()
            .unwrap()
            .count(|e| matches!(e, TraceEvent::PacketLost { .. }));
        assert_eq!(lost as u64, sim.out.fault_drops);
    }

    #[test]
    fn link_flap_delays_but_never_strands() {
        let clean_fct = {
            let net = line_net();
            let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
            sim.add_flow(NodeId(0), NodeId(1), 500_000, 0);
            assert!(sim.run_until_flows_complete());
            sim.out.fcts[0].fct()
        };
        let net = line_net();
        let cfg = SimConfig {
            stop_time: 2 * SEC,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(net, cfg, Box::new(NoCcFactory));
        sim.enable_trace(1 << 16);
        let down_at = 100 * US;
        let up_at = 3 * MS;
        sim.inject_link_faults(DATA_LAST_HOP, FaultProfile::flap(down_at, up_at));
        sim.add_flow(NodeId(0), NodeId(1), 500_000, 0);
        assert!(
            sim.run_until_flows_complete(),
            "a mid-transfer flap delays the flow but must not strand it"
        );
        assert_eq!(sim.out.link_flaps, 1);
        assert!(sim.out.fault_drops > 0, "packets sent while dark are lost");
        let fct = sim.out.fcts[0].fct();
        assert!(
            fct > up_at && fct > clean_fct,
            "fct {fct} vs clean {clean_fct}"
        );
        let tr = sim.trace.as_ref().unwrap();
        assert_eq!(tr.count(|e| matches!(e, TraceEvent::LinkDown { .. })), 1);
        assert_eq!(tr.count(|e| matches!(e, TraceEvent::LinkUp { .. })), 1);
    }

    #[test]
    fn faulted_runs_are_bitwise_deterministic() {
        let run = || {
            let net = line_net();
            let cfg = SimConfig {
                seed: 7,
                stop_time: 2 * SEC,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(net, cfg, Box::new(NoCcFactory));
            sim.inject_link_faults(
                DATA_LAST_HOP,
                FaultProfile::uniform_loss(0.01)
                    .with_jitter(5 * US)
                    .with_gilbert(GilbertElliott::bursty(0.02, 0.3, 0.5)),
            );
            // Independent loss on the reverse (ACK) direction too.
            sim.inject_link_faults(LinkId(2), FaultProfile::uniform_loss(0.005));
            sim.add_flow(NodeId(0), NodeId(1), 500_000, 0);
            assert!(sim.run_until_flows_complete());
            (
                sim.out.fcts[0].fct(),
                sim.out.events_processed,
                sim.out.fault_drops,
                sim.out.fault_jittered,
                sim.out.retransmits,
            )
        };
        let a = run();
        assert_eq!(a, run(), "same seed → bit-identical faulted run");
        assert!(a.2 > 0 && a.3 > 0, "faults and jitter both exercised");
    }

    #[test]
    fn faults_on_untraversed_link_do_not_perturb_the_run() {
        // In line_net all four links carry either the flow's data or its
        // ACKs, so attach a third (idle) host and fault *its* links: a
        // heavy loss+jitter profile there must not move the flow by one
        // picosecond (per-link RNG substreams are fully isolated).
        let run = |faults: bool| {
            let mut b = NetBuilder::new(1000);
            let h0 = b.add_host();
            let h1 = b.add_host();
            let h2 = b.add_host();
            let s = b.add_switch(SwitchKind::Leaf, 22_000_000, PfcConfig::dc_switch());
            b.connect(h0, s, 10 * GBPS, 1 * US, LinkOpts::default());
            b.connect(h1, s, 10 * GBPS, 1 * US, LinkOpts::default());
            let (idle_up, idle_down) = b.connect(h2, s, 10 * GBPS, 1 * US, LinkOpts::default());
            let mut sim = Simulator::new(b.build(), SimConfig::default(), Box::new(NoCcFactory));
            if faults {
                for l in [idle_up, idle_down] {
                    sim.inject_link_faults(l, FaultProfile::uniform_loss(0.5).with_jitter(50 * US));
                }
            }
            sim.add_flow(h0, h1, 250_000, 0);
            sim.run_until_flows_complete();
            (sim.out.fcts[0].fct(), sim.out.events_processed)
        };
        assert_eq!(run(true), run(false));
    }
}
