//! Synchronized collective workloads on multipath fabrics.
//!
//! Executes a [`workload::CollectiveSchedule`] in lockstep on a fat-tree
//! (or any topology whose hosts serve as ranks): every step's transfers
//! are registered together at the current simulation time and the next
//! step starts only when the slowest one completes — the barrier
//! semantics of an ML training iteration. The figure metric is the
//! per-step completion time (the tail transfer gates the whole job), so
//! a congestion controller that shaves p99 FCT directly shortens the
//! training step.
//!
//! Rank placement over hosts is a deterministic Fisher–Yates shuffle on
//! an RNG substream, so two runs of the same seed map ranks to the same
//! hosts while different seeds exercise different path sets.

use netsim::prelude::*;
use workload::{CollectiveOp, CollectiveSchedule};

use crate::algo::Algo;

/// One collective job: algorithm, fabric, payload, iteration count.
#[derive(Clone, Debug)]
pub struct CollectiveConfig {
    pub op: CollectiveOp,
    pub algo: Algo,
    pub fat_tree: FatTreeParams,
    /// Per-rank payload D, bytes.
    pub bytes_per_rank: u64,
    /// Repeated allreduce/all-to-all iterations (training steps).
    pub iterations: usize,
    pub seed: u64,
    pub stop_time: Time,
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        CollectiveConfig {
            op: CollectiveOp::RingAllreduce,
            algo: Algo::Mlcc,
            fat_tree: FatTreeParams::default(),
            bytes_per_rank: 4_000_000,
            iterations: 1,
            seed: 1,
            stop_time: 10 * SEC,
        }
    }
}

/// What a lockstep collective run produces.
#[derive(Clone, Debug)]
pub struct CollectiveResult {
    pub op: CollectiveOp,
    pub algo: Algo,
    pub ranks: usize,
    /// Wall-clock duration of every synchronized step, in schedule
    /// order across iterations.
    pub step_durations: Vec<Time>,
    /// Time from first transfer start to last completion.
    pub total_time: Time,
    /// Flows that never reached a terminal FCT — must be 0.
    pub hung_flows: usize,
    pub completed_flows: usize,
    /// Effective allreduce bus bandwidth per rank, bits/s:
    /// `2(N−1)/N · D · 8 / total_time` for allreduce ops, plain
    /// aggregate goodput for all-to-all.
    pub bus_bw_bps: f64,
}

impl CollectiveResult {
    pub fn max_step(&self) -> Time {
        self.step_durations.iter().copied().max().unwrap_or(0)
    }
}

/// Deterministic rank → host placement: Fisher–Yates over the host
/// list on substream (`seed`, 1).
pub fn place_ranks(hosts: &[NodeId], seed: u64) -> Vec<NodeId> {
    let mut rng = Xoshiro256StarStar::substream(seed, 1);
    let mut ranks = hosts.to_vec();
    for i in (1..ranks.len()).rev() {
        let j = rng.gen_index(i + 1);
        ranks.swap(i, j);
    }
    ranks
}

/// Run one collective job to completion, step barriers included.
pub fn run(cfg: &CollectiveConfig) -> CollectiveResult {
    let topo = FatTreeTopology::build(cfg.fat_tree);
    let ranks = place_ranks(&topo.hosts, cfg.seed);
    let sched = CollectiveSchedule::new(cfg.op, ranks.len(), cfg.bytes_per_rank);

    let sim_cfg = SimConfig {
        stop_time: cfg.stop_time,
        dci: cfg.algo.dci_features(),
        seed: cfg.seed,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net, sim_cfg, cfg.algo.factory());

    let mut step_durations = Vec::with_capacity(cfg.iterations * sched.steps.len());
    let start = US;
    let mut barrier = start;
    for _iter in 0..cfg.iterations {
        for step in &sched.steps {
            for &(s, d, bytes) in step {
                sim.add_flow(ranks[s], ranks[d], bytes, barrier);
            }
            // Lockstep barrier: drain this step entirely before the
            // next one is registered. A hung transfer stalls here until
            // stop_time, exactly like a real training step would.
            sim.run_until_flows_complete();
            step_durations.push(sim.now.saturating_sub(barrier));
            barrier = sim.now.max(barrier + 1);
        }
    }

    let completed = sim.out.fcts.len();
    let total_flows = sim.flows.len();
    let total_time = sim.now.saturating_sub(start).max(1);
    let n = ranks.len() as f64;
    let moved_bits = match cfg.op {
        CollectiveOp::RingAllreduce | CollectiveOp::TreeAllreduce => {
            // Standard "bus bandwidth" normalization: an allreduce of D
            // bytes is algorithmically 2(N−1)/N · D per rank.
            2.0 * (n - 1.0) / n * cfg.bytes_per_rank as f64 * 8.0 * cfg.iterations as f64
        }
        CollectiveOp::AllToAll => {
            (n - 1.0) / n * cfg.bytes_per_rank as f64 * 8.0 * cfg.iterations as f64
        }
    };

    CollectiveResult {
        op: cfg.op,
        algo: cfg.algo,
        ranks: ranks.len(),
        step_durations,
        total_time,
        hung_flows: total_flows - completed,
        completed_flows: completed,
        bus_bw_bps: moved_bits / to_secs(total_time),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_a_permutation() {
        let hosts: Vec<NodeId> = (0..16).map(NodeId).collect();
        let a = place_ranks(&hosts, 7);
        let b = place_ranks(&hosts, 7);
        assert_eq!(a, b);
        let c = place_ranks(&hosts, 8);
        assert_ne!(a, c, "different seeds place differently");
        let mut sorted = a.clone();
        sorted.sort_by_key(|n| n.0);
        assert_eq!(sorted, hosts);
    }

    #[test]
    fn small_ring_allreduce_completes_in_lockstep() {
        let cfg = CollectiveConfig {
            bytes_per_rank: 64_000,
            fat_tree: FatTreeParams {
                hosts_per_edge: 1,
                ..FatTreeParams::default()
            },
            ..CollectiveConfig::default()
        };
        let r = run(&cfg);
        assert_eq!(r.ranks, 8);
        assert_eq!(r.hung_flows, 0);
        assert_eq!(r.completed_flows, 14 * 8); // 2(N−1) steps × N transfers
        assert_eq!(r.step_durations.len(), 14);
        assert!(r.step_durations.iter().all(|&d| d > 0));
        assert!(r.bus_bw_bps > 0.0);
    }
}
