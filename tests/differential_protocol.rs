//! Differential suite: the roster-indexed bitmap FDS implementation
//! against the frozen set-based reference (`cbfd::core::reference`).
//!
//! Every case draws a random workload — geometry, channel loss,
//! crashes, sleep windows, unmarked-node joins — and runs it through
//! both implementations with the same seed. The two actors schedule
//! the same timers and broadcast at the same instants, so the
//! simulator consumes its RNG stream identically: traces must be
//! byte-identical, and so must metrics, verdicts (detections and
//! failure views), acting heads, and behaviour counters (`ledger_ops`
//! included). The only permitted difference is `bytes_sent`: each
//! implementation prices its own wire layout, and the bitmap one is
//! smaller.
//!
//! One residual hazard is deliberately avoided, not asserted away: an
//! unmarked node that gets admitted into *two* clusters (both heads
//! heard its subscription heartbeat) can be saved by a cross-cluster
//! digest reflection in the set-based implementation, while the
//! bitmap node drops heard-bits of foreign-cluster digests (see
//! DESIGN.md §12). Workloads therefore place each unmarked straggler
//! where it reaches members of at most one cluster — the physically
//! sensible setup for stragglers joining distinct clusters — so every
//! admission is unambiguous.

use std::collections::BTreeMap;

use cbfd::cluster::{oracle, ClusterView, FormationConfig};
use cbfd::core::node::{DetectionEvent, FdsNode, NodeStats};
use cbfd::core::profile::{build_profiles, NodeProfile};
use cbfd::core::reference::RefFdsNode;
use cbfd::core::view::FailureView;
use cbfd::net::actor::Actor;
use cbfd::net::energy::EnergyModel;
use cbfd::net::metrics::SimMetrics;
use cbfd::net::sim::Simulator;
use cbfd::net::trace::TraceRecord;
use cbfd::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Everything of a node's final state that must agree between the two
/// implementations (only the `bytes_sent` ledger is layout-dependent
/// and zeroed out).
#[derive(Debug, Clone, PartialEq)]
struct NodeSummary {
    epoch: u64,
    acting_head: Option<NodeId>,
    known_failed: FailureView,
    detections: Vec<DetectionEvent>,
    stats: NodeStats,
}

/// The common read-out surface of the two protocol actors.
trait ProtocolNode: Actor + Sized {
    fn build(profile: NodeProfile, fds: FdsConfig, capacity: f64) -> Self;
    fn set_sleep(&mut self, plan: Vec<(u64, u64)>);
    fn summary(&self) -> NodeSummary;
}

fn normalized(stats: &NodeStats) -> NodeStats {
    let mut s = *stats;
    s.bytes_sent = 0; // layout-dependent; everything else must agree
    s
}

impl ProtocolNode for FdsNode {
    fn build(profile: NodeProfile, fds: FdsConfig, capacity: f64) -> Self {
        FdsNode::new(profile, fds, capacity)
    }
    fn set_sleep(&mut self, plan: Vec<(u64, u64)>) {
        self.set_sleep_plan(plan);
    }
    fn summary(&self) -> NodeSummary {
        NodeSummary {
            epoch: self.epoch(),
            acting_head: self.acting_head(),
            known_failed: self.known_failed().clone(),
            detections: self.detections().to_vec(),
            stats: normalized(self.stats()),
        }
    }
}

impl ProtocolNode for RefFdsNode {
    fn build(profile: NodeProfile, fds: FdsConfig, capacity: f64) -> Self {
        RefFdsNode::new(profile, fds, capacity)
    }
    fn set_sleep(&mut self, plan: Vec<(u64, u64)>) {
        self.set_sleep_plan(plan);
    }
    fn summary(&self) -> NodeSummary {
        NodeSummary {
            epoch: self.epoch(),
            acting_head: self.acting_head(),
            known_failed: self.known_failed().clone(),
            detections: self.detections().to_vec(),
            stats: normalized(self.stats()),
        }
    }
}

/// One randomized workload, generated once and run through both
/// implementations.
#[derive(Debug, Clone)]
struct Workload {
    topology: Topology,
    profiles: Vec<NodeProfile>,
    fds: FdsConfig,
    p: f64,
    epochs: u64,
    crashes: Vec<(NodeId, u64)>,
    sleeps: Vec<(NodeId, Vec<(u64, u64)>)>,
    seed: u64,
}

fn run_workload<A: ProtocolNode>(w: &Workload) -> (Vec<TraceRecord>, SimMetrics, Vec<NodeSummary>) {
    let phi = w.fds.heartbeat_interval;
    let capacity = EnergyModel::default().initial;
    let profiles = &w.profiles;
    let sleeps = &w.sleeps;
    let fds = w.fds;
    let mut sim = Simulator::new(
        w.topology.clone(),
        RadioConfig::bernoulli(w.p),
        w.seed,
        |id| {
            let mut node = A::build(profiles[id.index()].clone(), fds, capacity);
            if let Some((_, plan)) = sleeps.iter().find(|(s, _)| *s == id) {
                node.set_sleep(plan.clone());
            }
            node
        },
    );
    sim.set_energy_model(EnergyModel::default());
    sim.enable_trace();
    for &(node, epoch) in &w.crashes {
        // Mid-interval, exactly as `Experiment::run` schedules them.
        let at = SimTime::ZERO + phi * epoch + SimDuration::from_micros(phi.as_micros() / 2);
        sim.schedule_crash(node, at);
    }
    sim.run_until(SimTime::ZERO + phi * w.epochs - SimDuration::from_micros(1));
    let trace = sim.trace().records().to_vec();
    let metrics = sim.metrics().clone();
    let summaries = w
        .topology
        .node_ids()
        .map(|id| sim.actor(id).summary())
        .collect();
    (trace, metrics, summaries)
}

fn random_positions(rng: &mut StdRng, n: usize, side: f64) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side)))
        .collect()
}

/// A fully-marked workload: random geometry, loss, crashes, and (on
/// odd cases) aggregation plus a couple of announced sleep windows.
fn marked_workload(case: u64, rng: &mut StdRng, storm: bool) -> Workload {
    let n = rng.random_range(8usize..40);
    let side = rng.random_range(250.0..500.0);
    let positions = random_positions(rng, n, side);
    let topology = Topology::from_positions(positions, 100.0);
    let view = oracle::form(&topology, &FormationConfig::default());
    let profiles = build_profiles(&view);

    let fds = FdsConfig {
        aggregation: case % 2 == 1,
        ..Default::default()
    };
    let epochs = rng.random_range(4u64..8);
    let p = if storm {
        rng.random_range(0.3..0.55)
    } else {
        rng.random_range(0.0..0.25)
    };

    let crash_count = rng.random_range(0usize..3);
    let crashes = (0..crash_count)
        .map(|_| {
            (
                NodeId(rng.random_range(0u32..n as u32)),
                rng.random_range(1u64..epochs - 1),
            )
        })
        .collect();

    let mut sleeps = Vec::new();
    if !storm && case % 3 == 2 {
        let sleeper = NodeId(rng.random_range(0u32..n as u32));
        let from = rng.random_range(1u64..epochs - 1);
        sleeps.push((sleeper, vec![(from, from + 1)]));
    }

    Workload {
        topology,
        profiles,
        fds,
        p,
        epochs,
        crashes,
        sleeps,
        seed: 0xD1FF_0000 + case,
    }
}

/// A membership-churn workload: clusters formed over the marked nodes
/// only, plus unmarked stragglers whose heartbeats act as join
/// subscriptions, under light loss (p ≤ 0.15) and optional crashes.
/// Each straggler is placed where it reaches members of at most one
/// cluster, and pairwise out of range of other stragglers, so no node
/// can be admitted twice (see the module docs).
fn join_workload(case: u64, rng: &mut StdRng) -> Workload {
    let marked = rng.random_range(8usize..30);
    let side = rng.random_range(300.0..450.0);
    let mut positions = random_positions(rng, marked, side);
    let marked_topology = Topology::from_positions(positions.clone(), 100.0);
    let marked_view = oracle::form(&marked_topology, &FormationConfig::default());

    let unmarked = rng.random_range(1usize..4);
    let mut placed: Vec<Point> = Vec::new();
    let mut attempts = 0;
    while placed.len() < unmarked && attempts < 500 {
        attempts += 1;
        let candidate = Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side));
        let pairwise_ok = placed
            .iter()
            .all(|p| (p.x - candidate.x).hypot(p.y - candidate.y) > 110.0);
        // Clusters whose members could hear the straggler (with a
        // margin over the 100.0 radio range).
        let reachable: std::collections::BTreeSet<ClusterId> = (0..marked)
            .filter(|i| {
                let p = positions[*i];
                (p.x - candidate.x).hypot(p.y - candidate.y) <= 110.0
            })
            .filter_map(|i| marked_view.cluster_of(NodeId(i as u32)))
            .collect();
        if pairwise_ok && reachable.len() <= 1 {
            placed.push(candidate);
        }
    }
    positions.extend(placed.iter().copied());
    let unmarked = placed.len();
    let topology = Topology::from_positions(positions, 100.0);

    let clusters: BTreeMap<_, _> = marked_view
        .clusters()
        .map(|c| (c.id(), c.clone()))
        .collect();
    let mut affiliation: Vec<Option<ClusterId>> = (0..marked)
        .map(|i| marked_view.cluster_of(NodeId(i as u32)))
        .collect();
    affiliation.extend(std::iter::repeat_n(None, unmarked));
    let view = ClusterView::from_parts(clusters, affiliation, BTreeMap::new());
    let profiles = build_profiles(&view);

    let fds = FdsConfig {
        aggregation: case.is_multiple_of(2),
        ..Default::default()
    };
    let epochs = rng.random_range(4u64..8);
    let p = rng.random_range(0.0..0.15);
    let crash_count = rng.random_range(0usize..2);
    let crashes = (0..crash_count)
        .map(|_| {
            (
                NodeId(rng.random_range(0u32..marked as u32)),
                rng.random_range(1u64..epochs - 1),
            )
        })
        .collect();

    Workload {
        topology,
        profiles,
        fds,
        p,
        epochs,
        crashes,
        sleeps: Vec::new(),
        seed: 0x101D_0000 + case,
    }
}

#[test]
fn bitmap_and_set_based_implementations_agree_on_randomized_workloads() {
    const CASES: u64 = 129;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD1FF_C0DE ^ (case * 0x9E37_79B9));
        let workload = match case % 3 {
            0 => marked_workload(case, &mut rng, false),
            1 => marked_workload(case, &mut rng, true), // lossy storm
            _ => join_workload(case, &mut rng),
        };

        let (new_trace, new_metrics, new_nodes) = run_workload::<FdsNode>(&workload);
        let (ref_trace, ref_metrics, ref_nodes) = run_workload::<RefFdsNode>(&workload);

        assert_eq!(
            new_trace.len(),
            ref_trace.len(),
            "case {case}: trace lengths diverge"
        );
        for (i, (a, b)) in new_trace.iter().zip(&ref_trace).enumerate() {
            assert_eq!(a, b, "case {case}: trace record {i} diverges");
        }
        assert_eq!(new_metrics, ref_metrics, "case {case}: metrics diverge");
        for (i, (a, b)) in new_nodes.iter().zip(&ref_nodes).enumerate() {
            assert_eq!(a, b, "case {case}: node {i} final state diverges");
        }
    }
}
