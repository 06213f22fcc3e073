//! The four workloads and the public-API path that builds their worlds.
//!
//! Everything here goes through functions ROADMAP items 1–2 keep
//! (`Placement::generate`, `Topology::from_positions`, `oracle::form`,
//! `Experiment::{new, with_view, run, build_tiled_sim}`,
//! `TiledSim::{set_workers, schedule_crash, run_until}`); nothing
//! touches the legacy `Simulator`, `build_sim` or the frozen twins.

use cbfd_cluster::{oracle, ClusterView, FormationConfig};
use cbfd_core::config::FdsConfig;
use cbfd_core::node::FdsNode;
use cbfd_core::service::Experiment;
use cbfd_net::actor::Actor;
use cbfd_net::geometry::Rect;
use cbfd_net::id::NodeId;
use cbfd_net::placement::Placement;
use cbfd_net::radio::RadioConfig;
use cbfd_net::tiled::{suggested_grid, TiledSim};
use cbfd_net::time::{SimDuration, SimTime};
use cbfd_net::topology::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Radio range of every field, metres.
pub const RANGE: f64 = 100.0;
/// Mean unit-disk degree the tiled fields are sized for.
pub const TARGET_DEGREE: f64 = 35.0;
/// Nodes per tile `suggested_grid` aims at.
pub const NODES_PER_TILE: usize = 1_000;

/// How a workload drives the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One large world on `TiledSim`, stepped one epoch at a time;
    /// epoch 0 is the warm-up step.
    Tiled,
    /// Many independent small worlds, each one whole
    /// `Experiment::new` + `Experiment::run` — what `figures`, the
    /// chaos campaigns and tier-1 run.
    ManyWorlds,
}

/// The part of a workload's size that differs between the measured
/// run and the traced run (three passes must fit where one did).
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Simulated epochs per world (tiled: including warm-up epoch 0).
    pub epochs: u64,
    /// Crashes injected per world, mid-way through `crash_epoch`.
    pub crashes: usize,
    /// Independent worlds per pass, each with its own seeds.
    pub worlds: u64,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in BENCHMARK.json).
    pub why: &'static str,
    /// Driving style.
    pub engine: Engine,
    /// Nodes per world.
    pub n: usize,
    /// Square side in metres; `None` sizes it for [`TARGET_DEGREE`].
    pub side: Option<f64>,
    /// Bernoulli loss probability.
    pub loss_p: f64,
    /// Epoch whose mid-point the crashes land on.
    pub crash_epoch: u64,
    /// Engine workers asked for (clamped to `available_parallelism`).
    pub workers: usize,
    /// Size of the measured (`--trace 0`) run.
    pub measured: Size,
    /// Size of the traced (`--trace 1`) run.
    pub traced: Size,
}

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "calm",
        why: "N=50k p=0.01 no faults: heartbeat+digest deliveries dominate, so net.tiled does the work and the report path none",
        engine: Engine::Tiled,
        n: 50_000,
        side: None,
        loss_p: 0.01,
        crash_epoch: 0,
        workers: 2,
        measured: Size { epochs: 5, crashes: 0, worlds: 1 },
        traced: Size { epochs: 4, crashes: 0, worlds: 1 },
    },
    Workload {
        name: "crash_wave",
        why: "same field, 32 crashes at mid-epoch 2: one epoch swells 5x; update/report handlers and the core.node ledgers dominate",
        engine: Engine::Tiled,
        n: 50_000,
        side: None,
        loss_p: 0.01,
        crash_epoch: 2,
        workers: 2,
        measured: Size {
            epochs: 9,
            crashes: 32,
            worlds: 1,
        },
        traced: Size { epochs: 5, crashes: 4, worlds: 1 },
    },
    Workload {
        name: "lossy",
        why: "8 fields of N=5k p=0.2, no crashes: peer forwarding, retransmission and false-detection reports carry the load; accuracy rates non-zero",
        engine: Engine::Tiled,
        n: 5_000,
        side: None,
        loss_p: 0.2,
        crash_epoch: 0,
        workers: 1,
        measured: Size { epochs: 10, crashes: 0, worlds: 8 },
        traced: Size { epochs: 20, crashes: 0, worlds: 1 },
    },
    Workload {
        name: "small_many",
        why: "1000 worlds of N=250 p=0.1 via Experiment::new+run, one crash each: construction and evaluation are a visible share; engine-agnostic",
        engine: Engine::ManyWorlds,
        n: 250,
        side: Some(700.0),
        loss_p: 0.1,
        crash_epoch: 2,
        workers: 1,
        measured: Size { epochs: 20, crashes: 1, worlds: 1_000 },
        traced: Size { epochs: 20, crashes: 1, worlds: 300 },
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Side of the square field.
    pub fn side(&self) -> f64 {
        self.side.unwrap_or_else(|| {
            ((self.n - 1) as f64 * std::f64::consts::PI * RANGE * RANGE / TARGET_DEGREE).sqrt()
        })
    }

    /// Workers actually used: the workload's wish clamped to the box.
    pub fn effective_workers(&self) -> usize {
        self.workers.min(available_parallelism())
    }
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// SplitMix64 step: derives the per-world placement and simulation
/// streams of one `--seed`, so neighbouring seeds share nothing.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(placement seed, simulation seed)` of tiled world `k` of `seed`.
pub fn tiled_seeds(seed: u64, k: u64) -> (u64, u64) {
    (derive_seed(seed, 2 * k + 1), derive_seed(seed, 2 * k + 2))
}

/// Seed of world `i` of a many-worlds workload.
pub fn world_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i)
}

/// One set-up stage as seen from outside: name, start, end.
pub type StageSpan = (&'static str, Instant, Instant);

/// Runs `f` as stage `name`, appending its span to `stages`.
fn stage<T>(stages: &mut Vec<StageSpan>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    stages.push((name, start, Instant::now()));
    out
}

/// A formed world before any engine exists.
#[derive(Debug)]
pub struct Field {
    /// Topology, view and profiles behind the public experiment type.
    pub exp: Experiment,
    /// Crash victims, in crash order.
    pub victims: Vec<NodeId>,
    /// The set-up stages of this build, named after their layer.
    pub stages: Vec<StageSpan>,
}

impl Field {
    /// Affiliated non-head nodes: the per-epoch member count behind
    /// `member_epochs`.
    pub fn members(&self) -> u64 {
        self.exp.view().clusters().map(|c| c.len() as u64 - 1).sum()
    }

    /// `victim -> crash epoch`, the ground truth `evaluate_host` takes.
    pub fn crash_epochs(&self, w: &Workload) -> BTreeMap<NodeId, u64> {
        self.victims.iter().map(|v| (*v, w.crash_epoch)).collect()
    }

    /// Host seconds of stage `name` (0 if this build had none).
    pub fn stage_s(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, start, end)| (*end - *start).as_secs_f64())
            .sum()
    }
}

fn place(w: &Workload, placement_seed: u64, stages: &mut Vec<StageSpan>) -> Topology {
    let mut rng = StdRng::seed_from_u64(placement_seed);
    let points = stage(stages, "net.placement", || {
        Placement::UniformRect(Rect::square(w.side())).generate(w.n, &mut rng)
    });
    stage(stages, "net.topology", || {
        Topology::from_positions(points, RANGE)
    })
}

/// Places, links and clusters one world stage by stage and picks its
/// crash victims. `placement_seed` fixes the field; the victims follow
/// from the view.
pub fn build_field(w: &Workload, placement_seed: u64, crashes: usize) -> Field {
    let mut stages = Vec::with_capacity(4);
    let topology = place(w, placement_seed, &mut stages);
    let view = stage(&mut stages, "cluster.oracle", || {
        oracle::form(&topology, &FormationConfig::default())
    });
    let victims = choose_victims(&view, crashes);
    let exp = stage(&mut stages, "core.profile", || {
        Experiment::with_view(topology, view, FdsConfig::default())
    });
    Field {
        exp,
        victims,
        stages,
    }
}

/// [`build_field`] through the one-call public constructor
/// `Experiment::new` (formation and profiles inside it) — the path the
/// many-worlds workload is defined on.
pub fn build_world(w: &Workload, placement_seed: u64, crashes: usize) -> Field {
    let mut stages = Vec::with_capacity(3);
    let topology = place(w, placement_seed, &mut stages);
    let exp = stage(&mut stages, "core.service.new", || {
        Experiment::new(topology, FdsConfig::default(), FormationConfig::default())
    });
    let victims = choose_victims(exp.view(), crashes);
    Field {
        exp,
        victims,
        stages,
    }
}

/// One non-head member out of every ⌊clusters/`count`⌋-th cluster
/// (head-only clusters are skipped forward), all distinct.
///
/// # Panics
///
/// Panics if the view has fewer than `count` non-head members.
pub fn choose_victims(view: &ClusterView, count: usize) -> Vec<NodeId> {
    let clusters: Vec<_> = view.clusters().collect();
    let mut victims: Vec<NodeId> = Vec::with_capacity(count);
    if count == 0 {
        return victims;
    }
    let stride = (clusters.len() / count).max(1);
    for i in 0..count {
        let victim = (0..clusters.len())
            .flat_map(|k| clusters[(i * stride + k) % clusters.len()].non_head_members())
            .find(|m| !victims.contains(m))
            .expect("the view has enough non-head members to crash");
        victims.push(victim);
    }
    victims
}

/// The instant just before epoch `epochs` would begin.
pub fn end_of_epoch(epoch: u64) -> SimTime {
    let phi = FdsConfig::default().heartbeat_interval;
    SimTime::ZERO + phi * (epoch + 1) - SimDuration::from_micros(1)
}

/// Mid-interval crash instant: after the FDS execution of `epoch`.
pub fn crash_instant(epoch: u64) -> SimTime {
    let phi = FdsConfig::default().heartbeat_interval;
    SimTime::ZERO + phi * epoch + SimDuration::from_micros(phi.as_micros() / 2)
}

/// Grid the tiled engine runs `w` on.
pub fn grid_of(w: &Workload) -> (u32, u32) {
    suggested_grid(w.n, NODES_PER_TILE)
}

/// Builds the tiled engine for `field` through the public experiment
/// path and arms it: worker count set, crashes scheduled.
pub fn build_tiled(
    field: &Field,
    w: &Workload,
    sim_seed: u64,
    workers: usize,
) -> TiledSim<FdsNode> {
    let (gx, gy) = grid_of(w);
    let sim = field
        .exp
        .build_tiled_sim(RadioConfig::bernoulli(w.loss_p), sim_seed, gx, gy);
    arm(sim, field, w, workers)
}

/// Sets the worker count and schedules the field's crashes.
pub fn arm<A: Actor>(
    mut sim: TiledSim<A>,
    field: &Field,
    w: &Workload,
    workers: usize,
) -> TiledSim<A> {
    sim.set_workers(workers);
    for victim in &field.victims {
        sim.schedule_crash(*victim, crash_instant(w.crash_epoch));
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbfd_cluster::invariants;

    /// Held-out seed 2: every workload still forms non-empty clusters
    /// that pass F1–F4, and finds its full set of distinct victims.
    #[test]
    fn second_seed_yields_distinct_victims_and_sound_clusters() {
        for w in &WORKLOADS {
            let placement_seed = match w.engine {
                Engine::Tiled => derive_seed(2, 1),
                Engine::ManyWorlds => world_seed(2, 0),
            };
            let field = build_field(w, placement_seed, w.measured.crashes);
            assert!(
                field.exp.view().cluster_count() > 0,
                "{}: no clusters",
                w.name
            );
            assert!(
                invariants::check(field.exp.topology(), field.exp.view()).is_empty(),
                "{}: formation violates F1-F4",
                w.name
            );
            assert_eq!(field.victims.len(), w.measured.crashes, "{}", w.name);
            let mut distinct = field.victims.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(
                distinct.len(),
                w.measured.crashes,
                "{}: repeated victim",
                w.name
            );
            for v in &field.victims {
                let cluster = field
                    .exp
                    .view()
                    .cluster_of(*v)
                    .expect("victims are affiliated");
                assert_ne!(
                    cluster.head(),
                    *v,
                    "{}: victim {v} is a clusterhead",
                    w.name
                );
            }
        }
    }

    #[test]
    fn crash_wave_victims_sit_in_distinct_clusters() {
        let w = by_name("crash_wave").expect("crash_wave exists");
        let field = build_field(w, derive_seed(2, 1), 32);
        let mut clusters: Vec<_> = field
            .victims
            .iter()
            .map(|v| field.exp.view().cluster_of(*v))
            .collect();
        clusters.sort_unstable();
        clusters.dedup();
        assert_eq!(clusters.len(), 32);
    }

    #[test]
    fn seeds_derive_independent_streams() {
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_eq!(world_seed(3, 14), 3_014);
    }

    #[test]
    fn tiled_fields_are_sized_for_the_target_degree() {
        let w = by_name("lossy").expect("lossy exists");
        let field = build_field(w, derive_seed(1, 1), 0);
        let degree = field.exp.topology().mean_degree();
        // Border nodes see less than the interior's 35.
        assert!((28.0..36.0).contains(&degree), "mean degree {degree}");
    }
}
