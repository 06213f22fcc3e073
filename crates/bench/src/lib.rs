//! Shared sweep functions for the CBFD benchmark harness.
//!
//! Every sweep the `figures` binary runs lives here as a library
//! function taking an explicit `workers` count, so that
//!
//! * the binary can run them at full parallelism
//!   ([`cbfd_net::par::default_workers`], overridable via
//!   `CBFD_WORKERS`), and
//! * the regression suite can run the same sweep with `workers` ∈
//!   {1, 2, max} and assert **byte-identical** results (the
//!   determinism contract of [`cbfd_net::par`]).
//!
//! All fan-out goes through [`cbfd_net::par::par_map`]; randomness is
//! derived per work item, never shared, so results depend only on the
//! inputs.

use cbfd_analysis::{dch_reach, false_detection, incompleteness, montecarlo, series};
use cbfd_baselines::{central, flood, gossip, swim, CrashAt};
use cbfd_cluster::FormationConfig;
use cbfd_core::config::FdsConfig;
use cbfd_core::service::{Experiment, PlannedCrash};
use cbfd_net::geometry::{Point, Rect};
use cbfd_net::id::NodeId;
use cbfd_net::par;
use cbfd_net::placement::Placement;
use cbfd_net::time::SimDuration;
use cbfd_net::topology::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Monte Carlo trial budget used by the figures (and pinned by the
/// regression tests).
pub const MC_TRIALS: u64 = 50_000;

/// The `(N, p)` grid every per-figure sweep walks: the paper's three
/// populations crossed with the loss grid, in row-major order.
pub fn mc_grid() -> Vec<(u64, f64)> {
    let mut cells = Vec::new();
    for &n in &series::POPULATIONS {
        for p in series::loss_grid() {
            cells.push((n, p));
        }
    }
    cells
}

/// One cluster exactly as the analysis assumes: head at the centre of
/// a 100 m disk, members uniform inside it.
pub fn analysis_cluster(n: usize, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let center = Point::new(0.0, 0.0);
    let mut positions = vec![center];
    positions.extend(
        Placement::UniformDisk {
            center,
            radius: 100.0,
        }
        .generate(n - 1, &mut rng),
    );
    Topology::from_positions(positions, 100.0)
}

// ---------------------------------------------------------------- fig5

/// One Figure 5 table row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Row {
    /// Cluster population.
    pub n: u64,
    /// Per-link loss probability.
    pub p: f64,
    /// Closed-form worst-case bound.
    pub analytic: f64,
    /// The paper's binomial sum.
    pub paper_sum: f64,
    /// Conditional Monte Carlo estimate.
    pub mc: f64,
}

/// Figure 5 sweep: `P̂(False detection)` over the `(N, p)` grid, the
/// grid cells fanned out over `workers` threads.
pub fn fig5_rows(trials: u64, seed: u64, workers: usize) -> Vec<Fig5Row> {
    let cells = mc_grid();
    par::par_map(workers, &cells, |_, &(n, p)| Fig5Row {
        n,
        p,
        analytic: false_detection::worst_case(n, p),
        paper_sum: false_detection::paper_sum(
            n,
            p,
            cbfd_analysis::geometry::worst_case_an_fraction(),
        ),
        // Cells are already parallel; the estimator runs its shards
        // inline (the sharded result is worker-count invariant anyway).
        mc: montecarlo::false_detection_with_workers(n, p, trials, seed, 1).mean,
    })
}

/// Figure 5 protocol-level corroboration: `runs` single-epoch
/// experiments in chunks (placements vary per chunk), the seeds within
/// each chunk fanned out over `workers` threads. Returns the observed
/// false-detection rate per member-epoch.
pub fn fig5_protocol_rate(n: usize, p: f64, runs: u64, workers: usize) -> f64 {
    let mut events = 0u64;
    for chunk_start in (0..runs).step_by(30) {
        let exp = Experiment::new(
            analysis_cluster(n, 40_000 + chunk_start),
            FdsConfig::default(),
            FormationConfig::default(),
        );
        let seeds: Vec<u64> = (chunk_start..(chunk_start + 30).min(runs)).collect();
        events += exp
            .run_many_with_workers(p, 1, &[], &seeds, workers)
            .iter()
            .map(|o| o.false_detections.len() as u64)
            .sum::<u64>();
    }
    events as f64 / (runs * (n as u64 - 1)) as f64
}

// ---------------------------------------------------------------- fig6

/// Figure 6's conditional MC spot check at `N = 50, p = 0.5,
/// d = 0.5 R` (the table itself is closed-form and cheap).
pub fn fig6_mc(trials: u64, seed: u64, workers: usize) -> montecarlo::McResult {
    montecarlo::ch_false_detection_with_workers(50, 0.5, 0.5, trials, seed, workers)
}

// ---------------------------------------------------------------- fig7

/// One Figure 7 table row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    /// Cluster population.
    pub n: u64,
    /// Per-link loss probability.
    pub p: f64,
    /// Closed-form worst-case bound.
    pub analytic: f64,
    /// Conditional Monte Carlo estimate.
    pub mc: f64,
    /// Ablation: recovery without peer forwarding.
    pub ablation: f64,
}

/// Figure 7 sweep: `P̂(Incompleteness)` over the `(N, p)` grid.
pub fn fig7_rows(trials: u64, seed: u64, workers: usize) -> Vec<Fig7Row> {
    let cells = mc_grid();
    par::par_map(workers, &cells, |_, &(n, p)| Fig7Row {
        n,
        p,
        analytic: incompleteness::worst_case(n, p),
        mc: montecarlo::incompleteness_with_workers(n, p, trials, seed, 1).mean,
        ablation: incompleteness::without_peer_forwarding(p),
    })
}

/// Figure 7 protocol-level corroboration: strict per-requester
/// recovery over several placements/seeds (fanned out over `workers`),
/// returning `(update_misses, member_epochs)` summed in seed order.
pub fn fig7_protocol(n: usize, p: f64, seeds: u64, workers: usize) -> (u64, u64) {
    let strict = FdsConfig {
        promiscuous_recovery: false,
        ..FdsConfig::default()
    };
    let seed_list: Vec<u64> = (0..seeds).collect();
    let outcomes = par::par_map(workers, &seed_list, |_, &seed| {
        let exp = Experiment::new(
            analysis_cluster(n, 50_000 + seed),
            strict,
            FormationConfig::default(),
        );
        let outcome = exp.run(p, 50, &[], seed);
        (outcome.update_misses, outcome.member_epochs)
    });
    outcomes
        .into_iter()
        .fold((0, 0), |(m, e), (dm, de)| (m + dm, e + de))
}

// ----------------------------------------------------------------- dch

/// One E4 (DCH reachability) table row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DchRow {
    /// Cluster population.
    pub n: u64,
    /// Deputy displacement over the radio range.
    pub d_over_r: f64,
    /// Unclipped-lens closed form.
    pub model: f64,
    /// Geometric Monte Carlo estimate.
    pub mc: f64,
}

/// E4 sweep: worst-case DCH miss probability over populations ×
/// displacements.
pub fn dch_rows(trials: u64, seed: u64, workers: usize) -> Vec<DchRow> {
    let mut cells = Vec::new();
    for &n in &series::POPULATIONS {
        for i in 0..=10 {
            cells.push((n, i as f64 / 10.0));
        }
    }
    par::par_map(workers, &cells, |_, &(n, d)| DchRow {
        n,
        d_over_r: d,
        model: dch_reach::worst_case_miss(n, 0.25, d),
        mc: montecarlo::dch_reach_miss_with_workers(n, 0.25, d, 1.0, trials, seed, 1).mean,
    })
}

// ---------------------------------------------------------------- cost

/// One E6 (detector comparison) table row.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorRow {
    /// Detector name.
    pub name: &'static str,
    /// False suspicions/detections over the run.
    pub false_positives: usize,
    /// Fraction of (observer, crashed) pairs eventually detected.
    pub completeness: f64,
    /// Worst detection latency in intervals.
    pub max_latency: u64,
    /// Transmissions per node per interval.
    pub tx_per_node_interval: f64,
}

/// E6: the five detectors (CBFD and four baselines) on the same
/// 200-node field, run concurrently on `workers` threads; rows are
/// returned in the fixed comparison order.
pub fn detector_rows(workers: usize) -> Vec<DetectorRow> {
    let mut rng = StdRng::seed_from_u64(5);
    let n = 200;
    let positions = Placement::UniformRect(Rect::square(700.0)).generate(n, &mut rng);
    let topology = Topology::from_positions(positions, 100.0);
    let epochs = 30;
    let p = 0.15;
    let interval = SimDuration::from_secs(1);
    let crashes = [
        CrashAt {
            epoch: 2,
            node: NodeId(50),
        },
        CrashAt {
            epoch: 4,
            node: NodeId(120),
        },
    ];
    let planned: Vec<PlannedCrash> = crashes
        .iter()
        .map(|c| PlannedCrash {
            epoch: c.epoch,
            node: c.node,
        })
        .collect();

    let baseline_row = |name: &'static str, outcome: cbfd_baselines::BaselineOutcome| DetectorRow {
        name,
        false_positives: outcome.false_suspicions.len(),
        completeness: outcome.completeness,
        max_latency: outcome
            .detection_latency
            .values()
            .copied()
            .max()
            .unwrap_or(0),
        tx_per_node_interval: outcome.tx_per_node_interval(n),
    };

    type Job<'a> = Box<dyn Fn() -> DetectorRow + Sync + Send + 'a>;
    let jobs: Vec<Job<'_>> = vec![
        Box::new(|| {
            let exp = Experiment::new(
                topology.clone(),
                FdsConfig::default(),
                FormationConfig::default(),
            );
            let fds = exp.run(p, epochs, &planned, 11);
            DetectorRow {
                name: "cbfd",
                false_positives: fds.false_detections.len(),
                completeness: fds.completeness,
                max_latency: fds.detection_latency.values().copied().max().unwrap_or(0),
                tx_per_node_interval: fds.metrics.transmissions as f64 / (n as f64 * epochs as f64),
            }
        }),
        Box::new(|| {
            baseline_row(
                "flooding",
                flood::run(&topology, p, interval, epochs, &crashes, 11),
            )
        }),
        Box::new(|| {
            baseline_row(
                "gossip",
                gossip::run(
                    &topology,
                    p,
                    interval,
                    epochs,
                    gossip::suggested_threshold(&topology),
                    &crashes,
                    11,
                ),
            )
        }),
        Box::new(|| {
            baseline_row(
                "base-station",
                central::run(&topology, p, interval, epochs, 2, &crashes, 11),
            )
        }),
        Box::new(|| {
            baseline_row(
                "swim",
                swim::run(&topology, p, interval, epochs, 4, &crashes, 11),
            )
        }),
    ];
    par::par_map(workers, &jobs, |_, job| job())
}

// ---------------------------------------------------------------- sleep

/// One E8 (sleep study) table row: false-detection counts without and
/// with sleep announcements at loss probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SleepRow {
    /// Per-link loss probability.
    pub p: f64,
    /// False detections with unannounced sleepers.
    pub unannounced: u64,
    /// False detections with announced sleepers.
    pub announced: u64,
}

/// E8: duty-cycled sleepers, announced vs unannounced, the
/// `(mode, seed)` replicates fanned out over `workers` threads.
pub fn sleep_rows(seeds: u64, workers: usize) -> Vec<SleepRow> {
    use cbfd_core::service::PlannedSleep;

    [0.0, 0.1, 0.2, 0.3]
        .iter()
        .map(|&p| {
            let cells: Vec<(bool, u64)> = [false, true]
                .into_iter()
                .flat_map(|announced| (0..seeds).map(move |s| (announced, s)))
                .collect();
            let counts = par::par_map(workers, &cells, |_, &(announced, seed)| {
                let mut rng = StdRng::seed_from_u64(60_000 + seed);
                let positions = Placement::UniformRect(Rect::square(350.0)).generate(80, &mut rng);
                let topology = Topology::from_positions(positions, 100.0);
                let config = FdsConfig {
                    sleep_announcements: announced,
                    ..FdsConfig::default()
                };
                let exp = Experiment::new(topology, config, FormationConfig::default());
                let sleepers: Vec<PlannedSleep> = exp
                    .view()
                    .clusters()
                    .filter_map(|c| c.non_head_members().last())
                    .take(12)
                    .map(|node| PlannedSleep {
                        node,
                        from_epoch: 3,
                        until_epoch: 7,
                    })
                    .collect();
                let outcome = exp.run_with_sleep(p, 10, &[], &sleepers, seed);
                (announced, outcome.false_detections.len() as u64)
            });
            let mut row = SleepRow {
                p,
                unannounced: 0,
                announced: 0,
            };
            for (announced, count) in counts {
                if announced {
                    row.announced += count;
                } else {
                    row.unannounced += count;
                }
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_series() {
        let cells = mc_grid();
        assert_eq!(
            cells.len(),
            series::POPULATIONS.len() * series::loss_grid().len()
        );
        assert_eq!(cells[0].0, series::POPULATIONS[0]);
    }

    #[test]
    fn detector_rows_keep_comparison_order() {
        let rows = detector_rows(par::default_workers());
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            ["cbfd", "flooding", "gossip", "base-station", "swim"]
        );
    }
}
