//! Regenerates every table and figure of the paper's evaluation
//! (Section 5) plus the extension studies from `DESIGN.md`.
//!
//! ```sh
//! cargo run --release -p cbfd-bench --bin figures           # everything
//! cargo run --release -p cbfd-bench --bin figures -- fig5   # one topic (exact name)
//! CBFD_WORKERS=4 cargo run --release -p cbfd-bench --bin figures
//! ```
//!
//! Each figure prints an aligned table — closed-form analysis,
//! conditional Monte Carlo, and (where observable) the protocol-level
//! simulation — and writes a CSV under `results/`.
//!
//! All sweeps run on the deterministic parallel runner
//! (`cbfd_net::par`): the worker count comes from `CBFD_WORKERS` (or
//! the machine's parallelism) and **does not affect any output value**.

use cbfd_analysis::{ch_false_detection, false_detection, incompleteness, intercluster, series};
use cbfd_bench::{
    dch_rows, detector_rows, fig5_protocol_rate, fig5_rows, fig6_mc, fig7_protocol, fig7_rows,
    sleep_rows, MC_TRIALS,
};
use cbfd_cluster::FormationConfig;
use cbfd_core::config::FdsConfig;
use cbfd_core::service::{Experiment, PlannedCrash};
use cbfd_net::geometry::Rect;
use cbfd_net::par;
use cbfd_net::placement::Placement;
use cbfd_net::topology::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::Path;

/// Every topic, in the order a full run regenerates them.
const TOPICS: &[(&str, fn())] = &[
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("dch", dch),
    ("intercluster", intercluster_study),
    ("cost", cost),
    ("system", system),
    ("sleep", sleep_study),
    ("aggregation", aggregation_study),
    ("energy", energy_study),
    ("conflict", conflict_study),
];

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let known = |w: &str| w == "all" || TOPICS.iter().any(|&(name, _)| name == w);
    if let Some(unknown) = which.iter().find(|w| !known(w)) {
        let names: Vec<&str> = TOPICS.iter().map(|&(name, _)| name).collect();
        eprintln!(
            "figures: unknown topic `{unknown}`; valid topics: all, {}",
            names.join(", ")
        );
        std::process::exit(2);
    }
    let all = which.is_empty() || which.iter().any(|w| w == "all");

    fs::create_dir_all("results").expect("create results dir");
    println!("(parallel sweeps: {} workers)\n", par::default_workers());

    for &(name, run) in TOPICS {
        if all || which.iter().any(|w| w == name) {
            run();
        }
    }
}

fn write_csv(path: &str, contents: &str) {
    fs::write(Path::new("results").join(path), contents).expect("write csv");
    println!("  -> results/{path}\n");
}

// ---------------------------------------------------------------- fig5

fn fig5() {
    println!("== Figure 5: P^(False detection) vs p, N in {{50, 75, 100}} ==");
    println!(
        "{:>4} {:>6} {:>14} {:>14} {:>14}",
        "N", "p", "analytic", "paper-sum", "cond-MC"
    );
    let workers = par::default_workers();
    let mut csv = String::from("n,p,analytic,paper_sum,mc\n");
    let mut last_n = 0;
    for row in fig5_rows(MC_TRIALS, 42, workers) {
        if last_n != 0 && row.n != last_n {
            println!();
        }
        last_n = row.n;
        println!(
            "{:>4} {:>6.2} {:>14.3e} {:>14.3e} {:>14.3e}",
            row.n, row.p, row.analytic, row.paper_sum, row.mc
        );
        csv.push_str(&format!(
            "{},{:.2},{:e},{:e},{:e}\n",
            row.n, row.p, row.analytic, row.paper_sum, row.mc
        ));
    }
    println!();

    // Protocol-level corroboration at the observable corner (the
    // placements vary per chunk; the seeds within a chunk run in
    // parallel).
    let (n, p, runs) = (50usize, 0.5, 300u64);
    let sim_rate = fig5_protocol_rate(n, p, runs, workers);
    println!(
        "protocol simulation at N={n}, p={p}: {sim_rate:.3e} per member-epoch \
         (average-case analysis {:.3e}, worst-case bound {:.3e})",
        false_detection::average_case(n as u64, p),
        false_detection::worst_case(n as u64, p)
    );
    write_csv("fig5_false_detection.csv", &csv);
}

// ---------------------------------------------------------------- fig6

fn fig6() {
    println!("== Figure 6: P(False detection on CH) vs p, N in {{50, 75, 100}} ==");
    println!(
        "{:>4} {:>6} {:>14} {:>16}",
        "N", "p", "analytic(d=0)", "analytic(d=0.5R)"
    );
    let mut csv = String::from("n,p,analytic_d0,analytic_d05\n");
    for &n in &series::POPULATIONS {
        for p in series::loss_grid() {
            let base = ch_false_detection::probability(n, p);
            let displaced = ch_false_detection::probability_at_distance(n, p, 0.5);
            println!("{n:>4} {p:>6.2} {base:>14.3e} {displaced:>16.3e}");
            csv.push_str(&format!("{n},{p:.2},{base:e},{displaced:e}\n"));
        }
        println!();
    }
    let mc = fig6_mc(MC_TRIALS, 43, par::default_workers());
    println!(
        "conditional MC at N=50, p=0.5, d=0.5R: {:.3e} +/- {:.1e} (lens model {:.3e})",
        mc.mean,
        mc.std_error,
        ch_false_detection::probability_at_distance(50, 0.5, 0.5)
    );
    write_csv("fig6_ch_false_detection.csv", &csv);
}

// ---------------------------------------------------------------- fig7

fn fig7() {
    println!("== Figure 7: P^(Incompleteness) vs p, N in {{50, 75, 100}} ==");
    println!(
        "{:>4} {:>6} {:>14} {:>14} {:>14}",
        "N", "p", "analytic", "cond-MC", "no-peer-fwd"
    );
    let workers = par::default_workers();
    let mut csv = String::from("n,p,analytic,mc,ablation_no_peer_forwarding\n");
    let mut last_n = 0;
    for row in fig7_rows(MC_TRIALS, 44, workers) {
        if last_n != 0 && row.n != last_n {
            println!();
        }
        last_n = row.n;
        println!(
            "{:>4} {:>6.2} {:>14.3e} {:>14.3e} {:>14.3e}",
            row.n, row.p, row.analytic, row.mc, row.ablation
        );
        csv.push_str(&format!(
            "{},{:.2},{:e},{:e},{:e}\n",
            row.n, row.p, row.analytic, row.mc, row.ablation
        ));
    }
    println!();

    // Protocol-level corroboration (strict per-requester recovery);
    // the six placements/seeds run in parallel.
    let (n, p) = (50usize, 0.4);
    let (misses, member_epochs) = fig7_protocol(n, p, 6, workers);
    println!(
        "protocol simulation at N={n}, p={p}: {:.3e} per member-epoch \
         (average-case analysis {:.3e}, worst-case bound {:.3e})",
        misses as f64 / member_epochs as f64,
        incompleteness::average_case(n as u64, p),
        incompleteness::worst_case(n as u64, p)
    );
    write_csv("fig7_incompleteness.csv", &csv);
}

// ----------------------------------------------------------------- dch

fn dch() {
    println!("== E4: DCH reachability (study sketched in Section 4.2) ==");
    println!("worst-case miss probability, p = 0.25, member opposite the DCH");
    println!(
        "{:>4} {:>6} {:>14} {:>14}",
        "N", "d/R", "lens model", "geom-MC"
    );
    let mut csv = String::from("n,d_over_r,lens_model,mc\n");
    let mut last_n = 0;
    for row in dch_rows(MC_TRIALS, 45, par::default_workers()) {
        if last_n != 0 && row.n != last_n {
            println!();
        }
        last_n = row.n;
        println!(
            "{:>4} {:>6.1} {:>14.3e} {:>14.3e}",
            row.n, row.d_over_r, row.model, row.mc
        );
        csv.push_str(&format!(
            "{},{:.1},{:e},{:e}\n",
            row.n, row.d_over_r, row.model, row.mc
        ));
    }
    println!();
    write_csv("e4_dch_reachability.csv", &csv);
}

// --------------------------------------------------------- intercluster

fn intercluster_study() {
    println!("== E5: inter-cluster forwarding failure probability ==");
    println!("(2 attempts per forwarder, 2 head retransmission rounds)");
    println!(
        "{:>8} {:>6} {:>14} {:>16}",
        "backups", "p", "model", "E[tx]/report"
    );
    let mut csv = String::from("backups,p,failure_probability,expected_tx\n");
    for backups in 0..=4u32 {
        for p in series::loss_grid() {
            let fail = intercluster::failure_probability(p, backups, 2, 2);
            let cost = intercluster::expected_report_transmissions(p, backups, 2);
            println!("{backups:>8} {p:>6.2} {fail:>14.3e} {cost:>16.2}");
            csv.push_str(&format!("{backups},{p:.2},{fail:e},{cost}\n"));
        }
        println!();
    }
    write_csv("e5_intercluster.csv", &csv);
}

// --------------------------------------------------------------- system

fn system() {
    use cbfd_analysis::system::SystemModel;
    use std::collections::BTreeMap;

    println!("== E7: system-wide completeness over a formed backbone ==");
    let mut rng = StdRng::seed_from_u64(77);
    let positions = Placement::UniformRect(Rect::square(600.0)).generate(180, &mut rng);
    let topology = Topology::from_positions(positions, 100.0);
    let exp = Experiment::new(topology, FdsConfig::default(), FormationConfig::default());
    let view = exp.view();
    let index: BTreeMap<_, _> = view
        .clusters()
        .enumerate()
        .map(|(i, c)| (c.id(), i))
        .collect();
    println!(
        "field: 180 nodes, {} clusters, {} links",
        view.cluster_count(),
        view.gateway_links().count()
    );
    println!(
        "{:>6} {:>22} {:>22}",
        "p", "one-wave model", "protocol (8 epochs)"
    );
    let mut csv = String::from(
        "p,model_informed_fraction,protocol_completeness
",
    );
    let victim = view
        .clusters()
        .flat_map(|c| c.non_head_members().collect::<Vec<_>>())
        .next()
        .unwrap();
    let origin = index[&view.cluster_of(victim).unwrap()];
    for p in [0.1, 0.2, 0.3, 0.4, 0.5] {
        let model = SystemModel {
            populations: view.clusters().map(|c| c.len() as u64).collect(),
            links: view
                .gateway_links()
                .map(|(pair, link)| {
                    let (a, b) = pair.endpoints();
                    (index[&a], index[&b], link.backups.len() as u32)
                })
                .collect(),
            p,
            attempts: 2,
            retx: 2,
        };
        let predicted = model.informed_fraction(origin, 3_000, 7).mean;
        let mut measured = 0.0;
        for seed in 0..4u64 {
            measured += exp
                .run(
                    p,
                    8,
                    &[PlannedCrash {
                        epoch: 1,
                        node: victim,
                    }],
                    seed,
                )
                .completeness;
        }
        measured /= 4.0;
        println!("{p:>6.2} {predicted:>22.4} {measured:>22.4}");
        csv.push_str(&format!(
            "{p:.2},{predicted:.5},{measured:.5}
"
        ));
    }
    println!("(the protocol retries across epochs, so it dominates the one-wave model)");
    write_csv("e7_system_completeness.csv", &csv);
}

// ---------------------------------------------------------------- sleep

fn sleep_study() {
    println!("== E8: sleep-mode false detections, announced vs unannounced ==");
    println!("(80 nodes, 12 duty-cycled sleepers, epochs 3..7 of 10)");
    println!("{:>6} {:>14} {:>14}", "p", "unannounced", "announced");
    let mut csv = String::from(
        "p,unannounced_false_detections,announced_false_detections
",
    );
    for row in sleep_rows(5, par::default_workers()) {
        println!(
            "{:>6.2} {:>14} {:>14}",
            row.p, row.unannounced, row.announced
        );
        csv.push_str(&format!(
            "{:.2},{},{}
",
            row.p, row.unannounced, row.announced
        ));
    }
    write_csv("e8_sleep_study.csv", &csv);
}

// ----------------------------------------------------------- aggregation

fn aggregation_study() {
    use cbfd_cluster::oracle;
    use cbfd_core::node::FdsNode;
    use cbfd_core::profile::build_profiles;
    use cbfd_net::sim::Simulator;

    println!("== E9: embedded-aggregation coverage vs loss (N = 40, 10 epochs) ==");
    println!(
        "{:>6} {:>16} {:>16}",
        "p", "with digests", "heartbeats only"
    );
    let mut csv = String::from(
        "p,coverage_with_digests,coverage_direct_only
",
    );
    for p in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let mut coverage = [0.0f64, 0.0];
        for (mode, digests) in [(0usize, true), (1, false)] {
            let mut rng = StdRng::seed_from_u64(70_000);
            let center = cbfd_net::geometry::Point::new(0.0, 0.0);
            let mut positions = vec![center];
            positions.extend(
                Placement::UniformDisk {
                    center,
                    radius: 100.0,
                }
                .generate(39, &mut rng),
            );
            let topology = Topology::from_positions(positions, 100.0);
            let view = oracle::form(&topology, &FormationConfig::default());
            let profiles = build_profiles(&view);
            let config = FdsConfig {
                aggregation: true,
                digest_round: digests,
                ..FdsConfig::default()
            };
            let mut sim = Simulator::new(
                topology,
                cbfd_net::radio::RadioConfig::bernoulli(p),
                7,
                |id| FdsNode::new(profiles[id.index()].clone(), config, 1_000.0),
            );
            sim.run_until(
                cbfd_net::time::SimTime::ZERO + config.heartbeat_interval * 10
                    - cbfd_net::time::SimDuration::from_micros(1),
            );
            let head = sim.actor(cbfd_net::id::NodeId(0));
            coverage[mode] = head
                .aggregates()
                .iter()
                .map(|(_, a)| f64::from(a.count) / 40.0)
                .sum::<f64>()
                / head.aggregates().len().max(1) as f64;
        }
        println!("{p:>6.2} {:>16.3} {:>16.3}", coverage[0], coverage[1]);
        csv.push_str(&format!(
            "{p:.2},{:.4},{:.4}
",
            coverage[0], coverage[1]
        ));
    }
    println!("(aggregation rides the FDS rounds: zero additional transmissions either way)");
    write_csv("e9_aggregation_coverage.csv", &csv);
}

// --------------------------------------------------------------- energy

fn energy_study() {
    use cbfd_cluster::oracle;
    use cbfd_core::node::FdsNode;
    use cbfd_core::profile::build_profiles;
    use cbfd_net::energy::EnergyModel;
    use cbfd_net::sim::Simulator;

    println!("== E10: energy-balanced peer forwarding (Section 4.2 policy) ==");
    println!("(one 40-node cluster, p = 0.35, 30 epochs, small batteries)");
    println!(
        "{:>14} {:>16} {:>18}",
        "policy", "peak fwd share", "energy imbalance"
    );
    let mut csv = String::from(
        "policy,peak_forward_share,energy_imbalance
",
    );
    for (name, energy_aware) in [("energy-aware", true), ("energy-blind", false)] {
        let mut rng = StdRng::seed_from_u64(41);
        let center = cbfd_net::geometry::Point::new(0.0, 0.0);
        let mut positions = vec![center];
        positions.extend(
            Placement::UniformDisk {
                center,
                radius: 100.0,
            }
            .generate(39, &mut rng),
        );
        let topology = Topology::from_positions(positions, 100.0);
        let view = oracle::form(&topology, &FormationConfig::default());
        let profiles = build_profiles(&view);
        let config = FdsConfig {
            energy_balanced_forwarding: energy_aware,
            promiscuous_recovery: false,
            ..FdsConfig::default()
        };
        let capacity = 150.0;
        let mut sim = Simulator::new(
            topology,
            cbfd_net::radio::RadioConfig::bernoulli(0.35),
            41,
            |id| FdsNode::new(profiles[id.index()].clone(), config, capacity),
        );
        sim.set_energy_model(EnergyModel {
            initial: capacity,
            tx_cost: 1.0,
            rx_cost: 0.0,
            harvest_per_sec: 0.0,
        });
        sim.run_until(
            cbfd_net::time::SimTime::from_secs(30) - cbfd_net::time::SimDuration::from_micros(1),
        );
        let forwards: Vec<u64> = sim
            .actors()
            .map(|(_, n)| n.stats().peer_forwards_sent)
            .collect();
        let total: u64 = forwards.iter().sum::<u64>().max(1);
        let peak = forwards.iter().copied().max().unwrap_or(0) as f64 / total as f64;
        let imbalance = sim.energy().imbalance();
        println!("{name:>14} {peak:>16.3} {imbalance:>18.2}");
        csv.push_str(&format!(
            "{name},{peak:.4},{imbalance:.3}
"
        ));
    }
    write_csv("e10_energy_balance.csv", &csv);
}

// -------------------------------------------------------------- conflict

fn conflict_study() {
    use cbfd_analysis::conflict;

    println!("== Conflicting-report likelihood (Section 4.2 claim) ==");
    println!("P(deputy falsely deposes the head AND a gateway forwards it)");
    println!(
        "{:>4} {:>6} {:>16} {:>22}",
        "N", "p", "per execution", "per cluster-year @1Hz"
    );
    let mut csv = String::from(
        "n,p,per_execution,per_cluster_year
",
    );
    for &n in &series::POPULATIONS {
        for p in [0.25, 0.5] {
            let per_exec = conflict::propagated_conflict(n, p, 3);
            let per_year = conflict::expected_conflicts(n, p, 3, 1, 31_536_000);
            println!("{n:>4} {p:>6.2} {per_exec:>16.3e} {per_year:>22.3e}");
            csv.push_str(&format!(
                "{n},{p:.2},{per_exec:e},{per_year:e}
"
            ));
        }
    }
    println!("(the paper: 'the likelihood of such a scenario will be extremely low')");
    write_csv("conflict_likelihood.csv", &csv);
}

// ---------------------------------------------------------------- cost

fn cost() {
    println!("== E6: detector comparison (200 nodes, p = 0.15, 30 intervals) ==");
    let mut csv =
        String::from("detector,false_positives,completeness,max_latency,tx_per_node_interval\n");
    println!(
        "{:<14} {:>9} {:>13} {:>12} {:>17}",
        "detector", "false+", "completeness", "max latency", "tx/node/interval"
    );
    for row in detector_rows(par::default_workers()) {
        println!(
            "{:<14} {:>9} {:>13.3} {:>12} {:>17.2}",
            row.name,
            row.false_positives,
            row.completeness,
            row.max_latency,
            row.tx_per_node_interval
        );
        csv.push_str(&format!(
            "{},{},{:.4},{},{:.3}\n",
            row.name,
            row.false_positives,
            row.completeness,
            row.max_latency,
            row.tx_per_node_interval
        ));
    }
    write_csv("e6_detector_comparison.csv", &csv);
}
