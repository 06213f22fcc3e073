//! Pinned-seed chaos campaign runner for CI and local fuzzing.
//!
//! Modes:
//!
//! * default — run a campaign of randomized fault plans over the full
//!   FDS with the online invariant monitor attached, write the
//!   deterministic JSON report, and exit non-zero if any plan produced
//!   a hard invariant violation (each failure ships with its shrunk
//!   minimal reproducer inside the report);
//! * `--replay FILE` — re-run one plan artifact (e.g. a shrunk
//!   reproducer extracted from a report) at stride 1 and print what it
//!   does;
//! * `--overhead` — measure monitor cost: events/s with no observer
//!   work vs. a stride-1 monitor, printed to stdout (never into the
//!   report, which must stay byte-deterministic);
//! * `--compare-detectors` — judge the fixed three-round rule against
//!   the adaptive accrual detector on identical scripted fault
//!   regimes, plans and seeds, writing the byte-deterministic
//!   `BENCH_detectors.json`; with `--check`, compare byte-for-byte
//!   against the committed artifact instead and exit non-zero on any
//!   drift.
//!
//! Usage:
//!   chaos [--plans N] [--nodes N] [--epochs N] [--seed S] [--stride K]
//!         [--side F] [--baseline-p P] [--out PATH]
//!   chaos --replay FILE [--seed S] [--nodes N] [--epochs N] [--side F]
//!   chaos --overhead [--plans N] [--nodes N] [--epochs N]
//!   chaos --compare-detectors [--out PATH] [--check]

use cbfd_chaos::campaign::{build_experiment, run_campaign, run_monitored, CampaignConfig};
use cbfd_chaos::detectors::{run_comparison, ComparisonConfig};
use cbfd_net::chaos::FaultPlan;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn config_from_args(args: &[String]) -> CampaignConfig {
    let mut config = CampaignConfig {
        plans: 200,
        nodes: 250,
        side: 800.0,
        epochs: 6,
        master_seed: 0xC4A05,
        stride: 64,
        ..CampaignConfig::default()
    };
    if let Some(v) = parse_flag(args, "--plans") {
        config.plans = v;
    }
    if let Some(v) = parse_flag(args, "--nodes") {
        config.nodes = v;
    }
    if let Some(v) = parse_flag(args, "--epochs") {
        config.epochs = v;
    }
    if let Some(v) = parse_flag(args, "--seed") {
        config.master_seed = v;
    }
    if let Some(v) = parse_flag(args, "--stride") {
        config.stride = v;
    }
    if let Some(v) = parse_flag(args, "--side") {
        config.side = v;
    }
    if let Some(v) = parse_flag(args, "--baseline-p") {
        config.baseline_p = v;
    }
    config
}

fn replay_mode(args: &[String], path: &str) -> ExitCode {
    let config = config_from_args(args);
    let seed = parse_flag(args, "--seed").unwrap_or(1u64);
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (outcome, monitor, plan) = match cbfd_chaos::campaign::replay(&config, &text, seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replayed {} primitive(s) over {} nodes, seed {seed}: {outcome}",
        plan.primitives.len(),
        config.nodes
    );
    println!(
        "monitor: {} event(s) observed, {} sweep(s)",
        monitor.events_seen(),
        monitor.sweeps_run()
    );
    if monitor.violations().is_empty() {
        println!("no hard invariant violations");
        ExitCode::SUCCESS
    } else {
        for v in monitor.violations() {
            println!("VIOLATION {v}");
        }
        ExitCode::FAILURE
    }
}

fn overhead_mode(args: &[String]) -> ExitCode {
    let mut config = config_from_args(args);
    if !args.iter().any(|a| a == "--plans") {
        config.plans = 10;
    }
    let exp = build_experiment(&config);
    let plans: Vec<FaultPlan> = (0..config.plans)
        .map(|i| {
            FaultPlan::generate(
                cbfd_net::rng::derive_seed(config.master_seed, i as u64 + 1),
                &cbfd_chaos::campaign::plan_config(&config),
            )
        })
        .collect();

    // Pass 1: observer present but free — the engine still routes
    // every effective event through the callback, so this isolates
    // the monitor's own work.
    let started = Instant::now();
    let mut events_off = 0u64;
    for (i, plan) in plans.iter().enumerate() {
        let _ = exp.run_plan(plan, config.epochs, i as u64 + 1, &mut |_, _| {
            events_off += 1;
        });
    }
    let secs_off = started.elapsed().as_secs_f64();

    // Pass 2: full monitor at stride 1 (every event sweeps).
    let started = Instant::now();
    let mut events_on = 0u64;
    for (i, plan) in plans.iter().enumerate() {
        let (_, monitor) = run_monitored(&exp, plan, config.epochs, i as u64 + 1, 1);
        events_on += monitor.events_seen();
    }
    let secs_on = started.elapsed().as_secs_f64();

    assert_eq!(events_off, events_on, "determinism: same event streams");
    let rate_off = events_off as f64 / secs_off;
    let rate_on = events_on as f64 / secs_on;
    println!(
        "monitor overhead: {} plan(s), {} nodes, {} epochs, {events_off} events",
        config.plans, config.nodes, config.epochs
    );
    println!("  monitor off      {secs_off:8.3} s  {rate_off:12.0} events/s");
    println!("  monitor stride 1 {secs_on:8.3} s  {rate_on:12.0} events/s");
    println!(
        "  slowdown {:.2}x (stride-1 sweeps every event; CI campaigns use coarser strides)",
        secs_on / secs_off
    );
    ExitCode::SUCCESS
}

fn compare_detectors_mode(args: &[String]) -> ExitCode {
    let mut config = ComparisonConfig::default();
    if let Some(v) = parse_flag(args, "--nodes") {
        config.nodes = v;
    }
    if let Some(v) = parse_flag(args, "--epochs") {
        config.epochs = v;
    }
    if let Some(v) = parse_flag(args, "--seed") {
        config.master_seed = v;
    }
    if let Some(v) = parse_flag(args, "--side") {
        config.side = v;
    }
    let out: String = parse_flag(args, "--out").unwrap_or_else(|| "BENCH_detectors.json".into());
    let started = Instant::now();
    let report = run_comparison(&config);
    let secs = started.elapsed().as_secs_f64();
    let json = report.to_json();

    println!(
        "detector comparison: {} nodes ({} clusters), {} epochs, seed {:#x}, {} regime(s) in {secs:.1} s wall",
        config.nodes,
        report.clusters,
        config.epochs,
        config.master_seed,
        report.regimes.len()
    );
    for r in &report.regimes {
        for d in [&r.fixed, &r.adaptive] {
            println!(
                "  {:18} {:8}  detected {}/{}  false {}  raised {}  retracted {}",
                r.regime,
                d.mode,
                d.detected,
                d.crashes,
                d.false_detections,
                d.suspicions_raised,
                d.suspicions_retracted
            );
        }
    }

    if args.iter().any(|a| a == "--check") {
        let committed = match std::fs::read_to_string(&out) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read committed artifact {out}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if committed == json {
            println!("  matches committed {out} byte-for-byte");
            ExitCode::SUCCESS
        } else {
            eprintln!("  DRIFT: regenerated report differs from committed {out}");
            eprintln!(
                "  (run `chaos --compare-detectors --out {out}` to refresh after intended changes)"
            );
            ExitCode::FAILURE
        }
    } else {
        if let Some(dir) = Path::new(&out).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create report directory");
            }
        }
        std::fs::write(&out, json).expect("write detector comparison");
        println!("  report: {out}");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every mode runs `--epochs` heartbeat intervals; a run of none has
    // no deadline (`Experiment` panics on it), so refuse it up front.
    if parse_flag::<u64>(&args, "--epochs") == Some(0) {
        eprintln!(
            "error: --epochs must be at least 1\n\
             usage: chaos [--plans N] [--nodes N] [--epochs N] [--seed S] [--stride K] \
             [--side F] [--baseline-p P] [--out PATH] \
             | --replay FILE | --overhead | --compare-detectors [--check]"
        );
        return ExitCode::from(2);
    }
    if args.iter().any(|a| a == "--compare-detectors") {
        return compare_detectors_mode(&args);
    }
    if let Some(i) = args.iter().position(|a| a == "--replay") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--replay requires a plan file");
            return ExitCode::FAILURE;
        };
        return replay_mode(&args, path);
    }
    if args.iter().any(|a| a == "--overhead") {
        return overhead_mode(&args);
    }

    let config = config_from_args(&args);
    let out: String =
        parse_flag(&args, "--out").unwrap_or_else(|| "results/CHAOS_report.json".into());
    let started = Instant::now();
    let report = run_campaign(&config);
    let secs = started.elapsed().as_secs_f64();

    if let Some(dir) = Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create report directory");
        }
    }
    std::fs::write(&out, report.to_json()).expect("write chaos report");

    let events: u64 = report.outcomes.iter().map(|o| o.events_observed).sum();
    println!(
        "chaos campaign: {} plan(s), {} nodes ({} clusters), {} epochs, stride {}, seed {:#x}",
        config.plans,
        config.nodes,
        report.clusters,
        config.epochs,
        config.stride,
        config.master_seed
    );
    println!("  {events} events observed in {secs:.1} s wall; report: {out}");
    if report.failing() == 0 {
        println!("  zero hard invariant violations");
        ExitCode::SUCCESS
    } else {
        for o in report
            .outcomes
            .iter()
            .filter(|o| !o.hard_violations.is_empty())
        {
            println!(
                "  FAILING plan {} (seed {}): {} violation(s), first at {:?} µs; shrunk to {} primitive(s)",
                o.index,
                o.seed,
                o.hard_violations.len(),
                o.first_violation_us,
                o.shrunk.as_ref().map_or(0, |s| s.primitives)
            );
        }
        println!("  hard invariant violations found — see {out}");
        ExitCode::FAILURE
    }
}
