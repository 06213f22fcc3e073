//! Long-horizon churn soak: week-of-simulated-time runs proving the
//! FDS holds a **memory plateau** and a **checkpoint identity** under
//! sustained join/leave/rejoin/crash churn.
//!
//! The workload stretches the heartbeat interval (default 60 s) so a
//! simulated week is ~10k epochs, then cycles a rotating pool of
//! victims through crash→rejoin and leave→rejoin on staggered
//! schedules for the whole run. The online invariant monitor rides
//! along; every snapshot interval the harness:
//!
//! * takes a full [`Simulator::checkpoint`] and records its size (the
//!   deterministic memory proxy: serialized state has no allocator or
//!   platform noise),
//! * records the per-node retained-ledger high-water mark,
//! * periodically **swaps the live simulator for its own restored
//!   checkpoint** and asserts the re-serialized state is byte-identical,
//!   so restore-then-run correctness is exercised *inside* the soak,
//!   not just in unit tests.
//!
//! Afterwards it runs a forked chaos campaign: every plan resumes from
//! one shared warmed-up checkpoint (`fork_warm_epochs`), which is the
//! cheap way to put faults on top of an already-converged network.
//!
//! Writes `BENCH_soak.json` — byte-deterministic for any worker count
//! and platform (simulated time and counters only, no wall clocks).
//! With `--check` it instead compares against the committed baseline
//! and exits non-zero on any hard invariant violation, any restore
//! round-trip mismatch, or a memory high-water regression.
//!
//! Usage:
//!   bench_soak [--nodes N] [--side F] [--hours H] [--phi-secs S]
//!              [--p P] [--seed S] [--snapshot-every E] [--stride K]
//!              [--campaign-plans N] [--out PATH] [--check]

use cbfd_chaos::campaign::{run_campaign, CampaignConfig};
use cbfd_chaos::Monitor;
use cbfd_cluster::FormationConfig;
use cbfd_core::config::FdsConfig;
use cbfd_core::node::FdsNode;
use cbfd_core::service::Experiment;
use cbfd_net::id::NodeId;
use cbfd_net::placement::Placement;
use cbfd_net::radio::RadioConfig;
use cbfd_net::sim::Simulator;
use cbfd_net::time::{SimDuration, SimTime};
use cbfd_net::{geometry::Rect, topology::Topology};
use rand::SeedableRng;
use std::fmt::Write as _;
use std::process::ExitCode;

struct SoakConfig {
    nodes: usize,
    side: f64,
    hours: u64,
    phi_secs: u64,
    p: f64,
    seed: u64,
    snapshot_every: u64,
    stride: u64,
    campaign_plans: usize,
    out: String,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            nodes: 64,
            side: 460.0,
            hours: 168, // one simulated week
            phi_secs: 60,
            p: 0.05,
            seed: 0x50A_CAFE,
            snapshot_every: 256,
            stride: 4096,
            campaign_plans: 8,
            out: "BENCH_soak.json".into(),
        }
    }
}

impl SoakConfig {
    fn epochs(&self) -> u64 {
        (self.hours * 3600) / self.phi_secs
    }
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn config_from_args(args: &[String]) -> SoakConfig {
    let mut c = SoakConfig::default();
    if let Some(v) = parse_flag(args, "--nodes") {
        c.nodes = v;
    }
    if let Some(v) = parse_flag(args, "--side") {
        c.side = v;
    }
    if let Some(v) = parse_flag(args, "--hours") {
        c.hours = v;
    }
    if let Some(v) = parse_flag(args, "--phi-secs") {
        c.phi_secs = v;
    }
    if let Some(v) = parse_flag(args, "--p") {
        c.p = v;
    }
    if let Some(v) = parse_flag(args, "--seed") {
        c.seed = v;
    }
    if let Some(v) = parse_flag::<u64>(args, "--snapshot-every") {
        c.snapshot_every = v.max(1);
    }
    if let Some(v) = parse_flag(args, "--stride") {
        c.stride = v;
    }
    if let Some(v) = parse_flag(args, "--campaign-plans") {
        c.campaign_plans = v;
    }
    if let Some(v) = parse_flag(args, "--out") {
        c.out = v;
    }
    c
}

/// One sampled point on the soak timeline.
struct Sample {
    epoch: u64,
    checkpoint_bytes: u64,
    ledger_total: u64,
    ledger_max: u64,
    alive: usize,
    crashed: usize,
    departed: usize,
    events: u64,
    violations: usize,
}

struct SoakResult {
    samples: Vec<Sample>,
    restore_roundtrips: u64,
    violations_total: usize,
    final_completeness: f64,
    final_false_suspicions: u64,
}

/// Schedules the rotating churn cycles onto the queue: every 16
/// epochs one pool node crashes and rejoins, another leaves and
/// rejoins, staggered so the network is never quiet for long.
fn schedule_churn(sim: &mut Simulator<FdsNode>, nodes: usize, epochs: u64, phi: SimDuration) {
    let pool: Vec<NodeId> = (1..nodes as u32).step_by(5).map(NodeId).collect();
    if pool.len() < 2 {
        return;
    }
    let mid = |e: u64| SimTime::ZERO + phi * e + SimDuration::from_micros(phi.as_micros() / 2);
    let mut k = 0usize;
    let mut e = 2;
    while e + 12 < epochs {
        let crasher = pool[k % pool.len()];
        let leaver = pool[(k + 1) % pool.len()];
        sim.schedule_crash(crasher, mid(e));
        sim.schedule_rejoin(crasher, mid(e + 6));
        sim.schedule_leave(leaver, mid(e + 3));
        sim.schedule_rejoin(leaver, mid(e + 9));
        k += 2;
        e += 16;
    }
}

fn run_soak(config: &SoakConfig) -> SoakResult {
    let phi = SimDuration::from_secs(config.phi_secs);
    let fds = FdsConfig {
        heartbeat_interval: phi,
        ..FdsConfig::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let pts = Placement::UniformRect(Rect::square(config.side)).generate(config.nodes, &mut rng);
    let topology = Topology::from_positions(pts, 100.0);
    let exp = Experiment::new(topology, fds, FormationConfig::default());
    let mut monitor = Monitor::new(exp.topology().clone(), exp.view().clone(), config.stride);

    let mut sim = exp.build_sim(RadioConfig::bernoulli(config.p), config.seed);
    let epochs = config.epochs();
    schedule_churn(&mut sim, config.nodes, epochs, phi);

    let mut samples = Vec::new();
    let mut restore_roundtrips = 0u64;
    let mut epoch = 0;
    while epoch < epochs {
        epoch = (epoch + config.snapshot_every).min(epochs);
        let deadline = SimTime::ZERO + phi * epoch - SimDuration::from_micros(1);
        sim.run_until_observed(deadline, &mut |s, ev| monitor.observe(s, ev));

        let bytes = sim.checkpoint().expect("soak checkpoint serializes");
        let (ledger_total, ledger_max) = sim
            .actors()
            .map(|(_, node)| node.retained_ledger_entries())
            .fold((0u64, 0u64), |(t, m), e| (t + e, m.max(e)));
        samples.push(Sample {
            epoch,
            checkpoint_bytes: bytes.len() as u64,
            ledger_total,
            ledger_max,
            alive: sim.alive_nodes().len(),
            crashed: sim.crashed_nodes().len(),
            departed: sim.departed_nodes().len(),
            events: monitor.events_seen(),
            violations: monitor.violations().len(),
        });

        // Every fourth snapshot, continue the soak *from the restored
        // checkpoint* instead of the live simulator.
        if samples.len() % 4 == 0 {
            let resumed: Simulator<FdsNode> =
                Simulator::restore(&bytes).expect("soak checkpoint restores");
            let again = resumed.checkpoint().expect("re-serialize");
            assert_eq!(
                bytes, again,
                "checkpoint → restore → checkpoint is not the identity at epoch {epoch}"
            );
            sim = resumed;
            restore_roundtrips += 1;
        }
    }

    let (final_completeness, final_false_suspicions) = monitor
        .last_residual()
        .map(|r| (r.completeness, r.false_suspicions))
        .unwrap_or((1.0, 0));
    SoakResult {
        samples,
        restore_roundtrips,
        violations_total: monitor.violations().len(),
        final_completeness,
        final_false_suspicions,
    }
}

fn render_json(
    config: &SoakConfig,
    result: &SoakResult,
    campaign_failing: usize,
    high_water_bytes: u64,
    high_water_ledger: u64,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"cbfd-bench-soak v1\",");
    let _ = writeln!(out, "  \"nodes\": {},", config.nodes);
    let _ = writeln!(out, "  \"side\": {:.1},", config.side);
    let _ = writeln!(out, "  \"hours\": {},", config.hours);
    let _ = writeln!(out, "  \"phi_secs\": {},", config.phi_secs);
    let _ = writeln!(out, "  \"epochs\": {},", config.epochs());
    let _ = writeln!(out, "  \"p\": {:.4},", config.p);
    let _ = writeln!(out, "  \"seed\": {},", config.seed);
    let _ = writeln!(out, "  \"snapshot_every\": {},", config.snapshot_every);
    let _ = writeln!(out, "  \"stride\": {},", config.stride);
    let _ = writeln!(
        out,
        "  \"retention_epochs\": {},",
        FdsConfig::default().retention_epochs
    );
    out.push_str("  \"samples\": [\n");
    for (i, s) in result.samples.iter().enumerate() {
        let comma = if i + 1 < result.samples.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"epoch\": {}, \"checkpoint_bytes\": {}, \"ledger_total\": {}, \
             \"ledger_max\": {}, \"alive\": {}, \"crashed\": {}, \"departed\": {}, \
             \"events\": {}, \"violations\": {}}}{comma}",
            s.epoch,
            s.checkpoint_bytes,
            s.ledger_total,
            s.ledger_max,
            s.alive,
            s.crashed,
            s.departed,
            s.events,
            s.violations,
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"restore_roundtrips\": {},",
        result.restore_roundtrips
    );
    let _ = writeln!(
        out,
        "  \"high_water_checkpoint_bytes\": {high_water_bytes},"
    );
    let _ = writeln!(out, "  \"high_water_ledger_entries\": {high_water_ledger},");
    let _ = writeln!(
        out,
        "  \"final_completeness\": {:.6},",
        result.final_completeness
    );
    let _ = writeln!(
        out,
        "  \"final_false_suspicions\": {},",
        result.final_false_suspicions
    );
    let _ = writeln!(out, "  \"violations_total\": {},", result.violations_total);
    let _ = writeln!(
        out,
        "  \"forked_campaign_plans\": {},",
        config.campaign_plans
    );
    let _ = writeln!(out, "  \"forked_campaign_failing\": {campaign_failing}");
    out.push_str("}\n");
    out
}

/// Extracts `"key": <u64>` from the committed baseline.
fn baseline_value(text: &str, key: &str) -> Option<u64> {
    let probe = format!("\"{key}\":");
    let i = text.find(&probe)? + probe.len();
    let rest = text[i..].trim_start();
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let config = config_from_args(&args);
    let epochs = config.epochs();
    if epochs == 0 {
        eprintln!(
            "error: --hours {} at --phi-secs {} is zero epochs; a soak needs at least one\n\
             usage: bench_soak [--nodes N] [--side F] [--hours H] [--phi-secs S] [--p P] \
             [--seed S] [--snapshot-every E] [--stride K] [--campaign-plans N] \
             [--out PATH] [--check]",
            config.hours, config.phi_secs
        );
        return ExitCode::from(2);
    }

    println!(
        "soak: {} nodes, {} simulated hour(s) at phi={} s ({} epochs), p={}, seed {:#x}",
        config.nodes, config.hours, config.phi_secs, epochs, config.p, config.seed
    );
    let started = std::time::Instant::now();
    let result = run_soak(&config);
    let soak_secs = started.elapsed().as_secs_f64();

    let high_water_bytes = result
        .samples
        .iter()
        .map(|s| s.checkpoint_bytes)
        .max()
        .unwrap_or(0);
    let high_water_ledger = result
        .samples
        .iter()
        .map(|s| s.ledger_max)
        .max()
        .unwrap_or(0);
    let last = result.samples.last().expect("at least one sample");
    println!(
        "  {} events, {} sample(s), {} restore round-trip(s) in {soak_secs:.1} s wall",
        last.events,
        result.samples.len(),
        result.restore_roundtrips
    );
    println!(
        "  high water: checkpoint {high_water_bytes} B, ledger {high_water_ledger} entries/node; \
         final completeness {:.4}",
        result.final_completeness
    );

    // Forked chaos campaign: churny plans resuming from one shared
    // warmed-up checkpoint (standard epoch scale — the campaign is
    // about fault response, not soak length).
    let campaign = run_campaign(&CampaignConfig {
        plans: config.campaign_plans,
        nodes: config.nodes,
        side: config.side,
        epochs: 6,
        master_seed: config.seed,
        stride: 64,
        baseline_p: config.p,
        churn: true,
        fork_warm_epochs: 2,
        ..CampaignConfig::default()
    });
    println!(
        "  forked campaign: {} plan(s) from a {}-epoch warm checkpoint, {} failing",
        config.campaign_plans,
        2,
        campaign.failing()
    );

    let json = render_json(
        &config,
        &result,
        campaign.failing(),
        high_water_bytes,
        high_water_ledger,
    );

    let mut failed = false;
    if result.violations_total > 0 {
        println!(
            "  FAIL: {} hard invariant violation(s)",
            result.violations_total
        );
        failed = true;
    }
    if campaign.failing() > 0 {
        println!(
            "  FAIL: {} forked campaign plan(s) with violations",
            campaign.failing()
        );
        failed = true;
    }
    // Plateau self-check: once the retention window has saturated
    // (ledgers hold a full window of history), the high-water mark
    // must stop growing — that is precisely what the GC buys. Samples
    // before 2× the retention window are warmup and exempt.
    let warmup = FdsConfig::default().retention_epochs * 2;
    let settled: Vec<u64> = result
        .samples
        .iter()
        .filter(|s| s.epoch >= warmup)
        .map(|s| s.checkpoint_bytes)
        .collect();
    if settled.len() >= 4 {
        let halfway = settled.len() / 2;
        let early = *settled[..halfway].iter().max().expect("non-empty");
        let late = *settled[halfway..].iter().max().expect("non-empty");
        // 2% headroom for in-flight queue phase at the sample instants;
        // a genuine ledger leak grows linearly and blows through it.
        if late as f64 > early as f64 * 1.02 {
            println!(
                "  FAIL: no memory plateau — post-warmup high water grew \
                 {early} B -> {late} B"
            );
            failed = true;
        } else {
            println!(
                "  memory plateau held after epoch {warmup}: \
                 late high water {late} B vs early {early} B (within 2%)"
            );
        }
    } else {
        println!(
            "  plateau check skipped: only {} sample(s) past the {warmup}-epoch warmup",
            settled.len()
        );
    }

    if check {
        let committed = std::fs::read_to_string(&config.out)
            .unwrap_or_else(|e| panic!("--check needs the committed {}: {e}", config.out));
        for (key, new_value) in [
            ("high_water_checkpoint_bytes", high_water_bytes),
            ("high_water_ledger_entries", high_water_ledger),
        ] {
            let base = baseline_value(&committed, key)
                .unwrap_or_else(|| panic!("committed {} lacks {key}", config.out));
            if new_value > base {
                println!("  FAIL: {key} regressed: {new_value} > committed {base}");
                failed = true;
            } else {
                println!("  {key}: {new_value} <= committed {base}");
            }
        }
        if failed {
            return ExitCode::FAILURE;
        }
        println!("soak check passed against {}", config.out);
        return ExitCode::SUCCESS;
    }

    std::fs::write(&config.out, &json).expect("write soak report");
    println!("wrote {}", config.out);
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
