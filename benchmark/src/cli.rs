//! Command line of both binaries.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run, one
//!   JSON result line last on stdout (the BENCHMARK.json contract);
//! * `run` — every workload × `--reps` child processes, one table;
//! * `selfcheck` — two such sets, held against the bounds (A/A);
//! * `trace` — the traced run of every workload.

use crate::guard;
use crate::measure::measure;
use crate::report::{manifest, per_layer, Better, RunResult, END_TO_END, RUN_SECONDS};
use crate::stats::{median, quartile_spread};
use crate::traced::trace;
use crate::workload::{available_parallelism, by_name, Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Where the traced run and the suite commands leave their files,
/// relative to the directory the benchmark is started from (the
/// repository root).
const RESULTS_DIR: &str = "benchmark/results";

const USAGE: &str = "usage:
  stackbench --workload <calm|crash_wave|lossy|small_many> [--seed N] [--seconds S] [--trace 0|1]
  stackbench run        [--workload W] [--seed N] [--seconds S] [--reps R]
  stackbench selfcheck  [--workload W] [--seed N] [--seconds S] [--reps R]
  stackbench-traced trace [--workload W] [--seed N]
  stackbench manifest     (prints /BENCHMARK.json from the metric registry)
Start it from the repository root; `bash benchmark/bench.sh` builds first and
picks the binary by --trace.";

#[derive(Debug)]
struct Args {
    command: Option<String>,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        reps: 3,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "run" | "selfcheck" | "trace" | "manifest" if parsed.command.is_none() => {
                parsed.command = Some(arg.clone());
            }
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload =
                    Some(by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--reps" => {
                parsed.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if parsed.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Entry point of `stackbench` and `stackbench-traced`.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stackbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = guard::check() {
        eprintln!("stackbench: {e}");
        return ExitCode::from(2);
    }
    match args.command.as_deref() {
        None => match args.workload {
            Some(w) => single_run(w, &args),
            None => {
                eprintln!("stackbench: --workload is required\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("manifest") => {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }
        Some("run") => suite(&args, 1),
        Some("selfcheck") => suite(&args, 2),
        Some(_) => trace_all(&args),
    }
}

/// One run of one workload in this process: the contract's command.
fn single_run(w: &Workload, args: &Args) -> ExitCode {
    eprintln!(
        "stackbench: workload={} seed={} seconds={} trace={} workers={} available_parallelism={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.effective_workers(),
        available_parallelism(),
    );
    let (result, failures, digest) = if args.trace {
        let t = trace(w, args.seed);
        let path = format!("{RESULTS_DIR}/trace-{}.json", w.name);
        let written = std::fs::create_dir_all(RESULTS_DIR)
            .and_then(|()| std::fs::write(&path, t.recorder.to_json()));
        let mut failures = t.failures;
        match written {
            Ok(()) => eprintln!("stackbench: spans written to {path}"),
            Err(e) => failures.push(format!("cannot write {path}: {e}")),
        }
        let failed = failures.len() as u64;
        let result = RunResult::per_layer(
            failures.is_empty(),
            t.attempted,
            failed.min(t.attempted),
            &t.values,
        );
        (result, failures, t.digest)
    } else {
        let m = measure(w, args.seed, args.seconds);
        eprintln!(
            "stackbench: passes={} step_samples={}",
            m.passes, m.step_samples
        );
        if m.values.is_empty() {
            for f in &m.failures {
                eprintln!("stackbench: FAILED {f}");
            }
            eprintln!("stackbench: no pass completed, nothing to report");
            return ExitCode::from(2);
        }
        let failed = (m.failures.len() as u64).min(m.attempted);
        let result = RunResult::end_to_end(m.failures.is_empty(), m.attempted, failed, &m.values);
        (result, m.failures, m.digest)
    };
    for f in &failures {
        eprintln!("stackbench: FAILED {f}");
    }
    println!(
        "workload {} seed {} outcome_digest {digest:016x}",
        w.name, args.seed
    );
    for (name, value, unit) in &result.metrics {
        println!("{name} {unit} {value}");
    }
    println!("{}", result.to_json());
    verdict(result.correct)
}

/// Exit code of a command whose checks did or did not all pass.
fn verdict(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workload `--workload` names, or all of them.
fn selected(args: &Args) -> Vec<&'static Workload> {
    match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    }
}

/// What one child process reported.
struct Child {
    result: RunResult,
    digest: String,
}

/// Runs this executable once more for `w`, so that peak RSS and the
/// heap are one workload's own.
fn spawn(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = RunResult::parse(last).ok_or_else(|| {
        format!(
            "child for {} printed no result (status {})",
            w.name, out.status
        )
    })?;
    let digest = stdout
        .lines()
        .find_map(|l| l.split("outcome_digest ").nth(1))
        .unwrap_or("?")
        .to_string();
    Ok(Child { result, digest })
}

/// Samples of every metric over the repetitions of one workload.
type Samples = BTreeMap<String, Vec<f64>>;

struct SetRow {
    samples: Samples,
    digests: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn run_set(workloads: &[&'static Workload], args: &Args) -> Result<Vec<SetRow>, String> {
    let mut rows = Vec::new();
    for w in workloads {
        let mut row = SetRow {
            samples: Samples::new(),
            digests: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        for rep in 0..args.reps {
            eprintln!(
                "stackbench: {} repetition {}/{}",
                w.name,
                rep + 1,
                args.reps
            );
            let child = spawn(w, args.seed, args.seconds, false)?;
            row.attempted += child.result.attempted;
            row.failed +=
                child.result.failed + u64::from(!child.result.correct && child.result.failed == 0);
            for (name, value, _) in &child.result.metrics {
                row.samples.entry(name.clone()).or_default().push(*value);
            }
            row.digests.push(child.digest);
        }
        rows.push(row);
    }
    Ok(rows)
}

fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
            (lo.min(*x), hi.max(*x))
        })
}

/// By how much of `base` the value `new` is worse, in the metric's
/// own direction (negative: better).
fn worsening(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// `run` (one set) and `selfcheck` (two sets of the same binary).
fn suite(args: &Args, sets: usize) -> ExitCode {
    let started = Instant::now();
    let workloads = selected(args);
    let mut all = Vec::new();
    for _ in 0..sets {
        match run_set(&workloads, args) {
            Ok(rows) => all.push(rows),
            Err(e) => {
                eprintln!("stackbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut ok = true;
    let mut json = format!(
        "{{\"seed\": {}, \"reps\": {}, \"seconds\": {}, \"available_parallelism\": {}, \"workloads\": {{",
        args.seed,
        args.reps,
        args.seconds,
        available_parallelism()
    );
    for (wi, w) in workloads.iter().enumerate() {
        let first = &all[0][wi];
        println!(
            "\n== {} (seed {}, n={} per metric, outcome_digest {}) ==",
            w.name, args.seed, args.reps, first.digests[0]
        );
        let digests_agree = all
            .iter()
            .all(|set| set[wi].digests.iter().all(|d| *d == first.digests[0]));
        if !digests_agree {
            println!("FAILED outcome_digest differs between repetitions");
            ok = false;
        }
        json.push_str(&format!(
            "{}\"{}\": {{\"outcome_digest\": \"{}\"",
            if wi == 0 { "" } else { ", " },
            w.name,
            first.digests[0]
        ));
        for d in &END_TO_END {
            let xs = &first.samples[d.name];
            let (lo, hi) = min_max(xs);
            let med = median(xs);
            print!(
                "{:<28} {:<9} {:>14.6} [{:.6} .. {:.6}] n={}",
                d.name,
                d.unit,
                med,
                lo,
                hi,
                xs.len()
            );
            json.push_str(&format!(
                ", \"{}\": {{\"median\": {med}, \"min\": {lo}, \"max\": {hi}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
            if d.simulated && lo != hi {
                print!("  FAILED simulated statistic differs between repetitions");
                ok = false;
            }
            if sets == 2 {
                let ys = &all[1][wi].samples[d.name];
                let worse = worsening(d.better, med, median(ys));
                let spread = quartile_spread(&[xs.as_slice(), ys.as_slice()].concat());
                print!(
                    "  | A/A second set {:>+7.2} % (bound {:.1} %), spread {:.2} %",
                    worse * 100.0,
                    d.bound * 100.0,
                    spread * 100.0
                );
                let breach = if d.simulated {
                    med != median(ys)
                } else {
                    worse > d.bound
                };
                if breach {
                    print!("  FAILED");
                    ok = false;
                }
            }
            println!();
        }
        let (attempted, failed): (u64, u64) = all.iter().fold((0, 0), |(a, f), set| {
            (a + set[wi].attempted, f + set[wi].failed)
        });
        println!(
            "{:<28} {:<9} {:>14.6} ({failed} of {attempted} operations)",
            "failed_share",
            "fraction",
            failed as f64 / attempted.max(1) as f64
        );
        json.push_str(&format!(
            ", \"attempted\": {attempted}, \"failed\": {failed}}}"
        ));
        ok &= failed == 0;
    }
    json.push_str("}}\n");
    let path = format!("{RESULTS_DIR}/latest.json");
    if let Err(e) = std::fs::create_dir_all(RESULTS_DIR).and_then(|()| std::fs::write(&path, json))
    {
        eprintln!("stackbench: cannot write {path}: {e}");
        ok = false;
    }
    println!(
        "\n{} in {:.0} s; table written to {path}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        started.elapsed().as_secs_f64()
    );
    verdict(ok)
}

/// `trace`: the traced run of every workload, one child each.
fn trace_all(args: &Args) -> ExitCode {
    let workloads = selected(args);
    let mut columns = Vec::new();
    let mut ok = true;
    for w in &workloads {
        eprintln!("stackbench: tracing {}", w.name);
        match spawn(w, args.seed, args.seconds, true) {
            Ok(child) => {
                ok &= child.result.correct;
                columns.push(child);
            }
            Err(e) => {
                eprintln!("stackbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    print!("{:<40} {:<9}", "per-layer metric", "unit");
    for w in &workloads {
        print!(" {:>16}", w.name);
    }
    println!();
    let cores = available_parallelism();
    for d in per_layer() {
        print!("{:<40} {:<9}", d.name, d.unit);
        for child in &columns {
            let v = child.result.value(&d.name).unwrap_or(0.0);
            if d.name == "net.tiled.speedup_w2" && cores < 2 {
                print!(" {:>16}", "not measured");
            } else if v.fract() == 0.0 {
                print!(" {v:>16.0}");
            } else {
                print!(" {v:>16.6}");
            }
        }
        println!();
    }
    if cores < 2 {
        println!("net.tiled.speedup_w2: not measured here (available_parallelism = {cores})");
    }
    println!(
        "span files: {RESULTS_DIR}/trace-<workload>.json; {}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    verdict(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn contract_flags_parse() {
        let a = args(&[
            "--workload",
            "lossy",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload.map(|w| w.name), Some("lossy"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(a.command.is_none());
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--reps", "0"]).is_err());
        assert!(args(&["frobnicate"]).is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 10.0, 12.0) < 0.0);
    }
}
