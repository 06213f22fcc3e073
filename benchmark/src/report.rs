//! The metric registry (names, units, directions, bounds — mirrored in
//! `/BENCHMARK.json`) and the one-line JSON result every run prints.

use crate::timed::KINDS;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word BENCHMARK.json uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// A simulated statistic: repeats exactly for a fixed seed, so two
    /// runs of one commit must agree on it to the last bit.
    pub simulated: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        simulated: false,
    }
}

const fn simulated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        simulated: true,
    }
}

/// The end-to-end metrics, the same set on every workload. Bounds on
/// host time are sized to the sandbox's run-to-run noise; bounds on
/// simulated statistics to their spread *across seeds* (the driver
/// compares medians over ten seeds), see README "Bounds".
pub const END_TO_END: [EndToEnd; 10] = [
    host("wall_s", "s", Better::Lower, 0.25),
    host("setup_s", "s", Better::Lower, 0.25),
    host("member_epochs_per_s", "1/s", Better::Higher, 0.25),
    host("step_ms_p50", "ms", Better::Lower, 0.25),
    host("peak_rss_mb", "MB", Better::Lower, 0.2),
    simulated("events_per_member_epoch", "count", Better::Lower, 0.05),
    simulated("wire_bytes_per_member_epoch", "B", Better::Lower, 0.25),
    simulated("completeness", "fraction", Better::Higher, 0.02),
    simulated("accuracy", "fraction", Better::Higher, 0.001),
    simulated("update_delivery", "fraction", Better::Higher, 0.001),
];

/// One per-layer metric.
#[derive(Debug, Clone)]
pub struct PerLayer {
    /// `<crate>.<module>.<what>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// The per-layer metrics in reporting order. A metric that does not
/// apply to a workload (no tiled engine on `small_many`, the bare
/// beacon run off `calm`, pass B on one core) reads 0 there.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let fixed: [(&str, &'static str, Better); 59] = [
        ("net.placement.generate_s", "s", Lower),
        ("net.topology.build_s", "s", Lower),
        ("net.topology.edges", "count", Lower),
        ("cluster.oracle.form_s", "s", Lower),
        ("cluster.oracle.clusters", "count", Lower),
        ("core.profile.build_s", "s", Lower),
        ("net.tiled.construct_s", "s", Lower),
        ("cluster.invariants.check_s", "s", Lower),
        ("net.tiled.run_s", "s", Lower),
        ("net.tiled.windows", "count", Lower),
        ("net.tiled.window_exec_s", "s", Lower),
        ("net.tiled.exchange_s", "s", Lower),
        ("net.tiled.trace_merge_s", "s", Lower),
        ("net.tiled.scheduling_s", "s", Lower),
        ("net.tiled.other_s", "s", Lower),
        ("net.tiled.engine_self_s", "s", Lower),
        ("net.tiled.ns_per_event", "ns", Lower),
        ("net.tiled.bare_ns_per_event", "ns", Lower),
        ("net.tiled.speedup_w2", "x", Higher),
        ("net.sim.events", "count", Lower),
        ("net.sim.transmissions", "count", Lower),
        ("net.sim.deliveries", "count", Lower),
        ("net.sim.losses", "count", Lower),
        ("net.sim.timers_fired", "count", Lower),
        ("net.sim.fanout", "count", Lower),
        ("net.loss.draw_ns", "ns", Lower),
        ("core.node.handler_s", "s", Lower),
        ("core.node.handler_share", "fraction", Lower),
        ("core.node.ledger_ops", "count", Lower),
        ("core.node.clone_ops", "count", Lower),
        ("core.node.reports_sent", "count", Lower),
        ("core.node.reports_suppressed", "count", Lower),
        ("core.node.report_useful_ratio", "fraction", Higher),
        ("core.node.peer_forwards_sent", "count", Lower),
        ("core.node.retransmissions", "count", Lower),
        ("core.node.bytes_sent", "B", Lower),
        ("core.message.encode_ns", "ns", Lower),
        ("core.message.decode_ns", "ns", Lower),
        ("core.message.encoded_len_ns", "ns", Lower),
        ("core.message.corpus_bytes_mean", "B", Lower),
        ("core.service.new_s", "s", Lower),
        ("core.service.run_s", "s", Lower),
        ("core.service.evaluate_s", "s", Lower),
        ("core.service.false_detections", "count", Lower),
        ("core.service.update_misses", "count", Lower),
        ("core.service.detect_latency_epochs_max", "epochs", Lower),
        ("net.checkpoint.write_s", "s", Lower),
        ("net.checkpoint.restore_s", "s", Lower),
        ("net.checkpoint.bytes", "B", Lower),
        ("alloc.count", "count", Lower),
        ("alloc.per_event", "count", Lower),
        ("alloc.peak_live_mb", "MB", Lower),
        ("step.samples", "count", Higher),
        ("step.ms_p50", "ms", Lower),
        ("step.ms_tail", "ms", Lower),
        ("trace.overhead_pct", "%", Lower),
        ("trace.spans", "count", Lower),
        ("run.workers", "count", Higher),
        ("run.available_parallelism", "count", Higher),
    ];
    let mut defs: Vec<PerLayer> = fixed
        .iter()
        .map(|(name, unit, better)| PerLayer {
            name: (*name).to_string(),
            unit,
            better: *better,
        })
        .collect();
    let at = defs
        .iter()
        .position(|d| d.name == "core.node.handler_s")
        .expect("handler_s is in the table");
    let kinds = KINDS.iter().flat_map(|kind| {
        [
            PerLayer {
                name: format!("core.node.{kind}_calls"),
                unit: "count",
                better: Lower,
            },
            PerLayer {
                name: format!("core.node.{kind}_s"),
                unit: "s",
                better: Lower,
            },
        ]
    });
    defs.splice(at..at, kinds);
    defs
}

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// What one run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every correctness check of the run held.
    pub correct: bool,
    /// Operations attempted (passes; worlds on `small_many`).
    pub attempted: u64,
    /// Operations that panicked or failed a check.
    pub failed: u64,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    /// Picks the end-to-end metrics out of `values`.
    ///
    /// # Panics
    ///
    /// Panics if one is missing: the measured run computes all of
    /// them on every workload.
    pub fn end_to_end(correct: bool, attempted: u64, failed: u64, values: &Values) -> Self {
        let metrics = END_TO_END
            .iter()
            .map(|d| {
                let v = values
                    .get(d.name)
                    .unwrap_or_else(|| panic!("end-to-end metric {} was not measured", d.name));
                (d.name.to_string(), *v, d.unit)
            })
            .collect();
        RunResult {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    /// Picks the per-layer metrics out of `values`; one that does not
    /// apply to the workload reads 0.
    ///
    /// # Panics
    ///
    /// Panics if `values` holds a name the registry does not know — a
    /// typo would otherwise silently report 0.
    pub fn per_layer(correct: bool, attempted: u64, failed: u64, values: &Values) -> Self {
        let defs = per_layer();
        for name in values.keys() {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "per-layer metric {name} is not in the registry"
            );
        }
        let metrics = defs
            .into_iter()
            .map(|d| {
                let v = values.get(&d.name).copied().unwrap_or(0.0);
                (d.name, v, d.unit)
            })
            .collect();
        RunResult {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`. Values print with
    /// every digit measured (shortest text that reads back the same
    /// `f64`); a non-finite value is a harness bug and panics.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }

    /// Reads a line [`RunResult::to_json`] wrote (names and units hold
    /// no quotes or escapes, so a scan is enough). Units come back
    /// empty-static; callers look them up in the registry.
    pub fn parse(line: &str) -> Option<RunResult> {
        let field = |key: &str| -> Option<&str> {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let rest = &line[at..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let correct = field("correct")?.parse().ok()?;
        let attempted = field("attempted")?.parse().ok()?;
        let failed = field("failed")?.parse().ok()?;
        let body = &line[line.find("\"metrics\": {")? + 12..];
        let mut metrics = Vec::new();
        for entry in body.split("\"}") {
            let Some(name_start) = entry.find('"') else {
                continue;
            };
            let rest = &entry[name_start + 1..];
            let Some(name_end) = rest.find('"') else {
                continue;
            };
            let name = &rest[..name_end];
            let Some(value_at) = rest.find("\"value\": ") else {
                continue;
            };
            let value_text = &rest[value_at + 9..];
            let value = value_text[..value_text.find(',')?].parse().ok()?;
            metrics.push((name.to_string(), value, ""));
        }
        Some(RunResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }

    /// Value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// `run_seconds` of BENCHMARK.json, and the default `--seconds`.
pub const RUN_SECONDS: u32 = 20;

/// The text of `/BENCHMARK.json`, from the registry and the workload
/// table (`stackbench manifest` prints it; a unit test holds the
/// committed file to it).
pub fn manifest() -> String {
    let mut s = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/bench.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("writing to a String cannot fail");
    let list = |s: &mut String, key: &str, rows: Vec<String>, last: bool| {
        writeln!(s, "  \"{key}\": [").expect("writing to a String cannot fail");
        let n = rows.len();
        for (i, row) in rows.into_iter().enumerate() {
            let comma = if i + 1 == n { "" } else { "," };
            writeln!(s, "    {row}{comma}").expect("writing to a String cannot fail");
        }
        writeln!(s, "  ]{}", if last { "" } else { "," }).expect("writing to a String cannot fail");
    };
    list(
        &mut s,
        "workloads",
        crate::workload::WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
        false,
    );
    list(
        &mut s,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    d.name,
                    d.unit,
                    d.better.as_str(),
                    d.bound
                )
            })
            .collect(),
        false,
    );
    list(
        &mut s,
        "per_layer",
        per_layer()
            .iter()
            .map(|d| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    d.name,
                    d.unit,
                    d.better.as_str()
                )
            })
            .collect(),
        true,
    );
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn json_round_trips_with_all_digits() {
        let mut values = Values::new();
        for (i, d) in END_TO_END.iter().enumerate() {
            values.insert(d.name.to_string(), 1.0 / (i as f64 + 3.0));
        }
        let r = RunResult::end_to_end(true, 1000, 0, &values);
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}"));
        let back = RunResult::parse(&line).expect("own output parses");
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (1000, 0));
        assert_eq!(back.metrics.len(), END_TO_END.len());
        for d in &END_TO_END {
            assert_eq!(
                back.value(d.name),
                values.get(d.name).copied(),
                "{}",
                d.name
            );
        }
    }

    #[test]
    fn per_layer_fills_inapplicable_metrics_with_zero() {
        let mut values = Values::new();
        values.insert("net.tiled.run_s".into(), 2.5);
        let r = RunResult::per_layer(true, 1, 0, &values);
        assert_eq!(r.metrics.len(), per_layer().len());
        assert_eq!(r.value("net.tiled.run_s"), Some(2.5));
        assert_eq!(r.value("core.node.report_calls"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn per_layer_rejects_unknown_names() {
        let mut values = Values::new();
        values.insert("net.tiled.runs".into(), 1.0);
        let _ = RunResult::per_layer(true, 1, 0, &values);
    }

    #[test]
    fn registry_names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = END_TO_END.iter().map(|d| d.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|d| d.name));
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    /// `/BENCHMARK.json` is `stackbench manifest`, byte for byte.
    #[test]
    fn committed_manifest_is_the_registry() {
        assert_eq!(
            MANIFEST,
            manifest(),
            "regenerate with `stackbench manifest > BENCHMARK.json`"
        );
        assert!(MANIFEST.len() <= 64 * 1024);
        for w in &crate::workload::WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['"', '\\', '\n']),
                "{}",
                w.name
            );
        }
    }
}
