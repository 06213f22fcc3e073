//! In-memory span recorder for the traced run: name, start, end and
//! parent per span, one workload id per file, written out once at
//! exit. A layer's self time is its span minus the part its children
//! cover.

use crate::timed::{KindTotals, KINDS};
use std::fmt::Write;
use std::time::Instant;

/// One recorded span; times are microseconds since the recorder began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or stage name.
    pub name: String,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Handler activity of one simulated epoch of the wrapped pass.
#[derive(Debug, Clone, Copy)]
pub struct EpochKinds {
    /// The epoch.
    pub epoch: u64,
    /// Per-kind calls and sampled time within it.
    pub totals: KindTotals,
}

/// Collects spans and per-epoch handler aggregates.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    workload: String,
    seed: u64,
    spans: Vec<Span>,
    epochs: Vec<EpochKinds>,
}

impl Recorder {
    /// Starts recording for `workload` at `seed`.
    pub fn new(workload: &str, seed: u64) -> Self {
        Recorder {
            origin: Instant::now(),
            workload: workload.to_string(),
            seed,
            spans: Vec::new(),
            epochs: Vec::new(),
        }
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    /// Ends span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans[id].end_us = end;
        (end - self.spans[id].start_us) * 1e-6
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent);
        (out, (end - start).as_secs_f64())
    }

    /// Adds the handler aggregate of one epoch.
    pub fn push_epoch(&mut self, epoch: u64, totals: KindTotals) {
        self.epochs.push(EpochKinds { epoch, totals });
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id` in seconds: its duration minus its
    /// direct children's.
    pub fn self_time_s(&self, id: usize) -> f64 {
        let own = self.spans[id].end_us - self.spans[id].start_us;
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_us - s.start_us)
            .sum();
        (own - children) * 1e-6
    }

    /// The trace file's content.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"time_unit\": \"us\",\n \"spans\": [",
            self.workload, self.seed
        );
        for (i, span) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                s,
                "{sep}  {{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start\": {:.1}, \"end\": {:.1}}}",
                span.name, span.start_us, span.end_us
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("\n ],\n \"handler_epochs\": [");
        for (i, e) in self.epochs.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            write!(s, "{sep}  {{\"epoch\": {}", e.epoch).expect("writing to a String cannot fail");
            for (k, kind) in KINDS.iter().enumerate() {
                write!(
                    s,
                    ", \"{kind}\": {{\"calls\": {}, \"est_s\": {:.6}}}",
                    e.totals.calls[k],
                    e.totals.estimated_s(k)
                )
                .expect("writing to a String cannot fail");
            }
            s.push('}');
        }
        s.push_str("\n ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new("calm", 1);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = rec.record("pass", at(0), at(100), None);
        rec.record("epoch", at(10), at(40), Some(root));
        let e2 = rec.record("epoch", at(40), at(90), Some(root));
        rec.record("window", at(50), at(60), Some(e2));
        assert!((rec.self_time_s(root) - 0.020).abs() < 1e-9);
        assert!((rec.self_time_s(e2) - 0.040).abs() < 1e-9);
        let json = rec.to_json();
        assert!(json.contains("\"workload\": \"calm\""));
        assert!(json.contains("{\"id\": 3, \"parent\": 2, \"name\": \"window\""));
    }

    #[test]
    fn open_and_close_measure_elapsed_time() {
        let mut rec = Recorder::new("lossy", 2);
        let id = rec.open("stage", None);
        std::thread::sleep(Duration::from_millis(5));
        assert!(rec.close(id) >= 0.005);
        let ((), secs) = rec.time("other", Some(id), || {
            std::thread::sleep(Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert_eq!(rec.spans().len(), 2);
    }
}
