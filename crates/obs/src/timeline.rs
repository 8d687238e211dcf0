//! The globally ordered timeline and its export formats.
//!
//! Per-rank buffers drain into a [`Timeline`] of runs; each run's rank
//! traces are kept in ascending rank order and each rank's events in its
//! program order. Exports iterate runs in ascending run-id order, so the
//! serialized output is a pure function of the recorded virtual events —
//! never of the schedule that produced them.

use std::fmt;

use crate::event::Event;
use crate::json::{canonical_text, JsonError, Reader};
use crate::metrics::MetricsRegistry;
use crate::sink::RankTrace;
use serde_json::{escape_into, write_number, Value};

/// One simulated run's traces: an id (the autotuner's deterministic run
/// index), a human-readable label, and the per-rank traces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelineRun {
    /// Deterministic run id (doubles as the Chrome trace `pid`).
    pub id: u64,
    /// Label, e.g. `pr4pc4nb16/rep0/tuned`.
    pub label: String,
    /// Per-rank traces, ascending by rank.
    pub ranks: Vec<RankTrace>,
}

impl TimelineRun {
    /// Canonical JSON form: `{"id", "label", "ranks"}` — the unit the
    /// session checkpoint persists so a resumed sweep re-exports the very
    /// same timeline bytes.
    pub fn to_json(&self) -> Value {
        let ranks: Vec<Value> = self.ranks.iter().map(|r| r.to_json()).collect();
        serde_json::json!({
            "id": self.id,
            "label": self.label.as_str(),
            "ranks": ranks,
        })
    }

    /// Append the compact text of [`TimelineRun::to_json`] to `out` — the
    /// bytes of `serde_json::to_string(&self.to_json())`, rendered without
    /// building the tree. This is one line of a checkpoint's `timeline.jsonl`
    /// sidecar (the caller adds the newline); `to_json` is the reference it
    /// is tested against. Leaves go through the shim's own renderers, and
    /// each rank's small `metrics` object still goes through its `Value`.
    pub fn write_line(&self, out: &mut String) {
        self.write_compact(out).expect("a String sink never fails");
    }

    fn write_compact(&self, out: &mut String) -> fmt::Result {
        out.push_str("{\"id\":");
        write_number(out, self.id as f64)?;
        out.push_str(",\"label\":");
        escape_into(out, &self.label)?;
        out.push_str(",\"ranks\":[");
        for (i, trace) in self.ranks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"events\":[");
            for (j, e) in trace.events.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"arg\":");
                write_number(out, e.arg)?;
                out.push_str(",\"dur\":");
                write_number(out, e.dur)?;
                out.push_str(",\"kind\":");
                escape_into(out, e.kind.name())?;
                out.push_str(",\"label\":");
                escape_into(out, &e.label)?;
                out.push_str(",\"start\":");
                write_number(out, e.start)?;
                out.push('}');
            }
            out.push_str("],\"metrics\":");
            let metrics = serde_json::to_string(&trace.metrics.to_json());
            out.push_str(&metrics.expect("json writer is total"));
            out.push_str(",\"rank\":");
            write_number(out, trace.rank as f64)?;
            out.push('}');
        }
        out.push_str("]}");
        Ok(())
    }

    /// Inverse of [`TimelineRun::to_json`]: decode the run at `r`.
    pub fn read(r: Reader<'_, '_>) -> Result<TimelineRun, JsonError> {
        Ok(TimelineRun {
            id: r.at("id").u64()?,
            label: r.at("label").str()?.to_string(),
            ranks: r.at("ranks").list(RankTrace::read)?,
        })
    }
}

/// An ordered collection of runs ready for export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    runs: Vec<TimelineRun>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Append one run's rank traces. Ranks are sorted into ascending rank
    /// order so the export order never depends on collection order.
    pub fn add_run(&mut self, id: u64, label: impl Into<String>, mut ranks: Vec<RankTrace>) {
        ranks.sort_by_key(|r| r.rank);
        self.runs.push(TimelineRun { id, label: label.into(), ranks });
    }

    /// The recorded runs.
    pub fn runs(&self) -> &[TimelineRun] {
        &self.runs
    }

    /// Number of runs recorded.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when no run was recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total events across all runs and ranks.
    pub fn event_count(&self) -> usize {
        self.runs.iter().map(|r| r.ranks.iter().map(|t| t.events.len()).sum::<usize>()).sum()
    }

    /// Runs in ascending id order (the canonical export order).
    fn ordered(&self) -> Vec<&TimelineRun> {
        let mut v: Vec<&TimelineRun> = self.runs.iter().collect();
        v.sort_by_key(|r| r.id);
        v
    }

    /// Chrome/Perfetto trace-event JSON (the `{"traceEvents": [...]}`
    /// envelope) as canonical pretty-printed text, trailing newline included
    /// — the byte surface the determinism oracles and the golden trace
    /// fixture compare. Each run becomes one process (`pid` = run id, named
    /// by a `process_name` metadata event), each rank one thread; events are
    /// complete (`"X"`) spans with microsecond virtual timestamps. The text
    /// is written straight out, event by event, in exactly the layout
    /// [`canonical_text`] gives the equivalent tree.
    pub fn to_chrome_string(&self) -> String {
        let mut out = String::new();
        self.write_chrome(&mut out).expect("a String sink never fails");
        out
    }

    fn write_chrome(&self, out: &mut String) -> fmt::Result {
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");
        let mut first = true;
        let mut element = |out: &mut String, event: ChromeEvent<'_>| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            event.write(out)
        };
        for run in self.ordered() {
            element(out, ChromeEvent::metadata("process_name", &run.label, run.id, 0))?;
            for trace in &run.ranks {
                let rank = format!("rank {}", trace.rank);
                element(out, ChromeEvent::metadata("thread_name", &rank, run.id, trace.rank))?;
                for e in &trace.events {
                    element(out, ChromeEvent::span(e, run.id, trace.rank))?;
                }
            }
        }
        out.push_str(if first { "]\n}\n" } else { "\n  ]\n}\n" });
        Ok(())
    }

    /// Folded-stack output for flamegraph tools: one line per distinct
    /// `run;rank;category;label` stack, weighted by the summed charged
    /// path time in integer nanoseconds. Only path-charging event kinds
    /// ([`crate::EventKind::charges_path`]) contribute. Lines are sorted,
    /// so equal timelines fold to byte-identical text.
    pub fn to_folded(&self) -> String {
        use std::collections::BTreeMap;
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for run in self.ordered() {
            for trace in &run.ranks {
                for e in &trace.events {
                    if !e.kind.charges_path() {
                        continue;
                    }
                    let ns = (e.arg * 1e9).round();
                    // Drop non-positive and NaN weights alike.
                    if ns.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                        continue;
                    }
                    let stack =
                        format!("{};rank {};{};{}", run.label, trace.rank, e.kind.name(), e.label);
                    *stacks.entry(stack).or_insert(0) += ns as u64;
                }
            }
        }
        let mut out = String::new();
        for (stack, weight) in stacks {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }
}

/// The one entry of a Chrome event's `args` object.
enum ChromeArg<'a> {
    /// `{"name": …}` on the metadata events naming a process or thread.
    Name(&'a str),
    /// `{"arg": …}` on a span: the event's kind-specific scalar.
    Arg(f64),
}

/// One element of the Chrome export's `traceEvents`, in its key order.
struct ChromeEvent<'a> {
    arg: ChromeArg<'a>,
    cat: &'a str,
    /// Absent on metadata events.
    dur: Option<f64>,
    name: &'a str,
    ph: &'static str,
    pid: u64,
    tid: usize,
    ts: f64,
}

impl<'a> ChromeEvent<'a> {
    /// The event naming process `pid` (`tid` 0) or thread `tid` of it.
    fn metadata(name: &'static str, label: &'a str, pid: u64, tid: usize) -> Self {
        let arg = ChromeArg::Name(label);
        ChromeEvent { arg, cat: "__metadata", dur: None, name, ph: "M", pid, tid, ts: 0.0 }
    }

    /// The complete span of one recorded event, in microseconds.
    fn span(e: &'a Event, pid: u64, tid: usize) -> Self {
        ChromeEvent {
            arg: ChromeArg::Arg(e.arg),
            cat: e.kind.name(),
            dur: Some(e.dur * 1e6),
            name: &e.label,
            ph: "X",
            pid,
            tid,
            ts: e.start * 1e6,
        }
    }

    /// Write the event at its depth in the pretty document (an element of
    /// an array two levels down), after the `[` or `,` that precedes it.
    fn write(&self, out: &mut String) -> fmt::Result {
        out.push_str("\n    {\n      \"args\": {\n        ");
        match self.arg {
            ChromeArg::Name(name) => {
                out.push_str("\"name\": ");
                escape_into(out, name)?;
            }
            ChromeArg::Arg(arg) => {
                out.push_str("\"arg\": ");
                write_number(out, arg)?;
            }
        }
        out.push_str("\n      },\n      \"cat\": ");
        escape_into(out, self.cat)?;
        if let Some(dur) = self.dur {
            out.push_str(",\n      \"dur\": ");
            write_number(out, dur)?;
        }
        out.push_str(",\n      \"name\": ");
        escape_into(out, self.name)?;
        out.push_str(",\n      \"ph\": ");
        escape_into(out, self.ph)?;
        out.push_str(",\n      \"pid\": ");
        write_number(out, self.pid as f64)?;
        out.push_str(",\n      \"tid\": ");
        write_number(out, self.tid as f64)?;
        out.push_str(",\n      \"ts\": ");
        write_number(out, self.ts)?;
        out.push_str("\n    }");
        Ok(())
    }
}

/// A timeline bundled with the metrics aggregated over its runs — what a
/// tuning sweep attaches to its `TuningReport` and what the figure drivers
/// write behind `--trace-out`/`--folded-out`/`--metrics-out`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// The ordered trace timeline.
    pub timeline: Timeline,
    /// Metrics merged over all runs and ranks in `(run, rank)` order.
    pub metrics: MetricsRegistry,
}

impl ObsReport {
    /// An empty report.
    pub fn new() -> Self {
        ObsReport::default()
    }

    /// Add one run: its rank traces join the timeline and their registries
    /// are folded into the aggregate metrics in ascending rank order.
    /// Callers must add runs in ascending id order (or sort before
    /// exporting — the timeline does) and fold metrics exactly once.
    pub fn add_run(&mut self, id: u64, label: impl Into<String>, ranks: Vec<RankTrace>) {
        let mut ranks = ranks;
        ranks.sort_by_key(|r| r.rank);
        for r in &ranks {
            self.metrics.merge(&r.metrics);
        }
        self.timeline.add_run(id, label, ranks);
    }

    /// Fold another report in, re-basing its run ids after this report's
    /// and prefixing its run labels with `prefix/`. Metrics merge once
    /// (they were already aggregated per report). Used by the figure
    /// drivers to combine independent sweeps in serial order, which keeps
    /// the combined export independent of `--jobs`.
    pub fn absorb(&mut self, other: ObsReport, prefix: &str) {
        let base = self.timeline.runs.len() as u64;
        let mut runs = other.timeline.runs;
        runs.sort_by_key(|r| r.id);
        for (i, run) in runs.into_iter().enumerate() {
            self.timeline.add_run(base + i as u64, format!("{prefix}/{}", run.label), run.ranks);
        }
        self.metrics.merge(&other.metrics);
    }

    /// Canonical pretty-printed metrics JSON (trailing newline included).
    pub fn metrics_string(&self) -> String {
        canonical_text(&self.metrics.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::json::read_value;
    use crate::sink::RankRecorder;
    use serde_json::Tape;

    fn trace(rank: usize, label: &str, start: f64, arg: f64) -> RankTrace {
        let mut r = RankRecorder::new(rank);
        r.record(Event { kind: EventKind::KernelExec, label: label.into(), start, dur: arg, arg });
        r.metrics_mut().incr("samples_taken", 1);
        r.into_trace()
    }

    #[test]
    fn chrome_export_is_deterministic_and_ordered() {
        let mut a = Timeline::new();
        a.add_run(1, "run-b", vec![trace(1, "gemm", 1.0, 0.5), trace(0, "trsm", 0.0, 0.25)]);
        a.add_run(0, "run-a", vec![trace(0, "potrf", 0.0, 0.125)]);
        let s1 = a.to_chrome_string();
        let s2 = a.clone().to_chrome_string();
        assert_eq!(s1, s2);
        // Runs export in id order regardless of insertion order.
        assert!(s1.find("run-a").unwrap() < s1.find("run-b").unwrap());
        // Ranks export in rank order regardless of collection order.
        assert!(s1.find("trsm").unwrap() < s1.find("gemm").unwrap());
        assert!(s1.contains("\"ph\": \"X\""));
        assert!(s1.contains("\"traceEvents\""));
        assert_eq!(a.event_count(), 3);
    }

    #[test]
    fn folded_weights_sum_per_stack() {
        let mut t = Timeline::new();
        let mut r = RankRecorder::new(0);
        for _ in 0..2 {
            r.record(Event {
                kind: EventKind::KernelExec,
                label: "gemm".into(),
                start: 0.0,
                dur: 1e-6,
                arg: 1e-6,
            });
        }
        // A decision event must not contribute weight.
        r.record(Event {
            kind: EventKind::Decision,
            label: "gemm".into(),
            start: 0.0,
            dur: 0.0,
            arg: 0.5,
        });
        t.add_run(0, "sweep", vec![r.into_trace()]);
        let folded = t.to_folded();
        assert_eq!(folded, "sweep;rank 0;kernel_exec;gemm 2000\n");
    }

    #[test]
    fn obs_report_aggregates_metrics_once() {
        let mut a = ObsReport::new();
        a.add_run(0, "r0", vec![trace(0, "gemm", 0.0, 1.0), trace(1, "gemm", 0.0, 1.0)]);
        assert_eq!(a.metrics.counter("samples_taken"), 2);
        let mut b = ObsReport::new();
        b.add_run(0, "r0", vec![trace(0, "trsm", 0.0, 1.0)]);
        a.absorb(b, "space");
        assert_eq!(a.metrics.counter("samples_taken"), 3);
        assert_eq!(a.timeline.len(), 2);
        assert_eq!(a.timeline.runs()[1].label, "space/r0");
        // Rebased id continues after the existing runs.
        assert_eq!(a.timeline.runs()[1].id, 1);
    }

    #[test]
    fn run_json_round_trips_bit_exactly() {
        let run = TimelineRun {
            id: 42,
            label: "pr4pc4nb16/rep0/full".into(),
            ranks: vec![trace(0, "gemm", 0.1 + 0.2, 1.0 / 3.0), trace(1, "trsm", 0.5, 0.25)],
        };
        let text = canonical_text(&run.to_json());
        let back = TimelineRun::read(Reader::root("run", Tape::parse(&text).unwrap().root()));
        let back = back.unwrap();
        assert_eq!(back, run);
        // Bit-exactness carries through to the export surface.
        let mut a = Timeline::new();
        a.add_run(run.id, run.label.clone(), run.ranks.clone());
        let mut b = Timeline::new();
        b.add_run(back.id, back.label.clone(), back.ranks.clone());
        assert_eq!(a.to_chrome_string(), b.to_chrome_string());
        let err = read_value("run", &serde_json::json!({"id": 1}), TimelineRun::read).unwrap_err();
        assert_eq!(err.to_string(), "label: missing (expected a string)");
    }

    #[test]
    fn empty_exports() {
        let t = Timeline::new();
        assert!(t.is_empty());
        assert_eq!(t.to_folded(), "");
        let envelope = serde_json::json!({ "displayTimeUnit": "ms", "traceEvents": [] });
        assert_eq!(t.to_chrome_string(), canonical_text(&envelope));
        assert!(t.to_chrome_string().contains("\"traceEvents\": []"));
    }
}
