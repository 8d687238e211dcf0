//! Per-rank event collection: the buffer/registry pair each simulated rank
//! records into.

use crate::event::Event;
use crate::json::{JsonError, Reader};
use crate::metrics::MetricsRegistry;

/// The per-rank recording state: an event buffer plus a metrics registry,
/// both filled strictly in the rank's program order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankRecorder {
    rank: usize,
    events: Vec<Event>,
    metrics: MetricsRegistry,
}

impl RankRecorder {
    /// A fresh recorder for `rank`.
    pub fn new(rank: usize) -> Self {
        RankRecorder { rank, events: Vec::new(), metrics: MetricsRegistry::new() }
    }

    /// A fresh recorder whose event buffer is pre-sized for `capacity`
    /// events. Capacity never affects recorded contents — callers (the
    /// autotune driver) feed back the event count of earlier repetitions so
    /// later ones skip the buffer's growth reallocations.
    pub fn with_capacity(rank: usize, capacity: usize) -> Self {
        RankRecorder { rank, events: Vec::with_capacity(capacity), metrics: MetricsRegistry::new() }
    }

    /// The rank being recorded.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Append one event. Arrival order is preserved: per-rank buffers are
    /// the unit of ordering in the exported timeline.
    pub fn record(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Events recorded so far, in program order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Mutable access to the rank's metrics registry.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Finalize into an immutable [`RankTrace`].
    pub fn into_trace(self) -> RankTrace {
        RankTrace { rank: self.rank, events: self.events, metrics: self.metrics }
    }
}

/// One rank's finished trace: the event buffer and the metrics gathered
/// alongside it. `PartialEq` is bit-exact — the determinism oracles compare
/// whole traces across schedules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    /// The rank the events belong to.
    pub rank: usize,
    /// Events in the rank's program order (nondecreasing virtual start
    /// times; see `docs/OBSERVABILITY.md` on the ordering guarantee).
    pub events: Vec<Event>,
    /// Counters, sums, and histograms recorded by this rank.
    pub metrics: MetricsRegistry,
}

impl RankTrace {
    /// Canonical JSON form: `{"events", "metrics", "rank"}`. A trace
    /// restored via [`RankTrace::read`] compares equal (bit-exact)
    /// to the original, which is what lets checkpointed observability
    /// state survive a kill/resume without perturbing the export.
    pub fn to_json(&self) -> serde_json::Value {
        let events: Vec<serde_json::Value> = self.events.iter().map(|e| e.to_json()).collect();
        let metrics = self.metrics.to_json();
        serde_json::json!({
            "events": events,
            "metrics": metrics,
            "rank": self.rank as u64,
        })
    }

    /// Inverse of [`RankTrace::to_json`]: decode the trace at `r`.
    pub fn read(r: Reader<'_, '_>) -> Result<RankTrace, JsonError> {
        Ok(RankTrace {
            rank: r.at("rank").int()?,
            events: r.at("events").list(Event::read)?,
            metrics: MetricsRegistry::read(r.at("metrics"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(label: &str, start: f64) -> Event {
        Event { kind: EventKind::KernelExec, label: label.into(), start, dur: 1.0, arg: 1.0 }
    }

    #[test]
    fn recorder_preserves_order() {
        let mut r = RankRecorder::new(3);
        r.record(ev("a", 0.0));
        r.record(ev("b", 2.0));
        r.metrics_mut().incr("samples_taken", 2);
        let t = r.into_trace();
        assert_eq!(t.rank, 3);
        assert_eq!(t.events.len(), 2);
        assert_eq!(&*t.events[0].label, "a");
        assert_eq!(t.metrics.counter("samples_taken"), 2);
    }
}
