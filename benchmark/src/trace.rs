//! Benchmark-owned host-time spans: recorded in memory around calls into the
//! program's public functions, written to `benchmark/out/trace-<workload>.json`
//! when the run ends. Nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` is the index of the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle of an open span; `None` everywhere when tracing is off, so call
/// sites read the same in both modes.
pub type SpanId = Option<usize>;

/// Span recorder shared by the threads of one workload process.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("no thread panics while holding the span list")
    }

    /// Open a span under `parent`.
    pub fn begin(&self, name: impl Into<String>, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span { name: name.into(), start_ns, end_ns: start_ns, parent });
        Some(spans.len() - 1)
    }

    /// Record a span after the fact from two instants taken by the caller
    /// (a progress hook cannot hold a span open across calls).
    pub fn record(&self, name: impl Into<String>, start: Instant, end: Instant, parent: SpanId) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.lock().push(Span {
                name: name.into(),
                start_ns: ns(start),
                end_ns: ns(end),
                parent,
            });
        }
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if let Some(i) = id {
            let end_ns = self.now_ns();
            self.lock()[i].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span; `f` receives the span's id to parent children.
    pub fn span<T>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        let id = self.begin(name, parent);
        let out = f(id);
        self.end(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// The trace document: one object per span with the fields
    /// `name`, `start_ns`, `end_ns`, `parent` and `workload`.
    pub fn to_json(&self, workload: &str) -> serde_json::Value {
        let spans: Vec<serde_json::Value> = self
            .spans()
            .iter()
            .map(|s| {
                let parent = match s.parent {
                    Some(p) => serde_json::json!(p as u64),
                    None => serde_json::Value::Null,
                };
                serde_json::json!({
                    "name": s.name.as_str(),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": parent,
                    "workload": workload,
                })
            })
            .collect();
        serde_json::json!({ "workload": workload, "spans": spans })
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The span's family: its name without a trailing `[index]`.
pub fn family(name: &str) -> &str {
    match name.find('[') {
        Some(i) if name.ends_with(']') => &name[..i],
        _ => name,
    }
}

/// Total self time in milliseconds per span family.
pub fn self_ms_by_family(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(family(&s.name).to_string()).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two client threads under one parent: 10..60 and 40..80 cover 70.
        let spans = vec![
            span("root", 0, 100, None),
            span("c", 10, 60, Some(0)),
            span("c", 40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("root", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 40, 90, Some(0)),
            span("outside", 60, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent() {
        let spans = vec![
            span("root", 0, 10, None),
            span("kid", 2, 4, Some(0)),
            span("grand", 2, 4, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![8, 0, 2]);
    }

    #[test]
    fn families_strip_the_index() {
        assert_eq!(family("autotune.unit[17]"), "autotune.unit");
        assert_eq!(family("store.publish"), "store.publish");
        let spans = vec![
            span("autotune.tune_session", 0, 3_000_000, None),
            span("autotune.unit[0]", 0, 1_000_000, Some(0)),
            span("autotune.unit[1]", 1_000_000, 2_500_000, Some(0)),
        ];
        let by = self_ms_by_family(&spans);
        assert_eq!(by["autotune.unit"], 2.5);
        assert_eq!(by["autotune.tune_session"], 0.5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let got = t.span("x", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(got, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let t = Tracer::new(true);
        t.span("outer", None, |outer| t.span("inner", outer, |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let doc = t.to_json("w");
        assert_eq!(doc.get("spans").and_then(|s| s.as_array()).map(Vec::len), Some(2));
    }
}
