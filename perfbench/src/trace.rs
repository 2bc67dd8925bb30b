//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each of its own calls into a
//! library layer: name, start, end, parent span and request id. Spans stay
//! in memory until the run ends and are then written out as JSON lines.
//! A layer's self time is its spans' durations minus the part of each
//! interval that its child spans cover; children that run concurrently
//! (the DSE's parallel leaf evaluations) are merged as an interval union,
//! so overlapping children are not subtracted twice.

use drq::telemetry::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; [`SpanId::NONE`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every method is a no-op when disabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking recorder");
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            request,
        });
        SpanId(spans.len() - 1)
    }

    pub fn end(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")[id.0]
            .end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &self,
        name: &str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f(id);
        self.end(id);
        out
    }

    /// Records an already-measured interval (used where the start and end
    /// are observed on different threads, as for a request's round trip).
    pub fn record(&self, name: &str, parent: SpanId, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(Span {
                name: name.to_string(),
                start_ns: ns(start),
                end_ns: ns(end),
                parent: (parent != SpanId::NONE).then_some(parent.0),
                request,
            });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .clone()
    }

    /// Every span as one JSON line (times in microseconds since the
    /// recorder was created).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans().iter().enumerate() {
            let line = Json::obj([
                ("id", Json::U64(id as u64)),
                ("name", Json::str(s.name.as_str())),
                ("start_us", Json::F64(s.start_ns as f64 / 1e3)),
                ("end_us", Json::F64(s.end_ns as f64 / 1e3)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("request", Json::U64(s.request)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

/// Total length covered by a set of half-open `[start, end)` intervals.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        if e <= s {
            continue;
        }
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns().saturating_sub(union_len(kids)))
        .collect()
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub busy_ms: f64,
    pub self_ms: f64,
}

pub fn layer_totals(spans: &[Span]) -> BTreeMap<String, LayerTotals> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name.clone()).or_default();
        t.calls += 1;
        t.busy_ms += s.duration_ns() as f64 / 1e6;
        t.self_ms += self_ns as f64 / 1e6;
    }
    out
}

/// Share (%) of the ops' wall time that no layer span covers. An op is a
/// `bench.unit` span. Its `bench.reference` children are the untraced
/// library call, run only to check the replay, and are not part of the
/// op. Any other `bench.*` child (tune's evaluation) is op work with no
/// layer split, so it counts as unattributed. 100 when the trace has no
/// op with wall time left: then no layer accounts for anything.
pub fn unattributed_pct(spans: &[Span]) -> f64 {
    let mut reference: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut layers: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        let Some(p) = s.parent.filter(|&p| spans[p].name == "bench.unit") else {
            continue;
        };
        let interval = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
        if s.name == "bench.reference" {
            reference[p].push(interval);
        } else if !s.name.starts_with("bench.") {
            layers[p].push(interval);
        }
    }
    let (mut wall, mut uncovered) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.name != "bench.unit" {
            continue;
        }
        let op = s.duration_ns().saturating_sub(union_len(&mut reference[i]));
        wall += op;
        uncovered += op.saturating_sub(union_len(&mut layers[i]));
    }
    if wall == 0 {
        100.0
    } else {
        100.0 * uncovered as f64 / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_empties() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10)]), 10);
        assert_eq!(union_len(&mut [(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&mut [(20, 30), (0, 10)]), 20);
        assert_eq!(union_len(&mut [(0, 10), (10, 20)]), 20);
        assert_eq!(union_len(&mut [(0, 100), (10, 20), (30, 40)]), 100);
        assert_eq!(union_len(&mut [(5, 5), (7, 3)]), 0);
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("a.inner", 15, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 15, 50, 5]);
    }

    #[test]
    fn concurrent_children_are_subtracted_once() {
        // Two parallel evaluations overlap on [20, 50): the parent is
        // covered on [10, 70), so its self time is 40 of 100, not 100 - 90.
        let spans = vec![
            span("run", 0, 100, None),
            span("eval", 10, 50, Some(0)),
            span("eval", 20, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
        let totals = layer_totals(&spans);
        assert_eq!(totals["eval"].calls, 2);
        assert!((totals["eval"].busy_ms - 90e-6).abs() < 1e-12);
        assert!((totals["run"].self_ms - 40e-6).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 0, 15, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn unattributed_share_counts_only_layer_spans() {
        // An op of 100: a 40 reference call (not op work), 50 in a layer
        // with a nested child, and a 10 evaluation no layer span covers.
        let spans = vec![
            span("bench.unit", 0, 100, None),
            span("bench.reference", 0, 40, Some(0)),
            span("nn.forward", 40, 90, Some(0)),
            span("core.predictor", 45, 60, Some(2)),
            span("bench.eval", 90, 100, Some(0)),
        ];
        assert!((unattributed_pct(&spans) - 100.0 * 10.0 / 60.0).abs() < 1e-9);
        // Layer spans outside any op explain nothing; no op at all reads 100.
        assert_eq!(unattributed_pct(&[span("sim.evaluate", 0, 10, None)]), 100.0);
        assert_eq!(unattributed_pct(&[span("bench.unit", 0, 10, None)]), 100.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.begin("x", SpanId::NONE, 0);
        assert_eq!(id, SpanId::NONE);
        t.end(id);
        assert_eq!(t.span("y", SpanId::NONE, 0, |_| 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let t = Tracer::new(true);
        t.span("outer", SpanId::NONE, 3, |outer| {
            t.span("inner", outer, 3, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
