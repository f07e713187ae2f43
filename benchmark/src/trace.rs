//! Spans recorded from outside the program: the benchmark wraps each call
//! into a layer's public function in a span, keeps them in memory, and
//! writes them out once at exit. Self time = duration − the part of that
//! interval the span's direct children cover.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. Spans of one statement share `stmt_id`;
/// `parent` indexes the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub stmt_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. A disabled tracer runs the closure and
/// records nothing, which is how the wire pass sends its untraced half:
/// the halves differ by the recording alone.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new() }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`]. Returns the span's
    /// index for use as a child's `parent`.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, stmt_id: u32) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, stmt_id });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `work` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        stmt_id: u32,
        work: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, stmt_id);
        let out = work();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the union of its direct children's intervals (clipped to the
/// parent, so an overlapping or overrunning child is never counted twice
/// or beyond the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let lo = span.start_ns.max(parent.start_ns);
            let hi = span.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Median duration and median self time per span name, in microseconds.
pub fn medians_us(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let slot = by_name.entry(span.name).or_default();
        slot.0.push(span.duration_ns() as f64 / 1e3);
        slot.1.push(self_ns as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, (mut total, mut own))| {
            (name, (crate::stats::median(&mut total), crate::stats::median(&mut own)))
        })
        .collect()
}

/// The trace file's body: every span as `{name, start_ns, end_ns, parent,
/// stmt_id}`.
pub fn to_json(spans: &[Span]) -> Value {
    let items: Vec<Value> = spans
        .iter()
        .map(|s| {
            json!({
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent.map(|p| p as u64),
                "stmt_id": s.stmt_id,
            })
        })
        .collect();
    Value::Array(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, stmt_id: 0 }
    }

    #[test]
    fn self_time_subtracts_child_cover() {
        let spans = vec![
            span("stmt", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("b.inner", 45, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_and_overrunning_children_count_once() {
        let spans = vec![
            span("stmt", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 50, 80, Some(0)),  // overlaps a by 10
            span("c", 90, 140, Some(0)), // overruns the parent by 40
            span("d", 20, 30, Some(0)),  // nested inside a's interval
        ];
        // cover = [10, 80) ∪ [90, 100) = 80
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn childless_span_is_all_self_time() {
        let spans = vec![span("leaf", 5, 25, None)];
        assert_eq!(self_times_ns(&spans), vec![20]);
        let m = medians_us(&spans);
        assert_eq!(m["leaf"], (0.02, 0.02));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, 1, || 7), 7);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let root = t.open("stmt", None, 3);
        t.span("child", Some(root), 3, || ());
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
