//! Spans recorded from outside the program: the harness wraps each
//! operation and each public call it makes into a layer, then replays
//! the round's inputs through deeper entry points ("probes") whose
//! spans hang under the call they decompose.
//!
//! Spans live in a vector sized up front and are written out when the
//! run ends. A span's self time is its duration minus what its direct
//! children cover; probe children run after the round, so they are
//! charged by duration (clipped to the parent), not by interval.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based; 0 means "none" in `parent` and `op`.
    pub id: u32,
    pub parent: u32,
    /// The operation this span belongs to (an op span has `id == op`);
    /// 0 for a probe that decomposes no operation.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; every method is a cheap no-op when not,
/// so the untraced run executes the same harness code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 18 } else { 0 }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let op = match parent {
            0 => 0,
            p => self.spans[p as usize - 1].op,
        };
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span under `parent` (0: a probe that decomposes no
    /// operation); returns its id, 0 when disabled.
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.now_ns();
        self.push(name, parent, now, now)
    }

    /// Opens the span of one operation (`op == id`).
    pub fn begin_op(&mut self, name: &'static str) -> u32 {
        let id = self.begin(name, 0);
        if id != 0 {
            self.spans[id as usize - 1].op = id;
        }
        id
    }

    pub fn end(&mut self, id: u32) {
        if id != 0 {
            let now = self.now_ns();
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Times `f` as a span under `parent`.
    pub fn scope<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records an interval that a thread which cannot share the tracer
    /// timed for itself.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        (start, end): (Instant, Instant),
    ) -> u32 {
        let since = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.push(name, parent, since(start), since(end))
    }

    /// [`Tracer::record`] for an operation.
    pub fn record_op(&mut self, name: &'static str, interval: (Instant, Instant)) -> u32 {
        let id = self.record(name, 0, interval);
        if id != 0 {
            self.spans[id as usize - 1].op = id;
        }
        id
    }

    /// The first span named `name` directly under `parent`, 0 if there
    /// is none (or tracing is off) — how a probe finds the live call it
    /// decomposes.
    pub fn child(&self, parent: u32, name: &str) -> u32 {
        if parent == 0 {
            return 0;
        }
        self.spans[parent as usize..]
            .iter()
            .take_while(|s| s.op == self.spans[parent as usize - 1].op)
            .find(|s| s.parent == parent && s.name == name)
            .map_or(0, |s| s.id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(f64::from(s.id))),
                        ("parent", Json::Num(f64::from(s.parent))),
                        ("op", Json::Num(f64::from(s.op))),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span of `spans` (which must be a contiguous run
/// of one tracer's spans, children after parents): duration minus the
/// summed duration of direct children, never below zero.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let Some(first) = spans.first() else {
        return Vec::new();
    };
    let base = first.id;
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent >= base {
            covered[(s.parent - base) as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// What one traced round's spans say, per span name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RoundProfile {
    /// Σ self time in ns and the individual self times, by name.
    pub by_name: BTreeMap<&'static str, Vec<u64>>,
    /// Σ duration of the op spans.
    pub op_ns: u64,
    /// Σ self time, inside operations, of spans `is_layer` accepts.
    pub attributed_ns: u64,
    /// Σ self time, inside operations, of every other span — the op
    /// spans themselves and calls no listed layer accounts for.
    pub unattributed_ns: u64,
}

pub fn profile_round(spans: &[Span], is_layer: impl Fn(&str) -> bool) -> RoundProfile {
    let mut profile = RoundProfile::default();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        profile.by_name.entry(span.name).or_default().push(self_ns);
        if span.op == 0 {
            continue;
        }
        if span.id == span.op {
            profile.op_ns += span.duration_ns();
        }
        if is_layer(span.name) {
            profile.attributed_ns += self_ns;
        } else {
            profile.unattributed_ns += self_ns;
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, op: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ a [10,40) ⊃ a1 [15,25); sibling b [50,90)
        let spans = [
            span(1, 0, 1, "op", 0, 100),
            span(2, 1, 1, "a", 10, 40),
            span(3, 2, 1, "a1", 15, 25),
            span(4, 1, 1, "b", 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn replayed_children_are_charged_by_duration_and_clipped() {
        // the probes ran after the op, so their intervals lie outside it
        let spans = [
            span(5, 0, 5, "op", 0, 100),
            span(6, 5, 5, "call", 0, 90),
            span(7, 6, 5, "probe.x", 500, 560),
            span(8, 6, 5, "probe.y", 560, 600),
        ];
        // call: 90 - (60 + 40) clips to 0
        assert_eq!(self_times_ns(&spans), vec![10, 0, 60, 40]);
    }

    #[test]
    fn profile_splits_attributed_from_unattributed() {
        let spans = [
            span(1, 0, 1, "op", 0, 100),
            span(2, 1, 1, "layer.a", 0, 60),
            span(3, 1, 1, "glue", 60, 80),
            span(4, 0, 0, "layer.free", 200, 230),
        ];
        let p = profile_round(&spans, |n| n.starts_with("layer."));
        assert_eq!(p.op_ns, 100);
        assert_eq!(p.attributed_ns, 60);
        assert_eq!(p.unattributed_ns, 20 + 20);
        assert_eq!(p.by_name["layer.free"], vec![30]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.begin_op("op");
        let got = t.scope("x", op, || 7);
        t.end(op);
        assert_eq!((op, got), (0, 7));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_their_op() {
        let mut t = Tracer::new(true);
        let op = t.begin_op("op");
        t.scope("x", op, || ());
        let free = t.begin("free", 0);
        t.end(free);
        t.end(op);
        let s = t.spans();
        assert_eq!((s[0].id, s[0].op, s[0].parent), (1, 1, 0));
        assert_eq!((s[1].op, s[1].parent), (1, 1));
        assert_eq!((s[2].op, s[2].parent), (0, 0));
        assert!(s[0].end_ns >= s[1].end_ns);
    }
}
