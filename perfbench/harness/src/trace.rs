//! Spans around the benchmark's own calls into each layer.
//!
//! A span records a name, start, end and parent. Spans stay in memory and
//! are written out once, when the run ends. A span's self time is its
//! duration minus the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. When disabled, every call is a no-op, so the
/// untraced runs that give the end-to-end metrics pay nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the recorder's origin to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Records a finished span measured elsewhere (another thread) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, in milliseconds, summed over every span of
    /// that name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for sp in &self.spans {
            if let Some(p) = sp.parent {
                children[p].push((sp.start_ns, sp.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (id, sp) in self.spans.iter().enumerate() {
            let covered = covered_ns(sp.start_ns, sp.end_ns, &mut children[id]);
            let own = (sp.end_ns - sp.start_ns).saturating_sub(covered);
            *out.entry(sp.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// The spans as a JSON array of `{id, parent, name, start_ns, end_ns}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (id, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}}}",
                sp.name, sp.start_ns, sp.end_ns
            );
            s.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push(']');
        s
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut iv = [(10, 30), (20, 40), (50, 60)];
        assert_eq!(covered_ns(0, 100, &mut iv), 40);
        let mut iv = [(0, 200)];
        assert_eq!(covered_ns(50, 100, &mut iv), 50);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "outer",
                parent: None,
                start_ns: 0,
                end_ns: 10_000_000,
            },
            Span {
                name: "inner",
                parent: Some(0),
                start_ns: 1_000_000,
                end_ns: 4_000_000,
            },
        ];
        let self_ms = t.self_ms();
        assert_eq!(self_ms["outer"], 7.0);
        assert_eq!(self_ms["inner"], 3.0);
        let mut off = Tracer::new(false);
        off.enter("x");
        off.exit();
        assert_eq!(off.len(), 0);
    }
}
