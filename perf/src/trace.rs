//! In-memory spans recorded around calls into the workspace's crates.
//!
//! A span is a named interval with an optional parent and the epoch or
//! request it belongs to. Spans stay in memory while the benchmark runs
//! and are written out once at the end, so recording costs two clock
//! reads and a `Vec` push.

use crate::json::{Json, Object};
use std::time::Instant;

/// What a span is part of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    Run,
    Epoch(usize),
    Request(usize),
}

/// One recorded interval, in nanoseconds since the trace origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub key: Key,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span id is its index in [`Trace::spans`].
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    /// Ids of spans begun and not yet ended, innermost last.
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, key: Key) -> usize {
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            key,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, key: Key, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, key);
        let out = f();
        self.end(id);
        out
    }

    /// Record an interval measured elsewhere (a request's due time to its
    /// reply) under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        key: Key,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            parent,
            name,
            key,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover. Children may overlap one another (concurrent
    /// requests); covered time is the union of their intervals.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// The span file: one object per span.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut o = Object::new()
                    .with("id", Json::num(id as f64))
                    .with("name", Json::str(s.name))
                    .with("start_ns", Json::num(s.start_ns as f64))
                    .with("end_ns", Json::num(s.end_ns as f64));
                if let Some(p) = s.parent {
                    o.insert("parent", Json::num(p as f64));
                }
                match s.key {
                    Key::Run => {}
                    Key::Epoch(e) => o.insert("epoch", Json::num(e as f64)),
                    Key::Request(r) => o.insert("request", Json::num(r as f64)),
                }
                Json::Obj(o)
            })
            .collect();
        Json::Obj(
            Object::new()
                .with("schema", Json::num(crate::SCHEMA))
                .with("spans", Json::Arr(spans)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name: "s",
            key: Key::Run,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new();
        t.spans = vec![
            span(None, 0, 100),     // 0: root
            span(Some(0), 10, 30),  // 1
            span(Some(0), 20, 50),  // 2: overlaps 1 → union 10..50
            span(Some(0), 90, 120), // 3: clipped to the parent's end
            span(Some(2), 25, 35),  // 4: grandchild, not the root's child
            span(None, 200, 210),   // 5: leaf
        ];
        assert_eq!(t.self_times_ns(), vec![100 - 40 - 10, 20, 20, 30, 10, 10]);
    }

    #[test]
    fn nested_spans_take_the_innermost_open_parent() {
        let mut t = Trace::new();
        let root = t.begin("epoch", Key::Epoch(3));
        let child = t.spans().len();
        t.time("forward", Key::Epoch(3), || {
            std::thread::sleep(Duration::from_millis(1))
        });
        t.end(root);
        let origin = t.origin;
        t.record(
            "request",
            Some(root),
            Key::Request(7),
            origin,
            origin + Duration::from_micros(5),
        );
        let spans = t.spans();
        assert_eq!(spans[child].parent, Some(root));
        assert!(spans[child].duration_ns() >= 1_000_000);
        assert!(spans[root].duration_ns() >= spans[child].duration_ns());
        assert_eq!(spans[2].duration_ns(), 5_000);
        let text = t.to_json().render();
        assert!(text.contains("\"request\": 7"), "{text}");
        assert!(text.contains("\"epoch\": 3"), "{text}");
    }
}
