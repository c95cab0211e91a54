//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, recorded from the benchmark's own code
//! around the library call: name, start, end, the span that caused it, and
//! the request it belongs to. Spans stay in memory and are written out once
//! the run ends. A layer's self time is its span time minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin;
/// `parent` 0 means a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

/// A span opened with [`Tracer::open`]; hand it back to [`Tracer::close`].
#[must_use]
pub struct OpenSpan {
    pub id: u32,
    name: &'static str,
    parent: u32,
    req: u64,
    start: Instant,
}

/// Span sink shared by every thread of a run. When off, every call is a
/// no-op and ids are 0.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, parent: u32, req: u64) -> OpenSpan {
        let id = if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        OpenSpan {
            id,
            name,
            parent,
            req,
            start: Instant::now(),
        }
    }

    pub fn close(&self, s: OpenSpan) {
        if self.on {
            self.push(s.id, s.name, s.parent, s.req, s.start, Instant::now());
        }
    }

    /// Run `f` inside a span; `f` gets the span id to parent its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let s = self.open(name, parent, req);
        let r = f(s.id);
        self.close(s);
        r
    }

    /// Record a span whose bounds were taken elsewhere (e.g. a chunk's due
    /// time and the arrival of its acknowledgement).
    pub fn record(&self, name: &'static str, parent: u32, req: u64, start: Instant, end: Instant) {
        if self.on {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(id, name, parent, req, start, end);
        }
    }

    fn push(
        &self,
        id: u32,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent,
            req,
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }
}

/// Per span name: calls, total time and self time (nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span. Children may overlap each other (they
/// can run on other threads); overlapping cover is counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        kids.entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns - s.start_ns;
            let Some(ch) = kids.get_mut(&s.id) else {
                return dur;
            };
            ch.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for &(a, b) in ch.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            dur - covered
        })
        .collect()
}

/// Aggregate [`self_times`] by span name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += self_ns;
    }
    out
}

/// Spans as JSON lines, in start order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut v = spans.to_vec();
    v.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = String::with_capacity(v.len() * 96);
    for s in v {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.req
        );
    }
    out
}
