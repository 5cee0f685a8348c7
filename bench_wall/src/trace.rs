//! Spans recorded by the benchmark around its calls into each layer:
//! kept in memory, written as JSON lines when the run ends. Spans inside
//! the measured program are a later change (ROADMAP item 5).

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Lane 0 is the benchmark's own call tree: its spans nest and siblings
/// never overlap, so self times add up to the root's duration. Lane 1
/// holds per-request spans of the open loop, which overlap freely.
pub const LANE_CALLS: u8 = 0;
pub const LANE_REQUESTS: u8 = 1;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Batch or request number shared by the spans of one operation.
    pub req: u64,
    pub lane: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span on the call lane. When tracing is off this is one
    /// branch and nothing is stored.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            req,
            lane: LANE_CALLS,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() as SpanId - 1)
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Records a span whose times were taken elsewhere (another thread).
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        lane: u8,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            req,
            lane,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        Some(self.spans.len() as SpanId - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("name", Json::Str(s.name.into())),
                ("req", Json::Num(s.req as f64)),
                ("lane", Json::Num(f64::from(s.lane))),
                ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per span name on one lane, in nanoseconds.
pub fn self_time_by_name(spans: &[Span], lane: u8) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.lane == lane {
            *out.entry(s.name).or_insert(0) += own;
        }
    }
    out
}

/// Share of the root span's duration that the call lane's self times add
/// up to (100 when every child lies inside its parent and siblings do not
/// overlap).
pub fn self_time_cover_pct(spans: &[Span], root: SpanId) -> f64 {
    let total: u64 = self_time_by_name(spans, LANE_CALLS).values().sum();
    let r = &spans[root as usize];
    100.0 * total as f64 / (r.end_ns - r.start_ns).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            req: 0,
            lane: LANE_CALLS,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            // Overlaps `a` by 10 and sticks out of the root by 20.
            span("b", Some(0), 30, 120),
            span("a.inner", Some(1), 15, 25),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 90, "root: [10,100) is covered once");
        assert_eq!(own[1], 30 - 10);
        assert_eq!(own[2], 90);
        assert_eq!(own[3], 10);
    }

    #[test]
    fn nested_sequential_spans_cover_the_root_exactly() {
        let spans = vec![
            span("root", None, 0, 1000),
            span("prepare", Some(0), 0, 300),
            span("execute", Some(0), 300, 900),
            span("execute.commit", Some(2), 800, 900),
        ];
        assert!((self_time_cover_pct(&spans, 0) - 100.0).abs() < 1e-9);
        let by = self_time_by_name(&spans, LANE_CALLS);
        assert_eq!(by["root"], 100);
        assert_eq!(by["execute"], 500);
    }

    #[test]
    fn tracer_off_stores_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None, 1);
        t.end(id);
        assert!(id.is_none() && t.spans().is_empty());
        let mut t = Tracer::new(true);
        let root = t.begin("root", None, 7);
        let kid = t.begin("kid", root, 7);
        t.end(kid);
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
