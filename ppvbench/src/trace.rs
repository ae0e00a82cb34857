//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: name, start, end, the span that caused it, and the request
//! they belong to. Kept in memory, written out when the run ends.
//!
//! The layer profile replays one request through each deeper public entry
//! point in turn, so a request's spans are not nested in *time* — they are
//! nested by `parent`, and self time is computed on durations: a span's
//! duration minus what its direct children account for.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
        id
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = Instant::now();
        let value = f();
        let id = self.record(name, parent, request, start, Instant::now());
        (value, id)
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request", Json::Num(s.request as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        std::fs::write(path, Json::obj(vec![("spans", Json::Arr(spans))]).render())
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover (their durations summed, capped at the parent's — a
/// child replayed slower than its parent cannot make self time negative).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| s.duration_ns() - covered[s.id as usize].min(s.duration_ns()))
        .collect()
}

/// The *median request* among the requests rooted at a `root`-named
/// span: one span per span name, as long as the median of that name's
/// durations, parented by name the way the instances are. A request's
/// levels are replayed at different moments, and on a noisy host any one
/// request's child can read slower than its parent; the medians are what
/// the layer metrics report, so they are what the decomposition is
/// checked on.
pub fn median_request(spans: &[Span], root: &str) -> Vec<Span> {
    let requests: BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .map(|s| s.request)
        .collect();
    // Name → (parent's name, durations), in first-seen order: a parent is
    // always recorded before its children.
    let mut layers: Vec<(&'static str, Option<&'static str>, Vec<u64>)> = Vec::new();
    for s in spans.iter().filter(|s| requests.contains(&s.request)) {
        let parent = s.parent.map(|p| spans[p as usize].name);
        match layers.iter_mut().find(|(name, _, _)| *name == s.name) {
            Some((_, _, durations)) => durations.push(s.duration_ns()),
            None => layers.push((s.name, parent, vec![s.duration_ns()])),
        }
    }
    let names: Vec<&str> = layers.iter().map(|(name, _, _)| *name).collect();
    layers
        .into_iter()
        .enumerate()
        .map(|(id, (name, parent, mut durations))| {
            durations.sort_unstable();
            Span {
                id: id as u32,
                parent: parent.and_then(|p| names.iter().position(|n| *n == p).map(|i| i as u32)),
                request: 0,
                name,
                start_ns: 0,
                end_ns: durations[(durations.len() - 1) / 2],
            }
        })
        .collect()
}

/// `|Σ self − root| / root` over the median request rooted at `root`: how
/// far the layer decomposition is from adding up to the round trip it
/// decomposes (0 when no request has that root).
pub fn sum_error(spans: &[Span], root: &str) -> f64 {
    let median = median_request(spans, root);
    let Some(rtt) = median.first().map(Span::duration_ns).filter(|&d| d > 0) else {
        return 0.0;
    };
    let sum: u64 = self_times_ns(&median).iter().sum();
    (sum as f64 - rtt as f64).abs() / rtt as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, request: u32, name: &'static str, dur: u64) -> Span {
        Span {
            id,
            parent,
            request,
            name,
            start_ns: 1_000 * id as u64,
            end_ns: 1_000 * id as u64 + dur,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(0, None, 7, "net", 100),
            span(1, Some(0), 7, "service", 60),
            span(2, Some(1), 7, "query", 45),
            span(3, Some(2), 7, "prime0", 30),
            span(4, Some(2), 7, "expand", 10),
            span(5, Some(0), 7, "encode", 5),
        ];
        assert_eq!(self_times_ns(&spans), vec![35, 15, 5, 30, 10, 5]);
        // A consistent decomposition adds up to the root exactly.
        assert_eq!(sum_error(&spans, "net"), 0.0);
        assert_eq!(sum_error(&spans, "no such root"), 0.0);
    }

    #[test]
    fn an_oversized_child_shows_as_sum_error() {
        // The child was replayed slower than its parent: self time clamps
        // at zero and the sum overshoots the round trip by the excess.
        let spans = vec![
            span(0, None, 1, "net", 100),
            span(1, Some(0), 1, "service", 120),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 120]);
        assert!((sum_error(&spans, "net") - 0.2).abs() < 1e-12);
    }

    #[test]
    fn median_request_takes_each_layers_median() {
        // Three requests of one class, one of another; durations chosen so
        // every layer's median comes from a different request.
        let mut spans = Vec::new();
        for (request, (net, service, query)) in [(100, 60, 30), (300, 50, 45), (200, 70, 10)]
            .iter()
            .enumerate()
        {
            let base = spans.len() as u32;
            spans.push(span(base, None, request as u32, "net.hub", *net));
            spans.push(span(
                base + 1,
                Some(base),
                request as u32,
                "service",
                *service,
            ));
            spans.push(span(
                base + 2,
                Some(base + 1),
                request as u32,
                "query",
                *query,
            ));
        }
        let other = spans.len() as u32;
        spans.push(span(other, None, 9, "net.nonhub", 5_000));
        spans.push(span(other + 1, Some(other), 9, "service", 4_000));
        let median = median_request(&spans, "net.hub");
        let shape: Vec<(&str, Option<u32>, u64)> = median
            .iter()
            .map(|s| (s.name, s.parent, s.duration_ns()))
            .collect();
        assert_eq!(
            shape,
            vec![
                ("net.hub", None, 200),
                ("service", Some(0), 60),
                ("query", Some(1), 30)
            ]
        );
        assert_eq!(sum_error(&spans, "net.hub"), 0.0);
    }

    #[test]
    fn tracer_hands_out_dense_ids() {
        let mut t = Tracer::new();
        let (v, root) = t.time("net", None, 3, || 41 + 1);
        assert_eq!(v, 42);
        let (_, child) = t.time("service", Some(root), 3, || ());
        assert_eq!((root, child), (0, 1));
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[0].start_ns);
    }
}
