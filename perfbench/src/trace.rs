//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the run
//! started), a parent and the run id.  Where a layer times its own parts
//! (the engine's phase timers, the runtime's barrier-wait histogram) the
//! benchmark attaches them as *timed parts*: children that carry a duration
//! measured by the layer instead of a start and an end.  Spans stay in
//! memory and are written when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::util::Json;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: Option<u64>,
    end_ns: Option<u64>,
    /// Duration of a timed part; spans derive theirs from start and end.
    part_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        match (self.start_ns, self.end_ns) {
            (Some(start), Some(end)) => end.saturating_sub(start),
            _ => self.part_ns,
        }
    }
}

pub struct Tracer {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
}

/// Names with one of these prefixes belong to a layer of the program; the
/// rest (`bench.*`) is the benchmark's own time.
const LAYERS: [&str; 4] = ["core.", "timeseries.", "runtime.", "store."];

impl Tracer {
    pub fn new(run_id: String) -> Tracer {
        Tracer {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: Some(start),
            end_ns: None,
            part_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = Some(end);
    }

    /// Records a span from instants the caller took around its call.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            parent,
            start_ns: Some(ns(start)),
            end_ns: Some(ns(end)),
            part_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Attaches a part of `parent` that the layer timed itself.
    pub fn part(&mut self, name: &'static str, parent: usize, duration: Duration) -> usize {
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns: None,
            end_ns: None,
            part_ns: u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX),
        });
        self.spans.len() - 1
    }

    /// Per span name: count, total and self time (total minus the time its
    /// direct children cover), plus the self-time share of the `root` span.
    /// `trace.coverage` is the share of `root` attributed to the program's
    /// layers.
    pub fn self_times(&self, root: usize) -> (Json, f64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let in_root = |mut id: usize| loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(parent) => id = parent,
                None => return false,
            }
        };
        let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if !in_root(id) {
                continue;
            }
            let duration = span.duration_ns();
            let row = rows.entry(span.name).or_default();
            row.0 += 1;
            row.1 += duration;
            row.2 += duration.saturating_sub(child_ns[id]);
        }
        let wall = self.spans[root].duration_ns().max(1) as f64;
        let attributed: u64 = rows
            .iter()
            .filter(|(name, _)| LAYERS.iter().any(|p| name.starts_with(p)))
            .map(|(_, row)| row.2)
            .sum();
        let table = rows
            .iter()
            .map(|(name, (count, total, own))| {
                Json::obj(vec![
                    ("name", Json::str(*name)),
                    ("count", Json::Int(*count as i64)),
                    ("total_s", Json::Num(*total as f64 * 1e-9)),
                    ("self_s", Json::Num(*own as f64 * 1e-9)),
                    ("self_share", Json::Num(*own as f64 / wall)),
                ])
            })
            .collect();
        (Json::Arr(table), attributed as f64 / wall)
    }

    pub fn spans_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Int(v as i64));
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, span)| {
                    Json::obj(vec![
                        ("run", Json::str(self.run_id.clone())),
                        ("id", Json::Int(id as i64)),
                        ("name", Json::str(span.name)),
                        (
                            "parent",
                            span.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("start_ns", opt(span.start_ns)),
                        ("end_ns", opt(span.end_ns)),
                        ("duration_ns", Json::Int(span.duration_ns() as i64)),
                    ])
                })
                .collect(),
        )
    }
}
