//! In-memory spans around the calls into each layer, written at exit as Chrome
//! trace-event JSON (opens in Perfetto / `chrome://tracing`).
//!
//! Spans are recorded from the benchmark's side of the public API; the program itself
//! carries no instrumentation. A disabled tracer runs the closure and records nothing,
//! which is how the timed pass runs.

use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Which traced pass a query belongs to; doubles as the Chrome `tid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The run's thread count.
    Run = 1,
    /// The same staged query at `threads = 1` (the `*.par_speedup` baseline).
    Sequential = 2,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Query the span belongs to; 0 for set-up level spans.
    pub query: u32,
    pub lane: Lane,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    query: u32,
    lane: Lane,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query: 0,
            lane: Lane::Run,
        }
    }

    /// Spans recorded from now on belong to a new query on `lane`.
    pub fn begin_query(&mut self, lane: Lane) {
        self.query += 1;
        self.lane = lane;
    }

    /// Run `f` inside a span called `name`; spans opened by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            query: self.query,
            lane: self.lane,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Seconds of every span called `name`, in recording order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Per query on `lane`, the summed seconds of its spans called `name`, in query
    /// order.
    pub fn per_query_seconds(&self, name: &str, lane: Lane) -> Vec<f64> {
        let mut sums = BTreeMap::new();
        for span in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.lane == lane)
        {
            *sums.entry(span.query).or_insert(0.0) += span.seconds();
        }
        sums.into_values().collect()
    }

    /// Self time of every span called `name` on `lane`: its duration minus the part
    /// its direct children cover.
    pub fn self_seconds(&self, name: &str, lane: Lane) -> Vec<f64> {
        let mut children = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.seconds();
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name && s.lane == lane)
            .map(|(s, covered)| s.seconds() - covered)
            .collect()
    }

    /// Write every span as a Chrome "complete" event. Nesting on a lane follows from
    /// containment; `args` carries the query id and the parent's name.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut events: Vec<ChromeEvent> = [
            (Lane::Run, "run threads"),
            (Lane::Sequential, "threads = 1"),
        ]
        .into_iter()
        .map(|(lane, label)| ChromeEvent {
            name: "thread_name".into(),
            ph: "M".into(),
            ts: 0.0,
            dur: 0.0,
            pid: 1,
            tid: lane as u32,
            args: ChromeArgs {
                name: label.into(),
                query: 0,
                parent: String::new(),
            },
        })
        .collect();
        events.extend(self.spans.iter().map(|span| {
            ChromeEvent {
                name: span.name.into(),
                ph: "X".into(),
                ts: span.start * 1e6,
                dur: span.seconds() * 1e6,
                pid: 1,
                tid: span.lane as u32,
                args: ChromeArgs {
                    name: String::new(),
                    query: span.query,
                    parent: span
                        .parent
                        .map(|p| self.spans[p].name.to_string())
                        .unwrap_or_default(),
                },
            }
        }));
        let file = ChromeTrace {
            traceEvents: events,
            displayTimeUnit: "ms".into(),
        };
        let json = serde_json::to_string(&file).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }
}

#[allow(non_snake_case)] // the Chrome trace-event format's own field names
#[derive(Serialize)]
struct ChromeTrace {
    traceEvents: Vec<ChromeEvent>,
    displayTimeUnit: String,
}

#[derive(Serialize)]
struct ChromeEvent {
    name: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u32,
    tid: u32,
    args: ChromeArgs,
}

#[derive(Serialize)]
struct ChromeArgs {
    /// Only read by the `thread_name` metadata events.
    name: String,
    query: u32,
    parent: String,
}
