//! Outside-in layer ledger for the traced run.
//!
//! Every call the benchmark makes into a program layer can be wrapped in
//! [`Ledger::call`]. With tracing on, the call becomes a span (name, layer,
//! start, end, parent, operation id) kept in memory, together with the
//! deltas of the `fonduer-observe` counters the program already exports.
//! With tracing off, `call` is a plain function call. Operation roots
//! ([`Ledger::op`]) group the spans of one build, one set-up, one upsert
//! or one LF edit under one id; a root's self time is the part of its
//! wall time no layer call accounts for.

use fonduer_observe as observe;
use std::fmt::Write as _;
use std::time::Instant;

/// The program layer a benchmark call lands in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark itself: operation roots.
    Bench,
    /// `fonduer_synth::Domain::generate` (markup rendering plus
    /// `parser`/`nlp`/`datamodel` ingest).
    Parser,
    /// `PipelineSession::candidates`.
    Candidates,
    /// `PipelineSession::featurize`.
    Features,
    /// `PipelineSession::supervise`.
    Supervision,
    /// `PipelineSession::train` / `infer`.
    Learning,
    /// Session construction, corpus mutation, LF swaps and evaluation.
    Core,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Parser => "parser",
            Layer::Candidates => "candidates",
            Layer::Features => "features",
            Layer::Supervision => "supervision",
            Layer::Learning => "learning",
            Layer::Core => "core",
        }
    }
}

/// Counters the program exports, read around every traced call.
pub const COUNTERS: [&str; 14] = [
    "parser.documents",
    "nlp.tokens",
    "candgen.candidates",
    "features.cache.hits",
    "features.cache.misses",
    "train.steps",
    "nn.adam_steps",
    "tensor.gemm_calls",
    "tensor.gemv_calls",
    "infer.candidates",
    "par.tasks",
    "session.shard_cache.hit",
    "session.shard_cache.miss",
    "session.shard_cache.evict",
];

/// Index of `name` in [`COUNTERS`].
pub fn counter_index(name: &str) -> usize {
    COUNTERS
        .iter()
        .position(|&c| c == name)
        .unwrap_or_else(|| panic!("unknown counter {name}"))
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Call name (`candidates`, `ingest`, ...) or operation kind for roots.
    pub name: &'static str,
    /// Layer the call lands in ([`Layer::Bench`] for operation roots).
    pub layer: Layer,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Index of the enclosing span in [`Ledger::spans`].
    pub parent: Option<usize>,
    /// Start, µs since the ledger was created.
    pub start_us: f64,
    /// End, µs since the ledger was created.
    pub end_us: f64,
    /// Counter deltas over the span, indexed like [`COUNTERS`].
    pub counters: [u64; COUNTERS.len()],
    /// Time the parser's own `parse_corpus` span covered inside this span
    /// (ingest calls only).
    pub parse_us: u64,
    /// Items the call produced, as its return value showed them
    /// (candidate rows, training candidates, ...); 0 when not set.
    pub items: f64,
}

impl Span {
    /// Wall duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    /// Delta of the counter `name` over this span.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters[counter_index(name)]
    }
}

struct Open {
    idx: usize,
    start: [u64; COUNTERS.len()],
    parse_start: u64,
}

/// In-memory span recorder. See the module docs.
pub struct Ledger {
    enabled: bool,
    origin: Instant,
    handles: Vec<observe::Counter>,
    spans: Vec<Span>,
    open: Vec<Open>,
    op: u64,
    next_op: u64,
}

fn parse_corpus_us() -> u64 {
    observe::snapshot()
        .span("parse_corpus")
        .map_or(0, |s| s.total_us)
}

impl Ledger {
    /// A ledger that records only while `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            handles: COUNTERS
                .iter()
                .map(|c| observe::Counter::named(c))
                .collect(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            next_op: 1,
        }
    }

    /// Switch recording on or off between operations.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn read(&self) -> [u64; COUNTERS.len()] {
        let mut out = [0; COUNTERS.len()];
        for (o, h) in out.iter_mut().zip(&self.handles) {
            *o = h.get();
        }
        out
    }

    fn begin(&mut self, name: &'static str, layer: Layer) {
        let idx = self.spans.len();
        let parent = self.open.last().map(|o| o.idx);
        let parse_start = if layer == Layer::Parser {
            parse_corpus_us()
        } else {
            0
        };
        let start = self.read();
        self.spans.push(Span {
            name,
            layer,
            op: self.op,
            parent,
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            end_us: 0.0,
            counters: [0; COUNTERS.len()],
            parse_us: 0,
            items: 0.0,
        });
        self.open.push(Open {
            idx,
            start,
            parse_start,
        });
    }

    fn end(&mut self) {
        let end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        let now = self.read();
        let open = self.open.pop().expect("span stack underflow");
        let span = &mut self.spans[open.idx];
        span.end_us = end_us;
        for ((d, n), s) in span.counters.iter_mut().zip(now).zip(open.start) {
            *d = n.wrapping_sub(s);
        }
        if span.layer == Layer::Parser {
            span.parse_us = parse_corpus_us().saturating_sub(open.parse_start);
        }
    }

    /// Run `f` as a call into `layer`, recorded as span `name` when the
    /// ledger is on.
    pub fn call<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        self.begin(name, layer);
        let out = f();
        self.end();
        out
    }

    /// Attach an item count to the most recently closed span (no-op when
    /// the ledger is off).
    pub fn set_items(&mut self, items: f64) {
        if self.enabled {
            if let Some(s) = self.spans.last_mut() {
                s.items = items;
            }
        }
    }

    /// Run `f` as one operation of kind `kind`: a root span with a fresh
    /// operation id that every call inside it shares.
    pub fn op<T>(&mut self, kind: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let outer = self.op;
        self.op = self.next_op;
        self.next_op += 1;
        self.begin(kind, Layer::Bench);
        let out = f(self);
        self.end();
        self.op = outer;
        out
    }

    /// µs of `spans[i]` not covered by its direct children.
    pub fn self_us(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.dur_us();
            }
        }
        out
    }

    /// The spans as one JSON document: `{"spans": [...]}` with ids equal to
    /// positions, parent ids, operation ids, µs times, self time and the
    /// non-zero counter deltas.
    pub fn to_json(&self) -> String {
        let self_us = self.self_us();
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
                 \"layer\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {:.1}",
                s.op,
                s.name,
                s.layer.name(),
                s.start_us,
                s.end_us,
                self_us[i],
            );
            if s.layer == Layer::Parser {
                let _ = write!(out, ", \"parse_corpus_us\": {}", s.parse_us);
            }
            if s.items != 0.0 {
                let _ = write!(out, ", \"items\": {}", s.items);
            }
            out.push_str(", \"counters\": {");
            let mut first = true;
            for (name, &d) in COUNTERS.iter().zip(&s.counters) {
                if d != 0 {
                    let sep = if first { "" } else { ", " };
                    let _ = write!(out, "{sep}\"{name}\": {d}");
                    first = false;
                }
            }
            out.push_str("}}");
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}
