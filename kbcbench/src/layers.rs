//! Per-layer metrics of the traced run, derived from the ledger's spans.
//!
//! A *unit* is one KB build. Layer busy times are self times per unit, so
//! they add up, with `core.unattributed_s`, to `ledger.unit_wall_s`. The
//! upserts and LF edits after each build are broken down per operation
//! (`upsert.*_ms_p50`, `lf_edit.*_ms_p50`). The parser runs only in
//! set-ups and is reported per set-up, and so is `par`, whose pool runs
//! only in ingest.

use crate::ledger::{Layer, Ledger, Span};
use crate::stats::{mean, median, ratio};
use crate::workloads::Outcome;
use crate::Metric;
use std::collections::HashMap;

/// Smallest share of the traced unit wall time the layer spans must cover.
pub const LEDGER_COVERAGE: f64 = 0.95;

/// `par` pool histogram sums (µs) at one point in time.
#[derive(Clone, Copy, Default)]
pub struct PoolTime {
    busy_us: u64,
    idle_us: u64,
}

impl PoolTime {
    /// Read the pool's busy and idle histogram sums now.
    pub fn now() -> Self {
        let snap = fonduer_observe::snapshot();
        let sum = |name: &str| snap.histograms.get(name).map_or(0, |h| h.sum);
        Self {
            busy_us: sum("par.worker_busy_us"),
            idle_us: sum("par.worker_idle_us"),
        }
    }
}

struct Ops<'a> {
    spans: &'a [Span],
    self_us: Vec<f64>,
    /// Operation id → index of its root span.
    root: HashMap<u64, usize>,
}

impl<'a> Ops<'a> {
    fn new(l: &'a Ledger) -> Self {
        let spans = l.spans();
        let root = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, s)| (s.op, i))
            .collect();
        Self {
            spans,
            self_us: l.self_us(),
            root,
        }
    }

    fn kind(&self, s: &Span) -> &'static str {
        self.root.get(&s.op).map_or("", |&i| self.spans[i].name)
    }

    /// Self seconds of the roots of `roots`' operations.
    fn root_self_s(&self, roots: &[&Span]) -> f64 {
        roots
            .iter()
            .filter_map(|r| self.root.get(&r.op))
            .map(|&i| self.self_us[i])
            .sum::<f64>()
            / 1e6
    }

    /// Spans inside operations whose kind is in `kinds` (roots included).
    fn within<'k>(&'k self, kinds: &'k [&str]) -> impl Iterator<Item = (usize, &'a Span)> + 'k {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| kinds.contains(&self.kind(s)))
    }

    fn roots(&self, kinds: &[&str]) -> Vec<&'a Span> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && kinds.contains(&s.name))
            .collect()
    }

    /// Self seconds of `layer` inside `kinds` operations.
    fn busy_s(&self, kinds: &[&str], layer: Layer) -> f64 {
        self.within(kinds)
            .filter(|(_, s)| s.layer == layer)
            .map(|(i, _)| self.self_us[i])
            .sum::<f64>()
            / 1e6
    }

    /// Calls named `name` inside `kinds` operations.
    fn calls(&self, kinds: &[&str], name: &str) -> Vec<&'a Span> {
        self.within(kinds)
            .filter(|(_, s)| s.parent.is_some() && s.name == name)
            .map(|(_, s)| s)
            .collect()
    }

    /// Median duration (ms) of the call `name` inside each `kind` operation.
    fn call_ms_p50(&self, kind: &str, name: &str) -> f64 {
        let per_op: Vec<f64> = self
            .calls(&[kind], name)
            .iter()
            .map(|s| s.dur_us() / 1e3)
            .collect();
        median(&per_op)
    }
}

fn total_s(spans: &[&Span]) -> f64 {
    spans.iter().map(|s| s.dur_us()).sum::<f64>() / 1e6
}

fn total_counter(spans: &[&Span], name: &str) -> f64 {
    spans.iter().map(|s| s.counter(name) as f64).sum()
}

fn total_items(spans: &[&Span]) -> f64 {
    spans.iter().map(|s| s.items).sum()
}

/// Everything the per-layer metrics are derived from.
pub struct LayerInput<'a> {
    /// The traced run's ledger.
    pub ledger: &'a Ledger,
    /// The run's outcome (stage-result observations, unit walls).
    pub outcome: &'a Outcome,
    /// Pool busy/idle sums before and after the run.
    pub pool: (PoolTime, PoolTime),
}

/// The per-layer metrics, plus the ledger coverage the caller checks
/// against [`LEDGER_COVERAGE`].
pub fn per_layer(input: &LayerInput<'_>) -> (Vec<Metric>, f64) {
    let ops = Ops::new(input.ledger);
    let out = input.outcome;
    let unit_kinds: &[&str] = &["build"];
    let timed_kinds: &[&str] = &["build", "upsert", "lf_edit"];
    let n_units = ops.roots(unit_kinds).len() as f64;
    let per_unit = |v: f64| ratio(v, n_units);
    let mut m = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        m.push(Metric::new(
            name,
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    };

    // parser: per set-up.
    let setups = ops.roots(&["setup"]).len() as f64;
    let ingests = ops.calls(&["setup"], "ingest");
    let ingest_s = total_s(&ingests);
    let parse_s = ingests.iter().map(|s| s.parse_us as f64).sum::<f64>() / 1e6;
    push("parser.busy_s", ratio(ingest_s, setups), "s");
    push(
        "parser.docs",
        ratio(total_counter(&ingests, "parser.documents"), setups),
        "count",
    );
    push(
        "parser.tokens_per_s",
        ratio(total_counter(&ingests, "nlp.tokens"), parse_s),
        "1/s",
    );
    push(
        "parser.render_share",
        ratio(ingest_s - parse_s, ingest_s),
        "ratio",
    );

    // candidates, features, supervision: per unit.
    let cand_calls = ops.calls(unit_kinds, "candidates");
    let cand_busy = ops.busy_s(unit_kinds, Layer::Candidates);
    let cands = total_counter(&cand_calls, "candgen.candidates");
    push("candidates.busy_s", per_unit(cand_busy), "s");
    push("candidates.count", per_unit(cands), "count");
    push("candidates.per_s", ratio(cands, cand_busy), "1/s");

    let feat_calls = ops.calls(unit_kinds, "featurize");
    let feat_busy = ops.busy_s(unit_kinds, Layer::Features);
    let hits = total_counter(&feat_calls, "features.cache.hits");
    let misses = total_counter(&feat_calls, "features.cache.misses");
    push("features.busy_s", per_unit(feat_busy), "s");
    push("features.n_features", mean(&out.obs.n_features), "count");
    push(
        "features.rows_per_s",
        ratio(total_items(&feat_calls), feat_busy),
        "1/s",
    );
    push(
        "features.mention_cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );

    push(
        "supervision.busy_s",
        per_unit(ops.busy_s(unit_kinds, Layer::Supervision)),
        "s",
    );
    push(
        "supervision.label_coverage",
        mean(&out.obs.label_coverage),
        "ratio",
    );
    push(
        "supervision.train_cands",
        mean(&out.obs.train_cands),
        "count",
    );

    // learning and evaluation.
    let train = ops.calls(unit_kinds, "train");
    let infer = ops.calls(unit_kinds, "infer");
    let train_s = total_s(&train);
    let infer_s = total_s(&infer);
    let steps = total_counter(&train, "train.steps");
    push("learning.train_s", per_unit(train_s), "s");
    push("learning.train_steps", per_unit(steps), "count");
    push("learning.train_steps_per_s", ratio(steps, train_s), "1/s");
    push(
        "learning.adam_steps",
        per_unit(total_counter(&train, "nn.adam_steps")),
        "count",
    );
    push(
        "learning.gemm_calls",
        per_unit(total_counter(&train, "tensor.gemm_calls")),
        "count",
    );
    push(
        "learning.gemv_calls",
        per_unit(total_counter(&train, "tensor.gemv_calls")),
        "count",
    );
    push("learning.infer_s", per_unit(infer_s), "s");
    push(
        "learning.infer_cands_per_s",
        ratio(total_counter(&infer, "infer.candidates"), infer_s),
        "1/s",
    );

    // core: the shard cache, the ledger and the per-operation breakdown.
    let unit_roots = ops.roots(unit_kinds);
    let unit_wall_s = total_s(&unit_roots);
    let unattributed_s = ops.root_self_s(&unit_roots);
    let timed_roots = ops.roots(timed_kinds);
    let shard_hits = total_counter(&timed_roots, "session.shard_cache.hit");
    let shard_misses = total_counter(&timed_roots, "session.shard_cache.miss");
    push(
        "core.busy_s",
        per_unit(ops.busy_s(unit_kinds, Layer::Core)),
        "s",
    );
    push(
        "core.evaluate_s",
        per_unit(total_s(&ops.calls(unit_kinds, "evaluate"))),
        "s",
    );
    push("core.unattributed_s", per_unit(unattributed_s), "s");
    push(
        "core.shard_hit_ratio",
        ratio(shard_hits, shard_hits + shard_misses),
        "ratio",
    );
    push(
        "core.shard_evictions",
        per_unit(total_counter(&timed_roots, "session.shard_cache.evict")),
        "count",
    );
    push("core.first_upsert_ms", median(&out.first_upsert_ms), "ms");
    push(
        "core.recomputed_docs_per_upsert",
        mean(&out.obs.recomputed_after_upsert),
        "count",
    );
    push(
        "upsert.candidates_ms_p50",
        ops.call_ms_p50("upsert", "candidates"),
        "ms",
    );
    push(
        "upsert.features_ms_p50",
        ops.call_ms_p50("upsert", "featurize"),
        "ms",
    );
    push(
        "upsert.supervision_ms_p50",
        ops.call_ms_p50("upsert", "supervise"),
        "ms",
    );
    push(
        "lf_edit.supervision_ms_p50",
        ops.call_ms_p50("lf_edit", "supervise"),
        "ms",
    );

    // par: the pool runs only in ingest (everything after it runs at
    // width 1, where the stages bypass the pool), so tasks are counted per
    // set-up; utilization covers the whole run.
    let (before, after) = input.pool;
    let busy = after.busy_us.saturating_sub(before.busy_us) as f64;
    let idle = after.idle_us.saturating_sub(before.idle_us) as f64;
    push(
        "par.tasks",
        ratio(total_counter(&ingests, "par.tasks"), setups),
        "count",
    );
    push("par.utilization", ratio(busy, busy + idle), "ratio");

    // The ledger itself.
    let coverage = 1.0 - ratio(unattributed_s, unit_wall_s);
    push("ledger.unit_wall_s", per_unit(unit_wall_s), "s");
    push("ledger.coverage", coverage, "ratio");
    let traced = median(&out.traced_pair_s);
    let untraced = median(&out.untraced_pair_s);
    push(
        "trace_overhead_pct",
        (ratio(traced, untraced) - 1.0) * 100.0,
        "%",
    );
    (m, coverage)
}
