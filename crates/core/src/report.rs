//! [`RunReport`]: the queryable join of everything the observability
//! substrate knows about a pipeline run.
//!
//! One struct answers the error-analysis questions the paper's §5 workflow
//! and ROADMAP items 1–2 keep asking: *which stage dominated wall time at
//! this thread count* (critical path), *did the cache actually save work*
//! (per-stage hit/miss), *was the pool busy or starved* (utilization,
//! steal/local split, queue depth), and *which documents were slow, in
//! which stage* (top-K slowest documents from the bounded DocTimings
//! table). [`PipelineSession::run_report`](crate::PipelineSession::run_report)
//! assembles it from the session's own state plus the `fonduer-observe`
//! registry; [`RunReport::render_text`] / [`RunReport::render_jsonl`] give
//! a terminal view and a machine-readable one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::pipeline::Timings;
use crate::session::shard_cache::ShardCacheSummary;
use crate::session::{SessionStats, StageId};
use fonduer_observe as observe;
use fonduer_observe::HistogramSummary;

/// The doc-timing stage keys and the leaf span each one's work runs under.
/// `candgen` wraps `extract_corpus`, `featurize` wraps `featurize_corpus`,
/// and the supervise stage's per-document work is LF application
/// (`lf_apply`); the generative model and diagnostics are corpus-global.
pub const DOC_STAGES: [(&str, &str); 3] = [
    ("candgen", "extract_corpus"),
    ("featurize", "featurize_corpus"),
    ("lf_apply", "lf_apply"),
];

/// Wall time of one pipeline stage in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage label (`candgen`, `featurize`, `supervise`, `train`, `infer`).
    pub stage: &'static str,
    /// Wall time of the most recent traversal (zero when the stage was
    /// served from cache).
    pub last_us: u64,
    /// Aggregate inclusive span time across the whole process (all runs).
    pub span_total_us: u64,
    /// Completed span invocations across the process.
    pub span_count: u64,
}

/// Work-stealing pool telemetry, snapshot at report time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolTelemetry {
    /// Tasks scheduled (all executions).
    pub tasks: u64,
    /// Tasks that ran on a worker other than their assigned one.
    pub steals: u64,
    /// Tasks served from the worker's own queue.
    pub local_hits: u64,
    /// Busy-fraction of the most recent pool execution (0..=1).
    pub utilization: f64,
    /// Worker count of the most recent pool execution.
    pub workers: u64,
    /// Per-worker busy time, µs.
    pub busy_us: Option<HistogramSummary>,
    /// Per-worker idle time, µs.
    pub idle_us: Option<HistogramSummary>,
    /// Queued backlog sampled at steal points.
    pub queue_depth: Option<HistogramSummary>,
}

/// One document's per-stage timings, slowest documents first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocReport {
    /// Document name.
    pub doc: String,
    /// Doc-timing stage key (see [`DOC_STAGES`]) → accumulated ns.
    pub stage_ns: BTreeMap<&'static str, u64>,
    /// Sum across stages, ns.
    pub total_ns: u64,
}

/// Per-stage reconciliation of the DocTimings table against the span
/// registry: how much of the stage's measured span time the per-document
/// shards account for.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCoverage {
    /// Doc-timing stage key.
    pub stage: &'static str,
    /// Leaf span the stage's per-document work runs under.
    pub span_leaf: &'static str,
    /// Sum of per-document ns recorded for this stage.
    pub doc_sum_ns: u64,
    /// Aggregate inclusive time of the leaf span, ns.
    pub span_total_ns: u64,
    /// Aggregate `par.worker` span time under that leaf, ns (zero on
    /// sequential runs — the work happened inside the leaf span itself).
    pub worker_ns: u64,
}

impl StageCoverage {
    /// `doc_sum_ns` over the stage's measured work time: the worker spans
    /// when the stage ran parallel, the leaf span itself when sequential.
    /// Per-document shards are measured *inside* the workers, so this is
    /// ≤ ~1 plus timer noise; a large shortfall means documents were
    /// dropped (cap) or the stage was cache-skipped after a reset.
    pub fn ratio(&self) -> f64 {
        let denom = self.worker_ns.max(self.span_total_ns);
        if denom == 0 {
            return 0.0;
        }
        self.doc_sum_ns as f64 / denom as f64
    }
}

/// Which stage dominated the most recent traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The dominant stage's label.
    pub stage: &'static str,
    /// Its wall time, µs.
    pub stage_us: u64,
    /// The traversal's total wall time, µs.
    pub total_us: u64,
    /// `stage_us / total_us` (0 when the traversal was fully cached).
    pub fraction: f64,
}

/// How much mention-window encoding inference shared: the windows the
/// model read (one per candidate slot, `infer.windows`) against the
/// distinct non-empty windows it ran through the Bi-LSTM
/// (`infer.windows_encoded`). Process-wide counter totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSharing {
    /// Mention windows read.
    pub windows: u64,
    /// Distinct windows encoded.
    pub encoded: u64,
}

impl WindowSharing {
    /// Windows read per window encoded (0 when nothing was encoded).
    pub fn ratio(&self) -> f64 {
        if self.encoded == 0 {
            return 0.0;
        }
        self.windows as f64 / self.encoded as f64
    }
}

/// A queryable join of span summaries, cache statistics, pool telemetry,
/// and per-document stage timings for one session. Built by
/// [`crate::PipelineSession::run_report`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-stage wall times (last traversal + process-wide span totals).
    pub stages: Vec<StageTiming>,
    /// The session's cache hit/miss counters.
    pub cache: SessionStats,
    /// Per-document shard-cache counters plus the last traversal's
    /// recomputed-document count (the incremental-recomputation layer).
    pub shards: ShardCacheSummary,
    /// Work-stealing pool telemetry.
    pub pool: PoolTelemetry,
    /// Inference's mention-window sharing.
    pub windows: WindowSharing,
    /// Per-document stage timings, slowest first (bounded by
    /// `FONDUER_DOC_TIMINGS_CAP`).
    pub docs: Vec<DocReport>,
    /// Documents dropped from the table after the cap was reached.
    pub docs_dropped: u64,
    /// Effective thread count the session ran with.
    pub n_threads: usize,
}

impl RunReport {
    /// Assemble a report from the session's last-traversal timings and
    /// cache stats plus the current `fonduer-observe` registry state.
    pub(crate) fn collect(
        timings: &Timings,
        cache: SessionStats,
        shards: ShardCacheSummary,
        n_threads: usize,
    ) -> Self {
        let snap = observe::snapshot();
        let last = |id: StageId| -> u64 {
            let d = match id {
                StageId::Candidates => timings.candgen,
                StageId::Featurize => timings.featurize,
                StageId::Supervise => timings.supervise,
                StageId::Train => timings.train,
                StageId::Infer => timings.infer,
                StageId::Evaluate => return 0,
            };
            d.as_micros().min(u64::MAX as u128) as u64
        };
        let stages = [
            StageId::Candidates,
            StageId::Featurize,
            StageId::Supervise,
            StageId::Train,
            StageId::Infer,
        ]
        .into_iter()
        .map(|id| {
            let (total, count) = leaf_span_sum(&snap, id.name());
            StageTiming {
                stage: id.name(),
                last_us: last(id),
                span_total_us: total,
                span_count: count,
            }
        })
        .collect();
        let pool = PoolTelemetry {
            tasks: snap.counter("par.tasks"),
            steals: snap.counter("par.steals"),
            local_hits: snap.counter("par.local_hits"),
            utilization: snap.gauges.get("par.utilization").copied().unwrap_or(0.0),
            workers: snap.gauges.get("par.workers").copied().unwrap_or(0.0) as u64,
            busy_us: snap.histograms.get("par.worker_busy_us").copied(),
            idle_us: snap.histograms.get("par.worker_idle_us").copied(),
            queue_depth: snap.histograms.get("par.queue_depth").copied(),
        };
        let docs = observe::doc_timings()
            .into_iter()
            .map(|d| {
                let total_ns = d.total_ns();
                DocReport {
                    doc: d.doc,
                    stage_ns: d.stage_ns,
                    total_ns,
                }
            })
            .collect();
        let windows = WindowSharing {
            windows: snap.counter("infer.windows"),
            encoded: snap.counter("infer.windows_encoded"),
        };
        RunReport {
            stages,
            cache,
            shards,
            pool,
            windows,
            docs,
            docs_dropped: observe::doc_timings_dropped(),
            n_threads,
        }
    }

    /// The `k` slowest documents (by summed stage time), slowest first.
    pub fn top_slowest_docs(&self, k: usize) -> &[DocReport] {
        &self.docs[..k.min(self.docs.len())]
    }

    /// Which stage dominated the most recent traversal's wall time.
    pub fn critical_path(&self) -> CriticalPath {
        let total_us: u64 = self.stages.iter().map(|s| s.last_us).sum();
        let top = self
            .stages
            .iter()
            .max_by_key(|s| s.last_us)
            .expect("report always has stages");
        CriticalPath {
            stage: top.stage,
            stage_us: top.last_us,
            total_us,
            fraction: if total_us == 0 {
                0.0
            } else {
                top.last_us as f64 / total_us as f64
            },
        }
    }

    /// Reconcile the per-document table against the span registry for each
    /// doc-timed stage (see [`StageCoverage`]).
    pub fn stage_coverage(&self) -> Vec<StageCoverage> {
        let snap = observe::snapshot();
        DOC_STAGES
            .iter()
            .map(|&(stage, leaf)| {
                let (span_total_us, _) = leaf_span_sum(&snap, leaf);
                let worker_us: u64 = snap
                    .spans
                    .iter()
                    .filter(|(p, _)| {
                        p.ends_with(".par.worker") && p.contains(&format!("{leaf}.par.worker"))
                    })
                    .map(|(_, s)| s.total_us)
                    .sum();
                StageCoverage {
                    stage,
                    span_leaf: leaf,
                    doc_sum_ns: self
                        .docs
                        .iter()
                        .map(|d| d.stage_ns.get(stage).copied().unwrap_or(0))
                        .sum(),
                    span_total_ns: span_total_us.saturating_mul(1_000),
                    worker_ns: worker_us.saturating_mul(1_000),
                }
            })
            .collect()
    }

    /// Human-readable rendering: critical path, stage table, cache line,
    /// pool telemetry, window sharing, and the top-5 slowest documents.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let cp = self.critical_path();
        let _ = writeln!(out, "== run report ({} threads) ==", self.n_threads);
        let _ = writeln!(
            out,
            "critical path: {} ({:.1}ms, {:.0}% of {:.1}ms)",
            cp.stage,
            cp.stage_us as f64 / 1e3,
            cp.fraction * 100.0,
            cp.total_us as f64 / 1e3,
        );
        let _ = writeln!(out, "stages (last run / all runs):");
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {:<10} last={:<10.1} span_total={:<10.1} span_count={}",
                s.stage,
                s.last_us as f64 / 1e3,
                s.span_total_us as f64 / 1e3,
                s.span_count,
            );
        }
        let _ = writeln!(out, "cache: {}", self.cache.to_line());
        let sh = &self.shards;
        let _ = writeln!(
            out,
            "shard cache: hit={} miss={} evict={} cached={} recomputed_docs={}",
            sh.hits, sh.misses, sh.evicts, sh.cached, sh.recomputed_docs,
        );
        let p = &self.pool;
        let _ = writeln!(
            out,
            "pool: workers={} utilization={:.2} tasks={} local_hits={} steals={}",
            p.workers, p.utilization, p.tasks, p.local_hits, p.steals,
        );
        if let (Some(b), Some(i)) = (&p.busy_us, &p.idle_us) {
            let _ = writeln!(
                out,
                "      busy p50={}us p95={}us  idle p50={}us p95={}us",
                b.p50, b.p95, i.p50, i.p95,
            );
        }
        let w = &self.windows;
        let _ = writeln!(
            out,
            "infer windows: read={} encoded={} sharing={:.1}x",
            w.windows,
            w.encoded,
            w.ratio(),
        );
        if !self.docs.is_empty() {
            let _ = writeln!(
                out,
                "slowest documents (of {} timed, {} dropped):",
                self.docs.len(),
                self.docs_dropped,
            );
            for d in self.top_slowest_docs(5) {
                let stages: Vec<String> = d
                    .stage_ns
                    .iter()
                    .map(|(s, ns)| format!("{s}={:.1}ms", *ns as f64 / 1e6))
                    .collect();
                let _ = writeln!(
                    out,
                    "  {:<24} total={:.1}ms  {}",
                    d.doc,
                    d.total_ns as f64 / 1e6,
                    stages.join(" "),
                );
            }
        }
        out
    }

    /// Machine-readable rendering: one JSON object per line with a
    /// `"kind"` discriminator (`critical_path` | `stage` | `cache` |
    /// `shard_cache` | `pool` | `infer_windows` | `doc`).
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        let cp = self.critical_path();
        let _ = writeln!(
            out,
            "{{\"kind\":\"critical_path\",\"stage\":\"{}\",\"stage_us\":{},\"total_us\":{},\"fraction\":{}}}",
            cp.stage,
            cp.stage_us,
            cp.total_us,
            observe::json::number(cp.fraction),
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{{\"kind\":\"stage\",\"stage\":\"{}\",\"last_us\":{},\"span_total_us\":{},\"span_count\":{}}}",
                s.stage, s.last_us, s.span_total_us, s.span_count,
            );
        }
        for id in StageId::ALL {
            let st = self.cache.stage(id);
            let _ = writeln!(
                out,
                "{{\"kind\":\"cache\",\"stage\":\"{}\",\"hits\":{},\"misses\":{}}}",
                id.name(),
                st.hits,
                st.misses,
            );
        }
        let sh = &self.shards;
        let _ = writeln!(
            out,
            "{{\"kind\":\"shard_cache\",\"hits\":{},\"misses\":{},\"evicts\":{},\"cached\":{},\"recomputed_docs\":{}}}",
            sh.hits, sh.misses, sh.evicts, sh.cached, sh.recomputed_docs,
        );
        let p = &self.pool;
        let _ = writeln!(
            out,
            "{{\"kind\":\"pool\",\"workers\":{},\"utilization\":{},\"tasks\":{},\"local_hits\":{},\"steals\":{}}}",
            p.workers,
            observe::json::number(p.utilization),
            p.tasks,
            p.local_hits,
            p.steals,
        );
        let w = &self.windows;
        let _ = writeln!(
            out,
            "{{\"kind\":\"infer_windows\",\"windows\":{},\"encoded\":{},\"sharing\":{}}}",
            w.windows,
            w.encoded,
            observe::json::number(w.ratio()),
        );
        for d in &self.docs {
            let stages: Vec<String> = d
                .stage_ns
                .iter()
                .map(|(s, ns)| format!("\"{s}\":{ns}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"kind\":\"doc\",\"doc\":\"{}\",\"total_ns\":{},\"stages\":{{{}}}}}",
                observe::json::escape(&d.doc),
                d.total_ns,
                stages.join(","),
            );
        }
        out
    }
}

/// Render labeling-function diagnostics as one JSON object — the payload
/// the `fonduer-obsd` `/lfs` endpoint serves. `correct` and
/// `empirical_accuracy` appear only when gold labels were available.
pub fn lf_diagnostics_json(diag: &fonduer_supervision::LfDiagnostics) -> String {
    let mut out = format!(
        "{{\"n_candidates\":{},\"total_coverage\":{},\"lfs\":[",
        diag.n_candidates,
        observe::json::number(diag.total_coverage),
    );
    for (i, row) in diag.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"coverage\":{},\"overlap\":{},\"conflict\":{},\"positives\":{},\"negatives\":{}",
            observe::json::escape(&row.name),
            observe::json::number(row.coverage),
            observe::json::number(row.overlap),
            observe::json::number(row.conflict),
            row.positives,
            row.negatives,
        );
        if let Some(correct) = row.correct {
            let _ = write!(out, ",\"correct\":{correct}");
        }
        if let Some(acc) = row.empirical_accuracy {
            let _ = write!(
                out,
                ",\"empirical_accuracy\":{}",
                observe::json::number(acc)
            );
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Sum span totals whose dotted path's final name is `leaf` (`"candgen"`
/// matches both the session's bare `candgen` span and `run_task.candgen`;
/// `par.worker` children do not match because their final name differs).
fn leaf_span_sum(snap: &observe::Snapshot, leaf: &str) -> (u64, u64) {
    let suffix = format!(".{leaf}");
    snap.spans
        .iter()
        .filter(|(p, _)| p.as_str() == leaf || p.ends_with(&suffix))
        .fold((0, 0), |(t, c), (_, s)| (t + s.total_us, c + s.count))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(docs: Vec<DocReport>, stages: Vec<StageTiming>) -> RunReport {
        RunReport {
            stages,
            cache: SessionStats::default(),
            shards: ShardCacheSummary::default(),
            pool: PoolTelemetry::default(),
            windows: WindowSharing::default(),
            docs,
            docs_dropped: 0,
            n_threads: 1,
        }
    }

    fn stage(stage: &'static str, last_us: u64) -> StageTiming {
        StageTiming {
            stage,
            last_us,
            span_total_us: last_us,
            span_count: 1,
        }
    }

    #[test]
    fn critical_path_picks_dominant_stage() {
        let r = report_with(
            Vec::new(),
            vec![
                stage("candgen", 100),
                stage("featurize", 700),
                stage("train", 200),
            ],
        );
        let cp = r.critical_path();
        assert_eq!(cp.stage, "featurize");
        assert_eq!(cp.total_us, 1000);
        assert!((cp.fraction - 0.7).abs() < 1e-9);
    }

    #[test]
    fn top_slowest_docs_clamps_k() {
        let docs: Vec<DocReport> = (0..3)
            .map(|i| DocReport {
                doc: format!("d{i}"),
                stage_ns: BTreeMap::new(),
                total_ns: 100 - i,
            })
            .collect();
        let r = report_with(docs, vec![stage("candgen", 1)]);
        assert_eq!(r.top_slowest_docs(2).len(), 2);
        assert_eq!(r.top_slowest_docs(99).len(), 3);
        assert_eq!(r.top_slowest_docs(99)[0].doc, "d0");
    }

    #[test]
    fn renderings_are_well_formed() {
        let mut stage_ns = BTreeMap::new();
        stage_ns.insert("candgen", 5_000_000u64);
        stage_ns.insert("featurize", 2_000_000u64);
        let docs = vec![DocReport {
            doc: "weird\"doc".into(),
            stage_ns,
            total_ns: 7_000_000,
        }];
        let r = report_with(docs, vec![stage("candgen", 100), stage("featurize", 50)]);
        let text = r.render_text();
        assert!(text.contains("critical path: candgen"));
        assert!(text.contains("slowest documents"));
        for line in r.render_jsonl().lines() {
            observe::json::parse(line)
                .unwrap_or_else(|e| panic!("unparseable report line ({e}): {line}"));
        }
    }
}
