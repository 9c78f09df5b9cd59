//! `fonduer-observe`: structured tracing, counters, and per-stage telemetry
//! for the Fonduer reproduction pipeline.
//!
//! Zero external dependencies beyond the workspace's own `parking_lot`
//! shim; all hot-path mutation is a relaxed atomic op. Four primitives:
//!
//! * **Spans** — hierarchical RAII wall-clock timers with µs resolution.
//!   `let _g = span!("candgen");` nests under whatever span the current
//!   thread already has open, aggregating under a dotted path like
//!   `run_task.candgen`.
//! * **Counters** — monotonic `u64` (documents parsed, candidates kept,
//!   LF votes, ...). `counter("parser.documents", 1)`, or cache a
//!   [`Counter`] handle for tight loops.
//! * **Gauges** — last-write-wins `f64` (epoch loss, label coverage).
//! * **Histograms** — lock-free log-linear latency histograms with
//!   p50/p95/p99 summaries (`hist_record("parse.doc_us", us)`).
//!
//! [`snapshot()`] captures everything for programmatic inspection;
//! [`emit_report()`] renders it per the `FONDUER_TRACE` environment
//! variable (`1` → human tree, `json` → JSONL, `chrome` → Chrome
//! `trace_event` JSON for Perfetto, `prom` → Prometheus text exposition,
//! unset → silent), to stderr or to the file named by `FONDUER_TRACE_OUT`.
//!
//! On top of the metrics, the [`provenance`] module is a flight recorder
//! for the KBC pipeline itself: a bounded ring buffer of per-candidate
//! [`provenance::ProvenanceRecord`]s tracing every kept candidate from its
//! mention spans and matchers through throttling, LF votes, and feature
//! modality mix to its final marginal probability.

#![warn(missing_docs)]

mod doc_timings;
mod events;
mod export;
mod hist;
pub mod json;
pub mod provenance;
mod registry;
mod report;
mod span;

pub use doc_timings::{
    doc_stage_ns, doc_timings, doc_timings_cap, doc_timings_dropped, doc_timings_enabled,
    set_doc_timings_cap, DocTiming,
};
pub use events::{
    flow_end, flow_start, progress, progress_cap, progress_dropped, progress_enabled,
    progress_since, progress_wait, set_progress, set_span_events, set_thread_label, span_events,
    span_events_dropped, span_events_enabled, FlowEvent, ProgressEvent, SpanEvent, SpanEvents,
};
pub use export::{
    render_chrome_trace, render_chrome_trace_with, render_prometheus, validate_prometheus,
};
pub use hist::{Histogram, HistogramSummary};
pub use provenance::{MentionProvenance, ProvenanceMeta, ProvenanceRecord};
pub use registry::{
    counter, gauge_get, gauge_set, hist_record, reset, reset_epoch, snapshot, Counter, Snapshot,
    SpanSummary,
};
pub use report::{
    emit_report, render, render_human, render_jsonl, trace_mode, trace_out_path, write_report,
    TraceMode,
};
pub use span::{current_context, span, timed, ContextGuard, SpanContext, SpanGuard};

/// Serializes unit tests that call [`reset`] or depend on process-global
/// span state: `reset()` bumps the span-stack epoch, invalidating *every*
/// thread's open spans, so such tests cannot overlap.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_threads() {
        let _l = test_lock();
        reset();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let c = Counter::named("concurrency_t.counter");
                    for i in 0..PER_THREAD {
                        if i % 2 == 0 {
                            c.inc();
                        } else {
                            // Exercise the name-lookup path too.
                            counter("concurrency_t.counter", 1);
                        }
                    }
                });
            }
        });
        assert_eq!(
            snapshot().counter("concurrency_t.counter"),
            THREADS as u64 * PER_THREAD
        );
    }

    #[test]
    fn spans_aggregate_across_threads() {
        let _l = test_lock();
        const THREADS: usize = 4;
        const PER_THREAD: usize = 50;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        let _g = span("concurrency_t_span");
                    }
                });
            }
        });
        let snap = snapshot();
        let stat = snap.span("concurrency_t_span").expect("span recorded");
        assert_eq!(stat.count, (THREADS * PER_THREAD) as u64);
        assert!(stat.max_us <= stat.total_us || stat.total_us == 0);
    }

    #[test]
    fn histograms_record_across_threads() {
        let _l = test_lock();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..1000u64 {
                        hist_record("concurrency_t.hist", t * 1000 + i);
                    }
                });
            }
        });
        let snap = snapshot();
        let h = snap.histograms.get("concurrency_t.hist").expect("hist");
        assert_eq!(h.count, 4000);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 3999);
    }

    #[test]
    fn gauge_last_write_wins() {
        let _l = test_lock();
        gauge_set("gauge_t.loss", 0.75);
        gauge_set("gauge_t.loss", 0.25);
        assert_eq!(gauge_get("gauge_t.loss"), Some(0.25));
        assert_eq!(gauge_get("gauge_t.never_set"), None);
    }

    /// Acceptance guard: one counter increment must stay under 1µs
    /// amortized. Only meaningful with optimizations on, so the assertion
    /// is release-gated; debug builds still run the loop for coverage.
    #[test]
    fn counter_increment_under_1us() {
        // Another test's `reset()` between the two loops would detach the
        // handle from the registry and halve the read-back below.
        let _l = test_lock();
        let c = Counter::named("perf_t.counter");
        const N: u64 = 1_000_000;
        let start = std::time::Instant::now();
        for _ in 0..N {
            c.inc();
        }
        let by_handle = start.elapsed();
        let start = std::time::Instant::now();
        for _ in 0..N {
            counter("perf_t.counter", 1);
        }
        let by_name = start.elapsed();
        assert_eq!(c.get(), 2 * N);
        #[cfg(not(debug_assertions))]
        {
            let handle_ns = by_handle.as_nanos() as f64 / N as f64;
            let name_ns = by_name.as_nanos() as f64 / N as f64;
            assert!(handle_ns < 1000.0, "handle increment {handle_ns:.1}ns/op");
            assert!(name_ns < 1000.0, "named increment {name_ns:.1}ns/op");
        }
        #[cfg(debug_assertions)]
        let _ = (by_handle, by_name);
    }
}
