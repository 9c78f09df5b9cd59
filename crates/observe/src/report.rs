//! Report sink: renders a snapshot as a human-readable tree, JSON lines,
//! a Chrome `trace_event` document, or Prometheus text exposition.
//!
//! Output format is chosen by the `FONDUER_TRACE` environment variable:
//! unset/`0`/`off` → no output, `json` → one JSON object per line,
//! `chrome`/`perfetto` → Chrome trace JSON, `prom`/`prometheus` →
//! Prometheus text, anything else (`1`, `tree`, ...) → indented human tree.
//!
//! By default the report goes to stderr; set `FONDUER_TRACE_OUT=<path>` to
//! write it to a file instead (so reports stop fighting stderr and CI can
//! pick the artifacts up).

use std::fmt::Write as _;

use crate::export::{render_chrome_trace_with, render_prometheus};
use crate::json;
use crate::registry::{snapshot, Snapshot};

/// How telemetry should be emitted, per `FONDUER_TRACE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No report output (the registry still records).
    Off,
    /// Indented human-readable tree.
    Human,
    /// One JSON object per line (machine-readable), including provenance
    /// records when any were collected.
    Json,
    /// Chrome `trace_event` JSON — open in `chrome://tracing` or Perfetto.
    Chrome,
    /// Prometheus text exposition format.
    Prometheus,
}

/// Read `FONDUER_TRACE` and decide the trace mode.
pub fn trace_mode() -> TraceMode {
    match std::env::var("FONDUER_TRACE") {
        Err(_) => TraceMode::Off,
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "false" | "none" => TraceMode::Off,
            "json" | "jsonl" => TraceMode::Json,
            "chrome" | "trace" | "perfetto" => TraceMode::Chrome,
            "prom" | "prometheus" | "openmetrics" => TraceMode::Prometheus,
            _ => TraceMode::Human,
        },
    }
}

/// The `FONDUER_TRACE_OUT` file path, if set and non-empty.
pub fn trace_out_path() -> Option<String> {
    std::env::var("FONDUER_TRACE_OUT")
        .ok()
        .filter(|p| !p.trim().is_empty())
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}\u{00b5}s")
    }
}

/// Render the snapshot as an indented tree, spans first (nested by dotted
/// path), then counters, gauges, and histograms.
pub fn render_human(snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== fonduer telemetry ==");
    if !snap.spans.is_empty() {
        let _ = writeln!(out, "spans:");
        for (path, s) in &snap.spans {
            let depth = path.matches('.').count();
            let leaf = path.rsplit('.').next().unwrap_or(path);
            let _ = writeln!(
                out,
                "{:indent$}{leaf:<24} total={:<10} count={:<6} mean={:<10} max={}",
                "",
                fmt_us(s.total_us),
                s.count,
                fmt_us(s.mean_us() as u64),
                fmt_us(s.max_us),
                indent = 2 + 2 * depth,
            );
        }
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "  {name:<40} {v}");
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "  {name:<40} {v:.6}");
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(out, "histograms:");
        for (name, h) in &snap.histograms {
            // Histogram values are unitless; duration histograms carry
            // their unit in the name (`_us` by convention, `_ns` for the
            // nanosecond-resolution training epochs).
            let scale = if name.ends_with("_ns") { 1000 } else { 1 };
            let _ = writeln!(
                out,
                "  {name:<28} count={:<7} p50={:<9} p95={:<9} p99={:<9} max={}",
                h.count,
                fmt_us(h.p50 / scale),
                fmt_us(h.p95 / scale),
                fmt_us(h.p99 / scale),
                fmt_us(h.max / scale),
            );
        }
    }
    let retained = crate::provenance::len();
    if retained > 0 {
        let _ = writeln!(
            out,
            "provenance: {retained} records retained (cap {}, {} evicted)",
            crate::provenance::capacity(),
            crate::provenance::evicted(),
        );
    }
    out
}

/// Render the snapshot as JSON lines: one object per metric, each with a
/// `"kind"` discriminator (`span` | `counter` | `gauge` | `histogram`).
///
/// Metric and span names are caller-supplied strings, so they pass through
/// [`json::escape`] — quotes, backslashes, and control characters in a
/// name must never produce an unparseable line.
pub fn render_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (path, s) in &snap.spans {
        let _ = writeln!(
            out,
            "{{\"kind\":\"span\",\"path\":\"{}\",\"count\":{},\"total_us\":{},\"mean_us\":{},\"max_us\":{}}}",
            json::escape(path),
            s.count,
            s.total_us,
            json::number(s.mean_us()),
            s.max_us,
        );
    }
    for (name, v) in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"kind\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
            json::escape(name),
        );
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(
            out,
            "{{\"kind\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
            json::escape(name),
            json::number(*v),
        );
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "{{\"kind\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            json::escape(name),
            h.count,
            h.sum,
            h.min,
            h.max,
            h.p50,
            h.p95,
            h.p99,
        );
    }
    out
}

/// Render the current registry state in the given mode (empty for `Off`).
/// `Json` appends the provenance flight-recorder lines after the metric
/// lines; `Chrome` renders real per-invocation span events (with thread
/// rows and flow arrows) when the event log recorded any, falling back to
/// the aggregate flame layout otherwise; `Prometheus` renders
/// spans/metrics only.
pub fn render(mode: TraceMode) -> String {
    match mode {
        TraceMode::Off => String::new(),
        TraceMode::Human => render_human(&snapshot()),
        TraceMode::Json => {
            let mut out = render_jsonl(&snapshot());
            out.push_str(&crate::provenance::render_jsonl());
            out
        }
        TraceMode::Chrome => render_chrome_trace_with(&snapshot(), &crate::events::span_events()),
        TraceMode::Prometheus => render_prometheus(&snapshot()),
    }
}

/// Render the current registry state in `mode` and write it to `path`
/// (created or truncated). The programmatic form of the
/// `FONDUER_TRACE_OUT` sink.
pub fn write_report(mode: TraceMode, path: &str) -> std::io::Result<()> {
    std::fs::write(path, render(mode))
}

/// Emit the telemetry report if `FONDUER_TRACE` enables it: to the file
/// named by `FONDUER_TRACE_OUT` when set, to stderr otherwise. This is the
/// one call pipeline entry points (benches, examples) make after finishing
/// their work.
pub fn emit_report() {
    let mode = trace_mode();
    if mode != TraceMode::Off {
        match trace_out_path() {
            Some(path) => {
                if let Err(e) = write_report(mode, &path) {
                    eprintln!("fonduer-observe: cannot write FONDUER_TRACE_OUT={path}: {e}");
                    eprint!("{}", render(mode));
                }
            }
            None => eprint!("{}", render(mode)),
        }
    }
    obsd_linger();
}

/// Keep the process alive briefly after the final report so an external
/// scraper (CI curling the `fonduer-obsd` debug server) can finish its
/// requests. No-op unless **both** `FONDUER_OBSD` and `FONDUER_OBSD_LINGER`
/// (seconds, capped at 300) are set.
fn obsd_linger() {
    if std::env::var("FONDUER_OBSD").is_err() {
        return;
    }
    let Some(secs) = std::env::var("FONDUER_OBSD_LINGER")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|s| *s > 0.0)
    else {
        return;
    };
    let secs = secs.min(300.0);
    eprintln!("fonduer-observe: FONDUER_OBSD_LINGER={secs}s — holding process for scrapers");
    std::thread::sleep(std::time::Duration::from_secs_f64(secs));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json::escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn jsonl_lines_are_balanced_objects() {
        let _l = crate::test_lock();
        crate::counter("report_t.counter", 3);
        crate::gauge_set("report_t.gauge", 0.5);
        crate::hist_record("report_t.hist", 120);
        {
            let _g = crate::span("report_t_span");
        }
        let out = render_jsonl(&crate::snapshot());
        assert!(!out.is_empty());
        for line in out.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            // Balanced quotes and braces are a cheap structural check that
            // does not need a full JSON parser.
            assert_eq!(line.matches('"').count() % 2, 0, "{line}");
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{line}"
            );
        }
        assert!(out.contains("\"kind\":\"counter\""));
        assert!(out.contains("\"name\":\"report_t.counter\",\"value\":3"));
    }

    /// Regression (ISSUE 2 satellite): a hostile metric name — quotes,
    /// backslashes, newlines, control characters — must still render as
    /// one parseable JSON object per line.
    #[test]
    fn jsonl_survives_hostile_metric_names() {
        let _l = crate::test_lock();
        let hostile = "evil\"quote\\back\nnewline\tand\u{1}ctl";
        crate::counter(hostile, 9);
        crate::gauge_set(hostile, 1.5);
        crate::hist_record(hostile, 10);
        let out = render_jsonl(&crate::snapshot());
        let mut seen = 0;
        for line in out.lines() {
            let v = crate::json::parse(line)
                .unwrap_or_else(|e| panic!("unparseable line ({e}): {line}"));
            if v.get("name").and_then(crate::json::Value::as_str) == Some(hostile) {
                seen += 1;
            }
        }
        assert!(seen >= 3, "hostile-named metrics missing ({seen})");
    }

    #[test]
    fn human_report_mentions_all_sections() {
        let _l = crate::test_lock();
        crate::counter("report_h.counter", 1);
        crate::gauge_set("report_h.gauge", 2.0);
        crate::hist_record("report_h.hist", 10);
        {
            let _g = crate::span("report_h_span");
        }
        let out = render_human(&crate::snapshot());
        assert!(out.contains("spans:"));
        assert!(out.contains("counters:"));
        assert!(out.contains("gauges:"));
        assert!(out.contains("histograms:"));
        assert!(out.contains("report_h.counter"));
    }

    #[test]
    fn write_report_creates_parseable_file() {
        crate::counter("report_f.counter", 2);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fonduer_report_{}.json", std::process::id()));
        let path_s = path.to_str().unwrap();
        write_report(TraceMode::Chrome, path_s).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        crate::json::parse(&text).expect("chrome trace file parses");
        write_report(TraceMode::Prometheus, path_s).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        crate::export::validate_prometheus(&text).expect("prometheus file validates");
        let _ = std::fs::remove_file(&path);
    }
}
