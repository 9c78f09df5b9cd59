//! Bench regression gate for CI: compare a freshly generated
//! `BENCH_micro.json` against the committed baseline and fail when any
//! watched row regressed by more than the threshold. Watched families:
//! `features/featurize/*` (the paper's hot stage — in particular
//! `features/featurize/uncached`, where instrumentation overhead would
//! surface first), `observe/*` (the substrate's own span and doc-timings
//! costs, so the observability layer cannot quietly get more expensive
//! than the work it measures), `obsd/*` (the debug server's scrape path),
//! the training-kernel rows `tensor/*` and `nn/*` (the flat SIMD kernels
//! and the batched Bi-LSTM — the substance of the train_epoch speedup,
//! which must not erode), since the arena rewrite also `nlp/*` and
//! `parser/*` (the zero-copy ingest front end — the 2x parse+tokenize
//! win must not erode either), and since the first-token dictionary index
//! and the symbol-table content hash also `candidates/*` and
//! `datamodel/*` (document-scope matching over long articles and the
//! per-document hash every session computes), since label shards keep
//! one vote column per LF also `session/lf_edit*` (a one-LF edit on a warm
//! 512-document session re-votes one column, not the whole library), and
//! since the feature-shard merge stopped re-hashing names and re-sorting
//! rows also `session/shard_merge*` (the corpus-level merge every upsert
//! runs, in hashing mode and in the interned mode sessions default to).
//!
//! The gate normalizes for host drift first: PR 6's baseline regeneration
//! showed untouched rows moving +25–70% purely from CI-host slowdown.
//! `observe/span_overhead` and `supervision/generative_fit` act as
//! sentinels — rows no recent PR touches (the former is a few atomic ops,
//! the latter pure scalar math far from the ingest and training paths) —
//! and the geometric mean of their cur/base ratios estimates the host's
//! drift factor. (They replaced `nlp/tokenize`/`parser/parse_document`,
//! which the arena+SIMD ingest rewrite deliberately changed: a sentinel
//! must be a row whose true cost is expected constant, and those two got
//! ~2–10x faster on purpose, which would have read as a bogus 'host got
//! faster' signal and masked real regressions elsewhere.) Watched rows are
//! divided by that factor before the threshold applies, so the gate
//! measures *relative* regressions, not the weather on the CI host. The
//! factor is clamped to [0.25, 4.0]; drift beyond that means the sentinels
//! themselves changed and the run should be inspected, not silently
//! rescaled further.
//!
//! Usage: `bench_smoke <baseline.json> <current.json> [max_regression_pct]`
//! (default threshold 25). Rows present only on one side are reported but
//! never fail the gate — new benchmarks must be landable without a
//! baseline, and retired ones must not wedge CI.

use fonduer_observe::json;

const WATCH_PREFIXES: [&str; 11] = [
    "candidates/",
    "datamodel/",
    "features/featurize/",
    "observe/",
    "obsd/",
    "tensor/",
    "nn/",
    "nlp/",
    "parser/",
    "session/lf_edit",
    "session/shard_merge",
];
/// Rows untouched by recent perf work, used to estimate host drift.
const SENTINELS: [&str; 2] = ["observe/span_overhead", "supervision/generative_fit"];
const DEFAULT_MAX_REGRESSION_PCT: f64 = 25.0;
/// Drift clamp: beyond 4× in either direction the sentinels themselves
/// are suspect and the gate stops extrapolating.
const DRIFT_CLAMP: f64 = 4.0;

fn watched(name: &str) -> bool {
    WATCH_PREFIXES.iter().any(|p| name.starts_with(p))
}

fn load(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let v = json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
    v.as_array()
        .expect("bench file is a JSON array")
        .iter()
        .map(|row| {
            let name = row
                .get("name")
                .and_then(json::Value::as_str)
                .expect("row has a name")
                .to_string();
            let ns = row
                .get("ns_per_iter")
                .and_then(json::Value::as_f64)
                .expect("row has ns_per_iter");
            (name, ns)
        })
        .collect()
}

fn lookup(rows: &[(String, f64)], name: &str) -> Option<f64> {
    rows.iter().find(|(n, _)| n == name).map(|(_, ns)| *ns)
}

/// Geometric mean of cur/base over the sentinel rows present in both
/// files, clamped to `[1/DRIFT_CLAMP, DRIFT_CLAMP]`. Returns 1.0 (no
/// rescaling) when no sentinel is available on both sides.
fn drift_factor(baseline: &[(String, f64)], current: &[(String, f64)]) -> f64 {
    let mut log_sum = 0.0f64;
    let mut n = 0usize;
    for name in SENTINELS {
        let (Some(base), Some(cur)) = (lookup(baseline, name), lookup(current, name)) else {
            println!("SENTINEL {name}: missing on one side, ignored");
            continue;
        };
        if base <= 0.0 || cur <= 0.0 {
            continue;
        }
        let ratio = cur / base;
        println!("SENTINEL {name:<32} {base:>12.1} -> {cur:>12.1} ns/iter (x{ratio:.3})");
        log_sum += ratio.ln();
        n += 1;
    }
    if n == 0 {
        println!("no usable sentinel rows — gating against raw timings");
        return 1.0;
    }
    let factor = (log_sum / n as f64).exp();
    factor.clamp(1.0 / DRIFT_CLAMP, DRIFT_CLAMP)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (baseline_path, current_path) = match (args.get(1), args.get(2)) {
        (Some(b), Some(c)) => (b.as_str(), c.as_str()),
        _ => {
            eprintln!("usage: bench_smoke <baseline.json> <current.json> [max_regression_pct]");
            std::process::exit(2);
        }
    };
    let max_pct: f64 = args
        .get(3)
        .map(|s| s.parse().expect("threshold is a number"))
        .unwrap_or(DEFAULT_MAX_REGRESSION_PCT);

    let baseline = load(baseline_path);
    let current = load(current_path);
    let drift = drift_factor(&baseline, &current);
    println!("host drift factor x{drift:.3} (watched rows divided by it before the gate)");
    let mut failures = 0usize;
    let mut checked = 0usize;
    for (name, base_ns) in &baseline {
        if !watched(name) {
            continue;
        }
        let Some(cur_ns) = lookup(&current, name) else {
            println!("SKIP {name}: missing from {current_path}");
            continue;
        };
        checked += 1;
        let adj_ns = cur_ns / drift;
        let delta_pct = (adj_ns - base_ns) / base_ns * 100.0;
        let verdict = if delta_pct > max_pct {
            failures += 1;
            "FAIL"
        } else {
            "ok  "
        };
        println!(
            "{verdict} {name:<40} {:>12.1} -> {:>12.1} ns/iter (adj {:>12.1}, {:+.1}%)",
            base_ns, cur_ns, adj_ns, delta_pct
        );
    }
    for (name, _) in &current {
        if watched(name) && !baseline.iter().any(|(n, _)| n == name) {
            println!("NEW  {name}: no baseline yet");
        }
    }
    if checked == 0 {
        eprintln!(
            "no watched rows ({}) found in {baseline_path} — nothing to gate",
            WATCH_PREFIXES.join(", ")
        );
        std::process::exit(2);
    }
    if failures > 0 {
        eprintln!("{failures} watched benchmark(s) regressed more than {max_pct}% after drift normalization");
        std::process::exit(1);
    }
    println!("bench smoke: {checked} rows within {max_pct}% of baseline (drift-normalized)");
}
