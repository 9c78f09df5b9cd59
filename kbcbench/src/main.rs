//! `kbcbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path kbcbench/Cargo.toml -- \
//!     --workload <elec_lstm|paleo_front> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it times every call the benchmark makes into a layer and
//! prints the per-layer metrics instead. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! The line before it records the run's environment. See `NOTES.md` for
//! the workloads, the metrics and the noise profile they were tuned
//! against.

mod layers;
mod ledger;
mod stats;
mod workloads;

use ledger::Ledger;
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{ColdSpec, Outcome, ELEC_LSTM, INGEST_WIDTH, N_DOCS, PALEO_FRONT, POOL_WIDTH};

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: kbcbench --workload <elec_lstm|paleo_front> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 50.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Each workload with its default and held-out seed. The default is what
/// the benchmark was tuned on; the held-out seed re-checks a claim on
/// inputs it was not tuned on.
const WORKLOADS: [(&str, &ColdSpec, u64, u64); 2] = [
    ("elec_lstm", &ELEC_LSTM, 7, 1007),
    ("paleo_front", &PALEO_FRONT, 13, 1013),
];

/// Make the ambient environment unable to change a number: drop every
/// `FONDUER_*` knob (tracing, debug server, provenance, SIMD opt-out, ...)
/// and pin every pool to [`POOL_WIDTH`] workers (ingest switches to
/// [`INGEST_WIDTH`] around its calls). Runs first in `main`, before any
/// thread exists.
fn pin_environment() {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("FONDUER_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    std::env::set_var("FONDUER_THREADS", POOL_WIDTH.to_string());
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process.
fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 Hz).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

fn end_to_end(out: &Outcome) -> Vec<Metric> {
    use stats::{median, quantile, ratio};
    let per_build: Vec<f64> = out
        .build_s
        .iter()
        .map(|&s| ratio(N_DOCS as f64, s))
        .collect();
    let docs_per_s = median(&per_build);
    vec![
        Metric::new("setup_s", median(&out.setup_s), "s"),
        Metric::new("docs_per_s", docs_per_s, "1/s"),
        Metric::new("heldout_f1", out.heldout_f1, "ratio"),
        Metric::new("upsert_ms_p50", quantile(&out.upsert_ms, 0.5), "ms"),
        Metric::new("upsert_ms_p90", quantile(&out.upsert_ms, 0.9), "ms"),
        Metric::new("lf_edit_ms_p50", quantile(&out.lf_edit_ms, 0.5), "ms"),
        Metric::new("lf_edit_ms_p90", quantile(&out.lf_edit_ms, 0.9), "ms"),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    pin_environment();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kbcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, spec, default_seed, heldout_seed)) =
        WORKLOADS.iter().find(|(w, ..)| *w == args.workload)
    else {
        eprintln!("kbcbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let seed = args.seed.unwrap_or(default_seed);

    let wall = std::time::Instant::now();
    let mut ledger = Ledger::new(args.trace);
    let pool_before = layers::PoolTime::now();
    let mut out = workloads::cold(spec, seed, args.seconds, args.trace, &mut ledger);
    let pool_after = layers::PoolTime::now();

    let metrics = if args.trace {
        let (metrics, coverage) = layers::per_layer(&layers::LayerInput {
            ledger: &ledger,
            outcome: &out,
            pool: (pool_before, pool_after),
        });
        out.attempted += 1;
        if coverage.is_nan() || coverage < layers::LEDGER_COVERAGE {
            out.failed += 1;
            eprintln!(
                "kbcbench: ledger check failed: layer spans cover {:.1}% of the traced unit wall time, below {:.0}%",
                coverage * 100.0,
                layers::LEDGER_COVERAGE * 100.0
            );
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{seed}.json", args.workload));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, ledger.to_json()))
        {
            eprintln!("kbcbench: could not write {}: {e}", path.display());
        }
        metrics
    } else {
        end_to_end(&out)
    };

    let meta = format!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {seed}, \"default_seed\": {default_seed}, \
         \"heldout_seed\": {heldout_seed}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"pool_width\": {}, \"ingest_width\": {INGEST_WIDTH}, \"nlp_simd\": {}, \"tensor_simd\": {}, \"wall_s\": {}, \"cpu_s\": {}, \
         \"builds\": {}, \"upserts\": {}, \"lf_edits\": {}}}}}",
        json_str(&args.workload),
        json_num(args.seconds),
        u8::from(args.trace),
        fonduer_par::hardware_threads(),
        fonduer_par::resolve_threads(0),
        json_str(fonduer_nlp::simd_level()),
        json_str(fonduer_tensor::simd_level()),
        json_num(wall.elapsed().as_secs_f64()),
        json_num(cpu_s()),
        out.build_s.len(),
        out.upsert_ms.len(),
        out.lf_edit_ms.len(),
    );
    println!("{meta}");

    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}
