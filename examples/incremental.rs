//! Iterative KBC with a [`PipelineSession`] (paper §4.3, Appendix C): run
//! the pipeline once, improve the labeling functions, and re-run — the
//! session serves candidate generation and featurization from its artifact
//! cache, so the second iteration pays only for supervision, training, and
//! inference.
//!
//! Prints machine-checkable lines (`warm_cache_hits=...`,
//! `lf_drop_recomputed_docs=...`) that CI greps.
//!
//! Run with: `cargo run --release --example incremental`

use fonduer::prelude::*;
use fonduer_core::domains::electronics;
use fonduer_core::{PipelineSession, StageId};
use fonduer_synth::{generate_electronics, ElectronicsConfig};

fn main() {
    let ds = generate_electronics(&ElectronicsConfig {
        n_docs: 60,
        ..Default::default()
    });
    let relation = "has_collector_current";
    let extractor = electronics::extractor(&ds, relation, ContextScope::Document)
        .with_throttler(electronics::default_throttler(relation));

    // Iteration 1: the full LF library, cold — every stage computes.
    let full_lfs = electronics::lfs(relation);
    // Iteration 2: the refined library an error-analysis pass would
    // produce (here: drop one rule). Same candidates, same features.
    let refined_lfs: Vec<LabelingFunction> =
        electronics::lfs(relation).into_iter().skip(1).collect();

    let cfg = PipelineConfig::builder()
        .learner(Learner::LogReg)
        .features(FeatureConfig::all())
        .build()
        .expect("config is valid");

    let mut session = PipelineSession::from_parts(&ds.corpus, &ds.gold, &extractor, &full_lfs, cfg)
        .expect("session inputs are valid");

    let cold = session.output().expect("cold run");
    let cold_total = cold.timings.total();
    println!(
        "iteration 1 (cold, {} LFs): {} candidates, coverage={:.2}, F1={:.2}, total={:.1}ms",
        full_lfs.len(),
        cold.candidates.len(),
        cold.label_coverage,
        cold.metrics.f1,
        cold.timings.total_ms()
    );
    println!("  stage cache: {}", session.stats().to_line());
    print_timings(&cold.timings);

    // Swap the LF library. Candidate generation and featurization are
    // unaffected, so the session serves both from its artifact cache.
    session.reset_stats();
    session.set_lfs(&refined_lfs);
    let warm = session.output().expect("warm run");
    let warm_total = warm.timings.total();
    println!(
        "\niteration 2 (warm, {} LFs): coverage={:.2}, F1={:.2}, total={:.1}ms",
        refined_lfs.len(),
        warm.label_coverage,
        warm.metrics.f1,
        warm.timings.total_ms()
    );
    println!("  stage cache: {}", session.stats().to_line());
    print_timings(&warm.timings);

    let stats = session.stats();
    let warm_cache_hits =
        stats.stage(StageId::Candidates).hits + stats.stage(StageId::Featurize).hits;
    // CI greps this line: the warm re-supervise must reuse the candidate
    // and feature artifacts.
    println!("\nwarm_cache_hits={warm_cache_hits}");
    assert!(
        warm_cache_hits >= 2,
        "LF-only change must reuse candgen + featurize artifacts"
    );
    assert_eq!(stats.stage(StageId::Supervise).misses, 1);
    assert_eq!(stats.stage(StageId::Train).misses, 1);
    // Label shards hold one vote column per LF, so dropping an LF re-votes
    // no document: the matrix reassembles from cached columns. CI greps
    // this line too.
    let lf_drop_recomputed_docs = session.recomputed_docs();
    println!("lf_drop_recomputed_docs={lf_drop_recomputed_docs}");
    assert_eq!(
        lf_drop_recomputed_docs, 0,
        "dropping an LF must not re-vote any document"
    );

    let speedup = cold_total.as_secs_f64() / warm_total.as_secs_f64().max(1e-9);
    println!("cold/warm wall-clock ratio: {speedup:.1}x");

    // Iteration 3: a revised edition of one datasheet arrives. The corpus
    // mutation dirties candgen/featurize, but their per-document shard
    // caches serve the other 59 documents — only the upserted document's
    // slices recompute before the deterministic merge.
    let revised = generate_electronics(&ElectronicsConfig {
        n_docs: 60,
        seed: 8,
        ..Default::default()
    })
    .corpus
    .doc(fonduer_datamodel::DocId::from_usize(3))
    .clone();
    let name = revised.name.clone();
    session.upsert_document(revised).expect("name is unique");
    let third = session.output().expect("upsert run");
    println!(
        "\niteration 3 (upsert {name:?}): F1={:.2}, total={:.1}ms, recomputed_docs={} of {}",
        third.metrics.f1,
        third.timings.total_ms(),
        session.recomputed_docs(),
        session.corpus().len(),
    );

    // The queryable join of everything above: stage timings, cache
    // counters, pool telemetry, and the slowest documents in one report.
    let report = session.run_report();
    println!("\n{}", report.render_text());
    // `FONDUER_TRACE=chrome` (or prom) writes the full trace/metrics dump
    // on exit; the flow events in the Chrome trace tie each pool task back
    // to the stage span that submitted it.
    fonduer_observe::emit_report();
}

fn print_timings(t: &fonduer_core::Timings) {
    println!(
        "  stage times: candgen={:.1}ms featurize={:.1}ms supervise={:.1}ms train={:.1}ms infer={:.1}ms",
        t.candgen_ms(),
        t.featurize_ms(),
        t.supervise_ms(),
        t.train_ms(),
        t.infer_ms()
    );
}
