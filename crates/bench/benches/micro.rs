//! Micro-benchmarks for the hot paths: tokenization, document parsing +
//! layout, candidate generation, document content hashing, featurization
//! (cached vs uncached), LSTM training step, and generative-model fitting.
//!
//! Self-contained harness (no external bench framework): each target is
//! warmed up, then timed for a fixed number of iterations; per-iteration
//! latencies feed a `fonduer_observe` histogram so the report shows
//! p50/p95/p99 alongside the reported median. Results are also written as machine-
//! readable JSON to `BENCH_micro.json` at the workspace root (override the
//! path with `BENCH_MICRO_OUT`) so the perf trajectory is tracked across
//! PRs.

use fonduer_candidates::ContextScope;
use fonduer_core::domains::{electronics, paleo};
use fonduer_core::{PipelineConfig, PipelineSession, StageId};
use fonduer_datamodel::DocId;
use fonduer_features::{merge_shards, FeatureConfig, Featurizer};
use fonduer_learning::{prepare, FonduerModel, ModelConfig, ProbClassifier};
use fonduer_nlp::HashedVocab;
use fonduer_observe as observe;
use fonduer_par::Pool;
use fonduer_supervision::{GenerativeModel, GenerativeOptions, LabelMatrix, LabelingFunction};
use fonduer_synth::Domain;
use std::hint::black_box;
use std::time::Instant;

/// One benchmark's result line.
struct BenchResult {
    name: String,
    iters: usize,
    ns_per_iter: f64,
    /// Work-normalized throughput for per-candidate stages (candgen,
    /// featurize, LF apply); 0.0 for benchmarks without a candidate count.
    candidates_per_sec: f64,
}

/// Annotate the most recent result with its candidate count, deriving
/// `candidates_per_sec` from the measured median latency.
fn with_throughput(results: &mut [BenchResult], n_candidates: usize) {
    if let Some(r) = results.last_mut() {
        if r.ns_per_iter > 0.0 {
            r.candidates_per_sec = n_candidates as f64 / (r.ns_per_iter / 1e9);
        }
    }
}

/// Time `f` for `iters` iterations (after `warmup` unrecorded ones),
/// recording each iteration into the histogram `micro.<name>_us`, printing
/// a one-line summary, and appending the **median** per-iteration latency
/// to `results`. The median (not the mean) is what lands in
/// `BENCH_micro.json`: on shared or single-core hosts a lone preempted
/// iteration can drag a 10-iteration mean by 30%+, which is exactly the
/// noise the `bench_smoke` regression gate must not trip on.
fn bench<T>(
    results: &mut Vec<BenchResult>,
    name: impl Into<String>,
    warmup: usize,
    iters: usize,
    mut f: impl FnMut() -> T,
) {
    let name = name.into();
    for _ in 0..warmup {
        black_box(f());
    }
    let hist = format!("micro.{name}_us");
    let mut laps: Vec<u64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        black_box(f());
        let ns = t.elapsed().as_nanos() as u64;
        observe::hist_record(&hist, ns / 1_000);
        laps.push(ns);
    }
    laps.sort_unstable();
    let ns_per_iter = if laps.len() % 2 == 1 {
        laps[laps.len() / 2] as f64
    } else {
        (laps[laps.len() / 2 - 1] + laps[laps.len() / 2]) as f64 / 2.0
    };
    println!(
        "{name:<32} {iters:>5} iters  {:>12.1} µs/iter",
        ns_per_iter / 1e3
    );
    results.push(BenchResult {
        name,
        iters,
        ns_per_iter,
        candidates_per_sec: 0.0,
    });
}

fn bench_tokenizer(results: &mut Vec<BenchResult>) {
    let text = "SMBT3904...MMBT3904 NPN Silicon Switching Transistors with 200 mA, \
                VCEO 40 V, storage -65 ... 150 °C and DC gain 0.1 mA to 100 mA.";
    bench(results, "nlp/tokenize", 100, 1000, || {
        fonduer_nlp::tokenize(black_box(text))
    });
    // A longer prose block with one reused span buffer — isolates the
    // byte-class scans from Vec growth.
    let long = text.repeat(32);
    let mut toks = Vec::new();
    bench(results, "nlp/tokenize_prose", 100, 1000, || {
        fonduer_nlp::tokenize_into(black_box(&long), &mut toks);
        toks.len()
    });
}

fn bench_parse_and_layout(results: &mut Vec<BenchResult>) {
    // One representative datasheet's markup, parsed + laid out end to end.
    let html = r#"<h1>SMBT3904...MMBT3904</h1><p>NPN transistors.</p>
<table><tr><th>Parameter</th><th>Symbol</th><th>Value</th><th>Unit</th></tr>
<tr><td>Collector current</td><td>IC</td><td>200</td><td>mA</td></tr>
<tr><td>Junction temperature</td><td>Tj</td><td>150</td><td>°C</td></tr></table>"#;
    bench(results, "parser/parse_document", 20, 200, || {
        fonduer_parser::parse_document(
            "d",
            black_box(html),
            fonduer_datamodel::DocFormat::Pdf,
            &Default::default(),
        )
    });
}

/// Corpus-scale ingest: 512 varied datasheet-style markup documents through
/// the full front end (markup parse → fused sentence/token/tag pass →
/// layout) per iteration. This is the workload the arena rewrite
/// targets; the per-document numbers in `parser/parse_document` are too
/// small to show cache effects.
fn bench_ingest_512(results: &mut Vec<BenchResult>) {
    let docs: Vec<String> = (0..512)
        .map(|i| {
            format!(
                r#"<h1>PART{i:04}A...PART{i:04}B</h1>
<p>NPN Silicon Switching Transistors rev {i}. High DC current gain at low
collector-emitter saturation voltage 0.{} V, storage range -65 ... 150 °C,
switching applications up to {} MHz measured at 2.5 mA.</p>
<table><caption>Maximum Ratings {i}</caption>
<tr><th>Parameter</th><th>Symbol</th><th>Value</th><th>Unit</th></tr>
<tr><td>Collector current</td><td>IC</td><td>{}</td><td>mA</td></tr>
<tr><td>Junction temperature</td><td>Tj</td><td>150</td><td>°C</td></tr>
<tr><td>Power dissipation</td><td>Ptot</td><td>{}</td><td>mW</td></tr></table>
<p>Thermal resistance junction to ambient 417 K/W on PCB, gain {}.</p>"#,
                i % 9,
                50 + i % 200,
                100 + i % 400,
                250 + i % 150,
                100 + i % 300,
            )
        })
        .collect();
    bench(results, "parser/ingest_512", 1, 5, || {
        let mut words = 0usize;
        for html in &docs {
            let d = fonduer_parser::parse_document(
                "d",
                black_box(html.as_str()),
                fonduer_datamodel::DocFormat::Pdf,
                &Default::default(),
            );
            words += d.word_count();
        }
        words
    });
}

fn bench_candgen(results: &mut Vec<BenchResult>) {
    // Document-scope cross-product extraction over a synthetic corpus —
    // the provenance acceptance gate: this number must not move when the
    // flight recorder is on (records are only assembled after inference,
    // never inside extraction).
    let ds = Domain::Electronics.generate(10, 7);
    let ex = electronics::extractor(&ds, "has_collector_current", ContextScope::Document);
    bench(results, "candidates/candgen", 2, 20, || {
        ex.extract(&ds.corpus)
    });

    // Document-scope extraction over ~1.6k-word PALEO articles, where
    // trying every start position against the dictionaries is the cost
    // (the cross product is one candidate per article).
    let ds = Domain::Paleo.generate(16, 13);
    let ex = paleo::extractor(&ds, "formation_location", ContextScope::Document);
    let n_candidates = ex.extract(&ds.corpus).len();
    bench(results, "candidates/candgen_paleo", 2, 20, || {
        ex.extract(&ds.corpus)
    });
    with_throughput(results, n_candidates);
}

fn bench_content_hash(results: &mut Vec<BenchResult>) {
    // One PALEO article per iteration, cycling through 16: the hash every
    // session computes for each document before its first stage runs.
    let ds = Domain::Paleo.generate(16, 13);
    let docs: Vec<_> = ds.corpus.iter().map(|(_, d)| d).collect();
    let mut next = 0;
    bench(results, "datamodel/content_hash", 32, 320, || {
        next = (next + 1) % docs.len();
        docs[next].content_hash()
    });
}

fn bench_featurize(results: &mut Vec<BenchResult>) {
    let ds = Domain::Electronics.generate(10, 7);
    let task_ex = electronics::extractor(&ds, "has_collector_current", ContextScope::Document);
    let cands = task_ex.extract(&ds.corpus);
    let cached = Featurizer::default();
    bench(results, "features/featurize/cached", 2, 10, || {
        cached.featurize(&ds.corpus, &cands)
    });
    with_throughput(results, cands.len());
    let uncached = Featurizer {
        cache_enabled: false,
        ..Default::default()
    };
    bench(results, "features/featurize/uncached", 2, 10, || {
        uncached.featurize(&ds.corpus, &cands)
    });
    with_throughput(results, cands.len());
    // Hashed-vocab fast path: no vocabulary at all, fixed 2^18 columns.
    let hashed = Featurizer::new(fonduer_features::FeatureConfig::all().with_hashing(18));
    bench(results, "features/featurize/hashed", 2, 10, || {
        hashed.featurize(&ds.corpus, &cands)
    });
    with_throughput(results, cands.len());
    // Memory shape of the three representations, for the EXPERIMENTS log.
    // `string_bytes` reconstructs what the pre-interning representation
    // cost: one heap `String` per (candidate, feature) emission.
    let interned = cached.featurize(&ds.corpus, &cands);
    let hashed_out = hashed.featurize(&ds.corpus, &cands);
    let string_bytes: usize = cands
        .candidates
        .iter()
        .map(|c| {
            std::mem::size_of::<Vec<String>>()
                + cached
                    .features_of(ds.corpus.doc(c.doc), c)
                    .iter()
                    .map(|s| std::mem::size_of::<String>() + s.capacity())
                    .sum::<usize>()
        })
        .sum();
    println!(
        "featurize heap: interned={} B ({} cols), hashed={} B (2^18 cols), string rows={} B",
        interned.heap_bytes(),
        interned.vocab.len(),
        hashed_out.heap_bytes(),
        string_bytes
    );
}

fn bench_model_step(results: &mut Vec<BenchResult>) {
    let ds = Domain::Electronics.generate(5, 7);
    let ex = electronics::extractor(&ds, "has_collector_current", ContextScope::Document);
    let cands = ex.extract(&ds.corpus);
    let feats = Featurizer::default().featurize(&ds.corpus, &cands);
    let vocab = HashedVocab::new(2048);
    let dataset = prepare(&ds.corpus, &cands, &feats, &vocab, 6);
    let targets: Vec<f32> = (0..dataset.inputs.len())
        .map(|i| if i % 2 == 0 { 0.9 } else { 0.1 })
        .collect();
    let model = || {
        FonduerModel::new(
            ModelConfig {
                epochs: 1,
                ..Default::default()
            },
            dataset.vocab_size,
            dataset.n_features,
            dataset.arity,
        )
    };
    bench(results, "learning/train_epoch", 1, 10, || {
        let mut m = model();
        m.fit(&dataset.inputs, &targets);
        m.predict_one(&dataset.inputs[0])
    });
    // The frozen pre-rewrite scalar path on the identical workload — the
    // honest old-vs-new comparison the flat-kernel PR is measured by.
    bench(
        results,
        "learning/train_epoch/scalar_reference",
        1,
        10,
        || {
            let mut m = model();
            m.fit_reference(&dataset.inputs, &targets);
            m.predict_one(&dataset.inputs[0])
        },
    );
    let old = results
        .iter()
        .find(|r| r.name == "learning/train_epoch/scalar_reference")
        .map(|r| r.ns_per_iter)
        .unwrap_or(0.0);
    let new = results
        .iter()
        .find(|r| r.name == "learning/train_epoch")
        .map(|r| r.ns_per_iter)
        .unwrap_or(1.0);
    println!(
        "train_epoch flat-kernel speedup vs scalar reference: {:.2}x",
        old / new.max(1.0)
    );
    // Inference over the full candidate set (each distinct window encoded
    // once through the flat encoder).
    let trained = {
        let mut m = model();
        m.fit(&dataset.inputs, &targets);
        m
    };
    bench(results, "learning/predict_all", 2, 20, || {
        trained.predict(&dataset.inputs)
    });
    with_throughput(results, dataset.inputs.len());
}

/// Kernel-level rows for the `fonduer-tensor` substrate and the flat
/// Bi-LSTM, gated by `bench_smoke` under the `tensor/` and `nn/` prefixes.
fn bench_tensor_kernels(results: &mut Vec<BenchResult>) {
    use fonduer_nn::{BiLstm, BiLstmCache, ParamStore};
    use fonduer_tensor::Mat;

    // The kernel rows depend on which dispatch path CPUID selected; record
    // it so committed numbers are interpretable across hosts.
    println!("tensor kernel path: {}", fonduer_tensor::simd_level());

    // gemv at the training stack's own shape: the 4h × d gate matmul
    // (h = 16, d = 16 → 64 × 16), run 64 times per call to get a stable
    // per-iteration time.
    let (rows, cols) = (64usize, 16usize);
    let w: Vec<f32> = (0..rows * cols).map(|i| (i as f32 * 0.37).sin()).collect();
    let x: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.73).cos()).collect();
    let mut y = vec![0.0f32; rows];
    bench(results, "tensor/gemv", 100, 1000, || {
        for _ in 0..64 {
            fonduer_tensor::gemv(black_box(&w), rows, cols, black_box(&x), black_box(&mut y));
        }
    });

    // Sparse gather-dot at featurization shape: ~40 active ids over a
    // 64k-column space, 256 candidates per iteration.
    let sw: Vec<f32> = (0..65_536).map(|i| (i as f32 * 0.11).sin()).collect();
    let ids: Vec<u32> = (0..40u32).map(|i| (i * 1621) % 65_536).collect();
    bench(results, "tensor/sparse_dot", 100, 1000, || {
        let mut acc = 0.0f32;
        for _ in 0..256 {
            acc += fonduer_tensor::sparse_dot(black_box(&sw), black_box(&ids));
        }
        acc
    });

    // The Bi-LSTM at model shape (d_emb = d_h = 16): 32 length-8
    // sequences through the flat encoder training and inference share.
    let mut store = ParamStore::new(42);
    let bi = BiLstm::new(&mut store, 16, 16);
    let (batch, t_max) = (32usize, 8usize);
    let seqs: Vec<Mat> = (0..batch)
        .map(|b| {
            let mut m = Mat::zeros(t_max, 16);
            for t in 0..t_max {
                let r = t * batch + b;
                for (k, v) in m.row_mut(t).iter_mut().enumerate() {
                    *v = ((r * 31 + k * 7) as f32 * 0.05).sin();
                }
            }
            m
        })
        .collect();
    let mut cache = BiLstmCache::default();
    let mut hs = Mat::default();
    bench(results, "nn/lstm_forward_seq", 10, 200, || {
        for sq in &seqs {
            bi.forward_flat(&store, black_box(sq), &mut cache, &mut hs);
        }
    });
}

fn bench_generative(results: &mut Vec<BenchResult>) {
    let mut lm = LabelMatrix::zeros(5000, 12);
    for i in 0..5000 {
        for j in 0..12 {
            let v = match (i * 7 + j * 3) % 5 {
                0 => 1,
                1 => -1,
                _ => 0,
            };
            lm.set(i, j, v);
        }
    }
    bench(results, "supervision/generative_fit", 2, 10, || {
        GenerativeModel::fit(&lm, &GenerativeOptions::default())
    });
}

fn bench_session(results: &mut Vec<BenchResult>) {
    // The Appendix C iteration loop: cold = a fresh session computing every
    // stage; warm = a long-lived session whose LF library changes between
    // runs, so candidate generation and featurization are served from the
    // artifact cache and only supervision → evaluation recompute.
    let ds = Domain::Electronics.generate(30, 7);
    let relation = "has_collector_current";
    let ex = electronics::extractor(&ds, relation, ContextScope::Document)
        .with_throttler(electronics::default_throttler(relation));
    let lfs_a = electronics::lfs(relation);
    let lfs_b: Vec<LabelingFunction> = electronics::lfs(relation).into_iter().skip(1).collect();
    // Right-sized learner for the iteration loop: feature-only model with
    // small dimensions, so the warm phase measures the supervision +
    // training increment rather than a dense optimizer sweep.
    let cfg = PipelineConfig::builder()
        .model(ModelConfig {
            epochs: 1,
            use_lstm: false,
            d_emb: 8,
            d_h: 4,
            d_attn: 4,
            ..Default::default()
        })
        .vocab_size(64)
        .train_frac(0.15)
        .build()
        .expect("bench config is valid");

    bench(results, "session/cold", 1, 10, || {
        let mut s = PipelineSession::from_parts(&ds.corpus, &ds.gold, &ex, &lfs_a, cfg.clone())
            .expect("valid session");
        s.output().expect("cold run")
    });

    let mut s =
        PipelineSession::from_parts(&ds.corpus, &ds.gold, &ex, &lfs_a, cfg).expect("valid session");
    s.output().expect("prime the cache");
    let mut flip = false;
    bench(results, "session/warm_resupervise", 1, 10, || {
        flip = !flip;
        s.set_lfs(if flip { &lfs_b } else { &lfs_a });
        s.output().expect("warm run")
    });
    assert!(
        s.stats().stage(StageId::Candidates).hits > 0,
        "warm runs must reuse the candidate artifact"
    );
    let t = s.timings();
    println!(
        "warm stage times: candgen={:.1}ms featurize={:.1}ms supervise={:.1}ms train={:.1}ms infer={:.1}ms",
        t.candgen_ms(), t.featurize_ms(), t.supervise_ms(), t.train_ms(), t.infer_ms()
    );
    let cold = results
        .iter()
        .find(|r| r.name == "session/cold")
        .map(|r| r.ns_per_iter)
        .unwrap_or(0.0);
    let warm = results
        .iter()
        .find(|r| r.name == "session/warm_resupervise")
        .map(|r| r.ns_per_iter)
        .unwrap_or(1.0);
    println!(
        "session cold/warm speedup: {:.1}x (candgen + featurize amortized)",
        cold / warm.max(1.0)
    );
}

/// Incremental-recomputation rows over a 512-document corpus: the
/// shard-covered walk (candidate generation → featurization → label
/// application) cold, then warm after a single-document upsert, then a
/// one-LF edit on a warm session, then the deterministic feature-shard
/// merge in isolation, in hashing mode and in interned mode. The warm walk
/// serves 511 documents from the shard cache and recomputes exactly one,
/// so it must beat the cold walk by at least 4×; that floor is asserted
/// here, next to the measurement, rather than in the `bench_smoke` gate
/// (which never fails rows it has no baseline for). The committed
/// `BENCH_micro.json` rows give 132.1 / 20.9 ms = 6.3×.
/// Downstream train/infer are excluded on both sides: they are unchanged
/// by sharding and would only dilute the measured increment. Every
/// `session/cold_512` iteration opens a new session over the same corpus,
/// whose entries memoize their content hashes, so after the warm-up
/// iteration the row no longer hashes documents.
fn bench_incremental(results: &mut Vec<BenchResult>) {
    let n_docs = 512;
    let ds = Domain::Electronics.generate(n_docs, 7);
    let relation = "has_collector_current";
    let ex = electronics::extractor(&ds, relation, ContextScope::Document)
        .with_throttler(electronics::default_throttler(relation));
    let lfs = electronics::lfs(relation);
    let cfg = PipelineConfig::builder()
        .features(fonduer_features::FeatureConfig::all().with_hashing(16))
        .build()
        .expect("bench config is valid");

    bench(results, "session/cold_512", 1, 5, || {
        let mut s = PipelineSession::from_parts(&ds.corpus, &ds.gold, &ex, &lfs, cfg.clone())
            .expect("valid session");
        s.candidates().expect("candgen").len();
        s.featurize().expect("featurize").n_features();
        s.supervise().expect("supervise");
    });

    // Revised editions of the datasheets: same names, different content.
    // Each iteration upserts a *new* revision (a different position from
    // the seed-8 corpus) so the upserted document is a genuine shard-cache
    // miss every time — flipping between two fixed revisions would be all
    // hits after the first two, measuring only the merge.
    let alt = Domain::Electronics.generate(n_docs, 8);
    let mut s = PipelineSession::from_parts(&ds.corpus, &ds.gold, &ex, &lfs, cfg.clone())
        .expect("valid session");
    s.supervise().expect("prime the shard cache");
    let mut next = 0usize;
    bench(results, "session/upsert_one_doc", 3, 10, || {
        let doc = alt.corpus.doc(DocId::from_usize(next)).clone();
        next += 1;
        s.upsert_document(doc).expect("upsert keeps names unique");
        s.candidates().expect("candgen").len();
        s.featurize().expect("featurize").n_features();
        s.supervise().expect("supervise");
    });
    // `recomputed_docs` counts the docs touched by the *last* traversal,
    // so check it right after a featurize walk (the supervise walk above
    // only recomputes label shards for train-split documents).
    let doc = alt.corpus.doc(DocId::from_usize(next)).clone();
    s.upsert_document(doc).expect("upsert keeps names unique");
    s.featurize().expect("featurize");
    assert_eq!(
        s.recomputed_docs(),
        1,
        "a one-document upsert must recompute exactly one document"
    );

    // The LF-edit loop on a warm session at a 70% training split: each
    // iteration swaps in a library with one LF renamed (a name the session
    // has not seen) and re-supervises, so every training document votes
    // that one column and reuses the other LFs' cached columns.
    let (warmup, iters) = (2, 10);
    let libs: Vec<Vec<LabelingFunction>> = (0..warmup + iters + 1)
        .map(|i| {
            let mut lib = electronics::lfs(relation);
            let k = i % lib.len();
            let lf = lib.remove(k);
            let (name, modality) = (format!("{}#rev{i}", lf.name), lf.modality);
            lib.insert(
                k,
                LabelingFunction::new(name, modality, move |doc, cand| lf.label(doc, cand)),
            );
            lib
        })
        .collect();
    let dev_cfg = PipelineConfig::builder()
        .train_frac(0.7)
        .build()
        .expect("bench config is valid");
    let mut s = PipelineSession::from_parts(&ds.corpus, &ds.gold, &ex, &lfs, dev_cfg.clone())
        .expect("valid session");
    s.supervise().expect("prime the label shards");
    let mut libs_left = libs.iter();
    bench(results, "session/lf_edit_512", warmup, iters, || {
        s.set_lfs(libs_left.next().expect("one library per iteration"));
        s.supervise().expect("supervise").label_coverage
    });
    s.set_lfs(libs_left.next().expect("one library per iteration"));
    s.supervise().expect("supervise");
    let n_train = ds
        .corpus
        .iter()
        .filter(|(_, d)| fonduer_core::pipeline::is_train_doc(&d.name, 0.7, dev_cfg.seed))
        .count();
    assert_eq!(
        s.recomputed_docs(),
        n_train,
        "a renamed LF is voted on every training document"
    );

    // The merge alone: per-document shards are already computed, assemble
    // the corpus-level CSR in deterministic input order — in hashing mode
    // (16 bits) and in the interned mode that default sessions run.
    let cands = ex.extract(&ds.corpus);
    let doc_shards = |cfg: FeatureConfig| {
        let fz = Featurizer::new(cfg);
        let mut shards = Vec::with_capacity(n_docs);
        let mut lo = 0usize;
        for di in 0..n_docs {
            let id = DocId::from_usize(di);
            let mut hi = lo;
            while hi < cands.candidates.len() && cands.candidates[hi].doc == id {
                hi += 1;
            }
            shards.push(fz.featurize_doc(ds.corpus.doc(id), &cands.candidates[lo..hi]));
            lo = hi;
        }
        shards
    };
    let shards = doc_shards(FeatureConfig::all().with_hashing(16));
    bench(results, "session/shard_merge", 2, 10, || {
        merge_shards(16, &shards)
    });
    with_throughput(results, cands.len());
    let shards = doc_shards(FeatureConfig::all());
    bench(results, "session/shard_merge_interned", 2, 10, || {
        merge_shards(0, &shards)
    });
    with_throughput(results, cands.len());

    let cold = results
        .iter()
        .find(|r| r.name == "session/cold_512")
        .map(|r| r.ns_per_iter)
        .unwrap_or(0.0);
    let warm = results
        .iter()
        .find(|r| r.name == "session/upsert_one_doc")
        .map(|r| r.ns_per_iter)
        .unwrap_or(f64::MAX);
    let ratio = cold / warm.max(1.0);
    println!("incremental cold/upsert speedup: {ratio:.1}x over {n_docs} docs");
    // The floor was 10x when the cold walk was dominated by the string-model
    // ingest; the arena rewrite made the cold side ~2.4x faster while the
    // upsert side was already bounded by supervise/train/infer over the full
    // candidate set, so the *ratio* contracted even though both absolute
    // numbers are at least as good. 4x still catches the failure this guard
    // exists for: the upsert path accidentally recomputing many documents.
    assert!(
        ratio >= 4.0,
        "single-document upsert must be >=4x faster than the cold walk (got {ratio:.1}x)"
    );
}

/// Thread-scaling rows for the four `fonduer-par`-routed hot stages:
/// candidate extraction, featurization, LF application, and one Hogwild
/// training epoch, each at 1/2/4/8 worker threads — but only at widths the
/// host has cores for (`available_parallelism()`), since a width above the
/// core count measures time-slicing, not scaling.
fn bench_scaling(results: &mut Vec<BenchResult>) {
    let ds = Domain::Electronics.generate(16, 7);
    let relation = "has_collector_current";
    let ex = electronics::extractor(&ds, relation, ContextScope::Document);
    let cands = ex.extract(&ds.corpus);
    let fz = Featurizer::default();
    let lf_vec = electronics::lfs(relation);
    let lf_refs: Vec<&LabelingFunction> = lf_vec.iter().collect();
    let feats = fz.featurize(&ds.corpus, &cands);
    let vocab = HashedVocab::new(2048);
    let dataset = prepare(&ds.corpus, &cands, &feats, &vocab, 6);
    let targets: Vec<f32> = (0..dataset.inputs.len())
        .map(|i| if i % 2 == 0 { 0.9 } else { 0.1 })
        .collect();
    // 30 iterations (vs 10 elsewhere): on hosts where several thread
    // counts resolve to the same pool width, the rows differ only by
    // scheduler noise, and the regression gate compares them directly.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for n in [1usize, 2, 4, 8].into_iter().filter(|&n| n <= cores) {
        let pool = Pool::new(n);
        bench(
            results,
            format!("candidates/candgen/threads={n}"),
            3,
            30,
            || ex.extract_parallel(&ds.corpus, &pool),
        );
        with_throughput(results, cands.len());
        bench(
            results,
            format!("features/featurize/threads={n}"),
            3,
            30,
            || fz.featurize_parallel(&ds.corpus, &cands, &pool),
        );
        with_throughput(results, cands.len());
        bench(
            results,
            format!("supervision/lf_apply/threads={n}"),
            3,
            30,
            || LabelMatrix::apply_parallel(&lf_refs, &ds.corpus, &cands, &pool),
        );
        with_throughput(results, cands.len());
        bench(
            results,
            format!("learning/train_epoch/threads={n}"),
            1,
            10,
            || {
                let mut m = fonduer_learning::HogwildLogReg::new(dataset.n_features, 7, n);
                m.epochs = 1;
                m.fit(&dataset.inputs, &targets);
                m.predict_one(&dataset.inputs[0])
            },
        );
    }
}

/// Overhead of the observability substrate itself, so the regression gate
/// catches an instrumentation change that slows the hot paths it wraps:
/// `observe/span_overhead` is one enter/exit of a nested span (stats
/// aggregation + event record with span events forced on, the worst case),
/// and `observe/doc_timings_overhead` is one `doc_stage_ns` upsert into a
/// warm table (the per-document cost candgen/featurize/LF-apply each pay).
fn bench_observe(results: &mut Vec<BenchResult>) {
    let was_enabled = observe::span_events_enabled();
    observe::set_span_events(true);
    let _outer = observe::span("bench_observe");
    bench(results, "observe/span_overhead", 1000, 10_000, || {
        observe::span("overhead_probe")
    });
    observe::set_span_events(was_enabled);
    let prev_cap = observe::doc_timings_cap();
    observe::set_doc_timings_cap(4096);
    // Warm the table so the bench measures the steady-state read-lock +
    // saturating-add path, not first-insert allocation.
    for i in 0..64 {
        observe::doc_stage_ns(&format!("bench_doc_{i:02}"), "candgen", 1);
    }
    let mut i = 0usize;
    bench(
        results,
        "observe/doc_timings_overhead",
        1000,
        10_000,
        || {
            i = (i + 1) % 64;
            observe::doc_stage_ns(&format!("bench_doc_{i:02}"), "candgen", 1);
        },
    );
    observe::set_doc_timings_cap(prev_cap);
}

/// Cost of one `/metrics` scrape (snapshot + Prometheus rendering) against
/// a populated registry. This is the work an obsd worker thread does per
/// request; the row proves scraping stays off the pipeline's hot path —
/// it shares nothing with the stages beyond relaxed atomic reads.
fn bench_obsd(results: &mut Vec<BenchResult>) {
    bench(results, "obsd/scrape_metrics", 100, 1000, || {
        let body = fonduer_obsd::render_metrics();
        assert!(!body.is_empty());
        body
    });
}

/// Serialize results as a JSON array of
/// `{name, iters, ns_per_iter, candidates_per_sec?}` (the throughput field
/// appears only on work-normalized rows).
fn render_json(results: &[BenchResult]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            let mut row = format!(
                "  {{\"name\":\"{}\",\"iters\":{},\"ns_per_iter\":{}",
                observe::json::escape(&r.name),
                r.iters,
                observe::json::number(r.ns_per_iter),
            );
            if r.candidates_per_sec > 0.0 {
                row.push_str(&format!(
                    ",\"candidates_per_sec\":{}",
                    observe::json::number(r.candidates_per_sec)
                ));
            }
            row.push('}');
            row
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Extract one row's `ns_per_iter` from the frozen pre-arena baseline JSON
/// (`BENCH_pre_arena.json`, committed at the workspace root and embedded at
/// compile time). Names are matched on the full quoted string, so
/// `nlp/tokenize` cannot match `nlp/tokenize_prose`.
fn baseline_ns(json: &str, name: &str) -> f64 {
    let key = format!("\"name\":\"{name}\"");
    let row = &json[json
        .find(&key)
        .unwrap_or_else(|| panic!("no baseline row {name}"))..];
    let field = "\"ns_per_iter\":";
    let tail = &row[row.find(field).expect("ns_per_iter field") + field.len()..];
    let end = tail
        .find([',', '}'])
        .expect("unterminated ns_per_iter value");
    tail[..end].trim().parse().expect("ns_per_iter number")
}

/// The ingest-rewrite performance gate. The arena document model + fused
/// parse→NLP pass must beat the frozen pre-arena medians by at least 2x on
/// the parse+tokenize path. Raw wall-clock comparisons across hosts are
/// meaningless, so drift is normalized out first: the geometric mean of
/// current/baseline on two rows the rewrite does not touch
/// (`observe/span_overhead`, `tensor/gemv`; the same sentinels as
/// `bench_smoke`) estimates how much of any change is just the machine,
/// and the speedup is measured against the drift-scaled baseline.
fn assert_ingest_speedup(results: &[BenchResult]) {
    let frozen = include_str!("../../../BENCH_pre_arena.json");
    let cur = |name: &str| -> f64 {
        results
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no current row {name}"))
            .ns_per_iter
    };
    let drift = ((cur("observe/span_overhead") / baseline_ns(frozen, "observe/span_overhead"))
        * (cur("tensor/gemv") / baseline_ns(frozen, "tensor/gemv")))
    .sqrt();
    let speedup = |name: &str| baseline_ns(frozen, name) * drift / cur(name);
    let tok = speedup("nlp/tokenize");
    let parse = speedup("parser/parse_document");
    // Combined parse+tokenize per document: the parse row already contains
    // tokenization, so weight the two rows by their baseline costs.
    let combined = (baseline_ns(frozen, "nlp/tokenize")
        + baseline_ns(frozen, "parser/parse_document"))
        * drift
        / (cur("nlp/tokenize") + cur("parser/parse_document"));
    println!(
        "ingest speedup vs pre-arena (drift {drift:.3}): \
         tokenize {tok:.2}x, parse_document {parse:.2}x, combined {combined:.2}x"
    );
    assert!(
        tok >= 2.0,
        "nlp/tokenize regressed: {tok:.2}x vs pre-arena baseline (need >= 2x)"
    );
    assert!(
        combined >= 2.0,
        "combined parse+tokenize is only {combined:.2}x vs pre-arena baseline (need >= 2x)"
    );
}

/// Where `BENCH_micro.json` goes: `BENCH_MICRO_OUT` if set, else the
/// workspace root (two levels above this crate's manifest).
fn out_path() -> String {
    std::env::var("BENCH_MICRO_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json").into())
}

fn main() {
    let mut results = Vec::new();
    let _root = observe::span!("micro");
    bench_tokenizer(&mut results);
    bench_parse_and_layout(&mut results);
    bench_ingest_512(&mut results);
    bench_candgen(&mut results);
    bench_content_hash(&mut results);
    bench_featurize(&mut results);
    bench_model_step(&mut results);
    bench_tensor_kernels(&mut results);
    bench_generative(&mut results);
    bench_session(&mut results);
    bench_incremental(&mut results);
    bench_scaling(&mut results);
    bench_observe(&mut results);
    bench_obsd(&mut results);
    assert_ingest_speedup(&results);
    drop(_root);
    let path = out_path();
    match std::fs::write(&path, render_json(&results)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
    observe::emit_report();
}
