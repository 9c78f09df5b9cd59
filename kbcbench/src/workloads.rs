//! The two workloads and the operations they share.
//!
//! Every call into the program goes through the public API:
//! `fonduer_synth::Domain::generate` for ingest and the `PipelineSession`
//! stage functions for everything after it. The program receives only the
//! generated corpora; the workload seed decides which corpora those are.
//!
//! Work per corpus varies with the corpus (one ELECTRONICS seed featurizes
//! 40% slower than another at the same size), so every run spreads its
//! operations over several corpora instead of timing one.

use crate::ledger::{Layer, Ledger};
use fonduer_candidates::{CandidateExtractor, ContextScope};
use fonduer_core::domains::{electronics, paleo};
use fonduer_core::pipeline::is_train_doc;
use fonduer_core::{Error, Learner, PipelineConfig, PipelineSession};
use fonduer_datamodel::{Corpus, DocId, Document};
use fonduer_features::FeatureSet;
use fonduer_supervision::{LabelingFunction, ABSTAIN, FALSE};
use fonduer_synth::{Domain, GoldKb, SynthDataset};
use std::time::{Duration, Instant};

/// Documents per corpus on every workload.
pub const N_DOCS: usize = 512;
/// Pool width of everything after ingest: builds, upserts, LF edits and
/// checks. One worker: on a 2-vCPU VM that shares its host, a second
/// worker made operation latencies spread two to three times wider within
/// a run (see `NOTES.md`).
pub const POOL_WIDTH: usize = 1;
/// Pool width of ingest (`Domain::generate`), which keeps the `par` layer
/// exercised; it runs only in set-ups.
pub const INGEST_WIDTH: usize = 2;
/// Minimum upserts and LF edits per run, so that p90 has ten samples
/// beyond it.
pub const MIN_OPS: usize = 100;
/// The timed phase stops here even when its minimum counts are not met,
/// so that a run always ends within its time limit.
const HARD_CAP: Duration = Duration::from_secs(120);
/// Lowest mean held-out F1 a run of any seed may score. Single corpora
/// vary more (one 10%-trained ELECTRONICS build scored 0.899), so the floor
/// applies to the run's mean over its corpora.
const F1_FLOOR: f64 = 0.9;
/// Largest drop of `heldout_f1` from a recorded value that still passes.
const F1_TOLERANCE: f64 = 0.02;
/// Upsert + LF-edit pairs after each cold build, besides the block's first.
const PAIRS_PER_BUILD: usize = 20;

/// What a run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (set-ups, builds, upserts, LF edits, checks).
    pub attempted: u64,
    /// Operations whose call returned `Err` or whose check failed.
    pub failed: u64,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Seconds of each cold KB build.
    pub build_s: Vec<f64>,
    /// Latency of each upsert after a session's first, ms.
    pub upsert_ms: Vec<f64>,
    /// Latency of each session's first upsert, which also copies the
    /// session's borrowed corpus (copy-on-write), ms.
    pub first_upsert_ms: Vec<f64>,
    /// Latency of each LF edit, ms.
    pub lf_edit_ms: Vec<f64>,
    /// Mean held-out F1 over the workload's distinct corpora.
    pub heldout_f1: f64,
    /// Wall seconds of each traced upsert + LF-edit pair (sessions' first
    /// pairs excluded). Traced and untraced pairs alternate on the same
    /// sessions, so their medians compare like with like.
    pub traced_pair_s: Vec<f64>,
    /// Wall seconds of each untraced pair.
    pub untraced_pair_s: Vec<f64>,
    /// Values read from stage results inside the units.
    pub obs: Observations,
}

/// Values read from stage results (not from counters).
#[derive(Default)]
pub struct Observations {
    /// Feature-space width after each featurize call.
    pub n_features: Vec<f64>,
    /// Label coverage after each supervise call.
    pub label_coverage: Vec<f64>,
    /// Training candidates after each supervise call.
    pub train_cands: Vec<f64>,
    /// `recomputed_docs()` after each upsert's featurize call.
    pub recomputed_after_upsert: Vec<f64>,
}

impl Outcome {
    /// Count one operation; report and count it as failed on `Err`.
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("kbcbench: {what} failed: {e}");
                None
            }
        }
    }

    fn pair(&mut self, traced: bool, wall_s: f64) {
        if traced {
            self.traced_pair_s.push(wall_s);
        } else {
            self.untraced_pair_s.push(wall_s);
        }
    }
}

fn err(e: Error) -> String {
    e.to_string()
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Seed of corpus `k` in stream `stream` of a run seeded `seed`
/// (SplitMix64 finalizer over the three).
fn corpus_seed(seed: u64, stream: u64, k: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream << 32)
        .wrapping_add(k as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn config(learner: Learner, train_frac: f64) -> PipelineConfig {
    PipelineConfig::builder()
        .learner(learner)
        .train_frac(train_frac)
        .n_threads(POOL_WIDTH)
        .build()
        .expect("benchmark configuration is valid")
}

/// `FONDUER_THREADS` overrides every pool, so it is switched around the
/// call. No thread of the program exists between calls (its pools are
/// scoped), so nothing reads the variable while it changes.
fn ingest(l: &mut Ledger, domain: Domain, n_docs: usize, seed: u64) -> SynthDataset {
    std::env::set_var("FONDUER_THREADS", INGEST_WIDTH.to_string());
    let ds = l.call("ingest", Layer::Parser, || domain.generate(n_docs, seed));
    std::env::set_var("FONDUER_THREADS", POOL_WIDTH.to_string());
    ds
}

/// Revision `i` of an LF library: LF `i mod len` is replaced by a revised
/// rule under a new name (odd revisions drop its negative votes), so every
/// training document's label shard misses on the next `supervise()`.
fn revised_library(
    lfs: fn(&str) -> Vec<LabelingFunction>,
    rel: &str,
    i: usize,
) -> Vec<LabelingFunction> {
    let mut lib = lfs(rel);
    let k = i % lib.len();
    let orig = lib.remove(k);
    let name = format!("{}#rev{i}", orig.name);
    let modality = orig.modality;
    let drop_negatives = i % 2 == 1;
    lib.insert(
        k,
        LabelingFunction::new(name, modality, move |doc, cand| {
            let v = orig.label(doc, cand);
            if drop_negatives && v == FALSE {
                ABSTAIN
            } else {
                v
            }
        }),
    );
    lib
}

fn training_docs(corpus: &Corpus, cfg: &PipelineConfig) -> usize {
    corpus
        .iter()
        .filter(|(_, d)| is_train_doc(&d.name, cfg.train_frac, cfg.seed))
        .count()
}

fn candidates(l: &mut Ledger, s: &mut PipelineSession<'_>) -> Result<(), String> {
    let n = l
        .call("candidates", Layer::Candidates, || {
            s.candidates().map(|c| c.len())
        })
        .map_err(err)?;
    l.set_items(n as f64);
    Ok(())
}

fn featurize(
    l: &mut Ledger,
    s: &mut PipelineSession<'_>,
    obs: &mut Observations,
) -> Result<(), String> {
    let (width, rows) = l
        .call("featurize", Layer::Features, || {
            s.featurize()
                .map(|f| (f.n_features(), f.matrix.indptr().len() - 1))
        })
        .map_err(err)?;
    l.set_items(rows as f64);
    obs.n_features.push(width as f64);
    Ok(())
}

fn supervise(
    l: &mut Ledger,
    s: &mut PipelineSession<'_>,
    obs: &mut Observations,
) -> Result<(), String> {
    let (coverage, train) = l
        .call("supervise", Layer::Supervision, || {
            s.supervise().map(|a| (a.label_coverage, a.train_idx.len()))
        })
        .map_err(err)?;
    l.set_items(train as f64);
    obs.label_coverage.push(coverage);
    obs.train_cands.push(train as f64);
    Ok(())
}

/// train → infer → evaluate; returns the held-out F1.
fn learn(l: &mut Ledger, s: &mut PipelineSession<'_>) -> Result<f64, String> {
    l.call("train", Layer::Learning, || s.train())
        .map_err(err)?;
    l.call("infer", Layer::Learning, || s.infer().map(|m| m.len()))
        .map_err(err)?;
    l.call("evaluate", Layer::Core, || s.evaluate().map(|m| m.f1))
        .map_err(err)
}

/// How far an upsert or LF edit refreshes each session.
#[derive(Clone, Copy)]
pub enum Refresh {
    /// Through `supervise()`: no retraining (the Bi-LSTM's epochs would
    /// dwarf the edit).
    Supervise,
    /// Through `train()` → `infer()` → `evaluate()`, so the edit reaches
    /// the KB (affordable with the logistic-regression learner).
    Evaluate,
}

fn refresh(l: &mut Ledger, s: &mut PipelineSession<'_>, how: Refresh) -> Result<(), String> {
    match how {
        Refresh::Supervise => Ok(()),
        Refresh::Evaluate => learn(l, s).map(|_| ()),
    }
}

/// The write: replace one document with its revised edition in every
/// session and refresh candidates → featurize → supervise (→ evaluate).
/// Exactly one document may recompute.
fn upsert(
    l: &mut Ledger,
    sessions: &mut [PipelineSession<'_>],
    docs: Vec<Document>,
    how: Refresh,
    obs: &mut Observations,
) -> Result<(), String> {
    for (s, doc) in sessions.iter_mut().zip(docs) {
        l.call("upsert_document", Layer::Core, || s.upsert_document(doc))
            .map_err(err)?;
        candidates(l, s)?;
        featurize(l, s, obs)?;
        let recomputed = s.recomputed_docs();
        obs.recomputed_after_upsert.push(recomputed as f64);
        supervise(l, s, obs)?;
        refresh(l, s, how)?;
        if recomputed != 1 {
            return Err(format!(
                "featurize after an upsert recomputed {recomputed} documents, expected 1"
            ));
        }
    }
    Ok(())
}

/// The LF edit: swap in each session's library with one revised LF and
/// refresh supervise (→ evaluate). Every training document's label shard
/// must recompute.
fn lf_edit<'a>(
    l: &mut Ledger,
    sessions: &mut [PipelineSession<'a>],
    libs: &'a [Vec<LabelingFunction>],
    n_train_docs: usize,
    how: Refresh,
    obs: &mut Observations,
) -> Result<(), String> {
    for (s, lfs) in sessions.iter_mut().zip(libs) {
        l.call("set_lfs", Layer::Core, || s.set_lfs(lfs));
        supervise(l, s, obs)?;
        let recomputed = s.recomputed_docs();
        refresh(l, s, how)?;
        if recomputed != n_train_docs {
            return Err(format!(
                "supervise after an LF edit recomputed {recomputed} documents, expected {n_train_docs}"
            ));
        }
    }
    Ok(())
}

/// One upsert followed by one LF edit on warm sessions; returns their wall
/// seconds. `first` marks the sessions' first upsert, which also copies
/// each session's borrowed corpus and is kept apart from the samples.
#[allow(clippy::too_many_arguments)]
fn dev_pair<'a>(
    l: &mut Ledger,
    out: &mut Outcome,
    sessions: &mut [PipelineSession<'a>],
    doc: &Document,
    libs: &'a [Vec<LabelingFunction>],
    n_train_docs: usize,
    how: Refresh,
    first: bool,
) -> f64 {
    let docs = vec![doc.clone(); sessions.len()];
    let t = Instant::now();
    let r = l.op("upsert", |l| upsert(l, sessions, docs, how, &mut out.obs));
    let upsert_ms = secs(t) * 1e3;
    out.record("upsert", r);
    let t = Instant::now();
    let r = l.op("lf_edit", |l| {
        lf_edit(l, sessions, libs, n_train_docs, how, &mut out.obs)
    });
    let lf_edit_ms = secs(t) * 1e3;
    out.record("lf_edit", r);
    if first {
        out.first_upsert_ms.push(upsert_ms);
    } else {
        out.upsert_ms.push(upsert_ms);
    }
    out.lf_edit_ms.push(lf_edit_ms);
    (upsert_ms + lf_edit_ms) / 1e3
}

/// The shard contract: a fresh cold session over the warm session's
/// current corpus and LF set produces byte-identical candidates, feature
/// matrix and label matrix.
fn verify_shards(
    l: &mut Ledger,
    warm: &mut PipelineSession<'_>,
    gold: &GoldKb,
    extractor: &CandidateExtractor,
    lfs: &[LabelingFunction],
    cfg: &PipelineConfig,
) -> Result<(), String> {
    let corpus = warm.corpus().clone();
    let mut cold = l
        .call("session_new", Layer::Core, || {
            PipelineSession::from_parts(&corpus, gold, extractor, lfs, cfg.clone())
        })
        .map_err(err)?;
    let warm_cands = warm.candidates().map_err(err)?.clone();
    let cold_cands = l
        .call("candidates", Layer::Candidates, || {
            cold.candidates().cloned()
        })
        .map_err(err)?;
    if cold_cands != warm_cands {
        return Err("candidates differ from a cold session's".into());
    }
    let warm_feats: FeatureSet = warm.featurize().map_err(err)?.clone();
    let cold_feats = l
        .call("featurize", Layer::Features, || cold.featurize().cloned())
        .map_err(err)?;
    let same_vocab = cold_feats.vocab.len() == warm_feats.vocab.len()
        && (0..cold_feats.vocab.len() as u32)
            .all(|c| cold_feats.vocab.name(c) == warm_feats.vocab.name(c));
    if *cold_feats.matrix != *warm_feats.matrix
        || cold_feats.n_features() != warm_feats.n_features()
        || !same_vocab
    {
        return Err("feature matrix differs from a cold session's".into());
    }
    let warm_sup = warm.supervise().map_err(err)?;
    let (warm_labels, warm_train) = (warm_sup.label_matrix.clone(), warm_sup.train_idx.clone());
    let cold_sup = l
        .call("supervise", Layer::Supervision, || cold.supervise())
        .map_err(err)?;
    if cold_sup.label_matrix != warm_labels || cold_sup.train_idx != warm_train {
        return Err("label matrix differs from a cold session's".into());
    }
    Ok(())
}

/// Held-out F1 recorded for one workload seed.
pub struct RecordedF1 {
    /// Workload seed.
    pub seed: u64,
    /// Mean held-out F1 measured on it.
    pub f1: f64,
}

/// Check a run's mean held-out F1 against its floor and, for a seed with
/// a recorded value, against that value.
fn check_f1(recorded: &[RecordedF1], seed: u64, f1: f64) -> Result<(), String> {
    if f1.is_nan() || f1 < F1_FLOOR {
        return Err(format!("held-out F1 {f1} is below the floor {F1_FLOOR}"));
    }
    match recorded.iter().find(|r| r.seed == seed) {
        Some(r) if f1 < r.f1 - F1_TOLERANCE => Err(format!(
            "held-out F1 {f1} is more than {F1_TOLERANCE} below the {} recorded for seed {seed}",
            r.f1
        )),
        _ => Ok(()),
    }
}

/// A cold-build workload: every build ingests a fresh corpus, opens fresh
/// sessions (one per relation) and walks candidates → evaluate. The
/// build's sessions then serve a block of upserts and LF edits.
pub struct ColdSpec {
    /// Corpus domain.
    pub domain: Domain,
    /// Relations built per corpus.
    pub relations: &'static [&'static str],
    /// Discriminative learner.
    pub learner: Learner,
    /// Training split fraction of the build.
    pub train_frac: f64,
    /// Distinct corpora, cycled; `heldout_f1` averages over them. Odd, so
    /// that alternately traced builds visit every corpus.
    pub distinct: usize,
    /// How far each upsert and LF edit refreshes the sessions.
    pub refresh: Refresh,
    /// Held-out F1 recorded for the default and held-out seeds.
    pub recorded: &'static [RecordedF1],
    /// Candidate extractor for a relation.
    pub extractor: fn(&SynthDataset, &'static str) -> CandidateExtractor,
    /// LF library for a relation.
    pub lfs: fn(&str) -> Vec<LabelingFunction>,
}

fn electronics_extractor(ds: &SynthDataset, rel: &'static str) -> CandidateExtractor {
    electronics::extractor(ds, rel, ContextScope::Document)
        .with_throttler(electronics::default_throttler(rel))
}

fn paleo_extractor(ds: &SynthDataset, rel: &'static str) -> CandidateExtractor {
    paleo::extractor(ds, rel, ContextScope::Document)
}

/// Training split of every session an upsert or LF edit lands on.
const DEV_TRAIN_FRAC: f64 = 0.7;

/// `elec_lstm`: Fonduer's default multimodal Bi-LSTM over ELECTRONICS
/// datasheets, trained on a 10% document sample.
pub const ELEC_LSTM: ColdSpec = ColdSpec {
    domain: Domain::Electronics,
    relations: &["has_collector_current"],
    learner: Learner::MultimodalLstm,
    train_frac: 0.1,
    distinct: 7,
    refresh: Refresh::Supervise,
    recorded: &[
        RecordedF1 {
            seed: 7,
            f1: 0.9906933373150159,
        },
        RecordedF1 {
            seed: 1007,
            f1: 0.9936159294589054,
        },
    ],
    extractor: electronics_extractor,
    lfs: electronics::lfs,
};

/// `paleo_front`: long PALEO articles, two document-scope relations, the
/// logistic-regression feature baseline.
pub const PALEO_FRONT: ColdSpec = ColdSpec {
    domain: Domain::Paleo,
    relations: &["formation_period", "formation_location"],
    learner: Learner::LogReg,
    train_frac: DEV_TRAIN_FRAC,
    distinct: 9,
    refresh: Refresh::Evaluate,
    recorded: &[
        RecordedF1 { seed: 13, f1: 1.0 },
        RecordedF1 {
            seed: 1013,
            f1: 1.0,
        },
    ],
    extractor: paleo_extractor,
    lfs: paleo::lfs,
};

type Tasks = Vec<(CandidateExtractor, Vec<LabelingFunction>)>;

/// One timed cold KB build over `ds`; returns its sessions and mean F1.
fn build<'a>(
    l: &mut Ledger,
    ds: &'a SynthDataset,
    tasks: &'a Tasks,
    cfg: &PipelineConfig,
    obs: &mut Observations,
) -> Result<(Vec<PipelineSession<'a>>, f64), String> {
    let mut sessions = Vec::with_capacity(tasks.len());
    let mut f1_sum = 0.0;
    for (extractor, lfs) in tasks {
        let mut s = l
            .call("session_new", Layer::Core, || {
                PipelineSession::from_parts(&ds.corpus, &ds.gold, extractor, lfs, cfg.clone())
            })
            .map_err(err)?;
        candidates(l, &mut s)?;
        featurize(l, &mut s, obs)?;
        supervise(l, &mut s, obs)?;
        f1_sum += learn(l, &mut s)?;
        sessions.push(s);
    }
    Ok((sessions, f1_sum / tasks.len() as f64))
}

/// Widen every session's training split to [`DEV_TRAIN_FRAC`], relabelling
/// the newly added training documents (untimed: it happens once per
/// block, before the block's first operation).
fn widen(
    l: &mut Ledger,
    sessions: &mut [PipelineSession<'_>],
    obs: &mut Observations,
) -> Result<(), String> {
    for s in sessions {
        if s.config().train_frac != DEV_TRAIN_FRAC {
            let seed = s.config().seed;
            s.set_split(DEV_TRAIN_FRAC, seed).map_err(err)?;
            supervise(l, s, obs)?;
        }
    }
    Ok(())
}

/// Run a cold-build workload for about `seconds`: builds over fresh
/// corpora, each followed by a block of upserts and LF edits on its
/// sessions, until the time is up, every distinct corpus has been built
/// and upserts and LF edits each have their minimum sample count.
pub fn cold(spec: &ColdSpec, seed: u64, seconds: f64, trace: bool, l: &mut Ledger) -> Outcome {
    let mut out = Outcome::default();
    let pairs = PAIRS_PER_BUILD + 1;
    // libs[j][r]: pair j's revised library for relation r.
    let libs: Vec<Vec<Vec<LabelingFunction>>> = (0..pairs)
        .map(|j| {
            spec.relations
                .iter()
                .map(|r| revised_library(spec.lfs, r, j))
                .collect()
        })
        .collect();
    let cfg = config(spec.learner, spec.train_frac);
    let dev_cfg = config(spec.learner, DEV_TRAIN_FRAC);
    let min_builds = spec.distinct.max(MIN_OPS.div_ceil(PAIRS_PER_BUILD));
    let mut f1_by_corpus: Vec<Option<f64>> = vec![None; spec.distinct];
    let clock = Instant::now();
    for n in 0.. {
        let k = n % spec.distinct;
        let traced = trace && n % 2 == 0;
        l.set_enabled(traced);
        let t = Instant::now();
        let (ds, revisions) = l.op("setup", |l| {
            let ds = ingest(l, spec.domain, N_DOCS, corpus_seed(seed, 0, k));
            (ds, ingest(l, spec.domain, pairs, corpus_seed(seed, 1, k)))
        });
        let tasks: Tasks = spec
            .relations
            .iter()
            .map(|&r| ((spec.extractor)(&ds, r), (spec.lfs)(r)))
            .collect();
        out.setup_s.push(secs(t));
        out.attempted += 1;

        let t = Instant::now();
        let built = l.op("build", |l| build(l, &ds, &tasks, &cfg, &mut out.obs));
        let build_s = secs(t);
        let mut sessions = match built {
            Ok((sessions, f1)) => {
                out.build_s.push(build_s);
                let checked = match f1_by_corpus[k] {
                    Some(prev) if prev.to_bits() != f1.to_bits() => Err(format!(
                        "held-out F1 {f1} differs from the {prev} of an earlier build of the same corpus"
                    )),
                    _ => Ok(()),
                };
                f1_by_corpus[k] = Some(f1);
                out.record("build", checked);
                sessions
            }
            Err(e) => {
                out.record::<()>("build", Err(e));
                Vec::new()
            }
        };

        if !sessions.is_empty() {
            let widened = l.op("widen", |l| widen(l, &mut sessions, &mut out.obs));
            if out.record("widen", widened).is_some() {
                let n_train_docs = training_docs(&ds.corpus, &dev_cfg);
                for (j, lib) in libs.iter().enumerate() {
                    let traced = trace && j % 2 == 1;
                    l.set_enabled(traced);
                    let doc = revisions.corpus.doc(DocId::from_usize(j));
                    let wall_s = dev_pair(
                        l,
                        &mut out,
                        &mut sessions,
                        doc,
                        lib,
                        n_train_docs,
                        spec.refresh,
                        j == 0,
                    );
                    if j > 0 {
                        out.pair(traced, wall_s);
                    }
                }
            }
        }

        let elapsed = clock.elapsed();
        if (n + 1 >= min_builds && elapsed.as_secs_f64() >= seconds) || elapsed >= HARD_CAP {
            let last = libs.last().expect("every block has pairs");
            for ((s, (extractor, _)), lfs) in sessions.iter_mut().zip(&tasks).zip(last) {
                let r = l.op("verify", |l| {
                    verify_shards(l, s, &ds.gold, extractor, lfs, &dev_cfg)
                });
                out.record("verify", r);
            }
            break;
        }
    }
    let f1s: Vec<f64> = f1_by_corpus.iter().flatten().copied().collect();
    out.heldout_f1 = crate::stats::mean(&f1s);
    let complete = if f1s.len() == spec.distinct {
        check_f1(spec.recorded, seed, out.heldout_f1)
    } else {
        Err(format!(
            "only {} of {} corpora built",
            f1s.len(),
            spec.distinct
        ))
    };
    out.record("heldout_f1", complete);
    out
}
