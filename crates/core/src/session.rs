//! Incremental pipeline sessions: the staged, artifact-cached execution
//! surface for iterative KBC (paper §4.3, Appendix C).
//!
//! Fonduer's core usage pattern is *iterative*: users tweak labeling
//! functions or throttlers and re-run, and the system amortizes cost so
//! only supervision and learning repeat. A [`PipelineSession`] makes that
//! explicit. Each stage —
//! [`candidates`](PipelineSession::candidates) →
//! [`featurize`](PipelineSession::featurize) →
//! [`supervise`](PipelineSession::supervise) →
//! [`train`](PipelineSession::train) →
//! [`infer`](PipelineSession::infer) →
//! [`evaluate`](PipelineSession::evaluate) — caches its output artifact
//! under a content hash of its inputs (matcher/throttler fingerprints,
//! [`FeatureConfig`] mask, LF names, [`ModelConfig`], split seed, ...).
//! Mutating an input (e.g. [`set_lfs`](PipelineSession::set_lfs)) dirties
//! only the stages whose keys change, so the LF-iteration loop re-runs
//! supervision + training against cached candidates and feature matrices —
//! the Appendix C workflow.
//!
//! Staleness is purely key-based: setters never eagerly drop artifacts, so
//! setting an input back to its previous value re-hits the cache. Per-stage
//! hits and misses are tracked in [`SessionStats`] and mirrored to
//! `fonduer-observe` counters (`session.cache.hit.<stage>` /
//! `session.cache.miss.<stage>`); stage recomputation runs under the same
//! span names (`candgen`, `featurize`, ...) the one-shot
//! [`run_task`](crate::run_task) always used.
//!
//! Closure-backed matchers, throttlers, and LFs are opaque to content
//! hashing: a matcher closure's *behavior* can change without its
//! fingerprint changing, and an LF is identified by its name. Changing an
//! LF's logic therefore needs a new name — or a call to
//! [`invalidate`](PipelineSession::invalidate) to force a full recompute.
//!
//! # Incremental corpora
//!
//! Below the stage cache sits a per-document [`shard_cache`]: candidate
//! slices, feature CSR blocks, and label shards are each cached under
//! `(document content hash, stage config fingerprint)` and stitched into
//! the corpus-level artifacts by a deterministic input-order merge (the
//! same reduction contract `fonduer-par` uses, so assembled artifacts are
//! byte-identical to a cold sequential run). The corpus itself is owned
//! copy-on-write: [`upsert_document`](PipelineSession::upsert_document)
//! and [`remove_document`](PipelineSession::remove_document) mutate it in
//! place, and only the touched document's shards miss on the next run —
//! every unchanged document is a pure cache hit, and the cheap merge +
//! downstream train/infer re-run. [`recomputed_docs`](PipelineSession::recomputed_docs)
//! reports how many documents actually recomputed in the last traversal.
//!
//! The first mutation copies the borrowed corpus's document list, not its
//! documents: a [`Corpus`] stores each document behind an `Arc`, so the
//! session's copy shares every document the caller holds, and only the
//! upserted one is new. The shard keys read each document's content hash
//! from the corpus's per-entry memo, so a document is hashed once per
//! corpus, however many sessions open over it.
//!
//! A label shard is keyed by the extractor alone and holds one vote column
//! per LF identity plus the gold flags of the document's candidates. An LF
//! edit therefore votes only the LFs a document's shard has not seen: a
//! new name re-votes one column on every training document, while a drop,
//! a reorder or a step back to an earlier library re-votes nothing. LFs
//! whose name two LFs have shared are the exception: any library change
//! re-votes them, so dropping or inserting one never hands another its
//! column. Each shard keeps the current library's columns plus at most as
//! many older ones, so a replaced LF still hits when it comes back. The
//! label matrix is written row-major straight from the columns.

pub mod shard_cache;

use crate::error::Error;
use crate::eval::{eval_tuples, gold_tuples_for_docs, PrF1, Tuple};
use crate::kb::KnowledgeBase;
use crate::pipeline::{is_train_doc, Learner, PipelineConfig, PipelineOutput, Task, Timings};
use fonduer_candidates::{Candidate, CandidateExtractor, CandidateSet};
use fonduer_datamodel::{Corpus, DocId, Document};
use fonduer_features::{merge_shards, DocFeatureShard, FeatureConfig, FeatureSet, Featurizer};
use fonduer_learning::{
    prepare, FonduerModel, HogwildLogReg, LogRegModel, ModelConfig, PreparedDataset, ProbClassifier,
};
use fonduer_nlp::{fnv1a, HashedVocab};
use fonduer_observe as observe;
use fonduer_observe::{MentionProvenance, ProvenanceMeta, ProvenanceRecord};
use fonduer_supervision::{
    GenerativeModel, GenerativeOptions, LabelMatrix, LabelVotes, LabelingFunction, LfDiagnostics,
};
use fonduer_synth::GoldKb;
use shard_cache::{ShardCache, ShardCacheSummary, ShardKey};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// The cached pipeline stages, in dependency order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageId {
    /// Candidate generation (phase 2).
    Candidates,
    /// Multimodal featurization + model-input preparation (phase 3a).
    Featurize,
    /// LF application + generative model + LF diagnostics (phase 3b).
    Supervise,
    /// Discriminative training (phase 3c).
    Train,
    /// Inference over all candidates.
    Infer,
    /// Held-out evaluation + KB construction.
    Evaluate,
}

impl StageId {
    /// All stages, in dependency order.
    pub const ALL: [StageId; 6] = [
        StageId::Candidates,
        StageId::Featurize,
        StageId::Supervise,
        StageId::Train,
        StageId::Infer,
        StageId::Evaluate,
    ];

    /// Stage label used in counter names and reports (matches the span
    /// names `run_task` has always emitted).
    pub fn name(self) -> &'static str {
        match self {
            StageId::Candidates => "candgen",
            StageId::Featurize => "featurize",
            StageId::Supervise => "supervise",
            StageId::Train => "train",
            StageId::Infer => "infer",
            StageId::Evaluate => "evaluate",
        }
    }

    fn index(self) -> usize {
        match self {
            StageId::Candidates => 0,
            StageId::Featurize => 1,
            StageId::Supervise => 2,
            StageId::Train => 3,
            StageId::Infer => 4,
            StageId::Evaluate => 5,
        }
    }
}

/// Cache counters for one stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Times the stage's artifact was served from cache.
    pub hits: u64,
    /// Times the stage's artifact was (re)computed.
    pub misses: u64,
}

/// Per-stage cache hit/miss counters for one session.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    stages: [StageStats; 6],
}

impl SessionStats {
    /// Counters for one stage.
    pub fn stage(&self, id: StageId) -> StageStats {
        self.stages[id.index()]
    }

    /// Total cache hits across all stages.
    pub fn hits(&self) -> u64 {
        self.stages.iter().map(|s| s.hits).sum()
    }

    /// Total artifact computations across all stages.
    pub fn misses(&self) -> u64 {
        self.stages.iter().map(|s| s.misses).sum()
    }

    /// One-line rendering, e.g. `candgen 1h/1m featurize 1h/1m ...`.
    pub fn to_line(&self) -> String {
        StageId::ALL
            .iter()
            .map(|&id| {
                let s = self.stage(id);
                format!("{} {}h/{}m", id.name(), s.hits, s.misses)
            })
            .collect::<Vec<_>>()
            .join("  ")
    }
}

/// One cached artifact plus the content-hash key it was computed under.
struct Cached<T> {
    key: u64,
    value: T,
}

/// The supervision stage's artifact: everything phase 3b derives from the
/// candidate set, the LF library, and the document split.
pub struct SupervisionArtifact {
    /// Dense label matrix over training candidates (rows follow `train_idx`).
    pub label_matrix: LabelMatrix,
    /// Indices (into the candidate set) of training-split candidates.
    pub train_idx: Vec<usize>,
    /// Generative-model marginals, aligned with `train_idx`.
    pub train_marginals: Vec<f64>,
    /// Fraction of training candidates with at least one LF vote.
    pub label_coverage: f64,
    /// Per-LF error-analysis table (empirical accuracy when gold is known).
    pub lf_diagnostics: LfDiagnostics,
}

/// The candidate stage's artifact: the merged set plus the per-document
/// row ranges the shard-assembled featurize/supervise stages slice by.
struct CandidateArtifact {
    set: CandidateSet,
    /// `ranges[i]` is the `[lo, hi)` candidate index range of document `i`.
    ranges: Vec<(u32, u32)>,
}

/// Default shard capacity before the first corpus-sized resize.
const DEFAULT_SHARD_CAPACITY: usize = 64;

/// The session's per-document shard caches, one per shardable stage.
struct ShardStore {
    candidates: ShardCache<Vec<Candidate>>,
    features: ShardCache<DocFeatureShard>,
    labels: ShardCache<LabelShard>,
}

impl ShardStore {
    fn new() -> Self {
        Self {
            candidates: ShardCache::new(DEFAULT_SHARD_CAPACITY),
            features: ShardCache::new(DEFAULT_SHARD_CAPACITY),
            labels: ShardCache::new(DEFAULT_SHARD_CAPACITY),
        }
    }

    /// Track the corpus size: keep roughly two generations of shards per
    /// document so an upsert-then-revert still hits.
    fn resize_for(&mut self, n_docs: usize) {
        let cap = (n_docs * 2).max(DEFAULT_SHARD_CAPACITY);
        self.candidates.set_capacity(cap);
        self.features.set_capacity(cap);
        self.labels.set_capacity(cap);
    }

    fn clear(&mut self) {
        self.candidates.clear();
        self.features.clear();
        self.labels.clear();
    }

    fn summary(&self, recomputed_docs: usize) -> ShardCacheSummary {
        ShardCacheSummary {
            hits: self.candidates.hits() + self.features.hits() + self.labels.hits(),
            misses: self.candidates.misses() + self.features.misses() + self.labels.misses(),
            evicts: self.candidates.evicts() + self.features.evicts() + self.labels.evicts(),
            cached: self.candidates.len() + self.features.len() + self.labels.len(),
            recomputed_docs,
        }
    }
}

/// One training document's label shard: the gold flags of its candidates
/// plus one vote column per LF identity (see [`lf_identities`]) voted on
/// it. The current library's columns come first, in library order, then at
/// most as many older ones, so an LF that a revision replaced still hits
/// when it comes back.
struct LabelShard {
    /// `gold[r]`: whether the document's candidate `r` is a gold tuple.
    gold: Arc<[bool]>,
    /// `(LF identity, one vote per candidate)`.
    columns: Vec<(u64, Arc<[i8]>)>,
}

impl LabelShard {
    fn column(&self, id: u64) -> Option<&[i8]> {
        self.columns
            .iter()
            .find(|(c, _)| *c == id)
            .map(|(_, v)| &v[..])
    }

    /// The shard after `library` became current: its columns (from `voted`
    /// or from `self`) in library order, then up to `library.len()` older
    /// columns, most recently current first.
    fn revised(&self, library: &[u64], voted: Vec<(u64, Arc<[i8]>)>) -> Self {
        let mut columns = Vec::with_capacity(2 * library.len());
        for &id in library {
            let (_, col) = voted
                .iter()
                .chain(&self.columns)
                .find(|(c, _)| *c == id)
                .expect("every library column is voted or cached");
            columns.push((id, Arc::clone(col)));
        }
        columns.extend(
            self.columns
                .iter()
                .filter(|(c, _)| !library.contains(c))
                .take(library.len())
                .cloned(),
        );
        Self {
            gold: Arc::clone(&self.gold),
            columns,
        }
    }
}

/// Identity of each LF in `lfs`, the key of its vote columns. An LF is
/// identified by its name, so a rename, drop, add or reorder elsewhere in
/// the library keeps its columns; changing an LF's logic needs a new name.
///
/// A name in `shared` (two LFs of a library the session supervised shared
/// it) does not tell its LFs apart from one library to the next: dropping
/// or inserting one of them would hand another its column. Such an LF is
/// identified by its occurrence index among same-named LFs plus the
/// library's ordered name list, so every library change re-votes it.
fn lf_identities(lfs: &[LabelingFunction], shared: &BTreeSet<String>) -> Vec<u64> {
    let names = lf_names_hash(lfs);
    lfs.iter()
        .enumerate()
        .map(|(j, lf)| {
            let name = fnv1a(lf.name.as_bytes());
            if shared.contains(&lf.name) {
                let occurrence = lfs[..j].iter().filter(|o| o.name == lf.name).count();
                hash_parts("lf.shared", &[name, occurrence as u64, names])
            } else {
                hash_parts("lf", &[name])
            }
        })
        .collect()
}

/// Hash of a library's ordered LF names.
fn lf_names_hash(lfs: &[LabelingFunction]) -> u64 {
    let mut names = Vec::new();
    for lf in lfs {
        names.push(0x1f);
        names.extend_from_slice(lf.name.as_bytes());
    }
    fnv1a(&names)
}

struct EvalArtifact {
    kb: KnowledgeBase,
    metrics: PrF1,
}

/// Bracket a recomputed stage with `stage_start` / `stage_finish` events
/// on the live progress ring (the obsd `/events` SSE feed). No-op unless a
/// subscriber switched the feed on.
fn progress_stage<T>(name: &'static str, f: impl FnOnce() -> (T, Duration)) -> (T, Duration) {
    observe::progress("stage_start", name, "", 0);
    let (value, took) = f();
    observe::progress("stage_finish", name, "", took.as_micros() as u64);
    (value, took)
}

fn hash_parts(tag: &str, parts: &[u64]) -> u64 {
    let mut key = tag.as_bytes().to_vec();
    for p in parts {
        key.push(0x1f);
        key.extend_from_slice(&p.to_le_bytes());
    }
    fnv1a(&key)
}

/// A stateful, incrementally re-runnable pipeline over one corpus.
///
/// The session borrows the corpus, the gold KB, and the task inputs
/// (extractor + LF library) for its lifetime; the iterative loop swaps the
/// borrowed inputs with [`set_lfs`](Self::set_lfs) /
/// [`set_extractor`](Self::set_extractor) and re-runs
/// [`output`](Self::output). See the module docs for the caching model.
///
/// ```no_run
/// # use fonduer_core::{PipelineSession, PipelineConfig, Task};
/// # fn demo(corpus: &fonduer_datamodel::Corpus, gold: &fonduer_synth::GoldKb,
/// #         task: &Task, better_lfs: &[fonduer_supervision::LabelingFunction])
/// #         -> Result<(), fonduer_core::Error> {
/// let mut session = PipelineSession::new(corpus, gold, task, PipelineConfig::default())?;
/// let first = session.output()?; // cold: runs all six stages
/// session.set_lfs(better_lfs); // dirty supervise + train + infer + evaluate
/// let second = session.output()?; // warm: candgen + featurize served from cache
/// # Ok(()) }
/// ```
pub struct PipelineSession<'a> {
    /// Copy-on-write corpus: borrowed until the first
    /// [`upsert_document`](Self::upsert_document) /
    /// [`remove_document`](Self::remove_document), owned after. The owned
    /// copy shares every document it did not replace with the borrowed one;
    /// its memoized content hashes are the shard-key half that tracks
    /// corpus mutations.
    corpus: Cow<'a, Corpus>,
    gold: &'a GoldKb,
    extractor: &'a CandidateExtractor,
    lfs: &'a [LabelingFunction],
    cfg: PipelineConfig,
    /// Lenient sessions (the `run_task` compatibility path) skip the
    /// strict empty-candidate / empty-training-set checks and reproduce
    /// the historical permissive behavior bit for bit.
    strict: bool,
    candidates: Option<Cached<CandidateArtifact>>,
    split: Option<Cached<(BTreeSet<String>, BTreeSet<String>)>>,
    features: Option<Cached<FeatureSet>>,
    /// Model inputs derived from the feature matrix (token windows +
    /// feature rows per candidate). Built lazily by the train stage — an
    /// upsert's featurize→supervise walk never pays for it.
    dataset: Option<Cached<PreparedDataset>>,
    supervision: Option<Cached<SupervisionArtifact>>,
    model: Option<Cached<Box<dyn ProbClassifier>>>,
    marginals: Option<Cached<Vec<f32>>>,
    evaluation: Option<Cached<EvalArtifact>>,
    /// Per-document shard caches (the incremental-recomputation layer).
    shards: ShardStore,
    /// Names of documents with at least one shard recomputed during the
    /// current traversal (cleared at each public stage entry).
    recomputed: BTreeSet<String>,
    /// LF names that two LFs of a supervised library shared; their LFs'
    /// vote columns are keyed by the whole library (see [`lf_identities`]).
    shared_lf_names: BTreeSet<String>,
    timings: Timings,
    stats: SessionStats,
    /// Stages already counted during the current top-level traversal: one
    /// `output()` consults the candidate artifact from both featurize and
    /// supervise, but that is one hit, not two.
    noted: [bool; 6],
}

impl<'a> PipelineSession<'a> {
    /// Open a session for `task` over `corpus`, validating `cfg`.
    pub fn new(
        corpus: &'a Corpus,
        gold: &'a GoldKb,
        task: &'a Task,
        cfg: PipelineConfig,
    ) -> Result<Self, Error> {
        Self::from_parts(corpus, gold, &task.extractor, &task.lfs, cfg)
    }

    /// Open a session from an extractor and LF slice directly (no [`Task`]
    /// wrapper), validating `cfg`.
    pub fn from_parts(
        corpus: &'a Corpus,
        gold: &'a GoldKb,
        extractor: &'a CandidateExtractor,
        lfs: &'a [LabelingFunction],
        cfg: PipelineConfig,
    ) -> Result<Self, Error> {
        cfg.validate()?;
        Ok(Self::build(corpus, gold, extractor, lfs, cfg, true))
    }

    /// The `run_task` compatibility constructor: no config validation, no
    /// strict degenerate-input errors.
    pub(crate) fn compat(
        corpus: &'a Corpus,
        gold: &'a GoldKb,
        extractor: &'a CandidateExtractor,
        lfs: &'a [LabelingFunction],
        cfg: PipelineConfig,
    ) -> Self {
        Self::build(corpus, gold, extractor, lfs, cfg, false)
    }

    fn build(
        corpus: &'a Corpus,
        gold: &'a GoldKb,
        extractor: &'a CandidateExtractor,
        lfs: &'a [LabelingFunction],
        cfg: PipelineConfig,
        strict: bool,
    ) -> Self {
        // Ambient observability: FONDUER_OBSD=<addr> starts the process-
        // global debug server, making every session (and run_task caller)
        // scrapeable with zero code changes. No-op when unset.
        fonduer_obsd::activate_from_env();
        // Every stage key folds in every document's content hash: fill the
        // corpus's memos here, so stages start hashed. A later session over
        // the same corpus finds them filled.
        for id in corpus.doc_ids() {
            corpus.content_hash(id);
        }
        let mut shards = ShardStore::new();
        shards.resize_for(corpus.len());
        Self {
            corpus: Cow::Borrowed(corpus),
            gold,
            extractor,
            lfs,
            cfg,
            strict,
            candidates: None,
            split: None,
            features: None,
            dataset: None,
            supervision: None,
            model: None,
            marginals: None,
            evaluation: None,
            shards,
            recomputed: BTreeSet::new(),
            shared_lf_names: BTreeSet::new(),
            timings: Timings::default(),
            stats: SessionStats::default(),
            noted: [false; 6],
        }
    }

    // ---------------------------------------------------------------- inputs

    /// Replace the LF library. Dirties supervise → train → infer →
    /// evaluate; candidate and feature artifacts stay valid, and the next
    /// supervise votes only the LFs the label shards hold no column for
    /// yet. An LF is identified by its name; LFs that share a name are
    /// re-voted on every library change.
    pub fn set_lfs(&mut self, lfs: &'a [LabelingFunction]) {
        self.lfs = lfs;
    }

    /// Replace the candidate extractor. Dirties every stage (unless the new
    /// extractor's fingerprint matches the old one).
    pub fn set_extractor(&mut self, extractor: &'a CandidateExtractor) {
        self.extractor = extractor;
    }

    /// Replace the whole configuration (validated). Stages whose key inputs
    /// are unchanged keep their cached artifacts.
    pub fn set_config(&mut self, cfg: PipelineConfig) -> Result<(), Error> {
        cfg.validate()?;
        self.cfg = cfg;
        Ok(())
    }

    /// Change the classification threshold. Dirties only evaluate.
    pub fn set_threshold(&mut self, threshold: f32) -> Result<(), Error> {
        let mut cfg = self.cfg.clone();
        cfg.threshold = threshold;
        self.set_config(cfg)
    }

    /// Change the feature-modality switchboard. Dirties featurize → train →
    /// infer → evaluate; candidates and supervision stay valid.
    pub fn set_feature_config(&mut self, features: FeatureConfig) {
        self.cfg.features = features;
    }

    /// Change the neural-model hyperparameters. Dirties train → infer →
    /// evaluate.
    pub fn set_model_config(&mut self, model: ModelConfig) {
        self.cfg.model = model;
    }

    /// Change the discriminative learner. Dirties train → infer → evaluate.
    pub fn set_learner(&mut self, learner: Learner) {
        self.cfg.learner = learner;
    }

    /// Change the generative-model options. Dirties supervise → train →
    /// infer → evaluate.
    pub fn set_gen_opts(&mut self, gen_opts: GenerativeOptions) {
        self.cfg.gen_opts = gen_opts;
    }

    /// Change the train/test document split. Dirties supervise → train →
    /// infer → evaluate.
    pub fn set_split(&mut self, train_frac: f64, seed: u64) -> Result<(), Error> {
        let mut cfg = self.cfg.clone();
        cfg.train_frac = train_frac;
        cfg.seed = seed;
        self.set_config(cfg)
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    // ------------------------------------------------------- corpus mutation

    /// Read-only view of the session's current corpus (including any
    /// upserts/removals applied through the session).
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Insert or replace one document, keyed by its name. Returns the
    /// document's position. The next run recomputes only this document's
    /// candidate/feature/label shards plus the cheap merge and downstream
    /// train/infer — every other document is a pure shard-cache hit. An
    /// upsert whose content is byte-identical to the existing document is a
    /// no-op for caching (the content hash is unchanged).
    ///
    /// The first mutation copies the borrowed corpus's document list; the
    /// copy shares every other document with the caller's corpus.
    ///
    /// Errors with [`Error::DuplicateDocId`] when more than one existing
    /// document already carries the name (there is no unique document to
    /// replace).
    pub fn upsert_document(&mut self, doc: Document) -> Result<DocId, Error> {
        let count = self.corpus.count_named(&doc.name);
        if count > 1 {
            return Err(Error::DuplicateDocId {
                name: doc.name.clone(),
                count,
            });
        }
        let id = match self.corpus.index_of(&doc.name) {
            Some(id) => {
                self.corpus.to_mut().replace(id, doc);
                id
            }
            None => self.corpus.to_mut().add(doc),
        };
        // Hash the new content with the mutation, not in the next stage.
        self.corpus.content_hash(id);
        Ok(id)
    }

    /// Remove the document at `id`, returning it (still shared with the
    /// caller's corpus when the session borrowed it). Later documents shift
    /// down one position — shards are content-keyed, so their cached work
    /// survives the shift and the next run recomputes nothing but the
    /// merge + downstream stages.
    ///
    /// Errors with [`Error::DocNotFound`] when `id` is past the end of the
    /// corpus.
    pub fn remove_document(&mut self, id: DocId) -> Result<Arc<Document>, Error> {
        if id.index() >= self.corpus.len() {
            return Err(Error::DocNotFound {
                doc: id,
                n_docs: self.corpus.len(),
            });
        }
        Ok(self.corpus.to_mut().remove(id))
    }

    /// Number of documents whose shards were recomputed during the most
    /// recent traversal: the whole corpus on a cold run, exactly 1 after a
    /// warm single-document upsert, 0 when every stage was served from the
    /// monolithic stage cache.
    pub fn recomputed_docs(&self) -> usize {
        self.recomputed.len()
    }

    /// Aggregated shard-cache counters (lifetime hits/misses/evictions,
    /// resident shards) plus the last traversal's recomputed-document
    /// count.
    pub fn shard_stats(&self) -> ShardCacheSummary {
        self.shards.summary(self.recomputed.len())
    }

    /// Drop every cached artifact — including all per-document shards —
    /// forcing the next run to recompute all stages. The escape hatch for
    /// in-place edits content hashing cannot see (a closure body behind an
    /// unchanged matcher kind or LF name).
    pub fn invalidate(&mut self) {
        self.candidates = None;
        self.split = None;
        self.features = None;
        self.dataset = None;
        self.supervision = None;
        self.model = None;
        self.marginals = None;
        self.evaluation = None;
        self.shards.clear();
    }

    /// Per-stage cache hit/miss counters accumulated over the session.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Zero the cache counters (artifacts are kept).
    pub fn reset_stats(&mut self) {
        self.stats = SessionStats::default();
    }

    /// Stage timings of the most recent traversal. Stages served from cache
    /// report [`Duration::ZERO`]; recomputed stages report measured wall
    /// clock — so a warm re-run's total is the true incremental cost.
    pub fn timings(&self) -> Timings {
        self.timings
    }

    /// A queryable [`RunReport`](crate::report::RunReport) joining the
    /// last traversal's stage timings, the session's cache counters, the
    /// pool telemetry and span summaries from the `fonduer-observe`
    /// registry, and the per-document stage timings table. Call after
    /// `output()`; the snapshot reflects the process-global registry, so
    /// span totals accumulate across traversals while `last_us` is this
    /// session's most recent walk only.
    pub fn run_report(&self) -> crate::report::RunReport {
        crate::report::RunReport::collect(
            &self.timings,
            self.stats,
            self.shard_stats(),
            self.cfg.n_threads,
        )
    }

    /// Start (or reuse) the process-global `fonduer-obsd` debug server on
    /// `addr` (`"127.0.0.1:0"` picks an ephemeral port) and publish the
    /// session's current report state to it. Returns the bound address.
    /// Subsequent [`output`](Self::output) calls keep `/report`,
    /// `/report.json`, and `/lfs` fresh automatically.
    pub fn serve_obsd(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let bound = fonduer_obsd::ensure_global(addr)?;
        self.publish_obsd();
        Ok(bound)
    }

    /// Push the current `RunReport` renderings and LF diagnostics into the
    /// obsd publish slots. No-op when no server is active.
    fn publish_obsd(&self) {
        if !fonduer_obsd::is_active() {
            return;
        }
        let report = self.run_report();
        fonduer_obsd::publish_report(report.render_text(), report.render_jsonl());
        if let Some(sup) = self.supervision.as_ref() {
            fonduer_obsd::publish_lf_diagnostics(crate::report::lf_diagnostics_json(
                &sup.value.lf_diagnostics,
            ));
        }
    }

    // ------------------------------------------------------------ cache keys

    /// Record one hit/miss for `stage`, once per traversal (a single
    /// `output()` walk can consult an upstream artifact more than once —
    /// e.g. candidates feed both featurization and supervision). Returns
    /// whether this was the first consult of the traversal, so callers can
    /// also gate per-traversal side effects (like zeroing a stage timing)
    /// on it.
    /// Reset per-traversal bookkeeping (stage hit/miss notes and the
    /// recomputed-document set) at each public stage entry.
    fn begin_traversal(&mut self) {
        self.noted = [false; 6];
        self.recomputed.clear();
    }

    fn note(&mut self, stage: StageId, hit: bool) -> bool {
        if self.noted[stage.index()] {
            return false;
        }
        self.noted[stage.index()] = true;
        let s = &mut self.stats.stages[stage.index()];
        if hit {
            s.hits += 1;
        } else {
            s.misses += 1;
        }
        let verdict = if hit { "hit" } else { "miss" };
        observe::counter(&format!("session.cache.{verdict}.{}", stage.name()), 1);
        true
    }

    /// Content hash of the whole corpus, folded into every stage key so
    /// upserts/removals dirty the monolithic artifacts (shards below then
    /// make the recompute cheap).
    fn corpus_key(&self) -> u64 {
        let hashes: Vec<u64> = self
            .corpus
            .doc_ids()
            .map(|id| self.corpus.content_hash(id))
            .collect();
        hash_parts("corpus", &hashes)
    }

    fn candidates_key(&self) -> u64 {
        hash_parts(
            "candidates",
            &[self.extractor.fingerprint(), self.corpus_key()],
        )
    }

    fn split_key(&self) -> u64 {
        hash_parts(
            "split",
            &[
                self.cfg.train_frac.to_bits(),
                self.cfg.seed,
                self.corpus_key(),
            ],
        )
    }

    fn features_key(&self) -> u64 {
        hash_parts(
            "features",
            &[
                self.candidates_key(),
                self.cfg.features.fingerprint(),
                self.cfg.vocab_size as u64,
                self.cfg.window as u64,
            ],
        )
    }

    fn supervise_key(&self) -> u64 {
        hash_parts(
            "supervise",
            &[
                self.candidates_key(),
                self.split_key(),
                lf_names_hash(self.lfs),
                fnv1a(format!("{:?}", self.cfg.gen_opts).as_bytes()),
            ],
        )
    }

    fn train_key(&self) -> u64 {
        // Hogwild's racy updates make its weights legitimately depend on
        // the worker count; every other learner is thread-count-invariant,
        // so folding n_threads in for them would only cause spurious cache
        // misses (determinism is the contract).
        let thread_salt = match self.cfg.learner {
            Learner::HogwildLogReg => self.cfg.n_threads as u64,
            _ => 0,
        };
        hash_parts(
            "train",
            &[
                self.features_key(),
                self.supervise_key(),
                fnv1a(format!("{:?}", self.cfg.learner).as_bytes()),
                fnv1a(format!("{:?}", self.cfg.model).as_bytes()),
                self.cfg.seed,
                thread_salt,
            ],
        )
    }

    fn evaluate_key(&self) -> u64 {
        hash_parts(
            "evaluate",
            &[self.train_key(), self.cfg.threshold.to_bits() as u64],
        )
    }

    // ---------------------------------------------------------------- stages

    /// Phase 2: candidate generation. Cached on the extractor fingerprint.
    pub fn candidates(&mut self) -> Result<&CandidateSet, Error> {
        self.begin_traversal();
        self.ensure_candidates()?;
        Ok(&self.candidates.as_ref().unwrap().value.set)
    }

    fn ensure_candidates(&mut self) -> Result<(), Error> {
        let key = self.candidates_key();
        if self.candidates.as_ref().is_some_and(|c| c.key == key) {
            if self.note(StageId::Candidates, true) {
                self.timings.candgen = Duration::ZERO;
            }
            return Ok(());
        }
        self.note(StageId::Candidates, false);
        let cfg_fp = hash_parts("shard.cand", &[self.extractor.fingerprint()]);
        let n = self.corpus.len();
        self.shards.resize_for(n);
        let corpus: &Corpus = &self.corpus;
        let extractor = self.extractor;
        let n_threads = self.cfg.n_threads;
        let cache = &mut self.shards.candidates;
        let recomputed = &mut self.recomputed;
        let (value, took) = progress_stage("candgen", || {
            observe::timed("candgen", || {
                // Per-document shard plan: content-addressed lookups first,
                // then one parallel pass over only the misses. The
                // `extract_corpus` span covers only this per-document work
                // (what the doc-timings table measures); the merge below is
                // corpus-global reduction, outside it.
                let plan = {
                    let _span = observe::span("extract_corpus");
                    let mut plan: Vec<Option<Arc<Vec<Candidate>>>> = corpus
                        .doc_ids()
                        .map(|id| {
                            cache.get(ShardKey {
                                doc_hash: corpus.content_hash(id),
                                config: cfg_fp,
                            })
                        })
                        .collect();
                    let missing: Vec<DocId> = plan
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.is_none())
                        .map(|(i, _)| DocId::from_usize(i))
                        .collect();
                    if !missing.is_empty() {
                        let computed = fonduer_par::Pool::new(n_threads)
                            .par_map_timed(&missing, |&id| {
                                extractor.extract_doc(id, corpus.doc(id))
                            });
                        for (&id, (cands, ns)) in missing.iter().zip(computed) {
                            let name = &corpus.doc(id).name;
                            observe::doc_stage_ns(name, "candgen", ns);
                            recomputed.insert(name.clone());
                            let shard = Arc::new(cands);
                            cache.insert(
                                ShardKey {
                                    doc_hash: corpus.content_hash(id),
                                    config: cfg_fp,
                                },
                                Arc::clone(&shard),
                            );
                            plan[id.index()] = Some(shard);
                        }
                    }
                    plan
                };
                // Deterministic input-order merge (the fonduer-par reduction
                // contract), re-pointing each candidate at its current
                // corpus position so shards survive the DocId shifts a
                // removal causes.
                let mut candidates = Vec::new();
                let mut ranges = Vec::with_capacity(n);
                for (i, shard) in plan.iter().enumerate() {
                    let shard = shard.as_ref().expect("every shard resolved above");
                    let lo = candidates.len() as u32;
                    let id = DocId::from_usize(i);
                    candidates.extend(shard.iter().map(|c| Candidate::new(id, c.mentions.clone())));
                    ranges.push((lo, candidates.len() as u32));
                }
                CandidateArtifact {
                    set: CandidateSet {
                        schema: extractor.schema.clone(),
                        candidates,
                    },
                    ranges,
                }
            })
        });
        self.timings.candgen = took;
        self.candidates = Some(Cached { key, value });
        Ok(())
    }

    /// The train/test document-name split (cheap; cached on
    /// `(train_frac, seed)`).
    fn split(&mut self) -> &(BTreeSet<String>, BTreeSet<String>) {
        let key = self.split_key();
        if self.split.as_ref().is_none_or(|c| c.key != key) {
            let mut train_docs = BTreeSet::new();
            let mut test_docs = BTreeSet::new();
            for (_, doc) in self.corpus.iter() {
                if is_train_doc(&doc.name, self.cfg.train_frac, self.cfg.seed) {
                    train_docs.insert(doc.name.clone());
                } else {
                    test_docs.insert(doc.name.clone());
                }
            }
            self.split = Some(Cached {
                key,
                value: (train_docs, test_docs),
            });
        }
        &self.split.as_ref().unwrap().value
    }

    /// Phase 3a: multimodal featurization + model-input preparation.
    /// Cached on the candidate key plus the [`FeatureConfig`] mask, vocab
    /// size, and sentence window.
    pub fn featurize(&mut self) -> Result<&FeatureSet, Error> {
        self.begin_traversal();
        self.ensure_featurize()?;
        Ok(&self.features.as_ref().unwrap().value)
    }

    fn ensure_featurize(&mut self) -> Result<(), Error> {
        self.ensure_candidates()?;
        let key = self.features_key();
        if self.features.as_ref().is_some_and(|c| c.key == key) {
            if self.note(StageId::Featurize, true) {
                self.timings.featurize = Duration::ZERO;
            }
            return Ok(());
        }
        self.note(StageId::Featurize, false);
        let cfg_fp = hash_parts(
            "shard.feat",
            &[
                self.extractor.fingerprint(),
                self.cfg.features.fingerprint(),
            ],
        );
        let n = self.corpus.len();
        self.shards.resize_for(n);
        let corpus: &Corpus = &self.corpus;
        let art = &self.candidates.as_ref().unwrap().value;
        let featurizer = Featurizer::new(self.cfg.features);
        let hashing_bits = self.cfg.features.hashing_bits;
        let n_threads = self.cfg.n_threads;
        let cache = &mut self.shards.features;
        let recomputed = &mut self.recomputed;
        let (feats, took) = progress_stage("featurize", || {
            observe::timed("featurize", || {
                // The `featurize_corpus` span covers only the per-document
                // work (what the doc-timings table measures); the merge
                // below is corpus-global reduction, outside it.
                let plan = {
                    let _span = observe::span("featurize_corpus");
                    let mut plan: Vec<Option<Arc<DocFeatureShard>>> = corpus
                        .doc_ids()
                        .map(|id| {
                            cache.get(ShardKey {
                                doc_hash: corpus.content_hash(id),
                                config: cfg_fp,
                            })
                        })
                        .collect();
                    let missing: Vec<usize> = plan
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.is_none())
                        .map(|(i, _)| i)
                        .collect();
                    if !missing.is_empty() {
                        let computed =
                            fonduer_par::Pool::new(n_threads).par_map_timed(&missing, |&i| {
                                let (lo, hi) = art.ranges[i];
                                featurizer.featurize_doc(
                                    corpus.doc(DocId::from_usize(i)),
                                    &art.set.candidates[lo as usize..hi as usize],
                                )
                            });
                        for (&i, (shard, ns)) in missing.iter().zip(computed) {
                            let name = &corpus.doc(DocId::from_usize(i)).name;
                            observe::doc_stage_ns(name, "featurize", ns);
                            recomputed.insert(name.clone());
                            let shard = Arc::new(shard);
                            cache.insert(
                                ShardKey {
                                    doc_hash: corpus.content_hash(DocId::from_usize(i)),
                                    config: cfg_fp,
                                },
                                Arc::clone(&shard),
                            );
                            plan[i] = Some(shard);
                        }
                    }
                    plan
                };
                // Input-order merge: shard-local feature ids remap through
                // a shared vocab in first-occurrence order, reproducing the
                // sequential featurizer's intern order byte for byte.
                let shards: Vec<Arc<DocFeatureShard>> = plan
                    .into_iter()
                    .map(|shard| shard.expect("every shard resolved above"))
                    .collect();
                merge_shards(hashing_bits, &shards)
            })
        });
        self.timings.featurize = took;
        self.features = Some(Cached { key, value: feats });
        Ok(())
    }

    /// Model-input preparation (token windows + feature rows per
    /// candidate), keyed with the feature artifact. Only the train/infer
    /// path needs it, so featurize-stage consumers (and warm upsert walks)
    /// never pay for it.
    fn ensure_dataset(&mut self) -> Result<(), Error> {
        self.ensure_featurize()?;
        let key = self.features_key();
        if self.dataset.as_ref().is_some_and(|c| c.key == key) {
            return Ok(());
        }
        let vocab = HashedVocab::new(self.cfg.vocab_size);
        let dataset = prepare(
            &self.corpus,
            &self.candidates.as_ref().unwrap().value.set,
            &self.features.as_ref().unwrap().value,
            &vocab,
            self.cfg.window,
        );
        self.dataset = Some(Cached {
            key,
            value: dataset,
        });
        Ok(())
    }

    /// Phase 3b: LF application, generative model, and LF diagnostics over
    /// the training split. Cached on the candidate and split keys plus the
    /// LF names and generative options.
    pub fn supervise(&mut self) -> Result<&SupervisionArtifact, Error> {
        self.begin_traversal();
        self.ensure_supervise()?;
        Ok(&self.supervision.as_ref().unwrap().value)
    }

    fn ensure_supervise(&mut self) -> Result<(), Error> {
        self.ensure_candidates()?;
        self.split();
        let key = self.supervise_key();
        if self.supervision.as_ref().is_some_and(|c| c.key == key) {
            if self.note(StageId::Supervise, true) {
                self.timings.supervise = Duration::ZERO;
            }
            return Ok(());
        }
        self.note(StageId::Supervise, false);
        let lfs = self.lfs;
        let mut seen = BTreeSet::new();
        for lf in lfs {
            if !seen.insert(lf.name.as_str()) {
                self.shared_lf_names.insert(lf.name.clone());
            }
        }
        // Keyed without LF names or split params: a shard holds a column
        // per LF identity, so an LF edit votes only the new columns and a
        // split change reuses every shard already computed for a document.
        let cfg_fp = hash_parts("shard.label", &[self.extractor.fingerprint()]);
        let n = self.corpus.len();
        self.shards.resize_for(n);
        let corpus: &Corpus = &self.corpus;
        let art = &self.candidates.as_ref().unwrap().value;
        let (train_docs, _) = &self.split.as_ref().unwrap().value;
        let gold = self.gold;
        let shared_lf_names = &self.shared_lf_names;
        let gen_opts = &self.cfg.gen_opts;
        let n_threads = self.cfg.n_threads;
        let cache = &mut self.shards.labels;
        let recomputed = &mut self.recomputed;
        let ((label_matrix, train_idx, train_marginals, label_coverage, lf_diagnostics), took) =
            progress_stage("supervise", || {
                observe::timed("supervise", || {
                    let library = lf_identities(lfs, shared_lf_names);
                    // Corpus positions of training-split documents, in input
                    // order; label shards exist only for these.
                    let train_positions: Vec<usize> = (0..n)
                        .filter(|&i| train_docs.contains(&corpus.doc(DocId::from_usize(i)).name))
                        .collect();
                    let shards: Vec<Arc<LabelShard>> = {
                        let _span = observe::span("lf_apply");
                        let key = |i: usize| ShardKey {
                            doc_hash: corpus.content_hash(DocId::from_usize(i)),
                            config: cfg_fp,
                        };
                        // One lookup per document: a shard answers for
                        // every LF. `stale` holds (slot in
                        // `train_positions`, library columns to vote) for
                        // every shard that is absent or lacks a column; its
                        // lookup counts as a shard-cache miss.
                        let mut plan: Vec<Option<Arc<LabelShard>>> =
                            Vec::with_capacity(train_positions.len());
                        let mut stale: Vec<(usize, Vec<usize>)> = Vec::new();
                        for (k, &i) in train_positions.iter().enumerate() {
                            let mut missing = Vec::new();
                            let shard = cache.get_with(key(i), |s: &LabelShard| {
                                missing.extend(
                                    (0..lfs.len()).filter(|&j| s.column(library[j]).is_none()),
                                );
                                missing.is_empty()
                            });
                            if shard.is_none() {
                                missing.extend(0..lfs.len());
                            }
                            if shard.is_none() || !missing.is_empty() {
                                stale.push((k, missing));
                            }
                            plan.push(shard);
                        }
                        if !stale.is_empty() {
                            let has_gold = !gold.is_empty();
                            let relation = &art.set.schema.name;
                            let work = |(k, missing): &(usize, Vec<usize>)| {
                                let i = train_positions[*k];
                                let doc = corpus.doc(DocId::from_usize(i));
                                let (lo, hi) = art.ranges[i];
                                let cands = &art.set.candidates[lo as usize..hi as usize];
                                let voted: Vec<(u64, Arc<[i8]>)> = missing
                                    .iter()
                                    .map(|&j| (library[j], lfs[j].vote_column(doc, cands)))
                                    .collect();
                                let flags: Option<Arc<[bool]>> = plan[*k].is_none().then(|| {
                                    cands
                                        .iter()
                                        .map(|c| {
                                            has_gold
                                                && gold.contains(
                                                    relation,
                                                    &doc.name,
                                                    &c.arg_texts(doc),
                                                )
                                        })
                                        .collect()
                                });
                                (voted, flags)
                            };
                            let computed =
                                fonduer_par::Pool::new(n_threads).par_map_timed(&stale, work);
                            for (&(k, _), ((voted, flags), ns)) in stale.iter().zip(computed) {
                                let i = train_positions[k];
                                let name = &corpus.doc(DocId::from_usize(i)).name;
                                observe::doc_stage_ns(name, "lf_apply", ns);
                                recomputed.insert(name.clone());
                                let shard = match plan[k].take() {
                                    Some(old) => old.revised(&library, voted),
                                    None => LabelShard {
                                        gold: flags.expect("absent shards get gold flags"),
                                        columns: voted,
                                    },
                                };
                                let shard = Arc::new(shard);
                                cache.insert(key(i), Arc::clone(&shard));
                                plan[k] = Some(shard);
                            }
                        }
                        plan.into_iter()
                            .map(|s| s.expect("every shard resolved above"))
                            .collect()
                    };
                    // Row-major Λ straight from the columns, documents in
                    // input order; candidate indices and gold flags follow
                    // the same order.
                    let mut label_matrix = LabelMatrix::zeros(0, lfs.len());
                    let mut train_idx = Vec::new();
                    let mut train_gold = Vec::new();
                    let mut columns: Vec<&[i8]> = Vec::with_capacity(lfs.len());
                    for (&i, shard) in train_positions.iter().zip(&shards) {
                        let (lo, hi) = art.ranges[i];
                        columns.clear();
                        columns.extend(
                            library
                                .iter()
                                .map(|&id| shard.column(id).expect("every column resolved above")),
                        );
                        label_matrix.push_rows((hi - lo) as usize, &columns);
                        train_idx.extend(lo as usize..hi as usize);
                        train_gold.extend_from_slice(&shard.gold);
                    }
                    // One pass over Λ feeds the vote counters, the label
                    // model, the coverage gauge and the LF error-analysis
                    // table (empirical accuracy when gold is known).
                    let votes = LabelVotes::new(&label_matrix);
                    votes.record_vote_counters();
                    let (_, train_marginals) = GenerativeModel::fit_votes(&votes, gen_opts);
                    let label_coverage = votes.total_coverage();
                    let lf_names: Vec<String> = lfs.iter().map(|lf| lf.name.clone()).collect();
                    let lf_diagnostics = LfDiagnostics::from_votes(
                        &lf_names,
                        &votes,
                        (!gold.is_empty()).then_some(train_gold.as_slice()),
                    );
                    (
                        label_matrix,
                        train_idx,
                        train_marginals,
                        label_coverage,
                        lf_diagnostics,
                    )
                })
            });
        observe::gauge_set("supervision.label_coverage", label_coverage);
        lf_diagnostics.publish_gauges();
        self.timings.supervise = took;
        self.supervision = Some(Cached {
            key,
            value: SupervisionArtifact {
                label_matrix,
                train_idx,
                train_marginals,
                label_coverage,
                lf_diagnostics,
            },
        });
        Ok(())
    }

    /// Phase 3c: discriminative training. Cached on the feature and
    /// supervision keys plus the learner selection and model config.
    ///
    /// Strict sessions (the default) reject degenerate training inputs with
    /// [`Error::NoCandidates`] / [`Error::EmptyTrainingSet`] instead of
    /// silently fitting nothing.
    pub fn train(&mut self) -> Result<(), Error> {
        self.begin_traversal();
        self.ensure_train()
    }

    fn ensure_train(&mut self) -> Result<(), Error> {
        self.ensure_dataset()?;
        self.ensure_supervise()?;
        let key = self.train_key();
        if self.model.as_ref().is_some_and(|c| c.key == key) {
            if self.note(StageId::Train, true) {
                self.timings.train = Duration::ZERO;
            }
            return Ok(());
        }
        self.note(StageId::Train, false);
        let candidates = &self.candidates.as_ref().unwrap().value.set;
        let dataset = &self.dataset.as_ref().unwrap().value;
        let sup = &self.supervision.as_ref().unwrap().value;
        // Keep only candidates some LF labeled (Snorkel's behavior).
        let mut train_inputs = Vec::new();
        let mut train_targets = Vec::new();
        for (k, &i) in sup.train_idx.iter().enumerate() {
            if sup.label_matrix.row(k).iter().any(|&v| v != 0) {
                train_inputs.push(dataset.inputs[i].clone());
                train_targets.push(sup.train_marginals[k] as f32);
            }
        }
        if self.strict {
            if candidates.is_empty() {
                return Err(Error::NoCandidates {
                    relation: candidates.schema.name.clone(),
                });
            }
            if train_inputs.is_empty() {
                return Err(Error::EmptyTrainingSet {
                    relation: candidates.schema.name.clone(),
                    n_candidates: candidates.len(),
                    n_train: sup.train_idx.len(),
                });
            }
        }
        let cfg = &self.cfg;
        let (model, took) = progress_stage("train", || {
            observe::timed("train", || {
                let mut model: Box<dyn ProbClassifier> = match cfg.learner {
                    Learner::MultimodalLstm => Box::new(FonduerModel::new(
                        cfg.model.clone(),
                        dataset.vocab_size,
                        dataset.n_features,
                        dataset.arity,
                    )),
                    Learner::LogReg => Box::new(LogRegModel::new(dataset.n_features, cfg.seed)),
                    Learner::HogwildLogReg => Box::new(HogwildLogReg::new(
                        dataset.n_features,
                        cfg.seed,
                        cfg.n_threads,
                    )),
                };
                model.fit(&train_inputs, &train_targets);
                model
            })
        });
        self.timings.train = took;
        self.model = Some(Cached { key, value: model });
        Ok(())
    }

    /// Inference: marginal P(true) for every candidate (aligned with
    /// [`candidates`](Self::candidates)). Cached with the trained model.
    pub fn infer(&mut self) -> Result<&[f32], Error> {
        self.begin_traversal();
        self.ensure_infer()?;
        Ok(&self.marginals.as_ref().unwrap().value)
    }

    fn ensure_infer(&mut self) -> Result<(), Error> {
        self.ensure_train()?;
        let key = self.train_key();
        if self.marginals.as_ref().is_some_and(|c| c.key == key) {
            if self.note(StageId::Infer, true) {
                self.timings.infer = Duration::ZERO;
            }
            return Ok(());
        }
        self.note(StageId::Infer, false);
        let model = &self.model.as_ref().unwrap().value;
        let dataset = &self.dataset.as_ref().unwrap().value;
        let (marginals, took) = progress_stage("infer", || {
            observe::timed("infer", || model.predict(&dataset.inputs))
        });
        observe::counter("infer.candidates", marginals.len() as u64);
        self.timings.infer = took;
        self.marginals = Some(Cached {
            key,
            value: marginals,
        });
        Ok(())
    }

    /// Held-out evaluation against gold plus KB construction. Cached on the
    /// inference key and the classification threshold.
    pub fn evaluate(&mut self) -> Result<&PrF1, Error> {
        self.begin_traversal();
        self.ensure_evaluate()?;
        Ok(&self.evaluation.as_ref().unwrap().value.metrics)
    }

    fn ensure_evaluate(&mut self) -> Result<(), Error> {
        self.ensure_infer()?;
        let key = self.evaluate_key();
        if self.evaluation.as_ref().is_some_and(|c| c.key == key) {
            self.note(StageId::Evaluate, true);
            return Ok(());
        }
        self.note(StageId::Evaluate, false);
        let candidates = &self.candidates.as_ref().unwrap().value.set;
        let marginals = &self.marginals.as_ref().unwrap().value;
        let (_, test_docs) = &self.split.as_ref().unwrap().value;
        let relation = candidates.schema.name.clone();
        let arg_names = candidates.schema.arg_names.clone();
        let tuples_with_p: Vec<(Tuple, f32)> = candidates
            .candidates
            .iter()
            .zip(marginals.iter())
            .map(|(c, &p)| {
                let doc = self.corpus.doc(c.doc);
                ((doc.name.clone(), c.arg_texts(doc)), p)
            })
            .collect();
        // Held-out evaluation (before the KB takes ownership of the tuples).
        let pred_test: BTreeSet<Tuple> = tuples_with_p
            .iter()
            .filter(|((d, _), p)| *p >= self.cfg.threshold && test_docs.contains(d))
            .map(|(t, _)| t.clone())
            .collect();
        let gold_test = gold_tuples_for_docs(self.gold, &relation, test_docs);
        let metrics = eval_tuples(&pred_test, &gold_test);
        let kb =
            KnowledgeBase::from_marginals(&relation, &arg_names, tuples_with_p, self.cfg.threshold);
        self.evaluation = Some(Cached {
            key,
            value: EvalArtifact { kb, metrics },
        });
        Ok(())
    }

    /// Run every stage (cached stages are skipped) and assemble a
    /// [`PipelineOutput`] — byte-identical to what the one-shot
    /// [`run_task`](crate::run_task) produces for the same inputs.
    pub fn output(&mut self) -> Result<PipelineOutput, Error> {
        self.begin_traversal();
        self.ensure_evaluate()?;
        if observe::provenance::recording_enabled() {
            self.record_provenance();
        }
        self.publish_obsd();
        let candidates = self.candidates.as_ref().unwrap().value.set.clone();
        let marginals = self.marginals.as_ref().unwrap().value.clone();
        let (train_docs, test_docs) = self.split.as_ref().unwrap().value.clone();
        let sup = &self.supervision.as_ref().unwrap().value;
        let eval = &self.evaluation.as_ref().unwrap().value;
        Ok(PipelineOutput {
            candidates,
            marginals,
            kb: eval.kb.clone(),
            train_docs,
            test_docs,
            metrics: eval.metrics,
            label_coverage: sup.label_coverage,
            lf_diagnostics: sup.lf_diagnostics.clone(),
            timings: self.timings,
        })
    }

    /// Flight recorder: one provenance record per kept candidate, tracing
    /// it from mention spans through throttling, LF votes, and feature mix
    /// to its marginal (same records `run_task` has always emitted).
    fn record_provenance(&self) {
        let _span = observe::span("provenance");
        let candidates = &self.candidates.as_ref().unwrap().value.set;
        let marginals = &self.marginals.as_ref().unwrap().value;
        let sup = &self.supervision.as_ref().unwrap().value;
        let feats = &self.features.as_ref().unwrap().value;
        observe::provenance::set_meta(ProvenanceMeta {
            relation: candidates.schema.name.clone(),
            arg_names: candidates.schema.arg_names.clone(),
            matchers: self.extractor.matcher_names(),
            scope: self.extractor.scope.label().to_string(),
            throttlers: self.extractor.throttler_names(),
            lf_names: self.lfs.iter().map(|lf| lf.name.clone()).collect(),
        });
        let mut train_row = vec![usize::MAX; candidates.candidates.len()];
        for (k, &i) in sup.train_idx.iter().enumerate() {
            train_row[i] = k;
        }
        for (i, (c, &p)) in candidates
            .candidates
            .iter()
            .zip(marginals.iter())
            .enumerate()
        {
            let doc = self.corpus.doc(c.doc);
            let in_train = train_row[i] != usize::MAX;
            observe::provenance::record(ProvenanceRecord {
                doc: doc.name.clone(),
                candidate_index: i,
                mentions: c
                    .mentions
                    .iter()
                    .map(|m| MentionProvenance {
                        sentence: m.sentence.0,
                        start: m.start,
                        end: m.end,
                        text: m.normalized_text(doc),
                    })
                    .collect(),
                throttlers_passed: self.extractor.throttlers.len() as u32,
                in_train,
                lf_votes: if in_train {
                    sup.label_matrix.row(train_row[i]).to_vec()
                } else {
                    Vec::new()
                },
                feature_counts: feats.modality_counts(i),
                // Lazy name resolution: symbols stay interned on the hot
                // path; stringify a small sample only while recording.
                feature_sample: feats.feature_sample(i, 8),
                marginal: p,
            });
        }
    }
}
