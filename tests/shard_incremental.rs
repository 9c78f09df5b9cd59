//! Document-granular incremental recomputation: the per-document shard
//! caches behind [`PipelineSession`] must be invisible in the artifacts.
//! A shard-assembled run is byte-identical to the direct corpus-level
//! computation; any sequence of upserts/removals converges to exactly the
//! cold run over the final corpus; and corpus mutations are typed errors,
//! never panics, when they reference unknown or ambiguous documents.

use fonduer::prelude::*;
use fonduer_core::domains::electronics;
use fonduer_core::{Error, PipelineSession};
use fonduer_datamodel::{Corpus, DocId, Document};
use fonduer_features::{FeatureSet, Featurizer};
use fonduer_supervision::LabelMatrix;
use fonduer_synth::{Domain, SynthDataset};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;

const RELATION: &str = "has_collector_current";

fn dataset(n_docs: usize, seed: u64) -> SynthDataset {
    Domain::Electronics.generate(n_docs, seed)
}

fn config() -> PipelineConfig {
    PipelineConfig::builder()
        .learner(Learner::LogReg)
        .features(FeatureConfig::all())
        .build()
        .expect("config is valid")
}

fn session<'a>(
    ds: &'a SynthDataset,
    extractor: &'a CandidateExtractor,
    lfs: &'a [LabelingFunction],
) -> PipelineSession<'a> {
    PipelineSession::from_parts(&ds.corpus, &ds.gold, extractor, lfs, config())
        .expect("session inputs are valid")
}

/// Byte-identity for feature sets: same CSR arrays, same vocabulary
/// content and modality tags column for column, same cache statistics.
fn assert_features_eq(a: &FeatureSet, b: &FeatureSet, ctx: &str) {
    assert_eq!(*a.matrix, *b.matrix, "{ctx}: CSR matrices differ");
    assert_eq!(a.vocab.len(), b.vocab.len(), "{ctx}: vocab sizes differ");
    for col in 0..a.vocab.len() as u32 {
        assert_eq!(a.vocab.name(col), b.vocab.name(col), "{ctx}: col {col}");
        assert_eq!(
            a.vocab.modality_idx(col),
            b.vocab.modality_idx(col),
            "{ctx}: modality of col {col}"
        );
    }
    assert_eq!(a.stats, b.stats, "{ctx}: cache stats differ");
}

/// Golden test: the shard-assembled candidate set, feature matrix, and
/// label matrix are byte-identical to the direct (monolithic) computation,
/// and the end-to-end metrics agree.
#[test]
fn shard_assembly_is_byte_identical_to_direct_computation() {
    let ds = dataset(14, 7);
    let extractor = electronics::extractor(&ds, RELATION, ContextScope::Document)
        .with_throttler(electronics::default_throttler(RELATION));
    let lfs = electronics::lfs(RELATION);
    let mut s = session(&ds, &extractor, &lfs);

    // Candidates: shard-merged set == direct extraction.
    let direct_cands = extractor.extract(&ds.corpus);
    assert_eq!(
        *s.candidates().expect("candgen"),
        direct_cands,
        "shard-merged candidate set differs from direct extraction"
    );

    // Features: shard-merged CSR == direct corpus-level featurization.
    let direct_feats = Featurizer::new(FeatureConfig::all()).featurize(&ds.corpus, &direct_cands);
    assert_features_eq(
        s.featurize().expect("featurize"),
        &direct_feats,
        "cold session vs direct",
    );

    // Labels: block-assembled matrix == direct LabelMatrix::apply over the
    // same training subset.
    let sup = s.supervise().expect("supervise");
    let train_subset = fonduer::candidates::CandidateSet {
        schema: direct_cands.schema.clone(),
        candidates: sup
            .train_idx
            .iter()
            .map(|&i| direct_cands.candidates[i].clone())
            .collect(),
    };
    let refs: Vec<&LabelingFunction> = lfs.iter().collect();
    let direct_labels = LabelMatrix::apply(&refs, &ds.corpus, &train_subset);
    assert_eq!(
        sup.label_matrix, direct_labels,
        "shard-assembled label matrix differs from direct application"
    );

    // Metrics: identical P/R/F1 to the one-shot pipeline over the same
    // inputs.
    let metrics = *s.evaluate().expect("evaluate");
    let task = fonduer_core::Task {
        extractor: electronics::extractor(&ds, RELATION, ContextScope::Document)
            .with_throttler(electronics::default_throttler(RELATION)),
        lfs: electronics::lfs(RELATION),
    };
    let direct = fonduer::core::run_task(&ds.corpus, &ds.gold, &task, &config());
    assert_eq!(metrics, direct.metrics, "PrF1 differs from run_task");
}

/// A warm upsert recomputes exactly the upserted document; every other
/// document is served from the shard cache.
#[test]
fn warm_upsert_recomputes_exactly_one_document() {
    let ds = dataset(16, 7);
    let extractor = electronics::extractor(&ds, RELATION, ContextScope::Document);
    let lfs = electronics::lfs(RELATION);
    let mut s = session(&ds, &extractor, &lfs);
    s.featurize().expect("cold featurize");
    assert_eq!(s.recomputed_docs(), 16, "cold run recomputes every doc");

    let revised = dataset(16, 8).corpus.doc(DocId::from_usize(5)).clone();
    let id = s.upsert_document(revised).expect("name is unique");
    assert_eq!(id, DocId::from_usize(5), "same name replaces in place");
    s.featurize().expect("warm featurize");
    assert_eq!(
        s.recomputed_docs(),
        1,
        "warm upsert must recompute only the upserted document"
    );

    // Upserting an identical copy is a full cache hit: zero recomputes.
    let copy = s.corpus().doc(id).clone();
    s.upsert_document(copy).expect("name is unique");
    s.featurize().expect("identical upsert");
    assert_eq!(s.recomputed_docs(), 0, "identical content is a shard hit");

    let stats = s.shard_stats();
    assert!(stats.hits > 0, "warm walks must hit the shard cache");
    assert_eq!(stats.evicts, 0, "capacity covers the corpus");
}

/// The first upsert over a borrowed corpus copies its document list, not
/// its documents: every untouched document of the session's corpus is the
/// caller's own, and the caller's corpus still holds the old edition of
/// the upserted document.
#[test]
fn first_upsert_shares_untouched_documents_with_the_caller() {
    let ds = dataset(16, 7);
    let extractor = electronics::extractor(&ds, RELATION, ContextScope::Document);
    let lfs = electronics::lfs(RELATION);
    let mut s = session(&ds, &extractor, &lfs);
    s.featurize().expect("cold featurize");

    let upserted = DocId::from_usize(5);
    let old_hash = ds.corpus.doc(upserted).content_hash();
    let revised = dataset(16, 8).corpus.doc(upserted).clone();
    let new_hash = revised.content_hash();
    assert_ne!(old_hash, new_hash, "the revision must change the content");
    let id = s.upsert_document(revised).expect("name is unique");
    assert_eq!(id, upserted, "same name replaces in place");

    for (i, doc) in ds.corpus.iter() {
        if i != id {
            assert!(
                std::ptr::eq(s.corpus().doc(i), doc),
                "document {i:?} was copied by the first upsert"
            );
        }
    }
    assert_eq!(ds.corpus.doc(id).content_hash(), old_hash);
    assert_eq!(ds.corpus.content_hash(id), old_hash);
    assert_eq!(s.corpus().content_hash(id), new_hash);
    s.featurize().expect("warm featurize");
    assert_eq!(
        s.recomputed_docs(),
        1,
        "only the upserted document recomputes"
    );
}

/// Removing a document shifts every later `DocId`; the mutated session
/// must produce exactly what a fresh session over the shrunken corpus
/// produces.
#[test]
fn remove_matches_fresh_session_on_shrunken_corpus() {
    let ds = dataset(12, 7);
    let extractor = electronics::extractor(&ds, RELATION, ContextScope::Document);
    let lfs = electronics::lfs(RELATION);
    let mut s = session(&ds, &extractor, &lfs);
    s.featurize().expect("cold run");

    let gone = s.remove_document(DocId::from_usize(4)).expect("in range");
    assert_eq!(s.corpus().len(), 11);
    assert!(
        s.corpus().index_of(&gone.name).is_none(),
        "removed document must not remain in the corpus view"
    );

    let shrunk = s.corpus().clone();
    let mut fresh = PipelineSession::from_parts(&shrunk, &ds.gold, &extractor, &lfs, config())
        .expect("session inputs are valid");
    assert_eq!(
        *s.candidates().expect("mutated"),
        *fresh.candidates().expect("fresh"),
        "candidate ids must re-point after the removal shift"
    );
    assert_features_eq(
        &s.featurize().expect("mutated").clone(),
        fresh.featurize().expect("fresh"),
        "remove vs fresh",
    );
    assert_eq!(
        s.supervise().expect("mutated").label_matrix,
        fresh.supervise().expect("fresh").label_matrix,
    );
}

/// Property: any random sequence of upserts and removals converges to the
/// cold run over the final corpus — the shard caches never leak stale
/// state into the artifacts.
#[test]
fn random_mutation_sequences_converge_to_cold_run() {
    let base = dataset(10, 7);
    // Revised editions of the same ten documents, three variants each.
    let variants: Vec<Corpus> = [8u64, 9, 10]
        .iter()
        .map(|&seed| dataset(10, seed).corpus)
        .collect();
    let extractor = electronics::extractor(&base, RELATION, ContextScope::Document);
    let lfs = electronics::lfs(RELATION);

    for case in 0u64..4 {
        let mut rng = StdRng::seed_from_u64(0xF0D0 + case);
        let mut s = session(&base, &extractor, &lfs);
        s.featurize().expect("cold run");

        for _ in 0..6 {
            if rng.gen_bool(0.75) || s.corpus().len() <= 2 {
                let v = &variants[rng.gen_range(0..variants.len())];
                let doc = v.doc(DocId::from_usize(rng.gen_range(0..v.len()))).clone();
                // The pick may collide with a removed name (re-adding it)
                // or an existing one (replacing it) — both are upserts.
                s.upsert_document(doc).expect("names are unique");
            } else {
                let id = DocId::from_usize(rng.gen_range(0..s.corpus().len()));
                s.remove_document(id).expect("id is in range");
            }
            s.featurize().expect("mutated walk");
        }

        let final_corpus = s.corpus().clone();
        let mut cold =
            PipelineSession::from_parts(&final_corpus, &base.gold, &extractor, &lfs, config())
                .expect("session inputs are valid");
        assert_eq!(
            *s.candidates().expect("mutated"),
            *cold.candidates().expect("cold"),
            "case {case}: candidates diverged"
        );
        assert_features_eq(
            &s.featurize().expect("mutated").clone(),
            cold.featurize().expect("cold"),
            &format!("case {case}"),
        );
        assert_eq!(
            s.supervise().expect("mutated").label_matrix,
            cold.supervise().expect("cold").label_matrix,
            "case {case}: label matrices diverged"
        );
    }
}

/// The feature names a document's candidates emit under `config()`.
fn feature_names(extractor: &CandidateExtractor, doc: &Document) -> BTreeSet<String> {
    let fz = Featurizer::new(FeatureConfig::all());
    extractor
        .extract_doc(DocId::from_usize(0), doc)
        .iter()
        .flat_map(|c| fz.features_of(doc, c))
        .collect()
}

/// Upserts at the front of the corpus renumber every later feature column:
/// a revision without candidates retires every name its old edition
/// introduced, one with names the corpus has never seen shifts every later
/// first occurrence, and a copy of a later document moves its names'
/// first occurrences forward. After each upsert, a removal and an
/// `invalidate()`, the warm session's vocabulary (names and modality
/// tags), CSR arrays, cache statistics and candidates must equal a fresh
/// session's over the same corpus, so names the session's table keeps for
/// replaced shards never reach the output.
#[test]
fn front_upserts_renumber_exactly_like_a_cold_session() {
    let ds = dataset(16, 7);
    let extractor = electronics::extractor(&ds, RELATION, ContextScope::Document);
    let lfs = electronics::lfs(RELATION);
    let mut s = session(&ds, &extractor, &lfs);
    let cold = s.featurize().expect("cold featurize").clone();
    let has_candidates =
        |doc: &Document| !extractor.extract_doc(DocId::from_usize(0), doc).is_empty();
    let editions = dataset(64, 8).corpus;
    let renamed = |doc: &Document, at: usize, s: &PipelineSession<'_>| {
        let mut doc = doc.clone();
        doc.name = s.corpus().doc(DocId::from_usize(at)).name.clone();
        doc
    };
    let check = |s: &mut PipelineSession<'_>, ctx: &str| -> FeatureSet {
        let corpus = s.corpus().clone();
        let mut fresh = PipelineSession::from_parts(&corpus, &ds.gold, &extractor, &lfs, config())
            .expect("session inputs are valid");
        let warm = s.featurize().expect("warm featurize").clone();
        assert_features_eq(&warm, fresh.featurize().expect("fresh featurize"), ctx);
        assert_eq!(
            *s.candidates().expect("warm candidates"),
            *fresh.candidates().expect("fresh candidates"),
            "{ctx}: candidates differ"
        );
        warm
    };

    // Position 0: a revision without candidates.
    assert!(has_candidates(s.corpus().doc(DocId::from_usize(0))));
    let empty = editions
        .iter()
        .map(|(_, d)| d)
        .find(|d| !has_candidates(d))
        .expect("some edition has no candidates");
    let doc = renamed(empty, 0, &s);
    s.upsert_document(doc).expect("name is unique");
    let after_empty = check(&mut s, "revision without candidates at 0");
    assert!(
        (0..cold.vocab.len().min(after_empty.vocab.len()) as u32)
            .any(|c| cold.vocab.name(c) != after_empty.vocab.name(c)),
        "the retired names renumber later columns"
    );

    // Position 1: a revision bringing names the corpus has never seen.
    let known: BTreeSet<String> = (0..after_empty.vocab.len() as u32)
        .map(|c| after_empty.vocab.name(c).to_string())
        .collect();
    let novel = editions
        .iter()
        .map(|(_, d)| d)
        .find(|d| has_candidates(d) && !feature_names(&extractor, d).is_subset(&known))
        .expect("some edition brings unseen names");
    let doc = renamed(novel, 1, &s);
    s.upsert_document(doc).expect("name is unique");
    let after_novel = check(&mut s, "revision with unseen names at 1");
    assert!(
        feature_names(&extractor, novel)
            .iter()
            .any(|n| !known.contains(n) && after_novel.vocab.get(n).is_some()),
        "the unseen names reach the vocabulary"
    );

    // Position 2: a copy of a later document, all of whose names are known
    // and some of which first occurred after position 2.
    let front: BTreeSet<String> = (0..3)
        .flat_map(|i| feature_names(&extractor, s.corpus().doc(DocId::from_usize(i))))
        .collect();
    let later = (3..s.corpus().len())
        .map(|i| s.corpus().doc(DocId::from_usize(i)))
        .find(|d| has_candidates(d) && !feature_names(&extractor, d).is_subset(&front))
        .expect("some later document has names the front lacks")
        .clone();
    assert!(feature_names(&extractor, &later)
        .iter()
        .all(|n| after_novel.vocab.get(n).is_some()));
    let doc = renamed(&later, 2, &s);
    s.upsert_document(doc).expect("name is unique");
    let after_copy = check(&mut s, "copy of a later document at 2");
    assert!(
        after_copy.vocab.len() <= after_novel.vocab.len(),
        "a copy brings no new names"
    );

    s.remove_document(DocId::from_usize(3)).expect("in range");
    check(&mut s, "removal at 3");
    s.invalidate();
    check(&mut s, "after invalidate()");
}

/// Mutations referencing unknown or ambiguous documents are typed errors.
#[test]
fn mutation_errors_are_typed_not_panics() {
    let ds = dataset(6, 7);
    let extractor = electronics::extractor(&ds, RELATION, ContextScope::Document);
    let lfs = electronics::lfs(RELATION);
    let mut s = session(&ds, &extractor, &lfs);

    match s.remove_document(DocId::from_usize(6)) {
        Err(Error::DocNotFound { doc, n_docs }) => {
            assert_eq!(doc, DocId::from_usize(6));
            assert_eq!(n_docs, 6);
        }
        other => panic!("expected DocNotFound, got {other:?}"),
    }

    // Force an ambiguous name: two documents sharing it makes any upsert
    // of that name unresolvable.
    let mut corpus = ds.corpus.clone();
    let dup = corpus.doc(DocId::from_usize(0)).clone();
    corpus.add(dup.clone());
    let mut amb = PipelineSession::from_parts(&corpus, &ds.gold, &extractor, &lfs, config())
        .expect("session inputs are valid");
    match amb.upsert_document(dup) {
        Err(Error::DuplicateDocId { name, count }) => {
            assert_eq!(name, corpus.doc(DocId::from_usize(0)).name);
            assert_eq!(count, 2);
        }
        other => panic!("expected DuplicateDocId, got {other:?}"),
    }
}

/// A supervision-options change leaves every label shard valid: the label
/// matrix reassembles from cache hits and no document recomputes.
#[test]
fn gen_opts_change_reuses_label_shards() {
    let ds = dataset(12, 7);
    let extractor = electronics::extractor(&ds, RELATION, ContextScope::Document);
    let lfs = electronics::lfs(RELATION);
    let mut s = session(&ds, &extractor, &lfs);
    s.supervise().expect("cold supervise");

    let mut opts = fonduer::supervision::GenerativeOptions::default();
    opts.iterations += 5;
    s.set_gen_opts(opts);
    s.supervise().expect("warm supervise");
    assert_eq!(
        s.recomputed_docs(),
        0,
        "gen-opts changes must not recompute any document's shards"
    );
}
