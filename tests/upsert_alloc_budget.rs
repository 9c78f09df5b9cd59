//! Allocation-budget regression gate for a warm upsert's refresh.
//!
//! After an upsert, `candidates()` and `featurize()` recompute one
//! document's shards and then merge every document's shards into the
//! corpus-level candidate set and feature matrix. The merges move what did
//! not change: candidates of positions whose shard is unchanged are moved
//! out of the previous set, and feature shards were resolved into the
//! session's name table when they were computed, so the merge copies
//! integers into a presence-only CSR. Their heap traffic must not grow
//! with the number of candidates: cloning each candidate's mention vector
//! again is one allocation per candidate.
//!
//! Measured on 64 ELECTRONICS documents (1,528 candidates): 313
//! allocation calls for one refresh, most of them featurizing the upserted
//! document itself. Before the merges moved integers, the same refresh
//! took 1,844: one mention-vector clone per candidate on top.
//!
//! A counting global allocator wraps `System`. It counts every thread of
//! the process, so this test has an integration binary of its own, and
//! the corpora are generated, the session is run cold and one warm-up
//! upsert is refreshed before counting starts.

use fonduer::core::domains::electronics;
use fonduer::prelude::*;
use fonduer_core::PipelineSession;
use fonduer_datamodel::DocId;
#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const N_DOCS: usize = 64;
const SEED: u64 = 7;
const RELATION: &str = "has_collector_current";

/// Committed allocation calls per corpus document for one warm upsert's
/// `candidates()` + `featurize()`. Measured: 313 calls over 64 documents
/// (4.9 per document); with one clone per candidate it took 1,844 (28.8
/// per document).
const BUDGET_CALLS_PER_DOC: u64 = 8;

#[test]
fn warm_upsert_refresh_allocates_per_document_not_per_candidate() {
    let ds = Domain::Electronics.generate(N_DOCS, SEED);
    let extractor = electronics::extractor(&ds, RELATION, ContextScope::Document);
    let lfs = electronics::lfs(RELATION);
    let cfg = PipelineConfig::builder()
        .learner(Learner::LogReg)
        .build()
        .expect("config is valid");
    let mut session = PipelineSession::from_parts(&ds.corpus, &ds.gold, &extractor, &lfs, cfg)
        .expect("session inputs are valid");
    session.featurize().expect("cold featurize");
    // Revised editions of two datasheets: same names, different content,
    // each with candidates.
    let revisions = Domain::Electronics.generate(N_DOCS, SEED + 1).corpus;
    let revised = |i: usize| revisions.doc(DocId::from_usize(i)).clone();

    // The warm-up upsert also copies the session's borrowed corpus.
    session
        .upsert_document(revised(15))
        .expect("name is unique");
    session.candidates().expect("warm-up candidates");
    session.featurize().expect("warm-up featurize");

    let id = session
        .upsert_document(revised(16))
        .expect("name is unique");
    let calls0 = counting_alloc::calls();
    let n_cands = session.candidates().expect("warm candidates").len();
    let n_rows = session
        .featurize()
        .expect("warm featurize")
        .matrix
        .indptr()
        .len()
        - 1;
    let calls = counting_alloc::calls() - calls0;

    assert_eq!(id, DocId::from_usize(16), "same name replaces in place");
    assert_eq!(session.recomputed_docs(), 1, "one document recomputes");
    assert_eq!(n_rows, n_cands, "one feature row per candidate");
    let upserted = session
        .candidates()
        .expect("cached candidates")
        .candidates
        .iter()
        .filter(|c| c.doc == id)
        .count();
    assert!(upserted > 0, "the counted revision must have candidates");
    let budget = BUDGET_CALLS_PER_DOC * N_DOCS as u64;
    eprintln!(
        "warm upsert refresh over {N_DOCS} documents and {n_cands} candidates: \
         {calls} allocations (budget {budget})"
    );
    assert!(
        calls <= budget,
        "one warm upsert's candidates() + featurize() allocated {calls} times over \
         {N_DOCS} documents and {n_cands} candidates (budget {BUDGET_CALLS_PER_DOC} per \
         document); the merges clone or re-intern per candidate again"
    );
}
