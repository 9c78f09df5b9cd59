//! Allocation-budget regression gate for a session's first upsert.
//!
//! A session borrows its corpus until the first corpus mutation, which
//! copies it. A corpus stores each document behind an `Arc`, so that copy
//! is one pointer and one hash memo per document: the upsert's heap
//! traffic must grow with the number of documents, not with their tokens.
//! A deep copy of 64 ELECTRONICS datasheets allocates some 15k times and
//! 3.4 MB.
//!
//! A counting global allocator wraps `System`. It counts every thread of
//! the process, so this test has an integration binary of its own, and
//! the corpora are generated and the session is run cold before counting
//! starts.

use fonduer::core::domains::electronics;
use fonduer::prelude::*;
use fonduer_core::PipelineSession;
use fonduer_datamodel::DocId;
#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const N_DOCS: usize = 64;
const SEED: u64 = 7;
const RELATION: &str = "has_collector_current";

/// Committed allocation calls per corpus document for the first upsert.
/// Measured: 4 calls in all over 64 documents — the copied document list,
/// the corpus name, the new document's `Arc` and its content hash's
/// per-symbol scratch. Copying the documents took 15505 calls.
const BUDGET_CALLS_PER_DOC: u64 = 1;

/// Committed bytes per corpus document for the first upsert. Measured:
/// 3675 bytes over 64 documents, 24 of them per document for the copied
/// list entry. Copying the documents took 3398213 bytes.
const BUDGET_BYTES_PER_DOC: u64 = 128;

#[test]
fn first_upsert_allocates_per_document_not_per_token() {
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
    // A revised edition of one datasheet: same name, different content.
    let revised = Domain::Electronics
        .generate(N_DOCS, SEED + 1)
        .corpus
        .doc(DocId::from_usize(5))
        .clone();

    let (calls0, bytes0) = (counting_alloc::calls(), counting_alloc::bytes());
    let id = session.upsert_document(revised).expect("name is unique");
    let calls = counting_alloc::calls() - calls0;
    let bytes = counting_alloc::bytes() - bytes0;

    assert_eq!(id, DocId::from_usize(5), "same name replaces in place");
    let n = N_DOCS as u64;
    eprintln!(
        "first upsert over {N_DOCS} documents: {calls} allocations, {bytes} bytes \
         (budget {} / {})",
        BUDGET_CALLS_PER_DOC * n,
        BUDGET_BYTES_PER_DOC * n
    );
    assert!(
        calls <= BUDGET_CALLS_PER_DOC * n && bytes <= BUDGET_BYTES_PER_DOC * n,
        "the first upsert allocated {calls} times and {bytes} bytes over {N_DOCS} \
         documents (budget {BUDGET_CALLS_PER_DOC} call and {BUDGET_BYTES_PER_DOC} bytes \
         per document); it copies documents again"
    );
}
