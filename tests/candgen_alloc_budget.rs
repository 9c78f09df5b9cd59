//! Allocation-budget regression gate for candidate generation.
//!
//! Document-scope extraction of `formation_period` and
//! `formation_location` over a fixed PALEO corpus must stay under a
//! committed allocations-per-document-per-relation budget. A counting
//! global allocator wraps `System`. It counts every thread of the process,
//! so this test has an integration binary of its own (it cannot share
//! `alloc_budget.rs`), and the corpus is generated and the extractors are
//! built before counting starts.
//!
//! The budget catches per-span heap traffic in matching. A dictionary
//! matcher that builds a lowercased `String` for each span it tries
//! allocates once per (start position × span length), some 21–28k times
//! per ~1.6k-word article. The matcher's `mentions` scan allocates one
//! memo per document, a byte per symbol, so it answers each distinct word
//! once; the budget admits that and nothing per token.

use fonduer::core::domains::paleo;
use fonduer::prelude::*;
#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const N_DOCS: usize = 8;
const SEED: u64 = 13;

/// Committed allocations per document per relation for document-scope
/// extraction. What remains is per document: the mention and candidate
/// vectors and their growth, and one per-word memo per mention type (10
/// allocations in all when this budget was last measured). The first-token
/// index lowercases ASCII words on the stack, so rejected start positions
/// allocate nothing.
const BUDGET_ALLOCS_PER_DOC: u64 = 200;

#[test]
fn document_scope_extraction_stays_under_allocation_budget() {
    let ds = Domain::Paleo.generate(N_DOCS, SEED);
    assert_eq!(ds.corpus.len(), N_DOCS);
    for rel in ["formation_period", "formation_location"] {
        let ex = paleo::extractor(&ds, rel, ContextScope::Document);
        // Warm up lazy one-time state (counter registrations, span names).
        let warm = ex.extract(&ds.corpus);
        let start = counting_alloc::calls();
        let cands = ex.extract(&ds.corpus);
        let per_doc = (counting_alloc::calls() - start) / N_DOCS as u64;
        assert_eq!(cands.candidates, warm.candidates);
        assert!(
            !cands.is_empty(),
            "{rel}: no candidates; the test is vacuous"
        );
        eprintln!("{rel}: candgen allocations/doc = {per_doc} (budget {BUDGET_ALLOCS_PER_DOC})");
        assert!(
            per_doc <= BUDGET_ALLOCS_PER_DOC,
            "extracting {rel} allocated {per_doc} times per document \
             (budget {BUDGET_ALLOCS_PER_DOC}); per-span heap traffic has crept \
             back into matching"
        );
    }
}
