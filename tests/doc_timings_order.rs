//! The input-order doc-timings contract: a stage measures each document's
//! time on whichever thread runs it, but records it on the calling thread
//! in input order. So when the table's cap is below the corpus size, the
//! documents it keeps are the first `cap` corpus documents — at width 1 and
//! with several real workers alike, through the corpus-level maps and
//! through a session.
//!
//! One test in its own binary: the cap and the table are process-global.

use std::collections::BTreeSet;

use fonduer::prelude::*;
use fonduer_core::domains::electronics;
use fonduer_datamodel::DocId;
use fonduer_observe as observe;
use fonduer_par::Pool;

const RELATION: &str = "has_collector_current";
const CAP: usize = 5;

/// Run `f` against an empty table; the documents it kept for `stage`, in
/// corpus order.
fn kept(corpus: &Corpus, stage: &str, f: impl FnOnce()) -> Vec<String> {
    observe::reset();
    f();
    let timed: BTreeSet<String> = observe::doc_timings()
        .into_iter()
        .filter(|t| t.stage_ns.contains_key(stage))
        .map(|t| t.doc)
        .collect();
    corpus
        .iter()
        .map(|(_, d)| d.name.clone())
        .filter(|name| timed.contains(name))
        .collect()
}

#[test]
fn capped_doc_timings_keep_the_first_documents_at_every_width() {
    let ds = Domain::Electronics.generate(12, 7);
    let corpus = &ds.corpus;
    let extractor = electronics::extractor(&ds, RELATION, ContextScope::Document);
    let lfs = electronics::lfs(RELATION);
    let refs: Vec<&LabelingFunction> = lfs.iter().collect();
    let cands = extractor.extract(corpus);
    let names: Vec<String> = corpus.iter().map(|(_, d)| d.name.clone()).collect();
    let first = names[..CAP].to_vec();
    // Every document has candidates, so every stage visits every document
    // and the cap, not the data, decides which ones are kept.
    let with_cands: BTreeSet<DocId> = cands.candidates.iter().map(|c| c.doc).collect();
    assert_eq!(with_cands.len(), names.len());
    assert!(names.len() > CAP);

    let prev = observe::doc_timings_cap();
    observe::set_doc_timings_cap(CAP);
    let fz = Featurizer::default();
    for pool in [Pool::exact(1), Pool::exact(2), Pool::exact(4)] {
        let n = pool.n_threads();
        let candgen = kept(corpus, "candgen", || {
            extractor.extract_parallel(corpus, &pool);
        });
        assert_eq!(candgen, first, "candgen, {n} workers");
        let featurize = kept(corpus, "featurize", || {
            fz.featurize_parallel(corpus, &cands, &pool);
        });
        assert_eq!(featurize, first, "featurize, {n} workers");
        let lf_apply = kept(corpus, "lf_apply", || {
            LabelMatrix::apply_parallel(&refs, corpus, &cands, &pool);
        });
        assert_eq!(lf_apply, first, "lf_apply, {n} workers");
    }

    // A session requests its width through the config, which the host caps:
    // two workers where the host or `FONDUER_THREADS` provides them. Every
    // document is a training document, so LF application visits them all.
    for n_threads in [1, 2] {
        let cfg = PipelineConfig::builder()
            .learner(Learner::LogReg)
            .train_frac(1.0)
            .n_threads(n_threads)
            .build()
            .expect("config is valid");
        let mut s = PipelineSession::from_parts(corpus, &ds.gold, &extractor, &lfs, cfg)
            .expect("session inputs are valid");
        let candgen = kept(corpus, "candgen", || {
            s.candidates().expect("candgen");
        });
        assert_eq!(candgen, first, "session candgen, n_threads={n_threads}");
        let featurize = kept(corpus, "featurize", || {
            s.featurize().expect("featurize");
        });
        assert_eq!(featurize, first, "session featurize, n_threads={n_threads}");
        let lf_apply = kept(corpus, "lf_apply", || {
            s.supervise().expect("supervise");
        });
        assert_eq!(lf_apply, first, "session lf_apply, n_threads={n_threads}");
    }
    observe::set_doc_timings_cap(prev);
}
