//! The `supervision.votes.*` and `supervision.rows_covered` counters
//! report the votes of a finished label matrix, whichever path built it.
//! Kept in its own test binary: the counter registry is process-global, so
//! no other test may vote while the deltas are taken.

use fonduer::prelude::*;
use fonduer_core::domains::electronics;
use fonduer_core::PipelineSession;
use fonduer_observe as observe;
use fonduer_synth::Domain;

const RELATION: &str = "has_collector_current";
const COUNTERS: [&str; 4] = [
    "supervision.votes.positive",
    "supervision.votes.negative",
    "supervision.votes.abstain",
    "supervision.rows_covered",
];

fn counters() -> [u64; 4] {
    let snap = observe::snapshot();
    COUNTERS.map(|c| snap.counter(c))
}

/// Counter deltas over `f`.
fn delta<T>(f: impl FnOnce() -> T) -> ([u64; 4], T) {
    let before = counters();
    let out = f();
    let after = counters();
    (std::array::from_fn(|i| after[i] - before[i]), out)
}

#[test]
fn apply_and_session_supervise_add_equal_vote_counts() {
    let ds = Domain::Electronics.generate(10, 7);
    let extractor = electronics::extractor(&ds, RELATION, ContextScope::Document)
        .with_throttler(electronics::default_throttler(RELATION));
    let lfs = electronics::lfs(RELATION);
    let cfg = PipelineConfig::builder()
        .learner(Learner::LogReg)
        .train_frac(0.7)
        .build()
        .expect("config is valid");
    let mut s = PipelineSession::from_parts(&ds.corpus, &ds.gold, &extractor, &lfs, cfg)
        .expect("session inputs are valid");
    let cands = s.candidates().expect("candgen").clone();

    let (session, train_idx) = delta(|| s.supervise().expect("supervise").train_idx.clone());
    let train = CandidateSet {
        schema: cands.schema.clone(),
        candidates: train_idx
            .iter()
            .map(|&i| cands.candidates[i].clone())
            .collect(),
    };
    let refs: Vec<&LabelingFunction> = lfs.iter().collect();
    let (applied, m) = delta(|| LabelMatrix::apply(&refs, &ds.corpus, &train));
    // Two real workers, even on a single-core host.
    let pool = fonduer_par::Pool::exact(2);
    let (parallel, _) = delta(|| LabelMatrix::apply_parallel(&refs, &ds.corpus, &train, &pool));

    let cells = (m.n_rows() * m.n_cols()) as u64;
    assert!(cells > 0, "the training split has candidates");
    assert_eq!(
        applied[0] + applied[1] + applied[2],
        cells,
        "one vote per cell"
    );
    assert!(applied[0] > 0 && applied[1] > 0, "both polarities voted");
    assert_eq!(session, applied, "session supervise vs LabelMatrix::apply");
    assert_eq!(parallel, applied, "apply_parallel vs LabelMatrix::apply");

    // A warm re-supervise after an LF edit reports its whole matrix too,
    // not only the re-voted column.
    let edited: Vec<LabelingFunction> = electronics::lfs(RELATION).into_iter().skip(1).collect();
    s.set_lfs(&edited);
    let (warm, _) = delta(|| s.supervise().expect("warm supervise").train_idx.len());
    let edited_refs: Vec<&LabelingFunction> = edited.iter().collect();
    let (direct, _) = delta(|| LabelMatrix::apply(&edited_refs, &ds.corpus, &train));
    assert_eq!(s.recomputed_docs(), 0, "dropping an LF re-votes nothing");
    assert_eq!(warm, direct, "warm supervise vs LabelMatrix::apply");
}
