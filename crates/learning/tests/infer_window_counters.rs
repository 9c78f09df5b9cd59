//! `FonduerModel::predict` adds the mention windows it reads to
//! `infer.windows` and the distinct windows it encodes to
//! `infer.windows_encoded`. Kept in its own test binary: the counter
//! registry is process-global, so no other test may predict while the
//! deltas are taken.

use fonduer_learning::{CandidateInput, FonduerModel, ModelConfig, ProbClassifier};
use fonduer_observe as observe;

const COUNTERS: [&str; 2] = ["infer.windows", "infer.windows_encoded"];

/// Counter deltas over one `predict`.
fn predict_delta(m: &FonduerModel, inputs: &[CandidateInput]) -> [u64; 2] {
    let before = observe::snapshot();
    m.predict(inputs);
    let after = observe::snapshot();
    COUNTERS.map(|c| after.counter(c) - before.counter(c))
}

fn cand(slots: [&[u32]; 2]) -> CandidateInput {
    CandidateInput {
        mention_tokens: slots.iter().map(|s| s.to_vec()).collect(),
        features: vec![0].into(),
    }
}

#[test]
fn predict_counts_windows_read_and_distinct_windows_encoded() {
    let (a, b, c): (&[u32], &[u32], &[u32]) = (&[1, 2, 3], &[4, 5], &[3, 2, 1]);
    // Ten windows: `a` five times (across candidates and across one
    // candidate's slots), `b` twice, `c` once, the empty window twice.
    let inputs = vec![
        cand([a, b]),
        cand([a, a]),
        cand([b, &[]]),
        cand([c, a]),
        cand([&[], a]),
    ];
    let m = FonduerModel::new(ModelConfig::default(), 8, 1, 2);
    assert_eq!(predict_delta(&m, &inputs), [10, 3]);
    // Each call counts its own batch: one candidate alone shares only
    // within its own slots.
    assert_eq!(predict_delta(&m, &inputs[1..2]), [2, 1]);
    assert_eq!(predict_delta(&m, &inputs[2..3]), [2, 1]);
    // Without the textual path no window is read.
    let features_only = FonduerModel::new(
        ModelConfig {
            use_lstm: false,
            ..Default::default()
        },
        8,
        1,
        2,
    );
    assert_eq!(predict_delta(&features_only, &inputs), [0, 0]);
}
