//! Allocation gate for the Bi-LSTM training step.
//!
//! `FonduerModel::fit` keeps every activation, gradient and backward
//! buffer in workspaces it reuses across samples, so once each buffer has
//! reached its largest shape a training step allocates nothing. The test
//! fits the same candidates once as they are and once repeated 4×, with
//! the same number of epochs: four times the steps must make exactly the
//! same number of allocations. A counting global allocator wraps `System`.
//! It counts every thread of the process, so this test has an integration
//! binary of its own.
//!
//! Every candidate's windows have the same lengths (7 tokens in the first
//! slot, 5 in the second), so each buffer reaches its largest shape on the
//! first step whatever order the epoch shuffle visits them in. Over ragged
//! windows a buffer also grows, a few times at most, whenever a longer
//! window than any before comes up, and how often depends on that order,
//! not on the number of steps.

use fonduer::learning::{CandidateInput, FonduerModel, ModelConfig, ProbClassifier};
#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const VOCAB: u32 = 64;
const N_FEATURES: usize = 16;

/// 24 binary candidates with 7- and 5-token windows over a 64-word
/// vocabulary, 1–3 sparse features each, and soft targets.
fn dataset() -> (Vec<CandidateInput>, Vec<f32>) {
    let inputs: Vec<CandidateInput> = (0..24u32)
        .map(|i| CandidateInput {
            mention_tokens: vec![
                (0..7).map(|k| (i * 5 + k * 3) % VOCAB).collect(),
                (0..5).map(|k| (i * 11 + k * 7 + 1) % VOCAB).collect(),
            ],
            features: (0..1 + i % 3)
                .map(|k| (i + 4 * k) % N_FEATURES as u32)
                .collect::<Vec<u32>>()
                .into(),
        })
        .collect();
    let targets = (0..inputs.len())
        .map(|i| [0.97, 0.03, 0.6, 0.2][i % 4])
        .collect();
    (inputs, targets)
}

fn model() -> FonduerModel {
    FonduerModel::new(
        ModelConfig {
            epochs: 3,
            ..Default::default()
        },
        VOCAB as usize,
        N_FEATURES,
        2,
    )
}

/// Allocations made by one `fit` of a fresh model.
fn fit_allocs(inputs: &[CandidateInput], targets: &[f32]) -> u64 {
    let mut m = model();
    let before = counting_alloc::calls();
    m.fit(inputs, targets);
    let n = counting_alloc::calls() - before;
    assert!(m.predict_one(&inputs[0]).is_finite());
    n
}

#[test]
fn training_steps_allocate_nothing() {
    let (inputs, targets) = dataset();
    let inputs4: Vec<CandidateInput> = (0..4).flat_map(|_| inputs.clone()).collect();
    let targets4: Vec<f32> = (0..4).flat_map(|_| targets.clone()).collect();
    // Warm up the process-wide metric registry the fit reports into.
    fit_allocs(&inputs, &targets);
    let once = fit_allocs(&inputs, &targets);
    let four = fit_allocs(&inputs4, &targets4);
    let extra_steps = 3 * (inputs4.len() - inputs.len()) as u64;
    eprintln!("fit allocations: {once} over 1× inputs, {four} over 4× ({extra_steps} more steps)");
    assert_eq!(
        four,
        once,
        "{extra_steps} more training steps made {} more allocations",
        four as i64 - once as i64
    );
}
