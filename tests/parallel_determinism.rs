//! Golden determinism tests for the `fonduer-par` execution layer.
//!
//! The determinism contract: every deterministic stage — candidate
//! extraction, featurization (including vocabulary first-occurrence
//! ordering), and LF application — produces *byte-identical* artifacts at
//! every thread count. The single sanctioned exception is Hogwild
//! training, whose racy weight updates may differ across thread counts but
//! must converge to the same loss within tolerance.

use fonduer::prelude::*;
use fonduer_core::domains;
use fonduer_features::SparseAccess;
use fonduer_learning::{CandidateInput, HogwildLogReg};
use fonduer_par::Pool;
use fonduer_synth::{generate_electronics, ElectronicsConfig};

fn dataset() -> SynthDataset {
    generate_electronics(&ElectronicsConfig {
        n_docs: 24,
        ..Default::default()
    })
}

/// Pools of exactly 2 and 8 workers: real worker threads even on a
/// single-core host, where `Pool::new` would resolve to the sequential path.
fn wide_pools() -> [Pool; 2] {
    [Pool::exact(2), Pool::exact(8)]
}

#[test]
fn candidate_set_is_byte_identical_across_thread_counts() {
    let ds = dataset();
    let task = &domains::electronics::tasks(&ds)[0];
    let seq = task.extractor.extract_parallel(&ds.corpus, &Pool::exact(1));
    assert!(!seq.candidates.is_empty());
    assert_eq!(
        seq.candidates,
        task.extractor.extract(&ds.corpus).candidates
    );
    for pool in wide_pools() {
        let par = task.extractor.extract_parallel(&ds.corpus, &pool);
        assert_eq!(
            seq.candidates,
            par.candidates,
            "n_threads={}",
            pool.n_threads()
        );
    }
}

#[test]
fn feature_set_and_vocab_order_are_byte_identical_across_thread_counts() {
    let ds = dataset();
    let task = &domains::electronics::tasks(&ds)[0];
    let cands = task.extractor.extract(&ds.corpus);
    let fz = Featurizer::new(FeatureConfig::all());
    let seq = fz.featurize_parallel(&ds.corpus, &cands, &Pool::exact(1));
    assert!(!seq.vocab.is_empty());
    for pool in wide_pools() {
        let n = pool.n_threads();
        let par = fz.featurize_parallel(&ds.corpus, &cands, &pool);
        // Vocabulary ordering: column i names the same feature, in the
        // sequential first-occurrence order.
        assert_eq!(seq.vocab.len(), par.vocab.len(), "n_threads={n}");
        for col in 0..seq.vocab.len() as u32 {
            assert_eq!(seq.vocab.name(col), par.vocab.name(col), "col {col}");
        }
        // CSR arrays identical (indptr/indices/data compare byte-for-byte).
        assert_eq!(seq.matrix, par.matrix, "n_threads={n}");
        // Cache statistics merge in input order too.
        assert_eq!(seq.stats.hits, par.stats.hits);
        assert_eq!(seq.stats.misses, par.stats.misses);
        // And a host-resolved pool agrees, whatever width it resolves to.
        let pub_par = fz.featurize_parallel(&ds.corpus, &cands, &Pool::new(n));
        assert_eq!(seq.matrix, pub_par.matrix, "n_threads={n} (public)");
    }
}

#[test]
fn hashed_feature_matrix_is_byte_identical_across_thread_counts() {
    let ds = dataset();
    let task = &domains::electronics::tasks(&ds)[0];
    let cands = task.extractor.extract(&ds.corpus);
    let fz = Featurizer::new(FeatureConfig::all().with_hashing(16));
    let seq = fz.featurize_parallel(&ds.corpus, &cands, &Pool::exact(1));
    assert!(seq.vocab.is_empty(), "hashing mode keeps no vocabulary");
    assert_eq!(seq.n_features(), 1 << 16);
    for pool in wide_pools() {
        let n = pool.n_threads();
        let par = fz.featurize_parallel(&ds.corpus, &cands, &pool);
        assert_eq!(seq.matrix, par.matrix, "n_threads={n}");
        assert_eq!(seq.stats, par.stats, "n_threads={n}");
        for r in 0..seq.matrix.n_rows() {
            assert_eq!(
                seq.modality_counts(r),
                par.modality_counts(r),
                "row {r} n_threads={n}"
            );
        }
    }
}

#[test]
fn label_matrix_is_byte_identical_across_thread_counts() {
    let ds = dataset();
    let task = &domains::electronics::tasks(&ds)[0];
    let cands = task.extractor.extract(&ds.corpus);
    let refs: Vec<&LabelingFunction> = task.lfs.iter().collect();
    let seq = LabelMatrix::apply(&refs, &ds.corpus, &cands);
    for pool in wide_pools() {
        let par = LabelMatrix::apply_parallel(&refs, &ds.corpus, &cands, &pool);
        assert_eq!(seq, par, "n_threads={}", pool.n_threads());
    }
}

#[test]
fn full_pipeline_output_matches_between_1_and_8_threads() {
    let ds = dataset();
    let task = &domains::electronics::tasks(&ds)[0];
    let run = |n_threads: usize| {
        let cfg = PipelineConfig::builder()
            .learner(fonduer_core::Learner::LogReg)
            .n_threads(n_threads)
            .build()
            .unwrap();
        let mut session = PipelineSession::new(&ds.corpus, &ds.gold, task, cfg).unwrap();
        session.output().unwrap()
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(seq.candidates.candidates, par.candidates.candidates);
    assert_eq!(seq.kb.entries, par.kb.entries);
    // Deterministic learner: marginals bit-identical.
    let seq_bits: Vec<u32> = seq.marginals.iter().map(|m| m.to_bits()).collect();
    let par_bits: Vec<u32> = par.marginals.iter().map(|m| m.to_bits()).collect();
    assert_eq!(seq_bits, par_bits);
}

fn hogwild_dataset(n: usize) -> (Vec<CandidateInput>, Vec<f32>) {
    (0..n)
        .map(|i| {
            let pos = i % 2 == 0;
            (
                CandidateInput {
                    mention_tokens: vec![vec![1], vec![2]],
                    features: if pos {
                        vec![0, 2, 3].into()
                    } else {
                        vec![1, 2, 4].into()
                    },
                },
                if pos { 0.95 } else { 0.05 },
            )
        })
        .unzip()
}

#[test]
fn hogwild_final_loss_matches_sequential_within_tolerance() {
    use fonduer_learning::ProbClassifier;
    let (inputs, targets) = hogwild_dataset(300);
    let mut seq = HogwildLogReg::new(5, 42, 1);
    seq.fit(&inputs, &targets);
    let mut hog = HogwildLogReg::new(5, 42, 8);
    hog.fit(&inputs, &targets);
    let l_seq = seq.mean_loss(&inputs, &targets);
    let l_hog = hog.mean_loss(&inputs, &targets);
    assert!(
        (l_seq - l_hog).abs() < 0.05,
        "sequential loss {l_seq} vs hogwild loss {l_hog}"
    );
    // And both models agree on every classification.
    for (inp, &t) in inputs.iter().zip(&targets) {
        assert_eq!(seq.predict_one(inp) > 0.5, t > 0.5);
        assert_eq!(hog.predict_one(inp) > 0.5, t > 0.5);
    }
}
