//! Determinism probe for CI: train the deterministic (non-Hogwild)
//! learner end to end and print the final epoch losses and marginals with
//! bit-exact formatting. CI runs this twice — `FONDUER_THREADS=1` and
//! `FONDUER_THREADS=4` — and diffs both outputs against the committed
//! `crates/bench/train_determinism.golden`: the per-sample Adam learner
//! and the shared-window inference path must be completely unaffected by
//! the thread configuration, and a change to the training or inference
//! numerics shows up as a diff. CI also diffs a run with
//! `FONDUER_NO_AVX2=1`: the generic kernel path must give the same bits.
//!
//! The first section trains the bare model on fixed 0.9/0.1 targets. The
//! second trains through a `PipelineSession` on a 512-document ELECTRONICS
//! corpus with the default multimodal Bi-LSTM on a 10% training split.
//! Most of its noise-aware labels lie within 1e-6 of 0 or 1, so as the
//! model fits them its gradients get small enough that their squares
//! (clip norm, Adam's second moment) fall below `f32::MIN_POSITIVE`: the
//! section covers the numeric regime a change to subnormal handling moves.
//! The third fits the document-level RNN baseline of Table 6
//! (`DocRnnModel`) on 40 seeded token streams for 2 epochs and prints each
//! epoch's mean-loss bits and a hash of every prediction's bits.
//!
//! Regenerate the golden only for a change that means to move those bits:
//!
//! ```bash
//! cargo run -q --release -p fonduer-bench --bin train_determinism \
//!     > crates/bench/train_determinism.golden
//! ```

use fonduer_candidates::ContextScope;
use fonduer_core::domains::electronics;
use fonduer_core::{Learner, PipelineConfig, PipelineSession};
use fonduer_datamodel::fnv1a64;
use fonduer_features::Featurizer;
use fonduer_learning::{prepare, DocRnnModel, FonduerModel, ModelConfig, ProbClassifier};
use fonduer_nlp::HashedVocab;
use fonduer_synth::Domain;

fn main() {
    bare_model();
    session();
    doc_rnn();
}

/// The bare model on 134 candidates of a 5-document corpus, 2 epochs.
fn bare_model() {
    let ds = Domain::Electronics.generate(5, 7);
    let ex = electronics::extractor(&ds, "has_collector_current", ContextScope::Document);
    let cands = ex.extract(&ds.corpus);
    let feats = Featurizer::default().featurize(&ds.corpus, &cands);
    let vocab = HashedVocab::new(2048);
    let dataset = prepare(&ds.corpus, &cands, &feats, &vocab, 6);
    let targets: Vec<f32> = (0..dataset.inputs.len())
        .map(|i| if i % 2 == 0 { 0.9 } else { 0.1 })
        .collect();
    let mut m = FonduerModel::new(
        ModelConfig {
            epochs: 2,
            ..Default::default()
        },
        dataset.vocab_size,
        dataset.n_features,
        dataset.arity,
    );
    m.fit(&dataset.inputs, &targets);
    // Bit patterns, not decimal renderings: any thread-dependent float
    // difference shows up in the diff.
    let mut loss_sum = 0.0f64;
    for (inp, &t) in dataset.inputs.iter().zip(&targets) {
        let p = m.predict_one(inp);
        loss_sum += f64::from(fonduer_nn::bce_with_logit(p.ln() - (1.0 - p).ln(), t).0);
    }
    println!("samples {}", dataset.inputs.len());
    println!("final_loss_bits {:016x}", loss_sum.to_bits());
    for (i, p) in m.predict(&dataset.inputs).iter().enumerate() {
        println!("marginal {i} {:08x}", p.to_bits());
    }
}

/// A cold session build: candidates, features, generative labels, the
/// default Bi-LSTM on a 10% training split, inference and held-out F1.
fn session() {
    const REL: &str = "has_collector_current";
    let ds = Domain::Electronics.generate(512, 7);
    let extractor = electronics::extractor(&ds, REL, ContextScope::Document)
        .with_throttler(electronics::default_throttler(REL));
    let lfs = electronics::lfs(REL);
    let cfg = PipelineConfig::builder()
        .learner(Learner::MultimodalLstm)
        .train_frac(0.1)
        .build()
        .expect("valid config");
    let mut s = PipelineSession::from_parts(&ds.corpus, &ds.gold, &extractor, &lfs, cfg)
        .expect("valid session");
    let marginals = s.infer().expect("session infers");
    let bits: Vec<u8> = marginals
        .iter()
        .flat_map(|p| p.to_bits().to_le_bytes())
        .collect();
    println!("session_candidates {}", marginals.len());
    println!("session_marginals_fnv {:016x}", fnv1a64(&bits));
    let f1 = s.evaluate().expect("session evaluates").f1;
    println!("session_heldout_f1_bits {:016x}", f1.to_bits());
}

/// The document-level RNN on 40 seeded token streams over a 50-row
/// vocabulary, 2 epochs: the first stream is empty, the others hold 1–47
/// tokens. A stream is a positive when it contains token 7.
fn doc_rnn() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let seqs: Vec<Vec<u32>> = (0..40)
        .map(|i| {
            let len = if i == 0 {
                0
            } else {
                1 + (next() % 47) as usize
            };
            (0..len).map(|_| (next() % 50) as u32).collect()
        })
        .collect();
    let targets: Vec<f32> = seqs
        .iter()
        .map(|s| if s.contains(&7) { 0.9 } else { 0.1 })
        .collect();
    let mut m = DocRnnModel::new(ModelConfig::default(), 50);
    for epoch in 0..2 {
        let loss = m.train_epoch(&seqs, &targets);
        println!("docrnn_epoch {epoch} mean_loss_bits {:08x}", loss.to_bits());
    }
    let bits: Vec<u8> = seqs
        .iter()
        .flat_map(|s| m.predict_doc(s).to_bits().to_le_bytes())
        .collect();
    println!("docrnn_sequences {}", seqs.len());
    println!("docrnn_predictions_fnv {:016x}", fnv1a64(&bits));
}
