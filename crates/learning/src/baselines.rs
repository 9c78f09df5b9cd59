//! Baseline learners the paper compares against.
//!
//! * [`LogRegModel`] — sparse logistic regression over an explicit feature
//!   set. With the full multimodal feature library (including textual
//!   n-grams) it is the "human-tuned" feature-engineering baseline of
//!   Table 4; restricted to structural+textual features it is the
//!   SRV-style HTML learner of Table 5.
//! * [`DocRnnModel`] — a document-level RNN (Table 6): one Bi-LSTM with
//!   attention over the *entire* document token stream per candidate,
//!   learning a single representation across all modalities' serialized
//!   order. Accurate modeling of why it loses: enormous sequences make it
//!   orders of magnitude slower per epoch and hard to fit.

use crate::input::CandidateInput;
use crate::model::{ModelConfig, ProbClassifier, Workspace};
use fonduer_nn::{
    bce_with_logit, sigmoid, Attention, BiLstm, Embedding, Linear, ParamId, ParamStore,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sparse logistic regression over feature columns.
pub struct LogRegModel {
    store: ParamStore,
    w: ParamId,
    b: ParamId,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl LogRegModel {
    /// Build for a feature space of `n_features` columns.
    pub fn new(n_features: usize, seed: u64) -> Self {
        let mut store = ParamStore::new(seed);
        let w = store.alloc_zeros(n_features.max(1), 1);
        let b = store.alloc_zeros(1, 1);
        Self {
            store,
            w,
            b,
            epochs: 12,
            lr: 0.05,
            seed,
        }
    }

    fn logit(&self, input: &CandidateInput) -> f32 {
        self.store.p(self.b)[0]
            + fonduer_tensor::sparse_dot(self.store.p(self.w), input.features.ids())
    }

    /// One Adam step on one sample; returns its loss. Gradients must be
    /// zero on entry, and are again on return: `adam_step` consumes them.
    fn step(&mut self, input: &CandidateInput, target: f32) -> f32 {
        let z = self.logit(input);
        let (loss, dz) = bce_with_logit(z, target);
        fonduer_tensor::sparse_add(self.store.grad_mut(self.w), input.features.ids(), dz);
        self.store.grad_mut(self.b)[0] += dz;
        self.store.adam_step(self.lr, Some(5.0));
        loss
    }
}

/// Fisher–Yates shuffle of `order` in place.
fn shuffle(rng: &mut StdRng, order: &mut [usize]) {
    for i in 0..order.len() {
        let j = rng.gen_range(i..order.len());
        order.swap(i, j);
    }
}

impl ProbClassifier for LogRegModel {
    fn fit(&mut self, inputs: &[CandidateInput], targets: &[f32]) {
        if inputs.is_empty() {
            return;
        }
        let _span = fonduer_observe::span("model_fit");
        let steps = fonduer_observe::Counter::named("train.steps");
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xbeef);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        // One zeroing for the whole fit: each step's `adam_step` zeroes the
        // gradients it reads.
        self.store.zero_grad();
        for _ in 0..self.epochs {
            shuffle(&mut rng, &mut order);
            let mut epoch_loss = 0.0f64;
            for &i in &order {
                epoch_loss += self.step(&inputs[i], targets[i]) as f64;
            }
            steps.add(order.len() as u64);
            fonduer_observe::counter("train.epochs", 1);
            fonduer_observe::gauge_set("train.epoch_loss", epoch_loss / order.len() as f64);
        }
    }

    fn predict_one(&self, input: &CandidateInput) -> f32 {
        sigmoid(self.logit(input))
    }
}

/// Document-level RNN baseline: Bi-LSTM + attention over the whole document
/// token stream of each candidate.
pub struct DocRnnModel {
    cfg: ModelConfig,
    store: ParamStore,
    emb: Embedding,
    bilstm: BiLstm,
    attn: Attention,
    out: Linear,
}

impl DocRnnModel {
    /// Build for a token vocabulary of `vocab_size` rows.
    pub fn new(cfg: ModelConfig, vocab_size: usize) -> Self {
        let mut store = ParamStore::new(cfg.seed);
        let emb = Embedding::new(&mut store, vocab_size, cfg.d_emb);
        let bilstm = BiLstm::new(&mut store, cfg.d_emb, cfg.d_h);
        let attn = Attention::new(&mut store, 2 * cfg.d_h, cfg.d_attn);
        let out = Linear::new(&mut store, cfg.d_attn, 1);
        Self {
            cfg,
            store,
            emb,
            bilstm,
            attn,
            out,
        }
    }

    /// Flat forward pass over one document, held in `ws` as a one-slot
    /// candidate; returns the logit.
    fn forward(&self, toks: &[u32], ws: &mut Workspace) -> f32 {
        ws.ensure(1, self.cfg.d_attn);
        self.emb.gather_rows(&self.store, toks, &mut ws.emb[0]);
        self.bilstm
            .forward_flat(&self.store, &ws.emb[0], &mut ws.lstm[0], &mut ws.hs[0]);
        self.attn
            .forward_flat(&self.store, &ws.hs[0], &mut ws.attn[0], &mut ws.concat);
        let mut y = [0.0f32];
        self.out.forward_into(&self.store, &ws.concat, &mut y);
        y[0]
    }

    /// One training epoch over `(doc token stream, target)` pairs; returns
    /// the mean loss. Exposed per-epoch so Table 6 can time it.
    pub fn train_epoch(&mut self, seqs: &[Vec<u32>], targets: &[f32]) -> f32 {
        assert_eq!(seqs.len(), targets.len());
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xd0c);
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        shuffle(&mut rng, &mut order);
        // One zeroing for the whole epoch: each step's `adam_step` zeroes
        // the gradients it reads.
        self.store.zero_grad();
        let mut ws = Workspace::default();
        let mut total = 0.0f32;
        for &i in &order {
            total += self.step(&seqs[i], targets[i], &mut ws);
        }
        let mean = total / seqs.len().max(1) as f32;
        fonduer_observe::counter("train.epochs", 1);
        fonduer_observe::counter("train.steps", seqs.len() as u64);
        fonduer_observe::gauge_set("train.epoch_loss", mean as f64);
        mean
    }

    /// One Adam step on one document; returns its loss. Gradients must be
    /// zero on entry, and are again on return: `adam_step` consumes them.
    fn step(&mut self, toks: &[u32], target: f32, ws: &mut Workspace) -> f32 {
        let z = self.forward(toks, ws);
        let (loss, dz) = bce_with_logit(z, target);
        self.out
            .backward_acc(&mut self.store, &ws.concat, &[dz], &mut ws.dcat);
        ws.dhs.resize(ws.hs[0].rows(), self.bilstm.d_out());
        self.attn.backward_flat(
            &mut self.store,
            &ws.hs[0],
            &mut ws.attn[0],
            &ws.dcat,
            &mut ws.dhs,
        );
        ws.demb.resize(toks.len(), self.cfg.d_emb);
        self.bilstm
            .backward_flat(&mut self.store, &mut ws.lstm[0], &ws.dhs, &mut ws.demb);
        self.emb.scatter_grad(&mut self.store, toks, &ws.demb);
        self.store.adam_step(self.cfg.lr, Some(self.cfg.clip));
        loss
    }

    /// Train for the configured number of epochs.
    pub fn fit_docs(&mut self, seqs: &[Vec<u32>], targets: &[f32]) {
        for _ in 0..self.cfg.epochs {
            self.train_epoch(seqs, targets);
        }
    }

    /// Marginal probability for one document token stream.
    pub fn predict_doc(&self, toks: &[u32]) -> f32 {
        sigmoid(self.forward(toks, &mut Workspace::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feature_dataset(n: usize) -> (Vec<CandidateInput>, Vec<f32>) {
        (0..n)
            .map(|i| {
                let pos = i % 2 == 0;
                (
                    CandidateInput {
                        mention_tokens: vec![vec![1], vec![2]],
                        features: if pos {
                            vec![0, 2].into()
                        } else {
                            vec![1, 2].into()
                        },
                    },
                    if pos { 0.95 } else { 0.05 },
                )
            })
            .unzip()
    }

    #[test]
    fn logreg_learns_separable_features() {
        let (inputs, targets) = feature_dataset(40);
        let mut m = LogRegModel::new(3, 1);
        m.fit(&inputs, &targets);
        for (inp, &t) in inputs.iter().zip(&targets) {
            assert_eq!(m.predict_one(inp) > 0.5, t > 0.5);
        }
        // The discriminative features got opposite-sign weights.
        let w = m.store.p(m.w);
        assert!(w[0] > 0.5 && w[1] < -0.5, "{w:?}");
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn one_zero_grad_per_fit_keeps_every_weight() {
        // The loops as they were: `zero_grad` before every step.
        let (inputs, targets) = feature_dataset(40);
        let mut fitted = LogRegModel::new(3, 9);
        fitted.fit(&inputs, &targets);
        let mut reference = LogRegModel::new(3, 9);
        let mut rng = StdRng::seed_from_u64(reference.seed ^ 0xbeef);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        for _ in 0..reference.epochs {
            shuffle(&mut rng, &mut order);
            for &i in &order {
                reference.store.zero_grad();
                reference.step(&inputs[i], targets[i]);
            }
        }
        for id in [fitted.w, fitted.b] {
            assert_eq!(bits(fitted.store.p(id)), bits(reference.store.p(id)));
        }

        let seqs: Vec<Vec<u32>> = (0..12u32).map(|i| vec![1, 2 + i % 5, 7, 3]).collect();
        let targets: Vec<f32> = (0..12).map(|i| (i % 3) as f32 / 2.0).collect();
        let cfg = ModelConfig {
            epochs: 2,
            ..Default::default()
        };
        let mut trained = DocRnnModel::new(cfg.clone(), 12);
        trained.fit_docs(&seqs, &targets);
        let mut reference = DocRnnModel::new(cfg, 12);
        for _ in 0..2 {
            let mut rng = StdRng::seed_from_u64(reference.cfg.seed ^ 0xd0c);
            let mut order: Vec<usize> = (0..seqs.len()).collect();
            shuffle(&mut rng, &mut order);
            let mut ws = Workspace::default();
            for &i in &order {
                reference.store.zero_grad();
                reference.step(&seqs[i], targets[i], &mut ws);
            }
        }
        // Every weight feeds the output, so equal outputs on every
        // sequence pin the trained parameters.
        for s in &seqs {
            assert_eq!(
                trained.predict_doc(s).to_bits(),
                reference.predict_doc(s).to_bits()
            );
        }
    }

    #[test]
    fn logreg_handles_empty_features() {
        let mut m = LogRegModel::new(0, 1);
        let inp = CandidateInput {
            mention_tokens: vec![],
            features: vec![].into(),
        };
        m.fit(std::slice::from_ref(&inp), &[1.0]);
        assert!(m.predict_one(&inp) > 0.5);
    }

    #[test]
    fn doc_rnn_learns_short_sequences() {
        // Positives contain token 7, negatives token 8 — same task shape as
        // the doc RNN faces, tiny scale.
        let seqs: Vec<Vec<u32>> = (0..30)
            .map(|i| {
                if i % 2 == 0 {
                    vec![1, 2, 7, 3, 4]
                } else {
                    vec![1, 2, 8, 3, 4]
                }
            })
            .collect();
        let targets: Vec<f32> = (0..30)
            .map(|i| if i % 2 == 0 { 0.9 } else { 0.1 })
            .collect();
        let mut m = DocRnnModel::new(
            ModelConfig {
                epochs: 6,
                ..Default::default()
            },
            20,
        );
        m.fit_docs(&seqs, &targets);
        let acc = seqs
            .iter()
            .zip(&targets)
            .filter(|(s, &t)| (m.predict_doc(s) > 0.5) == (t > 0.5))
            .count();
        assert!(acc >= 27, "{acc}/30");
    }

    #[test]
    fn doc_rnn_epoch_reports_decreasing_loss() {
        let seqs: Vec<Vec<u32>> = (0..20)
            .map(|i| if i % 2 == 0 { vec![7; 5] } else { vec![8; 5] })
            .collect();
        let targets: Vec<f32> = (0..20)
            .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        let mut m = DocRnnModel::new(ModelConfig::default(), 20);
        let first = m.train_epoch(&seqs, &targets);
        for _ in 0..4 {
            m.train_epoch(&seqs, &targets);
        }
        let last = m.train_epoch(&seqs, &targets);
        assert!(last < first, "{last} !< {first}");
    }
}
