//! Fonduer's multimodal LSTM (paper §4.2, Figure 5).
//!
//! Per mention, a shared bidirectional LSTM with word attention reads the
//! marker-wrapped sentence window and pools it into a textual feature
//! vector `t_i`; the candidate's textual representation is the
//! concatenation `[t_1, ..., t_n]`. The extended multimodal feature library
//! joins at the last layer: each active sparse feature contributes a
//! learned weight directly to the output logit ("the weights of the last
//! softmax layer that correspond to additional features"). All parameters
//! — embeddings, LSTM, attention, output layer, and feature weights — are
//! trained jointly against noise-aware probabilistic labels.
//!
//! ## Execution strategy
//!
//! Training is strictly per-sample (the committed semantics: shuffle,
//! forward, BCE, backward, Adam — in that order, sample by sample), but
//! every activation lives in a flat, reused [`fonduer_tensor::Mat`]
//! workspace and all dense math runs through the unrolled
//! `fonduer-tensor` kernels, so an epoch is allocation-free in steady
//! state. Each Adam step sweeps the non-embedding parameters plus only the
//! embedding rows some step's gradient has reached
//! ([`fonduer_nn::ParamStore::adam_step_rows`]): a row no gradient has
//! reached has `g = m = v = 0`, which a dense step leaves unchanged bit for
//! bit, and the training windows reach only a small share of the
//! vocabulary (123–143 of 2,056 rows on 512-document ELECTRONICS corpora).
//!
//! Inference ([`ProbClassifier::predict`]) encodes each distinct mention
//! window once. Candidates are cross products of mentions, so the same
//! marker-wrapped window recurs across candidates; windows are keyed by
//! their token ids (each slot's markers are part of them), bucketed by
//! length, and run through the Bi-LSTM as batched GEMMs
//! ([`fonduer_nn::BiLstm::forward_batch`]) and attention. Each candidate
//! then gathers its slots' pooled rows into the output layer and adds its
//! sparse feature weights. The batched kernels compute every row with the
//! same dot products whatever else the batch holds, so the marginals are
//! bit-identical to predicting each candidate alone.
//!
//! The pre-rewrite scalar path is preserved via `fonduer_nn::reference`
//! and exposed through hidden `*_reference` hooks; the golden-parity tests
//! hold the two paths to 1e-5 on losses, gradients, and predictions.

use crate::input::CandidateInput;
use fonduer_nn::{
    bce_with_logit, reference, sigmoid, Attention, AttentionCache, BiBatchScratch, BiLstm,
    BiLstmCache, Embedding, Linear, ParamId, ParamStore,
};
use fonduer_tensor::{self as tensor, Mat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Hyperparameters for [`FonduerModel`] and the baselines that reuse it.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Word-embedding dimension.
    pub d_emb: usize,
    /// LSTM hidden dimension (per direction).
    pub d_h: usize,
    /// Attention projection dimension.
    pub d_attn: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Global gradient-norm clip.
    pub clip: f32,
    /// Seed for init and shuffling.
    pub seed: u64,
    /// Enable the textual (Bi-LSTM + attention) path.
    pub use_lstm: bool,
    /// Enable the extended multimodal feature path.
    pub use_features: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            d_emb: 16,
            d_h: 16,
            d_attn: 16,
            epochs: 8,
            lr: 0.02,
            clip: 5.0,
            seed: 42,
            use_lstm: true,
            use_features: true,
        }
    }
}

impl ModelConfig {
    /// The out-of-the-box textual Bi-LSTM baseline of Table 4: no extended
    /// features.
    pub fn bilstm_only() -> Self {
        Self {
            use_features: false,
            ..Default::default()
        }
    }
}

/// Probability classifier over prepared candidates: the interface shared by
/// Fonduer's model and the featurization baselines of Table 4.
pub trait ProbClassifier {
    /// Train on `(input, soft target)` pairs.
    fn fit(&mut self, inputs: &[CandidateInput], targets: &[f32]);

    /// Marginal probability that the candidate is a true relation mention.
    fn predict_one(&self, input: &CandidateInput) -> f32;

    /// Marginals for a batch. Instrumented: the batch runs inside a
    /// `model_predict` span and each marginal lands in the
    /// `infer.marginal_permille` histogram, so the marginal distribution is
    /// visible in every exporter without touching the caller.
    fn predict(&self, inputs: &[CandidateInput]) -> Vec<f32> {
        let _span = fonduer_observe::span("model_predict");
        let out: Vec<f32> = inputs.iter().map(|i| self.predict_one(i)).collect();
        for &p in &out {
            fonduer_observe::hist_record(
                "infer.marginal_permille",
                (p.clamp(0.0, 1.0) * 1000.0) as u64,
            );
        }
        out
    }
}

/// The multimodal LSTM model.
pub struct FonduerModel {
    cfg: ModelConfig,
    store: ParamStore,
    emb: Embedding,
    bilstm: BiLstm,
    attn: Attention,
    out: Linear,
    feat_w: ParamId,
    arity: usize,
    /// Embedding rows any training step has reached, ascending. Every
    /// other row still has `g = m = v = 0`, which an Adam step leaves
    /// unchanged, so each step sweeps only these rows and the dense tail.
    /// Kept for the model's lifetime: `m` and `v` outlive one `fit`.
    reached_rows: Vec<u32>,
}

/// Reusable flat activation workspace for one candidate. Every matrix
/// keeps its arena across samples, so a training epoch or prediction sweep
/// performs no per-sample allocations once the high-water shapes are
/// reached.
#[derive(Default)]
struct Workspace {
    /// Per mention: `T × d_emb` embedded tokens.
    emb: Vec<Mat>,
    /// Per mention: Bi-LSTM BPTT cache.
    lstm: Vec<BiLstmCache>,
    /// Per mention: `T × 2h` hidden states.
    hs: Vec<Mat>,
    /// Per mention: attention cache.
    attn: Vec<AttentionCache>,
    /// Concatenated pooled vectors `[t_1 … t_n]`.
    concat: Vec<f32>,
    /// Gradient of `concat`.
    dcat: Vec<f32>,
    /// Scratch: `T × 2h` hidden-state grads of the current mention.
    dhs: Mat,
    /// Scratch: `T × d_emb` input grads of the current mention.
    demb: Mat,
    /// Scratch: deduplicated token ids of the current sample (the
    /// embedding rows its gradient touches).
    tok_ids: Vec<u32>,
}

impl Workspace {
    fn ensure(&mut self, arity: usize, d_attn: usize) {
        self.emb.resize_with(arity, Mat::default);
        self.lstm.resize_with(arity, BiLstmCache::default);
        self.hs.resize_with(arity, Mat::default);
        self.attn.resize_with(arity, AttentionCache::default);
        self.concat.clear();
        self.concat.resize(arity * d_attn, 0.0);
        self.dcat.clear();
        self.dcat.resize(arity * d_attn, 0.0);
    }
}

impl FonduerModel {
    /// Build a model for a given vocabulary/feature space and relation
    /// arity.
    pub fn new(cfg: ModelConfig, vocab_size: usize, n_features: usize, arity: usize) -> Self {
        let mut store = ParamStore::new(cfg.seed);
        let emb = Embedding::new(&mut store, vocab_size, cfg.d_emb);
        let bilstm = BiLstm::new(&mut store, cfg.d_emb, cfg.d_h);
        let attn = Attention::new(&mut store, 2 * cfg.d_h, cfg.d_attn);
        let out = Linear::new(&mut store, arity * cfg.d_attn, 1);
        let feat_w = store.alloc_zeros(n_features.max(1), 1);
        Self {
            cfg,
            store,
            emb,
            bilstm,
            attn,
            out,
            feat_w,
            arity,
            reached_rows: Vec::new(),
        }
    }

    /// Number of trainable parameters.
    pub fn n_params(&self) -> usize {
        self.store.n_params()
    }

    /// Serialize the trained weights (see `fonduer_nn::persist`). Load them
    /// into a model built with the same config/vocabulary/feature space via
    /// [`FonduerModel::load_weights`].
    pub fn save_weights(&self) -> bytes::Bytes {
        fonduer_nn::save_weights(&self.store)
    }

    /// Restore weights saved by [`FonduerModel::save_weights`]. The model
    /// must have been constructed with identical dimensions.
    pub fn load_weights(&mut self, blob: &[u8]) -> Result<(), fonduer_nn::PersistError> {
        fonduer_nn::load_weights(&mut self.store, blob)
    }

    /// Flat forward pass into the workspace; returns the logit.
    fn forward_ws(&self, input: &CandidateInput, ws: &mut Workspace) -> f32 {
        ws.ensure(self.arity, self.cfg.d_attn);
        let mut z = 0.0f32;
        if self.cfg.use_lstm {
            for (i, toks) in input.mention_tokens.iter().enumerate() {
                self.emb.gather_rows(&self.store, toks, &mut ws.emb[i]);
                self.bilstm
                    .forward_flat(&self.store, &ws.emb[i], &mut ws.lstm[i], &mut ws.hs[i]);
                self.attn.forward_flat(
                    &self.store,
                    &ws.hs[i],
                    &mut ws.attn[i],
                    &mut ws.concat[i * self.cfg.d_attn..(i + 1) * self.cfg.d_attn],
                );
            }
            let mut y = [0.0f32];
            self.out.forward_into(&self.store, &ws.concat, &mut y);
            z += y[0];
        } else {
            // Bias still applies so the model can learn the class prior.
            z += self.store.p(self.out.b)[0];
        }
        if self.cfg.use_features {
            z += tensor::sparse_dot(self.store.p(self.feat_w), input.features.ids());
        }
        z
    }

    /// Flat backward pass from the workspace state left by
    /// [`FonduerModel::forward_ws`].
    fn backward_ws(&mut self, input: &CandidateInput, ws: &mut Workspace, dz: f32) {
        if self.cfg.use_features {
            tensor::sparse_add(self.store.grad_mut(self.feat_w), input.features.ids(), dz);
        }
        if self.cfg.use_lstm {
            ws.dcat.fill(0.0);
            self.out
                .backward_acc(&mut self.store, &ws.concat, &[dz], &mut ws.dcat);
            for (i, toks) in input.mention_tokens.iter().enumerate() {
                let d_t = &ws.dcat[i * self.cfg.d_attn..(i + 1) * self.cfg.d_attn];
                ws.dhs.resize(ws.hs[i].rows(), self.bilstm.d_out());
                self.attn
                    .backward_flat(&mut self.store, &ws.hs[i], &ws.attn[i], d_t, &mut ws.dhs);
                ws.demb.resize(toks.len(), self.cfg.d_emb);
                self.bilstm
                    .backward_flat(&mut self.store, &ws.lstm[i], &ws.dhs, &mut ws.demb);
                self.emb.scatter_grad(&mut self.store, toks, &ws.demb);
            }
        } else {
            self.store.grad_mut(self.out.b)[0] += dz;
        }
    }

    /// Collect the sample's distinct token ids — the embedding rows its
    /// gradient touches — into `tok_ids`, ascending, and add them to the
    /// reached rows.
    fn reach_rows(&mut self, input: &CandidateInput, tok_ids: &mut Vec<u32>) {
        tok_ids.clear();
        if !self.cfg.use_lstm {
            return;
        }
        for toks in &input.mention_tokens {
            tok_ids.extend_from_slice(toks);
        }
        tok_ids.sort_unstable();
        tok_ids.dedup();
        for &t in tok_ids.iter() {
            if let Err(at) = self.reached_rows.binary_search(&t) {
                self.reached_rows.insert(at, t);
            }
        }
    }

    /// Squared gradient norm over the gradient's support: the dense
    /// non-embedding tail of the store plus the embedding rows `tok_ids`
    /// of this sample (from [`FonduerModel::reach_rows`]). Exact, not
    /// approximate: the fast path maintains an all-zero gradient invariant
    /// between steps (the Adam sweep consumes `g`), so every untouched
    /// embedding row is exactly zero and contributes nothing to the norm —
    /// only the summation grouping differs from a full sweep, which the
    /// 1e-5 parity suite absorbs.
    fn grad_sq_support(&self, tok_ids: &[u32]) -> f32 {
        // The embedding table is the store's first allocation; everything
        // after it is the dense tail swept below.
        debug_assert!(std::ptr::eq(
            self.store.grad(self.emb.table).as_ptr(),
            self.store.g.as_ptr()
        ));
        let emb_len = self.emb.table.len();
        let mut sq = tensor::sq_sum(&self.store.g[emb_len..]);
        let d = self.cfg.d_emb;
        for &t in tok_ids {
            let o = t as usize * d;
            sq += tensor::sq_sum(&self.store.g[o..o + d]);
        }
        sq
    }

    /// Original scalar forward (frozen in `fonduer_nn::reference`),
    /// returning the logit plus the caches its backward needs.
    fn forward_reference(
        &self,
        input: &CandidateInput,
    ) -> (
        f32,
        Vec<reference::BiLstmCache>,
        Vec<reference::AttentionCache>,
        Vec<f32>,
    ) {
        let mut lstm_caches = Vec::with_capacity(self.arity);
        let mut attn_caches = Vec::with_capacity(self.arity);
        let mut pooled = Vec::with_capacity(self.arity);
        let mut z = 0.0f32;
        if self.cfg.use_lstm {
            for toks in &input.mention_tokens {
                let xs: Vec<Vec<f32>> = toks
                    .iter()
                    .map(|&t| self.emb.forward(&self.store, t as usize))
                    .collect();
                let (hs, lc) = reference::bilstm_forward_seq(&self.bilstm, &self.store, &xs);
                let (t, ac) = reference::attention_forward(&self.attn, &self.store, &hs);
                lstm_caches.push(lc);
                attn_caches.push(ac);
                pooled.push(t);
            }
            let concat = pooled.concat();
            z += reference::linear_forward(&self.out, &self.store, &concat)[0];
            pooled = vec![concat];
        } else {
            z += self.store.p(self.out.b)[0];
            pooled = vec![Vec::new()];
        }
        if self.cfg.use_features {
            let w = self.store.p(self.feat_w);
            for &c in input.features.ids() {
                z += w[c as usize];
            }
        }
        (z, lstm_caches, attn_caches, pooled.swap_remove(0))
    }

    /// One `zero_grad → forward → BCE → backward` pass (no optimizer
    /// step), through either the flat kernels or the frozen scalar
    /// reference. Returns the sample loss. Exposed for the golden-parity
    /// suite and the old-vs-new benchmark rows.
    #[doc(hidden)]
    pub fn debug_step(&mut self, input: &CandidateInput, target: f32, use_reference: bool) -> f32 {
        self.store.zero_grad();
        if use_reference {
            let (z, lstm_caches, attn_caches, concat) = self.forward_reference(input);
            let (loss, dz) = bce_with_logit(z, target);
            if self.cfg.use_features {
                let g = self.store.grad_mut(self.feat_w);
                for &c in input.features.ids() {
                    g[c as usize] += dz;
                }
            }
            if self.cfg.use_lstm {
                let dcat = reference::linear_backward(&self.out, &mut self.store, &concat, &[dz]);
                for (i, toks) in input.mention_tokens.iter().enumerate() {
                    let d_t = &dcat[i * self.cfg.d_attn..(i + 1) * self.cfg.d_attn];
                    let dhs = reference::attention_backward(
                        &self.attn,
                        &mut self.store,
                        &attn_caches[i],
                        d_t,
                    );
                    let dxs = reference::bilstm_backward_seq(
                        &self.bilstm,
                        &mut self.store,
                        &lstm_caches[i],
                        &dhs,
                    );
                    for (k, &tok) in toks.iter().enumerate() {
                        self.emb.backward(&mut self.store, tok as usize, &dxs[k]);
                    }
                }
            } else {
                self.store.grad_mut(self.out.b)[0] += dz;
            }
            loss
        } else {
            let mut ws = Workspace::default();
            let z = self.forward_ws(input, &mut ws);
            let (loss, dz) = bce_with_logit(z, target);
            self.backward_ws(input, &mut ws, dz);
            loss
        }
    }

    /// Scalar logit through the frozen reference path (parity tests).
    #[doc(hidden)]
    pub fn predict_one_reference(&self, input: &CandidateInput) -> f32 {
        sigmoid(self.forward_reference(input).0)
    }

    /// Train through the frozen scalar path — identical schedule and update
    /// order to [`ProbClassifier::fit`], old per-step math. Kept so the
    /// `learning/train_epoch/scalar_reference` benchmark measures the real
    /// before/after gap on identical workloads.
    #[doc(hidden)]
    pub fn fit_reference(&mut self, inputs: &[CandidateInput], targets: &[f32]) {
        self.fit_impl(inputs, targets, true);
    }

    fn fit_impl(&mut self, inputs: &[CandidateInput], targets: &[f32], use_reference: bool) {
        assert_eq!(inputs.len(), targets.len());
        if inputs.is_empty() {
            return;
        }
        let _span = fonduer_observe::span("model_fit");
        let steps = fonduer_observe::Counter::named("train.steps");
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xfeed);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        let mut ws = Workspace::default();
        // Invariant for the fast path: gradients are all-zero at the top of
        // every step — `adam_step` consumes (zeroes) them as it reads, so
        // the per-sample `zero_grad` sweep disappears. One zeroing here
        // re-establishes the invariant in case a caller left gradients
        // behind (e.g. a bare `debug_step` without an optimizer step).
        self.store.zero_grad();
        for _ in 0..self.cfg.epochs {
            let epoch_start = Instant::now();
            let kernels_before = tensor::stats::snapshot();
            for i in 0..order.len() {
                let j = rng.gen_range(i..order.len());
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0f64;
            for &i in &order {
                let loss = if use_reference {
                    let loss = self.debug_step(&inputs[i], targets[i], true);
                    // The dense step moves this sample's rows too; keep
                    // them reached for a later `fit`.
                    self.reach_rows(&inputs[i], &mut ws.tok_ids);
                    self.store.adam_step(self.cfg.lr, Some(self.cfg.clip));
                    loss
                } else {
                    let z = self.forward_ws(&inputs[i], &mut ws);
                    let (loss, dz) = bce_with_logit(z, targets[i]);
                    self.backward_ws(&inputs[i], &mut ws, dz);
                    // Clip norm over the gradient's support only — the
                    // consuming Adam sweep keeps everything else at zero —
                    // and step only the rows that can move.
                    self.reach_rows(&inputs[i], &mut ws.tok_ids);
                    let gsq = self.grad_sq_support(&ws.tok_ids);
                    self.store.adam_step_rows(
                        self.cfg.lr,
                        Some(self.cfg.clip),
                        gsq,
                        self.emb.table,
                        &self.reached_rows,
                    );
                    loss
                };
                epoch_loss += loss as f64;
            }
            steps.add(order.len() as u64);
            fonduer_observe::counter("train.epochs", 1);
            fonduer_observe::gauge_set("train.epoch_loss", epoch_loss / order.len() as f64);
            // Per-epoch timing + kernel-call telemetry (satellite of the
            // flat-kernel PR): epoch wall time as a histogram, and the
            // tensor crate's internal call counters flushed as deltas.
            fonduer_observe::hist_record(
                "learning.epoch_ns",
                epoch_start.elapsed().as_nanos() as u64,
            );
            let d = tensor::stats::delta(kernels_before, tensor::stats::snapshot());
            fonduer_observe::counter("tensor.gemv_calls", d.gemv_calls);
            fonduer_observe::counter("tensor.gemm_calls", d.gemm_calls);
            fonduer_observe::counter("tensor.sparse_dot_calls", d.sparse_dot_calls);
            fonduer_observe::counter("tensor.axpy_calls", d.axpy_calls);
        }
    }

    /// Textual encoding for inference: each distinct mention window runs
    /// through the Bi-LSTM and attention once. Returns one pooled `d_attn`
    /// row per distinct window, and per `(candidate, slot)`, in input
    /// order, the row of its window.
    ///
    /// Windows are keyed by their token ids: every slot runs the same
    /// encoder and each slot's markers are part of its ids, so equal ids
    /// pool to equal vectors. Distinct windows are bucketed by length and
    /// each bucket runs as timestep-major GEMMs
    /// ([`fonduer_nn::BiLstm::forward_batch`]), whose kernels compute
    /// every row with the same dot products whatever else the batch holds.
    /// Empty windows are not encoded and pool to zero.
    fn encode_windows(&self, inputs: &[CandidateInput]) -> (Mat, Vec<u32>) {
        // Distinct windows in first-occurrence order; the map only serves
        // lookups and is never iterated.
        let mut windows: Vec<&[u32]> = Vec::new();
        let mut index: HashMap<&[u32], u32> = HashMap::new();
        let mut slot_window = Vec::new();
        for inp in inputs {
            for toks in &inp.mention_tokens {
                let w = *index.entry(toks.as_slice()).or_insert_with(|| {
                    windows.push(toks);
                    (windows.len() - 1) as u32
                });
                slot_window.push(w);
            }
        }
        let mut buckets: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for (w, toks) in windows.iter().enumerate() {
            if !toks.is_empty() {
                buckets.entry(toks.len()).or_default().push(w as u32);
            }
        }
        fonduer_observe::counter("infer.windows", slot_window.len() as u64);
        fonduer_observe::counter(
            "infer.windows_encoded",
            buckets.values().map(Vec::len).sum::<usize>() as u64,
        );
        let mut pooled = Mat::zeros(windows.len(), self.cfg.d_attn);
        let mut xs = Mat::default();
        let mut hs_all = Mat::default();
        let mut seq_hs = Mat::default();
        let mut scratch = BiBatchScratch::default();
        let mut attn_cache = AttentionCache::default();
        let table = self.store.p(self.emb.table);
        let d_emb = self.cfg.d_emb;
        for (&len, members) in &buckets {
            let batch = members.len();
            xs.resize(len * batch, d_emb);
            for (b, &w) in members.iter().enumerate() {
                for (t, &tok) in windows[w as usize].iter().enumerate() {
                    let idx = tok as usize * d_emb;
                    xs.row_mut(t * batch + b)
                        .copy_from_slice(&table[idx..idx + d_emb]);
                }
            }
            self.bilstm
                .forward_batch(&self.store, &xs, batch, &mut scratch, &mut hs_all);
            for (b, &w) in members.iter().enumerate() {
                seq_hs.resize(len, self.bilstm.d_out());
                for t in 0..len {
                    seq_hs.row_mut(t).copy_from_slice(hs_all.row(t * batch + b));
                }
                self.attn.forward_flat(
                    &self.store,
                    &seq_hs,
                    &mut attn_cache,
                    pooled.row_mut(w as usize),
                );
            }
        }
        (pooled, slot_window)
    }

    /// Batched inference: encode the distinct windows once
    /// ([`FonduerModel::encode_windows`]), then score each candidate from
    /// its slots' pooled rows and its sparse features. Bit-identical to
    /// scoring each candidate alone.
    fn predict_shared(&self, inputs: &[CandidateInput]) -> Vec<f32> {
        let d_attn = self.cfg.d_attn;
        let (pooled, slot_window) = if self.cfg.use_lstm {
            self.encode_windows(inputs)
        } else {
            (Mat::default(), Vec::new())
        };
        // The candidate's `[t_1 … t_n]`; slots without a window stay zero.
        let mut concat = vec![0.0f32; self.arity * d_attn];
        let mut at = 0;
        let mut out = Vec::with_capacity(inputs.len());
        for inp in inputs {
            let mut z = if self.cfg.use_lstm {
                let ids = &slot_window[at..at + inp.mention_tokens.len()];
                at += ids.len();
                concat.fill(0.0);
                for (t, &w) in concat.chunks_exact_mut(d_attn).zip(ids) {
                    t.copy_from_slice(pooled.row(w as usize));
                }
                let mut y = [0.0f32];
                self.out.forward_into(&self.store, &concat, &mut y);
                y[0]
            } else {
                self.store.p(self.out.b)[0]
            };
            if self.cfg.use_features {
                z += tensor::sparse_dot(self.store.p(self.feat_w), inp.features.ids());
            }
            out.push(sigmoid(z));
        }
        out
    }
}

impl ProbClassifier for FonduerModel {
    fn fit(&mut self, inputs: &[CandidateInput], targets: &[f32]) {
        self.fit_impl(inputs, targets, false);
    }

    fn predict_one(&self, input: &CandidateInput) -> f32 {
        let mut ws = Workspace::default();
        sigmoid(self.forward_ws(input, &mut ws))
    }

    fn predict(&self, inputs: &[CandidateInput]) -> Vec<f32> {
        let _span = fonduer_observe::span("model_predict");
        let out = self.predict_shared(inputs);
        for &p in &out {
            fonduer_observe::hist_record(
                "infer.marginal_permille",
                (p.clamp(0.0, 1.0) * 1000.0) as u64,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic separable task: positives have feature 0 and token 5
    /// early; negatives have feature 1 and token 9.
    fn dataset(n: usize) -> (Vec<CandidateInput>, Vec<f32>) {
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for i in 0..n {
            let pos = i % 2 == 0;
            let toks: Vec<u32> = if pos {
                vec![100, 5, 101, 3, 7]
            } else {
                vec![100, 9, 101, 3, 7]
            };
            inputs.push(CandidateInput {
                mention_tokens: vec![toks.clone(), toks],
                features: if pos {
                    vec![0, 2].into()
                } else {
                    vec![1, 2].into()
                },
            });
            targets.push(if pos { 0.9 } else { 0.1 });
        }
        (inputs, targets)
    }

    fn accuracy(m: &dyn ProbClassifier, inputs: &[CandidateInput], targets: &[f32]) -> f64 {
        let correct = inputs
            .iter()
            .zip(targets)
            .filter(|(inp, &t)| (m.predict_one(inp) > 0.5) == (t > 0.5))
            .count();
        correct as f64 / inputs.len() as f64
    }

    #[test]
    fn learns_separable_task_with_features() {
        let (inputs, targets) = dataset(60);
        let mut m = FonduerModel::new(
            ModelConfig {
                epochs: 5,
                ..Default::default()
            },
            200,
            3,
            2,
        );
        m.fit(&inputs, &targets);
        assert!(accuracy(&m, &inputs, &targets) > 0.95);
    }

    #[test]
    fn learns_from_text_alone() {
        let (inputs, targets) = dataset(60);
        let mut m = FonduerModel::new(ModelConfig::bilstm_only(), 200, 3, 2);
        m.fit(&inputs, &targets);
        // The token signal (5 vs 9) is fully informative.
        assert!(accuracy(&m, &inputs, &targets) > 0.9);
    }

    #[test]
    fn feature_only_model_ignores_tokens() {
        let (mut inputs, targets) = dataset(60);
        let mut m = FonduerModel::new(
            ModelConfig {
                use_lstm: false,
                epochs: 5,
                ..Default::default()
            },
            200,
            3,
            2,
        );
        m.fit(&inputs, &targets);
        assert!(accuracy(&m, &inputs, &targets) > 0.95);
        // Scrambling tokens does not change predictions.
        let p_before: Vec<f32> = m.predict(&inputs);
        for inp in &mut inputs {
            inp.mention_tokens = vec![vec![1, 2, 3], vec![4, 5, 6]];
        }
        let p_after: Vec<f32> = m.predict(&inputs);
        assert_eq!(p_before, p_after);
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let (inputs, targets) = dataset(20);
        let run = || {
            let mut m = FonduerModel::new(
                ModelConfig {
                    epochs: 2,
                    ..Default::default()
                },
                200,
                3,
                2,
            );
            m.fit(&inputs, &targets);
            m.predict(&inputs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batched_predict_matches_sequential_predict_one() {
        // Ragged lengths across candidates exercise the length buckets.
        let mut inputs = Vec::new();
        for i in 0..17u32 {
            let l1 = 1 + (i as usize % 5);
            let l2 = 1 + ((i as usize * 3) % 7);
            inputs.push(CandidateInput {
                mention_tokens: vec![
                    (0..l1 as u32).map(|k| (i + k) % 50).collect(),
                    (0..l2 as u32).map(|k| (2 * i + k) % 50).collect(),
                ],
                features: vec![i % 3, 3 + i % 4].into(),
            });
        }
        // Include an empty mention sequence.
        inputs.push(CandidateInput {
            mention_tokens: vec![vec![], vec![1, 2, 3]],
            features: vec![0].into(),
        });
        let targets: Vec<f32> = (0..inputs.len())
            .map(|i| if i % 2 == 0 { 0.9 } else { 0.1 })
            .collect();
        let mut m = FonduerModel::new(
            ModelConfig {
                epochs: 2,
                ..Default::default()
            },
            50,
            8,
            2,
        );
        m.fit(&inputs, &targets);
        let batched = m.predict(&inputs);
        for (inp, &b) in inputs.iter().zip(&batched) {
            let s = m.predict_one(inp);
            assert!(
                (b - s).abs() < 1e-6,
                "batched {b} vs sequential {s} must agree"
            );
        }
    }

    /// Windows repeated across candidates and across slots, empty windows,
    /// and ragged lengths. Three different windows of length 3 share a
    /// bucket, and windows that differ only in their last token, or extend
    /// another, must not share an encoding.
    fn shared_windows() -> Vec<CandidateInput> {
        let pool: [&[u32]; 7] = [
            &[],
            &[7],
            &[1, 2, 3],
            &[3, 2, 1],
            &[1, 2, 4],
            &[1, 2, 3, 4],
            &[10, 11, 12, 13, 14, 15, 16],
        ];
        (0..40)
            .map(|i: usize| CandidateInput {
                // Candidates 3, 10, 17, … carry one window in both slots.
                mention_tokens: vec![pool[i % 7].to_vec(), pool[(3 * i + 1) % 7].to_vec()],
                features: vec![(i % 5) as u32].into(),
            })
            .collect()
    }

    #[test]
    fn shared_predict_matches_predict_alone_bitwise() {
        let inputs = shared_windows();
        let targets: Vec<f32> = (0..inputs.len())
            .map(|i| if i % 3 == 0 { 0.9 } else { 0.1 })
            .collect();
        let mut m = FonduerModel::new(
            ModelConfig {
                epochs: 2,
                ..Default::default()
            },
            20,
            5,
            2,
        );
        m.fit(&inputs, &targets);
        let all = m.predict(&inputs);
        for (i, (inp, &p)) in inputs.iter().zip(&all).enumerate() {
            // A batch of one shares nothing with other candidates.
            let alone = m.predict(std::slice::from_ref(inp))[0];
            assert_eq!(p.to_bits(), alone.to_bits(), "candidate {i}");
            // `predict_one` runs the unbatched kernels.
            let s = m.predict_one(inp);
            assert!((p - s).abs() < 1e-6, "shared {p} vs sequential {s}");
        }
    }

    #[test]
    fn empty_training_set_is_noop() {
        let mut m = FonduerModel::new(ModelConfig::default(), 100, 2, 2);
        m.fit(&[], &[]);
        let p = m.predict_one(&CandidateInput {
            mention_tokens: vec![vec![1], vec![2]],
            features: vec![0].into(),
        });
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn param_count_scales_with_spaces() {
        let small = FonduerModel::new(ModelConfig::default(), 100, 10, 2);
        let big = FonduerModel::new(ModelConfig::default(), 100, 10_000, 2);
        assert_eq!(big.n_params() - small.n_params(), 9_990);
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;

    #[test]
    fn saved_model_predicts_identically_after_reload() {
        let inputs: Vec<CandidateInput> = (0..20)
            .map(|i| CandidateInput {
                mention_tokens: vec![vec![i % 7, 5], vec![3]],
                features: vec![i % 3].into(),
            })
            .collect();
        let targets: Vec<f32> = (0..20)
            .map(|i| if i % 2 == 0 { 0.9 } else { 0.1 })
            .collect();
        let mut trained = FonduerModel::new(
            ModelConfig {
                epochs: 2,
                ..Default::default()
            },
            50,
            3,
            2,
        );
        trained.fit(&inputs, &targets);
        let blob = trained.save_weights();
        // Fresh model with a different seed: predictions differ before load,
        // match exactly after.
        let mut fresh = FonduerModel::new(
            ModelConfig {
                epochs: 2,
                seed: 999,
                ..Default::default()
            },
            50,
            3,
            2,
        );
        assert_ne!(trained.predict(&inputs), fresh.predict(&inputs));
        fresh.load_weights(&blob).unwrap();
        assert_eq!(trained.predict(&inputs), fresh.predict(&inputs));
    }

    #[test]
    fn load_rejects_wrong_architecture() {
        let m = FonduerModel::new(ModelConfig::default(), 50, 3, 2);
        let blob = m.save_weights();
        let mut other = FonduerModel::new(ModelConfig::default(), 50, 99, 2);
        assert!(other.load_weights(&blob).is_err());
    }
}
