//! LSTM cell with full backpropagation through time (paper §2.2), on flat
//! [`Mat`] activations.
//!
//! Gate equations exactly as in the paper:
//! ```text
//! i_t = σ(W_i x_t + U_i h_{t-1} + b_i)
//! f_t = σ(W_f x_t + U_f h_{t-1} + b_f)
//! o_t = σ(W_o x_t + U_o h_{t-1} + b_o)
//! c_t = f_t ∘ c_{t-1} + i_t ∘ tanh(W_c x_t + U_c h_{t-1} + b_c)
//! h_t = o_t ∘ tanh(c_t)
//! ```
//! The four gate blocks are packed into single `4h × d` matrices in order
//! `[i, f, o, g]`.
//!
//! Two execution shapes share the parameters:
//!
//! * **Flat sequential** ([`LstmCell::forward_flat`] and
//!   [`LstmCell::backward_flat`]): one sequence, all activations and BPTT
//!   scratch in a reused [`LstmCache`] — zero allocations in steady state,
//!   gate math through the fused `fonduer-tensor` kernels.
//!   The reversed direction of a [`BiLstm`] runs over the *same* input
//!   matrix with an index mapping; the old per-call
//!   `xs.iter().rev().cloned()` copy is gone.
//! * **Batched** ([`BiLstm::forward_batch`]): `B` same-length sequences
//!   packed timestep-major into one `(T·B) × d` matrix, so each gate
//!   pre-activation is a real GEMM (`Z_t = X_t Wᵀ + H_{t-1} Uᵀ`) instead of
//!   `B` matrix–vector products. Row-for-row it runs the same dot kernel as
//!   the sequential path, so batched and sequential hidden states are
//!   equal, not merely close.
//!
//! The pre-rewrite scalar implementation is preserved in
//! [`crate::reference`] and the two are held to 1e-5 parity in tests.

use crate::store::{ParamId, ParamStore};
use fonduer_tensor::{self as tensor, Mat};

/// An LSTM cell (one direction).
#[derive(Debug, Clone, Copy)]
pub struct LstmCell {
    pub(crate) w: ParamId,
    pub(crate) u: ParamId,
    pub(crate) b: ParamId,
    /// Input dimension.
    pub d_in: usize,
    /// Hidden dimension.
    pub d_h: usize,
}

/// Flat sequence cache for BPTT. Rows are in *processed* order (step `t` of
/// a reversed pass reads input row `T−1−t`); all matrices and vectors keep
/// their capacity across calls, so reusing a cache for forward and backward
/// passes is allocation-free in steady state.
#[derive(Debug, Clone, Default)]
pub struct LstmCache {
    /// Inputs in processed order (`T × d_in`).
    x: Mat,
    /// Activated gates `[i, f, o, g]` (`T × 4h`).
    gates: Mat,
    /// Cell states (`T × h`).
    c: Mat,
    /// `tanh(c)` (`T × h`).
    tanh_c: Mat,
    /// Hidden states in processed order (`T × h`).
    hs: Mat,
    /// Zero vector standing in for `h_{-1}` / `c_{-1}`.
    zero: Vec<f32>,
    /// Whether the pass consumed the input back-to-front.
    reversed: bool,
    /// Backward scratch: gate pre-activation grads (`4h`).
    dz: Vec<f32>,
    /// Backward scratch: grad of the current hidden state (`h`).
    dh: Vec<f32>,
    /// Backward scratch: recurrent grad flowing into `h_{t-1}` (`h`).
    dh_next: Vec<f32>,
    /// Backward scratch: cell-state grad carried across steps (`h`).
    dc: Vec<f32>,
}

impl LstmCache {
    /// Hidden states in processed order (`T × h`).
    pub fn hs(&self) -> &Mat {
        &self.hs
    }
}

impl LstmCell {
    /// Allocate an LSTM cell.
    pub fn new(store: &mut ParamStore, d_in: usize, d_h: usize) -> Self {
        let cell = Self {
            w: store.alloc(4 * d_h, d_in),
            u: store.alloc(4 * d_h, d_h),
            b: store.alloc_zeros(4 * d_h, 1),
            d_in,
            d_h,
        };
        // Forget-gate bias init to 1.0: standard trick for gradient flow.
        for k in d_h..2 * d_h {
            store.p_mut(cell.b)[k] = 1.0;
        }
        cell
    }

    /// Run the cell over a `T × d_in` input matrix, filling `cache` (which
    /// is reused — no allocations once its buffers have grown). With
    /// `reversed`, the input is consumed back-to-front without copying it.
    pub fn forward_flat(
        &self,
        store: &ParamStore,
        xs: &Mat,
        reversed: bool,
        cache: &mut LstmCache,
    ) {
        let t_max = xs.rows();
        let h = self.d_h;
        debug_assert!(t_max == 0 || xs.cols() == self.d_in);
        cache.reversed = reversed;
        cache.x.resize(t_max, self.d_in);
        cache.gates.resize(t_max, 4 * h);
        cache.c.resize(t_max, h);
        cache.tanh_c.resize(t_max, h);
        cache.hs.resize(t_max, h);
        cache.zero.clear();
        cache.zero.resize(h, 0.0);
        let LstmCache {
            x,
            gates,
            c,
            tanh_c,
            hs,
            zero,
            ..
        } = cache;
        for t in 0..t_max {
            let src = if reversed { t_max - 1 - t } else { t };
            x.row_mut(t).copy_from_slice(xs.row(src));
        }
        let w = store.p(self.w);
        let u = store.p(self.u);
        let b = store.p(self.b);
        for t in 0..t_max {
            let z = gates.row_mut(t);
            tensor::gemv(w, 4 * h, self.d_in, x.row(t), z);
            let h_prev = if t == 0 { &zero[..] } else { hs.row(t - 1) };
            tensor::gemv_acc(u, 4 * h, h, h_prev, z);
            tensor::lstm_gates(z, b, h);
            let (c_prev, c_t) = if t == 0 {
                (&zero[..], c.row_mut(0))
            } else {
                c.row_pair_mut(t - 1, t)
            };
            tensor::lstm_state(gates.row(t), c_prev, c_t, tanh_c.row_mut(t), hs.row_mut(t));
        }
    }

    /// BPTT over a flat cache. `dhs` is indexed in *original* sequence
    /// order; the cell reads columns `[dh_off, dh_off + d_h)` of each row,
    /// so a [`BiLstm`] hands both directions the same `T × 2h` gradient
    /// matrix. Input gradients accumulate (`+=`) into `dxs` rows in
    /// original order. The cache's backward scratch is reused, so the pass
    /// allocates nothing once the cache has run at this width.
    pub fn backward_flat(
        &self,
        store: &mut ParamStore,
        cache: &mut LstmCache,
        dhs: &Mat,
        dh_off: usize,
        dxs: &mut Mat,
    ) {
        let h = self.d_h;
        let t_max = cache.hs.rows();
        debug_assert_eq!(dhs.rows(), t_max);
        debug_assert_eq!(dxs.rows(), t_max);
        let LstmCache {
            x,
            gates,
            c,
            tanh_c,
            hs,
            zero,
            reversed,
            dz,
            dh,
            dh_next,
            dc,
        } = cache;
        dz.clear();
        dz.resize(4 * h, 0.0);
        dh.clear();
        dh.resize(h, 0.0);
        dh_next.clear();
        dh_next.resize(h, 0.0);
        // `dc` carries the cell-state gradient across timesteps in place —
        // the fused kernel consumes the carry and writes the next one.
        dc.clear();
        dc.resize(h, 0.0);
        for t in (0..t_max).rev() {
            let orig = if *reversed { t_max - 1 - t } else { t };
            let c_prev = if t == 0 { &zero[..] } else { c.row(t - 1) };
            dh.copy_from_slice(&dhs.row(orig)[dh_off..dh_off + h]);
            tensor::add(dh_next, dh);
            // h = o ∘ tanh(c); c = f ∘ c_prev + i ∘ g.
            tensor::lstm_backward_gates(gates.row(t), tanh_c.row(t), c_prev, dh, dc, dz);
            // z = W x + U h_prev + b — split-borrow the store so the weight
            // values and their gradients alias-free without copying.
            {
                let (w_vals, dw) = store.p_grad_mut(self.w);
                tensor::outer_acc(dz, x.row(t), dw);
                tensor::gemv_t_acc(w_vals, 4 * h, self.d_in, dz, dxs.row_mut(orig));
            }
            dh_next.fill(0.0);
            {
                let h_prev = if t == 0 { &zero[..] } else { hs.row(t - 1) };
                let (u_vals, du) = store.p_grad_mut(self.u);
                tensor::outer_acc(dz, h_prev, du);
                tensor::gemv_t_acc(u_vals, 4 * h, h, dz, dh_next);
            }
            tensor::add(dz, store.grad_mut(self.b));
        }
    }

    /// Batched forward over `B` same-length sequences packed timestep-major
    /// (`xs` row `t·B + b` is step `t` of sequence `b`). Hidden states land
    /// in `hs` with the same layout, in original time order. Gate
    /// pre-activations are computed as one GEMM per timestep.
    pub fn forward_batch(
        &self,
        store: &ParamStore,
        xs: &Mat,
        batch: usize,
        reversed: bool,
        scratch: &mut BatchScratch,
        hs: &mut Mat,
    ) {
        let h = self.d_h;
        assert!(batch > 0, "empty batch");
        assert_eq!(xs.rows() % batch, 0, "rows must be T·B");
        let t_max = xs.rows() / batch;
        hs.resize(xs.rows(), h);
        scratch.gates.resize(batch, 4 * h);
        scratch.c.resize(xs.rows(), h);
        scratch.tanh_c.resize(batch, h);
        scratch.zero.clear();
        scratch.zero.resize(h, 0.0);
        let w = store.p(self.w);
        let u = store.p(self.u);
        let bias = store.p(self.b);
        let mut prev_src = 0usize;
        for t in 0..t_max {
            let src = if reversed { t_max - 1 - t } else { t };
            // Z = X_t W^T (+ H_{t-1} U^T after the first step).
            tensor::gemm_nt(
                xs.rows_range(src * batch, (src + 1) * batch),
                batch,
                self.d_in,
                w,
                4 * h,
                scratch.gates.as_mut_slice(),
            );
            if t > 0 {
                tensor::gemm_nt_acc(
                    hs.rows_range(prev_src * batch, (prev_src + 1) * batch),
                    batch,
                    h,
                    u,
                    4 * h,
                    scratch.gates.as_mut_slice(),
                );
            }
            for b in 0..batch {
                let z = scratch.gates.row_mut(b);
                tensor::lstm_gates(z, bias, h);
                let (c_prev, c_t) = if t == 0 {
                    (&scratch.zero[..], scratch.c.row_mut(src * batch + b))
                } else {
                    scratch
                        .c
                        .row_pair_mut(prev_src * batch + b, src * batch + b)
                };
                tensor::lstm_state(
                    scratch.gates.row(b),
                    c_prev,
                    c_t,
                    scratch.tanh_c.row_mut(b),
                    hs.row_mut(src * batch + b),
                );
            }
            prev_src = src;
        }
    }
}

/// Reusable workspace for [`LstmCell::forward_batch`] (inference only — no
/// BPTT cache is kept).
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    gates: Mat,
    c: Mat,
    tanh_c: Mat,
    zero: Vec<f32>,
}

/// Bidirectional LSTM: forward and backward cells whose hidden states are
/// concatenated per timestep, `h_i = [h_i^F, h_i^B]` (paper §2.2).
#[derive(Debug, Clone, Copy)]
pub struct BiLstm {
    /// Forward-direction cell.
    pub fwd: LstmCell,
    /// Backward-direction cell.
    pub bwd: LstmCell,
}

/// Cache for the bidirectional pass.
#[derive(Debug, Clone, Default)]
pub struct BiLstmCache {
    fwd: LstmCache,
    bwd: LstmCache,
}

/// Reusable workspace for [`BiLstm::forward_batch`].
#[derive(Debug, Clone, Default)]
pub struct BiBatchScratch {
    fwd: BatchScratch,
    bwd: BatchScratch,
    hf: Mat,
    hb: Mat,
}

impl BiLstm {
    /// Allocate both directions.
    pub fn new(store: &mut ParamStore, d_in: usize, d_h: usize) -> Self {
        Self {
            fwd: LstmCell::new(store, d_in, d_h),
            bwd: LstmCell::new(store, d_in, d_h),
        }
    }

    /// Output dimension per timestep (`2 × d_h`).
    pub fn d_out(&self) -> usize {
        2 * self.fwd.d_h
    }

    /// Flat bidirectional forward: both directions walk the same `T × d_in`
    /// input (the reversed direction via index mapping — no reversed copy),
    /// and `hs_out` receives the concatenated `T × 2h` hidden states in
    /// original time order.
    pub fn forward_flat(
        &self,
        store: &ParamStore,
        xs: &Mat,
        cache: &mut BiLstmCache,
        hs_out: &mut Mat,
    ) {
        self.fwd.forward_flat(store, xs, false, &mut cache.fwd);
        self.bwd.forward_flat(store, xs, true, &mut cache.bwd);
        let n = xs.rows();
        let h = self.fwd.d_h;
        hs_out.resize(n, 2 * h);
        for t in 0..n {
            let row = hs_out.row_mut(t);
            row[..h].copy_from_slice(cache.fwd.hs.row(t));
            row[h..].copy_from_slice(cache.bwd.hs.row(n - 1 - t));
        }
    }

    /// Flat bidirectional backward: `dhs` is `T × 2h` in original order;
    /// input gradients accumulate into `dxs` (`T × d_in`, original order).
    pub fn backward_flat(
        &self,
        store: &mut ParamStore,
        cache: &mut BiLstmCache,
        dhs: &Mat,
        dxs: &mut Mat,
    ) {
        self.fwd.backward_flat(store, &mut cache.fwd, dhs, 0, dxs);
        self.bwd
            .backward_flat(store, &mut cache.bwd, dhs, self.fwd.d_h, dxs);
    }

    /// Batched bidirectional forward over `B` same-length sequences packed
    /// timestep-major; `hs_out` row `t·B + b` is the concatenated `2h`
    /// hidden state of sequence `b` at step `t`.
    pub fn forward_batch(
        &self,
        store: &ParamStore,
        xs: &Mat,
        batch: usize,
        scratch: &mut BiBatchScratch,
        hs_out: &mut Mat,
    ) {
        let h = self.fwd.d_h;
        self.fwd
            .forward_batch(store, xs, batch, false, &mut scratch.fwd, &mut scratch.hf);
        self.bwd
            .forward_batch(store, xs, batch, true, &mut scratch.bwd, &mut scratch.hb);
        hs_out.resize(xs.rows(), 2 * h);
        for r in 0..xs.rows() {
            let row = hs_out.row_mut(r);
            row[..h].copy_from_slice(scratch.hf.row(r));
            row[h..].copy_from_slice(scratch.hb.row(r));
        }
    }
}

// --- Legacy `Vec<Vec<f32>>` wrappers (kept for in-crate callers/tests and
// --- the document-RNN baseline; hot paths use the flat API above).

impl LstmCell {
    /// Run the cell over a sequence, returning hidden states and the cache.
    pub fn forward_seq(&self, store: &ParamStore, xs: &[Vec<f32>]) -> (Vec<Vec<f32>>, LstmCache) {
        let x = Mat::from_rows(xs);
        let mut cache = LstmCache::default();
        self.forward_flat(store, &x, false, &mut cache);
        (cache.hs.to_rows(), cache)
    }

    /// BPTT: given `dL/dh_t` for every step, accumulate parameter grads and
    /// return `dL/dx_t`.
    pub fn backward_seq(
        &self,
        store: &mut ParamStore,
        cache: &mut LstmCache,
        dhs: &[Vec<f32>],
    ) -> Vec<Vec<f32>> {
        let dm = Mat::from_rows(dhs);
        let mut dxs = Mat::zeros(dhs.len(), self.d_in);
        self.backward_flat(store, cache, &dm, 0, &mut dxs);
        dxs.to_rows()
    }
}

impl BiLstm {
    /// Forward over a sequence: concatenated hidden states per step.
    pub fn forward_seq(&self, store: &ParamStore, xs: &[Vec<f32>]) -> (Vec<Vec<f32>>, BiLstmCache) {
        let x = Mat::from_rows(xs);
        let mut cache = BiLstmCache::default();
        let mut hs = Mat::default();
        self.forward_flat(store, &x, &mut cache, &mut hs);
        (hs.to_rows(), cache)
    }

    /// Backward over the sequence given per-step grads of the concatenated
    /// hidden states.
    pub fn backward_seq(
        &self,
        store: &mut ParamStore,
        cache: &mut BiLstmCache,
        dhs: &[Vec<f32>],
    ) -> Vec<Vec<f32>> {
        let dm = Mat::from_rows(dhs);
        let mut dxs = Mat::zeros(dhs.len(), self.fwd.d_in);
        self.backward_flat(store, cache, &dm, &mut dxs);
        dxs.to_rows()
    }
}

#[cfg(test)]
mod tests {
    // Index loops are the clearest form for the element-by-element
    // batched-vs-sequential comparisons below.
    #![allow(clippy::needless_range_loop)]

    use super::*;
    use crate::testutil::num_grad;

    fn seq(seed: u64, n: usize, d: usize) -> Vec<Vec<f32>> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32 / 1000.0) - 1.0
        };
        (0..n).map(|_| (0..d).map(|_| unit()).collect()).collect()
    }

    /// Loss: sum of squares of all hidden states / 2.
    fn seq_loss_lstm(cell: &LstmCell, store: &ParamStore, xs: &[Vec<f32>]) -> f32 {
        let (hs, _) = cell.forward_seq(store, xs);
        hs.iter().flatten().map(|v| v * v).sum::<f32>() / 2.0
    }

    #[test]
    fn lstm_shapes_and_determinism() {
        let mut s = ParamStore::new(5);
        let cell = LstmCell::new(&mut s, 3, 4);
        let xs = seq(1, 6, 3);
        let (hs, _) = cell.forward_seq(&s, &xs);
        assert_eq!(hs.len(), 6);
        assert_eq!(hs[0].len(), 4);
        let (hs2, _) = cell.forward_seq(&s, &xs);
        assert_eq!(hs, hs2);
        // Hidden states are bounded by construction.
        assert!(hs.iter().flatten().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn lstm_matches_scalar_reference() {
        let mut s = ParamStore::new(11);
        let cell = LstmCell::new(&mut s, 3, 4);
        let xs = seq(6, 7, 3);
        let (hs, mut cache) = cell.forward_seq(&s, &xs);
        let (hs_ref, cache_ref) = crate::reference::lstm_forward_seq(&cell, &s, &xs);
        for (a, b) in hs.iter().flatten().zip(hs_ref.iter().flatten()) {
            assert!((a - b).abs() < 1e-5, "forward: {a} vs {b}");
        }
        // Gradients too: same upstream grads through both paths.
        let mut s2 = s.clone();
        s.zero_grad();
        s2.zero_grad();
        cell.backward_seq(&mut s, &mut cache, &hs);
        crate::reference::lstm_backward_seq(&cell, &mut s2, &cache_ref, &hs_ref);
        for (a, b) in s.g.iter().zip(&s2.g) {
            assert!((a - b).abs() < 1e-4, "grad: {a} vs {b}");
        }
    }

    #[test]
    fn lstm_gradcheck_weights() {
        let mut s = ParamStore::new(6);
        let cell = LstmCell::new(&mut s, 2, 3);
        let xs = seq(2, 4, 2);
        s.zero_grad();
        let (hs, mut cache) = cell.forward_seq(&s, &xs);
        let dhs: Vec<Vec<f32>> = hs.clone();
        cell.backward_seq(&mut s, &mut cache, &dhs);
        let loss = |st: &ParamStore| seq_loss_lstm(&cell, st, &xs);
        num_grad(&mut s, cell.w, loss, 0.05);
        num_grad(&mut s, cell.u, loss, 0.05);
        num_grad(&mut s, cell.b, loss, 0.05);
    }

    #[test]
    fn lstm_input_gradcheck() {
        let mut s = ParamStore::new(7);
        let cell = LstmCell::new(&mut s, 2, 3);
        let xs = seq(3, 3, 2);
        s.zero_grad();
        let (hs, mut cache) = cell.forward_seq(&s, &xs);
        let dxs = cell.backward_seq(&mut s, &mut cache, &hs);
        const EPS: f32 = 1e-2;
        for t in 0..xs.len() {
            for k in 0..2 {
                let mut xp = xs.clone();
                xp[t][k] += EPS;
                let lp = seq_loss_lstm(&cell, &s, &xp);
                xp[t][k] -= 2.0 * EPS;
                let lm = seq_loss_lstm(&cell, &s, &xp);
                let numeric = (lp - lm) / (2.0 * EPS);
                assert!(
                    (numeric - dxs[t][k]).abs() < 0.02,
                    "dx[{t}][{k}]: {numeric} vs {}",
                    dxs[t][k]
                );
            }
        }
    }

    #[test]
    fn bilstm_concatenates_directions() {
        let mut s = ParamStore::new(8);
        let bi = BiLstm::new(&mut s, 2, 3);
        let xs = seq(4, 5, 2);
        let (hs, _) = bi.forward_seq(&s, &xs);
        assert_eq!(hs.len(), 5);
        assert_eq!(hs[0].len(), 6);
        assert_eq!(bi.d_out(), 6);
        let rev: Vec<Vec<f32>> = xs.iter().rev().cloned().collect();
        let (hs_rev, _) = bi.forward_seq(&s, &rev);
        let n = xs.len();
        for t in 0..n {
            assert!(hs_rev[t].iter().all(|v| v.abs() <= 1.0));
            assert!(hs[t].iter().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    fn bilstm_matches_scalar_reference() {
        let mut s = ParamStore::new(12);
        let bi = BiLstm::new(&mut s, 3, 4);
        let xs = seq(9, 6, 3);
        let (hs, mut cache) = bi.forward_seq(&s, &xs);
        let (hs_ref, cache_ref) = crate::reference::bilstm_forward_seq(&bi, &s, &xs);
        for (a, b) in hs.iter().flatten().zip(hs_ref.iter().flatten()) {
            assert!((a - b).abs() < 1e-5, "forward: {a} vs {b}");
        }
        let mut s2 = s.clone();
        s.zero_grad();
        s2.zero_grad();
        let dx = bi.backward_seq(&mut s, &mut cache, &hs);
        let dx_ref = crate::reference::bilstm_backward_seq(&bi, &mut s2, &cache_ref, &hs_ref);
        for (a, b) in s.g.iter().zip(&s2.g) {
            assert!((a - b).abs() < 1e-4, "grad: {a} vs {b}");
        }
        for (a, b) in dx.iter().flatten().zip(dx_ref.iter().flatten()) {
            assert!((a - b).abs() < 1e-4, "dx: {a} vs {b}");
        }
    }

    #[test]
    fn bilstm_gradcheck() {
        let mut s = ParamStore::new(9);
        let bi = BiLstm::new(&mut s, 2, 2);
        let xs = seq(5, 3, 2);
        let loss = |st: &ParamStore| -> f32 {
            let (hs, _) = bi.forward_seq(st, &xs);
            hs.iter().flatten().map(|v| v * v).sum::<f32>() / 2.0
        };
        s.zero_grad();
        let (hs, mut cache) = bi.forward_seq(&s, &xs);
        bi.backward_seq(&mut s, &mut cache, &hs);
        num_grad(&mut s, bi.fwd.w, loss, 0.05);
        num_grad(&mut s, bi.bwd.w, loss, 0.05);
        num_grad(&mut s, bi.fwd.u, loss, 0.05);
        num_grad(&mut s, bi.bwd.b, loss, 0.05);
    }

    #[test]
    fn batched_forward_matches_sequential() {
        let mut s = ParamStore::new(13);
        let bi = BiLstm::new(&mut s, 3, 4);
        // A bucket of 3 sequences of length 5, packed timestep-major.
        let seqs: Vec<Vec<Vec<f32>>> = (0..3).map(|b| seq(20 + b, 5, 3)).collect();
        let (t_max, batch) = (5usize, 3usize);
        let mut xs = Mat::zeros(t_max * batch, 3);
        for (b, sq) in seqs.iter().enumerate() {
            for (t, x) in sq.iter().enumerate() {
                xs.row_mut(t * batch + b).copy_from_slice(x);
            }
        }
        let mut scratch = BiBatchScratch::default();
        let mut hs_b = Mat::default();
        bi.forward_batch(&s, &xs, batch, &mut scratch, &mut hs_b);
        for (b, sq) in seqs.iter().enumerate() {
            let (hs_s, _) = bi.forward_seq(&s, sq);
            for t in 0..t_max {
                for k in 0..bi.d_out() {
                    let batched = hs_b.row(t * batch + b)[k];
                    let sequential = hs_s[t][k];
                    assert!(
                        (batched - sequential).abs() < 1e-6,
                        "seq {b} t {t} k {k}: {batched} vs {sequential}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_forward_matches_sequential_over_ragged_buckets() {
        // Ragged sequence lengths (1, 2, 3, 5, 8 — including repeats) are
        // grouped into per-length buckets the way batched inference does;
        // every bucket must reproduce the sequential hidden states.
        let mut s = ParamStore::new(15);
        let bi = BiLstm::new(&mut s, 3, 4);
        let lens = [1usize, 2, 3, 3, 5, 5, 5, 8, 1, 2];
        let seqs: Vec<Vec<Vec<f32>>> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| seq(40 + i as u64, l, 3))
            .collect();
        let mut buckets: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, &l) in lens.iter().enumerate() {
            buckets.entry(l).or_default().push(i);
        }
        let mut scratch = BiBatchScratch::default();
        let mut hs_b = Mat::default();
        let mut xs = Mat::default();
        for (&len, members) in &buckets {
            let batch = members.len();
            xs.resize(len * batch, 3);
            for (b, &si) in members.iter().enumerate() {
                for (t, x) in seqs[si].iter().enumerate() {
                    xs.row_mut(t * batch + b).copy_from_slice(x);
                }
            }
            bi.forward_batch(&s, &xs, batch, &mut scratch, &mut hs_b);
            for (b, &si) in members.iter().enumerate() {
                let (hs_s, _) = bi.forward_seq(&s, &seqs[si]);
                for t in 0..len {
                    for k in 0..bi.d_out() {
                        assert!(
                            (hs_b.row(t * batch + b)[k] - hs_s[t][k]).abs() < 1e-6,
                            "len {len} member {b} t {t} k {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_forward_single_sequence_degenerates() {
        let mut s = ParamStore::new(14);
        let bi = BiLstm::new(&mut s, 2, 3);
        let sq = seq(31, 4, 2);
        let xs = Mat::from_rows(&sq);
        let mut scratch = BiBatchScratch::default();
        let mut hs_b = Mat::default();
        bi.forward_batch(&s, &xs, 1, &mut scratch, &mut hs_b);
        let (hs_s, _) = bi.forward_seq(&s, &sq);
        for t in 0..sq.len() {
            for k in 0..bi.d_out() {
                assert!((hs_b.row(t)[k] - hs_s[t][k]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn empty_sequence() {
        let mut s = ParamStore::new(10);
        let cell = LstmCell::new(&mut s, 2, 3);
        let (hs, mut cache) = cell.forward_seq(&s, &[]);
        assert!(hs.is_empty());
        let dxs = cell.backward_seq(&mut s, &mut cache, &[]);
        assert!(dxs.is_empty());
    }
}
