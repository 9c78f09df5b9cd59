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
//! One execution shape serves training, inference and the document-level
//! RNN: [`LstmCell::forward_flat`] and [`LstmCell::backward_flat`] run one
//! sequence, with all activations and BPTT scratch in a reused
//! [`LstmCache`] — zero allocations in steady state, gate math through the
//! fused `fonduer-tensor` kernels. The reversed direction of a [`BiLstm`]
//! runs over the *same* input matrix with an index mapping instead of a
//! reversed copy.
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
}

#[cfg(test)]
mod tests {
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

    /// One cell forward over `xs` (`T × d_in`); the hidden states are the
    /// cache's `hs`.
    fn cell_forward(cell: &LstmCell, store: &ParamStore, xs: &Mat) -> LstmCache {
        let mut cache = LstmCache::default();
        cell.forward_flat(store, xs, false, &mut cache);
        cache
    }

    /// BPTT of `dhs` through one cell, returning `dL/dx`.
    fn cell_backward(
        cell: &LstmCell,
        store: &mut ParamStore,
        cache: &mut LstmCache,
        dhs: &Mat,
    ) -> Mat {
        let mut dxs = Mat::zeros(dhs.rows(), cell.d_in);
        cell.backward_flat(store, cache, dhs, 0, &mut dxs);
        dxs
    }

    /// Bidirectional forward over `xs`: the concatenated hidden states and
    /// the cache.
    fn bi_forward(bi: &BiLstm, store: &ParamStore, xs: &Mat) -> (Mat, BiLstmCache) {
        let mut cache = BiLstmCache::default();
        let mut hs = Mat::default();
        bi.forward_flat(store, xs, &mut cache, &mut hs);
        (hs, cache)
    }

    /// Sum of squares over a matrix, halved: the tests' loss, so that
    /// `dL/dh = h`.
    fn half_sq(m: &Mat) -> f32 {
        m.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
    }

    /// Loss: sum of squares of all hidden states / 2.
    fn seq_loss_lstm(cell: &LstmCell, store: &ParamStore, xs: &Mat) -> f32 {
        half_sq(&cell_forward(cell, store, xs).hs)
    }

    #[test]
    fn lstm_shapes_and_determinism() {
        let mut s = ParamStore::new(5);
        let cell = LstmCell::new(&mut s, 3, 4);
        let xs = Mat::from_rows(&seq(1, 6, 3));
        let hs = cell_forward(&cell, &s, &xs).hs;
        assert_eq!(hs.rows(), 6);
        assert_eq!(hs.cols(), 4);
        let hs2 = cell_forward(&cell, &s, &xs).hs;
        assert_eq!(hs.as_slice(), hs2.as_slice());
        // Hidden states are bounded by construction.
        assert!(hs.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn lstm_matches_scalar_reference() {
        let mut s = ParamStore::new(11);
        let cell = LstmCell::new(&mut s, 3, 4);
        let xs = seq(6, 7, 3);
        let mut cache = cell_forward(&cell, &s, &Mat::from_rows(&xs));
        let hs = cache.hs.clone();
        let (hs_ref, cache_ref) = crate::reference::lstm_forward_seq(&cell, &s, &xs);
        for (a, b) in hs.as_slice().iter().zip(hs_ref.iter().flatten()) {
            assert!((a - b).abs() < 1e-5, "forward: {a} vs {b}");
        }
        // Gradients too: same upstream grads through both paths.
        let mut s2 = s.clone();
        s.zero_grad();
        s2.zero_grad();
        cell_backward(&cell, &mut s, &mut cache, &hs);
        crate::reference::lstm_backward_seq(&cell, &mut s2, &cache_ref, &hs_ref);
        for (a, b) in s.g.iter().zip(&s2.g) {
            assert!((a - b).abs() < 1e-4, "grad: {a} vs {b}");
        }
    }

    #[test]
    fn lstm_gradcheck_weights() {
        let mut s = ParamStore::new(6);
        let cell = LstmCell::new(&mut s, 2, 3);
        let xs = Mat::from_rows(&seq(2, 4, 2));
        s.zero_grad();
        let mut cache = cell_forward(&cell, &s, &xs);
        let dhs = cache.hs.clone();
        cell_backward(&cell, &mut s, &mut cache, &dhs);
        let loss = |st: &ParamStore| seq_loss_lstm(&cell, st, &xs);
        num_grad(&mut s, cell.w, loss, 0.05);
        num_grad(&mut s, cell.u, loss, 0.05);
        num_grad(&mut s, cell.b, loss, 0.05);
    }

    #[test]
    fn lstm_input_gradcheck() {
        let mut s = ParamStore::new(7);
        let cell = LstmCell::new(&mut s, 2, 3);
        let xs = Mat::from_rows(&seq(3, 3, 2));
        s.zero_grad();
        let mut cache = cell_forward(&cell, &s, &xs);
        let dhs = cache.hs.clone();
        let dxs = cell_backward(&cell, &mut s, &mut cache, &dhs);
        const EPS: f32 = 1e-2;
        for t in 0..xs.rows() {
            for k in 0..2 {
                let mut xp = xs.clone();
                xp.row_mut(t)[k] += EPS;
                let lp = seq_loss_lstm(&cell, &s, &xp);
                xp.row_mut(t)[k] -= 2.0 * EPS;
                let lm = seq_loss_lstm(&cell, &s, &xp);
                let numeric = (lp - lm) / (2.0 * EPS);
                assert!(
                    (numeric - dxs.row(t)[k]).abs() < 0.02,
                    "dx[{t}][{k}]: {numeric} vs {}",
                    dxs.row(t)[k]
                );
            }
        }
    }

    #[test]
    fn bilstm_concatenates_directions() {
        let mut s = ParamStore::new(8);
        let bi = BiLstm::new(&mut s, 2, 3);
        let xs = seq(4, 5, 2);
        let (hs, _) = bi_forward(&bi, &s, &Mat::from_rows(&xs));
        assert_eq!(hs.rows(), 5);
        assert_eq!(hs.cols(), 6);
        assert_eq!(bi.d_out(), 6);
        let rev: Vec<Vec<f32>> = xs.iter().rev().cloned().collect();
        let (hs_rev, _) = bi_forward(&bi, &s, &Mat::from_rows(&rev));
        assert!(hs_rev.as_slice().iter().all(|v| v.abs() <= 1.0));
        assert!(hs.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn bilstm_matches_scalar_reference() {
        let mut s = ParamStore::new(12);
        let bi = BiLstm::new(&mut s, 3, 4);
        let xs = seq(9, 6, 3);
        let (hs, mut cache) = bi_forward(&bi, &s, &Mat::from_rows(&xs));
        let (hs_ref, cache_ref) = crate::reference::bilstm_forward_seq(&bi, &s, &xs);
        for (a, b) in hs.as_slice().iter().zip(hs_ref.iter().flatten()) {
            assert!((a - b).abs() < 1e-5, "forward: {a} vs {b}");
        }
        let mut s2 = s.clone();
        s.zero_grad();
        s2.zero_grad();
        let mut dx = Mat::zeros(xs.len(), 3);
        bi.backward_flat(&mut s, &mut cache, &hs, &mut dx);
        let dx_ref = crate::reference::bilstm_backward_seq(&bi, &mut s2, &cache_ref, &hs_ref);
        for (a, b) in s.g.iter().zip(&s2.g) {
            assert!((a - b).abs() < 1e-4, "grad: {a} vs {b}");
        }
        for (a, b) in dx.as_slice().iter().zip(dx_ref.iter().flatten()) {
            assert!((a - b).abs() < 1e-4, "dx: {a} vs {b}");
        }
    }

    #[test]
    fn bilstm_gradcheck() {
        let mut s = ParamStore::new(9);
        let bi = BiLstm::new(&mut s, 2, 2);
        let xs = Mat::from_rows(&seq(5, 3, 2));
        let loss = |st: &ParamStore| -> f32 { half_sq(&bi_forward(&bi, st, &xs).0) };
        s.zero_grad();
        let (hs, mut cache) = bi_forward(&bi, &s, &xs);
        let mut dx = Mat::zeros(xs.rows(), 2);
        bi.backward_flat(&mut s, &mut cache, &hs, &mut dx);
        num_grad(&mut s, bi.fwd.w, loss, 0.05);
        num_grad(&mut s, bi.bwd.w, loss, 0.05);
        num_grad(&mut s, bi.fwd.u, loss, 0.05);
        num_grad(&mut s, bi.bwd.b, loss, 0.05);
    }

    #[test]
    fn empty_sequence() {
        let mut s = ParamStore::new(10);
        let cell = LstmCell::new(&mut s, 2, 3);
        let mut cache = cell_forward(&cell, &s, &Mat::zeros(0, 2));
        assert!(cache.hs.is_empty());
        let dxs = cell_backward(&cell, &mut s, &mut cache, &Mat::zeros(0, 3));
        assert!(dxs.is_empty());
    }
}
