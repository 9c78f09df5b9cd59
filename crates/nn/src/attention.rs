//! Word attention (paper §4.2):
//!
//! ```text
//! u_k = tanh(W_w h_k + b_w)
//! α_k = exp(u_k · u_w) / Σ_j exp(u_j · u_w)
//! t   = Σ_j α_j u_j
//! ```
//!
//! A soft word-selection conditioned on a learned context vector `u_w`,
//! letting the network "pay more attention to the subsets of the input
//! sequence where the most relevant information is concentrated" (§2.2).
//!
//! The hot path operates on flat `n × d` [`Mat`] activations: the
//! projection of all hidden states is one `gemm_nt`, the scores one `gemv`
//! against the context vector, and the softmax/pool fused slice kernels —
//! with the cache matrices reused across calls. The pre-rewrite scalar
//! formulation lives in [`crate::reference`].

use crate::layers::Linear;
use crate::store::{ParamId, ParamStore};
use fonduer_tensor::{self as tensor, Mat};

/// Attention pooling layer.
#[derive(Debug, Clone, Copy)]
pub struct Attention {
    /// Projection `W_w, b_w`.
    pub proj: Linear,
    /// Context vector `u_w`.
    pub context: ParamId,
    /// Attention dimension.
    pub d_attn: usize,
}

/// Cache for the backward pass. Callers keep the hidden states themselves
/// and pass them back to [`Attention::backward_flat`]. The backward scratch
/// keeps its capacity, so a reused cache is allocation-free in steady
/// state.
#[derive(Debug, Clone, Default)]
pub struct AttentionCache {
    us: Mat,
    alphas: Vec<f32>,
    /// Backward scratch: `dL/dα` (`n`).
    dalpha: Vec<f32>,
    /// Backward scratch: grad of the context vector (`d_attn`).
    d_uw: Vec<f32>,
    /// Backward scratch: grad of one projected state (`d_attn`).
    du: Vec<f32>,
}

impl Attention {
    /// Allocate an attention layer over `d_in`-dim hidden states with a
    /// `d_attn`-dim projection.
    pub fn new(store: &mut ParamStore, d_in: usize, d_attn: usize) -> Self {
        Self {
            proj: Linear::new(store, d_in, d_attn),
            context: store.alloc(d_attn, 1),
            d_attn,
        }
    }

    /// Pool an `n × d_in` matrix of hidden states into `t_out`
    /// (length `d_attn`), reusing `cache`. Empty input pools to zero.
    pub fn forward_flat(
        &self,
        store: &ParamStore,
        hs: &Mat,
        cache: &mut AttentionCache,
        t_out: &mut [f32],
    ) {
        debug_assert_eq!(t_out.len(), self.d_attn);
        let n = hs.rows();
        cache.us.resize(n, self.d_attn);
        cache.alphas.clear();
        t_out.fill(0.0);
        if n == 0 {
            return;
        }
        // u_k = tanh(W_w h_k + b_w) for all k at once.
        tensor::gemm_nt(
            hs.as_slice(),
            n,
            self.proj.d_in,
            store.p(self.proj.w),
            self.d_attn,
            cache.us.as_mut_slice(),
        );
        let b = store.p(self.proj.b);
        for j in 0..n {
            tensor::add(b, cache.us.row_mut(j));
        }
        tensor::tanh_slice(cache.us.as_mut_slice());
        // α = softmax(U u_w); t = Σ α_j u_j.
        cache.alphas.resize(n, 0.0);
        tensor::gemv(
            cache.us.as_slice(),
            n,
            self.d_attn,
            store.p(self.context),
            &mut cache.alphas,
        );
        tensor::softmax_inplace(&mut cache.alphas);
        for j in 0..n {
            tensor::axpy(cache.alphas[j], cache.us.row(j), t_out);
        }
    }

    /// Backward through the flat pass: given `dL/dt`, accumulate parameter
    /// grads and `+=` the hidden-state grads into `dhs` (`n × d_in`). `hs`
    /// must be the matrix given to [`Attention::forward_flat`].
    pub fn backward_flat(
        &self,
        store: &mut ParamStore,
        hs: &Mat,
        cache: &mut AttentionCache,
        dt: &[f32],
        dhs: &mut Mat,
    ) {
        let n = cache.us.rows();
        if n == 0 {
            return;
        }
        debug_assert_eq!(hs.rows(), n);
        debug_assert_eq!(dhs.rows(), n);
        let AttentionCache {
            us,
            alphas,
            dalpha,
            d_uw,
            du,
        } = cache;
        // t = Σ α_j u_j ; scores s_j = u_j · u_w ; α = softmax(s).
        // dL/du_j = α_j dt + (dL/ds_j) u_w ;  dL/dα_j = dt · u_j.
        dalpha.clear();
        dalpha.extend((0..n).map(|j| tensor::dot(dt, us.row(j))));
        // Softmax backward: ds_j = α_j (dα_j - Σ_k α_k dα_k).
        let weighted = tensor::dot(alphas, dalpha);
        d_uw.clear();
        d_uw.resize(self.d_attn, 0.0);
        du.clear();
        du.resize(self.d_attn, 0.0);
        for (j, &da_j) in dalpha.iter().enumerate() {
            let ds_j = alphas[j] * (da_j - weighted);
            let u_j = us.row(j);
            tensor::axpy(ds_j, u_j, d_uw);
            let uw = store.p(self.context);
            for k in 0..self.d_attn {
                // Through tanh: du ∘ (1 − u²).
                du[k] = (alphas[j] * dt[k] + ds_j * uw[k]) * (1.0 - u_j[k] * u_j[k]);
            }
            self.proj.backward_acc(store, hs.row(j), du, dhs.row_mut(j));
        }
        tensor::add(d_uw, store.grad_mut(self.context));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::num_grad;

    fn hs(seed: u64, n: usize, d: usize) -> Vec<Vec<f32>> {
        let mut state = seed | 1;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32 / 1000.0) - 1.0
        };
        (0..n).map(|_| (0..d).map(|_| unit()).collect()).collect()
    }

    /// Pool `input` (`n × d_in`) into a fresh vector, filling `cache`.
    fn pool(att: &Attention, s: &ParamStore, input: &Mat, cache: &mut AttentionCache) -> Vec<f32> {
        let mut t = vec![0.0; att.d_attn];
        att.forward_flat(s, input, cache, &mut t);
        t
    }

    /// Backward of `dt` through the pass that filled `cache`, returning
    /// `dL/dh`.
    fn unpool(
        att: &Attention,
        s: &mut ParamStore,
        input: &Mat,
        cache: &mut AttentionCache,
        dt: &[f32],
    ) -> Mat {
        let mut dhs = Mat::zeros(input.rows(), att.proj.d_in);
        att.backward_flat(s, input, cache, dt, &mut dhs);
        dhs
    }

    /// Loss: sum of squares of the pooled vector / 2.
    fn pooled_loss(att: &Attention, s: &ParamStore, input: &Mat) -> f32 {
        let t = pool(att, s, input, &mut AttentionCache::default());
        t.iter().map(|v| v * v).sum::<f32>() / 2.0
    }

    #[test]
    fn alphas_form_distribution() {
        let mut s = ParamStore::new(1);
        let att = Attention::new(&mut s, 4, 3);
        let mut cache = AttentionCache::default();
        let t = pool(&att, &s, &Mat::from_rows(&hs(1, 5, 4)), &mut cache);
        assert_eq!(t.len(), 3);
        let sum: f32 = cache.alphas.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(cache.alphas.iter().all(|&a| a > 0.0));
    }

    #[test]
    fn empty_sequence_pools_to_zero() {
        let mut s = ParamStore::new(2);
        let att = Attention::new(&mut s, 4, 3);
        let input = Mat::zeros(0, 4);
        let mut cache = AttentionCache::default();
        let t = pool(&att, &s, &input, &mut cache);
        assert_eq!(t, vec![0.0; 3]);
        assert!(unpool(&att, &mut s, &input, &mut cache, &[1.0, 1.0, 1.0]).is_empty());
    }

    #[test]
    fn matches_scalar_reference() {
        let mut s = ParamStore::new(5);
        let att = Attention::new(&mut s, 4, 3);
        let input = hs(9, 6, 4);
        let hm = Mat::from_rows(&input);
        let mut cache = AttentionCache::default();
        let t = pool(&att, &s, &hm, &mut cache);
        let (t_ref, cache_ref) = crate::reference::attention_forward(&att, &s, &input);
        for (a, b) in t.iter().zip(&t_ref) {
            assert!((a - b).abs() < 1e-5, "pooled: {a} vs {b}");
        }
        let mut s2 = s.clone();
        s.zero_grad();
        s2.zero_grad();
        let dhs = unpool(&att, &mut s, &hm, &mut cache, &t);
        let dhs_ref = crate::reference::attention_backward(&att, &mut s2, &cache_ref, &t_ref);
        for (a, b) in s.g.iter().zip(&s2.g) {
            assert!((a - b).abs() < 1e-4, "grad: {a} vs {b}");
        }
        for (a, b) in dhs.as_slice().iter().zip(dhs_ref.iter().flatten()) {
            assert!((a - b).abs() < 1e-4, "dh: {a} vs {b}");
        }
    }

    #[test]
    fn attention_gradcheck() {
        let mut s = ParamStore::new(3);
        let att = Attention::new(&mut s, 3, 2);
        let input = Mat::from_rows(&hs(7, 4, 3));
        let loss = |st: &ParamStore| pooled_loss(&att, st, &input);
        s.zero_grad();
        let mut cache = AttentionCache::default();
        let t = pool(&att, &s, &input, &mut cache);
        let dhs = unpool(&att, &mut s, &input, &mut cache, &t);
        num_grad(&mut s, att.proj.w, loss, 0.05);
        num_grad(&mut s, att.proj.b, loss, 0.05);
        num_grad(&mut s, att.context, loss, 0.05);
        // Input gradient check.
        const EPS: f32 = 1e-2;
        for j in 0..input.rows() {
            for k in 0..3 {
                let mut ip = input.clone();
                ip.row_mut(j)[k] += EPS;
                let lp = pooled_loss(&att, &s, &ip);
                ip.row_mut(j)[k] -= 2.0 * EPS;
                let lm = pooled_loss(&att, &s, &ip);
                let numeric = (lp - lm) / (2.0 * EPS);
                assert!(
                    (numeric - dhs.row(j)[k]).abs() < 0.02,
                    "dh[{j}][{k}]: {numeric} vs {}",
                    dhs.row(j)[k]
                );
            }
        }
    }

    #[test]
    fn attends_to_aligned_state() {
        // With the context vector equal to a basis direction, the hidden
        // state whose projection aligns most gets the largest alpha.
        let mut s = ParamStore::new(4);
        let att = Attention::new(&mut s, 2, 2);
        // Identity-ish projection.
        s.p_mut(att.proj.w).copy_from_slice(&[2.0, 0.0, 0.0, 2.0]);
        s.p_mut(att.proj.b).copy_from_slice(&[0.0, 0.0]);
        s.p_mut(att.context).copy_from_slice(&[1.0, 0.0]);
        let input = Mat::from_slice(3, 2, &[1.0, 0.0, -1.0, 0.0, 0.1, 0.0]);
        let mut cache = AttentionCache::default();
        pool(&att, &s, &input, &mut cache);
        assert!(cache.alphas[0] > cache.alphas[2]);
        assert!(cache.alphas[2] > cache.alphas[1]);
    }
}
