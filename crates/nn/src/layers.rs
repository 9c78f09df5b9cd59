//! Linear and embedding layers.

use crate::store::{ParamId, ParamStore};
use fonduer_tensor::{self as tensor, Mat};

/// Fully connected layer `y = W x + b`.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    /// Weight matrix (`out × in`).
    pub w: ParamId,
    /// Bias vector (`out`).
    pub b: ParamId,
    /// Input dimension.
    pub d_in: usize,
    /// Output dimension.
    pub d_out: usize,
}

impl Linear {
    /// Allocate a linear layer in `store`.
    pub fn new(store: &mut ParamStore, d_in: usize, d_out: usize) -> Self {
        Self {
            w: store.alloc(d_out, d_in),
            b: store.alloc_zeros(d_out, 1),
            d_in,
            d_out,
        }
    }

    /// Forward pass into a caller-provided buffer (allocation-free).
    pub fn forward_into(&self, store: &ParamStore, x: &[f32], y: &mut [f32]) {
        tensor::gemv(store.p(self.w), self.d_out, self.d_in, x, y);
        tensor::add(store.p(self.b), y);
    }

    /// Backward pass accumulating `dL/dx` into `dx` (`+=`), parameter
    /// grads into the store. The weight values and gradients are
    /// split-borrowed — no copy.
    pub fn backward_acc(&self, store: &mut ParamStore, x: &[f32], dy: &[f32], dx: &mut [f32]) {
        {
            let (w_vals, dw) = store.p_grad_mut(self.w);
            tensor::outer_acc(dy, x, dw);
            tensor::gemv_t_acc(w_vals, self.d_out, self.d_in, dy, dx);
        }
        tensor::add(dy, store.grad_mut(self.b));
    }
}

/// Trainable embedding table.
#[derive(Debug, Clone, Copy)]
pub struct Embedding {
    /// Table (`vocab × dim`).
    pub table: ParamId,
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding dimension.
    pub dim: usize,
}

impl Embedding {
    /// Allocate an embedding table.
    pub fn new(store: &mut ParamStore, vocab: usize, dim: usize) -> Self {
        Self {
            table: store.alloc(vocab, dim),
            vocab,
            dim,
        }
    }

    /// Gather the rows for a token sequence into a reused `T × dim` matrix.
    pub fn gather_rows(&self, store: &ParamStore, toks: &[u32], out: &mut Mat) {
        out.resize(toks.len(), self.dim);
        let table = store.p(self.table);
        for (t, &tok) in toks.iter().enumerate() {
            let idx = tok as usize;
            debug_assert!(idx < self.vocab);
            out.row_mut(t)
                .copy_from_slice(&table[idx * self.dim..(idx + 1) * self.dim]);
        }
    }

    /// Scatter-accumulate per-token gradients (`T × dim`) back into the
    /// table.
    pub fn scatter_grad(&self, store: &mut ParamStore, toks: &[u32], d: &Mat) {
        debug_assert_eq!(d.rows(), toks.len());
        let g = store.grad_mut(self.table);
        for (t, &tok) in toks.iter().enumerate() {
            let idx = tok as usize;
            tensor::add(d.row(t), &mut g[idx * self.dim..(idx + 1) * self.dim]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::num_grad;

    /// `y = W x + b` into a fresh vector.
    fn forward(l: &Linear, s: &ParamStore, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0; l.d_out];
        l.forward_into(s, x, &mut y);
        y
    }

    #[test]
    fn linear_forward_known_values() {
        let mut s = ParamStore::new(1);
        let l = Linear::new(&mut s, 2, 2);
        s.p_mut(l.w).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        s.p_mut(l.b).copy_from_slice(&[0.5, -0.5]);
        let y = forward(&l, &s, &[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn linear_gradcheck() {
        let mut s = ParamStore::new(3);
        let l = Linear::new(&mut s, 3, 2);
        let x = vec![0.3, -0.7, 1.1];
        // Loss = sum(y^2)/2 so dL/dy = y.
        let loss = |s: &ParamStore| -> f32 {
            let y = forward(&l, s, &x);
            y.iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        s.zero_grad();
        let y = forward(&l, &s, &x);
        let mut dx = vec![0.0; l.d_in];
        l.backward_acc(&mut s, &x, &y, &mut dx);
        num_grad(&mut s, l.w, loss, 1e-3);
        num_grad(&mut s, l.b, loss, 1e-3);
        // Also check dx numerically.
        let mut xp = x.clone();
        for i in 0..x.len() {
            let eps = 1e-3;
            xp[i] = x[i] + eps;
            let yp: f32 = forward(&l, &s, &xp).iter().map(|v| v * v).sum::<f32>() / 2.0;
            xp[i] = x[i] - eps;
            let ym: f32 = forward(&l, &s, &xp).iter().map(|v| v * v).sum::<f32>() / 2.0;
            xp[i] = x[i];
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (num - dx[i]).abs() < 1e-2,
                "dx[{i}]: num {num} ana {}",
                dx[i]
            );
        }
    }

    #[test]
    fn embedding_lookup_and_grad() {
        let mut s = ParamStore::new(2);
        let e = Embedding::new(&mut s, 10, 4);
        let mut rows = Mat::default();
        e.gather_rows(&s, &[3, 3], &mut rows);
        assert_eq!((rows.rows(), rows.cols()), (2, 4));
        assert_eq!(rows.row(0), &s.p(e.table)[12..16]);
        assert_eq!(rows.row(1), rows.row(0));
        s.zero_grad();
        let d = Mat::from_slice(2, 4, &[1.0, 2.0, 3.0, 4.0, 1.0, 0.0, 0.0, 0.0]);
        e.scatter_grad(&mut s, &[3, 3], &d);
        assert_eq!(&s.grad(e.table)[12..16], &[2.0, 2.0, 3.0, 4.0]);
        assert!(s.grad(e.table)[..12].iter().all(|&x| x == 0.0));
    }
}
