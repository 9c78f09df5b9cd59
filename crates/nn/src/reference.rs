//! Frozen scalar baseline of the training stack.
//!
//! This module preserves, verbatim in structure and arithmetic, the
//! `Vec<Vec<f32>>` implementations that `lstm`/`attention`/`layers` used
//! before the flat-kernel rewrite: single-accumulator dot products, `std`
//! transcendentals, per-timestep allocations. It exists for two reasons:
//!
//! 1. **Golden parity.** The fast paths are asserted (in this crate's
//!    tests and in `fonduer-learning`'s golden-parity suite) to reproduce
//!    these results to within 1e-5 on losses, predictions, and gradients.
//! 2. **Honest benchmarking.** `learning/train_epoch/scalar_reference`
//!    times this path against the flat one on identical workloads.
//!
//! Do not optimize this module; it is the ground truth the optimization is
//! measured against.

use crate::attention::Attention;
use crate::layers::{Embedding, Linear};
use crate::lstm::{BiLstm, LstmCell};
use crate::store::ParamStore;

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Backward through tanh given the *output* `y = tanh(x)`.
fn tanh_backward(y: &[f32], dy: &[f32]) -> Vec<f32> {
    y.iter().zip(dy).map(|(&t, &d)| d * (1.0 - t * t)).collect()
}

/// Scalar embedding lookup of one row (the flat path gathers a whole
/// sequence with `Embedding::gather_rows`).
pub fn embedding_forward(emb: &Embedding, store: &ParamStore, idx: usize) -> Vec<f32> {
    debug_assert!(idx < emb.vocab);
    store.p(emb.table)[idx * emb.dim..(idx + 1) * emb.dim].to_vec()
}

/// Accumulate the gradient of one looked-up row (the flat path is
/// `Embedding::scatter_grad`).
pub fn embedding_backward(emb: &Embedding, store: &mut ParamStore, idx: usize, dy: &[f32]) {
    let g = &mut store.grad_mut(emb.table)[idx * emb.dim..(idx + 1) * emb.dim];
    for (gi, d) in g.iter_mut().zip(dy) {
        *gi += d;
    }
}

/// Scalar `y = W x` (original `store::matvec`).
pub fn matvec(w: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(x.len(), cols);
    debug_assert_eq!(y.len(), rows);
    for r in 0..rows {
        let row = &w[r * cols..(r + 1) * cols];
        let mut acc = 0.0f32;
        for (a, b) in row.iter().zip(x) {
            acc += a * b;
        }
        y[r] = acc;
    }
}

/// Scalar transpose/outer backward (original `store::matvec_backward`).
pub fn matvec_backward(
    w: &[f32],
    rows: usize,
    cols: usize,
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    dx: &mut [f32],
) {
    for r in 0..rows {
        let d = dy[r];
        if d == 0.0 {
            continue;
        }
        let row = &w[r * cols..(r + 1) * cols];
        let drow = &mut dw[r * cols..(r + 1) * cols];
        for c in 0..cols {
            drow[c] += d * x[c];
            dx[c] += d * row[c];
        }
    }
}

/// Scalar `Linear` forward (the flat path is `Linear::forward_into`).
pub fn linear_forward(l: &Linear, store: &ParamStore, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0; l.d_out];
    matvec(store.p(l.w), l.d_out, l.d_in, x, &mut y);
    for (yi, bi) in y.iter_mut().zip(store.p(l.b)) {
        *yi += bi;
    }
    y
}

/// Scalar `Linear` backward, returning `dL/dx` (copies the weights, as the
/// original did; the flat path is `Linear::backward_acc`).
pub fn linear_backward(l: &Linear, store: &mut ParamStore, x: &[f32], dy: &[f32]) -> Vec<f32> {
    let mut dx = vec![0.0; l.d_in];
    {
        let w_vals = store.p(l.w).to_vec();
        let dw = store.grad_mut(l.w);
        matvec_backward(&w_vals, l.d_out, l.d_in, x, dy, dw, &mut dx);
    }
    for (db, d) in store.grad_mut(l.b).iter_mut().zip(dy) {
        *db += d;
    }
    dx
}

/// Per-timestep cache of the scalar LSTM (original `StepCache`).
#[derive(Debug, Clone)]
pub struct StepCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    o: Vec<f32>,
    g: Vec<f32>,
    tanh_c: Vec<f32>,
}

/// Sequence cache of the scalar LSTM forward pass.
#[derive(Debug, Clone, Default)]
pub struct LstmCache {
    steps: Vec<StepCache>,
}

/// Scalar `LstmCell` forward over one sequence (the flat path is
/// `LstmCell::forward_flat`): per-step `Vec` allocations, `std`
/// sigmoid/tanh.
pub fn lstm_forward_seq(
    cell: &LstmCell,
    store: &ParamStore,
    xs: &[Vec<f32>],
) -> (Vec<Vec<f32>>, LstmCache) {
    let h = cell.d_h;
    let mut hs = Vec::with_capacity(xs.len());
    let mut cache = LstmCache {
        steps: Vec::with_capacity(xs.len()),
    };
    let mut h_prev = vec![0.0; h];
    let mut c_prev = vec![0.0; h];
    let mut z = vec![0.0; 4 * h];
    let mut z2 = vec![0.0; 4 * h];
    for x in xs {
        matvec(store.p(cell.w), 4 * h, cell.d_in, x, &mut z);
        matvec(store.p(cell.u), 4 * h, h, &h_prev, &mut z2);
        let b = store.p(cell.b);
        let mut i_g = vec![0.0; h];
        let mut f_g = vec![0.0; h];
        let mut o_g = vec![0.0; h];
        let mut g_g = vec![0.0; h];
        for k in 0..h {
            i_g[k] = sigmoid(z[k] + z2[k] + b[k]);
            f_g[k] = sigmoid(z[h + k] + z2[h + k] + b[h + k]);
            o_g[k] = sigmoid(z[2 * h + k] + z2[2 * h + k] + b[2 * h + k]);
            g_g[k] = (z[3 * h + k] + z2[3 * h + k] + b[3 * h + k]).tanh();
        }
        let mut c = vec![0.0; h];
        let mut tanh_c = vec![0.0; h];
        let mut h_new = vec![0.0; h];
        for k in 0..h {
            c[k] = f_g[k] * c_prev[k] + i_g[k] * g_g[k];
            tanh_c[k] = c[k].tanh();
            h_new[k] = o_g[k] * tanh_c[k];
        }
        cache.steps.push(StepCache {
            x: x.clone(),
            h_prev: h_prev.clone(),
            c_prev: c_prev.clone(),
            i: i_g,
            f: f_g,
            o: o_g,
            g: g_g,
            tanh_c,
        });
        hs.push(h_new.clone());
        h_prev = h_new;
        c_prev = c;
    }
    (hs, cache)
}

/// Scalar `LstmCell` BPTT with weight-value copies (the flat path is
/// `LstmCell::backward_flat`).
pub fn lstm_backward_seq(
    cell: &LstmCell,
    store: &mut ParamStore,
    cache: &LstmCache,
    dhs: &[Vec<f32>],
) -> Vec<Vec<f32>> {
    let h = cell.d_h;
    let t_max = cache.steps.len();
    assert_eq!(dhs.len(), t_max);
    let w_vals = store.p(cell.w).to_vec();
    let u_vals = store.p(cell.u).to_vec();
    let mut dxs = vec![vec![0.0; cell.d_in]; t_max];
    let mut dh_next = vec![0.0; h];
    let mut dc_next = vec![0.0; h];
    for t in (0..t_max).rev() {
        let s = &cache.steps[t];
        let mut dh = dhs[t].clone();
        for k in 0..h {
            dh[k] += dh_next[k];
        }
        let mut dz = vec![0.0; 4 * h];
        let mut dc = dc_next.clone();
        for k in 0..h {
            let do_ = dh[k] * s.tanh_c[k];
            dc[k] += dh[k] * s.o[k] * (1.0 - s.tanh_c[k] * s.tanh_c[k]);
            dz[2 * h + k] = do_ * s.o[k] * (1.0 - s.o[k]);
        }
        for k in 0..h {
            let di = dc[k] * s.g[k];
            let df = dc[k] * s.c_prev[k];
            let dg = dc[k] * s.i[k];
            dz[k] = di * s.i[k] * (1.0 - s.i[k]);
            dz[h + k] = df * s.f[k] * (1.0 - s.f[k]);
            dz[3 * h + k] = dg * (1.0 - s.g[k] * s.g[k]);
        }
        for k in 0..h {
            dc_next[k] = dc[k] * s.f[k];
        }
        {
            let dw = store.grad_mut(cell.w);
            matvec_backward(&w_vals, 4 * h, cell.d_in, &s.x, &dz, dw, &mut dxs[t]);
        }
        dh_next.fill(0.0);
        {
            let du = store.grad_mut(cell.u);
            matvec_backward(&u_vals, 4 * h, h, &s.h_prev, &dz, du, &mut dh_next);
        }
        {
            let db = store.grad_mut(cell.b);
            for k in 0..4 * h {
                db[k] += dz[k];
            }
        }
    }
    dxs
}

/// Cache of the scalar bidirectional pass.
#[derive(Debug, Clone, Default)]
pub struct BiLstmCache {
    fwd: LstmCache,
    bwd: LstmCache,
}

/// Scalar `BiLstm` forward — including the reversed input copy the
/// flat path eliminates.
pub fn bilstm_forward_seq(
    bi: &BiLstm,
    store: &ParamStore,
    xs: &[Vec<f32>],
) -> (Vec<Vec<f32>>, BiLstmCache) {
    let (hf, cf) = lstm_forward_seq(&bi.fwd, store, xs);
    let rev: Vec<Vec<f32>> = xs.iter().rev().cloned().collect();
    let (hb_rev, cb) = lstm_forward_seq(&bi.bwd, store, &rev);
    let n = xs.len();
    let mut hs = Vec::with_capacity(n);
    for t in 0..n {
        let mut v = hf[t].clone();
        v.extend_from_slice(&hb_rev[n - 1 - t]);
        hs.push(v);
    }
    (hs, BiLstmCache { fwd: cf, bwd: cb })
}

/// Scalar `BiLstm` backward.
pub fn bilstm_backward_seq(
    bi: &BiLstm,
    store: &mut ParamStore,
    cache: &BiLstmCache,
    dhs: &[Vec<f32>],
) -> Vec<Vec<f32>> {
    let h = bi.fwd.d_h;
    let n = dhs.len();
    let df: Vec<Vec<f32>> = dhs.iter().map(|d| d[..h].to_vec()).collect();
    let db_rev: Vec<Vec<f32>> = (0..n).map(|t| dhs[n - 1 - t][h..].to_vec()).collect();
    let dx_f = lstm_backward_seq(&bi.fwd, store, &cache.fwd, &df);
    let dx_b_rev = lstm_backward_seq(&bi.bwd, store, &cache.bwd, &db_rev);
    let mut dxs = dx_f;
    for t in 0..n {
        for (a, b) in dxs[t].iter_mut().zip(&dx_b_rev[n - 1 - t]) {
            *a += b;
        }
    }
    dxs
}

/// Cache of the scalar attention forward pass.
#[derive(Debug, Clone, Default)]
pub struct AttentionCache {
    hs: Vec<Vec<f32>>,
    us: Vec<Vec<f32>>,
    alphas: Vec<f32>,
}

/// Scalar `Attention` forward (the flat path is `Attention::forward_flat`).
pub fn attention_forward(
    att: &Attention,
    store: &ParamStore,
    hs: &[Vec<f32>],
) -> (Vec<f32>, AttentionCache) {
    if hs.is_empty() {
        return (vec![0.0; att.d_attn], AttentionCache::default());
    }
    let uw = store.p(att.context);
    let us: Vec<Vec<f32>> = hs
        .iter()
        .map(|h| {
            linear_forward(&att.proj, store, h)
                .iter()
                .map(|v| v.tanh())
                .collect()
        })
        .collect();
    let scores: Vec<f32> = us
        .iter()
        .map(|u| u.iter().zip(uw).map(|(a, b)| a * b).sum())
        .collect();
    let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = scores.iter().map(|s| (s - max).exp()).collect();
    let z: f32 = exps.iter().sum();
    let alphas: Vec<f32> = exps.iter().map(|e| e / z).collect();
    let mut t = vec![0.0; att.d_attn];
    for (a, u) in alphas.iter().zip(&us) {
        for (tk, uk) in t.iter_mut().zip(u) {
            *tk += a * uk;
        }
    }
    (
        t,
        AttentionCache {
            hs: hs.to_vec(),
            us,
            alphas,
        },
    )
}

/// Scalar `Attention` backward (the flat path is
/// `Attention::backward_flat`).
#[allow(clippy::needless_range_loop)]
pub fn attention_backward(
    att: &Attention,
    store: &mut ParamStore,
    cache: &AttentionCache,
    dt: &[f32],
) -> Vec<Vec<f32>> {
    let n = cache.hs.len();
    if n == 0 {
        return Vec::new();
    }
    let uw = store.p(att.context).to_vec();
    let dalpha: Vec<f32> = cache.us.iter().map(|u| dot(dt, u)).collect();
    let weighted: f32 = cache.alphas.iter().zip(&dalpha).map(|(a, d)| a * d).sum();
    let ds: Vec<f32> = cache
        .alphas
        .iter()
        .zip(&dalpha)
        .map(|(a, d)| a * (d - weighted))
        .collect();
    let mut dhs = Vec::with_capacity(n);
    let mut d_uw = vec![0.0; att.d_attn];
    for j in 0..n {
        let mut du: Vec<f32> = (0..att.d_attn)
            .map(|k| cache.alphas[j] * dt[k] + ds[j] * uw[k])
            .collect();
        for (acc, u) in d_uw.iter_mut().zip(&cache.us[j]) {
            *acc += ds[j] * u;
        }
        du = tanh_backward(&cache.us[j], &du);
        let dh = linear_backward(&att.proj, store, &cache.hs[j], &du);
        dhs.push(dh);
    }
    for (g, d) in store.grad_mut(att.context).iter_mut().zip(&d_uw) {
        *g += d;
    }
    dhs
}
