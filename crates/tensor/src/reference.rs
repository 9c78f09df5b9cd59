//! Naive scalar reference kernels — the ground truth the unrolled paths
//! are property-tested against (`tests/kernel_properties.rs`), and the
//! semantics contract for the 8-lane kernels: every function here is the
//! single-accumulator, `std`-transcendental formulation the `nn` crate
//! used before the flat rewrite.

/// Single-accumulator dot product.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Scalar `y = W x`.
pub fn gemv(w: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
    for r in 0..rows {
        y[r] = dot(&w[r * cols..(r + 1) * cols], x);
    }
}

/// Scalar `C = A B^T`.
pub fn gemm_nt(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            c[i * n + j] = dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
        }
    }
}

/// Scalar gather-sum over sparse column ids.
pub fn sparse_dot(w: &[f32], ids: &[u32]) -> f32 {
    ids.iter().map(|&i| w[i as usize]).sum()
}

/// `std`-based numerically stable sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Scalar Adam update (same parameterization as `kernels::adam_step`).
#[allow(clippy::too_many_arguments)]
pub fn adam_step(
    w: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
    scale: f32,
) {
    for i in 0..w.len() {
        let gi = g[i] * scale;
        m[i] = b1 * m[i] + (1.0 - b1) * gi;
        v[i] = b2 * v[i] + (1.0 - b2) * gi * gi;
        let mhat = m[i] / bc1;
        let vhat = v[i] / bc2;
        w[i] -= lr * mhat / (vhat.sqrt() + eps);
    }
}
