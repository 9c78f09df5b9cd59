//! Flat parameter storage with Adam state.
//!
//! All trainable parameters of a model live in one [`ParamStore`]: layers
//! allocate slices at construction and index them via [`ParamId`]. The flat
//! layout makes the optimizer a single loop and gradient zeroing a `fill`;
//! [`ParamStore::adam_step_rows`] narrows the loop to the rows of an
//! embedding table that gradients have reached.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ADAM_B1: f32 = 0.9;
const ADAM_B2: f32 = 0.999;
const ADAM_EPS: f32 = 1e-8;

/// Handle to a parameter block inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId {
    offset: usize,
    /// Number of rows (for matrices) or the vector length.
    pub rows: usize,
    /// Number of columns (1 for vectors).
    pub cols: usize,
}

impl ParamId {
    /// Total number of scalars.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Flat parameter/gradient/Adam-state storage.
#[derive(Debug, Clone)]
pub struct ParamStore {
    /// Parameter values.
    pub w: Vec<f32>,
    /// Gradients (same layout).
    pub g: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
    rng: StdRng,
}

impl ParamStore {
    /// New empty store with an init seed.
    pub fn new(seed: u64) -> Self {
        Self {
            w: Vec::new(),
            g: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Allocate a `rows × cols` matrix with Xavier-uniform init.
    pub fn alloc(&mut self, rows: usize, cols: usize) -> ParamId {
        let id = ParamId {
            offset: self.w.len(),
            rows,
            cols,
        };
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        for _ in 0..rows * cols {
            self.w.push(self.rng.gen_range(-bound..=bound));
        }
        self.g.resize(self.w.len(), 0.0);
        self.m.resize(self.w.len(), 0.0);
        self.v.resize(self.w.len(), 0.0);
        id
    }

    /// Allocate a zero-initialized block (biases).
    pub fn alloc_zeros(&mut self, rows: usize, cols: usize) -> ParamId {
        let id = ParamId {
            offset: self.w.len(),
            rows,
            cols,
        };
        self.w.resize(self.w.len() + rows * cols, 0.0);
        self.g.resize(self.w.len(), 0.0);
        self.m.resize(self.w.len(), 0.0);
        self.v.resize(self.w.len(), 0.0);
        id
    }

    /// Parameter values of a block.
    #[inline]
    pub fn p(&self, id: ParamId) -> &[f32] {
        &self.w[id.offset..id.offset + id.len()]
    }

    /// Mutable parameter values (for tests / manual surgery).
    #[inline]
    pub fn p_mut(&mut self, id: ParamId) -> &mut [f32] {
        &mut self.w[id.offset..id.offset + id.len()]
    }

    /// Gradients of a block.
    #[inline]
    pub fn grad(&self, id: ParamId) -> &[f32] {
        &self.g[id.offset..id.offset + id.len()]
    }

    /// Mutable gradients of a block.
    #[inline]
    pub fn grad_mut(&mut self, id: ParamId) -> &mut [f32] {
        &mut self.g[id.offset..id.offset + id.len()]
    }

    /// Parameter values and their gradients of one block, borrowed
    /// simultaneously (values shared, gradients mutable). Backward passes
    /// use this instead of copying the weights to satisfy the borrow
    /// checker — values and gradients live in separate arrays, so the
    /// split is free.
    #[inline]
    pub fn p_grad_mut(&mut self, id: ParamId) -> (&[f32], &mut [f32]) {
        let range = id.offset..id.offset + id.len();
        (&self.w[range.clone()], &mut self.g[range])
    }

    /// Zero all gradients.
    pub fn zero_grad(&mut self) {
        self.g.fill(0.0);
    }

    /// Total trainable scalars.
    pub fn n_params(&self) -> usize {
        self.w.len()
    }

    /// One Adam step over every parameter, with optional gradient clipping
    /// by global norm.
    ///
    /// The step **consumes the gradients**: `g` is read and zeroed in the
    /// same fused sweep, so callers in a step loop do not need a separate
    /// [`Self::zero_grad`] between steps (an extra `zero_grad` remains
    /// correct, just redundant). This is what lets the per-sample training
    /// loop drop one full pass over the parameter arrays per step.
    pub fn adam_step(&mut self, lr: f32, clip: Option<f32>) {
        let grad_sq = if clip.is_some() {
            fonduer_tensor::sq_sum(&self.g)
        } else {
            0.0
        };
        let coef = self.adam_begin(clip, grad_sq);
        self.adam_sweep(0..self.w.len(), lr, coef);
    }

    /// [`Self::adam_step`] over only the entries a step can change: every
    /// parameter outside the `table` block, plus the listed `rows` of
    /// `table` (distinct, ascending). The squared gradient norm comes from
    /// the caller, who knows which blocks its backward pass touched.
    ///
    /// Exact, bit for bit, when every unlisted row of `table` has
    /// `g = m = v = 0`: the dense update then computes `m = v = 0` and
    /// `w −= 0` for it, so skipping the row changes nothing. A row whose
    /// gradient was ever nonzero keeps decaying `m` and `v` afterwards, so
    /// callers list every row any step has reached, not just this step's.
    /// The update is elementwise, so sweeping the blocks separately gives
    /// the same bits as one sweep.
    pub fn adam_step_rows(
        &mut self,
        lr: f32,
        clip: Option<f32>,
        grad_sq: f32,
        table: ParamId,
        rows: &[u32],
    ) {
        debug_assert!(rows.windows(2).all(|p| p[0] < p[1]));
        let coef = self.adam_begin(clip, grad_sq);
        self.adam_sweep(0..table.offset, lr, coef);
        for &r in rows {
            let o = table.offset + r as usize * table.cols;
            self.adam_sweep(o..o + table.cols, lr, coef);
        }
        self.adam_sweep(table.offset + table.len()..self.w.len(), lr, coef);
    }

    /// Count the step and return its `(clip scale, bc1, bc2)`.
    fn adam_begin(&mut self, clip: Option<f32>, grad_sq: f32) -> (f32, f32, f32) {
        fonduer_observe::counter("nn.adam_steps", 1);
        let mut scale = 1.0f32;
        if let Some(max_norm) = clip {
            let norm = grad_sq.sqrt();
            if norm > max_norm {
                scale = max_norm / norm;
            }
        }
        self.t += 1;
        let bc1 = 1.0 - ADAM_B1.powi(self.t as i32);
        let bc2 = 1.0 - ADAM_B2.powi(self.t as i32);
        (scale, bc1, bc2)
    }

    /// The fused, gradient-consuming Adam update over `range`.
    fn adam_sweep(
        &mut self,
        range: std::ops::Range<usize>,
        lr: f32,
        (scale, bc1, bc2): (f32, f32, f32),
    ) {
        fonduer_tensor::adam_step_consume(
            &mut self.w[range.clone()],
            &mut self.g[range.clone()],
            &mut self.m[range.clone()],
            &mut self.v[range],
            lr,
            ADAM_B1,
            ADAM_B2,
            ADAM_EPS,
            bc1,
            bc2,
            scale,
        );
    }
}

/// Matrix–vector product `y = W x` for a `rows × cols` parameter block
/// (delegates to the unrolled `fonduer-tensor` kernel).
pub fn matvec(w: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
    fonduer_tensor::gemv(w, rows, cols, x, y);
}

/// Accumulate `W^T dy` into `dx` and the outer product `dy x^T` into `dw`.
pub fn matvec_backward(
    w: &[f32],
    rows: usize,
    cols: usize,
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    dx: &mut [f32],
) {
    debug_assert_eq!(w.len(), rows * cols);
    fonduer_tensor::outer_acc(dy, x, dw);
    fonduer_tensor::gemv_t_acc(w, rows, cols, dy, dx);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_access() {
        let mut s = ParamStore::new(1);
        let a = s.alloc(2, 3);
        let b = s.alloc_zeros(4, 1);
        assert_eq!(a.len(), 6);
        assert_eq!(s.n_params(), 10);
        assert!(s.p(b).iter().all(|&x| x == 0.0));
        assert!(s.p(a).iter().any(|&x| x != 0.0));
        s.grad_mut(a)[0] = 1.0;
        assert_eq!(s.grad(a)[0], 1.0);
        s.zero_grad();
        assert_eq!(s.grad(a)[0], 0.0);
    }

    #[test]
    fn deterministic_init() {
        let mut a = ParamStore::new(7);
        let mut b = ParamStore::new(7);
        a.alloc(5, 5);
        b.alloc(5, 5);
        assert_eq!(a.w, b.w);
        let mut c = ParamStore::new(8);
        c.alloc(5, 5);
        assert_ne!(a.w, c.w);
    }

    #[test]
    fn matvec_correct() {
        // W = [[1,2],[3,4]], x = [5,6] → y = [17, 39]
        let w = [1.0, 2.0, 3.0, 4.0];
        let x = [5.0, 6.0];
        let mut y = [0.0; 2];
        matvec(&w, 2, 2, &x, &mut y);
        assert_eq!(y, [17.0, 39.0]);
    }

    #[test]
    fn matvec_backward_correct() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let x = [5.0, 6.0];
        let dy = [1.0, 0.5];
        let mut dw = [0.0; 4];
        let mut dx = [0.0; 2];
        matvec_backward(&w, 2, 2, &x, &dy, &mut dw, &mut dx);
        // dW = dy x^T = [[5,6],[2.5,3]]; dx = W^T dy = [1+1.5, 2+2]
        assert_eq!(dw, [5.0, 6.0, 2.5, 3.0]);
        assert_eq!(dx, [2.5, 4.0]);
    }

    #[test]
    fn adam_descends_quadratic() {
        // Minimize f(w) = (w - 3)^2 with Adam.
        let mut s = ParamStore::new(1);
        let id = s.alloc_zeros(1, 1);
        for _ in 0..500 {
            s.zero_grad();
            let w = s.p(id)[0];
            s.grad_mut(id)[0] = 2.0 * (w - 3.0);
            s.adam_step(0.05, None);
        }
        assert!((s.p(id)[0] - 3.0).abs() < 0.05, "{}", s.p(id)[0]);
    }

    /// A reached-rows step is bit-identical to a dense step over many steps
    /// of random sparse row gradients: rows reached only in the first
    /// steps keep decaying `m` and `v` afterwards, other rows are first
    /// reached late, and some are never reached.
    #[test]
    fn reached_rows_step_matches_dense_step_bitwise() {
        // Five columns, so rows straddle the kernels' 8-lane chunks.
        let (n_rows, d) = (40usize, 5usize);
        let mut sparse = ParamStore::new(3);
        let table = sparse.alloc(n_rows, d);
        let tail = sparse.alloc(3, 7);
        sparse.alloc_zeros(4, 1);
        let mut dense = sparse.clone();
        let mut rng = StdRng::seed_from_u64(11);
        let mut reached: Vec<u32> = Vec::new();
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut early_m = Vec::new();
        for step in 0..400 {
            // Rows 0..8 only in the first 30 steps, rows 8..30 from step
            // 100 on, rows 30..40 never.
            let pool = match step {
                0..=29 => 0..8u32,
                30..=99 => 0..0,
                _ => 8..30,
            };
            let mut rows: Vec<u32> = Vec::new();
            if !pool.is_empty() {
                for _ in 0..rng.gen_range(1..4usize) {
                    rows.push(rng.gen_range(pool.clone()));
                }
            }
            for s in [&mut sparse, &mut dense] {
                let mut r = StdRng::seed_from_u64(step);
                for &row in &rows {
                    let o = row as usize * d;
                    for g in &mut s.grad_mut(table)[o..o + d] {
                        *g += r.gen_range(-2.0f32..2.0);
                    }
                }
                for g in s.grad_mut(tail) {
                    *g = if r.gen_bool(0.5) {
                        r.gen_range(-1.0f32..1.0)
                    } else {
                        0.0
                    };
                }
            }
            rows.sort_unstable();
            rows.dedup();
            for row in rows {
                if let Err(at) = reached.binary_search(&row) {
                    reached.insert(at, row);
                }
            }
            // Clip at 1.0 so some steps rescale.
            let grad_sq = fonduer_tensor::sq_sum(&sparse.g);
            sparse.adam_step_rows(0.05, Some(1.0), grad_sq, table, &reached);
            dense.adam_step(0.05, Some(1.0));
            assert_eq!(bits(&sparse.w), bits(&dense.w), "w at step {step}");
            assert_eq!(bits(&sparse.m), bits(&dense.m), "m at step {step}");
            assert_eq!(bits(&sparse.v), bits(&dense.v), "v at step {step}");
            assert_eq!(bits(&sparse.g), bits(&dense.g), "g at step {step}");
            if step == 30 {
                early_m = dense.m[..8 * d].to_vec();
            }
        }
        // The early rows' moments kept moving after their last gradient,
        // and the never-reached rows were never touched.
        assert!(early_m.iter().any(|&m| m != 0.0));
        assert_ne!(bits(&early_m), bits(&dense.m[..8 * d]));
        assert!(dense.m[30 * d..n_rows * d].iter().all(|&m| m == 0.0));
        assert_eq!(reached.len(), 30);
    }

    #[test]
    fn gradient_clipping_bounds_update() {
        let mut s = ParamStore::new(1);
        let id = s.alloc_zeros(1, 1);
        s.grad_mut(id)[0] = 1e6;
        let before = s.p(id)[0];
        s.adam_step(0.1, Some(1.0));
        // Adam normalizes anyway, but the step must be finite and small.
        let delta = (s.p(id)[0] - before).abs();
        assert!(delta.is_finite() && delta <= 0.2, "{delta}");
    }
}
