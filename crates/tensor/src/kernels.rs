//! Explicit 8-lane-unrolled dense kernels.
//!
//! Strict IEEE semantics stop LLVM from vectorizing a plain
//! `acc += a[i] * b[i]` reduction (float addition is not associative), so
//! every reduction here is written with eight independent accumulators and
//! `chunks_exact(8)` bodies: the reassociation is explicit in the source,
//! and LLVM turns the straight-line lane loops into packed SSE/AVX
//! arithmetic on stable Rust with no intrinsics.
//! Elementwise kernels (axpy, adam, activations) are written branch-free
//! for the same reason — `round`/`exp`/`tanh` libm calls would break
//! vectorization, so the transcendentals use a Cephes-style polynomial
//! (`fast_exp`, relative error ≲ 2e-7; parity with the scalar `std` path
//! is asserted to 1e-5 in `reference`-based tests).
//!
//! Each public kernel is a thin dispatcher: on x86-64 hosts that report
//! AVX2 it jumps to a `#[target_feature(enable = "avx2")]` shim around the
//! *same* safe body (see [`crate::simd`]), doubling the vector width with
//! bit-identical results; everywhere else the body runs as compiled for
//! the baseline target. The two flush-to-zero kernels ([`sq_sum_ftz`],
//! [`adam_step_consume_ftz`]) are the exception: their AVX2 path is an
//! `asm!` loop that runs with MXCSR's flush-to-zero bit set.

use crate::stats;

const LANES: usize = 8;

/// Run `$body(...)` through the AVX2 shim when the CPU supports it, the
/// plainly-compiled body otherwise.
macro_rules! dispatch {
    ($body:ident($($arg:expr),* $(,)?)) => {{
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2_enabled() {
            // SAFETY: `avx2_enabled` returns true only after runtime CPUID
            // detection confirmed AVX2 support on this processor.
            return unsafe { avx2::$body($($arg),*) };
        }
        $body($($arg),*)
    }};
}

/// The AVX2 shims: every function is the safe generic body re-emitted with
/// 256-bit codegen. `unsafe` exists only at this call boundary — the
/// bodies themselves stay safe Rust.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    macro_rules! avx2_shims {
        ($(fn $name:ident($($a:ident: $t:ty),* $(,)?) $(-> $r:ty)?;)+) => {$(
            /// # Safety
            /// The CPU must support AVX2 (guarded by `simd::avx2_enabled`).
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name($($a: $t),*) $(-> $r)? {
                super::$name($($a),*)
            }
        )+};
    }

    avx2_shims! {
        fn dot_body(a: &[f32], b: &[f32]) -> f32;
        fn axpy_body(alpha: f32, x: &[f32], y: &mut [f32]);
        fn add_body(x: &[f32], y: &mut [f32]);
        fn gemv_body(w: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]);
        fn gemv_acc_body(w: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]);
        fn gemv_t_acc_body(w: &[f32], rows: usize, cols: usize, dy: &[f32], dx: &mut [f32]);
        fn outer_acc_body(dy: &[f32], x: &[f32], dw: &mut [f32]);
        fn gemm_nt_body(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, c: &mut [f32]);
        fn lstm_gates_body(z: &mut [f32], bias: &[f32], h: usize);
        fn lstm_state_body(
            gates: &[f32],
            c_prev: &[f32],
            c: &mut [f32],
            tanh_c: &mut [f32],
            h_out: &mut [f32],
        );
        fn lstm_backward_gates_body(
            gates: &[f32],
            tanh_c: &[f32],
            c_prev: &[f32],
            dh: &[f32],
            dc: &mut [f32],
            dz: &mut [f32],
        );
        fn sigmoid_slice_body(xs: &mut [f32]);
        fn tanh_slice_body(xs: &mut [f32]);
        fn softmax_inplace_body(xs: &mut [f32]);
        fn adam_step_body(
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
        );
        fn adam_step_consume_body(
            w: &mut [f32],
            g: &mut [f32],
            m: &mut [f32],
            v: &mut [f32],
            lr: f32,
            b1: f32,
            b2: f32,
            eps: f32,
            bc1: f32,
            bc2: f32,
            scale: f32,
        );
    }

    // The two `_ftz` kernels below run their vector loop in hand-written
    // AVX2 with MXCSR's flush-to-zero bit (15) set, so a result that
    // would be subnormal is stored as ±0 without the microcode assist x86
    // spends on computing one. Rust assumes the default float environment
    // everywhere outside an `asm!` block, so each block saves MXCSR, sets
    // FTZ, runs the whole loop and loads the saved word back before it
    // ends; no compiled code ever runs in the changed mode. Each loop
    // performs the same IEEE operations, in the same order, as the safe
    // body it replaces, so the bits differ from that body's only where
    // the body would produce a subnormal. The `< LANES` tail runs after
    // the block, as in the safe body.

    /// [`super::sq_sum`] over the full 8-lane chunks with flush-to-zero
    /// set, then the tail and the lane reduction of `dot_body`.
    ///
    /// # Safety
    /// The CPU must support AVX2 (guarded by `simd::avx2_enabled`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sq_sum_ftz_body(x: &[f32]) -> f32 {
        let body = x.len() / super::LANES * super::LANES;
        let mut acc = [0.0f32; super::LANES];
        let mut csr = [0u32; 2];
        if body > 0 {
            // SAFETY: the caller guarantees AVX2 (so AVX). The block reads
            // `x[..body]` (`body` is a multiple of 8, at most `x.len()`)
            // and writes the 32 bytes of `acc` and 8 bytes of `csr`, all
            // live locals or borrowed slices; it uses no stack, clobbers
            // only declared registers, and loads the saved MXCSR back
            // before it ends.
            core::arch::asm!(
                "stmxcsr dword ptr [{csr}]",
                "mov edx, dword ptr [{csr}]",
                "or edx, 0x8000",
                "mov dword ptr [{csr} + 4], edx",
                "ldmxcsr dword ptr [{csr} + 4]",
                "vxorps ymm0, ymm0, ymm0",
                "2:",
                "vmovups ymm1, ymmword ptr [{x} + 4*rax]",
                "vmulps ymm1, ymm1, ymm1",
                "vaddps ymm0, ymm0, ymm1",
                "add rax, 8",
                "cmp rax, {n}",
                "jb 2b",
                "vmovups ymmword ptr [{acc}], ymm0",
                "ldmxcsr dword ptr [{csr}]",
                "vzeroupper",
                csr = in(reg) csr.as_mut_ptr(),
                acc = in(reg) acc.as_mut_ptr(),
                x = in(reg) x.as_ptr(),
                n = in(reg) body,
                inout("rax") 0usize => _,
                out("rdx") _,
                clobber_abi("C"),
                options(nostack),
            );
        }
        let mut tail = 0.0f32;
        for xi in &x[body..] {
            tail += xi * xi;
        }
        ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
    }

    /// [`super::adam_step_consume`] over the full 8-lane chunks with
    /// flush-to-zero set, then the tail through the safe body.
    ///
    /// # Safety
    /// The CPU must support AVX2 (guarded by `simd::avx2_enabled`).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn adam_step_consume_ftz_body(
        w: &mut [f32],
        g: &mut [f32],
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
        let n = w.len();
        // The loop indexes all four slices up to `body`.
        assert!(g.len() == n && m.len() == n && v.len() == n);
        let body = n / super::LANES * super::LANES;
        let k: [f32; 9] = [
            scale,
            b1,
            1.0 - b1,
            b2,
            1.0 - b2,
            1.0 / bc1,
            1.0 / bc2,
            lr,
            eps,
        ];
        let mut csr = [0u32; 2];
        if body > 0 {
            // SAFETY: the caller guarantees AVX2 (so AVX). The block reads
            // and writes `w`, `g`, `m` and `v` over `[..body]` (`body` is a
            // multiple of 8, at most their common length, asserted above),
            // reads the 36 bytes of `k` and writes 8 bytes of `csr`; it
            // uses no stack, clobbers only declared registers, and loads
            // the saved MXCSR back before it ends. Per lane, as in the body:
            // gi = g·scale; g = 0; m = β1·m + (1−β1)·gi;
            // v = β2·v + ((1−β2)·gi)·gi;
            // w −= (lr·(m·(1/bc1))) / (sqrt(v·(1/bc2)) + ε).
            core::arch::asm!(
                "stmxcsr dword ptr [{csr}]",
                "mov edx, dword ptr [{csr}]",
                "or edx, 0x8000",
                "mov dword ptr [{csr} + 4], edx",
                "ldmxcsr dword ptr [{csr} + 4]",
                "vbroadcastss ymm7, dword ptr [{k}]",
                "vbroadcastss ymm8, dword ptr [{k} + 4]",
                "vbroadcastss ymm9, dword ptr [{k} + 8]",
                "vbroadcastss ymm10, dword ptr [{k} + 12]",
                "vbroadcastss ymm11, dword ptr [{k} + 16]",
                "vbroadcastss ymm12, dword ptr [{k} + 20]",
                "vbroadcastss ymm13, dword ptr [{k} + 24]",
                "vbroadcastss ymm14, dword ptr [{k} + 28]",
                "vbroadcastss ymm15, dword ptr [{k} + 32]",
                "vxorps ymm6, ymm6, ymm6",
                "2:",
                "vmulps ymm0, ymm7, ymmword ptr [{g} + 4*rax]",
                "vmovups ymmword ptr [{g} + 4*rax], ymm6",
                "vmulps ymm1, ymm8, ymmword ptr [{m} + 4*rax]",
                "vmulps ymm2, ymm9, ymm0",
                "vaddps ymm1, ymm1, ymm2",
                "vmulps ymm3, ymm10, ymmword ptr [{v} + 4*rax]",
                "vmulps ymm4, ymm11, ymm0",
                "vmulps ymm4, ymm4, ymm0",
                "vaddps ymm3, ymm3, ymm4",
                "vmovups ymmword ptr [{m} + 4*rax], ymm1",
                "vmovups ymmword ptr [{v} + 4*rax], ymm3",
                "vmulps ymm1, ymm1, ymm12",
                "vmulps ymm1, ymm1, ymm14",
                "vmulps ymm3, ymm3, ymm13",
                "vsqrtps ymm3, ymm3",
                "vaddps ymm3, ymm3, ymm15",
                "vdivps ymm1, ymm1, ymm3",
                "vmovups ymm2, ymmword ptr [{w} + 4*rax]",
                "vsubps ymm2, ymm2, ymm1",
                "vmovups ymmword ptr [{w} + 4*rax], ymm2",
                "add rax, 8",
                "cmp rax, {n}",
                "jb 2b",
                "ldmxcsr dword ptr [{csr}]",
                "vzeroupper",
                csr = in(reg) csr.as_mut_ptr(),
                k = in(reg) k.as_ptr(),
                w = in(reg) w.as_mut_ptr(),
                g = in(reg) g.as_mut_ptr(),
                m = in(reg) m.as_mut_ptr(),
                v = in(reg) v.as_mut_ptr(),
                n = in(reg) body,
                inout("rax") 0usize => _,
                out("rdx") _,
                clobber_abi("C"),
                options(nostack),
            );
        }
        super::adam_step_consume_body(
            &mut w[body..],
            &mut g[body..],
            &mut m[body..],
            &mut v[body..],
            lr,
            b1,
            b2,
            eps,
            bc1,
            bc2,
            scale,
        );
    }
}

#[inline(always)]
fn dot_body(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut tail = 0.0f32;
    for (xa, xb) in ca.remainder().iter().zip(cb.remainder()) {
        tail += xa * xb;
    }
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// Dot product with eight independent accumulators.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dispatch!(dot_body(a, b))
}

#[inline(always)]
fn axpy_body(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    stats::count_axpy();
    dispatch!(axpy_body(alpha, x, y))
}

#[inline(always)]
fn add_body(x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += xi;
    }
}

/// `y += x`.
#[inline]
pub fn add(x: &[f32], y: &mut [f32]) {
    dispatch!(add_body(x, y))
}

/// Sum of squares (gradient-norm clipping).
#[inline]
pub fn sq_sum(x: &[f32]) -> f32 {
    dot(x, x)
}

#[inline(always)]
fn sq_sum_ftz_body(x: &[f32]) -> f32 {
    dot_body(x, x)
}

/// [`sq_sum`] with flush-to-zero: on AVX2 hosts the vector loop runs with
/// MXCSR's flush-to-zero bit set inside one `asm!` block, so the square of
/// an entry below 2^-63 in magnitude, which would be subnormal, adds `0.0`
/// instead of a value x86 computes in a slow microcode assist. Same
/// operations in the same order as [`sq_sum`]: the bits agree whenever no
/// square is subnormal. On other hosts it is [`sq_sum`].
#[inline]
pub fn sq_sum_ftz(x: &[f32]) -> f32 {
    dispatch!(sq_sum_ftz_body(x))
}

#[inline(always)]
fn gemv_body(w: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(x.len(), cols);
    debug_assert_eq!(y.len(), rows);
    for r in 0..rows {
        y[r] = dot_body(&w[r * cols..(r + 1) * cols], x);
    }
}

/// `y = W x` for a row-major `rows × cols` matrix.
pub fn gemv(w: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
    stats::count_gemv();
    dispatch!(gemv_body(w, rows, cols, x, y))
}

#[inline(always)]
fn gemv_acc_body(w: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(x.len(), cols);
    debug_assert_eq!(y.len(), rows);
    for r in 0..rows {
        y[r] += dot_body(&w[r * cols..(r + 1) * cols], x);
    }
}

/// `y += W x`.
pub fn gemv_acc(w: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
    stats::count_gemv();
    dispatch!(gemv_acc_body(w, rows, cols, x, y))
}

#[inline(always)]
fn gemv_t_acc_body(w: &[f32], rows: usize, cols: usize, dy: &[f32], dx: &mut [f32]) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(dy.len(), rows);
    debug_assert_eq!(dx.len(), cols);
    for r in 0..rows {
        let d = dy[r];
        if d != 0.0 {
            axpy_body(d, &w[r * cols..(r + 1) * cols], dx);
        }
    }
}

/// `dx += W^T dy` — the transpose product, expressed as row axpys so the
/// inner loop walks `W` contiguously.
pub fn gemv_t_acc(w: &[f32], rows: usize, cols: usize, dy: &[f32], dx: &mut [f32]) {
    stats::count_gemv();
    dispatch!(gemv_t_acc_body(w, rows, cols, dy, dx))
}

#[inline(always)]
fn outer_acc_body(dy: &[f32], x: &[f32], dw: &mut [f32]) {
    debug_assert_eq!(dw.len(), dy.len() * x.len());
    let cols = x.len();
    for (r, &d) in dy.iter().enumerate() {
        if d != 0.0 {
            axpy_body(d, x, &mut dw[r * cols..(r + 1) * cols]);
        }
    }
}

/// Rank-1 update `dw += dy x^T` (`dw` is `dy.len() × x.len()` row-major).
pub fn outer_acc(dy: &[f32], x: &[f32], dw: &mut [f32]) {
    dispatch!(outer_acc_body(dy, x, dw))
}

#[inline(always)]
fn gemm_nt_body(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (j, cj) in crow.iter_mut().enumerate() {
            *cj = dot_body(arow, &b[j * k..(j + 1) * k]);
        }
    }
}

/// `C = A B^T`: `A` is `m × k`, `B` is `n × k`, `C` is `m × n`, all
/// row-major — both inputs are walked along their contiguous axis, so
/// attention projects all of a sequence's hidden states in one call
/// (`U = H W^T`, with `W` stored `d_attn × d` exactly as [`gemv`] uses it).
/// Each output is one `dot` over a row of `A` and a row of `B`, the same
/// products in the same order as [`gemv`] computes them.
pub fn gemm_nt(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, c: &mut [f32]) {
    stats::count_gemm();
    dispatch!(gemm_nt_body(a, m, k, b, n, c))
}

// ---------------------------------------------------------------------------
// Transcendentals
// ---------------------------------------------------------------------------

/// Branch-free Cephes-style `e^x` (relative error ≲ 2e-7 on the clamped
/// domain). Written so a loop of calls autovectorizes: round-to-nearest is
/// the magic-constant add, the power-of-two scale is integer bit
/// arithmetic, and there are no calls or branches.
#[inline]
pub fn fast_exp(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // The exact Cody-Waite high split of ln2 (0x3F317000); keep every
    // digit so the literal shows it is exactly representable.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // Round-to-nearest via the 1.5·2^23 trick (valid for |n| < 2^22).
    const SHIFT: f32 = 12_582_912.0;
    let x = x.clamp(-87.0, 88.0);
    let n_s = x * LOG2E + SHIFT;
    let n = n_s - SHIFT;
    // Extended-precision argument reduction: r = x - n·ln2.
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // Degree-6 Taylor/minimax polynomial for e^r on r ∈ [-ln2/2, ln2/2].
    let p = 1.0
        + r * (1.0
            + r * (0.5
                + r * (0.166_666_67
                    + r * (0.041_666_67 + r * (8.333_333e-3 + r * 1.388_888_9e-3)))));
    // 2^n by exponent-field construction; n ∈ [-126, 127] after the clamp,
    // and `n` is an exact integer so the cast is lossless.
    let two_n = f32::from_bits(((n as i32 + 127) as u32) << 23);
    p * two_n
}

/// Numerically stable sigmoid on top of [`fast_exp`].
#[inline]
pub fn fast_sigmoid(x: f32) -> f32 {
    // σ(x) = e^{-|x|·(x<0 ? -1 : 1)} … branch-free via the identity
    // σ(x) = t/(1+t) for x<0, 1/(1+t) for x≥0 with t = e^{-|x|}.
    let t = fast_exp(-x.abs());
    let pos = 1.0 / (1.0 + t);
    let neg = t / (1.0 + t);
    if x >= 0.0 {
        pos
    } else {
        neg
    }
}

/// tanh on top of [`fast_exp`]: `tanh(|x|) = (1 − e^{−2|x|})/(1 + e^{−2|x|})`,
/// sign restored by copysign. Saturates (to ±1) beyond the exp clamp.
#[inline]
pub fn fast_tanh(x: f32) -> f32 {
    let t = fast_exp(-2.0 * x.abs());
    ((1.0 - t) / (1.0 + t)).copysign(x)
}

#[inline(always)]
fn sigmoid_slice_body(xs: &mut [f32]) {
    for x in xs {
        *x = fast_sigmoid(*x);
    }
}

/// In-place sigmoid over a slice.
pub fn sigmoid_slice(xs: &mut [f32]) {
    dispatch!(sigmoid_slice_body(xs))
}

#[inline(always)]
fn tanh_slice_body(xs: &mut [f32]) {
    for x in xs {
        *x = fast_tanh(*x);
    }
}

/// In-place tanh over a slice.
pub fn tanh_slice(xs: &mut [f32]) {
    dispatch!(tanh_slice_body(xs))
}

#[inline(always)]
fn softmax_inplace_body(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0f32;
    for x in xs.iter_mut() {
        *x = fast_exp(*x - max);
        z += *x;
    }
    let inv = 1.0 / z;
    for x in xs.iter_mut() {
        *x *= inv;
    }
}

/// In-place softmax (max-shifted, [`fast_exp`]).
pub fn softmax_inplace(xs: &mut [f32]) {
    dispatch!(softmax_inplace_body(xs))
}

// ---------------------------------------------------------------------------
// Fused LSTM kernels
// ---------------------------------------------------------------------------

#[inline(always)]
fn lstm_gates_body(z: &mut [f32], bias: &[f32], h: usize) {
    debug_assert_eq!(z.len(), 4 * h);
    debug_assert_eq!(bias.len(), 4 * h);
    for k in 0..3 * h {
        z[k] = fast_sigmoid(z[k] + bias[k]);
    }
    for k in 3 * h..4 * h {
        z[k] = fast_tanh(z[k] + bias[k]);
    }
}

/// Fused gate activation: `z` holds the four pre-activation blocks
/// `[i, f, o, g]` of width `h`; add the packed bias and apply
/// sigmoid/sigmoid/sigmoid/tanh in place.
pub fn lstm_gates(z: &mut [f32], bias: &[f32], h: usize) {
    dispatch!(lstm_gates_body(z, bias, h))
}

#[inline(always)]
fn lstm_state_body(
    gates: &[f32],
    c_prev: &[f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h_out: &mut [f32],
) {
    let h = c.len();
    debug_assert_eq!(gates.len(), 4 * h);
    debug_assert_eq!(c_prev.len(), h);
    debug_assert_eq!(tanh_c.len(), h);
    debug_assert_eq!(h_out.len(), h);
    let (i_g, rest) = gates.split_at(h);
    let (f_g, rest) = rest.split_at(h);
    let (o_g, g_g) = rest.split_at(h);
    for k in 0..h {
        c[k] = f_g[k] * c_prev[k] + i_g[k] * g_g[k];
        tanh_c[k] = fast_tanh(c[k]);
        h_out[k] = o_g[k] * tanh_c[k];
    }
}

/// Fused cell-state update: given activated gates `[i, f, o, g]`, previous
/// cell state `c_prev`, write `c = f∘c_prev + i∘g`, `tanh_c = tanh(c)` and
/// `h_out = o ∘ tanh_c`.
pub fn lstm_state(
    gates: &[f32],
    c_prev: &[f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h_out: &mut [f32],
) {
    dispatch!(lstm_state_body(gates, c_prev, c, tanh_c, h_out))
}

#[inline(always)]
fn lstm_backward_gates_body(
    gates: &[f32],
    tanh_c: &[f32],
    c_prev: &[f32],
    dh: &[f32],
    dc: &mut [f32],
    dz: &mut [f32],
) {
    let h = dh.len();
    debug_assert_eq!(gates.len(), 4 * h);
    debug_assert_eq!(tanh_c.len(), h);
    debug_assert_eq!(c_prev.len(), h);
    debug_assert_eq!(dc.len(), h);
    debug_assert_eq!(dz.len(), 4 * h);
    let (i_g, rest) = gates.split_at(h);
    let (f_g, rest) = rest.split_at(h);
    let (o_g, g_g) = rest.split_at(h);
    let (dz_i, rest) = dz.split_at_mut(h);
    let (dz_f, rest) = rest.split_at_mut(h);
    let (dz_o, dz_g) = rest.split_at_mut(h);
    for k in 0..h {
        let do_ = dh[k] * tanh_c[k];
        let dck = dc[k] + dh[k] * o_g[k] * (1.0 - tanh_c[k] * tanh_c[k]);
        dz_o[k] = do_ * o_g[k] * (1.0 - o_g[k]);
        let di = dck * g_g[k];
        let df = dck * c_prev[k];
        let dg = dck * i_g[k];
        dz_i[k] = di * i_g[k] * (1.0 - i_g[k]);
        dz_f[k] = df * f_g[k] * (1.0 - f_g[k]);
        dz_g[k] = dg * (1.0 - g_g[k] * g_g[k]);
        dc[k] = dck * f_g[k];
    }
}

/// Fused BPTT gate-derivative sweep for one timestep. Inputs: activated
/// gates `[i, f, o, g]` (`4h`), `tanh(c_t)`, `c_{t-1}`, and the incoming
/// hidden-state gradient `dh` (already including the recurrent carry).
/// `dc` carries the cell-state gradient: on entry it holds the carry from
/// the later timestep, on exit the carry for the earlier one
/// (`dc_total ∘ f`). `dz` receives the pre-activation gradients. The
/// per-element operation order matches the unfused two-loop formulation
/// bit for bit — this kernel exists so the sweep dispatches through the
/// same AVX2 boundary as the rest of the backward pass.
pub fn lstm_backward_gates(
    gates: &[f32],
    tanh_c: &[f32],
    c_prev: &[f32],
    dh: &[f32],
    dc: &mut [f32],
    dz: &mut [f32],
) {
    dispatch!(lstm_backward_gates_body(gates, tanh_c, c_prev, dh, dc, dz))
}

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn adam_step_body(
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
    let n = w.len();
    debug_assert_eq!(g.len(), n);
    debug_assert_eq!(m.len(), n);
    debug_assert_eq!(v.len(), n);
    let inv_bc1 = 1.0 / bc1;
    let inv_bc2 = 1.0 / bc2;
    for i in 0..n {
        let gi = g[i] * scale;
        let mi = b1 * m[i] + (1.0 - b1) * gi;
        let vi = b2 * v[i] + (1.0 - b2) * gi * gi;
        m[i] = mi;
        v[i] = vi;
        w[i] -= lr * (mi * inv_bc1) / ((vi * inv_bc2).sqrt() + eps);
    }
}

/// One fused Adam update over flat parameter/gradient/moment arrays:
/// `m = β1 m + (1−β1) g·scale`, `v = β2 v + (1−β2) (g·scale)²`,
/// `w −= lr · (m/bc1) / (√(v/bc2) + ε)`. Elementwise and branch-free, so
/// the whole sweep vectorizes (packed sqrt + division).
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
    dispatch!(adam_step_body(w, g, m, v, lr, b1, b2, eps, bc1, bc2, scale))
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn adam_step_consume_body(
    w: &mut [f32],
    g: &mut [f32],
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
    let n = w.len();
    debug_assert_eq!(g.len(), n);
    debug_assert_eq!(m.len(), n);
    debug_assert_eq!(v.len(), n);
    let inv_bc1 = 1.0 / bc1;
    let inv_bc2 = 1.0 / bc2;
    for i in 0..n {
        let gi = g[i] * scale;
        g[i] = 0.0;
        let mi = b1 * m[i] + (1.0 - b1) * gi;
        let vi = b2 * v[i] + (1.0 - b2) * gi * gi;
        m[i] = mi;
        v[i] = vi;
        w[i] -= lr * (mi * inv_bc1) / ((vi * inv_bc2).sqrt() + eps);
    }
}

/// [`adam_step`] fused with gradient reset: each gradient is read once and
/// zeroed in the same cache line it was loaded from, so a per-step
/// `fill(0.0)` sweep over the whole gradient array disappears from the
/// training loop. Arithmetic is identical to [`adam_step`]; only the
/// post-state of `g` differs (all zeros).
#[allow(clippy::too_many_arguments)]
pub fn adam_step_consume(
    w: &mut [f32],
    g: &mut [f32],
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
    dispatch!(adam_step_consume_body(
        w, g, m, v, lr, b1, b2, eps, bc1, bc2, scale
    ))
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn adam_step_consume_ftz_body(
    w: &mut [f32],
    g: &mut [f32],
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
    adam_step_consume_body(w, g, m, v, lr, b1, b2, eps, bc1, bc2, scale)
}

/// [`adam_step_consume`] with flush-to-zero: on AVX2 hosts the vector loop
/// runs with MXCSR's flush-to-zero bit set inside one `asm!` block, so a
/// result that would be subnormal (a tiny gradient's square in `v`, a
/// moment decaying below `f32::MIN_POSITIVE`) is stored as ±0 instead of
/// a value x86 computes in a slow microcode assist. Same operations in
/// the same order as [`adam_step_consume`]: the bits agree whenever no
/// intermediate is subnormal. On other hosts, and for the `< 8`-element
/// tail, it is [`adam_step_consume`].
#[allow(clippy::too_many_arguments)]
pub fn adam_step_consume_ftz(
    w: &mut [f32],
    g: &mut [f32],
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
    dispatch!(adam_step_consume_ftz_body(
        w, g, m, v, lr, b1, b2, eps, bc1, bc2, scale
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    #[test]
    fn fast_exp_matches_std() {
        let mut x = -30.0f32;
        while x < 30.0 {
            let e = fast_exp(x);
            let s = x.exp();
            let rel = (e - s).abs() / s.max(1e-20);
            assert!(rel < 1e-5, "exp({x}): {e} vs {s} (rel {rel})");
            x += 0.0137;
        }
        assert!(fast_exp(-200.0) < 1e-30);
        assert!(fast_exp(200.0).is_finite());
    }

    #[test]
    fn fast_sigmoid_and_tanh_match_std() {
        let mut x = -25.0f32;
        while x < 25.0 {
            assert!(
                (fast_sigmoid(x) - reference::sigmoid(x)).abs() < 1e-6,
                "sigmoid({x})"
            );
            assert!((fast_tanh(x) - x.tanh()).abs() < 1e-6, "tanh({x})");
            x += 0.0193;
        }
        assert_eq!(fast_tanh(0.0), 0.0);
        assert!(fast_tanh(100.0) <= 1.0 && fast_tanh(100.0) > 0.9999);
        assert!(fast_tanh(-100.0) >= -1.0 && fast_tanh(-100.0) < -0.9999);
    }

    #[test]
    fn dot_matches_reference_odd_lengths() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 100] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.71).cos()).collect();
            let d = dot(&a, &b);
            let r = reference::dot(&a, &b);
            assert!((d - r).abs() < 1e-4 * (1.0 + r.abs()), "n={n}: {d} vs {r}");
        }
    }

    #[test]
    fn softmax_is_a_distribution() {
        let mut xs = vec![1.0f32, 2.0, 3.0, -1.0];
        softmax_inplace(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(xs[2] > xs[1] && xs[1] > xs[0] && xs[0] > xs[3]);
        softmax_inplace(&mut []);
    }

    #[test]
    fn adam_matches_reference() {
        let n = 37;
        let mut w: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let g: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut m = vec![0.01f32; n];
        let mut v = vec![0.02f32; n];
        let (mut w2, mut m2, mut v2) = (w.clone(), m.clone(), v.clone());
        adam_step(
            &mut w, &g, &mut m, &mut v, 0.01, 0.9, 0.999, 1e-8, 0.5, 0.3, 0.7,
        );
        reference::adam_step(
            &mut w2, &g, &mut m2, &mut v2, 0.01, 0.9, 0.999, 1e-8, 0.5, 0.3, 0.7,
        );
        for i in 0..n {
            assert!((w[i] - w2[i]).abs() < 1e-6, "w[{i}]");
            assert!((m[i] - m2[i]).abs() < 1e-6, "m[{i}]");
            assert!((v[i] - v2[i]).abs() < 1e-6, "v[{i}]");
        }
    }

    #[test]
    fn adam_consume_matches_adam_and_zeroes_gradients() {
        let n = 133; // odd length: exercises the vector tail
        let mut w: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let g: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut m = vec![0.01f32; n];
        let mut v = vec![0.02f32; n];
        let (mut w2, mut g2, mut m2, mut v2) = (w.clone(), g.clone(), m.clone(), v.clone());
        adam_step(
            &mut w, &g, &mut m, &mut v, 0.01, 0.9, 0.999, 1e-8, 0.5, 0.3, 0.7,
        );
        adam_step_consume(
            &mut w2, &mut g2, &mut m2, &mut v2, 0.01, 0.9, 0.999, 1e-8, 0.5, 0.3, 0.7,
        );
        assert_eq!(w, w2, "consume variant must be arithmetically identical");
        assert_eq!(m, m2);
        assert_eq!(v, v2);
        assert!(g2.iter().all(|&x| x == 0.0), "gradients must be consumed");
    }

    /// `a·b` computed at run time: subnormal for `MIN_POSITIVE · 0.5`
    /// unless the thread's float mode flushes it.
    fn product(a: f32, b: f32) -> f32 {
        std::hint::black_box(a) * std::hint::black_box(b)
    }

    #[test]
    fn sq_sum_ftz_flushes_subnormal_squares_and_restores_the_mode() {
        let avx2 = crate::simd_level() == "avx2";
        // 2^-66: its square, 2^-132, is subnormal, and so is the sum of
        // 16. They fill two whole 8-lane chunks.
        let tiny = vec![2f32.powi(-66); 16];
        let plain = sq_sum(&tiny);
        assert!(plain.is_subnormal(), "{plain:e}");
        let flushed = sq_sum_ftz(&tiny);
        if avx2 {
            assert_eq!(flushed.to_bits(), 0, "{flushed:e}");
        } else {
            assert_eq!(flushed.to_bits(), plain.to_bits());
        }
        // The mode reverted with the `asm!` block.
        assert!(product(f32::MIN_POSITIVE, 0.5).is_subnormal());
        // Without subnormal squares the bits are `sq_sum`'s, tails included.
        for n in 0..40 {
            let xs: Vec<f32> = (0..n).map(|i| (i as f32 * 0.77).sin() * 3.0).collect();
            assert_eq!(sq_sum_ftz(&xs).to_bits(), sq_sum(&xs).to_bits(), "n={n}");
        }
    }

    #[test]
    fn adam_consume_ftz_matches_adam_consume_except_subnormals() {
        let avx2 = crate::simd_level() == "avx2";
        let n = 133; // 16 whole chunks and a 5-element tail
        let w0: Vec<f32> = (0..n).map(|i| (i as f32).sin() + 2.0).collect();
        let run = |ftz: bool, g: &[f32], m: &[f32], v: &[f32]| {
            let (mut w, mut g, mut m, mut v) = (w0.clone(), g.to_vec(), m.to_vec(), v.to_vec());
            let step = if ftz {
                adam_step_consume_ftz
            } else {
                adam_step_consume
            };
            step(
                &mut w, &mut g, &mut m, &mut v, 0.02, 0.9, 0.999, 1e-8, 0.271, 0.002997, 0.7,
            );
            assert!(g.iter().all(|&x| x == 0.0), "gradients must be consumed");
            (w, m, v)
        };
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        // Normal-range state: the two kernels agree bit for bit.
        let g: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).cos()).collect();
        let (m, v) = (vec![0.01f32; n], vec![0.02f32; n]);
        let (a, b) = (run(false, &g, &m, &v), run(true, &g, &m, &v));
        assert_eq!(bits(&a.0), bits(&b.0));
        assert_eq!(bits(&a.1), bits(&b.1));
        assert_eq!(bits(&a.2), bits(&b.2));

        // Gradients zero or between 2^-66 and 2^-125, moments at the
        // smallest normal float: `β1·m`, `β2·v` and `(1−β2)·g²` go
        // subnormal. The plain kernel stores subnormal moments; with the
        // flush the chunked part stores none, and the parameters move
        // identically.
        let g: Vec<f32> = (0..n as i32)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    2f32.powi(-66 - i % 60)
                }
            })
            .collect();
        let m = vec![f32::MIN_POSITIVE; n];
        let v = vec![f32::MIN_POSITIVE; n];
        let (plain, flushed) = (run(false, &g, &m, &v), run(true, &g, &m, &v));
        assert!(plain.2.iter().all(|x| x.is_subnormal()));
        assert!(plain.1.iter().any(|x| x.is_subnormal()));
        let body = n / LANES * LANES;
        let subnormal_in_body = flushed.1[..body]
            .iter()
            .chain(&flushed.2[..body])
            .any(|x| x.is_subnormal());
        assert_eq!(subnormal_in_body, !avx2);
        assert_eq!(bits(&flushed.1[body..]), bits(&plain.1[body..]));
        assert_eq!(bits(&flushed.2[body..]), bits(&plain.2[body..]));
        assert_eq!(bits(&plain.0), bits(&flushed.0));
        assert!(product(f32::MIN_POSITIVE, 0.5).is_subnormal());
    }
}
