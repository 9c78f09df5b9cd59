//! Bitwise AVX2-vs-generic path parity.
//!
//! The `#[target_feature(enable = "avx2")]` shims in `simd`/`kernels`
//! re-emit the *same* safe kernel bodies at a wider register width; the
//! reassociation into eight accumulator chains is fixed in the source and
//! rustc performs no float contraction, so the two paths must agree bit
//! for bit — not just within a tolerance. This test runs every dispatched
//! kernel under both paths and asserts `to_bits()` equality.
//!
//! Everything lives in a single `#[test]` because `force_generic` flips
//! process-global dispatch state; separate tests in one binary would race
//! on it.

use fonduer_tensor::{self as tensor, simd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn vecf(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: generic {x} vs avx2 {y}"
        );
    }
}

/// Outputs of one full kernel sweep at fixed inputs, under whichever
/// dispatch path is currently forced.
#[derive(PartialEq)]
struct SweepOut {
    dot: f32,
    sq_sum: f32,
    sparse_dot: f32,
    axpy: Vec<f32>,
    gemv: Vec<f32>,
    gemv_t_acc: Vec<f32>,
    outer_acc: Vec<f32>,
    gemm_nt: Vec<f32>,
    gates: Vec<f32>,
    c: Vec<f32>,
    tanh_c: Vec<f32>,
    h_out: Vec<f32>,
    dz: Vec<f32>,
    dc: Vec<f32>,
    softmax: Vec<f32>,
    adam_w: Vec<f32>,
    adam_m: Vec<f32>,
    adam_v: Vec<f32>,
    sq_sum_ftz: f32,
    adam_ftz_w: Vec<f32>,
    adam_ftz_m: Vec<f32>,
    adam_ftz_v: Vec<f32>,
}

fn run_sweep(seed: u64) -> SweepOut {
    let mut rng = StdRng::seed_from_u64(seed);
    // Odd, non-lane-multiple shapes on purpose: the remainder handling is
    // part of what must agree across paths.
    let (rows, cols) = (13, 21);
    let w = vecf(&mut rng, rows * cols);
    let x = vecf(&mut rng, cols);
    let dy = vecf(&mut rng, rows);

    let dot = tensor::dot(&w[..cols], &x);
    let sq_sum = tensor::sq_sum(&w);
    let ids: Vec<u32> = (0..37).map(|_| rng.gen_range(0..w.len() as u32)).collect();
    let sparse_dot = tensor::sparse_dot(&w, &ids);

    let mut axpy = vecf(&mut rng, cols);
    tensor::axpy(0.37, &x, &mut axpy);

    let mut gemv = vec![0.0f32; rows];
    tensor::gemv(&w, rows, cols, &x, &mut gemv);
    let mut gemv_t_acc = vecf(&mut rng, cols);
    tensor::gemv_t_acc(&w, rows, cols, &dy, &mut gemv_t_acc);
    let mut outer_acc = vecf(&mut rng, rows * cols);
    tensor::outer_acc(&dy, &x, &mut outer_acc);

    let (m, k, n) = (5, 21, 7);
    let a_m = vecf(&mut rng, m * k);
    let b_m = vecf(&mut rng, n * k);
    let mut gemm_nt = vec![0.0f32; m * n];
    tensor::gemm_nt(&a_m, m, k, &b_m, n, &mut gemm_nt);

    let h = 11;
    let mut gates = vecf(&mut rng, 4 * h);
    let bias = vecf(&mut rng, 4 * h);
    tensor::lstm_gates(&mut gates, &bias, h);
    let c_prev = vecf(&mut rng, h);
    let (mut c, mut tanh_c, mut h_out) = (vec![0.0f32; h], vec![0.0f32; h], vec![0.0f32; h]);
    tensor::lstm_state(&gates, &c_prev, &mut c, &mut tanh_c, &mut h_out);
    let dh = vecf(&mut rng, h);
    let mut dc = vecf(&mut rng, h);
    let mut dz = vec![0.0f32; 4 * h];
    tensor::lstm_backward_gates(&gates, &tanh_c, &c_prev, &dh, &mut dc, &mut dz);

    let mut softmax = vecf(&mut rng, 19);
    tensor::softmax_inplace(&mut softmax);

    let n_p = 133;
    let mut adam_w = vecf(&mut rng, n_p);
    let mut adam_g = vecf(&mut rng, n_p);
    let mut adam_m = vecf(&mut rng, n_p);
    let mut adam_v: Vec<f32> = (0..n_p).map(|_| rng.gen_range(0.0..1.0)).collect();
    tensor::adam_step_consume(
        &mut adam_w,
        &mut adam_g,
        &mut adam_m,
        &mut adam_v,
        0.01,
        0.9,
        0.999,
        1e-8,
        0.5,
        0.3,
        0.7,
    );

    // The flush-to-zero kernels' AVX2 path is hand-written assembly, not
    // a re-emitted body: on inputs that make no subnormal it must give
    // the generic body's bits.
    let sq_sum_ftz = tensor::sq_sum_ftz(&w);
    let mut adam_ftz_w = vecf(&mut rng, n_p);
    let mut adam_ftz_g = vecf(&mut rng, n_p);
    let mut adam_ftz_m = vecf(&mut rng, n_p);
    let mut adam_ftz_v: Vec<f32> = (0..n_p).map(|_| rng.gen_range(0.0..1.0)).collect();
    tensor::adam_step_consume_ftz(
        &mut adam_ftz_w,
        &mut adam_ftz_g,
        &mut adam_ftz_m,
        &mut adam_ftz_v,
        0.01,
        0.9,
        0.999,
        1e-8,
        // Step 3's bias corrections: neither inverse is a power of two,
        // so the loop's multiplication order shows in the bits.
        0.271,
        0.002997,
        0.7,
    );

    SweepOut {
        dot,
        sq_sum,
        sparse_dot,
        axpy,
        gemv,
        gemv_t_acc,
        outer_acc,
        gemm_nt,
        gates,
        c,
        tanh_c,
        h_out,
        dz,
        dc,
        softmax,
        adam_w,
        adam_m,
        adam_v,
        sq_sum_ftz,
        adam_ftz_w,
        adam_ftz_m,
        adam_ftz_v,
    }
}

#[test]
fn avx2_and_generic_paths_are_bit_identical() {
    // Re-run detection so the forced-generic state from a previous run (or
    // test harness ordering) can't leak in.
    simd::force_generic(false);
    if tensor::simd_level() != "avx2" {
        // Non-AVX2 host (or FONDUER_NO_AVX2 set): only one path exists,
        // nothing to compare.
        eprintln!("skipping: kernel path is {}", tensor::simd_level());
        return;
    }
    for seed in 0..8u64 {
        let fast = run_sweep(seed);
        simd::force_generic(true);
        assert_eq!(tensor::simd_level(), "generic");
        let slow = run_sweep(seed);
        simd::force_generic(false);
        assert_eq!(tensor::simd_level(), "avx2");

        assert_eq!(fast.dot.to_bits(), slow.dot.to_bits(), "dot");
        assert_eq!(fast.sq_sum.to_bits(), slow.sq_sum.to_bits(), "sq_sum");
        assert_eq!(
            fast.sparse_dot.to_bits(),
            slow.sparse_dot.to_bits(),
            "sparse_dot"
        );
        assert_bits_eq(&fast.axpy, &slow.axpy, "axpy");
        assert_bits_eq(&fast.gemv, &slow.gemv, "gemv");
        assert_bits_eq(&fast.gemv_t_acc, &slow.gemv_t_acc, "gemv_t_acc");
        assert_bits_eq(&fast.outer_acc, &slow.outer_acc, "outer_acc");
        assert_bits_eq(&fast.gemm_nt, &slow.gemm_nt, "gemm_nt");
        assert_bits_eq(&fast.gates, &slow.gates, "lstm_gates");
        assert_bits_eq(&fast.c, &slow.c, "lstm_state c");
        assert_bits_eq(&fast.tanh_c, &slow.tanh_c, "lstm_state tanh_c");
        assert_bits_eq(&fast.h_out, &slow.h_out, "lstm_state h_out");
        assert_bits_eq(&fast.dz, &slow.dz, "lstm_backward_gates dz");
        assert_bits_eq(&fast.dc, &slow.dc, "lstm_backward_gates dc");
        assert_bits_eq(&fast.softmax, &slow.softmax, "softmax_inplace");
        assert_bits_eq(&fast.adam_w, &slow.adam_w, "adam w");
        assert_bits_eq(&fast.adam_m, &slow.adam_m, "adam m");
        assert_bits_eq(&fast.adam_v, &slow.adam_v, "adam v");
        assert_eq!(
            fast.sq_sum_ftz.to_bits(),
            slow.sq_sum_ftz.to_bits(),
            "sq_sum_ftz"
        );
        assert_bits_eq(&fast.adam_ftz_w, &slow.adam_ftz_w, "adam_ftz w");
        assert_bits_eq(&fast.adam_ftz_m, &slow.adam_ftz_m, "adam_ftz m");
        assert_bits_eq(&fast.adam_ftz_v, &slow.adam_ftz_v, "adam_ftz v");
    }
}
