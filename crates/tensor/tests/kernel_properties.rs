//! Property tests: the unrolled 8-lane kernels must match the naive scalar
//! references across randomized shapes — explicitly including dimensions
//! that are not multiples of the unroll width, empty inputs, and length-1
//! edge cases.

use fonduer_tensor::{self as tensor, reference, Mat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROUNDS: usize = 200;

fn vecf(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

/// Shapes biased toward unroll-width boundaries: 0, 1, 7, 8, 9, 15, 16, 17…
fn dim(rng: &mut StdRng, allow_zero: bool) -> usize {
    let base = match rng.gen_range(0..4) {
        0 => rng.gen_range(0..3),   // tiny
        1 => rng.gen_range(6..10),  // around one lane block
        2 => rng.gen_range(14..18), // around two lane blocks
        _ => rng.gen_range(0..40),  // anything
    };
    if allow_zero {
        base
    } else {
        base.max(1)
    }
}

fn assert_close(a: f32, b: f32, tol: f32, what: &str) {
    let scale = 1.0f32.max(a.abs()).max(b.abs());
    assert!(
        (a - b).abs() <= tol * scale,
        "{what}: fast {a} vs reference {b}"
    );
}

#[test]
fn dot_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xd07);
    for _ in 0..ROUNDS {
        let n = dim(&mut rng, true);
        let a = vecf(&mut rng, n);
        let b = vecf(&mut rng, n);
        assert_close(
            tensor::dot(&a, &b),
            reference::dot(&a, &b),
            1e-5,
            &format!("dot len {n}"),
        );
    }
}

#[test]
fn gemv_matches_reference_on_odd_shapes() {
    let mut rng = StdRng::seed_from_u64(0x6e3);
    for _ in 0..ROUNDS {
        let rows = dim(&mut rng, true);
        let cols = dim(&mut rng, true);
        let w = vecf(&mut rng, rows * cols);
        let x = vecf(&mut rng, cols);
        let mut y = vec![0.0; rows];
        let mut y_ref = vec![0.0; rows];
        tensor::gemv(&w, rows, cols, &x, &mut y);
        reference::gemv(&w, rows, cols, &x, &mut y_ref);
        for (r, (a, b)) in y.iter().zip(&y_ref).enumerate() {
            assert_close(*a, *b, 1e-5, &format!("gemv {rows}x{cols} row {r}"));
        }
    }
}

#[test]
fn gemm_nt_matches_reference_on_odd_shapes() {
    let mut rng = StdRng::seed_from_u64(0x6e35);
    for _ in 0..ROUNDS {
        let m = dim(&mut rng, true);
        let k = dim(&mut rng, true);
        let n = dim(&mut rng, true);
        let a = vecf(&mut rng, m * k);
        let b = vecf(&mut rng, n * k);
        let mut c = vec![0.0; m * n];
        let mut c_ref = vec![0.0; m * n];
        tensor::gemm_nt(&a, m, k, &b, n, &mut c);
        reference::gemm_nt(&a, m, k, &b, n, &mut c_ref);
        for (i, (x, y)) in c.iter().zip(&c_ref).enumerate() {
            assert_close(*x, *y, 1e-5, &format!("gemm_nt {m}x{k}x{n} elem {i}"));
        }
    }
}

#[test]
fn sparse_dot_matches_reference_including_empty_and_len1() {
    let mut rng = StdRng::seed_from_u64(0x59a);
    for round in 0..ROUNDS {
        let n_cols = dim(&mut rng, false).max(2);
        let w = vecf(&mut rng, n_cols);
        // Explicitly cover 0 and 1 active ids in early rounds.
        let n_ids = match round {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(0..3 * n_cols),
        };
        let ids: Vec<u32> = (0..n_ids)
            .map(|_| rng.gen_range(0..n_cols as u32))
            .collect();
        assert_close(
            tensor::sparse_dot(&w, &ids),
            reference::sparse_dot(&w, &ids),
            1e-5,
            &format!("sparse_dot {n_ids} ids over {n_cols} cols"),
        );
    }
}

#[test]
fn fast_transcendentals_match_std() {
    let mut rng = StdRng::seed_from_u64(0x7a9);
    for _ in 0..10_000 {
        let x = rng.gen_range(-20.0f32..20.0);
        let (e, e_std) = (tensor::fast_exp(x), x.exp());
        assert!(
            (e - e_std).abs() <= 1e-5 * e_std.max(1e-30),
            "exp({x}): {e} vs {e_std}"
        );
        let (s, s_std) = (tensor::fast_sigmoid(x), reference::sigmoid(x));
        assert!((s - s_std).abs() < 1e-6, "sigmoid({x}): {s} vs {s_std}");
        let (t, t_std) = (tensor::fast_tanh(x), x.tanh());
        assert!((t - t_std).abs() < 1e-6, "tanh({x}): {t} vs {t_std}");
    }
}

#[test]
fn adam_step_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xada);
    for _ in 0..50 {
        let n = dim(&mut rng, true);
        let w0 = vecf(&mut rng, n);
        let g = vecf(&mut rng, n);
        let m0 = vecf(&mut rng, n);
        let v0: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let (mut w, mut m, mut v) = (w0.clone(), m0.clone(), v0.clone());
        let (mut w_ref, mut m_ref, mut v_ref) = (w0, m0, v0);
        let (lr, scale) = (0.01, rng.gen_range(0.1..1.0));
        tensor::adam_step(
            &mut w, &g, &mut m, &mut v, lr, 0.9, 0.999, 1e-8, 0.5, 0.3, scale,
        );
        reference::adam_step(
            &mut w_ref, &g, &mut m_ref, &mut v_ref, lr, 0.9, 0.999, 1e-8, 0.5, 0.3, scale,
        );
        for i in 0..n {
            assert_close(w[i], w_ref[i], 1e-5, &format!("adam w[{i}]"));
            assert_close(m[i], m_ref[i], 1e-5, &format!("adam m[{i}]"));
            assert_close(v[i], v_ref[i], 1e-5, &format!("adam v[{i}]"));
        }
    }
}

#[test]
fn mat_round_trips_and_resize_preserves_reuse() {
    let mut rng = StdRng::seed_from_u64(0x4a7);
    for _ in 0..ROUNDS {
        let rows = dim(&mut rng, true);
        let cols = dim(&mut rng, false);
        let rows_data: Vec<Vec<f32>> = (0..rows).map(|_| vecf(&mut rng, cols)).collect();
        let m = Mat::from_rows(&rows_data);
        assert_eq!(m.to_rows(), rows_data);
        // Shrinking then regrowing a Mat must always yield zeroed content.
        let mut w = Mat::zeros(rows, cols);
        for r in 0..rows {
            w.row_mut(r).fill(1.0);
        }
        w.resize(rows / 2, cols);
        w.resize(rows + 3, cols);
        assert!(w.as_slice().iter().all(|&x| x == 0.0), "resize must zero");
    }
}
