//! # fonduer-tensor
//!
//! A small zero-dependency kernel library for the training hot path
//! (ROADMAP item 4): contiguous row-major [`Mat`] activations over a plain
//! `Vec<f32>`, explicit 8-lane-unrolled dense kernels
//! ([`kernels`]: `dot`/`gemv`/`gemm_nt`/`axpy`, fused LSTM gate and Adam
//! sweeps, branch-free polynomial transcendentals) written so LLVM
//! autovectorizes them on stable Rust, and sparse-dense gather kernels
//! ([`sparse`]) operating directly on CSR row-id slices — including the
//! relaxed-atomic variants the Hogwild learner needs.
//!
//! Design rules:
//!
//! * **No dependencies; `unsafe` only at the AVX2 boundary.** The crate's
//!   `unsafe` is all in [`kernels`]' AVX2 path. The dispatch (one call
//!   site, one shim declaration) re-emits the *same* safe kernel bodies
//!   behind `#[target_feature(enable = "avx2")]`, selected by runtime
//!   CPUID detection — wider registers, bit-identical results (the
//!   eight-accumulator reassociation is fixed in the source, and rustc
//!   never contracts float multiply-adds). The two flush-to-zero kernels
//!   ([`sq_sum_ftz`], [`adam_step_consume_ftz`]) are hand-written AVX2
//!   loops in `asm!`, one `unsafe fn` each: every block sets MXCSR's
//!   flush-to-zero bit and restores the saved word before it ends, since
//!   Rust code must never run with the float mode changed. Reductions
//!   reassociate into eight explicit accumulator lanes; elementwise
//!   sweeps are branch-free.
//! * **Scalar ground truth ships with the crate.** [`reference`] holds the
//!   naive single-accumulator formulations the fast paths are
//!   property-tested against; parity is asserted to 1e-5 everywhere the
//!   `nn`/`learning` crates consume these kernels.
//! * **Countable.** [`stats`] keeps process-wide relaxed call counters for
//!   gemv/gemm/sparse_dot so the learning stage can export per-epoch
//!   kernel-call telemetry without a dependency edge back to
//!   `fonduer-observe`.

#![warn(missing_docs)]

pub mod kernels;
pub mod mat;
pub mod reference;
pub mod simd;
pub mod sparse;

pub use kernels::{
    adam_step, adam_step_consume, adam_step_consume_ftz, add, axpy, dot, fast_exp, fast_sigmoid,
    fast_tanh, gemm_nn_acc, gemm_nt, gemm_tn_acc, gemv, gemv_acc, gemv_t_acc, lstm_backward_gates,
    lstm_gates, lstm_state, outer_acc, sigmoid_slice, softmax_inplace, sq_sum, sq_sum_ftz,
    tanh_slice,
};
pub use mat::Mat;
pub use simd::simd_level;
pub use sparse::{sparse_add, sparse_add_atomic, sparse_dot, sparse_dot_atomic};

/// Process-wide kernel-call counters (relaxed atomics; zero-dependency
/// stand-in for histogram/counter instrumentation, flushed into
/// `fonduer-observe` by the learning stage once per epoch).
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static GEMV_CALLS: AtomicU64 = AtomicU64::new(0);
    static GEMM_CALLS: AtomicU64 = AtomicU64::new(0);
    static SPARSE_DOT_CALLS: AtomicU64 = AtomicU64::new(0);
    static AXPY_CALLS: AtomicU64 = AtomicU64::new(0);

    #[inline]
    pub(crate) fn count_gemv() {
        GEMV_CALLS.fetch_add(1, Relaxed);
    }

    #[inline]
    pub(crate) fn count_gemm() {
        GEMM_CALLS.fetch_add(1, Relaxed);
    }

    #[inline]
    pub(crate) fn count_sparse_dot() {
        SPARSE_DOT_CALLS.fetch_add(1, Relaxed);
    }

    #[inline]
    pub(crate) fn count_axpy() {
        AXPY_CALLS.fetch_add(1, Relaxed);
    }

    /// A snapshot of the kernel-call counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct Stats {
        /// `gemv`/`gemv_acc`/`gemv_t_acc` calls.
        pub gemv_calls: u64,
        /// `gemm_*` calls.
        pub gemm_calls: u64,
        /// `sparse_dot`/`sparse_dot_atomic` calls.
        pub sparse_dot_calls: u64,
        /// `axpy` calls (including those issued inside other kernels).
        pub axpy_calls: u64,
    }

    /// Read the current counter values.
    pub fn snapshot() -> Stats {
        Stats {
            gemv_calls: GEMV_CALLS.load(Relaxed),
            gemm_calls: GEMM_CALLS.load(Relaxed),
            sparse_dot_calls: SPARSE_DOT_CALLS.load(Relaxed),
            axpy_calls: AXPY_CALLS.load(Relaxed),
        }
    }

    /// Counter deltas between two snapshots (saturating).
    pub fn delta(before: Stats, after: Stats) -> Stats {
        Stats {
            gemv_calls: after.gemv_calls.saturating_sub(before.gemv_calls),
            gemm_calls: after.gemm_calls.saturating_sub(before.gemm_calls),
            sparse_dot_calls: after
                .sparse_dot_calls
                .saturating_sub(before.sparse_dot_calls),
            axpy_calls: after.axpy_calls.saturating_sub(before.axpy_calls),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_count_kernel_calls() {
        let before = stats::snapshot();
        let w = vec![1.0f32; 12];
        let x = vec![1.0f32; 4];
        let mut y = vec![0.0f32; 3];
        gemv(&w, 3, 4, &x, &mut y);
        let _ = sparse_dot(&w, &[0, 3]);
        let after = stats::snapshot();
        let d = stats::delta(before, after);
        assert!(d.gemv_calls >= 1);
        assert!(d.sparse_dot_calls >= 1);
    }
}
