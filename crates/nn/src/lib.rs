//! # fonduer-nn
//!
//! From-scratch neural-network substrate for Fonduer's learning stage: flat
//! parameter storage with Adam ([`store`]), linear and embedding layers
//! ([`layers`]), an LSTM cell and bidirectional LSTM with full BPTT
//! ([`lstm`], paper §2.2), word attention ([`attention`], §4.2), and the
//! noise-aware loss used to train against probabilistic labels ([`loss`],
//! Appendix A).
//!
//! Every layer exposes explicit `forward`/`backward` pairs; gradients
//! accumulate into the shared [`ParamStore`] so that composite models (see
//! `fonduer-learning`) are trained with one `zero_grad` / backward sweep /
//! `adam_step` cycle. All layers are verified against numerical gradients
//! in their tests.
//!
//! Activations are flat row-major `fonduer_tensor::Mat` matrices in
//! caller-owned, reused caches, driven through unrolled kernels. Each
//! layer has one path — `forward_flat`/`backward_flat` on the LSTMs and
//! attention, `forward_into`/`backward_acc` on [`Linear`],
//! `gather_rows`/`scatter_grad` on [`Embedding`] — and it serves training,
//! inference and the document-level RNN alike. The original
//! `Vec<Vec<f32>>` scalar formulation is frozen in
//! [`reference`](mod@reference) and every flat path is tested to 1e-5
//! parity against it.

#![warn(missing_docs)]

pub mod attention;
pub mod layers;
pub mod loss;
pub mod lstm;
pub mod persist;
pub mod reference;
pub mod store;
pub mod testutil;

pub use attention::{Attention, AttentionCache};
pub use layers::{Embedding, Linear};
pub use loss::{batch_bce, bce_with_logit, sigmoid};
pub use lstm::{BiLstm, BiLstmCache, LstmCache, LstmCell};
pub use persist::{load_weights, save_weights, PersistError};
pub use store::{ParamId, ParamStore};
