//! # fonduer-supervision
//!
//! Weak supervision via data programming (paper §3.2, §4.3, Appendix A) —
//! the from-scratch stand-in for Snorkel:
//!
//! * [`lf`] — labeling functions over any modality of the data model;
//! * [`matrix`] — the label matrix Λ with coverage/overlap/conflict metrics,
//!   and its one-pass vote index;
//! * [`diagnostics`] — the per-LF error-analysis table (coverage, overlap,
//!   conflict, empirical accuracy vs. gold) users iterate on (§3.3/§5);
//! * [`model`] — the EM generative model that denoises LF votes into
//!   probabilistic training labels (plus a majority-vote baseline);
//! * [`user_study`] — mechanical annotator models replaying the §6 user
//!   study's measured throughputs;
//! * [`active`] — active-learning acquisition strategies (Appendix D).

#![warn(missing_docs)]

pub mod active;
pub mod diagnostics;
pub mod lf;
pub mod matrix;
pub mod model;
pub mod user_study;

pub use active::{
    coverage_gap_sampling, density_weighted_sampling, disagreement_sampling, uncertainty_sampling,
    Ranked,
};
pub use diagnostics::{LfDiagnostics, LfDiagnosticsRow};
pub use lf::{filter_by_metadata, LabelingFunction, Modality, ABSTAIN, FALSE, TRUE};
pub use matrix::{LabelMatrix, LabelVotes};
pub use model::{majority_vote, GenerativeModel, GenerativeOptions};
pub use user_study::{modality_distribution, LfProcess, ManualProcess};
