//! # fonduer-features
//!
//! Fonduer's extended multimodal feature library (paper §4.2, Appendix B,
//! Table 7): automatically generated structural, tabular, and visual
//! features that augment learned textual representations, "only obtainable
//! through traversing and accessing modality attributes stored in the data
//! model".
//!
//! Also home to the scalability machinery of Appendix C:
//! * [`featurizer::Featurizer`] caches mention-level features per document
//!   (C.1's 100× speed-up);
//! * [`intern`] provides the allocation-free emission path: an arena
//!   [`FeatureVocab`], the reusable [`FeatureSink`], and the
//!   feature-hashing mode;
//! * [`featurizer::Featurizer::featurize_doc`] featurizes one document into
//!   a [`DocFeatureShard`], [`DocFeatureShard::resolve`] interns its names
//!   into a name table once, and [`merge_shards`] stitches resolved shards
//!   in input order with array lookups: the session's per-document path,
//!   and the parallel corpus-level map;
//! * [`sparse`] provides the presence-only CSR matrix the featurizer
//!   outputs, and the valued LIL and COO representations whose access
//!   patterns C.2 compares.

#![warn(missing_docs)]
#![deny(clippy::redundant_clone)]

pub mod binary;
pub mod config;
pub mod featurizer;
pub mod intern;
pub mod modality;
pub mod sparse;
pub mod unary;

pub use binary::{binary_features, binary_features_into};
pub use config::FeatureConfig;
pub use featurizer::{merge_shards, CacheStats, DocFeatureShard, FeatureSet, Featurizer};
pub use intern::{FeatureSink, FeatureVocab};
pub use modality::{modality_index, modality_of, MODALITIES};
pub use sparse::{CooMatrix, CsrMatrix, LilMatrix, SparseAccess};
pub use unary::{unary_features, unary_features_into};
