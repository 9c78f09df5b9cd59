//! # fonduer-nlp
//!
//! NLP preprocessing substrate for Fonduer (paper §3.1: "standard NLP
//! pre-processing tools are used to generate linguistic attributes, such as
//! lemmas, parts of speech tags, named entity recognition tags ... for each
//! Sentence"). Everything is rule-based and deterministic — a from-scratch
//! stand-in for CoreNLP-style tooling, documented as a substitution in
//! DESIGN.md.
//!
//! * [`token`] — span-based tokenizer aware of numbers, units, part codes,
//!   intervals; emits byte offsets into the source text, no `String`s;
//! * [`sentence`] — sentence splitter with abbreviation/decimal protection;
//! * [`tag`] — POS tagger, lemmatizer, entity-style tagger;
//! * [`ngram`] — n-gram helpers used by matchers and labeling functions;
//! * [`vocab`] — hashed vocabulary backing trainable word embeddings;
//! * [`preprocess`] — fused split→tokenize→tag pass writing the document
//!   arena directly, plus the allocating `SentenceData` compatibility path.
//!
//! The tokenizer and the sentence splitter scan bytes with plain loops over
//! one private byte-class table: no `unsafe`, no vector path and no
//! runtime dispatch.

#![warn(missing_docs)]

pub mod ngram;
pub mod preprocess;
mod scan;
pub mod sentence;
pub mod tag;
pub mod token;
pub mod vocab;

pub use ngram::{contains_word, ngrams, up_to_ngrams};
pub use preprocess::{
    preprocess, preprocess_into, preprocess_sentence, preprocess_sentence_into, NlpScratch,
};
pub use sentence::{sentence_texts, split_sentences};
pub use tag::{is_number, lemmatize, lower_into, ner_tag, pos_tag, UNITS};
#[allow(deprecated)]
pub use token::token_texts;
pub use token::{tokenize, tokenize_into, Token};
pub use vocab::{fnv1a, HashedVocab};

/// The tokenizer's scan path, printed next to `fonduer_tensor::simd_level()`
/// in benchmark metadata. Always `"scalar"`: every byte-class scan is a
/// plain byte loop, and no environment variable changes it.
pub fn simd_level() -> &'static str {
    "scalar"
}
