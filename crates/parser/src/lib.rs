//! # fonduer-parser
//!
//! Document parsing front end for Fonduer: converts raw HTML/XML markup into
//! the unified multimodal data model and attaches visual attributes via a
//! deterministic layout engine (the stand-in for the paper's Poppler + PDF
//! printer conversion pipeline, §3.1).
//!
//! * [`markup`] — tolerant HTML/XML tree parser;
//! * [`ingest`](mod@ingest) — markup tree →
//!   [`fonduer_datamodel::Document`], including table grids with spanning
//!   cells and structural attributes;
//! * [`layout`](mod@layout) — renders documents to pages/bounding boxes,
//!   with optional simulated conversion noise;
//! * [`align`] — word-sequence alignment across converted formats.
//!
//! ```
//! use fonduer_parser::{parse_document, ParseOptions};
//! use fonduer_datamodel::DocFormat;
//!
//! let html = "<h1>SMBT3904</h1><table><tr><td>IC</td><td>200</td></tr></table>";
//! let doc = parse_document("sheet", html, DocFormat::Pdf, &ParseOptions::default());
//! assert_eq!(doc.tables.len(), 1);
//! assert!(doc.sentences[0].visual.is_some()); // PDF docs get a rendering
//! ```

#![warn(missing_docs)]

pub mod align;
pub mod ingest;
pub mod layout;
pub mod markup;

pub use align::{align_words, Alignment};
pub use ingest::ingest;
pub use layout::{layout, LayoutOptions};
pub use markup::{decode_entities, parse, Element, Node};

use fonduer_datamodel::{Corpus, DocFormat, Document};
use fonduer_observe as observe;

/// Options for end-to-end document parsing.
#[derive(Debug, Clone, Default)]
pub struct ParseOptions {
    /// Layout options used when the format has a visual modality.
    pub layout: LayoutOptions,
}

/// Parse markup and, for formats with a visual modality, render it: the
/// complete "KBC initialization" document path (paper Phase 1).
pub fn parse_document(
    name: &str,
    markup_text: &str,
    format: DocFormat,
    opts: &ParseOptions,
) -> Document {
    let _span = observe::span("parse_doc");
    let start = std::time::Instant::now();
    let mut doc = ingest(name, markup_text, format);
    layout(&mut doc, &opts.layout);
    observe::hist_record("parse.doc_us", start.elapsed().as_micros() as u64);
    observe::counter("parser.documents", 1);
    observe::counter("parser.sentences", doc.sentences.len() as u64);
    observe::counter("parser.tables", doc.tables.len() as u64);
    doc
}

/// An unparsed input document: what corpus generators and loaders hand to
/// [`parse_corpus_parallel`].
#[derive(Debug, Clone)]
pub struct RawDoc {
    /// Document name.
    pub name: String,
    /// Raw HTML/XML markup.
    pub markup: String,
    /// Source format (decides whether a visual rendering is attached).
    pub format: DocFormat,
}

impl RawDoc {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, markup: impl Into<String>, format: DocFormat) -> Self {
        Self {
            name: name.into(),
            markup: markup.into(),
            format,
        }
    }
}

/// Parse a whole corpus across `n_threads` workers on the shared
/// [`fonduer_par::Pool`] — the paper's per-document parallel KBC
/// initialization phase. Documents are parsed independently and inserted in
/// input order, so document ids (and the resulting [`Corpus`]) are identical
/// to a sequential `parse_document` loop at every thread count.
/// `n_threads = 0` means auto-detect; `FONDUER_THREADS` overrides either.
pub fn parse_corpus_parallel(
    corpus_name: &str,
    raw: &[RawDoc],
    opts: &ParseOptions,
    n_threads: usize,
) -> Corpus {
    let _span = observe::span("parse_corpus");
    let pool = fonduer_par::Pool::new(n_threads);
    let docs = pool.par_map(raw, |r| parse_document(&r.name, &r.markup, r.format, opts));
    let mut corpus = Corpus::new(corpus_name);
    for doc in docs {
        corpus.add(doc);
    }
    corpus
}
