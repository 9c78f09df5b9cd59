//! Labeling functions (paper §3.2 "Supervision", §4.3, Appendix A).
//!
//! A labeling function takes a candidate and emits +1 ("True"), −1
//! ("False"), or 0 (abstain). LFs may be noisy and may conflict; the
//! generative model reconciles them. Each LF is tagged with the data
//! modality it keys on, which drives the supervision-ablation study
//! (Figure 8: textual vs metadata LFs) and the user-study modality
//! breakdown (Figure 9, right).

use fonduer_candidates::Candidate;
use fonduer_datamodel::Document;
use std::sync::Arc;

/// Label emitted by a labeling function.
pub const TRUE: i8 = 1;
/// Negative label.
pub const FALSE: i8 = -1;
/// Abstention.
pub const ABSTAIN: i8 = 0;

/// The data modality a labeling function keys on (paper §6: "the most
/// common labeling functions in each modality").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modality {
    /// Textual characteristics of the mentions or their sentences.
    Textual,
    /// Markup-tree signals (tags, ancestors).
    Structural,
    /// Row/column signals.
    Tabular,
    /// Rendered-layout signals (alignment, page placement).
    Visual,
}

impl Modality {
    /// Whether this modality counts as "metadata" in the Figure 8 split
    /// ("Metadata includes structural, tabular, and visual information").
    pub fn is_metadata(self) -> bool {
        !matches!(self, Modality::Textual)
    }

    /// Label for figures.
    pub fn label(self) -> &'static str {
        match self {
            Modality::Textual => "Txt.",
            Modality::Structural => "Str.",
            Modality::Tabular => "Tab.",
            Modality::Visual => "Vis.",
        }
    }
}

/// The boxed predicate a labeling function wraps.
pub type LfFn = Box<dyn Fn(&Document, &Candidate) -> i8 + Send + Sync>;

/// A named, modality-tagged labeling function.
pub struct LabelingFunction {
    /// Human-readable name (shown in LF metric reports).
    pub name: String,
    /// The modality the LF keys on.
    pub modality: Modality,
    f: LfFn,
}

impl LabelingFunction {
    /// Create a labeling function from a closure.
    pub fn new<F>(name: impl Into<String>, modality: Modality, f: F) -> Self
    where
        F: Fn(&Document, &Candidate) -> i8 + Send + Sync + 'static,
    {
        Self {
            name: name.into(),
            modality,
            f: Box::new(f),
        }
    }

    /// Apply to one candidate.
    pub fn label(&self, doc: &Document, cand: &Candidate) -> i8 {
        let v = (self.f)(doc, cand);
        debug_assert!((-1..=1).contains(&v), "LF {} emitted {v}", self.name);
        v
    }

    /// This LF's votes on one document's candidates, in order — the
    /// per-document unit of LF application. Label shards keep one such
    /// column per LF, and [`LabelMatrix::push_rows`](crate::LabelMatrix::push_rows)
    /// assembles Λ from them.
    pub fn vote_column(&self, doc: &Document, cands: &[Candidate]) -> Arc<[i8]> {
        cands.iter().map(|c| self.label(doc, c)).collect()
    }
}

impl std::fmt::Debug for LabelingFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LabelingFunction")
            .field("name", &self.name)
            .field("modality", &self.modality)
            .finish_non_exhaustive()
    }
}

/// Filter a LF library down to one side of the Figure 8 split.
pub fn filter_by_metadata(lfs: &[LabelingFunction], metadata: bool) -> Vec<&LabelingFunction> {
    lfs.iter()
        .filter(|lf| lf.modality.is_metadata() == metadata)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fonduer_datamodel::{DocFormat, DocId, SentenceId, Span};

    fn dummy() -> (Document, Candidate) {
        (
            Document::new("d", DocFormat::Html),
            Candidate::new(DocId(0), vec![Span::new(SentenceId(0), 0, 1)]),
        )
    }

    #[test]
    fn lf_applies_closure() {
        let (d, c) = dummy();
        let lf = LabelingFunction::new("always_true", Modality::Textual, |_, _| TRUE);
        assert_eq!(lf.label(&d, &c), 1);
    }

    #[test]
    fn metadata_split() {
        let lfs = vec![
            LabelingFunction::new("t", Modality::Textual, |_, _| ABSTAIN),
            LabelingFunction::new("s", Modality::Structural, |_, _| ABSTAIN),
            LabelingFunction::new("tab", Modality::Tabular, |_, _| ABSTAIN),
            LabelingFunction::new("v", Modality::Visual, |_, _| ABSTAIN),
        ];
        let meta = filter_by_metadata(&lfs, true);
        assert_eq!(meta.len(), 3);
        let text = filter_by_metadata(&lfs, false);
        assert_eq!(text.len(), 1);
        assert_eq!(text[0].name, "t");
    }

    #[test]
    fn modality_labels() {
        assert_eq!(Modality::Tabular.label(), "Tab.");
        assert!(Modality::Visual.is_metadata());
        assert!(!Modality::Textual.is_metadata());
    }
}
