//! A corpus: the collection of parsed documents a KBC task runs over.

use crate::document::Document;
use crate::ids::DocId;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// An ordered collection of documents with stable [`DocId`]s.
///
/// Each document is stored once behind an [`Arc`], so cloning a corpus
/// copies pointers, not documents: a clone shares every document with its
/// source until one side replaces or removes it. Each entry also memoizes
/// the document's [`content_hash`](Document::content_hash), filled on first
/// use by [`Corpus::content_hash`] and carried by clones. A corpus never
/// hands out `&mut Document`, so a memo cannot go stale.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Corpus {
    /// Corpus name (e.g. `"electronics"`).
    pub name: String,
    docs: Vec<Entry>,
}

/// One corpus slot: a shared document and its memoized content hash.
#[derive(Debug, Clone)]
struct Entry {
    doc: Arc<Document>,
    hash: OnceLock<u64>,
}

impl Entry {
    fn new(doc: Document) -> Self {
        Self {
            doc: Arc::new(doc),
            hash: OnceLock::new(),
        }
    }
}

impl Corpus {
    /// Create an empty corpus.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            docs: Vec::new(),
        }
    }

    /// Append a document, returning its id.
    pub fn add(&mut self, doc: Document) -> DocId {
        let id = DocId::from_usize(self.docs.len());
        self.docs.push(Entry::new(doc));
        id
    }

    /// Replace the document at `id` in place, returning the previous one.
    /// The id stays valid and every other document keeps its position.
    /// A clone of this corpus that shares the previous document keeps it.
    ///
    /// Panics when `id` is out of range.
    pub fn replace(&mut self, id: DocId, doc: Document) -> Arc<Document> {
        std::mem::replace(&mut self.docs[id.index()], Entry::new(doc)).doc
    }

    /// Remove and return the document at `id`. Every later document shifts
    /// down one position, so previously issued `DocId`s past `id` now name
    /// different documents — callers holding derived artifacts (candidates,
    /// feature rows) must re-key them by document *content*, not position.
    ///
    /// Panics when `id` is out of range; sessions bounds-check first and
    /// surface a typed `DocNotFound` error instead.
    pub fn remove(&mut self, id: DocId) -> Arc<Document> {
        self.docs.remove(id.index()).doc
    }

    /// Position of the first document named `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<DocId> {
        self.docs
            .iter()
            .position(|e| e.doc.name == name)
            .map(DocId::from_usize)
    }

    /// Number of documents named `name`. Document names are expected to be
    /// unique (the train/test split and gold KB key on them); upserts treat
    /// a count above one as a conflict.
    pub fn count_named(&self, name: &str) -> usize {
        self.docs.iter().filter(|e| e.doc.name == name).count()
    }

    /// Look up a document.
    ///
    /// Panics when `id` is out of range; use [`Corpus::get`] for the
    /// non-panicking variant.
    #[inline]
    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.index()].doc
    }

    /// Look up a document, returning `None` when `id` does not belong to
    /// this corpus (e.g. a candidate carried over from a different corpus).
    #[inline]
    pub fn get(&self, id: DocId) -> Option<&Document> {
        self.docs.get(id.index()).map(|e| &*e.doc)
    }

    /// [`Document::content_hash`] of the document at `id`, computed once
    /// per corpus entry: later calls, and clones of this corpus, read the
    /// memo.
    ///
    /// Panics when `id` is out of range.
    #[inline]
    pub fn content_hash(&self, id: DocId) -> u64 {
        let e = &self.docs[id.index()];
        *e.hash.get_or_init(|| e.doc.content_hash())
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Iterate over `(id, document)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &Document)> {
        self.docs
            .iter()
            .enumerate()
            .map(|(i, e)| (DocId::from_usize(i), &*e.doc))
    }

    /// All document ids.
    pub fn doc_ids(&self) -> impl Iterator<Item = DocId> + '_ {
        (0..self.docs.len()).map(DocId::from_usize)
    }

    /// Total words across all documents.
    pub fn word_count(&self) -> usize {
        self.iter().map(|(_, d)| d.word_count()).sum()
    }

    /// Total sentences across all documents.
    pub fn sentence_count(&self) -> usize {
        self.iter().map(|(_, d)| d.sentences.len()).sum()
    }

    /// Approximate corpus size in bytes (Table 1's "Size" column).
    pub fn approx_bytes(&self) -> usize {
        self.iter().map(|(_, d)| d.approx_bytes()).sum()
    }
}

impl std::ops::Index<DocId> for Corpus {
    type Output = Document;

    fn index(&self, id: DocId) -> &Document {
        self.doc(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::DocFormat;

    #[test]
    fn corpus_ids_are_stable() {
        let mut c = Corpus::new("test");
        assert!(c.is_empty());
        let a = c.add(Document::new("a", DocFormat::Pdf));
        let b = c.add(Document::new("b", DocFormat::Pdf));
        assert_eq!(a, DocId(0));
        assert_eq!(b, DocId(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.doc(b).name, "b");
        assert_eq!(c[a].name, "a");
        assert_eq!(c.get(b).map(|d| d.name.as_str()), Some("b"));
        assert!(c.get(DocId(99)).is_none());
        let names: Vec<&str> = c.iter().map(|(_, d)| d.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn replace_and_remove_mutate_in_place() {
        let mut c = Corpus::new("test");
        c.add(Document::new("a", DocFormat::Pdf));
        c.add(Document::new("b", DocFormat::Pdf));
        c.add(Document::new("c", DocFormat::Pdf));
        assert_eq!(c.index_of("b"), Some(DocId(1)));
        assert_eq!(c.index_of("zzz"), None);
        assert_eq!(c.count_named("b"), 1);

        let old = c.replace(DocId(1), Document::new("b2", DocFormat::Html));
        assert_eq!(old.name, "b");
        assert_eq!(c.len(), 3);
        assert_eq!(c.doc(DocId(1)).name, "b2");

        let removed = c.remove(DocId(0));
        assert_eq!(removed.name, "a");
        assert_eq!(c.len(), 2);
        // Later documents shifted down one position.
        assert_eq!(c.doc(DocId(0)).name, "b2");
        assert_eq!(c.doc(DocId(1)).name, "c");
    }

    #[test]
    fn clones_share_documents_and_carry_memos() {
        let mut c = Corpus::new("test");
        for name in ["a", "b", "c"] {
            c.add(Document::new(name, DocFormat::Pdf));
        }
        let a_hash = c.content_hash(DocId(0));
        let copy = c.clone();
        for id in c.doc_ids() {
            assert!(std::ptr::eq(c.doc(id), copy.doc(id)), "{id:?} was copied");
        }
        assert_eq!(copy.docs[0].hash.get(), Some(&a_hash), "filled memo lost");
        assert_eq!(copy.docs[1].hash.get(), None, "memo filled by a clone");

        // Replacing in one corpus leaves the other's document alone.
        let old = c.replace(DocId(1), Document::new("b", DocFormat::Html));
        assert!(std::ptr::eq(&*old, copy.doc(DocId(1))));
        assert_eq!(copy.doc(DocId(1)).format, DocFormat::Pdf);
        assert_eq!(c.doc(DocId(1)).format, DocFormat::Html);
    }

    #[test]
    fn memo_matches_the_document_after_add_replace_and_remove() {
        fn assert_memos(c: &Corpus, ctx: &str) {
            for id in c.doc_ids() {
                assert_eq!(
                    c.content_hash(id),
                    c.doc(id).content_hash(),
                    "{ctx}: {id:?}"
                );
            }
        }
        let mut c = Corpus::new("test");
        for name in ["a", "b", "c"] {
            c.add(Document::new(name, DocFormat::Pdf));
        }
        assert_memos(&c, "after add");

        let before = c.content_hash(DocId(1));
        c.replace(DocId(1), Document::new("b", DocFormat::Html));
        assert_ne!(
            c.content_hash(DocId(1)),
            before,
            "replace kept the old memo"
        );
        assert_memos(&c, "after replace");

        c.remove(DocId(0));
        assert!(
            c.docs.iter().all(|e| e.hash.get().is_some()),
            "shifted slots lost their memos"
        );
        assert_memos(&c, "after remove");
    }

    #[test]
    fn counts_aggregate() {
        let mut c = Corpus::new("test");
        c.add(Document::new("a", DocFormat::Pdf));
        assert_eq!(c.word_count(), 0);
        assert_eq!(c.sentence_count(), 0);
    }
}
