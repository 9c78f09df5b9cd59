//! The document context DAG (paper §3.1, Figure 3).
//!
//! A [`Document`] owns flat arenas of every context type. The DAG structure
//! of Figure 3 is expressed by child-id lists on each node plus a `parent`
//! back-pointer, so that both downward traversal (candidate extraction walks
//! leaves) and upward traversal (feature generation walks ancestors) are
//! cheap index lookups rather than pointer chasing.
//!
//! # Document memory layout
//!
//! Sentence text and per-token attributes live in *document-level arenas*
//! rather than per-sentence `String`/`Vec<String>` fields: one contiguous
//! text buffer holds every sentence's text back-to-back, flat arrays hold
//! `(start, end)` byte offsets (sentence-relative) for each token, and the
//! word / lemma / POS / NER of each token are interned symbol ids into a
//! per-document [`crate::SymbolArena`]. A [`Sentence`] is then just a pair
//! of ranges — `[text_start, text_end)` into the text buffer and
//! `[tok_start, tok_end)` into the token arrays — so parsing a document
//! performs O(sentences) allocations instead of O(tokens), and downstream
//! consumers read words as `&str` slices borrowed from the arena with zero
//! copies.

use crate::attrs::{BBox, DocFormat, Structural, WordVisual};
use crate::ids::*;
use crate::intern::SymbolArena;
use serde::{Deserialize, Serialize};

/// A top-level section of a document. Sections partition the document into
/// sequences of text blocks, tables, and figures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Section {
    /// 0-based position of this section within the document.
    pub position: u32,
    /// Children in document order (text blocks, tables, figures).
    pub children: Vec<ContextRef>,
}

/// A block of running text (document header, description paragraph, etc.).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TextBlock {
    /// The owning section.
    pub parent: SectionId,
    /// 0-based position among the section's children.
    pub position: u32,
    /// Paragraphs inside this block, in order.
    pub paragraphs: Vec<ParagraphId>,
}

/// A table: a grid of cells, addressable by rows and columns, optionally
/// with a caption.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// The owning section.
    pub parent: SectionId,
    /// 0-based position among the section's children.
    pub position: u32,
    /// Number of row slots in the grid.
    pub n_rows: u32,
    /// Number of column slots in the grid.
    pub n_cols: u32,
    /// Row contexts, in order.
    pub rows: Vec<RowId>,
    /// Column contexts, in order.
    pub columns: Vec<ColumnId>,
    /// All cells, in row-major document order.
    pub cells: Vec<CellId>,
    /// Optional caption.
    pub caption: Option<CaptionId>,
}

/// A figure (image). Fonduer stores figures as contexts so that captions and
/// surrounding text can reference them; their pixel content is not modeled.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure {
    /// The owning section.
    pub parent: SectionId,
    /// 0-based position among the section's children.
    pub position: u32,
    /// Source reference (e.g. a filename) from the markup.
    pub src: String,
    /// Optional caption.
    pub caption: Option<CaptionId>,
}

/// A caption attached to a table or figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Caption {
    /// The table or figure this caption belongs to.
    pub parent: ContextRef,
    /// Paragraphs inside the caption.
    pub paragraphs: Vec<ParagraphId>,
}

/// A table row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// The owning table.
    pub table: TableId,
    /// 0-based row index within the table grid.
    pub index: u32,
    /// Cells whose row span covers this row.
    pub cells: Vec<CellId>,
}

/// A table column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Column {
    /// The owning table.
    pub table: TableId,
    /// 0-based column index within the table grid.
    pub index: u32,
    /// Cells whose column span covers this column.
    pub cells: Vec<CellId>,
}

/// A table cell. Spanning cells cover inclusive ranges of rows and columns
/// (paper Example 1.4: tables come with "a variety of spanning cells, header
/// hierarchies, and layout orientations").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    /// The owning table.
    pub table: TableId,
    /// First grid row covered (inclusive).
    pub row_start: u32,
    /// Last grid row covered (inclusive).
    pub row_end: u32,
    /// First grid column covered (inclusive).
    pub col_start: u32,
    /// Last grid column covered (inclusive).
    pub col_end: u32,
    /// Paragraphs inside this cell.
    pub paragraphs: Vec<ParagraphId>,
}

impl Cell {
    /// Number of grid rows this cell spans.
    pub fn row_span(&self) -> u32 {
        self.row_end - self.row_start + 1
    }

    /// Number of grid columns this cell spans.
    pub fn col_span(&self) -> u32 {
        self.col_end - self.col_start + 1
    }
}

/// A paragraph: the unit that groups sentences beneath any text-bearing
/// context (text block, cell, or caption).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Paragraph {
    /// The text block, cell, or caption containing this paragraph.
    pub parent: ContextRef,
    /// 0-based position within the parent.
    pub position: u32,
    /// Sentences in order.
    pub sentences: Vec<SentenceId>,
}

/// A sentence: the leaf context. The sentence owns no strings — its text is
/// a byte range of [`Document::text`] and its tokens are a range of the
/// document-level token arrays (see the module docs on memory layout).
/// Per-word attributes are read through the accessor methods, which resolve
/// against the owning document's arenas.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sentence {
    /// The owning paragraph.
    pub parent: ParagraphId,
    /// Global document-order index of this sentence (0-based). Used for
    /// textual distance features and document-scope iteration order.
    pub abs_position: u32,
    /// Start byte of this sentence's text in [`Document::text`].
    pub text_start: u32,
    /// End byte (exclusive) of this sentence's text in [`Document::text`].
    pub text_end: u32,
    /// First token index in the document token arrays.
    pub tok_start: u32,
    /// One past the last token index in the document token arrays.
    pub tok_end: u32,
    /// Visual attributes per word; `None` for formats without a rendering
    /// (native XML), `Some` with one entry per word otherwise.
    pub visual: Option<Vec<WordVisual>>,
    /// Structural (markup-tree) attributes of the sentence. `Arc` because
    /// every sentence of a paragraph shares the same markup position: the
    /// ingest path builds one `Structural` per markup element and the
    /// sentences share it by refcount instead of deep-cloning its tag,
    /// attribute, and ancestor strings.
    pub structural: std::sync::Arc<Structural>,
}

impl Sentence {
    /// The token range of this sentence within the document token arrays.
    #[inline]
    pub fn tok_range(&self) -> std::ops::Range<usize> {
        self.tok_start as usize..self.tok_end as usize
    }

    /// Full sentence text.
    #[inline]
    pub fn text<'d>(&'d self, doc: &'d Document) -> &'d str {
        &doc.text[self.text_start as usize..self.text_end as usize]
    }

    /// Word `i`.
    #[inline]
    pub fn word<'d>(&'d self, doc: &'d Document, i: usize) -> &'d str {
        debug_assert!(i < self.len());
        doc.symbols
            .resolve(doc.tok_words[self.tok_start as usize + i])
    }

    /// Lemma of word `i`.
    #[inline]
    pub fn lemma<'d>(&'d self, doc: &'d Document, i: usize) -> &'d str {
        debug_assert!(i < self.len());
        doc.symbols
            .resolve(doc.tok_lemmas[self.tok_start as usize + i])
    }

    /// POS tag of word `i`.
    #[inline]
    pub fn pos<'d>(&'d self, doc: &'d Document, i: usize) -> &'d str {
        debug_assert!(i < self.len());
        doc.symbols
            .resolve(doc.tok_pos[self.tok_start as usize + i])
    }

    /// NER tag of word `i`.
    #[inline]
    pub fn ner<'d>(&'d self, doc: &'d Document, i: usize) -> &'d str {
        debug_assert!(i < self.len());
        doc.symbols
            .resolve(doc.tok_ner[self.tok_start as usize + i])
    }

    /// Iterate over the words of this sentence, zero-copy.
    #[inline]
    pub fn words<'d>(&'d self, doc: &'d Document) -> impl Iterator<Item = &'d str> {
        doc.tok_words[self.tok_range()]
            .iter()
            .map(|&id| doc.symbols.resolve(id))
    }

    /// Iterate over the lemmas of this sentence, zero-copy.
    #[inline]
    pub fn lemmas<'d>(&'d self, doc: &'d Document) -> impl Iterator<Item = &'d str> {
        doc.tok_lemmas[self.tok_range()]
            .iter()
            .map(|&id| doc.symbols.resolve(id))
    }

    /// `(start, end)` byte offsets of each word within the sentence text.
    #[inline]
    pub fn char_offsets<'d>(&'d self, doc: &'d Document) -> &'d [(u32, u32)] {
        &doc.tok_offsets[self.tok_range()]
    }

    /// Number of words.
    #[inline]
    pub fn len(&self) -> usize {
        (self.tok_end - self.tok_start) as usize
    }

    /// Whether the sentence has no words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tok_end == self.tok_start
    }

    /// Page the sentence starts on, if visual information is available.
    pub fn page(&self) -> Option<u16> {
        self.visual.as_ref().and_then(|v| v.first()).map(|w| w.page)
    }

    /// Union bounding box of a word range `[start, end)`, if visual
    /// information is available and the range is non-empty and in bounds.
    pub fn bbox_of(&self, start: usize, end: usize) -> Option<BBox> {
        let vis = self.visual.as_ref()?;
        if start >= end || end > vis.len() {
            return None;
        }
        let mut acc = vis[start].bbox;
        for w in &vis[start + 1..end] {
            acc = acc.union(&w.bbox);
        }
        Some(acc)
    }
}

/// A parsed document: the root of the context DAG, owning flat arenas of all
/// context nodes (paper Figure 3) plus the text/token arenas that sentences
/// index into (see the module docs on memory layout).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Document {
    /// Document name (stable across runs; e.g. a filename).
    pub name: String,
    /// Source format.
    pub format: DocFormat,
    /// Sections in order.
    pub sections: Vec<Section>,
    /// Arena of text blocks.
    pub text_blocks: Vec<TextBlock>,
    /// Arena of tables.
    pub tables: Vec<Table>,
    /// Arena of figures.
    pub figures: Vec<Figure>,
    /// Arena of captions.
    pub captions: Vec<Caption>,
    /// Arena of rows.
    pub rows: Vec<Row>,
    /// Arena of columns.
    pub columns: Vec<Column>,
    /// Arena of cells.
    pub cells: Vec<Cell>,
    /// Arena of paragraphs.
    pub paragraphs: Vec<Paragraph>,
    /// Arena of sentences, in document order.
    pub sentences: Vec<Sentence>,
    /// Every sentence's text, concatenated in document order. Sentences
    /// address it by `[text_start, text_end)`.
    pub text: String,
    /// `(start, end)` byte offsets of each token, relative to its sentence's
    /// text slice. Indexed by sentence `[tok_start, tok_end)` ranges.
    pub tok_offsets: Vec<(u32, u32)>,
    /// Interned word symbol of each token.
    pub tok_words: Vec<u32>,
    /// Interned lemma symbol of each token.
    pub tok_lemmas: Vec<u32>,
    /// Interned POS-tag symbol of each token.
    pub tok_pos: Vec<u32>,
    /// Interned NER-tag symbol of each token.
    pub tok_ner: Vec<u32>,
    /// Per-document symbol table backing the token attribute arrays.
    pub symbols: SymbolArena,
}

impl Document {
    /// Create an empty document.
    pub fn new(name: impl Into<String>, format: DocFormat) -> Self {
        Self {
            name: name.into(),
            format,
            sections: Vec::new(),
            text_blocks: Vec::new(),
            tables: Vec::new(),
            figures: Vec::new(),
            captions: Vec::new(),
            rows: Vec::new(),
            columns: Vec::new(),
            cells: Vec::new(),
            paragraphs: Vec::new(),
            sentences: Vec::new(),
            text: String::new(),
            tok_offsets: Vec::new(),
            tok_words: Vec::new(),
            tok_lemmas: Vec::new(),
            tok_pos: Vec::new(),
            tok_ner: Vec::new(),
            symbols: SymbolArena::new(),
        }
    }

    /// Stable 64-bit hash of the document's full parsed content — name,
    /// structure arenas, text, linguistic and visual attributes. Two
    /// documents hash equal iff their logical content is identical, so
    /// pipeline sessions can key per-document artifact shards on
    /// `(content_hash, stage fingerprint)` and treat an upsert that did
    /// not actually change the document as a pure cache hit.
    ///
    /// The hash mixes *resolved* logical values, never raw symbol ids, so
    /// it is independent of the physical memory layout: symbol intern
    /// order, arena placement, and buffer capacities do not affect it.
    /// Each distinct symbol string is hashed once; a token then mixes the
    /// 64-bit hashes of its word, lemma, POS and NER symbols.
    pub fn content_hash(&self) -> u64 {
        let sym: Vec<u64> = (0..self.symbols.len() as u32)
            .map(|id| str_hash(self.symbols.resolve(id)))
            .collect();
        let mut h = Mix::new();
        h.str_(&self.name);
        h.str_(self.format.label());
        h.len(self.sections.len());
        for s in &self.sections {
            h.u32_(s.position);
            h.len(s.children.len());
            for &c in &s.children {
                h.ctx(c);
            }
        }
        h.len(self.text_blocks.len());
        for t in &self.text_blocks {
            h.pair(t.parent.0, t.position);
            h.ids(&t.paragraphs);
        }
        h.len(self.tables.len());
        for t in &self.tables {
            h.pair(t.parent.0, t.position);
            h.pair(t.n_rows, t.n_cols);
            h.ids(&t.rows);
            h.ids(&t.columns);
            h.ids(&t.cells);
            h.u32_(t.caption.map_or(u32::MAX, |c| c.0));
        }
        h.len(self.figures.len());
        for f in &self.figures {
            h.pair(f.parent.0, f.position);
            h.str_(&f.src);
            h.u32_(f.caption.map_or(u32::MAX, |c| c.0));
        }
        h.len(self.captions.len());
        for c in &self.captions {
            h.ctx(c.parent);
            h.ids(&c.paragraphs);
        }
        h.len(self.rows.len());
        for r in &self.rows {
            h.pair(r.table.0, r.index);
            h.ids(&r.cells);
        }
        h.len(self.columns.len());
        for c in &self.columns {
            h.pair(c.table.0, c.index);
            h.ids(&c.cells);
        }
        h.len(self.cells.len());
        for c in &self.cells {
            h.u32_(c.table.0);
            h.pair(c.row_start, c.row_end);
            h.pair(c.col_start, c.col_end);
            h.ids(&c.paragraphs);
        }
        h.len(self.paragraphs.len());
        for p in &self.paragraphs {
            h.ctx(p.parent);
            h.u32_(p.position);
            h.ids(&p.sentences);
        }
        h.len(self.sentences.len());
        // Consecutive words usually share a font, and the sentences of one
        // markup element share one `Structural`: hash each run once.
        let mut font: (&str, u64) = ("", str_hash(""));
        let mut structural: Option<(&std::sync::Arc<Structural>, u64)> = None;
        for s in &self.sentences {
            h.pair(s.parent.0, s.abs_position);
            h.str_(s.text(self));
            h.len(s.len());
            // Tokens and visual words mix into four independent lanes, so
            // that consecutive multiplies need not wait on each other; the
            // lanes fold into `h` at the end of the sentence.
            let (mut tok_a, mut tok_b) = (Mix::new(), Mix::new());
            let (mut vis_a, mut vis_b) = (Mix::new(), Mix::new());
            for i in s.tok_range() {
                let (a, b) = self.tok_offsets[i];
                tok_a.pair(a, b);
                tok_b.word(sym[self.tok_words[i] as usize]);
                tok_a.word(sym[self.tok_lemmas[i] as usize]);
                tok_b.word(sym[self.tok_pos[i] as usize]);
                tok_a.word(sym[self.tok_ner[i] as usize]);
            }
            match &s.visual {
                None => h.word(0),
                Some(vis) => {
                    h.word(1);
                    h.len(vis.len());
                    for w in vis {
                        vis_a.pair(
                            u32::from(w.page) | u32::from(w.bold) << 16,
                            w.font_size.to_bits(),
                        );
                        vis_b.pair(w.bbox.x0.to_bits(), w.bbox.y0.to_bits());
                        vis_a.pair(w.bbox.x1.to_bits(), w.bbox.y1.to_bits());
                        if !std::ptr::eq(font.0, &*w.font) && font.0 != w.font {
                            font = (&w.font, str_hash(&w.font));
                        }
                        vis_b.word(font.1);
                    }
                }
            }
            for lane in [tok_a, tok_b, vis_a, vis_b] {
                h.word(lane.0);
            }
            let sh = match structural {
                Some((prev, sh)) if std::sync::Arc::ptr_eq(prev, &s.structural) => sh,
                _ => structural_hash(&s.structural),
            };
            structural = Some((&s.structural, sh));
            h.word(sh);
        }
        h.0
    }

    /// Look up a sentence.
    #[inline]
    pub fn sentence(&self, id: SentenceId) -> &Sentence {
        &self.sentences[id.index()]
    }

    /// Look up a paragraph.
    #[inline]
    pub fn paragraph(&self, id: ParagraphId) -> &Paragraph {
        &self.paragraphs[id.index()]
    }

    /// Look up a cell.
    #[inline]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Look up a table.
    #[inline]
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Look up a row.
    #[inline]
    pub fn row(&self, id: RowId) -> &Row {
        &self.rows[id.index()]
    }

    /// Look up a column.
    #[inline]
    pub fn column(&self, id: ColumnId) -> &Column {
        &self.columns[id.index()]
    }

    /// Look up a caption.
    #[inline]
    pub fn caption(&self, id: CaptionId) -> &Caption {
        &self.captions[id.index()]
    }

    /// Look up a text block.
    #[inline]
    pub fn text_block(&self, id: TextBlockId) -> &TextBlock {
        &self.text_blocks[id.index()]
    }

    /// Look up a figure.
    #[inline]
    pub fn figure(&self, id: FigureId) -> &Figure {
        &self.figures[id.index()]
    }

    /// Look up a section.
    #[inline]
    pub fn section(&self, id: SectionId) -> &Section {
        &self.sections[id.index()]
    }

    /// Iterate over all sentence ids in document order.
    pub fn sentence_ids(&self) -> impl Iterator<Item = SentenceId> + '_ {
        (0..self.sentences.len()).map(SentenceId::from_usize)
    }

    /// Total number of words in the document.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.tok_words.len()
    }

    /// Approximate serialized size in bytes (used for Table 1's corpus-size
    /// column): full sentence text plus a fixed per-node overhead.
    pub fn approx_bytes(&self) -> usize {
        let nodes = self.sections.len()
            + self.text_blocks.len()
            + self.tables.len()
            + self.figures.len()
            + self.captions.len()
            + self.rows.len()
            + self.columns.len()
            + self.cells.len()
            + self.paragraphs.len()
            + self.sentences.len();
        self.text.len() + nodes * 64
    }
}

/// Word-at-a-time mixer over logical document content. Every field enters
/// as a fixed-width 64-bit word through a 64×64→128-bit multiply whose two
/// halves are xored together. Strings and lists are length-prefixed, so
/// adjacent fields cannot alias each other's words.
struct Mix(u64);

impl Mix {
    #[inline]
    fn new() -> Self {
        Mix(0x243f_6a88_85a3_08d3)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        let p = u128::from(self.0 ^ w) * 0x9e37_79b9_7f4a_7c15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    #[inline]
    fn u32_(&mut self, v: u32) {
        self.word(u64::from(v));
    }

    /// Two 32-bit fields in one word.
    #[inline]
    fn pair(&mut self, lo: u32, hi: u32) {
        self.word(u64::from(lo) | u64::from(hi) << 32);
    }

    #[inline]
    fn len(&mut self, n: usize) {
        self.word(n as u64);
    }

    /// Length, then the bytes eight at a time (the last word zero-padded).
    fn str_(&mut self, s: &str) {
        self.len(s.len());
        let mut chunks = s.as_bytes().chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
    }

    fn opt_str(&mut self, s: &Option<String>) {
        match s {
            None => self.word(0),
            Some(v) => {
                self.word(1);
                self.str_(v);
            }
        }
    }

    fn ctx(&mut self, c: ContextRef) {
        let (kind, idx) = match c {
            ContextRef::Document => (0u32, 0),
            ContextRef::Section(id) => (1, id.0),
            ContextRef::TextBlock(id) => (2, id.0),
            ContextRef::Table(id) => (3, id.0),
            ContextRef::Figure(id) => (4, id.0),
            ContextRef::Caption(id) => (5, id.0),
            ContextRef::Row(id) => (6, id.0),
            ContextRef::Column(id) => (7, id.0),
            ContextRef::Cell(id) => (8, id.0),
            ContextRef::Paragraph(id) => (9, id.0),
            ContextRef::Sentence(id) => (10, id.0),
        };
        self.pair(kind, idx);
    }

    fn ids<I: Copy + Into<u32>>(&mut self, ids: &[I]) {
        self.len(ids.len());
        for &id in ids {
            self.u32_(id.into());
        }
    }
}

fn str_hash(s: &str) -> u64 {
    let mut h = Mix::new();
    h.str_(s);
    h.0
}

fn structural_hash(s: &Structural) -> u64 {
    let mut h = Mix::new();
    h.str_(&s.tag);
    h.len(s.attrs.len());
    for (k, v) in &s.attrs {
        h.str_(k);
        h.str_(v);
    }
    h.str_(&s.parent_tag);
    h.opt_str(&s.prev_sibling_tag);
    h.opt_str(&s.next_sibling_tag);
    h.u32_(s.node_pos);
    for path in [&s.ancestor_tags, &s.ancestor_classes, &s.ancestor_ids] {
        h.len(path.len());
        for t in path.iter() {
            h.str_(t);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{DocumentBuilder, SentenceData};

    #[test]
    fn cell_spans() {
        let c = Cell {
            table: TableId(0),
            row_start: 1,
            row_end: 3,
            col_start: 0,
            col_end: 0,
            paragraphs: vec![],
        };
        assert_eq!(c.row_span(), 3);
        assert_eq!(c.col_span(), 1);
    }

    #[test]
    fn empty_document() {
        let d = Document::new("empty", DocFormat::Html);
        assert_eq!(d.word_count(), 0);
        assert_eq!(d.sentence_ids().count(), 0);
        assert!(d.approx_bytes() == 0);
    }

    fn one_sentence_doc(words: &[&str]) -> Document {
        let mut b = DocumentBuilder::new("d", DocFormat::Html);
        let sec = b.section();
        let tb = b.text_block(sec);
        let p = b.paragraph(ContextRef::TextBlock(tb));
        b.sentence(p, SentenceData::from_words(words));
        b.finish()
    }

    #[test]
    fn arena_accessors_resolve_tokens() {
        let d = one_sentence_doc(&["Storage", "temperature", "150"]);
        let s = &d.sentences[0];
        assert_eq!(s.len(), 3);
        assert_eq!(s.text(&d), "Storage temperature 150");
        assert_eq!(s.word(&d, 0), "Storage");
        assert_eq!(s.word(&d, 2), "150");
        assert_eq!(s.lemma(&d, 1), "temperature");
        assert_eq!(s.char_offsets(&d), &[(0, 7), (8, 19), (20, 23)]);
        assert_eq!(
            s.words(&d).collect::<Vec<_>>(),
            ["Storage", "temperature", "150"]
        );
    }

    #[test]
    fn arena_is_shared_across_sentences() {
        let mut b = DocumentBuilder::new("d", DocFormat::Html);
        let sec = b.section();
        let tb = b.text_block(sec);
        let p = b.paragraph(ContextRef::TextBlock(tb));
        b.sentence(p, SentenceData::from_words(&["volt", "amp"]));
        b.sentence(p, SentenceData::from_words(&["amp", "ohm"]));
        let d = b.finish();
        assert_eq!(d.text, "volt ampamp ohm");
        assert_eq!(d.word_count(), 4);
        // "amp" is interned once and shared by both sentences.
        assert_eq!(d.tok_words[1], d.tok_words[2]);
        assert_eq!(d.sentences[1].text(&d), "amp ohm");
        assert_eq!(d.sentences[1].word(&d, 1), "ohm");
    }

    #[test]
    fn sentence_bbox_union_and_page() {
        let vis = vec![
            WordVisual {
                page: 2,
                bbox: BBox::new(10.0, 10.0, 20.0, 15.0),
                font: "Arial".into(),
                font_size: 10.0,
                bold: false,
            },
            WordVisual {
                page: 2,
                bbox: BBox::new(22.0, 10.0, 40.0, 16.0),
                font: "Arial".into(),
                font_size: 10.0,
                bold: false,
            },
        ];
        let s = Sentence {
            parent: ParagraphId(0),
            abs_position: 0,
            text_start: 0,
            text_end: 5,
            tok_start: 0,
            tok_end: 2,
            visual: Some(vis),
            structural: std::sync::Arc::new(Structural::default()),
        };
        assert_eq!(s.page(), Some(2));
        let bb = s.bbox_of(0, 2).unwrap();
        assert_eq!(bb, BBox::new(10.0, 10.0, 40.0, 16.0));
        assert!(s.bbox_of(1, 1).is_none());
        assert!(s.bbox_of(0, 3).is_none());
    }

    #[test]
    fn sentence_without_visual_has_no_page() {
        let s = Sentence {
            parent: ParagraphId(0),
            abs_position: 0,
            text_start: 0,
            text_end: 0,
            tok_start: 0,
            tok_end: 0,
            visual: None,
            structural: std::sync::Arc::new(Structural::default()),
        };
        assert_eq!(s.page(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn content_hash_tracks_content() {
        let a = Document::new("a", DocFormat::Html);
        let a2 = Document::new("a", DocFormat::Html);
        assert_eq!(a.content_hash(), a2.content_hash());
        // A different name alone changes the hash.
        let b = Document::new("b", DocFormat::Html);
        assert_ne!(a.content_hash(), b.content_hash());
        // So does any content change under an unchanged name.
        let mut with = DocumentBuilder::new("a", DocFormat::Html);
        let sec = with.section();
        let tb = with.text_block(sec);
        let p = with.paragraph(ContextRef::TextBlock(tb));
        with.sentence(p, SentenceData::from_words(&["x"]));
        assert_ne!(a.content_hash(), with.finish().content_hash());
    }

    #[test]
    fn content_hash_ignores_intern_order() {
        // Same logical sentences, interned in different orders, must hash
        // identically: the hash streams resolved strings, not symbol ids.
        let build = |pre_intern: &[&str]| {
            let mut b = DocumentBuilder::new("d", DocFormat::Html);
            let sec = b.section();
            let tb = b.text_block(sec);
            let p = b.paragraph(ContextRef::TextBlock(tb));
            b.sentence(p, SentenceData::from_words(&["alpha", "beta"]));
            let mut d = b.finish();
            for s in pre_intern {
                d.symbols.intern(s);
            }
            d
        };
        let plain = build(&[]);
        let padded = build(&["zeta", "eta"]);
        assert_ne!(plain.symbols.len(), padded.symbols.len());
        assert_eq!(plain.content_hash(), padded.content_hash());
    }
}
