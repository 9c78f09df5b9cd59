//! Ingestion: markup tree → Fonduer data model.
//!
//! This is the structural half of Fonduer's document preprocessing (paper
//! §3.1): "we extract all the words in their original order. For structural
//! and tabular information, we use tools such as Poppler to convert an input
//! file into HTML format". The synthetic corpora and any user-supplied HTML
//! or XML enter the data model through this module; visual attributes are
//! attached afterwards by the [`crate::layout`](mod@crate::layout) engine.

use crate::markup::{parse, Element, Node};
use fonduer_datamodel::{
    ContextRef, DocFormat, Document, DocumentBuilder, SectionId, Structural, TableId,
};
use fonduer_nlp::{preprocess_into, NlpScratch};
use std::sync::Arc;

/// Tags treated as inline formatting: their text folds into the enclosing
/// block.
const INLINE_TAGS: &[&str] = &[
    "b", "i", "em", "strong", "u", "sub", "sup", "a", "code", "small", "font", "span", "br",
    "bullet",
];

/// Tags that start a new [`fonduer_datamodel::Section`].
const SECTION_TAGS: &[&str] = &["section", "sec"];

/// Tags treated as transparent containers (recursed into).
const CONTAINER_TAGS: &[&str] = &[
    "html", "body", "article", "main", "ul", "ol", "dl", "abstract", "front", "back", "div", "head",
];

fn is_inline(tag: &str) -> bool {
    INLINE_TAGS.contains(&tag)
}

fn has_block_children(e: &Element) -> bool {
    e.children.iter().any(|n| match n {
        Node::Element(c) => !is_inline(&c.tag),
        Node::Text(_) => false,
    })
}

/// Parse `markup` (HTML or XML) and ingest it into a [`Document`].
pub fn ingest(name: &str, markup: &str, format: DocFormat) -> Document {
    let nodes = parse(markup);
    let mut ing = Ingestor {
        b: DocumentBuilder::new(name, format),
        current_section: None,
        scratch: NlpScratch::new(),
    };
    let mut stack = AncestorStack::default();
    ing.walk_children(&nodes, &mut stack);
    ing.b.finish()
}

/// Tracks open ancestor elements for structural attribute extraction.
///
/// The `Arc` snapshots of the three vectors are built lazily and cached
/// until the next push/pop, so every element emitted under the same
/// open-ancestor state (all the cells of a table, say) shares one set of
/// allocations instead of deep-cloning three string vectors each.
#[derive(Default)]
struct AncestorStack {
    tags: Vec<String>,
    classes: Vec<String>,
    ids: Vec<String>,
    snapshot: Option<AncestorSnapshot>,
}

/// One shared copy of the ancestor state, cloned into each `Structural` as
/// three `Arc` bumps.
#[derive(Clone)]
struct AncestorSnapshot {
    tags: Arc<Vec<String>>,
    classes: Arc<Vec<String>>,
    ids: Arc<Vec<String>>,
}

impl AncestorStack {
    fn push(&mut self, e: &Element) {
        self.tags.push(e.tag.clone());
        if let Some(c) = e.attr("class") {
            self.classes.push(c.to_string());
        }
        if let Some(i) = e.attr("id") {
            self.ids.push(i.to_string());
        }
        self.snapshot = None;
    }

    fn pop(&mut self, e: &Element) {
        self.tags.pop();
        if e.attr("class").is_some() {
            self.classes.pop();
        }
        if e.attr("id").is_some() {
            self.ids.pop();
        }
        self.snapshot = None;
    }

    /// Current ancestor state as shared vectors (cached until mutation).
    fn snapshot(&mut self) -> &AncestorSnapshot {
        if self.snapshot.is_none() {
            self.snapshot = Some(AncestorSnapshot {
                tags: Arc::new(self.tags.clone()),
                classes: Arc::new(self.classes.clone()),
                ids: Arc::new(self.ids.clone()),
            });
        }
        self.snapshot.as_ref().expect("just populated")
    }
}

struct Ingestor {
    b: DocumentBuilder,
    current_section: Option<SectionId>,
    scratch: NlpScratch,
}

/// Sibling context for one element within its parent's children. Borrowed
/// from the markup tree; the owned copies are made once, inside
/// [`Ingestor::structural`].
struct SiblingInfo<'a> {
    parent_tag: &'a str,
    prev: Option<&'a str>,
    next: Option<&'a str>,
    pos: u32,
}

impl Ingestor {
    fn section(&mut self) -> SectionId {
        match self.current_section {
            Some(s) => s,
            None => {
                let s = self.b.section();
                self.current_section = Some(s);
                s
            }
        }
    }

    // One `Arc<Structural>` per markup element; every sentence emitted from
    // the element's text shares it by refcount.
    fn structural(
        &mut self,
        e: &Element,
        sib: &SiblingInfo<'_>,
        stack: &mut AncestorStack,
    ) -> Arc<Structural> {
        let snap = stack.snapshot().clone();
        Arc::new(Structural {
            tag: e.tag.clone(),
            attrs: e.attrs.clone(),
            parent_tag: sib.parent_tag.to_string(),
            prev_sibling_tag: sib.prev.map(str::to_string),
            next_sibling_tag: sib.next.map(str::to_string),
            node_pos: sib.pos,
            ancestor_tags: snap.tags,
            ancestor_classes: snap.classes,
            ancestor_ids: snap.ids,
        })
    }

    fn walk_children(&mut self, nodes: &[Node], stack: &mut AncestorStack) {
        // Pre-compute element sibling tags for structural attributes.
        let elems: Vec<(usize, &Element)> = nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n {
                Node::Element(e) => Some((i, e)),
                _ => None,
            })
            .collect();
        // Cloned once per container (the stack is mutated during recursion,
        // so a borrow would not survive the loop).
        let parent_tag = stack.tags.last().cloned().unwrap_or_default();
        for (ei, &(i, e)) in elems.iter().enumerate() {
            let sib = SiblingInfo {
                parent_tag: &parent_tag,
                prev: ei.checked_sub(1).map(|p| elems[p].1.tag.as_str()),
                next: elems.get(ei + 1).map(|n| n.1.tag.as_str()),
                pos: ei as u32,
            };
            let _ = i;
            self.walk_element(e, &sib, stack);
        }
        // Direct text under a container becomes its own text block.
        let direct_text: String = nodes
            .iter()
            .filter_map(|n| match n {
                Node::Text(t) => Some(t.as_str()),
                _ => None,
            })
            .collect::<Vec<_>>()
            .join(" ");
        if !direct_text.trim().is_empty() {
            let sib = SiblingInfo {
                parent_tag: &parent_tag,
                prev: None,
                next: None,
                pos: 0,
            };
            let pseudo = Element::new(parent_tag.clone());
            let structural = self.structural(&pseudo, &sib, stack);
            self.emit_text_block(&direct_text, structural);
        }
    }

    fn walk_element(&mut self, e: &Element, sib: &SiblingInfo<'_>, stack: &mut AncestorStack) {
        let tag = e.tag.as_str();
        if SECTION_TAGS.contains(&tag) {
            let s = self.b.section();
            self.current_section = Some(s);
            stack.push(e);
            self.walk_children(&e.children, stack);
            stack.pop(e);
            // Content after this section starts a fresh implicit section.
            self.current_section = None;
            return;
        }
        if tag == "table" {
            stack.push(e);
            self.ingest_table(e, stack);
            stack.pop(e);
            return;
        }
        if tag == "img" {
            let sec = self.section();
            self.b.figure(sec, e.attr("src").unwrap_or("").to_string());
            return;
        }
        if tag == "figure" || tag == "fig" {
            let sec = self.section();
            let src = e
                .find("img")
                .and_then(|i| i.attr("src"))
                .unwrap_or("")
                .to_string();
            let fid = self.b.figure(sec, src);
            if let Some(cap) = e.find("figcaption").or_else(|| e.find("caption")) {
                let cid = self.b.figure_caption(fid);
                stack.push(e);
                let structural = self.structural(cap, sib, stack);
                self.emit_paragraphs(ContextRef::Caption(cid), &cap.text_content(), structural);
                stack.pop(e);
            }
            return;
        }
        if CONTAINER_TAGS.contains(&tag) || has_block_children(e) {
            stack.push(e);
            self.walk_children(&e.children, stack);
            stack.pop(e);
            return;
        }
        // Text leaf (p, h1..h6, li, title, td outside tables, custom XML
        // tags...): its inline-flattened text becomes a text block.
        let text = e.text_content();
        if text.trim().is_empty() {
            return;
        }
        let structural = self.structural(e, sib, stack);
        self.emit_text_block(&text, structural);
    }

    fn emit_text_block(&mut self, text: &str, structural: Arc<Structural>) {
        let sec = self.section();
        let tb = self.b.text_block(sec);
        self.emit_paragraphs(ContextRef::TextBlock(tb), text, structural);
    }

    fn emit_paragraphs(&mut self, parent: ContextRef, text: &str, structural: Arc<Structural>) {
        let para = self.b.paragraph(parent);
        // Fused pass: sentences, token spans, and interned tags are written
        // straight into the builder's arena — no intermediate SentenceData.
        preprocess_into(&mut self.b, para, text, &structural, &mut self.scratch);
    }

    /// Build a table from `<tr>`/`<td>`/`<th>` children with rowspan/colspan
    /// handling via a standard grid-occupancy algorithm.
    fn ingest_table(&mut self, table_elem: &Element, stack: &mut AncestorStack) {
        // Collect rows from any depth-1 grouping (thead/tbody/tfoot or bare).
        let mut row_elems: Vec<&Element> = Vec::new();
        collect_rows(table_elem, &mut row_elems);

        // Placement pass: compute each cell's grid rectangle.
        struct Placement<'a> {
            elem: &'a Element,
            r0: u32,
            r1: u32,
            c0: u32,
            c1: u32,
        }
        let mut placements: Vec<Placement> = Vec::new();
        // occupied[r] = set of columns taken in row r (dynamic growth).
        let mut occupied: Vec<Vec<bool>> = Vec::new();
        let mut n_cols = 0u32;
        for (r, row) in row_elems.iter().enumerate() {
            if occupied.len() <= r {
                occupied.resize(r + 1, Vec::new());
            }
            let mut col = 0usize;
            for cell in row.children.iter().filter_map(|n| match n {
                Node::Element(e) if e.tag == "td" || e.tag == "th" || e.tag == "cell" => Some(e),
                _ => None,
            }) {
                // Find the first free column slot in row r.
                while occupied[r].get(col).copied().unwrap_or(false) {
                    col += 1;
                }
                let rowspan: usize = cell
                    .attr("rowspan")
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 1)
                    .unwrap_or(1);
                let colspan: usize = cell
                    .attr("colspan")
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 1)
                    .unwrap_or(1);
                for rr in r..r + rowspan {
                    if occupied.len() <= rr {
                        occupied.resize(rr + 1, Vec::new());
                    }
                    if occupied[rr].len() < col + colspan {
                        occupied[rr].resize(col + colspan, false);
                    }
                    occupied[rr][col..col + colspan].fill(true);
                }
                placements.push(Placement {
                    elem: cell,
                    r0: r as u32,
                    r1: (r + rowspan - 1) as u32,
                    c0: col as u32,
                    c1: (col + colspan - 1) as u32,
                });
                n_cols = n_cols.max((col + colspan) as u32);
                col += colspan;
            }
        }
        let n_rows = occupied.len().max(row_elems.len()) as u32;
        if n_rows == 0 || n_cols == 0 {
            return; // Empty table: nothing to ingest.
        }
        let sec = self.section();
        let tid: TableId = self.b.table(sec, n_rows, n_cols);
        // Caption.
        if let Some(cap) = table_elem.children_with_tag("caption").next() {
            let cid = self.b.table_caption(tid);
            let sib = SiblingInfo {
                parent_tag: "table",
                prev: None,
                next: None,
                pos: 0,
            };
            let structural = self.structural(cap, &sib, stack);
            self.emit_paragraphs(ContextRef::Caption(cid), &cap.text_content(), structural);
        }
        // Cells.
        for (pi, p) in placements.iter().enumerate() {
            let cell = self.b.cell(tid, p.r0, p.r1, p.c0, p.c1);
            let text = p.elem.text_content();
            if text.trim().is_empty() {
                continue;
            }
            let sib = SiblingInfo {
                parent_tag: "tr",
                prev: pi.checked_sub(1).map(|_| "td"),
                next: Some("td"),
                pos: p.c0,
            };
            let structural = self.structural(p.elem, &sib, stack);
            self.emit_paragraphs(ContextRef::Cell(cell), &text, structural);
        }
    }
}

fn collect_rows<'a>(e: &'a Element, out: &mut Vec<&'a Element>) {
    for n in &e.children {
        if let Node::Element(c) = n {
            if c.tag == "tr" || c.tag == "row" {
                out.push(c);
            } else if matches!(c.tag.as_str(), "thead" | "tbody" | "tfoot") {
                collect_rows(c, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fonduer_datamodel::assert_valid;

    const DATASHEET: &str = r#"
<html><body>
  <h1 class="title">SMBT3904...MMBT3904</h1>
  <p>NPN Silicon Switching Transistors.</p>
  <table>
    <caption>Maximum Ratings</caption>
    <tr><th>Parameter</th><th>Symbol</th><th>Value</th><th>Unit</th></tr>
    <tr><td>Collector current</td><td>IC</td><td>200</td><td>mA</td></tr>
    <tr><td rowspan="2">Total power dissipation</td><td>P1</td><td>330</td><td rowspan="2">mW</td></tr>
    <tr><td>P2</td><td>250</td></tr>
  </table>
</body></html>"#;

    #[test]
    fn ingests_datasheet_structure() {
        let d = ingest("sheet", DATASHEET, DocFormat::Pdf);
        assert_valid(&d);
        assert_eq!(d.tables.len(), 1);
        let t = &d.tables[0];
        assert_eq!(t.n_rows, 4);
        assert_eq!(t.n_cols, 4);
        assert!(t.caption.is_some());
        // 4 header cells + 4 + 4 (2 spanning) + 2 = 14 cells.
        assert_eq!(t.cells.len(), 14);
        assert_eq!(d.text_blocks.len(), 2);
    }

    #[test]
    fn rowspan_grid_placement() {
        let d = ingest("sheet", DATASHEET, DocFormat::Pdf);
        // The rowspan=2 "Total power dissipation" cell covers rows 2..=3 col 0;
        // the following row's "P2" lands in column 1.
        let spanning: Vec<_> = d.cells.iter().filter(|c| c.row_span() == 2).collect();
        assert_eq!(spanning.len(), 2);
        assert!(spanning.iter().any(|c| c.col_start == 0));
        assert!(spanning.iter().any(|c| c.col_start == 3));
        let p2_cell = d
            .cells
            .iter()
            .find(|c| {
                c.paragraphs.iter().any(|&p| {
                    d.paragraphs[p.index()]
                        .sentences
                        .iter()
                        .any(|&s| d.sentences[s.index()].text(&d).contains("P2"))
                })
            })
            .unwrap();
        assert_eq!((p2_cell.row_start, p2_cell.col_start), (3, 1));
    }

    #[test]
    fn structural_attributes_recorded() {
        let d = ingest("sheet", DATASHEET, DocFormat::Pdf);
        let h1_sent = d
            .sentences
            .iter()
            .find(|s| s.structural.tag == "h1")
            .expect("h1 sentence");
        assert_eq!(h1_sent.structural.attr("class"), Some("title"));
        assert!(h1_sent
            .structural
            .ancestor_tags
            .contains(&"body".to_string()));
        assert_eq!(h1_sent.structural.parent_tag, "body");
        assert_eq!(h1_sent.structural.next_sibling_tag.as_deref(), Some("p"));
        let td_sent = d
            .sentences
            .iter()
            .find(|s| s.structural.tag == "td")
            .expect("td sentence");
        assert!(td_sent
            .structural
            .ancestor_tags
            .contains(&"table".to_string()));
    }

    #[test]
    fn sections_split_content() {
        let html = "<section><p>first</p></section><section><p>second</p></section><p>tail</p>";
        let d = ingest("s", html, DocFormat::Html);
        assert_valid(&d);
        assert_eq!(d.sections.len(), 3);
    }

    #[test]
    fn xml_with_custom_tags() {
        let xml = r#"<?xml version="1.0"?>
<article>
  <title>GWAS of height</title>
  <abstract><p>We study rs12345 association.</p></abstract>
  <table><tr><td>rs12345</td><td>1e-8</td></tr></table>
</article>"#;
        let d = ingest("g", xml, DocFormat::Xml);
        assert_valid(&d);
        assert_eq!(d.tables.len(), 1);
        assert!(d
            .sentences
            .iter()
            .any(|s| s.structural.tag == "title" && s.text(&d).contains("GWAS")));
        // XML: no visual modality anywhere.
        assert!(d.sentences.iter().all(|s| s.visual.is_none()));
    }

    #[test]
    fn figure_with_caption() {
        let html = r#"<figure><img src="pic.png"/><figcaption>A photo.</figcaption></figure>"#;
        let d = ingest("f", html, DocFormat::Html);
        assert_valid(&d);
        assert_eq!(d.figures.len(), 1);
        assert_eq!(d.figures[0].src, "pic.png");
        assert!(d.figures[0].caption.is_some());
    }

    #[test]
    fn empty_table_is_skipped() {
        let d = ingest("e", "<table></table><p>x</p>", DocFormat::Html);
        assert_valid(&d);
        assert!(d.tables.is_empty());
        assert_eq!(d.text_blocks.len(), 1);
    }

    #[test]
    fn nested_lists_flatten_to_text_blocks() {
        let d = ingest(
            "l",
            "<ul><li>High DC current gain</li><li>Low voltage</li></ul>",
            DocFormat::Html,
        );
        assert_valid(&d);
        assert_eq!(d.text_blocks.len(), 2);
        assert_eq!(d.sentences[0].structural.tag, "li");
    }
}
