//! Sensitivity of `Document::content_hash` on parsed documents.
//!
//! Sessions key every per-document shard on the content hash, so a field
//! the hash skipped would let an edited document reuse stale shards. Each
//! single-field mutation below must change the hash of a parsed PALEO
//! article and of a parsed ELECTRONICS datasheet. Re-interning the symbol
//! arena in another order changes only the physical layout and must not.

use fonduer::datamodel::{Structural, SymbolArena, WordVisual};
use fonduer::prelude::*;
use std::sync::Arc;

fn parsed(domain: Domain) -> Document {
    domain
        .generate(1, 11)
        .corpus
        .doc(fonduer::datamodel::DocId(0))
        .clone()
}

/// Applies `mutate` to a copy of `doc` and requires the hash to move.
fn assert_changes(doc: &Document, what: &str, mutate: impl FnOnce(&mut Document)) {
    let mut m = doc.clone();
    mutate(&mut m);
    assert_ne!(
        m.content_hash(),
        doc.content_hash(),
        "{}: changing {what} left the content hash unchanged",
        doc.name
    );
}

/// A token in the middle of the document, inside a sentence that has
/// visual attributes.
fn pick_token(doc: &Document) -> (usize, usize) {
    let mid = doc.sentences.len() / 2;
    let sid = (mid..doc.sentences.len())
        .chain(0..mid)
        .find(|&i| doc.sentences[i].visual.is_some() && doc.sentences[i].len() > 1)
        .expect("a sentence with visual attributes");
    (sid, doc.sentences[sid].tok_start as usize + 1)
}

/// The first sentence whose markup element satisfies `pred`.
fn pick_structural(doc: &Document, pred: impl Fn(&Structural) -> bool) -> Option<usize> {
    (0..doc.sentences.len()).find(|&i| pred(&doc.sentences[i].structural))
}

fn word_visual(d: &mut Document, sid: usize, w: usize) -> &mut WordVisual {
    &mut d.sentences[sid].visual.as_mut().expect("visual attributes")[w]
}

fn structural(d: &mut Document, sid: usize) -> &mut Structural {
    Arc::make_mut(&mut d.sentences[sid].structural)
}

fn check_sensitivity(doc: &Document) {
    assert_eq!(doc.clone().content_hash(), doc.content_hash());
    let (sid, tok) = pick_token(doc);
    let w = tok - doc.sentences[sid].tok_start as usize;

    // Linguistic attributes and offsets of one token.
    assert_changes(doc, "a token's word", |d| {
        d.tok_words[tok] = d.symbols.intern("mutated-word")
    });
    assert_changes(doc, "a token's lemma", |d| {
        d.tok_lemmas[tok] = d.symbols.intern("mutated-lemma")
    });
    assert_changes(doc, "a token's POS", |d| {
        d.tok_pos[tok] = d.symbols.intern("MUTATED")
    });
    assert_changes(doc, "a token's NER", |d| {
        d.tok_ner[tok] = d.symbols.intern("MUTATED")
    });
    assert_changes(doc, "a token's start offset", |d| d.tok_offsets[tok].0 += 1);
    assert_changes(doc, "a token's end offset", |d| d.tok_offsets[tok].1 -= 1);

    // Visual attributes of one word.
    assert_changes(doc, "a word's page", |d| word_visual(d, sid, w).page += 1);
    assert_changes(doc, "a word's bbox x0", |d| {
        word_visual(d, sid, w).bbox.x0 -= 0.5
    });
    assert_changes(doc, "a word's bbox y0", |d| {
        word_visual(d, sid, w).bbox.y0 -= 0.5
    });
    assert_changes(doc, "a word's bbox x1", |d| {
        word_visual(d, sid, w).bbox.x1 += 0.5
    });
    assert_changes(doc, "a word's bbox y1", |d| {
        word_visual(d, sid, w).bbox.y1 += 0.5
    });
    assert_changes(doc, "a word's font", |d| {
        word_visual(d, sid, w).font = "MutatedSans".into()
    });
    assert_changes(doc, "a word's font size", |d| {
        word_visual(d, sid, w).font_size += 0.5
    });
    assert_changes(doc, "a word's bold flag", |d| {
        word_visual(d, sid, w).bold = !word_visual(d, sid, w).bold
    });

    // Structural attributes of one sentence.
    let sst = pick_structural(doc, |st| !st.ancestor_tags.is_empty()).expect("a nested element");
    assert_changes(doc, "a structural tag", |d| {
        structural(d, sst).tag.push('x')
    });
    assert_changes(doc, "a structural attribute list", |d| {
        structural(d, sst).attrs.push(("data-x".into(), "1".into()))
    });
    if let Some(a) = pick_structural(doc, |st| !st.attrs.is_empty()) {
        assert_changes(doc, "a structural attribute value", |d| {
            structural(d, a).attrs[0].1.push('x')
        });
        assert_changes(doc, "a structural attribute name", |d| {
            structural(d, a).attrs[0].0.push('x')
        });
    }
    assert_changes(doc, "an ancestor tag", |d| {
        Arc::make_mut(&mut structural(d, sst).ancestor_tags)[0].push('x')
    });
    assert_changes(doc, "an ancestor class", |d| {
        Arc::make_mut(&mut structural(d, sst).ancestor_classes).push("mutated".into())
    });
    assert_changes(doc, "an ancestor id", |d| {
        Arc::make_mut(&mut structural(d, sst).ancestor_ids).push("mutated".into())
    });

    // Tabular structure.
    assert!(!doc.cells.is_empty(), "{}: no table cells", doc.name);
    let cell = doc.cells.len() / 2;
    assert_changes(doc, "a cell's row span", |d| d.cells[cell].row_end += 1);
    assert_changes(doc, "a cell's column span", |d| d.cells[cell].col_end += 1);
}

/// `doc` with its symbols interned in reverse order behind an unused
/// symbol, and every token id remapped: the same logical document in a
/// different physical layout.
fn reinterned(doc: &Document) -> Document {
    let mut d = doc.clone();
    let mut arena = SymbolArena::new();
    arena.intern("an unused symbol");
    let mut remap = vec![0u32; doc.symbols.len()];
    for id in (0..doc.symbols.len() as u32).rev() {
        remap[id as usize] = arena.intern(doc.symbols.resolve(id));
    }
    for ids in [
        &mut d.tok_words,
        &mut d.tok_lemmas,
        &mut d.tok_pos,
        &mut d.tok_ner,
    ] {
        for id in ids.iter_mut() {
            *id = remap[*id as usize];
        }
    }
    d.symbols = arena;
    d
}

fn check_intern_order(doc: &Document) {
    let r = reinterned(doc);
    assert_ne!(r.tok_words, doc.tok_words, "the remap moved no id");
    for i in 0..doc.word_count() {
        assert_eq!(
            r.symbols.resolve(r.tok_words[i]),
            doc.symbols.resolve(doc.tok_words[i])
        );
        assert_eq!(
            r.symbols.resolve(r.tok_ner[i]),
            doc.symbols.resolve(doc.tok_ner[i])
        );
    }
    assert_eq!(r.content_hash(), doc.content_hash(), "{}", doc.name);
}

#[test]
fn single_field_mutations_change_the_hash_of_a_paleo_article() {
    let doc = parsed(Domain::Paleo);
    assert!(doc.word_count() > 500, "a long article");
    check_sensitivity(&doc);
}

#[test]
fn single_field_mutations_change_the_hash_of_a_datasheet() {
    check_sensitivity(&parsed(Domain::Electronics));
}

#[test]
fn intern_order_does_not_change_the_hash() {
    check_intern_order(&parsed(Domain::Paleo));
    check_intern_order(&parsed(Domain::Electronics));
}
