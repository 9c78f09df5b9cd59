//! Differential test for `DictionaryMatcher`.
//!
//! The matcher answers from an index of its entries by first token, and
//! its `mentions` scan remembers per word symbol whether the word begins
//! an entry. Here it must agree, at every start position and on every
//! span, with the plain definition of a dictionary match: the span's
//! normalized text (`Span::normalized_text`) is a normalized entry,
//! searched longest first. That definition lives only in this test.

use fonduer::datamodel::{ContextRef, SentenceId};
use fonduer::prelude::*;
use std::collections::BTreeSet;

/// Entries normalized as the matcher documents: tokens lowercased and
/// joined by single spaces.
fn normalize<S: AsRef<str>>(raw: impl IntoIterator<Item = S>) -> BTreeSet<String> {
    raw.into_iter()
        .map(|e| {
            let text = e.as_ref();
            fonduer::nlp::tokenize(text)
                .iter()
                .map(|t| t.text(text).to_lowercase())
                .collect::<Vec<_>>()
                .join(" ")
        })
        .filter(|e| !e.is_empty())
        .collect()
}

/// The dictionary and its reference predicate.
struct Reference {
    entries: BTreeSet<String>,
    max_tokens: usize,
}

impl Reference {
    fn new<S: AsRef<str>>(raw: impl IntoIterator<Item = S>) -> Self {
        let entries = normalize(raw);
        let max_tokens = entries
            .iter()
            .map(|e| e.split(' ').count())
            .max()
            .unwrap_or(1);
        Self {
            entries,
            max_tokens,
        }
    }

    fn accepts(&self, doc: &Document, span: Span) -> bool {
        self.entries.contains(&span.normalized_text(doc))
    }

    fn longest(&self, doc: &Document, sid: SentenceId, start: u32) -> Option<Span> {
        let n = doc.sentence(sid).len();
        let upper = (start as usize + self.max_tokens).min(n) as u32;
        (start + 1..=upper)
            .rev()
            .map(|end| Span::new(sid, start, end))
            .find(|&span| self.accepts(doc, span))
    }
}

/// Compares the matcher built from `raw` with the reference predicate on
/// every start position and every span of `docs`; returns how many spans
/// matched.
fn check<S: AsRef<str>>(raw: &[S], docs: &[&Document], what: &str) -> usize {
    let dict = DictionaryMatcher::new(raw);
    let reference = Reference::new(raw);
    assert_eq!(dict.len(), reference.entries.len(), "{what}: entry count");
    assert_eq!(
        dict.max_tokens(),
        reference.max_tokens,
        "{what}: max_tokens"
    );
    let mut matched = 0;
    for doc in docs {
        for sid in doc.sentence_ids() {
            let n = doc.sentence(sid).len() as u32;
            for start in 0..n {
                let upper = (start as usize + reference.max_tokens).min(n as usize) as u32;
                for end in start + 1..=upper {
                    let span = Span::new(sid, start, end);
                    let want = reference.accepts(doc, span);
                    assert_eq!(
                        dict.matches(doc, span),
                        want,
                        "{what}: matches({span:?}) on {:?} in {}",
                        span.normalized_text(doc),
                        doc.name
                    );
                    matched += usize::from(want);
                }
                assert_eq!(
                    dict.longest_match(doc, sid, start),
                    reference.longest(doc, sid, start),
                    "{what}: longest match at {sid:?}:{start} in {}",
                    doc.name
                );
            }
        }
    }
    // The index's scan agrees with the default `mentions` scan over the
    // reference predicate, one document after another through one matcher.
    let by_index = MentionType::new("index", Box::new(dict));
    let entries = reference.entries.clone();
    let by_definition = MentionType::new(
        "definition",
        Box::new(FnMatcher::new(
            reference.max_tokens,
            move |d: &Document, sp| entries.contains(&sp.normalized_text(d)),
        )),
    );
    for doc in docs {
        assert_eq!(
            by_index.matcher.mentions(doc),
            by_definition.matcher.mentions(doc),
            "{what}: mentions in {}",
            doc.name
        );
    }
    matched
}

#[test]
fn index_agrees_with_the_definition_on_all_synth_domains() {
    let domains = [
        Domain::Electronics,
        Domain::Ads,
        Domain::Paleo,
        Domain::Genomics,
    ];
    let corpora: Vec<SynthDataset> = domains.iter().map(|d| d.generate(3, 5)).collect();
    let docs: Vec<&Document> = corpora
        .iter()
        .flat_map(|ds| ds.corpus.iter().map(|(_, d)| d))
        .collect();
    let mut matched = 0;
    for ds in &corpora {
        for (name, raw) in &ds.dictionaries {
            let raw: Vec<&String> = raw.iter().collect();
            matched += check(&raw, &docs, name);
        }
    }
    assert!(
        matched > 40,
        "only {matched} spans matched; the test is vacuous"
    );

    // Long articles, where each word recurs many times within a document,
    // so the scan's per-word memo answers most start positions.
    let paleo = Domain::Paleo.generate(8, 13);
    let docs: Vec<&Document> = paleo.corpus.iter().map(|(_, d)| d).collect();
    for doc in &docs {
        let mut occurrences = vec![0usize; doc.symbols.len()];
        for &w in &doc.tok_words {
            occurrences[w as usize] += 1;
        }
        let most = occurrences.iter().max().copied().unwrap_or(0);
        assert!(most >= 100, "{}: no word recurs 100 times", doc.name);
    }
    let mut matched = 0;
    for (name, raw) in &paleo.dictionaries {
        let raw: Vec<&String> = raw.iter().collect();
        matched += check(&raw, &docs, name);
    }
    assert!(
        matched > 40,
        "only {matched} spans matched in long articles; the test is vacuous"
    );
}

fn doc_of(sentences: &[&[&str]]) -> Document {
    let mut b = DocumentBuilder::new("hand", DocFormat::Html);
    let sec = b.section();
    let tb = b.text_block(sec);
    let p = b.paragraph(ContextRef::TextBlock(tb));
    for words in sentences {
        b.sentence(p, SentenceData::from_words(words));
    }
    b.finish()
}

fn texts(doc: &Document, dict: DictionaryMatcher) -> Vec<String> {
    MentionType::new("t", Box::new(dict))
        .matcher
        .mentions(doc)
        .iter()
        .map(|s| s.text(doc))
        .collect()
}

#[test]
fn hand_built_sentences_agree_with_the_definition() {
    let long_word = "Pseudo".repeat(12);
    let cases: Vec<(&str, Vec<&str>, Document)> = vec![
        (
            "mixed case",
            vec!["SMBT3904", "Tyrannosaurus rex"],
            doc_of(&[&[
                "The",
                "smbt3904",
                "SMBT3904",
                "SmBt3904",
                "TYRANNOSAURUS",
                "Rex",
                "tyrannosaurus",
            ]]),
        ),
        (
            "final sigma",
            vec!["ΟΔΟΣ", "οδοσ αβ"],
            doc_of(&[&["ΟΔΟΣ", "οδος", "Οδοσ", "ΟΔΟΣ", "ΑΒ", "Οδοσ", "ΑΒ"]]),
        ),
        (
            "dotted capital I",
            vec!["İstanbul", "Izmir"],
            doc_of(&[&[
                "İSTANBUL",
                "istanbul",
                "Istanbul",
                "İstanbul",
                "İZMİR",
                "IZMIR",
            ]]),
        ),
        (
            "word containing a space",
            vec!["New", "New Mexico", "New Mexico basin"],
            doc_of(&[
                &["New Mexico", "basin", "and", "New Mexico"],
                &["new  mexico", "NEW", "Mexico basin"],
            ]),
        ),
        (
            "shared first token",
            vec!["New", "New Mexico", "New York City"],
            doc_of(&[&[
                "New", "Mexico", "and", "New", "York", "and", "New", "York", "City",
            ]]),
        ),
        (
            "entry token split across words",
            vec!["La Paz Bolivia"],
            doc_of(&[&["La", "Pa", "z Bolivia", "LA", "PAZ", "BOLIVIA"]]),
        ),
        (
            "long words",
            vec![long_word.as_str(), "a"],
            doc_of(&[&[long_word.to_uppercase().as_str(), long_word.as_str(), "A"]]),
        ),
        (
            "empty dictionary",
            vec![],
            doc_of(&[&["anything", "at", "all"]]),
        ),
        (
            "entry word first consumed inside a longer match",
            vec!["Tyrannosaurus rex", "rex"],
            doc_of(&[
                &["Tyrannosaurus", "rex", "and"],
                &["rex"],
                &["a", "rex", "REX", "tyrannosaurus"],
            ]),
        ),
    ];
    for (what, raw, doc) in &cases {
        check(raw, &[doc], what);
    }

    // One matcher over two documents that intern the same words in
    // different orders: one symbol id names the entry's first word in the
    // second document and a word that begins no entry in the first. A
    // per-word memo that outlived its document would lose the second
    // document's mention.
    let first = doc_of(&[&["the", "Tyrannosaurus", "rex"]]);
    let second = doc_of(&[&["Tyrannosaurus", "rex", "the"]]);
    assert_eq!(
        first.symbols.get("the"),
        second.symbols.get("Tyrannosaurus")
    );
    check(
        &["Tyrannosaurus rex"],
        &[&first, &second, &first],
        "intern order across documents",
    );

    // Spot checks of what the definition implies.
    let get = |what: &str| cases.iter().find(|c| c.0 == what).unwrap();
    let (_, raw, doc) = get("final sigma");
    // A word-final "Σ" lowercases to "ς", so "ΟΔΟΣ ΑΒ" does not spell the
    // entry "οδοσ αβ" but "Οδοσ ΑΒ" does.
    assert_eq!(
        texts(doc, DictionaryMatcher::new(raw)),
        ["ΟΔΟΣ", "οδος", "ΟΔΟΣ", "Οδοσ ΑΒ"]
    );
    let (_, raw, doc) = get("dotted capital I");
    // "İ" lowercases to "i" plus a combining dot above; "I" to a plain "i".
    assert_eq!(
        texts(doc, DictionaryMatcher::new(raw)),
        ["İSTANBUL", "İstanbul", "IZMIR"]
    );
    let (_, raw, doc) = get("word containing a space");
    assert_eq!(
        texts(doc, DictionaryMatcher::new(raw)),
        ["New Mexico basin", "New Mexico", "NEW Mexico basin"]
    );
    let (_, raw, doc) = get("entry token split across words");
    assert_eq!(texts(doc, DictionaryMatcher::new(raw)), ["LA PAZ BOLIVIA"]);
    let (_, raw, doc) = get("shared first token");
    assert_eq!(
        texts(doc, DictionaryMatcher::new(raw)),
        ["New Mexico", "New", "New York City"]
    );
    let (_, raw, doc) = get("entry word first consumed inside a longer match");
    assert_eq!(
        texts(doc, DictionaryMatcher::new(raw)),
        ["Tyrannosaurus rex", "rex", "rex", "REX"]
    );
}
