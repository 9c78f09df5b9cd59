//! Matchers: how users specify what a mention looks like (paper §3.2,
//! Example 3.3).
//!
//! A matcher is a predicate over a candidate span with full access to the
//! data model — "ranging from simple regular expressions to complicated
//! functions that take into account signals across multiple modalities".
//! In the paper matchers are Python functions; here they are trait objects
//! (closures wrap via [`FnMatcher`]).

use fonduer_datamodel::{Document, Sentence, SentenceId, Span};
use std::collections::BTreeSet;

/// Predicate deciding whether a span is a mention of some type.
pub trait Matcher: Send + Sync {
    /// Whether `span` in `doc` satisfies the match conditions.
    fn matches(&self, doc: &Document, span: Span) -> bool;

    /// Longest span (in tokens) this matcher can accept; extraction will
    /// not enumerate longer windows. Defaults to 1.
    fn max_tokens(&self) -> usize {
        1
    }

    /// Every mention of this matcher in `doc`, in document order (the
    /// paper's "applying matchers to each leaf of the data model").
    ///
    /// Matching is greedy maximal-munch within each sentence: at each start
    /// position the longest span of at most
    /// [`max_tokens`](Matcher::max_tokens) tokens that
    /// [`matches`](Matcher::matches) accepts is a mention, and the scan
    /// resumes after it, so overlapped shorter starts are skipped.
    ///
    /// The default tries each end, longest first, through `matches`, so a
    /// custom matcher needs only `matches`. A matcher that can rule out
    /// start positions without probing every span ([`DictionaryMatcher`])
    /// overrides this; an override must return exactly what the default
    /// would.
    fn mentions(&self, doc: &Document) -> Vec<Span> {
        let max = self.max_tokens().max(1);
        greedy_walk(doc, |sid, sentence, start| {
            let upper = (start as usize + max).min(sentence.len()) as u32;
            (start + 1..=upper)
                .rev()
                .map(|end| Span::new(sid, start, end))
                .find(|&span| self.matches(doc, span))
        })
    }

    /// Short matcher-kind descriptor used by provenance records
    /// (e.g. `"dictionary"`, `"number_range"`).
    fn kind(&self) -> &'static str {
        "custom"
    }

    /// Content fingerprint used as part of pipeline-session cache keys: two
    /// matchers with the same fingerprint are assumed to accept the same
    /// spans, so cached candidate artifacts keyed on it can be reused.
    ///
    /// The default hashes only [`kind`](Matcher::kind) and
    /// [`max_tokens`](Matcher::max_tokens); structured matchers override it
    /// to include their actual content (dictionary entries, numeric
    /// bounds). Closure-backed matchers are opaque — swap the closure and
    /// the fingerprint cannot see the change, so sessions expose an
    /// explicit invalidation escape hatch for that case.
    fn fingerprint(&self) -> u64 {
        let mut key = self.kind().as_bytes().to_vec();
        key.push(0x1f);
        key.extend_from_slice(&(self.max_tokens() as u64).to_le_bytes());
        fonduer_nlp::fnv1a(&key)
    }
}

/// Declaration of one mention type in a relation schema: a name plus the
/// matcher that recognizes its mentions.
pub struct MentionType {
    /// Type name (e.g. `"transistor_part"`).
    pub name: String,
    /// The matcher.
    pub matcher: Box<dyn Matcher>,
}

impl MentionType {
    /// Declare a mention type.
    pub fn new(name: impl Into<String>, matcher: Box<dyn Matcher>) -> Self {
        Self {
            name: name.into(),
            matcher,
        }
    }
}

impl std::fmt::Debug for MentionType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MentionType")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Dictionary matcher: matches spans whose normalized text equals a
/// dictionary entry (paper Example 3.3's transistor-part dictionary).
///
/// Entries are normalized with the Fonduer tokenizer: each token is
/// lowercased and the tokens are joined by single spaces, so multi-word
/// entries like `"Tyrannosaurus rex"` or `"type 2 diabetes"` match
/// multi-token spans. A span matches when its words, each lowercased
/// ([`str::to_lowercase`]) and joined by single spaces, equal an entry
/// ([`Span::normalized_text`]). Extraction is greedy: the longest match at
/// a start position wins.
///
/// Entries are indexed by their first token; only the entries sharing a
/// word's bucket are compared against the following words. [`mentions`]
/// probes the index once per distinct word of the document and remembers
/// the answer by word symbol, so a start position whose word begins no
/// entry costs one byte load and no allocation.
///
/// [`mentions`]: Matcher::mentions
pub struct DictionaryMatcher {
    /// Normalized entries, sorted and deduplicated.
    entries: Vec<String>,
    /// Entries bucketed by the hash of their first token, as
    /// `(first-token hash, index into entries)`, longest first within a
    /// bucket. The bucket count is a power of two.
    buckets: Vec<Vec<(u64, u32)>>,
    max_tokens: usize,
}

impl DictionaryMatcher {
    /// Build from raw dictionary strings.
    pub fn new<I, S>(entries: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut set = BTreeSet::new();
        let mut max_tokens = 1;
        for e in entries {
            let text = e.as_ref();
            let toks = fonduer_nlp::tokenize(text);
            max_tokens = max_tokens.max(toks.len());
            let mut norm = String::new();
            for (i, t) in toks.iter().enumerate() {
                if i > 0 {
                    norm.push(' ');
                }
                norm.push_str(&t.text(text).to_lowercase());
            }
            if !norm.is_empty() {
                set.insert(norm);
            }
        }
        let entries: Vec<String> = set.into_iter().collect();
        let mut buckets = vec![Vec::new(); (2 * entries.len()).next_power_of_two()];
        let mask = buckets.len() as u64 - 1;
        for (i, e) in entries.iter().enumerate() {
            let h = first_token_hash(e);
            buckets[(h & mask) as usize].push((h, i as u32));
        }
        for bucket in &mut buckets {
            bucket.sort_by_key(|&(_, i)| std::cmp::Reverse(entries[i as usize].len()));
        }
        Self {
            entries,
            buckets,
            max_tokens,
        }
    }

    /// Number of dictionary entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries a span starting with `first_word` could equal, longest
    /// first. Only a non-ASCII word allocates (to lowercase it).
    fn entries_starting(&self, first_word: &str) -> impl Iterator<Item = &str> {
        let h = if first_word.is_ascii() {
            first_token_hash(first_word)
        } else {
            first_token_hash(&first_word.to_lowercase())
        };
        self.buckets[(h & (self.buckets.len() as u64 - 1)) as usize]
            .iter()
            .filter(move |&&(eh, _)| eh == h)
            .map(|&(_, i)| self.entries[i as usize].as_str())
    }

    /// The longest span starting at token `start` of `sentence` that this
    /// dictionary accepts, among spans of at most
    /// [`max_tokens`](Matcher::max_tokens) tokens: what the default
    /// [`Matcher::mentions`] walk would find at that start.
    pub fn longest_match(&self, doc: &Document, sentence: SentenceId, start: u32) -> Option<Span> {
        let n = doc.sentence(sentence).len();
        if start as usize >= n {
            return None;
        }
        let upper = (start as usize + self.max_tokens).min(n) as u32;
        let window = Span::new(sentence, start, upper);
        let first = window.words(doc).next()?;
        // Entries come longest first, and a longer entry takes more words to
        // spell, so the first entry the window spells is the longest match.
        self.entries_starting(first)
            .find_map(|e| spelled_by(e, window.words(doc)))
            .map(|len| Span::new(sentence, start, start + len as u32))
    }
}

/// FNV-1a of `text` up to its first space, with ASCII letters lowercased.
/// A span's normalized text begins with its lowercased first word, so its
/// first token is that word up to its first space; for an entry (already
/// lowercase) this is the hash of its first token.
fn first_token_hash(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes().take_while(|&b| b != b' ') {
        h = (h ^ u64::from(b.to_ascii_lowercase())).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// How many of `words` it takes to spell `entry`: the `n` for which the
/// first `n` words, each lowercased and joined by single spaces, equal
/// `entry`. At most one `n` can, since each extra word lengthens the text.
fn spelled_by<'w>(entry: &str, words: impl Iterator<Item = &'w str>) -> Option<usize> {
    let mut rest = entry;
    for (i, word) in words.enumerate() {
        if i > 0 {
            rest = rest.strip_prefix(' ')?;
        }
        rest = strip_lowercased(rest, word)?;
        if rest.is_empty() {
            return Some(i + 1);
        }
    }
    None
}

/// `rest` without its prefix `word.to_lowercase()`, if it has that prefix.
/// ASCII words are compared in place.
fn strip_lowercased<'a>(rest: &'a str, word: &str) -> Option<&'a str> {
    if word.is_ascii() {
        let head = rest.get(..word.len())?;
        word.bytes()
            .zip(head.bytes())
            .all(|(w, e)| w.to_ascii_lowercase() == e)
            .then(|| &rest[word.len()..])
    } else {
        rest.strip_prefix(word.to_lowercase().as_str())
    }
}

impl Matcher for DictionaryMatcher {
    fn matches(&self, doc: &Document, span: Span) -> bool {
        let Some(first) = span.words(doc).next() else {
            return false;
        };
        self.entries_starting(first)
            .any(|e| spelled_by(e, span.words(doc)) == Some(span.len()))
    }

    fn mentions(&self, doc: &Document) -> Vec<Span> {
        // Whether each word symbol begins an entry: 0 not yet asked, 1 no,
        // 2 yes. Symbol ids are per document, so the memo lives for this
        // call only.
        let mut begins = vec![0u8; doc.symbols.len()];
        greedy_walk(doc, |sid, sentence, start| {
            let word = doc.tok_words[sentence.tok_start as usize + start as usize];
            let memo = &mut begins[word as usize];
            if *memo == 0 {
                let first = doc.symbols.resolve(word);
                *memo = 1 + u8::from(self.entries_starting(first).next().is_some());
            }
            if *memo == 1 {
                None
            } else {
                self.longest_match(doc, sid, start)
            }
        })
    }

    fn max_tokens(&self) -> usize {
        self.max_tokens
    }

    fn kind(&self) -> &'static str {
        "dictionary"
    }

    fn fingerprint(&self) -> u64 {
        // Entries are normalized and stored sorted, so the hash is
        // order-independent with respect to construction.
        let mut key = b"dictionary".to_vec();
        for e in &self.entries {
            key.push(0x1f);
            key.extend_from_slice(e.as_bytes());
        }
        fonduer_nlp::fnv1a(&key)
    }
}

/// Matches single numeric tokens whose value lies in `[min, max]`
/// (Example 3.3's "numbers between 100 and 995" current matcher).
pub struct NumberRangeMatcher {
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
}

impl NumberRangeMatcher {
    /// A matcher for numbers in `[min, max]`.
    pub fn new(min: f64, max: f64) -> Self {
        Self { min, max }
    }
}

impl Matcher for NumberRangeMatcher {
    fn matches(&self, doc: &Document, span: Span) -> bool {
        if span.len() != 1 {
            return false;
        }
        let s = doc.sentence(span.sentence);
        let idx = span.start as usize;
        if s.ner(doc, idx) != "NUMBER" {
            return false;
        }
        match s.word(doc, idx).parse::<f64>() {
            Ok(v) => v >= self.min && v <= self.max,
            Err(_) => false,
        }
    }

    fn kind(&self) -> &'static str {
        "number_range"
    }

    fn fingerprint(&self) -> u64 {
        let mut key = b"number_range".to_vec();
        key.extend_from_slice(&self.min.to_bits().to_le_bytes());
        key.extend_from_slice(&self.max.to_bits().to_le_bytes());
        fonduer_nlp::fnv1a(&key)
    }
}

/// Wraps an arbitrary closure as a matcher.
pub struct FnMatcher<F> {
    f: F,
    max_tokens: usize,
}

impl<F> FnMatcher<F>
where
    F: Fn(&Document, Span) -> bool + Send + Sync,
{
    /// Wrap `f`, enumerating spans up to `max_tokens` long.
    pub fn new(max_tokens: usize, f: F) -> Self {
        Self { f, max_tokens }
    }
}

impl<F> Matcher for FnMatcher<F>
where
    F: Fn(&Document, Span) -> bool + Send + Sync,
{
    fn matches(&self, doc: &Document, span: Span) -> bool {
        (self.f)(doc, span)
    }

    fn max_tokens(&self) -> usize {
        self.max_tokens
    }
}

/// Union of matchers: matches if any child matches.
pub struct UnionMatcher {
    children: Vec<Box<dyn Matcher>>,
}

impl UnionMatcher {
    /// Combine matchers.
    pub fn new(children: Vec<Box<dyn Matcher>>) -> Self {
        Self { children }
    }
}

impl Matcher for UnionMatcher {
    fn matches(&self, doc: &Document, span: Span) -> bool {
        self.children.iter().any(|c| c.matches(doc, span))
    }

    fn max_tokens(&self) -> usize {
        self.children
            .iter()
            .map(|c| c.max_tokens())
            .max()
            .unwrap_or(1)
    }

    fn kind(&self) -> &'static str {
        "union"
    }

    fn fingerprint(&self) -> u64 {
        let mut key = b"union".to_vec();
        for c in &self.children {
            key.extend_from_slice(&c.fingerprint().to_le_bytes());
        }
        fonduer_nlp::fnv1a(&key)
    }
}

/// The greedy maximal-munch scan every [`Matcher::mentions`] shares: in
/// each sentence, `longest(id, sentence, start)` names the longest mention
/// starting at token `start`, if any; the scan keeps it and resumes after
/// its end. Mentions come out in document order.
fn greedy_walk(
    doc: &Document,
    mut longest: impl FnMut(SentenceId, &Sentence, u32) -> Option<Span>,
) -> Vec<Span> {
    let mut out = Vec::new();
    for (i, sentence) in doc.sentences.iter().enumerate() {
        let sid = SentenceId::from_usize(i);
        let n = sentence.len() as u32;
        let mut start = 0;
        while start < n {
            match longest(sid, sentence, start) {
                Some(span) => {
                    debug_assert!(span.sentence == sid && span.start == start && span.end <= n);
                    out.push(span);
                    start = span.end;
                }
                None => start += 1,
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fonduer_datamodel::{ContextRef, DocFormat, DocumentBuilder};
    use fonduer_nlp::preprocess_sentence;

    fn doc_with(text: &str) -> Document {
        let mut b = DocumentBuilder::new("t", DocFormat::Html);
        let sec = b.section();
        let tb = b.text_block(sec);
        let p = b.paragraph(ContextRef::TextBlock(tb));
        b.sentence(p, preprocess_sentence(text, &Default::default()));
        b.finish()
    }

    #[test]
    fn dictionary_single_token() {
        let d = doc_with("The SMBT3904 is a transistor");
        let ty = MentionType::new(
            "part",
            Box::new(DictionaryMatcher::new(["SMBT3904", "BC547"])),
        );
        let m = ty.matcher.mentions(&d);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].text(&d), "SMBT3904");
    }

    #[test]
    fn dictionary_multi_token_maximal_munch() {
        let d = doc_with("Remains of Tyrannosaurus rex were found");
        let ty = MentionType::new(
            "taxon",
            Box::new(DictionaryMatcher::new(["Tyrannosaurus rex", "rex"])),
        );
        let m = ty.matcher.mentions(&d);
        // Maximal match wins; the inner "rex" is not separately extracted.
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].text(&d), "Tyrannosaurus rex");
    }

    #[test]
    fn number_range() {
        let d = doc_with("values 50 200 995 1000 and 200.5");
        let ty = MentionType::new("cur", Box::new(NumberRangeMatcher::new(100.0, 995.0)));
        let m = ty.matcher.mentions(&d);
        let texts: Vec<String> = m.iter().map(|s| s.text(&d)).collect();
        assert_eq!(texts, vec!["200", "995", "200.5"]);
    }

    #[test]
    fn number_range_rejects_codes() {
        // "SMBT3904" contains digits but is a CODE token, not a NUMBER.
        let d = doc_with("SMBT3904");
        let ty = MentionType::new("cur", Box::new(NumberRangeMatcher::new(0.0, 1e9)));
        assert!(ty.matcher.mentions(&d).is_empty());
    }

    #[test]
    fn fn_matcher_with_context() {
        // Match numbers only when the sentence contains the lemma "current".
        let d1 = doc_with("Collector current is 200");
        let d2 = doc_with("Storage temperature is 200");
        let mk = || {
            MentionType::new(
                "cur",
                Box::new(FnMatcher::new(1, |doc: &Document, sp: Span| {
                    let s = doc.sentence(sp.sentence);
                    s.ner(doc, sp.start as usize) == "NUMBER"
                        && s.lemmas(doc).any(|l| l == "current")
                })),
            )
        };
        assert_eq!(mk().matcher.mentions(&d1).len(), 1);
        assert!(mk().matcher.mentions(&d2).is_empty());
    }

    #[test]
    fn union_matcher() {
        let d = doc_with("BC547 rated 200");
        let u = UnionMatcher::new(vec![
            Box::new(DictionaryMatcher::new(["BC547"])),
            Box::new(NumberRangeMatcher::new(100.0, 995.0)),
        ]);
        let ty = MentionType::new("any", Box::new(u));
        assert_eq!(ty.matcher.mentions(&d).len(), 2);
    }

    #[test]
    fn fingerprints_track_matcher_content() {
        // Same entries (any insertion order) → same fingerprint.
        let a = DictionaryMatcher::new(["BC547", "SMBT3904"]);
        let b = DictionaryMatcher::new(["SMBT3904", "BC547"]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different entries → different fingerprint.
        let c = DictionaryMatcher::new(["BC547"]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Numeric bounds are part of the fingerprint.
        assert_ne!(
            NumberRangeMatcher::new(100.0, 995.0).fingerprint(),
            NumberRangeMatcher::new(100.0, 996.0).fingerprint()
        );
        // Unions combine child fingerprints.
        let u1 = UnionMatcher::new(vec![
            Box::new(DictionaryMatcher::new(["BC547"])),
            Box::new(NumberRangeMatcher::new(1.0, 2.0)),
        ]);
        let u2 = UnionMatcher::new(vec![
            Box::new(DictionaryMatcher::new(["BC548"])),
            Box::new(NumberRangeMatcher::new(1.0, 2.0)),
        ]);
        assert_ne!(u1.fingerprint(), u2.fingerprint());
        // Closure matchers fall back to kind + max_tokens.
        let f1 = FnMatcher::new(1, |_: &Document, _: Span| true);
        let f2 = FnMatcher::new(2, |_: &Document, _: Span| true);
        assert_ne!(f1.fingerprint(), f2.fingerprint());
    }

    #[test]
    fn empty_dictionary_matches_nothing() {
        let d = doc_with("anything at all");
        let dict = DictionaryMatcher::new(Vec::<String>::new());
        assert!(dict.is_empty());
        let ty = MentionType::new("none", Box::new(dict));
        assert!(ty.matcher.mentions(&d).is_empty());
    }
}
