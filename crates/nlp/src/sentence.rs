//! Sentence splitting.
//!
//! Rule-based splitter: sentence boundaries are `.`, `!`, `?` followed by
//! whitespace and an upper-case letter or digit, with protection for common
//! abbreviations and decimal numbers.

use crate::scan::{run_end, TERMINATOR, WS};

const ABBREVIATIONS: &[&str] = &[
    "e.g", "i.e", "etc", "fig", "figs", "eq", "vs", "no", "dr", "mr", "mrs", "ms", "inc", "ltd",
    "co", "approx", "max", "min", "typ", "al",
];

fn ends_with_abbreviation(prefix: &str) -> bool {
    let trimmed = prefix.trim_end_matches('.');
    let last_word = trimmed
        .rsplit(|c: char| c.is_whitespace() || c == '(')
        .next()
        .unwrap_or("");
    ABBREVIATIONS
        .iter()
        .any(|a| last_word.eq_ignore_ascii_case(a))
}

/// Split `text` into sentence substrings with byte ranges `(start, end)`.
///
/// Byte-oriented scan: candidate terminators (`.`, `!`, `?` — all ASCII)
/// are located with a plain byte loop, and only the look-ahead over
/// following whitespace decodes chars (non-ASCII whitespace and uppercase
/// tests are Unicode-aware, matching the original char-indexed
/// implementation exactly).
pub fn split_sentences(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let n = b.len();
    let mut spans = Vec::new();
    let mut sent_start = 0usize;
    let mut i = 0usize;
    while i < n {
        i = run_end(b, i, TERMINATOR, false);
        if i >= n {
            break;
        }
        let c = b[i];
        // Decimal point inside a number is not a boundary.
        if c == b'.' && i > 0 && b[i - 1].is_ascii_digit() && i + 1 < n && b[i + 1].is_ascii_digit()
        {
            i += 1;
            continue;
        }
        // Abbreviation protection.
        if c == b'.' && ends_with_abbreviation(&text[sent_start..i]) {
            i += 1;
            continue;
        }
        // Look ahead: boundary only if followed by whitespace then an
        // upper-case letter/digit (or end of text).
        let mut j = i + 1;
        loop {
            j = run_end(b, j, WS, true);
            match text[j..].chars().next() {
                Some(ch) if !ch.is_ascii() && ch.is_whitespace() => j += ch.len_utf8(),
                _ => break,
            }
        }
        let next = text[j..].chars().next();
        let is_boundary = match next {
            None => true,
            Some(ch) => j > i + 1 && (ch.is_uppercase() || ch.is_ascii_digit()),
        };
        if is_boundary {
            let end = i + 1;
            if !text[sent_start..end].trim().is_empty() {
                spans.push((sent_start, end));
            }
            sent_start = j;
            i = j;
            continue;
        }
        i += 1;
    }
    if sent_start < text.len() && !text[sent_start..].trim().is_empty() {
        spans.push((sent_start, text.len()));
    }
    spans
}

/// Split and return the sentence texts (trimmed). Convenience for tests.
pub fn sentence_texts(text: &str) -> Vec<&str> {
    split_sentences(text)
        .into_iter()
        .map(|(a, b)| text[a..b].trim())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_basic_sentences() {
        assert_eq!(
            sentence_texts("First sentence. Second one. Third!"),
            vec!["First sentence.", "Second one.", "Third!"]
        );
    }

    #[test]
    fn protects_decimals() {
        assert_eq!(
            sentence_texts("Gain is 0.1 mA at best. Done."),
            vec!["Gain is 0.1 mA at best.", "Done."]
        );
    }

    #[test]
    fn protects_abbreviations() {
        assert_eq!(
            sentence_texts("See Fig. 3 for details. Next."),
            vec!["See Fig. 3 for details.", "Next."]
        );
        assert_eq!(
            sentence_texts("Species were measured (e.g. femur length). More."),
            vec!["Species were measured (e.g. femur length).", "More."]
        );
    }

    #[test]
    fn lowercase_continuation_is_not_boundary() {
        assert_eq!(
            sentence_texts("The no. of parts is high. done anyway"),
            // "high. done" — lowercase after period, no split.
            vec!["The no. of parts is high. done anyway"]
        );
    }

    #[test]
    fn single_sentence_without_period() {
        assert_eq!(
            sentence_texts("No terminator here"),
            vec!["No terminator here"]
        );
    }

    #[test]
    fn empty_input() {
        assert!(sentence_texts("").is_empty());
        assert!(sentence_texts("   ").is_empty());
    }

    #[test]
    fn question_and_exclamation() {
        assert_eq!(
            sentence_texts("Really? Yes! Fine."),
            vec!["Really?", "Yes!", "Fine."]
        );
    }
}
