//! Tokenization.
//!
//! A deterministic rule-based tokenizer tuned for richly formatted technical
//! text: it splits punctuation, separates numbers from attached units
//! (`"200mA"` → `"200"`, `"mA"`), keeps signed and decimal numbers together
//! (`"-65"`, `"0.1"`), and preserves interval ellipses (`"..."`) and symbol
//! tokens (`"°C"`, `"≤"`, `"~"`) that carry meaning in datasheets.
//!
//! Tokens are pure byte spans into the source text — no per-token `String`
//! is ever allocated. The scan itself is byte-oriented: ASCII runs (digits,
//! word characters, whitespace) advance one byte at a time through the
//! byte-class table in `crate::scan`, and only non-ASCII lead bytes fall
//! back to `char` decoding. The emitted spans are bit-identical to the
//! original char-by-char rule set; parity tests in this module pin that
//! equivalence.

use crate::scan::{in_class, run_end, DIGIT, WORD, WS};

/// A token: a `[start, end)` byte span into the source string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Byte offset of the first byte in the source.
    pub start: u32,
    /// Byte offset one past the last byte in the source.
    pub end: u32,
}

impl Token {
    /// The token text, borrowed zero-copy from the source it was produced
    /// from.
    #[inline]
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start as usize..self.end as usize]
    }

    /// Length of the token in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the span is empty (never true for emitted tokens).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Whether the char before byte `i` (which must start a char) is
/// alphanumeric. Walks backwards over UTF-8 continuation bytes.
fn prev_char_is_alphanumeric(text: &str, i: usize) -> bool {
    let b = text.as_bytes();
    let mut j = i - 1;
    while j > 0 && (b[j] & 0xC0) == 0x80 {
        j -= 1;
    }
    text[j..]
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric())
}

/// Extend a word-character run starting at `start`: letters, digits,
/// underscore, degree sign, and non-ASCII alphanumerics — but break at the
/// first letter when the prefix so far is all digits (splits units glued to
/// numbers, keeps alphanumeric part codes whole).
fn word_run_end(text: &str, start: usize) -> usize {
    let b = text.as_bytes();
    let n = b.len();
    let mut j = start;
    let mut saw_letter = false;
    while j < n {
        let c = b[j];
        if c < 0x80 {
            if c.is_ascii_digit() {
                if saw_letter {
                    // Mixed run: everything word-like keeps the token going.
                    j = run_end(b, j, WORD, true);
                } else {
                    j = run_end(b, j, DIGIT, true);
                }
                continue;
            }
            if c.is_ascii_alphabetic() || c == b'_' {
                if !saw_letter && j > start {
                    break;
                }
                saw_letter = true;
                j = run_end(b, j, WORD, true);
                continue;
            }
            break;
        }
        let ch = text[j..].chars().next().unwrap();
        if ch == '°' || ch == '_' || ch.is_alphanumeric() {
            if !saw_letter && j > start {
                break;
            }
            saw_letter = true;
            j += ch.len_utf8();
            continue;
        }
        break;
    }
    j
}

/// Tokenize `text` into [`Token`] spans.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut out = Vec::with_capacity(text.len() / 4 + 1);
    tokenize_into(text, &mut out);
    out
}

/// Tokenize `text` into `out`, reusing its allocation. The buffer is
/// cleared first.
pub fn tokenize_into(text: &str, out: &mut Vec<Token>) {
    out.clear();
    let b = text.as_bytes();
    let n = b.len();
    let mut i = 0usize;
    while i < n {
        let c = b[i];
        if c < 0x80 {
            if in_class(c, WS) {
                i = run_end(b, i + 1, WS, true);
                continue;
            }
            // Signed / decimal number: [-+]?digits(.digits)? — a leading
            // sign counts as part of the number only if a digit follows
            // directly AND the sign is not glued to a preceding
            // alphanumeric (so "-65" after whitespace is signed, but the
            // dashes in "555-0147" are separators).
            let sign_ok = (c == b'-' || c == b'+')
                && i + 1 < n
                && b[i + 1].is_ascii_digit()
                && (i == 0 || !prev_char_is_alphanumeric(text, i));
            if c.is_ascii_digit() || sign_ok {
                let start = i;
                let mut j = run_end(b, i + usize::from(sign_ok), DIGIT, true);
                // Decimal point must be followed by a digit (so "150."
                // splits).
                if j + 1 < n && b[j] == b'.' && b[j + 1].is_ascii_digit() {
                    j = run_end(b, j + 1, DIGIT, true);
                }
                out.push(Token {
                    start: start as u32,
                    end: j as u32,
                });
                i = j;
                continue;
            }
            // Ellipsis used for intervals: "...".
            if c == b'.' && i + 2 < n && b[i + 1] == b'.' && b[i + 2] == b'.' {
                let start = i;
                let mut j = i;
                while j < n && b[j] == b'.' {
                    j += 1;
                }
                out.push(Token {
                    start: start as u32,
                    end: j as u32,
                });
                i = j;
                continue;
            }
            if in_class(c, WORD) {
                let j = word_run_end(text, i);
                out.push(Token {
                    start: i as u32,
                    end: j as u32,
                });
                i = j;
                continue;
            }
            // Any other single ASCII character is its own token
            // (punctuation, math symbols).
            out.push(Token {
                start: i as u32,
                end: i as u32 + 1,
            });
            i += 1;
            continue;
        }
        // Non-ASCII lead byte: decode one char and classify it.
        let ch = text[i..].chars().next().unwrap();
        let w = ch.len_utf8();
        if ch.is_whitespace() {
            i += w;
            continue;
        }
        if ch == '°' || ch.is_alphanumeric() {
            let j = word_run_end(text, i);
            out.push(Token {
                start: i as u32,
                end: j as u32,
            });
            i = j;
            continue;
        }
        out.push(Token {
            start: i as u32,
            end: (i + w) as u32,
        });
        i += w;
    }
}

/// Tokenize and return owned token texts.
#[deprecated(
    since = "0.1.0",
    note = "allocates one String per token; use `tokenize` and `Token::text` \
            to borrow spans from the source instead"
)]
pub fn token_texts(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .map(|t| t.text(text).to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(text: &str) -> Vec<&str> {
        tokenize(text).into_iter().map(|t| t.text(text)).collect()
    }

    #[test]
    fn splits_whitespace_and_punct() {
        assert_eq!(texts("Hello, world."), vec!["Hello", ",", "world", "."]);
    }

    #[test]
    fn keeps_part_numbers_whole() {
        assert_eq!(
            texts("SMBT3904 and MMBT3904"),
            vec!["SMBT3904", "and", "MMBT3904"]
        );
    }

    #[test]
    fn splits_number_unit() {
        assert_eq!(texts("200mA"), vec!["200", "mA"]);
        assert_eq!(
            texts("0.1 mA to 100 mA"),
            vec!["0.1", "mA", "to", "100", "mA"]
        );
    }

    #[test]
    fn glued_dashes_are_separators() {
        assert_eq!(texts("555-0147"), vec!["555", "-", "0147"]);
        assert_eq!(texts("206-555-0147"), vec!["206", "-", "555", "-", "0147"]);
    }

    #[test]
    fn signed_numbers_and_intervals() {
        assert_eq!(texts("-65 ... 150"), vec!["-65", "...", "150"]);
        assert_eq!(texts("-65 ~ 150"), vec!["-65", "~", "150"]);
        assert_eq!(texts("-65 to 150"), vec!["-65", "to", "150"]);
    }

    #[test]
    fn hyphen_between_words_is_its_own_token() {
        assert_eq!(
            texts("collector-emitter voltage"),
            vec!["collector", "-", "emitter", "voltage"]
        );
    }

    #[test]
    fn degree_symbol_and_comparison() {
        assert_eq!(texts("TS ≤ 60°C"), vec!["TS", "≤", "60", "°C"]);
    }

    #[test]
    fn offsets_are_byte_accurate() {
        let text = "VCEO 40 V";
        let toks = tokenize(text);
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0].text(text), "VCEO");
        assert_eq!(toks[1].text(text), "40");
        assert_eq!(toks[2].text(text), "V");
    }

    #[test]
    fn decimal_not_greedy_over_sentence_period() {
        assert_eq!(texts("gain 150. Next"), vec!["gain", "150", ".", "Next"]);
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n").is_empty());
    }

    #[test]
    fn unicode_offsets() {
        let text = "α ≤ β";
        let toks = tokenize(text);
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0].text(text), "α");
        assert_eq!(toks[1].text(text), "≤");
        assert_eq!(toks[2].text(text), "β");
    }

    #[test]
    fn long_runs_stay_whole() {
        // Word, digit and whitespace runs of 75–100 bytes.
        let long_word = "A".repeat(100);
        let long_num = "7".repeat(100);
        let text = format!("{long_word} {long_num} end");
        assert_eq!(texts(&text), vec![long_word.as_str(), &long_num, "end"]);
        let spaced = format!("x{}y", " ".repeat(75));
        assert_eq!(texts(&spaced), vec!["x", "y"]);
    }

    #[test]
    fn mixed_digit_letter_runs() {
        // Digit prefix then letters splits; letter prefix keeps digits.
        assert_eq!(texts("3904A"), vec!["3904", "A"]);
        assert_eq!(texts("A3904B12"), vec!["A3904B12"]);
        assert_eq!(texts("rs7329174"), vec!["rs7329174"]);
        assert_eq!(texts("1.5W"), vec!["1.5", "W"]);
        assert_eq!(texts("150."), vec!["150", "."]);
        assert_eq!(texts("_private1"), vec!["_private1"]);
    }

    /// The scalar reference implementation the byte tokenizer replaced:
    /// char-indexed, rule-for-rule identical to the original. Kept in tests
    /// as the equivalence oracle.
    fn tokenize_reference(text: &str) -> Vec<Token> {
        fn is_word_char(c: char) -> bool {
            c.is_alphanumeric() || c == '_' || c == '°'
        }
        let mut out = Vec::new();
        let bytes: Vec<(usize, char)> = text.char_indices().collect();
        let n = bytes.len();
        let mut i = 0;
        let push = |out: &mut Vec<Token>, a: usize, b: usize| {
            out.push(Token {
                start: a as u32,
                end: b as u32,
            });
        };
        while i < n {
            let (pos, c) = bytes[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            let sign_ok = (c == '-' || c == '+')
                && i + 1 < n
                && bytes[i + 1].1.is_ascii_digit()
                && (i == 0 || !bytes[i - 1].1.is_alphanumeric());
            if c.is_ascii_digit() || sign_ok {
                let start = pos;
                let mut j = i;
                if c == '-' || c == '+' {
                    j += 1;
                }
                while j < n && bytes[j].1.is_ascii_digit() {
                    j += 1;
                }
                if j + 1 < n && bytes[j].1 == '.' && bytes[j + 1].1.is_ascii_digit() {
                    j += 1;
                    while j < n && bytes[j].1.is_ascii_digit() {
                        j += 1;
                    }
                }
                let end = if j < n { bytes[j].0 } else { text.len() };
                push(&mut out, start, end);
                i = j;
                continue;
            }
            if c == '.' && i + 2 < n && bytes[i + 1].1 == '.' && bytes[i + 2].1 == '.' {
                let start = pos;
                let mut j = i;
                while j < n && bytes[j].1 == '.' {
                    j += 1;
                }
                let end = if j < n { bytes[j].0 } else { text.len() };
                push(&mut out, start, end);
                i = j;
                continue;
            }
            if is_word_char(c) {
                let start = pos;
                let mut j = i;
                let mut saw_letter = false;
                while j < n && is_word_char(bytes[j].1) {
                    if bytes[j].1.is_ascii_digit() {
                        j += 1;
                    } else {
                        if !saw_letter && j > i {
                            break;
                        }
                        saw_letter = true;
                        j += 1;
                    }
                }
                let end = if j < n { bytes[j].0 } else { text.len() };
                push(&mut out, start, end);
                i = j;
                continue;
            }
            let end = if i + 1 < n {
                bytes[i + 1].0
            } else {
                text.len()
            };
            push(&mut out, pos, end);
            i += 1;
        }
        out
    }

    const ADVERSARIAL: &[&str] = &[
        "",
        ".",
        "..",
        "...",
        "....",
        ".5",
        "5.",
        "5.5",
        "5..5",
        "-",
        "+",
        "-5",
        "a-5",
        "α-5",
        "5-5",
        "_",
        "__x__",
        "°",
        "°C",
        "60°C60",
        "x°C",
        "a\u{a0}b",
        "tab\tsep",
        "α ≤ β",
        "αβγ123",
        "123αβγ",
        "Ω123mA",
        "naïve café résumé",
        "−65 … 150",
        "a...b",
        "-65...150",
        "SMBT3904...MMBT3904",
        "0.2 V at 10 mA, -65 to 150.",
        "417 K/W (1.5 W at 25).",
        "e.g. Fig. 3 vs. eq. 4",
        "﷽",
        "a\u{301}b",
    ];

    #[test]
    fn byte_tokenizer_matches_char_reference() {
        for &case in ADVERSARIAL {
            assert_eq!(tokenize(case), tokenize_reference(case), "case {case:?}");
        }
    }

    #[test]
    fn byte_tokenizer_matches_char_reference_on_random_text() {
        // Deterministic pseudo-random mixtures of the interesting char
        // classes, at short and long lengths.
        let alphabet: Vec<char> = "abzAZ09._-+ °≤…αΣ\t\u{a0}?!…5".chars().collect();
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for len in [1usize, 7, 8, 9, 31, 32, 33, 200] {
            for _ in 0..50 {
                let mut s = String::new();
                for _ in 0..len {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    s.push(alphabet[(state % alphabet.len() as u64) as usize]);
                }
                assert_eq!(tokenize(&s), tokenize_reference(&s), "input {s:?}");
            }
        }
    }
}
