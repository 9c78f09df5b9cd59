//! Byte-class scans shared by the tokenizer and the sentence splitter.
//!
//! Each scan is a plain loop, one byte per step: the word, digit and
//! whitespace runs of the tokenizer, and the splitter's terminator search
//! and whitespace run.

/// Byte class: ASCII whitespace in the sense of `char::is_whitespace` (HT,
/// LF, VT, FF, CR, space).
pub(crate) const WS: u8 = 1;
/// Byte class: ASCII digits `[0-9]`.
pub(crate) const DIGIT: u8 = 2;
/// Byte class: ASCII word characters `[0-9A-Za-z_]`.
pub(crate) const WORD: u8 = 4;
/// Byte class: sentence terminators `.`, `!`, `?`.
pub(crate) const TERMINATOR: u8 = 8;

/// The class bits of every byte value. All classes are ASCII-only: a byte
/// `>= 0x80` is in none of them, so it ends every run and goes back to the
/// caller's char decoder. One load per byte keeps each scan's cost the same
/// whatever the text holds.
static CLASSES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0u8;
    while b < 0x80 {
        let mut bits = 0;
        if matches!(b, 0x09..=0x0d | b' ') {
            bits |= WS;
        }
        if b.is_ascii_digit() {
            bits |= DIGIT;
        }
        if b.is_ascii_alphanumeric() || b == b'_' {
            bits |= WORD;
        }
        if matches!(b, b'.' | b'!' | b'?') {
            bits |= TERMINATOR;
        }
        table[b as usize] = bits;
        b += 1;
    }
    table
};

/// Whether byte `b` is in `class`.
#[inline]
pub(crate) fn in_class(b: u8, class: u8) -> bool {
    CLASSES[b as usize] & class != 0
}

/// Where a scan from `i` stops, or `bytes.len()`. With `inside` it steps
/// over bytes in `class` and stops at the first byte outside it (the end of
/// a run); without, it steps over bytes outside `class` and stops at the
/// first byte in it (a search).
#[inline]
pub(crate) fn run_end(bytes: &[u8], mut i: usize, class: u8, inside: bool) -> usize {
    while i < bytes.len() && in_class(bytes[i], class) == inside {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_bytes_keep_their_ascii_classes() {
        // Bytes at and above 0x80 are in no class, so they end every run.
        let bytes = [0x7f, 0x80, 0xff, b'a', b'0', b' ', b'.', 0x00];
        assert_eq!(run_end(&bytes, 0, WORD, true), 0);
        assert_eq!(run_end(&bytes, 3, WORD, true), 5);
        assert_eq!(run_end(&bytes, 4, DIGIT, true), 5);
        assert_eq!(run_end(&bytes, 5, WS, true), 6);
        assert_eq!(run_end(&bytes, 0, TERMINATOR, false), 6);
        assert_eq!(run_end(&bytes, 7, TERMINATOR, false), 8);
        assert!(CLASSES[0x80..].iter().all(|&bits| bits == 0));
    }
}
