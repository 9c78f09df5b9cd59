//! Interned feature symbols and the allocation-free emission sink.
//!
//! Featurization over the ~40 templates of Table 7 is the dominant
//! extraction cost (Appendix C), and the original hot path materialized a
//! fresh `String` per emitted feature before funnelling it through a
//! `HashMap<String, u32>`. This module removes both allocations:
//!
//! * [`FeatureVocab`] — an arena interner. All feature names live in one
//!   contiguous `String`; the hash index maps a 64-bit FNV-1a hash to
//!   symbol ids with byte-compare collision chains, so interning an
//!   already-known name allocates nothing. A document shard owns one for
//!   its local ids; merging shards re-interns each shard's names in input
//!   order under the hashes the shard kept.
//! * [`FeatureSink`] — the reusable emission buffer the template emitters
//!   write into. Feature names are composed in a scratch `String` (prefix +
//!   template parts) and encoded to `u32` symbols immediately; strings
//!   survive only in debug/provenance rendering paths.

use crate::modality::modality_index;
use std::fmt;
use std::fmt::Write as _;

pub use fonduer_datamodel::{fnv1a64, SymbolArena};

/// Salt mixed into feature-hashing bucket ids so bucketing is decorrelated
/// from the interner's index hashing.
const FEATURE_HASH_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Interns feature names to dense column indices.
///
/// A [`SymbolArena`] (names back-to-back in one arena string, hash index
/// with byte-compare collision chains) plus, per name, a modality tag
/// computed once at intern time, so provenance tallies never re-stringify,
/// and the name's FNV-1a hash, so merging a document shard's vocabulary
/// into the corpus vocabulary never hashes a name twice. Interning a known
/// name is hash + byte-compare, no allocation.
#[derive(Debug, Clone, Default)]
pub struct FeatureVocab {
    syms: SymbolArena,
    modality: Vec<u8>,
    hashes: Vec<u64>,
}

impl FeatureVocab {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a feature string, returning its column index.
    pub fn intern(&mut self, name: &str) -> u32 {
        self.intern_hashed(fnv1a64(name.as_bytes()), name)
    }

    /// Intern with a pre-computed FNV-1a hash of `name`.
    pub(crate) fn intern_hashed(&mut self, h: u64, name: &str) -> u32 {
        let before = self.syms.len();
        let id = self.syms.intern_hashed(h, name);
        if self.syms.len() > before {
            self.modality.push(modality_index(name).unwrap_or(4) as u8);
            self.hashes.push(h);
        }
        id
    }

    /// The FNV-1a hash a column's name was interned with.
    pub(crate) fn hash(&self, col: u32) -> u64 {
        self.hashes[col as usize]
    }

    /// Look up an existing feature.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.syms.get(name)
    }

    /// Feature name of a column.
    pub fn name(&self, col: u32) -> &str {
        self.syms.resolve(col)
    }

    /// Modality index of a column ([`crate::MODALITIES`] order, 4 =
    /// unclassified), computed once when the name was interned.
    pub fn modality_idx(&self, col: u32) -> usize {
        self.modality[col as usize] as usize
    }

    /// Number of distinct features.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Approximate retained heap bytes (arena + spans + index + per-name
    /// modality tags and hashes).
    pub fn heap_bytes(&self) -> usize {
        self.syms.heap_bytes()
            + self.modality.capacity()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
    }
}

/// Sort a raw emission row by column id and keep one entry per id — the
/// presence semantics of a feature row. Among entries sharing an id, which
/// one's modality tag survives is deterministic but unspecified: the
/// unstable sort keeps the first occurrence only in short rows. Tags under
/// one id differ only when distinct names collide in a hashed bucket, so
/// only hashing mode's per-row modality tallies can tell.
pub(crate) fn dedup_row(row: &mut Vec<(u32, u8)>) {
    row.sort_unstable_by_key(|&(id, _)| id);
    row.dedup_by_key(|&mut (id, _)| id);
}

enum Encoder<'a> {
    /// Interning into one vocabulary (a corpus's or a document shard's).
    Vocab(&'a mut FeatureVocab),
    /// Feature hashing (the vocab-free fast path): bucket by salted hash.
    Hashed { mask: u64 },
    /// Debug/compat: collect fully rendered strings (the seed string path).
    Collect(&'a mut Vec<String>),
}

/// The reusable feature-emission sink.
///
/// Template emitters compose each feature name into the internal scratch
/// buffer (argument prefix + template parts, via [`FeatureSink::feat`],
/// [`FeatureSink::feat_fmt`], or the `begin`/`push`/`commit` triple for
/// joined names) and the sink encodes it to a `u32` symbol on the spot.
/// One sink lives for a whole document shard: no per-candidate, per-feature
/// allocation survives on the hot path.
pub struct FeatureSink<'a> {
    enc: Encoder<'a>,
    scratch: String,
    prefix_len: usize,
    row: Vec<(u32, u8)>,
    tally: [u64; 5],
    modality: u8,
}

impl<'a> FeatureSink<'a> {
    fn with_encoder(enc: Encoder<'a>) -> Self {
        Self {
            enc,
            scratch: String::with_capacity(96),
            prefix_len: 0,
            row: Vec::with_capacity(128),
            tally: [0; 5],
            modality: 4,
        }
    }

    /// Sink interning into `vocab`.
    pub fn interning(vocab: &'a mut FeatureVocab) -> Self {
        Self::with_encoder(Encoder::Vocab(vocab))
    }

    /// Vocab-free feature-hashing sink with `1 << bits` buckets.
    pub fn hashed(bits: u8) -> Self {
        Self::with_encoder(Encoder::Hashed {
            mask: (1u64 << bits.clamp(1, 31)) - 1,
        })
    }

    /// Sink that renders every feature as an owned `String` (the seed
    /// string path, kept for the public template API and golden tests).
    pub fn collecting(out: &'a mut Vec<String>) -> Self {
        Self::with_encoder(Encoder::Collect(out))
    }

    /// Set the candidate-argument prefix (`A0_`, `A01_`, ...) prepended to
    /// every subsequently emitted feature.
    pub fn set_prefix(&mut self, args: fmt::Arguments<'_>) {
        self.scratch.clear();
        let _ = self.scratch.write_fmt(args);
        self.prefix_len = self.scratch.len();
    }

    /// Tag subsequent emissions with a modality index ([`crate::MODALITIES`]
    /// order; anything `>= 4` counts as unclassified).
    pub fn set_modality(&mut self, m: usize) {
        self.modality = m.min(4) as u8;
    }

    /// Emit a feature whose name is a plain string slice.
    #[inline]
    pub fn feat(&mut self, name: &str) {
        self.begin();
        self.scratch.push_str(name);
        self.commit();
    }

    /// Emit a feature composed from format arguments (no allocation).
    #[inline]
    pub fn feat_fmt(&mut self, args: fmt::Arguments<'_>) {
        self.begin();
        let _ = self.scratch.write_fmt(args);
        self.commit();
    }

    /// Start composing a feature name (joined/looped parts); finish with
    /// [`FeatureSink::commit`].
    #[inline]
    pub fn begin(&mut self) {
        self.scratch.truncate(self.prefix_len);
    }

    /// Append a literal part to the feature started by `begin`.
    #[inline]
    pub fn push(&mut self, part: &str) {
        self.scratch.push_str(part);
    }

    /// Append a formatted part to the feature started by `begin`.
    #[inline]
    pub fn push_fmt(&mut self, args: fmt::Arguments<'_>) {
        let _ = self.scratch.write_fmt(args);
    }

    /// Encode the composed feature into the current row.
    pub fn commit(&mut self) {
        self.tally[self.modality as usize] += 1;
        let id = match &mut self.enc {
            Encoder::Vocab(vocab) => {
                let h = fnv1a64(self.scratch.as_bytes());
                vocab.intern_hashed(h, &self.scratch)
            }
            Encoder::Hashed { mask } => {
                ((fnv1a64(self.scratch.as_bytes()) ^ FEATURE_HASH_SALT) & *mask) as u32
            }
            Encoder::Collect(out) => {
                out.push(self.scratch.clone());
                return;
            }
        };
        self.row.push((id, self.modality));
    }

    /// Entries emitted so far for the current candidate.
    pub fn row_len(&self) -> usize {
        self.row.len()
    }

    /// The `(id, modality)` entries emitted since `mark` — what the
    /// per-document mention cache stores.
    pub fn row_slice(&self, mark: usize) -> &[(u32, u8)] {
        &self.row[mark..]
    }

    /// Replay cached entries (bumping the emission tally exactly as a fresh
    /// emission would).
    pub fn extend_cached(&mut self, cached: &[(u32, u8)]) {
        for &(id, m) in cached {
            self.tally[m as usize] += 1;
            self.row.push((id, m));
        }
    }

    /// Mutable access to the raw emission row (the featurizer sorts,
    /// dedups, and drains it per candidate).
    pub(crate) fn row_mut(&mut self) -> &mut Vec<(u32, u8)> {
        &mut self.row
    }

    /// Move the raw emission row out, leaving the sink ready for the next
    /// candidate.
    pub fn take_row(&mut self) -> Vec<(u32, u8)> {
        std::mem::take(&mut self.row)
    }

    /// Per-modality emission tally (pre-dedup), in [`crate::MODALITIES`]
    /// order plus a final unclassified slot.
    pub fn tally(&self) -> [u64; 5] {
        self.tally
    }
}

/// Character-wise lowercasing display adapter: formats without allocating.
/// Equivalent to `str::to_lowercase` for all ASCII (and all 1:1 Unicode)
/// mappings, which covers every token the parser produces.
pub(crate) struct Lower<'a>(pub &'a str);

impl fmt::Display for Lower<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            if c.is_ascii() {
                f.write_char(c.to_ascii_lowercase())?;
            } else {
                for lc in c.to_lowercase() {
                    f.write_char(lc)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_arena_interning_roundtrips() {
        let mut v = FeatureVocab::new();
        let a = v.intern("WORD_alpha");
        let b = v.intern("TAG_h1");
        assert_eq!(v.intern("WORD_alpha"), a);
        assert_ne!(a, b);
        assert_eq!(v.name(a), "WORD_alpha");
        assert_eq!(v.name(b), "TAG_h1");
        assert_eq!(v.get("WORD_alpha"), Some(a));
        assert_eq!(v.get("WORD_beta"), None);
        assert_eq!(v.len(), 2);
        assert!(v.heap_bytes() > 0);
    }

    #[test]
    fn vocab_records_modality_at_intern_time() {
        let mut v = FeatureVocab::new();
        let t = v.intern("A0_WORD_x");
        let s = v.intern("A0_TAG_h1");
        let tab = v.intern("A1_COL_HEAD_value");
        let vis = v.intern("BOLD");
        let other = v.intern("MYSTERY");
        assert_eq!(v.modality_idx(t), 0);
        assert_eq!(v.modality_idx(s), 1);
        assert_eq!(v.modality_idx(tab), 2);
        assert_eq!(v.modality_idx(vis), 3);
        assert_eq!(v.modality_idx(other), 4);
    }

    #[test]
    fn vocab_survives_many_symbols() {
        let mut v = FeatureVocab::new();
        let ids: Vec<u32> = (0..5000).map(|i| v.intern(&format!("F_{i}"))).collect();
        assert_eq!(v.len(), 5000);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(v.name(id), format!("F_{i}"));
            assert_eq!(v.get(&format!("F_{i}")), Some(id));
        }
    }

    #[test]
    fn sink_interning_and_hashed_modes() {
        let mut vocab = FeatureVocab::new();
        {
            let mut sink = FeatureSink::interning(&mut vocab);
            sink.set_prefix(format_args!("A0_"));
            sink.set_modality(0);
            sink.feat("WORD_x");
            sink.feat_fmt(format_args!("LEN_{}", 3));
            sink.feat("WORD_x"); // repeat: same symbol
            let row = sink.take_row();
            assert_eq!(row.len(), 3);
            assert_eq!(row[0].0, row[2].0);
            assert_eq!(sink.tally()[0], 3);
        }
        assert_eq!(vocab.get("A0_WORD_x"), Some(0));
        assert_eq!(vocab.get("A0_LEN_3"), Some(1));

        let mut sink = FeatureSink::hashed(12);
        sink.set_prefix(format_args!("A0_"));
        sink.set_modality(2);
        sink.feat("COL_HEAD_value");
        let row = sink.take_row();
        assert_eq!(row.len(), 1);
        assert!(row[0].0 < (1 << 12));
        assert_eq!(row[0].1, 2);
    }

    #[test]
    fn sink_begin_push_commit_composes_joins() {
        let mut out = Vec::new();
        {
            let mut sink = FeatureSink::collecting(&mut out);
            sink.set_prefix(format_args!("A1_"));
            sink.begin();
            sink.push("POS_");
            for (k, p) in ["NN", "CD"].iter().enumerate() {
                if k > 0 {
                    sink.push("_");
                }
                sink.push(p);
            }
            sink.commit();
            sink.push_fmt(format_args!("")); // no-op outside begin/commit
        }
        assert_eq!(out, vec!["A1_POS_NN_CD".to_string()]);
    }

    #[test]
    fn dedup_row_keeps_one_sorted_entry_per_id() {
        let mut row = vec![(5, 1), (2, 0), (5, 3), (2, 2), (9, 4)];
        dedup_row(&mut row);
        assert_eq!(row, vec![(2, 0), (5, 1), (9, 4)]);

        // Past 20 entries the unstable sort no longer keeps the first
        // occurrence; the contract is one entry per id, sorted, with a tag
        // that one of that id's entries carried, the same on every call.
        let raw: Vec<(u32, u8)> = (0..120u32).map(|i| ((i * 7) % 23, (i % 5) as u8)).collect();
        let mut row = raw.clone();
        dedup_row(&mut row);
        let ids: Vec<u32> = row.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, (0..23).collect::<Vec<u32>>());
        for &(id, m) in &row {
            assert!(
                raw.contains(&(id, m)),
                "tag {m} never emitted under id {id}"
            );
        }
        let mut again = raw;
        dedup_row(&mut again);
        assert_eq!(again, row);
    }

    #[test]
    fn lower_adapter_matches_to_lowercase() {
        for s in ["SMBT3904", "MixedCase", "ümlaut Ünit", "200"] {
            assert_eq!(format!("{}", Lower(s)), s.to_lowercase());
        }
    }
}
