//! The multimodal featurizer: candidates → sparse feature matrix, with the
//! document-level mention-feature cache of Appendix C.1.
//!
//! "All features are cached until all candidates in a document are fully
//! featurized, after which the cache is flushed. Because Fonduer operates
//! on documents atomically, caching a single document at a time improves
//! performance without adding significant memory overhead."
//!
//! The hot path is allocation-free: template emitters write interned `u32`
//! symbols through a [`FeatureSink`] reused across a whole document shard,
//! the per-document mention cache stores symbol slices (not strings), and
//! the output is a CSR matrix shared zero-copy (`Arc`) with the learners.

use crate::binary::binary_features_into;
use crate::config::FeatureConfig;
use crate::intern::{dedup_row, FeatureSink};
use crate::sparse::CsrMatrix;
use crate::unary::unary_features_into;
use fonduer_candidates::{Candidate, CandidateSet};
use fonduer_datamodel::{Corpus, Document, Span};
use fonduer_observe as observe;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

/// Appendix C.1 per-document mention cache: `(span, argument slot)` →
/// the `(symbol, modality)` pairs that slot emitted last time.
type MentionCache = HashMap<(Span, u8), Vec<(u32, u8)>>;

pub use crate::intern::FeatureVocab;

/// Flush a per-modality emission tally (pre-dedup, [`crate::MODALITIES`]
/// order + unclassified) and the cache counters to `fonduer-observe`.
fn flush_tally(tally: &[u64; 5], stats: &CacheStats) {
    const NAMES: [&str; 5] = [
        "features.emitted.textual",
        "features.emitted.structural",
        "features.emitted.tabular",
        "features.emitted.visual",
        "features.emitted.other",
    ];
    for (i, name) in NAMES.iter().enumerate() {
        if tally[i] > 0 {
            observe::counter(name, tally[i]);
        }
    }
    observe::counter("features.cache.hits", stats.hits as u64);
    observe::counter("features.cache.misses", stats.misses as u64);
}

/// Cache effectiveness counters (reported by the Appendix C.1 bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Mention featurizations served from the cache.
    pub hits: usize,
    /// Mention featurizations computed.
    pub misses: usize,
}

impl CacheStats {
    /// Hit ratio in [0, 1].
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The featurization result: an interned vocabulary plus one sparse CSR row
/// per candidate (the paper's `Features(id, LSTM_textual,
/// feature_lib_others)` relation, minus the learned LSTM part which lives
/// in `fonduer-learning`).
///
/// In feature-hashing mode (`FeatureConfig::hashing_bits > 0`) the vocab is
/// empty: columns are salted-hash buckets and per-row modality tallies are
/// recorded at featurization time instead of being derived from names.
#[derive(Debug, Clone)]
pub struct FeatureSet {
    /// Feature-name interning table (empty in hashing mode).
    pub vocab: FeatureVocab,
    /// One row per candidate; presence-valued (1.0) per Appendix B's
    /// bit-vector semantics. Shared zero-copy with learning/supervision.
    pub matrix: Arc<CsrMatrix>,
    /// Cache statistics accumulated over the run.
    pub stats: CacheStats,
    /// `FeatureConfig::hashing_bits` this set was built with (0 = interned).
    hashing_bits: u8,
    /// Per-row modality tallies, recorded only in hashing mode (interned
    /// mode derives them from the vocab's per-symbol modality tags).
    row_modality: Option<Vec<[u32; 5]>>,
}

impl FeatureSet {
    /// Width of the feature space: vocabulary size, or `1 << hashing_bits`
    /// in hashing mode.
    pub fn n_features(&self) -> usize {
        if self.hashing_bits > 0 {
            1usize << self.hashing_bits
        } else {
            self.vocab.len()
        }
    }

    /// The hashing-mode bit width this set was built with (0 = interned).
    pub fn hashing_bits(&self) -> u8 {
        self.hashing_bits
    }

    /// Per-modality feature tally for candidate `row`: counts indexed as
    /// [`crate::MODALITIES`] (textual, structural, tabular, visual) plus a
    /// final unclassified slot — the feature-mix column of a provenance
    /// record. Computed from interned modality tags, never from strings.
    pub fn modality_counts(&self, row: usize) -> [u32; 5] {
        if let Some(rm) = &self.row_modality {
            return rm[row];
        }
        let mut out = [0u32; 5];
        for &col in self.matrix.row_ids(row) {
            out[self.vocab.modality_idx(col)] += 1;
        }
        out
    }

    /// Lazily render the feature names of one row (debug/provenance only;
    /// hashed buckets render as `#<id>` since their names are gone).
    pub fn feature_names(&self, row: usize) -> Vec<String> {
        self.feature_sample(row, usize::MAX)
    }

    /// Up to `limit` resolved names from a row. This is the provenance
    /// exporter's lazy path: symbols stay interned everywhere else, and only
    /// the sampled prefix is ever stringified.
    pub fn feature_sample(&self, row: usize, limit: usize) -> Vec<String> {
        self.matrix
            .row_ids(row)
            .iter()
            .take(limit)
            .map(|&c| {
                if self.hashing_bits > 0 {
                    format!("#{c}")
                } else {
                    self.vocab.name(c).to_string()
                }
            })
            .collect()
    }

    /// Approximate retained heap bytes (vocab arena + CSR arrays).
    pub fn heap_bytes(&self) -> usize {
        self.vocab.heap_bytes()
            + self.matrix.heap_bytes()
            + self
                .row_modality
                .as_ref()
                .map_or(0, |rm| rm.capacity() * std::mem::size_of::<[u32; 5]>())
    }
}

/// Append the sink's raw emission row to the CSR matrix (sorted, one entry
/// per id; see [`dedup_row`] for which modality tag a hashed bucket keeps)
/// and reset the sink for the next candidate.
fn finish_row(
    sink: &mut FeatureSink<'_>,
    csr: &mut CsrMatrix,
    row_modality: Option<&mut Vec<[u32; 5]>>,
) {
    let row = sink.row_mut();
    dedup_row(row);
    if let Some(rm) = row_modality {
        let mut counts = [0u32; 5];
        for &(_, m) in row.iter() {
            counts[(m as usize).min(4)] += 1;
        }
        rm.push(counts);
    }
    csr.push_ids(row.iter().map(|&(id, _)| id));
    row.clear();
}

/// Multimodal featurizer.
#[derive(Debug, Clone)]
pub struct Featurizer {
    /// Enabled modalities (+ optional hashing mode).
    pub cfg: FeatureConfig,
    /// Whether the per-document mention cache is used (Appendix C.1; the
    /// `appc_caching` bench flips this).
    pub cache_enabled: bool,
}

impl Default for Featurizer {
    fn default() -> Self {
        Self {
            cfg: FeatureConfig::all(),
            cache_enabled: true,
        }
    }
}

impl Featurizer {
    /// Featurizer with a modality configuration and caching on.
    pub fn new(cfg: FeatureConfig) -> Self {
        Self {
            cfg,
            cache_enabled: true,
        }
    }

    /// Feature strings of one candidate: `A{i}_` for argument `i`'s unary
    /// features and `A{i}{j}_` for pair features. The string-rendering
    /// reference path (debug + golden equivalence tests); the hot path is
    /// [`Featurizer::featurize`], which never materializes these strings.
    pub fn features_of(&self, doc: &Document, cand: &Candidate) -> Vec<String> {
        let mut out = Vec::with_capacity(64);
        let mut sink = FeatureSink::collecting(&mut out);
        self.candidate_into(doc, cand, &mut sink, None, &mut CacheStats::default());
        drop(sink);
        out
    }

    /// Emit one candidate's features into `sink`: per-argument unary
    /// features (through the per-document mention cache when one is given)
    /// followed by per-pair binary features.
    fn candidate_into(
        &self,
        doc: &Document,
        cand: &Candidate,
        sink: &mut FeatureSink<'_>,
        mut cache: Option<&mut MentionCache>,
        stats: &mut CacheStats,
    ) {
        for (i, &m) in cand.mentions.iter().enumerate() {
            let key = (m, i as u8);
            if let Some(cache) = cache.as_deref_mut() {
                if let Some(hit) = cache.get(&key) {
                    stats.hits += 1;
                    sink.extend_cached(hit);
                    continue;
                }
            }
            stats.misses += 1;
            let mark = sink.row_len();
            sink.set_prefix(format_args!("A{i}_"));
            unary_features_into(doc, m, &self.cfg, sink);
            if let Some(cache) = cache.as_deref_mut() {
                cache.insert(key, sink.row_slice(mark).to_vec());
            }
        }
        for i in 0..cand.mentions.len() {
            for j in i + 1..cand.mentions.len() {
                sink.set_prefix(format_args!("A{i}{j}_"));
                binary_features_into(doc, cand.mentions[i], cand.mentions[j], &self.cfg, sink);
            }
        }
    }

    /// Featurize an entire candidate set over its corpus. Candidates are
    /// processed document-atomically; the mention cache lives for one
    /// document and is then flushed.
    ///
    /// With the cache enabled, each mention's unary features are composed,
    /// prefixed, and encoded exactly once per document: repeat candidates
    /// replay the cached symbol slice directly (Appendix C.1).
    pub fn featurize(&self, corpus: &Corpus, cands: &CandidateSet) -> FeatureSet {
        let _span = observe::span("featurize_corpus");
        let hashed = self.cfg.hashing_bits > 0;
        let mut vocab = FeatureVocab::new();
        let mut csr = CsrMatrix::new();
        let mut stats = CacheStats::default();
        let mut row_modality: Option<Vec<[u32; 5]>> =
            hashed.then(|| Vec::with_capacity(cands.len()));
        // Keyed by (mention span, argument index): the prefix differs per
        // argument position, so cached symbols are per position.
        let mut cache: MentionCache = HashMap::new();
        let time_docs = observe::doc_timings_enabled();
        let tally;
        {
            let mut sink = if hashed {
                FeatureSink::hashed(self.cfg.hashing_bits)
            } else {
                FeatureSink::interning(&mut vocab)
            };
            for run in cands.candidates.chunk_by(|a, b| a.doc == b.doc) {
                let t0 = time_docs.then(std::time::Instant::now);
                cache.clear(); // flush at document boundary
                let doc = corpus.doc(run[0].doc);
                for cand in run {
                    self.candidate_into(
                        doc,
                        cand,
                        &mut sink,
                        self.cache_enabled.then_some(&mut cache),
                        &mut stats,
                    );
                    finish_row(&mut sink, &mut csr, row_modality.as_mut());
                }
                if let Some(t0) = t0 {
                    let ns = t0.elapsed().as_nanos() as u64;
                    observe::doc_stage_ns(&doc.name, "featurize", ns);
                }
            }
            tally = sink.tally();
        }
        flush_tally(&tally, &stats);
        FeatureSet {
            vocab,
            matrix: Arc::new(csr),
            stats,
            hashing_bits: self.cfg.hashing_bits,
            row_modality,
        }
    }
}

/// One document's featurization shard: self-contained CSR-block rows for
/// that document's candidates. In interned mode every symbol id indexes the
/// shard's own first-occurrence `delta` vocabulary, which also keeps each
/// name's FNV-1a hash (8 bytes per name) so [`merge_shards`] never hashes a
/// name again; in hashing mode ids are final buckets and the delta is
/// empty. Shards carry no document id — sessions key them by
/// `(document content hash, feature-config fingerprint)` and stitch them
/// into a corpus-level [`FeatureSet`] with [`merge_shards`], so a
/// document's shard stays valid when other documents are inserted or
/// removed around it.
#[derive(Debug, Clone)]
pub struct DocFeatureShard {
    /// All rows back-to-back, each sorted by id with one entry per id.
    flat: Vec<(u32, u8)>,
    /// Row boundaries into `flat` (`n_rows + 1` offsets).
    offsets: Vec<u32>,
    /// Shard-local first-occurrence vocabulary with per-name hashes (empty
    /// in hashing mode).
    delta: FeatureVocab,
    stats: CacheStats,
    tally: [u64; 5],
    /// `FeatureConfig::hashing_bits` the shard was built with.
    hashing_bits: u8,
}

impl DocFeatureShard {
    /// Number of candidate rows in this shard.
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Approximate retained heap bytes (rows + delta vocab arena).
    pub fn heap_bytes(&self) -> usize {
        self.flat.capacity() * std::mem::size_of::<(u32, u8)>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.delta.heap_bytes()
    }
}

impl Featurizer {
    /// Featurize one document's candidates into a self-contained
    /// [`DocFeatureShard`]. `cands` must be this document's contiguous
    /// candidate slice (their stored [`Candidate::doc`] ids are ignored —
    /// only the mention spans are read — so positionally stale candidates
    /// from a mutated corpus featurize correctly).
    ///
    /// The per-document mention cache works exactly as in
    /// [`Featurizer::featurize`]; merging shards in corpus order with
    /// [`merge_shards`] reproduces the sequential output byte-for-byte.
    pub fn featurize_doc(&self, doc: &Document, cands: &[Candidate]) -> DocFeatureShard {
        let hashed = self.cfg.hashing_bits > 0;
        let mut delta = FeatureVocab::new();
        let mut flat: Vec<(u32, u8)> = Vec::with_capacity(cands.len() * 64);
        let mut offsets: Vec<u32> = Vec::with_capacity(cands.len() + 1);
        offsets.push(0);
        let mut stats = CacheStats::default();
        let mut cache: MentionCache = HashMap::new();
        let tally;
        {
            let mut sink = if hashed {
                FeatureSink::hashed(self.cfg.hashing_bits)
            } else {
                FeatureSink::interning(&mut delta)
            };
            for cand in cands {
                self.candidate_into(
                    doc,
                    cand,
                    &mut sink,
                    self.cache_enabled.then_some(&mut cache),
                    &mut stats,
                );
                let row = sink.row_mut();
                // Dedup by local id in the shard: a name maps to exactly one
                // delta id, so this removes the same duplicates the
                // sequential path would.
                dedup_row(row);
                flat.extend_from_slice(row);
                row.clear();
                offsets.push(flat.len() as u32);
            }
            tally = sink.tally();
        }
        // Shards live in the session cache: keep no growth slack.
        flat.shrink_to_fit();
        DocFeatureShard {
            flat,
            offsets,
            delta,
            stats,
            tally,
            hashing_bits: self.cfg.hashing_bits,
        }
    }

    /// Featurize a candidate set on `pool`: each document's run of
    /// candidates is one [`Featurizer::featurize_doc`] task, and
    /// [`merge_shards`] stitches the shards in input order, so the
    /// vocabulary order, the CSR rows and the cache statistics are
    /// byte-identical to [`Featurizer::featurize`] at every pool width. At
    /// width 1 this is [`Featurizer::featurize`], which interns each name
    /// once instead of once per document.
    pub fn featurize_parallel(
        &self,
        corpus: &Corpus,
        cands: &CandidateSet,
        pool: &fonduer_par::Pool,
    ) -> FeatureSet {
        if pool.n_threads() == 1 {
            return self.featurize(corpus, cands);
        }
        let _span = observe::span("featurize_corpus");
        let runs: Vec<&[Candidate]> = cands.candidates.chunk_by(|a, b| a.doc == b.doc).collect();
        let shards =
            pool.par_map_timed(&runs, |run| self.featurize_doc(corpus.doc(run[0].doc), run));
        let shards: Vec<DocFeatureShard> = runs
            .iter()
            .zip(shards)
            .map(|(run, (shard, ns))| {
                observe::doc_stage_ns(&corpus.doc(run[0].doc).name, "featurize", ns);
                shard
            })
            .collect();
        merge_shards(self.cfg.hashing_bits, &shards)
    }
}

/// Stitch per-document shards, given in corpus order, into one corpus-level
/// [`FeatureSet`]: byte-identical to [`Featurizer::featurize`] over the
/// concatenated candidates (same first-occurrence vocabulary, same sorted
/// rows, same cache statistics), with the emission tallies and cache
/// counters flushed to `fonduer-observe` as [`Featurizer::featurize`] does.
///
/// The merged matrix has exactly Σ shard rows and Σ shard entries, so its
/// three arrays are allocated once at that size. In hashing mode shard ids
/// are final buckets, already sorted and deduped, and rows stream straight
/// through. In interned mode each shard's names are interned into the
/// corpus vocabulary in first-occurrence order under the hashes the shard
/// kept, so no name is hashed twice. A shard vocabulary holds each name
/// once, so the local → global remap is injective: a remapped row has
/// distinct ids and needs reordering only, never dedup — and the
/// reordering sorts nothing (see `RowOrder`).
pub fn merge_shards<S: Borrow<DocFeatureShard>>(hashing_bits: u8, shards: &[S]) -> FeatureSet {
    let (mut n_rows, mut nnz) = (0usize, 0usize);
    for shard in shards {
        let shard = shard.borrow();
        debug_assert_eq!(shard.hashing_bits, hashing_bits);
        n_rows += shard.n_rows();
        nnz += shard.flat.len();
    }
    let mut indptr: Vec<u32> = Vec::with_capacity(n_rows + 1);
    indptr.push(0);
    let mut indices: Vec<u32> = Vec::with_capacity(nnz);
    let mut vocab = FeatureVocab::new();
    let mut stats = CacheStats::default();
    let mut tally = [0u64; 5];
    let mut row_modality: Option<Vec<[u32; 5]>> =
        (hashing_bits > 0).then(|| Vec::with_capacity(n_rows));
    let mut order = RowOrder::default();
    for shard in shards {
        let shard = shard.borrow();
        let rows = shard
            .offsets
            .windows(2)
            .map(|w| &shard.flat[w[0] as usize..w[1] as usize]);
        if let Some(rm) = row_modality.as_mut() {
            debug_assert_eq!(shard.delta.len(), 0);
            for row in rows {
                let mut counts = [0u32; 5];
                for &(id, m) in row {
                    counts[(m as usize).min(4)] += 1;
                    indices.push(id);
                }
                rm.push(counts);
                indptr.push(indices.len() as u32);
            }
        } else {
            order.rank_shard(&shard.delta, &mut vocab);
            for row in rows {
                order.emit_row(row, &mut indices);
                indptr.push(indices.len() as u32);
            }
        }
        stats.hits += shard.stats.hits;
        stats.misses += shard.stats.misses;
        for (t, v) in tally.iter_mut().zip(shard.tally) {
            *t += v;
        }
    }
    debug_assert_eq!(indices.len(), nnz);
    flush_tally(&tally, &stats);
    FeatureSet {
        vocab,
        matrix: Arc::new(CsrMatrix::from_parts(indptr, indices, vec![1.0; nnz])),
        stats,
        hashing_bits,
        row_modality,
    }
}

/// Reusable scratch that puts one shard's rows into ascending global-id
/// order without sorting. [`RowOrder::rank_shard`] interns the shard's
/// names and ranks its local ids by global id with one scan of a bitmap
/// over the corpus vocabulary; [`RowOrder::emit_row`] then sets a row's
/// ranks in a shard-sized bitset and reads them back in order. Both
/// bitmaps are cleared by the scans that read them.
#[derive(Default)]
struct RowOrder {
    /// Bitmap over the corpus vocabulary, all zero between shards.
    seen: Vec<u64>,
    /// Shard-local id of each global id marked in `seen`.
    owner: Vec<u32>,
    /// Rank of each shard-local id in ascending global-id order.
    rank: Vec<u32>,
    /// Global id at each rank (ascending).
    by_rank: Vec<u32>,
    /// Bitset over the shard's ranks, all zero between rows.
    row_bits: Vec<u64>,
}

impl RowOrder {
    /// Intern a shard's names into `vocab` in local-id order and rank its
    /// local ids by global id, in O(names + id span / 64).
    fn rank_shard(&mut self, delta: &FeatureVocab, vocab: &mut FeatureVocab) {
        let n = delta.len();
        self.rank.resize(n, 0);
        self.by_rank.clear();
        self.row_bits.clear();
        self.row_bits.resize(n.div_ceil(64), 0);
        if n == 0 {
            return;
        }
        let (mut lo, mut hi) = (usize::MAX, 0);
        for local in 0..n as u32 {
            let g = vocab.intern_hashed(delta.hash(local), delta.name(local)) as usize;
            if self.seen.len() <= g / 64 {
                self.seen.resize(g / 64 + 1, 0);
                self.owner.resize(self.seen.len() * 64, 0);
            }
            self.seen[g / 64] |= 1 << (g % 64);
            self.owner[g] = local;
            lo = lo.min(g / 64);
            hi = hi.max(g / 64);
        }
        for w in lo..=hi {
            let mut word = std::mem::take(&mut self.seen[w]);
            while word != 0 {
                let g = w * 64 + word.trailing_zeros() as usize;
                self.rank[self.owner[g] as usize] = self.by_rank.len() as u32;
                self.by_rank.push(g as u32);
                word &= word - 1;
            }
        }
    }

    /// Append one shard row (one entry per local id) to `indices` as
    /// ascending global ids.
    fn emit_row(&mut self, row: &[(u32, u8)], indices: &mut Vec<u32>) {
        for &(local, _) in row {
            let r = self.rank[local as usize] as usize;
            self.row_bits[r / 64] |= 1 << (r % 64);
        }
        for (w, bits) in self.row_bits.iter_mut().enumerate() {
            let mut word = std::mem::take(bits);
            while word != 0 {
                indices.push(self.by_rank[w * 64 + word.trailing_zeros() as usize]);
                word &= word - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fonduer_candidates::{
        CandidateExtractor, ContextScope, DictionaryMatcher, MentionType, NumberRangeMatcher,
        RelationSchema,
    };
    use fonduer_datamodel::DocFormat;
    use fonduer_parser::{parse_document, ParseOptions};

    fn setup() -> (Corpus, CandidateSet) {
        let html = r#"
<h1>SMBT3904...MMBT3904</h1>
<table>
 <tr><th>Parameter</th><th>Value</th><th>Unit</th></tr>
 <tr><td>Collector current</td><td>200</td><td>mA</td></tr>
 <tr><td>Junction temperature</td><td>150</td><td>°C</td></tr>
 <tr><td>Gain</td><td>300</td><td></td></tr>
</table>"#;
        let mut c = Corpus::new("t");
        c.add(parse_document(
            "d0",
            html,
            DocFormat::Pdf,
            &ParseOptions::default(),
        ));
        let ex = CandidateExtractor::new(
            RelationSchema::new("has_collector_current", &["part", "current"]),
            vec![
                MentionType::new(
                    "part",
                    Box::new(DictionaryMatcher::new(["SMBT3904", "MMBT3904"])),
                ),
                MentionType::new("current", Box::new(NumberRangeMatcher::new(100.0, 995.0))),
            ],
        )
        .with_scope(ContextScope::Document);
        let set = ex.extract(&c);
        (c, set)
    }

    #[test]
    fn featurize_produces_row_per_candidate() {
        let (c, set) = setup();
        assert_eq!(set.len(), 6); // 2 parts × 3 numbers
        let fs = Featurizer::default().featurize(&c, &set);
        assert_eq!(fs.matrix.n_rows(), 6);
        assert!(fs.vocab.len() > 20);
        assert_eq!(fs.n_features(), fs.vocab.len());
        // Every row non-empty, presence-valued.
        use crate::sparse::SparseAccess;
        for r in 0..6 {
            let row = fs.matrix.row_of(r);
            assert!(!row.is_empty());
            assert!(row.iter().all(|&(_, v)| v == 1.0));
        }
    }

    #[test]
    fn cache_hits_on_repeated_mentions() {
        let (c, set) = setup();
        let fs = Featurizer::default().featurize(&c, &set);
        // 6 candidates × 2 mentions = 12 lookups over 5 distinct mentions.
        assert_eq!(fs.stats.hits + fs.stats.misses, 12);
        assert_eq!(fs.stats.misses, 5);
        assert_eq!(fs.stats.hits, 7);
        assert!(fs.stats.hit_ratio() > 0.5);
    }

    #[test]
    fn disabled_cache_recomputes_everything() {
        let (c, set) = setup();
        let f = Featurizer {
            cache_enabled: false,
            ..Default::default()
        };
        let fs = f.featurize(&c, &set);
        assert_eq!(fs.stats.hits, 0);
        assert_eq!(fs.stats.misses, 12);
    }

    #[test]
    fn cached_and_uncached_agree() {
        let (c, set) = setup();
        let with = Featurizer::default().featurize(&c, &set);
        let f = Featurizer {
            cache_enabled: false,
            ..Default::default()
        };
        let without = f.featurize(&c, &set);
        use crate::sparse::SparseAccess;
        assert_eq!(with.vocab.len(), without.vocab.len());
        for r in 0..set.len() {
            assert_eq!(with.matrix.row_of(r), without.matrix.row_of(r));
        }
    }

    #[test]
    fn modality_counts_partition_each_row() {
        let (c, set) = setup();
        let fs = Featurizer::default().featurize(&c, &set);
        use crate::sparse::SparseAccess;
        for r in 0..set.len() {
            let counts = fs.modality_counts(r);
            let total: u32 = counts.iter().sum();
            assert_eq!(total as usize, fs.matrix.row_of(r).len(), "row {r}");
            // This fixture always emits textual and structural features,
            // and the second argument sits in a table.
            assert!(counts[0] > 0, "no textual features in row {r}");
            assert!(counts[1] > 0, "no structural features in row {r}");
            assert!(counts[2] > 0, "no tabular features in row {r}");
        }
    }

    #[test]
    fn argument_prefixes_distinguish_mentions() {
        let (c, set) = setup();
        let fs = Featurizer::default().featurize(&c, &set);
        assert!(fs.vocab.get("A0_TAG_h1").is_some());
        assert!(fs.vocab.get("A1_COL_HEAD_value").is_some());
        assert!(fs.vocab.get("A01_COMMON_ANCESTOR_section").is_some());
        // The part mention never carries table features.
        assert!(fs.vocab.get("A0_COL_HEAD_value").is_none());
    }

    #[test]
    fn ablation_removes_modal_features() {
        let (c, set) = setup();
        let fs = Featurizer::new(FeatureConfig::without("visual")).featurize(&c, &set);
        for col in 0..fs.vocab.len() as u32 {
            let name = fs.vocab.name(col);
            assert!(
                !name.contains("ALIGNED") && !name.contains("FONT") && !name.contains("PAGE"),
                "visual feature leaked: {name}"
            );
        }
    }

    #[test]
    fn vocab_interning_is_stable() {
        let mut v = FeatureVocab::new();
        let a = v.intern("X");
        let b = v.intern("Y");
        assert_eq!(v.intern("X"), a);
        assert_ne!(a, b);
        assert_eq!(v.name(a), "X");
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn features_of_matches_interned_path() {
        let (c, set) = setup();
        let f = Featurizer::default();
        let fs = f.featurize(&c, &set);
        use crate::sparse::SparseAccess;
        for (r, cand) in set.candidates.iter().enumerate() {
            let mut names = f.features_of(c.doc(cand.doc), cand);
            names.sort();
            names.dedup();
            let mut interned: Vec<String> = fs
                .matrix
                .row_of(r)
                .iter()
                .map(|&(col, _)| fs.vocab.name(col).to_string())
                .collect();
            interned.sort();
            assert_eq!(names, interned, "row {r}");
        }
    }

    #[test]
    fn hashing_mode_buckets_without_vocab() {
        let (c, set) = setup();
        let fs = Featurizer::new(FeatureConfig::all().with_hashing(12)).featurize(&c, &set);
        assert!(fs.vocab.is_empty());
        assert_eq!(fs.hashing_bits(), 12);
        assert_eq!(fs.n_features(), 1 << 12);
        assert_eq!(fs.matrix.n_rows(), set.len());
        use crate::sparse::SparseAccess;
        for r in 0..set.len() {
            let row = fs.matrix.row_of(r);
            assert!(!row.is_empty());
            assert!(row.iter().all(|&(cid, v)| cid < (1 << 12) && v == 1.0));
            // Modality tallies were recorded at featurization time.
            let counts = fs.modality_counts(r);
            assert_eq!(counts.iter().sum::<u32>() as usize, row.len());
            // Names are gone; lazy rendering falls back to bucket ids.
            assert!(fs.feature_names(r).iter().all(|n| n.starts_with('#')));
        }
    }

    #[test]
    fn hashing_mode_same_cache_behavior() {
        let (c, set) = setup();
        let fs = Featurizer::new(FeatureConfig::all().with_hashing(14)).featurize(&c, &set);
        assert_eq!(fs.stats.misses, 5);
        assert_eq!(fs.stats.hits, 7);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use fonduer_candidates::{
        CandidateExtractor, DictionaryMatcher, MentionType, NumberRangeMatcher, RelationSchema,
    };
    use fonduer_datamodel::{DocFormat, DocId};
    use fonduer_par::Pool;
    use fonduer_parser::{parse_document, ParseOptions};

    fn corpus_and_cands() -> (Corpus, CandidateSet) {
        let mut corpus = Corpus::new("p");
        let mut parts = Vec::new();
        for i in 0..6 {
            let part = format!("PART{i}A");
            let html = format!(
                "<h1>{part}</h1><table><tr><th>Value</th></tr>\
                 <tr><td>{}</td></tr><tr><td>{}</td></tr></table>",
                100 + i,
                300 + i
            );
            corpus.add(parse_document(
                &format!("d{i}"),
                &html,
                DocFormat::Pdf,
                &ParseOptions::default(),
            ));
            parts.push(part);
        }
        let ex = CandidateExtractor::new(
            RelationSchema::new("r", &["part", "value"]),
            vec![
                MentionType::new("part", Box::new(DictionaryMatcher::new(parts))),
                MentionType::new("value", Box::new(NumberRangeMatcher::new(1.0, 999.0))),
            ],
        );
        let cands = ex.extract(&corpus);
        assert!(cands.len() >= 12);
        (corpus, cands)
    }

    #[test]
    fn parallel_featurization_matches_sequential() {
        let (corpus, cands) = corpus_and_cands();
        let f = Featurizer::default();
        let seq = f.featurize(&corpus, &cands);
        for threads in [2, 3, 16] {
            let par = f.featurize_parallel(&corpus, &cands, &Pool::exact(threads));
            // Byte-identical artifacts: same vocab order, same CSR arrays.
            assert_eq!(par.vocab.len(), seq.vocab.len(), "threads={threads}");
            for c in 0..seq.vocab.len() as u32 {
                assert_eq!(par.vocab.name(c), seq.vocab.name(c), "threads={threads}");
            }
            assert_eq!(par.matrix, seq.matrix, "threads={threads}");
            assert_eq!(par.stats, seq.stats, "threads={threads}");
        }
        // A document split into two runs gets two cache epochs on both
        // paths: the tasks are runs of one document, not documents.
        let mut split = cands;
        split.candidates.rotate_left(1);
        let seq = f.featurize(&corpus, &split);
        let par = f.featurize_parallel(&corpus, &split, &Pool::exact(2));
        assert_eq!(par.matrix, seq.matrix);
        assert_eq!(par.stats, seq.stats);
    }

    #[test]
    fn parallel_hashing_matches_sequential() {
        let (corpus, cands) = corpus_and_cands();
        let f = Featurizer::new(FeatureConfig::all().with_hashing(16));
        let seq = f.featurize(&corpus, &cands);
        for threads in [2, 8] {
            let par = f.featurize_parallel(&corpus, &cands, &Pool::exact(threads));
            assert_eq!(par.matrix, seq.matrix, "threads={threads}");
            assert_eq!(par.stats, seq.stats, "threads={threads}");
            for r in 0..cands.len() {
                assert_eq!(par.modality_counts(r), seq.modality_counts(r), "row {r}");
            }
        }
    }

    /// Split a candidate set into per-document contiguous slices.
    fn doc_slices(cands: &CandidateSet) -> Vec<(DocId, &[Candidate])> {
        let mut out: Vec<(DocId, &[Candidate])> = Vec::new();
        let mut start = 0usize;
        for i in 1..=cands.len() {
            if i == cands.len() || cands.candidates[i].doc != cands.candidates[i - 1].doc {
                out.push((cands.candidates[start].doc, &cands.candidates[start..i]));
                start = i;
            }
        }
        out
    }

    #[test]
    fn doc_shard_merge_matches_sequential() {
        let (corpus, cands) = corpus_and_cands();
        let f = Featurizer::default();
        let seq = f.featurize(&corpus, &cands);
        let mut shards = Vec::new();
        for (doc, slice) in doc_slices(&cands) {
            let shard = f.featurize_doc(corpus.doc(doc), slice);
            assert_eq!(shard.n_rows(), slice.len());
            shards.push(shard);
        }
        let merged = merge_shards(0, &shards);
        assert_eq!(merged.vocab.len(), seq.vocab.len());
        for c in 0..seq.vocab.len() as u32 {
            assert_eq!(merged.vocab.name(c), seq.vocab.name(c));
            assert_eq!(merged.vocab.modality_idx(c), seq.vocab.modality_idx(c));
        }
        assert_eq!(merged.matrix, seq.matrix);
        assert_eq!(merged.stats, seq.stats);
    }

    #[test]
    fn doc_shard_merge_matches_sequential_hashed() {
        let (corpus, cands) = corpus_and_cands();
        let f = Featurizer::new(FeatureConfig::all().with_hashing(16));
        let seq = f.featurize(&corpus, &cands);
        let shards: Vec<DocFeatureShard> = doc_slices(&cands)
            .into_iter()
            .map(|(doc, slice)| f.featurize_doc(corpus.doc(doc), slice))
            .collect();
        let merged = merge_shards(16, &shards);
        assert_eq!(merged.matrix, seq.matrix);
        assert_eq!(merged.stats, seq.stats);
        for r in 0..cands.len() {
            assert_eq!(merged.modality_counts(r), seq.modality_counts(r), "row {r}");
        }
    }

    #[test]
    fn doc_shards_are_position_independent() {
        // A shard computed for a document must merge identically no matter
        // what DocId the candidates carried when it was computed — the
        // content-keyed shard cache relies on this.
        let (corpus, cands) = corpus_and_cands();
        let f = Featurizer::default();
        let slices = doc_slices(&cands);
        let (doc, slice) = slices[2];
        let shard = f.featurize_doc(corpus.doc(doc), slice);
        // Same mentions, deliberately wrong positional ids.
        let stale: Vec<Candidate> = slice
            .iter()
            .map(|c| Candidate::new(DocId(999), c.mentions.clone()))
            .collect();
        let shard_stale = f.featurize_doc(corpus.doc(doc), &stale);
        let (a, b) = (merge_shards(0, &[shard]), merge_shards(0, &[shard_stale]));
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.stats, b.stats);
    }
}
