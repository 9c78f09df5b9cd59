//! Equivalence between the per-document shard merge and the monolithic
//! featurizer.
//!
//! Sessions featurize one document at a time (`Featurizer::featurize_doc`),
//! resolve each shard's names into one name table
//! (`DocFeatureShard::resolve`) and stitch the shards together with
//! `merge_shards`, which interns no name, sorts no row and allocates the
//! merged matrix at its exact size. The result must be byte-identical to
//! `Featurizer::featurize` over the same candidates: the same vocabulary
//! (names and modality tags, in first-occurrence order), the same CSR
//! arrays, the same cache statistics and the same per-row modality
//! tallies. This holds in interned mode and in hashing mode with buckets
//! narrow enough to collide, on every synth domain, with empty shards
//! spliced in, with one shard merged twice in a row (every name already
//! known), and with the corpus reversed: shards resolved in corpus order
//! and merged backwards, so the table's order is not the merge's.

use fonduer_candidates::{Candidate, CandidateSet};
use fonduer_core::domains;
use fonduer_datamodel::Corpus;
use fonduer_features::{
    merge_shards, DocFeatureShard, FeatureConfig, FeatureSet, FeatureVocab, Featurizer,
    SparseAccess,
};
use fonduer_synth::{Domain, SynthDataset};

/// Hashing width small enough that distinct names share buckets.
const HASH_BITS: u8 = 8;

fn candidates(domain: Domain, ds: &SynthDataset, corpus: &Corpus) -> CandidateSet {
    let tasks = match domain {
        Domain::Electronics => domains::electronics::tasks(ds),
        Domain::Ads => domains::ads::tasks(ds),
        Domain::Paleo => domains::paleo::tasks(ds),
        Domain::Genomics => domains::genomics::tasks(ds),
    };
    tasks[0].extractor.extract(corpus)
}

/// Each document's contiguous candidate slice, in corpus order (empty for
/// a document without candidates).
fn doc_slices<'a>(corpus: &Corpus, cands: &'a CandidateSet) -> Vec<&'a [Candidate]> {
    let mut out = Vec::with_capacity(corpus.len());
    let mut lo = 0;
    for (id, _) in corpus.iter() {
        let mut hi = lo;
        while hi < cands.candidates.len() && cands.candidates[hi].doc == id {
            hi += 1;
        }
        out.push(&cands.candidates[lo..hi]);
        lo = hi;
    }
    assert_eq!(lo, cands.len(), "candidates are grouped in corpus order");
    out
}

/// Each document's shard, resolved into one name table in corpus order.
fn shards(
    fz: &Featurizer,
    corpus: &Corpus,
    cands: &CandidateSet,
) -> (FeatureVocab, Vec<DocFeatureShard>) {
    let mut names = FeatureVocab::new();
    let shards = corpus
        .iter()
        .zip(doc_slices(corpus, cands))
        .map(|((_, doc), slice)| {
            let mut shard = fz.featurize_doc(doc, slice);
            shard.resolve(&mut names);
            shard
        })
        .collect();
    (names, shards)
}

fn assert_same(merged: &FeatureSet, direct: &FeatureSet, what: &str) {
    assert_eq!(merged.hashing_bits(), direct.hashing_bits(), "{what}");
    assert_eq!(
        merged.vocab.len(),
        direct.vocab.len(),
        "{what}: vocabulary size"
    );
    for col in 0..direct.vocab.len() as u32 {
        assert_eq!(
            merged.vocab.name(col),
            direct.vocab.name(col),
            "{what}: name of column {col}"
        );
        assert_eq!(
            merged.vocab.modality_idx(col),
            direct.vocab.modality_idx(col),
            "{what}: modality of column {col}"
        );
    }
    let (m, d) = (&merged.matrix, &direct.matrix);
    assert_eq!(m.indptr(), d.indptr(), "{what}: indptr");
    assert_eq!(m.indices(), d.indices(), "{what}: indices");
    assert_eq!(merged.stats, direct.stats, "{what}: cache stats");
    for r in 0..d.n_rows() {
        assert_eq!(
            merged.modality_counts(r),
            direct.modality_counts(r),
            "{what}: modality counts of row {r}"
        );
    }
    // Allocated once at Σ rows + 1 offsets and Σ entries: no spare capacity.
    assert_eq!(
        m.heap_bytes(),
        4 * (m.indptr().len() + m.nnz()),
        "{what}: merged matrix is not exactly sized"
    );
}

/// A corpus of `docs` cloned from `ds`, renamed by position so names stay
/// unique when a document repeats.
fn corpus_of(ds: &SynthDataset, docs: &[usize]) -> Corpus {
    let all: Vec<_> = ds.corpus.iter().map(|(_, d)| d).collect();
    let mut corpus = Corpus::new("merge");
    for (k, &i) in docs.iter().enumerate() {
        let mut doc = all[i].clone();
        doc.name = format!("{k}-{}", doc.name);
        corpus.add(doc);
    }
    corpus
}

fn check_domain(domain: Domain, n_docs: usize, seed: u64) {
    let ds = domain.generate(n_docs, seed);
    let corpus = &ds.corpus;
    let cands = candidates(domain, &ds, corpus);
    assert!(!cands.candidates.is_empty(), "{domain:?}: no candidates");
    let slices = doc_slices(corpus, &cands);
    let mut nnz_interned = 0;
    for cfg in [
        FeatureConfig::all(),
        FeatureConfig::all().with_hashing(HASH_BITS),
    ] {
        let bits = cfg.hashing_bits;
        let what = |case: &str| format!("{domain:?} bits={bits} {case}");
        let fz = Featurizer::new(cfg);
        let direct = fz.featurize(corpus, &cands);
        let (names, forward) = shards(&fz, corpus, &cands);
        assert_same(
            &merge_shards(&names, bits, &forward),
            &direct,
            &what("corpus order"),
        );

        // Narrow buckets must actually collide for the hashed case to test
        // anything: fewer entries than distinct names.
        if bits == 0 {
            nnz_interned = direct.matrix.nnz();
        } else {
            assert!(
                direct.matrix.nnz() < nnz_interned,
                "{domain:?}: no bucket collisions at {bits} bits"
            );
        }

        // Documents without candidates contribute empty shards.
        let empty = fz.featurize_doc(corpus.iter().next().unwrap().1, &[]);
        assert_eq!(empty.n_rows(), 0);
        let mut spliced: Vec<&DocFeatureShard> = forward.iter().collect();
        for at in [spliced.len(), spliced.len() / 2, 0] {
            spliced.insert(at, &empty);
        }
        assert_same(
            &merge_shards(&names, bits, &spliced),
            &direct,
            &what("empty shards"),
        );
        assert_same(
            &merge_shards(&names, bits, &[&empty]),
            &fz.featurize(
                corpus,
                &CandidateSet {
                    schema: cands.schema.clone(),
                    candidates: Vec::new(),
                },
            ),
            &what("only an empty shard"),
        );

        // The busiest document twice in a row: the second copy finds every
        // name already interned.
        let busiest = (0..slices.len()).max_by_key(|&i| slices[i].len()).unwrap();
        let twice = corpus_of(&ds, &[busiest, busiest]);
        let twice_cands = candidates(domain, &ds, &twice);
        assert_same(
            &merge_shards(&names, bits, &[&forward[busiest], &forward[busiest]]),
            &fz.featurize(&twice, &twice_cands),
            &what("one shard twice"),
        );

        // The corpus reversed: the shards computed and resolved in corpus
        // order, merged backwards, against featurizing the reversed corpus
        // from scratch. Column ids follow the merge, not the table.
        let order: Vec<usize> = (0..corpus.len()).rev().collect();
        let reversed = corpus_of(&ds, &order);
        let reversed_cands = candidates(domain, &ds, &reversed);
        let backwards: Vec<&DocFeatureShard> = order.iter().map(|&i| &forward[i]).collect();
        assert_same(
            &merge_shards(&names, bits, &backwards),
            &fz.featurize(&reversed, &reversed_cands),
            &what("reversed corpus"),
        );
    }
}

#[test]
fn electronics_shards_merge_like_featurize() {
    check_domain(Domain::Electronics, 12, 7);
}

#[test]
fn ads_shards_merge_like_featurize() {
    check_domain(Domain::Ads, 8, 11);
}

#[test]
fn paleo_shards_merge_like_featurize() {
    check_domain(Domain::Paleo, 3, 13);
}

#[test]
fn genomics_shards_merge_like_featurize() {
    check_domain(Domain::Genomics, 8, 17);
}
