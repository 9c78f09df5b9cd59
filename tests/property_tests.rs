//! Randomized property tests over the core data structures and invariants,
//! spanning crates: generated documents always validate, tokenization
//! preserves offsets, alignment is sound, sparse representations agree,
//! the generative model stays calibrated, and scopes nest.
//!
//! Cases are generated with the workspace's deterministic `StdRng` (seeded
//! per test), so failures reproduce exactly; each property runs a fixed
//! number of random cases in the spirit of property-based testing.

use fonduer::prelude::*;
use fonduer_datamodel::{assert_valid, ContextRef, DocumentBuilder, SentenceData};
use fonduer_features::{CooMatrix, CsrMatrix, FeatureSink, LilMatrix, SparseAccess};
use rand::{rngs::StdRng, Rng, SeedableRng};

const CASES: usize = 64;

const WORD_CHARS: &[char] = &[
    'A', 'B', 'C', 'x', 'y', 'z', 'M', 'T', '0', '1', '2', '9', '°', '%', '$', '-',
];
const TEXT_CHARS: &[char] = &[
    'A', 'b', 'C', 'd', 'E', 'f', '0', '1', '5', '9', ' ', ' ', ' ', '.', ',', ';', ':', '(', ')',
    '-', '~', '≤', '°',
];
const SOUP_CHARS: &[char] = &[
    'a', 'Z', '0', '7', ' ', '<', '>', '/', '=', '"', 't', 'd', 'r', 'h', 'p',
];

fn chars_from(rng: &mut StdRng, alphabet: &[char], len: usize) -> String {
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

/// A word of 1-8 characters (letters, digits, units punctuation).
fn word(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..=8);
    chars_from(rng, WORD_CHARS, len)
}

/// Free text of up to 120 characters: words, punctuation, numbers, spaces.
fn text(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..=120);
    chars_from(rng, TEXT_CHARS, len)
}

#[test]
fn tokenizer_offsets_always_slice_back() {
    let mut rng = StdRng::seed_from_u64(0xF0);
    for _ in 0..CASES {
        let s = text(&mut rng);
        for tok in fonduer_nlp::tokenize(&s) {
            let t = tok.text(&s);
            assert_eq!(&s[tok.start as usize..tok.end as usize], t);
            assert!(!t.is_empty());
            assert!(!t.chars().next().unwrap().is_whitespace());
        }
    }
}

#[test]
fn tokens_are_monotone_and_disjoint() {
    let mut rng = StdRng::seed_from_u64(0xF1);
    for _ in 0..CASES {
        let s = text(&mut rng);
        let toks = fonduer_nlp::tokenize(&s);
        for w in toks.windows(2) {
            assert!(w[0].end <= w[1].start, "{:?} then {:?}", w[0], w[1]);
        }
    }
}

#[test]
fn sentence_splitter_covers_text() {
    let mut rng = StdRng::seed_from_u64(0xF2);
    for _ in 0..CASES {
        let s = text(&mut rng);
        // Every sentence range is in bounds and ordered.
        let spans = fonduer_nlp::split_sentences(&s);
        let mut prev_end = 0;
        for (a, b) in spans {
            assert!(a <= b && b <= s.len());
            assert!(a >= prev_end);
            prev_end = b;
        }
    }
}

#[test]
fn built_documents_always_validate() {
    let mut rng = StdRng::seed_from_u64(0xF3);
    for _ in 0..CASES {
        let rows = rng.gen_range(1u32..5);
        let cols = rng.gen_range(1u32..5);
        let sentences: Vec<Vec<String>> = (0..rng.gen_range(1..6))
            .map(|_| (0..rng.gen_range(1..6)).map(|_| word(&mut rng)).collect())
            .collect();
        let mut b = DocumentBuilder::new("prop", DocFormat::Html);
        let sec = b.section();
        let tb = b.text_block(sec);
        let p = b.paragraph(ContextRef::TextBlock(tb));
        for words in &sentences {
            b.sentence(p, SentenceData::from_words(words));
        }
        let t = b.table(sec, rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let cell = b.cell_at(t, r, c);
                let cp = b.paragraph(ContextRef::Cell(cell));
                b.sentence(cp, SentenceData::from_words(&[format!("c{r}x{c}")]));
            }
        }
        let d = b.finish();
        assert_valid(&d);
        // Traversal invariants: every cell sentence resolves to its table.
        for sid in d.sentence_ids() {
            if let Some(cell) = d.cell_of_sentence(sid) {
                assert_eq!(d.cell(cell).table, fonduer_datamodel::TableId(0));
            }
        }
    }
}

#[test]
fn parse_document_never_panics_and_validates() {
    let mut rng = StdRng::seed_from_u64(0xF4);
    for _ in 0..CASES {
        let len = rng.gen_range(0..=300);
        let html = chars_from(&mut rng, SOUP_CHARS, len);
        // Arbitrary tag soup must parse into a *valid* document.
        let d = parse_document("soup", &html, DocFormat::Html, &Default::default());
        assert_valid(&d);
    }
}

#[test]
fn alignment_is_injective_and_correct() {
    let mut rng = StdRng::seed_from_u64(0xF5);
    for _ in 0..CASES {
        let original: Vec<String> = (0..rng.gen_range(0..30)).map(|_| word(&mut rng)).collect();
        // Converted = original with some words dropped: every mapped index
        // must point at an equal word, and mapping must be injective.
        let converted: Vec<String> = original
            .iter()
            .filter(|_| !rng.gen::<bool>())
            .cloned()
            .collect();
        let a = fonduer_parser::align_words(&original, &converted);
        let mut seen = std::collections::HashSet::new();
        for (i, m) in a.mapping.iter().enumerate() {
            if let Some(j) = m {
                assert_eq!(&converted[i], &original[*j]);
                assert!(seen.insert(*j), "mapping must be injective");
            }
        }
    }
}

#[test]
fn sparse_representations_agree() {
    let mut rng = StdRng::seed_from_u64(0xF6);
    for _ in 0..CASES {
        let n = rng.gen_range(1..200);
        let entries: Vec<(usize, u32, f32)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0usize..50),
                    rng.gen_range(0u32..64),
                    rng.gen_range(-2.0f32..2.0),
                )
            })
            .collect();
        let mut lil = LilMatrix::new();
        let mut coo = CooMatrix::new();
        let mut max_row = 0;
        for &(r, c, v) in &entries {
            lil.set(r, c, v);
            coo.push(r, c, v);
            max_row = max_row.max(r);
        }
        for r in 0..=max_row {
            assert_eq!(lil.row_of(r), coo.row_of(r), "row {}", r);
        }
        assert_eq!(coo.to_lil().row_of(max_row), lil.row_of(max_row));
    }
}

#[test]
fn csr_round_trips_random_rows() {
    let mut rng = StdRng::seed_from_u64(0xFB);
    for _ in 0..CASES {
        let n_rows = rng.gen_range(0..20);
        let rows: Vec<Vec<u32>> = (0..n_rows)
            .map(|_| {
                let mut ids: Vec<u32> = (0..rng.gen_range(0..30))
                    .map(|_| rng.gen_range(0u32..100))
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            })
            .collect();
        let mut csr = CsrMatrix::new();
        for ids in &rows {
            csr.push_ids(ids.iter().copied());
        }
        assert_eq!(csr.n_rows(), n_rows);
        // indptr is monotone and closes over the flat arrays.
        for w in csr.indptr().windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(*csr.indptr().last().unwrap() as usize, csr.indices().len());
        for (r, ids) in rows.iter().enumerate() {
            assert_eq!(csr.row_ids(r), ids.as_slice(), "row {r}");
            // Presence-only rows: every stored entry reads 1.0.
            let present: Vec<(u32, f32)> = ids.iter().map(|&c| (c, 1.0)).collect();
            assert_eq!(csr.row_of(r), present, "row {r}");
        }
        // The LIL view agrees with the CSR rows.
        let lil = csr.to_lil();
        for (r, ids) in rows.iter().enumerate() {
            let got: Vec<u32> = lil.row_of(r).iter().map(|&(c, _)| c).collect();
            assert_eq!(&got, ids, "lil row {r}");
        }
    }
}

#[test]
fn lil_push_row_sorts_and_dedups_arbitrary_entries() {
    let mut rng = StdRng::seed_from_u64(0xFC);
    for _ in 0..CASES {
        let entries: Vec<(u32, f32)> = (0..rng.gen_range(0..40))
            .map(|_| (rng.gen_range(0u32..16), rng.gen_range(-2.0f32..2.0)))
            .collect();
        let mut lil = LilMatrix::new();
        let r = lil.push_row(entries.clone());
        let row = lil.row(r);
        // Strictly increasing columns — sorted with duplicates collapsed.
        for w in row.windows(2) {
            assert!(w[0].0 < w[1].0, "{row:?}");
        }
        // Last write wins on duplicate columns, as LilMatrix::set does.
        for &(c, v) in row {
            let want = entries.iter().rev().find(|&&(ec, _)| ec == c).unwrap().1;
            assert_eq!(v, want, "col {c}");
        }
    }
}

#[test]
fn feature_hashing_is_deterministic_across_runs_and_threads() {
    let mut rng = StdRng::seed_from_u64(0xFD);
    for _ in 0..CASES {
        let bits = rng.gen_range(4u8..=24);
        let names: Vec<String> = (0..rng.gen_range(1..40)).map(|_| word(&mut rng)).collect();
        let hash_all = |names: &[String]| -> Vec<(u32, u8)> {
            let mut sink = FeatureSink::hashed(bits);
            for n in names {
                sink.feat(n);
            }
            sink.take_row()
        };
        let here = hash_all(&names);
        // Every bucket is inside the table.
        assert!(here.iter().all(|&(id, _)| u64::from(id) < 1u64 << bits));
        // Same names, same buckets: re-run in this thread and in others.
        assert_eq!(here, hash_all(&names));
        let results: Vec<Vec<(u32, u8)>> = std::thread::scope(|s| {
            (0..4)
                .map(|_| s.spawn(|| hash_all(&names)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for r in results {
            assert_eq!(here, r);
        }
    }
}

fn random_votes(rng: &mut StdRng, rows: usize, cols: usize) -> LabelMatrix {
    let mut lm = LabelMatrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            lm.set(i, j, rng.gen_range(-1i8..=1));
        }
    }
    lm
}

#[test]
fn generative_marginals_are_probabilities() {
    let mut rng = StdRng::seed_from_u64(0xF7);
    for _ in 0..CASES {
        let n = rng.gen_range(1..100);
        let lm = random_votes(&mut rng, n, 4);
        let gm = GenerativeModel::fit(&lm, &GenerativeOptions::default());
        for p in gm.predict(&lm) {
            assert!((0.0..=1.0).contains(&p), "{}", p);
            assert!(p.is_finite());
        }
        for a in &gm.accuracies {
            assert!((0.5..=0.98).contains(a));
        }
    }
}

#[test]
fn label_matrix_metrics_bounded() {
    let mut rng = StdRng::seed_from_u64(0xF8);
    for _ in 0..CASES {
        let n = rng.gen_range(1..50);
        let lm = random_votes(&mut rng, n, 3);
        for j in 0..3 {
            let (cov, ovl, cfl) = (lm.coverage(j), lm.overlap(j), lm.conflict(j));
            assert!((0.0..=1.0).contains(&cov));
            assert!(ovl <= cov + 1e-12, "overlap {} > coverage {}", ovl, cov);
            assert!(cfl <= ovl + 1e-12, "conflict {} > overlap {}", cfl, ovl);
        }
    }
}

#[test]
fn bce_loss_nonnegative_and_grad_bounded() {
    let mut rng = StdRng::seed_from_u64(0xF9);
    for _ in 0..256 {
        let z = rng.gen_range(-50.0f32..50.0);
        let p = rng.gen_range(0.0f32..1.0);
        let (loss, grad) = fonduer_nn::bce_with_logit(z, p);
        assert!(loss >= -1e-5, "{}", loss);
        assert!(loss.is_finite());
        assert!((-1.0..=1.0).contains(&grad));
    }
}

#[test]
fn normalized_gold_matches_span_extraction() {
    let mut rng = StdRng::seed_from_u64(0xFA);
    for _ in 0..CASES {
        let words: Vec<String> = (0..rng.gen_range(1..6)).map(|_| word(&mut rng)).collect();
        // A value written into a document and re-extracted as a span
        // normalizes to the same string the gold KB stores.
        let raw = words.join(" ");
        let mut b = DocumentBuilder::new("t", DocFormat::Html);
        let sec = b.section();
        let tb = b.text_block(sec);
        let p = b.paragraph(ContextRef::TextBlock(tb));
        let sd = fonduer_nlp::preprocess_sentence(&raw, &Default::default());
        let n = sd.words.len() as u32;
        b.sentence(p, sd);
        let d = b.finish();
        if n > 0 {
            let span = Span::new(fonduer_datamodel::SentenceId(0), 0, n);
            assert_eq!(
                span.normalized_text(&d),
                fonduer_synth::normalize_value(&raw)
            );
        }
    }
}
