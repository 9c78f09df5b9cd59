//! The label matrix Λ ∈ {−1, 0, 1}^{k×l} (paper Appendix A.1) and the LF
//! quality metrics Fonduer surfaces during iterative development (§3.3:
//! "coverage, conflict, and overlap").
//!
//! [`LabelMatrix`] answers per-column questions by scanning Λ.
//! [`LabelVotes`] is one row-major pass over Λ that keeps only its votes,
//! per-row tallies and distinct rows: the label model, the LF diagnostics
//! and the vote counters read it instead of re-scanning the dense matrix.

use std::collections::HashMap;

use crate::lf::LabelingFunction;
use fonduer_candidates::{Candidate, CandidateSet};
use fonduer_datamodel::Corpus;

/// Dense label matrix: `n` candidates × `l` labeling functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelMatrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<i8>,
}

impl LabelMatrix {
    /// An all-abstain matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            data: vec![0; n_rows * n_cols],
        }
    }

    /// Apply a LF library to every candidate.
    pub fn apply(lfs: &[&LabelingFunction], corpus: &Corpus, cands: &CandidateSet) -> Self {
        let _span = fonduer_observe::span("lf_apply");
        let time_docs = fonduer_observe::doc_timings_enabled();
        let mut m = Self::zeros(cands.len(), lfs.len());
        let mut i = 0;
        for run in cands.candidates.chunk_by(|a, b| a.doc == b.doc) {
            let t0 = time_docs.then(std::time::Instant::now);
            let doc = corpus.doc(run[0].doc);
            for cand in run {
                for (j, lf) in lfs.iter().enumerate() {
                    m.set(i, j, lf.label(doc, cand));
                }
                i += 1;
            }
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                fonduer_observe::doc_stage_ns(&doc.name, "lf_apply", ns);
            }
        }
        m.record_vote_counters();
        m
    }

    /// Apply a LF library on `pool`: each document's run of candidates is
    /// one task that votes every LF's
    /// [`vote_column`](LabelingFunction::vote_column), and the columns are
    /// pushed in input order with [`LabelMatrix::push_rows`], so the matrix
    /// and the vote counters are byte-identical to [`LabelMatrix::apply`]
    /// at every pool width. At width 1 this is [`LabelMatrix::apply`].
    pub fn apply_parallel(
        lfs: &[&LabelingFunction],
        corpus: &Corpus,
        cands: &CandidateSet,
        pool: &fonduer_par::Pool,
    ) -> Self {
        if pool.n_threads() == 1 {
            return Self::apply(lfs, corpus, cands);
        }
        let _span = fonduer_observe::span("lf_apply");
        let runs: Vec<&[Candidate]> = cands.candidates.chunk_by(|a, b| a.doc == b.doc).collect();
        let voted = pool.par_map_timed(&runs, |run| {
            let doc = corpus.doc(run[0].doc);
            lfs.iter()
                .map(|lf| lf.vote_column(doc, run))
                .collect::<Vec<_>>()
        });
        let mut m = Self::zeros(0, lfs.len());
        let mut columns: Vec<&[i8]> = Vec::with_capacity(lfs.len());
        for (run, (voted, ns)) in runs.iter().zip(&voted) {
            fonduer_observe::doc_stage_ns(&corpus.doc(run[0].doc).name, "lf_apply", *ns);
            columns.clear();
            columns.extend(voted.iter().map(|c| &c[..]));
            m.push_rows(run.len(), &columns);
        }
        m.record_vote_counters();
        m
    }

    /// Append one document's `n_rows` candidate rows, given as one vote
    /// column per LF in column order (each `n_rows` long: the LF's
    /// [`vote_column`](LabelingFunction::vote_column) on the document's
    /// candidates). Pushing every document's columns in corpus order onto
    /// `zeros(0, n_cols)` reproduces [`LabelMatrix::apply`] over the
    /// concatenated candidates byte for byte — the reduction step of the
    /// shard-cached session and of [`LabelMatrix::apply_parallel`].
    pub fn push_rows(&mut self, n_rows: usize, columns: &[&[i8]]) {
        assert_eq!(columns.len(), self.n_cols, "one vote column per LF");
        debug_assert!(columns.iter().all(|c| c.len() == n_rows));
        self.data.reserve(n_rows * self.n_cols);
        for r in 0..n_rows {
            self.data.extend(columns.iter().map(|c| c[r]));
        }
        self.n_rows += n_rows;
    }

    /// Publish the vote tally of this finished matrix:
    /// `supervision.votes.{positive,negative,abstain}` (one count per cell)
    /// and `supervision.rows_covered` (rows with a non-abstain vote). Every
    /// path that builds Λ reports through here, so equal matrices add
    /// equal counts.
    pub fn record_vote_counters(&self) {
        let (mut positive, mut negative) = (0u64, 0u64);
        for &v in &self.data {
            match v {
                1 => positive += 1,
                -1 => negative += 1,
                _ => {}
            }
        }
        let rows_covered = (0..self.n_rows)
            .filter(|&i| self.row(i).iter().any(|&v| v != 0))
            .count();
        publish_vote_counters(positive, negative, self.data.len(), rows_covered);
    }

    /// Number of candidates.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of labeling functions.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Label of candidate `i` under LF `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> i8 {
        self.data[i * self.n_cols + j]
    }

    /// Set a label.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: i8) {
        debug_assert!((-1..=1).contains(&v));
        self.data[i * self.n_cols + j] = v;
    }

    /// One candidate's labels.
    pub fn row(&self, i: usize) -> &[i8] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Coverage of LF `j`: fraction of candidates it labels (non-zero).
    pub fn coverage(&self, j: usize) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let nz = (0..self.n_rows).filter(|&i| self.get(i, j) != 0).count();
        nz as f64 / self.n_rows as f64
    }

    /// Overlap of LF `j`: the number of candidates that `j` and at least
    /// one other LF both label, divided by the number of *all* candidates
    /// (Snorkel's denominator), not by the candidates `j` labels.
    pub fn overlap(&self, j: usize) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let mut both = 0usize;
        for i in 0..self.n_rows {
            if self.get(i, j) != 0 && (0..self.n_cols).any(|k| k != j && self.get(i, k) != 0) {
                both += 1;
            }
        }
        both as f64 / self.n_rows as f64
    }

    /// Conflict of LF `j`: the number of candidates where `j`'s label
    /// disagrees with another LF's non-zero label, divided by the number of
    /// *all* candidates.
    pub fn conflict(&self, j: usize) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let mut conf = 0usize;
        for i in 0..self.n_rows {
            let v = self.get(i, j);
            if v != 0
                && (0..self.n_cols).any(|k| k != j && self.get(i, k) != 0 && self.get(i, k) != v)
            {
                conf += 1;
            }
        }
        conf as f64 / self.n_rows as f64
    }

    /// Fraction of candidates receiving at least one non-zero label
    /// (overall coverage of the LF library).
    pub fn total_coverage(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let covered = (0..self.n_rows)
            .filter(|&i| self.row(i).iter().any(|&v| v != 0))
            .count();
        covered as f64 / self.n_rows as f64
    }
}

/// Publish the `supervision.votes.*` and `supervision.rows_covered`
/// counters of a matrix with `cells` cells.
fn publish_vote_counters(positive: u64, negative: u64, cells: usize, rows_covered: usize) {
    fonduer_observe::counter("supervision.votes.positive", positive);
    fonduer_observe::counter("supervision.votes.negative", negative);
    fonduer_observe::counter(
        "supervision.votes.abstain",
        cells as u64 - positive - negative,
    );
    fonduer_observe::counter("supervision.rows_covered", rows_covered as u64);
}

/// The non-abstain votes of a [`LabelMatrix`], row-major, from one pass
/// over it.
///
/// Each row keeps its `(lf, vote)` pairs in column order and its positive
/// tally, so every per-row and per-LF count (coverage, overlap, conflict,
/// polarity, majority vote) is O(votes) instead of O(rows × LFs). Rows
/// with equal votes share a distinct-row id: a posterior depends only on
/// a row's votes, so the label model computes one per distinct row.
///
/// Λ holds only −1, 0 and +1 ([`LabelMatrix::set`] and
/// [`LabelingFunction::label`] assert it); any non-zero cell is kept as a
/// vote and any vote other than +1 reads as −1.
#[derive(Debug, Clone)]
pub struct LabelVotes {
    n_rows: usize,
    n_cols: usize,
    /// Row `i`'s votes are `votes[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    /// `(lf, vote)` for every non-abstain cell, row-major.
    votes: Vec<(u32, i8)>,
    /// `+1` votes per row.
    positives: Vec<u32>,
    /// Distinct-row id of each row, numbered in first-occurrence order.
    distinct_id: Vec<u32>,
    /// The first row of each distinct row.
    distinct_first: Vec<usize>,
}

impl LabelVotes {
    /// Index `l`'s votes in one row-major pass.
    pub fn new(l: &LabelMatrix) -> Self {
        let n = l.n_rows;
        let mut starts = Vec::with_capacity(n + 1);
        let mut votes = Vec::new();
        let mut positives = Vec::with_capacity(n);
        let mut distinct_id = Vec::with_capacity(n);
        let mut distinct_first = Vec::new();
        let mut ids: HashMap<&[i8], u32> = HashMap::new();
        starts.push(0);
        for i in 0..n {
            let row = l.row(i);
            let mut pos = 0u32;
            for (j, &v) in row.iter().enumerate() {
                debug_assert!((-1..=1).contains(&v));
                if v != 0 {
                    votes.push((j as u32, v));
                    pos += u32::from(v == 1);
                }
            }
            starts.push(votes.len());
            positives.push(pos);
            let next = distinct_first.len() as u32;
            let id = *ids.entry(row).or_insert(next);
            if id == next {
                distinct_first.push(i);
            }
            distinct_id.push(id);
        }
        Self {
            n_rows: n,
            n_cols: l.n_cols,
            starts,
            votes,
            positives,
            distinct_id,
            distinct_first,
        }
    }

    /// Number of candidates (rows of Λ).
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of labeling functions (columns of Λ).
    pub(crate) fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Row `i`'s `(lf, vote)` pairs in column order.
    pub(crate) fn row(&self, i: usize) -> &[(u32, i8)] {
        &self.votes[self.starts[i]..self.starts[i + 1]]
    }

    /// Row `i`'s `(+1 votes, −1 votes)`.
    pub(crate) fn tally(&self, i: usize) -> (usize, usize) {
        let pos = self.positives[i] as usize;
        (pos, self.starts[i + 1] - self.starts[i] - pos)
    }

    /// Distinct-row id of every row, numbered in order of first
    /// occurrence.
    pub(crate) fn distinct_ids(&self) -> &[u32] {
        &self.distinct_id
    }

    /// The first row of each distinct row, by distinct-row id.
    pub(crate) fn distinct_rows(&self) -> &[usize] {
        &self.distinct_first
    }

    /// Rows with at least one vote.
    fn rows_covered(&self) -> usize {
        (0..self.n_rows)
            .filter(|&i| self.starts[i + 1] > self.starts[i])
            .count()
    }

    /// Fraction of candidates receiving at least one vote; equal to
    /// [`LabelMatrix::total_coverage`].
    pub fn total_coverage(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        self.rows_covered() as f64 / self.n_rows as f64
    }

    /// Publish the same counters as [`LabelMatrix::record_vote_counters`]
    /// without re-scanning Λ.
    pub fn record_vote_counters(&self) {
        let positive: u64 = self.positives.iter().map(|&p| u64::from(p)).sum();
        let negative = self.votes.len() as u64 - positive;
        publish_vote_counters(
            positive,
            negative,
            self.n_rows * self.n_cols,
            self.rows_covered(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 candidates × 3 LFs fixture.
    fn matrix() -> LabelMatrix {
        let mut m = LabelMatrix::zeros(4, 3);
        // LF0 labels everything +1; LF1 labels rows 0-1 (+1, -1); LF2 abstains.
        for i in 0..4 {
            m.set(i, 0, 1);
        }
        m.set(0, 1, 1);
        m.set(1, 1, -1);
        m
    }

    #[test]
    fn coverage_overlap_conflict() {
        let m = matrix();
        assert_eq!(m.coverage(0), 1.0);
        assert_eq!(m.coverage(1), 0.5);
        assert_eq!(m.coverage(2), 0.0);
        assert_eq!(m.overlap(1), 0.5); // both labeled rows overlap LF0
        assert_eq!(m.overlap(0), 0.5);
        assert_eq!(m.conflict(0), 0.25); // row 1 disagrees with LF1
        assert_eq!(m.conflict(1), 0.25);
        assert_eq!(m.conflict(2), 0.0);
        assert_eq!(m.total_coverage(), 1.0);
    }

    #[test]
    fn votes_index_rows_tallies_and_distinct_rows() {
        let m = matrix();
        let v = LabelVotes::new(&m);
        assert_eq!((v.n_rows(), v.n_cols()), (4, 3));
        assert_eq!(v.row(0), &[(0, 1), (1, 1)]);
        assert_eq!(v.row(1), &[(0, 1), (1, -1)]);
        assert_eq!(v.row(3), &[(0, 1)]);
        assert_eq!(v.tally(1), (1, 1));
        assert_eq!(v.tally(2), (1, 0));
        // Rows 2 and 3 are equal.
        assert_eq!(v.distinct_ids(), &[0, 1, 2, 2]);
        assert_eq!(v.distinct_rows(), &[0, 1, 2]);
        assert_eq!(v.rows_covered(), 4);
        assert_eq!(v.total_coverage(), m.total_coverage());

        let empty = LabelVotes::new(&LabelMatrix::zeros(3, 0));
        assert_eq!(empty.distinct_ids(), &[0, 0, 0]);
        assert_eq!(empty.total_coverage(), 0.0);
        assert_eq!(
            LabelVotes::new(&LabelMatrix::zeros(0, 2)).total_coverage(),
            0.0
        );
    }

    #[test]
    fn empty_matrix_metrics_are_zero() {
        let m = LabelMatrix::zeros(0, 2);
        assert_eq!(m.coverage(0), 0.0);
        assert_eq!(m.total_coverage(), 0.0);
    }

    #[test]
    fn row_slice() {
        let m = matrix();
        assert_eq!(m.row(0), &[1, 1, 0]);
        assert_eq!(m.row(3), &[1, 0, 0]);
    }

    #[test]
    fn pushed_columns_match_apply() {
        use crate::lf::Modality;
        use fonduer_candidates::{Candidate, RelationSchema};
        use fonduer_datamodel::{DocFormat, Document};

        let mut corpus = Corpus::new("t");
        let d0 = corpus.add(Document::new("a", DocFormat::Html));
        let d1 = corpus.add(Document::new("b", DocFormat::Html));
        let cands = CandidateSet {
            schema: RelationSchema::new("r", &["x"]),
            candidates: vec![
                Candidate::new(d0, vec![]),
                Candidate::new(d0, vec![]),
                Candidate::new(d1, vec![]),
            ],
        };
        let lfs = [
            LabelingFunction::new(
                "by_name",
                Modality::Textual,
                |d: &Document, _: &Candidate| {
                    if d.name == "a" {
                        1
                    } else {
                        -1
                    }
                },
            ),
            LabelingFunction::new(
                "abstains",
                Modality::Textual,
                |_: &Document, _: &Candidate| 0,
            ),
        ];
        let lf_refs: Vec<&LabelingFunction> = lfs.iter().collect();
        let whole = LabelMatrix::apply(&lf_refs, &corpus, &cands);
        let mut merged = LabelMatrix::zeros(0, lfs.len());
        for (id, rows) in [(d0, 0..2), (d1, 2..3)] {
            let doc = corpus.doc(id);
            let cols: Vec<std::sync::Arc<[i8]>> = lfs
                .iter()
                .map(|lf| lf.vote_column(doc, &cands.candidates[rows.clone()]))
                .collect();
            let col_refs: Vec<&[i8]> = cols.iter().map(|c| &c[..]).collect();
            merged.push_rows(rows.len(), &col_refs);
        }
        assert_eq!(merged, whole);
        // The pool map over documents is the same matrix at every width.
        for n in [1, 2, 3] {
            let pool = fonduer_par::Pool::exact(n);
            assert_eq!(
                LabelMatrix::apply_parallel(&lf_refs, &corpus, &cands, &pool),
                whole,
                "threads={n}"
            );
        }
    }

    #[test]
    fn push_rows_without_lfs_keeps_the_row_count() {
        let mut m = LabelMatrix::zeros(0, 0);
        m.push_rows(3, &[]);
        assert_eq!(m, LabelMatrix::zeros(3, 0));
    }
}
