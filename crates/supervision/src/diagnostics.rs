//! Per-LF diagnostics: the error-analysis table Fonduer users iterate on
//! (paper §3.3 / §5). For every labeling function this reports coverage,
//! overlap, conflict, vote polarity counts, and — when gold labels are
//! available — empirical accuracy, all computed from a [`LabelMatrix`].
//!
//! Gold arrives as a plain `&[bool]` (one flag per candidate row) so this
//! module stays decoupled from any particular gold-KB representation;
//! `fonduer-core` adapts its `GoldKb` into that slice.
//!
//! The table comes from one pass over Λ's votes ([`LabelVotes`]): a row's
//! vote tally says whether each of its votes overlaps or conflicts, so
//! every column is an integer count over votes, and each ratio equals the
//! per-column [`LabelMatrix`] metric bit for bit.

use std::fmt::Write as _;

use crate::matrix::{LabelMatrix, LabelVotes};

/// Diagnostics for one labeling function.
#[derive(Debug, Clone, PartialEq)]
pub struct LfDiagnosticsRow {
    /// LF name.
    pub name: String,
    /// Fraction of candidates the LF labels (non-abstain).
    pub coverage: f64,
    /// Candidates that it and at least one other LF both label, as a
    /// fraction of *all* candidates (Snorkel's denominator), not of the
    /// candidates it labels.
    pub overlap: f64,
    /// Candidates where its label disagrees with another LF's non-zero
    /// label, as a fraction of *all* candidates.
    pub conflict: f64,
    /// Number of `+1` votes.
    pub positives: usize,
    /// Number of `-1` votes.
    pub negatives: usize,
    /// Votes agreeing with gold, when gold was supplied.
    pub correct: Option<usize>,
    /// `correct / (positives + negatives)`, when gold was supplied and the
    /// LF voted at least once.
    pub empirical_accuracy: Option<f64>,
}

/// The full LF error-analysis table over one label matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct LfDiagnostics {
    /// One row per LF, in library (column) order.
    pub rows: Vec<LfDiagnosticsRow>,
    /// Number of candidates the matrix covers.
    pub n_candidates: usize,
    /// Fraction of candidates with at least one non-zero label.
    pub total_coverage: f64,
}

impl LfDiagnostics {
    /// Compute diagnostics for `matrix`, whose columns are named by
    /// `names` (must match `matrix.n_cols()`). `gold`, when given, must
    /// hold one flag per matrix row (`true` = the candidate is a gold
    /// tuple) and enables the accuracy columns.
    pub fn compute(names: &[String], matrix: &LabelMatrix, gold: Option<&[bool]>) -> Self {
        Self::from_votes(names, &LabelVotes::new(matrix), gold)
    }

    /// [`Self::compute`] over Λ's vote index, in O(votes).
    pub fn from_votes(names: &[String], votes: &LabelVotes, gold: Option<&[bool]>) -> Self {
        assert_eq!(
            names.len(),
            votes.n_cols(),
            "one name per label-matrix column"
        );
        if let Some(g) = gold {
            assert_eq!(g.len(), votes.n_rows(), "one gold flag per candidate");
        }
        // Per LF: [+1 votes, −1 votes, overlapping, conflicting, correct].
        let mut counts = vec![[0usize; 5]; names.len()];
        for i in 0..votes.n_rows() {
            let (pos, neg) = votes.tally(i);
            for &(j, v) in votes.row(i) {
                let c = &mut counts[j as usize];
                c[2] += usize::from(pos + neg > 1);
                let (polarity, other_sign, agrees) = if v == 1 {
                    (0, neg, gold.is_some_and(|g| g[i]))
                } else {
                    (1, pos, gold.is_some_and(|g| !g[i]))
                };
                c[polarity] += 1;
                c[3] += usize::from(other_sign > 0);
                c[4] += usize::from(agrees);
            }
        }
        let n = votes.n_rows();
        let ratio = |k: usize| if n == 0 { 0.0 } else { k as f64 / n as f64 };
        let rows = names
            .iter()
            .zip(&counts)
            .map(
                |(name, &[positives, negatives, overlapping, conflicting, correct])| {
                    let voted = positives + negatives;
                    LfDiagnosticsRow {
                        name: name.clone(),
                        coverage: ratio(voted),
                        overlap: ratio(overlapping),
                        conflict: ratio(conflicting),
                        positives,
                        negatives,
                        correct: gold.map(|_| correct),
                        empirical_accuracy: match (gold, voted) {
                            (Some(_), v) if v > 0 => Some(correct as f64 / v as f64),
                            _ => None,
                        },
                    }
                },
            )
            .collect();
        Self {
            rows,
            n_candidates: n,
            total_coverage: votes.total_coverage(),
        }
    }

    /// Render as an aligned text table (the development-loop view).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7}",
            "labeling function", "cov", "ovl", "cfl", "+", "-", "emp.acc"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<40} {:>6.2} {:>6.2} {:>6.2} {:>6} {:>6} {:>7}",
                r.name,
                r.coverage,
                r.overlap,
                r.conflict,
                r.positives,
                r.negatives,
                r.empirical_accuracy
                    .map(|a| format!("{a:.2}"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        let _ = writeln!(
            out,
            "candidates: {}  total coverage: {:.2}",
            self.n_candidates, self.total_coverage
        );
        out
    }

    /// Render as JSON lines, one `{"kind":"lf_diagnostics",...}` object per
    /// LF (merges into the `FONDUER_TRACE=json` stream).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{{\"kind\":\"lf_diagnostics\",\"name\":\"{}\",\"coverage\":{},\"overlap\":{},\"conflict\":{},\"positives\":{},\"negatives\":{},\"empirical_accuracy\":{}}}",
                fonduer_observe::json::escape(&r.name),
                fonduer_observe::json::number(r.coverage),
                fonduer_observe::json::number(r.overlap),
                fonduer_observe::json::number(r.conflict),
                r.positives,
                r.negatives,
                r.empirical_accuracy
                    .map(fonduer_observe::json::number)
                    .unwrap_or_else(|| "null".into()),
            );
        }
        out
    }

    /// Publish each row's metrics as observe gauges
    /// (`lf.<name>.coverage` etc.) so they flow into the Prometheus and
    /// JSONL exporters without a separate channel.
    pub fn publish_gauges(&self) {
        for r in &self.rows {
            fonduer_observe::gauge_set(&format!("lf.{}.coverage", r.name), r.coverage);
            fonduer_observe::gauge_set(&format!("lf.{}.overlap", r.name), r.overlap);
            fonduer_observe::gauge_set(&format!("lf.{}.conflict", r.name), r.conflict);
            if let Some(a) = r.empirical_accuracy {
                fonduer_observe::gauge_set(&format!("lf.{}.empirical_accuracy", r.name), a);
            }
        }
        fonduer_observe::gauge_set("lf.total_coverage", self.total_coverage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-computed fixture (ISSUE 2 acceptance): 4 candidates × 3 LFs.
    ///
    /// ```text
    ///            LF0   LF1   LF2        gold
    /// cand 0      +1    +1     0        true
    /// cand 1      +1    -1     0        true
    /// cand 2      +1     0     0        false
    /// cand 3      +1     0     0        false
    /// ```
    ///
    /// By hand:
    /// * LF0: cov 4/4=1.0, ovl 2/4=0.5, cfl 1/4=0.25 (row 1 vs LF1),
    ///   +4/-0, correct = rows 0,1 (+1 & gold) = 2 → acc 2/4 = 0.5
    /// * LF1: cov 2/4=0.5, ovl 2/4=0.5, cfl 1/4=0.25, +1/-1,
    ///   correct = row 0 (+1 & gold) = 1; row 1 (-1 but gold) wrong → acc 1/2
    /// * LF2: cov 0, ovl 0, cfl 0, +0/-0, acc None (never voted)
    /// * total coverage 4/4 = 1.0
    fn fixture() -> (Vec<String>, LabelMatrix, Vec<bool>) {
        let mut m = LabelMatrix::zeros(4, 3);
        for i in 0..4 {
            m.set(i, 0, 1);
        }
        m.set(0, 1, 1);
        m.set(1, 1, -1);
        let names = vec!["lf_a".to_string(), "lf_b".to_string(), "lf_c".to_string()];
        let gold = vec![true, true, false, false];
        (names, m, gold)
    }

    #[test]
    fn hand_computed_fixture_with_gold() {
        let (names, m, gold) = fixture();
        let d = LfDiagnostics::compute(&names, &m, Some(&gold));
        assert_eq!(d.n_candidates, 4);
        assert_eq!(d.total_coverage, 1.0);

        let a = &d.rows[0];
        assert_eq!(a.name, "lf_a");
        assert_eq!(a.coverage, 1.0);
        assert_eq!(a.overlap, 0.5);
        assert_eq!(a.conflict, 0.25);
        assert_eq!((a.positives, a.negatives), (4, 0));
        assert_eq!(a.correct, Some(2));
        assert_eq!(a.empirical_accuracy, Some(0.5));

        let b = &d.rows[1];
        assert_eq!(b.coverage, 0.5);
        assert_eq!(b.overlap, 0.5);
        assert_eq!(b.conflict, 0.25);
        assert_eq!((b.positives, b.negatives), (1, 1));
        assert_eq!(b.correct, Some(1));
        assert_eq!(b.empirical_accuracy, Some(0.5));

        let c = &d.rows[2];
        assert_eq!(c.coverage, 0.0);
        assert_eq!((c.positives, c.negatives), (0, 0));
        assert_eq!(c.correct, Some(0));
        assert_eq!(c.empirical_accuracy, None);
    }

    #[test]
    fn without_gold_no_accuracy_columns() {
        let (names, m, _) = fixture();
        let d = LfDiagnostics::compute(&names, &m, None);
        assert!(d.rows.iter().all(|r| r.correct.is_none()));
        assert!(d.rows.iter().all(|r| r.empirical_accuracy.is_none()));
        // Matrix-derived metrics are unchanged.
        assert_eq!(d.rows[0].coverage, 1.0);
        assert_eq!(d.rows[1].conflict, 0.25);
    }

    #[test]
    fn renderers_cover_all_rows() {
        let (names, m, gold) = fixture();
        let d = LfDiagnostics::compute(&names, &m, Some(&gold));
        let text = d.to_text();
        assert!(text.contains("lf_a") && text.contains("lf_b") && text.contains("lf_c"));
        assert!(text.contains("total coverage: 1.00"));
        let jsonl = d.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            let v = fonduer_observe::json::parse(line).expect("parseable");
            assert_eq!(
                v.get("kind").and_then(fonduer_observe::json::Value::as_str),
                Some("lf_diagnostics")
            );
        }
        // LF2 never voted: accuracy must serialize as null, not NaN.
        assert!(jsonl
            .lines()
            .nth(2)
            .unwrap()
            .contains("\"empirical_accuracy\":null"));
    }

    #[test]
    #[should_panic(expected = "one gold flag per candidate")]
    fn gold_length_mismatch_panics() {
        let (names, m, _) = fixture();
        let short_gold = vec![true];
        let _ = LfDiagnostics::compute(&names, &m, Some(&short_gold));
    }
}
