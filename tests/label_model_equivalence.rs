//! The label model and the LF diagnostics read Λ through a one-pass vote
//! index (`LabelVotes`): a per-LF log-factor table, one posterior per
//! distinct vote row, a row-major M-step and vote-tally diagnostics. This
//! test keeps the dense definitions they replaced as oracles — EM with two
//! logarithms per vote and a column-by-column M-step, and diagnostics from
//! column scans — and requires `to_bits` equality of every parameter,
//! marginal and diagnostics field, on the label matrices of all four
//! synthetic domains and on hand-built edge cases.

use fonduer::prelude::*;
use fonduer_core::domains;
use fonduer_core::PipelineSession;
use fonduer_supervision::{LabelVotes, LfDiagnosticsRow};
use fonduer_synth::Domain;

/// The dense EM this crate shipped before the vote index: per-row
/// logarithms in the E-step, a column-by-column M-step, and `predict` as a
/// separate pass.
mod oracle {
    use fonduer_supervision::{GenerativeOptions, LabelMatrix};

    pub struct Model {
        pub accuracies: Vec<f64>,
        pub prop_pos: Vec<f64>,
        pub prop_neg: Vec<f64>,
        pub prior: f64,
    }

    pub fn fit(l: &LabelMatrix, opts: &GenerativeOptions) -> Model {
        let n = l.n_rows();
        let m = l.n_cols();
        let mut acc = vec![opts.init_accuracy; m];
        let mut prop_pos = vec![0.5; m];
        let mut prop_neg = vec![0.5; m];
        let mut prior = opts.init_prior;
        if n == 0 || m == 0 {
            return Model {
                accuracies: acc,
                prop_pos,
                prop_neg,
                prior,
            };
        }
        if opts.prior_from_majority {
            let mut voted = 0usize;
            let mut majority_pos = 0usize;
            for i in 0..n {
                let row = l.row(i);
                let pos = row.iter().filter(|&&v| v == 1).count();
                let neg = row.iter().filter(|&&v| v == -1).count();
                if pos + neg > 0 {
                    voted += 1;
                    if pos > neg {
                        majority_pos += 1;
                    }
                }
            }
            if voted > 0 {
                prior = (majority_pos as f64 / voted as f64).clamp(0.02, 0.95);
            }
        }
        let mut posterior: Vec<f64> = (0..n)
            .map(|i| {
                let row = l.row(i);
                let pos = row.iter().filter(|&&v| v == 1).count() as f64;
                let neg = row.iter().filter(|&&v| v == -1).count() as f64;
                if pos + neg == 0.0 {
                    prior
                } else {
                    pos / (pos + neg)
                }
            })
            .collect();
        for _ in 0..opts.iterations {
            let total_pos: f64 = posterior.iter().sum();
            let total_neg = n as f64 - total_pos;
            for j in 0..m {
                let mut correct = 0.0;
                let mut voted = 0.0;
                let mut voted_pos_mass = 0.0;
                let mut voted_neg_mass = 0.0;
                for (i, &p) in posterior.iter().enumerate() {
                    let v = l.get(i, j);
                    if v == 0 {
                        continue;
                    }
                    voted += 1.0;
                    voted_pos_mass += p;
                    voted_neg_mass += 1.0 - p;
                    correct += if v == 1 { p } else { 1.0 - p };
                }
                let s = opts.smoothing;
                if voted > 0.0 {
                    acc[j] = ((correct + s * opts.init_accuracy) / (voted + s))
                        .clamp(opts.accuracy_clamp.0, opts.accuracy_clamp.1);
                }
                prop_pos[j] = ((voted_pos_mass + s * 0.5) / (total_pos + s))
                    .clamp(opts.propensity_clamp.0, opts.propensity_clamp.1);
                prop_neg[j] = ((voted_neg_mass + s * 0.5) / (total_neg + s))
                    .clamp(opts.propensity_clamp.0, opts.propensity_clamp.1);
            }
            if opts.learn_prior {
                prior = (posterior.iter().sum::<f64>() / n as f64).clamp(0.01, 0.99);
            }
            let model = Model {
                accuracies: acc.clone(),
                prop_pos: prop_pos.clone(),
                prop_neg: prop_neg.clone(),
                prior,
            };
            for (i, p) in posterior.iter_mut().enumerate() {
                *p = model.predict_row(l.row(i));
            }
        }
        Model {
            accuracies: acc,
            prop_pos,
            prop_neg,
            prior,
        }
    }

    impl Model {
        pub fn predict(&self, l: &LabelMatrix) -> Vec<f64> {
            (0..l.n_rows())
                .map(|i| self.predict_row(l.row(i)))
                .collect()
        }

        fn predict_row(&self, row: &[i8]) -> f64 {
            let mut log_pos = safe_ln(self.prior);
            let mut log_neg = safe_ln(1.0 - self.prior);
            for (j, &v) in row.iter().enumerate() {
                let a = self.accuracies[j];
                let (bp, bn) = (self.prop_pos[j], self.prop_neg[j]);
                match v {
                    1 => {
                        log_pos += safe_ln(bp * a);
                        log_neg += safe_ln(bn * (1.0 - a));
                    }
                    -1 => {
                        log_pos += safe_ln(bp * (1.0 - a));
                        log_neg += safe_ln(bn * a);
                    }
                    _ => {}
                }
            }
            1.0 / (1.0 + (-(log_pos - log_neg)).exp())
        }
    }

    fn safe_ln(x: f64) -> f64 {
        x.max(1e-12).ln()
    }

    /// One diagnostics row from column scans:
    /// `(coverage, overlap, conflict, positives, negatives, correct)`.
    pub fn diagnostics_row(
        l: &LabelMatrix,
        j: usize,
        gold: Option<&[bool]>,
    ) -> (f64, f64, f64, usize, usize, usize) {
        let n = l.n_rows();
        let (mut nz, mut both, mut conf) = (0usize, 0usize, 0usize);
        let (mut positives, mut negatives, mut correct) = (0usize, 0usize, 0usize);
        for i in 0..n {
            let v = l.get(i, j);
            match v {
                1 => {
                    positives += 1;
                    if gold.is_some_and(|g| g[i]) {
                        correct += 1;
                    }
                }
                -1 => {
                    negatives += 1;
                    if gold.is_some_and(|g| !g[i]) {
                        correct += 1;
                    }
                }
                _ => {}
            }
            if v == 0 {
                continue;
            }
            nz += 1;
            if (0..l.n_cols()).any(|k| k != j && l.get(i, k) != 0) {
                both += 1;
            }
            if (0..l.n_cols()).any(|k| k != j && l.get(i, k) != 0 && l.get(i, k) != v) {
                conf += 1;
            }
        }
        let ratio = |k: usize| if n == 0 { 0.0 } else { k as f64 / n as f64 };
        (
            ratio(nz),
            ratio(both),
            ratio(conf),
            positives,
            negatives,
            correct,
        )
    }

    pub fn total_coverage(l: &LabelMatrix) -> f64 {
        if l.n_rows() == 0 {
            return 0.0;
        }
        let covered = (0..l.n_rows())
            .filter(|&i| l.row(i).iter().any(|&v| v != 0))
            .count();
        covered as f64 / l.n_rows() as f64
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Fit, predict and `fit_votes` against the dense oracle, bit for bit.
fn assert_model_matches(l: &LabelMatrix, opts: &GenerativeOptions, what: &str) {
    let want = oracle::fit(l, opts);
    let want_marginals = want.predict(l);
    let got = GenerativeModel::fit(l, opts);
    assert_eq!(
        bits(&got.accuracies),
        bits(&want.accuracies),
        "{what}: accuracies"
    );
    assert_eq!(
        bits(&got.prop_pos),
        bits(&want.prop_pos),
        "{what}: prop_pos"
    );
    assert_eq!(
        bits(&got.prop_neg),
        bits(&want.prop_neg),
        "{what}: prop_neg"
    );
    assert_eq!(got.prior.to_bits(), want.prior.to_bits(), "{what}: prior");
    assert_eq!(
        bits(&got.predict(l)),
        bits(&want_marginals),
        "{what}: marginals"
    );
    // The session takes its marginals from the fit itself.
    let (fitted, marginals) = GenerativeModel::fit_votes(&LabelVotes::new(l), opts);
    assert_eq!(
        bits(&marginals),
        bits(&want_marginals),
        "{what}: fit_votes marginals"
    );
    assert_eq!(
        fitted.prior.to_bits(),
        want.prior.to_bits(),
        "{what}: fit_votes prior"
    );
    for (i, want) in want_marginals.iter().enumerate() {
        assert_eq!(
            got.predict_row(l.row(i)).to_bits(),
            want.to_bits(),
            "{what}: predict_row({i})"
        );
    }
}

/// `LfDiagnostics` against column scans and the per-column
/// `LabelMatrix` metrics, bit for bit.
fn assert_diagnostics_match(l: &LabelMatrix, gold: Option<&[bool]>, what: &str) {
    let names: Vec<String> = (0..l.n_cols()).map(|j| format!("lf{j}")).collect();
    let d = LfDiagnostics::compute(&names, l, gold);
    assert_eq!(
        d,
        LfDiagnostics::from_votes(&names, &LabelVotes::new(l), gold)
    );
    assert_eq!(d.n_candidates, l.n_rows(), "{what}");
    assert_eq!(
        d.total_coverage.to_bits(),
        oracle::total_coverage(l).to_bits(),
        "{what}: total coverage"
    );
    assert_eq!(
        d.total_coverage.to_bits(),
        l.total_coverage().to_bits(),
        "{what}: total coverage vs LabelMatrix"
    );
    assert_eq!(d.rows.len(), l.n_cols());
    for (j, row) in d.rows.iter().enumerate() {
        let (coverage, overlap, conflict, positives, negatives, correct) =
            oracle::diagnostics_row(l, j, gold);
        let voted = positives + negatives;
        let want = LfDiagnosticsRow {
            name: names[j].clone(),
            coverage,
            overlap,
            conflict,
            positives,
            negatives,
            correct: gold.map(|_| correct),
            empirical_accuracy: (gold.is_some() && voted > 0)
                .then(|| correct as f64 / voted as f64),
        };
        let field_bits = |r: &LfDiagnosticsRow| {
            (
                r.coverage.to_bits(),
                r.overlap.to_bits(),
                r.conflict.to_bits(),
                r.empirical_accuracy.map(f64::to_bits),
            )
        };
        assert_eq!(row, &want, "{what}: LF {j}");
        assert_eq!(field_bits(row), field_bits(&want), "{what}: LF {j} bits");
        assert_eq!(
            (
                row.coverage.to_bits(),
                row.overlap.to_bits(),
                row.conflict.to_bits()
            ),
            (
                l.coverage(j).to_bits(),
                l.overlap(j).to_bits(),
                l.conflict(j).to_bits()
            ),
            "{what}: LF {j} vs LabelMatrix per-column metrics"
        );
    }
}

/// Option sets covering every branch of the fit.
fn option_sets() -> Vec<(&'static str, GenerativeOptions)> {
    let d = GenerativeOptions::default;
    vec![
        ("default", d()),
        (
            "iterations=0",
            GenerativeOptions {
                iterations: 0,
                ..d()
            },
        ),
        (
            "iterations=7",
            GenerativeOptions {
                iterations: 7,
                ..d()
            },
        ),
        (
            "learn_prior",
            GenerativeOptions {
                learn_prior: true,
                ..d()
            },
        ),
        (
            "fixed prior",
            GenerativeOptions {
                prior_from_majority: false,
                init_prior: 0.17,
                ..d()
            },
        ),
        (
            "custom clamps",
            GenerativeOptions {
                accuracy_clamp: (0.55, 0.9),
                propensity_clamp: (0.05, 0.6),
                smoothing: 0.25,
                init_accuracy: 0.8,
                ..d()
            },
        ),
    ]
}

fn assert_all_match(l: &LabelMatrix, gold: Option<&[bool]>, what: &str) {
    for (name, opts) in option_sets() {
        assert_model_matches(l, &opts, &format!("{what} [{name}]"));
    }
    assert_diagnostics_match(l, None, what);
    if let Some(g) = gold {
        assert_diagnostics_match(l, Some(g), what);
    }
}

/// The `supervision/generative_fit` micro-bench matrix.
fn micro_matrix() -> LabelMatrix {
    let mut lm = LabelMatrix::zeros(5000, 12);
    for i in 0..5000 {
        for j in 0..12 {
            let v = match (i * 7 + j * 3) % 5 {
                0 => 1,
                1 => -1,
                _ => 0,
            };
            lm.set(i, j, v);
        }
    }
    lm
}

/// Λ over every candidate of one synthetic corpus, with gold flags.
fn domain_matrix(domain: Domain) -> (LabelMatrix, Vec<bool>) {
    let ds = domain.generate(24, 11);
    let rel = match domain {
        // The document-scope relations have two LFs and all-gold
        // candidates at this size; a measurement relation has a full
        // library.
        Domain::Paleo => "taxon_measurement_femur".to_string(),
        _ => ds.relation_names[0].clone(),
    };
    let (extractor, lfs) = match domain {
        Domain::Electronics => (
            domains::electronics::extractor(&ds, &rel, ContextScope::Document),
            domains::electronics::lfs(&rel),
        ),
        Domain::Ads => (
            domains::ads::extractor(&ds, &rel, ContextScope::Document),
            domains::ads::lfs(&rel),
        ),
        Domain::Paleo => (
            domains::paleo::extractor(&ds, &rel, ContextScope::Document),
            domains::paleo::lfs(&rel),
        ),
        Domain::Genomics => (
            domains::genomics::extractor(&ds, &rel, ContextScope::Document),
            domains::genomics::lfs("snp_phenotype"),
        ),
    };
    let cands = extractor.extract(&ds.corpus);
    let refs: Vec<&LabelingFunction> = lfs.iter().collect();
    let lm = LabelMatrix::apply(&refs, &ds.corpus, &cands);
    let gold = cands
        .candidates
        .iter()
        .map(|c| {
            let doc = ds.corpus.doc(c.doc);
            ds.gold.contains(&rel, &doc.name, &c.arg_texts(doc))
        })
        .collect();
    (lm, gold)
}

#[test]
fn synthetic_domains_match_the_dense_oracle() {
    for domain in Domain::ALL {
        let (lm, gold) = domain_matrix(domain);
        assert!(
            lm.n_rows() > 0 && lm.n_cols() > 1,
            "{domain:?}: Λ is {}×{}",
            lm.n_rows(),
            lm.n_cols()
        );
        assert!(
            gold.iter().any(|&g| g) && gold.iter().any(|&g| !g),
            "{domain:?}: gold has both classes"
        );
        assert_all_match(&lm, Some(&gold), &format!("{domain:?}"));
    }
}

#[test]
fn micro_bench_matrix_matches_the_dense_oracle() {
    let lm = micro_matrix();
    let gold: Vec<bool> = (0..lm.n_rows()).map(|i| i % 3 == 0).collect();
    assert_all_match(&lm, Some(&gold), "micro");
}

#[test]
fn session_supervision_matches_the_dense_oracle() {
    let ds = Domain::Electronics.generate(16, 7);
    let rel = "has_collector_current";
    let extractor = domains::electronics::extractor(&ds, rel, ContextScope::Document)
        .with_throttler(domains::electronics::default_throttler(rel));
    let lfs = domains::electronics::lfs(rel);
    let cfg = PipelineConfig::builder()
        .learner(Learner::LogReg)
        .train_frac(0.7)
        .build()
        .expect("config is valid");
    let mut s = PipelineSession::from_parts(&ds.corpus, &ds.gold, &extractor, &lfs, cfg.clone())
        .expect("session inputs are valid");
    let cands = s.candidates().expect("candgen").clone();
    let sup = s.supervise().expect("supervise");
    let lm = &sup.label_matrix;
    assert!(lm.n_rows() > 0);
    let gold: Vec<bool> = sup
        .train_idx
        .iter()
        .map(|&i| {
            let c = &cands.candidates[i];
            let doc = ds.corpus.doc(c.doc);
            ds.gold.contains(rel, &doc.name, &c.arg_texts(doc))
        })
        .collect();
    let want = oracle::fit(lm, &cfg.gen_opts).predict(lm);
    assert_eq!(bits(&sup.train_marginals), bits(&want), "session marginals");
    assert_eq!(
        sup.label_coverage.to_bits(),
        oracle::total_coverage(lm).to_bits()
    );
    let names: Vec<String> = lfs.iter().map(|lf| lf.name.clone()).collect();
    assert_eq!(
        sup.lf_diagnostics,
        LfDiagnostics::compute(&names, lm, Some(&gold)),
        "session diagnostics"
    );
    assert_diagnostics_match(lm, Some(&gold), "session Λ");
}

#[test]
fn edge_cases_match_the_dense_oracle() {
    // 0 × 0, n × 0 and 0 × m.
    for (n, m) in [(0, 0), (5, 0), (0, 4)] {
        let lm = LabelMatrix::zeros(n, m);
        let gold = vec![true; n];
        assert_all_match(&lm, Some(&gold), &format!("{n}×{m}"));
    }
    // Every row abstains.
    let lm = LabelMatrix::zeros(6, 3);
    assert_all_match(
        &lm,
        Some(&[true, false, true, false, true, false]),
        "abstain",
    );
    // One distinct row, repeated.
    let mut one = LabelMatrix::zeros(9, 4);
    for i in 0..9 {
        one.set(i, 0, 1);
        one.set(i, 2, -1);
    }
    assert_all_match(&one, Some(&[false; 9]), "one distinct row");
    // Abstaining rows among voting ones, conflicts and lone votes.
    let mut mixed = LabelMatrix::zeros(7, 3);
    for (i, row) in [
        [1, 1, 0],
        [1, -1, 0],
        [0, 0, 0],
        [-1, 0, 0],
        [0, -1, -1],
        [1, -1, -1],
        [0, 0, 0],
    ]
    .iter()
    .enumerate()
    {
        for (j, &v) in row.iter().enumerate() {
            mixed.set(i, j, v);
        }
    }
    let gold = [true, true, false, false, false, true, false];
    assert_all_match(&mixed, Some(&gold), "mixed");
}
