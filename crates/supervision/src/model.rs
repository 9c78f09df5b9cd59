//! The generative label model of data programming (paper Appendix A):
//! estimates each labeling function's accuracy *and labeling propensity*
//! from the vote structure alone (no ground truth) and produces a
//! probabilistic ("denoised") training label per candidate.
//!
//! Model: candidates carry latent labels `y ∈ {−1, +1}` with prior
//! `π = P(y = +1)`. Conditioned on `y`, LF votes are independent (the
//! conditional-independence assumption of Appendix A.2), with per-LF,
//! per-class *propensity* `β_j^y = P(λ_j ≠ 0 | y)` and *accuracy*
//! `a_j = P(λ_j = y | λ_j ≠ 0)`:
//!
//! ```text
//! P(λ_j = +1 | y = +1) = β_j^+ · a_j        P(λ_j = 0 | y = +1) = 1 − β_j^+
//! P(λ_j = +1 | y = −1) = β_j^− · (1 − a_j)  P(λ_j = 0 | y = −1) = 1 − β_j^−
//! ```
//!
//! Modeling propensity per class matters under the extreme class imbalance
//! of document-level candidate generation (paper §1, challenge 3): an LF
//! that fires on 5% of candidates, always positively, is best explained as
//! *fires on positives* — information an accuracy-only model cannot
//! represent (its MLE declares such an LF a coin flip whenever the class
//! prior is below one half).
//!
//! Fit by EM, initialized from the unweighted majority vote.
//!
//! A fit costs O(votes), not O(candidates × LFs). It reads Λ through a
//! [`LabelVotes`] index built in one row-major pass. Per EM iteration:
//!
//! * the E-step takes the logarithms once, into a table of four
//!   log-factors per LF, and computes one posterior per *distinct* vote
//!   row (a posterior depends only on the row's votes, and Λ has few
//!   distinct rows: ~28 among ~7.7k on ELECTRONICS);
//! * the M-step visits rows in order and, within a row, only its votes.
//!
//! Both add the same f64 terms in the same order as the dense definition
//! ([`GenerativeModel::predict_row`], and a column-by-column M-step), so
//! parameters and marginals are bit-identical to it. The M-step does not
//! sum per distinct row: that would reorder its additions.

use crate::matrix::{LabelMatrix, LabelVotes};

/// Fitted generative model.
#[derive(Debug, Clone)]
pub struct GenerativeModel {
    /// Estimated accuracy of each LF: P(vote correct | voted).
    pub accuracies: Vec<f64>,
    /// Estimated propensity on positives: P(λ_j ≠ 0 | y = +1).
    pub prop_pos: Vec<f64>,
    /// Estimated propensity on negatives: P(λ_j ≠ 0 | y = −1).
    pub prop_neg: Vec<f64>,
    /// Class prior P(y = +1).
    pub prior: f64,
}

/// Training options for [`GenerativeModel::fit`].
#[derive(Debug, Clone)]
pub struct GenerativeOptions {
    /// EM refinement rounds from the majority-vote initialization. A small
    /// number re-weights LFs by estimated accuracy/propensity without
    /// giving EM room to drift into the label-switching optima this model
    /// family admits (the role L2 regularization plays in Snorkel's SGD
    /// fit).
    pub iterations: usize,
    /// Initial LF accuracy.
    pub init_accuracy: f64,
    /// Initial class prior, used when `prior_from_majority` is off or no
    /// candidate has a vote.
    pub init_prior: f64,
    /// Estimate the class prior by moment matching before EM: the fraction
    /// of voted-on candidates whose majority vote is positive. Class
    /// balance varies wildly across tasks (document-level candidate
    /// generation can be anywhere from ~5% to ~100% positive), and a
    /// mismatched fixed prior drags every posterior toward itself.
    pub prior_from_majority: bool,
    /// Accuracy clamp range. The lower bound of 0.5 encodes data
    /// programming's assumption that labeling functions are better than
    /// random (γ = 2a − 1 > 0, Appendix A.2).
    pub accuracy_clamp: (f64, f64),
    /// Propensity clamp range (keeps log-likelihoods finite).
    pub propensity_clamp: (f64, f64),
    /// Laplace-smoothing pseudo-count for the M-step estimates. Without it
    /// the per-class propensities are ratios of near-zero masses whenever a
    /// class is (nearly) empty, and EM breaks symmetry arbitrarily.
    pub smoothing: f64,
    /// Whether the M-step re-estimates the class prior.
    pub learn_prior: bool,
}

impl Default for GenerativeOptions {
    fn default() -> Self {
        Self {
            iterations: 3,
            init_accuracy: 0.7,
            init_prior: 0.3,
            prior_from_majority: true,
            accuracy_clamp: (0.5, 0.98),
            propensity_clamp: (0.005, 0.995),
            smoothing: 1.0,
            learn_prior: false,
        }
    }
}

impl GenerativeModel {
    /// Fit by EM on a label matrix.
    pub fn fit(l: &LabelMatrix, opts: &GenerativeOptions) -> Self {
        Self::fit_votes(&LabelVotes::new(l), opts).0
    }

    /// Fit by EM on Λ's vote index, and return the model together with its
    /// marginals: the values [`Self::predict`] gives on the fitted model,
    /// taken from the last E-step when `opts.iterations ≥ 1`.
    pub fn fit_votes(votes: &LabelVotes, opts: &GenerativeOptions) -> (Self, Vec<f64>) {
        let _span = fonduer_observe::span("gen_fit");
        let n = votes.n_rows();
        let m = votes.n_cols();
        let mut model = Self {
            accuracies: vec![opts.init_accuracy; m],
            prop_pos: vec![0.5; m],
            prop_neg: vec![0.5; m],
            prior: opts.init_prior,
        };
        if n == 0 || m == 0 {
            let marginals = model.predict_votes(votes);
            return (model, marginals);
        }
        if opts.prior_from_majority {
            let mut voted = 0usize;
            let mut majority_pos = 0usize;
            for i in 0..n {
                let (pos, neg) = votes.tally(i);
                if pos + neg > 0 {
                    voted += 1;
                    if pos > neg {
                        majority_pos += 1;
                    }
                }
            }
            if voted > 0 {
                model.prior = (majority_pos as f64 / voted as f64).clamp(0.02, 0.95);
            }
        }
        // Initialize the posterior from the unweighted majority vote: EM
        // started from the raw prior under-trusts isolated votes.
        let mut posterior: Vec<f64> = (0..n)
            .map(|i| match votes.tally(i) {
                (0, 0) => model.prior,
                (pos, neg) => pos as f64 / (pos + neg) as f64,
            })
            .collect();
        // Per LF: votes, posterior mass on its voted rows and its
        // complement, and posterior mass agreeing with its votes.
        let mut sums = vec![[0.0f64; 4]; m];
        for _ in 0..opts.iterations {
            // M-step: re-estimate accuracies and per-class propensities
            // from the current posterior.
            let total_pos: f64 = posterior.iter().sum();
            let total_neg = n as f64 - total_pos;
            // Rows in order, so each LF's sums add the same terms in the
            // same order as a column scan (not per distinct row, which
            // would reorder the additions and change the bits).
            sums.fill([0.0; 4]);
            for (i, &p) in posterior.iter().enumerate() {
                for &(j, v) in votes.row(i) {
                    let sum = &mut sums[j as usize];
                    sum[0] += 1.0;
                    sum[1] += p;
                    sum[2] += 1.0 - p;
                    sum[3] += if v == 1 { p } else { 1.0 - p };
                }
            }
            let s = opts.smoothing;
            for (j, &[voted, voted_pos_mass, voted_neg_mass, correct]) in sums.iter().enumerate() {
                if voted > 0.0 {
                    model.accuracies[j] = ((correct + s * opts.init_accuracy) / (voted + s))
                        .clamp(opts.accuracy_clamp.0, opts.accuracy_clamp.1);
                }
                model.prop_pos[j] = ((voted_pos_mass + s * 0.5) / (total_pos + s))
                    .clamp(opts.propensity_clamp.0, opts.propensity_clamp.1);
                model.prop_neg[j] = ((voted_neg_mass + s * 0.5) / (total_neg + s))
                    .clamp(opts.propensity_clamp.0, opts.propensity_clamp.1);
            }
            if opts.learn_prior {
                model.prior = (total_pos / n as f64).clamp(0.01, 0.99);
            }
            // E-step with the updated parameters.
            posterior = model.predict_votes(votes);
        }
        fonduer_observe::gauge_set("supervision.gen_prior", model.prior);
        if opts.iterations == 0 {
            posterior = model.predict_votes(votes);
        }
        (model, posterior)
    }

    /// Probabilistic labels for every candidate: `P(y_i = +1 | Λ_i)`.
    pub fn predict(&self, l: &LabelMatrix) -> Vec<f64> {
        self.predict_votes(&LabelVotes::new(l))
    }

    /// [`Self::predict`] over a vote index: the log-factor table once, one
    /// posterior per distinct row, and each row reads its own.
    fn predict_votes(&self, votes: &LabelVotes) -> Vec<f64> {
        let table: Vec<[(f64, f64); 2]> =
            (0..votes.n_cols()).map(|j| self.log_factors(j)).collect();
        let distinct: Vec<f64> = votes
            .distinct_rows()
            .iter()
            .map(|&i| {
                let factors = votes
                    .row(i)
                    .iter()
                    .map(|&(j, v)| table[j as usize][usize::from(v != 1)]);
                row_posterior(self.prior, factors)
            })
            .collect();
        votes
            .distinct_ids()
            .iter()
            .map(|&d| distinct[d as usize])
            .collect()
    }

    /// Posterior for one label row.
    ///
    /// Votes contribute both accuracy and propensity evidence. Abstentions
    /// contribute nothing: labeling functions abstain in highly correlated
    /// blocks (every tabular LF abstains on a text mention at once), and
    /// under the conditional-independence factorization that correlated
    /// evidence would be multiply counted, overwhelming the actual votes.
    pub fn predict_row(&self, row: &[i8]) -> f64 {
        let factors = row
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0)
            .map(|(j, &v)| self.log_factors(j)[usize::from(v != 1)]);
        row_posterior(self.prior, factors)
    }

    /// LF `j`'s log-factors `(ln P(λ_j | y = +1), ln P(λ_j | y = −1))`,
    /// for a `+1` vote at index 0 and a `−1` vote at index 1.
    fn log_factors(&self, j: usize) -> [(f64, f64); 2] {
        let a = self.accuracies[j];
        let (bp, bn) = (self.prop_pos[j], self.prop_neg[j]);
        [
            (safe_ln(bp * a), safe_ln(bn * (1.0 - a))),
            (safe_ln(bp * (1.0 - a)), safe_ln(bn * a)),
        ]
    }
}

/// `P(y = +1 | votes)` from the prior and each vote's log-factors, added
/// in LF order.
fn row_posterior(prior: f64, factors: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut log_pos = safe_ln(prior);
    let mut log_neg = safe_ln(1.0 - prior);
    for (pos, neg) in factors {
        log_pos += pos;
        log_neg += neg;
    }
    sigmoid(log_pos - log_neg)
}

/// Unweighted majority vote over non-abstaining LFs: the baseline that the
/// generative model improves on when LF accuracies differ. Returns 0.5 when
/// every LF abstains.
pub fn majority_vote(l: &LabelMatrix) -> Vec<f64> {
    (0..l.n_rows())
        .map(|i| {
            let row = l.row(i);
            let pos = row.iter().filter(|&&v| v == 1).count() as f64;
            let neg = row.iter().filter(|&&v| v == -1).count() as f64;
            if pos + neg == 0.0 {
                0.5
            } else {
                pos / (pos + neg)
            }
        })
        .collect()
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn safe_ln(x: f64) -> f64 {
    x.max(1e-12).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic world: 400 candidates, 30% positive; LFs with known
    /// accuracies and class-independent coverages.
    fn world(acc: &[f64], cov: &[f64]) -> (LabelMatrix, Vec<bool>) {
        let n = 400;
        let mut l = LabelMatrix::zeros(n, acc.len());
        let mut truth = Vec::with_capacity(n);
        let mut state = 0x12345678u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1_000_000) as f64 / 1_000_000.0
        };
        for i in 0..n {
            let y = unit() < 0.3;
            truth.push(y);
            for j in 0..acc.len() {
                if unit() < cov[j] {
                    let correct = unit() < acc[j];
                    let vote = if correct == y { 1 } else { -1 };
                    l.set(i, j, vote);
                }
            }
        }
        (l, truth)
    }

    fn label_accuracy(probs: &[f64], truth: &[bool]) -> f64 {
        let correct = probs
            .iter()
            .zip(truth)
            .filter(|(&p, &t)| (p > 0.5) == t)
            .count();
        correct as f64 / truth.len() as f64
    }

    #[test]
    fn recovers_lf_accuracies() {
        let (l, _) = world(&[0.9, 0.85, 0.6, 0.55], &[0.8, 0.7, 0.8, 0.6]);
        let m = GenerativeModel::fit(&l, &GenerativeOptions::default());
        assert!(
            m.accuracies[0] > m.accuracies[2] + 0.05,
            "{:?}",
            m.accuracies
        );
        assert!(
            m.accuracies[1] > m.accuracies[3] + 0.05,
            "{:?}",
            m.accuracies
        );
    }

    #[test]
    fn beats_majority_vote_with_unequal_lfs() {
        let (l, truth) = world(&[0.95, 0.9, 0.52, 0.52], &[0.9, 0.9, 0.9, 0.9]);
        let gm = GenerativeModel::fit(&l, &GenerativeOptions::default());
        let gen_acc = label_accuracy(&gm.predict(&l), &truth);
        let mv_acc = label_accuracy(&majority_vote(&l), &truth);
        assert!(
            gen_acc >= mv_acc,
            "generative {gen_acc} should be >= majority {mv_acc}"
        );
        assert!(gen_acc > 0.85, "{gen_acc}");
    }

    #[test]
    fn all_abstain_rows_stay_near_prior() {
        let l = LabelMatrix::zeros(5, 3);
        let m = GenerativeModel::fit(&l, &GenerativeOptions::default());
        let p = m.predict(&l);
        // Abstention carries no evidence: the posterior is exactly the prior.
        for v in &p {
            assert!((v - m.prior).abs() < 1e-9, "{v} vs prior {}", m.prior);
        }
        let mv = majority_vote(&l);
        assert!(mv.iter().all(|&v| v == 0.5));
    }

    #[test]
    fn lone_positive_lf_under_low_prior_stays_positive() {
        // The regression that motivated propensity modeling: one LF fires
        // +1 on 20% of candidates, another fires −1 on the rest. An
        // accuracy-only model collapses the positive LF to a coin flip.
        let mut l = LabelMatrix::zeros(100, 2);
        for i in 0..20 {
            l.set(i, 0, 1);
        }
        for i in 20..100 {
            l.set(i, 1, -1);
        }
        let m = GenerativeModel::fit(&l, &GenerativeOptions::default());
        assert!(
            m.predict_row(&[1, 0]) > 0.8,
            "positive-voted row scored {}",
            m.predict_row(&[1, 0])
        );
        assert!(m.predict_row(&[0, -1]) < 0.2);
        // Propensities captured the firing pattern.
        assert!(m.prop_pos[0] > m.prop_neg[0]);
        assert!(m.prop_neg[1] > m.prop_pos[1]);
    }

    #[test]
    fn unanimous_positive_row_scores_high() {
        let mut l = LabelMatrix::zeros(100, 3);
        for i in 0..100 {
            let v = if i < 20 { 1 } else { -1 };
            for j in 0..3 {
                l.set(i, j, v);
            }
        }
        let m = GenerativeModel::fit(&l, &GenerativeOptions::default());
        let p = m.predict(&l);
        assert!(p[0] > 0.8, "{}", p[0]);
        assert!(p[99] < 0.2, "{}", p[99]);
    }

    #[test]
    fn empty_matrix_is_handled() {
        let l = LabelMatrix::zeros(0, 0);
        let m = GenerativeModel::fit(&l, &GenerativeOptions::default());
        assert!(m.predict(&l).is_empty());
    }
}
