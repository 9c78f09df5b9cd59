//! LF edits on a warm session re-vote only the LFs its label shards have
//! not seen. Each step of an editing session — rename, drop, add, reorder,
//! step back, a name shared by two different LFs, dropping the first of
//! them, a new LF inserted ahead of an existing one under its name, an
//! upsert between two edits — must leave supervision exactly as a cold
//! session over the same corpus and library computes it, and must re-vote
//! exactly the documents that lack a column.

use fonduer::prelude::*;
use fonduer_core::domains::electronics;
use fonduer_core::pipeline::is_train_doc;
use fonduer_core::{PipelineSession, SupervisionArtifact};
use fonduer_datamodel::DocId;
use fonduer_supervision::{ABSTAIN, FALSE, TRUE};
use fonduer_synth::{Domain, GoldKb};

const RELATION: &str = "has_collector_current";
const TRAIN_FRAC: f64 = 0.7;

fn config() -> PipelineConfig {
    PipelineConfig::builder()
        .learner(Learner::LogReg)
        .train_frac(TRAIN_FRAC)
        .build()
        .expect("config is valid")
}

/// `lf` under a new name: the same votes, a new identity.
fn renamed(lf: LabelingFunction, name: &str) -> LabelingFunction {
    let modality = lf.modality;
    LabelingFunction::new(name, modality, move |doc, cand| lf.label(doc, cand))
}

/// A rule of its own: votes by the start offset of the candidate's first
/// mention, modulo 3.
fn offset_lf(name: &str) -> LabelingFunction {
    LabelingFunction::new(name, Modality::Textual, |_, cand| {
        match cand.mentions.first().map(|m| m.start % 3) {
            Some(0) => TRUE,
            Some(1) => FALSE,
            _ => ABSTAIN,
        }
    })
}

fn assert_same(warm: &SupervisionArtifact, cold: &SupervisionArtifact, step: &str) {
    assert_eq!(warm.label_matrix, cold.label_matrix, "{step}: label matrix");
    assert_eq!(warm.train_idx, cold.train_idx, "{step}: train_idx");
    assert_eq!(
        warm.train_marginals, cold.train_marginals,
        "{step}: train marginals"
    );
    assert_eq!(
        warm.label_coverage.to_bits(),
        cold.label_coverage.to_bits(),
        "{step}: label coverage"
    );
    assert_eq!(
        warm.lf_diagnostics, cold.lf_diagnostics,
        "{step}: LF diagnostics"
    );
}

/// Swap in `lfs`, supervise, and check the result against a cold session
/// and against applying every LF directly. Returns `recomputed_docs()` of
/// the warm supervise.
fn edit<'a>(
    s: &mut PipelineSession<'a>,
    gold: &GoldKb,
    extractor: &CandidateExtractor,
    lfs: &'a [LabelingFunction],
    step: &str,
) -> usize {
    s.set_lfs(lfs);
    s.supervise().expect("warm supervise");
    let recomputed = s.recomputed_docs();

    let corpus = s.corpus().clone();
    let mut cold = PipelineSession::from_parts(&corpus, gold, extractor, lfs, config())
        .expect("session inputs are valid");
    let warm = s.supervise().expect("cached supervise");
    assert_same(warm, cold.supervise().expect("cold supervise"), step);

    // Identity by name alone would agree with itself cold and warm; the
    // direct application catches it.
    let cands = cold.candidates().expect("candgen").clone();
    let train = CandidateSet {
        schema: cands.schema.clone(),
        candidates: warm
            .train_idx
            .iter()
            .map(|&i| cands.candidates[i].clone())
            .collect(),
    };
    let refs: Vec<&LabelingFunction> = lfs.iter().collect();
    assert_eq!(
        warm.label_matrix,
        LabelMatrix::apply(&refs, &corpus, &train),
        "{step}: label matrix vs direct application"
    );
    recomputed
}

#[test]
fn lf_edits_match_cold_sessions_and_revote_only_new_columns() {
    let ds = Domain::Electronics.generate(16, 7);
    let extractor = electronics::extractor(&ds, RELATION, ContextScope::Document)
        .with_throttler(electronics::default_throttler(RELATION));
    let base = || electronics::lfs(RELATION);
    let n_lfs = base().len();
    assert!(n_lfs >= 6, "the library has room to edit");

    // Rename LF 2 (same rule, new name).
    let mut rename = base();
    let lf = rename.remove(2);
    let name = format!("{}#renamed", lf.name);
    rename.insert(2, renamed(lf, &name));
    // Drop LF 4.
    let mut drop = base();
    let lf = drop.remove(2);
    drop.insert(2, renamed(lf, &name));
    drop.remove(4);
    // Add a new rule.
    let mut add = base();
    let lf = add.remove(2);
    add.insert(2, renamed(lf, &name));
    add.remove(4);
    add.push(offset_lf("extra:mention_offset"));
    // Reverse the library.
    let mut reorder = base();
    let lf = reorder.remove(2);
    reorder.insert(2, renamed(lf, &name));
    reorder.remove(4);
    reorder.push(offset_lf("extra:mention_offset"));
    reorder.reverse();
    // A different rule under LF 0's name, after it.
    let mut shared = base();
    let lf0_name = shared[0].name.clone();
    shared.push(offset_lf(&lf0_name));
    // Drop the first of the two: the other is now the only LF of that name.
    let mut shared_tail = base();
    shared_tail.remove(0);
    shared_tail.push(offset_lf(&lf0_name));
    // A different rule under LF 3's name, ahead of it.
    let mut ahead = base();
    let lf3_name = ahead[3].name.clone();
    ahead.insert(0, offset_lf(&lf3_name));
    // Rename LF 1, once an upsert has landed.
    let mut after_upsert = base();
    let lf = after_upsert.remove(1);
    let name1 = format!("{}#renamed", lf.name);
    after_upsert.insert(1, renamed(lf, &name1));
    let back = base();
    let original = base();

    let mut s = PipelineSession::from_parts(&ds.corpus, &ds.gold, &extractor, &original, config())
        .expect("session inputs are valid");
    s.candidates().expect("cold candgen");
    s.supervise().expect("cold supervise");
    let n_train = ds
        .corpus
        .iter()
        .filter(|(_, d)| is_train_doc(&d.name, TRAIN_FRAC, config().seed))
        .count();
    assert!(n_train > 1 && n_train < 16, "the split has both sides");
    assert_eq!(
        s.recomputed_docs(),
        n_train,
        "cold supervise votes every doc"
    );

    let g = &ds.gold;
    let ex = &extractor;
    assert_eq!(edit(&mut s, g, ex, &rename, "rename"), n_train);
    assert_eq!(edit(&mut s, g, ex, &drop, "drop"), 0);
    assert_eq!(edit(&mut s, g, ex, &add, "add"), n_train);
    assert_eq!(edit(&mut s, g, ex, &reorder, "reorder"), 0);
    assert_eq!(edit(&mut s, g, ex, &add, "step back"), 0);
    assert_eq!(edit(&mut s, g, ex, &back, "back to the original"), 0);
    assert_eq!(edit(&mut s, g, ex, &shared, "shared name"), n_train);
    assert_eq!(
        edit(&mut s, g, ex, &shared_tail, "shared name, first dropped"),
        n_train
    );
    assert_eq!(
        edit(&mut s, g, ex, &ahead, "shared name inserted ahead"),
        n_train
    );

    // An upsert between two edits: the revised training document votes
    // every LF, then the next edit re-votes one column everywhere.
    let revised = Domain::Electronics.generate(16, 8);
    let doc = (0..16)
        .map(|i| revised.corpus.doc(DocId::from_usize(i)))
        .find(|d| is_train_doc(&d.name, TRAIN_FRAC, config().seed))
        .expect("a training document")
        .clone();
    s.upsert_document(doc).expect("name is unique");
    assert_eq!(edit(&mut s, g, ex, &ahead, "upsert"), 1);
    assert_eq!(
        edit(&mut s, g, ex, &after_upsert, "edit after upsert"),
        n_train
    );
}
