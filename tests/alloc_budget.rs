//! Allocation-budget regression gate for the ingest front end.
//!
//! Parse + NLP of a fixed datasheet-style document must stay under a
//! committed allocations-per-document budget. A counting global allocator
//! wraps `System`; the test is alone in this integration binary so the
//! count isolates the parse path (after a warmup that absorbs lazy
//! one-time initialization).
//!
//! The budget is deliberately a ceiling with headroom for allocator-count
//! jitter, not a tight pin: it exists to catch reintroduction of per-token
//! or per-word heap traffic (an accidental `to_string()` in the tokenizer
//! multiplies the count by the token count, far beyond any headroom).

use fonduer::prelude::*;
#[path = "support/counting_alloc.rs"]
mod counting_alloc;

/// Fixed synthetic datasheet: one heading, prose, and a ratings table —
/// the document shape the ingest path is optimized for.
const DOC: &str = r#"<html><body>
  <h1 class="title">SMBT3904...MMBT3904</h1>
  <p>NPN Silicon Switching Transistors. High DC current gain, low
  collector-emitter saturation voltage 0.2 V at 10 mA. Operating range
  -65 to 150 degrees. For switching and amplification 100 MHz.</p>
  <table>
    <caption>Maximum Ratings at TA = 25</caption>
    <tr><th>Parameter</th><th>Symbol</th><th>Value</th><th>Unit</th></tr>
    <tr><td>Collector current</td><td>IC</td><td>200</td><td>mA</td></tr>
    <tr><td>Collector-emitter voltage</td><td>VCEO</td><td>40</td><td>V</td></tr>
    <tr><td rowspan="2">Total power dissipation</td><td>P1</td><td>330</td><td rowspan="2">mW</td></tr>
    <tr><td>P2</td><td>250</td></tr>
    <tr><td>Junction temperature</td><td>Tj</td><td>150</td><td>C</td></tr>
  </table>
  <p>Storage temperature TS: -65 to 150. Thermal resistance junction to
  ambient 417 K/W on PCB 1.5 W at 25 ambient, gain 150. Next section
  covers electrical characteristics measured at 2.5 mA and 10 V.</p>
</body></html>"#;

/// Committed allocations-per-document ceiling for parse + NLP of `DOC`.
///
/// Measured after the arena refactor: ~695 allocations/doc. What remains is
/// markup-tree construction (one `String` per tag/attr/text node) and one
/// shared `Structural` per markup element (its three ancestor vectors are
/// `Arc` snapshots shared across every element under the same open-ancestor
/// state); tokenization, tagging, and the per-word visual attributes are
/// allocation-free. The pre-arena string model measured ~2512 on the same
/// document — the eliminated traffic was per-token word/lemma/POS/NER
/// `String`s, `SentenceData` vectors, per-sentence deep `Structural`
/// clones, per-word font `String`s, per-cell ancestor-vector clones, and a
/// `Vec<char>` per markup tag. The budget sits above the measurement with
/// headroom for allocator-count jitter.
const BUDGET_ALLOCS_PER_DOC: u64 = 800;

#[test]
fn parse_nlp_stays_under_allocation_budget() {
    // Warm up lazy one-time state (interner shards, counters, pools).
    for _ in 0..3 {
        let d = parse_document("warm", DOC, DocFormat::Pdf, &ParseOptions::default());
        assert!(d.word_count() > 80);
    }
    const RUNS: u64 = 10;
    let start = counting_alloc::calls();
    for i in 0..RUNS {
        let name = if i % 2 == 0 { "even" } else { "odd" };
        let d = parse_document(name, DOC, DocFormat::Pdf, &ParseOptions::default());
        assert!(!d.sentences.is_empty());
    }
    let per_doc = (counting_alloc::calls() - start) / RUNS;
    eprintln!("ingest allocations/doc = {per_doc} (budget {BUDGET_ALLOCS_PER_DOC})");
    assert!(
        per_doc <= BUDGET_ALLOCS_PER_DOC,
        "parse+NLP of the fixed document allocated {per_doc} times \
         (budget {BUDGET_ALLOCS_PER_DOC}); per-token heap traffic has crept \
         back into the ingest path"
    );
}
