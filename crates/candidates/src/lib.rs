//! # fonduer-candidates
//!
//! Candidate generation for Fonduer (paper §3.2 Phase 2, §4.1): users
//! declare *matchers* describing what each mention type looks like and
//! optional *throttlers* that prune the combinatorial cross-product of
//! document-level mention tuples; the extractor asks each matcher for a
//! document's mentions, forms scoped n-ary candidates, and filters them.
//!
//! A document is a matcher's unit of work: [`Matcher::mentions`] scans
//! every sentence of one document, greedily taking the longest accepted
//! span at each start position. Its default needs only
//! [`Matcher::matches`]. [`DictionaryMatcher`] overrides it to check each
//! distinct word of the document once, remembering by word symbol whether
//! the word begins an entry, so repeated words cost a byte load each.
//!
//! The [`ContextScope`] type captures both the cumulative scope sweep of
//! Figure 6 (sentence → table → page → document) and the strict scopes the
//! Table 2 oracle baselines use.

#![warn(missing_docs)]

pub mod candidate;
pub mod extract;
pub mod matcher;
pub mod scope;
pub mod throttler;

pub use candidate::{Candidate, CandidateSet, RelationSchema};
pub use extract::CandidateExtractor;
pub use matcher::{
    DictionaryMatcher, FnMatcher, Matcher, MentionType, NumberRangeMatcher, UnionMatcher,
};
pub use scope::ContextScope;
pub use throttler::{
    FnThrottler, NamedThrottler, Throttler, ThrottlerChain, UniformPruneThrottler,
};
