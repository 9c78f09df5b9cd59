//! # fonduer-core
//!
//! End-to-end Fonduer pipeline (paper Figure 2): given a corpus, a relation
//! schema with matchers and throttlers, and a labeling-function library,
//! produce a knowledge base and held-out quality metrics.
//!
//! * [`pipeline`] — the three-phase orchestration (one-shot [`run_task`]);
//! * [`session`] — the stateful, artifact-cached [`PipelineSession`] for
//!   iterative KBC;
//! * [`error`] — typed errors for the session surface;
//! * [`eval`] — P/R/F1, oracle upper bounds (Table 2), KB comparison
//!   (Table 3);
//! * [`kb`] — the relational output;
//! * [`domains`] — matchers/throttlers/LF libraries for the four
//!   evaluation applications;
//! * [`analysis`] — the error-analysis loop's LF reports and error buckets.

#![warn(missing_docs)]

pub mod analysis;
pub mod domains;
pub mod error;
pub mod eval;
pub mod kb;
pub mod pipeline;
pub mod report;
pub mod session;

pub use analysis::{ErrorBuckets, LfReport, LfRow};
pub use error::{ConfigError, Error};
pub use eval::{
    compare_with_existing_kb, eval_tuples, gold_tuples_for_docs, oracle_upper_bound, KbComparison,
    PrF1, Tuple,
};
pub use kb::KnowledgeBase;
pub use pipeline::{
    is_train_doc, reachable_tuples, run_task, Learner, PipelineConfig, PipelineConfigBuilder,
    PipelineOutput, Task, Timings,
};
pub use report::{
    CriticalPath, DocReport, PoolTelemetry, RunReport, StageCoverage, StageTiming, WindowSharing,
};
pub use session::shard_cache::{ShardCacheSummary, ShardKey};
pub use session::{PipelineSession, SessionStats, StageId, StageStats, SupervisionArtifact};
