//! Robust distinct sampling on streams with near-duplicates.
//!
//! Implementation of Chen & Zhang, *"Distinct Sampling on Streaming Data
//! with Near-Duplicates"* (PODS 2018).

#![warn(missing_docs)]

mod checkpoint;
mod config;
mod distributed;
mod error;
mod f0;
mod heavy;
mod infinite;
mod jl_adapter;
mod ksample;
mod lsh;
mod merge_index;
pub mod persist;
mod sampler;
mod store;
mod sw_fixed;
mod sw_hier;

pub use checkpoint::{Checkpointable, RngState};
pub use config::{SamplerConfig, SamplerConfigBuilder, SamplerContext, MAX_LEVEL};
pub use distributed::{MergePlan, MergedSummary};
pub use error::RdsError;
pub use f0::{RobustF0Estimator, SlidingWindowF0, DEFAULT_KAPPA_B, FM_PHI};
pub use heavy::{HeavyGroup, RobustHeavyHitters};
pub use infinite::{BatchStats, GroupRecord, ProcessOutcome, RobustL0Sampler, RobustL0State};
pub use jl_adapter::{JlRobustSampler, JlSamplerState, JlSummary};
pub use ksample::{
    KDistinctSampler, KDistinctState, KWithReplacementSampler, KWithReplacementState,
};
pub use lsh::{
    LshPartitioner, MetricGroup, MetricRobustSampler, MetricSamplerState, MetricSummary,
    SimHashPartitioner,
};
pub use sampler::{DistinctSampler, MergeCounts, SamplerSummary, WindowSummary};
pub use store::CandidateStore;
pub use sw_fixed::{
    FixedRateLevelState, FixedRateWindowSampler, FixedRateWindowState, WindowGroupEntry,
};
pub use sw_hier::{GroupSample, SlidingWindowSampler, SlidingWindowState};
