//! # robust-distinct-sampling
//!
//! Robust ℓ0-sampling and distinct-element estimation on streams with
//! near-duplicates — a Rust implementation of Chen & Zhang,
//! *"Distinct Sampling on Streaming Data with Near-Duplicates"*
//! (PODS 2018).
//!
//! Points within a user-chosen distance `alpha` are treated as
//! near-duplicates of one *group* (entity). The library answers, in
//! space polylogarithmic in the stream length:
//!
//! * "give me a uniformly random **entity**" — [`core::RobustL0Sampler`]
//!   (whole stream) and [`core::SlidingWindowSampler`] (last `w` items or
//!   time units);
//! * "how many distinct entities are there?" — [`core::RobustF0Estimator`]
//!   and [`core::SlidingWindowF0`];
//! * "which entities dominate the stream?" — [`core::RobustHeavyHitters`];
//! * distributed unions (merge per-site [`core::MergedSummary`]s with
//!   [`core::SamplerSummary::merge_many`]), `k`-sampling,
//!   high-dimensional and angular-metric variants.
//!
//! This umbrella crate re-exports the workspace members and provides the
//! [`Rds`] facade — one window-agnostic, shard-agnostic handle over every
//! sampler regime; depend on the individual `rds-*` crates for narrower
//! builds.
//!
//! ```
//! use robust_distinct_sampling::{Rds, geometry::Point};
//!
//! let mut rds = Rds::builder()
//!     .dim(2)
//!     .alpha(0.1)
//!     .seed(7)
//!     .build()
//!     .expect("valid configuration");
//! for i in 0..1000 {
//!     // 10 entities, each emitting 100 noisy observations
//!     let entity = (i % 10) as f64 * 5.0;
//!     let jitter = 0.001 * (i / 10) as f64;
//!     rds.process(Point::new(vec![entity + jitter, entity]));
//! }
//! let sample = rds.query().expect("stream non-empty");
//! assert_eq!(sample.rep.dim(), 2);
//! assert_eq!(rds.f0_estimate(), 10.0);
//! ```
//!
//! Add `.window(Window::Sequence(w))` for sliding-window queries or
//! `.shards(n)` for concurrent sharded ingestion — same handle, same
//! calls. Swap `.build()` for `.build_split()` to get the
//! `(`[`RdsWriter`]`, `[`RdsReader`]`)` pair: the writer owns ingestion
//! and publishes immutable epoch-stamped [`Snapshot`]s, and cloned
//! readers serve `query`/`query_k`/`f0_estimate` with `&self` from any
//! number of threads without ever blocking the ingest path. The concrete
//! samplers behind the facade all implement [`core::DistinctSampler`],
//! the trait to program against when a library needs to accept any
//! family directly.
//!
//! State is durable: [`RdsWriter::checkpoint_to`] persists the complete
//! sampler state (every family implements [`core::Checkpointable`]) in a
//! versioned, checksummed container, and
//! `Rds::builder().restore_from(path)` resumes it — continued ingestion
//! and queries are bit-identical to a process that never restarted;
//! damaged or config-mismatched files fail with
//! [`core::RdsError::Checkpoint`].

#![warn(missing_docs)]

mod facade;

pub use facade::{
    fnv1a64, open_container, seal_container, PublishCadence, Rds, RdsBuilder, RdsReader, RdsWriter,
    Snapshot, WriterCheckpoint, CHECKPOINT_FORMAT_VERSION, CHECKPOINT_MAGIC, DEFAULT_PUBLISH_EVERY,
};

pub use rds_baselines as baselines;
pub use rds_core as core;
pub use rds_datasets as datasets;
pub use rds_engine as engine;
pub use rds_geometry as geometry;
pub use rds_hashing as hashing;
pub use rds_metrics as metrics;
pub use rds_stream as stream;

/// Commonly used types.
pub mod prelude {
    pub use crate::facade::{PublishCadence, Rds, RdsBuilder, RdsReader, RdsWriter, Snapshot};
    pub use rds_core::{
        DistinctSampler, GroupRecord, RdsError, RobustF0Estimator, RobustHeavyHitters,
        RobustL0Sampler, SamplerConfig, SamplerSummary, SlidingWindowF0, SlidingWindowSampler,
    };
    pub use rds_engine::ShardedEngine;
    pub use rds_geometry::{Grid, Point};
    pub use rds_stream::{Stamp, StreamItem, Window};
}
