//! tokio-based partition-aggregate execution engine.
//!
//! This crate is the repository's stand-in for the paper's Spark
//! deployment (§5.1: a ~300-LOC partial-aggregation layer on an 80-machine
//! EC2 cluster). The paper's deployment point is that Cedar lives
//! *entirely at the endhosts*: an aggregator only needs a timer, a channel
//! of arrivals, and the per-arrival re-optimization. A multi-threaded
//! tokio runtime exercises exactly those mechanics with real (wall-clock)
//! timers and real message passing:
//!
//! - every leaf **worker** performs its share of work (a sampled
//!   duration at the configured time scale) and produces a partial
//!   value; one task per bottom aggregator sleeps to each of its leaves'
//!   completion instants in turn and ships them, through
//!   [`ship_leaves`] (which mesh workers run too). A leaf that would
//!   complete after the deadline is never slept to, nor is one whose
//!   aggregator has already left, unless its wake books a fault;
//! - every **aggregator** is a task running Pseudocode 1 off the one
//!   `tokio::select!` loop in [`pass`] (which mesh aggregators run too):
//!   partial aggregation on arrival, online re-estimation, timer re-arm,
//!   early departure when all inputs are in;
//! - the **root** gathers whatever aggregated results arrive before the
//!   wall-clock deadline, through [`gather`] (which mesh roots run too).
//!
//! Between queries, the [`service`] and every checkpointing mesh
//! aggregator learn stage distributions through one [`Learner`].
//!
//! Model time (the units of the workload distributions, e.g. seconds for
//! the Facebook trace) maps to wall time through [`TimeScale`], so a
//! 1000-second query replays in ~100 ms of wall clock without changing
//! any decision logic.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod clock;
mod engine;
pub mod faults;
pub mod learner;
pub mod metrics;
pub mod pass;
pub mod pool;
mod scale;
pub mod service;

pub use checkpoint::{Checkpoint, CheckpointConfig, CheckpointError, StageCheckpoint};
pub use engine::{
    run_query, run_query_prepared, run_query_with_values, ship_leaves, RuntimeConfig,
    RuntimeOutcome,
};
pub use faults::{FailureReport, FaultKind, FaultPlan, FaultSpec, Ledger, RecoveryPolicy};
pub use learner::Learner;
pub use metrics::RuntimeMetrics;
pub use pass::{gather, run_pass, Arrival, Gathered, PassConfig, PassOutcome};
pub use pool::ones;
pub use scale::TimeScale;
pub use service::{AggregationService, QueryOptions, ServiceConfig, WarmRestart};
