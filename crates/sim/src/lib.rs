//! Discrete-event simulator for deadline-bound aggregation trees.
//!
//! This is the reproduction of the paper's trace-driven simulator (§5.1):
//! it "mimics aggregation queries and can take as its input different
//! fanout factors, deadlines, as well as distributions". One simulated
//! query proceeds exactly like Figure 5:
//!
//! 1. every leaf process finishes after a duration drawn from the
//!    bottom-stage distribution `X_1`;
//! 2. each level-1 aggregator runs the Pseudocode-1 state machine under
//!    the configured wait policy, departs, and its shipped result takes a
//!    further `X_2`-distributed time to reach its parent;
//! 3. higher aggregator levels repeat step 2 with their own stage
//!    distributions;
//! 4. the root counts every process output whose whole chain arrived
//!    within the deadline `D`; quality is that count over the total
//!    process count.
//!
//! The simulation is fully deterministic under a fixed seed (sampling is
//! inverse-transform, the event queue breaks time ties by sequence
//! number), which the regression tests rely on.
//!
//! Module map: [`events`] (the event queue), [`engine`] (per-query
//! execution: the event loop that feeds each aggregator's
//! [`cedar_core::AggregatorState`] — the pass the deployed runtime's
//! aggregators run too — and carries out what it returns), [`metrics`]
//! (outcomes and comparisons), [`runner`] (configuration and batch
//! helpers).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod events;
pub mod metrics;
pub mod runner;

pub use metrics::{improvement_pct, mean_quality, PolicyComparison, QueryOutcome};
pub use runner::{
    compare_on_workload, compare_policies, run_trials, run_workload, simulate_query, SimConfig,
};
