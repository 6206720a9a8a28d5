//! Cedar core: the quality model and wait-duration optimization of
//! *"Hold 'em or Fold 'em? Aggregation Queries under Performance
//! Variations"* (EuroSys 2016).
//!
//! An aggregation tree runs a query under an end-to-end deadline `D`.
//! Each aggregator must decide how long to wait for its downstream
//! outputs before shipping a partial result upstream: waiting longer
//! collects more outputs (raising response *quality* — the fraction of
//! process outputs included in the final response) but risks missing the
//! deadline upstream, forfeiting everything it collected.
//!
//! Module map:
//!
//! - [`tree`] — stage and tree specifications ([`StageSpec`],
//!   [`TreeSpec`]);
//! - [`quality`] — the gain/loss quality calculus (Eqs. 1–4);
//! - [`wait`] — `CALCULATEWAIT` (Pseudocode 2): the ε-grid scan that picks
//!   the optimal wait duration;
//! - [`profile`] — [`QualityProfile`]: the memoized recursion `q_n(D)`
//!   that extends the two-level analysis to arbitrary depth (§4.3.2);
//! - [`policy`] — every wait policy evaluated in the paper: **Cedar**,
//!   the **Proportional-split** / **Equal-split** / **Subtract-upper**
//!   straw-men, the **Ideal** oracle, and the ablations (empirical
//!   estimates, no online learning);
//! - [`aggregator`] — the aggregator state machine (Pseudocode 1): the
//!   whole per-aggregator pass, driven by both the discrete-event
//!   simulator and the tokio runtime;
//! - [`sync`] — poison-tolerant lock acquisition ([`sync::LockExt`]);
//! - [`fs`] — crash-safe atomic file replacement ([`fs::write_atomic`]);
//! - [`units`] — typed time units ([`units::Millis`]), the sanctioned
//!   home of millisecond conversions (lint rule L5).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregator;
pub mod fs;
pub mod policy;
pub mod profile;
pub mod quality;
pub mod setup;
pub mod sync;
pub mod tree;
pub mod units;
pub mod wait;

pub use aggregator::{AggregatorAction, AggregatorState};
pub use policy::{DecisionDetail, PolicyContext, WaitPolicy, WaitPolicyKind};
pub use profile::QualityProfile;
pub use setup::PreparedContexts;
pub use sync::LockExt;
pub use tree::{StageSpec, TreeSpec};
pub use units::Millis;
pub use wait::{calculate_wait, WaitDecision};
