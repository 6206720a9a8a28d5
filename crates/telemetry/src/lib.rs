//! Low-overhead observability primitives for the cedar workspace.
//!
//! Three pieces live here:
//!
//! * [`metrics`] — sharded atomic counters, gauges, and log-linear
//!   (HDR-style) histograms. Recording is lock-free (relaxed atomic
//!   increments on striped cells); reading is a *snapshot-by-merge*
//!   that sums the stripes without stopping writers. A [`Registry`]
//!   renders everything in the Prometheus text exposition format.
//! * [`trace`] — an optional per-query decision trace: a bounded
//!   event log capturing the Pseudocode-1 timeline (arrivals, refit
//!   epoch, estimated parameters, chosen waits, gain/loss at the
//!   chosen point, watchdog/retry/duplicate events, final ship
//!   reason). The ring keeps the first and last events of a query
//!   even under overflow, and aggregate counters are maintained at
//!   record time so fault totals never depend on what the ring
//!   retained. It also defines [`FailureReport`], the one per-query
//!   failure record the engine, the trace, the flight ring and the
//!   query response all count in.
//! * [`stitch`] — cross-process trace stitching: the per-node
//!   [`TraceSegment`] a mesh node ships inside its partial, the
//!   [`HopRecord`] spans a parent stamps around each child edge, and
//!   the assembled [`MeshTrace`] tree with clock-offset-corrected
//!   per-hop wire overhead.
//! * [`flight`] — an always-on per-node flight recorder: a fixed-size
//!   ring of `Copy` per-query summaries (no steady-state allocation)
//!   dumped to a CRC-guarded `CEDARFDR` file when something goes
//!   wrong.
//!
//! The crate stays a leaf: it depends only on `serde`, `serde_json`,
//! and `cedar-wire` (itself a leaf, for the dump CRC), so every other
//! crate can use it without cycles. Timestamps are supplied by
//! callers — nothing here reads a wall clock, so the L1 domain lint
//! holds by construction.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod flight;
pub mod metrics;
pub mod stitch;
pub mod trace;

pub use flight::{FlightDump, FlightEntry, FlightRecorder};
pub use metrics::{labeled, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use stitch::{HopRecord, MeshTrace, TraceSegment};
pub use trace::{
    FailureReport, FaultClass, QueryTrace, ShipReason, TraceEvent, TraceEventKind, TraceReport,
    TraceSummary,
};
