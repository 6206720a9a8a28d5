//! Per-query decision traces: a bounded event log of the Pseudocode-1
//! timeline (arrivals, estimates, chosen waits, watchdog/retry events,
//! final ship reason).
//!
//! The ring keeps the **first** `head_cap` events and the **last**
//! `tail_cap` events of a query; overflow drops from the middle and is
//! reported via `dropped`, so the query start and the final ship
//! decision are always retained. Aggregate fault counters are bumped at
//! record time — independent of what the ring retained — into the
//! summary's [`FailureReport`], so it can be compared *exactly* against
//! the report the engine's ledger kept, even when events were dropped.
//!
//! Timestamps are model-time `f64`s supplied by the caller (the engine
//! derives them from its `TimeScale` seam); this module never reads a
//! clock.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default number of leading events retained verbatim.
const DEFAULT_HEAD_CAP: usize = 64;
/// Default number of trailing events retained in the rolling window.
const DEFAULT_TAIL_CAP: usize = 448;

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why an aggregator (or the query as a whole) stopped waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ShipReason {
    /// Every expected output arrived before the wait expired.
    AllArrived,
    /// The armed wait timer fired first.
    TimerExpired,
    /// The query deadline expired at the root.
    DeadlineExpired,
}

impl std::fmt::Display for ShipReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShipReason::AllArrived => write!(f, "all arrived"),
            ShipReason::TimerExpired => write!(f, "timer expired"),
            ShipReason::DeadlineExpired => write!(f, "deadline expired"),
        }
    }
}

/// Classification of an injected fault, mirroring the runtime's
/// `FaultKind` without depending on it (this crate is a leaf).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FaultClass {
    /// Process crashed before sending its output.
    Crash,
    /// Process hung past the deadline.
    Hang,
    /// Process straggled (inflated duration).
    Straggle,
    /// Output message was dropped in flight.
    Drop,
    /// Output message was duplicated in flight.
    Duplicate,
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultClass::Crash => write!(f, "crash"),
            FaultClass::Hang => write!(f, "hang"),
            FaultClass::Straggle => write!(f, "straggle"),
            FaultClass::Drop => write!(f, "drop"),
            FaultClass::Duplicate => write!(f, "duplicate"),
        }
    }
}

/// One step of the Pseudocode-1 decision timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum TraceEventKind {
    /// Query admitted: deadline (model time), process count, priors epoch.
    QueryStart {
        /// Query deadline in model time units.
        deadline: f64,
        /// Total processes in the aggregation tree.
        total_processes: usize,
        /// Epoch of the priors snapshot the query planned against.
        priors_epoch: u64,
    },
    /// Initial wait chosen before any arrivals.
    InitialWait {
        /// The wait duration `t` in model time units.
        wait: f64,
    },
    /// An output arrived at an aggregator.
    Arrival {
        /// 1-based arrival index at this aggregator.
        arrival: usize,
        /// Child index the output came from.
        origin: usize,
        /// Whether this output came from a speculative retry.
        retry: bool,
    },
    /// Parameters re-estimated from observed durations.
    Estimate {
        /// Estimated log-normal location.
        mu: f64,
        /// Estimated log-normal scale.
        sigma: f64,
        /// Number of samples behind the estimate.
        samples: usize,
    },
    /// Wait timer re-armed after a rescan.
    Rearm {
        /// Newly chosen wait `t` in model time units.
        wait: f64,
        /// Expected quality `q(t)` at the chosen point.
        expected_quality: f64,
        /// Expected gain from waiting `t` instead of shipping now.
        gain: f64,
        /// Expected loss (quality forfeited upstream) from waiting.
        loss: f64,
    },
    /// The armed wait timer fired.
    TimerFired,
    /// The straggler watchdog fired.
    WatchdogFired {
        /// Outputs expected at this aggregator.
        expected: usize,
        /// Outputs received when the watchdog fired.
        received: usize,
    },
    /// A speculative retry was launched for a missing child.
    RetryLaunched {
        /// Child index being retried.
        origin: usize,
    },
    /// A speculative retry delivered before the original.
    RetryDelivered {
        /// Child index the retry covered.
        origin: usize,
    },
    /// A duplicate output was suppressed.
    DuplicateSuppressed {
        /// Child index that duplicated.
        origin: usize,
    },
    /// A duration observation was right-censored at departure.
    Censored {
        /// Child index whose duration was censored.
        origin: usize,
    },
    /// A fault was injected by the chaos plan.
    FaultInjected {
        /// The class of fault injected.
        fault: FaultClass,
        /// Process index the fault hit.
        origin: usize,
    },
    /// An aggregator shipped its partial aggregate.
    Departed {
        /// Why it shipped.
        reason: ShipReason,
        /// Outputs included in the aggregate.
        received: usize,
        /// Outputs it was expecting.
        expected: usize,
    },
    /// An output reached the root aggregator.
    RootArrival {
        /// Top-level child index.
        origin: usize,
        /// Leaf outputs represented by this arrival.
        weight: usize,
    },
    /// The query completed.
    QueryEnd {
        /// Final result quality (fraction of leaf outputs included).
        quality: f64,
        /// Leaf outputs included in the final result.
        included: usize,
        /// Why the query shipped.
        reason: ShipReason,
    },
}

/// A single trace entry: where and when, plus the event itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Record sequence number (0-based, gap-free at record time).
    pub seq: u64,
    /// Model-time timestamp supplied by the caller.
    pub at: f64,
    /// Tree level of the node that recorded the event (0 = leaf
    /// workers; higher levels are closer to the root).
    pub level: usize,
    /// Node index within its level.
    pub index: usize,
    /// What happened.
    #[serde(flatten)]
    pub kind: TraceEventKind,
}

/// Per-query failure summary: what was injected, what the engine did
/// about it, and what was censored for the refit path.
///
/// This is the one failure record. The engine's ledger books into it,
/// the decision trace's [`TraceSummary`] counts into it, and the flight
/// ring and the query response carry it, so two of them agree exactly
/// when they saw the same query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureReport {
    /// Tasks that crashed before sending.
    pub crashed: usize,
    /// Tasks that hung past the deadline.
    pub hung: usize,
    /// Tasks whose duration was inflated.
    pub straggled: usize,
    /// Messages lost at the channel boundary.
    pub dropped: usize,
    /// Messages delivered twice by the injector.
    pub duplicated: usize,
    /// Speculative retries launched by watchdogs.
    pub retries_launched: usize,
    /// Retries whose result was actually counted (arrived first and in
    /// time).
    pub retries_delivered: usize,
    /// Arrivals suppressed as duplicates (injected dupes and
    /// original-vs-retry races).
    pub duplicates_suppressed: usize,
    /// Right-censored observations recorded for the refit path (workers
    /// that never arrived at a departed aggregator).
    pub censored_observations: usize,
}

impl FailureReport {
    /// Counts one fault of `class`: the one mapping from a fault class
    /// to its counter.
    pub fn count(&mut self, class: FaultClass) {
        *match class {
            FaultClass::Crash => &mut self.crashed,
            FaultClass::Hang => &mut self.hung,
            FaultClass::Straggle => &mut self.straggled,
            FaultClass::Drop => &mut self.dropped,
            FaultClass::Duplicate => &mut self.duplicated,
        } += 1;
    }

    /// Total faults injected into this query.
    #[must_use]
    pub fn total_injected(&self) -> usize {
        self.crashed + self.hung + self.straggled + self.dropped + self.duplicated
    }

    /// `true` when nothing abnormal happened (the clean-run report).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }

    /// Folds another report into this one, field by field. Mesh roots
    /// use this to merge the per-subtree reports carried by partial
    /// result frames into one end-to-end account, so a distributed
    /// query reconciles exactly like a single-process one.
    pub fn absorb(&mut self, other: &Self) {
        self.crashed += other.crashed;
        self.hung += other.hung;
        self.straggled += other.straggled;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.retries_launched += other.retries_launched;
        self.retries_delivered += other.retries_delivered;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.censored_observations += other.censored_observations;
    }
}

/// Aggregate counters maintained at record time, so they stay exact
/// even when the bounded ring drops mid-query events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Arrivals recorded across all aggregators.
    pub arrivals: usize,
    /// Wait re-arm decisions recorded.
    pub rearms: usize,
    /// Faults, retries, suppressed duplicates and censored observations
    /// recorded.
    pub failures: FailureReport,
}

#[derive(Debug)]
struct TraceInner {
    head: Vec<TraceEvent>,
    tail: VecDeque<TraceEvent>,
    dropped: u64,
    next_seq: u64,
    summary: TraceSummary,
}

/// A bounded per-query decision trace.
///
/// Recording takes a short mutex (traces are opt-in via `explain`, so
/// this is off the default hot path); the ring retains the first
/// `head_cap` and last `tail_cap` events and counts everything dropped
/// in between. Fault-related counters in [`TraceSummary`] are updated
/// on every record, independent of ring retention.
#[derive(Debug)]
pub struct QueryTrace {
    inner: Mutex<TraceInner>,
    head_cap: usize,
    tail_cap: usize,
}

impl Default for QueryTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryTrace {
    /// Creates a trace with the default capacity (64 head + 448 tail).
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_HEAD_CAP, DEFAULT_TAIL_CAP)
    }

    /// Creates a trace keeping the first `head_cap` and last `tail_cap`
    /// events (each clamped to at least 1 so the first and last events
    /// of a query are never dropped).
    #[must_use]
    pub fn with_capacity(head_cap: usize, tail_cap: usize) -> Self {
        Self {
            inner: Mutex::new(TraceInner {
                head: Vec::new(),
                tail: VecDeque::new(),
                dropped: 0,
                next_seq: 0,
                summary: TraceSummary::default(),
            }),
            head_cap: head_cap.max(1),
            tail_cap: tail_cap.max(1),
        }
    }

    /// Records one event at model time `at` from node `(level, index)`.
    pub fn record(&self, at: f64, level: usize, index: usize, kind: TraceEventKind) {
        let mut inner = lock_unpoisoned(&self.inner);
        let summary = &mut inner.summary;
        match &kind {
            TraceEventKind::Arrival { .. } => summary.arrivals += 1,
            TraceEventKind::Rearm { .. } => summary.rearms += 1,
            TraceEventKind::FaultInjected { fault, .. } => summary.failures.count(*fault),
            TraceEventKind::RetryLaunched { .. } => summary.failures.retries_launched += 1,
            TraceEventKind::RetryDelivered { .. } => summary.failures.retries_delivered += 1,
            TraceEventKind::DuplicateSuppressed { .. } => {
                summary.failures.duplicates_suppressed += 1;
            }
            TraceEventKind::Censored { .. } => summary.failures.censored_observations += 1,
            _ => {}
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let event = TraceEvent {
            seq,
            at,
            level,
            index,
            kind,
        };
        if inner.head.len() < self.head_cap {
            inner.head.push(event);
        } else {
            if inner.tail.len() == self.tail_cap {
                inner.tail.pop_front();
                inner.dropped += 1;
            }
            inner.tail.push_back(event);
        }
    }

    /// Events currently retained, in sequence order (head then tail).
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let inner = lock_unpoisoned(&self.inner);
        inner
            .head
            .iter()
            .chain(inner.tail.iter())
            .cloned()
            .collect()
    }

    /// Number of mid-query events evicted from the ring.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        lock_unpoisoned(&self.inner).dropped
    }

    /// Current aggregate counters.
    #[must_use]
    pub fn summary(&self) -> TraceSummary {
        lock_unpoisoned(&self.inner).summary
    }

    /// Freezes the trace into a serialisable report.
    #[must_use]
    pub fn report(&self) -> TraceReport {
        let inner = lock_unpoisoned(&self.inner);
        TraceReport {
            events: inner
                .head
                .iter()
                .chain(inner.tail.iter())
                .cloned()
                .collect(),
            dropped: inner.dropped,
            summary: inner.summary,
            mesh: None,
        }
    }
}

/// A frozen, serialisable view of a [`QueryTrace`], suitable for
/// shipping over the wire in a query response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Retained events in sequence order (a gap is indicated by
    /// non-contiguous `seq` values plus `dropped`).
    pub events: Vec<TraceEvent>,
    /// Number of mid-query events evicted from the ring.
    pub dropped: u64,
    /// Exact aggregate counters (unaffected by eviction).
    pub summary: TraceSummary,
    /// For mesh queries: the stitched cross-process timeline (segments
    /// from every reachable node with per-hop wire spans). Absent for
    /// in-process queries. Boxed because segments nest reports.
    #[serde(default)]
    pub mesh: Option<Box<crate::stitch::MeshTrace>>,
}

impl TraceReport {
    /// Renders the trace as a human-readable timeline, one event per
    /// line, with an eviction marker where mid-query events were
    /// dropped.
    #[must_use]
    pub fn render_timeline(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut prev_seq: Option<u64> = None;
        for e in &self.events {
            if let Some(p) = prev_seq {
                if e.seq != p + 1 {
                    let _ = writeln!(out, "  ... {} events elided ...", e.seq - p - 1);
                }
            }
            prev_seq = Some(e.seq);
            let _ = write!(out, "[t={:>10.3}] L{}#{:<3} ", e.at, e.level, e.index);
            let _ = match &e.kind {
                TraceEventKind::QueryStart { deadline, total_processes, priors_epoch } => writeln!(
                    out,
                    "query start: deadline={deadline} processes={total_processes} priors_epoch={priors_epoch}"
                ),
                TraceEventKind::InitialWait { wait } => {
                    writeln!(out, "initial wait t={wait:.3}")
                }
                TraceEventKind::Arrival { arrival, origin, retry } => writeln!(
                    out,
                    "arrival #{arrival} from child {origin}{}",
                    if *retry { " (retry)" } else { "" }
                ),
                TraceEventKind::Estimate { mu, sigma, samples } => writeln!(
                    out,
                    "estimate mu={mu:.4} sigma={sigma:.4} ({samples} samples)"
                ),
                TraceEventKind::Rearm { wait, expected_quality, gain, loss } => writeln!(
                    out,
                    "re-arm wait t={wait:.3} q(t)={expected_quality:.4} gain={gain:.4} loss={loss:.4}"
                ),
                TraceEventKind::TimerFired => writeln!(out, "timer fired"),
                TraceEventKind::WatchdogFired { expected, received } => writeln!(
                    out,
                    "watchdog fired ({received}/{expected} arrived)"
                ),
                TraceEventKind::RetryLaunched { origin } => {
                    writeln!(out, "speculative retry launched for child {origin}")
                }
                TraceEventKind::RetryDelivered { origin } => {
                    writeln!(out, "retry delivered for child {origin}")
                }
                TraceEventKind::DuplicateSuppressed { origin } => {
                    writeln!(out, "duplicate from child {origin} suppressed")
                }
                TraceEventKind::Censored { origin } => {
                    writeln!(out, "observation for child {origin} censored at departure")
                }
                TraceEventKind::FaultInjected { fault, origin } => {
                    writeln!(out, "fault injected: {fault} at process {origin}")
                }
                TraceEventKind::Departed { reason, received, expected } => writeln!(
                    out,
                    "departed ({reason}) with {received}/{expected} outputs"
                ),
                TraceEventKind::RootArrival { origin, weight } => {
                    writeln!(out, "root arrival from subtree {origin} (weight {weight})")
                }
                TraceEventKind::QueryEnd { quality, included, reason } => writeln!(
                    out,
                    "query end: quality={quality:.4} included={included} ({reason})"
                ),
            };
        }
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "({} mid-query events evicted from the ring)",
                self.dropped
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: usize) -> TraceEventKind {
        TraceEventKind::Arrival {
            arrival: i,
            origin: i,
            retry: false,
        }
    }

    #[test]
    fn ring_keeps_first_and_last_under_overflow() {
        let t = QueryTrace::with_capacity(2, 3);
        t.record(
            0.0,
            0,
            0,
            TraceEventKind::QueryStart {
                deadline: 10.0,
                total_processes: 4,
                priors_epoch: 0,
            },
        );
        for i in 1..20 {
            t.record(i as f64, 1, 0, ev(i));
        }
        t.record(
            20.0,
            0,
            0,
            TraceEventKind::QueryEnd {
                quality: 1.0,
                included: 4,
                reason: ShipReason::AllArrived,
            },
        );
        let events = t.events();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].seq, 0);
        assert!(matches!(events[0].kind, TraceEventKind::QueryStart { .. }));
        assert_eq!(events.last().map(|e| e.seq), Some(20));
        assert!(matches!(
            events.last().map(|e| &e.kind),
            Some(TraceEventKind::QueryEnd { .. })
        ));
        assert_eq!(t.dropped(), 16);
        assert_eq!(t.summary().arrivals, 19);
    }

    #[test]
    fn summary_counts_survive_eviction() {
        let t = QueryTrace::with_capacity(1, 1);
        for i in 0..10 {
            t.record(
                i as f64,
                2,
                i,
                TraceEventKind::FaultInjected {
                    fault: FaultClass::Crash,
                    origin: i,
                },
            );
        }
        assert_eq!(t.summary().failures.crashed, 10);
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn count_maps_each_class_to_its_counter() {
        let mut r = FailureReport::default();
        for (class, times) in [
            (FaultClass::Crash, 1),
            (FaultClass::Hang, 2),
            (FaultClass::Straggle, 3),
            (FaultClass::Drop, 4),
            (FaultClass::Duplicate, 5),
        ] {
            for _ in 0..times {
                r.count(class);
            }
        }
        let expected = FailureReport {
            crashed: 1,
            hung: 2,
            straggled: 3,
            dropped: 4,
            duplicated: 5,
            ..FailureReport::default()
        };
        assert_eq!(r, expected);
        assert_eq!(r.total_injected(), 15);
    }

    #[test]
    fn absorb_merges_field_by_field() {
        let mut a = FailureReport {
            crashed: 1,
            retries_launched: 2,
            censored_observations: 3,
            ..FailureReport::default()
        };
        let b = FailureReport {
            crashed: 2,
            hung: 1,
            straggled: 4,
            dropped: 1,
            duplicated: 1,
            retries_launched: 1,
            retries_delivered: 1,
            duplicates_suppressed: 1,
            censored_observations: 2,
        };
        a.absorb(&b);
        assert_eq!(a.crashed, 3);
        assert_eq!(a.hung, 1);
        assert_eq!(a.straggled, 4);
        assert_eq!(a.dropped, 1);
        assert_eq!(a.duplicated, 1);
        assert_eq!(a.retries_launched, 3);
        assert_eq!(a.retries_delivered, 1);
        assert_eq!(a.duplicates_suppressed, 1);
        assert_eq!(a.censored_observations, 5);
        // Absorbing a clean report is the identity.
        let before = a;
        a.absorb(&FailureReport::default());
        assert_eq!(a, before);
        assert!(FailureReport::default().is_clean() && !a.is_clean());
    }

    #[test]
    fn report_round_trips_through_json() {
        let t = QueryTrace::new();
        t.record(
            0.5,
            1,
            2,
            TraceEventKind::Rearm {
                wait: 3.0,
                expected_quality: 0.9,
                gain: 0.1,
                loss: 0.02,
            },
        );
        let report = t.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: TraceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.render_timeline().contains("re-arm wait"));
    }
}
