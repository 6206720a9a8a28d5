//! Pseudocode 1 in real time: the aggregation pass every deployed
//! aggregator runs.
//!
//! The pass itself — dedupe, accumulation, the policy's timer, the
//! watchdog, what is missing at departure — is [`AggregatorState`], the
//! same machine the simulator drives. [`run_pass`] is the thin real-time
//! adapter around it: one re-armed timer that feeds the machine its
//! arrivals and wakes, then books what it reports into the decision
//! trace, the [`Ledger`] and the wait-scan histogram (the simulator books
//! nothing, so booking stays here). The in-process engine's bottom
//! aggregator knows its leaves when the query starts, so it walks their
//! timeline instead of a channel, in model time, as the simulator walks
//! its event list: no timer, and every event takes the instant stepped
//! to, not the clock's; watchdog retries are entries on it. A leaf whose
//! result a fault denies never enters it, so the aggregator sees only
//! arrivals and its own timer, as across a network; the faults
//! themselves are booked by the root when the query starts. Upper
//! levels hear their children over a bounded channel, and a mesh node's
//! network reader threads push each decoded partial-result frame into
//! the same kind of channel as an [`Arrival`]. A dead or straggling
//! *real* peer therefore degrades quality through the same code path as
//! an injected one: arrivals that are not a first from an expected child
//! are refused, children missing at departure are right-censored, and a
//! watchdog launches speculative retries (onto the timeline, or across
//! the wire through the caller's hook). Whatever is refused, retried or
//! censored is booked into the caller's [`Ledger`] at the site that
//! records it in the decision trace.
//!
//! Both roots — the engine's and a mesh root's — run the terminal loop
//! beside it, [`gather`]: the same channel-first order and the same
//! dedupe ([`Seen`]), over the top level's origins. The engine's root
//! also counts the results promised to it by the deadline, and waits
//! past the deadline for any the host has not yet delivered.

use crate::faults::{FaultPlan, Ledger};
use crate::metrics::RuntimeMetrics;
use crate::scale::TimeScale;
use cedar_core::aggregator::Seen;
use cedar_core::policy::DecisionDetail;
use cedar_core::{AggregatorAction, AggregatorState, PolicyContext, WaitPolicyKind};
use cedar_distrib::ContinuousDist;
use cedar_estimate::Model;
use cedar_telemetry::{QueryTrace, ShipReason, TraceEventKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tokio::sync::mpsc;
use tokio::time::Instant;

/// A partial result flowing up the tree: how many process outputs it
/// carries and their aggregated value. `origin` identifies the sending
/// task globally (workers `0..W`, then aggregators level by level) so
/// receivers can suppress duplicate arrivals; `duration` is the
/// sender's realized model-time duration (what refit should learn
/// from); `retry` marks a speculative re-execution launched by a
/// watchdog. This is what the engine's channels and timelines carry;
/// mesh frames decode into it so remote children are indistinguishable
/// from local ones past the socket.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Process outputs aggregated into this message.
    pub payload: usize,
    /// Aggregated value over those outputs.
    pub value: f64,
    /// Global origin id of the sender.
    pub origin: usize,
    /// The sender's realized model-time duration.
    pub duration: f64,
    /// Whether this is a speculative re-execution's result.
    pub retry: bool,
}

/// One entry of a [`Timeline`]: a leaf's result, when it lands, and how
/// many copies of it do ([`FaultPlan::send`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Leaf {
    pub(crate) at: Instant,
    pub(crate) arrival: Arrival,
    pub(crate) copies: usize,
}

/// How a timeline re-executes a leaf its watchdog finds missing: once,
/// for a duration drawn from the fault plan's retry seed for that leaf.
pub(crate) struct Retries {
    pub(crate) plan: Arc<FaultPlan>,
    /// True stage-0 distribution the re-executed work draws from.
    pub(crate) dist: Arc<dyn ContinuousDist>,
    pub(crate) values: Arc<Vec<f64>>,
}

/// A bottom aggregator's leaves, sampled when the query starts, in the
/// order they land: by instant, then origin.
/// Above the bottom level an aggregator has none: `Default` is empty.
#[derive(Default)]
pub(crate) struct Timeline {
    /// Entries still to come, latest first: the next pops off the end.
    leaves: Vec<Leaf>,
    /// Whether some leaf never enters the timeline (a result never sent,
    /// or one due past the deadline). Such a timeline is never spent:
    /// the aggregator leaves on its own timer, as it would with that leaf
    /// still on its way.
    held_back: bool,
    /// Under a fault plan, how the watchdog's retries run.
    retries: Option<Retries>,
}

impl Timeline {
    pub(crate) fn new(mut leaves: Vec<Leaf>, held_back: bool, retries: Option<Retries>) -> Self {
        leaves.sort_by_key(|l| std::cmp::Reverse((l.at, l.arrival.origin)));
        Self {
            leaves,
            held_back,
            retries,
        }
    }

    /// Re-executes each of the `missing` leaves once, as an entry that
    /// lands its sampled duration after `at`, in order behind any entry
    /// of its instant and origin. Returns the origins launched: none
    /// without retries.
    fn retry(&mut self, missing: &[usize], at: Instant, scale: TimeScale) -> Vec<usize> {
        let Some(r) = &self.retries else {
            return Vec::new();
        };
        for &id in missing {
            let mut rng = StdRng::seed_from_u64(r.plan.retry_seed(id));
            let duration = r.dist.sample(&mut rng);
            let leaf = Leaf {
                at: at + scale.to_wall(duration),
                arrival: Arrival {
                    payload: 1,
                    value: r.values[id],
                    origin: id,
                    duration,
                    retry: true,
                },
                copies: 1,
            };
            let key = |l: &Leaf| (l.at, l.arrival.origin);
            let i = self.leaves.partition_point(|l| key(l) > key(&leaf));
            self.leaves.insert(i, leaf);
        }
        missing.to_vec()
    }
}

/// Configuration for one aggregation pass.
pub struct PassConfig {
    /// This aggregator's policy context (from
    /// [`cedar_core::PreparedContexts::for_query`]); its `level` is
    /// where the pass's trace events are attributed.
    pub ctx: PolicyContext,
    /// Wait policy family to instantiate.
    pub kind: WaitPolicyKind,
    /// Distribution family the online estimator assumes.
    pub model: Model,
    /// Model-to-wall time mapping.
    pub scale: TimeScale,
    /// Query start on this node; model time is measured from here.
    pub start: Instant,
    /// The aggregator's index within its level (for event attribution).
    pub index: usize,
    /// Global origin ids of the children expected to arrive; an arrival
    /// from any other origin is refused.
    pub expected: Range<usize>,
    /// Watchdog timeout in model units, if speculative retries are on
    /// ([`FaultPlan::watchdog_at`](crate::FaultPlan::watchdog_at)):
    /// when it fires with children still missing, they are re-executed
    /// (exactly once) by the caller's hook, or by a timeline's retries.
    pub watchdog: Option<f64>,
    /// Decision trace to record the pass's timeline into; attaching one
    /// runs the policy in explain mode.
    pub trace: Option<Arc<QueryTrace>>,
    /// Where each arrival handler's latency is recorded.
    pub metrics: Option<Arc<RuntimeMetrics>>,
    /// Where deliveries, refusals, retries and censorings are booked.
    /// Without one nothing is censored: right-censoring exists for the
    /// refit path the ledger feeds.
    pub ledger: Option<Arc<Ledger>>,
}

/// What one aggregation pass collected.
#[derive(Debug, Clone, Copy)]
pub struct PassOutcome {
    /// Process outputs aggregated before departure.
    pub payload: usize,
    /// Aggregated value over those outputs.
    pub value: f64,
    /// Distinct children that arrived in time.
    pub received: usize,
    /// Departure time in model units.
    pub departed_at: f64,
}

/// Where a pass hears its children from. A timeline takes no hook, so
/// by default its hook type is a plain function.
pub(crate) enum Children<W = fn(&[usize]) -> Vec<usize>> {
    /// A channel, with the hook that re-executes the children the
    /// watchdog finds missing however the caller can and returns the
    /// origins it launched. The pass ends once every sender is gone.
    Channel(mpsc::Receiver<Arrival>, W),
    /// A bottom aggregator's own leaves, which carry their retries. The
    /// pass ends once they are spent and no watchdog is pending, where
    /// the leaves' channel would have closed.
    Timeline(Timeline),
}

/// Runs Pseudocode 1 over a channel of arrivals: feed each arrival and
/// each due wake to the aggregator's [`AggregatorState`], and book what
/// it reports. The machine collects, lets the policy revise the timer
/// and departs on timer expiry or full collection; a closed channel
/// ends the pass too. Children missing when the watchdog fires are
/// handed to `on_watchdog`, which re-executes them however the caller
/// can and returns the origins it did launch; children missing at
/// departure are right-censored in the ledger.
pub async fn run_pass(
    cfg: PassConfig,
    rx: mpsc::Receiver<Arrival>,
    on_watchdog: impl FnMut(&[usize]) -> Vec<usize> + Send,
) -> PassOutcome {
    walk(cfg, &mut Children::Channel(rx, on_watchdog)).await
}

/// [`run_pass`] over either kind of `children`. A due timeline entry,
/// like a queued message, goes before a due wake; a timeline pass never
/// awaits, so departs ahead of the clock.
pub(crate) async fn walk<W>(cfg: PassConfig, children: &mut Children<W>) -> PassOutcome
where
    W: FnMut(&[usize]) -> Vec<usize> + Send,
{
    let PassConfig {
        ctx,
        kind,
        model,
        scale,
        start,
        index,
        expected,
        watchdog,
        trace,
        metrics,
        ledger,
    } = cfg;
    let (level, ledger, trace) = (ctx.level, ledger.as_deref(), trace.as_deref());
    let record = |at: f64, event: TraceEventKind| {
        if let Some(t) = &trace {
            t.record(at, level, index, event);
        }
    };
    // Only the bottom stage feeds the refit path — a missing aggregator
    // is absorbed by the stage above, not re-learned, and a delivered
    // one books its own duration when it ships.
    let refit_log = ledger.filter(|_| level == 1);
    let policy = kind.instantiate(ctx.fanout, model);
    let mut state = AggregatorState::for_children(policy, ctx, expected, watchdog);
    state.set_explain(trace.is_some());
    let w0 = state.start();
    record(0.0, TraceEventKind::InitialWait { wait: w0 });
    let mut prev_detail: Option<DecisionDetail> = None;
    let mut watchdog_pending = watchdog.is_some();
    // A channel pass's one timer, re-armed in place each turn (a fresh one
    // per arrival would pay a registration and a cancel); a timeline arms none.
    let mut sleep = std::pin::pin!(tokio::time::sleep_until(start + scale.to_wall(w0)));
    // The instant the last turn reached: the clock's, or a timeline's.
    let mut now = start;
    loop {
        // The machine's next wake is whichever of its timer and watchdog
        // is earlier; it tells the two apart when the wake comes.
        let wake = state.next_wake();
        let due = start + scale.to_wall(wake);
        let msg = match children {
            Children::Channel(rx, _) => {
                sleep.as_mut().reset(due);
                // The vendored select! has exactly two arms, so the
                // watchdog shares the timer arm.
                let msg = tokio::select! {
                    // The channel arm goes first: a queued result beat
                    // the timer in wall time, so a due timer must not
                    // censor it, nor the watchdog re-execute its child.
                    // The race is real whenever this task is polled late
                    // (a busy host). It also spares the timer
                    // registration when the next arrival is queued.
                    biased;
                    msg = rx.recv() => msg.map(Some),
                    () = sleep.as_mut() => Some(None),
                };
                now = Instant::now();
                // All senders gone: nothing more can arrive.
                let Some(msg) = msg else { break };
                msg
            }
            Children::Timeline(timeline) => {
                if timeline.leaves.is_empty() && !timeline.held_back && !watchdog_pending {
                    // Nothing more can arrive.
                    break;
                }
                // No sleep: step to the next entry or the wake.
                now = timeline.leaves.last().map_or(due, |l| l.at.min(due));
                let leaf = timeline.leaves.pop_if(|l| l.at <= now);
                if let Some(l) = leaf.filter(|l| l.copies > 1) {
                    // A duplicate: its copy lands right behind it.
                    let copies = l.copies - 1;
                    timeline.leaves.push(Leaf { copies, ..l });
                }
                leaf.map(|l| l.arrival)
            }
        };
        let now_model = scale.to_model(now - start);
        let Some(m) = msg else {
            // The turn ended at exactly the wake the machine asked for,
            // so that instant, not the clock's rounding of it, is what it
            // is told.
            let AggregatorAction::Watchdog(missing) = state.on_timer(wake) else {
                record(now_model, TraceEventKind::TimerFired);
                break;
            };
            watchdog_pending = false;
            record(
                now_model,
                TraceEventKind::WatchdogFired {
                    expected: state.ctx().fanout,
                    received: state.received(),
                },
            );
            let launched = match children {
                Children::Channel(_, on_watchdog) => on_watchdog(&missing),
                Children::Timeline(timeline) => timeline.retry(&missing, due, scale),
            };
            for origin in launched {
                if let Some(l) = &ledger {
                    l.retry_launched();
                }
                record(now_model, TraceEventKind::RetryLaunched { origin });
            }
            continue;
        };
        // Time the whole arrival handler (estimate + ε-scan) only when
        // metrics are attached; under a paused test clock the
        // measurement is zero, which is harmless.
        let scan_begun = metrics.as_ref().map(|_| Instant::now());
        let action = state.on_arrival(m.origin, m.payload, m.value, now_model);
        if action == AggregatorAction::Ignored {
            // Injected duplicate, a retry racing its own original, or
            // somebody else's child — counted at most once, and only if
            // ours.
            if let Some(l) = &ledger {
                l.duplicate_suppressed();
            }
            record(
                now_model,
                TraceEventKind::DuplicateSuppressed { origin: m.origin },
            );
            continue;
        }
        if let (Some(met), Some(t0)) = (&metrics, scan_begun) {
            met.wait_scan_seconds.record(t0.elapsed().as_secs_f64());
        }
        if let Some(l) = refit_log {
            l.delivered(0, m.origin, m.duration);
        }
        if m.retry {
            if let Some(l) = &ledger {
                l.retry_delivered();
            }
            record(
                now_model,
                TraceEventKind::RetryDelivered { origin: m.origin },
            );
        }
        record(
            now_model,
            TraceEventKind::Arrival {
                arrival: state.received(),
                origin: m.origin,
                retry: m.retry,
            },
        );
        if trace.is_some() {
            // One Estimate + Rearm pair per *new* decision; straw-man
            // policies never revise, so they only ever log their initial
            // wait.
            let detail = state.last_detail();
            if detail != prev_detail {
                if let Some(d) = detail {
                    record(
                        now_model,
                        TraceEventKind::Estimate {
                            mu: d.mu,
                            sigma: d.sigma,
                            samples: d.samples,
                        },
                    );
                    record(
                        now_model,
                        TraceEventKind::Rearm {
                            wait: d.wait,
                            expected_quality: d.expected_quality,
                            gain: d.gain,
                            loss: d.loss,
                        },
                    );
                }
                prev_detail = detail;
            }
        }
        if action == AggregatorAction::Depart {
            break;
        }
    }
    let departed_at = scale.to_model(now - start);
    // Children missing at departure are right-censored at the departure
    // time: all we know is their duration exceeds it.
    if let Some(l) = refit_log {
        for origin in state.missing() {
            l.censored(0, origin, departed_at);
            record(departed_at, TraceEventKind::Censored { origin });
        }
    }
    let received = state.received();
    record(
        departed_at,
        TraceEventKind::Departed {
            // Short of a full collection the pass left on a timer: the
            // policy's, a revised wait already in the past, or — with
            // every sender gone — one it no longer had to wait out.
            reason: if state.collected_all() {
                ShipReason::AllArrived
            } else {
                ShipReason::TimerExpired
            },
            received,
            expected: state.ctx().fanout,
        },
    );
    PassOutcome {
        payload: state.payload(),
        value: state.value(),
        received,
        departed_at,
    }
}

/// What the root gathered by the deadline.
#[derive(Debug, Clone)]
pub struct Gathered {
    /// Process outputs included.
    pub included: usize,
    /// Distinct top-level results counted.
    pub arrivals: usize,
    /// Their aggregated value.
    pub value_sum: f64,
    /// `DeadlineExpired` when the deadline ended the gather (or was due
    /// by the time the queue behind the last counted origin was empty, or
    /// every sender was found gone), `AllArrived` when every expected
    /// origin was counted or every sender was gone first.
    pub reason: ShipReason,
    /// The expected origins not counted, ascending.
    pub missing: Vec<usize>,
}

/// The root's terminal loop: count each top-level result from the
/// `expected` origins once, until all are counted, the deadline passes
/// or every sender is gone. Channel first, like [`run_pass`]: a result
/// already queued when the deadline comes due got here in time. Refused
/// arrivals are booked into `ledger` and handed to `record`, as are
/// counted ones.
///
/// `promised`, when given, counts the results the senders have shipped
/// or will ship by the deadline, each counted before it is sent; no
/// other result may be sent. Past the deadline the gather still waits
/// for those, so a result is counted by when it shipped, not by which
/// of two tasks the host woke at once runs first.
pub async fn gather(
    mut rx: mpsc::Receiver<Arrival>,
    deadline: Instant,
    expected: Range<usize>,
    promised: Option<&AtomicUsize>,
    ledger: Option<&Ledger>,
    record: impl Fn(TraceEventKind),
) -> Gathered {
    let total = expected.len();
    let mut seen = Seen::new(expected);
    let mut expiry = std::pin::pin!(tokio::time::sleep_until(deadline));
    let (mut included, mut arrivals, mut value_sum) = (0, 0, 0.0);
    // Results heard so far, and whether the deadline has come.
    let (mut heard, mut expired) = (0, false);
    let reason = loop {
        let msg = if arrivals < total && !expired {
            tokio::select! {
                biased;
                msg = rx.recv() => msg,
                () = expiry.as_mut() => {
                    expired = true;
                    continue;
                }
            }
        } else if arrivals < total {
            // Past the deadline only promised results are on their way.
            if heard >= promised.map_or(0, |p| p.load(Ordering::Acquire)) {
                break ShipReason::DeadlineExpired;
            }
            rx.recv().await
        } else {
            // Every origin is counted. What is already queued behind the
            // last of them is still looked at (and refused); then the
            // gather ends — on the deadline, if that is due too.
            match rx.try_recv() {
                Ok(m) => Some(m),
                Err(_) if Instant::now() >= deadline => break ShipReason::DeadlineExpired,
                Err(_) => break ShipReason::AllArrived,
            }
        };
        heard += usize::from(msg.is_some());
        match msg {
            Some(m) if seen.insert(m.origin) => {
                included += m.payload;
                arrivals += 1;
                value_sum += m.value;
                record(TraceEventKind::RootArrival {
                    origin: m.origin,
                    weight: m.payload,
                });
            }
            Some(m) => {
                if let Some(l) = ledger {
                    l.duplicate_suppressed();
                }
                record(TraceEventKind::DuplicateSuppressed { origin: m.origin });
            }
            // Every sender is gone. Found so once the deadline is due,
            // they may have gone after it: the gather ends on the
            // deadline, as with an empty queue behind the last origin.
            None if Instant::now() >= deadline => break ShipReason::DeadlineExpired,
            None => break ShipReason::AllArrived,
        }
    };
    let missing = seen.missing();
    Gathered {
        included,
        arrivals,
        value_sum,
        reason,
        missing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_core::profile::ProfileConfig;
    use cedar_core::{PreparedContexts, StageSpec, TreeSpec};
    use cedar_distrib::LogNormal;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// A pass expecting children `4..4 + fanout`, with a ledger and a
    /// trace attached (reachable through the returned config).
    fn config(fanout: usize, kind: WaitPolicyKind, deadline: f64) -> PassConfig {
        let tree = TreeSpec::two_level(
            StageSpec::new(LogNormal::new(1.0, 0.6).unwrap(), fanout),
            StageSpec::new(LogNormal::new(1.0, 0.4).unwrap(), 2),
        );
        let prepared = PreparedContexts::new(
            &tree,
            deadline,
            kind,
            Model::LogNormal,
            64,
            &ProfileConfig::default(),
        );
        PassConfig {
            ctx: prepared.for_query(&tree).remove(0),
            kind,
            model: Model::LogNormal,
            scale: TimeScale::new(Duration::from_micros(50)),
            start: Instant::now(),
            index: 3,
            expected: 4..4 + fanout,
            watchdog: None,
            trace: Some(Arc::new(QueryTrace::new())),
            metrics: None,
            ledger: Some(Arc::new(Ledger::new(1))),
        }
    }

    fn arrival(origin: usize) -> Arrival {
        Arrival {
            payload: 1,
            value: 1.0,
            origin,
            duration: 2.0,
            retry: false,
        }
    }

    /// A channel with `origins` already queued, in order.
    fn queued(origins: &[usize]) -> (mpsc::Sender<Arrival>, mpsc::Receiver<Arrival>) {
        let (tx, rx) = mpsc::channel(16);
        for &origin in origins {
            tx.try_send(arrival(origin)).unwrap();
        }
        (tx, rx)
    }

    #[tokio::test(start_paused = true)]
    async fn departs_early_when_every_child_arrives() {
        let cfg = config(4, WaitPolicyKind::Cedar, 400.0);
        let (ledger, trace) = (cfg.ledger.clone().unwrap(), cfg.trace.clone().unwrap());
        let (_tx, rx) = queued(&[4, 5, 6, 7]);
        let outcome = run_pass(cfg, rx, |_| Vec::new()).await;
        assert_eq!(outcome.payload, 4);
        assert_eq!(outcome.received, 4);
        assert!((outcome.value - 4.0).abs() < 1e-12);
        let (report, delivered, censored) = ledger.finish();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(delivered[0], vec![(4, 2.0), (5, 2.0), (6, 2.0), (7, 2.0)]);
        assert!(censored[0].is_empty());
        assert!(matches!(
            trace.events().last().map(|e| &e.kind),
            Some(TraceEventKind::Departed {
                reason: ShipReason::AllArrived,
                received: 4,
                expected: 4,
            })
        ));
    }

    #[tokio::test(start_paused = true)]
    async fn censors_missing_children_and_suppresses_duplicates() {
        let cfg = config(4, WaitPolicyKind::Cedar, 60.0);
        let (ledger, trace) = (cfg.ledger.clone().unwrap(), cfg.trace.clone().unwrap());
        // Children 4 and 5 arrive (5 twice); 6 and 7 never do, and the
        // channel closes under the pass.
        let (tx, rx) = queued(&[4, 5, 5]);
        drop(tx);
        let outcome = run_pass(cfg, rx, |_| Vec::new()).await;
        assert_eq!(outcome.payload, 2);
        let (report, _, censored) = ledger.finish();
        assert_eq!(report.duplicates_suppressed, 1);
        assert_eq!(
            censored[0],
            vec![(6, outcome.departed_at), (7, outcome.departed_at)]
        );
        // The trace tells the same story, attributed to this aggregator,
        // and a closed channel with children missing is not a full
        // collection: censorings first, the departure last.
        assert_eq!(report, trace.summary().failures);
        assert_eq!(trace.summary().arrivals, 2);
        let events = trace.events();
        assert!(
            events.iter().all(|e| e.level == 1 && e.index == 3),
            "{events:?}"
        );
        assert!(matches!(
            events.first().map(|e| &e.kind),
            Some(TraceEventKind::InitialWait { .. })
        ));
        let tail: Vec<_> = events[events.len() - 3..].iter().map(|e| &e.kind).collect();
        assert!(
            matches!(
                tail[..],
                [
                    TraceEventKind::Censored { origin: 6 },
                    TraceEventKind::Censored { origin: 7 },
                    TraceEventKind::Departed {
                        reason: ShipReason::TimerExpired,
                        received: 2,
                        expected: 4,
                    },
                ]
            ),
            "{tail:?}"
        );
    }

    #[tokio::test(start_paused = true)]
    async fn a_closed_channel_ends_the_pass_before_its_watchdog() {
        // A mesh pass whose route is gone: nothing more can arrive, so
        // the pass must not sleep on to its watchdog and launch retries.
        let mut cfg = config(4, WaitPolicyKind::FixedWait(100.0), 400.0);
        cfg.watchdog = Some(50.0);
        let (tx, rx) = queued(&[4]);
        drop(tx);
        let outcome = run_pass(cfg, rx, |_| panic!("no retry once every sender is gone")).await;
        assert_eq!((outcome.received, outcome.departed_at), (1, 0.0));
    }

    #[tokio::test(start_paused = true)]
    async fn refuses_arrivals_that_are_not_this_aggregators_children() {
        let cfg = config(4, WaitPolicyKind::Cedar, 400.0);
        let (ledger, trace) = (cfg.ledger.clone().unwrap(), cfg.trace.clone().unwrap());
        // Four arrivals for a fan-in of four — but origins 3 and 8 sit
        // just below and just past `expected`, and 1000 nowhere near.
        let (tx, rx) = queued(&[3, 4, 8, 1000, 5]);
        drop(tx);
        let outcome = run_pass(cfg, rx, |_| Vec::new()).await;
        assert_eq!(outcome.payload, 2, "only children 4 and 5 count");
        assert_eq!(outcome.received, 2);
        let (report, delivered, censored) = ledger.finish();
        assert_eq!(report.duplicates_suppressed, 3);
        assert_eq!(delivered[0], vec![(4, 2.0), (5, 2.0)]);
        assert_eq!(censored[0].len(), 2, "6 and 7 are still missing");
        assert_eq!(report, trace.summary().failures);
        // Refusals did not fill the fan-in: no early departure.
        assert!(matches!(
            trace.events().last().map(|e| &e.kind),
            Some(TraceEventKind::Departed {
                reason: ShipReason::TimerExpired,
                ..
            })
        ));
    }

    #[tokio::test(start_paused = true)]
    async fn queued_arrivals_beat_a_timer_that_is_already_due() {
        // FixedWait(0): the timer is due at the very first poll. What is
        // already in the queue got here first and must be looked at
        // first — a timer-first loop departs with nothing.
        let cfg = config(4, WaitPolicyKind::FixedWait(0.0), 400.0);
        let (_tx, rx) = queued(&[4, 5, 6, 7]);
        let outcome = run_pass(cfg, rx, |_| Vec::new()).await;
        assert!(outcome.payload >= 1, "{outcome:?}");

        let cfg = config(1, WaitPolicyKind::FixedWait(0.0), 400.0);
        let trace = cfg.trace.clone().unwrap();
        let (_tx, rx) = queued(&[4]);
        let outcome = run_pass(cfg, rx, |_| Vec::new()).await;
        assert_eq!(outcome.payload, 1);
        assert!(matches!(
            trace.events().last().map(|e| &e.kind),
            Some(TraceEventKind::Departed {
                reason: ShipReason::AllArrived,
                ..
            })
        ));
    }

    /// A timeline of `(ms after start, origin, copies)` leaves.
    fn timeline(start: Instant, leaves: &[(u64, usize, usize)], held_back: bool) -> Children {
        let leaves = leaves.iter().map(|&(ms, origin, copies)| Leaf {
            at: start + Duration::from_millis(ms),
            arrival: arrival(origin),
            copies,
        });
        Children::Timeline(Timeline::new(leaves.collect(), held_back, None))
    }

    #[tokio::test(start_paused = true)]
    async fn due_timeline_entries_beat_a_timer_that_is_already_due() {
        // FixedWait(0): the timer is due at the very first poll, and so
        // is the one leaf on the timeline. The leaf got here first.
        let cfg = config(1, WaitPolicyKind::FixedWait(0.0), 400.0);
        let trace = cfg.trace.clone().unwrap();
        let mut leaves = timeline(cfg.start, &[(0, 4, 1)], true);
        let outcome = walk(cfg, &mut leaves).await;
        assert_eq!(outcome.payload, 1);
        assert!(matches!(
            trace.events().last().map(|e| &e.kind),
            Some(TraceEventKind::Departed {
                reason: ShipReason::AllArrived,
                ..
            })
        ));
    }

    #[tokio::test(start_paused = true)]
    async fn a_spent_timeline_ends_the_pass_unless_a_leaf_is_held_back() {
        // A fixed wait of 100 units (5 ms). Child 4 lands at 1 ms and 5
        // at 2 ms twice; 6 and 7 never enter.
        let leaves = [(1, 4, 1), (2, 5, 2)];
        for held_back in [false, true] {
            let cfg = config(4, WaitPolicyKind::FixedWait(100.0), 400.0);
            let (ledger, trace) = (cfg.ledger.clone().unwrap(), cfg.trace.clone().unwrap());
            let mut leaves = timeline(cfg.start, &leaves, held_back);
            let outcome = walk(cfg, &mut leaves).await;
            // Spent at 2 ms, as a channel would close behind its last
            // sender; with 6 and 7 still on their way, on the timer at
            // 5 ms.
            let left = if held_back { 100.0 } else { 40.0 };
            assert_eq!((outcome.received, outcome.departed_at), (2, left));
            let (report, _, censored) = ledger.finish();
            assert_eq!(report.duplicates_suppressed, 1);
            assert_eq!(censored[0], vec![(6, left), (7, left)]);
            assert_eq!(report, trace.summary().failures);
        }
    }

    #[tokio::test(start_paused = true)]
    async fn root_counts_results_queued_before_a_deadline_already_past() {
        // The deadline is due at the very first poll; what is already in
        // the queue got here first and counts — once per origin, and only
        // from the top level.
        let ledger = Ledger::new(1);
        let (_tx, rx) = queued(&[4, 5, 5, 9]);
        let got = gather(rx, Instant::now(), 4..6, None, Some(&ledger), |_| {}).await;
        assert_eq!((got.arrivals, got.included), (2, 2));
        assert!((got.value_sum - 2.0).abs() < 1e-12);
        assert_eq!(got.reason, ShipReason::DeadlineExpired);
        assert_eq!(ledger.finish().0.duplicates_suppressed, 2);

        // Every sender found gone once the deadline is due: they may
        // have gone after it, so the deadline ended the gather.
        let (tx, rx) = queued(&[4]);
        drop(tx);
        let got = gather(rx, Instant::now(), 4..6, None, None, |_| {}).await;
        assert_eq!((got.arrivals, got.reason), (1, ShipReason::DeadlineExpired));

        // Every sender gone before the deadline: a full gather.
        let (tx, rx) = queued(&[4]);
        drop(tx);
        let later = Instant::now() + Duration::from_secs(1);
        let got = gather(rx, later, 4..6, None, None, |_| {}).await;
        assert_eq!((got.arrivals, got.reason), (1, ShipReason::AllArrived));
    }

    #[tokio::test(start_paused = true)]
    async fn root_waits_past_its_deadline_for_promised_results() {
        // A result sent 1 ms past the deadline, as when the host runs its
        // sender late, counts if it was promised by the deadline; if not,
        // the gather ends on the deadline without it.
        for promise in [1, 0] {
            let begun = Instant::now();
            let (tx, rx) = mpsc::channel(1);
            let late = tokio::spawn(async move {
                tokio::time::sleep(Duration::from_millis(2)).await;
                let _ = tx.send(arrival(4)).await;
            });
            let promised = AtomicUsize::new(promise);
            let deadline = begun + Duration::from_millis(1);
            let got = gather(rx, deadline, 4..6, Some(&promised), None, |_| {}).await;
            assert_eq!(got.arrivals, promise);
            assert_eq!(got.reason, ShipReason::DeadlineExpired);
            let ended = Duration::from_millis(1 + promise as u64);
            assert_eq!(begun.elapsed(), ended);
            late.await.unwrap();
        }
    }

    #[tokio::test(start_paused = true)]
    async fn watchdog_reports_missing_children_once() {
        let mut cfg = config(4, WaitPolicyKind::Cedar, 200.0);
        cfg.watchdog = Some(0.5);
        let (ledger, trace) = (cfg.ledger.clone().unwrap(), cfg.trace.clone().unwrap());
        let (tx, rx) = queued(&[4]);
        let fired = AtomicUsize::new(0);
        // The watchdog fires almost immediately; a "retry" for one
        // missing child is delivered when it does, the other two are
        // reported as not launched.
        let mut retry_tx = Some(tx);
        let outcome = run_pass(cfg, rx, |missing| {
            fired.fetch_add(1, Ordering::SeqCst);
            assert_eq!(missing, &[5, 6, 7]);
            let tx = retry_tx.take().expect("fires once");
            tx.try_send(Arrival {
                retry: true,
                ..arrival(5)
            })
            .unwrap();
            vec![5]
        })
        .await;
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(outcome.received, 2);
        let (report, _, censored) = ledger.finish();
        assert_eq!(report.retries_launched, 1);
        assert_eq!(report.retries_delivered, 1);
        assert_eq!(censored[0].len(), 2);
        assert_eq!(report, trace.summary().failures);
    }

    #[tokio::test(start_paused = true)]
    async fn root_leaves_once_every_expected_origin_is_counted() {
        // The sender stays alive, as a mesh root's route does: only the
        // count can end the gather before the deadline, a second away.
        let begun = Instant::now();
        let (_tx, rx) = queued(&[4, 5]);
        let got = gather(rx, begun + Duration::from_secs(1), 4..6, None, None, |_| {}).await;
        assert_eq!((got.arrivals, got.reason), (2, ShipReason::AllArrived));
        assert_eq!(begun.elapsed(), Duration::ZERO);
    }

    #[tokio::test(start_paused = true)]
    async fn root_names_the_origins_it_did_not_count() {
        let (tx, rx) = queued(&[5, 5, 9]);
        drop(tx);
        let later = Instant::now() + Duration::from_secs(1);
        let got = gather(rx, later, 4..8, None, None, |_| {}).await;
        assert_eq!(got.missing, vec![4, 6, 7]);
    }
}
