//! Fault injection ("chaos") for the tokio engine, and the bookkeeping
//! the failure-handling logic reports back.
//!
//! The paper's whole premise is maximizing response quality *under
//! performance variations* — and a deployment's variations include tasks
//! that crash, hang, straggle, or lose their messages, not just slow
//! samples from a well-behaved distribution. A [`FaultPlan`] makes those
//! misbehaviors injectable at each task's send, **deterministically**:
//! every (stage, task index) pair derives its fate from the plan's seed
//! alone, independent of task scheduling, so a seeded run is
//! bit-reproducible and a failing chaos test can be replayed exactly.
//! Two functions carry the whole rule, for the in-process engine and the
//! mesh alike: [`FaultPlan::send`] says when a task's result is sent and
//! how many copies go, and [`FaultPlan::book`] books every planned fault
//! at the root when the query starts.
//!
//! The engine's reactions (all opt-in, armed only when a plan is
//! installed) are:
//!
//! - a **watchdog** per bottom-level aggregator, armed at a configurable
//!   quantile of the learned arrival distribution ([`RecoveryPolicy`]);
//! - one **speculative retry** per missing worker when the watchdog
//!   fires, with duplicate-arrival suppression at the aggregator;
//! - **censoring**: workers that never arrive are reported as
//!   right-censored observations (censored at the aggregator's departure
//!   time) so the service's online refit is not biased toward fast
//!   completions — see `cedar_estimate::censored`.
//!
//! Everything observable is summarized per query in a [`FailureReport`].

use cedar_core::LockExt;
use cedar_distrib::ContinuousDist;
use cedar_telemetry::{QueryTrace, TraceEventKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};

pub use cedar_telemetry::FailureReport;

/// What a fault does to the task it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FaultKind {
    /// The task does its work but dies before shipping the result.
    CrashBeforeSend,
    /// The task never finishes: it sleeps past the deadline and exits
    /// without sending (a lost worker, a wedged aggregator).
    Hang,
    /// The task straggles: its duration is inflated by `factor`.
    Straggle {
        /// Multiplier applied to the sampled duration (> 1 slows down).
        factor: f64,
    },
    /// The work completes but the upstream message is lost at the
    /// channel boundary.
    DropMessage,
    /// The upstream message is delivered twice (e.g. an at-least-once
    /// transport retrying a send that actually arrived).
    DuplicateMessage,
}

impl FaultKind {
    /// The telemetry classification of this fault (collapses the
    /// straggle factor away).
    pub fn class(&self) -> cedar_telemetry::FaultClass {
        match self {
            Self::CrashBeforeSend => cedar_telemetry::FaultClass::Crash,
            Self::Hang => cedar_telemetry::FaultClass::Hang,
            Self::Straggle { .. } => cedar_telemetry::FaultClass::Straggle,
            Self::DropMessage => cedar_telemetry::FaultClass::Drop,
            Self::DuplicateMessage => cedar_telemetry::FaultClass::Duplicate,
        }
    }
}

/// Per-task fault probabilities; the fates are mutually exclusive and
/// drawn once per task.
///
/// Probabilities are clamped to `[0, 1]` at draw time; if they sum to
/// more than 1 the earlier fields win (crash, then hang, then straggle,
/// then drop, then duplicate).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Probability of [`FaultKind::CrashBeforeSend`].
    pub crash: f64,
    /// Probability of [`FaultKind::Hang`].
    pub hang: f64,
    /// Probability of [`FaultKind::Straggle`].
    pub straggle: f64,
    /// Duration multiplier for struck stragglers.
    pub straggle_factor: f64,
    /// Probability of [`FaultKind::DropMessage`].
    pub drop: f64,
    /// Probability of [`FaultKind::DuplicateMessage`].
    pub duplicate: f64,
    /// When `true`, only leaf workers (stage 0) are eligible;
    /// aggregators run clean.
    pub workers_only: bool,
}

impl FaultSpec {
    /// No faults at all (useful as a base to build on).
    pub fn none() -> Self {
        Self {
            crash: 0.0,
            hang: 0.0,
            straggle: 0.0,
            straggle_factor: 4.0,
            drop: 0.0,
            duplicate: 0.0,
            workers_only: true,
        }
    }

    /// Worker crashes only, with probability `p` each.
    pub fn crashes(p: f64) -> Self {
        Self {
            crash: p,
            ..Self::none()
        }
    }

    /// Worker stragglers only: probability `p`, duration times `factor`.
    pub fn stragglers(p: f64, factor: f64) -> Self {
        Self {
            straggle: p,
            straggle_factor: factor,
            ..Self::none()
        }
    }

    /// A representative mix at total rate `p`: 40% crashes, 20% hangs,
    /// 20% stragglers (4x), 10% drops, 10% duplicates.
    pub fn mixed(p: f64) -> Self {
        Self {
            crash: 0.4 * p,
            hang: 0.2 * p,
            straggle: 0.2 * p,
            straggle_factor: 4.0,
            drop: 0.1 * p,
            duplicate: 0.1 * p,
            workers_only: true,
        }
    }

    /// Total per-task fault probability (clamped to 1).
    pub fn total_rate(&self) -> f64 {
        (self.crash.max(0.0)
            + self.hang.max(0.0)
            + self.straggle.max(0.0)
            + self.drop.max(0.0)
            + self.duplicate.max(0.0))
        .min(1.0)
    }
}

/// How the engine *reacts* to missing arrivals when a fault plan is
/// installed (no-op on clean runs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// The per-stage watchdog fires at this quantile of the learned
    /// (prior) arrival distribution, clamped below the deadline. A
    /// worker that has not arrived by then is presumed crashed or hung.
    pub watchdog_quantile: f64,
    /// Launch one speculative retry per missing worker when the watchdog
    /// fires. Exactly once — a retry is never itself retried, and its
    /// arrival is suppressed as a duplicate if the original shows up
    /// after all.
    pub speculative_retry: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            watchdog_quantile: 0.99,
            speculative_retry: true,
        }
    }
}

/// A seeded, deterministic, serializable chaos schedule.
///
/// The fate of the task at `(level, index)` is a pure function of
/// `(seed, level, index)` — scheduling, thread interleaving and wall
/// clock never enter into it, so the same plan replays the same faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
    recovery: RecoveryPolicy,
}

/// SplitMix64 finalizer: decorrelates per-task streams from one seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Creates a plan with the default [`RecoveryPolicy`].
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        Self {
            seed,
            spec,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Replaces the recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The injection probabilities.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The reaction knobs.
    pub fn recovery(&self) -> &RecoveryPolicy {
        &self.recovery
    }

    /// The fate of the task at `(level, index)`; `level` 0 is the leaf
    /// worker stage, `level >= 1` the aggregator stages. Deterministic in
    /// the plan alone.
    pub fn fault_for(&self, level: usize, index: usize) -> Option<FaultKind> {
        if self.spec.workers_only && level > 0 {
            return None;
        }
        let stream =
            splitmix64(self.seed ^ splitmix64((level as u64) << 32 | (index as u64 & 0xFFFF_FFFF)));
        let mut rng = StdRng::seed_from_u64(stream);
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (p, kind) in [
            (self.spec.crash, FaultKind::CrashBeforeSend),
            (self.spec.hang, FaultKind::Hang),
            (
                self.spec.straggle,
                FaultKind::Straggle {
                    factor: self.spec.straggle_factor.max(1.0),
                },
            ),
            (self.spec.drop, FaultKind::DropMessage),
            (self.spec.duplicate, FaultKind::DuplicateMessage),
        ] {
            acc += p.clamp(0.0, 1.0);
            if u < acc {
                return Some(kind);
            }
        }
        None
    }

    /// When a bottom-level aggregator's watchdog fires, in model units
    /// from query start; `None` when speculative retry is off. It sits
    /// at a quantile of the *learned* leaf distribution `leaves`: beyond
    /// it, a missing worker is presumed dead rather than slow. Clamped
    /// to the deadline — retrying later is pointless.
    pub fn watchdog_at(&self, leaves: &dyn ContinuousDist, deadline: f64) -> Option<f64> {
        self.recovery.speculative_retry.then(|| {
            leaves
                .quantile(self.recovery.watchdog_quantile.clamp(0.5, 0.9999))
                .clamp(0.0, deadline)
        })
    }

    /// Seed for the speculative-retry duration of worker `index`:
    /// deterministic, and decorrelated from the engine's main sampling
    /// stream and from [`FaultPlan::fault_for`].
    pub fn retry_seed(&self, index: usize) -> u64 {
        splitmix64(self.seed ^ 0x5EED_FA17 ^ splitmix64(index as u64 | 1 << 48))
    }

    /// When the result of the task at `(level, index)`, whose work takes
    /// `duration`, is sent, and how many copies go: the sampled duration
    /// is the work, and the send is the one act a fault can deny. A
    /// straggle stretches the duration and a duplicate sends twice.
    /// `None` when the result is never sent — a crash before the send, a
    /// hang or a drop, which its receiver cannot tell apart.
    pub fn send(&self, level: usize, index: usize, duration: f64) -> Option<(f64, usize)> {
        match self.fault_for(level, index) {
            None => Some((duration, 1)),
            Some(FaultKind::Straggle { factor }) => Some((duration * factor, 1)),
            Some(FaultKind::DuplicateMessage) => Some((duration, 2)),
            Some(FaultKind::CrashBeforeSend | FaultKind::Hang | FaultKind::DropMessage) => None,
        }
    }

    /// Books every fault this plan strikes into `ledger`, when a query
    /// starts on a tree whose level `l` tasks have the global origins
    /// `origins[l]`, in index order. With a `trace` attached, each is
    /// also recorded there at model time 0 against the root, the level
    /// above the top. Faults are a pure function of the plan, so every
    /// deployment books the same ones, whether the struck task ever
    /// runs or not.
    pub fn book(&self, origins: &[Range<usize>], ledger: &Ledger, trace: Option<&QueryTrace>) {
        for (level, tasks) in origins.iter().enumerate() {
            for (index, origin) in tasks.clone().enumerate() {
                let Some(kind) = self.fault_for(level, index) else {
                    continue;
                };
                ledger.injected(kind);
                if let Some(t) = trace {
                    let event = TraceEventKind::FaultInjected {
                        fault: kind.class(),
                        origin,
                    };
                    t.record(0.0, origins.len(), 0, event);
                }
            }
        }
    }

    /// Folds the faults this plan will inject across `indices` of
    /// `level` into `report`. Because injection is a pure function of
    /// `(seed, level, index)`, any process holding the plan can account
    /// for faults scheduled in another process without hearing from it:
    /// summed over every level, this is what [`FaultPlan::book`] books.
    pub fn planned_into(&self, level: usize, indices: Range<usize>, report: &mut FailureReport) {
        for kind in indices.filter_map(|index| self.fault_for(level, index)) {
            report.count(kind.class());
        }
    }

    /// Serializes the plan as JSON.
    pub fn to_json(&self) -> String {
        // cedar-lint: allow(L4): FaultPlan is plain data (no maps with non-string keys, no custom Serialize); serde_json cannot fail on it
        serde_json::to_string(self).expect("plan is plain data")
    }

    /// Parses a plan from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("parsing FaultPlan: {e}"))
    }
}

/// The failure ledger of one query (in-process engine) or one
/// aggregation pass (mesh aggregator): the [`FailureReport`] itself,
/// plus the delivered and right-censored durations the refit path
/// learns from. The root books the plan's faults into it when the query
/// starts ([`FaultPlan::book`]), and every task books what then happens
/// to its children as it happens; each at the site that records the
/// decision trace — which is why the report it finishes with equals the
/// trace summary's `failures` exactly.
///
/// One lock covers the report and both logs, and no method holds it
/// past its own return. The logs are keyed by task origin and sorted
/// before being reported, so the output is deterministic even if tasks
/// append in different orders across runs.
#[derive(Debug, Default)]
pub struct Ledger {
    book: Mutex<Book>,
}

/// What a [`Ledger`] guards.
#[derive(Debug, Default)]
struct Book {
    report: FailureReport,
    /// Per stage: `(origin, duration)` of every output actually counted
    /// by its aggregator (stage 0) or shipped upstream (stages >= 1).
    delivered: StageLog,
    /// Per stage: `(origin, threshold)` for inputs right-censored at
    /// their aggregator's departure.
    censored: StageLog,
}

/// What a [`Ledger`] logs per stage: `(origin, model-time)` pairs, one
/// list per stage.
pub type StageLog = Vec<Vec<(usize, f64)>>;

impl Ledger {
    /// An empty ledger for a tree of `stages` stages.
    pub fn new(stages: usize) -> Self {
        Self {
            book: Mutex::new(Book {
                report: FailureReport::default(),
                delivered: vec![Vec::new(); stages],
                censored: vec![Vec::new(); stages],
            }),
        }
    }

    fn book(&self) -> MutexGuard<'_, Book> {
        self.book.lock().unpoisoned()
    }

    /// Books one injected fault — or a real failure charged as one (a
    /// dead mesh worker is a crash per hosted leaf).
    pub fn injected(&self, kind: FaultKind) {
        self.book().report.count(kind.class());
    }

    /// Books one speculative retry launched by a watchdog.
    pub fn retry_launched(&self) {
        self.book().report.retries_launched += 1;
    }

    /// Books one retry whose result was counted.
    pub fn retry_delivered(&self) {
        self.book().report.retries_delivered += 1;
    }

    /// Books one arrival refused because its origin had already been
    /// counted or is not a child of the receiver.
    pub fn duplicate_suppressed(&self) {
        self.book().report.duplicates_suppressed += 1;
    }

    /// Books the realized `duration` of task `origin` of `stage`, whose
    /// output was counted upstream. [`finish`](Self::finish) drains both
    /// logs when the root completes; an aggregator that departs after
    /// that has nobody left to report to, so a record for a stage that
    /// is no longer there is dropped.
    pub fn delivered(&self, stage: usize, origin: usize, duration: f64) {
        if let Some(log) = self.book().delivered.get_mut(stage) {
            log.push((origin, duration));
        }
    }

    /// Books task `origin` of `stage` as right-censored at `threshold`:
    /// still missing when its aggregator departed.
    pub fn censored(&self, stage: usize, origin: usize, threshold: f64) {
        if let Some(log) = self.book().censored.get_mut(stage) {
            log.push((origin, threshold));
        }
    }

    /// Drains the ledger into `(report, delivered, censored)`, both logs
    /// as per-stage `(origin, model-time)` pairs sorted by origin
    /// (deterministic regardless of append order). The report's
    /// `censored_observations` is the number of censored entries.
    pub fn finish(&self) -> (FailureReport, StageLog, StageLog) {
        let (report, mut delivered, mut censored) = {
            let mut book = self.book();
            (
                book.report,
                std::mem::take(&mut book.delivered),
                std::mem::take(&mut book.censored),
            )
        };
        for stage in delivered.iter_mut().chain(&mut censored) {
            stage.sort_by_key(|&(origin, _)| origin);
        }
        let report = FailureReport {
            censored_observations: censored.iter().map(Vec::len).sum(),
            ..report
        };
        (report, delivered, censored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_for_is_deterministic() {
        let plan = FaultPlan::new(42, FaultSpec::mixed(0.3));
        for level in 0..3 {
            for index in 0..200 {
                assert_eq!(
                    plan.fault_for(level, index),
                    plan.fault_for(level, index),
                    "fate must be a pure function of (seed, level, index)"
                );
            }
        }
        let other = FaultPlan::new(43, FaultSpec::mixed(0.3));
        let same: usize = (0..500)
            .filter(|&i| plan.fault_for(0, i) == other.fault_for(0, i))
            .count();
        assert!(same < 500, "different seeds must differ somewhere");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan::new(7, FaultSpec::crashes(0.1));
        let n = 10_000;
        let crashed = (0..n)
            .filter(|&i| plan.fault_for(0, i) == Some(FaultKind::CrashBeforeSend))
            .count();
        let rate = crashed as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "crash rate {rate}");
    }

    #[test]
    fn workers_only_spares_aggregators() {
        let plan = FaultPlan::new(5, FaultSpec::crashes(1.0));
        assert!(plan.fault_for(0, 3).is_some());
        assert!(plan.fault_for(1, 3).is_none());
        let mut spec = FaultSpec::crashes(1.0);
        spec.workers_only = false;
        let plan = FaultPlan::new(5, spec);
        assert!(plan.fault_for(1, 3).is_some());
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::new(99, FaultSpec::mixed(0.2)).with_recovery(RecoveryPolicy {
            watchdog_quantile: 0.95,
            speculative_retry: false,
        });
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn spec_priorities_cap_at_one() {
        let spec = FaultSpec {
            crash: 0.9,
            hang: 0.9,
            ..FaultSpec::none()
        };
        assert_eq!(spec.total_rate(), 1.0);
        let plan = FaultPlan::new(1, spec);
        // Everything is struck, and crash (listed first) dominates.
        let crashes = (0..300)
            .filter(|&i| plan.fault_for(0, i) == Some(FaultKind::CrashBeforeSend))
            .count();
        assert!(crashes > 250, "crash priority: {crashes}/300");
    }

    #[test]
    fn ledger_output_is_sorted_and_counted() {
        let log = Ledger::new(2);
        log.delivered(0, 5, 50.0);
        log.delivered(0, 1, 10.0);
        log.censored(0, 3, 30.0);
        log.censored(0, 2, 30.0);
        log.injected(FaultKind::CrashBeforeSend);
        log.injected(FaultKind::Hang);
        log.retry_launched();
        log.duplicate_suppressed();
        let (report, realized, censored) = log.finish();
        assert_eq!(realized[0], vec![(1, 10.0), (5, 50.0)]);
        assert_eq!(censored[0], vec![(2, 30.0), (3, 30.0)]);
        assert_eq!(report.crashed, 1);
        assert_eq!(report.hung, 1);
        assert_eq!(report.retries_launched, 1);
        assert_eq!(report.duplicates_suppressed, 1);
        assert_eq!(report.censored_observations, 2);
        assert_eq!(report.total_injected(), 2);
        assert!(!report.is_clean());
        assert!(FailureReport::default().is_clean());
    }

    #[test]
    fn records_after_finish_are_dropped() {
        // An aggregator that departs after the root has finished still
        // reports its stragglers; the drained log must not be indexed.
        let log = Ledger::new(2);
        log.delivered(0, 0, 1.0);
        let (_, realized, _) = log.finish();
        assert_eq!(realized[0], vec![(0, 1.0)]);
        log.censored(0, 3, 30.0);
        log.delivered(0, 4, 2.0);
        log.censored(1, 0, 30.0);
        let (report, realized, censored) = log.finish();
        assert!(realized.is_empty() && censored.is_empty());
        assert_eq!(report.censored_observations, 0);
    }

    #[test]
    fn planned_counts_match_per_index_injection() {
        let plan = FaultPlan::new(11, FaultSpec::mixed(0.6));
        let mut planned = FailureReport::default();
        plan.planned_into(0, 0..64, &mut planned);
        let by_hand = (0..64).filter_map(|i| plan.fault_for(0, i)).count();
        assert_eq!(planned.total_injected(), by_hand);
        assert!(planned.total_injected() > 0);
        // workers_only plans schedule nothing at aggregator levels.
        let mut upper = FailureReport::default();
        plan.planned_into(1, 0..8, &mut upper);
        assert!(upper.is_clean() || !plan.spec().workers_only);

        // `book` books the same faults, and traces each at query start
        // against the root, by the origin it was handed.
        let (ledger, trace) = (Ledger::new(2), QueryTrace::new());
        plan.book(&[0..64, 64..72], &ledger, Some(&trace));
        assert_eq!(ledger.finish().0, planned);
        let events = trace.events();
        assert_eq!(events.len(), by_hand);
        let origins = (0..64).filter(|&i| plan.fault_for(0, i).is_some());
        for (e, origin) in events.iter().zip(origins) {
            assert_eq!((e.at, e.level, e.index), (0.0, 2, 0));
            let class = plan.fault_for(0, origin).map(|k| k.class());
            assert!(
                matches!(e.kind, TraceEventKind::FaultInjected { fault, origin: o }
                    if Some(fault) == class && o == origin),
                "{e:?}"
            );
        }
    }
}
