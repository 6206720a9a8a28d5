//! Query execution on the tokio runtime: leaves, aggregators and root
//! wired by channels, timers driven by the wall clock.
//!
//! One task per aggregator runs the Pseudocode-1 pass; one more per
//! bottom aggregator ships that aggregator's leaves, each at its sampled
//! completion instant, through [`ship_leaves`] (the mesh worker's
//! shipper too). A leaf that completes after the deadline cannot be
//! counted by anybody, so it is never scheduled: its shipper only keeps
//! the channel open past the deadline, as the leaf itself would have.

use crate::faults::{FailureReport, FaultKind, FaultPlan, Ledger, StageLog};
use crate::metrics::RuntimeMetrics;
use crate::pass::{gather, run_pass, PassConfig};
use crate::scale::TimeScale;
use cedar_core::policy::WaitPolicyKind;
use cedar_core::profile::ProfileConfig;
use cedar_core::setup::PreparedContexts;
use cedar_core::TreeSpec;
use cedar_distrib::ContinuousDist;
use cedar_estimate::Model;
use cedar_telemetry::{QueryTrace, TraceEventKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::future::Future;
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::mpsc;
use tokio::time::Instant;

/// The engine's channel-send boundary type, shared with the mesh's
/// remote child adapter so a partial result decoded off a socket flows
/// through the identical aggregation path as a local one.
use crate::pass::Arrival as PartialResult;

/// Chaos state shared by every task of one query, and where their faults
/// are booked: the query's ledger, and its trace when one is attached,
/// at the same instant.
struct ChaosShared {
    plan: Arc<FaultPlan>,
    ledger: Arc<Ledger>,
    trace: Option<Arc<QueryTrace>>,
    start: Instant,
    scale: TimeScale,
}

impl ChaosShared {
    /// The query's model time now.
    fn now(&self) -> f64 {
        self.scale.to_model(self.start.elapsed())
    }

    /// Books fault `k` striking task `origin`, attributed in the trace to
    /// task `index` of `level` at model time `at`.
    fn book(&self, at: f64, level: usize, index: usize, origin: usize, k: FaultKind) {
        self.ledger.injected(k);
        if let Some(t) = &self.trace {
            t.record(
                at,
                level,
                index,
                TraceEventKind::FaultInjected {
                    fault: k.class(),
                    origin,
                },
            );
        }
    }
}

/// A leaf in a bottom aggregator's shipper: its partial result and the
/// fault that strikes it at the send, if any.
type BottomLeaf = (PartialResult, Option<FaultKind>);

/// Ships each `(instant, origin, item)` by handing `(origin, item)` to
/// `ship` at its instant, in `(instant, origin)` order — the order in
/// which one timer per leaf would fire. Every instant is awaited on one
/// timer, re-armed in place, so a bottom aggregator's leaves (or a mesh
/// worker's) cost one task and one timer registration at a time rather
/// than one each.
///
/// `ship` resolves to whether its receiver still listens. Once it
/// resolves to `false`, the leaves still to come are woken only if
/// `still_due` keeps them — a leaf whose wake does something besides the
/// send — and the rest are dropped unslept. Returns whether the receiver
/// was found gone.
pub async fn ship_leaves<T, F>(
    mut leaves: Vec<(Instant, usize, T)>,
    mut ship: impl FnMut(usize, T) -> F,
    still_due: impl Fn(&T) -> bool,
) -> bool
where
    F: Future<Output = bool>,
{
    leaves.sort_by_key(|&(at, origin, _)| (at, origin));
    let Some(&(first, _, _)) = leaves.first() else {
        return false;
    };
    let mut timer = std::pin::pin!(tokio::time::sleep_until(first));
    let mut heard = true;
    for (at, origin, item) in leaves {
        if !heard && !still_due(&item) {
            continue;
        }
        timer.as_mut().reset(at);
        timer.as_mut().await;
        heard &= ship(origin, item).await;
    }
    !heard
}

/// An aggregator's own fate at its upstream send boundary.
struct AggChaos {
    shared: Arc<ChaosShared>,
    /// The fault striking this aggregator's own send, if any.
    fault: Option<FaultKind>,
    hang_until: Instant,
}

/// Armed by bottom-level aggregators when a fault plan is installed: if
/// the learned-quantile timeout passes with children still missing, each
/// missing worker is re-executed exactly once.
struct Watchdog {
    at: Instant,
    plan: Arc<FaultPlan>,
    /// True stage-0 distribution the re-executed work draws from.
    dist: Arc<dyn ContinuousDist>,
    values: Arc<Vec<f64>>,
    /// Clone of this aggregator's own sender, handed to retry tasks.
    /// Held until the watchdog resolves so the channel cannot close
    /// while a retry might still be launched.
    self_tx: mpsc::Sender<PartialResult>,
}

/// Configuration of one runtime query.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The query's true stage distributions and fan-outs.
    pub tree: TreeSpec,
    /// The population tree the policies learned offline.
    pub priors: TreeSpec,
    /// End-to-end deadline in model units.
    pub deadline: f64,
    /// Model-to-wall time mapping.
    pub scale: TimeScale,
    /// Family assumed by Cedar's online estimator.
    pub model: Model,
    /// ε-scan resolution.
    pub scan_steps: usize,
    /// Quality-profile resolution.
    pub profile: ProfileConfig,
    /// RNG seed for duration sampling.
    pub seed: u64,
    /// Optional fault-injection plan. `None` (the default) runs the
    /// engine exactly as before — the clean path is byte-identical.
    pub faults: Option<Arc<FaultPlan>>,
    /// Optional per-query decision trace. When attached, every
    /// Pseudocode-1 timeline event (arrivals, estimates, re-arms,
    /// watchdog/retry/fault events, ship decisions) is recorded into it
    /// and policies run in explain mode.
    pub trace: Option<Arc<QueryTrace>>,
    /// Optional shared runtime metrics (wait-scan latency, fault and
    /// outcome counters). One instance is typically shared across every
    /// query of a service.
    pub metrics: Option<Arc<RuntimeMetrics>>,
    /// Epoch of the priors snapshot this query planned against (surfaced
    /// in the trace's `QueryStart` event; 0 when priors are static).
    pub priors_epoch: u64,
}

impl RuntimeConfig {
    /// Creates a config with priors equal to the true tree and a
    /// 1 model unit = 1 ms scale.
    pub fn new(tree: TreeSpec, deadline: f64) -> Self {
        Self {
            priors: tree.clone(),
            tree,
            deadline,
            scale: TimeScale::millis(),
            model: Model::LogNormal,
            scan_steps: 300,
            profile: ProfileConfig::default(),
            seed: 0xCEDA2,
            faults: None,
            trace: None,
            metrics: None,
            priors_epoch: 0,
        }
    }

    /// Replaces the prior tree.
    pub fn with_priors(mut self, priors: TreeSpec) -> Self {
        self.priors = priors;
        self
    }

    /// Sets the time scale.
    pub fn with_scale(mut self, scale: TimeScale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the estimator family.
    pub fn with_model(mut self, model: Model) -> Self {
        self.model = model;
        self
    }

    /// Installs a fault-injection plan (and its recovery policy).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Attaches a decision trace (turns on policy explain mode).
    pub fn with_trace(mut self, trace: Arc<QueryTrace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches shared runtime metrics.
    pub fn with_metrics(mut self, metrics: Arc<RuntimeMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Sets the priors epoch surfaced in the trace.
    pub fn with_priors_epoch(mut self, epoch: u64) -> Self {
        self.priors_epoch = epoch;
        self
    }
}

/// What the root collected by the deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOutcome {
    /// Fraction of process outputs included in the response.
    pub quality: f64,
    /// Number of process outputs included.
    pub included_outputs: usize,
    /// Total leaf processes.
    pub total_processes: usize,
    /// Top-level results that made the deadline.
    pub root_arrivals: usize,
    /// Sum of the included workers' partial values (the "answer" of the
    /// aggregation query).
    pub value_sum: f64,
    /// Wall-clock time from the engine's call to the outcome: the set-up
    /// (duration sampling, task spawning) and any overrun past the scaled
    /// deadline included.
    pub wall_elapsed: Duration,
    /// The per-stage durations the engine actually ran with (model
    /// units): `realized_durations[0]` is one entry per leaf process,
    /// `realized_durations[level]` one entry per aggregator at `level`.
    /// These are what an online estimator should refit from — they are
    /// the ground truth of this execution, not a fresh model draw.
    ///
    /// Under a fault plan this holds only the durations that were
    /// actually *observed* upstream (delivered and counted), sorted by
    /// task origin — crashed, hung and dropped tasks are excluded here
    /// and surface in [`RuntimeOutcome::censored_durations`] instead.
    pub realized_durations: Vec<Vec<f64>>,
    /// Per-query fault/recovery summary. [`FailureReport::is_clean`] on
    /// runs without a fault plan.
    pub failures: FailureReport,
    /// Right-censoring thresholds, same shape as `realized_durations`:
    /// `censored_durations[0]` has one entry per leaf worker that never
    /// arrived at a departed aggregator (censored at the departure
    /// time). Feeding these to a censored MLE keeps the online refit
    /// unbiased when crashes thin out the slow tail. Aggregator stages
    /// are never censored (their non-arrival is absorbed by the stage
    /// above); all stages are empty when no fault plan is installed.
    pub censored_durations: Vec<Vec<f64>>,
}

/// Runs one aggregation query; every worker contributes the value `1.0`
/// (so `value_sum == included_outputs as f64`).
pub async fn run_query(cfg: &RuntimeConfig, kind: WaitPolicyKind) -> RuntimeOutcome {
    let n = cfg.tree.total_processes();
    run_query_with_values(cfg, kind, crate::pool::ones(n)).await
}

/// Runs one aggregation query with explicit per-worker partial values
/// (`values[i]` is worker `i`'s contribution; aggregators sum them).
///
/// # Panics
///
/// Panics if `values.len()` differs from the tree's process count or the
/// tree has fewer than two levels (a real partition-aggregate job always
/// has at least one aggregator stage).
pub async fn run_query_with_values(
    cfg: &RuntimeConfig,
    kind: WaitPolicyKind,
    values: Arc<Vec<f64>>,
) -> RuntimeOutcome {
    let prepared = PreparedContexts::new(
        &cfg.priors,
        cfg.deadline,
        kind,
        cfg.model,
        cfg.scan_steps,
        &cfg.profile,
    );
    run_query_prepared(cfg, kind, values, &prepared).await
}

/// Like [`run_query_with_values`], but reuses an already-built
/// [`PreparedContexts`]. Building one is the expensive, query-independent
/// part of setup (quality profiles + offline wait chain over the priors),
/// so callers issuing many queries against the same priors and deadline —
/// notably the aggregation service's profile cache — should build it once
/// and pass it here.
///
/// The deadline clock starts when this is called. Sampling every
/// duration and spawning the tree's tasks are spent inside `D`, and every
/// instant of the query — each leaf's completion, each aggregator's
/// timer, the root's deadline — is anchored on that one start.
///
/// # Panics
///
/// Panics if `values.len()` differs from the tree's process count, the
/// tree has fewer than two levels, or `prepared` was built for a tree
/// shape other than `cfg.tree`'s.
pub async fn run_query_prepared(
    cfg: &RuntimeConfig,
    kind: WaitPolicyKind,
    values: Arc<Vec<f64>>,
    prepared: &PreparedContexts,
) -> RuntimeOutcome {
    let n = cfg.tree.levels();
    assert!(n >= 2, "runtime queries need at least one aggregator level");
    let total_processes = cfg.tree.total_processes();
    assert_eq!(
        values.len(),
        total_processes,
        "one value per leaf process required"
    );

    // The deadline runs from the call: the set-up below is spent inside
    // it, not added on top.
    let start = Instant::now();
    let deadline_instant = start + cfg.scale.to_wall(cfg.deadline);

    // Sample all durations up front (same order as the simulator).
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let process_durations = cfg.tree.stage(0).dist.sample_vec(&mut rng, total_processes);
    let agg_levels = n - 1;
    let own_durations: Vec<Vec<f64>> = (1..=agg_levels)
        .map(|level| {
            let count = cfg.tree.nodes_at(level);
            cfg.tree.stage(level).dist.sample_vec(&mut rng, count)
        })
        .collect();

    let contexts = prepared.for_query(&cfg.tree);

    // The root collector sits above the top aggregator stage, so it
    // reports as level `n`.
    let record_root = |at: f64, kind: TraceEventKind| {
        if let Some(t) = &cfg.trace {
            t.record(at, n, 0, kind);
        }
    };
    record_root(
        0.0,
        TraceEventKind::QueryStart {
            deadline: cfg.deadline,
            total_processes,
            priors_epoch: cfg.priors_epoch,
        },
    );

    // Chaos wiring (None on clean runs; the clean path below is
    // byte-identical to the fault-free engine).
    let chaos = cfg.faults.as_ref().map(|plan| {
        Arc::new(ChaosShared {
            plan: plan.clone(),
            ledger: Arc::new(Ledger::new(n)),
            trace: cfg.trace.clone(),
            start,
            scale: cfg.scale,
        })
    });
    // When a task that will never send releases its channel end: past
    // the deadline, so its silence can never close a channel before the
    // aggregator behind it has timed out.
    let hold_until = deadline_instant + cfg.scale.to_wall(1.0);
    let watchdog = cfg
        .faults
        .as_ref()
        .and_then(|plan| plan.watchdog_at(&*cfg.priors.stage(0).dist, cfg.deadline));

    // Root channel.
    let top_fanout = cfg.tree.stage(agg_levels - 1).fanout.max(1);
    let (root_tx, root_rx) =
        mpsc::channel::<PartialResult>(cfg.tree.nodes_at(agg_levels).max(top_fanout));

    // Build aggregator channels level by level, top-down, so each level
    // knows its parent's senders.
    let mut upper_txs: Vec<mpsc::Sender<PartialResult>> = vec![root_tx];
    let mut level1_txs: Vec<mpsc::Sender<PartialResult>> = Vec::new();
    for level in (1..=agg_levels).rev() {
        let count = cfg.tree.nodes_at(level);
        let fan_in = cfg.tree.stage(level - 1).fanout;
        let parent_fanout = if level == agg_levels {
            // All top-level aggregators share the single root receiver.
            count
        } else {
            cfg.tree.stage(level).fanout
        };
        let mut txs = Vec::with_capacity(count);
        for agg in 0..count {
            let (tx, rx) = mpsc::channel::<PartialResult>(fan_in.max(1));
            let parent_tx = if level == agg_levels {
                upper_txs[0].clone()
            } else {
                upper_txs[agg / parent_fanout.max(1)].clone()
            };
            let child_base = cfg.tree.origin_base(level - 1) + agg * fan_in;
            // Only bottom-level aggregators watch for dead workers.
            let watchdog = watchdog.filter(|_| level == 1);
            let pass = PassConfig {
                ctx: contexts[level - 1].clone(),
                kind,
                model: cfg.model,
                scale: cfg.scale,
                start,
                index: agg,
                expected: child_base..child_base + fan_in,
                watchdog,
                trace: cfg.trace.clone(),
                metrics: cfg.metrics.clone(),
                ledger: chaos.as_ref().map(|c| c.ledger.clone()),
            };
            let retries = chaos.as_ref().zip(watchdog).map(|(c, w)| Watchdog {
                at: start + cfg.scale.to_wall(w),
                plan: c.plan.clone(),
                dist: cfg.tree.stage(0).dist.clone(),
                values: values.clone(),
                self_tx: tx.clone(),
            });
            let agg_chaos = chaos.as_ref().map(|c| AggChaos {
                shared: c.clone(),
                fault: c.plan.fault_for(level, agg),
                hang_until: hold_until,
            });
            // cedar-lint: allow(L10): one task per aggregator of a tree already validated against MAX_STAGES at decode; the loop bound is the tree shape, not raw client input
            tokio::spawn(aggregator_task(
                pass,
                rx,
                parent_tx,
                own_durations[level - 1][agg],
                cfg.tree.origin_base(level) + agg,
                agg_chaos,
                retries,
            ));
            txs.push(tx);
        }
        if level == 1 {
            level1_txs = txs;
        } else {
            upper_txs = txs;
        }
    }

    // Leaves: one shipper per bottom aggregator. Faults strike at the
    // channel-send boundary: the sampled duration is the work, the send
    // is the one act a fault can deny.
    let k1 = cfg.tree.stage(0).fanout;
    for (agg, (durations, tx)) in process_durations.chunks(k1).zip(level1_txs).enumerate() {
        let mut leaves = Vec::with_capacity(durations.len());
        // Hangs and straggles are booked when the shipper starts, for
        // every leaf they strike, whether it is ever sent or not.
        let mut at_start = Vec::new();
        let mut held_back = false;
        for (origin, &dur) in (agg * k1..).zip(durations) {
            let fault = chaos.as_ref().and_then(|c| c.plan.fault_for(0, origin));
            let dur = match fault {
                Some(k @ FaultKind::Straggle { factor }) => {
                    at_start.push((origin, k));
                    dur * factor
                }
                Some(FaultKind::Hang) => {
                    at_start.push((origin, FaultKind::Hang));
                    held_back = true;
                    continue;
                }
                _ => dur,
            };
            let at = start + cfg.scale.to_wall(dur);
            if at > deadline_instant {
                // Nobody can count it, so nothing is slept to for it.
                held_back = true;
                continue;
            }
            let msg = PartialResult {
                payload: 1,
                value: values[origin],
                origin,
                duration: dur,
                retry: false,
            };
            leaves.push((at, origin, (msg, fault)));
        }
        // cedar-lint: allow(L10): one task per bottom aggregator of a tree already validated against MAX_STAGES at decode; the loop bound is the tree shape, not raw client input
        tokio::spawn(bottom_leaves(
            tx,
            leaves,
            chaos.clone(),
            at_start,
            held_back.then_some(hold_until),
        ));
    }
    // Drop our clones so channels close when tasks finish.
    drop(upper_txs);

    // Root: gather the top level's results until the deadline.
    let top_base = cfg.tree.origin_base(agg_levels);
    let top = top_base..top_base + cfg.tree.nodes_at(agg_levels);
    let gathered = gather(
        root_rx,
        deadline_instant,
        top,
        chaos.as_ref().map(|c| &*c.ledger),
        |kind| record_root(cfg.scale.to_model(start.elapsed()), kind),
    )
    .await;

    let (failures, realized_durations, censored_durations) = match &chaos {
        Some(c) => {
            // Sorted by origin; the refit path wants only the durations.
            let (failures, delivered, censored) = c.ledger.finish();
            let durations = |stages: StageLog| -> Vec<Vec<f64>> {
                stages
                    .iter()
                    .map(|stage| stage.iter().map(|&(_, d)| d).collect())
                    .collect()
            };
            (failures, durations(delivered), durations(censored))
        }
        None => {
            let mut realized = Vec::with_capacity(1 + own_durations.len());
            realized.push(process_durations);
            realized.extend(own_durations);
            (FailureReport::default(), realized, vec![Vec::new(); n])
        }
    };

    let outcome = RuntimeOutcome {
        quality: gathered.included as f64 / total_processes.max(1) as f64,
        included_outputs: gathered.included,
        total_processes,
        root_arrivals: gathered.arrivals,
        value_sum: gathered.value_sum,
        wall_elapsed: start.elapsed(),
        realized_durations,
        failures,
        censored_durations,
    };
    record_root(
        cfg.scale.to_model(outcome.wall_elapsed),
        TraceEventKind::QueryEnd {
            quality: outcome.quality,
            included: outcome.included_outputs,
            reason: gathered.reason,
        },
    );
    if let Some(m) = &cfg.metrics {
        m.observe_outcome(&outcome);
    }
    outcome
}

/// One bottom aggregator's leaves: book the faults struck at the start,
/// ship the leaves due by the deadline, then — if any leaf was held
/// back — keep the channel open until `hold_until`, as that leaf would
/// have, so the aggregator still leaves on its own timer.
///
/// A failed send means the aggregator has departed, and nobody can see
/// a send after that. From then on only the leaves whose wake books a
/// fault (a crash before the send, a drop, a duplicate) are woken, each
/// at its own instant, and the channel is not held open.
async fn bottom_leaves(
    tx: mpsc::Sender<PartialResult>,
    leaves: Vec<(Instant, usize, BottomLeaf)>,
    chaos: Option<Arc<ChaosShared>>,
    at_start: Vec<(usize, FaultKind)>,
    hold_until: Option<Instant>,
) {
    // A fault only exists with its chaos wiring, so `chaos` is there
    // whenever one needs booking.
    let book = |origin, k| {
        if let Some(c) = &chaos {
            c.book(c.now(), 0, origin, origin, k);
        }
    };
    for &(origin, k) in &at_start {
        book(origin, k);
    }
    let (tx, book) = (&tx, &book);
    let departed = ship_leaves(
        leaves,
        move |origin, (msg, fault)| async move {
            match fault {
                // The work happened; the result never leaves the host.
                Some(k @ (FaultKind::CrashBeforeSend | FaultKind::DropMessage)) => {
                    book(origin, k);
                    true
                }
                fault => {
                    if let Some(k @ FaultKind::DuplicateMessage) = fault {
                        book(origin, k);
                        let _ = tx.send(msg).await;
                    }
                    // A send error is exactly the "output ignored
                    // upstream" case: the aggregator has departed.
                    tx.send(msg).await.is_ok()
                }
            }
        },
        |(_, fault)| {
            matches!(
                fault,
                Some(
                    FaultKind::CrashBeforeSend
                        | FaultKind::DropMessage
                        | FaultKind::DuplicateMessage
                )
            )
        },
    )
    .await;
    if let Some(at) = hold_until.filter(|_| !departed) {
        tokio::time::sleep_until(at).await;
    }
}

/// One aggregator: run the shared Pseudocode-1 pass over this
/// aggregator's channel, then aggregate (sleep the own duration) and
/// ship upstream.
///
/// With chaos wiring attached the pass's watchdog re-executes each
/// worker still missing at the learned-quantile timeout exactly once,
/// and the aggregator's own upstream send is subject to the fault plan.
async fn aggregator_task(
    pass: PassConfig,
    rx: mpsc::Receiver<PartialResult>,
    parent_tx: mpsc::Sender<PartialResult>,
    own_duration: f64,
    origin: usize,
    chaos: Option<AggChaos>,
    mut watchdog: Option<Watchdog>,
) {
    let scale = pass.scale;
    let (level, index) = (pass.ctx.level, pass.index);
    let out = run_pass(pass, rx, move |missing| {
        // Taking the watchdog releases `self_tx` with this one firing,
        // so the channel can close once workers and retries are done.
        let Some(w) = watchdog.take() else {
            return Vec::new();
        };
        for &id in missing {
            let mut rng = StdRng::seed_from_u64(w.plan.retry_seed(id));
            let dur = w.dist.sample(&mut rng);
            let fire_at = w.at + scale.to_wall(dur);
            let retry_tx = w.self_tx.clone();
            let retry_value = w.values[id];
            // cedar-lint: allow(L10): at most one retry per missing child; `missing` is a subset of the fan-in range fixed by the validated tree
            tokio::spawn(async move {
                tokio::time::sleep_until(fire_at).await;
                let _ = retry_tx
                    .send(PartialResult {
                        payload: 1,
                        value: retry_value,
                        origin: id,
                        duration: dur,
                        retry: true,
                    })
                    .await;
            });
        }
        missing.to_vec()
    })
    .await;
    if out.payload > 0 {
        // Pair the fault with its chaos wiring so each arm gets both
        // without re-asserting the implication.
        let own_fault = chaos.as_ref().and_then(|c| c.fault.map(|k| (k, c)));
        let book = |at: f64, (k, c): (FaultKind, &AggChaos)| {
            c.shared.book(at, level, index, origin, k);
        };
        match own_fault {
            // Died at departure: no aggregation work, no send.
            Some(f @ (FaultKind::CrashBeforeSend, _)) => book(out.departed_at, f),
            Some(f @ (FaultKind::Hang, c)) => {
                book(out.departed_at, f);
                tokio::time::sleep_until(c.hang_until).await;
            }
            own_fault => {
                let own_duration = match own_fault {
                    Some(f @ (FaultKind::Straggle { factor }, _)) => {
                        book(out.departed_at, f);
                        own_duration * factor
                    }
                    _ => own_duration,
                };
                tokio::time::sleep(scale.to_wall(own_duration)).await;
                if let Some(f @ (FaultKind::DropMessage, c)) = own_fault {
                    // Aggregation completed but the result is lost.
                    book(c.shared.now(), f);
                    return;
                }
                if let Some(c) = &chaos {
                    c.shared.ledger.delivered(level, origin, own_duration);
                }
                let msg = PartialResult {
                    payload: out.payload,
                    value: out.value,
                    origin,
                    duration: own_duration,
                    retry: false,
                };
                if let Some(f @ (FaultKind::DuplicateMessage, c)) = own_fault {
                    book(c.shared.now(), f);
                    let _ = parent_tx.send(msg).await;
                }
                let _ = parent_tx.send(msg).await;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_core::StageSpec;
    use cedar_distrib::{LogNormal, Uniform};

    fn small_tree() -> TreeSpec {
        TreeSpec::two_level(
            StageSpec::new(LogNormal::new(2.0, 0.6).unwrap(), 8),
            StageSpec::new(LogNormal::new(2.0, 0.4).unwrap(), 4),
        )
    }

    #[tokio::test(start_paused = true)]
    async fn generous_deadline_collects_everything() {
        let tree = TreeSpec::two_level(
            StageSpec::new(Uniform::new(1.0, 5.0).unwrap(), 6),
            StageSpec::new(Uniform::new(1.0, 5.0).unwrap(), 3),
        );
        let cfg = RuntimeConfig::new(tree, 1000.0).with_seed(1);
        let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
        assert_eq!(out.included_outputs, 18);
        assert_eq!(out.quality, 1.0);
        assert_eq!(out.root_arrivals, 3);
        assert!((out.value_sum - 18.0).abs() < 1e-9);
    }

    #[tokio::test(start_paused = true)]
    async fn zero_like_deadline_collects_nothing() {
        let cfg = RuntimeConfig::new(small_tree(), 0.001).with_seed(2);
        let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
        assert_eq!(out.included_outputs, 0);
        assert_eq!(out.quality, 0.0);
    }

    #[tokio::test(start_paused = true)]
    async fn quality_is_fraction_under_tight_deadline() {
        let cfg = RuntimeConfig::new(small_tree(), 20.0).with_seed(3);
        let out = run_query(&cfg, WaitPolicyKind::ProportionalSplit).await;
        assert!((0.0..=1.0).contains(&out.quality));
        assert_eq!(out.total_processes, 32);
    }

    #[tokio::test(start_paused = true)]
    async fn values_are_aggregated() {
        let tree = TreeSpec::two_level(
            StageSpec::new(Uniform::new(1.0, 2.0).unwrap(), 4),
            StageSpec::new(Uniform::new(1.0, 2.0).unwrap(), 2),
        );
        let cfg = RuntimeConfig::new(tree, 100.0).with_seed(4);
        let values: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let out = run_query_with_values(&cfg, WaitPolicyKind::Cedar, Arc::new(values)).await;
        // 0 + 1 + ... + 7 = 28.
        assert!((out.value_sum - 28.0).abs() < 1e-9);
    }

    #[tokio::test(start_paused = true)]
    async fn cedar_beats_or_matches_bad_fixed_wait() {
        // A fixed wait of ~0 ships immediately with almost nothing;
        // Cedar must do better on the same sampled query.
        let cfg = RuntimeConfig::new(small_tree(), 40.0).with_seed(5);
        let cedar = run_query(&cfg, WaitPolicyKind::Cedar).await;
        let hasty = run_query(&cfg, WaitPolicyKind::FixedWait(0.01)).await;
        assert!(
            cedar.included_outputs >= hasty.included_outputs,
            "cedar {} vs hasty {}",
            cedar.included_outputs,
            hasty.included_outputs
        );
    }

    #[tokio::test(start_paused = true)]
    async fn three_level_runtime_works() {
        let tree = TreeSpec::new(vec![
            StageSpec::new(LogNormal::new(1.5, 0.5).unwrap(), 4),
            StageSpec::new(LogNormal::new(1.5, 0.4).unwrap(), 3),
            StageSpec::new(LogNormal::new(1.5, 0.4).unwrap(), 2),
        ]);
        let cfg = RuntimeConfig::new(tree, 60.0).with_seed(6);
        let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
        assert_eq!(out.total_processes, 24);
        assert!(out.quality > 0.3, "quality {}", out.quality);
        assert!(out.root_arrivals <= 2);
    }

    #[tokio::test(start_paused = true)]
    async fn deterministic_under_seed_and_paused_time() {
        let cfg = RuntimeConfig::new(small_tree(), 30.0).with_seed(7);
        let a = run_query(&cfg, WaitPolicyKind::Ideal).await;
        let b = run_query(&cfg, WaitPolicyKind::Ideal).await;
        assert_eq!(a.included_outputs, b.included_outputs);
    }

    #[tokio::test(start_paused = true)]
    async fn realized_durations_cover_every_stage() {
        let tree = TreeSpec::new(vec![
            StageSpec::new(LogNormal::new(1.5, 0.5).unwrap(), 4),
            StageSpec::new(LogNormal::new(1.5, 0.4).unwrap(), 3),
            StageSpec::new(LogNormal::new(1.5, 0.4).unwrap(), 2),
        ]);
        let cfg = RuntimeConfig::new(tree, 60.0).with_seed(11);
        let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
        assert_eq!(out.realized_durations.len(), 3);
        assert_eq!(out.realized_durations[0].len(), 24);
        assert_eq!(out.realized_durations[1].len(), 6);
        assert_eq!(out.realized_durations[2].len(), 2);
        assert!(out
            .realized_durations
            .iter()
            .flatten()
            .all(|d| d.is_finite() && *d >= 0.0));
    }

    #[tokio::test(start_paused = true)]
    async fn prepared_contexts_reuse_matches_fresh_build() {
        let cfg = RuntimeConfig::new(small_tree(), 30.0).with_seed(9);
        let prepared = PreparedContexts::new(
            &cfg.priors,
            cfg.deadline,
            WaitPolicyKind::Cedar,
            cfg.model,
            cfg.scan_steps,
            &cfg.profile,
        );
        let n = cfg.tree.total_processes();
        let values = Arc::new(vec![1.0; n]);
        let fresh = run_query(&cfg, WaitPolicyKind::Cedar).await;
        let cached = run_query_prepared(&cfg, WaitPolicyKind::Cedar, values, &prepared).await;
        assert_eq!(fresh.included_outputs, cached.included_outputs);
        assert_eq!(fresh.root_arrivals, cached.root_arrivals);
        assert_eq!(fresh.realized_durations, cached.realized_durations);
    }

    /// A traced two-level run; the trace comes back beside the outcome.
    async fn traced(
        tree: TreeSpec,
        deadline: f64,
        kind: WaitPolicyKind,
    ) -> (RuntimeOutcome, Vec<cedar_telemetry::TraceEvent>) {
        let trace = Arc::new(QueryTrace::new());
        let cfg = RuntimeConfig::new(tree, deadline)
            .with_seed(12)
            .with_trace(trace.clone());
        let out = run_query(&cfg, kind).await;
        (out, trace.events())
    }

    #[tokio::test(start_paused = true)]
    async fn leaves_past_the_deadline_keep_their_aggregator_on_its_timer() {
        // Half the leaves finish within 5 units, half after the 100-unit
        // deadline. An aggregator holding both kinds has all it can get
        // by 5, but it must still wait for its timer at 50, as it would
        // with the late leaves on their way: its channel stays open.
        let leaves = cedar_distrib::Mixture::new(vec![
            (0.5, Box::new(Uniform::new(1.0, 5.0).unwrap()) as _),
            (0.5, Box::new(Uniform::new(200.0, 300.0).unwrap()) as _),
        ])
        .unwrap();
        let tree = TreeSpec::two_level(
            StageSpec::new(leaves, 4),
            StageSpec::new(Uniform::new(1.0, 2.0).unwrap(), 4),
        );
        let (out, events) = traced(tree, 100.0, WaitPolicyKind::FixedWait(50.0)).await;
        let mixed: Vec<usize> = (0..4)
            .filter(|&agg| {
                let mine = &out.realized_durations[0][agg * 4..agg * 4 + 4];
                mine.iter().any(|&d| d < 5.0) && mine.iter().any(|&d| d > 100.0)
            })
            .collect();
        assert!(
            !mixed.is_empty(),
            "no aggregator holds early and late leaves"
        );
        for agg in mixed {
            let mine: Vec<_> = events
                .iter()
                .filter(|e| e.level == 1 && e.index == agg)
                .collect();
            let at_timer = |at: f64| (at - 50.0).abs() < 1e-9;
            assert!(
                mine.iter()
                    .any(|e| at_timer(e.at) && e.kind == TraceEventKind::TimerFired),
                "aggregator {agg} left before its timer: {mine:?}"
            );
            assert!(
                mine.last().is_some_and(
                    |e| at_timer(e.at) && matches!(e.kind, TraceEventKind::Departed { .. })
                ),
                "aggregator {agg}: {mine:?}"
            );
        }
    }

    #[tokio::test(start_paused = true)]
    async fn same_instant_leaves_ship_in_origin_order() {
        // Every leaf takes 5 units to well under a nanosecond of wall
        // time, so each aggregator's leaves all land at one instant.
        let tree = TreeSpec::two_level(
            StageSpec::new(Uniform::new(5.0, 5.0 + 1e-9).unwrap(), 6),
            StageSpec::new(Uniform::new(1.0, 2.0).unwrap(), 3),
        );
        let (out, events) = traced(tree, 100.0, WaitPolicyKind::Cedar).await;
        assert_eq!(out.included_outputs, 18);
        for agg in 0..3 {
            let origins: Vec<usize> = events
                .iter()
                .filter(|e| e.level == 1 && e.index == agg)
                .filter_map(|e| match e.kind {
                    TraceEventKind::Arrival { origin, .. } => Some(origin),
                    _ => None,
                })
                .collect();
            assert_eq!(origins, (agg * 6..agg * 6 + 6).collect::<Vec<_>>());
        }
    }

    #[tokio::test(start_paused = true)]
    async fn shipper_orders_by_instant_then_origin() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let leaves = vec![
            (at(2), 7, 'a'),
            (at(1), 9, 'b'),
            (at(2), 3, 'c'),
            (at(1), 4, 'd'),
        ];
        let shipped = std::sync::Mutex::new(Vec::new());
        let departed = ship_leaves(
            leaves,
            |origin, item| {
                shipped.lock().unwrap().push((t0.elapsed(), origin, item));
                std::future::ready(true)
            },
            |_| true,
        )
        .await;
        assert!(!departed);
        let ms = Duration::from_millis;
        assert_eq!(
            shipped.into_inner().unwrap(),
            vec![
                (ms(1), 4, 'd'),
                (ms(1), 9, 'b'),
                (ms(2), 3, 'c'),
                (ms(2), 7, 'a')
            ]
        );
    }

    #[tokio::test(start_paused = true)]
    async fn shipper_stops_waking_leaves_once_its_aggregator_has_left() {
        // Leaves at 1, 2, 3 and 4 ms; the receiver takes the first and
        // leaves. The send at 2 ms fails, so the plain leaf at 4 ms is
        // never slept to and the channel is not held to `hold_until`;
        // a crash-before-send leaf at 3 ms, when there is one, is still
        // woken and booked at its own instant.
        async fn run(crash_at_3: bool) -> (Duration, FailureReport, Vec<(f64, TraceEventKind)>) {
            let t0 = Instant::now();
            let at = |ms| t0 + Duration::from_millis(ms);
            let trace = Arc::new(QueryTrace::new());
            let chaos = Arc::new(ChaosShared {
                plan: Arc::new(FaultPlan::new(1, crate::faults::FaultSpec::none())),
                ledger: Arc::new(Ledger::new(2)),
                trace: Some(trace.clone()),
                start: t0,
                scale: TimeScale::millis(),
            });
            let leaf = |ms: u64, fault| {
                let origin = ms as usize - 1;
                let msg = PartialResult {
                    payload: 1,
                    value: 1.0,
                    origin,
                    duration: ms as f64,
                    retry: false,
                };
                (at(ms), origin, (msg, fault))
            };
            let crash = crash_at_3.then_some(FaultKind::CrashBeforeSend);
            let leaves = vec![leaf(1, None), leaf(2, None), leaf(3, crash), leaf(4, None)];
            let (tx, mut rx) = mpsc::channel(4);
            let shipper = tokio::spawn(bottom_leaves(
                tx,
                leaves,
                Some(chaos.clone()),
                Vec::new(),
                Some(at(10)),
            ));
            assert_eq!(rx.recv().await.map(|m| m.origin), Some(0));
            drop(rx);
            shipper.await.unwrap();
            let events = trace.events().into_iter().map(|e| (e.at, e.kind));
            (t0.elapsed(), chaos.ledger.finish().0, events.collect())
        }

        let (took, report, events) = run(false).await;
        assert_eq!(took, Duration::from_millis(2));
        assert!(report.is_clean(), "{report:?}");
        assert!(events.is_empty(), "{events:?}");

        let (took, report, events) = run(true).await;
        assert_eq!(took, Duration::from_millis(3));
        assert_eq!(report.crashed, 1, "{report:?}");
        assert_eq!(
            events,
            vec![(
                3.0,
                TraceEventKind::FaultInjected {
                    fault: FaultKind::CrashBeforeSend.class(),
                    origin: 2,
                }
            )]
        );
    }

    #[test]
    #[should_panic(expected = "one value per leaf")]
    fn rejects_wrong_value_count() {
        let rt = tokio::runtime::Builder::new_current_thread()
            .enable_time()
            .build()
            .unwrap();
        rt.block_on(async {
            let cfg = RuntimeConfig::new(small_tree(), 30.0);
            run_query_with_values(&cfg, WaitPolicyKind::Cedar, Arc::new(vec![1.0])).await;
        });
    }
}
