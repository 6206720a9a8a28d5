//! A long-running, concurrent aggregation service: the full deployment
//! loop of the paper.
//!
//! Production systems do not get their priors from thin air — they
//! "continuously learn statistics about the underlying distributions ...
//! from completed queries" (§3.1), and Cedar likewise learns the
//! upper-stage distributions "offline based on completed queries" (§4.1).
//! [`AggregationService`] closes that loop:
//!
//! 1. queries are submitted with their *true* (per-query) tree;
//! 2. each runs on the tokio engine under the configured policy, using a
//!    snapshot of the service's current priors;
//! 3. each submission then hands the engine's realized stage durations
//!    to the service's [`Learner`] itself: one bounded sliding window of
//!    sufficient statistics per stage, re-fit by log-normal MLE every
//!    `refit_interval` completed queries at a cost independent of how
//!    much history it holds, and published here as the new population
//!    priors.
//!
//! The service therefore adapts to slow drift the way a deployment
//! would, while Cedar's per-query learning handles fast variation.
//!
//! ## Concurrency model
//!
//! The service is a cheap-to-clone handle over shared state, safe to use
//! from any number of tasks — on any number of runtimes — at once. It
//! spawns no task and holds no channel:
//!
//! - **Priors** live behind an epoch-versioned `RwLock`: submissions
//!   take a consistent `(epoch, tree)` snapshot, and an accepted refit
//!   replaces the whole snapshot under one write guard — so a query
//!   never sees a half-updated tree.
//! - **Learning** happens in the submitting call, after its query ran:
//!   `submit_with` records the realized durations into the learner,
//!   whose one mutex serializes record → publish → checkpoint. Two
//!   submitters finishing together therefore publish one at a time, in
//!   epoch order, and `completed()` / `refits()` / `epoch()` already
//!   count a submission when it resolves.
//! - **Prepared policy contexts** ([`PreparedContexts`]) — the expensive
//!   query-independent setup (§5.2 reports tens of ms per profile) — are
//!   cached per `(priors epoch, deadline bucket)`, so concurrent queries
//!   with the same deadline don't redundantly recompute profiles.
//!
//! Lock order: learner → priors → cache. A publish takes the priors
//! lock, then the cache lock, while holding the learner's; every other
//! path holds one lock at a time, and none is held across an `.await`.

use crate::checkpoint::CheckpointConfig;
use crate::engine::{run_query_prepared, RuntimeConfig, RuntimeOutcome};
use crate::faults::FaultPlan;
use crate::learner::Learner;
pub use crate::learner::WarmRestart;
use crate::metrics::RuntimeMetrics;
use crate::scale::TimeScale;
use cedar_core::policy::WaitPolicyKind;
use cedar_core::profile::ProfileConfig;
use cedar_core::setup::PreparedContexts;
use cedar_core::LockExt;
use cedar_core::{StageSpec, TreeSpec};
use cedar_distrib::LogNormal;
use cedar_estimate::Model;
use cedar_mathx::fxhash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Cedar's estimator family, as the learner fits it and the mesh runs it.
const MODEL: Model = Model::LogNormal;

/// ε-scan resolution of every query.
const SCAN_STEPS: usize = 300;

/// Configuration of the service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Initial population priors (e.g. from a first offline fit).
    pub initial_priors: TreeSpec,
    /// Default end-to-end deadline applied to every query (model units);
    /// individual submissions may override it via [`QueryOptions`].
    pub deadline: f64,
    /// Wait policy to run.
    pub policy: WaitPolicyKind,
    /// Model-to-wall time mapping.
    pub scale: TimeScale,
    /// Re-fit priors after this many completed queries (0 disables
    /// refitting).
    pub refit_interval: usize,
    /// Width of the deadline bucket used both for cache keying and for
    /// quantizing submitted deadlines (model units). Queries whose
    /// deadlines fall in the same bucket share prepared contexts.
    pub deadline_bucket: f64,
    /// Fault plan applied to every query (chaos testing a whole
    /// deployment); per-query [`QueryOptions::faults`] takes precedence.
    /// `None` (the default) runs every query clean.
    pub faults: Option<Arc<FaultPlan>>,
    /// Shared runtime metrics recorded by every query and every refit
    /// (see [`RuntimeMetrics`]). `None` disables recording.
    pub metrics: Option<Arc<RuntimeMetrics>>,
    /// Durable learned state: when set, the service warm-restarts from
    /// the newest valid checkpoint in the directory at construction and
    /// writes a new checkpoint after every accepted refit (and on
    /// [`AggregationService::checkpoint_now`]). `None` keeps all learned
    /// state in memory only.
    pub checkpoint: Option<CheckpointConfig>,
}

impl ServiceConfig {
    /// Creates a config with library defaults.
    pub fn new(initial_priors: TreeSpec, deadline: f64) -> Self {
        Self {
            initial_priors,
            deadline,
            policy: WaitPolicyKind::Cedar,
            scale: TimeScale::millis(),
            refit_interval: 20,
            deadline_bucket: 1e-3,
            faults: None,
            metrics: None,
            checkpoint: None,
        }
    }
}

/// Per-query overrides for [`AggregationService::submit_with`].
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Deadline override (model units); the service default otherwise.
    pub deadline: Option<f64>,
    /// Explicit duration-sampling seed; a service-assigned one otherwise.
    /// Fixing the seed (with refits disabled) makes a query's outcome a
    /// pure function of `(tree, deadline, seed)` regardless of how many
    /// other queries run concurrently.
    pub seed: Option<u64>,
    /// Per-worker partial values; every worker contributes `1.0` if
    /// absent.
    pub values: Option<Arc<Vec<f64>>>,
    /// Fault plan for this query, overriding [`ServiceConfig::faults`].
    pub faults: Option<Arc<FaultPlan>>,
    /// Decision trace to record this query's Pseudocode-1 timeline into
    /// (the `explain: true` path). `None` leaves tracing off.
    pub trace: Option<Arc<cedar_telemetry::QueryTrace>>,
}

/// The priors plus the epoch stamping their version.
#[derive(Debug, Clone)]
struct PriorsSnapshot {
    epoch: u64,
    tree: Arc<TreeSpec>,
}

/// Shared state behind every [`AggregationService`] handle.
struct ServiceState {
    cfg: ServiceConfig,
    priors: RwLock<PriorsSnapshot>,
    // FxHash, not SipHash: two-word keys probed once per query make
    // the hasher itself the dominant map cost.
    cache: Mutex<FxHashMap<(u64, u64), Arc<PreparedContexts>>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    submit_counter: AtomicU64,
    /// Counters, refits, checkpoints and the durability readouts.
    learner: Learner,
}

/// The long-running service; see the module docs.
///
/// Cloning is cheap and shares all state; any number of tasks may call
/// [`submit`](Self::submit) concurrently.
#[derive(Clone)]
pub struct AggregationService {
    state: Arc<ServiceState>,
}

impl std::fmt::Debug for AggregationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AggregationService")
            .field("epoch", &self.epoch())
            .field("completed", &self.completed())
            .field("refits", &self.refits())
            .finish()
    }
}

impl AggregationService {
    /// Creates the service with its initial priors; no runtime is needed
    /// until the first submission.
    ///
    /// With [`ServiceConfig::checkpoint`] set, construction scans the
    /// checkpoint directory and warm-restarts from the newest valid
    /// generation: priors, epoch, counters and the learner's lifetime
    /// sufficient statistics all resume where the previous process left
    /// off. Any decode failure — truncation, garbage, checksum or
    /// version flip, tree-shape mismatch — degrades to a cold start with
    /// the reason in [`cold_start_reason`](Self::cold_start_reason),
    /// never an error or panic.
    pub fn new(cfg: ServiceConfig) -> Self {
        let learner = Learner::open(
            cfg.initial_priors
                .stages()
                .iter()
                .map(|s| s.fanout)
                .collect(),
            MODEL,
            cfg.refit_interval,
            cfg.checkpoint.as_ref(),
            cfg.metrics.clone(),
        );
        let snapshot = PriorsSnapshot {
            epoch: learner.epoch(),
            tree: Arc::new(priors_tree(&cfg.initial_priors, &learner.fitted())),
        };
        let state = Arc::new(ServiceState {
            priors: RwLock::new(snapshot),
            cfg,
            cache: Mutex::new(FxHashMap::default()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            submit_counter: AtomicU64::new(0),
            learner,
        });
        Self { state }
    }

    /// A consistent snapshot of the current population priors.
    pub fn priors(&self) -> Arc<TreeSpec> {
        self.state.priors.read().unpoisoned().tree.clone()
    }

    /// The deadline a query runs under when it sends none (model units).
    pub fn default_deadline(&self) -> f64 {
        self.state.cfg.deadline
    }

    /// The priors version: bumped by every accepted refit. Monotonically
    /// non-decreasing across any sequence of observations.
    pub fn epoch(&self) -> u64 {
        self.state.priors.read().unpoisoned().epoch
    }

    /// Completed query count (a submission counts once it resolves).
    pub fn completed(&self) -> usize {
        self.state.learner.completed() as usize
    }

    /// Number of offline refits performed.
    pub fn refits(&self) -> usize {
        self.state.learner.refits() as usize
    }

    /// Prepared-context cache counters as `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.state.cache_hits.load(Ordering::Acquire),
            self.state.cache_misses.load(Ordering::Acquire),
        )
    }

    /// Queries completed since the last accepted refit (or since this
    /// process started): the clock-free age of the current priors.
    pub fn priors_age_queries(&self) -> usize {
        self.state.learner.priors_age_queries() as usize
    }

    /// Whether checkpointing is configured.
    pub fn checkpointing(&self) -> bool {
        self.state.learner.checkpointing()
    }

    /// How this process came up: `Some` after a successful warm restart
    /// from a checkpoint, `None` on a cold start (or with checkpointing
    /// disabled).
    pub fn warm_restart(&self) -> Option<WarmRestart> {
        self.state.learner.warm_restart().cloned()
    }

    /// Why the service cold-started although checkpointing is enabled:
    /// "no checkpoint in <dir>" on a first boot, or the decode-rejection
    /// reason(s) when every on-disk generation was invalid.
    pub fn cold_start_reason(&self) -> Option<String> {
        self.state.learner.cold_start_reason().map(str::to_owned)
    }

    /// Wall-clock age (ms) of the newest known checkpoint — restored at
    /// startup or written by this process. `None` until one exists.
    pub fn checkpoint_age_ms(&self) -> Option<u64> {
        self.state.learner.checkpoint_age_ms()
    }

    /// Checkpoints written by this process.
    pub fn checkpoints_written(&self) -> u64 {
        self.state.learner.checkpoints_written()
    }

    /// Writes a checkpoint now (the graceful-shutdown hook; refit epochs
    /// already checkpoint on their own). Returns once the file is
    /// durable: `Ok(true)` written, `Ok(false)` checkpointing disabled.
    pub fn checkpoint_now(&self) -> Result<bool, String> {
        self.state.learner.checkpoint_now()
    }

    /// Runs one query whose true stage distributions are `true_tree`
    /// under the service defaults. See [`submit_with`](Self::submit_with).
    pub async fn submit(&self, true_tree: TreeSpec) -> RuntimeOutcome {
        self.submit_with(true_tree, QueryOptions::default()).await
    }

    /// Runs one query with per-query overrides: executes on the engine
    /// against the current priors snapshot, then records the realized
    /// durations into the learner (applying any refit that is due)
    /// before it returns.
    pub async fn submit_with(&self, true_tree: TreeSpec, opts: QueryOptions) -> RuntimeOutcome {
        let state = &self.state;
        let seed = opts.seed.unwrap_or_else(|| {
            let i = state.submit_counter.fetch_add(1, Ordering::AcqRel);
            0x5EED ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        let snapshot = state.priors.read().unpoisoned().clone();
        let n = true_tree.total_processes();
        let values = opts.values.unwrap_or_else(|| crate::pool::ones(n));
        let cfg = RuntimeConfig {
            tree: true_tree,
            priors: (*snapshot.tree).clone(),
            deadline: self.quantize_deadline(opts.deadline.unwrap_or(state.cfg.deadline)),
            scale: state.cfg.scale,
            model: MODEL,
            scan_steps: SCAN_STEPS,
            profile: ProfileConfig::default(),
            seed,
            faults: opts.faults.or_else(|| state.cfg.faults.clone()),
            trace: opts.trace,
            metrics: state.cfg.metrics.clone(),
            priors_epoch: snapshot.epoch,
        };
        let prepared = self.prepared_contexts(&cfg);
        let outcome = run_query_prepared(&cfg, state.cfg.policy, values, &prepared).await;

        // Learn from the durations the engine actually ran with. The
        // learner's lock orders concurrent submitters, so refits publish
        // one at a time and in epoch order.
        state.learner.record(
            &outcome.realized_durations,
            &outcome.censored_durations,
            |epoch, fitted| publish(state, epoch, fitted),
        );
        outcome
    }

    /// Snaps a deadline to its bucket's representative value, so every
    /// deadline in a bucket runs with — and caches — identical contexts.
    fn quantize_deadline(&self, deadline: f64) -> f64 {
        let w = self.state.cfg.deadline_bucket;
        if w > 0.0 && deadline.is_finite() {
            ((deadline / w).round() * w).max(w)
        } else {
            deadline
        }
    }

    /// Fetches (or builds) the prepared contexts for a query's priors
    /// epoch and bucketed deadline. Caching never changes results —
    /// context construction is deterministic in (priors, deadline) — it
    /// only skips recomputation.
    fn prepared_contexts(&self, cfg: &RuntimeConfig) -> Arc<PreparedContexts> {
        let state = &self.state;
        let w = state.cfg.deadline_bucket.max(f64::MIN_POSITIVE);
        let bucket = (cfg.deadline / w).round() as u64;
        let key = (cfg.priors_epoch, bucket);
        if let Some(hit) = state.cache.lock().unpoisoned().get(&key).cloned() {
            state.cache_hits.fetch_add(1, Ordering::AcqRel);
            return hit;
        }
        state.cache_misses.fetch_add(1, Ordering::AcqRel);
        // Built outside the lock: construction is the expensive part,
        // and a racing duplicate build is benign (identical contents).
        let fresh = Arc::new(PreparedContexts::new(
            &cfg.priors,
            cfg.deadline,
            state.cfg.policy,
            cfg.model,
            cfg.scan_steps,
            &cfg.profile,
        ));
        state.cache.lock().unpoisoned().insert(key, fresh.clone());
        fresh
    }
}

/// Publishes an accepted refit as the priors of `epoch` and drops the
/// cache entries of older epochs. Runs under the learner's lock.
fn publish(state: &ServiceState, epoch: u64, fitted: &[Option<LogNormal>]) {
    let tree = Arc::new(priors_tree(&state.cfg.initial_priors, fitted));
    // Whole-struct assignment keeps the snapshot panic-atomic: no reader
    // (or poison-recovering writer) can ever observe the new epoch paired
    // with the old tree. The loom model in crates/analysis guards this
    // protocol (`loom_service.rs`).
    *state.priors.write().unpoisoned() = PriorsSnapshot { epoch, tree };
    // Contexts keyed by older epochs can never be requested again.
    state
        .cache
        .lock()
        .unpoisoned()
        .retain(|(e, _), _| *e >= epoch);
}

/// The configured priors with every fitted stage replaced by its
/// log-normal fit; fan-outs are kept.
fn priors_tree(initial: &TreeSpec, fitted: &[Option<LogNormal>]) -> TreeSpec {
    let stages = initial
        .stages()
        .iter()
        .zip(fitted)
        .map(|(old, fit)| match fit {
            Some(ln) => StageSpec::new(*ln, old.fanout),
            None => old.clone(),
        })
        .collect();
    TreeSpec::new(stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint;

    fn tree(mu: f64) -> TreeSpec {
        TreeSpec::two_level(
            StageSpec::new(LogNormal::new(mu, 0.6).unwrap(), 8),
            StageSpec::new(LogNormal::new(1.0, 0.4).unwrap(), 4),
        )
    }

    #[tokio::test(start_paused = true)]
    async fn service_runs_queries_and_refits() {
        let mut cfg = ServiceConfig::new(tree(1.0), 40.0);
        cfg.refit_interval = 5;
        let svc = AggregationService::new(cfg);
        for _ in 0..10 {
            let out = svc.submit(tree(1.0)).await;
            assert!((0.0..=1.0).contains(&out.quality));
        }
        assert_eq!(svc.completed(), 10);
        assert_eq!(svc.refits(), 2);
        assert_eq!(svc.epoch(), 2);
    }

    #[tokio::test(start_paused = true)]
    async fn priors_track_a_load_shift() {
        // Start believing the world is fast; run slow queries; after a
        // refit the priors' bottom-stage median must move toward the
        // truth.
        let mut cfg = ServiceConfig::new(tree(0.5), 60.0);
        cfg.refit_interval = 6;
        let svc = AggregationService::new(cfg);
        let before = svc.priors().stage(0).dist.quantile(0.5);
        for _ in 0..6 {
            svc.submit(tree(2.5)).await;
        }
        let after = svc.priors().stage(0).dist.quantile(0.5);
        assert!(svc.refits() >= 1);
        assert!(
            after > before * 2.0,
            "prior median {before} -> {after} did not track the shift"
        );
    }

    #[tokio::test(start_paused = true)]
    async fn refit_disabled_keeps_priors() {
        let mut cfg = ServiceConfig::new(tree(1.0), 40.0);
        cfg.refit_interval = 0;
        let svc = AggregationService::new(cfg);
        let before = svc.priors().stage(0).dist.mean();
        for _ in 0..5 {
            svc.submit(tree(3.0)).await;
        }
        assert_eq!(svc.refits(), 0);
        assert_eq!(svc.epoch(), 0);
        assert_eq!(svc.priors().stage(0).dist.mean(), before);
    }

    #[tokio::test(start_paused = true)]
    async fn profile_cache_hits_on_repeated_deadlines() {
        let mut cfg = ServiceConfig::new(tree(1.0), 40.0);
        cfg.refit_interval = 0;
        let svc = AggregationService::new(cfg);
        for _ in 0..8 {
            svc.submit(tree(1.0)).await;
        }
        let (hits, misses) = svc.cache_stats();
        assert_eq!(misses, 1, "one build for the fixed deadline");
        assert_eq!(hits, 7);
    }

    #[tokio::test(start_paused = true)]
    async fn refit_invalidates_cache_epoch() {
        let mut cfg = ServiceConfig::new(tree(1.0), 40.0);
        cfg.refit_interval = 4;
        let svc = AggregationService::new(cfg);
        for _ in 0..8 {
            svc.submit(tree(1.0)).await;
        }
        // Epoch advanced twice; each refit invalidates, so at least one
        // rebuild per epoch actually used afterwards.
        assert_eq!(svc.refits(), 2);
        let (hits, misses) = svc.cache_stats();
        assert!(misses >= 2, "each epoch change forces a rebuild");
        assert!(hits + misses == 8);
    }

    #[tokio::test(start_paused = true)]
    async fn unusable_durations_do_not_freeze_priors() {
        // A client-supplied tree whose bottom stage straddles zero puts
        // non-positive durations into the learner. They are skipped
        // at ingest; held in a raw history they failed every refit, for
        // every stage, until they slid out 50 000 samples later.
        let mut cfg = ServiceConfig::new(tree(1.0), 40.0);
        cfg.refit_interval = 3;
        let svc = AggregationService::new(cfg);
        let straddling = TreeSpec::two_level(
            StageSpec::new(cedar_distrib::Normal::new(0.5, 1.0).unwrap(), 8),
            StageSpec::new(LogNormal::new(1.0, 0.4).unwrap(), 4),
        );
        let out = svc.submit(straddling).await;
        assert!(out.realized_durations[0].iter().any(|&d| d <= 0.0));
        for _ in 0..5 {
            svc.submit(tree(1.0)).await;
        }
        assert_eq!(svc.refits(), 2, "both due refits were accepted");
        assert_eq!(svc.epoch(), 2);
    }

    fn ckpt_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cedar-svc-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[tokio::test(start_paused = true)]
    async fn checkpoint_round_trip_warm_restarts() {
        let dir = ckpt_dir("roundtrip");
        let mk = || {
            let mut cfg = ServiceConfig::new(tree(0.5), 60.0);
            cfg.refit_interval = 5;
            cfg.checkpoint = Some(CheckpointConfig::new(&dir));
            AggregationService::new(cfg)
        };
        let first = mk();
        assert!(first.checkpointing());
        assert!(first.warm_restart().is_none());
        assert!(first.cold_start_reason().unwrap().contains("no checkpoint"));
        for _ in 0..10 {
            first.submit(tree(2.5)).await;
        }
        assert_eq!(first.refits(), 2);
        assert_eq!(first.checkpoints_written(), 2, "one write per refit");
        assert!(first.checkpoint_age_ms().is_some());
        let learned_median = first.priors().stage(0).dist.quantile(0.5);
        drop(first);

        // "Restart": a fresh service over the same directory resumes
        // priors, epoch and counters exactly where the last one left off.
        let second = mk();
        let warm = second.warm_restart().expect("warm restart");
        assert_eq!(warm.epoch, 2);
        assert_eq!(warm.completed, 10);
        assert_eq!(warm.refits, 2);
        assert!(second.cold_start_reason().is_none());
        assert_eq!(second.epoch(), 2);
        assert_eq!(second.completed(), 10);
        let restored_median = second.priors().stage(0).dist.quantile(0.5);
        assert!(
            (restored_median - learned_median).abs() < 1e-12,
            "{restored_median} vs {learned_median}"
        );
        // The refit cadence continues from the restored count.
        for _ in 0..5 {
            second.submit(tree(2.5)).await;
        }
        assert_eq!(second.completed(), 15);
        assert_eq!(second.refits(), 3);
        assert_eq!(second.epoch(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[tokio::test(start_paused = true)]
    async fn checkpoint_now_flushes_on_demand() {
        let dir = ckpt_dir("flush");
        let mut cfg = ServiceConfig::new(tree(1.0), 40.0);
        cfg.refit_interval = 0; // no refit epochs: only the explicit flush writes
        cfg.checkpoint = Some(CheckpointConfig::new(&dir));
        let svc = AggregationService::new(cfg);
        for _ in 0..3 {
            svc.submit(tree(1.0)).await;
        }
        assert_eq!(svc.checkpoints_written(), 0);
        assert!(svc.checkpoint_now().unwrap());
        assert_eq!(svc.checkpoints_written(), 1);
        let loaded = checkpoint::load(&dir);
        let ckpt = loaded.checkpoint.unwrap();
        assert_eq!(ckpt.completed, 3);
        assert_eq!(ckpt.epoch, 0);
        // Observed evidence rode along even though no refit ran.
        assert!(ckpt.stages[0].stats.count > 0);

        // Without checkpointing the flush is a clean no-op.
        let plain = AggregationService::new(ServiceConfig::new(tree(1.0), 40.0));
        assert!(!plain.checkpoint_now().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[tokio::test(start_paused = true)]
    async fn corrupted_checkpoint_degrades_to_cold_start() {
        let dir = ckpt_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(checkpoint::FILE_NAME), b"not a checkpoint at all").unwrap();
        let mut cfg = ServiceConfig::new(tree(1.0), 40.0);
        cfg.checkpoint = Some(CheckpointConfig::new(&dir));
        let svc = AggregationService::new(cfg);
        assert!(svc.warm_restart().is_none());
        let reason = svc.cold_start_reason().unwrap();
        assert!(reason.contains("CEDARCKP"), "{reason}");
        assert_eq!(svc.epoch(), 0);
        // The service still works.
        let out = svc.submit(tree(1.0)).await;
        assert!((0.0..=1.0).contains(&out.quality));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[tokio::test(start_paused = true)]
    async fn shape_mismatched_checkpoint_is_rejected() {
        let dir = ckpt_dir("shape");
        {
            let mut cfg = ServiceConfig::new(tree(1.0), 40.0);
            cfg.refit_interval = 0;
            cfg.checkpoint = Some(CheckpointConfig::new(&dir));
            let svc = AggregationService::new(cfg);
            svc.submit(tree(1.0)).await;
            assert!(svc.checkpoint_now().unwrap());
        }
        // Same directory, different tree shape: warm restart must refuse.
        let other = TreeSpec::two_level(
            StageSpec::new(cedar_distrib::LogNormal::new(1.0, 0.6).unwrap(), 16),
            StageSpec::new(cedar_distrib::LogNormal::new(1.0, 0.4).unwrap(), 4),
        );
        let mut cfg = ServiceConfig::new(other, 40.0);
        cfg.checkpoint = Some(CheckpointConfig::new(&dir));
        let svc = AggregationService::new(cfg);
        assert!(svc.warm_restart().is_none());
        let reason = svc.cold_start_reason().unwrap();
        assert!(reason.contains("fan-out"), "{reason}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[tokio::test(start_paused = true)]
    async fn priors_age_tracks_refits() {
        let mut cfg = ServiceConfig::new(tree(1.0), 40.0);
        cfg.refit_interval = 4;
        let svc = AggregationService::new(cfg);
        assert_eq!(svc.priors_age_queries(), 0);
        for _ in 0..6 {
            svc.submit(tree(1.0)).await;
        }
        // Refit landed at 4 completions; two queries since.
        assert_eq!(svc.priors_age_queries(), 2);
    }

    #[tokio::test(start_paused = true)]
    async fn per_query_deadline_overrides_default() {
        let mut cfg = ServiceConfig::new(tree(1.0), 500.0);
        cfg.refit_interval = 0;
        let svc = AggregationService::new(cfg);
        let starved = svc
            .submit_with(
                tree(1.0),
                QueryOptions {
                    deadline: Some(0.001),
                    seed: Some(3),
                    ..QueryOptions::default()
                },
            )
            .await;
        let generous = svc
            .submit_with(
                tree(1.0),
                QueryOptions {
                    seed: Some(3),
                    ..QueryOptions::default()
                },
            )
            .await;
        assert_eq!(starved.included_outputs, 0);
        assert!(generous.quality > starved.quality);
        // Distinct buckets: both were cache misses.
        assert_eq!(svc.cache_stats().1, 2);
    }
}
