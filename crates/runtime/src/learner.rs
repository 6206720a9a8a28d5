//! The one cross-query learner: the loop the paper's deployments run
//! "from completed queries" (§3.1, §4.1), for every caller.
//!
//! Every service submission feeds a [`Learner`] its query's realized
//! stage durations; a mesh aggregator started with a checkpoint
//! directory feeds one its leaf stage, one pass at a time. Either way
//! the learner
//!
//! - **opens** from the newest valid checkpoint generation that fits the
//!   caller's stage fan-outs, or cold-starts with the reason;
//! - **records** each stage's observed durations and right-censoring
//!   thresholds into one bounded [`SlidingWindow`] (at most 256 per
//!   stage per record, so one huge query cannot dominate) and into
//!   lifetime sufficient statistics;
//! - **refits** every `refit_interval` records: a stage whose window
//!   holds at least 20 observed durations gets a log-normal MLE (the
//!   censored likelihood when thresholds are present), the others keep
//!   their prior. The caller publishes the fit; then the learner bumps
//!   its epoch and counters, tells the [`RuntimeMetrics`] it was handed,
//!   and checkpoints;
//! - **reports** its durability state lock-free: counters, the warm
//!   restart or cold-start reason, the checkpoint's age and the
//!   checkpoints written are plain reads, so `stats` and `health` never
//!   wait behind an fsync.
//!
//! One lock guards the learned state and every checkpoint write, so
//! writers are serialized and each checkpoint is one consistent
//! snapshot: never torn across an epoch, never ahead of what the caller
//! has published (`crates/analysis/tests/loom_checkpoint.rs`).

use crate::checkpoint::{self, Checkpoint, CheckpointConfig, StageCheckpoint};
use crate::metrics::RuntimeMetrics;
use cedar_core::LockExt;
use cedar_distrib::LogNormal;
use cedar_estimate::{DurationEstimator, EmpiricalEstimator, Model, SlidingWindow};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-stage sample cap recorded into the refit window per record, so a
/// single huge query cannot dominate the sliding window.
const PER_QUERY_STAGE_SAMPLES: usize = 256;

/// Per-stage refit window: 50 blocks of 1 000 samples, so a refit sees
/// the latest 49 000–50 000 and the window slides 2 % at a time.
const WINDOW_BLOCK_LEN: usize = 1_000;
const WINDOW_BLOCKS: usize = 50;

/// A stage keeps its prior until its window holds this many observed
/// durations.
const MIN_REFIT_SAMPLES: usize = 20;

/// How a learner with checkpointing enabled came up.
#[derive(Debug, Clone)]
pub struct WarmRestart {
    /// Priors epoch restored from the checkpoint.
    pub epoch: u64,
    /// Completed-query count restored.
    pub completed: u64,
    /// Accepted-refit count restored.
    pub refits: u64,
    /// Wall-clock age of the checkpoint at restore time (ms between its
    /// write and this process's start; 0 if either clock was unusable).
    pub age_ms: u64,
}

/// The learned state proper, one entry per stage.
#[derive(Debug)]
struct Learned {
    /// What refits are fitted from; bounded at ingest, so it stays
    /// bounded with refits disabled too.
    windows: Vec<SlidingWindow>,
    /// Lifetime sufficient statistics (shifted Kahan sums); restored
    /// bit-exactly across restarts.
    lifetime: Vec<EmpiricalEstimator>,
    /// Lifetime right-censored observation counts.
    censored: Vec<u64>,
    /// The last accepted fit, restored ones included: what the priors
    /// are rebuilt from. `None` until a refit has replaced the prior.
    fitted: Vec<Option<LogNormal>>,
}

impl Learned {
    /// Folds one record's per-stage durations and censoring thresholds
    /// into the windows and the lifetime evidence.
    fn record(&mut self, observed: &[Vec<f64>], censored: &[Vec<f64>]) {
        for (w, d) in self.windows.iter_mut().zip(observed) {
            for &x in d.iter().take(PER_QUERY_STAGE_SAMPLES) {
                w.observe(x);
            }
        }
        for (w, d) in self.windows.iter_mut().zip(censored) {
            for &c in d.iter().take(PER_QUERY_STAGE_SAMPLES) {
                w.observe_censored(c);
            }
        }
        // Lifetime evidence takes every observation (its footprint is a
        // handful of scalars per stage, not a sample window).
        for (est, d) in self.lifetime.iter_mut().zip(observed) {
            for &x in d {
                est.observe(x);
            }
        }
        for (c, d) in self.censored.iter_mut().zip(censored) {
            *c += d.len() as u64;
        }
    }

    /// Re-fits every stage with enough observed durations. `false`, with
    /// nothing changed, when such a window is degenerate (e.g. all-equal
    /// durations): the old priors stay in place.
    fn refit(&mut self) -> bool {
        let mut fresh = Vec::with_capacity(self.windows.len());
        for w in &self.windows {
            if w.observed() < MIN_REFIT_SAMPLES {
                fresh.push(None);
                continue;
            }
            match w.fit().and_then(|p| LogNormal::new(p.mu, p.sigma).ok()) {
                Some(ln) => fresh.push(Some(ln)),
                None => return false,
            }
        }
        for (slot, fit) in self.fitted.iter_mut().zip(fresh) {
            if fit.is_some() {
                *slot = fit;
            }
        }
        true
    }
}

/// See the module docs.
#[derive(Debug)]
pub struct Learner {
    /// Per-stage fan-outs: the shape a checkpoint must match.
    fanouts: Vec<usize>,
    refit_interval: u64,
    /// Checkpoint directory; `None` keeps everything in memory.
    dir: Option<PathBuf>,
    metrics: Option<Arc<RuntimeMetrics>>,
    warm: Option<WarmRestart>,
    /// Why a checkpointing learner cold-started: no file, or every
    /// generation rejected (with the decode or shape reason).
    cold_reason: Option<String>,
    // Counters: written only under `learned`'s lock, read lock-free.
    epoch: AtomicU64,
    completed: AtomicU64,
    refits: AtomicU64,
    /// `completed` as of the last accepted refit (or the start).
    completed_at_refit: AtomicU64,
    /// Unix ms of the newest known checkpoint (restored or written);
    /// 0 = none yet.
    last_checkpoint_ms: AtomicU64,
    /// Checkpoints written by this process.
    written: AtomicU64,
    learned: Mutex<Learned>,
}

impl Learner {
    /// A learner for a tree of `fanouts` (bottom stage first) that refits
    /// every `refit_interval` records (0: never). With `checkpoint` set
    /// it warm-restarts from the newest valid generation whose shape
    /// matches `fanouts`; any decode failure or mismatch degrades to a
    /// cold start with the reason in
    /// [`cold_start_reason`](Self::cold_start_reason).
    pub fn open(
        fanouts: Vec<usize>,
        model: Model,
        refit_interval: usize,
        checkpoint: Option<&CheckpointConfig>,
        metrics: Option<Arc<RuntimeMetrics>>,
    ) -> Self {
        let dir = checkpoint.map(|c| c.dir.clone());
        let (ckpt, fitted, cold_reason) = match dir.as_deref().map(|d| restore(d, &fanouts)) {
            Some(Ok((ckpt, fitted))) => (Some(ckpt), fitted, None),
            Some(Err(reason)) => (None, vec![None; fanouts.len()], Some(reason)),
            None => (None, vec![None; fanouts.len()], None),
        };
        let stage = |idx: usize| ckpt.as_ref().and_then(|c| c.stages.get(idx));
        let learned = Learned {
            windows: fanouts
                .iter()
                .map(|_| SlidingWindow::new(WINDOW_BLOCK_LEN, WINDOW_BLOCKS))
                .collect(),
            lifetime: (0..fanouts.len())
                .map(|idx| {
                    stage(idx).map_or_else(
                        || EmpiricalEstimator::new(model),
                        |s| EmpiricalEstimator::restore(model, &s.stats),
                    )
                })
                .collect(),
            censored: (0..fanouts.len())
                .map(|idx| stage(idx).map_or(0, |s| s.censored))
                .collect(),
            fitted,
        };
        let warm = ckpt.as_ref().map(|c| WarmRestart {
            epoch: c.epoch,
            completed: c.completed,
            refits: c.refits,
            age_ms: crate::clock::unix_ms().saturating_sub(c.written_unix_ms),
        });
        if let (Some(w), Some(m)) = (&warm, &metrics) {
            m.priors_epoch.set(w.epoch as f64);
        }
        let completed = warm.as_ref().map_or(0, |w| w.completed);
        Self {
            fanouts,
            refit_interval: refit_interval as u64,
            dir,
            metrics,
            epoch: AtomicU64::new(warm.as_ref().map_or(0, |w| w.epoch)),
            completed: AtomicU64::new(completed),
            refits: AtomicU64::new(warm.as_ref().map_or(0, |w| w.refits)),
            completed_at_refit: AtomicU64::new(completed),
            last_checkpoint_ms: AtomicU64::new(ckpt.map_or(0, |c| c.written_unix_ms)),
            written: AtomicU64::new(0),
            warm,
            cold_reason,
            learned: Mutex::new(learned),
        }
    }

    /// Folds one completed query (or aggregation pass) in: per stage,
    /// its observed durations and the right-censoring thresholds of the
    /// tasks that never arrived. When a refit is due and accepted,
    /// `publish` receives the new epoch and every stage's latest fit
    /// (`None`: keep the configured prior) before the learner counts it
    /// and checkpoints.
    pub fn record(
        &self,
        observed: &[Vec<f64>],
        censored: &[Vec<f64>],
        publish: impl FnOnce(u64, &[Option<LogNormal>]),
    ) {
        let mut learned = self.learned.lock().unpoisoned();
        learned.record(observed, censored);
        let completed = self.completed.load(Ordering::Acquire) + 1;
        self.completed.store(completed, Ordering::Release);
        if self.refit_interval == 0
            || !completed.is_multiple_of(self.refit_interval)
            || !learned.refit()
        {
            return;
        }
        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        publish(epoch, &learned.fitted);
        self.epoch.store(epoch, Ordering::Release);
        self.refits.fetch_add(1, Ordering::AcqRel);
        self.completed_at_refit.store(completed, Ordering::Release);
        if let Some(m) = &self.metrics {
            m.on_refit(epoch);
        }
        // Refit epochs are the durability points. A failed write leaves
        // the previous generation in place; the caller keeps running.
        let _ = self.store(&learned);
    }

    /// Writes a checkpoint now (the shutdown hook; refits already
    /// checkpoint on their own): `Ok(true)` once durable, `Ok(false)`
    /// with checkpointing disabled.
    pub fn checkpoint_now(&self) -> Result<bool, String> {
        let learned = self.learned.lock().unpoisoned();
        self.store(&learned)
    }

    /// Builds and durably writes a checkpoint; the caller holds the
    /// learned-state lock, which serializes writers.
    fn store(&self, learned: &Learned) -> Result<bool, String> {
        let Some(dir) = &self.dir else {
            return Ok(false);
        };
        let now_ms = crate::clock::unix_ms();
        let ckpt = Checkpoint {
            epoch: self.epoch(),
            completed: self.completed(),
            refits: self.refits(),
            written_unix_ms: now_ms,
            stages: self
                .fanouts
                .iter()
                .zip(&learned.fitted)
                .zip(&learned.lifetime)
                .zip(&learned.censored)
                .map(|(((&fanout, fit), est), &censored)| StageCheckpoint {
                    fanout: fanout as u64,
                    fitted: fit.map(|ln| (ln.mu(), ln.sigma())),
                    stats: est.stats(),
                    censored,
                })
                .collect(),
        };
        checkpoint::store(dir, &ckpt)
            .map_err(|e| format!("writing checkpoint to {}: {e}", dir.display()))?;
        self.last_checkpoint_ms.store(now_ms, Ordering::Release);
        self.written.fetch_add(1, Ordering::AcqRel);
        if let Some(m) = &self.metrics {
            m.checkpoints_total.inc();
        }
        Ok(true)
    }

    /// Every stage's latest accepted fit (`None`: the configured prior
    /// stands), restored ones included.
    pub fn fitted(&self) -> Vec<Option<LogNormal>> {
        self.learned.lock().unpoisoned().fitted.clone()
    }

    /// The priors epoch: bumped by every accepted refit.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Records folded in, across restarts.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }

    /// Accepted refits, across restarts.
    pub fn refits(&self) -> u64 {
        self.refits.load(Ordering::Acquire)
    }

    /// Records since the last accepted refit (or since this process
    /// started): the clock-free age of the current priors.
    pub fn priors_age_queries(&self) -> u64 {
        self.completed()
            .saturating_sub(self.completed_at_refit.load(Ordering::Acquire))
    }

    /// Whether checkpointing is configured.
    pub fn checkpointing(&self) -> bool {
        self.dir.is_some()
    }

    /// `Some` after a warm restart from a checkpoint.
    pub fn warm_restart(&self) -> Option<&WarmRestart> {
        self.warm.as_ref()
    }

    /// Why a checkpointing learner cold-started: "no checkpoint in
    /// <dir>" on a first boot, or the rejection reason(s) when every
    /// on-disk generation was invalid or shaped for another tree.
    pub fn cold_start_reason(&self) -> Option<&str> {
        self.cold_reason.as_deref()
    }

    /// Wall-clock age (ms) of the newest known checkpoint, restored or
    /// written; `None` until one exists.
    pub fn checkpoint_age_ms(&self) -> Option<u64> {
        let last = self.last_checkpoint_ms.load(Ordering::Acquire);
        (last != 0).then(|| crate::clock::unix_ms().saturating_sub(last))
    }

    /// Checkpoints written by this process.
    pub fn checkpoints_written(&self) -> u64 {
        self.written.load(Ordering::Acquire)
    }
}

/// The newest valid checkpoint in `dir` with its stages' fits, or why
/// there is none that fits a tree of `fanouts`.
fn restore(dir: &Path, fanouts: &[usize]) -> Result<(Checkpoint, Vec<Option<LogNormal>>), String> {
    let loaded = checkpoint::load(dir);
    let mut reasons = loaded.rejected;
    if let Some(ckpt) = loaded.checkpoint {
        match fits_of(&ckpt, fanouts) {
            Ok(fitted) => return Ok((ckpt, fitted)),
            Err(reason) => reasons.push(reason),
        }
    }
    Err(if reasons.is_empty() {
        format!("no checkpoint in {}", dir.display())
    } else {
        reasons.join("; ")
    })
}

/// Validates that `ckpt` describes a tree of `fanouts` and that its
/// fitted parameters are usable priors; returns them per stage.
fn fits_of(ckpt: &Checkpoint, fanouts: &[usize]) -> Result<Vec<Option<LogNormal>>, String> {
    if ckpt.stages.len() != fanouts.len() {
        return Err(format!(
            "checkpoint has {} stages but the configured tree has {}",
            ckpt.stages.len(),
            fanouts.len()
        ));
    }
    let mut fits = Vec::with_capacity(fanouts.len());
    for (idx, (s, &fanout)) in ckpt.stages.iter().zip(fanouts).enumerate() {
        if s.fanout != fanout as u64 {
            return Err(format!(
                "stage {idx} fan-out {} does not match the configured {fanout}",
                s.fanout
            ));
        }
        let fit = s
            .fitted
            .map(|(mu, sigma)| LogNormal::new(mu, sigma))
            .transpose()
            .map_err(|e| format!("stage {idx} fitted parameters rejected: {e:?}"))?;
        fits.push(fit);
    }
    Ok(fits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cedar-learner-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One pass of `n` delivered leaves.
    fn pass(n: usize) -> Vec<Vec<f64>> {
        vec![(0..n).map(|i| 2.0 + 0.1 * i as f64).collect()]
    }

    fn open(fanouts: Vec<usize>, refit_interval: usize, dir: Option<&Path>) -> Learner {
        let cfg = dir.map(CheckpointConfig::new);
        Learner::open(
            fanouts,
            Model::LogNormal,
            refit_interval,
            cfg.as_ref(),
            None,
        )
    }

    #[test]
    fn refits_and_checkpoints_then_warm_restarts() {
        let dir = scratch("cadence");
        let learner = open(vec![4], 8, Some(&dir));
        assert!(learner.warm_restart().is_none());
        assert!(learner
            .cold_start_reason()
            .unwrap()
            .contains("no checkpoint"));
        assert_eq!(learner.checkpoint_age_ms(), None, "nothing written yet");
        let mut published = Vec::new();
        for _ in 0..16 {
            learner.record(&pass(4), &[vec![50.0]], |epoch, fits| {
                published.push((epoch, fits[0]));
            });
        }
        assert_eq!(learner.refits(), 2, "one refit per 8 passes");
        assert_eq!(learner.completed(), 16);
        assert_eq!(learner.epoch(), 2);
        assert_eq!(learner.priors_age_queries(), 0);
        assert_eq!(learner.checkpoints_written(), 2, "one write per refit");
        assert!(learner.checkpoint_age_ms().is_some());
        assert_eq!(published.iter().map(|p| p.0).collect::<Vec<_>>(), [1, 2]);
        assert!(published.iter().all(|p| p.1.is_some()));

        // A fresh open adopts the persisted generation.
        let reborn = open(vec![4], 8, Some(&dir));
        let warm = reborn.warm_restart().expect("warm restart");
        assert_eq!((warm.epoch, warm.completed, warm.refits), (2, 16, 2));
        assert_eq!(reborn.completed(), 16);
        assert_eq!(reborn.fitted(), learner.fitted());
        assert!(reborn.cold_start_reason().is_none());
        assert!(reborn.checkpoint_age_ms().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn steady_censoring_keeps_its_share_of_the_window() {
        // One leaf in twenty never arrives, pass after pass, for three
        // window turnovers, fitting once per turnover. Thresholds expire
        // with the observations they arrived among, so the window's
        // censored share stays 5 % and the fit stays put; trimmed on
        // their own they would outlive twenty times as many passes and
        // drag the fit toward the threshold.
        let turnover = WINDOW_BLOCK_LEN * WINDOW_BLOCKS / 20 + 1;
        let learner = open(vec![20], turnover, None);
        let mut fits = Vec::new();
        for _ in 0..3 * turnover {
            learner.record(&pass(19), &[vec![50.0]], |_, f| fits.push(f[0]));
        }
        let learned = learner.learned.lock().unpoisoned();
        let share = learned.windows[0].censored() as f64 / learned.windows[0].len() as f64;
        assert!((0.04..=0.06).contains(&share), "censored share {share}");
        assert_eq!(fits.len(), 3, "one fit per turnover");
        let (first, last) = (fits[0].expect("fitted"), fits[2].expect("fitted"));
        assert!(
            (last.mu() - first.mu()).abs() < 0.01,
            "fit drifted {} -> {}",
            first.mu(),
            last.mu()
        );
    }

    #[test]
    fn checkpoint_now_writes_between_refits() {
        let dir = scratch("now");
        let learner = open(vec![4], 8, Some(&dir));
        learner.record(&pass(4), &[Vec::new()], |_, _| {});
        assert_eq!(learner.checkpoint_now(), Ok(true));
        assert_eq!(learner.checkpoints_written(), 1);
        let reborn = open(vec![4], 8, Some(&dir));
        assert_eq!(reborn.warm_restart().map(|w| w.completed), Some(1));
        // Without a directory the flush is a clean no-op.
        assert_eq!(open(vec![4], 8, None).checkpoint_now(), Ok(false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn learned_state_stays_bounded_without_a_refit() {
        // `refit_interval = 0` never refits, so whatever bounds the
        // learned state has to act at ingest.
        let window = WINDOW_BLOCK_LEN * WINDOW_BLOCKS;
        let durations = vec![vec![2.5; PER_QUERY_STAGE_SAMPLES], vec![1.5; 8]];
        let censored = vec![vec![9.0; 16], Vec::new()];
        let learner = open(vec![8, 4], 0, None);
        let queries = 3 * window / (PER_QUERY_STAGE_SAMPLES + 16) + 1;
        for _ in 0..queries {
            learner.record(&durations, &censored, |_, _| unreachable!("no refits"));
        }
        let learned = learner.learned.lock().unpoisoned();
        let bottom = &learned.windows[0];
        assert!(bottom.len() <= window, "{} entries", bottom.len());
        assert!(bottom.len() > window - WINDOW_BLOCK_LEN);
        // The lifetime evidence, a few scalars, still saw everything.
        assert_eq!(
            learned.lifetime[0].count(),
            queries * PER_QUERY_STAGE_SAMPLES
        );
    }

    #[test]
    fn checkpoints_for_another_shape_cold_start_with_the_reason() {
        let dir = scratch("shape");
        assert_eq!(open(vec![8, 4], 1, Some(&dir)).checkpoint_now(), Ok(true));
        for (fanouts, why) in [(vec![16, 4], "fan-out"), (vec![8], "stages")] {
            let other = open(fanouts, 1, Some(&dir));
            assert!(other.warm_restart().is_none());
            assert_eq!(other.checkpoint_age_ms(), None);
            let reason = other.cold_start_reason().unwrap();
            assert!(reason.contains(why), "{reason}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_publishes_the_epoch_and_counts_writes() {
        let dir = scratch("metrics");
        let metrics = RuntimeMetrics::detached();
        let cfg = CheckpointConfig::new(&dir);
        let learner = Learner::open(
            vec![4],
            Model::LogNormal,
            8,
            Some(&cfg),
            Some(Arc::clone(&metrics)),
        );
        for _ in 0..8 {
            learner.record(&pass(4), &[Vec::new()], |_, _| {});
        }
        assert_eq!(metrics.refits_total.value(), 1);
        assert_eq!(metrics.priors_epoch.get(), 1.0);
        assert_eq!(metrics.checkpoints_total.value(), 1);
        let fresh = RuntimeMetrics::detached();
        let _reborn = Learner::open(
            vec![4],
            Model::LogNormal,
            8,
            Some(&cfg),
            Some(Arc::clone(&fresh)),
        );
        assert_eq!(fresh.priors_epoch.get(), 1.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
