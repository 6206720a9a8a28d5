//! Durable learned state for mesh aggregators (ROADMAP item 5's mesh
//! leftover): the same checkpoint format the in-process service uses,
//! fed from remote aggregation passes.
//!
//! An aggregator node given a `CheckpointConfig` folds its leaf stage's
//! observed durations and right-censoring thresholds into the same
//! [`SlidingWindow`] the service learns from, refits a log-normal by
//! censored MLE from it every few passes, and persists the
//! lifetime sufficient statistics through
//! [`cedar_runtime::checkpoint`]'s two-generation CRC-guarded rotation.
//! On restart the learner warm-starts from the newest valid generation,
//! and the node's `stats` op reports the durability fields
//! (`priors_age_queries`, `checkpoint_age_ms`, `warm_restart`) instead
//! of absent values.
//!
//! The learner is deliberately *bookkeeping-only*: mesh queries declare
//! their tree (dists included), so the learned fit does not override
//! the declared policy context — it is the durable prior the service
//! will consume once mesh nodes plan from learned priors. What it does
//! surface today: a nonzero epoch after refits, exact checkpoint ages,
//! and a warm-restart marker the chaos tests assert across `kill -9`.

use cedar_estimate::{DurationEstimator, EmpiricalEstimator, Model, SlidingWindow};
use cedar_runtime::checkpoint::{self, Checkpoint, StageCheckpoint};
use cedar_runtime::CheckpointConfig;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use cedar_core::LockExt;
use cedar_server::clock;

/// Refit the windowed censored MLE every this many aggregation passes.
const REFIT_PASSES: u64 = 8;
/// Persist a checkpoint every this many aggregation passes.
const CHECKPOINT_PASSES: u64 = 16;
/// Sliding window refits are fitted from: the latest ~1 024 leaf
/// outcomes, sliding one 32-entry block at a time.
const WINDOW_BLOCK_LEN: usize = 32;
const WINDOW_BLOCKS: usize = 32;

/// Durability fields for the `stats` op, mirroring `ServerStats`.
#[derive(Debug, Clone, Copy)]
pub struct LearnerStats {
    /// Priors epoch (bumps on every accepted refit).
    pub epoch: u64,
    /// Accepted refits since the lifetime began.
    pub refits: u64,
    /// Aggregation passes folded in (this boot and, after a warm
    /// restart, prior boots).
    pub completed: u64,
    /// Passes since the epoch last changed.
    pub priors_age_queries: usize,
    /// Milliseconds since learned state last reached disk (time since
    /// boot when nothing has been written yet).
    pub checkpoint_age_ms: u64,
    /// Whether this boot adopted a prior generation's state.
    pub warm_restart: bool,
}

struct LearnerInner {
    epoch: u64,
    refits: u64,
    completed: u64,
    censored_total: u64,
    fanout: u64,
    est: EmpiricalEstimator,
    fitted: Option<(f64, f64)>,
    window: SlidingWindow,
    passes_since_refit: u64,
    passes_since_ckpt: u64,
    last_ckpt: Instant,
}

/// See the module docs.
pub struct MeshLearner {
    dir: PathBuf,
    warm: bool,
    inner: Mutex<LearnerInner>,
}

impl MeshLearner {
    /// Opens (or cold-starts) the learner in `cfg.dir`, adopting the
    /// newest valid checkpoint generation if one decodes.
    #[must_use]
    pub fn open(cfg: &CheckpointConfig) -> Self {
        let loaded = checkpoint::load(&cfg.dir);
        let warm = loaded.checkpoint.is_some();
        let ckpt = loaded.checkpoint.as_ref();
        let stage = ckpt.and_then(|c| c.stages.first());
        let inner = LearnerInner {
            epoch: ckpt.map_or(0, |c| c.epoch),
            refits: ckpt.map_or(0, |c| c.refits),
            completed: ckpt.map_or(0, |c| c.completed),
            censored_total: stage.map_or(0, |s| s.censored),
            fanout: stage.map_or(0, |s| s.fanout),
            est: stage.map_or_else(
                || EmpiricalEstimator::new(Model::LogNormal),
                |s| EmpiricalEstimator::restore(Model::LogNormal, &s.stats),
            ),
            fitted: stage.and_then(|s| s.fitted),
            window: SlidingWindow::new(WINDOW_BLOCK_LEN, WINDOW_BLOCKS),
            passes_since_refit: 0,
            passes_since_ckpt: 0,
            last_ckpt: clock::now(),
        };
        Self {
            dir: cfg.dir.clone(),
            warm,
            inner: Mutex::new(inner),
        }
    }

    /// Folds one aggregation pass in: delivered leaf durations plus the
    /// right-censoring threshold of each leaf still missing at
    /// departure. Refits and checkpoints on their cadences.
    pub fn observe_pass(
        &self,
        fanout: usize,
        observed: &[(usize, f64)],
        censored_at: f64,
        censored: usize,
    ) {
        let mut inner = self.inner.lock().unpoisoned();
        inner.fanout = fanout as u64;
        inner.completed += 1;
        inner.censored_total += censored as u64;
        inner.passes_since_refit += 1;
        inner.passes_since_ckpt += 1;
        for &(_, d) in observed {
            inner.est.observe(d);
            inner.window.observe(d);
        }
        for _ in 0..censored {
            inner.window.observe_censored(censored_at);
        }
        if inner.passes_since_refit >= REFIT_PASSES {
            if let Some(fit) = inner.window.fit() {
                inner.fitted = Some((fit.mu, fit.sigma));
                inner.epoch += 1;
                inner.refits += 1;
                inner.passes_since_refit = 0;
            }
        }
        if inner.passes_since_ckpt >= CHECKPOINT_PASSES {
            self.write_checkpoint(&mut inner);
        }
    }

    /// Forces a checkpoint write (shutdown path).
    pub fn checkpoint_now(&self) {
        let mut inner = self.inner.lock().unpoisoned();
        self.write_checkpoint(&mut inner);
    }

    fn write_checkpoint(&self, inner: &mut LearnerInner) {
        let ckpt = Checkpoint {
            epoch: inner.epoch,
            completed: inner.completed,
            refits: inner.refits,
            written_unix_ms: clock::unix_us() / 1000,
            stages: vec![StageCheckpoint {
                fanout: inner.fanout,
                fitted: inner.fitted,
                stats: inner.est.stats(),
                censored: inner.censored_total,
            }],
        };
        if checkpoint::store(&self.dir, &ckpt).is_ok() {
            inner.passes_since_ckpt = 0;
            inner.last_ckpt = clock::now();
        }
    }

    /// Durability fields for the `stats` op.
    #[must_use]
    pub fn stats(&self) -> LearnerStats {
        let inner = self.inner.lock().unpoisoned();
        LearnerStats {
            epoch: inner.epoch,
            refits: inner.refits,
            completed: inner.completed,
            priors_age_queries: inner.passes_since_refit as usize,
            checkpoint_age_ms: inner.last_ckpt.elapsed().as_millis() as u64,
            warm_restart: self.warm,
        }
    }
}

impl std::fmt::Debug for MeshLearner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeshLearner")
            .field("dir", &self.dir)
            .field("warm", &self.warm)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(n: usize) -> Vec<(usize, f64)> {
        (0..n).map(|i| (i, 2.0 + 0.1 * i as f64)).collect()
    }

    #[test]
    fn refits_and_checkpoints_on_cadence_then_warm_restarts() {
        let dir = std::env::temp_dir().join(format!("cedar-learner-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CheckpointConfig::new(&dir);
        let learner = MeshLearner::open(&cfg);
        assert!(!learner.stats().warm_restart);
        for _ in 0..CHECKPOINT_PASSES {
            learner.observe_pass(4, &pass(4), 50.0, 1);
        }
        let s = learner.stats();
        assert!(s.refits >= 1, "refit cadence should have fired: {s:?}");
        assert_eq!(s.completed, CHECKPOINT_PASSES);

        // A fresh open adopts the persisted generation.
        let reborn = MeshLearner::open(&cfg);
        let rs = reborn.stats();
        assert!(rs.warm_restart);
        assert_eq!(rs.completed, s.completed);
        assert_eq!(rs.epoch, s.epoch);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn steady_censoring_keeps_its_share_of_the_window() {
        // One leaf in twenty never arrives, pass after pass, for three
        // window turnovers. Thresholds expire with the observations they
        // arrived among, so the window's censored share stays 5 % and the
        // fit stays put; trimmed on their own they would outlive twenty
        // times as many passes and drag the fit toward the threshold.
        let dir = std::env::temp_dir().join(format!("cedar-learner-cens-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let learner = MeshLearner::open(&CheckpointConfig::new(&dir));
        let turnover = WINDOW_BLOCK_LEN * WINDOW_BLOCKS / 20 + 1;
        let mut after_first = None;
        for i in 0..3 * turnover {
            learner.observe_pass(20, &pass(19), 50.0, 1);
            if i + 1 == turnover {
                after_first = learner.inner.lock().unpoisoned().fitted;
            }
        }
        let inner = learner.inner.lock().unpoisoned();
        let share = inner.window.censored() as f64 / inner.window.len() as f64;
        assert!((0.04..=0.06).contains(&share), "censored share {share}");
        let (mu0, _) = after_first.expect("refit cadence fired in the first turnover");
        let (mu, _) = inner.fitted.expect("and kept firing");
        assert!((mu - mu0).abs() < 0.01, "fit drifted {mu0} -> {mu}");
        drop(inner);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_now_writes_even_mid_cadence() {
        let dir = std::env::temp_dir().join(format!("cedar-learner-now-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CheckpointConfig::new(&dir);
        let learner = MeshLearner::open(&cfg);
        learner.observe_pass(4, &pass(4), 50.0, 0);
        learner.checkpoint_now();
        assert!(MeshLearner::open(&cfg).stats().warm_restart);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
