//! A bounded sliding window of log-normal sufficient statistics: what a
//! long-running learner keeps instead of its raw sample history.
//!
//! The window is a ring of fixed-size **blocks**. A block holds the
//! log-domain [`Moments`] (count, mean, centred sum of squares; Welford's
//! update per sample) of the durations that arrived while it was open,
//! plus the raw right-censoring thresholds that arrived with them.
//! [`SlidingWindow::observe`] takes one `ln` at ingest and nothing else
//! ever touches the sample again; [`SlidingWindow::fit`] merges the block
//! moments pairwise (Chan et al.) and returns the closed-form MLE, or —
//! when any threshold is in the window — runs the censored-likelihood
//! Newton solver of [`crate::censored`] with the observed side reduced to
//! the merged moments, so an iteration costs `O(#censored)`, not `O(n)`.
//! A refit therefore costs the same whether the window holds a hundred
//! samples or its full capacity.
//!
//! Why blocks rather than one running sum with add-newest /
//! subtract-oldest: subtraction needs the oldest raw samples kept anyway,
//! and removing a term from a centred sum of squares cancels — the error
//! of every removal stays in the sum for the life of the process. Merging
//! only ever adds non-negative terms, and an expired block is dropped
//! whole, so the window's statistics are exactly those of the samples it
//! retains.
//!
//! Behaviour a caller should know (each pinned by a test below):
//!
//! 1. The window slides in whole blocks and is trimmed **at ingest**: it
//!    holds between `capacity − block_len` and `capacity` entries once
//!    full, whether or not anyone ever calls `fit`.
//! 2. A censoring threshold expires **with the block it arrived in**, so
//!    the censored share of the window is the censored share of the
//!    traffic that filled it. (Trimming observations and thresholds to
//!    the same length independently makes a 5 % crash rate look like
//!    50 % censoring once both vectors are full.)
//! 3. A non-finite or non-positive duration or threshold is skipped at
//!    ingest — it has no logarithm, and one such sample must not poison
//!    every fit until it slides out.
//! 4. `fit` is `O(blocks + #censored)`, independent of how full the
//!    window is.

use crate::censored::solve_censored;
use crate::{Model, ParamEstimate};
use std::collections::VecDeque;

/// Count, mean and centred sum of squares `Σ(y − ȳ)²` of a sample: the
/// sufficient statistics of a normal likelihood.
///
/// The mean is kept relative to the first value folded in, so a sample
/// clustered tightly far from zero (`sigma ≪ |mean|`) keeps its digits:
/// every update works on numbers of the spread's magnitude.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Moments {
    n: u64,
    /// The first value folded in.
    origin: f64,
    /// Mean of `y − origin`.
    offset: f64,
    m2: f64,
}

impl Moments {
    /// Folds one value in (Welford's update).
    pub(crate) fn push(&mut self, y: f64) {
        if self.n == 0 {
            self.origin = y;
        }
        self.n += 1;
        let c = y - self.origin;
        let d = c - self.offset;
        self.offset += d / self.n as f64;
        self.m2 += d * (c - self.offset);
    }

    /// Folds another sample's moments in (Chan et al.'s pairwise update):
    /// only non-negative terms are added, so nothing cancels.
    pub(crate) fn merge(&mut self, other: &Self) {
        if self.n == 0 {
            *self = *other;
        } else if other.n > 0 {
            let n = self.n + other.n;
            let d = (other.origin - self.origin) + other.offset - self.offset;
            let share = other.n as f64 / n as f64;
            self.m2 += other.m2 + d * d * self.n as f64 * share;
            self.offset += d * share;
            self.n = n;
        }
    }

    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    pub(crate) fn mean(&self) -> f64 {
        self.origin + self.offset
    }

    pub(crate) fn m2(&self) -> f64 {
        self.m2
    }

    /// The uncensored normal MLE `(mean, population stddev)`; `None`
    /// below two values or at zero variance.
    fn mle(&self) -> Option<(f64, f64)> {
        let sigma = (self.m2 / self.n as f64).sqrt();
        (self.n >= 2 && sigma > 0.0).then_some((self.mean(), sigma))
    }
}

/// What arrived while one block was open.
#[derive(Debug, Clone, Default)]
struct Block {
    observed: Moments,
    /// Log-domain right-censoring thresholds.
    censored: Vec<f64>,
}

impl Block {
    fn len(&self) -> usize {
        self.observed.n as usize + self.censored.len()
    }
}

/// `ln x` for a usable duration; `None` for one with no logarithm.
pub(crate) fn log_of(x: f64) -> Option<f64> {
    (x.is_finite() && x > 0.0).then(|| x.ln())
}

/// The sliding window; see the module docs.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    block_len: usize,
    max_blocks: usize,
    /// Oldest block at the front, the open one at the back; never longer
    /// than `max_blocks`.
    blocks: VecDeque<Block>,
}

impl SlidingWindow {
    /// A window of at most `max_blocks` blocks of `block_len` entries
    /// each (both at least 1). The ring is sized here; `observe` never
    /// allocates.
    pub fn new(block_len: usize, max_blocks: usize) -> Self {
        let max_blocks = max_blocks.max(1);
        Self {
            block_len: block_len.max(1),
            max_blocks,
            blocks: VecDeque::with_capacity(max_blocks),
        }
    }

    /// The most entries (observed plus censored) the window retains.
    pub fn capacity(&self) -> usize {
        self.block_len.saturating_mul(self.max_blocks)
    }

    /// Entries currently retained, observed plus censored.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// Whether nothing usable has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fully observed durations currently retained.
    pub fn observed(&self) -> usize {
        self.blocks.iter().map(|b| b.observed.n as usize).sum()
    }

    /// Right-censoring thresholds currently retained.
    pub fn censored(&self) -> usize {
        self.blocks.iter().map(|b| b.censored.len()).sum()
    }

    /// Records a completed duration.
    pub fn observe(&mut self, duration: f64) {
        if let Some(y) = log_of(duration) {
            self.open_block().observed.push(y);
        }
    }

    /// Records a duration known only to exceed `threshold` (a task that
    /// had not arrived when its aggregator departed, or crashed).
    pub fn observe_censored(&mut self, threshold: f64) {
        if let Some(c) = log_of(threshold) {
            self.open_block().censored.push(c);
        }
    }

    /// The block the next entry belongs to: the newest one, or — when
    /// that is full — a fresh one, taking the oldest block's place once
    /// the ring is at its cap.
    fn open_block(&mut self) -> &mut Block {
        let has_room = self.blocks.back().is_some_and(|b| b.len() < self.block_len);
        if !has_room {
            // At the cap the oldest block is recycled as the newest, its
            // threshold buffer keeping its capacity.
            let mut block = if self.blocks.len() < self.max_blocks {
                Block::default()
            } else {
                self.blocks.pop_front().unwrap_or_default()
            };
            block.observed = Moments::default();
            block.censored.clear();
            self.blocks.push_back(block);
        }
        let last = self.blocks.len() - 1;
        &mut self.blocks[last]
    }

    /// The log-normal MLE over what the window retains: closed form
    /// without censoring, the censored-likelihood solver otherwise
    /// (falling back to the closed form should the iteration diverge).
    /// `None` below two observed durations or at zero variance.
    pub fn fit(&self) -> Option<ParamEstimate> {
        let mut observed = Moments::default();
        for b in &self.blocks {
            observed.merge(&b.observed);
        }
        let thresholds = self
            .blocks
            .iter()
            .flat_map(|b| b.censored.iter().map(|&c| (c, 1.0)));
        let censored_fit = if self.censored() > 0 {
            solve_censored(&observed, thresholds, None)
        } else {
            None
        };
        let (mu, sigma) = censored_fit.or_else(|| observed.mle())?;
        Some(ParamEstimate {
            model: Model::LogNormal,
            mu,
            sigma,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_distrib::fit::fit_lognormal_mle;
    use cedar_distrib::{ContinuousDist, LogNormal};
    use cedar_mathx::special::{norm_pdf, norm_sf};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// The window slides in whole blocks over an ordered stream, so what
    /// it retains is the newest `len()` usable entries.
    fn retained<'a>(w: &SlidingWindow, usable: &'a [f64]) -> &'a [f64] {
        &usable[usable.len() - w.len()..]
    }

    /// `fit()` against `fit_lognormal_mle` over exactly the retained
    /// samples, to 1e-9 relative in `mu` and `sigma`.
    fn check_against_reference(
        block_len: usize,
        max_blocks: usize,
        data: &[f64],
    ) -> TestCaseResult {
        let mut w = SlidingWindow::new(block_len, max_blocks);
        for &x in data {
            w.observe(x);
        }
        prop_assert!(w.len() <= w.capacity());
        let kept = retained(&w, data);
        let Ok(reference) = fit_lognormal_mle(kept) else {
            prop_assert!(w.fit().is_none(), "{:?}", w.fit());
            return Ok(());
        };
        let got = w.fit().expect("the reference fitted the same samples");
        prop_assert!(
            (got.mu - reference.mu()).abs() <= 1e-9 * reference.mu().abs().max(1.0),
            "mu {} vs {}",
            got.mu,
            reference.mu()
        );
        prop_assert!(
            (got.sigma - reference.sigma()).abs() <= 1e-9 * reference.sigma(),
            "sigma {} vs {}",
            got.sigma,
            reference.sigma()
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn fit_equals_the_mle_of_the_retained_samples(
            block_len in 1usize..40,
            max_blocks in 1usize..12,
            data in prop::collection::vec(0.001..10_000.0f64, 0..600),
        ) {
            check_against_reference(block_len, max_blocks, &data)?;
        }

        #[test]
        fn tight_clusters_do_not_cancel(
            block_len in 1usize..40,
            max_blocks in 1usize..12,
            base in 0.5..5_000.0f64,
            jitter in prop::collection::vec(0.0..1.0f64, 2..600),
        ) {
            // sigma of the logs ~ 3e-7 around a mean of order one: a raw
            // `Σy² − (Σy)²/n` keeps no digit of it.
            let data: Vec<f64> = jitter.iter().map(|j| base * (1.0 + 1e-6 * j)).collect();
            check_against_reference(block_len, max_blocks, &data)?;
        }
    }

    /// Brute-force gradient of the raw-sample censored log-likelihood in
    /// `(mu, ln sigma)`, sharing nothing with the solver.
    fn raw_gradient(observed: &[f64], thresholds: &[f64], mu: f64, sigma: f64) -> (f64, f64) {
        let (mut g_mu, mut g_ls) = (0.0, 0.0);
        for x in observed {
            let z = (x.ln() - mu) / sigma;
            g_mu += z / sigma;
            g_ls += z * z - 1.0;
        }
        for c in thresholds {
            let z = (c.ln() - mu) / sigma;
            let hazard = norm_pdf(z) / norm_sf(z);
            g_mu += hazard / sigma;
            g_ls += z * hazard;
        }
        (g_mu, g_ls)
    }

    #[test]
    fn censored_fit_is_a_stationary_point_of_the_raw_likelihood() {
        let parent = LogNormal::new(2.0, 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let cutoff = parent.quantile(0.7);
        // (value, censored?) in arrival order: the slow 30 % are known
        // only to exceed the cutoff.
        let stream: Vec<(f64, bool)> = parent
            .sample_vec(&mut rng, 5_000)
            .into_iter()
            .map(|x| {
                if x < cutoff {
                    (x, false)
                } else {
                    (cutoff, true)
                }
            })
            .collect();
        let mut w = SlidingWindow::new(100, 30);
        for &(x, censored) in &stream {
            if censored {
                w.observe_censored(x);
            } else {
                w.observe(x);
            }
        }
        assert_eq!(w.len(), 3_000, "20 of the 50 blocks expired");
        let kept = &stream[stream.len() - w.len()..];
        let pick =
            |want: bool| -> Vec<f64> { kept.iter().filter(|e| e.1 == want).map(|e| e.0).collect() };
        let (observed, thresholds) = (pick(false), pick(true));
        assert_eq!(observed.len(), w.observed());
        assert_eq!(thresholds.len(), w.censored());

        let fit = w.fit().unwrap();
        let (g_mu, g_ls) = raw_gradient(&observed, &thresholds, fit.mu, fit.sigma);
        let tol = 1e-6 * kept.len() as f64;
        assert!(
            g_mu.abs() < tol && g_ls.abs() < tol,
            "gradient ({g_mu}, {g_ls})"
        );
        // And it is the slice wrapper's answer too: one solver.
        let slice = crate::fit_right_censored(Model::LogNormal, &observed, &thresholds).unwrap();
        assert!((fit.mu - slice.mu).abs() < 1e-9 && (fit.sigma - slice.sigma).abs() < 1e-9);
        assert!((fit.mu - 2.0).abs() < 0.1, "mu {}", fit.mu);
    }

    #[test]
    fn thresholds_expire_with_their_block() {
        // 5 % censoring sustained for three window turnovers: the window's
        // censored share stays the traffic's. Trimming observations and
        // thresholds to one length independently would read ~50 % here.
        let mut w = SlidingWindow::new(100, 20);
        for i in 0..3 * 2_000 {
            if i % 20 == 19 {
                w.observe_censored(50.0);
            } else {
                w.observe(1.0 + (i % 7) as f64);
            }
            if i >= 2_000 {
                let share = w.censored() as f64 / w.len() as f64;
                assert!((0.04..=0.06).contains(&share), "entry {i}: share {share}");
            }
        }
    }

    #[test]
    fn window_is_bounded_at_ingest() {
        let mut w = SlidingWindow::new(50, 8);
        assert!(w.is_empty());
        let ring = w.blocks.capacity();
        for i in 0..10 * w.capacity() {
            w.observe(1.0 + (i % 13) as f64);
            assert!(w.len() <= w.capacity());
            assert!(w.blocks.len() <= 8);
        }
        // Whole blocks slide: never more than one block short of full.
        assert!(w.len() > w.capacity() - 50);
        assert_eq!(w.blocks.len(), 8);
        assert_eq!(w.blocks.capacity(), ring, "the ring never regrew");
    }

    #[test]
    fn unusable_samples_are_skipped_at_ingest() {
        let good = [2.0, 3.5, 1.25, 8.0, 4.0, 2.75];
        let mut clean = SlidingWindow::new(4, 4);
        let mut dirty = SlidingWindow::new(4, 4);
        for (i, &x) in good.iter().enumerate() {
            clean.observe(x);
            dirty.observe(x);
            let bad = [0.0, -1.0, f64::NAN, f64::INFINITY][i % 4];
            dirty.observe(bad);
            dirty.observe_censored(bad);
        }
        assert_eq!(dirty.len(), good.len());
        assert_eq!(dirty.fit(), clean.fit());
        assert!(clean.fit().is_some());
    }

    #[test]
    fn fit_needs_two_observations_and_some_variance() {
        let mut w = SlidingWindow::new(4, 2);
        assert!(w.fit().is_none());
        w.observe(3.0);
        w.observe_censored(9.0);
        assert!(
            w.fit().is_none(),
            "one observation cannot fix two parameters"
        );
        w.observe(3.0);
        let mut flat = SlidingWindow::new(4, 2);
        flat.observe(3.0);
        flat.observe(3.0);
        assert!(flat.fit().is_none(), "zero variance has no log-normal MLE");
    }
}
