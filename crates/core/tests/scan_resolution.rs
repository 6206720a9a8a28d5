//! The scan resolution a prepared context chooses loses at most
//! [`SCAN_TOLERANCE`] of expected quality on a query that differs from
//! the context's prior.
//!
//! A context is prepared from a prior stage; the query's stage is the
//! prior shifted by up to half its spread and narrowed to between half
//! and all of it — what an online estimate of one query's stage looks
//! like against a population prior, which mixes query-to-query variation
//! into its spread. The wait the context's grid picks for the query is
//! evaluated on a 4 800-step grid, nested in the 300-step reference, and
//! must come within δ of that grid's optimum.

use cedar_core::profile::ProfileConfig;
use cedar_core::quality::{quality_gain, quality_loss};
use cedar_core::wait::{REFERENCE_SCAN_STEPS, SCAN_TOLERANCE};
use cedar_core::{PreparedContexts, StageSpec, TreeSpec, WaitPolicyKind};
use cedar_distrib::{ContinuousDist, Gamma, LogNormal, Mixture, Normal};
use cedar_estimate::Model;
use cedar_mathx::KahanSum;
use proptest::prelude::*;
use std::sync::Arc;

/// Steps of the grid the chosen wait is judged on.
const FINE_STEPS: usize = 16 * REFERENCE_SCAN_STEPS;

/// A stage of `family` (log-normal, normal, gamma, or a two-component
/// log-normal mixture) at `location` with `spread`: log-scale for the
/// log-normal families, the mean and standard deviation otherwise.
fn stage(family: usize, location: f64, spread: f64) -> Arc<dyn ContinuousDist> {
    match family {
        0 => Arc::new(LogNormal::new(location, spread).unwrap()),
        1 => Arc::new(Normal::new(location, spread).unwrap()),
        2 => Arc::new(Gamma::from_mean_stddev(location, spread).unwrap()),
        _ => Arc::new(
            Mixture::new(vec![
                (
                    0.7,
                    Box::new(LogNormal::new(location, spread).unwrap()) as _,
                ),
                (
                    0.3,
                    Box::new(LogNormal::new(location + 1.0, spread).unwrap()) as _,
                ),
            ])
            .unwrap(),
        ),
    }
}

/// The scan's running quality at each step of an `n`-step grid over
/// `[0, deadline]`: the expected quality of departing at that step.
fn running_quality(
    lower: &dyn ContinuousDist,
    fanout: usize,
    q_up: impl Fn(f64) -> f64,
    deadline: f64,
    n: usize,
) -> Vec<f64> {
    let eps = deadline / n as f64;
    let mut running = KahanSum::new();
    let (mut f_prev, mut q_prev) = (lower.cdf(0.0), q_up(deadline));
    (0..n)
        .map(|i| {
            let t = ((i + 1) as f64 * eps).min(deadline);
            let (f, q) = (lower.cdf(t), q_up(deadline - t));
            running.add(quality_gain(f_prev, f, q) - quality_loss(f_prev, fanout, q_prev, q));
            (f_prev, q_prev) = (f, q);
            running.value()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_chosen_grid_loses_at_most_the_tolerance(
        family in 0..4usize,
        location in 0.0..1.0f64,
        spread in 0.0..1.0f64,
        upper_mu in 2.0..4.5f64,
        upper_sigma in 0.2..1.2f64,
        fanout in 2..100usize,
        slack in 0.8..4.0f64,
        shift in -0.5..0.5f64,
        narrowing in 0.5..1.0f64,
    ) {
        let log_scale = family == 0 || family == 3;
        let (location, spread) = if log_scale {
            (2.0 + 2.5 * location, 0.2 + spread)
        } else {
            let mean = 10.0 + 90.0 * location;
            (mean, mean * (0.1 + 0.4 * spread))
        };
        let prior = stage(family, location, spread);
        let query = stage(family, location + shift * spread, narrowing * spread);
        let upper = LogNormal::new(upper_mu, upper_sigma).unwrap();
        let deadline = (prior.quantile(0.5) + upper.quantile(0.5)) * slack;
        let tree = TreeSpec::two_level(
            StageSpec { dist: prior, fanout },
            StageSpec::new(upper, 10),
        );
        let prepared = PreparedContexts::new(
            &tree,
            deadline,
            WaitPolicyKind::Cedar,
            Model::LogNormal,
            REFERENCE_SCAN_STEPS,
            &ProfileConfig::default(),
        );
        let ctx = &prepared.contexts()[0];
        prop_assert!(REFERENCE_SCAN_STEPS.is_multiple_of(ctx.scan_steps));

        let wait = ctx.scan(&*query).wait;
        let fine = running_quality(&*query, fanout, |rem| ctx.upper.eval(rem), deadline, FINE_STEPS);
        let best = fine.iter().fold(0.0f64, |a, &q| a.max(q));
        let at_wait = if wait > 0.0 {
            fine[(wait * FINE_STEPS as f64 / deadline).round() as usize - 1]
        } else {
            0.0
        };
        prop_assert!(
            best - at_wait <= SCAN_TOLERANCE,
            "{} steps lose {:e}: wait {wait} of D = {deadline}",
            ctx.scan_steps,
            best - at_wait
        );
    }
}
