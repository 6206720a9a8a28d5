//! Shared per-level policy-context preparation, used by both execution
//! backends (the discrete-event simulator and the tokio runtime).
//!
//! The expensive part of a context — the upper-level quality profiles and
//! the offline wait chain — depends only on the *prior* (population) tree,
//! the deadline, and the policy, so it is built once per workload and
//! reused across queries. Per query, only the true bottom-stage
//! distribution (and the oracle's arrival chain above it) changes.

use crate::policy::{PolicyContext, WaitPolicyKind};
use crate::profile::{ProfileConfig, QualityProfile};
use crate::tree::TreeSpec;
use cedar_distrib::{ContinuousDist, Shifted};
use cedar_estimate::Model;
use std::sync::Arc;

/// An arrival-time distribution: the stage-duration distribution shifted
/// by the expected wait accumulated below it.
fn shifted_arrival(dist: Arc<dyn ContinuousDist>, wait_below: f64) -> Arc<dyn ContinuousDist> {
    debug_assert!(wait_below.is_finite(), "policy produced a non-finite wait");
    // cedar-lint: allow(L4): initial_wait returns a point off a finite scan grid, so the offset is always finite
    Arc::new(Shifted::new(dist, wait_below).expect("finite wait offset"))
}

/// Per-level policy contexts with the prior-dependent parts filled in.
///
/// The contexts belong to the policy `kind` they were built for: the
/// prior arrival chain embeds that policy's own initial waits. Every
/// caller runs the kind it prepared with: the service, the in-process
/// engine and the mesh node (through `run_pass`), and the simulator —
/// each handing one context per aggregator to an
/// [`AggregatorState`](crate::AggregatorState).
#[derive(Debug, Clone)]
pub struct PreparedContexts {
    contexts: Vec<PolicyContext>,
    kind: WaitPolicyKind,
    model: Model,
}

impl PreparedContexts {
    /// Builds the per-level policy contexts from the prior tree, chaining
    /// expected departure waits so that upper levels see arrival-time
    /// (not stage-duration) distributions.
    pub fn new(
        priors: &TreeSpec,
        deadline: f64,
        kind: WaitPolicyKind,
        model: Model,
        scan_steps: usize,
        profile: &ProfileConfig,
    ) -> Self {
        let n = priors.levels();
        let agg_levels = n.saturating_sub(1);
        let mut contexts = Vec::with_capacity(agg_levels);
        let mean_total: f64 = priors.total_mean();

        let mut prior_wait_below = 0.0f64;
        let mut mean_below = 0.0f64;

        for level in 1..=agg_levels {
            let stage_idx = level - 1;
            mean_below += priors.stage(stage_idx).dist.mean();
            let upper = Arc::new(QualityProfile::for_tree_above(
                priors,
                level,
                deadline.max(f64::MIN_POSITIVE),
                profile,
            ));
            let prior_lower: Arc<dyn ContinuousDist> = if level == 1 {
                priors.stage(0).dist.clone()
            } else {
                shifted_arrival(priors.stage(stage_idx).dist.clone(), prior_wait_below)
            };

            let ctx = PolicyContext {
                deadline,
                fanout: priors.stage(stage_idx).fanout,
                upper,
                prior_lower,
                true_lower: None,
                mean_below,
                mean_total,
                level,
                levels_total: n,
                scan_steps,
                qup_grid: std::sync::OnceLock::new(),
                prior_decision: std::sync::OnceLock::new(),
            };

            // Chain the expected wait for the next level's arrival-time
            // distribution: what this policy picks before any arrivals.
            // A scanning policy's probe also fills the context's memoized
            // upstream-quality grid and its prior decision, so every query
            // cloned from this context shares one pre-built table and
            // starts every aggregator without a scan.
            let mut probe = kind.instantiate(ctx.fanout, model);
            prior_wait_below = probe.initial_wait(&ctx);

            contexts.push(ctx);
        }
        Self {
            contexts,
            kind,
            model,
        }
    }

    /// Clones the contexts for one query. When they were prepared for the
    /// Ideal oracle — the only policy that reads `true_lower` — also fills
    /// in the query's true arrival-time distributions, chained through
    /// the oracle's own per-level waits; any other kind gets the clones
    /// as they are, without paying for oracle scans nobody reads.
    ///
    /// # Panics
    ///
    /// Panics if `true_tree`'s shape (level count or fan-outs) differs
    /// from the prior tree these contexts were built for — a silent
    /// mismatch would hand estimators the wrong fan-out or index out of
    /// bounds deep inside the engines.
    pub fn for_query(&self, true_tree: &TreeSpec) -> Vec<PolicyContext> {
        assert_eq!(
            true_tree.levels(),
            self.contexts.len() + 1,
            "query tree level count differs from the prior tree's"
        );
        for ctx in &self.contexts {
            assert_eq!(
                true_tree.stage(ctx.level - 1).fanout,
                ctx.fanout,
                "query tree fan-out differs from the prior tree's at level {}",
                ctx.level
            );
        }
        let mut contexts = self.contexts.clone();
        if self.kind != WaitPolicyKind::Ideal {
            return contexts;
        }
        let levels = contexts.len();
        let mut true_wait_below = 0.0f64;
        for (stage_idx, ctx) in contexts.iter_mut().enumerate() {
            let true_lower: Arc<dyn ContinuousDist> = if ctx.level == 1 {
                true_tree.stage(0).dist.clone()
            } else {
                shifted_arrival(true_tree.stage(stage_idx).dist.clone(), true_wait_below)
            };
            ctx.true_lower = Some(true_lower);
            // The oracle's wait here only shifts the next level's
            // arrivals; above the top level there is nothing to shift.
            if stage_idx + 1 < levels {
                let mut oracle = WaitPolicyKind::Ideal.instantiate(ctx.fanout, self.model);
                true_wait_below = oracle.initial_wait(ctx);
            }
        }
        contexts
    }

    /// Number of aggregator levels covered.
    pub fn levels(&self) -> usize {
        self.contexts.len()
    }

    /// The prior-only contexts (no `true_lower` set).
    pub fn contexts(&self) -> &[PolicyContext] {
        &self.contexts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::StageSpec;
    use cedar_distrib::LogNormal;

    fn tree() -> TreeSpec {
        TreeSpec::two_level(
            StageSpec::new(LogNormal::new(1.0, 0.7).unwrap(), 10),
            StageSpec::new(LogNormal::new(1.2, 0.4).unwrap(), 8),
        )
    }

    #[test]
    fn prepares_one_context_per_aggregator_level() {
        let p = PreparedContexts::new(
            &tree(),
            25.0,
            WaitPolicyKind::Cedar,
            Model::LogNormal,
            100,
            &ProfileConfig::default(),
        );
        assert_eq!(p.levels(), 1);
        let ctxs = p.contexts();
        assert_eq!(ctxs[0].fanout, 10);
        assert!(ctxs[0].true_lower.is_none());
    }

    #[test]
    fn for_query_fills_true_lower() {
        let p = PreparedContexts::new(
            &tree(),
            25.0,
            WaitPolicyKind::Ideal,
            Model::LogNormal,
            100,
            &ProfileConfig::default(),
        );
        let truth = tree().with_bottom_dist(std::sync::Arc::new(LogNormal::new(2.5, 0.7).unwrap()));
        let ctxs = p.for_query(&truth);
        let tl = ctxs[0].true_lower.as_ref().unwrap();
        assert!((tl.mean() - LogNormal::new(2.5, 0.7).unwrap().mean()).abs() < 1e-9);
    }

    #[test]
    fn cloned_contexts_start_from_the_memoized_prior_scan() {
        // The probe fills each context's prior decision; a clone carries
        // it, and starting a policy on the clone returns exactly what a
        // fresh scan of the prior would.
        for (tree, deadline) in [(tree(), 25.0), (three_levels(), 60.0), (tree(), 1e7)] {
            let p = PreparedContexts::new(
                &tree,
                deadline,
                WaitPolicyKind::Cedar,
                Model::LogNormal,
                300,
                &ProfileConfig::default(),
            );
            for ctx in p.for_query(&tree) {
                assert!(ctx.prior_decision.get().is_some(), "level {}", ctx.level);
                let fresh = ctx.scan(&ctx.prior_lower);
                for kind in [WaitPolicyKind::Cedar, WaitPolicyKind::CedarOffline] {
                    let wait = kind
                        .instantiate(ctx.fanout, Model::LogNormal)
                        .initial_wait(&ctx);
                    assert_eq!(wait.to_bits(), fresh.wait.to_bits(), "{kind:?}");
                }
                assert_eq!(ctx.prior_scan(), fresh);
            }
        }
    }

    fn three_levels() -> TreeSpec {
        TreeSpec::new(vec![
            StageSpec::new(LogNormal::new(1.0, 0.7).unwrap(), 6),
            StageSpec::new(LogNormal::new(1.2, 0.4).unwrap(), 4),
            StageSpec::new(LogNormal::new(1.2, 0.4).unwrap(), 3),
        ])
    }

    #[test]
    fn three_level_chains_shifted_arrivals() {
        let t = three_levels();
        let p = PreparedContexts::new(
            &t,
            60.0,
            WaitPolicyKind::Cedar,
            Model::LogNormal,
            100,
            &ProfileConfig::default(),
        );
        assert_eq!(p.levels(), 2);
        // Level-2 prior arrivals embed level-1's wait: its mean exceeds
        // the raw stage-2 mean.
        let raw_mean = t.stage(1).dist.mean();
        assert!(p.contexts()[1].prior_lower.mean() > raw_mean);
    }

    #[test]
    fn ideal_chains_true_lower_through_the_oracle_waits() {
        let t = three_levels();
        let p = PreparedContexts::new(
            &t,
            60.0,
            WaitPolicyKind::Ideal,
            Model::LogNormal,
            100,
            &ProfileConfig::default(),
        );
        let truth = t.with_bottom_dist(Arc::new(LogNormal::new(2.5, 0.7).unwrap()));
        let ctxs = p.for_query(&truth);
        assert_eq!(ctxs.len(), 2);
        // Level 1 sees the true bottom stage as is.
        let bottom = ctxs[0].true_lower.as_ref().unwrap();
        assert_eq!(bottom.cdf(9.0), truth.stage(0).dist.cdf(9.0));
        // Level 2 sees stage 1 shifted by exactly the wait the oracle
        // picks at level 1 against that true distribution.
        let mut oracle = WaitPolicyKind::Ideal.instantiate(ctxs[0].fanout, Model::LogNormal);
        let wait = oracle.initial_wait(&ctxs[0]);
        assert!(wait > 0.0 && wait < 60.0);
        let upper = ctxs[1].true_lower.as_ref().unwrap();
        let stage1 = &truth.stage(1).dist;
        assert_eq!(upper.mean(), stage1.mean() + wait);
        for t in [wait + 1.0, wait + 3.5, wait + 20.0] {
            assert_eq!(upper.cdf(t), stage1.cdf(t - wait));
        }
    }

    #[test]
    fn other_kinds_skip_the_oracle_chain() {
        let t = three_levels();
        let p = PreparedContexts::new(
            &t,
            60.0,
            WaitPolicyKind::Cedar,
            Model::LogNormal,
            100,
            &ProfileConfig::default(),
        );
        let truth = t.with_bottom_dist(Arc::new(LogNormal::new(2.5, 0.7).unwrap()));
        for (ctx, prior) in p.for_query(&truth).iter().zip(p.contexts()) {
            assert!(ctx.true_lower.is_none());
            assert_eq!(ctx.prior_lower.mean(), prior.prior_lower.mean());
        }
    }
}
