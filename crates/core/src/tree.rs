//! Aggregation-tree specifications.
//!
//! A tree is described bottom-up: stage 1 is the parallel processes, stage
//! `i > 1` the aggregators that combine stage `i-1`'s outputs. The
//! duration distribution `X_i` of a stage subsumes *all* sources of
//! variation at that level (compute, disk, network, scheduling) — the
//! paper's key modelling choice that makes Cedar agnostic to the cause of
//! stragglers.

use cedar_distrib::ContinuousDist;
use std::sync::Arc;

/// One stage of an aggregation tree: the duration distribution of its
/// nodes and the fan-out into each node of the stage above.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// Stage duration distribution (`X_i` in the paper).
    pub dist: Arc<dyn ContinuousDist>,
    /// Fan-out (`k_i`): number of stage-`i` nodes feeding one node of
    /// stage `i + 1`.
    pub fanout: usize,
}

impl StageSpec {
    /// Creates a stage from any distribution and fan-out.
    ///
    /// # Panics
    ///
    /// Panics if `fanout == 0`.
    pub fn new<D: ContinuousDist + 'static>(dist: D, fanout: usize) -> Self {
        assert!(fanout >= 1, "stage fan-out must be at least 1");
        Self {
            dist: Arc::new(dist),
            fanout,
        }
    }

    /// Creates a stage from an already-shared distribution.
    ///
    /// # Panics
    ///
    /// Panics if `fanout == 0`.
    pub fn from_arc(dist: Arc<dyn ContinuousDist>, fanout: usize) -> Self {
        assert!(fanout >= 1, "stage fan-out must be at least 1");
        Self { dist, fanout }
    }
}

/// A complete aggregation tree: `stages[0]` is the bottom-most (process)
/// stage, `stages[n-1]` the top-most (directly under the root).
///
/// The root itself is not a stage: it simply collects whatever arrives by
/// the deadline.
///
/// # Examples
///
/// ```
/// use cedar_core::{StageSpec, TreeSpec};
/// use cedar_distrib::LogNormal;
///
/// let tree = TreeSpec::two_level(
///     StageSpec::new(LogNormal::new(2.77, 0.84).unwrap(), 50),
///     StageSpec::new(LogNormal::new(2.94, 0.55).unwrap(), 50),
/// );
/// assert_eq!(tree.levels(), 2);
/// assert_eq!(tree.total_processes(), 2500);
/// ```
#[derive(Debug, Clone)]
pub struct TreeSpec {
    stages: Vec<StageSpec>,
}

impl TreeSpec {
    /// Builds a tree from bottom-up stage specs.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(stages: Vec<StageSpec>) -> Self {
        assert!(!stages.is_empty(), "a tree needs at least one stage");
        Self { stages }
    }

    /// Convenience constructor for the paper's canonical two-level tree.
    pub fn two_level(processes: StageSpec, aggregators: StageSpec) -> Self {
        Self::new(vec![processes, aggregators])
    }

    /// Number of stages (`n` in the paper).
    pub fn levels(&self) -> usize {
        self.stages.len()
    }

    /// The stages, bottom-up.
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// The `i`-th stage, 0-indexed from the bottom.
    pub fn stage(&self, i: usize) -> &StageSpec {
        &self.stages[i]
    }

    /// Total number of leaf processes: the product of all fan-outs.
    pub fn total_processes(&self) -> usize {
        self.stages.iter().map(|s| s.fanout).product()
    }

    /// Number of nodes at stage `i` (0-indexed): the product of the
    /// fan-outs of stages `i..n`.
    ///
    /// For the two-level 50x50 tree, stage 0 has 2500 processes and stage
    /// 1 has 50 aggregators.
    pub fn nodes_at(&self, i: usize) -> usize {
        self.stages[i..].iter().map(|s| s.fanout).product()
    }

    /// Global origin id of the first node at stage `i` (0-indexed). Leaf
    /// processes are origins `0..total_processes()`, then each aggregator
    /// level follows in turn, so node `j` of stage `i` is origin
    /// `origin_base(i) + j` — a numbering independent of scheduling, by
    /// which receivers dedupe and the ledger books.
    pub fn origin_base(&self, i: usize) -> usize {
        (0..i).map(|s| self.nodes_at(s)).sum()
    }

    /// Sum of stage mean durations — the denominator of the
    /// Proportional-split baseline.
    pub fn total_mean(&self) -> f64 {
        self.stages.iter().map(|s| s.dist.mean()).sum()
    }

    /// Returns a copy with the bottom stage's distribution replaced —
    /// how per-query variation enters a population-level tree spec.
    pub fn with_bottom_dist(&self, dist: Arc<dyn ContinuousDist>) -> Self {
        let mut stages = self.stages.clone();
        stages[0].dist = dist;
        Self { stages }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_distrib::{Exponential, LogNormal};

    fn fb_tree() -> TreeSpec {
        TreeSpec::two_level(
            StageSpec::new(LogNormal::new(2.77, 0.84).unwrap(), 50),
            StageSpec::new(LogNormal::new(2.94, 0.55).unwrap(), 50),
        )
    }

    #[test]
    fn two_level_shape() {
        let t = fb_tree();
        assert_eq!(t.levels(), 2);
        assert_eq!(t.total_processes(), 2500);
        assert_eq!(t.nodes_at(0), 2500); // processes
        assert_eq!(t.nodes_at(1), 50); // level-1 aggregators under the root
        assert_eq!(t.stage(0).fanout, 50);
    }

    #[test]
    fn three_level_node_counts() {
        let t = TreeSpec::new(vec![
            StageSpec::new(Exponential::new(1.0).unwrap(), 10),
            StageSpec::new(Exponential::new(1.0).unwrap(), 5),
            StageSpec::new(Exponential::new(1.0).unwrap(), 4),
        ]);
        assert_eq!(t.total_processes(), 200);
        assert_eq!(t.nodes_at(0), 200); // processes
        assert_eq!(t.nodes_at(1), 20); // 5 * 4 level-1 aggregators
        assert_eq!(t.nodes_at(2), 4); // level-2 aggregators
        assert_eq!(
            (0..3).map(|i| t.origin_base(i)).collect::<Vec<_>>(),
            vec![0, 200, 220]
        );
    }

    #[test]
    fn total_mean_sums_stages() {
        let t = TreeSpec::new(vec![
            StageSpec::new(Exponential::from_mean(3.0).unwrap(), 2),
            StageSpec::new(Exponential::from_mean(7.0).unwrap(), 2),
        ]);
        assert!((t.total_mean() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn with_bottom_dist_swaps_only_stage_zero() {
        let t = fb_tree();
        let new = Arc::new(Exponential::new(1.0).unwrap());
        let t2 = t.with_bottom_dist(new);
        assert!((t2.stage(0).dist.mean() - 1.0).abs() < 1e-12);
        assert!((t2.stage(1).dist.mean() - t.stage(1).dist.mean()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn rejects_empty_tree() {
        TreeSpec::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "fan-out")]
    fn rejects_zero_fanout() {
        StageSpec::new(Exponential::new(1.0).unwrap(), 0);
    }
}
