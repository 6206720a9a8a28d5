//! Work budgets: heap allocations per in-process engine query, counted
//! on the paused clock, where the count is exact and independent of the
//! host.
//!
//! Two benchmark shapes (`benchmark/src/workload.rs`): `rpc_wide`, the
//! paper's 50×50 tree against its binding deadline, and `rpc_small`, a
//! 4×4 tree under a loose one; and `rpc_wide` again under a mixed 30 %
//! fault plan, so the fault path is counted too. Each query runs against
//! contexts prepared once, as the service's cache serves them, and its
//! window stays open until every task the query spawned has finished.
//! Allocations are a proxy for the tasks, channels and timers a query
//! pays for. A bottom aggregator walks its leaves in model time and arms
//! one timer, to its ship or its departure, so timers count per
//! aggregator, not per leaf.
//!
//! Each budget is a ceiling, set to the count when it was last lowered:
//! more fails as added work. The count also depends on std and on the
//! vendored runtime (sort buffers, `Vec` growth, timer-map nodes), so a
//! toolchain bump may move it without any change here; a count below
//! its budget is printed so the budget can be lowered to it. The count
//! must be the same on every run.

mod counting;

use cedar_core::profile::ProfileConfig;
use cedar_core::wait::REFERENCE_SCAN_STEPS;
use cedar_core::{PreparedContexts, StageSpec, TreeSpec, WaitPolicyKind};
use cedar_distrib::LogNormal;
use cedar_estimate::Model;
use cedar_runtime::{ones, run_query_prepared, FaultPlan, FaultSpec, RuntimeConfig, TimeScale};
use counting::{alloc_events, arm};
use std::time::Duration;

/// Measured queries per shape; every one must count the same.
const RUNS: usize = 20;

/// One benchmark shape and its allocation budget per query.
struct Shape {
    name: &'static str,
    k1: usize,
    k2: usize,
    deadline: f64,
    unit: Duration,
    /// The seed and rate of a `FaultSpec::mixed` plan, if any.
    faults: Option<(u64, f64)>,
    budget: u64,
}

const SHAPES: [Shape; 3] = [
    Shape {
        name: "rpc_wide",
        k1: 50,
        k2: 50,
        deadline: 1000.0,
        unit: Duration::from_micros(100),
        faults: None,
        budget: 471,
    },
    Shape {
        name: "rpc_small",
        k1: 4,
        k2: 4,
        deadline: 1e7,
        unit: Duration::from_nanos(100),
        faults: None,
        budget: 48,
    },
    Shape {
        name: "rpc_wide, mixed(0.3) faults",
        k1: 50,
        k2: 50,
        deadline: 1000.0,
        unit: Duration::from_micros(100),
        faults: Some((0x601D, 0.3)),
        budget: 712,
    },
];

/// Allocation events of `RUNS` queries of `shape`, one per query, each
/// after a warm-up query on the same seed.
fn count(shape: &Shape) -> Vec<u64> {
    let tree = TreeSpec::two_level(
        StageSpec::new(LogNormal::new(6.5, 0.84).unwrap(), shape.k1),
        StageSpec::new(LogNormal::new(4.0, 1.2).unwrap(), shape.k2),
    );
    let mut cfg = RuntimeConfig::new(tree, shape.deadline)
        .with_scale(TimeScale::new(shape.unit))
        .with_seed(1);
    if let Some((seed, rate)) = shape.faults {
        cfg = cfg.with_faults(FaultPlan::new(seed, FaultSpec::mixed(rate)));
    }
    let prepared = PreparedContexts::new(
        &cfg.priors,
        cfg.deadline,
        WaitPolicyKind::Cedar,
        Model::LogNormal,
        REFERENCE_SCAN_STEPS,
        &ProfileConfig::default(),
    );
    let values = ones(cfg.tree.total_processes());
    // Far past anything a query leaves running (its slowest aggregator
    // and the channel it holds open).
    let settle = cfg.scale.to_wall(1e4 * shape.deadline.max(1e3));
    let rt = tokio::runtime::Builder::new_current_thread()
        .enable_time()
        .start_paused(true)
        .build()
        .unwrap();
    rt.block_on(async {
        let query = || async {
            run_query_prepared(&cfg, WaitPolicyKind::Cedar, values.clone(), &prepared).await;
            tokio::time::sleep(settle).await;
        };
        query().await;
        let mut counts = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            let before = alloc_events();
            arm(true);
            query().await;
            arm(false);
            counts.push(alloc_events() - before);
        }
        counts
    })
}

#[test]
fn engine_queries_stay_within_their_allocation_budgets() {
    for shape in &SHAPES {
        let counts = count(shape);
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{}: the count varies across runs: {counts:?}",
            shape.name
        );
        assert!(
            counts[0] <= shape.budget,
            "{}: {} alloc events per query, over the budget of {}",
            shape.name,
            counts[0],
            shape.budget
        );
        if counts[0] < shape.budget {
            // Shown with `--nocapture`: the budget can come down.
            println!(
                "{}: {} alloc events per query, under the budget of {}",
                shape.name, counts[0], shape.budget
            );
        }
    }
}
