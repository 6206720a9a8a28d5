//! Steady-state zero-allocation assertions, enforced by a counting
//! global allocator.
//!
//! The claim under test: after warmup, the per-query hot paths perform
//! **zero** heap allocations —
//!
//! - the per-arrival wait scan (`calculate_wait_with_grid` driven by a
//!   memoized `QupGrid`, batch CDF through thread-local scratch), also
//!   under a loose deadline where the scan stops once the CDF is 1;
//! - a Cedar aggregator's whole arrival step (`AggregatorState::on_output`:
//!   estimator update, the fitted log-normal built on the stack, re-scan),
//!   under a binding and a loose deadline;
//! - a Cedar aggregator's start on a clone of a prepared context, which
//!   reads the memoized prior decision;
//! - batched CDF evaluation itself, including the `Mixture` override
//!   (fixed-size stack chunks, no per-call scratch vector);
//! - binary wire encoding into a reused frame buffer
//!   (`encode_frame_into` clears and refills, never grows after the
//!   first frame);
//! - the interned all-ones partial-value vector (`pool::ones` is a map
//!   probe returning an `Arc` clone after the first call per length);
//! - the learner's `SlidingWindow`: once constructed (the block ring is
//!   sized there), fault-free ingest and refits never allocate, through
//!   any number of window turnovers.
//!
//! Binary *decoding* is deliberately not asserted to zero: it builds an
//! owned message (strings, stage vectors), which is its documented
//! contract — "allocating only the owned message itself".
//!
//! Everything lives in ONE `#[test]` so no sibling test can allocate
//! concurrently and poison the counter — and the counter
//! (`counting/mod.rs`, shared with `work_budget.rs`) only bumps while
//! the measuring thread holds it armed, so libtest's own threads
//! (output capture, progress events) can't poison a window either.

mod counting;

use cedar_core::profile::ProfileConfig;
use cedar_core::wait::{calculate_wait_with_grid, QupGrid};
use cedar_core::{
    AggregatorAction, AggregatorState, PolicyContext, PreparedContexts, QualityProfile, StageSpec,
    TreeSpec, WaitPolicyKind,
};
use cedar_distrib::spec::DistSpec;
use cedar_distrib::{ContinuousDist, LogNormal, Mixture, Pareto};
use cedar_estimate::{Model, SlidingWindow};
use cedar_server::proto::Request;
use cedar_server::wire2::encode_frame_into;
use cedar_workloads::treedef::{StageDef, TreeDef};
use counting::{alloc_events, arm};
use std::hint::black_box;
use std::sync::{Arc, OnceLock};

/// Runs `measured` after `warmup` rounds of the same closure and
/// returns how many allocation events the measured rounds performed on
/// this thread.
fn measure(label: &str, warmup: usize, rounds: usize, mut step: impl FnMut()) -> u64 {
    for _ in 0..warmup {
        step();
    }
    let before = alloc_events();
    arm(true);
    for _ in 0..rounds {
        step();
    }
    arm(false);
    let events = alloc_events() - before;
    // Visible under `--nocapture` for debugging a regression.
    println!("{label}: {events} alloc events over {rounds} rounds");
    events
}

const WARMUP: usize = 8;
const ROUNDS: usize = 200;

#[test]
fn steady_state_hot_paths_do_not_allocate() {
    // --- Per-arrival wait scan against a memoized upstream grid: a
    // binding deadline, and a loose one (the rpc_small regime) whose
    // scan stops where the lower CDF reaches 1. ---
    let lower = LogNormal::new(6.5, 0.84).unwrap();
    let upper = LogNormal::new(4.0, 1.2).unwrap();
    let q_up = |rem: f64| if rem <= 0.0 { 0.0 } else { upper.cdf(rem) };
    for (label, deadline, steps) in [
        ("wait_scan", 1000.0, 500.0),
        ("wait_scan_saturating", 1e7, 300.0),
    ] {
        let grid = QupGrid::build(deadline, deadline / steps, q_up);
        let scan_events = measure(label, WARMUP, ROUNDS, || {
            let d = calculate_wait_with_grid(black_box(&lower), 50, &grid);
            black_box(d.wait);
        });
        assert_eq!(
            scan_events, 0,
            "calculate_wait_with_grid allocated in steady state (D = {deadline})"
        );
    }

    // --- A Cedar aggregator's per-arrival step: re-estimate, re-scan. ---
    let fanout = 2500;
    for (label, deadline) in [
        ("aggregator_on_output", 2000.0),
        ("aggregator_on_output_saturating", 1e7),
    ] {
        let ctx = PolicyContext {
            deadline,
            fanout,
            upper: Arc::new(QualityProfile::single(&upper, deadline, 64)),
            prior_lower: Arc::new(lower),
            true_lower: None,
            mean_below: lower.mean(),
            mean_total: lower.mean() + upper.mean(),
            level: 1,
            levels_total: 2,
            scan_steps: 300,
            qup_grid: OnceLock::new(),
            prior_decision: OnceLock::new(),
        };
        let policy = WaitPolicyKind::Cedar.instantiate(fanout, Model::LogNormal);
        let mut agg = AggregatorState::new(policy, ctx);
        agg.start();
        let mut now = 50.0;
        let arrival_events = measure(label, WARMUP, ROUNDS, || {
            now += 1.0;
            let action = agg.on_output(black_box(now));
            assert!(matches!(action, AggregatorAction::SetTimer(_)));
        });
        assert_eq!(
            arrival_events, 0,
            "a Cedar aggregator allocated re-scanning on an arrival (D = {deadline})"
        );
    }

    // --- A Cedar aggregator's start on a clone of a prepared context:
    // the prior decision is read from the context's memo. ---
    let priors = TreeSpec::two_level(StageSpec::new(lower, 4), StageSpec::new(upper, 4));
    let prepared = PreparedContexts::new(
        &priors,
        1e7,
        WaitPolicyKind::Cedar,
        Model::LogNormal,
        300,
        &ProfileConfig::default(),
    );
    let mut states: Vec<AggregatorState> = (0..WARMUP + ROUNDS)
        .map(|_| {
            let ctx = prepared.contexts()[0].clone();
            let policy = WaitPolicyKind::Cedar.instantiate(ctx.fanout, Model::LogNormal);
            AggregatorState::new(policy, ctx)
        })
        .collect();
    let mut next = states.iter_mut();
    let start_events = measure("aggregator_start", WARMUP, ROUNDS, || {
        let w = next.next().unwrap().start();
        black_box(w);
    });
    assert_eq!(
        start_events, 0,
        "a Cedar aggregator allocated starting on a prepared context"
    );

    // --- Batched CDF with the Mixture override (stack-chunk scratch). ---
    let mix = Mixture::new(vec![
        (0.95, Box::new(LogNormal::new(2.77, 0.84).unwrap()) as _),
        (0.05, Box::new(Pareto::new(60.0, 1.5).unwrap()) as _),
    ])
    .unwrap();
    let ts: Vec<f64> = (0..777).map(|i| 0.5 + i as f64 * 0.37).collect();
    let mut out = vec![0.0; ts.len()];
    let batch_events = measure("mixture_cdf_batch", WARMUP, ROUNDS, || {
        mix.cdf_batch(black_box(&ts), &mut out);
        black_box(out[0]);
    });
    assert_eq!(batch_events, 0, "Mixture::cdf_batch allocated per call");

    // --- Binary wire encoding into a reused frame buffer. ---
    let tree = TreeDef {
        stages: vec![
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 6.5,
                    sigma: 0.84,
                },
                fanout: 50,
            },
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 4.0,
                    sigma: 1.2,
                },
                fanout: 10,
            },
        ],
    };
    let req = Request::query(tree, Some(1000.0), Some(7)).with_explain(true);
    let mut buf = Vec::new();
    let encode_events = measure("binary_encode", WARMUP, ROUNDS, || {
        encode_frame_into(black_box(&req), &mut buf).unwrap();
        black_box(buf.len());
    });
    assert_eq!(
        encode_events, 0,
        "encode_frame_into allocated despite a warmed reusable buffer"
    );

    // --- Interned all-ones partial values. ---
    let ones_events = measure("pool_ones", WARMUP, ROUNDS, || {
        let v = cedar_runtime::pool::ones(black_box(2550));
        black_box(v.len());
    });
    assert_eq!(ones_events, 0, "pool::ones allocated on a warm length");

    // --- Refit window: fill, then a full turnover, a refit per sample. ---
    let mut window = SlidingWindow::new(64, 16);
    let capacity = window.capacity();
    let mut i = 0u32;
    let window_events = measure("window_turnover", 0, 2 * capacity, || {
        i += 1;
        window.observe(1.0 + f64::from(i % 17));
        black_box(window.fit());
    });
    assert!(window.len() <= capacity && window.len() > capacity - 64);
    assert_eq!(
        window_events, 0,
        "SlidingWindow allocated on a censoring-free stream"
    );
}
