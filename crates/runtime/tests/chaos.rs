//! Fault-injection integration tests: a seeded [`FaultPlan`] is
//! bit-reproducible, quality degrades gracefully under injected crashes
//! (never a panic, hang, or blown deadline), duplicates are suppressed
//! exactly, speculative retries recover crashed workers, the
//! censored-observation plumbing matches an explicitly-constructed
//! right-censored sample, and a query leaves nothing behind: no leaf
//! books a fault after its `QueryEnd`.
//!
//! Everything runs on the paused clock: model time advances instantly,
//! so even the `#[ignore]`d sweep is wall-fast and fully deterministic.

use cedar_core::policy::WaitPolicyKind;
use cedar_core::{StageSpec, TreeSpec};
use cedar_distrib::LogNormal;
use cedar_estimate::{fit_right_censored, Model};
use cedar_runtime::{
    run_query, FaultKind, FaultPlan, FaultSpec, RecoveryPolicy, RuntimeConfig, RuntimeOutcome,
};
use cedar_telemetry::{QueryTrace, TraceEventKind};
use std::sync::Arc;
use std::time::Duration;

const K1: usize = 8;
const K2: usize = 4;
const WORKERS: usize = K1 * K2;

fn tree() -> TreeSpec {
    TreeSpec::two_level(
        StageSpec::new(LogNormal::new(1.0, 0.6).unwrap(), K1),
        StageSpec::new(LogNormal::new(1.0, 0.4).unwrap(), K2),
    )
}

fn cfg(deadline: f64, seed: u64, plan: Option<FaultPlan>) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(tree(), deadline).with_seed(seed);
    if let Some(plan) = plan {
        cfg = cfg.with_faults(plan);
    }
    cfg
}

async fn run(deadline: f64, seed: u64, plan: Option<FaultPlan>) -> RuntimeOutcome {
    run_query(&cfg(deadline, seed, plan), WaitPolicyKind::Cedar).await
}

/// Multiset equality for duration vectors (order-insensitive, exact).
fn same_multiset(a: &[f64], b: &[f64]) -> bool {
    let mut a: Vec<f64> = a.to_vec();
    let mut b: Vec<f64> = b.to_vec();
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    a == b
}

#[tokio::test(start_paused = true)]
async fn seeded_fault_plan_is_bit_reproducible() {
    let plan = || FaultPlan::new(42, FaultSpec::mixed(0.25));
    let a = run(40.0, 7, Some(plan())).await;
    let b = run(40.0, 7, Some(plan())).await;
    assert_eq!(a.failures, b.failures, "failure reports diverged");
    assert_eq!(a.quality, b.quality);
    assert_eq!(a.included_outputs, b.included_outputs);
    assert_eq!(a.value_sum, b.value_sum);
    assert_eq!(a.realized_durations, b.realized_durations);
    assert_eq!(a.censored_durations, b.censored_durations);
    assert!(a.failures.total_injected() > 0, "plan injected nothing");
}

#[tokio::test(start_paused = true)]
async fn ten_percent_crashes_degrade_gracefully() {
    let deadline = 40.0;
    let scaled = cfg(deadline, 0, None).scale.to_wall(deadline);
    let mut qualities = Vec::new();
    let mut injected = 0;
    for seed in 0..25u64 {
        let out = run(
            deadline,
            seed,
            Some(FaultPlan::new(seed, FaultSpec::crashes(0.1))),
        )
        .await;
        assert!(
            (0.0..=1.0).contains(&out.quality),
            "seed {seed}: quality {} out of range",
            out.quality
        );
        assert!(
            out.wall_elapsed <= scaled + Duration::from_millis(5),
            "seed {seed}: deadline exceeded ({:?} > {scaled:?})",
            out.wall_elapsed
        );
        injected += out.failures.total_injected();
        qualities.push(out.quality);
    }
    let mean = qualities.iter().sum::<f64>() / qualities.len() as f64;
    assert!(injected > 0, "no faults landed across 25 queries");
    assert!(
        mean >= 0.85,
        "mean quality {mean} degraded more than gracefully under 10% crashes"
    );
}

#[tokio::test(start_paused = true)]
async fn duplicate_arrivals_are_suppressed_exactly() {
    // Every worker sends twice; a generous deadline lets everything
    // arrive. Suppression must make the outcome identical to the clean
    // run on the same seed — same quality, same answer, same durations.
    let spec = FaultSpec {
        duplicate: 1.0,
        ..FaultSpec::none()
    };
    let clean = run(400.0, 3, None).await;
    let noisy = run(400.0, 3, Some(FaultPlan::new(9, spec))).await;
    assert_eq!(noisy.failures.duplicated, WORKERS);
    assert!(noisy.failures.duplicates_suppressed > 0);
    assert_eq!(noisy.quality, clean.quality);
    assert_eq!(noisy.value_sum, clean.value_sum);
    assert_eq!(noisy.included_outputs, clean.included_outputs);
    assert_eq!(
        noisy.realized_durations, clean.realized_durations,
        "duplicates leaked into the observed durations"
    );
    assert!(noisy.censored_durations.iter().all(Vec::is_empty));
}

#[tokio::test(start_paused = true)]
async fn speculative_retry_recovers_crashed_workers() {
    // All workers crash; the watchdog must retry each one, and under a
    // generous deadline the retries carry the query to (near-)full
    // quality instead of zero.
    let out = run(400.0, 5, Some(FaultPlan::new(11, FaultSpec::crashes(1.0)))).await;
    assert_eq!(out.failures.crashed, WORKERS);
    assert_eq!(out.failures.retries_launched, WORKERS);
    assert!(out.failures.retries_delivered > 0);
    assert!(
        out.quality >= 0.9,
        "retries failed to recover the query: quality {}",
        out.quality
    );
}

#[tokio::test(start_paused = true)]
async fn crashes_surface_as_explicit_right_censoring() {
    // Retries off: crashed workers simply never arrive, so each must be
    // recorded as right-censored at its aggregator's departure time, and
    // the delivered durations must be exactly the clean run's samples
    // for the surviving workers. The refit input is then equivalent to
    // an explicitly-constructed censored sample — same posterior.
    let spec = FaultSpec::crashes(0.3);
    let plan = FaultPlan::new(21, spec).with_recovery(RecoveryPolicy {
        watchdog_quantile: 0.99,
        speculative_retry: false,
    });
    let crashed_origins: Vec<usize> = (0..WORKERS)
        .filter(|&i| plan.fault_for(0, i) == Some(FaultKind::CrashBeforeSend))
        .collect();
    assert!(
        !crashed_origins.is_empty() && crashed_origins.len() < WORKERS,
        "seed 21 must crash some but not all workers for this test"
    );

    let clean = run(500.0, 13, None).await;
    let out = run(500.0, 13, Some(plan)).await;

    let observed = &out.realized_durations[0];
    let censored = &out.censored_durations[0];
    assert_eq!(out.failures.crashed, crashed_origins.len());
    assert_eq!(censored.len(), out.failures.censored_observations);
    assert_eq!(censored.len(), crashed_origins.len());
    assert_eq!(observed.len() + censored.len(), WORKERS);

    // The survivors' durations are the clean run's samples, untouched.
    let explicit_observed: Vec<f64> = (0..WORKERS)
        .filter(|i| !crashed_origins.contains(i))
        .map(|i| clean.realized_durations[0][i])
        .collect();
    assert!(
        same_multiset(observed, &explicit_observed),
        "delivered durations are not the surviving clean samples"
    );

    // Same inputs, same posterior: the engine's censored output refits
    // identically to the hand-built right-censored sample.
    let engine_fit = fit_right_censored(Model::LogNormal, observed, censored)
        .expect("censored fit must converge");
    let explicit_fit = fit_right_censored(Model::LogNormal, &explicit_observed, censored)
        .expect("explicit censored fit must converge");
    assert_eq!(engine_fit.mu, explicit_fit.mu);
    assert_eq!(engine_fit.sigma, explicit_fit.sigma);
    // Direction check: censoring can only say "at least this slow", so
    // the corrected location must sit above a survivors-only fit (which
    // is biased fast because crashes thinned the tail).
    let survivors_only =
        fit_right_censored(Model::LogNormal, observed, &[]).expect("plain fit must converge");
    assert!(
        engine_fit.mu > survivors_only.mu,
        "censoring failed to correct the fast bias: {} <= {}",
        engine_fit.mu,
        survivors_only.mu
    );
    assert!(engine_fit.mu.is_finite() && engine_fit.sigma.is_finite());
}

/// Leaves centred at 80 units against a 40-unit deadline: about 4 % of
/// them finish in time, so most aggregators count nothing and never
/// ship, and the root gathers until the deadline.
fn late_tree() -> TreeSpec {
    TreeSpec::two_level(
        StageSpec::new(LogNormal::new(80f64.ln(), 0.4).unwrap(), K1),
        StageSpec::new(LogNormal::new(0.0, 0.3).unwrap(), K2),
    )
}

#[tokio::test(start_paused = true)]
async fn nothing_happens_after_query_end() {
    // Crashes, drops and duplicates among leaves that mostly finish
    // after the deadline, retries off. Every leaf that could still fire
    // is past the deadline; none may book a fault once the query ended.
    let spec = FaultSpec {
        crash: 0.2,
        drop: 0.2,
        duplicate: 0.2,
        ..FaultSpec::none()
    };
    let plan = FaultPlan::new(26, spec).with_recovery(RecoveryPolicy {
        watchdog_quantile: 0.99,
        speculative_retry: false,
    });
    let deadline = 40.0;
    let clean = run_query(
        &RuntimeConfig::new(late_tree(), deadline).with_seed(8),
        WaitPolicyKind::Cedar,
    )
    .await;
    let late_faults = (0..WORKERS)
        .filter(|&i| plan.fault_for(0, i).is_some() && clean.realized_durations[0][i] > deadline)
        .count();
    assert!(
        late_faults > 0,
        "the plan must strike leaves past the deadline"
    );

    let trace = Arc::new(QueryTrace::new());
    let cfg = RuntimeConfig::new(late_tree(), deadline)
        .with_seed(8)
        .with_faults(plan)
        .with_trace(trace.clone());
    let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
    // Past the slowest leaf (its duration is far below an hour of model
    // time): whatever the query left behind has run by now.
    let slowest = clean.realized_durations[0]
        .iter()
        .copied()
        .fold(0.0, f64::max);
    tokio::time::sleep(cfg.scale.to_wall(slowest + 3600.0)).await;

    assert!(
        matches!(
            trace.events().last().map(|e| &e.kind),
            Some(TraceEventKind::QueryEnd { .. })
        ),
        "events after the query ended: {:?}",
        trace.events().last()
    );
    assert!(
        out.failures == trace.summary().failures,
        "trace {:?} != report {:?}",
        trace.summary(),
        out.failures
    );
}

#[tokio::test(start_paused = true)]
async fn stragglers_pushed_past_the_deadline_are_all_reported() {
    // Stragglers are booked when their leaves start, so a leaf slowed
    // past the deadline counts as straggled although it never ships.
    let deadline = 40.0;
    let plan = FaultPlan::new(5, FaultSpec::stragglers(0.5, 20.0));
    let clean = run(deadline, 3, None).await;
    let struck: Vec<usize> = (0..WORKERS)
        .filter(|&i| matches!(plan.fault_for(0, i), Some(FaultKind::Straggle { .. })))
        .collect();
    assert!(
        struck
            .iter()
            .any(|&i| clean.realized_durations[0][i] * 20.0 > deadline),
        "the plan must push some leaf past the deadline"
    );
    let out = run(deadline, 3, Some(plan)).await;
    assert_eq!(out.failures.straggled, struck.len());
}

#[tokio::test(start_paused = true)]
async fn clean_runs_report_clean() {
    let out = run(40.0, 1, None).await;
    assert!(out.failures.is_clean());
    assert_eq!(out.failures, Default::default());
    assert!(out.censored_durations.iter().all(Vec::is_empty));
}

/// Heavier sweep, exercised by the CI chaos job via `--include-ignored`:
/// mixed faults at escalating rates, many seeds, asserting the service
/// never panics, never blows the deadline, and keeps useful quality.
#[tokio::test(start_paused = true)]
#[ignore = "heavier sweep; run explicitly or via the CI chaos job"]
async fn mixed_fault_sweep_stays_graceful() {
    let deadline = 40.0;
    let scaled = cfg(deadline, 0, None).scale.to_wall(deadline);
    for rate in [0.05, 0.1, 0.2] {
        let mut qualities = Vec::new();
        for seed in 0..20u64 {
            let plan = FaultPlan::new(seed.wrapping_mul(0x9E37) ^ 0xC1A05, FaultSpec::mixed(rate));
            let out = run(deadline, seed, Some(plan)).await;
            assert!((0.0..=1.0).contains(&out.quality));
            assert!(
                out.wall_elapsed <= scaled + Duration::from_millis(5),
                "rate {rate} seed {seed}: deadline exceeded"
            );
            qualities.push(out.quality);
        }
        let mean = qualities.iter().sum::<f64>() / qualities.len() as f64;
        assert!(
            mean >= 0.6,
            "rate {rate}: mean quality {mean} collapsed under mixed faults"
        );
    }
}
