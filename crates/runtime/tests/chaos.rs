//! Fault-injection integration tests: a seeded [`FaultPlan`] is
//! bit-reproducible, quality degrades gracefully under injected crashes
//! (never a panic, hang, or blown deadline), duplicates are suppressed
//! exactly, speculative retries recover crashed workers, the
//! censored-observation plumbing matches an explicitly-constructed
//! right-censored sample, a query leaves nothing behind — no leaf
//! books a fault after its `QueryEnd` — and mixed-fault queries on the
//! 50×50 and 8×4 trees reproduce committed goldens exactly.
//!
//! Everything runs on the paused clock: model time advances instantly,
//! so even the `#[ignore]`d sweep is wall-fast and fully deterministic.

use cedar_core::policy::WaitPolicyKind;
use cedar_core::{StageSpec, TreeSpec};
use cedar_distrib::LogNormal;
use cedar_estimate::{fit_right_censored, Model};
use cedar_runtime::{
    run_query, FailureReport, FaultKind, FaultPlan, FaultSpec, RecoveryPolicy, RuntimeConfig,
    RuntimeOutcome,
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
    // Faults are booked when the query starts, so a leaf slowed past
    // the deadline counts as straggled although it never ships.
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

/// The 50×50 tree of the `rpc_wide` benchmark and its binding deadline.
const WIDE: (usize, usize, f64) = (50, 50, 1000.0);
/// This file's 8×4 tree and deadline.
const SMALL: (usize, usize, f64) = (K1, K2, 40.0);

/// What one faulted query reproduces: its shape, fault rate and seed;
/// its `FailureReport` (crashed, hung, straggled, dropped, duplicated,
/// retries launched and delivered, duplicates suppressed, censored);
/// its root arrivals and included outputs; and each stage's realized and
/// censored durations as their count and the FNV-1a digest of their
/// bits.
type Golden = (
    (usize, usize, f64),
    f64,
    u64,
    [usize; 9],
    usize,
    usize,
    &'static [(usize, u64)],
    &'static [(usize, u64)],
);

/// Outcomes of `FaultSpec::mixed` queries as the engine produced them
/// when each bottom aggregator's leaves were shipped by a task of their
/// own over a channel, and each retry by a task of its own; except the
/// injected counts, which are the plan's (`FaultPlan::planned_into`
/// over every level), whether a struck leaf was due by the deadline or
/// not.
#[rustfmt::skip]
const GOLDENS: [Golden; 32] = [
    (WIDE, 0.1, 0, [104, 46, 46, 28, 32, 0, 0, 18, 1176], 40, 1065, &[(1324, 0x695ce427b0062a43), (40, 0x74e368da75c4e691)], &[(1176, 0x77ca6223ea862752), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.1, 1, [101, 49, 47, 32, 30, 0, 0, 18, 1185], 45, 1169, &[(1315, 0x9659191d61b6d9e0), (45, 0x0b50247ff823a933)], &[(1185, 0x9ffcaf60f2126e18), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.1, 2, [103, 49, 55, 23, 31, 0, 0, 18, 1175], 39, 1039, &[(1325, 0x53fba9861f2bf622), (39, 0x5827e4d208154289)], &[(1175, 0xeb24f06d654c0d2d), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.1, 3, [91, 66, 50, 20, 30, 0, 0, 16, 1153], 44, 1179, &[(1347, 0x6f1aed7c60c77ff9), (44, 0xef4e4a58fb6288fd)], &[(1153, 0x82751349125f237d), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.1, 4, [99, 54, 48, 23, 26, 0, 0, 15, 1136], 41, 1127, &[(1364, 0x009865ff21754034), (41, 0x90baddc147fb0632)], &[(1136, 0x4808181611232c99), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.1, 5, [97, 52, 64, 25, 23, 0, 0, 10, 1178], 38, 1013, &[(1322, 0x98766053f492bb1d), (38, 0x9968a461684c442d)], &[(1178, 0xebfe604390bd9610), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.1, 6, [86, 52, 59, 26, 30, 0, 0, 19, 1127], 40, 1101, &[(1373, 0xd8b6899de3f43319), (40, 0xf02befbe6b0aead9)], &[(1127, 0x709b620726f7f8d8), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.1, 7, [107, 54, 49, 23, 24, 0, 0, 15, 1157], 38, 998, &[(1343, 0xced9a3b83b8076eb), (38, 0x3ac1641d6059ff1e)], &[(1157, 0x742de270cab9dd64), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.3, 0, [306, 171, 174, 82, 76, 0, 0, 45, 1462], 38, 789, &[(1038, 0x2133592b152a086a), (38, 0x17fc5550aa3636b8)], &[(1462, 0x81149511bae941ba), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.3, 1, [313, 179, 154, 68, 65, 0, 0, 40, 1448], 45, 928, &[(1052, 0xdf92b3eabe2d012e), (45, 0x0b50247ff823a933)], &[(1448, 0x0daf828e8865f141), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.3, 2, [299, 160, 155, 80, 86, 0, 0, 54, 1420], 39, 853, &[(1080, 0xecf7e1fa1a72f07b), (39, 0x5827e4d208154289)], &[(1420, 0x91158d82b1099cd2), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.3, 3, [306, 144, 142, 77, 78, 0, 0, 48, 1408], 43, 930, &[(1092, 0xe8226a5982fbe22f), (43, 0x03d4e2c5c0c9855b)], &[(1408, 0xfb0c84a2cdec84c0), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.3, 4, [306, 157, 135, 77, 79, 0, 0, 46, 1391], 41, 914, &[(1109, 0x81a35f4aa9489e03), (41, 0x90baddc147fb0632)], &[(1391, 0x2c4dbe65139b3928), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.3, 5, [293, 169, 141, 61, 91, 0, 0, 49, 1406], 37, 817, &[(1094, 0x6ced1839b599ad91), (37, 0x93066a823996d93b)], &[(1406, 0x46e55f9b380bfd6b), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.3, 6, [311, 141, 157, 83, 80, 0, 0, 47, 1386], 40, 890, &[(1114, 0x7bd4e401ec081763), (40, 0xf02befbe6b0aead9)], &[(1386, 0x2802513ea07a9f24), (0, 0xcbf29ce484222325)]),
    (WIDE, 0.3, 7, [321, 139, 154, 74, 76, 0, 0, 36, 1409], 38, 816, &[(1091, 0xce90fdfd1dfd2f47), (38, 0x3ac1641d6059ff1e)], &[(1409, 0xa9811b6267d97cfb), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.1, 0, [1, 0, 1, 2, 0, 5, 4, 0, 0], 4, 32, &[(32, 0x5805066a0b49e291), (4, 0xc2582fa980ae707d)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.1, 1, [1, 1, 2, 0, 0, 4, 4, 0, 0], 4, 32, &[(32, 0xfaeb5401303824ba), (4, 0x05833d8c15340dad)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.1, 2, [0, 0, 0, 0, 0, 1, 1, 0, 0], 4, 32, &[(32, 0x70e01434bc9d0e3c), (4, 0x58285cc2ea8fe7df)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.1, 3, [2, 3, 2, 0, 1, 6, 5, 1, 0], 4, 32, &[(32, 0x0dc7410f27baae2e), (4, 0xd520365e3ea4a3e5)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.1, 4, [1, 0, 1, 0, 0, 1, 1, 0, 0], 4, 32, &[(32, 0x199397d03b8594d4), (4, 0xae0fab816902912e)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.1, 5, [0, 0, 1, 0, 1, 1, 0, 1, 0], 4, 32, &[(32, 0x0a6e8592bc5d545a), (4, 0x05d5d1a3c7be9546)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.1, 6, [1, 0, 0, 1, 0, 2, 2, 0, 0], 4, 32, &[(32, 0xa45588a902e6f0e5), (4, 0x51c6b6e4a64efb67)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.1, 7, [3, 0, 3, 0, 0, 4, 4, 0, 0], 4, 32, &[(32, 0x94b00cd0a47463a6), (4, 0x786c7848b68f9b33)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.3, 0, [4, 4, 0, 1, 0, 10, 9, 1, 0], 4, 32, &[(32, 0x1e66b1d2118f2a77), (4, 0xc2582fa980ae707d)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.3, 1, [5, 2, 1, 2, 2, 9, 9, 2, 0], 4, 32, &[(32, 0xce4d982dadded1f9), (4, 0x05833d8c15340dad)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.3, 2, [0, 1, 0, 0, 2, 2, 2, 2, 0], 4, 32, &[(32, 0x53f4303232754a5e), (4, 0x58285cc2ea8fe7df)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.3, 3, [8, 0, 2, 0, 2, 9, 9, 2, 0], 4, 32, &[(32, 0xf0b921edba87243d), (4, 0xd520365e3ea4a3e5)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.3, 4, [5, 1, 1, 2, 1, 8, 8, 1, 0], 4, 32, &[(32, 0xcdcad6b816b7e8f0), (4, 0xae0fab816902912e)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.3, 5, [2, 4, 0, 0, 2, 6, 6, 2, 0], 4, 32, &[(32, 0x03fd567f098789a8), (4, 0x05d5d1a3c7be9546)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.3, 6, [2, 2, 2, 0, 3, 5, 4, 3, 0], 4, 32, &[(32, 0x33b5382f9d95b239), (4, 0x51c6b6e4a64efb67)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
    (SMALL, 0.3, 7, [6, 2, 2, 0, 0, 9, 9, 0, 0], 4, 32, &[(32, 0x44cc23edf1963abd), (4, 0x786c7848b68f9b33)], &[(0, 0xcbf29ce484222325), (0, 0xcbf29ce484222325)]),
];

/// Per stage: how many durations, and the FNV-1a digest of their bits.
fn digest(stages: &[Vec<f64>]) -> Vec<(usize, u64)> {
    let fnv = |h: u64, d: &f64| {
        (d.to_bits().to_le_bytes().iter())
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    };
    stages
        .iter()
        .map(|s| (s.len(), s.iter().fold(0xcbf2_9ce4_8422_2325, fnv)))
        .collect()
}

#[tokio::test(start_paused = true)]
async fn faulted_outcomes_match_their_goldens() {
    for &(shape, rate, seed, failures, root_arrivals, included_outputs, realized, censored) in
        &GOLDENS
    {
        let (k1, k2, deadline) = shape;
        let tree = if shape == WIDE {
            TreeSpec::two_level(
                StageSpec::new(LogNormal::new(6.5, 0.84).unwrap(), k1),
                StageSpec::new(LogNormal::new(4.0, 1.2).unwrap(), k2),
            )
        } else {
            tree()
        };
        let plan = FaultPlan::new(seed ^ 0x601D, FaultSpec::mixed(rate));
        let mut planned = FailureReport::default();
        plan.planned_into(0, 0..k1 * k2, &mut planned);
        plan.planned_into(1, 0..k2, &mut planned);
        let cfg = RuntimeConfig::new(tree, deadline)
            .with_seed(seed)
            .with_faults(plan);
        let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
        let f = out.failures;
        let case = format!("{k1}x{k2}, rate {rate}, seed {seed}");
        assert_eq!(
            [
                f.crashed,
                f.hung,
                f.straggled,
                f.dropped,
                f.duplicated,
                f.retries_launched,
                f.retries_delivered,
                f.duplicates_suppressed,
                f.censored_observations,
            ],
            failures,
            "{case}"
        );
        let injected = |f: FailureReport| [f.crashed, f.hung, f.straggled, f.dropped, f.duplicated];
        assert_eq!(injected(f), injected(planned), "{case}");
        assert_eq!(
            (out.root_arrivals, out.included_outputs),
            (root_arrivals, included_outputs),
            "{case}"
        );
        assert_eq!(digest(&out.realized_durations), realized, "{case}");
        assert_eq!(digest(&out.censored_durations), censored, "{case}");
    }
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
