//! Decision-trace and metrics integration tests: a traced chaos query's
//! aggregate counters must agree *exactly* with its [`FailureReport`],
//! the trace's `QueryEnd` must agree with the [`RuntimeOutcome`], and
//! attaching observability must not change the outcome itself.

use cedar_core::policy::WaitPolicyKind;
use cedar_core::{StageSpec, TreeSpec};
use cedar_distrib::LogNormal;
use cedar_runtime::metrics::RuntimeMetrics;
use cedar_runtime::{
    run_query, AggregationService, FaultPlan, FaultSpec, QueryOptions, RuntimeConfig,
    RuntimeOutcome, ServiceConfig,
};
use cedar_telemetry::{QueryTrace, Registry, ShipReason, TraceEventKind};
use std::sync::Arc;

const K1: usize = 8;
const K2: usize = 4;

fn tree() -> TreeSpec {
    TreeSpec::two_level(
        StageSpec::new(LogNormal::new(1.0, 0.6).unwrap(), K1),
        StageSpec::new(LogNormal::new(1.0, 0.4).unwrap(), K2),
    )
}

async fn traced_run(
    deadline: f64,
    seed: u64,
    plan: Option<FaultPlan>,
) -> (RuntimeOutcome, Arc<QueryTrace>) {
    let trace = Arc::new(QueryTrace::new());
    let mut cfg = RuntimeConfig::new(tree(), deadline)
        .with_seed(seed)
        .with_trace(trace.clone());
    if let Some(plan) = plan {
        cfg = cfg.with_faults(plan);
    }
    let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
    (out, trace)
}

#[tokio::test(start_paused = true)]
async fn chaos_trace_counts_match_failure_report_exactly() {
    for seed in 0..8u64 {
        let plan = FaultPlan::new(seed ^ 0xC1A05, FaultSpec::mixed(0.3));
        let (out, trace) = traced_run(40.0, seed, Some(plan)).await;
        let summary = trace.summary();
        assert!(
            out.failures == summary.failures,
            "seed {seed}: trace {summary:?} != report {:?}",
            out.failures
        );
    }
}

#[tokio::test(start_paused = true)]
async fn trace_query_end_matches_outcome() {
    let plan = FaultPlan::new(17, FaultSpec::mixed(0.25));
    let (out, trace) = traced_run(40.0, 5, Some(plan)).await;
    let report = trace.report();
    let events = &report.events;
    assert!(matches!(
        events.first().map(|e| &e.kind),
        Some(TraceEventKind::QueryStart { .. })
    ));
    let Some(TraceEventKind::QueryEnd {
        quality,
        included,
        reason: _,
    }) = events.last().map(|e| &e.kind)
    else {
        panic!("trace must end with QueryEnd");
    };
    assert_eq!(*quality, out.quality);
    assert_eq!(*included, out.included_outputs);
    // The rendered timeline carries the same totals.
    let text = report.render_timeline();
    assert!(text.contains("query start"), "timeline:\n{text}");
    assert!(text.contains("query end"), "timeline:\n{text}");
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn a_deadline_bound_query_reports_its_overrun() {
    // Real clock. Every aggregator waits until the deadline, but every
    // leaf is done within a unit, so each aggregator has all its children
    // and leaves long before it. Aggregating then takes some 33 units:
    // no result reaches the root by the deadline, and the root leaves on
    // its deadline timer — which never fires exactly on time. The
    // outcome and the trace's last event both carry the overrun. (With
    // slower leaves, an aggregator still waiting at the deadline leaves
    // on one worker while the root records `QueryEnd` on the other, and
    // either may record first.)
    let deadline = 4.0;
    let tree = TreeSpec::two_level(
        StageSpec::new(LogNormal::new(-1.0, 0.3).unwrap(), K1),
        StageSpec::new(LogNormal::new(3.5, 0.1).unwrap(), K2),
    );
    let trace = Arc::new(QueryTrace::new());
    let cfg = RuntimeConfig::new(tree, deadline)
        .with_seed(1)
        .with_trace(trace.clone());
    let out = run_query(&cfg, WaitPolicyKind::FixedWait(5.0)).await;
    let scaled = cfg.scale.to_wall(deadline);
    assert!(
        out.wall_elapsed > scaled,
        "{:?} is not past the {scaled:?} deadline",
        out.wall_elapsed
    );
    let events = trace.events();
    let end = events.last().expect("trace must end with QueryEnd");
    assert!(
        matches!(
            end.kind,
            TraceEventKind::QueryEnd {
                reason: ShipReason::DeadlineExpired,
                ..
            }
        ),
        "{:?}",
        end.kind
    );
    assert_eq!(end.at, cfg.scale.to_model(out.wall_elapsed));
    assert!(events.iter().all(|e| e.at <= end.at), "{events:?}");
}

#[tokio::test(start_paused = true)]
async fn clean_trace_records_the_decision_timeline() {
    let (out, trace) = traced_run(400.0, 3, None).await;
    assert_eq!(out.quality, 1.0);
    let events = trace.events();
    let initial_waits = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::InitialWait { .. }))
        .count();
    assert_eq!(initial_waits, K2, "one initial wait per aggregator");
    // Cedar revises per arrival: estimates and re-arms must be present,
    // and each Estimate is paired with a Rearm.
    let estimates = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Estimate { .. }))
        .count();
    let rearms = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Rearm { .. }))
        .count();
    assert!(estimates > 0, "cedar recorded no estimates");
    assert_eq!(estimates, rearms);
    // Every worker arrived and was recorded at its aggregator.
    assert_eq!(trace.summary().arrivals, K1 * K2);
    let roots = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::RootArrival { .. }))
        .count();
    assert_eq!(roots, out.root_arrivals);
    // Gain/loss at the chosen wait are finite and ordered sanely.
    for e in &events {
        if let TraceEventKind::Rearm {
            wait,
            expected_quality,
            gain,
            loss,
        } = e.kind
        {
            assert!(wait.is_finite() && wait >= 0.0);
            assert!((0.0..=1.0).contains(&expected_quality));
            assert!(gain.is_finite() && loss.is_finite());
        }
    }
}

#[tokio::test(start_paused = true)]
async fn tracing_does_not_change_the_outcome() {
    let plan = || FaultPlan::new(29, FaultSpec::mixed(0.2));
    let cfg_plain = RuntimeConfig::new(tree(), 40.0)
        .with_seed(9)
        .with_faults(plan());
    let plain = run_query(&cfg_plain, WaitPolicyKind::Cedar).await;
    let (traced, _) = traced_run(40.0, 9, Some(plan())).await;
    assert_eq!(plain.quality, traced.quality);
    assert_eq!(plain.included_outputs, traced.included_outputs);
    assert_eq!(plain.failures, traced.failures);
    assert_eq!(plain.realized_durations, traced.realized_durations);
}

#[tokio::test(start_paused = true)]
async fn metrics_accumulate_across_queries() {
    let registry = Registry::new();
    let metrics = RuntimeMetrics::register(&registry);
    let mut total = cedar_runtime::FailureReport::default();
    for seed in 0..4u64 {
        let cfg = RuntimeConfig::new(tree(), 40.0)
            .with_seed(seed)
            .with_faults(FaultPlan::new(seed, FaultSpec::mixed(0.3)))
            .with_metrics(metrics.clone());
        let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
        total.crashed += out.failures.crashed;
        total.hung += out.failures.hung;
        total.straggled += out.failures.straggled;
        total.dropped += out.failures.dropped;
        total.duplicated += out.failures.duplicated;
        total.censored_observations += out.failures.censored_observations;
    }
    assert_eq!(metrics.queries_total.value(), 4);
    assert_eq!(metrics.faults_injected.crash.value(), total.crashed as u64);
    assert_eq!(metrics.faults_injected.hang.value(), total.hung as u64);
    assert_eq!(
        metrics.faults_injected.straggle.value(),
        total.straggled as u64
    );
    assert_eq!(metrics.faults_injected.drop.value(), total.dropped as u64);
    assert_eq!(
        metrics.faults_injected.duplicate.value(),
        total.duplicated as u64
    );
    assert_eq!(
        metrics.censored_observations_total.value(),
        total.censored_observations as u64
    );
    // The scan histogram recorded one sample per counted arrival.
    let scans = metrics.wait_scan_seconds.snapshot().count;
    assert!(scans > 0, "no wait scans were timed");
    let text = registry.render();
    assert!(text.contains("cedar_queries_total 4"));
}

#[tokio::test(start_paused = true)]
async fn service_threads_trace_and_metrics_through() {
    let registry = Registry::new();
    let metrics = RuntimeMetrics::register(&registry);
    let mut cfg = ServiceConfig::new(tree(), 40.0);
    cfg.refit_interval = 2;
    cfg.metrics = Some(metrics.clone());
    let svc = AggregationService::new(cfg);
    let trace = Arc::new(QueryTrace::new());
    let out = svc
        .submit_with(
            tree(),
            QueryOptions {
                seed: Some(4),
                faults: Some(Arc::new(FaultPlan::new(3, FaultSpec::mixed(0.3)))),
                trace: Some(trace.clone()),
                ..QueryOptions::default()
            },
        )
        .await;
    assert_eq!(out.failures, trace.summary().failures);
    // Second query trips the refit; the epoch gauge must follow.
    svc.submit_with(
        tree(),
        QueryOptions {
            seed: Some(5),
            ..QueryOptions::default()
        },
    )
    .await;
    assert_eq!(metrics.queries_total.value(), 2);
    assert_eq!(svc.refits(), 1);
    assert_eq!(metrics.refits_total.value(), 1);
    assert_eq!(metrics.priors_epoch.get(), svc.epoch() as f64);
    assert_eq!(metrics.priors_epoch_age_queries.get(), 0.0);
    // The traced query planned against epoch 0.
    let events = trace.events();
    assert!(events.iter().any(|e| matches!(
        e.kind,
        TraceEventKind::QueryStart {
            priors_epoch: 0,
            ..
        }
    )));
}
