//! Cross-backend agreement: the tokio runtime and the discrete-event
//! simulator implement the same semantics, so on matched workloads their
//! mean qualities must agree within sampling noise — and, seed for seed,
//! they must count exactly the same outputs.
//!
//! The runtime tests run under tokio's paused clock, so wall-time effects
//! (timer granularity, scheduling skew) are absent and the agreement
//! bound can be tight.

use cedar::core::policy::WaitPolicyKind;
use cedar::core::{StageSpec, TreeSpec};
use cedar::distrib::LogNormal;
use cedar::runtime::{run_query, RuntimeConfig};
use cedar::sim::{mean_quality, run_trials, simulate_query, SimConfig};
use cedar_telemetry::{QueryTrace, TraceEventKind};
use std::sync::Arc;

fn tree() -> TreeSpec {
    TreeSpec::two_level(
        StageSpec::new(LogNormal::new(2.0, 0.8).unwrap(), 12),
        StageSpec::new(LogNormal::new(2.0, 0.5).unwrap(), 8),
    )
}

async fn runtime_mean(kind: WaitPolicyKind, deadline: f64, trials: usize) -> f64 {
    let mut total = 0.0;
    for i in 0..trials {
        let cfg = RuntimeConfig::new(tree(), deadline).with_seed(1000 + i as u64);
        total += run_query(&cfg, kind).await.quality;
    }
    total / trials as f64
}

fn sim_mean(kind: WaitPolicyKind, deadline: f64, trials: usize) -> f64 {
    let cfg = SimConfig::new(tree(), deadline).with_seed(1000);
    mean_quality(&run_trials(&cfg, kind, trials))
}

#[tokio::test(start_paused = true)]
async fn backends_agree_for_static_policies() {
    // Static policies (no online adaptation) are the cleanest comparison:
    // both backends make identical wait decisions and differ only in
    // sampled randomness.
    for kind in [
        WaitPolicyKind::ProportionalSplit,
        WaitPolicyKind::Ideal,
        WaitPolicyKind::FixedWait(20.0),
    ] {
        for &d in &[25.0, 50.0] {
            let rt = runtime_mean(kind, d, 30).await;
            let sim = sim_mean(kind, d, 30);
            assert!(
                (rt - sim).abs() < 0.12,
                "{kind:?} at D={d}: runtime {rt} vs sim {sim}"
            );
        }
    }
}

#[tokio::test(start_paused = true)]
async fn backends_agree_for_cedar() {
    // Cedar adapts per arrival; arrival timestamps differ slightly
    // between backends (wall conversion), so allow a looser bound.
    for &d in &[30.0, 60.0] {
        let rt = runtime_mean(WaitPolicyKind::Cedar, d, 30).await;
        let sim = sim_mean(WaitPolicyKind::Cedar, d, 30);
        assert!(
            (rt - sim).abs() < 0.15,
            "cedar at D={d}: runtime {rt} vs sim {sim}"
        );
    }
}

#[tokio::test(start_paused = true)]
async fn runtime_quality_monotone_in_deadline() {
    let tight = runtime_mean(WaitPolicyKind::Cedar, 15.0, 20).await;
    let loose = runtime_mean(WaitPolicyKind::Cedar, 120.0, 20).await;
    assert!(
        loose > tight,
        "more budget should mean more quality ({tight} -> {loose})"
    );
    assert!(loose > 0.9, "generous deadline should be nearly lossless");
}

#[tokio::test(start_paused = true)]
async fn backends_agree_seed_for_seed() {
    // The differential law. Both backends sample every duration from
    // `StdRng::seed_from_u64(seed)` in the same order and drive the same
    // `AggregatorState`, so with wall-time effects paused away the one
    // runtime pass loop and the simulator's event loop are one algorithm:
    // not close in the mean, identical per query — the same outputs, the
    // same top-level results, and every bottom aggregator leaving at the
    // same instant. The runtime's instants pass through
    // `TimeScale::to_wall`, which rounds to the nanosecond: 1e-6 model
    // units at this test's 1 ms scale.
    for kind in [
        WaitPolicyKind::Cedar,
        WaitPolicyKind::ProportionalSplit,
        WaitPolicyKind::Ideal,
        WaitPolicyKind::FixedWait(20.0),
    ] {
        for d in [25.0, 50.0, 400.0] {
            for seed in 0..60 {
                let trace = Arc::new(QueryTrace::new());
                let cfg = RuntimeConfig::new(tree(), d)
                    .with_seed(seed)
                    .with_trace(trace.clone());
                let rt = run_query(&cfg, kind).await;
                let sim = simulate_query(&SimConfig::new(tree(), d).with_seed(seed), kind);
                let case = format!("{kind:?} at D={d}, seed {seed}");
                assert_eq!(rt.included_outputs, sim.included_outputs, "{case}");
                assert_eq!(rt.root_arrivals, sim.root_arrivals, "{case}");
                let mut departed = vec![f64::NAN; sim.level1_departures.len()];
                for e in trace.events() {
                    if e.level == 1 && matches!(e.kind, TraceEventKind::Departed { .. }) {
                        departed[e.index] = e.at;
                    }
                }
                for (agg, (rt_at, sim_at)) in
                    departed.iter().zip(&sim.level1_departures).enumerate()
                {
                    assert!(
                        (rt_at - sim_at).abs() <= 1e-6,
                        "{case}, aggregator {agg}: runtime {rt_at} vs sim {sim_at}"
                    );
                }
            }
        }
    }
}
