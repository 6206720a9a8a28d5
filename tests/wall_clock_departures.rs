//! The differential law on the real clock. A bottom aggregator walks
//! its leaf timeline in model time, so when it leaves cannot depend on
//! how late the host wakes its task, and the root counts a result by
//! when it ships, not by when the host gets it there. So on a
//! multi-thread runtime with the wall clock running, every level-1
//! departure is the simulator's, and so are the outputs counted, as
//! `runtime_vs_sim.rs` shows on the paused clock.

use cedar::core::policy::WaitPolicyKind;
use cedar::core::{StageSpec, TreeSpec};
use cedar::distrib::LogNormal;
use cedar::runtime::{run_query, RuntimeConfig};
use cedar::sim::{simulate_query, SimConfig};
use cedar_telemetry::{QueryTrace, TraceEventKind};
use std::sync::Arc;

/// The tree of `runtime_vs_sim.rs`: 12 leaves under each of 8
/// aggregators.
fn tree() -> TreeSpec {
    TreeSpec::two_level(
        StageSpec::new(LogNormal::new(2.0, 0.8).unwrap(), 12),
        StageSpec::new(LogNormal::new(2.0, 0.5).unwrap(), 8),
    )
}

#[test]
fn backends_agree_seed_for_seed_on_the_wall_clock() {
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_time()
        .build()
        .unwrap();
    // One model unit is one wall millisecond (`RuntimeConfig::new`); the
    // runtime's instants pass through `TimeScale::to_wall`, which rounds
    // to the nanosecond: 1e-6 units.
    for kind in [WaitPolicyKind::Cedar, WaitPolicyKind::ProportionalSplit] {
        for d in [25.0, 50.0] {
            for seed in 0..20 {
                let trace = Arc::new(QueryTrace::new());
                let cfg = RuntimeConfig::new(tree(), d)
                    .with_seed(seed)
                    .with_trace(trace.clone());
                let out = rt.block_on(run_query(&cfg, kind));
                let sim = simulate_query(&SimConfig::new(tree(), d).with_seed(seed), kind);
                let case = format!("{kind:?} at D={d}, seed {seed}");
                assert_eq!(out.included_outputs, sim.included_outputs, "{case}");
                assert_eq!(out.root_arrivals, sim.root_arrivals, "{case}");
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
