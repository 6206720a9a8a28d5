//! One failure record: a chaos query's `FailureReport`, booked by the
//! engine's ledger, equals the `failures` its decision trace counted on
//! its own, and its injected counts are the plan's, aggregators'
//! faults included; and a stitched mesh trace merges its nodes' records
//! by `FailureReport::absorb`, so the merged count is the sum of theirs.

use cedar::core::policy::WaitPolicyKind;
use cedar::core::{StageSpec, TreeSpec};
use cedar::distrib::LogNormal;
use cedar::runtime::{run_query, FailureReport, FaultPlan, FaultSpec, RuntimeConfig};
use cedar_telemetry::{QueryTrace, TraceSegment, TraceSummary};
use std::sync::Arc;

fn tree() -> TreeSpec {
    TreeSpec::two_level(
        StageSpec::new(LogNormal::new(1.0, 0.6).unwrap(), 8),
        StageSpec::new(LogNormal::new(1.0, 0.4).unwrap(), 4),
    )
}

/// One traced in-process query under a `spec` plan: the engine's
/// report, the trace's own summary, and the faults the plan strikes
/// over every level of the tree.
async fn chaos_query(seed: u64, spec: FaultSpec) -> (FailureReport, TraceSummary, FailureReport) {
    let plan = FaultPlan::new(seed ^ 0xFA11, spec);
    let mut planned = FailureReport::default();
    for level in 0..tree().levels() {
        plan.planned_into(level, 0..tree().nodes_at(level), &mut planned);
    }
    let trace = Arc::new(QueryTrace::new());
    let cfg = RuntimeConfig::new(tree(), 40.0)
        .with_seed(seed)
        .with_trace(trace.clone())
        .with_faults(plan);
    let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
    (out.failures, trace.summary(), planned)
}

#[tokio::test(start_paused = true)]
async fn engine_report_equals_the_trace_summary() {
    // A mixed 30 % plan on the leaves, then on the aggregators too.
    let upper = FaultSpec {
        workers_only: false,
        ..FaultSpec::mixed(0.3)
    };
    let injected = |f: FailureReport| [f.crashed, f.hung, f.straggled, f.dropped, f.duplicated];
    let mut totals = Vec::new();
    for spec in [FaultSpec::mixed(0.3), upper] {
        let mut total = 0;
        for seed in 0..8 {
            let (report, summary, planned) = chaos_query(seed, spec).await;
            assert_eq!(report, summary.failures, "seed {seed}, {spec:?}");
            assert_eq!(injected(report), injected(planned), "seed {seed}, {spec:?}");
            total += report.total_injected();
        }
        totals.push(total);
    }
    // The leaves' fates do not depend on `workers_only`.
    assert!(totals[0] > 0, "eight chaos queries injected no fault");
    assert!(
        totals[1] > totals[0],
        "no aggregator was struck: {totals:?}"
    );
}

fn segment(node: &str, level: usize, summary: TraceSummary) -> TraceSegment {
    TraceSegment {
        node: node.to_owned(),
        role: if level == 0 { "worker" } else { "agg" }.to_owned(),
        level,
        origin: 0,
        trace_id: 1,
        exec_recv_unix_us: 0,
        exec_decode_us: 0,
        exec_queue_us: 0,
        partial_sent_unix_us: 0,
        hops: Vec::new(),
        children: Vec::new(),
        report: None,
        summary,
    }
}

#[tokio::test(start_paused = true)]
async fn merged_summary_absorbs_every_node() {
    // A root over two aggregators over two workers each, every node
    // carrying the summary of a different chaos query.
    let mut summaries = Vec::new();
    for seed in 10..17 {
        summaries.push(chaos_query(seed, FaultSpec::mixed(0.3)).await.1);
    }
    let mut nodes = summaries.iter().copied();
    let mut next = |name: &str, level| segment(name, level, nodes.next().unwrap());
    let mut root = next("root", 2);
    for a in 0..2 {
        let mut agg = next(&format!("agg-{a}"), 1);
        for w in 0..2 {
            agg.children.push(next(&format!("worker-{a}{w}"), 0));
        }
        root.children.push(agg);
    }

    let mut expected = FailureReport::default();
    for s in &summaries {
        expected.absorb(&s.failures);
    }
    let merged = root.merged_summary();
    assert_eq!(merged.failures, expected);
    assert_eq!(
        merged.arrivals,
        summaries.iter().map(|s| s.arrivals).sum::<usize>()
    );
    assert_eq!(
        merged.rearms,
        summaries.iter().map(|s| s.rearms).sum::<usize>()
    );
    assert!(!expected.is_clean(), "seven chaos queries left no record");
}
