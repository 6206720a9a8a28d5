//! End-to-end mesh tests: a full 3-level, 7-process topology (1 root,
//! 2 aggregators, 4 workers × 4 leaves) brought up in-process, queried
//! through the ordinary client protocol, and degraded both by injected
//! faults and by actually killing nodes. The point under test is the
//! acceptance bar: a real dead peer must flow through exactly the same
//! quality/failure accounting as an injected one.

use cedar_distrib::spec::DistSpec;
use cedar_mesh::topology::{NodeDef, Role, Topology};
use cedar_mesh::wire::leaf_seed;
use cedar_mesh::{NodeHandle, NodeOptions};
use cedar_runtime::{FailureReport, FaultPlan, FaultSpec, RecoveryPolicy};
use cedar_server::proto::Request;
use cedar_server::Client;
use cedar_telemetry::{FlightDump, TraceEventKind, TraceSegment};
use cedar_workloads::treedef::{StageDef, TreeDef};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

const LEAVES_PER_AGG: usize = 8; // 2 workers x 4 processes
const AGGS: usize = 2;
const TOTAL: usize = LEAVES_PER_AGG * AGGS;
const DEADLINE: f64 = 400.0;

/// Runs the mesh tests one at a time. Each spins up a 7-node,
/// ~35-thread topology; concurrent meshes multiply scheduler jitter
/// into the wall-clock arrival observations the wait policy refits on,
/// and these tests assert *exact* accounting. Serializing (plus the
/// coarse `unit_us` below) keeps skew well under one model unit.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Reserves `n` distinct free localhost ports.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind port 0"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").port())
        .collect()
}

/// The 7-node test topology; `replicas` splits the two aggregators
/// into singleton replica sets.
fn topo(replicated: bool) -> Topology {
    let p = free_ports(7);
    let addr = |i: usize| format!("127.0.0.1:{}", p[i]);
    let worker = |name: &str, i: usize| NodeDef {
        name: name.into(),
        role: Role::Worker,
        addr: addr(i),
        children: None,
        processes: Some(4),
        wire: None,
    };
    Topology {
        // Coarse enough that thread-scheduling jitter (single-digit
        // ms under a loaded test run) stays far below one model unit,
        // so the online refit never mistakes skew for stragglers.
        unit_us: Some(2_000),
        heartbeat_ms: Some(100),
        miss_limit: Some(3),
        wire: None,
        replicas: replicated.then(|| vec![vec!["agg0".into()], vec!["agg1".into()]]),
        nodes: vec![
            NodeDef {
                name: "root".into(),
                role: Role::Root,
                addr: addr(0),
                children: Some(vec!["agg0".into(), "agg1".into()]),
                processes: None,
                wire: None,
            },
            NodeDef {
                name: "agg0".into(),
                role: Role::Agg,
                addr: addr(1),
                children: Some(vec!["w0".into(), "w1".into()]),
                processes: None,
                wire: None,
            },
            NodeDef {
                name: "agg1".into(),
                role: Role::Agg,
                addr: addr(2),
                children: Some(vec!["w2".into(), "w3".into()]),
                processes: None,
                wire: None,
            },
            worker("w0", 3),
            worker("w1", 4),
            worker("w2", 5),
            worker("w3", 6),
        ],
    }
}

fn tree(k2: usize) -> TreeDef {
    TreeDef {
        stages: vec![
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 2.0,
                    sigma: 0.5,
                },
                fanout: LEAVES_PER_AGG,
            },
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 1.0,
                    sigma: 0.3,
                },
                fanout: k2,
            },
        ],
    }
}

/// Starts every node (workers, then aggs, then root) and waits until
/// all parent→child links are established.
fn start_mesh(topo: &Topology, root_plan: Option<FaultPlan>) -> Vec<NodeHandle> {
    let mut handles = Vec::new();
    for role in [Role::Worker, Role::Agg, Role::Root] {
        for node in &topo.nodes {
            if node.role == role {
                let plan = if role == Role::Root {
                    root_plan.clone()
                } else {
                    None
                };
                handles.push(
                    cedar_mesh::start(topo.clone(), &node.name, plan)
                        .unwrap_or_else(|e| panic!("starting {}: {e}", node.name)),
                );
            }
        }
    }
    wait_ready(&handles);
    handles
}

fn wait_ready(handles: &[NodeHandle]) {
    let ready_by = Instant::now() + Duration::from_secs(10);
    while handles.iter().any(|h| h.peers_up() < h.peers_total()) {
        assert!(Instant::now() < ready_by, "mesh never became ready");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn shutdown_all(handles: Vec<NodeHandle>) {
    for h in &handles {
        h.stop();
    }
    for h in handles {
        h.join();
    }
}

fn root_client(topo: &Topology) -> Client {
    Client::connect(&topo.root().addr).expect("connect to root")
}

/// Reads an un-labeled counter's value out of Prometheus text.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} not found"))
}

/// Reads one node's value of `name` out of a federated page, summing
/// across any further label sets the family carries (e.g. `kind=`).
fn federated_metric(text: &str, name: &str, node: &str) -> f64 {
    let tag = format!("node=\"{node}\"");
    let hits: Vec<f64> = text
        .lines()
        .filter(|l| {
            l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b'{') && l.contains(&tag)
        })
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("unparseable sample: {l}"))
        })
        .collect();
    assert!(!hits.is_empty(), "no {name} sample for node {node}");
    hits.iter().sum()
}

/// Sends a bare (tree-less) op to a node and returns its response.
fn raw_op(client: &mut Client, op: &str) -> cedar_server::proto::Response {
    client
        .request(&Request {
            op: op.into(),
            tree: None,
            deadline: None,
            seed: None,
            explain: None,
        })
        .unwrap_or_else(|e| panic!("sending {op}: {e}"))
}

#[test]
fn clean_mesh_answers_at_full_quality_and_deterministically() {
    let _mesh = serial();
    let topo = topo(false);
    let handles = start_mesh(&topo, None);
    let mut client = root_client(&topo);
    assert!(client.ping().expect("ping").ok);

    let tree = tree(AGGS);
    let first = client
        .query(&tree, Some(DEADLINE), Some(42))
        .expect("query");
    assert!(first.ok, "query failed: {:?}", first.error);
    let result = first.result.expect("result");
    assert_eq!(result.total_processes, TOTAL);
    assert_eq!(result.included_outputs, TOTAL, "a clean mesh loses nothing");
    assert!((result.quality - 1.0).abs() < f64::EPSILON);
    assert!((result.value_sum - TOTAL as f64).abs() < 1e-9);
    let report = result.failures.expect("failure report");
    assert!(report.is_clean(), "clean run reported failures: {report:?}");

    // Identical seed, identical answer: every duration is a pure
    // function of (seed, origin), across processes.
    let second = client
        .query(&tree, Some(DEADLINE), Some(42))
        .expect("query again");
    let again = second.result.expect("result");
    assert!((again.quality - result.quality).abs() < f64::EPSILON);
    assert!((again.value_sum - result.value_sum).abs() < 1e-9);

    // Counters reconcile: the root served and completed both queries.
    let stats = client.stats().expect("stats").stats.expect("stats body");
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.served_total, 2);
    let metrics = client.metrics().expect("metrics").metrics.expect("text");
    assert!((metric(&metrics, "cedar_mesh_queries_total") - 2.0).abs() < f64::EPSILON);
    assert!((metric(&metrics, "cedar_queries_total") - 2.0).abs() < f64::EPSILON);

    shutdown_all(handles);
}

#[test]
fn non_root_nodes_refuse_queries_and_unknown_ops_are_typed() {
    let _mesh = serial();
    let topo = topo(false);
    let handles = start_mesh(&topo, None);

    let agg_addr = &topo.node("agg0").expect("agg0").addr;
    let mut agg = Client::connect(agg_addr).expect("connect to agg");
    let resp = agg
        .query(&tree(AGGS), Some(DEADLINE), Some(1))
        .expect("query agg");
    assert!(!resp.ok);
    assert_eq!(
        resp.code.as_deref(),
        Some(cedar_server::proto::ERR_BAD_REQUEST)
    );

    let mut root = root_client(&topo);
    let resp = root
        .request(&cedar_server::proto::Request {
            op: "no_such_op".into(),
            tree: None,
            deadline: None,
            seed: None,
            explain: None,
        })
        .expect("send unknown op");
    assert!(!resp.ok);
    assert_eq!(
        resp.code.as_deref(),
        Some(cedar_server::proto::ERR_UNKNOWN_OP)
    );

    shutdown_all(handles);
}

/// Picks a chaos seed whose plan actually crashes a useful number of
/// leaves (deterministic at runtime; no magic constant to go stale).
fn seed_with_crashes(spec: &FaultSpec) -> (u64, FailureReport) {
    for seed in 0..1000 {
        let plan = FaultPlan::new(seed, *spec);
        let mut planned = FailureReport::default();
        plan.planned_into(0, 0..TOTAL, &mut planned);
        plan.planned_into(1, 0..AGGS, &mut planned);
        if planned.crashed >= 2 && planned.crashed <= TOTAL / 2 {
            return (seed, planned);
        }
    }
    panic!("no seed under 1000 crashes 2..={} leaves", TOTAL / 2);
}

#[test]
fn injected_crashes_account_exactly_without_recovery() {
    let _mesh = serial();
    let spec = FaultSpec::crashes(0.25);
    let (fault_seed, planned) = seed_with_crashes(&spec);
    let plan = FaultPlan::new(fault_seed, spec).with_recovery(RecoveryPolicy {
        speculative_retry: false,
        ..RecoveryPolicy::default()
    });

    let topo = topo(false);
    let handles = start_mesh(&topo, Some(plan.clone()));
    let mut client = root_client(&topo);
    let resp = client
        .query(&tree(AGGS), Some(DEADLINE), Some(9))
        .expect("query");
    assert!(resp.ok, "query failed: {:?}", resp.error);
    let result = resp.result.expect("result");
    let report = result.failures.expect("report");

    // Injection counts are a pure function of the plan; the mesh must
    // report exactly what the plan schedules.
    assert_eq!(report.crashed, planned.crashed);
    assert_eq!(report.hung, 0);
    assert_eq!(report.straggled, 0);

    // Without recovery, every crashed leaf is one lost output and one
    // right-censored observation at its aggregator.
    assert_eq!(result.included_outputs, TOTAL - planned.crashed);
    let expected_quality = (TOTAL - planned.crashed) as f64 / TOTAL as f64;
    assert!((result.quality - expected_quality).abs() < f64::EPSILON);
    assert_eq!(report.censored_observations, planned.crashed);
    assert_eq!(report.retries_launched, 0);

    shutdown_all(handles);
}

#[test]
fn speculative_retries_recover_crashed_leaves() {
    let _mesh = serial();
    let spec = FaultSpec::crashes(0.25);
    let (fault_seed, planned) = seed_with_crashes(&spec);
    let plan = FaultPlan::new(fault_seed, spec); // default recovery: retries on

    let topo = topo(false);
    let handles = start_mesh(&topo, Some(plan));
    let mut client = root_client(&topo);
    let resp = client
        .query(&tree(AGGS), Some(DEADLINE), Some(9))
        .expect("query");
    assert!(resp.ok, "query failed: {:?}", resp.error);
    let result = resp.result.expect("result");
    let report = result.failures.expect("report");

    assert_eq!(
        report.crashed, planned.crashed,
        "injection accounting unchanged"
    );
    assert!(
        report.retries_launched > 0,
        "watchdog never fired: {report:?}"
    );
    assert!(report.retries_delivered > 0, "no retry landed: {report:?}");
    // The generous deadline leaves room for every re-execution, so
    // recovery restores what the crashes took.
    assert!(
        result.included_outputs > TOTAL - planned.crashed,
        "retries recovered nothing: {result:?}"
    );

    shutdown_all(handles);
}

#[test]
fn a_dead_aggregator_degrades_quality_like_an_injected_crash() {
    let _mesh = serial();
    let topo = topo(false);
    let mut handles = start_mesh(&topo, None);

    // Kill agg0 for real (its process, not an injection).
    let idx = handles
        .iter()
        .position(|h| h.name() == "agg0")
        .expect("agg0 handle");
    handles
        .remove(idx)
        .shutdown()
        .expect("the node stops cleanly");

    // Wait for the root's failure detector (missed heartbeats) to see it.
    let root = handles.iter().find(|h| h.name() == "root").expect("root");
    let noticed_by = Instant::now() + Duration::from_secs(10);
    while root.peers_up() != 1 {
        assert!(
            Instant::now() < noticed_by,
            "root never noticed the dead agg"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut client = root_client(&topo);
    let resp = client
        .query(&tree(AGGS), Some(DEADLINE), Some(5))
        .expect("query");
    assert!(resp.ok, "query failed: {:?}", resp.error);
    let result = resp.result.expect("result");
    let report = result.failures.expect("report");

    // Exactly the surviving subtree answers; the dead aggregator is
    // charged as a real crash in the same ledger injections use.
    assert_eq!(result.included_outputs, LEAVES_PER_AGG);
    assert!((result.quality - 0.5).abs() < f64::EPSILON);
    assert!(report.crashed >= 1, "dead agg not charged: {report:?}");

    // An explain query through the crippled mesh stitches what is
    // reachable and marks the dead subtree as one censored hop — the
    // observer sees exactly the loss the quality ledger charges.
    let resp = client
        .query_explain(&tree(AGGS), Some(DEADLINE), Some(5))
        .expect("explain query");
    assert!(resp.ok, "explain failed: {:?}", resp.error);
    let result = resp.result.expect("result");
    let report = result.failures.expect("report");
    assert!(report.crashed >= 1, "dead agg not charged: {report:?}");
    assert!((result.quality - 0.5).abs() < f64::EPSILON);
    let mesh = result
        .trace
        .expect("explain trace")
        .mesh
        .expect("stitched mesh trace");
    assert_eq!(mesh.root.censored_hops(), 1);
    let dead = mesh
        .root
        .hops
        .iter()
        .find(|h| h.censored)
        .expect("censored hop");
    assert_eq!(dead.child, "agg0");
    assert!(dead.exec_sent_unix_us > 0, "send stamp survives censoring");
    assert_eq!(dead.partial_recv_unix_us, 0, "no reply stamp to claim");
    assert_eq!(
        dead.overhead_us(),
        None,
        "no overhead claimed for a dead child"
    );
    // Only the surviving half contributes segments: root, agg1, and
    // agg1's two workers. The renderer still names the lost child.
    assert_eq!(mesh.root.node_count(), 4);
    assert!(mesh.render_tree().contains("agg0"));

    shutdown_all(handles);
}

#[test]
fn replicas_shard_queries_by_consistent_hash() {
    let _mesh = serial();
    let topo = topo(true);
    let handles = start_mesh(&topo, None);
    let mut client = root_client(&topo);

    // Replicated topology: each query runs on ONE aggregator (k2 = 1).
    let tree = tree(1);
    for seed in 0..20 {
        let resp = client
            .query(&tree, Some(DEADLINE), Some(seed))
            .expect("query");
        assert!(resp.ok, "seed {seed} failed: {:?}", resp.error);
        let result = resp.result.expect("result");
        assert_eq!(result.total_processes, LEAVES_PER_AGG);
        // This test pins WHERE queries run, not the wait policy. The
        // online refit may legitimately fold early on a noisy
        // 3-sample estimate for an unvetted seed, so hold the quality
        // ledger (quality == included/total) rather than exactly 1.0;
        // the vetted-seed full-quality case lives in
        // `clean_mesh_answers_at_full_quality_and_deterministically`.
        let ledger = result.included_outputs as f64 / LEAVES_PER_AGG as f64;
        assert!(
            (result.quality - ledger).abs() < f64::EPSILON,
            "seed {seed}: {result:?}"
        );
        assert!(
            result.included_outputs >= 3,
            "seed {seed} folded before min_samples: {result:?}"
        );
    }

    // Both shards took traffic: 20 seeds all landing on one replica
    // would mean the ring is not spreading keys.
    let mut exec_counts = Vec::new();
    for agg in ["agg0", "agg1"] {
        let addr = &topo.node(agg).expect("agg def").addr;
        let mut c = Client::connect(addr).expect("connect agg");
        let text = c.metrics().expect("metrics").metrics.expect("text");
        exec_counts.push(metric(&text, "cedar_mesh_execs_total"));
    }
    assert!(
        exec_counts.iter().all(|&c| c > 0.0),
        "one replica never executed: {exec_counts:?}"
    );
    assert!(
        (exec_counts[0] + exec_counts[1] - 20.0).abs() < f64::EPSILON,
        "execs across shards must sum to the query count: {exec_counts:?}"
    );

    shutdown_all(handles);
}

#[test]
fn leaf_durations_are_origin_pure_across_the_wire() {
    // The engine-side invariant the mesh relies on: the duration a
    // worker samples for (seed, origin) equals what any auditor
    // computes from the same pure inputs.
    let tree = tree(AGGS);
    let spec_tree = tree.build().expect("tree builds");
    let dist = &spec_tree.stage(0).dist;
    for origin in 0..TOTAL {
        let a = dist.sample(&mut StdRng::seed_from_u64(leaf_seed(42, origin)));
        let b = dist.sample(&mut StdRng::seed_from_u64(leaf_seed(42, origin)));
        assert!((a - b).abs() < f64::EPSILON, "origin {origin} not pure");
    }
}

/// The reconciliation law of the federated scrape: the merged page the
/// root assembles names every node (up-marked), carries each node's
/// counters exactly as that node reports them, and its fault counters
/// agree with the client's own `FailureReport` for the same load. The
/// same boot also exercises the plain-HTTP scrape port and both ends
/// of the flight recorder's operator op.
#[test]
fn federated_metrics_reconcile_with_every_node_and_the_client_report() {
    let _mesh = serial();
    let spec = FaultSpec::crashes(0.25);
    let (fault_seed, planned) = seed_with_crashes(&spec);
    let plan = FaultPlan::new(fault_seed, spec).with_recovery(RecoveryPolicy {
        speculative_retry: false,
        ..RecoveryPolicy::default()
    });

    // Hand-boot so the root additionally binds an HTTP scrape port.
    let topo = topo(false);
    let mut handles = Vec::new();
    for role in [Role::Worker, Role::Agg, Role::Root] {
        for node in &topo.nodes {
            if node.role != role {
                continue;
            }
            let h = if role == Role::Root {
                cedar_mesh::start_with(
                    topo.clone(),
                    &node.name,
                    Some(plan.clone()),
                    NodeOptions {
                        metrics_addr: Some("127.0.0.1:0".into()),
                        ..NodeOptions::default()
                    },
                )
            } else {
                cedar_mesh::start(topo.clone(), &node.name, None)
            };
            handles.push(h.unwrap_or_else(|e| panic!("starting {}: {e}", node.name)));
        }
    }
    wait_ready(&handles);

    let mut client = root_client(&topo);
    let resp = client
        .query(&tree(AGGS), Some(DEADLINE), Some(9))
        .expect("query");
    assert!(resp.ok, "query failed: {:?}", resp.error);
    let result = resp.result.expect("result");
    let report = result.failures.expect("report");
    assert_eq!(report.crashed, planned.crashed);

    let fed = raw_op(&mut client, "metrics_federated");
    assert!(fed.ok, "federated scrape failed: {:?}", fed.error);
    let page = fed.metrics.expect("merged page");

    // Every node answered the fan-out, and the page says so.
    for node in &topo.nodes {
        assert!(
            (federated_metric(&page, "cedar_mesh_federated_up", &node.name) - 1.0).abs()
                < f64::EPSILON,
            "{} not marked up:\n{page}",
            node.name
        );
    }

    // The root served one query; each agg and each worker handled
    // exactly one exec for it — six edges, every one visible per-node.
    assert!(
        (federated_metric(&page, "cedar_mesh_queries_total", "root") - 1.0).abs() < f64::EPSILON
    );
    let execs: f64 = ["agg0", "agg1", "w0", "w1", "w2", "w3"]
        .iter()
        .map(|n| federated_metric(&page, "cedar_mesh_execs_total", n))
        .sum();
    assert!(
        (execs - 6.0).abs() < f64::EPSILON,
        "execs across the mesh: {execs}"
    );

    // Per-node values in the merged page are exactly what each node
    // reports for itself: federation relabels, never rewrites.
    for agg in ["agg0", "agg1"] {
        let mut direct = Client::connect(&topo.node(agg).expect("def").addr).expect("connect");
        let own = direct.metrics().expect("metrics").metrics.expect("text");
        assert!(
            (metric(&own, "cedar_mesh_execs_total")
                - federated_metric(&page, "cedar_mesh_execs_total", agg))
            .abs()
                < f64::EPSILON
        );
    }

    // Fault counters reconcile with the client's FailureReport: the
    // scrape, the query result, and the plan all tell one story.
    assert!(
        (federated_metric(&page, "cedar_faults_injected_total", "root")
            - report.total_injected() as f64)
            .abs()
            < f64::EPSILON
    );
    assert!(
        (federated_metric(&page, "cedar_censored_observations_total", "root")
            - report.censored_observations as f64)
            .abs()
            < f64::EPSILON
    );

    // The root's un-labeled registry is also served over plain HTTP.
    let http_addr = handles
        .iter()
        .find(|h| h.name() == "root")
        .and_then(NodeHandle::metrics_addr)
        .expect("root bound a metrics port");
    let mut sock = TcpStream::connect(http_addr).expect("connect scrape port");
    sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("send scrape");
    let mut raw = String::new();
    sock.read_to_string(&mut raw).expect("read scrape");
    assert!(raw.starts_with("HTTP/1.1 200 OK"), "scrape answered: {raw}");
    let body = raw.split("\r\n\r\n").nth(1).expect("http body");
    assert!((metric(body, "cedar_mesh_queries_total") - 1.0).abs() < f64::EPSILON);

    // Only the root federates; an aggregator says so in a typed error.
    let mut agg = Client::connect(&topo.node("agg0").expect("def").addr).expect("connect");
    let refused = raw_op(&mut agg, "metrics_federated");
    assert!(!refused.ok);
    assert_eq!(
        refused.code.as_deref(),
        Some(cedar_server::proto::ERR_BAD_REQUEST)
    );

    // Flight recorders on the root and the agg both kept the query.
    let dump: FlightDump = serde_json::from_str(
        &raw_op(&mut client, "flight_dump")
            .metrics
            .expect("dump body"),
    )
    .expect("dump json");
    assert_eq!(dump.node, "root");
    assert_eq!(dump.reason, "operator");
    assert_eq!(dump.entries.len(), 1);
    assert_eq!(dump.entries[0].expected, TOTAL);
    assert!((dump.entries[0].quality - result.quality).abs() < f64::EPSILON);
    let agg_dump: FlightDump =
        serde_json::from_str(&raw_op(&mut agg, "flight_dump").metrics.expect("dump body"))
            .expect("dump json");
    assert_eq!(agg_dump.entries.len(), 1);
    assert_eq!(agg_dump.entries[0].expected, LEAVES_PER_AGG);

    shutdown_all(handles);
}

/// An explain query comes back with the whole process tree stitched
/// into one timeline: seven segments, six hops, nothing censored, and
/// merged counters that agree with the failure report.
#[test]
fn explain_queries_stitch_a_cross_process_trace() {
    let _mesh = serial();
    let topo = topo(false);
    let handles = start_mesh(&topo, None);
    let mut client = root_client(&topo);
    let resp = client
        .query_explain(&tree(AGGS), Some(DEADLINE), Some(42))
        .expect("query");
    assert!(resp.ok, "query failed: {:?}", resp.error);
    let result = resp.result.expect("result");
    assert_eq!(result.included_outputs, TOTAL);
    let report = result.failures.expect("report");
    let trace = result.trace.expect("explain trace");
    let mesh = trace.mesh.expect("stitched mesh trace");

    assert_ne!(mesh.trace_id, 0);
    assert_eq!(mesh.root.node_count(), 7, "root + 2 aggs + 4 workers");
    assert_eq!(mesh.root.hop_count(), 6, "one hop per parent-child edge");
    assert_eq!(mesh.root.censored_hops(), 0);

    // Every segment carries the same trace id, and every hop's stamps
    // are real: non-zero, with the reply after the request on the
    // parent's clock and a non-negative measured overhead.
    fn walk(seg: &TraceSegment, trace_id: u64) {
        assert_eq!(seg.trace_id, trace_id, "{} mis-threaded", seg.node);
        for hop in &seg.hops {
            assert!(!hop.censored, "{} censored on a clean mesh", hop.child);
            assert!(hop.exec_sent_unix_us > 0 && hop.exec_recv_unix_us > 0);
            assert!(hop.partial_recv_unix_us >= hop.exec_sent_unix_us);
            assert!(hop.overhead_us().expect("answered hop has spans") >= 0);
        }
        for child in &seg.children {
            walk(child, trace_id);
        }
    }
    walk(&mesh.root, mesh.trace_id);

    // The merged counters are the failure report, seen from the trace.
    assert!(report.is_clean(), "clean run reported failures: {report:?}");
    assert!(
        report == mesh.root.merged_summary().failures,
        "trace counters diverge: {:?} vs {report:?}",
        mesh.root.merged_summary()
    );

    // The wire cost something measurable, and the rendering names
    // every process in the tree.
    assert!(mesh.root.wire_overhead_us() > 0);
    let rendered = mesh.render_tree();
    for node in &topo.nodes {
        assert!(
            rendered.contains(&node.name),
            "{} missing from:\n{rendered}",
            node.name
        );
    }

    // A plain query on the same mesh ships no trace: explain is
    // strictly opt-in, so the hot path stays capsule-free.
    let plain = client
        .query(&tree(AGGS), Some(DEADLINE), Some(42))
        .expect("query");
    assert!(plain.result.expect("result").trace.is_none());

    shutdown_all(handles);
}

/// A mesh aggregator runs the engine's own pass loop, so it leaves the
/// same evidence an in-process aggregator does: its segment of an
/// explain trace pairs every estimate with a re-arm, and its scrape
/// counts one timed wait scan per leaf it counted.
#[test]
fn mesh_aggregators_trace_estimates_and_time_their_wait_scans() {
    let _mesh = serial();
    let topo = topo(false);
    let handles = start_mesh(&topo, None);
    let mut client = root_client(&topo);

    let resp = client
        .query_explain(&tree(AGGS), Some(DEADLINE), Some(42))
        .expect("query");
    let result = resp.result.expect("result");
    let mut lossless = result.included_outputs == TOTAL;
    let mesh = result
        .trace
        .and_then(|t| t.mesh)
        .expect("stitched mesh trace");
    let agg_events = mesh
        .root
        .children
        .iter()
        .filter_map(|seg| seg.report.as_ref())
        .flat_map(|report| &report.events)
        .filter(|e| e.level == 1);
    let (mut estimates, mut rearms) = (0, 0);
    for e in agg_events {
        match e.kind {
            TraceEventKind::Estimate { .. } => estimates += 1,
            TraceEventKind::Rearm { .. } => rearms += 1,
            _ => {}
        }
    }
    assert!(estimates > 0, "mesh aggregators recorded no estimates");
    assert_eq!(estimates, rearms);

    const PLAIN: usize = 4;
    for seed in 0..PLAIN as u64 {
        let resp = client
            .query(&tree(AGGS), Some(DEADLINE), Some(seed))
            .expect("query");
        lossless &= resp.result.expect("result").included_outputs == TOTAL;
    }
    let scans: f64 = ["agg0", "agg1"]
        .iter()
        .map(|agg| {
            let mut direct = Client::connect(&topo.node(agg).expect("def").addr).expect("connect");
            let page = direct.metrics().expect("metrics").metrics.expect("text");
            metric(&page, "cedar_wait_scan_seconds_count")
        })
        .sum();
    let ceiling = ((1 + PLAIN) * TOTAL) as f64;
    assert!(scans > 0.0 && scans <= ceiling, "{scans} scans");
    if lossless {
        assert!((scans - ceiling).abs() < f64::EPSILON, "{scans} scans");
    }

    shutdown_all(handles);
}

#[test]
fn malformed_frames_get_a_typed_refusal_and_the_connection_keeps_serving() {
    let _serial = serial();
    let topo = topo(false);
    let worker = cedar_mesh::start(topo.clone(), "w0", None).expect("start w0");
    let mut conn = TcpStream::connect(worker.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // An empty frame: a length prefix of zero and nothing after it.
    conn.write_all(&0u32.to_be_bytes())
        .expect("write empty frame");
    cedar_server::proto::write_frame_binary(&mut conn, &Request::ping()).expect("write ping");
    let refused: cedar_server::proto::Response = cedar_server::proto::read_frame(&mut conn)
        .expect("refusal")
        .expect("a response, not EOF");
    assert!(!refused.ok);
    assert_eq!(
        refused.code.as_deref(),
        Some(cedar_server::proto::ERR_BAD_REQUEST)
    );
    let pong: cedar_server::proto::Response = cedar_server::proto::read_frame_raw(&mut conn)
        .expect("pong")
        .expect("a response, not EOF")
        .decode_auto()
        .expect("decode pong");
    assert!(pong.ok, "{pong:?}");
    worker.shutdown().expect("the node stops cleanly");
}

/// A scratch checkpoint root for one test, emptied first.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cedar-mesh-learner-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Boots `agg0` alone, learning into `dir` (its workers never come up;
/// the client ops it serves do not need them).
fn boot_learning_agg(topo: &Topology, dir: &std::path::Path) -> NodeHandle {
    cedar_mesh::start_with(
        topo.clone(),
        "agg0",
        None,
        NodeOptions {
            checkpoint: Some(cedar_runtime::CheckpointConfig::new(dir)),
            ..NodeOptions::default()
        },
    )
    .expect("start agg0")
}

fn node_stats(addr: std::net::SocketAddr) -> cedar_server::proto::ServerStats {
    let mut c = Client::connect(addr).expect("connect");
    c.stats().expect("stats").stats.expect("stats body")
}

/// A checkpoint for one leaf stage of `fanout`, written `age_ms` ago.
fn store_leaf_checkpoint(dir: &std::path::Path, fanout: usize, age_ms: u64) {
    use cedar_runtime::checkpoint::{self, Checkpoint, StageCheckpoint};
    let ckpt = Checkpoint {
        epoch: 3,
        completed: 24,
        refits: 3,
        written_unix_ms: cedar_runtime::clock::unix_ms() - age_ms,
        stages: vec![StageCheckpoint {
            fanout: fanout as u64,
            fitted: Some((2.0, 0.5)),
            stats: cedar_estimate::EmpiricalStats::default(),
            censored: 0,
        }],
    };
    checkpoint::store(dir, &ckpt).expect("store checkpoint");
}

/// An aggregator's learner reports through the same registry as the
/// service's: after a refit, its scrape and its `stats` op agree.
#[test]
fn aggregator_stats_and_scrape_agree_on_refits() {
    let _mesh = serial();
    let dir = scratch("scrape");
    let topo = topo(false);
    let mut handles = Vec::new();
    for role in [Role::Worker, Role::Agg, Role::Root] {
        for node in topo.nodes.iter().filter(|n| n.role == role) {
            let options = NodeOptions {
                checkpoint: (role == Role::Agg)
                    .then(|| cedar_runtime::CheckpointConfig::new(dir.join(&node.name))),
                ..NodeOptions::default()
            };
            handles.push(
                cedar_mesh::start_with(topo.clone(), &node.name, None, options)
                    .unwrap_or_else(|e| panic!("starting {}: {e}", node.name)),
            );
        }
    }
    wait_ready(&handles);
    let mut client = root_client(&topo);
    for seed in 0..8 {
        let resp = client
            .query(&tree(AGGS), Some(DEADLINE), Some(seed))
            .expect("query");
        assert!(resp.ok, "query failed: {:?}", resp.error);
    }
    for agg in ["agg0", "agg1"] {
        let addr = handles
            .iter()
            .find(|h| h.name() == agg)
            .expect("agg handle")
            .local_addr();
        // The eighth pass refits before it ships; allow for a partial
        // that lost the race to the root's deadline.
        let by = Instant::now() + Duration::from_secs(10);
        let stats = loop {
            let s = node_stats(addr);
            if s.refits >= 1 {
                break s;
            }
            assert!(Instant::now() < by, "{agg} never refitted: {s:?}");
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut c = Client::connect(addr).expect("connect");
        let page = c.metrics().expect("metrics").metrics.expect("text");
        assert!((metric(&page, "cedar_refits_total") - stats.refits as f64).abs() < f64::EPSILON);
        assert!((metric(&page, "cedar_priors_epoch") - stats.epoch as f64).abs() < f64::EPSILON);
        assert!(metric(&page, "cedar_checkpoints_total") >= 1.0, "{page}");
        assert!(stats.checkpoint_age_ms.is_some(), "the refit checkpointed");
    }
    shutdown_all(handles);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm-restarted aggregator counts the checkpoint's age from when
/// it was written, not from boot.
#[test]
fn warm_restarted_aggregator_reports_the_checkpoints_age() {
    let _mesh = serial();
    let dir = scratch("aged");
    store_leaf_checkpoint(&dir, LEAVES_PER_AGG, 60_000);
    let agg = boot_learning_agg(&topo(false), &dir);
    let stats = node_stats(agg.local_addr());
    assert_eq!(stats.warm_restart, Some(true));
    assert_eq!((stats.epoch, stats.refits), (3, 3));
    let age = stats
        .checkpoint_age_ms
        .expect("a restored checkpoint has an age");
    assert!(age >= 60_000, "age {age} ms");
    agg.shutdown().expect("the node stops cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh aggregator has no checkpoint, so no checkpoint age — until
/// it writes one (here: on shutdown), which the next boot adopts.
#[test]
fn fresh_aggregator_reports_no_checkpoint_age_until_it_writes_one() {
    let _mesh = serial();
    let dir = scratch("fresh");
    let topo = topo(false);
    let agg = boot_learning_agg(&topo, &dir);
    let stats = node_stats(agg.local_addr());
    assert_eq!(stats.warm_restart, Some(false));
    assert_eq!(stats.checkpoint_age_ms, None);
    assert!(agg
        .learner()
        .and_then(cedar_runtime::Learner::cold_start_reason)
        .is_some_and(|r| r.contains("no checkpoint")));
    agg.shutdown().expect("the node stops cleanly");
    let agg = boot_learning_agg(&topo, &dir);
    let stats = node_stats(agg.local_addr());
    assert_eq!(stats.warm_restart, Some(true));
    assert!(stats.checkpoint_age_ms.is_some());
    agg.shutdown().expect("the node stops cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint written for another fan-out does not fit this
/// aggregator: it cold-starts and says why.
#[test]
fn aggregator_refuses_a_checkpoint_for_another_fanout() {
    let _mesh = serial();
    let dir = scratch("shape");
    store_leaf_checkpoint(&dir, 2 * LEAVES_PER_AGG, 0);
    let agg = boot_learning_agg(&topo(false), &dir);
    let stats = node_stats(agg.local_addr());
    assert_eq!(stats.warm_restart, Some(false));
    assert_eq!((stats.epoch, stats.refits), (0, 0));
    let reason = agg
        .learner()
        .and_then(cedar_runtime::Learner::cold_start_reason)
        .expect("a cold-start reason");
    assert!(reason.contains("fan-out"), "{reason}");
    agg.shutdown().expect("the node stops cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}
