//! Telemetry-on/off twins for the mesh trace path, in the same twin
//! idiom as `wait_scan` and `service_throughput`: identical work with
//! the observability knob flipped, so the difference IS the cost.
//!
//! Two layers are measured. The codec twins put a number on what the
//! trace capsule adds to one `partial` frame (encode + decode, binary
//! wire); the query twins run the same seeded query through a live
//! in-process 7-process mesh with `explain` off vs on. The documented
//! budget is < 2% end-to-end overhead for the off configuration —
//! plain queries carry `trace: None` / `segment: None` and must not
//! pay for stitching they did not ask for; the explain twin prices the
//! opt-in.

use cedar_distrib::spec::DistSpec;
use cedar_mesh::topology::{NodeDef, Role, Topology};
use cedar_mesh::wire::{self, MeshMsg};
use cedar_mesh::NodeHandle;
use cedar_runtime::FailureReport;
use cedar_server::Client;
use cedar_telemetry::{HopRecord, TraceSegment, TraceSummary};
use cedar_workloads::treedef::{StageDef, TreeDef};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Leaves per aggregator in the benchmark tree (2 workers x 2).
const K1: usize = 4;
/// Aggregators (= stage-1 fanout).
const K2: usize = 2;
const DEADLINE: f64 = 400.0;

/// A worker-shaped segment: receive-side spans, no hops, no report.
fn worker_segment(origin: usize) -> TraceSegment {
    TraceSegment {
        node: format!("w{origin}"),
        role: "worker".into(),
        level: 0,
        origin,
        trace_id: 0xBEEF,
        exec_recv_unix_us: 1_700_000_000_000_000,
        exec_decode_us: 45,
        exec_queue_us: 12,
        partial_sent_unix_us: 1_700_000_000_004_000,
        hops: Vec::new(),
        children: Vec::new(),
        report: None,
        summary: TraceSummary::default(),
    }
}

/// An aggregator-shaped segment: two answered hops, two worker
/// children — the capsule a real explain query ships per partial.
fn agg_segment() -> TraceSegment {
    let hop = |child: &str| HopRecord {
        child: child.into(),
        censored: false,
        clock_offset_us: -13,
        exec_sent_unix_us: 1_700_000_000_000_100,
        exec_recv_unix_us: 1_700_000_000_000_400,
        exec_decode_us: 45,
        exec_queue_us: 12,
        partial_sent_unix_us: 1_700_000_000_004_000,
        partial_recv_unix_us: 1_700_000_000_004_300,
    };
    TraceSegment {
        node: "agg0".into(),
        role: "agg".into(),
        level: 1,
        origin: 0,
        trace_id: 0xBEEF,
        exec_recv_unix_us: 1_700_000_000_000_000,
        exec_decode_us: 80,
        exec_queue_us: 20,
        partial_sent_unix_us: 1_700_000_000_008_000,
        hops: vec![hop("w0"), hop("w1")],
        children: vec![worker_segment(0), worker_segment(1)],
        report: None,
        summary: TraceSummary::default(),
    }
}

fn partial(segment: Option<Box<TraceSegment>>) -> MeshMsg {
    MeshMsg::Partial {
        query_id: 7,
        from: "agg0".into(),
        origin: 0,
        payload: K1,
        value: K1 as f64,
        duration: 3.25,
        retry: false,
        timings: (0..K1)
            .map(|origin| wire::StageTiming {
                level: 0,
                origin,
                duration: 2.5,
            })
            .collect(),
        censored: Vec::new(),
        failures: FailureReport::default(),
        segment,
    }
}

/// Encode + decode one frame on the binary wire.
fn roundtrip(msg: &MeshMsg) -> MeshMsg {
    let mut buf = Vec::with_capacity(4096);
    wire::send(&mut buf, msg).expect("encode");
    wire::recv(&mut buf.as_slice())
        .expect("decode")
        .expect("one frame")
}

fn bench_capsule_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("mesh_trace/wire");
    let plain = partial(None);
    let traced = partial(Some(Box::new(agg_segment())));
    group.bench_function("partial_plain", |b| {
        b.iter(|| black_box(roundtrip(black_box(&plain))));
    });
    group.bench_function("partial_with_segment", |b| {
        b.iter(|| black_box(roundtrip(black_box(&traced))));
    });
    group.finish();
}

/// The benchmark topology: 1 root, 2 aggs, 2 workers hosting 2 leaves
/// each. `unit_us` is tiny so the model sleeps stay in the tens of
/// microseconds and the wire/trace machinery is a visible fraction.
fn topo() -> Topology {
    let ports: Vec<u16> = (0..5)
        .map(|_| {
            TcpListener::bind("127.0.0.1:0")
                .expect("bind")
                .local_addr()
                .expect("addr")
                .port()
        })
        .collect();
    let addr = |i: usize| format!("127.0.0.1:{}", ports[i]);
    Topology {
        unit_us: Some(20),
        heartbeat_ms: Some(200),
        miss_limit: Some(5),
        wire: None,
        replicas: None,
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
                children: Some(vec!["w0".into()]),
                processes: None,
                wire: None,
            },
            NodeDef {
                name: "agg1".into(),
                role: Role::Agg,
                addr: addr(2),
                children: Some(vec!["w1".into()]),
                processes: None,
                wire: None,
            },
            NodeDef {
                name: "w0".into(),
                role: Role::Worker,
                addr: addr(3),
                children: None,
                processes: Some(K1),
                wire: None,
            },
            NodeDef {
                name: "w1".into(),
                role: Role::Worker,
                addr: addr(4),
                children: None,
                processes: Some(K1),
                wire: None,
            },
        ],
    }
}

fn tree() -> TreeDef {
    TreeDef {
        stages: vec![
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 1.0,
                    sigma: 0.4,
                },
                fanout: K1,
            },
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 0.5,
                    sigma: 0.3,
                },
                fanout: K2,
            },
        ],
    }
}

fn bench_mesh_query(c: &mut Criterion) {
    let topo = topo();
    let mut handles: Vec<NodeHandle> = Vec::new();
    for role in [Role::Worker, Role::Agg, Role::Root] {
        for node in &topo.nodes {
            if node.role == role {
                handles.push(
                    cedar_mesh::start(topo.clone(), &node.name, None)
                        .unwrap_or_else(|e| panic!("starting {}: {e}", node.name)),
                );
            }
        }
    }
    let ready_by = Instant::now() + Duration::from_secs(10);
    while handles.iter().any(|h| h.peers_up() < h.peers_total()) {
        assert!(Instant::now() < ready_by, "mesh never became ready");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut client = Client::connect(&topo.root().addr).expect("connect to root");
    let def = tree();
    // Warm the prepared-context caches so both twins measure the
    // steady state, not the first-query profile build.
    client
        .query(&def, Some(DEADLINE), Some(1))
        .expect("warm-up query");

    let mut group = c.benchmark_group("mesh_trace/query");
    group.sample_size(20);
    group.bench_function("plain", |b| {
        b.iter(|| {
            let resp = client.query(&def, Some(DEADLINE), Some(42)).expect("query");
            black_box(resp.result.expect("result").included_outputs)
        });
    });
    group.bench_function("explain", |b| {
        b.iter(|| {
            let resp = client
                .query_explain(&def, Some(DEADLINE), Some(42))
                .expect("query");
            let result = resp.result.expect("result");
            black_box(
                result
                    .trace
                    .expect("trace")
                    .mesh
                    .expect("mesh")
                    .root
                    .hop_count(),
            )
        });
    });
    group.finish();

    for h in &handles {
        h.stop();
    }
    for h in handles {
        h.join();
    }
}

criterion_group!(benches, bench_capsule_codec, bench_mesh_query);
criterion_main!(benches);
