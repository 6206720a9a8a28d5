//! Concrete decode surfaces for `cargo xtask totality`: every
//! hand-rolled binary reader in the workspace, registered with the seed
//! prefixes its grammar dispatches on and known-good encodings for the
//! mutation sweep.
//!
//! Laws enforced per surface (see `cedar_analysis::totality`):
//!
//! * **no panic** on any probed input;
//! * **bounded allocation** — each decode stays under the surface's
//!   declared cap (the frame reader's cap is `MAX_FRAME_BYTES` plus
//!   slack, since it trusts declared lengths up to that bound);
//! * **decode ∘ encode = id** — accepted inputs re-encode byte-exactly,
//!   or (for JSON capsules and op-aliasing) to a canonical fixpoint.

use crate::roundtrip_outcome;
use cedar_analysis::totality::{Outcome, Surface};
use cedar_distrib::spec::DistSpec;
use cedar_estimate::EmpiricalStats;
use cedar_mesh::wire::{self as mesh_wire, ExecTrace, MeshMsg, StageTiming};
use cedar_runtime::checkpoint::{Checkpoint, StageCheckpoint};
use cedar_runtime::{FailureReport, FaultPlan, FaultSpec};
use cedar_server::proto::{
    self, HealthState, HealthStatus, QueryResult, Request, Response, ServerStats,
};
use cedar_server::spill::record;
use cedar_server::wire2::{self, BinaryCodec};
use cedar_telemetry::flight::{FLIGHT_FORMAT_VERSION, FLIGHT_MAGIC};
use cedar_telemetry::{FlightDump, FlightEntry, HopRecord, TraceSegment, TraceSummary};
use cedar_workloads::treedef::{StageDef, TreeDef};

/// Every registered surface, in display order.
pub fn all() -> Vec<Surface<'static>> {
    vec![
        request_surface(),
        response_surface(),
        mesh_surface(),
        checkpoint_surface(),
        flight_dump_surface(),
        spill_record_surface(),
        frame_surface(),
    ]
}

/// A two-stage tree exercising the scalar dist encodings.
fn small_tree() -> TreeDef {
    TreeDef {
        stages: vec![
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 1.0,
                    sigma: 0.6,
                },
                fanout: 4,
            },
            StageDef {
                dist: DistSpec::Exponential { lambda: 2.0 },
                fanout: 2,
            },
        ],
    }
}

/// A tree with the recursive dist constructors (`Scaled`, `Shifted`,
/// `Mixture`), so golden mutations reach the deep grammar.
fn deep_tree() -> TreeDef {
    TreeDef {
        stages: vec![StageDef {
            dist: DistSpec::Mixture {
                components: vec![
                    (
                        0.25,
                        DistSpec::Scaled {
                            factor: 2.0,
                            inner: Box::new(DistSpec::LogNormal {
                                mu: 0.5,
                                sigma: 0.3,
                            }),
                        },
                    ),
                    (
                        0.75,
                        DistSpec::Shifted {
                            offset: 1.0,
                            inner: Box::new(DistSpec::Uniform { a: 0.0, b: 1.0 }),
                        },
                    ),
                ],
            },
            fanout: 8,
        }],
    }
}

/// A one-hop aggregator segment exercising the JSON trace capsule a
/// `partial` frame can carry.
fn small_segment() -> TraceSegment {
    TraceSegment {
        node: "agg-1".to_owned(),
        role: "agg".to_owned(),
        level: 1,
        origin: 0,
        trace_id: 0xfeed_f00d_dead_beef,
        exec_recv_unix_us: 1_700_000_123_001_000,
        exec_decode_us: 45,
        exec_queue_us: 120,
        partial_sent_unix_us: 1_700_000_123_042_000,
        hops: vec![
            HopRecord {
                child: "worker-0".to_owned(),
                censored: false,
                clock_offset_us: -37,
                exec_sent_unix_us: 1_700_000_123_002_000,
                exec_recv_unix_us: 1_700_000_123_002_400,
                exec_decode_us: 12,
                exec_queue_us: 30,
                partial_sent_unix_us: 1_700_000_123_030_000,
                partial_recv_unix_us: 1_700_000_123_030_500,
            },
            HopRecord::censored("worker-1", 1_700_000_123_002_100, 88),
        ],
        children: Vec::new(),
        report: None,
        summary: TraceSummary {
            arrivals: 4,
            failures: FailureReport {
                censored_observations: 1,
                ..FailureReport::default()
            },
            ..TraceSummary::default()
        },
    }
}

fn encode_req(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    req.encode_binary(&mut buf);
    buf
}

fn encode_resp(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    resp.encode_binary(&mut buf);
    buf
}

fn request_surface() -> Surface<'static> {
    let goldens = vec![
        encode_req(&Request::query(small_tree(), Some(1600.0), Some(7)).with_explain(true)),
        encode_req(&Request::query(deep_tree(), None, None)),
        encode_req(&Request::ping()),
        encode_req(&Request::stats()),
        encode_req(&Request {
            op: "unknown-op".to_owned(),
            tree: None,
            deadline: None,
            seed: None,
            explain: None,
        }),
    ];
    Surface {
        name: "cedar-server::wire2::Request",
        seeds: vec![
            vec![wire2::KIND_QUERY],
            vec![wire2::KIND_STATS],
            vec![wire2::KIND_PING],
            vec![wire2::KIND_SHUTDOWN],
            vec![wire2::KIND_METRICS],
            vec![wire2::KIND_OTHER_OP],
            // Query kind + flags: none, seed-only, and all five bits.
            vec![wire2::KIND_QUERY, 0x00],
            vec![wire2::KIND_QUERY, 0x04],
            vec![wire2::KIND_QUERY, 0x1f],
        ],
        goldens,
        alloc_cap: 1 << 21,
        decode: Box::new(roundtrip_outcome::<Request>),
    }
}

fn response_surface() -> Surface<'static> {
    let goldens = vec![
        encode_resp(&Response::ok()),
        encode_resp(&Response::with_result(QueryResult {
            quality: 0.96,
            included_outputs: 2400,
            total_processes: 2500,
            root_arrivals: 49,
            value_sum: 1234.5,
            latency_ms: 1600.0,
            epoch: 3,
            failures: Some(FailureReport {
                crashed: 2,
                retries_launched: 2,
                retries_delivered: 1,
                ..FailureReport::default()
            }),
            trace: None,
        })),
        encode_resp(&Response::with_stats(ServerStats {
            completed: 10,
            refits: 2,
            epoch: 2,
            cache_hits: 7,
            cache_misses: 3,
            in_flight: 1,
            shed_total: 4,
            served_total: 14,
            priors_age_queries: Some(5),
            checkpoint_age_ms: Some(1200),
            warm_restart: Some(true),
        })),
        encode_resp(&Response::with_metrics("# TYPE cedar gauge\n".to_owned())),
        encode_resp(&Response::with_health(HealthStatus {
            state: HealthState::Degraded,
            in_flight: 3,
            queued: 9,
            spilled: 2,
            spill_disk_bytes: 4096,
            priors_epoch: 5,
            priors_age_queries: 0,
            checkpoint_age_ms: Some(90),
            warm_restart: true,
            wait_scan_p99_seconds: 0.004,
        })),
        encode_resp(&Response::err_code(proto::ERR_SHED, "queue full")),
    ];
    Surface {
        name: "cedar-server::wire2::Response",
        seeds: vec![
            vec![wire2::KIND_RESP_OK],
            vec![wire2::KIND_RESP_RESULT],
            vec![wire2::KIND_RESP_STATS],
            vec![wire2::KIND_RESP_METRICS],
            vec![wire2::KIND_RESP_HEALTH],
            vec![wire2::KIND_RESP_ERR],
            vec![wire2::KIND_RESP_ERR, 0x03],
        ],
        goldens,
        alloc_cap: 1 << 21,
        decode: Box::new(roundtrip_outcome::<Response>),
    }
}

fn mesh_surface() -> Surface<'static> {
    let encode = |msg: &MeshMsg| {
        let mut buf = Vec::new();
        msg.encode_binary(&mut buf);
        buf
    };
    let goldens = vec![
        encode(&MeshMsg::Hello {
            from: "root".to_owned(),
            role: "root".to_owned(),
            topology_hash: 0xdead_beef,
        }),
        encode(&MeshMsg::HelloAck {
            from: "agg-0".to_owned(),
            ok: false,
            error: Some("topology hash mismatch".to_owned()),
        }),
        encode(&MeshMsg::Heartbeat {
            from: "root".to_owned(),
            seq: 42,
        }),
        encode(&MeshMsg::HeartbeatAck {
            from: "agg-0".to_owned(),
            seq: 42,
            at_unix_us: None,
        }),
        encode(&MeshMsg::HeartbeatAck {
            from: "agg-0".to_owned(),
            seq: 43,
            at_unix_us: Some(1_700_000_123_456_789),
        }),
        encode(&MeshMsg::Exec {
            query_id: 7,
            from: "root".to_owned(),
            target: "agg-0".to_owned(),
            agg_index: 1,
            tree: small_tree(),
            deadline: 1600.0,
            seed: 99,
            fault_plan: None,
            trace: None,
        }),
        encode(&MeshMsg::Exec {
            query_id: 8,
            from: "root".to_owned(),
            target: "agg-1".to_owned(),
            agg_index: 0,
            tree: deep_tree(),
            deadline: 900.0,
            seed: 3,
            fault_plan: Some(FaultPlan::new(11, FaultSpec::crashes(0.5))),
            trace: Some(ExecTrace {
                trace_id: 0xfeed_f00d_dead_beef,
                explain: true,
                sent_unix_us: 1_700_000_123_000_000,
            }),
        }),
        encode(&MeshMsg::Retry {
            query_id: 7,
            from: "agg-0".to_owned(),
            origins: vec![3, 17, 200],
        }),
        encode(&MeshMsg::Partial {
            query_id: 7,
            from: "worker-3".to_owned(),
            origin: 3,
            payload: 1,
            value: 2.5,
            duration: 11.0,
            retry: false,
            timings: vec![StageTiming {
                level: 0,
                origin: 3,
                duration: 11.0,
            }],
            censored: vec![StageTiming {
                level: 0,
                origin: 4,
                duration: 30.0,
            }],
            failures: FailureReport::default(),
            segment: None,
        }),
        encode(&MeshMsg::Partial {
            query_id: 9,
            from: "agg-1".to_owned(),
            origin: 0,
            payload: 3,
            value: 9.75,
            duration: 42.0,
            retry: true,
            timings: Vec::new(),
            censored: Vec::new(),
            failures: FailureReport {
                crashed: 1,
                censored_observations: 1,
                ..FailureReport::default()
            },
            segment: Some(Box::new(small_segment())),
        }),
    ];
    Surface {
        name: "cedar-mesh::wire::MeshMsg",
        seeds: vec![
            vec![mesh_wire::KIND_HELLO],
            vec![mesh_wire::KIND_HELLO_ACK],
            vec![mesh_wire::KIND_HEARTBEAT],
            vec![mesh_wire::KIND_HEARTBEAT_ACK],
            vec![mesh_wire::KIND_EXEC],
            vec![mesh_wire::KIND_RETRY],
            vec![mesh_wire::KIND_PARTIAL],
        ],
        goldens,
        alloc_cap: 1 << 21,
        decode: Box::new(roundtrip_outcome::<MeshMsg>),
    }
}

fn checkpoint_surface() -> Surface<'static> {
    let golden = Checkpoint {
        epoch: 4,
        completed: 128,
        refits: 4,
        written_unix_ms: 1_700_000_000_000,
        stages: vec![
            StageCheckpoint {
                fanout: 50,
                fitted: Some((1.02, 0.58)),
                stats: EmpiricalStats {
                    count: 6400,
                    shift: 1.0,
                    sum: 12.5,
                    sum_comp: 1e-12,
                    sum_sq: 90.0,
                    sum_sq_comp: -2e-13,
                },
                censored: 17,
            },
            StageCheckpoint {
                fanout: 50,
                fitted: None,
                stats: EmpiricalStats::default(),
                censored: 0,
            },
        ],
    }
    .encode();
    // Magic + version is the prefix every real file starts with; the
    // seeded sweep appends boundary bytes straight after it.
    let mut header = cedar_runtime::checkpoint::MAGIC.to_vec();
    header.push(cedar_runtime::checkpoint::FORMAT_VERSION);
    Surface {
        name: "cedar-runtime::checkpoint::Checkpoint",
        seeds: vec![header],
        goldens: vec![golden],
        alloc_cap: 1 << 21,
        decode: Box::new(|input: &[u8]| match Checkpoint::decode(input) {
            Err(_) => Outcome::Reject,
            Ok(ckpt) => Outcome::Accept {
                // No capsules here: the encoding is fully canonical, so
                // the law is byte-exact identity.
                roundtrip_ok: ckpt.encode() == input,
            },
        }),
    }
}

fn flight_dump_surface() -> Surface<'static> {
    let golden = FlightDump {
        node: "agg-1".to_owned(),
        role: "agg".to_owned(),
        reason: "degraded".to_owned(),
        written_unix_us: 1_700_000_123_500_000,
        recorded_total: 300,
        entries: vec![
            FlightEntry {
                query_id: 41,
                started_unix_us: 1_700_000_122_000_000,
                latency_us: 160_123,
                deadline: 1600.0,
                quality: 0.96,
                included: 48,
                expected: 50,
                shed: false,
                summary: TraceSummary {
                    arrivals: 48,
                    failures: FailureReport {
                        crashed: 1,
                        censored_observations: 2,
                        ..FailureReport::default()
                    },
                    ..TraceSummary::default()
                },
            },
            FlightEntry {
                query_id: 42,
                shed: true,
                ..FlightEntry::default()
            },
        ],
    }
    .encode();
    // Magic + version is the prefix every dump starts with; the seeded
    // sweep mutates straight after it into the JSON body and CRC.
    let mut header = FLIGHT_MAGIC.to_vec();
    header.push(FLIGHT_FORMAT_VERSION);
    Surface {
        name: "cedar-telemetry::flight::FlightDump",
        seeds: vec![header],
        goldens: vec![golden],
        alloc_cap: 1 << 21,
        decode: Box::new(|input: &[u8]| match FlightDump::decode(input) {
            Err(_) => Outcome::Reject,
            Ok(dump) => {
                // The body is a JSON capsule: serde may normalize a
                // hand-built body, but re-encoding must be a fixpoint.
                let out = dump.encode();
                let ok = out == input
                    || FlightDump::decode(&out).is_ok_and(|again| again.encode() == out);
                Outcome::Accept { roundtrip_ok: ok }
            }
        }),
    }
}

fn spill_record_surface() -> Surface<'static> {
    let golden = |payload: &[u8]| {
        let mut buf = Vec::new();
        record::encode(payload, &mut buf).expect("goldens are under the cap");
        buf
    };
    Surface {
        name: "cedar-server::spill::record",
        seeds: vec![
            // Little-endian length headers for 0-, 1- and 5-byte payloads.
            vec![0x00, 0x00, 0x00, 0x00],
            vec![0x01, 0x00, 0x00, 0x00],
            vec![0x05, 0x00, 0x00, 0x00],
        ],
        goldens: vec![golden(b""), golden(b"q"), golden(b"cedar spill frame")],
        alloc_cap: 1 << 16,
        decode: Box::new(|input: &[u8]| match record::decode(input) {
            Err(_) => Outcome::Reject,
            Ok((payload, consumed)) => {
                // Records are stream-framed: trailing bytes belong to
                // the next record, so identity is over the consumed
                // prefix.
                let mut out = Vec::new();
                let ok = record::encode(payload, &mut out).is_ok() && out == input[..consumed];
                Outcome::Accept { roundtrip_ok: ok }
            }
        }),
    }
}

fn frame_surface() -> Surface<'static> {
    let frame = |req: &Request| {
        let mut buf = Vec::new();
        proto::write_frame_binary(&mut buf, req).expect("encoding a golden frame cannot fail");
        buf
    };
    Surface {
        name: "cedar-server::proto::frame",
        seeds: vec![
            // 4-byte big-endian length prefixes for tiny frames, with and
            // without the version byte the reader checks.
            vec![0x00, 0x00, 0x00, 0x01],
            vec![0x00, 0x00, 0x00, 0x02, proto::PROTO_VERSION_BINARY],
            vec![0x00, 0x00, 0x00, 0x02, b'{'],
            vec![0x00, 0x00, 0x00, 0x06, proto::PROTO_VERSION_BINARY],
        ],
        goldens: vec![
            frame(&Request::query(small_tree(), Some(1600.0), Some(7))),
            frame(&Request::ping()),
            frame(&Request::stats()),
        ],
        // The frame reader trusts declared lengths up to MAX_FRAME_BYTES
        // (16 MiB) before the body read fails, so a hostile 4-byte
        // prefix can cost one body-sized allocation. Cap = that bound
        // plus re-encode slack; anything past it is a real regression.
        alloc_cap: (proto::MAX_FRAME_BYTES as u64) + (1 << 22),
        // Only binary frames are served; every other version is refused
        // before its body is looked at. The length prefix and version
        // byte are fixed by the body, so a binary frame re-encodes
        // byte-exactly when its body does: the law is the Request
        // surface's.
        decode: Box::new(|input: &[u8]| {
            match proto::read_frame_raw(&mut std::io::Cursor::new(input)) {
                Ok(Some(raw)) if raw.is_supported() => roundtrip_outcome::<Request>(raw.body()),
                _ => Outcome::Reject,
            }
        }),
    }
}
