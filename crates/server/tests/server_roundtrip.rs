//! End-to-end tests over a real TCP socket: protocol round trips,
//! admission control under load, and graceful shutdown draining.

use cedar_core::{StageSpec, TreeSpec};
use cedar_distrib::spec::DistSpec;
use cedar_distrib::LogNormal;
use cedar_runtime::{FaultPlan, FaultSpec, ServiceConfig, TimeScale};
use cedar_server::proto::{self, Request, Response};
use cedar_server::{AdmissionConfig, Client, Server, ServerConfig};
use cedar_workloads::treedef::{StageDef, TreeDef};
use std::io::{Read, Write};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Service priors: fan-outs (4, 2), one model unit of wall time per
/// `unit`.
fn service(deadline: f64, unit: Duration) -> ServiceConfig {
    let tree = TreeSpec::two_level(
        StageSpec::new(LogNormal::new(1.0, 0.6).unwrap(), 4),
        StageSpec::new(LogNormal::new(1.0, 0.4).unwrap(), 2),
    );
    let mut cfg = ServiceConfig::new(tree, deadline);
    cfg.scale = TimeScale::new(unit);
    cfg.refit_interval = 0;
    cfg
}

/// A query tree matching the service priors' (4, 2) shape.
fn matching_tree(mu: f64) -> TreeDef {
    TreeDef {
        stages: vec![
            StageDef {
                dist: DistSpec::LogNormal { mu, sigma: 0.6 },
                fanout: 4,
            },
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 1.0,
                    sigma: 0.4,
                },
                fanout: 2,
            },
        ],
    }
}

/// A fast server: queries finish in ~5 ms of wall clock.
fn fast_server() -> ServerConfig {
    ServerConfig::new("127.0.0.1:0", service(50.0, Duration::from_micros(100)))
}

/// A slow server: huge stage durations against the deadline, so every
/// query occupies its slot for the full scaled deadline (~300 ms).
fn slow_server(admission: AdmissionConfig) -> ServerConfig {
    let mut cfg = ServerConfig::new("127.0.0.1:0", service(300.0, Duration::from_millis(1)));
    cfg.admission = admission;
    cfg
}

#[test]
fn ping_query_stats_round_trip() {
    let handle = Server::start(fast_server()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    assert!(client.ping().unwrap().ok);

    let resp = client.query(&matching_tree(1.0), None, Some(42)).unwrap();
    assert!(resp.ok, "query failed: {:?}", resp.error);
    let result = resp.result.expect("query response carries a result");
    assert!((0.0..=1.0).contains(&result.quality));
    assert_eq!(result.total_processes, 8);
    assert!(result.latency_ms >= 0.0);

    let stats = client.stats().unwrap().stats.expect("stats payload");
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.served_total, 1);
    assert_eq!(stats.shed_total, 0);
    assert_eq!(stats.in_flight, 0);

    handle.shutdown().unwrap();
}

#[test]
fn identical_seeds_get_identical_answers() {
    // Exact per-seed replay needs the paused clock (covered by the
    // cedar-runtime concurrency tests); over a real clock, assert on a
    // deadline generous enough that boundary jitter cannot matter.
    let handle = Server::start(fast_server()).unwrap();
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    let ra = a.query(&matching_tree(1.0), Some(5000.0), Some(7)).unwrap();
    let rb = b.query(&matching_tree(1.0), Some(5000.0), Some(7)).unwrap();
    let (ra, rb) = (ra.result.unwrap(), rb.result.unwrap());
    assert_eq!(ra.quality, 1.0);
    assert_eq!(ra.included_outputs, rb.included_outputs);
    assert_eq!(ra.value_sum, rb.value_sum);
    handle.shutdown().unwrap();
}

#[test]
fn mismatched_tree_shape_is_rejected() {
    let handle = Server::start(fast_server()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Wrong fan-outs (the example's 50x50) against the (4, 2) priors.
    let resp = client.query(&TreeDef::example(), None, None).unwrap();
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("fan-out"));

    // A query with no tree at all.
    let resp = client
        .request(&Request {
            op: "query".into(),
            tree: None,
            deadline: None,
            seed: None,
            explain: None,
        })
        .unwrap();
    assert!(!resp.ok);

    // An unknown op.
    let resp = client
        .request(&Request {
            op: "frobnicate".into(),
            tree: None,
            deadline: None,
            seed: None,
            explain: None,
        })
        .unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.code.as_deref(), Some(proto::ERR_UNKNOWN_OP));
    assert!(resp.error.unwrap().contains("unknown op"));

    // The connection still serves valid requests afterwards.
    assert!(client.ping().unwrap().ok);
    handle.shutdown().unwrap();
}

#[test]
fn future_versions_are_refused_over_a_live_connection() {
    let handle = Server::start(fast_server()).unwrap();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();

    // A frame from the future gets a typed error in the legacy framing
    // (readable by any client), and the connection keeps serving.
    let payload = b"\x07not-json";
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32 + 1).to_be_bytes());
    frame.push(250);
    frame.extend_from_slice(payload);
    stream.write_all(&frame).unwrap();
    let resp: Response = proto::read_frame(&mut stream).unwrap().unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.code.as_deref(), Some(proto::ERR_UNSUPPORTED_VERSION));

    // Binary frames still work on the same connection afterwards.
    proto::write_frame_binary(&mut stream, &Request::ping()).unwrap();
    let raw = proto::read_frame_raw(&mut stream).unwrap().unwrap();
    assert!(raw.decode_auto::<Response>().unwrap().ok);

    drop(stream);
    handle.shutdown().unwrap();
}

#[test]
fn admission_sheds_beyond_the_cap() {
    let handle = Server::start(slow_server(AdmissionConfig {
        max_inflight: 1,
        max_queued: 0,
        queue_timeout: Duration::from_millis(50),
    }))
    .unwrap();
    let addr = handle.addr();

    // Saturate the single slot with a slow query...
    let occupant = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query(&matching_tree(9.0), None, Some(1)).unwrap()
    });
    // ...wait until it is actually in flight...
    for _ in 0..100 {
        if handle.in_flight() > 0 {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.in_flight(), 1, "occupant query never started");

    // ...then a second query must be shed, and quickly.
    let mut client = Client::connect(addr).unwrap();
    let resp = client.query(&matching_tree(9.0), None, Some(2)).unwrap();
    assert!(!resp.ok);
    assert!(resp.is_shed(), "expected a shed, got {:?}", resp.error);

    let stats = client.stats().unwrap().stats.unwrap();
    assert_eq!(stats.shed_total, 1);
    assert_eq!(stats.served_total, 1);

    let occupied = occupant.join().unwrap();
    assert!(occupied.ok);
    handle.shutdown().unwrap();
}

#[test]
fn admission_queues_within_the_cap() {
    let handle = Server::start(slow_server(AdmissionConfig {
        max_inflight: 1,
        max_queued: 1,
        queue_timeout: Duration::from_secs(10),
    }))
    .unwrap();
    let addr = handle.addr();

    // Two slow queries against one slot: the second queues, then runs.
    let mut workers = Vec::new();
    for seed in [1u64, 2] {
        workers.push(thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.query(&matching_tree(9.0), None, Some(seed)).unwrap()
        }));
    }
    for w in workers {
        let resp = w.join().unwrap();
        assert!(resp.ok, "queued query failed: {:?}", resp.error);
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap().stats.unwrap();
    assert_eq!(stats.served_total, 2);
    assert_eq!(stats.shed_total, 0);
    handle.shutdown().unwrap();
}

#[test]
fn shutdown_drains_in_flight_queries() {
    let handle = Server::start(slow_server(AdmissionConfig::default())).unwrap();
    let addr = handle.addr();

    let inflight = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query(&matching_tree(9.0), None, Some(5)).unwrap()
    });
    for _ in 0..100 {
        if handle.in_flight() > 0 {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.in_flight(), 1);

    // Shutdown must block until the slow query has been answered.
    handle.shutdown().unwrap();
    let resp = inflight.join().unwrap();
    assert!(resp.ok, "in-flight query was dropped: {:?}", resp.error);
    assert!(resp.result.is_some());

    // And the listener is really gone.
    assert!(Client::connect(addr).is_err());
}

#[test]
fn slowloris_connection_is_reaped() {
    let mut cfg = fast_server();
    cfg.idle_timeout = Duration::from_millis(300);
    let handle = Server::start(cfg).unwrap();

    // A client that opens a frame and then drips nothing must be closed
    // by the idle timeout, not hold its thread forever.
    let mut sock = std::net::TcpStream::connect(handle.addr()).unwrap();
    sock.write_all(&[0, 0]).unwrap(); // half a length prefix, then silence
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let started = Instant::now();
    let mut buf = [0u8; 16];
    // EOF (0 bytes) or a reset error both mean the server hung up.
    let hung_up = matches!(sock.read(&mut buf), Ok(0) | Err(_));
    assert!(hung_up, "server kept the slowloris connection open");
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "connection outlived the idle timeout by too much: {:?}",
        started.elapsed()
    );

    // The server is still healthy for well-behaved clients.
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.ping().unwrap().ok);
    handle.shutdown().unwrap();
}

#[test]
fn errors_carry_typed_codes() {
    let handle = Server::start(fast_server()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let resp = client
        .request(&Request {
            op: "frobnicate".into(),
            tree: None,
            deadline: None,
            seed: None,
            explain: None,
        })
        .unwrap();
    assert_eq!(resp.code.as_deref(), Some(proto::ERR_UNKNOWN_OP));

    let resp = client.query(&TreeDef::example(), None, None).unwrap();
    assert_eq!(resp.code.as_deref(), Some(proto::ERR_BAD_REQUEST));
    handle.shutdown().unwrap();
}

#[test]
fn chaos_plan_surfaces_failure_report() {
    let mut cfg = fast_server();
    // Crash every worker: the watchdog must retry all of them, and the
    // response must carry the failure accounting.
    cfg.service.faults = Some(Arc::new(FaultPlan::new(7, FaultSpec::crashes(1.0))));
    let handle = Server::start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let resp = client
        .query(&matching_tree(1.0), Some(5000.0), Some(11))
        .unwrap();
    assert!(resp.ok, "chaos query failed: {:?}", resp.error);
    let result = resp.result.unwrap();
    let failures = result.failures.expect("fault plan must report failures");
    assert_eq!(failures.crashed, 8, "all 8 workers crash at p=1.0");
    assert_eq!(failures.retries_launched, 8);
    assert!((0.0..=1.0).contains(&result.quality));
    handle.shutdown().unwrap();
}

#[test]
fn client_initiated_shutdown_stops_the_server() {
    let handle = Server::start(fast_server()).unwrap();
    let addr = handle.addr();
    let stopper = thread::spawn(move || {
        // Give `wait` a moment to park first.
        thread::sleep(Duration::from_millis(50));
        let mut client = Client::connect(addr).unwrap();
        client.shutdown_server().unwrap()
    });
    handle.wait().unwrap();
    assert!(stopper.join().unwrap().ok);
    assert!(Client::connect(addr).is_err());
}

#[test]
fn connection_cap_sheds_excess_connections() {
    let mut cfg = fast_server();
    cfg.max_connections = 1;
    let handle = Server::start(cfg).unwrap();
    let mut first = Client::connect(handle.addr()).unwrap();
    assert!(first.ping().unwrap().ok);

    // The ping round trip proves the first handler thread is live and
    // registered, so this second socket arrives at the cap: the accept
    // loop drops it without ever spawning a handler.
    let mut second = std::net::TcpStream::connect(handle.addr()).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 1];
    match second.read(&mut buf) {
        Ok(0) => {}  // clean EOF: the server dropped the socket
        Err(_) => {} // a reset proves the same drop
        Ok(_) => panic!("a shed connection must never receive bytes"),
    }

    // The survivor still serves, and the shed shows up in stats.
    let stats = first.stats().unwrap().stats.expect("stats payload");
    assert!(stats.shed_total >= 1, "cap shed must be counted");
    handle.shutdown().unwrap();
}

#[test]
fn oversized_frame_gets_one_refusal_then_close() {
    let handle = Server::start(fast_server()).unwrap();
    let mut sock = std::net::TcpStream::connect(handle.addr()).unwrap();
    // A length prefix past MAX_FRAME_BYTES and the start of its body:
    // the body is never read, so the stream cannot be realigned.
    sock.write_all(&(17u32 << 20).to_be_bytes()).unwrap();
    sock.write_all(&[b'A'; 64]).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let resp: Response = proto::read_frame(&mut sock).unwrap().unwrap();
    assert_eq!(resp.code.as_deref(), Some(proto::ERR_BAD_REQUEST));
    // Then the server hangs up: EOF (or a reset), never a second reply.
    match proto::read_frame::<_, Response>(&mut sock) {
        Ok(None) | Err(_) => {}
        Ok(Some(extra)) => panic!("a second response to one frame: {extra:?}"),
    }
    handle.shutdown().unwrap();
}

#[test]
fn shutdown_with_an_idle_keep_alive_client_is_prompt() {
    let handle = Server::start(fast_server()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    // The round trip proves the connection's thread is up and idle in
    // its next read.
    assert!(client.ping().unwrap().ok);
    let started = Instant::now();
    handle.shutdown().unwrap();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    drop(client);
}

#[test]
fn json_frames_get_one_refusal_then_binary_is_served() {
    let handle = Server::start(fast_server()).unwrap();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // A legacy bare-JSON (v0) query, then a versioned-JSON (v1) ping.
    let query = Request::query(matching_tree(1.0), None, Some(1));
    proto::write_frame(&mut stream, &query).unwrap();
    let ping = br#"{"op":"ping","tree":null,"deadline":null,"seed":null,"explain":null}"#;
    let mut v1 = (ping.len() as u32 + 1).to_be_bytes().to_vec();
    v1.push(1);
    v1.extend_from_slice(ping);
    stream.write_all(&v1).unwrap();

    // Each gets one refusal in the legacy framing a JSON client reads.
    for _ in 0..2 {
        let resp: Response = proto::read_frame(&mut stream).unwrap().unwrap();
        assert!(!resp.ok, "a JSON frame was served: {resp:?}");
        assert_eq!(resp.code.as_deref(), Some(proto::ERR_UNSUPPORTED_VERSION));
    }
    // Then the same connection answers a binary ping, and that answer
    // is the next frame: nothing more was sent for the JSON frames.
    proto::write_frame_binary(&mut stream, &Request::ping()).unwrap();
    let raw = proto::read_frame_raw(&mut stream).unwrap().unwrap();
    assert!(raw.is_supported(), "a binary request gets a binary reply");
    assert!(raw.decode_auto::<Response>().unwrap().ok);

    let stats = Client::connect(handle.addr())
        .unwrap()
        .stats()
        .unwrap()
        .stats
        .unwrap();
    assert_eq!(stats.served_total, 0, "the JSON query never ran");
    drop(stream);
    handle.shutdown().unwrap();
}
