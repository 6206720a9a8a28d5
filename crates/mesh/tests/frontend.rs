//! A mesh node's connection lifecycle, now served by the server's front
//! end: stop wakes and joins every connection thread, nothing is
//! answered after it, connections dropped at the cap are counted, and a
//! frame in any framing but binary gets one typed refusal.
//!
//! The thread counts are process-wide, so the tests in this binary run
//! one at a time and nothing else lives here.

use cedar_distrib::spec::DistSpec;
use cedar_mesh::node::MAX_NODE_CONNECTIONS;
use cedar_mesh::topology::{NodeDef, Role, Topology};
use cedar_mesh::wire::{self, MeshMsg};
use cedar_server::proto::{self, Request, Response};
use cedar_server::Client;
use cedar_workloads::treedef::{StageDef, TreeDef};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
    format!("127.0.0.1:{}", l.local_addr().expect("local addr").port())
}

/// root → agg0 → w0; the tests start only the worker, which holds no
/// links, so its threads are its front end's and its runtime's.
fn topology() -> Topology {
    let node = |name: &str, role, children: Option<&str>, processes| NodeDef {
        name: name.into(),
        role,
        addr: free_addr(),
        children: children.map(|c| vec![c.into()]),
        processes,
        wire: None,
    };
    Topology {
        unit_us: Some(1_000),
        heartbeat_ms: Some(100),
        miss_limit: Some(3),
        wire: None,
        replicas: None,
        nodes: vec![
            node("root", Role::Root, Some("agg0"), None),
            node("agg0", Role::Agg, Some("w0"), None),
            node("w0", Role::Worker, None, Some(4)),
        ],
    }
}

/// One binary ping on `conn`: its reply, or `None` at end-of-stream.
fn ping(conn: &mut TcpStream) -> io::Result<Option<Response>> {
    proto::write_frame_binary(conn, &Request::ping())?;
    proto::read_frame_raw(conn)?
        .map(|raw| raw.decode_auto())
        .transpose()
}

/// This process's live thread count.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn shutdown_joins_every_connection_and_answers_nothing_after() {
    let _serial = serial();
    let node = cedar_mesh::start(topology(), "w0", None).expect("start w0");
    let addr = node.local_addr();
    let before = threads();

    let silent: Vec<TcpStream> = (0..20)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let mut pinged = TcpStream::connect(addr).expect("connect");
    let pong = ping(&mut pinged)
        .expect("pong")
        .expect("a response, not EOF");
    assert!(pong.ok);

    node.shutdown().expect("the node stops cleanly");
    let settle_by = Instant::now() + Duration::from_secs(1);
    while threads() > before {
        assert!(
            Instant::now() < settle_by,
            "{} thread(s) outlived shutdown by 1 s",
            threads() - before
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // A request sent after the stop, on a connection opened before it,
    // is never served.
    pinged
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    match ping(&mut pinged) {
        Ok(None) | Err(_) => {}
        Ok(Some(resp)) => assert_eq!(
            resp.code.as_deref(),
            Some(proto::ERR_UNAVAILABLE),
            "a stopped node answered {resp:?}"
        ),
    }
    drop(silent);
}

#[test]
fn connections_dropped_at_the_cap_are_counted_as_sheds() {
    let _serial = serial();
    let node = cedar_mesh::start(topology(), "w0", None).expect("start w0");
    let addr = node.local_addr();

    let mut silent: Vec<TcpStream> = (0..MAX_NODE_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // Every slot is held by a silent socket, so this one is dropped at
    // accept without an answer.
    let mut over = TcpStream::connect(addr).expect("connect");
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    match over.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("an over-cap connection was not dropped: {other:?}"),
    }

    // Closing a few silent sockets frees their slots once their threads
    // see EOF; a client retries until it gets one.
    silent.truncate(MAX_NODE_CONNECTIONS - 4);
    let give_up = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        if let Ok(resp) = Client::connect(addr).and_then(|mut c| c.stats()) {
            break resp.stats.expect("stats payload");
        }
        assert!(Instant::now() < give_up, "no connection slot freed");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        stats.shed_total >= 1,
        "cap sheds must be counted: {stats:?}"
    );

    drop((silent, over));
    node.shutdown().expect("the node stops cleanly");
}

#[test]
fn json_frames_get_one_refusal_then_binary_is_served() {
    let _serial = serial();
    let node = cedar_mesh::start(topology(), "w0", None).expect("start w0");
    let mut conn = TcpStream::connect(node.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    // A legacy bare-JSON (v0) query, then a versioned-JSON (v1) ping.
    let query = Request::query(TreeDef::example(), None, Some(1));
    proto::write_frame(&mut conn, &query).expect("write v0 query");
    let json = br#"{"op":"ping","tree":null,"deadline":null,"seed":null,"explain":null}"#;
    let mut v1 = u32::try_from(json.len() + 1)
        .expect("small frame")
        .to_be_bytes()
        .to_vec();
    v1.push(1);
    v1.extend_from_slice(json);
    conn.write_all(&v1).expect("write v1 ping");

    // Each gets one refusal in the legacy framing a JSON client reads.
    for _ in 0..2 {
        let resp: Response = proto::read_frame(&mut conn)
            .expect("refusal")
            .expect("a response, not EOF");
        assert!(!resp.ok, "a JSON frame was served: {resp:?}");
        assert_eq!(resp.code.as_deref(), Some(proto::ERR_UNSUPPORTED_VERSION));
    }
    // The binary ping's answer is the next frame: nothing more was sent
    // for the JSON frames, and the connection still serves.
    let pong = ping(&mut conn).expect("pong").expect("a response, not EOF");
    assert!(pong.ok, "{pong:?}");
    node.shutdown().expect("the node stops cleanly");
}

/// Live threads a node started: its front end's (`cedar-*`) and its
/// runtime's (`tokio-*`). A thread spawned without a name inherits its
/// creator's, so one started from a connection thread counts too. The
/// test harness's own threads, which come and go with other tests, do
/// not.
fn node_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("cedar-") || comm.starts_with("tokio-"))
        .count()
}

#[test]
fn shutdown_drops_a_workers_unshipped_leaves() {
    let _serial = serial();
    let idle = node_threads();
    let node = cedar_mesh::start(topology(), "w0", None).expect("start w0");

    // At 1 ms per model unit each of the worker's four leaves completes
    // 2-3 s after the exec: all of them are still pending at shutdown.
    let stage = |a, b, fanout| StageDef {
        dist: DistSpec::Uniform { a, b },
        fanout,
    };
    let exec = MeshMsg::Exec {
        query_id: 1,
        from: "agg0".into(),
        target: "w0".into(),
        agg_index: 0,
        tree: TreeDef {
            stages: vec![stage(2_000.0, 3_000.0, 4), stage(1.0, 2.0, 1)],
        },
        deadline: 10_000.0,
        seed: 1,
        fault_plan: None,
        trace: None,
    };
    let mut conn = TcpStream::connect(node.local_addr()).expect("connect");
    wire::send(&mut &conn, &exec).expect("send exec");
    // One connection's frames are served in order: the pong means the
    // exec has been handled.
    let pong = ping(&mut conn).expect("pong").expect("a response, not EOF");
    assert!(pong.ok);

    node.shutdown().expect("the node stops cleanly");
    let settle_by = Instant::now() + Duration::from_secs(1);
    while node_threads() > idle {
        assert!(
            Instant::now() < settle_by,
            "{} node thread(s) outlived shutdown by 1 s",
            node_threads() - idle
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
