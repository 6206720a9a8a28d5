//! A mesh node's connection lifecycle, now served by the server's front
//! end: stop wakes and joins every connection thread, nothing is
//! answered after it, and connections dropped at the cap are counted.
//!
//! The thread counts are process-wide, so the tests in this binary run
//! one at a time and nothing else lives here.

use cedar_mesh::node::MAX_NODE_CONNECTIONS;
use cedar_mesh::topology::{NodeDef, Role, Topology};
use cedar_server::proto::{self, Request, Response};
use cedar_server::Client;
use std::io::{ErrorKind, Read};
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
/// links and no runtime, so its threads are its front end's.
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
    proto::write_frame(&mut pinged, &Request::ping()).expect("ping");
    let pong: Response = proto::read_frame(&mut pinged)
        .expect("pong")
        .expect("a response, not EOF");
    assert!(pong.ok);

    node.shutdown();
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
    if proto::write_frame(&mut pinged, &Request::ping()).is_ok() {
        match proto::read_frame::<_, Response>(&mut pinged) {
            Ok(None) | Err(_) => {}
            Ok(Some(resp)) => assert_eq!(
                resp.code.as_deref(),
                Some(proto::ERR_UNAVAILABLE),
                "a stopped node answered {resp:?}"
            ),
        }
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
    node.shutdown();
}
