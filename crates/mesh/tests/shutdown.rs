//! Shutdown with work in flight. An aggregation pass holds its node, so
//! it can outlive the `NodeHandle` and every connection thread — and
//! whatever it is the last owner of is dropped on a runtime worker. The
//! async runtime must not be among those things: a runtime dropped on
//! its own worker joins itself and panics the thread (`failed to join
//! thread: Resource deadlock avoided`).
//!
//! Alone in its binary: the panic hook is process-wide.

use cedar_distrib::spec::DistSpec;
use cedar_mesh::topology::{NodeDef, Role, Topology};
use cedar_mesh::wire::{self, MeshMsg};
use cedar_server::Client;
use cedar_workloads::treedef::{StageDef, TreeDef};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static PANICS: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
    format!("127.0.0.1:{}", l.local_addr().expect("local addr").port())
}

#[test]
fn a_pass_outliving_its_node_does_not_panic_a_runtime_worker() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.lock().unwrap().push(info.to_string());
        prev(info);
    }));

    let node = |name: &str, role, children: Option<&str>, processes| NodeDef {
        name: name.into(),
        role,
        addr: free_addr(),
        children: children.map(|c| vec![c.into()]),
        processes,
        wire: None,
    };
    let topo = Topology {
        // 1 ms per model unit: the pass below lasts up to 200 ms.
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
    };
    // Only the aggregator runs: its worker is unreachable, so the pass
    // waits on its timer with nothing to collect.
    let agg = cedar_mesh::start(topo, "agg0", None).expect("start agg0");
    let addr = agg.local_addr();

    let stage = |mu, fanout| StageDef {
        dist: DistSpec::LogNormal { mu, sigma: 0.3 },
        fanout,
    };
    let exec = MeshMsg::Exec {
        query_id: 1,
        from: "root".into(),
        target: "agg0".into(),
        agg_index: 0,
        tree: TreeDef {
            stages: vec![stage(2.0, 4), stage(1.0, 1)],
        },
        deadline: 200.0,
        seed: 1,
        fault_plan: None,
        trace: None,
    };
    let conn = TcpStream::connect(addr).expect("connect to agg0");
    wire::send(&mut &conn, &exec).expect("send exec");
    // The pass is in flight once the exec has been counted.
    let mut client = Client::connect(addr).expect("connect client");
    let counted_by = Instant::now() + Duration::from_secs(10);
    loop {
        let page = client.metrics().expect("metrics").metrics.expect("text");
        if page.contains("cedar_mesh_execs_total 1") {
            break;
        }
        assert!(Instant::now() < counted_by, "exec never handled:\n{page}");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(client);
    drop(conn);

    agg.shutdown().expect("the node stops cleanly");
    // Long enough for the pass to have run out its deadline, had the
    // node's shutdown left it running.
    std::thread::sleep(Duration::from_millis(600));
    // Copied out: a failing assert runs the hook, which takes the lock.
    let panics = PANICS.lock().unwrap().clone();
    assert!(panics.is_empty(), "threads panicked: {panics:#?}");
}
