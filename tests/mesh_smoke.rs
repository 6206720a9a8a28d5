//! Mesh smoke test: a root, one aggregator and one worker on loopback
//! answer one query in full and shut down cleanly. The aggregator runs
//! the engine's aggregation pass over frames from its worker, so this
//! is the one tier-1 check of that pass across a socket.

use cedar_distrib::spec::DistSpec;
use cedar_mesh::topology::{NodeDef, Role, Topology};
use cedar_server::Client;
use cedar_workloads::treedef::{StageDef, TreeDef};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// A loopback address with a port that was free a moment ago.
fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
    format!("127.0.0.1:{}", l.local_addr().expect("local addr").port())
}

#[test]
fn a_three_node_mesh_answers_a_query_in_full_then_shuts_down() {
    let node = |name: &str, role, child: Option<&str>, processes| NodeDef {
        name: name.into(),
        role,
        addr: free_addr(),
        children: child.map(|c| vec![c.into()]),
        processes,
        wire: None,
    };
    let topo = Topology {
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
    // Children first, so each parent finds its link's peer listening.
    let handles: Vec<_> = ["w0", "agg0", "root"]
        .into_iter()
        .map(|name| cedar_mesh::start(topo.clone(), name, None).expect("the node starts"))
        .collect();
    let ready_by = Instant::now() + Duration::from_secs(10);
    while handles.iter().any(|h| h.peers_up() < h.peers_total()) {
        assert!(Instant::now() < ready_by, "the mesh never became ready");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Leaves of a few model units against a deadline of 10^4: the
    // aggregator leaves when its fourth leaf arrives.
    let stage = |mu, fanout| StageDef {
        dist: DistSpec::LogNormal { mu, sigma: 0.3 },
        fanout,
    };
    let tree = TreeDef {
        stages: vec![stage(1.0, 4), stage(1.0, 1)],
    };
    let mut client = Client::connect(&topo.root().addr).expect("connect to the root");
    let resp = client.query(&tree, Some(1e4), Some(7)).expect("query");
    assert!(resp.ok, "query failed: {:?}", resp.error);
    let result = resp.result.expect("a query response carries a result");
    assert_eq!(result.quality, 1.0);
    assert_eq!((result.included_outputs, result.total_processes), (4, 4));
    let report = result.failures.unwrap_or_default();
    assert!(report.is_clean(), "a fault-free query reported {report:?}");

    drop(client);
    for h in handles.into_iter().rev() {
        let name = h.name().to_owned();
        h.shutdown()
            .unwrap_or_else(|e| panic!("{name} did not stop cleanly: {e}"));
    }
}
