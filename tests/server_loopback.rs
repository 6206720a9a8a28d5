//! Server smoke test: a `cedar_server::Server` on loopback answers one
//! query in full, answers a ping, and shuts down cleanly.

use cedar_core::{StageSpec, TreeSpec};
use cedar_distrib::spec::DistSpec;
use cedar_distrib::LogNormal;
use cedar_runtime::{ServiceConfig, TimeScale};
use cedar_server::{Client, Server, ServerConfig};
use cedar_workloads::treedef::{StageDef, TreeDef};
use std::time::Duration;

#[test]
fn server_answers_a_query_and_a_ping_then_shuts_down() {
    // A (4, 2) tree whose leaves take a few model units, against a
    // deadline of 10^7 units: the wait scan's first step is past every
    // output, so each aggregator leaves when its last child arrives.
    let priors = TreeSpec::two_level(
        StageSpec::new(LogNormal::new(1.0, 0.6).unwrap(), 4),
        StageSpec::new(LogNormal::new(1.0, 0.4).unwrap(), 2),
    );
    let mut service = ServiceConfig::new(priors, 1e7);
    service.scale = TimeScale::new(Duration::from_micros(100));
    let handle = Server::start(ServerConfig::new("127.0.0.1:0", service)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let tree = TreeDef {
        stages: vec![
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 1.0,
                    sigma: 0.6,
                },
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
    };
    let resp = client.query(&tree, None, Some(7)).unwrap();
    assert!(resp.ok, "query failed: {:?}", resp.error);
    let result = resp.result.expect("a query response carries a result");
    assert_eq!(result.quality, 1.0);
    assert_eq!(result.included_outputs, 8);
    assert_eq!(result.total_processes, 8);
    // A clean run's report is empty, and the server sends it as absent.
    assert!(
        result.failures.unwrap_or_default().is_clean(),
        "a fault-free query reported failures"
    );

    assert!(client.ping().unwrap().ok);

    drop(client);
    handle
        .shutdown()
        .expect("the server drains and joins every thread");
}
