//! The server's flight recorder over a real TCP socket: every query —
//! served or shed — leaves one ring entry, the `flight_dump` op ships
//! the ring to operators mid-flight, and graceful shutdown writes the
//! CRC-guarded dump file `cedar-cli flightrec` reads.

use cedar_core::{StageSpec, TreeSpec};
use cedar_distrib::spec::DistSpec;
use cedar_distrib::LogNormal;
use cedar_runtime::{ServiceConfig, TimeScale};
use cedar_server::proto::{Request, OP_FLIGHT_DUMP};
use cedar_server::{AdmissionConfig, Client, Server, ServerConfig};
use cedar_telemetry::FlightDump;
use cedar_workloads::treedef::{StageDef, TreeDef};
use std::path::PathBuf;
use std::time::Duration;

const K1: usize = 4;
const K2: usize = 2;

fn service(deadline: f64) -> ServiceConfig {
    let tree = TreeSpec::two_level(
        StageSpec::new(LogNormal::new(1.0, 0.6).unwrap(), K1),
        StageSpec::new(LogNormal::new(1.0, 0.4).unwrap(), K2),
    );
    let mut cfg = ServiceConfig::new(tree, deadline);
    cfg.scale = TimeScale::new(Duration::from_micros(100));
    cfg.refit_interval = 0;
    cfg
}

fn matching_tree() -> TreeDef {
    TreeDef {
        stages: vec![
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 1.0,
                    sigma: 0.6,
                },
                fanout: K1,
            },
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 1.0,
                    sigma: 0.4,
                },
                fanout: K2,
            },
        ],
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cedar-flight-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn dump_op(client: &mut Client) -> FlightDump {
    let resp = client
        .request(&Request {
            op: OP_FLIGHT_DUMP.to_owned(),
            tree: None,
            deadline: None,
            seed: None,
            explain: None,
        })
        .expect("flight_dump op");
    assert!(resp.ok, "flight_dump refused: {:?}", resp.error);
    serde_json::from_str(&resp.metrics.expect("dump body")).expect("dump json")
}

#[test]
fn every_query_leaves_a_ring_entry_and_shutdown_writes_the_dump_file() {
    let dir = scratch("ring");
    let flight_path = dir.join("flight.bin");
    let mut cfg = ServerConfig::new("127.0.0.1:0", service(60.0));
    cfg.flight_file = Some(flight_path.clone());
    let handle = Server::start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let queries = 3usize;
    let mut qualities = Vec::new();
    for seed in 0..queries as u64 {
        let resp = client
            .query(&matching_tree(), Some(60.0), Some(seed))
            .expect("query");
        assert!(resp.ok, "query failed: {:?}", resp.error);
        qualities.push(resp.result.expect("result").quality);
    }

    // The operator op ships the live ring: newest-last, one entry per
    // query, each carrying the outcome the client saw.
    let dump = dump_op(&mut client);
    assert_eq!(dump.reason, "operator");
    assert_eq!(dump.recorded_total, queries as u64);
    assert_eq!(dump.entries.len(), queries);
    for (entry, quality) in dump.entries.iter().zip(&qualities) {
        assert_eq!(entry.expected, K1 * K2);
        assert!(!entry.shed);
        assert!((entry.quality - quality).abs() < f64::EPSILON);
        assert!(entry.latency_us > 0);
        assert!(entry.started_unix_us > 0);
    }
    // Query ids are the serving sequence, so entries sort the story.
    for pair in dump.entries.windows(2) {
        assert!(pair[0].query_id < pair[1].query_id);
    }
    assert!(!dump.render().is_empty());

    // Graceful shutdown writes the same ring to the CRC-guarded file.
    handle.shutdown().unwrap();
    let bytes = std::fs::read(&flight_path).expect("dump file written on shutdown");
    let on_disk = FlightDump::decode(&bytes).expect("dump file decodes");
    assert_eq!(on_disk.reason, "shutdown");
    assert_eq!(on_disk.recorded_total, queries as u64);

    // ... and a flipped byte fails the CRC loudly instead of parsing.
    let mut corrupt = bytes;
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x40;
    assert!(FlightDump::decode(&corrupt).is_err());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shed_queries_are_recorded_as_shed_not_dropped() {
    // No admission slots and no queue: every query sheds immediately,
    // and each shed must still leave a flight entry — the recorder is
    // the operator's only record of load the server refused.
    let mut cfg = ServerConfig::new("127.0.0.1:0", service(60.0));
    cfg.admission = AdmissionConfig {
        max_inflight: 1,
        max_queued: 0,
        queue_timeout: Duration::from_millis(1),
    };
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr();

    // Saturate the single slot with a genuinely long query: a high-mu
    // tree whose work runs out past the probe window, with a deadline
    // generous enough that the root keeps waiting on it.
    let slow_tree = TreeDef {
        stages: vec![
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 8.0,
                    sigma: 0.1,
                },
                fanout: K1,
            },
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 1.0,
                    sigma: 0.1,
                },
                fanout: K2,
            },
        ],
    };
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.query(&slow_tree, Some(4_000.0), Some(0))
    });
    std::thread::sleep(Duration::from_millis(10));
    let mut client = Client::connect(addr).unwrap();
    let mut shed = 0usize;
    for seed in 1..6u64 {
        let resp = client
            .query(&matching_tree(), Some(400.0), Some(seed))
            .expect("query");
        if resp.is_shed() {
            shed += 1;
        }
    }
    slow.join().unwrap().expect("saturating query");

    let dump = dump_op(&mut client);
    let shed_entries = dump.entries.iter().filter(|e| e.shed).count();
    assert!(shed > 0, "admission never shed under a full slot");
    assert_eq!(shed_entries, shed, "every shed leaves a shed-marked entry");
    for entry in dump.entries.iter().filter(|e| e.shed) {
        assert_eq!(entry.included, 0, "a shed query produced outputs?");
    }
    handle.shutdown().unwrap();
}

#[test]
fn a_query_without_a_deadline_records_the_service_default() {
    let handle = Server::start(ServerConfig::new("127.0.0.1:0", service(60.0))).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client
        .query(&matching_tree(), None, Some(3))
        .expect("query");
    assert!(resp.ok, "query failed: {:?}", resp.error);

    let dump = dump_op(&mut client);
    assert_eq!(dump.entries.len(), 1);
    assert_eq!(dump.entries[0].deadline, 60.0, "the deadline it ran under");
    handle.shutdown().unwrap();
}
