//! The durability-era serving surface over a real TCP socket: the
//! disk-backed spill queue absorbing a burst the in-memory admission
//! queue cannot, the `health` elasticity probe in both framings, and
//! the durability fields of the `stats` op.

use cedar_core::{StageSpec, TreeSpec};
use cedar_distrib::spec::DistSpec;
use cedar_distrib::LogNormal;
use cedar_runtime::{CheckpointConfig, ServiceConfig, TimeScale};
use cedar_server::proto::HealthState;
use cedar_server::{AdmissionConfig, Client, Server, ServerConfig, SpillConfig};
use cedar_workloads::treedef::{StageDef, TreeDef};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

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

fn matching_tree() -> TreeDef {
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
                dist: DistSpec::LogNormal {
                    mu: 1.0,
                    sigma: 0.4,
                },
                fanout: 2,
            },
        ],
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cedar-spill-health-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Pulls one metric's value out of rendered Prometheus text.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} not found in:\n{text}"))
}

#[test]
fn burst_beyond_the_admission_queue_spills_and_replays_instead_of_shedding() {
    let dir = scratch("burst");
    let mut cfg = ServerConfig::new("127.0.0.1:0", service(60.0, Duration::from_micros(100)));
    // One slot, NO in-memory queue: without spill, every concurrent
    // request beyond the first would shed with queue_full.
    cfg.admission = AdmissionConfig {
        max_inflight: 1,
        max_queued: 0,
        queue_timeout: Duration::from_millis(10),
    };
    let mut spill = SpillConfig::new(&dir);
    spill.max_entries = 2; // force most of the burst through the file
    spill.replay_timeout = Duration::from_secs(30);
    cfg.spill = Some(spill);
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr();

    let workers: Vec<_> = (0..8u64)
        .map(|seed| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.query(&matching_tree(), None, Some(seed)).unwrap()
            })
        })
        .collect();
    let responses: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let shed = responses.iter().filter(|r| r.is_shed()).count();
    let served = responses.iter().filter(|r| r.ok).count();
    assert_eq!(shed, 0, "spill must absorb the whole burst");
    assert_eq!(served, 8);
    for resp in &responses {
        assert!(resp.result.is_some(), "served queries carry results");
    }

    // Accounting: everything that spilled was replayed, the queue is
    // empty again, and the drained segment file was truncated.
    let mut client = Client::connect(addr).unwrap();
    let text = client.metrics().unwrap().metrics.unwrap();
    let spilled = metric(&text, "cedar_server_spill_frames_total");
    let replayed = metric(&text, "cedar_server_spill_replayed_total");
    assert!(
        spilled >= 1.0,
        "a burst of 8 into 2 ring slots must hit disk"
    );
    assert!(replayed >= spilled, "replays cover ring + disk frames");
    assert_eq!(metric(&text, "cedar_server_spill_queue_depth"), 0.0);
    assert_eq!(metric(&text, "cedar_server_spill_disk_bytes"), 0.0);
    let stats = client.stats().unwrap().stats.unwrap();
    assert_eq!(stats.shed_total, 0);
    assert_eq!(stats.served_total, 8);

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn health_probe_reports_ok_and_durability_fields() {
    let dir = scratch("health");
    let mut cfg = ServerConfig::new("127.0.0.1:0", service(60.0, Duration::from_micros(100)));
    cfg.service.checkpoint = Some(CheckpointConfig::new(&dir));
    cfg.spill = Some(SpillConfig::new(dir.join("spill")));
    let handle = Server::start(cfg).unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.health().unwrap();
    assert!(resp.ok, "health failed: {:?}", resp.error);
    let h = resp.health.expect("health payload");
    assert_eq!(h.state, HealthState::Ok);
    assert_eq!(h.queued, 0);
    assert_eq!(h.spilled, 0);
    assert!(!h.warm_restart, "fresh dir cannot warm-restart");

    // Durability fields ride the stats op too.
    client.query(&matching_tree(), None, Some(1)).unwrap();
    let stats = client.stats().unwrap().stats.unwrap();
    assert_eq!(stats.warm_restart, Some(false));
    assert!(stats.priors_age_queries.is_some());

    // Graceful shutdown writes a final checkpoint even though no refit
    // ever fired (refit_interval = 0).
    handle.shutdown().unwrap();
    assert!(
        dir.join("cedar.ckpt").is_file(),
        "graceful shutdown must leave a checkpoint behind"
    );

    // A restart from that checkpoint reports warm via health.
    let mut cfg = ServerConfig::new("127.0.0.1:0", service(60.0, Duration::from_micros(100)));
    cfg.service.checkpoint = Some(CheckpointConfig::new(&dir));
    let handle = Server::start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let h = client.health().unwrap().health.expect("health payload");
    assert!(h.warm_restart, "second boot must restore the checkpoint");
    let stats = client.stats().unwrap().stats.unwrap();
    assert_eq!(stats.warm_restart, Some(true));
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn health_degrades_under_queue_pressure() {
    let mut cfg = ServerConfig::new("127.0.0.1:0", service(2_000.0, Duration::from_micros(500)));
    cfg.admission = AdmissionConfig {
        max_inflight: 1,
        max_queued: 8,
        queue_timeout: Duration::from_secs(10),
    };
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr();

    // One long query holds the slot; two more sit in the queue.
    let mut busy: Vec<_> = (0..3u64)
        .map(|seed| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.query(&matching_tree(), None, Some(seed)).unwrap()
            })
        })
        .collect();
    // Wait for the queue to actually form.
    let mut probe = Client::connect(addr).unwrap();
    let mut state = HealthState::Ok;
    for _ in 0..100 {
        state = probe.health().unwrap().health.expect("health").state;
        if state >= HealthState::Degraded {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    assert!(
        state >= HealthState::Degraded,
        "queued callers must surface as degraded, got {state:?}"
    );
    for w in busy.drain(..) {
        assert!(w.join().unwrap().ok);
    }
    assert_eq!(
        probe.health().unwrap().health.expect("health").state,
        HealthState::Ok,
        "state must recover once the queue drains"
    );
    handle.shutdown().unwrap();
}
