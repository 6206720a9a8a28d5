//! The observability surface over a real TCP socket: the `metrics` op,
//! the HTTP scrape endpoint, and `explain: true` decision traces whose
//! counters must match the query's own `FailureReport` exactly.

use cedar_core::{StageSpec, TreeSpec};
use cedar_distrib::spec::DistSpec;
use cedar_distrib::LogNormal;
use cedar_runtime::{FailureReport, FaultPlan, FaultSpec, ServiceConfig, TimeScale};
use cedar_server::{Client, Server, ServerConfig};
use cedar_telemetry::TraceEventKind;
use std::io::{Read, Write};
use std::sync::Arc;
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

fn matching_tree() -> cedar_workloads::treedef::TreeDef {
    cedar_workloads::treedef::TreeDef {
        stages: vec![
            cedar_workloads::treedef::StageDef {
                dist: DistSpec::LogNormal {
                    mu: 1.0,
                    sigma: 0.6,
                },
                fanout: 4,
            },
            cedar_workloads::treedef::StageDef {
                dist: DistSpec::LogNormal {
                    mu: 1.0,
                    sigma: 0.4,
                },
                fanout: 2,
            },
        ],
    }
}

fn chaos_server() -> ServerConfig {
    let mut cfg = ServerConfig::new("127.0.0.1:0", service(50.0, Duration::from_micros(100)));
    cfg.service.faults = Some(Arc::new(FaultPlan::new(7, FaultSpec::mixed(0.4))));
    cfg
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
fn metrics_op_counters_match_the_failure_reports() {
    let handle = Server::start(chaos_server()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let mut total = FailureReport::default();
    for seed in 0..4u64 {
        let resp = client
            .query(&matching_tree(), Some(5000.0), Some(seed))
            .unwrap();
        assert!(resp.ok, "chaos query failed: {:?}", resp.error);
        if let Some(f) = resp.result.unwrap().failures {
            total.crashed += f.crashed;
            total.hung += f.hung;
            total.straggled += f.straggled;
            total.dropped += f.dropped;
            total.duplicated += f.duplicated;
            total.retries_launched += f.retries_launched;
            total.censored_observations += f.censored_observations;
        }
    }
    assert!(
        total.crashed + total.hung + total.straggled > 0,
        "chaos plan injected nothing"
    );

    let resp = client.metrics().unwrap();
    assert!(resp.ok);
    let text = resp.metrics.expect("metrics payload");
    assert_eq!(metric(&text, "cedar_queries_total"), 4.0);
    assert_eq!(
        metric(&text, "cedar_faults_injected_total{kind=\"crash\"}"),
        total.crashed as f64
    );
    assert_eq!(
        metric(&text, "cedar_faults_injected_total{kind=\"hang\"}"),
        total.hung as f64
    );
    assert_eq!(
        metric(&text, "cedar_faults_injected_total{kind=\"straggle\"}"),
        total.straggled as f64
    );
    assert_eq!(
        metric(&text, "cedar_retries_launched_total"),
        total.retries_launched as f64
    );
    assert_eq!(
        metric(&text, "cedar_censored_observations_total"),
        total.censored_observations as f64
    );
    // The connection layer counted its own traffic too: 4 queries plus
    // this metrics scrape, no errors.
    assert_eq!(
        metric(&text, "cedar_server_requests_total{op=\"query\"}"),
        4.0
    );
    assert_eq!(
        metric(&text, "cedar_server_requests_total{op=\"metrics\"}"),
        1.0
    );
    assert_eq!(
        metric(&text, "cedar_server_errors_total{class=\"shed\"}"),
        0.0
    );
    assert_eq!(metric(&text, "cedar_server_queries_inflight"), 0.0);
    assert!(metric(&text, "cedar_wait_scan_seconds_count") > 0.0);
    handle.shutdown().unwrap();
}

#[test]
fn explain_trace_matches_result_and_failures() {
    let handle = Server::start(chaos_server()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let resp = client
        .query_explain(&matching_tree(), Some(5000.0), Some(3))
        .unwrap();
    assert!(resp.ok, "explain query failed: {:?}", resp.error);
    let result = resp.result.unwrap();
    let report = result.trace.expect("explain: true must return a trace");
    // The trace ends with a QueryEnd agreeing with the result itself.
    let Some(TraceEventKind::QueryEnd {
        quality, included, ..
    }) = report.events.last().map(|e| &e.kind)
    else {
        panic!("trace must end with QueryEnd");
    };
    assert_eq!(*quality, result.quality);
    assert_eq!(*included, result.included_outputs);
    // Its aggregate counters agree exactly with the failure report.
    let failures = result.failures.expect("chaos run must report failures");
    assert!(
        failures == report.summary.failures,
        "trace {:?} != report {failures:?}",
        report.summary
    );
    // And it renders as a human-readable timeline.
    let text = report.render_timeline();
    assert!(text.contains("query start"), "timeline:\n{text}");
    assert!(text.contains("query end"), "timeline:\n{text}");

    // A query without the flag stays trace-free.
    let plain = client
        .query(&matching_tree(), Some(5000.0), Some(3))
        .unwrap();
    assert!(plain.result.unwrap().trace.is_none());
    handle.shutdown().unwrap();
}

#[test]
fn http_endpoint_serves_prometheus_text() {
    let mut cfg = chaos_server();
    cfg.metrics_addr = Some("127.0.0.1:0".to_owned());
    let handle = Server::start(cfg).unwrap();
    let scrape_addr = handle.metrics_addr().expect("metrics listener bound");

    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client
        .query(&matching_tree(), Some(5000.0), Some(1))
        .unwrap();
    assert!(resp.ok);

    // A plain HTTP GET, as a Prometheus scraper would issue it.
    let mut sock = std::net::TcpStream::connect(scrape_addr).unwrap();
    sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: cedar\r\nAccept: */*\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    sock.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "response:\n{raw}");
    assert!(raw.contains("Content-Type: text/plain"));
    let body = raw.split("\r\n\r\n").nth(1).expect("http body");
    assert_eq!(metric(body, "cedar_queries_total"), 1.0);
    assert!(body.contains("cedar_server_admission_queue_depth"));

    // A second scrape works (connection-per-scrape model).
    let mut sock = std::net::TcpStream::connect(scrape_addr).unwrap();
    sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    sock.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"));

    handle.shutdown().unwrap();
}
