//! Turning a run into what is printed: the workload-scoped per-layer
//! rows, the blocking-path ledger, and the result line.

use crate::layers::{Ledger, Row};
use crate::run::Outcome;
use crate::stats::{median, percentile};

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn span_median(out: &Outcome, name: &str) -> f64 {
    let ns: Vec<f64> = out
        .span_logs
        .iter()
        .flat_map(|log| log.durations_ns(name))
        .collect();
    if ns.is_empty() {
        0.0
    } else {
        median(&ns)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The steps a query of this workload waits for, in microseconds, from
/// the per-layer rows. What they leave of the end-to-end p50 is the
/// residual nobody has attributed yet.
fn blocking_path(out: &Outcome, ledger: &Ledger) -> Vec<(String, f64)> {
    let row = |name: &str| (name.to_owned(), ledger.get(name));
    let ns_twice = |name: &str| (format!("2 x {name}"), 2.0 * ledger.get(name) / 1e3);
    let spec = out.spec;
    let mut path = vec![
        (
            "client.encode_ns".to_owned(),
            span_median(out, "client.encode") / 1e3,
        ),
        (
            "client.decode_ns".to_owned(),
            span_median(out, "client.decode") / 1e3,
        ),
    ];
    match spec.name {
        "rpc_small" => path.extend([
            row("server.ping_rtt_us"),
            row("runtime.service_submit_us.small"),
        ]),
        "rpc_wide" => path.extend([
            row("server.ping_rtt_us"),
            (
                "deadline x unit (the wait the policy is given)".to_owned(),
                spec.deadline * spec.unit.as_secs_f64() * 1e6,
            ),
            row("runtime.deadline_overrun_p50_us.wide"),
        ]),
        "rpc_churn" => path.extend([
            row("server.ping_rtt_us"),
            row("runtime.service_submit_us.small"),
            row("runtime.refit_ack_us"),
        ]),
        _ => path.extend([
            row("mesh.ping_rtt_us"),
            row("runtime.engine_query_us.mesh_tree"),
            ns_twice("mesh.codec_exec_ns"),
            ns_twice("mesh.codec_partial_ns"),
        ]),
    }
    path
}

/// Every per-layer metric of a traced run: the workload-independent
/// ledger rows plus the rows scoped to this workload. Prints the
/// blocking-path ledger on the way.
pub fn per_layer(out: &Outcome, ledger: &Ledger) -> Vec<Row> {
    let queries = out.measured_queries() as f64;
    let s = &out.scraped;
    let plain_p50 = out.latency_percentile(false, 50.0);
    let traced_p50 = out.latency_percentile(true, 50.0);
    let path = blocking_path(out, ledger);
    let attributed: f64 = path.iter().map(|(_, us)| us).sum();

    println!("\nledger: {} blocking path (us)", out.spec.name);
    for (name, us) in &path {
        println!("  {name:<52} {us:>12.2}");
    }
    println!("  {:<52} {attributed:>12.2}", "sum of rows");
    println!(
        "  {:<52} {plain_p50:>12.2}",
        "end-to-end latency p50 (plain batches)"
    );
    println!(
        "  {:<52} {:>12.2}",
        "ledger.residual_us",
        plain_p50 - attributed
    );
    println!(
        "  {:<52} {traced_p50:>12.2}",
        "end-to-end latency p50 (traced batches)"
    );

    let mut overhead = out.overhead_us.clone();
    let mut plain = out.latencies(false);
    let scoped: [Metric; 11] = [
        (
            "server.rpc_overhead_p50_us",
            percentile(&mut overhead, 50.0),
            "us",
        ),
        (
            "runtime.profile_cache_hit_ratio",
            ratio(s.cache_hits, s.cache_hits + s.cache_misses),
            "ratio",
        ),
        (
            "runtime.wait_scans_per_query",
            s.wait_scans / queries,
            "count",
        ),
        (
            "runtime.wait_scan_mean_us",
            ratio(s.wait_scan_seconds * 1e6, s.wait_scans),
            "us",
        ),
        ("runtime.refits_per_query", s.refits / queries, "count"),
        ("client.encode_ns", span_median(out, "client.encode"), "ns"),
        (
            "client.socket_wait_us",
            span_median(out, "client.socket_wait") / 1e3,
            "us",
        ),
        ("client.decode_ns", span_median(out, "client.decode"), "ns"),
        ("client.latency_p99_us", percentile(&mut plain, 99.0), "us"),
        ("ledger.residual_us", plain_p50 - attributed, "us"),
        (
            "ledger.trace_overhead_pct",
            100.0 * (traced_p50 - plain_p50) / plain_p50,
            "%",
        ),
    ];
    let mut rows = ledger.rows.clone();
    rows.extend(
        scoped
            .into_iter()
            .map(|(name, value, unit)| Row { name, value, unit }),
    );
    rows
}

/// Prints a metric table.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("\n{title}");
    for (name, value, unit) in metrics {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
}

/// The result line the driver reads: one JSON object, every value with
/// all its digits.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads one metric's value back out of a result line.
pub fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Reads a top-level field (`correct`, `attempted`, `failed`) of a
/// result line as text.
pub fn field_in<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    Some(&rest[..rest.find(',')?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_every_digit() {
        let metrics = [
            ("latency_p50_us", 370.123456789012, "us"),
            ("setup_s", 2.5, "s"),
        ];
        let line = result_json(true, 1000, 0, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert!(line.ends_with("\"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}}}"));
        assert_eq!(metric_in(&line, "latency_p50_us"), Some(370.123456789012));
        assert_eq!(metric_in(&line, "setup_s"), Some(2.5));
        assert_eq!(metric_in(&line, "absent"), None);
        assert_eq!(field_in(&line, "correct"), Some("true"));
        assert_eq!(field_in(&line, "failed"), Some("0"));
    }
}
