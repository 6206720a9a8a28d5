//! Modes that run several workloads: the suite and the repeatability
//! check. Each run is its own OS process (this binary, re-executed), so
//! peak memory and thread state never leak from one workload into the
//! next.

use crate::report::{field_in, metric_in};
use crate::stats::{median, quartiles};
use crate::workload::SPECS;
use std::process::Command;

/// An end-to-end metric's regression bounds: the share of the parent's
/// median it may worsen by (derivation in `README.md`). `rpc_wide` pins
/// latency and throughput at the deadline, so its bounds are tighter;
/// `BENCHMARK.json` carries one bound per metric, the larger of the two.
pub struct Bound {
    pub metric: &'static str,
    pub bound: f64,
    pub rpc_wide: f64,
}

pub const BOUNDS: [Bound; 7] = [
    Bound {
        metric: "setup_s",
        bound: 0.25,
        rpc_wide: 0.05,
    },
    Bound {
        metric: "qps",
        bound: 0.25,
        rpc_wide: 0.02,
    },
    Bound {
        metric: "latency_p50_us",
        bound: 0.25,
        rpc_wide: 0.01,
    },
    Bound {
        metric: "latency_p90_us",
        bound: 0.25,
        rpc_wide: 0.015,
    },
    Bound {
        metric: "quality_mean",
        bound: 0.1,
        rpc_wide: 0.1,
    },
    Bound {
        metric: "cpu_ms_per_query",
        bound: 0.25,
        rpc_wide: 0.25,
    },
    Bound {
        metric: "peak_rss_mb",
        bound: 0.25,
        rpc_wide: 0.25,
    },
];

impl Bound {
    fn on(&self, workload: &str) -> f64 {
        if workload == "rpc_wide" {
            self.rpc_wide
        } else {
            self.bound
        }
    }
}

/// Runs one workload in a child process and returns its standard output;
/// the result line is the last line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) failed:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(stdout)
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().unwrap_or("")
}

/// Every workload once plain and once traced: prints each run's tables,
/// then the 7 x 4 end-to-end summary with attempted and failed counts.
pub fn suite(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut summary = Vec::new();
    for spec in &SPECS {
        for trace in [false, true] {
            let stdout = child(spec.name, seed, seconds, trace)?;
            print!("{stdout}");
            if !trace {
                summary.push((spec.name, result_line(&stdout).to_owned()));
            }
        }
    }
    println!("\nend-to-end summary (seed {seed}, {seconds} s measured per workload)");
    print!("  {:<20}", "metric");
    for (name, _) in &summary {
        print!(" {name:>14}");
    }
    println!();
    for b in &BOUNDS {
        print!("  {:<20}", b.metric);
        for (_, line) in &summary {
            print!(" {:>14.4}", metric_in(line, b.metric).unwrap_or(f64::NAN));
        }
        println!();
    }
    for field in ["attempted", "failed"] {
        print!("  {field:<20}");
        for (_, line) in &summary {
            print!(" {:>14}", field_in(line, field).unwrap_or("?"));
        }
        println!();
    }
    Ok(summary
        .iter()
        .all(|(_, line)| field_in(line, "correct") == Some("true")))
}

/// Runs the suite `repeat` times per set, workloads interleaved, run
/// `r` of either set on seed `r`, so the two sets execute the same
/// inputs and differ in timing only. Prints per workload and metric
/// each set's median and quartile spread and the gap between the set
/// medians; PASS when every spread stays within the bound and the gap
/// within half of it. One set prints the spreads alone.
pub fn sets(repeat: usize, sets: usize, seconds: f64) -> Result<bool, String> {
    // values[set][workload][metric] -> one value per run
    let mut values = vec![vec![vec![Vec::new(); BOUNDS.len()]; SPECS.len()]; sets];
    for (set, per_set) in values.iter_mut().enumerate() {
        for seed in 1..=repeat as u64 {
            for (w, spec) in SPECS.iter().enumerate() {
                let stdout = child(spec.name, seed, seconds, false)?;
                let line = result_line(&stdout);
                if field_in(line, "correct") != Some("true") {
                    return Err(format!(
                        "{} (seed {seed}) was not correct:\n{stdout}",
                        spec.name
                    ));
                }
                for (m, b) in BOUNDS.iter().enumerate() {
                    let v = metric_in(line, b.metric)
                        .ok_or_else(|| format!("{}: no {} in {line}", spec.name, b.metric))?;
                    per_set[w][m].push(v);
                }
                eprintln!("set {} run {seed}/{repeat} {} done", set + 1, spec.name);
            }
        }
    }

    let mut all_pass = true;
    println!(
        "{:<11} {:<17} {:>6} | per set: median (quartile spread / median) | gap of medians | verdict",
        "workload", "metric", "bound"
    );
    for (w, spec) in SPECS.iter().enumerate() {
        for (m, b) in BOUNDS.iter().enumerate() {
            let bound = b.on(spec.name);
            let mut pass = true;
            let mut medians = Vec::new();
            let mut cells = String::new();
            for per_set in &values {
                let xs = &per_set[w][m];
                let med = median(xs);
                let spread = if xs.len() >= 2 {
                    let (q1, q3) = quartiles(xs);
                    (q3 - q1) / med
                } else {
                    0.0
                };
                // The driver does not judge the spread of set-up time.
                pass &= b.metric == "setup_s" || spread <= bound;
                cells.push_str(&format!(" {med:>12.4} ({:>5.2}%)", spread * 100.0));
                medians.push(med);
            }
            let gap = if medians.len() >= 2 {
                (medians[1] - medians[0]).abs() / medians[0]
            } else {
                0.0
            };
            pass &= gap <= bound / 2.0;
            all_pass &= pass;
            println!(
                "{:<11} {:<17} {:>5.1}% |{cells} | {:>5.2}% | {}",
                spec.name,
                b.metric,
                bound * 100.0,
                gap * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver enforces; this table is what
    /// the repeatability check enforces. They must not drift apart.
    #[test]
    fn benchmark_json_declares_these_metrics_workloads_and_bounds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        for b in &BOUNDS {
            let declared = b.bound.max(b.rpc_wide);
            let entry = format!("\"name\": \"{}\"", b.metric);
            let at = json
                .find(&entry)
                .unwrap_or_else(|| panic!("{} missing", b.metric));
            let rest = &json[at..json[at..].find('}').unwrap() + at];
            assert!(
                rest.contains(&format!("\"bound\": {declared}")),
                "{}: expected bound {declared} in {rest}",
                b.metric
            );
            assert!(
                declared <= 0.25,
                "{}: the driver refuses a bound above 0.25",
                b.metric
            );
        }
        for spec in &SPECS {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", spec.name)),
                "{}",
                spec.name
            );
        }
    }
}
