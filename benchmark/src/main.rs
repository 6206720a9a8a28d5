//! The repo benchmark. See `README.md` beside this crate for the
//! workloads, the metrics and how the bounds were set.
//!
//! ```text
//! cedar-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! cedar-benchmark [--seed N] [--seconds S]                        the suite: every workload, plain then traced
//! cedar-benchmark --repeat R --sets 2 [--seconds S]               repeatability check against the bounds
//! ```

mod affinity;
mod check;
mod env;
mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

/// Measured seconds per run when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 0,
        sets: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad("between 0 and 120 seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => args.repeat = value.parse().map_err(|_| bad("a count"))?,
            "--sets" => {
                args.sets = match value.as_str() {
                    "1" => 1,
                    "2" => 2,
                    _ => return Err(bad("1 or 2")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One workload, one process: runs it, prints its tables and, last, the
/// result line.
fn single(name: &str, args: &Args, process_start: Instant) -> Result<bool, String> {
    let spec = workload::spec(name).ok_or_else(|| {
        let known: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    affinity::confine_to_one_cpu();
    // A traced run spends part of its time on the per-layer ledger.
    let seconds = if args.trace {
        args.seconds * 0.4
    } else {
        args.seconds
    };
    let out = run::run(spec, args.seed, seconds, args.trace, process_start)
        .map_err(|e| format!("{name}: {e}"))?;
    println!(
        "{name}: seed {}, {} client(s), {} measured queries in {} batches of {} over {:.1} s, on one of {cpus} CPU(s)",
        args.seed,
        spec.clients,
        out.measured_queries(),
        out.batches.len(),
        spec.batch,
        out.measured_s,
    );
    // Every batch, so that a disturbed stretch of the run can be seen.
    for (i, b) in out.batches.iter().enumerate() {
        let n = spec.batch;
        let mut lat = out.latency_us[i * n..(i + 1) * n].to_vec();
        println!(
            "  batch {i:>3}{}: qps {:>9.1}  p50 {:>10.1} us  cpu {:>5.0} ms",
            if b.traced { " (traced)" } else { "" },
            n as f64 / b.wall_s,
            stats::percentile(&mut lat, 50.0),
            b.cpu_ms
        );
    }
    let metrics: Vec<report::Metric> = if args.trace {
        let ledger = layers::run(process_start).map_err(|e| format!("per-layer ledger: {e}"))?;
        let rows = report::per_layer(&out, &ledger);
        let path = env::out_dir().join(format!("trace-{name}.jsonl"));
        let mut logs: Vec<&trace::SpanLog> = out.span_logs.iter().collect();
        logs.push(&ledger.spans);
        let spans =
            trace::write_jsonl(&path, &logs).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\n{spans} spans written to {}", path.display());
        rows.iter().map(|r| (r.name, r.value, r.unit)).collect()
    } else {
        out.end_to_end()
    };
    let title = if args.trace {
        "per-layer metrics"
    } else {
        "end-to-end metrics"
    };
    report::print_metrics(&format!("{name}: {title}"), &metrics);
    for problem in &out.problems {
        println!("INVALID: {problem}");
    }
    // The server turns a panicking query into a typed error and a mesh
    // thread dies quietly; either way the run is not correct.
    if env::panics() > 0 {
        println!("INVALID: {} thread panic(s)", env::panics());
    }
    let correct = out.problems.is_empty() && out.failed == 0 && env::panics() == 0;
    println!("attempted {} failed {}", out.attempted, out.failed);
    println!(
        "{}",
        report::result_json(correct, out.attempted, out.failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    env::install_panic_counter();
    let done = parse_args().and_then(|args| match &args.workload {
        Some(name) => single(name, &args, process_start),
        None if args.repeat > 0 => check::sets(args.repeat, args.sets, args.seconds),
        None => check::suite(args.seed, args.seconds),
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cedar-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
