//! The service-facing subcommands: `serve` (run a cedar-server) and
//! `loadgen` (drive one with open-loop Poisson load).

use crate::args::Args;
use cedar_core::{StageSpec, TreeSpec};
use cedar_distrib::spec::DistSpec;
use cedar_distrib::LogNormal;
use cedar_runtime::{CheckpointConfig, TimeScale, WarmRestart};
use cedar_server::{AdmissionConfig, Client, Server, ServerConfig, SpillConfig};
use cedar_workloads::production::{
    FACEBOOK_MAP_REPLAY, FACEBOOK_REDUCE, FB_MU_JITTER, FB_SIGMA_JITTER,
};
use cedar_workloads::treedef::{StageDef, TreeDef};
use cedar_workloads::PopulationModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Runs a Facebook-MapReduce-shaped aggregation service until a client
/// sends the `shutdown` op.
pub fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.opt("addr").unwrap_or("127.0.0.1:7070");
    let deadline: f64 = args.opt_parse("deadline", 1600.0)?;
    let k1: usize = args.opt_parse("k1", 50)?;
    let k2: usize = args.opt_parse("k2", 50)?;
    let unit_us: u64 = args.opt_parse("unit-us", 200)?;
    if deadline <= 0.0 || k1 == 0 || k2 == 0 || unit_us == 0 {
        return Err("--deadline, --k1, --k2 and --unit-us must be positive".into());
    }

    let mut cfg = ServerConfig::facebook_mr_sized(addr, deadline, k1, k2);
    cfg.service.scale = TimeScale::new(Duration::from_micros(unit_us));
    cfg.service.refit_interval = args.opt_parse("refit-interval", 20)?;
    cfg.service.policy = crate::commands::parse_policy(args.opt("policy").unwrap_or("cedar"))?;
    cfg.admission = AdmissionConfig {
        max_inflight: args.opt_parse("max-inflight", 256)?,
        max_queued: args.opt_parse("max-queued", 256)?,
        queue_timeout: Duration::from_millis(args.opt_parse("queue-timeout-ms", 500)?),
    };
    cfg.metrics_addr = args.opt("metrics-addr").map(str::to_owned);
    cfg.worker_threads = args.opt_parse("workers", 0)?;
    cfg.idle_timeout = Duration::from_millis(args.opt_parse("idle-timeout-ms", 60_000)?);
    cfg.drain_deadline = Duration::from_millis(args.opt_parse("drain-deadline-ms", 10_000)?);
    let query_timeout_ms: u64 = args.opt_parse("query-timeout-ms", 30_000)?;
    cfg.query_timeout = (query_timeout_ms > 0).then(|| Duration::from_millis(query_timeout_ms));
    if cfg.admission.max_inflight == 0 {
        return Err("--max-inflight must be positive".into());
    }
    if cfg.idle_timeout.is_zero() {
        return Err("--idle-timeout-ms must be positive".into());
    }

    // Durability: priors + learned statistics checkpointed on refit
    // epochs and on graceful shutdown, restored on the next boot.
    if let Some(dir) = args.opt("checkpoint-dir") {
        cfg.service.checkpoint = Some(CheckpointConfig::new(dir));
    }
    // A deliberately chosen (often deliberately *bad*) initial bottom-
    // stage prior, for warm-vs-cold restart experiments: the map stage
    // becomes LN(--prior-mu, --prior-sigma) instead of the FB-MR fit.
    if let Some(mu) = args.opt("prior-mu") {
        let mu: f64 = mu.parse().map_err(|_| "--prior-mu has an invalid value")?;
        let sigma: f64 = args.opt_parse("prior-sigma", FACEBOOK_MAP_REPLAY.1)?;
        let bottom =
            LogNormal::new(mu, sigma).map_err(|e| format!("--prior-mu/--prior-sigma: {e}"))?;
        let reduce = LogNormal::new(FACEBOOK_REDUCE.0, FACEBOOK_REDUCE.1).expect("constants");
        cfg.service.initial_priors =
            TreeSpec::two_level(StageSpec::new(bottom, k1), StageSpec::new(reduce, k2));
    }
    // Elasticity: a second-level FIFO behind the admission queue that
    // spills encoded frames to a bounded segment file under burst.
    if let Some(dir) = args.opt("spill-dir") {
        let mut spill = SpillConfig::new(dir);
        spill.max_entries = args.opt_parse("spill-max-entries", spill.max_entries)?;
        spill.max_disk_bytes = args.opt_parse("spill-max-disk-bytes", spill.max_disk_bytes)?;
        spill.replay_timeout =
            Duration::from_millis(args.opt_parse("spill-replay-timeout-ms", 2_000)?);
        if spill.max_entries == 0 || spill.max_disk_bytes == 0 {
            return Err("--spill-max-entries and --spill-max-disk-bytes must be positive".into());
        }
        cfg.spill = Some(spill);
    }
    // Observability: on-disk flight-recorder dumps (panicking queries,
    // first degrade transition, shutdown, operator requests).
    cfg.flight_file = args.opt("flight-file").map(std::path::PathBuf::from);
    let checkpointing = cfg.service.checkpoint.is_some();

    let handle = Server::start(cfg).map_err(|e| format!("starting server: {e}"))?;
    println!("cedar-server listening on {}", handle.addr());
    if checkpointing {
        print_restore(
            handle.warm_restart().as_ref(),
            handle.cold_start_reason().as_deref(),
        );
    }
    if let Some(maddr) = handle.metrics_addr() {
        println!("metrics endpoint on http://{maddr}/metrics");
    }
    println!(
        "workload: FB-MR {k1}x{k2} ({} processes), deadline {deadline} model s, \
         {unit_us} us of wall clock per model s",
        k1 * k2
    );
    println!(
        "stop with: cedar-cli loadgen --addr {} --stop-server true",
        handle.addr()
    );
    handle.wait().map_err(|e| format!("serving: {e}"))
}

/// Prints how a checkpointing process came up (`serve`, and `node` on
/// an aggregator).
pub(crate) fn print_restore(warm: Option<&WarmRestart>, cold_reason: Option<&str>) {
    match warm {
        Some(w) => println!(
            "warm restart: epoch {}, {} completed queries, {} refits \
             (checkpoint was {} ms old)",
            w.epoch, w.completed, w.refits, w.age_ms
        ),
        None => println!(
            "cold start: {}",
            cold_reason.unwrap_or("no checkpoint found")
        ),
    }
}

/// One-shot elasticity probe: prints the server's `health` op snapshot.
pub fn cmd_health(args: &Args) -> Result<(), String> {
    let addr = args.req("addr")?;
    let fail_on_degraded: bool = args.opt_parse("fail-on-degraded", false)?;
    let mut client = Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let resp = client
        .health()
        .map_err(|e| format!("probing {addr}: {e}"))?;
    if !resp.ok {
        return Err(format!(
            "health probe refused: {}",
            resp.error.unwrap_or_else(|| "unknown error".into())
        ));
    }
    let h = resp
        .health
        .ok_or("server answered without a health payload (pre-durability build?)")?;
    println!("state:              {}", h.state.name());
    println!("in flight:          {}", h.in_flight);
    println!("queued:             {}", h.queued);
    println!(
        "spilled:            {} ({} disk bytes)",
        h.spilled, h.spill_disk_bytes
    );
    println!(
        "priors epoch:       {} (age {} queries)",
        h.priors_epoch, h.priors_age_queries
    );
    match h.checkpoint_age_ms {
        Some(age) => println!("checkpoint age:     {age} ms"),
        None => println!("checkpoint age:     n/a (disabled, or none written yet)"),
    }
    println!("warm restart:       {}", h.warm_restart);
    println!("wait-scan p99:      {:.6} s", h.wait_scan_p99_seconds);
    if fail_on_degraded && h.state != cedar_server::HealthState::Ok {
        return Err(format!("server is {}", h.state.name()));
    }
    Ok(())
}

/// One query's fate, as seen by the load generator.
struct Shot {
    ok: bool,
    shed: bool,
    /// Error class for failures: the server's typed response code when
    /// present, `"transport"` for connection-level failures, or
    /// `"unclassified"` for untyped server errors.
    error_class: Option<String>,
    quality: f64,
    /// Client-observed end-to-end latency (includes admission queueing).
    latency_ms: f64,
}

/// The percentile summary a loadgen run can persist and later be judged
/// against: client-observed latency tail plus the quality distribution.
/// Every field is optional so a baseline written by an older build (or
/// one that tracked fewer percentiles) still compares: a missing key
/// prints as "n/a" and is skipped by the regression gate instead of
/// failing the whole run.
#[derive(Debug, PartialEq)]
struct Baseline {
    latency_p50: Option<f64>,
    latency_p95: Option<f64>,
    latency_p99: Option<f64>,
    quality_mean: Option<f64>,
    quality_p50: Option<f64>,
}

impl Baseline {
    fn to_json(&self) -> serde_json::Value {
        use serde_json::{Map, Number, Value};
        let insert = |m: &mut Map, key: &'static str, v: Option<f64>| {
            if let Some(x) = v {
                m.insert(key, Value::Number(Number::F64(x)));
            }
        };
        let mut latency = Map::new();
        insert(&mut latency, "p50", self.latency_p50);
        insert(&mut latency, "p95", self.latency_p95);
        insert(&mut latency, "p99", self.latency_p99);
        let mut quality = Map::new();
        insert(&mut quality, "mean", self.quality_mean);
        insert(&mut quality, "p50", self.quality_p50);
        let mut root = Map::new();
        root.insert("latency_ms", Value::Object(latency));
        root.insert("quality", Value::Object(quality));
        Value::Object(root)
    }

    fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        // A missing key is tolerated (None); a present non-number is
        // still a hard error — that's corruption, not an old format.
        let f = |path: &[&str]| -> Result<Option<f64>, String> {
            let mut cur = v;
            for key in path {
                match cur.as_object().and_then(|m| m.get(key)) {
                    Some(next) => cur = next,
                    None => return Ok(None),
                }
            }
            cur.as_f64()
                .map(Some)
                .ok_or_else(|| format!("baseline \"{}\" is not a number", path.join(".")))
        };
        let out = Self {
            latency_p50: f(&["latency_ms", "p50"])?,
            latency_p95: f(&["latency_ms", "p95"])?,
            latency_p99: f(&["latency_ms", "p99"])?,
            quality_mean: f(&["quality", "mean"])?,
            quality_p50: f(&["quality", "p50"])?,
        };
        if out.latency_p50.is_none()
            && out.latency_p95.is_none()
            && out.latency_p99.is_none()
            && out.quality_mean.is_none()
            && out.quality_p50.is_none()
        {
            return Err("baseline carries none of the known percentile keys".into());
        }
        Ok(out)
    }

    /// Percentiles that regressed beyond `threshold` (a fraction of the
    /// stored value): latencies count as regressed when they rise,
    /// qualities when they fall. Used for CI gating — any entry here
    /// makes `loadgen --compare-baseline` exit non-zero.
    fn regressions(&self, stored: &Self, threshold: f64) -> Vec<String> {
        fn check(
            name: &str,
            now: Option<f64>,
            then: Option<f64>,
            threshold: f64,
            worse_when_higher: bool,
        ) -> Option<String> {
            // A percentile absent on either side cannot be judged.
            let (now, then) = (now?, then?);
            if then.abs() <= 1e-12 {
                return None;
            }
            let rel = (now - then) / then;
            let regressed = if worse_when_higher {
                rel > threshold
            } else {
                -rel > threshold
            };
            regressed.then(|| {
                format!(
                    "{name}: {then:.2} -> {now:.2} ({:+.1}%, threshold {:.0}%)",
                    100.0 * rel,
                    100.0 * threshold
                )
            })
        }
        [
            check(
                "latency p50",
                self.latency_p50,
                stored.latency_p50,
                threshold,
                true,
            ),
            check(
                "latency p95",
                self.latency_p95,
                stored.latency_p95,
                threshold,
                true,
            ),
            check(
                "latency p99",
                self.latency_p99,
                stored.latency_p99,
                threshold,
                true,
            ),
            check(
                "quality mean",
                self.quality_mean,
                stored.quality_mean,
                threshold,
                false,
            ),
            check(
                "quality p50",
                self.quality_p50,
                stored.quality_p50,
                threshold,
                false,
            ),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// One comparison line per tracked percentile: current vs stored, with
    /// the delta in both absolute and relative terms. Values missing on
    /// either side print as "n/a" and carry no delta.
    fn diff_report(&self, stored: &Self) -> Vec<String> {
        fn line(name: &str, unit: &str, now: Option<f64>, then: Option<f64>) -> String {
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:>9.2}{unit}"),
                None => format!("{:>9}{unit}", "n/a"),
            };
            let (Some(now_v), Some(then_v)) = (now, then) else {
                return format!("  {name:<14} {} vs {}  (n/a)", fmt(now), fmt(then));
            };
            let delta = now_v - then_v;
            let pct = if then_v.abs() > 1e-12 {
                format!("{:+.1}%", 100.0 * delta / then_v)
            } else {
                "n/a".into()
            };
            format!(
                "  {name:<14} {} vs {}  ({delta:+.2}{unit}, {pct})",
                fmt(now),
                fmt(then)
            )
        }
        vec![
            line("latency p50", "ms", self.latency_p50, stored.latency_p50),
            line("latency p95", "ms", self.latency_p95, stored.latency_p95),
            line("latency p99", "ms", self.latency_p99, stored.latency_p99),
            line("quality mean", "", self.quality_mean, stored.quality_mean),
            line("quality p50", "", self.quality_p50, stored.quality_p50),
        ]
    }
}

/// Open-loop Poisson load against a running server, with a percentile
/// report.
pub fn cmd_loadgen(args: &Args) -> Result<(), String> {
    let addr = args.req("addr")?.to_owned();
    let qps: f64 = args.opt_parse("qps", 200.0)?;
    let queries: usize = args.opt_parse("queries", 500)?;
    let seed: u64 = args.opt_parse("seed", 1)?;
    let k1: usize = args.opt_parse("k1", 50)?;
    let k2: usize = args.opt_parse("k2", 50)?;
    let stop_server: bool = args.opt_parse("stop-server", false)?;
    let save_baseline = args.opt("save-baseline").map(str::to_owned);
    let compare_baseline = args.opt("compare-baseline").map(str::to_owned);
    let fail_threshold: f64 = args.opt_parse("fail-threshold", 0.10)?;
    let deadline: Option<f64> = match args.opt("deadline") {
        Some(v) => Some(v.parse().map_err(|_| "--deadline has an invalid value")?),
        None => None,
    };
    if qps.is_nan() || qps <= 0.0 || queries == 0 {
        return Err("--qps and --queries must be positive".into());
    }
    if fail_threshold.is_nan() || fail_threshold < 0.0 {
        return Err("--fail-threshold must be non-negative".into());
    }

    // Fail fast if nothing is listening.
    let mut control = Client::connect(&addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    control.ping().map_err(|e| format!("pinging {addr}: {e}"))?;

    // Per-query trees: the FB-MR population model at the bottom (each
    // query draws its own log-normal), the fixed reduce stage above —
    // the same population `serve` learned its priors from.
    let pop = PopulationModel::new(
        cedar_workloads::production::FACEBOOK_MAP_REPLAY.0,
        cedar_workloads::production::FACEBOOK_MAP_REPLAY.1,
        FB_MU_JITTER,
        FB_SIGMA_JITTER,
    )
    .expect("constants are valid");
    let mut rng = StdRng::seed_from_u64(seed);

    let in_flight = Arc::new(AtomicUsize::new(0));
    let peak_in_flight = Arc::new(AtomicUsize::new(0));
    let (shot_tx, shot_rx) = mpsc::channel::<Shot>();
    let mut workers = Vec::with_capacity(queries);

    // Scrape the server's metrics mid-run on a dedicated connection:
    // the exposition surface is meant to be read *while* the service is
    // loaded, and doing so here both demonstrates that and catches a
    // scrape path that deadlocks under load. Old servers without the
    // `metrics` op just yield zero scrapes.
    let scrape_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let addr = addr.clone();
        let stop = scrape_stop.clone();
        thread::spawn(move || -> (usize, Option<String>) {
            let Ok(mut client) = Client::connect(&addr) else {
                return (0, None);
            };
            let mut scrapes = 0;
            let mut last = None;
            while !stop.load(Ordering::Acquire) {
                match client.metrics() {
                    Ok(resp) if resp.ok && resp.metrics.is_some() => {
                        scrapes += 1;
                        last = resp.metrics;
                    }
                    _ => break,
                }
                thread::sleep(Duration::from_millis(100));
            }
            (scrapes, last)
        })
    };

    println!("offering {qps} QPS, {queries} queries, FB-MR {k1}x{k2} trees");
    let start = Instant::now();
    let mut next_arrival = 0.0f64;
    for _ in 0..queries {
        // Open loop: exponential inter-arrivals, never gated on
        // completions.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        next_arrival += -u.ln() / qps;
        let bottom = pop.sample_query(&mut rng);
        let tree = TreeDef {
            stages: vec![
                StageDef {
                    dist: DistSpec::LogNormal {
                        mu: bottom.mu(),
                        sigma: bottom.sigma(),
                    },
                    fanout: k1,
                },
                StageDef {
                    dist: DistSpec::LogNormal {
                        mu: FACEBOOK_REDUCE.0,
                        sigma: FACEBOOK_REDUCE.1,
                    },
                    fanout: k2,
                },
            ],
        };

        let due = start + Duration::from_secs_f64(next_arrival);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }

        let addr = addr.clone();
        let in_flight = in_flight.clone();
        let peak = peak_in_flight.clone();
        let tx = shot_tx.clone();
        workers.push(thread::spawn(move || {
            let now = in_flight.fetch_add(1, Ordering::AcqRel) + 1;
            peak.fetch_max(now, Ordering::AcqRel);
            let sent = Instant::now();
            let shot = match Client::connect(&addr).and_then(|mut c| c.query(&tree, deadline, None))
            {
                Ok(resp) => {
                    let shed = resp.is_shed();
                    let error_class = if resp.ok || shed {
                        None
                    } else {
                        Some(resp.code.unwrap_or_else(|| "unclassified".to_owned()))
                    };
                    Shot {
                        ok: resp.ok,
                        shed,
                        error_class,
                        quality: resp.result.as_ref().map_or(0.0, |r| r.quality),
                        latency_ms: cedar_core::Millis::from_duration(sent.elapsed()).get(),
                    }
                }
                Err(_) => Shot {
                    ok: false,
                    shed: false,
                    error_class: Some("transport".to_owned()),
                    quality: 0.0,
                    latency_ms: cedar_core::Millis::from_duration(sent.elapsed()).get(),
                },
            };
            in_flight.fetch_sub(1, Ordering::AcqRel);
            let _ = tx.send(shot);
        }));
    }
    drop(shot_tx);
    for w in workers {
        let _ = w.join();
    }
    let elapsed = start.elapsed();
    scrape_stop.store(true, Ordering::Release);
    let (scrapes, last_scrape) = scraper.join().unwrap_or((0, None));

    let shots: Vec<Shot> = shot_rx.into_iter().collect();
    // Only served queries contribute to the quality and latency
    // percentiles: sheds and errors carry no meaningful quality, and
    // folding their zeros in would silently flatter a degraded server.
    let served: Vec<&Shot> = shots.iter().filter(|s| s.ok).collect();
    let shed = shots.iter().filter(|s| s.shed).count();
    let mut error_counts: std::collections::BTreeMap<&str, usize> =
        std::collections::BTreeMap::new();
    for s in &shots {
        if let Some(class) = &s.error_class {
            *error_counts.entry(class.as_str()).or_default() += 1;
        }
    }
    let errors: usize = error_counts.values().sum();

    let mut qualities: Vec<f64> = served.iter().map(|s| s.quality).collect();
    let mut latencies: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();
    qualities.sort_by(f64::total_cmp);
    latencies.sort_by(f64::total_cmp);

    println!();
    println!(
        "completed {} of {} in {:.2}s (achieved {:.1} QPS; {} shed, {} errored)",
        served.len(),
        shots.len(),
        elapsed.as_secs_f64(),
        served.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        shed,
        errors,
    );
    if errors > 0 {
        let breakdown: Vec<String> = error_counts
            .iter()
            .map(|(class, n)| format!("{class} {n}"))
            .collect();
        println!("errors:            {errors} ({})", breakdown.join(", "));
    }
    println!(
        "peak in-flight:    {}",
        peak_in_flight.load(Ordering::Acquire)
    );
    if !served.is_empty() {
        println!(
            "quality:           mean {:.3}, p10 {:.3}, p50 {:.3}, p90 {:.3}",
            qualities.iter().sum::<f64>() / qualities.len() as f64,
            percentile(&qualities, 10.0),
            percentile(&qualities, 50.0),
            percentile(&qualities, 90.0),
        );
        println!(
            "latency (ms):      p50 {:.1}, p95 {:.1}, p99 {:.1}",
            percentile(&latencies, 50.0),
            percentile(&latencies, 95.0),
            percentile(&latencies, 99.0),
        );

        let current = Baseline {
            latency_p50: Some(percentile(&latencies, 50.0)),
            latency_p95: Some(percentile(&latencies, 95.0)),
            latency_p99: Some(percentile(&latencies, 99.0)),
            quality_mean: Some(qualities.iter().sum::<f64>() / qualities.len() as f64),
            quality_p50: Some(percentile(&qualities, 50.0)),
        };
        if let Some(path) = &compare_baseline {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading baseline {path}: {e}"))?;
            let stored = serde_json::from_str::<serde_json::Value>(&text)
                .map_err(|e| format!("parsing baseline {path}: {e}"))
                .and_then(|v| Baseline::from_json(&v))?;
            println!();
            println!("vs baseline {path}:");
            for line in current.diff_report(&stored) {
                println!("{line}");
            }
            let regressions = current.regressions(&stored, fail_threshold);
            if regressions.is_empty() {
                println!(
                    "  within the {:.0}% regression threshold",
                    100.0 * fail_threshold
                );
            } else {
                for r in &regressions {
                    println!("  REGRESSION {r}");
                }
                return Err(format!(
                    "{} percentile(s) regressed beyond the {:.0}% threshold",
                    regressions.len(),
                    100.0 * fail_threshold
                ));
            }
        }
        if let Some(path) = &save_baseline {
            let text = serde_json::to_string_pretty(&current.to_json()).expect("valid json");
            // Atomic replace: a baseline a CI gate will later judge
            // against must never be left half-written by a crash.
            cedar_core::fs::write_atomic(std::path::Path::new(path), text.as_bytes())
                .map_err(|e| format!("writing baseline {path}: {e}"))?;
            println!("baseline saved to {path}");
        }
    } else if save_baseline.is_some() || compare_baseline.is_some() {
        return Err("no queries were served; refusing to save or compare a baseline".into());
    }
    if let Ok(resp) = control.stats() {
        if let Some(stats) = resp.stats {
            let lookups = stats.cache_hits + stats.cache_misses;
            println!(
                "server:            {} completed, {} refits (epoch {}), profile cache {}/{} hits ({:.0}%)",
                stats.completed,
                stats.refits,
                stats.epoch,
                stats.cache_hits,
                lookups,
                100.0 * stats.cache_hits as f64 / lookups.max(1) as f64,
            );
        }
    }
    if scrapes > 0 {
        if let Some(text) = &last_scrape {
            let line = |label: &str, v: Option<String>| {
                if let Some(v) = v {
                    println!("  {label:<28} {v}");
                }
            };
            println!("metrics ({scrapes} mid-run scrapes; last):");
            line("queries completed", scraped(text, "cedar_queries_total"));
            line(
                "wait-scan p99 (s)",
                scraped(text, "cedar_wait_scan_seconds{quantile=\"0.99\"}"),
            );
            line(
                "censored fraction",
                scraped(text, "cedar_censored_observation_fraction"),
            );
            line(
                "sheds",
                scraped(text, "cedar_server_errors_total{class=\"shed\"}"),
            );
            line(
                "priors epoch age (queries)",
                scraped(text, "cedar_priors_epoch_age_queries"),
            );
        }
    }
    if stop_server {
        control
            .shutdown_server()
            .map_err(|e| format!("stopping server: {e}"))?;
        println!("server stopped");
    }
    Ok(())
}

/// One metric's rendered value, from Prometheus text captured mid-run.
fn scraped(text: &str, name: &str) -> Option<String> {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .map(str::to_owned)
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::dispatch;

    fn sv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn percentiles_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn loadgen_validates_flags() {
        assert!(dispatch(&sv(&["loadgen"])).is_err()); // missing --addr
        assert!(dispatch(&sv(&["loadgen", "--addr", "127.0.0.1:1", "--qps", "0"])).is_err());
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let b = Baseline {
            latency_p50: Some(12.5),
            latency_p95: Some(40.0),
            latency_p99: Some(88.25),
            quality_mean: Some(0.93),
            quality_p50: Some(0.97),
        };
        let back = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn baseline_tolerates_missing_percentile_keys() {
        // An old-format baseline without p99 (or the quality block at
        // all) still loads; the absent keys come back as None.
        let old = serde_json::from_str::<serde_json::Value>(
            r#"{"latency_ms": {"p50": 10.0, "p95": 20.0}}"#,
        )
        .unwrap();
        let b = Baseline::from_json(&old).unwrap();
        assert_eq!(b.latency_p50, Some(10.0));
        assert_eq!(b.latency_p99, None);
        assert_eq!(b.quality_mean, None);

        // So does one recorded with the wire format it was measured
        // over, from when loadgen had more than one.
        let tagged = serde_json::from_str::<serde_json::Value>(
            r#"{"latency_ms": {"p50": 10.0}, "wire": "binary"}"#,
        )
        .unwrap();
        assert_eq!(
            Baseline::from_json(&tagged).unwrap().latency_p50,
            Some(10.0)
        );

        // A baseline with none of the known keys is garbage, not old.
        let empty = serde_json::from_str::<serde_json::Value>(r#"{"foo": 1}"#).unwrap();
        assert!(Baseline::from_json(&empty)
            .unwrap_err()
            .contains("none of the known percentile keys"));

        // A present key of the wrong type is corruption, still fatal.
        let corrupt =
            serde_json::from_str::<serde_json::Value>(r#"{"latency_ms": {"p50": "fast"}}"#)
                .unwrap();
        assert!(Baseline::from_json(&corrupt)
            .unwrap_err()
            .contains("not a number"));
    }

    #[test]
    fn missing_percentiles_skip_the_gate_and_print_as_na() {
        let stored = Baseline {
            latency_p50: Some(10.0),
            latency_p95: None,
            latency_p99: None,
            quality_mean: Some(0.9),
            quality_p50: None,
        };
        let current = Baseline {
            latency_p50: Some(11.0),
            latency_p95: Some(200.0),
            latency_p99: Some(400.0),
            quality_mean: Some(0.9),
            quality_p50: Some(0.1),
        };
        // The huge p95/p99/quality-p50 movements are unjudgeable
        // against a baseline that never recorded them; only the p50
        // wobble is in range and it is within threshold.
        assert!(current.regressions(&stored, 0.15).is_empty());
        let r = current.regressions(&stored, 0.05);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("latency p50"));

        let report = current.diff_report(&stored);
        assert_eq!(report.len(), 5);
        assert!(report[1].contains("n/a"), "{}", report[1]);
        assert!(report[4].contains("n/a"), "{}", report[4]);
    }

    #[test]
    fn regression_gate_flags_only_true_regressions() {
        let stored = Baseline {
            latency_p50: Some(10.0),
            latency_p95: Some(20.0),
            latency_p99: Some(40.0),
            quality_mean: Some(0.9),
            quality_p50: Some(0.95),
        };
        // Latency improvements and small wobbles pass...
        let fine = Baseline {
            latency_p50: Some(5.0),
            latency_p95: Some(21.0),
            latency_p99: Some(43.0),
            quality_mean: Some(0.89),
            quality_p50: Some(0.95),
        };
        assert!(fine.regressions(&stored, 0.10).is_empty());
        // ...a latency blow-up and a quality collapse both fail.
        let worse = Baseline {
            latency_p50: Some(10.0),
            latency_p95: Some(30.0),
            latency_p99: Some(40.0),
            quality_mean: Some(0.9),
            quality_p50: Some(0.70),
        };
        let r = worse.regressions(&stored, 0.10);
        assert_eq!(r.len(), 2, "{r:?}");
        assert!(r[0].contains("latency p95"));
        assert!(r[1].contains("quality p50"));
        // A zero threshold flags any worsening at all (p95, p99, mean).
        assert_eq!(fine.regressions(&stored, 0.0).len(), 3);
    }

    #[test]
    fn scraped_pulls_labelled_series() {
        let text = "# HELP x y\ncedar_queries_total 42\n\
                    cedar_server_errors_total{class=\"shed\"} 3\n";
        assert_eq!(scraped(text, "cedar_queries_total").as_deref(), Some("42"));
        assert_eq!(
            scraped(text, "cedar_server_errors_total{class=\"shed\"}").as_deref(),
            Some("3")
        );
        assert!(scraped(text, "cedar_missing").is_none());
    }

    #[test]
    fn loadgen_rejects_bad_fail_threshold() {
        assert!(dispatch(&sv(&[
            "loadgen",
            "--addr",
            "127.0.0.1:1",
            "--fail-threshold",
            "-0.5"
        ]))
        .is_err());
    }

    #[test]
    fn baseline_diff_reports_all_percentiles() {
        let then = Baseline {
            latency_p50: Some(10.0),
            latency_p95: Some(20.0),
            latency_p99: Some(40.0),
            quality_mean: Some(0.9),
            quality_p50: Some(0.95),
        };
        let now = Baseline {
            latency_p50: Some(5.0),
            latency_p95: Some(30.0),
            latency_p99: Some(40.0),
            quality_mean: Some(0.9),
            quality_p50: Some(0.95),
        };
        let report = now.diff_report(&then);
        assert_eq!(report.len(), 5);
        assert!(report[0].contains("-50.0%"));
        assert!(report[1].contains("+50.0%"));
        assert!(report[2].contains("+0.0%"));
    }

    #[test]
    fn loadgen_drives_a_live_server_and_stops_it() {
        // A small, fast server: 4x2 trees, 1600 model-second deadline
        // replayed at 20 us per model second (max ~32 ms per query).
        let mut cfg = ServerConfig::facebook_mr_sized("127.0.0.1:0", 1600.0, 4, 2);
        cfg.service.scale = TimeScale::new(Duration::from_micros(20));
        cfg.service.refit_interval = 10;
        let handle = Server::start(cfg).unwrap();
        let addr = handle.addr().to_string();

        let baseline =
            std::env::temp_dir().join(format!("cedar-baseline-{}.json", std::process::id()));
        let baseline = baseline.to_str().unwrap().to_owned();
        let argv = sv(&[
            "loadgen",
            "--addr",
            &addr,
            "--qps",
            "400",
            "--queries",
            "40",
            "--k1",
            "4",
            "--k2",
            "2",
            "--save-baseline",
            &baseline,
        ]);
        dispatch(&argv).unwrap();

        // A second run against that baseline, then shuts the server
        // down.
        let argv = sv(&[
            "loadgen",
            "--addr",
            &addr,
            "--qps",
            "400",
            "--queries",
            "40",
            "--k1",
            "4",
            "--k2",
            "2",
            "--compare-baseline",
            &baseline,
            // This test pins the save/load/compare/stop plumbing, not
            // the gate: back-to-back runs on a loaded test machine can
            // differ well past the default 10%, and the gate's
            // true/false behavior is unit-tested separately.
            "--fail-threshold",
            "10.0",
            "--stop-server",
            "true",
        ]);
        dispatch(&argv).unwrap();
        let _ = std::fs::remove_file(&baseline);
        handle.wait().unwrap();
    }
}
