//! The `chaos` subcommand: sweep injected failure rates against the
//! cedar policy and report how gracefully quality degrades — plus the
//! `--kill-restart` mode, which turns the chaos on the *service process*
//! itself: SIGKILL mid-load, restart from the checkpoint, and measure
//! whether the learned state survived.
//!
//! The sweep runs entirely on a paused current-thread runtime, so a full
//! sweep (hundreds of queries across several fault rates) finishes in
//! wall milliseconds while model time behaves exactly as in deployment.
//! The kill-restart demo is the opposite: real child processes, real
//! sockets, a real `kill -9`.

use crate::args::Args;
use cedar_core::TreeSpec;
use cedar_distrib::spec::DistSpec;
use cedar_runtime::{
    AggregationService, FailureReport, FaultPlan, FaultSpec, QueryOptions, ServiceConfig,
};
use cedar_server::proto::Request;
use cedar_server::wire2::BinaryCodec;
use cedar_server::Client;
use cedar_workloads::production::{FACEBOOK_MAP_REPLAY, FACEBOOK_REDUCE};
use cedar_workloads::treedef::{StageDef, TreeDef};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default sweep: clean baseline plus 2/5/10/20 percent fault rates.
const DEFAULT_RATES: &str = "0,0.02,0.05,0.1,0.2";

/// Straggler slow-down factor used by `--mode straggle`.
const STRAGGLE_FACTOR: f64 = 4.0;

/// One rate's aggregate outcome across the whole batch of queries.
struct RatePoint {
    rate: f64,
    qualities: Vec<f64>,
    failures: FailureReport,
    deadline_violations: usize,
}

/// Quality-vs-failure-rate sweep; see the USAGE entry.
pub fn cmd_chaos(args: &Args) -> Result<(), String> {
    if args.opt_parse("kill-restart", false)? {
        return cmd_kill_restart(args);
    }
    let mode = args.opt("mode").unwrap_or("crash");
    let queries: usize = args.opt_parse("queries", 40)?;
    let deadline: f64 = args.opt_parse("deadline", 40.0)?;
    let k1: usize = args.opt_parse("k1", 8)?;
    let k2: usize = args.opt_parse("k2", 4)?;
    let seed: u64 = args.opt_parse("seed", 0xC1A05)?;
    let rates: Vec<f64> = args
        .opt("rates")
        .unwrap_or(DEFAULT_RATES)
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .map_err(|_| format!("bad rate '{t}' in --rates"))
        })
        .collect::<Result<_, _>>()?;
    if queries == 0 || deadline <= 0.0 || k1 == 0 || k2 == 0 || rates.is_empty() {
        return Err("--queries, --deadline, --k1 and --k2 must be positive".into());
    }
    if rates.iter().any(|r| !(0.0..=1.0).contains(r)) {
        return Err("--rates entries must be within [0, 1]".into());
    }
    let spec_for = |rate: f64| -> Result<FaultSpec, String> {
        Ok(match mode {
            "crash" => FaultSpec::crashes(rate),
            "straggle" => FaultSpec::stragglers(rate, STRAGGLE_FACTOR),
            "mixed" => FaultSpec::mixed(rate),
            other => {
                return Err(format!(
                    "unknown mode '{other}' (try crash, straggle, mixed)"
                ))
            }
        })
    };

    // The paused clock makes every model-time sleep resolve instantly
    // and deterministically: the sweep is a pure function of its flags.
    let rt = tokio::runtime::Builder::new_current_thread()
        .start_paused(true)
        .build()
        .map_err(|e| format!("building runtime: {e}"))?;

    println!(
        "chaos sweep: mode {mode}, {queries} queries per rate, \
         {k1}x{k2} tree, deadline {deadline} model units, seed {seed}"
    );
    // The sweep's tree rides through the wire codec before it runs: the
    // same encode/decode pair a remote client would exercise, applied
    // in-process so a codec bug shows up as a sweep failure.
    let wire_tree = round_trip_tree(
        TreeDef {
            stages: vec![
                StageDef {
                    dist: DistSpec::LogNormal {
                        mu: 1.0,
                        sigma: 0.6,
                    },
                    fanout: k1,
                },
                StageDef {
                    dist: DistSpec::LogNormal {
                        mu: 1.0,
                        sigma: 0.4,
                    },
                    fanout: k2,
                },
            ],
        },
        deadline,
    )?;
    let scale = cedar_runtime::TimeScale::millis();
    let scaled_deadline = scale.to_wall(deadline);
    let mut points = Vec::with_capacity(rates.len());
    for &rate in &rates {
        let spec = spec_for(rate)?;
        let tree = || wire_tree.clone();
        let mut cfg = ServiceConfig::new(tree(), deadline);
        cfg.scale = scale;
        // Fixed priors across the sweep: rates stay comparable, and the
        // quality trend isolates the fault plan's effect.
        cfg.refit_interval = 0;
        let svc = AggregationService::new(cfg);

        let mut point = RatePoint {
            rate,
            qualities: Vec::with_capacity(queries),
            failures: FailureReport::default(),
            deadline_violations: 0,
        };
        rt.block_on(async {
            for q in 0..queries {
                // Each query gets its own plan seed: which tasks fault
                // varies across the batch (a fixed plan would replay the
                // same failure pattern every query), while the whole
                // sweep stays a deterministic function of --seed.
                let plan = (rate > 0.0).then(|| {
                    let plan_seed = seed ^ (q as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
                    Arc::new(FaultPlan::new(plan_seed, spec))
                });
                let opts = QueryOptions {
                    seed: Some(seed ^ (q as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    faults: plan,
                    ..QueryOptions::default()
                };
                let out = svc.submit_with(tree(), opts).await;
                point.qualities.push(out.quality);
                point.failures.absorb(&out.failures);
                // Tolerance for timer-wheel granularity at the boundary.
                if out.wall_elapsed > scaled_deadline + Duration::from_millis(5) {
                    point.deadline_violations += 1;
                }
            }
        });
        point.qualities.sort_by(f64::total_cmp);
        points.push(point);
    }

    println!();
    println!(
        "{:>6} {:>8} {:>7} {:>8} {:>8} {:>9} {:>8} {:>9} {:>9}",
        "rate",
        "mean_q",
        "p10_q",
        "injected",
        "retries",
        "recovered",
        "dup_supp",
        "censored",
        "ddl_viol"
    );
    for p in &points {
        let mean = p.qualities.iter().sum::<f64>() / p.qualities.len() as f64;
        let p10 = p.qualities[(p.qualities.len().saturating_sub(1)) / 10];
        println!(
            "{:>6.2} {:>8.3} {:>7.3} {:>8} {:>8} {:>9} {:>8} {:>9} {:>9}",
            p.rate,
            mean,
            p10,
            p.failures.total_injected(),
            p.failures.retries_launched,
            p.failures.retries_delivered,
            p.failures.duplicates_suppressed,
            p.failures.censored_observations,
            p.deadline_violations,
        );
    }
    if let (Some(clean), Some(worst)) = (
        points.iter().find(|p| p.rate == 0.0),
        points.iter().max_by(|a, b| a.rate.total_cmp(&b.rate)),
    ) {
        let mean = |p: &RatePoint| p.qualities.iter().sum::<f64>() / p.qualities.len() as f64;
        println!();
        println!(
            "quality drop at rate {:.2}: {:.3} -> {:.3} ({:+.3})",
            worst.rate,
            mean(clean),
            mean(worst),
            mean(worst) - mean(clean),
        );
    }
    Ok(())
}

/// Round-trips the sweep's tree through the wire codec (as a full query
/// request, the way a client would ship it) and materializes the
/// decoded definition.
fn round_trip_tree(def: TreeDef, deadline: f64) -> Result<TreeSpec, String> {
    let mut buf = Vec::new();
    Request::query(def, Some(deadline), None).encode_binary(&mut buf);
    Request::decode_binary(&buf)
        .map_err(|e| format!("decoding request: {e}"))?
        .tree
        .ok_or_else(|| "round-tripped request lost its tree".to_owned())?
        .build()
        .map_err(|e| format!("materializing round-tripped tree: {e:?}"))
}

// ---------------------------------------------------------------------
// kill -9 recovery demo (`chaos --kill-restart true`)

/// How long to wait for a freshly spawned serve child to answer pings.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);

/// A `cedar-cli serve` child process, killed on drop so a failing demo
/// never leaks a listener.
struct ServeChild {
    child: Child,
}

impl ServeChild {
    /// SIGKILL — `Child::kill` on unix — then reap. The point of the
    /// demo: no drain, no final checkpoint, the process just vanishes.
    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        self.kill9();
    }
}

/// The demo's knobs, resolved from flags once.
struct Demo {
    steady: usize,
    window: usize,
    deadline: f64,
    k1: usize,
    k2: usize,
    unit_us: u64,
    refit_interval: usize,
    prior_mu: f64,
    /// The bad prior must be *confident* as well as wrong: a misplaced
    /// location with the true sigma (0.84) still makes the wait scan
    /// hedge toward the deadline knee, landing near the true optimum. A
    /// tight sigma makes the scan trust the bogus location, pick a tiny
    /// wait, and ship before any real leaf has arrived — the cliff.
    prior_sigma: f64,
    seed: u64,
    tolerance: f64,
    require_cliff: f64,
    /// Wait policy for the serve children. Defaults to `offline`
    /// (priors-only waits): the adaptive cedar policy re-arms on every
    /// arrival and largely *recovers from* bad priors within a single
    /// query — the paper's robustness result — which would mask the
    /// very cliff this demo exists to measure. The offline policy's
    /// waits come entirely from the learned priors, so the quality gap
    /// between a warm and a cold boot is exactly the value of the
    /// checkpointed state.
    policy: String,
}

/// The query tree the demo's clients send: the *true* FB-MR replay
/// shape. The serve child starts from `--prior-mu` instead of the true
/// location, so quality starts on the floor and climbs as refits learn.
fn demo_tree(k1: usize, k2: usize) -> TreeDef {
    TreeDef {
        stages: vec![
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: FACEBOOK_MAP_REPLAY.0,
                    sigma: FACEBOOK_MAP_REPLAY.1,
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
    }
}

/// Reserves a distinct free localhost port.
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .expect("bind port 0")
        .local_addr()
        .expect("local addr")
        .port()
}

/// Spawns a real `cedar-cli serve` child (this same binary re-invoked)
/// with the demo's workload knobs and an optional checkpoint directory.
fn spawn_serve(demo: &Demo, addr: &str, checkpoint_dir: &Path) -> Result<ServeChild, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let child = Command::new(exe)
        .args(["serve", "--addr", addr])
        .args(["--deadline", &demo.deadline.to_string()])
        .args(["--k1", &demo.k1.to_string()])
        .args(["--k2", &demo.k2.to_string()])
        .args(["--unit-us", &demo.unit_us.to_string()])
        .args(["--refit-interval", &demo.refit_interval.to_string()])
        .args(["--prior-mu", &demo.prior_mu.to_string()])
        .args(["--prior-sigma", &demo.prior_sigma.to_string()])
        .args(["--policy", &demo.policy])
        .arg("--checkpoint-dir")
        .arg(checkpoint_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning serve child: {e}"))?;
    Ok(ServeChild { child })
}

/// Polls until the child answers a ping (or exits / times out).
fn wait_ready(serve: &mut ServeChild, addr: &str) -> Result<(), String> {
    let ready_by = Instant::now() + BOOT_TIMEOUT;
    loop {
        if let Ok(Some(status)) = serve.child.try_wait() {
            return Err(format!("serve child exited during boot: {status}"));
        }
        if let Ok(mut c) = Client::connect(addr) {
            if c.ping().is_ok_and(|r| r.ok) {
                return Ok(());
            }
        }
        if Instant::now() >= ready_by {
            return Err("serve child never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Drives `n` serial queries (the server's own deadline applies) and
/// returns their qualities, oldest first.
fn drive(addr: &str, tree: &TreeDef, n: usize, seed_base: u64) -> Result<Vec<f64>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let resp = client
            .query(
                tree,
                None,
                Some(seed_base ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            )
            .map_err(|e| format!("query {i}: {e}"))?;
        if !resp.ok {
            return Err(format!("query {i} failed: {:?}", resp.error));
        }
        out.push(resp.result.as_ref().map_or(0.0, |r| r.quality));
    }
    Ok(out)
}

/// Median of a quality sample (nearest rank).
fn p50(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// The kill -9 recovery demo; see the USAGE entry. Boots a serve child
/// with deliberately bad priors and a checkpoint directory, lets online
/// refits converge, SIGKILLs it mid-load, restarts it, and compares the
/// first post-restart window to the pre-kill steady state — then boots
/// once more from an empty directory to show the cold-start cliff the
/// checkpoint avoids.
fn cmd_kill_restart(args: &Args) -> Result<(), String> {
    let demo = Demo {
        steady: args.opt_parse("steady", 80)?,
        window: args.opt_parse("window", 20)?,
        deadline: args.opt_parse("deadline", 800.0)?,
        k1: args.opt_parse("k1", 8)?,
        k2: args.opt_parse("k2", 4)?,
        unit_us: args.opt_parse("unit-us", 20)?,
        refit_interval: args.opt_parse("refit-interval", 20)?,
        prior_mu: args.opt_parse("prior-mu", 2.0)?,
        prior_sigma: args.opt_parse("prior-sigma", 0.2)?,
        seed: args.opt_parse("seed", 0xC1A05)?,
        tolerance: args.opt_parse("tolerance", 0.05)?,
        require_cliff: args.opt_parse("require-cliff", 0.0)?,
        policy: args.opt("policy").unwrap_or("offline").to_owned(),
    };
    crate::commands::parse_policy(&demo.policy)?;
    if demo.window == 0 || demo.steady < demo.window {
        return Err("--steady must be at least --window, both positive".into());
    }
    if demo.refit_interval == 0 {
        return Err("--refit-interval must be positive (the demo is about learned state)".into());
    }
    if demo.deadline <= 0.0 || demo.k1 == 0 || demo.k2 == 0 || demo.unit_us == 0 {
        return Err("--deadline, --k1, --k2 and --unit-us must be positive".into());
    }
    if !(0.0..1.0).contains(&demo.tolerance) || !(0.0..1.0).contains(&demo.require_cliff) {
        return Err("--tolerance and --require-cliff must be in [0, 1)".into());
    }
    let dir = match args.opt("dir") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("cedar-kill-restart-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let ckpt_dir = dir.join("ckpt");
    let tree = demo_tree(demo.k1, demo.k2);
    let addr = format!("127.0.0.1:{}", free_port());

    println!(
        "kill -9 recovery demo: {}x{} FB-MR trees, deadline {} model s at {} us/s,\n\
         initial prior LN({}, {}) (true LN({}, {})), refit every {} queries",
        demo.k1,
        demo.k2,
        demo.deadline,
        demo.unit_us,
        demo.prior_mu,
        demo.prior_sigma,
        FACEBOOK_MAP_REPLAY.0,
        FACEBOOK_MAP_REPLAY.1,
        demo.refit_interval,
    );

    // Phase 1: boot with the bad prior and let the refits converge.
    let mut serve = spawn_serve(&demo, &addr, &ckpt_dir)?;
    wait_ready(&mut serve, &addr)?;
    let qualities = drive(&addr, &tree, demo.steady, demo.seed)?;
    let first_p50 = p50(&qualities[..demo.window]);
    let last_p50 = p50(&qualities[demo.steady - demo.window..]);
    println!(
        "steady state reached: first-window p50 {first_p50:.3} -> last-window p50 {last_p50:.3} \
         over {} queries",
        demo.steady
    );
    // The reference window shares its query seeds with the warm and
    // cold windows below, so the three p50s compare identical trees —
    // otherwise a one-quantum (1/(k1*k2)) seed-drift wobble could trip
    // the tolerance gate with the priors perfectly restored.
    let steady_p50 = p50(&drive(&addr, &tree, demo.window, demo.seed ^ 0xFEED)?);

    // Phase 2: SIGKILL mid-load — a background client keeps queries in
    // flight while the process is shot, so the kill lands on a server
    // that is actually working, not one idling between phases.
    let stop = Arc::new(AtomicBool::new(false));
    let background = {
        let addr = addr.clone();
        let tree = tree.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let Ok(mut c) = Client::connect(&addr) else {
                return;
            };
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                if c.query(&tree, None, Some(0xDEAD ^ i)).is_err() {
                    break; // the kill severed the connection — expected
                }
                i += 1;
            }
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    serve.kill9();
    stop.store(true, Ordering::Release);
    let _ = background.join();
    println!("SIGKILL delivered mid-load; no drain, no final checkpoint");

    // Phase 3: restart from the checkpoint and measure the very first
    // window — the one a cold start would flunk.
    let mut serve = spawn_serve(&demo, &addr, &ckpt_dir)?;
    wait_ready(&mut serve, &addr)?;
    let mut probe = Client::connect(&addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let stats = probe
        .stats()
        .map_err(|e| format!("stats after restart: {e}"))?
        .stats
        .ok_or("restarted server answered stats without a body")?;
    if stats.warm_restart != Some(true) {
        return Err(format!(
            "restart was not warm (warm_restart = {:?}); checkpoint lost?",
            stats.warm_restart
        ));
    }
    let restored = stats.completed;
    if restored == 0 || stats.epoch == 0 {
        return Err(format!(
            "warm restart restored nothing: {} completed queries, epoch {}",
            restored, stats.epoch
        ));
    }
    println!(
        "warm restart: epoch {}, {} completed queries and {} refits restored",
        stats.epoch, stats.completed, stats.refits
    );
    let warm_p50 = p50(&drive(&addr, &tree, demo.window, demo.seed ^ 0xFEED)?);
    let stats = probe
        .stats()
        .map_err(|e| format!("stats after warm window: {e}"))?
        .stats
        .ok_or("server answered stats without a body")?;
    if stats.completed < restored + demo.window {
        return Err(format!(
            "accounting does not reconcile: {} restored + {} served > {} total",
            restored, demo.window, stats.completed
        ));
    }
    drop(serve);

    // Phase 4: the control — the same boot from an empty directory, so
    // the first window shows the re-learning cliff the checkpoint skips.
    let mut serve = spawn_serve(&demo, &addr, &dir.join("cold-ckpt"))?;
    wait_ready(&mut serve, &addr)?;
    let cold_p50 = p50(&drive(&addr, &tree, demo.window, demo.seed ^ 0xFEED)?);
    drop(serve);
    if args.opt("dir").is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }

    println!();
    println!(
        "first-window p50 quality after restart ({} queries):",
        demo.window
    );
    println!("  pre-kill steady   {steady_p50:.3}");
    println!(
        "  warm (checkpoint) {warm_p50:.3}  ({:+.1}% vs steady)",
        rel(warm_p50, steady_p50)
    );
    println!(
        "  cold (fresh dir)  {cold_p50:.3}  ({:+.1}% vs steady)",
        rel(cold_p50, steady_p50)
    );

    let floor = steady_p50 * (1.0 - demo.tolerance);
    if warm_p50 < floor {
        return Err(format!(
            "re-learning cliff after warm restart: first-window p50 {warm_p50:.3} fell below \
             {floor:.3} ({}% under the pre-kill steady state)",
            100.0 * demo.tolerance
        ));
    }
    println!(
        "warm restart held within {:.0}% of steady state — no re-learning cliff",
        100.0 * demo.tolerance
    );
    if demo.require_cliff > 0.0 {
        let ceiling = steady_p50 * (1.0 - demo.require_cliff);
        if cold_p50 > ceiling {
            return Err(format!(
                "no cold-start cliff to protect against: cold first-window p50 {cold_p50:.3} \
                 is within {:.0}% of steady {steady_p50:.3} — the demo parameters prove nothing",
                100.0 * demo.require_cliff
            ));
        }
        println!(
            "cold-start cliff demonstrated: {cold_p50:.3} vs steady {steady_p50:.3} \
             (> {:.0}% drop)",
            100.0 * demo.require_cliff
        );
    }
    Ok(())
}

/// Relative delta in percent.
fn rel(now: f64, then: f64) -> f64 {
    if then.abs() <= 1e-12 {
        return 0.0;
    }
    100.0 * (now - then) / then
}

#[cfg(test)]
mod tests {
    use crate::commands::dispatch;

    fn sv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn chaos_validates_flags() {
        assert!(dispatch(&sv(&["chaos", "--queries", "0"])).is_err());
        assert!(dispatch(&sv(&["chaos", "--rates", "0,nope"])).is_err());
        assert!(dispatch(&sv(&["chaos", "--rates", "1.5"])).is_err());
        assert!(dispatch(&sv(&["chaos", "--mode", "meteor", "--queries", "1"])).is_err());
    }

    #[test]
    fn chaos_sweeps_quickly_on_the_paused_clock() {
        // Paused clock: even a multi-rate sweep is wall-instant.
        let argv = sv(&[
            "chaos",
            "--rates",
            "0,0.5",
            "--queries",
            "3",
            "--k1",
            "4",
            "--k2",
            "2",
            "--deadline",
            "30",
        ]);
        dispatch(&argv).unwrap();
    }

    /// Every kill-restart validation must reject *before* any child is
    /// spawned — under `cargo test`, `current_exe` is the test harness,
    /// so these paths are only unit-testable because they bail first.
    #[test]
    fn kill_restart_validates_flags_before_spawning() {
        let kr = |extra: &[&str]| {
            let mut argv = sv(&["chaos", "--kill-restart", "true"]);
            argv.extend(extra.iter().map(|s| (*s).to_owned()));
            dispatch(&argv)
        };
        assert!(kr(&["--window", "0"]).is_err());
        assert!(kr(&["--steady", "5", "--window", "10"]).is_err());
        assert!(kr(&["--refit-interval", "0"]).is_err());
        assert!(kr(&["--deadline", "0"]).is_err());
        assert!(kr(&["--k1", "0"]).is_err());
        assert!(kr(&["--unit-us", "0"]).is_err());
        assert!(kr(&["--tolerance", "1.5"]).is_err());
        assert!(kr(&["--require-cliff", "-0.1"]).is_err());
        assert!(kr(&["--policy", "carrier-pigeon"]).is_err());
        assert!(kr(&["--prior-sigma", "nope"]).is_err());
    }

    #[test]
    fn chaos_modes_all_run() {
        for mode in ["crash", "straggle", "mixed"] {
            let argv = sv(&[
                "chaos",
                "--rates",
                "0.3",
                "--queries",
                "2",
                "--k1",
                "3",
                "--k2",
                "2",
                "--mode",
                mode,
            ]);
            dispatch(&argv).unwrap();
        }
    }
}
