//! Subcommand implementations.

use crate::args::Args;
use cedar_core::policy::WaitPolicyKind;
use cedar_core::profile::{deadline_for_quality, tree_decision, ProfileConfig};
use cedar_core::TreeSpec;
use cedar_sim::{mean_quality, run_trials, SimConfig};
use cedar_workloads::treedef::TreeDef;

/// Help text.
pub const USAGE: &str = "\
cedar-cli — aggregation queries under performance variations

USAGE:
  cedar-cli template
      Print an example tree definition (JSON) to stdout.
  cedar-cli optimize --tree FILE --deadline D
      Optimal bottom-aggregator wait and expected quality q_n(D).
  cedar-cli simulate --tree FILE --deadline D [--policy P] [--trials N] [--seed S]
      Simulate queries; P in {cedar, ideal, prop, equal, subtract, offline, fixed:W}.
  cedar-cli dual --tree FILE --quality Q [--horizon H]
      Minimum deadline at which an optimally-run tree reaches quality Q.
  cedar-cli fit --data FILE
      Fit distribution families to newline-separated duration samples.
  cedar-cli trace-gen --jobs N --out FILE [--seed S]
      Generate a synthetic Facebook-shaped job trace (JSON lines).
  cedar-cli serve [--addr A] [--deadline D] [--k1 N] [--k2 N] [--unit-us U]
                  [--refit-interval N] [--max-inflight N] [--max-queued N]
                  [--queue-timeout-ms MS] [--workers N]
                  [--idle-timeout-ms MS] [--drain-deadline-ms MS]
                  [--query-timeout-ms MS] [--metrics-addr A]
                  [--checkpoint-dir DIR] [--prior-mu MU] [--prior-sigma S]
                  [--spill-dir DIR] [--spill-max-entries N]
                  [--spill-max-disk-bytes B] [--spill-replay-timeout-ms MS]
                  [--flight-file FILE]
      Run a network-facing FB-MR aggregation service until a client
      sends the shutdown op. Idle connections are reaped after the idle
      timeout; graceful shutdown detaches stragglers past the drain
      deadline; 0 disables the per-query execution cap. --metrics-addr
      additionally serves Prometheus text over plain HTTP GET.
      --checkpoint-dir persists the learned priors (and the statistics
      behind them) on every refit epoch and on graceful shutdown, and
      warm-restarts from the newest valid checkpoint on boot — a corrupt
      or missing file degrades to a cold start, never a crash.
      --prior-mu/--prior-sigma override the initial bottom-stage prior
      (for warm-vs-cold restart experiments). --spill-dir arms a bounded
      disk-backed overflow behind the admission queue: bursts past the
      in-memory queue spill encoded frames to a segment file and replay
      FIFO as slots free; past the disk bound they shed as queue_full.
  cedar-cli health --addr A [--fail-on-degraded BOOL]
      Probe a running server's elasticity state (ok|degraded|overloaded)
      plus queue/spill depths, priors epoch and age, checkpoint age and
      warm-restart flag. With --fail-on-degraded true, exits non-zero
      unless the state is ok — a scriptable readiness gate.
  cedar-cli loadgen --addr A [--qps Q] [--queries N] [--deadline D]
                    [--k1 N] [--k2 N] [--seed S] [--stop-server BOOL]
                    [--save-baseline FILE] [--compare-baseline FILE]
                    [--fail-threshold F]
      Open-loop Poisson load against a running service; reports achieved
      QPS, quality distribution and latency percentiles, and scrapes the
      server's metrics mid-run on a dedicated connection. A baseline
      file stores the percentile summary as JSON; comparing prints
      p50/p95/p99 deltas against it and exits non-zero when any
      latency percentile rises (or quality falls) by more than F
      (default 0.10) relative to the baseline — the CI gate. Errors are
      counted per class (using the typed response codes) and excluded
      from the percentiles.
  cedar-cli chaos [--rates R1,R2,..] [--mode crash|straggle|mixed]
                  [--queries N] [--deadline D] [--k1 N] [--k2 N] [--seed S]
      Sweep injected failure rates against the cedar policy on a paused
      clock; per rate, reports mean/p10 quality, injected/recovered fault
      counts and deadline violations. The sweep's query tree is
      round-tripped through the wire codec before it runs.
  cedar-cli chaos --kill-restart true [--steady N] [--window N]
                  [--deadline D] [--k1 N] [--k2 N] [--unit-us U]
                  [--refit-interval N] [--prior-mu MU] [--prior-sigma S]
                  [--policy P] [--seed S] [--tolerance F]
                  [--require-cliff F] [--dir DIR]
      kill -9 recovery demo: boots a real `serve` child with a bad
      initial prior (a confidently-wrong LN(2, 0.2) by default) and a
      checkpoint dir, drives load until the refits converge, SIGKILLs
      the process mid-load, restarts it from the checkpoint and
      measures the first post-restart window against a steady-state
      reference window driven with the same query seeds — then repeats
      the boot cold (fresh dir) to show the re-learning cliff the
      checkpoint avoids. --policy defaults to offline (priors-only
      waits); the adaptive cedar policy recovers from bad priors within
      a single query and would mask the cliff. Exits non-zero if the
      warm first-window p50 quality falls more than F (default 0.05)
      below the reference, if accounting fails to reconcile, or — with
      --require-cliff F — if the cold boot does NOT drop at least that
      fraction below steady (proof the checkpoint protects something).
  cedar-cli explain [--deadline D] [--k1 N] [--k2 N] [--seed S]
                    [--fault-rate R] [--mode crash|straggle|mixed]
      Run one (optionally chaos-seeded) query with the decision trace on
      and print its per-arrival timeline: initial waits, estimates,
      timer re-arms with gain/loss at the chosen wait, faults, retries,
      departures and the final ship reason. The timeline's counters are
      verified against the engine's own failure accounting.
  cedar-cli explain --topology FILE [--deadline D] [--seed S]
                    [--fault-rate R] [--mode crash|straggle|mixed]
      Boot every node of the topology in this process, run one
      explain-flagged query through the root, and print the stitched
      cross-process timeline: every node's receive/ship stamps on the
      root's clock (offsets estimated from heartbeat RTTs), per-hop
      encode/decode/queue spans and wire times, censored hops marked.
      Finishes with a mesh-vs-in-process wall-clock and wire-overhead
      comparison of the same tree at the same time scale.
  cedar-cli flightrec (--file FILE | --addr A)
      Render a flight-recorder dump: the fixed-size ring of recent
      per-query summaries every server and mesh node keeps. --file reads
      a CRC-guarded dump written on panic, the first degrade transition,
      graceful shutdown, or an operator request; --addr asks a running
      process for its ring live via the flight_dump op.
  cedar-cli node --topology FILE --name NAME [--faults JSON|FILE]
                 [--checkpoint-dir DIR] [--metrics-addr A]
                 [--flight-file FILE] [--flight-capacity N]
      Run one mesh process (root, aggregator, or worker — the role
      comes from the topology) until a client sends the shutdown op.
      --faults installs a fault-injection plan on the root; it travels
      to every node inside each query's exec frame. --checkpoint-dir
      makes an aggregator persist its learned leaf-duration priors and
      warm-restart from them (it prints the same warm restart / cold
      start line as serve; stats then reports epoch/refits/ages).
      --metrics-addr serves the node's Prometheus page over plain HTTP
      GET; the root additionally answers the metrics_federated op with
      every node's page merged under node=\"...\" labels. --flight-file
      arms on-disk flight-recorder dumps (see flightrec).
  cedar-cli topology [--aggs N] [--workers N] [--processes N]
                     [--replicas R] [--host H] [--base-port P]
                     [--check FILE]
      Generate a regular 3-level topology config (JSON on stdout), or
      with --check validate an existing config and print its shape.
";

/// Entry point: routes `argv` to a subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        return Err("no subcommand given".into());
    };
    let args = Args::parse(&argv[1..])?;
    match cmd.as_str() {
        "template" => {
            cmd_template();
            Ok(())
        }
        "optimize" => cmd_optimize(&args),
        "simulate" => cmd_simulate(&args),
        "dual" => cmd_dual(&args),
        "fit" => cmd_fit(&args),
        "trace-gen" => cmd_trace_gen(&args),
        "serve" => crate::service_cmds::cmd_serve(&args),
        "loadgen" => crate::service_cmds::cmd_loadgen(&args),
        "health" => crate::service_cmds::cmd_health(&args),
        "chaos" => crate::chaos_cmd::cmd_chaos(&args),
        "explain" => crate::explain_cmd::cmd_explain(&args),
        "flightrec" => crate::flight_cmd::cmd_flightrec(&args),
        "node" => crate::node_cmd::cmd_node(&args),
        "topology" => crate::node_cmd::cmd_topology(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn load_tree(args: &Args) -> Result<TreeSpec, String> {
    let path = args.req("tree")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let def = TreeDef::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    def.build().map_err(|e| e.to_string())
}

pub(crate) fn parse_policy(s: &str) -> Result<WaitPolicyKind, String> {
    Ok(match s {
        "cedar" => WaitPolicyKind::Cedar,
        "ideal" => WaitPolicyKind::Ideal,
        "prop" | "proportional" => WaitPolicyKind::ProportionalSplit,
        "equal" => WaitPolicyKind::EqualSplit,
        "subtract" => WaitPolicyKind::SubtractUpper,
        "offline" => WaitPolicyKind::CedarOffline,
        other => {
            if let Some(w) = other.strip_prefix("fixed:") {
                let w: f64 = w
                    .parse()
                    .map_err(|_| format!("bad fixed wait in '{other}'"))?;
                WaitPolicyKind::FixedWait(w)
            } else {
                return Err(format!(
                    "unknown policy '{other}' (try cedar, ideal, prop, equal, subtract, offline, fixed:W)"
                ));
            }
        }
    })
}

fn cmd_template() {
    println!("{}", TreeDef::example().to_json());
}

fn cmd_optimize(args: &Args) -> Result<(), String> {
    let tree = load_tree(args)?;
    let deadline: f64 = args.req_parse("deadline")?;
    if deadline.is_nan() || deadline <= 0.0 {
        return Err("--deadline must be positive".into());
    }
    let dec = tree_decision(&tree, deadline, &ProfileConfig::default());
    println!(
        "tree: {} levels, {} processes",
        tree.levels(),
        tree.total_processes()
    );
    println!("deadline:          {deadline}");
    println!("optimal wait:      {:.4}", dec.wait);
    println!("expected quality:  {:.4}", dec.quality);
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let tree = load_tree(args)?;
    let deadline: f64 = args.req_parse("deadline")?;
    let trials: usize = args.opt_parse("trials", 20)?;
    let seed: u64 = args.opt_parse("seed", 0xCEDA2)?;
    let policy = parse_policy(args.opt("policy").unwrap_or("cedar"))?;
    if trials == 0 {
        return Err("--trials must be positive".into());
    }
    let cfg = SimConfig::new(tree, deadline).with_seed(seed);
    let outcomes = run_trials(&cfg, policy, trials);
    let mean = mean_quality(&outcomes);
    let min = outcomes
        .iter()
        .map(|o| o.quality)
        .fold(f64::INFINITY, f64::min);
    let max = outcomes.iter().map(|o| o.quality).fold(0.0f64, f64::max);
    println!("policy:        {}", policy.name());
    println!("trials:        {trials}");
    println!("mean quality:  {mean:.4}");
    println!("min/max:       {min:.4} / {max:.4}");
    println!(
        "mean outputs:  {:.0} of {}",
        outcomes.iter().map(|o| o.included_outputs).sum::<usize>() as f64 / trials as f64,
        outcomes[0].total_processes
    );
    Ok(())
}

fn cmd_dual(args: &Args) -> Result<(), String> {
    let tree = load_tree(args)?;
    let quality: f64 = args.req_parse("quality")?;
    if !(0.0..1.0).contains(&quality) {
        return Err("--quality must be in [0, 1)".into());
    }
    // Default horizon: generous multiple of the stage scale.
    let default_horizon = 100.0 * tree.total_mean().max(1.0);
    let horizon: f64 = args.opt_parse("horizon", default_horizon)?;
    match deadline_for_quality(&tree, quality, horizon, &ProfileConfig::default()) {
        Some(d) => {
            println!("target quality:    {quality}");
            println!("minimum deadline:  {d:.4}");
            Ok(())
        }
        None => Err(format!(
            "quality {quality} is unreachable within horizon {horizon}"
        )),
    }
}

fn cmd_fit(args: &Args) -> Result<(), String> {
    let path = args.req("data")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let samples: Vec<f64> = text
        .split_whitespace()
        .map(|t| t.parse::<f64>().map_err(|_| format!("bad number '{t}'")))
        .collect::<Result<_, _>>()?;
    if samples.len() < 10 {
        return Err("need at least 10 samples to fit".into());
    }
    let emp = cedar_distrib::Empirical::from_samples(samples.clone()).map_err(|e| e.to_string())?;
    let pts = cedar_distrib::fit::percentiles_of(&emp, &cedar_distrib::fit::STANDARD_LEVELS);
    let report = cedar_distrib::fit::fit_best(&pts, &[]).map_err(|e| e.to_string())?;
    println!("{} samples from {path}", samples.len());
    println!(
        "{:<14} {:>14} {:>14} {:>12}",
        "family", "mean rel err", "max rel err", "KS p-value"
    );
    for fit in &report.fits {
        use cedar_distrib::ContinuousDist;
        let d = cedar_mathx::ks::ks_statistic(&samples, |x| fit.dist.cdf(x));
        let p = cedar_mathx::ks::ks_pvalue(d, samples.len());
        println!(
            "{:<14} {:>13.2}% {:>13.2}% {:>12.4}",
            fit.family.to_string(),
            100.0 * fit.mean_rel_error,
            100.0 * fit.max_rel_error,
            p
        );
    }
    Ok(())
}

fn cmd_trace_gen(args: &Args) -> Result<(), String> {
    let jobs: usize = args.req_parse("jobs")?;
    let out = args.req("out")?;
    let seed: u64 = args.opt_parse("seed", 1)?;
    let generator = cedar_workloads::TraceGenerator::facebook_shaped();
    let trace = generator.generate(jobs, seed);
    cedar_workloads::traceio::write_trace(out, &trace).map_err(|e| e.to_string())?;
    println!("wrote {jobs} jobs to {out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    /// A scratch path named `name` that no other test writes, in this
    /// run or a concurrent one: tests run in parallel, and a shared file
    /// can be read while another test rewrites or removes it.
    fn scratch_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cedar-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    /// The example tree, written to `test`'s own file.
    fn tree_file(test: &str) -> std::path::PathBuf {
        let path = scratch_path(&format!("{test}.tree.json"));
        std::fs::write(&path, TreeDef::example().to_json()).unwrap();
        path
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(parse_policy("cedar").unwrap(), WaitPolicyKind::Cedar);
        assert_eq!(
            parse_policy("prop").unwrap(),
            WaitPolicyKind::ProportionalSplit
        );
        assert_eq!(
            parse_policy("fixed:12.5").unwrap(),
            WaitPolicyKind::FixedWait(12.5)
        );
        assert!(parse_policy("bogus").is_err());
        assert!(parse_policy("fixed:abc").is_err());
    }

    #[test]
    fn dispatch_rejects_unknown_and_empty() {
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&sv(&["frobnicate"])).is_err());
    }

    #[test]
    fn template_and_optimize_run() {
        assert!(dispatch(&sv(&["template"])).is_ok());
        let path = tree_file("template_and_optimize_run");
        let argv = sv(&[
            "optimize",
            "--tree",
            path.to_str().unwrap(),
            "--deadline",
            "200",
        ]);
        assert!(dispatch(&argv).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_runs_small() {
        let path = tree_file("simulate_runs_small");
        let argv = sv(&[
            "simulate",
            "--tree",
            path.to_str().unwrap(),
            "--deadline",
            "100",
            "--policy",
            "prop",
            "--trials",
            "2",
        ]);
        assert!(dispatch(&argv).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dual_runs_and_validates() {
        let path = tree_file("dual_runs_and_validates");
        let ok = sv(&["dual", "--tree", path.to_str().unwrap(), "--quality", "0.5"]);
        assert!(dispatch(&ok).is_ok());
        let bad = sv(&["dual", "--tree", path.to_str().unwrap(), "--quality", "1.5"]);
        assert!(dispatch(&bad).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fit_runs_on_generated_data() {
        use cedar_distrib::ContinuousDist;
        use rand::SeedableRng;
        let path = scratch_path("durations.txt");
        let d = cedar_distrib::LogNormal::new(2.0, 0.7).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let samples = d.sample_vec(&mut rng, 500);
        use std::fmt::Write;
        let mut text = String::new();
        for x in &samples {
            let _ = writeln!(text, "{x}");
        }
        std::fs::write(&path, text).unwrap();
        let argv = sv(&["fit", "--data", path.to_str().unwrap()]);
        assert!(dispatch(&argv).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_gen_writes_file() {
        let path = scratch_path("trace.jsonl");
        let argv = sv(&["trace-gen", "--jobs", "2", "--out", path.to_str().unwrap()]);
        assert!(dispatch(&argv).is_ok());
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }
}
