//! The `explain` subcommand: run one (optionally chaos-seeded) query
//! with the decision trace enabled and render its Pseudocode-1 timeline
//! — every arrival, estimate, timer re-arm, fault, retry and departure,
//! down to the final ship reason.
//!
//! Like `chaos`, it runs on a paused current-thread runtime, so the
//! timeline's timestamps are exact model time and the whole command is
//! a pure function of its flags. Before printing the summary the
//! command cross-checks the trace against the engine's own accounting
//! and fails loudly on any divergence.

use crate::args::Args;
use cedar_core::policy::WaitPolicyKind;
use cedar_core::units::Millis;
use cedar_core::{StageSpec, TreeSpec};
use cedar_distrib::spec::DistSpec;
use cedar_distrib::LogNormal;
use cedar_mesh::{NodeHandle, Role};
use cedar_runtime::{run_query, FaultPlan, FaultSpec, RuntimeConfig};
use cedar_server::Client;
use cedar_telemetry::{QueryTrace, TraceEventKind};
use cedar_workloads::treedef::{StageDef, TreeDef};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Straggler slow-down factor used by `--mode straggle`.
const STRAGGLE_FACTOR: f64 = 4.0;

/// Traces one query and renders the timeline; see the USAGE entry.
/// With `--topology`, boots the whole mesh in-process instead and
/// renders the stitched cross-process timeline.
pub fn cmd_explain(args: &Args) -> Result<(), String> {
    if args.opt("topology").is_some() {
        return cmd_explain_topology(args);
    }
    let deadline: f64 = args.opt_parse("deadline", 40.0)?;
    let k1: usize = args.opt_parse("k1", 8)?;
    let k2: usize = args.opt_parse("k2", 4)?;
    let seed: u64 = args.opt_parse("seed", 7)?;
    let rate: f64 = args.opt_parse("fault-rate", 0.0)?;
    let mode = args.opt("mode").unwrap_or("mixed");
    if deadline <= 0.0 || k1 == 0 || k2 == 0 {
        return Err("--deadline, --k1 and --k2 must be positive".into());
    }
    if !(0.0..=1.0).contains(&rate) {
        return Err("--fault-rate must be within [0, 1]".into());
    }
    let spec = fault_spec(mode, rate)?;

    let tree = TreeSpec::two_level(
        StageSpec::new(LogNormal::new(1.0, 0.6).expect("valid params"), k1),
        StageSpec::new(LogNormal::new(1.0, 0.4).expect("valid params"), k2),
    );
    let trace = Arc::new(QueryTrace::new());
    let mut cfg = RuntimeConfig::new(tree, deadline)
        .with_seed(seed)
        .with_trace(trace.clone());
    if rate > 0.0 {
        cfg = cfg.with_faults(FaultPlan::new(seed ^ 0xC1A05, spec));
    }

    let rt = tokio::runtime::Builder::new_current_thread()
        .start_paused(true)
        .build()
        .map_err(|e| format!("building runtime: {e}"))?;
    let out = rt.block_on(run_query(&cfg, WaitPolicyKind::Cedar));

    let report = trace.report();
    println!(
        "query: {k1}x{k2} tree ({} processes), deadline {deadline} model units, \
         seed {seed}, fault rate {rate} ({mode})",
        out.total_processes
    );
    println!();
    println!("{}", report.render_timeline());

    // The trace is only worth reading if it agrees with the engine's own
    // accounting — cross-check before summarizing.
    let end = report.events.last().map(|e| &e.kind);
    let Some(TraceEventKind::QueryEnd {
        quality, included, ..
    }) = end
    else {
        return Err("trace did not end with a query end event".into());
    };
    if *quality != out.quality || *included != out.included_outputs {
        return Err(format!(
            "trace end (quality {quality}, {included} outputs) disagrees with the \
             outcome (quality {}, {} outputs)",
            out.quality, out.included_outputs
        ));
    }
    if out.failures != report.summary.failures {
        return Err(format!(
            "trace counters {:?} disagree with the failure report {:?}",
            report.summary, out.failures
        ));
    }

    println!();
    println!(
        "outcome: quality {:.3} ({} of {} outputs), {} root arrivals",
        out.quality, out.included_outputs, out.total_processes, out.root_arrivals
    );
    let f = &out.failures;
    if f.total_injected() > 0 {
        println!(
            "faults:  {} injected ({} crash, {} hang, {} straggle, {} drop, {} dup); \
             {} retries launched, {} delivered; {} duplicates suppressed; {} censored",
            f.total_injected(),
            f.crashed,
            f.hung,
            f.straggled,
            f.dropped,
            f.duplicated,
            f.retries_launched,
            f.retries_delivered,
            f.duplicates_suppressed,
            f.censored_observations,
        );
    }
    println!(
        "trace:   {} events verified against the engine's accounting",
        report.events.len()
    );
    Ok(())
}

/// Builds the fault spec shared by both explain modes.
fn fault_spec(mode: &str, rate: f64) -> Result<FaultSpec, String> {
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
}

/// `cedar-cli explain --topology FILE`: boots every node of the
/// topology in this process, runs one explain-flagged query through the
/// root, and renders (a) the root's and every aggregator's decision
/// timeline and (b) the stitched cross-process trace with per-hop wire
/// spans — then runs the same tree through the in-process engine at the
/// same time scale to put a number on what the wire costs.
fn cmd_explain_topology(args: &Args) -> Result<(), String> {
    let topo = crate::node_cmd::load_topology(args)?;
    let deadline: f64 = args.opt_parse("deadline", 400.0)?;
    let seed: u64 = args.opt_parse("seed", 7)?;
    let rate: f64 = args.opt_parse("fault-rate", 0.0)?;
    let mode = args.opt("mode").unwrap_or("mixed");
    if deadline <= 0.0 {
        return Err("--deadline must be positive".into());
    }
    if !(0.0..=1.0).contains(&rate) {
        return Err("--fault-rate must be within [0, 1]".into());
    }
    let plan = if rate > 0.0 {
        Some(FaultPlan::new(seed ^ 0xC1A05, fault_spec(mode, rate)?))
    } else {
        None
    };

    // The query tree's fan-outs come from the topology's shape; the
    // stage distributions are the same defaults the single-process
    // explain uses.
    let aggs = topo.aggs();
    let first_agg = aggs.first().ok_or("topology has no aggregators")?;
    let k1 = topo.leaves_under(first_agg);
    let k2 = topo.replica_groups().first().map_or(aggs.len(), Vec::len);
    if k1 == 0 || k2 == 0 {
        return Err("topology has no leaves to aggregate".into());
    }
    let def = TreeDef {
        stages: vec![
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 2.0,
                    sigma: 0.5,
                },
                fanout: k1,
            },
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 1.0,
                    sigma: 0.3,
                },
                fanout: k2,
            },
        ],
    };

    // Boot bottom-up so every parent finds its children listening.
    let mut handles: Vec<NodeHandle> = Vec::new();
    for role in [Role::Worker, Role::Agg, Role::Root] {
        for node in &topo.nodes {
            if node.role == role {
                let p = if role == Role::Root {
                    plan.clone()
                } else {
                    None
                };
                match cedar_mesh::start(topo.clone(), &node.name, p) {
                    Ok(h) => handles.push(h),
                    Err(e) => {
                        shutdown_all(handles);
                        return Err(format!("starting {}: {e}", node.name));
                    }
                }
            }
        }
    }
    let ready_by = Instant::now() + Duration::from_secs(10);
    while handles.iter().any(|h| h.peers_up() < h.peers_total()) {
        if Instant::now() >= ready_by {
            shutdown_all(handles);
            return Err("mesh never became ready (links still down after 10s)".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    println!(
        "mesh up: {} node(s), querying the root at {}",
        topo.nodes.len(),
        topo.root().addr
    );

    let run = || -> Result<(cedar_server::proto::Response, Duration), String> {
        let mut client =
            Client::connect(&topo.root().addr).map_err(|e| format!("connecting to root: {e}"))?;
        let start = Instant::now();
        let resp = client
            .query_explain(&def, Some(deadline), Some(seed))
            .map_err(|e| format!("querying the root: {e}"))?;
        Ok((resp, start.elapsed()))
    };
    let ran = run();
    shutdown_all(handles);
    let (resp, mesh_wall) = ran?;
    if !resp.ok {
        return Err(format!("mesh query failed: {:?}", resp.error));
    }
    let result = resp.result.ok_or("mesh response carried no result")?;
    let report = result.trace.ok_or("mesh response carried no trace")?;
    let mesh = report
        .mesh
        .as_ref()
        .ok_or("trace carried no stitched mesh segment tree")?;

    println!();
    println!("== root decision timeline ==");
    println!("{}", report.render_timeline());
    // Each aggregator ran the same pass loop an in-process one does and
    // shipped its timeline (model time from its own exec receipt).
    for seg in &mesh.root.children {
        if let Some(local) = &seg.report {
            println!("== {} decision timeline ==", seg.node);
            println!("{}", local.render_timeline());
        }
    }
    println!("== stitched cross-process timeline ==");
    println!("{}", mesh.render_tree());

    // The in-process twin: same tree, same deadline, same seed, same
    // time scale — the only thing missing is the wire.
    let spec = def.build().map_err(|e| e.to_string())?;
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()
        .map_err(|e| format!("building runtime: {e}"))?;
    let cfg = RuntimeConfig::new(spec, deadline)
        .with_seed(seed)
        .with_scale(topo.scale());
    let start = Instant::now();
    let local = rt.block_on(run_query(&cfg, WaitPolicyKind::Cedar));
    let local_wall = start.elapsed();

    println!();
    println!(
        "mesh:       quality {:.3} ({} of {} outputs), {:.1} ms wall",
        result.quality,
        result.included_outputs,
        result.total_processes,
        Millis::from_duration(mesh_wall).get()
    );
    println!(
        "in-process: quality {:.3} ({} of {} outputs), {:.1} ms wall",
        local.quality,
        local.included_outputs,
        local.total_processes,
        Millis::from_duration(local_wall).get()
    );
    let overhead = mesh.root.wire_overhead_us();
    let hops = mesh.root.hop_count();
    println!(
        "wire:       {} hop(s), {} µs measured wire time total ({} µs/hop), \
         {:.1} ms mesh-vs-in-process wall delta",
        hops,
        overhead,
        if hops > 0 { overhead / hops as i64 } else { 0 },
        Millis::from_duration(mesh_wall).get() - Millis::from_duration(local_wall).get()
    );
    Ok(())
}

fn shutdown_all(handles: Vec<NodeHandle>) {
    for h in &handles {
        h.stop();
    }
    for h in handles {
        h.join();
    }
}

#[cfg(test)]
mod tests {
    use crate::commands::dispatch;

    fn sv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn explain_validates_flags() {
        assert!(dispatch(&sv(&["explain", "--deadline", "0"])).is_err());
        assert!(dispatch(&sv(&["explain", "--fault-rate", "1.5"])).is_err());
        assert!(dispatch(&sv(&["explain", "--mode", "meteor"])).is_err());
    }

    #[test]
    fn explain_runs_clean() {
        dispatch(&sv(&[
            "explain",
            "--k1",
            "4",
            "--k2",
            "2",
            "--deadline",
            "200",
        ]))
        .unwrap();
    }

    #[test]
    fn explain_runs_chaos_seeded() {
        // The command itself asserts trace/outcome agreement; a clean
        // exit means the cross-check held under faults.
        for mode in ["crash", "straggle", "mixed"] {
            dispatch(&sv(&[
                "explain",
                "--k1",
                "4",
                "--k2",
                "2",
                "--fault-rate",
                "0.4",
                "--mode",
                mode,
                "--seed",
                "11",
            ]))
            .unwrap();
        }
    }
}
