//! `cedar-cli node` and `cedar-cli topology` — run one mesh process,
//! and generate or check topology configs.

use crate::args::Args;
use cedar_mesh::topology::Topology;
use cedar_mesh::NodeOptions;
use cedar_runtime::{CheckpointConfig, FaultPlan};
use cedar_server::proto::{Request, OP_FLIGHT_DUMP};
use cedar_server::Client;
use std::path::PathBuf;

/// Reads a flag that is either inline JSON (starts with `{`) or a path
/// to a JSON file.
pub(crate) fn json_arg(value: &str) -> Result<String, String> {
    if value.trim_start().starts_with('{') {
        Ok(value.to_owned())
    } else {
        std::fs::read_to_string(value).map_err(|e| format!("reading {value}: {e}"))
    }
}

pub(crate) fn load_topology(args: &Args) -> Result<Topology, String> {
    let json = json_arg(args.req("topology")?)?;
    Topology::from_json(&json)
}

/// `cedar-cli node --topology FILE --name NAME [--faults JSON|FILE]
/// [--checkpoint-dir DIR] [--metrics-addr A] [--flight-file FILE]
/// [--flight-capacity N]`: runs one mesh node until a client sends the
/// `shutdown` op.
pub fn cmd_node(args: &Args) -> Result<(), String> {
    let topo = load_topology(args)?;
    let name = args.req("name")?;
    let plan = match args.opt("faults") {
        Some(v) => Some(FaultPlan::from_json(&json_arg(v)?)?),
        None => None,
    };
    let role = topo
        .node(name)
        .ok_or_else(|| format!("node {name:?} is not in the topology"))?
        .role;
    let options = NodeOptions {
        checkpoint: args.opt("checkpoint-dir").map(CheckpointConfig::new),
        metrics_addr: args.opt("metrics-addr").map(str::to_owned),
        flight_file: args.opt("flight-file").map(PathBuf::from),
        flight_capacity: args.opt_parse("flight-capacity", 0)?,
    };
    let flight_file = options.flight_file.clone();
    let handle = cedar_mesh::start_with(topo, name, plan, options)
        .map_err(|e| format!("starting {name}: {e}"))?;
    // No signals in this toolchain, so the SIGUSR1 stand-in for "dump
    // the ring before dying" is a process-wide panic hook that asks the
    // node itself (over its own socket) for an operator dump — the node
    // writes the file as a side effect.
    if flight_file.is_some() {
        let addr = handle.local_addr();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Ok(mut c) = Client::connect(addr) {
                let _ = c.request(&Request {
                    op: OP_FLIGHT_DUMP.to_owned(),
                    tree: None,
                    deadline: None,
                    seed: None,
                    explain: None,
                });
            }
            prev(info);
        }));
    }
    println!(
        "node {name} ({}) listening on {} — send the shutdown op to stop",
        role.as_str(),
        handle.local_addr()
    );
    if let Some(learner) = handle.learner() {
        crate::service_cmds::print_restore(learner.warm_restart(), learner.cold_start_reason());
    }
    if let Some(addr) = handle.metrics_addr() {
        println!("  metrics: http://{addr}/metrics");
    }
    handle.join();
    println!("node {name} stopped");
    Ok(())
}

/// `cedar-cli topology`: with `--check FILE`, validates a config and
/// prints its shape; otherwise generates a regular topology from
/// `--aggs/--workers/--processes` and prints it as JSON.
pub fn cmd_topology(args: &Args) -> Result<(), String> {
    if let Some(path) = args.opt("check") {
        let json = json_arg(path)?;
        let topo = Topology::from_json(&json)?;
        describe(&topo);
        return Ok(());
    }
    let aggs: usize = args.opt_parse("aggs", 2)?;
    let workers: usize = args.opt_parse("workers", 2)?;
    let processes: usize = args.opt_parse("processes", 4)?;
    let replicas: usize = args.opt_parse("replicas", 1)?;
    let host = args.opt("host").unwrap_or("127.0.0.1");
    let base_port: u16 = args.opt_parse("base-port", 7100)?;
    let topo = Topology::regular(aggs, workers, processes, host, base_port, replicas)?;
    println!("{}", topo.to_json());
    Ok(())
}

fn describe(topo: &Topology) {
    let aggs = topo.aggs();
    let workers = topo
        .nodes
        .iter()
        .filter(|n| n.role == cedar_mesh::Role::Worker)
        .count();
    let leaves_per_agg = aggs.first().map_or(0, |a| topo.leaves_under(a));
    println!(
        "topology ok: {} nodes, hash {:#018x}",
        topo.nodes.len(),
        topo.hash()
    );
    println!("  root:            {}", topo.root().name);
    println!("  aggregators:     {}", aggs.len());
    println!("  workers:         {workers}");
    println!("  leaves per agg:  {leaves_per_agg} (tree stage-0 fanout)");
    for (i, group) in topo.replica_groups().iter().enumerate() {
        println!(
            "  replica {i}:       [{}] (tree stage-1 fanout {})",
            group.join(", "),
            group.len()
        );
    }
    println!(
        "  timing:          {}us/unit, heartbeat {}ms, miss limit {}",
        topo.scale().to_wall(1.0).as_micros(),
        topo.heartbeat().as_millis(),
        topo.miss_limit()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn topology_generates_and_checks_itself() {
        let dir = std::env::temp_dir().join("cedar-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let topo = Topology::regular(2, 2, 4, "127.0.0.1", 7200, 2).unwrap();
        let path = dir.join("topo.json");
        std::fs::write(&path, topo.to_json()).unwrap();
        let args = Args::parse(&sv(&["--check", path.to_str().unwrap()])).unwrap();
        assert!(cmd_topology(&args).is_ok());
    }

    #[test]
    fn topology_check_rejects_invalid_configs() {
        let args = Args::parse(&sv(&["--check", r#"{"nodes": []}"#])).unwrap();
        assert!(cmd_topology(&args).is_err());
    }

    #[test]
    fn node_refuses_unknown_names() {
        let topo = Topology::regular(1, 1, 2, "127.0.0.1", 0, 1).unwrap();
        let args_src = vec![
            "--topology".to_owned(),
            topo.to_json(),
            "--name".to_owned(),
            "nonesuch".to_owned(),
        ];
        let args = Args::parse(&args_src).unwrap();
        assert!(cmd_node(&args).is_err());
    }
}
