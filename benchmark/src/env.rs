//! The system under test: a real front end started in this process and
//! reached over loopback TCP, plus the clean lifecycle around it.

use crate::stats::status_field;
use crate::workload::{Front, Spec};
use cedar_mesh::topology::{NodeDef, Role, Topology};
use cedar_mesh::NodeHandle;
use cedar_runtime::TimeScale;
use cedar_server::proto::Response;
use cedar_server::{Client, Server, ServerConfig, ServerHandle, WireFormat};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Panics on any thread of the process since start. The server turns a
/// panicking query into a typed error and a mesh thread dies quietly;
/// either way the run must not count as correct.
static PANICS: AtomicUsize = AtomicUsize::new(0);

pub fn install_panic_counter() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::Relaxed);
        default(info);
    }));
}

pub fn panics() -> usize {
    PANICS.load(Ordering::Relaxed)
}

/// Where run artefacts go: span files and the per-layer ledger's
/// scratch directories. Inside the benchmark's own directory, ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Live OS threads of this process.
pub fn thread_count() -> usize {
    status_field("Threads:") as usize
}

/// Server worker threads: the load generator's threads and the
/// server's together stay at the two cores the bounds were set on.
const WORKER_THREADS: usize = 2;
const HEARTBEAT_MS: u64 = 100;
const RARE_REFIT: usize = 1000;
/// Idle time granted to the mesh between the last reply and the stop.
const PASS_TAIL: Duration = Duration::from_millis(50);

enum Nodes {
    Server(ServerHandle),
    Mesh(Vec<NodeHandle>),
}

/// A started front end.
pub struct Env {
    nodes: Nodes,
    /// Where clients connect.
    addr: SocketAddr,
    /// Every listener of the deployment (the scrape and shutdown set).
    listeners: Vec<SocketAddr>,
    threads_before: usize,
}

/// Counters read from the front end's own `stats` and `metrics` ops;
/// a run's per-layer rows are differences of two of these.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub wait_scans: f64,
    pub wait_scan_seconds: f64,
    pub refits: f64,
    pub heartbeats: f64,
}

impl Scrape {
    /// What was counted between `before` and this scrape.
    pub fn since(&self, before: &Scrape) -> Scrape {
        Scrape {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            wait_scans: self.wait_scans - before.wait_scans,
            wait_scan_seconds: self.wait_scan_seconds - before.wait_scan_seconds,
            refits: self.refits - before.refits,
            heartbeats: self.heartbeats - before.heartbeats,
        }
    }
}

/// Sum of every sample of the metric family `name` in Prometheus text.
pub fn metric_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.starts_with(name) && matches!(l.as_bytes().get(name.len()), Some(b' ' | b'{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

fn resolve(addr: &str) -> SocketAddr {
    addr.parse().expect("loopback socket address")
}

/// The 7-node deployment: root, 2 aggregators, 4 workers of 4 leaves.
/// Ports are reserved by binding `:0` and releasing, as the mesh's own
/// tests do.
fn topology(spec: &Spec) -> Topology {
    let ports: Vec<u16> = {
        let held: Vec<TcpListener> = (0..7)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserving a port"))
            .collect();
        held.iter()
            .map(|l| l.local_addr().expect("local addr").port())
            .collect()
    };
    let mut next = ports.iter().map(|p| format!("127.0.0.1:{p}"));
    let mut node = |name: String, role, children: Option<Vec<String>>| NodeDef {
        name,
        role,
        addr: next.next().expect("seven ports"),
        processes: (role == Role::Worker).then_some(spec.k1 / 2),
        children,
        wire: None,
    };
    let aggs: Vec<String> = (0..spec.k2).map(|i| format!("agg{i}")).collect();
    let mut nodes = vec![node("root".into(), Role::Root, Some(aggs.clone()))];
    for (i, agg) in aggs.iter().enumerate() {
        let workers = vec![format!("w{}", 2 * i), format!("w{}", 2 * i + 1)];
        nodes.push(node(agg.clone(), Role::Agg, Some(workers)));
    }
    for w in 0..2 * spec.k2 {
        nodes.push(node(format!("w{w}"), Role::Worker, None));
    }
    Topology {
        unit_us: Some(spec.unit.as_micros() as u64),
        heartbeat_ms: Some(HEARTBEAT_MS),
        miss_limit: Some(3),
        wire: Some(WireFormat::Binary.name().to_owned()),
        replicas: None,
        nodes,
    }
}

impl Env {
    /// Starts the workload's front end and returns once it accepts
    /// queries (for the mesh: every parent-child link handshaken).
    pub fn start(spec: &Spec) -> io::Result<Self> {
        let threads_before = thread_count();
        match spec.front {
            Front::Server => {
                let mut cfg =
                    ServerConfig::facebook_mr_sized("127.0.0.1:0", spec.deadline, spec.k1, spec.k2);
                cfg.service.scale = TimeScale::new(spec.unit);
                cfg.worker_threads = WORKER_THREADS;
                // Near-static priors off the churn workload: all but one
                // query in a thousand hit the context cache, and a run
                // is stationary. (At the default interval of 20 the
                // refit history grows for the first 12 500 queries and
                // each refit costs more than the last; at 0 it is never
                // trimmed and grows without bound.)
                cfg.service.refit_interval = RARE_REFIT;
                if spec.churn {
                    // Checkpointing stays off: with it on, the fsyncs of
                    // `checkpoint::store` alone spread this workload's
                    // timings 10-17 % run to run against 4 % without
                    // (README, Bounds). `runtime.checkpoint_store_us`
                    // keeps the cost in the per-layer ledger.
                    cfg.service.refit_interval = 1;
                    cfg.service.deadline_bucket = 1.0;
                }
                let handle = Server::start(cfg)?;
                let addr = handle.addr();
                Ok(Self {
                    nodes: Nodes::Server(handle),
                    addr,
                    listeners: vec![addr],
                    threads_before,
                })
            }
            Front::Mesh => {
                let topo = topology(spec);
                let mut handles = Vec::new();
                for role in [Role::Worker, Role::Agg, Role::Root] {
                    for node in topo.nodes.iter().filter(|n| n.role == role) {
                        handles.push(cedar_mesh::start(topo.clone(), &node.name, None)?);
                    }
                }
                let ready_by = Instant::now() + Duration::from_secs(10);
                while handles.iter().any(|h| h.peers_up() < h.peers_total()) {
                    if Instant::now() > ready_by {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "mesh links never came up",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(Self {
                    nodes: Nodes::Mesh(handles),
                    addr: resolve(&topo.root().addr),
                    listeners: topo.nodes.iter().map(|n| resolve(&n.addr)).collect(),
                    threads_before,
                })
            }
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A persistent binary-wire client connection to the front end.
    pub fn client(&self) -> io::Result<Client> {
        Client::connect_with(self.addr, WireFormat::Binary)
    }

    /// Reads the deployment's counters over fresh connections.
    pub fn scrape(&self) -> io::Result<Scrape> {
        let mut s = Scrape::default();
        for (i, addr) in self.listeners.iter().enumerate() {
            let mut client = Client::connect_with(addr, WireFormat::Binary)?;
            let text = expect_ok(client.metrics()?)?.metrics.unwrap_or_default();
            s.wait_scans += metric_sum(&text, "cedar_wait_scan_seconds_count");
            s.wait_scan_seconds += metric_sum(&text, "cedar_wait_scan_seconds_sum");
            s.refits += metric_sum(&text, "cedar_refits_total");
            s.heartbeats += metric_sum(&text, "cedar_mesh_heartbeats_sent_total");
            if i == 0 {
                if let Some(stats) = expect_ok(client.stats()?)?.stats {
                    s.cache_hits = stats.cache_hits as f64;
                    s.cache_misses = stats.cache_misses as f64;
                }
            }
        }
        Ok(s)
    }

    /// Stops and joins every node and verifies nothing is left behind:
    /// no listener accepts and the thread count is back where it was. Callers drop
    /// their client connections first. Returns what was left, if
    /// anything.
    pub fn shutdown(self) -> Result<(), String> {
        let mut problems = Vec::new();
        match self.nodes {
            Nodes::Server(handle) => {
                if let Err(e) = handle.shutdown() {
                    problems.push(format!("server shutdown: {e}"));
                }
            }
            Nodes::Mesh(handles) => {
                // An aggregation pass still holds its node, and with it
                // the node's async runtime, for a moment after its
                // partial has gone upstream and the client has its
                // reply. Were the handle dropped first, the pass would
                // drop the runtime on the runtime's own worker thread,
                // which panics (`failed to join thread`; see Findings).
                // Let the tails end.
                std::thread::sleep(PASS_TAIL);
                // Root first, so nothing is dispatched into a stopping
                // subtree; then wait for each accept loop.
                for h in handles.iter().rev() {
                    h.stop();
                }
                for h in handles {
                    h.join();
                }
            }
        }
        // Connection, link and heartbeat threads are detached by the
        // mesh; they end within one heartbeat of the stop.
        let settle_by = Instant::now() + Duration::from_secs(5);
        while thread_count() > self.threads_before && Instant::now() < settle_by {
            std::thread::sleep(Duration::from_millis(2));
        }
        let threads = thread_count();
        if threads > self.threads_before {
            problems.push(format!(
                "{} thread(s) still running after shutdown",
                threads - self.threads_before
            ));
        }
        for addr in &self.listeners {
            if TcpStream::connect_timeout(addr, Duration::from_millis(200)).is_ok() {
                problems.push(format!("{addr} still accepts connections"));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

/// Turns an error response into an `io::Error`.
pub fn expect_ok(resp: Response) -> io::Result<Response> {
    if resp.ok {
        Ok(resp)
    } else {
        Err(io::Error::other(format!(
            "{}: {}",
            resp.code.as_deref().unwrap_or("error"),
            resp.error.as_deref().unwrap_or("")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_sum_adds_labelled_and_bare_samples_of_one_family() {
        let text = "# HELP cedar_refits_total x\n\
                    cedar_refits_total 3\n\
                    cedar_refits_total_extra 100\n\
                    cedar_mesh_heartbeats_sent_total{peer=\"a\"} 4\n\
                    cedar_mesh_heartbeats_sent_total{peer=\"b\"} 5\n";
        assert_eq!(metric_sum(text, "cedar_refits_total"), 3.0);
        assert_eq!(metric_sum(text, "cedar_mesh_heartbeats_sent_total"), 9.0);
        assert_eq!(metric_sum(text, "absent"), 0.0);
    }
}
