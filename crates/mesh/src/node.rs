//! The mesh node: one process playing root, aggregator, or worker.
//!
//! Every node serves through the server's connection layer
//! ([`cedar_server::frontend`]) as a [`Handler`] for both frame families
//! on its one listener: client [`Request`]s (ping/metrics/stats/shutdown
//! everywhere, query on the root) and inter-node [`MeshMsg`]s. Mesh ops
//! are disjoint from client ops, so the dispatch is unambiguous.
//!
//! Data flow for one query, mirroring the in-process engine. Every node
//! runs its per-query work as tasks on its one async runtime, so one
//! scheduler and one clock time a query end to end:
//!
//! 1. The **root** assigns a query id, routes the query to one replica
//!    set by consistent hash of its seed, fans `exec` frames out to that
//!    replica's aggregators, and gathers their `partial`s with the
//!    engine root's own terminal loop ([`cedar_runtime::gather`]), fed
//!    by the link reader threads, until every aggregator is counted or
//!    the deadline passes (duplicate origins suppressed).
//! 2. Each **aggregator** re-anchors the deadline at `exec` receipt
//!    (wire latency manifests as genuine straggling), fans out to its
//!    workers, and runs the engine's own Pseudocode-1 loop
//!    ([`cedar_runtime::run_pass`]), fed by the link reader threads; a
//!    watchdog fires speculative `retry` frames, missing leaves are
//!    right-censored at departure, and one aggregated `partial` ships
//!    upstream after the aggregator's own sampled stage-1 duration. An
//!    aggregator given a checkpoint directory also feeds each pass's
//!    leaf durations and thresholds to the service's [`Learner`].
//! 3. Each **worker** samples its leaves' durations from seeds that are
//!    pure functions of `(query seed, global origin)`, applies the
//!    fault plan at the send boundary exactly like the engine's
//!    channel-send injection, and one task pushes one `partial` per
//!    surviving leaf at its scheduled completion instant through the
//!    engine's own leaf shipper ([`cedar_runtime::ship_leaves`]; a
//!    `retry` likewise, one task per frame).
//!
//! Failure accounting reconciles end-to-end without coordination:
//! *injected* fault counts are computed at the root from the plan alone
//! ([`FaultPlan::planned_into`] is a pure function), while
//! runtime-dependent counts (retries, suppressed duplicates, censored
//! observations) are booked by the pass into its [`Ledger`], ride in
//! each `partial`'s [`FailureReport`] and are merged with
//! [`FailureReport::absorb`]. A *real* dead peer is charged
//! as crashes by the parent that detects it — a worker node as one
//! crash per hosted leaf (whose observations the aggregator then
//! censors), an aggregator node as one crash — so an actual failure
//! degrades quality through the same arithmetic as an injected one. The
//! one divergence from the engine's shared-memory bookkeeping: a
//! subtree whose `partial` never arrives cannot report its
//! runtime-dependent counts, so those are lost with it.
//!
//! Observability spans the same tree. An explain query threads an
//! [`ExecTrace`] through every `exec` hop; each node returns its
//! [`TraceSegment`] (receive/decode/queue/ship stamps plus its local
//! decision trace) inside its `partial`, and the root stitches them
//! into one [`MeshTrace`] with clock-offset-corrected per-hop wire
//! overhead, delivered in `result.trace.mesh`. Every node also keeps an
//! always-on fixed-size [`FlightRecorder`] of recent query summaries
//! (dumped on shutdown, on real-failure detection, or via the
//! [`proto::OP_FLIGHT_DUMP`] op), and the root serves an
//! [`OP_METRICS_FEDERATED`] op that merges every node's Prometheus page
//! under `node=` labels.

use crate::metrics::{MeshMetrics, PeerMetrics};
use crate::peer::{LinkConfig, PeerLink, Router};
use crate::ring::HashRing;
use crate::topology::{NodeDef, Role, Topology};
use crate::wire::{self, agg_seed, leaf_seed, ExecTrace, MeshMsg, StageTiming};
use cedar_core::profile::ProfileConfig;
use cedar_core::{LockExt, Millis, PolicyContext, PreparedContexts, WaitPolicyKind};
use cedar_distrib::ContinuousDist;
use cedar_estimate::Model;
use cedar_mathx::fxhash::FxHashMap;
use cedar_runtime::{
    gather, run_pass, Arrival, CheckpointConfig, FailureReport, FaultKind, FaultPlan, Learner,
    Ledger, PassConfig,
};
use cedar_server::clock;
use cedar_server::frontend::{
    Frontend, FrontendConfig, Handler, Serving, DEFAULT_DRAIN_DEADLINE, DEFAULT_IDLE_TIMEOUT,
};
use cedar_server::proto::{self, QueryResult, RawFrame, Request, Response, ServerStats};
use cedar_server::Client;
use cedar_telemetry::flight::DEFAULT_FLIGHT_CAPACITY;
use cedar_telemetry::{
    FlightEntry, FlightRecorder, HopRecord, MeshTrace, QueryTrace, TraceEventKind, TraceSegment,
    TraceSummary,
};
use cedar_workloads::treedef::{StageDef, TreeDef};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Deadline applied when a query request omits one, in model units.
const DEFAULT_DEADLINE: f64 = 1600.0;
/// ε-scan resolution for policy contexts.
const SCAN_STEPS: usize = 64;
/// Recent `exec`s a worker remembers for `retry` handling.
const RECENT_EXECS: usize = 64;
/// Prepared-context cache entries kept before a wholesale reset.
const PREPARED_CACHE_MAX: usize = 16;
/// Aggregation passes between refits of a checkpointing aggregator's
/// learner.
const REFIT_INTERVAL: usize = 8;

/// A cached level-1 policy context, keyed on all it depends on beyond
/// the leaf stage: the deadline's bits, the leaf fan-out and the stages
/// above the leaves, which alone shape the upper quality profile and its
/// ε-grid. Trees that differ only in their leaf stage share one entry;
/// [`bottom_context`] patches each query's own leaf stage in.
type PreparedEntry = (u64, usize, Vec<StageDef>, PolicyContext);

/// `cached` — a level-1 context built for a tree that matches `tree`
/// above the leaves — made `tree`'s own: its leaf stage as the prior,
/// with the means Proportional-split reads, and the prior's scan left
/// to be made. Bit for bit the context a fresh build for `tree` gives.
fn bottom_context(cached: &PolicyContext, tree: &cedar_core::TreeSpec) -> PolicyContext {
    let leaf = &tree.stage(0).dist;
    PolicyContext {
        prior_lower: Arc::clone(leaf),
        mean_below: leaf.mean(),
        mean_total: tree.total_mean(),
        prior_decision: std::sync::OnceLock::new(),
        ..cached.clone()
    }
}

/// Client op served by roots only: every node's Prometheus page merged
/// under `node=` labels (plus a synthetic `cedar_mesh_federated_up`).
pub const OP_METRICS_FEDERATED: &str = "metrics_federated";

/// Receive-side spans for one frame: the wall stamp when it came off
/// the socket, how long decode took, and when the serving thread handed
/// it to a handler (queue time is measured from there).
#[derive(Clone, Copy)]
struct RecvSpans {
    recv_unix_us: u64,
    decode_us: u64,
    handled_at: Instant,
}

impl RecvSpans {
    /// Spans for a frame that came off the socket at `received` and is
    /// decoded by now.
    fn decoded(received: Instant) -> Self {
        let handled_at = clock::now();
        let decode_us = handled_at.duration_since(received).as_micros() as u64;
        Self {
            recv_unix_us: clock::unix_us().saturating_sub(decode_us),
            decode_us,
            handled_at,
        }
    }
}

/// One `exec` frame's payload bundled with its receive spans, for the
/// role-specific handlers.
struct ExecJob {
    query_id: u64,
    agg_index: usize,
    tree: TreeDef,
    deadline: f64,
    seed: u64,
    plan: Option<FaultPlan>,
    trace: Option<ExecTrace>,
    spans: RecvSpans,
}

/// What a worker needs to re-execute leaves of a recent query.
#[derive(Clone)]
struct RecentExec {
    query_id: u64,
    base: usize,
    count: usize,
    start: tokio::time::Instant,
    deadline: f64,
    plan: Option<FaultPlan>,
    dist: Arc<dyn ContinuousDist>,
}

/// What the root keeps of an aggregator's `partial` beside the
/// [`Arrival`] it routes to `gather`: folded in only if `gather` counted
/// that origin.
struct RootPart {
    duration: f64,
    timings: Vec<StageTiming>,
    censored: Vec<StageTiming>,
    failures: FailureReport,
    /// The aggregator's trace segment and when the root received it.
    segment: Option<(TraceSegment, u64)>,
}

/// A leaf to ship: `(model duration, global origin, copies to send)`.
type Leaf = (f64, usize, usize);

/// A running mesh node. Dropping the handle does not stop the node;
/// call [`shutdown`](NodeHandle::shutdown) (or send the `shutdown`
/// client op) to stop it.
pub struct NodeHandle {
    inner: Arc<NodeInner>,
    serving: Option<Serving>,
}

impl NodeHandle {
    /// The node's name in the topology.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.inner.me.name
    }

    /// The node's role.
    #[must_use]
    pub fn role(&self) -> Role {
        self.inner.me.role
    }

    /// The address the listener actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.front.addr()
    }

    /// How many child links are currently established — readiness is
    /// `peers_up() == children.len()`.
    #[must_use]
    pub fn peers_up(&self) -> usize {
        self.inner.links.iter().filter(|l| l.is_up()).count()
    }

    /// Number of children this node should hold links to.
    #[must_use]
    pub fn peers_total(&self) -> usize {
        self.inner.links.len()
    }

    /// Signals the node to stop (idempotent).
    pub fn stop(&self) {
        Handler::stop(&*self.inner);
    }

    /// Blocks until the node stops — its own [`stop`](NodeHandle::stop)
    /// or a client `shutdown` op — and its connection and scrape threads
    /// are joined.
    pub fn join(mut self) {
        if let Some(serving) = self.serving.take() {
            let _ = serving.join();
        }
    }

    /// Stops the node and waits for its threads to exit.
    pub fn shutdown(self) {
        self.stop();
        self.join();
    }

    /// The bound Prometheus HTTP endpoint, when one was requested.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.inner.front.scrape_addr()
    }

    /// The learner of an aggregator started with a checkpoint directory
    /// (how it came up, what it has learned); `None` on every other node.
    #[must_use]
    pub fn learner(&self) -> Option<&Learner> {
        self.inner.learner.as_ref()
    }
}

struct NodeInner {
    /// Listener, connections, flight ring and stop: the serving layer.
    front: Frontend,
    topo: Topology,
    me: NodeDef,
    fault_plan: Option<FaultPlan>,
    metrics: MeshMetrics,
    router: Arc<Router>,
    /// Child links in topology child order (root → aggs, agg → workers).
    links: Vec<Arc<PeerLink>>,
    /// Writer half of the connection our parent holds to us, shared so
    /// heartbeat acks and partial pushes serialize their frames.
    upstream: Mutex<Option<TcpStream>>,
    /// The node's runtime, for every role's per-query work: the root's
    /// gather, aggregation passes and leaf shipping. Only a handle: those
    /// tasks hold this node, so a node that owned the runtime could end
    /// up dropping it on one of its own workers. The accept thread owns
    /// it and drops it, with whatever is still in flight, at exit.
    rt: tokio::runtime::Handle,
    /// Replica shard ring (root only).
    ring: Option<HashRing>,
    groups: Vec<Vec<String>>,
    query_seq: AtomicU64,
    completed: AtomicU64,
    served: AtomicU64,
    in_flight: AtomicUsize,
    /// Level-1 policy contexts by what they depend on; at most
    /// [`PREPARED_CACHE_MAX`] entries, scanned in order.
    prepared: Mutex<Vec<PreparedEntry>>,
    recent: Mutex<Vec<RecentExec>>,
    /// Durable learned priors (aggregators with a checkpoint dir):
    /// bookkeeping only, the declared tree still plans.
    learner: Option<Learner>,
}

/// Ceiling on simultaneously live connection threads per mesh node. A
/// node talks to its parent, its children, and a handful of clients;
/// anything past this is a runaway peer and is dropped at accept.
pub const MAX_NODE_CONNECTIONS: usize = 256;

/// Optional durability and observability facilities for [`start_with`].
#[derive(Debug, Default)]
pub struct NodeOptions {
    /// Aggregators given a checkpoint directory learn their leaf stage
    /// through a [`Learner`], persist it there and warm-restart from it.
    pub checkpoint: Option<CheckpointConfig>,
    /// Bind address for a plain-HTTP Prometheus scrape endpoint
    /// (`GET` anything → the node's metrics page).
    pub metrics_addr: Option<String>,
    /// File the flight recorder dumps to on shutdown, real-failure
    /// detection, or the [`proto::OP_FLIGHT_DUMP`] op.
    pub flight_file: Option<PathBuf>,
    /// Flight-recorder ring capacity; 0 means the default (256).
    pub flight_capacity: usize,
}

/// Starts the node named `name` from `topology`, binding its listener
/// and connecting to its children. `fault_plan`, when set on the root,
/// is installed into every query's `exec` fan-out (chaos runs).
pub fn start(
    topology: Topology,
    name: &str,
    fault_plan: Option<FaultPlan>,
) -> io::Result<NodeHandle> {
    start_with(topology, name, fault_plan, NodeOptions::default())
}

/// [`start`], plus checkpointed priors, an HTTP metrics endpoint, and a
/// flight-dump file per `options`.
pub fn start_with(
    topology: Topology,
    name: &str,
    fault_plan: Option<FaultPlan>,
    options: NodeOptions,
) -> io::Result<NodeHandle> {
    topology
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let me = topology.node(name).cloned().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("node {name:?} is not in the topology"),
        )
    })?;
    let flight_capacity = if options.flight_capacity == 0 {
        DEFAULT_FLIGHT_CAPACITY
    } else {
        options.flight_capacity
    };
    let (front, listeners) = Frontend::bind(FrontendConfig {
        addr: me.addr.clone(),
        scrape_addr: options.metrics_addr,
        max_connections: MAX_NODE_CONNECTIONS,
        // Per frame: a parent's live link sends a heartbeat every
        // `heartbeat` (500 ms by default), far inside this budget.
        idle_timeout: DEFAULT_IDLE_TIMEOUT,
        drain_deadline: DEFAULT_DRAIN_DEADLINE,
        node: me.name.clone(),
        role: me.role.as_str().to_owned(),
        flight: FlightRecorder::new(flight_capacity),
        flight_file: options.flight_file,
    })?;
    let metrics = MeshMetrics::new(name);
    let router = Arc::new(Router::new());
    let topology_hash = topology.hash();
    let links: Vec<Arc<PeerLink>> = me
        .children()
        .iter()
        .map(|child| {
            // Validation guarantees every child name resolves.
            let addr = topology
                .node(child)
                .map_or_else(String::new, |n| n.addr.clone());
            PeerLink::spawn(
                LinkConfig {
                    self_name: me.name.clone(),
                    self_role: me.role.as_str().to_owned(),
                    peer_name: child.clone(),
                    peer_addr: addr,
                    topology_hash,
                    heartbeat: topology.heartbeat(),
                    miss_limit: topology.miss_limit(),
                },
                PeerMetrics::register(&metrics.registry, child),
                Arc::clone(&router),
                Arc::clone(&metrics.partials_unroutable),
            )
        })
        .collect();
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()?;
    let groups = topology.replica_groups();
    let ring = (me.role == Role::Root).then(|| {
        let labels: Vec<String> = groups.iter().map(|g| g.join("+")).collect();
        HashRing::new(&labels)
    });
    let learner = options
        .checkpoint
        .as_ref()
        .filter(|_| me.role == Role::Agg)
        .map(|ckpt| {
            Learner::open(
                vec![topology.leaves_under(&me)],
                Model::LogNormal,
                REFIT_INTERVAL,
                Some(ckpt),
                Some(Arc::clone(&metrics.runtime)),
            )
        });
    let inner = Arc::new(NodeInner {
        front,
        topo: topology,
        me,
        fault_plan,
        metrics,
        router,
        links,
        upstream: Mutex::new(None),
        rt: rt.handle().clone(),
        ring,
        groups,
        query_seq: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        served: AtomicU64::new(0),
        in_flight: AtomicUsize::new(0),
        prepared: Mutex::new(Vec::new()),
        recent: Mutex::new(Vec::new()),
        learner,
    });
    let node = Arc::clone(&inner);
    let serving = listeners.serve(&inner, move || {
        // The accept thread owns the runtime and stops it here, once the
        // node has stopped and drained; tasks still in flight (a pass,
        // a worker's unshipped leaves) are dropped with it. Routes go
        // first: each holds a pass's or a gather's channel sender, and a
        // pass parked on that channel holds this node — a cycle nothing
        // could break once the workers are gone.
        node.router.clear();
        drop(rt);
    })?;
    Ok(NodeHandle {
        inner,
        serving: Some(serving),
    })
}

impl Handler for NodeInner {
    fn front(&self) -> &Frontend {
        &self.front
    }

    /// Mesh frames. Their kind bytes (`0x10..=0x16`) are disjoint from
    /// the client's, so a frame that decodes as a [`MeshMsg`] is one,
    /// and anything else is left to the layer's [`Request`] decode.
    fn frame(
        self: &Arc<Self>,
        raw: &RawFrame,
        stream: &TcpStream,
        received: Instant,
    ) -> Option<bool> {
        let msg = raw.decode_auto::<MeshMsg>().ok()?;
        let spans = RecvSpans::decoded(received);
        Some(match msg {
            MeshMsg::Hello { topology_hash, .. } => {
                let ok = topology_hash == self.topo.hash();
                let ack = MeshMsg::HelloAck {
                    from: self.me.name.clone(),
                    ok,
                    error: (!ok).then(|| {
                        format!(
                            "topology hash mismatch: ours {}, peer {topology_hash}",
                            self.topo.hash()
                        )
                    }),
                };
                if !ok {
                    let _ = wire::send(&mut &*stream, &ack);
                    return Some(false);
                }
                // This connection becomes our upstream: acks and partial
                // pushes share its write lock from here on.
                match stream.try_clone() {
                    Ok(writer) => {
                        let old = self.upstream.lock().unpoisoned().replace(writer);
                        if let Some(old) = old {
                            let _ = old.shutdown(Shutdown::Both);
                        }
                        self.send_upstream(&ack)
                    }
                    Err(_) => false,
                }
            }
            MeshMsg::Heartbeat { seq, .. } => self.send_upstream(&MeshMsg::HeartbeatAck {
                from: self.me.name.clone(),
                seq,
                // Local wall stamp for the parent's clock-offset
                // estimate (RTT-midpoint method).
                at_unix_us: Some(clock::unix_us()),
            }),
            MeshMsg::Exec {
                query_id,
                agg_index,
                tree,
                deadline,
                seed,
                fault_plan,
                trace,
                ..
            } => {
                self.metrics.execs.inc();
                let job = ExecJob {
                    query_id,
                    agg_index,
                    tree,
                    deadline,
                    seed,
                    plan: fault_plan,
                    trace,
                    spans,
                };
                match self.me.role {
                    Role::Agg => {
                        // The serving thread stays free for heartbeats
                        // and further execs.
                        let node = Arc::clone(self);
                        self.rt.spawn(async move { node.agg_run(job).await });
                    }
                    Role::Worker => self.worker_exec(job),
                    Role::Root => {}
                }
                true
            }
            MeshMsg::Retry {
                query_id, origins, ..
            } => {
                if self.me.role == Role::Worker {
                    self.worker_retry(query_id, &origins);
                }
                true
            }
            // Acks and partials arrive on parent-initiated connections,
            // which the PeerLink reader owns — not here.
            MeshMsg::HelloAck { .. } | MeshMsg::HeartbeatAck { .. } | MeshMsg::Partial { .. } => {
                true
            }
        })
    }

    fn request(self: &Arc<Self>, req: &Request, received: Instant) -> Response {
        match req.op.as_str() {
            proto::OP_PING | proto::OP_SHUTDOWN => Response::ok(),
            proto::OP_METRICS => Response::with_metrics(self.metrics.registry.render()),
            OP_METRICS_FEDERATED => self.metrics_federated(),
            proto::OP_STATS => {
                let learner = self.learner.as_ref();
                Response::with_stats(ServerStats {
                    completed: self.completed.load(Ordering::Acquire) as usize,
                    refits: learner.map_or(0, |l| l.refits() as usize),
                    epoch: learner.map_or(0, Learner::epoch),
                    cache_hits: 0,
                    cache_misses: 0,
                    in_flight: self.in_flight.load(Ordering::Acquire),
                    shed_total: self.front.shed_total(),
                    served_total: self.served.load(Ordering::Acquire),
                    // Absent (not zero) on nodes without a checkpoint
                    // dir, so clients can tell "no durability" from
                    // "age 0". Aggregators started with one report the
                    // learner's real ages.
                    priors_age_queries: learner.map(Learner::priors_age_queries),
                    checkpoint_age_ms: learner.and_then(Learner::checkpoint_age_ms),
                    warm_restart: learner.map(|l| l.warm_restart().is_some()),
                })
            }
            proto::OP_QUERY => {
                if self.me.role == Role::Root {
                    self.served.fetch_add(1, Ordering::AcqRel);
                    self.root_query(req, RecvSpans::decoded(received))
                } else {
                    Response::err_code(
                        proto::ERR_BAD_REQUEST,
                        format!(
                            "{} nodes do not serve queries; ask the root",
                            self.me.role.as_str()
                        ),
                    )
                }
            }
            other => Response::err_code(proto::ERR_UNKNOWN_OP, format!("unknown op {other:?}")),
        }
    }

    fn scrape(&self) -> String {
        self.metrics.registry.render()
    }

    /// Stops the layer (which dumps the flight ring), then persists
    /// learned state, stops child links and drops the upstream.
    fn stop(&self) {
        if !self.front.stop() {
            return;
        }
        if let Some(learner) = &self.learner {
            let _ = learner.checkpoint_now();
        }
        for link in &self.links {
            link.stop();
        }
        if let Some(s) = self.upstream.lock().unpoisoned().take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

impl NodeInner {
    /// Writes one frame on the upstream connection (serialized with
    /// every other upstream writer). Returns `false` when there is no
    /// live upstream or the write failed.
    fn send_upstream(&self, msg: &MeshMsg) -> bool {
        let mut guard = self.upstream.lock().unpoisoned();
        let Some(stream) = guard.as_mut() else {
            return false;
        };
        if wire::send(&mut &*stream, msg).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            *guard = None;
            return false;
        }
        true
    }

    fn ship_partial(&self, msg: &MeshMsg) {
        if self.send_upstream(msg) {
            self.metrics.partials_sent.inc();
        }
    }

    /// The link to the child named `name`.
    fn link(&self, name: &str) -> Option<&Arc<PeerLink>> {
        self.links.iter().find(|l| l.peer_name() == name)
    }

    /// This node's trace segment for one query: the `exec`'s receive
    /// spans and queue time, nothing under it yet.
    fn segment(
        &self,
        level: usize,
        origin: usize,
        trace_id: u64,
        spans: RecvSpans,
        queue_us: u64,
    ) -> TraceSegment {
        TraceSegment {
            node: self.me.name.clone(),
            role: self.me.role.as_str().to_owned(),
            level,
            origin,
            trace_id,
            exec_recv_unix_us: spans.recv_unix_us,
            exec_decode_us: spans.decode_us,
            exec_queue_us: queue_us,
            partial_sent_unix_us: 0,
            hops: Vec::new(),
            children: Vec::new(),
            report: None,
            summary: TraceSummary::default(),
        }
    }

    /// One hop per child an `exec` went to — `(name, exec sent stamp,
    /// its segment and receive stamp if it answered)`, in dispatch order
    /// — and the answered children's segments. A silent child is a
    /// censored hop.
    fn hops(
        &self,
        dispatched: impl Iterator<Item = (String, u64, Option<(TraceSegment, u64)>)>,
    ) -> (Vec<HopRecord>, Vec<TraceSegment>) {
        let mut children = Vec::new();
        let hops = dispatched
            .map(|(child, sent, answer)| {
                let offset = self
                    .link(&child)
                    .and_then(|l| l.clock_offset_us())
                    .unwrap_or(0);
                let Some((seg, recv_us)) = answer else {
                    return HopRecord::censored(child, sent, offset);
                };
                let hop = HopRecord {
                    child,
                    censored: false,
                    clock_offset_us: offset,
                    exec_sent_unix_us: sent,
                    exec_recv_unix_us: seg.exec_recv_unix_us,
                    exec_decode_us: seg.exec_decode_us,
                    exec_queue_us: seg.exec_queue_us,
                    partial_sent_unix_us: seg.partial_sent_unix_us,
                    partial_recv_unix_us: recv_us,
                };
                children.push(seg);
                hop
            })
            .collect();
        (hops, children)
    }

    /// Scrapes every node in the topology over fresh client
    /// connections (peer links carry mesh frames only) and merges the
    /// pages under `node=` labels. Unreachable nodes are marked down
    /// via `cedar_mesh_federated_up` rather than failing the scrape.
    fn metrics_federated(&self) -> Response {
        if self.me.role != Role::Root {
            return Response::err_code(
                proto::ERR_BAD_REQUEST,
                "only the root federates metrics; scrape `metrics` here",
            );
        }
        let mut pages: Vec<(String, Option<String>)> = Vec::with_capacity(self.topo.nodes.len());
        for def in &self.topo.nodes {
            let page = if def.name == self.me.name {
                Some(self.metrics.registry.render())
            } else {
                Client::connect(def.addr.as_str())
                    .ok()
                    .and_then(|mut c| c.metrics().ok())
                    .and_then(|resp| resp.metrics)
            };
            pages.push((def.name.clone(), page));
        }
        Response::with_metrics(crate::metrics::federate(&pages))
    }

    // ---- root ----

    /// Shards one client query onto a replica, fans out, gathers until
    /// the deadline, and folds the merged outcome into the standard
    /// runtime metrics — the engine's terminal loop, across processes.
    /// Explain queries additionally thread a trace id through every
    /// `exec` hop and stitch the returned segments into a cross-process
    /// timeline ([`MeshTrace`]) delivered in `result.trace.mesh`.
    fn root_query(self: &Arc<Self>, req: &Request, spans: RecvSpans) -> Response {
        let Some(tree) = req.tree.clone() else {
            return Response::err_code(proto::ERR_BAD_REQUEST, "query carries no tree");
        };
        let deadline = req.deadline.unwrap_or(DEFAULT_DEADLINE);
        if !deadline.is_finite() || deadline <= 0.0 {
            return Response::err_code(proto::ERR_BAD_REQUEST, "deadline must be positive");
        }
        if tree.stages.len() != 2 {
            return Response::err_code(
                proto::ERR_BAD_REQUEST,
                format!(
                    "a 3-level mesh executes 2-stage trees; this one has {}",
                    tree.stages.len()
                ),
            );
        }
        if tree.build().is_err() {
            return Response::err_code(proto::ERR_BAD_REQUEST, "tree does not build");
        }
        let k1 = tree.stages[0].fanout;
        let k2 = tree.stages[1].fanout;
        let aggs = self.topo.aggs();
        let hosted = aggs.first().map_or(0, |a| self.topo.leaves_under(a));
        if k1 != hosted {
            return Response::err_code(
                proto::ERR_BAD_REQUEST,
                format!("tree wants {k1} leaves per aggregator, topology hosts {hosted}"),
            );
        }
        let seed = req.seed.unwrap_or(0xCEDA2);
        // Shard by consistent hash of the query key (its seed): the
        // same query always lands on the same replica set.
        let group_idx = self.ring.as_ref().map_or(0, |r| r.route(seed));
        let group = &self.groups[group_idx];
        if k2 != group.len() {
            return Response::err_code(
                proto::ERR_BAD_REQUEST,
                format!(
                    "tree wants {k2} aggregators, replica set {group_idx} has {}",
                    group.len()
                ),
            );
        }
        let query_id = self.query_seq.fetch_add(1, Ordering::AcqRel) + 1;
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let scale = self.topo.scale();
        let start = tokio::time::Instant::now();
        let started_unix_us = clock::unix_us();
        let queue_us = spans.handled_at.elapsed().as_micros() as u64;
        let explain = req.explain.unwrap_or(false);
        let trace_id = wire::trace_id(seed, query_id);
        let qtrace = explain.then(|| Arc::new(QueryTrace::new()));
        // The route feeds `gather` the engine's channel-send boundary type
        // and keeps the rest of each aggregator's first partial beside it.
        // It MUST exist before any exec goes out.
        let (tx, rx) = tokio::sync::mpsc::channel::<Arrival>(4 * k2 + 8);
        let parts: Arc<Mutex<Vec<Option<RootPart>>>> =
            Arc::new(Mutex::new((0..k2).map(|_| None).collect()));
        let route_parts = Arc::clone(&parts);
        self.router.register(query_id, move |msg| {
            let MeshMsg::Partial {
                origin,
                payload,
                value,
                duration,
                retry,
                timings,
                censored,
                failures,
                segment,
                ..
            } = msg
            else {
                return false;
            };
            if let Some(slot) = route_parts.lock().unpoisoned().get_mut(origin) {
                slot.get_or_insert_with(|| RootPart {
                    duration,
                    timings,
                    censored,
                    failures,
                    segment: segment.map(|seg| (*seg, clock::unix_us())),
                });
            }
            let arrival = Arrival {
                payload,
                value,
                origin,
                duration,
                retry,
            };
            tx.try_send(arrival).is_ok()
        });

        // Injected faults are a pure function of the plan — account for
        // the whole tree here, no coordination needed.
        let mut report = FailureReport::default();
        if let Some(qt) = &qtrace {
            qt.record(
                0.0,
                2,
                0,
                TraceEventKind::QueryStart {
                    deadline,
                    total_processes: k1 * k2,
                    priors_epoch: 0,
                },
            );
        }
        if let Some(plan) = &self.fault_plan {
            for (level, count) in [(0, k1 * k2), (1, k2)] {
                plan.planned_into(level, 0..count, &mut report);
                let Some(qt) = &qtrace else { continue };
                for origin in 0..count {
                    if let Some(kind) = plan.fault_for(level, origin) {
                        let fault = kind.class();
                        qt.record(0.0, 2, 0, TraceEventKind::FaultInjected { fault, origin });
                    }
                }
            }
        }

        // Fan out; a dead aggregator at dispatch is a real crash.
        let mut dispatched: Vec<Option<&Arc<PeerLink>>> = Vec::with_capacity(group.len());
        let mut sent_stamps: Vec<u64> = Vec::with_capacity(group.len());
        for (agg_index, agg_name) in group.iter().enumerate() {
            let sent_unix_us = clock::unix_us();
            sent_stamps.push(sent_unix_us);
            let exec = MeshMsg::Exec {
                query_id,
                from: self.me.name.clone(),
                target: agg_name.clone(),
                agg_index,
                tree: tree.clone(),
                deadline,
                seed,
                fault_plan: self.fault_plan.clone(),
                trace: explain.then_some(ExecTrace {
                    trace_id,
                    explain: true,
                    sent_unix_us,
                }),
            };
            match self.link(agg_name) {
                Some(l) if l.send(&exec).is_ok() => dispatched.push(Some(l)),
                _ => {
                    report.crashed += 1;
                    dispatched.push(None);
                }
            }
        }

        // Gather until every aggregator is counted or the deadline
        // passes, duplicate origins suppressed into the ledger.
        let ledger = Ledger::default();
        let gathered = self.rt.block_on(gather(
            rx,
            start + scale.to_wall(deadline),
            0..k2,
            Some(&ledger),
            |kind| {
                if let Some(qt) = &qtrace {
                    qt.record(scale.to_model(start.elapsed()), 2, 0, kind);
                }
            },
        ));
        self.router.unregister(query_id);
        report.absorb(&ledger.finish().0);
        let silent = &gathered.missing;
        // Only what `gather` counted is folded in.
        let mut parts = std::mem::take(&mut *parts.lock().unpoisoned());
        for &origin in silent {
            parts[origin] = None;
        }
        for part in parts.iter().flatten() {
            report.absorb(&part.failures);
        }
        // Leaf durations the counted aggregators logged, by origin.
        let stage0 = |log: fn(&RootPart) -> &[StageTiming]| -> Vec<f64> {
            let mut v: Vec<(usize, f64)> = (parts.iter().flatten().flat_map(log))
                .filter(|t| t.level == 0)
                .map(|t| (t.origin, t.duration))
                .collect();
            v.sort_by_key(|&(origin, _)| origin);
            v.into_iter().map(|(_, d)| d).collect()
        };

        // An aggregator that was dispatched to, went silent, AND whose
        // link is down died for real mid-query.
        let dead = (silent.iter().filter_map(|&origin| dispatched[origin]))
            .filter(|l| !l.is_up())
            .count();
        report.crashed += dead;
        if dead > 0 {
            self.front.note_degraded();
        }

        let (included, arrivals) = (gathered.included, gathered.arrivals);
        let outcome = cedar_runtime::RuntimeOutcome {
            quality: included as f64 / (k1 * k2).max(1) as f64,
            included_outputs: included,
            total_processes: k1 * k2,
            root_arrivals: arrivals,
            value_sum: gathered.value_sum,
            wall_elapsed: start.elapsed(),
            realized_durations: vec![
                stage0(|p| &p.timings),
                parts.iter().flatten().map(|p| p.duration).collect(),
            ],
            failures: report,
            censored_durations: vec![stage0(|p| &p.censored), Vec::new()],
        };
        self.metrics.runtime.observe_outcome(&outcome);
        self.metrics.queries.inc();
        self.completed.fetch_add(1, Ordering::AcqRel);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);

        // Close the decision trace and stitch the cross-process tree.
        let trace = if let Some(qt) = &qtrace {
            let at = scale.to_model(start.elapsed());
            for &origin in silent {
                qt.record(at, 2, 0, TraceEventKind::Censored { origin });
            }
            qt.record(
                at,
                2,
                0,
                TraceEventKind::QueryEnd {
                    quality: outcome.quality,
                    included,
                    reason: gathered.reason,
                },
            );
            let answered = parts
                .iter_mut()
                .map(|p| p.as_mut().and_then(|p| p.segment.take()));
            let (hops, children) = self.hops(
                group
                    .iter()
                    .cloned()
                    .zip(sent_stamps)
                    .zip(answered)
                    .map(|((child, sent), answer)| (child, sent, answer)),
            );
            let root = TraceSegment {
                hops,
                children,
                summary: qt.summary(),
                ..self.segment(2, 0, trace_id, spans, queue_us)
            };
            let mut r = qt.report();
            r.mesh = Some(Box::new(MeshTrace { trace_id, root }));
            Some(r)
        } else {
            None
        };

        self.front.flight_record(FlightEntry {
            query_id,
            started_unix_us,
            latency_us: start.elapsed().as_micros() as u64,
            deadline,
            quality: outcome.quality,
            included,
            expected: k1 * k2,
            shed: false,
            summary: qtrace.as_ref().map_or(
                TraceSummary {
                    arrivals,
                    rearms: 0,
                    failures: report,
                },
                |qt| qt.summary(),
            ),
        });

        Response::with_result(QueryResult {
            quality: outcome.quality,
            included_outputs: outcome.included_outputs,
            total_processes: outcome.total_processes,
            root_arrivals: outcome.root_arrivals,
            value_sum: outcome.value_sum,
            latency_ms: Millis::from_duration(start.elapsed()).get(),
            epoch: 0,
            failures: Some(report),
            trace,
        })
    }

    // ---- aggregator ----

    /// One aggregation pass, spawned per `exec` onto the runtime: the
    /// engine's Pseudocode-1 loop fed by the link reader threads, with
    /// watchdog retries over the wire.
    async fn agg_run(self: &Arc<Self>, job: ExecJob) {
        let ExecJob {
            query_id,
            agg_index,
            tree,
            deadline,
            seed,
            plan,
            trace,
            spans: recv_spans,
        } = job;
        let tree = &tree;
        let Ok(spec_tree) = tree.build() else { return };
        if tree.stages.len() != 2 || !deadline.is_finite() || deadline <= 0.0 {
            return;
        }
        let Some(ctx) = self.prepared_ctx(tree, &spec_tree, deadline) else {
            return;
        };
        let scale = self.topo.scale();
        let start = tokio::time::Instant::now();
        let queue_us = recv_spans.handled_at.elapsed().as_micros() as u64;
        let explain = trace.is_some_and(|t| t.explain);
        let trace_id = trace.map_or(0, |t| t.trace_id);
        let qtrace = explain.then(|| Arc::new(QueryTrace::new()));
        let k1 = tree.stages[0].fanout;
        let base = agg_index * k1;
        let watchdog = plan
            .as_ref()
            .and_then(|p| p.watchdog_at(&*spec_tree.stage(0).dist, deadline));

        // The route delivers network partials straight onto the pass's
        // channel — the engine's channel-send boundary — from the link
        // reader threads. It MUST exist before any exec goes out, or the
        // fastest leaves' partials arrive unroutable and are shed.
        let (tx, rx) = tokio::sync::mpsc::channel::<Arrival>(4 * k1 + 16);
        // Child segments by worker-node name, keep-latest: a worker
        // re-ships its segment with every leaf partial, stamping each
        // ship, so the last one carries its final ship stamp.
        let segs: Arc<Mutex<FxHashMap<String, (TraceSegment, u64)>>> =
            Arc::new(Mutex::new(FxHashMap::default()));
        let route_segs = Arc::clone(&segs);
        self.router.register(query_id, move |msg| {
            let MeshMsg::Partial {
                from,
                origin,
                payload,
                value,
                duration,
                retry,
                segment,
                ..
            } = msg
            else {
                return false;
            };
            if let Some(seg) = segment {
                route_segs
                    .lock()
                    .unpoisoned()
                    .insert(from, (*seg, clock::unix_us()));
            }
            let arrival = Arrival {
                payload,
                value,
                origin,
                duration,
                retry,
            };
            tx.try_send(arrival).is_ok()
        });

        // This pass's share of the query's failure accounting.
        let ledger = Arc::new(Ledger::new(1));
        // Fan out to workers; a dead worker node is one real crash per
        // hosted leaf, and those leaves censor naturally at departure.
        // Every dispatch attempt leaves a hop stamp — silent children
        // become censored hops in the segment.
        let mut worker_spans: Vec<(std::ops::Range<usize>, Arc<PeerLink>)> = Vec::new();
        let mut hop_sends: Vec<(String, u64)> = Vec::new();
        let mut unreachable = false;
        for child in self.me.children() {
            let (Some(def), Some(offset)) = (self.topo.node(child), self.topo.worker_offset(child))
            else {
                continue;
            };
            let range = (base + offset)..(base + offset + def.processes());
            let sent_unix_us = clock::unix_us();
            hop_sends.push((child.clone(), sent_unix_us));
            let exec = MeshMsg::Exec {
                query_id,
                from: self.me.name.clone(),
                target: child.clone(),
                agg_index,
                tree: tree.clone(),
                deadline,
                seed,
                fault_plan: plan.clone(),
                trace: explain.then_some(ExecTrace {
                    trace_id,
                    explain: true,
                    sent_unix_us,
                }),
            };
            match self.link(child) {
                Some(l) if l.send(&exec).is_ok() => worker_spans.push((range, Arc::clone(l))),
                _ => {
                    unreachable = true;
                    for _ in range {
                        ledger.injected(FaultKind::CrashBeforeSend);
                    }
                }
            }
        }
        if unreachable {
            self.front.note_degraded();
        }

        let self_name = self.me.name.clone();
        let outcome = run_pass(
            PassConfig {
                ctx,
                kind: WaitPolicyKind::Cedar,
                model: Model::LogNormal,
                scale,
                start,
                index: agg_index,
                expected: base..base + k1,
                watchdog,
                trace: qtrace.clone(),
                metrics: Some(Arc::clone(&self.metrics.runtime)),
                ledger: Some(Arc::clone(&ledger)),
            },
            rx,
            // One `retry` frame per worker node hosting missing leaves;
            // the ones that went out are the retries launched.
            move |missing| {
                let mut launched = Vec::new();
                for (range, link) in &worker_spans {
                    let mine: Vec<usize> = missing
                        .iter()
                        .copied()
                        .filter(|o| range.contains(o))
                        .collect();
                    if mine.is_empty() {
                        continue;
                    }
                    let retry = MeshMsg::Retry {
                        query_id,
                        from: self_name.clone(),
                        origins: mine.clone(),
                    };
                    if link.send(&retry).is_ok() {
                        launched.extend(mine);
                    }
                }
                launched
            },
        )
        .await;
        self.router.unregister(query_id);
        // A one-stage ledger: what it logged is the leaves'.
        let (local_report, mut delivered, mut censored) = ledger.finish();
        let observed = delivered.pop().unwrap_or_default();
        let censored = censored.pop().unwrap_or_default();

        // Feed the durable learner: delivered leaf durations plus the
        // departure threshold of each missing leaf. Bookkeeping only —
        // the declared tree stays the policy context.
        if let Some(learner) = &self.learner {
            let durations =
                |log: &[(usize, f64)]| -> Vec<f64> { log.iter().map(|&(_, d)| d).collect() };
            learner.record(&[durations(&observed)], &[durations(&censored)], |_, _| {});
        }
        // The flight entry reflects the pass itself, recorded before the
        // own-fate gamble below so crashed/hung passes still leave one.
        self.front.flight_record(FlightEntry {
            query_id,
            started_unix_us: recv_spans.recv_unix_us,
            latency_us: start.elapsed().as_micros() as u64,
            deadline,
            quality: outcome.payload as f64 / k1.max(1) as f64,
            included: outcome.payload,
            expected: k1,
            shed: false,
            summary: qtrace.as_ref().map_or(
                TraceSummary {
                    arrivals: outcome.received,
                    rearms: 0,
                    failures: local_report,
                },
                |qt| qt.summary(),
            ),
        });

        // The aggregator's own stage-1 fate and duration.
        let own_fault = plan.as_ref().and_then(|p| p.fault_for(1, agg_index));
        let mut rng = StdRng::seed_from_u64(agg_seed(seed, agg_index));
        let mut own = spec_tree.stage(1).dist.sample(&mut rng);
        if let Some(FaultKind::Straggle { factor }) = own_fault {
            own *= factor.max(1.0);
        }
        if matches!(
            own_fault,
            Some(FaultKind::CrashBeforeSend | FaultKind::Hang | FaultKind::DropMessage)
        ) {
            return; // the subtree's aggregate never reaches the root
        }
        tokio::time::sleep(scale.to_wall(own)).await;

        let stage0 = |log: Vec<(usize, f64)>| -> Vec<StageTiming> {
            log.into_iter()
                .map(|(origin, duration)| StageTiming {
                    level: 0,
                    origin,
                    duration,
                })
                .collect()
        };
        // Stitchable segment: this node's spans, one hop per dispatched
        // worker (censored when it never answered), the workers' own
        // segments, and the local decision trace.
        let segment = qtrace.as_ref().map(|qt| {
            let mut collected = segs.lock().unpoisoned();
            let (hops, children) = self.hops(hop_sends.into_iter().map(|(child, sent)| {
                let answer = collected.remove(&child);
                (child, sent, answer)
            }));
            Box::new(TraceSegment {
                partial_sent_unix_us: clock::unix_us(),
                hops,
                children,
                report: Some(qt.report()),
                summary: qt.summary(),
                ..self.segment(1, agg_index, trace_id, recv_spans, queue_us)
            })
        });
        let msg = MeshMsg::Partial {
            query_id,
            from: self.me.name.clone(),
            origin: agg_index,
            payload: outcome.payload,
            value: outcome.value,
            duration: own,
            retry: false,
            timings: stage0(observed),
            censored: stage0(censored),
            failures: local_report,
            segment,
        };
        self.ship_partial(&msg);
        if matches!(own_fault, Some(FaultKind::DuplicateMessage)) {
            self.ship_partial(&msg);
        }
    }

    /// The policy-context cache; returns the bottom-level context for
    /// one query.
    fn prepared_ctx(
        &self,
        tree: &TreeDef,
        spec_tree: &cedar_core::TreeSpec,
        deadline: f64,
    ) -> Option<PolicyContext> {
        let bits = deadline.to_bits();
        let (leaf, upper) = tree.stages.split_first()?;
        let mut cache = self.prepared.lock().unpoisoned();
        let hit = cache
            .iter()
            .find(|(b, k, u, _)| *b == bits && *k == leaf.fanout && u[..] == *upper);
        if let Some((.., cached)) = hit {
            return Some(bottom_context(cached, spec_tree));
        }
        let ctx = PreparedContexts::new(
            spec_tree,
            deadline,
            WaitPolicyKind::Cedar,
            Model::LogNormal,
            SCAN_STEPS,
            &ProfileConfig::default(),
        )
        .for_query(spec_tree)
        .into_iter()
        .next()?;
        if cache.len() >= PREPARED_CACHE_MAX {
            cache.clear();
        }
        cache.push((bits, leaf.fanout, upper.to_vec(), ctx.clone()));
        Some(ctx)
    }

    // ---- worker ----

    /// Simulates this worker's leaves in one runtime task: sample each
    /// duration from its origin-pure seed, apply the fault plan at the
    /// send boundary, and push one partial per surviving leaf at its
    /// completion instant.
    fn worker_exec(self: &Arc<Self>, job: ExecJob) {
        let ExecJob {
            query_id,
            agg_index,
            tree,
            deadline,
            seed,
            plan,
            trace,
            spans,
        } = job;
        let Ok(spec_tree) = tree.build() else { return };
        if tree.stages.is_empty() || !deadline.is_finite() || deadline <= 0.0 {
            return;
        }
        let Some(offset) = self.topo.worker_offset(&self.me.name) else {
            return;
        };
        let start = tokio::time::Instant::now();
        let dist = spec_tree.stage(0).dist.clone();
        let base = agg_index * tree.stages[0].fanout + offset;
        let count = self.me.processes();
        {
            let mut recent = self.recent.lock().unpoisoned();
            if recent.len() >= RECENT_EXECS {
                recent.remove(0);
            }
            recent.push(RecentExec {
                query_id,
                base,
                count,
                start,
                deadline,
                plan: plan.clone(),
                dist: dist.clone(),
            });
        }
        let traced = trace.filter(|t| t.explain);
        let node = Arc::clone(self);
        self.rt.spawn(async move {
            // Queue time covers dispatch plus this task's first poll.
            let queue_us = spans.handled_at.elapsed().as_micros() as u64;
            // The worker's segment, re-shipped (with a fresh ship
            // stamp) inside every leaf partial so the aggregator's
            // keep-latest copy carries the final one.
            let segment = traced.map(|t| node.segment(0, base, t.trace_id, spans, queue_us));
            let mut leaves: Vec<Leaf> = Vec::with_capacity(count);
            for origin in base..base + count {
                let mut rng = StdRng::seed_from_u64(leaf_seed(seed, origin));
                let mut dur = dist.sample(&mut rng);
                let mut copies = 1usize;
                match plan.as_ref().and_then(|p| p.fault_for(0, origin)) {
                    Some(FaultKind::CrashBeforeSend | FaultKind::Hang | FaultKind::DropMessage) => {
                        continue
                    }
                    Some(FaultKind::Straggle { factor }) => dur *= factor.max(1.0),
                    Some(FaultKind::DuplicateMessage) => copies = 2,
                    None => {}
                }
                if dur > deadline {
                    // It cannot be counted upstream, so it is never
                    // scheduled; its absence is right-censored there,
                    // like the engine's late tail.
                    continue;
                }
                leaves.push((dur, origin, copies));
            }
            let shipped = leaves.len();
            node.ship_leaves(query_id, start, leaves, false, segment)
                .await;
            node.front.flight_record(FlightEntry {
                query_id,
                started_unix_us: spans.recv_unix_us,
                latency_us: start.elapsed().as_micros() as u64,
                deadline,
                quality: shipped as f64 / count.max(1) as f64,
                included: shipped,
                expected: count,
                shed: false,
                summary: TraceSummary::default(),
            });
        });
    }

    /// Re-executes the named leaf origins of a recent query, once,
    /// fault-free, with the plan's dedicated retry seeds — the wire
    /// form of the engine's speculative retry.
    fn worker_retry(self: &Arc<Self>, query_id: u64, origins: &[usize]) {
        let found = (self.recent.lock().unpoisoned().iter().rev())
            .find(|e| e.query_id == query_id)
            .cloned();
        let Some(RecentExec {
            base,
            count,
            start,
            deadline,
            plan: Some(plan),
            dist,
            ..
        }) = found
        else {
            return;
        };
        let issued = tokio::time::Instant::now();
        // Re-executions that cannot land before the deadline (anchored
        // at the original exec) are not run at all.
        let spent = self.topo.scale().to_model(issued.duration_since(start));
        let leaves: Vec<Leaf> = origins
            .iter()
            .copied()
            .filter(|&o| o >= base && o < base + count)
            .map(|origin| {
                let mut rng = StdRng::seed_from_u64(plan.retry_seed(origin));
                (dist.sample(&mut rng), origin, 1)
            })
            .filter(|&(dur, _, _)| spent + dur <= deadline)
            .collect();
        if leaves.is_empty() {
            return;
        }
        let node = Arc::clone(self);
        // Retries stay untraced: the original exec's segment already
        // covers this worker.
        self.rt.spawn(async move {
            node.ship_leaves(query_id, issued, leaves, true, None).await;
        });
    }

    /// Ships `leaves` through the engine's shipper, each at `start` plus
    /// its duration, the segment (if any) re-stamped on every partial.
    async fn ship_leaves(
        &self,
        query_id: u64,
        start: tokio::time::Instant,
        leaves: Vec<Leaf>,
        retry: bool,
        segment: Option<TraceSegment>,
    ) {
        let scale = self.topo.scale();
        let leaves = leaves
            .into_iter()
            .map(|(duration, origin, copies)| {
                (start + scale.to_wall(duration), origin, (duration, copies))
            })
            .collect();
        cedar_runtime::ship_leaves(
            leaves,
            |origin, (duration, copies)| {
                let msg = MeshMsg::Partial {
                    query_id,
                    from: self.me.name.clone(),
                    origin,
                    payload: 1,
                    value: 1.0,
                    duration,
                    retry,
                    timings: Vec::new(),
                    censored: Vec::new(),
                    failures: FailureReport::default(),
                    segment: segment.clone().map(|mut s| {
                        s.partial_sent_unix_us = clock::unix_us();
                        Box::new(s)
                    }),
                };
                for _ in 0..copies {
                    self.ship_partial(&msg);
                }
                // A remote aggregator's departure cannot be seen from here,
                // so every leaf is shipped.
                std::future::ready(true)
            },
            |_| true,
        )
        .await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_core::{StageSpec, TreeSpec};
    use cedar_distrib::{Gamma, LogNormal};

    fn level1(tree: &TreeSpec, deadline: f64) -> PolicyContext {
        PreparedContexts::new(
            tree,
            deadline,
            WaitPolicyKind::Cedar,
            Model::LogNormal,
            SCAN_STEPS,
            &ProfileConfig::default(),
        )
        .for_query(tree)
        .remove(0)
    }

    #[test]
    fn a_cached_context_patched_to_a_new_leaf_stage_is_a_fresh_build() {
        let with_leaves = |mu| {
            TreeSpec::two_level(
                StageSpec::new(LogNormal::new(mu, 0.8).unwrap(), 8),
                StageSpec::new(LogNormal::new(2.0, 0.4).unwrap(), 2),
            )
        };
        let (cached_tree, query_tree) = (with_leaves(3.0), with_leaves(3.6));
        let deadline = 120.0;
        let patched = bottom_context(&level1(&cached_tree, deadline), &query_tree);
        let fresh = level1(&query_tree, deadline);
        let lowers: [Arc<dyn ContinuousDist>; 3] = [
            Arc::new(LogNormal::new(3.3, 0.5).unwrap()),
            Arc::new(LogNormal::new(4.2, 1.1).unwrap()),
            Arc::new(Gamma::new(2.0, 10.0).unwrap()),
        ];
        for lower in &lowers {
            let (a, b) = (patched.scan(&**lower), fresh.scan(&**lower));
            assert_eq!(a.wait.to_bits(), b.wait.to_bits());
            assert_eq!(a.quality.to_bits(), b.quality.to_bits());
        }
        let (a, b) = (patched.prior_scan(), fresh.prior_scan());
        assert_eq!(a.wait.to_bits(), b.wait.to_bits());
        assert_eq!(a.quality.to_bits(), b.quality.to_bits());
        assert_eq!(patched.mean_below.to_bits(), fresh.mean_below.to_bits());
        assert_eq!(patched.mean_total.to_bits(), fresh.mean_total.to_bits());
        // The leaf stage moved the decision: the patch is not a no-op.
        assert_ne!(
            a.quality.to_bits(),
            level1(&cached_tree, deadline)
                .prior_scan()
                .quality
                .to_bits()
        );
    }
}
