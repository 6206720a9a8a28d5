//! The TCP service: the query, stats, health and metrics ops served
//! through the [`frontend`](crate::frontend) connection layer, and a
//! shared multi-threaded tokio runtime executing the queries.
//!
//! Connection threads claim an [`AdmissionGate`] slot and bridge onto
//! the runtime with `Handle::block_on` — so slow clients tie up cheap OS
//! threads, never runtime workers. Shutdown is graceful: the layer stops
//! accepting and wakes idle connections at once, in-flight queries run
//! to completion before their threads are joined, and a final
//! checkpoint is taken before the runtime is torn down.

use crate::admission::{AdmissionConfig, AdmissionGate, AdmissionPermit, Shed};
use crate::clock;
use crate::frontend::{
    Frontend, FrontendConfig, Handler, Serving, DEFAULT_DRAIN_DEADLINE, DEFAULT_IDLE_TIMEOUT,
};
use crate::proto::{self, HealthState, HealthStatus, QueryResult, Request, Response, ServerStats};
use crate::spill::{SpillConfig, SpillQueue};
use crate::wire2::BinaryCodec;
use cedar_core::Millis;
use cedar_runtime::{AggregationService, QueryOptions, RuntimeMetrics, ServiceConfig, TimeScale};
use cedar_telemetry::flight::DEFAULT_FLIGHT_CAPACITY;
use cedar_telemetry::{
    Counter, FlightEntry, FlightRecorder, Gauge, QueryTrace, Registry, TraceSummary,
};
use cedar_workloads::production;
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything needed to start a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// The aggregation service configuration (priors, deadline, policy,
    /// time scale, refit interval).
    pub service: ServiceConfig,
    /// Admission limits.
    pub admission: AdmissionConfig,
    /// Runtime worker threads (`0` = one per available core).
    pub worker_threads: usize,
    /// Per-frame client read budget: a connection that cannot deliver a
    /// complete request frame within this window is closed (slowloris
    /// protection; also bounds how long an idle keep-alive connection
    /// holds its thread). Writes get the same budget.
    pub idle_timeout: Duration,
    /// How long graceful shutdown waits for in-flight connections before
    /// detaching the stragglers and returning an error.
    pub drain_deadline: Duration,
    /// Server-side cap on one query's execution; `None` trusts the
    /// query's own deadline. Queries over the cap get a typed
    /// [`proto::ERR_TIMEOUT`] response instead of holding their
    /// connection forever.
    pub query_timeout: Option<Duration>,
    /// When set, also serve the metrics text over plain HTTP `GET` on
    /// this address (`"127.0.0.1:0"` picks a free port), so a
    /// Prometheus-style scraper needs no frame protocol. `None` (the
    /// default) leaves metrics reachable only via the `"metrics"` op.
    pub metrics_addr: Option<String>,
    /// When set, query requests arriving while the in-memory admission
    /// queue is full are parked in a bounded disk-backed spill queue
    /// and replayed FIFO as slots free, instead of shedding
    /// immediately. `None` (the default) keeps the original
    /// shed-at-the-queue-bound behavior.
    pub spill: Option<SpillConfig>,
    /// Ceiling on simultaneously live connection threads. A connection
    /// arriving at the cap is dropped immediately (counted as a shed)
    /// rather than spawning an unbounded thread per socket.
    pub max_connections: usize,
    /// When set, flight-recorder dumps (panicking queries, the first
    /// degrade transition, graceful shutdown, the `"flight_dump"` op)
    /// are also written atomically to this file. The in-memory ring
    /// records regardless; this only adds the on-disk copy.
    pub flight_file: Option<PathBuf>,
}

impl ServerConfig {
    /// A config with default admission limits and worker count.
    pub fn new(addr: impl Into<String>, service: ServiceConfig) -> Self {
        Self {
            addr: addr.into(),
            service,
            admission: AdmissionConfig::default(),
            worker_threads: 0,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            drain_deadline: DEFAULT_DRAIN_DEADLINE,
            query_timeout: Some(Duration::from_secs(30)),
            metrics_addr: None,
            spill: None,
            max_connections: 1024,
            flight_file: None,
        }
    }

    /// The paper's primary workload as a service: Facebook MapReduce
    /// priors (50 maps per aggregator, 50 aggregators — the shape of
    /// [`TreeDef::example`]), the given deadline in model seconds, and
    /// trace seconds replayed at 5000x (200 µs of wall clock per model
    /// second).
    ///
    /// [`TreeDef::example`]: cedar_workloads::treedef::TreeDef::example
    pub fn facebook_mr(addr: impl Into<String>, deadline: f64) -> Self {
        Self::facebook_mr_sized(addr, deadline, 50, 50)
    }

    /// [`facebook_mr`](Self::facebook_mr) with explicit fan-outs, for
    /// smaller (or larger) trees than the paper's 2500-process default.
    pub fn facebook_mr_sized(addr: impl Into<String>, deadline: f64, k1: usize, k2: usize) -> Self {
        let workload = production::facebook_mr(k1, k2);
        let mut service = ServiceConfig::new(workload.priors, deadline);
        service.scale = TimeScale::new(Duration::from_micros(200));
        Self::new(addr, service)
    }
}

/// The server's exposition surface: one registry holding the runtime
/// metrics every query records into, plus the server's own request and
/// error-class counters and point-in-time gauges.
struct ServerMetrics {
    registry: Registry,
    runtime: Arc<RuntimeMetrics>,
    queries_inflight: Arc<Gauge>,
    admission_queue_depth: Arc<Gauge>,
    censored_fraction: Arc<Gauge>,
    spill_queue_depth: Arc<Gauge>,
    spill_disk_bytes: Arc<Gauge>,
    spill_frames_total: Arc<Gauge>,
    spill_replayed_total: Arc<Gauge>,
    checkpoint_age_ms: Arc<Gauge>,
    warm_restart: Arc<Gauge>,
    requests_query: Arc<Counter>,
    requests_stats: Arc<Counter>,
    requests_ping: Arc<Counter>,
    requests_metrics: Arc<Counter>,
    requests_shutdown: Arc<Counter>,
    requests_health: Arc<Counter>,
    errors_bad_request: Arc<Counter>,
    errors_shed: Arc<Counter>,
    errors_internal: Arc<Counter>,
    errors_timeout: Arc<Counter>,
    errors_unavailable: Arc<Counter>,
    errors_unknown_op: Arc<Counter>,
    errors_unsupported_version: Arc<Counter>,
}

impl ServerMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        let runtime = RuntimeMetrics::register(&registry);
        let op = |name: &str| {
            registry.counter(
                &format!("cedar_server_requests_total{{op=\"{name}\"}}"),
                "Requests dispatched, by op",
            )
        };
        let err = |class: &str| {
            registry.counter(
                &format!("cedar_server_errors_total{{class=\"{class}\"}}"),
                "Error responses, by class",
            )
        };
        Self {
            queries_inflight: registry.gauge(
                "cedar_server_queries_inflight",
                "Queries currently holding an admission permit",
            ),
            admission_queue_depth: registry.gauge(
                "cedar_server_admission_queue_depth",
                "Callers waiting in the admission queue",
            ),
            censored_fraction: registry.gauge(
                "cedar_censored_observation_fraction",
                "Fraction of stage-0 observations that were right-censored",
            ),
            spill_queue_depth: registry.gauge(
                "cedar_server_spill_queue_depth",
                "Frames parked in the disk-backed spill queue",
            ),
            spill_disk_bytes: registry.gauge(
                "cedar_server_spill_disk_bytes",
                "Current spill segment-file length in bytes",
            ),
            spill_frames_total: registry.gauge(
                "cedar_server_spill_frames_total",
                "Frames ever written to the spill segment file (monotonic; \
                 mirrored from the spill queue at scrape time)",
            ),
            spill_replayed_total: registry.gauge(
                "cedar_server_spill_replayed_total",
                "Spilled frames replayed to an execution slot (monotonic; \
                 mirrored from the spill queue at scrape time)",
            ),
            checkpoint_age_ms: registry.gauge(
                "cedar_server_checkpoint_age_ms",
                "Milliseconds since the last durable checkpoint (0 when \
                 checkpointing is off or nothing has been written)",
            ),
            warm_restart: registry.gauge(
                "cedar_server_warm_restart",
                "1 when the serving priors were restored from a checkpoint",
            ),
            requests_query: op(proto::OP_QUERY),
            requests_stats: op(proto::OP_STATS),
            requests_ping: op(proto::OP_PING),
            requests_metrics: op(proto::OP_METRICS),
            requests_shutdown: op(proto::OP_SHUTDOWN),
            requests_health: op(proto::OP_HEALTH),
            errors_bad_request: err(proto::ERR_BAD_REQUEST),
            errors_shed: err(proto::ERR_SHED),
            errors_internal: err(proto::ERR_INTERNAL),
            errors_timeout: err(proto::ERR_TIMEOUT),
            errors_unavailable: err(proto::ERR_UNAVAILABLE),
            errors_unknown_op: err(proto::ERR_UNKNOWN_OP),
            errors_unsupported_version: err(proto::ERR_UNSUPPORTED_VERSION),
            registry,
            runtime,
        }
    }

    fn on_request(&self, op: &str) {
        match op {
            proto::OP_QUERY => self.requests_query.inc(),
            proto::OP_STATS => self.requests_stats.inc(),
            proto::OP_PING => self.requests_ping.inc(),
            proto::OP_METRICS => self.requests_metrics.inc(),
            proto::OP_SHUTDOWN => self.requests_shutdown.inc(),
            proto::OP_HEALTH => self.requests_health.inc(),
            _ => {} // unknown ops surface via the unknown_op error class
        }
    }

    fn on_response(&self, resp: &Response) {
        match resp.code.as_deref() {
            Some(proto::ERR_BAD_REQUEST) => self.errors_bad_request.inc(),
            Some(proto::ERR_SHED) => self.errors_shed.inc(),
            Some(proto::ERR_INTERNAL) => self.errors_internal.inc(),
            Some(proto::ERR_TIMEOUT) => self.errors_timeout.inc(),
            Some(proto::ERR_UNAVAILABLE) => self.errors_unavailable.inc(),
            Some(proto::ERR_UNKNOWN_OP) => self.errors_unknown_op.inc(),
            Some(proto::ERR_UNSUPPORTED_VERSION) => self.errors_unsupported_version.inc(),
            _ => {}
        }
    }

    /// Publishes the point-in-time gauges and renders the whole
    /// registry as Prometheus text.
    #[allow(clippy::cast_precision_loss)] // gauge depths are far below 2^52
    fn render(&self, shared: &ServerShared) -> String {
        self.queries_inflight.set(shared.gate.in_flight() as f64);
        self.admission_queue_depth.set(shared.gate.queued() as f64);
        self.censored_fraction.set(self.runtime.censored_fraction());
        if let Some(spill) = &shared.spill {
            let stats = spill.stats();
            self.spill_queue_depth.set(stats.depth as f64);
            self.spill_disk_bytes.set(stats.disk_bytes as f64);
            self.spill_frames_total.set(stats.spilled_to_disk as f64);
            self.spill_replayed_total.set(stats.replayed as f64);
        }
        self.checkpoint_age_ms
            .set(shared.service.checkpoint_age_ms().unwrap_or(0) as f64);
        self.warm_restart
            .set(f64::from(u8::from(shared.service.warm_restart().is_some())));
        self.registry.render()
    }
}

/// State shared by every connection thread and the handle.
struct ServerShared {
    front: Frontend,
    service: AggregationService,
    gate: AdmissionGate,
    spill: Option<SpillQueue>,
    runtime: tokio::runtime::Handle,
    metrics: ServerMetrics,
    /// Admission sheds; the front end counts its connection-cap sheds.
    shed_total: AtomicU64,
    served_total: AtomicU64,
    query_timeout: Option<Duration>,
    query_seq: AtomicU64,
}

impl Handler for ServerShared {
    fn front(&self) -> &Frontend {
        &self.front
    }

    fn request(self: &Arc<Self>, req: &Request, _received: Instant) -> Response {
        self.metrics.on_request(&req.op);
        match req.op.as_str() {
            proto::OP_PING => Response::ok(),
            proto::OP_SHUTDOWN => Response::ok(),
            proto::OP_STATS => Response::with_stats(collect_stats(self)),
            proto::OP_METRICS => Response::with_metrics(self.metrics.render(self)),
            proto::OP_HEALTH => Response::with_health(collect_health(self)),
            proto::OP_QUERY => serve_query(self, req),
            other => Response::err_code(proto::ERR_UNKNOWN_OP, format!("unknown op {other:?}")),
        }
    }

    fn scrape(&self) -> String {
        self.metrics.render(self)
    }

    fn on_response(&self, resp: &Response) {
        self.metrics.on_response(resp);
    }
}

/// The service entry point; see the crate docs for a usage example.
pub struct Server;

impl Server {
    /// Binds, starts the runtime and the accept loop, and returns a
    /// handle controlling the running server.
    pub fn start(mut cfg: ServerConfig) -> io::Result<ServerHandle> {
        let mut builder = tokio::runtime::Builder::new_multi_thread();
        if cfg.worker_threads > 0 {
            builder.worker_threads(cfg.worker_threads);
        }
        let runtime = builder.enable_all().build()?;

        // Every query and every refit records into the server's
        // registry; the connection layer adds its own counters on top.
        let metrics = ServerMetrics::new();
        cfg.service.metrics = Some(metrics.runtime.clone());

        let (front, listeners) = Frontend::bind(FrontendConfig {
            addr: cfg.addr,
            scrape_addr: cfg.metrics_addr,
            max_connections: cfg.max_connections,
            idle_timeout: cfg.idle_timeout,
            drain_deadline: cfg.drain_deadline,
            node: "server".into(),
            role: "server".into(),
            flight: FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY),
            flight_file: cfg.flight_file,
        })?;
        let spill = cfg.spill.as_ref().map(SpillQueue::open).transpose()?;
        let shared = Arc::new(ServerShared {
            front,
            service: AggregationService::new(cfg.service),
            gate: AdmissionGate::new(cfg.admission),
            spill,
            runtime: runtime.handle().clone(),
            metrics,
            shed_total: AtomicU64::new(0),
            served_total: AtomicU64::new(0),
            query_timeout: cfg.query_timeout,
            query_seq: AtomicU64::new(0),
        });
        let serving = listeners.serve(&shared, || {})?;
        Ok(ServerHandle {
            shared,
            serving: Some(serving),
            runtime: Some(runtime),
        })
    }
}

/// Controls a running server; dropping it shuts the server down.
pub struct ServerHandle {
    shared: Arc<ServerShared>,
    serving: Option<Serving>,
    runtime: Option<tokio::runtime::Runtime>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.front.addr()
    }

    /// The bound HTTP metrics address, when
    /// [`ServerConfig::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.shared.front.scrape_addr()
    }

    /// Queries currently executing.
    pub fn in_flight(&self) -> usize {
        self.shared.gate.in_flight()
    }

    /// How the underlying service came up: `Some` when it restored a
    /// checkpoint (warm restart), `None` on a cold start.
    pub fn warm_restart(&self) -> Option<cedar_runtime::WarmRestart> {
        self.shared.service.warm_restart()
    }

    /// Why the service cold-started although checkpointing was enabled
    /// (missing directory, corrupt file, ...); `None` otherwise.
    pub fn cold_start_reason(&self) -> Option<String> {
        self.shared.service.cold_start_reason()
    }

    /// Initiates shutdown and blocks until in-flight queries have
    /// drained and every thread is joined.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shared.front.stop();
        self.finish()
    }

    /// Blocks until a client requests shutdown (the `"shutdown"` op),
    /// then drains and joins like [`shutdown`](Self::shutdown). This is
    /// what `cedar-cli serve` parks on.
    pub fn wait(mut self) -> io::Result<()> {
        self.finish()
    }

    /// Waits for the front end to stop and drain, then checkpoints and
    /// tears down the runtime.
    fn finish(&mut self) -> io::Result<()> {
        let Some(serving) = self.serving.take() else {
            return Ok(());
        };
        let mut result = serving.join();
        if result
            .as_ref()
            .is_err_and(|e| e.kind() == io::ErrorKind::TimedOut)
        {
            // Detached stragglers may still sit in `block_on`: leak the
            // runtime, whose teardown would drop tasks out from under
            // them.
            if let Some(rt) = self.runtime.take() {
                std::mem::forget(rt);
            }
            return result;
        }
        // One final durable checkpoint of the learned state. A service
        // without a checkpoint directory returns immediately.
        if let Err(e) = self.shared.service.checkpoint_now() {
            result = Err(io::Error::other(format!("final checkpoint failed: {e}")));
        }
        // All users of the runtime are joined; tear it down last.
        drop(self.runtime.take());
        result
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.front.stop();
        let _ = self.finish();
    }
}

fn collect_stats(shared: &ServerShared) -> ServerStats {
    let (cache_hits, cache_misses) = shared.service.cache_stats();
    ServerStats {
        completed: shared.service.completed(),
        refits: shared.service.refits(),
        epoch: shared.service.epoch(),
        cache_hits,
        cache_misses,
        in_flight: shared.gate.in_flight(),
        shed_total: shared.shed_total.load(Ordering::Acquire) + shared.front.shed_total(),
        served_total: shared.served_total.load(Ordering::Acquire),
        priors_age_queries: Some(shared.service.priors_age_queries() as u64),
        checkpoint_age_ms: shared.service.checkpoint_age_ms(),
        warm_restart: Some(shared.service.warm_restart().is_some()),
    }
}

/// One structured elasticity probe: the queue, spill, and staleness
/// numbers an orchestrator polls to decide whether to add capacity,
/// drain this instance, or leave it alone. The coarse state is derived
/// here, server-side, so every poller applies the same thresholds:
/// anything spilled (or a saturated in-memory queue) is `overloaded`,
/// a non-empty queue is `degraded`, otherwise `ok`.
fn collect_health(shared: &ServerShared) -> HealthStatus {
    let queued = shared.gate.queued();
    let spill = shared
        .spill
        .as_ref()
        .map(SpillQueue::stats)
        .unwrap_or_default();
    let max_queued = shared.gate.limits().max_queued;
    let state = if spill.depth > 0 || (queued > 0 && queued >= max_queued) {
        HealthState::Overloaded
    } else if queued > 0 {
        HealthState::Degraded
    } else {
        HealthState::Ok
    };
    if state != HealthState::Ok {
        shared.front.note_degraded();
    }
    let p99 = shared
        .metrics
        .runtime
        .wait_scan_seconds
        .snapshot()
        .quantile(0.99);
    HealthStatus {
        state,
        in_flight: shared.gate.in_flight(),
        queued,
        spilled: spill.depth,
        spill_disk_bytes: spill.disk_bytes,
        priors_epoch: shared.service.epoch(),
        priors_age_queries: shared.service.priors_age_queries() as u64,
        checkpoint_age_ms: shared.service.checkpoint_age_ms(),
        warm_restart: shared.service.warm_restart().is_some(),
        wait_scan_p99_seconds: if p99.is_nan() { 0.0 } else { p99 },
    }
}

/// The overload path: the in-memory admission queue was full, so the
/// encoded request frame is parked in the spill queue and the
/// connection thread waits for its FIFO turn plus a freed slot. The
/// frame handed back (possibly read from the segment file) is decoded
/// into the request that actually executes.
#[allow(clippy::result_large_err)] // the Err is the Response sent to the client
fn spill_and_replay(
    shared: &ServerShared,
    req: &Request,
) -> Result<(AdmissionPermit, Option<Request>), Response> {
    let Some(spill) = &shared.spill else {
        shared.shed_total.fetch_add(1, Ordering::AcqRel);
        return Err(Response::err_code(
            proto::ERR_SHED,
            Shed::QueueFull.to_string(),
        ));
    };
    let mut frame = Vec::new();
    req.encode_binary(&mut frame);
    let ticket = match spill.push(&frame) {
        Ok(ticket) => ticket,
        Err(shed) => {
            shared.shed_total.fetch_add(1, Ordering::AcqRel);
            return Err(Response::err_code(proto::ERR_SHED, shed.to_string()));
        }
    };
    match spill.await_replay(ticket, &shared.gate, shared.front.stop_flag()) {
        Ok((bytes, permit)) => {
            let replayed = Request::decode_binary(&bytes).map_err(|e| {
                Response::err_code(proto::ERR_INTERNAL, format!("replaying spilled frame: {e}"))
            })?;
            Ok((permit, Some(replayed)))
        }
        Err(shed) => {
            shared.shed_total.fetch_add(1, Ordering::AcqRel);
            Err(Response::err_code(proto::ERR_SHED, shed.to_string()))
        }
    }
}

fn serve_query(shared: &ServerShared, req: &Request) -> Response {
    let Some(def) = &req.tree else {
        return Response::err_code(proto::ERR_BAD_REQUEST, "query request without a tree");
    };
    let tree = match def.build() {
        Ok(tree) => tree,
        Err(e) => return Response::err_code(proto::ERR_BAD_REQUEST, format!("invalid tree: {e}")),
    };
    // The prepared contexts (and the refit history) are shaped by the
    // priors; a different query shape would corrupt both.
    let priors = shared.service.priors();
    if tree.levels() != priors.levels() {
        return Response::err_code(
            proto::ERR_BAD_REQUEST,
            format!(
                "tree has {} levels but the service priors have {}",
                tree.levels(),
                priors.levels()
            ),
        );
    }
    for level in 0..tree.levels() {
        if tree.stage(level).fanout != priors.stage(level).fanout {
            return Response::err_code(
                proto::ERR_BAD_REQUEST,
                format!(
                    "tree fan-out {} at level {level} differs from the service priors' {}",
                    tree.stage(level).fanout,
                    priors.stage(level).fanout
                ),
            );
        }
    }

    let query_id = shared.query_seq.fetch_add(1, Ordering::AcqRel);
    let started_unix_us = clock::unix_us();
    // What the service runs the query under: its default unless sent.
    let deadline = req.deadline.unwrap_or(shared.service.default_deadline());
    let expected = tree.total_processes();
    // Shed queries still leave a flight-ring entry: a dump taken after
    // an overload incident must show what was turned away, not only
    // what ran.
    let record_shed = || {
        shared.front.flight_record(FlightEntry {
            query_id,
            started_unix_us,
            latency_us: 0,
            deadline,
            quality: 0.0,
            included: 0,
            expected,
            shed: true,
            summary: TraceSummary::default(),
        });
    };

    let (_permit, replayed) = match shared.gate.try_admit() {
        Ok(permit) => (permit, None),
        Err(Shed::QueueFull) if shared.spill.is_some() => match spill_and_replay(shared, req) {
            Ok(pair) => pair,
            Err(resp) => {
                record_shed();
                return resp;
            }
        },
        Err(shed) => {
            shared.shed_total.fetch_add(1, Ordering::AcqRel);
            record_shed();
            return Response::err_code(proto::ERR_SHED, shed.to_string());
        }
    };
    shared.served_total.fetch_add(1, Ordering::AcqRel);
    // A replayed request executes from the bytes that came back off the
    // ring or the segment file, not from the copy validated above — the
    // spill round-trip is part of the serving path, not an aside.
    let req = replayed.as_ref().unwrap_or(req);
    let tree = match &replayed {
        None => tree,
        Some(r) => match r
            .tree
            .as_ref()
            .map(cedar_workloads::treedef::TreeDef::build)
        {
            Some(Ok(tree)) => tree,
            // The frame was validated before it was queued; a shape
            // change on the way back means the spill file lied.
            Some(Err(_)) | None => {
                return Response::err_code(
                    proto::ERR_INTERNAL,
                    "spilled frame replayed with a different shape than it was queued with",
                )
            }
        },
    };

    let epoch = shared.service.epoch();
    let trace = req
        .explain
        .unwrap_or(false)
        .then(|| Arc::new(QueryTrace::new()));
    let opts = QueryOptions {
        deadline: req.deadline,
        seed: req.seed,
        values: None,
        faults: None,
        trace: trace.clone(),
    };
    let start = clock::now();
    // A panicking or runaway query must produce a typed error, not a
    // dead connection: catch the panic, cap the execution time.
    let query_timeout = shared.query_timeout;
    let ran = catch_unwind(AssertUnwindSafe(|| {
        shared.runtime.block_on(async {
            let submit = shared.service.submit_with(tree, opts);
            match query_timeout {
                Some(cap) => tokio::time::timeout(cap, submit).await.ok(),
                None => Some(submit.await),
            }
        })
    }));
    let latency_ms = Millis::from_duration(start.elapsed()).get();
    let latency_us = start.elapsed().as_micros() as u64;
    let record_failed = || {
        shared.front.flight_record(FlightEntry {
            query_id,
            started_unix_us,
            latency_us,
            deadline,
            quality: 0.0,
            included: 0,
            expected,
            shed: false,
            summary: TraceSummary::default(),
        });
    };
    let outcome = match ran {
        Ok(Some(outcome)) => outcome,
        Ok(None) => {
            record_failed();
            return Response::err_code(
                proto::ERR_TIMEOUT,
                format!("query exceeded the server execution cap of {query_timeout:?}"),
            );
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            // A panicking query is exactly the incident the recorder
            // exists for: capture the ring (with this query's entry in
            // it) before anything else happens.
            record_failed();
            shared.front.flight_dump("panic");
            return Response::err_code(proto::ERR_INTERNAL, format!("query panicked: {msg}"));
        }
    };
    shared.front.flight_record(FlightEntry {
        query_id,
        started_unix_us,
        latency_us,
        deadline,
        quality: outcome.quality,
        included: outcome.included_outputs,
        expected,
        shed: false,
        summary: trace.as_ref().map_or(
            TraceSummary {
                arrivals: outcome.root_arrivals,
                rearms: 0,
                failures: outcome.failures,
            },
            |t| t.summary(),
        ),
    });

    Response::with_result(QueryResult {
        quality: outcome.quality,
        included_outputs: outcome.included_outputs,
        total_processes: outcome.total_processes,
        root_arrivals: outcome.root_arrivals,
        value_sum: outcome.value_sum,
        latency_ms,
        epoch,
        failures: (!outcome.failures.is_clean()).then_some(outcome.failures),
        trace: trace.map(|t| t.report()),
    })
}
