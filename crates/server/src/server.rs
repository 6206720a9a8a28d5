//! The TCP service: an accept loop, one OS thread per connection, and a
//! shared multi-threaded tokio runtime executing the queries.
//!
//! Connection threads parse [`proto`](crate::proto) frames, claim an
//! [`AdmissionGate`] slot, and bridge onto the runtime with
//! `Handle::block_on` — so slow clients tie up cheap OS threads, never
//! runtime workers. Shutdown is graceful: a flag flips, the accept loop
//! is woken by a self-connection, idle connections notice within one
//! poll interval, and in-flight queries run to completion before their
//! threads are joined.

use crate::admission::{AdmissionConfig, AdmissionGate, AdmissionPermit, Shed};
use crate::clock;
use crate::proto::{self, HealthState, HealthStatus, QueryResult, Request, Response, ServerStats};
use crate::spill::{SpillConfig, SpillQueue};
use crate::wire2::BinaryCodec;
use cedar_core::fs::write_atomic;
use cedar_core::{LockExt, Millis};
use cedar_runtime::{AggregationService, QueryOptions, RuntimeMetrics, ServiceConfig, TimeScale};
use cedar_telemetry::flight::DEFAULT_FLIGHT_CAPACITY;
use cedar_telemetry::{
    Counter, FlightDump, FlightEntry, FlightRecorder, Gauge, QueryTrace, Registry, TraceSummary,
};
use cedar_workloads::production;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often blocked reads wake up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(150);

/// Everything needed to start a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// The aggregation service configuration (priors, deadline, policy,
    /// time scale, refit interval, profile cache).
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
            idle_timeout: Duration::from_mins(1),
            drain_deadline: Duration::from_secs(10),
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

/// State shared by the accept loop, every connection thread, and the
/// handle.
struct ServerShared {
    service: AggregationService,
    gate: AdmissionGate,
    spill: Option<SpillQueue>,
    runtime: tokio::runtime::Handle,
    addr: SocketAddr,
    metrics: ServerMetrics,
    metrics_addr: Option<SocketAddr>,
    shutdown: AtomicBool,
    shed_total: AtomicU64,
    served_total: AtomicU64,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    max_connections: usize,
    idle_timeout: Duration,
    drain_deadline: Duration,
    query_timeout: Option<Duration>,
    flight: FlightRecorder,
    flight_file: Option<PathBuf>,
    query_seq: AtomicU64,
    degraded: AtomicBool,
}

impl ServerShared {
    /// Flips the shutdown flag and wakes the accept loop (idempotently).
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            self.flight_dump("shutdown");
            // The accept loops block in `accept`; a throwaway connection
            // gets each to re-check the flag.
            let _ = TcpStream::connect(self.addr);
            if let Some(addr) = self.metrics_addr {
                let _ = TcpStream::connect(addr);
            }
        }
    }

    /// Snapshots the flight ring, writing the dump to the configured
    /// file when one is set. Returns the dump for callers that serve it.
    fn flight_dump(&self, reason: &str) -> FlightDump {
        let dump = self
            .flight
            .dump("server", "server", reason, clock::unix_us());
        if let Some(path) = &self.flight_file {
            let _ = write_atomic(path, &dump.encode());
        }
        dump
    }

    /// Latches the first transition into a degraded state: exactly one
    /// `"degraded"` dump per boot, capturing the queries leading up to
    /// the first sign of trouble before the ring forgets them.
    fn note_degraded(&self) {
        if !self.degraded.swap(true, Ordering::AcqRel) {
            self.flight_dump("degraded");
        }
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

        // Every query (and the refit task) records into the server's
        // registry; the connection layer adds its own counters on top.
        let metrics = ServerMetrics::new();
        cfg.service.metrics = Some(metrics.runtime.clone());

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let metrics_listener = cfg
            .metrics_addr
            .as_deref()
            .map(TcpListener::bind)
            .transpose()?;
        let metrics_addr = metrics_listener
            .as_ref()
            .map(TcpListener::local_addr)
            .transpose()?;
        let spill = cfg.spill.as_ref().map(SpillQueue::open).transpose()?;
        let shared = Arc::new(ServerShared {
            service: AggregationService::new(cfg.service),
            gate: AdmissionGate::new(cfg.admission),
            spill,
            runtime: runtime.handle().clone(),
            addr,
            metrics,
            metrics_addr,
            shutdown: AtomicBool::new(false),
            shed_total: AtomicU64::new(0),
            served_total: AtomicU64::new(0),
            conn_threads: Mutex::new(Vec::new()),
            max_connections: cfg.max_connections.max(1),
            idle_timeout: cfg.idle_timeout.max(POLL_INTERVAL),
            drain_deadline: cfg.drain_deadline,
            query_timeout: cfg.query_timeout,
            flight: FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY),
            flight_file: cfg.flight_file.clone(),
            query_seq: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
        });

        let accept = {
            let shared = shared.clone();
            thread::Builder::new()
                .name("cedar-accept".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        let scrape = metrics_listener
            .map(|listener| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name("cedar-metrics".into())
                    .spawn(move || metrics_http_loop(&listener, &shared))
            })
            .transpose()?;

        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            scrape,
            runtime: Some(runtime),
        })
    }
}

/// Controls a running server; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
    scrape: Option<JoinHandle<()>>,
    runtime: Option<tokio::runtime::Runtime>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound HTTP metrics address, when
    /// [`ServerConfig::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.shared.metrics_addr
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
        self.finish()
    }

    /// Blocks until a client requests shutdown (the `"shutdown"` op),
    /// then drains and joins like [`shutdown`](Self::shutdown). This is
    /// what `cedar-cli serve` parks on.
    pub fn wait(mut self) -> io::Result<()> {
        if let Some(accept) = self.accept.take() {
            accept
                .join()
                .map_err(|_| io::Error::other("accept thread panicked"))?;
        }
        self.finish()
    }

    fn finish(&mut self) -> io::Result<()> {
        self.shared.begin_shutdown();
        let mut result = Ok(());
        if let Some(accept) = self.accept.take() {
            if accept.join().is_err() {
                result = Err(io::Error::other("accept thread panicked"));
            }
        }
        if let Some(scrape) = self.scrape.take() {
            if scrape.join().is_err() {
                result = Err(io::Error::other("metrics thread panicked"));
            }
        }
        // Drain with a deadline: connection threads normally notice the
        // shutdown flag within one poll interval, but a thread wedged in
        // a query must not wedge shutdown with it.
        let drain_until = clock::now() + self.shared.drain_deadline;
        let mut conns = std::mem::take(&mut *self.shared.conn_threads.lock().unpoisoned());
        loop {
            let mut pending = Vec::new();
            for conn in conns {
                if conn.is_finished() {
                    if conn.join().is_err() {
                        result = Err(io::Error::other("connection thread panicked"));
                    }
                } else {
                    pending.push(conn);
                }
            }
            conns = pending;
            if conns.is_empty() {
                break;
            }
            if clock::now() >= drain_until {
                // Detach the stragglers: they hold only their sockets and
                // will die with the process. Leak the runtime too — its
                // teardown would drop tasks out from under their
                // `block_on` calls.
                let stranded = conns.len();
                drop(conns);
                if let Some(rt) = self.runtime.take() {
                    std::mem::forget(rt);
                }
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("drain deadline exceeded; {stranded} connection(s) detached"),
                ));
            }
            thread::sleep(POLL_INTERVAL.min(Duration::from_millis(20)));
        }
        // One final durable checkpoint of the learned state, while the
        // runtime is still alive to run the refit task. A service
        // without a checkpoint directory returns immediately.
        if let Some(rt) = &self.runtime {
            let service = &self.shared.service;
            match rt.block_on(async {
                tokio::time::timeout(Duration::from_secs(5), service.checkpoint_now()).await
            }) {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => {
                    result = Err(io::Error::other(format!("final checkpoint failed: {e}")));
                }
                Err(_) => {
                    result = Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "final checkpoint timed out",
                    ));
                }
            }
        }
        // All users of the runtime are joined; tear it down last.
        drop(self.runtime.take());
        result
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// Accepts connections until shutdown, one handler thread each.
fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Reap finished handlers and enforce the connection ceiling
        // before spawning: holding the registry lock across the spawn
        // keeps the live-thread count exact. A connection over the cap
        // is shed by dropping its socket — the unbounded resource here
        // is OS threads, and the cap is the choke point that bounds the
        // spawn below.
        let mut threads = shared.conn_threads.lock().unpoisoned();
        threads.retain(|t| !t.is_finished());
        let at_capacity = threads.len() >= shared.max_connections;
        if at_capacity {
            shared.shed_total.fetch_add(1, Ordering::AcqRel);
            drop(stream);
            continue;
        }
        let handler = {
            let shared = shared.clone();
            thread::Builder::new()
                .name("cedar-conn".into())
                .spawn(move || handle_connection(&shared, stream))
        };
        if let Ok(handler) = handler {
            threads.push(handler);
        }
    }
}

/// A `Read` over a timeout-armed stream that retries poll ticks until
/// data arrives, the per-frame deadline passes, or the server shuts
/// down. The deadline is the slowloris defense: without it, a client
/// dripping (or never sending) bytes pins this connection's thread
/// forever.
struct PatientReader<'a> {
    stream: &'a TcpStream,
    shutdown: &'a AtomicBool,
    deadline: Instant,
}

impl Read for PatientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match (&mut self.stream).read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.shutdown.load(Ordering::Acquire) {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "server shutting down",
                        ));
                    }
                    if clock::now() >= self.deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "idle timeout: no complete frame",
                        ));
                    }
                }
                other => return other,
            }
        }
    }
}

/// Serves one connection: a request/response loop until EOF, error, or
/// shutdown.
fn handle_connection(shared: &Arc<ServerShared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    // A client that stops draining its socket must not pin this thread
    // in `write_frame` either.
    let _ = stream.set_write_timeout(Some(shared.idle_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut reader = PatientReader {
            stream: &stream,
            shutdown: &shared.shutdown,
            deadline: clock::now() + shared.idle_timeout,
        };
        let raw = match proto::read_frame_raw(&mut reader) {
            Ok(Some(raw)) => raw,
            Ok(None) => return, // clean EOF
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // The frame was consumed whole; the stream is still
                // aligned, so report and keep serving.
                let resp = Response::err_code(proto::ERR_BAD_REQUEST, format!("bad request: {e}"));
                shared.metrics.on_response(&resp);
                if proto::write_frame(&mut &stream, &resp).is_err() {
                    return;
                }
                continue;
            }
            Err(_) => return, // shutdown tick, idle timeout, or I/O error
        };
        // Answer unknown-version frames in the legacy framing, which
        // every client decodes, with a typed error instead of the JSON
        // parse failure the body would otherwise produce.
        if !raw.is_supported() {
            let resp = Response::err_code(
                proto::ERR_UNSUPPORTED_VERSION,
                format!(
                    "unsupported protocol version {} (this server speaks 0, {} and {})",
                    raw.version,
                    proto::PROTO_VERSION,
                    proto::PROTO_VERSION_BINARY
                ),
            );
            shared.metrics.on_response(&resp);
            if proto::write_frame(&mut &stream, &resp).is_err() {
                return;
            }
            continue;
        }
        let req: Request = match raw.decode_auto() {
            Ok(req) => req,
            Err(e) => {
                let resp = Response::err_code(proto::ERR_BAD_REQUEST, format!("bad request: {e}"));
                shared.metrics.on_response(&resp);
                if write_frame_matching(&stream, raw.version, &resp).is_err() {
                    return;
                }
                continue;
            }
        };
        let resp = dispatch(shared, &req);
        shared.metrics.on_response(&resp);
        // Reply in the framing the request arrived in.
        if write_frame_matching(&stream, raw.version, &resp).is_err() {
            return;
        }
        if req.op == proto::OP_SHUTDOWN {
            shared.begin_shutdown();
            return;
        }
    }
}

/// Writes `resp` in the framing version the request arrived in, so old
/// clients keep receiving bare-JSON frames and binary clients get
/// binary replies.
fn write_frame_matching(stream: &TcpStream, version: u8, resp: &Response) -> io::Result<()> {
    if version == 0 {
        proto::write_frame(&mut &*stream, resp)
    } else if version == proto::PROTO_VERSION_BINARY {
        proto::write_frame_binary(&mut &*stream, resp)
    } else {
        proto::write_frame_versioned(&mut &*stream, resp)
    }
}

fn dispatch(shared: &ServerShared, req: &Request) -> Response {
    shared.metrics.on_request(&req.op);
    if shared.shutdown.load(Ordering::Acquire) && req.op != proto::OP_SHUTDOWN {
        return Response::err_code(proto::ERR_UNAVAILABLE, "server shutting down");
    }
    match req.op.as_str() {
        proto::OP_PING => Response::ok(),
        proto::OP_SHUTDOWN => Response::ok(),
        proto::OP_STATS => Response::with_stats(collect_stats(shared)),
        proto::OP_METRICS => Response::with_metrics(shared.metrics.render(shared)),
        proto::OP_HEALTH => Response::with_health(collect_health(shared)),
        proto::OP_FLIGHT_DUMP => Response::with_metrics(
            serde_json::to_string(&shared.flight_dump("operator")).unwrap_or_default(),
        ),
        proto::OP_QUERY => serve_query(shared, req),
        other => Response::err_code(proto::ERR_UNKNOWN_OP, format!("unknown op {other:?}")),
    }
}

/// Serves Prometheus scrapes over plain HTTP: reads (and discards) the
/// request head, then writes one `200 text/plain` response and closes.
fn metrics_http_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    loop {
        let Ok(stream) = listener.accept().map(|(s, _)| s) else {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        serve_scrape(shared, stream);
    }
}

fn serve_scrape(shared: &Arc<ServerShared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    // Read until the blank line ending the request head; a scraper that
    // cannot deliver its head within a few poll ticks is dropped rather
    // than allowed to pin this thread (slowloris defense, as on the
    // frame port).
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let deadline = clock::now() + shared.idle_timeout.min(Duration::from_secs(2));
    loop {
        match (&stream).read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::Acquire) || clock::now() >= deadline {
                    return;
                }
            }
            Err(_) => return,
        }
    }
    let body = shared.metrics.render(shared);
    let header = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = (&stream)
        .write_all(header.as_bytes())
        .and_then(|()| (&stream).write_all(body.as_bytes()));
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
        shed_total: shared.shed_total.load(Ordering::Acquire),
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
        shared.note_degraded();
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
    match spill.await_replay(ticket, &shared.gate, &shared.shutdown) {
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
    let deadline = req.deadline.unwrap_or(0.0);
    let expected = tree.total_processes();
    // Shed queries still leave a flight-ring entry: a dump taken after
    // an overload incident must show what was turned away, not only
    // what ran.
    let record_shed = || {
        shared.flight.record(FlightEntry {
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
        shared.flight.record(FlightEntry {
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
            shared.flight_dump("panic");
            return Response::err_code(proto::ERR_INTERNAL, format!("query panicked: {msg}"));
        }
    };
    shared.flight.record(FlightEntry {
        query_id,
        started_unix_us,
        latency_us,
        deadline,
        quality: outcome.quality,
        included: outcome.included_outputs,
        expected,
        shed: false,
        summary: trace.as_ref().map_or_else(
            || outcome.failures.trace_summary(outcome.root_arrivals),
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
