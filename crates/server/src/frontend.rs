//! The one listener/connection layer every Cedar endpoint serves
//! through. The TCP [`server`](crate::server) and each mesh node are
//! [`Handler`]s — sets of ops — and this module owns everything between
//! the socket and their `match req.op`: the accept loop and its cap,
//! per-frame idle deadlines, binary replies and typed refusals, the HTTP
//! scrape endpoint, the flight recorder (its ring, its latch and the
//! `flight_dump` op), and stop and drain.
//!
//! Nothing polls. The idle deadline is the socket's read timeout; stop
//! shuts the *read* half of every registered connection, which wakes a
//! blocked read at once while a reply being computed still goes out. A
//! connection racing [`Frontend::stop`] is refused or woken because the
//! accept loop re-checks the flag under the lock the stop sweeps
//! (model-checked in `crates/analysis/tests/loom_frontend.rs`).

use crate::clock;
use crate::proto::{self, RawFrame, Request, Response};
use cedar_core::fs::write_atomic;
use cedar_core::LockExt;
use cedar_telemetry::{FlightDump, FlightEntry, FlightRecorder};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Per-frame read budget unless a caller needs another: the server's
/// default and every mesh node's.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_mins(1);
/// How long a stop waits for live connections by default.
pub const DEFAULT_DRAIN_DEADLINE: Duration = Duration::from_secs(10);
/// The OS refuses a zero socket timeout; budgets round up to this.
const MIN_TIMEOUT: Duration = Duration::from_millis(1);
/// Longest a scraper may take to deliver its HTTP request head.
const SCRAPE_HEAD_BUDGET: Duration = Duration::from_secs(2);

/// An endpoint's ops and what it renders, counts and tears down.
pub trait Handler: Send + Sync + 'static {
    /// The layer state this handler serves under.
    fn front(&self) -> &Frontend;

    /// Sees every supported frame before the layer decodes a
    /// [`Request`] from it: `Some(keep_open)` when the handler consumed
    /// the frame (writing any reply itself on `conn`). `received` is when
    /// the frame came off the socket.
    fn frame(
        self: &Arc<Self>,
        _raw: &RawFrame,
        _conn: &TcpStream,
        _received: Instant,
    ) -> Option<bool> {
        None
    }

    /// Answers one client request.
    fn request(self: &Arc<Self>, req: &Request, received: Instant) -> Response;

    /// The Prometheus text page the scrape endpoint serves.
    fn scrape(&self) -> String;

    /// Observes every response the layer writes.
    fn on_response(&self, _resp: &Response) {}

    /// Stops the endpoint; the `shutdown` op calls it after replying.
    fn stop(&self) {
        self.front().stop();
    }
}

/// Where and how a [`Frontend`] listens.
#[derive(Debug)]
pub struct FrontendConfig {
    /// Frame listener bind address (port `0` picks a free one).
    pub addr: String,
    /// Plain-HTTP scrape endpoint bind address, if one is wanted.
    pub scrape_addr: Option<String>,
    /// Live connections at which a new one is dropped as a shed.
    pub max_connections: usize,
    /// Budget for one complete request frame; also the write timeout.
    pub idle_timeout: Duration,
    /// How long a stop waits for live connections before detaching them.
    pub drain_deadline: Duration,
    /// Node name stamped on flight dumps.
    pub node: String,
    /// Role stamped on flight dumps.
    pub role: String,
    /// The always-on ring of recent query summaries.
    pub flight: FlightRecorder,
    /// File each flight dump is also written to atomically, if set.
    pub flight_file: Option<PathBuf>,
}

/// The layer's state, owned by its handler.
#[derive(Debug)]
pub struct Frontend {
    addr: SocketAddr,
    scrape_addr: Option<SocketAddr>,
    max_connections: usize,
    idle_timeout: Duration,
    drain_deadline: Duration,
    stopped: AtomicBool,
    shed_total: AtomicU64,
    registry: Mutex<Registry>,
    /// Signalled as each connection thread returns.
    drained: Condvar,
    node: String,
    role: String,
    flight: FlightRecorder,
    flight_file: Option<PathBuf>,
    degraded: AtomicBool,
}

/// Live connections, for the cap, the stop sweep and the drain.
#[derive(Debug, Default)]
struct Registry {
    /// Each thread and its socket, weak so the socket closes when the
    /// thread lets go.
    conns: Vec<(Weak<TcpStream>, JoinHandle<()>)>,
    /// Connection threads that have not returned yet.
    live: usize,
}

/// The sockets [`Frontend::bind`] opened, for [`Listeners::serve`].
#[derive(Debug)]
pub struct Listeners {
    frames: TcpListener,
    scrape: Option<TcpListener>,
}

/// The layer's accept (and scrape) threads.
#[derive(Debug)]
pub struct Serving(Vec<JoinHandle<io::Result<()>>>);

impl Frontend {
    /// Binds the frame listener and, if asked, the scrape endpoint.
    pub fn bind(cfg: FrontendConfig) -> io::Result<(Self, Listeners)> {
        let frames = TcpListener::bind(&cfg.addr)?;
        let scrape = cfg.scrape_addr.map(TcpListener::bind).transpose()?;
        let front = Frontend {
            addr: frames.local_addr()?,
            scrape_addr: scrape.as_ref().map(TcpListener::local_addr).transpose()?,
            max_connections: cfg.max_connections.max(1),
            idle_timeout: cfg.idle_timeout.max(MIN_TIMEOUT),
            drain_deadline: cfg.drain_deadline,
            stopped: AtomicBool::new(false),
            shed_total: AtomicU64::new(0),
            registry: Mutex::default(),
            drained: Condvar::new(),
            node: cfg.node,
            role: cfg.role,
            flight: cfg.flight,
            flight_file: cfg.flight_file,
            degraded: AtomicBool::new(false),
        };
        Ok((front, Listeners { frames, scrape }))
    }

    /// The bound frame address (the real port when `:0` was asked).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound scrape address, if one was asked for.
    #[must_use]
    pub fn scrape_addr(&self) -> Option<SocketAddr> {
        self.scrape_addr
    }

    /// Connections dropped at the connection cap since start.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Acquire)
    }

    /// The stop flag, for waits that must give up when the layer stops.
    pub(crate) fn stop_flag(&self) -> &AtomicBool {
        &self.stopped
    }

    fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Stops serving; `true` from the call that stopped it. Dumps the
    /// flight ring, shuts the read half of every live connection, and
    /// wakes both accept loops.
    pub fn stop(&self) -> bool {
        if self.stopped.swap(true, Ordering::AcqRel) {
            return false;
        }
        self.flight_dump("shutdown");
        for (socket, _) in &self.registry.lock().unpoisoned().conns {
            if let Some(socket) = socket.upgrade() {
                let _ = socket.shutdown(Shutdown::Read);
            }
        }
        // The accept loops block in `accept`; a throwaway connection
        // gets each to re-check the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(addr) = self.scrape_addr {
            let _ = TcpStream::connect(addr);
        }
        true
    }

    /// Records one query summary in the flight ring.
    pub fn flight_record(&self, entry: FlightEntry) {
        self.flight.record(entry);
    }

    /// Snapshots the flight ring, also writing it to the configured file.
    pub fn flight_dump(&self, reason: &str) -> FlightDump {
        let dump = self
            .flight
            .dump(&*self.node, &*self.role, reason, clock::unix_us());
        if let Some(path) = &self.flight_file {
            let _ = write_atomic(path, &dump.encode());
        }
        dump
    }

    /// Latches the first transition into a degraded state: exactly one
    /// `"degraded"` dump per boot, capturing the queries leading up to
    /// the first sign of trouble before the ring forgets them.
    pub fn note_degraded(&self) {
        if !self.degraded.swap(true, Ordering::AcqRel) {
            self.flight_dump("degraded");
        }
    }

    /// Waits, up to the drain deadline, for every connection thread to
    /// return, then joins them. Stragglers are detached: they hold only
    /// their sockets and die with the process.
    fn drain(&self) -> io::Result<()> {
        let registry = self.registry.lock().unpoisoned();
        let (mut registry, _) = self
            .drained
            .wait_timeout_while(registry, self.drain_deadline, |r| r.live > 0)
            .unpoisoned();
        let (stranded, conns) = (registry.live, std::mem::take(&mut registry.conns));
        drop(registry);
        if stranded > 0 {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("drain deadline exceeded; {stranded} connection(s) detached"),
            ));
        }
        let panicked = conns.into_iter().filter_map(|(_, t)| t.join().err());
        match panicked.count() {
            0 => Ok(()),
            n => Err(io::Error::other(format!(
                "{n} connection thread(s) panicked"
            ))),
        }
    }
}

impl Listeners {
    /// Starts the accept thread (and the scrape thread, if bound).
    /// `on_exit` runs on the accept thread once the layer has stopped
    /// and drained: where a caller tears down what connections use.
    pub fn serve<H: Handler>(
        self,
        handler: &Arc<H>,
        on_exit: impl FnOnce() + Send + 'static,
    ) -> io::Result<Serving> {
        let (h, frames) = (Arc::clone(handler), self.frames);
        let accept = thread::Builder::new()
            .name("cedar-accept".into())
            .spawn(move || {
                accept_loop(&h, &frames);
                // Closed before the drain, so nothing queues behind it.
                drop(frames);
                let drained = h.front().drain();
                on_exit();
                drained
            })?;
        let mut threads = vec![accept];
        if let Some(scrape) = self.scrape {
            let h = Arc::clone(handler);
            threads.push(
                thread::Builder::new()
                    .name("cedar-metrics".into())
                    .spawn(move || {
                        scrape_loop(&*h, &scrape);
                        Ok(())
                    })?,
            );
        }
        Ok(Serving(threads))
    }
}

impl Serving {
    /// Blocks until the layer stops, its connections have drained and
    /// `on_exit` has run. A drain that detached connections fails with
    /// [`io::ErrorKind::TimedOut`].
    pub fn join(self) -> io::Result<()> {
        self.0
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|_| Err(io::Error::other("front-end thread panicked")))
            })
            .fold(Ok(()), io::Result::and)
    }
}

/// Counts a connection thread out as it returns (or unwinds), waking a
/// drain waiting for the last one.
struct Live<'a>(&'a Frontend);

impl Drop for Live<'_> {
    fn drop(&mut self) {
        self.0.registry.lock().unpoisoned().live -= 1;
        self.0.drained.notify_all();
    }
}

/// Accepts connections until stop, one handler thread each.
fn accept_loop<H: Handler>(handler: &Arc<H>, listener: &TcpListener) {
    let front = handler.front();
    for incoming in listener.incoming() {
        // Re-check the flag under the lock the stop sweep takes: a
        // connection racing stop() is refused here or woken there.
        let mut registry = front.registry.lock().unpoisoned();
        if front.is_stopped() {
            return;
        }
        let Ok(stream) = incoming else { continue };
        // The ceiling bounds the spawn below: the unbounded resource is
        // OS threads, so a connection over it is dropped unanswered.
        registry.conns.retain(|(_, t)| !t.is_finished());
        let at_capacity = registry.live >= front.max_connections;
        if at_capacity {
            front.shed_total.fetch_add(1, Ordering::AcqRel);
            continue;
        }
        let socket = Arc::new(stream);
        let weak = Arc::downgrade(&socket);
        let h = Arc::clone(handler);
        let spawned = thread::Builder::new()
            .name("cedar-conn".into())
            .spawn(move || {
                let _live = Live(h.front());
                serve_connection(&h, &socket);
            });
        if let Ok(thread) = spawned {
            registry.live += 1;
            registry.conns.push((weak, thread));
        }
    }
}

/// Serves one connection: a frame/reply loop until EOF, an error, the
/// idle deadline, or stop.
fn serve_connection<H: Handler>(handler: &Arc<H>, stream: &TcpStream) {
    let front = handler.front();
    // A client that stops draining its socket must not pin this thread
    // in a write either.
    let _ = stream.set_write_timeout(Some(front.idle_timeout));
    let _ = stream.set_nodelay(true);
    let mut frame = Deadlined::new(stream, front.idle_timeout);
    let bad_request =
        |e: io::Error| Response::err_code(proto::ERR_BAD_REQUEST, format!("bad request: {e}"));
    while !front.is_stopped() {
        frame.deadline = clock::now() + front.idle_timeout;
        let (legacy, resp, close) = match proto::read_frame_raw(&mut frame) {
            // An empty frame was consumed whole, so the stream is still
            // aligned; an oversized one's body was never read, so the
            // connection closes after the refusal.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::FileTooLarge
                ) =>
            {
                let close = e.kind() == io::ErrorKind::FileTooLarge;
                (true, bad_request(e), close)
            }
            Ok(None) | Err(_) => return,
            // Any framing but binary — a JSON client's included — gets
            // one refusal and the connection keeps serving.
            Ok(Some(raw)) if !raw.is_supported() => (true, unsupported(raw.version), false),
            Ok(Some(raw)) => {
                let received = clock::now();
                if let Some(keep_open) = handler.frame(&raw, stream, received) {
                    if keep_open {
                        continue;
                    }
                    return;
                }
                let resp = match raw.decode_auto::<Request>() {
                    Ok(req) if req.op == proto::OP_SHUTDOWN => {
                        let resp = handler.request(&req, received);
                        let _ = reply(&**handler, stream, false, &resp);
                        handler.stop();
                        return;
                    }
                    Ok(_) if front.is_stopped() => {
                        Response::err_code(proto::ERR_UNAVAILABLE, "shutting down")
                    }
                    // The layer owns the flight ring, so it answers the
                    // operator's dump for every handler.
                    Ok(req) if req.op == proto::OP_FLIGHT_DUMP => Response::with_metrics(
                        serde_json::to_string(&front.flight_dump("operator")).unwrap_or_default(),
                    ),
                    Ok(req) => handler.request(&req, received),
                    Err(e) => bad_request(e),
                };
                (false, resp, false)
            }
        };
        if reply(&**handler, stream, legacy, &resp).is_err() || close {
            return;
        }
    }
}

fn unsupported(version: u8) -> Response {
    Response::err_code(
        proto::ERR_UNSUPPORTED_VERSION,
        format!(
            "unsupported protocol version {version} (this build speaks only the binary framing, \
             version {})",
            proto::PROTO_VERSION_BINARY
        ),
    )
}

/// Writes `resp` once the handler has observed it: in the binary
/// framing, or — for the refusal of a frame that never decoded — in the
/// legacy bare-JSON framing every client can read.
fn reply<H: Handler>(
    handler: &H,
    stream: &TcpStream,
    legacy: bool,
    resp: &Response,
) -> io::Result<()> {
    handler.on_response(resp);
    let mut w = stream;
    if legacy {
        proto::write_frame(&mut w, resp)
    } else {
        proto::write_frame_binary(&mut w, resp)
    }
}

/// Serves Prometheus scrapes over plain HTTP until stop: reads (and
/// discards) the request head, writes one `200 text/plain` response
/// with the handler's page, and closes.
fn scrape_loop<H: Handler>(handler: &H, listener: &TcpListener) {
    let front = handler.front();
    for incoming in listener.incoming() {
        if front.is_stopped() {
            return;
        }
        let Ok(stream) = incoming else { continue };
        let _ = stream.set_nodelay(true);
        // A scraper that cannot deliver its head (up to a blank line, or
        // 8 KiB) within the budget is dropped rather than allowed to pin
        // this thread.
        let mut head = Deadlined::new(&stream, front.idle_timeout.min(SCRAPE_HEAD_BUDGET));
        let (mut seen, mut buf) = (Vec::new(), [0u8; 1024]);
        let complete = loop {
            match head.read(&mut buf) {
                Ok(0) | Err(_) => break false,
                Ok(n) => seen.extend_from_slice(&buf[..n]),
            }
            if seen.windows(4).any(|w| w == b"\r\n\r\n") || seen.len() > 8192 {
                break true;
            }
        };
        if !complete {
            continue;
        }
        let body = handler.scrape();
        let header = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let mut w = &stream;
        let _ = w
            .write_all(header.as_bytes())
            .and_then(|()| w.write_all(body.as_bytes()));
    }
}

/// A `Read` bounded by a deadline the caller moves per frame: a client
/// dripping bytes cannot hold the thread past it. The socket's timeout
/// is re-armed to the time left only when off by more than
/// [`MIN_TIMEOUT`], so a frame that arrives whole costs no extra syscall.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    /// The read timeout the socket currently carries.
    armed: Duration,
}

impl<'a> Deadlined<'a> {
    fn new(stream: &'a TcpStream, budget: Duration) -> Self {
        Self {
            stream,
            deadline: clock::now() + budget,
            armed: Duration::ZERO,
        }
    }
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(clock::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "idle timeout: no complete frame",
            ));
        }
        let arm = left.max(MIN_TIMEOUT);
        if self.armed.abs_diff(arm) > MIN_TIMEOUT {
            self.stream.set_read_timeout(Some(arm))?;
            self.armed = arm;
        }
        let mut r = self.stream;
        r.read(buf)
    }
}
