//! Parent-side peer links and partial-result routing.
//!
//! A [`PeerLink`] is the parent's half of one tree edge: it owns the
//! TCP connection to a child, performs the `hello`/`hello_ack` topology
//! handshake, drives the heartbeat loop, and reads everything the child
//! pushes back (heartbeat acks and partial results). Failure detection
//! lives here: a send error or [`Topology::miss_limit`] consecutive
//! heartbeat intervals without an ack marks the link down, and the
//! maintenance thread keeps trying to re-establish it, so a restarted
//! peer rejoins without operator action.
//!
//! Partial-result frames are fanned out by query through a [`Router`]:
//! query execution registers a delivery hook per in-flight query — a
//! `try_send` into the bounded tokio channel its aggregation pass or
//! root gather reads on the node's runtime — the link's reader thread
//! runs it without blocking, and frames for queries that already
//! departed are counted instead of delivered.
//!
//! [`Topology::miss_limit`]: crate::topology::Topology::miss_limit

use crate::metrics::PeerMetrics;
use crate::wire::{self, MeshMsg};
use cedar_core::LockExt;
use cedar_server::clock;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Takes one partial-result frame for its query; `false` when it could
/// not (the pass's or gather's channel is full, or it already left).
type Hook = Box<dyn Fn(MeshMsg) -> bool + Send>;

/// Fans incoming partial-result frames out to their queries' passes and
/// gathers, straight from the network reader: nothing sits between a
/// frame coming off the socket and the loop's own channel. Delivery
/// never blocks the reader: a refusing or missing hook drops the frame
/// (and the caller counts it), exactly like the engine's bounded
/// channel boundary.
#[derive(Default)]
pub struct Router {
    routes: Mutex<HashMap<u64, Hook>>,
}

impl fmt::Debug for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Router")
            .field("routes", &self.routes.lock().unpoisoned().len())
            .finish()
    }
}

impl Router {
    /// An empty router.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a query's delivery hook. It runs on a link's reader
    /// thread with the route table locked, so it must not block: a
    /// `try_send` into a bounded channel, never a `send`. A second
    /// registration for the same id replaces the first (stale entries
    /// cannot shadow a new query).
    pub fn register(&self, query_id: u64, hook: impl Fn(MeshMsg) -> bool + Send + 'static) {
        self.routes
            .lock()
            .unpoisoned()
            .insert(query_id, Box::new(hook));
    }

    /// Removes a query's route; frames arriving afterwards are reported
    /// as undeliverable by [`deliver`](Router::deliver).
    pub fn unregister(&self, query_id: u64) {
        self.routes.lock().unpoisoned().remove(&query_id);
    }

    /// Removes every route, closing each pass's and gather's channel.
    pub fn clear(&self) {
        self.routes.lock().unpoisoned().clear();
    }

    /// Hands a partial-result frame to its query's hook. Returns `false`
    /// when the query is not registered or the hook refused it — the
    /// frame is dropped either way.
    pub fn deliver(&self, msg: MeshMsg) -> bool {
        let MeshMsg::Partial { query_id, .. } = &msg else {
            return false;
        };
        let routes = self.routes.lock().unpoisoned();
        routes.get(query_id).is_some_and(|hook| hook(msg))
    }
}

/// Everything a link needs to introduce itself and pace its probes.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// The parent's node name (sent in `hello` and `heartbeat`).
    pub self_name: String,
    /// The parent's role spelling.
    pub self_role: String,
    /// The child's node name (for metrics and logs).
    pub peer_name: String,
    /// The child's `host:port`.
    pub peer_addr: String,
    /// Topology handshake token; both ends must agree.
    pub topology_hash: u64,
    /// Heartbeat interval.
    pub heartbeat: Duration,
    /// Consecutive missed heartbeats before the link is declared down.
    pub miss_limit: u32,
}

/// The parent's half of one tree edge. See the module docs.
#[derive(Debug)]
pub struct PeerLink {
    cfg: LinkConfig,
    /// The live connection's writer half; `None` while down.
    stream: Mutex<Option<TcpStream>>,
    up: AtomicBool,
    /// Last instant the child proved liveness (handshake or ack).
    last_seen: Mutex<Instant>,
    seq: AtomicU64,
    stop: AtomicBool,
    metrics: PeerMetrics,
    router: Arc<Router>,
    /// Partial frames that arrived with no registered query.
    unroutable: Arc<cedar_telemetry::Counter>,
    /// The outstanding heartbeat probe: `(seq, sent_unix_us)`. The
    /// maintenance loop sends exactly one probe per interval, so one
    /// slot is enough to match acks to sends.
    probe: Mutex<Option<(u64, u64)>>,
    /// Latest child−parent clock offset estimate, microseconds.
    offset_us: AtomicI64,
    /// Whether any offset estimate has landed yet.
    offset_known: AtomicBool,
}

impl PeerLink {
    /// Creates the link and starts its maintenance thread (connect,
    /// handshake, heartbeat, failure detection). Returns immediately;
    /// [`is_up`](PeerLink::is_up) reports when the handshake lands.
    pub fn spawn(
        cfg: LinkConfig,
        metrics: PeerMetrics,
        router: Arc<Router>,
        unroutable: Arc<cedar_telemetry::Counter>,
    ) -> Arc<Self> {
        let link = Arc::new(Self {
            cfg,
            stream: Mutex::new(None),
            up: AtomicBool::new(false),
            last_seen: Mutex::new(clock::now()),
            seq: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            metrics,
            router,
            unroutable,
            probe: Mutex::new(None),
            offset_us: AtomicI64::new(0),
            offset_known: AtomicBool::new(false),
        });
        let worker = Arc::clone(&link);
        std::thread::spawn(move || worker.maintain());
        link
    }

    /// Whether the link is currently established.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Acquire)
    }

    /// The child's node name.
    #[must_use]
    pub fn peer_name(&self) -> &str {
        &self.cfg.peer_name
    }

    /// Latest child−parent clock offset estimate in microseconds
    /// (`t_parent = t_child - offset`), or `None` before the first
    /// stamped heartbeat ack. Piggybacked on the liveness probes: the
    /// child's ack stamp minus the probe's RTT midpoint.
    #[must_use]
    pub fn clock_offset_us(&self) -> Option<i64> {
        self.offset_known
            .load(Ordering::Acquire)
            .then(|| self.offset_us.load(Ordering::Acquire))
    }

    /// Sends one frame to the child. A send on a down link fails fast;
    /// a send error marks the link down (the maintenance thread will
    /// reconnect).
    pub fn send(&self, msg: &MeshMsg) -> io::Result<()> {
        let mut guard = self.stream.lock().unpoisoned();
        let Some(stream) = guard.as_mut() else {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("link to {} is down", self.cfg.peer_name),
            ));
        };
        let sent = wire::send(&mut &*stream, msg);
        if sent.is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            *guard = None;
            drop(guard);
            self.note_down();
        }
        sent
    }

    /// Stops the maintenance thread and closes the connection.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.drop_stream();
    }

    /// Connect → handshake → heartbeat until stopped; on any failure,
    /// back off one heartbeat interval and start over.
    fn maintain(self: &Arc<Self>) {
        while !self.stop.load(Ordering::Acquire) {
            if !self.is_up() && self.establish().is_err() {
                std::thread::sleep(self.cfg.heartbeat);
                continue;
            }
            let seq = self.seq.fetch_add(1, Ordering::AcqRel);
            let beat = MeshMsg::Heartbeat {
                from: self.cfg.self_name.clone(),
                seq,
            };
            // Record the probe before the bytes leave so the reader
            // thread can never see the ack first.
            *self.probe.lock().unpoisoned() = Some((seq, clock::unix_us()));
            if self.send(&beat).is_ok() {
                self.metrics.heartbeats_sent.inc();
            }
            std::thread::sleep(self.cfg.heartbeat);
            let stale = self.last_seen.lock().unpoisoned().elapsed();
            if self.is_up() && stale > self.cfg.heartbeat * self.cfg.miss_limit.max(1) {
                self.drop_stream();
                self.note_down();
            }
        }
        self.drop_stream();
    }

    /// One connection attempt: dial, exchange `hello`/`hello_ack`,
    /// install the stream, and start a reader thread for it.
    fn establish(self: &Arc<Self>) -> io::Result<()> {
        let stream = TcpStream::connect(&self.cfg.peer_addr)?;
        stream.set_nodelay(true)?;
        // Bound the handshake so a wedged peer cannot pin this thread.
        stream.set_read_timeout(Some(self.cfg.heartbeat * self.cfg.miss_limit.max(1)))?;
        wire::send(
            &mut &stream,
            &MeshMsg::Hello {
                from: self.cfg.self_name.clone(),
                role: self.cfg.self_role.clone(),
                topology_hash: self.cfg.topology_hash,
            },
        )?;
        match wire::recv(&mut &stream)? {
            Some(MeshMsg::HelloAck { ok: true, .. }) => {}
            Some(MeshMsg::HelloAck { error, .. }) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    error.unwrap_or_else(|| "peer refused the handshake".to_owned()),
                ));
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected hello_ack, got {other:?}"),
                ));
            }
        }
        // Steady state blocks on reads; liveness is the ack timestamp.
        stream.set_read_timeout(None)?;
        let reader = stream.try_clone()?;
        *self.stream.lock().unpoisoned() = Some(stream);
        *self.last_seen.lock().unpoisoned() = clock::now();
        self.up.store(true, Ordering::Release);
        self.metrics.up.set(1.0);
        let link = Arc::clone(self);
        std::thread::spawn(move || link.read_loop(reader));
        Ok(())
    }

    /// Drains the child's pushes on one connection until it dies.
    fn read_loop(&self, stream: TcpStream) {
        loop {
            match wire::recv(&mut &stream) {
                Ok(Some(MeshMsg::HeartbeatAck {
                    seq, at_unix_us, ..
                })) => {
                    *self.last_seen.lock().unpoisoned() = clock::now();
                    self.metrics.heartbeats_acked.inc();
                    if let Some(at) = at_unix_us {
                        self.note_ack(seq, at);
                    }
                }
                Ok(Some(msg @ MeshMsg::Partial { .. })) => {
                    self.metrics.partials_received.inc();
                    if !self.router.deliver(msg) {
                        self.unroutable.inc();
                    }
                }
                Ok(Some(MeshMsg::HelloAck { .. })) => {
                    *self.last_seen.lock().unpoisoned() = clock::now();
                }
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
        // Only report down if this reader's connection is still the
        // live one; a reconnect may already have replaced it.
        let mut guard = self.stream.lock().unpoisoned();
        if guard.is_some() {
            *guard = None;
            drop(guard);
            self.note_down();
        }
    }

    /// Matches a stamped ack to the outstanding probe and updates the
    /// clock-offset estimate: assuming symmetric wire legs, the child's
    /// stamp was taken at the probe's RTT midpoint, so the offset is
    /// `at - (sent + rtt/2)`.
    fn note_ack(&self, seq: u64, at_unix_us: u64) {
        let matched = {
            let mut probe = self.probe.lock().unpoisoned();
            match *probe {
                Some((probe_seq, sent_us)) if probe_seq == seq => {
                    *probe = None;
                    Some(sent_us)
                }
                _ => None,
            }
        };
        let Some(sent_us) = matched else { return };
        let now_us = clock::unix_us();
        let rtt = now_us.saturating_sub(sent_us);
        let offset = at_unix_us as i64 - (sent_us as i64 + (rtt / 2) as i64);
        self.offset_us.store(offset, Ordering::Release);
        self.offset_known.store(true, Ordering::Release);
    }

    fn drop_stream(&self) {
        if let Some(s) = self.stream.lock().unpoisoned().take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    fn note_down(&self) {
        if self.up.swap(false, Ordering::AcqRel) {
            self.metrics.up.set(0.0);
            self.metrics.downs.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_runtime::FailureReport;
    use std::sync::mpsc::{sync_channel, Receiver};

    fn partial(query_id: u64, origin: usize) -> MeshMsg {
        MeshMsg::Partial {
            query_id,
            from: "w0".into(),
            origin,
            payload: 1,
            value: 1.0,
            duration: 2.0,
            retry: false,
            timings: Vec::new(),
            censored: Vec::new(),
            failures: FailureReport::default(),
            segment: None,
        }
    }

    /// Registers a route of the shape every query's is: a hook over a
    /// bounded channel's sender (a std one here, which needs no
    /// runtime; the node's routes feed tokio channels).
    fn register(router: &Router, query_id: u64, capacity: usize) -> Receiver<MeshMsg> {
        let (tx, rx) = sync_channel(capacity);
        router.register(query_id, move |msg| tx.try_send(msg).is_ok());
        rx
    }

    #[test]
    fn router_delivers_to_registered_queries_only() {
        let router = Router::new();
        let rx = register(&router, 7, 4);
        assert!(router.deliver(partial(7, 0)));
        assert!(!router.deliver(partial(8, 0)), "unknown query id");
        let got = rx.recv().unwrap();
        assert_eq!(got.op(), "partial");
        router.unregister(7);
        assert!(!router.deliver(partial(7, 1)), "after unregister");
    }

    #[test]
    fn router_sheds_instead_of_blocking_when_full() {
        let router = Router::new();
        let _rx = register(&router, 1, 1);
        assert!(router.deliver(partial(1, 0)));
        assert!(!router.deliver(partial(1, 1)), "channel is full");
    }

    #[test]
    fn router_ignores_non_partial_frames() {
        let router = Router::new();
        let _rx = register(&router, 1, 4);
        assert!(!router.deliver(MeshMsg::Heartbeat {
            from: "root".into(),
            seq: 0
        }));
    }
}
