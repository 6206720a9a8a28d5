//! Wire protocol: length-prefixed binary frames.
//!
//! Every message is a 4-byte big-endian length followed by that many
//! bytes of payload: the version byte [`PROTO_VERSION_BINARY`] (`0x02`)
//! and then the zero-copy binary layout of [`crate::wire2`] — kind byte,
//! varints, `f64` bit patterns, borrowed length-prefixed views. Requests
//! carry an op kind; responses carry `ok` plus either a payload or an
//! error. The mesh's inter-node frames ride the same framing under their
//! own kind bytes.
//!
//! A frame in any other framing is refused, not served: a legacy
//! bare-JSON body (first byte `{`, read as version 0), a versioned-JSON
//! body (version 1) or anything newer gets one typed
//! [`ERR_UNSUPPORTED_VERSION`] response, and the connection keeps
//! serving. Refusals of frames that never decoded (that one, an empty
//! frame, an oversized one) are written by [`write_frame`] in the legacy
//! bare-JSON framing, so an old JSON client can read why it was turned
//! away. [`write_frame`], [`read_frame`] and the JSON decoder behind
//! [`RawFrame::decode_auto`] are the only JSON left on the wire path.

use cedar_runtime::FailureReport;
use cedar_telemetry::TraceReport;
use cedar_workloads::treedef::TreeDef;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Upper bound on a single frame, to fail fast on garbage input.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Protocol version of the binary framing ([`crate::wire2`]), the one
/// framing this build serves. Pinned to the body-layout version of
/// `cedar-wire` so the frame version byte and the primitive layout can
/// never drift apart.
pub const PROTO_VERSION_BINARY: u8 = cedar_wire::BINARY_VERSION;

/// The byte that opens every legacy (version-0) JSON frame body; a
/// version byte may never take this value.
const LEGACY_JSON_OPEN: u8 = b'{';

/// Operation name for query submission.
pub const OP_QUERY: &str = "query";
/// Operation name for the stats snapshot.
pub const OP_STATS: &str = "stats";
/// Operation name for liveness checks.
pub const OP_PING: &str = "ping";
/// Operation name for requesting server shutdown.
pub const OP_SHUTDOWN: &str = "shutdown";
/// Operation name for a Prometheus-text metrics snapshot.
pub const OP_METRICS: &str = "metrics";
/// Operation name for the elasticity health probe.
pub const OP_HEALTH: &str = "health";
/// Operation name for an on-demand flight-recorder dump: the response's
/// `metrics` field carries the dump body as JSON. Mesh nodes serve the
/// same op, so one operator verb drains any process's ring.
pub const OP_FLIGHT_DUMP: &str = "flight_dump";

/// Error code: the request itself was malformed (bad op, bad tree,
/// missing fields). Retrying unchanged will fail again.
pub const ERR_BAD_REQUEST: &str = "bad_request";
/// Error code: dropped by admission control; retry after backing off.
pub const ERR_SHED: &str = "shed";
/// Error code: the query's runtime panicked or failed server-side.
pub const ERR_INTERNAL: &str = "internal";
/// Error code: the query exceeded the server's execution timeout.
pub const ERR_TIMEOUT: &str = "timeout";
/// Error code: the server is shutting down.
pub const ERR_UNAVAILABLE: &str = "unavailable";
/// Error code: the frame was not in the binary framing. The error
/// response itself is sent in the legacy bare-JSON framing so every
/// client can decode it.
pub const ERR_UNSUPPORTED_VERSION: &str = "unsupported_version";
/// Error code: the request's `op` is not one this server understands.
/// Distinct from [`ERR_BAD_REQUEST`] (a recognized op with bad fields).
pub const ERR_UNKNOWN_OP: &str = "unknown_op";

/// A client request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// One of [`OP_QUERY`], [`OP_STATS`], [`OP_PING`], [`OP_SHUTDOWN`].
    pub op: String,
    /// The query's true aggregation tree ([`OP_QUERY`] only).
    pub tree: Option<TreeDef>,
    /// Per-query deadline in model units; the server default otherwise.
    pub deadline: Option<f64>,
    /// Explicit duration-sampling seed for reproducible runs.
    pub seed: Option<u64>,
    /// When `true` on [`OP_QUERY`], the server records a per-query
    /// decision trace and returns it in [`QueryResult::trace`]. Absent
    /// (the wire-compatible default) means off.
    pub explain: Option<bool>,
}

impl Request {
    /// A query submission.
    pub fn query(tree: TreeDef, deadline: Option<f64>, seed: Option<u64>) -> Self {
        Self {
            op: OP_QUERY.to_owned(),
            tree: Some(tree),
            deadline,
            seed,
            explain: None,
        }
    }

    /// Turns the decision trace on or off for a query request.
    pub fn with_explain(mut self, explain: bool) -> Self {
        self.explain = Some(explain);
        self
    }

    /// A stats request.
    pub fn stats() -> Self {
        Self::bare(OP_STATS)
    }

    /// A liveness check.
    pub fn ping() -> Self {
        Self::bare(OP_PING)
    }

    /// A shutdown request.
    pub fn shutdown() -> Self {
        Self::bare(OP_SHUTDOWN)
    }

    /// A metrics scrape.
    pub fn metrics() -> Self {
        Self::bare(OP_METRICS)
    }

    /// A health probe.
    pub fn health() -> Self {
        Self::bare(OP_HEALTH)
    }

    fn bare(op: &str) -> Self {
        Self {
            op: op.to_owned(),
            tree: None,
            deadline: None,
            seed: None,
            explain: None,
        }
    }
}

/// Per-query outcome returned for [`OP_QUERY`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryResult {
    /// Fraction of process outputs included in the response.
    pub quality: f64,
    /// Number of process outputs included.
    pub included_outputs: usize,
    /// Total leaf processes in the query's tree.
    pub total_processes: usize,
    /// Top-level results that made the deadline.
    pub root_arrivals: usize,
    /// Aggregated answer over the included workers.
    pub value_sum: f64,
    /// Server-side wall-clock latency of the query in milliseconds.
    pub latency_ms: f64,
    /// Priors epoch the query ran under.
    pub epoch: u64,
    /// Fault/recovery summary when the server runs with a fault plan
    /// (chaos testing); absent on clean runs and from old servers.
    pub failures: Option<FailureReport>,
    /// The per-query decision trace, present when the request set
    /// `explain: true`; absent otherwise and from old servers.
    pub trace: Option<TraceReport>,
}

/// Service counters returned for [`OP_STATS`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerStats {
    /// Queries completed by the aggregation service.
    pub completed: usize,
    /// Offline prior refits performed.
    pub refits: usize,
    /// Current priors epoch.
    pub epoch: u64,
    /// Prepared-context cache hits.
    pub cache_hits: u64,
    /// Prepared-context cache misses.
    pub cache_misses: u64,
    /// Queries currently executing.
    pub in_flight: usize,
    /// Requests shed by admission control since start.
    pub shed_total: u64,
    /// Query requests accepted since start.
    pub served_total: u64,
    /// Queries completed since the last accepted refit — how stale the
    /// current priors are. Absent from servers predating durability.
    pub priors_age_queries: Option<u64>,
    /// Milliseconds since the last durable checkpoint. Absent when
    /// checkpointing is off, nothing has been written yet, or the
    /// server predates durability.
    pub checkpoint_age_ms: Option<u64>,
    /// Whether this server warm-restarted its priors from a checkpoint.
    /// Absent from servers predating durability.
    pub warm_restart: Option<bool>,
}

/// Coarse load state reported by [`OP_HEALTH`], ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum HealthState {
    /// No callers waiting: the service absorbs load as it arrives.
    Ok,
    /// Callers are queued in memory; latency is building but nothing
    /// has spilled or shed.
    Degraded,
    /// The in-memory admission queue is saturated or frames have
    /// spilled to disk; new load is at risk of being shed.
    Overloaded,
}

impl HealthState {
    /// The wire spelling (`ok` / `degraded` / `overloaded`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Overloaded => "overloaded",
        }
    }
}

/// Elasticity signals returned for [`OP_HEALTH`]: the same queue,
/// spill, and staleness numbers the Prometheus surface exposes, in one
/// cheap structured probe an orchestrator can poll.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthStatus {
    /// Coarse state derived from the queue and spill depths.
    pub state: HealthState,
    /// Queries currently holding an execution slot.
    pub in_flight: usize,
    /// Callers waiting in the in-memory admission queue.
    pub queued: usize,
    /// Frames parked in the spill queue (0 when spill is disabled).
    pub spilled: usize,
    /// Current spill segment-file length in bytes.
    pub spill_disk_bytes: u64,
    /// Current priors epoch.
    pub priors_epoch: u64,
    /// Queries completed since the last accepted refit.
    pub priors_age_queries: u64,
    /// Milliseconds since the last durable checkpoint; `None` when
    /// checkpointing is off or nothing has been written yet.
    pub checkpoint_age_ms: Option<u64>,
    /// Whether the serving priors were warm-restarted from a checkpoint.
    pub warm_restart: bool,
    /// 99th-percentile latency of the per-arrival CALCULATEWAIT scan,
    /// in wall seconds (`0.0` until the histogram has samples).
    pub wait_scan_p99_seconds: f64,
}

/// A server response. Exactly one of `result` / `stats` is set for the
/// corresponding request kind when `ok`; `error` is set when not `ok`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// Whether the request was served.
    pub ok: bool,
    /// Failure description (including `"shed: ..."` on admission drops).
    pub error: Option<String>,
    /// Machine-readable failure class when not `ok`: one of
    /// [`ERR_BAD_REQUEST`], [`ERR_SHED`], [`ERR_INTERNAL`],
    /// [`ERR_TIMEOUT`], [`ERR_UNAVAILABLE`]. Absent from old servers —
    /// fall back to sniffing `error`.
    pub code: Option<String>,
    /// Query outcome for [`OP_QUERY`].
    pub result: Option<QueryResult>,
    /// Counter snapshot for [`OP_STATS`].
    pub stats: Option<ServerStats>,
    /// Prometheus-text metrics snapshot for [`OP_METRICS`].
    pub metrics: Option<String>,
    /// Elasticity snapshot for [`OP_HEALTH`].
    pub health: Option<HealthStatus>,
}

impl Response {
    /// A successful empty response (ping/shutdown).
    pub fn ok() -> Self {
        Self {
            ok: true,
            error: None,
            code: None,
            result: None,
            stats: None,
            metrics: None,
            health: None,
        }
    }

    /// A successful query response.
    pub fn with_result(result: QueryResult) -> Self {
        Self {
            result: Some(result),
            ..Self::ok()
        }
    }

    /// A successful stats response.
    pub fn with_stats(stats: ServerStats) -> Self {
        Self {
            stats: Some(stats),
            ..Self::ok()
        }
    }

    /// A successful metrics response.
    pub fn with_metrics(text: String) -> Self {
        Self {
            metrics: Some(text),
            ..Self::ok()
        }
    }

    /// A successful health response.
    pub fn with_health(health: HealthStatus) -> Self {
        Self {
            health: Some(health),
            ..Self::ok()
        }
    }

    /// A failure response without a machine-readable class (legacy
    /// paths); prefer [`err_code`](Self::err_code).
    pub fn err(msg: impl Into<String>) -> Self {
        Self {
            ok: false,
            error: Some(msg.into()),
            code: None,
            result: None,
            stats: None,
            metrics: None,
            health: None,
        }
    }

    /// A typed failure response carrying one of the `ERR_*` codes.
    pub fn err_code(code: &str, msg: impl Into<String>) -> Self {
        Self {
            code: Some(code.to_owned()),
            ..Self::err(msg)
        }
    }

    /// Whether this failure was an admission-control shed.
    pub fn is_shed(&self) -> bool {
        self.code.as_deref() == Some(ERR_SHED)
            || self
                .error
                .as_deref()
                .is_some_and(|e| e.starts_with("shed:"))
    }
}

/// Writes one frame in the legacy bare-JSON framing: how a refusal of a
/// frame that never decoded goes out.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> io::Result<()> {
    let body = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encoding frame: {e}")))?;
    let bytes = body.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    let len = (bytes.len() as u32).to_be_bytes();
    w.write_all(&len)?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame in the legacy bare-JSON framing — such as a refusal.
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> io::Result<Option<T>> {
    read_frame_raw(r)?
        .map(|raw| match raw.version {
            0 => decode_json(&raw.body),
            v => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame version {v} is not bare JSON"),
            )),
        })
        .transpose()
}

/// One frame as it came off the wire: its version plus the
/// still-encoded body. Callers check [`is_supported`] before decoding,
/// so a frame in another framing gets a typed refusal rather than a
/// parse failure on bytes laid out for a different protocol.
///
/// [`is_supported`]: RawFrame::is_supported
#[derive(Debug, Clone)]
pub struct RawFrame {
    /// Frame version: `0` for legacy bare-JSON, else the version byte.
    pub version: u8,
    body: Vec<u8>,
}

impl RawFrame {
    /// Whether the frame is binary ([`PROTO_VERSION_BINARY`]), the one
    /// framing this build serves.
    #[must_use]
    pub fn is_supported(&self) -> bool {
        self.version == PROTO_VERSION_BINARY
    }

    /// Decodes the body: the binary layout for a supported frame, bare
    /// JSON otherwise — the framing of a refusal, so a binary client
    /// reads one as a typed error response. (One function under this
    /// name because the repo benchmark, `benchmark/`, calls it.)
    pub fn decode_auto<T: Deserialize + crate::wire2::BinaryCodec>(&self) -> io::Result<T> {
        if self.is_supported() {
            T::decode_binary(&self.body).map_err(io::Error::from)
        } else {
            decode_json(&self.body)
        }
    }

    /// The still-encoded frame body (version byte stripped).
    #[must_use]
    pub fn body(&self) -> &[u8] {
        &self.body
    }
}

fn decode_json<T: Deserialize>(body: &[u8]) -> io::Result<T> {
    let text = std::str::from_utf8(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad utf-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("decoding frame: {e}")))
}

/// Reads one frame without decoding its body. A body opening with `{`
/// is a legacy version-0 frame; anything else is a versioned frame
/// whose first byte is the version. Returns `Ok(None)` on a clean
/// end-of-stream at a frame boundary.
///
/// An empty frame (consumed whole) is [`io::ErrorKind::InvalidData`]; a
/// length over [`MAX_FRAME_BYTES`] is [`io::ErrorKind::FileTooLarge`],
/// its body left unread, so no later frame boundary can be found.
pub fn read_frame_raw<R: Read>(r: &mut R) -> io::Result<Option<RawFrame>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = usize::try_from(u32::from_be_bytes(len_buf))
        .map_err(|_| io::Error::new(io::ErrorKind::FileTooLarge, "frame length overflows usize"))?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::FileTooLarge,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES} limit"),
        ));
    }
    if len == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty frame"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    if body[0] == LEGACY_JSON_OPEN {
        return Ok(Some(RawFrame { version: 0, body }));
    }
    let rest = body.split_off(1);
    Ok(Some(RawFrame {
        version: body[0],
        body: rest,
    }))
}

/// Writes one binary frame: 4-byte length, [`PROTO_VERSION_BINARY`],
/// then the message's [`crate::wire2`] body. Allocates a scratch buffer
/// per call; steady-state senders should hold a buffer and use
/// [`write_frame_binary_buf`].
pub fn write_frame_binary<W: Write, T: crate::wire2::BinaryCodec>(
    w: &mut W,
    msg: &T,
) -> io::Result<()> {
    let mut buf = Vec::with_capacity(256);
    write_frame_binary_buf(w, msg, &mut buf)
}

/// [`write_frame_binary`] with a caller-owned scratch buffer, so a
/// steady-state sender performs no per-frame allocation once the buffer
/// has grown to its working size.
pub fn write_frame_binary_buf<W: Write, T: crate::wire2::BinaryCodec>(
    w: &mut W,
    msg: &T,
    buf: &mut Vec<u8>,
) -> io::Result<()> {
    crate::wire2::encode_frame_into(msg, buf)?;
    w.write_all(buf)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let req = Request::query(TreeDef::example(), Some(1600.0), Some(9));
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let back: Request = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back.op, OP_QUERY);
        assert_eq!(back.deadline, Some(1600.0));
        assert_eq!(back.seed, Some(9));
        assert_eq!(back.tree.unwrap(), TreeDef::example());
    }

    #[test]
    fn clean_eof_is_none() {
        let empty: &[u8] = &[];
        let got: Option<Request> = read_frame(&mut &*empty).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let got: io::Result<Option<Request>> = read_frame(&mut buf.as_slice());
        assert!(got.is_err());
    }

    #[test]
    fn responses_carry_one_payload() {
        let r = Response::with_result(QueryResult {
            quality: 0.5,
            included_outputs: 16,
            total_processes: 32,
            root_arrivals: 4,
            value_sum: 16.0,
            latency_ms: 12.5,
            epoch: 3,
            failures: None,
            trace: None,
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &r).unwrap();
        let back: Response = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert!(back.ok);
        assert!(back.stats.is_none());
        assert_eq!(back.result.unwrap().epoch, 3);
        assert!(!Response::err("shed: queue full").ok);
        assert!(Response::err("shed: queue full").is_shed());
        assert!(!Response::err("bad tree").is_shed());
    }

    #[test]
    fn error_codes_round_trip() {
        let r = Response::err_code(ERR_TIMEOUT, "query exceeded 30s");
        let mut buf = Vec::new();
        write_frame(&mut buf, &r).unwrap();
        let back: Response = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert!(!back.ok);
        assert_eq!(back.code.as_deref(), Some(ERR_TIMEOUT));
        assert!(!back.is_shed());
        // Typed sheds are recognized by code even without the string
        // prefix; untyped ones by the legacy prefix.
        assert!(Response::err_code(ERR_SHED, "shed: queue full").is_shed());
        assert!(Response::err_code(ERR_SHED, "queue full").is_shed());
    }

    #[test]
    fn query_result_failures_survive_round_trip() {
        let failures = FailureReport {
            crashed: 2,
            retries_launched: 2,
            retries_delivered: 1,
            censored_observations: 1,
            ..FailureReport::default()
        };
        let r = Response::with_result(QueryResult {
            quality: 0.9,
            included_outputs: 18,
            total_processes: 20,
            root_arrivals: 2,
            value_sum: 18.0,
            latency_ms: 3.0,
            epoch: 0,
            failures: Some(failures),
            trace: None,
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &r).unwrap();
        let back: Response = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back.result.unwrap().failures, Some(failures));
    }

    #[test]
    fn explain_flag_defaults_off_and_round_trips() {
        // An old client's frame has no `explain` key at all.
        let legacy = r#"{"op":"query","tree":null,"deadline":null,"seed":null}"#;
        let mut buf = Vec::new();
        buf.extend_from_slice(&(legacy.len() as u32).to_be_bytes());
        buf.extend_from_slice(legacy.as_bytes());
        let back: Request = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back.explain, None);

        let req = Request::query(TreeDef::example(), None, Some(1)).with_explain(true);
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let back: Request = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back.explain, Some(true));
    }

    #[test]
    fn only_binary_frames_are_supported() {
        let mut buf = Vec::new();
        write_frame_binary(&mut buf, &Request::ping()).unwrap();
        let raw = read_frame_raw(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(raw.version, PROTO_VERSION_BINARY);
        assert!(raw.is_supported());
        assert_eq!(raw.decode_auto::<Request>().unwrap().op, OP_PING);

        // A legacy bare-JSON frame reads as version 0, and a versioned
        // JSON one as version 1: both are refused, not served.
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::ping()).unwrap();
        let raw = read_frame_raw(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(raw.version, 0);
        assert!(!raw.is_supported());
        let json = br#"{"op":"ping"}"#;
        let mut buf = (json.len() as u32 + 1).to_be_bytes().to_vec();
        buf.push(1);
        buf.extend_from_slice(json);
        let raw = read_frame_raw(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(raw.version, 1);
        assert!(!raw.is_supported());
    }

    #[test]
    fn a_refusal_decodes_as_a_typed_response() {
        // Refusals go out in the legacy framing; the reader a binary
        // client uses still decodes them.
        let refusal = Response::err_code(ERR_UNSUPPORTED_VERSION, "binary only");
        let mut buf = Vec::new();
        write_frame(&mut buf, &refusal).unwrap();
        let raw = read_frame_raw(&mut buf.as_slice()).unwrap().unwrap();
        let back: Response = raw.decode_auto().unwrap();
        assert_eq!(back.code.as_deref(), Some(ERR_UNSUPPORTED_VERSION));
    }

    #[test]
    fn unknown_version_is_flagged_not_parsed() {
        // A future version-9 frame: length, version byte, opaque bytes.
        let payload = b"\x93binary-not-json";
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32 + 1).to_be_bytes());
        buf.push(9);
        buf.extend_from_slice(payload);
        let raw = read_frame_raw(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(raw.version, 9);
        assert!(!raw.is_supported());
    }

    #[test]
    fn empty_and_truncated_frames_are_clean_errors() {
        // Zero-length frame: no room for either framing.
        let zero = 0u32.to_be_bytes();
        assert!(read_frame_raw(&mut zero.as_slice()).is_err());
        // Length promises more bytes than the stream holds.
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"\x01{}");
        assert!(read_frame_raw(&mut buf.as_slice()).is_err());
        // Body shorter than the length prefix promises.
        let mut short = Vec::new();
        short.extend_from_slice(&3u32.to_be_bytes());
        short.push(1);
        assert!(read_frame_raw(&mut short.as_slice()).is_err());
    }

    #[test]
    fn health_response_round_trips() {
        let r = Response::with_health(HealthStatus {
            state: HealthState::Degraded,
            in_flight: 3,
            queued: 2,
            spilled: 0,
            spill_disk_bytes: 0,
            priors_epoch: 4,
            priors_age_queries: 17,
            checkpoint_age_ms: Some(250),
            warm_restart: true,
            wait_scan_p99_seconds: 0.000_125,
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &r).unwrap();
        let back: Response = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        let h = back.health.expect("health present");
        assert_eq!(h.state, HealthState::Degraded);
        assert_eq!(h.state.name(), "degraded");
        assert_eq!(h.checkpoint_age_ms, Some(250));
        assert!(h.warm_restart);
        // Severity ordering backs the "worst state wins" comparison.
        assert!(HealthState::Overloaded > HealthState::Degraded);
        assert!(HealthState::Degraded > HealthState::Ok);
    }

    #[test]
    fn stats_from_an_old_server_lack_durability_fields() {
        // A pre-durability server's stats JSON has none of the new keys;
        // they must decode as absent, not as an error.
        let legacy = r#"{"ok":true,"error":null,"code":null,"result":null,
            "stats":{"completed":5,"refits":1,"epoch":1,"cache_hits":4,
            "cache_misses":1,"in_flight":0,"shed_total":0,"served_total":5},
            "metrics":null}"#;
        let mut buf = Vec::new();
        buf.extend_from_slice(&(legacy.len() as u32).to_be_bytes());
        buf.extend_from_slice(legacy.as_bytes());
        let back: Response = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        let stats = back.stats.expect("stats present");
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.priors_age_queries, None);
        assert_eq!(stats.checkpoint_age_ms, None);
        assert_eq!(stats.warm_restart, None);
        assert!(back.health.is_none());
    }

    #[test]
    fn metrics_response_round_trips() {
        let r = Response::with_metrics("cedar_queries_total 4\n".to_owned());
        let mut buf = Vec::new();
        write_frame(&mut buf, &r).unwrap();
        let back: Response = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert!(back.ok);
        assert_eq!(back.metrics.as_deref(), Some("cedar_queries_total 4\n"));
        assert!(back.result.is_none());
    }
}
