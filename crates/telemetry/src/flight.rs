//! Per-node flight recorder: an always-on, fixed-size ring of recent
//! per-query summaries, cheap enough to leave enabled in production and
//! dumped to a CRC-guarded file when something goes wrong.
//!
//! The ring holds [`FlightEntry`] values — `Copy` structs built from the
//! exact [`TraceSummary`] counters — in storage allocated once at
//! construction, so recording a query in steady state performs **zero**
//! heap allocations (the counting-allocator gate in cedar-bench covers
//! the server's record path). Dumps are triggered by the embedding
//! process (panic hook, health degradation, an operator `flight_dump`
//! op, graceful shutdown — the sanctioned substitutes for SIGUSR1,
//! which the vendored runtime cannot deliver) and are written through
//! `write_atomic` by the caller; this crate only defines the encoding.
//!
//! Dump format: magic `CEDARFDR`, one version byte, a JSON body, and a
//! trailing CRC-32 (little-endian) over every preceding byte. The JSON
//! body keeps the format greppable in the field; the CRC keeps a
//! half-written or bit-rotted dump from silently decoding. Like every
//! other byte surface in the workspace, the decoder is registered with
//! the totality prober.
//!
//! Version 2 nests each entry's failure counters, a
//! [`FailureReport`](crate::FailureReport), under `summary.failures`.
//! A dump of any other version is refused with
//! [`FlightDecodeError::BadVersion`]: its body has another shape.
//!
//! This module never reads a clock: every timestamp in an entry or dump
//! is supplied by the caller.

use crate::trace::TraceSummary;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Dump file magic: `CEDARFDR` (FlightDump Record).
pub const FLIGHT_MAGIC: &[u8; 8] = b"CEDARFDR";

/// Current dump format version.
pub const FLIGHT_FORMAT_VERSION: u8 = 2;

/// Default ring capacity: enough recent history to explain an incident
/// without the ring itself becoming a memory concern.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One completed (or shed) query, compressed to fixed-size counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FlightEntry {
    /// The query's id on this node.
    pub query_id: u64,
    /// Caller-supplied wall stamp when the query started, µs since epoch.
    pub started_unix_us: u64,
    /// Wall latency of the query, microseconds.
    pub latency_us: u64,
    /// Deadline the query ran under, model units.
    pub deadline: f64,
    /// Delivered quality in [0, 1] (0 for shed queries).
    pub quality: f64,
    /// Leaf observations included in the answer.
    pub included: usize,
    /// Leaf observations expected at full quality.
    pub expected: usize,
    /// The query was shed at admission and never executed.
    pub shed: bool,
    /// Exact per-query counters (faults seen, retries, censoring).
    pub summary: TraceSummary,
}

/// The decoded contents of a dump file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Name of the node that wrote the dump.
    pub node: String,
    /// The node's role spelling (`server`, `root`, `agg`, `worker`).
    pub role: String,
    /// What prompted the dump (`panic`, `degraded`, `operator`,
    /// `shutdown`).
    pub reason: String,
    /// Caller-supplied wall stamp of the dump, µs since epoch.
    pub written_unix_us: u64,
    /// Total queries ever recorded, including those the ring evicted.
    pub recorded_total: u64,
    /// Retained entries, oldest first.
    pub entries: Vec<FlightEntry>,
}

/// Everything that can go wrong decoding a dump file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightDecodeError {
    /// Shorter than magic + version + CRC.
    Truncated,
    /// Magic bytes are not `CEDARFDR`.
    BadMagic,
    /// Version byte is not the one this build writes.
    BadVersion(u8),
    /// Trailing CRC-32 does not match the preceding bytes.
    CrcMismatch,
    /// The JSON body failed to parse.
    BadBody,
}

impl std::fmt::Display for FlightDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "flight dump truncated"),
            Self::BadMagic => write!(f, "not a flight dump (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported flight dump version {v}"),
            Self::CrcMismatch => write!(f, "flight dump CRC mismatch"),
            Self::BadBody => write!(f, "flight dump body is not valid JSON"),
        }
    }
}

impl std::error::Error for FlightDecodeError {}

impl FlightDump {
    /// Encodes the dump: magic, version byte, JSON body, CRC-32 (LE)
    /// over everything before it.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let body = serde_json::to_string(self).unwrap_or_default().into_bytes();
        let mut out = Vec::with_capacity(FLIGHT_MAGIC.len() + 1 + body.len() + 4);
        out.extend_from_slice(FLIGHT_MAGIC);
        out.push(FLIGHT_FORMAT_VERSION);
        out.extend_from_slice(&body);
        let crc = cedar_wire::crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a dump file, verifying magic, version, and CRC before
    /// touching the body. Total: never panics, never allocates more
    /// than the body it was handed.
    ///
    /// # Errors
    /// Returns a [`FlightDecodeError`] naming the first check that
    /// failed.
    pub fn decode(bytes: &[u8]) -> Result<Self, FlightDecodeError> {
        let min = FLIGHT_MAGIC.len() + 1 + 4;
        if bytes.len() < min {
            return Err(FlightDecodeError::Truncated);
        }
        if &bytes[..FLIGHT_MAGIC.len()] != FLIGHT_MAGIC {
            return Err(FlightDecodeError::BadMagic);
        }
        let version = bytes[FLIGHT_MAGIC.len()];
        if version != FLIGHT_FORMAT_VERSION {
            return Err(FlightDecodeError::BadVersion(version));
        }
        let crc_at = bytes.len() - 4;
        let mut crc_bytes = [0_u8; 4];
        crc_bytes.copy_from_slice(&bytes[crc_at..]);
        if cedar_wire::crc32(&bytes[..crc_at]) != u32::from_le_bytes(crc_bytes) {
            return Err(FlightDecodeError::CrcMismatch);
        }
        let body = std::str::from_utf8(&bytes[FLIGHT_MAGIC.len() + 1..crc_at])
            .map_err(|_| FlightDecodeError::BadBody)?;
        serde_json::from_str(body).map_err(|_| FlightDecodeError::BadBody)
    }

    /// Renders the dump as a human-readable table, newest entry last.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder dump — node {} ({}), reason {}, {} recorded, {} retained",
            self.node,
            self.role,
            self.reason,
            self.recorded_total,
            self.entries.len(),
        );
        let _ = writeln!(
            out,
            "{:>8}  {:>10}  {:>8}  {:>5}  {:>7}  faults(c/h/s/d/D)  retries  censored  shed",
            "query", "latency", "deadline", "qual", "incl",
        );
        for e in &self.entries {
            let s = &e.summary.failures;
            let _ = writeln!(
                out,
                "{:>8}  {:>8.3}ms  {:>8.0}  {:>5.3}  {:>3}/{:<3}  {:>17}  {:>7}  {:>8}  {}",
                e.query_id,
                // cedar-lint: allow(L5): display-only us -> ms formatting; telemetry is a leaf crate without the core duration newtypes
                e.latency_us as f64 / 1000.0,
                e.deadline,
                e.quality,
                e.included,
                e.expected,
                format!(
                    "{}/{}/{}/{}/{}",
                    s.crashed, s.hung, s.straggled, s.dropped, s.duplicated
                ),
                format!("{}/{}", s.retries_delivered, s.retries_launched),
                s.censored_observations,
                if e.shed { "yes" } else { "-" },
            );
        }
        out
    }
}

/// The always-on ring. Storage is allocated once in [`new`]; recording
/// overwrites the oldest slot in place, so the steady-state record path
/// is a mutex lock and a `Copy` store.
///
/// [`new`]: FlightRecorder::new
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    entries: Vec<FlightEntry>,
    cap: usize,
    /// Next slot to (over)write once the ring is full.
    next: usize,
    recorded_total: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` queries (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            ring: Mutex::new(Ring {
                entries: Vec::with_capacity(cap),
                cap,
                next: 0,
                recorded_total: 0,
            }),
        }
    }

    /// Records one query. Allocation-free once the ring has filled.
    pub fn record(&self, entry: FlightEntry) {
        let mut ring = lock_unpoisoned(&self.ring);
        ring.recorded_total += 1;
        if ring.entries.len() < ring.cap {
            ring.entries.push(entry);
        } else {
            let at = ring.next;
            ring.entries[at] = entry;
            ring.next = (at + 1) % ring.cap;
        }
    }

    /// Total queries ever recorded, including evicted ones.
    #[must_use]
    pub fn recorded_total(&self) -> u64 {
        lock_unpoisoned(&self.ring).recorded_total
    }

    /// Retained entries, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<FlightEntry> {
        let ring = lock_unpoisoned(&self.ring);
        if ring.entries.len() < ring.cap {
            ring.entries.clone()
        } else {
            let mut out = Vec::with_capacity(ring.cap);
            out.extend_from_slice(&ring.entries[ring.next..]);
            out.extend_from_slice(&ring.entries[..ring.next]);
            out
        }
    }

    /// Packages the current ring as a dump ready for [`FlightDump::encode`].
    #[must_use]
    pub fn dump(
        &self,
        node: impl Into<String>,
        role: impl Into<String>,
        reason: impl Into<String>,
        written_unix_us: u64,
    ) -> FlightDump {
        FlightDump {
            node: node.into(),
            role: role.into(),
            reason: reason.into(),
            written_unix_us,
            recorded_total: self.recorded_total(),
            entries: self.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FailureReport;

    fn entry(id: u64) -> FlightEntry {
        FlightEntry {
            query_id: id,
            started_unix_us: 1_000 + id,
            latency_us: 42_000,
            deadline: 1600.0,
            quality: 0.75,
            included: 24,
            expected: 32,
            shed: false,
            summary: TraceSummary {
                arrivals: 24,
                failures: FailureReport {
                    censored_observations: 8,
                    ..FailureReport::default()
                },
                ..TraceSummary::default()
            },
        }
    }

    #[test]
    fn ring_keeps_newest_and_orders_oldest_first() {
        let rec = FlightRecorder::new(4);
        for id in 0..10 {
            rec.record(entry(id));
        }
        assert_eq!(rec.recorded_total(), 10);
        let ids: Vec<u64> = rec.snapshot().iter().map(|e| e.query_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn partial_ring_snapshots_in_insertion_order() {
        let rec = FlightRecorder::new(8);
        for id in 0..3 {
            rec.record(entry(id));
        }
        let ids: Vec<u64> = rec.snapshot().iter().map(|e| e.query_id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn dump_round_trips_and_is_crc_guarded() {
        let rec = FlightRecorder::new(4);
        rec.record(entry(1));
        rec.record(entry(2));
        let dump = rec.dump("node-a", "server", "operator", 123_456);
        let bytes = dump.encode();
        let back = FlightDump::decode(&bytes).unwrap();
        assert_eq!(back, dump);

        // Any single corrupted byte must be rejected, not mis-decoded.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(FlightDump::decode(&bad).is_err());
        assert_eq!(
            FlightDump::decode(&bytes[..bytes.len() - 1]),
            Err(FlightDecodeError::CrcMismatch)
        );
        assert_eq!(
            FlightDump::decode(b"short"),
            Err(FlightDecodeError::Truncated)
        );
        assert_eq!(
            FlightDump::decode(b"NOTMAGIC\x01xxxx"),
            Err(FlightDecodeError::BadMagic)
        );
    }

    #[test]
    fn version_1_dumps_are_refused_by_version() {
        // A well-formed v1 file: right magic, valid CRC, only the
        // version byte (and so the body shape) is from the old format.
        let mut bytes = FlightRecorder::new(2)
            .dump("n", "server", "operator", 0)
            .encode();
        bytes[FLIGHT_MAGIC.len()] = 1;
        let crc_at = bytes.len() - 4;
        let crc = cedar_wire::crc32(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            FlightDump::decode(&bytes),
            Err(FlightDecodeError::BadVersion(1))
        );
    }

    #[test]
    fn render_mentions_every_entry() {
        let rec = FlightRecorder::new(4);
        rec.record(entry(7));
        let text = rec.dump("n", "root", "degraded", 0).render();
        assert!(text.contains("reason degraded"), "{text}");
        assert!(text.contains('7'), "{text}");
    }

    #[test]
    fn record_is_allocation_free_once_full() {
        // Indirect check without the counting allocator: capacity stays
        // pinned at the preallocated value after heavy overwrite.
        let rec = FlightRecorder::new(16);
        for id in 0..1000 {
            rec.record(entry(id));
        }
        let ring = lock_unpoisoned(&rec.ring);
        assert_eq!(ring.entries.capacity(), 16);
        assert_eq!(ring.entries.len(), 16);
    }
}
