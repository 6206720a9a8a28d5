//! Inter-node frames: the mesh's extension of the cedar-server wire
//! protocol.
//!
//! Every mesh frame travels in the binary framing of
//! [`cedar_server::proto`]: length, version byte `0x02`, then the
//! zero-copy layout of [`cedar_server::wire2`] under the mesh's kind
//! bytes `0x10..=0x16`, disjoint from the client protocol's, so one
//! listener serves both families on a single port. A frame in any other
//! framing is refused — by a listener with a typed
//! `unsupported_version` reply, by [`recv`] with an
//! [`io::ErrorKind::Unsupported`] error.
//!
//! The conversation on one parent→child connection:
//!
//! ```text
//! parent -> hello { from, role, topology_hash }
//! child  <- hello_ack { from, ok, error }
//! parent -> heartbeat { from, seq }          (every heartbeat interval)
//! child  <- heartbeat_ack { from, seq }
//! parent -> exec { query_id, tree, deadline, seed, agg_index, ... }
//! child  <- partial { query_id, origin, payload, value, ... }  (per result)
//! parent -> retry { query_id, origins }      (watchdog re-execution)
//! ```

use cedar_runtime::{FailureReport, FaultPlan};
use cedar_server::wire2::{self, BinaryCodec};
use cedar_server::{proto, WireFormat};
use cedar_telemetry::TraceSegment;
use cedar_wire::{Reader, Result as WireResult, WireError, Writer};
use cedar_workloads::treedef::TreeDef;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Binary kind byte for [`MeshMsg::Hello`].
pub const KIND_HELLO: u8 = 0x10;
/// Binary kind byte for [`MeshMsg::HelloAck`].
pub const KIND_HELLO_ACK: u8 = 0x11;
/// Binary kind byte for [`MeshMsg::Heartbeat`].
pub const KIND_HEARTBEAT: u8 = 0x12;
/// Binary kind byte for [`MeshMsg::HeartbeatAck`].
pub const KIND_HEARTBEAT_ACK: u8 = 0x13;
/// Binary kind byte for [`MeshMsg::Exec`].
pub const KIND_EXEC: u8 = 0x14;
/// Binary kind byte for [`MeshMsg::Retry`].
pub const KIND_RETRY: u8 = 0x15;
/// Binary kind byte for [`MeshMsg::Partial`].
pub const KIND_PARTIAL: u8 = 0x16;

/// One realized or censored stage duration, tagged with where it came
/// from. `level` 0 is the leaf stage; for censored entries `duration`
/// is the right-censoring threshold (the observer's departure time).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Tree stage the observation belongs to (0 = leaves).
    pub level: usize,
    /// Global origin id of the observed task.
    pub origin: usize,
    /// Realized duration, or the censoring threshold, in model units.
    pub duration: f64,
}

/// Trace context threaded through an `exec` frame so one query is
/// observable across the whole process tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecTrace {
    /// Mesh-wide trace id, minted by the root from (seed, `query_id`).
    pub trace_id: u64,
    /// Whether the client asked for a full decision trace (`explain`);
    /// when false only hop spans are stamped, not event logs.
    pub explain: bool,
    /// Sender's clock just before the frame was written, µs since the
    /// Unix epoch — the parent half of the request-wire span.
    pub sent_unix_us: u64,
}

/// Every frame that crosses a mesh edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum MeshMsg {
    /// Topology handshake, sent by the connecting parent first.
    Hello {
        /// Sender's node name.
        from: String,
        /// Sender's role spelling (informational).
        role: String,
        /// [`crate::topology::Topology::hash`] of the sender's config;
        /// both ends must agree or the link is refused.
        topology_hash: u64,
    },
    /// The child's verdict on a `hello`.
    HelloAck {
        /// Responder's node name.
        from: String,
        /// Whether the link is accepted.
        ok: bool,
        /// Refusal reason when not ok.
        error: Option<String>,
    },
    /// Liveness probe, parent → child.
    Heartbeat {
        /// Sender's node name.
        from: String,
        /// Monotonic per-link sequence number.
        seq: u64,
    },
    /// Liveness echo, child → parent, same `seq`.
    HeartbeatAck {
        /// Responder's node name.
        from: String,
        /// The probe's sequence number.
        seq: u64,
        /// Responder's clock when it echoed, µs since the Unix epoch.
        /// The parent combines this with the probe's RTT midpoint to
        /// estimate the child−parent clock offset that aligns trace
        /// timelines. Absent from pre-tracing peers.
        at_unix_us: Option<u64>,
    },
    /// Query dispatch, parent → child (root → agg, agg → worker).
    Exec {
        /// Mesh-wide query id, assigned by the root.
        query_id: u64,
        /// Sender's node name.
        from: String,
        /// Intended recipient; a mismatch means misrouted wiring.
        target: String,
        /// Position of the executing aggregator within its replica
        /// (defines the global origin numbering).
        agg_index: usize,
        /// The query's true tree (stage dists and fan-outs).
        tree: TreeDef,
        /// End-to-end deadline in model units, measured locally from
        /// Exec receipt; wire latency manifests as real straggling.
        deadline: f64,
        /// Duration-sampling seed; combined with each leaf's global
        /// origin so every process draws disjoint, reproducible work.
        seed: u64,
        /// Fault-injection plan for chaos runs. Injection is a pure
        /// function of (plan, level, index), so every process accounts
        /// for the same faults without coordination.
        fault_plan: Option<FaultPlan>,
        /// Trace context when the query is being traced across the
        /// mesh; `None` keeps untraced Execs byte-identical to before.
        trace: Option<ExecTrace>,
    },
    /// Watchdog re-execution request, aggregator → worker: re-run the
    /// named leaf origins of a previously dispatched query once.
    Retry {
        /// The query being patched.
        query_id: u64,
        /// Sender's node name.
        from: String,
        /// Global leaf origins to re-execute.
        origins: Vec<usize>,
    },
    /// A partial result pushed up one edge (leaf result from a worker,
    /// or an aggregated subtree result from an agg).
    Partial {
        /// The query this belongs to.
        query_id: u64,
        /// Sender's node name.
        from: String,
        /// Global origin id of the producing task.
        origin: usize,
        /// Process outputs aggregated into this message.
        payload: usize,
        /// Aggregated value over those outputs.
        value: f64,
        /// The producer's realized model-time duration.
        duration: f64,
        /// Whether this is a speculative re-execution's result.
        retry: bool,
        /// Realized stage durations observed in this subtree (refit
        /// food; workers send an empty list, aggs report their leaves).
        timings: Vec<StageTiming>,
        /// Right-censored observations from this subtree.
        censored: Vec<StageTiming>,
        /// Runtime failure accounting from this subtree (retries,
        /// suppressed duplicates, censor counts).
        failures: FailureReport,
        /// The sender's trace segment (its own spans, hop records, and
        /// nested child segments) when the query is traced. Workers
        /// attach theirs to every leaf partial; aggs attach one to
        /// their single aggregated partial.
        segment: Option<Box<TraceSegment>>,
    },
}

impl MeshMsg {
    /// The frame's `op` tag, for logging and metrics.
    #[must_use]
    pub fn op(&self) -> &'static str {
        match self {
            MeshMsg::Hello { .. } => "hello",
            MeshMsg::HelloAck { .. } => "hello_ack",
            MeshMsg::Heartbeat { .. } => "heartbeat",
            MeshMsg::HeartbeatAck { .. } => "heartbeat_ack",
            MeshMsg::Exec { .. } => "exec",
            MeshMsg::Retry { .. } => "retry",
            MeshMsg::Partial { .. } => "partial",
        }
    }
}

impl BinaryCodec for MeshMsg {
    fn encode_binary(&self, buf: &mut Vec<u8>) {
        let mut w = Writer::new(buf);
        match self {
            MeshMsg::Hello {
                from,
                role,
                topology_hash,
            } => {
                w.u8(KIND_HELLO);
                w.str(from);
                w.str(role);
                w.uvarint(*topology_hash);
            }
            MeshMsg::HelloAck { from, ok, error } => {
                w.u8(KIND_HELLO_ACK);
                w.str(from);
                w.bool(*ok);
                w.bool(error.is_some());
                if let Some(e) = error {
                    w.str(e);
                }
            }
            MeshMsg::Heartbeat { from, seq } => {
                w.u8(KIND_HEARTBEAT);
                w.str(from);
                w.uvarint(*seq);
            }
            MeshMsg::HeartbeatAck {
                from,
                seq,
                at_unix_us,
            } => {
                w.u8(KIND_HEARTBEAT_ACK);
                w.str(from);
                w.uvarint(*seq);
                w.bool(at_unix_us.is_some());
                if let Some(at) = at_unix_us {
                    w.uvarint(*at);
                }
            }
            MeshMsg::Exec {
                query_id,
                from,
                target,
                agg_index,
                tree,
                deadline,
                seed,
                fault_plan,
                trace,
            } => {
                w.u8(KIND_EXEC);
                w.uvarint(*query_id);
                w.str(from);
                w.str(target);
                w.usize(*agg_index);
                wire2::put_tree(&mut w, tree);
                w.f64(*deadline);
                w.uvarint(*seed);
                // The fault plan is chaos-only configuration with
                // private fields; it rides as a JSON capsule so clean
                // hot-path Execs stay byte-for-byte JSON-free.
                w.bool(fault_plan.is_some());
                if let Some(plan) = fault_plan {
                    wire2::put_json_capsule(&mut w, plan);
                }
                w.bool(trace.is_some());
                if let Some(t) = trace {
                    w.uvarint(t.trace_id);
                    w.bool(t.explain);
                    w.uvarint(t.sent_unix_us);
                }
            }
            MeshMsg::Retry {
                query_id,
                from,
                origins,
            } => {
                w.u8(KIND_RETRY);
                w.uvarint(*query_id);
                w.str(from);
                w.usize(origins.len());
                for origin in origins {
                    w.usize(*origin);
                }
            }
            MeshMsg::Partial {
                query_id,
                from,
                origin,
                payload,
                value,
                duration,
                retry,
                timings,
                censored,
                failures,
                segment,
            } => {
                w.u8(KIND_PARTIAL);
                w.uvarint(*query_id);
                w.str(from);
                w.usize(*origin);
                w.usize(*payload);
                w.f64(*value);
                w.f64(*duration);
                w.bool(*retry);
                put_timings(&mut w, timings);
                put_timings(&mut w, censored);
                wire2::put_failure_report(&mut w, failures);
                // Segments are trace-only freight (nested, stringy); a
                // JSON capsule keeps untraced partials span-free.
                w.bool(segment.is_some());
                if let Some(seg) = segment {
                    wire2::put_json_capsule(&mut w, seg.as_ref());
                }
            }
        }
    }

    fn decode_binary(body: &[u8]) -> WireResult<Self> {
        let mut r = Reader::new(body);
        let kind = r.u8()?;
        let msg = match kind {
            KIND_HELLO => MeshMsg::Hello {
                from: r.str()?.to_owned(),
                role: r.str()?.to_owned(),
                topology_hash: r.uvarint()?,
            },
            KIND_HELLO_ACK => MeshMsg::HelloAck {
                from: r.str()?.to_owned(),
                ok: r.bool()?,
                error: if r.bool()? {
                    Some(r.str()?.to_owned())
                } else {
                    None
                },
            },
            KIND_HEARTBEAT => MeshMsg::Heartbeat {
                from: r.str()?.to_owned(),
                seq: r.uvarint()?,
            },
            KIND_HEARTBEAT_ACK => MeshMsg::HeartbeatAck {
                from: r.str()?.to_owned(),
                seq: r.uvarint()?,
                at_unix_us: if r.bool()? { Some(r.uvarint()?) } else { None },
            },
            KIND_EXEC => MeshMsg::Exec {
                query_id: r.uvarint()?,
                from: r.str()?.to_owned(),
                target: r.str()?.to_owned(),
                agg_index: r.usize()?,
                tree: wire2::read_tree(&mut r)?,
                deadline: r.f64()?,
                seed: r.uvarint()?,
                fault_plan: if r.bool()? {
                    Some(wire2::read_json_capsule(&mut r)?)
                } else {
                    None
                },
                trace: if r.bool()? {
                    Some(ExecTrace {
                        trace_id: r.uvarint()?,
                        explain: r.bool()?,
                        sent_unix_us: r.uvarint()?,
                    })
                } else {
                    None
                },
            },
            KIND_RETRY => {
                let query_id = r.uvarint()?;
                let from = r.str()?.to_owned();
                let n = r.usize()?;
                // Each origin takes at least one byte, so a declared
                // count beyond the remaining bytes is hostile.
                if n > r.remaining() {
                    return Err(WireError::LengthOverrun {
                        declared: n,
                        available: r.remaining(),
                    });
                }
                let mut origins = Vec::with_capacity(n);
                for _ in 0..n {
                    origins.push(r.usize()?);
                }
                MeshMsg::Retry {
                    query_id,
                    from,
                    origins,
                }
            }
            KIND_PARTIAL => MeshMsg::Partial {
                query_id: r.uvarint()?,
                from: r.str()?.to_owned(),
                origin: r.usize()?,
                payload: r.usize()?,
                value: r.f64()?,
                duration: r.f64()?,
                retry: r.bool()?,
                timings: read_timings(&mut r)?,
                censored: read_timings(&mut r)?,
                failures: wire2::read_failure_report(&mut r)?,
                segment: if r.bool()? {
                    Some(Box::new(wire2::read_json_capsule(&mut r)?))
                } else {
                    None
                },
            },
            other => return Err(WireError::BadTag(other)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Appends a counted list of [`StageTiming`]s.
fn put_timings(w: &mut Writer<'_>, timings: &[StageTiming]) {
    w.usize(timings.len());
    for t in timings {
        w.usize(t.level);
        w.usize(t.origin);
        w.f64(t.duration);
    }
}

/// Reads a counted list written by [`put_timings`].
fn read_timings(r: &mut Reader<'_>) -> WireResult<Vec<StageTiming>> {
    let n = r.usize()?;
    // Each entry takes at least ten bytes (two varints + one f64); a
    // byte-per-entry bound is enough to refuse hostile counts.
    if n > r.remaining() {
        return Err(WireError::LengthOverrun {
            declared: n,
            available: r.remaining(),
        });
    }
    let mut timings = Vec::with_capacity(n);
    for _ in 0..n {
        timings.push(StageTiming {
            level: r.usize()?,
            origin: r.usize()?,
            duration: r.f64()?,
        });
    }
    Ok(timings)
}

/// Writes one mesh frame.
pub fn send<W: Write>(w: &mut W, msg: &MeshMsg) -> io::Result<()> {
    proto::write_frame_binary(w, msg)
}

/// [`send`] under the name and signature the repo benchmark
/// (`benchmark/`) calls; binary is the only format.
pub fn send_as<W: Write>(w: &mut W, msg: &MeshMsg, _wire: WireFormat) -> io::Result<()> {
    send(w, msg)
}

/// Reads one mesh frame, refusing any framing but binary with an
/// [`io::ErrorKind::Unsupported`] error. Returns `Ok(None)` on clean
/// end-of-stream.
pub fn recv<R: Read>(r: &mut R) -> io::Result<Option<MeshMsg>> {
    match proto::read_frame_raw(r)? {
        None => Ok(None),
        Some(raw) if raw.is_supported() => raw.decode_auto().map(Some),
        Some(raw) => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!(
                "frame version {} not supported (mesh links speak {})",
                raw.version,
                proto::PROTO_VERSION_BINARY
            ),
        )),
    }
}

/// Derives the duration-sampling seed for one leaf: a splitmix64 mix of
/// the query seed and the leaf's global origin. Pure, so the worker
/// hosting the leaf and any process auditing it agree byte-for-byte.
#[must_use]
pub fn leaf_seed(seed: u64, origin: usize) -> u64 {
    splitmix64(seed ^ splitmix64(0x1eaf_0000_0000_0000 | origin as u64))
}

/// Derives the duration-sampling seed for an aggregator's own stage.
#[must_use]
pub fn agg_seed(seed: u64, origin: usize) -> u64 {
    splitmix64(seed ^ splitmix64(0xa990_0000_0000_0000 | origin as u64))
}

/// Mints the mesh-wide trace id for one query: a splitmix64 mix of the
/// query seed and id. Pure, so a replayed query traces under the same
/// id on every node.
#[must_use]
pub fn trace_id(seed: u64, query_id: u64) -> u64 {
    splitmix64(seed ^ splitmix64(0x7ace_0000_0000_0000 ^ query_id))
}

/// SplitMix64: tiny, well-mixed, and stable across platforms.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_disjoint_from_the_client_protocol() {
        let client_ops = [
            proto::OP_QUERY,
            proto::OP_STATS,
            proto::OP_PING,
            proto::OP_SHUTDOWN,
            proto::OP_METRICS,
        ];
        for mesh_op in [
            "hello",
            "hello_ack",
            "heartbeat",
            "heartbeat_ack",
            "exec",
            "retry",
            "partial",
        ] {
            assert!(!client_ops.contains(&mesh_op));
        }
    }

    #[test]
    fn seed_derivations_are_pure_and_distinct() {
        assert_eq!(leaf_seed(7, 3), leaf_seed(7, 3));
        assert_ne!(leaf_seed(7, 3), leaf_seed(7, 4));
        assert_ne!(leaf_seed(7, 3), leaf_seed(8, 3));
        assert_ne!(leaf_seed(7, 3), agg_seed(7, 3));
    }

    #[test]
    fn trace_ids_are_pure_and_distinct() {
        assert_eq!(trace_id(7, 3), trace_id(7, 3));
        assert_ne!(trace_id(7, 3), trace_id(7, 4));
        assert_ne!(trace_id(7, 3), trace_id(8, 3));
        assert_ne!(trace_id(7, 3), leaf_seed(7, 3));
    }

    #[test]
    fn send_writes_the_binary_framing() {
        let mut buf = Vec::new();
        send(
            &mut buf,
            &MeshMsg::Heartbeat {
                from: "root".into(),
                seq: 1,
            },
        )
        .expect("send into a Vec");
        assert_eq!(buf[4], proto::PROTO_VERSION_BINARY);
        assert_eq!(buf[5], KIND_HEARTBEAT);
    }
}
