//! Protocol version 2: the zero-copy binary codec for client frames.
//!
//! A frame is a 4-byte big-endian length, the version byte
//! [`crate::proto::PROTO_VERSION_BINARY`], and a body in the binary
//! layout of [`cedar_wire`]: one kind byte, LEB128 varints for integers
//! and lengths, `f64` bit patterns, and length-prefixed byte runs that
//! decode as *borrowed* views into the frame body. There is no
//! intermediate `serde_json::Value`; decoding is a single front-to-back
//! walk.
//!
//! ## Body layout
//!
//! ```text
//! request  := kind:u8 payload
//!   0x01 query    flags:u8 [tree] [deadline:f64] [seed:varint]
//!                 (flags bit0 = tree, bit1 = deadline, bit2 = seed,
//!                  bit3 = explain present, bit4 = explain value)
//!   0x02 stats    (empty)
//!   0x03 ping     (empty)
//!   0x04 shutdown (empty)
//!   0x05 metrics  (empty)
//!   0x0f other    op:str   (forward-compat: unknown op names travel
//!                           whole so the server can answer unknown_op)
//!
//! response := kind:u8 payload
//!   0x41 ok       (empty)
//!   0x42 result   quality:f64 included:varint total:varint
//!                 arrivals:varint value_sum:f64 latency_ms:f64
//!                 epoch:varint flags:u8 [failures] [trace:capsule]
//!   0x43 stats    completed:varint refits:varint epoch:varint
//!                 cache_hits:varint cache_misses:varint
//!                 in_flight:varint shed:varint served:varint
//!                 [flags:u8 [priors_age:varint] [ckpt_age:varint]]
//!                 (the trailing extension block is present only when a
//!                  durability field is set — flags bit0 = priors_age,
//!                  bit1 = ckpt_age, bit2 = warm_restart present,
//!                  bit3 = warm_restart value — so pre-durability
//!                  decoders still accept minimal stats bodies)
//!   0x45 metrics  text:str
//!   0x46 health   state:u8 in_flight:varint queued:varint
//!                 spilled:varint disk_bytes:varint epoch:varint
//!                 priors_age:varint p99:f64 flags:u8 [ckpt_age:varint]
//!                 (flags bit0 = ckpt_age, bit1 = warm_restart)
//!   0x4f error    flags:u8 [error:str] [code:str]
//!
//! tree     := nstages:varint (fanout:varint dist)*
//! dist     := tag:u8 params            (tags 1..=10; Scaled/Shifted
//!                                       recurse, Mixture is counted)
//! failures := 9 varints in FailureReport field order
//! capsule  := bytes                    (embedded JSON for the rare,
//!                                       debug-only trace report)
//! ```
//!
//! Kind bytes 0x10..=0x16 are reserved for the mesh frames
//! (`cedar_mesh::wire`), so one listener can tell which family a body
//! belongs to from its first byte.
//!
//! ## Equivalence and limits
//!
//! Every encodable value round-trips bit-exactly (floats by bit
//! pattern — NaN, ±0 and infinities included). Decoding enforces the
//! same structural limits as a JSON tree definition plus a recursion cap on
//! nested [`DistSpec`]s, and every malformed body yields a typed
//! [`WireError`], never a panic.

use crate::proto::{HealthState, HealthStatus, QueryResult, Request, Response, ServerStats};
use cedar_runtime::FailureReport;
use cedar_wire::{Reader, Result as WireResult, WireError, Writer};
use cedar_workloads::treedef::{StageDef, TreeDef};
use std::io;

use cedar_distrib::spec::DistSpec;

/// Kind byte: a query request.
pub const KIND_QUERY: u8 = 0x01;
/// Kind byte: a stats request.
pub const KIND_STATS: u8 = 0x02;
/// Kind byte: a ping request.
pub const KIND_PING: u8 = 0x03;
/// Kind byte: a shutdown request.
pub const KIND_SHUTDOWN: u8 = 0x04;
/// Kind byte: a metrics request.
pub const KIND_METRICS: u8 = 0x05;
/// Kind byte: a request whose op is not one of the named kinds; the op
/// string rides in the payload so the server can answer `unknown_op`.
pub const KIND_OTHER_OP: u8 = 0x0f;

/// Kind byte: a successful empty response.
pub const KIND_RESP_OK: u8 = 0x41;
/// Kind byte: a query-result response.
pub const KIND_RESP_RESULT: u8 = 0x42;
/// Kind byte: a stats response.
pub const KIND_RESP_STATS: u8 = 0x43;
/// Kind byte: a metrics response.
pub const KIND_RESP_METRICS: u8 = 0x45;
/// Kind byte: a health response.
pub const KIND_RESP_HEALTH: u8 = 0x46;
/// Kind byte: an error response.
pub const KIND_RESP_ERR: u8 = 0x4f;

/// Deepest legal [`DistSpec`] nesting on the wire; beyond it a decode
/// fails instead of recursing toward a stack overflow.
pub const MAX_DIST_DEPTH: usize = 32;

/// Most stages a decoded tree may declare; matches nothing real (the
/// engine runs 2-5 levels) and exists to bound hostile allocations.
const MAX_STAGES: usize = 64;

/// Most mixture components a decoded spec may declare.
const MAX_MIXTURE: usize = 1024;

/// Rejects a flag byte carrying bits outside `known`. Flag bytes gate
/// optional fields; accepting undefined bits would decode a frame from a
/// future protocol revision into a silently lossy message — and break
/// the decode∘encode identity `xtask totality` enforces.
fn check_flags(flags: u8, known: u8) -> WireResult<u8> {
    if flags & !known != 0 {
        return Err(WireError::UnknownFlags(flags));
    }
    Ok(flags)
}

/// A message with a hand-rolled binary body behind
/// [`proto::PROTO_VERSION_BINARY`].
///
/// `encode` appends the body to a caller-owned buffer (reuse it across
/// frames and steady-state encoding never allocates); `decode` walks a
/// borrowed body once, allocating only the owned message itself.
pub trait BinaryCodec: Sized {
    /// Appends this message's binary body (no framing) to `buf`.
    fn encode_binary(&self, buf: &mut Vec<u8>);

    /// Decodes one binary body. The whole body must be consumed.
    fn decode_binary(body: &[u8]) -> WireResult<Self>;
}

impl BinaryCodec for Request {
    fn encode_binary(&self, buf: &mut Vec<u8>) {
        let mut w = Writer::new(buf);
        match self.op.as_str() {
            crate::proto::OP_QUERY => {
                w.u8(KIND_QUERY);
                let mut flags = 0u8;
                if self.tree.is_some() {
                    flags |= 1;
                }
                if self.deadline.is_some() {
                    flags |= 1 << 1;
                }
                if self.seed.is_some() {
                    flags |= 1 << 2;
                }
                if let Some(explain) = self.explain {
                    flags |= 1 << 3;
                    if explain {
                        flags |= 1 << 4;
                    }
                }
                w.u8(flags);
                if let Some(tree) = &self.tree {
                    put_tree(&mut w, tree);
                }
                if let Some(d) = self.deadline {
                    w.f64(d);
                }
                if let Some(s) = self.seed {
                    w.uvarint(s);
                }
            }
            crate::proto::OP_STATS => w.u8(KIND_STATS),
            crate::proto::OP_PING => w.u8(KIND_PING),
            crate::proto::OP_SHUTDOWN => w.u8(KIND_SHUTDOWN),
            crate::proto::OP_METRICS => w.u8(KIND_METRICS),
            other => {
                w.u8(KIND_OTHER_OP);
                w.str(other);
            }
        }
    }

    fn decode_binary(body: &[u8]) -> WireResult<Self> {
        let mut r = Reader::new(body);
        let kind = r.u8()?;
        let req = match kind {
            KIND_QUERY => {
                let flags = check_flags(r.u8()?, 0b1_1111)?;
                if flags & (1 << 4) != 0 && flags & (1 << 3) == 0 {
                    // An explain *value* without the explain-present bit
                    // has no owner; re-encoding would drop it.
                    return Err(WireError::UnknownFlags(flags));
                }
                let tree = if flags & 1 != 0 {
                    Some(read_tree(&mut r)?)
                } else {
                    None
                };
                let deadline = if flags & (1 << 1) != 0 {
                    Some(r.f64()?)
                } else {
                    None
                };
                let seed = if flags & (1 << 2) != 0 {
                    Some(r.uvarint()?)
                } else {
                    None
                };
                let explain = if flags & (1 << 3) != 0 {
                    Some(flags & (1 << 4) != 0)
                } else {
                    None
                };
                Request {
                    op: crate::proto::OP_QUERY.to_owned(),
                    tree,
                    deadline,
                    seed,
                    explain,
                }
            }
            KIND_STATS => bare(crate::proto::OP_STATS),
            KIND_PING => bare(crate::proto::OP_PING),
            KIND_SHUTDOWN => bare(crate::proto::OP_SHUTDOWN),
            KIND_METRICS => bare(crate::proto::OP_METRICS),
            KIND_OTHER_OP => bare(r.str()?),
            other => return Err(WireError::BadTag(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

fn bare(op: &str) -> Request {
    Request {
        op: op.to_owned(),
        tree: None,
        deadline: None,
        seed: None,
        explain: None,
    }
}

impl BinaryCodec for Response {
    fn encode_binary(&self, buf: &mut Vec<u8>) {
        let mut w = Writer::new(buf);
        if !self.ok {
            w.u8(KIND_RESP_ERR);
            let mut flags = 0u8;
            if self.error.is_some() {
                flags |= 1;
            }
            if self.code.is_some() {
                flags |= 1 << 1;
            }
            w.u8(flags);
            if let Some(e) = &self.error {
                w.str(e);
            }
            if let Some(c) = &self.code {
                w.str(c);
            }
            return;
        }
        if let Some(res) = &self.result {
            w.u8(KIND_RESP_RESULT);
            w.f64(res.quality);
            w.usize(res.included_outputs);
            w.usize(res.total_processes);
            w.usize(res.root_arrivals);
            w.f64(res.value_sum);
            w.f64(res.latency_ms);
            w.uvarint(res.epoch);
            let mut flags = 0u8;
            if res.failures.is_some() {
                flags |= 1;
            }
            if res.trace.is_some() {
                flags |= 1 << 1;
            }
            w.u8(flags);
            if let Some(fr) = &res.failures {
                put_failure_report(&mut w, fr);
            }
            if let Some(trace) = &res.trace {
                // The decision trace is a rare, explicitly requested
                // debug payload with a deep structure; it travels as an
                // embedded JSON capsule rather than growing the binary
                // grammar. The hot path (explain off) never builds one.
                put_json_capsule(&mut w, trace);
            }
        } else if let Some(stats) = &self.stats {
            w.u8(KIND_RESP_STATS);
            w.usize(stats.completed);
            w.usize(stats.refits);
            w.uvarint(stats.epoch);
            w.uvarint(stats.cache_hits);
            w.uvarint(stats.cache_misses);
            w.usize(stats.in_flight);
            w.uvarint(stats.shed_total);
            w.uvarint(stats.served_total);
            // Durability extension: emitted only when a field is set,
            // so bodies without it stay decodable by pre-extension
            // readers (and the reverse, via the remaining-bytes probe).
            let any = stats.priors_age_queries.is_some()
                || stats.checkpoint_age_ms.is_some()
                || stats.warm_restart.is_some();
            if any {
                let mut flags = 0u8;
                if stats.priors_age_queries.is_some() {
                    flags |= 1;
                }
                if stats.checkpoint_age_ms.is_some() {
                    flags |= 1 << 1;
                }
                if let Some(warm) = stats.warm_restart {
                    flags |= 1 << 2;
                    if warm {
                        flags |= 1 << 3;
                    }
                }
                w.u8(flags);
                if let Some(age) = stats.priors_age_queries {
                    w.uvarint(age);
                }
                if let Some(age) = stats.checkpoint_age_ms {
                    w.uvarint(age);
                }
            }
        } else if let Some(text) = &self.metrics {
            w.u8(KIND_RESP_METRICS);
            w.str(text);
        } else if let Some(h) = &self.health {
            w.u8(KIND_RESP_HEALTH);
            w.u8(match h.state {
                HealthState::Ok => 0,
                HealthState::Degraded => 1,
                HealthState::Overloaded => 2,
            });
            w.usize(h.in_flight);
            w.usize(h.queued);
            w.usize(h.spilled);
            w.uvarint(h.spill_disk_bytes);
            w.uvarint(h.priors_epoch);
            w.uvarint(h.priors_age_queries);
            w.f64(h.wait_scan_p99_seconds);
            let mut flags = 0u8;
            if h.checkpoint_age_ms.is_some() {
                flags |= 1;
            }
            if h.warm_restart {
                flags |= 1 << 1;
            }
            w.u8(flags);
            if let Some(age) = h.checkpoint_age_ms {
                w.uvarint(age);
            }
        } else {
            w.u8(KIND_RESP_OK);
        }
    }

    fn decode_binary(body: &[u8]) -> WireResult<Self> {
        let mut r = Reader::new(body);
        let kind = r.u8()?;
        let resp = match kind {
            KIND_RESP_OK => Response::ok(),
            KIND_RESP_RESULT => {
                let quality = r.f64()?;
                let included_outputs = r.usize()?;
                let total_processes = r.usize()?;
                let root_arrivals = r.usize()?;
                let value_sum = r.f64()?;
                let latency_ms = r.f64()?;
                let epoch = r.uvarint()?;
                let flags = check_flags(r.u8()?, 0b11)?;
                let failures = if flags & 1 != 0 {
                    Some(read_failure_report(&mut r)?)
                } else {
                    None
                };
                let trace = if flags & (1 << 1) != 0 {
                    Some(read_json_capsule(&mut r)?)
                } else {
                    None
                };
                Response::with_result(QueryResult {
                    quality,
                    included_outputs,
                    total_processes,
                    root_arrivals,
                    value_sum,
                    latency_ms,
                    epoch,
                    failures,
                    trace,
                })
            }
            KIND_RESP_STATS => {
                let mut stats = ServerStats {
                    completed: r.usize()?,
                    refits: r.usize()?,
                    epoch: r.uvarint()?,
                    cache_hits: r.uvarint()?,
                    cache_misses: r.uvarint()?,
                    in_flight: r.usize()?,
                    shed_total: r.uvarint()?,
                    served_total: r.uvarint()?,
                    priors_age_queries: None,
                    checkpoint_age_ms: None,
                    warm_restart: None,
                };
                // Pre-durability bodies end here; newer ones append the
                // extension block.
                if !r.is_empty() {
                    let flags = check_flags(r.u8()?, 0b1111)?;
                    if flags == 0 || (flags & (1 << 3) != 0 && flags & (1 << 2) == 0) {
                        // The encoder only writes this block when a field
                        // is set, and only carries a warm-restart value
                        // under the present bit; other shapes cannot
                        // re-encode to the same bytes.
                        return Err(WireError::UnknownFlags(flags));
                    }
                    if flags & 1 != 0 {
                        stats.priors_age_queries = Some(r.uvarint()?);
                    }
                    if flags & (1 << 1) != 0 {
                        stats.checkpoint_age_ms = Some(r.uvarint()?);
                    }
                    if flags & (1 << 2) != 0 {
                        stats.warm_restart = Some(flags & (1 << 3) != 0);
                    }
                }
                Response::with_stats(stats)
            }
            KIND_RESP_METRICS => Response::with_metrics(r.str()?.to_owned()),
            KIND_RESP_HEALTH => {
                let state = match r.u8()? {
                    0 => HealthState::Ok,
                    1 => HealthState::Degraded,
                    2 => HealthState::Overloaded,
                    other => return Err(WireError::BadTag(other)),
                };
                let in_flight = r.usize()?;
                let queued = r.usize()?;
                let spilled = r.usize()?;
                let spill_disk_bytes = r.uvarint()?;
                let priors_epoch = r.uvarint()?;
                let priors_age_queries = r.uvarint()?;
                let wait_scan_p99_seconds = r.f64()?;
                let flags = check_flags(r.u8()?, 0b11)?;
                let checkpoint_age_ms = if flags & 1 != 0 {
                    Some(r.uvarint()?)
                } else {
                    None
                };
                Response::with_health(HealthStatus {
                    state,
                    in_flight,
                    queued,
                    spilled,
                    spill_disk_bytes,
                    priors_epoch,
                    priors_age_queries,
                    checkpoint_age_ms,
                    warm_restart: flags & (1 << 1) != 0,
                    wait_scan_p99_seconds,
                })
            }
            KIND_RESP_ERR => {
                let flags = check_flags(r.u8()?, 0b11)?;
                let error = if flags & 1 != 0 {
                    Some(r.str()?.to_owned())
                } else {
                    None
                };
                let code = if flags & (1 << 1) != 0 {
                    Some(r.str()?.to_owned())
                } else {
                    None
                };
                Response {
                    ok: false,
                    error,
                    code,
                    result: None,
                    stats: None,
                    metrics: None,
                    health: None,
                }
            }
            other => return Err(WireError::BadTag(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}

// ---- shared field encoders (also used by the mesh's binary frames) ----

/// Appends a [`TreeDef`]: stage count, then per stage fanout + dist.
pub fn put_tree(w: &mut Writer<'_>, tree: &TreeDef) {
    w.usize(tree.stages.len());
    for stage in &tree.stages {
        w.usize(stage.fanout);
        put_dist(w, &stage.dist);
    }
}

/// Reads a [`TreeDef`] written by [`put_tree`].
pub fn read_tree(r: &mut Reader<'_>) -> WireResult<TreeDef> {
    let n = r.usize()?;
    if n > MAX_STAGES {
        return Err(WireError::LengthOverrun {
            declared: n,
            available: MAX_STAGES,
        });
    }
    let mut stages = Vec::with_capacity(n);
    for _ in 0..n {
        let fanout = r.usize()?;
        let dist = read_dist(r, 0)?;
        stages.push(StageDef { dist, fanout });
    }
    Ok(TreeDef { stages })
}

/// Appends a [`DistSpec`]; `Scaled`/`Shifted`/`Mixture` recurse.
pub fn put_dist(w: &mut Writer<'_>, dist: &DistSpec) {
    match dist {
        DistSpec::LogNormal { mu, sigma } => {
            w.u8(1);
            w.f64(*mu);
            w.f64(*sigma);
        }
        DistSpec::Normal { mu, sigma } => {
            w.u8(2);
            w.f64(*mu);
            w.f64(*sigma);
        }
        DistSpec::Exponential { lambda } => {
            w.u8(3);
            w.f64(*lambda);
        }
        DistSpec::Gamma { shape, scale } => {
            w.u8(4);
            w.f64(*shape);
            w.f64(*scale);
        }
        DistSpec::Pareto { scale, shape } => {
            w.u8(5);
            w.f64(*scale);
            w.f64(*shape);
        }
        DistSpec::Weibull { shape, scale } => {
            w.u8(6);
            w.f64(*shape);
            w.f64(*scale);
        }
        DistSpec::Uniform { a, b } => {
            w.u8(7);
            w.f64(*a);
            w.f64(*b);
        }
        DistSpec::Scaled { factor, inner } => {
            w.u8(8);
            w.f64(*factor);
            put_dist(w, inner);
        }
        DistSpec::Shifted { offset, inner } => {
            w.u8(9);
            w.f64(*offset);
            put_dist(w, inner);
        }
        DistSpec::Mixture { components } => {
            w.u8(10);
            w.usize(components.len());
            for (weight, component) in components {
                w.f64(*weight);
                put_dist(w, component);
            }
        }
    }
}

/// Reads a [`DistSpec`] written by [`put_dist`], refusing nesting
/// deeper than [`MAX_DIST_DEPTH`].
pub fn read_dist(r: &mut Reader<'_>, depth: usize) -> WireResult<DistSpec> {
    if depth >= MAX_DIST_DEPTH {
        return Err(WireError::LengthOverrun {
            declared: depth + 1,
            available: MAX_DIST_DEPTH,
        });
    }
    let tag = r.u8()?;
    Ok(match tag {
        1 => DistSpec::LogNormal {
            mu: r.f64()?,
            sigma: r.f64()?,
        },
        2 => DistSpec::Normal {
            mu: r.f64()?,
            sigma: r.f64()?,
        },
        3 => DistSpec::Exponential { lambda: r.f64()? },
        4 => DistSpec::Gamma {
            shape: r.f64()?,
            scale: r.f64()?,
        },
        5 => DistSpec::Pareto {
            scale: r.f64()?,
            shape: r.f64()?,
        },
        6 => DistSpec::Weibull {
            shape: r.f64()?,
            scale: r.f64()?,
        },
        7 => DistSpec::Uniform {
            a: r.f64()?,
            b: r.f64()?,
        },
        8 => DistSpec::Scaled {
            factor: r.f64()?,
            inner: Box::new(read_dist(r, depth + 1)?),
        },
        9 => DistSpec::Shifted {
            offset: r.f64()?,
            inner: Box::new(read_dist(r, depth + 1)?),
        },
        10 => {
            let n = r.usize()?;
            if n > MAX_MIXTURE {
                return Err(WireError::LengthOverrun {
                    declared: n,
                    available: MAX_MIXTURE,
                });
            }
            let mut components = Vec::with_capacity(n);
            for _ in 0..n {
                let weight = r.f64()?;
                components.push((weight, read_dist(r, depth + 1)?));
            }
            DistSpec::Mixture { components }
        }
        other => return Err(WireError::BadTag(other)),
    })
}

/// Appends a [`FailureReport`]: its nine counters as varints, in field
/// order.
pub fn put_failure_report(w: &mut Writer<'_>, fr: &FailureReport) {
    w.usize(fr.crashed);
    w.usize(fr.hung);
    w.usize(fr.straggled);
    w.usize(fr.dropped);
    w.usize(fr.duplicated);
    w.usize(fr.retries_launched);
    w.usize(fr.retries_delivered);
    w.usize(fr.duplicates_suppressed);
    w.usize(fr.censored_observations);
}

/// Reads a [`FailureReport`] written by [`put_failure_report`].
pub fn read_failure_report(r: &mut Reader<'_>) -> WireResult<FailureReport> {
    Ok(FailureReport {
        crashed: r.usize()?,
        hung: r.usize()?,
        straggled: r.usize()?,
        dropped: r.usize()?,
        duplicated: r.usize()?,
        retries_launched: r.usize()?,
        retries_delivered: r.usize()?,
        duplicates_suppressed: r.usize()?,
        censored_observations: r.usize()?,
    })
}

/// Appends a length-prefixed JSON capsule: the escape hatch for rare,
/// deeply structured debug payloads (trace reports, fault plans) that
/// do not warrant their own binary grammar. Hot-path frames never carry
/// one.
pub fn put_json_capsule<T: serde::Serialize>(w: &mut Writer<'_>, value: &T) {
    match serde_json::to_string(value) {
        Ok(json) => w.bytes(json.as_bytes()),
        // Serialization of these in-memory types cannot fail; an empty
        // capsule (which fails to parse on the far side) beats a panic
        // in a no-panic crate.
        Err(_) => w.bytes(b""),
    }
}

/// Reads a JSON capsule written by [`put_json_capsule`].
pub fn read_json_capsule<T: serde::Deserialize>(r: &mut Reader<'_>) -> WireResult<T> {
    let bytes = r.bytes()?;
    let text = std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?;
    serde_json::from_str(text).map_err(|_| WireError::BadUtf8)
}

/// Encodes `msg` as one framed binary message into `buf` (cleared
/// first): 4-byte big-endian length, version byte
/// [`proto::PROTO_VERSION_BINARY`], binary body. The buffer is reusable
/// across frames, so steady-state encoding performs no allocation.
pub fn encode_frame_into<T: BinaryCodec>(msg: &T, buf: &mut Vec<u8>) -> io::Result<()> {
    buf.clear();
    // Reserve the length prefix, then encode in place and patch it.
    buf.extend_from_slice(&[0, 0, 0, 0, crate::proto::PROTO_VERSION_BINARY]);
    msg.encode_binary(buf);
    let body_len = buf.len() - 4;
    if body_len > crate::proto::MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    let prefix = u32::try_from(body_len)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame length overflows u32"))?
        .to_be_bytes();
    buf[..4].copy_from_slice(&prefix);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;

    fn round_trip_req(req: &Request) -> Request {
        let mut buf = Vec::new();
        req.encode_binary(&mut buf);
        Request::decode_binary(&buf).expect("decode what we encoded")
    }

    fn round_trip_resp(resp: &Response) -> Response {
        let mut buf = Vec::new();
        resp.encode_binary(&mut buf);
        Response::decode_binary(&buf).expect("decode what we encoded")
    }

    #[test]
    fn query_request_round_trips() {
        let req = Request::query(TreeDef::example(), Some(1600.0), Some(7)).with_explain(true);
        let back = round_trip_req(&req);
        assert_eq!(back.op, proto::OP_QUERY);
        assert_eq!(back.tree, req.tree);
        assert_eq!(back.deadline, Some(1600.0));
        assert_eq!(back.seed, Some(7));
        assert_eq!(back.explain, Some(true));
    }

    #[test]
    fn bare_requests_round_trip() {
        for (req, op) in [
            (Request::stats(), proto::OP_STATS),
            (Request::ping(), proto::OP_PING),
            (Request::shutdown(), proto::OP_SHUTDOWN),
            (Request::metrics(), proto::OP_METRICS),
        ] {
            let back = round_trip_req(&req);
            assert_eq!(back.op, op);
            assert!(back.tree.is_none());
        }
    }

    #[test]
    fn unknown_op_travels_whole() {
        let mut req = Request::ping();
        req.op = "explode".to_owned();
        assert_eq!(round_trip_req(&req).op, "explode");
    }

    #[test]
    fn nested_dists_round_trip() {
        let spec = DistSpec::Mixture {
            components: vec![
                (
                    0.25,
                    DistSpec::Scaled {
                        factor: 3.0,
                        inner: Box::new(DistSpec::LogNormal {
                            mu: 1.0,
                            sigma: 0.5,
                        }),
                    },
                ),
                (
                    0.75,
                    DistSpec::Shifted {
                        offset: -1.5,
                        inner: Box::new(DistSpec::Uniform { a: 0.0, b: 2.0 }),
                    },
                ),
            ],
        };
        let mut buf = Vec::new();
        put_dist(&mut Writer::new(&mut buf), &spec);
        let mut r = Reader::new(&buf);
        assert_eq!(read_dist(&mut r, 0).unwrap(), spec);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn hostile_recursion_is_capped() {
        // 64 nested Scaled wrappers: deeper than MAX_DIST_DEPTH.
        let mut buf = Vec::new();
        {
            let mut w = Writer::new(&mut buf);
            for _ in 0..64 {
                w.u8(8);
                w.f64(2.0);
            }
            w.u8(1);
            w.f64(0.0);
            w.f64(1.0);
        }
        let err = read_dist(&mut Reader::new(&buf), 0).unwrap_err();
        assert!(matches!(err, WireError::LengthOverrun { .. }));
    }

    #[test]
    fn responses_round_trip() {
        let failures = FailureReport {
            crashed: 3,
            retries_launched: 2,
            ..FailureReport::default()
        };
        let resp = Response::with_result(QueryResult {
            quality: 0.875,
            included_outputs: 28,
            total_processes: 32,
            root_arrivals: 4,
            value_sum: 28.0,
            latency_ms: 12.25,
            epoch: 9,
            failures: Some(failures),
            trace: None,
        });
        let back = round_trip_resp(&resp);
        let res = back.result.expect("result present");
        assert_eq!(res.quality, 0.875);
        assert_eq!(res.failures, Some(failures));

        let stats = Response::with_stats(ServerStats {
            completed: 10,
            refits: 2,
            epoch: 2,
            cache_hits: 8,
            cache_misses: 2,
            in_flight: 1,
            shed_total: 0,
            served_total: 11,
            priors_age_queries: None,
            checkpoint_age_ms: None,
            warm_restart: None,
        });
        assert_eq!(round_trip_resp(&stats).stats.expect("stats").cache_hits, 8);

        let err = Response::err_code(proto::ERR_SHED, "shed: queue full");
        let back = round_trip_resp(&err);
        assert!(!back.ok);
        assert!(back.is_shed());

        assert!(round_trip_resp(&Response::ok()).ok);
        assert_eq!(
            round_trip_resp(&Response::with_metrics("x 1\n".to_owned()))
                .metrics
                .as_deref(),
            Some("x 1\n")
        );
    }

    #[test]
    fn stats_durability_extension_round_trips_and_stays_optional() {
        let base = ServerStats {
            completed: 3,
            refits: 1,
            epoch: 1,
            cache_hits: 2,
            cache_misses: 1,
            in_flight: 0,
            shed_total: 0,
            served_total: 3,
            priors_age_queries: None,
            checkpoint_age_ms: None,
            warm_restart: None,
        };
        // All-None stats encode WITHOUT the extension block: the body
        // is byte-identical to the pre-durability layout.
        let mut minimal = Vec::new();
        Response::with_stats(base.clone()).encode_binary(&mut minimal);
        let back = Response::decode_binary(&minimal).unwrap().stats.unwrap();
        assert_eq!(back.priors_age_queries, None);
        assert_eq!(back.warm_restart, None);

        let mut full = base;
        full.priors_age_queries = Some(12);
        full.checkpoint_age_ms = Some(4_567);
        full.warm_restart = Some(true);
        let back = round_trip_resp(&Response::with_stats(full)).stats.unwrap();
        assert_eq!(back.priors_age_queries, Some(12));
        assert_eq!(back.checkpoint_age_ms, Some(4_567));
        assert_eq!(back.warm_restart, Some(true));
    }

    #[test]
    fn health_responses_round_trip() {
        for (state, ckpt, warm) in [
            (HealthState::Ok, None, false),
            (HealthState::Degraded, Some(0u64), true),
            (HealthState::Overloaded, Some(99_000), true),
        ] {
            let resp = Response::with_health(HealthStatus {
                state,
                in_flight: 7,
                queued: 3,
                spilled: 11,
                spill_disk_bytes: 8_192,
                priors_epoch: 5,
                priors_age_queries: 42,
                checkpoint_age_ms: ckpt,
                warm_restart: warm,
                wait_scan_p99_seconds: 0.25,
            });
            let h = round_trip_resp(&resp).health.expect("health present");
            assert_eq!(h.state, state);
            assert_eq!(h.spilled, 11);
            assert_eq!(h.checkpoint_age_ms, ckpt);
            assert_eq!(h.warm_restart, warm);
            assert_eq!(h.wait_scan_p99_seconds, 0.25);
        }
        // An out-of-range state byte is a typed error, not a panic.
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u8(KIND_RESP_HEALTH);
        w.u8(9);
        assert_eq!(
            Response::decode_binary(&buf).unwrap_err(),
            WireError::BadTag(9)
        );
    }

    #[test]
    fn non_finite_floats_round_trip_bit_exact() {
        let resp = Response::with_result(QueryResult {
            quality: f64::NAN,
            included_outputs: 0,
            total_processes: 0,
            root_arrivals: 0,
            value_sum: -0.0,
            latency_ms: f64::INFINITY,
            epoch: 0,
            failures: None,
            trace: None,
        });
        let back = round_trip_resp(&resp).result.expect("result");
        assert_eq!(back.quality.to_bits(), f64::NAN.to_bits());
        assert_eq!(back.value_sum.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.latency_ms, f64::INFINITY);
    }

    #[test]
    fn bad_kind_and_trailing_bytes_are_typed_errors() {
        assert_eq!(
            Request::decode_binary(&[0xee]).unwrap_err(),
            WireError::BadTag(0xee)
        );
        let mut buf = Vec::new();
        Request::ping().encode_binary(&mut buf);
        buf.push(0);
        assert_eq!(
            Request::decode_binary(&buf).unwrap_err(),
            WireError::TrailingBytes(1)
        );
        assert_eq!(
            Request::decode_binary(&[]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn framed_encoding_reuses_the_buffer() {
        let mut buf = Vec::new();
        encode_frame_into(&Request::ping(), &mut buf).unwrap();
        let first = buf.clone();
        encode_frame_into(&Request::stats(), &mut buf).unwrap();
        encode_frame_into(&Request::ping(), &mut buf).unwrap();
        assert_eq!(buf, first);
        // Layout: 4-byte length, version byte, kind byte.
        assert_eq!(buf[4], proto::PROTO_VERSION_BINARY);
        assert_eq!(buf[5], KIND_PING);
        let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        assert_eq!(len, buf.len() - 4);
    }
}
