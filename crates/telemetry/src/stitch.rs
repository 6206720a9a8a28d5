//! Cross-process trace stitching: the segment and hop-span types a mesh
//! ships alongside partial results so the root can assemble one
//! tree-shaped timeline spanning every process, with per-hop wire
//! overhead broken out.
//!
//! All absolute timestamps are microseconds since the Unix epoch **on
//! the clock of the node that recorded them**. Processes in one mesh do
//! not share a clock; each parent estimates its child's offset from
//! heartbeat round trips (the child's ack stamp minus the probe's
//! midpoint) and stores the estimate in the hop record, so renderers
//! can map a child stamp into the parent's frame as
//! `child_stamp - clock_offset_us`. Offsets compose along the tree: a
//! grandchild's stamp enters the root frame through the sum of the
//! offsets on its path. This module never reads a clock itself — every
//! stamp is supplied by the caller (the L1 discipline of the crate).

use crate::trace::{TraceReport, TraceSummary};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One parent→child edge of a traced query: the parent's send/receive
/// stamps, the child's receive-side spans, and the estimated clock
/// offset that aligns the two.
///
/// A *censored* hop is one whose child never delivered a partial before
/// the parent departed (a crashed, hung, or fully-faulted subtree): only
/// `child`, `exec_sent_unix_us`, and `clock_offset_us` are meaningful
/// and every other stamp is zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HopRecord {
    /// The child node's name.
    pub child: String,
    /// No partial came back before the parent departed; the subtree was
    /// right-censored, so the reply-side stamps below are absent (zero).
    pub censored: bool,
    /// Estimated child-clock minus parent-clock, in microseconds, from
    /// heartbeat RTT midpoints. Zero when no estimate exists yet.
    pub clock_offset_us: i64,
    /// Parent clock: just before the `exec` frame was written.
    pub exec_sent_unix_us: u64,
    /// Child clock: just after the `exec` frame was read off the socket.
    pub exec_recv_unix_us: u64,
    /// Child-side `exec` frame decode span, in microseconds.
    pub exec_decode_us: u64,
    /// Child-side span between decode and the exec handler actually
    /// starting work (dispatch/spawn queueing), in microseconds.
    pub exec_queue_us: u64,
    /// Child clock: just before its (last) `partial` was written.
    pub partial_sent_unix_us: u64,
    /// Parent clock: when the child's `partial` was taken off the wire.
    pub partial_recv_unix_us: u64,
}

impl HopRecord {
    /// A hop whose child never answered: the parent knows only when it
    /// sent the `exec` and what offset it had estimated.
    #[must_use]
    pub fn censored(child: impl Into<String>, exec_sent_unix_us: u64, offset_us: i64) -> Self {
        Self {
            child: child.into(),
            censored: true,
            clock_offset_us: offset_us,
            exec_sent_unix_us,
            exec_recv_unix_us: 0,
            exec_decode_us: 0,
            exec_queue_us: 0,
            partial_sent_unix_us: 0,
            partial_recv_unix_us: 0,
        }
    }

    /// Request-direction wire time: child receipt (mapped into the
    /// parent frame) minus parent send. Negative values are clock-offset
    /// estimation error, not time travel. `None` when censored.
    #[must_use]
    pub fn request_wire_us(&self) -> Option<i64> {
        if self.censored {
            return None;
        }
        Some(self.exec_recv_unix_us as i64 - self.clock_offset_us - self.exec_sent_unix_us as i64)
    }

    /// Reply-direction wire time: parent receipt minus child send
    /// (mapped into the parent frame). `None` when censored.
    #[must_use]
    pub fn reply_wire_us(&self) -> Option<i64> {
        if self.censored {
            return None;
        }
        Some(
            self.partial_recv_unix_us as i64
                - (self.partial_sent_unix_us as i64 - self.clock_offset_us),
        )
    }

    /// Total wire + stack overhead this hop added on top of the child's
    /// own work: request wire, decode, dispatch queueing, and reply
    /// wire. Each leg is clamped at zero so offset-estimation error
    /// cannot make the total negative. `None` when censored.
    #[must_use]
    pub fn overhead_us(&self) -> Option<i64> {
        Some(
            self.request_wire_us()?.max(0)
                + self.exec_decode_us as i64
                + self.exec_queue_us as i64
                + self.reply_wire_us()?.max(0),
        )
    }
}

/// One node's slice of a traced mesh query: its receive-side spans, the
/// hop records for its child edges, its children's segments nested
/// below, and its local decision trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSegment {
    /// The node's name in the topology.
    pub node: String,
    /// The node's role spelling (`root`, `agg`, `worker`).
    pub role: String,
    /// Query-tree level this node aggregates (workers 0, aggs 1, ...).
    pub level: usize,
    /// The node's origin index within its level (aggregator index, or a
    /// worker's first hosted leaf origin). Zero at the root.
    pub origin: usize,
    /// The trace id threaded through every `exec` of this query.
    pub trace_id: u64,
    /// Local clock: when this node's `exec` was read off the socket (at
    /// the root: when the client query started executing).
    pub exec_recv_unix_us: u64,
    /// `exec` frame decode span, in microseconds.
    pub exec_decode_us: u64,
    /// Span between decode and the handler starting work, microseconds.
    pub exec_queue_us: u64,
    /// Local clock: just before this node's (last) `partial` was
    /// written upstream. Zero at the root and for censored shippers.
    pub partial_sent_unix_us: u64,
    /// Completed records for this node's child edges, one per child
    /// that was dispatched to (censored entries for silent children).
    pub hops: Vec<HopRecord>,
    /// The children's own segments, as delivered in their partials.
    pub children: Vec<TraceSegment>,
    /// This node's local decision trace, when it ran the engine's
    /// aggregation loop (aggs; absent on workers and at the root, whose
    /// trace is the enclosing report).
    pub report: Option<TraceReport>,
    /// This node's local trace summary (exact counters).
    pub summary: TraceSummary,
}

impl TraceSegment {
    /// Total segments in this subtree, this node included.
    #[must_use]
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(TraceSegment::node_count)
            .sum::<usize>()
    }

    /// Hop records in this subtree (its edges plus its descendants').
    #[must_use]
    pub fn hop_count(&self) -> usize {
        self.hops.len()
            + self
                .children
                .iter()
                .map(TraceSegment::hop_count)
                .sum::<usize>()
    }

    /// Censored hops (children that never answered) in this subtree.
    #[must_use]
    pub fn censored_hops(&self) -> usize {
        self.hops.iter().filter(|h| h.censored).count()
            + self
                .children
                .iter()
                .map(TraceSegment::censored_hops)
                .sum::<usize>()
    }

    /// Every node's local counters summed over the subtree. Segments
    /// lost with a censored hop cannot contribute — the same divergence
    /// the mesh documents for `FailureReport` merging.
    #[must_use]
    pub fn merged_summary(&self) -> TraceSummary {
        let mut total = self.summary;
        for child in &self.children {
            let sub = child.merged_summary();
            total.arrivals += sub.arrivals;
            total.rearms += sub.rearms;
            total.failures.absorb(&sub.failures);
        }
        total
    }

    /// Wire + stack overhead summed over every answered hop in the
    /// subtree, in microseconds.
    #[must_use]
    pub fn wire_overhead_us(&self) -> i64 {
        self.hops
            .iter()
            .filter_map(HopRecord::overhead_us)
            .sum::<i64>()
            + self
                .children
                .iter()
                .map(TraceSegment::wire_overhead_us)
                .sum::<i64>()
    }
}

/// A whole mesh query's stitched timeline: the root segment with every
/// reachable descendant nested inside it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeshTrace {
    /// The trace id the root minted for this query.
    pub trace_id: u64,
    /// The root's segment; children hang off it, tree-shaped.
    pub root: TraceSegment,
}

impl MeshTrace {
    /// Renders the stitched tree: one line per node placing its
    /// receive/ship stamps on the root's clock, and one line per hop
    /// with the request/reply wire spans and the offset used to align
    /// them. Censored hops are marked instead of timed.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "mesh trace {:#018x}: {} node(s), {} hop(s), {} censored, wire overhead {}",
            self.trace_id,
            self.root.node_count(),
            self.root.hop_count(),
            self.root.censored_hops(),
            fmt_us(self.root.wire_overhead_us()),
        );
        let t0 = self.root.exec_recv_unix_us as i64;
        render_segment(&mut out, &self.root, "", t0, 0);
        out
    }
}

/// Microseconds, human-formatted (µs below 1 ms, else ms).
fn fmt_us(us: i64) -> String {
    if us.abs() < 1000 {
        format!("{us} \u{b5}s")
    } else {
        // cedar-lint: allow(L5): display-only us -> ms formatting; telemetry is a leaf crate without the core duration newtypes
        format!("{:.3} ms", us as f64 / 1000.0)
    }
}

/// A local stamp mapped onto the root clock, relative to query start.
fn rel(stamp: u64, cumulative_offset: i64, t0: i64) -> String {
    if stamp == 0 {
        return "-".to_owned();
    }
    format!("+{}", fmt_us(stamp as i64 - cumulative_offset - t0))
}

fn render_segment(out: &mut String, seg: &TraceSegment, prefix: &str, t0: i64, offset: i64) {
    let (s, f) = (&seg.summary, &seg.summary.failures);
    let _ = writeln!(
        out,
        "{prefix}{} [{} L{}#{}] exec recv {} (decode {}, queue {}), partial sent {} | \
         arrivals={} retries={}/{} censored={} faults(c/h/s/d/D)={}/{}/{}/{}/{}",
        seg.node,
        seg.role,
        seg.level,
        seg.origin,
        rel(seg.exec_recv_unix_us, offset, t0),
        fmt_us(seg.exec_decode_us as i64),
        fmt_us(seg.exec_queue_us as i64),
        rel(seg.partial_sent_unix_us, offset, t0),
        s.arrivals,
        f.retries_delivered,
        f.retries_launched,
        f.censored_observations,
        f.crashed,
        f.hung,
        f.straggled,
        f.dropped,
        f.duplicated,
    );
    for (i, hop) in seg.hops.iter().enumerate() {
        let last = i + 1 == seg.hops.len();
        let tee = if last { "└─" } else { "├─" };
        let cont = if last { "   " } else { "│  " };
        if hop.censored {
            let _ = writeln!(
                out,
                "{prefix}{tee} {}→{}: censored — exec sent {} , no partial received",
                seg.node,
                hop.child,
                rel(hop.exec_sent_unix_us, offset, t0),
            );
            continue;
        }
        let _ = writeln!(
            out,
            "{prefix}{tee} {}→{}: request wire {}, reply wire {}, overhead {} (offset {})",
            seg.node,
            hop.child,
            fmt_us(hop.request_wire_us().unwrap_or(0)),
            fmt_us(hop.reply_wire_us().unwrap_or(0)),
            fmt_us(hop.overhead_us().unwrap_or(0)),
            fmt_us(hop.clock_offset_us),
        );
        if let Some(child) = seg.children.iter().find(|c| c.node == hop.child) {
            render_segment(
                out,
                child,
                &format!("{prefix}{cont} "),
                t0,
                offset + hop.clock_offset_us,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(child: &str, offset: i64) -> HopRecord {
        HopRecord {
            child: child.to_owned(),
            censored: false,
            clock_offset_us: offset,
            exec_sent_unix_us: 1_000_000,
            exec_recv_unix_us: (1_000_800_i64 + offset) as u64,
            exec_decode_us: 5,
            exec_queue_us: 2,
            partial_sent_unix_us: (1_050_000_i64 + offset) as u64,
            partial_recv_unix_us: 1_050_700,
        }
    }

    fn segment(node: &str, role: &str, level: usize) -> TraceSegment {
        TraceSegment {
            node: node.to_owned(),
            role: role.to_owned(),
            level,
            origin: 0,
            trace_id: 7,
            exec_recv_unix_us: 1_000_800,
            exec_decode_us: 5,
            exec_queue_us: 2,
            partial_sent_unix_us: 1_050_000,
            hops: Vec::new(),
            children: Vec::new(),
            report: None,
            summary: TraceSummary::default(),
        }
    }

    #[test]
    fn hop_spans_correct_for_clock_offset() {
        // A child running 10 ms ahead of the parent: the raw stamps are
        // inflated on the request leg and deflated on the reply leg, and
        // the offset correction recovers the true 800/700 µs wire times.
        let h = hop("agg0", 10_000);
        assert_eq!(h.request_wire_us(), Some(800));
        assert_eq!(h.reply_wire_us(), Some(700));
        assert_eq!(h.overhead_us(), Some(800 + 5 + 2 + 700));
    }

    #[test]
    fn censored_hops_report_no_spans() {
        let h = HopRecord::censored("agg1", 123, -5);
        assert!(h.censored);
        assert_eq!(h.request_wire_us(), None);
        assert_eq!(h.overhead_us(), None);
    }

    #[test]
    fn tree_counts_and_render() {
        let mut root = segment("root", "root", 2);
        root.exec_recv_unix_us = 1_000_000;
        root.partial_sent_unix_us = 0;
        let mut agg = segment("agg0", "agg", 1);
        agg.summary.arrivals = 4;
        agg.summary.failures.censored_observations = 1;
        let worker = segment("w0", "worker", 0);
        agg.hops.push(hop("w0", 0));
        agg.hops.push(HopRecord::censored("w1", 1_001_000, 0));
        agg.children.push(worker);
        root.hops.push(hop("agg0", 10_000));
        root.children.push(agg);
        let trace = MeshTrace { trace_id: 7, root };
        assert_eq!(trace.root.node_count(), 3);
        assert_eq!(trace.root.hop_count(), 3);
        assert_eq!(trace.root.censored_hops(), 1);
        assert_eq!(trace.root.merged_summary().arrivals, 4);
        let text = trace.render_tree();
        assert!(text.contains("root→agg0"), "{text}");
        assert!(text.contains("agg0→w1: censored"), "{text}");
        assert!(text.contains("wire overhead"), "{text}");
    }

    #[test]
    fn segments_round_trip_through_json() {
        let mut seg = segment("agg0", "agg", 1);
        seg.hops.push(hop("w0", -3));
        let json = serde_json::to_string(&seg).unwrap();
        let back: TraceSegment = serde_json::from_str(&json).unwrap();
        assert_eq!(back, seg);
    }
}
