//! The simulator's event queue: a binary heap ordered by event time with a
//! monotone sequence number breaking ties, so runs are deterministic even
//! when many events share a timestamp.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happened at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A result arrives at its receiver: a leaf process's output (payload
    /// 1, from the leaf's own origin) or an aggregator's shipped result.
    AggregatorResult {
        /// Receiving level: `1..=L` for the aggregator levels, `L + 1`
        /// for the root.
        level: usize,
        /// Receiving aggregator index within that level (0 for the root).
        agg: usize,
        /// Global origin id of the sender (see
        /// [`TreeSpec::origin_base`](cedar_core::TreeSpec::origin_base)).
        origin: usize,
        /// Process outputs carried by this result.
        payload: usize,
        /// Total weight carried by this result.
        weight: f64,
    },
    /// A departure timer armed for aggregator `agg` of `level` fires.
    /// The timestamp it was armed for disambiguates stale timers.
    Timer {
        /// Aggregator level (1-based).
        level: usize,
        /// Aggregator index within the level.
        agg: usize,
    },
}

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated time at which the event fires.
    pub time: f64,
    /// Payload.
    pub kind: EventKind,
}

/// Internal heap entry; reversed ordering turns `BinaryHeap` (a max-heap)
/// into the earliest-first queue we need.
#[derive(Debug)]
struct Entry {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smaller time (then smaller seq) = "greater" for the
        // max-heap, i.e. popped first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Earliest-first event queue with deterministic tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event.
    ///
    /// # Panics
    ///
    /// Panics if the event time is not finite.
    pub fn push(&mut self, time: f64, kind: EventKind) {
        assert!(time.is_finite(), "event time must be finite");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, kind });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|e| Event {
            time: e.time,
            kind: e.kind,
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A leaf's output for level-1 aggregator `agg`.
    fn leaf(agg: usize) -> EventKind {
        EventKind::AggregatorResult {
            level: 1,
            agg,
            origin: agg,
            payload: 1,
            weight: 1.0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, leaf(0));
        q.push(1.0, leaf(1));
        q.push(2.0, leaf(2));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for agg in 0..5 {
            q.push(7.0, leaf(agg));
        }
        let aggs: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::AggregatorResult { agg, .. } => agg,
                EventKind::Timer { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(aggs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1.0, EventKind::Timer { level: 1, agg: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        EventQueue::new().push(f64::NAN, EventKind::Timer { level: 1, agg: 0 });
    }
}
