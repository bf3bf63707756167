//! The discrete-event core: a priority queue with a *total*,
//! seed-stable order.
//!
//! Scheduler comparisons are only meaningful if the event order is a pure
//! function of the pushed events — two policies replayed over the same
//! trace must see arrivals in exactly the same sequence, and a resumed
//! run must pop exactly what the uninterrupted run popped. The queue
//! therefore orders events by `(time_fs, seq)`: femtosecond timestamps
//! first, and for simultaneous events the monotonically assigned push
//! sequence number breaks the tie. `seq` is unique per queue lifetime, so
//! the order is total — no two distinct events ever compare equal, and
//! `BinaryHeap`'s internal layout can never leak into the pop order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What happened (or is scheduled to happen) at an event's timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// Operation `op` of the current epoch's trace arrives at the fleet
    /// front-end and must be routed.
    Arrival {
        /// Index of the operation in the epoch trace.
        op: u32,
    },
    /// Node `node` finishes executing operation `op`.
    Completion {
        /// The executing node.
        node: u32,
        /// Index of the operation in the epoch trace.
        op: u32,
    },
}

impl EventKind {
    /// A stable one-byte tag for the wire/log encoding.
    pub fn tag(self) -> u8 {
        match self {
            EventKind::Arrival { .. } => 1,
            EventKind::Completion { .. } => 2,
        }
    }
}

/// One scheduled event: timestamp, tie-breaking sequence number, payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Simulated time, femtoseconds.
    pub time_fs: u64,
    /// Push order within the owning queue — the simultaneous-timestamp
    /// tie-breaker. Unique per queue, so `(time_fs, seq)` is a total
    /// order. Field order matters: the derived `Ord` compares `time_fs`
    /// first, then `seq`; `kind` is never reached.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Event {
    /// Appends the event's fixed-width little-endian encoding (17 bytes:
    /// time, seq, tag) plus the payload fields to `out` — the byte stream
    /// the replay suite's golden hashes are computed over.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.time_fs.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.push(self.kind.tag());
        match self.kind {
            EventKind::Arrival { op } => {
                out.extend_from_slice(&op.to_le_bytes());
            }
            EventKind::Completion { node, op } => {
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&op.to_le_bytes());
            }
        }
    }
}

/// A deterministic event queue: min-heap over `(time_fs, seq)`.
///
/// # Example
///
/// ```
/// use agemul_fleet::{EventKind, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(20, EventKind::Arrival { op: 1 });
/// q.push(10, EventKind::Arrival { op: 0 });
/// q.push(10, EventKind::Completion { node: 3, op: 9 });
/// // Earlier time first; equal times pop in push order.
/// assert_eq!(q.pop().unwrap().kind, EventKind::Arrival { op: 0 });
/// assert_eq!(q.pop().unwrap().kind, EventKind::Completion { node: 3, op: 9 });
/// assert_eq!(q.pop().unwrap().kind, EventKind::Arrival { op: 1 });
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue with the sequence counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at `time_fs` and returns the assigned sequence
    /// number (monotone across the queue's lifetime — pops never recycle
    /// sequence numbers).
    pub fn push(&mut self, time_fs: u64, kind: EventKind) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event { time_fs, seq, kind }));
        seq
    }

    /// Pops the next event: smallest `time_fs`, then smallest `seq`.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Events currently scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for t in [50u64, 10, 40, 20, 30] {
            q.push(t, EventKind::Arrival { op: t as u32 });
        }
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time_fs).collect();
        assert_eq!(times, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn simultaneous_events_pop_in_push_order() {
        let mut q = EventQueue::new();
        for op in 0..100u32 {
            q.push(7, EventKind::Arrival { op });
        }
        let ops: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Arrival { op } => op,
                EventKind::Completion { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(ops, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sequence_numbers_are_monotone_across_interleaved_pops() {
        let mut q = EventQueue::new();
        q.push(5, EventKind::Arrival { op: 0 });
        q.pop();
        let seq = q.push(5, EventKind::Arrival { op: 1 });
        assert_eq!(seq, 1, "pops must not recycle sequence numbers");
    }

    #[test]
    fn encoding_distinguishes_kinds_and_fields() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        Event {
            time_fs: 1,
            seq: 2,
            kind: EventKind::Arrival { op: 3 },
        }
        .encode(&mut a);
        Event {
            time_fs: 1,
            seq: 2,
            kind: EventKind::Completion { node: 0, op: 3 },
        }
        .encode(&mut b);
        assert_ne!(a, b);
        assert_ne!(agemul_codec::fnv1a64(&a), agemul_codec::fnv1a64(&b));
    }
}
