//! The discrete-event queue under the engine's one event loop.
//!
//! Events are ordered by `(time, sequence)` — a min-heap on the timestamp
//! with the insertion sequence as the tie-breaker, so events at equal
//! simulated times dispatch in the order they were scheduled. Both solve
//! backends must produce *identical* `(time, sequence)` keys for every
//! event or their replay order (and therefore the whole campaign) could
//! diverge on exact timestamp ties. Because the staged backend pushes a
//! round's decision events *after* the loop has already ingested later
//! arrivals (the solve overlaps arrival processing), push order alone is
//! not enough; instead every round [`EventQueue::reserve`]s a sequence
//! block at its snapshot and stamps the decision's events with
//! [`EventQueue::push_with_seq`], which keeps the keys byte-identical across
//! engine modes regardless of when the pushes physically happen.

use crate::error::SimulationError;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulation event. The payload is the index of the job in the campaign's
/// trace (not its [`waterwise_traces::JobId`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Event {
    /// A job from the trace arrives at its home region's decision controller.
    Arrival(usize),
    /// A periodic scheduling round.
    Round,
    /// A job's package transfer has completed; it is ready to run in
    /// its assigned region.
    Ready(usize),
    /// A job finished executing.
    Complete(usize),
}

impl Event {
    /// Human-readable description used in error reports.
    pub(crate) fn describe(self) -> String {
        match self {
            Event::Arrival(i) => format!("arrival of job {i}"),
            Event::Round => "scheduling round".to_string(),
            Event::Ready(i) => format!("readiness of job {i}"),
            Event::Complete(i) => format!("completion of job {i}"),
        }
    }
}

/// An event stamped with its dispatch key `(time, seq)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedEvent {
    pub(crate) time: f64,
    pub(crate) seq: u64,
    pub(crate) event: Event,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering to make BinaryHeap a min-heap on (time, seq).
        // `total_cmp` keeps this a true total order; [`EventQueue::push`]
        // guarantees no non-finite time ever enters the heap.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event queue: a min-heap on (time, insertion order) that rejects
/// non-finite timestamps at insertion, so the heap invariant can never be
/// silently corrupted by a NaN comparing as "equal" to everything.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
    seq: u64,
    /// Queued events that are *not* periodic rounds, maintained at
    /// push/pop so the engine's stop condition
    /// ([`EventQueue::only_rounds_left`]) is O(1) instead of a heap scan —
    /// the event loop evaluates it once per iteration.
    non_round_events: usize,
}

impl EventQueue {
    /// Enqueue `event` at `time` with the next sequence number, rejecting
    /// NaN and infinite timestamps.
    pub(crate) fn push(&mut self, time: f64, event: Event) -> Result<(), SimulationError> {
        let seq = self.reserve(1);
        self.push_with_seq(time, seq, event)
    }

    /// Pre-size the heap for `additional` more events, so preloading a
    /// whole trace grows it once instead of by repeated doubling.
    pub(crate) fn reserve_events(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Reserve a block of `n` consecutive sequence numbers and return the
    /// first. Paired with [`EventQueue::push_with_seq`], this lets a round
    /// stamp its decision events with the keys they would have received in a
    /// strictly synchronous replay even when the physical pushes happen
    /// after later events were already ingested (the staged backend's
    /// arrival overlap).
    pub(crate) fn reserve(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Enqueue `event` at `time` with an explicitly reserved sequence
    /// number (see [`EventQueue::reserve`]).
    pub(crate) fn push_with_seq(
        &mut self,
        time: f64,
        seq: u64,
        event: Event,
    ) -> Result<(), SimulationError> {
        if !time.is_finite() {
            return Err(SimulationError::NonFiniteEventTime {
                time,
                event: event.describe(),
            });
        }
        if !matches!(event, Event::Round) {
            self.non_round_events += 1;
        }
        self.heap.push(QueuedEvent { time, seq, event });
        Ok(())
    }

    /// Remove and return the earliest event.
    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        let popped = self.heap.pop();
        if let Some(event) = &popped {
            if !matches!(event.event, Event::Round) {
                self.non_round_events -= 1;
            }
        }
        popped
    }

    /// The earliest queued event, without removing it.
    pub(crate) fn peek(&self) -> Option<&QueuedEvent> {
        self.heap.peek()
    }

    /// Whether only periodic `Round` events remain queued. O(1): part of
    /// the stop condition the event loop checks before every dispatch.
    pub(crate) fn only_rounds_left(&self) -> bool {
        self.non_round_events == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::default();
        q.push(2.0, Event::Round).unwrap();
        q.push(1.0, Event::Arrival(0)).unwrap();
        q.push(1.0, Event::Arrival(1)).unwrap();
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(
            order,
            vec![Event::Arrival(0), Event::Arrival(1), Event::Round]
        );
    }

    #[test]
    fn reserved_seqs_outrank_later_pushes_on_time_ties() {
        // A round reserves a block, later events are pushed, and only then
        // the decision events land with the reserved (smaller) sequence
        // numbers: on an exact time tie the decision events must win.
        let mut q = EventQueue::default();
        let s0 = q.reserve(2);
        q.push(5.0, Event::Arrival(9)).unwrap();
        q.push_with_seq(5.0, s0, Event::Ready(1)).unwrap();
        q.push_with_seq(5.0, s0 + 1, Event::Round).unwrap();
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(
            order,
            vec![Event::Ready(1), Event::Round, Event::Arrival(9)]
        );
    }

    #[test]
    fn non_finite_times_are_rejected() {
        let mut q = EventQueue::default();
        assert!(q.push(f64::NAN, Event::Round).is_err());
        assert!(q.push(f64::INFINITY, Event::Arrival(0)).is_err());
        assert!(q.pop().is_none());
    }

    #[test]
    fn only_rounds_left_detects_non_round_events() {
        let mut q = EventQueue::default();
        assert!(q.only_rounds_left());
        q.push(1.0, Event::Round).unwrap();
        assert!(q.only_rounds_left());
        q.push(2.0, Event::Complete(3)).unwrap();
        assert!(!q.only_rounds_left());
        // The counter tracks pops too: draining the completion (after the
        // earlier round) restores the rounds-only state.
        assert!(matches!(q.pop().unwrap().event, Event::Round));
        assert!(!q.only_rounds_left());
        assert!(matches!(q.pop().unwrap().event, Event::Complete(3)));
        assert!(q.only_rounds_left());
        // Rejected (non-finite) pushes must not leak into the counter.
        assert!(q.push(f64::NAN, Event::Arrival(1)).is_err());
        assert!(q.only_rounds_left());
    }
}
