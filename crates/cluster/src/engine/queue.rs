//! The discrete-event queue under the engine's one event loop.
//!
//! Events dispatch in ascending `(time, sequence)` order — the timestamp
//! first, the sequence number as the tie-breaker, so events at equal
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
//!
//! # Two sources, one order
//!
//! Arrivals reach the queue already in dispatch order: an offline replay
//! hands them over one at a time from its sorted trace, and a live run's
//! stamps are monotone. So the queue keeps them in an ordered stream
//! (append when in order, ordered insert for a live arrival that ties the
//! last stamp with a smaller sequence) and only the events *in flight* —
//! `Round`, `Ready`, `Complete` — in a binary heap. Keys are unique, each
//! source yields its own events in ascending key order, and
//! [`EventQueue::pop`] takes the smaller of the two heads: by induction
//! that is the global minimum, i.e. exactly what a single heap over every
//! event would pop (`split_queue_pops_what_a_single_heap_would`).

use crate::error::SimulationError;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

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

impl QueuedEvent {
    /// Whether this event dispatches before `other`: ascending
    /// `(time, seq)`. (`Ord` is that order reversed — the earlier event is
    /// the greater one — so that `BinaryHeap` pops the minimum.)
    fn before(&self, other: &Self) -> bool {
        self.cmp(other).is_gt()
    }
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
        // guarantees no non-finite time is ever queued.
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

/// The event queue: an ordered arrival stream merged with a min-heap of the
/// in-flight events, both on (time, sequence). Non-finite timestamps are
/// rejected at insertion, so neither order can be silently corrupted by a
/// NaN comparing as "equal" to everything.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Queued `Arrival` events, ascending `(time, seq)`.
    arrivals: VecDeque<QueuedEvent>,
    /// Queued `Round` / `Ready` / `Complete` events: what is in flight, not
    /// what the trace still holds.
    heap: BinaryHeap<QueuedEvent>,
    seq: u64,
    /// Queued events that are *not* periodic rounds, maintained at
    /// push/pop so the engine's stop condition
    /// ([`EventQueue::only_rounds_left`]) is O(1) instead of a queue scan —
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
        let queued = QueuedEvent { time, seq, event };
        if matches!(event, Event::Arrival(_)) {
            // In order unless a live session injects at the last stamp
            // with a smaller sequence than one already queued.
            let at = match self.arrivals.back() {
                Some(last) if queued.before(last) => {
                    self.arrivals.partition_point(|q| q.before(&queued))
                }
                _ => self.arrivals.len(),
            };
            self.arrivals.insert(at, queued);
        } else {
            self.heap.push(queued);
        }
        Ok(())
    }

    /// Whether the earliest queued event is the head of the arrival stream
    /// (otherwise it is the top of the heap, if anything is queued at all).
    fn arrival_is_next(&self) -> bool {
        match (self.arrivals.front(), self.heap.peek()) {
            (Some(arrival), Some(in_flight)) => arrival.before(in_flight),
            (arrival, _) => arrival.is_some(),
        }
    }

    /// Remove and return the earliest event.
    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        let popped = if self.arrival_is_next() {
            self.arrivals.pop_front()
        } else {
            self.heap.pop()
        };
        if let Some(event) = &popped {
            if !matches!(event.event, Event::Round) {
                self.non_round_events -= 1;
            }
        }
        popped
    }

    /// The earliest queued event, without removing it.
    pub(crate) fn peek(&self) -> Option<&QueuedEvent> {
        if self.arrival_is_next() {
            self.arrivals.front()
        } else {
            self.heap.peek()
        }
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

    /// The queue this one replaced, kept as the reference model: every
    /// event, arrivals included, in one min-heap on `(time, seq)`.
    #[derive(Default)]
    struct SingleHeap {
        heap: BinaryHeap<QueuedEvent>,
        seq: u64,
        non_round_events: usize,
    }

    impl SingleHeap {
        fn reserve(&mut self, n: u64) -> u64 {
            let first = self.seq;
            self.seq += n;
            first
        }

        fn push_with_seq(&mut self, time: f64, seq: u64, event: Event) -> bool {
            if !time.is_finite() {
                return false;
            }
            if !matches!(event, Event::Round) {
                self.non_round_events += 1;
            }
            self.heap.push(QueuedEvent { time, seq, event });
            true
        }

        fn pop(&mut self) -> Option<QueuedEvent> {
            let popped = self.heap.pop();
            if popped.is_some_and(|q| !matches!(q.event, Event::Round)) {
                self.non_round_events -= 1;
            }
            popped
        }
    }

    /// What the two queues must agree on about one event.
    fn key(queued: Option<&QueuedEvent>) -> Option<(u64, u64, Event)> {
        queued.map(|q| (q.time.to_bits(), q.seq, q.event))
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Satellite of the split: any interleaving of pushes, reserved
        /// blocks landing late, out-of-order arrival sequences, rejected
        /// pushes, peeks and pops leaves the split queue and the single heap
        /// agreeing on every popped `(time, seq, event)`, every peek and
        /// every `only_rounds_left`.
        #[test]
        fn split_queue_pops_what_a_single_heap_would(
            ops in prop::collection::vec((0usize..10, 0u64..4, 0u64..64), 1..120),
        ) {
            let mut split = EventQueue::default();
            let mut single = SingleHeap::default();
            // Arrivals take unique sequences from the low band, in whatever
            // order the draws name them; everything else the regular band,
            // floored above it (the live run's layout).
            let low_band = 64u64;
            assert_eq!(split.reserve(low_band), single.reserve(low_band));
            let mut used = [false; 64];
            let mut reserved: Vec<(u64, u64)> = Vec::new();
            let push = |split: &mut EventQueue, single: &mut SingleHeap, time, seq, event| {
                let accepted = split.push_with_seq(time, seq, event).is_ok();
                assert_eq!(accepted, single.push_with_seq(time, seq, event));
            };
            for (step, &(op, tick, draw)) in ops.iter().enumerate() {
                // Four distinct timestamps: nearly every comparison is a tie.
                let time = tick as f64 * 60.0;
                match op {
                    // An arrival at an arbitrary stamp and low-band sequence:
                    // in order, tying the last stamp with a smaller sequence
                    // (two sessions), or earlier than what is queued.
                    0..=2 => {
                        let seq = (0..low_band)
                            .map(|probe| (draw + probe) % low_band)
                            .find(|&seq| !used[seq as usize]);
                        if let Some(seq) = seq {
                            used[seq as usize] = true;
                            push(&mut split, &mut single, time, seq, Event::Arrival(step));
                        }
                    }
                    // A regular-band push: round, readiness, completion —
                    // or an arrival, so that a tie between the two sources
                    // is not always the arrival's to win.
                    3 | 4 => {
                        let event = match draw % 4 {
                            0 => Event::Round,
                            1 => Event::Ready(step),
                            2 => Event::Complete(step),
                            _ => Event::Arrival(step),
                        };
                        let seq = split.reserve(1);
                        assert_eq!(seq, single.reserve(1));
                        push(&mut split, &mut single, time, seq, event);
                    }
                    // A round reserves its decision's block at the snapshot…
                    5 => {
                        let n = 1 + draw % 4;
                        let first = split.reserve(n);
                        assert_eq!(first, single.reserve(n));
                        reserved.push((first, n));
                    }
                    // …and its events land after whatever was pushed since:
                    // `Ready`s, then the next round on the block's last key.
                    6 => {
                        if !reserved.is_empty() {
                            let (first, n) = reserved.remove(draw as usize % reserved.len());
                            for k in 0..n - 1 {
                                push(&mut split, &mut single, time, first + k, Event::Ready(step));
                            }
                            push(&mut split, &mut single, time + 60.0, first + n - 1, Event::Round);
                        }
                    }
                    // A non-finite push is rejected and changes nothing.
                    7 => {
                        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][draw as usize % 3];
                        let event = if tick % 2 == 0 { Event::Arrival(step) } else { Event::Complete(step) };
                        push(&mut split, &mut single, bad, draw, event);
                    }
                    _ => {
                        prop_assert_eq!(key(split.pop().as_ref()), key(single.pop().as_ref()));
                    }
                }
                prop_assert_eq!(key(split.peek()), key(single.heap.peek()));
                prop_assert_eq!(split.only_rounds_left(), single.non_round_events == 0);
            }
            // Drain: the whole remaining order, not just its head.
            loop {
                let (a, b) = (split.pop(), single.pop());
                prop_assert_eq!(key(a.as_ref()), key(b.as_ref()));
                prop_assert_eq!(split.only_rounds_left(), single.non_round_events == 0);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
