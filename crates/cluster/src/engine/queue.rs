//! The discrete-event queue under the engine's one event loop.
//!
//! Events dispatch in ascending `(time, sequence)` order — the timestamp
//! first, the sequence number as the tie-breaker, so events at equal
//! simulated times dispatch in the order they were scheduled. An offline
//! replay and a live session must produce *identical* `(time, sequence)`
//! keys for every event or their replay order (and therefore the whole
//! campaign) could diverge on exact timestamp ties. Every round
//! [`EventQueue::reserve`]s a sequence block at its snapshot and stamps the
//! decision's events with [`EventQueue::push_with_seq`], so the keys depend
//! on the snapshot alone, not on when the pushes physically happen.
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
//!
//! # Integer keys
//!
//! A heap entry is a three-word `Slot`: the time's bits mapped so that
//! unsigned order is `f64::total_cmp` order, the sequence, and the event
//! packed into one word — 24 bytes, compared as one `u128`, so a sift step
//! is one integer comparison. The map is a bijection on the bits
//! (`slots_round_trip_the_bits_of_every_finite_time_and_event`) and keeps the
//! `(total_cmp, seq)` order (`slot_keys_order_as_total_cmp_then_seq`).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use waterwise_traces::JobSpec;

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
    /// Human-readable description used in error reports. Names the job by
    /// its trace id, looked up in the engine's job table `jobs`, not by the
    /// table index the event carries — the two only coincide for `0..n`
    /// traces.
    pub(crate) fn describe(self, jobs: &[JobSpec]) -> String {
        let id = |i: usize| jobs[i].id.0;
        match self {
            Event::Arrival(i) => format!("arrival of job {}", id(i)),
            Event::Round => "scheduling round".to_string(),
            Event::Ready(i) => format!("readiness of job {}", id(i)),
            Event::Complete(i) => format!("completion of job {}", id(i)),
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
    /// The dispatch key as one integer: ascending `(time, seq)` is ascending
    /// key (`slot_keys_order_as_total_cmp_then_seq`).
    fn key(&self) -> u128 {
        Slot::key_of(time_key(self.time), self.seq)
    }

    /// Whether this event dispatches before `other`: ascending `(time, seq)`.
    fn before(&self, other: &Self) -> bool {
        self.key() < other.key()
    }
}

/// `time`'s bits mapped so that unsigned order is [`f64::total_cmp`] order:
/// bits with the sign set (`-0.0` included) are inverted whole, any others
/// get the sign set. A bijection on `u64`; [`time_of`] inverts it.
fn time_key(time: f64) -> u64 {
    let bits = time.to_bits();
    let negative = ((bits as i64) >> 63) as u64;
    bits ^ (negative | 1 << 63)
}

/// The time whose [`time_key`] is `key`.
fn time_of(key: u64) -> f64 {
    let was_negative = ((!key as i64) >> 63) as u64;
    f64::from_bits(key ^ (was_negative | 1 << 63))
}

/// Bits of a packed event below its variant tag: the job index.
const INDEX_BITS: u32 = 62;

/// `event` in one word: the variant in the top two bits, the job index below.
fn pack(event: Event) -> u64 {
    let (tag, index) = match event {
        Event::Arrival(i) => (0, i),
        Event::Round => (1, 0),
        Event::Ready(i) => (2, i),
        Event::Complete(i) => (3, i),
    };
    debug_assert!(
        (index as u64) >> INDEX_BITS == 0,
        "job index {index} overflows"
    );
    tag << INDEX_BITS | index as u64
}

/// The event [`pack`] folded into `packed`.
fn unpack(packed: u64) -> Event {
    let index = (packed & ((1 << INDEX_BITS) - 1)) as usize;
    match packed >> INDEX_BITS {
        0 => Event::Arrival(index),
        1 => Event::Round,
        2 => Event::Ready(index),
        _ => Event::Complete(index),
    }
}

/// A heap entry: a [`QueuedEvent`] as three words, its `(time, seq)` key
/// compared as one `u128` instead of `f64::total_cmp` then `seq`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// [`time_key`] of the event's time.
    time: u64,
    seq: u64,
    /// [`pack`] of the event.
    event: u64,
}

// Three words, not four: a `u128` field would align the slot to 16 bytes.
const _: () = assert!(std::mem::size_of::<Slot>() <= 24);

impl Slot {
    fn key_of(time: u64, seq: u64) -> u128 {
        u128::from(time) << 64 | u128::from(seq)
    }

    fn key(&self) -> u128 {
        Self::key_of(self.time, self.seq)
    }
}

impl From<QueuedEvent> for Slot {
    fn from(queued: QueuedEvent) -> Self {
        Self {
            time: time_key(queued.time),
            seq: queued.seq,
            event: pack(queued.event),
        }
    }
}

impl From<Slot> for QueuedEvent {
    fn from(slot: Slot) -> Self {
        Self {
            time: time_of(slot.time),
            seq: slot.seq,
            event: unpack(slot.event),
        }
    }
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Slot {}
impl Ord for Slot {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed, so that `BinaryHeap` pops the smallest key.
        other.key().cmp(&self.key())
    }
}
impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An event refused by the queue because its time is NaN or infinite. The
/// engine, which knows the job table, turns it into
/// [`crate::SimulationError::NonFiniteEventTime`].
#[derive(Debug)]
pub(crate) struct NonFiniteTime;

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
    heap: BinaryHeap<Slot>,
    seq: u64,
    /// Queued events that are *not* periodic rounds, maintained at
    /// push/pop so the engine's stop condition
    /// ([`EventQueue::only_rounds_left`]) is O(1) instead of a queue scan —
    /// the event loop evaluates it once per iteration.
    non_round_events: usize,
}

impl EventQueue {
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
    ) -> Result<(), NonFiniteTime> {
        if !time.is_finite() {
            return Err(NonFiniteTime);
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
            self.heap.push(queued.into());
        }
        Ok(())
    }

    /// Whether the earliest queued event is the head of the arrival stream
    /// (otherwise it is the top of the heap, if anything is queued at all).
    fn arrival_is_next(&self) -> bool {
        match (self.arrivals.front(), self.heap.peek()) {
            (Some(arrival), Some(in_flight)) => arrival.key() < in_flight.key(),
            (arrival, _) => arrival.is_some(),
        }
    }

    /// Remove and return the earliest event.
    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        let popped = if self.arrival_is_next() {
            self.arrivals.pop_front()
        } else {
            self.heap.pop().map(QueuedEvent::from)
        };
        if let Some(event) = &popped {
            if !matches!(event.event, Event::Round) {
                self.non_round_events -= 1;
            }
        }
        popped
    }

    /// The earliest queued event, without removing it.
    pub(crate) fn peek(&self) -> Option<QueuedEvent> {
        if self.arrival_is_next() {
            self.arrivals.front().copied()
        } else {
            self.heap.peek().copied().map(QueuedEvent::from)
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

    impl EventQueue {
        /// Enqueue `event` at `time` with the next sequence number.
        fn push(&mut self, time: f64, event: Event) -> Result<(), NonFiniteTime> {
            let seq = self.reserve(1);
            self.push_with_seq(time, seq, event)
        }
    }

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

    /// A [`QueuedEvent`] under the order the queue used before its slots
    /// were integers: `f64::total_cmp` on the time, then the sequence —
    /// reversed, so that `BinaryHeap` pops the minimum.
    struct ByTotalCmp(QueuedEvent);

    impl PartialEq for ByTotalCmp {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other).is_eq()
        }
    }
    impl Eq for ByTotalCmp {}
    impl Ord for ByTotalCmp {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .0
                .time
                .total_cmp(&self.0.time)
                .then_with(|| other.0.seq.cmp(&self.0.seq))
        }
    }
    impl PartialOrd for ByTotalCmp {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The queue this one replaced, kept as the reference model: every
    /// event, arrivals included, in one min-heap on `(time, seq)` under
    /// [`ByTotalCmp`].
    #[derive(Default)]
    struct SingleHeap {
        heap: BinaryHeap<ByTotalCmp>,
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
            self.heap.push(ByTotalCmp(QueuedEvent { time, seq, event }));
            true
        }

        fn peek(&self) -> Option<QueuedEvent> {
            self.heap.peek().map(|top| top.0)
        }

        fn pop(&mut self) -> Option<QueuedEvent> {
            let popped = self.heap.pop().map(|top| top.0);
            if popped.is_some_and(|q| !matches!(q.event, Event::Round)) {
                self.non_round_events -= 1;
            }
            popped
        }
    }

    /// What the two queues must agree on about one event.
    fn observed(queued: Option<QueuedEvent>) -> Option<(u64, u64, Event)> {
        queued.map(|q| (q.time.to_bits(), q.seq, q.event))
    }

    /// Finite times across the whole range: both zeros, subnormals, the
    /// smallest normals, ordinary values, and both extremes.
    const EDGE_TIMES: [f64; 14] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        2.2e-308,
        1.0,
        -1.0,
        60.0,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN,
    ];

    #[test]
    fn slots_round_trip_the_bits_of_every_finite_time_and_event() {
        let events = [
            Event::Arrival(0),
            Event::Round,
            Event::Ready(7),
            Event::Complete((1 << INDEX_BITS) - 1),
        ];
        for time in EDGE_TIMES {
            assert_eq!(
                time_of(time_key(time)).to_bits(),
                time.to_bits(),
                "{time:e}"
            );
            for (seq, event) in [0, 1, u64::MAX].into_iter().zip(events) {
                let back = QueuedEvent::from(Slot::from(QueuedEvent { time, seq, event }));
                assert_eq!(observed(Some(back)), Some((time.to_bits(), seq, event)));
            }
        }
    }

    #[test]
    fn slot_keys_order_the_edge_times_as_total_cmp_does() {
        for a in EDGE_TIMES {
            for b in EDGE_TIMES {
                assert_eq!(
                    time_key(a).cmp(&time_key(b)),
                    a.total_cmp(&b),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Unsigned key order is `(f64::total_cmp, seq)` order. Times are
        /// drawn as raw bits, so every exponent and both signs are as likely
        /// as any other (a non-finite draw stands in for zero); one draw in
        /// three ties the times and one in three flips only the sign.
        #[test]
        fn slot_keys_order_as_total_cmp_then_seq(
            draws in prop::collection::vec(
                (0u64..u64::MAX, 0u64..u64::MAX, 0u64..4, 0u64..4, 0u64..3),
                1..64,
            ),
        ) {
            let finite = |bits: u64| Some(f64::from_bits(bits)).filter(|t| t.is_finite()).unwrap_or(0.0);
            for (a_bits, b_bits, a_seq, b_seq, shape) in draws {
                let a = finite(a_bits);
                let b = match shape {
                    0 => a,
                    1 => -a,
                    _ => finite(b_bits),
                };
                let x = QueuedEvent { time: a, seq: a_seq, event: Event::Ready(1) };
                let y = QueuedEvent { time: b, seq: b_seq, event: Event::Complete(2) };
                let expected = a.total_cmp(&b).then(a_seq.cmp(&b_seq));
                prop_assert_eq!(x.key().cmp(&y.key()), expected);
                prop_assert_eq!(Slot::from(x).cmp(&Slot::from(y)), expected.reverse());
                prop_assert_eq!(observed(Some(Slot::from(x).into())), observed(Some(x)));
            }
        }

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
                        prop_assert_eq!(observed(split.pop()), observed(single.pop()));
                    }
                }
                prop_assert_eq!(observed(split.peek()), observed(single.peek()));
                prop_assert_eq!(split.only_rounds_left(), single.non_round_events == 0);
            }
            // Drain: the whole remaining order, not just its head.
            loop {
                let (a, b) = (split.pop(), single.pop());
                prop_assert_eq!(observed(a), observed(b));
                prop_assert_eq!(split.only_rounds_left(), single.non_round_events == 0);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
