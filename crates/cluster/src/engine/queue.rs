//! The discrete-event queue under the engine's one event loop.
//!
//! Events dispatch in ascending `(time, sequence)` order — the timestamp
//! first, the sequence number as the tie-breaker, so events at equal
//! simulated times dispatch in the order they were scheduled. Every event
//! takes the next sequence number as it is pushed. Arrivals are not events:
//! a round pulls the jobs stamped at or before it straight into the pending
//! pool (`SimState::pull_arrivals`), so the queue holds only what the engine
//! itself schedules, and an offline replay and a live session push the same
//! events in the same order.
//!
//! # Two sources, one order
//!
//! Each kind of event reaches the queue in an order of its own, and each is
//! kept where that order makes it cheap:
//!
//! - **Transfers** (`Ready`) land seconds after the round that decided
//!   them, all pushed by that round's commit in the order its decision
//!   lists them. They are appended to a lane (a vector consumed from the
//!   front), and the lane's live slots are sorted once, at the next read,
//!   instead of placing each transfer by its own shifting insert.
//! - **Rounds and completions** land minutes to hours ahead in no useful
//!   order, and stay in a min-heap — four children a node, so a pop sifts
//!   through half the levels of a binary heap. A transfer there would sift
//!   up to near the root and back down again.
//!
//! Keys are unique, each source yields its own events in ascending key
//! order, and [`EventQueue::pop`] takes the smaller of the two heads: by
//! induction that is the global minimum, i.e. exactly what a single heap
//! over every event would pop (`split_queue_pops_what_a_single_heap_would`).
//!
//! # Integer keys
//!
//! Both sources hold three-word `Slot`s: the time's bits mapped so that
//! unsigned order is `f64::total_cmp` order, the sequence, and the event
//! packed into one word — 24 bytes, compared as one `u128`, so every step of
//! a sift or a sort is one integer comparison. The map is a bijection on the
//! bits (`slots_round_trip_the_bits_of_every_finite_time_and_event`) and
//! keeps the `(total_cmp, seq)` order (`slot_keys_order_as_total_cmp_then_seq`).

use waterwise_traces::JobId;

/// A simulation event. The payload is the slot of the job's runtime row in
/// the engine's in-flight table (not its [`waterwise_traces::JobId`], nor its
/// index in the trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Event {
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
    /// its trace id, which `job` looks up from the in-flight slot the event
    /// carries.
    pub(crate) fn describe(self, job: impl Fn(usize) -> JobId) -> String {
        match self {
            Event::Round => "scheduling round".to_string(),
            Event::Ready(slot) => format!("readiness of job {}", job(slot).0),
            Event::Complete(slot) => format!("completion of job {}", job(slot).0),
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

/// `time`'s bits mapped so that unsigned order is [`f64::total_cmp`] order:
/// bits with the sign set (`-0.0` included) are inverted whole, any others
/// get the sign set. A bijection on `u64`; [`time_of`] inverts it.
pub(crate) fn time_key(time: f64) -> u64 {
    let bits = time.to_bits();
    let negative = ((bits as i64) >> 63) as u64;
    bits ^ (negative | 1 << 63)
}

/// The time whose [`time_key`] is `key`.
fn time_of(key: u64) -> f64 {
    let was_negative = ((!key as i64) >> 63) as u64;
    f64::from_bits(key ^ (was_negative | 1 << 63))
}

/// Bits of a packed event below its variant tag: the in-flight slot.
const INDEX_BITS: u32 = 62;

/// `event` in one word: the variant in the top two bits, the slot below.
fn pack(event: Event) -> u64 {
    let (tag, index) = match event {
        Event::Round => (0, 0),
        Event::Ready(i) => (1, i),
        Event::Complete(i) => (2, i),
    };
    debug_assert!(
        (index as u64) >> INDEX_BITS == 0,
        "in-flight slot {index} overflows"
    );
    tag << INDEX_BITS | index as u64
}

/// The event [`pack`] folded into `packed`.
fn unpack(packed: u64) -> Event {
    let index = (packed & ((1 << INDEX_BITS) - 1)) as usize;
    match packed >> INDEX_BITS {
        0 => Event::Round,
        1 => Event::Ready(index),
        _ => Event::Complete(index),
    }
}

/// A queue entry: a [`QueuedEvent`] as three words, its `(time, seq)` key
/// compared as one `u128` instead of `f64::total_cmp` then `seq`. No finite
/// time maps to `u64::MAX` (those are a NaN's bits), so no key is
/// `u128::MAX`.
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
    /// The dispatch key as one integer: ascending `(time, seq)` is ascending
    /// key (`slot_keys_order_as_total_cmp_then_seq`).
    fn key(&self) -> u128 {
        u128::from(self.time) << 64 | u128::from(self.seq)
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

/// An event refused by the queue because its time is NaN or infinite. The
/// engine, which knows the job table, turns it into
/// [`crate::SimulationError::NonFiniteEventTime`].
#[derive(Debug)]
pub(crate) struct NonFiniteTime;

/// Where a queued event waits: by its kind (see the module docs).
#[derive(Debug, Clone, Copy)]
enum Source {
    Transfers,
    Heap,
}

/// A lane: queued slots consumed from the front. The live slots are
/// `slots[head..]`; the popped prefix is dropped when the lane empties, or
/// compacted away once it is at least as long as what is left, so
/// compaction moves each slot O(1) times. Pushes append; a push that lands
/// behind the tail marks the live slots unsorted, and [`Lane::settle`]
/// sorts them once before the next read.
#[derive(Debug, Default)]
struct Lane {
    slots: Vec<Slot>,
    head: usize,
    /// Whether some live slot sorts after the one behind it.
    unsorted: bool,
}

impl Lane {
    /// The earliest live slot. Only meaningful once settled.
    fn front(&self) -> Option<&Slot> {
        debug_assert!(!self.unsorted, "read an unsettled lane");
        self.slots.get(self.head)
    }

    fn pop_front(&mut self) -> Option<Slot> {
        let slot = *self.front()?;
        self.head += 1;
        if self.head == self.slots.len() {
            self.slots.clear();
            self.head = 0;
        }
        Some(slot)
    }

    fn push(&mut self, slot: Slot) {
        if self.head > 0 && 2 * self.head >= self.slots.len() {
            self.slots.drain(..self.head);
            self.head = 0;
        }
        // A non-empty lane's last slot is live: the lane clears on its last pop.
        if self
            .slots
            .last()
            .is_some_and(|last| last.key() > slot.key())
        {
            self.unsorted = true;
        }
        self.slots.push(slot);
    }

    /// Sort the live slots if a push left them out of order: one sort for
    /// the whole of a round's transfers. Keys are unique, so an unstable
    /// sort has only one result.
    fn settle(&mut self) {
        if self.unsorted {
            self.slots[self.head..].sort_unstable_by_key(Slot::key);
            self.unsorted = false;
        }
    }
}

/// A min-heap of slots on their keys with four children a node: half the
/// depth of a binary heap, and the least of four children is found by a
/// branch-free tournament. Keys are unique, so the pop order is the keys'
/// order whatever the shape of the heap.
#[derive(Debug, Default)]
struct QuadHeap {
    slots: Vec<Slot>,
}

impl QuadHeap {
    fn peek(&self) -> Option<&Slot> {
        self.slots.first()
    }

    fn push(&mut self, slot: Slot) {
        let key = slot.key();
        let mut at = self.slots.len();
        self.slots.push(slot);
        while at > 0 {
            let parent = (at - 1) / 4;
            if self.slots[parent].key() < key {
                break;
            }
            self.slots[at] = self.slots[parent];
            at = parent;
        }
        self.slots[at] = slot;
    }

    fn pop(&mut self) -> Option<Slot> {
        let last = self.slots.pop()?;
        let Some(&top) = self.slots.first() else {
            return Some(last);
        };
        // Sift `last` down from the root's place.
        let (slots, key) = (&mut self.slots[..], last.key());
        let mut at = 0;
        loop {
            let first = 4 * at + 1;
            let (child, least) = match slots.get(first..first + 4) {
                Some(four) => least_of_four([four[0], four[1], four[2], four[3]]),
                // The last parent: fewer than four children, or none.
                None => {
                    let few = slots.get(first..).unwrap_or_default().iter();
                    match few.map(Slot::key).enumerate().min_by_key(|&(_, key)| key) {
                        Some(least) => least,
                        None => break,
                    }
                }
            };
            if least > key {
                break;
            }
            slots[at] = slots[first + child];
            at = first + child;
        }
        slots[at] = last;
        Some(top)
    }
}

/// The index of the least of four slots and its key, by two pairings and a
/// final, each a select rather than a branch.
fn least_of_four(four: [Slot; 4]) -> (usize, u128) {
    let keys = [four[0].key(), four[1].key(), four[2].key(), four[3].key()];
    let low = usize::from(keys[1] < keys[0]);
    let high = 2 + usize::from(keys[3] < keys[2]);
    let least = if keys[high] < keys[low] { high } else { low };
    (least, keys[least])
}

/// The event queue: a transfer lane merged with a min-heap of rounds and
/// completions, both on (time, sequence). Non-finite timestamps are rejected
/// at insertion, so no order can be silently corrupted by a NaN comparing as
/// "equal" to everything.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Queued `Ready` events: the transfers in flight.
    transfers: Lane,
    /// Queued `Round` / `Complete` events.
    heap: QuadHeap,
    /// The sequence number the next push takes.
    seq: u64,
    /// Queued events that are *not* periodic rounds, maintained at
    /// push/pop so the engine's stop condition
    /// ([`EventQueue::only_rounds_left`]) is O(1) instead of a queue scan —
    /// the event loop evaluates it once per iteration.
    non_round_events: usize,
}

impl EventQueue {
    /// Enqueue `event` at `time` with the next sequence number.
    pub(crate) fn push(&mut self, time: f64, event: Event) -> Result<(), NonFiniteTime> {
        if !time.is_finite() {
            return Err(NonFiniteTime);
        }
        if !matches!(event, Event::Round) {
            self.non_round_events += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        let slot = Slot::from(QueuedEvent { time, seq, event });
        match event {
            Event::Ready(_) => self.transfers.push(slot),
            Event::Round | Event::Complete(_) => self.heap.push(slot),
        }
        Ok(())
    }

    /// The source whose head is the earliest queued event, if anything is
    /// queued. Settles the transfer lane first.
    fn next_source(&mut self) -> Option<Source> {
        self.transfers.settle();
        let head = |slot: Option<&Slot>| slot.map_or(u128::MAX, Slot::key);
        let transfer = head(self.transfers.front());
        let in_flight = head(self.heap.peek());
        if in_flight < transfer {
            Some(Source::Heap)
        } else {
            (transfer != u128::MAX).then_some(Source::Transfers)
        }
    }

    /// Remove and return the earliest event.
    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        let slot = match self.next_source()? {
            Source::Transfers => self.transfers.pop_front(),
            Source::Heap => self.heap.pop(),
        }?;
        let popped = QueuedEvent::from(slot);
        if !matches!(popped.event, Event::Round) {
            self.non_round_events -= 1;
        }
        Some(popped)
    }

    /// The earliest queued event, without removing it.
    pub(crate) fn peek(&mut self) -> Option<QueuedEvent> {
        let slot = match self.next_source()? {
            Source::Transfers => self.transfers.front(),
            Source::Heap => self.heap.peek(),
        }?;
        Some(QueuedEvent::from(*slot))
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
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_then_seq_order() {
        // A commit pushes its transfers in decision order, not time order:
        // the lane sorts them once, and an equal time keeps push order
        // across both sources.
        let mut q = EventQueue::default();
        for (job, time) in [(0, 9.0), (1, 3.0), (2, 7.0), (3, 3.0), (4, 1.0)] {
            q.push(time, Event::Ready(job)).unwrap();
        }
        q.push(3.0, Event::Round).unwrap();
        q.push(3.0, Event::Complete(5)).unwrap();
        q.push(3.0, Event::Ready(6)).unwrap();
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.event))
            .collect();
        assert_eq!(
            order,
            vec![
                (1.0, Event::Ready(4)),
                (3.0, Event::Ready(1)),
                (3.0, Event::Ready(3)),
                (3.0, Event::Round),
                (3.0, Event::Complete(5)),
                (3.0, Event::Ready(6)),
                (7.0, Event::Ready(2)),
                (9.0, Event::Ready(0)),
            ]
        );
    }

    #[test]
    fn non_finite_times_are_rejected() {
        let mut q = EventQueue::default();
        assert!(q.push(f64::NAN, Event::Round).is_err());
        assert!(q.push(f64::INFINITY, Event::Ready(0)).is_err());
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
        assert!(q.push(f64::NAN, Event::Ready(1)).is_err());
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
    /// event in one min-heap on `(time, seq)` under [`ByTotalCmp`], each
    /// push taking the next sequence.
    #[derive(Default)]
    struct SingleHeap {
        heap: BinaryHeap<ByTotalCmp>,
        seq: u64,
        non_round_events: usize,
    }

    impl SingleHeap {
        fn push(&mut self, time: f64, event: Event) -> bool {
            if !time.is_finite() {
                return false;
            }
            if !matches!(event, Event::Round) {
                self.non_round_events += 1;
            }
            let seq = self.seq;
            self.seq += 1;
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
                prop_assert_eq!(Slot::from(x).key().cmp(&Slot::from(y).key()), expected);
                prop_assert_eq!(observed(Some(Slot::from(x).into())), observed(Some(x)));
            }
        }

        /// Any interleaving of single pushes, rounds committing a batch of
        /// transfers in ascending, descending or scrambled time order,
        /// transfers placed before, at and after the lane's tail or tying
        /// the heap's top, rejected pushes, peeks and pops leaves the
        /// two-source queue and the single heap agreeing on every popped
        /// `(time, seq, event)`, every peek and every `only_rounds_left`.
        #[test]
        fn split_queue_pops_what_a_single_heap_would(
            ops in prop::collection::vec((0usize..10, 0u64..4, 0u64..64), 1..120),
        ) {
            let mut split = EventQueue::default();
            let mut single = SingleHeap::default();
            let push = |split: &mut EventQueue, single: &mut SingleHeap, time, event| {
                let accepted = split.push(time, event).is_ok();
                assert_eq!(accepted, single.push(time, event));
            };
            for (step, &(op, tick, draw)) in ops.iter().enumerate() {
                // Four distinct timestamps: nearly every comparison is a tie.
                let time = tick as f64 * 60.0;
                match op {
                    // A single push: round, readiness or completion.
                    0 | 1 => {
                        let event = match draw % 3 {
                            0 => Event::Round,
                            1 => Event::Ready(step),
                            _ => Event::Complete(step),
                        };
                        push(&mut split, &mut single, time, event);
                    }
                    // A round commits: its transfers, in time order, in
                    // reverse time order or scrambled (ties included), then
                    // the next round.
                    2 | 3 => {
                        let n = 1 + draw % 8;
                        for k in 0..n {
                            let offset = match draw % 3 {
                                0 => k,
                                1 => n - 1 - k,
                                _ => (k * 5 + draw) % 4,
                            };
                            push(&mut split, &mut single, time + offset as f64 * 30.0, Event::Ready(step));
                        }
                        push(&mut split, &mut single, time + 60.0, Event::Round);
                    }
                    // A non-finite push is rejected and changes nothing.
                    4 => {
                        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][draw as usize % 3];
                        let event = if tick % 2 == 0 { Event::Ready(step) } else { Event::Complete(step) };
                        push(&mut split, &mut single, bad, event);
                    }
                    // A transfer against another source's head: the lane's
                    // tail (most draws) or the heap's top — a grid step
                    // before it, at its time (a key tie on time, broken by
                    // the fresh sequence) or a step after it.
                    5 | 6 => {
                        let anchor = match draw % 4 {
                            0..=2 => split.transfers.slots.last(),
                            _ => split.heap.peek(),
                        };
                        let anchor = anchor.map_or(time, |slot| time_of(slot.time));
                        let time = match tick {
                            0 => anchor - 60.0,
                            2 => anchor + 60.0,
                            _ => anchor,
                        };
                        push(&mut split, &mut single, time, Event::Ready(step));
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
