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
//! # Three sources, one order
//!
//! Each kind of event reaches the queue in an order of its own, and each is
//! kept where that order makes it cheap:
//!
//! - **Arrivals** come already in dispatch order: an offline replay hands
//!   them over one at a time from its sorted trace, and a live run's stamps
//!   are monotone. They go to an ordered stream, a sorted lane (a vector
//!   consumed from the front) that appends them, and places in order a live
//!   arrival that ties the last stamp with a smaller sequence.
//! - **Transfers** (`Ready`) land seconds after the round that decided
//!   them, and rounds advance, so a round's transfers sort at or near the
//!   tail of those still in flight. They go to a second sorted lane, placed
//!   by shifting the few slots that sort after them.
//! - **Rounds and completions** land minutes to hours ahead in no useful
//!   order, and stay in a min-heap — four children a node, so a pop sifts
//!   through half the levels of a binary heap. A transfer there would sift
//!   up to near the root and back down again.
//!
//! Keys are unique, each source yields its own events in ascending key
//! order, and [`EventQueue::pop`] takes the smallest of the three heads: by
//! induction that is the global minimum, i.e. exactly what a single heap
//! over every event would pop (`split_queue_pops_what_a_single_heap_would`).
//!
//! # Integer keys
//!
//! Every source holds three-word `Slot`s: the time's bits mapped so that
//! unsigned order is `f64::total_cmp` order, the sequence, and the event
//! packed into one word — 24 bytes, compared as one `u128`, so every step of
//! a sift or a placement is one integer comparison. The map is a bijection on
//! the bits (`slots_round_trip_the_bits_of_every_finite_time_and_event`) and
//! keeps the `(total_cmp, seq)` order (`slot_keys_order_as_total_cmp_then_seq`).

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
    Arrivals,
    Transfers,
    Heap,
}

/// A sorted lane: queued slots in ascending key order, consumed from the
/// front. The live slots are `slots[head..]`; the popped prefix is dropped
/// when the lane empties, or compacted away once it is at least as long as
/// what is left, so compaction moves each slot O(1) times.
#[derive(Debug, Default)]
struct Lane {
    slots: Vec<Slot>,
    head: usize,
}

impl Lane {
    fn front(&self) -> Option<&Slot> {
        self.slots.get(self.head)
    }

    fn pop_front(&mut self) -> Option<Slot> {
        let slot = *self.slots.get(self.head)?;
        self.head += 1;
        if self.head == self.slots.len() {
            self.slots.clear();
            self.head = 0;
        }
        Some(slot)
    }

    /// Place `slot` by shifting the slots that sort after it up one, from
    /// the tail: a slot lands at or near the tail (an arrival in stamp
    /// order, a round's transfer behind the earlier ones), so few move.
    fn insert(&mut self, slot: Slot) {
        if self.head > 0 && 2 * self.head >= self.slots.len() {
            self.slots.drain(..self.head);
            self.head = 0;
        }
        let key = slot.key();
        let mut at = self.slots.len();
        self.slots.push(slot);
        while at > self.head && self.slots[at - 1].key() > key {
            self.slots[at] = self.slots[at - 1];
            at -= 1;
        }
        self.slots[at] = slot;
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

/// The event queue: an ordered arrival stream and a sorted transfer lane
/// merged with a min-heap of rounds and completions, all on (time,
/// sequence). Non-finite timestamps are rejected at insertion, so no order
/// can be silently corrupted by a NaN comparing as "equal" to everything.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Queued `Arrival` events.
    arrivals: Lane,
    /// Queued `Ready` events: the transfers in flight.
    transfers: Lane,
    /// Queued `Round` / `Complete` events: what is in flight, not what the
    /// trace still holds.
    heap: QuadHeap,
    seq: u64,
    /// Queued events that are *not* periodic rounds, maintained at
    /// push/pop so the engine's stop condition
    /// ([`EventQueue::only_rounds_left`]) is O(1) instead of a queue scan —
    /// the event loop evaluates it once per iteration.
    non_round_events: usize,
}

impl EventQueue {
    /// Reserve a block of `n` consecutive sequence numbers and return the
    /// first. A round reserves its block at its snapshot and stamps its
    /// decision's events with [`EventQueue::push_with_seq`], so their keys
    /// depend on the snapshot alone; a live run reserves the arrivals' low
    /// band up front, which floors the regular one.
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
        let slot = Slot::from(QueuedEvent { time, seq, event });
        match event {
            Event::Arrival(_) => self.arrivals.insert(slot),
            Event::Ready(_) => self.transfers.insert(slot),
            Event::Round | Event::Complete(_) => self.heap.push(slot),
        }
        Ok(())
    }

    /// The source whose head is the earliest queued event, if anything is
    /// queued.
    fn next_source(&self) -> Option<Source> {
        let head = |slot: Option<&Slot>| slot.map_or(u128::MAX, Slot::key);
        let arrival = head(self.arrivals.front());
        let transfer = head(self.transfers.front());
        let (source, key) = if arrival < transfer {
            (Source::Arrivals, arrival)
        } else {
            (Source::Transfers, transfer)
        };
        let in_flight = head(self.heap.peek());
        let (source, key) = if in_flight < key {
            (Source::Heap, in_flight)
        } else {
            (source, key)
        };
        (key != u128::MAX).then_some(source)
    }

    /// Remove and return the earliest event.
    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        let slot = match self.next_source()? {
            Source::Arrivals => self.arrivals.pop_front(),
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
    pub(crate) fn peek(&self) -> Option<QueuedEvent> {
        let slot = match self.next_source()? {
            Source::Arrivals => self.arrivals.front(),
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
                prop_assert_eq!(Slot::from(x).key().cmp(&Slot::from(y).key()), expected);
                prop_assert_eq!(observed(Some(Slot::from(x).into())), observed(Some(x)));
            }
        }

        /// Satellite of the split: any interleaving of pushes, reserved
        /// blocks landing late, out-of-order arrival sequences, transfers
        /// placed before, at and after the lane's tail or tying the heap's
        /// top and the arrival stream's head, rejected pushes, peeks and
        /// pops leaves the three-source queue and the single heap agreeing
        /// on every popped `(time, seq, event)`, every peek and every
        /// `only_rounds_left`.
        #[test]
        fn split_queue_pops_what_a_single_heap_would(
            ops in prop::collection::vec((0usize..12, 0u64..4, 0u64..64), 1..120),
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
                    // or an arrival, so that a tie between sources is not
                    // always the arrival's to win.
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
                    // A transfer against another source's head: the lane's
                    // tail (most draws), the heap's top or the arrival
                    // stream's head — a grid step before it, at its time
                    // (a key tie on time, broken by the fresh sequence) or
                    // a step after it.
                    8 | 9 => {
                        let anchor = match draw % 5 {
                            0..=2 => split.transfers.slots.last(),
                            3 => split.heap.peek(),
                            _ => split.arrivals.front(),
                        };
                        let anchor = anchor.map_or(time, |slot| time_of(slot.time));
                        let time = match tick {
                            0 => anchor - 60.0,
                            2 => anchor + 60.0,
                            _ => anchor,
                        };
                        let seq = split.reserve(1);
                        assert_eq!(seq, single.reserve(1));
                        push(&mut split, &mut single, time, seq, Event::Ready(step));
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
