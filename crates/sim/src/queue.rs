//! The event queue: FIFO buckets keyed by exact instant.
//!
//! Determinism demands more than a priority queue: two events scheduled for
//! the same instant must always pop in the same order, or a run's entire
//! future could fork on a queue-internal coin flip. [`EventQueue`] pops in
//! `(time, push order)` order — ties resolve to "first scheduled pops
//! first", which is both deterministic and causally sensible (the
//! earlier-made decision takes effect first). The byte-reproducibility of
//! every simulation report rests on this property plus the integer clock
//! in [`crate::SimTime`].
//!
//! The engine's window-paced EPR rounds land millions of events on a few
//! shared slot instants, so the queue keeps one FIFO bucket per distinct
//! instant rather than one heap entry per event. The instant being drained
//! lives in `front`; every later instant keeps its bucket in a deque sorted
//! by instant, which a factor-128 replay never grows past a few dozen
//! entries. Both ends sit on the engine's per-event path, so `pop` and the
//! common `push` compile into the event loop: a push to the instant being
//! drained, or to one of the first two pending instants, where the
//! engine's next rounds land, appends to an existing bucket. Anything else
//! (a new instant, or one further back) takes the out-of-line `#[cold]`
//! `push_later`, about once per instant rather than once per event (20,680
//! of the factor-128 replay's 3,128,514 pushes, over 20,069 instants): a
//! binary search, then [`VecDeque::insert`], which shifts the shorter
//! side, so neither up-front ascending arrivals (appended at the back) nor
//! near-future rounds (inserted near the front) cost a pass over the
//! deque. Drained buckets are kept and reused. Appending to a bucket
//! preserves push order, so no per-event sequence number is needed. The one
//! contract this buys: nothing is scheduled before the instant last popped
//! (the engine never schedules into the past).

use crate::time::SimTime;
use std::collections::VecDeque;

/// A deterministic future-event list.
pub struct EventQueue<E> {
    /// The instant last popped (`ZERO` before the first pop); every instant
    /// in `pending` is after it.
    now: SimTime,
    /// The events still due at `now`, in push order.
    front: VecDeque<E>,
    /// Each later instant with its events in push order, in ascending
    /// order of instant.
    pending: VecDeque<(SimTime, Vec<E>)>,
    /// Drained buckets, kept for the next new instant.
    spare: Vec<Vec<E>>,
    len: usize,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            now: SimTime::ZERO,
            front: VecDeque::new(),
            pending: VecDeque::new(),
            spare: Vec::new(),
            len: 0,
            popped: 0,
        }
    }

    /// Schedule `event` at `time`. Events at equal times pop in push order.
    ///
    /// # Panics
    /// If `time` is before the instant last popped.
    #[inline(always)]
    pub fn push(&mut self, time: SimTime, event: E) {
        if time == self.now {
            self.front.push_back(event);
            self.len += 1;
            return;
        }
        // The engine's next rounds land on the first two pending instants.
        for (t, bucket) in self.pending.iter_mut().take(2) {
            if *t == time {
                bucket.push(event);
                self.len += 1;
                return;
            }
            if *t > time {
                break;
            }
        }
        self.push_later(time, event);
    }

    /// [`Self::push`] to a new instant, or to one past the first two
    /// pending instants.
    #[cold]
    fn push_later(&mut self, time: SimTime, event: E) {
        assert!(
            time > self.now,
            "event scheduled at {} ns, before the instant last popped ({} ns)",
            time.nanos(),
            self.now.nanos()
        );
        self.len += 1;
        let index = self.pending.partition_point(|&(t, _)| t < time);
        match self.pending.get_mut(index) {
            Some((t, bucket)) if *t == time => bucket.push(event),
            _ => {
                let mut bucket = self.spare.pop().unwrap_or_default();
                bucket.push(event);
                self.pending.insert(index, (time, bucket));
            }
        }
    }

    /// The earliest scheduled event, or `None` when the simulation is over.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.front.is_empty() {
            let (time, bucket) = self.pending.pop_front()?;
            self.now = time;
            // Both conversions keep the buffer: O(1), no allocation.
            let drained = std::mem::replace(&mut self.front, VecDeque::from(bucket));
            self.spare.push(Vec::from(drained));
        }
        let event = self.front.pop_front()?;
        self.len -= 1;
        self.popped += 1;
        Some((self.now, event))
    }

    /// Number of events still scheduled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events popped so far — the engine's "events processed" figure
    /// (`sim.events` in qla-perf's factor-128 replay).
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        // The stability contract: ties break on push order, never on
        // queue internals.
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(t(7), i);
        }
        for expect in 0..100u32 {
            assert_eq!(q.pop(), Some((t(7), expect)));
        }
    }

    #[test]
    fn interleaved_pushes_and_pops_stay_stable() {
        let mut q = EventQueue::new();
        q.push(t(5), 0u32);
        q.push(t(5), 1);
        assert_eq!(q.pop(), Some((t(5), 0)));
        // A later push at the same instant still pops after the earlier one.
        q.push(t(5), 2);
        assert_eq!(q.pop(), Some((t(5), 1)));
        assert_eq!(q.pop(), Some((t(5), 2)));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "event scheduled at 4 ns, before the instant last popped (5 ns)")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(t(5), ());
        q.pop();
        q.push(t(4), ());
    }

    #[test]
    fn a_rejected_push_leaves_the_queue_as_it_was() {
        let mut q = EventQueue::new();
        q.push(t(5), 0);
        q.push(t(9), 1);
        assert_eq!(q.pop(), Some((t(5), 0)));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.push(t(4), 2)));
        assert!(caught.is_err());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(9), 1)));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drained_buckets_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..3u64 {
            for k in 0..100 {
                q.push(t(1_000 * round + 10 * k + 1), k);
            }
            // After the first round, every new instant takes a drained
            // bucket instead of allocating one.
            assert_eq!(q.pending.len(), 100);
            assert!(q.spare.is_empty());
            for k in 0..100 {
                assert_eq!(q.pop(), Some((t(1_000 * round + 10 * k + 1), k)));
            }
            assert!(q.pending.is_empty());
            assert_eq!(q.spare.len(), 100);
        }
        assert!(q.spare.iter().all(|b| b.is_empty() && b.capacity() > 0));
    }

    proptest! {
        #[test]
        fn pops_match_a_reference_sorted_by_time_then_push_index(
            initial in prop::collection::vec(0u64..8, 0..20),
            ops in prop::collection::vec((0u8..3, 0u64..4), 0..300),
        ) {
            // Arrivals first, in any order; then pops (kind 0) interleaved
            // with pushes at most 3 ns after the instant being drained,
            // often exactly at it.
            let ops = ops.into_iter().map(|(kind, dt)| (kind.min(1), dt)).collect();
            check_against_reference(&initial, ops);
        }

        #[test]
        fn pops_match_a_reference_across_hundreds_of_instants(
            arrivals in (0usize..400, 1u64..40),
            ops in prop::collection::vec((0u8..3, 0u64..4_000), 0..1_500),
        ) {
            // Hundreds of ascending arrivals pushed up front, some instants
            // twice; then pops interleaved with pushes that land just after
            // the instant being drained (before every pending instant) or
            // anywhere up to 4 µs later (between and after pending
            // instants, or on one of them), with pops enough to drain and
            // refill the buckets many times over.
            let (count, spacing) = arrivals;
            let arrivals: Vec<u64> = (0..count as u64)
                .flat_map(|k| std::iter::repeat_n(k * spacing, 1 + usize::from(k % 7 == 3)))
                .collect();
            let ops = ops
                .into_iter()
                .map(|(kind, dt)| match kind {
                    0 => (0, 0),
                    1 => (1, dt % 3),
                    _ => (1, dt),
                })
                .collect();
            check_against_reference(&arrivals, ops);
        }
    }

    /// Push every arrival, then run `ops` — `(0, _)` pops, `(1, dt)` pushes
    /// `dt` after the instant last popped — then drain, checking every pop
    /// against a reference sorted by `(time, push index)`.
    fn check_against_reference(arrivals: &[u64], ops: Vec<(u8, u64)>) {
        let mut q = EventQueue::new();
        let mut model: BTreeSet<(u64, usize)> = BTreeSet::new();
        for (index, &time) in arrivals.iter().enumerate() {
            q.push(t(time), index);
            model.insert((time, index));
        }
        let mut next = arrivals.len();
        let mut now = 0;
        let mut popped = 0;
        let drain = std::iter::repeat_n((0, 0), arrivals.len() + ops.len());
        for (kind, dt) in ops.into_iter().chain(drain) {
            if kind == 0 {
                let first = model.pop_first();
                if let Some((time, _)) = first {
                    now = time;
                    popped += 1;
                }
                assert_eq!(q.pop(), first.map(|(time, index)| (t(time), index)));
            } else {
                q.push(t(now + dt), next);
                model.insert((now + dt, next));
                next += 1;
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.processed(), popped);
        }
        assert!(q.is_empty());
    }
}
