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
//! lives in `front`; every later instant keeps its bucket in an ordered
//! map, which a factor-128 replay never grows past a few dozen keys.
//! Appending to a bucket preserves push order, so no per-event sequence
//! number is needed. The one contract this buys: nothing is scheduled
//! before the instant last popped (the engine never schedules into the
//! past).

use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// A deterministic future-event list.
pub struct EventQueue<E> {
    /// The instant last popped (`ZERO` before the first pop); every key of
    /// `later` is after it.
    now: SimTime,
    /// The events still due at `now`, in push order.
    front: VecDeque<E>,
    /// The events of each later instant, in push order.
    later: BTreeMap<SimTime, Vec<E>>,
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
            later: BTreeMap::new(),
            len: 0,
            popped: 0,
        }
    }

    /// Schedule `event` at `time`. Events at equal times pop in push order.
    ///
    /// # Panics
    /// If `time` is before the instant last popped.
    pub fn push(&mut self, time: SimTime, event: E) {
        if time == self.now {
            self.front.push_back(event);
        } else {
            assert!(
                time > self.now,
                "event scheduled at {} ns, before the instant last popped ({} ns)",
                time.nanos(),
                self.now.nanos()
            );
            self.later.entry(time).or_default().push(event);
        }
        self.len += 1;
    }

    /// The earliest scheduled event, or `None` when the simulation is over.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.front.is_empty() {
            let (time, bucket) = self.later.pop_first()?;
            self.now = time;
            self.front = VecDeque::from(bucket);
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

    proptest! {
        #[test]
        fn pops_match_a_reference_sorted_by_time_then_push_index(
            initial in prop::collection::vec(0u64..8, 0..20),
            ops in prop::collection::vec((0u8..3, 0u64..4), 0..300),
        ) {
            // Arrivals first, in any order; then pops (kind 0) interleaved
            // with pushes at most 3 ns after the instant being drained,
            // often exactly at it.
            let mut q = EventQueue::new();
            let mut model: Vec<(u64, usize)> = Vec::new();
            for (index, &time) in initial.iter().enumerate() {
                q.push(t(time), index);
                model.push((time, index));
            }
            let mut next = initial.len();
            let mut now = 0;
            let mut popped = 0;
            let drain = std::iter::repeat_n((0, 0), initial.len() + ops.len());
            for (kind, dt) in ops.into_iter().chain(drain) {
                if kind == 0 {
                    let first = model.iter().copied().min();
                    if let Some(entry) = first {
                        model.retain(|&m| m != entry);
                        now = entry.0;
                        popped += 1;
                    }
                    prop_assert_eq!(q.pop(), first.map(|(time, index)| (t(time), index)));
                } else {
                    q.push(t(now + dt), next);
                    model.push((now + dt, next));
                    next += 1;
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.processed(), popped);
            }
            prop_assert!(q.is_empty());
        }
    }
}
