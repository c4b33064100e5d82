//! The threading subsystem: a vendored-deps-only scoped thread pool for
//! embarrassingly parallel sweeps.
//!
//! The whole evaluation suite is built around per-point seed derivation
//! (see [`crate::ExperimentContext::derived_seed`]): every sweep point's
//! result is a pure function of `(master seed, point index, point)` and
//! never of evaluation order. [`Executor`] is the matching execution
//! strategy object — a work queue over `std::thread::scope` (no rayon, no
//! crates.io dependency, no `unsafe`) that evaluates points concurrently
//! and **reassembles results in index order**, so a parallel map is
//! byte-for-byte indistinguishable from the sequential loop it replaces.
//!
//! Scheduling is dynamic: instead of pre-partitioning the items (which
//! stalls on skewed point costs — the high-error points of a threshold
//! sweep are much slower than the low-error ones), workers pull one index
//! at a time from a shared atomic cursor until the queue is empty. Indices
//! are handed out in ascending order, so a caller can put its costliest
//! items first, and a worker that finishes early simply takes the next
//! index; nothing is ever assigned to a slow worker in advance.

use qla_obs::{EventLog, ObsConfig};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Sets the shared poison flag when its worker's unwind reaches it, so the
/// other workers stop pulling new indices instead of draining a queue whose
/// results will be thrown away by the propagated panic. The unwind starts
/// only after the panic hook returns, and a hook that prints a backtrace
/// can take milliseconds: until then the other workers keep pulling.
struct PoisonOnPanic<'a>(&'a AtomicBool);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Execution strategy for index-parallel maps: a worker count.
///
/// `Executor` is deliberately tiny and `Copy` so an
/// [`ExperimentContext`](crate::ExperimentContext) can carry one by value:
/// experiments receive their threading story with their seed and trial
/// budget, and nothing about their output is allowed to depend on it. One
/// worker ([`Executor::SEQUENTIAL`]) evaluates in a plain loop on the
/// calling thread; more spawn that many scoped workers pulling indices
/// from a shared queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Executor(NonZeroUsize);

impl Executor {
    /// One worker: every map runs inline on the calling thread.
    pub const SEQUENTIAL: Executor = Executor(NonZeroUsize::MIN);

    /// The executor for a `--jobs N` request: `0` or `1` mean sequential,
    /// anything larger is that many worker threads.
    #[must_use]
    pub fn from_jobs(jobs: usize) -> Self {
        Executor(NonZeroUsize::new(jobs).unwrap_or(NonZeroUsize::MIN))
    }

    /// An executor sized to the machine (`std::thread::available_parallelism`),
    /// falling back to sequential when the parallelism cannot be queried.
    #[must_use]
    pub fn available_parallelism() -> Self {
        Executor(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// The worker count this executor evaluates with (`1` for sequential).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.0.get()
    }

    /// Map `f` over `items`, returning results **in item order** regardless
    /// of the execution interleaving.
    ///
    /// `f` receives `(index, &item)` and must be a pure function of them
    /// (up to its own captured state) for the determinism contract to hold;
    /// every caller in this workspace derives any randomness from the index
    /// via a per-point seed.
    ///
    /// # Panics
    /// Propagates the first observed worker panic. The panic poisons the
    /// queue once its unwind leaves the panicking worker's item: from then
    /// on the remaining workers finish the item they are on but pull no
    /// further items, so unevaluated items (and any side effects of `f` on
    /// them) are abandoned before the panic is resumed on the caller. The
    /// unwind starts only after the panic hook returns; until then the
    /// other workers keep pulling, and a slow hook (a backtrace under
    /// `RUST_BACKTRACE=1`) can let them drain the whole queue.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_indices(items.len(), |i| f(i, &items[i]))
    }

    /// Map `f` over `0..len` like [`Executor::map_indices`], threading a
    /// fresh per-point [`EventLog`] into each call and returning the logs
    /// alongside the results, both in index order.
    ///
    /// This is the observability layer's executor hook: each point's log
    /// is created inside that point's own closure invocation (never shared
    /// across points), sealed with a `task` envelope span, and reassembled
    /// in index order — so the log vector, like the result vector, is
    /// byte-identical across thread counts and from run to run. Closures
    /// usually [`EventLog::set_label`] their point's name.
    ///
    /// # Panics
    /// Propagates the first observed worker panic.
    pub fn map_indices_observed<R, F>(
        &self,
        len: usize,
        config: &ObsConfig,
        f: F,
    ) -> (Vec<R>, Vec<EventLog>)
    where
        R: Send,
        F: Fn(usize, &mut EventLog) -> R + Sync,
    {
        let pairs = self.map_indices(len, |i| {
            let mut log = EventLog::for_point(config.clone(), format!("point-{i}"));
            let result = f(i, &mut log);
            log.seal_task_span();
            (result, log)
        });
        pairs.into_iter().unzip()
    }

    /// Map `f` over the indices `0..len`, returning results in index order.
    ///
    /// This is the primitive [`Executor::map`] is built on; use it directly
    /// when the "items" are implicit (grid coordinates, sweep-point
    /// indices). Workers pull one index per fetch, in ascending order: an
    /// index is never started before every lower index has been handed
    /// out.
    ///
    /// # Panics
    /// Propagates the first observed worker panic, which poisons the queue
    /// only once it unwinds, as [`Executor::map`] describes.
    pub fn map_indices<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.jobs().min(len);
        if workers <= 1 {
            return (0..len).map(f).collect();
        }

        let cursor = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let f = &f;

        let mut buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let guard = PoisonOnPanic(&poisoned);
                        let mut local: Vec<(usize, R)> = Vec::new();
                        // Stop pulling once any worker's panic has unwound
                        // to its guard: the panic will be propagated to the
                        // caller and every further result discarded anyway.
                        while !poisoned.load(Ordering::Relaxed) {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= len {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        drop(guard);
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(local) => local,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        // Reassemble in index order: the output must be indistinguishable
        // from the sequential loop.
        let mut slots: Vec<Option<R>> = Vec::with_capacity(len);
        slots.resize_with(len, || None);
        for (i, r) in buckets.drain(..).flatten() {
            debug_assert!(slots[i].is_none(), "index {i} evaluated twice");
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("index {i} was never evaluated")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn threads(n: usize) -> Executor {
        Executor::from_jobs(n)
    }

    #[test]
    fn from_jobs_normalises_degenerate_counts() {
        assert_eq!(Executor::from_jobs(0), Executor::SEQUENTIAL);
        assert_eq!(Executor::from_jobs(1), Executor::SEQUENTIAL);
        assert_eq!(Executor::SEQUENTIAL.jobs(), 1);
        assert_eq!(threads(4).jobs(), 4);
        assert!(Executor::available_parallelism().jobs() >= 1);
    }

    #[test]
    fn map_preserves_item_order_for_every_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for executor in [
            Executor::SEQUENTIAL,
            threads(2),
            threads(3),
            threads(8),
            threads(64), // more workers than items
        ] {
            let got = executor.map(&items, |_, &x| x * x);
            assert_eq!(got, expected, "{executor:?}");
        }
    }

    #[test]
    fn map_indices_matches_sequential_on_skewed_workloads() {
        // Skewed per-item cost exercises the dynamic queue: early indices
        // are much more expensive than late ones.
        let cost = |i: usize| -> u64 {
            let spins = if i < 4 { 40_000 } else { 10 };
            (0..spins).fold(i as u64, |acc, k| {
                acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k)
            })
        };
        let sequential = Executor::SEQUENTIAL.map_indices(37, cost);
        let parallel = threads(5).map_indices(37, cost);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(threads(4).map(&empty, |_, &x| x), Vec::<u32>::new());
        assert_eq!(threads(4).map(&[5u32], |i, &x| (i, x)), vec![(0, 5)]);
        assert_eq!(
            Executor::SEQUENTIAL.map_indices(0, |i| i),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            threads(3).map_indices(16, |i| {
                assert!(i != 7, "boom at index 7");
                i
            })
        });
        assert!(result.is_err(), "the worker panic must not be swallowed");
    }

    #[test]
    fn a_panic_poisons_the_queue_instead_of_draining_it() {
        // The first item evaluated *anywhere* panics (not a fixed index,
        // which would race against worker scheduling). The poison flag is
        // set when that panic unwinds out of the worker, after the panic
        // hook has run, and the hook can outlast the whole queue (it prints
        // a backtrace under RUST_BACKTRACE=1). So every other item holds its
        // worker until the panic has unwound out of the panicking item, then
        // spins 50 µs more: each worker finishes the item it is on and,
        // with the flag set, pulls no further items. Without that hold the
        // others would keep pulling while the hook runs, as `map` documents.
        struct SetOnDrop<'a>(&'a AtomicBool);
        impl Drop for SetOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        let len = 256;
        let evaluated = AtomicUsize::new(0);
        let panicked = AtomicBool::new(false);
        let unwound = AtomicBool::new(false);
        let result = std::panic::catch_unwind(|| {
            threads(4).map_indices(len, |i| {
                if !panicked.swap(true, Ordering::Relaxed) {
                    let _unwinding = SetOnDrop(&unwound);
                    panic!("poison");
                }
                evaluated.fetch_add(1, Ordering::Relaxed);
                while !unwound.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                let spin_until = Instant::now() + Duration::from_micros(50);
                while Instant::now() < spin_until {
                    std::hint::spin_loop();
                }
                i
            })
        });
        assert!(result.is_err());
        let evaluated = evaluated.load(Ordering::Relaxed);
        assert!(
            evaluated < len - 1,
            "queue was drained ({evaluated} of {} items) despite the poison flag",
            len - 1
        );
    }

    #[test]
    fn results_are_independent_of_chunk_interleaving() {
        // Same computation at several thread counts and lengths: the
        // interleaving changes, the output must not.
        for len in [1usize, 7, 31, 128, 1000] {
            let expected: Vec<usize> = (0..len).map(|i| i.wrapping_mul(31) ^ 5).collect();
            for n in [2usize, 3, 7, 16] {
                assert_eq!(
                    threads(n).map_indices(len, |i| i.wrapping_mul(31) ^ 5),
                    expected,
                    "len={len} workers={n}"
                );
            }
        }
    }
}
