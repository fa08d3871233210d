//! Deterministic parallel execution for the Concilium reproduction.
//!
//! Every compute-heavy driver in this workspace — the DST explorer sweep,
//! the figure/table experiment suite, Monte-Carlo overlay statistics — is an
//! embarrassingly parallel loop over independent tasks.  This crate provides
//! a small scoped-thread work-stealing map with one hard guarantee:
//!
//! > **The output is bit-identical to the serial run at any worker count.**
//!
//! The guarantee is achieved by three rules:
//!
//! 1. **Submission-order results.**  Workers claim task indices from a shared
//!    atomic counter, but every result is keyed by its submission index and
//!    the final vector is assembled in submission order.  Wall-clock
//!    interleaving never leaks into the output.
//! 2. **Pure tasks.**  The task closure must be a pure function of
//!    `(index, item)`.  Tasks that need randomness derive a per-task seed
//!    with [`derive_seed`] instead of sharing a sequential RNG stream.
//! 3. **Minimum-index cancellation.**  Early exit (e.g. "stop at the first
//!    invariant violation") is expressed as a *minimum stopping index*, not a
//!    boolean flag.  A worker that wants to stop publishes its index via an
//!    atomic `fetch_min`; workers skip only tasks *beyond* the current
//!    minimum.  Because the claim counter is monotonic, every index at or
//!    before the final minimum is guaranteed to have run, so truncating the
//!    results at the final minimum reproduces exactly the prefix the serial
//!    loop would have produced.
//!
//! No dependencies beyond `std`; threads are spawned with
//! [`std::thread::scope`] so tasks may freely borrow from the caller's stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Environment variable consulted by [`Jobs::resolve`] when no explicit
/// worker count is given.
pub const JOBS_ENV: &str = "CONCILIUM_JOBS";

/// A resolved worker count (always ≥ 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Jobs(usize);

impl Jobs {
    /// Resolve the effective worker count.
    ///
    /// Priority: an explicit request (e.g. from `--jobs N`), then the
    /// `CONCILIUM_JOBS` environment variable, then the machine's available
    /// parallelism.  Zero or unparsable values are ignored at each level.
    pub fn resolve(explicit: Option<usize>) -> Jobs {
        let n = explicit
            .filter(|&n| n >= 1)
            .or_else(|| {
                std::env::var(JOBS_ENV)
                    .ok()
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .filter(|&n| n >= 1)
            })
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()));
        Jobs(n)
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0
    }
}

/// Derive an independent per-task seed from a master seed and a task index.
///
/// This is a SplitMix64 finalizer over `master ⊕ f(index)`; it is the
/// mechanism that lets randomized tasks run in any order while staying
/// deterministic: the stream a task sees depends only on `(master, index)`,
/// never on which worker ran it or what ran before it.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ (index.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shared cancellation horizon: the smallest task index that requested a stop.
struct Horizon {
    earliest: AtomicUsize,
}

impl Horizon {
    fn new() -> Self {
        Horizon {
            earliest: AtomicUsize::new(usize::MAX),
        }
    }

    fn stop_at(&self, idx: usize) {
        self.earliest.fetch_min(idx, Ordering::SeqCst);
    }

    fn get(&self) -> usize {
        self.earliest.load(Ordering::SeqCst)
    }
}

/// Map `f` over `items` on up to `jobs` workers, returning results in
/// submission order.
///
/// `f` must be a pure function of `(index, item)`; under that contract the
/// output is bit-identical at any `jobs` value.  With `jobs <= 1` (or a
/// single item) no threads are spawned at all.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let (results, stopped) = par_map_while(jobs, items, |idx, item| (f(idx, item), false));
    debug_assert!(stopped.is_none());
    results
}

/// Map `f` over `items` on up to `jobs` workers with first-failure
/// cancellation.
///
/// `f` returns `(result, stop)`.  The call returns the results for exactly
/// the submission-order prefix a serial loop would have produced: if any
/// task requests a stop, the results cover indices `0..=s` where `s` is the
/// *smallest* stopping index, and `Some(s)` is returned alongside.  If no
/// task stops, all results are returned with `None`.
///
/// Tasks strictly beyond the current minimum stopping index are skipped
/// (their `f` is never invoked), which is what makes cancellation an actual
/// saving rather than bookkeeping — but tasks at or before the final minimum
/// always run, so the returned prefix is complete.
pub fn par_map_while<T, R, F>(jobs: usize, items: &[T], f: F) -> (Vec<R>, Option<usize>)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> (R, bool) + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return serial_map_while(items, f);
    }

    let workers = jobs.min(n);
    let counter = AtomicUsize::new(0);
    let horizon = Horizon::new();

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let counter = &counter;
                let horizon = &horizon;
                let f = &f;
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        // AcqRel: the claim counter is the one point of
                        // cross-worker coordination on the hot path; pairing
                        // the claim with the horizon's SeqCst fetch_min keeps
                        // "every index at or before the final minimum ran"
                        // independent of compiler/CPU reordering.
                        let idx = counter.fetch_add(1, Ordering::AcqRel);
                        if idx >= n {
                            break;
                        }
                        // The claim counter is monotonic, so once the horizon
                        // falls below the next claim every later claim is
                        // beyond it too: safe to stop claiming entirely.
                        if idx > horizon.get() {
                            break;
                        }
                        let (result, stop) = {
                            let _span = concilium_obs::span("par.task");
                            f(idx, &items[idx])
                        };
                        if stop {
                            horizon.stop_at(idx);
                        }
                        local.push((idx, result));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (idx, result) in handle.join().expect("parallel worker panicked") {
                slots[idx] = Some(result);
            }
        }
    });

    let cut = horizon.get();
    if cut == usize::MAX {
        let results: Vec<R> = slots
            .into_iter()
            .map(|slot| slot.expect("task skipped without a stop request"))
            .collect();
        (results, None)
    } else {
        let results: Vec<R> = slots
            .into_iter()
            .take(cut + 1)
            .map(|slot| slot.expect("task at or before the stop index must have run"))
            .collect();
        (results, Some(cut))
    }
}

fn serial_map_while<T, R, F>(items: &[T], f: F) -> (Vec<R>, Option<usize>)
where
    F: Fn(usize, &T) -> (R, bool),
{
    let mut results = Vec::with_capacity(items.len());
    for (idx, item) in items.iter().enumerate() {
        let (result, stop) = f(idx, item);
        results.push(result);
        if stop {
            return (results, Some(idx));
        }
    }
    (results, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_submission_order() {
        let items: Vec<u64> = (0..257).collect();
        for jobs in [1, 2, 3, 4, 8] {
            let out = par_map(jobs, &items, |idx, &x| {
                // Vary per-task work so wall-clock completion order scrambles.
                let spin = (x * 31) % 97;
                let mut acc = x;
                for _ in 0..spin * 50 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(idx as u64);
                }
                std::hint::black_box(acc);
                x * 3 + idx as u64
            });
            let expect: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x * 3 + i as u64).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn stop_yields_exact_serial_prefix_at_any_worker_count() {
        let items: Vec<u64> = (0..300).collect();
        let stop_at = 41usize;
        let serial = {
            let (results, stopped) = par_map_while(1, &items, |idx, &x| (x + 1, idx == stop_at));
            assert_eq!(stopped, Some(stop_at));
            results
        };
        assert_eq!(serial.len(), stop_at + 1);
        for jobs in [2, 3, 4, 7, 16] {
            let (results, stopped) = par_map_while(jobs, &items, |idx, &x| (x + 1, idx == stop_at));
            assert_eq!(stopped, Some(stop_at), "jobs={jobs}");
            assert_eq!(results, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn earliest_of_many_stop_requests_wins() {
        let items: Vec<u64> = (0..200).collect();
        // Several indices request a stop (17, 30, 43, ...); the smallest wins.
        let stopper = |idx: usize| idx >= 17 && idx % 13 == 4;
        let (serial, s_stop) = par_map_while(1, &items, |idx, &x| (x, stopper(idx)));
        for jobs in [2, 4, 8] {
            let (results, stopped) = par_map_while(jobs, &items, |idx, &x| (x, stopper(idx)));
            assert_eq!(stopped, s_stop, "jobs={jobs}");
            assert_eq!(results, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn no_stop_returns_every_item() {
        let items: Vec<u32> = (0..64).collect();
        let (results, stopped) = par_map_while(4, &items, |_, &x| (x, false));
        assert_eq!(stopped, None);
        assert_eq!(results, items);
    }

    #[test]
    fn cancellation_actually_skips_far_tail_work() {
        // With a stop at index 2 and many workers, the far tail should be
        // mostly skipped.  We can't assert an exact count (racy), but the
        // number of executed tasks must be well below the total.
        let items: Vec<u64> = (0..10_000).collect();
        let executed = AtomicU64::new(0);
        let (results, stopped) = par_map_while(4, &items, |idx, &x| {
            executed.fetch_add(1, Ordering::SeqCst);
            (x, idx == 2)
        });
        assert_eq!(stopped, Some(2));
        assert_eq!(results, vec![0, 1, 2]);
        assert!(
            executed.load(Ordering::SeqCst) < 9_000,
            "cancellation should prune most of the tail"
        );
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u8> = Vec::new();
        let (results, stopped) = par_map_while(4, &empty, |_, &x| (x, false));
        assert!(results.is_empty());
        assert_eq!(stopped, None);

        let one = [7u8];
        let out = par_map(4, &one, |_, &x| x * 2);
        assert_eq!(out, vec![14]);
    }

    #[test]
    fn derive_seed_is_stable_and_spreads() {
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
        assert_ne!(derive_seed(42, 0), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
        // Crude avalanche check: consecutive indices differ in many bits.
        let a = derive_seed(7, 100);
        let b = derive_seed(7, 101);
        assert!((a ^ b).count_ones() >= 16);
    }

    #[test]
    fn jobs_resolution_prefers_explicit() {
        assert_eq!(Jobs::resolve(Some(3)).get(), 3);
        assert_eq!(Jobs::resolve(Some(1)).get(), 1);
        // Zero is ignored; falls through to env/auto, which is always >= 1.
        assert!(Jobs::resolve(Some(0)).get() >= 1);
        assert!(Jobs::resolve(None).get() >= 1);
    }
}
