//! A generic discrete-event queue with a virtual clock.
//!
//! [`EventQueue`] is a `BinaryHeap` keyed on `(time, seq)`: events pop in
//! time order, and events scheduled for the same instant pop in the order
//! they were scheduled. That order is the determinism contract of the
//! whole simulator — every committed trace hash depends on it
//! (DESIGN.md §16).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use concilium_types::SimTime;

/// Why an event could not be scheduled: the requested time precedes the
/// virtual clock. The event is handed back so callers can reschedule it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleError {
    /// The rejected schedule time.
    pub at: SimTime,
    /// The queue's clock when the attempt was made.
    pub now: SimTime,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot schedule at {} before now {}", self.at, self.now)
    }
}

impl std::error::Error for ScheduleError {}

/// An event scheduled at a time; ties break by insertion order, making the
/// simulation fully deterministic for a fixed seed.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A discrete-event queue: schedule events at virtual times, pop them in
/// order, and watch the clock advance.
///
/// # Examples
///
/// ```
/// use concilium_sim::EventQueue;
/// use concilium_types::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(5), "b");
/// q.schedule(SimTime::from_secs(1), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
/// assert_eq!(q.now(), SimTime::from_secs(1));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "b")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: SimTime,
    high_water: usize,
}

// Hand-written: a derive would demand `E: Default`.
impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now: SimTime::ZERO, high_water: 0 }
    }

    /// The current virtual time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the last popped event).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        if let Err((err, _)) = self.try_schedule(at, event) {
            panic!("{err}");
        }
    }

    /// Schedules `event` at time `at`, returning the event together with a
    /// [`ScheduleError`] instead of panicking when `at` is in the past —
    /// the non-panicking entry point used by the fault-injection layer,
    /// whose perturbed delivery times are data, not programmer invariants.
    pub fn try_schedule(&mut self, at: SimTime, event: E) -> Result<(), (ScheduleError, E)> {
        if at < self.now {
            return Err((ScheduleError { at, now: self.now }, event));
        }
        self.heap.push(Scheduled { time: at, seq: self.seq, event });
        self.seq += 1;
        self.high_water = self.high_water.max(self.heap.len());
        Ok(())
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Pops the earliest event only if it is scheduled at or before
    /// `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the earliest pending event, without popping it —
    /// `None` when the queue is empty. Lets drivers decide whether the
    /// simulation has quiesced before a deadline without consuming the
    /// event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// The largest number of events ever pending at once — a virtual-time
    /// fact (scheduling order is deterministic), so it is safe to report
    /// in per-episode metrics.
    pub fn depth_high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_types::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(t, "first");
        q.schedule(t, "second");
        q.schedule(t, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.schedule(SimTime::from_secs(4), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(4));
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 5);
        assert_eq!(q.pop_until(SimTime::from_secs(4)), None);
        assert_eq!(q.pop_until(SimTime::from_secs(5)), Some((SimTime::from_secs(5), 5)));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn try_schedule_rejects_the_past_and_returns_the_event() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "later");
        q.pop();
        let (err, event) = q.try_schedule(SimTime::from_secs(1), "stale").unwrap_err();
        assert_eq!(event, "stale");
        assert_eq!(err.at, SimTime::from_secs(1));
        assert_eq!(err.now, SimTime::from_secs(5));
        assert!(err.to_string().contains("cannot schedule"));
        assert!(q.is_empty(), "rejected events are not enqueued");
        // At or after `now` succeeds.
        assert!(q.try_schedule(SimTime::from_secs(5), "ok").is_ok());
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "ok")));
    }

    #[test]
    fn inspection_api_tracks_queue_state() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(7), "late");
        q.schedule(SimTime::from_secs(2), "early");
        assert!(!q.is_empty());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        // Peeking never pops or advances the clock.
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.depth_high_water(), 2, "high-water survives draining");
    }

    #[test]
    fn rescheduling_while_popping_works() {
        // A typical repair-then-refail loop.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 0u32);
        let mut popped = Vec::new();
        while let Some((t, gen)) = q.pop() {
            popped.push(gen);
            if gen < 4 {
                q.schedule(t + concilium_types::SimDuration::from_secs(1), gen + 1);
            }
        }
        assert_eq!(popped, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "near");
        q.schedule(SimTime::from_secs(1_000_000), "far");
        q.schedule(SimTime::from_secs(2), "near2");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "near2");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1_000_000)));
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn saturated_end_of_time_is_poppable() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(u64::MAX), "eot");
        q.schedule(SimTime::from_micros(u64::MAX - 1), "almost");
        q.schedule(SimTime::from_secs(1), "soon");
        assert_eq!(q.pop().unwrap().1, "soon");
        assert_eq!(q.pop().unwrap().1, "almost");
        assert_eq!(q.pop().unwrap().1, "eot");
        assert_eq!(q.now(), SimTime::from_micros(u64::MAX));
        assert!(q.is_empty());
    }

    #[test]
    fn scattered_ties_pop_in_exact_order() {
        let mut q = EventQueue::new();
        for i in 0..500u64 {
            // Deterministic scatter of times, many ties.
            let t = (i * 7919) % 257;
            q.schedule(SimTime::from_micros(t * 1_000), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut popped = 0;
        while let Some((t, i)) = q.pop() {
            assert!(
                (last.0, last.1) <= (t, i),
                "order violated: {last:?} then ({t:?}, {i})"
            );
            last = (t, i);
            popped += 1;
        }
        assert_eq!(popped, 500);
        assert_eq!(q.depth_high_water(), 500);
    }

    #[test]
    fn default_does_not_require_a_default_event() {
        struct NoDefault;
        let q: EventQueue<NoDefault> = EventQueue::default();
        assert!(q.is_empty());
    }

    /// One operation of the model driver below.
    #[derive(Clone, Debug)]
    enum Op {
        /// Schedule at `now + dt` (µs). Always valid.
        Schedule(u64),
        /// `try_schedule` at an absolute time that may precede `now`.
        TryScheduleAbs(u64),
        Pop,
        /// `pop_until(now + dt)`.
        PopUntil(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // DST-realistic deltas: sub-second RTTs, multi-second retries,
        // multi-minute outage repairs, plus exact ties (dt = 0).
        (0u8..5, 0u64..600_000_000).prop_map(|(kind, v)| match kind {
            0 | 1 => Op::Schedule(v % 400_000_000),
            2 => Op::TryScheduleAbs(v),
            3 => Op::Pop,
            _ => Op::PopUntil(v % 500_000_000),
        })
    }

    /// The executable specification: pending events in a `Vec`, kept in
    /// insertion order, so a stable sort by time is exactly `(time,
    /// insertion index)` order.
    #[derive(Default)]
    struct Model {
        pending: Vec<(SimTime, u32)>,
        now: SimTime,
        high_water: usize,
    }

    impl Model {
        fn try_schedule(&mut self, at: SimTime, tag: u32) -> Result<(), (ScheduleError, u32)> {
            if at < self.now {
                return Err((ScheduleError { at, now: self.now }, tag));
            }
            self.pending.push((at, tag));
            self.high_water = self.high_water.max(self.pending.len());
            Ok(())
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.pending.iter().map(|&(t, _)| t).min()
        }

        fn pop(&mut self) -> Option<(SimTime, u32)> {
            self.pending.sort_by_key(|&(t, _)| t);
            if self.pending.is_empty() {
                return None;
            }
            let head = self.pending.remove(0);
            self.now = head.0;
            Some(head)
        }

        fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, u32)> {
            if self.peek_time()? <= deadline {
                self.pop()
            } else {
                None
            }
        }
    }

    proptest! {
        /// `EventQueue` is indistinguishable from the sorted-`Vec` model on
        /// arbitrary schedules: identical pops (time AND payload, so
        /// tie-breaks match), clocks, `try_schedule` rejections handing the
        /// event back, `peek_time`, `len` and high-water marks.
        #[test]
        fn queue_matches_stable_sort_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut model = Model::default();
            for (tag, op) in ops.into_iter().enumerate() {
                let tag = tag as u32;
                match op {
                    Op::Schedule(dt) => {
                        let at = q.now() + SimDuration::from_micros(dt);
                        q.schedule(at, tag);
                        prop_assert_eq!(model.try_schedule(at, tag), Ok(()));
                    }
                    Op::TryScheduleAbs(t) => {
                        let at = SimTime::from_micros(t);
                        prop_assert_eq!(q.try_schedule(at, tag), model.try_schedule(at, tag));
                    }
                    Op::Pop => {
                        prop_assert_eq!(q.pop(), model.pop());
                    }
                    Op::PopUntil(dt) => {
                        let deadline = q.now() + SimDuration::from_micros(dt);
                        prop_assert_eq!(q.pop_until(deadline), model.pop_until(deadline));
                    }
                }
                prop_assert_eq!(q.now(), model.now);
                prop_assert_eq!(q.len(), model.pending.len());
                prop_assert_eq!(q.is_empty(), model.pending.is_empty());
                prop_assert_eq!(q.peek_time(), model.peek_time());
                prop_assert_eq!(q.depth_high_water(), model.high_water);
            }
            // Drain both: the full remaining order must agree.
            loop {
                let (got, want) = (q.pop(), model.pop());
                prop_assert_eq!(&got, &want);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
