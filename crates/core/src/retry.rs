//! Timeout, retry, and backoff: the generic recovery policy.
//!
//! Concilium's judgments are only as good as the evidence that reaches
//! the judge, and in a faulty network the *protocol's own* messages —
//! acknowledgments, DHT puts, revision handoffs — are lost like any
//! other traffic. Judging on first silence confuses transport loss with
//! misbehavior; this module supplies the retransmit-before-judging
//! discipline the recovery paths share:
//!
//! * [`RetryPolicy`] — capped exponential backoff with jitter drawn from
//!   the caller's (simulation) RNG, so retried runs stay deterministic.
//! * [`RetryPolicy::run`] — drives a fallible operation to success or
//!   exhaustion.
//! * [`RetryPolicy::attempt_times`] — the virtual-time schedule of
//!   attempts, for event-driven callers such as
//!   [`RetransmitQueue`](crate::ack::RetransmitQueue).
//!
//! Consumers: the acknowledgment path ([`crate::ack`]), the accusation
//! DHT ([`crate::dht`]), and revision handoff ([`crate::revision`]).

use std::fmt;

use rand::Rng;

use concilium_types::{SimDuration, SimTime};

/// A capped exponential backoff policy.
///
/// Attempt `k` (zero-based) waits `base_delay × multiplier^k`, capped at
/// `max_delay`, then jittered *downward* by up to `jitter` (a fraction in
/// `[0, 1]`) so synchronized retriers desynchronize without ever
/// exceeding the cap.
///
/// # Examples
///
/// ```
/// use concilium::retry::RetryPolicy;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let policy = RetryPolicy::default();
/// let mut calls = 0;
/// let out = policy.run(&mut rng, |_| {
///     calls += 1;
///     if calls < 3 { Err("transient") } else { Ok("done") }
/// });
/// assert_eq!(out.unwrap(), ("done", 3));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (must be at least 1).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: SimDuration,
    /// Growth factor between consecutive delays.
    pub multiplier: f64,
    /// Upper bound on any single delay.
    pub max_delay: SimDuration,
    /// Fraction of each delay randomized away (`0` = deterministic
    /// schedule, `0.5` = delays land in `[0.5 d, d]`).
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: SimDuration::from_millis(500),
            multiplier: 2.0,
            max_delay: SimDuration::from_secs(10),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — the first failure is final. The
    /// ablation arm of the fault-injection experiments.
    pub fn disabled() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// The backoff delay before retry `attempt` (zero-based: `0` is the
    /// gap between the first and second attempts), jittered from `rng`.
    ///
    /// The exponent is saturated before it reaches `powi`: a `u32`
    /// attempt count cast straight to `i32` wraps negative past
    /// `i32::MAX`, which would *shrink* the delay toward zero exactly
    /// when a caller has been retrying longest. Any growing multiplier
    /// has long since pinned the delay at `max_delay` by attempt 1024,
    /// and a shrinking one has underflowed to zero, so clamping there
    /// changes no reachable schedule while making the arithmetic total.
    pub fn backoff_delay<R: Rng + ?Sized>(&self, attempt: u32, rng: &mut R) -> SimDuration {
        const EXPONENT_SATURATION: u32 = 1024;
        let exponent = attempt.min(EXPONENT_SATURATION) as i32;
        let raw = self.base_delay.as_secs_f64() * self.multiplier.powi(exponent);
        let capped = raw.min(self.max_delay.as_secs_f64());
        let jittered = if self.jitter > 0.0 {
            capped * (1.0 - rng.gen_range(0.0..self.jitter))
        } else {
            capped
        };
        SimDuration::from_secs_f64(jittered)
    }

    /// The virtual times of every attempt, the first at `start`. Length
    /// is `max_attempts`.
    pub fn attempt_times<R: Rng + ?Sized>(&self, start: SimTime, rng: &mut R) -> Vec<SimTime> {
        let mut t = start;
        let mut times = vec![t];
        for attempt in 0..self.max_attempts.saturating_sub(1) {
            t += self.backoff_delay(attempt, rng);
            times.push(t);
        }
        times
    }

    /// Runs `op` until it succeeds or attempts are exhausted. `op`
    /// receives the one-based attempt number. On success returns the
    /// value together with the number of attempts used.
    ///
    /// # Errors
    ///
    /// Returns a [`RetryError`] wrapping the *last* underlying error
    /// after `max_attempts` failures.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn run<T, E, R, F>(&self, rng: &mut R, mut op: F) -> Result<(T, u32), RetryError<E>>
    where
        R: Rng + ?Sized,
        F: FnMut(u32) -> Result<T, E>,
    {
        assert!(self.max_attempts >= 1, "a retry policy needs at least one attempt");
        let mut last = None;
        for attempt in 1..=self.max_attempts {
            match op(attempt) {
                Ok(value) => return Ok((value, attempt)),
                Err(err) => last = Some(err),
            }
            if attempt < self.max_attempts {
                // The backoff draw is consumed even though virtual time is
                // the caller's concern, keeping RNG streams identical
                // between blocking and event-driven users of one policy.
                let _ = self.backoff_delay(attempt - 1, rng);
            }
        }
        Err(RetryError {
            attempts: self.max_attempts,
            #[expect(clippy::expect_used, reason = "max_attempts >= 1 is asserted above, so the loop body ran")]
            last: last.expect("at least one attempt ran"),
        })
    }
}

/// All attempts failed; carries the last underlying error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryError<E> {
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The error from the final attempt.
    pub last: E,
}

impl<E: fmt::Display> fmt::Display for RetryError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gave up after {} attempts: {}", self.attempts, self.last)
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for RetryError<E> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn backoff_grows_and_caps() {
        let mut rng = StdRng::seed_from_u64(1);
        let policy = RetryPolicy { jitter: 0.0, ..RetryPolicy::default() };
        assert_eq!(policy.backoff_delay(0, &mut rng), SimDuration::from_millis(500));
        assert_eq!(policy.backoff_delay(1, &mut rng), SimDuration::from_secs(1));
        assert_eq!(policy.backoff_delay(2, &mut rng), SimDuration::from_secs(2));
        // 500 ms × 2^10 = 512 s, capped at 10 s.
        assert_eq!(policy.backoff_delay(10, &mut rng), SimDuration::from_secs(10));
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let policy = RetryPolicy::default(); // jitter 0.5
        for attempt in 0..8 {
            let nominal = (0.5 * 2f64.powi(attempt)).min(10.0);
            for _ in 0..100 {
                let d = policy.backoff_delay(attempt as u32, &mut rng).as_secs_f64();
                assert!(d <= nominal + 1e-9, "delay {d} exceeds nominal {nominal}");
                assert!(d >= nominal * 0.5 - 1e-9, "delay {d} below jitter floor");
            }
        }
    }

    #[test]
    fn run_recovers_from_transient_failures() {
        let mut rng = StdRng::seed_from_u64(3);
        let policy = RetryPolicy::default();
        let mut calls = 0u32;
        let out: Result<(&str, u32), RetryError<&str>> = policy.run(&mut rng, |attempt| {
            calls += 1;
            assert_eq!(attempt, calls);
            if calls < 4 {
                Err("transient")
            } else {
                Ok("recovered")
            }
        });
        assert_eq!(out.unwrap(), ("recovered", 4));
    }

    #[test]
    fn run_exhaustion_reports_the_last_error() {
        let mut rng = StdRng::seed_from_u64(4);
        let policy = RetryPolicy::default();
        let mut calls = 0u32;
        let out: Result<((), u32), RetryError<u32>> = policy.run(&mut rng, |_| {
            calls += 1;
            Err(calls)
        });
        let err = out.unwrap_err();
        assert_eq!(err.attempts, 4);
        assert_eq!(err.last, 4, "the final attempt's error is kept");
        assert!(err.to_string().contains("gave up after 4 attempts"));
    }

    #[test]
    fn disabled_policy_tries_exactly_once() {
        let mut rng = StdRng::seed_from_u64(5);
        let policy = RetryPolicy::disabled();
        let mut calls = 0u32;
        let out: Result<((), u32), RetryError<&str>> = policy.run(&mut rng, |_| {
            calls += 1;
            Err("down")
        });
        assert_eq!(calls, 1);
        assert_eq!(out.unwrap_err().attempts, 1);
    }

    #[test]
    #[should_panic(expected = "a retry policy needs at least one attempt")]
    fn zero_attempt_budget_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let policy = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        let _: Result<((), u32), RetryError<&str>> = policy.run(&mut rng, |_| Err("never"));
    }

    #[test]
    fn zero_attempt_budget_has_empty_schedule() {
        // `attempt_times` saturates rather than panicking: the schedule
        // still contains the initial send, and nothing after it.
        let mut rng = StdRng::seed_from_u64(7);
        let policy = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        let times = policy.attempt_times(SimTime::from_secs(1), &mut rng);
        assert_eq!(times, vec![SimTime::from_secs(1)]);
    }

    #[test]
    fn backoff_saturates_at_the_cap_forever() {
        // Once base × multiplier^k crosses the cap, every later attempt
        // (including ones whose raw value would overflow f64 ranges)
        // stays exactly at the cap.
        let mut rng = StdRng::seed_from_u64(8);
        let policy = RetryPolicy { jitter: 0.0, ..RetryPolicy::default() };
        // 500 ms × 2^5 = 16 s > 10 s cap.
        for attempt in [5, 6, 20, 100, 1000] {
            assert_eq!(
                policy.backoff_delay(attempt, &mut rng),
                policy.max_delay,
                "attempt {attempt} must sit at the cap"
            );
        }
    }

    #[test]
    fn extreme_attempt_counts_cannot_overflow_the_delay() {
        // `attempt as i32` used to wrap negative past i32::MAX, turning
        // `multiplier^attempt` into a denormal and collapsing the delay
        // toward zero for the longest-suffering retriers. The saturated
        // exponent keeps every huge attempt at the cap instead.
        let mut rng = StdRng::seed_from_u64(9);
        let policy = RetryPolicy { jitter: 0.0, ..RetryPolicy::default() };
        for attempt in [1_024, 1_025, i32::MAX as u32, i32::MAX as u32 + 1, u32::MAX] {
            assert_eq!(
                policy.backoff_delay(attempt, &mut rng),
                policy.max_delay,
                "attempt {attempt} must saturate at the cap, not underflow"
            );
        }
        // A shrinking multiplier at an extreme attempt stays at zero
        // rather than bouncing back up through exponent wraparound.
        let decaying = RetryPolicy { multiplier: 0.5, jitter: 0.0, ..RetryPolicy::default() };
        assert_eq!(decaying.backoff_delay(u32::MAX, &mut rng), SimDuration::ZERO);
        // And the jittered path is finite and within the cap too.
        let jittered = RetryPolicy::default().backoff_delay(u32::MAX, &mut rng);
        assert!(jittered <= RetryPolicy::default().max_delay);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// With the default jitter of 0.5, every delay — any attempt,
            /// any seed — lands in `[base/2, cap]`: the nominal delay is
            /// at least `base` and at most the cap, and jitter removes at
            /// most half of it. The tighter per-attempt bound
            /// `[nominal/2, nominal]` is asserted too.
            #[test]
            fn jittered_delay_always_within_base_half_and_cap(
                attempt in 0u32..64,
                seed in 0u64..1_000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let policy = RetryPolicy::default();
                let d = policy.backoff_delay(attempt, &mut rng).as_secs_f64();
                let base = policy.base_delay.as_secs_f64();
                let cap = policy.max_delay.as_secs_f64();
                prop_assert!(
                    d >= base * 0.5 - 1e-9,
                    "delay {} below global floor {}", d, base * 0.5
                );
                prop_assert!(d <= cap + 1e-9, "delay {} above cap {}", d, cap);
                let nominal = (base * policy.multiplier.powi(attempt as i32)).min(cap);
                prop_assert!(d >= nominal * 0.5 - 1e-9);
                prop_assert!(d <= nominal + 1e-9);
            }
        }
    }

    #[test]
    fn attempt_times_are_monotone_and_deterministic() {
        let policy = RetryPolicy::default();
        let start = SimTime::from_secs(100);
        let mut a = StdRng::seed_from_u64(6);
        let mut b = StdRng::seed_from_u64(6);
        let ta = policy.attempt_times(start, &mut a);
        let tb = policy.attempt_times(start, &mut b);
        assert_eq!(ta, tb, "same seed, same schedule");
        assert_eq!(ta.len(), 4);
        assert_eq!(ta[0], start);
        assert!(ta.windows(2).all(|w| w[0] < w[1]));
    }
}
