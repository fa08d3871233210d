//! Acknowledgment schemes (§3.4, §3.7).
//!
//! A fault judgment is based on acknowledgment of an individual message.
//! When two peers exchange many packets, "it may be useful for a single
//! acknowledgment to cover multiple messages. The acknowledgment could
//! indicate loss rates in several ways, e.g., through simple counters
//! indicating how many packets arrived, or packet hashes identifying the
//! specific packets which were received."
//!
//! Three signed schemes are provided:
//!
//! * [`AckBody::Single`] — the baseline per-message acknowledgment;
//! * [`AckBody::Counter`] — "k of your last n messages arrived";
//! * [`AckBody::Hashes`] — digests of the specific messages received,
//!   letting the sender identify exactly which messages were dropped.
//!
//! [`RetransmitQueue`] adds the recovery discipline on top: a steward
//! retransmits an unacknowledged message on the backoff schedule of a
//! [`RetryPolicy`] and only treats it as *dropped* — eligible for
//! judgment — once every attempt has gone unanswered. Without it, a
//! single lost acknowledgment is indistinguishable from a dropped
//! message and honest forwarders collect guilty verdicts.

use serde::{Deserialize, Serialize};

use concilium_crypto::{sha256, Digest, KeyPair, PublicKey, Signable, Signature};
use concilium_types::{Id, MsgId, SimDuration, SimTime};

use crate::retry::RetryPolicy;

/// The payload of an acknowledgment.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum AckBody {
    /// One message acknowledged.
    Single(MsgId),
    /// `received` of the `window` most recent messages arrived.
    Counter {
        /// Messages received.
        received: u64,
        /// Messages the window covers.
        window: u64,
    },
    /// Digests of the specific messages received.
    Hashes(Vec<Digest>),
}

/// A signed acknowledgment from a destination back to a sender.
///
/// # Examples
///
/// ```
/// use concilium::ack::{Ack, AckBody};
/// use concilium_crypto::KeyPair;
/// use concilium_types::{Id, MsgId, SimTime};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let z = KeyPair::generate(&mut rng);
/// let ack = Ack::issue(
///     Id::from_u64(9),
///     Id::from_u64(1),
///     AckBody::Single(MsgId(4)),
///     SimTime::from_secs(10),
///     &z,
///     &mut rng,
/// );
/// assert!(ack.verify(&z.public()));
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Ack {
    from: Id,
    to: Id,
    body: AckBody,
    time: SimTime,
    sig: Signature,
}

impl Ack {
    /// The destination signs an acknowledgment to the sender.
    pub fn issue<R: rand::Rng + ?Sized>(
        from: Id,
        to: Id,
        body: AckBody,
        time: SimTime,
        from_keys: &KeyPair,
        rng: &mut R,
    ) -> Self {
        let mut a = Ack { from, to, body, time, sig: Signature::dummy() };
        a.sig = from_keys.sign(&a.to_signable_vec(), rng);
        a
    }

    /// The acknowledging host (the message destination).
    pub(crate) fn from(&self) -> Id {
        self.from
    }

    /// Verifies the destination's signature.
    pub fn verify(&self, from_key: &PublicKey) -> bool {
        from_key.verify(&self.to_signable_vec(), &self.sig)
    }

    /// Whether this acknowledgment attests that a specific message
    /// arrived. For hash acks, pass the message payload; counter acks can
    /// never attest a specific message (they only carry a rate).
    pub(crate) fn covers(&self, msg: MsgId, payload: Option<&[u8]>) -> bool {
        match &self.body {
            AckBody::Single(m) => *m == msg,
            AckBody::Counter { .. } => false,
            AckBody::Hashes(digests) => match payload {
                Some(p) => digests.contains(&sha256(p)),
                None => false,
            },
        }
    }
}

/// A message the steward is still waiting on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingMessage {
    /// The unacknowledged message.
    pub msg: MsgId,
    /// Its destination (the host that should acknowledge).
    pub dest: Id,
    /// One-based number of the send attempt due (or made) at
    /// [`PendingMessage::next_send`].
    pub attempt: u32,
    /// When the next retransmission is due — or, once attempts are
    /// exhausted, when the final timeout expires.
    pub next_send: SimTime,
}

/// Tracks in-flight messages and drives retransmit-before-judging.
///
/// The steward registers each send ([`RetransmitQueue::on_send`]),
/// removes entries as acknowledgments arrive
/// ([`RetransmitQueue::on_ack`]), retransmits whatever
/// [`RetransmitQueue::due`] hands back, and judges only the messages
/// [`RetransmitQueue::expired`] declares dropped: every attempt was made
/// and the last one's timeout has passed. With ack-transport loss `p`
/// and `k` attempts, the residual false-drop probability is `p^k`.
///
/// # Examples
///
/// ```
/// use concilium::ack::RetransmitQueue;
/// use concilium::retry::RetryPolicy;
/// use concilium_types::{Id, MsgId, SimTime};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let policy = RetryPolicy { jitter: 0.0, ..RetryPolicy::default() };
/// let mut q = RetransmitQueue::new(policy);
/// q.on_send(MsgId(1), Id::from_u64(9), SimTime::from_secs(10), &mut rng);
/// // No ack within the 500 ms timeout: the second attempt is due.
/// let due = q.due(SimTime::from_secs(11));
/// assert_eq!(due.len(), 1);
/// assert_eq!(due[0].attempt, 2);
/// ```
#[derive(Clone, Debug)]
pub struct RetransmitQueue {
    policy: RetryPolicy,
    pending: Vec<PendingMessage>,
    /// Remaining scheduled attempt times per pending entry (parallel to
    /// `pending`, earliest first, the entry's `next_send` already popped).
    schedules: Vec<Vec<SimTime>>,
    /// Exact minimum of `next_send` over `pending` (`None` when empty),
    /// maintained on every mutation. Event-driven simulations call
    /// [`RetransmitQueue::due`], [`RetransmitQueue::expired`], and
    /// [`RetransmitQueue::next_event_time`] after *every* popped event;
    /// the cache turns those three full scans into O(1) comparisons
    /// whenever nothing is due yet, which is almost always.
    earliest: Option<SimTime>,
    attempts_fired: u64,
    backoff_total: SimDuration,
}

impl RetransmitQueue {
    /// An empty queue driven by `policy`.
    pub fn new(policy: RetryPolicy) -> Self {
        RetransmitQueue {
            policy,
            pending: Vec::new(),
            schedules: Vec::new(),
            earliest: None,
            attempts_fired: 0,
            backoff_total: SimDuration::ZERO,
        }
    }

    /// Recomputes the cached minimum after a mutation that may have
    /// removed or advanced the earliest entry.
    fn refresh_earliest(&mut self) {
        self.earliest = self.pending.iter().map(|p| p.next_send).min();
    }

    /// Registers a freshly sent message. The whole attempt schedule is
    /// drawn from `rng` up front, so event-driven and poll-driven callers
    /// consume identical RNG state.
    pub fn on_send<R: rand::Rng + ?Sized>(
        &mut self,
        msg: MsgId,
        dest: Id,
        sent_at: SimTime,
        rng: &mut R,
    ) {
        let mut times = self.policy.attempt_times(sent_at, rng);
        // The first attempt is the send that just happened; what remains
        // is the retransmission schedule plus the final timeout.
        times.remove(0);
        let timeout = self.policy.backoff_delay(self.policy.max_attempts.saturating_sub(1), rng);
        let last = *times.last().unwrap_or(&sent_at);
        times.push(last + timeout);
        let next_send = times.remove(0);
        self.earliest = Some(self.earliest.map_or(next_send, |e| e.min(next_send)));
        self.pending.push(PendingMessage { msg, dest, attempt: 2, next_send });
        self.schedules.push(times);
    }

    /// Processes an acknowledgment: every pending message from `ack`'s
    /// issuer that the ack covers is settled and removed. Pass the
    /// message payload when hash acknowledgments are in use. Returns how
    /// many messages the ack settled.
    pub fn on_ack(&mut self, ack: &Ack, payload: Option<&[u8]>) -> usize {
        let mut settled = 0;
        let mut i = 0;
        while i < self.pending.len() {
            let p = &self.pending[i];
            if p.dest == ack.from() && ack.covers(p.msg, payload) {
                self.pending.swap_remove(i);
                self.schedules.swap_remove(i);
                settled += 1;
            } else {
                i += 1;
            }
        }
        if settled > 0 {
            self.refresh_earliest();
        }
        settled
    }

    /// Messages whose retransmission is due at `now`. Each returned entry
    /// has already been advanced to its next attempt; the caller's only
    /// job is to resend. Entries on their final timeout are *not*
    /// returned here — they surface via [`RetransmitQueue::expired`].
    pub fn due(&mut self, now: SimTime) -> Vec<PendingMessage> {
        let mut out = Vec::new();
        // An entry can fire only if its `next_send` has passed, so the
        // cached minimum rules out the whole scan in one comparison.
        if self.earliest.is_none_or(|e| e > now) {
            return out;
        }
        for (p, schedule) in self.pending.iter_mut().zip(&mut self.schedules) {
            while p.attempt <= self.policy.max_attempts && p.next_send <= now {
                out.push(p.clone());
                let fired_at = p.next_send;
                p.attempt += 1;
                p.next_send = schedule.remove(0);
                self.attempts_fired += 1;
                self.backoff_total = self.backoff_total + (p.next_send - fired_at);
            }
        }
        self.refresh_earliest();
        out
    }

    /// Messages whose every attempt went unacknowledged and whose final
    /// timeout has passed: removed from the queue and handed to the
    /// caller for judgment.
    pub fn expired(&mut self, now: SimTime) -> Vec<PendingMessage> {
        let mut out = Vec::new();
        // Expiry requires a passed `next_send` (the final timeout), so the
        // cached minimum short-circuits the scan exactly like `due`.
        if self.earliest.is_none_or(|e| e > now) {
            return out;
        }
        let mut i = 0;
        while i < self.pending.len() {
            let p = &self.pending[i];
            if p.attempt > self.policy.max_attempts && p.next_send <= now {
                out.push(self.pending.swap_remove(i));
                self.schedules.swap_remove(i);
            } else {
                i += 1;
            }
        }
        if !out.is_empty() {
            self.refresh_earliest();
        }
        out
    }

    /// Messages still awaiting acknowledgment.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The earliest upcoming retransmission or final timeout across all
    /// pending entries — `None` when nothing is in flight. Event-driven
    /// callers schedule their next poll here instead of ticking.
    pub fn next_event_time(&self) -> Option<SimTime> {
        debug_assert_eq!(self.earliest, self.pending.iter().map(|p| p.next_send).min());
        self.earliest
    }

    /// Retransmission attempts handed out by [`RetransmitQueue::due`]
    /// over the queue's lifetime. Virtual-time bookkeeping, safe for
    /// deterministic per-episode metrics.
    pub fn attempts_fired(&self) -> u64 {
        self.attempts_fired
    }

    /// Total backoff scheduled after fired attempts: the sum, over every
    /// attempt [`RetransmitQueue::due`] returned, of the delay until that
    /// entry's next attempt (or final timeout).
    pub fn backoff_total(&self) -> SimDuration {
        self.backoff_total
    }
}

impl Signable for Ack {
    fn signable_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"ack");
        out.extend_from_slice(self.from.as_bytes());
        out.extend_from_slice(self.to.as_bytes());
        out.extend_from_slice(&self.time.as_micros().to_be_bytes());
        match &self.body {
            AckBody::Single(m) => {
                out.push(0);
                out.extend_from_slice(&m.0.to_be_bytes());
            }
            AckBody::Counter { received, window } => {
                out.push(1);
                out.extend_from_slice(&received.to_be_bytes());
                out.extend_from_slice(&window.to_be_bytes());
            }
            AckBody::Hashes(digests) => {
                out.push(2);
                out.extend_from_slice(&(digests.len() as u64).to_be_bytes());
                for d in digests {
                    out.extend_from_slice(d.as_bytes());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys() -> (KeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(141);
        (KeyPair::generate(&mut rng), rng)
    }

    #[test]
    fn single_ack_round_trip() {
        let (z, mut rng) = keys();
        let ack = Ack::issue(
            Id::from_u64(9),
            Id::from_u64(1),
            AckBody::Single(MsgId(4)),
            SimTime::from_secs(10),
            &z,
            &mut rng,
        );
        assert!(ack.verify(&z.public()));
        assert!(ack.covers(MsgId(4), None));
        assert!(!ack.covers(MsgId(5), None));
    }

    #[test]
    fn counter_ack_carries_loss_rate() {
        let (z, mut rng) = keys();
        let ack = Ack::issue(
            Id::from_u64(9),
            Id::from_u64(1),
            AckBody::Counter { received: 93, window: 100 },
            SimTime::from_secs(10),
            &z,
            &mut rng,
        );
        assert!(ack.verify(&z.public()));
        assert_eq!(ack.body, AckBody::Counter { received: 93, window: 100 });
        assert!(!ack.covers(MsgId(1), None), "counters cannot attest specifics");
    }

    #[test]
    fn hash_ack_identifies_specific_messages() {
        let (z, mut rng) = keys();
        let received: [&[u8]; 2] = [b"payload-1", b"payload-3"];
        let ack = Ack::issue(
            Id::from_u64(9),
            Id::from_u64(1),
            AckBody::Hashes(received.iter().map(|p| sha256(p)).collect()),
            SimTime::from_secs(10),
            &z,
            &mut rng,
        );
        assert!(ack.verify(&z.public()));
        assert!(ack.covers(MsgId(1), Some(b"payload-1")));
        assert!(ack.covers(MsgId(3), Some(b"payload-3")));
        assert!(!ack.covers(MsgId(2), Some(b"payload-2")));
        assert!(!ack.covers(MsgId(1), None));
    }

    #[test]
    fn tampered_ack_rejected() {
        let (z, mut rng) = keys();
        let ack = Ack::issue(
            Id::from_u64(9),
            Id::from_u64(1),
            AckBody::Counter { received: 93, window: 100 },
            SimTime::from_secs(10),
            &z,
            &mut rng,
        );
        // An attacker inflating the received counter breaks the signature.
        let mut forged = ack.clone();
        forged.body = AckBody::Counter { received: 100, window: 100 };
        assert!(!forged.verify(&z.public()));
        // Redirecting it to a different steward also breaks it.
        let mut redirected = ack;
        redirected.to = Id::from_u64(2);
        assert!(!redirected.verify(&z.public()));
    }

    #[test]
    fn retransmit_queue_settles_on_ack() {
        let (z, mut rng) = keys();
        let mut q = RetransmitQueue::new(crate::retry::RetryPolicy::default());
        let dest = Id::from_u64(9);
        q.on_send(MsgId(1), dest, SimTime::from_secs(10), &mut rng);
        q.on_send(MsgId(2), dest, SimTime::from_secs(11), &mut rng);
        assert_eq!(q.pending(), 2);
        let ack = Ack::issue(
            dest,
            Id::from_u64(1),
            AckBody::Single(MsgId(1)),
            SimTime::from_secs(12),
            &z,
            &mut rng,
        );
        assert_eq!(q.on_ack(&ack, None), 1);
        assert_eq!(q.pending(), 1);
        // The settled message is never retransmitted or expired.
        let late = SimTime::from_secs(1_000);
        assert!(q.due(late).iter().all(|p| p.msg == MsgId(2)));
        assert!(q.expired(late).iter().all(|p| p.msg == MsgId(2)));
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn retransmit_queue_walks_the_backoff_schedule() {
        let (_, mut rng) = keys();
        let policy = crate::retry::RetryPolicy {
            jitter: 0.0,
            base_delay: concilium_types::SimDuration::from_secs(1),
            multiplier: 2.0,
            max_attempts: 3,
            ..Default::default()
        };
        let mut q = RetransmitQueue::new(policy);
        q.on_send(MsgId(7), Id::from_u64(9), SimTime::from_secs(100), &mut rng);
        // Retries at +1 s and +3 s, final timeout at +3 s + 4 s = +7 s.
        assert!(q.due(SimTime::from_secs(100)).is_empty());
        let first = q.due(SimTime::from_secs(101));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].attempt, 2);
        let second = q.due(SimTime::from_secs(103));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].attempt, 3);
        assert!(q.due(SimTime::from_secs(1_000)).is_empty(), "attempts exhausted");
        assert!(q.expired(SimTime::from_secs(106)).is_empty(), "timeout still running");
        let dropped = q.expired(SimTime::from_secs(107));
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].msg, MsgId(7));
        assert_eq!(q.pending(), 0);
        // Two attempts fired; the backoff after them was (103-101) + (107-103).
        assert_eq!(q.attempts_fired(), 2);
        assert_eq!(q.backoff_total(), concilium_types::SimDuration::from_secs(6));
    }

    #[test]
    fn disabled_policy_never_retransmits_but_still_times_out() {
        let (_, mut rng) = keys();
        let mut q = RetransmitQueue::new(crate::retry::RetryPolicy::disabled());
        q.on_send(MsgId(3), Id::from_u64(9), SimTime::from_secs(50), &mut rng);
        assert!(q.due(SimTime::from_secs(1_000)).is_empty());
        assert_eq!(q.expired(SimTime::from_secs(1_000)).len(), 1);
    }

    #[test]
    fn hash_acks_settle_pending_messages_by_payload() {
        let (z, mut rng) = keys();
        let mut q = RetransmitQueue::new(crate::retry::RetryPolicy::default());
        let dest = Id::from_u64(9);
        q.on_send(MsgId(1), dest, SimTime::from_secs(10), &mut rng);
        let ack = Ack::issue(
            dest,
            Id::from_u64(1),
            AckBody::Hashes(vec![sha256(b"payload-1")]),
            SimTime::from_secs(12),
            &z,
            &mut rng,
        );
        assert_eq!(q.on_ack(&ack, Some(b"payload-2")), 0, "wrong payload");
        assert_eq!(q.on_ack(&ack, Some(b"payload-1")), 1);
    }

    #[test]
    fn ack_racing_a_retransmit_settles_exactly_once() {
        // The ack for attempt 1 arrives *after* the retransmission of
        // attempt 2 has already been handed out by `due`. The entry must
        // settle exactly once, never reappear in `due`, and never be
        // judged via `expired`.
        let (z, mut rng) = keys();
        let policy = crate::retry::RetryPolicy {
            jitter: 0.0,
            base_delay: concilium_types::SimDuration::from_secs(1),
            multiplier: 2.0,
            max_attempts: 3,
            ..Default::default()
        };
        let mut q = RetransmitQueue::new(policy);
        let dest = Id::from_u64(9);
        q.on_send(MsgId(7), dest, SimTime::from_secs(100), &mut rng);
        // Retransmit fires at +1 s...
        let due = q.due(SimTime::from_secs(101));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].attempt, 2);
        // ...and the (slow) ack for the original send lands just after.
        let ack = Ack::issue(
            dest,
            Id::from_u64(1),
            AckBody::Single(MsgId(7)),
            SimTime::from_secs(101),
            &z,
            &mut rng,
        );
        assert_eq!(q.on_ack(&ack, None), 1);
        assert_eq!(q.pending(), 0);
        assert_eq!(q.next_event_time(), None);
        // A duplicate ack (the retransmit was also answered) is a no-op.
        assert_eq!(q.on_ack(&ack, None), 0, "nothing left to settle twice");
        let late = SimTime::from_secs(1_000);
        assert!(q.due(late).is_empty());
        assert!(q.expired(late).is_empty(), "a settled message is never judged");
    }

    #[test]
    fn inspection_accessors_expose_inflight_state() {
        let (_, mut rng) = keys();
        let policy = crate::retry::RetryPolicy {
            jitter: 0.0,
            base_delay: concilium_types::SimDuration::from_secs(1),
            multiplier: 2.0,
            max_attempts: 3,
            ..Default::default()
        };
        let mut q = RetransmitQueue::new(policy);
        assert_eq!(q.next_event_time(), None);
        q.on_send(MsgId(1), Id::from_u64(9), SimTime::from_secs(10), &mut rng);
        q.on_send(MsgId(2), Id::from_u64(8), SimTime::from_secs(20), &mut rng);
        assert_eq!(q.pending.len(), 2);
        assert!(q.pending.iter().any(|p| p.msg == MsgId(1) && p.dest == Id::from_u64(9)));
        // Earliest retransmission across both entries: msg 1 at +1 s.
        assert_eq!(q.next_event_time(), Some(SimTime::from_secs(11)));
        let _ = q.due(SimTime::from_secs(11));
        // Msg 1 advanced to its next attempt at +3 s; msg 2 still at +1 s.
        assert_eq!(q.next_event_time(), Some(SimTime::from_secs(13)));
    }
}
