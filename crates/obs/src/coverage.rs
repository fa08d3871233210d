//! Coverage signal for the scenario fuzzer.
//!
//! A DST episode's *coverage* is the set of behavioural features its trace
//! and metrics exercised, reduced to stable `u64` bucket identifiers:
//!
//! * **Event-kind bigrams** — consecutive pairs of trace-event kinds
//!   (`TraceEvent::kind_code`), capturing orderings like
//!   "retry → expire" vs "retry → ack" that single-event counts miss.
//! * **Bucketed counters** — every metrics counter, log2-bucketed, so
//!   "some retries" and "a retry storm" are different features while raw
//!   counts don't fragment the space.
//! * **Verdict-window shapes** — the `(guilty, len)` occupancy a verdict
//!   push left behind, the m-of-w escalation geometry.
//! * **Fault/shed taxonomies** — which typed fault kinds and shed reasons
//!   appeared at all.
//!
//! Buckets are hashed with a fixed FNV-1a so identifiers are stable across
//! Rust versions and platforms (unlike `DefaultHasher`), making committed
//! corpora meaningful forever. A [`CoverageSet`] is a plain
//! [`BTreeSet<u64>`] wrapper: deterministic iteration, cheap set algebra.

use std::collections::BTreeSet;

use crate::event::{Traced, TraceEvent};
use crate::metrics::{Metric, Registry};

/// 64-bit FNV-1a over a byte string — tiny, portable, stable.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes a feature tag plus its numeric payload into one bucket id.
fn bucket(tag: &str, payload: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(tag.len() + 1 + payload.len() * 8);
    bytes.extend_from_slice(tag.as_bytes());
    bytes.push(0);
    for v in payload {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// The log2 bucket of a count: 0 → 0, otherwise `1 + floor(log2 n)`, so
/// {0}, {1}, {2,3}, {4..7}, … are distinct features.
fn log2_bucket(n: u64) -> u64 {
    if n == 0 {
        0
    } else {
        64 - u64::from(n.leading_zeros())
    }
}

/// A set of exercised coverage buckets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoverageSet {
    buckets: BTreeSet<u64>,
}

impl CoverageSet {
    /// The empty coverage set.
    pub fn new() -> Self {
        CoverageSet::default()
    }

    /// Number of distinct buckets exercised.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether no bucket has been exercised.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Whether `bucket` has been exercised.
    pub fn contains(&self, bucket: u64) -> bool {
        self.buckets.contains(&bucket)
    }

    /// Buckets in `self` missing from `other`, in sorted order.
    pub fn difference(&self, other: &CoverageSet) -> Vec<u64> {
        self.buckets.difference(&other.buckets).copied().collect()
    }

    /// Number of buckets `other` would add to `self`.
    pub fn novelty_of(&self, other: &CoverageSet) -> usize {
        other.buckets.difference(&self.buckets).count()
    }

    /// Merges another set in, returning how many buckets were new.
    pub fn absorb(&mut self, other: &CoverageSet) -> usize {
        let mut added = 0;
        for &b in &other.buckets {
            if self.buckets.insert(b) {
                added += 1;
            }
        }
        added
    }

    /// Extracts features from an episode trace: kind bigrams, verdict
    /// window shapes, fault kinds, shed reasons, and revision outcomes.
    pub fn absorb_trace<'a, I: IntoIterator<Item = &'a Traced>>(&mut self, events: I) {
        let mut prev: Option<u64> = None;
        for traced in events {
            let code = traced.event.kind_code();
            self.buckets.insert(bucket("kind", &[code]));
            if let Some(p) = prev {
                self.buckets.insert(bucket("bigram", &[p, code]));
            }
            prev = Some(code);
            match &traced.event {
                TraceEvent::VerdictAccumulated { guilty, window_guilty, window_len, .. } => {
                    self.buckets.insert(bucket(
                        "verdict-shape",
                        &[u64::from(*guilty), *window_guilty, *window_len],
                    ));
                }
                TraceEvent::FaultInjected { kind, .. } => {
                    self.buckets.insert(bucket("fault-kind", &[kind.code()]));
                }
                TraceEvent::LoadShed { reason, .. } => {
                    self.buckets.insert(bucket("shed-reason", &[reason.code()]));
                }
                TraceEvent::AccusationRevised { amended, .. } => {
                    self.buckets.insert(bucket("revise-amended", &[u64::from(*amended)]));
                }
                TraceEvent::RetryFired { attempt, .. } => {
                    self.buckets.insert(bucket("retry-attempt", &[*attempt]));
                }
                TraceEvent::RouteOutcome { received_upto, delivered, .. } => {
                    self.buckets.insert(bucket(
                        "outcome-shape",
                        &[log2_bucket(*received_upto), u64::from(*delivered)],
                    ));
                }
                _ => {}
            }
        }
    }

    /// Extracts features from an episode's metrics registry: every counter
    /// key at its log2-bucketed magnitude. Gauges and histograms are
    /// skipped — counters are the invariant-branch tallies the fuzzer
    /// wants (sheds, retries, revisions, escalations, …).
    pub fn absorb_metrics(&mut self, registry: &Registry) {
        for (key, metric) in registry.iter() {
            if let Metric::Counter(n) = metric {
                self.buckets.insert(bucket(key, &[log2_bucket(*n)]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultKind;

    fn traced(event: TraceEvent) -> Traced {
        Traced { at_micros: 0, event }
    }

    #[test]
    fn log2_buckets_separate_magnitudes() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(7), 3);
        assert_eq!(log2_bucket(8), 4);
        assert_eq!(log2_bucket(u64::MAX), 64);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned value: committed corpora depend on this never changing.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn bigrams_capture_order() {
        let mut ab = CoverageSet::new();
        ab.absorb_trace(&[
            traced(TraceEvent::MessageSent { msg: 0, flow: 0 }),
            traced(TraceEvent::AckReceived { msg: 0 }),
        ]);
        let mut ba = CoverageSet::new();
        ba.absorb_trace(&[
            traced(TraceEvent::AckReceived { msg: 0 }),
            traced(TraceEvent::MessageSent { msg: 0, flow: 0 }),
        ]);
        // Same kinds, opposite order → different bigram buckets.
        assert_ne!(ab, ba);
        assert_eq!(ab.novelty_of(&ba), 1);
    }

    #[test]
    fn verdict_shapes_and_fault_kinds_are_features() {
        let mut c = CoverageSet::new();
        c.absorb_trace(&[
            traced(TraceEvent::VerdictAccumulated {
                judge: 1,
                accused: 2,
                guilty: true,
                window_guilty: 3,
                window_len: 5,
            }),
            traced(TraceEvent::FaultInjected { msg: 0, kind: FaultKind::HostDrop }),
        ]);
        let before = c.len();
        // Re-absorbing the same events adds nothing.
        c.absorb_trace(&[
            traced(TraceEvent::VerdictAccumulated {
                judge: 9,
                accused: 8,
                guilty: true,
                window_guilty: 3,
                window_len: 5,
            }),
        ]);
        assert_eq!(c.len(), before);
        // A different window shape is a new feature.
        c.absorb_trace(&[
            traced(TraceEvent::VerdictAccumulated {
                judge: 1,
                accused: 2,
                guilty: true,
                window_guilty: 4,
                window_len: 5,
            }),
        ]);
        assert!(c.len() > before);
    }

    #[test]
    fn metrics_counters_bucket_by_magnitude() {
        let mut r = Registry::new();
        r.inc("episode.retries", 3);
        let mut a = CoverageSet::new();
        a.absorb_metrics(&r);
        // 3 and 2 share a log2 bucket; 40 does not.
        let mut r2 = Registry::new();
        r2.inc("episode.retries", 2);
        let mut b = CoverageSet::new();
        b.absorb_metrics(&r2);
        assert_eq!(a, b);
        let mut r3 = Registry::new();
        r3.inc("episode.retries", 40);
        let mut c = CoverageSet::new();
        c.absorb_metrics(&r3);
        assert_ne!(a, c);
    }

    #[test]
    fn set_algebra_is_consistent() {
        let mut a = CoverageSet { buckets: [1, 2].into() };
        let b = CoverageSet { buckets: [2, 3].into() };
        assert_eq!(a.novelty_of(&b), 1);
        assert_eq!(b.difference(&a), vec![3]);
        assert_eq!(a.absorb(&b), 1);
        assert_eq!(a.novelty_of(&b), 0);
        assert_eq!(a.len(), 3);
        assert!(a.contains(3));
        assert!(!a.is_empty());
        assert_eq!(a.buckets.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
    }
}
