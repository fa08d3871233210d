//! Thread-local memoization of Schnorr signature verification.
//!
//! Concilium re-verifies the same signed artifacts many times: every link of
//! a commitment chain is checked by the judge *and* by each consulted peer,
//! snapshots refetched from the accusation DHT are re-verified on arrival,
//! and the DST explorer replays identical episodes across invariant checks.
//! Verification dominated by two modular exponentiations is the single
//! hottest crypto path in the workspace, and its outcome is a pure function
//! of `(public key, message, signature)`.
//!
//! [`verify_cached`] caches that function. The cache key uses the **full**
//! SHA-256 digest of the message (not a truncated hash), so a cache hit can
//! only ever be returned for a byte-identical message: the memo provably
//! never changes a verification outcome, it only skips recomputing one.
//!
//! The cache is thread-local and bounded (FIFO eviction at
//! `MEMO_CAPACITY` entries). Thread-locality keeps the fast path free of
//! locks and — together with the determinism contract of `concilium-par` —
//! means parallel workers each see their own cache, so caching cannot
//! introduce cross-thread nondeterminism.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};

use crate::schnorr::{PublicKey, Signature};
use crate::sha256::sha256;

/// Maximum number of memoized verification outcomes per thread.
pub(crate) const MEMO_CAPACITY: usize = 8192;

/// Cache key: the verify inputs, with the message collapsed to its full
/// SHA-256 digest so keys are fixed-size without losing injectivity (up to
/// SHA-256 collisions, which the rest of the workspace already assumes away).
type Key = (u64, [u8; 32], u64, u64);

struct Memo {
    map: HashMap<Key, bool>,
    order: VecDeque<Key>,
    stats: MemoStats,
}

impl Memo {
    fn new() -> Self {
        Memo {
            map: HashMap::new(),
            order: VecDeque::new(),
            stats: MemoStats::default(),
        }
    }
}

/// Counters for one thread's verification memo.
///
/// These are *thread*-local and therefore depend on how work was scheduled
/// across workers: report them for capacity tuning, but never fold them
/// into trace digests or deterministic metric registries (DESIGN.md §12).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the real verification.
    pub misses: u64,
    /// Entries discarded by FIFO eviction at `MEMO_CAPACITY`.
    pub evictions: u64,
}

thread_local! {
    static MEMO: RefCell<Memo> = RefCell::new(Memo::new());
}

/// Verifies `sig` over `msg` under `key`, memoizing the outcome.
///
/// Semantically identical to [`PublicKey::verify`] — same result for every
/// input, including tampered messages, wrong keys, and malformed signatures —
/// but repeated verification of the same `(key, msg, sig)` triple on the same
/// thread costs one hash and one map lookup instead of two modular
/// exponentiations.
pub fn verify_cached(key: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
    let memo_key: Key = (
        key.element(),
        sha256(msg).0,
        sig.challenge_scalar(),
        sig.response_scalar(),
    );
    MEMO.with(|cell| {
        let mut memo = cell.borrow_mut();
        if let Some(&outcome) = memo.map.get(&memo_key) {
            memo.stats.hits += 1;
            return outcome;
        }
        memo.stats.misses += 1;
        let outcome = {
            let _span = concilium_obs::span("sig.verify");
            key.verify(msg, sig)
        };
        if memo.map.len() >= MEMO_CAPACITY {
            if let Some(oldest) = memo.order.pop_front() {
                memo.map.remove(&oldest);
                memo.stats.evictions += 1;
            }
        }
        memo.map.insert(memo_key, outcome);
        memo.order.push_back(memo_key);
        outcome
    })
}

/// Hit/miss counters for this thread's memo, as `(hits, misses)`.
pub fn memo_stats() -> (u64, u64) {
    let s = memo_stats_full();
    (s.hits, s.misses)
}

/// All counters for this thread's memo, including evictions.
pub fn memo_stats_full() -> MemoStats {
    MEMO.with(|cell| cell.borrow().stats)
}

/// Clears this thread's memo and resets its counters. Intended for tests.
pub fn memo_reset() {
    MEMO.with(|cell| *cell.borrow_mut() = Memo::new());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hit_and_miss_counts_track_lookups() {
        memo_reset();
        let mut rng = StdRng::seed_from_u64(100);
        let kp = KeyPair::generate(&mut rng);
        let sig = kp.sign(b"counted", &mut rng);

        assert!(verify_cached(&kp.public(), b"counted", &sig));
        assert_eq!(memo_stats(), (0, 1));
        assert!(verify_cached(&kp.public(), b"counted", &sig));
        assert!(verify_cached(&kp.public(), b"counted", &sig));
        assert_eq!(memo_stats(), (2, 1));

        // A different message is a fresh miss, cached independently.
        assert!(!verify_cached(&kp.public(), b"other", &sig));
        assert_eq!(memo_stats(), (2, 2));
        assert!(!verify_cached(&kp.public(), b"other", &sig));
        assert_eq!(memo_stats(), (3, 2));
    }

    #[test]
    fn cache_never_changes_verify_outcome() {
        memo_reset();
        let mut rng = StdRng::seed_from_u64(101);
        let kp = KeyPair::generate(&mut rng);
        let other = KeyPair::generate(&mut rng);
        let sig = kp.sign(b"payload", &mut rng);

        let cases: Vec<(PublicKey, &[u8], Signature)> = vec![
            (kp.public(), b"payload", sig),
            (kp.public(), b"tampered", sig),
            (other.public(), b"payload", sig),
            (kp.public(), b"payload", Signature::dummy()),
        ];
        for (pk, msg, s) in &cases {
            let plain = pk.verify(msg, s);
            // First call populates, second call answers from cache; both must
            // agree with the uncached path.
            assert_eq!(verify_cached(pk, msg, s), plain);
            assert_eq!(verify_cached(pk, msg, s), plain);
        }
    }

    /// Number of entries currently cached on this thread.
    fn memo_len() -> usize {
        MEMO.with(|cell| cell.borrow().map.len())
    }

    #[test]
    fn eviction_bounds_cache_size_fifo() {
        memo_reset();
        let mut rng = StdRng::seed_from_u64(102);
        let kp = KeyPair::generate(&mut rng);
        let sig = kp.sign(b"base", &mut rng);

        // Fill past capacity with distinct messages.
        let overflow = 64;
        for i in 0..MEMO_CAPACITY + overflow {
            let msg = format!("msg-{i}");
            verify_cached(&kp.public(), msg.as_bytes(), &sig);
        }
        assert_eq!(memo_len(), MEMO_CAPACITY);

        // The oldest `overflow` entries were evicted: re-querying msg-0 is a
        // miss again, while the newest entry is a hit.
        let (_, misses_before) = memo_stats();
        verify_cached(&kp.public(), b"msg-0", &sig);
        let (_, misses_after) = memo_stats();
        assert_eq!(misses_after, misses_before + 1, "oldest entry was evicted");

        let (hits_before, _) = memo_stats();
        let newest = format!("msg-{}", MEMO_CAPACITY + overflow - 1);
        verify_cached(&kp.public(), newest.as_bytes(), &sig);
        let (hits_after, _) = memo_stats();
        assert_eq!(hits_after, hits_before + 1, "newest entry is still cached");

        // `overflow` inserts past capacity plus the re-queried msg-0 each
        // displaced one FIFO-oldest entry.
        assert_eq!(memo_stats_full().evictions, overflow as u64 + 1);

        memo_reset();
        assert_eq!(memo_len(), 0);
        assert_eq!(memo_stats(), (0, 0));
        assert_eq!(memo_stats_full(), MemoStats::default());
    }
}
