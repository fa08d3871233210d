//! The accusation repository: a DHT atop the secure overlay (§3.4).
//!
//! Formal accusations are inserted under the accused host's public key so
//! that any host considering a new routing peer can first retrieve and
//! independently verify outstanding accusations against it. Inserts and
//! fetches are replicated over the nodes whose identifiers are closest to
//! the key (secure routing makes reaching those replicas reliable); this
//! module models the replica placement and per-node stores directly.

use std::collections::HashMap;
use std::fmt;

use concilium_crypto::{sha256, PublicKey};
use concilium_types::Id;

use crate::accusation::Accusation;
use crate::retry::RetryPolicy;

/// Why a replicated DHT operation failed despite retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DhtError {
    /// Too few replicas stored the accusation for it to be durable.
    QuorumNotReached {
        /// Replicas that stored it.
        stored: usize,
        /// The write quorum required.
        quorum: usize,
    },
    /// The replica set itself is degraded: the membership holds fewer
    /// replicas for the key than the write quorum requires, so no amount
    /// of retrying can succeed. Returned *before* any transport attempt
    /// is made.
    DegradedReplicaSet {
        /// Replicas for the key.
        live: usize,
        /// The write quorum that cannot be met.
        quorum: usize,
    },
}

impl fmt::Display for DhtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DhtError::QuorumNotReached { stored, quorum } => {
                write!(f, "only {stored} replicas stored the accusation, quorum is {quorum}")
            }
            DhtError::DegradedReplicaSet { live, quorum } => {
                write!(f, "replica set degraded: {live} live replicas cannot meet quorum {quorum}")
            }
        }
    }
}

impl std::error::Error for DhtError {}

/// The accusation store, replicated over overlay members.
///
/// # Examples
///
/// ```
/// use concilium::dht::AccusationDht;
/// use concilium_types::Id;
///
/// let members: Vec<Id> = (0..16).map(|i| Id::from_u64(i * 1000)).collect();
/// let dht = AccusationDht::new(members, 4);
/// assert_eq!(dht.replicas(Id::from_u64(2_100)).len(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct AccusationDht {
    members: Vec<Id>,
    replication: usize,
    stores: HashMap<Id, Vec<Accusation>>,
}

impl AccusationDht {
    /// Creates a DHT over the given membership with a replication factor.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or `replication` is zero.
    pub fn new(mut members: Vec<Id>, replication: usize) -> Self {
        assert!(!members.is_empty(), "a DHT needs members");
        assert!(replication > 0, "replication must be positive");
        members.sort();
        members.dedup();
        AccusationDht {
            members,
            replication,
            stores: HashMap::new(),
        }
    }

    /// The DHT key for accusations against the holder of `pk`: the hash of
    /// the public key mapped into the identifier space.
    pub(crate) fn key_for(pk: &PublicKey) -> Id {
        let digest = sha256(&pk.to_bytes());
        let mut bytes = [0u8; 20];
        bytes.copy_from_slice(&digest.as_bytes()[..20]);
        Id::from_bytes(bytes)
    }

    /// The member identifiers responsible for `key`: the `replication`
    /// members closest on the ring.
    pub fn replicas(&self, key: Id) -> Vec<Id> {
        let mut members = self.members.clone();
        members.sort_by_key(|m| m.ring_distance(&key));
        members.truncate(self.replication);
        members
    }

    /// Inserts an accusation under the accused's public key, returning
    /// the number of replicas that actually stored it.
    pub fn insert(&mut self, accused_pk: &PublicKey, accusation: Accusation) -> usize {
        let key = Self::key_for(accused_pk);
        let mut stored = 0;
        for replica in self.replicas(key) {
            let store = self.stores.entry(replica).or_default();
            // Deduplicate by (accuser, msg): re-inserts are idempotent.
            let dup = store.iter().any(|a| {
                a.accuser() == accusation.accuser() && a.context().msg == accusation.context().msg
            });
            if !dup {
                store.push(accusation.clone());
            }
            stored += 1;
        }
        stored
    }

    /// Fetches all accusations stored under the accused's public key,
    /// deduplicated across replicas. Callers must verify each accusation
    /// themselves ([`Accusation::verify`]) before acting on it.
    pub fn fetch(&self, accused_pk: &PublicKey) -> Vec<&Accusation> {
        let key = Self::key_for(accused_pk);
        let mut seen: Vec<(Id, u64)> = Vec::new();
        let mut out = Vec::new();
        for replica in self.replicas(key) {
            if let Some(store) = self.stores.get(&replica) {
                for a in store {
                    let sig = (a.accuser(), a.context().msg.0);
                    if !seen.contains(&sig) {
                        seen.push(sig);
                        out.push(a);
                    }
                }
            }
        }
        out
    }

    /// The write quorum: a majority of the replica set.
    pub fn write_quorum(&self) -> usize {
        self.replication / 2 + 1
    }

    /// Inserts with per-replica retries over a lossy transport. `reaches`
    /// models the network: called as `reaches(replica, attempt)` (attempt
    /// is one-based) and returns whether the put message arrived — the
    /// fault-injection harness plugs
    /// [`ack_arrives`-style draws](RetryPolicy) in here. Each unreachable
    /// replica is retried on `policy`'s schedule.
    ///
    /// # Errors
    ///
    /// Returns [`DhtError::DegradedReplicaSet`] — *without spending any
    /// transport attempt* — when fewer replicas exist than the write
    /// quorum: retrying cannot manufacture replicas, so the caller learns
    /// immediately that the store is degraded. Returns
    /// [`DhtError::QuorumNotReached`] when enough replicas existed but too
    /// few were reachable after all retries; the copies that did
    /// land remain stored (and fetchable): that error tells the accuser
    /// to re-publish later, not that the write vanished.
    pub fn insert_with_retry<R, F>(
        &mut self,
        accused_pk: &PublicKey,
        accusation: Accusation,
        policy: &RetryPolicy,
        mut reaches: F,
        rng: &mut R,
    ) -> Result<usize, DhtError>
    where
        R: rand::Rng + ?Sized,
        F: FnMut(Id, u32) -> bool,
    {
        let key = Self::key_for(accused_pk);
        let quorum = self.write_quorum();
        let replicas = self.replicas(key);
        let live = replicas.len();
        if live < quorum {
            return Err(DhtError::DegradedReplicaSet { live, quorum });
        }
        let mut stored = 0;
        for replica in replicas {
            let reached = policy
                .run(rng, |attempt| if reaches(replica, attempt) { Ok(()) } else { Err(()) })
                .is_ok();
            if !reached {
                continue;
            }
            let store = self.stores.entry(replica).or_default();
            let dup = store.iter().any(|a| {
                a.accuser() == accusation.accuser() && a.context().msg == accusation.context().msg
            });
            if !dup {
                store.push(accusation.clone());
            }
            stored += 1;
        }
        if stored >= quorum {
            Ok(stored)
        } else {
            Err(DhtError::QuorumNotReached { stored, quorum })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accusation::DropContext;
    use crate::commitment::ForwardingCommitment;
    use crate::config::ConciliumConfig;
    use concilium_crypto::KeyPair;
    use concilium_types::{MsgId, SimTime};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn members(n: u64) -> Vec<Id> {
        (0..n).map(|i| Id::from_u64(i * 1_000)).collect()
    }

    fn accusation(rng: &mut StdRng, msg: u64) -> (Accusation, KeyPair) {
        let a = KeyPair::generate(rng);
        let b = KeyPair::generate(rng);
        let ctx = DropContext {
            msg: MsgId(msg),
            accuser: Id::from_u64(501),
            accused: Id::from_u64(502),
            next_hop: Id::from_u64(503),
            dest: Id::from_u64(504),
            at: SimTime::from_secs(10),
        };
        let commitment = ForwardingCommitment::issue(
            ctx.msg, ctx.accuser, ctx.accused, ctx.dest, SimTime::from_secs(9), &b, rng,
        );
        let acc = Accusation::build(
            ctx,
            commitment,
            vec![],
            vec![],
            &ConciliumConfig::default(),
            &a,
            rng,
        );
        (acc, b)
    }

    #[test]
    fn replicas_are_closest_members() {
        let dht = AccusationDht::new(members(10), 3);
        let key = Id::from_u64(2_400);
        let reps = dht.replicas(key);
        assert_eq!(reps.len(), 3);
        // Closest to 2400 among multiples of 1000: 2000, 3000, 1000.
        assert!(reps.contains(&Id::from_u64(2_000)));
        assert!(reps.contains(&Id::from_u64(3_000)));
        assert!(reps.contains(&Id::from_u64(1_000)));
    }

    #[test]
    fn insert_then_fetch_round_trips() {
        let mut rng = StdRng::seed_from_u64(111);
        let mut dht = AccusationDht::new(members(10), 3);
        let (acc, accused_keys) = accusation(&mut rng, 1);
        assert_eq!(dht.insert(&accused_keys.public(), acc.clone()), 3);
        let fetched = dht.fetch(&accused_keys.public());
        assert_eq!(fetched.len(), 1);
        assert_eq!(fetched[0], &acc);
    }

    #[test]
    fn reinsert_is_idempotent() {
        let mut rng = StdRng::seed_from_u64(112);
        let mut dht = AccusationDht::new(members(10), 3);
        let (acc, keys) = accusation(&mut rng, 1);
        dht.insert(&keys.public(), acc.clone());
        dht.insert(&keys.public(), acc);
        assert_eq!(dht.fetch(&keys.public()).len(), 1);
    }

    #[test]
    fn survives_minority_replica_failures() {
        let mut rng = StdRng::seed_from_u64(113);
        let mut dht = AccusationDht::new(members(10), 3);
        let (acc, keys) = accusation(&mut rng, 1);
        dht.insert(&keys.public(), acc);
        // One replica loses its store.
        let key = AccusationDht::key_for(&keys.public());
        let victim = dht.replicas(key)[0];
        dht.stores.remove(&victim);
        assert_eq!(dht.fetch(&keys.public()).len(), 1, "still fetchable");
    }

    #[test]
    fn lost_when_all_replicas_fail() {
        let mut rng = StdRng::seed_from_u64(114);
        let mut dht = AccusationDht::new(members(10), 2);
        let (acc, keys) = accusation(&mut rng, 1);
        dht.insert(&keys.public(), acc);
        let key = AccusationDht::key_for(&keys.public());
        for r in dht.replicas(key) {
            dht.stores.remove(&r);
        }
        assert!(dht.fetch(&keys.public()).is_empty());
    }

    #[test]
    fn different_accusers_accumulate() {
        let mut rng = StdRng::seed_from_u64(115);
        let mut dht = AccusationDht::new(members(16), 4);
        let (acc1, keys) = accusation(&mut rng, 1);
        let (acc2, _) = accusation(&mut rng, 2);
        dht.insert(&keys.public(), acc1);
        dht.insert(&keys.public(), acc2);
        assert_eq!(dht.fetch(&keys.public()).len(), 2);
    }

    #[test]
    fn key_for_is_deterministic_and_spread() {
        let mut rng = StdRng::seed_from_u64(116);
        let k1 = KeyPair::generate(&mut rng);
        let k2 = KeyPair::generate(&mut rng);
        assert_eq!(AccusationDht::key_for(&k1.public()), AccusationDht::key_for(&k1.public()));
        assert_ne!(AccusationDht::key_for(&k1.public()), AccusationDht::key_for(&k2.public()));
    }

    #[test]
    #[should_panic(expected = "needs members")]
    fn empty_membership_rejected() {
        let _ = AccusationDht::new(vec![], 2);
    }

    #[test]
    fn fetch_from_empty_dht_is_empty() {
        let mut rng = StdRng::seed_from_u64(117);
        let dht = AccusationDht::new(members(5), 2);
        let keys = KeyPair::generate(&mut rng);
        assert!(dht.fetch(&keys.public()).is_empty());
    }

    #[test]
    fn insert_with_retry_rides_out_transient_loss() {
        let mut rng = StdRng::seed_from_u64(118);
        let mut dht = AccusationDht::new(members(10), 3);
        let (acc, keys) = accusation(&mut rng, 1);
        // Every put message is lost twice, then gets through: with four
        // attempts per replica, all three replicas store it.
        let stored = dht
            .insert_with_retry(
                &keys.public(),
                acc,
                &RetryPolicy::default(),
                |_, attempt| attempt >= 3,
                &mut rng,
            )
            .unwrap();
        assert_eq!(stored, 3);
        assert_eq!(dht.fetch(&keys.public()).len(), 1);
    }

    #[test]
    fn insert_without_retry_misses_quorum_under_loss() {
        let mut rng = StdRng::seed_from_u64(119);
        let mut dht = AccusationDht::new(members(10), 3);
        let (acc, keys) = accusation(&mut rng, 1);
        let err = dht
            .insert_with_retry(
                &keys.public(),
                acc,
                &RetryPolicy::disabled(),
                |_, attempt| attempt >= 3,
                &mut rng,
            )
            .unwrap_err();
        assert_eq!(err, DhtError::QuorumNotReached { stored: 0, quorum: 2 });
        assert!(err.to_string().contains("quorum"));
    }

    #[test]
    fn faulty_replicas_do_not_count_toward_the_write_quorum() {
        let mut rng = StdRng::seed_from_u64(121);
        // Two of three replicas have left the membership: the one that
        // remains cannot meet a quorum of two.
        let mut dht = AccusationDht::new(members(1), 3);
        let (acc, keys) = accusation(&mut rng, 1);
        assert_eq!(dht.write_quorum(), 2);
        // The write is refused up front as degraded — no transport
        // attempt is spent and no partial copy is left behind.
        let err = dht
            .insert_with_retry(&keys.public(), acc, &RetryPolicy::default(), |_, _| true, &mut rng)
            .unwrap_err();
        assert_eq!(err, DhtError::DegradedReplicaSet { live: 1, quorum: 2 });
        assert!(dht.fetch(&keys.public()).is_empty());
    }

    #[test]
    fn shrinking_replica_set_degrades_without_retrying_to_exhaustion() {
        let mut rng = StdRng::seed_from_u64(123);
        let (acc, keys) = accusation(&mut rng, 1);
        let mut transport_calls = 0u32;
        let mut insert = |n: u64, rng: &mut StdRng| {
            let mut dht = AccusationDht::new(members(n), 3);
            assert_eq!(dht.write_quorum(), 2);
            let reaches = |_, _| {
                transport_calls += 1;
                true
            };
            dht.insert_with_retry(&keys.public(), acc.clone(), &RetryPolicy::default(), reaches, rng)
        };
        // A full replica set reaches full replication; one member short,
        // a quorum of two is still attainable.
        assert_eq!(insert(3, &mut rng), Ok(3));
        assert_eq!(insert(2, &mut rng), Ok(2));
        // One replica cannot meet a quorum of two: the write is refused
        // up front, so the transport is never invoked for it.
        assert_eq!(insert(1, &mut rng), Err(DhtError::DegradedReplicaSet { live: 1, quorum: 2 }));
        assert_eq!(transport_calls, 3 + 2, "the degraded path must not touch the network");
    }

    #[test]
    fn stored_accusations_iterates_every_replica_copy() {
        let mut rng = StdRng::seed_from_u64(122);
        let mut dht = AccusationDht::new(members(10), 3);
        let (acc, keys) = accusation(&mut rng, 1);
        assert!(dht.stores.is_empty());
        dht.insert(&keys.public(), acc.clone());
        let key = AccusationDht::key_for(&keys.public());
        let reps = dht.replicas(key);
        assert_eq!(dht.stores.len(), 3, "one store per replica");
        for (holder, store) in &dht.stores {
            assert!(reps.contains(holder));
            assert_eq!(store, &vec![acc.clone()], "one copy per replica");
        }
    }

    #[test]
    fn replication_capped_by_membership() {
        // Asking for more replicas than members just uses everyone.
        let dht = AccusationDht::new(members(3), 10);
        assert_eq!(dht.replicas(Id::from_u64(1)).len(), 3);
    }
}
