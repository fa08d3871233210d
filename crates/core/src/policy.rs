//! Sanctioning policies (§3.7).
//!
//! Concilium "is agnostic about the response to its fault
//! identifications": each deployment sets policy. The paper sketches the
//! design space this module implements:
//!
//! * broken IP links are routed around until the ISP fixes them;
//! * accused hosts may simply not be trusted with sensitive messages
//!   ([`Sanction::ExtraSuspicion`]);
//! * a network can mandate *universal* blacklisting once accusations
//!   arrive above a rate ([`Sanction::Blacklist`]);
//! * crucially, when the overlay underlies a higher-level service such as
//!   a DHT, honest nodes must **not** make local decisions to evict
//!   accused nodes from leaf sets — that causes inconsistent routing and
//!   breaks the service. [`PolicyEngine`] therefore never recommends
//!   leaf-set eviction.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use concilium_types::{Id, SimDuration, SimTime};

/// What to do about a peer, in increasing order of severity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Sanction {
    /// No verified accusations: treat normally.
    None,
    /// Verified accusations exist: do not route sensitive traffic through
    /// the peer, treat its advertisements with extra suspicion.
    ExtraSuspicion,
    /// The accusation rate crossed the universal-blacklist threshold: do
    /// not add the peer to routing tables. (Existing leaf-set entries are
    /// *not* evicted — see the module docs on inconsistent routing.)
    Blacklist,
}

/// Policy knobs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Accusations per `rate_window` that trigger universal blacklisting
    /// ("a network can mandate that a node be universally blacklisted if
    /// it receives accusations at a certain rate").
    pub blacklist_rate: usize,
    /// The window over which the rate is measured.
    pub rate_window: SimDuration,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig { blacklist_rate: 3, rate_window: SimDuration::from_mins(60) }
    }
}

/// Tracks verified accusations per peer and derives sanctions.
#[derive(Clone, Debug, Default)]
pub struct PolicyEngine {
    config: PolicyConfig,
    /// Verified-accusation timestamps per accused peer, sorted.
    accusations: HashMap<Id, Vec<SimTime>>,
}

impl PolicyEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: PolicyConfig) -> Self {
        PolicyEngine { config, accusations: HashMap::new() }
    }

    /// Records a *verified* accusation against `peer` observed at `at`.
    /// Callers must have run [`Accusation::verify`] first — the engine
    /// trusts its input.
    ///
    /// [`Accusation::verify`]: crate::Accusation::verify
    pub fn record_accusation(&mut self, peer: Id, at: SimTime) {
        let v = self.accusations.entry(peer).or_default();
        let pos = v.partition_point(|&t| t <= at);
        v.insert(pos, at);
    }

    /// Number of accusations against `peer` within the rate window ending
    /// at `now`.
    pub(crate) fn recent_accusations(&self, peer: Id, now: SimTime) -> usize {
        let Some(v) = self.accusations.get(&peer) else {
            return 0;
        };
        let lo = now.saturating_sub(self.config.rate_window);
        let start = v.partition_point(|&t| t < lo);
        let end = v.partition_point(|&t| t <= now);
        end - start
    }

    /// The sanction for `peer` at time `now`.
    pub fn sanction(&self, peer: Id, now: SimTime) -> Sanction {
        let recent = self.recent_accusations(peer, now);
        let total = self.accusations.get(&peer).map(Vec::len).unwrap_or(0);
        if recent >= self.config.blacklist_rate {
            Sanction::Blacklist
        } else if total > 0 {
            Sanction::ExtraSuspicion
        } else {
            Sanction::None
        }
    }

    /// Whether `peer` may be added to a *new* routing table at `now`
    /// ("nodes would check the accusation repository before agreeing to
    /// peer with a new host").
    pub fn may_peer_with(&self, peer: Id, now: SimTime) -> bool {
        self.sanction(peer, now) != Sanction::Blacklist
    }

    /// Leaf-set eviction is never allowed, regardless of sanctions —
    /// local eviction causes inconsistent routing in services layered on
    /// the overlay (§3.7, citing Castro's DSN'04 analysis).
    pub fn may_evict_from_leaf_set(&self, _peer: Id, _now: SimTime) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(mins: u64) -> SimTime {
        SimTime::from_secs(mins * 60)
    }

    #[test]
    fn unaccused_peers_are_clean() {
        let engine = PolicyEngine::new(PolicyConfig::default());
        assert_eq!(engine.sanction(Id::from_u64(1), t(10)), Sanction::None);
        assert!(engine.may_peer_with(Id::from_u64(1), t(10)));
    }

    #[test]
    fn accusations_escalate_to_suspicion_then_blacklist() {
        let mut engine = PolicyEngine::new(PolicyConfig::default());
        let peer = Id::from_u64(2);
        engine.record_accusation(peer, t(10));
        assert_eq!(engine.sanction(peer, t(11)), Sanction::ExtraSuspicion);
        assert!(engine.may_peer_with(peer, t(11)));

        engine.record_accusation(peer, t(20));
        engine.record_accusation(peer, t(30));
        assert_eq!(engine.sanction(peer, t(31)), Sanction::Blacklist);
        assert!(!engine.may_peer_with(peer, t(31)));
    }

    #[test]
    fn blacklist_decays_with_the_rate_window() {
        let mut engine = PolicyEngine::new(PolicyConfig::default());
        let peer = Id::from_u64(3);
        for m in [10, 20, 30] {
            engine.record_accusation(peer, t(m));
        }
        assert_eq!(engine.sanction(peer, t(31)), Sanction::Blacklist);
        // 90 minutes later only stale accusations remain: suspicion, not
        // blacklist.
        assert_eq!(engine.sanction(peer, t(120)), Sanction::ExtraSuspicion);
        assert!(engine.may_peer_with(peer, t(120)));
    }

    #[test]
    fn out_of_order_recording_is_handled() {
        let mut engine = PolicyEngine::new(PolicyConfig::default());
        let peer = Id::from_u64(4);
        engine.record_accusation(peer, t(30));
        engine.record_accusation(peer, t(10));
        engine.record_accusation(peer, t(20));
        assert_eq!(engine.recent_accusations(peer, t(35)), 3);
        assert_eq!(engine.recent_accusations(peer, t(15)), 1);
    }

    #[test]
    fn leaf_set_eviction_is_never_recommended() {
        let mut engine = PolicyEngine::new(PolicyConfig::default());
        let peer = Id::from_u64(5);
        for m in 0..10 {
            engine.record_accusation(peer, t(m));
        }
        assert_eq!(engine.sanction(peer, t(10)), Sanction::Blacklist);
        assert!(!engine.may_evict_from_leaf_set(peer, t(10)));
    }

    #[test]
    fn sanction_ordering() {
        assert!(Sanction::None < Sanction::ExtraSuspicion);
        assert!(Sanction::ExtraSuspicion < Sanction::Blacklist);
    }
}
