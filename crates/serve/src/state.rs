//! The daemon's canonical state, rebuilt from the journal on recovery.
//!
//! [`ServeState`] is deliberately *only* mutable through
//! [`ServeState::apply`], which consumes journal [`Record`]s: the live
//! daemon appends a record and then applies it; recovery replays the
//! committed prefix through the same code path. Byte-identical journals
//! therefore produce byte-identical states, which is the whole
//! crash-recovery determinism argument. Application is idempotent —
//! records at or below the high-water sequence number are skipped — so a
//! replay that overlaps already-applied records (e.g. a duplicated frame
//! in a corrupt image) cannot double-count.

use std::collections::BTreeMap;

use concilium::dht::AccusationDht;
use concilium::{Verdict, VerdictBook, VerdictWindow};
use concilium_crypto::sha256;
use concilium_types::Id;

use crate::journal::Record;
use crate::ServeConfig;

/// A formal accusation filed in the service-mode ledger, with the DHT
/// replica set that would hold it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Filing {
    /// Guilty count in the window at filing time.
    pub guilty_count: u64,
    /// The member ids chosen by ring distance to hold the accusation.
    pub replicas: Vec<u64>,
}

/// The daemon's journal-derived state: per-pair verdict windows plus the
/// accusation ledger.
#[derive(Clone, Debug)]
pub struct ServeState {
    /// Sliding verdict windows keyed by (judge, accused).
    book: VerdictBook<(u64, u64)>,
    /// Formal accusations keyed by (judge, accused): the latch that files
    /// each pair once.
    filings: BTreeMap<(u64, u64), Filing>,
    /// Highest applied record sequence number; `None` before the first.
    applied_seq: Option<u64>,
    /// The next workload input index (from the last `Commit`).
    next_input: u64,
    /// The daemon's virtual clock at the last `Commit`, µs.
    clock_us: u64,
    /// Ring placement for filings, fixed by config.
    placement: AccusationDht,
}

impl ServeState {
    /// Fresh state for a daemon with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.protocol` is invalid, so a bad quota is refused at
    /// boot rather than during replay.
    pub fn new(cfg: &ServeConfig) -> Self {
        let members: Vec<Id> = (0..cfg.members as u64).map(Id::from_u64).collect();
        ServeState {
            book: VerdictBook::new(&cfg.protocol),
            filings: BTreeMap::new(),
            applied_seq: None,
            next_input: 0,
            clock_us: 0,
            placement: AccusationDht::new(members, cfg.protocol.dht_replication),
        }
    }

    /// Applies one journal record. Returns `false` (and does nothing) if
    /// the record's sequence number is not past the high-water mark —
    /// the idempotency guard replay relies on.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn apply(&mut self, record: &Record) -> bool {
        let seq = record.seq();
        if let Some(applied) = self.applied_seq {
            if seq <= applied {
                return false;
            }
        }
        self.applied_seq = Some(seq);
        match record {
            Record::Admitted { .. }
            | Record::Shed { .. }
            | Record::BatchStarted { .. } => {}
            Record::VerdictRecorded { judge, accused, guilty, .. } => {
                let verdict = if *guilty { Verdict::Guilty } else { Verdict::Innocent };
                self.book.record((*judge, *accused), verdict);
            }
            Record::AccusationFiled { judge, accused, guilty_count, .. } => {
                let replicas = self
                    .placement
                    .replicas(Id::from_u64(*accused))
                    .into_iter()
                    .map(|id| id.low_u64())
                    .collect();
                self.filings
                    .insert((*judge, *accused), Filing { guilty_count: *guilty_count, replicas });
            }
            Record::Commit { next_input, clock_us, .. } => {
                self.next_input = *next_input;
                self.clock_us = *clock_us;
            }
        }
        true
    }

    /// The verdict window for a (judge, accused) pair, if any verdicts
    /// have been recorded.
    pub(crate) fn window(&self, judge: u64, accused: u64) -> Option<&VerdictWindow> {
        self.book.window(&(judge, accused))
    }

    /// Whether the pair's last verdict met the m-of-w quota and no filing
    /// exists yet — the daemon files exactly when this is true.
    pub(crate) fn filing_due(&self, judge: u64, accused: u64) -> bool {
        self.book.quota_met(&(judge, accused)) && !self.filings.contains_key(&(judge, accused))
    }

    /// The next workload input index per the last commit boundary.
    pub fn next_input(&self) -> u64 {
        self.next_input
    }

    /// The virtual clock at the last commit boundary, µs.
    pub fn clock_us(&self) -> u64 {
        self.clock_us
    }

    /// The highest applied record sequence number.
    pub(crate) fn applied_seq(&self) -> Option<u64> {
        self.applied_seq
    }

    /// The state's canonical digest: sha256 over a length-prefixed
    /// encoding of every window and filing in key order, plus the commit
    /// cursor. Two states digest identically iff they would judge and
    /// accuse identically from here on.
    pub fn digest(&self) -> [u8; 32] {
        let mut words: Vec<u64> = Vec::new();
        let windows = self.book.iter();
        words.push(windows.len() as u64);
        for ((judge, accused), window) in windows {
            words.push(*judge);
            words.push(*accused);
            window.encode_to(&mut words);
        }
        words.push(self.filings.len() as u64);
        for ((judge, accused), filing) in &self.filings {
            words.push(*judge);
            words.push(*accused);
            words.push(filing.guilty_count);
            words.push(filing.replicas.len() as u64);
            words.extend(filing.replicas.iter().copied());
        }
        words.push(self.next_input);
        words.push(self.clock_us);
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        sha256(&bytes).0
    }

    /// Hex form of [`Self::digest`] for logs and artifacts.
    pub fn digest_hex(&self) -> String {
        self.digest().iter().map(|b| format!("{b:02x}")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium::ConciliumConfig;

    fn verdict(seq: u64, judge: u64, accused: u64, guilty: bool) -> Record {
        Record::VerdictRecorded { seq, report_id: seq, batch: 0, judge, accused, guilty }
    }

    #[test]
    fn apply_is_idempotent_on_sequence_numbers() {
        let cfg = ServeConfig::default();
        let mut s = ServeState::new(&cfg);
        let rec = verdict(5, 1, 2, true);
        assert!(s.apply(&rec));
        assert!(!s.apply(&rec), "duplicate seq must be skipped");
        assert_eq!(s.window(1, 2).map(|w| w.guilty_count()), Some(1));
        // An older record is also skipped.
        assert!(!s.apply(&verdict(3, 1, 2, true)));
        assert_eq!(s.window(1, 2).map(|w| w.guilty_count()), Some(1));
    }

    #[test]
    fn replay_reproduces_the_online_state() {
        let cfg = ServeConfig::default();
        let records = vec![
            verdict(0, 1, 2, true),
            verdict(1, 1, 2, true),
            verdict(2, 1, 2, true),
            Record::AccusationFiled { seq: 3, judge: 1, accused: 2, guilty_count: 3 },
            Record::Commit { seq: 4, next_input: 3, clock_us: 777 },
        ];
        let mut online = ServeState::new(&cfg);
        for r in &records {
            online.apply(r);
        }
        let mut replayed = ServeState::new(&cfg);
        assert_eq!(records.iter().filter(|r| replayed.apply(r)).count(), records.len());
        assert_eq!(online.digest(), replayed.digest());
        assert_eq!(replayed.next_input(), 3);
        assert_eq!(replayed.clock_us(), 777);
        let filing = replayed.filings.get(&(1, 2)).cloned();
        assert!(filing.is_some_and(|f| f.guilty_count == 3
            && f.replicas.len() == cfg.protocol.dht_replication
            && f.replicas.iter().all(|&r| r < cfg.members as u64)));
    }

    fn with_quota(guilty_quota: usize) -> ServeConfig {
        let cfg = ServeConfig::default();
        ServeConfig { protocol: ConciliumConfig { guilty_quota, ..cfg.protocol }, ..cfg }
    }

    #[test]
    fn filing_due_flips_once_the_quota_is_crossed() {
        let mut s = ServeState::new(&with_quota(2));
        s.apply(&verdict(0, 4, 9, true));
        assert!(!s.filing_due(4, 9));
        s.apply(&verdict(1, 4, 9, true));
        assert!(s.filing_due(4, 9));
        s.apply(&Record::AccusationFiled { seq: 2, judge: 4, accused: 9, guilty_count: 2 });
        assert!(!s.filing_due(4, 9), "filed pairs are not due again");
    }

    #[test]
    #[should_panic(expected = "guilty quota")]
    fn a_zero_quota_is_refused_at_boot() {
        let _ = ServeState::new(&with_quota(0));
    }

    #[test]
    #[should_panic(expected = "guilty quota")]
    fn a_quota_above_the_window_is_refused_at_boot() {
        // w = 20 by default: a quota of 21 could never be met.
        let _ = ServeState::new(&with_quota(21));
    }

    #[test]
    fn digest_tracks_every_component() {
        let cfg = ServeConfig::default();
        let mut a = ServeState::new(&cfg);
        let b = ServeState::new(&cfg);
        assert_eq!(a.digest(), b.digest());
        a.apply(&verdict(0, 1, 2, false));
        assert_ne!(a.digest(), b.digest(), "windows must feed the digest");
        let mut c = ServeState::new(&cfg);
        c.apply(&Record::Commit { seq: 0, next_input: 1, clock_us: 1 });
        assert_ne!(c.digest(), b.digest(), "commit cursor must feed the digest");
    }
}
