//! Jump tables: the prefix-routing component of local routing state.

use serde::{Deserialize, Serialize};

use concilium_crypto::Certificate;
use concilium_types::{Id, IdSpace, SimDuration, SimTime};

use crate::freshness::FreshnessStamp;

/// One jump-table slot: a peer certificate plus the peer-signed freshness
/// stamp that defeats inflation attacks.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JumpTableEntry {
    /// The referenced peer's certificate.
    pub cert: Certificate,
    /// The peer's signed liveness attestation.
    pub freshness: FreshnessStamp,
}

/// A Pastry jump table with ℓ rows and v columns.
///
/// The entry in row *i*, column *j* shares an *i*-digit prefix with the
/// local identifier and has digit *j* at position *i*. The column matching
/// the local identifier's own digit is conceptually the local node and is
/// left empty. In the *secure* variant the entry must additionally be the
/// online host closest to point *p* (the local identifier with digit *i*
/// substituted by *j*); that constraint is enforced at construction time by
/// [`build_overlay`](crate::build_overlay).
///
/// # Examples
///
/// ```
/// use concilium_overlay::JumpTable;
/// use concilium_types::Id;
///
/// let jt = JumpTable::new(Id::from_u64(0));
/// assert_eq!(jt.occupied(), 0);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JumpTable {
    local: Id,
    space: IdSpace,
    /// Row-major, `None` = empty slot. Only the rows up to the deepest
    /// entry ever set are allocated: an overlay of n hosts fills about
    /// log₁₆ n of the space's rows, and a slot is about 100 bytes.
    slots: Vec<Option<JumpTableEntry>>,
}

impl JumpTable {
    /// Creates an empty table for `local` over the default identifier
    /// space.
    pub fn new(local: Id) -> Self {
        Self::with_space(local, IdSpace::DEFAULT)
    }

    /// Creates an empty table over a custom identifier space.
    ///
    /// Note that the concrete [`Id`] type has 40 base-16 digits; spaces
    /// with more digits than that are rejected.
    ///
    /// # Panics
    ///
    /// Panics if the space does not fit the concrete `Id` type.
    pub fn with_space(local: Id, space: IdSpace) -> Self {
        assert!(
            space.digits() <= concilium_types::ID_DIGITS as u32 && space.base() == 16,
            "jump tables require a base-16 space of at most 40 digits"
        );
        JumpTable { local, space, slots: Vec::new() }
    }

    /// The local identifier this table routes for.
    pub fn local(&self) -> Id {
        self.local
    }

    /// The identifier space.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    fn slot_index(&self, row: u32, col: u8) -> usize {
        assert!(row < self.space.digits(), "row {row} out of range");
        assert!((col as u32) < self.space.base(), "column {col} out of range");
        (row * self.space.base() + col as u32) as usize
    }

    /// The entry at (`row`, `col`), if any.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn entry(&self, row: u32, col: u8) -> Option<&JumpTableEntry> {
        self.slots.get(self.slot_index(row, col))?.as_ref()
    }

    /// Installs `entry` at (`row`, `col`), replacing any previous entry.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range, if the entry's
    /// identifier violates the prefix constraint for the slot, or if the
    /// slot is the local node's own column in that row.
    pub fn set_entry(&mut self, row: u32, col: u8, entry: JumpTableEntry) {
        let id = entry.cert.id();
        assert!(
            id.common_prefix_len(&self.local) >= row as usize,
            "entry {id} does not share a {row}-digit prefix with {}",
            self.local
        );
        assert_eq!(id.digit(row as usize), col, "entry digit mismatch for column {col}");
        assert_ne!(
            col,
            self.local.digit(row as usize),
            "the local node's own column must stay empty"
        );
        let idx = self.slot_index(row, col);
        if idx >= self.slots.len() {
            // Whole rows, so `entries` can keep decoding positions.
            self.slots.resize(((row + 1) * self.space.base()) as usize, None);
        }
        self.slots[idx] = Some(entry);
    }

    /// Clears the slot at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn clear_entry(&mut self, row: u32, col: u8) {
        let idx = self.slot_index(row, col);
        if let Some(slot) = self.slots.get_mut(idx) {
            *slot = None;
        }
    }

    /// Number of occupied slots — the density `d` used by the jump-table
    /// density test.
    pub fn occupied(&self) -> u32 {
        self.slots.iter().filter(|s| s.is_some()).count() as u32
    }

    /// Iterates over `(row, col, entry)` for every occupied slot.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u8, &JumpTableEntry)> {
        let base = self.space.base();
        self.slots.iter().enumerate().filter_map(move |(i, s)| {
            s.as_ref().map(|e| ((i as u32) / base, (i as u32 % base) as u8, e))
        })
    }

    /// The routing entry for `target`: row = length of the common prefix,
    /// column = `target`'s digit there. Returns `None` for an empty slot
    /// or when `target` equals the local identifier.
    pub fn route(&self, target: Id) -> Option<&JumpTableEntry> {
        let row = self.local.common_prefix_len(&target);
        if row >= self.space.digits() as usize {
            return None;
        }
        let col = target.digit(row);
        self.entry(row as u32, col)
    }

    /// Validates the structural invariants of an *advertised* table:
    /// every entry satisfies the prefix constraint, carries a freshness
    /// stamp issued to this table's owner, signed by the referenced peer,
    /// and no older than `max_age` at `now`.
    ///
    /// Returns the first problem found, or `Ok(())`.
    ///
    /// # Errors
    ///
    /// See [`JumpTableViolation`].
    pub fn validate(
        &self,
        now: SimTime,
        max_age: SimDuration,
    ) -> Result<(), JumpTableViolation> {
        for (row, col, entry) in self.entries() {
            let id = entry.cert.id();
            if id.common_prefix_len(&self.local) < row as usize
                || id.digit(row as usize) != col
            {
                return Err(JumpTableViolation::PrefixMismatch { row, col });
            }
            if entry.freshness.holder() != self.local {
                return Err(JumpTableViolation::StampWrongHolder { row, col });
            }
            if !entry.freshness.verify(&entry.cert.public_key()) {
                return Err(JumpTableViolation::StampForged { row, col });
            }
            if !entry.freshness.is_fresh(now, max_age) {
                return Err(JumpTableViolation::StampStale { row, col });
            }
        }
        Ok(())
    }
}

/// A structural violation found while validating an advertised jump table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JumpTableViolation {
    /// The entry's identifier does not belong in its slot.
    PrefixMismatch {
        /// Row of the offending slot.
        row: u32,
        /// Column of the offending slot.
        col: u8,
    },
    /// The freshness stamp was issued to a different holder (replay).
    StampWrongHolder {
        /// Row of the offending slot.
        row: u32,
        /// Column of the offending slot.
        col: u8,
    },
    /// The freshness stamp's signature does not verify.
    StampForged {
        /// Row of the offending slot.
        row: u32,
        /// Column of the offending slot.
        col: u8,
    },
    /// The freshness stamp is too old (or future-dated).
    StampStale {
        /// Row of the offending slot.
        row: u32,
        /// Column of the offending slot.
        col: u8,
    },
}

impl std::fmt::Display for JumpTableViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JumpTableViolation::PrefixMismatch { row, col } => {
                write!(f, "entry at ({row},{col}) violates the prefix constraint")
            }
            JumpTableViolation::StampWrongHolder { row, col } => {
                write!(f, "entry at ({row},{col}) replays a stamp issued to another host")
            }
            JumpTableViolation::StampForged { row, col } => {
                write!(f, "entry at ({row},{col}) carries a forged freshness stamp")
            }
            JumpTableViolation::StampStale { row, col } => {
                write!(f, "entry at ({row},{col}) carries a stale freshness stamp")
            }
        }
    }
}

impl std::error::Error for JumpTableViolation {}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_crypto::{CertificateAuthority, KeyPair};
    use concilium_types::{HostAddr, RouterId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        ca: CertificateAuthority,
        rng: StdRng,
        local: Id,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(8);
        Fixture {
            ca: CertificateAuthority::new(&mut rng),
            rng,
            local: Id::from_hex("0000000000000000000000000000000000000000").unwrap(),
        }
    }

    impl Fixture {
        /// Builds an entry whose id has digit `col` at `row` (prefix of
        /// zeros before it) with a fresh stamp at `t`.
        fn entry(&mut self, row: u32, col: u8, t: SimTime) -> (JumpTableEntry, KeyPair) {
            let id = self.local.with_digit(row as usize, col).with_digit(39, 0x9);
            let keys = KeyPair::generate(&mut self.rng);
            let cert =
                self.ca
                    .issue_with_id(id, HostAddr(RouterId(1)), keys.public(), &mut self.rng);
            let stamp = FreshnessStamp::issue(&keys, self.local, t, &mut self.rng);
            (JumpTableEntry { cert, freshness: stamp }, keys)
        }
    }

    #[test]
    fn set_and_route() {
        let mut fx = fixture();
        let mut jt = JumpTable::new(fx.local);
        let (e, _) = fx.entry(0, 0xa, SimTime::ZERO);
        jt.set_entry(0, 0xa, e.clone());
        assert_eq!(jt.occupied(), 1);

        // Any target starting with digit 'a' routes through the entry.
        let target = Id::from_hex("ab00000000000000000000000000000000000000").unwrap();
        assert_eq!(jt.route(target).unwrap().cert.id(), e.cert.id());
        // A target sharing no prefix progress with an empty slot gets None.
        let other = Id::from_hex("bb00000000000000000000000000000000000000").unwrap();
        assert!(jt.route(other).is_none());
    }

    #[test]
    fn route_to_self_prefix_falls_deeper() {
        let mut fx = fixture();
        let mut jt = JumpTable::new(fx.local);
        let (e, _) = fx.entry(1, 0x5, SimTime::ZERO);
        jt.set_entry(1, 0x5, e);
        // Target shares 1 zero digit then has 5: row 1, col 5.
        let target = Id::from_hex("0500000000000000000000000000000000000000").unwrap();
        assert!(jt.route(target).is_some());
    }

    #[test]
    #[should_panic(expected = "own column")]
    fn own_column_stays_empty() {
        let mut fx = fixture();
        let mut jt = JumpTable::new(fx.local);
        // local digit at row 2 is 0; inserting col 0 there must panic.
        let (e, _) = fx.entry(2, 0x0, SimTime::ZERO);
        jt.set_entry(2, 0x0, e);
    }

    #[test]
    #[should_panic(expected = "does not share")]
    fn prefix_constraint_enforced_on_insert() {
        let mut fx = fixture();
        let mut jt = JumpTable::new(fx.local);
        let (e, _) = fx.entry(0, 0xa, SimTime::ZERO);
        // Claiming the same entry belongs at row 3 must panic: its digits
        // 0..3 are not all zero.
        jt.set_entry(3, 0xa, e);
    }

    #[test]
    fn validate_accepts_honest_table() {
        let mut fx = fixture();
        let mut jt = JumpTable::new(fx.local);
        let t = SimTime::from_secs(100);
        let (e1, _) = fx.entry(0, 0x3, t);
        let (e2, _) = fx.entry(1, 0x7, t);
        jt.set_entry(0, 0x3, e1);
        jt.set_entry(1, 0x7, e2);
        assert!(jt
            .validate(SimTime::from_secs(130), SimDuration::from_secs(60))
            .is_ok());
    }

    #[test]
    fn validate_rejects_stale_stamp() {
        let mut fx = fixture();
        let mut jt = JumpTable::new(fx.local);
        let (e, _) = fx.entry(0, 0x3, SimTime::from_secs(10));
        jt.set_entry(0, 0x3, e);
        assert_eq!(
            jt.validate(SimTime::from_secs(500), SimDuration::from_secs(60)),
            Err(JumpTableViolation::StampStale { row: 0, col: 3 })
        );
    }

    #[test]
    fn validate_rejects_replayed_stamp() {
        // Inflation attack: the attacker advertises an entry whose stamp
        // was issued to a *different* holder.
        let mut fx = fixture();
        let attacker_local = fx.local;
        let victim = Id::from_hex("ffffffffffffffffffffffffffffffffffffffff").unwrap();
        let mut jt = JumpTable::new(attacker_local);
        let id = attacker_local.with_digit(0, 0x3);
        let keys = KeyPair::generate(&mut fx.rng);
        let cert = fx
            .ca
            .issue_with_id(id, HostAddr(RouterId(2)), keys.public(), &mut fx.rng);
        // Stamp issued to the victim, not to the attacker.
        let stamp = FreshnessStamp::issue(&keys, victim, SimTime::from_secs(100), &mut fx.rng);
        jt.set_entry(0, 0x3, JumpTableEntry { cert, freshness: stamp });
        assert_eq!(
            jt.validate(SimTime::from_secs(110), SimDuration::from_secs(60)),
            Err(JumpTableViolation::StampWrongHolder { row: 0, col: 3 })
        );
    }

    #[test]
    fn validate_rejects_forged_stamp() {
        let mut fx = fixture();
        let mut jt = JumpTable::new(fx.local);
        let id = fx.local.with_digit(0, 0x3);
        let keys = KeyPair::generate(&mut fx.rng);
        let other = KeyPair::generate(&mut fx.rng);
        let cert = fx
            .ca
            .issue_with_id(id, HostAddr(RouterId(2)), keys.public(), &mut fx.rng);
        // Stamp signed by the wrong key (the attacker itself).
        let stamp =
            FreshnessStamp::issue(&other, fx.local, SimTime::from_secs(100), &mut fx.rng);
        jt.set_entry(0, 0x3, JumpTableEntry { cert, freshness: stamp });
        assert_eq!(
            jt.validate(SimTime::from_secs(110), SimDuration::from_secs(60)),
            Err(JumpTableViolation::StampForged { row: 0, col: 3 })
        );
    }

    #[test]
    fn rows_are_allocated_only_up_to_the_deepest_entry() {
        let mut fx = fixture();
        let mut jt = JumpTable::new(fx.local);
        // Reads and clears of rows never filled are empty and harmless.
        assert!(jt.entry(39, 0xf).is_none());
        jt.clear_entry(39, 0xf);
        let (e, _) = fx.entry(2, 0x4, SimTime::ZERO);
        jt.set_entry(2, 0x4, e);
        assert_eq!(jt.slots.len(), 3 * 16);
        assert!(jt.entry(2, 0x4).is_some() && jt.entry(3, 0x4).is_none());
        let all: Vec<(u32, u8)> = jt.entries().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(all, vec![(2, 0x4)]);
        let (e, _) = fx.entry(0, 0x1, SimTime::ZERO);
        jt.set_entry(0, 0x1, e);
        assert_eq!(jt.slots.len(), 3 * 16, "a shallower entry does not grow the table");
        assert_eq!(jt.occupied(), 2);
    }

    #[test]
    #[should_panic(expected = "row 40 out of range")]
    fn rows_past_the_space_are_rejected() {
        let _ = JumpTable::new(Id::from_u64(0)).entry(40, 0);
    }

    #[test]
    fn entries_iterator_reports_coordinates() {
        let mut fx = fixture();
        let mut jt = JumpTable::new(fx.local);
        let (e, _) = fx.entry(1, 0x7, SimTime::ZERO);
        jt.set_entry(1, 0x7, e);
        let all: Vec<(u32, u8)> = jt.entries().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(all, vec![(1, 0x7)]);
        jt.clear_entry(1, 0x7);
        assert_eq!(jt.occupied(), 0);
    }
}
