//! The write-ahead journal: every state mutation, framed and checksummed.
//!
//! The daemon mutates its verdict windows and accusation ledger *only*
//! through journal records (see [`crate::state::ServeState::apply`]), so
//! the journal is both the recovery log and the canonical trace of the
//! run: two runs whose journals are byte-identical went through exactly
//! the same mutations. It is also the daemon's only record: the trace and
//! the context `--explain` prints are read back out of it
//! ([`crate::flight`]), never kept beside it. A crash at any byte
//! boundary is recoverable — recovery scans valid frames, truncates the
//! torn or uncommitted tail back to the last [`Record::Commit`]
//! boundary, and replays.
//!
//! # Frame format
//!
//! ```text
//! [len: u32 LE][check: 8 bytes][payload: len bytes]
//! ```
//!
//! `payload` is the record's `u64` words in little-endian order; `check`
//! is the first 8 bytes of `sha256(payload)`. A frame whose length field
//! runs past the buffer, exceeds [`MAX_FRAME_BYTES`], or whose checksum
//! disagrees ends the valid prefix — everything after it is torn tail.

use std::sync::{Arc, Mutex};

use concilium_crypto::sha256;
use concilium_obs::ShedReason;

use crate::report::FailureReport;

/// Upper bound on one frame's payload; a length field beyond it is
/// corruption, not a big record. Admission refuses a report whose
/// `Admitted` record would exceed it, and boot refuses a mailbox whose
/// full batch would, so every record the daemon writes fits.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// [`MAX_FRAME_BYTES`] in payload words.
pub(crate) const MAX_FRAME_WORDS: usize = MAX_FRAME_BYTES / 8;

/// One journaled mutation or boundary marker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A report passed admission control and entered the mailbox.
    Admitted {
        /// Record sequence number (strictly increasing).
        seq: u64,
        /// Workload input index that produced the record.
        input: u64,
        /// The admitted report, in full — recovery rebuilds the mailbox
        /// from these.
        report: FailureReport,
    },
    /// A report was refused.
    Shed {
        /// Record sequence number.
        seq: u64,
        /// Workload input index.
        input: u64,
        /// The refused report's identifier.
        report_id: u64,
        /// Typed refusal reason, journaled as [`ShedReason::code`].
        reason: ShedReason,
    },
    /// A batch of admitted reports left the mailbox for evaluation.
    BatchStarted {
        /// Record sequence number.
        seq: u64,
        /// Batch identifier (strictly increasing).
        batch: u64,
        /// Virtual start time, µs.
        start_us: u64,
        /// The reports drafted into the batch, in mailbox order.
        report_ids: Vec<u64>,
    },
    /// One report's blame evaluation finished and its verdict entered
    /// the (judge, accused) window.
    VerdictRecorded {
        /// Record sequence number.
        seq: u64,
        /// The evaluated report.
        report_id: u64,
        /// Batch it was evaluated in.
        batch: u64,
        /// Judging host.
        judge: u64,
        /// Accused host.
        accused: u64,
        /// Whether the verdict was guilty.
        guilty: bool,
    },
    /// A window crossed its m-of-w quota: a formal accusation was filed
    /// in the accusation ledger (the DHT's service-mode ledger).
    AccusationFiled {
        /// Record sequence number.
        seq: u64,
        /// Judging host.
        judge: u64,
        /// Accused host.
        accused: u64,
        /// Guilty count in the window at filing time.
        guilty_count: u64,
    },
    /// Input boundary marker: everything up to and including workload
    /// input `next_input − 1` is fully journaled. Recovery resumes here.
    Commit {
        /// Record sequence number.
        seq: u64,
        /// The next workload input index to process.
        next_input: u64,
        /// The daemon's virtual clock at the boundary, µs.
        clock_us: u64,
    },
}

impl Record {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            Record::Admitted { seq, .. }
            | Record::Shed { seq, .. }
            | Record::BatchStarted { seq, .. }
            | Record::VerdictRecorded { seq, .. }
            | Record::AccusationFiled { seq, .. }
            | Record::Commit { seq, .. } => *seq,
        }
    }

    /// Stable short label, used in digests and diagnostics.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Record::Admitted { .. } => "admitted",
            Record::Shed { .. } => "shed",
            Record::BatchStarted { .. } => "batch-started",
            Record::VerdictRecorded { .. } => "verdict",
            Record::AccusationFiled { .. } => "accusation",
            Record::Commit { .. } => "commit",
        }
    }

    /// The record's payload words: a variant tag followed by its fields.
    pub fn encode(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(8);
        self.write_words(&mut |w| out.push(w));
        out
    }

    /// Feeds the record's payload words to `put` in order — the one
    /// encoder behind [`Record::encode`] and the frame [`Journal::append`]
    /// writes in place.
    pub(crate) fn write_words(&self, put: &mut impl FnMut(u64)) {
        let mut all = |words: &[u64]| words.iter().for_each(|&w| put(w));
        match self {
            Record::Admitted { seq, input, report } => {
                all(&[1, *seq, *input]);
                report.write_words(put);
            }
            Record::Shed { seq, input, report_id, reason } => {
                all(&[2, *seq, *input, *report_id, reason.code()]);
            }
            Record::BatchStarted { seq, batch, start_us, report_ids } => {
                all(&[3, *seq, *batch, *start_us, report_ids.len() as u64]);
                all(report_ids);
            }
            Record::VerdictRecorded { seq, report_id, batch, judge, accused, guilty } => {
                all(&[4, *seq, *report_id, *batch, *judge, *accused, u64::from(*guilty)]);
            }
            Record::AccusationFiled { seq, judge, accused, guilty_count } => {
                all(&[5, *seq, *judge, *accused, *guilty_count]);
            }
            Record::Commit { seq, next_input, clock_us } => {
                all(&[6, *seq, *next_input, *clock_us]);
            }
        }
    }

    /// Payload words of the `Admitted` record that journals `report`.
    pub(crate) fn admitted_words(report: &FailureReport) -> usize {
        3 + report.encoded_words()
    }

    /// Payload words of a `BatchStarted` record drafting `reports` reports.
    pub(crate) fn batch_words(reports: usize) -> usize {
        5 + reports
    }

    /// Decodes one record from its payload words. `None` on malformed
    /// input: unknown tag, wrong arity, trailing words, a count that
    /// disagrees with the words present, a guilty flag other than 0
    /// or 1, or a shed reason code no [`ShedReason`] has. So a decoded
    /// record re-encodes to exactly `words`.
    ///
    /// Counts are checked against the words actually present, so the
    /// only bound on a record is its frame's, [`MAX_FRAME_BYTES`]: every
    /// frame the writer can produce decodes.
    pub(crate) fn decode(words: &[u64]) -> Option<Record> {
        let (&tag, body) = words.split_first()?;
        let rec = match (tag, body) {
            (1, &[seq, input, ref rest @ ..]) => {
                let mut at = 0;
                let report = FailureReport::decode_from(rest, &mut at)?;
                if at != rest.len() {
                    return None;
                }
                Record::Admitted { seq, input, report }
            }
            (2, &[seq, input, report_id, code]) => {
                Record::Shed { seq, input, report_id, reason: ShedReason::from_code(code)? }
            }
            (3, &[seq, batch, start_us, n, ref ids @ ..]) if ids.len() as u64 == n => {
                Record::BatchStarted { seq, batch, start_us, report_ids: ids.to_vec() }
            }
            (4, &[seq, report_id, batch, judge, accused, flag @ (0 | 1)]) => {
                let guilty = flag == 1;
                Record::VerdictRecorded { seq, report_id, batch, judge, accused, guilty }
            }
            (5, &[seq, judge, accused, guilty_count]) => {
                Record::AccusationFiled { seq, judge, accused, guilty_count }
            }
            (6, &[seq, next_input, clock_us]) => Record::Commit { seq, next_input, clock_us },
            _ => return None,
        };
        Some(rec)
    }
}

/// The crash-surviving byte store behind a journal — the in-process
/// stand-in for the disk image. Clones share the same bytes, so a
/// supervisor can hold one handle while daemons (which may panic and
/// unwind) write through another. Frames are appended atomically under
/// the lock; torn writes are *simulated* explicitly via
/// `SharedStore::truncate` / appended garbage, never produced by a
/// panicking writer.
#[derive(Clone, Debug, Default)]
pub struct SharedStore {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl SharedStore {
    /// An empty store.
    pub fn new() -> Self {
        SharedStore::default()
    }

    /// A store pre-loaded with an existing journal image.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        SharedStore { bytes: Arc::new(Mutex::new(bytes)) }
    }

    fn with<T>(&self, f: impl FnOnce(&mut Vec<u8>) -> T) -> T {
        // A writer never panics while holding the lock (appends are
        // infallible Vec pushes), but a chaos panic elsewhere on the
        // thread can still poison it; the bytes remain consistent, so
        // recovery proceeds with the inner value.
        match self.bytes.lock() {
            Ok(mut guard) => f(&mut guard),
            Err(poisoned) => f(&mut poisoned.into_inner()),
        }
    }

    /// A snapshot of the current bytes.
    pub fn snapshot(&self) -> Vec<u8> {
        self.with(|b| b.clone())
    }

    /// Writes the current bytes to `out` under the lock, without copying
    /// them first.
    ///
    /// # Errors
    ///
    /// Whatever `out` returns.
    pub fn write_to(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        self.with(|b| out.write_all(b))
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.with(|b| b.len())
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends raw bytes (one whole frame, or simulated torn garbage).
    pub fn append(&self, data: &[u8]) {
        self.with(|b| b.extend_from_slice(data));
    }

    /// Truncates to `len` bytes — the torn-write / recovery primitive.
    pub(crate) fn truncate(&self, len: usize) {
        self.with(|b| b.truncate(len));
    }
}

/// What a [`Journal::recover`] pass dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recovery {
    /// Bytes discarded from the tail (torn frames plus uncommitted
    /// records).
    pub truncated_bytes: usize,
    /// Valid records discarded because no commit boundary covered them.
    pub uncommitted_records: usize,
}

/// A write-ahead journal over a [`SharedStore`].
#[derive(Clone, Debug, Default)]
pub struct Journal {
    store: SharedStore,
    /// The frame under construction, reused by every append.
    frame: Vec<u8>,
}

/// Frame header bytes: the length field and the checksum.
const HEADER: usize = 12;

/// The payload of the frame starting at `at`, if a whole frame with an
/// in-bounds length and a matching checksum starts there.
fn payload_at(bytes: &[u8], at: usize) -> Option<&[u8]> {
    let header = bytes.get(at..at + HEADER)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    if len > MAX_FRAME_BYTES || !len.is_multiple_of(8) {
        return None;
    }
    let payload = bytes.get(at + HEADER..at + HEADER + len)?;
    (sha256(payload).0[..8] == header[4..]).then_some(payload)
}

impl Journal {
    /// A journal over a fresh, empty store.
    pub fn new() -> Self {
        Journal::default()
    }

    /// A journal over an existing store (shared with a supervisor).
    pub fn over(store: SharedStore) -> Self {
        Journal { store, frame: Vec::new() }
    }

    /// The underlying store handle.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// Appends one record as a single framed write; returns the frame's
    /// size in bytes (the write amplification a durability fsync pays).
    /// The record is encoded straight into one reused frame buffer and
    /// the header patched in after hashing, so an append allocates
    /// nothing once the buffer has grown to the largest record.
    pub fn append(&mut self, record: &Record) -> usize {
        let frame = &mut self.frame;
        frame.clear();
        frame.resize(HEADER, 0);
        record.write_words(&mut |w| frame.extend_from_slice(&w.to_le_bytes()));
        let len = frame.len() - HEADER;
        // Admission and the boot check keep every record inside a frame;
        // a longer one would end recovery's valid prefix at this frame.
        assert!(len <= MAX_FRAME_BYTES, "a {len}-byte record passed admission");
        let check = sha256(&frame[HEADER..]);
        frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
        frame[4..HEADER].copy_from_slice(&check.0[..8]);
        self.store.append(frame);
        frame.len()
    }

    /// The one frame reader: visits each frame of the longest valid
    /// prefix in order as `(record, payload words, end offset)`, under
    /// the store lock and without copying the store, decoding into one
    /// reused word buffer. The walk stops at the first torn frame (length
    /// field past the end), length-field corruption, checksum mismatch,
    /// or undecodable payload, and returns the prefix's byte length.
    /// `visit` runs under the lock, so it must not touch the store.
    pub(crate) fn walk(&self, mut visit: impl FnMut(Record, &[u64], usize)) -> usize {
        self.store.with(|bytes| {
            let mut words = Vec::new();
            let mut at = 0;
            while let Some(payload) = payload_at(bytes, at) {
                words.clear();
                words.extend(payload.chunks_exact(8).map(|c| {
                    let mut w = [0u8; 8];
                    w.copy_from_slice(c);
                    u64::from_le_bytes(w)
                }));
                let Some(record) = Record::decode(&words) else { break };
                at += HEADER + payload.len();
                visit(record, &words, at);
            }
            at
        })
    }

    /// Scans the longest valid frame prefix, returning the decoded
    /// records and the byte length of that prefix.
    pub fn scan(&self) -> (Vec<Record>, usize) {
        let mut records = Vec::new();
        let len = self.walk(|record, _, _| records.push(record));
        (records, len)
    }

    /// Crash recovery in one pass: hands every committed record to
    /// `replay` in journal order, then truncates the store back to the
    /// end of the last [`Record::Commit`] frame, discarding torn frames
    /// and valid but uncommitted records. Records are held back only
    /// until the commit that covers them, so the pass keeps one input's
    /// records, never the journal. `replay` runs under the store lock.
    pub fn recover(&mut self, mut replay: impl FnMut(Record)) -> Recovery {
        let total = self.store.len();
        let mut pending = Vec::new();
        let mut committed_len = 0;
        self.walk(|record, _, end| {
            let commit = matches!(record, Record::Commit { .. });
            pending.push(record);
            if commit {
                pending.drain(..).for_each(&mut replay);
                committed_len = end;
            }
        });
        self.store.truncate(committed_len);
        Recovery { truncated_bytes: total - committed_len, uncommitted_records: pending.len() }
    }

    /// The journal's digest: the trace fingerprint of every
    /// committed-or-not valid record, in order. Byte-identical journals digest identically, and
    /// because every state mutation flows through the journal this is
    /// the run's canonical trace digest. It equals [`records_digest`]
    /// of [`Journal::scan`]'s records, read off the frames in place.
    pub(crate) fn digest(&self) -> String {
        let mut hasher = concilium_sim::TraceHasher::new();
        self.walk(|record, words, _| hasher.record(record.label(), words));
        hasher.hex()
    }
}

/// The trace fingerprint of a record sequence — what `Journal::digest`
/// reads off the frames — for comparing replayed prefixes.
pub fn records_digest(records: &[Record]) -> String {
    let mut hasher = concilium_sim::TraceHasher::new();
    for rec in records {
        hasher.record(rec.label(), &rec.encode());
    }
    hasher.hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::LinkObs;
    use concilium_types::SimTime;

    fn admitted(seq: u64, input: u64, id: u64) -> Record {
        Record::Admitted {
            seq,
            input,
            report: FailureReport {
                id,
                judge: 1,
                accused: 2,
                arrival: SimTime::from_micros(10 * id),
                evidence_at: SimTime::from_micros(9 * id),
                links: vec![LinkObs { link: 4, up: 1, down: 2 }],
            },
        }
    }

    fn commit(seq: u64, next_input: u64) -> Record {
        Record::Commit { seq, next_input, clock_us: 1_000 * next_input }
    }

    #[test]
    fn every_record_kind_round_trips() {
        let records = vec![
            admitted(0, 0, 100),
            Record::Shed { seq: 1, input: 1, report_id: 101, reason: ShedReason::DeadlineExceeded },
            Record::BatchStarted { seq: 2, batch: 0, start_us: 50, report_ids: vec![100, 102] },
            Record::VerdictRecorded {
                seq: 3,
                report_id: 100,
                batch: 0,
                judge: 1,
                accused: 2,
                guilty: true,
            },
            Record::AccusationFiled { seq: 4, judge: 1, accused: 2, guilty_count: 3 },
            commit(5, 2),
        ];
        for rec in &records {
            assert_eq!(Record::decode(&rec.encode()).as_ref(), Some(rec));
        }
        let mut j = Journal::new();
        let mut frames = Vec::new();
        for rec in &records {
            frames.push(j.append(rec));
        }
        let (scanned, len) = j.scan();
        assert_eq!(scanned, records);
        assert_eq!(len, j.store().len());
        assert_eq!(j.digest(), records_digest(&records));
        // Each frame is its header plus the words `encode` lists, and the
        // admission and batch size formulas count those words.
        for (rec, frame) in records.iter().zip(frames) {
            assert_eq!(frame, 12 + 8 * rec.encode().len());
        }
        if let Record::Admitted { report, .. } = &records[0] {
            assert_eq!(Record::admitted_words(report), records[0].encode().len());
        }
        assert_eq!(Record::batch_words(2), records[2].encode().len());
    }

    #[test]
    fn appends_write_the_documented_frame_layout() {
        // The frame layout written out by hand: length, the first eight
        // bytes of sha256(payload), the little-endian words.
        let rec = Record::BatchStarted { seq: 9, batch: 2, start_us: 70, report_ids: vec![5, 6] };
        let payload: Vec<u8> = rec.encode().iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut want = (payload.len() as u32).to_le_bytes().to_vec();
        want.extend_from_slice(&sha256(&payload).0[..8]);
        want.extend_from_slice(&payload);
        let mut j = Journal::new();
        j.append(&commit(0, 1));
        let before = j.store().len();
        assert_eq!(j.append(&rec), want.len());
        assert_eq!(j.store().snapshot()[before..], want[..]);
    }

    #[test]
    fn counts_are_bounded_by_the_frame_not_a_constant() {
        // A report far past the old 4,096-link decoder cap, and a batch
        // past the old 65,536-id cap, still decode: the frame bounds them.
        let mut big = admitted(0, 0, 100);
        if let Record::Admitted { report, .. } = &mut big {
            report.links = (0..5_000).map(|l| LinkObs { link: l, up: 0, down: 0 }).collect();
        }
        let batch = Record::BatchStarted {
            seq: 1,
            batch: 0,
            start_us: 0,
            report_ids: (0..70_000).collect(),
        };
        for rec in [big, batch] {
            assert_eq!(Record::decode(&rec.encode()).as_ref(), Some(&rec));
        }
        // A count that claims more words than are present, or a guilty
        // flag that would not re-encode, is refused.
        let mut short = Record::BatchStarted { seq: 1, batch: 0, start_us: 0, report_ids: vec![4] }
            .encode();
        short[4] = u64::MAX;
        assert_eq!(Record::decode(&short), None);
        let mut flag = Record::VerdictRecorded {
            seq: 0,
            report_id: 1,
            batch: 0,
            judge: 1,
            accused: 2,
            guilty: true,
        }
        .encode();
        flag[6] = 2;
        assert_eq!(Record::decode(&flag), None);
    }

    #[test]
    fn trailing_words_are_rejected() {
        let mut words = commit(0, 1).encode();
        words.push(7);
        assert_eq!(Record::decode(&words), None);
    }

    #[test]
    fn recovery_truncates_to_the_last_commit() {
        let mut j = Journal::new();
        j.append(&admitted(0, 0, 100));
        j.append(&commit(1, 1));
        j.append(&admitted(2, 1, 101)); // valid but uncommitted
        let before = j.store().len();
        let mut replayed = Vec::new();
        let rec = j.recover(|r| replayed.push(r));
        assert_eq!(replayed, vec![admitted(0, 0, 100), commit(1, 1)]);
        assert_eq!(j.scan().0, replayed);
        assert_eq!(rec.uncommitted_records, 1);
        assert!(rec.truncated_bytes > 0 && rec.truncated_bytes < before);
        // Idempotent: recovering again finds nothing more to drop.
        let mut again = 0;
        let rec = j.recover(|_| again += 1);
        assert_eq!(again, 2);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.uncommitted_records, 0);
    }

    #[test]
    fn torn_tail_is_detected_and_dropped() {
        let mut j = Journal::new();
        j.append(&admitted(0, 0, 100));
        j.append(&commit(1, 1));
        let clean_len = j.store().len();
        // A torn frame: a plausible header but half the payload missing.
        j.store().append(&[16, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9]);
        let mut replayed = 0;
        j.recover(|_| replayed += 1);
        assert_eq!(replayed, 2);
        assert_eq!(j.store().len(), clean_len);
    }

    #[test]
    fn checksum_flip_ends_the_valid_prefix() {
        let mut j = Journal::new();
        j.append(&commit(0, 1));
        j.append(&commit(1, 2));
        let mut bytes = j.store().snapshot();
        // Flip one bit in the second frame's payload.
        let second_start = bytes.len() / 2;
        let target = second_start + 13;
        bytes[target] ^= 0x40;
        let mut corrupt = Journal::over(SharedStore::from_bytes(bytes));
        let (records, _) = corrupt.scan();
        assert_eq!(records.len(), 1, "corrupt second frame must end the prefix");
        let mut replayed = Vec::new();
        corrupt.recover(|r| replayed.push(r));
        assert_eq!(replayed, vec![commit(0, 1)]);
    }

    #[test]
    fn an_unknown_shed_reason_ends_the_valid_prefix() {
        // Every reason round-trips through its code…
        for (reason, ..) in ShedReason::ALL {
            let rec = Record::Shed { seq: 0, input: 0, report_id: 7, reason };
            assert_eq!(Record::decode(&rec.encode()), Some(rec));
        }
        // …and a checksum-valid frame with a code no reason has is
        // malformed, not a shed "for some reason".
        let mut j = Journal::new();
        j.append(&commit(0, 1));
        let payload: Vec<u8> = [2u64, 1, 1, 7, 4].iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&sha256(&payload).0[..8]);
        frame.extend_from_slice(&payload);
        j.store().append(&frame);
        j.append(&commit(2, 2));
        let (records, _) = j.scan();
        assert_eq!(records, vec![commit(0, 1)], "the code-4 frame must end the prefix");
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let mut a = Journal::new();
        a.append(&commit(0, 1));
        let mut b = Journal::new();
        b.append(&commit(0, 1));
        assert_eq!(a.digest(), b.digest());
        b.append(&commit(1, 2));
        assert_ne!(a.digest(), b.digest());
    }
}
