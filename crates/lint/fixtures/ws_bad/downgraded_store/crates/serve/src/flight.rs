//! Anchor stub: the WAL-to-trace projection naming every record tag.

use crate::journal::Record;

pub fn trace_event(rec: &Record) -> u64 {
    match rec {
        Record::Admitted { seq } => *seq,
        Record::Dropped { seq } => *seq,
    }
}
