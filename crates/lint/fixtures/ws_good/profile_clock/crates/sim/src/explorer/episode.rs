//! The digest sink; it folds records without touching the profiler.

pub fn emit(record: u64) -> u64 {
    fold(record)
}

fn fold(record: u64) -> u64 {
    record.rotate_left(7)
}
