//! The crate-wide typed error for protocol-reachable failures.
//!
//! Probe records and snapshots arrive from *other hosts*; malformed or
//! incomplete input is a protocol condition, not a programmer bug, so
//! the fallible entry points (`ProbeRecord::try_new`,
//! [`infer_pass_rates_tolerant_batch`](crate::infer::infer_pass_rates_tolerant_batch),
//! [`try_suspicious_leaves`](crate::feedback::try_suspicious_leaves))
//! return this error instead of panicking. The original panicking
//! constructors remain as thin wrappers for callers holding
//! locally-built, known-good data.

use std::fmt;

use crate::infer::InferError;

/// Why a tomography computation could not run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TomographyError {
    /// A probe record carried no stripes.
    EmptyRecord,
    /// A probe record carried no leaves.
    NoLeaves,
    /// A probe record's rows disagree on the leaf count.
    RaggedRecord {
        /// First offending stripe.
        stripe: usize,
        /// Leaves in the first row.
        expected: usize,
        /// Leaves in the offending row.
        found: usize,
    },
    /// The record's leaf count does not match the tree.
    LeafMismatch {
        /// Leaves in the tree.
        tree: usize,
        /// Leaves in the record.
        record: usize,
    },
    /// Every stripe for this node was indeterminate (feedback missing),
    /// so its ack probability cannot be estimated at all.
    NoInformativeStripes {
        /// The starved logical node.
        node: usize,
    },
    /// A threshold parameter is outside its valid range.
    BadThreshold {
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for TomographyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TomographyError::EmptyRecord => {
                write!(f, "a probe record needs at least one stripe")
            }
            TomographyError::NoLeaves => write!(f, "a probe record needs at least one leaf"),
            TomographyError::RaggedRecord { stripe, expected, found } => write!(
                f,
                "ragged probe record: stripe {stripe} has {found} leaves, expected {expected}"
            ),
            TomographyError::LeafMismatch { tree, record } => write!(
                f,
                "probe record has {record} leaves but the tree has {tree}"
            ),
            TomographyError::NoInformativeStripes { node } => {
                write!(f, "node {node} has no informative stripes: all feedback missing")
            }
            TomographyError::BadThreshold { value } => {
                write!(f, "ratio threshold must be in (0,1), got {value}")
            }
        }
    }
}

impl std::error::Error for TomographyError {}

impl From<InferError> for TomographyError {
    fn from(err: InferError) -> Self {
        match err {
            InferError::LeafMismatch { tree, record } => {
                TomographyError::LeafMismatch { tree, record }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_the_historic_panic_messages() {
        // The panicking wrappers format these errors; tests elsewhere
        // match on the original substrings.
        assert!(TomographyError::EmptyRecord.to_string().contains("at least one stripe"));
        assert!(TomographyError::NoLeaves.to_string().contains("at least one leaf"));
        let ragged = TomographyError::RaggedRecord { stripe: 1, expected: 2, found: 1 };
        assert!(ragged.to_string().contains("ragged probe record"));
        let bad = TomographyError::BadThreshold { value: 1.5 };
        assert!(bad.to_string().contains("ratio threshold must be in (0,1), got 1.5"));
    }

    #[test]
    fn infer_error_converts() {
        let e: TomographyError = InferError::LeafMismatch { tree: 2, record: 3 }.into();
        assert_eq!(e, TomographyError::LeafMismatch { tree: 2, record: 3 });
    }
}
