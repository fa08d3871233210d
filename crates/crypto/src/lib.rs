//! Simulation-grade cryptography for the Concilium reproduction.
//!
//! The paper signs tomographic snapshots, forwarding commitments, and fault
//! accusations with PSS-R over 1024-bit RSA keys issued by a central
//! certificate authority. This crate reproduces the *structure* of that
//! machinery from scratch:
//!
//! * [`sha256`](mod@sha256) — a complete, test-vectored SHA-256
//!   implementation used for all message digests and challenge derivation.
//! * [`schnorr`] — a Schnorr signature scheme over a 62-bit safe-prime
//!   group. Structurally a real signature scheme (keygen / sign / verify,
//!   hash-based challenge); parameterised far too small to be secure.
//! * [`cert`] — the central certificate authority that binds a host address
//!   to a public key and a randomly assigned overlay identifier, exactly as
//!   secure routing requires.
//! * [`nonce`] — probe nonces used to detect spurious acknowledgments.
//!
//! # Security
//!
//! **This crate is a simulation substrate, not a security library.** The
//! group is 62 bits; discrete logs in it are trivially computable. The point
//! is to exercise the same code paths a deployment would have (third parties
//! verifying signed evidence, tamper detection, certificate checks), while
//! keeping the reproduction free of external crypto dependencies. Bandwidth
//! accounting elsewhere in the workspace uses the paper's wire sizes
//! (128-byte PSS-R signatures), not this scheme's.
//!
//! # Examples
//!
//! ```
//! use concilium_crypto::{KeyPair, sha256};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let keys = KeyPair::generate(&mut rng);
//! let sig = keys.sign(b"snapshot bytes", &mut rng);
//! assert!(keys.public().verify(b"snapshot bytes", &sig));
//! assert!(!keys.public().verify(b"tampered bytes", &sig));
//! ```

#![deny(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod cert;
pub mod memo;
pub mod nonce;
pub mod schnorr;
pub mod sha256;

pub use cert::{Certificate, CertificateAuthority, CertificateError};
pub use memo::{memo_reset, memo_stats, memo_stats_full, verify_cached, MemoStats};
pub use nonce::Nonce;
pub use schnorr::{KeyPair, PublicKey, SecretKey, Signature};
pub use sha256::{sha256, Digest, Sha256};

/// Types that can be deterministically rendered to bytes for signing.
///
/// Concilium signs snapshots, commitments, verdicts, and accusations. Rather
/// than depend on a serialisation format, each signable type appends a
/// canonical byte rendering of itself to a buffer; signatures are computed
/// over the SHA-256 digest of those bytes.
///
/// Implementations must be *injective enough* for the protocol: two
/// semantically different values must render to different byte strings.
/// The convention used across the workspace is to length-prefix variable
/// length fields and write fixed-width integers big-endian.
pub trait Signable {
    /// Appends the canonical byte rendering of `self` to `out`.
    fn signable_bytes(&self, out: &mut Vec<u8>);

    /// Convenience: renders to a fresh buffer, allocated once at a size
    /// that holds the per-message renderings (an ack is 60–68 bytes, a
    /// forwarding commitment 82), so they never regrow.
    fn to_signable_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        self.signable_bytes(&mut out);
        out
    }

    /// Convenience: the SHA-256 digest of the canonical rendering.
    fn signable_digest(&self) -> Digest {
        sha256(&self.to_signable_vec())
    }
}

impl Signable for [u8] {
    fn signable_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_be_bytes());
        out.extend_from_slice(self);
    }
}

impl Signable for Vec<u8> {
    fn signable_bytes(&self, out: &mut Vec<u8>) {
        self.as_slice().signable_bytes(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signable_slice_is_length_prefixed() {
        let v: Vec<u8> = vec![1, 2, 3];
        let rendered = v.to_signable_vec();
        assert_eq!(rendered.len(), 8 + 3);
        assert_eq!(&rendered[..8], &3u64.to_be_bytes());
        assert_eq!(&rendered[8..], &[1, 2, 3]);
    }

    #[test]
    fn signable_digest_distinguishes_values() {
        let a: Vec<u8> = vec![1, 2, 3];
        let b: Vec<u8> = vec![1, 2, 4];
        assert_ne!(a.signable_digest(), b.signable_digest());
    }
}
