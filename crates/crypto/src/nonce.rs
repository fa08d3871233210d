//! Probe nonces.
//!
//! Striped-unicast tomography assumes leaves acknowledge received probes. A
//! faulty or malicious leaf might acknowledge probes that were lost in the
//! network; to detect such spurious responses, the probing node includes a
//! nonce in each probe (§3.3). An acknowledgment is only accepted if it
//! echoes the nonce, which a leaf that never received the probe cannot know.

use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A 64-bit probe nonce.
///
/// # Examples
///
/// ```
/// use concilium_crypto::Nonce;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let n = Nonce::random(&mut rng);
/// assert!(n.matches(n));
/// assert!(!n.matches(Nonce::random(&mut rng)));
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Nonce(u64);

impl Nonce {
    /// Draws a fresh random nonce.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Nonce(rng.gen())
    }

    /// Whether an echoed nonce matches this one.
    pub fn matches(&self, echoed: Nonce) -> bool {
        self.0 == echoed.0
    }
}

impl fmt::Debug for Nonce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nonce({:016x})", self.0)
    }
}

impl fmt::Display for Nonce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_nonces_differ() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Nonce::random(&mut rng);
        let b = Nonce::random(&mut rng);
        assert_ne!(a, b);
        assert!(!a.matches(b));
    }

    #[test]
    fn debug_formats_hex() {
        assert_eq!(format!("{:?}", Nonce(1)), "Nonce(0000000000000001)");
    }
}
