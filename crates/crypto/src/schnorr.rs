//! Toy Schnorr signatures over a 62-bit safe-prime group.
//!
//! The scheme is the textbook Schnorr construction:
//!
//! * Public parameters: safe prime `p = 2q + 1`, generator `g` of the
//!   order-`q` subgroup of Z*_p.
//! * Key generation: secret `x ∈ [1, q)`, public `y = g^x mod p`.
//! * Signing message `m`: pick `k ∈ [1, q)`, compute `r = g^k mod p`,
//!   challenge `e = H(r ‖ m) mod q`, response `s = k + x·e mod q`.
//!   Signature is `(e, s)`.
//! * Verification: `r' = g^s · y^{-e} mod p`, accept iff
//!   `H(r' ‖ m) mod q == e`.
//!
//! **Not secure** — the group is 62 bits so discrete logs are trivial. The
//! reproduction uses it to exercise Concilium's evidence-verification paths
//! (third parties checking signed snapshots, detecting tampering).

use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::sha256::Sha256;

/// Safe prime modulus `p = 2q + 1` (62 bits).
pub const P: u64 = 0x3fff_ffff_ffff_d6bb;

/// Prime order of the subgroup, `q = (p − 1) / 2`.
pub const Q: u64 = 0x1fff_ffff_ffff_eb5d;

/// Generator of the order-`q` subgroup (a quadratic residue).
pub const G: u64 = 4;

/// Modular multiplication in Z_p via 128-bit intermediates.
fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Montgomery arithmetic over an odd modulus `m < 2^63`, radix `R = 2^64`.
///
/// Signing and verifying both reduce to `pow_mod`, which the DST calls on
/// every acknowledgment and accusation — tens of thousands of times per
/// sweep. Naive square-and-multiply pays a 128-bit division (`__umodti3`)
/// per step; Montgomery replaces each with two 64×64 multiplies and a
/// shift while computing *exactly* the same residues, so signatures and
/// digests are unchanged.
struct Mont {
    m: u64,
    /// `-m^{-1} mod 2^64`.
    neg_inv: u64,
    /// `R^2 mod m`, for converting into Montgomery form.
    r2: u64,
}

impl Mont {
    fn new(m: u64) -> Self {
        debug_assert!(m & 1 == 1 && m > 1);
        // Newton–Hensel lifting: `inv = 1` is `m^{-1} mod 2` for any odd
        // `m`, and each iteration doubles the number of valid low bits,
        // so six iterations reach `mod 2^64`.
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
        }
        debug_assert_eq!(m.wrapping_mul(inv), 1);
        let r1 = ((1u128 << 64) % m as u128) as u64;
        Mont { m, neg_inv: inv.wrapping_neg(), r2: mul_mod(r1, r1, m) }
    }

    /// Montgomery reduction: `t·R^{-1} mod m` for `t < m·R`.
    fn redc(&self, t: u128) -> u64 {
        let k = (t as u64).wrapping_mul(self.neg_inv);
        // Low 64 bits of `t + k·m` cancel by construction of `k`; the sum
        // stays below `2·m·R < 2^128` because `m < 2^63`.
        let u = ((t + k as u128 * self.m as u128) >> 64) as u64;
        if u >= self.m {
            u - self.m
        } else {
            u
        }
    }

    /// Product of two Montgomery-form values, in Montgomery form.
    fn mul(&self, a: u64, b: u64) -> u64 {
        self.redc(a as u128 * b as u128)
    }

    /// Converts `x < m` into Montgomery form (`x·R mod m`).
    fn to_mont(&self, x: u64) -> u64 {
        self.redc(x as u128 * self.r2 as u128)
    }
}

/// Modular exponentiation by squaring, in Montgomery form: the modulus
/// must be odd, as every group operation's is (`p` and `q` are prime).
fn pow_mod(base: u64, mut exp: u64, m: u64) -> u64 {
    debug_assert!(m & 1 == 1, "Montgomery form needs an odd modulus");
    let mont = Mont::new(m);
    let mut base_m = mont.to_mont(base % m);
    let mut acc_m = mont.to_mont(1);
    while exp > 0 {
        if exp & 1 == 1 {
            acc_m = mont.mul(acc_m, base_m);
        }
        base_m = mont.mul(base_m, base_m);
        exp >>= 1;
    }
    mont.redc(acc_m as u128)
}

/// A Schnorr secret key: a scalar in `[1, q)`.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretKey(u64);

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        f.write_str("SecretKey(..)")
    }
}

/// A Schnorr public key: the group element `y = g^x`.
///
/// Public keys double as node identities in accusation storage: the paper
/// keys the accusation DHT by the accused host's public key.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct PublicKey(u64);

impl PublicKey {
    /// The group element.
    pub const fn element(&self) -> u64 {
        self.0
    }

    /// Big-endian byte rendering, for hashing into DHT keys.
    pub fn to_bytes(&self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Verifies `sig` over `msg`.
    ///
    /// Returns `false` for any tampered message, wrong key, or malformed
    /// signature; never panics.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        if sig.s >= Q || sig.e >= Q {
            return false;
        }
        // r' = g^s * y^{-e} = g^s * y^{q-e}   (y has order q)
        let gs = pow_mod(G, sig.s, P);
        let y_neg_e = pow_mod(self.0, Q - (sig.e % Q), P);
        let r = mul_mod(gs, y_neg_e, P);
        challenge(r, msg) == sig.e
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({:016x})", self.0)
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A Schnorr signature `(e, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Signature {
    e: u64,
    s: u64,
}

impl Signature {
    /// The challenge scalar.
    pub const fn challenge_scalar(&self) -> u64 {
        self.e
    }

    /// The response scalar.
    pub const fn response_scalar(&self) -> u64 {
        self.s
    }

    /// A syntactically valid but cryptographically useless signature, for
    /// tests that need a placeholder.
    pub const fn dummy() -> Signature {
        Signature { e: 1, s: 1 }
    }
}

/// A Schnorr key pair.
///
/// # Examples
///
/// ```
/// use concilium_crypto::KeyPair;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let kp = KeyPair::generate(&mut rng);
/// let sig = kp.sign(b"hello", &mut rng);
/// assert!(kp.public().verify(b"hello", &sig));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Generates a fresh key pair from `rng`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let x = rng.gen_range(1..Q);
        KeyPair {
            secret: SecretKey(x),
            public: PublicKey(pow_mod(G, x, P)),
        }
    }

    /// The public half.
    pub const fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `msg`.
    pub fn sign<R: Rng + ?Sized>(&self, msg: &[u8], rng: &mut R) -> Signature {
        loop {
            let k = rng.gen_range(1..Q);
            let r = pow_mod(G, k, P);
            let e = challenge(r, msg);
            if e == 0 {
                continue; // astronomically unlikely; retry for a clean proof
            }
            let s = (k as u128 + mul_mod(self.secret.0, e, Q) as u128) % Q as u128;
            return Signature { e, s: s as u64 };
        }
    }
}

/// `H(r ‖ m) mod q` — the Fiat–Shamir challenge.
fn challenge(r: u64, msg: &[u8]) -> u64 {
    let mut h = Sha256::new();
    h.update(&r.to_be_bytes());
    h.update(msg);
    h.finalize().to_u64() % Q
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn group_parameters_are_consistent() {
        assert_eq!(P, 2 * Q + 1);
        // g generates the order-q subgroup: g^q == 1, g != 1.
        assert_eq!(pow_mod(G, Q, P), 1);
        assert_ne!(G, 1);
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut rng = StdRng::seed_from_u64(42);
        let kp = KeyPair::generate(&mut rng);
        for msg in [&b""[..], b"x", b"a longer message with content"] {
            let sig = kp.sign(msg, &mut rng);
            assert!(kp.public().verify(msg, &sig));
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let mut rng = StdRng::seed_from_u64(43);
        let kp = KeyPair::generate(&mut rng);
        let sig = kp.sign(b"original", &mut rng);
        assert!(!kp.public().verify(b"tampered", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = StdRng::seed_from_u64(44);
        let kp1 = KeyPair::generate(&mut rng);
        let kp2 = KeyPair::generate(&mut rng);
        let sig = kp1.sign(b"msg", &mut rng);
        assert!(!kp2.public().verify(b"msg", &sig));
    }

    #[test]
    fn malformed_signature_rejected() {
        let mut rng = StdRng::seed_from_u64(45);
        let kp = KeyPair::generate(&mut rng);
        let sig = kp.sign(b"msg", &mut rng);
        let bad = Signature { e: sig.e, s: Q }; // out-of-range scalar
        assert!(!kp.public().verify(b"msg", &bad));
        assert!(!kp.public().verify(b"msg", &Signature::dummy()));
    }

    #[test]
    fn signature_component_flip_rejected() {
        let mut rng = StdRng::seed_from_u64(46);
        let kp = KeyPair::generate(&mut rng);
        let sig = kp.sign(b"msg", &mut rng);
        let flip_e = Signature { e: sig.e ^ 1, s: sig.s };
        let flip_s = Signature { e: sig.e, s: sig.s ^ 1 };
        assert!(!kp.public().verify(b"msg", &flip_e));
        assert!(!kp.public().verify(b"msg", &flip_s));
    }

    #[test]
    fn secret_key_debug_is_redacted() {
        let mut rng = StdRng::seed_from_u64(47);
        let kp = KeyPair::generate(&mut rng);
        assert_eq!(format!("{:?}", kp.secret), "SecretKey(..)");
    }

    #[test]
    fn pow_mod_small_cases() {
        assert_eq!(pow_mod(2, 10, 1_000_000_007), 1024);
        assert_eq!(pow_mod(5, 0, 7), 1);
        assert_eq!(pow_mod(0, 5, 7), 0);
    }

    /// Square-and-multiply with plain 128-bit division — the reference the
    /// Montgomery path must match bit-for-bit.
    fn pow_mod_reference(mut base: u64, mut exp: u64, m: u64) -> u64 {
        let mut acc: u64 = 1;
        base %= m;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mul_mod(acc, base, m);
            }
            base = mul_mod(base, base, m);
            exp >>= 1;
        }
        acc
    }

    #[test]
    fn montgomery_matches_reference_on_group_parameters() {
        let mut rng = StdRng::seed_from_u64(48);
        for _ in 0..200 {
            let base = rng.gen_range(0..P);
            let exp = rng.gen_range(0..u64::MAX);
            assert_eq!(pow_mod(base, exp, P), pow_mod_reference(base, exp, P));
            assert_eq!(pow_mod(base, exp, Q), pow_mod_reference(base, exp, Q));
        }
    }

    mod pow_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

            #[test]
            fn montgomery_matches_reference_on_odd_moduli(
                base in any::<u64>(),
                exp in any::<u64>(),
                m in any::<u64>(),
            ) {
                // Clamp to an odd modulus in (1, 2^63): the Montgomery
                // domain. The reference is modulus-agnostic.
                let m = (m % (1u64 << 62)).max(1) * 2 + 1;
                prop_assert_eq!(pow_mod(base % m, exp, m), pow_mod_reference(base % m, exp, m));
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

            #[test]
            fn round_trip_random_messages(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..128)) {
                let mut rng = StdRng::seed_from_u64(seed);
                let kp = KeyPair::generate(&mut rng);
                let sig = kp.sign(&msg, &mut rng);
                prop_assert!(kp.public().verify(&msg, &sig));
            }

            #[test]
            fn appended_byte_rejected(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..64), extra in any::<u8>()) {
                let mut rng = StdRng::seed_from_u64(seed);
                let kp = KeyPair::generate(&mut rng);
                let sig = kp.sign(&msg, &mut rng);
                let mut tampered = msg.clone();
                tampered.push(extra);
                prop_assert!(!kp.public().verify(&tampered, &sig));
            }
        }
    }
}
