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
pub(crate) const P: u64 = 0x3fff_ffff_ffff_d6bb;

/// Prime order of the subgroup, `q = (p − 1) / 2`.
pub(crate) const Q: u64 = 0x1fff_ffff_ffff_eb5d;

/// Generator of the order-`q` subgroup (a quadratic residue).
pub(crate) const G: u64 = 4;

/// Modular multiplication via 128-bit intermediates.
const fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Montgomery arithmetic over an odd modulus `m < 2^63`, radix `R = 2^64`.
///
/// Signing and verifying both reduce to exponentiation, which the DST runs
/// on every acknowledgment and accusation — tens of thousands of times per
/// sweep. Naive square-and-multiply pays a 128-bit division (`__umodti3`)
/// per step; Montgomery replaces each with two 64×64 multiplies and a
/// shift while computing *exactly* the same residues, so signatures and
/// digests are unchanged. The group's two moduli have their constants
/// derived at compile time ([`MONT_P`], [`MONT_Q`]).
struct Mont {
    m: u64,
    /// `-m^{-1} mod 2^64`.
    neg_inv: u64,
    /// `R^2 mod m`, for converting into Montgomery form.
    r2: u64,
}

impl Mont {
    const fn new(m: u64) -> Self {
        assert!(m & 1 == 1 && m > 1 && m < 1 << 63, "Montgomery form needs an odd m < 2^63");
        // Newton–Hensel lifting: `inv = 1` is `m^{-1} mod 2` for any odd
        // `m`, and each iteration doubles the number of valid low bits,
        // so six iterations reach `mod 2^64`.
        let mut inv: u64 = 1;
        let mut i = 0;
        while i < 6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
            i += 1;
        }
        assert!(m.wrapping_mul(inv) == 1, "Newton–Hensel lifting must reach the inverse mod 2^64");
        let r1 = ((1u128 << 64) % m as u128) as u64;
        Mont { m, neg_inv: inv.wrapping_neg(), r2: mul_mod(r1, r1, m) }
    }

    /// Montgomery reduction: `t·R^{-1} mod m` for `t < m·R`.
    const fn redc(&self, t: u128) -> u64 {
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
    const fn mul(&self, a: u64, b: u64) -> u64 {
        self.redc(a as u128 * b as u128)
    }

    /// Converts `x < m` into Montgomery form (`x·R mod m`).
    const fn to_mont(&self, x: u64) -> u64 {
        self.redc(x as u128 * self.r2 as u128)
    }

    /// Converts a Montgomery-form value back (`x·R^{-1} mod m`).
    const fn to_plain(&self, x: u64) -> u64 {
        self.redc(x as u128)
    }

    /// `base^exp` by square-and-multiply, both in Montgomery form.
    fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        let mut acc = self.to_mont(1);
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }
}

/// Montgomery constants of the group modulus `p`.
const MONT_P: Mont = Mont::new(P);

/// Montgomery constants of the subgroup order `q`.
const MONT_Q: Mont = Mont::new(Q);

/// `x·y mod q`, by two Montgomery reductions instead of a 128-bit division.
fn mul_mod_q(x: u64, y: u64) -> u64 {
    MONT_Q.mul(MONT_Q.to_mont(x % Q), y % Q)
}

/// `G^(d·256^w)` in Montgomery form at `[w][d]`: one row per byte of a
/// 64-bit exponent. 16 KB, evaluated at compile time.
static G_TABLE: [[u64; 256]; 8] = {
    let mut table = [[0u64; 256]; 8];
    let mut unit = MONT_P.to_mont(G); // G^(256^w)
    let mut w = 0;
    while w < 8 {
        let mut acc = MONT_P.to_mont(1);
        let mut d = 0;
        while d < 256 {
            table[w][d] = acc;
            acc = MONT_P.mul(acc, unit);
            d += 1;
        }
        unit = acc; // G^(256·256^w)
        w += 1;
    }
    table
};

/// `G^exp` in Montgomery form: one table entry per exponent byte, so 7
/// multiplies where square-and-multiply needs about 93.
fn g_pow_mont(exp: u64) -> u64 {
    let bytes = exp.to_le_bytes();
    let mut acc = G_TABLE[0][usize::from(bytes[0])];
    for (row, &byte) in G_TABLE.iter().zip(&bytes).skip(1) {
        acc = MONT_P.mul(acc, row[usize::from(byte)]);
    }
    acc
}

/// `G^exp mod p`.
fn g_pow(exp: u64) -> u64 {
    MONT_P.to_plain(g_pow_mont(exp))
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
    pub(crate) const fn element(&self) -> u64 {
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
        let gs = g_pow_mont(sig.s);
        let y_neg_e = MONT_P.pow(MONT_P.to_mont(self.0 % P), Q - (sig.e % Q));
        let r = MONT_P.to_plain(MONT_P.mul(gs, y_neg_e));
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
    pub(crate) const fn challenge_scalar(&self) -> u64 {
        self.e
    }

    /// The response scalar.
    pub(crate) const fn response_scalar(&self) -> u64 {
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
            public: PublicKey(g_pow(x)),
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
            let r = g_pow(k);
            let e = challenge(r, msg);
            if e == 0 {
                continue; // astronomically unlikely; retry for a clean proof
            }
            // k, x·e < q, so one conditional subtraction reduces the sum.
            let s = k + mul_mod_q(self.secret.0, e);
            return Signature { e, s: if s >= Q { s - Q } else { s } };
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

    /// Exponentiation in Montgomery form for any odd modulus below 2^63.
    fn pow_mod(base: u64, exp: u64, m: u64) -> u64 {
        let mont = Mont::new(m);
        mont.to_plain(mont.pow(mont.to_mont(base % m), exp))
    }

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

    /// Keys and signatures as the square-and-multiply implementation
    /// produced them, before the fixed-base table: `(rng seed, message,
    /// public key, e, s)`, each key drawn first and then the three
    /// messages signed in order from the same rng.
    const KNOWN_ANSWERS: [(u64, &str, u64, u64, u64); 9] = [
        (1, "", 0x3d16c07d043afd1b, 0x069a3673fe8dec49, 0x1ba0c0e5a217f04d),
        (1, "concilium", 0x3d16c07d043afd1b, 0x1879714b61b8b1ad, 0x146e2ab367e88041),
        (1, "ack 0 -> 1", 0x3d16c07d043afd1b, 0x1f218cad410bb7e1, 0x0ce4d4eb326cd011),
        (2, "", 0x1b9cd3a30d12bcd4, 0x06638c4a401e72ad, 0x054fd79e0c8e7052),
        (2, "concilium", 0x1b9cd3a30d12bcd4, 0x1499beb57d1f02e2, 0x19a23639a640d4f8),
        (2, "ack 0 -> 1", 0x1b9cd3a30d12bcd4, 0x1744aff25b9d94b0, 0x0a6055c7831fc55b),
        (2007, "", 0x2fa45a7f6eabbdd8, 0x11cc3c42e160a7ae, 0x17db28449891a3a7),
        (2007, "concilium", 0x2fa45a7f6eabbdd8, 0x073994485e02745e, 0x1999de3c27947723),
        (2007, "ack 0 -> 1", 0x2fa45a7f6eabbdd8, 0x0bd94d949c26d839, 0x021e25c0f3dfd757),
    ];

    #[test]
    fn keys_and_signatures_match_known_answers() {
        for rows in KNOWN_ANSWERS.chunks(3) {
            let mut rng = StdRng::seed_from_u64(rows[0].0);
            let kp = KeyPair::generate(&mut rng);
            for &(seed, msg, y, e, s) in rows {
                assert_eq!(kp.public(), PublicKey(y), "seed {seed}");
                let sig = kp.sign(msg.as_bytes(), &mut rng);
                assert_eq!(sig, Signature { e, s }, "seed {seed}, message {msg:?}");
                assert!(kp.public().verify(msg.as_bytes(), &sig));
            }
        }
    }

    #[test]
    fn fixed_base_table_matches_reference_at_the_edges() {
        for exp in [0, 1, 255, 256, 65_535, 65_536, Q - 1, Q, u64::MAX] {
            assert_eq!(g_pow(exp), pow_mod_reference(G, exp, P), "exponent {exp:#x}");
        }
    }

    #[test]
    fn montgomery_product_mod_q_matches_reference() {
        for (x, y) in [(0, 0), (1, Q - 1), (Q - 1, Q - 1), (Q, 5), (u64::MAX, u64::MAX)] {
            assert_eq!(mul_mod_q(x, y), mul_mod(x % Q, y % Q, Q), "{x:#x} * {y:#x}");
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

            #[test]
            fn fixed_base_table_matches_reference(exp in any::<u64>()) {
                prop_assert_eq!(g_pow(exp), pow_mod_reference(G, exp, P));
            }

            #[test]
            fn product_mod_q_matches_reference(x in any::<u64>(), y in any::<u64>()) {
                prop_assert_eq!(mul_mod_q(x, y), mul_mod(x % Q, y % Q, Q));
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
