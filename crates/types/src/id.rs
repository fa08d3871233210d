//! 160-bit overlay identifiers with ring arithmetic.

use std::fmt;
use std::str::FromStr;

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Number of bytes in an [`Id`].
pub const ID_BYTES: usize = 20;

/// Number of base-16 digits in an [`Id`] (ℓ in the paper; v = 16).
pub const ID_DIGITS: usize = ID_BYTES * 2;

/// A 160-bit overlay identifier.
///
/// Identifiers live on a circular space of size 2^160 and are viewed as
/// ℓ = 40 hexadecimal digits for prefix routing, matching the paper's
/// default parameters (ℓ is "typically 32 or 40, and v is usually 16").
///
/// The byte at index 0 is the most significant; digit 0 is the high nibble
/// of byte 0.
///
/// # Examples
///
/// ```
/// use concilium_types::Id;
///
/// let id = Id::from_hex("a0000000000000000000000000000000000000ff").unwrap();
/// assert_eq!(id.digit(0), 0xa);
/// assert_eq!(id.digit(39), 0xf);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Id([u8; ID_BYTES]);

impl Id {
    /// The all-zero identifier.
    pub const ZERO: Id = Id([0; ID_BYTES]);

    /// The all-ones identifier (largest point on the ring).
    pub const MAX: Id = Id([0xff; ID_BYTES]);

    /// Creates an identifier from raw big-endian bytes.
    pub const fn from_bytes(bytes: [u8; ID_BYTES]) -> Self {
        Id(bytes)
    }

    /// Returns the raw big-endian bytes.
    pub const fn as_bytes(&self) -> &[u8; ID_BYTES] {
        &self.0
    }

    /// Consumes the identifier, returning its bytes.
    pub const fn into_bytes(self) -> [u8; ID_BYTES] {
        self.0
    }

    /// Parses an identifier from exactly 40 hexadecimal characters.
    ///
    /// # Errors
    ///
    /// Returns [`ParseIdError`] if the string is not exactly
    /// [`ID_DIGITS`] hex characters.
    pub fn from_hex(s: &str) -> Result<Self, ParseIdError> {
        if s.len() != ID_DIGITS {
            return Err(ParseIdError::Length(s.len()));
        }
        let mut bytes = [0u8; ID_BYTES];
        for (i, b) in bytes.iter_mut().enumerate() {
            let chunk = &s[2 * i..2 * i + 2];
            *b = u8::from_str_radix(chunk, 16).map_err(|_| ParseIdError::Digit)?;
        }
        Ok(Id(bytes))
    }

    /// Formats the identifier as 40 lowercase hex characters.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(ID_DIGITS);
        for b in &self.0 {
            use fmt::Write;
            write!(s, "{b:02x}").expect("writing to String cannot fail");
        }
        s
    }

    /// Draws a uniformly random identifier.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; ID_BYTES];
        rng.fill(&mut bytes[..]);
        Id(bytes)
    }

    /// Builds an identifier from a `u64` placed in the low-order bits.
    ///
    /// Mostly useful for tests; real identifiers are assigned by the
    /// certificate authority.
    pub fn from_u64(v: u64) -> Self {
        let mut bytes = [0u8; ID_BYTES];
        bytes[ID_BYTES - 8..].copy_from_slice(&v.to_be_bytes());
        Id(bytes)
    }

    /// The low-order 64 bits, the inverse of [`Id::from_u64`]: the word
    /// journals and chain encodings record per identifier.
    pub fn low_u64(&self) -> u64 {
        let mut word = [0u8; 8];
        word.copy_from_slice(&self.0[ID_BYTES - 8..]);
        u64::from_be_bytes(word)
    }

    /// Returns the `i`-th base-16 digit (0 = most significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= ID_DIGITS`.
    pub fn digit(&self, i: usize) -> u8 {
        assert!(i < ID_DIGITS, "digit index {i} out of range");
        let byte = self.0[i / 2];
        if i.is_multiple_of(2) {
            byte >> 4
        } else {
            byte & 0x0f
        }
    }

    /// Returns a copy of this identifier with the `i`-th digit replaced by
    /// `value`.
    ///
    /// This is the "point p" operation from secure Pastry: the local
    /// identifier with the i-th character substituted with j.
    ///
    /// # Panics
    ///
    /// Panics if `i >= ID_DIGITS` or `value >= 16`.
    pub fn with_digit(&self, i: usize, value: u8) -> Self {
        assert!(i < ID_DIGITS, "digit index {i} out of range");
        assert!(value < 16, "digit value {value} out of range");
        let mut bytes = self.0;
        let b = &mut bytes[i / 2];
        if i.is_multiple_of(2) {
            *b = (*b & 0x0f) | (value << 4);
        } else {
            *b = (*b & 0xf0) | value;
        }
        Id(bytes)
    }

    /// Number of leading base-16 digits shared with `other`.
    pub fn common_prefix_len(&self, other: &Id) -> usize {
        for i in 0..ID_BYTES {
            let x = self.0[i] ^ other.0[i];
            if x != 0 {
                let whole = 2 * i;
                return if x & 0xf0 != 0 { whole } else { whole + 1 };
            }
        }
        ID_DIGITS
    }

    /// Clockwise distance from `self` to `other` on the 2^160 ring
    /// (i.e. `other - self mod 2^160`).
    pub fn clockwise_distance(&self, other: &Id) -> Distance {
        Distance(sub_mod(&other.0, &self.0))
    }

    /// Minimal ring distance between `self` and `other`
    /// (the smaller of the clockwise and counter-clockwise distances).
    pub fn ring_distance(&self, other: &Id) -> Distance {
        let cw = sub_mod(&other.0, &self.0);
        let ccw = sub_mod(&self.0, &other.0);
        if le(&cw, &ccw) {
            Distance(cw)
        } else {
            Distance(ccw)
        }
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({}..{})", &self.to_hex()[..6], &self.to_hex()[ID_DIGITS - 4..])
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl FromStr for Id {
    type Err = ParseIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Id::from_hex(s)
    }
}

impl AsRef<[u8]> for Id {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; ID_BYTES]> for Id {
    fn from(bytes: [u8; ID_BYTES]) -> Self {
        Id(bytes)
    }
}

/// An unsigned 160-bit distance on the identifier ring.
///
/// Distances compare numerically; they exist so leaf-set and secure-routing
/// code can pick "the numerically closest identifier" without converting to
/// a wider integer type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Distance([u8; ID_BYTES]);

impl Distance {
    /// Zero distance.
    pub const ZERO: Distance = Distance([0; ID_BYTES]);

    /// Returns the distance truncated to an `f64`.
    ///
    /// Accurate to 53 bits of mantissa; used only for statistics such as
    /// leaf-set spacing estimation, never for routing decisions.
    pub fn to_f64(self) -> f64 {
        let mut acc = 0.0f64;
        for b in self.0 {
            acc = acc * 256.0 + b as f64;
        }
        acc
    }

    /// Returns the raw big-endian bytes of the distance.
    pub const fn as_bytes(&self) -> &[u8; ID_BYTES] {
        &self.0
    }
}

/// `a - b mod 2^160` over big-endian byte arrays.
fn sub_mod(a: &[u8; ID_BYTES], b: &[u8; ID_BYTES]) -> [u8; ID_BYTES] {
    let mut out = [0u8; ID_BYTES];
    let mut borrow = 0i16;
    for i in (0..ID_BYTES).rev() {
        let mut v = a[i] as i16 - b[i] as i16 - borrow;
        if v < 0 {
            v += 256;
            borrow = 1;
        } else {
            borrow = 0;
        }
        out[i] = v as u8;
    }
    out
}

/// Big-endian unsigned comparison `a <= b`.
fn le(a: &[u8; ID_BYTES], b: &[u8; ID_BYTES]) -> bool {
    for i in 0..ID_BYTES {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    true
}

/// Error returned when parsing an [`Id`] from text fails.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParseIdError {
    /// The input did not contain exactly [`ID_DIGITS`] characters.
    Length(usize),
    /// The input contained a non-hexadecimal character.
    Digit,
}

impl fmt::Display for ParseIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseIdError::Length(n) => {
                write!(f, "expected {ID_DIGITS} hex characters, found {n}")
            }
            ParseIdError::Digit => f.write_str("invalid hexadecimal character"),
        }
    }
}

impl std::error::Error for ParseIdError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn low_u64_inverts_from_u64() {
        for v in [0, 1, 42, u64::MAX / 3, u64::MAX] {
            assert_eq!(Id::from_u64(v).low_u64(), v);
        }
        // Only the low word survives: high bytes are dropped, not folded.
        let mut rng = StdRng::seed_from_u64(5);
        let id = Id::random(&mut rng);
        let low = Id::from_u64(id.low_u64());
        assert_eq!(low.as_bytes()[..ID_BYTES - 8], [0; ID_BYTES - 8]);
        assert_eq!(low.as_bytes()[ID_BYTES - 8..], id.as_bytes()[ID_BYTES - 8..]);
    }

    #[test]
    fn hex_round_trip() {
        let s = "0123456789abcdef0123456789abcdef01234567";
        let id = Id::from_hex(s).unwrap();
        assert_eq!(id.to_hex(), s);
    }

    #[test]
    fn hex_rejects_bad_length() {
        assert_eq!(Id::from_hex("abc"), Err(ParseIdError::Length(3)));
        assert_eq!(Id::from_hex(""), Err(ParseIdError::Length(0)));
    }

    #[test]
    fn hex_rejects_bad_digit() {
        let s = "g123456789abcdef0123456789abcdef01234567";
        assert_eq!(Id::from_hex(s), Err(ParseIdError::Digit));
    }

    #[test]
    fn from_str_parses() {
        let s = "0123456789abcdef0123456789abcdef01234567";
        let id: Id = s.parse().unwrap();
        assert_eq!(id.to_hex(), s);
    }

    #[test]
    fn digit_extraction() {
        let id = Id::from_hex("a5000000000000000000000000000000000000cb").unwrap();
        assert_eq!(id.digit(0), 0xa);
        assert_eq!(id.digit(1), 0x5);
        assert_eq!(id.digit(38), 0xc);
        assert_eq!(id.digit(39), 0xb);
    }

    #[test]
    fn with_digit_substitutes() {
        let id = Id::ZERO;
        let p = id.with_digit(0, 0xf).with_digit(39, 0x3);
        assert_eq!(p.digit(0), 0xf);
        assert_eq!(p.digit(39), 0x3);
        // Unsubstituted digits remain zero.
        for i in 1..39 {
            assert_eq!(p.digit(i), 0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_digit_panics_on_large_value() {
        let _ = Id::ZERO.with_digit(0, 16);
    }

    #[test]
    fn common_prefix() {
        let a = Id::from_hex("ffff000000000000000000000000000000000000").unwrap();
        let b = Id::from_hex("fff7000000000000000000000000000000000000").unwrap();
        assert_eq!(a.common_prefix_len(&b), 3);
        assert_eq!(a.common_prefix_len(&a), ID_DIGITS);
    }

    #[test]
    fn clockwise_distance_wraps() {
        let a = Id::MAX;
        let b = Id::from_u64(4); // 5 steps clockwise from MAX
        let d = a.clockwise_distance(&b);
        assert_eq!(d.to_f64(), 5.0);
    }

    #[test]
    fn ring_distance_is_symmetric_and_minimal() {
        let a = Id::from_u64(10);
        let b = Id::from_u64(2);
        assert_eq!(a.ring_distance(&b), b.ring_distance(&a));
        assert_eq!(a.ring_distance(&b).to_f64(), 8.0);

        // Wrap-around: distance between MAX and ZERO is 1, not 2^160 - 1.
        assert_eq!(Id::MAX.ring_distance(&Id::ZERO).to_f64(), 1.0);
    }

    #[test]
    fn distance_ordering() {
        let near = Id::from_u64(1).ring_distance(&Id::from_u64(3));
        let far = Id::from_u64(1).ring_distance(&Id::from_u64(1000));
        assert!(near < far);
        assert_eq!(Id::from_u64(7).ring_distance(&Id::from_u64(7)), Distance::ZERO);
    }

    #[test]
    fn random_ids_differ() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Id::random(&mut rng);
        let b = Id::random(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_is_nonempty_and_short() {
        let d = format!("{:?}", Id::ZERO);
        assert!(d.starts_with("Id("));
        assert!(d.len() < 24);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_id() -> impl Strategy<Value = Id> {
            proptest::array::uniform20(any::<u8>()).prop_map(Id::from_bytes)
        }

        proptest! {
            #[test]
            fn hex_round_trips(id in arb_id()) {
                prop_assert_eq!(Id::from_hex(&id.to_hex()).unwrap(), id);
            }

            #[test]
            fn prefix_len_symmetric(a in arb_id(), b in arb_id()) {
                prop_assert_eq!(a.common_prefix_len(&b), b.common_prefix_len(&a));
            }

            #[test]
            fn with_digit_sets_digit(id in arb_id(), i in 0usize..ID_DIGITS, v in 0u8..16) {
                let out = id.with_digit(i, v);
                prop_assert_eq!(out.digit(i), v);
                // All other digits unchanged.
                for j in 0..ID_DIGITS {
                    if j != i {
                        prop_assert_eq!(out.digit(j), id.digit(j));
                    }
                }
            }

            #[test]
            fn cw_ccw_distances_sum_to_zero_mod(a in arb_id(), b in arb_id()) {
                // d(a->b) + d(b->a) == 0 mod 2^160 when a != b means the two
                // byte arrays are exact complements; check via round trip:
                let cw = a.clockwise_distance(&b);
                let ccw = b.clockwise_distance(&a);
                if a == b {
                    prop_assert_eq!(cw, Distance::ZERO);
                    prop_assert_eq!(ccw, Distance::ZERO);
                } else {
                    // min distance is <= 2^159, i.e. ring_distance is the
                    // smaller of the two.
                    let rd = a.ring_distance(&b);
                    prop_assert!(rd <= cw && rd <= ccw);
                    prop_assert!(rd == cw || rd == ccw);
                }
            }

            #[test]
            fn prefix_len_matches_digits(a in arb_id(), b in arb_id()) {
                let p = a.common_prefix_len(&b);
                for i in 0..p {
                    prop_assert_eq!(a.digit(i), b.digit(i));
                }
                if p < ID_DIGITS {
                    prop_assert_ne!(a.digit(p), b.digit(p));
                }
            }
        }
    }
}
