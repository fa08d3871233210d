//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! Used for all digests in the workspace: snapshot hashes, Schnorr
//! challenges, probe-nonce derivation, DHT keys, the DST's chained trace
//! hash and the daemon's journal-frame checksums. Verified against the
//! official NIST test vectors in the unit tests.
//!
//! # Two compression kernels, one digest
//!
//! The compression function exists twice. [`Sha256`] picks per call, from
//! what it observes in its host and nothing else (no cargo feature, env
//! var or build flag):
//!
//! * on x86-64, when `is_x86_feature_detected!` reports `sha` (with
//!   `sse2`, `ssse3`, `sse4.1`), the SHA-NI kernel in the private `shani`
//!   module — two rounds per `sha256rnds2` instruction, the message
//!   schedule in `sha256msg1`/`sha256msg2`;
//! * on every other CPU and every other target, the portable scalar
//!   rounds of `compress_scalar`.
//!
//! Both compute the FIPS 180-4 function, so every digest is bit-identical
//! whichever runs. The scalar path stays for two reasons: it is the only
//! one that runs where the instruction is absent, and it is the oracle
//! the differential test drives the SHA-NI kernel against.
//!
//! The SHA-NI kernel is a *safe* `#[target_feature]` function built from
//! value intrinsics only — words go in through `_mm_set_epi32`, come out
//! through `_mm_extract_epi32`, and no pointer is ever handed to an
//! intrinsic — so nothing in it can touch memory the borrow checker has
//! not vouched for. What safe Rust cannot express is the promise that the
//! CPU has the instructions; that promise is the one `unsafe` call in
//! [`Sha256`]'s dispatch, sitting under the detection it depends on. It is
//! the only `unsafe` in the workspace's first-party code (`tests/lint.rs`
//! holds that count at one).

use std::fmt;

use serde::{Deserialize, Serialize};

/// A 256-bit SHA-256 digest.
///
/// # Examples
///
/// ```
/// use concilium_crypto::sha256;
///
/// let d = sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Returns the digest bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Formats the digest as 64 lowercase hex characters.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            use fmt::Write;
            #[expect(clippy::expect_used, reason = "fmt::Write to String is infallible")]
            write!(s, "{b:02x}").expect("writing to String cannot fail");
        }
        s
    }

    /// Interprets the first 8 bytes as a big-endian `u64`.
    ///
    /// Used to derive group scalars and nonce material from digests.
    #[expect(clippy::expect_used, reason = "slice length is the fixed 32-byte digest")]
    pub fn to_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest has 32 bytes"))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..8])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use concilium_crypto::sha256::{Sha256, Digest};
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), concilium_crypto::sha256(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0; 64], buf_len: 0, total_len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            #[expect(clippy::expect_used, reason = "loop condition guarantees 64 bytes remain")]
            let block: [u8; 64] = data[..64].try_into().expect("64-byte chunk");
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        const PAD: [u8; 64] = {
            let mut p = [0u8; 64];
            p[0] = 0x80;
            p
        };
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian bit length — absorbed in
        // one update (the shortest run that lands `buf_len` on 56 mod 64)
        // rather than a byte at a time.
        let pad_len = 1 + (119 - self.buf_len) % 64;
        self.update(&PAD[..pad_len]);
        debug_assert_eq!(self.buf_len, 56);
        // Manually absorb the length without touching total_len bookkeeping.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// Folds the 64-byte `block` into the state with whichever kernel the
    /// host supports.
    ///
    /// This is the hottest function in the workspace: the DST's chained
    /// trace hash runs it two or three times per simulated event, and the
    /// daemon once or more per journal frame. The two kernels are
    /// bit-identical (FIPS 180-4); the differential tests in this file
    /// drive them from the same states and blocks.
    fn compress(&mut self, block: &[u8; 64]) {
        if !self.compress_shani(block) {
            self.compress_scalar(block);
        }
    }

    /// Runs the SHA-NI kernel if this host has it and says whether it did;
    /// on `false` the state is untouched.
    ///
    /// The rule is what the code observes in its host: x86-64 with `sha`,
    /// `sse2`, `ssse3` and `sse4.1` detected (a cached atomic load after
    /// the first call). Other targets compile the `false` arm only.
    #[cfg_attr(
        not(target_arch = "x86_64"),
        expect(unused_variables, reason = "only the x86_64 arm reads the block")
    )]
    fn compress_shani(&mut self, block: &[u8; 64]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("sse2")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
        {
            #[expect(
                unsafe_code,
                reason = "the SHA-NI kernel needs CPU features safe code cannot promise; detected just above"
            )]
            // SAFETY: every CPU feature `shani::compress` enables was detected on this host just above.
            unsafe {
                shani::compress(&mut self.state, block)
            };
            return true;
        }
        false
    }

    /// The portable compression function.
    ///
    /// It uses the textbook optimizations — a 16-word ring for the message
    /// schedule instead of the expanded 64-word array, and fully unrolled
    /// rounds with register *renaming* in place of the 8-way shuffle — and
    /// produces bit-identical digests to the straightforward form (the
    /// NIST vectors below and the chained-trace goldens both pin it).
    #[expect(clippy::expect_used, reason = "chunks_exact(4) yields exactly 4 bytes")]
    fn compress_scalar(&mut self, block: &[u8; 64]) {
        #[inline(always)]
        fn sig0(x: u32) -> u32 {
            x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
        }
        #[inline(always)]
        fn sig1(x: u32) -> u32 {
            x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
        }

        let mut w = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;

        // One round with the working variables in the positions they hold
        // for that round; callers rotate the *names*, not the values.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {{
                let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
                let ch = ($e & $f) ^ (!$e & $g);
                let t1 = $h.wrapping_add(s1).wrapping_add(ch).wrapping_add($kw);
                let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
                let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(s0.wrapping_add(maj));
            }};
        }

        macro_rules! sixteen_rounds {
            ($t:expr) => {{
                round!(a, b, c, d, e, f, g, h, K[$t].wrapping_add(w[0]));
                round!(h, a, b, c, d, e, f, g, K[$t + 1].wrapping_add(w[1]));
                round!(g, h, a, b, c, d, e, f, K[$t + 2].wrapping_add(w[2]));
                round!(f, g, h, a, b, c, d, e, K[$t + 3].wrapping_add(w[3]));
                round!(e, f, g, h, a, b, c, d, K[$t + 4].wrapping_add(w[4]));
                round!(d, e, f, g, h, a, b, c, K[$t + 5].wrapping_add(w[5]));
                round!(c, d, e, f, g, h, a, b, K[$t + 6].wrapping_add(w[6]));
                round!(b, c, d, e, f, g, h, a, K[$t + 7].wrapping_add(w[7]));
                round!(a, b, c, d, e, f, g, h, K[$t + 8].wrapping_add(w[8]));
                round!(h, a, b, c, d, e, f, g, K[$t + 9].wrapping_add(w[9]));
                round!(g, h, a, b, c, d, e, f, K[$t + 10].wrapping_add(w[10]));
                round!(f, g, h, a, b, c, d, e, K[$t + 11].wrapping_add(w[11]));
                round!(e, f, g, h, a, b, c, d, K[$t + 12].wrapping_add(w[12]));
                round!(d, e, f, g, h, a, b, c, K[$t + 13].wrapping_add(w[13]));
                round!(c, d, e, f, g, h, a, b, K[$t + 14].wrapping_add(w[14]));
                round!(b, c, d, e, f, g, h, a, K[$t + 15].wrapping_add(w[15]));
            }};
        }

        // Advances the 16-word ring by sixteen schedule positions. In
        // ascending `j`, slots `(j + 9) & 15` and `(j + 14) & 15` that have
        // wrapped were already overwritten this pass — which is exactly
        // W[t+j+9] and W[t+j+14] of the expanded schedule.
        macro_rules! advance_schedule {
            () => {{
                for j in 0..16 {
                    w[j] = w[j]
                        .wrapping_add(sig0(w[(j + 1) & 15]))
                        .wrapping_add(w[(j + 9) & 15])
                        .wrapping_add(sig1(w[(j + 14) & 15]));
                }
            }};
        }

        sixteen_rounds!(0);
        advance_schedule!();
        sixteen_rounds!(16);
        advance_schedule!();
        sixteen_rounds!(32);
        advance_schedule!();
        sixteen_rounds!(48);

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

/// Hashes `data` in one shot.
///
/// # Examples
///
/// ```
/// let d = concilium_crypto::sha256(b"");
/// assert_eq!(
///     d.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// The compression function on the x86 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::K;

    /// Four consecutive words as one vector, `w[0]` in the lowest lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lanes(w: &[u32]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    /// Rounds `4g..4g + 4` over the schedule words `m = W[4g..4g + 4]`.
    /// The state travels split the way `sha256rnds2` wants it, {a,b,e,f}
    /// and {c,d,g,h} with the first-named in the highest lane; each call
    /// runs two rounds and turns one half into the next-but-one.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: __m128i, cdgh: __m128i, m: __m128i, g: usize) -> (__m128i, __m128i) {
        let wk = _mm_add_epi32(m, lanes(&K[4 * g..4 * g + 4]));
        let cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        let abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        (abef, cdgh)
    }

    /// The next four schedule words from the previous sixteen, oldest
    /// first: W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]. `msg1`
    /// supplies the σ0 and W[t-16] terms, `alignr` picks W[t-7..t-3] out
    /// of the two newest vectors, `msg2` adds σ1 (of words it is itself
    /// producing).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(m0: __m128i, m1: __m128i, m2: __m128i, m3: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4));
        _mm_sha256msg2_epu32(partial, m3)
    }

    /// Folds `block` into `state`; bit-identical to `compress_scalar`.
    ///
    /// Safe code throughout: only value intrinsics, no pointer loads or
    /// stores. Callers need `unsafe` solely to vouch for the CPU features.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let (words, _) = block.as_chunks::<4>();
        let w: [u32; 16] = std::array::from_fn(|i| u32::from_be_bytes(words[i]));
        let (mut m0, mut m1) = (lanes(&w[0..4]), lanes(&w[4..8]));
        let (mut m2, mut m3) = (lanes(&w[8..12]), lanes(&w[12..16]));

        let [a, b, c, d, e, f, g, h] = state.map(|x| x as i32);
        let (abef0, cdgh0) = (_mm_set_epi32(a, b, e, f), _mm_set_epi32(c, d, g, h));

        let (abef, cdgh) = rounds4(abef0, cdgh0, m0, 0);
        let (abef, cdgh) = rounds4(abef, cdgh, m1, 1);
        let (abef, cdgh) = rounds4(abef, cdgh, m2, 2);
        let (mut abef, mut cdgh) = rounds4(abef, cdgh, m3, 3);
        // Named vectors rather than a ring indexed by `g & 3`, which the
        // compiler keeps in memory.
        for g in [4, 8, 12] {
            m0 = schedule(m0, m1, m2, m3);
            (abef, cdgh) = rounds4(abef, cdgh, m0, g);
            m1 = schedule(m1, m2, m3, m0);
            (abef, cdgh) = rounds4(abef, cdgh, m1, g + 1);
            m2 = schedule(m2, m3, m0, m1);
            (abef, cdgh) = rounds4(abef, cdgh, m2, g + 2);
            m3 = schedule(m3, m0, m1, m2);
            (abef, cdgh) = rounds4(abef, cdgh, m3, g + 3);
        }

        let abef = _mm_add_epi32(abef, abef0);
        let cdgh = _mm_add_epi32(cdgh, cdgh0);
        *state = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ]
        .map(|x| x as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST FIPS 180-4 / NESSIE test vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(sha256(input).to_hex(), *expected, "input {input:?}");
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0, 1, 63, 64, 65, 127, 5000, 9999, 10_000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    /// Whole-message SHA-256 over `compress_scalar` alone, with the padding
    /// written out longhand: the reference the dispatching [`sha256`] is
    /// held to, independent of `update`/`finalize` and of the host's CPU.
    fn sha256_scalar(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut h = Sha256::new();
        for block in padded.chunks_exact(64) {
            h.compress_scalar(block.try_into().expect("64-byte chunk"));
        }
        let mut out = [0u8; 32];
        for (i, word) in h.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// The scalar half of the differential pair; runs on every host. Every
    /// length across the first four block boundaries (padding flips at 55/56
    /// and 119/120, blocks fill at 64 and 128), then one multi-MiB input.
    #[test]
    fn dispatch_matches_scalar_reference() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5ca1_ab1e);
        let mut data = vec![0u8; 3 * 1024 * 1024 + 17];
        rng.fill_bytes(&mut data);
        for len in 0..=300 {
            assert_eq!(sha256(&data[..len]), sha256_scalar(&data[..len]), "length {len}");
        }
        assert_eq!(sha256(&data), sha256_scalar(&data), "multi-MiB input");
        // The reference itself is anchored to FIPS 180-4, not just to its twin.
        assert_eq!(
            sha256_scalar(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    /// The SHA-NI half: both kernels from the same random states and
    /// blocks. Says so on stderr when the host cannot run it.
    #[test]
    fn shani_kernel_matches_scalar_kernel() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0dd_ba11);
        for case in 0..20_000 {
            let mut scalar = Sha256::new();
            scalar.state = std::array::from_fn(|_| rng.next_u32());
            let mut shani = scalar.clone();
            let mut block = [0u8; 64];
            rng.fill_bytes(&mut block);
            // Twice, so each kernel also eats its own output.
            for _ in 0..2 {
                if !shani.compress_shani(&block) {
                    eprintln!(
                        "shani_kernel_matches_scalar_kernel: SKIPPED, this host has no SHA \
                         extensions; only the scalar kernel was tested"
                    );
                    return;
                }
                scalar.compress_scalar(&block);
                assert_eq!(shani.state, scalar.state, "case {case}");
            }
        }
    }

    #[test]
    fn digest_helpers() {
        let d = sha256(b"abc");
        assert_eq!(d.to_u64(), u64::from_be_bytes([0xba, 0x78, 0x16, 0xbf, 0x8f, 0x01, 0xcf, 0xea]));
        assert_eq!(d.as_bytes().len(), 32);
        assert!(format!("{d:?}").starts_with("Digest("));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn any_split_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
                let split = split.min(data.len());
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                prop_assert_eq!(h.finalize(), sha256(&data));
            }

            #[test]
            fn distinct_inputs_distinct_digests(a in proptest::collection::vec(any::<u8>(), 0..64), b in proptest::collection::vec(any::<u8>(), 0..64)) {
                if a != b {
                    prop_assert_ne!(sha256(&a), sha256(&b));
                }
            }
        }
    }
}
