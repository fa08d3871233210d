//! Every determinism rule broken once, so clippy must reject this crate.
//! One function per rule of DESIGN.md §13; the comment above each names
//! the lint that must fire. `Relaxed` and `partial_cmp` have no clippy
//! lint: `tests/lint.rs` checks its text pins fire on this file instead.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::float_cmp)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// L1, `disallowed_methods`: both wall clocks.
pub fn wall_clock() -> u128 {
    let started = std::time::Instant::now();
    let _epoch = std::time::SystemTime::now();
    started.elapsed().as_nanos()
}

/// L2, `disallowed_types`: hash order feeding a digest.
pub fn hash_iter(map: &HashMap<u32, u32>) -> u64 {
    map.iter().fold(0, |acc, (k, v)| acc ^ (u64::from(*k) << 32) ^ u64::from(*v))
}

/// L3, text pin: an unjustified `Relaxed` counter.
pub fn relaxed(counter: &AtomicUsize) -> usize {
    counter.fetch_add(1, Ordering::Relaxed)
}

/// L4, `unwrap_used` plus the `partial_cmp` text pin; `float_cmp`.
pub fn float_cmp(xs: &mut [f64], x: f64) -> bool {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    x == xs[0] + 1.0
}

/// L5, `panic`, `unwrap_used`, `expect_used`.
pub fn no_panic(xs: &[u8]) -> u8 {
    if xs.is_empty() {
        panic!("empty slice");
    }
    xs.first().copied().unwrap() ^ xs.last().copied().expect("non-empty")
}

/// L6, `disallowed_methods`: a hard abort.
pub fn stub_hygiene() -> u32 {
    std::process::abort()
}

/// L7, `disallowed_methods`: an environment read on the digest path.
pub fn digest_taint(record: u64) -> u64 {
    record ^ std::env::var("CONCILIUM_SALT").map_or(0, |s| s.len() as u64)
}

/// L9, text pin: the Release side of a pairing downgraded to `Relaxed`.
pub static READY: AtomicBool = AtomicBool::new(false);

/// The acquiring side of [`READY`].
pub fn wait_ready() -> bool {
    READY.load(Ordering::Acquire)
}

/// Publishes [`READY`] without ordering the writes before it.
pub fn publish() {
    READY.store(true, Ordering::Relaxed);
}

/// `allow_attributes_without_reason` and `allow_attributes`: an
/// exemption nobody justified.
#[allow(clippy::unwrap_used)]
pub fn missing_reason(x: Option<u8>) -> u8 {
    x.unwrap()
}

/// `unfulfilled_lint_expectations`: an exemption that exempts nothing.
#[expect(clippy::panic, reason = "nothing in this function panics any more")]
pub fn stale_expect(x: u8) -> u8 {
    x
}

/// `unknown_lints`: an exemption naming a lint that does not exist.
#[expect(clippy::no_such_rule, reason = "names a lint clippy does not have")]
pub fn unknown_rule(x: u8) -> u8 {
    x
}

/// `unsafe_code` and `undocumented_unsafe_blocks`.
pub fn unsafe_block(x: &u8) -> u8 {
    unsafe { *(x as *const u8) }
}
