//! **Concilium** — collaborative diagnosis of broken overlay routes.
//!
//! A reproduction of Mickens & Noble, *"Concilium: Collaborative Diagnosis
//! of Broken Overlay Routes"* (DSN 2007). When an overlay message is
//! dropped, Concilium decides whether an intermediate overlay forwarder
//! misbehaved or an IP link was broken, by fusing:
//!
//! * application-level acknowledgments,
//! * peer-advertised (validated) routing state, and
//! * collaboratively collected tomographic link observations,
//!
//! into a fuzzy-logic *blame* value (Eqs. 2–3), thresholded into guilty /
//! innocent verdicts, accumulated over a sliding window, and escalated
//! into signed, self-verifying *fault accusations* stored in a DHT.
//! Incorrect accusations migrate downstream to the true culprit via
//! recursive stewardship and accusation revision.
//!
//! # Module map
//!
//! | paper section | module |
//! |---|---|
//! | §3.4 blame (Eqs. 2–3) | [`blame`] |
//! | §3.4 verdicts, sliding window, §4.3 error model | [`verdict`] |
//! | §3.6 forwarding commitments | [`commitment`] |
//! | §3.4 formal accusations (self-verifying) | [`accusation`] |
//! | §3.4 accusation DHT | [`dht`] |
//! | §3.5 recursive stewardship / revision | [`revision`] |
//! | §3.5 rebuttals | [`rebuttal`] |
//! | §3.6 reputation fallback | [`reputation`] |
//! | §3.1–3.2 validated routing advertisements | [`advertisement`] |
//! | §3.7 multi-message acknowledgments | [`ack`] |
//! | retransmit/backoff recovery layer | [`retry`] |
//! | §3.7 sanctioning policies | [`policy`] |
//! | §4.4 bandwidth model | [`bandwidth`] |
//! | per-node protocol state | [`node`] |
//!
//! # Examples
//!
//! ```
//! use concilium::blame::{blame_from_path_evidence, LinkEvidence};
//! use concilium_types::LinkId;
//!
//! // Two links on B→C; three peers probed link 1 (two saw it down).
//! let evidence = vec![
//!     LinkEvidence { link: LinkId(0), observations: vec![true] },
//!     LinkEvidence { link: LinkId(1), observations: vec![false, false, true] },
//! ];
//! let blame = blame_from_path_evidence(&evidence, 0.8);
//! // Link 1 is bad with confidence (0.8 + 0.8 + 0.2) / 3 = 0.6,
//! // so B is to blame with probability 1 − 0.6 = 0.4.
//! assert!((blame - 0.4).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]

pub mod accusation;
pub mod ack;
pub mod advertisement;
pub mod bandwidth;
pub mod blame;
pub mod commitment;
mod config;
pub mod dht;
pub mod node;
pub mod policy;
pub mod rebuttal;
pub mod reputation;
pub mod retry;
pub mod revision;
pub mod verdict;

pub use accusation::{Accusation, AccusationError, DropContext};
pub use commitment::ForwardingCommitment;
pub use config::ConciliumConfig;
pub use node::ConciliumNode;
pub use verdict::{Verdict, VerdictBook, VerdictWindow};
