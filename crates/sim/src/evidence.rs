//! The link → voucher incidence behind Eq. 3's evidence query.
//!
//! Eq. 3 asks, for each link of B→C, which of the judge's peers probed it.
//! Every host's tree is fixed once the world is built, so "which trees
//! cover this link" is stored once ([`EvidenceIndex`]) instead of being
//! rediscovered per query by asking every peer's archive. The answer's
//! order — judge first, then peers in routing-state order, rounds oldest
//! first — is what Eq. 3's sequential `f64` sum and the DST's per-origin
//! rng draws depend on; the rank table keeps it.

use std::ops::Range;

use concilium_types::LinkId;

use crate::archive::ProbeArchive;

/// Which hosts' probe trees cover each link, and where each host stands
/// in every other host's routing state. Derived from the archives and the
/// peer lists; draws nothing.
pub(crate) struct EvidenceIndex {
    /// CSR offsets over `LinkId`: link `l`'s vouchers are
    /// `vouchers[start[l]..start[l + 1]]`.
    start: Vec<u32>,
    /// `(origin host, column of the link in that host's archive)`, in
    /// host order within a link.
    vouchers: Vec<(u32, u32)>,
    /// Row-major `hosts × hosts`: where the column host stands in the row
    /// host's evidence order — 0 for the row host itself, 1 + its position
    /// in the row host's peer list, [`NO_RANK`] for everyone else.
    rank: Vec<u16>,
    hosts: usize,
}

const NO_RANK: u16 = u16::MAX;

impl EvidenceIndex {
    /// Builds the index over `num_links` topology links from every host's
    /// archive columns (its tree's link set) and peer list.
    ///
    /// # Panics
    ///
    /// Panics if a peer list repeats a host or names its owner, or a host
    /// has 65,534 peers or more.
    pub(crate) fn build(
        num_links: usize,
        archives: &[ProbeArchive],
        peer_hosts: &[Vec<usize>],
    ) -> Self {
        let hosts = archives.len();
        // Counting sort by link; filling in host order leaves every
        // link's vouchers in host order.
        let mut start = vec![0u32; num_links + 1];
        for archive in archives {
            for link in archive.links() {
                start[link.0 as usize + 1] += 1;
            }
        }
        for l in 0..num_links {
            start[l + 1] += start[l];
        }
        let mut next = start.clone();
        let mut vouchers = vec![(0u32, 0u32); start[num_links] as usize];
        for (origin, archive) in archives.iter().enumerate() {
            for (col, link) in archive.links().iter().enumerate() {
                let slot = &mut next[link.0 as usize];
                vouchers[*slot as usize] = (origin as u32, col as u32);
                *slot += 1;
            }
        }

        let mut rank = vec![NO_RANK; hosts * hosts];
        for (u, peers) in peer_hosts.iter().enumerate() {
            assert!(peers.len() < usize::from(NO_RANK) - 1, "host {u} has too many peers");
            rank[u * hosts + u] = 0;
            for (pos, &v) in peers.iter().enumerate() {
                let slot = &mut rank[u * hosts + v];
                assert_eq!(*slot, NO_RANK, "host {u} lists peer {v} twice (or itself)");
                *slot = pos as u16 + 1;
            }
        }
        EvidenceIndex { start, vouchers, rank, hosts }
    }

    /// The hosts whose trees cover `link`, with the link's column in each
    /// one's archive, in host order. Empty for a link no tree covers.
    pub(crate) fn vouchers(&self, link: LinkId) -> &[(u32, u32)] {
        let l = link.0 as usize;
        match self.start.get(l..l + 2) {
            Some(&[lo, hi]) => &self.vouchers[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Where `origin` stands among the vantages `judge` hears from: 0 for
    /// the judge itself, then its peers in routing-state order; `None`
    /// for a host the judge receives no snapshots from.
    pub(crate) fn rank(&self, judge: usize, origin: usize) -> Option<u16> {
        let r = self.rank[judge * self.hosts + origin];
        (r != NO_RANK).then_some(r)
    }
}

/// The answer to [`SimWorld::path_evidence`]: for each link of the queried
/// path, the `(origin host, observed up)` pairs the judge holds, in one
/// flat buffer. Caller-owned and reused across queries, so a judgment
/// allocates nothing once the buffer has grown to its working size.
///
/// A query is two halves. [`SimWorld::plan_evidence`] fixes who vouches
/// for each link — it depends on the judge, the path and the excluded
/// host only — and [`SimWorld::evidence_at`] reads the planned vouchers'
/// rounds around one instant; one plan serves any number of reads.
///
/// [`SimWorld::path_evidence`]: crate::SimWorld::path_evidence
/// [`SimWorld::plan_evidence`]: crate::SimWorld::plan_evidence
/// [`SimWorld::evidence_at`]: crate::SimWorld::evidence_at
#[derive(Clone, Debug, Default)]
pub struct PathEvidence {
    pub(crate) observations: Vec<(usize, bool)>,
    /// `ends[i]` closes link `i`'s run in `observations`.
    pub(crate) ends: Vec<usize>,
    /// The plan: each link's admissible `(rank, origin, column)`
    /// vouchers, by rank.
    pub(crate) planned: Vec<(u16, u32, u32)>,
    /// `plan_ends[i]` closes link `i`'s run in `planned`.
    pub(crate) plan_ends: Vec<usize>,
    /// The planning judge's vantage count (itself and its peers).
    pub(crate) vantages: usize,
    /// Scratch: each vantage's probe rounds inside the window, by rank,
    /// computed at most once per read.
    pub(crate) windows: Vec<Option<Range<usize>>>,
}

impl PathEvidence {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The observations of the `i`-th queried link: judge first, then its
    /// peers in routing-state order, each origin's rounds oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn link(&self, i: usize) -> &[(usize, bool)] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.observations[start..self.ends[i]]
    }

    /// Every queried link's observations, in path order.
    pub fn per_link(&self) -> impl ExactSizeIterator<Item = &[(usize, bool)]> + Clone + '_ {
        (0..self.ends.len()).map(|i| self.link(i))
    }
}
