//! Per-host probe archives: what each host observed about its tree links.

use concilium_types::{LinkId, SimDuration, SimTime};

/// One host's archive of tomographic observations.
///
/// Rows are probe rounds (heavyweight probes of the host's whole tree);
/// columns are the distinct links of the host's tree. Each cell is the
/// host's *judgment* of the link's binary state at that time — correct
/// with the configured probe accuracy (the paper's §4.3 evaluation model).
/// Storage is bit-packed: at paper scale the archives of all 1,131 hosts
/// fit in a few tens of megabytes.
#[derive(Clone, Debug, Default)]
pub struct ProbeArchive {
    /// Sorted probe times.
    times: Vec<SimTime>,
    /// Column → link: strictly ascending, so a link's column is a binary
    /// search away and no second index is kept.
    columns: Vec<LinkId>,
    /// Bit-packed rows.
    bits: Vec<u64>,
    words_per_row: usize,
}

impl ProbeArchive {
    /// Creates an archive over the given tree links, one column each in
    /// the order given.
    ///
    /// # Panics
    ///
    /// Panics unless `links` is strictly ascending (sorted and distinct, as
    /// [`ProbeTree::link_set`] returns it).
    ///
    /// [`ProbeTree::link_set`]: https://docs.rs/concilium-tomography
    pub fn new(links: &[LinkId]) -> Self {
        assert!(
            links.windows(2).all(|w| w[0] < w[1]),
            "tree links must be sorted and distinct"
        );
        let words_per_row = links.len().div_ceil(64).max(1);
        ProbeArchive { times: Vec::new(), columns: links.to_vec(), bits: Vec::new(), words_per_row }
    }

    /// The links of this host's tree, in column order (ascending).
    pub fn links(&self) -> &[LinkId] {
        &self.columns
    }

    /// The column holding `link`'s observations, if the tree covers it.
    fn column_of(&self, link: LinkId) -> Option<usize> {
        self.columns.binary_search(&link).ok()
    }

    /// Whether this host's tree covers `link`.
    pub fn covers(&self, link: LinkId) -> bool {
        self.column_of(link).is_some()
    }

    /// Number of probe rounds recorded.
    pub fn num_probes(&self) -> usize {
        self.times.len()
    }

    /// Number of links per round.
    pub fn num_links(&self) -> usize {
        self.columns.len()
    }

    /// Appends a probe round at `time` with per-link observations supplied
    /// by `observed(column, link) -> up?` evaluated in this archive's
    /// column order.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous round (rounds are appended
    /// in chronological order).
    pub fn record_round(
        &mut self,
        time: SimTime,
        mut observed: impl FnMut(usize, LinkId) -> bool,
    ) {
        self.record_words(time, |first, links| {
            let cells = links.iter().enumerate();
            cells.fold(0, |word, (i, &link)| word | u64::from(observed(first + i, link)) << i)
        });
    }

    /// Appends a probe round at `time` one word of observations at a
    /// time: `word(first, links)` returns the bits of columns `first..`,
    /// bit `i` for `links[i]` (up to 64 links, the columns' links), and is
    /// called in column order. The archive's one append path.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous round (rounds are appended
    /// in chronological order).
    pub fn record_words(&mut self, time: SimTime, mut word: impl FnMut(usize, &[LinkId]) -> u64) {
        if let Some(&last) = self.times.last() {
            assert!(time >= last, "probe rounds must be appended in time order");
        }
        let row_start = self.bits.len();
        self.bits.resize(row_start + self.words_per_row, 0);
        for (k, links) in self.columns.chunks(64).enumerate() {
            let bits = word(64 * k, links);
            debug_assert!(links.len() == 64 || bits >> links.len() == 0, "bits past the row");
            self.bits[row_start + k] = bits;
        }
        self.times.push(time);
    }

    /// The observation of `link` in probe round `round`, or `None` if the
    /// tree does not cover the link.
    ///
    /// # Panics
    ///
    /// Panics if `round` is out of range.
    pub fn observation(&self, round: usize, link: LinkId) -> Option<bool> {
        let col = self.column_of(link)?;
        self.column_observations(col, round..round + 1).next()
    }

    /// The observations, oldest first, that probe rounds `rounds` made of
    /// the link in column `col` (its position in [`ProbeArchive::links`]).
    ///
    /// # Panics
    ///
    /// Panics if `col` or `rounds` is out of range.
    pub fn column_observations(
        &self,
        col: usize,
        rounds: std::ops::Range<usize>,
    ) -> impl Iterator<Item = bool> + '_ {
        assert!(col < self.columns.len(), "column {col} out of range");
        assert!(rounds.end <= self.times.len(), "rounds {rounds:?} out of range");
        let (word, bit) = (col / 64, col % 64);
        rounds.map(move |r| self.bits[r * self.words_per_row + word] >> bit & 1 == 1)
    }

    /// The probe rounds whose times fall within `[t − Δ, t + Δ]`,
    /// returned as an index range.
    ///
    /// One binary search finds the start; the end is galloped to from
    /// there (probes 1, 2, 4, … rounds ahead, then a binary search of the
    /// last step), so a window of `w` rounds costs O(log w) beyond it.
    pub fn rounds_in_window(&self, t: SimTime, delta: SimDuration) -> std::ops::Range<usize> {
        let lo = t.saturating_sub(delta);
        let hi = t + delta;
        let start = self.times.partition_point(|&pt| pt < lo);
        let rest = &self.times[start..];
        let mut step = 1;
        while step < rest.len() && rest[step] <= hi {
            step *= 2;
        }
        // `rest[step / 2] <= hi` once galloped, and `rest[step] > hi` if
        // it exists, so the end lies in `step / 2..=step`.
        let base = step / 2;
        let end = base + rest[base..step.min(rest.len())].partition_point(|&pt| pt <= hi);
        start..start + end
    }

    /// The time of probe round `round`.
    ///
    /// # Panics
    ///
    /// Panics if `round` is out of range.
    pub fn round_time(&self, round: usize) -> SimTime {
        self.times[round]
    }

    /// Convenience: all observations of `link` within the window, newest
    /// last. Empty when the link is not covered.
    pub fn observations_in_window(
        &self,
        link: LinkId,
        t: SimTime,
        delta: SimDuration,
    ) -> Vec<bool> {
        let Some(col) = self.column_of(link) else {
            return Vec::new();
        };
        self.column_observations(col, self.rounds_in_window(t, delta)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn links(n: u32) -> Vec<LinkId> {
        (0..n).map(LinkId).collect()
    }

    #[test]
    fn record_and_read_back() {
        let ls = links(70); // spans two u64 words
        let mut a = ProbeArchive::new(&ls);
        a.record_round(t(10), |_, l| l.0 % 2 == 0);
        a.record_round(t(20), |_, l| l.0 == 69);
        assert_eq!(a.num_probes(), 2);
        assert_eq!(a.num_links(), 70);
        assert_eq!(a.observation(0, LinkId(0)), Some(true));
        assert_eq!(a.observation(0, LinkId(1)), Some(false));
        assert_eq!(a.observation(0, LinkId(68)), Some(true));
        assert_eq!(a.observation(1, LinkId(69)), Some(true));
        assert_eq!(a.observation(1, LinkId(68)), Some(false));
        assert_eq!(a.observation(0, LinkId(99)), None);
        assert!(!a.covers(LinkId(99)));
    }

    #[test]
    fn window_queries() {
        let ls = links(4);
        let mut a = ProbeArchive::new(&ls);
        for s in [10u64, 70, 130, 190, 250] {
            a.record_round(t(s), |_, _| true);
        }
        // Window [130−60, 130+60] = [70, 190].
        let w = a.rounds_in_window(t(130), SimDuration::from_secs(60));
        assert_eq!(w, 1..4);
        assert_eq!(a.round_time(1), t(70));
        // A window before all probes is empty.
        assert_eq!(a.rounds_in_window(t(1), SimDuration::from_secs(5)).len(), 0);
        // observations_in_window collects per-round bits.
        assert_eq!(
            a.observations_in_window(LinkId(2), t(130), SimDuration::from_secs(60)),
            vec![true, true, true]
        );
        assert!(a
            .observations_in_window(LinkId(9), t(130), SimDuration::from_secs(60))
            .is_empty());
    }

    #[test]
    fn saturating_window_at_time_zero() {
        let ls = links(1);
        let mut a = ProbeArchive::new(&ls);
        a.record_round(t(5), |_, _| false);
        let w = a.rounds_in_window(t(10), SimDuration::from_secs(60));
        assert_eq!(w, 0..1);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_rounds_rejected() {
        let ls = links(1);
        let mut a = ProbeArchive::new(&ls);
        a.record_round(t(10), |_, _| true);
        a.record_round(t(5), |_, _| true);
    }

    #[test]
    #[should_panic(expected = "sorted and distinct")]
    fn unsorted_or_repeated_links_rejected() {
        let _ = ProbeArchive::new(&[LinkId(3), LinkId(3)]);
    }

    #[test]
    fn columns_are_found_by_binary_search() {
        // Sparse ids: a column is the link's rank among the tree's links.
        let ls: Vec<LinkId> = [2u32, 5, 9, 400, 70_000].map(LinkId).to_vec();
        let mut a = ProbeArchive::new(&ls);
        a.record_round(t(1), |_, l| l.0 >= 9);
        assert_eq!(a.links(), &ls[..]);
        for (col, &l) in ls.iter().enumerate() {
            assert!(a.covers(l));
            assert_eq!(a.observation(0, l), Some(l.0 >= 9));
            assert_eq!(a.column_observations(col, 0..1).collect::<Vec<_>>(), [l.0 >= 9]);
        }
        for absent in [0u32, 3, 10, 69_999, 70_001] {
            assert!(!a.covers(LinkId(absent)));
            assert_eq!(a.observation(0, LinkId(absent)), None);
        }
    }

    #[test]
    fn empty_tree_archive_is_harmless() {
        let mut a = ProbeArchive::new(&[]);
        a.record_round(t(1), |_, _| true);
        assert_eq!(a.num_links(), 0);
        assert!(a.observations_in_window(LinkId(0), t(1), SimDuration::from_secs(1)).is_empty());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The window as two full binary searches: the formula the gallop
        /// must agree with.
        fn two_searches(
            times: &[SimTime],
            t: SimTime,
            delta: SimDuration,
        ) -> std::ops::Range<usize> {
            let (lo, hi) = (t.saturating_sub(delta), t + delta);
            times.partition_point(|&pt| pt < lo)..times.partition_point(|&pt| pt <= hi)
        }

        proptest! {
            /// Zero gaps repeat an instant; no gaps at all is the empty
            /// archive. Every case also asks Δ = 0, `t < Δ` (the start
            /// saturates at zero), a window wider than the archive and
            /// `t` past the last round.
            #[test]
            fn gallop_matches_two_binary_searches(
                gaps in proptest::collection::vec(0u64..4, 0..70),
                queries in proptest::collection::vec((0u64..300, 0u64..300), 1..40),
            ) {
                let mut a = ProbeArchive::new(&links(1));
                let mut now = 0;
                for gap in gaps {
                    now += gap;
                    a.record_round(t(now), |_, _| true);
                }
                let fixed = [(now / 2, 0), (1, 5), (now / 2, now + 1), (now + 1, 1)];
                for (at, delta) in queries.into_iter().chain(fixed) {
                    let (at, delta) = (t(at), SimDuration::from_secs(delta));
                    prop_assert_eq!(
                        a.rounds_in_window(at, delta),
                        two_searches(&a.times, at, delta),
                        "t {:?} Δ {:?} over {} rounds", at, delta, a.num_probes()
                    );
                }
            }
        }
    }
}
