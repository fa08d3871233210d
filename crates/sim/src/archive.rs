//! Per-host probe archives: what each host observed about its tree links.

use std::collections::HashMap;

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
    /// Column → link, in the order `new` was handed.
    columns: Vec<LinkId>,
    /// Link → column index.
    link_index: HashMap<LinkId, u32>,
    /// Bit-packed rows.
    bits: Vec<u64>,
    words_per_row: usize,
}

impl ProbeArchive {
    /// Creates an archive over the given distinct tree links (column
    /// order fixed).
    pub fn new(links: &[LinkId]) -> Self {
        let link_index: HashMap<LinkId, u32> =
            links.iter().enumerate().map(|(i, &l)| (l, i as u32)).collect();
        debug_assert_eq!(link_index.len(), links.len(), "tree links must be distinct");
        let words_per_row = links.len().div_ceil(64).max(1);
        ProbeArchive {
            times: Vec::new(),
            columns: links.to_vec(),
            link_index,
            bits: Vec::new(),
            words_per_row,
        }
    }

    /// Whether this host's tree covers `link`.
    pub fn covers(&self, link: LinkId) -> bool {
        self.link_index.contains_key(&link)
    }

    /// Number of probe rounds recorded.
    pub fn num_probes(&self) -> usize {
        self.times.len()
    }

    /// Number of links per round.
    pub fn num_links(&self) -> usize {
        self.link_index.len()
    }

    /// Appends a probe round at `time` with per-link observations supplied
    /// by `observed(link) -> up?` evaluated in this archive's column order.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous round (rounds are appended
    /// in chronological order).
    pub fn record_round(&mut self, time: SimTime, mut observed: impl FnMut(LinkId) -> bool) {
        if let Some(&last) = self.times.last() {
            assert!(time >= last, "probe rounds must be appended in time order");
        }
        let row_start = self.bits.len();
        self.bits.resize(row_start + self.words_per_row, 0);
        // Column order, so `observed` sees the same call sequence every run.
        for (col, &link) in self.columns.iter().enumerate() {
            if observed(link) {
                self.bits[row_start + col / 64] |= 1u64 << (col % 64);
            }
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
        let &col = self.link_index.get(&link)?;
        assert!(round < self.times.len(), "round {round} out of range");
        let word = self.bits[round * self.words_per_row + (col as usize) / 64];
        Some(word >> (col % 64) & 1 == 1)
    }

    /// The probe rounds whose times fall within `[t − Δ, t + Δ]`,
    /// returned as an index range.
    pub fn rounds_in_window(&self, t: SimTime, delta: SimDuration) -> std::ops::Range<usize> {
        let lo = t.saturating_sub(delta);
        let hi = t + delta;
        let start = self.times.partition_point(|&pt| pt < lo);
        let end = self.times.partition_point(|&pt| pt <= hi);
        start..end
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
        let Some(&col) = self.link_index.get(&link) else {
            return Vec::new();
        };
        let (word, bit) = ((col as usize) / 64, col % 64);
        self.rounds_in_window(t, delta)
            .map(|r| self.bits[r * self.words_per_row + word] >> bit & 1 == 1)
            .collect()
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
        a.record_round(t(10), |l| l.0 % 2 == 0);
        a.record_round(t(20), |l| l.0 == 69);
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
            a.record_round(t(s), |_| true);
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
        a.record_round(t(5), |_| false);
        let w = a.rounds_in_window(t(10), SimDuration::from_secs(60));
        assert_eq!(w, 0..1);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_rounds_rejected() {
        let ls = links(1);
        let mut a = ProbeArchive::new(&ls);
        a.record_round(t(10), |_| true);
        a.record_round(t(5), |_| true);
    }

    #[test]
    fn empty_tree_archive_is_harmless() {
        let mut a = ProbeArchive::new(&[]);
        a.record_round(t(1), |_| true);
        assert_eq!(a.num_links(), 0);
        assert!(a.observations_in_window(LinkId(0), t(1), SimDuration::from_secs(1)).is_empty());
    }
}
