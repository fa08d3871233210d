//! An indexed, query-efficient view of a link-failure history.
//!
//! Built once, after the failure phase: [`IndexedHistory::from_status`]
//! buckets the recorded downtimes by link into a table indexed by
//! `LinkId` — O(intervals) plus a sort per failed link. A query is then
//! one slice index and a binary search over that link's intervals, no
//! hashing: Figure 5 asks once per link of every judged hop, and nearly
//! every answer is "this link never failed", which is a single length
//! check. The probing phase asks once per host × round × tree link, always
//! later than the last time for the same link, so it reads through a
//! [`HistoryCursor`] per link instead: no search at all.

use concilium_topology::LinkStatus;
use concilium_types::{LinkId, SimTime};

/// Per-link sorted downtime intervals, supporting O(log n) "was this link
/// up at time t?" queries. Built once after the failure phase of a
/// simulation; the blame evaluation of Figure 5 issues millions of these
/// queries.
#[derive(Clone, Debug, Default)]
pub struct IndexedHistory {
    /// Indexed by `LinkId`: sorted, disjoint `(from, to)` downtime
    /// intervals; empty for a link that never failed.
    intervals: Vec<Vec<(SimTime, SimTime)>>,
}

impl IndexedHistory {
    /// Builds the index from a finished [`LinkStatus`] over `num_links`
    /// links.
    ///
    /// Open downtimes (links still down) are closed at `end_of_time`.
    ///
    /// # Panics
    ///
    /// `num_links` is the number of links `status` tracks; panics if
    /// `status` holds a downtime for a link at or past it.
    pub fn from_status(status: &LinkStatus, num_links: usize, end_of_time: SimTime) -> Self {
        let mut intervals: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); num_links];
        for &(link, from, to) in status.history() {
            intervals[link.index()].push((from, to));
        }
        // Close still-open downtimes.
        for (i, iv) in intervals.iter_mut().enumerate() {
            if let Some(from) = status.down_since(LinkId(i as u32)) {
                iv.push((from, end_of_time));
            }
            iv.sort();
        }
        IndexedHistory { intervals }
    }

    /// Whether `link` was up at time `t`. Interval ends are exclusive (a
    /// link repaired at `t` is up at `t`), matching
    /// [`LinkStatus::was_up`]. A link the history does not know — one
    /// beyond `num_links` — never failed, so it is up.
    pub fn was_up(&self, link: LinkId, t: SimTime) -> bool {
        let Some(iv) = self.intervals.get(link.index()) else {
            return true;
        };
        // Find the last interval starting at or before t.
        let idx = iv.partition_point(|&(from, _)| from <= t);
        if idx == 0 {
            return true;
        }
        let (_, to) = iv[idx - 1];
        t >= to
    }

    /// A reader of `link`'s history for queries whose times never
    /// decrease; see [`HistoryCursor::was_up`].
    pub(crate) fn cursor(&self, link: LinkId) -> HistoryCursor<'_> {
        let intervals = self.intervals.get(link.index()).map_or(&[][..], Vec::as_slice);
        HistoryCursor { intervals, started: 0 }
    }

    /// Whether every link of `links` was up at `t`.
    pub fn path_up(&self, links: &[LinkId], t: SimTime) -> bool {
        links.iter().all(|&l| self.was_up(l, t))
    }

    /// Number of links with any recorded downtime.
    pub fn links_with_failures(&self) -> usize {
        self.intervals.iter().filter(|iv| !iv.is_empty()).count()
    }
}

/// A forward-only reader of one link's downtime intervals, made by
/// [`IndexedHistory::cursor`]: each query resumes where the previous one
/// stopped instead of searching from the start.
#[derive(Clone, Debug)]
pub(crate) struct HistoryCursor<'a> {
    intervals: &'a [(SimTime, SimTime)],
    /// How many intervals start at or before the last query time.
    started: usize,
}

impl HistoryCursor<'_> {
    /// [`IndexedHistory::was_up`] for this cursor's link, provided `t` is
    /// no earlier than any previous query's time; an earlier `t` may be
    /// answered as if it were the latest.
    pub(crate) fn was_up(&mut self, t: SimTime) -> bool {
        while self.intervals.get(self.started).is_some_and(|&(from, _)| from <= t) {
            self.started += 1;
        }
        self.started == 0 || t >= self.intervals[self.started - 1].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_topology::LinkStatus;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn matches_linear_scan() {
        let mut status = LinkStatus::new(3);
        status.fail(LinkId(0), t(10));
        status.repair(LinkId(0), t(20));
        status.fail(LinkId(0), t(50));
        status.repair(LinkId(0), t(60));
        status.fail(LinkId(1), t(30)); // still open

        let idx = IndexedHistory::from_status(&status, 3, t(100));
        for probe in [0u64, 5, 10, 15, 20, 25, 49, 50, 55, 60, 99] {
            assert_eq!(
                idx.was_up(LinkId(0), t(probe)),
                status.was_up(LinkId(0), t(probe)),
                "link 0 at {probe}s"
            );
        }
        // Open interval: down from 30 onwards.
        assert!(idx.was_up(LinkId(1), t(29)));
        assert!(!idx.was_up(LinkId(1), t(31)));
        assert!(!idx.was_up(LinkId(1), t(99)));
        // Untouched link always up.
        assert!(idx.was_up(LinkId(2), t(50)));
        assert_eq!(idx.links_with_failures(), 2);
    }

    #[test]
    fn unknown_links_are_up() {
        let mut status = LinkStatus::new(2);
        status.fail(LinkId(1), t(10));
        let idx = IndexedHistory::from_status(&status, 2, t(100));
        assert!(!idx.was_up(LinkId(1), t(50)));
        // Ids at and past `num_links` answer "up" instead of panicking.
        assert!(idx.was_up(LinkId(2), t(50)));
        assert!(idx.was_up(LinkId(u32::MAX), t(50)));
        assert!(IndexedHistory::default().was_up(LinkId(0), t(50)));
    }

    #[test]
    fn path_up_requires_all_links() {
        let mut status = LinkStatus::new(2);
        status.fail(LinkId(0), t(10));
        status.repair(LinkId(0), t(20));
        let idx = IndexedHistory::from_status(&status, 2, t(100));
        assert!(idx.path_up(&[LinkId(0), LinkId(1)], t(5)));
        assert!(!idx.path_up(&[LinkId(0), LinkId(1)], t(15)));
        assert!(idx.path_up(&[LinkId(1)], t(15)));
        assert!(idx.path_up(&[], t(15)));
    }

    #[test]
    fn boundary_semantics_match() {
        let mut status = LinkStatus::new(1);
        status.fail(LinkId(0), t(10));
        status.repair(LinkId(0), t(20));
        let idx = IndexedHistory::from_status(&status, 1, t(100));
        // Down at failure instant, up at repair instant.
        assert!(!idx.was_up(LinkId(0), t(10)));
        assert!(idx.was_up(LinkId(0), t(20)));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        const NUM_LINKS: usize = 5;

        /// Replays a random event stream against a [`LinkStatus`]: each
        /// word decodes to a strictly increasing timestamp, a link, and a
        /// fail-or-repair op (both idempotent, so arbitrary sequences are
        /// valid). Returns the oracle and an `end_of_time` strictly after
        /// every event.
        fn build(events: &[u64]) -> (LinkStatus, SimTime) {
            let mut status = LinkStatus::new(NUM_LINKS);
            let mut now = 0u64;
            for &e in events {
                now += e % 97 + 1;
                let link = LinkId(((e >> 8) % NUM_LINKS as u64) as u32);
                if (e >> 16) & 1 == 0 {
                    status.fail(link, SimTime::from_secs(now));
                } else {
                    status.repair(link, SimTime::from_secs(now));
                }
            }
            (status, SimTime::from_secs(now + 50))
        }

        /// Every instant worth probing: each interval boundary and its
        /// neighbourhood, clamped below `end`.
        fn boundary_probes(status: &LinkStatus, end: SimTime) -> Vec<SimTime> {
            let mut probes = vec![SimTime::ZERO];
            let mut push = |s: u64| {
                for q in [s.saturating_sub(1), s, s + 1] {
                    let t = SimTime::from_secs(q);
                    if t < end {
                        probes.push(t);
                    }
                }
            };
            for &(_, from, to) in status.history() {
                push(from.as_micros() / 1_000_000);
                push(to.as_micros() / 1_000_000);
            }
            for l in 0..NUM_LINKS {
                if let Some(from) = status.down_since(LinkId(l as u32)) {
                    push(from.as_micros() / 1_000_000);
                }
            }
            probes
        }

        proptest! {
            #[test]
            fn indexed_queries_match_the_linear_oracle(
                events in proptest::collection::vec(any::<u64>(), 1..80),
                samples in proptest::collection::vec(any::<u64>(), 1..40),
            ) {
                let (status, end) = build(&events);
                let idx = IndexedHistory::from_status(&status, NUM_LINKS, end);
                let end_secs = end.as_micros() / 1_000_000;
                let mut probes = boundary_probes(&status, end);
                probes.extend(samples.iter().map(|&s| SimTime::from_secs(s % end_secs)));
                for &t in &probes {
                    for l in 0..NUM_LINKS {
                        let link = LinkId(l as u32);
                        prop_assert_eq!(
                            idx.was_up(link, t),
                            status.was_up(link, t),
                            "link {} at {}", l, t
                        );
                    }
                }
            }

            #[test]
            fn open_downtimes_close_exactly_at_end_of_time(
                events in proptest::collection::vec(any::<u64>(), 1..80),
            ) {
                let (status, end) = build(&events);
                let idx = IndexedHistory::from_status(&status, NUM_LINKS, end);
                let last = end.saturating_sub(concilium_types::SimDuration::from_secs(1));
                for l in 0..NUM_LINKS {
                    let link = LinkId(l as u32);
                    if status.down_since(link).is_some() {
                        // Still down just before the horizon...
                        prop_assert!(!idx.was_up(link, last));
                        // ...and the closing interval end is exclusive,
                        // like every repair.
                        prop_assert!(idx.was_up(link, end));
                    }
                }
            }

            #[test]
            fn cursors_match_was_up_over_non_decreasing_times(
                events in proptest::collection::vec(any::<u64>(), 1..80),
                steps in proptest::collection::vec(0u64..40, 1..120),
            ) {
                let (status, end) = build(&events);
                let idx = IndexedHistory::from_status(&status, NUM_LINKS, end);
                // Links past `NUM_LINKS` included: they never failed.
                let mut cursors: Vec<HistoryCursor> =
                    (0..=NUM_LINKS as u32).map(|l| idx.cursor(LinkId(l))).collect();
                // Steps of 0 repeat a time; the walk runs past `end`.
                let mut now = 0u64;
                for step in steps {
                    now += step;
                    let t = SimTime::from_secs(now);
                    for (l, cursor) in cursors.iter_mut().enumerate() {
                        let link = LinkId(l as u32);
                        let want = idx.was_up(link, t);
                        prop_assert_eq!(cursor.was_up(t), want, "link {} at {}", l, t);
                    }
                }
            }

            #[test]
            fn path_up_agrees_with_per_link_queries(
                events in proptest::collection::vec(any::<u64>(), 1..60),
                sample in any::<u64>(),
            ) {
                let (status, end) = build(&events);
                let idx = IndexedHistory::from_status(&status, NUM_LINKS, end);
                let t = SimTime::from_secs(sample % (end.as_micros() / 1_000_000));
                let links: Vec<LinkId> =
                    (0..NUM_LINKS).map(|l| LinkId(l as u32)).collect();
                let each = links.iter().all(|&l| idx.was_up(l, t));
                prop_assert_eq!(idx.path_up(&links, t), each);
            }
        }
    }
}
