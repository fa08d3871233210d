//! The link-failure process of the paper's evaluation (§4.2).
//!
//! "In the simulations, 5% of links were bad at any moment. Average link
//! downtime was 15 minutes with a standard deviation of 7.5 minutes ...
//! Failures were biased towards links at the edge of the network. To select
//! a new link for failure, we randomly picked an overlay host and a random
//! peer in that host's routing state. We then used a beta distribution with
//! α=0.9 and β=0.6 to select the depth of the link that would fail."
//!
//! [`FailureModel`] reproduces that process: it owns the candidate
//! host→peer paths, picks failing links via the beta-distributed depth,
//! and draws truncated-normal downtimes. [`LinkStatus`] tracks which links
//! are currently down and records the full failure history so that
//! later analysis can ask "was link *l* actually up at time *t*?" — the
//! ground truth against which blame assignments are scored in Figure 5.

use rand::Rng;
use rand_distr::{Beta, Distribution, Normal};
use serde::{Deserialize, Serialize};

use concilium_types::{LinkId, SimDuration, SimTime};

use crate::path::IpPath;

/// Configuration of the failure process.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailureModelConfig {
    /// Fraction of all topology links that should be down at any moment
    /// (the paper uses 0.05).
    pub fraction_bad: f64,
    /// Mean link downtime (paper: 15 minutes).
    pub mean_downtime: SimDuration,
    /// Standard deviation of downtime (paper: 7.5 minutes).
    pub sd_downtime: SimDuration,
    /// Minimum downtime after truncation of the normal distribution.
    pub min_downtime: SimDuration,
    /// α of the failure-depth beta distribution (paper: 0.9).
    pub depth_alpha: f64,
    /// β of the failure-depth beta distribution (paper: 0.6).
    pub depth_beta: f64,
}

impl Default for FailureModelConfig {
    fn default() -> Self {
        FailureModelConfig {
            fraction_bad: 0.05,
            mean_downtime: SimDuration::from_mins(15),
            sd_downtime: SimDuration::from_secs(450),
            min_downtime: SimDuration::from_secs(30),
            depth_alpha: 0.9,
            depth_beta: 0.6,
        }
    }
}

/// A scheduled repair: the link comes back up at `at`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PendingRepair {
    /// The link to repair.
    pub link: LinkId,
    /// When the repair happens.
    pub at: SimTime,
}

/// Current and historical up/down state for every link.
#[derive(Clone, Debug, Default)]
pub struct LinkStatus {
    down_since: Vec<Option<SimTime>>,
    /// How many entries of `down_since` are `Some`: kept by `fail` and
    /// `repair` so the failure process's population check is O(1).
    down: usize,
    /// Completed downtime intervals `(link, from, to)`, plus open intervals
    /// tracked via `down_since`.
    history: Vec<(LinkId, SimTime, SimTime)>,
}

impl LinkStatus {
    /// Creates status tracking for `num_links` links, all up.
    pub fn new(num_links: usize) -> Self {
        LinkStatus { down_since: vec![None; num_links], down: 0, history: Vec::new() }
    }

    /// Whether `link` is currently up.
    pub fn is_up(&self, link: LinkId) -> bool {
        self.down_since[link.index()].is_none()
    }

    /// Marks `link` down at time `now`. Idempotent for already-down links.
    pub fn fail(&mut self, link: LinkId, now: SimTime) {
        let slot = &mut self.down_since[link.index()];
        if slot.is_none() {
            *slot = Some(now);
            self.down += 1;
        }
    }

    /// Marks `link` up at time `now`, recording the downtime interval.
    /// Idempotent for already-up links.
    pub fn repair(&mut self, link: LinkId, now: SimTime) {
        if let Some(from) = self.down_since[link.index()].take() {
            self.down -= 1;
            self.history.push((link, from, now));
        }
    }

    /// When `link` went down, if it is currently down.
    pub fn down_since(&self, link: LinkId) -> Option<SimTime> {
        self.down_since[link.index()]
    }

    /// Number of links currently down.
    pub fn num_down(&self) -> usize {
        self.down
    }

    /// Ground truth: was `link` up at time `t`?
    ///
    /// Consults both the completed-interval history and any open downtime.
    /// Interval ends are exclusive: a link failing at `t` is considered
    /// *down* at `t`, and a link repaired at `t` is *up* at `t`.
    pub fn was_up(&self, link: LinkId, t: SimTime) -> bool {
        if let Some(from) = self.down_since[link.index()] {
            if t >= from {
                return false;
            }
        }
        for &(l, from, to) in &self.history {
            if l == link && t >= from && t < to {
                return false;
            }
        }
        true
    }

    /// All recorded downtime intervals (completed ones only).
    pub fn history(&self) -> &[(LinkId, SimTime, SimTime)] {
        &self.history
    }
}

/// The failure process: picks which link fails next and for how long.
#[derive(Clone, Debug)]
pub struct FailureModel {
    cfg: FailureModelConfig,
    /// Candidate host→peer paths from which failing links are drawn.
    paths: Vec<IpPath>,
    /// Number of links that should be down at any moment.
    target_down: usize,
    downtime: Normal<f64>,
    depth: Beta<f64>,
}

impl FailureModel {
    /// Creates a failure model over the given candidate paths.
    ///
    /// `total_links` is the total number of links in the topology; the
    /// model keeps `fraction_bad × total_links` links down at any moment
    /// (rounded, at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty, if every path is trivial (no links), or
    /// if the configuration's distribution parameters are invalid.
    pub fn new(cfg: FailureModelConfig, paths: Vec<IpPath>, total_links: usize) -> Self {
        assert!(!paths.is_empty(), "failure model needs candidate paths");
        assert!(
            paths.iter().any(|p| p.hop_count() > 0),
            "failure model needs at least one non-trivial path"
        );
        assert!(
            cfg.fraction_bad > 0.0 && cfg.fraction_bad < 1.0,
            "fraction_bad must be in (0,1), got {}",
            cfg.fraction_bad
        );
        let target_down = ((total_links as f64 * cfg.fraction_bad).round() as usize).max(1);
        let downtime = Normal::new(
            cfg.mean_downtime.as_secs_f64(),
            cfg.sd_downtime.as_secs_f64(),
        )
        .expect("downtime sd must be finite and positive");
        let depth = Beta::new(cfg.depth_alpha, cfg.depth_beta)
            .expect("beta parameters must be positive");
        FailureModel { cfg, paths, target_down, downtime, depth }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FailureModelConfig {
        &self.cfg
    }

    /// How many links should be down at any moment.
    pub fn target_down(&self) -> usize {
        self.target_down
    }

    /// Picks the next link to fail: a random candidate path, then a
    /// beta-distributed depth along it. May return a link that is already
    /// down; callers simply skip those (the paper's process keeps the down
    /// count constant, so the simulator retries).
    pub fn pick_link<R: Rng + ?Sized>(&self, rng: &mut R) -> LinkId {
        loop {
            let path = &self.paths[rng.gen_range(0..self.paths.len())];
            let hops = path.hop_count();
            if hops == 0 {
                continue;
            }
            let frac: f64 = self.depth.sample(rng);
            let idx = ((frac * hops as f64) as usize).min(hops - 1);
            return path.link_at(idx);
        }
    }

    /// Draws a truncated-normal downtime.
    pub fn sample_downtime<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let secs: f64 = self.downtime.sample(rng);
        let min = self.cfg.min_downtime.as_secs_f64();
        SimDuration::from_secs_f64(secs.max(min))
    }

    /// Seeds an initial failure population at time `now`: fails links until
    /// `target_down` are down, returning the scheduled repairs.
    ///
    /// Each initial failure gets a fresh downtime so the population is not
    /// phase-locked.
    pub fn seed_initial<R: Rng + ?Sized>(
        &self,
        status: &mut LinkStatus,
        now: SimTime,
        rng: &mut R,
    ) -> Vec<PendingRepair> {
        let mut repairs = Vec::with_capacity(self.target_down);
        let mut guard = 0usize;
        while status.num_down() < self.target_down {
            guard += 1;
            assert!(
                guard < self.target_down * 1000 + 10_000,
                "candidate paths cover too few links to reach the target down count"
            );
            let link = self.pick_link(rng);
            if !status.is_up(link) {
                continue;
            }
            status.fail(link, now);
            repairs.push(PendingRepair { link, at: now + self.sample_downtime(rng) });
        }
        repairs
    }

    /// Handles a repair event: repairs `link` at `now`, picks a replacement
    /// link to fail immediately (keeping the down count constant), and
    /// returns the replacement's scheduled repair.
    pub fn on_repair<R: Rng + ?Sized>(
        &self,
        status: &mut LinkStatus,
        link: LinkId,
        now: SimTime,
        rng: &mut R,
    ) -> PendingRepair {
        status.repair(link, now);
        let mut guard = 0usize;
        loop {
            guard += 1;
            assert!(guard < 100_000, "cannot find an up link to fail");
            let next = self.pick_link(rng);
            if status.is_up(next) {
                status.fail(next, now);
                return PendingRepair { link: next, at: now + self.sample_downtime(rng) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_types::RouterId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path(links: &[u32]) -> IpPath {
        let routers: Vec<RouterId> = (0..=links.len() as u32).map(RouterId).collect();
        IpPath::new(routers, links.iter().copied().map(LinkId).collect())
    }

    fn model(paths: Vec<IpPath>, total_links: usize) -> FailureModel {
        FailureModel::new(FailureModelConfig::default(), paths, total_links)
    }

    #[test]
    fn status_tracks_up_down() {
        let mut s = LinkStatus::new(3);
        assert!(s.is_up(LinkId(0)));
        s.fail(LinkId(0), SimTime::from_secs(10));
        assert!(!s.is_up(LinkId(0)));
        assert_eq!(s.num_down(), 1);
        s.repair(LinkId(0), SimTime::from_secs(20));
        assert!(s.is_up(LinkId(0)));
        assert_eq!(s.num_down(), 0);
        assert_eq!(s.history().len(), 1);
    }

    #[test]
    fn was_up_consults_history_and_open_intervals() {
        let mut s = LinkStatus::new(2);
        s.fail(LinkId(0), SimTime::from_secs(10));
        s.repair(LinkId(0), SimTime::from_secs(20));
        s.fail(LinkId(1), SimTime::from_secs(30)); // still open

        assert!(s.was_up(LinkId(0), SimTime::from_secs(5)));
        assert!(!s.was_up(LinkId(0), SimTime::from_secs(10)));
        assert!(!s.was_up(LinkId(0), SimTime::from_secs(15)));
        assert!(s.was_up(LinkId(0), SimTime::from_secs(20)));

        assert!(s.was_up(LinkId(1), SimTime::from_secs(29)));
        assert!(!s.was_up(LinkId(1), SimTime::from_secs(31)));
    }

    #[test]
    fn fail_and_repair_are_idempotent() {
        let mut s = LinkStatus::new(1);
        s.fail(LinkId(0), SimTime::from_secs(1));
        s.fail(LinkId(0), SimTime::from_secs(2)); // ignored
        assert_eq!(s.num_down(), 1);
        s.repair(LinkId(0), SimTime::from_secs(3));
        s.repair(LinkId(0), SimTime::from_secs(4)); // ignored
        assert_eq!(s.num_down(), 0);
        assert_eq!(s.history(), &[(LinkId(0), SimTime::from_secs(1), SimTime::from_secs(3))]);
    }

    #[test]
    fn seed_reaches_target() {
        let paths = vec![path(&[0, 1, 2, 3, 4]), path(&[5, 6, 7, 8, 9])];
        let m = model(paths, 100); // 5% of 100 = 5 links down
        assert_eq!(m.target_down(), 5);
        let mut s = LinkStatus::new(100);
        let mut rng = StdRng::seed_from_u64(3);
        let repairs = m.seed_initial(&mut s, SimTime::ZERO, &mut rng);
        assert_eq!(s.num_down(), 5);
        assert_eq!(repairs.len(), 5);
        for r in &repairs {
            assert!(r.at > SimTime::ZERO);
            assert!(!s.is_up(r.link));
        }
    }

    #[test]
    fn repair_keeps_population_constant() {
        let paths = vec![path(&[0, 1, 2, 3, 4, 5, 6, 7])];
        let m = model(paths, 40); // target 2
        let mut s = LinkStatus::new(40);
        let mut rng = StdRng::seed_from_u64(4);
        let repairs = m.seed_initial(&mut s, SimTime::ZERO, &mut rng);
        let first = repairs[0];
        let next = m.on_repair(&mut s, first.link, first.at, &mut rng);
        assert_eq!(s.num_down(), m.target_down());
        assert!(s.is_up(first.link));
        assert!(!s.is_up(next.link));
        assert!(next.at > first.at);
    }

    #[test]
    fn downtimes_match_configured_distribution() {
        let m = model(vec![path(&[0, 1])], 100);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let mean: f64 =
            (0..n).map(|_| m.sample_downtime(&mut rng).as_secs_f64()).sum::<f64>() / n as f64;
        // Truncation pulls the mean slightly above 15 min = 900 s.
        assert!((mean - 900.0).abs() < 30.0, "mean downtime {mean} s");
    }

    #[test]
    fn depth_bias_prefers_far_edge() {
        // With α=0.9, β=0.6 the depth distribution is U-shaped with more
        // mass near 1.0, i.e. failures cluster at the far (peer-side) edge.
        let p = path(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let m = model(vec![p], 200);
        let mut rng = StdRng::seed_from_u64(6);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[m.pick_link(&mut rng).index()] += 1;
        }
        let first_half: usize = counts[..5].iter().sum();
        let second_half: usize = counts[5..].iter().sum();
        assert!(
            second_half > first_half,
            "edge bias missing: first={first_half} second={second_half}"
        );
        // And the distribution is U-shaped: both extremes beat the middle.
        assert!(counts[9] > counts[5]);
        assert!(counts[0] > counts[4]);
    }

    #[test]
    #[should_panic(expected = "candidate paths")]
    fn empty_paths_rejected() {
        let _ = model(Vec::new(), 10);
    }
}
