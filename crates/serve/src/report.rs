//! The daemon's unit of work: one message-failure report.
//!
//! A [`FailureReport`] is what an overlay host submits when a message of
//! its died despite retries: the (judge, accused) pair of the suspected
//! drop, and the per-link probe tallies gathered from the neighborhood
//! snapshot — the Eq. 2 evidence. Reports carry their virtual arrival
//! time (assigned by the open-loop [workload driver](crate::workload))
//! and an evidence timestamp; reports whose evidence falls in the same
//! window are batched into one blame evaluation pass.

use concilium::blame::LinkEvidence;
use concilium_types::{LinkId, SimDuration, SimTime};

use crate::ServeConfig;

/// Per-link probe tallies — the compact wire form of the Eq. 2 evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkObs {
    /// The observed IP link.
    pub link: u64,
    /// Probes reporting the link up.
    pub up: u64,
    /// Probes reporting the link down.
    pub down: u64,
}

/// One message-failure report submitted to the daemon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureReport {
    /// Report identifier, unique within a run.
    pub id: u64,
    /// The judging host (the steward whose message died).
    pub judge: u64,
    /// The accused next hop.
    pub accused: u64,
    /// Virtual time the report reaches the daemon.
    pub arrival: SimTime,
    /// Virtual time the evidence snapshot was taken; the batching key.
    pub evidence_at: SimTime,
    /// Per-link probe tallies along the accused's path.
    pub links: Vec<LinkObs>,
}

impl FailureReport {
    /// Total probe observations across every link.
    pub(crate) fn observations(&self) -> u64 {
        self.links.iter().map(|l| l.up + l.down).sum()
    }

    /// The deterministic virtual service cost of evaluating this report:
    /// a fixed base plus a per-observation term. This model is what
    /// defines 1× saturation for the open-loop driver.
    pub(crate) fn service_cost(&self, cfg: &ServeConfig) -> SimDuration {
        SimDuration::from_micros(
            cfg.base_service
                .as_micros()
                .saturating_add(cfg.per_observation.as_micros().saturating_mul(self.observations())),
        )
    }

    /// Expands the tallies into the [`LinkEvidence`] form the Eq. 2–3
    /// combinator consumes (`true` = probed up).
    pub(crate) fn evidence(&self) -> Vec<LinkEvidence> {
        self.links
            .iter()
            .map(|l| {
                let mut observations = Vec::with_capacity((l.up + l.down) as usize);
                observations.extend(std::iter::repeat_n(true, l.up as usize));
                observations.extend(std::iter::repeat_n(false, l.down as usize));
                LinkEvidence { link: LinkId(l.link as u32), observations }
            })
            .collect()
    }

    /// Feeds the report's canonical journal encoding to `put`, word by
    /// word.
    pub(crate) fn write_words(&self, put: &mut impl FnMut(u64)) {
        let (arrival, evidence_at) = (self.arrival.as_micros(), self.evidence_at.as_micros());
        [self.id, self.judge, self.accused, arrival, evidence_at, self.links.len() as u64]
            .into_iter()
            .chain(self.links.iter().flat_map(|l| [l.link, l.up, l.down]))
            .for_each(put);
    }

    /// Words in the report's journal encoding.
    pub(crate) fn encoded_words(&self) -> usize {
        6 + 3 * self.links.len()
    }

    /// Decodes a report from `words` starting at `*at`, advancing `*at`
    /// past it. `None` on truncated or malformed input.
    pub(crate) fn decode_from(words: &[u64], at: &mut usize) -> Option<FailureReport> {
        let head = words.get(*at..*at + 6)?;
        let n_links = head[5];
        // The link count is bounded by the words actually present (which
        // a frame caps), so a corrupt count never sizes the allocation.
        if n_links > (words.len() - (*at + 6)) as u64 / 3 {
            return None;
        }
        let n_links = n_links as usize;
        let mut links = Vec::with_capacity(n_links);
        let mut k = *at + 6;
        for _ in 0..n_links {
            let l = words.get(k..k + 3)?;
            links.push(LinkObs { link: l[0], up: l[1], down: l[2] });
            k += 3;
        }
        let report = FailureReport {
            id: head[0],
            judge: head[1],
            accused: head[2],
            arrival: SimTime::from_micros(head[3]),
            evidence_at: SimTime::from_micros(head[4]),
            links,
        };
        *at = k;
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FailureReport {
        FailureReport {
            id: 7,
            judge: 3,
            accused: 5,
            arrival: SimTime::from_secs(2),
            evidence_at: SimTime::from_micros(1_800_000),
            links: vec![
                LinkObs { link: 10, up: 2, down: 1 },
                LinkObs { link: 11, up: 0, down: 3 },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let r = sample();
        let mut words = vec![99]; // leading noise the cursor skips
        r.write_words(&mut |w| words.push(w));
        assert_eq!(words.len(), 1 + r.encoded_words());
        let mut at = 1;
        let decoded = FailureReport::decode_from(&words, &mut at).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(at, words.len(), "cursor must land exactly past the report");
    }

    #[test]
    fn truncated_encoding_is_rejected() {
        let r = sample();
        let mut words = Vec::new();
        r.write_words(&mut |w| words.push(w));
        for cut in 0..words.len() {
            let mut at = 0;
            assert!(
                FailureReport::decode_from(&words[..cut], &mut at).is_none(),
                "prefix of {cut} words must not decode"
            );
        }
    }

    #[test]
    fn evidence_expands_tallies() {
        let r = sample();
        assert_eq!(r.observations(), 6);
        let ev = r.evidence();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].observations, vec![true, true, false]);
        assert_eq!(ev[1].observations, vec![false, false, false]);
    }

    #[test]
    fn service_cost_is_base_plus_per_observation() {
        let cfg = ServeConfig::default();
        let r = sample();
        let expect = cfg.base_service.as_micros() + 6 * cfg.per_observation.as_micros();
        assert_eq!(r.service_cost(&cfg).as_micros(), expect);
    }
}
