//! The assembled simulation world.

#![expect(
    clippy::disallowed_types,
    reason = "the id/router/peer maps are point lookups; every ordered walk goes through host or peer order"
)]

use std::collections::HashMap;

use rand::Rng;

use concilium_crypto::{Certificate, CertificateAuthority, KeyPair};
use concilium_overlay::{build_overlay, NextHop, OverlayNode, RoutingMode};
use concilium_tomography::ProbeTree;
use concilium_topology::{generate, FailureModel, IpPath, LinkStatus, MultiBfs, Topology};
use concilium_types::{Id, LinkId, SimDuration, SimTime};

use crate::archive::ProbeArchive;
use crate::behavior::AdversarySets;
use crate::config::SimConfig;
use crate::engine::EventQueue;
use crate::evidence::{EvidenceIndex, PathEvidence};
use crate::failhist::{HistoryCursor, IndexedHistory};

/// How close (in virtual time) a routing peer's probe round must be for an
/// adaptive adversary to consider itself "observed" and behave. Slightly
/// above the tiny-world max probe interval so honest-looking stretches are
/// rare but possible.
pub const ADAPTIVE_GUARD: SimDuration = SimDuration::from_secs(75);

/// `slot_of` entry of a router that hosts no overlay node.
const NO_SLOT: u32 = u32::MAX;

/// `rng.gen_bool(p)` as an integer threshold on the same draw: it is
/// `unit_f64(x) < p`, where `unit_f64(x)` is `(x >> 11) · 2⁻⁵³` exactly,
/// so it holds iff `x >> 11 < p · 2⁵³`, and for an integer left side iff
/// `x >> 11 < ⌈p · 2⁵³⌉` (the product is exact: a power-of-two scaling).
fn bernoulli_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The fate of one application message sent along an overlay route at a
/// given instant.
///
/// Every send and retransmission — the DST's, the experiments' and the
/// examples' — resolves through this type; it is `Copy` and
/// allocation-free so the hot path never touches the heap. The hosts that
/// held the message are always a prefix of the queried route, and `hops`
/// is that prefix's length: `route[..hops]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteFate {
    /// The message reached the node responsible for the destination key.
    Delivered {
        /// Number of hosts visited, source included.
        hops: usize,
    },
    /// A misbehaving overlay host silently dropped the message.
    DroppedByHost {
        /// Number of hosts visited, dropper included.
        hops: usize,
        /// The dropper's host index.
        at: usize,
    },
    /// A failed IP link prevented a hop from completing.
    DroppedByNetwork {
        /// Number of hosts visited, up to and including the last holder.
        hops: usize,
        /// The host that could not transmit.
        from: usize,
        /// The unreachable next hop.
        to: usize,
        /// The first failed link on the hop's IP path.
        link: LinkId,
    },
}

impl RouteFate {
    /// Whether the message was delivered.
    pub fn delivered(&self) -> bool {
        matches!(self, RouteFate::Delivered { .. })
    }

    /// Number of hosts that held the message, source included.
    pub(crate) fn hops(&self) -> usize {
        match *self {
            RouteFate::Delivered { hops }
            | RouteFate::DroppedByHost { hops, .. }
            | RouteFate::DroppedByNetwork { hops, .. } => hops,
        }
    }
}

/// The fully built world of one evaluation run: topology, overlay, trees,
/// failure history, and probe archives.
pub struct SimWorld {
    config: SimConfig,
    topology: Topology,
    nodes: Vec<OverlayNode>,
    host_index: HashMap<Id, usize>,
    /// Dense row-major `(host, host)` table of IP paths to routing peers;
    /// `None` where the column host is not a routing peer of the row host.
    /// Dense because the route walk resolves one entry per overlay hop per
    /// send — a slice index instead of a hash lookup.
    peer_paths: Vec<Option<IpPath>>,
    /// Per host: routing peers as host indices.
    peer_hosts: Vec<Vec<usize>>,
    trees: Vec<ProbeTree>,
    archives: Vec<ProbeArchive>,
    /// Which trees cover each link and each host's rank among every
    /// judge's vantages: the evidence query reads this instead of asking
    /// every peer's archive.
    evidence: EvidenceIndex,
    history: IndexedHistory,
    /// Pairwise IP hop distances between overlay hosts (row-major).
    host_dist: Vec<u16>,
    /// Search passes (misses) and the host searches they ran (hits) while
    /// building the world.
    build_tree_stats: concilium_topology::CacheStats,
}

impl SimWorld {
    /// Builds the world and runs the failure and probing phases for the
    /// configured duration.
    ///
    /// Deterministic for a given `rng` state.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see `SimConfig::validate`)
    /// or produces fewer than 2 overlay hosts.
    pub fn build<R: Rng + ?Sized>(config: SimConfig, rng: &mut R) -> Self {
        let _span = concilium_obs::span("world.build");
        config.validate();

        // 1. Topology and overlay membership.
        let topology = generate(&config.topology, rng);
        let overlay_routers = topology.sample_end_hosts(config.overlay_fraction, rng);
        assert!(overlay_routers.len() >= 2, "need at least 2 overlay hosts");

        let ca = CertificateAuthority::new(rng);
        let mut members: Vec<(Certificate, KeyPair)> =
            Vec::with_capacity(overlay_routers.len());
        for &r in &overlay_routers {
            let keys = KeyPair::generate(rng);
            let cert = ca.issue(r.into(), keys.public(), rng);
            members.push((cert, keys));
        }

        // 2a. Pairwise IP distances between overlay hosts: the proximity
        //     oracle for *standard* routing tables ("proximity affinity",
        //     §2) and the stretch analysis. One search per host, 64 hosts
        //     per pass; a host's distance to an overlay router is written
        //     when that router's bit turns on. `slot_of` maps a router to
        //     its host slot (`NO_SLOT` for the rest). Each pass's levels
        //     are kept for 2b.
        let span = concilium_obs::span("world.bfs");
        let n_hosts = overlay_routers.len();
        let mut slot_of = vec![NO_SLOT; topology.graph.num_routers()];
        for (i, &r) in overlay_routers.iter().enumerate() {
            slot_of[r.index()] = i as u32;
        }
        let mut build_tree_stats = concilium_topology::CacheStats::default();
        let mut host_dist = vec![u16::MAX; n_hosts * n_hosts];
        let mut search = MultiBfs::new();
        let mut passes = Vec::with_capacity(n_hosts.div_ceil(MultiBfs::WIDTH));
        for (pass, sources) in overlay_routers.chunks(MultiBfs::WIDTH).enumerate() {
            let first = pass * MultiBfs::WIDTH;
            let mut found = 0;
            passes.push(search.run(&topology.graph, sources, |router, mut lanes, depth| {
                let slot = slot_of[router.index()];
                if slot == NO_SLOT {
                    return;
                }
                while lanes != 0 {
                    let row = first + lanes.trailing_zeros() as usize;
                    host_dist[row * n_hosts + slot as usize] = depth.min(u16::MAX as u32) as u16;
                    found += 1;
                    lanes &= lanes - 1;
                }
            }));
            assert_eq!(found, sources.len() * n_hosts, "topology is connected");
            build_tree_stats.misses += 1;
            build_tree_stats.hits += sources.len() as u64;
        }
        drop(span);
        let proximity = |a: concilium_types::HostAddr, b: concilium_types::HostAddr| -> u64 {
            let i = slot_of[a.router().index()] as usize;
            let j = slot_of[b.router().index()] as usize;
            host_dist[i * n_hosts + j] as u64
        };

        let span = concilium_obs::span("world.overlay");
        let nodes = build_overlay(
            &members,
            config.leaf_capacity,
            SimTime::ZERO,
            Some(&proximity),
            rng,
        );
        let host_index: HashMap<Id, usize> =
            nodes.iter().enumerate().map(|(i, n)| (n.id(), i)).collect();
        drop(span);

        // 2b. IP paths host → routing peers (secure peers define the probe
        //     tree T_H; standard-table peers get paths too so standard
        //     routes can be measured), and probe trees. Which overlay
        //     routers are a host's peers is only known now, so each host's
        //     peer paths come from a search restricted to the peers'
        //     shortest-path ancestors (`MultiBfs::paths_to`) over the
        //     levels its 2a pass kept; a pass is dropped once its hosts
        //     are done. `build_overlay` returns nodes in member order, so
        //     pass `p` lane `i` is host `64p + i`.
        let span = concilium_obs::span("world.paths");
        let mut paths = Vec::with_capacity(nodes.len());
        let mut peer_hosts = Vec::with_capacity(nodes.len());
        let mut trees = Vec::with_capacity(nodes.len());
        for (pass, batch) in passes.into_iter().zip(nodes.chunks(MultiBfs::WIDTH)) {
            for (lane, node) in batch.iter().enumerate() {
                assert_eq!(pass.sources()[lane], node.addr().router(), "nodes keep member order");
                let secure = node.routing_peers(RoutingMode::Secure);
                let mut standard = node.routing_peers(RoutingMode::Standard);
                standard.retain(|peer| !secure.iter().any(|s| s.id() == peer.id()));
                let targets: Vec<_> =
                    secure.iter().chain(&standard).map(|peer| peer.addr().router()).collect();
                let mut found = search
                    .paths_to(&topology.graph, &pass, lane, &targets)
                    .into_iter()
                    .map(|path| path.expect("generated topologies are connected"));
                let mut pmap = HashMap::with_capacity(targets.len());
                let mut phosts = Vec::with_capacity(secure.len());
                let mut tree_leaves = Vec::with_capacity(secure.len());
                for (peer, path) in secure.iter().zip(found.by_ref()) {
                    tree_leaves.push((peer.id(), path.clone()));
                    pmap.insert(peer.id(), path);
                    phosts.push(host_index[&peer.id()]);
                }
                for (peer, path) in standard.iter().zip(found) {
                    pmap.insert(peer.id(), path);
                }
                trees.push(
                    ProbeTree::from_paths(node.addr().router(), tree_leaves)
                        .expect("BFS path unions are trees"),
                );
                paths.push(pmap);
                peer_hosts.push(phosts);
            }
        }
        drop(search);
        drop(span);

        // 3. Link-failure phase: keep `fraction_bad` of links down for the
        //    whole duration, event-driven.
        let span = concilium_obs::span("world.failures");
        // Deterministic order: host order, then peer-id order (HashMap
        // iteration order would differ between runs and desynchronise the
        // rng stream).
        let candidate_paths: Vec<IpPath> = paths
            .iter()
            .flat_map(|m| {
                let mut ids: Vec<&Id> = m.keys().collect();
                ids.sort();
                ids.into_iter().map(|id| m[id].clone()).collect::<Vec<_>>()
            })
            .collect();

        // Densify the per-host peer-path maps into one row-major table so
        // the message-walk hot path indexes instead of hashing. Every peer
        // is an overlay host, so `(row host, column host)` covers them all.
        let mut peer_paths: Vec<Option<IpPath>> = vec![None; nodes.len() * nodes.len()];
        for (u, pmap) in paths.iter().enumerate() {
            for (id, path) in pmap {
                peer_paths[u * nodes.len() + host_index[id]] = Some(path.clone());
            }
        }
        let failure =
            FailureModel::new(config.failure, candidate_paths, topology.graph.num_links());
        let mut status = LinkStatus::new(topology.graph.num_links());
        let mut queue = EventQueue::new();
        for repair in failure.seed_initial(&mut status, SimTime::ZERO, rng) {
            queue.schedule(repair.at, repair.link);
        }
        let end = SimTime::ZERO + config.duration;
        while let Some((t, link)) = queue.pop_until(end) {
            let next = failure.on_repair(&mut status, link, t, rng);
            queue.schedule(next.at, next.link);
        }
        let history = IndexedHistory::from_status(&status, topology.graph.num_links(), end);
        drop(span);

        // 4. Probing phase: every host heavyweight-probes its whole tree
        //    at uniform random intervals; each observation is correct with
        //    probability `probe_accuracy`. A round is built a word of 64
        //    columns at a time, one draw per column in column order.
        let span = concilium_obs::span("world.probe");
        let mut archives = Vec::with_capacity(nodes.len());
        let max_probe = config.max_probe_time.as_micros();
        let accurate = bernoulli_threshold(config.probe_accuracy);
        for tree in &trees {
            let links = tree.link_set();
            let mut archive = ProbeArchive::new(&links);
            // Rounds come in time order: one history cursor per column.
            let mut cursors: Vec<HistoryCursor> =
                links.iter().map(|&l| history.cursor(l)).collect();
            let mut t = SimTime::from_micros(rng.gen_range(0..=max_probe));
            while t < end {
                archive.record_words(t, |first, chunk| {
                    let mut word = 0;
                    for (bit, cursor) in cursors[first..][..chunk.len()].iter_mut().enumerate() {
                        let correct = rng.next_u64() >> 11 < accurate;
                        word |= u64::from(cursor.was_up(t) == correct) << bit;
                    }
                    word
                });
                t += SimDuration::from_micros(rng.gen_range(1..=max_probe));
            }
            archives.push(archive);
        }
        drop(span);

        // 5. The link → voucher incidence the evidence query reads, from
        //    the link sets the archives already hold. Derived state: it
        //    draws nothing.
        let span = concilium_obs::span("world.evidence_index");
        let evidence = EvidenceIndex::build(topology.graph.num_links(), &archives, &peer_hosts);
        drop(span);

        SimWorld {
            config,
            topology,
            nodes,
            host_index,
            peer_hosts,
            trees,
            archives,
            evidence,
            history,
            host_dist,
            peer_paths,
            build_tree_stats,
        }
    }

    /// Search work during construction: `misses` counts passes over the
    /// graph, `hits` the host searches those passes ran — 64 hosts to a
    /// full pass, each host once: its pass gives its distances and is kept
    /// for its peer paths. A single-threaded, deterministic build phase, so
    /// these reproduce exactly; reported by the sweep drivers.
    pub fn build_tree_stats(&self) -> concilium_topology::CacheStats {
        self.build_tree_stats
    }

    /// The configuration used.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The generated topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of overlay hosts.
    pub fn num_hosts(&self) -> usize {
        self.nodes.len()
    }

    /// The overlay node at host index `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn node(&self, h: usize) -> &OverlayNode {
        &self.nodes[h]
    }

    /// Host index of an overlay identifier.
    pub fn index_of(&self, id: Id) -> Option<usize> {
        self.host_index.get(&id).copied()
    }

    /// The public key of the overlay member with identifier `id`, if it
    /// exists — the key-lookup closure that [`Accusation::verify`] and
    /// chain verification expect.
    ///
    /// [`Accusation::verify`]: https://docs.rs/concilium
    pub(crate) fn public_key_of(&self, id: Id) -> Option<concilium_crypto::PublicKey> {
        self.index_of(id).map(|h| self.nodes[h].public_key())
    }

    /// The probe tree T_H of host `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn tree(&self, h: usize) -> &ProbeTree {
        &self.trees[h]
    }

    /// The probe archive of host `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn archive(&self, h: usize) -> &ProbeArchive {
        &self.archives[h]
    }

    /// The routing peers of host `h`, as host indices.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn peers_of(&self, h: usize) -> &[usize] {
        &self.peer_hosts[h]
    }

    /// The IP path from host `h` to its routing peer with identifier
    /// `peer`, if that peer is in `h`'s routing state.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn path_to_peer(&self, h: usize, peer: Id) -> Option<&IpPath> {
        let v = *self.host_index.get(&peer)?;
        self.peer_path(h, v)
    }

    /// The IP path from host `u` to host `v` when `v` is one of `u`'s
    /// routing peers; a dense-table index, no hashing.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn peer_path(&self, u: usize, v: usize) -> Option<&IpPath> {
        self.peer_paths[u * self.nodes.len() + v].as_ref()
    }

    /// Ground truth: was `link` up at `t`?
    pub fn link_up_at(&self, link: LinkId, t: SimTime) -> bool {
        self.history.was_up(link, t)
    }

    /// Ground truth: were all of `path`'s links up at `t`?
    pub fn path_up_at(&self, path: &IpPath, t: SimTime) -> bool {
        self.history.path_up(path.links(), t)
    }

    /// The tomographic evidence available to `judge` about each of
    /// `links` (the B→C path) around time `t`: observations from the
    /// judge's own archive and from the snapshots its routing peers sent
    /// it, restricted to probes initiated within `[t − Δ, t + Δ]`. Probes
    /// originated by `exclude` (the node being judged) are omitted, as
    /// Eq. 3 requires.
    ///
    /// Overwrites `out` with one run of `(origin host, observed up)` pairs
    /// per link: judge first, then its peers in [`SimWorld::peers_of`]
    /// order, each origin's rounds oldest first. The same as
    /// [`SimWorld::plan_evidence`] followed by [`SimWorld::evidence_at`].
    ///
    /// # Panics
    ///
    /// Panics if `judge` is out of range.
    pub fn path_evidence(
        &self,
        judge: usize,
        links: &[LinkId],
        t: SimTime,
        delta: SimDuration,
        exclude: Option<usize>,
        out: &mut PathEvidence,
    ) {
        self.plan_evidence(judge, links, exclude, out);
        self.evidence_at(t, delta, out);
    }

    /// The time-independent half of [`SimWorld::path_evidence`]: which of
    /// `judge`'s vantages (itself, then its peers), other than `exclude`,
    /// probe each of `links`, in rank order. Overwrites the plan in `out`
    /// and empties its observations until [`SimWorld::evidence_at`] reads
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `judge` is out of range.
    pub fn plan_evidence(
        &self,
        judge: usize,
        links: &[LinkId],
        exclude: Option<usize>,
        out: &mut PathEvidence,
    ) {
        let _span = concilium_obs::span("world.evidence_plan");
        let PathEvidence { observations, ends, planned, plan_ends, vantages, .. } = out;
        observations.clear();
        ends.clear();
        planned.clear();
        plan_ends.clear();
        *vantages = self.peer_hosts[judge].len() + 1;
        for &link in links {
            let start = planned.len();
            for &(origin, col) in self.evidence.vouchers(link) {
                if Some(origin as usize) == exclude {
                    continue;
                }
                if let Some(rank) = self.evidence.rank(judge, origin as usize) {
                    planned.push((rank, origin, col));
                }
            }
            // Ranks are distinct, so this orders by rank alone.
            planned[start..].sort_unstable();
            plan_ends.push(planned.len());
        }
    }

    /// The time-dependent half of [`SimWorld::path_evidence`]: overwrites
    /// `evidence`'s observations with what its planned vouchers probed in
    /// `[t − Δ, t + Δ]`. Each vantage's round window is searched once per
    /// read, however many links it vouches for.
    pub fn evidence_at(&self, t: SimTime, delta: SimDuration, evidence: &mut PathEvidence) {
        let _span = concilium_obs::span("world.evidence");
        let PathEvidence { observations, ends, planned, plan_ends, vantages, windows } = evidence;
        observations.clear();
        ends.clear();
        windows.clear();
        windows.resize(*vantages, None);
        let mut start = 0;
        for &end in plan_ends.iter() {
            for &(rank, origin, col) in &planned[start..end] {
                let archive = &self.archives[origin as usize];
                let rounds = windows[usize::from(rank)]
                    .get_or_insert_with(|| archive.rounds_in_window(t, delta))
                    .clone();
                observations.extend(
                    archive
                        .column_observations(col as usize, rounds)
                        .map(|up| (origin as usize, up)),
                );
            }
            ends.push(observations.len());
            start = end;
        }
    }

    /// [`SimWorld::path_evidence`] for a single link, as an owned list.
    ///
    /// # Panics
    ///
    /// Panics if `judge` is out of range.
    pub fn probe_evidence(
        &self,
        judge: usize,
        link: LinkId,
        t: SimTime,
        delta: SimDuration,
        exclude: Option<usize>,
    ) -> Vec<(usize, bool)> {
        let mut out = PathEvidence::new();
        self.path_evidence(judge, &[link], t, delta, exclude, &mut out);
        out.observations
    }

    /// Whether any routing peer of host `h` initiated a probe round within
    /// `[t − guard, t + guard]` — the adaptive adversary's notion of
    /// "someone might be watching". Peers are the vantages whose probe
    /// trees cover `h`'s neighbourhood, so a recent round from any of them
    /// could have captured `h`'s links.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub(crate) fn observed_near(&self, h: usize, t: SimTime, guard: SimDuration) -> bool {
        self.peer_hosts[h]
            .iter()
            .any(|&p| !self.archives[p].rounds_in_window(t, guard).is_empty())
    }

    /// Computes the overlay route from host `src` toward key `target`
    /// using secure routing, returning host indices (source first).
    ///
    /// Returns `None` on a routing loop (indicating inconsistent state —
    /// never expected for worlds built by [`SimWorld::build`]).
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn route(&self, src: usize, target: Id) -> Option<Vec<usize>> {
        self.route_via(src, target, RoutingMode::Secure)
    }

    /// Like [`SimWorld::route`] but with an explicit routing mode —
    /// `Standard` consults the proximity-optimised tables.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn route_via(&self, src: usize, target: Id, mode: RoutingMode) -> Option<Vec<usize>> {
        let mut cur = src;
        let mut visited = vec![src];
        for _ in 0..4 * concilium_types::ID_DIGITS {
            match self.nodes[cur].next_hop(target, mode) {
                NextHop::Deliver => return Some(visited),
                NextHop::Forward(cert) => {
                    let next = self.host_index[&cert.id()];
                    if visited.contains(&next) {
                        return None;
                    }
                    visited.push(next);
                    cur = next;
                }
            }
        }
        None
    }

    /// IP hop distance between two overlay hosts.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn ip_distance(&self, a: usize, b: usize) -> u32 {
        self.host_dist[a * self.nodes.len() + b] as u32
    }

    /// Total IP hops crossed by an overlay route (host indices as
    /// returned by [`SimWorld::route_via`]).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn route_ip_hops(&self, route: &[usize]) -> u32 {
        route.windows(2).map(|w| self.ip_distance(w[0], w[1])).sum()
    }

    /// Sends an application message along `route` (as [`SimWorld::route`]
    /// returns it) at time `t`, modelling both IP-link failures and
    /// message-dropping hosts. Overlay routes are time-independent (tables
    /// are static within an episode), so callers that send repeatedly
    /// along one flow route once and ask for the fate per instant.
    ///
    /// # Panics
    ///
    /// Panics if `route` is empty or names an out-of-range host.
    pub fn route_fate_on_route(
        &self,
        route: &[usize],
        t: SimTime,
        adversaries: &AdversarySets,
    ) -> RouteFate {
        let last = *route.last().expect("routes are non-empty");
        let mut hops = 1;
        for w in route.windows(2) {
            let (u, v) = (w[0], w[1]);
            let path = self.peer_path(u, v).expect("next hops are routing peers");
            if let Some(&bad) = path.links().iter().find(|&&l| !self.history.was_up(l, t)) {
                return RouteFate::DroppedByNetwork { hops, from: u, to: v, link: bad };
            }
            hops += 1;
            // The destination itself delivering is not a "forwarding" act;
            // intermediate droppers discard silently. Adaptive droppers
            // only dare to when no vantage has probed their neighbourhood
            // recently.
            if v != last {
                let drops = adversaries.is_dropper(v)
                    || (adversaries.is_adaptive_dropper(v)
                        && !self.observed_near(v, t, ADAPTIVE_GUARD));
                if drops {
                    return RouteFate::DroppedByHost { hops, at: v };
                }
            }
        }
        RouteFate::Delivered { hops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every probe round of host `h`'s archive: all fall inside the run.
    fn all_rounds(w: &SimWorld, h: usize) -> std::ops::Range<usize> {
        w.archive(h)
            .rounds_in_window(SimTime::ZERO, w.config().duration)
    }

    fn tiny_world(seed: u64) -> SimWorld {
        let mut rng = StdRng::seed_from_u64(seed);
        SimWorld::build(SimConfig::tiny(), &mut rng)
    }

    #[test]
    fn build_produces_consistent_state() {
        let w = tiny_world(1);
        assert!(w.num_hosts() >= 4);
        for h in 0..w.num_hosts() {
            // Every routing peer has a path and a host index.
            assert_eq!(w.peers_of(h).len(), w.tree(h).num_leaves());
            for &p in w.peers_of(h) {
                assert!(p < w.num_hosts());
                let pid = w.node(p).id();
                assert!(w.path_to_peer(h, pid).is_some());
            }
            // The archive has probes spread over the duration, one column
            // per tree link.
            assert!(all_rounds(&w, h).len() >= 2);
            assert_eq!(w.archive(h).links(), &w.tree(h).link_set()[..]);
        }
    }

    #[test]
    fn failures_keep_target_population() {
        let w = tiny_world(2);
        // At mid-simulation, roughly target_down links should be down.
        let t = SimTime::from_secs(300);
        let down = w
            .topology()
            .graph
            .links()
            .filter(|&l| !w.link_up_at(l, t))
            .count();
        let expect =
            (w.topology().graph.num_links() as f64 * w.config().failure.fraction_bad).round();
        assert!(
            (down as f64 - expect).abs() <= expect * 0.5 + 2.0,
            "down {down}, expected ≈ {expect}"
        );
    }

    #[test]
    fn routes_deliver_to_closest_host() {
        let w = tiny_world(3);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let target = Id::random(&mut rng);
            let route = w.route(0, target).unwrap();
            let last = w.node(*route.last().unwrap()).id();
            let best = (0..w.num_hosts())
                .map(|h| w.node(h).id())
                .min_by_key(|i| i.ring_distance(&target))
                .unwrap();
            assert_eq!(last, best);
        }
    }

    #[test]
    fn message_outcomes_reflect_adversaries() {
        // Use a gentler failure rate so up-paths are easy to find.
        let mut cfg = SimConfig::tiny();
        cfg.failure.fraction_bad = 0.01;
        let mut rng = StdRng::seed_from_u64(4);
        let w = SimWorld::build(cfg, &mut rng);
        // With every link forced up (probe at a time after all repairs?
        // cannot force, so instead test the dropper path on a direct
        // neighbour route) — pick a destination whose route is exactly
        // [src, dst].
        let src = 0usize;
        let mut dst = None;
        for &p in w.peers_of(src) {
            let id = w.node(p).id();
            if w.route(src, id) == Some(vec![src, p]) {
                dst = Some(p);
                break;
            }
        }
        let dst = dst.expect("some peer is reached directly");
        let id = w.node(dst).id();
        // Find a time when the direct IP path is up.
        let path = w.path_to_peer(src, id).unwrap().clone();
        let mut good_t = None;
        for s in 0..600 {
            let t = SimTime::from_secs(s);
            if w.path_up_at(&path, t) {
                good_t = Some(t);
                break;
            }
        }
        let t = good_t.expect("path is up at some point");
        // No adversaries → delivered.
        let route = [src, dst];
        let out = w.route_fate_on_route(&route, t, &AdversarySets::none());
        assert!(out.delivered(), "{out:?}");
        // The final destination being a "dropper" does not matter — only
        // intermediate forwarders drop. A two-node route has none.
        let mut adv = AdversarySets::none();
        adv.droppers.insert(dst);
        assert!(w.route_fate_on_route(&route, t, &adv).delivered());
    }

    #[test]
    fn network_drops_are_attributed_to_links() {
        let w = tiny_world(5);
        let src = 0usize;
        let dst = w.peers_of(src)[0];
        let id = w.node(dst).id();
        let path = w.path_to_peer(src, id).unwrap().clone();
        // Find a time when the path is down (5% of links fail, paths are
        // long, failures are biased onto overlay paths — should exist).
        let mut bad_t = None;
        for s in 0..3600 {
            let t = SimTime::from_secs(s);
            if !w.path_up_at(&path, t) {
                bad_t = Some(t);
                break;
            }
        }
        if let Some(t) = bad_t {
            if w.route(src, id) == Some(vec![src, dst]) {
                match w.route_fate_on_route(&[src, dst], t, &AdversarySets::none()) {
                    RouteFate::DroppedByNetwork { link, from, to, .. } => {
                        assert_eq!((from, to), (src, dst));
                        assert!(!w.link_up_at(link, t));
                    }
                    other => panic!("expected network drop, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn probe_evidence_excludes_judged_host() {
        let w = tiny_world(6);
        let judge = 0usize;
        let excluded = w.peers_of(judge)[0];
        // Pick a link the excluded host's tree covers.
        let link = w.tree(excluded).link_set()[0];
        let t = SimTime::from_secs(300);
        let delta = SimDuration::from_secs(120);
        let with = w.probe_evidence(judge, link, t, delta, None);
        let without = w.probe_evidence(judge, link, t, delta, Some(excluded));
        assert!(without.iter().all(|&(o, _)| o != excluded));
        assert!(with.len() >= without.len());
    }

    /// The per-peer scan the evidence index replaced — ask the judge's
    /// archive, then each routing peer's, whether it covers the link —
    /// kept as the reference the index answer is compared with.
    fn evidence_by_peer_scan(
        w: &SimWorld,
        judge: usize,
        link: LinkId,
        t: SimTime,
        delta: SimDuration,
        exclude: Option<usize>,
    ) -> Vec<(usize, bool)> {
        std::iter::once(judge)
            .chain(w.peers_of(judge).iter().copied())
            .filter(|&origin| Some(origin) != exclude)
            .flat_map(|origin| {
                let observations = w.archive(origin).observations_in_window(link, t, delta);
                observations.into_iter().map(move |up| (origin, up))
            })
            .collect()
    }

    #[test]
    fn evidence_index_matches_the_peer_scan() {
        for (cfg, seed) in [(SimConfig::tiny(), 61u64), (SimConfig::small(), 62)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = SimWorld::build(cfg, &mut rng);
            let n = w.num_hosts();
            let end = SimTime::ZERO + w.config().duration;
            let times = [
                SimTime::ZERO,
                SimTime::from_micros(500_000),
                SimTime::from_micros(end.as_micros() / 2),
                end,
                end + SimDuration::from_mins(60),
            ];
            let deltas =
                [SimDuration::from_secs(1), SimDuration::from_secs(60), w.config().duration];

            // Every link of the topology, not only the trees' — most are
            // covered by no tree, some by one, the busiest by every tree
            // (more vouchers than the scratch list holds before it first
            // grows; it is a `Vec`, there is no inline bound to exceed) —
            // and an id past the topology's last.
            let mut links: Vec<LinkId> = w.topology().graph.links().collect();
            links.push(LinkId(links.len() as u32 + 7));
            let covered_by =
                |k: usize| links.iter().filter(|&&l| w.evidence.vouchers(l).len() == k).count();
            assert!(covered_by(0) > 1 && covered_by(1) > 0, "uncovered and once-covered links");
            assert!(covered_by(n) > 0, "a link every tree covers");

            // One buffer holds every judge's plans in turn, so a judge
            // planned after one with more (or fewer) peers reads through
            // window slots the previous judge's reads filled.
            let mut planned = PathEvidence::new();
            let mut whole = PathEvidence::new();
            let mut compared = 0usize;
            let mut strangers = 0usize;
            let mut resized = 0usize;
            for judge in 0..n {
                let peer = w.peers_of(judge)[judge % w.peers_of(judge).len()];
                // A judge that peers with everyone has no stranger.
                let stranger = (0..n).find(|h| *h != judge && !w.peers_of(judge).contains(h));
                strangers += usize::from(stranger.is_some());
                resized += usize::from(
                    judge > 0 && w.peers_of(judge).len() != w.peers_of(judge - 1).len(),
                );
                let excludes = [None, Some(judge), Some(peer), stranger.or(Some(peer))];
                for exclude in excludes {
                    // One plan over every link, read at every instant,
                    // agrees link by link with the scan, order included,
                    // and with a whole path-level query.
                    w.plan_evidence(judge, &links, exclude, &mut planned);
                    for (t, delta) in times.iter().flat_map(|&t| deltas.iter().map(move |&d| (t, d))) {
                        w.evidence_at(t, delta, &mut planned);
                        assert_eq!(planned.per_link().len(), links.len());
                        for (k, &link) in links.iter().enumerate() {
                            let want = evidence_by_peer_scan(&w, judge, link, t, delta, exclude);
                            assert_eq!(
                                planned.link(k),
                                &want[..],
                                "judge {judge} link {link:?} t {t:?} Δ {delta:?} excl {exclude:?}"
                            );
                            compared += want.len();
                        }
                        let flat: Vec<_> = planned.per_link().flatten().copied().collect();
                        assert_eq!(flat, planned.observations);
                        w.path_evidence(judge, &links, t, delta, exclude, &mut whole);
                        assert_eq!(
                            (&whole.observations, &whole.ends),
                            (&planned.observations, &planned.ends)
                        );
                    }
                }
                // The one-link query is the same code on a fresh buffer.
                for &link in &links {
                    let (t, delta) = (times[2], deltas[1]);
                    assert_eq!(
                        w.probe_evidence(judge, link, t, delta, Some(peer)),
                        evidence_by_peer_scan(&w, judge, link, t, delta, Some(peer))
                    );
                }
            }
            assert!(strangers > 0, "some judge must have a non-peer to exclude");
            assert!(resized > 0, "consecutive judges must differ in peer count");
            assert!(compared > 100_000, "the cases must carry evidence ({compared})");
        }
    }

    #[test]
    fn bernoulli_threshold_is_gen_bool() {
        use rand::rngs::mock::StepRng;
        // Draws on either side of the threshold and at it, each with the
        // eleven bits `unit_f64` drops clear, lowest set and all set.
        for p in [0.5 + 2f64.powi(-52), 0.9, 0.99, 1.0] {
            let threshold = bernoulli_threshold(p);
            let mantissas = [threshold - 1, threshold, threshold + 1];
            for m in mantissas.into_iter().filter(|&m| m < 1 << 53) {
                for low in [0, 1, 0x7ff] {
                    let x = m << 11 | low;
                    assert_eq!(
                        x >> 11 < threshold,
                        StepRng::new(x, 0).gen_bool(p),
                        "p {p} draw {x:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_accuracy_matches_configuration() {
        // The fraction of observations agreeing with ground truth must be
        // the configured probe accuracy (0.9).
        let w = tiny_world(7);
        let mut agree = 0u64;
        let mut total = 0u64;
        for h in 0..w.num_hosts() {
            let a = w.archive(h);
            for (col, &link) in a.links().iter().enumerate() {
                let seen = a.column_observations(col, all_rounds(&w, h));
                for (round, o) in all_rounds(&w, h).zip(seen) {
                    total += 1;
                    if o == w.link_up_at(link, a.round_time(round)) {
                        agree += 1;
                    }
                }
            }
        }
        let frac = agree as f64 / total as f64;
        assert!(
            (frac - 0.9).abs() < 0.02,
            "agreement {frac}, expected ≈ 0.9 over {total} observations"
        );
    }

    #[test]
    fn standard_routing_reduces_ip_stretch() {
        // §2: standard tables use proximity affinity to minimise routing
        // latency. Over many routes, the IP hops of standard routes must
        // not exceed (and typically undercut) the secure ones.
        let mut rng = StdRng::seed_from_u64(21);
        let w = SimWorld::build(SimConfig::small(), &mut rng);
        let mut secure_total = 0u32;
        let mut standard_total = 0u32;
        let mut count = 0;
        for k in 0..60 {
            let src = k % w.num_hosts();
            let target = Id::random(&mut rng);
            let (Some(sec), Some(std)) = (
                w.route_via(src, target, RoutingMode::Secure),
                w.route_via(src, target, RoutingMode::Standard),
            ) else {
                continue;
            };
            // Both modes deliver to the same responsible node.
            assert_eq!(sec.last(), std.last(), "modes agree on the owner");
            secure_total += w.route_ip_hops(&sec);
            standard_total += w.route_ip_hops(&std);
            count += 1;
        }
        assert!(count >= 50);
        assert!(
            standard_total <= secure_total,
            "standard {standard_total} should not exceed secure {secure_total} IP hops"
        );
    }

    #[test]
    fn ip_distances_are_symmetric_and_consistent() {
        let w = tiny_world(22);
        for a in 0..w.num_hosts() {
            assert_eq!(w.ip_distance(a, a), 0);
            for b in 0..w.num_hosts() {
                assert_eq!(w.ip_distance(a, b), w.ip_distance(b, a));
            }
        }
        // Distances match the stored peer paths.
        let a = 0usize;
        for &p in w.peers_of(a) {
            let pid = w.node(p).id();
            let path = w.path_to_peer(a, pid).unwrap();
            assert_eq!(w.ip_distance(a, p), path.hop_count() as u32);
        }
    }

    #[test]
    fn observed_near_tracks_peer_probe_rounds() {
        let w = tiny_world(31);
        let h = 0usize;
        // A peer's actual round time is observed; a window far past the
        // simulation end is not.
        let p = w.peers_of(h)[0];
        let rt = w.archive(p).round_time(0);
        assert!(w.observed_near(h, rt, SimDuration::from_secs(1)));
        let far = SimTime::from_secs(1_000_000);
        assert!(!w.observed_near(h, far, SimDuration::from_secs(1)));
    }

    #[test]
    fn adaptive_droppers_behave_while_observed() {
        // The tiny overlay is fully meshed (all routes direct); the small
        // one has multi-hop routes with intermediate forwarders. Gentle
        // failures so some multi-hop route is actually deliverable.
        let mut cfg = SimConfig::small();
        cfg.failure.fraction_bad = 0.005;
        let mut build_rng = StdRng::seed_from_u64(32);
        let w = SimWorld::build(cfg, &mut build_rng);
        // Find a 3-hop route so there is an intermediate forwarder.
        let mut rng = StdRng::seed_from_u64(50);
        let (route, t) = 'found: {
            for _ in 0..500 {
                let src = rng.gen_range(0..w.num_hosts());
                let target = Id::random(&mut rng);
                let route = w.route(src, target).unwrap();
                if route.len() < 3 {
                    continue;
                }
                for s in 0..600 {
                    let t = SimTime::from_secs(s);
                    if w.route_fate_on_route(&route, t, &AdversarySets::none())
                        .delivered()
                    {
                        break 'found (route, t);
                    }
                }
            }
            panic!("no deliverable 3-hop route found");
        };
        let mid = route[1];
        // An unconditional dropper at the intermediate hop always drops.
        let mut plain = AdversarySets::none();
        plain.droppers.insert(mid);
        assert!(!w.route_fate_on_route(&route, t, &plain).delivered());
        // An adaptive dropper drops only while unprobed: probe rounds are
        // dense within the episode (max interval 60s < 75s guard), so at a
        // deliverable in-episode instant it is observed and behaves.
        let mut adaptive = AdversarySets::none();
        adaptive.adaptive_droppers.insert(mid);
        let out = w.route_fate_on_route(&route, t, &adaptive);
        assert_eq!(
            out.delivered(),
            w.observed_near(mid, t, ADAPTIVE_GUARD),
            "adaptive dropper must drop exactly while unprobed"
        );
        // Far outside the probing phase nothing observes it → it drops.
        let far = SimTime::from_secs(1_000_000);
        assert!(!w.observed_near(mid, far, ADAPTIVE_GUARD));
        match w.route_fate_on_route(&route, far, &adaptive) {
            RouteFate::DroppedByHost { at, .. } => assert_eq!(at, mid),
            RouteFate::DroppedByNetwork { .. } => {} // a link died first
            RouteFate::Delivered { .. } => panic!("unobserved adaptive host must drop"),
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = tiny_world(8);
        let b = tiny_world(8);
        assert_eq!(a.num_hosts(), b.num_hosts());
        for h in 0..a.num_hosts() {
            assert_eq!(a.node(h).id(), b.node(h).id());
            assert_eq!(all_rounds(&a, h), all_rounds(&b, h));
        }
    }

    #[test]
    fn multi_bfs_rebuilds_every_host_pair_path() {
        use concilium_topology::BfsTree;
        // The small worlds fit one pass; the medium world takes three.
        let worlds =
            [(SimConfig::small(), 41u64), (SimConfig::tiny(), 42), (SimConfig::medium(), 43)];
        for (cfg, seed) in worlds {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = SimWorld::build(cfg, &mut rng);
            let graph = &w.topology().graph;
            let routers: Vec<_> =
                (0..w.num_hosts()).map(|h| w.node(h).addr().router()).collect();
            let mut stored = 0;
            for (a, &from) in routers.iter().enumerate() {
                let fresh = BfsTree::compute(graph, from);
                for (b, &to) in routers.iter().enumerate() {
                    assert_eq!(w.ip_distance(a, b), fresh.distance(to).unwrap(), "{a} → {b}");
                    if let Some(kept) = w.peer_path(a, b) {
                        let want = fresh.path_to(to);
                        assert_eq!(Some(kept), want.as_ref(), "stored peer path {a} → {b}");
                        stored += 1;
                    }
                }
            }
            // One pass per 64 hosts, run once: 2b reads the passes 2a kept.
            let passes = w.num_hosts().div_ceil(64) as u64;
            let stats = w.build_tree_stats();
            assert_eq!((stats.misses, stats.hits), (passes, w.num_hosts() as u64));
            assert!(stored >= w.num_hosts(), "every host has peer paths");
        }
    }

    /// SHA-256 over everything `SimWorld::build` derives from the rng:
    /// the distance table, every peer path's links, every archive's round
    /// times and observation bits, and ground truth on a fixed grid.
    fn world_fingerprint(w: &SimWorld) -> String {
        let mut h = concilium_crypto::Sha256::new();
        let n = w.num_hosts();
        h.update(&(n as u64).to_le_bytes());
        for a in 0..n {
            for b in 0..n {
                h.update(&w.ip_distance(a, b).to_le_bytes());
            }
        }
        for u in 0..n {
            for v in 0..n {
                let Some(path) = w.peer_path(u, v) else { continue };
                h.update(&(u as u32).to_le_bytes());
                h.update(&(v as u32).to_le_bytes());
                for l in path.links() {
                    h.update(&l.0.to_le_bytes());
                }
            }
        }
        for host in 0..n {
            let a = w.archive(host);
            assert_eq!(a.links(), &w.tree(host).link_set()[..]);
            let rounds = all_rounds(w, host);
            h.update(&(rounds.len() as u64).to_le_bytes());
            for round in rounds {
                h.update(&a.round_time(round).as_micros().to_le_bytes());
                for col in 0..a.links().len() {
                    let up = a.column_observations(col, round..round + 1).next() == Some(true);
                    h.update(&[u8::from(up)]);
                }
            }
        }
        let end = w.config().duration.as_micros();
        for l in w.topology().graph.links() {
            for step in 0..=16u64 {
                h.update(&[w.link_up_at(l, SimTime::from_micros(end * step / 16)) as u8]);
            }
        }
        h.finalize().to_hex()
    }

    /// The small worlds' hex values were recorded at the commit before the
    /// build stopped retaining BFS trees, the medium world's at the commit
    /// before the build searched 64 hosts per pass,
    /// so a build that draws, orders or routes anything differently fails
    /// here. The small worlds fit in one 64-host pass; the medium world
    /// takes several, the last one partly filled.
    #[test]
    fn golden_world_fingerprints() {
        let cases = [
            (SimConfig::small(), 2007u64, "3ef4b20c74e44f86dcdbe1362633a51dc907c5bdbcc42ba1f9a7a1c9987ff946"),
            (SimConfig::small(), 2008, "4a4a5305991d0c2fd7a31fe186442bdaf19b7953bc0c47eaf9f37ba49f938f76"),
            (SimConfig::medium(), 2007, "f2b5352ad667149300b915d7c7f31fa48677e7aaa3086c1246b4a3faaf2ef10a"),
        ];
        for (cfg, seed, want) in cases {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = SimWorld::build(cfg, &mut rng);
            assert_eq!(world_fingerprint(&w), want, "seed {seed}");
        }
    }
}
