//! Per-layer kernels: public functions of each crate, timed from outside.
//!
//! Inputs come from the named workloads' worlds so sizes match: the large
//! world of `fig5-large`/`fig4-large`, the DST world of `dst-sweep`, the
//! bottleneck world of `fuzz-bottleneck`, and a daemon round shaped like
//! `serve-steady`. Each kernel repeats batches for at least
//! [`Effort::min_s`] and reports the median of [`Effort::reps`] such
//! repetitions. The last column of the table in `README.md` says which
//! end-to-end metric each kernel should move, and where it should not.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use concilium::accusation::{Accusation, DropContext};
use concilium::ack::{Ack, AckBody, RetransmitQueue};
use concilium::blame::{blame_from_path_evidence, LinkEvidence};
use concilium::dht::AccusationDht;
use concilium::retry::RetryPolicy;
use concilium::{ConciliumConfig, ForwardingCommitment, Verdict, VerdictWindow};
use concilium_bench::{fig4, fig5};
use concilium_crypto::{memo_reset, memo_stats, sha256, verify_cached, KeyPair};
use concilium_overlay::build_overlay;
use concilium_serve::{
    Daemon, Journal, Mailbox, ServeConfig, ServeState, Shape, SharedStore, WorkloadSpec,
};
use concilium_sim::{
    bottleneck_world, dst_world, episode_coverage, explore_jobs, run_episode, AdversarySets,
    EpisodeConfig, EpisodeOptions, EpisodeReport, EventQueue, SimWorld, TraceHasher,
};
use concilium_tomography::probe::ProbeRecord;
use concilium_tomography::{
    infer_pass_rates_batch, infer_pass_rates_tolerant_batch, AmbiguityClasses, InferScratch,
    LinkObservation, PartialProbeRecord, ProbeTree, TomographySnapshot,
};
use concilium_topology::{generate, IpPath, PathCache};
use concilium_types::{HostAddr, Id, LinkId, MsgId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::result::Metric;
use crate::stats;
use crate::workloads::{Size, DST_WORLD_SEED};

/// How long and how often each kernel repeats.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Least busy time of one repetition, seconds.
    pub min_s: f64,
    /// Repetitions; the median is reported.
    pub reps: usize,
    /// Seeds per grid arm in the `par.speedup_j2` sweep slice.
    pub slice_seeds: u64,
}

impl Effort {
    /// At least 0.2 s per repetition, median of five, a 512-episode slice.
    pub fn full() -> Effort {
        Effort {
            min_s: 0.2,
            reps: 5,
            slice_seeds: 128,
        }
    }

    /// Short enough that a `--trace 1` run stays near `--seconds`.
    pub fn quick(seconds: u64) -> Effort {
        Effort {
            min_s: 0.004 * seconds as f64,
            reps: 3,
            slice_seeds: 32,
        }
    }

    pub fn smoke() -> Effort {
        Effort {
            min_s: 0.001,
            reps: 1,
            slice_seeds: 2,
        }
    }
}

/// Median seconds per op. Each repetition alternates an untimed `prepare`
/// with a timed `run` (which returns the ops it did) until the timed part
/// adds up to `effort.min_s`.
fn per_op_with<I>(
    effort: Effort,
    mut prepare: impl FnMut() -> I,
    mut run: impl FnMut(I) -> u64,
) -> f64 {
    let samples: Vec<f64> = (0..effort.reps)
        .map(|_| {
            let (mut busy, mut ops) = (0.0, 0u64);
            while busy < effort.min_s || ops == 0 {
                let input = prepare();
                let t0 = Instant::now();
                ops += run(input);
                busy += t0.elapsed().as_secs_f64();
            }
            busy / ops as f64
        })
        .collect();
    stats::median(&samples).expect("at least one repetition")
}

fn per_op(effort: Effort, mut batch: impl FnMut() -> u64) -> f64 {
    per_op_with(effort, || (), |()| batch())
}

struct Kernels {
    effort: Effort,
    rng: StdRng,
    out: Vec<Metric>,
}

impl Kernels {
    fn put(&mut self, name: &str, value: f64) {
        self.out.push(Metric::measured(name, value));
    }
}

/// Runs every kernel; the result holds each name of [`crate::spec::KERNELS`] once.
pub fn run(seed: u64, size: &Size, effort: Effort) -> Vec<Metric> {
    let mut k = Kernels {
        effort,
        rng: StdRng::seed_from_u64(seed ^ 0x6b65_726e),
        out: Vec::new(),
    };
    let dst = dst_world(DST_WORLD_SEED);
    crypto(&mut k);
    let large = world_build(&mut k, size);
    topology(&mut k, &large);
    overlay(&mut k, &large);
    tomography(&mut k, &dst, &large, &bottleneck_world(DST_WORLD_SEED));
    queues(&mut k);
    world_queries_and_blame(&mut k, &large, &dst);
    figures(&mut k, &large);
    drop(large);
    episodes_and_obs(&mut k, &dst);
    core_protocol(&mut k);
    par(&mut k, &dst);
    serve(&mut k, size);
    k.out
}

fn crypto(k: &mut Kernels) {
    let e = k.effort;
    let page = vec![0xa5u8; 4096];
    let s = per_op(e, || {
        for _ in 0..64 {
            black_box(sha256(black_box(&page)));
        }
        64
    });
    k.put("crypto.sha256_mb_per_s", page.len() as f64 / s / 1e6);
    let block = [0x5au8; 64];
    let s = per_op(e, || {
        for _ in 0..1024 {
            black_box(sha256(black_box(&block)));
        }
        1024
    });
    k.put("crypto.sha256_64b_ns", s * 1e9);

    let keys = KeyPair::generate(&mut k.rng);
    let public = keys.public();
    let rng = &mut k.rng;
    let s = per_op(e, || {
        for _ in 0..16 {
            black_box(keys.sign(black_box(&block), rng));
        }
        16
    });
    k.put("crypto.sign_us", s * 1e6);
    let sig = keys.sign(&block, &mut k.rng);
    let s = per_op(e, || {
        for _ in 0..16 {
            assert!(black_box(public.verify(black_box(&block), &sig)));
        }
        16
    });
    k.put("crypto.verify_us", s * 1e6);
    memo_reset();
    assert!(verify_cached(&public, &block, &sig));
    let s = per_op(e, || {
        for _ in 0..256 {
            black_box(verify_cached(&public, black_box(&block), &sig));
        }
        256
    });
    k.put("crypto.verify_cached_hit_ns", s * 1e9);
}

/// `sim.world_build_ms`; the last world built feeds the other kernels.
fn world_build(k: &mut Kernels, size: &Size) -> SimWorld {
    let cfg = size.large_world();
    let mut world = None;
    let rng = &mut k.rng;
    let s = per_op(k.effort, || {
        world = None;
        world = Some(SimWorld::build(cfg, rng));
        1
    });
    k.put("sim.world_build_ms", s * 1e3);
    world.expect("built at least once")
}

fn topology(k: &mut Kernels, large: &SimWorld) {
    let e = k.effort;
    let cfg = large.config().topology;
    let rng = &mut k.rng;
    let s = per_op(e, || {
        black_box(generate(&cfg, rng));
        1
    });
    k.put("topology.generate_ms", s * 1e3);

    let graph = &large.topology().graph;
    let mut host = 0;
    let s = per_op(e, || {
        host = (host + 1) % large.num_hosts();
        // A fresh cache, so the lookup is a miss: one BFS over the graph.
        let mut cache = PathCache::new();
        black_box(cache.tree(graph, large.node(host).addr().router()));
        1
    });
    k.put("topology.bfs_ms", s * 1e3);
    let stats = large.build_tree_stats();
    k.put(
        "topology.path_cache_hit_ratio",
        ratio(stats.hits, stats.hits + stats.misses),
    );
}

fn overlay(k: &mut Kernels, large: &SimWorld) {
    let e = k.effort;
    let n = large.num_hosts();
    let members: Vec<_> = (0..n)
        .map(|h| (*large.node(h).cert(), large.node(h).keys().clone()))
        .collect();
    let slot: HashMap<HostAddr, usize> = (0..n).map(|h| (large.node(h).addr(), h)).collect();
    let proximity = |a: HostAddr, b: HostAddr| large.ip_distance(slot[&a], slot[&b]) as u64;
    let leaf_capacity = large.config().leaf_capacity;
    let rng = &mut k.rng;
    let s = per_op(e, || {
        black_box(build_overlay(
            &members,
            leaf_capacity,
            SimTime::ZERO,
            Some(&proximity),
            rng,
        ));
        1
    });
    k.put("overlay.build_ms", s * 1e3);

    let targets: Vec<(usize, Id)> = (0..1024)
        .map(|_| (k.rng.gen_range(0..n), Id::random(&mut k.rng)))
        .collect();
    let s = per_op(e, || {
        for &(src, target) in &targets {
            black_box(large.route(src, target));
        }
        targets.len() as u64
    });
    k.put("overlay.route_ns", s * 1e9);
}

fn tomography(k: &mut Kernels, dst: &SimWorld, large: &SimWorld, bottleneck: &SimWorld) {
    let e = k.effort;
    // One verdict window (20 records) of 300-stripe probes on a DST tree,
    // each leaf passing at its own rate in [50%, 98%].
    let logical = dst.tree(0).logical();
    let leaves = logical.num_leaves();
    let pass: Vec<f64> = (0..leaves).map(|_| k.rng.gen_range(0.50..0.98)).collect();
    let records: Vec<ProbeRecord> = (0..20)
        .map(|_| {
            ProbeRecord::new(
                (0..300)
                    .map(|_| pass.iter().map(|&p| k.rng.gen_bool(p)).collect())
                    .collect(),
            )
        })
        .collect();
    let mut scratch = InferScratch::default();
    let s = per_op(e, || {
        black_box(infer_pass_rates_batch(&logical, &records, &mut scratch));
        1
    });
    k.put("tomography.infer_batch_us", s * 1e6);
    let partial: Vec<PartialProbeRecord> = records
        .iter()
        .map(|r| {
            let mut p = PartialProbeRecord::from_complete(r);
            p.censor_random(0.2, &mut k.rng);
            p
        })
        .collect();
    let s = per_op(e, || {
        black_box(infer_pass_rates_tolerant_batch(
            &logical,
            &partial,
            &mut scratch,
        ));
        1
    });
    k.put("tomography.infer_tolerant_batch_us", s * 1e6);

    let mut host = 0;
    let s = per_op_with(
        e,
        || {
            host = (host + 1) % large.num_hosts();
            (large.tree(host).root(), large.tree(host).leaves().to_vec())
        },
        |(root, leaves)| {
            black_box(ProbeTree::from_paths(root, leaves).expect("world trees are trees"));
            1
        },
    );
    k.put("tomography.tree_build_us", s * 1e6);
    let s = per_op(e, || {
        for h in 0..bottleneck.num_hosts() {
            black_box(AmbiguityClasses::from_probe_tree(bottleneck.tree(h)));
        }
        bottleneck.num_hosts() as u64
    });
    k.put("tomography.ambiguity_us", s * 1e6);
}

/// Schedule/pop churn on `EventQueue` held at `depth` events; one op is one
/// schedule or one pop.
fn queue_churn(k: &mut Kernels, depth: usize, delay_us: fn(u64) -> u64) -> f64 {
    let mut q = EventQueue::new();
    let rng = &mut k.rng;
    for i in 0..depth as u64 {
        q.schedule(SimTime::from_micros(delay_us(rng.gen())), i);
    }
    per_op(k.effort, || {
        for _ in 0..4096 {
            let (t, event) = q.pop().expect("the queue is never empty");
            q.schedule(
                t + SimDuration::from_micros(delay_us(rng.gen())),
                black_box(event),
            );
        }
        2 * 4096
    }) * 1e9
}

/// The DST episode's event population: deliveries dominate, second-scale
/// ticks and timeouts follow, verdict windows are rare, a few ties.
fn dst_delay_us(r: u64) -> u64 {
    match r % 100 {
        0..=59 => 200 + (r >> 8) % 50_000,
        60..=84 => 1_000_000 + (r >> 8) % 29_000_000,
        85..=94 => 1_000_000,
        95..=98 => 30_000_000 + (r >> 8) % 210_000_000,
        _ => 0,
    }
}

/// Link-repair timers of the world build: one to thirty minutes out.
fn repair_delay_us(r: u64) -> u64 {
    60_000_000 + r % 1_740_000_000
}

fn queues(k: &mut Kernels) {
    let shallow = queue_churn(k, 240, dst_delay_us);
    k.put("sim.queue_shallow_ns_per_op", shallow);
    let deep = queue_churn(k, 65_536, repair_delay_us);
    k.put("sim.queue_deep_ns_per_op", deep);
}

/// A Fig. 5-shaped judgment: judge A, forwarder B, the B→C path, a time.
struct Judgment<'w> {
    judge: usize,
    forwarder: usize,
    path: &'w IpPath,
    at: SimTime,
}

fn sample_judgments<'w>(world: &'w SimWorld, n: usize, rng: &mut StdRng) -> Vec<Judgment<'w>> {
    let delta = SimDuration::from_secs(60).as_micros();
    let end = world.config().duration.as_micros();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let a = rng.gen_range(0..world.num_hosts());
        let Some(&b) = pick(world.peers_of(a), rng) else {
            continue;
        };
        let Some(&c) = pick(world.peers_of(b), rng) else {
            continue;
        };
        if c == a || c == b {
            continue;
        }
        let path = world
            .path_to_peer(b, world.node(c).id())
            .expect("C is in B's routing state");
        let at = SimTime::from_micros(rng.gen_range(delta..end - delta));
        out.push(Judgment {
            judge: a,
            forwarder: b,
            path,
            at,
        });
    }
    out
}

fn pick<'a, T>(items: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.gen_range(0..items.len())])
    }
}

fn world_queries_and_blame(k: &mut Kernels, large: &SimWorld, dst: &SimWorld) {
    let e = k.effort;
    let delta = SimDuration::from_secs(60);
    let judgments = sample_judgments(large, 2048, &mut k.rng);
    let s = per_op(e, || {
        for j in &judgments {
            black_box(large.path_up_at(j.path, j.at));
        }
        judgments.len() as u64
    });
    k.put("sim.path_up_ns", s * 1e9);
    let s = per_op(e, || {
        let mut calls = 0;
        for j in &judgments {
            for &link in j.path.links() {
                black_box(large.probe_evidence(j.judge, link, j.at, delta, Some(j.forwarder)));
                calls += 1;
            }
        }
        calls
    });
    k.put("sim.probe_evidence_ns", s * 1e9);

    let evidence: Vec<Vec<LinkEvidence>> = judgments
        .iter()
        .map(|j| {
            j.path
                .links()
                .iter()
                .map(|&link| LinkEvidence {
                    link,
                    observations: large
                        .probe_evidence(j.judge, link, j.at, delta, Some(j.forwarder))
                        .into_iter()
                        .map(|(_, up)| up)
                        .collect(),
                })
                .collect()
        })
        .collect();
    let s = per_op(e, || {
        for ev in &evidence {
            black_box(blame_from_path_evidence(black_box(ev), 0.9));
        }
        evidence.len() as u64
    });
    k.put("core.blame_ns", s * 1e9);

    let honest = AdversarySets::none();
    let end = dst.config().duration.as_micros();
    let routes: Vec<(Vec<usize>, SimTime)> = (0..1024)
        .filter_map(|_| {
            let src = k.rng.gen_range(0..dst.num_hosts());
            let route = dst.route(src, Id::random(&mut k.rng))?;
            let at = SimTime::from_micros(k.rng.gen_range(0..end));
            (route.len() >= 2).then_some((route, at))
        })
        .collect();
    let s = per_op(e, || {
        for (route, at) in &routes {
            black_box(dst.route_fate_on_route(route, *at, &honest));
        }
        routes.len() as u64
    });
    k.put("sim.route_fate_ns", s * 1e9);
}

fn figures(k: &mut Kernels, large: &SimWorld) {
    let e = k.effort;
    let s = per_op(e, || {
        black_box(fig4::run(large, 200));
        1
    });
    k.put("bench.fig4_ms", s * 1e3);

    let params = fig5::Fig5Params {
        triples: 64,
        ..fig5::Fig5Params::default()
    };
    let judgments = (params.triples * params.times_per_triple) as u64;
    let colluders = AdversarySets::sample(large.num_hosts(), 0.2, 0.2, &mut k.rng);
    for (name, adversaries) in [
        ("bench.fig5a_us_per_judgment", AdversarySets::none()),
        ("bench.fig5b_us_per_judgment", colluders),
    ] {
        let rng = &mut k.rng;
        let s = per_op(e, || {
            black_box(fig5::run(large, &adversaries, &params, rng));
            judgments
        });
        k.put(name, s * 1e6);
    }
}

fn episodes_and_obs(k: &mut Kernels, dst: &SimWorld) {
    let e = k.effort;
    let grid = EpisodeConfig::standard_grid();
    let retained = EpisodeOptions::default();
    let hashed_only = EpisodeOptions {
        trace_capacity: 0,
        ..retained
    };

    let (mut events, mut busy) = (0usize, 0.0);
    for (name, cfg) in &grid {
        let mut seed = 0;
        let s = per_op(e, || {
            seed += 1;
            let t0 = Instant::now();
            let report = run_episode(dst, cfg, seed, &retained);
            busy += t0.elapsed().as_secs_f64();
            events += report.stats.events;
            1
        });
        k.put(&format!("sim.episode_ms_{name}"), s * 1e3);
    }
    k.put("sim.events_per_s", events as f64 / busy);

    // A sweep slice on a cold memo: how often `verify_cached` saves a
    // verification across distinct episodes.
    memo_reset();
    let slice: Vec<EpisodeReport> = grid
        .iter()
        .flat_map(|(_, cfg)| (1_000..1_008).map(|seed| run_episode(dst, cfg, seed, &retained)))
        .collect();
    let (hits, misses) = memo_stats();
    k.put("crypto.memo_hit_ratio", ratio(hits, hits + misses));

    // Trace retention: the same episodes with the ring at its default
    // capacity and at zero (events are hashed either way), per event.
    let slice_events: usize = slice.iter().map(|r| r.stats.events).sum();
    let sweep = |opts: &EpisodeOptions| {
        per_op(e, || {
            for (_, cfg) in &grid {
                for seed in 1_000..1_008 {
                    black_box(run_episode(dst, cfg, seed, opts));
                }
            }
            1
        })
    };
    let (on, off) = (sweep(&retained), sweep(&hashed_only));
    k.put(
        "obs.emit_ns_per_event",
        (on - off) / slice_events as f64 * 1e9,
    );

    let mut hasher = TraceHasher::new();
    let s = per_op(e, || {
        for i in 0..1024u64 {
            hasher.record("message-delivered", black_box(&[i, 17, 3, 250_000]));
        }
        1024
    });
    black_box(hasher.hex());
    k.put("obs.hasher_ns_per_event", s * 1e9);
    let s = per_op(e, || {
        for report in &slice {
            black_box(episode_coverage(report));
        }
        slice.len() as u64
    });
    k.put("obs.coverage_us_per_episode", s * 1e6);
}

fn core_protocol(k: &mut Kernels) {
    let e = k.effort;
    let mut window = VerdictWindow::new(20);
    let s = per_op(e, || {
        for i in 0..4096 {
            window.push(if i % 5 == 0 {
                Verdict::Guilty
            } else {
                Verdict::Innocent
            });
        }
        black_box(window.guilty_count());
        4096
    });
    k.put("core.verdict_push_ns", s * 1e9);

    // An accusation as §3.4 assembles it: accuser 1, accused 2, next hop 3,
    // two witnesses who probed both path links up.
    let config = ConciliumConfig::default();
    let keys: HashMap<Id, KeyPair> = (1..=5)
        .map(|i| (Id::from_u64(i), KeyPair::generate(&mut k.rng)))
        .collect();
    let key_of = |id: Id| keys.get(&id).map(KeyPair::public);
    let at = SimTime::from_secs(100);
    let context = DropContext {
        msg: MsgId(1),
        accuser: Id::from_u64(1),
        accused: Id::from_u64(2),
        next_hop: Id::from_u64(3),
        dest: Id::from_u64(5),
        at,
    };
    let commitment = ForwardingCommitment::issue(
        context.msg,
        context.accuser,
        context.accused,
        context.dest,
        SimTime::from_secs(99),
        &keys[&context.accused],
        &mut k.rng,
    );
    let links = vec![LinkId(10), LinkId(11)];
    let evidence: Vec<TomographySnapshot> = [3, 4]
        .into_iter()
        .map(|origin| {
            let id = Id::from_u64(origin);
            let seen = links
                .iter()
                .map(|&l| LinkObservation::binary(l, true))
                .collect();
            TomographySnapshot::new_signed(id, at, seen, &keys[&id], &mut k.rng)
        })
        .collect();
    let accuser = &keys[&context.accuser];
    let rng = &mut k.rng;
    let mut build = || {
        Accusation::build(
            context,
            commitment,
            links.clone(),
            evidence.clone(),
            &config,
            accuser,
            rng,
        )
    };
    let accusation = build();
    assert_eq!(
        accusation.verify(&key_of, &config),
        Ok(()),
        "the kernel's accusation must verify"
    );
    let s = per_op(e, || {
        black_box(build());
        1
    });
    k.put("core.accusation_build_us", s * 1e6);
    let s = per_op(e, || {
        black_box(accusation.verify(&key_of, &config)).expect("verified above");
        1
    });
    k.put("core.accusation_verify_us", s * 1e6);

    let mut dht = AccusationDht::new((1..=32).map(Id::from_u64).collect(), 3);
    let accused_key = keys[&context.accused].public();
    let policy = RetryPolicy::default();
    let rng = &mut k.rng;
    let s = per_op(e, || {
        let stored =
            dht.insert_with_retry(&accused_key, accusation.clone(), &policy, |_, _| true, rng);
        black_box(stored).expect("every replica is reachable");
        1
    });
    k.put("core.dht_insert_us", s * 1e6);

    // The steward's per-message cycle: register the send, poll for
    // retransmissions and expiries, settle on the ack. One message in
    // eight is never acknowledged, so retransmit and expiry do real work.
    const MESSAGES: u64 = 2048;
    const ACK_LAG: u64 = 8;
    let dest = Id::from_u64(9);
    let dest_keys = KeyPair::generate(&mut k.rng);
    let tick = SimDuration::from_millis(10);
    let acks: Vec<Ack> = (0..MESSAGES)
        .map(|m| {
            Ack::issue(
                dest,
                Id::from_u64(1),
                AckBody::Single(MsgId(m)),
                SimTime::ZERO,
                &dest_keys,
                &mut k.rng,
            )
        })
        .collect();
    let rng = &mut k.rng;
    let s = per_op_with(
        e,
        || RetransmitQueue::new(policy),
        |mut queue| {
            let mut now = SimTime::ZERO;
            for m in 0..MESSAGES {
                now += tick;
                queue.on_send(MsgId(m), dest, now, rng);
                black_box(queue.due(now));
                black_box(queue.expired(now));
                if m >= ACK_LAG && m % 8 != 0 {
                    black_box(queue.on_ack(&acks[(m - ACK_LAG) as usize], None));
                }
            }
            MESSAGES
        },
    );
    k.put("core.ack_cycle_ns", s * 1e9);
}

fn par(k: &mut Kernels, dst: &SimWorld) {
    let e = k.effort;
    let items = vec![1u64; 100_000];
    let s = per_op(e, || {
        black_box(concilium_par::par_map(1, &items, |i, &x| x + i as u64));
        items.len() as u64
    });
    k.put("par.task_overhead_ns", s * 1e9);

    // Informational on a 2-core box: the same sweep slice at one worker
    // and at two.
    let grid = EpisodeConfig::standard_grid();
    let seeds: Vec<u64> = (0..e.slice_seeds).collect();
    let opts = EpisodeOptions::default();
    let ratios: Vec<f64> = (0..e.reps)
        .map(|_| {
            let wall = |jobs| {
                let t0 = Instant::now();
                black_box(explore_jobs(dst, &grid, &seeds, &opts, jobs));
                t0.elapsed().as_secs_f64()
            };
            wall(1) / wall(2)
        })
        .collect();
    k.put(
        "par.speedup_j2",
        stats::median(&ratios).expect("at least one repetition"),
    );
}

fn serve(k: &mut Kernels, size: &Size) {
    let e = k.effort;
    let cfg = ServeConfig::default();
    let spec = WorkloadSpec {
        reports: if size.smoke { 2_048 } else { 16_384 },
        shape: Shape::Uniform,
        load: 1.0,
        ..WorkloadSpec::default()
    };
    let reports = spec.generate(&cfg, k.rng.gen());
    let store = SharedStore::new();
    let (mut daemon, _) = Daemon::recover(cfg.clone(), store.clone());
    daemon.run(&reports);
    daemon.finish();
    let bytes = store.snapshot();
    let (records, scanned) = Journal::over(store.clone()).scan();
    assert_eq!(
        scanned,
        bytes.len(),
        "a finished round's journal scans to its end"
    );
    k.put(
        "serve.journal_bytes_per_report",
        bytes.len() as f64 / reports.len() as f64,
    );

    let s_per_byte = per_op_with(e, Journal::new, |mut journal| {
        records.iter().map(|r| journal.append(r) as u64).sum()
    });
    k.put("serve.journal_append_mb_per_s", 1.0 / s_per_byte / 1e6);
    let journal = Journal::over(store);
    let s_per_byte = per_op(e, || black_box(journal.scan()).1 as u64);
    k.put("serve.journal_scan_mb_per_s", 1.0 / s_per_byte / 1e6);
    let s = per_op_with(
        e,
        || SharedStore::from_bytes(bytes.clone()),
        |store| Daemon::recover(cfg.clone(), store).1.records_replayed as u64,
    );
    k.put("serve.recover_records_per_s", 1.0 / s);

    let s = per_op(e, || {
        let mut mailbox = Mailbox::new();
        for report in &reports {
            if mailbox
                .decide(report, SimDuration::ZERO, false, &cfg)
                .is_ok()
            {
                mailbox.push(report.clone(), &cfg);
            } else {
                black_box(mailbox.take_batch(&cfg));
            }
        }
        reports.len() as u64
    });
    k.put("serve.mailbox_cycle_ns", s * 1e9);
    let s = per_op_with(
        e,
        || ServeState::new(&cfg),
        |mut state| {
            for record in &records {
                black_box(state.apply(record));
            }
            records.len() as u64
        },
    );
    k.put("serve.state_apply_ns", s * 1e9);
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
