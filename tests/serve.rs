//! Cross-crate integration tests for the diagnosis daemon: journal
//! recovery under a randomized corruption corpus, the ≥32-seed chaos
//! sweep, and overload robustness at 2× saturation.
//!
//! The corruption corpus is the property-based half of the recovery
//! story (ISSUE 6, satellite 3): truncated tails, bit-flipped bytes,
//! and duplicated records must never panic the recovery scan, must
//! always land on a committed prefix, and must replay idempotently to
//! the same canonical state a clean replay of that prefix produces.

use concilium_obs::{json, traced_from_json_line, CausalIndex, TraceEvent, Traced};
use concilium_serve::{
    chaos_sweep, records_digest, records_to_traced, Daemon, FailureReport, Journal, KillPoint,
    PanicSite, Record, ServeConfig, ServeState, SharedStore, Supervisor, WorkloadSpec,
};
use concilium_types::SimDuration;
use proptest::prelude::*;

/// A finished run's journal bytes plus its digests, the corpus substrate.
fn clean_run(seed: u64) -> (Vec<u8>, String, [u8; 32]) {
    let cfg = ServeConfig::default();
    let inputs = WorkloadSpec { reports: 48, ..WorkloadSpec::default() }.generate(&cfg, seed);
    let store = SharedStore::new();
    let (mut d, _) = Daemon::recover(cfg, store.clone());
    d.run(&inputs);
    d.finish();
    (store.snapshot(), d.journal_digest(), d.state().digest())
}

/// Replays a journal image through recovery and returns the committed
/// records plus the state digest they produce.
fn recover_image(bytes: Vec<u8>) -> (Vec<Record>, [u8; 32]) {
    let mut journal = Journal::over(SharedStore::from_bytes(bytes));
    let recovery = journal.recover();
    let mut state = ServeState::new(&ServeConfig::default());
    state.replay(&recovery.records);
    (recovery.records, state.digest())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating the journal at any byte yields a committed prefix of
    /// the clean run whose replay matches a from-scratch replay of the
    /// same records — and a second recovery pass finds nothing to drop.
    #[test]
    fn truncated_tails_recover_to_a_committed_prefix(seed in 0u64..8, cut_frac in 0.0f64..1.0) {
        let (bytes, _, _) = clean_run(seed);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        let image: Vec<u8> = bytes[..cut.min(bytes.len())].to_vec();

        let mut journal = Journal::over(SharedStore::from_bytes(image));
        let first = journal.recover();
        let ends_at_commit = first.records.is_empty()
            || matches!(first.records.last(), Some(Record::Commit { .. }));
        prop_assert!(ends_at_commit);
        let after_first = journal.store().snapshot();

        // Idempotent: recovering the recovered image is a no-op.
        let second = journal.recover();
        prop_assert_eq!(&second.records, &first.records);
        prop_assert_eq!(second.truncated_bytes, 0);
        prop_assert_eq!(journal.store().snapshot(), after_first);

        // The prefix replays to the same state a fresh replay produces.
        let (replayed, digest) = recover_image(journal.store().snapshot());
        prop_assert_eq!(&replayed, &first.records);
        let mut fresh = ServeState::new(&ServeConfig::default());
        fresh.replay(&first.records);
        prop_assert_eq!(digest, fresh.digest());
    }

    /// Flipping any single bit anywhere in the image never panics the
    /// scan and still recovers a committed prefix of the clean run.
    #[test]
    fn bit_flips_are_contained_to_the_tail(seed in 0u64..8, pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let (bytes, _, _) = clean_run(seed);
        let mut image = bytes.clone();
        let pos = ((image.len() - 1) as f64 * pos_frac) as usize;
        image[pos] ^= 1 << bit;

        let (records, _) = recover_image(image);
        let ends_at_commit =
            records.is_empty() || matches!(records.last(), Some(Record::Commit { .. }));
        prop_assert!(ends_at_commit);
        // The recovered prefix is a true prefix of the clean run's
        // record stream: its digest matches the clean records' digest
        // over the same length.
        let (clean_records, _) = recover_image(bytes);
        prop_assert!(records.len() <= clean_records.len());
        prop_assert_eq!(
            records_digest(&records),
            records_digest(&clean_records[..records.len()])
        );
    }

    /// Duplicated records are absorbed by the sequence-number guard:
    /// replaying a stream with duplicates lands on the same canonical
    /// state as the clean stream.
    #[test]
    fn duplicated_records_replay_idempotently(seed in 0u64..8, dup_every in 1usize..5) {
        let (bytes, _, want_state) = clean_run(seed);
        let (clean_records, _) = recover_image(bytes);

        let mut doctored: Vec<Record> = Vec::new();
        for (i, rec) in clean_records.iter().enumerate() {
            doctored.push(rec.clone());
            if i % dup_every == 0 {
                doctored.push(rec.clone()); // exact duplicate frame
            }
        }
        let mut state = ServeState::new(&ServeConfig::default());
        let applied = state.replay(&doctored);
        prop_assert_eq!(applied, clean_records.len(), "duplicates must be skipped");
        prop_assert_eq!(state.digest(), want_state);
    }
}

/// The acceptance sweep: 32 seeds of kill/recover chaos, each compared
/// against its uninterrupted baseline, replayed identically at two
/// worker counts.
#[test]
fn thirty_two_seed_chaos_sweep_holds_all_invariants() {
    let cfg = ServeConfig::default();
    let spec = WorkloadSpec { reports: 48, ..WorkloadSpec::default() };
    let serial = chaos_sweep(&cfg, &spec, 0xC0FFEE, 32, 1);
    assert_eq!(
        serial.total_violations,
        0,
        "chaos sweep violations: {:?}",
        serial
            .outcomes
            .iter()
            .flat_map(|o| o.violations.iter().map(|v| format!("seed {}: {v}", o.seed)))
            .collect::<Vec<_>>()
    );
    assert!(serial.total_kills >= 32, "every seed must inject at least one kill");
    let fanned = chaos_sweep(&cfg, &spec, 0xC0FFEE, 32, 4);
    assert_eq!(serial.aggregate_digest, fanned.aggregate_digest, "jobs must not affect the sweep");
}

/// The `serve-chaos` arm exactly as `dst-sweep --seeds 32` runs it (world
/// seed 77, 64-report workloads), pinned: a change to how the daemon
/// judges, files or journals moves this digest.
#[test]
fn dst_sweep_serve_chaos_digest_is_pinned() {
    let spec = WorkloadSpec { reports: 64, ..WorkloadSpec::default() };
    let chaos = chaos_sweep(&ServeConfig::default(), &spec, 77, 32, 2);
    assert_eq!(chaos.total_violations, 0);
    assert_eq!(
        chaos.aggregate_digest,
        "8b19300f5ba20ac62d9080e4ea4c1d5451897e697e60b6ca08d2ab545f07b6c1"
    );
}

/// A small mailbox under 2× saturation, so both admission outcomes occur.
fn overloaded() -> (ServeConfig, Vec<FailureReport>) {
    let cfg = ServeConfig {
        mailbox_capacity: 16,
        admission_deadline: SimDuration::from_millis(400),
        ..ServeConfig::default()
    };
    let inputs = WorkloadSpec { reports: 256, load: 2.0, ..WorkloadSpec::default() }
        .generate(&cfg, 99);
    (cfg, inputs)
}

/// Overload at 2× saturation: the mailbox bound holds, every refusal is
/// a typed shed, and reports are conserved end to end.
#[test]
fn two_x_saturation_sheds_typed_and_conserves() {
    let (cfg, inputs) = overloaded();
    let run = Supervisor::new(cfg.clone(), SharedStore::new(), Vec::new()).run(&inputs);
    assert!(!run.degraded);
    let c = run.counters;
    assert_eq!(c.offered, inputs.len() as u64);
    assert!(c.shed > 0, "2x saturation must shed");
    assert_eq!(c.admitted + c.shed, c.offered, "no silent drops");
    assert_eq!(c.completed, c.admitted, "a drained daemon completes everything admitted");
    // Every shed is accounted to a typed reason in the metrics.
    let typed = run.metrics.counter("serve.shed.mailbox-full")
        + run.metrics.counter("serve.shed.deadline")
        + run.metrics.counter("serve.shed.degraded");
    assert_eq!(typed, c.shed);
    // The memory bound: the queue never exceeded the mailbox capacity.
    let peak = run.metrics.gauge("serve.queue-depth.max").unwrap_or(0.0);
    assert!(peak <= cfg.mailbox_capacity as f64, "queue peaked at {peak}");
}

/// The trace an uninterrupted daemon emits live and the trace lifted back
/// out of its journal are the same events — kind for kind, report for
/// report, queue depth for queue depth — because both come from one
/// `Record` → `TraceEvent` mapping at `Daemon::append`: what
/// `concilium-serve --explain` answers from a WAL is what `--trace-out`
/// showed. Times are not compared: a shed record carries none, so the
/// lifted stream dates it at the latest journaled time.
#[test]
fn live_trace_equals_the_trace_lifted_from_the_journal() {
    let (cfg, inputs) = overloaded();
    let store = SharedStore::new();
    let run = Supervisor::new(cfg, store.clone(), Vec::new()).run(&inputs);
    assert_eq!(run.trace.dropped(), 0, "the ring must hold the whole run");
    let live: Vec<&TraceEvent> = run.trace.events().map(|t| &t.event).collect();
    for label in ["admit", "shed", "complete", "journal-commit"] {
        assert!(live.iter().any(|e| e.label() == label), "no {label} event in the run");
    }

    let (records, _) = Journal::over(store).scan();
    let lifted = records_to_traced(&records);
    assert_eq!(live, lifted.iter().map(|t| &t.event).collect::<Vec<_>>());
}

/// Each recovery is one `recovered` event in the exported trace — the
/// crashed incarnations' as well as the survivor's, and the survivor's
/// once — and the export is causally whole: completions of reports
/// admitted before a crash follow a `recovered` marker, so nothing in it
/// is an orphan.
#[test]
fn a_twice_killed_run_exports_one_recovered_event_per_recovery() {
    let (cfg, inputs) = overloaded();
    let kills = [(60, PanicSite::AfterAdmission), (140, PanicSite::BeforeInput)]
        .map(|(input, site)| KillPoint { input, site, torn_garbage: Vec::new() })
        .to_vec();
    let run = Supervisor::new(cfg, SharedStore::new(), kills).run(&inputs);
    assert_eq!((run.incidents, run.degraded), (2, false));
    assert_eq!(run.trace.dropped(), 0, "the ring must hold the whole run");

    let exported: Vec<Traced> = run
        .trace
        .to_jsonl(&[("episode", "serve"), ("seed", "99")])
        .lines()
        .map(|line| {
            let parsed = json::parse(line).expect("exported line parses");
            traced_from_json_line(&parsed).expect("exported line decodes").0
        })
        .collect();
    let recovered = exported.iter().filter(|t| t.event.label() == "recovered").count();
    let recoveries = run
        .recoveries
        .iter()
        .filter(|r| r.records_replayed > 0 || r.truncated_bytes > 0)
        .count();
    assert_eq!((recovered, recoveries), (2, 2), "boot over a fresh store, then one per kill");
    let orphans = CausalIndex::from_events(&exported).orphan_terminals();
    assert!(orphans.is_empty(), "{orphans:?}");
}
