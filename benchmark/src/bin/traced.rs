//! The traced binary: one workload's per-layer metrics.
//!
//! Differs from the untraced binary in three ways, none of which the
//! untraced one carries: a counting global allocator, the crates' own spans
//! switched on (`concilium_obs::set_profiling(true)`), and a harness span
//! around every call into a layer, kept in memory and written to
//! `benchmark/out/trace-<workload>.jsonl` when the run is over.
//!
//! A run makes two shorter passes over the workload's ops — one plain, one
//! traced — so `trace_overhead_share` compares like with like, then runs the
//! per-layer kernels. End-to-end metrics are never read from this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use concilium_benchmark::cli::{self, Command, Kernels, RunArgs};
use concilium_benchmark::kernels::{self, Effort};
use concilium_benchmark::result::{Metric, WorkloadResult};
use concilium_benchmark::tracer::{NoTrace, SpanLog, Tracer};
use concilium_benchmark::workloads::{summarize, Size, Workload};
use concilium_benchmark::{spec, stats, with_workload};

/// Share of the workload's ops each of the two passes runs.
const PASS_SHARE: f64 = 0.3;

/// The system allocator, counting calls and bytes requested.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match cli::parse(&args) {
        Ok(Command::Run(run)) if run.trace => run,
        Ok(_) => {
            eprintln!(
                "{}: takes --workload NAME --trace 1 only\n\n{}",
                env!("CARGO_BIN_NAME"),
                cli::USAGE
            );
            return ExitCode::FAILURE;
        }
        Err(err) => {
            eprintln!("{}: {err}", env!("CARGO_BIN_NAME"));
            return ExitCode::FAILURE;
        }
    };

    let size = run.size();
    let mut result = if run.workload == cli::KERNELS_ONLY {
        WorkloadResult {
            name: run.workload.clone(),
            correct: true,
            ..WorkloadResult::default()
        }
    } else {
        with_workload!(run.workload.as_str(), W => trace_workload::<W>(&run, &size))
            .expect("the parser admits only known workloads")
    };
    let effort = match run.kernels {
        Kernels::Off => None,
        _ if run.smoke => Some(Effort::smoke()),
        Kernels::Quick => Some(Effort::quick(run.seconds)),
        Kernels::Full => Some(Effort::full()),
    };
    if let Some(effort) = effort {
        for kernel in kernels::run(run.seed, &size, effort) {
            // An exact count from the workload itself outranks the kernel's.
            if result.metric(&kernel.name).is_none() {
                result.metrics.push(kernel);
            }
        }
    }

    let per_layer = spec::per_layer();
    let complete = run.kernels != Kernels::Off && run.workload != cli::KERNELS_ONLY;
    let reported: Vec<&str> = per_layer
        .iter()
        .map(|(n, _, _)| n.as_str())
        .filter(|n| complete || result.metric(n).is_some())
        .collect();
    result.emit(reported);
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn trace_workload<W: Workload>(run: &RunArgs, size: &Size) -> WorkloadResult {
    let input = W::setup(run.seed, size);
    let pass = Size {
        scale: size.scale * PASS_SHARE,
        ..*size
    };

    // The plain pass: no spans, profiling off.
    let before = allocations();
    let plain = W::run(&input, run.seed, &pass, &mut NoTrace);
    let after = allocations();

    // The traced pass over the same ops.
    concilium_obs::reset_profile();
    concilium_obs::set_profiling(true);
    let mut log = SpanLog::new();
    let root = log.enter("workload", 0);
    let traced = W::run(&input, run.seed, &pass, &mut log);
    log.exit(root);
    concilium_obs::set_profiling(false);
    let phases = concilium_obs::profile_snapshot();
    let wall_ns = {
        let root = &log.spans()[root];
        (root.end_ns - root.start_ns) as f64
    };

    let ops = plain.ops_attempted.max(1) as f64;
    let mut metrics = vec![
        Metric::measured("trace_overhead_share", traced.timed_s / plain.timed_s - 1.0),
        Metric::measured("alloc.count_per_op", (after.0 - before.0) as f64 / ops),
        Metric::measured("alloc.bytes_per_op", (after.1 - before.1) as f64 / ops),
    ];
    // Time inside a crate span that is a phase of an op, not a whole op,
    // is attributed to a layer; the rest of the wall is not.
    let attributed_ns: u64 = phases
        .iter()
        .filter(|(name, _)| !spec::DRIVER_SPANS.contains(name))
        .map(|(_, totals)| totals.self_ns)
        .sum();
    metrics.push(Metric::measured(
        "unattributed_share",
        1.0 - attributed_ns as f64 / wall_ns,
    ));
    // Too few units for a guarded p99 (the passes are short): the slowest.
    let p99 = stats::percentile_guarded(&plain.unit_ms, 0.99)
        .or_else(|| stats::percentile(&plain.unit_ms, 1.0))
        .unwrap_or(0.0);
    metrics.push(Metric::measured(spec::UNIT_MS_P99, p99));
    for span in spec::CRATE_SPANS {
        let totals = phases
            .iter()
            .find(|(name, _)| *name == span)
            .map(|(_, t)| *t)
            .unwrap_or_default();
        metrics.push(Metric::measured(
            format!("span.{span}.self_ms"),
            totals.self_ns as f64 / 1e6,
        ));
        metrics.push(Metric::measured(
            format!("span.{span}.calls"),
            totals.calls as f64,
        ));
    }

    let trailer: Vec<String> = phases
        .iter()
        .map(|(name, t)| {
            format!(
                "{{\"phase\": \"{name}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.calls, t.total_ns, t.self_ns
            )
        })
        .collect();
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", W::NAME));
    let written = log.write_jsonl(&path, &trailer);

    let digests_agree = plain.sim_digest == traced.sim_digest;
    let traced_failures = traced.failures;
    let mut result = summarize(W::NAME, 1, plain);
    result.failures.extend(
        traced_failures
            .into_iter()
            .map(|f| format!("traced pass: {f}")),
    );
    if !digests_agree {
        result
            .failures
            .push("tracing changed sim_digest".to_string());
    }
    if let Err(err) = written {
        result.failures.push(format!("{}: {err}", path.display()));
    }
    result.correct = result.failures.is_empty();
    result.metrics.extend(metrics);
    result
}
