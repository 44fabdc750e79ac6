//! Real-hardware software-COUP throughput demonstration, through the
//! service facade.
//!
//! Everything the rest of the repository *simulates*, this example *runs*:
//! a [`CoupRuntime`] (built by [`RuntimeBuilder`]) owns resident workers and
//! absorbs contended commutative-update traffic from external producer
//! threads via batched submission handles, comparing the conventional
//! baseline (one atomic RMW per applied update, `BackendKind::Atomic`)
//! against software COUP (`BackendKind::Coup`: privatized per-worker line
//! buffers written with plain stores, reduced on demand by readers) behind
//! the same facade.
//!
//! Seven sections:
//!
//! 1. a raw contended-counter sweep over producer counts,
//! 2. an update/read-mix sweep across producer counts (reads are COUP's
//!    expensive operation — each one reduces the buffers of the line's
//!    active writers, tracked by a per-line writer bitmap),
//! 3. a buffer-capacity sweep, uniform and Zipf-skewed: the privatized
//!    buffers are sparse and capacity-bounded (software U-state evictions);
//!    this locates the eviction-rate crossover against the atomic baseline
//!    and shows how key-popularity skew moves it,
//! 4. the real workload kernels (`hist`, `pgrank`, `refcount`) executed
//!    through the backend-neutral [`ExecutionBackend`] abstraction — the
//!    same kernel definitions the timing simulator runs, now on silicon as
//!    facade worker jobs, with every run verified against the sequential
//!    reference — including pgrank over a million-line store with
//!    per-thread buffer memory capped at a few KiB,
//! 5. the sharded-submission sweep: producer counts 8 → 1024 through the
//!    per-producer SPSC rings, with park/unpark totals and per-shard
//!    `(slot, claims, drained)` rows,
//! 6. the read-tier sweep: the read-heavy contended mix per read rate under
//!    all three read paths — atomic baseline, COUP exact (reducing) reads,
//!    and COUP [`read_stale`](coup_runtime::LaneHandle::read_stale) — the
//!    crossover evidence for the tiered-consistency read path,
//! 7. the telemetry-overhead measurement: interleaved pairs of runs with the
//!    metrics registry enabled versus runtime-disabled, the overhead taken
//!    as the *median* pair and asserted against the ≤5% budget (a single
//!    pair is one scheduler hiccup away from either sign) — once on the
//!    hist kernel, once on the read-tier sweep's r500 exact-read mix.
//!
//! The kernel table, the submission sweep, the read-tier sweep, the
//! overhead measurement, and the merged
//! [`MetricsSnapshot`](coup_runtime::MetricsSnapshot) of every facade-path
//! section (so the committed accounting shows the submitted/applied/read
//! volume actually measured, not zeros) are also written to
//! `BENCH_runtime.json` (schema `coup-bench-runtime/v3`, written and parsed
//! by [`coup_runtime::bench`], documented in the README) so perf
//! trajectories are machine-diffable across commits.
//!
//! On a many-core machine the COUP advantage grows with the core count
//! (private buffers eliminate the coherence ping-pong of the hot lines); on
//! a single-core container it measures the instruction-level gap — plain
//! load/store versus lock-prefixed RMW — and COUP still wins.
//!
//! Run with: `cargo run --release --example runtime_throughput`

use coup_protocol::ops::CommutativeOp;
use coup_runtime::{
    expected_counts, run_contended, BackendKind, BufferConfig, ContendedSpec, CoupBackend,
    CoupRuntime, ReadTier, RuntimeBuilder, DEFAULT_FLUSH_THRESHOLD,
};
use coup_runtime::{
    BenchKernelRow, BenchOverhead, BenchReadTierRow, BenchReport, BenchShardRow, BenchSweepRow,
    Merge, MetricsSnapshot, TelemetryConfig, BENCH_SCHEMA,
};
use coup_workloads::bfs::BfsWorkload;
use coup_workloads::hist::{HistScheme, HistWorkload};
use coup_workloads::kernel::{ExecutionBackend, RuntimeBackend, RuntimeKind, UpdateKernel};
use coup_workloads::pgrank::PageRankWorkload;
use coup_workloads::refcount::{DelayedRefcount, DelayedScheme, ImmediateRefcount, RefcountScheme};
use coup_workloads::runner::compare_runtime_backends;
use coup_workloads::spmv::SpmvWorkload;

/// Resident workers of every runtime in this example: the service's fixed
/// thread pool, independent of how many producers feed it.
const WORKERS: usize = 2;

fn runtime(kind: BackendKind, op: CommutativeOp, lanes: usize) -> CoupRuntime {
    RuntimeBuilder::new(op, lanes)
        .backend(kind)
        .workers(WORKERS)
        .build()
}

fn sweep_producers(op: CommutativeOp, updates_per_thread: usize) {
    println!(
        "contended updates, 64 shared lanes ({op}), {updates_per_thread} updates/producer, \
         2/1000 reads, {WORKERS} resident workers"
    );
    println!(
        "{:>9} | {:>14} | {:>14} | {:>8}",
        "producers", "atomic (Mops)", "coup (Mops)", "speedup"
    );
    for producers in [1usize, 2, 4, 8, 16] {
        let spec = ContendedSpec::contended(updates_per_thread).with_reads(2);
        let atomic = runtime(BackendKind::Atomic, op, spec.lanes);
        let coup = runtime(BackendKind::Coup, op, spec.lanes);
        let ra = run_contended(&atomic, producers, &spec);
        let rc = run_contended(&coup, producers, &spec);
        assert_eq!(atomic.snapshot(), coup.snapshot(), "backends must agree");
        println!(
            "{producers:>9} | {:>14.1} | {:>14.1} | {:>7.2}x",
            ra.mops(),
            rc.mops(),
            rc.mops() / ra.mops()
        );
    }
    println!();
}

fn sweep_read_mix(producers: usize, updates_per_thread: usize, facade: &mut MetricsSnapshot) {
    println!(
        "update/read mix at {producers} producers (reads reduce only the buffers \
         in the line's writer bitmap)"
    );
    println!(
        "{:>12} | {:>14} | {:>14} | {:>8} | {:>12} | {:>9}",
        "reads/1000", "atomic (Mops)", "coup (Mops)", "speedup", "bufwords/rd", "retries"
    );
    for reads_per_1000 in [0u32, 10, 100, 300] {
        let spec = ContendedSpec::contended(updates_per_thread).with_reads(reads_per_1000);
        let atomic = runtime(BackendKind::Atomic, CommutativeOp::AddU64, spec.lanes);
        let coup = runtime(BackendKind::Coup, CommutativeOp::AddU64, spec.lanes);
        let ra = run_contended(&atomic, producers, &spec);
        let rc = run_contended(&coup, producers, &spec);
        assert_eq!(atomic.snapshot(), coup.snapshot(), "backends must agree");
        facade.merge(&rc.metrics);
        println!(
            "{reads_per_1000:>12} | {:>14.1} | {:>14.1} | {:>7.2}x | {:>12.2} | {:>9}",
            ra.mops(),
            rc.mops(),
            rc.mops() / ra.mops(),
            rc.read_cost.buffer_words_per_read(),
            rc.read_cost.retries,
        );
    }
    println!();
}

fn sweep_capacity(producers: usize, updates_per_thread: usize) {
    println!(
        "buffer-capacity sweep at {producers} producers, 4096 lanes (512 lines): \
         evictions migrate victims store-ward (software U-state evictions); \
         zipf(0.99) keeps the hot head resident"
    );
    println!(
        "{:>9} | {:>14} | {:>14} | {:>8} | {:>10} | {:>12}",
        "skew", "capacity", "coup (Mops)", "speedup", "evictions", "evict/update"
    );
    let uniform = ContendedSpec {
        lanes: 4096,
        updates_per_thread,
        reads_per_1000: 2,
        seed: 0x5EED,
        theta: 0.0,
        read_tier: ReadTier::Exact,
    };
    for spec in [uniform, uniform.zipf(0.99)] {
        let skew = if spec.theta == 0.0 {
            "uniform"
        } else {
            "zipf.99"
        };
        let atomic = runtime(BackendKind::Atomic, CommutativeOp::AddU64, spec.lanes);
        let ra = run_contended(&atomic, producers, &spec);
        for capacity in [
            Some(8usize),
            Some(32),
            Some(128),
            Some(256),
            Some(512),
            None,
        ] {
            let config = BufferConfig {
                capacity_lines: capacity,
                ..BufferConfig::default()
            };
            let coup = RuntimeBuilder::new(CommutativeOp::AddU64, spec.lanes)
                .workers(WORKERS)
                .buffer_config(config)
                .build();
            let rc = run_contended(&coup, producers, &spec);
            assert_eq!(atomic.snapshot(), coup.snapshot(), "backends must agree");
            let label = match capacity {
                Some(c) => format!("{c} lines"),
                None => "unbounded".to_string(),
            };
            println!(
                "{skew:>9} | {label:>14} | {:>14.1} | {:>7.2}x | {:>10} | {:>12.3}",
                rc.mops(),
                rc.mops() / ra.mops(),
                rc.buffer_stats.evictions,
                rc.buffer_stats.eviction_rate(rc.updates),
            );
        }
    }
    println!();
}

/// The sharded-submission sweep: producer counts 8 → 1024 against both
/// backends, total update volume held roughly constant so the sweep
/// measures submission-path scaling, not more work. Each point records the
/// COUP run's park/unpark totals and its per-shard `(slot, claims,
/// drained)` rows for `BENCH_runtime.json` — capped at the heaviest-drained
/// [`SWEEP_SHARD_ROWS`] slots, with the omission counted, never silent.
const SWEEP_SHARD_ROWS: usize = 16;

fn sweep_submission(facade: &mut MetricsSnapshot) -> Vec<BenchSweepRow> {
    println!(
        "sharded submission sweep, 64 shared lanes, ~4M updates total, \
         {WORKERS} resident workers (per-shard rows land in BENCH_runtime.json)"
    );
    println!(
        "{:>9} | {:>14} | {:>14} | {:>8} | {:>7} | {:>12}",
        "producers", "atomic (Mops)", "coup (Mops)", "speedup", "parks", "shards used"
    );
    let mut rows = Vec::new();
    for producers in [8usize, 64, 256, 1024] {
        let per_thread = (4_000_000 / producers).max(1_000);
        let spec = ContendedSpec::contended(per_thread);
        let atomic = runtime(BackendKind::Atomic, CommutativeOp::AddU64, spec.lanes);
        let coup = runtime(BackendKind::Coup, CommutativeOp::AddU64, spec.lanes);
        let ra = run_contended(&atomic, producers, &spec);
        let rc = run_contended(&coup, producers, &spec);
        assert_eq!(atomic.snapshot(), coup.snapshot(), "backends must agree");
        let mut shards: Vec<BenchShardRow> = coup
            .shard_stats()
            .into_iter()
            .filter(|s| s.claims > 0)
            .map(|s| BenchShardRow {
                slot: s.slot,
                claims: s.claims,
                drained: s.drained,
            })
            .collect();
        let claimed = shards.len();
        shards.sort_by(|a, b| b.drained.cmp(&a.drained).then(a.slot.cmp(&b.slot)));
        shards.truncate(SWEEP_SHARD_ROWS);
        facade.merge(&rc.metrics);
        println!(
            "{producers:>9} | {:>14.1} | {:>14.1} | {:>7.2}x | {:>7} | {:>12}",
            ra.mops(),
            rc.mops(),
            rc.mops() / ra.mops(),
            rc.metrics.queue_parks,
            claimed,
        );
        rows.push(BenchSweepRow {
            producers,
            atomic_mops: ra.mops(),
            coup_mops: rc.mops(),
            queue_parks: rc.metrics.queue_parks,
            queue_unparks: rc.metrics.queue_unparks,
            shards,
            shards_omitted: claimed.saturating_sub(SWEEP_SHARD_ROWS),
        });
    }
    println!();
    rows
}

/// The read-tier sweep: the same read-heavy contended mix (the refcount-like
/// regime where exact reads make COUP lose its lead) served three ways —
/// atomic baseline, COUP reducing every read, and COUP answering reads from
/// the stale tier ([`ReadTier::Stale`]: the store word plus an outstanding-
/// delta bound, no reduction, no read hold).
fn sweep_read_tier(
    producers: usize,
    updates_per_thread: usize,
    facade: &mut MetricsSnapshot,
) -> Vec<BenchReadTierRow> {
    // The refcount-style fan-out shape: as many resident workers as
    // producers, so an exact read may have to reduce every worker's
    // buffered partial while a stale read stays one bitmap walk — this is
    // the read-heavy regime the relaxed tier exists for.
    let workers = producers;
    println!(
        "read-tier sweep at {producers} producers, {workers} resident \
         workers: exact reads reduce the writer bitmap's buffers; stale \
         reads return the store word + a staleness bound"
    );
    println!(
        "{:>12} | {:>14} | {:>14} | {:>14} | {:>12} | {:>13}",
        "reads/1000", "atomic (Mops)", "exact (Mops)", "stale (Mops)", "vs exact", "vs atomic"
    );
    let mut rows = Vec::new();
    for reads_per_1000 in [100u32, 300, 500] {
        let spec = ContendedSpec::contended(updates_per_thread).with_reads(reads_per_1000);
        let atomic = RuntimeBuilder::new(CommutativeOp::AddU64, spec.lanes)
            .backend(BackendKind::Atomic)
            .workers(workers)
            .build();
        let exact = RuntimeBuilder::new(CommutativeOp::AddU64, spec.lanes)
            .workers(workers)
            .build();
        let stale = RuntimeBuilder::new(CommutativeOp::AddU64, spec.lanes)
            .workers(workers)
            .build();
        let ra = run_contended(&atomic, producers, &spec);
        let re = run_contended(&exact, producers, &spec);
        let rs = run_contended(&stale, producers, &spec.with_read_tier(ReadTier::Stale));
        assert_eq!(atomic.snapshot(), exact.snapshot(), "backends must agree");
        assert_eq!(
            atomic.snapshot(),
            stale.snapshot(),
            "the stale tier changes what reads observe, never the update stream"
        );
        facade.merge(&re.metrics);
        facade.merge(&rs.metrics);
        println!(
            "{reads_per_1000:>12} | {:>14.1} | {:>14.1} | {:>14.1} | {:>+11.1}% | {:>+12.1}%",
            ra.mops(),
            re.mops(),
            rs.mops(),
            (rs.mops() / re.mops() - 1.0) * 100.0,
            (rs.mops() / ra.mops() - 1.0) * 100.0,
        );
        rows.push(BenchReadTierRow {
            reads_per_1000,
            atomic_mops: ra.mops(),
            exact_mops: re.mops(),
            stale_mops: rs.mops(),
        });
    }
    println!();
    rows
}

fn run_kernel(name: &'static str, kernel: &dyn UpdateKernel, threads: usize) -> BenchKernelRow {
    let (atomic, coup) = compare_runtime_backends(kernel, threads)
        .expect("both runs verify against the sequential reference");
    println!(
        "{name:>20} | {:>14.1} | {:>14.1} | {:>7.2}x | {:>9} updates, {:>7} reads — verified",
        atomic.mops(),
        coup.mops(),
        coup.mops() / atomic.mops(),
        coup.updates,
        coup.reads,
    );
    BenchKernelRow {
        kernel: name.to_string(),
        atomic_mops: atomic.mops(),
        coup_mops: coup.mops(),
        updates: coup.updates,
        reads: coup.reads,
    }
}

/// The bounded-footprint demonstration: pgrank over a million-line store
/// (2²³ vertices, a 64 MiB rank array) where a dense per-thread mirror would
/// cost 64 MiB × threads. The sparse buffers cap each worker at
/// `capacity` lines (~6 KiB at 64) and drain conflicts through evictions.
fn run_big_pgrank(threads: usize) {
    let vertices = 1usize << 23;
    let capacity = 64;
    let pgrank = PageRankWorkload::new(vertices, 1, 1, 42);
    let kernel = pgrank.kernel();
    let probe = CoupBackend::with_config(
        CommutativeOp::AddU64,
        vertices,
        threads,
        DEFAULT_FLUSH_THRESHOLD,
        BufferConfig::bounded(capacity),
    );
    println!(
        "pgrank at {vertices} vertices ({} store lines, {} MiB store): \
         {capacity}-line buffers = {} bytes/thread (dense mirror: {} MiB/thread)",
        probe.store().num_lines(),
        probe.store().num_lines() * 64 / (1 << 20),
        probe.buffer_bytes_per_thread(),
        probe.store().num_lines() * 64 / (1 << 20),
    );
    drop(probe);
    let report = RuntimeBackend::new(RuntimeKind::Coup, threads)
        .with_buffer_config(BufferConfig::bounded(capacity))
        .execute(&kernel)
        .expect("million-line pgrank verifies against the sequential reference");
    println!(
        "{:>20} | {:>14} | {:>14.1} | {:>8} | {:>9} updates, {:>7} evictions — verified",
        "pgrank (8.4M v)",
        "-",
        report.mops(),
        "-",
        report.updates,
        report.buffer_stats.evictions,
    );
}

/// What the telemetry-overhead section measured: the same kernel with the
/// registry live and with the runtime kill-switch thrown.
struct OverheadRow {
    enabled_mops: f64,
    disabled_mops: f64,
    /// Enabled-vs-disabled slowdown of the *median* interleaved pair, in
    /// percent; negative means the enabled run was faster (noise floor).
    overhead_pct: f64,
    metrics: MetricsSnapshot,
}

/// The telemetry-overhead acceptance budget: the instrumented hot path may
/// cost at most this much against the kill-switched one.
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Runs `reps` *interleaved* pairs of `run` — telemetry enabled (default
/// config), then runtime-disabled — so both sides of every pair see the
/// same machine weather, prints the row, and asserts the median per-pair
/// slowdown against [`OVERHEAD_BUDGET_PCT`]: a single pair is one scheduler
/// hiccup away from either sign, and gating the budget on it would flap.
/// Returns the enabled and disabled median Mops and the overhead.
fn gate_overhead(
    label: &str,
    reps: usize,
    mut run: impl FnMut(TelemetryConfig) -> f64,
) -> (f64, f64, f64) {
    assert!(
        reps >= 3,
        "the median needs at least three interleaved pairs"
    );
    println!("telemetry overhead ({label}, median of {reps} pairs):");
    let pairs: Vec<(f64, f64)> = (0..reps)
        .map(|_| {
            let on = run(TelemetryConfig::default());
            (on, run(TelemetryConfig::disabled()))
        })
        .collect();
    let enabled_mops = median(pairs.iter().map(|p| p.0).collect());
    let disabled_mops = median(pairs.iter().map(|p| p.1).collect());
    let overhead_pct = median(
        pairs
            .iter()
            .map(|(on, off)| (off / on - 1.0) * 100.0)
            .collect(),
    );
    println!(
        "  {:>10} | {:>14.1} Mops\n  {:>10} | {:>14.1} Mops\n  {:>10} | {:>13.2}%",
        "enabled", enabled_mops, "disabled", disabled_mops, "overhead", overhead_pct,
    );
    let per_pair: Vec<String> = pairs
        .iter()
        .map(|(on, off)| format!("{on:.1}/{off:.1}"))
        .collect();
    println!(
        "  {:>10} | {} (on/off Mops)\n",
        "pairs",
        per_pair.join(", ")
    );
    assert!(
        overhead_pct <= OVERHEAD_BUDGET_PCT,
        "{label}: median telemetry overhead {overhead_pct:.2}% busts the \
         {OVERHEAD_BUDGET_PCT}% budget (pairs: {pairs:?})"
    );
    (enabled_mops, disabled_mops, overhead_pct)
}

/// Measures telemetry overhead twice, each gated by [`gate_overhead`]: on
/// the hist kernel (the row `BENCH_runtime.json` records), and on the r500
/// exact-read mix of the read-tier sweep — 8 producers feeding 8 resident
/// workers — where every other operation is a handle read that runs the
/// read-side accounting, which the update-only hist kernel never touches.
fn measure_overhead(threads: usize, reps: usize) -> OverheadRow {
    let hist = HistWorkload::new(1_000_000, 256, HistScheme::Shared, 42);
    let kernel = hist.kernel();
    let mut metrics = MetricsSnapshot::default();
    let label = format!("hist 1M px, 256 bins, {threads} threads");
    let (enabled_mops, disabled_mops, overhead_pct) = gate_overhead(&label, reps, |config| {
        let report = RuntimeBackend::new(RuntimeKind::Coup, threads)
            .with_telemetry(config)
            .execute(&kernel)
            .expect("hist verifies under either telemetry config");
        if config.enabled {
            metrics.merge(&report.metrics);
        }
        report.mops()
    });
    let producers = 8;
    let spec = ContendedSpec::contended(400_000).with_reads(500);
    gate_overhead(
        "exact read mix r500, 8 producers, 8 workers",
        reps,
        |config| {
            let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, spec.lanes)
                .workers(producers)
                .telemetry(config)
                .build();
            let report = run_contended(&runtime, producers, &spec);
            assert_eq!(
                runtime.snapshot(),
                expected_counts(&spec, producers, CommutativeOp::AddU64),
                "the read mix must apply every update"
            );
            report.mops()
        },
    );
    OverheadRow {
        enabled_mops,
        disabled_mops,
        overhead_pct,
        metrics,
    }
}

/// Serialises the run into `BENCH_runtime.json` (schema [`BENCH_SCHEMA`];
/// see README). The writer and parser live together in
/// [`coup_runtime::bench`], and the whole report is round-tripped through
/// [`BenchReport::from_json`] before the file is written, so a report that
/// would not parse back never lands on disk.
fn emit_bench_json(
    threads: usize,
    rows: Vec<BenchKernelRow>,
    sweep: Vec<BenchSweepRow>,
    tiers: Vec<BenchReadTierRow>,
    overhead: OverheadRow,
    mut facade: MetricsSnapshot,
) {
    // The committed snapshot merges every facade-path section's delta with
    // the instrumented kernel run's, so the accounting counters
    // (updates_submitted / updates_applied / handle_reads / stale_reads)
    // reflect the volume the report's rows actually measured — a file whose
    // kernel rows claim updates over an all-zero snapshot is the bug the
    // schema tests now reject.
    facade.merge(&overhead.metrics);
    let report = BenchReport {
        threads,
        workers: WORKERS,
        kernels: rows,
        submission_sweep: sweep,
        read_tier_sweep: tiers,
        telemetry_overhead: BenchOverhead {
            kernel: "hist (1M px, 256b)".to_string(),
            threads,
            enabled_mops: overhead.enabled_mops,
            disabled_mops: overhead.disabled_mops,
            overhead_pct: overhead.overhead_pct,
        },
        metrics: facade,
    };
    let json = report.to_json();
    let parsed =
        BenchReport::from_json(&json).expect("bench report must round-trip through its own JSON");
    assert_eq!(parsed, report, "bench JSON round-trip changed the report");
    match std::fs::write("BENCH_runtime.json", &json) {
        Ok(()) => println!(
            "wrote BENCH_runtime.json ({BENCH_SCHEMA}, {} bytes)",
            json.len()
        ),
        Err(err) => println!("could not write BENCH_runtime.json: {err}"),
    }
}

fn main() {
    let threads = 8;

    println!("== software COUP on real hardware (CoupRuntime facade) ==\n");
    sweep_producers(CommutativeOp::AddU64, 400_000);
    sweep_producers(CommutativeOp::AddU32, 400_000);
    // The read-mix crossover across producer counts: the writer-bitmap read
    // path pays O(active writers) per read, so where the crossover lands
    // depends on how many writers stay hot, not on the producer count.
    let mut facade = MetricsSnapshot::default();
    for producers in [2usize, 4, 8, 16] {
        sweep_read_mix(producers, 400_000, &mut facade);
    }
    sweep_capacity(4, 400_000);
    let sweep = sweep_submission(&mut facade);
    let tiers = sweep_read_tier(8, 400_000, &mut facade);

    println!("workload kernels through ExecutionBackend at {threads} threads");
    println!(
        "{:>20} | {:>14} | {:>14} | {:>8} |",
        "kernel", "atomic (Mops)", "coup (Mops)", "speedup"
    );
    let mut rows = Vec::new();
    let hist = HistWorkload::new(1_000_000, 256, HistScheme::Shared, 42);
    rows.push(run_kernel("hist (1M px, 256b)", &hist.kernel(), threads));
    let pgrank = PageRankWorkload::new(2_000, 32, 4, 42);
    rows.push(run_kernel("pgrank (2k v, x4)", &pgrank.kernel(), threads));
    let refcount = ImmediateRefcount::new(64, 150_000, false, RefcountScheme::Coup, 42);
    rows.push(run_kernel(
        "refcount (64 ctrs)",
        &refcount.kernel(),
        threads,
    ));
    // The update-rich workloads this PR kernelized: floating-point scatter
    // (verified under the relative tolerance), the dynamic level-synchronous
    // visited bitmap, and the delayed-reclamation epoch scheme.
    let spmv = SpmvWorkload::new(20_000, 16, 42);
    rows.push(run_kernel("spmv (20k², 16nnz)", &spmv.kernel(), threads));
    let bfs = BfsWorkload::new(200_000, 8, 42);
    rows.push(run_kernel("bfs (200k v)", &bfs.kernel(), threads));
    let delayed = DelayedRefcount::new(4_096, 8, 50_000, DelayedScheme::CoupBitmap, 42);
    rows.push(run_kernel("refcount-delayed", &delayed.kernel(), threads));
    run_big_pgrank(threads);
    println!();

    let overhead = measure_overhead(threads, 5);
    emit_bench_json(threads, rows, sweep, tiers, overhead, facade);
}
