//! Criterion benches for the real-hardware runtime behind the service
//! facade: atomic baseline versus software COUP as producer count and
//! update/read mix vary, the sparse-buffer capacity sweep (uniform and
//! Zipf-skewed), the batched-submission batch-size sweep, plus the workload
//! kernels through the backend-neutral `ExecutionBackend`.
//!
//! The interesting output is the *ratio* between the `atomic/...` and
//! `coup/...` lines of each group: the wall-clock advantage of privatizing
//! commutative updates on the machine actually running this bench. The
//! `submission_batch_sweep` group and the per-kernel `runtime_kernel_*`
//! groups report ops/s directly (`Throughput` units) so crossovers read off
//! the `thrpt` column.
//!
//! To track a change's effect across runs, save a baseline first and compare
//! against it later (the shim mirrors Criterion's CLI):
//!
//! ```text
//! cargo bench --bench runtime -- --save-baseline before
//! # …hack…
//! cargo bench --bench runtime -- --baseline before   # prints ±x.x% deltas
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use coup_protocol::ops::CommutativeOp;
use coup_runtime::{
    run_contended, BackendKind, BufferConfig, ContendedSpec, ReadTier, RuntimeBuilder,
    TelemetryConfig,
};
use coup_workloads::bfs::BfsWorkload;
use coup_workloads::hist::{HistScheme, HistWorkload};
use coup_workloads::kernel::{ExecutionBackend, RuntimeBackend, RuntimeKind, UpdateKernel};
use coup_workloads::refcount::{DelayedRefcount, DelayedScheme, ImmediateRefcount, RefcountScheme};
use coup_workloads::spmv::SpmvWorkload;

const UPDATES_PER_THREAD: usize = 100_000;

/// A fresh service runtime for one bench iteration.
fn make_runtime(kind: BackendKind, lanes: usize, workers: usize) -> coup_runtime::CoupRuntime {
    RuntimeBuilder::new(CommutativeOp::AddU64, lanes)
        .backend(kind)
        .workers(workers)
        .build()
}

fn bench_contended_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_contended_threads");
    group.sample_size(10);
    for producers in [1usize, 2, 4, 8] {
        let spec = ContendedSpec::contended(UPDATES_PER_THREAD).with_reads(2);
        group.throughput(Throughput::Elements(
            (producers * UPDATES_PER_THREAD) as u64,
        ));
        for (kind, label) in [(BackendKind::Atomic, "atomic"), (BackendKind::Coup, "coup")] {
            group.bench_function(format!("{label}/{producers}p"), |b| {
                b.iter(|| {
                    let rt = make_runtime(kind, spec.lanes, 2);
                    run_contended(&rt, producers, &spec)
                });
            });
        }
    }
    group.finish();
}

fn bench_read_mix(c: &mut Criterion) {
    // The read-mix crossover as producer count varies: the writer-bitmap
    // read path makes a coup read O(active writers), so the crossover should
    // move toward read-heavier mixes as more of each read's former
    // O(threads) reduction cost disappears.
    let mut group = c.benchmark_group("runtime_read_mix");
    group.sample_size(10);
    for producers in [2usize, 4, 8] {
        for reads_per_1000 in [0u32, 10, 100, 300] {
            let spec = ContendedSpec::contended(UPDATES_PER_THREAD).with_reads(reads_per_1000);
            for (kind, label) in [(BackendKind::Atomic, "atomic"), (BackendKind::Coup, "coup")] {
                group.bench_function(format!("{label}/{producers}p/r{reads_per_1000}"), |b| {
                    b.iter(|| {
                        let rt = make_runtime(kind, spec.lanes, 2);
                        run_contended(&rt, producers, &spec)
                    });
                });
            }
        }
    }
    group.finish();
}

fn bench_capacity_sweep(c: &mut Criterion) {
    // The eviction-rate crossover of the sparse privatized buffers: a
    // scatter over 4096 lanes (512 store lines at AddU64) with the
    // per-worker capacity swept from far-too-small to unbounded. Uniform
    // traffic evicts on almost every line switch at tiny capacities (every
    // eviction is a store migration — CAS work an AtomicBackend update does
    // anyway), so coup approaches atomic from below; once the capacity
    // covers the working set, evictions vanish and the full privatization
    // win returns. The `zipf/...` rows show the locality-friendly middle
    // ground: with Zipf(0.99)-skewed lanes the hot head stays resident, so
    // even a tiny capacity behaves like a much larger one. Compare each
    // `coup/...` line against `atomic` to find the crossover.
    let mut group = c.benchmark_group("runtime_capacity_sweep_4p");
    group.sample_size(10);
    let producers = 4;
    let uniform = ContendedSpec {
        lanes: 4096,
        updates_per_thread: UPDATES_PER_THREAD,
        reads_per_1000: 2,
        seed: 0x5EED,
        theta: 0.0,
        read_tier: ReadTier::Exact,
    };
    group.throughput(Throughput::Elements(
        (producers * UPDATES_PER_THREAD) as u64,
    ));
    group.bench_function("atomic", |b| {
        b.iter(|| {
            let rt = make_runtime(BackendKind::Atomic, uniform.lanes, 2);
            run_contended(&rt, producers, &uniform)
        });
    });
    for (spec, skew) in [(uniform, "uniform"), (uniform.zipf(0.99), "zipf")] {
        for capacity in [
            Some(8usize),
            Some(32),
            Some(128),
            Some(256),
            Some(512),
            None,
        ] {
            let label = match capacity {
                Some(c) => format!("coup/{skew}/c{c}"),
                None => format!("coup/{skew}/unbounded"),
            };
            group.bench_function(label, |b| {
                b.iter(|| {
                    let config = BufferConfig {
                        capacity_lines: capacity,
                        ..BufferConfig::default()
                    };
                    let rt = RuntimeBuilder::new(CommutativeOp::AddU64, spec.lanes)
                        .workers(2)
                        .buffer_config(config)
                        .build();
                    run_contended(&rt, producers, &spec)
                });
            });
        }
    }
    group.finish();
}

/// One submission-sweep measurement body: `producers` external threads each
/// pushing `per_producer` updates through their own [`Submitter`], then a
/// full drain, so the measured rate is end-to-end submitted-updates/s.
fn submission_round(
    kind: BackendKind,
    lanes: usize,
    batch: usize,
    producers: usize,
    per_producer: usize,
) -> coup_runtime::CoupRuntime {
    let rt = RuntimeBuilder::new(CommutativeOp::AddU64, lanes)
        .backend(kind)
        .workers(2)
        .batch_capacity(batch)
        .build();
    std::thread::scope(|scope| {
        for p in 0..producers {
            let mut sub = rt.submitter();
            scope.spawn(move || {
                let mut lane = p;
                for _ in 0..per_producer {
                    lane = (lane.wrapping_mul(25) + 7) % lanes;
                    sub.push(lane, 1);
                }
            });
        }
    });
    rt.drain();
    rt
}

fn bench_submission_batch_sweep(c: &mut Criterion) {
    // The sharded submission frontend's raison d'être, measured on two axes:
    //
    // * `{backend}/b{batch}` — per-op submission (batch capacity 1) versus
    //   batched submission from 4 external producer threads; the crossover
    //   batch size (where batching first beats per-op) is recorded in the
    //   README.
    // * `{backend}/p{producers}` — the producer-count sweep at the default
    //   batch capacity, 8 → 1024 producers over a constant total update
    //   volume. This is the row pair that shows whether the submission path
    //   serializes: a single mutex-guarded queue flattens here, per-producer
    //   rings should not. Compare against a `--save-baseline` capture of the
    //   previous frontend to read the delta.
    //
    // The `thrpt` column is end-to-end submitted-updates per second,
    // including the final drain.
    let mut group = c.benchmark_group("submission_batch_sweep");
    group.sample_size(10);
    let lanes = 256;
    let batch_producers = 4usize;
    let per_producer = 50_000usize;
    group.throughput(Throughput::Elements(
        (batch_producers * per_producer) as u64,
    ));
    for kind in [BackendKind::Atomic, BackendKind::Coup] {
        for batch in [1usize, 8, 64, 256, 1024] {
            let label = match kind {
                BackendKind::Atomic => format!("atomic/b{batch}"),
                BackendKind::Coup => format!("coup/b{batch}"),
            };
            group.bench_function(label, |b| {
                b.iter(|| submission_round(kind, lanes, batch, batch_producers, per_producer));
            });
        }
    }
    // Producer-count sweep: constant total volume so the thrpt column is
    // comparable across rows; per-producer volume shrinks as the fan-in
    // grows, exactly like a service under a fixed request rate.
    const SWEEP_TOTAL: usize = 262_144;
    for producers in [8usize, 64, 256, 1024] {
        let per_producer = SWEEP_TOTAL / producers;
        group.throughput(Throughput::Elements(SWEEP_TOTAL as u64));
        for (kind, label) in [(BackendKind::Atomic, "atomic"), (BackendKind::Coup, "coup")] {
            group.bench_function(format!("{label}/p{producers}"), |b| {
                b.iter(|| {
                    submission_round(
                        kind,
                        lanes,
                        coup_runtime::DEFAULT_BATCH_CAPACITY,
                        producers,
                        per_producer,
                    )
                });
            });
        }
    }
    // Contended fan-in rows: 64 producers at batch capacity 8, where each
    // producer touches the submission frontend once per 8 updates instead
    // of once per 256. This is the regime the sharded rings exist for — a
    // single mutex-guarded queue is *taken* ~32x as often as in the p64
    // row and serializes, while per-producer rings keep every publish a
    // single uncontended Release store. Compare against a condvar-queue
    // `--save-baseline` capture to read the delta.
    group.throughput(Throughput::Elements(SWEEP_TOTAL as u64));
    for (kind, label) in [(BackendKind::Atomic, "atomic"), (BackendKind::Coup, "coup")] {
        group.bench_function(format!("{label}/p64b8"), |b| {
            b.iter(|| submission_round(kind, lanes, 8, 64, SWEEP_TOTAL / 64));
        });
    }
    group.finish();
}

fn bench_workload_kernels(c: &mut Criterion) {
    // One group per kernel, each with its own Throughput::Elements (the
    // kernel's update count), so the `thrpt` column is directly a
    // verified-updates-per-second rate and the atomic/coup ratio of every
    // workload reads off adjacent lines. These groups are the ones worth
    // tracking with `--save-baseline` / `--baseline` across PRs.
    let threads = 8;
    let hist = HistWorkload::new(200_000, 256, HistScheme::Shared, 7);
    let refcount = ImmediateRefcount::new(64, 50_000, false, RefcountScheme::Coup, 7);
    let spmv = SpmvWorkload::new(4096, 8, 7);
    let bfs = BfsWorkload::new(50_000, 8, 7);
    let delayed = DelayedRefcount::new(1024, 4, 12_500, DelayedScheme::CoupBitmap, 7);
    let hist_kernel = hist.kernel();
    let refcount_kernel = refcount.kernel();
    let spmv_kernel = spmv.kernel();
    let bfs_kernel = bfs.kernel();
    let delayed_kernel = delayed.kernel();
    let kernels: [(&str, &dyn UpdateKernel, u64); 5] = [
        ("hist", &hist_kernel, 200_000),
        ("refcount", &refcount_kernel, (threads * 50_000) as u64),
        ("spmv", &spmv_kernel, spmv.nnz() as u64),
        ("bfs", &bfs_kernel, bfs.edges() as u64),
        (
            "refcount_delayed",
            &delayed_kernel,
            (threads * 4 * 12_500) as u64,
        ),
    ];
    for (name, kernel, elements) in kernels {
        let mut group = c.benchmark_group(format!("runtime_kernel_{name}_8t"));
        group.sample_size(10);
        group.throughput(Throughput::Elements(elements));
        for (kind, label) in [(RuntimeKind::Atomic, "atomic"), (RuntimeKind::Coup, "coup")] {
            let backend = RuntimeBackend::new(kind, threads);
            group.bench_function(label, |b| {
                b.iter(|| {
                    backend
                        .execute(kernel)
                        .unwrap_or_else(|e| panic!("{name} verifies: {e}"))
                });
            });
        }
        group.finish();
    }
}

fn bench_update_service(c: &mut Criterion) {
    // The `examples/update_service.rs` shape scaled down to a bench row:
    // external producers pushing pseudo-random lane traffic through their
    // own submitters into a 2-worker runtime, then a full drain and a
    // hot-lane read probe. This group is what CI's bench guard pins: it is
    // captured with `--save-baseline` on the default build, then re-run with
    // the `san` feature enabled but `--cfg coup_san` absent under
    // `--baseline ... --fail-delta ...`, proving the sanitizer facade is
    // zero-cost when the cfg is off.
    let mut group = c.benchmark_group("update_service");
    group.sample_size(10);
    let lanes = 1024usize;
    let producers = 4usize;
    let per_producer = 25_000usize;
    group.throughput(Throughput::Elements((producers * per_producer) as u64));
    for (kind, label) in [(BackendKind::Atomic, "atomic"), (BackendKind::Coup, "coup")] {
        group.bench_function(format!("{label}/{producers}p"), |b| {
            b.iter(|| {
                let rt = make_runtime(kind, lanes, 2);
                std::thread::scope(|scope| {
                    for p in 0..producers {
                        let mut sub = rt.submitter();
                        scope.spawn(move || {
                            let mut lane = p;
                            for _ in 0..per_producer {
                                lane = (lane.wrapping_mul(25) + 7) % lanes;
                                sub.push(lane, 1);
                            }
                        });
                    }
                });
                rt.drain();
                (0..8).map(|lane| rt.read(lane)).sum::<u64>()
            });
        });
    }
    group.finish();
}

fn bench_read_tier_sweep(c: &mut Criterion) {
    // The tiered-consistency crossover: the read-heavy contended mix served
    // by (a) the atomic baseline, (b) COUP reducing every read over the
    // writer bitmap's buffers, and (c) COUP answering reads from the stale
    // tier — the store word plus an outstanding-delta bound, no reduction,
    // no read hold. `exact/rN` loses its lead as N grows (each read pays
    // O(active writers)); `stale/rN` should hold the update-path advantage
    // flat across the sweep. These rows are part of CI's bench-guard
    // baseline.
    let mut group = c.benchmark_group("read_tier_sweep");
    group.sample_size(10);
    // Fan-out geometry: as many resident workers as producers, so an exact
    // read may reduce every worker's buffered partial (the regime where the
    // relaxed tier pays — mirrors the example's read-tier section).
    let producers = 4usize;
    let workers = producers;
    for reads_per_1000 in [100u32, 300, 500] {
        let spec = ContendedSpec::contended(UPDATES_PER_THREAD).with_reads(reads_per_1000);
        group.throughput(Throughput::Elements(
            (producers * UPDATES_PER_THREAD) as u64,
        ));
        group.bench_function(format!("atomic/r{reads_per_1000}"), |b| {
            b.iter(|| {
                let rt = make_runtime(BackendKind::Atomic, spec.lanes, workers);
                run_contended(&rt, producers, &spec)
            });
        });
        group.bench_function(format!("exact/r{reads_per_1000}"), |b| {
            b.iter(|| {
                let rt = make_runtime(BackendKind::Coup, spec.lanes, workers);
                run_contended(&rt, producers, &spec)
            });
        });
        let stale_spec = spec.with_read_tier(ReadTier::Stale);
        group.bench_function(format!("stale/r{reads_per_1000}"), |b| {
            b.iter(|| {
                let rt = make_runtime(BackendKind::Coup, stale_spec.lanes, workers);
                run_contended(&rt, producers, &stale_spec)
            });
        });
    }
    group.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    // What the live metrics registry costs on the hottest kernel: the same
    // 8-thread hist run with telemetry enabled (default: full histograms,
    // unsampled trace) versus runtime-disabled (registry allocates nothing,
    // every record call is one predictable branch). The enabled/disabled
    // ratio here is the number README.md quotes; the `--no-default-features`
    // CI lane proves the compile-time path separately.
    let threads = 8;
    let hist = HistWorkload::new(200_000, 256, HistScheme::Shared, 7);
    let kernel = hist.kernel();
    let mut group = c.benchmark_group("telemetry_overhead_hist_8t");
    group.sample_size(10);
    group.throughput(Throughput::Elements(200_000));
    for (label, config) in [
        ("enabled", TelemetryConfig::default()),
        ("disabled", TelemetryConfig::disabled()),
    ] {
        let backend = RuntimeBackend::new(RuntimeKind::Coup, threads).with_telemetry(config);
        group.bench_function(label, |b| {
            b.iter(|| {
                backend
                    .execute(&kernel)
                    .unwrap_or_else(|e| panic!("hist verifies: {e}"))
            });
        });
    }
    group.finish();
}

criterion_group!(
    runtime,
    bench_contended_threads,
    bench_read_mix,
    bench_capacity_sweep,
    bench_submission_batch_sweep,
    bench_update_service,
    bench_workload_kernels,
    bench_read_tier_sweep,
    bench_telemetry_overhead
);
criterion_main!(runtime);
