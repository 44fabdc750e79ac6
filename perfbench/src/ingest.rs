//! `ingest`: closed loop. Two producer threads, each holding one
//! `LaneHandle`, push update-only `AddU64` traffic onto 64 hot lanes of a
//! runtime with two resident workers. Work runs in rounds; each round ends
//! with `flush` on every producer and `drain` on the runtime, so a round's
//! time is time to quiescence. The rings, the worker drain and the buffer
//! apply/migrate path do almost all of the work; the read path stays idle.
//! Producer threads are spawned afresh each round and the runtime is
//! rebuilt every few rounds, so one run samples many placements of its
//! threads on the CPUs.

use std::time::Instant;

use coup_protocol::ops::CommutativeOp;
use coup_runtime::{
    expected_counts, splitmix64, BackendKind, ContendedSpec, CoupRuntime, HistogramSnapshot,
    LaneHandle, LaneSampler, Merge, MetricsSnapshot, RuntimeBuilder, TelemetryConfig,
};

use crate::outcome::{ms, Budget, Outcome, Timing};
use crate::report::{count_mismatch, Metric};
use crate::stats::{median, Samples};
use crate::trace::Tracer;

pub const LANES: usize = 64;
pub const PRODUCERS: usize = 2;
pub const WORKERS: usize = 2;
/// Updates each producer pushes per round (2 M per round in all).
pub const PER_PRODUCER: usize = 1_000_000;
/// Rounds timed on each freshly built runtime.
const ROUNDS_PER_EPOCH: usize = 8;
/// Warm-up updates each producer's handle pushes during set-up.
const WARM_PER_PRODUCER: usize = PER_PRODUCER / 2;
/// In a traced run, one push in this many is wrapped in a span.
const PUSH_SAMPLE: usize = 4096;
const OP: CommutativeOp = CommutativeOp::AddU64;

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub backend: BackendKind,
    pub telemetry: TelemetryConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            backend: BackendKind::Coup,
            telemetry: TelemetryConfig::default(),
        }
    }
}

fn spec(seed: u64, updates_per_thread: usize) -> ContendedSpec {
    let mut spec = ContendedSpec::contended(updates_per_thread);
    spec.lanes = LANES;
    spec.seed = seed;
    spec
}

/// Pushes producer `producer`'s stream of `spec` — the same stream
/// `expected_counts` replays. With a span buffer, one push in
/// [`PUSH_SAMPLE`] is timed as a span under `parent`.
fn push_stream(
    handle: &mut LaneHandle,
    spec: &ContendedSpec,
    sampler: &LaneSampler,
    producer: usize,
    mut spans: Option<(&mut crate::trace::LocalSpans<'_>, u64, u64)>,
) {
    let mut state = spec.seed ^ (producer as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    for i in 0..spec.updates_per_thread {
        let lane = sampler.lane(splitmix64(&mut state));
        match spans.as_mut() {
            Some((local, parent, group)) if i % PUSH_SAMPLE == 0 => {
                let t0 = Instant::now();
                handle.push(lane, 1);
                local.record("push", *parent, *group, t0, Instant::now());
            }
            _ => handle.push(lane, 1),
        }
    }
}

struct Built {
    runtime: CoupRuntime,
    handles: Vec<LaneHandle>,
    build_ms: f64,
    setup_s: f64,
}

/// Set-up: build the runtime, spawn its workers, warm the rings, buffers
/// and caches with half a round pushed from this thread, and wait for
/// quiescence.
fn set_up(cfg: Config, warm: &ContendedSpec, sampler: &LaneSampler) -> Built {
    let t0 = Instant::now();
    let runtime = RuntimeBuilder::new(OP, LANES)
        .backend(cfg.backend)
        .workers(WORKERS)
        .telemetry(cfg.telemetry)
        .build();
    let mut handles: Vec<LaneHandle> = (0..PRODUCERS).map(|_| runtime.handle()).collect();
    let build_ms = ms(t0.elapsed());
    for (producer, handle) in handles.iter_mut().enumerate() {
        push_stream(handle, warm, sampler, producer, None);
        handle.flush();
    }
    runtime.drain();
    Built {
        runtime,
        handles,
        build_ms,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// The runtime counters of the timed rounds, summed over epochs.
#[derive(Default)]
struct Counters {
    updates: u64,
    parks: u64,
    unparks: u64,
    flushes: u64,
    batch: HistogramSnapshot,
    dwell_us: HistogramSnapshot,
}

impl Counters {
    fn add(&mut self, delta: &MetricsSnapshot) {
        self.updates += delta.updates_applied;
        self.parks += delta.queue_parks;
        self.unparks += delta.queue_unparks;
        self.flushes += delta.buffer_stats.flushes;
        self.batch.merge(&delta.batch_size);
        self.dwell_us.merge(&delta.queue_dwell_us);
    }
}

pub fn run(seed: u64, cfg: Config, budget: Budget, tracer: Option<&Tracer>) -> Outcome {
    let round = spec(seed, PER_PRODUCER);
    let warm = spec(seed ^ 0x57A2_4D1E, WARM_PER_PRODUCER);
    let sampler = round.sampler();
    let round_expected = expected_counts(&round, PRODUCERS, OP);
    let warm_expected = expected_counts(&warm, PRODUCERS, OP);
    let warm_updates = (PRODUCERS * WARM_PER_PRODUCER) as u64;
    let round_updates = (PRODUCERS * PER_PRODUCER) as u64;

    let mut out = Outcome::default();
    let mut main_spans = tracer.map(|t| t.local(0));
    let mut build_ms = Vec::new();
    let mut round_ms = Vec::new();
    let mut drain_ms = Vec::new();
    let mut backlog_max = 0u64;
    let mut counters = Counters::default();
    let deadline = budget.deadline(Instant::now());
    // Each epoch builds a fresh runtime: the placement of its resident
    // workers on the CPUs is decided at spawn and would otherwise set the
    // speed of a whole run.
    while round_ms.len() < budget.min_tasks || Instant::now() < deadline {
        let t_build = Instant::now();
        let Built {
            runtime,
            mut handles,
            build_ms: built_in,
            setup_s,
        } = set_up(cfg, &warm, &sampler);
        if let Some(local) = main_spans.as_mut() {
            local.record("runtime.build", 0, 0, t_build, Instant::now());
        }
        out.setup_s.push(setup_s);
        build_ms.push(built_in);
        let before = runtime.metrics();
        for _ in 0..ROUNDS_PER_EPOCH {
            let id = tracer.map_or(0, Tracer::next_id);
            let group = round_ms.len() as u64 + 1;
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for (producer, handle) in handles.iter_mut().enumerate() {
                    let (round, sampler) = (&round, &sampler);
                    scope.spawn(move || {
                        let mut local = tracer.map(|t| t.local(producer as u32 + 1));
                        push_stream(
                            handle,
                            round,
                            sampler,
                            producer,
                            local.as_mut().map(|l| (l, id, group)),
                        );
                        let t0 = Instant::now();
                        handle.flush();
                        if let Some(local) = local.as_mut() {
                            local.record("flush", id, group, t0, Instant::now());
                        }
                    });
                }
            });
            let pushed = Instant::now();
            let (submitted, applied) = runtime.queue_depth();
            backlog_max = backlog_max.max(submitted.saturating_sub(applied));
            runtime.drain();
            let t1 = Instant::now();
            round_ms.push(ms(t1 - t0));
            drain_ms.push(ms(t1 - pushed));
            if let Some(local) = main_spans.as_mut() {
                local.record_as(id, "round", 0, group, t0, t1);
                local.record("drain", id, group, pushed, t1);
            }
        }
        counters.add(&runtime.metrics().since(&before));
        drop(handles);
        let t_shutdown = Instant::now();
        let snapshot = runtime.shutdown().snapshot;
        if let Some(local) = main_spans.as_mut() {
            local.record("runtime.shutdown", 0, 0, t_shutdown, Instant::now());
        }
        let rounds = ROUNDS_PER_EPOCH as u64;
        let expected: Vec<u64> = round_expected
            .iter()
            .zip(&warm_expected)
            .map(|(&r, &w)| r * rounds + w)
            .collect();
        out.failed += count_mismatch(&snapshot, &expected);
        out.attempted += warm_updates + rounds * round_updates;
    }

    let mups: Vec<f64> = round_ms
        .iter()
        .map(|&t| round_updates as f64 / (t * 1e3))
        .collect();
    out.timings.push(Timing {
        name: "update_mops",
        unit: "M updates/s",
        samples: Samples::new(mups),
        tail: 10.0,
    });
    out.timings.push(Timing {
        name: "drain_ms",
        unit: "ms",
        samples: Samples::new(drain_ms),
        tail: 90.0,
    });
    out.task_ms = Samples::new(round_ms);

    if tracer.is_some() {
        let per_mupd = |count: u64| count as f64 / counters.updates.max(1) as f64 * 1e6;
        out.layer = vec![
            Metric::new("runtime.build_ms", "ms", median(&build_ms)),
            Metric::new(
                "runtime.drain_ms",
                "ms",
                out.timing("drain_ms").map_or(0.0, Samples::median),
            ),
            Metric::new("ring.parks_per_mupd", "count", per_mupd(counters.parks)),
            Metric::new("ring.unparks_per_mupd", "count", per_mupd(counters.unparks)),
            Metric::new("ring.batch_mean", "updates", counters.batch.mean()),
            Metric::new("ring.dwell_us_mean", "us", counters.dwell_us.mean()),
            Metric::new("ring.backlog_max", "updates", backlog_max as f64),
            Metric::new(
                "backend.flushes_per_mupd",
                "count",
                per_mupd(counters.flushes),
            ),
        ];
    }
    out
}
