//! The direct-call layer ledger: single-threaded calls into a private
//! `CoupBackend` / `SharedStore` / runtime, built with the ingest
//! workload's op, lanes and lane stream, each timed as the median over
//! blocks of calls. Every figure here sits beside `loadgen.clock_ns`, the
//! cost of the timer read that brackets each block.

use std::hint::black_box;
use std::time::Instant;

use coup_protocol::line::LineData;
use coup_protocol::ops::CommutativeOp;
use coup_runtime::{
    splitmix64, CoupBackend, CoupRuntime, LaneSampler, RuntimeBuilder, SharedStore,
    TelemetryConfig, UpdateBackend,
};

use crate::ingest::LANES;
use crate::report::Metric;
use crate::stats::median;

const OP: CommutativeOp = CommutativeOp::AddU64;
const BLOCKS: usize = 201;
/// External readers have no worker identity; the runtime's handles read as
/// this thread id too.
const READER: usize = usize::MAX;

/// Median over `BLOCKS` blocks of the per-call time of `calls` calls.
fn per_call_ns(calls: usize, mut block: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let t0 = Instant::now();
            block();
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&times)
}

fn lane_stream(seed: u64, n: usize) -> Vec<usize> {
    let sampler = LaneSampler::new(LANES, 0.0);
    let mut state = seed;
    (0..n)
        .map(|_| sampler.lane(splitmix64(&mut state)))
        .collect()
}

/// A backend whose first `writers` worker buffers each hold one buffered
/// update on every lane, so every exact read folds `writers` partials.
fn backend_with_writers(writers: usize) -> CoupBackend {
    let backend = CoupBackend::new(OP, LANES, 2);
    for thread in 0..writers {
        for lane in 0..LANES {
            backend.update(thread, lane, 1);
        }
    }
    backend
}

/// A runtime whose two workers each buffer a partial of every lane: two
/// handles claim slots on both worker stripes and push to every lane.
fn runtime_with_two_writers(telemetry: TelemetryConfig) -> CoupRuntime {
    let runtime = RuntimeBuilder::new(OP, LANES)
        .workers(2)
        .telemetry(telemetry)
        .build();
    let mut handles = [runtime.handle(), runtime.handle()];
    for handle in &mut handles {
        for lane in 0..LANES {
            handle.push(lane, 1);
        }
        handle.flush();
    }
    runtime.drain();
    runtime
}

fn facade_read_ns(runtime: &CoupRuntime) -> f64 {
    let handle = runtime.handle();
    per_call_ns(LANES, || {
        for lane in 0..LANES {
            black_box(handle.read(lane));
        }
    })
}

pub fn measure(seed: u64) -> Vec<Metric> {
    let clock_ns = per_call_ns(1000, || {
        for _ in 0..1000 {
            black_box(Instant::now());
        }
    });

    let lanes = lane_stream(seed, 4096);
    let backend = CoupBackend::new(OP, LANES, 2);
    let update_ns = per_call_ns(lanes.len(), || {
        for &lane in &lanes {
            backend.update(0, black_box(lane), 1);
        }
    });
    let flush_ns = {
        let times: Vec<f64> = (0..BLOCKS)
            .map(|_| {
                for lane in 0..LANES {
                    backend.update(0, lane, 1);
                }
                let t0 = Instant::now();
                backend.flush(0);
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        median(&times)
    };
    let read_k = |writers: usize| {
        let backend = backend_with_writers(writers);
        per_call_ns(LANES, || {
            for lane in 0..LANES {
                black_box(backend.read(READER, lane));
            }
        })
    };
    let (read_k1, read_k2) = (read_k(1), read_k(2));
    let stale_backend = backend_with_writers(2);
    let read_stale_ns = per_call_ns(LANES, || {
        for lane in 0..LANES {
            black_box(stale_backend.read_stale(READER, lane));
        }
    });

    let store = SharedStore::new(OP, LANES);
    let rmw_ns = per_call_ns(lanes.len(), || {
        for &lane in &lanes {
            black_box(store.rmw_lane(lane, 1));
        }
    });
    let mut partial = LineData::identity(OP);
    for word in 0..store.lanes_per_line() {
        partial.apply_update(OP, word * 8, 1);
    }
    let reduce_line_ns = per_call_ns(store.num_lines() * 64, || {
        for _ in 0..64 {
            for line in 0..store.num_lines() {
                black_box(store.reduce_line(line, &partial));
            }
        }
    });

    // The runtime facade: a push that does not publish (the batch holds
    // 256, so 255 pushes after a flush stay in the handle), and exact reads
    // through a handle against the same two-writer state as read_ns_k2.
    let pushes = RuntimeBuilder::new(OP, LANES).workers(2).build();
    let mut handle = pushes.handle();
    let push_ns = {
        let times: Vec<f64> = (0..BLOCKS)
            .map(|_| {
                handle.flush();
                let t0 = Instant::now();
                for &lane in &lanes[..255] {
                    handle.push(black_box(lane), 1);
                }
                t0.elapsed().as_nanos() as f64 / 255.0
            })
            .collect();
        median(&times)
    };
    drop(handle);
    let snapshot_us = per_call_ns(1, || {
        black_box(pushes.metrics());
    }) / 1e3;
    drop(pushes.shutdown());

    // Telemetry on/off pairs, interleaved so drift hits both sides alike.
    let on = runtime_with_two_writers(TelemetryConfig::default());
    let off = runtime_with_two_writers(TelemetryConfig::disabled());
    let (mut read_on, mut read_off) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        read_on.push(facade_read_ns(&on));
        read_off.push(facade_read_ns(&off));
    }
    let facade_read = median(&read_on);
    drop(on.shutdown());
    drop(off.shutdown());

    vec![
        Metric::new("loadgen.clock_ns", "ns", clock_ns),
        Metric::new("backend.update_ns", "ns", update_ns),
        Metric::new("backend.flush_ns", "ns", flush_ns),
        Metric::new("backend.read_ns_k1", "ns", read_k1),
        Metric::new("backend.read_ns_k2", "ns", read_k2),
        Metric::new("backend.read_stale_ns", "ns", read_stale_ns),
        Metric::new("store.rmw_ns", "ns", rmw_ns),
        Metric::new("store.reduce_line_ns", "ns", reduce_line_ns),
        Metric::new("runtime.push_ns", "ns", push_ns),
        Metric::new("runtime.read_overhead_ns", "ns", facade_read - read_k2),
        Metric::new(
            "telemetry.read_overhead_ns",
            "ns",
            facade_read - median(&read_off),
        ),
        Metric::new("telemetry.snapshot_us", "us", snapshot_us),
        Metric::new(
            "engine.job_overhead_us",
            "us",
            crate::kernels::job_overhead_us(BLOCKS),
        ),
    ]
}
