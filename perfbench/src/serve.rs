//! `serve`: open loop. One generator thread sends fixed-size ticks on a
//! fixed schedule, well under capacity, into a runtime with two resident
//! workers. Each tick is 30% reads (half exact `read`, half `read_stale`)
//! and 70% pushes, spread over the first half of the tick period, then one
//! visibility marker: a push to a dedicated lane, `flush`, and exact reads
//! until the marker shows. Every read is timed from when it was due, so a
//! stalled generator shows as latency, not as a lower rate; the marker is
//! timed from its push, and the generator's lateness is reported apart. The
//! exact-read fold, the stale walk and the park/wake path set the latency;
//! apply work is small.

use std::time::{Duration, Instant};

use coup_protocol::ops::CommutativeOp;
use coup_runtime::{splitmix64, CoupRuntime, LaneHandle, LaneSampler, RuntimeBuilder};

use crate::outcome::{Budget, Outcome, Timing};
use crate::report::{count_mismatch, Metric};
use crate::stats::Samples;
use crate::trace::{LocalSpans, Tracer};

/// Data lanes; the marker lane sits after them.
pub const LANES: usize = 64;
const MARKER: usize = LANES;
pub const WORKERS: usize = 2;
pub const TICK_OPS: usize = 256;
pub const OFFERED_OPS_PER_S: f64 = 2_000_000.0;
/// Out of 1000 ops: `< EXACT` exact reads, `< STALE` stale reads, the rest
/// pushes.
const EXACT: u64 = 150;
const STALE: u64 = 300;
/// A marker not visible after this long counts as a failed op.
const MARKER_LIMIT: Duration = Duration::from_millis(50);
/// One stale read in this many is checked against exact reads around it.
const SANDWICH_EVERY: u64 = 16;
/// Per-call samples are kept from one tick in this many (every tick is
/// timed the same way), so the samples do not dominate the process's
/// memory.
const KEEP_EVERY: u64 = 16;
/// In a traced run, every op of one tick in this many gets a span.
const TRACE_EVERY: u64 = 8;
const WARM_TICKS: u64 = 500;
const YIELD_ABOVE: Duration = Duration::from_micros(5);
const OP: CommutativeOp = CommutativeOp::AddU64;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Exact,
    Stale,
    Push,
}

/// The seed's operation stream; replaying it gives the expected snapshot.
struct Stream {
    state: u64,
    sampler: LaneSampler,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream {
            state: seed ^ 0x5E87_E000_0000_0001,
            sampler: LaneSampler::new(LANES, 0.0),
        }
    }

    fn next(&mut self) -> (Kind, usize) {
        let r = splitmix64(&mut self.state);
        let kind = match r % 1000 {
            x if x < EXACT => Kind::Exact,
            x if x < STALE => Kind::Stale,
            _ => Kind::Push,
        };
        (kind, self.sampler.lane(r))
    }

    /// The snapshot `ticks` ticks of this stream must leave behind.
    fn expected(seed: u64, ticks: u64) -> Vec<u64> {
        let mut stream = Stream::new(seed);
        let mut lanes = vec![0u64; LANES + 1];
        for _ in 0..ticks * TICK_OPS as u64 {
            if let (Kind::Push, lane) = stream.next() {
                lanes[lane] += 1;
            }
        }
        lanes[MARKER] = ticks;
        lanes
    }
}

/// Waits for `due`. Long waits yield the CPU, so a resident worker woken on
/// the generator's CPU runs at once instead of preempting a later op.
fn spin_until(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        if due - now > YIELD_ABOVE {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Latencies a tick produced, plus what went wrong in it.
#[derive(Default)]
struct Rec {
    exact_ns: Vec<f64>,
    stale_ns: Vec<f64>,
    visibility_us: Vec<f64>,
    marker_wait_us: Vec<f64>,
    flush_ns: Vec<f64>,
    late_us: Vec<f64>,
    violations: u64,
    lost_markers: u64,
    sandwiches: u64,
}

struct Generator {
    stream: Stream,
    handle: LaneHandle,
    markers: u64,
    stale_seen: u64,
}

impl Generator {
    /// Runs one tick. With a `due` time the ops follow the schedule and are
    /// timed into `rec`; without one (warm-up) they run back to back.
    fn tick(
        &mut self,
        due: Option<(Instant, Duration)>,
        rec: &mut Rec,
        keep: bool,
        mut spans: Option<(&mut LocalSpans<'_>, u64, u64)>,
    ) {
        let mut span = |name: &'static str, t0: Instant, t1: Instant| {
            if let Some((local, parent, group)) = spans.as_mut() {
                local.record(name, *parent, *group, t0, t1);
            }
        };
        for i in 0..TICK_OPS {
            let (kind, lane) = self.stream.next();
            let op_due = due.map(|(start, spacing)| start + spacing * i as u32);
            let t0 = op_due.map_or_else(Instant::now, spin_until);
            if i == 0 {
                if let Some(d) = op_due {
                    rec.late_us.push((t0 - d).as_secs_f64() * 1e6);
                }
            }
            let from = op_due.unwrap_or(t0);
            match kind {
                Kind::Push => {
                    self.handle.push(lane, 1);
                    if i % 32 == 0 {
                        span("push", t0, Instant::now());
                    }
                }
                Kind::Exact => {
                    std::hint::black_box(self.handle.read(lane));
                    let t1 = Instant::now();
                    if keep {
                        rec.exact_ns.push((t1 - from).as_nanos() as f64);
                    }
                    span("read", t0, t1);
                }
                Kind::Stale => {
                    self.stale_seen += 1;
                    if self.stale_seen.is_multiple_of(SANDWICH_EVERY) {
                        // exact_before <= value + staleness, value <= exact_after
                        let before = self.handle.read(lane);
                        let stale = self.handle.read_stale(lane);
                        let after = self.handle.read(lane);
                        rec.sandwiches += 1;
                        if before > stale.value.saturating_add(stale.staleness)
                            || stale.value > after
                        {
                            rec.violations += 1;
                        }
                    } else {
                        std::hint::black_box(self.handle.read_stale(lane));
                        let t1 = Instant::now();
                        if keep {
                            rec.stale_ns.push((t1 - from).as_nanos() as f64);
                        }
                        span("read_stale", t0, t1);
                    }
                }
            }
        }
        let marker_due = due.map(|(start, spacing)| start + spacing * TICK_OPS as u32);
        let t0 = marker_due.map_or_else(Instant::now, spin_until);
        self.handle.push(MARKER, 1);
        self.markers += 1;
        self.handle.flush();
        let flushed = Instant::now();
        let visible = loop {
            if self.handle.read(MARKER) >= self.markers {
                break Some(Instant::now());
            }
            if flushed.elapsed() > MARKER_LIMIT {
                break None;
            }
        };
        let Some(visible) = visible else {
            rec.lost_markers += 1;
            return;
        };
        if due.is_some() {
            rec.visibility_us.push((visible - t0).as_secs_f64() * 1e6);
            rec.flush_ns.push((flushed - t0).as_nanos() as f64);
            rec.marker_wait_us
                .push((visible - flushed).as_secs_f64() * 1e6);
        }
        span("flush", t0, flushed);
        span("marker_wait", flushed, visible);
    }
}

fn build() -> (CoupRuntime, LaneHandle) {
    let runtime = RuntimeBuilder::new(OP, LANES + 1).workers(WORKERS).build();
    let handle = runtime.handle();
    (runtime, handle)
}

pub fn run(seed: u64, budget: Budget, tracer: Option<&Tracer>) -> Outcome {
    let mut local = tracer.map(|t| t.local(0));
    let mut out = Outcome::default();
    let mut rec = Rec::default();
    let mut kept = None;
    let setups = budget.setups.max(1);
    for rep in 0..setups {
        let t0 = Instant::now();
        let (runtime, handle) = build();
        let mut gen = Generator {
            stream: Stream::new(seed),
            handle,
            markers: 0,
            stale_seen: 0,
        };
        for _ in 0..WARM_TICKS {
            gen.tick(None, &mut rec, false, None);
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(l) = local.as_mut() {
            l.record("setup", 0, 0, t0, Instant::now());
        }
        out.attempted += WARM_TICKS * (TICK_OPS as u64 + 1);
        if rep + 1 < setups {
            drop(gen.handle);
            let snapshot = runtime.shutdown().snapshot;
            out.failed += count_mismatch(&snapshot, &Stream::expected(seed, WARM_TICKS));
        } else {
            kept = Some((runtime, gen));
        }
    }
    let (runtime, mut gen) = kept.expect("at least one set-up ran");

    let period = Duration::from_secs_f64(TICK_OPS as f64 / OFFERED_OPS_PER_S);
    let spacing = period / 2 / TICK_OPS as u32;
    let ticks = ((budget.seconds / period.as_secs_f64()) as u64).max(budget.min_tasks as u64);
    let before = runtime.metrics();
    let start = Instant::now() + Duration::from_micros(100);
    for n in 0..ticks {
        let due = start + period * n as u32;
        let group = n + 1;
        let id = tracer.map_or(0, Tracer::next_id);
        let spans = if n % TRACE_EVERY == 0 {
            local.as_mut().map(|l| (l, id, group))
        } else {
            None
        };
        gen.tick(Some((due, spacing)), &mut rec, n % KEEP_EVERY == 0, spans);
        if let Some(l) = local.as_mut() {
            let done = Instant::now();
            l.record_as(id, "tick", 0, group, due, done);
            // The generator waits out the rest of the period.
            l.record("idle", 0, group, done, (due + period).max(done));
        }
    }
    let elapsed = start.elapsed();
    let phase = runtime.metrics().since(&before);
    let total_ticks = WARM_TICKS + ticks;
    let Generator { handle, .. } = gen;
    drop(handle);
    let t_shutdown = Instant::now();
    let snapshot = runtime.shutdown().snapshot;
    if let Some(l) = local.as_mut() {
        l.record("runtime.shutdown", 0, 0, t_shutdown, Instant::now());
    }
    out.failed += count_mismatch(&snapshot, &Stream::expected(seed, total_ticks));
    out.failed += rec.violations + rec.lost_markers;
    out.attempted += ticks * (TICK_OPS as u64 + 1);

    // The schedule's length over the time the ticks really took.
    let achieved_frac = (period * ticks as u32).as_secs_f64() / elapsed.as_secs_f64();
    if achieved_frac < 0.95 {
        out.flags.push(format!(
            "serve: achieved {:.1}% of the offered rate; latencies of this run include generator stalls",
            achieved_frac * 100.0
        ));
    }
    if rec.lost_markers > 0 {
        out.flags.push(format!(
            "serve: {} markers never became visible within {MARKER_LIMIT:?}",
            rec.lost_markers
        ));
    }

    out.task_ms = Samples::new(rec.visibility_us.iter().map(|us| us / 1e3).collect());
    let visibility = Samples::new(rec.visibility_us);
    let flush_ns = Samples::new(rec.flush_ns);
    let marker_wait = Samples::new(rec.marker_wait_us);
    let late = Samples::new(rec.late_us);
    if tracer.is_some() {
        let reads = phase.read_cost.reads.max(1) as f64;
        out.layer = vec![
            Metric::new("runtime.flush_ns_p50", "ns", flush_ns.median()),
            Metric::new("runtime.marker_wait_us_p50", "us", marker_wait.median()),
            Metric::new(
                "backend.read_words_per_read",
                "words",
                phase.read_cost.buffer_words as f64 / reads,
            ),
            Metric::new(
                "backend.retries_per_kread",
                "count",
                phase.read_cost.retries as f64 / reads * 1e3,
            ),
            Metric::new(
                "backend.escalations",
                "count",
                phase.read_cost.escalations as f64,
            ),
            Metric::new("serve.visibility_p99_us", "us", visibility.pct(99.0)),
            Metric::new("loadgen.late_p99_us", "us", late.pct(99.0)),
            Metric::new("loadgen.achieved_rate_frac", "ratio", achieved_frac),
        ];
    }
    out.timings = vec![
        Timing {
            name: "visibility_us",
            unit: "us",
            samples: visibility,
            tail: 90.0,
        },
        Timing {
            name: "read_exact_ns",
            unit: "ns",
            samples: Samples::new(rec.exact_ns),
            tail: 99.0,
        },
        Timing {
            name: "read_stale_ns",
            unit: "ns",
            samples: Samples::new(rec.stale_ns),
            tail: 99.0,
        },
        Timing {
            name: "flush_ns",
            unit: "ns",
            samples: flush_ns,
            tail: 99.0,
        },
        Timing {
            name: "marker_wait_us",
            unit: "us",
            samples: marker_wait,
            tail: 99.0,
        },
        Timing {
            name: "late_us",
            unit: "us",
            samples: late,
            tail: 99.0,
        },
    ];
    out.flags.push(format!(
        "serve: {} ticks of {TICK_OPS} ops at {:.2} M ops/s offered ({:.3} of offered achieved), {} stale reads sandwich-checked",
        ticks,
        OFFERED_OPS_PER_S / 1e6,
        achieved_frac,
        rec.sandwiches
    ));
    out
}
