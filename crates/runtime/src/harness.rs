//! A self-contained contended-update microbenchmark driver over the service
//! facade.
//!
//! [`run_contended`] spawns *producer* threads that feed a [`CoupRuntime`]
//! through [`LaneHandle`](crate::LaneHandle)s — the service shape: producers
//! batch updates into their own SPSC shard rings, the runtime's resident
//! workers drain them into the backend, and the optional read admixture runs
//! synchronously on the producer threads. Because each producer's stream
//! depends only on `(seed, producer)`, the multiset of updates is identical
//! across runs, so for the non-floating-point operations two runtimes driven
//! with the same spec must end in exactly the same state — assert it with
//! [`CoupRuntime::snapshot`] (exact after the run, which drains the rings)
//! or against [`expected_counts`].
//!
//! Lane selection is uniform by default; [`ContendedSpec::zipf`] skews it
//! with a Zipfian distribution (the access pattern of real aggregation
//! workloads, where a few keys are hot and the tail is long) — the regime
//! where a small privatized buffer capacity covers most of the traffic.

use std::time::{Duration, Instant};

use coup_protocol::ops::CommutativeOp;

use crate::backend::{BufferStats, ReadCost};
use crate::runtime::CoupRuntime;
use crate::telemetry::MetricsSnapshot;

/// Which consistency tier the read admixture of a contended run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadTier {
    /// Exact reads through the O(active-writers) reduction path
    /// ([`crate::LaneHandle::read`]) — the default, and the only tier whose
    /// reads the sequential reference ([`expected_counts`]) models exactly.
    #[default]
    Exact,
    /// Relaxed reads ([`crate::LaneHandle::read_stale`]): the store word plus
    /// a staleness bound, no reductions, no read holds — the tier for
    /// read-heavy mixes that tolerate bounded staleness.
    Stale,
}

/// Parameters of one contended run.
#[derive(Debug, Clone, Copy)]
pub struct ContendedSpec {
    /// Number of shared lanes (small = high contention).
    pub lanes: usize,
    /// Updates issued per producer.
    pub updates_per_thread: usize,
    /// Out of every 1000 operations, how many are reads.
    pub reads_per_1000: u32,
    /// Stream seed; combined with the producer index.
    pub seed: u64,
    /// Zipf skew exponent over the lanes: `0.0` (the default) is uniform;
    /// larger values concentrate traffic on the low-numbered lanes
    /// (`theta ≈ 0.99` is the YCSB-style default for skewed key popularity).
    pub theta: f64,
    /// Which tier serves the read admixture ([`ReadTier::Exact`] by
    /// default). The update stream — and therefore the final snapshot — is
    /// identical across tiers; only the read path changes.
    pub read_tier: ReadTier,
}

impl ContendedSpec {
    /// A high-contention histogram-like default: 64 lanes, updates only,
    /// uniform lane selection.
    #[must_use]
    pub fn contended(updates_per_thread: usize) -> Self {
        ContendedSpec {
            lanes: 64,
            updates_per_thread,
            reads_per_1000: 0,
            seed: 0x5EED,
            theta: 0.0,
            read_tier: ReadTier::Exact,
        }
    }

    /// Same, with `reads_per_1000` reads mixed in.
    #[must_use]
    pub fn with_reads(mut self, reads_per_1000: u32) -> Self {
        self.reads_per_1000 = reads_per_1000.min(1000);
        self
    }

    /// Selects the consistency tier of the read admixture (default
    /// [`ReadTier::Exact`]).
    #[must_use]
    pub fn with_read_tier(mut self, read_tier: ReadTier) -> Self {
        self.read_tier = read_tier;
        self
    }

    /// Skews lane selection with a Zipfian distribution of exponent
    /// `theta` (lane `i` drawn with probability ∝ `1/(i+1)^theta`;
    /// `0.0` restores the uniform default).
    ///
    /// # Panics
    ///
    /// Panics if `theta` is negative or not finite.
    #[must_use]
    pub fn zipf(mut self, theta: f64) -> Self {
        assert!(
            theta.is_finite() && theta >= 0.0,
            "zipf exponent must be finite and non-negative, got {theta}"
        );
        self.theta = theta;
        self
    }

    /// The lane sampler this spec's `lanes`/`theta` describe.
    #[must_use]
    pub fn sampler(&self) -> LaneSampler {
        LaneSampler::new(self.lanes, self.theta)
    }
}

/// Maps a 64-bit random draw onto a lane index — uniformly, or Zipf-skewed
/// via an inverse-CDF table. Both [`run_contended`] and [`expected_counts`]
/// sample through this type, so the reference computation replays the exact
/// same lane sequence the producers issued.
#[derive(Debug, Clone)]
pub enum LaneSampler {
    /// Every lane equally likely.
    Uniform {
        /// Number of lanes.
        lanes: usize,
    },
    /// Zipfian popularity: lane `i` with probability ∝ `1/(i+1)^theta`.
    Zipf {
        /// Cumulative distribution over the lanes; the last entry is 1.0.
        cdf: Vec<f64>,
    },
}

impl LaneSampler {
    /// A sampler over `lanes` lanes with Zipf exponent `theta` (`0.0` =
    /// uniform).
    #[must_use]
    pub fn new(lanes: usize, theta: f64) -> Self {
        assert!(lanes > 0, "sampler needs at least one lane");
        if theta == 0.0 {
            return LaneSampler::Uniform { lanes };
        }
        let mut cdf = Vec::with_capacity(lanes);
        let mut total = 0.0f64;
        for i in 0..lanes {
            total += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against the last entry rounding below a draw near 1.0.
        *cdf.last_mut().expect("lanes > 0") = 1.0;
        LaneSampler::Zipf { cdf }
    }

    /// The lane the 64-bit draw `r` selects.
    #[must_use]
    pub fn lane(&self, r: u64) -> usize {
        match self {
            LaneSampler::Uniform { lanes } => (r >> 32) as usize % lanes,
            LaneSampler::Zipf { cdf } => {
                // 53 high bits → a uniform draw in [0, 1).
                let u = (r >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let idx = cdf.partition_point(|&c| c <= u);
                idx.min(cdf.len() - 1)
            }
        }
    }
}

/// Wall-clock result of one contended run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputReport {
    /// Producer count of a harness run ([`run_contended`]) or resident
    /// worker count of a runtime-lifetime report
    /// ([`CoupRuntime::shutdown`](crate::CoupRuntime::shutdown)).
    pub threads: usize,
    /// Total updates applied (all producers).
    pub updates: u64,
    /// Total reads served (all producers).
    pub reads: u64,
    /// Wall-clock time of the whole run, including the final queue drain, so
    /// backends cannot hide work in batches or buffers.
    pub elapsed: Duration,
    /// Read-side cost counters accumulated during the run (all zero for
    /// backends whose reads are a single store load).
    pub read_cost: ReadCost,
    /// Privatized-buffer counters accumulated during the run — how many lines
    /// were privatized, capacity-evicted, and flushed (all zero for backends
    /// without privatized buffers).
    pub buffer_stats: BufferStats,
    /// The full telemetry snapshot covering the run (a
    /// [`MetricsSnapshot::since`] delta for phase reports, the lifetime
    /// snapshot for [`CoupRuntime::shutdown`](crate::CoupRuntime::shutdown)
    /// reports). `read_cost` / `buffer_stats` above are copies of its
    /// matching fields, kept for ergonomic access.
    pub metrics: MetricsSnapshot,
}

impl ThroughputReport {
    /// Millions of operations (updates + reads) per second of wall time.
    #[must_use]
    pub fn mops(&self) -> f64 {
        let ops = (self.updates + self.reads) as f64;
        ops / self.elapsed.as_secs_f64().max(1e-12) / 1e6
    }
}

/// Advances `state` and returns the next value of a SplitMix64 stream — the
/// deterministic per-producer operation stream generator the harness and
/// [`expected_counts`] share. Public so examples and external drivers can
/// replay the exact streams the harness issues.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `spec` against `runtime` with `producers` external producer threads
/// and reports throughput.
///
/// Each producer owns a [`LaneHandle`](crate::LaneHandle): updates batch
/// through the submission queue, reads run synchronously. The run ends at
/// quiescence — every producer flushed and the queue drained — so
/// `runtime.snapshot()` afterwards is exact and comparable against
/// [`expected_counts`]. The per-producer operation stream is deterministic
/// in `(spec.seed, producer)`, so the same spec on two runtimes applies the
/// same update multiset.
///
/// # Panics
///
/// Panics if `producers` is zero, the spec has no lanes, or the spec is
/// wider than the runtime.
pub fn run_contended(
    runtime: &CoupRuntime,
    producers: usize,
    spec: &ContendedSpec,
) -> ThroughputReport {
    assert!(producers > 0, "run needs at least one producer");
    assert!(spec.lanes > 0, "spec needs at least one lane");
    assert!(spec.lanes <= runtime.lanes(), "spec wider than backend");
    let sampler = spec.sampler();
    let before = runtime.metrics();
    let start = Instant::now();
    let reads: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..producers)
            .map(|producer| {
                let mut lanes = runtime.handle();
                let sampler = &sampler;
                scope.spawn(move || {
                    let mut state =
                        spec.seed ^ (producer as u64).wrapping_mul(0xA24B_AED4_963E_E407);
                    let mut reads = 0u64;
                    let mut checksum = 0u64;
                    for _ in 0..spec.updates_per_thread {
                        let r = splitmix64(&mut state);
                        let lane = sampler.lane(r);
                        if r % 1000 < u64::from(spec.reads_per_1000) {
                            checksum = checksum.wrapping_add(match spec.read_tier {
                                ReadTier::Exact => lanes.read(lane),
                                ReadTier::Stale => lanes.read_stale(lane).value,
                            });
                            reads += 1;
                        } else {
                            lanes.push(lane, 1);
                        }
                    }
                    lanes.flush();
                    std::hint::black_box(checksum);
                    reads
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(reads) => reads,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .sum()
    });
    runtime.drain();
    let elapsed = start.elapsed();
    let metrics = runtime.metrics().since(&before);
    ThroughputReport {
        threads: producers,
        updates: producers as u64 * spec.updates_per_thread as u64 - reads,
        reads,
        elapsed,
        read_cost: metrics.read_cost,
        buffer_stats: metrics.buffer_stats,
        metrics,
    }
}

/// The sequential reference result of `spec`: what every backend must hold at
/// quiescence for a wrap-around (non-floating-point) add.
#[must_use]
pub fn expected_counts(spec: &ContendedSpec, producers: usize, op: CommutativeOp) -> Vec<u64> {
    let sampler = spec.sampler();
    let mut lanes = vec![0u64; spec.lanes];
    for producer in 0..producers {
        let mut state = spec.seed ^ (producer as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        for _ in 0..spec.updates_per_thread {
            let r = splitmix64(&mut state);
            let lane = sampler.lane(r);
            if r % 1000 >= u64::from(spec.reads_per_1000) {
                lanes[lane] = op.apply_lane(lanes[lane], 1);
            }
        }
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{BackendKind, RuntimeBuilder};

    #[test]
    fn runtimes_match_the_sequential_reference() {
        let op = CommutativeOp::AddU64;
        let spec = ContendedSpec {
            lanes: 16,
            updates_per_thread: 5_000,
            reads_per_1000: 50,
            seed: 9,
            theta: 0.0,
            read_tier: ReadTier::Exact,
        };
        let producers = 4;
        let atomic = RuntimeBuilder::new(op, spec.lanes)
            .backend(BackendKind::Atomic)
            .workers(2)
            .build();
        let coup = RuntimeBuilder::new(op, spec.lanes).workers(2).build();
        let ra = run_contended(&atomic, producers, &spec);
        let rc = run_contended(&coup, producers, &spec);
        let want = expected_counts(&spec, producers, op);
        assert_eq!(atomic.snapshot(), want);
        assert_eq!(coup.snapshot(), want);
        assert_eq!(
            ra.updates + ra.reads,
            (producers * spec.updates_per_thread) as u64
        );
        assert_eq!(ra.updates, rc.updates, "same streams, same mix");
        assert!(ra.mops() > 0.0 && rc.mops() > 0.0);
        assert_eq!(
            ra.read_cost,
            crate::backend::ReadCost::default(),
            "atomic reads are plain loads"
        );
        assert_eq!(
            rc.read_cost.reads, rc.reads,
            "every coup read of the run is accounted"
        );
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lane_spec_panics_with_an_accurate_message() {
        let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, 4)
            .backend(BackendKind::Atomic)
            .build();
        let spec = ContendedSpec {
            lanes: 0,
            updates_per_thread: 1,
            reads_per_1000: 0,
            seed: 1,
            theta: 0.0,
            read_tier: ReadTier::Exact,
        };
        run_contended(&runtime, 1, &spec);
    }

    #[test]
    #[should_panic(expected = "wider than backend")]
    fn too_wide_spec_panics_with_an_accurate_message() {
        let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, 4)
            .backend(BackendKind::Atomic)
            .build();
        let spec = ContendedSpec {
            lanes: 8,
            updates_per_thread: 1,
            reads_per_1000: 0,
            seed: 1,
            theta: 0.0,
            read_tier: ReadTier::Exact,
        };
        run_contended(&runtime, 1, &spec);
    }

    #[test]
    fn stale_tier_preserves_the_update_stream_and_skips_reductions() {
        let op = CommutativeOp::AddU64;
        let spec = ContendedSpec::contended(3_000)
            .with_reads(300)
            .with_read_tier(ReadTier::Stale);
        let producers = 4;
        let coup = RuntimeBuilder::new(op, spec.lanes).workers(2).build();
        let report = run_contended(&coup, producers, &spec);
        // The update multiset is tier-independent: the final state still
        // matches the sequential reference exactly.
        assert_eq!(coup.snapshot(), expected_counts(&spec, producers, op));
        assert!(report.reads > 0);
        // Stale reads never enter the reduction path: zero read-side cost
        // for the whole run, and every read accounted as a stale read.
        assert_eq!(
            report.read_cost,
            crate::backend::ReadCost::default(),
            "stale reads must bypass reductions"
        );
        assert_eq!(report.metrics.stale_reads, report.reads);
        // The staleness histogram is compiled out without `telemetry`.
        let recorded = if cfg!(feature = "telemetry") {
            report.reads
        } else {
            0
        };
        assert_eq!(report.metrics.staleness.count(), recorded);
    }

    #[test]
    fn sub_word_lanes_match_too() {
        let op = CommutativeOp::AddU32;
        let spec = ContendedSpec::contended(3_000).with_reads(20);
        let producers = 3;
        let coup = RuntimeBuilder::new(op, spec.lanes).workers(2).build();
        run_contended(&coup, producers, &spec);
        assert_eq!(coup.snapshot(), expected_counts(&spec, producers, op));
    }

    #[test]
    fn zipf_skews_traffic_toward_low_lanes() {
        let sampler = LaneSampler::new(64, 0.99);
        let mut counts = vec![0u64; 64];
        let mut state = 0xBEEF_u64;
        for _ in 0..200_000 {
            counts[sampler.lane(splitmix64(&mut state))] += 1;
        }
        assert!(
            counts[0] > counts[32] && counts[0] > counts[63],
            "lane 0 must be the hottest: {counts:?}"
        );
        // Zipf(0.99) over 64 lanes: the head has a large share; the first
        // eight lanes should carry more than a third of the traffic.
        let head: u64 = counts[..8].iter().sum();
        assert!(head * 3 > 200_000, "head share too small: {head}");
        // Every lane is still reachable.
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn zipf_spec_still_matches_the_sequential_reference() {
        let op = CommutativeOp::AddU64;
        let spec = ContendedSpec::contended(4_000).with_reads(10).zipf(0.99);
        let producers = 3;
        let coup = RuntimeBuilder::new(op, spec.lanes).workers(2).build();
        run_contended(&coup, producers, &spec);
        let want = expected_counts(&spec, producers, op);
        assert_eq!(coup.snapshot(), want);
        // The skew must actually reach the lanes: lane 0 dominates.
        assert!(want[0] > want[63], "zipf reference not skewed: {want:?}");
    }

    #[test]
    fn uniform_sampler_preserves_the_historic_mapping() {
        // theta == 0.0 must keep the `(r >> 32) % lanes` mapping older specs
        // (and their recorded measurements) used.
        let sampler = LaneSampler::new(10, 0.0);
        for r in [0u64, 1 << 32, 7 << 32, u64::MAX] {
            assert_eq!(sampler.lane(r), ((r >> 32) as usize) % 10);
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_zipf_exponent_is_rejected() {
        let _ = ContendedSpec::contended(1).zipf(-1.0);
    }
}
