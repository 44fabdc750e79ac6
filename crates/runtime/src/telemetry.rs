//! Live telemetry: the runtime's one accounting path — per-owner counter
//! blocks, consistent snapshots, and machine-readable exporters.
//!
//! Every runtime counter is a commutative update, so the registry keeps
//! them the way COUP keeps a contended lane: each owner bumps a private,
//! cache-line-aligned block and an observer reduces the blocks on read.
//! A block has one writer at a time, which bumps a word with a relaxed load
//! plus a relaxed store — no lock prefix, no line shared with another
//! writer. [`TelemetryRegistry::metrics`] folds every block into a
//! [`MetricsSnapshot`] with no stop-the-world, so every counter in it is
//! individually monotone between observations.
//!
//! Who owns a block:
//!
//! * worker block `t` has exactly one writer at a time: resident worker
//!   `t`, or the job thread that takes identity `t` during a
//!   [`crate::CoupRuntime::run_workers`] job. The job joins the resident
//!   worker before its thread starts and respawns it after the job thread
//!   ends, so thread join and spawn order the hand-offs;
//! * a submission handle takes a block from the registry's pool on its
//!   first read or first full-ring park and hands it back on drop, and a
//!   facade read ([`crate::CoupRuntime::read`]) borrows one for the call.
//!   The pool mutex is the hand-off edge between successive owners, so a
//!   recycled block keeps counting from where its last owner stopped.
//!
//! A read with no owner — a backend read on behalf of a thread outside
//! `0..threads`, such as the reads [`crate::UpdateBackend::snapshot`]
//! issues — is served and left uncounted.
//!
//! The plain counters (read costs, buffer life-cycle, handle and stale
//! reads) are always kept, because every report carries them. Histograms,
//! park counts and the event trace ([`crate::trace`]) are gated twice: the
//! runtime kill-switch ([`TelemetryConfig::enabled`]) skips them behind one
//! branch, and building without the `telemetry` cargo feature removes them
//! — the zero-cost compile-out path — while [`MetricsSnapshot`], the
//! [`Merge`] trait, and both exporters stay available so reports keep the
//! same shape (histograms all zero).

use std::sync::Arc;
use std::time::Instant;

use crate::backend::{BufferStats, ReadCost};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Mutex, MutexGuard};
use crate::trace::{TraceEvent, TraceKind};

/// The Acquire on the fold's `evictions` load. The `coup_model_mutation`
/// lane weakens it to prove the model suite has teeth: the publish side
/// ([`Counter::add_release`]) is doubly covered — the migrate fence already
/// orders the owner's `privatized` bump before it — so weakening *it*
/// changes nothing observable, and the mutation attacks this singly covered
/// fold side instead. Production builds always resolve to Acquire.
#[cfg(not(coup_model_mutation))]
const EVICTION_FOLD: Ordering = Ordering::Acquire; // ord: evict-stats
#[cfg(coup_model_mutation)]
const EVICTION_FOLD: Ordering = Ordering::Relaxed;

/// Number of buckets in every fixed-bucket histogram.
///
/// Bucket `i` (for `1 <= i < 15`) holds values in `[2^(i-1), 2^i - 1]`;
/// bucket 0 holds exactly 0 and bucket 15 is the unbounded tail. Power-of-
/// two buckets make recording a `leading_zeros` plus one counter bump.
pub const HIST_BUCKETS: usize = 16;

/// Merging for per-run counter aggregates.
///
/// [`HistogramSnapshot`], [`MetricsSnapshot`], and the workload executor's
/// per-worker counts fold through this one trait.
pub trait Merge {
    /// Accumulates `other` into `self` field by field.
    fn merge(&mut self, other: &Self);
}

/// Maps a recorded value to its histogram bucket.
#[inline]
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
pub(crate) fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

/// A point-in-time copy of one fixed-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (non-cumulative).
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of every recorded value.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Inclusive upper bound of bucket `index`, or `None` for the unbounded
    /// tail bucket (rendered as `+Inf` by the Prometheus exporter).
    pub fn bucket_upper_bound(index: usize) -> Option<u64> {
        if index + 1 < HIST_BUCKETS {
            Some((1u64 << index) - 1)
        } else {
            None
        }
    }

    /// The delta histogram since `base` (per-bucket saturating subtract).
    pub fn since(&self, base: &Self) -> Self {
        let mut delta = *self;
        for (bucket, earlier) in delta.buckets.iter_mut().zip(base.buckets.iter()) {
            *bucket = bucket.saturating_sub(*earlier);
        }
        delta.sum = delta.sum.saturating_sub(base.sum);
        delta
    }
}

impl Merge for HistogramSnapshot {
    fn merge(&mut self, other: &Self) {
        for (bucket, extra) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *bucket += extra;
        }
        self.sum += other.sum;
    }
}

/// Configuration for the telemetry registry, set on
/// [`crate::RuntimeBuilder::telemetry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Runtime kill-switch: when false the registry records no histograms,
    /// park counts or trace events — each site is one predictable branch —
    /// and allocates no trace rings. The plain counters every report
    /// carries still flow. (The `telemetry` cargo feature removes even that
    /// branch at compile time.)
    pub enabled: bool,
    /// Per-worker trace-ring capacity in events, rounded up to a power of
    /// two; 0 disables event tracing while keeping the histograms.
    pub trace_capacity: usize,
    /// Trace sampling rate: record every `2^sample_shift`-th event per
    /// worker. 0 records everything.
    pub sample_shift: u32,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            trace_capacity: 1024,
            sample_shift: 0,
        }
    }
}

impl TelemetryConfig {
    /// Everything optional off at runtime: no histograms, no park counts,
    /// no trace rings.
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            trace_capacity: 0,
            sample_shift: 0,
        }
    }
}

/// One counter word of a [`Block`]. The block's owner is its only writer,
/// so a bump is a relaxed load plus a relaxed store: no lock prefix, and
/// the line stays in the owner's cache between bumps.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`. Only the block's owner may call this.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.0
            .store(self.0.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// Adds `n` with a Release store: the eviction-count publish, so an
    /// observer that Acquires the new count ([`EVICTION_FOLD`]) also sees
    /// the owner's earlier `privatized` bump. Only the block's owner may
    /// call this.
    #[inline]
    pub(crate) fn add_release(&self, n: u64) {
        let count = self.0.load(Ordering::Relaxed) + n;
        self.0.store(count, Ordering::Release); // ord: evict-stats
    }

    /// The current count; any thread may observe it.
    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of owner-written counters: recording is
/// `leading_zeros` plus one bucket bump, and a sum bump for a non-zero
/// value.
#[cfg(feature = "telemetry")]
#[derive(Debug, Default)]
pub(crate) struct Histogram {
    buckets: [Counter; HIST_BUCKETS],
    sum: Counter,
}

#[cfg(feature = "telemetry")]
impl Histogram {
    #[inline]
    pub(crate) fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].add(1);
        if value != 0 {
            self.sum.add(value);
        }
    }
}

/// One owner's counters, padded to cache lines so no two owners' bumps
/// share a line, and written by one thread at a time (see the module
/// docs). The histograms exist only with the `telemetry` feature; they and
/// the park counts are bumped only while the kill-switch is on.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Block {
    pub(crate) reads: Counter,
    pub(crate) buffer_words: Counter,
    pub(crate) retries: Counter,
    pub(crate) escalations: Counter,
    pub(crate) privatized: Counter,
    /// Published with [`Counter::add_release`] after the `privatized` bump.
    pub(crate) evictions: Counter,
    pub(crate) flushes: Counter,
    pub(crate) held_bypasses: Counter,
    pub(crate) handle_reads: Counter,
    pub(crate) stale_reads: Counter,
    queue_parks: Counter,
    queue_unparks: Counter,
    /// In [`HIST_META`] order; see [`hist`].
    #[cfg(feature = "telemetry")]
    hists: [Histogram; HIST_COUNT],
}

/// Indices of [`Block`]'s histograms, in [`HIST_META`] order.
pub(crate) mod hist {
    pub(crate) const READ_WIDTH: usize = 0;
    pub(crate) const READ_RETRIES: usize = 1;
    pub(crate) const QUEUE_DWELL_US: usize = 2;
    pub(crate) const BATCH_SIZE: usize = 3;
    pub(crate) const OCCUPANCY: usize = 4;
    pub(crate) const FLUSH_WORDS: usize = 5;
    pub(crate) const STALENESS: usize = 6;
}

impl Block {
    /// Adds this block's counts into `snap`; `gated` also folds the
    /// histograms.
    fn fold_into(&self, snap: &mut MetricsSnapshot, gated: bool) {
        // Acquire the eviction count *before* loading `privatized`: the
        // owner bumps `privatized` first and publishes the eviction with
        // Release, so every eviction this load observes has its claim in
        // the `privatized` load below — `evictions ≤ privatized` holds for
        // any observer, mid-run included. Mutation lane weakens this
        // Acquire; the stats-invariant model test catches the
        // `evictions > privatized` observation that admits.
        // ord: evict-stats
        snap.buffer_stats.evictions += self.evictions.0.load(EVICTION_FOLD);
        snap.buffer_stats.privatized += self.privatized.get();
        snap.buffer_stats.flushes += self.flushes.get();
        snap.buffer_stats.held_bypasses += self.held_bypasses.get();
        // Escalations before reads, the reverse of the owner's bump order.
        snap.read_cost.escalations += self.escalations.get();
        snap.read_cost.retries += self.retries.get();
        snap.read_cost.buffer_words += self.buffer_words.get();
        snap.read_cost.reads += self.reads.get();
        snap.handle_reads += self.handle_reads.get();
        snap.stale_reads += self.stale_reads.get();
        snap.queue_parks += self.queue_parks.get();
        snap.queue_unparks += self.queue_unparks.get();
        #[cfg(feature = "telemetry")]
        if gated {
            for (hist, out) in self.hists.iter().zip(snap.histogram_slots()) {
                for (bucket, count) in hist.buckets.iter().zip(out.buckets.iter_mut()) {
                    *count += bucket.get();
                }
                out.sum += hist.sum.get();
            }
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = gated;
    }
}

/// The blocks lent to handles and facade reads.
#[derive(Debug, Default)]
struct Pool {
    /// Every block ever lent, in first-lend order: the fold's view, so a
    /// returned block's counts stay in every later snapshot.
    all: Vec<Arc<Block>>,
    /// The lent-then-returned blocks no one holds right now.
    free: Vec<Arc<Block>>,
}

/// The metrics registry shared by a backend and its runtime: the worker
/// blocks, the handle-block pool, and (with telemetry on) the trace rings.
///
/// Created once per [`crate::CoupRuntime`] (or implicitly per standalone
/// [`crate::CoupBackend`]) and shared via `Arc`; recording methods are
/// crate-internal, observation goes through [`TelemetryRegistry::metrics`]
/// — or, on a runtime, [`crate::CoupRuntime::metrics`] /
/// [`crate::TelemetryHandle`], which add the submission counters.
pub struct TelemetryRegistry {
    config: TelemetryConfig,
    anchor: Instant,
    /// Block `t` belongs to worker identity `t`.
    workers: Box<[Block]>,
    pool: Mutex<Pool>,
    /// One ring per worker; empty when tracing is off.
    #[cfg(feature = "telemetry")]
    rings: Box<[crate::trace::TraceRing]>,
    #[cfg(feature = "telemetry")]
    sample_mask: u64,
}

impl std::fmt::Debug for TelemetryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryRegistry")
            .field("config", &self.config)
            .field("enabled", &self.is_enabled())
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl TelemetryRegistry {
    /// Builds a registry with one padded counter block (and, if tracing is
    /// on, one trace ring) per worker.
    pub fn new(workers: usize, config: TelemetryConfig) -> Self {
        #[cfg(feature = "telemetry")]
        let trace = config.enabled && config.trace_capacity > 0;
        TelemetryRegistry {
            config,
            anchor: Instant::now(),
            workers: (0..workers).map(|_| Block::default()).collect(),
            pool: Mutex::new(Pool::default()),
            #[cfg(feature = "telemetry")]
            rings: (0..if trace { workers } else { 0 })
                .map(|_| crate::trace::TraceRing::new(config.trace_capacity))
                .collect(),
            #[cfg(feature = "telemetry")]
            sample_mask: (1u64 << config.sample_shift.min(63)) - 1,
        }
    }

    /// The configuration this registry was built with.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// True when histograms, park counts and traces are recorded: the
    /// `telemetry` cargo feature is compiled in *and* the runtime
    /// kill-switch is on. The plain counters are recorded either way.
    pub fn is_enabled(&self) -> bool {
        cfg!(feature = "telemetry") && self.config.enabled
    }

    /// Nanoseconds since this registry was created (monotonic clock); the
    /// timebase of every trace event timestamp.
    pub fn uptime_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Drains every un-drained trace event across all worker rings, merged
    /// and sorted by timestamp. Lossy by design: entries overwritten before
    /// a drain reached them are counted in
    /// [`MetricsSnapshot::trace_dropped`], not returned.
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        #[cfg(feature = "telemetry")]
        {
            let mut events = Vec::new();
            for ring in self.rings.iter() {
                ring.drain_into(&mut events);
            }
            events.sort_by_key(|event| (event.timestamp_ns, event.worker, event.seq));
            events
        }
        #[cfg(not(feature = "telemetry"))]
        {
            Vec::new()
        }
    }

    /// The registry's snapshot: every block folded — worker blocks, then
    /// every pool block ever lent — plus the trace totals and uptime. The
    /// submission counters are the runtime's to add. No stop-the-world:
    /// owners keep bumping while this sums their blocks.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            uptime_ns: self.uptime_ns(),
            ..MetricsSnapshot::default()
        };
        let pool = self.lock_pool();
        for block in self
            .workers
            .iter()
            .chain(pool.all.iter().map(|block| &**block))
        {
            // A switched-off registry's gated words are all zero: skip them.
            block.fold_into(&mut snap, self.is_enabled());
        }
        drop(pool);
        #[cfg(feature = "telemetry")]
        for ring in self.rings.iter() {
            snap.trace_recorded += ring.recorded();
            snap.trace_dropped += ring.dropped();
        }
        snap
    }

    /// The worker blocks; block `t` belongs to whoever holds identity `t`.
    #[inline]
    pub(crate) fn workers(&self) -> &[Block] {
        &self.workers
    }

    fn lock_pool(&self) -> MutexGuard<'_, Pool> {
        self.pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Lends a pool block — a returned one if any is free, else a new one.
    /// The caller is its only writer until it hands it back through
    /// [`TelemetryRegistry::give_back`]; the pool mutex orders the previous
    /// owner's last bump before the caller's first.
    pub(crate) fn lend(&self) -> Arc<Block> {
        let mut pool = self.lock_pool();
        match pool.free.pop() {
            Some(block) => block,
            None => {
                let block = Arc::new(Block::default());
                pool.all.push(Arc::clone(&block));
                block
            }
        }
    }

    /// Returns a block [`TelemetryRegistry::lend`] handed out. Its counts
    /// stay in every later snapshot.
    pub(crate) fn give_back(&self, block: Arc<Block>) {
        self.lock_pool().free.push(block);
    }

    /// Runs `f` with a pool block lent for the call: the owner of a read
    /// that has no handle of its own.
    pub(crate) fn with_lent_block<R>(&self, f: impl FnOnce(&Block) -> R) -> R {
        let block = self.lend();
        let result = f(&block);
        self.give_back(block);
        result
    }

    /// Records one exact read's cost into `block`. A zero-cost read (a
    /// backend whose reads are one store load) records nothing.
    #[inline]
    pub(crate) fn record_read(&self, block: &Block, cost: &ReadCost) {
        if cost.reads == 0 {
            return;
        }
        block.reads.add(cost.reads);
        for (counter, n) in [
            (&block.buffer_words, cost.buffer_words),
            (&block.retries, cost.retries),
            (&block.escalations, cost.escalations),
        ] {
            if n != 0 {
                counter.add(n);
            }
        }
        self.record(block, hist::READ_WIDTH, cost.buffer_words);
        self.record(block, hist::READ_RETRIES, cost.retries);
    }

    /// Records `value` into `block`'s histogram `which` (a [`hist`] index)
    /// while histograms are on.
    #[inline]
    pub(crate) fn record(&self, block: &Block, which: usize, value: u64) {
        #[cfg(feature = "telemetry")]
        if self.is_enabled() {
            block.hists[which].record(value);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (block, which, value);
    }

    /// Counts one park into `block` and traces it into worker `ring`'s
    /// ring.
    #[inline]
    pub(crate) fn record_park(&self, block: &Block, ring: usize) {
        if self.is_enabled() {
            block.queue_parks.add(1);
        }
        self.trace(ring, TraceKind::QueuePark, 0);
    }

    /// Counts one wake after a counted park and traces the unpark event.
    /// Every [`TelemetryRegistry::record_park`] whose sleeper actually slept
    /// is paired with exactly one `record_unpark` on the same block, so
    /// `queue_parks - queue_unparks` bounds the threads asleep right now.
    #[inline]
    pub(crate) fn record_unpark(&self, block: &Block, ring: usize) {
        if self.is_enabled() {
            block.queue_unparks.add(1);
        }
        self.trace(ring, TraceKind::QueueUnpark, 0);
    }

    /// Records one structured trace event into worker `ring`'s ring,
    /// subject to the sampling rate. A recorder with no ring of its own (a
    /// handle read's escalation) is not traced; its counters still are.
    #[inline]
    pub(crate) fn trace(&self, ring: usize, kind: TraceKind, line: usize) {
        #[cfg(feature = "telemetry")]
        if let Some(target) = self.rings.get(ring) {
            if target.sample(self.sample_mask) {
                target.record(self.uptime_ns(), ring, kind, line);
            }
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (ring, kind, line);
    }
}

/// A consistent point-in-time view of every runtime counter, assembled by
/// [`crate::CoupRuntime::metrics`] (or carried on a
/// [`crate::ThroughputReport`]) with a per-worker sum — no stop-the-world.
///
/// Every field is individually monotone between observations on the same
/// runtime; [`MetricsSnapshot::since`] turns two observations into a phase
/// delta. The whole struct is `Copy` (fixed-size bucket arrays) so reports
/// stay cheap to pass around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Nanoseconds since the registry was created.
    pub uptime_ns: u64,
    /// Updates accepted into the submission queue.
    pub updates_submitted: u64,
    /// Updates applied to the backend by drainers and jobs.
    pub updates_applied: u64,
    /// Synchronous reads served through external handles.
    pub handle_reads: u64,
    /// Relaxed-tier reads served through the facade
    /// ([`crate::CoupRuntime::read_stale`] and its handle variants).
    pub stale_reads: u64,
    /// Parker sleeps: drainers on an empty stripe, producers on a full
    /// ring.
    pub queue_parks: u64,
    /// Wakes after a counted park; parks minus unparks bounds the threads
    /// currently asleep.
    pub queue_unparks: u64,
    /// Trace events recorded into the rings (post-sampling).
    pub trace_recorded: u64,
    /// Trace events lost to ring overwrite before a drain reached them.
    pub trace_dropped: u64,
    /// Merged read-path cost counters (reads, folded words, retries,
    /// escalations).
    pub read_cost: ReadCost,
    /// Merged buffer life-cycle counters (privatizations, evictions,
    /// flushes, held bypasses).
    pub buffer_stats: BufferStats,
    /// Buffer words folded per synchronous read.
    pub read_width: HistogramSnapshot,
    /// Validation retries burned per synchronous read.
    pub read_retries: HistogramSnapshot,
    /// Microseconds each popped batch spent queued.
    pub queue_dwell_us: HistogramSnapshot,
    /// Operations per popped batch.
    pub batch_size: HistogramSnapshot,
    /// Resident private lines at each privatization.
    pub occupancy: HistogramSnapshot,
    /// Non-identity words applied per slot migration.
    pub flush_words: HistogramSnapshot,
    /// Staleness bound returned per relaxed-tier read.
    pub staleness: HistogramSnapshot,
}

/// `(prometheus name, help text)` for every scalar counter, in the order of
/// [`MetricsSnapshot::counter_values`] / `counter_slots`.
const COUNTER_META: [(&str, &str); 17] = [
    (
        "coup_uptime_nanoseconds",
        "Nanoseconds since the telemetry registry was created.",
    ),
    (
        "coup_updates_submitted_total",
        "Updates accepted into the submission queue.",
    ),
    (
        "coup_updates_applied_total",
        "Updates applied to the backend by drainers and jobs.",
    ),
    (
        "coup_handle_reads_total",
        "Synchronous reads served through external handles.",
    ),
    (
        "coup_stale_reads_total",
        "Relaxed-tier reads served through the facade.",
    ),
    (
        "coup_queue_parks_total",
        "Parker sleeps: drainer on an empty stripe or producer on a full ring.",
    ),
    (
        "coup_queue_unparks_total",
        "Wakes after a counted park (pairs with coup_queue_parks_total).",
    ),
    (
        "coup_trace_events_recorded_total",
        "Trace events recorded into the per-worker rings.",
    ),
    (
        "coup_trace_events_dropped_total",
        "Trace events lost to ring overwrite before a drain.",
    ),
    (
        "coup_reads_total",
        "Synchronous reads served by the backend.",
    ),
    (
        "coup_read_buffer_words_total",
        "Private buffer words folded across all reads.",
    ),
    (
        "coup_read_retries_total",
        "Read validation retries (concurrent migrations).",
    ),
    (
        "coup_read_escalations_total",
        "Reads escalated to the read-hold slow path.",
    ),
    (
        "coup_lines_privatized_total",
        "Store lines claimed into private buffer slots.",
    ),
    (
        "coup_evictions_total",
        "Dirty victims migrated store-ward by capacity pressure.",
    ),
    (
        "coup_flushes_total",
        "Slot migrations into the store (threshold or explicit).",
    ),
    (
        "coup_held_bypasses_total",
        "Updates routed around read-held buffers via direct RMW.",
    ),
];

/// Number of distinct histogram series a [`MetricsSnapshot`] carries.
pub const HIST_COUNT: usize = 7;

/// `(prometheus name, help text)` for every histogram, in the order of
/// [`MetricsSnapshot::histograms`].
const HIST_META: [(&str, &str); HIST_COUNT] = [
    ("coup_read_width", "Buffer words folded per read."),
    ("coup_read_retries_per_read", "Validation retries per read."),
    (
        "coup_queue_dwell_microseconds",
        "Microseconds a batch spent queued before a drainer popped it.",
    ),
    ("coup_batch_size", "Operations per popped batch."),
    (
        "coup_buffer_occupancy",
        "Resident private lines at each privatization.",
    ),
    (
        "coup_flush_words",
        "Non-identity words applied per slot migration.",
    ),
    (
        "coup_staleness",
        "Staleness bound returned per relaxed-tier read.",
    ),
];

impl MetricsSnapshot {
    /// Scalar counter values in [`COUNTER_META`] order.
    fn counter_values(&self) -> [u64; 17] {
        let mut copy = *self;
        copy.counter_slots().map(|slot| *slot)
    }

    /// Mutable scalar counter slots in [`COUNTER_META`] order.
    fn counter_slots(&mut self) -> [&mut u64; 17] {
        [
            &mut self.uptime_ns,
            &mut self.updates_submitted,
            &mut self.updates_applied,
            &mut self.handle_reads,
            &mut self.stale_reads,
            &mut self.queue_parks,
            &mut self.queue_unparks,
            &mut self.trace_recorded,
            &mut self.trace_dropped,
            &mut self.read_cost.reads,
            &mut self.read_cost.buffer_words,
            &mut self.read_cost.retries,
            &mut self.read_cost.escalations,
            &mut self.buffer_stats.privatized,
            &mut self.buffer_stats.evictions,
            &mut self.buffer_stats.flushes,
            &mut self.buffer_stats.held_bypasses,
        ]
    }

    /// Histogram values in [`HIST_META`] order.
    fn histogram_values(&self) -> [HistogramSnapshot; HIST_COUNT] {
        let mut copy = *self;
        copy.histogram_slots().map(|slot| *slot)
    }

    /// Mutable histogram slots in [`HIST_META`] order.
    fn histogram_slots(&mut self) -> [&mut HistogramSnapshot; HIST_COUNT] {
        [
            &mut self.read_width,
            &mut self.read_retries,
            &mut self.queue_dwell_us,
            &mut self.batch_size,
            &mut self.occupancy,
            &mut self.flush_words,
            &mut self.staleness,
        ]
    }

    /// Every histogram the snapshot carries, paired with its metric name, in
    /// a fixed order (`coup_read_width`, `coup_read_retries_per_read`,
    /// `coup_queue_dwell_microseconds`, `coup_batch_size`,
    /// `coup_buffer_occupancy`, `coup_flush_words`, `coup_staleness`) — for
    /// callers that iterate the series uniformly instead of naming fields.
    #[must_use]
    pub fn histograms(&self) -> [(&'static str, HistogramSnapshot); HIST_COUNT] {
        let mut out = [("", HistogramSnapshot::default()); HIST_COUNT];
        for (slot, ((name, _), value)) in out
            .iter_mut()
            .zip(HIST_META.iter().zip(self.histogram_values()))
        {
            *slot = (name, value);
        }
        out
    }

    /// The delta snapshot since `base`: every counter and histogram bucket
    /// saturating-subtracted. The natural way to measure one phase of a run
    /// without resetting anything.
    pub fn since(&self, base: &Self) -> Self {
        let mut delta = *self;
        for (slot, earlier) in delta.counter_slots().into_iter().zip(base.counter_values()) {
            *slot = slot.saturating_sub(earlier);
        }
        for (slot, earlier) in delta
            .histogram_slots()
            .into_iter()
            .zip(base.histogram_values())
        {
            *slot = slot.since(&earlier);
        }
        delta
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// `HELP`/`TYPE` headers, plain counters, and cumulative
    /// `_bucket{le=...}` / `_sum` / `_count` series for every histogram.
    ///
    /// Domain: every counter and histogram sum may be any `u64`, but each
    /// histogram's bucket total must fit in a `u64`, because the cumulative
    /// `_bucket` and `_count` series are `u64`s. Inside that domain
    /// [`MetricsSnapshot::from_prometheus`] reads the text back exactly.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for ((name, help), value) in COUNTER_META.iter().zip(self.counter_values()) {
            let kind = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }
        for ((name, help), hist) in HIST_META.iter().zip(self.histogram_values()) {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (index, bucket) in hist.buckets.iter().enumerate() {
                cumulative += bucket;
                match HistogramSnapshot::bucket_upper_bound(index) {
                    Some(le) => {
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"))
                    }
                    None => out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n")),
                }
            }
            out.push_str(&format!("{name}_sum {}\n", hist.sum));
            out.push_str(&format!("{name}_count {cumulative}\n"));
        }
        out
    }

    /// Parses the output of [`MetricsSnapshot::to_prometheus`] back into a
    /// snapshot; the round-trip is exact because every exported value is an
    /// integer. Used by the schema-check tests and the CI scrape lane.
    pub fn from_prometheus(text: &str) -> Result<Self, String> {
        let mut snap = MetricsSnapshot::default();
        let mut cumulative = [[None::<u64>; HIST_BUCKETS]; HIST_COUNT];
        let mut counts = [None::<u64>; HIST_COUNT];
        let hist_index = |base: &str| HIST_META.iter().position(|(name, _)| *name == base);
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name_part, value_part) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed line: {line:?}"))?;
            let value: u64 = value_part
                .parse()
                .map_err(|_| format!("non-integer value in {line:?}"))?;
            if let Some((name, labels)) = name_part.split_once('{') {
                let base = name
                    .strip_suffix("_bucket")
                    .ok_or_else(|| format!("labels on non-bucket metric {name}"))?;
                let hist = hist_index(base).ok_or_else(|| format!("unknown histogram {base}"))?;
                let le = labels
                    .strip_suffix('}')
                    .and_then(|l| l.strip_prefix("le=\""))
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| format!("malformed le label in {line:?}"))?;
                let bucket = if le == "+Inf" {
                    HIST_BUCKETS - 1
                } else {
                    let bound: u64 = le
                        .parse()
                        .map_err(|_| format!("non-integer le in {line:?}"))?;
                    (0..HIST_BUCKETS - 1)
                        .find(|&i| HistogramSnapshot::bucket_upper_bound(i) == Some(bound))
                        .ok_or_else(|| format!("le {bound} is not a bucket boundary"))?
                };
                cumulative[hist][bucket] = Some(value);
            } else if let Some(base) = name_part.strip_suffix("_sum") {
                let hist = hist_index(base).ok_or_else(|| format!("unknown histogram {base}"))?;
                snap.histogram_slots()[hist].sum = value;
            } else if let Some(base) = name_part.strip_suffix("_count") {
                let hist = hist_index(base).ok_or_else(|| format!("unknown histogram {base}"))?;
                counts[hist] = Some(value);
            } else {
                let index = COUNTER_META
                    .iter()
                    .position(|(name, _)| *name == name_part)
                    .ok_or_else(|| format!("unknown metric {name_part}"))?;
                *snap.counter_slots()[index] = value;
            }
        }
        for (hist, buckets) in cumulative.iter().enumerate() {
            let mut previous = 0u64;
            let name = HIST_META[hist].0;
            for (index, entry) in buckets.iter().enumerate() {
                let running = entry.ok_or_else(|| format!("{name} is missing bucket {index}"))?;
                if running < previous {
                    return Err(format!("{name} buckets are not cumulative"));
                }
                snap.histogram_slots()[hist].buckets[index] = running - previous;
                previous = running;
            }
            if let Some(count) = counts[hist] {
                if count != previous {
                    return Err(format!(
                        "{name}_count {count} disagrees with +Inf bucket {previous}"
                    ));
                }
            } else {
                return Err(format!("{name} is missing its _count series"));
            }
        }
        Ok(snap)
    }

    /// Renders the snapshot as a JSON object (hand-rolled: the workspace
    /// carries no serializer). Keys mirror the struct fields; histograms
    /// nest under `"histograms"` as `{"sum": n, "buckets": [...]}`.
    pub fn to_json(&self) -> String {
        let hist = |h: &HistogramSnapshot| {
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            format!(
                "{{\"sum\": {}, \"buckets\": [{}]}}",
                h.sum,
                buckets.join(", ")
            )
        };
        format!(
            concat!(
                "{{\n",
                "  \"uptime_ns\": {},\n",
                "  \"updates_submitted\": {},\n",
                "  \"updates_applied\": {},\n",
                "  \"handle_reads\": {},\n",
                "  \"stale_reads\": {},\n",
                "  \"queue_parks\": {},\n",
                "  \"queue_unparks\": {},\n",
                "  \"trace_recorded\": {},\n",
                "  \"trace_dropped\": {},\n",
                "  \"read_cost\": {{\"reads\": {}, \"buffer_words\": {}, \"retries\": {}, \"escalations\": {}}},\n",
                "  \"buffer_stats\": {{\"privatized\": {}, \"evictions\": {}, \"flushes\": {}, \"held_bypasses\": {}}},\n",
                "  \"histograms\": {{\n",
                "    \"read_width\": {},\n",
                "    \"read_retries\": {},\n",
                "    \"queue_dwell_us\": {},\n",
                "    \"batch_size\": {},\n",
                "    \"occupancy\": {},\n",
                "    \"flush_words\": {},\n",
                "    \"staleness\": {}\n",
                "  }}\n",
                "}}"
            ),
            self.uptime_ns,
            self.updates_submitted,
            self.updates_applied,
            self.handle_reads,
            self.stale_reads,
            self.queue_parks,
            self.queue_unparks,
            self.trace_recorded,
            self.trace_dropped,
            self.read_cost.reads,
            self.read_cost.buffer_words,
            self.read_cost.retries,
            self.read_cost.escalations,
            self.buffer_stats.privatized,
            self.buffer_stats.evictions,
            self.buffer_stats.flushes,
            self.buffer_stats.held_bypasses,
            hist(&self.read_width),
            hist(&self.read_retries),
            hist(&self.queue_dwell_us),
            hist(&self.batch_size),
            hist(&self.occupancy),
            hist(&self.flush_words),
            hist(&self.staleness),
        )
    }

    /// Parses the output of [`MetricsSnapshot::to_json`] back into a
    /// snapshot (exact round-trip; everything is an integer).
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::from_value(&json::parse(text)?)
    }

    /// Builds a snapshot from an already-parsed JSON value — the embedded
    /// `"metrics"` subtree of a bench report parses through the same code
    /// path as a standalone snapshot file.
    pub(crate) fn from_value(value: &json::Value) -> Result<Self, String> {
        let root = value.as_object("snapshot")?;
        let read_cost = json::get(root, "read_cost")?.as_object("read_cost")?;
        let stats = json::get(root, "buffer_stats")?.as_object("buffer_stats")?;
        let mut snap = MetricsSnapshot {
            uptime_ns: json::get_u64(root, "uptime_ns")?,
            updates_submitted: json::get_u64(root, "updates_submitted")?,
            updates_applied: json::get_u64(root, "updates_applied")?,
            handle_reads: json::get_u64(root, "handle_reads")?,
            stale_reads: json::get_u64(root, "stale_reads")?,
            queue_parks: json::get_u64(root, "queue_parks")?,
            queue_unparks: json::get_u64(root, "queue_unparks")?,
            trace_recorded: json::get_u64(root, "trace_recorded")?,
            trace_dropped: json::get_u64(root, "trace_dropped")?,
            read_cost: ReadCost {
                reads: json::get_u64(read_cost, "reads")?,
                buffer_words: json::get_u64(read_cost, "buffer_words")?,
                retries: json::get_u64(read_cost, "retries")?,
                escalations: json::get_u64(read_cost, "escalations")?,
            },
            buffer_stats: BufferStats {
                privatized: json::get_u64(stats, "privatized")?,
                evictions: json::get_u64(stats, "evictions")?,
                flushes: json::get_u64(stats, "flushes")?,
                held_bypasses: json::get_u64(stats, "held_bypasses")?,
            },
            ..MetricsSnapshot::default()
        };
        let hists = json::get(root, "histograms")?.as_object("histograms")?;
        let keys = [
            "read_width",
            "read_retries",
            "queue_dwell_us",
            "batch_size",
            "occupancy",
            "flush_words",
            "staleness",
        ];
        let mut slots = snap.histogram_slots();
        for (slot, key) in slots.iter_mut().zip(keys) {
            let hist = json::get(hists, key)?.as_object(key)?;
            slot.sum = json::get_u64(hist, "sum")?;
            let buckets = json::get(hist, "buckets")?.as_array(key)?;
            if buckets.len() != HIST_BUCKETS {
                return Err(format!(
                    "{key} has {} buckets, expected {HIST_BUCKETS}",
                    buckets.len()
                ));
            }
            for (out, value) in slot.buckets.iter_mut().zip(buckets) {
                *out = value.as_u64(key)?;
            }
        }
        Ok(snap)
    }
}

impl Merge for MetricsSnapshot {
    fn merge(&mut self, other: &Self) {
        // Counter 0 is uptime: max, not sum — merging per-worker or
        // per-phase views of one clock must not double it.
        self.uptime_ns = self.uptime_ns.max(other.uptime_ns);
        let others = other.counter_values();
        for (index, slot) in self.counter_slots().into_iter().enumerate().skip(1) {
            *slot += others[index];
        }
        let other_hists = other.histogram_values();
        for (slot, extra) in self.histogram_slots().into_iter().zip(other_hists) {
            slot.merge(&extra);
        }
    }
}

/// The dependency-free JSON subset parser backing
/// [`MetricsSnapshot::from_json`] (the workspace's serde is an inert shim).
pub(crate) mod json {
    /// A parsed JSON value; integers that fit `u64` stay exact.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Value {
        Object(Vec<(String, Value)>),
        Array(Vec<Value>),
        UInt(u64),
        Float(f64),
        Str(String),
        Bool(bool),
        Null,
    }

    impl Value {
        pub(crate) fn as_object(&self, what: &str) -> Result<&[(String, Value)], String> {
            match self {
                Value::Object(fields) => Ok(fields),
                other => Err(format!("{what}: expected object, got {other:?}")),
            }
        }

        pub(crate) fn as_array(&self, what: &str) -> Result<&[Value], String> {
            match self {
                Value::Array(items) => Ok(items),
                other => Err(format!("{what}: expected array, got {other:?}")),
            }
        }

        pub(crate) fn as_u64(&self, what: &str) -> Result<u64, String> {
            match self {
                Value::UInt(n) => Ok(*n),
                other => Err(format!("{what}: expected unsigned integer, got {other:?}")),
            }
        }
    }

    pub(crate) fn get<'v>(fields: &'v [(String, Value)], key: &str) -> Result<&'v Value, String> {
        fields
            .iter()
            .find(|(name, _)| name == key)
            .map(|(_, value)| value)
            .ok_or_else(|| format!("missing key {key:?}"))
    }

    pub(crate) fn get_u64(fields: &[(String, Value)], key: &str) -> Result<u64, String> {
        get(fields, key)?.as_u64(key)
    }

    /// Deepest object/array nesting [`parse`] accepts — far above the few
    /// levels the writers emit; past it, a hostile input gets an `Err`
    /// instead of overflowing the stack.
    pub(crate) const MAX_DEPTH: usize = 128;

    pub(crate) fn parse(text: &str) -> Result<Value, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing data at byte {}", parser.pos));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Objects and arrays currently open.
        depth: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, byte: u8) -> Result<(), String> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected {:?} at byte {}, found {:?}",
                    byte as char,
                    self.pos,
                    self.peek().map(|b| b as char)
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.nested(Self::object),
                Some(b'[') => self.nested(Self::array),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|b| b as char),
                    self.pos
                )),
            }
        }

        /// Runs `container` one nesting level down, refusing to go past
        /// [`MAX_DEPTH`].
        fn nested(
            &mut self,
            container: fn(&mut Self) -> Result<Value, String>,
        ) -> Result<Value, String> {
            if self.depth == MAX_DEPTH {
                return Err(format!(
                    "nesting deeper than {MAX_DEPTH} levels at byte {}",
                    self.pos
                ));
            }
            self.depth += 1;
            let value = container(self);
            self.depth -= 1;
            value
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or '}}' at byte {}, found {:?}",
                            self.pos,
                            other.map(|b| b as char)
                        ))
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or ']' at byte {}, found {:?}",
                            self.pos,
                            other.map(|b| b as char)
                        ))
                    }
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let escaped = self
                            .peek()
                            .ok_or_else(|| "unterminated escape".to_string())?;
                        out.push(match escaped {
                            b'"' => '"',
                            b'\\' => '\\',
                            b'/' => '/',
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            other => return Err(format!("unsupported escape \\{}", other as char)),
                        });
                        self.pos += 1;
                    }
                    Some(byte) => {
                        // Multi-byte UTF-8 passes through unchanged.
                        let start = self.pos;
                        let mut end = self.pos + 1;
                        if byte >= 0x80 {
                            while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                                end += 1;
                            }
                        }
                        out.push_str(
                            std::str::from_utf8(&self.bytes[start..end])
                                .map_err(|_| "invalid UTF-8 in string".to_string())?,
                        );
                        self.pos = end;
                    }
                    None => return Err("unterminated string".to_string()),
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            let mut float = false;
            if self.peek() == Some(b'.') {
                float = true;
                self.pos += 1;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                float = true;
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "invalid number".to_string())?;
            if !float {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::UInt(n));
                }
            }
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| format!("bad number {text:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            uptime_ns: 123_456_789,
            updates_submitted: 1_000,
            updates_applied: 998,
            handle_reads: 7,
            queue_parks: 3,
            queue_unparks: 2,
            trace_recorded: 40,
            trace_dropped: 2,
            read_cost: ReadCost {
                reads: 12,
                buffer_words: 30,
                retries: 1,
                escalations: 0,
            },
            buffer_stats: BufferStats {
                privatized: 64,
                evictions: 8,
                flushes: 5,
                held_bypasses: 1,
            },
            ..MetricsSnapshot::default()
        };
        for (i, value) in [0u64, 1, 2, 5, 9, 100, 70_000].iter().enumerate() {
            snap.read_width.buckets[bucket_index(*value)] += 1 + i as u64;
            snap.read_width.sum += value * (1 + i as u64);
        }
        snap.batch_size.buckets[9] = 4;
        snap.batch_size.sum = 1024;
        snap
    }

    #[test]
    fn bucket_index_matches_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(16_383), 14);
        assert_eq!(bucket_index(16_384), 15);
        assert_eq!(bucket_index(u64::MAX), 15);
        // Every finite bucket's upper bound lands in its own bucket and the
        // next value lands one bucket up.
        for index in 0..HIST_BUCKETS - 1 {
            let le = HistogramSnapshot::bucket_upper_bound(index).unwrap();
            assert_eq!(bucket_index(le), index);
            assert_eq!(bucket_index(le + 1), index + 1);
        }
        assert_eq!(
            HistogramSnapshot::bucket_upper_bound(HIST_BUCKETS - 1),
            None
        );
    }

    #[test]
    fn merge_and_since_are_inverses_on_counters() {
        let a = sample_snapshot();
        let mut width = HistogramSnapshot {
            sum: 3,
            ..HistogramSnapshot::default()
        };
        width.buckets[1] = 3;
        let b = MetricsSnapshot {
            updates_applied: 5,
            read_cost: ReadCost {
                reads: 2,
                ..ReadCost::default()
            },
            read_width: width,
            ..MetricsSnapshot::default()
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.updates_applied, a.updates_applied + 5);
        assert_eq!(merged.uptime_ns, a.uptime_ns, "uptime merges as max");
        let recovered = merged.since(&b);
        // since() subtracts uptime too, and b's uptime is 0.
        assert_eq!(recovered, a);
    }

    #[test]
    fn prometheus_round_trips_exactly() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        let parsed = MetricsSnapshot::from_prometheus(&text).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_schema_has_every_family_typed() {
        let text = sample_snapshot().to_prometheus();
        for (name, _) in COUNTER_META.iter() {
            assert!(
                text.contains(&format!("# HELP {name} ")),
                "missing HELP {name}"
            );
            assert!(
                text.contains(&format!("# TYPE {name} ")),
                "missing TYPE {name}"
            );
        }
        for (name, _) in HIST_META.iter() {
            assert!(
                text.contains(&format!("# TYPE {name} histogram")),
                "missing histogram TYPE for {name}"
            );
            assert!(
                text.contains(&format!("{name}_bucket{{le=\"+Inf\"}}")),
                "missing +Inf bucket for {name}"
            );
            assert!(text.contains(&format!("{name}_sum ")), "missing {name}_sum");
            assert!(
                text.contains(&format!("{name}_count ")),
                "missing {name}_count"
            );
        }
    }

    #[test]
    fn prometheus_parser_rejects_corruption() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        // A truncated exposition is missing series.
        let half = &text[..text.len() / 2];
        assert!(MetricsSnapshot::from_prometheus(half).is_err());
        // A count that disagrees with the +Inf bucket is rejected.
        let lied = text.replace("coup_batch_size_count 4", "coup_batch_size_count 40");
        assert!(MetricsSnapshot::from_prometheus(&lied).is_err());
        // Unknown metrics are rejected.
        assert!(MetricsSnapshot::from_prometheus("bogus_metric 1").is_err());
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = sample_snapshot();
        let text = snap.to_json();
        let parsed = MetricsSnapshot::from_json(&text).expect("parses");
        assert_eq!(parsed, snap);
        // And the zero snapshot too.
        let zero = MetricsSnapshot::default();
        assert_eq!(
            MetricsSnapshot::from_json(&zero.to_json()).expect("parses"),
            zero
        );
    }

    #[test]
    fn json_parser_rejects_corruption() {
        assert!(MetricsSnapshot::from_json("{").is_err());
        assert!(MetricsSnapshot::from_json("{}").is_err());
        assert!(MetricsSnapshot::from_json("[1, 2]").is_err());
        let truncated_buckets = sample_snapshot()
            .to_json()
            .replace("\"buckets\": [", "\"buckets\": [1, ");
        assert!(MetricsSnapshot::from_json(&truncated_buckets).is_err());
    }

    #[test]
    fn json_parser_rejects_deep_nesting_instead_of_overflowing() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(json::parse(&nest(json::MAX_DEPTH)).is_ok());
        let err = json::parse(&nest(json::MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Far past what a test thread's stack survives when recursing.
        let hostile = "[".repeat(100_000);
        assert!(MetricsSnapshot::from_json(&hostile).is_err());
        assert!(MetricsSnapshot::from_json(&format!("{{\"uptime_ns\": {hostile}")).is_err());
    }

    /// One exact read that folded `width` buffer words over `retries`
    /// invalidated passes.
    fn one_read(width: u64, retries: u64) -> ReadCost {
        ReadCost {
            reads: 1,
            buffer_words: width,
            retries,
            escalations: 0,
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn registry_folds_per_worker_blocks() {
        let registry = TelemetryRegistry::new(4, TelemetryConfig::default());
        assert!(registry.is_enabled());
        let workers = registry.workers();
        registry.record_read(&workers[0], &one_read(3, 1));
        registry.record_read(&workers[2], &one_read(5, 0));
        registry.record(&workers[1], hist::BATCH_SIZE, 256);
        registry.record(&workers[1], hist::QUEUE_DWELL_US, 12);
        registry.record(&workers[3], hist::OCCUPANCY, 7);
        registry.record(&workers[2], hist::FLUSH_WORDS, 9);
        registry.record_park(&workers[1], 1);
        registry.record_unpark(&workers[1], 1);
        let snap = registry.metrics();
        assert_eq!(snap.read_cost.reads, 2);
        assert_eq!(snap.read_cost.buffer_words, 8);
        assert_eq!(snap.read_cost.retries, 1);
        assert_eq!(snap.read_width.count(), 2);
        assert_eq!(snap.read_width.sum, 8);
        assert_eq!(snap.read_retries.count(), 2);
        assert_eq!(snap.read_retries.sum, 1);
        assert_eq!(snap.batch_size.count(), 1);
        assert_eq!(snap.queue_dwell_us.sum, 12);
        assert_eq!(snap.occupancy.sum, 7);
        assert_eq!(snap.flush_words.sum, 9);
        assert_eq!(snap.queue_parks, 1);
        assert_eq!(snap.queue_unparks, 1);
        assert!(snap.uptime_ns > 0);
        // The park and unpark each traced an event; reads don't trace.
        assert_eq!(snap.trace_recorded, 2);
        let events = registry.drain_trace();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, crate::trace::TraceKind::QueuePark);
        assert_eq!(events[0].worker, 1);
        assert_eq!(events[1].kind, crate::trace::TraceKind::QueueUnpark);
        assert_eq!(events[1].worker, 1);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let registry = TelemetryRegistry::new(4, TelemetryConfig::disabled());
        assert!(!registry.is_enabled());
        let block = &registry.workers()[0];
        registry.record_read(block, &one_read(3, 1));
        registry.record_park(block, 0);
        registry.record_unpark(block, 0);
        registry.trace(0, TraceKind::Flush, 9);
        let snap = registry.metrics();
        assert_eq!(snap.read_cost, one_read(3, 1), "plain counters flow");
        assert_eq!(snap.read_width.count(), 0);
        assert_eq!(snap.queue_parks, 0);
        assert_eq!(snap.queue_unparks, 0);
        assert_eq!(snap.trace_recorded, 0);
        assert!(registry.drain_trace().is_empty());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn sampling_thins_the_trace_but_not_the_histograms() {
        let config = TelemetryConfig {
            enabled: true,
            trace_capacity: 4096,
            sample_shift: 3, // keep every 8th event
        };
        let registry = TelemetryRegistry::new(1, config);
        for line in 0..800 {
            registry.trace(0, TraceKind::Privatize, line);
            registry.record(&registry.workers()[0], hist::OCCUPANCY, 1);
        }
        let snap = registry.metrics();
        assert_eq!(snap.trace_recorded, 100, "1 in 8 of 800 events kept");
        assert_eq!(snap.occupancy.count(), 800, "histograms are never sampled");
    }

    /// A recorder with no ring (a handle read's escalation) is counted but
    /// not traced.
    #[cfg(feature = "telemetry")]
    #[test]
    fn events_without_a_ring_are_not_traced() {
        let registry = TelemetryRegistry::new(2, TelemetryConfig::default());
        registry.trace(usize::MAX, TraceKind::ReadHoldEscalate, 3);
        registry.trace(2, TraceKind::Flush, 3);
        assert_eq!(registry.metrics().trace_recorded, 0);
        assert!(registry.drain_trace().is_empty());
    }

    /// A pool block outlives its owner: returned blocks are recycled before
    /// new ones are made, keep counting from where they stopped, and stay in
    /// every fold.
    #[test]
    fn pool_blocks_are_recycled_and_their_counts_persist() {
        let registry = TelemetryRegistry::new(1, TelemetryConfig::default());
        let first = registry.lend();
        first.handle_reads.add(2);
        let second = registry.lend();
        second.stale_reads.add(1);
        assert!(
            !Arc::ptr_eq(&first, &second),
            "a held block is never lent twice"
        );
        registry.give_back(first);
        assert_eq!(registry.metrics().handle_reads, 2, "returned counts stay");
        let recycled = registry.lend();
        assert_eq!(recycled.handle_reads.get(), 2, "the free block is reused");
        recycled.handle_reads.add(1);
        registry.give_back(recycled);
        registry.with_lent_block(|block| block.handle_reads.add(4));
        registry.give_back(second);
        let snap = registry.metrics();
        assert_eq!((snap.handle_reads, snap.stale_reads), (7, 1));
        assert_eq!(
            registry.lock_pool().all.len(),
            2,
            "two owners at most, two blocks"
        );
    }
}
