//! The service facade: [`CoupRuntime`], its [`RuntimeBuilder`], and the
//! lock-free sharded submission frontend.
//!
//! Everything below `coup-runtime`'s backends assumes a *worker* discipline:
//! a fixed set of threads, each owning one privatized buffer, driving
//! [`UpdateBackend::update`] with its own thread index. That is the right
//! shape for kernels, but not for a service: a network handler or request
//! thread cannot be a pinned worker. The facade closes the gap the same way
//! the COUP hardware does — in the paper, *any* core may issue an
//! update-request message and the coherence fabric routes it to wherever the
//! line's U-state copy lives. Here, any thread may hold a [`Submitter`] (or a
//! typed view such as [`CounterHandle`]) and push updates into a batch; full
//! batches are published into the producer's own bounded SPSC ring, claimed
//! from a lock-free shard directory, and the runtime's *resident workers*
//! drain the rings round-robin into the existing privatized-buffer path. The
//! published batch is the software analogue of the update-request message;
//! because every ring has exactly one producer and one consuming worker, the
//! hand-off costs one Release store (plus one wake RMW) per batch and no
//! producer ever serializes against another — the delivery path is as
//! contention-free as the buffers it feeds, which is the paper's premise
//! applied to the fabric itself.
//!
//! Blocking survives only at the *edges*, futex-style (`ring::Parker`): a
//! worker whose rings are all empty parks until a publication bumps its
//! epoch; a producer whose ring is full parks until its worker frees slots.
//! Resident workers spawn lazily, on the first submission handle — a runtime
//! used only for [`CoupRuntime::run_workers`] kernels never parks drainers
//! it will never feed.
//!
//! Reads never queue: they run synchronously on the caller's thread through
//! the O(active-writers) reduction path, exactly like a COUP read collecting
//! U-state copies.
//!
//! # Consistency
//!
//! The facade inherits the backends' quiescent consistency and weakens the
//! submission side by the rings: an update pushed into a handle becomes
//! visible to reads once its batch has been published (by size, by an
//! explicit [`Submitter::flush`], or by dropping the handle) *and* a
//! resident worker has applied it. [`CoupRuntime::drain`] blocks until every
//! update submitted so far is applied; [`CoupRuntime::shutdown`] quiesces
//! the whole runtime and returns an exact final snapshot. Quiescence is two
//! monotone counters: producers add to `submitted` *before* publishing,
//! workers add to `applied` *after* applying, so `applied == submitted` —
//! both read fresh via RMWs — implies every counted update landed.
//! Commutativity is what makes the rest safe: batches from different
//! producers may be applied in any order and the final state is the same.
//!
//! # Example
//!
//! ```
//! use coup_protocol::ops::CommutativeOp;
//! use coup_runtime::{tag, RuntimeBuilder};
//!
//! let runtime = RuntimeBuilder::new(CommutativeOp::AddU64, 16)
//!     .workers(2)
//!     .batch_capacity(64)
//!     .build();
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         let mut counter = runtime.counter::<tag::Add64>();
//!         scope.spawn(move || {
//!             for _ in 0..1000 {
//!                 counter.add(7, 1); // batched, no atomics on this thread
//!             }
//!         }); // dropping the handle flushes its final partial batch
//!     }
//! });
//! let result = runtime.shutdown();
//! assert_eq!(result.snapshot[7], 4000);
//! assert_eq!(result.report.updates, 4000);
//! ```

use crate::sync;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::thread::JoinHandle;
use crate::sync::{Mutex, MutexGuard};
use std::cell::OnceCell;
use std::marker::PhantomData;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use coup_protocol::ops::CommutativeOp;

use crate::backend::{
    AtomicBackend, BufferConfig, CoupBackend, StaleRead, UpdateBackend, DEFAULT_FLUSH_THRESHOLD,
};
use crate::harness::ThroughputReport;
use crate::ring::{ParkResult, Parker, ShardCache, ShardDirectory, ShardGrant, QUIESCE_PUBLISH};
use crate::telemetry::{hist, Block, MetricsSnapshot, TelemetryConfig, TelemetryRegistry};
use crate::trace::TraceKind;

pub use crate::ring::ShardStat;

/// Default number of updates a [`Submitter`] accumulates before publishing
/// its batch into its ring. Large enough to amortise the publish + wake over
/// hundreds of plain `Vec` pushes, small enough that a producer's updates do
/// not linger unseen for long.
pub const DEFAULT_BATCH_CAPACITY: usize = 256;

/// Which update backend a [`CoupRuntime`] applies submissions to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Conventional baseline: one atomic RMW per update ([`AtomicBackend`]).
    Atomic,
    /// Software COUP: privatized buffers, on-read reduction
    /// ([`CoupBackend`]) — the default.
    #[default]
    Coup,
}

/// Builds a [`CoupRuntime`]: one place for every knob — backend kind, lanes,
/// worker count, buffer sizing, and the submission path's batch, ring and
/// slot bounds.
///
/// Defaults: COUP backend, 1 resident worker, [`DEFAULT_FLUSH_THRESHOLD`],
/// buffer configuration from the environment ([`BufferConfig::from_env`]),
/// [`DEFAULT_BATCH_CAPACITY`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeBuilder {
    kind: BackendKind,
    op: CommutativeOp,
    lanes: usize,
    workers: usize,
    flush_threshold: u32,
    buffer_config: Option<BufferConfig>,
    batch_capacity: usize,
    queue_capacity: usize,
    shard_slots: usize,
    telemetry: TelemetryConfig,
}

/// Default bound on each producer's submission ring, in updates. A producer
/// that outruns its resident worker by this much blocks in `flush()` until
/// the worker frees slots — backpressure, so a long-lived service cannot
/// grow its queues without limit. Sixteen default-sized batches: deep enough
/// that a bursty producer rides out a drain pass without hitting the full
/// edge, while a fully claimed ring still costs only 64 KiB (rings allocate
/// lazily, on a slot's first claim).
pub const DEFAULT_QUEUE_CAPACITY: usize = 4096;

/// How many times a producer on the full edge cedes the CPU before arming
/// the parker. Zero under the model checker, so exhaustive executions hit
/// the park/wake protocol immediately instead of exploring yield loops.
#[cfg(not(coup_model))]
const FULL_EDGE_YIELDS: u32 = 8;
#[cfg(coup_model)]
const FULL_EDGE_YIELDS: u32 = 0;

/// Default number of slots in the shard directory — the bound on
/// *concurrently live* producers (a [`Submitter`] holds a slot from its
/// first flush until drop; one past that many blocks in `flush()` until a
/// slot frees).
pub const DEFAULT_SHARD_SLOTS: usize = 1024;

impl RuntimeBuilder {
    /// Starts a builder for a runtime of `lanes` lanes of `op`'s width.
    #[must_use]
    pub fn new(op: CommutativeOp, lanes: usize) -> Self {
        RuntimeBuilder {
            kind: BackendKind::Coup,
            op,
            lanes,
            workers: 1,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
            buffer_config: None,
            batch_capacity: DEFAULT_BATCH_CAPACITY,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            shard_slots: DEFAULT_SHARD_SLOTS,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Telemetry configuration: runtime kill-switch, trace-ring capacity,
    /// and trace sampling rate (default: enabled, 1024-event rings, no
    /// sampling). Pass [`TelemetryConfig::disabled`] for the zero-recording
    /// baseline; compiling without the `telemetry` cargo feature removes
    /// even the disabled-check branch.
    #[must_use]
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = config;
        self
    }

    /// Selects the backend kind (default: [`BackendKind::Coup`]).
    #[must_use]
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.kind = kind;
        self
    }

    /// Number of resident worker threads (default 1). Each worker owns one
    /// privatized buffer, drains the shard rings assigned to it (slot index
    /// ≡ worker mod `workers`), and runs one thread of every
    /// [`CoupRuntime::run_workers`] job.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Per-line flush budget of the COUP backend (minimum 1; ignored by the
    /// atomic backend).
    #[must_use]
    pub fn flush_threshold(mut self, flush_threshold: u32) -> Self {
        self.flush_threshold = flush_threshold;
        self
    }

    /// Sparse-buffer sizing and replacement of the COUP backend. Without this
    /// the runtime honours `COUP_BUFFER_CAPACITY` / `COUP_BUFFER_POLICY`
    /// (see [`BufferConfig::from_env`]) and defaults to unbounded buffers.
    #[must_use]
    pub fn buffer_config(mut self, config: BufferConfig) -> Self {
        self.buffer_config = Some(config);
        self
    }

    /// Updates a [`Submitter`] accumulates per batch before publishing it
    /// (minimum 1; 1 means every push is its own message — the unbatched
    /// baseline the batch-size sweep bench compares against).
    #[must_use]
    pub fn batch_capacity(mut self, batch_capacity: usize) -> Self {
        self.batch_capacity = batch_capacity;
        self
    }

    /// Bound on each producer's submission ring, in updates (minimum 1,
    /// rounded up to a power of two; default [`DEFAULT_QUEUE_CAPACITY`]). A
    /// producer flushing into its full ring blocks until its resident
    /// worker frees slots — the backpressure that keeps a long-lived
    /// service's memory bounded when producers outrun the workers.
    #[must_use]
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Number of shard-directory slots — the bound on concurrently live
    /// producers (minimum 1; default [`DEFAULT_SHARD_SLOTS`]). Memory cost
    /// is one ring per slot *ever claimed*, so a large default is cheap for
    /// runtimes with few producers.
    #[must_use]
    pub fn shard_slots(mut self, shard_slots: usize) -> Self {
        self.shard_slots = shard_slots;
        self
    }

    /// Builds the runtime. Resident workers are *not* spawned here: the
    /// first submission handle ([`CoupRuntime::submitter`] /
    /// [`handle`](CoupRuntime::handle) / [`counter`](CoupRuntime::counter))
    /// spawns them, so kernel-only runtimes never park drainers they never
    /// feed.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, or (for the COUP backend) exceeds
    /// [`crate::backend::MAX_COUP_THREADS`], or if the environment's buffer
    /// configuration is invalid ([`BufferConfig::from_env`]).
    #[must_use]
    pub fn build(self) -> CoupRuntime {
        assert!(self.workers > 0, "CoupRuntime needs at least one worker");
        // One registry shared by the backend (read/flush/occupancy metrics)
        // and the queue side (dwell/batch/park metrics), so a single
        // `metrics()` call sees the whole runtime.
        let telemetry = Arc::new(TelemetryRegistry::new(self.workers, self.telemetry));
        let backend: Box<dyn UpdateBackend> = match self.kind {
            BackendKind::Atomic => Box::new(AtomicBackend::new(self.op, self.lanes)),
            BackendKind::Coup => {
                let config = self.buffer_config.unwrap_or_else(BufferConfig::from_env);
                Box::new(CoupBackend::with_telemetry(
                    self.op,
                    self.lanes,
                    self.workers,
                    self.flush_threshold,
                    config,
                    Arc::clone(&telemetry),
                ))
            }
        };
        let shared = Arc::new(Shared {
            backend,
            directory: ShardDirectory::new(self.shard_slots.max(1), self.queue_capacity.max(1)),
            wake: (0..self.workers).map(|_| Parker::new()).collect(),
            idle: Parker::new(),
            submitted: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            retire: AtomicBool::new(false),
            batch_capacity: self.batch_capacity.max(1),
            workers: self.workers,
            telemetry,
            epoch: Instant::now(),
        });
        CoupRuntime {
            shared,
            drainers: Mutex::new(Drainers::default()),
            job: Mutex::new(()),
            started: Instant::now(),
        }
    }
}

/// Bit in [`Shared::submitted`] that marks the runtime closed. Packing it
/// into the counter makes "count this batch in, or learn we closed" one
/// indivisible RMW — the gate cannot race shutdown.
const SUBMIT_CLOSED: u64 = 1 << 63;
const SUBMIT_MASK: u64 = SUBMIT_CLOSED - 1;

/// State shared by the runtime, its resident workers, and every handle.
struct Shared {
    backend: Box<dyn UpdateBackend>,
    /// The per-producer SPSC rings, behind their claim/retire slot protocol.
    directory: ShardDirectory,
    /// One empty-edge parker per resident worker: producers bump worker
    /// `slot % workers` after publishing into `slot`'s ring.
    wake: Box<[Parker]>,
    /// Parks [`CoupRuntime::drain`] callers until `applied` catches up.
    idle: Parker,
    /// `closed bit (bit 63) | updates submitted over the runtime's
    /// lifetime`. Producers add *before* publishing; the count is an upper
    /// bound on published updates until the producer finishes pushing.
    submitted: AtomicU64,
    /// Updates applied by resident workers, bumped *after* application —
    /// `applied == submitted` is the quiescence condition.
    applied: AtomicU64,
    /// Set while a [`CoupRuntime::run_workers`] job retires the drainers:
    /// each flushes its buffer and exits at the top of its next pass. It
    /// orders nothing itself — the job's join of each drainer hands the
    /// buffer over — so Relaxed suffices on both sides.
    retire: AtomicBool,
    batch_capacity: usize,
    workers: usize,
    /// The counter blocks, histograms and trace rings, shared with the
    /// backend.
    telemetry: Arc<TelemetryRegistry>,
    /// Base instant for the nanosecond timestamps in the shard slots'
    /// `last_publish_ns` (the dwell metric's clock).
    epoch: Instant,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("backend", &self.backend.name())
            .field("workers", &self.workers)
            .field("batch_capacity", &self.batch_capacity)
            .finish_non_exhaustive()
    }
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Body of resident worker `worker`: drain the rings in the worker's
    /// slot stripe, apply their updates through the privatized-buffer path,
    /// park on the empty edge, flush and exit once the runtime closes *and*
    /// quiesces, or once a job retires it.
    fn drain_loop(&self, worker: usize) {
        let block = &self.telemetry.workers()[worker];
        let mut cache = ShardCache::default();
        loop {
            // Epoch snapshot *before* the retire check and the scan: a
            // retire or publication after this point moves it and turns the
            // park below into a no-op retry, and one before it is visible
            // through the snapshot's Acquire.
            let status = self.wake[worker].status();
            if self.retire.load(Ordering::Relaxed) {
                self.backend.flush(worker);
                return;
            }
            let drained = self.directory.drain_pass(
                worker,
                self.workers,
                &mut cache,
                &mut |_slot, lane, value| self.backend.update(worker, lane, value),
                &mut |slot, count, publish_ns| {
                    let dwell_us = self.now_ns().saturating_sub(publish_ns) / 1_000;
                    self.telemetry.record(block, hist::BATCH_SIZE, count);
                    self.telemetry.record(block, hist::QUEUE_DWELL_US, dwell_us);
                    self.telemetry.trace(worker, TraceKind::ShardDrain, slot);
                },
            );
            if drained > 0 {
                self.applied.fetch_add(drained, QUIESCE_PUBLISH);
                self.idle.notify();
                continue;
            }
            // Empty pass. Exit iff closed and globally quiesced — both read
            // fresh via RMWs, so a true "all done" is never missed.
            let submitted = self.submitted.fetch_add(0, Ordering::Relaxed);
            if submitted & SUBMIT_CLOSED != 0
                && self.applied.fetch_add(0, Ordering::Relaxed) >= submitted & SUBMIT_MASK
            {
                // Publish this worker's remaining buffered deltas so the
                // post-join snapshot is exact, then wake peers (they may be
                // parked waiting for exactly this quiescence) and any
                // drain() waiter.
                self.backend.flush(worker);
                for parker in self.wake.iter() {
                    parker.notify();
                }
                self.idle.notify();
                return;
            }
            match self.wake[worker].park(status, || self.telemetry.record_park(block, worker)) {
                ParkResult::Slept => self.telemetry.record_unpark(block, worker),
                ParkResult::Moved => {}
            }
        }
    }

    /// Blocks until `applied` reaches `target` submitted updates. The
    /// Acquire on the applied counter (paired with the workers'
    /// [`QUIESCE_PUBLISH`] bumps, whose RMW release sequence accumulates
    /// every worker's clock) is what makes the caller's subsequent reads see
    /// every applied update.
    fn wait_applied(&self, target: u64) {
        loop {
            let status = self.idle.status();
            // ord: drain-quiesce
            if self.applied.fetch_add(0, Ordering::Acquire) >= target {
                return;
            }
            self.idle.park(status, || {});
        }
    }

    /// An exact read with no worker identity, counted into `block` — the
    /// caller's own: the backend returns the reduction's cost instead of
    /// recording it.
    fn read(&self, block: &Block, lane: usize) -> u64 {
        let (value, cost) = self.backend.read_with_cost(lane);
        block.handle_reads.add(1);
        self.telemetry.record_read(block, &cost);
        value
    }

    /// A relaxed-tier read with no worker identity, counted into `block`.
    fn read_stale(&self, block: &Block, lane: usize) -> StaleRead {
        let stale = self.backend.read_stale(usize::MAX, lane);
        block.stale_reads.add(1);
        self.telemetry
            .record(block, hist::STALENESS, stale.staleness);
        stale
    }

    /// Assembles a full [`MetricsSnapshot`]: the registry's fold of every
    /// counter block plus the submission counters. No stop-the-world —
    /// workers and handles keep running while this sums their blocks.
    fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.telemetry.metrics();
        snap.updates_submitted = self.submitted.load(Ordering::Relaxed) & SUBMIT_MASK;
        snap.updates_applied = self.applied.load(Ordering::Relaxed);
        snap
    }
}

/// The observer-side counterpart of [`Submitter`]: a clonable, `Send`
/// handle a monitor thread can poll for live [`MetricsSnapshot`]s, rendered
/// exports, and trace drains while producers and workers keep running.
#[derive(Debug, Clone)]
pub struct TelemetryHandle {
    shared: Arc<Shared>,
}

impl TelemetryHandle {
    /// A consistent live snapshot of every runtime counter (see
    /// [`CoupRuntime::metrics`]).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics()
    }

    /// The current snapshot in the Prometheus text exposition format — the
    /// scrape endpoint's body, minus the HTTP server.
    #[must_use]
    pub fn prometheus(&self) -> String {
        self.metrics().to_prometheus()
    }

    /// The current snapshot as a JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        self.metrics().to_json()
    }

    /// Drains the structured event trace accumulated since the last drain
    /// (any drainer's — the rings have one shared cursor each), merged
    /// across workers and sorted by timestamp.
    #[must_use]
    pub fn drain_trace(&self) -> Vec<crate::trace::TraceEvent> {
        self.shared.telemetry.drain_trace()
    }
}

/// The batched write frontend: accumulates `(lane, value)` updates into a
/// private batch and publishes it into this producer's own SPSC ring when
/// full (or on [`Submitter::flush`] / drop). Cheap to clone — each clone is
/// an independent producer with its own batch and, from its first flush, its
/// own shard slot.
///
/// A `Submitter` is write-only; [`LaneHandle`] adds the synchronous read
/// path, and [`CounterHandle`] adds operation typing on top of that.
///
/// Handles are `Send` but not `Sync`: each owns a counter block that one
/// thread at a time bumps without a lock prefix.
///
/// ```compile_fail
/// fn shared_across_threads<T: Sync>() {}
/// shared_across_threads::<coup_runtime::LaneHandle>();
/// ```
#[derive(Debug)]
pub struct Submitter {
    shared: Arc<Shared>,
    batch: Vec<(usize, u64)>,
    /// The claimed shard slot + ring, lazily acquired on the first flush so
    /// read-mostly handles never occupy a slot.
    shard: Option<ShardGrant>,
    /// This handle's counter block, lent by the registry's pool on the
    /// first read or full-ring park and given back on drop. The `OnceCell`
    /// makes the handle `!Sync`, so the block has one writer.
    block: OnceCell<Arc<Block>>,
    /// Producer mirror of the ring's tail cursor (its next write position).
    tail: u64,
    /// Last observed consumer cursor — refreshed only when the mirror says
    /// the ring *looks* full, the classic Lamport-queue optimisation.
    head_cache: u64,
}

impl Submitter {
    fn new(shared: Arc<Shared>) -> Self {
        let capacity = shared.batch_capacity;
        Submitter {
            shared,
            batch: Vec::with_capacity(capacity),
            shard: None,
            block: OnceCell::new(),
            tail: 0,
            head_cache: 0,
        }
    }

    /// This handle's counter block, lent by the pool on first use.
    fn block(&self) -> &Block {
        self.block.get_or_init(|| self.shared.telemetry.lend())
    }

    /// Appends one update to the current batch; publishes the batch when it
    /// reaches the runtime's batch capacity.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range, or if the batch fills after the
    /// runtime has shut down.
    pub fn push(&mut self, lane: usize, value: u64) {
        assert!(
            lane < self.shared.backend.len(),
            "lane {lane} out of range ({} lanes)",
            self.shared.backend.len()
        );
        self.batch.push((lane, value));
        if self.batch.len() >= self.shared.batch_capacity {
            self.flush();
        }
    }

    /// Publishes the current batch into this producer's ring (no-op when
    /// empty). The updates become visible to reads once a resident worker
    /// applies them; use [`CoupRuntime::drain`] to wait for that.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has shut down.
    pub fn flush(&mut self) {
        self.submit(true);
    }

    /// Updates accumulated but not yet published.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.batch.len()
    }

    /// Updates this producer accepted that no worker has applied yet: the
    /// open batch plus the published ring entries its worker has not
    /// consumed. The Acquire head load pairs with the worker's head store,
    /// which follows its application of every entry below the head — so an
    /// update this count misses is already in the backend, where a
    /// subsequent stale walk finds it in a pending counter or the store.
    fn unapplied(&self) -> u64 {
        let queued = self
            .shard
            .as_ref()
            .map_or(0, |grant| self.tail.wrapping_sub(grant.ring.head()));
        self.batch.len() as u64 + queued
    }

    /// The one publication path. `panic_if_closed` selects the closed-
    /// runtime reaction: panic (explicit submissions — the runtime shut down
    /// under a live handle) or silently discard (`Drop`, where panicking
    /// would abort).
    fn submit(&mut self, panic_if_closed: bool) {
        if self.batch.is_empty() {
            return;
        }
        let count = self.batch.len() as u64;
        // The gate: count the batch in, or learn the runtime closed — one
        // indivisible RMW, so shutdown's workers either wait for these
        // updates or this producer learns they must not be published.
        let prev = self.shared.submitted.fetch_add(count, Ordering::Relaxed);
        if prev & SUBMIT_CLOSED != 0 {
            self.shared.submitted.fetch_sub(count, Ordering::Relaxed);
            self.batch.clear();
            // The phantom count may have parked an exiting worker on the
            // quiescence check: re-wake everyone.
            for parker in self.shared.wake.iter() {
                parker.notify();
            }
            self.shared.idle.notify();
            assert!(
                !panic_if_closed,
                "update submitted to a CoupRuntime that has shut down \
                 (flush or drop all handles before shutdown())"
            );
            return;
        }
        if self.shard.is_none() {
            self.claim_shard();
        }
        let grant = self.shard.as_ref().expect("claimed above");
        let ring = grant.ring.as_ref();
        let capacity = ring.capacity();
        let slot = self.shared.directory.slot(grant.slot);
        let worker = grant.slot % self.shared.workers;
        let mut dirty = false;
        for &(lane, value) in &self.batch {
            while self.tail.wrapping_sub(self.head_cache) >= capacity {
                // Publish what we have and wake the drainer before waiting:
                // unpublished slots cannot be drained, and an unwoken
                // drainer would never drain them.
                if dirty {
                    slot.last_publish_ns
                        .store(self.shared.now_ns(), Ordering::Relaxed);
                    ring.publish(self.tail);
                    self.shared.wake[worker].notify();
                    dirty = false;
                }
                self.head_cache = ring.head();
                if self.tail.wrapping_sub(self.head_cache) < capacity {
                    break;
                }
                // The drainer frees the whole ring in one consume pass, so
                // space tends to appear within a scheduling quantum. Cede
                // the CPU a few times before paying for a futex sleep: a
                // park costs the producer a syscall round-trip *and* makes
                // the drainer's next wake take the parker mutex, so keeping
                // `sleepers == 0` on transient full edges speeds up the
                // bottleneck side too. Zero retries under the model checker:
                // the exhaustive schedules go straight at the park protocol.
                for _ in 0..FULL_EDGE_YIELDS {
                    sync::thread::yield_now();
                    self.head_cache = ring.head();
                    if self.tail.wrapping_sub(self.head_cache) < capacity {
                        break;
                    }
                }
                if self.tail.wrapping_sub(self.head_cache) < capacity {
                    break;
                }
                let status = slot.space.status();
                self.head_cache = ring.head();
                if self.tail.wrapping_sub(self.head_cache) < capacity {
                    break;
                }
                let telemetry = &self.shared.telemetry;
                let block = self.block();
                match slot
                    .space
                    .park(status, || telemetry.record_park(block, worker))
                {
                    ParkResult::Slept => telemetry.record_unpark(block, worker),
                    ParkResult::Moved => {}
                }
            }
            ring.write(self.tail, lane, value);
            self.tail = self.tail.wrapping_add(1);
            dirty = true;
        }
        if dirty {
            slot.last_publish_ns
                .store(self.shared.now_ns(), Ordering::Relaxed);
            ring.publish(self.tail);
            self.shared.wake[worker].notify();
        }
        self.batch.clear();
    }

    /// Claims a shard slot, parking on the directory's freed-slot edge while
    /// every slot is held. The gate already counted our updates, so workers
    /// cannot quiesce without them: a retiring producer's slot will free.
    fn claim_shard(&mut self) {
        let grant = loop {
            if let Some(grant) = self.shared.directory.claim() {
                break grant;
            }
            let status = self.shared.directory.freed.status();
            if let Some(grant) = self.shared.directory.claim() {
                break grant;
            }
            self.shared.directory.freed.park(status, || {});
        };
        // A recycled ring keeps its cursors (they only ever advance); the
        // claim's Acquire made the previous generation's final, fully
        // drained cursor values visible.
        self.tail = grant.ring.producer_tail();
        self.head_cache = self.tail;
        self.shard = Some(grant);
    }
}

impl Clone for Submitter {
    /// A fresh producer over the same runtime, starting with an empty batch
    /// and no shard slot.
    fn clone(&self) -> Self {
        Submitter::new(Arc::clone(&self.shared))
    }
}

impl Drop for Submitter {
    /// Publishes the final partial batch so dropping a handle never loses
    /// updates (if the runtime already shut down the batch is discarded —
    /// flush explicitly before `shutdown()` to be certain), then retires
    /// this producer's shard slot so its worker can recycle it, and gives
    /// its counter block back to the pool.
    fn drop(&mut self) {
        if !self.batch.is_empty() {
            self.submit(false);
        }
        if let Some(block) = self.block.take() {
            self.shared.telemetry.give_back(block);
        }
        if let Some(grant) = self.shard.take() {
            self.shared.directory.retire(&grant);
            // The drainer owning this stripe frees the slot once drained.
            self.shared.wake[grant.slot % self.shared.workers].notify();
        }
    }
}

/// The raw (untyped) per-lane view of a runtime: batched writes via the
/// embedded [`Submitter`], synchronous reads via the backend's
/// O(active-writers) reduction path, counted into the handle's own block.
/// Clonable and `Send` (not `Sync`) — hand one to every producer thread.
#[derive(Debug, Clone)]
pub struct LaneHandle {
    submitter: Submitter,
}

impl LaneHandle {
    /// Submits `op(current, value)` to `lane` (batched; see
    /// [`Submitter::push`]).
    pub fn push(&mut self, lane: usize, value: u64) {
        self.submitter.push(lane, value);
    }

    /// Publishes the current partial batch (see [`Submitter::flush`]).
    pub fn flush(&mut self) {
        self.submitter.flush();
    }

    /// Reads `lane` synchronously on the calling thread. Sees every applied
    /// update; updates still queued (including this handle's own un-flushed
    /// batch) may be missing — read-your-writes requires
    /// [`LaneHandle::flush`] plus [`CoupRuntime::drain`].
    #[must_use]
    pub fn read(&self, lane: usize) -> u64 {
        self.submitter.shared.read(self.submitter.block(), lane)
    }

    /// Reads `lane` through the relaxed tier: the store word plus a monotone
    /// staleness bound, with no reduction and no read holds (see
    /// [`CoupRuntime::read_stale`]). The bound counts this handle's own
    /// queued-but-unapplied updates too — to every lane, which over-reports
    /// for `lane` but never under-reports.
    #[must_use]
    pub fn read_stale(&self, lane: usize) -> StaleRead {
        // Own updates first: every ring entry below the head this count
        // observes was applied before the backend walk below starts.
        let own = self.submitter.unapplied();
        let mut stale = self
            .submitter
            .shared
            .read_stale(self.submitter.block(), lane);
        stale.staleness += own;
        stale
    }

    /// Number of lanes of the underlying runtime.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.submitter.shared.backend.len()
    }

    /// The commutative operation of the underlying runtime.
    #[must_use]
    pub fn op(&self) -> CommutativeOp {
        self.submitter.shared.backend.op()
    }
}

/// Marker types naming each [`CommutativeOp`] at the type level, for
/// [`CounterHandle`]'s compile-time operation typing.
pub mod tag {
    use coup_protocol::ops::CommutativeOp;

    /// Names a [`CommutativeOp`] at the type level. A
    /// [`CounterHandle<K>`](super::CounterHandle) can only be obtained from a
    /// runtime whose operation equals `K::OP`, so code holding the handle
    /// knows statically which arithmetic its lanes obey.
    pub trait OpTag: Send + Sync + 'static {
        /// The operation this tag names.
        const OP: CommutativeOp;
    }

    /// Tags whose operation is an integer addition, enabling the
    /// counter-flavoured convenience methods
    /// ([`CounterHandle::add`](super::CounterHandle::add) /
    /// [`increment`](super::CounterHandle::increment)).
    pub trait AddTag: OpTag {}

    macro_rules! tags {
        ($($(#[$doc:meta])* $name:ident => $op:ident),+ $(,)?) => {
            $(
                $(#[$doc])*
                #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
                pub struct $name;
                impl OpTag for $name {
                    const OP: CommutativeOp = CommutativeOp::$op;
                }
            )+
        };
    }

    tags! {
        /// 16-bit wrapping addition.
        Add16 => AddU16,
        /// 32-bit wrapping addition.
        Add32 => AddU32,
        /// 64-bit wrapping addition.
        Add64 => AddU64,
        /// Single-precision float addition (lane values are raw IEEE-754
        /// bits, as everywhere in the runtime).
        AddF32 => AddF32,
        /// Double-precision float addition (raw IEEE-754 bits).
        AddF64 => AddF64,
        /// 64-bit bitwise AND.
        And64 => And64,
        /// 64-bit bitwise OR.
        Or64 => Or64,
        /// 64-bit bitwise XOR.
        Xor64 => Xor64,
        /// 64-bit unsigned minimum.
        Min64 => Min64,
        /// 64-bit unsigned maximum.
        Max64 => Max64,
        /// 32-bit wrapping multiplication.
        MulU32 => MulU32,
    }

    impl AddTag for Add16 {}
    impl AddTag for Add32 {}
    impl AddTag for Add64 {}
}

use tag::{AddTag, OpTag};

/// A typed per-operation view of a runtime: a [`LaneHandle`] whose operation
/// is pinned to `K::OP` at the type level, so `CounterHandle<tag::Add64>` in
/// a signature says "these lanes are 64-bit counters" the way
/// `Vec<u64>` says more than `Vec<u8>`. Obtained from
/// [`CoupRuntime::counter`], which checks the runtime's operation once at
/// acquisition instead of trusting every call site.
#[derive(Debug, Clone)]
pub struct CounterHandle<K: OpTag> {
    raw: LaneHandle,
    _op: PhantomData<K>,
}

impl<K: OpTag> CounterHandle<K> {
    /// Submits `K::OP(current, value)` to `lane` (batched).
    pub fn apply(&mut self, lane: usize, value: u64) {
        self.raw.push(lane, value);
    }

    /// Reads `lane` synchronously (see [`LaneHandle::read`]).
    #[must_use]
    pub fn get(&self, lane: usize) -> u64 {
        self.raw.read(lane)
    }

    /// Reads `lane` through the relaxed tier (see
    /// [`LaneHandle::read_stale`]): the current store word plus a bound on
    /// the updates it may be missing — the right call for rate displays and
    /// monitors that must never stall the writers.
    #[must_use]
    pub fn get_stale(&self, lane: usize) -> StaleRead {
        self.raw.read_stale(lane)
    }

    /// Publishes the current partial batch (see [`Submitter::flush`]).
    pub fn flush(&mut self) {
        self.raw.flush();
    }

    /// The underlying raw handle.
    #[must_use]
    pub fn raw(&self) -> &LaneHandle {
        &self.raw
    }
}

impl<K: AddTag> CounterHandle<K> {
    /// Adds `n` to the counter in `lane` (batched).
    pub fn add(&mut self, lane: usize, n: u64) {
        self.apply(lane, n);
    }

    /// Adds 1 to the counter in `lane` (batched).
    pub fn increment(&mut self, lane: usize) {
        self.apply(lane, 1);
    }
}

/// Per-worker context of a [`CoupRuntime::run_workers`] job: the worker's
/// index, a run-wide barrier, and direct (unbatched) backend access with the
/// worker's thread identity already bound — kernels never juggle raw thread
/// indices.
pub struct JobCtx<'a> {
    worker: usize,
    workers: usize,
    barrier: &'a Barrier,
    backend: &'a dyn UpdateBackend,
}

impl std::fmt::Debug for JobCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobCtx")
            .field("worker", &self.worker)
            .field("workers", &self.workers)
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl JobCtx<'_> {
    /// This worker's index in `0..workers`.
    #[must_use]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Total workers in the job.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Blocks until every worker of the job reaches the barrier. Every
    /// worker must execute the same number of barrier steps.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Applies `op(current, value)` to `lane` through this worker's
    /// privatized buffer — the direct path, no queue.
    pub fn update(&self, lane: usize, value: u64) {
        self.backend.update(self.worker, lane, value);
    }

    /// Update immediately followed by a read of the same lane (see
    /// [`UpdateBackend::update_read`] for the backends' atomicity contract).
    pub fn update_read(&self, lane: usize, value: u64) -> u64 {
        self.backend.update_read(self.worker, lane, value)
    }

    /// Reads `lane`, reducing buffered partials as needed.
    #[must_use]
    pub fn read(&self, lane: usize) -> u64 {
        self.backend.read(self.worker, lane)
    }

    /// Reads `lane` through the relaxed tier: no reduction, no read holds,
    /// a monotone staleness bound instead (see [`StaleRead`]). Only sound
    /// where the kernel tolerates bounded staleness — values that feed
    /// control flow or post-barrier exactness assertions must use
    /// [`JobCtx::read`].
    #[must_use]
    pub fn read_stale(&self, lane: usize) -> StaleRead {
        self.backend.read_stale(self.worker, lane)
    }
}

/// What [`CoupRuntime::shutdown`] returns: the exact final state and the
/// merged whole-life counters.
#[derive(Debug)]
pub struct RuntimeResult {
    /// Every lane's final value — exact: all workers flushed before the
    /// snapshot was taken.
    pub snapshot: Vec<u64>,
    /// Merged lifetime report: `updates` applied through the submission
    /// frontend, `reads` served through handles and facade reads, `elapsed`
    /// from build to shutdown, plus the lifetime [`MetricsSnapshot`] and its
    /// read-cost and buffer counters (which also cover
    /// [`CoupRuntime::run_workers`] jobs).
    pub report: ThroughputReport,
}

/// The long-lived service runtime: owns the backend and its resident worker
/// threads, hands out submission handles to any number of producer threads,
/// and runs synchronous worker jobs on the side.
///
/// Built by [`RuntimeBuilder`]. Three ways in:
///
/// * **Handles** ([`CoupRuntime::submitter`] / [`handle`](Self::handle) /
///   [`counter`](Self::counter)): clonable, `Send`, batched — the service
///   write path for non-worker threads. The first handle spawns the
///   resident workers.
/// * **Synchronous reads** ([`CoupRuntime::read`] / [`snapshot`](Self::snapshot),
///   or through any handle): the existing O(active-writers) reduction.
/// * **Worker jobs** ([`CoupRuntime::run_workers`]): a closure run once per
///   resident-worker identity with direct backend access — the kernel
///   executor's path, with barriers and read-your-writes.
///
/// [`CoupRuntime::shutdown`] (or `Drop`) quiesces: the submission gate
/// closes, workers drain every published ring, flush their buffers, and
/// exit.
#[derive(Debug)]
pub struct CoupRuntime {
    shared: Arc<Shared>,
    drainers: Mutex<Drainers>,
    /// Serialises [`CoupRuntime::run_workers`] jobs: two jobs sharing worker
    /// thread identities concurrently would break the buffers'
    /// single-writer discipline.
    job: Mutex<()>,
    started: Instant,
}

/// The resident workers' life cycle. They spawn lazily, so kernel-only
/// runtimes pay nothing, and a job retires them for its duration.
#[derive(Debug, Default)]
struct Drainers {
    /// Set by the first submission handle: from then on every worker
    /// identity has a drainer, except while a job holds the identities.
    spawned: bool,
    /// A [`CoupRuntime::run_workers`] job holds the worker identities; no
    /// drainer starts until its [`Respawn`] guard drops.
    in_job: bool,
    /// Join handles of the running drainers.
    live: Vec<JoinHandle<()>>,
}

/// Restarts the drainers a job retired (see
/// [`CoupRuntime::retire_drainers`]) — on unwind too, so a caught job panic
/// cannot wedge submissions and `drain()`.
struct Respawn<'a>(&'a CoupRuntime);

impl Drop for Respawn<'_> {
    fn drop(&mut self) {
        let runtime = self.0;
        let mut drainers = runtime.lock_drainers();
        drainers.in_job = false;
        if drainers.spawned {
            runtime.shared.retire.store(false, Ordering::Relaxed);
            drainers.live = runtime.spawn_drainers();
        }
    }
}

/// Joins every drainer, then re-raises the first one's panic payload if
/// `propagate_panics` — never mid-loop, so no drainer outlives the call.
fn join_drainers(live: Vec<JoinHandle<()>>, propagate_panics: bool) {
    let mut panic = None;
    for drainer in live {
        if let Err(payload) = drainer.join() {
            panic.get_or_insert(payload);
        }
    }
    if let Some(payload) = panic.filter(|_| propagate_panics) {
        std::panic::resume_unwind(payload);
    }
}

impl CoupRuntime {
    /// The commutative operation of the runtime's lanes.
    #[must_use]
    pub fn op(&self) -> CommutativeOp {
        self.shared.backend.op()
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.shared.backend.len()
    }

    /// Number of resident worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Short name of the underlying backend ("atomic", "coup").
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.shared.backend.name()
    }

    fn lock_drainers(&self) -> MutexGuard<'_, Drainers> {
        self.drainers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// One drainer thread per worker identity.
    fn spawn_drainers(&self) -> Vec<JoinHandle<()>> {
        (0..self.shared.workers)
            .map(|worker| {
                let shared = Arc::clone(&self.shared);
                crate::sync::thread::Builder::new()
                    .name(format!("coup-worker-{worker}"))
                    .spawn(move || shared.drain_loop(worker))
                    .expect("spawning a resident worker thread")
            })
            .collect()
    }

    /// Spawns the resident workers on the first submission handle. A job in
    /// progress counts as spawned — its guard starts them when it ends — so
    /// a handle taken inside a job never waits on that job.
    fn ensure_workers(&self) {
        let mut drainers = self.lock_drainers();
        if !drainers.spawned {
            drainers.spawned = true;
            if !drainers.in_job {
                drainers.live = self.spawn_drainers();
            }
        }
    }

    /// A new write-only batched producer (spawns the resident workers on
    /// first use).
    #[must_use]
    pub fn submitter(&self) -> Submitter {
        self.ensure_workers();
        Submitter::new(Arc::clone(&self.shared))
    }

    /// A new raw read/write handle.
    #[must_use]
    pub fn handle(&self) -> LaneHandle {
        LaneHandle {
            submitter: self.submitter(),
        }
    }

    /// A new typed handle for operation tag `K`.
    ///
    /// # Panics
    ///
    /// Panics if `K::OP` is not the runtime's operation — the one dynamic
    /// check that makes every later use statically typed.
    #[must_use]
    pub fn counter<K: OpTag>(&self) -> CounterHandle<K> {
        assert_eq!(
            K::OP,
            self.op(),
            "typed handle mismatch: runtime applies {}, tag names {}",
            self.op(),
            K::OP
        );
        CounterHandle {
            raw: self.handle(),
            _op: PhantomData,
        }
    }

    /// Reads `lane` synchronously on the calling thread (quiescently
    /// consistent; see [`LaneHandle::read`]), counted into a pool block
    /// borrowed for the call.
    #[must_use]
    pub fn read(&self, lane: usize) -> u64 {
        let shared = &self.shared;
        shared
            .telemetry
            .with_lent_block(|block| shared.read(block, lane))
    }

    /// Every lane's current value. Exact at quiescence (e.g. after
    /// [`CoupRuntime::drain`] with no producer holding an un-flushed batch);
    /// concurrent activity may or may not be included. Its reads have no
    /// owner and are not counted.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u64> {
        self.shared.backend.snapshot()
    }

    /// Reads `lane` through the relaxed tier: the shared-store word as-is,
    /// with no reduction, no read holds, and a monotone bound on how many
    /// buffered updates the value may be missing (see
    /// [`StaleRead`]). This is the pay-for-precision split of the COUP
    /// paper's §3.1.2 applied to the read side — pollers and monitors that
    /// tolerate bounded staleness never force the writers to flush.
    #[must_use]
    pub fn read_stale(&self, lane: usize) -> StaleRead {
        let shared = &self.shared;
        shared
            .telemetry
            .with_lent_block(|block| shared.read_stale(block, lane))
    }

    /// Updates submitted and applied so far (both monotone; equal when the
    /// rings are drained).
    #[must_use]
    pub fn queue_depth(&self) -> (u64, u64) {
        (
            self.shared.submitted.load(Ordering::Relaxed) & SUBMIT_MASK,
            self.shared.applied.load(Ordering::Relaxed),
        )
    }

    /// Per-shard lifetime statistics (claims, updates drained, liveness)
    /// for every directory slot ever claimed — the per-shard rows of the
    /// bench JSON come from here.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ShardStat> {
        self.shared.directory.stats()
    }

    /// A consistent live snapshot of every runtime counter — submission
    /// depth, read-cost and buffer counters, and the histograms — assembled
    /// by summing the worker and handle blocks, with no stop-the-world.
    /// Safe and meaningful mid-run: every field is individually monotone
    /// between observations on the same runtime, so two snapshots diff into
    /// a phase report via [`MetricsSnapshot::since`].
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics()
    }

    /// A new clonable telemetry observer handle (live metrics, Prometheus /
    /// JSON exports, trace drain) — hand it to a monitor thread the way
    /// [`CoupRuntime::submitter`] hands out producers.
    #[must_use]
    pub fn telemetry(&self) -> TelemetryHandle {
        TelemetryHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until every update submitted so far has been applied by the
    /// resident workers. After `drain()`, reads observe every update whose
    /// batch was published before the call — the runtime's quiescence point
    /// short of a full shutdown.
    pub fn drain(&self) {
        let target = self.shared.submitted.fetch_add(0, Ordering::Relaxed) & SUBMIT_MASK;
        self.shared.wait_applied(target);
    }

    /// Runs `job` once per resident-worker identity on dedicated threads and
    /// returns the per-worker results in worker order plus the job's
    /// wall-clock time (including each worker's final buffer flush, so
    /// backends cannot hide work).
    ///
    /// The submission path is drained and its resident workers retired for
    /// the duration — job threads temporarily *are* the workers, with
    /// exclusive ownership of the per-worker privatized buffers — and
    /// respawned when the job ends, even by a panic. Jobs serialise against
    /// each other. Updates submitted concurrently with a job are applied
    /// after it finishes, including those the job pushes through a handle
    /// of its own: such a handle may fill its ring but must not wait for
    /// room, since no drainer frees any before the job ends.
    ///
    /// A worker that panics while others wait in [`JobCtx::barrier`]
    /// deadlocks the job (`std::sync::Barrier` has no poisoning), so every
    /// worker must take the same barrier steps.
    pub fn run_workers<R, F>(&self, job: F) -> (Vec<R>, Duration)
    where
        R: Send,
        F: Fn(JobCtx<'_>) -> R + Sync,
    {
        // Poison recovery: a previous job's panic already ran the respawn
        // guard, so the runtime's invariants hold and the next job may
        // proceed.
        let _job = self
            .job
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Quiesce first: the job must observe every update submitted before
        // the call.
        self.drain();
        let _respawn = self.retire_drainers();
        let workers = self.shared.workers;
        let backend = self.shared.backend.as_ref();
        let barrier = Barrier::new(workers);
        let run = |worker| {
            let result = job(JobCtx {
                worker,
                workers,
                barrier: &barrier,
                backend,
            });
            backend.flush(worker);
            result
        };
        let start = Instant::now();
        // Worker 0 runs on the calling thread, so a one-worker job spawns
        // nothing.
        let results = std::thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = (1..workers)
                .map(|worker| scope.spawn(move || run(worker)))
                .collect();
            let mut results = vec![run(0)];
            for handle in handles {
                // Re-raise the worker's own payload so a kernel assertion
                // message survives to the test report instead of being
                // replaced by a generic "a scoped thread panicked".
                match handle.join() {
                    Ok(result) => results.push(result),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            results
        });
        (results, start.elapsed())
    }

    /// Retires the resident workers for a job: raises the retire flag,
    /// wakes every drainer and joins it. Each join is the happens-before
    /// edge that hands a drainer's buffer and counter block to the job
    /// thread taking its identity. The returned guard respawns them.
    fn retire_drainers(&self) -> Respawn<'_> {
        let live = {
            let mut drainers = self.lock_drainers();
            drainers.in_job = true;
            std::mem::take(&mut drainers.live)
        };
        let respawn = Respawn(self);
        if !live.is_empty() {
            self.shared.retire.store(true, Ordering::Relaxed);
            for parker in self.shared.wake.iter() {
                parker.notify();
            }
            join_drainers(live, true);
        }
        respawn
    }

    /// Closes the submission gate and joins the resident workers: they
    /// drain every published update, flush their privatized buffers, and
    /// exit once `applied == submitted`. Safe to call twice (Drop after
    /// shutdown). With `propagate_panics` false (the `Drop` path) a
    /// panicked worker is ignored — re-raising during an unwind would
    /// double-panic.
    fn close_and_join(&mut self, propagate_panics: bool) {
        self.shared
            .submitted
            .fetch_or(SUBMIT_CLOSED, Ordering::Relaxed);
        // Wake everyone who might be parked: workers (to run their exit
        // check) and producers on full rings or the claim edge (their
        // workers keep draining until quiescence, so they finish or
        // discard).
        for parker in self.shared.wake.iter() {
            parker.close();
        }
        self.shared.directory.close_all();
        let live = std::mem::take(&mut self.lock_drainers().live);
        join_drainers(live, propagate_panics);
        self.shared.idle.close();
    }

    /// Quiesces the runtime and returns the exact final snapshot plus the
    /// merged lifetime report. Producer handles should be flushed or dropped
    /// first; a handle that submits after shutdown panics (its `Drop`
    /// discards instead).
    #[must_use]
    pub fn shutdown(mut self) -> RuntimeResult {
        self.close_and_join(true);
        let workers = self.shared.workers;
        let elapsed = self.started.elapsed();
        let metrics = self.shared.metrics();
        let snapshot = self.shared.backend.snapshot();
        RuntimeResult {
            snapshot,
            report: ThroughputReport {
                threads: workers,
                updates: metrics.updates_applied,
                reads: metrics.handle_reads,
                elapsed,
                read_cost: metrics.read_cost,
                buffer_stats: metrics.buffer_stats,
                metrics,
            },
        }
    }
}

impl Drop for CoupRuntime {
    /// Dropping without [`CoupRuntime::shutdown`] still quiesces: remaining
    /// published updates are applied and workers join, so no submitted
    /// update is ever lost — only the final report is forfeited.
    fn drop(&mut self) {
        if !self.lock_drainers().live.is_empty() {
            self.close_and_join(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::stress_factor;

    fn counting_runtime(lanes: usize, workers: usize, batch: usize) -> CoupRuntime {
        RuntimeBuilder::new(CommutativeOp::AddU64, lanes)
            .workers(workers)
            .batch_capacity(batch)
            .build()
    }

    #[test]
    fn builder_defaults_and_accessors() {
        let rt = RuntimeBuilder::new(CommutativeOp::AddU32, 64).build();
        assert_eq!(rt.op(), CommutativeOp::AddU32);
        assert_eq!(rt.lanes(), 64);
        assert_eq!(rt.workers(), 1);
        assert_eq!(rt.backend_name(), "coup");
        let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 8)
            .backend(BackendKind::Atomic)
            .workers(3)
            .build();
        assert_eq!(rt.backend_name(), "atomic");
        assert_eq!(rt.workers(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        let _ = RuntimeBuilder::new(CommutativeOp::AddU64, 8)
            .workers(0)
            .build();
    }

    #[test]
    fn full_batches_flush_by_size_alone() {
        let rt = counting_runtime(8, 2, 4);
        let mut sub = rt.submitter();
        for _ in 0..8 {
            sub.push(3, 1); // two full batches, no explicit flush
        }
        assert_eq!(sub.pending(), 0, "full batches were published");
        rt.drain();
        assert_eq!(rt.read(3), 8);
        let (submitted, applied) = rt.queue_depth();
        assert_eq!((submitted, applied), (8, 8));
    }

    #[test]
    fn explicit_flush_publishes_partial_batches() {
        let rt = counting_runtime(8, 1, 1024);
        let mut handle = rt.handle();
        handle.push(0, 5);
        handle.push(1, 7);
        assert_eq!(handle.submitter.pending(), 2);
        handle.flush();
        rt.drain();
        assert_eq!(rt.read(0), 5);
        assert_eq!(handle.read(1), 7);
    }

    #[test]
    fn dropping_a_handle_flushes_its_batch() {
        let rt = counting_runtime(8, 2, 1024);
        let mut sub = rt.submitter();
        sub.push(2, 9);
        drop(sub); // far below batch capacity: only Drop can publish this
        rt.drain();
        assert_eq!(rt.read(2), 9);
    }

    #[test]
    fn clones_are_independent_producers() {
        let rt = counting_runtime(8, 2, 16);
        let mut a = rt.submitter();
        a.push(0, 1);
        let b = a.clone();
        assert_eq!(b.pending(), 0, "a clone starts with an empty batch");
        drop(a);
        drop(b);
        rt.drain();
        assert_eq!(rt.read(0), 1);
    }

    #[test]
    fn typed_handles_check_the_operation_once() {
        let rt = RuntimeBuilder::new(CommutativeOp::Or64, 8).build();
        let mut bits = rt.counter::<tag::Or64>();
        bits.apply(1, 0b1010);
        bits.apply(1, 0b0101);
        bits.flush();
        rt.drain();
        assert_eq!(bits.get(1), 0b1111);
    }

    #[test]
    #[should_panic(expected = "typed handle mismatch")]
    fn mismatched_typed_handle_is_rejected() {
        let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 8).build();
        let _ = rt.counter::<tag::Or64>();
    }

    #[test]
    fn counter_convenience_methods_add() {
        let rt = counting_runtime(8, 1, 4);
        let mut counter = rt.counter::<tag::Add64>();
        counter.add(5, 41);
        counter.increment(5);
        counter.flush();
        rt.drain();
        assert_eq!(counter.get(5), 42);
        assert_eq!(counter.raw().lanes(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_lane_is_rejected_at_push() {
        let rt = counting_runtime(8, 1, 4);
        rt.submitter().push(8, 1);
    }

    #[test]
    fn shutdown_returns_exact_snapshot_and_merged_report() {
        let rt = counting_runtime(4, 2, 3);
        let mut h = rt.handle();
        for lane in 0..4 {
            for _ in 0..5 {
                h.push(lane, 2);
            }
        }
        h.flush();
        let _ = h.read(0);
        drop(h);
        let result = rt.shutdown();
        assert_eq!(result.snapshot, vec![10, 10, 10, 10]);
        assert_eq!(result.report.updates, 20);
        assert_eq!(result.report.reads, 1);
        assert_eq!(result.report.threads, 2);
    }

    #[test]
    fn shutdown_drains_batches_still_queued() {
        // A burst larger than the workers can have applied by the time
        // shutdown is called: closing the gate must still apply everything.
        let rt = counting_runtime(16, 1, 8);
        let mut sub = rt.submitter();
        for i in 0..4096 {
            sub.push(i % 16, 1);
        }
        drop(sub);
        let result = rt.shutdown();
        assert_eq!(result.snapshot, vec![256u64; 16]);
        assert_eq!(result.report.updates, 4096);
    }

    #[test]
    #[should_panic(expected = "shut down")]
    fn submitting_after_shutdown_panics() {
        let rt = counting_runtime(8, 1, 2);
        let mut sub = rt.submitter();
        let result = rt.shutdown();
        assert_eq!(result.report.updates, 0);
        sub.push(0, 1);
        sub.push(0, 1); // fills the batch → submit → panic
    }

    #[test]
    fn atomic_and_coup_runtimes_agree_through_the_frontend() {
        let totals: Vec<Vec<u64>> = [BackendKind::Atomic, BackendKind::Coup]
            .into_iter()
            .map(|kind| {
                let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 32)
                    .backend(kind)
                    .workers(2)
                    .batch_capacity(7)
                    .build();
                std::thread::scope(|scope| {
                    for p in 0..3 {
                        let mut sub = rt.submitter();
                        scope.spawn(move || {
                            for i in 0..500 {
                                sub.push((p * 7 + i) % 32, 1 + (i as u64 % 3));
                            }
                        });
                    }
                });
                rt.shutdown().snapshot
            })
            .collect();
        assert_eq!(totals[0], totals[1]);
    }

    #[test]
    fn run_workers_gives_barriers_and_read_your_writes() {
        let rt = counting_runtime(8, 4, 16);
        let (results, elapsed) = rt.run_workers(|ctx| {
            ctx.update(ctx.worker(), 7);
            assert_eq!(ctx.read(ctx.worker()), 7, "read-your-writes");
            ctx.barrier();
            // After the barrier every worker's lane is visible to everyone.
            for w in 0..ctx.workers() {
                assert_eq!(ctx.read(w), 7);
            }
            ctx.worker()
        });
        assert_eq!(results, vec![0, 1, 2, 3]);
        assert!(elapsed > Duration::ZERO);
        // Workers flushed on job exit: the snapshot is exact with no drain.
        assert_eq!(rt.snapshot(), vec![7, 7, 7, 7, 0, 0, 0, 0]);
    }

    #[test]
    fn jobs_and_submissions_interleave_safely() {
        let rt = counting_runtime(4, 2, 4);
        let mut sub = rt.submitter();
        for _ in 0..8 {
            sub.push(0, 1);
        }
        rt.run_workers(|ctx| {
            // The rings were drained before the job started.
            if ctx.worker() == 0 {
                assert_eq!(ctx.read(0), 8);
            }
            ctx.update(1, 1);
        });
        for _ in 0..8 {
            sub.push(0, 1);
        }
        drop(sub);
        let result = rt.shutdown();
        assert_eq!(result.snapshot, vec![16, 2, 0, 0]);
    }

    /// The text of a panic payload (`&str` or `String`), empty otherwise.
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    /// A job thread's panic re-raises with its own payload on a runtime
    /// whose drainers were never spawned (the kernel executors' case).
    #[test]
    fn run_workers_preserves_worker_panic_payloads() {
        let rt = counting_runtime(4, 2, 2);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run_workers(|ctx| {
                if ctx.worker() == 1 {
                    panic!("kernel assertion failed: lane 7 mismatch");
                }
            });
        }));
        let message = panic_message(panicked.expect_err("the worker panic must propagate"));
        assert!(
            message.contains("lane 7 mismatch"),
            "original payload lost: {message:?}"
        );
    }

    #[test]
    fn a_panicking_job_does_not_wedge_the_queue() {
        let rt = counting_runtime(4, 2, 2);
        // A live submitter: the job retires running drainers.
        let mut sub = rt.submitter();
        sub.push(1, 1);
        sub.push(1, 1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run_workers(|ctx| {
                if ctx.worker() == 1 {
                    panic!("job assertion failed: lane 7 mismatch");
                }
            });
        }));
        // The job thread's own payload survives the join.
        let message = panic_message(panicked.expect_err("the job panic must propagate"));
        assert!(
            message.contains("lane 7 mismatch"),
            "original payload lost: {message:?}"
        );
        // The drainers respawned: submissions still flow end to end.
        for _ in 0..4 {
            sub.push(1, 1);
        }
        drop(sub);
        rt.drain();
        assert_eq!(rt.read(1), 6);
        // And a later job still runs.
        let (results, _) = rt.run_workers(|ctx| ctx.worker());
        assert_eq!(results, vec![0, 1]);
    }

    /// A handle taken inside a job must not wait for that job, whether the
    /// job retired live drainers or the runtime never spawned any; its
    /// updates land once the job's drainers (re)start.
    #[test]
    fn a_job_may_take_a_handle() {
        for live_workers in [true, false] {
            let rt = counting_runtime(4, 2, 4);
            if live_workers {
                drop(rt.submitter());
            }
            rt.run_workers(|ctx| {
                // Fewer updates than one ring holds, so no push parks on a
                // drainer the job holds back.
                let mut sub = rt.submitter();
                for _ in 0..8 {
                    sub.push(ctx.worker(), 1);
                }
            });
            rt.drain();
            assert_eq!(rt.snapshot(), vec![8, 8, 0, 0], "live: {live_workers}");
            assert_eq!(rt.shutdown().report.updates, 16);
        }
    }

    /// Jobs retire and respawn the drainers while producers keep 8-update
    /// rings full: each job sees exactly what was applied before it — at
    /// least everything submitted before the call — and nothing is lost or
    /// doubled across the hand-offs.
    #[test]
    fn jobs_interleave_with_a_producer_flood() {
        const LANES: usize = 16;
        let producers = 3u64;
        let per_producer = 2_048 * stress_factor();
        let jobs = 20 * stress_factor();
        // Lane 16 takes the jobs' own updates, away from the producers'.
        let rt = RuntimeBuilder::new(CommutativeOp::AddU64, LANES + 1)
            .workers(2)
            .batch_capacity(4)
            .queue_capacity(8)
            .build();
        std::thread::scope(|scope| {
            for producer in 0..producers {
                let mut sub = rt.submitter();
                scope.spawn(move || {
                    for i in 0..per_producer {
                        sub.push(((producer + i) % LANES as u64) as usize, 1);
                    }
                });
            }
            for _ in 0..jobs {
                let (submitted_before, _) = rt.queue_depth();
                let (seen, _) = rt.run_workers(|ctx| {
                    // No drainer runs during a job: `applied` holds still
                    // and every applied update is visible here.
                    let (_, applied) = rt.queue_depth();
                    let total: u64 = (0..LANES).map(|lane| ctx.read(lane)).sum();
                    ctx.barrier();
                    ctx.update(LANES, 1);
                    (applied, total)
                });
                for (applied, total) in seen {
                    assert!(
                        applied >= submitted_before,
                        "job started before draining: {applied} < {submitted_before}"
                    );
                    assert_eq!(total, applied, "job sees exactly the applied updates");
                }
            }
        });
        let result = rt.shutdown();
        let per_lane = producers * per_producer / LANES as u64;
        let mut expected = vec![per_lane; LANES];
        expected.push(2 * jobs);
        assert_eq!(result.snapshot, expected);
        assert_eq!(result.report.updates, producers * per_producer);
    }

    #[test]
    fn a_tiny_queue_capacity_applies_backpressure_without_losing_updates() {
        // queue_capacity 1: every producer's ring holds one update, so
        // producers constantly park on the full edge and must be woken by
        // worker drains — every update still lands.
        let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 8)
            .workers(1)
            .batch_capacity(2)
            .queue_capacity(1)
            .build();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let mut sub = rt.submitter();
                scope.spawn(move || {
                    for i in 0..400 {
                        sub.push(i % 8, 1);
                    }
                });
            }
        });
        let result = rt.shutdown();
        assert_eq!(result.snapshot, vec![150u64; 8]);
        assert_eq!(result.report.updates, 1200);
    }

    #[test]
    fn update_read_through_job_ctx_matches_backends() {
        for kind in [BackendKind::Atomic, BackendKind::Coup] {
            let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 2)
                .backend(kind)
                .workers(1)
                .build();
            let (values, _) = rt.run_workers(|ctx| {
                ctx.update(0, 5);
                ctx.update_read(0, 3)
            });
            assert_eq!(values, vec![8], "{kind:?}");
        }
    }

    #[test]
    fn workers_spawn_lazily_on_the_first_handle() {
        let rt = counting_runtime(4, 2, 4);
        assert!(
            rt.lock_drainers().live.is_empty(),
            "no resident workers before the first handle"
        );
        // Kernel-only use never spawns drainers.
        rt.run_workers(|ctx| ctx.update(0, 1));
        assert!(rt.lock_drainers().live.is_empty());
        let mut sub = rt.submitter();
        assert_eq!(
            rt.lock_drainers().live.len(),
            2,
            "first handle spawns workers"
        );
        sub.push(1, 5);
        drop(sub);
        let result = rt.shutdown();
        assert_eq!(result.snapshot, vec![2, 5, 0, 0]);
    }

    #[test]
    fn facade_stale_reads_bound_buffered_updates_and_count_in_metrics() {
        let rt = counting_runtime(8, 1, 4);
        let mut sub = rt.submitter();
        for _ in 0..8 {
            sub.push(2, 1);
        }
        drop(sub);
        rt.drain();
        // Applied but still buffered in worker 0's privatized slot (the
        // default threshold never flushes 8 updates): the relaxed tier sees
        // the un-reduced store word and reports the full deficit.
        let stale = rt.read_stale(2);
        assert_eq!((stale.value, stale.staleness), (0, 8));
        assert_eq!(rt.read(2), 8, "the exact tier reduces");
        // run_workers flushes every worker buffer on job exit.
        rt.run_workers(|_| {});
        let stale = rt.read_stale(2);
        assert_eq!((stale.value, stale.staleness), (8, 0));
        let metrics = rt.metrics();
        assert_eq!(metrics.stale_reads, 2);
        // The staleness histogram is compiled out without `telemetry`.
        let (count, sum) = if cfg!(feature = "telemetry") {
            (2, 8)
        } else {
            (0, 0)
        };
        assert_eq!(
            (metrics.staleness.count(), metrics.staleness.sum),
            (count, sum)
        );
    }

    /// The accounting contract of the facade: a handle's reads land in the
    /// handle's own block — lent on the first read, given back on drop with
    /// its counts kept — and no worker block's read counters move. The
    /// snapshot's reads have no owner and count nothing.
    #[test]
    fn handle_reads_count_into_the_handles_own_block() {
        fn send_only<T: Send>() {}
        send_only::<LaneHandle>();
        let rt = counting_runtime(8, 2, 4);
        let mut handle = rt.handle();
        handle.push(1, 3);
        handle.flush();
        rt.drain();
        assert!(handle.submitter.block.get().is_none(), "no read, no block");
        let reads = 25u64;
        for _ in 0..reads {
            assert_eq!(handle.read(1), 3);
        }
        let _ = handle.read_stale(1);
        let block = handle
            .submitter
            .block
            .get()
            .expect("the first read lent one");
        assert_eq!(block.reads.get(), reads);
        assert_eq!(block.handle_reads.get(), reads);
        assert_eq!(block.stale_reads.get(), 1);
        for worker in rt.shared.telemetry.workers() {
            assert_eq!(
                (worker.reads.get(), worker.handle_reads.get()),
                (0, 0),
                "handle reads must not touch a worker block"
            );
        }
        let before = rt.metrics();
        assert_eq!(rt.snapshot()[1], 3);
        assert_eq!(
            rt.metrics().read_cost,
            before.read_cost,
            "snapshot is uncounted"
        );
        drop(handle);
        let after = rt.metrics();
        assert_eq!((after.handle_reads, after.read_cost.reads), (reads, reads));
        // A facade read borrows the returned block and counts on from it.
        assert_eq!(rt.read(1), 3);
        assert_eq!(rt.metrics().handle_reads, reads + 1);
        assert_eq!(rt.shutdown().report.reads, reads + 1);
    }

    #[test]
    fn typed_and_raw_handles_serve_the_stale_tier() {
        let rt = counting_runtime(8, 1, 2);
        let mut counter = rt.counter::<tag::Add64>();
        counter.add(3, 20);
        counter.add(3, 22);
        counter.flush();
        rt.drain();
        // The bound counts outstanding *deltas*, not their magnitude: both
        // updates sit in worker 0's buffer, so the store word is 0 and two
        // deltas are reported missing.
        let stale = counter.get_stale(3);
        assert_eq!((stale.value, stale.staleness), (0, 2));
        assert_eq!(counter.get(3), 42, "the exact tier reduces");
        let handle = rt.handle();
        let stale = handle.read_stale(3);
        assert_eq!(stale.value, 0, "exact reads do not migrate the deltas");
        assert_eq!(stale.staleness, 2);
    }

    #[test]
    fn shard_stats_track_claims_and_recycling() {
        let rt = counting_runtime(4, 1, 2);
        let mut a = rt.submitter();
        a.push(0, 1);
        drop(a); // publish + retire slot 0
        rt.drain();
        // The slot frees once drained; the next producer recycles it.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut b = rt.submitter();
            b.push(1, 1);
            drop(b);
            rt.drain();
            let stats = rt.shard_stats();
            if stats.len() == 1 && stats[0].claims >= 2 {
                assert!(!stats[0].live);
                assert!(stats[0].drained >= 2);
                break;
            }
            assert!(
                Instant::now() < deadline,
                "slot 0 was never recycled: {stats:?}"
            );
        }
        let result = rt.shutdown();
        assert_eq!(result.snapshot[0], 1);
    }
}
