//! Bounded per-worker event trace rings: the structured-event half of the
//! telemetry subsystem.
//!
//! Each worker has a power-of-two ring of fixed-width slots. Rings are
//! multi-writer by design (a producer parked on a full ring traces into its
//! worker's ring): recording is lock-free and wait-free (one `fetch_add` on
//! the sampling tick, one to claim a sequence number, three plain stores),
//! and the ring **overwrites** when full — the trace is a lossy tail of
//! recent activity, never back-pressure on the hot path. Draining validates
//! each slot with a per-slot seqlock ticket so a concurrently overwritten
//! entry is counted as dropped instead of returned torn. See the observability section of ARCHITECTURE.md for the overwrite
//! semantics in prose.
//!
//! With the `telemetry` feature disabled the ring type is still present but
//! never allocated, and [`TraceEvent`]/[`TraceKind`] remain available so the
//! drain API keeps its signature (it returns an empty vector).

/// The structured event kinds the runtime records.
///
/// Each maps to one hot-path site in `backend.rs` / `runtime.rs`; the `line`
/// field of the enclosing [`TraceEvent`] carries the store line (or lane)
/// involved, and `0` where no line applies (queue events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A worker claimed a private buffer slot for a store line.
    Privatize,
    /// Capacity pressure migrated a dirty victim line back to the store
    /// (the software analogue of a U-state eviction).
    Evict,
    /// A dirty slot was reduced into the store (threshold flush, explicit
    /// flush, or the migration half of an eviction).
    Flush,
    /// A reader exhausted its retry budget and escalated to the read-hold
    /// slow path, pinning writer buffers while it folds.
    ReadHoldEscalate,
    /// An update found its line read-held across the whole probe window and
    /// bypassed the buffers with a direct store RMW.
    HeldBypass,
    /// A thread went to sleep on a parker: a drainer whose ring stripe was
    /// empty, or a producer whose ring was full.
    QueuePark,
    /// A thread woke from a counted park.
    QueueUnpark,
    /// A drainer consumed a published batch from a shard ring; the `line`
    /// field carries the directory slot index.
    ShardDrain,
}

impl TraceKind {
    /// Stable low-byte encoding used inside the ring's packed data word.
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            TraceKind::Privatize => 0,
            TraceKind::Evict => 1,
            TraceKind::Flush => 2,
            TraceKind::ReadHoldEscalate => 3,
            TraceKind::HeldBypass => 4,
            TraceKind::QueuePark => 5,
            TraceKind::QueueUnpark => 6,
            TraceKind::ShardDrain => 7,
        }
    }

    /// Inverse of [`TraceKind::as_u8`]; `None` for torn/garbage bytes.
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    pub(crate) fn from_u8(byte: u8) -> Option<Self> {
        Some(match byte {
            0 => TraceKind::Privatize,
            1 => TraceKind::Evict,
            2 => TraceKind::Flush,
            3 => TraceKind::ReadHoldEscalate,
            4 => TraceKind::HeldBypass,
            5 => TraceKind::QueuePark,
            6 => TraceKind::QueueUnpark,
            7 => TraceKind::ShardDrain,
            _ => return None,
        })
    }

    /// Short lowercase label (`privatize`, `evict`, ...) for display.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Privatize => "privatize",
            TraceKind::Evict => "evict",
            TraceKind::Flush => "flush",
            TraceKind::ReadHoldEscalate => "read_hold_escalate",
            TraceKind::HeldBypass => "held_bypass",
            TraceKind::QueuePark => "queue_park",
            TraceKind::QueueUnpark => "queue_unpark",
            TraceKind::ShardDrain => "shard_drain",
        }
    }
}

/// One drained trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Per-ring sequence number (monotone within one worker's ring; gaps
    /// mark overwritten entries).
    pub seq: u64,
    /// Nanoseconds since the owning registry was created (monotonic clock).
    pub timestamp_ns: u64,
    /// Ring index the event was recorded into — the worker id. A producer
    /// parked on a full ring records into its ring's worker; a recorder
    /// with no ring (a handle read's escalation) is not traced.
    pub worker: usize,
    /// What happened.
    pub kind: TraceKind,
    /// Store line (or lane) involved; `0` for queue events.
    pub line: usize,
}

#[cfg(feature = "telemetry")]
pub(crate) use ring::TraceRing;

#[cfg(feature = "telemetry")]
mod ring {
    use crate::sync::atomic::{fence, AtomicU64, Ordering};
    use crate::sync::Mutex;

    use super::{TraceEvent, TraceKind};

    /// The ticket-publish ordering the `coup_model_mutation` CI lane
    /// weakens to Relaxed; the trace-ring model test catches the torn
    /// stamp/data pair the weakened build admits (see model_tests.rs).
    #[cfg(not(coup_model_mutation))]
    const TICKET_PUBLISH: Ordering = Ordering::Release; // ord: trace-ticket
    #[cfg(coup_model_mutation)]
    const TICKET_PUBLISH: Ordering = Ordering::Relaxed;

    const KIND_SHIFT: u32 = 56;
    const WORKER_SHIFT: u32 = 48;
    const LINE_MASK: u64 = (1 << WORKER_SHIFT) - 1;

    pub(crate) fn pack(worker: usize, kind: TraceKind, line: usize) -> u64 {
        ((kind.as_u8() as u64) << KIND_SHIFT)
            | (((worker as u64) & 0xFF) << WORKER_SHIFT)
            | ((line as u64) & LINE_MASK)
    }

    /// One slot = a seqlock ticket plus two relaxed data words. The writer
    /// invalidates the ticket, publishes the data, then stores `seq + 1`
    /// with Release; the drainer accepts an entry only if the ticket reads
    /// `seq + 1` both before and after the data loads (with an Acquire
    /// fence between), so overwrites surface as drops, never as torn events.
    struct Slot {
        ticket: AtomicU64,
        stamp: AtomicU64,
        data: AtomicU64,
    }

    /// A bounded, overwriting, per-worker trace ring, cache-line aligned so
    /// one worker's tick and head RMWs never contend with a neighbour's.
    #[repr(align(64))]
    pub(crate) struct TraceRing {
        slots: Box<[Slot]>,
        /// Events offered to this ring, sampled or not: the sampling gate.
        tick: AtomicU64,
        head: AtomicU64,
        /// Entries lost to overwrite or torn-read rejection, counted at
        /// drain time; guarded by `cursor`'s mutex discipline (stored as an
        /// atomic only so `dropped()` can read it without the lock).
        dropped: AtomicU64,
        cursor: Mutex<u64>,
        mask: u64,
    }

    impl TraceRing {
        pub(crate) fn new(capacity: usize) -> Self {
            let capacity = capacity.next_power_of_two().max(2);
            let slots = (0..capacity)
                .map(|_| Slot {
                    ticket: AtomicU64::new(0),
                    stamp: AtomicU64::new(0),
                    data: AtomicU64::new(0),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice();
            TraceRing {
                slots,
                tick: AtomicU64::new(0),
                head: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                cursor: Mutex::new(0),
                mask: capacity as u64 - 1,
            }
        }

        /// Counts one offered event and says whether the sampling rate
        /// keeps it: every event whose tick has no bit of `mask` set.
        pub(crate) fn sample(&self, mask: u64) -> bool {
            self.tick.fetch_add(1, Ordering::Relaxed) & mask == 0
        }

        /// Total events ever recorded into this ring.
        pub(crate) fn recorded(&self) -> u64 {
            self.head.load(Ordering::Relaxed)
        }

        /// Entries lost so far (overwritten before a drain reached them, or
        /// rejected as torn during a drain).
        pub(crate) fn dropped(&self) -> u64 {
            self.dropped.load(Ordering::Relaxed)
        }

        pub(crate) fn record(&self, now_ns: u64, worker: usize, kind: TraceKind, line: usize) {
            let seq = self.head.fetch_add(1, Ordering::Relaxed);
            let slot = &self.slots[(seq & self.mask) as usize];
            // Seqlock write: invalidate, publish data, validate. The Release
            // fence orders the invalidation before the data stores for any
            // drainer whose data load observes them (fence-to-fence pairing
            // with the Acquire fence in `drain_into`).
            slot.ticket.store(0, Ordering::Relaxed);
            // ord: trace-ticket
            fence(Ordering::Release);
            slot.stamp.store(now_ns, Ordering::Relaxed);
            slot.data.store(pack(worker, kind, line), Ordering::Relaxed);
            slot.ticket.store(seq + 1, TICKET_PUBLISH);
        }

        /// Drains every entry recorded since the previous drain into `out`,
        /// oldest first; concurrently overwritten or torn entries are
        /// skipped and counted into `dropped`.
        pub(crate) fn drain_into(&self, out: &mut Vec<TraceEvent>) {
            let mut cursor = self.cursor.lock().expect("trace cursor poisoned");
            // The head is only ever bumped with Relaxed RMWs, so an
            // Acquire here would pair with nothing; drain correctness rests
            // entirely on the per-slot seqlock tickets below.
            let head = self.head.load(Ordering::Relaxed);
            let capacity = self.mask + 1;
            // Anything more than a full ring behind the head is already
            // overwritten; skip straight past it.
            let start = (*cursor).max(head.saturating_sub(capacity));
            let mut dropped = start - *cursor;
            for seq in start..head {
                let slot = &self.slots[(seq & self.mask) as usize];
                // ord: trace-ticket
                let before = slot.ticket.load(Ordering::Acquire);
                if before != seq + 1 {
                    dropped += 1;
                    continue;
                }
                let stamp = slot.stamp.load(Ordering::Relaxed);
                let data = slot.data.load(Ordering::Relaxed);
                // ord: trace-ticket
                fence(Ordering::Acquire);
                let after = slot.ticket.load(Ordering::Relaxed);
                if after != seq + 1 {
                    dropped += 1;
                    continue;
                }
                let kind = match TraceKind::from_u8((data >> KIND_SHIFT) as u8) {
                    Some(kind) => kind,
                    None => {
                        dropped += 1;
                        continue;
                    }
                };
                out.push(TraceEvent {
                    seq,
                    timestamp_ns: stamp,
                    worker: ((data >> WORKER_SHIFT) & 0xFF) as usize,
                    kind,
                    line: (data & LINE_MASK) as usize,
                });
            }
            if dropped > 0 {
                self.dropped.fetch_add(dropped, Ordering::Relaxed);
            }
            *cursor = head;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn drains_what_was_recorded_in_order() {
            let ring = TraceRing::new(16);
            for line in 0..5 {
                ring.record(line as u64 * 10, 3, TraceKind::Privatize, line);
            }
            let mut out = Vec::new();
            ring.drain_into(&mut out);
            assert_eq!(out.len(), 5);
            assert_eq!(ring.dropped(), 0);
            for (i, event) in out.iter().enumerate() {
                assert_eq!(event.seq, i as u64);
                assert_eq!(event.timestamp_ns, i as u64 * 10);
                assert_eq!(event.worker, 3);
                assert_eq!(event.kind, TraceKind::Privatize);
                assert_eq!(event.line, i);
            }
        }

        #[test]
        fn overwrite_drops_the_oldest_entries() {
            let ring = TraceRing::new(4);
            for line in 0..10 {
                ring.record(line as u64, 0, TraceKind::Flush, line);
            }
            let mut out = Vec::new();
            ring.drain_into(&mut out);
            // Capacity-4 ring after 10 records: at most the last 4 survive.
            assert!(out.len() <= 4, "kept {} events", out.len());
            assert_eq!(out.len() as u64 + ring.dropped(), 10);
            assert_eq!(out.last().expect("tail survives").line, 9);
            // A second drain with no new records returns nothing.
            let mut again = Vec::new();
            ring.drain_into(&mut again);
            assert!(again.is_empty());
        }

        #[test]
        fn concurrent_overwrite_never_yields_torn_events() {
            use crate::sync::atomic::AtomicBool;
            let ring = TraceRing::new(8);
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let ring = &ring;
                let stop = &stop;
                scope.spawn(move || {
                    let mut seq = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // timestamp == line * 7 is the torn-read detector.
                        ring.record(seq * 7, 1, TraceKind::Evict, seq as usize);
                        seq += 1;
                    }
                });
                let mut drained = Vec::new();
                for _ in 0..200 {
                    ring.drain_into(&mut drained);
                    for event in drained.drain(..) {
                        assert_eq!(
                            event.timestamp_ns,
                            event.line as u64 * 7,
                            "torn entry escaped the seqlock ticket"
                        );
                    }
                    crate::sync::thread::yield_now();
                }
                stop.store(true, Ordering::Relaxed);
            });
        }

        #[test]
        fn kind_byte_round_trips() {
            for kind in [
                TraceKind::Privatize,
                TraceKind::Evict,
                TraceKind::Flush,
                TraceKind::ReadHoldEscalate,
                TraceKind::HeldBypass,
                TraceKind::QueuePark,
                TraceKind::QueueUnpark,
                TraceKind::ShardDrain,
            ] {
                assert_eq!(TraceKind::from_u8(kind.as_u8()), Some(kind));
            }
            assert_eq!(TraceKind::from_u8(200), None);
        }
    }
}
