//! The sanitizer battery: drives every `ord:` pairing group of the runtime
//! on real threads under the `coup-san` facade, then asserts the
//! happens-before report is clean, every tag group was dynamically
//! exercised, and the static site table round-trips byte-identically.
//!
//! Build: `RUSTFLAGS="--cfg coup_san" cargo test -p coup-runtime
//! --features san --test san_battery`. Under
//! `--cfg coup_san_mutation="ring_publish"` or `="epoch_publish"` the
//! clean battery is compiled out and replaced by a detection test that
//! *requires* the sanitizer to flag the weakened ordering — the
//! real-thread analogue of the model checker's inverted mutation lane.
#![cfg(all(coup_san, feature = "san"))]

use coup_protocol::ops::CommutativeOp;
use coup_runtime::{AtomicBackend, BufferConfig, CoupBackend, RuntimeBuilder, UpdateBackend};

/// store-word, buffer-tag-publish, seqlock-epoch, buffer-word,
/// writer-bitmap, read-hold, evict-stats: the backend-side protocols.
fn exercise_backend() {
    // Cross-thread buffered updates + reads: privatization, writer bitmap,
    // buffer words, tag publishes, and (via threshold flushes) the seqlock
    // epoch protocol.
    let backend = CoupBackend::with_config(
        CommutativeOp::AddU64,
        256,
        2,
        2, // flush threshold 2: the second update on a slot migrates it
        BufferConfig::unbounded(),
    );
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..128u64 {
                backend.update(1, (i % 32) as usize, 1);
            }
            backend.flush(1);
        });
        for i in 0..128u64 {
            backend.update(0, (i % 32) as usize, 1);
        }
        backend.flush(0);
    });
    // Re-dirty one slot so the next read walks a buffer whose epoch has
    // already been published by a migration: that read's Acquire epoch
    // load is the edge that pairs `seqlock-epoch`.
    backend.update(0, 3, 1);
    for lane in 0..32 {
        let _ = backend.read(0, lane);
    }
    // The escalated read path (read holds) never triggers on a quiet
    // backend, so drive it through the sanitizer hook.
    let _ = backend.read_escalated(0, 3);

    // Dirty capacity evictions: a one-line buffer updated on two distinct
    // store lines must evict, and the stats fold acquires the eviction
    // counter (`evict-stats`).
    let bounded = CoupBackend::with_config(
        CommutativeOp::AddU64,
        1024,
        1,
        64, // high threshold: evictions, not threshold flushes, do the work
        BufferConfig::bounded(1),
    );
    for i in 0..64u64 {
        // Lanes 0 and 512 map to different store lines, so each update
        // alternately evicts the other's dirty slot.
        bounded.update(0, if i % 2 == 0 { 0 } else { 512 }, 1);
    }
    let stats = bounded.telemetry().metrics().buffer_stats;
    assert!(stats.evictions > 0, "bounded buffer must evict: {stats:?}");

    // Direct atomic RMWs on the shared store (`store-word` both sides).
    let atomic = AtomicBackend::new(CommutativeOp::AddU64, 8);
    atomic.update(0, 1, 5);
    atomic.update(0, 1, 6);
    assert_eq!(atomic.read(0, 1), 11);
}

/// ring-publish, ring-consume, shard-claim, shard-retire, queue-wake,
/// drain-quiesce, trace-ticket, plus the tiered read's
/// stale-pending (the bound's pending-counter walk): the submission-queue
/// and runtime-facade protocols.
fn exercise_runtime() {
    let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 64)
        .workers(2)
        .batch_capacity(4)
        .queue_capacity(8)
        .build();
    // Spawn the resident workers before the producer flood (handles spawn
    // them lazily) so `run_workers` below really retires live drainers.
    let warmup = rt.submitter();
    drop(warmup);

    std::thread::scope(|scope| {
        for producer in 0..2 {
            let mut sub = rt.submitter();
            scope.spawn(move || {
                for i in 0..1000u64 {
                    sub.push(((producer * 7 + i as usize) % 64) as usize, 1);
                }
                // Dropping the submitter publishes the tail batch and
                // retires the shard slot (`shard-retire` release side).
            });
        }
        // A job while producers flood an 8-slot ring guarantees the ring
        // fills: producers must re-read the consumer head (`ring-consume`
        // acquire side) once the respawned drainers consume. The hand-off
        // to and from the job threads is a thread join and spawn, so it
        // carries no tag.
        let (sums, _) = rt.run_workers(|ctx| {
            ctx.update(0, 1);
            ctx.barrier();
            ctx.worker()
        });
        assert_eq!(sums.len(), 2);
    });
    // Quiescence: the drain target check acquires the workers' applied
    // bumps (`drain-quiesce`).
    rt.drain();
    assert_eq!(rt.read(0) + (1..64).map(|l| rt.read(l)).sum::<u64>(), 2002);
    // The stale tier: the bound's writer-bitmap + pending-counter walk
    // acquires each buffer's pending publishes (`stale-pending`).
    let stale = rt.read_stale(0);
    assert!(
        stale.value + stale.staleness >= rt.read(0),
        "the add-one bound must cover the exact read"
    );
    // Draining the event trace acquires every worker's ticket publishes
    // (`trace-ticket`).
    let events = rt.telemetry().drain_trace();
    assert!(!events.is_empty(), "tracing is on by default");
    let result = rt.shutdown();
    assert_eq!(result.snapshot.iter().sum::<u64>(), 2002);
}

/// The clean half of the cross-check. One mega-test on purpose: the
/// sanitizer's ledgers are process-global, so a single verification point
/// sees every protocol exercised above with nothing else interleaved.
#[cfg(not(any(
    coup_san_mutation = "ring_publish",
    coup_san_mutation = "epoch_publish"
)))]
#[test]
fn battery_exercises_every_tag_group_and_verifies_clean() {
    exercise_backend();
    exercise_runtime();

    // `verify` panics (listing each violation) on untracked-site,
    // ordering-drift, unpublished-acquire, or expected-ordering-never-ran.
    let report = coup_san::verify();

    assert!(
        report.table_entries >= 30,
        "suspiciously small site table ({} entries) — did the lint scan fail?",
        report.table_entries
    );
    assert!(
        !report.sites.is_empty() && !report.edges.is_empty(),
        "the battery must observe dynamic sites and happens-before edges"
    );
    // Every runtime dynamic edge must resolve into the static table: an
    // unresolved endpoint means the lint scanner and `#[track_caller]`
    // disagree about where a site lives (drift the static pass can't see).
    let unresolved: Vec<String> = report
        .edges
        .iter()
        .filter(|e| !e.resolved)
        .map(|e| {
            format!(
                "{}:{} -> {}:{}",
                e.from_file, e.from_line, e.to_file, e.to_line
            )
        })
        .collect();
    assert!(unresolved.is_empty(), "unresolved edges: {unresolved:?}");
    // 100% ordering coverage: every `ord:` tag group in the table was
    // crossed by at least one observed happens-before edge.
    assert!(
        report.coverage_complete(),
        "uncovered `ord:` tag groups: {:?} (covered: {:?})",
        report.uncovered_tags,
        report.covered_tags
    );

    // Cross-check the other direction: the site table the sanitizer loaded
    // is the same one `coup-lint --sites` emits, byte for byte.
    let runtime_src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let lint_report = coup_lint::lint_dir(&runtime_src).expect("lint scan");
    assert!(lint_report.is_clean(), "{:?}", lint_report.diagnostics);
    let table = lint_report.site_table();
    let rendered = coup_lint::render_sites_json(&table);
    let reparsed = coup_lint::parse_sites_json(&rendered).expect("rendered table parses");
    assert_eq!(
        coup_lint::render_sites_json(&reparsed),
        rendered,
        "site table does not round-trip byte-identically"
    );
}

/// Inverted lane, ring half: with `RING_PUBLISH` weakened to `Relaxed`,
/// a worker's Acquire of the tail must observe a publication that carried
/// no Release edge — the sanitizer, not the model checker, has to flag it
/// on real threads.
#[cfg(coup_san_mutation = "ring_publish")]
#[test]
fn san_detects_weakened_ring_publish() {
    let rt = RuntimeBuilder::new(CommutativeOp::AddU64, 16)
        .workers(1)
        .batch_capacity(2)
        .build();
    let mut sub = rt.submitter();
    for i in 0..100u64 {
        sub.push((i % 16) as usize, 1);
    }
    sub.flush();
    rt.drain();
    drop(sub);
    let _ = rt.shutdown();

    let report = coup_san::snapshot();
    coup_san::write_report_if_requested(&report);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == "unpublished-acquire" && v.file == "ring.rs"),
        "sanitizer missed the weakened RING_PUBLISH: {:?}",
        report.violations
    );
}

/// Inverted lane, backend half: with `EPOCH_PUBLISH` weakened to
/// `Relaxed`, a reader's Acquire of a migrated slot's even epoch observes
/// a write that carried no Release edge (the migrate fence does not cover
/// the post-fence swaps — exactly the window the weakening opens).
#[cfg(coup_san_mutation = "epoch_publish")]
#[test]
fn san_detects_weakened_epoch_publish() {
    let backend =
        CoupBackend::with_config(CommutativeOp::AddU64, 64, 2, 2, BufferConfig::unbounded());
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                backend.update(1, 5, 1);
                backend.update(1, 5, 1); // second update migrates: epoch published
                backend.update(1, 5, 1); // re-dirty so readers walk the epoch
            })
            .join()
            .expect("writer thread");
    });
    // Reader on a different thread slot: its Acquire epoch load must see
    // the Relaxed-written even epoch.
    let _ = backend.read(0, 5);

    let report = coup_san::snapshot();
    coup_san::write_report_if_requested(&report);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == "unpublished-acquire" && v.file == "backend.rs"),
        "sanitizer missed the weakened EPOCH_PUBLISH: {:?}",
        report.violations
    );
}
