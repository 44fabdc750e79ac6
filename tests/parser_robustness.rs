//! The parsers that read committed or exported files must reject bad input
//! with an `Err`, never panic or overflow the stack:
//!
//! * `BenchReport::from_json` over `BENCH_runtime.json`;
//! * `MetricsSnapshot::from_json` / `from_prometheus` over the snapshot
//!   exports;
//! * `coup_lint::parse_sites_json` over a `coup-lint --sites` table.
//!
//! Each property applies a handful of byte edits (overwrite, insert,
//! delete) to a valid input. The edit bytes lean towards the formats'
//! structural characters, so most mutants get past the first byte and
//! exercise the nesting, string, number and schema paths.

use std::path::Path;

use proptest::prelude::*;

use coup_runtime::{BenchReport, MetricsSnapshot};

/// Bytes the edits draw from: JSON and exposition-format punctuation,
/// digits, escapes, and lone UTF-8 lead/continuation bytes.
fn edit_byte() -> impl Strategy<Value = u8> {
    prop::sample::select(b"{}[]\",:0123456789-.eE+\\u tfn#=\n\xC3\xA9\xFF".to_vec())
}

/// Up to eight `(kind, position, byte)` edits.
fn edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    prop::collection::vec((0u8..3, any::<usize>(), edit_byte()), 1..9)
}

/// Applies `edits` to `seed`: kind 0 overwrites, 1 inserts, 2 deletes at
/// `position` modulo the current length. Invalid UTF-8 is replaced, as a
/// caller reading the file into a `String` lossily would.
fn mutate(seed: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for &(kind, position, byte) in edits {
        let at = position % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = byte,
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn committed_bench_file() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_runtime.json");
    std::fs::read_to_string(path).expect("BENCH_runtime.json is committed")
}

fn sample_snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot {
        uptime_ns: 9_876_543,
        updates_submitted: 4_096,
        updates_applied: 4_000,
        handle_reads: 31,
        stale_reads: 12,
        queue_parks: 5,
        queue_unparks: 4,
        ..MetricsSnapshot::default()
    };
    snap.batch_size.buckets[8] = 16;
    snap.batch_size.sum = 4_000;
    snap.staleness.buckets[2] = 12;
    snap.staleness.sum = 30;
    snap
}

fn sample_site_table() -> String {
    let src = "// ord: edge\npub(crate) const PUBLISH: Ordering = Ordering::Release;\n\
               fn publish(x: &AtomicU64) { x.store(1, PUBLISH); }\n\
               fn consume(x: &AtomicU64) -> u64 {\n    x.load(Ordering::Acquire) // ord: edge\n}\n";
    let report = coup_lint::lint_sources(&[("a.rs".to_string(), src.to_string())]);
    coup_lint::render_sites_json(&report.site_table())
}

#[test]
fn the_unmutated_inputs_parse() {
    BenchReport::from_json(&committed_bench_file()).expect("committed bench file");
    let snap = sample_snapshot();
    assert_eq!(MetricsSnapshot::from_json(&snap.to_json()), Ok(snap));
    assert_eq!(
        MetricsSnapshot::from_prometheus(&snap.to_prometheus()),
        Ok(snap)
    );
    coup_lint::parse_sites_json(&sample_site_table()).expect("rendered site table");
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let hostile = "[".repeat(100_000);
    assert!(BenchReport::from_json(&hostile).is_err());
    assert!(MetricsSnapshot::from_json(&hostile).is_err());
    assert!(coup_lint::parse_sites_json(&hostile).is_err());
}

proptest! {
    #[test]
    fn bench_report_parser_never_panics(edits in edits()) {
        let _ = BenchReport::from_json(&mutate(&committed_bench_file(), &edits));
    }

    #[test]
    fn snapshot_parsers_never_panic(edits in edits()) {
        let snap = sample_snapshot();
        let _ = MetricsSnapshot::from_json(&mutate(&snap.to_json(), &edits));
        let _ = MetricsSnapshot::from_prometheus(&mutate(&snap.to_prometheus(), &edits));
    }

    #[test]
    fn site_table_parser_never_panics(edits in edits()) {
        let _ = coup_lint::parse_sites_json(&mutate(&sample_site_table(), &edits));
    }
}
