//! In-memory spans for the traced run: each records a name, start, end, the
//! span that caused it, and the round/tick/job it belongs to. Threads keep
//! their own buffers and hand them over when they finish; the whole set is
//! written out once, at the end, as Chrome trace-event JSON (opens offline
//! in Perfetto).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    /// Spans of one round, tick or job share this id.
    pub group: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A per-thread span buffer; its spans join the tracer when it drops.
    pub fn local(&self, tid: u32) -> LocalSpans<'_> {
        LocalSpans {
            tracer: self,
            tid,
            buf: Vec::new(),
        }
    }

    /// Every span handed over so far, in start order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span list lock poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

#[derive(Debug)]
pub struct LocalSpans<'a> {
    tracer: &'a Tracer,
    tid: u32,
    buf: Vec<Span>,
}

impl LocalSpans<'_> {
    pub fn next_id(&self) -> u64 {
        self.tracer.next_id()
    }

    /// Records a finished span under a pre-allocated `id` (parents allocate
    /// their id before their children run).
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        group: u64,
        start: Instant,
        end: Instant,
    ) {
        self.buf.push(Span {
            name,
            id,
            parent,
            group,
            tid: self.tid,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        group: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.record_as(id, name, parent, group, start, end);
        id
    }
}

impl Drop for LocalSpans<'_> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned list only loses this buffer.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.append(&mut self.buf);
        }
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children running in parallel on several threads count
/// once where they overlap, and a child reaching outside its parent only
/// counts inside it.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0, |kids| {
                let mut clipped: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect();
                clipped.sort_unstable();
                let mut total = 0;
                let mut cursor = 0;
                for (a, b) in clipped {
                    let a = a.max(cursor);
                    if b > a {
                        total += b - a;
                        cursor = b;
                    }
                }
                total
            });
            (s.id, s.duration() - covered)
        })
        .collect()
}

/// Summed self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut by_name = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_insert(0) += selfs[&s.id];
    }
    by_name
}

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
             \"args\": {{\"id\": {}, \"parent\": {}, \"group\": {}}}}}",
            json::quote(s.name),
            s.tid,
            json::number(s.start_ns as f64 / 1e3),
            json::number(s.duration() as f64 / 1e3),
            s.id,
            s.parent,
            s.group
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            id,
            parent,
            group: 0,
            tid: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); root ⊃ c [50,60).
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 2, 20, 30),
            span(4, 1, 50, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 30 - 10);
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 10);
        assert_eq!(selfs[&4], 10);
        // Self times of a properly nested tree add up to the root's span.
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        // Two producers' children overlap in [30,40); one pokes out of the
        // parent's end.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 20, 40),
            span(3, 1, 30, 50),
            span(4, 1, 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 30 - 10);
    }

    #[test]
    fn tracer_collects_spans_from_every_thread() {
        let tracer = Tracer::new();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for tid in 0..2 {
                let tracer = &tracer;
                scope.spawn(move || {
                    let mut local = tracer.local(tid);
                    local.record("work", 0, 7, t0, Instant::now());
                });
            }
        });
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.group == 7 && s.name == "work"));
        assert_ne!(spans[0].id, spans[1].id);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name.len(), 1);
    }

    #[test]
    fn chrome_json_is_valid_json_with_one_event_per_span() {
        let spans = [span(1, 0, 0, 1500), span(2, 1, 250, 750)];
        let doc = json::parse(&chrome_json(&spans)).unwrap();
        let events = doc.get("traceEvents").and_then(json::Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ts").and_then(json::Json::as_f64), Some(0.25));
        assert_eq!(events[1].get("dur").and_then(json::Json::as_f64), Some(0.5));
        let parent = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(json::Json::as_f64), Some(1.0));
    }
}
