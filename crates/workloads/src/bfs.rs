//! Parallel breadth-first search with a visited bitmap (`bfs`, Table 2; §4.2).
//!
//! High-performance BFS implementations keep the set of visited vertices in a
//! bitmap that fits in cache. Threads expanding the frontier *read* bits to
//! decide whether a neighbour needs visiting and *set* bits (with atomic-or
//! under the baseline, commutative-or under COUP) when they discover new
//! vertices — the finely-interleaved read/update pattern of §4.2 that keeps
//! lines bouncing between read-only and update-only modes.
//!
//! The workload is the repo's first *dynamic* (multi-phase)
//! [`UpdateKernel`]: a level-synchronous [`KernelProgram`] whose control flow
//! depends on the bitmap words its reads return. Each level runs in two
//! barrier-separated phases:
//!
//! 1. **Expand** — every thread processes its round-robin share of the
//!    current frontier, check-then-setting the visited bit of each neighbour
//!    (a read followed by a commutative OR when the bit is clear). Only one
//!    edge may set a vertex's bit: the first edge reaching it in frontier
//!    order, which every thread works out from the frontier it already
//!    holds. Two threads can therefore never both OR the same new vertex,
//!    so every executor issues exactly one OR per reachable vertex whatever
//!    the interleaving, while the reads stay as interleaved as before.
//! 2. **Derive** — after a barrier guarantees no OR is in flight, every
//!    thread reads the candidate bitmap words (the words holding the
//!    frontier's neighbours) and computes the *newly set* bits against its
//!    local mirror. Because the words are read between two barriers, all
//!    threads observe identical bits, derive the identical next frontier,
//!    and therefore execute the same number of barriers — the phase-count
//!    contract dynamic kernels must uphold.
//!
//! The derived frontier sequence *is* the BFS level structure, so thread 0
//! records it ([`BfsKernel::take_observed_levels`]) and tests compare the
//! implied distances against a sequential reference BFS — exact equality,
//! since OR-accumulation between barriers is deterministic regardless of the
//! interleaving inside a level.

use std::sync::{Arc, Mutex};

use coup_protocol::ops::CommutativeOp;
use coup_sim::memsys::MemorySystem;
use coup_sim::op::BoxedProgram;

use crate::kernel::{sim_programs, KernelProgram, KernelStep, UpdateKernel};
use crate::layout::{regions, ArrayLayout};
use crate::runner::Workload;
use crate::synth::Graph;

/// The BFS workload.
#[derive(Debug, Clone)]
pub struct BfsWorkload {
    /// Shared so the (owned, `'static`) kernel programs can stream the CSR
    /// arrays instead of copying a graph per thread.
    graph: Arc<Graph>,
    root: usize,
    bitmap: ArrayLayout,
    /// Vertices of each BFS level (root level included), precomputed as the
    /// sequential reference.
    levels: Vec<Vec<usize>>,
}

impl BfsWorkload {
    /// Builds a BFS workload over a synthetic power-law graph, rooted at
    /// vertex 0.
    #[must_use]
    pub fn new(vertices: usize, avg_degree: usize, seed: u64) -> Self {
        Self::over(Arc::new(Graph::power_law(vertices, avg_degree, seed)))
    }

    /// Builds a BFS workload over an existing graph, rooted at vertex 0.
    #[must_use]
    pub fn over(graph: Arc<Graph>) -> Self {
        let root = 0;
        let levels = Self::reference_levels(&graph, root);
        BfsWorkload {
            graph,
            root,
            bitmap: ArrayLayout::new(regions::BITMAP, 8),
            levels,
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertices(&self) -> usize {
        self.graph.vertices
    }

    /// Number of edges (the amount of frontier-expansion work).
    #[must_use]
    pub fn edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Number of BFS levels explored (root level included).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The sequential reference distances: `Some(level)` for reachable
    /// vertices (the root at 0), `None` for unreachable ones.
    #[must_use]
    pub fn reference_distances(&self) -> Vec<Option<usize>> {
        distances_of(&self.levels, self.graph.vertices)
    }

    fn reference_levels(graph: &Graph, root: usize) -> Vec<Vec<usize>> {
        let mut levels = Vec::new();
        let mut visited = vec![false; graph.vertices];
        visited[root] = true;
        let mut frontier = vec![root];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                for &n in graph.neighbours(u) {
                    if !visited[n] {
                        visited[n] = true;
                        next.push(n);
                    }
                }
            }
            levels.push(frontier);
            frontier = next;
        }
        levels
    }

    /// Bit mask of vertex `v` within its bitmap word.
    fn bit_mask(v: usize) -> u64 {
        1u64 << (v % 64)
    }

    /// The level-synchronous search as a backend-neutral dynamic
    /// [`UpdateKernel`]: the definition both the simulator and the
    /// real-hardware runtime execute.
    #[must_use]
    pub fn kernel(&self) -> BfsKernel<'_> {
        BfsKernel {
            workload: self,
            observed: Arc::new(Mutex::new(None)),
        }
    }
}

/// The shared slot thread 0's program stores its derived levels into.
type LevelRecord = Arc<Mutex<Option<Vec<Vec<usize>>>>>;

/// Distances implied by a level decomposition.
fn distances_of(levels: &[Vec<usize>], vertices: usize) -> Vec<Option<usize>> {
    let mut dist = vec![None; vertices];
    for (d, level) in levels.iter().enumerate() {
        for &v in level {
            dist[v] = Some(d);
        }
    }
    dist
}

/// The dynamic BFS kernel of a [`BfsWorkload`] — see the module docs for the
/// two-phase level structure. The output array is the visited bitmap: one
/// Or64 lane per 64 vertices.
#[derive(Debug)]
pub struct BfsKernel<'a> {
    workload: &'a BfsWorkload,
    /// Levels thread 0's program derived from executed bitmap reads during
    /// the most recent completed run (shared with the owned programs).
    observed: LevelRecord,
}

impl BfsKernel<'_> {
    /// The per-level frontiers (root level included) derived from the bitmap
    /// words actually read during the most recent run, or `None` if no run
    /// has completed since the last take. Each take clears the record, so
    /// back-to-back runs on different backends can be checked independently.
    #[must_use]
    pub fn take_observed_levels(&self) -> Option<Vec<Vec<usize>>> {
        self.observed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }

    /// The distances implied by [`BfsKernel::take_observed_levels`] (also
    /// clears the record): `Some(level)` per reached vertex, `None` for
    /// vertices the executed search never visited.
    #[must_use]
    pub fn take_observed_distances(&self) -> Option<Vec<Option<usize>>> {
        self.take_observed_levels()
            .map(|levels| distances_of(&levels, self.workload.graph.vertices))
    }
}

impl UpdateKernel for BfsKernel<'_> {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn op(&self) -> CommutativeOp {
        CommutativeOp::Or64
    }

    fn slots(&self) -> usize {
        self.workload.graph.vertices.div_ceil(64)
    }

    fn output_region(&self) -> u64 {
        // The bitmap keeps its historical region so simulated timings stay
        // comparable with the pre-kernel implementation.
        regions::BITMAP
    }

    fn steps(&self, _thread: usize, _threads: usize) -> Vec<KernelStep> {
        unreachable!("bfs is a dynamic kernel; executors drive it through program()")
    }

    fn program(&self, thread: usize, threads: usize) -> Option<Box<dyn KernelProgram>> {
        Some(Box::new(BfsLevelProgram::new(
            Arc::clone(&self.workload.graph),
            self.workload.root,
            thread,
            threads,
            (thread == 0).then(|| Arc::clone(&self.observed)),
        )))
    }

    fn expected(&self, _threads: usize) -> Vec<u64> {
        let w = self.workload;
        let mut words = vec![0u64; self.slots()];
        for (v, reach) in w.graph.reachable_from(w.root).into_iter().enumerate() {
            if reach {
                words[v / 64] |= BfsWorkload::bit_mask(v);
            }
        }
        words
    }
}

/// Where a [`BfsLevelProgram`] is within its current level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Set the root's bit (thread 0 only) before level 0.
    SeedRoot,
    /// Stream the edge-list word of the current assigned edge.
    LoadEdge,
    /// Read the bitmap word holding the edge target's visited bit.
    CheckBit,
    /// Decide (from the word just read) whether to set the target's bit.
    Decide,
    /// All assigned edges expanded: barrier before the derive phase.
    ExpandBarrier,
    /// Read the next candidate bitmap word of the derive phase.
    DeriveRead,
    /// Fold the word just read into the mirror and the next frontier.
    DeriveCollect,
    /// Derivation finished: barrier (and start the next level) or stop.
    LevelBarrier,
    /// Search complete.
    Finished,
}

/// One thread of the level-synchronous BFS: expands its share of the current
/// frontier, then re-derives the (globally identical) next frontier from
/// post-barrier bitmap reads.
struct BfsLevelProgram {
    graph: Arc<Graph>,
    thread: usize,
    threads: usize,
    /// Mirror of the visited bitmap as of the last derive phase.
    known: Vec<u64>,
    /// The current level's frontier — identical across threads.
    frontier: Vec<usize>,
    /// Levels derived so far (root level included).
    levels: Vec<Vec<usize>>,
    /// Recording slot for the derived levels (thread 0 only).
    record: Option<LevelRecord>,
    stage: Stage,
    /// Position in `frontier` of the vertex being expanded (stepping by
    /// `threads` from `thread` — the round-robin partition).
    pos: usize,
    /// Edge offset within the current frontier vertex.
    edge: usize,
    /// Candidate words of the derive phase: the sorted distinct bitmap words
    /// holding any neighbour of the whole frontier.
    candidates: Vec<usize>,
    /// Derive-phase cursor into `candidates`.
    cursor: usize,
    /// The next frontier being collected during the derive phase.
    next_frontier: Vec<usize>,
    /// Per vertex, the index of the first frontier edge that reached it, in
    /// level and then frontier order (`usize::MAX` while unreached). Only
    /// that edge may set its bit: a vertex is visited in the level that
    /// first reaches it, so later levels only read it.
    first_edge: Vec<usize>,
}

impl BfsLevelProgram {
    fn new(
        graph: Arc<Graph>,
        root: usize,
        thread: usize,
        threads: usize,
        record: Option<LevelRecord>,
    ) -> Self {
        let vertices = graph.vertices;
        let words = vertices.div_ceil(64);
        let mut known = vec![0u64; words];
        known[root / 64] |= BfsWorkload::bit_mask(root);
        let mut program = BfsLevelProgram {
            graph,
            thread,
            threads,
            known,
            frontier: vec![root],
            levels: vec![vec![root]],
            record,
            stage: Stage::SeedRoot,
            pos: thread,
            edge: 0,
            candidates: Vec::new(),
            cursor: 0,
            next_frontier: Vec::new(),
            first_edge: vec![usize::MAX; vertices],
        };
        program.mark_first_edges();
        program
    }

    /// Marks the first reaching edge of every vertex the current frontier
    /// reaches for the first time. Every thread holds the same frontier, so
    /// all agree on the marks.
    fn mark_first_edges(&mut self) {
        for &u in &self.frontier {
            let start = self.graph.offsets[u];
            for (offset, &n) in self.graph.neighbours(u).iter().enumerate() {
                if self.first_edge[n] == usize::MAX {
                    self.first_edge[n] = start + offset;
                }
            }
        }
    }

    /// The current assigned edge `(source, edge offset)`, advancing `pos`
    /// over exhausted frontier vertices.
    fn current_edge(&mut self) -> Option<(usize, usize)> {
        while let Some(&u) = self.frontier.get(self.pos) {
            if self.edge < self.graph.neighbours(u).len() {
                return Some((u, self.edge));
            }
            self.pos += self.threads;
            self.edge = 0;
        }
        None
    }

    /// Sorted distinct bitmap words holding any neighbour of the frontier —
    /// the only words where the expand phase can have set new bits.
    fn candidate_words(&self) -> Vec<usize> {
        let mut words: Vec<usize> = self
            .frontier
            .iter()
            .flat_map(|&u| self.graph.neighbours(u).iter().map(|&n| n / 64))
            .collect();
        words.sort_unstable();
        words.dedup();
        words
    }

    fn finish(&mut self) {
        self.stage = Stage::Finished;
        if let Some(record) = &self.record {
            *record
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) =
                Some(std::mem::take(&mut self.levels));
        }
    }
}

impl KernelProgram for BfsLevelProgram {
    fn next(&mut self, last_read: Option<u64>) -> Option<KernelStep> {
        loop {
            match self.stage {
                Stage::SeedRoot => {
                    let root = self.levels[0][0];
                    self.stage = Stage::LoadEdge;
                    if self.thread != 0 {
                        continue;
                    }
                    return Some(KernelStep::Update {
                        slot: root / 64,
                        value: BfsWorkload::bit_mask(root),
                    });
                }
                Stage::LoadEdge => {
                    let Some((u, edge)) = self.current_edge() else {
                        self.stage = Stage::ExpandBarrier;
                        continue;
                    };
                    self.stage = Stage::CheckBit;
                    return Some(KernelStep::LoadInput {
                        index: self.graph.offsets[u] + edge,
                    });
                }
                Stage::CheckBit => {
                    let (u, edge) = self.current_edge().expect("edge exists in CheckBit");
                    let n = self.graph.neighbours(u)[edge];
                    self.stage = Stage::Decide;
                    return Some(KernelStep::Read { slot: n / 64 });
                }
                Stage::Decide => {
                    let (u, edge) = self.current_edge().expect("edge exists in Decide");
                    let n = self.graph.neighbours(u)[edge];
                    let word = last_read.expect("Decide follows a Read");
                    self.edge += 1;
                    self.stage = Stage::LoadEdge;
                    let first = self.first_edge[n] == self.graph.offsets[u] + edge;
                    if word & BfsWorkload::bit_mask(n) == 0 && first {
                        // Not visited yet and this is the first edge reaching
                        // it: set the bit (commutative OR). Every other edge
                        // to `n` only reads, so the check cannot race.
                        return Some(KernelStep::Update {
                            slot: n / 64,
                            value: BfsWorkload::bit_mask(n),
                        });
                    }
                    // Already visited: frontier bookkeeping only.
                    return Some(KernelStep::Compute(1));
                }
                Stage::ExpandBarrier => {
                    self.candidates = self.candidate_words();
                    self.cursor = 0;
                    self.next_frontier.clear();
                    self.stage = Stage::DeriveRead;
                    return Some(KernelStep::Barrier);
                }
                Stage::DeriveRead => {
                    let Some(&word) = self.candidates.get(self.cursor) else {
                        self.stage = Stage::LevelBarrier;
                        continue;
                    };
                    self.stage = Stage::DeriveCollect;
                    return Some(KernelStep::Read { slot: word });
                }
                Stage::DeriveCollect => {
                    let value = last_read.expect("DeriveCollect follows a Read");
                    let word = self.candidates[self.cursor];
                    let mut newly = value & !self.known[word];
                    self.known[word] |= value;
                    while newly != 0 {
                        let bit = newly.trailing_zeros() as usize;
                        newly &= newly - 1;
                        let v = word * 64 + bit;
                        if v < self.graph.vertices {
                            self.next_frontier.push(v);
                        }
                    }
                    self.cursor += 1;
                    self.stage = Stage::DeriveRead;
                }
                Stage::LevelBarrier => {
                    if self.next_frontier.is_empty() {
                        // Every thread derives the same (empty) frontier from
                        // the same post-barrier words, so all stop together —
                        // no trailing barrier needed.
                        self.finish();
                        return None;
                    }
                    self.frontier = std::mem::take(&mut self.next_frontier);
                    self.levels.push(self.frontier.clone());
                    self.mark_first_edges();
                    self.pos = self.thread;
                    self.edge = 0;
                    self.stage = Stage::LoadEdge;
                    return Some(KernelStep::Barrier);
                }
                Stage::Finished => return None,
            }
        }
    }
}

impl Workload for BfsWorkload {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn commutative_op(&self) -> CommutativeOp {
        CommutativeOp::Or64
    }

    fn init(&self, _mem: &mut MemorySystem) {
        // Thread 0's kernel program seeds the root's bit with an OR, so
        // nothing needs poking.
    }

    fn programs(&self, threads: usize) -> Vec<BoxedProgram<'_>> {
        // The whole workload *is* its kernel: one (dynamic) definition
        // drives the simulator (here) and the real-hardware runtime.
        sim_programs(&self.kernel(), threads, false)
    }

    fn verify(&self, mem: &MemorySystem, threads: usize) -> Result<(), String> {
        let kernel = self.kernel();
        let tolerance = kernel.tolerance();
        for (word, &want) in kernel.expected(threads).iter().enumerate() {
            let got = mem.peek(self.bitmap.addr(word));
            if let Some(mismatch) = tolerance.mismatch(got, want) {
                return Err(format!("visited-bitmap word {word} {mismatch}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ExecutionBackend, RuntimeBackend, RuntimeKind, SimBackend};
    use crate::runner::{compare_protocols, run_workload};
    use coup_protocol::state::ProtocolKind;
    use coup_sim::config::SystemConfig;

    #[test]
    fn bfs_visits_exactly_the_reachable_set_under_both_protocols() {
        let w = BfsWorkload::new(300, 6, 4);
        let cfg = SystemConfig::test_system(4, ProtocolKind::Mesi);
        let (mesi, meusi) = compare_protocols(cfg, &w).expect("verification");
        assert!(mesi.commutative_updates > 0);
        assert!(meusi.loads > 0);
    }

    #[test]
    fn bfs_single_thread_matches_reference() {
        let w = BfsWorkload::new(150, 5, 8);
        let cfg = SystemConfig::test_system(1, ProtocolKind::Meusi);
        run_workload(cfg, &w).expect("single-threaded BFS must verify");
    }

    #[test]
    fn bfs_has_multiple_levels() {
        let w = BfsWorkload::new(500, 4, 1);
        assert!(
            w.depth() >= 2,
            "power-law graph BFS should have several levels"
        );
        assert_eq!(w.vertices(), 500);
        assert_eq!(w.name(), "bfs");
        assert_eq!(w.commutative_op(), CommutativeOp::Or64);
    }

    #[test]
    fn uneven_thread_counts_still_verify() {
        let w = BfsWorkload::new(200, 5, 3);
        for threads in [2usize, 3, 5] {
            let cfg = SystemConfig::test_system(threads, ProtocolKind::Meusi);
            run_workload(cfg, &w).expect("BFS must verify for odd thread counts");
        }
    }

    #[test]
    fn simulated_bfs_derives_the_reference_levels() {
        let w = BfsWorkload::new(250, 5, 6);
        let kernel = w.kernel();
        SimBackend::new(SystemConfig::test_system(3, ProtocolKind::Meusi))
            .execute(&kernel)
            .expect("bitmap verifies");
        let distances = kernel
            .take_observed_distances()
            .expect("thread 0 records the derived levels");
        assert_eq!(distances, w.reference_distances());
        assert!(
            kernel.take_observed_levels().is_none(),
            "taking the record clears it"
        );
    }

    /// Only the first edge reaching a vertex sets its bit, so the issued-OR
    /// count is one per reachable vertex on every executor, whatever the
    /// interleaving.
    #[test]
    fn every_executor_issues_one_or_per_reachable_vertex() {
        let w = BfsWorkload::new(300, 6, 5);
        let reachable = w.reference_distances().iter().flatten().count() as u64;
        let kernel = w.kernel();
        for threads in [1usize, 3, 4] {
            for kind in [RuntimeKind::Atomic, RuntimeKind::Coup] {
                let report = RuntimeBackend::new(kind, threads)
                    .execute(&kernel)
                    .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
                assert_eq!(report.updates, reachable, "{kind:?}, {threads} threads");
            }
            let cfg = SystemConfig::test_system(threads, ProtocolKind::Meusi);
            let stats = SimBackend::new(cfg).execute(&kernel).expect("verifies");
            assert_eq!(
                stats.commutative_updates, reachable,
                "sim, {threads} threads"
            );
        }
    }

    #[test]
    fn runtime_bfs_derives_the_reference_levels_on_both_backends() {
        let w = BfsWorkload::new(300, 5, 9);
        let kernel = w.kernel();
        for kind in [RuntimeKind::Atomic, RuntimeKind::Coup] {
            RuntimeBackend::new(kind, 3)
                .execute(&kernel)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            let distances = kernel
                .take_observed_distances()
                .expect("thread 0 records the derived levels");
            assert_eq!(distances, w.reference_distances(), "{kind:?}");
        }
    }
}
