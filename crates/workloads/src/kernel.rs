//! Backend-neutral workload kernels.
//!
//! A [`UpdateKernel`] describes a workload's scattered-update phase
//! abstractly: a per-thread script of [`KernelStep`]s over a logical array of
//! `slots` lanes, plus the sequential reference result. The *same* kernel
//! then drives two very different executors through [`ExecutionBackend`]:
//!
//! * [`SimBackend`] lowers the steps onto the timing simulator's
//!   [`ThreadOp`]s (with the workload's historical address layout, so cycle
//!   numbers are directly comparable with the pre-kernel code), runs them on
//!   a simulated machine, and verifies the result in simulated memory.
//! * [`RuntimeBackend`] executes the steps as a worker job on a
//!   `coup-runtime` [`CoupRuntime`](coup_runtime::CoupRuntime) — the
//!   conventional atomic baseline or the software-COUP privatized buffers —
//!   and verifies the shutdown snapshot.
//!
//! `hist` (shared scheme), `pgrank`, `spmv`, `bfs`, and `refcount`
//! (immediate XADD/COUP schemes, and the delayed epoch scheme) define
//! kernels; their legacy [`Workload`] implementations lower through
//! [`sim_programs`], so the simulator path and the real-hardware path
//! execute one definition of each workload.
//!
//! Two kinds of kernel share the contract:
//!
//! * **Static** kernels emit a script fixed by `(thread, threads)`
//!   ([`UpdateKernel::steps`] / [`UpdateKernel::for_each_step`]). Multi-phase
//!   static kernels (delayed refcount's update → scan epochs) separate their
//!   phases with [`KernelStep::Barrier`]s.
//! * **Dynamic** kernels ([`UpdateKernel::program`]) decide each step from
//!   the values earlier [`KernelStep::Read`]s returned — level-synchronous
//!   BFS derives every level's frontier from bitmap words read between two
//!   barriers, where no update can be in flight.
//!
//! Verification is pluggable per kernel ([`UpdateKernel::tolerance`]):
//! integer and bitwise kernels compare bit-exactly, while floating-point
//! kernels (`spmv`'s AddF64 reductions are order-sensitive at the ULP level)
//! relax to a per-lane relative-error bound.

use coup_protocol::ops::CommutativeOp;
use coup_runtime::{BackendKind, BufferConfig, Merge, ReadTier, RuntimeBuilder, TelemetryConfig};
use coup_sim::config::SystemConfig;
use coup_sim::op::{BoxedProgram, ScriptedProgram, ThreadOp};
use coup_sim::stats::RunStats;

use crate::layout::{regions, ArrayLayout};
use crate::runner::{run_workload, Workload};

/// One abstract operation of a workload kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelStep {
    /// Read element `index` of the workload's input array. In the simulator
    /// this is a timed load with the workload's input layout; real-memory
    /// backends skip it, because kernel update values are precomputed.
    LoadInput {
        /// Input element index.
        index: usize,
    },
    /// Read element `index` of the workload's *auxiliary* input array
    /// (simulator address layout only, like [`KernelStep::LoadInput`]) —
    /// e.g. spmv's streamed matrix values, which live in a separate region
    /// from the `x` vector so the two streams never share lines.
    LoadAux {
        /// Auxiliary input element index.
        index: usize,
    },
    /// Pure compute delay of the given core cycles (simulator only).
    Compute(u64),
    /// Commutative update: `slots[slot] = op(slots[slot], value)`.
    Update {
        /// Output lane.
        slot: usize,
        /// Operand, as raw lane bits.
        value: u64,
    },
    /// Update immediately followed by a read of the same lane — the
    /// decrement-and-test idiom. Lowers to a single fetch-op where the
    /// executor has one; executors without one (the software-COUP backend)
    /// perform update-then-reduce, which does not guarantee a unique zero
    /// observer among concurrent decrementers (see
    /// `UpdateBackend::update_read`).
    UpdateRead {
        /// Output lane.
        slot: usize,
        /// Operand, as raw lane bits.
        value: u64,
    },
    /// Read lane `slot` of the output array.
    Read {
        /// Output lane.
        slot: usize,
    },
    /// Wait for every thread of the run.
    Barrier,
}

/// How an executor compares an executed lane against the kernel's expected
/// value — the verifier hook of the kernel contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Bit-exact equality: correct for every integer and bitwise operation,
    /// whose reductions are fully commutative *and* associative, so no
    /// execution order can change the result.
    Exact,
    /// Per-lane relative-error bound over f64 lanes: the comparison passes
    /// when `|got − want| ≤ max(abs, rel · |want|)`. Floating-point addition
    /// commutes but does not associate, so a parallel reduction legitimately
    /// differs from the sequential reference at the ULP level — the bound
    /// stops the verifier from pretending the rounding order is
    /// deterministic, without letting a lost or duplicated update hide (one
    /// missing contribution is many orders of magnitude above any rounding
    /// residue at these bounds).
    RelativeF64 {
        /// Relative error bound, scaled by `|want|`.
        rel: f64,
        /// Absolute error floor, for expected values near zero.
        abs: f64,
    },
}

impl Tolerance {
    /// Checks `got` against `want` (both raw lane bits), returning a
    /// description of the discrepancy if the comparison fails.
    #[must_use]
    pub fn mismatch(&self, got: u64, want: u64) -> Option<String> {
        match *self {
            Tolerance::Exact => (got != want).then(|| format!("is {got}, expected exactly {want}")),
            Tolerance::RelativeF64 { rel, abs } => {
                let (g, w) = (f64::from_bits(got), f64::from_bits(want));
                let bound = abs.max(w.abs() * rel);
                let err = (g - w).abs();
                if err <= bound {
                    // Written as the positive comparison so a NaN `err`
                    // falls through to the mismatch branch.
                    None
                } else {
                    Some(format!("is {g}, expected {w} ± {bound:e} (error {err:e})"))
                }
            }
        }
    }
}

/// A per-thread instruction stream over abstract [`KernelStep`]s whose
/// control flow may depend on the values earlier reads returned — the
/// *dynamic* (multi-phase) generalisation of the static
/// [`UpdateKernel::steps`] script, mirroring the simulator's
/// [`coup_sim::op::ThreadProgram`] one level up.
///
/// Programs are owned (`'static`): a program that needs the kernel's input
/// data shares it (e.g. via `Arc`) instead of borrowing, so executors can
/// hold programs without pinning the kernel's lifetime.
pub trait KernelProgram: Send {
    /// The thread's next step, or `None` once its work is complete.
    ///
    /// `last_read` carries the lane value produced by the *immediately
    /// preceding* [`KernelStep::Read`] or [`KernelStep::UpdateRead`] step of
    /// this program; it is `None` on the first call and after every other
    /// step kind.
    fn next(&mut self, last_read: Option<u64>) -> Option<KernelStep>;
}

/// A workload's scattered-update phase, described independently of the
/// executor.
///
/// # Contract
///
/// * `steps(t, n)` / [`UpdateKernel::for_each_step`] must be deterministic in
///   `(t, n)`; a *dynamic* kernel supplies [`UpdateKernel::program`] instead
///   and executors never touch its (unimplemented) static script.
/// * Every thread's script must contain the *same number* of
///   [`KernelStep::Barrier`]s (real barriers block until all threads
///   arrive). Dynamic kernels must *derive* the same phase count on every
///   thread: any read feeding a control-flow decision must happen strictly
///   between two barriers, where no update is in flight, so all threads
///   observe identical lanes and reach identical decisions.
/// * `expected(n)` is the per-lane result (raw lane bits) of applying every
///   update of every thread sequentially to a zeroed array, compared under
///   [`UpdateKernel::tolerance`].
///
/// Kernels are `Sync` because [`RuntimeBackend`] streams each worker's script
/// on that worker's own OS thread.
pub trait UpdateKernel: Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// The commutative operation of the updates; its width is the lane width
    /// of the output array.
    fn op(&self) -> CommutativeOp;

    /// Number of output lanes.
    fn slots(&self) -> usize;

    /// Element width of the input array, in bytes (simulator address layout
    /// only).
    fn input_elem_bytes(&self) -> u64 {
        8
    }

    /// Base address of the input array in the simulated address space.
    fn input_region(&self) -> u64 {
        regions::INPUT
    }

    /// Element width of the auxiliary input array, in bytes (simulator
    /// address layout only; see [`KernelStep::LoadAux`]).
    fn aux_elem_bytes(&self) -> u64 {
        8
    }

    /// Base address of the auxiliary input array in the simulated address
    /// space.
    fn aux_region(&self) -> u64 {
        regions::INPUT_AUX
    }

    /// Base address of the output array in the simulated address space.
    /// Workloads keep their historical region so timing results stay
    /// comparable.
    fn output_region(&self) -> u64 {
        regions::SHARED_OUTPUT
    }

    /// How executors compare executed lanes against [`UpdateKernel::expected`]
    /// (default: bit-exact).
    fn tolerance(&self) -> Tolerance {
        Tolerance::Exact
    }

    /// Thread `thread`'s *dynamic* program, for kernels whose control flow
    /// depends on read values (e.g. level-synchronous BFS deriving each
    /// frontier from bitmap reads). `Some` makes every executor drive the
    /// program interactively — feeding each [`KernelStep::Read`] /
    /// [`KernelStep::UpdateRead`] result into the next
    /// [`KernelProgram::next`] call — and ignore the static script entirely.
    /// Static kernels keep the default `None` and are driven through the
    /// streaming [`UpdateKernel::for_each_step`] path.
    fn program(&self, thread: usize, threads: usize) -> Option<Box<dyn KernelProgram>> {
        let _ = (thread, threads);
        None
    }

    /// Thread `thread`'s script, for a run of `threads` threads.
    fn steps(&self, thread: usize, threads: usize) -> Vec<KernelStep>;

    /// Streams thread `thread`'s script to `f` in order, without
    /// materialising it. The default collects [`UpdateKernel::steps`];
    /// kernels whose scripts are huge (pgrank at millions of vertices emits
    /// one step per edge) override this to generate steps on the fly, which
    /// is what keeps multi-million-line runs within memory: the runtime
    /// executor never holds a script, only the kernel's own input data.
    fn for_each_step(&self, thread: usize, threads: usize, f: &mut dyn FnMut(KernelStep)) {
        for step in self.steps(thread, threads) {
            f(step);
        }
    }

    /// The sequential reference result for a run of `threads` threads.
    fn expected(&self, threads: usize) -> Vec<u64>;
}

/// The simulated-address-space layouts of a kernel's arrays, shared by the
/// static and dynamic lowering paths.
#[derive(Debug, Clone, Copy)]
struct KernelLayouts {
    op: CommutativeOp,
    output: ArrayLayout,
    input: ArrayLayout,
    aux: ArrayLayout,
}

impl KernelLayouts {
    fn of<K: UpdateKernel + ?Sized>(kernel: &K) -> Self {
        let op = kernel.op();
        KernelLayouts {
            op,
            output: ArrayLayout::new(kernel.output_region(), op.width().bytes() as u64),
            input: ArrayLayout::new(kernel.input_region(), kernel.input_elem_bytes()),
            aux: ArrayLayout::new(kernel.aux_region(), kernel.aux_elem_bytes()),
        }
    }
}

/// Lowers a kernel onto simulator thread programs.
///
/// With `rmw` false, updates become COUP commutative-update instructions
/// (buffered under MEUSI, exclusive under MESI); with `rmw` true they become
/// conventional atomic read-modify-writes, which also serve the read half of
/// [`KernelStep::UpdateRead`] for free — mirroring how `lock xadd` returns
/// the value.
///
/// Static kernels lower to owned [`ScriptedProgram`]s; dynamic kernels
/// ([`UpdateKernel::program`]) are wrapped in an adapter that feeds each
/// simulated load's value back into the kernel program, so check-then-act
/// decisions see the *simulated* memory contents.
#[must_use]
pub fn sim_programs<K: UpdateKernel + ?Sized>(
    kernel: &K,
    threads: usize,
    rmw: bool,
) -> Vec<BoxedProgram<'static>> {
    let layouts = KernelLayouts::of(kernel);
    (0..threads)
        .map(|t| {
            if let Some(program) = kernel.program(t, threads) {
                return Box::new(KernelSimProgram::new(program, layouts, rmw))
                    as BoxedProgram<'static>;
            }
            let mut ops = Vec::new();
            kernel.for_each_step(t, threads, &mut |step| match step {
                KernelStep::LoadInput { index } => {
                    ops.push(ThreadOp::Load {
                        addr: layouts.input.word_addr(index),
                    });
                }
                KernelStep::LoadAux { index } => {
                    ops.push(ThreadOp::Load {
                        addr: layouts.aux.word_addr(index),
                    });
                }
                KernelStep::Compute(cycles) => ops.push(ThreadOp::Compute(cycles)),
                KernelStep::Update { slot, value } => {
                    let addr = layouts.output.addr(slot);
                    let op = layouts.op;
                    if rmw {
                        ops.push(ThreadOp::AtomicRmw { addr, op, value });
                    } else {
                        ops.push(ThreadOp::CommutativeUpdate { addr, op, value });
                    }
                }
                KernelStep::UpdateRead { slot, value } => {
                    let addr = layouts.output.addr(slot);
                    let op = layouts.op;
                    if rmw {
                        ops.push(ThreadOp::AtomicRmw { addr, op, value });
                    } else {
                        ops.push(ThreadOp::CommutativeUpdate { addr, op, value });
                        ops.push(ThreadOp::Load {
                            addr: layouts.output.word_addr(slot),
                        });
                    }
                }
                KernelStep::Read { slot } => {
                    ops.push(ThreadOp::Load {
                        addr: layouts.output.word_addr(slot),
                    });
                }
                KernelStep::Barrier => ops.push(ThreadOp::Barrier),
            });
            ops.push(ThreadOp::Done);
            Box::new(ScriptedProgram::new(ops)) as BoxedProgram<'static>
        })
        .collect()
}

/// What the simulated value arriving at the adapter's next call means.
#[derive(Debug, Clone, Copy)]
enum Feedback {
    /// The previous operation was not a kernel-level read; discard.
    Ignore,
    /// The previous load served a [`KernelStep::Read`] (or the load half of a
    /// lowered [`KernelStep::UpdateRead`]): extract `slot`'s lane from the
    /// loaded word and hand it to the kernel program.
    Lane {
        /// Output lane the load targeted.
        slot: usize,
    },
    /// The previous op was an `AtomicRmw` serving a [`KernelStep::UpdateRead`]:
    /// the simulator returns the *old* word, but the runtime's fetch-op
    /// returns the *new* lane value, so apply the operation once more to
    /// normalise what the kernel program observes across executors.
    RmwNew {
        /// Output lane the RMW targeted.
        slot: usize,
        /// The RMW's operand.
        value: u64,
    },
}

/// Adapter driving a dynamic [`KernelProgram`] as a simulator
/// [`coup_sim::op::ThreadProgram`]: lowers each abstract step exactly like
/// the static path and routes every relevant loaded value back into the
/// kernel program.
struct KernelSimProgram {
    program: Box<dyn KernelProgram>,
    layouts: KernelLayouts,
    rmw: bool,
    /// Op queued by a step that lowers to two simulator ops (the non-rmw
    /// [`KernelStep::UpdateRead`] expansion), with its feedback kind.
    pending: Option<(ThreadOp, Feedback)>,
    /// Meaning of the value arriving at the next `next()` call.
    feedback: Feedback,
    done: bool,
}

impl KernelSimProgram {
    fn new(program: Box<dyn KernelProgram>, layouts: KernelLayouts, rmw: bool) -> Self {
        KernelSimProgram {
            program,
            layouts,
            rmw,
            pending: None,
            feedback: Feedback::Ignore,
            done: false,
        }
    }
}

impl coup_sim::op::ThreadProgram for KernelSimProgram {
    fn next(&mut self, last_value: Option<u64>) -> ThreadOp {
        let fed = match std::mem::replace(&mut self.feedback, Feedback::Ignore) {
            Feedback::Ignore => None,
            Feedback::Lane { slot } => {
                let word = last_value.expect("a kernel read lowers to a value-bearing op");
                Some(self.layouts.output.extract(slot, word))
            }
            Feedback::RmwNew { slot, value } => {
                let word = last_value.expect("an rmw returns its old word");
                let old = self.layouts.output.extract(slot, word);
                Some(self.layouts.op.apply_lane(old, value))
            }
        };
        if let Some((op, feedback)) = self.pending.take() {
            debug_assert!(fed.is_none(), "a queued op never follows a kernel read");
            self.feedback = feedback;
            return op;
        }
        if self.done {
            return ThreadOp::Done;
        }
        let Some(step) = self.program.next(fed) else {
            self.done = true;
            return ThreadOp::Done;
        };
        let KernelLayouts {
            op,
            output,
            input,
            aux,
        } = self.layouts;
        match step {
            KernelStep::LoadInput { index } => ThreadOp::Load {
                addr: input.word_addr(index),
            },
            KernelStep::LoadAux { index } => ThreadOp::Load {
                addr: aux.word_addr(index),
            },
            KernelStep::Compute(cycles) => ThreadOp::Compute(cycles),
            KernelStep::Update { slot, value } => {
                let addr = output.addr(slot);
                if self.rmw {
                    ThreadOp::AtomicRmw { addr, op, value }
                } else {
                    ThreadOp::CommutativeUpdate { addr, op, value }
                }
            }
            KernelStep::UpdateRead { slot, value } => {
                let addr = output.addr(slot);
                if self.rmw {
                    self.feedback = Feedback::RmwNew { slot, value };
                    ThreadOp::AtomicRmw { addr, op, value }
                } else {
                    self.pending = Some((
                        ThreadOp::Load {
                            addr: output.word_addr(slot),
                        },
                        Feedback::Lane { slot },
                    ));
                    ThreadOp::CommutativeUpdate { addr, op, value }
                }
            }
            KernelStep::Read { slot } => {
                self.feedback = Feedback::Lane { slot };
                ThreadOp::Load {
                    addr: output.word_addr(slot),
                }
            }
            KernelStep::Barrier => ThreadOp::Barrier,
        }
    }
}

/// Adapter running any [`UpdateKernel`] as a simulator [`Workload`].
#[derive(Debug, Clone, Copy)]
pub struct KernelWorkload<'a, K: UpdateKernel + ?Sized> {
    kernel: &'a K,
    rmw: bool,
}

impl<'a, K: UpdateKernel + ?Sized> KernelWorkload<'a, K> {
    /// Wraps `kernel`, lowering updates as COUP commutative updates.
    #[must_use]
    pub fn new(kernel: &'a K) -> Self {
        KernelWorkload { kernel, rmw: false }
    }

    /// Wraps `kernel`, lowering updates as conventional atomic RMWs.
    #[must_use]
    pub fn with_rmw(kernel: &'a K) -> Self {
        KernelWorkload { kernel, rmw: true }
    }
}

impl<K: UpdateKernel + ?Sized> Workload for KernelWorkload<'_, K> {
    fn name(&self) -> &'static str {
        self.kernel.name()
    }

    fn commutative_op(&self) -> CommutativeOp {
        self.kernel.op()
    }

    fn init(&self, _mem: &mut coup_sim::memsys::MemorySystem) {
        // Kernel output arrays start zeroed, which simulated memory already
        // is; kernel input loads are timing-only (values are precomputed into
        // the update steps), so there is nothing to poke.
    }

    fn programs(&self, threads: usize) -> Vec<BoxedProgram<'_>> {
        sim_programs(self.kernel, threads, self.rmw)
    }

    fn verify(&self, mem: &coup_sim::memsys::MemorySystem, threads: usize) -> Result<(), String> {
        let op = self.kernel.op();
        let output = ArrayLayout::new(self.kernel.output_region(), op.width().bytes() as u64);
        let expected = self.kernel.expected(threads);
        if expected.len() != self.kernel.slots() {
            return Err(format!(
                "{}: expected() covers {} slots but the kernel declares {}",
                self.name(),
                expected.len(),
                self.kernel.slots()
            ));
        }
        let tolerance = self.kernel.tolerance();
        for (slot, &want) in expected.iter().enumerate() {
            let got = output.extract(slot, mem.peek(output.word_addr(slot)));
            if let Some(mismatch) = tolerance.mismatch(got, want) {
                return Err(format!("{}: slot {slot} {mismatch}", self.name()));
            }
        }
        Ok(())
    }
}

/// An executor that can run any [`UpdateKernel`] end to end, verification
/// included.
pub trait ExecutionBackend {
    /// What a successful run reports (timing statistics, throughput, …).
    type Report;

    /// Runs and verifies `kernel`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first discrepancy between the executed
    /// result and `kernel.expected()` — which would indicate a lost or
    /// duplicated update.
    fn execute(&self, kernel: &dyn UpdateKernel) -> Result<Self::Report, String>;
}

/// The timing-simulator executor.
#[derive(Debug, Clone, Copy)]
pub struct SimBackend {
    cfg: SystemConfig,
    rmw: bool,
}

impl SimBackend {
    /// Simulates on `cfg`, lowering updates as COUP commutative updates.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        SimBackend { cfg, rmw: false }
    }

    /// Simulates on `cfg`, lowering updates as conventional atomic RMWs.
    #[must_use]
    pub fn with_rmw(cfg: SystemConfig) -> Self {
        SimBackend { cfg, rmw: true }
    }
}

impl ExecutionBackend for SimBackend {
    type Report = RunStats;

    fn execute(&self, kernel: &dyn UpdateKernel) -> Result<RunStats, String> {
        if self.rmw {
            run_workload(self.cfg, &KernelWorkload::with_rmw(kernel))
        } else {
            run_workload(self.cfg, &KernelWorkload::new(kernel))
        }
    }
}

/// Which `coup-runtime` backend a [`RuntimeBackend`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// Conventional atomic read-modify-writes
    /// ([`coup_runtime::AtomicBackend`]).
    Atomic,
    /// Software COUP: privatized buffers, on-read reduction
    /// ([`coup_runtime::CoupBackend`]).
    Coup,
}

/// What a [`RuntimeBackend`] run reports: `coup-runtime`'s throughput report
/// (threads, updates, reads, wall-clock `elapsed`, and a `mops()` rate) —
/// the same type the raw contended harness produces, so kernel runs and
/// microbenchmark runs are directly comparable.
pub type RuntimeReport = coup_runtime::ThroughputReport;

/// The real-hardware executor: runs kernels as a worker job on a
/// [`coup_runtime::CoupRuntime`] built per `execute` call — the same facade
/// the service frontends use, with the kernel's steps driven through the
/// job's direct (unbatched) backend path so barriers and the
/// decrement-and-test idiom keep their synchronous semantics.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeBackend {
    kind: RuntimeKind,
    threads: usize,
    flush_threshold: Option<u32>,
    buffer_config: Option<BufferConfig>,
    telemetry: Option<TelemetryConfig>,
    read_tier: ReadTier,
}

impl RuntimeBackend {
    /// An executor of `kind` with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn new(kind: RuntimeKind, threads: usize) -> Self {
        assert!(threads > 0, "RuntimeBackend needs at least one worker");
        RuntimeBackend {
            kind,
            threads,
            flush_threshold: None,
            buffer_config: None,
            telemetry: None,
            read_tier: ReadTier::Exact,
        }
    }

    /// Serves [`KernelStep::Read`]s from the chosen consistency tier.
    ///
    /// [`ReadTier::Stale`] only affects *static* kernels, whose reads feed
    /// the run's checksum but never its control flow — verification still
    /// compares the exact shutdown snapshot, so the kernel's [`Tolerance`]
    /// is honoured regardless of tier. Dynamic kernels
    /// ([`UpdateKernel::program`]) derive their next steps from read values
    /// (BFS builds each frontier from bitmap words), so they always read
    /// exactly, whatever tier was requested. [`KernelStep::UpdateRead`]
    /// (decrement-and-test) likewise stays exact on every tier.
    #[must_use]
    pub fn with_read_tier(mut self, read_tier: ReadTier) -> Self {
        self.read_tier = read_tier;
        self
    }

    /// Overrides the COUP backend's per-line flush budget.
    #[must_use]
    pub fn with_flush_threshold(mut self, flush_threshold: u32) -> Self {
        self.flush_threshold = Some(flush_threshold);
        self
    }

    /// Overrides the COUP backend's sparse-buffer configuration (capacity
    /// and eviction policy). Without this the backend honours the
    /// `COUP_BUFFER_CAPACITY`/`COUP_BUFFER_POLICY` environment variables and
    /// defaults to unbounded buffers.
    #[must_use]
    pub fn with_buffer_config(mut self, config: BufferConfig) -> Self {
        self.buffer_config = Some(config);
        self
    }

    /// Overrides the runtime's telemetry configuration — use
    /// [`TelemetryConfig::disabled`] to measure instrumentation overhead, or
    /// a custom trace capacity / sampling rate for detailed event capture.
    #[must_use]
    pub fn with_telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// The runtime builder this executor configures for `kernel`.
    #[must_use]
    pub fn builder(&self, kernel: &dyn UpdateKernel) -> RuntimeBuilder {
        let mut builder = RuntimeBuilder::new(kernel.op(), kernel.slots())
            .backend(match self.kind {
                RuntimeKind::Atomic => BackendKind::Atomic,
                RuntimeKind::Coup => BackendKind::Coup,
            })
            .workers(self.threads);
        if let Some(threshold) = self.flush_threshold {
            builder = builder.flush_threshold(threshold);
        }
        if let Some(config) = self.buffer_config {
            builder = builder.buffer_config(config);
        }
        if let Some(config) = self.telemetry {
            builder = builder.telemetry(config);
        }
        builder
    }
}

/// Per-worker tallies of a kernel execution.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerCounts {
    updates: u64,
    reads: u64,
    checksum: u64,
}

impl Merge for WorkerCounts {
    fn merge(&mut self, other: &Self) {
        self.updates += other.updates;
        self.reads += other.reads;
        self.checksum = self.checksum.wrapping_add(other.checksum);
    }
}

impl WorkerCounts {
    fn apply(
        &mut self,
        ctx: &coup_runtime::JobCtx<'_>,
        tier: ReadTier,
        step: KernelStep,
    ) -> Option<u64> {
        match step {
            // Input values are baked into the update steps and compute
            // delays model core cycles real cores spend elsewhere in this
            // loop — all three are simulator-only.
            KernelStep::LoadInput { .. } | KernelStep::LoadAux { .. } | KernelStep::Compute(_) => {
                None
            }
            KernelStep::Update { slot, value } => {
                ctx.update(slot, value);
                self.updates += 1;
                None
            }
            KernelStep::UpdateRead { slot, value } => {
                let value = ctx.update_read(slot, value);
                self.checksum = self.checksum.wrapping_add(value);
                self.updates += 1;
                self.reads += 1;
                Some(value)
            }
            KernelStep::Read { slot } => {
                let value = match tier {
                    ReadTier::Exact => ctx.read(slot),
                    ReadTier::Stale => ctx.read_stale(slot).value,
                };
                self.checksum = self.checksum.wrapping_add(value);
                self.reads += 1;
                Some(value)
            }
            KernelStep::Barrier => {
                ctx.barrier();
                None
            }
        }
    }
}

impl RuntimeBackend {
    /// Runs and verifies `kernel` like [`ExecutionBackend::execute`], and
    /// additionally returns the verified final snapshot (every lane's raw
    /// bits) — what cross-backend equivalence tests compare under the
    /// kernel's [`Tolerance`].
    ///
    /// # Errors
    ///
    /// As [`ExecutionBackend::execute`].
    pub fn execute_with_snapshot(
        &self,
        kernel: &dyn UpdateKernel,
    ) -> Result<(RuntimeReport, Vec<u64>), String> {
        let runtime = self.builder(kernel).build();
        let before = runtime.metrics();
        // Static kernels *stream* their script straight from the kernel
        // (`for_each_step`) instead of materialising a Vec of steps: a
        // multi-million-vertex pgrank scatter emits one step per edge, and
        // holding those scripts would dwarf the backend itself. Dynamic
        // kernels are driven interactively, each worker feeding its own
        // program the lane values its reads return. Both backends pay the
        // same generation cost, so ratios stay fair.
        let read_tier = self.read_tier;
        let (counts, elapsed) = runtime.run_workers(|ctx| {
            let mut counts = WorkerCounts::default();
            if let Some(mut program) = kernel.program(ctx.worker(), ctx.workers()) {
                // Dynamic programs branch on what their reads return, so the
                // relaxed tier is never sound here — they read exactly.
                let mut last_read = None;
                while let Some(step) = program.next(last_read.take()) {
                    last_read = counts.apply(&ctx, ReadTier::Exact, step);
                }
            } else {
                kernel.for_each_step(ctx.worker(), ctx.workers(), &mut |step| {
                    counts.apply(&ctx, read_tier, step);
                });
            }
            counts.checksum = std::hint::black_box(counts.checksum);
            counts
        });
        let metrics = runtime.metrics().since(&before);
        let backend_name = runtime.backend_name();
        let snapshot = runtime.shutdown().snapshot;
        let expected = kernel.expected(self.threads);
        if expected.len() != snapshot.len() {
            return Err(format!(
                "{}: expected() covers {} slots but the backend holds {}",
                kernel.name(),
                expected.len(),
                snapshot.len()
            ));
        }
        let tolerance = kernel.tolerance();
        for (slot, (&got, &want)) in snapshot.iter().zip(expected.iter()).enumerate() {
            if let Some(mismatch) = tolerance.mismatch(got, want) {
                return Err(format!(
                    "{} on {}: slot {slot} {mismatch}",
                    kernel.name(),
                    backend_name
                ));
            }
        }
        let mut totals = WorkerCounts::default();
        for counts in &counts {
            totals.merge(counts);
        }
        let report = RuntimeReport {
            threads: self.threads,
            updates: totals.updates,
            reads: totals.reads,
            elapsed,
            read_cost: metrics.read_cost,
            buffer_stats: metrics.buffer_stats,
            metrics,
        };
        Ok((report, snapshot))
    }
}

impl ExecutionBackend for RuntimeBackend {
    type Report = RuntimeReport;

    fn execute(&self, kernel: &dyn UpdateKernel) -> Result<RuntimeReport, String> {
        self.execute_with_snapshot(kernel).map(|(report, _)| report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coup_protocol::state::ProtocolKind;

    /// Minimal kernel: every thread adds 1 to every slot `rounds` times, with
    /// one barrier and a read pass at the end.
    struct CounterKernel {
        slots: usize,
        rounds: usize,
    }

    impl UpdateKernel for CounterKernel {
        fn name(&self) -> &'static str {
            "counter-kernel"
        }
        fn op(&self) -> CommutativeOp {
            CommutativeOp::AddU64
        }
        fn slots(&self) -> usize {
            self.slots
        }
        fn steps(&self, _thread: usize, _threads: usize) -> Vec<KernelStep> {
            let mut steps = Vec::new();
            for _ in 0..self.rounds {
                for slot in 0..self.slots {
                    steps.push(KernelStep::Update { slot, value: 1 });
                }
            }
            steps.push(KernelStep::Barrier);
            for slot in 0..self.slots {
                steps.push(KernelStep::Read { slot });
            }
            steps
        }
        fn expected(&self, threads: usize) -> Vec<u64> {
            vec![(threads * self.rounds) as u64; self.slots]
        }
    }

    #[test]
    fn sim_backend_runs_and_verifies_kernels() {
        let kernel = CounterKernel {
            slots: 6,
            rounds: 10,
        };
        for protocol in [ProtocolKind::Mesi, ProtocolKind::Meusi] {
            let stats = SimBackend::new(SystemConfig::test_system(4, protocol))
                .execute(&kernel)
                .expect("kernel verifies in the simulator");
            assert_eq!(stats.commutative_updates, 4 * 6 * 10);
        }
        let stats = SimBackend::with_rmw(SystemConfig::test_system(4, ProtocolKind::Mesi))
            .execute(&kernel)
            .expect("rmw lowering verifies");
        assert_eq!(
            stats.commutative_updates, 0,
            "rmw lowering issues no COUP updates"
        );
    }

    #[test]
    fn runtime_backends_run_and_verify_kernels() {
        let kernel = CounterKernel {
            slots: 6,
            rounds: 50,
        };
        for kind in [RuntimeKind::Atomic, RuntimeKind::Coup] {
            let report = RuntimeBackend::new(kind, 4)
                .execute(&kernel)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(report.updates, 4 * 6 * 50);
            assert_eq!(report.reads, 4 * 6);
            assert!(report.mops() > 0.0);
        }
    }

    #[test]
    fn stale_read_tier_verifies_static_kernels_on_both_runtime_backends() {
        let kernel = CounterKernel {
            slots: 6,
            rounds: 50,
        };
        for kind in [RuntimeKind::Atomic, RuntimeKind::Coup] {
            let report = RuntimeBackend::new(kind, 4)
                .with_read_tier(ReadTier::Stale)
                .execute(&kernel)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            // Stale reads change what the read pass *observes*, never the
            // verified shutdown snapshot — the run still verifies exactly.
            assert_eq!(report.updates, 4 * 6 * 50, "{kind:?}");
            assert_eq!(report.reads, 4 * 6, "{kind:?}");
            if kind == RuntimeKind::Coup {
                // Every Read step went through the relaxed path: the
                // staleness histogram saw one sample per read, and no read
                // paid a reduction.
                assert_eq!(report.metrics.staleness.count(), 4 * 6);
                assert_eq!(report.metrics.read_cost.reads, 0);
            }
        }
    }

    #[test]
    fn stale_read_tier_leaves_dynamic_programs_exact() {
        // DynamicTotalKernel's program asserts its post-barrier read sees
        // every thread's update — only true because dynamic kernels ignore
        // the requested tier and read exactly.
        let report = RuntimeBackend::new(RuntimeKind::Coup, 4)
            .with_read_tier(ReadTier::Stale)
            .execute(&DynamicTotalKernel)
            .expect("dynamic kernels stay exact under the stale tier");
        assert_eq!(report.metrics.staleness.count(), 0);
    }

    #[test]
    fn runtime_detects_wrong_expectations() {
        struct LyingKernel;
        impl UpdateKernel for LyingKernel {
            fn name(&self) -> &'static str {
                "liar"
            }
            fn op(&self) -> CommutativeOp {
                CommutativeOp::AddU64
            }
            fn slots(&self) -> usize {
                1
            }
            fn steps(&self, _t: usize, _n: usize) -> Vec<KernelStep> {
                vec![KernelStep::Update { slot: 0, value: 1 }]
            }
            fn expected(&self, _threads: usize) -> Vec<u64> {
                vec![999]
            }
        }
        let err = RuntimeBackend::new(RuntimeKind::Coup, 2)
            .execute(&LyingKernel)
            .unwrap_err();
        assert!(err.contains("expected exactly 999"), "got: {err}");
    }

    #[test]
    fn tolerance_exact_flags_any_difference() {
        assert!(Tolerance::Exact.mismatch(5, 5).is_none());
        let msg = Tolerance::Exact.mismatch(5, 6).expect("5 != 6");
        assert!(msg.contains("expected exactly 6"), "got: {msg}");
    }

    #[test]
    fn tolerance_relative_accepts_ulp_noise_and_rejects_lost_updates() {
        let tol = Tolerance::RelativeF64 {
            rel: 1e-9,
            abs: 1e-9,
        };
        let want = 1000.0f64;
        let close = want + want * 1e-12;
        assert!(tol.mismatch(close.to_bits(), want.to_bits()).is_none());
        // Near zero the absolute floor applies.
        assert!(tol.mismatch(1e-12f64.to_bits(), 0.0f64.to_bits()).is_none());
        // A whole missing contribution is far outside the bound.
        let lost = want - 1.5;
        let msg = tol
            .mismatch(lost.to_bits(), want.to_bits())
            .expect("a lost update must not hide in the tolerance");
        assert!(msg.contains("expected 1000"), "got: {msg}");
        // NaN never passes (the comparison is written not-less-or-equal).
        assert!(tol.mismatch(f64::NAN.to_bits(), want.to_bits()).is_some());
    }

    /// A dynamic kernel: every thread adds 1 to lane 0, barriers, reads the
    /// total (all threads must see `threads` — the derivation pattern of
    /// level-synchronous BFS), and echoes the observed value into lane 1.
    struct DynamicTotalKernel;

    struct DynamicTotalProgram {
        threads: usize,
        stage: usize,
    }

    impl KernelProgram for DynamicTotalProgram {
        fn next(&mut self, last_read: Option<u64>) -> Option<KernelStep> {
            self.stage += 1;
            match self.stage {
                1 => Some(KernelStep::Update { slot: 0, value: 1 }),
                2 => Some(KernelStep::Barrier),
                3 => Some(KernelStep::Read { slot: 0 }),
                4 => {
                    let seen = last_read.expect("a Read feeds the next step");
                    assert_eq!(
                        seen, self.threads as u64,
                        "post-barrier read must see every thread's update"
                    );
                    Some(KernelStep::Update {
                        slot: 1,
                        value: seen,
                    })
                }
                _ => None,
            }
        }
    }

    impl UpdateKernel for DynamicTotalKernel {
        fn name(&self) -> &'static str {
            "dyn-total"
        }
        fn op(&self) -> CommutativeOp {
            CommutativeOp::AddU64
        }
        fn slots(&self) -> usize {
            2
        }
        fn steps(&self, _t: usize, _n: usize) -> Vec<KernelStep> {
            unreachable!("dynamic kernels are driven through program()")
        }
        fn program(&self, _thread: usize, threads: usize) -> Option<Box<dyn KernelProgram>> {
            Some(Box::new(DynamicTotalProgram { threads, stage: 0 }))
        }
        fn expected(&self, threads: usize) -> Vec<u64> {
            let n = threads as u64;
            vec![n, n * n]
        }
    }

    #[test]
    fn dynamic_programs_feed_read_values_on_every_executor() {
        let kernel = DynamicTotalKernel;
        for protocol in [ProtocolKind::Mesi, ProtocolKind::Meusi] {
            SimBackend::new(SystemConfig::test_system(4, protocol))
                .execute(&kernel)
                .unwrap_or_else(|e| panic!("sim/{protocol}: {e}"));
        }
        SimBackend::with_rmw(SystemConfig::test_system(4, ProtocolKind::Mesi))
            .execute(&kernel)
            .expect("sim/rmw");
        for kind in [RuntimeKind::Atomic, RuntimeKind::Coup] {
            let report = RuntimeBackend::new(kind, 4)
                .execute(&kernel)
                .unwrap_or_else(|e| panic!("runtime/{kind:?}: {e}"));
            assert_eq!(report.updates, 8, "{kind:?}");
            assert_eq!(report.reads, 4, "{kind:?}");
        }
    }

    /// A dynamic kernel exercising [`KernelStep::UpdateRead`] feedback: the
    /// program applies a fetch-add and must observe the *new* value on every
    /// executor (the simulator's RMW returns the old word and the adapter
    /// normalises it).
    struct DynamicFetchAddKernel;

    struct DynamicFetchAddProgram {
        stage: usize,
    }

    impl KernelProgram for DynamicFetchAddProgram {
        fn next(&mut self, last_read: Option<u64>) -> Option<KernelStep> {
            self.stage += 1;
            match self.stage {
                1 => Some(KernelStep::UpdateRead { slot: 0, value: 7 }),
                2 => {
                    let seen = last_read.expect("UpdateRead feeds the next step");
                    assert_eq!(seen, 7, "the fetch-op returns the new value");
                    Some(KernelStep::Update {
                        slot: 0,
                        value: seen,
                    })
                }
                _ => None,
            }
        }
    }

    impl UpdateKernel for DynamicFetchAddKernel {
        fn name(&self) -> &'static str {
            "dyn-fetch-add"
        }
        fn op(&self) -> CommutativeOp {
            CommutativeOp::AddU64
        }
        fn slots(&self) -> usize {
            1
        }
        fn steps(&self, _t: usize, _n: usize) -> Vec<KernelStep> {
            unreachable!("dynamic kernels are driven through program()")
        }
        fn program(&self, _thread: usize, _threads: usize) -> Option<Box<dyn KernelProgram>> {
            Some(Box::new(DynamicFetchAddProgram { stage: 0 }))
        }
        fn expected(&self, _threads: usize) -> Vec<u64> {
            vec![14]
        }
    }

    #[test]
    fn dynamic_update_read_returns_the_new_value_on_every_executor() {
        let kernel = DynamicFetchAddKernel;
        SimBackend::new(SystemConfig::test_system(1, ProtocolKind::Meusi))
            .execute(&kernel)
            .expect("sim/coup lowering");
        SimBackend::with_rmw(SystemConfig::test_system(1, ProtocolKind::Mesi))
            .execute(&kernel)
            .expect("sim/rmw lowering");
        for kind in [RuntimeKind::Atomic, RuntimeKind::Coup] {
            RuntimeBackend::new(kind, 1)
                .execute(&kernel)
                .unwrap_or_else(|e| panic!("runtime/{kind:?}: {e}"));
        }
    }

    #[test]
    fn update_read_lowers_to_one_rmw_or_update_plus_load() {
        struct DecKernel;
        impl UpdateKernel for DecKernel {
            fn name(&self) -> &'static str {
                "dec"
            }
            fn op(&self) -> CommutativeOp {
                CommutativeOp::AddU64
            }
            fn slots(&self) -> usize {
                1
            }
            fn steps(&self, _t: usize, _n: usize) -> Vec<KernelStep> {
                vec![
                    KernelStep::Update { slot: 0, value: 5 },
                    KernelStep::UpdateRead {
                        slot: 0,
                        value: (-2i64) as u64,
                    },
                ]
            }
            fn expected(&self, threads: usize) -> Vec<u64> {
                vec![3 * threads as u64]
            }
        }
        let coup = SimBackend::new(SystemConfig::test_system(2, ProtocolKind::Meusi));
        let rmw = SimBackend::with_rmw(SystemConfig::test_system(2, ProtocolKind::Mesi));
        coup.execute(&DecKernel).expect("coup lowering");
        rmw.execute(&DecKernel).expect("rmw lowering");
        let report = RuntimeBackend::new(RuntimeKind::Atomic, 2)
            .execute(&DecKernel)
            .unwrap();
        assert_eq!((report.updates, report.reads), (4, 2));
    }
}
