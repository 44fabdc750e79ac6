//! `kernels`: batch jobs through `RuntimeBackend::new(RuntimeKind::Coup, 2)
//! .execute`, each verified against the kernel's sequential reference.
//! `hist` is update-only, `pgrank` a scatter, `refcount` mixes updates with
//! decrement-and-test reads, and `bfs` is dynamic, its reads steering
//! control flow. `run_workers` bypasses the submission rings and drives the
//! backend, store and engine directly; reads serve control flow here, not
//! monitoring. A unit of work is one pass over the four jobs.

use std::time::Instant;

use coup_workloads::bfs::BfsWorkload;
use coup_workloads::hist::{HistScheme, HistWorkload};
use coup_workloads::kernel::{
    ExecutionBackend, RuntimeBackend, RuntimeKind, RuntimeReport, UpdateKernel,
};
use coup_workloads::pgrank::PageRankWorkload;
use coup_workloads::refcount::{ImmediateRefcount, RefcountScheme};

use crate::outcome::{ms, Budget, Outcome, Timing};
use crate::report::Metric;
use crate::stats::{median, Samples};
use crate::trace::Tracer;

pub const WORKERS: usize = 2;
pub const NAMES: [&str; 4] = ["hist", "pgrank", "refcount", "bfs"];
const JOB_SPANS: [&str; 4] = ["job.hist", "job.pgrank", "job.refcount", "job.bfs"];
const TASK_TIMINGS: [&str; 4] = ["hist_ms", "pgrank_ms", "refcount_ms", "bfs_ms"];

/// Generated inputs. Sized so each job runs for some milliseconds on two
/// workers: long enough to time, short enough that a run holds over a
/// hundred passes.
struct Inputs {
    hist: HistWorkload,
    pgrank: PageRankWorkload,
    refcount: ImmediateRefcount,
    bfs: BfsWorkload,
    gen_ms: [f64; 4],
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let mut gen_ms = [0.0; 4];
        let mut timed = |i: usize, t0: Instant| gen_ms[i] = ms(t0.elapsed());
        let t = Instant::now();
        let hist = HistWorkload::new(600_000, 256, HistScheme::Shared, seed);
        timed(0, t);
        let t = Instant::now();
        let pgrank = PageRankWorkload::new(60_000, 8, 1, seed ^ 1);
        timed(1, t);
        let t = Instant::now();
        let refcount = ImmediateRefcount::new(64, 80_000, false, RefcountScheme::Coup, seed ^ 2);
        timed(2, t);
        let t = Instant::now();
        let bfs = BfsWorkload::new(16_000, 8, seed ^ 3);
        timed(3, t);
        Inputs {
            hist,
            pgrank,
            refcount,
            bfs,
            gen_ms,
        }
    }

    fn execute(&self, job: usize) -> Result<RuntimeReport, String> {
        let backend = RuntimeBackend::new(RuntimeKind::Coup, WORKERS);
        match job {
            0 => backend.execute(&self.hist.kernel()),
            1 => backend.execute(&self.pgrank.kernel()),
            2 => backend.execute(&self.refcount.kernel()),
            _ => backend.execute(&self.bfs.kernel() as &dyn UpdateKernel),
        }
    }
}

fn ops(report: &RuntimeReport) -> u64 {
    report.updates + report.reads
}

pub fn run(seed: u64, budget: Budget, tracer: Option<&Tracer>) -> Outcome {
    let mut local = tracer.map(|t| t.local(0));
    let mut out = Outcome::default();
    let mut errors = Vec::new();
    // Ops of each job's warm-up run: what a failed job of that kind counts.
    let mut nominal = [1u64; 4];
    let mut kept = None;
    let setups = budget.setups.max(1);
    for rep in 0..setups {
        let t0 = Instant::now();
        let inputs = Inputs::generate(seed);
        for (job, nominal) in nominal.iter_mut().enumerate() {
            match inputs.execute(job) {
                Ok(report) => *nominal = ops(&report),
                Err(e) => {
                    out.failed += *nominal;
                    errors.push(e);
                }
            }
            out.attempted += *nominal;
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(l) = local.as_mut() {
            l.record("setup", 0, 0, t0, Instant::now());
        }
        if rep + 1 == setups {
            kept = Some(inputs);
        }
    }
    let inputs = kept.expect("at least one set-up ran");

    let mut job_ms: [Vec<f64>; 4] = Default::default();
    let mut last: [Option<RuntimeReport>; 4] = Default::default();
    let mut pass_ms = Vec::new();
    let deadline = budget.deadline(Instant::now());
    while pass_ms.len() < budget.min_tasks || Instant::now() < deadline {
        let pass = pass_ms.len() as u64 + 1;
        let pass_id = tracer.map_or(0, Tracer::next_id);
        let pass_start = Instant::now();
        let mut total = 0.0;
        for job in 0..4 {
            let t0 = Instant::now();
            let result = inputs.execute(job);
            if let Some(l) = local.as_mut() {
                l.record(JOB_SPANS[job], pass_id, pass, t0, Instant::now());
            }
            match result {
                Ok(report) => {
                    let t = ms(report.elapsed);
                    total += t;
                    job_ms[job].push(t);
                    out.attempted += ops(&report);
                    last[job] = Some(report);
                }
                Err(e) => {
                    out.attempted += nominal[job];
                    out.failed += nominal[job];
                    errors.push(e);
                }
            }
        }
        if let Some(l) = local.as_mut() {
            l.record_as(pass_id, "pass", 0, pass, pass_start, Instant::now());
        }
        pass_ms.push(total);
    }
    out.task_ms = Samples::new(pass_ms);
    if let Some(first) = errors.first() {
        out.flags.push(format!(
            "kernels: {} jobs failed verification, first: {first}",
            errors.len()
        ));
    }
    if tracer.is_some() {
        for (job, name) in NAMES.iter().enumerate() {
            // A kind whose every job failed reports zeros (and the run is
            // already marked incorrect).
            let count = |f: fn(&RuntimeReport) -> f64| last[job].as_ref().map_or(0.0, f);
            out.layer.extend([
                Metric::new(
                    format!("kernel.{name}.updates"),
                    "count",
                    count(|r| r.updates as f64),
                ),
                Metric::new(
                    format!("kernel.{name}.reads"),
                    "count",
                    count(|r| r.reads as f64),
                ),
                Metric::new(
                    format!("kernel.{name}.read_words_per_read"),
                    "words",
                    count(|r| r.read_cost.buffer_words as f64 / r.read_cost.reads.max(1) as f64),
                ),
                Metric::new(
                    format!("kernel.{name}.flushes"),
                    "count",
                    count(|r| r.buffer_stats.flushes as f64),
                ),
                Metric::new(format!("kernel.{name}.gen_ms"), "ms", inputs.gen_ms[job]),
            ]);
        }
    }
    for (job, samples) in job_ms.into_iter().enumerate() {
        out.timings.push(Timing {
            name: TASK_TIMINGS[job],
            unit: "ms",
            samples: Samples::new(samples),
            tail: 90.0,
        });
    }
    out
}

/// Median wall time of an empty `run_workers` job on the kernels' runtime
/// shape, in microseconds: the engine's fixed cost per job.
pub fn job_overhead_us(reps: usize) -> f64 {
    let runtime = coup_runtime::RuntimeBuilder::new(coup_protocol::ops::CommutativeOp::AddU64, 64)
        .workers(WORKERS)
        .build();
    let times: Vec<f64> = (0..reps)
        .map(|_| runtime.run_workers(|ctx| ctx.worker()).1.as_secs_f64() * 1e6)
        .collect();
    median(&times)
}
