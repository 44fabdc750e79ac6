//! `paper_sim`: the simulator's paper figures at `Scale::Small` through
//! `coup::experiments`, single-threaded — fig10 and fig11 for all five
//! Table-2 applications and fig13 (immediate, low and high count, and
//! delayed). It is the only workload that runs `coup-sim`, `coup-protocol`
//! and `coup-cache`. The figures' inputs are fixed by the experiments
//! module, so the simulated statistics are deterministic: a change to
//! simulator speed alone must leave their digest bit-identical. A unit of
//! work is one pass over the thirteen figure calls.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use coup::experiments::{
    fig10_speedups, fig11_amat, fig13_delayed, fig13_immediate, paper_workloads, Scale,
    ScalingPoint,
};
use coup_protocol::state::ProtocolKind;
use coup_sim::config::SystemConfig;
use coup_workloads::runner::run_workload;

use crate::outcome::{Budget, Outcome, Timing};
use crate::report::Metric;
use crate::stats::{median, Samples};
use crate::trace::Tracer;

const SCALE: Scale = Scale::Small;
/// Core count of fig13's delayed-deallocation sweep at small scale.
const FIG13_DELAYED_CORES: usize = 8;

/// FNV-1a, truncated to 48 bits so it survives a trip through an f64.
fn digest(text: &str, mut hash: u64) -> u64 {
    for b in text.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}
const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Figure {
    Fig10,
    Fig11,
    Fig13,
}

/// One pass's figure calls, in order.
fn calls(apps: &[&'static str]) -> Vec<(Figure, &'static str)> {
    let mut calls: Vec<_> = apps.iter().map(|&a| (Figure::Fig10, a)).collect();
    calls.extend(apps.iter().map(|&a| (Figure::Fig11, a)));
    calls.extend([
        (Figure::Fig13, "immediate-low"),
        (Figure::Fig13, "immediate-high"),
        (Figure::Fig13, "delayed"),
    ]);
    calls
}

/// What one figure call simulated: its rows' text (for the digest) plus
/// the simulated accesses and cycles of the fig10/fig11 runs.
struct CallResult {
    rows: String,
    accesses: u64,
    cycles: u64,
}

fn scaling(points: &[ScalingPoint]) -> CallResult {
    CallResult {
        rows: format!("{points:?}"),
        accesses: points
            .iter()
            .map(|p| p.mesi.accesses + p.meusi.accesses)
            .sum(),
        cycles: points.iter().map(|p| p.mesi.cycles + p.meusi.cycles).sum(),
    }
}

fn call(figure: Figure, what: &'static str) -> CallResult {
    match (figure, what) {
        (Figure::Fig10, app) => scaling(&fig10_speedups(SCALE, app)),
        (Figure::Fig11, app) => scaling(&fig11_amat(SCALE, app)),
        (Figure::Fig13, "delayed") => CallResult {
            rows: format!("{:?}", fig13_delayed(SCALE, FIG13_DELAYED_CORES)),
            accesses: 0,
            cycles: 0,
        },
        (Figure::Fig13, variant) => CallResult {
            rows: format!("{:?}", fig13_immediate(SCALE, variant == "immediate-high")),
            accesses: 0,
            cycles: 0,
        },
    }
}

pub fn run(budget: Budget, tracer: Option<&Tracer>) -> Outcome {
    let mut local = tracer.map(|t| t.local(0));
    let mut out = Outcome::default();
    let mut apps = Vec::new();
    for _ in 0..budget.setups.max(1) {
        // Set-up: synthesise the Table-2 inputs and warm the simulator with
        // one small run of each.
        let t0 = Instant::now();
        let workloads = paper_workloads(SCALE);
        apps = workloads.iter().map(|(name, _)| *name).collect();
        let cfg = SystemConfig::test_system(4, ProtocolKind::Meusi);
        for (_, workload) in &workloads {
            out.attempted += 1;
            if run_workload(cfg, workload.as_ref()).is_err() {
                out.failed += 1;
            }
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(l) = local.as_mut() {
            l.record("setup", 0, 0, t0, Instant::now());
        }
    }
    let calls = calls(&apps);

    let mut pass_s = Vec::new();
    let mut figure_s: [Vec<f64>; 3] = Default::default();
    let mut digests = Vec::new();
    let (mut accesses, mut cycles) = (0u64, 0u64);
    let deadline = budget.deadline(Instant::now());
    while pass_s.len() < budget.min_tasks || Instant::now() < deadline {
        let pass = pass_s.len() as u64 + 1;
        let pass_id = tracer.map_or(0, Tracer::next_id);
        let pass_start = Instant::now();
        let mut hash = DIGEST_BASIS;
        let mut per_figure = [0.0; 3];
        let (mut pass_accesses, mut pass_cycles) = (0, 0);
        for &(figure, what) in &calls {
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| call(figure, what)));
            let t1 = Instant::now();
            out.attempted += 1;
            let name = match figure {
                Figure::Fig10 => "fig10",
                Figure::Fig11 => "fig11",
                Figure::Fig13 => "fig13",
            };
            if let Some(l) = local.as_mut() {
                l.record(name, pass_id, pass, t0, t1);
            }
            match result {
                Ok(r) => {
                    hash = digest(&r.rows, hash);
                    pass_accesses += r.accesses;
                    pass_cycles += r.cycles;
                }
                Err(_) => {
                    out.failed += 1;
                    out.flags.push(format!("paper_sim: {name} {what} failed"));
                }
            }
            per_figure[figure as usize] += (t1 - t0).as_secs_f64();
        }
        if let Some(l) = local.as_mut() {
            l.record_as(pass_id, "pass", 0, pass, pass_start, Instant::now());
        }
        pass_s.push(pass_start.elapsed().as_secs_f64());
        for (all, this) in figure_s.iter_mut().zip(per_figure) {
            all.push(this);
        }
        digests.push(hash & 0xFFFF_FFFF_FFFF);
        accesses = pass_accesses;
        cycles = pass_cycles;
    }
    // Deterministic inputs: every pass must simulate exactly the same thing.
    let diverged = digests.iter().filter(|&&d| d != digests[0]).count();
    if diverged > 0 {
        out.failed += diverged as u64;
        out.flags.push(format!(
            "paper_sim: {diverged} passes produced different simulated statistics"
        ));
    }
    out.task_ms = Samples::new(pass_s.iter().map(|s| s * 1e3).collect());
    out.timings.push(Timing {
        name: "sim_s",
        unit: "s",
        samples: Samples::new(pass_s),
        tail: 90.0,
    });
    if tracer.is_some() {
        out.layer = vec![
            Metric::new("sim.fig10_s", "s", median(&figure_s[0])),
            Metric::new("sim.fig11_s", "s", median(&figure_s[1])),
            Metric::new("sim.fig13_s", "s", median(&figure_s[2])),
            Metric::new("sim.accesses", "count", accesses as f64),
            Metric::new("sim.cycles", "count", cycles as f64),
            Metric::new("sim.stats_digest", "hash", digests[0] as f64),
        ];
    }
    out
}

/// Host nanoseconds per simulated access under MESI and under MEUSI, over
/// the five Table-2 applications at 16 cores, one `run_workload` span each.
pub fn ns_per_access(tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let mut local = tracer.map(|t| t.local(0));
    let workloads = paper_workloads(SCALE);
    let mut per = [(0.0f64, 0u64); 2];
    for (_, workload) in &workloads {
        for (i, protocol) in [ProtocolKind::Mesi, ProtocolKind::Meusi]
            .into_iter()
            .enumerate()
        {
            let t0 = Instant::now();
            let stats = run_workload(SystemConfig::test_system(16, protocol), workload.as_ref());
            let t1 = Instant::now();
            if let Some(l) = local.as_mut() {
                let name = ["run_workload.mesi", "run_workload.meusi"][i];
                l.record(name, 0, 0, t0, t1);
            }
            out.attempted += 1;
            match stats {
                Ok(stats) => {
                    per[i].0 += (t1 - t0).as_nanos() as f64;
                    per[i].1 += stats.accesses;
                }
                Err(e) => {
                    out.failed += 1;
                    out.flags
                        .push(format!("paper_sim: run_workload failed: {e}"));
                }
            }
        }
    }
    let rate = |(ns, accesses): (f64, u64)| ns / accesses.max(1) as f64;
    out.layer = vec![
        Metric::new("sim.mesi_ns_per_access", "ns", rate(per[0])),
        Metric::new("sim.meusi_ns_per_access", "ns", rate(per[1])),
    ];
    out
}
