//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|serve|kernels|paper_sim> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs one workload and reports the end-to-end metrics that
//! `BENCHMARK.json` lists; `--trace 1` runs every workload, untraced and
//! then traced, plus the direct-call layer ledger, and reports the
//! per-layer metrics. Human-readable lines come first; the last line of
//! standard output is the JSON result. See `perfbench/README.md`.

mod ingest;
mod json;
mod kernels;
mod ledger;
mod outcome;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use outcome::{peak_rss_mb, Budget, Outcome};
use report::{describe, Metric, RunResult};
use stats::median;
use trace::{Span, Tracer};

const WORKLOADS: [&str; 4] = ["ingest", "serve", "kernels", "paper_sim"];
/// Set-up repetitions of an untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Fewest units of work an untraced run measures, however short
/// `--seconds` is.
const MIN_TASKS: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, seed: u64, budget: Budget, tracer: Option<&Tracer>) -> Outcome {
    match name {
        "ingest" => ingest::run(seed, ingest::Config::default(), budget, tracer),
        "serve" => serve::run(seed, budget, tracer),
        "kernels" => kernels::run(seed, budget, tracer),
        _ => sim::run(budget, tracer),
    }
}

/// The metrics (name and unit) `BENCHMARK.json` promises for each mode.
fn declared_metrics(section: &str) -> Result<BTreeSet<(String, String)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(section)
        .and_then(json::Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {section} list"))?;
    list.iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(json::Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: a {section} entry has no {key}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Commit of the checkout, when it is a git work tree; the benchmark also
/// runs from exported trees that carry no history.
fn commit() -> String {
    if let Ok(c) = std::env::var("BENCH_COMMIT") {
        return c;
    }
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn run_record(args: &Args, extra: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "run-record {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"ingest\": {{\"producers\": {}, \"workers\": {}, \"lanes\": {}, \"updates_per_round\": {}}}, \
         \"serve\": {{\"generator_threads\": 1, \"workers\": {}, \"offered_ops_per_s\": {}, \"tick_ops\": {}}}, \
         \"kernels\": {{\"workers\": {}}}, \"paper_sim\": {{\"threads\": 1}}, \"setups\": {SETUPS}, \
         \"commit\": {}{extra}}}",
        json::quote(&args.workload),
        args.seed,
        json::number(args.seconds),
        args.trace,
        ingest::PRODUCERS,
        ingest::WORKERS,
        ingest::LANES,
        ingest::PRODUCERS * ingest::PER_PRODUCER,
        serve::WORKERS,
        json::number(serve::OFFERED_OPS_PER_S),
        serve::TICK_OPS,
        kernels::WORKERS,
        json::quote(&commit()),
    )
}

fn print_timings(outcome: &Outcome) {
    for t in &outcome.timings {
        println!("{}", describe(t.name, t.unit, &t.samples, t.tail));
    }
    for flag in &outcome.flags {
        println!("  note: {flag}");
    }
}

fn untraced(args: &Args) -> RunResult {
    let budget = Budget {
        seconds: args.seconds,
        min_tasks: MIN_TASKS,
        setups: SETUPS,
    };
    let outcome = run_workload(&args.workload, args.seed, budget, None);
    let setup_s = median(&outcome.setup_s);
    println!("workload {} (seed {})", args.workload, args.seed);
    println!(
        "  setup_s                  {setup_s:.4} s (median of {} set-ups)",
        outcome.setup_s.len()
    );
    println!("{}", describe("task_ms", "ms", &outcome.task_ms, 90.0));
    print_timings(&outcome);
    println!(
        "  failed_frac              {} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{}",
        run_record(args, &format!(", \"tasks\": {}", outcome.task_ms.count()))
    );
    RunResult {
        correct: outcome.failed == 0,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics: vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new("peak_rss_mb", "MiB", peak_rss_mb()),
            Metric::new("task_p50_ms", "ms", outcome.task_ms.median()),
        ],
    }
}

/// The workload-level figures the per-layer metrics are read against,
/// under the names the workload documentation uses.
fn headline(name: &str, outcome: &Outcome) -> Vec<Metric> {
    let p = |timing: &str, pct: f64| outcome.timing(timing).map_or(0.0, |s| s.pct(pct));
    match name {
        "ingest" => vec![Metric::new("update_mops", "M/s", p("update_mops", 50.0))],
        "serve" => vec![
            Metric::new("visibility_p50_us", "us", p("visibility_us", 50.0)),
            Metric::new("visibility_p90_us", "us", p("visibility_us", 90.0)),
            Metric::new("read_exact_p50_ns", "ns", p("read_exact_ns", 50.0)),
            Metric::new("read_exact_p99_ns", "ns", p("read_exact_ns", 99.0)),
            Metric::new("read_stale_p50_ns", "ns", p("read_stale_ns", 50.0)),
            Metric::new("read_stale_p99_ns", "ns", p("read_stale_ns", 99.0)),
        ],
        "kernels" => ["hist_ms", "pgrank_ms", "refcount_ms", "bfs_ms"]
            .into_iter()
            .map(|t| Metric::new(t, "ms", p(t, 50.0)))
            .collect(),
        _ => vec![Metric::new("sim_s", "s", p("sim_s", 50.0))],
    }
}

/// Spans of one workload's traced run: everything recorded without a
/// parent hangs under one root span covering the whole run.
fn under_root(tracer: &Tracer, name: &'static str, start: Instant, end: Instant) -> Vec<Span> {
    let mut local = tracer.local(0);
    let root = local.next_id();
    local.record_as(root, name, 0, 0, start, end);
    drop(local);
    let mut spans = tracer.take();
    for s in spans.iter_mut().filter(|s| s.parent == 0 && s.id != root) {
        s.parent = root;
    }
    spans
}

fn traced(args: &Args) -> Result<RunResult, String> {
    let tracer = Tracer::new();
    let share = args.seconds / 8.0;
    let budget = Budget {
        seconds: share,
        min_tasks: 2,
        setups: 2,
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    let mut all_spans = Vec::new();
    let mut tally = |o: &Outcome| {
        attempted += o.attempted;
        failed += o.failed;
    };
    const ROOTS: [&str; 4] = [
        "workload.ingest",
        "workload.serve",
        "workload.kernels",
        "workload.paper_sim",
    ];
    for (name, root) in WORKLOADS.into_iter().zip(ROOTS) {
        let plain = run_workload(name, args.seed, budget, None);
        tally(&plain);
        let start = Instant::now();
        let mut with_spans = run_workload(name, args.seed, budget, Some(&tracer));
        let spans = under_root(&tracer, root, start, Instant::now());
        tally(&with_spans);
        let selfs = trace::self_times(&spans);
        let root_span = spans
            .iter()
            .find(|s| s.name == root)
            .expect("root span recorded");
        let unaccounted = selfs[&root_span.id] as f64 / root_span.duration().max(1) as f64;
        println!("traced {name}:");
        print_timings(&plain);
        for (span, self_ns) in trace::self_time_by_name(&spans) {
            println!("  self time {span:<22} {:>10.3} ms", self_ns as f64 / 1e6);
        }
        metrics.append(&mut headline(name, &plain));
        metrics.append(&mut with_spans.layer);
        metrics.push(Metric::new(
            format!("trace.overhead_pct.{name}"),
            "%",
            (with_spans.task_ms.median() / plain.task_ms.median() - 1.0) * 100.0,
        ));
        metrics.push(Metric::new(
            format!("trace.unaccounted_pct.{name}"),
            "%",
            unaccounted * 100.0,
        ));
        all_spans.extend(spans);
    }

    // The paper's baseline: the same ingest rounds on the atomic backend.
    let atomic_cfg = ingest::Config {
        backend: coup_runtime::BackendKind::Atomic,
        ..ingest::Config::default()
    };
    let small = budget.scaled(0.5);
    let atomic = ingest::run(args.seed, atomic_cfg, small, None);
    tally(&atomic);
    metrics.push(Metric::new(
        "store.atomic_update_mops",
        "M/s",
        atomic
            .timing("update_mops")
            .map_or(0.0, stats::Samples::median),
    ));
    // Telemetry on/off, interleaved.
    let off_cfg = ingest::Config {
        telemetry: coup_runtime::TelemetryConfig::disabled(),
        ..ingest::Config::default()
    };
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for (cfg, times) in [(ingest::Config::default(), &mut on), (off_cfg, &mut off)] {
            let o = ingest::run(args.seed, cfg, small.scaled(0.5), None);
            tally(&o);
            times.push(o.task_ms.median());
        }
    }
    metrics.push(Metric::new(
        "telemetry.update_overhead_pct",
        "%",
        (median(&on) / median(&off) - 1.0) * 100.0,
    ));

    metrics.extend(ledger::measure(args.seed));
    let mut per_access = sim::ns_per_access(Some(&tracer));
    tally(&per_access);
    print_timings(&per_access);
    metrics.append(&mut per_access.layer);
    all_spans.extend(tracer.take());

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&file, trace::chrome_json(&all_spans))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!(
        "trace: {} spans written to {}",
        all_spans.len(),
        file.display()
    );
    println!("{}", run_record(args, ""));
    Ok(RunResult {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = match declared_metrics(section) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        match traced(&args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        untraced(&args)
    };
    let produced: BTreeSet<(String, String)> = result
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    if produced != declared || produced.len() != result.metrics.len() {
        eprintln!(
            "perfbench: metrics differ from BENCHMARK.json {section}: missing {:?}, undeclared {:?}",
            declared.difference(&produced).collect::<Vec<_>>(),
            produced.difference(&declared).collect::<Vec<_>>()
        );
        return ExitCode::from(3);
    }
    let line = result.to_json_line();
    if let Err(e) = RunResult::from_json(&line) {
        eprintln!("perfbench: result line does not read back: {e}");
        return ExitCode::from(3);
    }
    println!("{line}");
    ExitCode::SUCCESS
}
