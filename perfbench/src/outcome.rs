//! What one workload run hands back to `main.rs`.

use std::time::{Duration, Instant};

use crate::report::Metric;
use crate::stats::Samples;

/// A sampled timing under the name the workload's documentation gives it.
#[derive(Debug)]
pub struct Timing {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Samples,
    /// The tail percentile worth reporting for this many samples.
    pub tail: f64,
}

#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Completion time of each unit of work (round, marker, pass, call), ms.
    pub task_ms: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// The workload's own named timings, for the human-readable report.
    pub timings: Vec<Timing>,
    /// Per-layer measurements this run yields (traced runs only).
    pub layer: Vec<Metric>,
    /// Conditions a reader must see next to the numbers (e.g. a generator
    /// that fell short of its offered rate).
    pub flags: Vec<String>,
}

impl Outcome {
    pub fn timing(&self, name: &str) -> Option<&Samples> {
        self.timings
            .iter()
            .find(|t| t.name == name)
            .map(|t| &t.samples)
    }
}

/// How long a workload's timed phase runs, and the least work it does
/// whatever the clock says.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_tasks: usize,
    /// Set-up repetitions; `setup_s` is their median. (`ingest` sets up
    /// once per runtime it builds instead.)
    pub setups: usize,
}

impl Budget {
    pub fn deadline(&self, from: Instant) -> Instant {
        from + Duration::from_secs_f64(self.seconds)
    }

    pub fn scaled(&self, share: f64) -> Budget {
        Budget {
            seconds: self.seconds * share,
            ..*self
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
