//! End-to-end benchmark of the condep workspace.
//!
//! Three workloads, each timing calls into public functions of the
//! workspace crates from the outside:
//!
//! * [`audit`]: `Validator::validate` on fresh partitions;
//! * [`monitor`]: `QualityMonitor::ingest_batch` windows on a resident
//!   instance;
//! * [`clean`]: sampled discovery followed by repair on dirty
//!   partitions.
//!
//! Each has an untraced `measure` (the end-to-end numbers) and a
//! `traced` variant that replays the same seeds with spans around each
//! call and derives the per-layer numbers. See `README.md`.

pub mod audit;
pub mod clean;
pub mod inputs;
pub mod monitor;
pub mod stats;
pub mod trace;

use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Audit,
    Monitor,
    Clean,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Audit, Workload::Monitor, Workload::Clean];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Audit => "audit",
            Workload::Monitor => "monitor",
            Workload::Clean => "clean",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one op counts as items for `items_per_s`.
    pub fn item(self) -> &'static str {
        match self {
            Workload::Audit => "rows validated",
            Workload::Monitor => "mutations applied",
            Workload::Clean => "rows profiled and cleaned",
        }
    }
}

/// Failed output checks of a run.
#[derive(Clone, Debug, Default)]
pub struct Failures {
    pub count: usize,
    /// The first few messages.
    pub messages: Vec<String>,
}

impl Failures {
    const KEEP: usize = 8;

    /// Counts `ops` failed ops, described by `msg`.
    pub fn record(&mut self, ops: usize, msg: String) {
        self.count += ops;
        if self.messages.len() < Self::KEEP {
            self.messages.push(msg);
        }
    }

    /// Records `msg` as one failed op unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) -> bool {
        if !ok {
            self.record(1, msg());
        }
        ok
    }
}

/// What an untraced run of one workload measured.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Each op, in µs.
    pub op_us: Vec<f64>,
    /// Ops per round, for a run made of rounds; empty for one round.
    pub round_ops: Vec<usize>,
    /// Items the ops processed in total.
    pub items: u64,
    pub failures: Failures,
}

impl Measured {
    /// The op times of each round.
    pub fn rounds(&self) -> Vec<&[f64]> {
        if self.round_ops.is_empty() {
            return vec![&self.op_us];
        }
        let mut rest = self.op_us.as_slice();
        self.round_ops
            .iter()
            .map(|&n| {
                let (round, tail) = rest.split_at(n);
                rest = tail;
                round
            })
            .collect()
    }
}

/// One metric of a result.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a traced run of one workload produced.
#[derive(Debug)]
pub struct Traced {
    pub workload: Workload,
    pub tracer: trace::Tracer,
    pub metrics: Vec<Metric>,
    /// The same ops timed without spans, for the tracing overhead.
    pub untraced_op_us: Vec<f64>,
    /// The `op` span of each traced op.
    pub traced_op_us: Vec<f64>,
    pub attempted: usize,
    pub failures: Failures,
}

impl Traced {
    fn new(workload: Workload) -> Self {
        Traced {
            workload,
            tracer: trace::Tracer::default(),
            metrics: Vec::new(),
            untraced_op_us: Vec::new(),
            traced_op_us: Vec::new(),
            attempted: 0,
            failures: Failures::default(),
        }
    }

    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Median of per-op samples, in µs.
    fn median_us(&mut self, name: &'static str, samples: &[f64]) {
        self.metric(name, "us", stats::median(samples));
    }
}

/// Ops each traced workload runs at least; the exact counts of the
/// traced run are taken over these first ops, so they do not depend on
/// how fast the ops ran.
pub const fn exact_ops(w: Workload) -> usize {
    match w {
        Workload::Audit => 4,
        Workload::Monitor => 256,
        Workload::Clean => 2,
    }
}

/// Time each op iteration spends on set-up samples, for set-ups far
/// shorter than an op.
const SETUP_SLICE_S: f64 = 0.001;

/// Takes set-up samples between two ops: repeats `f`, which runs one
/// set-up, drops what it built and returns the seconds it timed, until
/// [`SETUP_SLICE_S`] is spent, at least once. A set-up of microseconds
/// swings with the host from one second to the next; spreading its
/// samples over the whole run lets their median average those swings
/// out, as the ops' median does.
fn setup_slice(times: &mut Vec<f64>, mut f: impl FnMut() -> f64) {
    let mut spent = 0.0;
    while spent < SETUP_SLICE_S {
        let s = f();
        times.push(s);
        spent += s;
    }
}

/// Should a measured loop run another op?
fn keep_going(start: Instant, budget: Duration, ops: usize, min_ops: usize) -> bool {
    ops < min_ops || start.elapsed() < budget
}

/// The elapsed time of `start` in µs.
fn us_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3
}

/// The process's peak resident set size in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
