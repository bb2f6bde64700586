//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <audit|monitor|clean> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the named workload untraced and reports the
//! end-to-end metrics. With `--trace 1` it runs the traced variant of
//! every workload, so that every per-layer metric is measured in one
//! run, and writes the spans to `traces/` in the package directory.
//! The last line of standard output is the result as one JSON object.

use condep::telemetry::json::JsonWriter;
use condep_perfbench::inputs::Sizes;
use condep_perfbench::stats::{median, tail};
use condep_perfbench::{
    audit, clean, monitor, peak_rss_mb, Failures, Measured, Metric, Traced, Workload,
};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line: one JSON object on one line.
fn result_line(failures: &Failures, attempted: usize, metrics: &[Metric]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.value_bool(failures.count == 0);
    w.key("attempted");
    w.value_u64(attempted as u64);
    w.key("failed");
    w.value_u64(failures.count as u64);
    w.key("metrics");
    w.begin_object();
    for m in metrics {
        w.key(m.name);
        w.begin_object();
        w.key("value");
        w.value_f64(m.value);
        w.key("unit");
        w.value_str(m.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish().lines().map(str::trim_start).collect()
}

fn print_failures(failures: &Failures) {
    for msg in &failures.messages {
        eprintln!("check failed: {msg}");
    }
}

fn untraced(args: &Args, sizes: &Sizes) -> Result<String, String> {
    let budget = Duration::from_secs(args.seconds);
    let m: Measured = match args.workload {
        Workload::Audit => audit::measure(args.seed, sizes, budget),
        Workload::Monitor => monitor::measure(args.seed, sizes, budget),
        Workload::Clean => clean::measure(args.seed, sizes, budget),
    };
    print_failures(&m.failures);
    let rounds = m.rounds();
    let tail = tail(&rounds).ok_or_else(|| {
        format!(
            "{} ops in {} rounds are too few for a tail percentile",
            m.op_us.len(),
            rounds.len()
        )
    })?;
    let total_s: f64 = m.op_us.iter().sum::<f64>() / 1e6;
    let rss = peak_rss_mb().ok_or("cannot read the peak RSS from /proc/self/status")?;
    let metrics = [
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&m.setup_s),
        },
        Metric {
            name: "op_p50_us",
            unit: "us",
            value: median(&m.op_us),
        },
        Metric {
            name: "op_tail_us",
            unit: "us",
            value: tail.value,
        },
        Metric {
            name: "items_per_s",
            unit: "1/s",
            value: m.items as f64 / total_s,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: rss,
        },
    ];
    println!(
        "workload {} seed {}: {} ops, {} failed; {} set-ups",
        args.workload.name(),
        args.seed,
        m.op_us.len(),
        m.failures.count,
        m.setup_s.len()
    );
    for x in &metrics {
        println!("  {:<12} {:>14.3} {}", x.name, x.value, x.unit);
    }
    println!(
        "  op_tail_us is p{} of {} ops in {} round(s), the median of the rounds' p{}; \
         at least {} ops beyond it in each; items are {}",
        tail.percentile,
        m.op_us.len(),
        rounds.len(),
        tail.percentile,
        tail.beyond,
        args.workload.item()
    );
    Ok(result_line(&m.failures, m.op_us.len(), &metrics))
}

fn print_traced(t: &Traced) {
    println!(
        "traced workload {}: {} ops, {} failed",
        t.workload.name(),
        t.attempted,
        t.failures.count
    );
    println!(
        "  {:<32} {:>8} {:>14} {:>14} {:>7}",
        "span", "calls", "p50 self us", "total self ms", "share"
    );
    for row in t.tracer.self_time_table() {
        println!(
            "  {:<32} {:>8} {:>14.1} {:>14.1} {:>6.1}%",
            row.name,
            row.calls,
            row.p50_self_us,
            row.total_self_ms,
            row.share * 100.0
        );
    }
    let (traced, untraced) = (median(&t.traced_op_us), median(&t.untraced_op_us));
    println!(
        "  tracing overhead: traced op p50 {traced:.1} us - untraced {untraced:.1} us = {:.1} us ({:+.2}%)",
        traced - untraced,
        (traced / untraced - 1.0) * 100.0
    );
    for m in &t.metrics {
        println!("  {:<36} {:>14.3} {}", m.name, m.value, m.unit);
    }
}

/// Writes every span of the run to `traces/trace-seed<seed>.json` in the
/// package directory.
fn write_trace(seed: u64, runs: &[Traced]) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-seed{seed}.json"));
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("seed");
    w.value_u64(seed);
    for t in runs {
        t.tracer.write_spans(t.workload.name(), &mut w);
    }
    w.end_object();
    std::fs::write(&path, w.finish())?;
    Ok(path.display().to_string())
}

fn traced(args: &Args, sizes: &Sizes) -> Result<String, String> {
    let share = Duration::from_secs(args.seconds) / Workload::ALL.len() as u32;
    let runs = [
        audit::traced(args.seed, sizes, share),
        monitor::traced(args.seed, sizes, share),
        clean::traced(args.seed, sizes, share),
    ];
    let mut failures = Failures::default();
    for t in &runs {
        print_traced(t);
        print_failures(&t.failures);
        failures.count += t.failures.count;
    }
    let path = write_trace(args.seed, &runs).map_err(|e| format!("cannot write the trace: {e}"))?;
    println!("spans written to {path}");
    let metrics: Vec<Metric> = runs.iter().flat_map(|t| &t.metrics).cloned().collect();
    let attempted = runs.iter().map(|t| t.attempted).sum();
    Ok(result_line(&failures, attempted, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <audit|monitor|clean> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let sizes = Sizes::bench();
    let result = if args.trace {
        traced(&args, &sizes)
    } else {
        untraced(&args, &sizes)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
