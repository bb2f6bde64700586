//! `monitor`: one op is one `QualityMonitor::ingest_batch` window
//! followed by a `summary()` read, on a resident instance.

use crate::inputs::{
    audit_schema, audit_sigma, cycle, partition, rng_for, window, KeyPool, Partition, Sizes, Stream,
};
use crate::{keep_going, us_since, Failures, Measured, Traced, Workload};
use condep::report::{QualityMonitor, QualitySuite, ViolationSummary};
use condep::validate::{Mutation, SigmaDelta, Validator, ValidatorStream};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The resident instance of a run.
fn resident(seed: u64, sizes: &Sizes) -> Partition {
    partition(
        &audit_schema(),
        &mut rng_for(seed, Stream::MonitorResident, 0),
        sizes.monitor_rows,
        0,
    )
}

fn suite() -> QualitySuite {
    let schema = audit_schema();
    let (cfds, cinds) = audit_sigma(&schema);
    QualitySuite::from_normal(schema, cfds, cinds)
}

/// Tuples in the instance after `muts`: an insert adds one, a delete
/// removes one, an update keeps the count (every update gives its row a
/// new key or a new `a7`, so it never merges into another row).
fn tuples_after(before: usize, muts: &[Mutation]) -> usize {
    muts.iter().fold(before, |n, m| match m {
        Mutation::Insert { .. } => n + 1,
        Mutation::Delete { .. } => n - 1,
        Mutation::Update { .. } => n,
    })
}

/// The per-op check: the window applied and the live tuple count is
/// the expected one.
fn check_window(
    result: &Result<Vec<SigmaDelta>, condep::model::ModelError>,
    summary: &ViolationSummary,
    expected_tuples: usize,
    failures: &mut Failures,
    op: u64,
) {
    failures.check(
        result.is_ok() && summary.tuples_checked == expected_tuples,
        || {
            format!(
                "monitor window {op}: {:?}, {} tuples, expected {expected_tuples}",
                result.as_ref().err(),
                summary.tuples_checked
            )
        },
    );
}

/// The checkpoint check: `summary()` equals a fresh full validation of
/// the monitor's database. A failure counts every window since the
/// previous checkpoint as failed. Window ids carry the round in their
/// high 32 bits.
fn checkpoint(
    monitor: &QualityMonitor,
    validator: &Validator,
    since: usize,
    failures: &mut Failures,
    op: u64,
) {
    let fresh = validator.validate(monitor.db());
    let s = monitor.summary();
    let ok = s.cfd_violations == fresh.cfd.len()
        && s.cind_violations == fresh.cind.len()
        && s.tuples_checked == monitor.db().total_tuples();
    if !ok {
        failures.record(
            since,
            format!(
                "monitor checkpoint after window {op}: summary {s:?}, fresh validate {} CFD / {} CIND",
                fresh.cfd.len(),
                fresh.cind.len()
            ),
        );
    }
}

/// Builds the monitor over the resident instance and cycles every
/// resident row through it (see [`cycle`]); returns the monitor, its key
/// pool and the seconds the build and the cycle took.
fn build(seed: u64, sizes: &Sizes, suite: &QualitySuite) -> (QualityMonitor, KeyPool, f64) {
    let p = resident(seed, sizes);
    let [deletes, inserts] = cycle(&p.db, &mut rng_for(seed, Stream::MonitorCycle, 0));
    let pool = KeyPool::new(p.next_id, sizes.key_reserve);
    let t = Instant::now();
    let (mut monitor, _) = suite.monitor(p.db);
    for batch in [&deletes, &inserts] {
        monitor
            .ingest_batch(batch)
            .expect("cycled rows are well-typed");
    }
    let s = t.elapsed().as_secs_f64();
    (monitor, pool, s)
}

/// The untraced run, in `sizes.monitor_rounds` rounds. Each round builds
/// a monitor (one set-up sample) and runs windows on it for its share of
/// the budget, so the ops' statistics pool several builds' memory
/// layouts, and the tail is taken per round (see [`crate::stats::tail`]).
/// A round's windows are drawn from the round and the window's index in
/// it.
pub fn measure(seed: u64, sizes: &Sizes, budget: Duration) -> Measured {
    let suite = suite();
    let rounds = sizes.monitor_rounds.max(1);
    let mut m = Measured::default();
    for round in 0..rounds as u64 {
        let (mut monitor, mut pool, s) = build(seed, sizes, &suite);
        m.setup_s.push(s);
        let mut since_checkpoint = 0;
        let start = Instant::now();
        let mut k = 0u64;
        while keep_going(start, budget / rounds as u32, k as usize, sizes.min_ops) {
            let op = round << 32 | k;
            let w = window(
                monitor.db(),
                &mut rng_for(seed, Stream::MonitorWindow, op),
                &sizes.window,
                &mut pool,
            );
            let expected = tuples_after(monitor.db().total_tuples(), &w);
            let t = Instant::now();
            let result = black_box(monitor.ingest_batch(black_box(&w)));
            let summary = black_box(monitor.summary());
            m.op_us.push(us_since(t));
            m.items += w.len() as u64;
            check_window(&result, &summary, expected, &mut m.failures, op);
            since_checkpoint += 1;
            k += 1;
            if (k as usize).is_multiple_of(sizes.checkpoint_every) {
                checkpoint(
                    &monitor,
                    suite.validator(),
                    since_checkpoint,
                    &mut m.failures,
                    op,
                );
                since_checkpoint = 0;
            }
        }
        if since_checkpoint > 0 {
            checkpoint(
                &monitor,
                suite.validator(),
                since_checkpoint,
                &mut m.failures,
                round << 32 | k,
            );
        }
        m.round_ops.push(k as usize);
    }
    m
}

/// How the traced run's bare stream applies a window; the modes take
/// turns window by window.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `apply_deltas`, telemetry on as in the monitor.
    Batched,
    /// `apply_deltas`, telemetry off.
    BatchedQuiet,
    /// One `apply` per mutation, telemetry on.
    Single,
}

/// Introduced plus resolved violations across `deltas`.
fn delta_events(deltas: &[SigmaDelta]) -> u64 {
    deltas
        .iter()
        .map(|d| {
            d.cfd.introduced.len()
                + d.cfd.resolved.len()
                + d.cind.introduced.len()
                + d.cind.resolved.len()
        })
        .sum::<usize>() as u64
}

/// The traced run. Besides the monitor, a bare `ValidatorStream` over
/// the same resident instance receives every window, in turn through
/// `apply_deltas` with telemetry on (as in the monitor), through
/// `apply_deltas` with telemetry off, and a mutation at a time through
/// `apply`. Odd windows run on the monitor inside spans, even ones
/// without, for the tracing overhead.
pub fn traced(seed: u64, sizes: &Sizes, budget: Duration) -> Traced {
    let mut out = Traced::new(Workload::Monitor);
    let suite = suite();
    let p = resident(seed, sizes);
    let mut pool = KeyPool::new(p.next_id, sizes.key_reserve);

    let [deletes, inserts] = cycle(&p.db, &mut rng_for(seed, Stream::MonitorCycle, 0));
    let setup = out.tracer.enter("setup");
    let db = p.db;
    let ((mut bare, _), new_validated_us) = out.tracer.span("stream.new_validated", || {
        ValidatorStream::new_validated(suite.validator().clone(), db.clone())
    });
    let (result, _) = out.tracer.span("stream.cycle", || {
        bare.apply_deltas(&deletes)?;
        bare.apply_deltas(&inserts)
    });
    result.expect("cycled rows are well-typed");
    let ((mut monitor, _), _) = out.tracer.span("report.monitor", || suite.monitor(db));
    let (result, _) = out.tracer.span("report.cycle", || {
        monitor.ingest_batch(&deletes)?;
        monitor.ingest_batch(&inserts)
    });
    result.expect("cycled rows are well-typed");
    out.tracer.exit(setup);
    drop((deletes, inserts));

    let (mut window_us, mut quiet_us, mut single_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ingest_us, mut summary_us) = (Vec::new(), Vec::new());
    let mut events = 0u64;
    let mut since_checkpoint = 0;
    let start = Instant::now();
    let mut op = 0u64;
    while keep_going(
        start,
        budget,
        op as usize,
        crate::exact_ops(Workload::Monitor),
    ) {
        let w = window(
            monitor.db(),
            &mut rng_for(seed, Stream::MonitorWindow, op),
            &sizes.window,
            &mut pool,
        );
        let expected = tuples_after(monitor.db().total_tuples(), &w);
        out.tracer.set_op(op);
        let (result, summary) = if op.is_multiple_of(2) {
            let t = Instant::now();
            let result = black_box(monitor.ingest_batch(black_box(&w)));
            let summary = black_box(monitor.summary());
            out.untraced_op_us.push(us_since(t));
            (result, summary)
        } else {
            let root = out.tracer.enter("op");
            let (result, us) = out
                .tracer
                .span("report.ingest_batch", || monitor.ingest_batch(&w));
            ingest_us.push(us);
            let (summary, us) = out.tracer.span("report.summary", || monitor.summary());
            summary_us.push(us);
            out.traced_op_us.push(out.tracer.exit(root).us());
            (result, summary)
        };

        let mode = [Mode::Batched, Mode::BatchedQuiet, Mode::Single][op as usize % 3];
        bare.set_telemetry_enabled(mode != Mode::BatchedQuiet);
        let singles = w.clone();
        let replay = out.tracer.enter("replay");
        let (applied, us) = match mode {
            Mode::Batched => out
                .tracer
                .span("stream.window", || bare.apply_deltas(&w).map(drop)),
            Mode::BatchedQuiet => out.tracer.span("stream.window_telemetry_off", || {
                bare.apply_deltas(&w).map(drop)
            }),
            Mode::Single => out.tracer.span("stream.single_window", || {
                singles
                    .into_iter()
                    .try_for_each(|m| bare.apply(m).map(drop))
            }),
        };
        out.tracer.exit(replay);
        match mode {
            Mode::Batched => window_us.push(us),
            Mode::BatchedQuiet => quiet_us.push(us),
            Mode::Single => single_us.push(us),
        }

        if let (Ok(deltas), true) = (&result, (op as usize) < crate::exact_ops(Workload::Monitor)) {
            events += delta_events(deltas);
        }
        check_window(&result, &summary, expected, &mut out.failures, op);
        out.failures.check(
            applied.is_ok() && bare.db().total_tuples() == expected,
            || format!("monitor window {op}: the bare stream diverged"),
        );
        out.attempted += 1;
        since_checkpoint += 1;
        op += 1;
        if (op as usize).is_multiple_of(sizes.checkpoint_every) {
            checkpoint(
                &monitor,
                suite.validator(),
                since_checkpoint,
                &mut out.failures,
                op,
            );
            since_checkpoint = 0;
        }
    }
    if since_checkpoint > 0 {
        checkpoint(
            &monitor,
            suite.validator(),
            since_checkpoint,
            &mut out.failures,
            op,
        );
    }
    out.failures
        .check(bare.violation_count() == monitor.summary().total(), || {
            "monitor: the bare stream disagrees with the monitor's summary".to_string()
        });

    let window = crate::stats::median(&window_us);
    out.metric("stream.new_validated_us", "us", new_validated_us);
    out.metric("stream.window_us", "us", window);
    out.median_us("stream.single_window_us", &single_us);
    out.metric(
        "stream.telemetry_overhead_ratio",
        "ratio",
        window / crate::stats::median(&quiet_us),
    );
    out.metric("stream.delta_events", "count", events as f64);
    out.metric(
        "report.monitor_overhead_us",
        "us",
        crate::stats::median(&ingest_us) - window,
    );
    out.median_us("report.summary_us", &summary_us);
    out
}
