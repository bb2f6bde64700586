//! `audit`: one op is `Validator::validate` on one fresh partition.

use crate::inputs::{
    audit_schema, audit_sigma, partition, rng_for, Partition, Sizes, Stream, LHS_SETS,
};
use crate::{keep_going, setup_slice, us_since, Failures, Measured, Traced, Workload};
use condep::analyze::{analyze, AnalyzeConfig};
use condep::cfd::NormalCfd;
use condep::cind::NormalCind;
use condep::model::{AttrId, Schema, SymTables};
use condep::query::SymIndex;
use condep::validate::{SigmaReport, Validator};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Compiles Σ with `Validator::strict` (static analysis, then
/// compile); returns the validator and the seconds it took.
fn setup(schema: &Arc<Schema>, cfds: &[NormalCfd], cinds: &[NormalCind]) -> (Validator, f64) {
    let (c, i) = (cfds.to_vec(), cinds.to_vec());
    let t = Instant::now();
    let v = Validator::strict(schema, c, i).expect("audit Σ is satisfiable");
    (v, t.elapsed().as_secs_f64())
}

/// The first `a0` key of op `op`'s partition: every partition of a run
/// brings keys no earlier one had.
fn first_key(op: u64) -> u64 {
    (op + 1) * 1_000_000
}

/// The op's output check: every corrupt row is flagged, and the
/// report equals `validate_sorted` once sorted.
///
/// A wildcard-RHS CFD reports each group as pairs of its first tuple
/// (the witness) with every tuple whose RHS differs from the witness's.
/// When a group's witness is itself corrupt, another corrupt row of that
/// group with the same value gets no pair of its own: the witness's
/// pairs stand for it. A corrupt row therefore counts as flagged when
/// it is in a reported violation, or when a flagged row of its `a1`
/// group carries the same `a2` value.
fn check(
    validator: &Validator,
    p: &Partition,
    report: SigmaReport,
    failures: &mut Failures,
    op: u64,
) {
    let r = p.db.schema().rel_id("r").expect("schema has r");
    let rel = p.db.relation(r);
    // A row's `(a1, a2)` cells.
    let group_value = |pos: usize| {
        let t = rel.get(pos).expect("violation positions are resident");
        (t.values()[1].clone(), t.values()[2].clone())
    };
    let mut flagged = HashSet::new();
    for (_, v) in &report.cfd {
        match v {
            condep::cfd::CfdViolation::SingleTuple { tuple, .. } => {
                flagged.insert(group_value(*tuple));
            }
            condep::cfd::CfdViolation::Pair { left, right } => {
                flagged.insert(group_value(*left));
                flagged.insert(group_value(*right));
            }
        }
    }
    let missed = p
        .corrupt
        .iter()
        .filter(|&&pos| !flagged.contains(&group_value(pos)))
        .count();
    if !failures.check(missed == 0, || {
        format!(
            "audit op {op}: {missed} of {} corrupt rows not flagged",
            p.corrupt.len()
        )
    }) {
        return;
    }
    let mut sorted = report;
    sorted.sort();
    failures.check(sorted == validator.validate_sorted(&p.db), || {
        format!("audit op {op}: validate differs from validate_sorted")
    });
}

/// The untraced run: set-up, then ops until `budget` has passed and at
/// least `sizes.min_ops` ran.
pub fn measure(seed: u64, sizes: &Sizes, budget: Duration) -> Measured {
    let schema = audit_schema();
    let (cfds, cinds) = audit_sigma(&schema);
    let (validator, first) = setup(&schema, &cfds, &cinds);
    let mut m = Measured {
        setup_s: vec![first],
        ..Measured::default()
    };
    let start = Instant::now();
    let mut op = 0u64;
    while keep_going(start, budget, m.op_us.len(), sizes.min_ops) {
        let p = partition(
            &schema,
            &mut rng_for(seed, Stream::Audit, op),
            sizes.audit_rows,
            first_key(op),
        );
        let t = Instant::now();
        let report = black_box(validator.validate(black_box(&p.db)));
        m.op_us.push(us_since(t));
        m.items += p.db.total_tuples() as u64;
        check(&validator, &p, report, &mut m.failures, op);
        setup_slice(&mut m.setup_s, || setup(&schema, &cfds, &cinds).1);
        op += 1;
    }
    m
}

/// The traced run. Each op is timed once without spans (for the
/// tracing overhead) and once inside an `op` span, then replayed
/// layer by layer: the symbolization `validate` starts with, one shared
/// index build per LHS set, and the sort `validate_sorted` adds.
pub fn traced(seed: u64, sizes: &Sizes, budget: Duration) -> Traced {
    let mut out = Traced::new(Workload::Audit);
    let schema = audit_schema();
    let (cfds, cinds) = audit_sigma(&schema);
    let (mut analyze_us, mut compile_us) = (Vec::new(), Vec::new());
    // One traced set-up per op, its two steps apart; the ops use the
    // first validator.
    let mut setup = |out: &mut Traced| {
        let root = out.tracer.enter("setup");
        let (_, us) = out.tracer.span("analyze.analyze", || {
            black_box(analyze(&schema, &cfds, &cinds, &AnalyzeConfig::default()))
        });
        analyze_us.push(us);
        let (c, i) = (cfds.clone(), cinds.clone());
        let (v, us) = out.tracer.span("validate.compile", || Validator::new(c, i));
        compile_us.push(us);
        out.tracer.exit(root);
        v
    };
    let validator = setup(&mut out);
    let r = schema.rel_id("r").expect("schema has r");
    let rel_schema = schema.relation(r).expect("schema has r");
    let lhs_attrs: Vec<Vec<AttrId>> = LHS_SETS
        .iter()
        .map(|names| {
            let mut ids = rel_schema.attr_ids(names).expect("LHS attributes exist");
            ids.sort();
            ids
        })
        .collect();

    let (mut validate_us, mut symbolize_us, mut intern_ns, mut index_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut sweep_self_us, mut sort_us) = (Vec::new(), Vec::new());
    let mut violations = 0u64;
    let start = Instant::now();
    let mut op = 0u64;
    while keep_going(
        start,
        budget,
        op as usize,
        crate::exact_ops(Workload::Audit),
    ) {
        let p = partition(
            &schema,
            &mut rng_for(seed, Stream::Audit, op),
            sizes.audit_rows,
            first_key(op),
        );
        let untraced = |out: &mut Traced| {
            let t = Instant::now();
            black_box(validator.validate(black_box(&p.db)));
            out.untraced_op_us.push(us_since(t));
        };
        // Alternate which of the two runs first, so that neither always
        // meets a cold partition.
        if op.is_multiple_of(2) {
            untraced(&mut out);
        }
        out.tracer.set_op(op);
        let root = out.tracer.enter("op");
        let (report, v_us) = out
            .tracer
            .span("validate.validate", || validator.validate(&p.db));
        out.traced_op_us.push(out.tracer.exit(root).us());
        if !op.is_multiple_of(2) {
            untraced(&mut out);
        }

        let replay = out.tracer.enter("replay");
        let ((_, tables), s_us) = out
            .tracer
            .span("model.symbolize", || SymTables::build_for(&p.db, |_| true));
        let rows = tables.rows(r);
        let mut i_us = 0.0;
        for attrs in &lhs_attrs {
            let cols = tables.columns(r, attrs);
            let (_, us) = out.tracer.span("query.index_build", || {
                black_box(SymIndex::build_from_columns(rows, &cols, |_| true))
            });
            i_us += us;
        }
        let mut sorted = report.clone();
        let ((), so_us) = out.tracer.span("validate.sort", || sorted.sort());
        out.tracer.exit(replay);

        let values: usize =
            p.db.iter()
                .map(|(_, rel)| rel.len() * rel.iter().next().map_or(0, |t| t.arity()))
                .sum();
        validate_us.push(v_us);
        symbolize_us.push(s_us);
        intern_ns.push(s_us * 1e3 / values.max(1) as f64);
        index_us.push(i_us);
        sweep_self_us.push(v_us - s_us - i_us);
        sort_us.push(so_us);
        if (op as usize) < crate::exact_ops(Workload::Audit) {
            violations += report.len() as u64;
        }
        check(&validator, &p, report, &mut out.failures, op);
        setup(&mut out);
        out.attempted += 1;
        op += 1;
    }
    out.median_us("validate.compile_us", &compile_us);
    out.median_us("analyze.sigma_us", &analyze_us);
    out.median_us("model.symbolize_us", &symbolize_us);
    out.metric(
        "model.intern_ns_per_value",
        "ns",
        crate::stats::median(&intern_ns),
    );
    out.median_us("query.index_build_us", &index_us);
    out.median_us("validate.validate_us", &validate_us);
    out.median_us("validate.sweep_self_us", &sweep_self_us);
    out.median_us("validate.sort_us", &sort_us);
    out.metric("validate.violations", "count", violations as f64);
    out
}
