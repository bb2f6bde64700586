//! `clean`: one op profiles and cleans one dirty partition —
//! `QualitySuite::discover` (sampled) followed by `QualitySuite::repair`.

use crate::inputs::{dirty_partition, planted_config, rng_for, Sizes, Stream};
use crate::{keep_going, setup_slice, us_since, Failures, Measured, Traced, Workload};
use condep::analyze::{analyze, AnalyzeConfig};
use condep::cfd::NormalCfd;
use condep::cind::NormalCind;
use condep::discover::{discover, DiscoveryConfig, SampleConfig};
use condep::gen::clean_database_with_hidden_sigma;
use condep::model::{Database, Implication, ImplicationConfig, Schema};
use condep::repair::{repair, RepairBudget, RepairCost, RepairReport};
use condep::report::QualitySuite;
use condep::validate::{UnsatSigma, Validator};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sampled discovery at confidence 0.95, so the planted dependencies
/// survive the dirt and flag it for repair.
pub fn discovery_config(sizes: &Sizes) -> DiscoveryConfig {
    DiscoveryConfig {
        min_confidence: 0.95,
        ..DiscoveryConfig::default()
    }
    .sample(SampleConfig {
        budget_rows: sizes.clean_reservoir,
        ..SampleConfig::default()
    })
}

/// The planted Σ every partition is generated around, with the
/// validator the per-op check compiles from it.
struct Truth {
    schema: Arc<Schema>,
    cfds: Vec<NormalCfd>,
    cinds: Vec<NormalCind>,
    validator: Validator,
}

impl Truth {
    /// Generates the planted Σ and runs the first set-up.
    fn new(sizes: &Sizes) -> (Truth, f64) {
        let planted = clean_database_with_hidden_sigma(
            &planted_config(sizes.clean_rows),
            &mut rng_for(0, Stream::Clean, u64::MAX),
        );
        let schema = planted.db.schema().clone();
        let (validator, s) = setup(&schema, &planted.cfds, &planted.cinds);
        let truth = Truth {
            schema,
            cfds: planted.cfds,
            cinds: planted.cinds,
            validator,
        };
        (truth, s)
    }
}

/// The set-up of `clean`: compiles the planted Σ with
/// `Validator::strict`; returns the validator and the seconds it took.
fn setup(schema: &Arc<Schema>, cfds: &[NormalCfd], cinds: &[NormalCind]) -> (Validator, f64) {
    let (c, i) = (cfds.to_vec(), cinds.to_vec());
    let t = Instant::now();
    let v = Validator::strict(schema, c, i).expect("planted Σ is satisfiable");
    (v, t.elapsed().as_secs_f64())
}

/// The op's output check: the partition was generated around the
/// planted Σ, Σ′ implies every planted dependency, the repair left no
/// CFD violation, the repaired database re-validates (under Σ′) to the
/// reported residual, and it satisfies the planted CFDs.
fn check(
    truth: &Truth,
    part_sigma: (&[NormalCfd], &[NormalCind]),
    sigma_prime: &Validator,
    outcome: &Result<(Database, RepairReport), UnsatSigma>,
    failures: &mut Failures,
    op: u64,
) {
    let fail = |what: &str| format!("clean op {op}: {what}");
    if !failures.check(
        part_sigma.0 == truth.cfds && part_sigma.1 == truth.cinds,
        || fail("partition has another planted Σ"),
    ) {
        return;
    }
    let Ok((repaired, report)) = outcome else {
        failures.record(1, fail("repair refused Σ′ as unsatisfiable"));
        return;
    };
    let schema = repaired.schema();
    let missed_cfd = truth.cfds.iter().find(|c| {
        condep::cfd::implication::implies(
            schema,
            sigma_prime.cfds(),
            c,
            ImplicationConfig::unbounded(),
        ) != Implication::Implied
    });
    if let Some(c) = missed_cfd {
        failures.record(
            1,
            fail(&format!(
                "Σ′ does not imply the planted {}",
                c.display(schema)
            )),
        );
        return;
    }
    let missed_cind = truth.cinds.iter().find(|c| {
        condep::cind::implication::implies(
            schema,
            sigma_prime.cinds(),
            c,
            ImplicationConfig::default(),
        ) != Implication::Implied
    });
    if let Some(c) = missed_cind {
        failures.record(
            1,
            fail(&format!(
                "Σ′ does not imply the planted {}",
                c.display(schema)
            )),
        );
        return;
    }
    let mut residual = report.residual.clone();
    residual.sort();
    let checks = [
        (
            report.residual.cfd.is_empty(),
            "CFD violations left after repair",
        ),
        (
            sigma_prime.validate_sorted(repaired) == residual,
            "repaired database does not re-validate to the residual",
        ),
        (
            truth.validator.validate(repaired).cfd.is_empty(),
            "repaired database violates a planted CFD",
        ),
    ];
    if let Some((_, what)) = checks.iter().find(|(ok, _)| !ok) {
        failures.record(1, fail(what));
    }
}

/// The untraced run.
pub fn measure(seed: u64, sizes: &Sizes, budget: Duration) -> Measured {
    let config = discovery_config(sizes);
    let (cost, repair_budget) = (RepairCost::default(), RepairBudget::default());
    let (truth, first) = Truth::new(sizes);
    let mut m = Measured {
        setup_s: vec![first],
        ..Measured::default()
    };
    let start = Instant::now();
    let mut op = 0u64;
    while keep_going(start, budget, m.op_us.len(), sizes.min_ops) {
        let p = dirty_partition(&mut rng_for(seed, Stream::Clean, op), sizes.clean_rows);
        m.items += p.db.total_tuples() as u64;
        let db = p.db;
        let t = Instant::now();
        let (suite, _) = QualitySuite::discover(black_box(&db), &config);
        let outcome = black_box(suite.repair(db, &cost, &repair_budget));
        m.op_us.push(us_since(t));
        check(
            &truth,
            (&p.planted_cfds, &p.planted_cinds),
            suite.validator(),
            &outcome,
            &mut m.failures,
            op,
        );
        setup_slice(&mut m.setup_s, || {
            setup(&truth.schema, &truth.cfds, &truth.cinds).1
        });
        op += 1;
    }
    m
}

/// The traced run. Each op runs once through `QualitySuite` without
/// spans (for the tracing overhead), then as the pieces the suite wraps,
/// in its order and each inside a span: `discover`, `Validator::new`,
/// `validate_sorted` and `repair`. `analyze` on Σ′ is replayed after the
/// op; `repair` also runs it inside its own span, as its pre-flight.
pub fn traced(seed: u64, sizes: &Sizes, budget: Duration) -> Traced {
    let mut out = Traced::new(Workload::Clean);
    let config = discovery_config(sizes);
    let (cost, repair_budget) = (RepairCost::default(), RepairBudget::default());
    let (truth, _) = Truth::new(sizes);

    let (mut total_us, mut sample_us, mut mine_us, mut confirm_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut repair_us, mut per_fix_us, mut accept) = (Vec::new(), Vec::new(), Vec::new());
    let mut analyze_us = Vec::new();
    let (mut kept_cfds, mut kept_cinds, mut fixes) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut op = 0u64;
    while keep_going(
        start,
        budget,
        op as usize,
        crate::exact_ops(Workload::Clean),
    ) {
        let p = dirty_partition(&mut rng_for(seed, Stream::Clean, op), sizes.clean_rows);
        let untraced = |out: &mut Traced| {
            let db = p.db.clone();
            let t = Instant::now();
            let (suite, _) = QualitySuite::discover(black_box(&db), &config);
            let outcome = black_box(suite.repair(db, &cost, &repair_budget));
            out.untraced_op_us.push(us_since(t));
            outcome
        };
        // Alternate which of the two runs first, so that neither always
        // meets a cold partition.
        let baseline = op.is_multiple_of(2).then(|| untraced(&mut out));

        out.tracer.set_op(op);
        let db = p.db.clone();
        let root = out.tracer.enter("op");
        let (found, d_us) = out
            .tracer
            .span("discover.discover", || discover(&db, &config));
        let (sigma_prime, _) = out.tracer.span("validate.compile", || {
            Validator::new(found.cfds_normal(), found.cinds_normal())
        });
        let (initial, _) = out.tracer.span("validate.validate_sorted", || {
            sigma_prime.validate_sorted(&db)
        });
        let (outcome, r_us) = out.tracer.span("repair.repair", || {
            repair(sigma_prime.clone(), db, initial, &cost, &repair_budget)
        });
        out.traced_op_us.push(out.tracer.exit(root).us());
        let replay = out.tracer.enter("replay");
        let (_, a_us) = out.tracer.span("analyze.analyze", || {
            black_box(analyze(
                p.db.schema(),
                sigma_prime.cfds(),
                sigma_prime.cinds(),
                &AnalyzeConfig::default(),
            ))
        });
        out.tracer.exit(replay);
        let baseline = baseline.unwrap_or_else(|| untraced(&mut out));

        total_us.push(d_us);
        sample_us.push(found.timings.sample_ms * 1e3);
        mine_us.push(found.timings.mine_ms * 1e3);
        confirm_us.push(found.timings.confirm_ms * 1e3);
        repair_us.push(r_us);
        analyze_us.push(a_us);
        if let Ok((_, report)) = &outcome {
            let log = &report.log;
            let applied = log.applied.len();
            per_fix_us.push(r_us / applied.max(1) as f64);
            accept.push(applied as f64 / (applied + log.rejected + log.stale).max(1) as f64);
            if (op as usize) < crate::exact_ops(Workload::Clean) {
                kept_cfds += found.cfds.len() as u64;
                kept_cinds += found.cinds.len() as u64;
                fixes += applied as u64;
            }
        }
        let same = match (&baseline, &outcome) {
            (Ok((a, ra)), Ok((b, rb))) => {
                ra.fixes_applied() == rb.fixes_applied() && a.total_tuples() == b.total_tuples()
            }
            _ => false,
        };
        if out.failures.check(same, || {
            format!("clean op {op}: the suite and its pieces disagree")
        }) {
            check(
                &truth,
                (&p.planted_cfds, &p.planted_cinds),
                &sigma_prime,
                &outcome,
                &mut out.failures,
                op,
            );
        }
        out.attempted += 1;
        op += 1;
    }
    out.median_us("discover.total_us", &total_us);
    out.median_us("discover.sample_us", &sample_us);
    out.median_us("discover.mine_us", &mine_us);
    out.median_us("discover.confirm_us", &confirm_us);
    out.metric("discover.kept_cfds", "count", kept_cfds as f64);
    out.metric("discover.kept_cinds", "count", kept_cinds as f64);
    out.median_us("analyze.sigma_prime_us", &analyze_us);
    out.median_us("repair.us", &repair_us);
    out.median_us("repair.us_per_fix", &per_fix_us);
    out.metric(
        "repair.accept_ratio",
        "ratio",
        crate::stats::median(&accept),
    );
    out.metric("repair.fixes_applied", "count", fixes as f64);
    out
}
