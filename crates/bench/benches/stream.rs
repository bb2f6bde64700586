//! Micro-bench: streamed delta validation vs full re-validation.
//!
//! The repair-style workload the north star calls for: a large instance
//! under **churn** (interleaved deletes of resident tuples and inserts
//! of fresh ones, 1% of the instance), monitored by the
//! `ValidatorStream` delta engine. The contender applies every mutation
//! through `ValidatorStream::apply`, paying only for the
//! constraint groups and key groups each tuple touches; the baseline is
//! what a batch system does after the same churn window — one full
//! `Validator::validate` sweep of the final database.
//!
//! Σ is the validator bench's headline shape (200 CFDs over 10 distinct
//! LHS sets) plus a CIND against a partner relation, so all three delta
//! tiers (CFD group indexes, CIND target and source indexes) stay hot.
//!
//! The run doubles as the delta engine's bit-rot guard: after the churn
//! the stream's materialized report must equal a fresh batch sweep.
//!
//! Results are recorded in `BENCH_stream.json` at the repository root
//! (skipped in `CONDEP_BENCH_SMOKE=1` mode, which CI uses to exercise
//! the path with 1 iteration at reduced size).

use condep_bench::{best_of, ms, time_once, xorshift, FigureTable};
use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::{tuple, Database, Domain, PValue, PatternRow, Schema, Tuple};
use condep_validate::{Mutation, Validator, ValidatorStream};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::builder()
            .relation(
                "r",
                &[
                    ("a0", Domain::string()),
                    ("a1", Domain::string()),
                    ("a2", Domain::string()),
                    ("a3", Domain::string()),
                    ("a4", Domain::string()),
                    ("a5", Domain::string()),
                    ("a6", Domain::string()),
                    ("a7", Domain::string()),
                ],
            )
            .relation("partner", &[("p", Domain::string())])
            .finish(),
    )
}

/// One pseudo-random `r` tuple honoring the embedded FDs (`a1 → a2`,
/// `a3 → a4`, `a5 → a6`), with ~0.1% corrupted `a2`.
fn random_tuple(i: usize, state: &mut u64) -> Tuple {
    let h1 = xorshift(state) % 64;
    let h2 = xorshift(state) % 512;
    let h3 = xorshift(state) % 4096;
    let w = xorshift(state) % 8;
    let a2 = if i % 1024 == 1023 {
        "CORRUPT".to_string()
    } else {
        format!("c{h1}")
    };
    tuple![
        format!("id{i}").as_str(),
        format!("b{h1}").as_str(),
        a2.as_str(),
        format!("d{h2}").as_str(),
        format!("e{h2}").as_str(),
        format!("f{h3}").as_str(),
        format!("g{h3}").as_str(),
        format!("w{w}").as_str()
    ]
}

/// The validator bench's 10-LHS-set shape: 200 CFDs sharing 10 distinct
/// LHS attribute lists.
fn sigma_cfds(schema: &Arc<Schema>) -> Vec<NormalCfd> {
    let lhs_sets: Vec<Vec<&str>> = vec![
        vec!["a1"],
        vec!["a3"],
        vec!["a5"],
        vec!["a1", "a3"],
        vec!["a1", "a5"],
        vec!["a3", "a5"],
        vec!["a1", "a3", "a5"],
        vec!["a0"],
        vec!["a0", "a7"],
        vec!["a7", "a1"],
    ];
    let rhs_for = |lhs: &[&str]| {
        if lhs.contains(&"a0") || lhs.contains(&"a1") {
            "a2"
        } else if lhs.contains(&"a3") {
            "a4"
        } else {
            "a6"
        }
    };
    let mut cfds = Vec::with_capacity(200);
    let mut j = 0usize;
    while cfds.len() < 200 {
        for lhs in &lhs_sets {
            if cfds.len() >= 200 {
                break;
            }
            let rhs = rhs_for(lhs);
            let member = j % 16;
            let (lhs_pat, rhs_pat) = match member {
                0 => (PatternRow::all_any(lhs.len()), PValue::Any),
                m if m >= 12 => {
                    let cells: Vec<PValue> = lhs
                        .iter()
                        .map(|a| match *a {
                            "a1" => PValue::constant(format!("b{m}")),
                            _ => PValue::Any,
                        })
                        .collect();
                    let rhs_c = if rhs == "a2" && lhs.contains(&"a1") {
                        PValue::constant(format!("c{m}"))
                    } else {
                        PValue::Any
                    };
                    (PatternRow::new(cells), rhs_c)
                }
                m => {
                    let cells: Vec<PValue> = lhs
                        .iter()
                        .enumerate()
                        .map(|(i, a)| {
                            if i == 0 {
                                match *a {
                                    "a1" => PValue::constant(format!("b{m}")),
                                    "a3" => PValue::constant(format!("d{m}")),
                                    "a5" => PValue::constant(format!("f{m}")),
                                    "a7" => PValue::constant(format!("w{}", m % 8)),
                                    _ => PValue::Any,
                                }
                            } else {
                                PValue::Any
                            }
                        })
                        .collect();
                    (PatternRow::new(cells), PValue::Any)
                }
            };
            cfds.push(NormalCfd::parse(schema, "r", lhs, lhs_pat, rhs, rhs_pat).unwrap());
            j += 1;
        }
    }
    cfds
}

/// `r[a1] ⊆ partner[p]` and `partner[p] ⊆ r[a1]`: the target and source
/// delta tiers both stay live under churn.
fn sigma_cinds(schema: &Arc<Schema>) -> Vec<NormalCind> {
    vec![
        NormalCind::parse(schema, "r", &["a1"], &[], "partner", &["p"], &[]).unwrap(),
        NormalCind::parse(schema, "partner", &["p"], &[], "r", &["a1"], &[]).unwrap(),
    ]
}

fn build_db(schema: &Arc<Schema>, n: usize) -> Database {
    let mut db = Database::empty(schema.clone());
    let mut state = 0x243f_6a88_85a3_08d3u64;
    for i in 0..n {
        db.insert_into("r", random_tuple(i, &mut state)).unwrap();
    }
    for h in 0..64u64 {
        db.insert_into("partner", tuple![format!("b{h}").as_str()])
            .unwrap();
    }
    db
}

fn main() {
    let smoke = std::env::var("CONDEP_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (n, runs) = if smoke { (10_000, 1) } else { (100_000, 3) };
    let churn = n / 100; // 1%: `churn` deletes + `churn` inserts.
    let schema = schema();
    let r = schema.rel_id("r").unwrap();
    let cfds = sigma_cfds(&schema);
    let cinds = sigma_cinds(&schema);
    let validator = Validator::new(cfds, cinds);

    let db = build_db(&schema, n);
    // The churn plan: delete `churn` residents spread across the
    // instance, insert `churn` fresh tuples.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let deletions: Vec<Tuple> = (0..churn)
        .map(|k| {
            db.relation(r)
                .get((k * 97 + 13) % db.relation(r).len())
                .unwrap()
                .clone()
        })
        .collect();
    let insertions: Vec<Tuple> = (0..churn)
        .map(|k| random_tuple(n + k, &mut state))
        .collect();

    // Contender: streamed deltas through one persistent ValidatorStream.
    // Stream construction — one batch sweep — is the monitor's setup
    // cost, amortized over its lifetime; the churn window is what's
    // timed. Mutations are interleaved delete/insert.
    let mut delta_time = Duration::MAX;
    let mut delta_events = 0usize;
    let mut final_db: Option<Database> = None;
    for _ in 0..runs {
        let (mut stream, _initial) = ValidatorStream::new_validated(validator.clone(), db.clone());
        let (elapsed, events) = time_once(|| {
            let mut events = 0usize;
            for (del, ins) in deletions.iter().zip(&insertions) {
                for m in [
                    Mutation::Delete {
                        rel: r,
                        tuple: del.clone(),
                    },
                    Mutation::Insert {
                        rel: r,
                        tuple: ins.clone(),
                    },
                ] {
                    let applied = stream.apply(m).expect("well-typed");
                    events += applied.introduced_count() + applied.resolved_count();
                }
            }
            events
        });
        // Bit-rot guard: the stream's live state must equal a fresh
        // batch sweep of the churned database.
        let batch = validator.validate_sorted(stream.db());
        assert_eq!(
            stream.current_report(),
            batch,
            "delta state diverged from batch validation"
        );
        if elapsed < delta_time {
            delta_time = elapsed;
            delta_events = events;
        }
        final_db = Some(stream.into_db());
    }
    let final_db = final_db.expect("at least one run");

    // Baseline: one full batched sweep of the churned database — what a
    // batch system pays per validation after a churn window.
    let (full_time, full_violations) = best_of(runs, || validator.validate(&final_db).len());

    let speedup = ms(full_time) / ms(delta_time).max(1e-9);
    let per_op_us = ms(delta_time) * 1000.0 / (churn as f64 * 2.0);

    let mut table = FigureTable::new(
        "stream",
        &[
            "tuples",
            "churn_ops",
            "delta_events",
            "violations",
            "delta_ms",
            "per_op_us",
            "full_validate_ms",
            "speedup",
        ],
    );
    table.row(&[
        &n,
        &(churn * 2),
        &delta_events,
        &full_violations,
        &format!("{:.2}", ms(delta_time)),
        &format!("{:.1}", per_op_us),
        &format!("{:.2}", ms(full_time)),
        &format!("{:.1}x", speedup),
    ]);
    table.finish("Streamed delta validation vs full re-validation under 1% churn");

    if smoke {
        println!("(smoke mode: BENCH_stream.json not rewritten)");
        return;
    }
    let mut json_rows = String::new();
    let _ = writeln!(
        json_rows,
        "    {{\"tuples\": {n}, \"churn_ops\": {}, \"delta_events\": {delta_events}, \
         \"violations\": {full_violations}, \"delta_ms\": {:.2}, \"per_op_us\": {:.2}, \
         \"full_validate_ms\": {:.2}, \"speedup\": {:.2}}}",
        churn * 2,
        ms(delta_time),
        per_op_us,
        ms(full_time),
        speedup,
    );
    let json = format!(
        "{{\n  \"bench\": \"stream\",\n  \"baseline\": \"Validator::validate full sweep of the churned database\",\n  \
         \"contender\": \"ValidatorStream::apply deltas (1% churn: half deletes, half inserts)\",\n  \
         \"runs_per_point\": {runs},\n  \"timing\": \"best of {runs}\",\n  \
         \"headline\": {{\"tuples\": {n}, \"churn\": \"1%\", \"cfds\": 200, \"lhs_sets\": 10, \"cinds\": 2, \"speedup\": {speedup:.2}}},\n  \
         \"results\": [\n{json_rows}  ]\n}}\n",
    );
    let path = format!("{}/../../BENCH_stream.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("(json: {path})"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    println!(
        "headline: {n} tuples, 1% churn — delta {:.2} ms vs full {:.2} ms = {speedup:.1}x",
        ms(delta_time),
        ms(full_time)
    );
}
