//! Micro-bench: batched `apply_deltas` vs the mutation-at-a-time path.
//!
//! The long-lived-stream workload: the `BENCH_stream.json` instance
//! (100K tuples, 200 CFDs over 10 LHS sets, 2 CINDs) under 1% churn,
//! applied five ways — the per-mutation `ValidatorStream::apply` loop,
//! `apply_deltas` windows of 1, 32 and 1024 mutations, and the
//! 1024-window plan against a 2×-redundant suite compiled through the
//! exact Σ cover (`cover`). The batched path symbolizes each window
//! through one interner pass, translates keys per `(relation, LHS set)`
//! group from pre-built rows and probes each touched key group once, so
//! per-mutation cost falls as the window grows.
//!
//! Three gates are asserted **in-run** (CI smoke mode included):
//!
//! * after every configuration, the stream's materialized report equals
//!   a fresh batch sweep of the churned database (the batched path
//!   cannot silently drift from the sequential semantics) — for the
//!   `cover` configuration the sweep runs through an **uncovered**
//!   compile of the same redundant Σ, pinning cover equivalence;
//! * a churn-then-compact loop over ever-fresh keys keeps the interner's
//!   retained string count invariant across rounds — bounded by the live
//!   distinct values, not by the keys ever seen (the dead-strings leak
//!   stays closed);
//! * in smoke mode, a perf guard fails the run when batch-1024 comes in
//!   >25% over the last recorded full run's per-op cost.
//!
//! Results are recorded in `BENCH_batch.json` at the repository root
//! (skipped in `CONDEP_BENCH_SMOKE=1` mode, which CI uses to exercise
//! the path with 1 iteration at reduced size).

use condep_bench::{ms, time_once, xorshift, FigureTable};
use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::{tuple, Database, Domain, PValue, PatternRow, Schema, Tuple};
use condep_telemetry::{Export, MetricsSnapshot};
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
/// `a3 → a4`, `a5 → a6`), with ~0.1% corrupted `a2` — identical to the
/// `stream` bench's generator so the two benches stay comparable.
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

/// A mined-Σ-style redundant suite: every dependency stated twice (the
/// shape a discovery pass emits before dedup). The exact Σ cover
/// collapses the duplicates at compile time, so the covered hot path
/// should cost what the non-redundant suite costs — that is what the
/// `cover` configuration measures.
fn sigma_redundant(schema: &Arc<Schema>) -> (Vec<NormalCfd>, Vec<NormalCind>) {
    let cfds = sigma_cfds(schema)
        .into_iter()
        .flat_map(|c| [c.clone(), c])
        .collect();
    let cinds = sigma_cinds(schema)
        .into_iter()
        .flat_map(|c| [c.clone(), c])
        .collect();
    (cfds, cinds)
}

/// The `per_op_us` recorded for `config` in a previously written
/// `BENCH_batch.json` — a minimal string scan so the guard needs no
/// JSON dependency.
fn recorded_per_op(json: &str, config: &str) -> Option<f64> {
    let needle = format!("\"config\": \"{config}\"");
    let row = json.split('{').find(|s| s.contains(&needle))?;
    let tail = row.split("\"per_op_us\":").nth(1)?;
    tail.trim_start()
        .split([',', '}'])
        .next()?
        .trim()
        .parse()
        .ok()
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

/// The single-mutation per-op cost `BENCH_stream.json` recorded **before
/// this hardening pass** (PR 2's delta engine) — the "~30 µs/mutation"
/// the batch path was built to amortize. The same-binary `single` row
/// below is faster than this because the hardening also upgraded the
/// shared index machinery (O(1) `min_pos`/`remove_key`/`replace_pos`,
/// value-guarded relabels); both ratios are recorded.
const PRE_HARDENING_SINGLE_US: f64 = 29.33;

fn main() {
    let smoke = std::env::var("CONDEP_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (n, runs) = if smoke { (10_000, 1) } else { (100_000, 5) };
    let churn = n / 100; // 1%: `churn` deletes + `churn` inserts.
    let schema = schema();
    let r = schema.rel_id("r").unwrap();
    let cfds = sigma_cfds(&schema);
    let cinds = sigma_cinds(&schema);
    let validator = Validator::new(cfds, cinds);

    let db = build_db(&schema, n);
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
    // The same interleaved delete/insert plan, once as explicit calls
    // (the single-mutation baseline) and once as value-level mutations
    // for the batched windows.
    let muts: Vec<Mutation> = deletions
        .iter()
        .zip(&insertions)
        .flat_map(|(del, ins)| {
            [
                Mutation::Delete {
                    rel: r,
                    tuple: del.clone(),
                },
                Mutation::Insert {
                    rel: r,
                    tuple: ins.clone(),
                },
            ]
        })
        .collect();

    // batch = 0 encodes the single-mutation baseline.
    let configs: [(&str, usize); 4] = [
        ("single", 0),
        ("batch_1", 1),
        ("batch_32", 32),
        ("batch_1024", 1024),
    ];
    let mut times: Vec<Duration> = Vec::new();
    // The batch-1024 stream's own telemetry (from its last run) rides
    // along in the emitted JSON as the `metrics` section.
    let mut metrics: Option<MetricsSnapshot> = None;
    for (label, batch) in configs {
        let mut best = Duration::MAX;
        for _ in 0..runs {
            // Stream construction (one batch sweep) is the monitor's
            // amortized setup cost; only the churn window is timed.
            let (mut stream, _initial) =
                ValidatorStream::new_validated(validator.clone(), db.clone());
            let (elapsed, ()) = time_once(|| {
                if batch == 0 {
                    for m in &muts {
                        stream.apply(m.clone()).expect("well-typed");
                    }
                } else {
                    for window in muts.chunks(batch) {
                        stream.apply_deltas(window).expect("well-typed");
                    }
                }
            });
            // In-run gate: the live state equals a fresh batch sweep of
            // the churned database, whichever path produced it.
            let swept = validator.validate_sorted(stream.db());
            assert_eq!(
                stream.current_report(),
                swept,
                "{label}: delta state diverged from batch validation"
            );
            best = best.min(elapsed);
            if label == "batch_1024" {
                metrics = Some(stream.telemetry().snapshot());
            }
        }
        times.push(best);
    }
    // Σ-cover configuration: the batch-1024 plan against the redundant
    // (every-dependency-twice) suite compiled through the exact cover.
    // In-run gate: the covered compile's live state must equal a batch
    // sweep by an *uncovered* compile of the same redundant Σ — the
    // cover is a compile-time optimization, never a semantic change.
    let (red_cfds, red_cinds) = sigma_redundant(&schema);
    let covered = Validator::new(red_cfds.clone(), red_cinds.clone());
    let uncovered = Validator::new_uncovered(red_cfds, red_cinds);
    assert!(
        covered.compiled_cfd_members() < uncovered.compiled_cfd_members(),
        "redundant suite must actually shrink under the cover"
    );
    let mut cover_best = Duration::MAX;
    for _ in 0..runs {
        let (mut stream, _initial) = ValidatorStream::new_validated(covered.clone(), db.clone());
        let (elapsed, ()) = time_once(|| {
            for window in muts.chunks(1024) {
                stream.apply_deltas(window).expect("well-typed");
            }
        });
        assert_eq!(
            stream.current_report(),
            uncovered.validate_sorted(stream.db()),
            "cover: covered compile diverged from the uncovered compile"
        );
        cover_best = cover_best.min(elapsed);
    }

    let per_op_us = |d: Duration| ms(d) * 1000.0 / (churn as f64 * 2.0);
    let single_us = per_op_us(times[0]);

    // In-run gate: churn-then-compact keeps the interner bounded by the
    // live distinct values — retention must be invariant across rounds
    // of ever-fresh keys.
    let (mut stream, _) = ValidatorStream::new_validated(validator.clone(), db.clone());
    let rounds = 5usize;
    let ops_per_round = if smoke { 128 } else { 512 };
    let mut fresh_serial = 2 * n;
    let mut first_stats = None;
    let mut retained: Vec<usize> = Vec::new();
    for round in 0..rounds {
        let window: Vec<Mutation> = (0..ops_per_round)
            .flat_map(|_| {
                fresh_serial += 1;
                let t = random_tuple(fresh_serial, &mut state);
                [
                    Mutation::Insert {
                        rel: r,
                        tuple: t.clone(),
                    },
                    Mutation::Delete { rel: r, tuple: t },
                ]
            })
            .collect();
        stream.apply_deltas(&window).expect("well-typed");
        let stats = stream.compact();
        assert!(
            stats.interned_strings_dropped() > 0,
            "round {round}: fresh-key churn must leave droppable strings: {stats:?}"
        );
        retained.push(stats.interned_strings_after);
        first_stats.get_or_insert(stats);
    }
    assert!(
        retained.iter().all(|&v| v == retained[0]),
        "interner retention must be bounded by live values, not keys ever seen: {retained:?}"
    );
    let compact_stats = first_stats.expect("at least one round ran");
    assert_eq!(
        stream.current_report(),
        validator.validate_sorted(stream.db()),
        "compaction rounds disturbed the live state"
    );

    // All rows, the `cover` configuration last (batch-1024 plan, 2×
    // redundant Σ compiled through the exact cover).
    let rows: Vec<(&str, usize, Duration)> = configs
        .iter()
        .zip(&times)
        .map(|((label, batch), time)| (*label, *batch, *time))
        .chain([("cover", 1024usize, cover_best)])
        .collect();

    let mut table = FigureTable::new(
        "batch",
        &[
            "config",
            "tuples",
            "churn_ops",
            "ms",
            "per_op_us",
            "speedup_vs_single",
        ],
    );
    for (label, _, time) in &rows {
        table.row(&[
            label,
            &n,
            &(churn * 2),
            &format!("{:.2}", ms(*time)),
            &format!("{:.1}", per_op_us(*time)),
            &format!("{:.2}x", single_us / per_op_us(*time)),
        ]);
    }
    table.finish("Batched apply_deltas vs per-mutation deltas under 1% churn");
    println!(
        "compact gate: {} -> {} interned strings ({} bytes reclaimed), retention churn-invariant \
         over {rounds} rounds",
        compact_stats.interned_strings_before,
        compact_stats.interned_strings_after,
        compact_stats.interned_bytes_reclaimed(),
    );

    // The `metrics` JSON section: the batch-1024 stream's telemetry.
    // Gated in smoke mode (CI) — it must parse and carry the keys the
    // dashboards read.
    let metrics = metrics.expect("batch_1024 configuration ran");
    let metrics_json = metrics.to_json();
    assert!(
        condep_telemetry::json::is_valid(&metrics_json),
        "metrics section must be valid JSON: {metrics_json}"
    );
    for key in [
        "stream.materialize_us",
        "stream.apply.window_us",
        "stream.apply.windows",
        "stream.mutations.inserts",
        "stream.mutations.deletes",
        "stream.probes.hash",
        "stream.probes.slot",
    ] {
        assert!(metrics.get(key).is_some(), "metrics snapshot missing {key}");
    }
    println!("metrics gate: batch-1024 MetricsSnapshot renders valid JSON with required keys");

    if smoke {
        // Smoke-mode perf guard: a gross batch-1024 regression against
        // the last recorded full run fails CI. The smoke instance is 10×
        // smaller than the recorded one, so an honest smoke run comes in
        // at or under the recorded per-op cost; >25% over it means the
        // hot path got materially slower, not that the machine wobbled.
        let path = format!("{}/../../BENCH_batch.json", env!("CARGO_MANIFEST_DIR"));
        if let Some(recorded) = std::fs::read_to_string(&path)
            .ok()
            .as_deref()
            .and_then(|json| recorded_per_op(json, "batch_1024"))
        {
            let measured = per_op_us(times[3]);
            assert!(
                measured <= recorded * 1.25,
                "smoke perf guard: batch-1024 at {measured:.2} µs/op is >25% over the recorded \
                 {recorded:.2} µs/op (BENCH_batch.json)"
            );
            println!(
                "smoke perf guard: batch-1024 {measured:.2} µs/op within 25% of recorded \
                 {recorded:.2} µs/op"
            );
        }
        println!("(smoke mode: BENCH_batch.json not rewritten)");
        return;
    }
    let mut json_rows = String::new();
    for (i, (label, batch, time)) in rows.iter().enumerate() {
        let _ = writeln!(
            json_rows,
            "    {{\"config\": \"{label}\", \"batch\": {batch}, \"ms\": {:.2}, \
             \"per_op_us\": {:.2}, \"speedup_vs_single\": {:.2}, \"speedup_vs_pre_hardening\": {:.2}}}{}",
            ms(*time),
            per_op_us(*time),
            single_us / per_op_us(*time),
            PRE_HARDENING_SINGLE_US / per_op_us(*time),
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    let vs_single = single_us / per_op_us(times[3]);
    let vs_pre = PRE_HARDENING_SINGLE_US / per_op_us(times[3]);
    // The compaction section through the shared `Export` trait instead
    // of hand-rolled field formatting.
    let mut compaction = MetricsSnapshot::default();
    compact_stats.export("", &mut compaction);
    compaction.counter("rounds", rounds as u64);
    compaction.text("retention", "churn-invariant");
    let compaction_json = compaction.to_json();
    let json = format!(
        "{{\n  \"bench\": \"batch\",\n  \"baseline\": \"per-mutation ValidatorStream::apply deltas (same binary)\",\n  \
         \"pre_hardening_baseline\": \"BENCH_stream.json per-mutation cost before this hardening pass: {PRE_HARDENING_SINGLE_US} us/op\",\n  \
         \"contender\": \"ValidatorStream::apply_deltas windows of 1/32/1024 mutations (same 1% churn plan)\",\n  \
         \"runs_per_point\": {runs},\n  \"timing\": \"best of {runs}\",\n  \
         \"headline\": {{\"tuples\": {n}, \"churn\": \"1%\", \"cfds\": 200, \"lhs_sets\": 10, \"cinds\": 2, \
         \"batch_1024_vs_pre_hardening\": {vs_pre:.2}, \"batch_1024_vs_same_binary_single\": {vs_single:.2}}},\n  \
         \"note\": \"the >=2x per-mutation win over the ~30 us/mutation pre-hardening path comes from batching \
         (one-pass symbolization, grouped key translation, one probe per touched key group) COMBINED with the \
         shared index upgrades this PR ships (O(1) min_pos/remove_key/replace_pos, value-guarded relabels); \
         the same-binary single path inherits the shared upgrades, so its ratio is smaller — the residual \
         per-mutation cost is memory-bound index/live-set maintenance identical in both paths; the cover row \
         runs the batch-1024 plan against a 2x-redundant (every-dependency-twice) suite compiled through the \
         exact Sigma cover, with an in-run gate that its report equals an uncovered compile's batch sweep\",\n  \
         \"compaction\": {compaction_json},\n  \
         \"metrics\": {metrics_json},\n  \
         \"results\": [\n{json_rows}  ]\n}}\n",
    );
    let path = format!("{}/../../BENCH_batch.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("(json: {path})"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    println!(
        "headline: {n} tuples, 1% churn — batch-1024 {:.1} µs/op vs same-binary single {single_us:.1} µs/op \
         ({vs_single:.1}x) and vs the pre-hardening {PRE_HARDENING_SINGLE_US} µs/op ({vs_pre:.1}x)",
        per_op_us(times[3]),
    );
}
