//! A window's journal event and counters count **mutations**, not
//! deltas: an unmerged update streams two deltas but is one mutation,
//! and a mutation that changes nothing is booked as a no-op.

#![cfg(feature = "telemetry")]

use condep_cfd::NormalCfd;
use condep_model::{tuple, AttrId, Database, Domain, PValue, PatternRow, Schema};
use condep_telemetry::{MetricValue, StreamEvent};
use condep_validate::{Mutation, Validator, ValidatorStream};
use std::sync::Arc;

#[test]
fn window_of_updates_and_a_resident_insert_counts_mutations_and_noops() {
    let schema = Arc::new(
        Schema::builder()
            .relation("r", &[("k", Domain::string()), ("d", Domain::string())])
            .finish(),
    );
    let rel = schema.rel_id("r").unwrap();
    let mut db = Database::empty(schema);
    for i in 0..5 {
        db.insert(rel, tuple![format!("k{i}").as_str(), "v"])
            .unwrap();
    }
    let fd = NormalCfd::new(
        rel,
        vec![AttrId(0)],
        PatternRow::all_any(1),
        AttrId(1),
        PValue::Any,
    );
    let (mut stream, _) = ValidatorStream::new_validated(Validator::new(vec![fd], vec![]), db);

    let k = 3;
    let mut window: Vec<Mutation> = (0..k)
        .map(|i| Mutation::Update {
            rel,
            old: tuple![format!("k{i}").as_str(), "v"],
            new: tuple![format!("k{i}").as_str(), "w"],
        })
        .collect();
    window.push(Mutation::Insert {
        rel,
        tuple: tuple!["k4", "v"],
    });
    let deltas = stream.apply_deltas(&window).unwrap();
    assert_eq!(
        deltas.len(),
        2 * k,
        "each unmerged update streams two deltas"
    );

    let telemetry = stream.telemetry();
    match telemetry.journal_tail(1)[0].event {
        StreamEvent::Window { mutations, .. } => assert_eq!(mutations, k as u32),
        ref other => panic!("unexpected journal event: {other:?}"),
    }
    let counter = |name: &str| telemetry.snapshot().get(name).cloned();
    assert_eq!(
        counter("stream.mutations.noops"),
        Some(MetricValue::Counter(1))
    );
    assert_eq!(
        counter("stream.mutations.inserts"),
        Some(MetricValue::Counter(k as u64))
    );
    assert_eq!(
        counter("stream.mutations.deletes"),
        Some(MetricValue::Counter(k as u64))
    );
}
