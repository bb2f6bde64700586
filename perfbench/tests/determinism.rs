//! The traced run's exact counts repeat for a seed, and another seed
//! gives other inputs. Runs the real workloads at small sizes.

use condep::model::Tuple;
use condep_perfbench::inputs::{
    audit_schema, dirty_partition, partition, rng_for, window, KeyPool, Sizes, Stream,
};
use condep_perfbench::{audit, clean, monitor, Metric};
use std::time::Duration;

/// The exact counts of a traced run of every workload, with no time
/// budget: each workload runs just the ops its counts are taken over.
fn exact_counts(seed: u64) -> Vec<Metric> {
    let sizes = Sizes::small();
    [
        audit::traced(seed, &sizes, Duration::ZERO),
        monitor::traced(seed, &sizes, Duration::ZERO),
        clean::traced(seed, &sizes, Duration::ZERO),
    ]
    .into_iter()
    .flat_map(|t| {
        assert_eq!(
            t.failures.count,
            0,
            "{}: {:?}",
            t.workload.name(),
            t.failures.messages
        );
        t.metrics
    })
    .filter(|m| m.unit == "count")
    .collect()
}

#[test]
fn same_seed_gives_the_same_exact_counts() {
    let first = exact_counts(7);
    let names: Vec<&str> = first.iter().map(|m| m.name).collect();
    assert_eq!(
        names,
        [
            "validate.violations",
            "stream.delta_events",
            "discover.kept_cfds",
            "discover.kept_cinds",
            "repair.fixes_applied",
        ]
    );
    assert!(first.iter().all(|m| m.value > 0.0), "{first:?}");
    assert_eq!(first, exact_counts(7));
}

fn rows(db: &condep::model::Database, rel: &str) -> Vec<Tuple> {
    let r = db.schema().rel_id(rel).expect("relation exists");
    db.relation(r).tuples().to_vec()
}

#[test]
fn another_seed_gives_other_inputs() {
    let sizes = Sizes::small();
    let schema = audit_schema();
    let audit_rows = |seed| {
        let p = partition(
            &schema,
            &mut rng_for(seed, Stream::Audit, 0),
            sizes.audit_rows,
            0,
        );
        rows(&p.db, "r")
    };
    assert_eq!(audit_rows(7), audit_rows(7));
    assert_ne!(audit_rows(7), audit_rows(8));

    let resident = partition(
        &schema,
        &mut rng_for(7, Stream::MonitorResident, 0),
        sizes.monitor_rows,
        0,
    );
    let first_window = |seed| {
        let mut pool = KeyPool::new(resident.next_id, sizes.key_reserve);
        window(
            &resident.db,
            &mut rng_for(seed, Stream::MonitorWindow, 0),
            &sizes.window,
            &mut pool,
        )
    };
    assert_eq!(first_window(7), first_window(7));
    assert_ne!(first_window(7), first_window(8));

    let clean_rows = |seed| {
        rows(
            &dirty_partition(&mut rng_for(seed, Stream::Clean, 0), sizes.clean_rows).db,
            "fact",
        )
    };
    assert_eq!(clean_rows(7), clean_rows(7));
    assert_ne!(clean_rows(7), clean_rows(8));
}
