//! Seeded input generators. Every op draws its inputs from its own
//! generator, derived from the run seed and the op index, so the same
//! seed gives the same inputs in the untraced and the traced mode.

use condep::cfd::NormalCfd;
use condep::cind::NormalCind;
use condep::gen::{clean_database_with_hidden_sigma, dirtied_database, PlantedSigmaConfig};
use condep::model::{tuple, Database, Domain, PValue, PatternRow, Schema, Tuple, Value};
use condep::validate::Mutation;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// Input sizes of the three workloads.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `r` rows in one `audit` partition.
    pub audit_rows: usize,
    /// Resident `r` rows of the `monitor` instance.
    pub monitor_rows: usize,
    /// Deletes, inserts and single-cell updates in one `monitor` window.
    pub window: WindowMix,
    /// `monitor` windows between two full re-validation checkpoints.
    pub checkpoint_every: usize,
    /// Unused `a0` keys the `monitor` key pool starts with.
    pub key_reserve: usize,
    /// `fact` rows in one `clean` partition.
    pub clean_rows: usize,
    /// Reservoir budget of the sampled discovery in `clean`.
    pub clean_reservoir: usize,
    /// `monitor` rounds, each with its own set-up; `setup_s` is the
    /// median of their set-up times.
    pub monitor_rounds: usize,
    /// Fewest ops a measured loop runs, so that the tail percentile
    /// has at least ten samples beyond it.
    pub min_ops: usize,
}

/// The mutation mix of one `monitor` window.
#[derive(Clone, Copy, Debug)]
pub struct WindowMix {
    pub deletes: usize,
    pub inserts: usize,
    pub updates: usize,
}

impl Sizes {
    /// The sizes the benchmark runs at.
    pub fn bench() -> Self {
        Sizes {
            audit_rows: 25_000,
            monitor_rows: 100_000,
            window: WindowMix {
                deletes: 12,
                inserts: 12,
                updates: 8,
            },
            checkpoint_every: 4_096,
            key_reserve: 4_096,
            clean_rows: 10_000,
            clean_reservoir: 2_500,
            monitor_rounds: 3,
            min_ops: 100,
        }
    }

    /// Small sizes for the crate's own tests (debug builds).
    pub fn small() -> Self {
        Sizes {
            audit_rows: 2_000,
            monitor_rows: 3_000,
            window: WindowMix {
                deletes: 3,
                inserts: 3,
                updates: 2,
            },
            checkpoint_every: 16,
            key_reserve: 64,
            clean_rows: 3_000,
            clean_reservoir: 1_000,
            monitor_rounds: 1,
            min_ops: 4,
        }
    }
}

/// Independent generator streams, one per use, so that adding draws to
/// one never shifts another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    Audit = 1,
    MonitorResident = 2,
    MonitorWindow = 3,
    Clean = 4,
    MonitorCycle = 5,
}

/// The generator of op `op` of `stream` under run seed `seed`.
pub fn rng_for(seed: u64, stream: Stream, op: u64) -> StdRng {
    let mixed = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((stream as u64) << 56)
        .wrapping_add(op.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    StdRng::seed_from_u64(mixed)
}

/// The `audit`/`monitor` schema: an 8-string-column `r` and a
/// one-column `partner` holding every `a1` key.
pub fn audit_schema() -> Arc<Schema> {
    let cols: Vec<(String, Domain)> = (0..8)
        .map(|i| (format!("a{i}"), Domain::string()))
        .collect();
    let cols: Vec<(&str, Domain)> = cols.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
    Arc::new(
        Schema::builder()
            .relation("r", &cols)
            .relation("partner", &[("p", Domain::string())])
            .finish(),
    )
}

/// The ten LHS attribute lists Σ's 200 CFDs share.
pub const LHS_SETS: [&[&str]; 10] = [
    &["a1"],
    &["a3"],
    &["a5"],
    &["a1", "a3"],
    &["a1", "a5"],
    &["a3", "a5"],
    &["a1", "a3", "a5"],
    &["a0"],
    &["a0", "a7"],
    &["a7", "a1"],
];

/// Σ for `audit` and `monitor`, the shape of the workspace's stream
/// bench: 200 CFDs cycling over [`LHS_SETS`] and sixteen pattern kinds
/// (all-wildcard, a constant on the first LHS cell, or an `a1`
/// constant with a constant RHS), plus `r[a1] ⊆ partner[p]` and
/// `partner[p] ⊆ r[a1]`.
pub fn audit_sigma(schema: &Arc<Schema>) -> (Vec<NormalCfd>, Vec<NormalCind>) {
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
    for j in 0..200 {
        let lhs = LHS_SETS[j % LHS_SETS.len()];
        let rhs = rhs_for(lhs);
        let (lhs_pat, rhs_pat) = match j % 16 {
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
                let first = match lhs[0] {
                    "a1" => PValue::constant(format!("b{m}")),
                    "a3" => PValue::constant(format!("d{m}")),
                    "a5" => PValue::constant(format!("f{m}")),
                    "a7" => PValue::constant(format!("w{}", m % 8)),
                    _ => PValue::Any,
                };
                let cells: Vec<PValue> = std::iter::once(first)
                    .chain(std::iter::repeat_n(PValue::Any, lhs.len() - 1))
                    .collect();
                (PatternRow::new(cells), PValue::Any)
            }
        };
        cfds.push(
            NormalCfd::parse(schema, "r", lhs, lhs_pat, rhs, rhs_pat).expect("Σ is well-typed"),
        );
    }
    let cinds = vec![
        NormalCind::parse(schema, "r", &["a1"], &[], "partner", &["p"], &[])
            .expect("Σ is well-typed"),
        NormalCind::parse(schema, "partner", &["p"], &[], "r", &["a1"], &[])
            .expect("Σ is well-typed"),
    ];
    (cfds, cinds)
}

/// The value a corrupt row carries in `a2`.
pub const CORRUPT: &str = "CORRUPT";
/// Share of generated `r` rows with a corrupt `a2` cell.
pub const CORRUPT_RATE: f64 = 0.001;

/// One `r` row with key `a0 = id`, honouring `a1 → a2`, `a3 → a4` and
/// `a5 → a6` unless `corrupt`, which breaks `a2`.
pub fn r_row(rng: &mut StdRng, id: Value, corrupt: bool) -> Tuple {
    let h1 = rng.gen_range(0..64u32);
    let h2 = rng.gen_range(0..512u32);
    let h3 = rng.gen_range(0..4096u32);
    let w = rng.gen_range(0..8u32);
    let a2 = if corrupt {
        CORRUPT.to_string()
    } else {
        format!("c{h1}")
    };
    tuple![
        id,
        format!("b{h1}").as_str(),
        a2.as_str(),
        format!("d{h2}").as_str(),
        format!("e{h2}").as_str(),
        format!("f{h3}").as_str(),
        format!("g{h3}").as_str(),
        format!("w{w}").as_str()
    ]
}

/// An `r` instance of `rows` rows plus the 64-row `partner`.
#[derive(Clone, Debug)]
pub struct Partition {
    pub db: Database,
    /// Dense positions in `r` of the rows generated corrupt.
    pub corrupt: Vec<usize>,
    /// The first `a0` serial not used by this instance.
    pub next_id: u64,
}

/// Builds a [`Partition`] whose `a0` keys are the serials from
/// `first_key` on; every other cell comes from `rng`. The key set does
/// not depend on the seed: string hashing costs depend on the keys'
/// digits, and a seed should not pick a cheaper or dearer key set.
pub fn partition(schema: &Arc<Schema>, rng: &mut StdRng, rows: usize, first_key: u64) -> Partition {
    let mut db = Database::empty(schema.clone());
    let r = schema.rel_id("r").expect("schema has r");
    let mut corrupt = Vec::new();
    for k in 0..rows {
        let bad = rng.gen_bool(CORRUPT_RATE);
        if bad {
            corrupt.push(db.relation(r).len());
        }
        db.insert(r, r_row(rng, key(first_key + k as u64), bad))
            .expect("row is well-typed");
    }
    for h in 0..64 {
        db.insert_into("partner", tuple![format!("b{h}").as_str()])
            .expect("row is well-typed");
    }
    Partition {
        db,
        corrupt,
        next_id: first_key + rows as u64,
    }
}

/// The `a0` key with serial `n`.
fn key(n: u64) -> Value {
    Value::str(format!("id{n}"))
}

/// The `a0` keys a `monitor` run hands to inserted and re-keyed rows, in
/// first-in first-out order: it starts with keys no resident row has,
/// and every key a delete or re-key frees joins the back. A key thus
/// returns only after the whole reserve has cycled, and the set of keys
/// a run ever uses stays bounded, as in a database whose entities leave
/// and come back.
#[derive(Clone, Debug)]
pub struct KeyPool {
    free: VecDeque<Value>,
}

impl KeyPool {
    /// `reserve` unused keys, from serial `first` on.
    pub fn new(first: u64, reserve: usize) -> Self {
        KeyPool {
            free: (first..first + reserve as u64).map(key).collect(),
        }
    }

    fn take(&mut self) -> Value {
        self.free.pop_front().expect("the key pool never runs dry")
    }

    fn give(&mut self, k: Value) {
        self.free.push_back(k);
    }
}

/// One `monitor` window against the current instance: deletes and
/// single-cell updates of distinct resident rows, and inserts of new
/// rows (corrupt at [`CORRUPT_RATE`]), shuffled. Updates rewrite `a7`
/// or give the row another `a0` key. Keys come from and return to
/// `pool`.
pub fn window(
    db: &Database,
    rng: &mut StdRng,
    mix: &WindowMix,
    pool: &mut KeyPool,
) -> Vec<Mutation> {
    let r = db.schema().rel_id("r").expect("schema has r");
    let resident = db.relation(r);
    let a0 = db
        .schema()
        .relation(r)
        .and_then(|s| s.attr_id("a0"))
        .expect("r has a0");
    let a7 = db
        .schema()
        .relation(r)
        .and_then(|s| s.attr_id("a7"))
        .expect("r has a7");
    let picked = distinct_positions(rng, resident.len(), mix.deletes + mix.updates);
    let mut muts = Vec::with_capacity(mix.deletes + mix.updates + mix.inserts);
    for (k, &pos) in picked.iter().enumerate() {
        let old = resident.get(pos).expect("position in range").clone();
        if k < mix.deletes {
            pool.give(old[a0].clone());
            muts.push(Mutation::Delete { rel: r, tuple: old });
        } else {
            let new = if rng.gen_bool(0.5) {
                let w = (rng.gen_range(1..8u32) + parse_w(&old[a7])) % 8;
                old.with(a7, Value::str(format!("w{w}")))
            } else {
                pool.give(old[a0].clone());
                old.with(a0, pool.take())
            };
            muts.push(Mutation::Update { rel: r, old, new });
        }
    }
    for _ in 0..mix.inserts {
        let bad = rng.gen_bool(CORRUPT_RATE);
        muts.push(Mutation::Insert {
            rel: r,
            tuple: r_row(rng, pool.take(), bad),
        });
    }
    muts.shuffle(rng);
    muts
}

/// The two batches that cycle every resident `r` row through the delta
/// engine: one deleting them all, then one re-inserting them in
/// shuffled order. Afterwards the engine holds the same instance in the
/// layout long churn leaves behind (every row in the streaming tier of
/// its indexes), so measured windows see a long-lived monitor's state
/// rather than a freshly built one.
///
/// The deletes run from the last position down. In position order each
/// delete would remove its key group's smallest position, which makes
/// the index rescan the group; that took 0.9 to 3.0 s at 100K rows,
/// depending on the seed.
pub fn cycle(db: &Database, rng: &mut StdRng) -> [Vec<Mutation>; 2] {
    let r = db.schema().rel_id("r").expect("schema has r");
    let mut rows: Vec<Tuple> = db.relation(r).iter().cloned().collect();
    let deletes = rows
        .iter()
        .rev()
        .map(|t| Mutation::Delete {
            rel: r,
            tuple: t.clone(),
        })
        .collect();
    rows.shuffle(rng);
    let inserts = rows
        .into_iter()
        .map(|tuple| Mutation::Insert { rel: r, tuple })
        .collect();
    [deletes, inserts]
}

fn parse_w(v: &Value) -> u32 {
    v.as_str()
        .and_then(|s| s.strip_prefix('w'))
        .and_then(|n| n.parse().ok())
        .expect("a7 holds w0..w7")
}

/// `k` distinct positions below `n`, in draw order.
fn distinct_positions(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(k);
    while out.len() < k.min(n) {
        let p = (rng.next_u64() % n as u64) as usize;
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

/// The planted-Σ shape of the `clean` partitions.
pub fn planted_config(rows: usize) -> PlantedSigmaConfig {
    PlantedSigmaConfig {
        fd_pairs: 3,
        pair_cardinality: 16,
        constant_rows_per_pair: 3,
        cind_count: 2,
        tuples: rows,
        drift_pairs: 0,
        drift_onset: 0.5,
    }
}

/// Share of `clean` partition tuples made dirty.
pub const CLEAN_DIRT_RATE: f64 = 0.01;

/// One dirty `clean` partition with its planted ground truth.
#[derive(Clone, Debug)]
pub struct DirtyPartition {
    pub db: Database,
    pub planted_cfds: Vec<NormalCfd>,
    pub planted_cinds: Vec<NormalCind>,
}

/// A planted-Σ `fact` partition of `rows` rows with
/// [`CLEAN_DIRT_RATE`] dirt.
pub fn dirty_partition(rng: &mut StdRng, rows: usize) -> DirtyPartition {
    let planted = clean_database_with_hidden_sigma(&planted_config(rows), rng);
    let dirty = dirtied_database(
        &planted.db,
        &planted.cfds,
        &planted.cinds,
        CLEAN_DIRT_RATE,
        rng,
    );
    DirtyPartition {
        db: dirty.db,
        planted_cfds: planted.cfds,
        planted_cinds: planted.cinds,
    }
}
