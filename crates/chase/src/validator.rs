//! Incremental candidate checking for the instantiated chase.
//!
//! Procedure `CFD_Checking` (Section 5.2) instantiates the remaining
//! finite-domain variables one by one, skipping candidates that
//! immediately fire a conflicting CFD premise. The naive check rescans
//! every tuple pair of the template per candidate — `O(|D|²·|Σ|)` per
//! trial. A [`ChaseValidator`] replaces the rescans with the workspace's
//! delta engine: the template is **encoded** once into a concrete
//! [`condep_model::Database`] (variables become tagged sentinel strings)
//! backing a persistent [`condep_validate::ValidatorStream`], and each
//! candidate trial is
//!
//! 1. **apply** — overlay the substitution as `delete + insert` deltas on
//!    the tuples carrying the variable,
//! 2. **check** — probe the carrier tuples' own key groups for conflicts
//!    whose witnessing cells are all *rigid* (genuine constants; a
//!    disagreement involving a variable is repairable by `FD(φ)` and is
//!    not a conflict),
//! 3. **retract** — roll the deltas back if the candidate is rejected,
//!    or keep them (and the live indexes) if it is accepted.
//!
//! Each trial therefore costs time proportional to the tuples the
//! substitution touches and their key-group sizes — never a template
//! rescan. The classic quadratic check survives as
//! [`crate::engine::candidate_conflicts`], the reference oracle the
//! differential tests compare against.

use crate::template::{TemplateDb, TplValue, VarRef};
use condep_cfd::NormalCfd;
use condep_model::{AttrId, Database, Domain, PValue, PatternRow, RelId, Schema, Tuple, Value};
use condep_validate::{Mutation, Validator, ValidatorStream};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Tag prefixing encoded pool variables. `U+0001` cannot collide with
/// encoded constants, which always carry a `s:`/`i:`/`b:` type prefix.
const VAR_TAG: char = '\u{1}';

/// Encodes a template constant injectively as a string (the relaxed
/// schema is all-string so arity and equality survive, domains don't
/// constrain sentinel values).
fn encode_const(v: &Value) -> Value {
    match v {
        Value::Str(s) => Value::str(format!("s:{s}")),
        Value::Int(i) => Value::str(format!("i:{i}")),
        Value::Bool(b) => Value::str(format!("b:{b}")),
    }
}

/// Encodes a pool variable as a tagged sentinel string.
fn encode_var(v: VarRef) -> Value {
    Value::str(format!("{VAR_TAG}{}:{}:{}", v.rel.0, v.attr.0, v.idx))
}

/// Encodes one template cell.
fn encode_cell(c: &TplValue) -> Value {
    match c {
        TplValue::Const(v) => encode_const(v),
        TplValue::Var(v) => encode_var(*v),
    }
}

/// Is an encoded value a genuine constant (not a variable sentinel)?
/// Variables match only wildcards and never conflict as witnesses.
fn is_rigid(v: &Value) -> bool {
    v.as_str().is_none_or(|s| !s.starts_with(VAR_TAG))
}

/// Recovers the [`VarRef`] behind an encoded variable sentinel.
fn decode_var(v: &Value) -> Option<VarRef> {
    let rest = v.as_str()?.strip_prefix(VAR_TAG)?;
    let mut it = rest.split(':');
    let rel = it.next()?.parse().ok()?;
    let attr = it.next()?.parse().ok()?;
    let idx = it.next()?.parse().ok()?;
    Some(VarRef {
        rel: RelId(rel),
        attr: AttrId(attr),
        idx,
    })
}

/// The template's schema with every domain relaxed to unconstrained
/// strings, so encoded constants and variable sentinels all type-check.
fn relaxed_schema(schema: &Schema) -> Arc<Schema> {
    let mut b = Schema::builder();
    for (_, rs) in schema.iter() {
        let attrs: Vec<(&str, Domain)> = rs
            .attributes()
            .iter()
            .map(|a| (a.name(), Domain::string()))
            .collect();
        b = b.relation(rs.name(), &attrs);
    }
    Arc::new(b.finish())
}

/// Re-expresses a CFD over the relaxed schema: same attributes, pattern
/// constants encoded the same way as tuple cells.
fn encode_cfd(cfd: &NormalCfd) -> NormalCfd {
    let lhs_pat = PatternRow::new(cfd.lhs_pat().cells().iter().map(|c| match c {
        PValue::Any => PValue::Any,
        PValue::Const(v) => PValue::Const(encode_const(v)),
    }));
    let rhs_pat = match cfd.rhs_pat() {
        PValue::Any => PValue::Any,
        PValue::Const(v) => PValue::Const(encode_const(v)),
    };
    NormalCfd::new(cfd.rel(), cfd.lhs().to_vec(), lhs_pat, cfd.rhs(), rhs_pat)
}

/// One applied carrier update, kept for rollback/commit.
struct Applied {
    rel: RelId,
    old: Tuple,
    new: Tuple,
    /// The inverse mutation the stream handed back — for a merged
    /// carrier (the replacement already resided, two template tuples
    /// collapsed) this is the bare re-insertion of `old`, so rollback
    /// never deletes the pre-existing partner.
    revert: Mutation,
}

/// A persistent incremental CFD checker over an encoded chase template.
pub struct ChaseValidator {
    stream: ValidatorStream,
    /// Which encoded tuples carry each live variable — across **all**
    /// relations (`IND(ψ)` copies variables into target relations).
    occ: HashMap<VarRef, HashSet<(RelId, Tuple)>>,
}

impl ChaseValidator {
    /// Encodes `db` and compiles `cfds` into a live stream. Built once
    /// per instantiation pass; every candidate trial afterwards is
    /// delta-cost.
    pub fn new(db: &TemplateDb, cfds: &[NormalCfd]) -> Self {
        let schema = relaxed_schema(db.schema());
        let mut enc = Database::empty(schema);
        let mut occ: HashMap<VarRef, HashSet<(RelId, Tuple)>> = HashMap::new();
        for i in 0..db.schema().len() {
            let rel = RelId(i as u32);
            for t in db.relation(rel) {
                let tuple = Tuple::new(t.cells().iter().map(encode_cell));
                enc.insert(rel, tuple.clone())
                    .expect("relaxed schema accepts every encoded cell");
                for cell in t.cells() {
                    if let TplValue::Var(v) = cell {
                        occ.entry(*v).or_default().insert((rel, tuple.clone()));
                    }
                }
            }
        }
        let validator = Validator::new(cfds.iter().map(encode_cfd).collect(), vec![]);
        let (stream, _initial) = ValidatorStream::new_validated(validator, enc);
        ChaseValidator { stream, occ }
    }

    /// Overlays `var := candidate` on every carrier tuple through the
    /// stream's value-level [`Mutation`] API; each carrier's inverse
    /// mutation is stashed for [`ChaseValidator::retract`]. A merging
    /// update (the replacement already resides — two template tuples
    /// collapse) degenerates to a deletion inside the stream, and its
    /// revert re-inserts only `old`.
    fn apply(&mut self, var: VarRef, candidate: &Value) -> Vec<Applied> {
        let enc_var = encode_var(var);
        let enc_cand = encode_const(candidate);
        let carriers: Vec<(RelId, Tuple)> = self
            .occ
            .get(&var)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default();
        let mut applied = Vec::with_capacity(carriers.len());
        for (rel, old) in carriers {
            let new = Tuple::new(old.values().iter().map(|v| {
                if *v == enc_var {
                    enc_cand.clone()
                } else {
                    v.clone()
                }
            }));
            let outcome = self
                .stream
                .apply(Mutation::Update {
                    rel,
                    old: old.clone(),
                    new: new.clone(),
                })
                .expect("relaxed schema accepts every encoded cell");
            let revert = outcome
                .revert
                .expect("a carrier update is never a no-op: the variable occurs in `old`");
            applied.push(Applied {
                rel,
                old,
                new,
                revert,
            });
        }
        applied
    }

    /// Undoes [`ChaseValidator::apply`] by replaying the stashed inverse
    /// mutations (reverse order, so merged tuples un-merge correctly).
    fn retract(&mut self, applied: Vec<Applied>) {
        for a in applied.into_iter().rev() {
            self.stream
                .apply(a.revert)
                .expect("restoring a previously valid tuple");
        }
    }

    /// Keeps an applied substitution: the variable is gone, and the
    /// carriers' remaining variables now live in the replacement tuples.
    fn commit(&mut self, var: VarRef, applied: Vec<Applied>) {
        self.occ.remove(&var);
        for a in applied {
            for v in a.old.values() {
                if let Some(w) = decode_var(v) {
                    if w == var {
                        continue;
                    }
                    if let Some(set) = self.occ.get_mut(&w) {
                        set.remove(&(a.rel, a.old.clone()));
                        set.insert((a.rel, a.new.clone()));
                    }
                }
            }
        }
    }

    /// Does the fully applied substitution leave a rigid CFD conflict on
    /// any carrier?
    fn conflicts(&self, applied: &[Applied]) -> bool {
        applied
            .iter()
            .any(|a| self.stream.cfd_conflicts(a.rel, &a.new, is_rigid))
    }

    /// The apply → check → retract-on-reject cycle: tries `var :=
    /// candidate`, keeping it (and returning `true`) iff no CFD premise
    /// immediately conflicts. On `true` the caller must mirror the
    /// substitution on its template ([`TemplateDb::substitute`]).
    pub fn try_instantiate(&mut self, var: VarRef, candidate: &Value) -> bool {
        let applied = self.apply(var, candidate);
        if self.conflicts(&applied) {
            self.retract(applied);
            return false;
        }
        self.commit(var, applied);
        true
    }

    /// Applies `var := value` unconditionally — the engine's fallback
    /// when every candidate conflicts (the following CFD fixpoint then
    /// reports the chase undefined, which is the correct signal).
    pub fn force_instantiate(&mut self, var: VarRef, value: &Value) {
        let applied = self.apply(var, value);
        self.commit(var, applied);
    }

    /// Checks a candidate without committing either way — the
    /// differential-testing entry point.
    pub fn would_conflict(&mut self, var: VarRef, candidate: &Value) -> bool {
        let applied = self.apply(var, candidate);
        let conflict = self.conflicts(&applied);
        self.retract(applied);
        conflict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::candidate_conflicts;
    use crate::template::TplTuple;
    use condep_core::fixtures::example_5_1_schema;
    use condep_model::prow;

    fn var(rel: u32, attr: u32, idx: u8) -> VarRef {
        VarRef {
            rel: RelId(rel),
            attr: AttrId(attr),
            idx,
        }
    }

    /// Deterministic xorshift so the differential sweep is reproducible.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_cell(state: &mut u64, rel: u32, attr: u32) -> TplValue {
        match next(state) % 5 {
            0 => TplValue::Var(var(rel, attr, 0)),
            1 => TplValue::Var(var(rel, attr, 1)),
            k => {
                let consts = ["a", "b", "c"];
                TplValue::Const(Value::str(consts[(k as usize - 2) % consts.len()]))
            }
        }
    }

    /// Random templates over the Example 5.1 schema, mixed CFD shapes:
    /// the incremental checker must agree with the quadratic reference
    /// on every (variable, candidate) decision.
    #[test]
    fn differential_against_candidate_conflicts() {
        let schema = example_5_1_schema(false);
        let cfds = vec![
            NormalCfd::parse(&schema, "r1", &["e"], prow![_], "f", PValue::Any).unwrap(),
            NormalCfd::parse(&schema, "r2", &["h"], prow![_], "g", PValue::constant("c")).unwrap(),
            NormalCfd::parse(
                &schema,
                "r1",
                &["e"],
                prow!["a"],
                "f",
                PValue::constant("b"),
            )
            .unwrap(),
            NormalCfd::parse(&schema, "r2", &["g"], prow![_], "h", PValue::Any).unwrap(),
        ];
        let candidates = [Value::str("a"), Value::str("b"), Value::str("c")];
        let mut state = 0x5eed_cafe_f00d_1234u64;
        let mut decisions = 0usize;
        for _case in 0..120 {
            let mut db = TemplateDb::empty(schema.clone());
            for rel in 0..2u32 {
                let n = 1 + next(&mut state) % 4;
                for _ in 0..n {
                    let cells = (0..2u32)
                        .map(|attr| random_cell(&mut state, rel, attr))
                        .collect();
                    db.insert(RelId(rel), TplTuple(cells));
                }
            }
            let vars = db.variables();
            if vars.is_empty() {
                continue;
            }
            let mut cv = ChaseValidator::new(&db, &cfds);
            for v in vars {
                for cand in &candidates {
                    let incremental = cv.would_conflict(v, cand);
                    let reference = candidate_conflicts(&db, &cfds, v, cand);
                    assert_eq!(
                        incremental, reference,
                        "case diverged on {v:?} := {cand:?} for template:\n{db}"
                    );
                    decisions += 1;
                }
            }
        }
        assert!(decisions > 300, "sweep too small: {decisions}");
    }

    /// Committed instantiations keep the checker usable for later
    /// variables, mirroring template substitution (including merges).
    #[test]
    fn commit_tracks_merges_and_remaining_variables() {
        let schema = example_5_1_schema(false);
        // (R1: E → F, (_ || _)): same E forces same F.
        let fd = NormalCfd::parse(&schema, "r1", &["e"], prow![_], "f", PValue::Any).unwrap();
        let r1 = schema.rel_id("r1").unwrap();
        let ve = var(0, 0, 0);
        let vf = var(0, 1, 0);
        let mut db = TemplateDb::empty(schema.clone());
        // (vE, a) and (b, a): instantiating vE := b merges the tuples.
        db.insert(
            r1,
            TplTuple(vec![TplValue::Var(ve), TplValue::Const(Value::str("a"))]),
        );
        db.insert(
            r1,
            TplTuple(vec![
                TplValue::Const(Value::str("b")),
                TplValue::Const(Value::str("a")),
            ]),
        );
        // (c, vF): a second group, F still open.
        db.insert(
            r1,
            TplTuple(vec![TplValue::Const(Value::str("c")), TplValue::Var(vf)]),
        );
        let mut cv = ChaseValidator::new(&db, &[fd]);
        assert!(cv.try_instantiate(ve, &Value::str("b")), "merge is clean");
        db.substitute(ve, &TplValue::Const(Value::str("b")));
        assert_eq!(db.relation(r1).len(), 2, "template merged");
        // The merged stream agrees: any candidate for vF is clean (its
        // group is a singleton).
        assert!(!cv.would_conflict(vf, &Value::str("a")));
        assert!(cv.try_instantiate(vf, &Value::str("c")));
        db.substitute(vf, &TplValue::Const(Value::str("c")));
        assert!(db.variables().is_empty());
    }

    /// A rejected candidate must leave no trace: the same query repeats
    /// identically and an alternative candidate still succeeds.
    #[test]
    fn retract_restores_the_stream() {
        let schema = example_5_1_schema(false);
        let pin =
            NormalCfd::parse(&schema, "r2", &["h"], prow![_], "g", PValue::constant("c")).unwrap();
        let r2 = schema.rel_id("r2").unwrap();
        let vg = var(1, 0, 0);
        let mut db = TemplateDb::empty(schema.clone());
        db.insert(
            r2,
            TplTuple(vec![TplValue::Var(vg), TplValue::Const(Value::str("k"))]),
        );
        let mut cv = ChaseValidator::new(&db, std::slice::from_ref(&pin));
        for _ in 0..3 {
            assert!(cv.would_conflict(vg, &Value::str("a")), "g must be c");
        }
        assert!(!cv.try_instantiate(vg, &Value::str("a")));
        assert!(cv.try_instantiate(vg, &Value::str("c")));
        db.substitute(vg, &TplValue::Const(Value::str("c")));
        assert!(!candidate_conflicts(&db, &[pin], vg, &Value::str("c")));
    }
}
