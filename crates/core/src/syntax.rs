//! CIND syntax.
//!
//! Section 2 of the paper: a CIND is a pair
//! `ψ = (R1[X; Xp] ⊆ R2[Y; Yp], Tp)` where
//!
//! * `X, Xp` are disjoint attribute lists of `R1`, and `Y, Yp` disjoint
//!   attribute lists of `R2`, with `|X| = |Y|`;
//! * `R1[X] ⊆ R2[Y]` is the *embedded IND*;
//! * `Tp` is a pattern tableau over `X, Xp, Y, Yp` whose rows satisfy
//!   `tp[X] = tp[Y]` cell-for-cell.
//!
//! `LHS(ψ) = X ∪ Xp`, `RHS(ψ) = Y ∪ Yp`; the paper separates the two
//! parts of a pattern tuple with `‖`, which the `Display` impls mirror.

use condep_model::{AttrId, ModelError, PValue, PatternRow, RelId, RelationSchema, Schema, Value};
use std::fmt;

fn malformed(why: &str) -> ModelError {
    ModelError::MalformedCind(why.to_string())
}

/// The attribute-list conditions every CIND form shares: `|X| = |Y|`,
/// and no attribute of `X` (`Y`) also in `Xp` (`Yp`).
fn check_lists(
    x: &[AttrId],
    y: &[AttrId],
    in_xp: impl Fn(&AttrId) -> bool,
    in_yp: impl Fn(&AttrId) -> bool,
) -> condep_model::Result<()> {
    if x.len() != y.len() {
        return Err(malformed("|X| must equal |Y|"));
    }
    if x.iter().any(in_xp) {
        return Err(malformed("X and Xp must be disjoint"));
    }
    if y.iter().any(in_yp) {
        return Err(malformed("Y and Yp must be disjoint"));
    }
    Ok(())
}

/// A conditional inclusion dependency in general form (possibly many
/// pattern rows).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cind {
    lhs_rel: RelId,
    rhs_rel: RelId,
    x: Vec<AttrId>,
    xp: Vec<AttrId>,
    y: Vec<AttrId>,
    yp: Vec<AttrId>,
    /// Rows over `X ++ Xp ++ Y ++ Yp`.
    tableau: Vec<PatternRow>,
}

impl Cind {
    /// Creates a CIND, checking the well-formedness conditions of
    /// Section 2 (disjointness, matched arity, row width, `tp[X] = tp[Y]`).
    ///
    /// # Panics
    ///
    /// On a malformed CIND; [`Cind::parse`] reports the same checks as
    /// an error instead.
    pub fn new(
        lhs_rel: RelId,
        rhs_rel: RelId,
        x: Vec<AttrId>,
        xp: Vec<AttrId>,
        y: Vec<AttrId>,
        yp: Vec<AttrId>,
        tableau: Vec<PatternRow>,
    ) -> Self {
        Cind::checked(lhs_rel, rhs_rel, x, xp, y, yp, tableau).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Cind::new`]'s checks, as a `Result`.
    fn checked(
        lhs_rel: RelId,
        rhs_rel: RelId,
        x: Vec<AttrId>,
        xp: Vec<AttrId>,
        y: Vec<AttrId>,
        yp: Vec<AttrId>,
        tableau: Vec<PatternRow>,
    ) -> condep_model::Result<Self> {
        check_lists(&x, &y, |a| xp.contains(a), |a| yp.contains(a))?;
        let width = x.len() + xp.len() + y.len() + yp.len();
        for row in &tableau {
            if row.len() != width {
                return Err(malformed("tableau row width must be |X|+|Xp|+|Y|+|Yp|"));
            }
            if (0..x.len()).any(|i| row.cell(i) != row.cell(x.len() + xp.len() + i)) {
                return Err(malformed("pattern rows must satisfy tp[X] = tp[Y]"));
            }
        }
        Ok(Cind {
            lhs_rel,
            rhs_rel,
            x,
            xp,
            y,
            yp,
            tableau,
        })
    }

    /// The traditional IND `R1[X] ⊆ R2[Y]` as a CIND: empty `Xp`/`Yp` and
    /// a single all-wildcard row (like ψ3/ψ4 in Figure 2).
    pub fn traditional(lhs_rel: RelId, rhs_rel: RelId, x: Vec<AttrId>, y: Vec<AttrId>) -> Self {
        let row = PatternRow::all_any(x.len() + y.len());
        Cind::new(lhs_rel, rhs_rel, x, Vec::new(), y, Vec::new(), vec![row])
    }

    /// Name-resolving constructor used by fixtures and examples.
    #[allow(clippy::too_many_arguments)]
    pub fn parse(
        schema: &Schema,
        lhs_rel: &str,
        x: &[&str],
        xp: &[&str],
        rhs_rel: &str,
        y: &[&str],
        yp: &[&str],
        tableau: Vec<PatternRow>,
    ) -> condep_model::Result<Self> {
        let l = schema.rel_id(lhs_rel)?;
        let r = schema.rel_id(rhs_rel)?;
        let ls = schema.relation(l)?;
        let rs = schema.relation(r)?;
        Cind::checked(
            l,
            r,
            ls.attr_ids(x)?,
            ls.attr_ids(xp)?,
            rs.attr_ids(y)?,
            rs.attr_ids(yp)?,
            tableau,
        )
    }

    /// The source relation `R1`.
    pub fn lhs_rel(&self) -> RelId {
        self.lhs_rel
    }

    /// The target relation `R2`.
    pub fn rhs_rel(&self) -> RelId {
        self.rhs_rel
    }

    /// The matched source attributes `X`.
    pub fn x(&self) -> &[AttrId] {
        &self.x
    }

    /// The source pattern attributes `Xp`.
    pub fn xp(&self) -> &[AttrId] {
        &self.xp
    }

    /// The matched target attributes `Y`.
    pub fn y(&self) -> &[AttrId] {
        &self.y
    }

    /// The target pattern attributes `Yp`.
    pub fn yp(&self) -> &[AttrId] {
        &self.yp
    }

    /// The pattern tableau `Tp`.
    pub fn tableau(&self) -> &[PatternRow] {
        &self.tableau
    }

    /// Splits a row into its `(tp[X], tp[Xp], tp[Y], tp[Yp])` parts.
    pub fn split_row<'a>(
        &self,
        row: &'a PatternRow,
    ) -> (&'a [PValue], &'a [PValue], &'a [PValue], &'a [PValue]) {
        let cells = row.cells();
        let (x, rest) = cells.split_at(self.x.len());
        let (xp, rest) = rest.split_at(self.xp.len());
        let (y, yp) = rest.split_at(self.y.len());
        (x, xp, y, yp)
    }

    /// Is this syntactically a traditional IND?
    pub fn is_traditional(&self) -> bool {
        self.xp.is_empty()
            && self.yp.is_empty()
            && self.tableau.len() == 1
            && self.tableau[0].is_all_any()
    }

    /// Renders the CIND with names resolved against `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        CindDisplay { cind: self, schema }
    }
}

fn names(rs: &RelationSchema, attrs: &[AttrId]) -> String {
    if attrs.is_empty() {
        return "nil".to_string();
    }
    attrs
        .iter()
        .map(|a| {
            rs.attribute(*a)
                .map(|at| at.name().to_string())
                .unwrap_or_else(|_| a.to_string())
        })
        .collect::<Vec<_>>()
        .join(", ")
}

struct CindDisplay<'a> {
    cind: &'a Cind,
    schema: &'a Schema,
}

impl fmt::Display for CindDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (Ok(ls), Ok(rs)) = (
            self.schema.relation(self.cind.lhs_rel),
            self.schema.relation(self.cind.rhs_rel),
        ) else {
            return write!(f, "<invalid CIND>");
        };
        write!(
            f,
            "({}[{}; {}] ⊆ {}[{}; {}], {{",
            ls.name(),
            names(ls, &self.cind.x),
            names(ls, &self.cind.xp),
            rs.name(),
            names(rs, &self.cind.y),
            names(rs, &self.cind.yp),
        )?;
        for (i, row) in self.cind.tableau.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let (x, xp, y, yp) = self.cind.split_row(row);
            let part = |cells: &[PValue]| {
                cells
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            write!(
                f,
                "({}; {} || {}; {})",
                part(x),
                part(xp),
                part(y),
                part(yp)
            )?;
        }
        write!(f, "}})")
    }
}

/// A CIND in **normal form** (Section 3): a single pattern tuple `tp`
/// where `tp[A]` is a constant *iff* `A ∈ Xp ∪ Yp`. Wildcards on `X`/`Y`
/// are implicit; the pattern parts carry their constants inline.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct NormalCind {
    lhs_rel: RelId,
    rhs_rel: RelId,
    x: Vec<AttrId>,
    y: Vec<AttrId>,
    xp: Vec<(AttrId, Value)>,
    yp: Vec<(AttrId, Value)>,
}

impl NormalCind {
    /// Creates a normal-form CIND.
    ///
    /// # Panics
    ///
    /// When `|X| ≠ |Y|` or `X`/`Xp` or `Y`/`Yp` overlap;
    /// [`NormalCind::parse`] reports the same checks as an error instead.
    pub fn new(
        lhs_rel: RelId,
        rhs_rel: RelId,
        x: Vec<AttrId>,
        y: Vec<AttrId>,
        xp: Vec<(AttrId, Value)>,
        yp: Vec<(AttrId, Value)>,
    ) -> Self {
        NormalCind::checked(lhs_rel, rhs_rel, x, y, xp, yp).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`NormalCind::new`]'s checks, as a `Result`.
    fn checked(
        lhs_rel: RelId,
        rhs_rel: RelId,
        x: Vec<AttrId>,
        y: Vec<AttrId>,
        xp: Vec<(AttrId, Value)>,
        yp: Vec<(AttrId, Value)>,
    ) -> condep_model::Result<Self> {
        check_lists(
            &x,
            &y,
            |a| xp.iter().any(|(b, _)| b == a),
            |a| yp.iter().any(|(b, _)| b == a),
        )?;
        Ok(NormalCind {
            lhs_rel,
            rhs_rel,
            x,
            y,
            xp,
            yp,
        })
    }

    /// Name-resolving constructor.
    pub fn parse(
        schema: &Schema,
        lhs_rel: &str,
        x: &[&str],
        xp: &[(&str, Value)],
        rhs_rel: &str,
        y: &[&str],
        yp: &[(&str, Value)],
    ) -> condep_model::Result<Self> {
        let l = schema.rel_id(lhs_rel)?;
        let r = schema.rel_id(rhs_rel)?;
        let ls = schema.relation(l)?;
        let rs = schema.relation(r)?;
        let xp = xp
            .iter()
            .map(|(n, v)| Ok((ls.attr_id(n)?, v.clone())))
            .collect::<condep_model::Result<Vec<_>>>()?;
        let yp = yp
            .iter()
            .map(|(n, v)| Ok((rs.attr_id(n)?, v.clone())))
            .collect::<condep_model::Result<Vec<_>>>()?;
        NormalCind::checked(l, r, ls.attr_ids(x)?, rs.attr_ids(y)?, xp, yp)
    }

    /// The source relation `R1`.
    pub fn lhs_rel(&self) -> RelId {
        self.lhs_rel
    }

    /// The target relation `R2`.
    pub fn rhs_rel(&self) -> RelId {
        self.rhs_rel
    }

    /// The matched source attributes `X`.
    pub fn x(&self) -> &[AttrId] {
        &self.x
    }

    /// The matched target attributes `Y`.
    pub fn y(&self) -> &[AttrId] {
        &self.y
    }

    /// The LHS pattern constants `(A, tp[A])` for `A ∈ Xp`.
    pub fn xp(&self) -> &[(AttrId, Value)] {
        &self.xp
    }

    /// The RHS pattern constants `(B, tp[B])` for `B ∈ Yp`.
    pub fn yp(&self) -> &[(AttrId, Value)] {
        &self.yp
    }

    /// Does `t` (a tuple of `R1`) trigger this CIND, i.e. match `tp[Xp]`?
    pub fn triggers(&self, t: &condep_model::Tuple) -> bool {
        self.xp.iter().all(|(a, v)| &t[*a] == v)
    }

    /// Is the CIND **trivially** satisfied by every instance?
    ///
    /// That is the case when source and target are the same relation,
    /// the matched lists are attribute-for-attribute identical, and
    /// every RHS condition `(B, b) ∈ Yp` is also demanded by `Xp` — a
    /// triggered tuple then partners with itself. Discovery uses this to
    /// drop vacuous `R[X; Xp] ⊆ R[X; Yp ⊆ Xp]` candidates before
    /// ranking.
    pub fn is_trivial(&self) -> bool {
        self.lhs_rel == self.rhs_rel
            && self.x == self.y
            && self.yp.iter().all(|pair| self.xp.contains(pair))
    }

    /// Does `t` (a tuple of `R2`) match the RHS pattern `tp[Yp]`?
    pub fn rhs_matches(&self, t: &condep_model::Tuple) -> bool {
        self.yp.iter().all(|(a, v)| &t[*a] == v)
    }

    /// All constants of the pattern tuple, tagged with the relation they
    /// constrain.
    pub fn constants(&self) -> impl Iterator<Item = (RelId, AttrId, &Value)> {
        self.xp
            .iter()
            .map(move |(a, v)| (self.lhs_rel, *a, v))
            .chain(self.yp.iter().map(move |(a, v)| (self.rhs_rel, *a, v)))
    }

    /// Converts back to the general form (single-row tableau) — handy for
    /// display and for round-trip testing of normalization.
    pub fn to_general(&self) -> Cind {
        let mut cells: Vec<PValue> = Vec::new();
        cells.extend(self.x.iter().map(|_| PValue::Any));
        cells.extend(self.xp.iter().map(|(_, v)| PValue::Const(v.clone())));
        cells.extend(self.y.iter().map(|_| PValue::Any));
        cells.extend(self.yp.iter().map(|(_, v)| PValue::Const(v.clone())));
        Cind::new(
            self.lhs_rel,
            self.rhs_rel,
            self.x.clone(),
            self.xp.iter().map(|(a, _)| *a).collect(),
            self.y.clone(),
            self.yp.iter().map(|(a, _)| *a).collect(),
            vec![PatternRow::new(cells)],
        )
    }

    /// Renders with names resolved against `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        NormalCindDisplay { cind: self, schema }
    }
}

struct NormalCindDisplay<'a> {
    cind: &'a NormalCind,
    schema: &'a Schema,
}

impl fmt::Display for NormalCindDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (Ok(ls), Ok(rs)) = (
            self.schema.relation(self.cind.lhs_rel),
            self.schema.relation(self.cind.rhs_rel),
        ) else {
            return write!(f, "<invalid CIND>");
        };
        let consts = |rel: &RelationSchema, pairs: &[(AttrId, Value)]| {
            if pairs.is_empty() {
                return "nil".to_string();
            }
            pairs
                .iter()
                .map(|(a, v)| {
                    let n = rel
                        .attribute(*a)
                        .map(|at| at.name().to_string())
                        .unwrap_or_else(|_| a.to_string());
                    format!("{n}={v}")
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        write!(
            f,
            "({}[{}; {}] ⊆ {}[{}; {}])",
            ls.name(),
            names(ls, &self.cind.x),
            consts(ls, &self.cind.xp),
            rs.name(),
            names(rs, &self.cind.y),
            consts(rs, &self.cind.yp),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_model::fixtures::bank_schema;
    use condep_model::prow;

    #[test]
    fn psi1_shape() {
        // ψ1 = (account_edi[an,cn,ca,cp; at] ⊆ saving[an,cn,ca,cp; ab], T1)
        let schema = bank_schema();
        let psi1 = Cind::parse(
            &schema,
            "account_edi",
            &["an", "cn", "ca", "cp"],
            &["at"],
            "saving",
            &["an", "cn", "ca", "cp"],
            &["ab"],
            vec![prow![_, _, _, _, "saving", _, _, _, _, "EDI"]],
        )
        .unwrap();
        assert_eq!(psi1.x().len(), 4);
        assert_eq!(psi1.xp().len(), 1);
        assert_eq!(psi1.yp().len(), 1);
        assert!(!psi1.is_traditional());
        let shown = psi1.display(&schema).to_string();
        assert!(shown.contains("account_edi"));
        assert!(shown.contains("⊆ saving"));
    }

    #[test]
    fn traditional_ind_constructor() {
        // ψ3 = (saving[ab; nil] ⊆ interest[ab; nil], { (_ || _) }).
        let schema = bank_schema();
        let saving = schema.rel_id("saving").unwrap();
        let interest = schema.rel_id("interest").unwrap();
        let ab_s = schema.relation(saving).unwrap().attr_id("ab").unwrap();
        let ab_i = schema.relation(interest).unwrap().attr_id("ab").unwrap();
        let psi3 = Cind::traditional(saving, interest, vec![ab_s], vec![ab_i]);
        assert!(psi3.is_traditional());
        let shown = psi3.display(&schema).to_string();
        assert!(shown.contains("nil"));
    }

    #[test]
    #[should_panic(expected = "tp[X] = tp[Y]")]
    fn mismatched_x_y_patterns_rejected() {
        let schema = bank_schema();
        Cind::parse(
            &schema,
            "saving",
            &["ab"],
            &[],
            "interest",
            &["ab"],
            &[],
            vec![prow!["EDI", "NYC"]],
        )
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_x_xp_rejected() {
        let schema = bank_schema();
        Cind::parse(
            &schema,
            "saving",
            &["ab"],
            &["ab"],
            "interest",
            &["ab"],
            &[],
            vec![prow![_, _, _]],
        )
        .unwrap();
    }

    #[test]
    fn normal_cind_trigger_and_rhs_match() {
        use condep_model::tuple;
        let schema = bank_schema();
        let n = NormalCind::parse(
            &schema,
            "checking",
            &[],
            &[("ab", Value::str("EDI"))],
            "interest",
            &[],
            &[
                ("ab", Value::str("EDI")),
                ("at", Value::str("checking")),
                ("ct", Value::str("UK")),
                ("rt", Value::str("1.5%")),
            ],
        )
        .unwrap();
        let t10 = tuple!["02", "I. Stark", "EDI, EH1 4FE", "131-6693423", "EDI"];
        assert!(n.triggers(&t10));
        let t_nyc = tuple!["02", "G. King", "NYC, 19022", "212-3963455", "NYC"];
        assert!(!n.triggers(&t_nyc));
        let good = tuple!["EDI", "UK", "checking", "1.5%"];
        let bad = tuple!["EDI", "UK", "checking", "10.5%"];
        assert!(n.rhs_matches(&good));
        assert!(!n.rhs_matches(&bad));
    }

    #[test]
    fn to_general_round_trip_shape() {
        let schema = bank_schema();
        let n = NormalCind::parse(
            &schema,
            "account_edi",
            &["an", "cn", "ca", "cp"],
            &[("at", Value::str("saving"))],
            "saving",
            &["an", "cn", "ca", "cp"],
            &[("ab", Value::str("EDI"))],
        )
        .unwrap();
        let g = n.to_general();
        assert_eq!(g.x(), n.x());
        assert_eq!(g.tableau().len(), 1);
        // The row is wildcards on X/Y, constants on Xp/Yp.
        let (x, xp, y, yp) = g.split_row(&g.tableau()[0]);
        assert!(x.iter().all(|c| matches!(c, PValue::Any)));
        assert!(y.iter().all(|c| matches!(c, PValue::Any)));
        assert!(xp.iter().all(PValue::is_const));
        assert!(yp.iter().all(PValue::is_const));
    }

    #[test]
    fn constants_iterator_tags_relations() {
        let schema = bank_schema();
        let n = NormalCind::parse(
            &schema,
            "saving",
            &[],
            &[("ab", Value::str("EDI"))],
            "interest",
            &[],
            &[("ab", Value::str("EDI")), ("ct", Value::str("UK"))],
        )
        .unwrap();
        let cs: Vec<_> = n.constants().collect();
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[0].0, schema.rel_id("saving").unwrap());
        assert_eq!(cs[1].0, schema.rel_id("interest").unwrap());
    }

    #[test]
    fn display_normal_form() {
        let schema = bank_schema();
        let n =
            NormalCind::parse(&schema, "saving", &["ab"], &[], "interest", &["ab"], &[]).unwrap();
        let s = n.display(&schema).to_string();
        assert!(s.contains("saving[ab; nil]"));
        assert!(s.contains("interest[ab; nil]"));
    }
}
