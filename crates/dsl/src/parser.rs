//! Recursive-descent parser: tokens → schema + dependencies.

use crate::lexer::{lex, Pos, Tok, Token};
use condep_cfd::Cfd;
use condep_core::Cind;
use condep_model::{Attribute, Domain, PValue, PatternRow, RelationSchema, Schema, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A parsed document: one schema plus named dependencies.
#[derive(Clone, Debug)]
pub struct Document {
    /// The schema assembled from the `relation` declarations.
    pub schema: Arc<Schema>,
    /// CFDs in declaration order, with their (possibly auto-generated)
    /// names.
    pub cfds: Vec<(String, Cfd)>,
    /// CINDs in declaration order, with their names.
    pub cinds: Vec<(String, Cind)>,
}

impl Document {
    /// Looks up a CFD by name.
    pub fn cfd(&self, name: &str) -> Option<&Cfd> {
        self.cfds.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Looks up a CIND by name.
    pub fn cind(&self, name: &str) -> Option<&Cind> {
        self.cinds.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }
}

/// A parse error with its position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Where the problem is.
    pub pos: Pos,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
}

type PResult<T> = Result<T, ParseError>;

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.at]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.at].clone();
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            message: message.into(),
            pos: self.peek().pos,
        })
    }

    fn expect(&mut self, tok: Tok) -> PResult<()> {
        if self.peek().tok == tok {
            self.next();
            Ok(())
        } else {
            self.err(format!("expected {tok}, found {}", self.peek().tok))
        }
    }

    fn ident(&mut self, what: &str) -> PResult<String> {
        match self.peek().tok.clone() {
            Tok::Ident(s) => {
                self.next();
                Ok(s)
            }
            other => self.err(format!("expected {what}, found {other}")),
        }
    }

    fn keyword(&mut self, kw: &str) -> PResult<()> {
        match self.peek().tok.clone() {
            Tok::Ident(s) if s == kw => {
                self.next();
                Ok(())
            }
            other => self.err(format!("expected `{kw}`, found {other}")),
        }
    }

    /// `literal := STRING | INT | true | false | IDENT(as string)`
    fn literal(&mut self) -> PResult<Value> {
        match self.peek().tok.clone() {
            Tok::Str(s) => {
                self.next();
                Ok(Value::str(s))
            }
            Tok::Int(i) => {
                self.next();
                Ok(Value::int(i))
            }
            Tok::Ident(s) if s == "true" => {
                self.next();
                Ok(Value::bool(true))
            }
            Tok::Ident(s) if s == "false" => {
                self.next();
                Ok(Value::bool(false))
            }
            Tok::Ident(s) => {
                self.next();
                Ok(Value::str(s))
            }
            other => self.err(format!("expected a literal, found {other}")),
        }
    }

    /// `domain := string | int | bool | '{' literal (',' literal)* '}'`
    fn domain(&mut self) -> PResult<Domain> {
        match self.peek().tok.clone() {
            Tok::Ident(s) if s == "string" => {
                self.next();
                Ok(Domain::string())
            }
            Tok::Ident(s) if s == "int" => {
                self.next();
                Ok(Domain::integer())
            }
            Tok::Ident(s) if s == "bool" => {
                self.next();
                Ok(Domain::boolean())
            }
            Tok::LBrace => {
                let pos = self.peek().pos;
                self.next();
                let mut values = vec![self.literal()?];
                while self.peek().tok == Tok::Comma {
                    self.next();
                    values.push(self.literal()?);
                }
                self.expect(Tok::RBrace)?;
                Domain::finite(values).map_err(|e| ParseError {
                    message: format!("invalid finite domain: {e}"),
                    pos,
                })
            }
            other => self.err(format!("expected a domain, found {other}")),
        }
    }

    /// `relation IDENT '(' attr (',' attr)* ')' ';'`
    fn relation(&mut self) -> PResult<RelationSchema> {
        self.keyword("relation")?;
        let pos = self.peek().pos;
        let name = self.ident("relation name")?;
        self.expect(Tok::LParen)?;
        let mut attrs = Vec::new();
        loop {
            let attr_name = self.ident("attribute name")?;
            self.expect(Tok::Colon)?;
            let dom = self.domain()?;
            attrs.push(Attribute::new(attr_name, dom));
            if self.peek().tok == Tok::Comma {
                self.next();
            } else {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::Semi)?;
        RelationSchema::new(name, attrs).map_err(|e| ParseError {
            message: e.to_string(),
            pos,
        })
    }

    /// Comma-separated attribute-name list; empty allowed.
    fn attr_names(&mut self) -> PResult<Vec<String>> {
        let mut out = Vec::new();
        while let Tok::Ident(s) = self.peek().tok.clone() {
            self.next();
            out.push(s);
            if self.peek().tok == Tok::Comma {
                self.next();
            } else {
                break;
            }
        }
        Ok(out)
    }

    /// `cell := '_' | literal`
    fn cell(&mut self) -> PResult<PValue> {
        if self.peek().tok == Tok::Underscore {
            self.next();
            Ok(PValue::Any)
        } else {
            Ok(PValue::Const(self.literal()?))
        }
    }

    /// `row := '(' cells '||' cells ')' ';'` — returns (lhs, rhs) cells.
    fn row(&mut self) -> PResult<(Vec<PValue>, Vec<PValue>)> {
        self.expect(Tok::LParen)?;
        let mut lhs = Vec::new();
        if self.peek().tok != Tok::Bars {
            lhs.push(self.cell()?);
            while self.peek().tok == Tok::Comma {
                self.next();
                lhs.push(self.cell()?);
            }
        }
        self.expect(Tok::Bars)?;
        let mut rhs = Vec::new();
        if self.peek().tok != Tok::RParen {
            rhs.push(self.cell()?);
            while self.peek().tok == Tok::Comma {
                self.next();
                rhs.push(self.cell()?);
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::Semi)?;
        Ok((lhs, rhs))
    }

    /// `cfd [IDENT ':'] IDENT '(' names '->' names ')' '{' row* '}'`
    fn cfd(&mut self, schema: &Schema, auto: usize) -> PResult<(String, Cfd)> {
        self.keyword("cfd")?;
        let mut name = format!("cfd{auto}");
        if let Tok::Ident(s) = self.peek().tok.clone() {
            // Lookahead: `IDENT :` is a name; `IDENT (` is the relation.
            if self.tokens[self.at + 1].tok == Tok::Colon {
                self.next();
                self.next();
                name = s;
            }
        }
        let pos = self.peek().pos;
        let rel_name = self.ident("relation name")?;
        self.expect(Tok::LParen)?;
        let lhs = self.attr_names()?;
        self.expect(Tok::Arrow)?;
        let rhs = self.attr_names()?;
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;
        let mut tableau = Vec::new();
        while self.peek().tok != Tok::RBrace {
            let row_pos = self.peek().pos;
            let (l, r) = self.row()?;
            if l.len() != lhs.len() || r.len() != rhs.len() {
                return Err(ParseError {
                    message: format!(
                        "row has {} || {} cells; the CFD needs {} || {}",
                        l.len(),
                        r.len(),
                        lhs.len(),
                        rhs.len()
                    ),
                    pos: row_pos,
                });
            }
            tableau.push(PatternRow::new(l.into_iter().chain(r)));
        }
        self.expect(Tok::RBrace)?;
        let lhs_refs: Vec<&str> = lhs.iter().map(String::as_str).collect();
        let rhs_refs: Vec<&str> = rhs.iter().map(String::as_str).collect();
        let cfd = Cfd::parse(schema, &rel_name, &lhs_refs, &rhs_refs, tableau).map_err(|e| {
            ParseError {
                message: e.to_string(),
                pos,
            }
        })?;
        Ok((name, cfd))
    }

    /// `cind [IDENT ':'] IDENT '[' names ';' names ']' subset
    ///       IDENT '[' names ';' names ']' '{' row* '}'`
    fn cind(&mut self, schema: &Schema, auto: usize) -> PResult<(String, Cind)> {
        self.keyword("cind")?;
        let mut name = format!("cind{auto}");
        if let Tok::Ident(s) = self.peek().tok.clone() {
            if self.tokens[self.at + 1].tok == Tok::Colon {
                self.next();
                self.next();
                name = s;
            }
        }
        let pos = self.peek().pos;
        let lhs_rel = self.ident("source relation")?;
        self.expect(Tok::LBracket)?;
        let x = self.attr_names()?;
        self.expect(Tok::Semi)?;
        let xp = self.attr_names()?;
        self.expect(Tok::RBracket)?;
        self.keyword("subset")?;
        let rhs_rel = self.ident("target relation")?;
        self.expect(Tok::LBracket)?;
        let y = self.attr_names()?;
        self.expect(Tok::Semi)?;
        let yp = self.attr_names()?;
        self.expect(Tok::RBracket)?;
        fn as_refs(v: &[String]) -> Vec<&str> {
            v.iter().map(String::as_str).collect()
        }
        let build = |tableau| {
            Cind::parse(
                schema,
                &lhs_rel,
                &as_refs(&x),
                &as_refs(&xp),
                &rhs_rel,
                &as_refs(&y),
                &as_refs(&yp),
                tableau,
            )
            .map_err(|e| ParseError {
                message: e.to_string(),
                pos,
            })
        };
        // Check the attribute lists (names, |X| = |Y|, disjointness)
        // before reading rows: the per-row checks below assume them.
        build(Vec::new())?;
        self.expect(Tok::LBrace)?;
        let lhs_width = x.len() + xp.len();
        let rhs_width = y.len() + yp.len();
        let mut tableau = Vec::new();
        while self.peek().tok != Tok::RBrace {
            let row_pos = self.peek().pos;
            let (l, r) = self.row()?;
            if l.len() != lhs_width || r.len() != rhs_width {
                return Err(ParseError {
                    message: format!(
                        "row has {} || {} cells; the CIND needs {} || {}",
                        l.len(),
                        r.len(),
                        lhs_width,
                        rhs_width
                    ),
                    pos: row_pos,
                });
            }
            // Section 2's well-formedness condition, checked here for a
            // positioned diagnostic instead of a downstream panic.
            for i in 0..x.len() {
                if l[i] != r[i] {
                    return Err(ParseError {
                        message: format!(
                            "pattern rows must satisfy tp[X] = tp[Y]: \
                             cell {} is {:?} on the left but {:?} on the right",
                            i + 1,
                            l[i],
                            r[i]
                        ),
                        pos: row_pos,
                    });
                }
            }
            tableau.push(PatternRow::new(l.into_iter().chain(r)));
        }
        self.expect(Tok::RBrace)?;
        Ok((name, build(tableau)?))
    }
}

/// Parses a whole document: `relation` declarations first (in any
/// order), then `cfd`/`cind` declarations referencing them.
pub fn parse_document(src: &str) -> Result<Document, ParseError> {
    let tokens = lex(src).map_err(|e| ParseError {
        message: e.message,
        pos: e.pos,
    })?;
    let mut p = Parser { tokens, at: 0 };

    // Pass 1: collect items, building the schema from the relations.
    let mut relations = Vec::new();
    let mut pending: Vec<(usize, &'static str)> = Vec::new(); // (token idx, kind)
    loop {
        match p.peek().tok.clone() {
            Tok::Eof => break,
            Tok::Ident(s) if s == "relation" => {
                relations.push(p.relation()?);
            }
            Tok::Ident(s) if s == "cfd" || s == "cind" => {
                // Remember the position; skip to the closing brace.
                pending.push((p.at, if s == "cfd" { "cfd" } else { "cind" }));
                // Skip tokens until the matching `}` (single level —
                // dependency bodies contain no nested braces).
                while !matches!(p.peek().tok, Tok::RBrace | Tok::Eof) {
                    p.next();
                }
                p.expect(Tok::RBrace)?;
            }
            other => {
                return p.err(format!(
                    "expected `relation`, `cfd` or `cind`, found {other}"
                ))
            }
        }
    }
    let schema = Arc::new(Schema::new(relations).map_err(|e| ParseError {
        message: e.to_string(),
        pos: Pos { line: 1, col: 1 },
    })?);

    // Pass 2: parse the dependencies against the completed schema.
    let mut cfds = Vec::new();
    let mut cinds = Vec::new();
    let mut names: BTreeMap<String, Pos> = BTreeMap::new();
    for (at, kind) in pending {
        p.at = at;
        let pos = p.peek().pos;
        let name = if kind == "cfd" {
            let (name, cfd) = p.cfd(&schema, cfds.len())?;
            cfds.push((name.clone(), cfd));
            name
        } else {
            let (name, cind) = p.cind(&schema, cinds.len())?;
            cinds.push((name.clone(), cind));
            name
        };
        if names.insert(name.clone(), pos).is_some() {
            return Err(ParseError {
                message: format!("duplicate dependency name `{name}`"),
                pos,
            });
        }
    }
    Ok(Document {
        schema,
        cfds,
        cinds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_model::fixtures::{bank_database, clean_bank_database};

    const BANK: &str = r#"
        // Figure 1 target schema.
        relation checking(an: string, cn: string, ca: string,
                          cp: string, ab: string);
        relation interest(ab: string, ct: string,
                          at: {checking, saving}, rt: string);

        // ϕ3's refined rows (Figure 4, interest part only).
        cfd phi3: interest(ct, at -> rt) {
            (_, _ || _);
            (UK, checking || "1.5%");
        }

        // ψ6 of Figure 2.
        cind psi6: checking[; ab] subset interest[; ab, at, ct, rt] {
            (EDI || EDI, checking, UK, "1.5%");
            (NYC || NYC, checking, US, "1%");
        }
    "#;

    #[test]
    fn parses_the_bank_fragment() {
        let doc = parse_document(BANK).unwrap();
        assert_eq!(doc.schema.len(), 2);
        assert_eq!(doc.cfds.len(), 1);
        assert_eq!(doc.cinds.len(), 1);
        let phi3 = doc.cfd("phi3").unwrap();
        assert_eq!(phi3.tableau().len(), 2);
        let psi6 = doc.cind("psi6").unwrap();
        assert_eq!(psi6.tableau().len(), 2);
        assert!(psi6.x().is_empty());
        assert_eq!(psi6.yp().len(), 4);
    }

    #[test]
    fn parsed_psi6_agrees_with_the_fixture_semantics() {
        // The parsed ψ6 must behave exactly like the hand-built fixture:
        // violated by Fig 1's dirty instance, satisfied by the clean one.
        let doc = parse_document(BANK).unwrap();
        let psi6 = doc.cind("psi6").unwrap();
        // Re-target onto the bank fixture schema via names.
        let fix_schema = condep_model::fixtures::bank_schema();
        let rebuilt = Cind::parse(
            &fix_schema,
            "checking",
            &[],
            &["ab"],
            "interest",
            &[],
            &["ab", "at", "ct", "rt"],
            psi6.tableau().to_vec(),
        )
        .unwrap();
        assert!(!condep_core::satisfy::satisfies(&bank_database(), &rebuilt));
        assert!(condep_core::satisfy::satisfies(
            &clean_bank_database(),
            &rebuilt
        ));
    }

    #[test]
    fn finite_domains_parse() {
        let doc = parse_document("relation r(a: {1, 2, 3}, b: bool, c: {x, y}, d: int);").unwrap();
        let rel = doc.schema.rel_id("r").unwrap();
        let rs = doc.schema.relation(rel).unwrap();
        assert_eq!(
            rs.attribute(condep_model::AttrId(0))
                .unwrap()
                .domain()
                .size(),
            Some(3)
        );
        assert!(rs.attribute(condep_model::AttrId(1)).unwrap().is_finite());
        assert_eq!(
            rs.attribute(condep_model::AttrId(2))
                .unwrap()
                .domain()
                .size(),
            Some(2)
        );
        assert!(!rs.attribute(condep_model::AttrId(3)).unwrap().is_finite());
    }

    #[test]
    fn anonymous_dependencies_get_numbered_names() {
        let doc = parse_document(
            "relation r(a: string, b: string);\n\
             cfd r(a -> b) { (_ || _); }\n\
             cind r[a;] subset r[b;] { (_ || _); }",
        )
        .unwrap();
        assert!(doc.cfd("cfd0").is_some());
        assert!(doc.cind("cind0").is_some());
    }

    #[test]
    fn errors_carry_positions() {
        // Unknown relation.
        let err = parse_document("cfd nope(a -> b) { (_ || _); }").unwrap_err();
        assert!(err.message.contains("nope"));
        // Wrong row width.
        let err = parse_document(
            "relation r(a: string, b: string);\n\
             cfd r(a -> b) { (_, _ || _); }",
        )
        .unwrap_err();
        assert_eq!(err.pos.line, 2);
        assert!(err.message.contains("cells"));
        // Duplicate names.
        let err = parse_document(
            "relation r(a: string, b: string);\n\
             cfd n: r(a -> b) { (_ || _); }\n\
             cfd n: r(a -> b) { (_ || _); }",
        )
        .unwrap_err();
        assert!(err.message.contains("duplicate"));
        // tp[X] != tp[Y] in a CIND is caught, not a crash.
        let err = parse_document(
            "relation r(a: string, b: string);\n\
             cind r[a;] subset r[b;] { (x || y); }",
        )
        .unwrap_err();
        assert!(err.message.contains("tp[X]"));
        // An attribute in both X and Xp, and |X| != |Y|: positioned
        // errors from the CIND constructor, not panics.
        let err = parse_document(
            "relation r(a: string, b: string);\n\
             cind r[a; a] subset r[b;] { (_, x || _); }",
        )
        .unwrap_err();
        assert!(err.message.contains("disjoint"), "{err}");
        assert_eq!((err.pos.line, err.pos.col), (2, 6));
        let err = parse_document(
            "relation r(a: string, b: string);\n\
             cind r[a, b;] subset r[b;] { (_, _ || _); }",
        )
        .unwrap_err();
        assert!(err.message.contains("|X| must equal |Y|"), "{err}");
        assert_eq!((err.pos.line, err.pos.col), (2, 6));
    }

    #[test]
    fn unknown_attribute_is_positioned() {
        let err = parse_document(
            "relation r(a: string);\n\
             cfd r(zzz -> a) { (_ || _); }",
        )
        .unwrap_err();
        assert!(err.message.contains("zzz"));
        assert_eq!(err.pos.line, 2);
    }
}
