//! Error type shared by the model layer.

use std::fmt;

/// Errors raised while constructing schemas, tuples, or databases.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ModelError {
    /// A finite domain was declared with no values.
    EmptyDomain,
    /// A finite domain mixed values of different base types.
    MixedDomain,
    /// Two relations (or two attributes of one relation) share a name.
    DuplicateName(String),
    /// Lookup of an unknown relation name.
    UnknownRelation(String),
    /// Lookup of an unknown attribute name within a relation.
    UnknownAttribute {
        /// The relation that was searched.
        relation: String,
        /// The attribute that was not found.
        attribute: String,
    },
    /// A tuple's width does not match its relation schema's arity.
    ArityMismatch {
        /// The relation being inserted into.
        relation: String,
        /// The declared arity.
        expected: usize,
        /// The tuple's width.
        actual: usize,
    },
    /// A tuple field lies outside its attribute's domain.
    DomainViolation {
        /// The relation being inserted into.
        relation: String,
        /// The offending attribute.
        attribute: String,
        /// Rendered offending value.
        value: String,
    },
    /// An attribute id is out of range for the relation it is used with.
    AttrOutOfRange {
        /// The relation the id was resolved against.
        relation: String,
        /// The offending index.
        index: usize,
    },
    /// A relation id is out of range for the schema.
    RelOutOfRange(usize),
    /// A CIND violates a well-formedness condition of Section 2
    /// (`|X| = |Y|`, disjoint `X`/`Xp` and `Y`/`Yp`, row width,
    /// `tp[X] = tp[Y]`).
    MalformedCind(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyDomain => write!(f, "finite domain must be non-empty"),
            ModelError::MixedDomain => {
                write!(f, "finite domain must not mix base types")
            }
            ModelError::DuplicateName(n) => write!(f, "duplicate name `{n}`"),
            ModelError::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            ModelError::UnknownAttribute {
                relation,
                attribute,
            } => write!(f, "unknown attribute `{attribute}` in relation `{relation}`"),
            ModelError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch inserting into `{relation}`: expected {expected} fields, got {actual}"
            ),
            ModelError::DomainViolation {
                relation,
                attribute,
                value,
            } => write!(
                f,
                "value `{value}` outside the domain of `{relation}.{attribute}`"
            ),
            ModelError::AttrOutOfRange { relation, index } => {
                write!(f, "attribute index {index} out of range for `{relation}`")
            }
            ModelError::RelOutOfRange(i) => {
                write!(f, "relation index {i} out of range for schema")
            }
            ModelError::MalformedCind(why) => write!(f, "malformed CIND: {why}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ModelError::ArityMismatch {
            relation: "saving".into(),
            expected: 5,
            actual: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("saving"));
        assert!(msg.contains('5'));
        assert!(msg.contains('4'));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(ModelError::EmptyDomain, ModelError::EmptyDomain);
        assert_ne!(
            ModelError::EmptyDomain,
            ModelError::UnknownRelation("r".into())
        );
    }
}
