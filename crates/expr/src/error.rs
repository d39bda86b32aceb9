//! Error types for type checking and evaluation.

use std::fmt;

use crate::types::Type;

/// An error found while type checking an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// Two subterms were expected to share a type but do not.
    Mismatch {
        /// What was being checked.
        context: &'static str,
        /// The expected type.
        expected: Type,
        /// The type actually found.
        found: Type,
    },
    /// An operand had a type the operator does not support.
    Unsupported {
        /// What was being checked.
        context: &'static str,
        /// The offending type.
        found: Type,
    },
    /// A record has no field with the given name.
    NoSuchField {
        /// The record type's name.
        record: String,
        /// The missing field.
        field: String,
    },
    /// A set universe has no tag with the given name.
    NoSuchTag {
        /// The set type's name.
        set: String,
        /// The missing tag.
        tag: String,
    },
    /// The same variable name was used at two different types.
    InconsistentVar {
        /// The variable name.
        name: String,
        /// The type at first occurrence.
        first: Type,
        /// The conflicting type.
        second: Type,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Mismatch { context, expected, found } => {
                write!(f, "type mismatch in {context}: expected {expected}, found {found}")
            }
            TypeError::Unsupported { context, found } => {
                write!(f, "unsupported operand type in {context}: {found}")
            }
            TypeError::NoSuchField { record, field } => {
                write!(f, "record {record} has no field {field:?}")
            }
            TypeError::NoSuchTag { set, tag } => {
                write!(f, "set {set} has no tag {tag:?}")
            }
            TypeError::InconsistentVar { name, first, second } => {
                write!(f, "variable {name:?} used at both {first} and {second}")
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// An error raised while evaluating an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A free variable had no binding in the environment.
    UnboundVar(String),
    /// The term was ill-typed (evaluation found a shape it cannot handle).
    IllTyped(TypeError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVar(name) => write!(f, "unbound variable {name:?}"),
            EvalError::IllTyped(e) => write!(f, "ill-typed term: {e}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::IllTyped(e) => Some(e),
            EvalError::UnboundVar(_) => None,
        }
    }
}

impl From<TypeError> for EvalError {
    fn from(e: TypeError) -> Self {
        EvalError::IllTyped(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = TypeError::Mismatch { context: "ite", expected: Type::Bool, found: Type::Int };
        assert_eq!(e.to_string(), "type mismatch in ite: expected bool, found int");
        let e = EvalError::UnboundVar("x".into());
        assert_eq!(e.to_string(), "unbound variable \"x\"");
    }

    #[test]
    fn eval_error_sources_type_error() {
        use std::error::Error;
        let e = EvalError::from(TypeError::Unsupported { context: "add", found: Type::Bool });
        assert!(e.source().is_some());
    }
}
