//! Errors raised by the verification engines.

use std::fmt;

use timepiece_smt::SmtError;

/// An error raised while building or discharging verification conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The SMT backend rejected a condition (ill-typed network or interface).
    Smt(SmtError),
    /// A persistent checker worker died (panicked) during the check; the
    /// pool has replaced its workers, so its next check runs on new ones.
    WorkerDied,
    /// An annotation of `node` — its interface or property — writes a route
    /// name the checker binds itself
    /// ([`timepiece_algebra::is_checker_bound`]), which the checker's own
    /// variable would capture.
    ReservedName {
        /// The node whose annotation writes the name.
        node: String,
        /// The name.
        name: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Smt(e) => write!(f, "smt backend error: {e}"),
            CoreError::WorkerDied => {
                write!(f, "a persistent checker worker panicked; the pool replaced its workers")
            }
            CoreError::ReservedName { node, name } => write!(
                f,
                "an annotation of {node} writes {name:?}, a route name the checker binds \
                 (route-<node>, route@...): a predicate must use the route it is applied to"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Smt(e) => Some(e),
            CoreError::WorkerDied | CoreError::ReservedName { .. } => None,
        }
    }
}

impl From<SmtError> for CoreError {
    fn from(e: SmtError) -> Self {
        CoreError::Smt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        use std::error::Error;
        let e = CoreError::from(SmtError::ModelDecode("x".into()));
        assert!(e.to_string().contains("smt backend error"));
        assert!(e.source().is_some());
    }
}
