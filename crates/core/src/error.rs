//! Error types for the coordination layer.

use std::fmt;

use youtopia_storage::StorageError;

/// Errors produced while compiling, registering or matching entangled
/// queries.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The SQL front end rejected the statement.
    Parse(String),
    /// The statement is not an entangled query.
    NotEntangled,
    /// The entangled query failed compilation to the IR (scoping,
    /// unsupported construct...).
    Compile(String),
    /// The query failed the safety analysis; the string explains which
    /// condition was violated.
    Unsafe(String),
    /// A storage-layer failure while applying a match.
    Storage(StorageError),
    /// The referenced pending query does not exist (already answered,
    /// cancelled, or never registered).
    UnknownQuery(u64),
    /// The submission was rejected by the tenant's admission quotas
    /// before registration; the strings name the tenant and the quota
    /// that tripped.
    QuotaExceeded {
        /// Tenant whose quota rejected the submission.
        tenant: String,
        /// Which quota tripped (`in-flight`, `standing`, `rate`).
        reason: String,
    },
    /// An internal invariant was violated (a bug).
    Internal(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Parse(msg) => write!(f, "parse error: {msg}"),
            CoreError::NotEntangled => {
                write!(
                    f,
                    "statement is not an entangled query (no INTO ANSWER clause)"
                )
            }
            CoreError::Compile(msg) => write!(f, "compile error: {msg}"),
            CoreError::Unsafe(msg) => write!(f, "unsafe entangled query: {msg}"),
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::UnknownQuery(id) => write!(f, "unknown pending query q{id}"),
            CoreError::QuotaExceeded { tenant, reason } => {
                write!(f, "tenant '{tenant}' quota exceeded: {reason}")
            }
            CoreError::Internal(msg) => write!(f, "internal coordination error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

/// Result alias for the coordination crate.
pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(CoreError::NotEntangled.to_string().contains("INTO ANSWER"));
        assert_eq!(
            CoreError::UnknownQuery(7).to_string(),
            "unknown pending query q7"
        );
        assert!(
            CoreError::Unsafe("variable 'x' is not range-restricted".into())
                .to_string()
                .contains("range-restricted")
        );
        assert_eq!(
            CoreError::QuotaExceeded {
                tenant: "acme".into(),
                reason: "in-flight limit 4 reached".into(),
            }
            .to_string(),
            "tenant 'acme' quota exceeded: in-flight limit 4 reached"
        );
    }

    #[test]
    fn conversions() {
        let e: CoreError = StorageError::TableNotFound("t".into()).into();
        assert!(matches!(e, CoreError::Storage(_)));
    }
}
