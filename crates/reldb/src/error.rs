//! Database errors.

use std::fmt;

/// Errors from the relational substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Table does not exist.
    UnknownTable(String),
    /// Column does not exist / is ambiguous.
    UnknownColumn(String),
    /// Row id not live.
    UnknownRow(usize),
    /// Row arity does not match the schema.
    Arity {
        /// The table.
        table: String,
        /// Declared column count.
        expected: usize,
        /// Provided value count.
        got: usize,
    },
    /// A table with this name already exists.
    DuplicateTable(String),
    /// Optimistic transaction lost a conflict and must retry.
    TxConflict {
        /// Table where the conflict was detected.
        table: String,
    },
    /// SQL parse error.
    Sql(String),
    /// Persisted input (a WAL record) is malformed or inconsistent.
    Corrupt(String),
    /// Underlying file IO failed (includes injected storage faults).
    Io(String),
    /// A WAL in an on-disk format this build does not read. The file is
    /// left as it was.
    WalFormat {
        /// The log file.
        path: String,
        /// The format its magic names (e.g. `SORETWAL2`).
        format: String,
    },
    /// A WAL whose generation stamp does not continue the caller's
    /// checkpoint generation.
    Unpaired {
        /// The log's generation.
        wal: u64,
        /// The checkpoint's generation.
        checkpoint: u64,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownTable(t) => write!(f, "unknown table `{}`", t),
            DbError::UnknownColumn(c) => write!(f, "unknown or ambiguous column `{}`", c),
            DbError::UnknownRow(r) => write!(f, "row {} is not live", r),
            DbError::Arity {
                table,
                expected,
                got,
            } => {
                write!(
                    f,
                    "table `{}` expects {} values, got {}",
                    table, expected, got
                )
            }
            DbError::DuplicateTable(t) => write!(f, "table `{}` already exists", t),
            DbError::TxConflict { table } => {
                write!(f, "transaction conflict on table `{}`", table)
            }
            DbError::Sql(m) => write!(f, "SQL error: {}", m),
            DbError::Corrupt(m) => write!(f, "corrupt data: {}", m),
            DbError::Io(m) => write!(f, "io error: {}", m),
            DbError::WalFormat { path, format } => write!(
                f,
                "{} is a {} log, a WAL format this build does not read (it reads {}); \
                 recover it with the build that wrote it",
                path,
                format,
                String::from_utf8_lossy(crate::wal::WAL_MAGIC).trim_end()
            ),
            DbError::Unpaired { wal, checkpoint } => write!(
                f,
                "WAL generation {} does not pair with checkpoint generation {} \
                 (resume from the matching checkpoint before attaching this log)",
                wal, checkpoint
            ),
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(DbError::UnknownTable("x".into()).to_string().contains("x"));
        assert!(DbError::TxConflict { table: "t".into() }
            .to_string()
            .contains("conflict"));
    }
}
