//! Engine error type.

use sorete_base::BaseError;
use sorete_lang::{AnalyzeError, EvalError, ParseError};
use std::fmt;

/// Anything that can go wrong loading or running a production system.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Source text failed to parse.
    Parse(ParseError),
    /// A rule failed semantic analysis.
    Analyze(AnalyzeError),
    /// An RHS or `:test` expression failed to evaluate.
    Eval(EvalError),
    /// Working-memory level failure.
    Base(BaseError),
    /// Engine-level failure (bad RHS target, misuse of set constructs, …).
    Rhs(String),
    /// An installed [`crate::FaultPlan`] deliberately failed this action
    /// (0-based index within the run). Only produced under test harnesses.
    FaultInjected {
        /// Index of the failed primitive action, counted from run start.
        action: u64,
    },
    /// Durability-layer failure: write-ahead log IO, corrupt checkpoint
    /// text, or an inconsistent replay.
    Durability(String),
    /// A panic unwound out of a firing and was caught by the engine's
    /// `catch_unwind` fence. Carries the panic payload rendered as text;
    /// the firing has been handled per the policy's [`crate::OnFailure`].
    Panic(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Parse(e) => e.fmt(f),
            CoreError::Analyze(e) => e.fmt(f),
            CoreError::Eval(e) => e.fmt(f),
            CoreError::Base(e) => e.fmt(f),
            CoreError::Rhs(m) => write!(f, "RHS error: {}", m),
            CoreError::FaultInjected { action } => {
                write!(f, "injected fault at action {}", action)
            }
            CoreError::Durability(m) => write!(f, "durability error: {}", m),
            CoreError::Panic(m) => write!(f, "panic in firing: {}", m),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<ParseError> for CoreError {
    fn from(e: ParseError) -> Self {
        CoreError::Parse(e)
    }
}
impl From<AnalyzeError> for CoreError {
    fn from(e: AnalyzeError) -> Self {
        CoreError::Analyze(e)
    }
}
impl From<EvalError> for CoreError {
    fn from(e: EvalError) -> Self {
        CoreError::Eval(e)
    }
}
impl From<BaseError> for CoreError {
    fn from(e: BaseError) -> Self {
        CoreError::Base(e)
    }
}
impl From<sorete_reldb::DbError> for CoreError {
    fn from(e: sorete_reldb::DbError) -> Self {
        CoreError::Durability(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_wrap_sources() {
        let e = CoreError::Rhs("boom".into());
        assert!(e.to_string().contains("boom"));
        let e: CoreError = BaseError::UnknownTag(3).into();
        assert!(e.to_string().contains("3"));
    }
}
