//! The serving layer's error surface.

use std::fmt;
use std::io;

/// Everything the serving layer can fail with.
#[derive(Debug)]
pub enum ServeError {
    /// No graph registered under this name.
    UnknownGraph(String),
    /// A graph with this name is already registered.
    DuplicateGraph(String),
    /// A graph name that cannot be used as a persistence file stem
    /// (allowed: ASCII alphanumerics, `_`, `-`; non-empty, at most 64
    /// bytes).
    BadName(String),
    /// Filesystem failure while persisting or recovering.
    Io(io::Error),
    /// A persisted file is corrupt or from an incompatible format version.
    Corrupt {
        /// The file that failed to load.
        file: String,
        /// What was wrong.
        what: String,
    },
    /// An extraction / conversion / patch failure from the pipeline.
    Graph(graphgen_core::Error),
    /// Malformed text-protocol input.
    Protocol(String),
    /// An analysis failed (kernel error, worker panic, or a status query
    /// for a result that was never computed).
    Analyze(String),
    /// A previous write failed after the database was already mutated, so
    /// the in-memory state may be ahead of the write-ahead log. The
    /// writer refuses further work; reads keep serving the last published
    /// versions. Reopen the service from its directory to recover a
    /// consistent committed state.
    Wedged,
}

impl ServeError {
    pub(crate) fn corrupt(file: impl Into<String>, what: impl fmt::Display) -> Self {
        ServeError::Corrupt {
            file: file.into(),
            what: what.to_string(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownGraph(name) => write!(f, "unknown graph `{name}`"),
            ServeError::DuplicateGraph(name) => write!(f, "graph `{name}` already exists"),
            ServeError::BadName(name) => write!(
                f,
                "bad graph name `{name}` (use ASCII alphanumerics, `_`, `-`; 1..=64 bytes)"
            ),
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Corrupt { file, what } => write!(f, "corrupt `{file}`: {what}"),
            ServeError::Graph(e) => write!(f, "{e}"),
            ServeError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ServeError::Analyze(msg) => write!(f, "analyze: {msg}"),
            ServeError::Wedged => write!(
                f,
                "service is wedged after a write failure (in-memory state may be \
                 ahead of the write-ahead log); reopen it from its directory to \
                 recover the consistent committed state"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<graphgen_core::Error> for ServeError {
    fn from(e: graphgen_core::Error) -> Self {
        ServeError::Graph(e)
    }
}

impl From<graphgen_reldb::DbError> for ServeError {
    fn from(e: graphgen_reldb::DbError) -> Self {
        ServeError::Graph(e.into())
    }
}

/// Convenience alias.
pub type ServeResult<T> = Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ServeError::UnknownGraph("g".into())
            .to_string()
            .contains("`g`"));
        assert!(ServeError::BadName("a b".into())
            .to_string()
            .contains("bad graph name"));
        assert!(ServeError::corrupt("x.snap", "bad magic")
            .to_string()
            .contains("x.snap"));
        assert!(ServeError::Protocol("nope".into())
            .to_string()
            .contains("nope"));
        assert!(ServeError::Analyze("boom".into())
            .to_string()
            .contains("analyze: boom"));
        assert!(ServeError::Wedged.to_string().contains("reopen"));
    }
}
