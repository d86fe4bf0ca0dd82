//! The unified error surface of the graphgen facade.
//!
//! Every fallible public operation — parsing the DSL, running the relational
//! engine, converting between representations — reports through one
//! [`Error`] type, with [`Error::kind`] as the stable, match-friendly
//! classifier and `From` impls from each substrate error so `?` composes
//! across layers.

use graphgen_dedup::DedupError;
use graphgen_dsl::{Diagnostic, ParseError};
use graphgen_graph::RepKind;
use graphgen_reldb::DbError;
use std::fmt;

/// Why a representation conversion is impossible (§3.4's transparent
/// conversion surface, [`crate::GraphHandle::convert`]).
///
/// The paper's DEDUP-1/DEDUP-2 constructions only apply to restricted
/// shapes of the condensed graph (§5); instead of a silent `None`, every
/// infeasible request explains exactly which restriction failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvertError {
    /// The target needs a **single-layer** condensed source, but this graph
    /// has two or more virtual layers. Flatten first
    /// (`ConvertOptions::flatten`, or `graphgen_dedup::flatten_to_single_layer`).
    MultiLayer,
    /// DEDUP-2 needs a **symmetric** source: every virtual node's source
    /// set must equal its target set (the shape co-occurrence extraction
    /// produces). This graph has an asymmetric virtual node.
    Asymmetric,
    /// The target needs a condensed core (C-DUP, DEDUP-1, or BITMAP
    /// source), but this representation does not retain one.
    NotCondensed {
        /// The representation the conversion started from.
        from: RepKind,
    },
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::MultiLayer => write!(
                f,
                "conversion requires a single-layer condensed source, but the graph \
                 has multiple virtual layers (enable ConvertOptions::flatten or run \
                 flatten_to_single_layer first)"
            ),
            ConvertError::Asymmetric => write!(
                f,
                "DEDUP-2 requires a symmetric single-layer source (every virtual \
                 node's sources must equal its targets)"
            ),
            ConvertError::NotCondensed { from } => write!(
                f,
                "conversion requires a condensed core, but the {from} representation \
                 does not retain one"
            ),
        }
    }
}

impl std::error::Error for ConvertError {}

impl From<DedupError> for ConvertError {
    fn from(e: DedupError) -> Self {
        match e {
            DedupError::MultiLayer => ConvertError::MultiLayer,
            DedupError::Asymmetric => ConvertError::Asymmetric,
        }
    }
}

/// Why an incremental patch ([`crate::GraphHandle::apply_delta`]) failed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PatchError {
    /// The handle was not extracted with `GraphGenConfig::incremental`, so
    /// no maintenance state exists to propagate deltas through.
    NotIncremental,
    /// The delta contradicts the maintained state (e.g. it deletes rows the
    /// base table never held, or the handle's representation was swapped
    /// behind the state's back). The handle should be considered stale:
    /// re-extract instead of applying further deltas.
    Inconsistent(String),
    /// A count the maintained state keeps would pass `u32::MAX`, or one of
    /// its bags would hold more than `u32::MAX` pairs. The refused change
    /// is not applied, but the delta's earlier changes stand, so the
    /// handle should be considered stale, as for `Inconsistent`.
    Overflow(String),
    /// A row of the delta carries no database id for each of its values
    /// (a row decoded from the write-ahead log carries values only): the
    /// state keys by those ids and never guesses them. Nothing was
    /// applied; replay the rows through the `Database` that logged them
    /// and apply the delta it returns.
    WithoutIds {
        /// The delta's table.
        table: String,
        /// The first such row's position in the delta.
        row: usize,
    },
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::NotIncremental => write!(
                f,
                "handle has no incremental state; extract with \
                 GraphGenConfig::builder().incremental(true) to enable apply_delta"
            ),
            PatchError::Inconsistent(msg) => {
                write!(f, "delta is inconsistent with the maintained state: {msg}")
            }
            PatchError::Overflow(msg) => {
                write!(f, "count past the maintained state's limits: {msg}")
            }
            PatchError::WithoutIds { table, row } => write!(
                f,
                "row {row} of the delta against `{table}` carries no database ids; \
                 apply the delta the database returned for it"
            ),
        }
    }
}

impl std::error::Error for PatchError {}

/// Stable classification of an [`Error`], independent of payload details.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// DSL parse or semantic-validation failure.
    Dsl,
    /// Static analysis rejected the program before extraction started.
    Check,
    /// Relational engine failure (unknown table/column, arity mismatch, …).
    Db,
    /// Infeasible representation conversion.
    Convert,
    /// Incremental delta application failure.
    Patch,
}

/// The single error type of the facade: everything the pipeline can raise.
#[derive(Debug)]
pub enum Error {
    /// DSL parse/validation failure.
    Dsl(ParseError),
    /// Static analysis rejected the program before any extraction work:
    /// every error-severity [`Diagnostic`] the checker found, in source
    /// order (warnings are filtered out — they never block extraction).
    Check(Vec<Diagnostic>),
    /// Relational engine failure.
    Db(DbError),
    /// Infeasible representation conversion.
    Convert(ConvertError),
    /// Incremental delta application failure.
    Patch(PatchError),
}

impl Error {
    /// The stable classification of this error.
    pub fn kind(&self) -> ErrorKind {
        match self {
            Error::Dsl(_) => ErrorKind::Dsl,
            Error::Check(_) => ErrorKind::Check,
            Error::Db(_) => ErrorKind::Db,
            Error::Convert(_) => ErrorKind::Convert,
            Error::Patch(_) => ErrorKind::Patch,
        }
    }

    /// The conversion failure reason, if this is a conversion error.
    pub fn as_convert(&self) -> Option<ConvertError> {
        match self {
            Error::Convert(e) => Some(*e),
            _ => None,
        }
    }

    /// The patch failure reason, if this is a patch error.
    pub fn as_patch(&self) -> Option<&PatchError> {
        match self {
            Error::Patch(e) => Some(e),
            _ => None,
        }
    }

    /// The checker diagnostics, if static analysis rejected the program.
    pub fn as_check(&self) -> Option<&[Diagnostic]> {
        match self {
            Error::Check(diags) => Some(diags),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Dsl(e) => write!(f, "{e}"),
            Error::Check(diags) => {
                // One line per diagnostic, coded, suitable for protocol
                // front ends and logs.
                write!(f, "check failed: ")?;
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{}", d.one_line())?;
                }
                Ok(())
            }
            Error::Db(e) => write!(f, "{e}"),
            Error::Convert(e) => write!(f, "{e}"),
            Error::Patch(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Dsl(e) => Some(e),
            Error::Check(_) => None,
            Error::Db(e) => Some(e),
            Error::Convert(e) => Some(e),
            Error::Patch(e) => Some(e),
        }
    }
}

impl From<PatchError> for Error {
    fn from(e: PatchError) -> Self {
        Error::Patch(e)
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Dsl(e)
    }
}

impl From<DbError> for Error {
    fn from(e: DbError) -> Self {
        Error::Db(e)
    }
}

impl From<ConvertError> for Error {
    fn from(e: ConvertError) -> Self {
        Error::Convert(e)
    }
}

impl From<DedupError> for Error {
    fn from(e: DedupError) -> Self {
        Error::Convert(e.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        let e: Error = ConvertError::MultiLayer.into();
        assert_eq!(e.kind(), ErrorKind::Convert);
        assert_eq!(e.as_convert(), Some(ConvertError::MultiLayer));
        let e: Error = DbError::UnknownTable("x".into()).into();
        assert_eq!(e.kind(), ErrorKind::Db);
        assert_eq!(e.as_convert(), None);
    }

    #[test]
    fn check_errors_render_one_line_per_diagnostic() {
        use graphgen_dsl::{Code, Span};
        let e = Error::Check(vec![
            Diagnostic::new(
                Code::UnknownRelation,
                Span::new(19, 3, 2, 5),
                "unknown relation `X`",
            ),
            Diagnostic::new(Code::ArityMismatch, Span::new(30, 3, 3, 1), "wrong arity"),
        ]);
        assert_eq!(e.kind(), ErrorKind::Check);
        assert_eq!(e.as_check().map(<[_]>::len), Some(2));
        let s = e.to_string();
        assert!(
            s.starts_with("check failed: E001 unknown-relation at 2:5:"),
            "{s}"
        );
        assert!(s.contains("; E003 arity-mismatch at 3:1:"), "{s}");
        assert!(!s.contains('\n'), "protocol front ends need one line: {s}");
    }

    #[test]
    fn patch_errors_classify_and_display() {
        let e: Error = PatchError::NotIncremental.into();
        assert_eq!(e.kind(), ErrorKind::Patch);
        assert_eq!(e.as_patch(), Some(&PatchError::NotIncremental));
        assert!(e.to_string().contains("incremental"));
        let e: Error = PatchError::Inconsistent("x".into()).into();
        assert!(e.to_string().contains("inconsistent"));
        let e: Error = PatchError::Overflow("x".into()).into();
        assert_eq!(e.kind(), ErrorKind::Patch);
        assert!(e.to_string().contains("limits"));
        assert_eq!(e.as_convert(), None);
    }

    #[test]
    fn dedup_errors_map_to_convert_reasons() {
        assert_eq!(
            ConvertError::from(DedupError::MultiLayer),
            ConvertError::MultiLayer
        );
        assert_eq!(
            ConvertError::from(DedupError::Asymmetric),
            ConvertError::Asymmetric
        );
    }

    #[test]
    fn display_explains_the_restriction() {
        assert!(ConvertError::MultiLayer
            .to_string()
            .contains("single-layer"));
        assert!(ConvertError::Asymmetric.to_string().contains("symmetric"));
        assert!(ConvertError::NotCondensed { from: RepKind::Exp }
            .to_string()
            .contains("EXP"));
    }
}
