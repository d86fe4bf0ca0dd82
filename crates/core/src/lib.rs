//! `graphgen-core` — the GraphGen system (§3, §4.2).
//!
//! This crate wires the substrates together into the end-to-end pipeline of
//! the paper's Figure 3:
//!
//! 1. a Datalog extraction query is parsed and validated (`graphgen-dsl`);
//! 2. the **planner** ([`planner`]) consults catalog statistics to classify
//!    every join in each `Edges` chain as small-output (hand it to the
//!    database) or large-output (postpone it, creating virtual nodes);
//! 3. the **extractor** ([`extract`]) runs the resulting segment queries
//!    against the relational engine and assembles the condensed graph
//!    (C-DUP), optionally running the Step-6 preprocessing and the §6.5
//!    auto-expansion policy;
//! 4. the result is a [`GraphHandle`]: the graph, the id ↔ key mapping,
//!    vertex properties, and the plan report — plus the typed conversion
//!    surface ([`GraphHandle::convert`]) and the §6.5 representation
//!    advisor ([`GraphHandle::advise`]), so analysts never deal with the
//!    representation underneath unless they want to.
//!
//! Everything fallible reports through the unified [`Error`] type.
//!
//! When extraction runs with `GraphGenConfig::incremental`, the handle
//! additionally carries the [`incremental`] maintenance state, and
//! [`GraphHandle::apply_delta`] patches the graph under base-table
//! mutations with work proportional to the delta.

#![warn(missing_docs)]

pub mod anygraph;
pub mod error;
pub mod extract;
pub mod handle;
pub mod incremental;
pub mod planner;
mod runs;
pub mod serialize;

pub use anygraph::AnyGraph;
pub use error::{ConvertError, Error, ErrorKind, PatchError};
pub use extract::{ExtractionReport, GraphGen, GraphGenConfig, GraphGenConfigBuilder};
pub use graphgen_dsl::cost::{ChainCost, PlanFingerprint};
pub use handle::{AdvisorPolicy, ConvertOptions, GraphHandle};
pub use incremental::{GraphPatch, IncrementalState, StateBytes};
pub use planner::{catalog_view, explain_spec, ChainPlan, Explanation, JoinDecision, SegmentPlan};
