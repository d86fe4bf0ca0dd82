//! `graphgen-algo` — graph algorithms over any representation (§3.4).
//!
//! Everything here is written against the representation-independent
//! [`GraphRep`](graphgen_graph::GraphRep) API, so the same code runs on
//! C-DUP, EXP, DEDUP-1, DEDUP-2, and BITMAP — the core claim of the paper's
//! in-memory layer. Two execution styles are provided, mirroring the paper:
//!
//! * direct Graph-API algorithms ([`mod@bfs`], [`mod@triangles`]) — random access,
//!   single threaded;
//! * the multithreaded **vertex-centric** framework ([`vertex_centric`])
//!   used for Degree and PageRank in the evaluation, with chunked
//!   multi-core execution, supersteps, and vote-to-halt termination
//!   (GAS-style: vertices read their neighbors' previous-superstep state
//!   directly instead of materializing messages).

pub mod bfs;
pub mod clustering;
pub mod concomp;
pub mod condensed;
pub mod degree;
pub mod pagerank;
pub mod triangles;
pub mod vertex_centric;

pub use bfs::bfs;
pub use clustering::{average_clustering, clustering_coefficients};
pub use concomp::connected_components;
pub use condensed::{
    components_seeded, condensed_path, pagerank_seeded, CondensedPath, PageRankRun,
    SeededPageRankConfig,
};
pub use degree::degrees;
pub use pagerank::{pagerank, PageRankConfig};
pub use triangles::triangles;
pub use vertex_centric::{run_vertex_centric, VertexCentricConfig, VertexProgram};
