//! How many bytes a served graph's handle snapshot takes on disk.
//!
//! A served `EXTRACT` keeps the C-DUP and its delta-maintenance state, and
//! the graph's snapshot file frames both. The snapshot writes the state as
//! the state keeps it: each bag once, in its kept orientation, the
//! supports, the boundaries and the node rows. Nothing that follows from
//! those is written: no per-atom copy of a shared bag, no direct-edge
//! counts (a function of the single-segment supports) and no property
//! names per node row. This test bounds the encoded size on a DBLP-shaped
//! database, where the derived copies cost about a third of the file.
//!
//! Measured at this shape (20,000 authors, 30,000 publications, seed 11):
//!
//! | handle format | bytes |
//! |---|---|
//! | derived copies beside the state (`GGSNAP3`) | 15,777,444 |
//! | the state as it is kept (`GGSNAP4`) | 9,339,986 |

use graphgen_core::{GraphGen, GraphGenConfig, GraphHandle};
use graphgen_datagen::relational::DBLP_COAUTHORS;
use graphgen_datagen::{dblp_like, DblpConfig};

/// The encoded handle may not exceed this many bytes.
const MAX_SNAPSHOT_BYTES: usize = 10_000_000;

#[test]
fn served_handle_snapshot_stays_under_its_byte_bound() {
    let db = dblp_like(DblpConfig {
        authors: 20_000,
        publications: 30_000,
        avg_authors_per_pub: 2.5,
        seed: 11,
    });
    // The configuration a served `EXTRACT` runs with.
    let cfg = GraphGenConfig::builder().incremental(true).build();
    let g = GraphGen::with_config(&db, cfg)
        .extract(DBLP_COAUTHORS)
        .expect("extract");
    let bytes = g.to_snapshot_bytes().expect("a C-DUP handle");
    println!("handle snapshot: {} B", bytes.len());
    let back = GraphHandle::from_snapshot_bytes(&bytes).expect("decode");
    assert!(back.is_incremental());
    assert_eq!(back.to_snapshot_bytes().expect("re-encode"), bytes);
    assert!(
        bytes.len() <= MAX_SNAPSHOT_BYTES,
        "the served handle encodes to {} bytes (bound {MAX_SNAPSHOT_BYTES})",
        bytes.len()
    );
}
