//! The no-materialization guarantee for the library entry points:
//! `degrees`, `pagerank` and `connected_components`, called directly on a
//! C-DUP and a DEDUP-1 handle, pick their structural kernel themselves and
//! must stay out of the expanded graph's size class — the same bound
//! `no_expansion.rs` holds the `ANALYZE` dispatch to. Linking
//! `graphgen-bench` installs its `CountingAlloc` as this test binary's
//! global allocator, so `alloc::measure` sees every byte.

use graphgen_algo::{
    condensed_path, connected_components, degrees, pagerank, CondensedPath, PageRankConfig,
};
use graphgen_bench::alloc;
use graphgen_core::{ConvertOptions, GraphGen};
use graphgen_datagen::{single_layer_database, SingleLayerConfig};
use graphgen_graph::{GraphRep, RepKind};

#[test]
fn library_kernels_never_materialize_the_expansion() {
    // Dense co-occurrence groups: ~40 values shared by ~100 rows each, so
    // the expanded clique edges dwarf the condensed adjacency.
    let (db, query) = single_layer_database(SingleLayerConfig {
        rows: 4_000,
        selectivity: 0.01,
        seed: 17,
    });
    let cdup = GraphGen::new(&db).extract(&query).unwrap();
    assert_eq!(cdup.kind(), RepKind::CDup);
    let dedup1 = cdup
        .convert(RepKind::Dedup1, &ConvertOptions::default())
        .unwrap();

    // One u32 endpoint per expanded directed edge is the *floor* of any
    // materialized expansion.
    let expansion_floor = cdup.expanded_edge_count() as usize * std::mem::size_of::<u32>();
    assert!(
        expansion_floor > 1 << 20,
        "workload too small to discriminate ({expansion_floor} bytes)"
    );

    let cfg = PageRankConfig {
        threads: 2,
        ..Default::default()
    };
    for (label, handle, path) in [
        ("C-DUP", &cdup, CondensedPath::Merged),
        ("DEDUP-1", &dedup1, CondensedPath::Aggregated),
    ] {
        assert_eq!(condensed_path(handle), path, "{label}");
        let peaks = [
            ("degrees", alloc::measure(|| degrees(handle, 2)).1.peak),
            ("pagerank", alloc::measure(|| pagerank(handle, cfg)).1.peak),
            (
                "connected_components",
                alloc::measure(|| connected_components(handle, 2)).1.peak,
            ),
        ];
        for (kernel, peak) in peaks {
            assert!(
                peak < expansion_floor / 8,
                "{label} {kernel}: peak {peak} bytes live is in the expansion's \
                 size class (floor {expansion_floor}) — the kernel materialized \
                 something expansion-shaped"
            );
        }
    }

    // Control: actually expanding blows straight through the same budget,
    // proving the threshold discriminates.
    let (_exp, stats) = alloc::measure(|| {
        cdup.convert(RepKind::Exp, &ConvertOptions::default())
            .unwrap()
    });
    assert!(
        stats.peak >= expansion_floor,
        "control: expansion peak {} should exceed the floor {expansion_floor}",
        stats.peak
    );
}
