//! End-to-end integration: DSL text → relational extraction → condensed
//! representations → deduplication → algorithms → serialization, driving
//! only the public facade: `GraphHandle` and its typed conversion surface.

use graphgen::core::{
    serialize, AdvisorPolicy, AnyGraph, ConvertError, ConvertOptions, ErrorKind, GraphGen,
    GraphGenConfig,
};
use graphgen::datagen::{
    dblp_like, relational::DBLP_COAUTHORS, relational::TPCH_COPURCHASE, tpch_like, univ,
    DblpConfig, TpchConfig, UnivConfig,
};
use graphgen::graph::{expand_to_edge_list, GraphRep, RepKind};

fn condensed_config() -> GraphGenConfig {
    GraphGenConfig::builder()
        .large_output_factor(0.0)
        .preprocess(false)
        .auto_expand_threshold(None)
        .threads(2)
        .build()
}

#[test]
fn dblp_pipeline_end_to_end() {
    let db = dblp_like(DblpConfig {
        authors: 400,
        publications: 700,
        avg_authors_per_pub: 2.0,
        seed: 11,
    });
    let gg = GraphGen::with_config(&db, condensed_config());
    let extracted = gg.extract(DBLP_COAUTHORS).expect("extract");
    assert_eq!(extracted.kind(), RepKind::CDup);
    let truth = expand_to_edge_list(&extracted);

    // The graph must be symmetric (co-occurrence).
    for &(u, v) in &truth {
        assert!(
            truth.binary_search(&(v, u)).is_ok(),
            "asymmetric pair ({u},{v})"
        );
    }

    // Every representation is reachable through the one typed entry point.
    let opts = ConvertOptions::default();
    for target in RepKind::all() {
        let converted = extracted.convert(target, &opts).expect("feasible shape");
        assert_eq!(converted.kind(), target);
        assert_eq!(expand_to_edge_list(&converted), truth, "{target}");
    }

    // Serialization round-trips the edge count.
    let mut buf = Vec::new();
    serialize::write_edge_list(&extracted, &mut buf).unwrap();
    let lines = buf.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count();
    assert_eq!(lines as u64, extracted.expanded_edge_count());

    let mut json = Vec::new();
    serialize::write_json(&extracted, &mut json).unwrap();
    let text = String::from_utf8(json).unwrap();
    assert!(text.contains("\"nodes\""));
    assert!(text.contains("\"Name\""));
}

#[test]
fn tpch_multilayer_pipeline() {
    let db = tpch_like(TpchConfig {
        customers: 300,
        orders: 900,
        parts: 40,
        avg_lineitems: 2.5,
        seed: 12,
    });
    let gg = GraphGen::with_config(&db, condensed_config());
    let extracted = gg.extract(TPCH_COPURCHASE).expect("extract");
    let AnyGraph::CDup(core) = extracted.graph() else {
        panic!("expected condensed result")
    };
    assert!(!core.is_single_layer(), "forced plan must be multi-layer");
    let truth = expand_to_edge_list(&extracted);

    // Multi-layer sources refuse the DEDUP constructions with a typed
    // reason...
    let opts = ConvertOptions::default();
    assert_eq!(
        extracted.convert(RepKind::Dedup1, &opts).unwrap_err(),
        ConvertError::MultiLayer
    );
    assert_eq!(
        extracted.convert(RepKind::Dedup2, &opts).unwrap_err(),
        ConvertError::MultiLayer
    );

    // ...until the caller opts into flattening (§5.2.2's route).
    let flat_opts = ConvertOptions { flatten: true };
    let d1 = extracted
        .convert(RepKind::Dedup1, &flat_opts)
        .expect("flattened");
    assert_eq!(expand_to_edge_list(&d1), truth);

    // BITMAP works on the multi-layer structure directly.
    let bmp = extracted
        .convert(RepKind::Bitmap, &opts)
        .expect("condensed source");
    assert_eq!(expand_to_edge_list(&bmp), truth);

    // The advisor never proposes an infeasible representation: multi-layer
    // condensed graphs get BITMAP when expansion is off the table.
    let strict = AdvisorPolicy {
        expand_threshold: 0.0,
    };
    assert_eq!(extracted.advise(&strict), RepKind::Bitmap);
    let advised = extracted
        .convert_to_advised(&strict, &opts)
        .expect("advised");
    assert_eq!(expand_to_edge_list(&advised), truth);

    // The report exposes the plan: middle join postponed, outer joins in DB.
    let joins = &extracted.report().plans[0].joins;
    assert_eq!(joins.len(), 3);
}

#[test]
fn asymmetric_graphs_refuse_dedup2_with_a_reason() {
    // [Q3]-style bipartite extraction is directed: instructor -> student
    // edges only, so the virtual nodes are asymmetric and DEDUP-2's
    // restriction bites.
    let db = univ(UnivConfig {
        students: 120,
        instructors: 8,
        courses: 15,
        avg_courses_per_student: 3.0,
        seed: 21,
    });
    let gg = GraphGen::with_config(&db, condensed_config());
    let extracted = gg
        .extract(graphgen::datagen::relational::UNIV_BIPARTITE)
        .expect("extract");
    let opts = ConvertOptions::default();
    assert_eq!(
        extracted.convert(RepKind::Dedup2, &opts).unwrap_err(),
        ConvertError::Asymmetric
    );
    // DEDUP-1 has no symmetry requirement; same graph converts fine.
    let d1 = extracted
        .convert(RepKind::Dedup1, &opts)
        .expect("single-layer");
    assert_eq!(expand_to_edge_list(&d1), expand_to_edge_list(&extracted));
    // And the advisor routes around the restriction.
    let strict = AdvisorPolicy {
        expand_threshold: 0.0,
    };
    assert_eq!(extracted.advise(&strict), RepKind::Dedup1);
}

#[test]
fn expanded_graphs_refuse_condensed_targets_with_a_reason() {
    let db = dblp_like(DblpConfig {
        authors: 100,
        publications: 150,
        avg_authors_per_pub: 2.0,
        seed: 22,
    });
    // The full-SQL baseline hands back EXP, which retains no condensed core.
    let gg = GraphGen::with_config(&db, condensed_config());
    let full = gg.extract_full(DBLP_COAUTHORS).expect("extract_full");
    assert_eq!(full.kind(), RepKind::Exp);
    let opts = ConvertOptions::default();
    for target in [
        RepKind::CDup,
        RepKind::Dedup1,
        RepKind::Dedup2,
        RepKind::Bitmap,
    ] {
        assert_eq!(
            full.convert(target, &opts).unwrap_err(),
            ConvertError::NotCondensed { from: RepKind::Exp },
            "{target}"
        );
    }
    // EXP -> EXP remains trivially feasible.
    assert!(full.convert(RepKind::Exp, &opts).is_ok());
}

#[test]
fn representation_choice_policy() {
    // Sparse graph: auto-expansion should trigger with default config.
    let db = dblp_like(DblpConfig {
        authors: 200,
        publications: 100,
        avg_authors_per_pub: 1.2,
        seed: 13,
    });
    let gg = GraphGen::new(&db);
    let extracted = gg.extract(DBLP_COAUTHORS).expect("extract");
    assert!(extracted.report().auto_expanded);
    assert_eq!(extracted.kind(), RepKind::Exp);
}

#[test]
fn key_space_accessors_cover_the_whole_graph() {
    let db = dblp_like(DblpConfig {
        authors: 60,
        publications: 90,
        avg_authors_per_pub: 2.0,
        seed: 16,
    });
    let gg = GraphGen::with_config(&db, condensed_config());
    let extracted = gg.extract(DBLP_COAUTHORS).expect("extract");
    for u in extracted.vertices() {
        let key = extracted.key_of(u).clone();
        assert_eq!(extracted.vertex_of(&key), Some(u));
        let nbrs = extracted.neighbors_by_key(&key).expect("known key");
        assert_eq!(nbrs.len(), extracted.degree_by_key(&key).unwrap());
        assert_eq!(nbrs.len(), extracted.degree(u));
        assert!(extracted.vertex_property(&key, "Name").is_some());
    }
}

#[test]
fn error_paths_are_reported() {
    let db = dblp_like(DblpConfig {
        authors: 10,
        publications: 10,
        avg_authors_per_pub: 1.5,
        seed: 14,
    });
    let gg = GraphGen::new(&db);
    // Unknown table -> caught by the pre-extraction check (E001), not a
    // runtime Db error.
    let err = gg
        .extract("Nodes(X) :- Missing(X).\nEdges(A,B) :- AuthorPub(A,P), AuthorPub(B,P).")
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Check);
    let diags = err.as_check().expect("check error");
    assert_eq!(diags[0].code.code(), "E001");
    // Cyclic edges body -> check error too (E006).
    let err = gg
        .extract(
            "Nodes(ID, N) :- Author(ID, N).\n\
             Edges(A, B) :- AuthorPub(A, B), AuthorPub(B, C), AuthorPub(C, A).",
        )
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Check);
    assert_eq!(err.as_check().unwrap()[0].code.code(), "E006");
    // Parse error -> Dsl error.
    assert_eq!(gg.extract("Nodes(").unwrap_err().kind(), ErrorKind::Dsl);
    // Conversion errors convert into the unified type, too.
    let e: graphgen::core::Error = ConvertError::MultiLayer.into();
    assert_eq!(e.kind(), ErrorKind::Convert);
    assert_eq!(e.as_convert(), Some(ConvertError::MultiLayer));
}

#[test]
fn mutations_through_the_facade_stay_consistent() {
    let db = dblp_like(DblpConfig {
        authors: 120,
        publications: 200,
        avg_authors_per_pub: 2.0,
        seed: 15,
    });
    let gg = GraphGen::with_config(&db, condensed_config());
    let mut extracted = gg.extract(DBLP_COAUTHORS).expect("extract");
    let edges = expand_to_edge_list(&extracted);
    let (u, v) = edges[edges.len() / 2];
    let (u, v) = (graphgen::graph::RealId(u), graphgen::graph::RealId(v));
    assert!(extracted.exists_edge(u, v));
    extracted.delete_edge(u, v);
    assert!(!extracted.exists_edge(u, v));
    let w = extracted.add_vertex();
    extracted.add_edge(w, u);
    assert!(extracted.exists_edge(w, u));
    extracted.delete_vertex(u);
    assert!(!extracted.exists_edge(w, u));
    extracted.compact();
    assert!(!extracted.exists_edge(w, u));
}
