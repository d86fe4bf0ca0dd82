//! The extraction planner (§4.2 Steps 2–3).
//!
//! All cardinality reasoning delegates to the unified cost engine
//! ([`graphgen_dsl::cost`], one implementation shared with the
//! `W103`/`W105` lints and the serve-layer drift detector), fed with the
//! live database's statistics through [`catalog_view`]: per-join
//! estimates use the paper's uniform-assumption formula
//! `|Ri| · |R(i+1)| / d`, and instead of the greedy left-to-right
//! classification the planner enumerates every segmentation cut set and
//! picks the min-cost plan. Small-output runs of the chain become segment
//! queries handed to the relational engine; postponed (large-output)
//! joins each materialize a layer of virtual nodes. For two-atom chains
//! the min-cost plan coincides with the paper's test: cut iff
//! `|L|·|R|/d > factor·(|L|+|R|)`.
//!
//! [`explain_spec`] costs a whole extraction spec at once into an
//! [`Explanation`]: the payload behind `GraphGen::explain`, the
//! `graphgen-check --explain` plan trees, and the serve layer's `EXPLAIN`
//! verb and drift detector.

use graphgen_dsl::cost::{
    estimate_chain, plan_fingerprint, render_explain, segments_of, ChainCost, PlanFingerprint,
};
use graphgen_dsl::{
    ChainAtom, CheckCatalog, ColType, ConstFilter, EdgeChain, GraphSpec, RelationInfo,
};
use graphgen_reldb::{query::ChainStep, DataType, Database, DbResult, Predicate, Query, Value};
use std::fmt;

/// The planner's verdict on one join of the chain.
#[derive(Debug, Clone)]
pub struct JoinDecision {
    /// Index of the left atom in the chain.
    pub left_atom: usize,
    /// Left/right table names (for reporting).
    pub left_table: String,
    /// Right table name.
    pub right_table: String,
    /// Estimated rows on each side after constant filters (rounded; equal
    /// to the catalog row counts for filter-free atoms).
    pub left_rows: usize,
    /// Right-side estimated rows.
    pub right_rows: usize,
    /// Distinct values of the join attribute.
    pub distinct: usize,
    /// Estimated join output size `|L|*|R|/d`.
    pub estimated_output: f64,
    /// True if the chosen min-cost plan postpones this join.
    pub large_output: bool,
}

/// One segment of the chain (a maximal small-output run), executable as a
/// single relational query.
#[derive(Debug, Clone)]
pub struct SegmentPlan {
    /// Indices `[start, end]` of chain atoms in this segment (inclusive).
    pub atoms: (usize, usize),
    /// The relational query computing `res_i(x, y)`.
    pub query: Query,
}

/// The full plan for one `Edges` chain.
#[derive(Debug, Clone)]
pub struct ChainPlan {
    /// Per-join decisions (length = #atoms - 1).
    pub joins: Vec<JoinDecision>,
    /// The segment queries, in chain order. One segment and no large joins
    /// means the edge list is computed entirely in the database.
    pub segments: Vec<SegmentPlan>,
    /// Estimated total cost of this (min-cost) plan under the statistics
    /// it was planned with.
    pub estimated_cost: f64,
    /// Stable identity of the plan's shape (segmentation + per-join
    /// classifications); the serving layer compares it across statistics
    /// snapshots to detect drift.
    pub fingerprint: PlanFingerprint,
}

impl ChainPlan {
    /// Number of virtual-node layers this plan creates (= #large joins).
    pub fn virtual_layers(&self) -> usize {
        self.joins.iter().filter(|j| j.large_output).count()
    }
}

/// Compile a DSL atom's constant selections into one engine predicate
/// (shared by the planner, the extractor's node views, and the incremental
/// maintenance state, so filter semantics can never diverge between them).
pub(crate) fn filters_to_predicate(filters: &[ConstFilter]) -> Predicate {
    let mut pred = Predicate::True;
    for f in filters {
        let p = match f {
            ConstFilter::Int(col, v) => Predicate::Eq(*col, Value::int(*v)),
            ConstFilter::Str(col, s) => Predicate::Eq(*col, Value::str(s.as_str())),
        };
        pred = pred.and(p);
    }
    pred
}

fn atom_to_step(atom: &ChainAtom) -> ChainStep {
    ChainStep {
        table: atom.relation.clone(),
        pred: filters_to_predicate(&atom.filters),
        in_col: atom.in_col,
        out_col: atom.out_col,
    }
}

/// Snapshot the database's schema and statistics as a checker catalog, so
/// the `graphgen-check` diagnostics and the cost engine read the actual
/// tables an extraction would run against.
///
/// Every registered table becomes a relation with its column names/types,
/// row count, and per-column distinct counts — the statistics are always
/// present (the engine maintains them incrementally), so plan lints like
/// W105 (`large-output-segment`) use the same numbers the planner's
/// large-output test would.
pub fn catalog_view(db: &Database) -> CheckCatalog {
    let mut catalog = CheckCatalog::new();
    for name in db.table_names() {
        let table = db.table(name).expect("listed table exists");
        let columns: Vec<(String, ColType)> = table
            .schema()
            .columns()
            .iter()
            .map(|c| {
                let ty = match c.dtype {
                    DataType::Int => ColType::Int,
                    DataType::Str => ColType::Str,
                };
                (c.name.clone(), ty)
            })
            .collect();
        let n_distinct: Vec<Option<u64>> = (0..columns.len())
            .map(|i| db.column_stats(name, i).ok().map(|s| s.n_distinct as u64))
            .collect();
        let info = RelationInfo::new(columns).with_stats(table.num_rows() as u64, n_distinct);
        catalog.add(name, info);
    }
    catalog
}

/// Estimate `chain` against the live catalog: delegate to the unified
/// cost engine (every registered table carries full statistics, so the
/// engine can always cost the chain). Unknown tables surface first as
/// the engine's own error type.
pub(crate) fn cost_chain(
    db: &Database,
    chain: &EdgeChain,
    large_output_factor: f64,
) -> DbResult<ChainCost> {
    for atom in &chain.steps {
        db.column_stats(&atom.relation, atom.in_col)?;
    }
    Ok(
        estimate_chain(&catalog_view(db), &chain.steps, large_output_factor)
            .expect("catalog_view supplies rows and n_distinct for every registered table"),
    )
}

/// Choose the min-cost plan for `chain` and build its segment queries.
/// `large_output_factor` is the paper's constant 2.0.
pub fn plan_chain(
    db: &Database,
    chain: &EdgeChain,
    large_output_factor: f64,
) -> DbResult<ChainPlan> {
    let cost = cost_chain(db, chain, large_output_factor)?;
    Ok(plan_with_cuts(chain, &cost, &cost.cuts()))
}

/// Build the plan of `chain` that postpones exactly the joins `cuts` flags,
/// with the estimates of `cost`, the chain's analysis under the statistics
/// it is planned against. [`plan_chain`] passes the min-cost cuts; a served
/// graph rebuilt on recovery passes the cuts it was first extracted with,
/// so a restart never re-plans it.
///
/// # Panics
///
/// If `cuts` does not hold one flag per join of `chain`.
pub fn plan_with_cuts(chain: &EdgeChain, cost: &ChainCost, cuts: &[bool]) -> ChainPlan {
    let atoms = &chain.steps;
    assert_eq!(cuts.len(), cost.joins.len(), "one cut flag per join");
    let joins = cost
        .joins
        .iter()
        .zip(cuts)
        .enumerate()
        .map(|(i, (j, &cut))| JoinDecision {
            left_atom: i,
            left_table: j.left.clone(),
            right_table: j.right.clone(),
            left_rows: j.left_rows.round() as usize,
            right_rows: j.right_rows.round() as usize,
            distinct: j.distinct as usize,
            estimated_output: j.estimated_output,
            large_output: cut,
        })
        .collect();
    let segments = segments_of(cuts, atoms.len())
        .into_iter()
        .map(|(start, end)| {
            let steps: Vec<ChainStep> = atoms[start..=end].iter().map(atom_to_step).collect();
            SegmentPlan {
                atoms: (start, end),
                query: Query { steps },
            }
        })
        .collect();
    ChainPlan {
        joins,
        segments,
        estimated_cost: cost.cost_of(cuts),
        fingerprint: plan_fingerprint(atoms, cuts),
    }
}

/// Build the single full-expansion query for the chain (the paper's
/// Table 1 "Full Graph" baseline; also Case 2 execution).
pub fn full_query(chain: &EdgeChain) -> Query {
    Query {
        steps: chain.steps.iter().map(atom_to_step).collect(),
    }
}

/// The cost analysis of every `Edges` chain in a spec against one
/// statistics snapshot. `Display` renders the golden-locked plan trees.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// One analysis per `Edges` chain, in rule order.
    pub chains: Vec<ChainCost>,
}

impl Explanation {
    /// Total virtual-node layers across all chains.
    pub fn virtual_layers(&self) -> usize {
        self.chains.iter().map(|c| c.virtual_layers()).sum()
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, chain) in self.chains.iter().enumerate() {
            f.write_str(&render_explain(&format!("chain {}", i + 1), chain))?;
        }
        Ok(())
    }
}

/// Cost every `Edges` chain of `spec` against `db`'s live statistics —
/// pure catalog arithmetic, no table is scanned.
pub fn explain_spec(db: &Database, spec: &GraphSpec, factor: f64) -> DbResult<Explanation> {
    let mut chains = Vec::with_capacity(spec.edges.len());
    for chain in &spec.edges {
        chains.push(cost_chain(db, chain, factor)?);
    }
    Ok(Explanation { chains })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_dsl::compile;
    use graphgen_reldb::{Column, Schema, Table};

    /// AuthorPub with a *large-output* self-join: many authors per pub.
    fn dblp_like(authors: i64, pubs: i64, per_pub: i64) -> Database {
        let mut ap = Table::new(Schema::new(vec![Column::int("aid"), Column::int("pid")]));
        let mut author = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
        for a in 0..authors {
            author
                .push_row(vec![Value::int(a), Value::str(format!("author{a}"))])
                .unwrap();
        }
        let mut next = 0i64;
        for p in 0..pubs {
            for _ in 0..per_pub {
                ap.push_row(vec![Value::int(next % authors), Value::int(p)])
                    .unwrap();
                next += 7;
            }
        }
        let mut db = Database::new();
        db.register("Author", author).unwrap();
        db.register("AuthorPub", ap).unwrap();
        db
    }

    fn coauthor_chain() -> EdgeChain {
        compile(
            "Nodes(ID, Name) :- Author(ID, Name).\n\
             Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P).",
        )
        .unwrap()
        .edges
        .remove(0)
    }

    #[test]
    fn dense_self_join_is_large_output() {
        // 10 authors per pub: |R|^2/d = (1000)^2/100 = 10,000 > 2*2000.
        let db = dblp_like(50, 100, 10);
        let plan = plan_chain(&db, &coauthor_chain(), 2.0).unwrap();
        assert_eq!(plan.joins.len(), 1);
        assert!(plan.joins[0].large_output);
        assert_eq!(plan.virtual_layers(), 1);
        assert_eq!(plan.segments.len(), 2);
    }

    #[test]
    fn sparse_self_join_is_small_output() {
        // 1 author per pub: output ~ |R| -> small.
        let db = dblp_like(100, 100, 1);
        let plan = plan_chain(&db, &coauthor_chain(), 2.0).unwrap();
        assert!(!plan.joins[0].large_output);
        assert_eq!(plan.segments.len(), 1);
        assert_eq!(plan.segments[0].atoms, (0, 1));
    }

    #[test]
    fn segment_queries_cover_the_chain() {
        let db = dblp_like(50, 100, 10);
        let plan = plan_chain(&db, &coauthor_chain(), 2.0).unwrap();
        assert_eq!(plan.segments[0].atoms, (0, 0));
        assert_eq!(plan.segments[1].atoms, (1, 1));
        // Each segment is runnable, and the threaded path returns the same
        // pairs in the same order.
        for seg in &plan.segments {
            let serial = seg.query.run(&db).expect("segment runs");
            assert_eq!(seg.query.run_threaded(&db, 4).expect("threaded"), serial);
        }
    }

    /// A plan built at cuts other than the min-cost ones keeps them, and
    /// carries their cost and fingerprint, not the min-cost plan's.
    #[test]
    fn a_plan_at_given_cuts_is_costed_at_them() {
        use graphgen_dsl::cost::cost_with_cuts;
        let db = dblp_like(50, 100, 10);
        let chain = coauthor_chain();
        let best = plan_chain(&db, &chain, 2.0).unwrap();
        let cost = cost_chain(&db, &chain, 2.0).unwrap();
        let kept = plan_with_cuts(&chain, &cost, &[false]);
        assert_eq!(kept.segments.len(), 1);
        assert!(!kept.joins[0].large_output);
        let live = cost_with_cuts(&catalog_view(&db), &chain.steps, 2.0, &[false]);
        assert_eq!(Some(kept.estimated_cost), live);
        assert!(kept.estimated_cost > best.estimated_cost);
        assert_ne!(kept.fingerprint, best.fingerprint);
    }

    #[test]
    fn full_query_matches_chain_len() {
        let chain = coauthor_chain();
        let q = full_query(&chain);
        assert_eq!(q.steps.len(), 2);
    }

    #[test]
    fn factor_changes_classification() {
        let db = dblp_like(50, 100, 10);
        // With an absurd factor nothing is large.
        let plan = plan_chain(&db, &coauthor_chain(), 1e9).unwrap();
        assert!(!plan.joins[0].large_output);
    }

    fn tagged_db() -> Database {
        let mut t = Table::new(Schema::new(vec![Column::int("aid"), Column::str("tag")]));
        for (a, s) in [(1, "x"), (2, "x"), (2, "y")] {
            t.push_row(vec![Value::int(a), Value::str(s)]).unwrap();
        }
        let mut db = Database::new();
        db.register("AuthorPub", t).unwrap();
        db
    }

    #[test]
    fn catalog_mirrors_schema_and_stats() {
        let catalog = catalog_view(&tagged_db());
        let info = catalog.relation("AuthorPub").expect("registered");
        assert_eq!(
            info.columns,
            vec![
                ("aid".to_string(), ColType::Int),
                ("tag".to_string(), ColType::Str)
            ]
        );
        assert_eq!(info.row_count, Some(3));
        assert_eq!(info.n_distinct, vec![Some(2), Some(2)]);
        assert!(catalog.relation("Missing").is_none());
    }

    #[test]
    fn checker_sees_live_tables() {
        use graphgen_dsl::{check_source, CheckOptions};
        let catalog = catalog_view(&tagged_db());
        let report = check_source(
            "Nodes(ID) :- AuthorPub(ID, _).\nEdges(A, B) :- AuthorPub(A, T), AuthorPub(B, T).",
            Some(&catalog),
            &CheckOptions::default(),
        );
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        let report = check_source(
            "Nodes(ID) :- AuthorPubs(ID, _).",
            Some(&catalog),
            &CheckOptions::default(),
        );
        assert_eq!(report.diagnostics[0].code.code(), "E001");
    }

    #[test]
    fn explain_spec_costs_every_chain_without_scanning() {
        let spec = compile(
            "Nodes(ID, Name) :- Author(ID, Name).\n\
             Edges(A, B) :- AuthorPub(A, P), AuthorPub(B, P).",
        )
        .unwrap();
        let ex = explain_spec(&dblp_like(50, 100, 10), &spec, 2.0).unwrap();
        assert_eq!(ex.chains.len(), 1);
        // 1000·1000/100 = 10000 > 2·2000 -> one virtual layer.
        assert_eq!(ex.virtual_layers(), 1);
        let rendered = ex.to_string();
        assert!(
            rendered.contains("chain 1: AuthorPub ⋈ AuthorPub"),
            "{rendered}"
        );
        assert!(rendered.contains("fingerprint="), "{rendered}");
    }

    #[test]
    fn explain_spec_surfaces_unknown_tables_as_db_errors() {
        let spec = compile(
            "Nodes(ID, Name) :- Author(ID, Name).\n\
             Edges(A, B) :- Missing(A, P), Missing(B, P).",
        )
        .unwrap();
        assert!(explain_spec(&dblp_like(50, 100, 10), &spec, 2.0).is_err());
    }
}
