//! The single statistics-driven cost engine (§4.2, generalized).
//!
//! Every component that reasons about plan shape — the extraction planner
//! in `graphgen-core`, the `W103`/`W105` lints in [`crate::check`], the
//! `--explain` mode of `graphgen-check`, and the drift detector in
//! `graphgen-serve` — delegates to this module, so the checker and the
//! extractor can never disagree about what the plan looks like.
//!
//! # The model
//!
//! All estimates rest on the paper's **uniform assumption**: a join
//! attribute with `d` distinct values distributes its rows evenly over
//! those values, so joining `L` and `R` on it produces
//!
//! ```text
//! |L| · |R| / d        (d = max of the two sides' n_distinct)
//! ```
//!
//! rows ([`join_output`] is the one place this formula lives). Constant
//! filters scale a scan's cardinality by `1/n_distinct(column)` — the same
//! uniformity assumption applied to selection.
//!
//! A plan for an `n`-atom chain is a set of *cuts*: each of the `n-1`
//! joins is either executed inside a relational segment query or postponed
//! into a layer of virtual nodes. The cost of a plan is
//!
//! * every atom scan (its filtered cardinality), plus
//! * every intermediate join output produced *inside* a segment
//!   (estimates compound left-to-right through the segment), plus
//! * for every cut, `factor · (|left boundary| + |right boundary|)` —
//!   the cost of materializing the condensed representation, with the
//!   paper's `factor` (default 2.0) pricing a boundary row against a
//!   joined row.
//!
//! For a two-atom chain this reduces exactly to the paper's greedy test —
//! cut if and only if `|L|·|R|/d > factor·(|L|+|R|)` — but unlike the
//! greedy left-to-right classification, [`estimate_chain`] enumerates
//! **all `2^(n-1)` cut subsets** and returns the cheapest, which can
//! postpone a per-join-"small" join whose output would compound
//! downstream (and vice versa).

use crate::analyze::{ChainAtom, ConstFilter};
use crate::check::CheckCatalog;
use graphgen_common::FxHasher;
use std::fmt;
use std::hash::Hasher;

/// Chains longer than this fall back to the greedy per-join
/// classification instead of full enumeration (2^(n-1) plans). No real
/// query comes close; this only bounds adversarial input.
const MAX_ENUMERATED_JOINS: usize = 16;

/// The §4.2 uniform-assumption join estimate: `|L| · |R| / d`.
///
/// This is the **only** implementation of the formula in the codebase;
/// planner, lints, EXPLAIN and drift detection all route through it.
pub fn join_output(left_rows: f64, right_rows: f64, distinct: u64) -> f64 {
    left_rows * right_rows / distinct.max(1) as f64
}

/// A stable identity for a plan's *shape*: which joins are cut (and over
/// which atoms). Two plans with the same fingerprint segment the chain
/// identically; the serving layer compares fingerprints across statistics
/// snapshots to detect drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanFingerprint(pub u64);

impl fmt::Display for PlanFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Fingerprint of the plan that cuts `cuts[i]`-marked joins of `atoms`.
/// Deterministic across processes (FxHasher with a fixed seed, fed a
/// canonical byte encoding of the chain shape and the cut set).
pub fn plan_fingerprint(atoms: &[ChainAtom], cuts: &[bool]) -> PlanFingerprint {
    let mut h = FxHasher::default();
    h.write_usize(atoms.len());
    for a in atoms {
        h.write(a.relation.as_bytes());
        h.write_u8(0xfe);
        h.write_usize(a.in_col);
        h.write_usize(a.out_col);
        h.write_usize(a.filters.len());
        for f in &a.filters {
            match f {
                ConstFilter::Int(col, v) => {
                    h.write_u8(0);
                    h.write_usize(*col);
                    h.write_i64(*v);
                }
                ConstFilter::Str(col, s) => {
                    h.write_u8(1);
                    h.write_usize(*col);
                    h.write(s.as_bytes());
                    h.write_u8(0xfe);
                }
            }
        }
    }
    for &c in cuts {
        h.write_u8(c as u8);
    }
    PlanFingerprint(h.finish())
}

/// Cardinality estimate for one chain atom's scan.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomEstimate {
    /// Relation name (for rendering).
    pub relation: String,
    /// Raw catalog row count.
    pub catalog_rows: u64,
    /// Combined selectivity of the atom's constant filters (1.0 if none).
    pub selectivity: f64,
    /// Estimated rows the scan produces: `catalog_rows · selectivity`.
    pub est_rows: f64,
}

/// Statistics-driven estimate for one join of the chain.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEstimate {
    /// Left/right relation names (for rendering and messages).
    pub left: String,
    /// Right relation name.
    pub right: String,
    /// Join column names as `left_col ⋈ right_col` (for rendering).
    pub left_col: String,
    /// Right join column name.
    pub right_col: String,
    /// Estimated rows on each side (after filters).
    pub left_rows: f64,
    /// Right-side estimated rows.
    pub right_rows: f64,
    /// Distinct values of the join attribute (max of the two sides).
    pub distinct: u64,
    /// `|L|·|R|/d` over the two adjacent atoms.
    pub estimated_output: f64,
    /// The greedy test's threshold, `factor · (|L| + |R|)`.
    pub threshold: f64,
    /// True when the **chosen min-cost plan** postpones this join into a
    /// virtual-node layer. Usually `estimated_output > threshold`, but
    /// full-chain enumeration may disagree with the greedy per-join test
    /// when intermediate estimates compound.
    pub cut: bool,
}

/// The full cost analysis of one `Edges` chain against one statistics
/// snapshot: per-atom and per-join estimates plus the chosen min-cost
/// plan (its cuts, total cost and fingerprint).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainCost {
    /// Per-atom scan estimates (length = #atoms).
    pub atoms: Vec<AtomEstimate>,
    /// Per-join estimates with the chosen plan's cut decisions
    /// (length = #atoms - 1).
    pub joins: Vec<JoinEstimate>,
    /// Total estimated cost of the chosen plan.
    pub cost: f64,
    /// How many cut subsets the enumeration evaluated.
    pub plans_considered: usize,
    /// Fingerprint of the chosen plan's shape.
    pub fingerprint: PlanFingerprint,
    /// The factor the analysis ran with (the paper's 2.0 by default).
    pub factor: f64,
}

impl ChainCost {
    /// The chosen plan's cut set, one flag per join.
    pub fn cuts(&self) -> Vec<bool> {
        self.joins.iter().map(|j| j.cut).collect()
    }

    /// Number of virtual-node layers the chosen plan creates (= #cuts).
    pub fn virtual_layers(&self) -> usize {
        self.joins.iter().filter(|j| j.cut).count()
    }

    /// Segment boundaries `[start, end]` (inclusive atom indices) implied
    /// by the chosen cuts.
    pub fn segments(&self) -> Vec<(usize, usize)> {
        segments_of(&self.cuts(), self.atoms.len())
    }

    /// The cost of the plan that applies `cuts` (one flag per join) under
    /// the statistics this analysis ran on: [`ChainCost::cost`] for the
    /// chosen cuts.
    pub fn cost_of(&self, cuts: &[bool]) -> f64 {
        let stats = ChainStats {
            atoms: self.atoms.clone(),
            distinct: self.joins.iter().map(|j| j.distinct).collect(),
        };
        plan_cost(&stats, cuts, self.factor)
    }
}

/// Segment boundaries implied by a cut set over `n_atoms` atoms.
pub fn segments_of(cuts: &[bool], n_atoms: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for i in 0..=cuts.len() {
        if i == cuts.len() || cuts[i] {
            out.push((start, i.min(n_atoms.saturating_sub(1))));
            start = i + 1;
        }
    }
    out
}

/// Per-atom effective cardinalities and per-join distinct counts — the
/// numbers every plan of the chain is costed from. `None` when the
/// catalog lacks a row count for an atom or a distinct count for a join
/// column (then no plan can be costed and the lints stay silent).
struct ChainStats {
    atoms: Vec<AtomEstimate>,
    distinct: Vec<u64>,
}

fn chain_stats(catalog: &CheckCatalog, atoms: &[ChainAtom]) -> Option<ChainStats> {
    let mut out = Vec::with_capacity(atoms.len());
    for atom in atoms {
        let info = catalog.relation(&atom.relation)?;
        let rows = info.row_count?;
        let mut selectivity = 1.0f64;
        for f in &atom.filters {
            let col = match f {
                ConstFilter::Int(c, _) | ConstFilter::Str(c, _) => *c,
            };
            // Unknown n_distinct for a filtered column: assume the filter
            // keeps everything (selectivity 1) rather than guessing.
            if let Some(Some(d)) = info.n_distinct.get(col).copied() {
                if d > 0 {
                    selectivity /= d as f64;
                }
            }
        }
        out.push(AtomEstimate {
            relation: atom.relation.clone(),
            catalog_rows: rows,
            selectivity,
            est_rows: rows as f64 * selectivity,
        });
    }
    let mut distinct = Vec::with_capacity(atoms.len().saturating_sub(1));
    for i in 0..atoms.len().saturating_sub(1) {
        let (left, right) = (&atoms[i], &atoms[i + 1]);
        let ld = catalog
            .relation(&left.relation)?
            .n_distinct
            .get(left.out_col)
            .copied()
            .flatten()?;
        let rd = catalog
            .relation(&right.relation)?
            .n_distinct
            .get(right.in_col)
            .copied()
            .flatten()?;
        // Both columns range over the same attribute domain; take the
        // larger side's count as the domain estimate.
        distinct.push(ld.max(rd).max(1));
    }
    Some(ChainStats {
        atoms: out,
        distinct,
    })
}

/// Cost of the plan that applies the given cut set, under the model in
/// the module docs. Estimates compound through each segment.
fn plan_cost(stats: &ChainStats, cuts: &[bool], factor: f64) -> f64 {
    let mut cost = stats.atoms[0].est_rows;
    let mut running = stats.atoms[0].est_rows;
    for (i, &cut) in cuts.iter().enumerate() {
        let next = stats.atoms[i + 1].est_rows;
        cost += next; // every atom is scanned exactly once
        if cut {
            // Materialize the boundary: the left segment's result rows
            // and the right segment's opening scan, priced at `factor`.
            cost += factor * (running + next);
            running = next;
        } else {
            running = join_output(running, next, stats.distinct[i]);
            cost += running;
        }
    }
    cost
}

/// Analyze `atoms` against `catalog` statistics: enumerate every cut
/// subset, pick the min-cost plan (ties prefer fewer cuts, then the
/// lexicographically first cut set), and report per-atom / per-join
/// estimates alongside it.
///
/// Returns `None` when the catalog lacks the statistics the model needs
/// (a row count for every atom and an n_distinct for every join column).
pub fn estimate_chain(
    catalog: &CheckCatalog,
    atoms: &[ChainAtom],
    factor: f64,
) -> Option<ChainCost> {
    if atoms.is_empty() {
        return None;
    }
    let stats = chain_stats(catalog, atoms)?;
    let n_joins = atoms.len() - 1;
    let (cuts, cost, plans_considered) = if n_joins <= MAX_ENUMERATED_JOINS {
        let mut best: Option<(f64, u32, u64)> = None;
        for mask in 0u64..(1u64 << n_joins) {
            let cuts: Vec<bool> = (0..n_joins).map(|i| mask >> i & 1 == 1).collect();
            let cost = plan_cost(&stats, &cuts, factor);
            let key = (cost, mask.count_ones(), mask);
            let better = match best {
                None => true,
                Some((bc, bp, bm)) => {
                    cost < bc || (cost == bc && (mask.count_ones(), mask) < (bp, bm))
                }
            };
            if better {
                best = Some(key);
            }
        }
        let (cost, _, mask) = best.expect("at least one plan");
        let cuts: Vec<bool> = (0..n_joins).map(|i| mask >> i & 1 == 1).collect();
        (cuts, cost, 1usize << n_joins)
    } else {
        // Fallback: greedy per-join classification (the paper's test).
        let cuts: Vec<bool> = (0..n_joins)
            .map(|i| {
                let (l, r) = (stats.atoms[i].est_rows, stats.atoms[i + 1].est_rows);
                join_output(l, r, stats.distinct[i]) > factor * (l + r)
            })
            .collect();
        let cost = plan_cost(&stats, &cuts, factor);
        (cuts, cost, 1)
    };
    let joins = (0..n_joins)
        .map(|i| {
            let (la, ra) = (&stats.atoms[i], &stats.atoms[i + 1]);
            JoinEstimate {
                left: la.relation.clone(),
                right: ra.relation.clone(),
                left_col: column_name(catalog, &atoms[i].relation, atoms[i].out_col),
                right_col: column_name(catalog, &atoms[i + 1].relation, atoms[i + 1].in_col),
                left_rows: la.est_rows,
                right_rows: ra.est_rows,
                distinct: stats.distinct[i],
                estimated_output: join_output(la.est_rows, ra.est_rows, stats.distinct[i]),
                threshold: factor * (la.est_rows + ra.est_rows),
                cut: cuts[i],
            }
        })
        .collect();
    let fingerprint = plan_fingerprint(atoms, &cuts);
    Some(ChainCost {
        atoms: stats.atoms,
        joins,
        cost,
        plans_considered,
        fingerprint,
        factor,
    })
}

/// Cost the *specific* plan `cuts` (e.g. a frozen plan from an earlier
/// extraction) under the current `catalog` statistics — pure arithmetic,
/// no scans. `None` under the same missing-statistics conditions as
/// [`estimate_chain`].
pub fn cost_with_cuts(
    catalog: &CheckCatalog,
    atoms: &[ChainAtom],
    factor: f64,
    cuts: &[bool],
) -> Option<f64> {
    if atoms.is_empty() || cuts.len() != atoms.len() - 1 {
        return None;
    }
    let stats = chain_stats(catalog, atoms)?;
    Some(plan_cost(&stats, cuts, factor))
}

fn column_name(catalog: &CheckCatalog, relation: &str, col: usize) -> String {
    catalog
        .relation(relation)
        .and_then(|info| info.columns.get(col))
        .map(|(name, _)| name.clone())
        .unwrap_or_else(|| format!("col{col}"))
}

/// Format an estimate for rendering: integers up to 2^53 print exactly,
/// larger values keep `{:.0}`'s behavior.
fn fmt_rows(v: f64) -> String {
    format!("{v:.0}")
}

/// Render one chain's analysis as the plan tree EXPLAIN shows — estimated
/// vs. catalog row counts per scan, the join estimates, and the chosen
/// plan's cost, layers and fingerprint. `label` prefixes the header line
/// (e.g. `chain 1`). The output is golden-locked; change with care.
pub fn render_explain(label: &str, cc: &ChainCost) -> String {
    let mut out = String::new();
    let head: Vec<&str> = cc.atoms.iter().map(|a| a.relation.as_str()).collect();
    out.push_str(&format!("{label}: {}\n", head.join(" ⋈ ")));
    out.push_str(&format!(
        "  plan: cost={} segments={} virtual_layers={} plans_considered={} fingerprint={}\n",
        fmt_rows(cc.cost),
        cc.segments().len(),
        cc.virtual_layers(),
        cc.plans_considered,
        cc.fingerprint,
    ));
    for (i, a) in cc.atoms.iter().enumerate() {
        let sel = if a.selectivity < 1.0 {
            format!(" (selectivity {:.4})", a.selectivity)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "  scan {}: catalog rows={} est rows={}{}\n",
            a.relation,
            a.catalog_rows,
            fmt_rows(a.est_rows),
            sel,
        ));
        if let Some(j) = cc.joins.get(i) {
            let verdict = if j.cut {
                "cut -> virtual-node layer"
            } else {
                "keep -> in segment"
            };
            out.push_str(&format!(
                "  join {}.{} ⋈ {}.{}: d={} |L|·|R|/d={} threshold={} [{}]\n",
                j.left,
                j.left_col,
                j.right,
                j.right_col,
                j.distinct,
                fmt_rows(j.estimated_output),
                fmt_rows(j.threshold),
                verdict,
            ));
        }
    }
    out
}

/// Render the "no statistics" EXPLAIN stub for a chain the catalog cannot
/// cost (missing `rows=` / `distinct=`).
pub fn render_unknown(label: &str, atoms: &[ChainAtom]) -> String {
    let head: Vec<&str> = atoms.iter().map(|a| a.relation.as_str()).collect();
    format!(
        "{label}: {}\n  plan: statistics unavailable (catalog lacks rows=/distinct=); \
         single-segment plan assumed\n",
        head.join(" ⋈ ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::CheckCatalog;
    use crate::compile;

    fn catalog(src: &str) -> CheckCatalog {
        CheckCatalog::parse(src).expect("catalog parses")
    }

    fn chain(src: &str) -> Vec<ChainAtom> {
        compile(src).expect("compiles").edges.remove(0).steps
    }

    const COAUTHORS: &str = "Nodes(ID, N) :- Author(ID, N).\n\
                             Edges(A, B) :- AuthorPub(A, P), AuthorPub(B, P).";

    #[test]
    fn two_atom_chain_reduces_to_the_greedy_test() {
        // est = 1000·1000/10 = 100000 > 2·2000 -> cut.
        let cat = catalog(
            "table Author(id: int, n: str) rows=100 distinct=(100,100)\n\
             table AuthorPub(aid: int, pid: int) rows=1000 distinct=(100, 10)\n",
        );
        let cc = estimate_chain(&cat, &chain(COAUTHORS), 2.0).expect("stats present");
        assert_eq!(cc.plans_considered, 2);
        assert_eq!(cc.joins.len(), 1);
        assert!(cc.joins[0].cut);
        assert_eq!(cc.joins[0].estimated_output, 100_000.0);
        assert_eq!(cc.joins[0].threshold, 4_000.0);
        assert_eq!(cc.virtual_layers(), 1);
        assert_eq!(cc.segments(), vec![(0, 0), (1, 1)]);
        // cut plan: scans 2000 + 2·(1000+1000) = 6000.
        assert_eq!(cc.cost, 6_000.0);
    }

    #[test]
    fn sparse_join_stays_in_one_segment() {
        let cat = catalog(
            "table Author(id: int, n: str) rows=100 distinct=(100,100)\n\
             table AuthorPub(aid: int, pid: int) rows=100 distinct=(100, 100)\n",
        );
        let cc = estimate_chain(&cat, &chain(COAUTHORS), 2.0).expect("stats present");
        assert!(!cc.joins[0].cut);
        assert_eq!(cc.segments(), vec![(0, 1)]);
        // keep plan: scans 200 + output 100 = 300.
        assert_eq!(cc.cost, 300.0);
    }

    #[test]
    fn filters_scale_estimates_by_selectivity() {
        let cat = catalog(
            "table Author(id: int, n: str) rows=100 distinct=(100,100)\n\
             table AuthorPub(aid: int, pid: int, year: int) rows=1000 distinct=(100, 10, 5)\n",
        );
        let atoms = chain(
            "Nodes(ID, N) :- Author(ID, N).\n\
             Edges(A, B) :- AuthorPub(A, P, 2001), AuthorPub(B, P, 2001).",
        );
        let cc = estimate_chain(&cat, &atoms, 2.0).expect("stats present");
        assert_eq!(cc.atoms[0].est_rows, 200.0); // 1000 / 5
        assert_eq!(cc.atoms[0].selectivity, 0.2);
        // est = 200·200/10 = 4000 > 2·400 -> still cut.
        assert_eq!(cc.joins[0].estimated_output, 4_000.0);
        assert!(cc.joins[0].cut);
    }

    #[test]
    fn enumeration_beats_greedy_on_compounding_chains() {
        // Greedy per-join: every est (100·100/50=200) <= 2·200=400 ->
        // no cuts. But keeping both joins compounds: 200 then
        // 200·100/50=400, total 300+200+400=900. Cutting the second join
        // costs 300 + 200 + 2·(200+100)=... -> enumeration must pick the
        // overall cheapest, which here is still the greedy plan; verify
        // the enumeration agrees where compounding is mild...
        let cat = catalog(
            "table N(id: int, n: str) rows=10 distinct=(10,10)\n\
             table R(a: int, k: int) rows=100 distinct=(100, 50)\n\
             table S(k: int, l: int) rows=100 distinct=(50, 50)\n\
             table T(l: int, b: int) rows=100 distinct=(50, 100)\n",
        );
        let atoms = chain(
            "Nodes(ID, X) :- N(ID, X).\n\
             Edges(A, B) :- R(A, K), S(K, L), T(L, B).",
        );
        let cc = estimate_chain(&cat, &atoms, 2.0).expect("stats present");
        assert_eq!(cc.plans_considered, 4);
        assert_eq!(cc.cuts(), vec![false, false]);
        assert_eq!(cc.cost, 900.0);

        // ...and diverges where it is not: make the middle table huge so
        // the first join's intermediate explodes through the second.
        let cat = catalog(
            "table N(id: int, n: str) rows=10 distinct=(10,10)\n\
             table R(a: int, k: int) rows=1000 distinct=(1000, 5)\n\
             table S(k: int, l: int) rows=1000 distinct=(5, 5)\n\
             table T(l: int, b: int) rows=1000 distinct=(5, 1000)\n",
        );
        let cc = estimate_chain(&cat, &atoms, 2.0).expect("stats present");
        // Both joins are large-output by the per-join test and the
        // min-cost plan cuts both.
        assert_eq!(cc.cuts(), vec![true, true]);
        assert_eq!(cc.virtual_layers(), 2);
    }

    #[test]
    fn missing_stats_yield_none_but_cuts_api_matches() {
        let cat = catalog("table Author(id: int, n: str)\ntable AuthorPub(aid: int, pid: int)\n");
        let atoms = chain(COAUTHORS);
        assert!(estimate_chain(&cat, &atoms, 2.0).is_none());
        assert!(cost_with_cuts(&cat, &atoms, 2.0, &[true]).is_none());
    }

    #[test]
    fn fingerprint_is_stable_and_shape_sensitive() {
        let atoms = chain(COAUTHORS);
        let a = plan_fingerprint(&atoms, &[true]);
        let b = plan_fingerprint(&atoms, &[true]);
        let c = plan_fingerprint(&atoms, &[false]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_string().len(), 16);
    }

    #[test]
    fn cost_with_cuts_matches_the_enumerated_plan() {
        let cat = catalog(
            "table Author(id: int, n: str) rows=100 distinct=(100,100)\n\
             table AuthorPub(aid: int, pid: int) rows=1000 distinct=(100, 10)\n",
        );
        let atoms = chain(COAUTHORS);
        let cc = estimate_chain(&cat, &atoms, 2.0).unwrap();
        assert_eq!(cost_with_cuts(&cat, &atoms, 2.0, &cc.cuts()), Some(cc.cost));
        // The rejected plan costs more.
        assert_eq!(cost_with_cuts(&cat, &atoms, 2.0, &[false]), Some(102_000.0));
    }

    #[test]
    fn factor_zero_cuts_everything_with_rows() {
        let cat = catalog(
            "table Author(id: int, n: str) rows=100 distinct=(100,100)\n\
             table AuthorPub(aid: int, pid: int) rows=100 distinct=(100, 100)\n",
        );
        let cc = estimate_chain(&cat, &chain(COAUTHORS), 0.0).unwrap();
        assert!(cc.joins[0].cut, "factor 0 postpones every non-empty join");
    }

    #[test]
    fn render_is_deterministic() {
        let cat = catalog(
            "table Author(id: int, n: str) rows=100 distinct=(100,100)\n\
             table AuthorPub(aid: int, pid: int) rows=1000 distinct=(100, 10)\n",
        );
        let atoms = chain(COAUTHORS);
        let cc = estimate_chain(&cat, &atoms, 2.0).unwrap();
        let r = render_explain("chain 1", &cc);
        assert!(r.starts_with("chain 1: AuthorPub ⋈ AuthorPub\n"), "{r}");
        assert!(r.contains("cost=6000"), "{r}");
        assert!(
            r.contains("join AuthorPub.pid ⋈ AuthorPub.pid: d=10"),
            "{r}"
        );
        assert!(r.contains("[cut -> virtual-node layer]"), "{r}");
        assert_eq!(r, render_explain("chain 1", &cc));
        let unknown = render_unknown("chain 2", &atoms);
        assert!(unknown.contains("statistics unavailable"), "{unknown}");
    }
}
