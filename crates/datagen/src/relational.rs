//! Schema-faithful relational instances (Fig. 15 substitutes).
//!
//! Group-membership tables (AuthorPub, cast_info, LineItem, TookCourse) are
//! generated with a Zipf-like popularity skew over the entity side so that
//! co-occurrence graphs exhibit the overlapping-clique structure real
//! datasets show, and with group sizes drawn around the paper's reported
//! averages.

use graphgen_common::SplitMix64;
use graphgen_reldb::{Column, Database, Schema, Table, Value};

/// Draw a group size around `mean` (geometric-ish, at least 1).
fn group_size(rng: &mut SplitMix64, mean: f64) -> usize {
    // Exponential with the given mean, rounded, clamped to >= 1.
    let u = rng.next_f64().max(1e-12);
    ((-u.ln() * mean).round() as usize).max(1)
}

/// Zipf-ish entity sampler: entity popularity ∝ 1/(rank+1)^s approximated
/// by inverse-CDF sampling over a precomputed cumulative table.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Self { cumulative }
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// DBLP-shaped dataset parameters.
#[derive(Debug, Clone, Copy)]
pub struct DblpConfig {
    /// Number of authors.
    pub authors: usize,
    /// Number of publications.
    pub publications: usize,
    /// Mean authors per publication (the paper reports ~2 for DBLP).
    pub avg_authors_per_pub: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        Self {
            authors: 5_000,
            publications: 9_000,
            avg_authors_per_pub: 2.0,
            seed: 1,
        }
    }
}

/// Generate `Author(id, name)` + `AuthorPub(aid, pid)`.
pub fn dblp_like(cfg: DblpConfig) -> Database {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut author = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
    author.reserve(cfg.authors);
    for a in 0..cfg.authors {
        author
            .push_row(vec![
                Value::int(a as i64),
                Value::str(format!("author_{a}")),
            ])
            .expect("schema");
    }
    let zipf = Zipf::new(cfg.authors, 0.8);
    let mut ap = Table::new(Schema::new(vec![Column::int("aid"), Column::int("pid")]));
    for p in 0..cfg.publications {
        let k = group_size(&mut rng, cfg.avg_authors_per_pub).min(cfg.authors);
        let mut members = Vec::with_capacity(k);
        while members.len() < k {
            let a = zipf.sample(&mut rng);
            if !members.contains(&a) {
                members.push(a);
            }
        }
        for a in members {
            ap.push_row(vec![Value::int(a as i64), Value::int(p as i64)])
                .expect("schema");
        }
    }
    let mut db = Database::new();
    db.register("Author", author).expect("fresh db");
    db.register("AuthorPub", ap).expect("fresh db");
    db
}

/// The co-authors extraction query for [`dblp_like`] databases (\[Q1\]).
pub const DBLP_COAUTHORS: &str = "Nodes(ID, Name) :- Author(ID, Name).\n\
     Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).";

/// IMDB-shaped dataset parameters.
#[derive(Debug, Clone, Copy)]
pub struct ImdbConfig {
    /// Number of actors.
    pub actors: usize,
    /// Number of movies.
    pub movies: usize,
    /// Mean cast size (the paper reports ~10 for IMDB).
    pub avg_cast: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ImdbConfig {
    fn default() -> Self {
        Self {
            actors: 4_000,
            movies: 900,
            avg_cast: 10.0,
            seed: 2,
        }
    }
}

/// Generate `name(id, name)` + `cast_info(person_id, movie_id)`.
pub fn imdb_like(cfg: ImdbConfig) -> Database {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut name = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
    for a in 0..cfg.actors {
        name.push_row(vec![Value::int(a as i64), Value::str(format!("actor_{a}"))])
            .expect("schema");
    }
    let zipf = Zipf::new(cfg.actors, 0.9);
    let mut cast = Table::new(Schema::new(vec![
        Column::int("person_id"),
        Column::int("movie_id"),
    ]));
    for m in 0..cfg.movies {
        let k = group_size(&mut rng, cfg.avg_cast).min(cfg.actors);
        let mut members = Vec::with_capacity(k);
        while members.len() < k {
            let a = zipf.sample(&mut rng);
            if !members.contains(&a) {
                members.push(a);
            }
        }
        for a in members {
            cast.push_row(vec![Value::int(a as i64), Value::int(m as i64)])
                .expect("schema");
        }
    }
    let mut db = Database::new();
    db.register("name", name).expect("fresh db");
    db.register("cast_info", cast).expect("fresh db");
    db
}

/// The co-actors extraction query for [`imdb_like`] databases.
pub const IMDB_COACTORS: &str = "Nodes(ID, Name) :- name(ID, Name).\n\
     Edges(ID1, ID2) :- cast_info(ID1, M), cast_info(ID2, M).";

/// TPCH-shaped dataset parameters.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// Customers.
    pub customers: usize,
    /// Orders (each owned by a random customer).
    pub orders: usize,
    /// Distinct parts.
    pub parts: usize,
    /// Mean line items per order.
    pub avg_lineitems: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        Self {
            customers: 1_500,
            orders: 4_000,
            parts: 120,
            avg_lineitems: 3.0,
            seed: 3,
        }
    }
}

/// Generate `Customer` + `Orders` + `LineItem`. Few distinct parts relative
/// to order volume reproduces the paper's TPCH observation: a small input
/// hiding an extremely dense co-purchase graph.
pub fn tpch_like(cfg: TpchConfig) -> Database {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut customer = Table::new(Schema::new(vec![
        Column::int("custkey"),
        Column::str("name"),
    ]));
    for c in 0..cfg.customers {
        customer
            .push_row(vec![Value::int(c as i64), Value::str(format!("cust_{c}"))])
            .expect("schema");
    }
    let mut orders = Table::new(Schema::new(vec![
        Column::int("orderkey"),
        Column::int("custkey"),
    ]));
    for o in 0..cfg.orders {
        let c = rng.next_below(cfg.customers as u64) as i64;
        orders
            .push_row(vec![Value::int(o as i64), Value::int(c)])
            .expect("schema");
    }
    let zipf = Zipf::new(cfg.parts, 0.7);
    let mut lineitem = Table::new(Schema::new(vec![
        Column::int("orderkey"),
        Column::int("partkey"),
    ]));
    for o in 0..cfg.orders {
        let k = group_size(&mut rng, cfg.avg_lineitems).min(cfg.parts);
        for _ in 0..k {
            let p = zipf.sample(&mut rng) as i64;
            lineitem
                .push_row(vec![Value::int(o as i64), Value::int(p)])
                .expect("schema");
        }
    }
    let mut db = Database::new();
    db.register("Customer", customer).expect("fresh db");
    db.register("Orders", orders).expect("fresh db");
    db.register("LineItem", lineitem).expect("fresh db");
    db
}

/// The co-purchase extraction query for [`tpch_like`] databases (\[Q2\]).
pub const TPCH_COPURCHASE: &str = "Nodes(ID, Name) :- Customer(ID, Name).\n\
     Edges(ID1, ID2) :- Orders(OK1, ID1), LineItem(OK1, PK), \
                        Orders(OK2, ID2), LineItem(OK2, PK).";

/// UNIV-shaped dataset parameters (db-book.com sample substitute).
#[derive(Debug, Clone, Copy)]
pub struct UnivConfig {
    /// Students.
    pub students: usize,
    /// Instructors.
    pub instructors: usize,
    /// Courses.
    pub courses: usize,
    /// Mean courses per student.
    pub avg_courses_per_student: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UnivConfig {
    fn default() -> Self {
        Self {
            students: 2_000,
            instructors: 50,
            courses: 100,
            avg_courses_per_student: 4.0,
            seed: 4,
        }
    }
}

/// Generate `Student` + `Instructor` + `TookCourse` + `TaughtCourse`.
pub fn univ(cfg: UnivConfig) -> Database {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut student = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
    for s in 0..cfg.students {
        student
            .push_row(vec![
                Value::int(s as i64),
                Value::str(format!("student_{s}")),
            ])
            .expect("schema");
    }
    let mut instructor = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
    for i in 0..cfg.instructors {
        // Instructor ids live above the student range so heterogeneous
        // graphs don't collide.
        instructor
            .push_row(vec![
                Value::int((cfg.students + i) as i64),
                Value::str(format!("instructor_{i}")),
            ])
            .expect("schema");
    }
    let mut took = Table::new(Schema::new(vec![Column::int("sid"), Column::int("cid")]));
    for s in 0..cfg.students {
        let k = group_size(&mut rng, cfg.avg_courses_per_student).min(cfg.courses);
        let mut picked = Vec::with_capacity(k);
        while picked.len() < k {
            let c = rng.next_below(cfg.courses as u64) as i64;
            if !picked.contains(&c) {
                picked.push(c);
            }
        }
        for c in picked {
            took.push_row(vec![Value::int(s as i64), Value::int(c)])
                .expect("schema");
        }
    }
    let mut taught = Table::new(Schema::new(vec![Column::int("iid"), Column::int("cid")]));
    for c in 0..cfg.courses {
        let i = (cfg.students + rng.next_below(cfg.instructors as u64) as usize) as i64;
        taught
            .push_row(vec![Value::int(i), Value::int(c as i64)])
            .expect("schema");
    }
    let mut db = Database::new();
    db.register("Student", student).expect("fresh db");
    db.register("Instructor", instructor).expect("fresh db");
    db.register("TookCourse", took).expect("fresh db");
    db.register("TaughtCourse", taught).expect("fresh db");
    db
}

/// Co-enrollment query (Table 1's UNIV row).
pub const UNIV_COENROLLMENT: &str = "Nodes(ID, Name) :- Student(ID, Name).\n\
     Edges(ID1, ID2) :- TookCourse(ID1, C), TookCourse(ID2, C).";

/// Instructor→student bipartite query (\[Q3\]).
pub const UNIV_BIPARTITE: &str = "Nodes(ID, Name) :- Instructor(ID, Name).\n\
     Nodes(ID, Name) :- Student(ID, Name).\n\
     Edges(ID1, ID2) :- TaughtCourse(ID1, C), TookCourse(ID2, C).";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dblp_shape() {
        let db = dblp_like(DblpConfig {
            authors: 100,
            publications: 200,
            avg_authors_per_pub: 2.0,
            seed: 7,
        });
        assert_eq!(db.table("Author").unwrap().num_rows(), 100);
        let ap = db.table("AuthorPub").unwrap();
        let avg = ap.num_rows() as f64 / 200.0;
        assert!((1.0..4.0).contains(&avg), "avg authors/pub = {avg}");
    }

    #[test]
    fn deterministic_by_seed() {
        let a = dblp_like(DblpConfig::default());
        let b = dblp_like(DblpConfig::default());
        assert_eq!(
            a.table("AuthorPub").unwrap().num_rows(),
            b.table("AuthorPub").unwrap().num_rows()
        );
    }

    #[test]
    fn imdb_has_bigger_groups_than_dblp() {
        let db = imdb_like(ImdbConfig {
            actors: 500,
            movies: 100,
            avg_cast: 10.0,
            seed: 5,
        });
        let avg = db.table("cast_info").unwrap().num_rows() as f64 / 100.0;
        assert!(avg > 5.0, "avg cast = {avg}");
    }

    #[test]
    fn tpch_tables_consistent() {
        let db = tpch_like(TpchConfig::default());
        assert_eq!(db.table("Orders").unwrap().num_rows(), 4_000);
        let li = db.table("LineItem").unwrap();
        // partkey domain is small -> the co-purchase graph will be dense
        assert!(li.distinct_count(1) <= 120);
    }

    #[test]
    fn univ_ids_disjoint() {
        let db = univ(UnivConfig::default());
        let students = db.table("Student").unwrap();
        let instructors = db.table("Instructor").unwrap();
        let max_student = students
            .iter_rows()
            .filter_map(|row| row[0].as_int())
            .max()
            .unwrap();
        let min_instructor = instructors
            .iter_rows()
            .filter_map(|row| row[0].as_int())
            .min()
            .unwrap();
        assert!(min_instructor > max_student);
    }

    #[test]
    fn queries_compile() {
        for q in [
            DBLP_COAUTHORS,
            IMDB_COACTORS,
            TPCH_COPURCHASE,
            UNIV_COENROLLMENT,
            UNIV_BIPARTITE,
        ] {
            graphgen_dsl::compile(q).unwrap();
        }
    }
}
