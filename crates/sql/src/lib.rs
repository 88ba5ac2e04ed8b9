//! # hyperbench-sql
//!
//! The SQL→hypergraph pipeline of §5.2–§5.4 of the HyperBench paper,
//! reproducing the role of the original `hg-tools` Java library:
//!
//! 1. [`parser`]: parse a (possibly complex) SQL query — nested
//!    subqueries, `WITH` views, set operations, non-conjunctive conditions.
//! 2. [`extract`]: build the *dependency graph* between subqueries (§5.3),
//!    drop subqueries involved in cyclic dependencies (correlated
//!    subqueries), expand `WITH` views into their use sites (§5.4), and
//!    extract one *simple query* (conjunctive core) per remaining node.
//! 3. [`convert`]: turn each simple query into a hypergraph (§5.4): one
//!    vertex per attribute of each relation instance, vertices merged by
//!    equi-join conditions, constant-bound attributes removed, empty and
//!    duplicate edges eliminated.
//!
//! ```
//! use hyperbench_sql::{catalog::Catalog, sql_to_hypergraphs};
//!
//! let mut catalog = Catalog::new();
//! catalog.add_table("tab", &["a", "b", "c"]);
//! let hgs = sql_to_hypergraphs(
//!     "SELECT * FROM tab t1, tab t2 WHERE t1.a = t2.a AND t1.b > 5 AND t1.c <> t2.c;",
//!     &catalog,
//! )
//! .unwrap();
//! // Query 1 of the paper: the conjunctive core keeps only the equi-join.
//! assert_eq!(hgs.len(), 1);
//! assert_eq!(hgs[0].num_edges(), 2);
//! assert_eq!(hgs[0].num_vertices(), 5); // a merged, b/c per instance
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod catalog;
pub mod convert;
pub mod error;
pub mod extract;
pub mod parser;
pub mod token;

pub use catalog::Catalog;
pub use error::SqlError;

use hyperbench_core::Hypergraph;

/// End-to-end pipeline: SQL text → simple queries → hypergraphs.
///
/// Returns one hypergraph per extracted simple query (§5.3: "we extract a
/// simple query from each node of the remaining graph"). The first
/// hypergraph corresponds to the outermost query.
pub fn sql_to_hypergraphs(sql: &str, catalog: &Catalog) -> Result<Vec<Hypergraph>, SqlError> {
    let stmt = parser::parse(sql)?;
    let simple = extract::extract_simple_queries(&stmt, catalog)?;
    Ok(simple
        .iter()
        .map(|q| convert::simple_query_to_hypergraph(q, catalog))
        .collect())
}
