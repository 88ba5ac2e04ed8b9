//! HBQL — the HyperBench query language.
//!
//! A small, hand-rolled query language over the repository's metadata
//! index: the paper's workflow of slicing the corpus along structural
//! properties ("retrieve the hypergraphs … with a broad spectrum of
//! properties", §1) as a typed language instead of a grab-bag of
//! `?key=value` params.
//!
//! ```text
//! SELECT * WHERE class = "CSP Application" AND hw_upper <= 5 ORDER BY edges DESC LIMIT 20
//! SELECT collection, COUNT(*), AVG(arity) WHERE analyzed = TRUE GROUP BY collection
//! ```
//!
//! The pipeline is classic: [`token`] lexes to spanned tokens,
//! [`parser`] builds the typed [`ast`], [`resolve()`] checks every field
//! reference against the [`catalog`] (derived from
//! [`hyperbench_api::schema`], so the wire schema and the query language
//! cannot drift), and [`exec`] evaluates the resolved [`Plan`] over an
//! `EntryMeta` scan — never hydrating entries, which the
//! `hyperbench_query_rows_hydrated_total` counter proves at runtime.
//! Errors at every stage carry byte-offset [`Span`]s into the query
//! text.
//!
//! The legacy `?key=value` filter params compile into the same AST via
//! [`legacy::desugar_params`], so the whole service has exactly one
//! predicate-evaluation path.

#![forbid(unsafe_code)]

pub mod ast;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod legacy;
pub mod metrics;
pub mod parser;
pub mod resolve;
pub mod token;

pub use ast::Query;
pub use error::QueryError;
pub use exec::{GroupRows, RowPage};
pub use parser::parse;
pub use resolve::{resolve, Plan};
pub use token::Span;

use std::time::Instant;

/// Compiles query text into an executable [`Plan`]: lex + parse +
/// resolve, with each stage timed into the `query` metric family.
pub fn compile(text: &str) -> Result<Plan, QueryError> {
    let m = metrics::metrics();
    m.queries.inc();
    let t0 = Instant::now();
    let query = parser::parse(text).inspect_err(|_| m.errors.inc())?;
    m.parse_us.observe(t0.elapsed().as_micros() as u64);
    let t1 = Instant::now();
    let plan = resolve::resolve(&query).inspect_err(|_| m.errors.inc())?;
    m.plan_us.observe(t1.elapsed().as_micros() as u64);
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_accepts_and_rejects() {
        assert!(compile("SELECT * WHERE hw_upper <= 5").is_ok());
        assert!(compile("SELECT nonsense !").is_err());
        assert!(compile("SELECT * WHERE hw <= 5").is_err());
    }
}
