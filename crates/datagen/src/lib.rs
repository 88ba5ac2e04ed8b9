//! # hyperbench-datagen
//!
//! Synthetic workload generators standing in for the HyperBench source
//! collections (Table 1 of the paper). The original data is partly
//! license-restricted (the SPARQL logs are private, the Wikidata
//! hypergraphs had to be anonymized), so this crate regenerates each
//! collection from its *published structural envelope*: instance counts
//! from Table 1, size ranges from §5.6 / Figure 3, and shape families that
//! exercise the same pipeline code paths:
//!
//! * CQ collections expressed as **SQL text** run through the full
//!   §5.2–§5.4 pipeline of [`hyperbench_sql`] (TPC-H/TPC-DS-style schemas,
//!   star/chain/snowflake joins, nested subqueries, views, set
//!   operations);
//! * CSP collections expressed as **XCSP3 XML** run through
//!   [`hyperbench_csp`] (structured application families plus uniform
//!   random instances);
//! * graph-query collections (SPARQL, Wikidata) and the `CSP Other`
//!   hypergraph library (pebbling grids, ISCAS-style circuits,
//!   Daimler-style configuration) generated directly as hypergraphs.
//!
//! Every generator is deterministic in its seed.

#![forbid(unsafe_code)]

pub mod collections;
pub mod cqrand;
pub mod cspgen;
pub mod cspother;
pub mod csprand;
pub mod graphgen;
pub mod sqlgen;

use hyperbench_core::Hypergraph;

/// The five benchmark classes of the paper (§5.6, Figure 3, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchClass {
    /// Non-random CQs (SPARQL, Wikidata, LUBM, iBench, Doctors, Deep, JOB,
    /// TPC-H, TPC-DS, SQLShare).
    CqApplication,
    /// Randomly generated CQs.
    CqRandom,
    /// CSPs from concrete applications (XCSP).
    CspApplication,
    /// Randomly generated CSPs (XCSP).
    CspRandom,
    /// The DBAI hypergraph library (DaimlerChrysler, ISCAS circuits,
    /// pebbling grids).
    CspOther,
}

impl BenchClass {
    /// All five classes in the paper's presentation order.
    pub const ALL: [BenchClass; 5] = [
        BenchClass::CqApplication,
        BenchClass::CqRandom,
        BenchClass::CspApplication,
        BenchClass::CspRandom,
        BenchClass::CspOther,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            BenchClass::CqApplication => "CQ Application",
            BenchClass::CqRandom => "CQ Random",
            BenchClass::CspApplication => "CSP Application",
            BenchClass::CspRandom => "CSP Random",
            BenchClass::CspOther => "CSP Other",
        }
    }
}

/// One benchmark instance: a hypergraph tagged with its origin.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Collection name (Table 1 row, e.g. `TPC-H`).
    pub collection: &'static str,
    /// Benchmark class.
    pub class: BenchClass,
    /// The hypergraph.
    pub hypergraph: Hypergraph,
}

pub use collections::{generate_benchmark, generate_collection, CollectionSpec, TABLE1};
