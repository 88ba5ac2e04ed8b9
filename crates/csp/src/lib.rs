//! # hyperbench-csp
//!
//! The XCSP→hypergraph pipeline of §5.5 of the HyperBench paper.
//!
//! The benchmark's CSP instances come from the XCSP3 repository — an
//! XML-based interchange format for constraint problems. This crate
//! provides a minimal XML parser ([`xml`]), a parser for the XCSP3
//! fragment the benchmark needs ([`xcsp`]) — variables, variable arrays,
//! extensional constraints, `intension`, `allDifferent`, `sum` and
//! constraint groups — and the conversion described in the paper:
//! "whenever the program reads a variable, it adds a vertex to the
//! hypergraph, and, whenever it reads a constraint, it adds an edge
//! containing the vertices corresponding to the variables affected by the
//! constraint."
//!
//! ```
//! let text = r#"
//! <instance format="XCSP3" type="CSP">
//!   <variables>
//!     <var id="x"> 0..3 </var>
//!     <var id="y"> 0..3 </var>
//!     <var id="z"> 0..3 </var>
//!   </variables>
//!   <constraints>
//!     <extension> <list> x y </list> <supports> (0,1)(1,2) </supports> </extension>
//!     <extension> <list> y z </list> <supports> (0,1) </supports> </extension>
//!   </constraints>
//! </instance>"#;
//! let inst = hyperbench_csp::xcsp::parse_xcsp(text).unwrap();
//! let h = hyperbench_csp::xcsp::to_hypergraph(&inst, "demo");
//! assert_eq!(h.num_edges(), 2);
//! assert_eq!(h.num_vertices(), 3);
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod xcsp;
pub mod xml;

pub use error::CspError;

/// End-to-end convenience: XCSP3 text → hypergraph.
pub fn xcsp_to_hypergraph(text: &str, name: &str) -> Result<hyperbench_core::Hypergraph, CspError> {
    let inst = xcsp::parse_xcsp(text)?;
    Ok(xcsp::to_hypergraph(&inst, name))
}
