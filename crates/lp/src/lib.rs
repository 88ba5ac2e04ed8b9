//! # hyperbench-lp
//!
//! A small, exact linear-programming toolkit used by the HyperBench
//! reproduction to compute *fractional edge covers* (§3.2 and §6.5 of the
//! paper).
//!
//! The fractional hypertree width machinery only ever solves tiny LPs — one
//! variable per edge touching a bag, one covering constraint per bag vertex
//! — so this crate favours exactness over scale: arithmetic is done in
//! reduced `i128` rationals ([`Rational`]) and the solver is a dense
//! two-phase primal simplex with Bland's rule ([`simplex`]), which
//! terminates without cycling and returns exact optima.
//!
//! The main entry point for decomposition code is
//! [`cover::fractional_edge_cover`].
//!
//! ```
//! use hyperbench_core::builder::hypergraph_from_edges;
//! use hyperbench_core::BitSet;
//! use hyperbench_lp::cover::fractional_edge_cover;
//!
//! // The triangle: every vertex pair is an edge; covering all three
//! // vertices fractionally costs 3/2.
//! let h = hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])]);
//! let bag = BitSet::from_slice(&[0, 1, 2]);
//! let cover = fractional_edge_cover(&h, &bag).unwrap();
//! assert_eq!(cover.weight.to_string(), "3/2");
//! ```

#![forbid(unsafe_code)]

pub mod cover;
pub mod rational;
pub mod simplex;

pub use cover::{fractional_edge_cover, FractionalCover};
pub use rational::Rational;
pub use simplex::{LinearProgram, LpError, Solution};
