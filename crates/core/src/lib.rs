//! # hyperbench-core
//!
//! Core hypergraph data structures and structural analyses for the HyperBench
//! reproduction (Fischl, Gottlob, Longo, Pichler: *HyperBench: A Benchmark and
//! Tool for Hypergraphs and Empirical Findings*, PODS 2019).
//!
//! This crate provides:
//!
//! * [`Hypergraph`]: an immutable hypergraph with interned vertex/edge names,
//!   sorted edge vertex lists and a vertex→edge incidence index,
//! * [`HypergraphBuilder`]: incremental construction with string interning,
//! * [`BitSet`]: the dense bitset used for vertex and edge sets throughout,
//! * [`components`]: connected components and `[U]`-components (§3.3 of the
//!   paper),
//! * [`separators`]: separator helpers including balanced-separator checks
//!   (§3.3, §4.4),
//! * [`properties`]: degree, intersection size (BIP), c-multi-intersection
//!   size (BMIP) and VC-dimension (§3.5, §6.1),
//! * [`subedges`]: the subedge function `f(H,k)` of Eq. 1 and its local
//!   variant `f_u(H,k)` of Eq. 2 (§4.1–4.3),
//! * `format`: the DetKDecomp-compatible `HG` text format,
//! * [`hash`]: FNV-1a, the workspace's one checksum / fingerprint hash,
//! * [`stats`]: size metrics and the bucketing used by Figure 3.
//!
//! ## Quick example
//!
//! ```
//! use hyperbench_core::HypergraphBuilder;
//!
//! // The triangle query: R(a,b) ∧ S(b,c) ∧ T(c,a).
//! let mut b = HypergraphBuilder::new();
//! b.add_edge("R", &["a", "b"]);
//! b.add_edge("S", &["b", "c"]);
//! b.add_edge("T", &["c", "a"]);
//! let h = b.build();
//! assert_eq!(h.num_vertices(), 3);
//! assert_eq!(h.num_edges(), 3);
//! assert_eq!(hyperbench_core::properties::degree(&h), 2);
//! ```

#![forbid(unsafe_code)]

pub mod bitset;
pub mod builder;
pub mod components;
pub mod error;
pub mod format;
pub mod gyo;
pub mod hash;
pub mod hypergraph;
pub mod properties;
pub mod separators;
pub mod stats;
pub mod subedges;
pub mod transform;
pub mod util;

pub use bitset::BitSet;
pub use builder::HypergraphBuilder;
pub use error::CoreError;
pub use hypergraph::{EdgeId, Hypergraph, VertexId};
