//! The immutable [`Hypergraph`] type.
//!
//! A hypergraph `H = (V(H), E(H))` is a set of vertices and a set of
//! non-empty hyperedges (§3.1 of the paper). As in the paper we assume there
//! are no isolated vertices, so `V(H)` is exactly the union of the edges and
//! the hypergraph can be identified with its edge set.

use crate::bitset::BitSet;

/// Identifier of a vertex within a [`Hypergraph`] (dense, `0..num_vertices`).
pub type VertexId = u32;

/// Identifier of an edge within a [`Hypergraph`] (dense, `0..num_edges`).
pub type EdgeId = u32;

/// An immutable hypergraph with named vertices and edges.
///
/// Construct via [`crate::HypergraphBuilder`]. Edges store their vertices as
/// sorted, deduplicated id lists; a parallel list of [`BitSet`]s and a
/// vertex→edge incidence index are precomputed for the algorithms.
#[derive(Clone)]
pub struct Hypergraph {
    pub(crate) name: String,
    pub(crate) vertex_names: Vec<String>,
    pub(crate) edge_names: Vec<String>,
    /// Sorted vertex ids of each edge.
    pub(crate) edges: Vec<Vec<VertexId>>,
    /// Bitset view of each edge.
    pub(crate) edge_sets: Vec<BitSet>,
    /// For each vertex, the sorted list of edges containing it.
    pub(crate) incidence: Vec<Vec<EdgeId>>,
}

impl Hypergraph {
    /// The (file or collection) name of this hypergraph. Empty if unnamed.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of vertices `|V(H)|`.
    pub fn num_vertices(&self) -> usize {
        self.vertex_names.len()
    }

    /// Number of edges `|E(H)|`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The maximum edge size, i.e. the arity of the corresponding query.
    /// Zero for the empty hypergraph.
    pub fn arity(&self) -> usize {
        self.edges.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The sorted vertex ids of edge `e`.
    pub fn edge(&self, e: EdgeId) -> &[VertexId] {
        &self.edges[e as usize]
    }

    /// The bitset of vertices of edge `e`.
    pub fn edge_set(&self, e: EdgeId) -> &BitSet {
        &self.edge_sets[e as usize]
    }

    /// The display name of edge `e`.
    pub fn edge_name(&self, e: EdgeId) -> &str {
        &self.edge_names[e as usize]
    }

    /// The display name of vertex `v`.
    pub fn vertex_name(&self, v: VertexId) -> &str {
        &self.vertex_names[v as usize]
    }

    /// Looks up a vertex id by name (linear scan; intended for tests and
    /// small tools, not hot paths).
    pub fn vertex_by_name(&self, name: &str) -> Option<VertexId> {
        self.vertex_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as VertexId)
    }

    /// Looks up an edge id by name (linear scan).
    pub fn edge_by_name(&self, name: &str) -> Option<EdgeId> {
        self.edge_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as EdgeId)
    }

    /// The sorted list of edges containing vertex `v`.
    pub fn edges_of(&self, v: VertexId) -> &[EdgeId] {
        &self.incidence[v as usize]
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        0..self.edges.len() as EdgeId
    }

    /// Iterates over all vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.vertex_names.len() as VertexId
    }

    /// The union of the vertex sets of `edges`.
    pub fn vertices_of_edges(&self, edges: &[EdgeId]) -> BitSet {
        let mut s = BitSet::with_capacity(self.num_vertices());
        for &e in edges {
            s.union_with(self.edge_set(e));
        }
        s
    }

    /// Whether two edges have identical vertex sets.
    pub fn edges_equal(&self, a: EdgeId, b: EdgeId) -> bool {
        self.edges[a as usize] == self.edges[b as usize]
    }

    /// Total number of vertex occurrences, `Σ_e |e|`.
    pub fn total_edge_size(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Returns `true` if vertex `v` occurs in edge `e`.
    pub fn edge_contains(&self, e: EdgeId, v: VertexId) -> bool {
        self.edge_sets[e as usize].contains(v)
    }
}

impl std::fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Hypergraph({:?}, {} vertices, {} edges)",
            self.name,
            self.num_vertices(),
            self.num_edges()
        )?;
        for e in self.edge_ids() {
            let vs: Vec<&str> = self.edge(e).iter().map(|&v| self.vertex_name(v)).collect();
            writeln!(f, "  {}({})", self.edge_name(e), vs.join(","))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::HypergraphBuilder;

    fn triangle() -> crate::Hypergraph {
        let mut b = HypergraphBuilder::new();
        b.add_edge("R", &["a", "b"]);
        b.add_edge("S", &["b", "c"]);
        b.add_edge("T", &["c", "a"]);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let h = triangle();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.arity(), 2);
        assert_eq!(h.total_edge_size(), 6);
        let a = h.vertex_by_name("a").unwrap();
        assert_eq!(h.edges_of(a).len(), 2);
        let r = h.edge_by_name("R").unwrap();
        assert!(h.edge_contains(r, a));
    }

    #[test]
    fn vertices_of_edges_unions() {
        let h = triangle();
        let all = h.vertices_of_edges(&[0, 1]);
        assert_eq!(all.len(), 3);
        let one = h.vertices_of_edges(&[0]);
        assert_eq!(one.len(), 2);
    }

    #[test]
    fn incidence_is_sorted() {
        let h = triangle();
        for v in h.vertex_ids() {
            let inc = h.edges_of(v);
            assert!(inc.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn debug_output_mentions_edges() {
        let h = triangle();
        let s = format!("{h:?}");
        assert!(s.contains("R(a,b)"));
    }
}
