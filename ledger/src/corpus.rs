//! The served corpus: `generate_benchmark(seed, scale)` kept in memory
//! as the mirror every answer is checked against, and written out as
//! the pack file(s) the children serve.

use std::path::Path;

use hyperbench_api::dto::{EdgeDto, EntryDetail, EntrySummary};
use hyperbench_core::Hypergraph;
use hyperbench_datagen::{generate_benchmark, Instance};
use hyperbench_repo::store::pack::write_pack;
use hyperbench_repo::Repository;

/// The corpus, indexed by the id the server assigns (insertion order).
pub struct Corpus {
    pub instances: Vec<Instance>,
}

impl Corpus {
    pub fn generate(seed: u64, scale: f64) -> Corpus {
        Corpus {
            instances: generate_benchmark(seed, scale),
        }
    }

    pub fn len(&self) -> usize {
        self.instances.len()
    }

    pub fn hypergraph(&self, id: usize) -> &Hypergraph {
        &self.instances[id].hypergraph
    }

    /// The summary row the server must answer for entry `id`.
    pub fn summary(&self, id: usize) -> EntrySummary {
        let inst = &self.instances[id];
        EntrySummary {
            id,
            collection: inst.collection.to_string(),
            class: inst.class.name().to_string(),
            vertices: inst.hypergraph.num_vertices(),
            edges: inst.hypergraph.num_edges(),
            arity: inst.hypergraph.arity(),
            analyzed: false,
            hw_upper: None,
            hw_lower: None,
        }
    }

    /// The detail document the server must answer for entry `id`.
    pub fn detail(&self, id: usize) -> EntryDetail {
        let h = self.hypergraph(id);
        EntryDetail {
            summary: self.summary(id),
            edge_list: h
                .edge_ids()
                .map(|e| EdgeDto {
                    name: h.edge_name(e).to_string(),
                    vertices: h
                        .edge(e)
                        .iter()
                        .map(|&v| h.vertex_name(v).to_string())
                        .collect(),
                })
                .collect(),
            analysis: None,
        }
    }

    /// Ascending ids of the entries satisfying `keep`.
    pub fn matching(&self, keep: impl Fn(&Instance) -> bool) -> Vec<usize> {
        self.instances
            .iter()
            .enumerate()
            .filter(|(_, inst)| keep(inst))
            .map(|(id, _)| id)
            .collect()
    }

    /// Writes the entries with `id % shards == shard` as one pack, in id
    /// order, so a shard's local id is `id / shards` and the router's
    /// `local·shards + shard` federation reproduces the corpus ids.
    pub fn write_shard_pack(&self, shard: usize, shards: usize, path: &Path) -> Result<(), String> {
        let mut repo = Repository::new();
        for inst in self.instances.iter().skip(shard).step_by(shards) {
            repo.insert(inst.hypergraph.clone(), inst.collection, inst.class.name());
        }
        write_pack(&repo, path).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn write_pack(&self, path: &Path) -> Result<(), String> {
        self.write_shard_pack(0, 1, path)
    }
}
