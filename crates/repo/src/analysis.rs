//! Per-instance analysis: the properties of Table 2 plus hw bounds from
//! the iterative width search of Figure 4.
//!
//! Two entry points: [`analyze_instance`] computes the bounds-only
//! [`AnalysisRecord`] the repository stores, while
//! [`analyze_instance_retaining`] additionally keeps the witness
//! [`Decomposition`] the width search found (and, for `fhd`, the
//! `ImproveHD` fractional width) instead of discarding it — the basis of
//! the server's `GET /v1/analyses/{id}` decomposition retrieval.
//!
//! The widths of one hypergraph bound each other, and the paper computes
//! them from each other: §6.4 takes hw and asks `Check(GHD, hw−1)`, §6.5
//! improves the HDs the hw search already found. [`analyze_with_facts`]
//! does the same across methods. An [`InstanceFacts`] record keeps what
//! earlier analyses of the same document *proved*, and each method
//! starts from it:
//!
//! * `hd` with hw known runs no `Check`; with ghw = g known it searches
//!   from k = g (ghw ≤ hw certifies every smaller k as no);
//! * `ghd` with ghw known runs no `Check`; with hw = h known it runs
//!   `Check(GHD,k)` only below h, and when nothing there answers yes the
//!   stored HD (every HD is a GHD) pins ghw = h;
//! * `fhd` improves the stored HD, or first finds one as `hd` does.
//!
//! No method runs a `Check` it would not run on its own, and each
//! answers the bounds, sizes and properties it would answer on its own;
//! `hw_steps` lists only the checks that ran. [`analyze_instance_retaining`]
//! is the call that starts from no facts.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use hyperbench_api::AnalyzeMethod;
use hyperbench_core::properties::{structural_properties, StructuralProperties};
use hyperbench_core::stats::{size_metrics, SizeMetrics};
use hyperbench_core::subedges::SubedgeConfig;
use hyperbench_core::{BitSet, Hypergraph};
use hyperbench_decomp::driver::{
    generalized_hypertree_width_opts, hypertree_width_from_opts, HwResult, Outcome,
};
use hyperbench_decomp::improve::improve_hd;
use hyperbench_decomp::tree::{CoverAtom, Decomposition};

/// Budgets for an analysis pass.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisConfig {
    /// Per-`Check(HD,k)` timeout.
    pub per_check: Duration,
    /// Largest `k` tried by the hw search.
    pub k_max: usize,
    /// Budget (shatter checks) for the VC-dimension computation.
    pub vc_budget: u64,
    /// Worker threads per decomposition search (`1` = serial, `0` = all
    /// cores). Parallel runs report the same width bounds as serial runs
    /// — see `hyperbench_decomp::parallel` — so this only trades CPU for
    /// latency.
    pub jobs: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            per_check: Duration::from_millis(250),
            k_max: 8,
            vc_budget: 2_000_000,
            jobs: 1,
        }
    }
}

impl AnalysisConfig {
    /// The decomposition-engine options for this configuration.
    pub fn engine_options(&self) -> hyperbench_decomp::Options {
        hyperbench_decomp::Options::with_jobs(self.jobs)
    }
}

/// The stored result of analyzing one hypergraph.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisRecord {
    /// Size metrics (Figure 3).
    pub sizes: SizeMetrics,
    /// Structural properties (Table 2); `vc_dim = None` means timeout.
    pub properties: StructuralProperties,
    /// Upper bound on hw (smallest `k` with a yes-answer), if any.
    pub hw_upper: Option<usize>,
    /// Lower bound on hw (1 + largest certified no).
    pub hw_lower: usize,
    /// Per-`k` outcome labels ("yes"/"no"/"timeout") with runtimes.
    pub hw_steps: Vec<(usize, &'static str, Duration)>,
    /// Whether any `Check(HD,k)` timed out.
    pub hw_timed_out: bool,
}

impl AnalysisRecord {
    /// The exact hw, when pinned down.
    pub fn hw_exact(&self) -> Option<usize> {
        match self.hw_upper {
            Some(u) if self.hw_lower == u => Some(u),
            _ => None,
        }
    }

    /// Whether the instance is known to be cyclic (hw ≥ 2).
    pub fn is_cyclic(&self) -> bool {
        self.hw_lower >= 2
    }
}

/// Runs the full analysis pass on one hypergraph.
pub fn analyze_instance(h: &Hypergraph, cfg: &AnalysisConfig) -> AnalysisRecord {
    analyze_instance_retaining(h, cfg, AnalyzeMethod::Hd).record
}

/// An analysis result that keeps its witness instead of discarding it.
#[derive(Debug, Clone)]
pub struct AnalyzedInstance {
    /// The bounds-only record (what the repository stores).
    pub record: AnalysisRecord,
    /// The witness decomposition of the smallest yes-answer, if the
    /// width search found one within its budget.
    pub witness: Option<Decomposition>,
    /// `fhd` only: the `ImproveHD` fractional width upper bound of the
    /// witness, as an exact rational string (e.g. `"3/2"`).
    pub fractional_width: Option<String>,
}

/// Runs the analysis pass for the requested decomposition notion and
/// retains the witness tree:
///
/// * [`AnalyzeMethod::Hd`] — the iterative `Check(HD,k)` search of
///   Figure 4,
/// * [`AnalyzeMethod::Ghd`] — the iterative `Check(GHD,k)` search, each
///   check decided by the hybrid,
/// * [`AnalyzeMethod::Fhd`] — the HD search, then `ImproveHD` (§6.5)
///   replaces each integral cover by an optimal fractional one; the
///   witness stays the HD tree and the fractional width rides along.
pub fn analyze_instance_retaining(
    h: &Hypergraph,
    cfg: &AnalysisConfig,
    method: AnalyzeMethod,
) -> AnalyzedInstance {
    analyze_with_facts(h, cfg, method, &mut InstanceFacts::new())
}

/// What analyses of one hypergraph have proved about it: its sizes and
/// properties, an exact hw with an HD of that width, and an exact ghw
/// with a GHD of that width. A width is recorded only from a search that
/// decided every `Check` within `k_max`, so a fact holds under any
/// budget.
///
/// The witnesses name edges and vertices by id, so a record belongs to
/// one parse of one document: reuse it only for that same text.
#[derive(Debug, Clone, Default)]
pub struct InstanceFacts {
    profile: Option<Profile>,
    hw: Option<WidthFact>,
    ghw: Option<WidthFact>,
}

/// Sizes and properties, with the VC-dimension budget the properties
/// were computed under (a smaller budget may time out where this one
/// did not).
#[derive(Debug, Clone)]
struct Profile {
    sizes: SizeMetrics,
    vc_budget: u64,
    properties: StructuralProperties,
}

/// An exact width and a decomposition of that width.
#[derive(Debug, Clone)]
struct WidthFact {
    width: usize,
    witness: PackedTree,
}

/// A decomposition packed into one `u32` run, the form a fact keeps its
/// witness in: a few words per node instead of a tree of small
/// allocations. Per node, in preorder: its parent's position + 1 (0 for
/// the root), the bag as a size and its vertices, then the cover as a
/// size and its atoms — an edge id, or [`SUBEDGE`]` | edge` followed by
/// the subedge's vertices as a size and its members. Clones share the
/// words: a ghw pinned by the recorded HD keeps that same run.
#[derive(Debug, Clone)]
struct PackedTree(Arc<[u32]>);

/// Marks a subedge atom in a [`PackedTree`] (edge ids stay far below).
const SUBEDGE: u32 = 1 << 31;

impl PackedTree {
    fn pack(d: &Decomposition) -> PackedTree {
        let order = d.preorder();
        let mut position = vec![0u32; d.len()];
        for (i, &u) in order.iter().enumerate() {
            position[u] = i as u32;
        }
        let push_set = |out: &mut Vec<u32>, set: &BitSet| {
            out.push(set.len() as u32);
            out.extend(set.iter());
        };
        let mut out = Vec::new();
        for &u in &order {
            let node = d.node(u);
            out.push(node.parent.map_or(0, |p| position[p] + 1));
            push_set(&mut out, &node.bag);
            out.push(node.cover.len() as u32);
            for atom in &node.cover {
                match atom {
                    CoverAtom::Edge(e) => out.push(*e),
                    CoverAtom::Subedge { parent, vertices } => {
                        out.push(SUBEDGE | parent);
                        push_set(&mut out, vertices);
                    }
                }
            }
        }
        PackedTree(out.into())
    }

    /// The tree again; node ids are the preorder positions.
    fn unpack(&self) -> Decomposition {
        fn set(words: &mut impl Iterator<Item = u32>) -> BitSet {
            let n = words.next().unwrap_or(0) as usize;
            words.by_ref().take(n).collect()
        }
        let mut words = self.0.iter().copied();
        let mut tree: Option<Decomposition> = None;
        while let Some(parent) = words.next() {
            let bag = set(&mut words);
            let atoms = words.next().unwrap_or(0);
            let cover = (0..atoms)
                .map(|_| match words.next().unwrap_or(0) {
                    a if a & SUBEDGE == 0 => CoverAtom::Edge(a),
                    a => CoverAtom::Subedge {
                        parent: a & !SUBEDGE,
                        vertices: set(&mut words),
                    },
                })
                .collect();
            match &mut tree {
                None => tree = Some(Decomposition::new(bag, cover)),
                Some(t) => {
                    t.add_child(parent as usize - 1, bag, cover);
                }
            }
        }
        tree.expect("a packed tree has a root")
    }
}

impl InstanceFacts {
    /// A record that knows nothing yet.
    pub fn new() -> InstanceFacts {
        InstanceFacts::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.profile.is_none() && self.hw.is_none() && self.ghw.is_none()
    }

    /// The exact hw, when proved.
    pub fn hw(&self) -> Option<usize> {
        self.hw.as_ref().map(|f| f.width)
    }

    /// The exact ghw, when proved.
    pub fn ghw(&self) -> Option<usize> {
        self.ghw.as_ref().map(|f| f.width)
    }

    /// Folds in another record of the same document. Every fact is
    /// true, so where both hold one, the one already here stays.
    pub fn merge(&mut self, other: InstanceFacts) {
        self.profile = self.profile.take().or(other.profile);
        self.hw = self.hw.take().or(other.hw);
        self.ghw = self.ghw.take().or(other.ghw);
    }

    /// Sizes and properties under `vc_budget`: the recorded ones, or
    /// computed and recorded now.
    fn profile(&mut self, h: &Hypergraph, vc_budget: u64) -> (SizeMetrics, StructuralProperties) {
        match &self.profile {
            Some(p) if p.vc_budget == vc_budget => (p.sizes, p.properties),
            _ => {
                let p = Profile {
                    sizes: size_metrics(h),
                    vc_budget,
                    properties: structural_properties(h, vc_budget),
                };
                let out = (p.sizes, p.properties);
                self.profile = Some(p);
                out
            }
        }
    }
}

/// A recorded width the request may use: one above its `k_max` is
/// ignored, so a fact never answers what the search alone could not.
fn usable(fact: &Option<WidthFact>, k_max: usize) -> Option<&WidthFact> {
    fact.as_ref().filter(|f| f.width <= k_max)
}

/// [`analyze_instance_retaining`] starting from what `facts` already
/// holds about `h`, and recording into it what this run proves (see the
/// module docs for what each method reuses). `h` must be the parse of
/// the document the facts were recorded for.
pub fn analyze_with_facts(
    h: &Hypergraph,
    cfg: &AnalysisConfig,
    method: AnalyzeMethod,
    facts: &mut InstanceFacts,
) -> AnalyzedInstance {
    let (sizes, properties) = facts.profile(h, cfg.vc_budget);
    let search = match method {
        AnalyzeMethod::Hd | AnalyzeMethod::Fhd => hw_search(h, cfg, facts),
        AnalyzeMethod::Ghd => ghw_search(h, cfg, facts),
    };
    let fractional_width = match (&method, &search.witness) {
        (AnalyzeMethod::Fhd, Some(d)) => improve_hd(h, d)
            .ok()
            .map(|fd| fd.fractional_width().to_string()),
        _ => None,
    };
    AnalyzedInstance {
        record: AnalysisRecord {
            sizes,
            properties,
            hw_upper: search.upper,
            hw_lower: search.lower,
            hw_steps: search.steps,
            hw_timed_out: search.timed_out,
        },
        witness: search.witness,
        fractional_width,
    }
}

/// hw: the recorded one, or the `Check(HD,k)` search from the recorded
/// ghw (or from 1).
fn hw_search(h: &Hypergraph, cfg: &AnalysisConfig, facts: &mut InstanceFacts) -> Search {
    if let Some(hw) = usable(&facts.hw, cfg.k_max) {
        return Search::known(hw);
    }
    let from = usable(&facts.ghw, cfg.k_max).map_or(1, |g| g.width);
    let result =
        hypertree_width_from_opts(h, from, cfg.k_max, cfg.per_check, &cfg.engine_options());
    let search = Search::of(result, None);
    if let Some(fact) = search.fact(cfg.k_max) {
        facts.hw = Some(fact);
    }
    search
}

/// ghw: the recorded one, or the `Check(GHD,k)` search (the hybrid, see
/// `generalized_hypertree_width_opts`) — below the recorded hw only,
/// whose HD closes the search when nothing there answers yes.
fn ghw_search(h: &Hypergraph, cfg: &AnalysisConfig, facts: &mut InstanceFacts) -> Search {
    if let Some(ghw) = usable(&facts.ghw, cfg.k_max) {
        return Search::known(ghw);
    }
    let hw = usable(&facts.hw, cfg.k_max);
    let cap = hw.map_or(cfg.k_max, |f| f.width - 1);
    let result = generalized_hypertree_width_opts(
        h,
        cap,
        cfg.per_check,
        &SubedgeConfig::default(),
        &cfg.engine_options(),
    );
    let search = Search::of(result, hw);
    if let Some(fact) = search.fact(cfg.k_max) {
        facts.ghw = Some(fact);
    }
    search
}

/// One method's width search, in the shape the record and the facts
/// take it.
struct Search {
    steps: Vec<(usize, &'static str, Duration)>,
    upper: Option<usize>,
    lower: usize,
    timed_out: bool,
    witness: Option<Decomposition>,
    /// The witness as recorded, when a fact supplied it.
    packed: Option<PackedTree>,
}

impl Search {
    /// A width already proved: no `Check` runs.
    fn known(fact: &WidthFact) -> Search {
        Search {
            steps: Vec::new(),
            upper: Some(fact.width),
            lower: fact.width,
            timed_out: false,
            witness: Some(fact.witness.unpack()),
            packed: Some(fact.witness.clone()),
        }
    }

    /// A finished width search. When it found no yes-answer and `above`
    /// holds a decomposition of this notion whose width is one past the
    /// searched range, that decomposition is the upper bound and the
    /// witness.
    fn of(result: HwResult, above: Option<&WidthFact>) -> Search {
        let timed_out = result
            .steps
            .iter()
            .any(|s| matches!(s.outcome, Outcome::Timeout));
        let mut steps = Vec::with_capacity(result.steps.len());
        let mut witness = None;
        for s in result.steps {
            steps.push((s.k, s.outcome.label(), s.elapsed));
            if let Outcome::Yes(d) = s.outcome {
                witness = Some(d);
            }
        }
        let mut upper = result.upper;
        let mut packed = None;
        if let (None, Some(fact)) = (upper, above) {
            upper = Some(fact.width);
            witness = Some(fact.witness.unpack());
            packed = Some(fact.witness.clone());
        }
        Search {
            steps,
            upper,
            lower: result.lower,
            timed_out,
            witness,
            packed,
        }
    }

    /// The width this search proved, if it decided every check it ran
    /// and pinned the width within `k_max`.
    fn fact(&self, k_max: usize) -> Option<WidthFact> {
        match (self.upper, &self.witness) {
            (Some(width), Some(witness))
                if !self.timed_out && self.lower == width && width <= k_max =>
            {
                Some(WidthFact {
                    width,
                    witness: self
                        .packed
                        .clone()
                        .unwrap_or_else(|| PackedTree::pack(witness)),
                })
            }
            _ => None,
        }
    }
}

/// Repository-wide aggregates — the payload of the server's `GET /v1/stats`
/// and the library analogue of the web tool's overview page.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepoStats {
    /// Total entries.
    pub entries: usize,
    /// Entries with an analysis record attached.
    pub analyzed: usize,
    /// Entries known to be cyclic (hw ≥ 2).
    pub cyclic: usize,
    /// Entries whose hw search hit a timeout.
    pub hw_timeouts: usize,
    /// Per-class entry counts, sorted by class name.
    pub by_class: Vec<(String, usize)>,
    /// Per-collection entry counts, sorted by collection name.
    pub by_collection: Vec<(String, usize)>,
    /// Histogram of exact hw values (hw → count), sorted by hw.
    pub hw_exact: Vec<(usize, usize)>,
    /// Sum of vertex counts over all entries.
    pub total_vertices: usize,
    /// Sum of edge counts over all entries.
    pub total_edges: usize,
    /// Largest arity seen.
    pub max_arity: usize,
}

/// Computes [`RepoStats`] over a repository in one pass. Only the
/// metadata index is consulted ([`crate::Repository::metas`]), so a
/// paged repository aggregates without hydrating a single entry.
pub fn aggregate_stats(repo: &crate::Repository) -> RepoStats {
    aggregate_stats_from(repo.metas())
}

/// Computes [`RepoStats`] over any metadata scan — the entry point MVCC
/// snapshots use, where the scan merges a base backend with an overlay.
pub fn aggregate_stats_from<'a>(metas: impl Iterator<Item = crate::EntryMeta<'a>>) -> RepoStats {
    let mut stats = RepoStats::default();
    let mut by_class: BTreeMap<String, usize> = BTreeMap::new();
    let mut by_collection: BTreeMap<String, usize> = BTreeMap::new();
    let mut hw_exact: BTreeMap<usize, usize> = BTreeMap::new();
    for e in metas {
        stats.entries += 1;
        *by_class.entry(e.class.to_string()).or_default() += 1;
        *by_collection.entry(e.collection.to_string()).or_default() += 1;
        stats.total_vertices += e.vertices;
        stats.total_edges += e.edges;
        stats.max_arity = stats.max_arity.max(e.arity);
        if let Some(rec) = &e.analysis {
            stats.analyzed += 1;
            if rec.is_cyclic() {
                stats.cyclic += 1;
            }
            if rec.hw_timed_out {
                stats.hw_timeouts += 1;
            }
            if let Some(hw) = rec.hw_exact() {
                *hw_exact.entry(hw).or_default() += 1;
            }
        }
    }
    stats.by_class = by_class.into_iter().collect();
    stats.by_collection = by_collection.into_iter().collect();
    stats.hw_exact = hw_exact.into_iter().collect();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperbench_core::builder::hypergraph_from_edges;

    #[test]
    fn analyze_triangle() {
        let h =
            hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])]);
        let r = analyze_instance(&h, &AnalysisConfig::default());
        assert_eq!(r.hw_exact(), Some(2));
        assert!(r.is_cyclic());
        assert_eq!(r.properties.bip, 1);
        assert_eq!(r.sizes.edges, 3);
        assert!(!r.hw_timed_out);
        assert_eq!(r.hw_steps.len(), 2);
    }

    #[test]
    fn aggregate_stats_counts() {
        let mut repo = crate::Repository::new();
        let tri =
            hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])]);
        let path = hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])]);
        let cfg = AnalysisConfig::default();
        let rec_tri = analyze_instance(&tri, &cfg);
        let rec_path = analyze_instance(&path, &cfg);
        let id1 = repo.insert(tri, "SPARQL", "CQ Application");
        let id2 = repo.insert(path, "xcsp", "CSP Random");
        repo.set_analysis(id1, rec_tri);
        repo.set_analysis(id2, rec_path);
        repo.insert(
            hypergraph_from_edges(&[("g", &["x"])]),
            "SPARQL",
            "CQ Application",
        );

        let s = aggregate_stats(&repo);
        assert_eq!(s.entries, 3);
        assert_eq!(s.analyzed, 2);
        assert_eq!(s.cyclic, 1);
        assert_eq!(s.hw_timeouts, 0);
        assert_eq!(
            s.by_class,
            vec![
                ("CQ Application".to_string(), 2),
                ("CSP Random".to_string(), 1)
            ]
        );
        assert_eq!(s.by_collection.len(), 2);
        assert_eq!(s.hw_exact, vec![(1, 1), (2, 1)]);
        assert_eq!(s.max_arity, 2);
        assert_eq!(s.total_edges, 6);
    }

    #[test]
    fn analyze_acyclic() {
        let h = hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])]);
        let r = analyze_instance(&h, &AnalysisConfig::default());
        assert_eq!(r.hw_exact(), Some(1));
        assert!(!r.is_cyclic());
    }

    #[test]
    fn retaining_analysis_keeps_the_witness() {
        use hyperbench_decomp::validate::{validate_ghd, validate_hd};
        let tri =
            hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])]);
        let cfg = AnalysisConfig::default();
        // HD: witness is a width-2 HD of the triangle.
        let hd = analyze_instance_retaining(&tri, &cfg, AnalyzeMethod::Hd);
        assert_eq!(hd.record.hw_exact(), Some(2));
        let w = hd.witness.expect("hd witness");
        assert_eq!(w.width(), 2);
        validate_hd(&tri, &w).unwrap();
        assert!(hd.fractional_width.is_none());
        // GHD: witness validates the GHD conditions.
        let ghd = analyze_instance_retaining(&tri, &cfg, AnalyzeMethod::Ghd);
        assert_eq!(ghd.record.hw_exact(), Some(2));
        validate_ghd(&tri, &ghd.witness.expect("ghd witness")).unwrap();
        // FHD: the HD witness plus a fractional width ≤ 2 (triangle fhw
        // is 3/2; ImproveHD on the found HD can land anywhere in
        // [3/2, 2] depending on its bags).
        let fhd = analyze_instance_retaining(&tri, &cfg, AnalyzeMethod::Fhd);
        assert!(fhd.witness.is_some());
        assert!(fhd.fractional_width.is_some(), "fractional width missing");
    }

    fn triangle() -> Hypergraph {
        hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])])
    }

    /// A recorded width over the triangle's HD (the stubbed searches
    /// below only carry the tree).
    fn fact(width: usize) -> WidthFact {
        let hd =
            analyze_instance_retaining(&triangle(), &AnalysisConfig::default(), AnalyzeMethod::Hd);
        WidthFact {
            width,
            witness: PackedTree::pack(&hd.witness.expect("triangle HD")),
        }
    }

    #[test]
    fn capped_ghw_search_keeps_a_yes_below_the_recorded_hw() {
        use hyperbench_decomp::driver::width_search;
        // No instance with ghw < hw is known in-tree, so a stub `Check`
        // plays one: hw = 3 recorded, the GHD check answers yes at 2 with
        // a one-node tree (the recorded HD has two).
        let hw = fact(3);
        let recorded_nodes = hw.witness.unpack().len();
        let stub = Decomposition::new(BitSet::from_slice(&[0, 1, 2]), vec![CoverAtom::Edge(0)]);
        let mut asked = Vec::new();
        let result = width_search(1, hw.width - 1, |k| {
            asked.push(k);
            match k {
                1 => Outcome::No,
                _ => Outcome::Yes(stub.clone()),
            }
        });
        let search = Search::of(result, Some(&hw));
        assert_eq!(asked, vec![1, 2]);
        assert_eq!((search.lower, search.upper), (2, Some(2)));
        let witness = search.witness.as_ref().expect("the yes-answer's tree");
        assert_eq!(
            witness.len(),
            1,
            "the yes-answer's tree, not the recorded HD"
        );
        let proved = search.fact(8).expect("decided: ghw = 2");
        assert_eq!(proved.width, 2);

        // Every check below the recorded hw says no: the recorded HD
        // pins ghw = hw, no check runs at hw itself.
        let mut asked = Vec::new();
        let result = width_search(1, hw.width - 1, |k| {
            asked.push(k);
            Outcome::No
        });
        let search = Search::of(result, Some(&hw));
        assert_eq!(asked, vec![1, 2]);
        assert_eq!((search.lower, search.upper), (3, Some(3)));
        assert_eq!(search.witness.as_ref().unwrap().len(), recorded_nodes);
        assert_eq!(search.fact(8).map(|f| f.width), Some(3));

        // A timeout below leaves the gap open: bounds, but no fact.
        let result = width_search(1, hw.width - 1, |k| match k {
            1 => Outcome::No,
            _ => Outcome::Timeout,
        });
        let search = Search::of(result, Some(&hw));
        assert_eq!((search.lower, search.upper), (2, Some(3)));
        assert!(search.timed_out);
        assert!(search.fact(8).is_none());
    }

    #[test]
    fn packed_trees_unpack_to_the_same_decomposition() {
        use hyperbench_decomp::validate::{validate_ghd, validate_hd};
        // A path of three edges: an HD, and a GHD with a subedge atom.
        let h =
            hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"]), ("g", &["c", "d"])]);
        let hd = analyze_instance_retaining(&h, &AnalysisConfig::default(), AnalyzeMethod::Hd)
            .witness
            .unwrap();
        let mut ghd = Decomposition::new(h.edge_set(1).clone(), vec![CoverAtom::Edge(1)]);
        ghd.add_child(0, h.edge_set(0).clone(), vec![CoverAtom::Edge(0)]);
        let c = ghd.add_child(
            0,
            BitSet::from_slice(&[2]),
            vec![CoverAtom::Subedge {
                parent: 2,
                vertices: BitSet::from_slice(&[2]),
            }],
        );
        ghd.add_child(c, h.edge_set(2).clone(), vec![CoverAtom::Edge(2)]);
        validate_ghd(&h, &ghd).unwrap();
        for tree in [&hd, &ghd] {
            let back = PackedTree::pack(tree).unpack();
            // Node i of the unpacked tree is the i-th node in preorder.
            let order = tree.preorder();
            assert_eq!(back.len(), order.len());
            for (i, &u) in order.iter().enumerate() {
                let (was, is) = (tree.node(u), back.node(i));
                assert_eq!((&is.bag, &is.cover), (&was.bag, &was.cover));
                assert_eq!(is.parent.map(|p| order[p]), was.parent);
            }
            validate_ghd(&h, &back).unwrap();
        }
        validate_hd(&h, &PackedTree::pack(&hd).unpack()).unwrap();
    }

    #[test]
    fn bounds_only_and_retaining_records_agree() {
        let h = hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])]);
        let cfg = AnalysisConfig::default();
        let plain = analyze_instance(&h, &cfg);
        let retained = analyze_instance_retaining(&h, &cfg, AnalyzeMethod::Hd);
        assert_eq!(plain.hw_upper, retained.record.hw_upper);
        assert_eq!(plain.hw_lower, retained.record.hw_lower);
        assert_eq!(plain.sizes, retained.record.sizes);
    }
}
