//! Per-instance analysis: the properties of Table 2 plus hw bounds from
//! the iterative width search of Figure 4.
//!
//! Two entry points: [`analyze_instance`] computes the bounds-only
//! [`AnalysisRecord`] the repository stores, while
//! [`analyze_instance_retaining`] additionally keeps the witness
//! [`Decomposition`] the width search found (and, for `fhd`, the
//! `ImproveHD` fractional width) instead of discarding it — the basis of
//! the server's `GET /v1/analyses/{id}` decomposition retrieval.

use std::collections::BTreeMap;
use std::time::Duration;

use hyperbench_api::AnalyzeMethod;
use hyperbench_core::properties::{structural_properties, StructuralProperties};
use hyperbench_core::stats::{size_metrics, SizeMetrics};
use hyperbench_core::subedges::SubedgeConfig;
use hyperbench_core::Hypergraph;
use hyperbench_decomp::driver::{generalized_hypertree_width_opts, hypertree_width_opts, Outcome};
use hyperbench_decomp::improve::improve_hd;
use hyperbench_decomp::tree::Decomposition;

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
/// * [`AnalyzeMethod::Ghd`] — the §6.4 three-way GHD race per `k`,
/// * [`AnalyzeMethod::Fhd`] — the HD search, then `ImproveHD` (§6.5)
///   replaces each integral cover by an optimal fractional one; the
///   witness stays the HD tree and the fractional width rides along.
pub fn analyze_instance_retaining(
    h: &Hypergraph,
    cfg: &AnalysisConfig,
    method: AnalyzeMethod,
) -> AnalyzedInstance {
    let sizes = size_metrics(h);
    let properties = structural_properties(h, cfg.vc_budget);
    let opts = cfg.engine_options();
    let hw = match method {
        AnalyzeMethod::Hd | AnalyzeMethod::Fhd => {
            hypertree_width_opts(h, cfg.k_max, cfg.per_check, &opts)
        }
        AnalyzeMethod::Ghd => generalized_hypertree_width_opts(
            h,
            cfg.k_max,
            cfg.per_check,
            &SubedgeConfig::default(),
            &opts,
        ),
    };
    let hw_timed_out = hw
        .steps
        .iter()
        .any(|s| matches!(s.outcome, Outcome::Timeout));
    let mut hw_steps = Vec::with_capacity(hw.steps.len());
    let mut witness = None;
    for s in hw.steps {
        hw_steps.push((s.k, s.outcome.label(), s.elapsed));
        if let Outcome::Yes(d) = s.outcome {
            witness = Some(d);
        }
    }
    let fractional_width = match (&method, &witness) {
        (AnalyzeMethod::Fhd, Some(d)) => improve_hd(h, d)
            .ok()
            .map(|fd| fd.fractional_width().to_string()),
        _ => None,
    };
    AnalyzedInstance {
        record: AnalysisRecord {
            sizes,
            properties,
            hw_upper: hw.upper,
            hw_lower: hw.lower,
            hw_steps,
            hw_timed_out,
        },
        witness,
        fractional_width,
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
