//! One module per table/figure of the paper's evaluation (§6).

pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod summary;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

use crate::AnalyzedBenchmark;

/// The rendered result of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Short id (`table1` … `fig5`, `summary`).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Rendered tables/text.
    pub body: String,
    /// Paper-vs-measured checkpoints: (metric, paper value, measured).
    pub checkpoints: Vec<(String, String, String)>,
}

impl ExperimentReport {
    /// Renders the report including its checkpoint table.
    pub fn render(&self) -> String {
        let mut out = format!("## {} — {}\n\n{}\n", self.id, self.title, self.body);
        if !self.checkpoints.is_empty() {
            let mut t = crate::report::Table::new(&["metric", "paper", "measured"]);
            for (m, p, me) in &self.checkpoints {
                t.row(&[m.as_str(), p.as_str(), me.as_str()]);
            }
            out.push_str("\nPaper vs. measured:\n\n");
            out.push_str(&t.render());
        }
        out
    }
}

/// All experiment ids in paper order.
pub const ALL_IDS: [&str; 10] = [
    "table1", "table2", "fig3", "fig4", "fig5", "table3", "table4", "table5", "table6", "summary",
];

/// Runs one experiment by id.
pub fn run(id: &str, bench: &AnalyzedBenchmark) -> Option<ExperimentReport> {
    Some(match id {
        "table1" => table1::run(bench),
        "table2" => table2::run(bench),
        "fig3" => fig3::run(bench),
        "fig4" => fig4::run(bench),
        "fig5" => fig5::run(bench),
        "table3" => table3::run(bench),
        "table4" => table4::run(bench),
        "table5" => table5::run(bench),
        "table6" => table6::run(bench),
        "summary" => summary::run(bench),
        _ => return None,
    })
}

/// Runs every experiment in paper order.
pub fn run_all(bench: &AnalyzedBenchmark) -> Vec<ExperimentReport> {
    ALL_IDS
        .iter()
        .map(|id| run(id, bench).expect("known id"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyzedBenchmark, AnalyzedInstance, ExperimentConfig};
    use hyperbench_core::builder::hypergraph_from_edges;
    use hyperbench_datagen::{BenchClass, Instance};
    use hyperbench_repo::{analyze_instance, AnalysisConfig};
    use std::time::Duration;

    /// A hand-built two-instance benchmark: one acyclic CQ, one triangle.
    fn synthetic() -> AnalyzedBenchmark {
        let acfg = AnalysisConfig {
            per_check: Duration::from_millis(200),
            k_max: 4,
            vc_budget: 100_000,
            jobs: 1,
        };
        let mk = |collection: &'static str, class, h: hyperbench_core::Hypergraph| {
            let record = analyze_instance(&h, &acfg);
            AnalyzedInstance {
                instance: Instance {
                    collection,
                    class,
                    hypergraph: h,
                },
                record,
            }
        };
        let path = hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])]);
        let tri =
            hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])]);
        AnalyzedBenchmark {
            config: ExperimentConfig {
                scale: 0.001,
                ghd_timeout: Duration::from_millis(200),
                threads: 1,
                ..ExperimentConfig::default()
            },
            instances: vec![
                mk("TPC-H", BenchClass::CqApplication, path),
                mk("SPARQL", BenchClass::CqApplication, tri),
            ],
        }
    }

    #[test]
    fn table1_counts_synthetic_instances() {
        let b = synthetic();
        let r = table1::run(&b);
        assert!(r.body.contains("TPC-H"));
        assert!(r.body.contains("SPARQL"));
        // Exactly one of the two is cyclic.
        let total_row = r.body.lines().find(|l| l.contains("Total")).unwrap();
        assert!(total_row.contains("| 2"), "{total_row}");
        assert!(total_row.contains("| 1"), "{total_row}");
    }

    #[test]
    fn table2_histogram_places_triangle() {
        let b = synthetic();
        let r = table2::run(&b);
        assert!(r.body.contains("CQ Application"));
        // Both instances have BIP = 1 → row i=1 of BIP column counts 2.
        assert!(r.body.contains("| 1 "));
    }

    #[test]
    fn fig4_and_fig5_render() {
        let b = synthetic();
        assert!(fig4::run(&b).body.contains("avg(yes)"));
        let f5 = fig5::run(&b);
        assert!(f5.title.contains("2 fully-analyzed"));
    }

    #[test]
    fn summary_shapes_on_synthetic() {
        let b = synthetic();
        let r = summary::run(&b);
        let line = r
            .body
            .lines()
            .find(|l| l.contains("non-random CQs"))
            .unwrap();
        assert!(line.contains("100.0%"), "{line}");
    }

    #[test]
    fn table4_renders_the_race_and_the_hybrid() {
        // K6 (binary edges) has hw = ghw = 3: its group asks
        // Check(GHD,2), which both the race and the hybrid answer no.
        let mut b = hyperbench_core::HypergraphBuilder::named("k6");
        for i in 0..6 {
            for j in i + 1..6 {
                b.add_edge(&format!("e{i}_{j}"), &[format!("v{i}"), format!("v{j}")]);
            }
        }
        let k6 = b.build();
        let record = analyze_instance(&k6, &AnalysisConfig::default());
        assert_eq!(record.hw_exact(), Some(3));
        let mut bench = synthetic();
        bench.instances.push(AnalyzedInstance {
            instance: Instance {
                collection: "Random",
                class: BenchClass::CspRandom,
                hypergraph: k6,
            },
            record,
        });
        let r = table4::run(&bench);
        let (race, hybrid) = r.body.split_once("Hybrid alone").expect(&r.body);
        for table in [race, hybrid] {
            let row = table.lines().find(|l| l.contains("3 -> 2")).expect(&r.body);
            // | hw -> ghw | yes | avg(yes) | no | avg(no) | timeout |
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            assert_eq!((cells[2], cells[4], cells[6]), ("0", "1", "0"), "{row}");
        }
    }

    #[test]
    fn tables_3_to_6_handle_empty_groups() {
        // hw values are 1 and 2: no instances in the 3..=6 groups.
        let b = synthetic();
        assert!(table3::run(&b).body.contains("increase --scale"));
        assert!(table4::run(&b).body.contains("increase --scale"));
        // Table 5/6 do include hw=2 groups.
        let t5 = table5::run(&b);
        assert!(t5.body.contains("| 2"), "{}", t5.body);
        let t6 = table6::run(&b);
        assert!(t6.body.contains("[0.5,1)"));
    }
}
