//! The two HBQL property suites:
//!
//! 1. **Round-trip**: pretty-printing a random AST and re-parsing it
//!    yields a structurally identical tree (modulo spans) — the printer
//!    emits exactly the parentheses the grammar needs, no more.
//! 2. **Legacy equivalence**: any query expressible as a legacy
//!    [`Filter`] produces byte-identical pages through the HBQL
//!    planner and through `try_select_after` — the guarantee that let
//!    the server delete its second predicate path.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng as _;
use rand::RngCore as _;

use hyperbench_api::dto::EntrySummary;
use hyperbench_api::json::Json;
use hyperbench_core::builder::hypergraph_from_edges;
use hyperbench_query::ast::{
    CmpOp, Expr, FieldRef, Literal, OrderKey, Query, Select, SelectItem, SelectItemKind,
};
use hyperbench_query::{legacy, parse, resolve};
use hyperbench_repo::{analysis::analyze_instance, AnalysisConfig, Entry, Filter, Repository};

// ---------------------------------------------------------------------
// Random AST generation. Round-tripping is a syntactic property, so the
// generator covers the full grammar — including trees the resolver
// would reject (unknown fields, type mismatches, aggregate shapes).
// ---------------------------------------------------------------------

const IDENTS: [&str; 8] = [
    "id",
    "collection",
    "class",
    "edges",
    "hw_upper",
    "foo",
    "bar_baz",
    "x1",
];

fn ident(rng: &mut StdRng) -> String {
    IDENTS[rng.gen_range(0..IDENTS.len())].to_string()
}

fn field(rng: &mut StdRng) -> FieldRef {
    FieldRef {
        name: ident(rng),
        span: Default::default(),
    }
}

fn literal(rng: &mut StdRng) -> Literal {
    match rng.gen_range(0..4u32) {
        0 => Literal::Int(rng.gen_range(0..1000i64)),
        1 => Literal::Int(i64::MAX),
        2 => Literal::Bool(rng.next_u64() & 1 == 1),
        _ => {
            // Strings exercise escaping: quotes, backslashes, spaces,
            // non-ASCII.
            let pool = ['a', 'B', '3', ' ', '"', '\\', '\'', 'é', '_', '-'];
            let len = rng.gen_range(0..6usize);
            Literal::Str(
                (0..len)
                    .map(|_| pool[rng.gen_range(0..pool.len())])
                    .collect(),
            )
        }
    }
}

fn cmp_op(rng: &mut StdRng) -> CmpOp {
    match rng.gen_range(0..6u32) {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

fn expr(rng: &mut StdRng, depth: u32) -> Expr {
    let choice = if depth == 0 {
        3
    } else {
        rng.gen_range(0..4u32)
    };
    match choice {
        0 => Expr::And(
            Box::new(expr(rng, depth - 1)),
            Box::new(expr(rng, depth - 1)),
        ),
        1 => Expr::Or(
            Box::new(expr(rng, depth - 1)),
            Box::new(expr(rng, depth - 1)),
        ),
        2 => Expr::Not(Box::new(expr(rng, depth - 1))),
        _ => Expr::Cmp {
            field: field(rng),
            op: cmp_op(rng),
            value: literal(rng),
            value_span: Default::default(),
        },
    }
}

fn select(rng: &mut StdRng) -> Select {
    if rng.next_u64() & 1 == 0 {
        return Select::Rows;
    }
    let n = rng.gen_range(1..4usize);
    Select::Items(
        (0..n)
            .map(|_| {
                let kind = match rng.gen_range(0..5u32) {
                    0 => SelectItemKind::Column(ident(rng)),
                    1 => SelectItemKind::Count,
                    2 => SelectItemKind::Min(ident(rng)),
                    3 => SelectItemKind::Max(ident(rng)),
                    _ => SelectItemKind::Avg(ident(rng)),
                };
                SelectItem {
                    kind,
                    span: Default::default(),
                }
            })
            .collect(),
    )
}

fn query(rng: &mut StdRng) -> Query {
    Query {
        select: select(rng),
        filter: (rng.next_u64() & 1 == 0).then(|| expr(rng, 3)),
        group_by: (rng.gen_range(0..4u32) == 0).then(|| field(rng)),
        order_by: (0..rng.gen_range(0..3usize))
            .map(|_| OrderKey {
                field: field(rng),
                desc: rng.next_u64() & 1 == 1,
            })
            .collect(),
        limit: (rng.gen_range(0..3u32) == 0).then(|| rng.gen_range(0..500u64)),
    }
}

/// A [`Strategy`] sampling the full AST space.
struct QueryStrategy;

impl Strategy for QueryStrategy {
    type Value = Query;

    fn generate(&self, rng: &mut StdRng) -> Query {
        query(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pretty_print_then_reparse_is_identity(q in QueryStrategy) {
        let text = q.to_string();
        let reparsed = match parse(&text) {
            Ok(r) => r,
            Err(e) => {
                return Err(proptest::TestCaseError::Fail(format!(
                    "printed query failed to reparse: {text:?}: {e}"
                )))
            }
        };
        prop_assert_eq!(
            reparsed.strip_spans(),
            q.strip_spans(),
            "canonical text: {}",
            text
        );
        // Printing is a fixed point: the canonical form prints to itself.
        prop_assert_eq!(reparsed.to_string(), text);
    }
}

// ---------------------------------------------------------------------
// Legacy equivalence.
// ---------------------------------------------------------------------

/// A corpus mixing collections, classes, sizes, cyclicity, and
/// unanalyzed entries — every condition the legacy vocabulary can
/// express has both matching and non-matching entries.
fn corpus() -> Repository {
    let mut r = Repository::new();
    let cfg = AnalysisConfig::default();
    let collections = ["TPC-H", "SPARQL", "CSP"];
    let classes = ["CQ Application", "CSP Application", "CSP Random"];
    for i in 0..30usize {
        let h = match i % 3 {
            // Acyclic path, arity 2, i%4+1 edges.
            0 => {
                let names: Vec<String> = (0..=(i % 4) + 1).map(|v| format!("v{v}")).collect();
                let edges: Vec<(String, Vec<&str>)> = (0..(i % 4) + 1)
                    .map(|e| {
                        (
                            format!("e{e}"),
                            vec![names[e].as_str(), names[e + 1].as_str()],
                        )
                    })
                    .collect();
                let borrowed: Vec<(&str, &[&str])> = edges
                    .iter()
                    .map(|(n, vs)| (n.as_str(), vs.as_slice()))
                    .collect();
                hypergraph_from_edges(&borrowed)
            }
            // Cyclic triangle.
            1 => {
                hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])])
            }
            // Wide single edge, arity 3 + i%3.
            _ => {
                let names: Vec<String> = (0..3 + (i % 3)).map(|v| format!("w{v}")).collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                hypergraph_from_edges(&[("big", refs.as_slice())])
            }
        };
        let id = r.insert(
            h.clone(),
            collections[i % collections.len()],
            classes[i % classes.len()],
        );
        // Leave a third of the corpus unanalyzed.
        if i % 3 != 2 {
            r.set_analysis(id, analyze_instance(&h, &cfg));
        }
    }
    r
}

/// The server's `summary_of`, reimplemented over a hydrated entry —
/// what the pre-HBQL filter path produced.
fn summary_of_entry(e: &Entry) -> EntrySummary {
    EntrySummary {
        id: e.id,
        collection: e.collection.clone(),
        class: e.class.clone(),
        vertices: e.hypergraph.num_vertices(),
        edges: e.hypergraph.num_edges(),
        arity: e.hypergraph.arity(),
        analyzed: e.analysis.is_some(),
        hw_upper: e.analysis.as_ref().and_then(|r| r.hw_upper),
        hw_lower: e.analysis.as_ref().map(|r| r.hw_lower),
    }
}

fn items_json(items: &[EntrySummary]) -> String {
    Json::Arr(items.iter().map(EntrySummary::to_json).collect()).to_string()
}

/// Draws a random legacy param list (possibly empty, possibly
/// over-constrained) from the full vocabulary.
fn params(rng: &mut StdRng) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let collections = ["TPC-H", "SPARQL", "CSP", "nope"];
    let classes = ["CQ Application", "CSP Application", "CSP Random"];
    if rng.gen_range(0..3u32) == 0 {
        out.push((
            "collection".to_string(),
            collections[rng.gen_range(0..collections.len())].to_string(),
        ));
    }
    if rng.gen_range(0..3u32) == 0 {
        out.push((
            "class".to_string(),
            classes[rng.gen_range(0..classes.len())].to_string(),
        ));
    }
    for key in [
        "min_edges",
        "max_edges",
        "min_arity",
        "max_arity",
        "hw_le",
        "hw_ge",
        "bip_le",
    ] {
        if rng.gen_range(0..4u32) == 0 {
            out.push((key.to_string(), rng.gen_range(0..6u32).to_string()));
        }
    }
    for key in ["cyclic", "analyzed"] {
        if rng.gen_range(0..4u32) == 0 {
            let v = if rng.next_u64() & 1 == 1 {
                "true"
            } else {
                "false"
            };
            out.push((key.to_string(), v.to_string()));
        }
    }
    out
}

struct ParamsStrategy;

impl Strategy for ParamsStrategy {
    type Value = (Vec<(String, String)>, Option<usize>, usize);

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let after = (rng.next_u64() & 1 == 1).then(|| rng.gen_range(0..35usize));
        let limit = rng.gen_range(1..12usize);
        (params(rng), after, limit)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn desugared_params_page_byte_identically(case in ParamsStrategy) {
        let (params, after, limit) = case;
        let repo = corpus();

        // The old path: Filter built param-by-param, entries hydrated.
        let mut filter = Filter::new();
        for (k, v) in &params {
            filter = filter.with_param(k, v).expect("vocabulary is valid");
        }

        // The new path: desugar → pretty-print → parse → resolve →
        // execute over the metadata scan. Going through text proves the
        // desugared query is a first-class HBQL citizen.
        let ast = legacy::desugar_params(params.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .expect("vocabulary is valid");
        let reparsed = parse(&ast.to_string()).expect("canonical text parses");
        prop_assert_eq!(reparsed.strip_spans(), ast.strip_spans());
        let plan = resolve(&ast).expect("desugared queries resolve");

        // Keyset pages match byte-for-byte.
        let expected = repo
            .try_select_after(&filter, after, limit)
            .expect("memory backend");
        let got = plan.execute_rows(repo.metas(), after, limit);
        prop_assert_eq!(got.total, expected.total);
        prop_assert_eq!(got.next_after, expected.next_after);
        let expected_items: Vec<EntrySummary> =
            expected.entries.iter().map(|e| summary_of_entry(e)).collect();
        prop_assert_eq!(items_json(&got.items), items_json(&expected_items));
    }
}
