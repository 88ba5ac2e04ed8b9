//! The ledger: one end-to-end + per-layer benchmark over serve, route,
//! write and analyze (see `README.md` beside this package).
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! ledger run [--seed N] [--seconds S]                       every workload, untraced then traced
//! ledger check [--seeds 1,2] [--seconds S]                  A/A: the untraced suite twice per seed
//! ledger selftest                                           the ledger's own unit checks
//! ledger manifest                                           print BENCHMARK.json
//! ledger basket [--seeds 1,2,3]                             per-check headroom of the analyze basket
//! ```

mod basket;
mod corpus;
mod fleet;
mod http;
mod metrics;
mod probes;
mod reads;
mod report;
mod scrape;
mod selftest;
mod stats;
mod trace;
mod workloads;

use std::sync::Arc;
use std::time::Instant;

use fleet::RunDir;
use report::Outcome;
use trace::Tracer;
use workloads::{Ctx, Layers, Workload, SETUPS};

/// One run as the driver asks for it.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {name}")),
    }
}

/// Command lines of every child, for the report.
fn cmdlines<W: Workload>(stage: &W) -> Vec<String> {
    stage
        .children()
        .iter()
        .map(|c| format!("hyperbench {}", c.cmdline.join(" ")))
        .collect()
}

fn untraced<W: Workload>(ctx: &Ctx, seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut stage = None;
    for slot in 0..SETUPS {
        // One fleet at a time: the previous set-up's children are
        // reaped and its files removed before the next is timed.
        drop(stage.take());
        ctx.run.remove_data("stage");
        let started = Instant::now();
        stage = Some(W::setup(ctx, "stage")?);
        setups.push(started.elapsed().as_secs_f64());
        eprintln!(
            "ledger: {} set-up {}: {:.3} s",
            W::NAME,
            slot + 1,
            setups[slot]
        );
    }
    let mut stage = stage.expect("SETUPS is at least 1");
    let run = stage.measure(ctx, seconds)?;
    let cmdlines = cmdlines(&stage);
    drop(stage);
    ctx.run.remove_data("stage");
    Ok(Outcome::end_to_end(
        stats::median(&setups),
        setups,
        run,
        cmdlines,
    ))
}

fn traced<W: Workload>(ctx: &Ctx, seconds: f64) -> Result<Outcome, String> {
    let mut stage = W::setup(ctx, "stage")?;
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut layers = Layers::new();
    // Half the window replays the workload, half is the probes' budget.
    let counts = stage.trace(ctx, seconds / 2.0, &mut tracer, &mut layers)?;
    let base = stage.base();
    layers.insert("datagen.generate_s", base.generate_s);
    let inputs = probes::Inputs {
        corpus: Arc::clone(&base.corpus),
        pack: base.pack.clone(),
        front: stage.children()[0].addr,
        seed: ctx.seed,
        scratch: base.dir.clone(),
    };
    probes::run_all(&inputs, seconds / 2.0, &mut tracer, &mut layers)?;
    let cmdlines = cmdlines(&stage);
    drop(stage);
    ctx.run.remove_data("stage");
    let trace_path = ctx.run.path.join("trace.jsonl");
    tracer.write(&trace_path)?;
    Ok(Outcome::per_layer(layers, counts, cmdlines, &tracer))
}

/// Runs one workload once and returns its outcome (also written to
/// `report.json` in the run's directory).
pub fn run_one(args: &RunArgs) -> Result<Outcome, String> {
    let binary = fleet::build_binary()?;
    let label = format!(
        "{}-seed{}-{}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    let ctx = Ctx {
        binary,
        run: RunDir::create(&label)?,
        seed: args.seed,
    };
    macro_rules! dispatch {
        ($ty:ty) => {
            if args.trace {
                traced::<$ty>(&ctx, args.seconds)
            } else {
                untraced::<$ty>(&ctx, args.seconds)
            }
        };
    }
    let mut outcome = match args.workload.as_str() {
        "serve_read" => dispatch!(workloads::serve_read::ServeRead),
        "routed_read" => dispatch!(workloads::routed_read::RoutedRead),
        "serve_write" => dispatch!(workloads::serve_write::ServeWrite),
        "analyze" => dispatch!(workloads::analyze::Analyze),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    outcome.args = Some(args.clone());
    let path = ctx.run.path.join("report.json");
    std::fs::write(&path, outcome.report_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(outcome)
}

fn main_inner(args: &[String]) -> Result<i32, String> {
    let seconds = parsed(args, "--seconds", metrics::RUN_SECONDS as f64)?;
    match args.first().map(String::as_str) {
        Some("selftest") => selftest::run(),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(0)
        }
        Some("basket") => basket::headroom(&seeds(args, "1,2,3")?),
        Some("run") => report::run_suite(parsed(args, "--seed", 1)?, seconds),
        Some("check") => report::check(&seeds(args, "1,2")?, seconds),
        _ => {
            let run = RunArgs {
                workload: flag(args, "--workload")
                    .ok_or("usage: ledger --workload NAME --seed N --seconds S --trace 0|1")?
                    .to_string(),
                seed: parsed(args, "--seed", 1)?,
                seconds,
                trace: parsed::<u8>(args, "--trace", 0)? != 0,
            };
            let outcome = run_one(&run)?;
            eprintln!("{}", outcome.human());
            // The driver reads the last line of stdout.
            println!("{}", outcome.result_line());
            Ok(0)
        }
    }
}

fn seeds(args: &[String], default: &str) -> Result<Vec<u64>, String> {
    flag(args, "--seeds")
        .unwrap_or(default)
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad seed {s:?}")))
        .collect()
}

fn main() {
    // The probes run library code in-process; keep its info lines off
    // the ledger's own stderr.
    hyperbench_telemetry::log::set_level(
        hyperbench_telemetry::log::parse_threshold("warn").expect("a known level"),
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(1);
        }
    }
}
