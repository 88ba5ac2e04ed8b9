//! In-process probes: each times one public function of one layer on
//! the inputs the workloads use, under a `probe.<metric>` span. One
//! file per layer, so a later benchmark issue can adapt a layer's
//! probes without touching the rest. README.md lists the exact
//! functions called.

mod api;
mod core;
mod decomp;
mod lp;
mod query;
mod repo;
mod router;
mod server;
mod telemetry;

use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperbench_core::Hypergraph;

use crate::basket::BASKET;
use crate::corpus::Corpus;
use crate::trace::Tracer;
use crate::workloads::serve_write::document;
use crate::workloads::Layers;

/// Timed probes share the budget evenly; this many draw on it.
const TIMED_PROBES: f64 = 40.0;

/// What the probes take from the stage they run beside.
pub struct Inputs {
    pub corpus: Arc<Corpus>,
    /// The workload's own pack file.
    pub pack: PathBuf,
    /// Where `Client::entry` is pointed (the server, or the router).
    pub front: std::net::SocketAddr,
    pub seed: u64,
    /// A directory for the write-path probes' private files.
    pub scratch: PathBuf,
}

/// What a probe file works with.
pub struct Probes<'a> {
    pub inputs: &'a Inputs,
    pub tracer: &'a mut Tracer,
    pub layers: &'a mut Layers,
    /// How long one timed probe may loop.
    slice: Duration,
    /// The basket instances under their canonical names. Shared, so a
    /// probe's closure can hold them while `time` borrows the rest.
    pub basket: Rc<Vec<Hypergraph>>,
    /// `.hg` documents as `serve_write` uploads them.
    pub uploads: Rc<Vec<String>>,
}

impl Probes<'_> {
    /// Calls `f` over and over for this probe's slice (at least three
    /// times) and records the mean duration of one call, in
    /// nanoseconds divided by `per_unit` (1 = ns, 1e3 = µs, 1e6 = ms).
    pub fn time(&mut self, metric: &'static str, per_unit: f64, mut f: impl FnMut()) {
        let slice = self.slice;
        let mean_ns = self.tracer.probe(metric, || {
            let start = Instant::now();
            let mut calls = 0u64;
            while calls < 3 || start.elapsed() < slice {
                f();
                calls += 1;
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        });
        self.layers.insert(metric, mean_ns / per_unit);
    }

    /// Runs `f` once under the metric's span and records what it
    /// returns.
    pub fn once(&mut self, metric: &'static str, f: impl FnOnce() -> f64) {
        let value = self.tracer.probe(metric, f);
        self.layers.insert(metric, value);
    }

    pub fn record(&mut self, metric: &'static str, value: f64) {
        self.layers.insert(metric, value);
    }
}

/// Milliseconds `f` took.
pub fn ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1000.0
}

/// A counter of this process's own telemetry registry.
pub fn own_counter(name: &str) -> f64 {
    hyperbench_telemetry::global()
        .snapshot()
        .counter(name)
        .unwrap_or(0) as f64
}

/// Runs every layer's probes within roughly `budget_s` seconds.
pub fn run_all(
    inputs: &Inputs,
    budget_s: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut p = Probes {
        inputs,
        tracer,
        layers,
        // The one-shot probes (pack opens, WAL commits, basket passes)
        // take about half the budget between them.
        slice: Duration::from_secs_f64(budget_s / 2.0 / TIMED_PROBES),
        basket: Rc::new(BASKET.iter().map(|item| item.family.build()).collect()),
        uploads: Rc::new((1..=48).map(|n| document(inputs.seed, n)).collect()),
    };
    core::run(&mut p)?;
    let witnesses = decomp::run(&mut p)?;
    lp::run(&mut p, &witnesses)?;
    api::run(&mut p)?;
    repo::run(&mut p)?;
    query::run(&mut p)?;
    server::run(&mut p)?;
    router::run(&mut p)?;
    telemetry::run(&mut p)
}
