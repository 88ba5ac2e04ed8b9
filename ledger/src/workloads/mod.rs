//! The four workloads and what they share: repeated set-up, phase
//! accounting from `/proc` and `/metrics`, and the closed-loop replay of
//! read scripts over two keep-alive connections.

pub mod analyze;
pub mod routed_read;
pub mod serve_read;
pub mod serve_write;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::corpus::Corpus;
use crate::fleet::{self, Child, ProcSample, RunDir};
use crate::reads::{Counts, ReadOp, Reader, Workbook};
use crate::scrape::{Delta, Scrape};
use crate::stats::Samples;
use crate::trace::Tracer;

/// Closed-loop connections per workload: callers of this system each
/// wait for a reply, and the sandbox has two cores.
pub const CONNECTIONS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Ops per precomputed read script — more than any window replays.
pub const SCRIPT_OPS: usize = 400_000;

/// What every workload needs to set itself up.
pub struct Ctx {
    pub binary: PathBuf,
    pub run: RunDir,
    pub seed: u64,
}

/// The end-to-end numbers of one untraced run, before `setup_s`.
pub struct EndToEndRun {
    pub ops_per_s: f64,
    pub main: Samples,
    /// The tail percentile `main_tail_ms` reports on this workload.
    pub main_tail_pct: f64,
    pub side: Samples,
    pub cpu_ms_per_op: f64,
    pub peak_rss_mb: f64,
    pub counts: Counts,
    /// Everything else worth a line in `report.json`.
    pub extra: Vec<(String, f64)>,
    /// Named checks beyond per-op answers (audits), each pass/fail.
    pub checks: Vec<(String, bool)>,
}

/// Per-layer values by metric name; everything not set reads 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// What every stage starts from: its data directory and the corpus
/// generated from the seed.
pub struct Base {
    pub dir: PathBuf,
    pub corpus: Arc<Corpus>,
    /// The pack the in-process repo probes open (`dir/corpus.pack`
    /// unless the stage says otherwise).
    pub pack: PathBuf,
    /// How long `generate_benchmark` took (`datagen.generate_s`).
    pub generate_s: f64,
}

impl Base {
    pub fn generate(ctx: &Ctx, slot: &str, scale: f64) -> Result<Base, String> {
        let dir = ctx.run.data_dir(slot)?;
        let started = Instant::now();
        let corpus = Arc::new(Corpus::generate(ctx.seed, scale));
        Ok(Base {
            generate_s: started.elapsed().as_secs_f64(),
            pack: dir.join("corpus.pack"),
            dir,
            corpus,
        })
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Generates inputs from the seed, spawns the children and runs the
    /// cold sweep, leaving everything ready for the first timed op.
    fn setup(ctx: &Ctx, slot: &str) -> Result<Self, String>;

    /// The untraced timed phase.
    fn measure(&mut self, ctx: &Ctx, seconds: f64) -> Result<EndToEndRun, String>;

    /// The traced run: replays with spans on, takes scrape deltas at the
    /// phase boundaries and fills this workload's layer metrics.
    fn trace(
        &mut self,
        ctx: &Ctx,
        seconds: f64,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Counts, String>;

    fn base(&self) -> &Base;

    /// Every child; the one clients talk to comes first.
    fn children(&self) -> Vec<&Child>;
}

/// `/proc` and `/metrics` readings around one phase.
pub struct Meter {
    started: Instant,
    children: ProcSample,
    own_cpu_ms: f64,
    scrapes: Vec<Scrape>,
}

/// What a phase cost, from outside the program.
pub struct PhaseCost {
    /// From the readings before the phase to the last reply.
    pub wall_s: f64,
    pub child_cpu_ms: f64,
    pub own_cpu_ms: f64,
    pub peak_rss_mb: f64,
    pub threads: u64,
    /// One delta per child, in the order given.
    pub deltas: Vec<Delta>,
}

impl PhaseCost {
    /// The generator's share of all CPU burnt in the phase.
    pub fn client_cpu_share(&self) -> f64 {
        let total = self.child_cpu_ms + self.own_cpu_ms;
        if total == 0.0 {
            0.0
        } else {
            self.own_cpu_ms / total
        }
    }
}

impl Meter {
    pub fn start(children: &[&Child]) -> Result<Meter, String> {
        let scrapes = children
            .iter()
            .map(|c| Scrape::fetch(c.addr))
            .collect::<Result<_, _>>()?;
        Ok(Meter {
            children: fleet::sample_all(children),
            own_cpu_ms: fleet::self_cpu_ms(),
            scrapes,
            started: Instant::now(),
        })
    }

    pub fn finish(self, children: &[&Child]) -> Result<PhaseCost, String> {
        let wall_s = self.started.elapsed().as_secs_f64();
        let after = fleet::sample_all(children);
        let own = fleet::self_cpu_ms();
        let deltas = children
            .iter()
            .zip(self.scrapes)
            .map(|(c, before)| Ok(Delta::between(before, Scrape::fetch(c.addr)?)))
            .collect::<Result<_, String>>()?;
        Ok(PhaseCost {
            wall_s,
            child_cpu_ms: after.cpu_ms - self.children.cpu_ms,
            own_cpu_ms: own - self.own_cpu_ms,
            peak_rss_mb: after.hwm_mb,
            threads: after.threads,
            deltas,
        })
    }
}

/// Replays each reader's script, closed loop, until `window` is over
/// (the last reply may land a moment after it). A script that runs out
/// starts over.
pub fn replay(readers: &mut [Reader], scripts: &[Vec<ReadOp>], window: Duration) {
    let deadline = Instant::now() + window;
    std::thread::scope(|scope| {
        for (reader, script) in readers.iter_mut().zip(scripts) {
            scope.spawn(move || {
                for op in script.iter().cycle() {
                    if Instant::now() >= deadline {
                        break;
                    }
                    reader.run(*op);
                }
            });
        }
    });
}

/// Fresh samples and tallies on every reader (walk positions and the
/// seen-body memo carry over).
pub fn reset(readers: &mut [Reader]) {
    for r in readers {
        r.point = Samples::default();
        r.page = Samples::default();
        r.counts = Counts::default();
    }
}

/// Point samples, page samples and tallies summed over the readers.
pub fn gather(readers: &[Reader]) -> (Samples, Samples, Counts) {
    let (mut point, mut page, mut counts) = Default::default();
    for r in readers {
        Samples::extend(&mut point, &r.point);
        Samples::extend(&mut page, &r.page);
        Counts::merge(&mut counts, &r.counts);
    }
    (point, page, counts)
}

/// The cold sweep: every id's detail once, split over the readers
/// (reader `c` takes ids ≡ c), each answer checked in full against the
/// mirror. Returns the sweep's point-read samples.
pub fn cold_sweep(readers: &mut [Reader], corpus_len: usize) -> Result<Samples, String> {
    let lanes = readers.len();
    std::thread::scope(|scope| {
        for (lane, reader) in readers.iter_mut().enumerate() {
            scope.spawn(move || {
                for id in (lane..corpus_len).step_by(lanes) {
                    reader.run(ReadOp::Detail(id as u32));
                }
            });
        }
    });
    let (point, _, counts) = gather(readers);
    if counts.failed > 0 {
        return Err(format!(
            "cold sweep: {} of {} reads failed: {:?}",
            counts.failed, counts.attempted, counts.failures
        ));
    }
    reset(readers);
    Ok(point)
}

/// A read stage's two readers over `addr`, connected one after the
/// other so they sit on different event loops of a two-loop server.
pub fn readers(
    addr: std::net::SocketAddr,
    corpus: &Arc<Corpus>,
    book: &Arc<Workbook>,
) -> Result<Vec<Reader>, String> {
    (0..CONNECTIONS)
        .map(|_| {
            let mut reader = Reader::new(addr, corpus, book);
            reader.connect()?;
            Ok(reader)
        })
        .collect()
}

/// The untraced timed phase of a read workload over `children`.
pub fn measure_reads(
    readers: &mut [Reader],
    scripts: &[Vec<ReadOp>],
    children: &[&Child],
    seconds: f64,
    cold: &mut Samples,
) -> Result<EndToEndRun, String> {
    let meter = Meter::start(children)?;
    replay(readers, scripts, Duration::from_secs_f64(seconds));
    let cost = meter.finish(children)?;
    let (mut point, mut page, counts) = gather(readers);
    let ok = counts.succeeded() as f64;
    Ok(EndToEndRun {
        ops_per_s: ok / cost.wall_s,
        main_tail_pct: 99.0,
        cpu_ms_per_op: cost.child_cpu_ms / ok.max(1.0),
        peak_rss_mb: cost.peak_rss_mb,
        extra: vec![
            ("point_p50_ms".into(), point.p50_ms()),
            ("point_p99_ms".into(), point.pct_ms(99.0)),
            ("page_p50_ms".into(), page.p50_ms()),
            ("page_p99_ms".into(), page.pct_ms(99.0)),
            ("point_samples".into(), point.len() as f64),
            ("page_samples".into(), page.len() as f64),
            ("client_cpu_share".into(), cost.client_cpu_share()),
            ("cold_point_p50_ms".into(), cold.p50_ms()),
        ],
        main: point,
        side: page,
        counts,
        checks: Vec::new(),
    })
}

/// The traced phase of a read workload: half the window untraced, half
/// with spans on (same fleet, so their rates compare), scrape deltas
/// taken around the traced half. Fills the op-class and ledger layer
/// metrics and returns the traced half's cost, the tallies and the
/// mean latency over every traced op (for [`server_layers`]).
pub fn trace_reads(
    readers: &mut [Reader],
    scripts: &[Vec<ReadOp>],
    children: &[&Child],
    seconds: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(PhaseCost, Counts, f64), String> {
    let window = Duration::from_secs_f64(seconds / 2.0);
    replay(readers, scripts, window);
    let (_, _, plain) = gather(readers);
    let plain_rate = plain.succeeded() as f64 / window.as_secs_f64();
    reset(readers);

    let epoch = Instant::now();
    for (lane, reader) in readers.iter_mut().enumerate() {
        reader.tracer = Some(Tracer::new(epoch, lane as u64 + 1));
    }
    let meter = Meter::start(children)?;
    replay(readers, scripts, window);
    let cost = meter.finish(children)?;
    for reader in readers.iter_mut() {
        tracer.absorb(reader.tracer.take().expect("set above"));
    }
    let (mut point, mut page, mut counts) = gather(readers);
    let traced_rate = counts.succeeded() as f64 / window.as_secs_f64();
    counts.merge(&plain);

    layers.insert("point_p50_ms", point.p50_ms());
    layers.insert("point_p99_ms", point.pct_ms(99.0));
    layers.insert("page_p50_ms", page.p50_ms());
    layers.insert("page_p99_ms", page.pct_ms(99.0));
    layers.insert(
        "ledger.trace_overhead_pct",
        (plain_rate - traced_rate) / plain_rate * 100.0,
    );
    layers.insert("ledger.client_cpu_share", cost.client_cpu_share());
    let mut all = point;
    all.extend(&page);
    Ok((cost, counts, all.mean_ms()))
}

/// Fills the layer metrics every `serve` child can answer: request
/// stage means from the scrape delta, and the unexplained wire share —
/// the client's mean latency over the same requests minus the three
/// stages (syscalls, reactor, loopback). The server's stage histograms
/// are not split by route, so both sides are means over every op.
pub fn server_layers(layers: &mut Layers, delta: &Delta, client_mean_ms: f64) {
    let parse = delta.histogram_mean("hyperbench_http_parse_us");
    let handle = delta.histogram_mean("hyperbench_http_handle_us");
    let serialize = delta.histogram_mean("hyperbench_http_serialize_us");
    layers.insert("server.parse_us_mean", parse);
    layers.insert("server.handle_us_mean", handle);
    layers.insert("server.serialize_us_mean", serialize);
    layers.insert(
        "server.wire_us",
        client_mean_ms * 1000.0 - parse - handle - serialize,
    );
    layers.insert(
        "server.epoll_wakeups_per_req",
        delta.ratio(
            "hyperbench_reactor_epoll_wakeups_total",
            "hyperbench_http_requests_total",
        ),
    );
    layers.insert(
        "query.rows_hydrated",
        delta.counter("hyperbench_query_rows_hydrated_total"),
    );
    layers.insert(
        "repo.checkpoints",
        delta.counter("hyperbench_wal_checkpoints_total"),
    );
}

/// Kills `child` with SIGKILL and starts the same command line again
/// on the same address, in place. Returns the milliseconds from kill to
/// healthy.
pub fn restart(ctx: &Ctx, child: &mut Child, dir: &std::path::Path) -> Result<f64, String> {
    let name = child.name.clone();
    // The spawn appends its own `--addr`; drop the old one.
    let args: Vec<String> = child.cmdline[..child.cmdline.len() - 2].to_vec();
    let addr = child.addr.to_string();
    let killed = Instant::now();
    child.kill();
    *child = Child::spawn_at(&ctx.binary, &name, &args, dir, &addr)?;
    Ok(killed.elapsed().as_secs_f64() * 1000.0)
}
