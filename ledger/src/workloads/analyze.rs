//! `analyze` — one `serve --pack --timeout-ms 8000 --jobs 2`; the
//! basket of fixed-width families goes through `POST /v1/analyses` in
//! three phases that use the same layer three ways: **cold** (two
//! connections, serial searches: concurrent throughput), **solo** (one
//! connection, `jobs = 2` on the heaviest third: single-search parallel
//! latency) and **hit** (the cold requests replayed: cache lookups).
//! `decomp`, `lp`, `core::properties`, the job queue and the analysis
//! cache do the work and HTTP is noise.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperbench_api::dto::{AnalysisResource, AnalysisStatus, AnalyzeMethod, AnalyzeRequest};
use hyperbench_api::Json;
use hyperbench_core::format::parse_hg;
use hyperbench_core::Hypergraph;
use hyperbench_decomp::validate::{validate_ghd, validate_hd};

use super::{
    cold_sweep, readers, restart, server_layers, Base, Ctx, EndToEndRun, Layers, Meter, PhaseCost,
    Workload, CONNECTIONS,
};
use crate::basket::{self, Request, BASKET, TIMEOUT_MS};
use crate::fleet::Child;
use crate::http::{self, Conn, Timing};
use crate::reads::{Counts, Workbook};
use crate::stats::Samples;
use crate::trace::Tracer;

/// Pause between polls of a running analysis.
const POLL_EVERY: Duration = Duration::from_millis(2);

/// Shares of the window given to each phase.
const COLD_SHARE: f64 = 0.55;
const SOLO_SHARE: f64 = 0.30;

/// How many of its latest cold requests each connection replays in the
/// hit phase: two lanes of these plus the solo phase's fit the server's
/// default 256-entry LRU, so every replay must hit.
const HIT_REPLAYS: usize = 60;

/// A cold request and the answer it got, kept for the hit phase.
struct Answered {
    request: Request,
    body: String,
    resource: AnalysisResource,
}

/// One connection submitting analyses and polling them to the end.
struct Analyst {
    addr: std::net::SocketAddr,
    conn: Option<Conn>,
    /// The basket instances under their canonical names, built once.
    built: Arc<Vec<Hypergraph>>,
    samples: Samples,
    counts: Counts,
    answered: Vec<Answered>,
    tracer: Option<Tracer>,
}

/// A fractional width as the wire spells it (`"3/2"` or `"2"`).
fn rational(text: &str) -> Option<f64> {
    match text.split_once('/') {
        Some((n, d)) => Some(n.trim().parse::<f64>().ok()? / d.trim().parse::<f64>().ok()?),
        None => text.trim().parse().ok(),
    }
}

impl Analyst {
    fn exchange(&mut self, request: &[u8]) -> Result<(u16, AnalysisResource, Timing), String> {
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(self.addr)?);
        }
        let conn = self.conn.as_mut().expect("just connected");
        let (status, body) = conn.exchange(request)?;
        let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_string())?;
        let resource = AnalysisResource::from_json(&Json::parse(text)?)
            .map_err(|e| format!("status {status}: {e}: {text}"))?;
        Ok((status, resource, conn.timing))
    }

    /// Submits `body` and polls until the analysis is terminal. Returns
    /// the final resource and the submit-to-terminal latency.
    fn submit_and_wait(&mut self, body: &str) -> Result<(AnalysisResource, u64), String> {
        let (status, mut resource, submit) =
            self.exchange(&http::with_body("POST", "/v1/analyses", body))?;
        if status != 200 && status != 202 {
            return Err(format!("submit answered {status}"));
        }
        let mut polls = Vec::new();
        let deadline = submit.start + Duration::from_millis(4 * TIMEOUT_MS);
        while !resource.status.is_terminal() {
            if Instant::now() >= deadline {
                return Err(format!("analysis {} never finished", resource.id));
            }
            std::thread::sleep(POLL_EVERY);
            let (status, polled, timing) =
                self.exchange(&http::get(&format!("/v1/analyses/{}", resource.id)))?;
            if status != 200 {
                return Err(format!("poll of {} answered {status}", resource.id));
            }
            resource = polled;
            polls.push(timing);
        }
        let done = polls.last().map_or(submit.done, |t| t.done);
        if let Some(tracer) = &mut self.tracer {
            let (trace, root) = tracer.root("op.analysis", submit.start, done);
            let s = tracer.span(trace, root, "submit", submit.start, submit.done);
            tracer.exchange(trace, s, &submit);
            for t in &polls {
                let p = tracer.span(trace, root, "poll", t.start, t.done);
                tracer.exchange(trace, p, t);
            }
        }
        Ok((resource, (done - submit.start).as_nanos() as u64))
    }

    /// Checks a terminal answer against the family's known widths and
    /// validates its witness against the document that was sent.
    fn check(request: Request, doc: &str, resource: &AnalysisResource) -> Result<(), String> {
        let entry = &BASKET[request.item];
        let label = format!("{} {}", entry.family.label(), request.method.as_str());
        if resource.status != AnalysisStatus::Done {
            return Err(format!(
                "{label}: {:?} {:?}",
                resource.status, resource.error
            ));
        }
        if resource.method != Some(request.method) {
            return Err(format!(
                "{label}: answered for method {:?}",
                resource.method
            ));
        }
        let report = resource
            .result
            .as_ref()
            .ok_or(format!("{label}: no result"))?;
        let want = match request.method {
            AnalyzeMethod::Ghd => entry.ghw,
            AnalyzeMethod::Hd | AnalyzeMethod::Fhd => entry.hw,
        };
        if report.hw_timed_out || report.hw_upper != Some(want) || report.hw_lower != want {
            return Err(format!(
                "{label}: width [{}, {:?}] timed_out={} but the family's is {want}",
                report.hw_lower, report.hw_upper, report.hw_timed_out
            ));
        }
        let h = parse_hg(doc).map_err(|e| format!("{label}: {e}"))?;
        let dto = resource
            .decomposition
            .as_ref()
            .ok_or(format!("{label}: no witness"))?;
        let witness = dto
            .to_decomposition(&h)
            .map_err(|e| format!("{label}: {e}"))?;
        if witness.width() > want {
            return Err(format!("{label}: witness of width {}", witness.width()));
        }
        match request.method {
            AnalyzeMethod::Ghd => validate_ghd(&h, &witness),
            AnalyzeMethod::Hd | AnalyzeMethod::Fhd => validate_hd(&h, &witness),
        }
        .map_err(|e| format!("{label}: witness invalid: {e}"))?;
        if request.method == AnalyzeMethod::Fhd {
            let fhw = dto.fractional_width.as_deref().and_then(rational);
            if !fhw.is_some_and(|w| w > 0.0 && w <= entry.ghw as f64 + 1e-9) {
                return Err(format!(
                    "{label}: fractional width {:?}",
                    dto.fractional_width
                ));
            }
        }
        Ok(())
    }

    /// One fresh (never cached) analysis of `request` under `salt`.
    fn fresh(&mut self, request: Request, salt: &str, jobs: usize, keep: bool) {
        let doc = basket::salted(&self.built[request.item], salt);
        let body = AnalyzeRequest::hd(doc.as_str())
            .with_method(request.method)
            .with_jobs(jobs)
            .to_json()
            .to_string();
        let outcome = self.submit_and_wait(&body).and_then(|(resource, ns)| {
            Self::check(request, &doc, &resource)?;
            if resource.cached != Some(false) {
                return Err(format!(
                    "fresh analysis answered cached={:?}",
                    resource.cached
                ));
            }
            Ok((resource, ns))
        });
        let outcome = outcome.map(|(resource, ns)| {
            if keep {
                self.answered.push(Answered {
                    request,
                    body,
                    resource,
                });
            }
            ns
        });
        self.finish(outcome);
    }

    /// Replays the `n`-th latest kept request; it must come from the
    /// cache and equal the cold answer.
    fn replay(&mut self, n: usize) {
        if self.answered.is_empty() {
            return self.finish(Err("no cold answer to replay".to_string()));
        }
        let span = self.answered.len().min(HIT_REPLAYS);
        let index = self.answered.len() - 1 - n % span;
        let body = self.answered[index].body.clone();
        let outcome = self.submit_and_wait(&body).and_then(|(resource, ns)| {
            let cold = &self.answered[index];
            let label = BASKET[cold.request.item].family.label();
            if resource.cached != Some(true) {
                return Err(format!(
                    "{label}: replay answered cached={:?}",
                    resource.cached
                ));
            }
            if resource.result != cold.resource.result
                || resource.decomposition != cold.resource.decomposition
                || resource.method != cold.resource.method
            {
                return Err(format!("{label}: cached answer differs from the cold one"));
            }
            Ok(ns)
        });
        self.finish(outcome);
    }

    fn finish(&mut self, outcome: Result<u64, String>) {
        if outcome.is_err() {
            self.conn = None;
        }
        if let Ok(ns) = &outcome {
            self.samples.push(*ns);
        }
        self.counts.record(outcome.map(|_| ()));
    }

    fn take(&mut self) -> (Samples, Counts) {
        (
            std::mem::take(&mut self.samples),
            std::mem::take(&mut self.counts),
        )
    }
}

/// One phase's samples, tallies and cost.
struct Phase {
    samples: Samples,
    counts: Counts,
    cost: PhaseCost,
}

pub struct Analyze {
    base: Base,
    server: Child,
    analysts: Vec<Analyst>,
    seed: u64,
    /// Bumped per phase run so no two ever share a salt.
    round: u64,
    cold: Samples,
}

impl Analyze {
    /// Runs `work` on the first `lanes` analysts side by side until the
    /// window is over.
    fn phase(
        &mut self,
        lanes: usize,
        seconds: f64,
        work: impl Fn(&mut Analyst, usize, u64) + Sync,
    ) -> Result<Phase, String> {
        let server = &self.server;
        let meter = Meter::start(&[server])?;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let work = &work;
        std::thread::scope(|scope| {
            for (lane, analyst) in self.analysts.iter_mut().take(lanes).enumerate() {
                scope.spawn(move || {
                    let mut n = 0;
                    while Instant::now() < deadline {
                        work(analyst, lane, n);
                        n += 1;
                    }
                });
            }
        });
        let cost = meter.finish(&[server])?;
        let (mut samples, mut counts) = (Samples::default(), Counts::default());
        for analyst in &mut self.analysts {
            let (s, c) = analyst.take();
            samples.extend(&s);
            counts.merge(&c);
        }
        Ok(Phase {
            samples,
            counts,
            cost,
        })
    }

    /// Cold, solo, hit — each for its share of `seconds`.
    fn phases(&mut self, seconds: f64) -> Result<[Phase; 3], String> {
        self.round += 1;
        let (seed, round) = (self.seed, self.round);
        let scripts: Vec<Vec<Request>> = (0..CONNECTIONS as u64)
            .map(|lane| basket::requests(seed, lane))
            .collect();
        let cold = self.phase(CONNECTIONS, seconds * COLD_SHARE, |analyst, lane, n| {
            let script = &scripts[lane];
            let salt = format!("c{seed}l{lane}r{round}n{}", n as usize / script.len());
            analyst.fresh(script[n as usize % script.len()], &salt, 1, true);
        })?;
        let heavy = basket::heaviest_third();
        let solo = self.phase(1, seconds * SOLO_SHARE, |analyst, _, n| {
            let salt = format!("s{seed}r{round}n{}", n as usize / heavy.len());
            analyst.fresh(heavy[n as usize % heavy.len()], &salt, 2, false);
        })?;
        let hit = self.phase(
            CONNECTIONS,
            seconds * (1.0 - COLD_SHARE - SOLO_SHARE),
            |analyst, _, n| analyst.replay(n as usize),
        )?;
        Ok([cold, solo, hit])
    }
}

impl Workload for Analyze {
    const NAME: &'static str = "analyze";

    fn setup(ctx: &Ctx, slot: &str) -> Result<Analyze, String> {
        let base = Base::generate(ctx, slot, super::serve_read::SCALE)?;
        let corpus = &base.corpus;
        corpus.write_pack(&base.pack)?;
        let server = Child::spawn(
            &ctx.binary,
            "serve",
            &[
                "serve".into(),
                "--pack".into(),
                base.pack.display().to_string(),
                "--timeout-ms".into(),
                TIMEOUT_MS.to_string(),
                // The ceiling for a request's `jobs`: without it the
                // solo phase's `jobs = 2` would be clamped to 1.
                "--jobs".into(),
                "2".into(),
            ],
            &base.dir,
        )?;
        let book = Arc::new(Workbook::build(corpus));
        let cold = cold_sweep(&mut readers(server.addr, corpus, &book)?, corpus.len())?;
        let built: Arc<Vec<Hypergraph>> =
            Arc::new(BASKET.iter().map(|item| item.family.build()).collect());
        // Connected one after the other: one analyst per event loop.
        let analysts = (0..CONNECTIONS)
            .map(|_| {
                Ok(Analyst {
                    addr: server.addr,
                    conn: Some(Conn::connect(server.addr)?),
                    built: Arc::clone(&built),
                    samples: Samples::default(),
                    counts: Counts::default(),
                    answered: Vec::new(),
                    tracer: None,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Analyze {
            base,
            server,
            analysts,
            seed: ctx.seed,
            round: 0,
            cold,
        })
    }

    fn measure(&mut self, _ctx: &Ctx, seconds: f64) -> Result<EndToEndRun, String> {
        let [mut cold, mut solo, mut hit] = self.phases(seconds)?;
        let ok = cold.counts.succeeded() as f64;
        let mut counts = cold.counts.clone();
        counts.merge(&solo.counts);
        counts.merge(&hit.counts);
        let hits = hit.cost.deltas[0].counter("hyperbench_cache_hits_total");
        let misses = hit.cost.deltas[0].counter("hyperbench_cache_misses_total");
        Ok(EndToEndRun {
            ops_per_s: ok / cold.cost.wall_s,
            main_tail_pct: 95.0,
            cpu_ms_per_op: cold.cost.child_cpu_ms / ok.max(1.0),
            peak_rss_mb: hit.cost.peak_rss_mb,
            extra: vec![
                ("analysis_p50_ms".into(), cold.samples.p50_ms()),
                ("analysis_p95_ms".into(), cold.samples.pct_ms(95.0)),
                ("analysis_max_ms".into(), cold.samples.max_ms()),
                ("analysis_solo_p50_ms".into(), solo.samples.p50_ms()),
                ("analysis_hit_p50_ms".into(), hit.samples.p50_ms()),
                ("cold_samples".into(), cold.samples.len() as f64),
                ("solo_samples".into(), solo.samples.len() as f64),
                ("hit_samples".into(), hit.samples.len() as f64),
                ("client_cpu_share".into(), cold.cost.client_cpu_share()),
                ("cold_point_p50_ms".into(), self.cold.p50_ms()),
            ],
            main: cold.samples,
            side: solo.samples,
            counts,
            checks: vec![(
                format!("hit phase served from the cache ({hits} hits, {misses} misses)"),
                misses == 0.0 && hits > 0.0,
            )],
        })
    }

    fn trace(
        &mut self,
        ctx: &Ctx,
        seconds: f64,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Counts, String> {
        // Untraced half first: its cold rate is what the traced half's
        // is compared with.
        let [plain, plain_solo, plain_hit] = self.phases(seconds / 2.0)?;
        let epoch = Instant::now();
        for (lane, analyst) in self.analysts.iter_mut().enumerate() {
            analyst.tracer = Some(Tracer::new(epoch, lane as u64 + 1));
        }
        let [mut cold, mut solo, mut hit] = self.phases(seconds / 2.0)?;
        for analyst in &mut self.analysts {
            tracer.absorb(analyst.tracer.take().expect("set above"));
        }
        tracer.counts("analyze.cold", cold.cost.deltas[0].moved());
        tracer.counts("analyze.solo", solo.cost.deltas[0].moved());
        tracer.counts("analyze.hit", hit.cost.deltas[0].moved());

        layers.insert("analysis_p50_ms", cold.samples.p50_ms());
        layers.insert("analysis_solo_p50_ms", solo.samples.p50_ms());
        layers.insert("analysis_hit_p50_ms", hit.samples.p50_ms());
        // The hit phase is one request per op: pure HTTP and cache lookup.
        server_layers(layers, &hit.cost.deltas[0], hit.samples.mean_ms());
        let delta = &cold.cost.deltas[0];
        layers.insert(
            "server.jobs_queue_wait_us_mean",
            delta.histogram_mean("hyperbench_jobs_queue_wait_us"),
        );
        layers.insert(
            "server.jobs_decompose_us_mean",
            delta.histogram_mean("hyperbench_jobs_decompose_us"),
        );
        let hits = hit.cost.deltas[0].counter("hyperbench_cache_hits_total");
        let misses = hit.cost.deltas[0].counter("hyperbench_cache_misses_total");
        layers.insert("server.cache_hit_ratio", hits / (hits + misses).max(1.0));
        layers.insert("server.cold_point_p50_ms", self.cold.p50_ms());
        layers.insert("server.threads", cold.cost.threads as f64);
        let plain_rate = plain.counts.succeeded() as f64 / plain.cost.wall_s;
        let traced_rate = cold.counts.succeeded() as f64 / cold.cost.wall_s;
        layers.insert(
            "ledger.trace_overhead_pct",
            (plain_rate - traced_rate) / plain_rate * 100.0,
        );
        layers.insert("ledger.client_cpu_share", cold.cost.client_cpu_share());

        let ready_ms = restart(ctx, &mut self.server, &self.base.dir)?;
        layers.insert("server.restart_ready_ms", ready_ms);

        let mut counts = Counts::default();
        for phase in [&plain, &plain_solo, &plain_hit, &cold, &solo, &hit] {
            counts.merge(&phase.counts);
        }
        counts.record(if misses == 0.0 && hits > 0.0 {
            Ok(())
        } else {
            Err(format!("hit phase: {hits} hits, {misses} misses"))
        });
        Ok(counts)
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn children(&self) -> Vec<&Child> {
        vec![&self.server]
    }
}
