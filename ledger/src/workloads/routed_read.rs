//! `routed_read` — the `serve_read` corpus split round-robin over two
//! shard packs (`gid = local·2 + shard`, so global ids equal corpus
//! ids), two `serve` children behind one `route`. Against `serve_read`
//! it isolates the front tier: proxy, scatter-gather and the upstream
//! pool; a router change must leave `serve_read` flat.

use std::sync::Arc;
use std::time::Instant;

use super::{
    cold_sweep, measure_reads, readers, restart, server_layers, trace_reads, Base, Ctx,
    EndToEndRun, Layers, Workload, CONNECTIONS, SCRIPT_OPS,
};
use crate::fleet::Child;
use crate::http::{self, Conn};
use crate::reads::{self, Counts, ReadOp, Reader, Workbook, ROUTED_READ_MIX};
use crate::scrape::Delta;
use crate::stats::{Rng, Samples};
use crate::trace::Tracer;

pub const SHARDS: usize = 2;

/// Interleaved direct/routed request pairs per op class in the traced
/// run; the point pairs double as the routed-equals-shard body sample.
const POINT_PAIRS: usize = 400;
const PAGE_PAIRS: usize = 120;

pub struct RoutedRead {
    /// Shard 0's pack stands in for "the pack" in the repo probes.
    base: Base,
    shards: Vec<Child>,
    router: Child,
    readers: Vec<Reader>,
    scripts: Vec<Vec<ReadOp>>,
    cold: Samples,
}

/// The fleet in the order its `/metrics` deltas are read: shards, then
/// the router.
fn fleet<'a>(shards: &'a [Child], router: &'a Child) -> Vec<&'a Child> {
    shards.iter().chain([router]).collect()
}

impl RoutedRead {
    /// Direct-to-owning-shard and routed twins of the same request, back
    /// to back, so both distributions sample the same machine state.
    /// Returns `(point overhead, page overhead)` in microseconds.
    fn overhead_pairs(
        &self,
        seed: u64,
        tracer: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<(f64, f64), String> {
        let mut rng = Rng::new(seed ^ 0x0A11_D1CE);
        let mut direct: Vec<Conn> = self
            .shards
            .iter()
            .map(|s| Conn::connect(s.addr))
            .collect::<Result<_, _>>()?;
        let mut routed = Conn::connect(self.router.addr)?;
        let mut twin = |tracer: &mut Tracer,
                        name: &str,
                        shard: usize,
                        direct_path: &str,
                        routed_path: &str,
                        rewrite: Option<(usize, usize)>|
         -> Result<(u64, u64), String> {
            let (status, body) = direct[shard].exchange(&http::get(direct_path))?;
            if status != 200 {
                return Err(format!("direct {direct_path}: status {status}"));
            }
            let direct_body = body.to_vec();
            let direct_timing = direct[shard].timing;
            let (status, body) = routed.exchange(&http::get(routed_path))?;
            if status != 200 {
                return Err(format!("routed {routed_path}: status {status}"));
            }
            if let Some((local, gid)) = rewrite {
                // The router's answer is the owning shard's, modulo the
                // id rewrite at the front of the body.
                let expected = String::from_utf8_lossy(&direct_body).replacen(
                    &format!("{{\"id\":{local},"),
                    &format!("{{\"id\":{gid},"),
                    1,
                );
                if body != expected.as_bytes() {
                    return Err(format!(
                        "routed {routed_path}: body differs from its shard's"
                    ));
                }
            }
            let routed_timing = routed.timing;
            let (trace, root) = tracer.root(name, direct_timing.start, routed_timing.done);
            let d = tracer.span(
                trace,
                root,
                "direct",
                direct_timing.start,
                direct_timing.done,
            );
            tracer.exchange(trace, d, &direct_timing);
            let r = tracer.span(
                trace,
                root,
                "routed",
                routed_timing.start,
                routed_timing.done,
            );
            tracer.exchange(trace, r, &routed_timing);
            Ok((direct_timing.total_ns(), routed_timing.total_ns()))
        };
        let mut overhead = |tracer: &mut Tracer, pairs: usize, page: bool| -> f64 {
            let (mut d, mut r) = (Samples::default(), Samples::default());
            for _ in 0..pairs {
                let outcome = if page {
                    let target = "/v1/hypergraphs?limit=100&class=CQ%20Random";
                    twin(
                        tracer,
                        "op.overhead_page",
                        rng.below(SHARDS),
                        target,
                        target,
                        None,
                    )
                } else {
                    let gid = rng.below(self.base.corpus.len());
                    let (shard, local) = (gid % SHARDS, gid / SHARDS);
                    twin(
                        tracer,
                        "op.overhead_point",
                        shard,
                        &format!("/v1/hypergraphs/{local}"),
                        &format!("/v1/hypergraphs/{gid}"),
                        Some((local, gid)),
                    )
                };
                if let Ok((direct_ns, routed_ns)) = &outcome {
                    d.push(*direct_ns);
                    r.push(*routed_ns);
                }
                counts.record(outcome.map(|_| ()));
            }
            (r.p50_ms() - d.p50_ms()) * 1000.0
        };
        let point = overhead(tracer, POINT_PAIRS, false);
        let page = overhead(tracer, PAGE_PAIRS, true);
        Ok((point, page))
    }
}

impl Workload for RoutedRead {
    const NAME: &'static str = "routed_read";

    fn setup(ctx: &Ctx, slot: &str) -> Result<RoutedRead, String> {
        let mut base = Base::generate(ctx, slot, super::serve_read::SCALE)?;
        let corpus = Arc::clone(&base.corpus);
        let book = Arc::new(Workbook::build(&corpus));
        let scripts = (0..CONNECTIONS as u64)
            .map(|c| reads::script(ctx.seed, c, corpus.len(), &ROUTED_READ_MIX, SCRIPT_OPS))
            .collect();
        let mut shards = Vec::with_capacity(SHARDS);
        for shard in 0..SHARDS {
            let pack = base.dir.join(format!("shard{shard}.pack"));
            corpus.write_shard_pack(shard, SHARDS, &pack)?;
            shards.push(Child::spawn(
                &ctx.binary,
                &format!("shard{shard}"),
                &["serve".into(), "--pack".into(), pack.display().to_string()],
                &base.dir,
            )?);
        }
        base.pack = base.dir.join("shard0.pack");
        let map = base.dir.join("shards.map");
        let lines: String = shards.iter().map(|s| format!("{}\n", s.addr)).collect();
        std::fs::write(&map, lines).map_err(|e| format!("{}: {e}", map.display()))?;
        let router = Child::spawn(
            &ctx.binary,
            "route",
            &["route".into(), "--map".into(), map.display().to_string()],
            &base.dir,
        )?;
        let mut readers = readers(router.addr, &corpus, &book)?;
        let cold = cold_sweep(&mut readers, corpus.len())?;
        Ok(RoutedRead {
            base,
            shards,
            router,
            readers,
            scripts,
            cold,
        })
    }

    fn measure(&mut self, _ctx: &Ctx, seconds: f64) -> Result<EndToEndRun, String> {
        let children = fleet(&self.shards, &self.router);
        measure_reads(
            &mut self.readers,
            &self.scripts,
            &children,
            seconds,
            &mut self.cold,
        )
    }

    fn trace(
        &mut self,
        ctx: &Ctx,
        seconds: f64,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Counts, String> {
        let children = fleet(&self.shards, &self.router);
        let router_cpu_before = self.router.sample().cpu_ms;
        let (cost, mut counts, client_mean) = trace_reads(
            &mut self.readers,
            &self.scripts,
            &children,
            seconds,
            tracer,
            layers,
        )?;
        let router_cpu = self.router.sample().cpu_ms - router_cpu_before;

        // The shards' request stages sum; the router's own series stay apart.
        let shard_delta = Delta::sum(&cost.deltas[..SHARDS]);
        let router_delta = &cost.deltas[SHARDS];
        tracer.counts("routed_read.traced.shards", shard_delta.moved());
        tracer.counts("routed_read.traced.router", router_delta.moved());
        // Measured at the router; the shards' stages explain only their part.
        server_layers(layers, &shard_delta, client_mean);
        layers.insert("server.cold_point_p50_ms", self.cold.p50_ms());
        layers.insert(
            "server.threads",
            self.shards.iter().map(|s| s.sample().threads).sum::<u64>() as f64,
        );
        layers.insert("router.threads", self.router.sample().threads as f64);
        let routed = router_delta.counter("hyperbench_router_requests_total");
        layers.insert(
            "router.fanout_mean",
            router_delta.histogram_mean("hyperbench_router_scatter_fanout"),
        );
        layers.insert(
            "router.hedges_per_kreq",
            router_delta.counter("hyperbench_router_hedges_total") / routed.max(1.0) * 1000.0,
        );
        layers.insert(
            "router.failovers",
            router_delta.counter("hyperbench_router_failovers_total"),
        );
        // Router CPU covers both replay halves; so does the op tally.
        layers.insert(
            "router.cpu_ms_per_op",
            router_cpu / (counts.succeeded() as f64).max(1.0),
        );

        let (point, page) = self.overhead_pairs(ctx.seed, tracer, &mut counts)?;
        layers.insert("router.point_overhead_us", point);
        layers.insert("router.page_overhead_us", page);

        // Restart one shard: kill -9 to healthy, as an operator sees it.
        let ready_ms = restart(ctx, &mut self.shards[0], &self.base.dir)?;
        layers.insert("server.restart_ready_ms", ready_ms);
        // The probes that follow read through the router: wait until its
        // breaker lets the restarted shard's ids through again.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while !matches!(
            http::once(self.router.addr, &http::get("/v1/hypergraphs/0")),
            Ok((200, _))
        ) {
            if Instant::now() >= deadline {
                return Err("router did not readmit the restarted shard".to_string());
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        Ok(counts)
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn children(&self) -> Vec<&Child> {
        [&self.router].into_iter().chain(&self.shards).collect()
    }
}
