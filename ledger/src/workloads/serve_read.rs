//! `serve_read` — one `serve --pack` over the paper-sized corpus; two
//! connections replay the workbench's browse/filter/download mix. The
//! control for `server`, `api`, `query` and `repo` reads: `decomp`, the
//! WAL and the router do nothing here.

use std::sync::Arc;

use super::{
    cold_sweep, measure_reads, readers, restart, server_layers, trace_reads, Base, Ctx,
    EndToEndRun, Layers, Workload, CONNECTIONS, SCRIPT_OPS,
};
use crate::fleet::Child;
use crate::reads::{self, Counts, ReadOp, Reader, Workbook, SERVE_READ_MIX};
use crate::stats::Samples;
use crate::trace::Tracer;

/// `generate_benchmark` scale: 1.0 is the paper's 3,648 entries.
pub const SCALE: f64 = 1.0;

pub struct ServeRead {
    base: Base,
    server: Child,
    readers: Vec<Reader>,
    scripts: Vec<Vec<ReadOp>>,
    cold: Samples,
}

impl Workload for ServeRead {
    const NAME: &'static str = "serve_read";

    fn setup(ctx: &Ctx, slot: &str) -> Result<ServeRead, String> {
        let base = Base::generate(ctx, slot, SCALE)?;
        let corpus = &base.corpus;
        corpus.write_pack(&base.pack)?;
        let book = Arc::new(Workbook::build(corpus));
        let scripts = (0..CONNECTIONS as u64)
            .map(|c| reads::script(ctx.seed, c, corpus.len(), &SERVE_READ_MIX, SCRIPT_OPS))
            .collect();
        let server = Child::spawn(
            &ctx.binary,
            "serve",
            &[
                "serve".into(),
                "--pack".into(),
                base.pack.display().to_string(),
            ],
            &base.dir,
        )?;
        let mut readers = readers(server.addr, corpus, &book)?;
        let cold = cold_sweep(&mut readers, corpus.len())?;
        Ok(ServeRead {
            base,
            server,
            readers,
            scripts,
            cold,
        })
    }

    fn measure(&mut self, _ctx: &Ctx, seconds: f64) -> Result<EndToEndRun, String> {
        measure_reads(
            &mut self.readers,
            &self.scripts,
            &[&self.server],
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
        let (cost, counts, client_mean) = trace_reads(
            &mut self.readers,
            &self.scripts,
            &[&self.server],
            seconds,
            tracer,
            layers,
        )?;
        tracer.counts("serve_read.traced", cost.deltas[0].moved());
        server_layers(layers, &cost.deltas[0], client_mean);
        layers.insert("server.cold_point_p50_ms", self.cold.p50_ms());
        layers.insert("server.threads", cost.threads as f64);
        let ready_ms = restart(ctx, &mut self.server, &self.base.dir)?;
        layers.insert("server.restart_ready_ms", ready_ms);
        Ok(counts)
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn children(&self) -> Vec<&Child> {
        vec![&self.server]
    }
}
