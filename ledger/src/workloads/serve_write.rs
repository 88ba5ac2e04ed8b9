//! `serve_write` — `serve --pack --writable` over a 4× corpus; one
//! connection writes (70 % create, 20 % replace, 10 % delete on its own
//! ids) while the other reads beside it. WAL fsync-before-ack, MVCC
//! commit and the checkpointer are the work; the larger corpus makes
//! whole-pack checkpoint rewrites visible. After the window the server
//! is killed with SIGKILL and restarted, and every acked write is
//! audited: creates and replaces by content hash, deletes absent.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperbench_api::dto::{WriteOutcome, WriteReceipt, WriteRequest};
use hyperbench_api::Json;
use hyperbench_core::format::parse_hg;
use hyperbench_repo::store::pack::content_hash_of;

use super::{
    cold_sweep, gather, readers, reset, restart, server_layers, Base, Ctx, EndToEndRun, Layers,
    Meter, PhaseCost, Workload, SCRIPT_OPS,
};
use crate::fleet::Child;
use crate::http::{self, Conn};
use crate::reads::{self, Counts, ReadOp, Reader, RecentRing, Workbook, BESIDE_WRITES_MIX};
use crate::stats::{Rng, Samples};
use crate::trace::Tracer;

/// `generate_benchmark` scale: ≈14.6k entries, a ≈16 MB pack.
pub const SCALE: f64 = 4.0;

/// Scripted writes — more than any window acks.
const WRITE_OPS: usize = 200_000;

/// Ids the reader may pick as "recently acked"; deletes stay clear of
/// them (see [`Writer::target`]).
const RECENT: usize = 256;

/// One scripted write. Targets of replaces and deletes are picked from
/// the ids this writer created, by `pick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    Create,
    Replace { pick: u32 },
    Delete { pick: u32 },
}

/// The write script of a seed: 70 % creates, 20 % replaces, 10 % deletes.
pub fn write_script(seed: u64, len: usize) -> Vec<WriteOp> {
    let mut rng = Rng::new(seed ^ 0x5EED_AC1D);
    (0..len)
        .map(|_| {
            let roll = rng.below(100);
            let pick = rng.next_u64() as u32;
            match roll {
                0..=69 => WriteOp::Create,
                70..=89 => WriteOp::Replace { pick },
                _ => WriteOp::Delete { pick },
            }
        })
        .collect()
}

/// A fresh 5–40-edge document, unique by its serial: a chain of edges
/// (so it is connected) with up to two extra vertices per edge.
pub fn document(seed: u64, serial: u64) -> String {
    let mut rng = Rng::new(seed ^ serial.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let edges = rng.range(5, 40);
    let mut text = String::with_capacity(edges * 32);
    for e in 0..edges {
        if e > 0 {
            text.push_str(",\n");
        }
        text.push_str(&format!("w{serial}e{e}(w{serial}v{e},w{serial}v{}", e + 1));
        for _ in 0..rng.below(3) {
            text.push_str(&format!(",w{serial}v{}", rng.below(edges + 1)));
        }
        text.push(')');
    }
    text.push('.');
    text
}

/// What the server has acknowledged, for the durability audit.
#[derive(Default)]
pub struct Acked {
    /// Live ids this writer created, oldest first, with the content
    /// hash of their last acked write.
    live: Vec<(usize, u64)>,
    deleted: Vec<usize>,
}

/// The writing connection.
struct Writer {
    addr: std::net::SocketAddr,
    conn: Option<Conn>,
    seed: u64,
    serial: u64,
    last_seq: u64,
    acked: Acked,
    user_bytes: u64,
    recent: Arc<RecentRing>,
    samples: Samples,
    counts: Counts,
    tracer: Option<Tracer>,
}

impl Writer {
    /// The id a replace or delete addresses, or `None` while too few
    /// are live. Deletes only take the older half of a list longer than
    /// twice the recent ring, so an id the reader may still pick as
    /// "recent" is never removed under it.
    fn target(&self, pick: u32, delete: bool) -> Option<usize> {
        let live = self.acked.live.len();
        let span = if delete {
            if live < 2 * RECENT + 2 {
                return None;
            }
            live / 2
        } else {
            live
        };
        (span > 0).then(|| pick as usize % span)
    }

    fn run(&mut self, op: WriteOp) {
        let outcome = self.attempt(op);
        if outcome.is_err() {
            self.conn = None;
        }
        let ok = self.counts.record(outcome);
        if let (true, Some(conn)) = (ok, &self.conn) {
            self.samples.push(conn.timing.total_ns());
            if let Some(tracer) = &mut self.tracer {
                let name = match op {
                    WriteOp::Create => "op.create",
                    WriteOp::Replace { .. } => "op.replace",
                    WriteOp::Delete { .. } => "op.delete",
                };
                tracer.op(name, &conn.timing);
            }
        }
    }

    fn attempt(&mut self, op: WriteOp) -> Result<(), String> {
        // A replace or delete with nothing to address yet is a create.
        let (slot, delete) = match op {
            WriteOp::Create => (None, false),
            WriteOp::Replace { pick } => (self.target(pick, false), false),
            WriteOp::Delete { pick } => match self.target(pick, true) {
                Some(slot) => (Some(slot), true),
                None => (None, false),
            },
        };
        let (request, expected_hash, doc_len) = if delete {
            let id = self.acked.live[slot.expect("delete has a target")].0;
            (http::delete(&format!("/v1/hypergraphs/{id}")), None, 0)
        } else {
            self.serial += 1;
            let doc = document(self.seed, self.serial);
            let parsed = parse_hg(&doc).map_err(|e| format!("generated document: {e}"))?;
            let hash = content_hash_of(&parsed);
            let body = WriteRequest::new(doc.as_str()).to_json().to_string();
            let request = match slot {
                Some(slot) => {
                    let id = self.acked.live[slot].0;
                    http::with_body("PUT", &format!("/v1/hypergraphs/{id}"), &body)
                }
                None => http::with_body("POST", "/v1/hypergraphs", &body),
            };
            (request, Some(hash), doc.len())
        };
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(self.addr)?);
        }
        let conn = self.conn.as_mut().expect("just connected");
        let (status, body) = conn.exchange(&request)?;
        let want_status = if slot.is_none() { 201 } else { 200 };
        if status != want_status {
            return Err(format!(
                "write answered {status}, expected {want_status}: {}",
                String::from_utf8_lossy(body)
            ));
        }
        let text = std::str::from_utf8(body).map_err(|_| "receipt is not UTF-8".to_string())?;
        let receipt = WriteReceipt::from_json(&Json::parse(text)?).map_err(|e| e.to_string())?;
        let seq = receipt.seq.ok_or("receipt without seq")?;
        if seq <= self.last_seq {
            return Err(format!("receipt seq {seq} not above {}", self.last_seq));
        }
        self.last_seq = seq;
        if receipt.content_hash != expected_hash {
            return Err("receipt content hash differs from the document sent".to_string());
        }
        match (slot, delete) {
            (None, _) => {
                if receipt.outcome != WriteOutcome::Created {
                    return Err(format!("create answered {:?}", receipt.outcome));
                }
                self.acked
                    .live
                    .push((receipt.id, expected_hash.expect("creates carry a hash")));
                self.recent.push(receipt.id);
            }
            (Some(slot), false) => {
                let entry = &mut self.acked.live[slot];
                if receipt.outcome != WriteOutcome::Replaced || receipt.id != entry.0 {
                    return Err(format!("replace of {} answered {:?}", entry.0, receipt));
                }
                entry.1 = expected_hash.expect("replaces carry a hash");
            }
            (Some(slot), true) => {
                let (id, _) = self.acked.live.remove(slot);
                if receipt.outcome != WriteOutcome::Removed || receipt.id != id {
                    return Err(format!("delete of {id} answered {receipt:?}"));
                }
                self.acked.deleted.push(id);
            }
        }
        self.user_bytes += doc_len as u64;
        Ok(())
    }
}

pub struct ServeWrite {
    base: Base,
    book: Arc<Workbook>,
    server: Child,
    /// Reader 0 runs beside the writer; both run the cold sweep.
    readers: Vec<Reader>,
    read_script: Vec<ReadOp>,
    write_script: Vec<WriteOp>,
    writer: Writer,
    cold: Samples,
}

/// What the timed window produced, before the audit.
struct Window {
    cost: PhaseCost,
    writes: Samples,
    write_counts: Counts,
    reads: Samples,
    pages: Samples,
    read_counts: Counts,
    /// Bytes of `.hg` text in the window's acked creates and replaces.
    user_bytes: u64,
}

impl ServeWrite {
    /// Writer and reader side by side, closed loop, until the window is
    /// over.
    fn window(&mut self, seconds: f64) -> Result<Window, String> {
        let server = &self.server;
        let meter = Meter::start(&[server])?;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let (writer, write_script) = (&mut self.writer, &self.write_script);
        let (reader, read_script) = (&mut self.readers[0], &self.read_script);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for op in write_script.iter().cycle() {
                    if Instant::now() >= deadline {
                        break;
                    }
                    writer.run(*op);
                }
            });
            scope.spawn(move || {
                for op in read_script.iter().cycle() {
                    if Instant::now() >= deadline {
                        break;
                    }
                    reader.run(*op);
                }
            });
        });
        let cost = meter.finish(&[server])?;
        let (reads, pages, read_counts) = gather(&self.readers[..1]);
        reset(&mut self.readers);
        Ok(Window {
            cost,
            writes: std::mem::take(&mut self.writer.samples),
            write_counts: std::mem::take(&mut self.writer.counts),
            reads,
            pages,
            read_counts,
            user_bytes: std::mem::take(&mut self.writer.user_bytes),
        })
    }

    /// `kill -9`, restart, and check every acked write: creates and
    /// replaces by content hash, deletes absent. A sandbox SIGKILL keeps
    /// the OS page cache, so this audits the WAL protocol (fsync before
    /// ack, replay on open), not the storage device.
    fn audit(&mut self, ctx: &Ctx) -> Result<(bool, f64, String), String> {
        let ready_ms = restart(ctx, &mut self.server, &self.base.dir)?;
        let addr = self.server.addr;
        let acked = &self.writer.acked;
        let lanes = 2;
        let problems: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..lanes)
                .map(|lane| {
                    scope.spawn(move || -> Result<Vec<String>, String> {
                        let mut conn = Conn::connect(addr)?;
                        let mut problems = Vec::new();
                        for &(id, hash) in acked.live.iter().skip(lane).step_by(lanes) {
                            let (status, body) =
                                conn.exchange(&http::get(&format!("/v1/hypergraphs/{id}/hg")))?;
                            let stored = std::str::from_utf8(body)
                                .ok()
                                .and_then(|text| parse_hg(text).ok())
                                .map(|h| content_hash_of(&h));
                            if status != 200 || stored != Some(hash) {
                                problems
                                    .push(format!("acked entry {id} lost or changed ({status})"));
                            }
                        }
                        for &id in acked.deleted.iter().skip(lane).step_by(lanes) {
                            let (status, _) =
                                conn.exchange(&http::get(&format!("/v1/hypergraphs/{id}")))?;
                            if status != 404 {
                                problems.push(format!("deleted entry {id} answers {status}"));
                            }
                        }
                        Ok(problems)
                    })
                })
                .collect();
            let mut all = Vec::new();
            for handle in handles {
                match handle.join().expect("audit lane panicked") {
                    Ok(problems) => all.extend(problems),
                    Err(e) => all.push(e),
                }
            }
            all
        });
        let summary = format!(
            "durability audit after kill -9: {} live + {} deleted acked ids, {} problem(s){}",
            acked.live.len(),
            acked.deleted.len(),
            problems.len(),
            problems.first().map_or(String::new(), |p| format!(": {p}"))
        );
        // Every connection died with the server; same order as at set-up.
        self.writer.conn = Some(Conn::connect(addr)?);
        self.readers = readers(addr, &self.base.corpus, &self.book)?;
        self.readers[0].recent = Some(Arc::clone(&self.writer.recent));
        Ok((problems.is_empty(), ready_ms, summary))
    }
}

impl Workload for ServeWrite {
    const NAME: &'static str = "serve_write";

    fn setup(ctx: &Ctx, slot: &str) -> Result<ServeWrite, String> {
        let base = Base::generate(ctx, slot, SCALE)?;
        let corpus = &base.corpus;
        corpus.write_pack(&base.pack)?;
        let book = Arc::new(Workbook::build(corpus));
        let server = Child::spawn(
            &ctx.binary,
            "serve",
            &[
                "serve".into(),
                "--pack".into(),
                base.pack.display().to_string(),
                "--writable".into(),
            ],
            &base.dir,
        )?;
        // The writer connects first and the reader beside it second, so
        // the two always sit on different event loops.
        let writer_conn = Conn::connect(server.addr)?;
        let mut readers = readers(server.addr, corpus, &book)?;
        let cold = cold_sweep(&mut readers, corpus.len())?;
        let recent = Arc::new(RecentRing::new(RECENT));
        readers[0].recent = Some(Arc::clone(&recent));
        Ok(ServeWrite {
            writer: Writer {
                addr: server.addr,
                conn: Some(writer_conn),
                seed: ctx.seed,
                serial: 0,
                last_seq: 0,
                acked: Acked::default(),
                user_bytes: 0,
                recent,
                samples: Samples::default(),
                counts: Counts::default(),
                tracer: None,
            },
            read_script: reads::script(ctx.seed, 0, corpus.len(), &BESIDE_WRITES_MIX, SCRIPT_OPS),
            write_script: write_script(ctx.seed, WRITE_OPS),
            base,
            book,
            server,
            readers,
            cold,
        })
    }

    fn measure(&mut self, ctx: &Ctx, seconds: f64) -> Result<EndToEndRun, String> {
        let mut w = self.window(seconds)?;
        let (durable, ready_ms, summary) = self.audit(ctx)?;
        let delta = &w.cost.deltas[0];
        let acked = w.write_counts.succeeded() as f64;
        let mut counts = w.write_counts.clone();
        counts.merge(&w.read_counts);
        let all_ok = counts.succeeded() as f64;
        Ok(EndToEndRun {
            // The workload is named for its writes: acked writes per
            // second, so a checkpoint stall shows here.
            ops_per_s: acked / w.cost.wall_s,
            main_tail_pct: 99.0,
            cpu_ms_per_op: w.cost.child_cpu_ms / all_ok.max(1.0),
            peak_rss_mb: w.cost.peak_rss_mb,
            extra: vec![
                ("write_p50_ms".into(), w.writes.p50_ms()),
                ("write_p99_ms".into(), w.writes.pct_ms(99.0)),
                ("write_stall_max_ms".into(), w.writes.max_ms()),
                ("write_samples".into(), w.writes.len() as f64),
                (
                    "reads_per_s".into(),
                    w.read_counts.succeeded() as f64 / w.cost.wall_s,
                ),
                ("point_p50_ms".into(), w.reads.p50_ms()),
                ("page_p50_ms".into(), w.pages.p50_ms()),
                (
                    "checkpoints".into(),
                    delta.counter("hyperbench_wal_checkpoints_total"),
                ),
                (
                    "checkpoint_ms".into(),
                    delta.histogram_mean("hyperbench_wal_checkpoint_us") / 1000.0,
                ),
                (
                    "wal_bytes_per_user_byte".into(),
                    delta.counter("hyperbench_wal_append_bytes_total")
                        / (w.user_bytes as f64).max(1.0),
                ),
                (
                    "fsyncs_per_write".into(),
                    delta.counter("hyperbench_wal_fsyncs_total") / acked.max(1.0),
                ),
                ("restart_ready_ms".into(), ready_ms),
                ("client_cpu_share".into(), w.cost.client_cpu_share()),
                ("cold_point_p50_ms".into(), self.cold.p50_ms()),
            ],
            main: w.writes,
            side: w.reads,
            counts,
            checks: vec![(summary, durable)],
        })
    }

    fn trace(
        &mut self,
        ctx: &Ctx,
        seconds: f64,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Counts, String> {
        let plain = self.window(seconds / 2.0)?;
        let epoch = Instant::now();
        self.writer.tracer = Some(Tracer::new(epoch, 1));
        self.readers[0].tracer = Some(Tracer::new(epoch, 2));
        let mut w = self.window(seconds / 2.0)?;
        tracer.absorb(self.writer.tracer.take().expect("set above"));
        tracer.absorb(self.readers[0].tracer.take().expect("set above"));
        let delta = &w.cost.deltas[0];
        tracer.counts("serve_write.traced", delta.moved());

        let acked = w.write_counts.succeeded() as f64;
        let plain_rate = plain.write_counts.succeeded() as f64 / plain.cost.wall_s;
        layers.insert("write_p50_ms", w.writes.p50_ms());
        layers.insert("write_p99_ms", w.writes.pct_ms(99.0));
        layers.insert("point_p50_ms", w.reads.p50_ms());
        layers.insert("point_p99_ms", w.reads.pct_ms(99.0));
        layers.insert("page_p50_ms", w.pages.p50_ms());
        layers.insert("page_p99_ms", w.pages.pct_ms(99.0));
        let mut all = w.writes.clone();
        all.extend(&w.reads);
        all.extend(&w.pages);
        server_layers(layers, delta, all.mean_ms());
        layers.insert("repo.write_stall_max_ms", w.writes.max_ms());
        layers.insert("server.cold_point_p50_ms", self.cold.p50_ms());
        layers.insert("server.threads", w.cost.threads as f64);
        layers.insert(
            "ledger.trace_overhead_pct",
            (plain_rate - acked / w.cost.wall_s) / plain_rate * 100.0,
        );
        layers.insert("ledger.client_cpu_share", w.cost.client_cpu_share());

        let (durable, ready_ms, summary) = self.audit(ctx)?;
        layers.insert("server.restart_ready_ms", ready_ms);
        let mut counts = w.write_counts;
        counts.merge(&w.read_counts);
        counts.merge(&plain.write_counts);
        counts.merge(&plain.read_counts);
        counts.record(if durable { Ok(()) } else { Err(summary) });
        Ok(counts)
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn children(&self) -> Vec<&Child> {
        vec![&self.server]
    }
}

/// Acked ids by kind, for the self-test of the write script's shares.
pub fn script_shares(script: &[WriteOp]) -> BTreeMap<&'static str, usize> {
    let mut shares = BTreeMap::new();
    for op in script {
        let kind = match op {
            WriteOp::Create => "create",
            WriteOp::Replace { .. } => "replace",
            WriteOp::Delete { .. } => "delete",
        };
        *shares.entry(kind).or_insert(0) += 1;
    }
    shares
}
