//! In-memory spans recorded from the ledger's own files and written to
//! `trace.jsonl` when the run ends. One line per span:
//! `{trace, id, parent, name, start_ns, end_ns}`; a span's self time is
//! its duration minus the part its children cover. Scrape deltas taken
//! at the same boundaries ride along as `{"counts": …}` lines.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::http::Timing;
use crate::report::json_string;

#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Ids are unique across lanes because each
/// lane owns a disjoint id range.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
    pub counts: Vec<(String, Vec<(String, f64)>)>,
}

impl Tracer {
    /// `lane` separates the id ranges of concurrently recording threads;
    /// every lane of a run shares `epoch`.
    pub fn new(epoch: Instant, lane: u64) -> Tracer {
        Tracer {
            epoch,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span and returns its id (the parent of what follows).
    pub fn span(
        &mut self,
        trace: u64,
        parent: u64,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.fresh_id();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            trace,
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// A root span opening a new trace; returns `(trace, span id)`.
    pub fn root(&mut self, name: &str, start: Instant, end: Instant) -> (u64, u64) {
        let trace = self.next_id;
        let id = self.span(trace, 0, name, start, end);
        (trace, id)
    }

    /// The three children of one HTTP exchange under `parent`: `send`,
    /// `wait` (to first byte) and `recv`.
    pub fn exchange(&mut self, trace: u64, parent: u64, t: &Timing) {
        self.span(trace, parent, "send", t.start, t.sent);
        self.span(trace, parent, "wait", t.sent, t.first_byte);
        self.span(trace, parent, "recv", t.first_byte, t.done);
    }

    /// One whole-exchange op: root span plus its three children.
    pub fn op(&mut self, name: &str, t: &Timing) {
        let (trace, id) = self.root(name, t.start, t.done);
        self.exchange(trace, id, t);
    }

    /// Runs `f` under a `probe.<metric>` root span.
    pub fn probe<T>(&mut self, metric: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.root(&format!("probe.{metric}"), start, Instant::now());
        out
    }

    /// Attaches scrape-delta counts taken at a phase boundary.
    pub fn counts(&mut self, boundary: &str, moved: Vec<(String, f64)>) {
        self.counts.push((boundary.to_string(), moved));
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.counts.extend(other.counts);
    }

    pub fn write(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let mut emit = || -> std::io::Result<()> {
            for s in &self.spans {
                writeln!(
                    out,
                    "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
                )?;
            }
            for (boundary, moved) in &self.counts {
                let fields: Vec<String> = moved
                    .iter()
                    .map(|(name, delta)| format!("{}:{delta}", json_string(name)))
                    .collect();
                writeln!(
                    out,
                    "{{\"counts\":\"{boundary}\",\"delta\":{{{}}}}}",
                    fields.join(",")
                )?;
            }
            out.flush()
        };
        emit().map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Self time per span name: duration minus the interval its direct
/// children cover, summed over all spans of that name.
pub fn self_times(spans: &[Span]) -> Vec<(String, u64, usize)> {
    use std::collections::BTreeMap;
    let mut child_cover: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_cover.entry(s.parent).or_insert(0) += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for s in spans {
        let covered = child_cover.get(&s.id).copied().unwrap_or(0);
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        let slot = by_name.entry(&s.name).or_insert((0, 0));
        slot.0 += own;
        slot.1 += 1;
    }
    by_name
        .into_iter()
        .map(|(name, (ns, n))| (name.to_string(), ns, n))
        .collect()
}
