//! `/metrics` scrapes and their deltas: the per-layer counts taken
//! around each timed phase, from outside the program.

use std::collections::BTreeMap;
use std::net::SocketAddr;

use crate::http;

/// One parsed Prometheus text exposition: series name (labels kept
/// verbatim) → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(pub BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The value is the last whitespace-separated token; label
            // values may themselves contain spaces.
            if let Some((name, value)) = line.rsplit_once(char::is_whitespace) {
                if let Ok(v) = value.parse::<f64>() {
                    series.insert(name.trim().to_string(), v);
                }
            }
        }
        Scrape(series)
    }

    pub fn fetch(addr: SocketAddr) -> Result<Scrape, String> {
        let (status, body) = http::once(addr, &http::get("/metrics"))?;
        if status != 200 {
            return Err(format!("GET /metrics on {addr} answered {status}"));
        }
        Ok(Scrape::parse(&String::from_utf8_lossy(&body)))
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds another process's series (the shards of a fleet sum).
    pub fn add(&mut self, other: &Scrape) {
        for (name, value) in &other.0 {
            *self.0.entry(name.clone()).or_insert(0.0) += value;
        }
    }
}

/// The change between two scrapes of the same process(es).
#[derive(Debug, Clone, Default)]
pub struct Delta {
    before: Scrape,
    after: Scrape,
}

impl Delta {
    pub fn between(before: Scrape, after: Scrape) -> Delta {
        Delta { before, after }
    }

    /// The deltas of several processes as one (the shards of a fleet).
    pub fn sum(deltas: &[Delta]) -> Delta {
        let mut total = Delta::default();
        for d in deltas {
            total.before.add(&d.before);
            total.after.add(&d.after);
        }
        total
    }

    /// Counter increase over the phase.
    pub fn counter(&self, name: &str) -> f64 {
        (self.after.get(name) - self.before.get(name)).max(0.0)
    }

    /// Mean of a histogram's observations made during the phase
    /// (Δsum / Δcount), 0 when it saw none.
    pub fn histogram_mean(&self, name: &str) -> f64 {
        let count = self.counter(&format!("{name}_count"));
        if count == 0.0 {
            0.0
        } else {
            self.counter(&format!("{name}_sum")) / count
        }
    }

    /// `a / b`, 0 when the phase saw no `b`.
    pub fn ratio(&self, a: &str, b: &str) -> f64 {
        let denominator = self.counter(b);
        if denominator == 0.0 {
            0.0
        } else {
            self.counter(a) / denominator
        }
    }

    /// Every series that moved, for the trace file.
    pub fn moved(&self) -> Vec<(String, f64)> {
        self.after
            .0
            .iter()
            .filter(|(name, _)| !name.contains("_bucket"))
            .filter_map(|(name, after)| {
                let d = after - self.before.get(name);
                (d != 0.0).then(|| (name.clone(), d))
            })
            .collect()
    }
}
