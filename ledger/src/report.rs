//! Outcomes and how they are printed: the driver's result line,
//! `report.json`, the human table, the whole-suite `run` and the A/A
//! `check`.

use std::fmt::Write as _;
use std::process::Command;

use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::reads::Counts;
use crate::trace::{self, Tracer};
use crate::workloads::{EndToEndRun, Layers};
use crate::{run_one, RunArgs};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Latency metrics state how many samples stand behind them.
    pub samples: Option<usize>,
    /// End-to-end metrics carry their regression bound.
    pub bound: Option<f64>,
    /// Layer metrics name the end-to-end metric they should move.
    pub moves: Option<&'static str>,
}

/// Everything one run produced.
pub struct Outcome {
    pub args: Option<RunArgs>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub extra: Vec<(String, f64)>,
    pub failures: Vec<String>,
    pub checks: Vec<(String, bool)>,
    pub cmdlines: Vec<String>,
    pub setups: Vec<f64>,
    /// `(span name, self ns, spans)` of the traced run.
    pub self_times: Vec<(String, u64, usize)>,
}

impl Outcome {
    pub fn end_to_end(
        setup_s: f64,
        setups: Vec<f64>,
        mut run: EndToEndRun,
        cmdlines: Vec<String>,
    ) -> Outcome {
        let mut checks = run.checks;
        // The sample-count rule: a reported percentile needs ten samples
        // beyond it, or the run is not evidence for that metric.
        checks.push((
            format!("main p{} has >= 10 samples beyond it", run.main_tail_pct),
            run.main.supports(run.main_tail_pct),
        ));
        let values = [
            (setup_s, None),
            (run.ops_per_s, None),
            (run.main.p50_ms(), Some(run.main.len())),
            (run.main.pct_ms(run.main_tail_pct), Some(run.main.len())),
            (run.side.p50_ms(), Some(run.side.len())),
            (run.cpu_ms_per_op, None),
            (run.peak_rss_mb, None),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(def, (value, samples))| Metric {
                name: def.name,
                unit: def.unit,
                value,
                samples,
                bound: Some(def.bound),
                moves: None,
            })
            .collect();
        run.extra.push(("main_tail_pct".into(), run.main_tail_pct));
        Outcome {
            args: None,
            attempted: run.counts.attempted,
            failed: run.counts.failed,
            metrics,
            extra: run.extra,
            failures: run.counts.failures,
            checks,
            cmdlines,
            setups,
            self_times: Vec::new(),
        }
    }

    pub fn per_layer(
        layers: Layers,
        counts: Counts,
        cmdlines: Vec<String>,
        tracer: &Tracer,
    ) -> Outcome {
        let metrics = PER_LAYER
            .iter()
            .map(|def| Metric {
                name: def.name,
                unit: def.unit,
                value: layers.get(def.name).copied().unwrap_or(0.0),
                samples: None,
                bound: None,
                moves: Some(def.moves),
            })
            .collect();
        let unknown: Vec<&&str> = layers
            .keys()
            .filter(|k| !PER_LAYER.iter().any(|d| d.name == **k))
            .collect();
        Outcome {
            args: None,
            attempted: counts.attempted,
            failed: counts.failed,
            metrics,
            extra: Vec::new(),
            failures: counts.failures,
            checks: vec![(
                format!("no undeclared layer metric {unknown:?}"),
                unknown.is_empty(),
            )],
            cmdlines,
            setups: Vec::new(),
            self_times: trace::self_times(&tracer.spans),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.checks.iter().all(|(_, ok)| *ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one JSON object the driver reads off the last stdout line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn report_json(&self) -> String {
        let mut out = String::from("{\n");
        if let Some(args) = &self.args {
            let _ = writeln!(
                out,
                "  \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {},",
                args.workload, args.seed, args.seconds, args.trace
            );
        }
        let _ = writeln!(
            out,
            "  \"commit\": {}, \"rustc\": {}, \"nproc\": {},",
            json_string(&commit()),
            json_string(&rustc_version()),
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
        let _ = writeln!(
            out,
            "  \"correct\": {}, \"attempted\": {}, \"succeeded\": {}, \"failed\": {},",
            self.correct(),
            self.attempted,
            self.attempted - self.failed,
            self.failed
        );
        let _ = writeln!(out, "  \"children\": {},", json_strings(&self.cmdlines));
        let _ = writeln!(out, "  \"setups_s\": {:?},", self.setups);
        out.push_str("  \"metrics\": {\n");
        let lines: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let mut line = format!(
                    "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                    m.name,
                    number(m.value),
                    m.unit
                );
                if let Some(n) = m.samples {
                    let _ = write!(line, ", \"samples\": {n}");
                }
                if let Some(b) = m.bound {
                    let _ = write!(line, ", \"bound\": {b}");
                }
                if let Some(moves) = m.moves {
                    let _ = write!(line, ", \"moves\": {}", json_string(moves));
                }
                line.push('}');
                line
            })
            .collect();
        out.push_str(&lines.join(",\n"));
        out.push_str("\n  },\n  \"extra\": {");
        let extra: Vec<String> = self
            .extra
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), number(*v)))
            .collect();
        out.push_str(&extra.join(", "));
        out.push_str("},\n  \"checks\": {");
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(k, ok)| format!("{}: {ok}", json_string(k)))
            .collect();
        out.push_str(&checks.join(", "));
        out.push_str("},\n  \"self_time_ns\": {");
        let selfs: Vec<String> = self
            .self_times
            .iter()
            .map(|(name, ns, n)| {
                format!(
                    "{}: {{\"self_ns\": {ns}, \"spans\": {n}}}",
                    json_string(name)
                )
            })
            .collect();
        out.push_str(&selfs.join(", "));
        let _ = write!(
            out,
            "}},\n  \"failures\": {}\n}}\n",
            json_strings(&self.failures)
        );
        out
    }

    /// The table a person reads (stderr in driver mode).
    pub fn human(&self) -> String {
        let mut out = String::new();
        if let Some(args) = &self.args {
            let _ = writeln!(
                out,
                "== {} seed {} {} s {} ==",
                args.workload,
                args.seed,
                args.seconds,
                if args.trace { "traced" } else { "untraced" }
            );
        }
        for m in &self.metrics {
            let _ = write!(out, "  {:<34} {:>14.4} {:<6}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(out, " n={n}");
            }
            if let Some(b) = m.bound {
                let _ = write!(out, " bound={b}");
            }
            out.push('\n');
        }
        for (k, v) in &self.extra {
            let _ = writeln!(out, "  ({k} = {v:.4})");
        }
        let _ = writeln!(
            out,
            "  attempted {} succeeded {} failed {} correct {}",
            self.attempted,
            self.attempted - self.failed,
            self.failed,
            self.correct()
        );
        for (name, ok) in &self.checks {
            let _ = writeln!(
                out,
                "  check [{}] {name}",
                if *ok { "ok" } else { "FAILED" }
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "  failure: {f}");
        }
        out
    }
}

/// `s` as a JSON string literal (Rust's `{:?}` is not one: it writes
/// `\u{…}` and `\'`).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_string(s)).collect();
    format!("[{}]", quoted.join(", "))
}

/// A JSON number with all its digits; non-finite values cannot be
/// written and mark the run incorrect elsewhere.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn commit() -> String {
    tool_line("git", &["rev-parse", "HEAD"])
}

fn rustc_version() -> String {
    tool_line("rustc", &["-V"])
}

/// `ledger run`: every workload untraced, then traced; everything
/// printed by name and gathered into one `report.json`.
pub fn run_suite(seed: u64, seconds: f64) -> Result<i32, String> {
    let mut all_correct = true;
    let mut sections = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            let outcome = run_one(&RunArgs {
                workload: w.name.to_string(),
                seed,
                seconds,
                trace,
            })?;
            eprint!("{}", outcome.human());
            all_correct &= outcome.correct();
            sections.push(format!(
                "\"{}.{}\": {}",
                w.name,
                if trace { "per_layer" } else { "end_to_end" },
                outcome.report_json().trim_end()
            ));
        }
    }
    let report = format!("{{\n{}\n}}\n", sections.join(",\n"));
    let dir = crate::fleet::target_dir().join("ledger");
    let path = dir.join(format!("suite-seed{seed}-report.json"));
    std::fs::write(&path, &report).map_err(|e| format!("{}: {e}", path.display()))?;
    print!("{report}");
    eprintln!("ledger: suite report at {}", path.display());
    Ok(if all_correct { 0 } else { 1 })
}

/// `ledger check`: the untraced suite twice per seed on one build. Any
/// end-to-end metric whose two readings differ by more than its bound,
/// or any differing failed count, fails the check; a difference above a
/// tenth is flagged so the metric can be demoted to a layer metric.
pub fn check(seeds: &[u64], seconds: f64) -> Result<i32, String> {
    let mut bad = 0;
    println!(
        "{:<12} {:>4} {:<14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "seed", "metric", "run A", "run B", "diff", "bound"
    );
    for &seed in seeds {
        for w in &WORKLOADS {
            let args = RunArgs {
                workload: w.name.to_string(),
                seed,
                seconds,
                trace: false,
            };
            let a = run_one(&args)?;
            let b = run_one(&args)?;
            if a.failed != b.failed || !a.correct() || !b.correct() {
                bad += 1;
                println!(
                    "{:<12} {:>4} failed counts {} vs {}, correct {} vs {}  FAIL",
                    w.name,
                    seed,
                    a.failed,
                    b.failed,
                    a.correct(),
                    b.correct()
                );
            }
            for def in &END_TO_END {
                let (va, vb) = (
                    a.value(def.name).unwrap_or(0.0),
                    b.value(def.name).unwrap_or(0.0),
                );
                // Worse-direction change of B against A, as a share of A.
                let diff = match def.better {
                    Better::Lower => (vb - va) / va,
                    Better::Higher => (va - vb) / va,
                };
                let verdict = if diff.abs() > def.bound {
                    bad += 1;
                    "FAIL (beyond its bound)"
                } else if diff.abs() > 0.1 {
                    "ok, but above a tenth: demote?"
                } else {
                    "ok"
                };
                println!(
                    "{:<12} {:>4} {:<14} {:>14.4} {:>14.4} {:>7.1}% {:>5.0}%  {verdict}",
                    w.name,
                    seed,
                    def.name,
                    va,
                    vb,
                    diff * 100.0,
                    def.bound * 100.0
                );
            }
        }
    }
    println!("ledger check: {bad} finding(s)");
    Ok(if bad == 0 { 0 } else { 1 })
}
