//! `telemetry`: what one observation and one scrape cost.

use std::hint::black_box;

use super::Probes;

pub fn run(p: &mut Probes<'_>) -> Result<(), String> {
    let histogram = hyperbench_telemetry::global().histogram(
        "ledger_probe_us",
        "scratch histogram of the ledger's telemetry probe",
    );
    let mut v = 1u64;
    p.time("telemetry.observe_ns", 1.0, || {
        histogram.observe(v);
        v = v % 4096 + 7;
    });
    p.time("telemetry.render_us", 1e3, || {
        black_box(
            hyperbench_telemetry::global()
                .snapshot()
                .render_prometheus(),
        );
    });
    Ok(())
}
