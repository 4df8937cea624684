//! Rendering a [`Report`]: human-readable lines, then the one-line JSON
//! result that must come last on standard output.

use crate::bench::{Options, Report};

/// The lines a run prints, the JSON result last.
pub fn render(opts: &Options, report: &Report) -> Vec<String> {
    let mut lines = vec![
        format!(
            "# perfbench workload={} seed={} seconds={} trace={} scale={}",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            opts.scale.name()
        ),
        host_line(report),
        format!(
            "# programs={} rounds={} attempted={} failed={}",
            report.programs.join(","),
            report.rounds,
            report.attempted,
            report.failed
        ),
    ];
    for p in &report.per_program {
        lines.push(format!(
            "# program {} checks={} verdict_ms_p10={:.3} verdict_ms_p50={:.3} uninstr_ms_min={:.3} slowdown={:.2} peak_rss_mb={:.1}",
            p.name, p.checks, p.verdict_ms_fast, p.verdict_ms_p50, p.uninstr_ms_min, p.slowdown, p.peak_rss_mb
        ));
    }
    lines.extend(report.failures.iter().cloned());
    lines.extend(report.notes.iter().map(|n| format!("# {n}")));
    if let Some(t) = &report.trace {
        for (layer, ns) in t.tracer.self_time_by_layer() {
            lines.push(format!(
                "# layer {layer} self_ms={:.3} share={:.4}",
                ns as f64 / 1e6,
                ns as f64 / t.wall_ns.max(1) as f64
            ));
        }
        lines.push(format!(
            "# events_per_s untraced={} traced={}",
            t.untraced_events_per_s, t.traced_events_per_s
        ));
        lines.push(format!(
            "# add-up: layers' self times miss the traced wall time ({:.3} ms) by {:.4} (tolerance {})",
            t.wall_ns as f64 / 1e6,
            t.addup_error,
            crate::bench::ADDUP_TOLERANCE
        ));
    }
    for m in &report.metrics {
        let note = m
            .absent
            .map_or(String::new(), |why| format!("  (n/a: {why})"));
        lines.push(format!("metric {} {} {}{note}", m.name, m.value, m.unit));
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    lines.push(format!("# failed_frac {failed_frac}"));
    lines.push(json(report));
    lines
}

/// The host description every output carries.
pub fn host_line(report: &Report) -> String {
    let h = report.host;
    format!(
        "# host nproc={} online_threads={} online_shards={}",
        h.nproc, h.online_threads, h.online_shards
    )
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = report.correct() && report.metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
