//! A tiny-scale run of every workload, untraced and traced, must verify
//! its verdicts and print every metric `BENCHMARK.json` names.

use futrace_perfbench::bench::{run, Options};
use futrace_perfbench::output::render;
use futrace_perfbench::programs::{Scale, WorkloadKind};

/// The metric names listed under `section` ("end_to_end" or "per_layer")
/// in the repository's `BENCHMARK.json`.
fn listed_metrics(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|entry| {
            let value = entry.split('"').nth(1).expect("name has a string value");
            value.to_string()
        })
        .collect()
}

fn smoke(workload: WorkloadKind, trace: bool) {
    let opts = Options {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        probe_exe: env!("CARGO_BIN_EXE_perfbench").into(),
    };
    let report = run(&opts).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
    assert_eq!(report.failed, 0, "{:?}", report.failures);
    assert!(report.correct(), "{workload:?} trace={trace}");
    let lines = render(&opts, &report);
    let json = lines.last().expect("a result line");
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    let section = if trace { "per_layer" } else { "end_to_end" };
    let names = listed_metrics(section);
    assert!(!names.is_empty());
    for name in &names {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload:?}: {name} missing from {json}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with(&format!("metric {name} "))),
            "{workload:?}: no `metric {name}` line"
        );
    }
    assert_eq!(
        report.metrics.len(),
        names.len(),
        "{workload:?}: metrics not listed in BENCHMARK.json"
    );
    assert!(lines.iter().any(|l| l.starts_with("# host nproc=")));
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WorkloadKind::ALL {
        smoke(w, false);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in WorkloadKind::ALL {
        smoke(w, true);
    }
}
