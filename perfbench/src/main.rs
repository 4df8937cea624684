//! `perfbench --workload <loop|futures|online|stream> --seed N --seconds S
//! --trace <0|1> [--spans PATH] [--scale tiny|perf]`
//!
//! Prints every metric with its unit, then one JSON result line. Exits
//! non-zero when any verdict is wrong, any check fails, or the traced
//! run's layers do not add up.
//!
//! With `--rss-probe I` it only sets up and checks the workload's program
//! `I` and prints the process's peak RSS; the benchmark runs itself that
//! way once per program.

use futrace_perfbench::bench::{rss_probe, run, Options, RSS_PROBE_PREFIX};
use futrace_perfbench::output::{host_line, render};
use futrace_perfbench::programs::{Scale, WorkloadKind};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <loop|futures|online|stream> --seed N \
                     --seconds S --trace <0|1> [--spans PATH] [--scale tiny|perf]";

struct Args {
    opts: Options,
    spans: Option<PathBuf>,
    rss_probe: Option<usize>,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut scale = Scale::Perf;
    let mut rss_probe = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            "--scale" => {
                scale = Scale::parse(&value).ok_or_else(|| format!("unknown scale {value:?}"))?
            }
            "--rss-probe" => {
                rss_probe = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("--rss-probe: {e}"))?,
                )
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let opts = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        probe_exe: std::env::current_exe()
            .map_err(|e| format!("cannot locate the benchmark's executable: {e}"))?,
    };
    Ok(Args {
        opts,
        spans,
        rss_probe,
    })
}

fn main() -> ExitCode {
    let Args {
        opts,
        spans,
        rss_probe: probe,
    } = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(index) = probe {
        return match rss_probe(&opts, index) {
            Ok(mb) => {
                println!("{RSS_PROBE_PREFIX}{mb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!(
                "perfbench: {e} (replay: --workload {} --seed {})",
                opts.workload.name(),
                opts.seed
            );
            return ExitCode::FAILURE;
        }
    };
    for f in &report.failures {
        eprintln!("{f}");
    }
    if let Some(t) = &report.trace {
        let path = spans.unwrap_or_else(|| {
            PathBuf::from(format!("perfbench/out/spans-{}.tsv", opts.workload.name()))
        });
        let header = format!(
            "workload={} seed={} {}",
            opts.workload.name(),
            opts.seed,
            host_line(&report).trim_start_matches("# ")
        );
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::File::create(&path))
            .map(std::io::BufWriter::new)
            .and_then(|mut out| {
                t.tracer.write_tsv(&mut out, &header)?;
                std::io::Write::flush(&mut out)
            });
        match written {
            Ok(()) => println!(
                "# spans: {} written to {}",
                t.tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let lines = render(&opts, &report);
    let correct = lines
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\": true"));
    for line in lines {
        println!("{line}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
