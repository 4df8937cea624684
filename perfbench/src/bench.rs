//! The benchmark proper: set up a workload's inputs, run its checks as a
//! closed loop (one client, one process, the next check starts when the
//! previous verdict is in), verify every verdict, and compute the metrics.
//!
//! With tracing off the run reports the end-to-end metrics. The traced run
//! first measures untraced checks (the baseline for the tracing overhead),
//! then repeats the checks with the work split into calls to each layer's
//! public functions, each wrapped in a [`Tracer`] span, plus probes that
//! time the layers a check runs only implicitly (the uninstrumented
//! executors, engine dispatch, online plumbing, trace decode).

use crate::programs::{oracle_cross_check, programs, Program, Scale, WorkloadKind};
use crate::spans::Tracer;
use crate::stats::{geomean, median, percentile, pooled_p10_p90, FAST_QUANTILE};
use futrace::detector::{DtrgReport, MemoryFootprint, OnlineDtrg, RaceDetector, RaceReport};
use futrace::offline::framed;
use futrace::offline::StreamWriter;
use futrace::runtime::engine::{run_analysis, source, Analysis};
use futrace::runtime::online::{run_online, OnlineOptions, OnlineStats, Serialized};
use futrace::runtime::{run_parallel, run_serial, trace, Event, EventLog, NullMonitor};
use futrace::service::{Session, SessionConfig};
use futrace::util::ids::{LocId, TaskId};
use futrace::Analyze;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A checkpoint is cut and encoded every this many chunks, as `tracetool
/// serve` does for a client that asks for `--checkpoint-every 8`.
pub const CHECKPOINT_EVERY: u64 = 8;

/// Largest share of the traced phase's wall time that the layers' summed
/// self times may miss before the traced run fails its add-up check.
pub const ADDUP_TOLERANCE: f64 = 0.05;

/// Share of `--seconds` the traced run spends on its untraced baseline.
const UNTRACED_SHARE: f64 = 1.0 / 3.0;

/// Set-up repeats at least this many times, and for at least
/// [`SETUP_MIN_TIME`], so its median is steady.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_millis(300);

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: WorkloadKind,
    /// Workload seed: it sets the generated inputs.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
    /// The benchmark's executable, run once per program to read its peak
    /// RSS in a fresh process.
    pub probe_exe: PathBuf,
}

/// The host as the run saw it.
#[derive(Clone, Copy, Debug)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Online executor threads (derived from `nproc`).
    pub online_threads: usize,
    /// Online detector shards actually forked (the auto count when the
    /// run made no online execution).
    pub online_shards: usize,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Why the value is 0 when the workload does not run the layer.
    pub absent: Option<&'static str>,
}

/// Everything a run produced.
pub struct Report {
    /// Checks attempted (warm-up included).
    pub attempted: u64,
    /// Checks whose verdict was wrong or that failed to run.
    pub failed: u64,
    /// One line per failure, with what replays it.
    pub failures: Vec<String>,
    /// Events worth reporting that are not failed checks.
    pub notes: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Host description.
    pub host: Host,
    /// Rounds measured (each round checks every program once).
    pub rounds: usize,
    /// Programs checked per round.
    pub programs: Vec<String>,
    /// Per program (end-to-end run only).
    pub per_program: Vec<ProgramSummary>,
    /// Traced run only: spans and the add-up result.
    pub trace: Option<TraceSummary>,
}

/// One program's figures in an end-to-end run.
pub struct ProgramSummary {
    /// Display name.
    pub name: String,
    /// Checks measured.
    pub checks: usize,
    /// Time to verdict at the [`FAST_QUANTILE`], in ms.
    pub verdict_ms_fast: f64,
    /// Median time to verdict, in ms.
    pub verdict_ms_p50: f64,
    /// Fastest uninstrumented run, in ms.
    pub uninstr_ms_min: f64,
    /// `verdict_ms_fast ÷ uninstr_ms_min`.
    pub slowdown: f64,
    /// Peak RSS of a process that checks this program, in MiB (see
    /// [`peak_rss_probes`]).
    pub peak_rss_mb: f64,
}

/// What the traced run adds to a [`Report`].
pub struct TraceSummary {
    /// The recorded spans.
    pub tracer: Tracer,
    /// Wall time of the traced phase, in ns.
    pub wall_ns: u64,
    /// Measured add-up error (see [`Tracer::addup_error`]).
    pub addup_error: f64,
    /// Canonical events checked per second by the untraced baseline checks
    /// and by the traced checks.
    pub untraced_events_per_s: f64,
    pub traced_events_per_s: f64,
}

impl Report {
    /// True when every verdict was right and, for a traced run, the layers
    /// added up.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self
                .trace
                .as_ref()
                .is_none_or(|t| t.addup_error <= ADDUP_TOLERANCE)
    }
}

/// Per-run failure ledger. A failed check is counted and never retried.
struct Ledger {
    workload: WorkloadKind,
    seed: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn record(&mut self, program: &Program, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            self.failures.push(format!(
                "FAILED {}: {msg} (replay: --workload {} --seed {})",
                program.name(),
                self.workload.name(),
                self.seed
            ));
        }
    }
}

/// One program's prepared inputs.
struct Input {
    program: Program,
    /// The reference verdict: `Analyze::program` on the same program, run
    /// once at set-up. Every check must reproduce it byte for byte (for the
    /// loop and futures checks, which take the same path, this pins run-to-run
    /// determinism; the expected race count pins correctness).
    reference: String,
    /// The framed v2 trace the stream workload feeds.
    framed: Option<Vec<u8>>,
}

fn verdict(r: &RaceReport) -> String {
    format!("{} {:?}", r.total_detected, r.races)
}

fn expect_verdict(program: &Program, races: &RaceReport, reference: &str) -> Result<(), String> {
    if races.has_races() != program.planted {
        return Err(format!(
            "verdict reports {} race(s), expected {}",
            races.total_detected,
            if program.planted { "at least 1" } else { "0" }
        ));
    }
    if verdict(races) != reference {
        return Err("race list differs from Analyze::program on the same input".into());
    }
    Ok(())
}

fn setup_once(kind: WorkloadKind, seed: u64, scale: Scale) -> Result<Vec<Input>, String> {
    programs(kind, seed, scale)
        .into_iter()
        .map(|program| prepare(kind, program))
        .collect()
}

/// One program's inputs, cross-checked against the oracle.
fn prepare(kind: WorkloadKind, program: Program) -> Result<Input, String> {
    oracle_cross_check(&program)?;
    let reference = Analyze::program(|ctx| program.run(ctx))
        .run()
        .map(|o| verdict(&o.races))
        .map_err(|e| format!("{}: reference run failed: {e}", program.name()))?;
    let framed = (kind == WorkloadKind::Stream).then(|| {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| program.run(ctx));
        let mut w = StreamWriter::new(Vec::new()).expect("writing to memory cannot fail");
        for e in &log.events {
            w.record(e);
        }
        w.finish().expect("writing to memory cannot fail").0
    });
    Ok(Input {
        program,
        reference,
        framed,
    })
}

/// Builds the inputs several times and returns them with the median
/// set-up time in seconds.
fn setup(kind: WorkloadKind, seed: u64, scale: Scale) -> Result<(Vec<Input>, f64), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let inputs = setup_once(kind, seed, scale)?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= SETUP_MIN_REPEATS && start.elapsed() >= SETUP_MIN_TIME {
            return Ok((inputs, median(&times).expect("at least one set-up")));
        }
    }
}

/// One check's measurements.
struct Sample {
    events: u64,
    verdict_ns: u64,
    /// Per-unit acknowledgement latencies: each chunk's for the stream
    /// workload; otherwise the whole check's (the program is fed to the
    /// session in one piece).
    acks_ns: Vec<u64>,
    online_shards: Option<usize>,
}

/// One check through the public front door.
fn check(kind: WorkloadKind, input: &Input, threads: usize) -> Result<Sample, String> {
    let p = &input.program;
    let reference = input.reference.as_str();
    let t = Instant::now();
    match kind {
        WorkloadKind::Loop | WorkloadKind::Futures => {
            let out = Analyze::program(|ctx| p.run(ctx))
                .run()
                .map_err(|e| e.to_string())?;
            let ns = t.elapsed().as_nanos() as u64;
            expect_verdict(p, &out.races, reference)?;
            Ok(Sample {
                events: out.engine.events,
                verdict_ns: ns,
                acks_ns: vec![ns],
                online_shards: None,
            })
        }
        WorkloadKind::Online => {
            let out = Analyze::program_parallel(threads, |ctx| p.run(ctx))
                .run()
                .map_err(|e| e.to_string())?;
            let ns = t.elapsed().as_nanos() as u64;
            expect_verdict(p, &out.races, reference)?;
            Ok(Sample {
                events: out.engine.events,
                verdict_ns: ns,
                acks_ns: vec![ns],
                online_shards: out.online.map(|o| o.shards),
            })
        }
        WorkloadKind::Stream => {
            let blob = input.framed.as_deref().expect("stream inputs are framed");
            let mut session = Session::open(SessionConfig {
                checkpoint_every: Some(CHECKPOINT_EVERY),
                ..SessionConfig::default()
            })
            .map_err(|e| e.to_string())?;
            let mut acks_ns = Vec::new();
            let mut events = 0;
            for chunk in framed::chunks(blob) {
                let chunk = chunk.map_err(|e| e.to_string())?;
                let a = Instant::now();
                let delta = session
                    .feed_chunk(chunk.payload)
                    .map_err(|e| e.to_string())?;
                if delta.chunks % CHECKPOINT_EVERY == 0 {
                    if let Some(cp) = session.checkpoint().map_err(|e| e.to_string())? {
                        black_box(cp.encode());
                    }
                }
                acks_ns.push(a.elapsed().as_nanos() as u64);
                events = delta.events;
            }
            let out = session.finish().map_err(|e| e.to_string())?;
            let ns = t.elapsed().as_nanos() as u64;
            expect_verdict(p, &out.races, reference)?;
            Ok(Sample {
                events,
                verdict_ns: ns,
                acks_ns,
                online_shards: None,
            })
        }
    }
}

/// A serial uninstrumented run of a loop program lasts about a millisecond,
/// too short to time steadily, so one slowdown sample repeats it back to
/// back, at least [`UNINSTR_MIN_RUNS`] times and until this much time has
/// passed, and takes the fastest run.
const UNINSTR_MIN_TIME: Duration = Duration::from_millis(40);
const UNINSTR_MIN_RUNS: usize = 3;

/// The uninstrumented run a check's slowdown is taken against, in ns: the
/// serial executor with no monitor (repeated, see [`UNINSTR_MIN_TIME`]),
/// or for the online workload one run of the parallel executor on the same
/// threads.
fn uninstrumented(kind: WorkloadKind, p: &Program, threads: usize) -> Result<u64, String> {
    if kind == WorkloadKind::Online {
        let t = Instant::now();
        run_parallel(threads, |ctx| p.run(ctx)).map_err(|e| format!("uninstrumented run: {e}"))?;
        return Ok(t.elapsed().as_nanos() as u64);
    }
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < UNINSTR_MIN_RUNS || start.elapsed() < UNINSTR_MIN_TIME {
        let t = Instant::now();
        run_serial(&mut NullMonitor, |ctx| p.run(ctx));
        runs.push(t.elapsed().as_nanos() as f64);
    }
    Ok(runs.iter().copied().fold(f64::INFINITY, f64::min) as u64)
}

/// Per-program samples of the end-to-end run.
#[derive(Default)]
struct ProgramSamples {
    checks: Vec<Sample>,
    uninstr_ns: Vec<u64>,
}

/// Runs rounds (every program once, check and uninstrumented run in
/// alternating order) until `window` has passed; always at least one.
fn measure_rounds(
    kind: WorkloadKind,
    inputs: &[Input],
    threads: usize,
    window: Duration,
    ledger: &mut Ledger,
) -> (Vec<ProgramSamples>, usize) {
    let mut samples: Vec<ProgramSamples> =
        inputs.iter().map(|_| ProgramSamples::default()).collect();
    let deadline = Instant::now() + window;
    let mut rounds = 0;
    loop {
        for (i, input) in inputs.iter().enumerate() {
            let p = &input.program;
            let uninstr_first = (rounds + i) % 2 == 0;
            let mut uninstr = None;
            if uninstr_first {
                uninstr = Some(uninstrumented(kind, p, threads));
            }
            let checked = check(kind, input, threads);
            if !uninstr_first {
                uninstr = Some(uninstrumented(kind, p, threads));
            }
            let result = match (checked, uninstr.expect("ran in one of the two orders")) {
                (Ok(s), Ok(u)) => {
                    samples[i].checks.push(s);
                    samples[i].uninstr_ns.push(u);
                    Ok(())
                }
                (Err(e), _) | (_, Err(e)) => Err(e),
            };
            ledger.record(p, result);
        }
        rounds += 1;
        if Instant::now() >= deadline {
            return (samples, rounds);
        }
    }
}

/// Each program's peak RSS, in MiB, read in a fresh process that sets up
/// that one program and checks it once (`NaN` where the probe failed). A
/// long-running process's RSS depends on what its allocator kept from
/// earlier checks; a fresh one's depends only on the program.
fn peak_rss_probes(opts: &Options, inputs: &[Input], ledger: &mut Ledger) -> Vec<f64> {
    inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let mb = rss_probe_process(opts, i);
            let value = mb.as_ref().map_or(f64::NAN, |&mb| mb);
            ledger.record(&input.program, mb.map(|_| ()));
            value
        })
        .collect()
}

fn rss_probe_process(opts: &Options, index: usize) -> Result<f64, String> {
    let out = std::process::Command::new(&opts.probe_exe)
        .args(["--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", "0", "--trace", "0"])
        .args(["--scale", opts.scale.name()])
        .args(["--rss-probe", &index.to_string()])
        .output()
        .map_err(|e| {
            format!(
                "cannot start the RSS probe {}: {e}",
                opts.probe_exe.display()
            )
        })?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = stdout
        .lines()
        .find_map(|l| l.strip_prefix(RSS_PROBE_PREFIX))
        .and_then(|v| v.trim().parse::<f64>().ok());
    match value {
        Some(mb) if out.status.success() => Ok(mb),
        _ => Err(format!(
            "RSS probe failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// What an RSS probe prints before its result.
pub const RSS_PROBE_PREFIX: &str = "rss_probe_mb ";

/// The RSS probe itself: sets up program `index` of the workload, checks
/// it once, and returns the process's peak RSS in MiB.
pub fn rss_probe(opts: &Options, index: usize) -> Result<f64, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let program = *programs(opts.workload, opts.seed, opts.scale)
        .get(index)
        .ok_or_else(|| format!("the workload has no program {index}"))?;
    let input = prepare(opts.workload, program)?;
    check(opts.workload, &input, threads)?;
    peak_rss_mb()
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        absent: None,
    }
}

fn host(threads: usize, observed_shards: Option<usize>) -> Host {
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        online_threads: threads,
        online_shards: observed_shards.unwrap_or(OnlineOptions::auto(threads).shards),
    }
}

/// Puts the allocator's adaptive state where a long-running process ends
/// up anyway. glibc's malloc serves blocks above a threshold with `mmap`
/// and raises the threshold (up to 32 MiB) each time it frees such a
/// block, so without this, whether a program's multi-megabyte arrays cost
/// fresh page faults on every run depends on the history of the process.
/// Uninstrumented runs last about a millisecond; without this, the same
/// program's uninstrumented time differed by up to a third between
/// otherwise identical processes.
fn settle_allocator() {
    let block = vec![1u8; 31 << 20];
    drop(black_box(block));
}

/// Runs the benchmark as `opts` asks.
pub fn run(opts: &Options) -> Result<Report, String> {
    settle_allocator();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (inputs, setup_s) = setup(opts.workload, opts.seed, opts.scale)?;
    let mut ledger = Ledger {
        workload: opts.workload,
        seed: opts.seed,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    // Warm-up: one untimed round fills caches and the allocator's pools.
    measure_rounds(opts.workload, &inputs, threads, Duration::ZERO, &mut ledger);
    let window = Duration::from_secs_f64(opts.seconds);
    let names = inputs.iter().map(|i| i.program.name()).collect();
    if opts.trace {
        return traced_run(opts, &inputs, threads, window, ledger, names);
    }

    let (samples, rounds) = measure_rounds(opts.workload, &inputs, threads, window, &mut ledger);
    let rss = peak_rss_probes(opts, &inputs, &mut ledger);
    let measured: Vec<&ProgramSamples> = samples.iter().filter(|s| !s.checks.is_empty()).collect();
    let per_program = |f: &dyn Fn(&Sample) -> Vec<f64>| -> Vec<Vec<f64>> {
        measured
            .iter()
            .map(|s| s.checks.iter().flat_map(f).collect())
            .collect()
    };
    let (check_fast, check90) = pooled_p10_p90(&per_program(&|c| {
        vec![c.verdict_ns as f64 / c.events.max(1) as f64]
    }))
    .unwrap_or((f64::NAN, f64::NAN));
    let (ack_fast, ack90) = pooled_p10_p90(&per_program(&|c| {
        c.acks_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
    }))
    .unwrap_or((f64::NAN, f64::NAN));
    // A shared host can run this process at two speeds, switching every
    // few seconds; on the 2-core host this was written on, the slow phase
    // cost up to 1.9x on memory-bound runs, more on the millisecond
    // uninstrumented runs than on the checks. A median moves with the share
    // of a run spent slow; the fast quantile and the fastest uninstrumented
    // run stay in the fast phase.
    let per_program: Vec<ProgramSummary> = inputs
        .iter()
        .zip(samples.iter().zip(&rss))
        .filter(|(_, (s, _))| !s.checks.is_empty())
        .map(|(input, (s, &peak_rss_mb))| {
            let verdict: Vec<f64> = s.checks.iter().map(|c| c.verdict_ns as f64 / 1e6).collect();
            let fast = percentile(&verdict, FAST_QUANTILE).expect("non-empty");
            let uninstr_ms_min = s
                .uninstr_ns
                .iter()
                .map(|&ns| ns as f64 / 1e6)
                .fold(f64::INFINITY, f64::min);
            ProgramSummary {
                name: input.program.name(),
                checks: s.checks.len(),
                verdict_ms_fast: fast,
                verdict_ms_p50: median(&verdict).expect("non-empty"),
                uninstr_ms_min,
                slowdown: fast / uninstr_ms_min.max(1e-6),
                peak_rss_mb,
            }
        })
        .collect();
    let slowdown: Vec<f64> = per_program.iter().map(|p| p.slowdown).collect();
    // Each program's events over its fast-quantile time to verdict, summed
    // over programs: the rate of one round in the fast phase.
    let round_events: u64 = measured.iter().map(|s| s.checks[0].events).sum();
    let round_ms: f64 = per_program.iter().map(|p| p.verdict_ms_fast).sum();
    // Over programs, not the largest alone: graphwalk's DAG, and with it
    // its footprint, comes from the seed.
    let peak_rss = geomean(
        &per_program
            .iter()
            .map(|p| p.peak_rss_mb)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(f64::NAN);
    let shards = measured
        .iter()
        .flat_map(|s| &s.checks)
        .find_map(|c| c.online_shards);
    let metrics = vec![
        metric(
            "events_per_s",
            round_events as f64 / (round_ms / 1e3),
            "1/s",
        ),
        metric("check_ns_per_event_p10", check_fast, "ns"),
        metric("check_ns_per_event_p90", check90, "ns"),
        metric(
            "slowdown_geomean",
            geomean(&slowdown).unwrap_or(f64::NAN),
            "x",
        ),
        metric("chunk_ack_us_p10", ack_fast, "us"),
        metric("chunk_ack_us_p90", ack90, "us"),
        metric("peak_rss_mb", peak_rss, "MiB"),
        metric("setup_s", setup_s, "s"),
    ];
    Ok(Report {
        attempted: ledger.attempted,
        failed: ledger.failed,
        failures: ledger.failures,
        notes: Vec::new(),
        metrics,
        host: host(threads, shards),
        rounds,
        programs: names,
        per_program,
        trace: None,
    })
}

/// An engine analysis that does nothing, so that timing the engine over it
/// measures dispatch alone.
struct NullAnalysis;

impl Analysis for NullAnalysis {
    type Report = ();
    fn apply_control(&mut self, e: &Event) {
        black_box(e);
    }
    fn check_read_at(&mut self, task: TaskId, loc: LocId, index: u64) {
        black_box((task, loc, index));
    }
    fn check_write_at(&mut self, task: TaskId, loc: LocId, index: u64) {
        black_box((task, loc, index));
    }
    fn finish(self) {}
}

/// Counts the traced phase accumulates.
#[derive(Default)]
struct TraceCounts {
    events: u64,
    control_events: u64,
    accesses: u64,
    /// Canonical events and wall time of the traced checks alone.
    check_events: u64,
    check_ns: u64,
    /// Probes that stalled with a deadlock error, and what they reported.
    deadlocks: u64,
    notes: Vec<String>,
    /// First-round totals over programs (the counters repeat exactly).
    first: Option<FirstRound>,
}

#[derive(Default)]
struct FirstRound {
    dtrg: Vec<DtrgReport>,
    online: Vec<OnlineStats>,
    chunks: u64,
    checkpoint_bytes: u64,
    restarts: u64,
}

/// Drives the detector over `events` directly, one span per maximal run
/// of control or access events.
fn drive_detector(tr: &mut Tracer, events: &[Event], counts: &mut TraceCounts) -> DtrgReport {
    let mut det = RaceDetector::new();
    let mut index = 0u64;
    let is_access = |e: &Event| matches!(e, Event::Read(..) | Event::Write(..));
    for run in events.chunk_by(|a, b| is_access(a) == is_access(b)) {
        if is_access(&run[0]) {
            tr.enter("core.detector", "access");
            for e in run {
                match *e {
                    Event::Read(t, l) => det.check_read_at(t, l, index),
                    Event::Write(t, l) => det.check_write_at(t, l, index),
                    _ => unreachable!("runs hold accesses only"),
                }
                index += 1;
            }
            tr.exit();
            counts.accesses += run.len() as u64;
        } else {
            tr.enter("core.detector", "control");
            for e in run {
                det.apply_control(e);
            }
            tr.exit();
            counts.control_events += run.len() as u64;
        }
    }
    tr.span("core.detector", "finish", |_| Analysis::finish(det))
}

fn record(tr: &mut Tracer, p: &Program) -> Vec<Event> {
    tr.span("runtime.serial", "record", |_| {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| p.run(ctx));
        log.events
    })
}

/// One check with its work split into layer calls. Returns the recorded
/// events when the check recorded the program (empty otherwise) and the
/// number of canonical events the check covered.
fn traced_check(
    tr: &mut Tracer,
    kind: WorkloadKind,
    input: &Input,
    threads: usize,
    counts: &mut TraceCounts,
    first: &mut FirstRound,
) -> Result<(Vec<Event>, u64), String> {
    let p = &input.program;
    let reference = input.reference.as_str();
    match kind {
        WorkloadKind::Loop | WorkloadKind::Futures => {
            let events = record(tr, p);
            let report = drive_detector(tr, &events, counts);
            let verdict = tr.span("bench", "verify", |_| {
                expect_verdict(p, &report.report, reference)
            });
            first.dtrg.push(report);
            verdict?;
            let n = events.len() as u64;
            Ok((events, n))
        }
        WorkloadKind::Online => {
            let run = tr.span("runtime.online", "check", |_| {
                run_online(OnlineOptions::auto(threads), OnlineDtrg::new(), |ctx| {
                    p.run(ctx)
                })
            });
            run.result.map_err(|e| e.to_string())?;
            tr.span("bench", "verify", |_| {
                expect_verdict(p, &run.report.report, reference)
            })?;
            first.online.push(run.stats);
            Ok((Vec::new(), run.engine.events))
        }
        WorkloadKind::Stream => {
            let blob = input.framed.as_deref().expect("stream inputs are framed");
            let mut session = tr
                .span("service.session", "open", |_| {
                    Session::open(SessionConfig {
                        checkpoint_every: Some(CHECKPOINT_EVERY),
                        ..SessionConfig::default()
                    })
                })
                .map_err(|e| e.to_string())?;
            let mut chunks = framed::chunks(blob);
            let mut events = 0;
            while let Some(chunk) = tr.span("offline.framed", "next", |_| chunks.next()) {
                let chunk = chunk.map_err(|e| e.to_string())?;
                first.chunks += 1;
                let delta = tr
                    .span("service.session", "feed_chunk", |_| {
                        session.feed_chunk(chunk.payload)
                    })
                    .map_err(|e| e.to_string())?;
                events = delta.events;
                if delta.chunks % CHECKPOINT_EVERY == 0 {
                    let cp = tr
                        .span("service.session", "checkpoint", |_| session.checkpoint())
                        .map_err(|e| e.to_string())?;
                    if let Some(cp) = cp {
                        let bytes = tr.span("offline.checkpoint", "encode", |_| cp.encode());
                        first.checkpoint_bytes += bytes.len() as u64;
                    }
                }
            }
            let out = tr
                .span("service.session", "finish", |_| session.finish())
                .map_err(|e| e.to_string())?;
            if let Some(sup) = out.supervision {
                first.restarts += sup.shard_restarts;
            }
            tr.span("bench", "verify", |_| {
                expect_verdict(p, &out.races, reference)
            })?;
            Ok((Vec::new(), events))
        }
    }
}

/// The layers a check runs only implicitly, timed on their own.
fn probes(
    tr: &mut Tracer,
    kind: WorkloadKind,
    input: &Input,
    recorded: Vec<Event>,
    threads: usize,
    counts: &mut TraceCounts,
    first: &mut FirstRound,
) -> Result<(), String> {
    let p = &input.program;
    // The loop and futures checks recorded and drove the detector already.
    let events = if recorded.is_empty() {
        let events = record(tr, p);
        first.dtrg.push(drive_detector(tr, &events, counts));
        events
    } else {
        recorded
    };
    tr.span("runtime.serial", "uninstr", |_| {
        run_serial(&mut NullMonitor, |ctx| p.run(ctx))
    });
    tr.span("runtime.engine", "dispatch", |_| {
        let Ok(out) = run_analysis(source::recorded(&events), NullAnalysis);
        black_box(out);
    });
    // These programs cannot deadlock, so a deadlock here is the parallel
    // executor's spurious stall. A probe yields no verdict, so the stall is
    // counted and reported rather than failing the run.
    let mut stalled = |what: &str, e: String| {
        counts.deadlocks += 1;
        counts
            .notes
            .push(format!("DEADLOCK {} ({what} probe): {e}", p.name()));
    };
    if let Err(e) = tr.span("runtime.parallel", "uninstr", |_| {
        run_parallel(threads, |ctx| p.run(ctx))
    }) {
        stalled("run_parallel", e.to_string());
    }
    let plumbing = tr.span("runtime.online", "plumbing", |_| {
        run_online(
            OnlineOptions::auto(threads),
            Serialized::new(NullMonitor),
            |ctx| p.run(ctx),
        )
    });
    if let Err(e) = plumbing.result {
        stalled("run_online", e.to_string());
    }
    if kind != WorkloadKind::Online {
        first.online.push(plumbing.stats);
    }
    if let Some(blob) = input.framed.as_deref() {
        tr.span("runtime.trace", "decode", |_| -> Result<(), String> {
            for chunk in framed::chunks(blob) {
                let chunk = chunk.map_err(|e| e.to_string())?;
                black_box(trace::decode(chunk.payload).map_err(|e| e.to_string())?);
            }
            Ok(())
        })?;
    }
    counts.events += events.len() as u64;
    Ok(())
}

fn traced_run(
    opts: &Options,
    inputs: &[Input],
    threads: usize,
    window: Duration,
    mut ledger: Ledger,
    names: Vec<String>,
) -> Result<Report, String> {
    let kind = opts.workload;
    // Untraced baseline for the tracing overhead.
    let (samples, _) = measure_rounds(
        kind,
        inputs,
        threads,
        window.mul_f64(UNTRACED_SHARE),
        &mut ledger,
    );
    let untraced_events: u64 = samples
        .iter()
        .flat_map(|s| &s.checks)
        .map(|c| c.events)
        .sum();
    let untraced_ns: u64 = samples
        .iter()
        .flat_map(|s| &s.checks)
        .map(|c| c.verdict_ns)
        .sum();
    let observed_shards = samples
        .iter()
        .flat_map(|s| &s.checks)
        .find_map(|c| c.online_shards);

    let mut tr = Tracer::new();
    let mut counts = TraceCounts::default();
    let mut check_id = 0u32;
    let mut rounds = 0;
    let wall = Instant::now();
    let deadline = wall + window.mul_f64(1.0 - UNTRACED_SHARE);
    loop {
        let mut first = FirstRound::default();
        for input in inputs {
            check_id += 1;
            tr.set_check(check_id);
            let before = tr.spans().len();
            let checked = tr.span("bench", "check", |tr| {
                traced_check(tr, kind, input, threads, &mut counts, &mut first)
            });
            let check_ns = tr.spans()[before].duration_ns();
            let result = checked.and_then(|(recorded, events)| {
                counts.check_events += events;
                counts.check_ns += check_ns;
                check_id += 1;
                tr.set_check(check_id);
                tr.span("bench", "probe", |tr| {
                    probes(tr, kind, input, recorded, threads, &mut counts, &mut first)
                })
            });
            ledger.record(&input.program, result);
        }
        counts.first.get_or_insert(first);
        rounds += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let addup_error = tr.addup_error(wall_ns);

    let traced_eps = counts.check_events as f64 / (counts.check_ns.max(1) as f64 / 1e9);
    let untraced_eps = untraced_events as f64 / (untraced_ns.max(1) as f64 / 1e9);
    let metrics = layer_metrics(kind, &tr, &counts, traced_eps, untraced_eps, addup_error);
    Ok(Report {
        attempted: ledger.attempted,
        failed: ledger.failed,
        failures: ledger.failures,
        notes: std::mem::take(&mut counts.notes),
        metrics,
        host: host(threads, observed_shards),
        rounds,
        programs: names,
        per_program: Vec::new(),
        trace: Some(TraceSummary {
            tracer: tr,
            wall_ns,
            addup_error,
            untraced_events_per_s: untraced_eps,
            traced_events_per_s: traced_eps,
        }),
    })
}

fn layer_metrics(
    kind: WorkloadKind,
    tr: &Tracer,
    counts: &TraceCounts,
    traced_eps: f64,
    untraced_eps: f64,
    addup_error: f64,
) -> Vec<Metric> {
    let by_op = tr.self_time_by_op();
    let own = |layer, op| by_op.get(&(layer, op)).copied().unwrap_or(0) as f64;
    let per = |ns: f64, n: u64| ns / n.max(1) as f64;
    let ev = counts.events;
    let first = counts.first.as_ref().expect("at least one traced round");
    let sum = |f: &dyn Fn(&DtrgReport) -> u64| first.dtrg.iter().map(f).sum::<u64>();
    let foot = |f: &dyn Fn(&MemoryFootprint) -> usize| {
        first
            .dtrg
            .iter()
            .map(|r| f(&r.footprint) as u64)
            .sum::<u64>()
    };
    let accesses = sum(&|r| r.stats.shared_mem());
    let memo_hits = sum(&|r| r.stats.dtrg.memo_hits);
    let memo_total = memo_hits + sum(&|r| r.stats.dtrg.memo_misses);
    let precedes = sum(&|r| r.stats.dtrg.precede_calls);
    let online = |f: &dyn Fn(&OnlineStats) -> u64| first.online.iter().map(f).sum::<u64>() as f64;
    let imbalance: Vec<f64> = first
        .online
        .iter()
        .filter(|s| !s.per_shard_accesses.is_empty())
        .map(|s| {
            let max = *s.per_shard_accesses.iter().max().expect("non-empty") as f64;
            let mean =
                s.per_shard_accesses.iter().sum::<u64>() as f64 / s.per_shard_accesses.len() as f64;
            if mean > 0.0 {
                max / mean
            } else {
                1.0
            }
        })
        .collect();
    let ms = |v: Vec<u64>| -> Vec<f64> { v.into_iter().map(|ns| ns as f64 / 1e6).collect() };
    let stream = kind == WorkloadKind::Stream;
    let stream_only = |m: Metric| Metric {
        absent: (!stream).then_some("no framed trace or session chunks on this workload's path"),
        ..m
    };
    vec![
        metric(
            "runtime.serial.record_ns_per_event",
            per(own("runtime.serial", "record"), ev),
            "ns",
        ),
        metric(
            "runtime.serial.uninstr_ns_per_event",
            per(own("runtime.serial", "uninstr"), ev),
            "ns",
        ),
        metric(
            "runtime.engine.dispatch_ns_per_event",
            per(own("runtime.engine", "dispatch"), ev),
            "ns",
        ),
        metric(
            "core.detector.control_ns_per_event",
            per(own("core.detector", "control"), counts.control_events),
            "ns",
        ),
        metric(
            "core.detector.access_ns_per_check",
            per(own("core.detector", "access"), counts.accesses),
            "ns",
        ),
        metric(
            "core.shadow.fastpath_hit_ratio",
            sum(&|r| r.stats.dtrg.shadow_hits) as f64 / accesses.max(1) as f64,
            "ratio",
        ),
        metric("core.dtrg.precede_calls", precedes as f64, "count"),
        metric(
            "core.dtrg.memo_hit_ratio",
            memo_hits as f64 / memo_total.max(1) as f64,
            "ratio",
        ),
        metric(
            "core.dtrg.visit_expansions_per_precede",
            sum(&|r| r.stats.dtrg.visit_expansions) as f64 / precedes.max(1) as f64,
            "count",
        ),
        metric(
            "core.dtrg.merges",
            sum(&|r| r.stats.dtrg.merges) as f64,
            "count",
        ),
        metric(
            "core.dtrg.nt_edges",
            sum(&|r| r.stats.dtrg.nt_edges) as f64,
            "count",
        ),
        metric(
            "core.footprint.dtrg_tasks",
            foot(&|f| f.dtrg_tasks) as f64,
            "count",
        ),
        metric(
            "core.footprint.nt_edges",
            foot(&|f| f.stored_nt_edges) as f64,
            "count",
        ),
        metric(
            "core.footprint.shadow_cells",
            foot(&|f| f.shadow_cells) as f64,
            "count",
        ),
        metric(
            "core.footprint.stored_readers",
            foot(&|f| f.stored_readers) as f64,
            "count",
        ),
        metric(
            "runtime.parallel.uninstr_ns_per_event",
            per(own("runtime.parallel", "uninstr"), ev),
            "ns",
        ),
        metric(
            "runtime.parallel.deadlocks",
            counts.deadlocks as f64,
            "count",
        ),
        metric(
            "runtime.online.plumbing_ns_per_event",
            per(
                own("runtime.online", "plumbing") - own("runtime.parallel", "uninstr"),
                ev,
            ),
            "ns",
        ),
        metric(
            "runtime.online.publishes",
            online(&|s| s.publishes),
            "count",
        ),
        metric(
            "runtime.online.frontier_waits",
            online(&|s| s.frontier_waits),
            "count",
        ),
        metric("runtime.online.batches", online(&|s| s.batches), "count"),
        metric(
            "runtime.online.shard_imbalance",
            imbalance.iter().fold(0.0, |a, b| a + b) / imbalance.len().max(1) as f64,
            "ratio",
        ),
        stream_only(metric(
            "runtime.trace.decode_ns_per_event",
            per(own("runtime.trace", "decode"), ev),
            "ns",
        )),
        stream_only(metric(
            "offline.framed.chunks",
            first.chunks as f64,
            "count",
        )),
        stream_only(metric(
            "service.session.feed_chunk_us_p50",
            median(&ms(tr.durations("service.session", "feed_chunk"))).map_or(0.0, |v| v * 1e3),
            "us",
        )),
        stream_only(metric(
            "service.session.checkpoint_ms_p50",
            median(&ms(tr.durations("service.session", "checkpoint"))).unwrap_or(0.0),
            "ms",
        )),
        stream_only(metric(
            "service.session.checkpoint_bytes",
            first.checkpoint_bytes as f64,
            "bytes",
        )),
        stream_only(metric(
            "service.session.finish_ms",
            {
                let finishes = ms(tr.durations("service.session", "finish"));
                finishes.iter().fold(0.0, |a, b| a + b) / finishes.len().max(1) as f64
            },
            "ms",
        )),
        stream_only(metric(
            "offline.supervise.restarts",
            first.restarts as f64,
            "count",
        )),
        metric(
            "trace.overhead_frac",
            1.0 - traced_eps / untraced_eps,
            "ratio",
        ),
        metric("trace.addup_error_frac", addup_error, "ratio"),
    ]
}
