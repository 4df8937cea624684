//! One incremental analysis, lifted out of the one-shot CLI.
//!
//! A [`Session`] owns exactly one DTRG analysis run. It can be fed four
//! ways — a program run under the serial executor, a whole trace blob, a
//! whole decoded event list, or chunk by chunk as frames arrive over the
//! wire — and finished through either backend: serial, or the sharded
//! pipeline that runs under the offline supervisor. The
//! `futrace::Analyze` builder and `tracetool serve` both ride this type,
//! so batch and streaming analysis share one code path and one
//! [`AnalysisOutcome`] shape.
//!
//! A program fed to a serial session is checked as it runs: the detector
//! is the executor's monitor and nothing is recorded (DESIGN S47). The
//! other backends replay the stream, so for them the program is recorded
//! first.
//!
//! Chunk feeding drives the engine's batched dispatch path
//! incrementally: the session keeps a live serial engine, consumes each
//! chunk's events the moment they arrive, and reports a [`VerdictDelta`]
//! (chunks / events / races so far) after every chunk. Unless a fault
//! plan, a resume checkpoint or a shard count asks for another backend,
//! the final verdict *is* that engine's verdict — the stream was
//! analyzed as it arrived, nothing is replayed at [`Session::finish`].
//! Sharded, fault-injected and resumed sessions replay the accumulated
//! (re-framed) trace through the sharded pipeline, whose merged reports
//! are identical to serial by the pipeline's own equivalence tests.
//!
//! Suspend/resume uses the sharded pipeline's FCKP checkpoint format.
//! [`Session::checkpoint`] (and [`Session::suspend`]) cut it straight
//! from the live engine: the kept control-event prefix, the detector's
//! access-derived state and the engine's counters, covering every chunk
//! fed so far, as one shard (DESIGN S46). A session opened with
//! [`Session::open_resumed`] skips the completed prefix at finish while
//! the client re-streams the full trace (skip-completed-work resume).
//! Periodic checkpoints cost one state save each, so a killed daemon
//! loses at most the chunks received since the last interval.

use futrace_detector::{
    DetectorConfig, DetectorStats, DtrgReport, MemoryFootprint, RaceDetector, RaceReport,
};
use futrace_offline::checkpoint::FINGERPRINT_HEAD;
use futrace_offline::framed;
use futrace_offline::{
    run_supervised, trace_chunks, trace_events, Checkpoint, RouterProgress, ShardPlan, ShardStats,
    SuperviseError, SupervisedOutcome, SupervisionReport, SupervisorPlan, SyntheticChunks,
    TraceError, TraceFingerprint,
};
use futrace_runtime::engine::{
    run_analysis, source, Analysis, Checkpointable, Engine, EngineCounters,
};
use futrace_runtime::monitor::{Monitor, TaskKind};
use futrace_runtime::online::OnlineStats;
use futrace_runtime::{run_serial, trace, Event, EventLog, SerialCtx};
use futrace_util::crc32::crc32;
use futrace_util::faultinject::FaultPlan;
use futrace_util::ids::{FinishId, LocId, TaskId};
use futrace_util::stats::Timer;
use std::fmt;

/// What can go wrong inside a session, independent of any I/O the caller
/// layered on top.
#[derive(Debug)]
pub enum SessionError {
    /// The fed trace (blob or chunk) is invalid.
    Trace(TraceError),
    /// The supervised backend failed unrecoverably.
    Supervise(String),
    /// The session configuration or feeding sequence is invalid.
    Config(String),
    /// A resumed checkpoint does not match the re-streamed trace.
    Checkpoint(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Trace(e) => write!(f, "invalid trace: {e}"),
            SessionError::Supervise(e) => write!(f, "supervised run failed: {e}"),
            SessionError::Config(e) => write!(f, "invalid analysis options: {e}"),
            SessionError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Everything one analysis run produces, whatever the source and backend.
#[derive(Clone, Debug)]
pub struct AnalysisOutcome {
    /// Deduplicated, capped race report (the verdict).
    pub races: RaceReport,
    /// Structural statistics and DTRG cost counters (Table 2's columns,
    /// plus the memo and fast-path cache counters).
    pub stats: DetectorStats,
    /// Theorem 1's space bound, measured at the end of the run.
    pub footprint: MemoryFootprint,
    /// Engine counters: events consumed, checks performed, wall time,
    /// cache hit/miss totals, and any supervision suffix.
    pub engine: EngineCounters,
    /// Sharded-pipeline accounting, when the sharded backend ran.
    pub sharding: Option<ShardStats>,
    /// What the supervisor did, when the sharded backend ran.
    pub supervision: Option<SupervisionReport>,
    /// Online-pipeline telemetry (buffer publishes, canonical-walk
    /// frontier waits, per-shard routing), when the source was an
    /// instrumented parallel execution (`Analyze::program_parallel`).
    pub online: Option<OnlineStats>,
}

impl AnalysisOutcome {
    /// True iff any race was detected.
    pub fn has_races(&self) -> bool {
        self.races.has_races()
    }

    /// Assembles the outcome of a DTRG run from its report and the
    /// engine's counters, copying the detector's cache hit/miss totals
    /// into the counters. Backend-specific fields start empty.
    pub fn from_dtrg(report: DtrgReport, mut engine: EngineCounters) -> Self {
        // Surface the analysis's hot-path cache counters next to the
        // driver's own counts: hits from both cache layers, misses from
        // the memo (the shadow fast path has no distinct miss event —
        // every slow-path check is one).
        engine.cache_hits = report.stats.dtrg.memo_hits + report.stats.dtrg.shadow_hits;
        engine.cache_misses = report.stats.dtrg.memo_misses;
        AnalysisOutcome {
            races: report.report,
            stats: report.stats,
            footprint: report.footprint,
            engine,
            sharding: None,
            supervision: None,
            online: None,
        }
    }
}

/// Incremental verdict after one fed chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerdictDelta {
    /// Chunks consumed so far.
    pub chunks: u64,
    /// Events consumed so far.
    pub events: u64,
    /// Races detected so far (uncapped).
    pub races: u64,
}

/// Configuration for one session — the same knobs the `Analyze` builder
/// exposes, in resolved form.
#[derive(Clone, Debug, Default)]
pub struct SessionConfig {
    /// Detector configuration (report caps, first-race mode, caching).
    pub detector: DetectorConfig,
    /// Sharded backend with this many detect workers; `None` = serial.
    pub shards: Option<usize>,
    /// Checkpoint interval in chunks. Whole-trace and event feeds run the
    /// sharded backend, barrier-snapshotting every N chunks; a wire
    /// session stays on its live engine and its caller cuts
    /// [`Session::checkpoint`]s at this interval.
    pub checkpoint_every: Option<u64>,
    /// Sharded backend with the deterministic fault plan from a seed.
    pub fault_seed: Option<u64>,
    /// Skip damaged trace chunks (counting them) instead of failing.
    pub lenient: bool,
}

/// The monitor a program fed to [`Session::feed_program`] runs under.
pub enum ProgramMonitor {
    /// A serial session's detector, checking each event as the program
    /// emits it.
    Live(Engine<RaceDetector>),
    /// The recording the sharded backend replays.
    Record(EventLog),
}

impl Monitor for ProgramMonitor {
    fn task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind, ief: FinishId) {
        match self {
            ProgramMonitor::Live(m) => m.task_create(parent, child, kind, ief),
            ProgramMonitor::Record(m) => m.task_create(parent, child, kind, ief),
        }
    }
    fn task_end(&mut self, task: TaskId) {
        match self {
            ProgramMonitor::Live(m) => m.task_end(task),
            ProgramMonitor::Record(m) => m.task_end(task),
        }
    }
    fn finish_start(&mut self, task: TaskId, finish: FinishId) {
        match self {
            ProgramMonitor::Live(m) => m.finish_start(task, finish),
            ProgramMonitor::Record(m) => m.finish_start(task, finish),
        }
    }
    fn finish_end(&mut self, task: TaskId, finish: FinishId, joined: &[TaskId]) {
        match self {
            ProgramMonitor::Live(m) => m.finish_end(task, finish, joined),
            ProgramMonitor::Record(m) => m.finish_end(task, finish, joined),
        }
    }
    fn get(&mut self, waiter: TaskId, awaited: TaskId) {
        match self {
            ProgramMonitor::Live(m) => m.get(waiter, awaited),
            ProgramMonitor::Record(m) => m.get(waiter, awaited),
        }
    }
    #[inline]
    fn read(&mut self, task: TaskId, loc: LocId) {
        match self {
            ProgramMonitor::Live(m) => m.read(task, loc),
            ProgramMonitor::Record(m) => m.read(task, loc),
        }
    }
    #[inline]
    fn write(&mut self, task: TaskId, loc: LocId) {
        match self {
            ProgramMonitor::Live(m) => m.write(task, loc),
            ProgramMonitor::Record(m) => m.write(task, loc),
        }
    }
    fn alloc(&mut self, base: LocId, n: u32, name: &str) {
        match self {
            ProgramMonitor::Live(m) => m.alloc(base, n, name),
            ProgramMonitor::Record(m) => m.alloc(base, n, name),
        }
    }
}

/// Synthetic chunk granularity used when supervising an in-memory event
/// list (which has no framed boundaries of its own).
pub(crate) const SYNTHETIC_CHUNK_EVENTS: u64 = 4096;

enum Feed {
    /// Nothing fed yet (finishing analyzes an empty stream).
    Empty,
    /// A whole trace blob (flat v1 or framed v2), fed in one call.
    Trace(Vec<u8>),
    /// A whole decoded event list, fed in one call.
    Events(Vec<Event>),
    /// A program checked as it ran: the engine consumed its whole stream.
    Program(Box<Engine<RaceDetector>>),
    /// Chunk-at-a-time feeding: the re-framed accumulated trace, the
    /// control events consumed so far (a checkpoint's replay prefix) and
    /// the live incremental engine.
    Wire {
        blob: Vec<u8>,
        control: Vec<Event>,
        engine: Box<Engine<RaceDetector>>,
    },
}

/// One incremental analysis. See the module docs.
pub struct Session {
    cfg: SessionConfig,
    feed: Feed,
    chunks: u64,
    events: u64,
    resume: Option<Checkpoint>,
    timer: Timer,
}

impl Session {
    /// Opens a session, validating the configuration up front (the same
    /// checks — and the same messages — the `Analyze` builder reports
    /// before any work runs).
    pub fn open(cfg: SessionConfig) -> Result<Session, SessionError> {
        if cfg.shards == Some(0) {
            return Err(SessionError::Config(
                "shards(0): the sharded backend needs at least one detect worker".to_string(),
            ));
        }
        if cfg.checkpoint_every == Some(0) {
            return Err(SessionError::Config(
                "checkpoint_every(0): the checkpoint interval must be at least one chunk"
                    .to_string(),
            ));
        }
        Ok(Session {
            cfg,
            feed: Feed::Empty,
            chunks: 0,
            events: 0,
            resume: None,
            timer: Timer::start(),
        })
    }

    /// Opens a session resuming from a suspended session's checkpoint.
    ///
    /// The feeder streams the *full* trace again (wire clients re-send
    /// every chunk; the incremental delta engine re-consumes them so
    /// deltas stay truthful); at [`Session::finish`] the sharded
    /// backend skips the chunks the checkpoint already completed, so the
    /// final report is identical to an uninterrupted run.
    pub fn open_resumed(
        cfg: SessionConfig,
        checkpoint: Checkpoint,
    ) -> Result<Session, SessionError> {
        let mut session = Session::open(cfg)?;
        session.resume = Some(checkpoint);
        Ok(session)
    }

    /// Chunks a resumed checkpoint already completed (0 for a fresh
    /// session).
    pub fn resumed_chunks(&self) -> u64 {
        self.resume.as_ref().map_or(0, |c| c.chunks_completed)
    }

    /// Chunks fed so far (wire feeding only).
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Events fed so far (wire feeding only).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Feeds a whole trace blob (flat v1 or framed v2). The one-shot
    /// batch path: decoding, lenient skipping, and error semantics are
    /// identical to the historical `Analyze` behavior.
    pub fn feed_trace(&mut self, blob: Vec<u8>) -> Result<(), SessionError> {
        match self.feed {
            Feed::Empty => {
                self.feed = Feed::Trace(blob);
                Ok(())
            }
            _ => Err(SessionError::Config(
                "feed_trace: the session was already fed".to_string(),
            )),
        }
    }

    /// Feeds a whole decoded event list.
    pub fn feed_events(&mut self, events: Vec<Event>) -> Result<(), SessionError> {
        match self.feed {
            Feed::Empty => {
                self.feed = Feed::Events(events);
                Ok(())
            }
            _ => Err(SessionError::Config(
                "feed_events: the session was already fed".to_string(),
            )),
        }
    }

    /// Runs `f` under the serial depth-first executor and feeds its event
    /// stream. A serial session with no checkpoint interval, fault plan or
    /// resume checks the program as it runs and records nothing;
    /// [`Session::finish`] then finishes that live engine. Every other
    /// configuration records the stream for its backend to replay, as if
    /// it were given to [`Session::feed_events`].
    pub fn feed_program<F>(&mut self, f: F) -> Result<(), SessionError>
    where
        F: FnOnce(&mut SerialCtx<ProgramMonitor>),
    {
        if !matches!(self.feed, Feed::Empty) {
            return Err(SessionError::Config(
                "feed_program: the session was already fed".to_string(),
            ));
        }
        let mut mon = if self.finishes_live() && self.cfg.checkpoint_every.is_none() {
            let detector = RaceDetector::with_config(self.cfg.detector.clone());
            ProgramMonitor::Live(Engine::new(detector))
        } else {
            ProgramMonitor::Record(EventLog::new())
        };
        run_serial(&mut mon, f);
        self.feed = match mon {
            ProgramMonitor::Live(engine) => Feed::Program(Box::new(engine)),
            ProgramMonitor::Record(log) => Feed::Events(log.events),
        };
        Ok(())
    }

    /// Feeds one trace chunk (v1-encoded events — the payload bytes of a
    /// framed `.ftrc` chunk), consuming it through the engine's batched
    /// dispatch path immediately and returning the incremental verdict.
    ///
    /// The chunk is also appended (re-framed, CRC'd) to the session's
    /// accumulated trace so the sharded backend can replay
    /// the exact stream received, and its control events are kept for
    /// [`Session::checkpoint`].
    pub fn feed_chunk(&mut self, payload: &[u8]) -> Result<VerdictDelta, SessionError> {
        let events =
            trace::decode(payload).map_err(|e| SessionError::Trace(TraceError::Decode(e)))?;
        if let Feed::Empty = self.feed {
            let mut blob = Vec::with_capacity(framed::HEADER_LEN + payload.len());
            blob.extend_from_slice(&framed::MAGIC);
            blob.push(framed::VERSION);
            let detector = RaceDetector::with_config(self.cfg.detector.clone());
            self.feed = Feed::Wire {
                blob,
                control: Vec::new(),
                engine: Box::new(Engine::new(detector)),
            };
        }
        let Feed::Wire {
            blob,
            control,
            engine,
        } = &mut self.feed
        else {
            return Err(SessionError::Config(
                "feed_chunk: the session was already fed a whole trace".to_string(),
            ));
        };
        // Re-frame the chunk exactly as the streaming recorder would.
        let mut header = [0u8; framed::CHUNK_HEADER_LEN];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..8].copy_from_slice(&(events.len() as u32).to_le_bytes());
        header[8..].copy_from_slice(&crc32(payload).to_le_bytes());
        blob.extend_from_slice(&header);
        blob.extend_from_slice(payload);

        engine.consume_slice(&events);
        self.chunks += 1;
        self.events += events.len() as u64;
        control.extend(
            events
                .into_iter()
                .filter(|e| !matches!(e, Event::Read(..) | Event::Write(..))),
        );
        Ok(VerdictDelta {
            chunks: self.chunks,
            events: self.events,
            races: engine.analysis().total_detected(),
        })
    }

    /// True when [`Session::finish`] takes the verdict from a live engine
    /// rather than replaying the feed: no shards, no fault plan, no resume.
    fn finishes_live(&self) -> bool {
        self.cfg.shards.is_none() && self.cfg.fault_seed.is_none() && self.resume.is_none()
    }

    /// The sharded backend's plan, when the configuration asks for that
    /// backend: a shard count, a checkpoint interval, a fault plan or a
    /// resume.
    fn supervisor_plan(&self) -> Option<SupervisorPlan> {
        if self.cfg.shards.is_none()
            && self.cfg.checkpoint_every.is_none()
            && self.cfg.fault_seed.is_none()
            && self.resume.is_none()
        {
            return None;
        }
        let mut plan = SupervisorPlan {
            shard: ShardPlan::with_shards(self.cfg.shards.unwrap_or(ShardPlan::default().shards)),
            ..SupervisorPlan::default()
        };
        plan.checkpoint_every_chunks = self.cfg.checkpoint_every;
        if let Some(seed) = self.cfg.fault_seed {
            plan = plan.with_faults(&FaultPlan::from_seed(seed));
        }
        Some(plan)
    }

    /// Verifies a resumed checkpoint against the re-streamed trace. The
    /// fingerprint was taken over the *prefix* received before
    /// suspension, so the head CRC must match the same head span of the
    /// new blob and the new blob must be at least as long — a plain
    /// `matches_trace` would reject the (longer) full trace.
    fn verify_resume_fingerprint(&self, blob: &[u8]) -> Result<(), SessionError> {
        let Some(fp) = self.resume.as_ref().and_then(|c| c.fingerprint.as_ref()) else {
            return Ok(());
        };
        let head = blob.len().min(FINGERPRINT_HEAD).min(fp.len as usize);
        if (blob.len() as u64) < fp.len || crc32(&blob[..head]) != fp.head_crc {
            return Err(SessionError::Checkpoint(
                "resumed session received a different trace than the checkpoint covers"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Cuts an FCKP checkpoint covering every chunk fed so far, straight
    /// from the live engine: the kept control prefix, the detector's
    /// access-derived state and the engine's counters, as one shard. It is
    /// the cut the supervised pipeline would take after the same chunks
    /// with one shard (DESIGN S46), at the cost of one state save.
    ///
    /// Returns `None` before the first chunk and for whole-trace or event
    /// feeds. A resumed session that has not yet re-fed its checkpoint's
    /// chunks returns that checkpoint, so a second suspension never loses
    /// ground. The live cut cannot fail; the `Result` is kept so callers
    /// handle every session error the same way.
    pub fn checkpoint(&self) -> Result<Option<Checkpoint>, SessionError> {
        let Feed::Wire {
            blob,
            control,
            engine,
        } = &self.feed
        else {
            return Ok(None);
        };
        if let Some(cp) = &self.resume {
            if cp.chunks_completed > self.chunks {
                return Ok(Some(cp.clone()));
            }
        }
        let c = engine.counters();
        let mut state = Vec::new();
        engine.analysis().save_state(&mut state);
        Ok(Some(Checkpoint {
            shards: 1,
            events_consumed: c.events,
            next_access_index: c.checks(),
            chunks_completed: self.chunks,
            router: RouterProgress {
                events: c.events,
                control_events: c.control_events,
                reads: c.reads,
                writes: c.writes,
            },
            control_events: control.clone(),
            per_shard_accesses: vec![c.checks()],
            shard_states: vec![state],
            fingerprint: Some(TraceFingerprint::of(blob)),
        }))
    }

    /// Suspends the session: cuts a checkpoint (see
    /// [`Session::checkpoint`]) and consumes the session. Returns `None`
    /// when no chunk was received; the caller then simply starts over on
    /// resume.
    pub fn suspend(self) -> Result<Option<Checkpoint>, SessionError> {
        self.checkpoint()
    }

    /// Runs the configured backend over everything fed and produces the
    /// final outcome.
    pub fn finish(self) -> Result<AnalysisOutcome, SessionError> {
        // A fresh serial wire session needs no replay at all: the
        // incremental engine already consumed the stream chunk by chunk.
        // A checkpoint interval alone does not change that — checkpoints
        // are cut from the same engine. A program checked as it ran is
        // finished the same way.
        if self.finishes_live() {
            if let Feed::Wire { engine, .. } | Feed::Program(engine) = self.feed {
                let (analysis, mut counters) = engine.into_parts();
                let report = Analysis::finish(analysis);
                counters.wall_ms = self.timer.elapsed_ms();
                return Ok(AnalysisOutcome::from_dtrg(report, counters));
            }
        }
        if let Feed::Trace(blob) | Feed::Wire { blob, .. } = &self.feed {
            self.verify_resume_fingerprint(blob)?;
        }

        let plan = self.supervisor_plan();
        let lenient = self.cfg.lenient;
        let config = self.cfg.detector.clone();
        let timer = self.timer;

        // Every other combination replays the stream: through the sharded
        // pipeline when a plan asks for it, serially otherwise.
        let (blob, events): (Option<Vec<u8>>, Option<Vec<Event>>) = match self.feed {
            Feed::Empty => (None, Some(Vec::new())),
            Feed::Trace(data) => (Some(data), None),
            Feed::Events(ev) => (None, Some(ev)),
            Feed::Wire { blob, .. } => (Some(blob), None),
            Feed::Program(_) => {
                unreachable!("a program is checked live only when it finishes live")
            }
        };

        if let Some(plan) = plan {
            let factory = || RaceDetector::with_config(config.clone());
            let resume = self.resume.as_ref();
            let out = match (&blob, &events) {
                (Some(data), _) => {
                    run_supervised(|| trace_events(data, lenient), factory, &plan, resume)
                        .map_err(erase_supervise_error)?
                }
                (None, Some(events)) => run_supervised(
                    || {
                        SyntheticChunks::new(
                            events
                                .iter()
                                .cloned()
                                .map(Ok as fn(_) -> Result<_, TraceError>),
                            SYNTHETIC_CHUNK_EVENTS,
                        )
                    },
                    factory,
                    &plan,
                    resume,
                )
                .map_err(erase_supervise_error)?,
                (None, None) => unreachable!("feed resolution always yields one"),
            };
            let SupervisedOutcome::Completed {
                report,
                stats,
                supervision,
            } = out
            else {
                unreachable!("no stop_after requested, the run must complete");
            };
            let engine = engine_from_shards(&stats, timer.elapsed_ms(), Some(&supervision));
            let mut outcome = AnalysisOutcome::from_dtrg(report, engine);
            outcome.sharding = Some(stats);
            outcome.supervision = Some(supervision);
            return Ok(outcome);
        }

        // Plain serial replay: chunk-batched decode for trace blobs, the
        // batched in-memory path for event slices.
        let detector = RaceDetector::with_config(config);
        let out = match (&blob, &events) {
            (Some(data), _) => run_analysis(source::chunks(trace_chunks(data, lenient)), detector)
                .map_err(SessionError::Trace)?,
            (None, Some(events)) => match run_analysis(source::recorded(events), detector) {
                Ok(out) => out,
                Err(never) => match never {},
            },
            (None, None) => unreachable!("feed resolution always yields one"),
        };
        Ok(AnalysisOutcome::from_dtrg(out.report, out.counters))
    }
}

pub(crate) fn erase_supervise_error(e: SuperviseError<TraceError>) -> SessionError {
    match e {
        SuperviseError::Stream(e) => SessionError::Trace(e),
        other => SessionError::Supervise(other.to_string()),
    }
}

/// Builds engine counters from sharded-pipeline accounting, the exact
/// assembly the one-shot path used to do by hand.
pub(crate) fn engine_from_shards(
    stats: &ShardStats,
    wall_ms: f64,
    supervision: Option<&SupervisionReport>,
) -> EngineCounters {
    let mut c = EngineCounters {
        events: stats.events,
        control_events: stats.control_events,
        reads: stats.reads,
        writes: stats.writes,
        wall_ms,
        ..EngineCounters::default()
    };
    if let Some(s) = supervision {
        c.shard_restarts = s.shard_restarts;
        c.degradations = s.degradations;
        c.resumed_from_checkpoint = s.resumed_from_checkpoint;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use futrace_runtime::{run_serial, EventLog, TaskCtx};

    fn racy_events() -> Vec<Event> {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let a = ctx.shared_array(8, 0u64, "a");
            ctx.finish(|ctx| {
                for i in 0..8usize {
                    let aw = a.clone();
                    ctx.async_task(move |ctx| aw.write(ctx, i, 1));
                }
            });
            for i in 0..8usize {
                a.write(ctx, i, 2);
            }
            let aw = a.clone();
            let _f = ctx.future(move |ctx| aw.write(ctx, 3, 9));
            let _ = a.read(ctx, 3); // racy: read without get()
        });
        log.events
    }

    fn clean_events() -> Vec<Event> {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let a = ctx.shared_array(4, 0u64, "a");
            for i in 0..4usize {
                a.write(ctx, i, 1);
            }
        });
        log.events
    }

    fn framed_blob(events: &[Event]) -> Vec<u8> {
        let payload = trace::encode(events);
        let mut blob = Vec::new();
        blob.extend_from_slice(&framed::MAGIC);
        blob.push(framed::VERSION);
        let mut header = [0u8; framed::CHUNK_HEADER_LEN];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..8].copy_from_slice(&(events.len() as u32).to_le_bytes());
        header[8..].copy_from_slice(&crc32(&payload).to_le_bytes());
        blob.extend_from_slice(&header);
        blob.extend_from_slice(&payload);
        blob
    }

    #[test]
    fn rejects_zero_shards_and_zero_interval() {
        let err = Session::open(SessionConfig {
            shards: Some(0),
            ..SessionConfig::default()
        })
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, SessionError::Config(_)));
        let err = Session::open(SessionConfig {
            checkpoint_every: Some(0),
            ..SessionConfig::default()
        })
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, SessionError::Config(_)));
    }

    #[test]
    fn empty_session_finishes_clean() {
        let session = Session::open(SessionConfig::default()).unwrap();
        let out = session.finish().unwrap();
        assert!(!out.has_races());
        assert_eq!(out.engine.events, 0);
    }

    #[test]
    fn chunked_feed_matches_batch_feed() {
        let events = racy_events();
        let payload = trace::encode(&events);

        let mut batch = Session::open(SessionConfig::default()).unwrap();
        batch.feed_events(events.clone()).unwrap();
        let batch_out = batch.finish().unwrap();

        let mut wire = Session::open(SessionConfig::default()).unwrap();
        // Split at an event boundary: re-encode halves as two chunks.
        let mid = events.len() / 2;
        let first = trace::encode(&events[..mid]);
        let second = trace::encode(&events[mid..]);
        let d1 = wire.feed_chunk(&first).unwrap();
        let d2 = wire.feed_chunk(&second).unwrap();
        assert_eq!(d1.chunks, 1);
        assert_eq!(d2.chunks, 2);
        assert_eq!(d2.events, events.len() as u64);
        let wire_out = wire.finish().unwrap();

        assert_eq!(
            format!("{}", batch_out.races),
            format!("{}", wire_out.races)
        );
        assert_eq!(
            batch_out.races.total_detected,
            wire_out.races.total_detected
        );
        assert_eq!(batch_out.engine.events, wire_out.engine.events);
        // Sanity: the single-chunk wire path agrees too.
        let mut single = Session::open(SessionConfig::default()).unwrap();
        single.feed_chunk(&payload).unwrap();
        let single_out = single.finish().unwrap();
        assert_eq!(
            single_out.races.total_detected,
            batch_out.races.total_detected
        );
    }

    #[test]
    fn sharded_wire_feed_matches_serial() {
        let events = racy_events();
        let payload = trace::encode(&events);

        let mut serial = Session::open(SessionConfig::default()).unwrap();
        serial.feed_chunk(&payload).unwrap();
        let serial_out = serial.finish().unwrap();

        let mut sharded = Session::open(SessionConfig {
            shards: Some(4),
            ..SessionConfig::default()
        })
        .unwrap();
        sharded.feed_chunk(&payload).unwrap();
        let sharded_out = sharded.finish().unwrap();

        assert_eq!(
            format!("{}", serial_out.races),
            format!("{}", sharded_out.races)
        );
        assert!(sharded_out.sharding.is_some());
    }

    #[test]
    fn suspend_resume_reproduces_uninterrupted_report() {
        let events = racy_events();
        // Four chunks so the suspension point is interior.
        let quarter = events.len() / 4;
        let chunks: Vec<Vec<u8>> = (0..4)
            .map(|i| {
                let lo = i * quarter;
                let hi = if i == 3 { events.len() } else { (i + 1) * quarter };
                trace::encode(&events[lo..hi])
            })
            .collect();

        let mut uninterrupted = Session::open(SessionConfig::default()).unwrap();
        for c in &chunks {
            uninterrupted.feed_chunk(c).unwrap();
        }
        let want = uninterrupted.finish().unwrap();

        let mut first = Session::open(SessionConfig::default()).unwrap();
        for c in &chunks[..3] {
            first.feed_chunk(c).unwrap();
        }
        let checkpoint = first
            .suspend()
            .unwrap()
            .expect("three chunks are checkpointable");
        assert!(checkpoint.chunks_completed >= 1);

        let mut resumed = Session::open_resumed(SessionConfig::default(), checkpoint).unwrap();
        assert!(resumed.resumed_chunks() >= 1);
        for c in &chunks {
            resumed.feed_chunk(c).unwrap();
        }
        let got = resumed.finish().unwrap();

        assert_eq!(format!("{}", want.races), format!("{}", got.races));
        assert_eq!(want.races.total_detected, got.races.total_detected);
        assert!(got.supervision.is_some());
    }

    #[test]
    fn resumed_session_never_cuts_behind_its_checkpoint() {
        let chunks: Vec<Vec<u8>> = racy_events().chunks(2).map(trace::encode).collect();
        let mut first = Session::open(SessionConfig::default()).unwrap();
        assert!(first.checkpoint().unwrap().is_none(), "nothing fed yet");
        for c in &chunks[..3] {
            first.feed_chunk(c).unwrap();
        }
        let checkpoint = first.suspend().unwrap().expect("fed sessions cut");
        assert_eq!(checkpoint.chunks_completed, 3);

        // Suspended again after re-feeding only one chunk: the session
        // keeps the cut it resumed from instead of a shorter one.
        let mut resumed =
            Session::open_resumed(SessionConfig::default(), checkpoint.clone()).unwrap();
        resumed.feed_chunk(&chunks[0]).unwrap();
        assert_eq!(resumed.suspend().unwrap(), Some(checkpoint));
    }

    #[test]
    fn resume_with_wrong_trace_is_rejected() {
        let racy = racy_events();
        let clean = clean_events();
        let racy_chunks: Vec<Vec<u8>> = racy.chunks(2).map(trace::encode).collect();

        let mut first = Session::open(SessionConfig::default()).unwrap();
        for c in &racy_chunks {
            first.feed_chunk(c).unwrap();
        }
        let checkpoint = first.suspend().unwrap().expect("checkpointable");

        let mut resumed = Session::open_resumed(SessionConfig::default(), checkpoint).unwrap();
        // Stream a *different* trace than the checkpoint covers.
        resumed.feed_chunk(&trace::encode(&clean)).unwrap();
        let err = resumed.finish().unwrap_err();
        assert!(matches!(err, SessionError::Checkpoint(_)), "got {err}");
    }

    #[test]
    fn whole_blob_feed_matches_event_feed() {
        let events = racy_events();
        let blob = framed_blob(&events);

        let mut by_blob = Session::open(SessionConfig::default()).unwrap();
        by_blob.feed_trace(blob).unwrap();
        let blob_out = by_blob.finish().unwrap();

        let mut by_events = Session::open(SessionConfig::default()).unwrap();
        by_events.feed_events(events).unwrap();
        let events_out = by_events.finish().unwrap();

        assert_eq!(
            format!("{}", blob_out.races),
            format!("{}", events_out.races)
        );
        assert_eq!(blob_out.engine.events, events_out.engine.events);
    }

    #[test]
    fn double_feed_is_rejected() {
        let mut s = Session::open(SessionConfig::default()).unwrap();
        s.feed_events(Vec::new()).unwrap();
        assert!(matches!(
            s.feed_trace(Vec::new()),
            Err(SessionError::Config(_))
        ));
        assert!(matches!(s.feed_chunk(&[]), Err(SessionError::Config(_))));
    }
}
