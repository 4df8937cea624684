//! A wire session's checkpoints come from its live engine (DESIGN S46).
//!
//! Two properties pin that design:
//!
//! * **The live cut is the one-shard replay cut.** After `k` fed chunks,
//!   [`Session::checkpoint`] must equal — field for field and in
//!   `encode()` bytes — the checkpoint the supervised pipeline cuts over
//!   the same chunks with one shard and `stop_after_chunks = k`.
//! * **Resume from any boundary is exact.** A session resumed from the
//!   checkpoint cut after any `k` chunks, including `k = 1` and the last
//!   chunk, reports the byte-identical race list and `total_detected` of
//!   an uninterrupted session.

use futrace_benchsuite::randomprog::{self, GenParams};
use futrace_benchsuite::registry::{self, Scale};
use futrace_detector::RaceDetector;
use futrace_offline::{
    framed, run_supervised, trace_events, Checkpoint, ShardPlan, SupervisedOutcome, SupervisorPlan,
};
use futrace_runtime::{run_serial, trace, Event, EventLog};
use futrace_service::{Session, SessionConfig};
use futrace_util::crc32::crc32;
use futrace_util::rng::splitmix64;

/// Splits `events` into chunks of eight, as `tracetool client
/// --chunk-events 8` does, so even a tiny program spans many chunk
/// boundaries. Returns the framed blob with its chunk payloads.
fn chunked(events: &[Event]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let payloads: Vec<Vec<u8>> = events.chunks(8).map(trace::encode).collect();
    let mut blob = framed::MAGIC.to_vec();
    blob.push(framed::VERSION);
    for (payload, events) in payloads.iter().zip(events.chunks(8)) {
        blob.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        blob.extend_from_slice(&(events.len() as u32).to_le_bytes());
        blob.extend_from_slice(&crc32(payload).to_le_bytes());
        blob.extend_from_slice(payload);
    }
    (blob, payloads)
}

fn fed(chunks: &[Vec<u8>]) -> Session {
    let mut session = Session::open(SessionConfig::default()).expect("serial config");
    for c in chunks {
        session.feed_chunk(c).expect("valid chunk");
    }
    session
}

/// The checkpoint the supervised pipeline cuts after `k` chunks of
/// `blob` on one shard, stamped with `live`'s fingerprint.
fn replay_cut(blob: &[u8], k: u64, live: &Checkpoint) -> Checkpoint {
    let plan = SupervisorPlan {
        shard: ShardPlan::with_shards(1),
        stop_after_chunks: Some(k),
        fingerprint: live.fingerprint,
        ..SupervisorPlan::default()
    };
    let out = run_supervised(|| trace_events(blob, false), RaceDetector::new, &plan, None)
        .expect("supervised replay");
    match out {
        SupervisedOutcome::Suspended { checkpoint, .. } => checkpoint,
        SupervisedOutcome::Completed { .. } => panic!("no cut after {k} chunk(s)"),
    }
}

#[test]
fn live_cut_equals_one_shard_replay_cut_at_every_boundary() {
    for name in ["jacobi", "sor", "graphwalk", "prodcons", "actor", "futtree"] {
        let workload = registry::find(name).expect("registered workload");
        for planted in [false, true] {
            let log = workload.record(Scale::Tiny, planted);
            let (blob, chunks) = chunked(&log.events);
            assert!(chunks.len() >= 4, "{name}: only {} chunk(s)", chunks.len());
            // The supervisor cuts at boundary k when it pulls the first
            // event of chunk k + 1, so the last chunk has no replay cut;
            // the resume test below covers it.
            for k in 1..chunks.len() {
                let live = fed(&chunks[..k])
                    .checkpoint()
                    .expect("live cut")
                    .expect("a fed session has a cut");
                let want = replay_cut(&blob, k as u64, &live);
                assert_eq!(
                    live, want,
                    "{name} planted={planted}: cut after {k} chunk(s)"
                );
                assert_eq!(
                    live.encode(),
                    want.encode(),
                    "{name} planted={planted}: encoded cut after {k} chunk(s)"
                );
            }
        }
    }
}

/// Eight generated programs run back to back, so the trace spans many
/// chunks even when single programs are short.
fn generated(seed: u64, params: &GenParams) -> Vec<Event> {
    let mut state = seed;
    let progs: Vec<_> = (0..8)
        .map(|_| randomprog::generate(splitmix64(&mut state), params))
        .collect();
    let mut log = EventLog::new();
    run_serial(&mut log, |ctx| {
        for prog in &progs {
            randomprog::execute(ctx, prog);
        }
    });
    log.events
}

#[test]
fn resume_from_every_boundary_matches_uninterrupted() {
    let mut traces: Vec<(String, Vec<Event>)> = Vec::new();
    for seed in 0..3u64 {
        traces.push((
            format!("default seed {seed}"),
            generated(seed, &GenParams::default()),
        ));
        traces.push((
            format!("future_heavy seed {seed}"),
            generated(seed, &GenParams::future_heavy()),
        ));
    }
    let prodcons = registry::find("prodcons").expect("registered workload");
    traces.push((
        "prodcons planted".to_string(),
        prodcons.record(Scale::Tiny, true).events,
    ));
    let mut racy = 0;
    for (name, events) in &traces {
        let (_, chunks) = chunked(events);
        assert!(chunks.len() >= 4, "{name}: only {} chunk(s)", chunks.len());
        let want = fed(&chunks).finish().expect("uninterrupted finish");
        racy += usize::from(want.has_races());
        for k in 1..=chunks.len() {
            let cp = fed(&chunks[..k])
                .suspend()
                .expect("live cut")
                .unwrap_or_else(|| panic!("{name}: no checkpoint after {k} chunk(s)"));
            assert_eq!(
                cp.chunks_completed, k as u64,
                "{name}: cut covers every fed chunk"
            );
            // Through the bytes, as the daemon persists it.
            let cp = Checkpoint::decode(&cp.encode()).expect("checkpoint round trip");
            // A session reopened under `--shards 4` resumes on the
            // checkpoint's one shard, with the same verdict.
            let mut configs = vec![SessionConfig::default()];
            if k == chunks.len() / 2 {
                configs.push(SessionConfig {
                    shards: Some(4),
                    ..SessionConfig::default()
                });
            }
            for cfg in configs {
                let shards = cfg.shards;
                let mut resumed = Session::open_resumed(cfg, cp.clone()).expect("valid config");
                for c in &chunks {
                    resumed.feed_chunk(c).expect("valid chunk");
                }
                let got = resumed.finish().expect("resumed finish");
                assert_eq!(
                    format!("{}", got.races),
                    format!("{}", want.races),
                    "{name}: race list after resuming at chunk {k} (shards {shards:?})"
                );
                assert_eq!(
                    got.races.total_detected, want.races.total_detected,
                    "{name}: total_detected after resuming at chunk {k} (shards {shards:?})"
                );
            }
        }
    }
    assert!(racy >= 2, "only {racy} racy trace(s)");
}
