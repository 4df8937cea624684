//! `Analyze::program` on the default serial configuration checks the
//! program as it runs; with shards or a checkpoint interval it records the
//! program and replays the recording (DESIGN S47). The live run must equal
//! a replay of the recorded stream field for field: races, statistics,
//! footprint and engine counters. The recording backends must keep the
//! verdict.

use futrace::benchsuite::randomprog::{execute, generate, GenParams};
use futrace::benchsuite::registry::{self, Scale};
use futrace::benchsuite::{
    actor, crypt, futlist, futtree, graphwalk, jacobi, lu, pipeline, prodcons, series,
    smithwaterman, sor,
};
use futrace::prelude::*;
use futrace::runtime::{Event, EventLog, Monitor};
use futrace::util::propcheck::{self, strategies, Config};
use std::cell::Cell;

const CASES: u32 = 256;

/// Runs registry kernel `name` at tiny size inside a running serial
/// context: the same kernel call the registry's own runner makes.
fn run_kernel<M: Monitor>(name: &str, ctx: &mut SerialCtx<M>, planted: bool) {
    match name {
        "jacobi" => {
            jacobi::jacobi_run(ctx, &jacobi::JacobiParams::tiny(), planted);
        }
        "smithwaterman" => {
            smithwaterman::sw_run(ctx, &smithwaterman::SwParams::tiny(), planted);
        }
        "lu" => {
            lu::lu_run(ctx, &lu::LuParams::tiny(), planted);
        }
        "pipeline" => {
            pipeline::pipeline_run(ctx, &pipeline::PipelineParams::tiny(), planted);
        }
        "sor" => {
            sor::sor_run(ctx, &sor::SorParams::tiny(), planted);
        }
        "series_future" => {
            series::series_future(ctx, &series::SeriesParams::tiny());
        }
        "crypt" => {
            crypt::crypt_run(
                ctx,
                &crypt::CryptParams::tiny(),
                crypt::CryptVariant::Future,
            );
        }
        "prodcons" => {
            prodcons::prodcons_run(ctx, &prodcons::ProdConsParams::tiny(), planted);
        }
        "futlist" => {
            futlist::futlist_run(ctx, &futlist::FutListParams::tiny(), planted);
        }
        "futtree" => {
            futtree::futtree_run(ctx, &futtree::FutTreeParams::tiny(), planted);
        }
        "graphwalk" => {
            graphwalk::graphwalk_run(ctx, &graphwalk::GraphWalkParams::tiny(), planted);
        }
        "actor" => {
            actor::actor_run(ctx, &actor::ActorParams::tiny(), planted);
        }
        other => panic!("registry kernel `{other}` has no case in run_kernel"),
    }
}

fn assert_identical(context: &str, live: &AnalysisOutcome, replayed: &AnalysisOutcome) {
    assert_eq!(live.races.races, replayed.races.races, "races: {context}");
    assert_eq!(
        live.races.total_detected, replayed.races.total_detected,
        "total_detected: {context}"
    );
    let (a, b) = (&live.stats, &replayed.stats);
    assert_eq!(
        (a.tasks, a.future_tasks, a.async_tasks, a.reads, a.writes),
        (b.tasks, b.future_tasks, b.async_tasks, b.reads, b.writes),
        "structural stats: {context}"
    );
    assert_eq!(
        a.readers_at_access.to_raw(),
        b.readers_at_access.to_raw(),
        "reader samples: {context}"
    );
    assert_eq!(a.dtrg, b.dtrg, "DTRG, memo and shadow counters: {context}");
    assert_eq!(live.footprint, replayed.footprint, "footprint: {context}");
    let (a, b) = (&live.engine, &replayed.engine);
    assert_eq!(
        (a.events, a.control_events, a.reads, a.writes),
        (b.events, b.control_events, b.reads, b.writes),
        "engine counters: {context}"
    );
    assert_eq!(
        (a.cache_hits, a.cache_misses),
        (b.cache_hits, b.cache_misses),
        "cache counters: {context}"
    );
}

/// Checks `program` live against a replay of `recorded` (its recording),
/// then through the sharded and supervised backends, which record it.
fn check(context: &str, program: impl Fn(&mut SerialCtx<ProgramMonitor>), recorded: &[Event]) {
    let live = Analyze::program(&program).run().unwrap();
    let replayed = Analyze::events(recorded).run().unwrap();
    assert_identical(context, &live, &replayed);
    assert!(
        live.sharding.is_none() && live.supervision.is_none(),
        "{context}"
    );

    let sharded = Analyze::program(&program).shards(2).run().unwrap();
    let supervised = Analyze::program(&program)
        .shards(2)
        .checkpoint_every(2)
        .run()
        .unwrap();
    assert!(sharded.sharding.is_some(), "{context}");
    assert!(supervised.supervision.is_some(), "{context}");
    for (backend, out) in [("sharded", &sharded), ("supervised", &supervised)] {
        assert_eq!(out.races.races, live.races.races, "{backend}: {context}");
        assert_eq!(
            out.races.total_detected, live.races.total_detected,
            "{backend} total_detected: {context}"
        );
    }
}

#[test]
fn registry_kernels_live_equal_recorded() {
    for w in registry::workloads() {
        let variants: &[bool] = if w.plantable {
            &[false, true]
        } else {
            &[false]
        };
        for &planted in variants {
            let recorded = w.record(Scale::Tiny, planted);
            check(
                &format!("{} planted={planted}", w.name),
                |ctx| run_kernel(w.name, ctx, planted),
                &recorded.events,
            );
        }
    }
}

fn check_generated(seed: u64, params: &GenParams) {
    let prog = generate(seed, params);
    let mut log = EventLog::new();
    run_serial(&mut log, |ctx| {
        execute(ctx, &prog);
    });
    check(
        &format!("seed {seed} prog={prog:?}"),
        |ctx| {
            execute(ctx, &prog);
        },
        &log.events,
    );
}

#[test]
fn generated_programs_live_equal_recorded_default_mix() {
    propcheck::check(&Config::with_cases(CASES), &strategies::any_u64(), |seed| {
        check_generated(seed, &GenParams::default());
    });
}

#[test]
fn generated_programs_live_equal_recorded_future_heavy() {
    propcheck::check(&Config::with_cases(CASES), &strategies::any_u64(), |seed| {
        check_generated(seed, &GenParams::future_heavy());
    });
}

#[test]
fn invalid_options_never_run_the_program() {
    let ran = Cell::new(false);
    let err = Analyze::program(|_| ran.set(true))
        .shards(0)
        .run()
        .unwrap_err();
    assert!(matches!(err, AnalyzeError::Config(_)), "{err}");
    let err = Analyze::program(|_| ran.set(true))
        .checkpoint_every(0)
        .run()
        .unwrap_err();
    assert!(matches!(err, AnalyzeError::Config(_)), "{err}");
    assert!(
        !ran.get(),
        "the program ran before its options were rejected"
    );

    // The flag does flip when the options are valid.
    Analyze::program(|_| ran.set(true)).run().unwrap();
    assert!(ran.get());
}
