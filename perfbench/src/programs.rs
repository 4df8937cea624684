//! The programs each workload checks, built from the workload seed, and
//! the answers their verdicts are checked against.
//!
//! A program's expected verdict does not come from the detector under
//! test: the clean variant of every benchsuite kernel is race-free by
//! construction and the planted variant drops joins so that it races.
//! [`oracle_cross_check`] confirms both, and the detector's agreement,
//! on the same program at tiny size against the brute-force
//! transitive-closure oracle.

use futrace::benchsuite::{
    actor, crypt, futlist, futtree, graphwalk, jacobi, pipeline, prodcons, series, smithwaterman,
    sor,
};
use futrace::compgraph::builder::GraphBuilder;
use futrace::compgraph::oracle::Reachability;
use futrace::compgraph::CompGraph;
use futrace::runtime::{run_serial, TaskCtx};
use futrace::util::rng::Rng;
use futrace::Analyze;

/// Problem size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test sizes (hundreds of events): smoke runs and the oracle
    /// cross-check.
    Tiny,
    /// The benchsuite's profiling sizes (`registry::Scale::Perf`).
    Perf,
}

impl Scale {
    /// The `--scale` value.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Perf => "perf",
        }
    }

    /// Parses a `--scale` value.
    pub fn parse(name: &str) -> Option<Scale> {
        [Scale::Tiny, Scale::Perf]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// A benchsuite kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Jacobi,
    Sor,
    SmithWaterman,
    Crypt,
    SeriesFuture,
    ProdCons,
    FutList,
    FutTree,
    GraphWalk,
    Actor,
    Pipeline,
}

impl Kernel {
    /// The benchsuite registry name.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Jacobi => "jacobi",
            Kernel::Sor => "sor",
            Kernel::SmithWaterman => "smithwaterman",
            Kernel::Crypt => "crypt",
            Kernel::SeriesFuture => "series_future",
            Kernel::ProdCons => "prodcons",
            Kernel::FutList => "futlist",
            Kernel::FutTree => "futtree",
            Kernel::GraphWalk => "graphwalk",
            Kernel::Actor => "actor",
            Kernel::Pipeline => "pipeline",
        }
    }
}

/// One program a workload checks: a kernel, its size, and whether a race
/// is planted in it.
#[derive(Clone, Copy, Debug)]
pub struct Program {
    /// The kernel.
    pub kernel: Kernel,
    /// Whether the planted-race variant runs (the expected verdict).
    pub planted: bool,
    /// Problem size.
    pub scale: Scale,
    /// Seed of graphwalk's DAG (unused by the other kernels).
    pub dag_seed: u64,
}

impl Program {
    /// Display name, e.g. `graphwalk` or `futlist+race`.
    pub fn name(&self) -> String {
        let race = if self.planted { "+race" } else { "" };
        format!("{}{race}", self.kernel.name())
    }

    /// The same program at another size.
    pub fn at(&self, scale: Scale) -> Program {
        Program { scale, ..*self }
    }

    /// Runs the program in any task context: the serial executor under any
    /// monitor, or the parallel executor. Sizes match the benchsuite
    /// registry's `Scale::Perf` and `Scale::Tiny`.
    pub fn run<C: TaskCtx>(&self, ctx: &mut C) {
        let tiny = self.scale == Scale::Tiny;
        macro_rules! params {
            ($p:ty) => {
                if tiny {
                    <$p>::tiny()
                } else {
                    <$p>::scaled()
                }
            };
        }
        let planted = self.planted;
        match self.kernel {
            Kernel::Jacobi => {
                jacobi::jacobi_run(ctx, &params!(jacobi::JacobiParams), planted);
            }
            Kernel::Sor => {
                sor::sor_run(ctx, &params!(sor::SorParams), planted);
            }
            Kernel::SmithWaterman => {
                smithwaterman::sw_run(ctx, &params!(smithwaterman::SwParams), planted);
            }
            Kernel::Crypt => {
                assert!(!planted, "crypt has no planted-race variant");
                crypt::crypt_run(
                    ctx,
                    &params!(crypt::CryptParams),
                    crypt::CryptVariant::Future,
                );
            }
            Kernel::SeriesFuture => {
                assert!(!planted, "series_future has no planted-race variant");
                let p = if tiny {
                    series::SeriesParams::tiny()
                } else {
                    series::SeriesParams::perf()
                };
                series::series_future(ctx, &p);
            }
            Kernel::ProdCons => {
                prodcons::prodcons_run(ctx, &params!(prodcons::ProdConsParams), planted);
            }
            Kernel::FutList => {
                futlist::futlist_run(ctx, &params!(futlist::FutListParams), planted);
            }
            Kernel::FutTree => {
                futtree::futtree_run(ctx, &params!(futtree::FutTreeParams), planted);
            }
            Kernel::GraphWalk => {
                let p = graphwalk::GraphWalkParams {
                    seed: self.dag_seed,
                    ..params!(graphwalk::GraphWalkParams)
                };
                graphwalk::graphwalk_run(ctx, &p, planted);
            }
            Kernel::Actor => {
                actor::actor_run(ctx, &params!(actor::ActorParams), planted);
            }
            Kernel::Pipeline => {
                pipeline::pipeline_run(ctx, &params!(pipeline::PipelineParams), planted);
            }
        }
    }
}

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Loop-structured programs through `Analyze::program`.
    Loop,
    /// Future-structured programs, clean and planted, through
    /// `Analyze::program`.
    Futures,
    /// Loop programs and graphwalk through `Analyze::program_parallel`.
    Online,
    /// Framed traces fed chunk by chunk into a checkpointing session.
    Stream,
}

impl WorkloadKind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Loop,
        WorkloadKind::Futures,
        WorkloadKind::Online,
        WorkloadKind::Stream,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Loop => "loop",
            WorkloadKind::Futures => "futures",
            WorkloadKind::Online => "online",
            WorkloadKind::Stream => "stream",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..(i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The programs `kind` checks, generated from `seed`: the seed sets
/// graphwalk's DAG and the order programs run in within a round.
///
/// Every future-structured kernel runs both clean and planted. Planting
/// only a seed-chosen subset made the workload's cost depend on which
/// kernels were drawn (a planted kernel pays for race reports, and their
/// cost differs widely between kernels), so that runs with different seeds
/// measured different workloads.
pub fn programs(kind: WorkloadKind, seed: u64, scale: Scale) -> Vec<Program> {
    let mut rng = Rng::seeded(seed);
    let dag_seed = rng.next_u64();
    let clean = |kernel| Program {
        kernel,
        planted: false,
        scale,
        dag_seed,
    };
    let mut out: Vec<Program> = match kind {
        WorkloadKind::Loop => [
            Kernel::Jacobi,
            Kernel::Sor,
            Kernel::SmithWaterman,
            Kernel::Crypt,
            Kernel::SeriesFuture,
        ]
        .map(clean)
        .to_vec(),
        WorkloadKind::Futures => [
            Kernel::ProdCons,
            Kernel::FutList,
            Kernel::FutTree,
            Kernel::GraphWalk,
            Kernel::Actor,
            Kernel::Pipeline,
        ]
        .into_iter()
        .flat_map(|k| {
            [
                clean(k),
                Program {
                    planted: true,
                    ..clean(k)
                },
            ]
        })
        .collect(),
        WorkloadKind::Online => [
            Kernel::Jacobi,
            Kernel::Sor,
            Kernel::SmithWaterman,
            Kernel::Crypt,
            Kernel::GraphWalk,
        ]
        .map(clean)
        .to_vec(),
        WorkloadKind::Stream => [Kernel::Jacobi, Kernel::GraphWalk].map(clean).to_vec(),
    };
    shuffle(&mut rng, &mut out);
    out
}

/// Index, in the access stream, of the earliest access that completes a
/// racing pair according to the transitive-closure oracle.
fn oracle_first_race(g: &CompGraph) -> Option<u64> {
    let reach = Reachability::build(g);
    g.accesses.iter().enumerate().find_map(|(j, b)| {
        g.accesses[..j]
            .iter()
            .any(|a| {
                a.loc == b.loc
                    && (a.is_write || b.is_write)
                    && a.step != b.step
                    && reach.parallel(a.step, b.step)
            })
            .then_some(j as u64)
    })
}

/// Checks `program` at tiny size against `compgraph::oracle`: the oracle
/// must agree with the program's construction (a race iff planted), and
/// the detector must report its first race at exactly the access the
/// oracle names. Returns a description of any disagreement.
pub fn oracle_cross_check(program: &Program) -> Result<(), String> {
    let tiny = program.at(Scale::Tiny);
    let mut builder = GraphBuilder::new();
    run_serial(&mut builder, |ctx| tiny.run(ctx));
    let truth = oracle_first_race(&builder.into_graph());
    if truth.is_some() != tiny.planted {
        return Err(format!(
            "{}: oracle says races={} but the program was built with planted={}",
            tiny.name(),
            truth.is_some(),
            tiny.planted
        ));
    }
    let report = Analyze::program(|ctx| tiny.run(ctx))
        .run()
        .map_err(|e| format!("{}: tiny check failed: {e}", tiny.name()))?
        .races;
    let got = report.first().map(|r| r.access_index);
    if got != truth {
        return Err(format!(
            "{}: detector's first race at access {got:?}, oracle's at {truth:?}",
            tiny.name()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_follow_the_seed() {
        let names = |kind, seed| -> Vec<String> {
            programs(kind, seed, Scale::Tiny)
                .iter()
                .map(Program::name)
                .collect()
        };
        for kind in WorkloadKind::ALL {
            assert_eq!(names(kind, 7), names(kind, 7), "{kind:?}");
        }
        assert!(
            (2..40).any(|s| names(WorkloadKind::Futures, s) != names(WorkloadKind::Futures, 1)),
            "the order must depend on the seed"
        );
        let futures = programs(WorkloadKind::Futures, 3, Scale::Tiny);
        assert_eq!(futures.iter().filter(|p| p.planted).count(), 6);
        let dag = |seed| programs(WorkloadKind::Stream, seed, Scale::Tiny)[0].dag_seed;
        assert_ne!(dag(1), dag(2));
    }

    #[test]
    fn every_program_agrees_with_the_oracle_at_tiny_size() {
        for kind in WorkloadKind::ALL {
            for p in programs(kind, 11, Scale::Tiny) {
                oracle_cross_check(&p).unwrap();
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for kind in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::parse("nope"), None);
    }
}
