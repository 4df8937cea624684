//! The Table-2 benchmark suite and workload generators.
//!
//! One module per benchmark of the paper's evaluation (§5), each ported
//! with the same task decomposition as the original so the structural
//! columns of Table 2 (#Tasks, #NTJoins, #SharedMem shape, #AvgReaders
//! behaviour) are reproduced:
//!
//! | module | origin | parallel structure |
//! |---|---|---|
//! | [`series`] | JGF Fourier coefficient analysis | one task per coefficient; af + future variants |
//! | [`crypt`] | JGF IDEA encryption | one task per 8-byte block, encrypt + decrypt passes; af + future variants |
//! | [`jacobi`] | Kastors 2D 5-point stencil (OpenMP `depends` → futures) | one future per tile per sweep, gets on the 5 neighbour tiles of the previous sweep |
//! | [`smithwaterman`] | COMP322 sequence alignment | tiled wavefront DP, gets on left/up/up-left tiles |
//! | [`strassen`] | Kastors Strassen multiply | 7 multiply futures + 4 combine futures per recursion node |
//!
//! Every benchmark provides a plain-Rust **reference implementation** (the
//! serial elision, used for the Seq column and correctness checking), the
//! DSL program generic over [`futrace_runtime::TaskCtx`], paper-scale and
//! laptop-scale parameter sets, and — for the test suite — a `plant_race`
//! switch that removes one synchronization edge to create a known race.
//!
//! Two extension workloads beyond Table 2 stress richer dependence
//! patterns: [`lu`] (blocked LU with three-way block dependences, the
//! densest joins-per-task ratio) and [`pipeline`] (long non-tree-join
//! chains).
//!
//! [`randomprog`] generates seeded random async/finish/future programs
//! with realizable handle flow; the property-test suites use it to compare
//! the DTRG detector against the transitive-closure oracle, the ablation
//! benches use it to sweep non-tree-join density, and the differential
//! fuzzer (`futrace_bench::fuzzdiff`) uses its future-heavy presets.
//!
//! Four future-structured families stress join structure that is *not*
//! series-parallel — the regime the DTRG detector exists for (§4):
//! [`prodcons`] (bounded-buffer producer–consumer, slot-free edges
//! pointing downstream), [`futlist`] (future-linked lists, depth-`n`
//! sibling get chains), [`futtree`] (bottom-up combine trees living
//! entirely in future edges), [`graphwalk`] (seeded irregular DAGs), and
//! [`actor`] (per-actor mailbox chains braided with response edges).
//!
//! [`registry`] is the workload table driving `tracetool record` and
//! `dtrgperf`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod crypt;
pub mod futlist;
pub mod futtree;
pub mod graphwalk;
pub mod jacobi;
pub mod lu;
pub mod pipeline;
pub mod prodcons;
pub mod randomprog;
pub mod registry;
pub mod series;
pub mod smithwaterman;
pub mod sor;
pub mod strassen;

/// Test helpers that run a kernel under a live detector. This crate sits
/// below the `futrace` umbrella, so it cannot use the `Analyze` builder
/// without a dependency cycle; its tests drive the engine directly
/// instead.
#[cfg(test)]
pub(crate) mod testutil {
    use futrace_detector::{DetectorStats, RaceDetector, RaceReport};
    use futrace_runtime::engine::{run_analysis_live, Engine};
    use futrace_runtime::SerialCtx;

    pub(crate) fn detect_races<F>(f: F) -> RaceReport
    where
        F: FnOnce(&mut SerialCtx<Engine<RaceDetector>>),
    {
        run_analysis_live(f, RaceDetector::new()).report.report
    }

    pub(crate) fn detect_races_with_stats<F>(f: F) -> (RaceReport, DetectorStats)
    where
        F: FnOnce(&mut SerialCtx<Engine<RaceDetector>>),
    {
        let report = run_analysis_live(f, RaceDetector::new()).report;
        (report.report, report.stats)
    }
}
