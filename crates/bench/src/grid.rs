//! The evaluation's job grid. Table 1 and Figures 6–7 and the ablation
//! all read cells of one grid: one job per (benchmark, profile) pair,
//! which compiles the input binary once and runs only the pipelines the
//! selected tables read. Every recompile the evaluation needs therefore
//! runs exactly once, however many tables read it.

use crate::{note_degradations, note_healing, timed_grid, ParMeta};
use std::collections::BTreeMap;
use wyt_core::{
    evaluate_accuracy, recompile, recompile_secondwrite, MatchKind, Mode, Recompiled, Request,
};
use wyt_emu::run_image;
use wyt_isa::image::Image;
use wyt_minicc::{compile, Profile};
use wyt_obs::Span;
use wyt_opt::OptLevel;
use wyt_spec::Benchmark;

/// One way of running a benchmark's input binary, in the order a job
/// runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pipeline {
    /// The input binary itself.
    Native,
    /// Recompiled without symbolization, full optimizer (the BinRec
    /// baseline).
    NoSym,
    /// Full WYTIWYG; also scores stack-recovery accuracy.
    Wyt,
    /// No symbolization, arithmetic cleanup only.
    NoSymClean,
    /// All WYTIWYG refinements, arithmetic cleanup only.
    WytClean,
    /// The SecondWrite-style static baseline.
    SecondWrite,
}

/// A table or figure of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// Paper Table 1: recompiled runtime over the input binary's.
    Table1,
    /// Paper Figure 6: runtimes over native GCC 12.2 -O3.
    Figure6,
    /// Paper Figure 7: stack-recovery accuracy on GCC 4.4 -O3.
    Figure7,
    /// Recovery vs. unlocked optimization on GCC 12.2 -O0.
    Ablation,
}

impl Table {
    /// Every table, in rendering order.
    pub const ALL: [Table; 4] = [Table::Table1, Table::Figure6, Table::Figure7, Table::Ablation];

    /// The selection argument and `BENCH_<name>.json` / JSON key name.
    pub fn name(self) -> &'static str {
        match self {
            Table::Table1 => "table1",
            Table::Figure6 => "figure6",
            Table::Figure7 => "figure7",
            Table::Ablation => "ablation",
        }
    }

    /// The file the rendered table is written to.
    pub fn txt_file(self) -> String {
        match self {
            Table::Ablation => "ablation_gcc12_o0.txt".into(),
            _ => format!("{}.txt", self.name()),
        }
    }

    /// The table named `name`, if any.
    pub fn parse(name: &str) -> Option<Table> {
        Table::ALL.into_iter().find(|t| t.name() == name)
    }

    /// The pipelines this table reads from each benchmark's job under
    /// `profile`.
    pub fn reads(self, profile: &Profile) -> &'static [Pipeline] {
        use Pipeline::*;
        let nopic = *profile == Profile::gcc44_o3_nopic();
        match self {
            Table::Table1 | Table::Figure6 if nopic => &[Native, SecondWrite],
            Table::Table1 => &[Native, NoSym, Wyt],
            Table::Figure6 => &[Native, Wyt],
            Table::Figure7 if *profile == Profile::gcc44_o3() => &[Wyt],
            Table::Ablation if *profile == Profile::gcc12_o0() => {
                &[Native, NoSym, Wyt, NoSymClean, WytClean]
            }
            Table::Figure7 | Table::Ablation => &[],
        }
    }
}

/// Every profile the evaluation compiles with: Table 1's four plus the
/// non-PIC legacy build SecondWrite needs.
pub fn profiles() -> Vec<Profile> {
    let mut all = Profile::table1();
    all.push(Profile::gcc44_o3_nopic());
    all
}

/// One (benchmark, profile) pair and the pipelines to run on it.
#[derive(Debug)]
pub struct Job {
    /// Index into [`wyt_spec::suite`].
    pub bench: usize,
    /// Compiler profile of the input binary.
    pub profile: Profile,
    /// Pipelines to run, sorted and distinct.
    pub pipelines: Vec<Pipeline>,
}

/// The unique jobs behind `tables`, benchmark-major in [`profiles`]
/// order; pairs no selected table reads are left out.
pub fn jobs(tables: &[Table]) -> Vec<Job> {
    let profiles = profiles();
    (0..wyt_spec::suite().len())
        .flat_map(|bench| {
            profiles.iter().filter_map(move |profile| {
                let mut pipelines: Vec<Pipeline> =
                    tables.iter().flat_map(|t| t.reads(profile)).copied().collect();
                pipelines.sort();
                pipelines.dedup();
                (!pipelines.is_empty()).then(|| Job { bench, profile: profile.clone(), pipelines })
            })
        })
        .collect()
}

/// Stack-recovery accuracy counts of one WYTIWYG recompile — what
/// Figure 7's rows and its overall precision and recall need.
#[derive(Debug, Clone, PartialEq)]
pub struct Accuracy {
    /// Ground-truth stack objects in traced functions.
    pub objects: usize,
    /// Objects recovered exactly.
    pub matched: usize,
    /// Recovered variables.
    pub recovered: usize,
    /// Recovered variables that match an object.
    pub recovered_matched: usize,
    /// Matched / oversized / undersized / missed shares of `objects`.
    pub ratios: (f64, f64, f64, f64),
}

impl Accuracy {
    /// Score `out` against the compiler's frame-layout sidecar in the
    /// unstripped `ground_truth` image.
    fn of(ground_truth: &Image, out: &Recompiled) -> Accuracy {
        let missing = "a Wytiwyg recompile carries its refinement results";
        let report = evaluate_accuracy(
            ground_truth,
            &out.lifted_meta,
            out.layout.as_ref().expect(missing),
            out.bounds.as_ref().expect(missing),
            out.fold.as_ref().expect(missing),
        );
        let (recovered, recovered_matched) = report
            .funcs
            .iter()
            .fold((0, 0), |(r, rm), f| (r + f.recovered, rm + f.recovered_matched));
        Accuracy {
            objects: report.total(),
            matched: report.count(MatchKind::Matched),
            recovered,
            recovered_matched,
            ratios: report.ratios(),
        }
    }
}

/// What one job measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Cells {
    /// Ref-input cycles per pipeline run; an `Err` is a failed recompile
    /// (the paper's "—" cells).
    pub cycles: BTreeMap<Pipeline, Result<u64, String>>,
    /// Accuracy of the [`Pipeline::Wyt`] recompile, when it ran and
    /// succeeded.
    pub accuracy: Option<Accuracy>,
}

/// The disjoint spans a job's work runs under, in [`run_job`] order:
/// compiling the input binary, its native ref run, each pipeline call
/// and Figure 7's accuracy scoring. A serial grid's wall time is their
/// sum plus the executor's bookkeeping.
pub const JOB_SPANS: [&str; 4] = ["grid.compile", "grid.native", "grid.recompile", "grid.accuracy"];

/// Run `pipelines` on `bench` compiled under `profile`, under the
/// [`JOB_SPANS`]. A recompile's ref-input cycles come from its
/// pipeline's validation gate, which ran the image on every trace
/// input, the ref input among them, before the pipeline returned it.
pub fn run_job(bench: &Benchmark, profile: &Profile, pipelines: &[Pipeline]) -> Cells {
    let (img, stripped, inputs) = {
        let _s = Span::enter("grid.compile");
        let img = compile(bench.source, profile)
            .unwrap_or_else(|e| panic!("{} under {}: {e}", bench.name, profile.name));
        let stripped = img.stripped();
        (img, stripped, bench.trace_inputs())
    };
    let ref_input = bench.ref_input();
    let run = |mode, opt| {
        let _s = Span::enter("grid.recompile");
        recompile(&Request { opt, ..Request::new(&stripped, &inputs, mode) })
            .map_err(|e| e.to_string())
    };
    let mut accuracy = None;
    let cycles = pipelines
        .iter()
        .map(|&p| {
            let out = match p {
                Pipeline::Native => {
                    let _s = Span::enter("grid.native");
                    let r = run_image(&img, ref_input.clone());
                    assert!(r.ok(), "{}: native trap {:?}", bench.name, r.trap);
                    return (p, Ok(r.cycles));
                }
                Pipeline::NoSym => run(Mode::NoSymbolize, OptLevel::Full),
                Pipeline::Wyt => run(Mode::Wytiwyg, OptLevel::Full),
                Pipeline::NoSymClean => run(Mode::NoSymbolize, OptLevel::Clean),
                Pipeline::WytClean => run(Mode::Wytiwyg, OptLevel::Clean),
                Pipeline::SecondWrite => {
                    let _s = Span::enter("grid.recompile");
                    recompile_secondwrite(&stripped, &inputs).map_err(|e| e.to_string())
                }
            };
            let cycles = out.map(|out| {
                note_degradations(out.report.degradations.len());
                note_healing(&out.report);
                if p == Pipeline::Wyt {
                    let _s = Span::enter("grid.accuracy");
                    accuracy = Some(Accuracy::of(&img, &out));
                }
                let at = out.inputs.iter().position(|i| *i == ref_input);
                out.replay_cycles[at.expect("the ref input is one of the trace inputs")]
            });
            (p, cycles)
        })
        .collect();
    Cells { cycles, accuracy }
}

/// A run grid's measurements and its thread and wall-time record.
pub struct Grid {
    /// Each job's cells by (benchmark index, profile name).
    pub cells: BTreeMap<(usize, &'static str), Cells>,
    /// Timing record for the bench JSON.
    pub par: ParMeta,
}

impl Grid {
    /// Run `jobs` through [`timed_grid`].
    pub fn run(jobs: &[Job]) -> Grid {
        let suite = wyt_spec::suite();
        let (cells, par) =
            timed_grid(jobs, |_, j| run_job(&suite[j.bench], &j.profile, &j.pipelines));
        Grid { cells: jobs.iter().map(|j| (j.bench, j.profile.name)).zip(cells).collect(), par }
    }

    /// Cycles of `p` on benchmark `bench` under `profile` over the native
    /// cycles of its `base` build (`None` for a failed recompile).
    pub fn ratio(
        &self,
        bench: usize,
        profile: &Profile,
        p: Pipeline,
        base: &Profile,
    ) -> Option<f64> {
        let native = *self.cells[&(bench, base.name)].cycles[&Pipeline::Native].as_ref().ok()?;
        let c = *self.cells[&(bench, profile.name)].cycles[&p].as_ref().ok()?;
        Some(c as f64 / native as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every (benchmark, profile, pipeline) triple a job list runs.
    fn triples(jobs: &[Job]) -> Vec<(usize, &'static str, Pipeline)> {
        jobs.iter()
            .flat_map(|j| j.pipelines.iter().map(move |&p| (j.bench, j.profile.name, p)))
            .collect()
    }

    #[test]
    fn full_grid_runs_each_recompile_once() {
        let all = jobs(&Table::ALL);
        assert_eq!(all.len(), 50, "one job per benchmark x profile");
        let t = triples(&all);
        let recompiles = t.iter().filter(|(_, _, p)| *p != Pipeline::Native).count();
        assert_eq!(recompiles, 110);
        assert_eq!(t.iter().filter(|(_, _, p)| *p == Pipeline::Native).count(), 50);
        let distinct: BTreeSet<_> = t.iter().collect();
        assert_eq!(distinct.len(), t.len(), "a (benchmark, profile, pipeline) triple repeats");
    }

    #[test]
    fn figure7_alone_runs_only_gcc44_wytiwyg() {
        let fig7 = jobs(&[Table::Figure7]);
        assert_eq!(fig7.len(), 10);
        for j in &fig7 {
            assert_eq!(j.profile, Profile::gcc44_o3());
            assert_eq!(j.pipelines, [Pipeline::Wyt]);
        }
    }

    #[test]
    fn every_table_reads_a_subset_of_the_full_grid() {
        let full: BTreeSet<_> = triples(&jobs(&Table::ALL)).into_iter().collect();
        for t in Table::ALL {
            let own = triples(&jobs(&[t]));
            assert!(!own.is_empty(), "{} selects nothing", t.name());
            assert!(own.iter().all(|x| full.contains(x)), "{} reads outside the grid", t.name());
        }
    }

    #[test]
    fn table_names_round_trip() {
        for t in Table::ALL {
            assert_eq!(Table::parse(t.name()), Some(t));
        }
        assert_eq!(Table::parse("gcc44"), None);
    }
}
