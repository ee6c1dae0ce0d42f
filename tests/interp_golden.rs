//! Exactness pins for the IR interpreter and the two refinement replays
//! that run on it. The replays' facts decide every recovered layout, so
//! any change to the interpreter's step loop or to the regsave and bounds
//! hooks must leave them identical: exit code, steps, loads, stores and
//! output of the lifted cold-suite programs on every trace input, and a
//! digest of each program's `RegSaveInfo` and `BoundsInfo`.
//!
//! On a mismatch the assertion prints the whole table as computed, in the
//! form of the constants below.

use std::collections::BTreeSet;
use wyt_core::{regsave, runtime, spfold, vararg};
use wyt_ir::interp::{Interp, NoHooks};
use wyt_lifter::lift_image;
use wyt_minicc::{compile, Profile};

/// The cold-suite programs of the benchmark.
const SUITE: [&str; 5] = ["mcf", "gobmk", "bzip2", "xalancbmk", "gcc"];

/// `(program, input index, exit_code, steps, loads, stores, FNV-1a of
/// the output)` for the lifted GCC 12 -O3 build of each [`SUITE`]
/// program on each of its trace inputs.
type RunRow = (&'static str, usize, i32, u64, u64, u64, u64);

/// `(program, FNV-1a of the sorted RegSaveInfo, FNV-1a of the sorted
/// BoundsInfo)`.
type FactRow = (&'static str, u64, u64);

const RUNS: &[RunRow] = &[
    ("mcf", 0, 113, 3613599, 1548206, 1214350, 10377348600500873910),
    ("mcf", 1, 47, 3610406, 1546867, 1213320, 10171459410471999942),
    ("mcf", 2, 26, 3611243, 1547218, 1213590, 4414972843013854466),
    ("gobmk", 0, 98, 793783, 322499, 222184, 1647617833860383556),
    ("gobmk", 1, 98, 793783, 322499, 222184, 1647617833860383556),
    ("gobmk", 2, 98, 793783, 322499, 222184, 1647617833860383556),
    ("bzip2", 0, 37, 1011155, 421586, 264682, 3626966388782963462),
    ("bzip2", 1, 105, 1055922, 440567, 276467, 9911027955166834349),
    ("bzip2", 2, 27, 7027499, 2959407, 1827842, 7173144380085661293),
    ("xalancbmk", 0, 32, 589219, 240796, 206454, 5288046745215557972),
    ("xalancbmk", 1, 88, 544571, 222049, 190991, 7909199569501130702),
    ("xalancbmk", 2, 80, 2566841, 1059622, 894498, 12018229459486841545),
    ("gcc", 0, 70, 112456, 44273, 37320, 10880099478083132938),
    ("gcc", 1, 78, 112795, 44316, 37359, 14728539792591858855),
    ("gcc", 2, 44, 927157, 364508, 307189, 17174144261127767746),
];

const FACTS: &[FactRow] = &[
    ("mcf", 12336648860120104081, 8691387988957459626),
    ("gobmk", 16245505351388463184, 13780972183644265138),
    ("bzip2", 7884833026307141936, 16346928891933268108),
    ("xalancbmk", 15161289702126101261, 7468590985647537962),
    ("gcc", 2147553855301950062, 18109259834606172627),
];

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Both infos hold `HashMap`s: digest their entries in key order.
fn regsave_digest(info: &regsave::RegSaveInfo) -> u64 {
    let mut class: Vec<_> = info.class.iter().collect();
    class.sort_by_key(|(f, _)| **f);
    let mut targets: Vec<_> = info.indirect_targets.iter().collect();
    targets.sort_by_key(|(k, _)| **k);
    fnv1a(FNV_OFFSET, format!("{class:?}{targets:?}").as_bytes())
}

fn bounds_digest(info: &runtime::BoundsInfo) -> u64 {
    let mut vars: Vec<_> = info.vars.iter().collect();
    vars.sort_by_key(|(k, _)| **k);
    let mut calls: Vec<_> = info.callsite_args.iter().collect();
    calls.sort_by_key(|(k, _)| **k);
    let text = format!("{vars:?}{:?}{calls:?}{:?}", info.links, info.entered);
    fnv1a(FNV_OFFSET, text.as_bytes())
}

#[test]
fn suite_replays_match_pinned_counts_and_facts() {
    let (mut runs, mut facts) = (Vec::new(), Vec::new());
    for name in SUITE {
        let bench = wyt_spec::by_name(name).expect("suite program");
        let img = compile(bench.source, &Profile::gcc12_o3()).expect("suite program compiles");
        let inputs = bench.trace_inputs();
        let lifted = lift_image(&img.stripped(), &inputs).expect("suite program lifts");
        for (i, input) in inputs.iter().enumerate() {
            let mut interp = Interp::new(&lifted.module, input.clone(), NoHooks);
            let out = interp.run();
            assert!(out.ok(), "{name} input {i}: {:?}", out.error);
            runs.push((
                name,
                i,
                out.exit_code,
                out.steps,
                interp.loads(),
                interp.stores(),
                fnv1a(FNV_OFFSET, &out.output),
            ));
        }

        // The refinement stages as the pipeline runs them, undemoted.
        let mut module = lifted.module;
        vararg::apply(&mut module, &vararg::from_trace(&lifted.trace, &lifted.meta));
        let reginfo = regsave::analyze(&module, &lifted.meta, &inputs).expect("regsave replay");
        let none = BTreeSet::new();
        spfold::insert_save_restore(&mut module, &lifted.meta, &reginfo, &none);
        let (fold, errs) = spfold::fold(&mut module, &lifted.meta, &reginfo, &none);
        assert!(errs.is_empty(), "{name} folds: {errs:?}");
        let bounds = runtime::trace_bounds(&module, &fold, &inputs).expect("bounds replay");
        facts.push((name, regsave_digest(&reginfo), bounds_digest(&bounds)));
    }
    let run_table: String = runs.iter().map(|r| format!("    {r:?},\n")).collect();
    let fact_table: String = facts.iter().map(|r| format!("    {r:?},\n")).collect();
    assert!(
        runs == RUNS && facts == FACTS,
        "interpreter counts or refinement facts drifted; computed:\nRUNS\n{run_table}FACTS\n{fact_table}"
    );
}
