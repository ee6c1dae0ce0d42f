//! Regenerates the paper's **Figure 7**: per-benchmark ratios of
//! ground-truth stack objects recovered as matched / oversized /
//! undersized / missed, plus overall precision and recall (the paper
//! reports 94.4% / 87.6%).
//!
//! Ground truth comes from the compiler's frame-layout sidecar (the
//! analogue of LLVM 16's Stack Frame Layout analysis); the recompiler
//! itself only ever sees stripped binaries.
//!
//! ```sh
//! cargo run --release -p wyt-bench --bin figure7
//! ```

use wyt_bench::{emit_bench_json, timed_grid};
use wyt_core::{evaluate_accuracy, recompile, MatchKind, Mode, Request};
use wyt_minicc::{compile, Profile};
use wyt_obs::Json;

/// Accuracy counts for one benchmark — everything the table and the
/// overall precision/recall need.
#[derive(PartialEq)]
struct Acc {
    objects: usize,
    matched: usize,
    recovered: usize,
    recovered_matched: usize,
    ratios: (f64, f64, f64, f64),
}

fn main() {
    wyt_obs::set_enabled(true);
    let _trace = wyt_obs::trace::flush_guard_from_env();
    wyt_bench::reset_degradations();
    wyt_bench::reset_healing();
    let mut rows_json: Vec<Json> = Vec::new();
    let profile = Profile::gcc44_o3();
    let suite = wyt_spec::suite();

    // One job per benchmark: a full Wytiwyg recompile plus the accuracy
    // evaluation against the compiler's frame-layout sidecar.
    let (accs, par) = timed_grid(&suite, |_, bench| {
        let full =
            compile(bench.source, &profile).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let out = recompile(&Request::new(&full.stripped(), &bench.trace_inputs(), Mode::Wytiwyg))
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let report = evaluate_accuracy(
            &full,
            &out.lifted_meta,
            out.layout.as_ref().unwrap(),
            out.bounds.as_ref().unwrap(),
            out.fold.as_ref().unwrap(),
        );
        let (recovered, recovered_matched) = report
            .funcs
            .iter()
            .fold((0, 0), |(r, rm), f| (r + f.recovered, rm + f.recovered_matched));
        Acc {
            objects: report.total(),
            matched: report.count(MatchKind::Matched),
            recovered,
            recovered_matched,
            ratios: report.ratios(),
        }
    });

    println!("Figure 7: stack-recovery accuracy per benchmark ({})\n", profile.name);
    println!(
        "{:<12} {:>8} {:>9} {:>10} {:>11} {:>8}",
        "benchmark", "objects", "matched", "oversized", "undersized", "missed"
    );
    println!("{}", "-".repeat(64));

    let mut total = 0usize;
    let mut matched = 0usize;
    let mut recovered = 0usize;
    let mut recovered_matched = 0usize;

    for (bench, acc) in suite.iter().zip(&accs) {
        let (m, o, u, x) = acc.ratios;
        println!(
            "{:<12} {:>8} {:>8.1}% {:>9.1}% {:>10.1}% {:>7.1}%",
            bench.name,
            acc.objects,
            m * 100.0,
            o * 100.0,
            u * 100.0,
            x * 100.0
        );
        total += acc.objects;
        matched += acc.matched;
        recovered += acc.recovered;
        recovered_matched += acc.recovered_matched;
        rows_json.push(Json::obj(vec![
            ("benchmark", Json::from(bench.name)),
            ("objects", Json::from(acc.objects as u64)),
            ("matched", Json::from(m)),
            ("oversized", Json::from(o)),
            ("undersized", Json::from(u)),
            ("missed", Json::from(x)),
        ]));
    }

    println!("{}", "-".repeat(64));
    let precision = if recovered == 0 { 1.0 } else { recovered_matched as f64 / recovered as f64 };
    let recall = if total == 0 { 1.0 } else { matched as f64 / total as f64 };
    println!(
        "overall: {} ground-truth objects, precision {:.1}%, recall {:.1}%",
        total,
        precision * 100.0,
        recall * 100.0
    );
    println!("paper:   precision 94.4%, recall 87.6%");

    let body = Json::obj(vec![
        ("benchmarks", Json::Arr(rows_json)),
        ("precision", Json::from(precision)),
        ("recall", Json::from(recall)),
    ]);
    let path = emit_bench_json("figure7", body, &par);
    println!("\nwrote {}", path.display());
}
