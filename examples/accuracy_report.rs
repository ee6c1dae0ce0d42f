//! Per-function stack-recovery accuracy (a miniature of the paper's
//! Fig. 7 evaluation), comparing WYTIWYG's recovered layouts against the
//! compiler's ground-truth frame layouts.
//!
//! ```sh
//! cargo run --release --example accuracy_report [benchmark]
//! ```

use wyt_core::{evaluate_accuracy, recompile, MatchKind, Mode, Request};
use wyt_minicc::{compile, Profile};
use wyt_spec::by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "astar".to_string());
    let bench = by_name(&name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let profile = Profile::gcc44_o3();
    println!("accuracy report: {} under {}", bench.name, profile.name);

    // Keep the unstripped image: it carries the ground-truth sidecar
    // (LLVM's Stack Frame Layout analogue). The recompiler gets the
    // stripped copy only.
    let full = compile(bench.source, &profile)?;
    let out = recompile(&Request::new(&full.stripped(), &bench.trace_inputs(), Mode::Wytiwyg))?;

    let report = evaluate_accuracy(
        &full,
        &out.lifted_meta,
        out.layout.as_ref().expect("layouts"),
        out.bounds.as_ref().expect("bounds"),
        out.fold.as_ref().expect("fold"),
    );

    for f in &report.funcs {
        if f.objects.is_empty() {
            continue;
        }
        println!("\n{} ({} recovered variables)", f.name, f.recovered);
        for (obj, kind) in &f.objects {
            let tag = match kind {
                MatchKind::Matched => "matched   ",
                MatchKind::Oversized => "oversized ",
                MatchKind::Undersized => "undersized",
                MatchKind::Missed => "missed    ",
            };
            println!("  [{tag}] {obj}");
        }
    }

    let (m, o, u, x) = report.ratios();
    println!("\nobjects: {}", report.total());
    println!(
        "matched {:.1}%  oversized {:.1}%  undersized {:.1}%  missed {:.1}%",
        m * 100.0,
        o * 100.0,
        u * 100.0,
        x * 100.0
    );
    println!(
        "precision {:.1}%  recall {:.1}%",
        report.precision() * 100.0,
        report.recall() * 100.0
    );
    Ok(())
}
