//! Ablation study: separate what *recovery* buys from what the unlocked
//! *optimizations* buy (a design-choice breakdown the paper motivates in
//! §2.1/§2.2 but does not tabulate).
//!
//! Four pipelines per benchmark, all normalized to the native input
//! binary:
//!
//! 1. `nosym+clean`  — lift, arithmetic cleanup only (no alias-based opt);
//! 2. `nosym+full`   — lift + the full optimizer (the BinRec baseline:
//!    everything the optimizer can do *without* symbols);
//! 3. `wyt+clean`    — all WYTIWYG refinements and symbolization, but only
//!    arithmetic cleanup afterwards (recovery without exploitation);
//! 4. `wyt+full`     — the complete system.
//!
//! ```sh
//! cargo run --release -p wyt-bench --bin ablation [profile]
//! ```

use wyt_bench::{build_input, emit_bench_json, geomean, native_cycles, ratio_json, timed_grid};
use wyt_core::{recompile, validate, Mode, Request};
use wyt_emu::run_image;
use wyt_minicc::Profile;
use wyt_obs::Json;
use wyt_opt::OptLevel;

fn main() {
    wyt_obs::set_enabled(true);
    let _trace = wyt_obs::trace::flush_guard_from_env();
    wyt_bench::reset_degradations();
    wyt_bench::reset_healing();
    let mut rows_json: Vec<Json> = Vec::new();
    let profile = match std::env::args().nth(1).as_deref() {
        Some("gcc12") | None => Profile::gcc12_o0(),
        Some("gcc44") => Profile::gcc44_o3(),
        Some(other) => {
            eprintln!("unknown profile `{other}` (use gcc12 | gcc44)");
            std::process::exit(1);
        }
    };
    let variants = [
        (Mode::NoSymbolize, OptLevel::Clean),
        (Mode::NoSymbolize, OptLevel::Full),
        (Mode::Wytiwyg, OptLevel::Clean),
        (Mode::Wytiwyg, OptLevel::Full),
    ];
    let variant_names = ["nosym+clean", "nosym+full", "wyt+clean", "wyt+full"];
    let suite = wyt_spec::suite();

    // One job per benchmark row: the input binary is built (and its
    // native cycles measured) once, then all four pipeline variants run
    // against it.
    let (measured, par) = timed_grid(&suite, |_, bench| {
        let img = build_input(bench, &profile);
        let native = native_cycles(&img, bench);
        let cells: Vec<Result<f64, String>> = variants
            .iter()
            .map(|(mode, opt)| {
                let stripped = img.stripped();
                let inputs = bench.trace_inputs();
                let req = Request { opt: *opt, ..Request::new(&stripped, &inputs, *mode) };
                let out = recompile(&req).map_err(|e| e.to_string())?;
                validate(&stripped, &out.image, &inputs).map_err(|e| e.to_string())?;
                let r = run_image(&out.image, bench.ref_input());
                if !r.ok() {
                    return Err(format!("{:?}", r.trap));
                }
                Ok(r.cycles as f64 / native as f64)
            })
            .collect();
        cells
    });

    println!("Ablation: contribution of recovery vs. unlocked optimization");
    println!("(inputs: {}; ratios to native; lower is better)\n", profile.name);
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "benchmark", "nosym+clean", "nosym+full", "wyt+clean", "wyt+full"
    );
    println!("{}", "-".repeat(66));

    let mut geo = vec![Vec::new(); variants.len()];
    for (bench, row) in suite.iter().zip(&measured) {
        let mut cells = Vec::new();
        let mut cells_json = Vec::new();
        for (k, cell) in row.iter().enumerate() {
            match cell {
                Ok(x) => {
                    let x = *x;
                    geo[k].push(x);
                    cells.push(format!("{x:.2}"));
                    cells_json.push((variant_names[k], ratio_json(Some(x))));
                }
                Err(_) => {
                    cells.push("—".into());
                    cells_json.push((variant_names[k], Json::Null));
                }
            }
        }
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>12}",
            bench.name, cells[0], cells[1], cells[2], cells[3]
        );
        let mut fields = vec![("benchmark", Json::from(bench.name))];
        fields.extend(cells_json);
        rows_json.push(Json::obj(fields));
    }
    println!("{}", "-".repeat(66));
    print!("{:<12}", "geomean");
    for g in &geo {
        print!(" {:>12.2}", geomean(g));
    }
    println!();
    println!("\nReading: wyt+clean vs nosym+clean isolates symbolization's direct");
    println!("effect (two-stack overhead removed); wyt+full vs wyt+clean is the");
    println!("alias-analysis dividend the paper's §2 argues symbolization unlocks.");

    let body =
        Json::obj(vec![("profile", Json::from(profile.name)), ("rows", Json::Arr(rows_json))]);
    let path = emit_bench_json("ablation", body, &par);
    println!("\nwrote {}", path.display());
}
