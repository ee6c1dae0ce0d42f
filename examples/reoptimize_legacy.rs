//! Re-optimizing a legacy binary (the paper's headline use case).
//!
//! Takes one of the SPEC-shaped benchmarks as built by a 2009-era
//! compiler (GCC 4.4 -O3), recompiles it with and without symbolization,
//! and reports normalized runtimes — a single row of the paper's Table 1.
//!
//! ```sh
//! cargo run --release --example reoptimize_legacy [benchmark]
//! ```

use wyt_core::{recompile, validate, Mode, Request};
use wyt_emu::run_image;
use wyt_minicc::{compile, Profile};
use wyt_spec::by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "sjeng".to_string());
    let bench = by_name(&name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    println!("benchmark: {} (GCC 4.4 -O3 input binary)", bench.name);

    let profile = Profile::gcc44_o3();
    let image = compile(bench.source, &profile)?.stripped();
    let trace_inputs = bench.trace_inputs();
    let ref_input = bench.ref_input();

    let native = run_image(&image, ref_input.clone());
    assert!(native.ok());
    println!("native cycles:        {:>12}", native.cycles);

    // BinRec-style recompilation (no symbolization).
    let nosym = recompile(&Request::new(&image, &trace_inputs, Mode::NoSymbolize))?;
    validate(&image, &nosym.image, &trace_inputs).map_err(|e| format!("nosym: {e}"))?;
    let r0 = run_image(&nosym.image, ref_input.clone());
    println!(
        "no-symbolize cycles:  {:>12}  ({:.2}x of native)",
        r0.cycles,
        r0.cycles as f64 / native.cycles as f64
    );

    // Full WYTIWYG.
    let wyt = recompile(&Request::new(&image, &trace_inputs, Mode::Wytiwyg))?;
    validate(&image, &wyt.image, &trace_inputs).map_err(|e| format!("wytiwyg: {e}"))?;
    let r1 = run_image(&wyt.image, ref_input);
    println!(
        "wytiwyg cycles:       {:>12}  ({:.2}x of native)",
        r1.cycles,
        r1.cycles as f64 / native.cycles as f64
    );

    if r1.cycles < native.cycles {
        println!(
            "\nlegacy binary reoptimized: {:.2}x speedup over the original",
            native.cycles as f64 / r1.cycles as f64
        );
    } else {
        println!(
            "\nno speedup on this benchmark ({:.2}x)",
            native.cycles as f64 / r1.cycles as f64
        );
    }
    Ok(())
}
