//! Re-optimizing a legacy binary (the paper's headline use case).
//!
//! Takes one of the SPEC-shaped benchmarks as built by a 2009-era
//! compiler (GCC 4.4 -O3), recompiles it with and without symbolization,
//! and reports normalized runtimes — a single row of the paper's Table 1.
//!
//! ```sh
//! cargo run --release --example reoptimize_legacy [benchmark]
//! ```

use wyt_core::{recompile, Mode, Recompiled, Request};
use wyt_emu::run_image;
use wyt_minicc::{compile, Profile};
use wyt_spec::by_name;

/// Cycles of `out` on `input`, from the pipeline's validation gate:
/// every recompile is run on each traced input before it is returned.
fn gate_cycles(out: &Recompiled, input: &[u8]) -> u64 {
    let at = out.inputs.iter().position(|i| i == input);
    out.replay_cycles[at.expect("`input` is one of the inputs the image was validated on")]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "sjeng".to_string());
    let bench = by_name(&name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    println!("benchmark: {} (GCC 4.4 -O3 input binary)", bench.name);

    let profile = Profile::gcc44_o3();
    let image = compile(bench.source, &profile)?.stripped();
    // The ref input is one of the trace inputs, so each recompiled image
    // is validated on it and its cycles come back with the image.
    let trace_inputs = bench.trace_inputs();
    let ref_input = bench.ref_input();

    let native = run_image(&image, ref_input.clone());
    assert!(native.ok());
    println!("native cycles:        {:>12}", native.cycles);

    // BinRec-style recompilation (no symbolization).
    let nosym = recompile(&Request::new(&image, &trace_inputs, Mode::NoSymbolize))?;
    let c0 = gate_cycles(&nosym, &ref_input);
    println!(
        "no-symbolize cycles:  {:>12}  ({:.2}x of native)",
        c0,
        c0 as f64 / native.cycles as f64
    );

    // Full WYTIWYG.
    let wyt = recompile(&Request::new(&image, &trace_inputs, Mode::Wytiwyg))?;
    let c1 = gate_cycles(&wyt, &ref_input);
    println!(
        "wytiwyg cycles:       {:>12}  ({:.2}x of native)",
        c1,
        c1 as f64 / native.cycles as f64
    );

    if c1 < native.cycles {
        println!(
            "\nlegacy binary reoptimized: {:.2}x speedup over the original",
            native.cycles as f64 / c1 as f64
        );
    } else {
        println!("\nno speedup on this benchmark ({:.2}x)", native.cycles as f64 / c1 as f64);
    }
    Ok(())
}
