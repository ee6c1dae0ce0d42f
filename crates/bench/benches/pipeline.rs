//! Micro-benchmarks of the recompilation pipeline itself: how long
//! tracing, lifting, the refinements, and the full recompilation take on
//! a representative workload. (The paper's tables measure the *product*;
//! these measure the *toolchain*, and gate regressions in it.)
//!
//! Run with `cargo bench -p wyt-bench`. Uses the in-tree harness in
//! `wyt_bench::timing` — no external benchmarking dependencies.

use wyt_bench::timing::Bencher;
use wyt_core::{recompile, Mode, Request};
use wyt_lifter::lift_image;
use wyt_minicc::{compile, Profile};

fn main() {
    let b = Bencher::default();
    let report = |s: wyt_bench::timing::Sample| println!("{}", s.row());

    let bench = wyt_spec::by_name("sjeng").expect("suite");
    let img = compile(bench.source, &Profile::gcc44_o3()).unwrap().stripped();
    let inputs = bench.train_inputs();

    report(b.measure("trace_and_lift", || lift_image(&img, &inputs).unwrap()));
    report(b.measure("recompile_nosymbolize", || {
        recompile(&Request::new(&img, &inputs, Mode::NoSymbolize)).unwrap()
    }));
    report(b.measure("recompile_wytiwyg", || {
        recompile(&Request::new(&img, &inputs, Mode::Wytiwyg)).unwrap()
    }));

    let small = compile("int main() { return 7; }", &Profile::gcc12_o3()).unwrap().stripped();
    report(b.measure("recompile_minimal", || {
        recompile(&Request::new(&small, &[vec![]], Mode::Wytiwyg)).unwrap()
    }));

    let bench = wyt_spec::by_name("bzip2").expect("suite");
    let img = compile(bench.source, &Profile::gcc12_o3()).unwrap();
    let input = bench.train_inputs().remove(0);
    report(b.measure("emulate_bzip2_train", || {
        let r = wyt_emu::run_image(&img, input.clone());
        assert!(r.ok());
        r.cycles
    }));
}
