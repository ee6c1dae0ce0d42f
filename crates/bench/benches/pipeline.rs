//! Micro-benchmarks of the recompilation pipeline itself: how long
//! tracing, lifting, the refinements, and the full recompilation take on
//! a representative workload. (The paper's tables measure the *product*;
//! these measure the *toolchain*, and gate regressions in it.)
//!
//! Run with `cargo bench -p wyt-bench`. Uses the in-tree harness in
//! `wyt_bench::timing` — no external benchmarking dependencies. A
//! positional argument keeps only the rows whose name contains it:
//! `cargo bench -p wyt-bench -- emu` prints just the emulator's
//! ns-per-step rows, and `-- interp` just the IR interpreter's.

use std::collections::BTreeSet;
use wyt_bench::timing::{Bencher, Sample};
use wyt_core::{recompile, regsave, runtime, spfold, vararg, Mode, Request};
use wyt_ir::interp::{Interp, NoHooks};
use wyt_ir::Module;
use wyt_isa::asm::Asm;
use wyt_isa::image::Image;
use wyt_isa::{AluOp, Cc, Inst, Mem, Operand, Reg, Size};
use wyt_lifter::lift_image;
use wyt_minicc::{compile, Profile};

/// The cold-suite programs of `wyt-benchmark`, whose emulator time the
/// `emu_*` rows break down per guest instruction, and whose refinement
/// replays the `interp_*` rows break down per interpreter step.
const SUITE: [&str; 5] = ["mcf", "gobmk", "bzip2", "xalancbmk", "gcc"];

/// Iterations of each emulator micro-loop (4–6 guest instructions each).
const LOOP_ITERS: i32 = 1_000_000;

fn main() {
    let b = Bencher::default();
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let filter = filter.as_deref();
    let report = |s: Option<Sample>| s.into_iter().for_each(|s| println!("{}", s.row()));

    let bench = wyt_spec::by_name("sjeng").expect("suite");
    let img = compile(bench.source, &Profile::gcc44_o3()).unwrap().stripped();
    let inputs = bench.train_inputs();

    report(measure(&b, filter, "trace_and_lift", || lift_image(&img, &inputs).unwrap()));
    report(measure(&b, filter, "recompile_nosymbolize", || {
        recompile(&Request::new(&img, &inputs, Mode::NoSymbolize)).unwrap()
    }));
    report(measure(&b, filter, "recompile_wytiwyg", || {
        recompile(&Request::new(&img, &inputs, Mode::Wytiwyg)).unwrap()
    }));

    let small = compile("int main() { return 7; }", &Profile::gcc12_o3()).unwrap().stripped();
    report(measure(&b, filter, "recompile_minimal", || {
        recompile(&Request::new(&small, &[vec![]], Mode::Wytiwyg)).unwrap()
    }));

    let bench = wyt_spec::by_name("bzip2").expect("suite");
    let img = compile(bench.source, &Profile::gcc12_o3()).unwrap();
    let input = bench.train_inputs().remove(0);
    report(measure(&b, filter, "emulate_bzip2_train", || {
        let r = wyt_emu::run_image(&img, input.clone());
        assert!(r.ok());
        r.cycles
    }));

    // The emulator per guest instruction: three micro-loops, then the
    // cold-suite programs (GCC 12 -O3) on their first train input.
    let mut emu_rows = vec![
        ("emu_loop_alu".to_string(), alu_loop(), vec![]),
        ("emu_loop_array".to_string(), array_loop(), vec![]),
        ("emu_loop_call".to_string(), call_loop(), vec![]),
    ];
    for name in SUITE {
        let bench = wyt_spec::by_name(name).expect("suite");
        let img = compile(bench.source, &Profile::gcc12_o3()).unwrap();
        emu_rows.push((format!("emu_{name}_train"), img, bench.train_inputs().remove(0)));
    }
    for (name, img, input) in emu_rows {
        let Some(s) = measure(&b, filter, &name, || {
            let r = wyt_emu::run_image(&img, input.clone());
            assert!(r.ok(), "{name}: {:?}", r.trap);
            r.cycles
        }) else {
            continue;
        };
        let steps = wyt_emu::run_image(&img, input).inst_count;
        print_per_step(&s, steps);
    }

    // The IR interpreter per step, on the lifted cold-suite programs
    // (GCC 12 -O3) over their trace inputs: bare on the lifted module,
    // then each refinement replay on the module the pipeline hands it.
    // One thread, so a row's time is the replays' summed time.
    wyt_par::set_threads(1);
    for name in SUITE {
        let rows = ["bare", "regsave", "bounds"].map(|r| format!("interp_{name}_{r}"));
        if filter.is_some_and(|f| !rows.iter().any(|r| r.contains(f))) {
            continue;
        }
        let bench = wyt_spec::by_name(name).expect("suite");
        let img = compile(bench.source, &Profile::gcc12_o3()).unwrap().stripped();
        let inputs = bench.trace_inputs();
        let lifted = lift_image(&img, &inputs).unwrap();
        let bare = lifted.module.clone();
        let mut module = lifted.module;
        vararg::apply(&mut module, &vararg::from_trace(&lifted.trace, &lifted.meta));
        let reginfo = regsave::analyze(&module, &lifted.meta, &inputs).unwrap();
        let regsave_module = module.clone();
        let none = BTreeSet::new();
        spfold::insert_save_restore(&mut module, &lifted.meta, &reginfo, &none);
        let (fold, _) = spfold::fold(&mut module, &lifted.meta, &reginfo, &none);

        let steps = |m: &Module| -> u64 {
            inputs.iter().map(|i| Interp::new(m, i.clone(), NoHooks).run().steps).sum()
        };
        let [bare_row, regsave_row, bounds_row] = &rows;
        if let Some(s) = measure(&b, filter, bare_row, || steps(&bare)) {
            print_per_step(&s, steps(&bare));
        }
        if let Some(s) = measure(&b, filter, regsave_row, || {
            regsave::analyze(&regsave_module, &lifted.meta, &inputs).unwrap()
        }) {
            print_per_step(&s, steps(&regsave_module));
        }
        if let Some(s) = measure(&b, filter, bounds_row, || {
            runtime::trace_bounds(&module, &fold, &inputs).unwrap()
        }) {
            print_per_step(&s, steps(&module));
        }
    }
}

/// Print `s` with its time per step of a run of `steps` steps.
fn print_per_step(s: &Sample, steps: u64) {
    let ns = |d: std::time::Duration| d.as_nanos() as f64 / steps as f64;
    println!("{}  {:.2} ns/step (median {:.2}, {steps} steps)", s.row(), ns(s.min), ns(s.median));
}

/// Time `f` as row `name`, unless the command line names a filter that
/// `name` does not contain.
fn measure<T>(
    b: &Bencher,
    filter: Option<&str>,
    name: &str,
    f: impl FnMut() -> T,
) -> Option<Sample> {
    filter.is_none_or(|filter| name.contains(filter)).then(|| b.measure(name, f))
}

fn reg(r: Reg) -> Operand {
    Operand::Reg(r)
}

fn alu(op: AluOp, dst: Operand, src: Operand) -> Inst {
    Inst::Alu { op, size: Size::D, dst, src }
}

fn mov(dst: Operand, src: Operand) -> Inst {
    Inst::Mov { size: Size::D, dst, src }
}

/// `ecx` counts [`LOOP_ITERS`] down to zero around `body`, then halts.
fn counted_loop(img: Image, body: impl FnOnce(&mut Asm)) -> Image {
    let mut img = img;
    let mut a = Asm::new();
    a.emit(mov(reg(Reg::Ecx), Operand::Imm(LOOP_ITERS)));
    a.emit(mov(reg(Reg::Eax), Operand::Imm(0)));
    let top = a.here();
    body(&mut a);
    a.emit(alu(AluOp::Sub, reg(Reg::Ecx), Operand::Imm(1)));
    a.jcc(Cc::Ne, top);
    a.emit(Inst::Halt);
    let out = a.finish(img.text_base);
    img.text = out.bytes;
    img.entry = img.text_base;
    img
}

/// Register-only ALU work: `add`, `xor`, `sub`, `jne` (4 steps per iteration).
fn alu_loop() -> Image {
    counted_loop(Image::new(), |a| {
        a.emit(alu(AluOp::Add, reg(Reg::Eax), reg(Reg::Ecx)));
        a.emit(alu(AluOp::Xor, reg(Reg::Edx), reg(Reg::Eax)));
    })
}

/// Loads and stores through a scaled index into a 4 KiB data array
/// (6 steps per iteration).
fn array_loop() -> Image {
    let mut img = Image::new();
    img.data = vec![0; 4096];
    let slot = Mem { base: None, index: Some((Reg::Ebx, 4)), disp: img.data_base as i32 };
    counted_loop(img, |a| {
        a.emit(mov(reg(Reg::Ebx), reg(Reg::Ecx)));
        a.emit(alu(AluOp::And, reg(Reg::Ebx), Operand::Imm(1023)));
        a.emit(alu(AluOp::Add, reg(Reg::Eax), Operand::Mem(slot)));
        a.emit(mov(Operand::Mem(slot), reg(Reg::Eax)));
    })
}

/// A call per iteration to a framed leaf that reads its stack argument
/// (10 steps per iteration).
fn call_loop() -> Image {
    let mut img = Image::new();
    let mut a = Asm::new();
    let leaf = a.fresh_label();
    a.emit(mov(reg(Reg::Ecx), Operand::Imm(LOOP_ITERS)));
    a.emit(mov(reg(Reg::Eax), Operand::Imm(0)));
    let top = a.here();
    a.emit(Inst::Push { src: reg(Reg::Ecx) });
    a.call(leaf);
    a.emit(alu(AluOp::Add, reg(Reg::Esp), Operand::Imm(4)));
    a.emit(alu(AluOp::Sub, reg(Reg::Ecx), Operand::Imm(1)));
    a.jcc(Cc::Ne, top);
    a.emit(Inst::Halt);
    a.bind(leaf);
    a.emit(Inst::Push { src: reg(Reg::Ebp) });
    a.emit(mov(reg(Reg::Ebp), reg(Reg::Esp)));
    a.emit(alu(AluOp::Add, reg(Reg::Eax), Operand::Mem(Mem::base_disp(Reg::Ebp, 8))));
    a.emit(Inst::Leave);
    a.emit(Inst::Ret { pop: 0 });
    let out = a.finish(img.text_base);
    img.text = out.bytes;
    img.entry = img.text_base;
    img
}
