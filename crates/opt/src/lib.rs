//! # wyt-opt — the re-optimization pipeline
//!
//! The reproduction's stand-in for LLVM's optimizer: constant folding,
//! dominator-scoped CSE, CFG simplification, dead code elimination, alias
//! analysis with store-to-load forwarding, `mem2reg`, and inlining.
//!
//! Its precision deliberately mirrors the paper's argument (§2.1–2.2): all
//! memory passes key on *distinct allocas*. A lifted-but-unsymbolized
//! program keeps its stack in one byte-array global, so every access
//! aliases everything and the pipeline can only clean up arithmetic. After
//! WYTIWYG symbolizes the frame into allocas, the same pipeline promotes
//! locals to SSA, forwards spills, and deletes the emulated-stack traffic —
//! that asymmetry is the performance story of Table 1.
//!
//! Passes that replace values ([`fold`], [`cse`] and
//! [`memory::forward_function`]) share one substitution contract, built on
//! [`wyt_ir::Subst`]: each sweep resolves an instruction's or terminator's
//! operands through the sweep's map when it visits them, and rewrites the
//! whole function once at the end. The result, and the `changed` flag, are
//! those of rewriting every use the moment a value is replaced, at one
//! pass over the function per sweep instead of one per replaced value.

pub mod cse;
pub mod dce;
pub mod fold;
pub mod inline;
pub mod memory;
pub mod simplify_cfg;

pub use inline::InlineLimits;

use wyt_ir::{Function, Module};

/// Optimization effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// Cleanup only: folding, CSE, DCE, CFG simplification.
    Clean,
    /// Full pipeline including memory optimization and inlining.
    Full,
}

/// One pipeline pass: a module-level runner plus **static** span and
/// counter names, so the disabled-obs fast path never allocates (the
/// old driver built `"{name}.changed"` with `format!` per round).
struct Pass {
    /// Span name.
    name: &'static str,
    /// Counter bumped when the pass changes the module.
    changed: &'static str,
    /// The pass itself.
    run: fn(&mut Module) -> bool,
}

const FOLD: Pass = Pass { name: "opt.fold", changed: "opt.fold.changed", run: fold::run };
const CSE: Pass = Pass { name: "opt.cse", changed: "opt.cse.changed", run: cse::run };
const DCE: Pass = Pass { name: "opt.dce", changed: "opt.dce.changed", run: dce::run };
const SIMPLIFY: Pass =
    Pass { name: "opt.simplify_cfg", changed: "opt.simplify_cfg.changed", run: simplify_cfg::run };
const MEMORY: Pass = Pass { name: "opt.memory", changed: "opt.memory.changed", run: memory::run };

/// The cleanup-only round (arithmetic and control flow, no aliasing).
const CLEAN_PASSES: &[Pass] = &[FOLD, CSE, DCE, SIMPLIFY];
/// The full round: cleanup plus memory optimization and a re-sweep of
/// the dead code it exposes.
const FULL_PASSES: &[Pass] = &[FOLD, CSE, DCE, SIMPLIFY, MEMORY, DCE];

/// Round budget for each fixpoint drive.
const ROUNDS: u32 = 8;

/// Run one pass under its span, counting a change.
fn timed(p: &Pass, m: &mut Module) -> bool {
    let _s = wyt_obs::Span::enter(p.name);
    let changed = (p.run)(m);
    if changed {
        wyt_obs::counter(p.changed, 1);
    }
    changed
}

/// Drive `passes` to a bounded fixpoint: repeat the round until no pass
/// reports a change (or the budget runs out). This is the single driver
/// behind both the pre- and post-inline phases of [`optimize`] — they
/// used to be two hand-copied loops that had already drifted in shape.
fn fixpoint(m: &mut Module, passes: &[Pass]) {
    for _ in 0..ROUNDS {
        wyt_obs::counter("opt.rounds", 1);
        let mut changed = false;
        for p in passes {
            changed |= timed(p, m);
        }
        if !changed {
            break;
        }
    }
}

/// Run the pipeline to a bounded fixpoint, then (at [`OptLevel::Full`])
/// inline and re-drive the full round over the merged bodies.
pub fn optimize(m: &mut Module, level: OptLevel) {
    let passes = match level {
        OptLevel::Clean => CLEAN_PASSES,
        OptLevel::Full => FULL_PASSES,
    };
    fixpoint(m, passes);
    if level != OptLevel::Full {
        return;
    }
    let inlined = {
        let _s = wyt_obs::Span::enter("opt.inline");
        inline::run(m, &InlineLimits::default())
    };
    if inlined {
        wyt_obs::counter("opt.inline.changed", 1);
        fixpoint(m, FULL_PASSES);
    }
}

/// Apply a **function-local** pass to every function of `m`, in index
/// order.
///
/// Function-local means the pass may read and write only the one
/// function it is given — exactly the contract of every pass here
/// except inlining.
pub(crate) fn for_each_func(m: &mut Module, pass: impl Fn(&mut Function) -> bool) -> bool {
    let mut changed = false;
    for f in &mut m.funcs {
        changed |= pass(f);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_ir::interp::{Interp, NoHooks};
    use wyt_ir::verify::verify_module;
    use wyt_ir::{BinOp, CmpOp, Function, InstKind, Term, Ty, Val};

    /// A function computing sum(i*2+1 for i in 0..10) through allocas.
    fn looped_module() -> Module {
        let mut m = Module::new();
        let mut f = Function::new("main");
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let acc = f.push_inst(f.entry, InstKind::Alloca { size: 4, align: 4, name: "acc".into() });
        let i = f.push_inst(f.entry, InstKind::Alloca { size: 4, align: 4, name: "i".into() });
        f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(acc), val: Val::Const(0) },
        );
        f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(i), val: Val::Const(0) },
        );
        f.blocks[0].term = Term::Br(header);
        let iv = f.push_inst(header, InstKind::Load { ty: Ty::I32, addr: Val::Inst(i) });
        let c = f.push_inst(
            header,
            InstKind::Cmp { op: CmpOp::SLt, a: Val::Inst(iv), b: Val::Const(10) },
        );
        f.blocks[header.index()].term = Term::CondBr { c: Val::Inst(c), t: body, f: exit };
        let iv2 = f.push_inst(body, InstKind::Load { ty: Ty::I32, addr: Val::Inst(i) });
        let term = f
            .push_inst(body, InstKind::Bin { op: BinOp::Mul, a: Val::Inst(iv2), b: Val::Const(2) });
        let term1 = f.push_inst(
            body,
            InstKind::Bin { op: BinOp::Add, a: Val::Inst(term), b: Val::Const(1) },
        );
        let av = f.push_inst(body, InstKind::Load { ty: Ty::I32, addr: Val::Inst(acc) });
        let acc2 = f.push_inst(
            body,
            InstKind::Bin { op: BinOp::Add, a: Val::Inst(av), b: Val::Inst(term1) },
        );
        f.push_inst(
            body,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(acc), val: Val::Inst(acc2) },
        );
        let inext = f
            .push_inst(body, InstKind::Bin { op: BinOp::Add, a: Val::Inst(iv2), b: Val::Const(1) });
        f.push_inst(
            body,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(i), val: Val::Inst(inext) },
        );
        f.blocks[body.index()].term = Term::Br(header);
        let fin = f.push_inst(exit, InstKind::Load { ty: Ty::I32, addr: Val::Inst(acc) });
        f.blocks[exit.index()].term = Term::Ret(Some(Val::Inst(fin)));
        let id = m.add_func(f);
        m.entry = Some(id);
        m
    }

    #[test]
    fn full_pipeline_preserves_semantics_and_removes_memory_traffic() {
        let mut m = looped_module();
        let before = Interp::new(&m, vec![], NoHooks).run();
        optimize(&mut m, OptLevel::Full);
        verify_module(&m).unwrap();
        let after = Interp::new(&m, vec![], NoHooks).run();
        assert_eq!(before.exit_code, after.exit_code);
        assert_eq!(after.exit_code, 100);
        assert!(after.steps < before.steps, "optimization should reduce work");
        let f = &m.funcs[0];
        for b in f.rpo() {
            for &i in &f.blocks[b.index()].insts {
                assert!(
                    !matches!(f.inst(i), InstKind::Load { .. } | InstKind::Store { .. }),
                    "memory traffic should be fully promoted"
                );
            }
        }
    }

    #[test]
    fn clean_level_does_not_touch_memory() {
        let mut m = looped_module();
        optimize(&mut m, OptLevel::Clean);
        verify_module(&m).unwrap();
        let f = &m.funcs[0];
        let has_store = f.rpo().iter().any(|b| {
            f.blocks[b.index()].insts.iter().any(|&i| matches!(f.inst(i), InstKind::Store { .. }))
        });
        assert!(has_store, "Clean level must keep stores");
        let out = Interp::new(&m, vec![], NoHooks).run();
        assert_eq!(out.exit_code, 100);
    }
}
