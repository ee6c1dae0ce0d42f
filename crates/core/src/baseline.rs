//! A SecondWrite-like baseline recompiler (paper §6.1–6.2 comparisons).
//!
//! SecondWrite symbolizes stack variables with *static*, heuristic
//! analyses. This reproduction models its observable characteristics:
//!
//! - its disassembler rejects binaries containing SIMD instructions
//!   (`vmov` here) — which is why the paper could only compare on GCC 4.4
//!   binaries;
//! - it cannot resolve jump tables whose targets are not stored as
//!   absolute addresses in data, i.e. position-independent binaries fail
//!   (the paper's `-fno-pic` requirement and missing-jump-table findings);
//! - register conventions are assumed from the platform ABI rather than
//!   observed (heuristics, §4.1's warning) — correct for GCC 4.4 output;
//! - stack splitting is *conservative*: any stack pointer that is indexed
//!   dynamically collapses the whole frame into a single symbol (the
//!   behaviour the paper reports in §1 and §2.2); otherwise the frame is
//!   split at the statically evident offsets.
//!
//! The symbolization and lowering machinery is shared with WYTIWYG — the
//! comparison isolates the *analysis* quality, which is the paper's point.

use crate::layout::{FuncLayout, ModuleLayout, StackSlotVar};
use crate::regsave::{RegClass, RegSaveInfo, NUM_CELLS};
use crate::spfold::{self, FoldInfo};
use crate::symbolize;
use crate::vararg;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use wyt_backend::lower_module;
use wyt_ir::{BinOp, FuncId, InstId, InstKind, Module, Val};
use wyt_isa::image::Image;
use wyt_isa::{Inst, Reg};
use wyt_lifter::{lift_image, LiftPipelineError};
use wyt_opt::{optimize, OptLevel};

/// Why the baseline refused or failed.
#[derive(Debug)]
pub enum SecondWriteError {
    /// The disassembler does not handle SIMD instructions.
    SimdUnsupported(u32),
    /// A jump table could not be resolved statically (PIC binary).
    UnresolvedJumpTable(u32),
    /// Lifting failed.
    Lift(LiftPipelineError),
    /// Downstream failure.
    Other(String),
}

impl fmt::Display for SecondWriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecondWriteError::SimdUnsupported(pc) => {
                write!(f, "disassembler: unhandled SIMD instruction at {pc:#x}")
            }
            SecondWriteError::UnresolvedJumpTable(pc) => {
                write!(f, "static analysis: unresolved jump table at {pc:#x} (PIC binary)")
            }
            SecondWriteError::Lift(e) => write!(f, "lift: {e}"),
            SecondWriteError::Other(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for SecondWriteError {}

/// Static pre-checks standing in for SecondWrite's disassembler limits.
fn static_disassembler_checks(img: &Image) -> Result<(), SecondWriteError> {
    let mut addr = img.text_base;
    while addr < img.text_end() {
        let (inst, len) = img
            .decode_at(addr)
            .map_err(|_| SecondWriteError::Other(format!("undecodable code at {addr:#x}")))?;
        match inst {
            Inst::VmovLd { .. } | Inst::VmovSt { .. } => {
                return Err(SecondWriteError::SimdUnsupported(addr));
            }
            Inst::JmpInd { .. } if img.pic => {
                // Without absolute relocations the table targets are
                // invisible to a static lifter.
                return Err(SecondWriteError::UnresolvedJumpTable(addr));
            }
            _ => {}
        }
        addr += len as u32;
    }
    Ok(())
}

/// ABI-heuristic register classification (what a static tool assumes).
fn heuristic_regsave(module: &Module) -> RegSaveInfo {
    let mut class = HashMap::new();
    for fi in 0..module.funcs.len() {
        let mut cs = [RegClass::Clobbered; NUM_CELLS];
        for r in [Reg::Ebx, Reg::Esp, Reg::Ebp, Reg::Esi, Reg::Edi] {
            cs[r.index()] = RegClass::Saved;
        }
        class.insert(FuncId(fi as u32), cs);
    }
    RegSaveInfo { class, indirect_targets: HashMap::new() }
}

/// Static conservative stack splitting over the folded base pointers.
fn static_layout(module: &Module, fold: &FoldInfo) -> ModuleLayout {
    let mut out = ModuleLayout::default();
    for (&fid, folded) in &fold.funcs {
        let f = &module.funcs[fid.index()];
        // Does any stack pointer get indexed dynamically?
        let base_set: BTreeSet<InstId> = folded.base_ptrs.keys().copied().collect();
        let mut dynamic_indexing = false;
        for b in f.rpo() {
            for &i in &f.blocks[b.index()].insts {
                if let InstKind::Bin { op: BinOp::Add | BinOp::Sub, a, b: bb } = f.inst(i) {
                    if base_set.contains(&i) {
                        continue; // the canonical form itself
                    }
                    let derives_base = |v: &Val| matches!(v, Val::Inst(x) if base_set.contains(x));
                    let nonconst = |v: &Val| v.as_const().is_none();
                    if (derives_base(a) && nonconst(bb)) || (derives_base(bb) && nonconst(a)) {
                        dynamic_indexing = true;
                    }
                }
            }
        }

        // Distinct negative offsets (the frame proper) and positive ones
        // (incoming arguments).
        let mut neg: Vec<i32> = folded
            .base_ptrs
            .values()
            .copied()
            .filter(|k| *k < 0)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        neg.sort();
        let max_arg = folded.base_ptrs.values().copied().filter(|k| *k >= 4).max();

        let mut fl = FuncLayout {
            stack_args: max_arg.map(|k| ((k - 4) / 4 + 1) as u32).unwrap_or(0),
            ..FuncLayout::default()
        };

        if dynamic_indexing && !neg.is_empty() {
            // Single-symbol mode: the whole frame is one variable.
            let lo = *neg.first().expect("nonempty");
            fl.vars.push(StackSlotVar { lo, hi: 0, align: 4, members: Vec::new() });
            for (&inst, &k) in &folded.base_ptrs {
                if k < 0 {
                    fl.vars[0].members.push(inst);
                    fl.assignment.insert(inst, (0, k - lo));
                }
            }
        } else {
            // Split at the statically evident offsets.
            for (vi, &k) in neg.iter().enumerate() {
                let hi = neg.get(vi + 1).copied().unwrap_or(0);
                fl.vars.push(StackSlotVar { lo: k, hi, align: 4, members: Vec::new() });
            }
            for (&inst, &k) in &folded.base_ptrs {
                if k >= 0 {
                    continue;
                }
                if let Some(vi) = neg.iter().position(|&o| o == k) {
                    fl.vars[vi].members.push(inst);
                    fl.assignment.insert(inst, (vi, 0));
                }
            }
        }
        out.callee_stack_args.insert(fid, fl.stack_args);
        out.funcs.insert(fid, fl);
    }
    out
}

/// Recompile with the SecondWrite-like baseline.
///
/// # Errors
/// Returns a [`SecondWriteError`] for the failure classes the paper
/// documents (SIMD, PIC jump tables) or any downstream failure.
pub fn recompile_secondwrite(
    img: &Image,
    inputs: &[Vec<u8>],
) -> Result<crate::Recompiled, SecondWriteError> {
    static_disassembler_checks(img)?;

    // Share the lifting front end (generously: SecondWrite gets a perfect
    // CFG; the comparison is about symbolization quality).
    let lifted = lift_image(img, inputs).map_err(SecondWriteError::Lift)?;
    let mut module = lifted.module;
    let meta = lifted.meta;

    // External calls: static signatures; format strings resolved from the
    // data segment via the same traced arities (generous again).
    vararg::apply(&mut module, &vararg::from_trace(&lifted.trace, &meta));

    // ABI-heuristic register conventions.
    let mut reginfo = heuristic_regsave(&module);
    // Indirect call sites: assume any lifted function may be a target.
    let all_funcs: BTreeSet<FuncId> = meta.func_by_addr.values().copied().collect();
    for (fi, f) in module.funcs.iter().enumerate() {
        for b in f.rpo() {
            for &i in &f.blocks[b.index()].insts {
                if matches!(f.inst(i), InstKind::CallInd { .. }) {
                    reginfo.indirect_targets.insert((FuncId(fi as u32), i), all_funcs.clone());
                }
            }
        }
    }

    // The baseline has no degradation ladder: every function must fold
    // and symbolize, or the whole recompilation fails (the paper's
    // all-or-nothing static tooling).
    spfold::insert_save_restore(&mut module, &meta, &reginfo, &BTreeSet::new());
    let (fold, fold_errs) = spfold::fold(&mut module, &meta, &reginfo, &BTreeSet::new());
    if let Some(e) = fold_errs.first() {
        return Err(SecondWriteError::Other(e.to_string()));
    }

    let layout = static_layout(&module, &fold);
    let mut eligible: BTreeSet<FuncId> = all_funcs.clone();
    eligible.insert(meta.start);
    let sym_errs = symbolize::symbolize(&mut module, &meta, &fold, &reginfo, &layout, &eligible);
    if let Some((_, e)) = sym_errs.first() {
        return Err(SecondWriteError::Other(e.to_string()));
    }
    wyt_ir::verify::verify_module(&module).map_err(|e| SecondWriteError::Other(e.to_string()))?;

    optimize(&mut module, OptLevel::Full);
    let image = lower_module(&module).map_err(|e| SecondWriteError::Other(e.to_string()))?;

    Ok(crate::Recompiled {
        image,
        module,
        lifted_meta: meta,
        trace: lifted.trace,
        layout: Some(layout),
        bounds: None,
        fold: Some(fold),
        reginfo: Some(reginfo),
        reused_funcs: BTreeSet::new(),
        baseline_runs: lifted.baseline_runs,
        inputs: inputs.to_vec(),
        report: wyt_obs::PipelineReport {
            mode: "SecondWrite".into(),
            opt: "Full".into(),
            ..wyt_obs::PipelineReport::default()
        },
    })
}

/// Expose the static splitting decision for tests.
pub fn frame_is_single_symbol(layout: &ModuleLayout, f: FuncId) -> bool {
    layout.funcs.get(&f).map(|fl| fl.vars.len() == 1 && fl.vars[0].size() > 4).unwrap_or(false)
}

/// Re-export used by [`static_layout`] consumers.
pub type StaticAssignments = BTreeMap<InstId, (usize, i32)>;
