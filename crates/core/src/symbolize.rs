//! Symbolization (paper §4.2.6): replace base pointers with allocas, turn
//! recovered signatures into real parameters and return values, promote
//! the virtual CPU registers to SSA, and sever every dependency on the
//! emulated stack.
//!
//! After this pass the lifted program looks like frontend output: each
//! function has explicit arguments, locals are distinct `alloca`s, and the
//! re-optimization pipeline's alias analysis can finally see through the
//! frame — the paper's core enabling step.

use crate::layout::{FuncLayout, ModuleLayout};
use crate::regsave::{RegClass, RegSaveInfo, ESP_CELL, NUM_CELLS};
use crate::spfold::FoldInfo;
use std::collections::{BTreeSet, HashMap};
use wyt_ir::{BinOp, BlockId, FuncId, Function, InstId, InstKind, Module, Term, Ty, Val};
use wyt_lifter::LiftedMeta;

/// A symbolization failure.
#[derive(Debug, Clone)]
pub struct SymbolizeError {
    /// Function involved.
    pub func: String,
    /// Description.
    pub what: String,
}

impl std::fmt::Display for SymbolizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "symbolization failed in {}: {}", self.func, self.what)
    }
}

impl std::error::Error for SymbolizeError {}

const EAX_CELL: usize = 0;

fn cell_addr(cell: usize) -> u32 {
    if cell < 8 {
        wyt_lifter::vcpu_reg_addr(wyt_isa::Reg::from_index(cell as u8))
    } else {
        wyt_lifter::vcpu_vreg_addr(cell as u32 - 8)
    }
}

/// Final per-function signature used for the rewrite.
#[derive(Debug, Clone, Default)]
struct Sig {
    stack_args: u32,
    reg_args: Vec<usize>,
}

impl Sig {
    fn num_params(&self) -> u32 {
        self.stack_args + self.reg_args.len() as u32
    }
}

/// Unify signatures across indirect-call target sets and propagate stack
/// arguments through tail calls (call sites at `esp == sp0`).
fn finalize_signatures(
    module: &Module,
    meta: &LiftedMeta,
    layout: &ModuleLayout,
    regs: &RegSaveInfo,
    fold: &FoldInfo,
) -> HashMap<FuncId, Sig> {
    let mut sigs: HashMap<FuncId, Sig> = HashMap::new();
    for (_, &fid) in &meta.func_by_addr {
        let fl = layout.funcs.get(&fid);
        sigs.insert(
            fid,
            Sig {
                stack_args: fl.map(|l| l.stack_args).unwrap_or(0),
                reg_args: fl.map(|l| l.reg_args.clone()).unwrap_or_default(),
            },
        );
    }
    sigs.entry(meta.start).or_default();

    // Tail-call propagation: a call at depth 0 forwards our own incoming
    // argument area, so we must accept at least as many args as the callee.
    loop {
        let mut changed = false;
        for (fid, folded) in &fold.funcs {
            for (&inst, &d) in &folded.call_esp_off {
                if d != 0 {
                    continue;
                }
                let callees: Vec<FuncId> = callees_of(module, *fid, inst, regs);
                let need: u32 = callees
                    .iter()
                    .filter_map(|c| sigs.get(c).map(|s| s.stack_args))
                    .max()
                    .unwrap_or(0);
                let entry = sigs.entry(*fid).or_default();
                if entry.stack_args < need {
                    entry.stack_args = need;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Indirect-call sets: unify (max stack, union regs).
    for targets in regs.indirect_targets.values() {
        if targets.len() < 2 {
            continue;
        }
        let max_stack =
            targets.iter().filter_map(|t| sigs.get(t).map(|s| s.stack_args)).max().unwrap_or(0);
        let mut union_regs: BTreeSet<usize> = BTreeSet::new();
        for t in targets {
            if let Some(s) = sigs.get(t) {
                union_regs.extend(s.reg_args.iter().copied());
            }
        }
        for t in targets {
            if let Some(s) = sigs.get_mut(t) {
                s.stack_args = max_stack;
                s.reg_args = union_regs.iter().copied().collect();
            }
        }
    }
    sigs
}

fn callees_of(module: &Module, fid: FuncId, inst: InstId, regs: &RegSaveInfo) -> Vec<FuncId> {
    match module.funcs[fid.index()].inst(inst) {
        InstKind::Call { f, .. } => vec![*f],
        InstKind::CallInd { .. } => regs
            .indirect_targets
            .get(&(fid, inst))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default(),
        _ => Vec::new(),
    }
}

/// Symbolize the functions in `eligible` in place; the rest of the module
/// (functions demoted down the degradation ladder) keeps its emulated
/// stack and stays callable through the shared calling convention.
///
/// Failures are collected per function instead of aborting the module: a
/// function that violates a symbolization invariant (leftover raw external
/// calls, unfolded frame references on traced paths) is reported with its
/// id and left unmutated, so the caller can demote it and retry.
pub fn symbolize(
    module: &mut Module,
    meta: &LiftedMeta,
    fold: &FoldInfo,
    regs: &RegSaveInfo,
    layout: &ModuleLayout,
    eligible: &BTreeSet<FuncId>,
) -> Vec<(FuncId, SymbolizeError)> {
    let sigs = finalize_signatures(module, meta, layout, regs, fold);

    let mut func_ids: Vec<FuncId> = meta.func_by_addr.values().copied().collect();
    func_ids.push(meta.start);

    let mut errs = Vec::new();
    for fid in func_ids {
        if !eligible.contains(&fid) {
            continue;
        }
        if let Err(e) = rewrite_function(module, fid, meta, fold, regs, layout, &sigs) {
            errs.push((fid, e));
        }
    }

    // Module-level cleanup: delete stores to vcpu cells nobody loads.
    // Safe for demoted functions too: their own loads keep the stores
    // they depend on alive.
    dead_cell_stores(module);
    errs
}

#[allow(clippy::too_many_arguments)]
fn rewrite_function(
    module: &mut Module,
    fid: FuncId,
    meta: &LiftedMeta,
    fold: &FoldInfo,
    regs: &RegSaveInfo,
    layout: &ModuleLayout,
    sigs: &HashMap<FuncId, Sig>,
) -> Result<(), SymbolizeError> {
    let empty_layout = FuncLayout::default();
    let fl = layout.funcs.get(&fid).unwrap_or(&empty_layout);
    let folded = fold.funcs.get(&fid);
    let sig = sigs.get(&fid).cloned().unwrap_or_default();
    let callee_sigs: HashMap<FuncId, Sig> = sigs.clone();

    // Pre-flight: invariants that would otherwise fail mid-rewrite are
    // checked first, so a failing function is reported with its body
    // untouched (the degradation ladder re-runs on a pristine module, but
    // keeping this pass non-destructive on error is cheap insurance).
    {
        let f = &module.funcs[fid.index()];
        for b in f.rpo() {
            for &i in &f.blocks[b.index()].insts {
                if matches!(f.inst(i), InstKind::CallExtRaw { .. }) {
                    return Err(SymbolizeError {
                        func: f.name.clone(),
                        what: "raw external call survived the vararg refinement".into(),
                    });
                }
            }
        }
    }

    // We need immutable module access for callee lookups while mutating
    // this function: take it out, put it back.
    let mut f = std::mem::replace(&mut module.funcs[fid.index()], Function::new("_swap"));
    let err = |what: &str, f: &Function| SymbolizeError { func: f.name.clone(), what: what.into() };

    f.num_params = sig.num_params();

    // 1. Allocas for recovered variables (own frame only) + incoming args.
    let mut entry_insts: Vec<InstId> = Vec::new();
    let mut alloca_of_var: Vec<Option<InstId>> = vec![None; fl.vars.len()];
    for (vi, var) in fl.vars.iter().enumerate() {
        if var.lo >= 0 {
            continue; // arg-area or ret-slot region; handled via inargs
        }
        let a = f.add_inst(InstKind::Alloca {
            size: var.size(),
            align: var.align.max(4),
            name: format!("var_{}", -var.lo),
        });
        alloca_of_var[vi] = Some(a);
        entry_insts.push(a);
    }
    let inargs = if sig.stack_args > 0 {
        let a = f.add_inst(InstKind::Alloca {
            size: 4 * sig.stack_args,
            align: 4,
            name: "inargs".into(),
        });
        entry_insts.push(a);
        for k in 0..sig.stack_args {
            let addr = if k == 0 {
                Val::Inst(a)
            } else {
                let ai = f.add_inst(InstKind::Bin {
                    op: BinOp::Add,
                    a: Val::Inst(a),
                    b: Val::Const(4 * k as i32),
                });
                entry_insts.push(ai);
                Val::Inst(ai)
            };
            let st = f.add_inst(InstKind::Store { ty: Ty::I32, addr, val: Val::Param(k) });
            entry_insts.push(st);
        }
        Some(a)
    } else {
        None
    };
    // Prepend to entry.
    {
        let eb = &mut f.blocks[f.entry.index()].insts;
        let mut new = entry_insts;
        new.append(eb);
        *eb = new;
    }

    // 2. Rewrite base pointers.
    if let Some(folded) = folded {
        for (&inst, &k) in &folded.base_ptrs {
            if Some(inst) == folded.sp0 {
                continue;
            }
            if (0..4).contains(&k) {
                continue; // return-address slot; dead after SSA
            }
            if k >= 4 {
                // Incoming argument area.
                let Some(base) = inargs else {
                    // The function never reads stack args yet a base
                    // pointer points there: it is never dereferenced
                    // (otherwise stack_args would cover it); make it
                    // point at nothing harmful.
                    *f.inst_mut(inst) = InstKind::Copy { v: Val::Const(0) };
                    continue;
                };
                let delta = k - 4;
                *f.inst_mut(inst) = if delta == 0 {
                    InstKind::Copy { v: Val::Inst(base) }
                } else {
                    InstKind::Bin { op: BinOp::Add, a: Val::Inst(base), b: Val::Const(delta) }
                };
                continue;
            }
            match fl.assignment.get(&inst) {
                Some(&(vi, delta)) => {
                    let Some(a) = alloca_of_var[vi] else {
                        *f.inst_mut(inst) = InstKind::Copy { v: Val::Const(0) };
                        continue;
                    };
                    *f.inst_mut(inst) = if delta == 0 {
                        InstKind::Copy { v: Val::Inst(a) }
                    } else {
                        InstKind::Bin { op: BinOp::Add, a: Val::Inst(a), b: Val::Const(delta) }
                    };
                }
                None => {
                    // Base pointer never executed in any trace: its block
                    // is reachable only through untraced paths. Point it
                    // at nothing; the paths trap before dereferencing.
                    *f.inst_mut(inst) = InstKind::Copy { v: Val::Const(0) };
                }
            }
        }
    }

    // 3. Registers → SSA with maximal phis.
    let rpo = f.rpo();
    let preds = f.preds();
    let mut phi_of: HashMap<(BlockId, usize), InstId> = HashMap::new();
    for &b in &rpo {
        if b == f.entry || preds[b.index()].is_empty() {
            continue;
        }
        for cell in 0..NUM_CELLS {
            let p = f.add_inst(InstKind::Phi { incomings: Vec::new() });
            phi_of.insert((b, cell), p);
        }
    }
    let entry_vals: Vec<Val> = (0..NUM_CELLS)
        .map(|cell| match sig.reg_args.iter().position(|&c| c == cell) {
            Some(pos) => Val::Param(sig.stack_args + pos as u32),
            None => Val::Const(0),
        })
        .collect();

    let saved_here: Vec<bool> = {
        let cs = regs.class.get(&fid);
        (0..NUM_CELLS).map(|c| cs.map(|cs| cs[c] == RegClass::Saved).unwrap_or(false)).collect()
    };
    let _ = saved_here;

    let mut out_vals: HashMap<(BlockId, usize), Val> = HashMap::new();
    for &b in &rpo {
        let mut cur: Vec<Val> = (0..NUM_CELLS)
            .map(|cell| match phi_of.get(&(b, cell)) {
                Some(&p) => Val::Inst(p),
                None => entry_vals[cell],
            })
            .collect();
        let insts = f.blocks[b.index()].insts.clone();
        let mut new_insts: Vec<InstId> = Vec::with_capacity(insts.len());
        for id in insts {
            match f.inst(id).clone() {
                InstKind::Load { ty: Ty::I32, addr: Val::Const(c) }
                    if crate::regsave::cell_of_addr(c as u32).is_some() =>
                {
                    let cell = crate::regsave::cell_of_addr(c as u32).unwrap();
                    *f.inst_mut(id) = InstKind::Copy { v: cur[cell] };
                    new_insts.push(id);
                }
                InstKind::Store { ty: Ty::I32, addr: Val::Const(c), val }
                    if crate::regsave::cell_of_addr(c as u32).is_some() =>
                {
                    let cell = crate::regsave::cell_of_addr(c as u32).unwrap();
                    cur[cell] = val;
                }
                InstKind::Call { .. } | InstKind::CallInd { .. } => {
                    // Build the explicit argument list.
                    let callee_list: Vec<FuncId> = match f.inst(id) {
                        InstKind::Call { f: c, .. } => vec![*c],
                        _ => regs
                            .indirect_targets
                            .get(&(fid, id))
                            .map(|s| s.iter().copied().collect())
                            .unwrap_or_default(),
                    };
                    let csig = callee_list
                        .first()
                        .and_then(|c| callee_sigs.get(c))
                        .cloned()
                        .unwrap_or_default();
                    let d = folded.and_then(|fo| fo.call_esp_off.get(&id)).copied();
                    let mut args: Vec<Val> = Vec::new();
                    for k in 0..csig.stack_args {
                        let arg = match d {
                            Some(d) => {
                                let koff = d + 4 + 4 * k as i32;
                                self_arg_load(
                                    &mut f,
                                    fl,
                                    &alloca_of_var,
                                    inargs,
                                    koff,
                                    &mut new_insts,
                                )
                            }
                            None => Val::Const(0),
                        };
                        args.push(arg);
                    }
                    for &cell in &csig.reg_args {
                        args.push(cur[cell]);
                    }
                    match f.inst_mut(id) {
                        InstKind::Call { args: a, .. } => *a = args,
                        InstKind::CallInd { args: a, .. } => *a = args,
                        _ => unreachable!(),
                    }
                    new_insts.push(id);
                    // Post-call register state.
                    let callee_saved = |cell: usize| {
                        !callee_list.is_empty()
                            && callee_list.iter().all(|c| {
                                regs.class
                                    .get(c)
                                    .map(|cs| cs[cell] == RegClass::Saved)
                                    .unwrap_or(false)
                            })
                    };
                    for cell in 0..NUM_CELLS {
                        if cell == ESP_CELL {
                            continue;
                        }
                        if cell == EAX_CELL {
                            cur[cell] = Val::Inst(id);
                        } else if !callee_saved(cell) {
                            let l = f.add_inst(InstKind::Load {
                                ty: Ty::I32,
                                addr: Val::Const(cell_addr(cell) as i32),
                            });
                            new_insts.push(l);
                            cur[cell] = Val::Inst(l);
                        }
                    }
                }
                InstKind::CallExtRaw { .. } => {
                    return Err(err("raw external call survived the vararg refinement", &f));
                }
                InstKind::CallExt { .. } => {
                    new_insts.push(id);
                    cur[EAX_CELL] = Val::Inst(id);
                    // Externals do not touch CPU registers other than eax.
                }
                _ => new_insts.push(id),
            }
        }
        // Terminator: rewrite rets.
        if let Term::Ret(_) = f.blocks[b.index()].term {
            // Exit stores for clobbered cells (so callers can reload), then
            // return eax.
            let class = regs.class.get(&fid);
            for cell in 0..NUM_CELLS {
                if cell == ESP_CELL || cell == EAX_CELL {
                    continue;
                }
                let is_saved = class.map(|cs| cs[cell] == RegClass::Saved).unwrap_or(false);
                if !is_saved {
                    let st = f.add_inst(InstKind::Store {
                        ty: Ty::I32,
                        addr: Val::Const(cell_addr(cell) as i32),
                        val: cur[cell],
                    });
                    new_insts.push(st);
                }
            }
            f.blocks[b.index()].term = Term::Ret(Some(cur[EAX_CELL]));
        }
        // Place phis at the head.
        let mut with_phis: Vec<InstId> =
            (0..NUM_CELLS).filter_map(|cell| phi_of.get(&(b, cell)).copied()).collect();
        with_phis.extend(new_insts);
        f.blocks[b.index()].insts = with_phis;
        for (cell, v) in cur.into_iter().enumerate() {
            out_vals.insert((b, cell), v);
        }
    }
    for (&(b, cell), &p) in &phi_of {
        let incomings: Vec<(BlockId, Val)> = preds[b.index()]
            .iter()
            .map(|&pr| (pr, out_vals.get(&(pr, cell)).copied().unwrap_or(Val::Const(0))))
            .collect();
        *f.inst_mut(p) = InstKind::Phi { incomings };
    }

    module.funcs[fid.index()] = f;
    let _ = meta;
    Ok(())
}

/// Load the 32-bit value at sp0-relative offset `koff` from this
/// function's own symbolized frame (used to forward outgoing stack
/// arguments at rewritten call sites).
fn self_arg_load(
    f: &mut Function,
    fl: &FuncLayout,
    alloca_of_var: &[Option<InstId>],
    inargs: Option<InstId>,
    koff: i32,
    new_insts: &mut Vec<InstId>,
) -> Val {
    // Tail-call position: forwarding our own incoming arguments.
    if koff >= 4 {
        let Some(base) = inargs else { return Val::Const(0) };
        let delta = koff - 4;
        let addr = if delta == 0 {
            Val::Inst(base)
        } else {
            let a = f.add_inst(InstKind::Bin {
                op: BinOp::Add,
                a: Val::Inst(base),
                b: Val::Const(delta),
            });
            new_insts.push(a);
            Val::Inst(a)
        };
        let l = f.add_inst(InstKind::Load { ty: Ty::I32, addr });
        new_insts.push(l);
        return Val::Inst(l);
    }
    // Find the variable containing [koff, koff+4).
    let hit = fl.vars.iter().enumerate().find(|(_, v)| v.lo <= koff && koff + 4 <= v.hi);
    let Some((vi, var)) = hit else {
        return Val::Const(0); // never-written argument slot
    };
    let Some(a) = alloca_of_var[vi] else { return Val::Const(0) };
    let delta = koff - var.lo;
    let addr = if delta == 0 {
        Val::Inst(a)
    } else {
        let ai =
            f.add_inst(InstKind::Bin { op: BinOp::Add, a: Val::Inst(a), b: Val::Const(delta) });
        new_insts.push(ai);
        Val::Inst(ai)
    };
    let l = f.add_inst(InstKind::Load { ty: Ty::I32, addr });
    new_insts.push(l);
    Val::Inst(l)
}

/// Remove stores to vcpu register cells that no function ever loads.
///
/// Run once during symbolization and again after optimization: DCE deletes
/// unused after-call cell reloads, which in turn makes the matching
/// exit-stores in callees dead — a tiny interprocedural fixpoint.
pub fn dead_cell_stores(module: &mut Module) {
    let mut loaded: BTreeSet<u32> = BTreeSet::new();
    for f in &module.funcs {
        for b in f.rpo() {
            for &i in &f.blocks[b.index()].insts {
                if let InstKind::Load { addr: Val::Const(c), .. } = f.inst(i) {
                    if crate::regsave::cell_of_addr(*c as u32).is_some() {
                        loaded.insert(*c as u32);
                    }
                }
            }
        }
    }
    for f in &mut module.funcs {
        for b in f.rpo() {
            let keep: Vec<InstId> = f.blocks[b.index()]
                .insts
                .iter()
                .copied()
                .filter(|&i| match f.inst(i) {
                    InstKind::Store { addr: Val::Const(c), .. } => {
                        match crate::regsave::cell_of_addr(*c as u32) {
                            Some(_) => loaded.contains(&(*c as u32)),
                            None => true,
                        }
                    }
                    _ => true,
                })
                .collect();
            f.blocks[b.index()].insts = keep;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{recompile, Mode, Request};
    use wyt_ir::{InstKind, Val};
    use wyt_lifter::is_emustack_addr;
    use wyt_minicc::{compile, Profile};

    /// After symbolization + optimization, nothing may reference the
    /// emulated stack: every frame access must go through allocas (the
    /// paper: "we can remove the emulated stack from the lifted binary").
    #[test]
    fn no_emulated_stack_references_remain() {
        let src = r#"
            int helper(int a, int b) {
                int arr[6];
                int i;
                for (i = 0; i < 6; i++) arr[i] = a + i * b;
                return arr[0] + arr[5];
            }
            int main() { return helper(3, 4) & 0x7f; }
        "#;
        for p in [Profile::gcc44_o3(), Profile::gcc12_o3(), Profile::gcc12_o0()] {
            let img = compile(src, &p).unwrap().stripped();
            let out = recompile(&Request::new(&img, &[vec![]], Mode::Wytiwyg)).unwrap();
            for f in &out.module.funcs {
                for b in f.rpo() {
                    for &i in &f.blocks[b.index()].insts {
                        let check = |v: Val| {
                            if let Val::Const(c) = v {
                                assert!(
                                    !is_emustack_addr(c as u32),
                                    "{}: {} in {} still references the emulated stack",
                                    p.name,
                                    wyt_ir::print::inst_to_string(f, i),
                                    f.name
                                );
                            }
                        };
                        match f.inst(i) {
                            InstKind::Load { addr, .. } => check(*addr),
                            InstKind::Store { addr, .. } => check(*addr),
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    /// Recovered signatures become real parameters and return values.
    #[test]
    fn signatures_are_materialized() {
        let src = r#"
            int add3(int a, int b, int c) { return a + b + c; }
            int main() { return add3(10, 20, 12); }
        "#;
        let img = compile(src, &Profile::gcc44_o3()).unwrap();
        let out = recompile(&Request::new(&img.stripped(), &[vec![]], Mode::Wytiwyg)).unwrap();
        let fid = out.lifted_meta.func_by_addr[&img.symbol("add3").unwrap()];
        let f = &out.module.funcs[fid.index()];
        assert_eq!(f.num_params, 3, "three stack arguments recovered");
        // And it returns a value (eax materialized).
        let has_ret_val =
            f.rpo().iter().any(|b| matches!(f.blocks[b.index()].term, wyt_ir::Term::Ret(Some(_))));
        assert!(has_ret_val);
        assert_eq!(wyt_emu::run_image(&out.image, vec![]).exit_code, 42);
    }

    /// Register-convention arguments (regparm statics) become parameters
    /// too — the heuristic-defeating case the dynamic analysis handles.
    #[test]
    fn register_arguments_become_parameters() {
        let src = r#"
            static int mix(int a, int b) {
                int i;
                int acc = b;
                for (i = 0; i < a; i++) acc += i + 1;
                return acc;
            }
            int main() { return mix(4, 2); }
        "#;
        let img = compile(src, &Profile::gcc12_o3()).unwrap();
        let out = recompile(&Request::new(&img.stripped(), &[vec![]], Mode::Wytiwyg)).unwrap();
        let fid = out.lifted_meta.func_by_addr[&img.symbol("mix").unwrap()];
        let f = &out.module.funcs[fid.index()];
        assert!(f.num_params >= 2, "ecx/edx arguments recovered: {}", f.num_params);
        assert_eq!(wyt_emu::run_image(&out.image, vec![]).exit_code, 2 + 1 + 2 + 3 + 4);
    }
}
