//! Memory optimizations: alias analysis, store-to-load forwarding, dead
//! store elimination, and `mem2reg` promotion of allocas.
//!
//! This is where stack symbolization pays off, exactly as the paper argues
//! (§2.1–2.2): before symbolization the lifted program's stack lives in one
//! opaque byte-array global and every access aliases every other, so these
//! passes can do almost nothing. After WYTIWYG partitions the frame into
//! distinct allocas, non-escaping locals provably don't alias anything and
//! loads collapse onto their defining stores.

use std::collections::HashMap;
use wyt_ir::{BinOp, BlockId, Function, GlobalKind, InstId, InstKind, Module, Subst, Ty, Val};

/// The root of a memory address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemBase {
    /// A stack allocation in this function.
    Alloca(InstId),
    /// A constant (data segment / fixed global) address.
    Abs(u32),
    /// A dynamic SSA base value: two locations with the same base and
    /// disjoint constant offsets cannot alias (LLVM basic-aa style).
    Dyn(Val),
    /// Anything else.
    Unknown,
}

/// A resolved memory location: base + constant offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemLoc {
    /// Address root.
    pub base: MemBase,
    /// Constant byte offset from the root.
    pub off: i32,
}

/// Resolve an address value to a location by following constant-offset
/// arithmetic and copies.
pub fn resolve_addr(f: &Function, v: Val) -> MemLoc {
    let mut cur = v;
    let mut off = 0i32;
    for _ in 0..64 {
        match cur {
            Val::Const(c) => return MemLoc { base: MemBase::Abs(c as u32), off },
            Val::Param(p) => return MemLoc { base: MemBase::Dyn(Val::Param(p)), off },
            Val::Inst(i) => match f.inst(i) {
                InstKind::Alloca { .. } => return MemLoc { base: MemBase::Alloca(i), off },
                InstKind::Copy { v } => cur = *v,
                InstKind::Bin { op: BinOp::Add, a, b } => match (a.as_const(), b.as_const()) {
                    (_, Some(c)) => {
                        off = off.wrapping_add(c);
                        cur = *a;
                    }
                    (Some(c), _) => {
                        off = off.wrapping_add(c);
                        cur = *b;
                    }
                    _ => return MemLoc { base: MemBase::Dyn(cur), off },
                },
                InstKind::Bin { op: BinOp::Sub, a, b } => match b.as_const() {
                    Some(c) => {
                        off = off.wrapping_sub(c);
                        cur = *a;
                    }
                    None => return MemLoc { base: MemBase::Dyn(cur), off },
                },
                _ => return MemLoc { base: MemBase::Dyn(cur), off },
            },
        }
    }
    MemLoc { base: MemBase::Dyn(cur), off }
}

/// Per-function escape analysis for allocas: an alloca escapes if any
/// value derived from it is used other than as a load/store address.
pub fn escaped_allocas(f: &Function) -> HashMap<InstId, bool> {
    // Map each instruction to the alloca it (constantly) derives from.
    let mut derives: HashMap<InstId, InstId> = HashMap::new();
    let mut escaped: HashMap<InstId, bool> = HashMap::new();
    let rpo = f.rpo();
    for &b in &rpo {
        for &i in &f.blocks[b.index()].insts {
            match f.inst(i) {
                InstKind::Alloca { .. } => {
                    derives.insert(i, i);
                    escaped.entry(i).or_insert(false);
                }
                InstKind::Copy { v: Val::Inst(s) } => {
                    if let Some(&root) = derives.get(s) {
                        derives.insert(i, root);
                    }
                }
                InstKind::Bin { op: BinOp::Add | BinOp::Sub, a, b } => {
                    let root = match (a, b) {
                        (Val::Inst(s), x) if x.as_const().is_some() => derives.get(s).copied(),
                        (x, Val::Inst(s)) if x.as_const().is_some() => derives.get(s).copied(),
                        _ => None,
                    };
                    if let Some(root) = root {
                        derives.insert(i, root);
                    }
                }
                _ => {}
            }
        }
    }
    // Any use of a derived value outside load/store-address position (or
    // further constant derivation) escapes the root.
    let mark = |v: Val, escaped: &mut HashMap<InstId, bool>| {
        if let Val::Inst(s) = v {
            if let Some(&root) = derives.get(&s) {
                escaped.insert(root, true);
            }
        }
    };
    for &b in &rpo {
        for &i in &f.blocks[b.index()].insts {
            match f.inst(i) {
                InstKind::Load { .. } => {} // address use is fine
                InstKind::Store { val, .. } => mark(*val, &mut escaped),
                InstKind::Copy { .. } => {
                    // Copies propagate derivation when tracked above; a copy
                    // of a derived value we failed to track is conservative
                    // only if used elsewhere, which those uses will catch.
                }
                InstKind::Bin { op: BinOp::Add | BinOp::Sub, a, b }
                    if a.as_const().is_some() || b.as_const().is_some() => {}
                other => other.for_each_operand(|v| mark(v, &mut escaped)),
            }
        }
        f.blocks[b.index()].term.for_each_operand(|v| mark(v, &mut escaped));
    }
    escaped
}

/// Address ranges that guest pointers can never reach (the virtual CPU
/// register cells: the lifter only ever addresses them with constants,
/// exactly like BinRec's out-of-guest vCPU state).
pub fn private_ranges(m: &Module) -> Vec<(u32, u32)> {
    let addrs = wyt_ir::interp::layout_globals(&m.globals);
    m.globals
        .iter()
        .zip(addrs)
        .filter(|(g, _)| matches!(g.kind, GlobalKind::VcpuReg(_)))
        .map(|(g, a)| (a, a + g.size))
        .collect()
}

fn in_private(ranges: &[(u32, u32)], addr: u32, size: u32) -> bool {
    ranges.iter().any(|(lo, hi)| addr >= *lo && addr + size <= *hi)
}

fn may_alias(
    a: (MemLoc, u32),
    b: (MemLoc, u32),
    escaped: &HashMap<InstId, bool>,
    ranges: &[(u32, u32)],
) -> bool {
    let overlap =
        |ao: i32, asz: u32, bo: i32, bsz: u32| ao < bo + bsz as i32 && bo < ao + asz as i32;
    match (a.0.base, b.0.base) {
        (MemBase::Alloca(x), MemBase::Alloca(y)) => x == y && overlap(a.0.off, a.1, b.0.off, b.1),
        (MemBase::Abs(x), MemBase::Abs(y)) => {
            overlap(x as i32 + a.0.off, a.1, y as i32 + b.0.off, b.1)
        }
        // Constant addresses name globals / the data segment; programs in
        // this universe cannot forge stack addresses as literals.
        (MemBase::Alloca(_), MemBase::Abs(_)) | (MemBase::Abs(_), MemBase::Alloca(_)) => false,
        (MemBase::Alloca(x), MemBase::Unknown) | (MemBase::Unknown, MemBase::Alloca(x)) => {
            escaped.get(&x).copied().unwrap_or(true)
        }
        // A constant address inside a private (vCPU) range cannot be
        // reached by a computed guest pointer.
        (MemBase::Abs(x), MemBase::Unknown | MemBase::Dyn(_)) => {
            !in_private(ranges, (x as i32 + a.0.off) as u32, a.1)
        }
        (MemBase::Unknown | MemBase::Dyn(_), MemBase::Abs(y)) => {
            !in_private(ranges, (y as i32 + b.0.off) as u32, b.1)
        }
        // Identical dynamic bases: alias iff the constant offsets overlap.
        (MemBase::Dyn(x), MemBase::Dyn(y)) if x == y => overlap(a.0.off, a.1, b.0.off, b.1),
        (MemBase::Alloca(x), MemBase::Dyn(_)) | (MemBase::Dyn(_), MemBase::Alloca(x)) => {
            escaped.get(&x).copied().unwrap_or(true)
        }
        _ => true,
    }
}

/// Store-to-load forwarding and redundant load elimination, block-local.
pub fn forward_function(f: &mut Function, ranges: &[(u32, u32)]) -> bool {
    let escaped = escaped_allocas(f);
    let mut subst = Subst::new(f);
    let mut changed = false;
    for b in f.rpo() {
        // (loc, ty) -> known value. Operands are resolved before they get
        // here, so every known value is already final.
        let mut avail: Vec<(MemLoc, Ty, Val)> = Vec::new();
        for k in 0..f.blocks[b.index()].insts.len() {
            let id = f.blocks[b.index()].insts[k];
            subst.apply(f.inst_mut(id));
            match *f.inst(id) {
                InstKind::Load { ty, addr } => {
                    let loc = resolve_addr(f, addr);
                    if let Some((_, _, v)) = avail.iter().find(|(l, t, _)| *l == loc && *t == ty) {
                        let v = *v;
                        *f.inst_mut(id) = InstKind::Copy { v };
                        subst.replace(id, v);
                        changed = true;
                        continue;
                    }
                    if loc.base != MemBase::Unknown {
                        avail.push((loc, ty, Val::Inst(id)));
                    }
                }
                InstKind::Store { ty, addr, val } => {
                    let loc = resolve_addr(f, addr);
                    let sz = ty.bytes();
                    avail.retain(|(l, t, _)| {
                        !may_alias((loc, sz), (*l, t.bytes()), &escaped, ranges)
                    });
                    // A narrow store truncates: the stored SSA value is NOT
                    // what a narrow load would return unless it fits the
                    // access width, so only full-width stores forward.
                    let forwardable = match ty {
                        Ty::I32 => true,
                        _ => match val.as_const() {
                            Some(c) => (c as u32) & !ty.mask() == 0,
                            None => false,
                        },
                    };
                    if loc.base != MemBase::Unknown && forwardable {
                        avail.push((loc, ty, val));
                    }
                }
                ref k if k.is_call() => {
                    // Calls may write anything except non-escaping allocas
                    // (vCPU cells included: callees store to them).
                    avail.retain(|(l, _, _)| match l.base {
                        MemBase::Alloca(a) => !escaped.get(&a).copied().unwrap_or(true),
                        _ => false,
                    });
                }
                _ => {}
            }
        }
    }
    subst.finish(f);
    changed
}

/// Block-local dead store elimination.
pub fn dead_stores_function(f: &mut Function, ranges: &[(u32, u32)]) -> bool {
    let escaped = escaped_allocas(f);
    let mut changed = false;
    for b in f.rpo() {
        let insts = f.blocks[b.index()].insts.clone();
        // Walk backward; `overwritten` holds exact locations that will be
        // overwritten before any potential read.
        let mut overwritten: Vec<(MemLoc, Ty)> = Vec::new();
        let mut dead: Vec<InstId> = Vec::new();
        for &id in insts.iter().rev() {
            match f.inst(id).clone() {
                InstKind::Store { ty, addr, .. } => {
                    let loc = resolve_addr(f, addr);
                    if loc.base != MemBase::Unknown
                        && overwritten.iter().any(|(l, t)| *l == loc && *t == ty)
                    {
                        dead.push(id);
                        continue;
                    }
                    if loc.base != MemBase::Unknown {
                        overwritten.push((loc, ty));
                    } else {
                        // Unknown store may read-modify anything? It writes;
                        // conservatively it does not invalidate overwrites
                        // of non-aliasing locations — but Unknown aliases
                        // everything, so clear non-private entries.
                        overwritten.retain(|(l, _)| match l.base {
                            MemBase::Alloca(a) => !escaped.get(&a).copied().unwrap_or(true),
                            _ => false,
                        });
                    }
                }
                InstKind::Load { ty, addr } => {
                    let loc = resolve_addr(f, addr);
                    let sz = ty.bytes();
                    overwritten
                        .retain(|(l, t)| !may_alias((loc, sz), (*l, t.bytes()), &escaped, ranges));
                }
                k if k.is_call() => {
                    // A call may read anything except non-escaping allocas.
                    overwritten.retain(|(l, _)| match l.base {
                        MemBase::Alloca(a) => !escaped.get(&a).copied().unwrap_or(true),
                        _ => false,
                    });
                }
                _ => {}
            }
        }
        if !dead.is_empty() {
            f.blocks[b.index()].insts.retain(|i| !dead.contains(i));
            changed = true;
        }
    }
    changed
}

/// Promote non-escaping, directly addressed 4-byte allocas to SSA values.
pub fn mem2reg_function(f: &mut Function) -> bool {
    let escaped = escaped_allocas(f);
    let rpo = f.rpo();

    // Find promotable allocas: every use is a Load/Store i32 whose address
    // is *exactly* the alloca value.
    let mut candidates: Vec<InstId> = Vec::new();
    let mut disqualified: HashMap<InstId, bool> = HashMap::new();
    for &b in &rpo {
        for &i in &f.blocks[b.index()].insts {
            if let InstKind::Alloca { size, .. } = f.inst(i) {
                if *size == 4 && !escaped.get(&i).copied().unwrap_or(true) {
                    candidates.push(i);
                }
            }
        }
    }
    for &b in &rpo {
        for &i in &f.blocks[b.index()].insts {
            let check = |v: Val, dq: &mut HashMap<InstId, bool>| {
                if let Val::Inst(s) = v {
                    dq.insert(s, true);
                }
            };
            match f.inst(i) {
                InstKind::Load { ty: Ty::I32, addr } => {
                    // Direct address use is fine; anything else about the
                    // operand set of a load is just the address.
                    if addr.as_inst().is_none() {
                        // constant address: irrelevant
                    }
                }
                InstKind::Load { addr, .. } => check(*addr, &mut disqualified),
                InstKind::Store { ty: Ty::I32, addr, val } => {
                    let _ = addr;
                    check(*val, &mut disqualified);
                }
                InstKind::Store { addr, val, .. } => {
                    check(*addr, &mut disqualified);
                    check(*val, &mut disqualified);
                }
                other => other.for_each_operand(|v| check(v, &mut disqualified)),
            }
        }
        f.blocks[b.index()].term.for_each_operand(|v| check_term(v, &mut disqualified));
    }
    fn check_term(v: Val, dq: &mut HashMap<InstId, bool>) {
        if let Val::Inst(s) = v {
            dq.insert(s, true);
        }
    }
    candidates.retain(|c| !disqualified.get(c).copied().unwrap_or(false));
    if candidates.is_empty() {
        return false;
    }
    let cand_index: HashMap<InstId, usize> =
        candidates.iter().enumerate().map(|(k, v)| (*v, k)).collect();

    // Maximal-phi SSA construction: one phi per (block, alloca) for blocks
    // with predecessors; DCE and phi simplification clean the rest.
    let preds = f.preds();
    let n = candidates.len();
    let mut phi_of: HashMap<(BlockId, usize), InstId> = HashMap::new();
    for &b in &rpo {
        if b == f.entry || preds[b.index()].is_empty() {
            continue;
        }
        for k in 0..n {
            let phi = f.add_inst(InstKind::Phi { incomings: Vec::new() });
            phi_of.insert((b, k), phi);
        }
    }

    // Rewrite block bodies, collecting out-values.
    let mut out_vals: HashMap<(BlockId, usize), Val> = HashMap::new();
    for &b in &rpo {
        let mut cur: Vec<Val> = (0..n)
            .map(|k| match phi_of.get(&(b, k)) {
                Some(&p) => Val::Inst(p),
                None => Val::Const(0), // entry / no preds: uninitialized
            })
            .collect();
        let insts = f.blocks[b.index()].insts.clone();
        let mut new_insts = Vec::with_capacity(insts.len());
        for id in insts {
            match f.inst(id).clone() {
                InstKind::Load { ty: Ty::I32, addr: Val::Inst(a) }
                    if cand_index.contains_key(&a) =>
                {
                    let k = cand_index[&a];
                    *f.inst_mut(id) = InstKind::Copy { v: cur[k] };
                    new_insts.push(id);
                }
                InstKind::Store { ty: Ty::I32, addr: Val::Inst(a), val }
                    if cand_index.contains_key(&a) =>
                {
                    let k = cand_index[&a];
                    cur[k] = val;
                    // Store removed entirely.
                }
                _ => new_insts.push(id),
            }
        }
        // Prepend this block's phis.
        let mut with_phis: Vec<InstId> =
            (0..n).filter_map(|k| phi_of.get(&(b, k)).copied()).collect();
        with_phis.extend(new_insts);
        f.blocks[b.index()].insts = with_phis;
        for (k, v) in cur.into_iter().enumerate() {
            out_vals.insert((b, k), v);
        }
    }

    // Fill phi incomings from predecessors.
    for (&(b, k), &phi) in &phi_of {
        let incomings: Vec<(BlockId, Val)> = preds[b.index()]
            .iter()
            .map(|&p| (p, out_vals.get(&(p, k)).copied().unwrap_or(Val::Const(0))))
            .collect();
        *f.inst_mut(phi) = InstKind::Phi { incomings };
    }

    // The allocas themselves are now unused; DCE removes them.
    true
}

/// Forwarding, dead-store elimination and mem2reg for one function.
/// `ranges` is the module-level [`private_ranges`] precomputation.
pub fn run_function(f: &mut Function, ranges: &[(u32, u32)]) -> bool {
    forward_function(f, ranges) | dead_stores_function(f, ranges) | mem2reg_function(f)
}

/// Run forwarding, dead-store elimination and mem2reg over a module:
/// one module-level alias precomputation, then a function-local sweep.
pub fn run(m: &mut Module) -> bool {
    let ranges = private_ranges(m);
    crate::for_each_func(m, |f| run_function(f, &ranges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_ir::verify::verify_module;
    use wyt_ir::{CmpOp, Module, Term};

    fn check(f: Function) -> Module {
        let mut m = Module::new();
        let id = m.add_func(f);
        m.entry = Some(id);
        verify_module(&m).unwrap();
        m
    }

    #[test]
    fn forwards_store_to_load_through_alloca() {
        let mut f = Function::new("t");
        let a = f.push_inst(f.entry, InstKind::Alloca { size: 4, align: 4, name: "x".into() });
        f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(a), val: Val::Const(7) },
        );
        let l = f.push_inst(f.entry, InstKind::Load { ty: Ty::I32, addr: Val::Inst(a) });
        f.blocks[0].term = Term::Ret(Some(Val::Inst(l)));
        assert!(forward_function(&mut f, &[]));
        assert_eq!(f.blocks[0].term, Term::Ret(Some(Val::Const(7))));
        check(f);
    }

    #[test]
    fn forwarded_value_is_resolved_before_it_is_forwarded_again() {
        // `l1` forwards to 7; the store of `l1` must then make `7`, not the
        // replaced `l1`, the known value that `l2` forwards to.
        let mut f = Function::new("t");
        let a = f.push_inst(f.entry, InstKind::Alloca { size: 4, align: 4, name: "a".into() });
        let b = f.push_inst(f.entry, InstKind::Alloca { size: 4, align: 4, name: "b".into() });
        f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(a), val: Val::Const(7) },
        );
        let l1 = f.push_inst(f.entry, InstKind::Load { ty: Ty::I32, addr: Val::Inst(a) });
        let st = f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(b), val: Val::Inst(l1) },
        );
        let l2 = f.push_inst(f.entry, InstKind::Load { ty: Ty::I32, addr: Val::Inst(b) });
        f.blocks[0].term = Term::Ret(Some(Val::Inst(l2)));
        assert!(forward_function(&mut f, &[]));
        assert_eq!(*f.inst(l2), InstKind::Copy { v: Val::Const(7) });
        assert_eq!(
            *f.inst(st),
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(b), val: Val::Const(7) }
        );
        assert_eq!(f.blocks[0].term, Term::Ret(Some(Val::Const(7))));
        check(f);
    }

    #[test]
    fn distinct_allocas_do_not_alias() {
        let mut f = Function::new("t");
        let a = f.push_inst(f.entry, InstKind::Alloca { size: 4, align: 4, name: "a".into() });
        let b = f.push_inst(f.entry, InstKind::Alloca { size: 4, align: 4, name: "b".into() });
        f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(a), val: Val::Const(1) },
        );
        f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(b), val: Val::Const(2) },
        );
        let l = f.push_inst(f.entry, InstKind::Load { ty: Ty::I32, addr: Val::Inst(a) });
        f.blocks[0].term = Term::Ret(Some(Val::Inst(l)));
        assert!(forward_function(&mut f, &[]));
        assert_eq!(f.blocks[0].term, Term::Ret(Some(Val::Const(1))));
    }

    #[test]
    fn unknown_store_kills_escaped_but_not_private() {
        let mut m = Module::new();
        // callee(p) stores through its parameter.
        let mut callee = Function::new("c");
        callee.num_params = 1;
        callee.push_inst(
            callee.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Param(0), val: Val::Const(9) },
        );
        callee.blocks[0].term = Term::Ret(None);
        let cid = m.add_func(callee);

        let mut f = Function::new("t");
        let private =
            f.push_inst(f.entry, InstKind::Alloca { size: 4, align: 4, name: "p".into() });
        let public = f.push_inst(f.entry, InstKind::Alloca { size: 4, align: 4, name: "q".into() });
        f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(private), val: Val::Const(1) },
        );
        f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(public), val: Val::Const(2) },
        );
        f.push_inst(f.entry, InstKind::Call { f: cid, args: vec![Val::Inst(public)] });
        let l1 = f.push_inst(f.entry, InstKind::Load { ty: Ty::I32, addr: Val::Inst(private) });
        let l2 = f.push_inst(f.entry, InstKind::Load { ty: Ty::I32, addr: Val::Inst(public) });
        let s = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Add, a: Val::Inst(l1), b: Val::Inst(l2) },
        );
        f.blocks[0].term = Term::Ret(Some(Val::Inst(s)));

        let escaped = escaped_allocas(&f);
        assert_eq!(escaped.get(&private), Some(&false));
        assert_eq!(escaped.get(&public), Some(&true));

        assert!(forward_function(&mut f, &[]));
        // l1 must be folded to 1; l2 must remain a load.
        assert!(matches!(f.inst(l1), InstKind::Copy { v: Val::Const(1) }));
        assert!(matches!(f.inst(l2), InstKind::Load { .. }));
        m.add_func(f);
        verify_module(&m).unwrap();
    }

    #[test]
    fn dead_store_removed_when_overwritten() {
        let mut f = Function::new("t");
        let a = f.push_inst(f.entry, InstKind::Alloca { size: 4, align: 4, name: "x".into() });
        let s1 = f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(a), val: Val::Const(1) },
        );
        f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(a), val: Val::Const(2) },
        );
        let l = f.push_inst(f.entry, InstKind::Load { ty: Ty::I32, addr: Val::Inst(a) });
        f.blocks[0].term = Term::Ret(Some(Val::Inst(l)));
        assert!(dead_stores_function(&mut f, &[]));
        assert!(!f.blocks[0].insts.contains(&s1));
    }

    #[test]
    fn mem2reg_promotes_through_loop() {
        // x = 0; while (x != 5) x = x + 1; return x;
        let mut f = Function::new("t");
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let a = f.push_inst(f.entry, InstKind::Alloca { size: 4, align: 4, name: "x".into() });
        f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(a), val: Val::Const(0) },
        );
        f.blocks[0].term = Term::Br(header);
        let l = f.push_inst(header, InstKind::Load { ty: Ty::I32, addr: Val::Inst(a) });
        let c =
            f.push_inst(header, InstKind::Cmp { op: CmpOp::Ne, a: Val::Inst(l), b: Val::Const(5) });
        f.blocks[header.index()].term = Term::CondBr { c: Val::Inst(c), t: body, f: exit };
        let l2 = f.push_inst(body, InstKind::Load { ty: Ty::I32, addr: Val::Inst(a) });
        let inc =
            f.push_inst(body, InstKind::Bin { op: BinOp::Add, a: Val::Inst(l2), b: Val::Const(1) });
        f.push_inst(body, InstKind::Store { ty: Ty::I32, addr: Val::Inst(a), val: Val::Inst(inc) });
        f.blocks[body.index()].term = Term::Br(header);
        let l3 = f.push_inst(exit, InstKind::Load { ty: Ty::I32, addr: Val::Inst(a) });
        f.blocks[exit.index()].term = Term::Ret(Some(Val::Inst(l3)));

        assert!(mem2reg_function(&mut f));
        let m = check(f);
        // No loads/stores of the alloca remain.
        let f = &m.funcs[0];
        for b in f.rpo() {
            for &i in &f.blocks[b.index()].insts {
                assert!(
                    !matches!(f.inst(i), InstKind::Load { addr: Val::Inst(x), .. } | InstKind::Store { addr: Val::Inst(x), .. } if *x == wyt_ir::InstId(0))
                );
            }
        }
        // And it still computes 5.
        let out = wyt_ir::interp::Interp::new(&m, vec![], wyt_ir::interp::NoHooks).run();
        assert_eq!(out.exit_code, 5);
    }

    #[test]
    fn escaped_alloca_not_promoted() {
        let mut m = Module::new();
        let mut callee = Function::new("c");
        callee.num_params = 1;
        callee.blocks[0].term = Term::Ret(None);
        let cid = m.add_func(callee);
        let mut f = Function::new("t");
        let a = f.push_inst(f.entry, InstKind::Alloca { size: 4, align: 4, name: "x".into() });
        f.push_inst(f.entry, InstKind::Call { f: cid, args: vec![Val::Inst(a)] });
        let l = f.push_inst(f.entry, InstKind::Load { ty: Ty::I32, addr: Val::Inst(a) });
        f.blocks[0].term = Term::Ret(Some(Val::Inst(l)));
        assert!(!mem2reg_function(&mut f));
    }

    #[test]
    fn resolve_addr_follows_chains() {
        let mut f = Function::new("t");
        let a = f.push_inst(f.entry, InstKind::Alloca { size: 16, align: 4, name: "arr".into() });
        let p1 = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Add, a: Val::Inst(a), b: Val::Const(8) },
        );
        let p2 = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Sub, a: Val::Inst(p1), b: Val::Const(4) },
        );
        f.blocks[0].term = Term::Ret(None);
        assert_eq!(resolve_addr(&f, Val::Inst(p2)), MemLoc { base: MemBase::Alloca(a), off: 4 });
        assert_eq!(
            resolve_addr(&f, Val::Const(0x400010)),
            MemLoc { base: MemBase::Abs(0x400010), off: 0 }
        );
    }
}
