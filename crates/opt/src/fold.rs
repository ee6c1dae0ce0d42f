//! Constant folding, algebraic simplification and terminator folding.

use wyt_ir::{BinOp, BlockId, Function, InstId, InstKind, Module, Subst, Term, Ty, Val};

/// Fold constants in one function. Returns `true` if anything changed,
/// counting every use a propagated copy rewrote.
pub fn run_function(f: &mut Function) -> bool {
    let mut subst = Subst::new(f);
    let mut changed = false;
    for b in f.rpo() {
        for k in 0..f.blocks[b.index()].insts.len() {
            let id = f.blocks[b.index()].insts[k];
            changed |= subst.apply(f.inst_mut(id));
            if let Some(new) = fold_inst(id, f.inst(id)) {
                *f.inst_mut(id) = new;
                changed = true;
            }
            // Copy propagation: later uses of this inst resolve to its source.
            if let InstKind::Copy { v } = *f.inst(id) {
                subst.replace(id, v);
            }
        }
        changed |= subst.apply_term(&mut f.blocks[b.index()].term);
        changed |= fold_term(f, b);
    }
    // `|`, not `||`: the rewrite must run even when `changed` is set.
    changed | subst.finish(f)
}

/// The folded form of instruction `id`, if it has one.
fn fold_inst(id: InstId, kind: &InstKind) -> Option<InstKind> {
    match kind {
        InstKind::Bin { op, a, b } => fold_bin(*op, *a, *b),
        InstKind::Cmp { op, a, b } => match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => {
                Some(InstKind::Copy { v: Val::Const(op.eval(x as u32, y as u32) as i32) })
            }
            _ => None,
        },
        InstKind::Ext { signed, from, v } => v.as_const().map(|c| {
            let masked = c as u32 & from.mask();
            let out = if *signed {
                let bits = from.bytes() * 8;
                (((masked as i32) << (32 - bits)) >> (32 - bits)) as u32
            } else {
                masked
            };
            InstKind::Copy { v: Val::Const(out as i32) }
        }),
        InstKind::Select { c, a, b } => match c.as_const() {
            Some(cv) => Some(InstKind::Copy { v: if cv != 0 { *a } else { *b } }),
            None if a == b => Some(InstKind::Copy { v: *a }),
            None => None,
        },
        InstKind::Phi { incomings } => {
            // All incomings identical (ignoring self-references).
            let mut uniq: Option<Val> = None;
            for (_, v) in incomings {
                if *v == Val::Inst(id) {
                    continue;
                }
                match uniq {
                    None => uniq = Some(*v),
                    Some(u) if u == *v => {}
                    _ => return None,
                }
            }
            uniq.map(|v| InstKind::Copy { v })
        }
        _ => None,
    }
}

/// Fold block `b`'s terminator on a constant or degenerate condition.
/// Returns `true` if it changed.
fn fold_term(f: &mut Function, b: BlockId) -> bool {
    let term = &f.blocks[b.index()].term;
    let new_term = match term {
        Term::CondBr { c, t, f: fl } => match c.as_const() {
            Some(cv) => Term::Br(if cv != 0 { *t } else { *fl }),
            None if t == fl => Term::Br(*t),
            None => return false,
        },
        Term::Switch { v, cases, default } => match v.as_const() {
            Some(cv) => {
                let target =
                    cases.iter().find(|(c, _)| *c == cv).map(|(_, b)| *b).unwrap_or(*default);
                Term::Br(target)
            }
            None if cases.is_empty() => Term::Br(*default),
            None => return false,
        },
        _ => return false,
    };
    // Folding a terminator can drop CFG edges; phis in successors we
    // no longer branch to must forget this block, or the verifier's
    // incomings == predecessors invariant breaks.
    let mut new_succs = Vec::new();
    new_term.for_each_succ(|s| new_succs.push(s));
    let mut old_succs = Vec::new();
    term.for_each_succ(|s| old_succs.push(s));
    for s in old_succs {
        if new_succs.contains(&s) {
            continue;
        }
        for k in 0..f.blocks[s.index()].insts.len() {
            let id = f.blocks[s.index()].insts[k];
            if let InstKind::Phi { incomings } = f.inst_mut(id) {
                incomings.retain(|(p, _)| *p != b);
            }
        }
    }
    f.blocks[b.index()].term = new_term;
    true
}

fn fold_bin(op: BinOp, a0: Val, b0: Val) -> Option<InstKind> {
    if let (Some(x), Some(y)) = (a0.as_const(), b0.as_const()) {
        if let Some(r) = op.eval(x as u32, y as u32) {
            return Some(InstKind::Copy { v: Val::Const(r as i32) });
        }
        return None; // division trap must stay
    }
    // Canonicalize constants to the right for commutative ops.
    let swapped = op.commutative() && a0.as_const().is_some() && b0.as_const().is_none();
    let (a, b) = if swapped { (b0, a0) } else { (a0, b0) };
    let copy = |v: Val| Some(InstKind::Copy { v });
    let simplified = match (op, b.as_const()) {
        (
            BinOp::Add
            | BinOp::Sub
            | BinOp::Or
            | BinOp::Xor
            | BinOp::Shl
            | BinOp::ShrL
            | BinOp::ShrA,
            Some(0),
        ) => copy(a),
        (BinOp::Mul, Some(1)) | (BinOp::DivS, Some(1)) => copy(a),
        (BinOp::Mul, Some(0)) | (BinOp::And, Some(0)) => copy(Val::Const(0)),
        (BinOp::And, Some(-1)) => copy(a),
        _ => {
            if (op == BinOp::Sub || op == BinOp::Xor) && a == b {
                copy(Val::Const(0))
            } else {
                None
            }
        }
    };
    simplified.or_else(|| {
        // Report the canonicalized order only when it actually changed,
        // otherwise the pass would claim progress forever.
        swapped.then_some(InstKind::Bin { op, a, b })
    })
}

/// Reassociate `(v + c1) + c2` chains; separate because it needs access to
/// defining instructions.
pub fn reassociate(f: &mut Function) -> bool {
    let mut changed = false;
    for b in f.rpo() {
        let insts = f.blocks[b.index()].insts.clone();
        for id in insts {
            let InstKind::Bin { op: BinOp::Add, a, b: c2 } = f.inst(id).clone() else {
                continue;
            };
            let Some(c2v) = c2.as_const() else { continue };
            let Some(inner) = a.as_inst() else { continue };
            match f.inst(inner).clone() {
                InstKind::Bin { op: BinOp::Add, a: v, b: c1 } => {
                    if let Some(c1v) = c1.as_const() {
                        *f.inst_mut(id) = InstKind::Bin {
                            op: BinOp::Add,
                            a: v,
                            b: Val::Const(c1v.wrapping_add(c2v)),
                        };
                        changed = true;
                    }
                }
                InstKind::Bin { op: BinOp::Sub, a: v, b: c1 } => {
                    if let Some(c1v) = c1.as_const() {
                        *f.inst_mut(id) = InstKind::Bin {
                            op: BinOp::Add,
                            a: v,
                            b: Val::Const(c2v.wrapping_sub(c1v)),
                        };
                        changed = true;
                    }
                }
                _ => {}
            }
        }
    }
    changed
}

/// Narrow-load/ext simplification: `Ext(zext/sext, Load)` patterns keep the
/// load but drop redundant double-extensions.
pub fn simplify_ext(f: &mut Function) -> bool {
    let mut changed = false;
    for b in f.rpo() {
        let insts = f.blocks[b.index()].insts.clone();
        for id in insts {
            let InstKind::Ext { signed: false, from, v } = f.inst(id).clone() else {
                continue;
            };
            // zext(from, x) where x is a Load of width <= from: already
            // zero-extended by the load semantics.
            if let Some(src) = v.as_inst() {
                if let InstKind::Load { ty, .. } = f.inst(src) {
                    if ty.bytes() <= from.bytes() {
                        *f.inst_mut(id) = InstKind::Copy { v };
                        changed = true;
                        continue;
                    }
                }
                // zext(from, zext(from2, x)) with from2 <= from.
                if let InstKind::Ext { signed: false, from: f2, .. } = f.inst(src) {
                    if f2.bytes() <= from.bytes() {
                        *f.inst_mut(id) = InstKind::Copy { v };
                        changed = true;
                    }
                }
            } else if let Val::Const(c) = v {
                let masked = (c as u32) & from.mask();
                *f.inst_mut(id) = InstKind::Copy { v: Val::Const(masked as i32) };
                changed = true;
            }
        }
    }
    changed
}

/// Run all folding sub-passes over a module once (function-local).
pub fn run(m: &mut Module) -> bool {
    crate::for_each_func(m, |f| run_function(f) | reassociate(f) | simplify_ext(f))
}

/// Width helper re-export for tests.
pub fn ty_bits(ty: Ty) -> u32 {
    ty.bytes() * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_ir::{CmpOp, Function};

    /// The sequential substitution `run_function` used before [`Subst`]:
    /// rewrite every use of `from` in the whole arena and in every
    /// terminator at once. Returns the number of uses rewritten.
    fn replace_all_uses(f: &mut Function, from: Val, to: Val) -> usize {
        let mut n = 0;
        let mut swap = |v: &mut Val| {
            if *v == from {
                *v = to;
                n += 1;
            }
        };
        for kind in &mut f.insts {
            kind.for_each_operand_mut(&mut swap);
        }
        for block in &mut f.blocks {
            block.term.for_each_operand_mut(&mut swap);
        }
        n
    }

    /// `run_function` with eager substitution: each copy rewrites all of
    /// its uses the moment the sweep meets it.
    fn eager_run_function(f: &mut Function) -> bool {
        let mut changed = false;
        for b in f.rpo() {
            for id in f.blocks[b.index()].insts.clone() {
                if let Some(new) = fold_inst(id, f.inst(id)) {
                    *f.inst_mut(id) = new;
                    changed = true;
                }
                if let InstKind::Copy { v } = *f.inst(id) {
                    if v != Val::Inst(id) && replace_all_uses(f, Val::Inst(id), v) > 0 {
                        changed = true;
                    }
                }
            }
            changed |= fold_term(f, b);
        }
        changed
    }

    /// Sweep `f` to a fixpoint with both substitutions, asserting after
    /// every sweep that they leave the same function and report the same
    /// `changed`. Returns the final function and the first sweep's flag.
    fn same_as_eager(f: Function) -> (Function, bool) {
        let (mut lazy, mut eager) = (f.clone(), f);
        let mut first = None;
        for sweep in 0..8 {
            let (cl, ce) = (run_function(&mut lazy), eager_run_function(&mut eager));
            assert_eq!(format!("{lazy:?}"), format!("{eager:?}"), "sweep {sweep}");
            assert_eq!(cl, ce, "sweep {sweep}: changed");
            first.get_or_insert(cl);
            if !cl {
                break;
            }
        }
        (lazy, first.unwrap())
    }

    #[test]
    fn substitutes_a_copy_of_a_copy() {
        let mut f = Function::new("t");
        f.num_params = 1;
        let a = f.push_inst(f.entry, InstKind::Copy { v: Val::Param(0) });
        let b = f.push_inst(f.entry, InstKind::Copy { v: Val::Inst(a) });
        let c = f
            .push_inst(f.entry, InstKind::Bin { op: BinOp::Mul, a: Val::Inst(b), b: Val::Inst(a) });
        f.blocks[0].term = Term::Ret(Some(Val::Inst(c)));
        let (f, changed) = same_as_eager(f);
        assert!(changed);
        assert_eq!(
            *f.inst(c),
            InstKind::Bin { op: BinOp::Mul, a: Val::Param(0), b: Val::Param(0) }
        );
    }

    /// Loop header `h` with a phi over a value `w` its latch defines; the
    /// exit uses both.
    fn back_edge_loop(w_kind: impl FnOnce(Val) -> InstKind, self_incoming: bool) -> Function {
        let mut f = Function::new("t");
        f.num_params = 1;
        let h = f.add_block();
        let latch = f.add_block();
        let exit = f.add_block();
        f.blocks[0].term = Term::Br(h);
        let p = f.add_inst(InstKind::Phi { incomings: Vec::new() });
        f.blocks[h.index()].insts.push(p);
        f.blocks[h.index()].term = Term::CondBr { c: Val::Param(0), t: latch, f: exit };
        let w = f.push_inst(latch, w_kind(Val::Inst(p)));
        f.blocks[latch.index()].term = Term::Br(h);
        let back = if self_incoming { Val::Inst(p) } else { Val::Inst(w) };
        *f.inst_mut(p) = InstKind::Phi { incomings: vec![(f.entry, Val::Inst(w)), (latch, back)] };
        let sum =
            f.push_inst(exit, InstKind::Bin { op: BinOp::Add, a: Val::Inst(p), b: Val::Inst(w) });
        f.blocks[exit.index()].term = Term::Ret(Some(Val::Inst(sum)));
        f
    }

    #[test]
    fn substitutes_a_copy_whose_source_comes_later_in_rpo() {
        // The header phi folds to a copy of the latch's `w` before the
        // sweep reaches `w`, which is itself a copy of a parameter.
        let f = back_edge_loop(|_| InstKind::Copy { v: Val::Param(0) }, false);
        let (f, changed) = same_as_eager(f);
        assert!(changed);
        assert_eq!(f.blocks[3].term, Term::Ret(Some(Val::Inst(InstId(2)))));
        assert_eq!(
            *f.inst(InstId(2)),
            InstKind::Bin { op: BinOp::Add, a: Val::Param(0), b: Val::Param(0) }
        );
    }

    #[test]
    fn substitutes_a_phi_that_becomes_a_self_referencing_copy() {
        // `p = phi(w, w)` folds to `copy w`, which turns `w = copy p`
        // into `copy w`; the same with `p`'s back edge naming `p` itself.
        for self_incoming in [false, true] {
            let f = back_edge_loop(|p| InstKind::Copy { v: p }, self_incoming);
            let (f, changed) = same_as_eager(f);
            assert!(changed);
            let w = Val::Inst(InstId(1));
            assert_eq!(*f.inst(InstId(0)), InstKind::Copy { v: w });
            assert_eq!(*f.inst(InstId(1)), InstKind::Copy { v: w }, "self-referencing copy");
        }
    }

    #[test]
    fn substitutes_into_dead_entries_and_unreachable_terminators() {
        // The copy's only uses are an orphaned arena entry and an
        // unreachable block: no visited operand changes, yet the sweep
        // rewrites them and reports the change.
        let mut f = Function::new("t");
        f.num_params = 1;
        let c = f.push_inst(f.entry, InstKind::Copy { v: Val::Param(0) });
        f.blocks[0].term = Term::Ret(Some(Val::Const(0)));
        let orphan =
            f.add_inst(InstKind::Bin { op: BinOp::Add, a: Val::Inst(c), b: Val::Const(1) });
        let lost = f.add_block();
        let inner =
            f.push_inst(lost, InstKind::Bin { op: BinOp::Add, a: Val::Inst(c), b: Val::Const(2) });
        f.blocks[lost.index()].term = Term::Ret(Some(Val::Inst(c)));
        let (f, changed) = same_as_eager(f);
        assert!(changed);
        assert_eq!(f.blocks[lost.index()].term, Term::Ret(Some(Val::Param(0))));
        for id in [orphan, inner] {
            let InstKind::Bin { a, .. } = f.inst(id) else { panic!() };
            assert_eq!(*a, Val::Param(0));
        }
    }

    fn f_with(build: impl FnOnce(&mut Function) -> Val) -> Function {
        let mut f = Function::new("t");
        let v = build(&mut f);
        f.blocks[0].term = Term::Ret(Some(v));
        f
    }

    #[test]
    fn folds_constant_chains() {
        let mut f = f_with(|f| {
            let a = f.push_inst(
                f.entry,
                InstKind::Bin { op: BinOp::Add, a: Val::Const(2), b: Val::Const(3) },
            );
            let b = f.push_inst(
                f.entry,
                InstKind::Bin { op: BinOp::Mul, a: Val::Inst(a), b: Val::Const(4) },
            );
            Val::Inst(b)
        });
        while run_function(&mut f) {}
        assert_eq!(f.blocks[0].term, Term::Ret(Some(Val::Const(20))));
    }

    #[test]
    fn folds_cmp_and_condbr() {
        let mut f = Function::new("t");
        let t = f.add_block();
        let e = f.add_block();
        let c = f.push_inst(
            f.entry,
            InstKind::Cmp { op: CmpOp::SLt, a: Val::Const(1), b: Val::Const(2) },
        );
        f.blocks[0].term = Term::CondBr { c: Val::Inst(c), t, f: e };
        f.blocks[t.index()].term = Term::Ret(Some(Val::Const(1)));
        f.blocks[e.index()].term = Term::Ret(Some(Val::Const(0)));
        while run_function(&mut f) {}
        assert_eq!(f.blocks[0].term, Term::Br(t));
    }

    #[test]
    fn folded_condbr_updates_phis_in_dropped_successor() {
        // entry --(const cond)--> t, with the dropped edge entry -> join;
        // join stays reachable through t and carries a phi naming entry.
        // Folding the CondBr must remove that incoming, or the verifier's
        // incomings == predecessors invariant breaks. (Found by the
        // differential oracle on a generated program.)
        let mut f = Function::new("t");
        let t = f.add_block();
        let join = f.add_block();
        f.blocks[0].term = Term::CondBr { c: Val::Const(1), t, f: join };
        f.blocks[t.index()].term = Term::Br(join);
        let phi = f.push_inst(
            join,
            InstKind::Phi {
                incomings: vec![(wyt_ir::BlockId(0), Val::Const(10)), (t, Val::Const(20))],
            },
        );
        f.blocks[join.index()].term = Term::Ret(Some(Val::Inst(phi)));
        assert!(run_function(&mut f));
        assert_eq!(f.blocks[0].term, Term::Br(t));
        match f.inst(phi) {
            InstKind::Phi { incomings } => {
                assert_eq!(incomings.len(), 1);
                assert_eq!(incomings[0].0, t);
            }
            // A later fold round may collapse the single-input phi entirely.
            InstKind::Copy { v } => assert_eq!(*v, Val::Const(20)),
            other => panic!("unexpected: {other:?}"),
        }
        let mut m = Module::new();
        m.add_func(f);
        wyt_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn keeps_division_traps() {
        let mut f = f_with(|f| {
            let d = f.push_inst(
                f.entry,
                InstKind::Bin { op: BinOp::DivS, a: Val::Const(1), b: Val::Const(0) },
            );
            Val::Inst(d)
        });
        run_function(&mut f);
        assert!(matches!(f.inst(wyt_ir::InstId(0)), InstKind::Bin { op: BinOp::DivS, .. }));
    }

    #[test]
    fn reassociates_add_chains() {
        let mut f = f_with(|f| {
            let a = f.push_inst(
                f.entry,
                InstKind::Bin { op: BinOp::Add, a: Val::Param(0), b: Val::Const(4) },
            );
            let b = f.push_inst(
                f.entry,
                InstKind::Bin { op: BinOp::Add, a: Val::Inst(a), b: Val::Const(8) },
            );
            Val::Inst(b)
        });
        f.num_params = 1;
        assert!(reassociate(&mut f));
        assert_eq!(
            *f.inst(wyt_ir::InstId(1)),
            InstKind::Bin { op: BinOp::Add, a: Val::Param(0), b: Val::Const(12) }
        );
    }

    #[test]
    fn identity_simplifications() {
        let mut f = f_with(|f| {
            let a = f.push_inst(
                f.entry,
                InstKind::Bin { op: BinOp::Add, a: Val::Param(0), b: Val::Const(0) },
            );
            let b = f.push_inst(
                f.entry,
                InstKind::Bin { op: BinOp::Xor, a: Val::Inst(a), b: Val::Inst(a) },
            );
            Val::Inst(b)
        });
        f.num_params = 1;
        while run_function(&mut f) {}
        assert_eq!(f.blocks[0].term, Term::Ret(Some(Val::Const(0))));
    }

    #[test]
    fn zext_of_narrow_load_removed() {
        let mut f = f_with(|f| {
            let l = f.push_inst(f.entry, InstKind::Load { ty: Ty::I8, addr: Val::Const(64) });
            let e = f
                .push_inst(f.entry, InstKind::Ext { signed: false, from: Ty::I8, v: Val::Inst(l) });
            Val::Inst(e)
        });
        assert!(simplify_ext(&mut f));
        assert!(matches!(f.inst(wyt_ir::InstId(1)), InstKind::Copy { .. }));
        assert_eq!(ty_bits(Ty::I16), 16);
    }
}
