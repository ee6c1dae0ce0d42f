//! Dominator-scoped common subexpression elimination for pure operations.

use std::collections::HashMap;
use wyt_ir::verify::dominators;
use wyt_ir::{BlockId, Function, InstKind, Module, Subst, Val};

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Bin(wyt_ir::BinOp, Val, Val),
    Cmp(wyt_ir::CmpOp, Val, Val),
    Ext(bool, wyt_ir::Ty, Val),
    GlobalAddr(wyt_ir::GlobalId),
    FuncAddr(wyt_ir::FuncId),
    Select(Val, Val, Val),
}

fn key_of(kind: &InstKind) -> Option<Key> {
    Some(match kind {
        InstKind::Bin { op, a, b } => {
            // Canonical operand order for commutative ops. Any total
            // order on `Val` matches the same pairs.
            if op.commutative() && a > b {
                Key::Bin(*op, *b, *a)
            } else {
                Key::Bin(*op, *a, *b)
            }
        }
        InstKind::Cmp { op, a, b } => Key::Cmp(*op, *a, *b),
        InstKind::Ext { signed, from, v } => Key::Ext(*signed, *from, *v),
        InstKind::GlobalAddr { g } => Key::GlobalAddr(*g),
        InstKind::FuncAddr { f } => Key::FuncAddr(*f),
        InstKind::Select { c, a, b } => Key::Select(*c, *a, *b),
        _ => return None,
    })
}

/// Run CSE over one function. Returns `true` on change.
pub fn run_function(f: &mut Function) -> bool {
    let mut subst = Subst::new(f);
    let idom = dominators(f);
    let rpo = f.rpo();
    // Children in the dominator tree.
    let mut children: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    for &b in &rpo {
        if b != f.entry {
            if let Some(p) = idom[b.index()] {
                children.entry(p).or_default().push(b);
            }
        }
    }

    let mut changed = false;
    // Preorder DFS over the dominator tree with a scoped table.
    let mut table: HashMap<Key, Val> = HashMap::new();
    let mut stack: Vec<(BlockId, Vec<Key>, usize)> = vec![(f.entry, Vec::new(), 0)];
    // First visit: process block, record inserted keys for scope pop.
    let mut visited = vec![false; f.blocks.len()];
    while let Some((b, inserted, child_idx)) = stack.pop() {
        if !visited[b.index()] {
            visited[b.index()] = true;
            let mut my_inserted = Vec::new();
            for k in 0..f.blocks[b.index()].insts.len() {
                let id = f.blocks[b.index()].insts[k];
                subst.apply(f.inst_mut(id));
                let Some(key) = key_of(f.inst(id)) else { continue };
                match table.get(&key) {
                    Some(&prev) => {
                        *f.inst_mut(id) = InstKind::Copy { v: prev };
                        subst.replace(id, prev);
                        changed = true;
                    }
                    None => {
                        table.insert(key.clone(), Val::Inst(id));
                        my_inserted.push(key);
                    }
                }
            }
            stack.push((b, my_inserted, 0));
            continue;
        }
        // Returning: descend into next child or pop scope.
        let kids = children.get(&b).cloned().unwrap_or_default();
        if child_idx < kids.len() {
            stack.push((b, inserted, child_idx + 1));
            stack.push((kids[child_idx], Vec::new(), 0));
        } else {
            for k in inserted {
                table.remove(&k);
            }
        }
    }
    subst.finish(f);
    changed
}

/// CSE over every function (function-local).
pub fn run(m: &mut Module) -> bool {
    crate::for_each_func(m, run_function)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_ir::{BinOp, Term};

    #[test]
    fn identical_exprs_deduped_within_block() {
        let mut f = Function::new("t");
        f.num_params = 2;
        let a = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Add, a: Val::Param(0), b: Val::Param(1) },
        );
        let b = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Add, a: Val::Param(0), b: Val::Param(1) },
        );
        let c = f
            .push_inst(f.entry, InstKind::Bin { op: BinOp::Mul, a: Val::Inst(a), b: Val::Inst(b) });
        f.blocks[0].term = Term::Ret(Some(Val::Inst(c)));
        assert!(run_function(&mut f));
        let InstKind::Bin { a: ma, b: mb, .. } = f.inst(c) else { panic!() };
        assert_eq!(ma, mb);
    }

    #[test]
    fn commutative_order_is_canonicalized() {
        // `a+b` meets `b+a` for every pairing of instruction results,
        // parameters and constants, whichever order comes first.
        let mut f = Function::new("t");
        f.num_params = 2;
        let x = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Sub, a: Val::Param(0), b: Val::Param(1) },
        );
        let vals = [Val::Inst(x), Val::Param(0), Val::Param(1), Val::Const(-3), Val::Const(7)];
        let mut pairs = Vec::new();
        for (i, &a) in vals.iter().enumerate() {
            for &b in &vals[i + 1..] {
                for op in [BinOp::Add, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Xor] {
                    let ab = f.push_inst(f.entry, InstKind::Bin { op, a, b });
                    let ba = f.push_inst(f.entry, InstKind::Bin { op, a: b, b: a });
                    pairs.push((ab, ba));
                }
            }
        }
        f.blocks[0].term = Term::Ret(Some(Val::Const(0)));
        assert!(run_function(&mut f));
        for (ab, ba) in pairs {
            assert_eq!(*f.inst(ba), InstKind::Copy { v: Val::Inst(ab) });
        }
        // Sub is not commutative: its swapped form stays.
        let sub = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Sub, a: Val::Param(1), b: Val::Param(0) },
        );
        run_function(&mut f);
        assert!(matches!(f.inst(sub), InstKind::Bin { op: BinOp::Sub, .. }));
    }

    #[test]
    fn dominating_def_reused_in_dominated_block() {
        let mut f = Function::new("t");
        f.num_params = 1;
        let next = f.add_block();
        let a = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Add, a: Val::Param(0), b: Val::Const(1) },
        );
        f.blocks[0].term = Term::Br(next);
        let b =
            f.push_inst(next, InstKind::Bin { op: BinOp::Add, a: Val::Param(0), b: Val::Const(1) });
        f.blocks[next.index()].term = Term::Ret(Some(Val::Inst(b)));
        assert!(run_function(&mut f));
        assert_eq!(f.blocks[next.index()].term, Term::Ret(Some(Val::Inst(a))));
        wyt_ir::verify::verify_function(&Module::new(), &f).unwrap();
    }

    #[test]
    fn sibling_branches_do_not_share() {
        // entry -> (t, e); expressions in t must not leak into e.
        let mut f = Function::new("t");
        f.num_params = 1;
        let t = f.add_block();
        let e = f.add_block();
        f.blocks[0].term = Term::CondBr { c: Val::Param(0), t, f: e };
        let x =
            f.push_inst(t, InstKind::Bin { op: BinOp::Add, a: Val::Param(0), b: Val::Const(9) });
        f.blocks[t.index()].term = Term::Ret(Some(Val::Inst(x)));
        let y =
            f.push_inst(e, InstKind::Bin { op: BinOp::Add, a: Val::Param(0), b: Val::Const(9) });
        f.blocks[e.index()].term = Term::Ret(Some(Val::Inst(y)));
        run_function(&mut f);
        // y must NOT have been replaced by x (x does not dominate e).
        assert_eq!(f.blocks[e.index()].term, Term::Ret(Some(Val::Inst(y))));
        assert!(matches!(f.inst(y), InstKind::Bin { .. }));
    }

    #[test]
    fn loads_and_calls_never_cse() {
        let mut f = Function::new("t");
        let a = f.push_inst(f.entry, InstKind::Load { ty: wyt_ir::Ty::I32, addr: Val::Const(8) });
        let b = f.push_inst(f.entry, InstKind::Load { ty: wyt_ir::Ty::I32, addr: Val::Const(8) });
        let c = f
            .push_inst(f.entry, InstKind::Bin { op: BinOp::Sub, a: Val::Inst(a), b: Val::Inst(b) });
        f.blocks[0].term = Term::Ret(Some(Val::Inst(c)));
        assert!(!run_function(&mut f), "loads are not pure for CSE purposes");
    }
}
