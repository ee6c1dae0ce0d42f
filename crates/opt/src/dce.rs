//! Dead code elimination: mark-and-sweep liveness over instruction results
//! (handles dead phi cycles), plus removal of orphaned instructions from
//! blocks.

use std::collections::VecDeque;
use wyt_ir::{Function, InstKind, Module, Val};

/// Remove dead instructions from one function. Returns `true` on change.
pub fn run_function(f: &mut Function) -> bool {
    let rpo = f.rpo();
    let mut live = vec![false; f.insts.len()];
    let mut work = VecDeque::new();

    let mark = |v: Val, live: &mut Vec<bool>, work: &mut VecDeque<wyt_ir::InstId>| {
        if let Val::Inst(i) = v {
            if !live[i.index()] {
                live[i.index()] = true;
                work.push_back(i);
            }
        }
    };

    // Roots: side-effecting instructions and terminator operands.
    for &b in &rpo {
        for &i in &f.blocks[b.index()].insts {
            if f.inst(i).has_side_effect() {
                live[i.index()] = true;
                work.push_back(i);
            }
        }
        f.blocks[b.index()].term.for_each_operand(|v| mark(v, &mut live, &mut work));
    }
    // Propagate through operands.
    while let Some(i) = work.pop_front() {
        f.inst(i).clone().for_each_operand(|v| mark(v, &mut live, &mut work));
    }

    let mut changed = false;
    for b in 0..f.blocks.len() {
        let before = f.blocks[b].insts.len();
        f.blocks[b].insts.retain(|i| live[i.index()]);
        changed |= f.blocks[b].insts.len() != before;
    }
    changed
}

/// DCE over every function (function-local).
pub fn run(m: &mut Module) -> bool {
    crate::for_each_func(m, run_function)
}

/// Remove call results that are unused but keep the calls (used when a
/// call's value is dead but the call has effects) — calls are side effects
/// and already roots; this is a no-op marker for documentation.
pub fn retains_calls(kind: &InstKind) -> bool {
    kind.is_call()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_ir::{BinOp, BlockId, Term, Ty};

    #[test]
    fn removes_unused_pure_insts_keeps_stores() {
        let mut f = Function::new("t");
        let dead = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Add, a: Val::Const(1), b: Val::Const(2) },
        );
        let live = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Add, a: Val::Const(3), b: Val::Const(4) },
        );
        let _st = f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Const(100), val: Val::Inst(live) },
        );
        f.blocks[0].term = Term::Ret(None);
        assert!(run_function(&mut f));
        assert_eq!(f.blocks[0].insts.len(), 2);
        assert!(!f.blocks[0].insts.contains(&dead));
    }

    #[test]
    fn dead_phi_cycles_removed() {
        // Two phis referencing only each other across a loop.
        let mut f = Function::new("t");
        let header = f.add_block();
        let exit = f.add_block();
        f.blocks[0].term = Term::Br(header);
        let p1 = f.add_inst(InstKind::Phi { incomings: vec![] });
        let p2 = f.add_inst(InstKind::Phi { incomings: vec![] });
        *f.inst_mut(p1) =
            InstKind::Phi { incomings: vec![(BlockId(0), Val::Const(0)), (header, Val::Inst(p2))] };
        *f.inst_mut(p2) =
            InstKind::Phi { incomings: vec![(BlockId(0), Val::Const(1)), (header, Val::Inst(p1))] };
        f.blocks[header.index()].insts = vec![p1, p2];
        f.blocks[header.index()].term = Term::CondBr { c: Val::Param(0), t: header, f: exit };
        f.num_params = 1;
        f.blocks[exit.index()].term = Term::Ret(None);
        assert!(run_function(&mut f));
        assert!(f.blocks[header.index()].insts.is_empty());
    }

    #[test]
    fn dead_loads_removed_dead_calls_kept() {
        let mut m = Module::new();
        let mut callee = Function::new("c");
        callee.blocks[0].term = Term::Ret(Some(Val::Const(1)));
        let cid = m.add_func(callee);
        let mut f = Function::new("t");
        let _l = f.push_inst(f.entry, InstKind::Load { ty: Ty::I32, addr: Val::Const(0x100) });
        let call = f.push_inst(f.entry, InstKind::Call { f: cid, args: vec![] });
        f.blocks[0].term = Term::Ret(None);
        let _ = call;
        m.add_func(f);
        assert!(run(&mut m));
        let f = &m.funcs[1];
        assert_eq!(f.blocks[0].insts.len(), 1);
        assert!(retains_calls(f.inst(f.blocks[0].insts[0])));
    }
}
