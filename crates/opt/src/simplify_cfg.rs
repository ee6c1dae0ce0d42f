//! Control-flow graph cleanup: merge single-predecessor chains, thread
//! trivial branches, and prune phi inputs from unreachable predecessors.

use wyt_ir::{Function, InstKind, Module, Term};

/// Simplify one function's CFG. Returns `true` on change.
pub fn run_function(f: &mut Function) -> bool {
    let mut changed = false;

    // Prune phi incomings whose edge no longer exists: the source block is
    // unreachable, or it no longer branches here at all (edge-removing
    // passes like terminator folding leave such stale entries behind).
    let rpo = f.rpo();
    let mut reachable = vec![false; f.blocks.len()];
    for &b in &rpo {
        reachable[b.index()] = true;
    }
    let preds = f.preds();
    for &b in &rpo {
        let insts = f.blocks[b.index()].insts.clone();
        for id in insts {
            let is_pred = |p: wyt_ir::BlockId| preds[b.index()].contains(&p);
            if let InstKind::Phi { incomings } = f.inst_mut(id) {
                let before = incomings.len();
                incomings.retain(|(p, _)| reachable[p.index()] && is_pred(*p));
                changed |= incomings.len() != before;
            }
        }
    }

    // Merge b -> c where b ends Br(c) and c's only predecessor is b.
    loop {
        let preds = f.preds();
        let rpo = f.rpo();
        let mut merged = false;
        for &b in &rpo {
            let Term::Br(c) = f.blocks[b.index()].term else { continue };
            if c == b || c == f.entry {
                continue;
            }
            // Count only reachable predecessors.
            let cpreds: Vec<_> = preds[c.index()].iter().filter(|p| reachable[p.index()]).collect();
            if cpreds.len() != 1 || *cpreds[0] != b {
                continue;
            }
            // Resolve c's phis (single pred) to copies.
            let c_insts = f.blocks[c.index()].insts.clone();
            for id in &c_insts {
                if let InstKind::Phi { incomings } = f.inst(*id).clone() {
                    let v = incomings
                        .iter()
                        .find(|(p, _)| *p == b)
                        .map(|(_, v)| *v)
                        .unwrap_or(wyt_ir::Val::Const(0));
                    *f.inst_mut(*id) = InstKind::Copy { v };
                }
            }
            // Splice.
            let mut tail = std::mem::take(&mut f.blocks[c.index()].insts);
            let cterm = std::mem::replace(&mut f.blocks[c.index()].term, Term::Unreachable);
            f.blocks[b.index()].insts.append(&mut tail);
            f.blocks[b.index()].term = cterm;
            // Phis in c's former successors referring to c must refer to b.
            let succs: Vec<_> = {
                let mut s = Vec::new();
                f.blocks[b.index()].term.for_each_succ(|x| s.push(x));
                s
            };
            for s in succs {
                let s_insts = f.blocks[s.index()].insts.clone();
                for id in s_insts {
                    if let InstKind::Phi { incomings } = f.inst_mut(id) {
                        for (p, _) in incomings.iter_mut() {
                            if *p == c {
                                *p = b;
                            }
                        }
                    }
                }
            }
            merged = true;
            changed = true;
            break; // recompute preds
        }
        if !merged {
            break;
        }
    }
    changed
}

/// Simplify every function (function-local).
pub fn run(m: &mut Module) -> bool {
    crate::for_each_func(m, run_function)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_ir::verify::verify_module;
    use wyt_ir::{BinOp, Val};

    #[test]
    fn merges_linear_chain() {
        let mut f = Function::new("t");
        let b1 = f.add_block();
        let b2 = f.add_block();
        f.blocks[0].term = Term::Br(b1);
        let x =
            f.push_inst(b1, InstKind::Bin { op: BinOp::Add, a: Val::Const(1), b: Val::Const(2) });
        f.blocks[b1.index()].term = Term::Br(b2);
        f.blocks[b2.index()].term = Term::Ret(Some(Val::Inst(x)));
        assert!(run_function(&mut f));
        // Everything collapses into the entry block.
        assert!(matches!(f.blocks[0].term, Term::Ret(_)));
        let mut m = Module::new();
        m.add_func(f);
        verify_module(&m).unwrap();
    }

    #[test]
    fn does_not_merge_into_shared_block() {
        let mut f = Function::new("t");
        f.num_params = 1;
        let t = f.add_block();
        let e = f.add_block();
        let join = f.add_block();
        f.blocks[0].term = Term::CondBr { c: Val::Param(0), t, f: e };
        f.blocks[t.index()].term = Term::Br(join);
        f.blocks[e.index()].term = Term::Br(join);
        f.blocks[join.index()].term = Term::Ret(None);
        run_function(&mut f);
        // join still has two predecessors; t and e cannot merge into it.
        assert!(matches!(f.blocks[t.index()].term, Term::Br(b) if b == join));
    }

    #[test]
    fn prunes_unreachable_phi_inputs() {
        let mut f = Function::new("t");
        let dead = f.add_block(); // never branched to
        let next = f.add_block();
        f.blocks[0].term = Term::Br(next);
        f.blocks[dead.index()].term = Term::Br(next);
        // A phi that mentions the unreachable pred.
        let phi = f.push_inst(
            next,
            InstKind::Phi {
                incomings: vec![(wyt_ir::BlockId(0), Val::Const(1)), (dead, Val::Const(2))],
            },
        );
        f.blocks[next.index()].term = Term::Ret(Some(Val::Inst(phi)));
        // Note: `dead` *does* branch to next, but is unreachable from entry.
        assert!(run_function(&mut f));
    }
}
