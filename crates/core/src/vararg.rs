//! Refinement 1: variadic and external call recovery (paper §5.2).
//!
//! Lifted external calls are `callext_raw` — BinRec's stack switching: the
//! callee reads its arguments straight off the emulated stack. Stack
//! symbolization will delete the emulated stack, so every external call
//! must first be given explicit arguments. Fixed-arity signatures come
//! from the external-function database; `printf`-style calls are resolved
//! *dynamically* by parsing the format string each time the call executes
//! and keeping the per-call-site maximum. The tracer already executes
//! every one of those calls, so it records the arity as it goes
//! ([`wyt_lifter::ExtCall`]); this module only joins the traced sites
//! with the lifted ones and rewrites them.

use std::collections::HashMap;
use wyt_ir::{FuncId, InstId, InstKind, Module, Ty, Val};
use wyt_lifter::{LiftedMeta, Trace};

/// Observed argument counts per external call site.
#[derive(Debug, Default, Clone)]
pub struct VarargObservations {
    /// `(function, call instruction)` → maximum argument count seen.
    pub arg_counts: HashMap<(FuncId, InstId), usize>,
}

/// The traced arity of every lifted `callext_raw` site: `meta` names the
/// machine pc each site was translated from, and `trace` holds the
/// widest call any traced input made at that pc. Sites the trace never
/// reached get no entry.
pub fn from_trace(trace: &Trace, meta: &LiftedMeta) -> VarargObservations {
    let arg_counts = meta
        .ext_sites
        .iter()
        .filter_map(|(pc, f, inst)| {
            trace.ext_calls.get(pc).map(|call| ((*f, *inst), usize::from(call.arity)))
        })
        .collect();
    VarargObservations { arg_counts }
}

/// Rewrite every observed `callext_raw` into a `callext` with explicit
/// argument loads from the emulated stack. Unobserved sites (untraced
/// paths) keep their raw form and will trap under symbolization — which is
/// the "what you trace is what you get" contract.
pub fn apply(module: &mut Module, obs: &VarargObservations) -> usize {
    let mut rewritten = 0;
    for (fi, f) in module.funcs.iter_mut().enumerate() {
        let fid = FuncId(fi as u32);
        for b in f.rpo() {
            let insts = f.blocks[b.index()].insts.clone();
            for (pos, &id) in insts.iter().enumerate() {
                let InstKind::CallExtRaw { ext, sp } = f.inst(id).clone() else {
                    continue;
                };
                let Some(&count) = obs.arg_counts.get(&(fid, id)) else {
                    continue;
                };
                // Emit `count` loads from [sp + 4k] before the call.
                let mut args = Vec::with_capacity(count);
                let mut new_ids = Vec::new();
                for k in 0..count {
                    let addr = if k == 0 {
                        sp
                    } else {
                        let a = f.add_inst(InstKind::Bin {
                            op: wyt_ir::BinOp::Add,
                            a: sp,
                            b: Val::Const(4 * k as i32),
                        });
                        new_ids.push(a);
                        Val::Inst(a)
                    };
                    let l = f.add_inst(InstKind::Load { ty: Ty::I32, addr });
                    new_ids.push(l);
                    args.push(Val::Inst(l));
                }
                *f.inst_mut(id) = InstKind::CallExt { ext, args };
                // Splice the loads before the call.
                let block = &mut f.blocks[b.index()];
                let at = block.insts.iter().position(|&x| x == id).unwrap_or(pos);
                for (off, nid) in new_ids.into_iter().enumerate() {
                    block.insts.insert(at + off, nid);
                }
                rewritten += 1;
            }
        }
    }
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_ir::interp::{Interp, NoHooks};
    use wyt_lifter::lift_image;
    use wyt_minicc::{compile, Profile};

    /// Lift `src` traced on `inputs`; returns the module and the arities
    /// read off the trace.
    fn lift(src: &str, inputs: &[&[u8]], profile: &Profile) -> (Module, VarargObservations) {
        let img = compile(src, profile).unwrap().stripped();
        let inputs: Vec<Vec<u8>> = inputs.iter().map(|i| i.to_vec()).collect();
        let lifted = lift_image(&img, &inputs).unwrap();
        let obs = from_trace(&lifted.trace, &lifted.meta);
        (lifted.module, obs)
    }

    #[test]
    fn recovers_printf_signatures_per_call_site() {
        let src = r#"
            int main() {
                printf("plain\n");
                printf("%d and %s\n", 42, "str");
                printf("%d %d %d %d\n", 1, 2, 3, 4);
                return 0;
            }
        "#;
        let (mut m, obs) = lift(src, &[b""], &Profile::gcc44_o3());
        let mut counts: Vec<usize> = obs.arg_counts.values().copied().collect();
        counts.sort();
        assert_eq!(counts, vec![1, 3, 5], "1, 1+2 and 1+4 arguments");
        let n = apply(&mut m, &obs);
        assert_eq!(n, 3);
        wyt_ir::verify::verify_module(&m).unwrap();
        // No raw calls left.
        for f in &m.funcs {
            for b in f.rpo() {
                for &i in &f.blocks[b.index()].insts {
                    assert!(!matches!(f.inst(i), InstKind::CallExtRaw { .. }));
                }
            }
        }
        // Behaviour preserved.
        let out = Interp::new(&m, vec![], NoHooks).run();
        assert!(out.ok());
        assert_eq!(out.output, b"plain\n42 and str\n1 2 3 4\n");
    }

    #[test]
    fn fixed_arity_externals_use_database_signatures() {
        let src = r#"
            int main() {
                char buf[8];
                memset(buf, 7, 8);
                return buf[3] + strlen("abc");
            }
        "#;
        let (mut m, obs) = lift(src, &[b""], &Profile::gcc12_o3());
        assert!(obs.arg_counts.values().any(|&c| c == 3), "memset takes 3");
        assert!(obs.arg_counts.values().any(|&c| c == 1), "strlen takes 1");
        apply(&mut m, &obs);
        let out = Interp::new(&m, vec![], NoHooks).run();
        assert!(out.ok(), "{:?}", out.error);
        assert_eq!(out.exit_code, 10);
    }

    #[test]
    fn format_strings_chosen_at_runtime_take_the_max() {
        // The same call site prints different format strings on different
        // inputs; the recovered signature must cover the widest.
        let src = r#"
            int main() {
                int c = getchar();
                if (c == 'a') printf("%d\n", 1);
                else printf("%d %d %d\n", 1, 2, 3);
                return 0;
            }
        "#;
        // Single physical call site per branch here, so check merging across
        // inputs instead: both inputs must be observed.
        let (_, obs) = lift(src, &[b"a", b"z"], &Profile::gcc44_o3());
        let max = obs.arg_counts.values().copied().max().unwrap();
        assert_eq!(max, 4);
    }
}
