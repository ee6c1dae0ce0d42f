//! Self-healing recompilation: close the WYTIWYG loop.
//!
//! "What you trace is what you get" means a recompiled binary traps the
//! moment a held-out input drives it down an untraced path. This module
//! turns that failure mode into a repair loop (the paper's §7.2 deploy
//! story made executable):
//!
//! 1. **Attribute** — the machine reports `TrapInst { pc, code }`; the
//!    recompiled image's [`wyt_isa::GuardSite`] side table resolves `pc`
//!    to the owning function and the site kind (untraced branch vs
//!    untraced indirect target).
//! 2. **Re-trace incrementally** — only the offending input is traced on
//!    the *original* image; its edges are diffed against the stored
//!    merged trace. No new edges means the guard cannot be healed by
//!    more coverage, and the loop stops (this is what makes coverage
//!    growth monotone).
//! 3. **Re-lift incrementally** — the merged trace is re-lifted
//!    ([`wyt_lifter::lift_from_trace`]), and the machine-level recovery
//!    is diffed function-by-function. Only functions whose CFGs changed,
//!    plus their direct call neighbours (the spfold save/restore splice
//!    is caller-side and keyed on callee verdicts), are re-refined; all
//!    other functions reuse their cached refinement facts via a
//!    [`ReusePlan`].
//! 4. **Re-validate** — the incremental recompilation runs the usual
//!    degradation ladder and baseline gate over the *union* input set;
//!    a round that cannot validate degrades per function rather than
//!    aborting, and an exhausted ladder ends the loop with the last
//!    good image.
//!
//! The loop is bounded twice over: each round must strictly grow the
//! trace (else it stops), and a hard round cap of `2·|held_out| + 4`
//! backstops pathological inputs.
//!
//! [`crate::recompile`] runs the loop after its initial recompilation
//! whenever the [`Request`] sets `held_out`; the healed [`Recompiled`]
//! carries the union input set in `inputs` and the loop's account in
//! `report.healing`.

use crate::pipeline::{
    recompile_from_lifted, replay_fuel, MismatchKind, RecompileError, Recompiled, Request,
    ReusePlan, ValidateError,
};
use std::collections::{BTreeMap, BTreeSet};
use wyt_emu::{Machine, RunResult, Trap};
use wyt_ir::{FuncId, InstKind, Module};
use wyt_isa::image::Image;
use wyt_isa::{GuardKind, TrapCode};
use wyt_lifter::{
    cfg, funcrec, lift_from_trace, trace_image, LiftPipelineError, Lifted, LiftedMeta, Trace,
};
use wyt_obs::{GuardEvent, HealingReport, Span};

/// Fuel budget for native reference runs of held-out inputs (matches the
/// oracle's native budget).
const NATIVE_FUEL: u64 = 2_000_000;

/// What happened when a held-out input was replayed on the recompiled
/// image.
enum Replay {
    /// Behaviour matches the native reference run.
    Pass,
    /// A guard trap fired.
    Guard {
        /// Address of the trap instruction.
        pc: u32,
        /// The guard's trap code.
        code: u8,
    },
    /// Diverged without a guard — not healable by re-tracing.
    Diverge,
}

/// Record one healing round's wall time into the `healing.round`
/// latency histogram (`t0` is `None` when the sink was off at round
/// start, making the whole thing a no-op).
fn note_round_time(t0: Option<u64>) {
    if let Some(t0) = t0 {
        wyt_obs::record_hist("healing.round", wyt_obs::mono_ns() - t0);
    }
}

/// Replay one held-out input on the recompiled image, with the same
/// generously scaled fuel budget the pipeline's validation gate uses.
fn replay(rec_img: &Image, native: &RunResult, input: &[u8]) -> Replay {
    let mut m = Machine::new(rec_img, input.to_vec());
    m.set_fuel(replay_fuel(native.inst_count));
    let r = m.run();
    // Watchdog preemption point (no-op outside a supervised batch job).
    wyt_par::supervise::charge_steps(r.inst_count);
    match &r.trap {
        Some(Trap::TrapInst { pc, code }) if TrapCode::is_guard(*code) => {
            Replay::Guard { pc: *pc, code: *code }
        }
        None if r.exit_code == native.exit_code && r.output == native.output => Replay::Pass,
        _ => Replay::Diverge,
    }
}

/// Entry addresses whose machine-level recovery differs between two
/// lifts of the same image: functions added or removed, or whose block
/// set, tail calls or any member block (contents *or* end — a `Jcc` that
/// gained a traced edge changes only its end) differ.
fn changed_funcs(
    old_cfg: &cfg::MachCfg,
    old_funcs: &funcrec::FuncMap,
    new_cfg: &cfg::MachCfg,
    new_funcs: &funcrec::FuncMap,
) -> BTreeSet<u32> {
    let mut changed = BTreeSet::new();
    for (addr, of) in &old_funcs.funcs {
        match new_funcs.funcs.get(addr) {
            None => {
                changed.insert(*addr);
            }
            Some(nf) => {
                let same = of == nf
                    && of.blocks.iter().all(|b| old_cfg.blocks.get(b) == new_cfg.blocks.get(b));
                if !same {
                    changed.insert(*addr);
                }
            }
        }
    }
    for addr in new_funcs.funcs.keys() {
        if !old_funcs.funcs.contains_key(addr) {
            changed.insert(*addr);
        }
    }
    changed
}

/// The re-refinement blast radius of a CFG change: the changed functions
/// plus every function one direct-call hop away, in either direction.
/// One hop suffices because the only cross-function refinement coupling
/// is the spfold save/restore splice, which rewrites *caller-side* code
/// from *callee* register verdicts. (The degradation ladder's
/// weakly-connected components are deliberately not used here: the
/// synthetic start function calls `main`, which reaches everything, so
/// whole-component closure would re-lift the entire program and the
/// incremental path would never reuse anything.)
fn relift_closure(module: &Module, meta: &LiftedMeta, changed: &BTreeSet<u32>) -> BTreeSet<u32> {
    let addr_of: BTreeMap<FuncId, u32> = meta.func_by_addr.iter().map(|(a, f)| (*f, *a)).collect();
    let changed_fids: BTreeSet<FuncId> =
        changed.iter().filter_map(|a| meta.func_by_addr.get(a)).copied().collect();
    let mut out = changed.clone();
    for (fi, f) in module.funcs.iter().enumerate() {
        let fid = FuncId(fi as u32);
        for b in f.rpo() {
            for &i in &f.blocks[b.index()].insts {
                if let InstKind::Call { f: callee, .. } = f.inst(i) {
                    if changed_fids.contains(&fid) {
                        if let Some(a) = addr_of.get(callee) {
                            out.insert(*a);
                        }
                    }
                    if changed_fids.contains(callee) {
                        if let Some(a) = addr_of.get(&fid) {
                            out.insert(*a);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Collect the previous recompilation's refinement facts for every
/// function that survives unchanged outside the relift closure.
fn build_reuse_plan(rec: &Recompiled, new_meta: &LiftedMeta, relift: &BTreeSet<u32>) -> ReusePlan {
    let old_meta = &rec.lifted_meta;
    let mut plan = ReusePlan::default();
    for (addr, old_fid) in &old_meta.func_by_addr {
        if relift.contains(addr) || !new_meta.func_by_addr.contains_key(addr) {
            continue;
        }
        plan.reuse.insert(*addr);
        if let Some(ri) = &rec.reginfo {
            if let Some(row) = ri.class.get(old_fid) {
                plan.regsave.insert(*addr, *row);
            }
        }
        if let (Some(l), Some(fo)) = (&rec.layout, &rec.fold) {
            if let (Some(fl), Some(ff)) = (l.funcs.get(old_fid), fo.funcs.get(old_fid)) {
                plan.layouts.insert(*addr, (ff.clone(), fl.clone()));
            }
        }
    }
    plan
}

/// The complete refinement-fact cache of a finished recompilation: a
/// [`ReusePlan`] covering *every* lifted function, suitable for
/// persisting (the artifact store's `"facts"` entries are built from
/// this).
pub(crate) fn full_reuse_plan(rec: &Recompiled) -> ReusePlan {
    build_reuse_plan(rec, &rec.lifted_meta, &BTreeSet::new())
}

/// Restrict persisted facts from a *previous process* to the functions
/// whose machine-level recovery is unchanged between the prior merged
/// trace and a fresh lift — the cross-run analogue of the in-loop
/// incremental step. Returns `None` (recompile cold) when the prior
/// trace no longer reconstructs or nothing survives the diff; a stale or
/// poisoned fact can therefore at worst demote a function down the
/// degradation ladder, never skip validation.
pub(crate) fn seed_plan_from_prior(
    img: &Image,
    prior_trace: &Trace,
    prior_plan: &ReusePlan,
    lifted: &Lifted,
) -> Option<ReusePlan> {
    let old_cfg = cfg::build_cfg(img, prior_trace).ok()?;
    let old_funcs = funcrec::recover_functions(&old_cfg).ok()?;
    let changed = changed_funcs(&old_cfg, &old_funcs, &lifted.cfg, &lifted.funcs);
    let relift = relift_closure(&lifted.module, &lifted.meta, &changed);
    let mut plan = ReusePlan::default();
    for addr in &prior_plan.reuse {
        if relift.contains(addr) || !lifted.meta.func_by_addr.contains_key(addr) {
            continue;
        }
        plan.reuse.insert(*addr);
        if let Some(row) = prior_plan.regsave.get(addr) {
            plan.regsave.insert(*addr, *row);
        }
        if let Some(l) = prior_plan.layouts.get(addr) {
            plan.layouts.insert(*addr, l.clone());
        }
    }
    if plan.reuse.is_empty() {
        None
    } else {
        wyt_obs::counter("heal.seeded_funcs", plan.reuse.len() as u64);
        Some(plan)
    }
}

/// Run the recompiled image `rec` on every `held_out` input and heal
/// each guard trap: attribute it through the guard-site table, re-trace
/// only the offending input, merge the delta into the stored trace,
/// re-lift incrementally (reusing cached refinement facts for functions
/// whose CFGs did not change) and re-validate against the union input
/// set. `req`'s fault hooks apply to every round: the trace hook corrupts
/// each re-trace delta before it is merged, and the vararg/regsave hooks
/// fire inside every round's re-refinement — healing must still never
/// panic and never emit an unvalidated image.
pub(crate) fn heal(
    req: &Request,
    held_out: &[Vec<u8>],
    mut rec: Recompiled,
) -> Result<Recompiled, RecompileError> {
    let img = req.image;
    let mut report = HealingReport::default();
    let mut relifted_addrs: BTreeSet<u32> = BTreeSet::new();

    // Native reference behaviour for every held-out input, once. An
    // input the original binary mishandles is not healable by tracing.
    let mut natives = Vec::with_capacity(held_out.len());
    for (i, input) in held_out.iter().enumerate() {
        let mut m = Machine::new(img, input.clone());
        m.set_fuel(NATIVE_FUEL);
        let r = m.run();
        wyt_par::supervise::charge_steps(r.inst_count);
        if !r.ok() {
            return Err(RecompileError::Validate(ValidateError {
                input: i,
                kind: MismatchKind::OriginalTrapped(r.trap),
            }));
        }
        natives.push(r);
    }

    let round_cap = (held_out.len() * 2 + 4) as u64;
    let mut pending: Vec<usize> = (0..held_out.len()).collect();
    let converged = loop {
        // Replay every still-pending input; act on the first guard.
        let mut guard: Option<(usize, u32, u8)> = None;
        let mut diverged = false;
        let mut still = Vec::new();
        for &i in &pending {
            match replay(&rec.image, &natives[i], &held_out[i]) {
                Replay::Pass => {}
                Replay::Guard { pc, code } => {
                    still.push(i);
                    if guard.is_none() {
                        guard = Some((i, pc, code));
                    }
                }
                Replay::Diverge => {
                    still.push(i);
                    diverged = true;
                }
            }
        }
        pending = still;
        let Some((idx, pc, code)) = guard else {
            // No guard left to heal: converged iff nothing diverged
            // guard-free (a guard-free divergence cannot be re-traced
            // away).
            if diverged {
                wyt_obs::counter("guard.diverge", 1);
            }
            break pending.is_empty();
        };
        if report.rounds == round_cap {
            report.sites_unhealed += 1;
            wyt_obs::counter("guard.unhealed", 1);
            break false;
        }
        report.rounds += 1;
        // Watchdog: a healing round is the coarse unit of runaway-job
        // fuel; a pathological heal loop is cancelled here, at a round
        // boundary, rather than hanging the batch queue.
        wyt_par::supervise::charge_round();
        let round_t0 = wyt_obs::enabled().then(wyt_obs::mono_ns);

        // 1. Attribute the trap through the image's guard-site table.
        let site = rec.image.guard_sites.iter().find(|s| s.pc == pc);
        let kind = site
            .map(|s| s.kind)
            .or_else(|| TrapCode::guard_kind(code))
            .unwrap_or(GuardKind::UntracedBranch);
        let (func, name) = match site {
            Some(s) => (
                s.func,
                rec.module.funcs.get(s.func as usize).map(|f| f.name.clone()).unwrap_or_default(),
            ),
            None => (u32::MAX, "?".to_string()),
        };
        wyt_obs::counter("guard.event", 1);
        wyt_obs::counter(
            match kind {
                GuardKind::UntracedBranch => "guard.event.branch",
                GuardKind::UntracedIndirect => "guard.event.indirect",
            },
            1,
        );
        report.events.push(GuardEvent {
            round: report.rounds,
            input: idx as u64,
            func,
            name,
            kind: kind.name().to_string(),
            pc,
        });

        // 2. Re-trace only the offending input on the original image and
        // diff against the stored merged trace. An injected trace fault
        // corrupts the delta itself — healing under fault must degrade,
        // not diverge.
        let (mut delta, delta_runs) = {
            let _s = Span::enter("healing.retrace");
            trace_image(img, std::slice::from_ref(&held_out[idx]))
        };
        if let Some(f) = &req.faults.trace {
            f(&mut delta);
        }
        let mut merged = rec.trace.clone();
        let merge_delta = merged.merge(&delta);
        if merge_delta.new_edges == 0 {
            // Coverage cannot grow: this guard does not correspond to
            // any behaviour of the input on the original binary.
            report.sites_unhealed += 1;
            wyt_obs::counter("guard.unhealed", 1);
            note_round_time(round_t0);
            break false;
        }
        wyt_obs::counter("guard.new_edges", merge_delta.new_edges as u64);
        wyt_obs::counter("guard.new_ext_calls", merge_delta.new_ext_calls as u64);

        // 3. Incremental re-lift: recover functions from both traces and
        // diff, then re-refine only the changed call neighbourhood.
        let old_cfg = cfg::build_cfg(img, &rec.trace)
            .map_err(|e| RecompileError::Lift(LiftPipelineError::Cfg(e)))?;
        let old_funcs = funcrec::recover_functions(&old_cfg)
            .map_err(|e| RecompileError::Lift(LiftPipelineError::FuncRec(e)))?;
        let mut baselines = rec.baseline_runs.clone();
        baselines.extend(delta_runs);
        let lifted = {
            let _s = Span::enter("healing.relift");
            lift_from_trace(img, merged, baselines).map_err(RecompileError::Lift)?
        };
        let changed = changed_funcs(&old_cfg, &old_funcs, &lifted.cfg, &lifted.funcs);
        let relift = relift_closure(&lifted.module, &lifted.meta, &changed);
        let plan = build_reuse_plan(&rec, &lifted.meta, &relift);
        wyt_obs::counter("guard.relift", relift.len() as u64);
        wyt_obs::counter("guard.reuse", plan.reuse.len() as u64);

        // 4. Re-refine and re-validate over the union input set. The
        // inner degradation ladder absorbs per-function failures; only
        // an exhausted ladder ends the loop (with the last good image).
        let mut new_inputs = rec.inputs.clone();
        new_inputs.push(held_out[idx].clone());
        match recompile_from_lifted(
            img,
            &new_inputs,
            req.mode,
            req.opt,
            req.faults,
            lifted,
            Some(&plan),
        ) {
            Ok(new_rec) => {
                relifted_addrs.extend(relift.iter().copied());
                report.sites_healed += 1;
                wyt_obs::counter("guard.healed", 1);
                rec = new_rec;
                note_round_time(round_t0);
            }
            Err(_) => {
                report.sites_unhealed += 1;
                wyt_obs::counter("guard.unhealed", 1);
                note_round_time(round_t0);
                break false;
            }
        }
    };

    // Final accounting, over lifted functions only (the synthetic start
    // function is re-translated every round and never carries facts).
    let final_addrs: BTreeSet<u32> = rec.lifted_meta.func_by_addr.keys().copied().collect();
    report.converged = converged;
    report.funcs_total = final_addrs.len() as u64;
    report.funcs_relifted = relifted_addrs.intersection(&final_addrs).count() as u64;
    report.funcs_reused = rec.reused_funcs.len() as u64;
    rec.report.healing = Some(report);
    Ok(rec)
}
