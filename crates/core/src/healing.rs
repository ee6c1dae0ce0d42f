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
//! 2. **Merge the offender's trace** — every held-out input is traced on
//!    the *original* image once, up front (that run is also its reference
//!    behaviour); only the offending input's trace is diffed against the
//!    stored merged trace. No new edges means the guard cannot be healed
//!    by more coverage, and the loop stops (this is what makes coverage
//!    growth monotone).
//! 3. **Re-lift** — the whole merged trace is re-lifted
//!    ([`wyt_lifter::lift_from_trace`]) and every refinement recomputes
//!    its facts for every function on the *union* input set, so a healed
//!    image depends only on the merged trace, the inputs, the mode and
//!    the optimization level — never on an earlier round's facts.
//! 4. **Re-validate** — the recompilation runs the usual
//!    degradation ladder and baseline gate over the union input set;
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
    ValidateError,
};
use wyt_emu::{Machine, RunResult, Trap};
use wyt_isa::image::Image;
use wyt_isa::{GuardKind, TrapCode};
use wyt_lifter::{lift_from_trace, trace_image, Trace};
use wyt_obs::{GuardEvent, HealingReport, Span};

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

/// Trace one held-out input on the original image under the
/// `healing.trace` span, charging its steps to the watchdog. The run is
/// the input's reference behaviour; the trace is what a healing round
/// merges should the input offend.
pub(crate) fn trace_original(img: &Image, input: &[u8]) -> (Trace, RunResult) {
    let _s = Span::enter("healing.trace");
    let (trace, mut runs) = trace_image(img, &[input.to_vec()]);
    let run = runs.pop().expect("trace_image returns one run per input");
    wyt_par::supervise::charge_steps(run.inst_count);
    (trace, run)
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

/// Run the recompiled image `rec` on every `held_out` input and heal
/// each guard trap: attribute it through the guard-site table, merge
/// the offending input's trace into the stored trace, re-lift the
/// merged trace and re-refine and re-validate against the union input
/// set. `req`'s fault hooks apply to every round: the trace hook
/// corrupts each offender's trace before it is merged, and the
/// vararg/regsave hooks fire inside every round's re-refinement —
/// healing must still never panic and never emit an unvalidated image.
/// `probed` holds the original image's clean traces of the last
/// `probed.len()` held-out inputs ([`trace_original`]), already made by
/// the caller.
pub(crate) fn heal(
    req: &Request,
    held_out: &[Vec<u8>],
    probed: Vec<(Trace, RunResult)>,
    mut rec: Recompiled,
) -> Result<Recompiled, RecompileError> {
    let img = req.image;
    let mut report = HealingReport::default();

    // Trace every held-out input on the original, once, under the same
    // budget as every other run of the original: the run is its
    // reference behaviour, the trace its coverage should it offend. An
    // input the original binary mishandles is not healable by tracing.
    let unprobed = held_out.len() - probed.len();
    let mut natives = Vec::with_capacity(held_out.len());
    for (i, input) in held_out[..unprobed].iter().enumerate() {
        let (trace, r) = trace_original(img, input);
        if !r.ok() {
            return Err(RecompileError::Validate(ValidateError {
                input: i,
                kind: MismatchKind::OriginalTrapped(r.trap),
            }));
        }
        natives.push((trace, r));
    }
    natives.extend(probed);

    let round_cap = (held_out.len() * 2 + 4) as u64;
    let mut pending: Vec<usize> = (0..held_out.len()).collect();
    let converged = loop {
        // Replay every still-pending input; act on the first guard.
        let mut guard: Option<(usize, u32, u8)> = None;
        let mut diverged = false;
        let mut still = Vec::new();
        for &i in &pending {
            match replay(&rec.image, &natives[i].1, &held_out[i]) {
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
        // The round's span closes on every exit from this iteration,
        // including a failed re-lift.
        let _round = Span::enter("healing.round");

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

        // 2. Diff the offending input's trace against the stored merged
        // trace. An injected trace fault corrupts the delta itself —
        // healing under fault must degrade, not diverge.
        let (mut delta, delta_run) = natives[idx].clone();
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
            break false;
        }
        wyt_obs::counter("guard.new_edges", merge_delta.new_edges as u64);
        wyt_obs::counter("guard.new_ext_calls", merge_delta.new_ext_calls as u64);

        // 3. Re-lift the merged trace.
        let mut baselines = rec.baseline_runs.clone();
        baselines.push(delta_run);
        let lifted = {
            let _s = Span::enter("healing.relift");
            lift_from_trace(img, merged, baselines).map_err(RecompileError::Lift)?
        };

        // 4. Re-refine and re-validate over the union input set. The
        // inner degradation ladder absorbs per-function failures; only
        // an exhausted ladder ends the loop (with the last good image).
        let mut new_inputs = rec.inputs.clone();
        new_inputs.push(held_out[idx].clone());
        match recompile_from_lifted(img, &new_inputs, req.mode, req.opt, req.faults, lifted, None) {
            Ok(new_rec) => {
                report.sites_healed += 1;
                wyt_obs::counter("guard.healed", 1);
                rec = new_rec;
            }
            Err(_) => {
                report.sites_unhealed += 1;
                wyt_obs::counter("guard.unhealed", 1);
                break false;
            }
        }
    };

    // Final accounting, over lifted functions only (the synthetic start
    // function is not one of the program's).
    report.converged = converged;
    report.funcs_total = rec.lifted_meta.func_by_addr.len() as u64;
    rec.report.healing = Some(report);
    Ok(rec)
}
