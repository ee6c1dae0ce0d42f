//! # wyt-fault — deterministic fault-injection harness
//!
//! Robustness counterpart of the [`crate::oracle`]: instead of checking
//! that a *clean* pipeline preserves semantics, it corrupts stage inputs
//! at well-defined boundaries — the merged trace, the trace-derived
//! vararg arities, the saved-register classification — or withholds the
//! program's input from the initial trace (exercising the self-healing
//! loop) — and demands that the pipeline *degrades*, never breaks:
//!
//! 1. `recompile` never panics under any fault plan;
//! 2. it returns either `Ok` (possibly with functions demoted down the
//!    degradation ladder, visible in `PipelineReport::degradations`) or a
//!    structured [`wyt_core::RecompileError`];
//! 3. every image it does produce still reproduces the native behaviour
//!    on the traced input, on both the machine emulator and the IR
//!    interpreter — the differential oracle applied to degraded output.
//!
//! Fault plans are derived from a single `u64` seed through the in-tree
//! PRNG, so every run is reproducible: set [`FAULT_ENV`]
//! (`WYT_FAULT=<seed>`, decimal or `0x`-hex) to replay one plan.

use crate::oracle::{observe_interp, observe_native, OracleConfig, TrapClass};
use crate::rng::{mix, Rng};
use wyt_core::regsave::{RegClass, RegSaveInfo, ESP_CELL, NUM_CELLS};
use wyt_core::vararg::VarargObservations;
use wyt_core::{recompile, FaultInjector, Mode, Request};
use wyt_emu::TransferKind;
use wyt_ir::{FuncId, InstId};
use wyt_lifter::Trace;
use wyt_minicc::Profile;

/// Environment variable selecting a fault-plan seed.
pub const FAULT_ENV: &str = "WYT_FAULT";

/// The fault-plan seed from [`FAULT_ENV`], if set.
///
/// # Panics
/// If the variable is set but not a `u64` (decimal or 0x-hex).
pub fn env_seed() -> Option<u64> {
    let raw = std::env::var(FAULT_ENV).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(s) => Some(s),
        Err(_) => panic!("{FAULT_ENV}={raw:?} is not a u64 (decimal or 0x-hex)"),
    }
}

// Per-site stream separators: each injection site derives its own PRNG
// stream from the plan seed, so adding a site never perturbs the others.
const SITE_SELECT: u64 = 0x5e1e_c7;
const SITE_TRACE: u64 = 0x7_ace;
const SITE_VARARG: u64 = 0xa9_5;
const SITE_REGSAVE: u64 = 0x9e9_5;
const SITE_CHAOS_JOB: u64 = 0xc4a0_5;
const SITE_CHAOS_FS: u64 = 0xf5_fa_17;

/// A deterministic fault plan: which stage boundaries get corrupted and
/// how, all derived from one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The plan seed.
    pub seed: u64,
}

impl FaultPlan {
    /// Plan for `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed }
    }

    /// Which fault families this plan enables (trace, vararg, regsave,
    /// withheld-input). At least one is always on.
    fn mask(&self) -> u64 {
        mix(self.seed, SITE_SELECT) % 15 + 1
    }

    /// Does this plan exercise the self-healing loop by withholding the
    /// input from the initial trace?
    pub fn withholds_input(&self) -> bool {
        self.mask() & 8 != 0
    }

    /// Build the [`FaultInjector`] realizing this plan. The hooks are
    /// stateless (each call reseeds its own stream), so a pipeline that
    /// restarts a stage — the degradation ladder does — sees the *same*
    /// corruption every attempt.
    pub fn injector(&self) -> FaultInjector {
        let seed = self.seed;
        let mask = self.mask();
        let mut inj = FaultInjector::default();
        if mask & 1 != 0 {
            inj.trace = Some(Box::new(move |t: &mut Trace| corrupt_trace(seed, t)));
        }
        if mask & 2 != 0 {
            inj.vararg = Some(Box::new(move |o: &mut VarargObservations| corrupt_vararg(seed, o)));
        }
        if mask & 4 != 0 {
            inj.regsave = Some(Box::new(move |r: &mut RegSaveInfo| corrupt_regsave(seed, r)));
        }
        inj
    }
}

/// A deterministic *supervision* chaos plan: which batch jobs crash,
/// which overrun their fuel budget, and what store-level I/O weather the
/// whole batch runs under — all derived from one seed, so a serial and a
/// `WYT_PAR=4` replay of the same plan disrupt the identical jobs.
///
/// The three families are disjoint per job (a job crashes *or* times out
/// *or* runs clean), and the disruption hooks are themselves
/// deterministic: a crash is an unconditional `panic!` from the trace
/// injection point, a timeout charges the job's entire fuel budget at
/// the same point, so a retried attempt fails identically and the job is
/// quarantined with a stable typed outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The plan seed.
    pub seed: u64,
}

impl ChaosPlan {
    /// Plan for `seed`.
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan { seed }
    }

    fn job_word(&self, i: usize) -> u64 {
        mix(mix(self.seed, SITE_CHAOS_JOB), i as u64)
    }

    /// Does job `i` panic mid-pipeline? (~1 in 8.)
    pub fn crashes_job(&self, i: usize) -> bool {
        self.job_word(i) % 8 == 0
    }

    /// Does job `i` overrun its fuel budget? (~1 in 8, disjoint from
    /// [`ChaosPlan::crashes_job`].)
    pub fn overruns_job(&self, i: usize) -> bool {
        self.job_word(i) % 8 == 1
    }

    /// The [`FaultInjector`] disrupting job `i` under this plan — an
    /// injected panic, an injected budget overrun, or no disruption.
    pub fn injector_for(&self, i: usize) -> FaultInjector {
        let mut inj = FaultInjector::default();
        if self.crashes_job(i) {
            inj.trace =
                Some(Box::new(move |_t: &mut Trace| panic!("chaos: injected crash in job {i}")));
        } else if self.overruns_job(i) {
            inj.trace = Some(Box::new(move |_t: &mut Trace| {
                // Spend the whole fuel budget in one step: the watchdog
                // cancels the job at this (safe) preemption point.
                wyt_par::supervise::charge_steps(u64::MAX / 2);
            }));
        }
        inj
    }

    /// A transient-only faulty filesystem for the batch's store, seeded
    /// from this plan. Every injected fault is absorbed by the store's
    /// bounded retries, so the batch's *results* are byte-identical to a
    /// fault-free run — only the `store.io.*` counters show the weather.
    pub fn fault_fs(&self) -> wyt_store::FaultFs {
        wyt_store::FaultFs::new(
            mix(self.seed, SITE_CHAOS_FS),
            wyt_store::FaultPlan::transient_only(),
        )
    }
}

/// Corrupt the merged trace: drop edges (torn trace), duplicate an edge
/// with a call kind (fake function entry), add a bogus call target.
fn corrupt_trace(seed: u64, t: &mut Trace) {
    let mut rng = Rng::new(mix(seed, SITE_TRACE));
    let edges: Vec<(u32, u32, TransferKind)> = t.edges.iter().copied().collect();
    if edges.is_empty() {
        return;
    }
    let mut touched = false;
    for e in &edges {
        if rng.chance(0.125) {
            t.edges.remove(e);
            touched = true;
        }
    }
    if rng.chance(0.5) {
        let &(from, to, _) = rng.choose(&edges);
        touched |= t.edges.insert((from, to, TransferKind::Call));
    }
    if rng.chance(0.5) {
        let &(from, to, _) = rng.choose(&edges);
        // Mid-instruction (undecodable) or far outside the text segment.
        let bogus = if rng.next_bool() { to + 1 } else { 0xdead_0000 };
        touched |= t.edges.insert((from, bogus, TransferKind::Call));
    }
    if !touched {
        // A plan that enables the trace family must corrupt something.
        t.edges.remove(rng.choose(&edges));
    }
}

/// Corrupt the vararg arities: inflate or deflate recovered argument
/// counts (a format string lying about its arity) or drop observations
/// entirely (the call site is never recovered).
fn corrupt_vararg(seed: u64, obs: &mut VarargObservations) {
    let mut rng = Rng::new(mix(seed, SITE_VARARG));
    let mut keys: Vec<(FuncId, InstId)> = obs.arg_counts.keys().copied().collect();
    keys.sort_unstable();
    for k in keys {
        if !rng.chance(0.35) {
            continue;
        }
        match rng.range_u32(0, 3) {
            0 => {
                let extra = rng.range_usize(1, 4);
                *obs.arg_counts.get_mut(&k).expect("key from map") += extra;
            }
            1 => {
                let less = rng.range_usize(1, 3);
                let c = obs.arg_counts.get_mut(&k).expect("key from map");
                *c = c.saturating_sub(less);
            }
            _ => {
                obs.arg_counts.remove(&k);
            }
        }
    }
}

/// Corrupt the saved-register classification: flip Saved ↔ Clobbered per
/// cell (a clobbered observation for a register the callee preserves, and
/// vice versa). `esp` is modelled structurally and never flipped.
fn corrupt_regsave(seed: u64, info: &mut RegSaveInfo) {
    let mut rng = Rng::new(mix(seed, SITE_REGSAVE));
    let mut fids: Vec<FuncId> = info.class.keys().copied().collect();
    fids.sort_unstable();
    for fid in fids {
        let cells = info.class.get_mut(&fid).expect("key from map");
        for c in 0..NUM_CELLS {
            if c == ESP_CELL || !rng.chance(0.15) {
                continue;
            }
            cells[c] = match cells[c] {
                RegClass::Saved => RegClass::Clobbered,
                RegClass::Clobbered | RegClass::Argument => RegClass::Saved,
            };
        }
    }
}

/// Run the fault-injected pipeline on `src` and enforce the harness
/// contract. Returns a canonical per-mode summary (used by determinism
/// tests: the same plan must yield the byte-identical summary regardless
/// of `WYT_PAR`).
///
/// # Errors
/// A description of the property violation: the native run misbehaving,
/// or a produced (possibly degraded) image diverging from it.
pub fn check_source_under_fault(
    src: &str,
    profile: &Profile,
    input: &[u8],
    plan: &FaultPlan,
    cfg: &OracleConfig,
) -> Result<String, String> {
    let full = wyt_minicc::compile(src, profile)
        .map_err(|e| format!("[{}] compile failed: {e}", profile.name))?;
    let img = full.stripped();
    let derived_fuel = cfg.fuel.saturating_mul(4);

    let native = observe_native(&img, input, cfg.fuel);
    if native.class != TrapClass::Exit {
        return Err(format!("[{}] program misbehaves natively: {native}", profile.name));
    }

    let injector = plan.injector();
    let traced = [input.to_vec()];
    let mut summary = String::new();
    for mode in &cfg.modes {
        match recompile(&Request { faults: &injector, ..Request::new(&img, &traced, *mode) }) {
            // A structured error is an acceptable outcome under faults —
            // the contract only forbids panics and silent miscompiles.
            Err(e) => summary.push_str(&format!("{mode:?}: error: {e}\n")),
            Ok(out) => {
                let rec = observe_native(&out.image, input, derived_fuel);
                if rec != native {
                    return Err(format!(
                        "[{}] seed {:#x} ({mode:?}): degraded image diverges:\n  \
                         native:     {native}\n  recompiled: {rec}",
                        profile.name, plan.seed
                    ));
                }
                let it = observe_interp(&out.module, input, derived_fuel);
                if it != native {
                    return Err(format!(
                        "[{}] seed {:#x} ({mode:?}): final IR diverges:\n  \
                         native: {native}\n  interp: {it}",
                        profile.name, plan.seed
                    ));
                }
                summary
                    .push_str(&format!("{mode:?}: ok degraded={}", out.report.degradations.len()));
                for d in &out.report.degradations {
                    summary.push_str(&format!(" {}:{}:{}", d.func, d.rung, d.reason));
                }
                summary.push('\n');
            }
        }
    }

    // The withheld-input family exercises the self-healing loop: trace
    // with an empty input only, hold the real input out, and demand that
    // healing either converges to an image reproducing the native
    // behaviour or fails structurally — never panics, never miscompiles.
    // The same injector rides along, so a plan that also enables the
    // trace family corrupts every incremental re-trace delta: what
    // healing then cannot fix must be caught by the degradation ladder,
    // and whatever image survives must still be oracle-equivalent on the
    // inputs it was validated against.
    if plan.withholds_input() {
        let empty = [Vec::new()];
        let healing = Request {
            faults: &injector,
            held_out: Some(&traced),
            ..Request::new(&img, &empty, Mode::Wytiwyg)
        };
        match recompile(&healing) {
            Err(e) => summary.push_str(&format!("healing: error: {e}\n")),
            Ok(healed) => {
                let r = healed.report.healing.as_ref().expect("a healing request reports healing");
                if r.converged {
                    let rec = observe_native(&healed.image, input, derived_fuel);
                    if rec != native {
                        return Err(format!(
                            "[{}] seed {:#x}: healed image diverges:\n  \
                             native: {native}\n  healed: {rec}",
                            profile.name, plan.seed
                        ));
                    }
                } else {
                    // Unconverged healing hands back the last good image:
                    // it must still reproduce the *traced* (empty-input)
                    // behaviour exactly, degraded or not.
                    let empty_native = observe_native(&img, b"", cfg.fuel);
                    let rec = observe_native(&healed.image, b"", derived_fuel);
                    if rec != empty_native {
                        return Err(format!(
                            "[{}] seed {:#x}: unconverged healed image diverges on the \
                             traced input:\n  native: {empty_native}\n  healed: {rec}",
                            profile.name, plan.seed
                        ));
                    }
                }
                summary.push_str(&format!(
                    "healing: rounds={} healed={} unhealed={} converged={} degraded={}\n",
                    r.rounds,
                    r.sites_healed,
                    r.sites_unhealed,
                    r.converged,
                    healed.report.degradations.len()
                ));
            }
        }
    }
    Ok(summary)
}

/// [`check_source_under_fault`] for a generated [`crate::progen::Prog`].
///
/// # Errors
/// See [`check_source_under_fault`]; the failing program's source is
/// appended.
pub fn check_prog_under_fault(
    p: &crate::progen::Prog,
    plan: &FaultPlan,
    cfg: &OracleConfig,
) -> Result<String, String> {
    let src = crate::progen::render(p);
    check_source_under_fault(&src, &crate::progen::profile(p.profile), &p.input, plan, cfg)
        .map_err(|e| format!("{e}\nsource:\n{src}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_nonempty() {
        for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
            let plan = FaultPlan::new(seed);
            assert!(plan.mask() >= 1 && plan.mask() <= 15);
            assert_eq!(plan.mask(), FaultPlan::new(seed).mask());
            assert_eq!(plan.withholds_input(), plan.mask() & 8 != 0);
        }
    }

    #[test]
    fn trace_corruption_is_idempotent_per_seed() {
        // Two runs from the same plan must corrupt identically — the
        // degradation ladder re-invokes hooks on every restart.
        let img = wyt_minicc::compile(
            "int f(int x) { return x + 1; } int main() { return f(41); }",
            &Profile::gcc12_o3(),
        )
        .unwrap()
        .stripped();
        let (trace, _) = wyt_lifter::trace_image(&img, &[vec![]]);
        let mut a = trace.clone();
        let mut b = trace.clone();
        corrupt_trace(7, &mut a);
        corrupt_trace(7, &mut b);
        assert_eq!(a.edges, b.edges);
        assert_ne!(a.edges, trace.edges, "the trace family must change the trace");
    }

    #[test]
    fn faulted_pipeline_never_panics_on_a_small_program() {
        let src = r#"
            int helper(int a, int b) { return a * b + 3; }
            int main() {
                int x = helper(6, 7);
                printf("%d\n", x);
                return x & 0x7f;
            }
        "#;
        let cfg = OracleConfig::default();
        for seed in 0..6u64 {
            let plan = FaultPlan::new(seed);
            let sum = check_source_under_fault(src, &Profile::gcc12_o3(), b"", &plan, &cfg)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!sum.is_empty());
        }
    }
}
