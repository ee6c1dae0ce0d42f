//! # wyt-lifter — the BinRec analogue
//!
//! Dynamic lifting of machine binaries to [`wyt_ir`] modules, following
//! the paper's pipeline (Fig. 4):
//!
//! 1. [`trace::trace_image`] executes the binary on the emulator for each
//!    user-provided input and merges the observed control transfers.
//! 2. [`cfg::build_cfg`] reconstructs the machine-level CFG from traced
//!    targets only — *what you trace is what you get*.
//! 3. [`funcrec::recover_functions`] recovers single-entry functions,
//!    identifying tail calls (paper §5.1, Nucleus-style).
//! 4. [`translate::translate`] lifts each function to IR with the
//!    instruction-emulation approach of §2.1: virtual CPU register cells,
//!    an emulated-stack global, and stack-switching external calls.
//!
//! [`lift_image`] runs all four stages. The result is a runnable module
//! (via [`wyt_ir::interp`]) that still knows nothing about local
//! variables — precisely the input WYTIWYG's refinements operate on.

pub mod cfg;
pub mod extdb;
pub mod funcrec;
pub mod trace;
pub mod translate;

pub use cfg::{build_cfg_limited, BlockEnd, CfgError, MachBlock, MachCfg};
pub use extdb::{ext_sig, ExtEffect, ExtSig, SizeSpec};
pub use funcrec::{recover_functions_limited, FuncMap, FuncRecError, MachFunc};
pub use trace::{trace_image, ExtCall, MergeDelta, Trace};
pub use translate::{
    is_emustack_addr, translate, vcpu_reg_addr, vcpu_vreg_addr, LiftError, LiftedMeta,
    EMU_STACK_BASE, EMU_STACK_SIZE, EMU_STACK_TOP, VCPU_BASE,
};

use std::fmt;
use wyt_emu::RunResult;
use wyt_ir::Module;
use wyt_isa::image::Image;

/// Any lifting-stage failure.
#[derive(Debug, Clone)]
pub enum LiftPipelineError {
    /// CFG reconstruction failed.
    Cfg(CfgError),
    /// Function recovery failed.
    FuncRec(FuncRecError),
    /// Translation failed.
    Translate(LiftError),
}

impl fmt::Display for LiftPipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiftPipelineError::Cfg(e) => write!(f, "cfg: {e}"),
            LiftPipelineError::FuncRec(e) => write!(f, "function recovery: {e}"),
            LiftPipelineError::Translate(e) => write!(f, "translate: {e}"),
        }
    }
}

impl std::error::Error for LiftPipelineError {}

/// A fully lifted program.
#[derive(Debug)]
pub struct Lifted {
    /// The lifted IR module.
    pub module: Module,
    /// Lifting metadata used by the refinement passes.
    pub meta: LiftedMeta,
    /// The merged trace.
    pub trace: Trace,
    /// The machine CFG.
    pub cfg: MachCfg,
    /// Recovered function map.
    pub funcs: FuncMap,
    /// Reference results of the traced runs (for validation).
    pub baseline_runs: Vec<RunResult>,
}

/// Trace, reconstruct, recover and translate `img` using `inputs`.
/// (See [`lift_from_trace`] to lift from an externally merged trace.)
///
/// # Errors
/// Returns a [`LiftPipelineError`] if any stage fails.
pub fn lift_image(img: &Image, inputs: &[Vec<u8>]) -> Result<Lifted, LiftPipelineError> {
    lift_image_faulted(img, inputs, None)
}

/// [`lift_image`] with an optional trace-mutation hook, applied between
/// tracing and CFG reconstruction. The fault-injection harness uses this
/// to model torn or corrupted traces (truncated edges, duplicated edges
/// with the wrong transfer kind, bogus call targets); everything
/// downstream must then either degrade per function or return a
/// structured error.
///
/// # Errors
/// Returns a [`LiftPipelineError`] if any stage fails.
pub fn lift_image_faulted(
    img: &Image,
    inputs: &[Vec<u8>],
    trace_fault: Option<&(dyn Fn(&mut Trace) + Sync)>,
) -> Result<Lifted, LiftPipelineError> {
    let (mut trace, baseline_runs) = {
        let _s = wyt_obs::Span::enter("lift.trace");
        trace_image(img, inputs)
    };
    if let Some(fault) = trace_fault {
        fault(&mut trace);
    }
    lift_from_trace(img, trace, baseline_runs)
}

/// Lift `img` from an already-merged [`Trace`] — the incremental re-lift
/// entry point of the self-healing loop, which merges delta edges from a
/// re-traced input into the stored trace instead of re-tracing every
/// input from scratch. `baseline_runs` are the reference runs the trace
/// was merged from (old baselines plus the re-traced deltas).
///
/// # Errors
/// Returns a [`LiftPipelineError`] if any stage fails.
pub fn lift_from_trace(
    img: &Image,
    trace: Trace,
    baseline_runs: Vec<RunResult>,
) -> Result<Lifted, LiftPipelineError> {
    let cfg = {
        let _s = wyt_obs::Span::enter("lift.cfg");
        cfg::build_cfg(img, &trace).map_err(LiftPipelineError::Cfg)?
    };
    let funcs = {
        let _s = wyt_obs::Span::enter("lift.funcrec");
        funcrec::recover_functions(&cfg).map_err(LiftPipelineError::FuncRec)?
    };
    let (module, meta) = {
        let _s = wyt_obs::Span::enter("lift.translate");
        translate::translate(img, &cfg, &funcs).map_err(LiftPipelineError::Translate)?
    };
    Ok(Lifted { module, meta, trace, cfg, funcs, baseline_runs })
}
