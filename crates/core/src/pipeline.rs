//! The refinement-lifting driver (paper Fig. 4): trace → lift → refine →
//! symbolize → re-optimize → lower.
//!
//! Refinement failures are *per function*, not per module: a function the
//! refinements cannot handle is demoted down a degradation ladder —
//! full symbolization → spfold-only → raw emulated stack — and the rest
//! of the module still gets the full treatment. Demotions are recorded in
//! [`wyt_obs::PipelineReport::degradations`] and as `fallback.*` counters.

use crate::{layout, regsave, runtime, spfold, symbolize, vararg};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use wyt_backend::lower_module;
use wyt_emu::{Machine, RunResult, Trap};
use wyt_ir::{FuncId, InstId, InstKind, Module};
use wyt_isa::image::Image;
use wyt_lifter::{
    lift_image_faulted, LiftPipelineError, Lifted, Trace, EMU_STACK_BASE, EMU_STACK_SIZE,
};
use wyt_obs::{
    mono_ns, CoverageStats, Degradation, FuncQuality, IrSize, LiftCounts, MemStats, PipelineReport,
    Span, StageStats,
};
use wyt_opt::{optimize, OptLevel};

/// How to recompile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// BinRec baseline: lift (with function recovery), clean up, lower —
    /// the emulated stack stays.
    NoSymbolize,
    /// Full WYTIWYG: all refinements, symbolization, full re-optimization.
    Wytiwyg,
}

/// A recompilation failure.
#[derive(Debug)]
pub enum RecompileError {
    /// The input image was refused by the ingestion limits before any
    /// stage ran (hostile or malformed binary).
    Ingest(crate::ingest::IngestError),
    /// Lifting failed.
    Lift(LiftPipelineError),
    /// A refinement execution failed.
    Refine(String),
    /// Symbolization failed.
    Symbolize(symbolize::SymbolizeError),
    /// Lowering failed.
    Lower(wyt_backend::BackendError),
    /// The produced IR failed verification (internal bug guard).
    Verify(wyt_ir::verify::VerifyError),
    /// The recompiled image diverged from the traced baseline even after
    /// exhausting the degradation ladder.
    Validate(ValidateError),
}

impl fmt::Display for RecompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecompileError::Ingest(e) => write!(f, "{e}"),
            RecompileError::Lift(e) => write!(f, "lift: {e}"),
            RecompileError::Refine(e) => write!(f, "refinement: {e}"),
            RecompileError::Symbolize(e) => write!(f, "symbolize: {e}"),
            RecompileError::Lower(e) => write!(f, "lower: {e}"),
            RecompileError::Verify(e) => write!(f, "verify: {e}"),
            RecompileError::Validate(e) => write!(f, "validate: {e}"),
        }
    }
}

impl std::error::Error for RecompileError {}

/// What diverged between the original and the recompiled image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MismatchKind {
    /// The original image itself trapped (trace inputs must exit cleanly).
    OriginalTrapped(Option<Trap>),
    /// The recompiled image trapped where the original exited.
    RecompiledTrapped(Option<Trap>),
    /// Exit codes differ.
    Exit {
        /// Original exit code.
        original: i32,
        /// Recompiled exit code.
        recompiled: i32,
    },
    /// Output streams differ.
    Output {
        /// Index of the first differing byte; the shorter output's
        /// length when one output is a prefix of the other.
        first_diff: usize,
        /// Original output length in bytes.
        original: usize,
        /// Recompiled output length in bytes.
        recompiled: usize,
    },
}

/// A behavioural mismatch found by [`validate`], tied to the failing
/// input index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Index of the failing input.
    pub input: usize,
    /// What diverged.
    pub kind: MismatchKind,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "input {}: ", self.input)?;
        match &self.kind {
            MismatchKind::OriginalTrapped(t) => write!(f, "original trapped: {t:?}"),
            MismatchKind::RecompiledTrapped(t) => write!(f, "recompiled trapped: {t:?}"),
            MismatchKind::Exit { original, recompiled } => {
                write!(f, "exit {original} vs {recompiled}")
            }
            MismatchKind::Output { first_diff, original, recompiled } => {
                write!(f, "output mismatch at byte {first_diff} ({original} vs {recompiled} bytes)")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Deterministic stage-boundary corruption hooks for the fault-injection
/// harness (`wyt-fault`). Every hook defaults to `None`; a hook receives
/// the stage's output and may mutate it arbitrarily — the pipeline must
/// then either demote the affected functions or return a structured
/// [`RecompileError`], never panic.
#[derive(Default)]
pub struct FaultInjector {
    /// Mutates the merged trace between tracing and CFG reconstruction.
    pub trace: Option<Box<dyn Fn(&mut Trace) + Sync + Send>>,
    /// Mutates the trace-derived vararg arities before they are applied.
    pub vararg: Option<Box<dyn Fn(&mut vararg::VarargObservations) + Sync + Send>>,
    /// Mutates the saved-register classification before it is used.
    pub regsave: Option<Box<dyn Fn(&mut regsave::RegSaveInfo) + Sync + Send>>,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("trace", &self.trace.is_some())
            .field("vararg", &self.vararg.is_some())
            .field("regsave", &self.regsave.is_some())
            .finish()
    }
}

/// No fault hooks: what [`Request::new`] points at.
static NO_FAULTS: FaultInjector = FaultInjector { trace: None, vararg: None, regsave: None };

/// One recompilation request: a binary, the inputs to trace it with, and
/// how to recompile it. [`Request::new`] fills in full re-optimization,
/// no faults and no healing; override a field with struct-update syntax:
///
/// ```no_run
/// # use wyt_core::{Mode, Request};
/// # fn f(image: &wyt_isa::image::Image, traced: &[Vec<u8>], held: &[Vec<u8>]) {
/// let req = Request { held_out: Some(held), ..Request::new(image, traced, Mode::Wytiwyg) };
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// The binary to recompile.
    pub image: &'a Image,
    /// Inputs to trace, refine and validate with.
    pub inputs: &'a [Vec<u8>],
    /// How to recompile.
    pub mode: Mode,
    /// Re-optimization level — the ablation knob separating *recovery*
    /// (symbolization) from *exploitation* (the memory-optimization
    /// pipeline it unlocks).
    pub opt: OptLevel,
    /// Stage-boundary corruption hooks (the `wyt-fault` harness); they
    /// apply to the initial lift and to every healing round.
    pub faults: &'a FaultInjector,
    /// `Some` runs the self-healing loop over these held-out inputs
    /// after the initial recompilation (see [`crate::healing`]); an
    /// empty slice still heals.
    pub held_out: Option<&'a [Vec<u8>]>,
}

impl<'a> Request<'a> {
    /// A plain request: [`OptLevel::Full`], no faults, no healing.
    pub fn new(image: &'a Image, inputs: &'a [Vec<u8>], mode: Mode) -> Request<'a> {
        Request { image, inputs, mode, opt: OptLevel::Full, faults: &NO_FAULTS, held_out: None }
    }
}

/// Everything a recompilation produces.
#[derive(Debug)]
pub struct Recompiled {
    /// The recompiled executable.
    pub image: Image,
    /// The final IR module.
    pub module: Module,
    /// Lifting artifacts (trace, CFG, function map).
    pub lifted_meta: wyt_lifter::LiftedMeta,
    /// The merged trace the module was lifted from — kept so the
    /// self-healing loop can merge a re-trace into it and re-lift.
    pub trace: Trace,
    /// Recovered layouts (WYTIWYG mode only).
    pub layout: Option<layout::ModuleLayout>,
    /// Bounds observations (WYTIWYG mode only).
    pub bounds: Option<runtime::BoundsInfo>,
    /// sp0 folding results (WYTIWYG mode only).
    pub fold: Option<spfold::FoldInfo>,
    /// Original-trace run results (reference behaviour).
    pub baseline_runs: Vec<RunResult>,
    /// The input set the image was validated against: the request's
    /// inputs, or after healing the traced inputs plus every healed
    /// offender, in healing order.
    pub inputs: Vec<Vec<u8>>,
    /// Cycles of the image on each of `inputs`, in the same order, from
    /// the validation gate's passing replays: the image's runtime on
    /// every input it was validated against, with no further run.
    pub replay_cycles: Vec<u64>,
    /// Per-stage timing, IR size deltas and recovery-quality telemetry.
    pub report: PipelineReport,
}

fn verify(m: &Module) -> Result<(), RecompileError> {
    wyt_ir::verify::verify_module(m).map_err(RecompileError::Verify)
}

/// Measure a module at a stage boundary.
fn ir_size(m: &Module) -> IrSize {
    let mut s = IrSize { funcs: m.funcs.len() as u64, ..IrSize::default() };
    for f in &m.funcs {
        s.blocks += f.blocks.len() as u64;
        s.insts += f.blocks.iter().map(|b| b.insts.len() as u64).sum::<u64>();
    }
    s
}

/// Run one pipeline stage under a span, recording wall time and the IR
/// size delta into `rep`.
fn stage<R>(
    rep: &mut PipelineReport,
    name: &'static str,
    module: &mut Module,
    body: impl FnOnce(&mut Module) -> Result<R, RecompileError>,
) -> Result<R, RecompileError> {
    let _s = Span::enter(name);
    let before = ir_size(module);
    let t0 = mono_ns();
    let r = body(module)?;
    rep.stages.push(StageStats { name, wall_ns: mono_ns() - t0, before, after: ir_size(module) });
    Ok(r)
}

/// Count operands whose constant value points into the emulated-stack
/// region — the static roots of emulated-stack traffic (the lifter
/// addresses that global by absolute constant, e.g. the `esp` seed, not
/// by `GlobalAddr`). Symbolization makes these disappear; in the
/// no-symbolize baseline they survive the optimizer.
fn emu_stack_refs(m: &Module) -> u64 {
    let in_emu = |v: wyt_ir::Val| match v {
        wyt_ir::Val::Const(c) => {
            (EMU_STACK_BASE..EMU_STACK_BASE + EMU_STACK_SIZE).contains(&(c as u32))
        }
        _ => false,
    };
    let mut n = 0;
    for f in &m.funcs {
        for b in f.rpo() {
            for &i in &f.blocks[b.index()].insts {
                f.inst(i).for_each_operand(|v| n += u64::from(in_emu(v)));
            }
            f.blocks[b.index()].term.for_each_operand(|v| n += u64::from(in_emu(v)));
        }
    }
    n
}

/// What the lifter saw — counts previously discarded on the pipeline
/// floor.
fn lift_counts(lifted: &Lifted) -> LiftCounts {
    LiftCounts {
        trace_edges: lifted.trace.edges.len() as u64,
        trace_ext_calls: lifted.trace.ext_calls.len() as u64,
        cfg_blocks: lifted.cfg.blocks.len() as u64,
        cfg_edges: lifted.cfg.blocks.values().map(|b| lifted.cfg.successors(b).len() as u64).sum(),
        funcs_recovered: lifted.funcs.funcs.len() as u64,
        tail_calls: lifted.funcs.funcs.values().map(|f| f.tail_calls.len() as u64).sum(),
    }
}

/// The rung a demoted function sits on and why it got there.
#[derive(Debug, Clone)]
struct Demotion {
    /// 1 = spfold-only, 2 = raw emulated stack.
    rung: u8,
    reason: String,
}

impl Demotion {
    fn rung_name(&self) -> &'static str {
        if self.rung >= 2 {
            "emulated-stack"
        } else {
            "spfold-only"
        }
    }
}

/// Demote `fid` to `rung`, then pull its whole weakly-connected call
/// component out of full symbolization: the emulated stack is a calling
/// convention, so the symbolized set must be closed under call edges
/// (rung-1 and rung-2 functions interoperate freely through it).
fn demote(
    demoted: &mut BTreeMap<FuncId, Demotion>,
    components: &BTreeMap<FuncId, Vec<FuncId>>,
    module: &Module,
    fid: FuncId,
    rung: u8,
    reason: String,
    counter_name: &str,
) {
    wyt_obs::counter(counter_name, 1);
    let name = module.funcs[fid.index()].name.clone();
    match demoted.get_mut(&fid) {
        Some(d) => {
            if rung > d.rung {
                d.rung = rung;
                d.reason = reason;
            }
        }
        None => {
            demoted.insert(fid, Demotion { rung, reason });
        }
    }
    if let Some(comp) = components.get(&fid) {
        for &g in comp {
            if g != fid && !demoted.contains_key(&g) {
                wyt_obs::counter("fallback.closure", 1);
                demoted.insert(
                    g,
                    Demotion { rung: 1, reason: format!("call-convention closure of {name}") },
                );
            }
        }
    }
}

/// Demote the whole module one rung when a failure cannot be pinned on a
/// single function (IR verification, behavioural validation). Returns
/// `false` when every function already sits on the bottom rung — the
/// caller then surfaces the failure as a structured error.
fn step_module_demotion(
    demoted: &mut BTreeMap<FuncId, Demotion>,
    all: &[FuncId],
    reason: &str,
    counter_name: &str,
) -> bool {
    if all.iter().any(|f| !demoted.contains_key(f)) {
        for &f in all {
            if !demoted.contains_key(&f) {
                wyt_obs::counter(counter_name, 1);
                demoted.insert(f, Demotion { rung: 1, reason: reason.to_string() });
            }
        }
        return true;
    }
    if all.iter().any(|f| demoted.get(f).map(|d| d.rung) == Some(1)) {
        for &f in all {
            if let Some(d) = demoted.get_mut(&f) {
                if d.rung == 1 {
                    wyt_obs::counter(counter_name, 1);
                    d.rung = 2;
                    d.reason = reason.to_string();
                }
            }
        }
        return true;
    }
    false
}

/// Weakly-connected components of the call graph (direct calls plus
/// observed indirect targets), keyed by member.
fn call_components(module: &Module, regs: &regsave::RegSaveInfo) -> BTreeMap<FuncId, Vec<FuncId>> {
    let n = module.funcs.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = x;
        while parent[c] != r {
            let next = parent[c];
            parent[c] = r;
            c = next;
        }
        r
    }
    let union = |parent: &mut [usize], a: usize, b: usize| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent[ra] = rb;
        }
    };
    for (fi, f) in module.funcs.iter().enumerate() {
        let fid = FuncId(fi as u32);
        for b in f.rpo() {
            for &i in &f.blocks[b.index()].insts {
                match f.inst(i) {
                    InstKind::Call { f: c, .. } => union(&mut parent, fi, c.index()),
                    InstKind::CallInd { .. } => {
                        if let Some(ts) = regs.indirect_targets.get(&(fid, i)) {
                            for t in ts {
                                union(&mut parent, fi, t.index());
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<FuncId>> = BTreeMap::new();
    for fi in 0..n {
        groups.entry(find(&mut parent, fi)).or_default().push(FuncId(fi as u32));
    }
    let mut out = BTreeMap::new();
    for members in groups.into_values() {
        for &m in &members {
            out.insert(m, members.clone());
        }
    }
    out
}

/// Emulator fuel for replaying a recompiled image whose reference run
/// retired `steps` instructions: generous for any faithful
/// recompilation, yet runaway control flow (possible under fault
/// injection, or in a poisoned store entry) ends in
/// [`Trap::OutOfFuel`] instead of the emulator's default budget.
pub(crate) fn replay_fuel(steps: u64) -> u64 {
    steps.saturating_mul(16).saturating_add(1_000_000)
}

/// What a passing [`check_against_baseline`] measured of the image.
pub(crate) struct GatePass {
    /// Stack-access classification summed over the replays; `None` with
    /// the obs sink off.
    pub(crate) coverage: Option<CoverageStats>,
    /// Each replay's cycle count, aligned with the gate's inputs.
    pub(crate) cycles: Vec<u64>,
}

/// Replay the recompiled image against the original's `baseline` runs
/// on `inputs`, with fuel scaled from the slowest baseline run.
///
/// With the obs sink on, each replay also classifies its stack accesses
/// (machine-stack slots vs the emulated-stack global) and the sums come
/// back as the image's [`CoverageStats`]; with it off the replays run
/// unclassified and the coverage is `None`. Neither the fuel budget nor
/// the classification changes a run's cycle count, so the cycles that
/// come back are the image's runtime on each input.
fn check_against_baseline(
    image: &Image,
    inputs: &[Vec<u8>],
    baseline: &[RunResult],
) -> Result<GatePass, ValidateError> {
    let budget = replay_fuel(baseline.iter().map(|r| r.inst_count).max().unwrap_or(0));
    let classify = wyt_obs::enabled();
    let mut mem = MemStats::default();
    let mut cycles = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        let a = &baseline[i];
        if !a.ok() {
            return Err(ValidateError {
                input: i,
                kind: MismatchKind::OriginalTrapped(a.trap.clone()),
            });
        }
        let mut m = Machine::new(image, input.clone());
        m.set_fuel(budget);
        if classify {
            m.set_emu_stack_range(EMU_STACK_BASE, EMU_STACK_BASE + EMU_STACK_SIZE);
        }
        let b = m.run();
        // Safe preemption point for the batch watchdog: charge both the
        // baseline and the replay against the job's fuel budget (a no-op
        // outside a supervised job).
        wyt_par::supervise::charge_steps(a.inst_count + b.inst_count);
        if !b.ok() {
            return Err(ValidateError { input: i, kind: MismatchKind::RecompiledTrapped(b.trap) });
        }
        if a.exit_code != b.exit_code {
            return Err(ValidateError {
                input: i,
                kind: MismatchKind::Exit { original: a.exit_code, recompiled: b.exit_code },
            });
        }
        if a.output != b.output {
            let first_diff = a.output.iter().zip(&b.output).take_while(|(x, y)| x == y).count();
            return Err(ValidateError {
                input: i,
                kind: MismatchKind::Output {
                    first_diff,
                    original: a.output.len(),
                    recompiled: b.output.len(),
                },
            });
        }
        mem.merge(&b.mem);
        cycles.push(b.cycles);
    }
    let coverage = classify.then_some(CoverageStats {
        symbolized: mem.native_slot,
        residual: mem.emu_stack,
        total: mem.stack_total,
        runs: inputs.len() as u64,
    });
    Ok(GatePass { coverage, cycles })
}

/// The behavioural gate every pipeline's image passes before it is
/// returned: [`check_against_baseline`] under the `validate` span.
pub(crate) fn validation_gate(
    image: &Image,
    inputs: &[Vec<u8>],
    baseline: &[RunResult],
) -> Result<GatePass, ValidateError> {
    let _s = Span::enter("validate");
    check_against_baseline(image, inputs, baseline)
}

/// Recompile `req.image`: check it against the ingestion limits, trace
/// and lift it on `req.inputs`, then refine, symbolize, re-optimize,
/// lower and validate ([`recompile_from_lifted`]). With `req.held_out`
/// set, the result then goes through the self-healing loop
/// ([`crate::healing`]).
///
/// # Errors
/// Returns a [`RecompileError`] if any stage fails module-wide; per-
/// function failures demote the function down the degradation ladder
/// instead (see [`PipelineReport::degradations`]). Healing also fails
/// when a held-out input misbehaves on the *original* image or a healing
/// round's lift fails outright; a round that recompiles but cannot
/// validate degrades per function (or ends the loop unconverged).
pub fn recompile(req: &Request) -> Result<Recompiled, RecompileError> {
    recompile_probed(req, Vec::new())
}

/// [`recompile`], given the original image's traces of the last
/// `probed.len()` held-out inputs, which the caller has already made
/// (and charged to the watchdog) and found clean. Healing takes them as
/// those inputs' reference behaviour and coverage instead of tracing
/// them again.
pub(crate) fn recompile_probed(
    req: &Request,
    probed: Vec<(Trace, RunResult)>,
) -> Result<Recompiled, RecompileError> {
    let _s = req.held_out.is_some().then(|| Span::enter("healing"));
    crate::ingest::check_image(req.image).map_err(RecompileError::Ingest)?;
    // Timed like `stage()` does: the clock pair sits inside the span.
    let (lifted, lift_ns) = {
        let _s = Span::enter("lift");
        let t0 = mono_ns();
        let trace_fault = req.faults.trace.as_deref().map(|f| f as &(dyn Fn(&mut Trace) + Sync));
        let lifted =
            lift_image_faulted(req.image, req.inputs, trace_fault).map_err(RecompileError::Lift)?;
        (lifted, mono_ns() - t0)
    };
    let mut rec =
        recompile_from_lifted(req.image, req.inputs, req.mode, req.opt, req.faults, lifted, None)?;
    // `recompile_from_lifted` only sees the lifted program, so its
    // `lift` row covers just the unpacking; add the lift itself.
    if let Some(row) = rec.report.stages.iter_mut().find(|s| s.name == "lift") {
        row.wall_ns += lift_ns;
    }
    match req.held_out {
        Some(held_out) => crate::healing::heal(req, held_out, probed, rec),
        None => Ok(rec),
    }
}

/// Recompile from an already-lifted program: the tail of [`recompile`]
/// after lifting, and the entry point of each self-healing round, which
/// lifts the merged trace itself ([`wyt_lifter::lift_from_trace`]).
///
/// `inputs` must be the inputs whose behaviour `lifted.baseline_runs`
/// records (the refinement replays and the validation gate both run the
/// lifted module against them). The first argument, the image `lifted`
/// came from, is not read: everything needed from it is in `lifted`.
/// The last is always `None`: no stored fact can stand in for one the
/// refinements compute from `inputs` (an uninhabited type, so `None` is
/// the only value that type-checks).
///
/// # Errors
/// Returns a [`RecompileError`] if any stage fails module-wide.
pub fn recompile_from_lifted(
    _img: &Image,
    inputs: &[Vec<u8>],
    mode: Mode,
    opt: OptLevel,
    faults: &FaultInjector,
    lifted: Lifted,
    _reuse: Option<&std::convert::Infallible>,
) -> Result<Recompiled, RecompileError> {
    let mut base_rep = PipelineReport {
        mode: format!("{mode:?}"),
        opt: format!("{opt:?}"),
        ..PipelineReport::default()
    };

    let t0 = mono_ns();
    base_rep.lift = lift_counts(&lifted);
    let Lifted { module: pristine, meta, trace, cfg: _, funcs: _, baseline_runs } = lifted;
    base_rep.stages.push(StageStats {
        name: "lift",
        wall_ns: mono_ns() - t0,
        before: IrSize::default(),
        after: ir_size(&pristine),
    });
    base_rep.quality.emu_refs_before = emu_stack_refs(&pristine);
    verify(&pristine)?;

    let rec = match mode {
        Mode::NoSymbolize => {
            // BinRec hands the lifted module to the full LLVM pipeline; the
            // optimizer simply cannot see through the emulated stack.
            let mut rep = base_rep;
            let mut module = pristine;
            stage(&mut rep, "optimize", &mut module, |m| {
                optimize(m, opt);
                Ok(())
            })?;
            verify(&module)?;
            rep.quality.emu_refs_after = emu_stack_refs(&module);
            let image = stage(&mut rep, "lower", &mut module, |m| {
                lower_module(m).map_err(RecompileError::Lower)
            })?;
            // No ladder here: a divergence (possible only under fault
            // injection) is a structured error.
            let pass = validation_gate(&image, inputs, &baseline_runs)
                .map_err(RecompileError::Validate)?;
            rep.quality.coverage = pass.coverage;
            Recompiled {
                image,
                module,
                lifted_meta: meta,
                trace,
                layout: None,
                bounds: None,
                fold: None,
                baseline_runs,
                inputs: inputs.to_vec(),
                replay_cycles: pass.cycles,
                report: rep,
            }
        }
        Mode::Wytiwyg => {
            recompile_wytiwyg(inputs, opt, faults, base_rep, pristine, meta, trace, baseline_runs)?
        }
    };
    Ok(rec)
}

/// The WYTIWYG arm: refinements + degradation ladder.
///
/// Each attempt starts from a pristine clone of the lifted module (the
/// spfold save/restore splice is not reversible in place) and applies the
/// refinements to whatever is not demoted; any per-function failure
/// updates the demotion sets and restarts. The loop is bounded: every
/// retry strictly demotes at least one function one rung.
#[allow(clippy::too_many_arguments)]
fn recompile_wytiwyg(
    inputs: &[Vec<u8>],
    opt: OptLevel,
    faults: &FaultInjector,
    base_rep: PipelineReport,
    pristine: Module,
    meta: wyt_lifter::LiftedMeta,
    trace: Trace,
    baseline_runs: Vec<RunResult>,
) -> Result<Recompiled, RecompileError> {
    let mut all_fids: Vec<FuncId> = meta.func_by_addr.values().copied().collect();
    all_fids.push(meta.start);
    all_fids.sort_unstable();

    // Refinement 1's input: every traced external call site's arity,
    // read off the merged trace once for all ladder attempts.
    let traced_arities = vararg::from_trace(&trace, &meta);

    let mut demoted: BTreeMap<FuncId, Demotion> = BTreeMap::new();
    let max_attempts = 2 * all_fids.len() + 4;

    for _attempt in 0..max_attempts {
        let mut rep = base_rep.clone();
        let mut module = pristine.clone();
        let rung2: BTreeSet<FuncId> =
            demoted.iter().filter(|(_, d)| d.rung >= 2).map(|(f, _)| *f).collect();

        // Refinement 1: variadic / external call recovery (§5.2), from
        // the traced arities. Rung-2 functions keep their raw
        // stack-switching external calls.
        let vararg_sites = stage(&mut rep, "vararg", &mut module, |m| {
            let mut obs = traced_arities.clone();
            if let Some(f) = &faults.vararg {
                f(&mut obs);
            }
            obs.arg_counts.retain(|(f, _), _| !rung2.contains(f));
            Ok(vararg::apply(m, &obs))
        })?;
        rep.quality.vararg_sites = vararg_sites as u64;
        verify(&module)?;

        // Refinement 2: saved registers + sp0 folding (§4.1).
        let reginfo = stage(&mut rep, "regsave", &mut module, |m| {
            let mut info = regsave::analyze(m, &meta, inputs)
                .map_err(|e| RecompileError::Refine(format!("regsave: {e}")))?;
            if let Some(f) = &faults.regsave {
                f(&mut info);
            }
            Ok(info)
        })?;
        let components = call_components(&module, &reginfo);

        let (fold, fold_errs) = stage(&mut rep, "spfold", &mut module, |m| {
            spfold::insert_save_restore(m, &meta, &reginfo, &rung2);
            Ok(spfold::fold(m, &meta, &reginfo, &rung2))
        })?;
        if !fold_errs.is_empty() {
            for e in &fold_errs {
                demote(
                    &mut demoted,
                    &components,
                    &pristine,
                    e.func,
                    2,
                    format!("spfold: {}", e.what),
                    "fallback.spfold",
                );
            }
            continue;
        }
        rep.quality.base_ptrs_folded = fold.funcs.values().map(|f| f.base_ptrs.len() as u64).sum();
        verify(&module)?;

        // Refinement 3: bounds recovery (§4.2). A replay failure cannot be
        // pinned on one function, so the whole module steps down a rung.
        let bounds_res = stage(&mut rep, "bounds", &mut module, |m| {
            Ok(runtime::trace_bounds(m, &fold, inputs))
        })?;
        let bounds = match bounds_res {
            Ok(b) => b,
            Err(e) => {
                if step_module_demotion(
                    &mut demoted,
                    &all_fids,
                    &format!("bounds replay failed: {e}"),
                    "fallback.bounds",
                ) {
                    continue;
                }
                return Err(RecompileError::Refine(format!("bounds: {e}")));
            }
        };

        // Layout + symbolization (§4.2.6). Demoted functions get no layout
        // and are not rewritten; the calling-convention closure guarantees
        // no symbolized function calls into (or is called from) them.
        let eligible: BTreeSet<FuncId> =
            all_fids.iter().copied().filter(|f| !demoted.contains_key(f)).collect();
        let mlayout = stage(&mut rep, "layout", &mut module, |m| {
            let call_targets = collect_call_targets(m, &reginfo);
            let mut l = layout::build_layout(&bounds, &fold, &reginfo, &call_targets);
            l.funcs.retain(|f, _| eligible.contains(f));
            Ok(l)
        })?;
        let sym_errs = stage(&mut rep, "symbolize", &mut module, |m| {
            Ok(symbolize::symbolize(m, &meta, &fold, &reginfo, &mlayout, &eligible))
        })?;
        if !sym_errs.is_empty() {
            for (fid, e) in &sym_errs {
                demote(
                    &mut demoted,
                    &components,
                    &pristine,
                    *fid,
                    1,
                    format!("symbolize: {}", e.what),
                    "fallback.symbolize",
                );
            }
            continue;
        }
        if let Err(e) = wyt_ir::verify::verify_module(&module) {
            if step_module_demotion(
                &mut demoted,
                &all_fids,
                &format!("IR verify failed after symbolize: {e}"),
                "fallback.verify",
            ) {
                continue;
            }
            return Err(RecompileError::Verify(e));
        }
        rep.quality.vars_recovered = mlayout.funcs.values().map(|l| l.vars.len() as u64).sum();
        record_func_quality(&mut rep, &module, &reginfo, &mlayout);

        // Re-optimize and lower. Optimization deletes unused after-call
        // register reloads, which strands the matching exit stores in
        // callees; sweep those and clean up once more.
        stage(&mut rep, "optimize", &mut module, |m| {
            optimize(m, opt);
            Ok(())
        })?;
        stage(&mut rep, "dead_cell_stores", &mut module, |m| {
            symbolize::dead_cell_stores(m);
            Ok(())
        })?;
        stage(&mut rep, "optimize2", &mut module, |m| {
            optimize(m, opt);
            Ok(())
        })?;
        if let Err(e) = wyt_ir::verify::verify_module(&module) {
            if step_module_demotion(
                &mut demoted,
                &all_fids,
                &format!("IR verify failed after optimize: {e}"),
                "fallback.verify",
            ) {
                continue;
            }
            return Err(RecompileError::Verify(e));
        }
        rep.quality.emu_refs_after = emu_stack_refs(&module);
        let image = stage(&mut rep, "lower", &mut module, |m| {
            lower_module(m).map_err(RecompileError::Lower)
        })?;

        // Behavioural gate: the image must reproduce the traced baseline.
        // A divergence demotes (the refinements got something wrong for
        // these functions) until the ladder bottoms out. Only the gate
        // that passes reports coverage and cycles.
        let pass = match validation_gate(&image, inputs, &baseline_runs) {
            Ok(pass) => pass,
            Err(e) => {
                if step_module_demotion(
                    &mut demoted,
                    &all_fids,
                    &format!("validation failed: {e}"),
                    "fallback.validate",
                ) {
                    continue;
                }
                return Err(RecompileError::Validate(e));
            }
        };
        rep.quality.coverage = pass.coverage;

        for (fid, d) in &demoted {
            rep.degradations.push(Degradation {
                func: fid.0,
                name: pristine.funcs[fid.index()].name.clone(),
                rung: d.rung_name(),
                reason: d.reason.clone(),
            });
        }
        return Ok(Recompiled {
            image,
            module,
            lifted_meta: meta,
            trace,
            layout: Some(mlayout),
            bounds: Some(bounds),
            fold: Some(fold),
            baseline_runs,
            inputs: inputs.to_vec(),
            replay_cycles: pass.cycles,
            report: rep,
        });
    }
    Err(RecompileError::Refine("degradation ladder did not converge".into()))
}

/// Per-function recovery quality, ordered by function index for
/// deterministic reports.
fn record_func_quality(
    rep: &mut PipelineReport,
    module: &Module,
    reginfo: &regsave::RegSaveInfo,
    mlayout: &layout::ModuleLayout,
) {
    let mut fids: Vec<FuncId> = mlayout.funcs.keys().copied().collect();
    fids.sort_unstable();
    for fid in fids {
        let l = &mlayout.funcs[&fid];
        rep.quality.funcs.push(FuncQuality {
            func: fid.0,
            name: module.funcs[fid.index()].name.clone(),
            saved_regs: reginfo.saved_cells(fid).len() as u64,
            vars: l.vars.len() as u64,
            stack_args: u64::from(l.stack_args),
            reg_args: l.reg_args.len() as u64,
        });
    }
}

/// Possible callees of every call instruction (direct and indirect).
fn collect_call_targets(
    module: &Module,
    regs: &regsave::RegSaveInfo,
) -> HashMap<(FuncId, InstId), Vec<FuncId>> {
    let mut out = HashMap::new();
    for (fi, f) in module.funcs.iter().enumerate() {
        let fid = FuncId(fi as u32);
        for b in f.rpo() {
            for &i in &f.blocks[b.index()].insts {
                match f.inst(i) {
                    InstKind::Call { f: c, .. } => {
                        out.insert((fid, i), vec![*c]);
                    }
                    InstKind::CallInd { .. } => {
                        let ts = regs
                            .indirect_targets
                            .get(&(fid, i))
                            .map(|s| s.iter().copied().collect())
                            .unwrap_or_default();
                        out.insert((fid, i), ts);
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// Validate a recompiled image against the original on the given inputs:
/// exit codes and outputs must match. Each recompiled replay gets the
/// pipeline's fuel budget, scaled from the slowest original run, so a
/// candidate that loops is rejected as trapping with
/// [`Trap::OutOfFuel`].
///
/// # Errors
/// Returns a [`ValidateError`] carrying the failing input index and the
/// mismatch kind.
pub fn validate(
    original: &Image,
    recompiled: &Image,
    inputs: &[Vec<u8>],
) -> Result<(), ValidateError> {
    let baseline: Vec<RunResult> =
        inputs.iter().map(|input| wyt_emu::run_image(original, input.clone())).collect();
    check_against_baseline(recompiled, inputs, &baseline).map(|_| ())
}
