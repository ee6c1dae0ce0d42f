//! A hooked IR interpreter.
//!
//! This is the reproduction's analogue of "instrument the lifted IR and
//! link the instrumentation runtime into it" (paper §3, §4.2.1): instead of
//! weaving calls into the program text, the interpreter invokes a [`Hooks`]
//! implementation at every operation, passing concrete values together with
//! optional *shadows* — opaque metadata ids owned by the hook, playing the
//! role of the paper's per-value `PointerInfo` (§4.2.1) and of the symbolic
//! register tokens of the saved-register analysis (§4.1).
//!
//! The interpreter executes with an explicit frame stack (no host
//! recursion), shares the [`wyt_emu::Memory`] model with the machine
//! emulator, and calls the same external-function handlers, so a lifted
//! program and its original binary observe identical I/O.

use crate::module::{Global, InstKind, Module, Term};
use crate::types::{BinOp, BlockId, CmpOp, FuncId, InstId, Ty, Val};
use std::collections::HashMap;
use std::fmt;
use wyt_emu::{dispatch, ExtId, ExtIo, ExtOutcome, Memory};
use wyt_isa::{GuardKind, TrapCode};

/// Opaque per-value metadata id, owned by the [`Hooks`] implementation.
pub type Shadow = u32;

/// A `(concrete value, shadow)` pair as seen by hooks.
pub type Tagged = (u32, Option<Shadow>);

/// Base address for globals without a fixed address.
pub const GLOBAL_DYN_BASE: u32 = 0x0300_0000;
/// Top of the native stack used for `alloca` (grows down). Distinct from
/// the machine stack so lifted two-stack programs look like paper Fig. 1.
pub const NATIVE_STACK_TOP: u32 = 0x0e00_0000;

/// How an external call's arguments are delivered.
#[derive(Debug, Clone, Copy)]
pub enum ExtArgs<'a> {
    /// Unrecovered: the callee reads `[sp]`, `[sp+4]`, ... (stack
    /// switching).
    Raw {
        /// Stack pointer value at the call.
        sp: u32,
        /// Shadow of the stack pointer value.
        sp_shadow: Option<Shadow>,
    },
    /// Recovered: explicit argument values.
    Explicit(&'a [Tagged]),
}

/// Dynamic-analysis callbacks. Every method has a no-op default; an
/// analysis implements the subset it needs.
#[allow(unused_variables)]
pub trait Hooks {
    /// A function is entered. `callsite` is `None` for the program entry.
    fn fn_enter(
        &mut self,
        f: FuncId,
        callsite: Option<(FuncId, InstId)>,
        args: &[Tagged],
        mem: &Memory,
    ) {
    }
    /// A function returns.
    fn fn_exit(&mut self, f: FuncId, ret: Option<Tagged>, mem: &Memory) {}
    /// A binary operation produced `res`. Return the result's shadow.
    fn bin(
        &mut self,
        f: FuncId,
        inst: InstId,
        op: BinOp,
        a: Tagged,
        b: Tagged,
        res: u32,
    ) -> Option<Shadow> {
        None
    }
    /// A comparison executed (pointer comparisons `link` variables, §4.2.2).
    fn cmp(&mut self, f: FuncId, inst: InstId, op: CmpOp, a: Tagged, b: Tagged) {}
    /// A load produced `val`. Return the loaded value's shadow.
    fn load(&mut self, f: FuncId, inst: InstId, ty: Ty, addr: Tagged, val: u32) -> Option<Shadow> {
        None
    }
    /// A store executed.
    fn store(&mut self, f: FuncId, inst: InstId, ty: Ty, addr: Tagged, val: Tagged) {}
    /// An alloca produced address `addr`.
    fn alloca(&mut self, f: FuncId, inst: InstId, addr: u32) -> Option<Shadow> {
        None
    }
    /// A value is copied verbatim (phi, select, copy). Maps the chosen
    /// input's shadow to the result's shadow (the paper's `copy` op).
    fn transparent(&mut self, s: Option<Shadow>) -> Option<Shadow> {
        s
    }
    /// About to transfer control to a callee (before `fn_enter`).
    fn call_pre(&mut self, caller: FuncId, inst: InstId, callee: FuncId, mem: &Memory) {}
    /// An external call is about to run.
    fn ext_call(&mut self, f: FuncId, inst: InstId, ext: ExtId, args: &ExtArgs<'_>, mem: &Memory) {}
    /// An external call returned `ret`. Return the result's shadow.
    fn ext_ret(
        &mut self,
        f: FuncId,
        inst: InstId,
        ext: ExtId,
        args: &ExtArgs<'_>,
        ret: u32,
        mem: &Memory,
    ) -> Option<Shadow> {
        None
    }
}

/// A [`Hooks`] implementation that observes nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl Hooks for NoHooks {}

/// A fatal interpretation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Signed division by zero or overflow.
    DivideError(FuncId, InstId),
    /// Step budget exhausted.
    Fuel,
    /// Indirect call/branch to an address with no lifted function.
    BadIndirect(u32),
    /// A `trap` terminator executed (untraced path reached).
    Trap(u8),
    /// `abort()` called.
    Aborted,
    /// `exit(code)` called (internal unwinding marker; surfaced as a clean
    /// exit by [`Interp::run`]).
    Exit(i32),
    /// Module has no entry function.
    NoEntry,
    /// Extern index does not resolve to an implemented external.
    UnknownExtern(u16),
    /// `unreachable` executed.
    Unreachable(FuncId, BlockId),
    /// An instruction referenced an out-of-range index (global, function,
    /// block) — malformed IR reached the interpreter.
    BadIndex(&'static str, u32),
    /// A phi at a branch target had no incoming for the source block.
    MissingBlockArg(FuncId, BlockId),
    /// The frame stack was empty where a frame was required.
    FrameUnderflow,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::DivideError(func, i) => write!(f, "divide error in {func} at {i}"),
            InterpError::Fuel => write!(f, "interpreter fuel exhausted"),
            InterpError::BadIndirect(a) => write!(f, "indirect transfer to unknown address {a:#x}"),
            InterpError::Trap(c) => write!(f, "trap {c} (untraced path)"),
            InterpError::Aborted => write!(f, "abort() called"),
            InterpError::Exit(c) => write!(f, "exit({c}) called"),
            InterpError::NoEntry => write!(f, "module has no entry function"),
            InterpError::UnknownExtern(e) => write!(f, "unknown extern #{e}"),
            InterpError::Unreachable(func, b) => write!(f, "unreachable executed in {func} {b}"),
            InterpError::BadIndex(what, i) => write!(f, "out-of-range {what} index {i}"),
            InterpError::MissingBlockArg(func, b) => {
                write!(f, "phi in {func} {b} has no incoming for the branching block")
            }
            InterpError::FrameUnderflow => write!(f, "frame stack underflow"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Attribution of a guard trap raised during interpretation: which
/// function reached which kind of untraced site. Populated alongside
/// [`InterpError::Trap`] (for a guard [`TrapCode`]) and
/// [`InterpError::BadIndirect`] — the IR-level counterpart of the
/// machine's `Image::guard_sites` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardHit {
    /// The function containing the untraced site.
    pub func: FuncId,
    /// What kind of untraced site fired.
    pub kind: GuardKind,
}

/// Result of interpreting a module.
#[derive(Debug, Clone)]
pub struct InterpOutput {
    /// Exit code (0 on error).
    pub exit_code: i32,
    /// Program output bytes.
    pub output: Vec<u8>,
    /// The error that ended execution, if any.
    pub error: Option<InterpError>,
    /// Guard attribution, when `error` is a guard trap or a bad indirect
    /// transfer.
    pub guard: Option<GuardHit>,
    /// Executed instruction count.
    pub steps: u64,
}

impl InterpOutput {
    /// `true` if execution finished without error.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Assign an address to every global: fixed addresses are respected, the
/// rest are laid out from [`GLOBAL_DYN_BASE`]. Shared with the backend so
/// interpreted and recompiled programs agree on the address space.
pub fn layout_globals(globals: &[Global]) -> Vec<u32> {
    let mut next = GLOBAL_DYN_BASE;
    globals
        .iter()
        .map(|g| match g.fixed_addr {
            Some(a) => a,
            None => {
                let a = (next + 15) & !15;
                next = a + g.size.max(1);
                a
            }
        })
        .collect()
}

struct Frame {
    func: FuncId,
    block: BlockId,
    /// Block the previous transfer came from (for phis).
    prev_block: Option<BlockId>,
    idx: usize,
    vals: Vec<u32>,
    shadows: Vec<Option<Shadow>>,
    args: Vec<u32>,
    arg_shadows: Vec<Option<Shadow>>,
    /// Instruction in the *caller* that receives the return value.
    ret_dest: Option<InstId>,
    /// Native stack pointer to restore on return.
    nsp_save: u32,
}

/// The interpreter. Construct with [`Interp::new`], then [`Interp::run`].
pub struct Interp<'m, H: Hooks> {
    module: &'m Module,
    /// Resolved addresses of every global.
    pub global_addrs: Vec<u32>,
    func_by_addr: HashMap<u32, FuncId>,
    ext_ids: Vec<Option<ExtId>>,
    /// Memory (shared layout with the machine emulator).
    pub mem: Memory,
    /// I/O state.
    pub io: ExtIo,
    /// The analysis hooks.
    pub hooks: H,
    nsp: u32,
    fuel: u64,
    steps: u64,
    loads: u64,
    stores: u64,
    /// Attribution of the guard trap that ended the run, if one did.
    guard_hit: Option<GuardHit>,
}

impl<'m, H: Hooks> Interp<'m, H> {
    /// Prepare to interpret `module` with the given input and hooks.
    pub fn new(module: &'m Module, input: Vec<u8>, hooks: H) -> Interp<'m, H> {
        let global_addrs = layout_globals(&module.globals);
        let mut mem = Memory::new();
        for (g, &addr) in module.globals.iter().zip(&global_addrs) {
            if !g.init.is_empty() {
                mem.write_bytes(addr, &g.init);
            }
        }
        let mut func_by_addr = HashMap::new();
        for (i, f) in module.funcs.iter().enumerate() {
            if let Some(a) = f.orig_addr {
                func_by_addr.insert(a, FuncId(i as u32));
            }
        }
        let ext_ids = module.externs.iter().map(|n| ExtId::from_name(n)).collect();
        Interp {
            module,
            global_addrs,
            func_by_addr,
            ext_ids,
            mem,
            io: ExtIo::new(input),
            hooks,
            nsp: NATIVE_STACK_TOP,
            fuel: 500_000_000,
            steps: 0,
            loads: 0,
            stores: 0,
            guard_hit: None,
        }
    }

    /// Override the step budget (default 500 million).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    fn new_frame(
        &self,
        f: FuncId,
        args: Vec<u32>,
        arg_shadows: Vec<Option<Shadow>>,
        ret_dest: Option<InstId>,
    ) -> Result<Frame, InterpError> {
        let func =
            self.module.funcs.get(f.index()).ok_or(InterpError::BadIndex("function", f.0))?;
        Ok(Frame {
            func: f,
            block: func.entry,
            prev_block: None,
            idx: 0,
            vals: vec![0; func.insts.len()],
            shadows: vec![None; func.insts.len()],
            args,
            arg_shadows,
            ret_dest,
            nsp_save: self.nsp,
        })
    }

    fn eval(&self, fr: &Frame, v: Val) -> u32 {
        match v {
            Val::Inst(i) => fr.vals[i.index()],
            Val::Param(p) => fr.args.get(p as usize).copied().unwrap_or(0),
            Val::Const(c) => c as u32,
        }
    }

    fn shadow(&self, fr: &Frame, v: Val) -> Option<Shadow> {
        match v {
            Val::Inst(i) => fr.shadows[i.index()],
            Val::Param(p) => fr.arg_shadows.get(p as usize).copied().flatten(),
            Val::Const(_) => None,
        }
    }

    fn tagged(&self, fr: &Frame, v: Val) -> Tagged {
        (self.eval(fr, v), self.shadow(fr, v))
    }

    /// Run the module's entry function to completion.
    pub fn run(&mut self) -> InterpOutput {
        let Some(entry) = self.module.entry else {
            return InterpOutput {
                exit_code: 0,
                output: Vec::new(),
                error: Some(InterpError::NoEntry),
                guard: None,
                steps: 0,
            };
        };
        let code = self.run_from(entry, &[]);
        let output = std::mem::take(&mut self.io.output);
        let out = match code {
            Ok(c) => {
                InterpOutput { exit_code: c, output, error: None, guard: None, steps: self.steps }
            }
            Err(e) => InterpOutput {
                exit_code: 0,
                output,
                error: Some(e),
                guard: self.guard_hit,
                steps: self.steps,
            },
        };
        self.flush_obs(&out);
        out
    }

    /// Report run totals and the trap class to the global obs sink.
    fn flush_obs(&self, out: &InterpOutput) {
        if !wyt_obs::enabled() {
            return;
        }
        wyt_obs::counter("interp.runs", 1);
        wyt_obs::counter("interp.steps", out.steps);
        wyt_obs::counter("interp.loads", self.loads);
        wyt_obs::counter("interp.stores", self.stores);
        let class = match &out.error {
            None => "interp.trap.exit",
            Some(InterpError::Fuel) => "interp.trap.fuel",
            Some(InterpError::DivideError(..)) => "interp.trap.divide",
            Some(InterpError::Aborted) => "interp.trap.abort",
            Some(InterpError::Trap(c)) => match TrapCode::guard_kind(*c) {
                Some(GuardKind::UntracedBranch) => "interp.trap.guard.branch",
                Some(GuardKind::UntracedIndirect) => "interp.trap.guard.indirect",
                None => "interp.trap.other",
            },
            // An indirect call to an unlifted address is the IR-level form
            // of the backend's dispatch-miss guard.
            Some(InterpError::BadIndirect(_)) => "interp.trap.guard.indirect",
            Some(_) => "interp.trap.other",
        };
        wyt_obs::counter(class, 1);
    }

    /// Run a specific function with explicit arguments (used by tests and
    /// by analyses that replay single functions). `exit(code)` anywhere in
    /// the callee is surfaced as a normal return of `code`.
    pub fn run_from(&mut self, entry: FuncId, args: &[u32]) -> Result<i32, InterpError> {
        match self.run_inner(entry, args) {
            Err(InterpError::Exit(code)) => Ok(code),
            other => other,
        }
    }

    fn run_inner(&mut self, entry: FuncId, args: &[u32]) -> Result<i32, InterpError> {
        let mut frames: Vec<Frame> = Vec::new();
        let first = self.new_frame(entry, args.to_vec(), vec![None; args.len()], None)?;
        let first_args: Vec<Tagged> = args.iter().map(|&a| (a, None)).collect();
        self.hooks.fn_enter(entry, None, &first_args, &self.mem);
        frames.push(first);
        // Borrow instructions and terminators for `'m` rather than through
        // `self`, so the hooks can take `&mut self` while one is matched.
        let module: &'m Module = self.module;

        'outer: loop {
            let Some(fr) = frames.last_mut() else {
                return Err(InterpError::FrameUnderflow);
            };
            let func = &module.funcs[fr.func.index()];
            let Some(block) = func.blocks.get(fr.block.index()) else {
                return Err(InterpError::BadIndex("block", fr.block.0));
            };

            if fr.idx >= block.insts.len() {
                // Terminator.
                self.steps += 1;
                if self.steps > self.fuel {
                    return Err(InterpError::Fuel);
                }
                match block.term {
                    Term::Br(b) => self.branch(frames.last_mut().unwrap(), b)?,
                    Term::CondBr { c, t, f } => {
                        let fr = frames.last_mut().unwrap();
                        let cv = self.eval(fr, c);
                        let target = if cv != 0 { t } else { f };
                        self.branch(frames.last_mut().unwrap(), target)?;
                    }
                    Term::Switch { v, ref cases, default } => {
                        let fr = frames.last_mut().unwrap();
                        let val = self.eval(fr, v) as i32;
                        let target = cases
                            .iter()
                            .find(|(c, _)| *c == val)
                            .map(|(_, b)| *b)
                            .unwrap_or(default);
                        self.branch(frames.last_mut().unwrap(), target)?;
                    }
                    Term::Ret(v) => {
                        let fr = frames.last().unwrap();
                        let rv = v.map(|v| self.tagged(fr, v));
                        self.hooks.fn_exit(fr.func, rv, &self.mem);
                        let done = frames.pop().ok_or(InterpError::FrameUnderflow)?;
                        self.nsp = done.nsp_save;
                        match frames.last_mut() {
                            None => return Ok(rv.map(|(v, _)| v as i32).unwrap_or(0)),
                            Some(caller) => {
                                if let Some(dest) = done.ret_dest {
                                    let (v, s) = rv.unwrap_or((0, None));
                                    caller.vals[dest.index()] = v;
                                    caller.shadows[dest.index()] = self.hooks.transparent(s);
                                }
                                // Caller's idx was already advanced past the
                                // call when the frame was pushed.
                            }
                        }
                    }
                    Term::Trap(c) => {
                        let fr = frames.last().unwrap();
                        if let Some(kind) = TrapCode::guard_kind(c) {
                            self.guard_hit = Some(GuardHit { func: fr.func, kind });
                        }
                        return Err(InterpError::Trap(c));
                    }
                    Term::Unreachable => {
                        let fr = frames.last().unwrap();
                        return Err(InterpError::Unreachable(fr.func, fr.block));
                    }
                }
                continue 'outer;
            }

            let inst_id = block.insts[fr.idx];
            self.steps += 1;
            if self.steps > self.fuel {
                return Err(InterpError::Fuel);
            }
            let cur_func = fr.func;

            match *func.inst(inst_id) {
                InstKind::Bin { op, a, b } => {
                    let fr = frames.last_mut().unwrap();
                    let ta = self.tagged(fr, a);
                    let tb = self.tagged(fr, b);
                    let Some(res) = op.eval(ta.0, tb.0) else {
                        return Err(InterpError::DivideError(cur_func, inst_id));
                    };
                    let s = self.hooks.bin(cur_func, inst_id, op, ta, tb, res);
                    let fr = frames.last_mut().unwrap();
                    fr.vals[inst_id.index()] = res;
                    fr.shadows[inst_id.index()] = s;
                    fr.idx += 1;
                }
                InstKind::Cmp { op, a, b } => {
                    let fr = frames.last_mut().unwrap();
                    let ta = self.tagged(fr, a);
                    let tb = self.tagged(fr, b);
                    let res = op.eval(ta.0, tb.0) as u32;
                    self.hooks.cmp(cur_func, inst_id, op, ta, tb);
                    let fr = frames.last_mut().unwrap();
                    fr.vals[inst_id.index()] = res;
                    fr.shadows[inst_id.index()] = None;
                    fr.idx += 1;
                }
                InstKind::Ext { signed, from, v } => {
                    let fr = frames.last_mut().unwrap();
                    let x = self.eval(fr, v) & from.mask();
                    let res = if signed {
                        let bits = from.bytes() * 8;
                        (((x as i32) << (32 - bits)) >> (32 - bits)) as u32
                    } else {
                        x
                    };
                    fr.vals[inst_id.index()] = res;
                    fr.shadows[inst_id.index()] = None;
                    fr.idx += 1;
                }
                InstKind::Load { ty, addr } => {
                    let fr = frames.last_mut().unwrap();
                    let ta = self.tagged(fr, addr);
                    self.loads += 1;
                    let val = self.mem.read_sized(ta.0, to_isa_size(ty));
                    let s = self.hooks.load(cur_func, inst_id, ty, ta, val);
                    let fr = frames.last_mut().unwrap();
                    fr.vals[inst_id.index()] = val;
                    fr.shadows[inst_id.index()] = s;
                    fr.idx += 1;
                }
                InstKind::Store { ty, addr, val } => {
                    let fr = frames.last_mut().unwrap();
                    let ta = self.tagged(fr, addr);
                    let tv = self.tagged(fr, val);
                    self.stores += 1;
                    self.mem.write_sized(ta.0, tv.0, to_isa_size(ty));
                    self.hooks.store(cur_func, inst_id, ty, ta, tv);
                    frames.last_mut().unwrap().idx += 1;
                }
                InstKind::Alloca { size, align, .. } => {
                    let a = align.max(4);
                    self.nsp = (self.nsp - size.max(1)) & !(a - 1);
                    let addr = self.nsp;
                    let s = self.hooks.alloca(cur_func, inst_id, addr);
                    let fr = frames.last_mut().unwrap();
                    fr.vals[inst_id.index()] = addr;
                    fr.shadows[inst_id.index()] = s;
                    fr.idx += 1;
                }
                InstKind::GlobalAddr { g } => {
                    let addr = self
                        .global_addrs
                        .get(g.index())
                        .copied()
                        .ok_or(InterpError::BadIndex("global", g.0))?;
                    let fr = frames.last_mut().unwrap();
                    fr.vals[inst_id.index()] = addr;
                    fr.shadows[inst_id.index()] = None;
                    fr.idx += 1;
                }
                InstKind::FuncAddr { f } => {
                    let addr = self
                        .module
                        .funcs
                        .get(f.index())
                        .ok_or(InterpError::BadIndex("function", f.0))?
                        .orig_addr
                        .unwrap_or(0);
                    let fr = frames.last_mut().unwrap();
                    fr.vals[inst_id.index()] = addr;
                    fr.shadows[inst_id.index()] = None;
                    fr.idx += 1;
                }
                InstKind::Call { f, ref args } => {
                    self.do_call(&mut frames, cur_func, inst_id, f, args)?;
                }
                InstKind::CallInd { target, ref args } => {
                    let fr = frames.last().unwrap();
                    let t = self.eval(fr, target);
                    let Some(&f) = self.func_by_addr.get(&t) else {
                        // An indirect call to an unlifted address is the
                        // IR-level form of the backend's dispatch-miss
                        // guard: attribute it the same way.
                        self.guard_hit =
                            Some(GuardHit { func: cur_func, kind: GuardKind::UntracedIndirect });
                        return Err(InterpError::BadIndirect(t));
                    };
                    self.do_call(&mut frames, cur_func, inst_id, f, args)?;
                }
                InstKind::CallExtRaw { ext, sp } => {
                    let fr = frames.last().unwrap();
                    let tsp = self.tagged(fr, sp);
                    let ext_id = self.resolve_ext(ext)?;
                    let ea = ExtArgs::Raw { sp: tsp.0, sp_shadow: tsp.1 };
                    self.hooks.ext_call(cur_func, inst_id, ext_id, &ea, &self.mem);
                    let mut staged = [0u32; 16];
                    for (i, slot) in staged.iter_mut().enumerate() {
                        *slot = self.mem.read_u32(tsp.0.wrapping_add(4 * i as u32));
                    }
                    let ret = self.do_ext(ext_id, &staged)?;
                    let s = self.hooks.ext_ret(cur_func, inst_id, ext_id, &ea, ret, &self.mem);
                    let fr = frames.last_mut().unwrap();
                    fr.vals[inst_id.index()] = ret;
                    fr.shadows[inst_id.index()] = s;
                    fr.idx += 1;
                }
                InstKind::CallExt { ext, ref args } => {
                    let fr = frames.last().unwrap();
                    let targs: Vec<Tagged> = args.iter().map(|a| self.tagged(fr, *a)).collect();
                    let ext_id = self.resolve_ext(ext)?;
                    let ea = ExtArgs::Explicit(&targs);
                    self.hooks.ext_call(cur_func, inst_id, ext_id, &ea, &self.mem);
                    let argv: Vec<u32> = targs.iter().map(|(v, _)| *v).collect();
                    let ret = self.do_ext(ext_id, &argv)?;
                    let s = self.hooks.ext_ret(cur_func, inst_id, ext_id, &ea, ret, &self.mem);
                    let fr = frames.last_mut().unwrap();
                    fr.vals[inst_id.index()] = ret;
                    fr.shadows[inst_id.index()] = s;
                    fr.idx += 1;
                }
                InstKind::Select { c, a, b } => {
                    let fr = frames.last_mut().unwrap();
                    let cv = self.eval(fr, c);
                    let chosen = if cv != 0 { a } else { b };
                    let (v, s) = self.tagged(fr, chosen);
                    let s = self.hooks.transparent(s);
                    let fr = frames.last_mut().unwrap();
                    fr.vals[inst_id.index()] = v;
                    fr.shadows[inst_id.index()] = s;
                    fr.idx += 1;
                }
                InstKind::Phi { .. } => {
                    // Phis are evaluated en bloc at branch time; reaching one
                    // here means it already holds its value.
                    frames.last_mut().unwrap().idx += 1;
                }
                InstKind::Copy { v } => {
                    let fr = frames.last_mut().unwrap();
                    let (val, s) = self.tagged(fr, v);
                    let s = self.hooks.transparent(s);
                    let fr = frames.last_mut().unwrap();
                    fr.vals[inst_id.index()] = val;
                    fr.shadows[inst_id.index()] = s;
                    fr.idx += 1;
                }
            }
        }
    }

    fn resolve_ext(&self, ext: u16) -> Result<ExtId, InterpError> {
        self.ext_ids.get(ext as usize).copied().flatten().ok_or(InterpError::UnknownExtern(ext))
    }

    fn do_ext(&mut self, ext: ExtId, argv: &[u32]) -> Result<u32, InterpError> {
        let mut src: &[u32] = argv;
        match dispatch(ext, &mut self.mem, &mut self.io, &mut src) {
            ExtOutcome::Ret { value, .. } => Ok(value),
            // exit() unwinds the whole frame stack; run()/run_from() turn
            // it into a clean exit with the given code.
            ExtOutcome::Exit(code) => Err(InterpError::Exit(code)),
            ExtOutcome::Abort => Err(InterpError::Aborted),
        }
    }

    fn do_call(
        &mut self,
        frames: &mut Vec<Frame>,
        caller: FuncId,
        inst_id: InstId,
        callee: FuncId,
        args: &[Val],
    ) -> Result<(), InterpError> {
        let fr = frames.last_mut().unwrap();
        let targs: Vec<Tagged> = args.iter().map(|a| self.tagged(fr, *a)).collect();
        // Advance the caller past the call before pushing the callee.
        frames.last_mut().unwrap().idx += 1;
        self.hooks.call_pre(caller, inst_id, callee, &self.mem);
        let vals: Vec<u32> = targs.iter().map(|(v, _)| *v).collect();
        let shadows: Vec<Option<Shadow>> = targs.iter().map(|(_, s)| *s).collect();
        let frame = self.new_frame(callee, vals, shadows, Some(inst_id))?;
        self.hooks.fn_enter(callee, Some((caller, inst_id)), &targs, &self.mem);
        frames.push(frame);
        Ok(())
    }

    /// Transfer control within the current frame, evaluating phi nodes of
    /// the target block (two-phase: read all, then write all). A phi with
    /// no incoming for the source block is malformed IR and errors rather
    /// than silently keeping a stale value.
    fn branch(&mut self, fr: &mut Frame, target: BlockId) -> Result<(), InterpError> {
        let func = &self.module.funcs[fr.func.index()];
        let from = fr.block;
        let tb = func.blocks.get(target.index()).ok_or(InterpError::BadIndex("block", target.0))?;
        let mut updates: Vec<(InstId, u32, Option<Shadow>)> = Vec::new();
        for &i in &tb.insts {
            match func.inst(i) {
                InstKind::Phi { incomings } => {
                    let Some((_, v)) = incomings.iter().find(|(p, _)| *p == from) else {
                        return Err(InterpError::MissingBlockArg(fr.func, target));
                    };
                    let val = self.eval(fr, *v);
                    let s = self.shadow(fr, *v);
                    updates.push((i, val, s));
                }
                _ => break,
            }
        }
        for (i, v, s) in updates {
            fr.vals[i.index()] = v;
            fr.shadows[i.index()] = self.hooks.transparent(s);
        }
        fr.prev_block = Some(from);
        fr.block = target;
        fr.idx = 0;
        Ok(())
    }
}

fn to_isa_size(ty: Ty) -> wyt_isa::Size {
    match ty {
        Ty::I8 => wyt_isa::Size::B,
        Ty::I16 => wyt_isa::Size::W,
        Ty::I32 => wyt_isa::Size::D,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Function, Global, GlobalKind};
    use crate::types::GlobalId;

    fn run_entry(m: &Module) -> InterpOutput {
        Interp::new(m, Vec::new(), NoHooks).run()
    }

    fn simple_module(build: impl FnOnce(&mut Function)) -> Module {
        let mut m = Module::new();
        let mut f = Function::new("main");
        build(&mut f);
        let id = m.add_func(f);
        m.entry = Some(id);
        m
    }

    #[test]
    fn arithmetic_and_ret() {
        let m = simple_module(|f| {
            let a = f.push_inst(
                f.entry,
                InstKind::Bin { op: BinOp::Add, a: Val::Const(20), b: Val::Const(22) },
            );
            f.blocks[0].term = Term::Ret(Some(Val::Inst(a)));
        });
        let out = run_entry(&m);
        assert!(out.ok());
        assert_eq!(out.exit_code, 42);
    }

    #[test]
    fn loop_with_phi() {
        // i = 0; acc = 0; while (i != 5) { acc += i; i += 1 } ret acc
        let m = simple_module(|f| {
            let header = f.add_block();
            let body = f.add_block();
            let exit = f.add_block();
            f.blocks[f.entry.index()].term = Term::Br(header);

            let phi_i = f.push_inst(header, InstKind::Phi { incomings: vec![] });
            let phi_acc = f.push_inst(header, InstKind::Phi { incomings: vec![] });
            let c = f.push_inst(
                header,
                InstKind::Cmp { op: CmpOp::Eq, a: Val::Inst(phi_i), b: Val::Const(5) },
            );
            f.blocks[header.index()].term = Term::CondBr { c: Val::Inst(c), t: exit, f: body };

            let acc2 = f.push_inst(
                body,
                InstKind::Bin { op: BinOp::Add, a: Val::Inst(phi_acc), b: Val::Inst(phi_i) },
            );
            let i2 = f.push_inst(
                body,
                InstKind::Bin { op: BinOp::Add, a: Val::Inst(phi_i), b: Val::Const(1) },
            );
            f.blocks[body.index()].term = Term::Br(header);

            let InstKind::Phi { incomings } = f.inst_mut(phi_i) else { panic!() };
            *incomings = vec![(BlockId(0), Val::Const(0)), (body, Val::Inst(i2))];
            let InstKind::Phi { incomings } = f.inst_mut(phi_acc) else { panic!() };
            *incomings = vec![(BlockId(0), Val::Const(0)), (body, Val::Inst(acc2))];

            f.blocks[exit.index()].term = Term::Ret(Some(Val::Inst(phi_acc)));
        });
        crate::verify::verify_module(&m).unwrap();
        let out = run_entry(&m);
        assert!(out.ok());
        assert_eq!(out.exit_code, 10);
    }

    #[test]
    fn calls_and_allocas() {
        let mut m = Module::new();
        // callee(x) { return x * 2 }
        let mut callee = Function::new("double");
        callee.num_params = 1;
        let r = callee.push_inst(
            callee.entry,
            InstKind::Bin { op: BinOp::Mul, a: Val::Param(0), b: Val::Const(2) },
        );
        callee.blocks[0].term = Term::Ret(Some(Val::Inst(r)));
        let callee_id = m.add_func(callee);

        // main: p = alloca 4; *p = 21; v = load p; ret double(v)
        let mut main = Function::new("main");
        let p =
            main.push_inst(main.entry, InstKind::Alloca { size: 4, align: 4, name: "x".into() });
        main.push_inst(
            main.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(p), val: Val::Const(21) },
        );
        let v = main.push_inst(main.entry, InstKind::Load { ty: Ty::I32, addr: Val::Inst(p) });
        let call =
            main.push_inst(main.entry, InstKind::Call { f: callee_id, args: vec![Val::Inst(v)] });
        main.blocks[0].term = Term::Ret(Some(Val::Inst(call)));
        let main_id = m.add_func(main);
        m.entry = Some(main_id);

        crate::verify::verify_module(&m).unwrap();
        let out = run_entry(&m);
        assert!(out.ok());
        assert_eq!(out.exit_code, 42);
    }

    #[test]
    fn globals_fixed_and_dynamic() {
        let mut m = Module::new();
        let fixed = m.add_global(Global {
            name: "fixed".into(),
            size: 4,
            init: 7i32.to_le_bytes().to_vec(),
            fixed_addr: Some(0x0040_0000),
            kind: GlobalKind::Data,
        });
        let dynamic = m.add_global(Global {
            name: "dyn".into(),
            size: 4,
            init: vec![],
            fixed_addr: None,
            kind: GlobalKind::Data,
        });
        let mut f = Function::new("main");
        let ga = f.push_inst(f.entry, InstKind::GlobalAddr { g: fixed });
        let v = f.push_inst(f.entry, InstKind::Load { ty: Ty::I32, addr: Val::Inst(ga) });
        let da = f.push_inst(f.entry, InstKind::GlobalAddr { g: dynamic });
        f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(da), val: Val::Inst(v) },
        );
        let v2 = f.push_inst(f.entry, InstKind::Load { ty: Ty::I32, addr: Val::Inst(da) });
        f.blocks[0].term = Term::Ret(Some(Val::Inst(v2)));
        let id = m.add_func(f);
        m.entry = Some(id);

        let mut interp = Interp::new(&m, Vec::new(), NoHooks);
        assert_eq!(interp.global_addrs[0], 0x0040_0000);
        assert!(interp.global_addrs[1] >= GLOBAL_DYN_BASE);
        let out = interp.run();
        assert_eq!(out.exit_code, 7);
    }

    #[test]
    fn externals_and_exit() {
        let mut m = Module::new();
        let printf = m.extern_index("printf");
        let exit = m.extern_index("exit");
        let data = m.add_global(Global {
            name: "fmt".into(),
            size: 6,
            init: b"n=%d\n\0".to_vec(),
            fixed_addr: None,
            kind: GlobalKind::Data,
        });
        let mut f = Function::new("main");
        let ga = f.push_inst(f.entry, InstKind::GlobalAddr { g: data });
        f.push_inst(
            f.entry,
            InstKind::CallExt { ext: printf, args: vec![Val::Inst(ga), Val::Const(9)] },
        );
        f.push_inst(f.entry, InstKind::CallExt { ext: exit, args: vec![Val::Const(3)] });
        f.blocks[0].term = Term::Ret(None);
        let id = m.add_func(f);
        m.entry = Some(id);
        let out = run_entry(&m);
        assert!(out.ok(), "{:?}", out.error);
        assert_eq!(out.exit_code, 3);
        assert_eq!(out.output, b"n=9\n");
    }

    #[test]
    fn trap_and_unreachable() {
        let m = simple_module(|f| {
            f.blocks[0].term = Term::Trap(7);
        });
        assert_eq!(run_entry(&m).error, Some(InterpError::Trap(7)));

        let m = simple_module(|f| {
            f.blocks[0].term = Term::Unreachable;
        });
        assert!(matches!(run_entry(&m).error, Some(InterpError::Unreachable(..))));
    }

    #[test]
    fn divide_error() {
        let m = simple_module(|f| {
            let d = f.push_inst(
                f.entry,
                InstKind::Bin { op: BinOp::DivS, a: Val::Const(1), b: Val::Const(0) },
            );
            f.blocks[0].term = Term::Ret(Some(Val::Inst(d)));
        });
        assert!(matches!(run_entry(&m).error, Some(InterpError::DivideError(..))));
    }

    #[test]
    fn fuel_limit() {
        let m = simple_module(|f| {
            f.blocks[0].term = Term::Br(BlockId(0));
        });
        let mut i = Interp::new(&m, Vec::new(), NoHooks);
        i.set_fuel(100);
        assert_eq!(i.run().error, Some(InterpError::Fuel));
    }

    #[test]
    fn fuel_boundary_is_exact() {
        // Same contract as wyt-emu's `fuel_boundary_is_exact`: `fuel` is
        // the maximum number of retired steps, so a run of exactly S steps
        // completes with fuel == S and reports Fuel with fuel == S - 1.
        let m = simple_module(|f| {
            let a = f.push_inst(
                f.entry,
                InstKind::Bin { op: BinOp::Add, a: Val::Const(1), b: Val::Const(2) },
            );
            let b = f.push_inst(
                f.entry,
                InstKind::Bin { op: BinOp::Mul, a: Val::Inst(a), b: Val::Const(3) },
            );
            f.blocks[0].term = Term::Ret(Some(Val::Inst(b)));
        });

        let unbounded = run_entry(&m);
        assert!(unbounded.ok());
        let s = unbounded.steps;
        assert_eq!(s, 3, "two insts plus the terminator");

        let mut exact = Interp::new(&m, Vec::new(), NoHooks);
        exact.set_fuel(s);
        let out = exact.run();
        assert!(out.ok(), "fuel == step count must complete: {:?}", out.error);
        assert_eq!(out.steps, s);

        let mut starved = Interp::new(&m, Vec::new(), NoHooks);
        starved.set_fuel(s - 1);
        let out = starved.run();
        assert_eq!(out.error, Some(InterpError::Fuel));
    }

    #[test]
    fn fuel_zero_retires_nothing() {
        let m = simple_module(|f| {
            f.blocks[0].term = Term::Ret(Some(Val::Const(0)));
        });
        let mut i = Interp::new(&m, Vec::new(), NoHooks);
        i.set_fuel(0);
        assert_eq!(i.run().error, Some(InterpError::Fuel));
    }

    #[test]
    fn hooks_see_shadows_flow() {
        // A hook that tags the result of the first add and checks the tag
        // arrives at the store.
        #[derive(Default)]
        struct Tagger {
            tagged_store_seen: bool,
        }
        impl Hooks for Tagger {
            fn bin(
                &mut self,
                _f: FuncId,
                _i: InstId,
                op: BinOp,
                _a: Tagged,
                _b: Tagged,
                _r: u32,
            ) -> Option<Shadow> {
                if op == BinOp::Add {
                    Some(77)
                } else {
                    None
                }
            }
            fn store(&mut self, _f: FuncId, _i: InstId, _ty: Ty, _addr: Tagged, val: Tagged) {
                if val.1 == Some(77) {
                    self.tagged_store_seen = true;
                }
            }
        }
        let mut m = Module::new();
        let g = m.add_global(Global {
            name: "x".into(),
            size: 4,
            init: vec![],
            fixed_addr: None,
            kind: GlobalKind::Data,
        });
        let mut f = Function::new("main");
        let a = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Add, a: Val::Const(1), b: Val::Const(2) },
        );
        let c = f.push_inst(f.entry, InstKind::Copy { v: Val::Inst(a) });
        let ga = f.push_inst(f.entry, InstKind::GlobalAddr { g });
        f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(ga), val: Val::Inst(c) },
        );
        f.blocks[0].term = Term::Ret(None);
        let id = m.add_func(f);
        m.entry = Some(id);
        let mut interp = Interp::new(&m, Vec::new(), Tagger::default());
        let out = interp.run();
        assert!(out.ok());
        assert!(interp.hooks.tagged_store_seen, "shadow should flow through copy to store");
    }

    #[test]
    fn malformed_ir_errors_instead_of_panicking() {
        // A phi with no incoming for the branching block is a structured
        // error, not a stale value or a panic.
        let m = simple_module(|f| {
            let tgt = f.add_block();
            f.blocks[0].term = Term::Br(tgt);
            let phi = f.push_inst(tgt, InstKind::Phi { incomings: vec![] });
            f.blocks[tgt.index()].term = Term::Ret(Some(Val::Inst(phi)));
        });
        assert!(matches!(run_entry(&m).error, Some(InterpError::MissingBlockArg(..))));

        // An out-of-range global index errors.
        let m = simple_module(|f| {
            let ga = f.push_inst(f.entry, InstKind::GlobalAddr { g: GlobalId(99) });
            f.blocks[0].term = Term::Ret(Some(Val::Inst(ga)));
        });
        assert_eq!(run_entry(&m).error, Some(InterpError::BadIndex("global", 99)));

        // An out-of-range function index errors.
        let m = simple_module(|f| {
            let fa = f.push_inst(f.entry, InstKind::FuncAddr { f: FuncId(42) });
            f.blocks[0].term = Term::Ret(Some(Val::Inst(fa)));
        });
        assert_eq!(run_entry(&m).error, Some(InterpError::BadIndex("function", 42)));

        // A branch to a non-existent block errors.
        let m = simple_module(|f| {
            f.blocks[0].term = Term::Br(BlockId(7));
        });
        assert_eq!(run_entry(&m).error, Some(InterpError::BadIndex("block", 7)));

        // A call to a non-existent function errors.
        let m = simple_module(|f| {
            let c = f.push_inst(f.entry, InstKind::Call { f: FuncId(9), args: vec![] });
            f.blocks[0].term = Term::Ret(Some(Val::Inst(c)));
        });
        assert_eq!(run_entry(&m).error, Some(InterpError::BadIndex("function", 9)));
    }

    #[test]
    fn indirect_call_resolves_by_address() {
        let mut m = Module::new();
        let mut callee = Function::new("target");
        callee.orig_addr = Some(0x1234);
        callee.blocks[0].term = Term::Ret(Some(Val::Const(5)));
        let callee_id = m.add_func(callee);
        let mut f = Function::new("main");
        let fa = f.push_inst(f.entry, InstKind::FuncAddr { f: callee_id });
        let c = f.push_inst(f.entry, InstKind::CallInd { target: Val::Inst(fa), args: vec![] });
        f.blocks[0].term = Term::Ret(Some(Val::Inst(c)));
        let id = m.add_func(f);
        m.entry = Some(id);
        let out = run_entry(&m);
        assert!(out.ok());
        assert_eq!(out.exit_code, 5);

        // Unknown address errors.
        let m2 = simple_module(|f| {
            let c =
                f.push_inst(f.entry, InstKind::CallInd { target: Val::Const(0xbad), args: vec![] });
            f.blocks[0].term = Term::Ret(Some(Val::Inst(c)));
        });
        assert_eq!(run_entry(&m2).error, Some(InterpError::BadIndirect(0xbad)));
    }
}
