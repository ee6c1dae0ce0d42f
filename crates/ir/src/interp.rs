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
//!
//! [`Interp::new`] lowers the module once into a flat replay form, and
//! every run executes that form:
//!
//! - each function becomes a run of [`Op`]s in one array, block after
//!   block, each block's instructions followed by its terminator;
//! - operands are slots of the frame's *window*: parameters first, then
//!   the function's constants, then one slot per instruction result. A
//!   frame is a window on one stack of `(value, shadow)` slots;
//! - `GlobalAddr` and `FuncAddr` fold to their addresses, branch targets
//!   are op indexes, and an edge into a block with phis carries its phi
//!   moves, run as one parallel copy;
//! - indirect calls resolve through a table sorted by address;
//! - an I32 load or store whose address operand is the constant address
//!   of a [`GlobalKind::VcpuReg`] global becomes a `LoadCell` or
//!   `StoreCell` on the run's *cell file*, one word per such cell.
//!
//! The cell file stands for its words of [`Memory`]. It is reloaded from
//! memory when a run starts, after a generic store that overlaps a cell
//! word and after every external call. Its stores reach memory before
//! anything else reads it: before a generic access that overlaps a cell
//! word, a call (`fn_enter` sees memory), an external call, and the end
//! of the run. A word whose page is not resident is written through, so
//! a write the page cap drops is dropped at once. So a cell reads the
//! same through either path, and the counts and hook events of a run do
//! not depend on which accesses were promoted: a cell access counts as
//! the load or store it replaces, and its hook events,
//! [`Hooks::cell_load`] and [`Hooks::cell_store`], default to that
//! access's [`Hooks::load`] and [`Hooks::store`].
//!
//! Lowering never fails. Malformed IR — an out-of-range global, function,
//! block or extern, a phi with no incoming for an edge — lowers to an op
//! or edge that raises its [`InterpError`] only when it runs: after that
//! step is counted and after every hook call the operation makes before
//! it fails.

use crate::module::{Function, Global, GlobalKind, InstKind, Module, Term};
use crate::types::{BinOp, BlockId, CmpOp, FuncId, InstId, Ty, Val};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use wyt_emu::{dispatch, ExtId, ExtIo, ExtOutcome, Memory, PAGE_SIZE};
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
    },
    /// Recovered: explicit argument values.
    Explicit(&'a [Tagged]),
}

/// Dynamic-analysis callbacks. Every method has a no-op default; an
/// analysis implements the subset it needs.
#[allow(unused_variables)]
pub trait Hooks {
    /// A function is entered. `callsite` is `None` for the program entry,
    /// and otherwise the calling function and call instruction, direct or
    /// indirect.
    fn fn_enter(&mut self, f: FuncId, callsite: Option<(FuncId, InstId)>, mem: &Memory) {}
    /// A function returns.
    fn fn_exit(&mut self, f: FuncId) {}
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
    fn cmp(&mut self, a: Tagged, b: Tagged) {}
    /// A load executed. Return the loaded value's shadow.
    fn load(&mut self, f: FuncId, inst: InstId, ty: Ty, addr: Tagged) -> Option<Shadow> {
        None
    }
    /// A store executed.
    fn store(&mut self, ty: Ty, addr: Tagged, val: Tagged) {}
    /// An I32 load of the register cell at `addr` through that constant
    /// address executed (see the module docs). Return the loaded value's
    /// shadow. The default is the [`Hooks::load`] of the same access: a
    /// constant address carries no shadow.
    #[inline]
    fn cell_load(&mut self, f: FuncId, inst: InstId, addr: u32) -> Option<Shadow> {
        self.load(f, inst, Ty::I32, (addr, None))
    }
    /// An I32 store to the register cell at `addr` through that constant
    /// address executed. The default is the [`Hooks::store`] of the same
    /// access.
    #[inline]
    fn cell_store(&mut self, addr: u32, val: Tagged) {
        self.store(Ty::I32, (addr, None), val)
    }
    /// A value is copied verbatim (phi, select, copy). Maps the chosen
    /// input's shadow to the result's shadow (the paper's `copy` op).
    fn transparent(&mut self, s: Option<Shadow>) -> Option<Shadow> {
        s
    }
    /// An external call is about to run.
    fn ext_call(&mut self, ext: ExtId, args: &ExtArgs<'_>, mem: &Memory) {}
    /// An external call returned `ret`. Return the result's shadow.
    fn ext_ret(
        &mut self,
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
    /// block, instruction) — malformed IR reached the interpreter.
    BadIndex(&'static str, u32),
    /// A phi at a branch target had no incoming for the source block.
    MissingBlockArg(FuncId, BlockId),
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

/// An index into the current frame's window.
type Slot = u32;

/// Parameters from this index on get no slot and read as 0, as an
/// argument the caller did not pass does. It bounds a window against a
/// malformed parameter index; no call passes this many arguments.
const MAX_PARAM_SLOTS: u32 = 1 << 16;

/// One step of the replay form. Every op, terminators and phis included,
/// is one interpreter step.
#[derive(Debug, Clone, Copy)]
enum Op {
    Bin {
        op: BinOp,
        a: Slot,
        b: Slot,
        dst: Slot,
        inst: InstId,
    },
    Cmp {
        op: CmpOp,
        a: Slot,
        b: Slot,
        dst: Slot,
    },
    Ext {
        signed: bool,
        from: Ty,
        v: Slot,
        dst: Slot,
    },
    Load {
        ty: Ty,
        addr: Slot,
        dst: Slot,
        inst: InstId,
    },
    Store {
        ty: Ty,
        addr: Slot,
        val: Slot,
    },
    /// An I32 load of cell-file word `cell`, whose address is `addr`.
    LoadCell {
        cell: u32,
        addr: u32,
        dst: Slot,
        inst: InstId,
    },
    /// An I32 store to cell-file word `cell`, whose address is `addr`.
    StoreCell {
        cell: u32,
        addr: u32,
        val: Slot,
    },
    /// `size` is already at least 1; `mask` clears the alignment bits.
    Alloca {
        size: u32,
        mask: u32,
        dst: Slot,
    },
    /// `GlobalAddr` or `FuncAddr`, folded to the address.
    Const {
        value: u32,
        dst: Slot,
    },
    Select {
        c: Slot,
        a: Slot,
        b: Slot,
        dst: Slot,
    },
    Copy {
        v: Slot,
        dst: Slot,
    },
    /// A phi: the edge into its block already wrote it.
    Nop,
    Call {
        callee: FuncId,
        site: u32,
        inst: InstId,
    },
    CallInd {
        target: Slot,
        site: u32,
        inst: InstId,
    },
    CallExtRaw {
        ext: ExtId,
        sp: Slot,
        dst: Slot,
    },
    CallExt {
        ext: ExtId,
        site: u32,
    },
    /// Malformed IR: raises `Code::errors[err]`.
    Fail {
        err: u32,
    },
    /// An edge without phi moves: most branches, taken without a look
    /// at `Code::edges`.
    Jump {
        pc: u32,
    },
    /// An edge with phi moves, or a malformed one: `Code::edges[edge]`.
    Br {
        edge: u32,
    },
    /// A two-way branch whose edges have no phi moves.
    JumpIf {
        c: Slot,
        t: u32,
        f: u32,
    },
    /// A two-way branch over `Code::edges`.
    CondBr {
        c: Slot,
        t: u32,
        f: u32,
    },
    Switch {
        v: Slot,
        sw: u32,
    },
    Ret {
        v: Option<Slot>,
    },
    Trap {
        code: u8,
    },
    Unreachable {
        block: BlockId,
    },
}

/// A CFG edge that a plain jump cannot take.
#[derive(Debug, Clone, Copy)]
enum Edge {
    /// Run the phi moves `Code::moves[lo..hi]` as one parallel copy, then
    /// continue at `pc`.
    To { pc: u32, lo: u32, hi: u32 },
    /// A branch to a missing block, or into phis without an incoming for
    /// the branching block: raises `Code::errors[err]`.
    Fail { err: u32 },
}

/// A call's arguments, `Code::args[lo..hi]`, and the slot that receives
/// its result.
#[derive(Debug, Clone, Copy)]
struct Site {
    lo: u32,
    hi: u32,
    dst: Slot,
}

/// A switch: cases `Code::cases[lo..hi]` (the first match wins), then the
/// default edge.
#[derive(Debug, Clone, Copy)]
struct SwitchTable {
    lo: u32,
    hi: u32,
    default: u32,
}

/// A function's entry and the layout of its window: parameters in
/// `[0, params)`, then its constants `Code::pool[pool.0..pool.1]`, then
/// result slots up to `slots`.
#[derive(Debug, Clone, Copy)]
struct FuncCode {
    /// The entry block's first op; `None` if the entry block does not
    /// exist, which is an error when the function is entered.
    entry_pc: Option<u32>,
    entry: BlockId,
    params: u32,
    pool: (u32, u32),
    slots: u32,
}

/// The whole module in replay form.
#[derive(Debug, Default)]
struct Code {
    ops: Vec<Op>,
    funcs: Vec<FuncCode>,
    edges: Vec<Edge>,
    /// Phi moves `(from, to)`, grouped by edge.
    moves: Vec<(Slot, Slot)>,
    switches: Vec<SwitchTable>,
    /// `(value, edge)` per switch case.
    cases: Vec<(i32, u32)>,
    sites: Vec<Site>,
    /// Argument slots of every call site.
    args: Vec<Slot>,
    /// Constant slot values of every function.
    pool: Vec<u32>,
    errors: Vec<InterpError>,
    /// `(address, function)` of every lifted entry, sorted by address.
    by_addr: Vec<(u32, FuncId)>,
}

impl Code {
    /// Lower `module` in one pass over its functions, with the cell-file
    /// words at `cells`.
    fn new(module: &Module, global_addrs: &[u32], cells: &[u32]) -> Code {
        let mut code = Code::default();
        let ext_ids: Vec<Option<ExtId>> =
            module.externs.iter().map(|n| ExtId::from_name(n)).collect();
        for (i, f) in module.funcs.iter().enumerate() {
            let lower = Lower {
                code: &mut code,
                module,
                global_addrs,
                cells,
                ext_ids: &ext_ids,
                fid: FuncId(i as u32),
                f,
                params: 0,
                consts: Vec::new(),
                slot_of: vec![Slot::MAX; f.insts.len()],
                next: 0,
                zero: None,
                block_pc: Vec::new(),
                phi_edges: HashMap::new(),
            };
            let fc = lower.func();
            code.funcs.push(fc);
        }
        // A stable sort keeps equal addresses in function order; the last
        // function with an address owns it.
        let mut by_addr: Vec<(u32, FuncId)> = (module.funcs.iter().enumerate())
            .filter_map(|(i, f)| Some((f.orig_addr?, FuncId(i as u32))))
            .collect();
        by_addr.sort_by_key(|e| e.0);
        for e in by_addr {
            match code.by_addr.last_mut() {
                Some(last) if last.0 == e.0 => *last = e,
                _ => code.by_addr.push(e),
            }
        }
        code
    }

    fn error(&mut self, e: InterpError) -> u32 {
        self.errors.push(e);
        self.errors.len() as u32 - 1
    }

    fn edge(&mut self, e: Edge) -> u32 {
        self.edges.push(e);
        self.edges.len() as u32 - 1
    }
}

/// Most cell-file words; further cells stay memory accesses.
const MAX_CELLS: usize = 64;

/// The addresses of `module`'s [`GlobalKind::VcpuReg`] globals that become
/// cell-file words, sorted: the first [`MAX_CELLS`] whose word lies in one
/// page and overlaps no other's, so each stands for one `u32` of
/// [`Memory`] that no other cell shares.
fn cell_addrs(module: &Module, global_addrs: &[u32]) -> Vec<u32> {
    let mut addrs: Vec<u32> = (module.globals.iter().zip(global_addrs))
        .filter(|(g, _)| matches!(g.kind, GlobalKind::VcpuReg(_)))
        .map(|(_, &a)| a)
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    let alone = |k: usize| {
        addrs[k] % PAGE_SIZE <= PAGE_SIZE - 4
            && (k == 0 || addrs[k] - addrs[k - 1] >= 4)
            && addrs.get(k + 1).is_none_or(|&next| next - addrs[k] >= 4)
    };
    (0..addrs.len()).filter(|&k| alone(k)).map(|k| addrs[k]).take(MAX_CELLS).collect()
}

/// The run's cell file (see the module docs).
#[derive(Debug)]
struct CellFile {
    /// Each word's address, sorted.
    addrs: Vec<u32>,
    /// Every word lies in `[lo, lo + span)`.
    lo: u32,
    span: u32,
    vals: Vec<u32>,
    /// Bit `k`: word `k`'s page is resident, so its stores can wait.
    resident: u64,
    /// Bit `k`: memory has not seen word `k`'s last store.
    dirty: u64,
}

impl CellFile {
    fn new(addrs: Vec<u32>) -> CellFile {
        let (lo, span) = match (addrs.first(), addrs.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi - lo + 4),
            _ => (0, 0),
        };
        let vals = vec![0; addrs.len()];
        CellFile { addrs, lo, span, vals, resident: 0, dirty: 0 }
    }

    /// Whether an access of `size` bytes at `addr` (wrapping) may touch a
    /// byte of a word.
    #[inline]
    fn overlaps(&self, addr: u32, size: u32) -> bool {
        let d = addr.wrapping_sub(self.lo);
        d < self.span || d > u32::MAX - (size - 1)
    }

    /// Start a run on `mem`, which may have changed since the last one.
    fn start(&mut self, mem: &Memory) {
        self.resident = 0;
        self.reload(mem);
    }

    /// Read every word from `mem`. A run allocates pages but frees none,
    /// so only a word that was not resident needs its page looked up.
    fn reload(&mut self, mem: &Memory) {
        for (k, (v, &a)) in self.vals.iter_mut().zip(&self.addrs).enumerate() {
            *v = mem.read_u32(a);
            if self.resident & 1 << k == 0 && mem.is_resident(a) {
                self.resident |= 1 << k;
            }
        }
        self.dirty = 0;
    }

    /// Write the words memory has not seen.
    #[inline]
    fn flush(&mut self, mem: &mut Memory) {
        while self.dirty != 0 {
            let k = self.dirty.trailing_zeros() as usize;
            mem.write_u32(self.addrs[k], self.vals[k]);
            self.dirty &= self.dirty - 1;
        }
    }

    #[inline]
    fn store(&mut self, k: u32, v: u32, mem: &mut Memory) {
        if self.resident & 1 << k != 0 {
            self.vals[k as usize] = v;
            self.dirty |= 1 << k;
        } else {
            self.store_through(k, v, mem);
        }
    }

    /// A store to a word whose page was not resident: write it through,
    /// and keep what memory kept, which is nothing if the page cap
    /// dropped the write.
    #[cold]
    fn store_through(&mut self, k: u32, v: u32, mem: &mut Memory) {
        let addr = self.addrs[k as usize];
        mem.write_u32(addr, v);
        self.vals[k as usize] = mem.read_u32(addr);
        if mem.is_resident(addr) {
            self.resident |= 1 << k;
        }
    }
}

/// Lowering state for one function.
struct Lower<'a> {
    code: &'a mut Code,
    module: &'a Module,
    global_addrs: &'a [u32],
    /// The cell-file words' addresses, sorted.
    cells: &'a [u32],
    ext_ids: &'a [Option<ExtId>],
    fid: FuncId,
    f: &'a Function,
    params: u32,
    /// The function's distinct constants, sorted.
    consts: Vec<i32>,
    /// Per instruction: its result slot, once it has one.
    slot_of: Vec<Slot>,
    /// Next free result slot.
    next: Slot,
    /// A slot nothing writes, for operands that name no instruction.
    zero: Option<Slot>,
    block_pc: Vec<u32>,
    /// Per `(pred, target)` where the target starts with phis: the edge's
    /// moves, or `None` if a phi has no incoming for `pred`.
    phi_edges: HashMap<(BlockId, BlockId), Option<(u32, u32)>>,
}

impl Lower<'_> {
    fn func(mut self) -> FuncCode {
        let f = self.f;
        // Every operand the function's blocks can read.
        let (mut params, mut consts) = (0, Vec::new());
        let mut visit = |v| match v {
            Val::Param(p) if p < MAX_PARAM_SLOTS => params = params.max(p + 1),
            Val::Const(c) => consts.push(c),
            _ => {}
        };
        for b in &f.blocks {
            for i in &b.insts {
                if let Some(kind) = f.insts.get(i.index()) {
                    kind.for_each_operand(&mut visit);
                }
            }
            b.term.for_each_operand(&mut visit);
        }
        consts.sort_unstable();
        consts.dedup();
        let pool_lo = self.code.pool.len() as u32;
        self.code.pool.extend(consts.iter().map(|&c| c as u32));
        self.params = params;
        self.next = params + consts.len() as u32;
        self.consts = consts;

        let mut pc = self.code.ops.len() as u32;
        for b in &f.blocks {
            self.block_pc.push(pc);
            pc += b.insts.len() as u32 + 1;
        }
        self.lower_phi_edges();
        for (bi, b) in f.blocks.iter().enumerate() {
            for &i in &b.insts {
                let op = self.inst(i);
                self.code.ops.push(op);
            }
            let op = self.term(BlockId(bi as u32), &b.term);
            self.code.ops.push(op);
        }
        FuncCode {
            entry_pc: self.block_pc.get(f.entry.index()).copied(),
            entry: f.entry,
            params,
            pool: (pool_lo, self.code.pool.len() as u32),
            slots: self.next,
        }
    }

    fn fresh(&mut self) -> Slot {
        self.next += 1;
        self.next - 1
    }

    /// The result slot of instruction `i`.
    fn result(&mut self, i: InstId) -> Slot {
        match self.slot_of.get(i.index()).copied() {
            Some(Slot::MAX) => {
                let s = self.fresh();
                self.slot_of[i.index()] = s;
                s
            }
            Some(s) => s,
            None => self.zero(),
        }
    }

    fn zero(&mut self) -> Slot {
        match self.zero {
            Some(s) => s,
            None => {
                let s = self.fresh();
                *self.zero.insert(s)
            }
        }
    }

    fn slot(&mut self, v: Val) -> Slot {
        match v {
            Val::Inst(i) => self.result(i),
            Val::Param(p) if p < self.params => p,
            Val::Param(_) => self.zero(),
            Val::Const(c) => match self.consts.binary_search(&c) {
                Ok(k) => self.params + k as u32,
                Err(_) => self.zero(),
            },
        }
    }

    /// The cell-file word an I32 access through `addr` reaches, if any.
    fn cell(&self, ty: Ty, addr: Val) -> Option<(u32, u32)> {
        let (Ty::I32, Val::Const(a)) = (ty, addr) else { return None };
        let k = self.cells.binary_search(&(a as u32)).ok()?;
        Some((k as u32, a as u32))
    }

    fn fail(&mut self, e: InterpError) -> Op {
        Op::Fail { err: self.code.error(e) }
    }

    fn site(&mut self, args: &[Val], i: InstId) -> u32 {
        let lo = self.code.args.len() as u32;
        for &a in args {
            let s = self.slot(a);
            self.code.args.push(s);
        }
        let site = Site { lo, hi: self.code.args.len() as u32, dst: self.result(i) };
        self.code.sites.push(site);
        self.code.sites.len() as u32 - 1
    }

    fn inst(&mut self, i: InstId) -> Op {
        let Some(kind) = self.f.insts.get(i.index()) else {
            return self.fail(InterpError::BadIndex("instruction", i.0));
        };
        match *kind {
            InstKind::Bin { op, a, b } => {
                Op::Bin { op, a: self.slot(a), b: self.slot(b), dst: self.result(i), inst: i }
            }
            InstKind::Cmp { op, a, b } => {
                Op::Cmp { op, a: self.slot(a), b: self.slot(b), dst: self.result(i) }
            }
            InstKind::Ext { signed, from, v } => {
                Op::Ext { signed, from, v: self.slot(v), dst: self.result(i) }
            }
            InstKind::Load { ty, addr } => match self.cell(ty, addr) {
                Some((cell, addr)) => Op::LoadCell { cell, addr, dst: self.result(i), inst: i },
                None => Op::Load { ty, addr: self.slot(addr), dst: self.result(i), inst: i },
            },
            InstKind::Store { ty, addr, val } => match self.cell(ty, addr) {
                Some((cell, addr)) => Op::StoreCell { cell, addr, val: self.slot(val) },
                None => Op::Store { ty, addr: self.slot(addr), val: self.slot(val) },
            },
            InstKind::Alloca { size, align, .. } => {
                Op::Alloca { size: size.max(1), mask: !(align.max(4) - 1), dst: self.result(i) }
            }
            InstKind::GlobalAddr { g } => match self.global_addrs.get(g.index()) {
                Some(&value) => Op::Const { value, dst: self.result(i) },
                None => self.fail(InterpError::BadIndex("global", g.0)),
            },
            InstKind::FuncAddr { f } => match self.module.funcs.get(f.index()) {
                Some(func) => Op::Const { value: func.orig_addr.unwrap_or(0), dst: self.result(i) },
                None => self.fail(InterpError::BadIndex("function", f.0)),
            },
            InstKind::Call { f, ref args } => {
                Op::Call { callee: f, site: self.site(args, i), inst: i }
            }
            InstKind::CallInd { target, ref args } => {
                Op::CallInd { target: self.slot(target), site: self.site(args, i), inst: i }
            }
            InstKind::CallExtRaw { ext, sp } => match self.ext(ext) {
                Some(ext) => Op::CallExtRaw { ext, sp: self.slot(sp), dst: self.result(i) },
                None => self.fail(InterpError::UnknownExtern(ext)),
            },
            InstKind::CallExt { ext, ref args } => match self.ext(ext) {
                Some(ext) => Op::CallExt { ext, site: self.site(args, i) },
                None => self.fail(InterpError::UnknownExtern(ext)),
            },
            InstKind::Select { c, a, b } => Op::Select {
                c: self.slot(c),
                a: self.slot(a),
                b: self.slot(b),
                dst: self.result(i),
            },
            InstKind::Phi { .. } => Op::Nop,
            InstKind::Copy { v } => Op::Copy { v: self.slot(v), dst: self.result(i) },
        }
    }

    fn ext(&self, ext: u16) -> Option<ExtId> {
        self.ext_ids.get(ext as usize).copied().flatten()
    }

    /// The phi moves of every edge into a block that starts with phis, in
    /// one pass over the phis' incomings. A phi takes its first incoming
    /// for the branching block; an edge carries one move per leading phi,
    /// in phi order, or none of them if some phi lacks an incoming for it.
    fn lower_phi_edges(&mut self) {
        let f = self.f;
        for (ti, tb) in f.blocks.iter().enumerate() {
            let mut by_pred: BTreeMap<BlockId, Vec<(Slot, Slot)>> = BTreeMap::new();
            let mut phis = 0;
            for &i in &tb.insts {
                let Some(InstKind::Phi { incomings }) = f.insts.get(i.index()) else { break };
                let dst = self.result(i);
                for &(pred, v) in incomings {
                    let moves = by_pred.entry(pred).or_default();
                    // Only the first incoming per phi; a pred that missed
                    // an earlier phi is already incomplete.
                    if moves.len() == phis {
                        moves.push((self.slot(v), dst));
                    }
                }
                phis += 1;
            }
            if phis == 0 {
                continue;
            }
            let target = BlockId(ti as u32);
            for (pred, moves) in by_pred {
                let range = (moves.len() == phis).then(|| {
                    let lo = self.code.moves.len() as u32;
                    self.code.moves.extend(moves);
                    (lo, self.code.moves.len() as u32)
                });
                self.phi_edges.insert((pred, target), range);
            }
        }
    }

    /// The edge from `from` to `to`: `Ok(pc)` if a plain jump takes it.
    fn edge(&mut self, from: BlockId, to: BlockId) -> Result<u32, Edge> {
        let Some(&pc) = self.block_pc.get(to.index()) else {
            return Err(Edge::Fail { err: self.code.error(InterpError::BadIndex("block", to.0)) });
        };
        let starts_with_phi = (self.f.blocks[to.index()].insts.first())
            .and_then(|i| self.f.insts.get(i.index()))
            .is_some_and(|k| matches!(k, InstKind::Phi { .. }));
        if !starts_with_phi {
            return Ok(pc);
        }
        match self.phi_edges.get(&(from, to)).copied().flatten() {
            Some((lo, hi)) => Err(Edge::To { pc, lo, hi }),
            None => {
                let err = self.code.error(InterpError::MissingBlockArg(self.fid, to));
                Err(Edge::Fail { err })
            }
        }
    }

    /// An [`Lower::edge`] as an index into `Code::edges`.
    fn edge_index(&mut self, e: Result<u32, Edge>) -> u32 {
        let e = e.map(|pc| Edge::To { pc, lo: 0, hi: 0 });
        let e = e.unwrap_or_else(|e| e);
        self.code.edge(e)
    }

    fn term(&mut self, from: BlockId, t: &Term) -> Op {
        match *t {
            Term::Br(b) => match self.edge(from, b) {
                Ok(pc) => Op::Jump { pc },
                Err(e) => Op::Br { edge: self.code.edge(e) },
            },
            Term::CondBr { c, t, f } => {
                let c = self.slot(c);
                match (self.edge(from, t), self.edge(from, f)) {
                    (Ok(t), Ok(f)) => Op::JumpIf { c, t, f },
                    (t, f) => Op::CondBr { c, t: self.edge_index(t), f: self.edge_index(f) },
                }
            }
            Term::Switch { v, ref cases, default } => {
                let v = self.slot(v);
                let lo = self.code.cases.len() as u32;
                for &(value, b) in cases {
                    let e = self.edge(from, b);
                    let e = self.edge_index(e);
                    self.code.cases.push((value, e));
                }
                let hi = self.code.cases.len() as u32;
                let default = self.edge(from, default);
                let default = self.edge_index(default);
                self.code.switches.push(SwitchTable { lo, hi, default });
                Op::Switch { v, sw: self.code.switches.len() as u32 - 1 }
            }
            Term::Ret(v) => Op::Ret { v: v.map(|v| self.slot(v)) },
            Term::Trap(code) => Op::Trap { code },
            Term::Unreachable => Op::Unreachable { block: from },
        }
    }
}

/// The caller's state while a callee runs.
#[derive(Debug, Clone, Copy)]
struct Return {
    func: FuncId,
    /// The op after the call.
    pc: usize,
    /// The caller's window.
    base: usize,
    /// The caller's slot that receives the return value.
    dst: Slot,
    /// Native stack pointer to restore on return.
    nsp: u32,
}

/// The interpreter. Construct with [`Interp::new`], then [`Interp::run`].
pub struct Interp<'m, H: Hooks> {
    module: &'m Module,
    /// Resolved addresses of every global.
    pub global_addrs: Vec<u32>,
    code: Code,
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
    /// The value stack: every live frame's window of `(value, shadow)`
    /// slots, callers below callees.
    slots: Vec<Tagged>,
    /// The register cells, as interpreter registers.
    cells: CellFile,
    /// Reusable buffers: the tagged arguments of the call in flight, and
    /// an external call's argument values.
    argbuf: Vec<Tagged>,
    argv: Vec<u32>,
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
        let cells = CellFile::new(cell_addrs(module, &global_addrs));
        let code = Code::new(module, &global_addrs, &cells.addrs);
        Interp {
            module,
            global_addrs,
            code,
            mem,
            io: ExtIo::new(input),
            hooks,
            nsp: NATIVE_STACK_TOP,
            fuel: 500_000_000,
            steps: 0,
            loads: 0,
            stores: 0,
            guard_hit: None,
            slots: Vec::new(),
            cells,
            argbuf: Vec::new(),
            argv: Vec::new(),
        }
    }

    /// Override the step budget (default 500 million).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Loads executed so far.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Stores executed so far.
    pub fn stores(&self) -> u64 {
        self.stores
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

    /// The step loop. Its counters and the native stack pointer live in
    /// locals and go back into `self` when the run ends.
    fn run_inner(&mut self, entry: FuncId, args: &[u32]) -> Result<i32, InterpError> {
        let Interp { code, mem, io, hooks, slots, cells, argbuf, argv, guard_hit, .. } = self;
        let (fuel, mut steps, mut loads, mut stores) =
            (self.fuel, self.steps, self.loads, self.stores);
        cells.start(mem);
        let (mut nsp, entry_nsp) = (self.nsp, self.nsp);
        argbuf.clear();
        argbuf.extend(args.iter().map(|&a| (a, None)));
        let mut pc = enter(code, hooks, mem, slots, argbuf, None, entry, 0)?;
        let (mut cur, mut base) = (entry, 0usize);
        let mut calls: Vec<Return> = Vec::new();

        macro_rules! get {
            ($s:expr) => {
                slots[base + $s as usize].0
            };
        }
        macro_rules! tagged {
            ($s:expr) => {
                slots[base + $s as usize]
            };
        }
        macro_rules! set {
            ($s:expr, $v:expr, $sh:expr) => {
                slots[base + $s as usize] = ($v, $sh)
            };
        }
        macro_rules! tri {
            ($r:expr) => {
                match $r {
                    Ok(v) => v,
                    Err(e) => break Err(e),
                }
            };
        }
        // Put the tagged arguments of call site `site` in `argbuf`.
        macro_rules! args {
            ($site:expr) => {{
                let st = code.sites[$site as usize];
                argbuf.clear();
                for &s in &code.args[st.lo as usize..st.hi as usize] {
                    argbuf.push(tagged!(s));
                }
                st.dst
            }};
        }
        macro_rules! call {
            ($callee:expr, $site:expr, $inst:expr) => {{
                let (callee, inst) = ($callee, $inst);
                let dst = args!($site);
                let top = base + code.funcs[cur.index()].slots as usize;
                let site = Some((cur, inst));
                cells.flush(mem);
                let entry_pc = tri!(enter(code, hooks, mem, slots, argbuf, site, callee, top));
                calls.push(Return { func: cur, pc: pc + 1, base, dst, nsp });
                (cur, base, pc) = (callee, top, entry_pc);
            }};
        }
        macro_rules! take {
            ($edge:expr) => {
                pc = tri!(take_edge(code, $edge, &mut slots[base..], hooks, argbuf))
            };
        }

        let result = loop {
            if steps >= fuel {
                break Err(InterpError::Fuel);
            }
            steps += 1;
            match code.ops[pc] {
                Op::Bin { op, a, b, dst, inst } => {
                    let (ta, tb) = (tagged!(a), tagged!(b));
                    let Some(res) = op.eval(ta.0, tb.0) else {
                        break Err(InterpError::DivideError(cur, inst));
                    };
                    let s = hooks.bin(cur, inst, op, ta, tb, res);
                    set!(dst, res, s);
                    pc += 1;
                }
                Op::Cmp { op, a, b, dst } => {
                    let (ta, tb) = (tagged!(a), tagged!(b));
                    let res = op.eval(ta.0, tb.0) as u32;
                    hooks.cmp(ta, tb);
                    set!(dst, res, None);
                    pc += 1;
                }
                Op::Ext { signed, from, v, dst } => {
                    let x = get!(v) & from.mask();
                    let res = if signed {
                        let bits = from.bytes() * 8;
                        (((x as i32) << (32 - bits)) >> (32 - bits)) as u32
                    } else {
                        x
                    };
                    set!(dst, res, None);
                    pc += 1;
                }
                Op::Load { ty, addr, dst, inst } => {
                    let ta = tagged!(addr);
                    loads += 1;
                    if cells.overlaps(ta.0, ty.bytes()) {
                        cells.flush(mem);
                    }
                    let val = mem.read_sized(ta.0, to_isa_size(ty));
                    let s = hooks.load(cur, inst, ty, ta);
                    set!(dst, val, s);
                    pc += 1;
                }
                Op::Store { ty, addr, val } => {
                    let (ta, tv) = (tagged!(addr), tagged!(val));
                    stores += 1;
                    if cells.overlaps(ta.0, ty.bytes()) {
                        cells.flush(mem);
                        mem.write_sized(ta.0, tv.0, to_isa_size(ty));
                        cells.reload(mem);
                    } else {
                        mem.write_sized(ta.0, tv.0, to_isa_size(ty));
                    }
                    hooks.store(ty, ta, tv);
                    pc += 1;
                }
                Op::LoadCell { cell, addr, dst, inst } => {
                    loads += 1;
                    let val = cells.vals[cell as usize];
                    let s = hooks.cell_load(cur, inst, addr);
                    set!(dst, val, s);
                    pc += 1;
                }
                Op::StoreCell { cell, addr, val } => {
                    let tv = tagged!(val);
                    stores += 1;
                    cells.store(cell, tv.0, mem);
                    hooks.cell_store(addr, tv);
                    pc += 1;
                }
                Op::Alloca { size, mask, dst } => {
                    nsp = (nsp - size) & mask;
                    set!(dst, nsp, None);
                    pc += 1;
                }
                Op::Const { value, dst } => {
                    set!(dst, value, None);
                    pc += 1;
                }
                Op::Select { c, a, b, dst } => {
                    let (v, s) = if get!(c) != 0 { tagged!(a) } else { tagged!(b) };
                    let s = hooks.transparent(s);
                    set!(dst, v, s);
                    pc += 1;
                }
                Op::Copy { v, dst } => {
                    let (v, s) = tagged!(v);
                    let s = hooks.transparent(s);
                    set!(dst, v, s);
                    pc += 1;
                }
                Op::Nop => pc += 1,
                Op::Call { callee, site, inst } => call!(callee, site, inst),
                Op::CallInd { target, site, inst } => {
                    let t = get!(target);
                    let Ok(k) = code.by_addr.binary_search_by_key(&t, |e| e.0) else {
                        // An indirect call to an unlifted address is the
                        // IR-level form of the backend's dispatch-miss
                        // guard: attribute it the same way.
                        *guard_hit =
                            Some(GuardHit { func: cur, kind: GuardKind::UntracedIndirect });
                        break Err(InterpError::BadIndirect(t));
                    };
                    call!(code.by_addr[k].1, site, inst);
                }
                Op::CallExtRaw { ext, sp, dst } => {
                    cells.flush(mem);
                    let (ret, s) = tri!(ext_raw(hooks, mem, io, ext, get!(sp)));
                    cells.reload(mem);
                    set!(dst, ret, s);
                    pc += 1;
                }
                Op::CallExt { ext, site } => {
                    let dst = args!(site);
                    cells.flush(mem);
                    let (ret, s) = tri!(ext_explicit(hooks, mem, io, argbuf, argv, ext));
                    cells.reload(mem);
                    set!(dst, ret, s);
                    pc += 1;
                }
                Op::Fail { err } => break Err(code.errors[err as usize].clone()),
                Op::Jump { pc: to } => pc = to as usize,
                Op::Br { edge } => take!(edge),
                Op::JumpIf { c, t, f } => pc = if get!(c) != 0 { t } else { f } as usize,
                Op::CondBr { c, t, f } => take!(if get!(c) != 0 { t } else { f }),
                Op::Switch { v, sw } => {
                    let val = get!(v) as i32;
                    let sw = code.switches[sw as usize];
                    let cases = &code.cases[sw.lo as usize..sw.hi as usize];
                    take!(cases.iter().find(|c| c.0 == val).map_or(sw.default, |c| c.1));
                }
                Op::Ret { v } => {
                    let rv = v.map(|v| tagged!(v));
                    hooks.fn_exit(cur);
                    let Some(r) = calls.pop() else {
                        nsp = entry_nsp;
                        break Ok(rv.map_or(0, |(v, _)| v as i32));
                    };
                    (cur, pc, base, nsp) = (r.func, r.pc, r.base, r.nsp);
                    let (v, s) = rv.unwrap_or((0, None));
                    let s = hooks.transparent(s);
                    set!(r.dst, v, s);
                }
                Op::Trap { code: c } => {
                    if let Some(kind) = TrapCode::guard_kind(c) {
                        *guard_hit = Some(GuardHit { func: cur, kind });
                    }
                    break Err(InterpError::Trap(c));
                }
                Op::Unreachable { block } => break Err(InterpError::Unreachable(cur, block)),
            }
        };
        cells.flush(mem);
        (self.steps, self.loads, self.stores, self.nsp) = (steps, loads, stores, nsp);
        result
    }
}

/// Enter `callee` with the tagged arguments `args`: open its window at
/// `base` and tell the hooks. `callsite` is `None` for the entry
/// function. Returns the callee's first op.
#[allow(clippy::too_many_arguments)]
fn enter<H: Hooks>(
    code: &Code,
    hooks: &mut H,
    mem: &Memory,
    slots: &mut Vec<Tagged>,
    args: &[Tagged],
    callsite: Option<(FuncId, InstId)>,
    callee: FuncId,
    base: usize,
) -> Result<usize, InterpError> {
    let fc = *code.funcs.get(callee.index()).ok_or(InterpError::BadIndex("function", callee.0))?;
    let end = base + fc.slots as usize;
    if slots.len() < end {
        slots.resize(end, (0, None));
    }
    // Parameters the caller did not pass read as 0, constants take their
    // pooled values, and results start at 0 until written.
    let w = &mut slots[base..end];
    let p = fc.params as usize;
    for (k, slot) in w[..p].iter_mut().enumerate() {
        *slot = args.get(k).copied().unwrap_or((0, None));
    }
    let pool = &code.pool[fc.pool.0 as usize..fc.pool.1 as usize];
    for (slot, &c) in w[p..].iter_mut().zip(pool) {
        *slot = (c, None);
    }
    w[p + pool.len()..].fill((0, None));
    hooks.fn_enter(callee, callsite, mem);
    let pc = fc.entry_pc.ok_or(InterpError::BadIndex("block", fc.entry.0))?;
    Ok(pc as usize)
}

/// Take `Code::edges[edge]` from the frame whose window starts `slots`:
/// read every phi move's source, then write every destination (`moved`
/// is scratch). Returns the op to continue at.
#[cold]
fn take_edge<H: Hooks>(
    code: &Code,
    edge: u32,
    slots: &mut [Tagged],
    hooks: &mut H,
    moved: &mut Vec<Tagged>,
) -> Result<usize, InterpError> {
    match code.edges[edge as usize] {
        Edge::Fail { err } => Err(code.errors[err as usize].clone()),
        Edge::To { pc, lo, hi } => {
            let moves = &code.moves[lo as usize..hi as usize];
            moved.clear();
            moved.extend(moves.iter().map(|&(from, _)| slots[from as usize]));
            for (&(_, to), &(v, s)) in moves.iter().zip(moved.iter()) {
                slots[to as usize] = (v, hooks.transparent(s));
            }
            Ok(pc as usize)
        }
    }
}

/// An external call with unrecovered arguments: the callee reads sixteen
/// words from `sp`.
#[inline(never)]
fn ext_raw<H: Hooks>(
    hooks: &mut H,
    mem: &mut Memory,
    io: &mut ExtIo,
    ext: ExtId,
    sp: u32,
) -> Result<(u32, Option<Shadow>), InterpError> {
    let ea = ExtArgs::Raw { sp };
    hooks.ext_call(ext, &ea, mem);
    let mut staged = [0u32; 16];
    for (i, slot) in staged.iter_mut().enumerate() {
        *slot = mem.read_u32(sp.wrapping_add(4 * i as u32));
    }
    let ret = do_ext(ext, mem, io, &staged)?;
    Ok((ret, hooks.ext_ret(ext, &ea, ret, mem)))
}

/// An external call with the explicit arguments `args` (`argv` is
/// scratch for their values).
#[inline(never)]
fn ext_explicit<H: Hooks>(
    hooks: &mut H,
    mem: &mut Memory,
    io: &mut ExtIo,
    args: &[Tagged],
    argv: &mut Vec<u32>,
    ext: ExtId,
) -> Result<(u32, Option<Shadow>), InterpError> {
    let ea = ExtArgs::Explicit(args);
    hooks.ext_call(ext, &ea, mem);
    argv.clear();
    argv.extend(args.iter().map(|(v, _)| *v));
    let ret = do_ext(ext, mem, io, argv)?;
    Ok((ret, hooks.ext_ret(ext, &ea, ret, mem)))
}

fn do_ext(ext: ExtId, mem: &mut Memory, io: &mut ExtIo, argv: &[u32]) -> Result<u32, InterpError> {
    let mut src: &[u32] = argv;
    match dispatch(ext, mem, io, &mut src) {
        ExtOutcome::Ret { value, .. } => Ok(value),
        // exit() unwinds the whole frame stack; run()/run_from() turn
        // it into a clean exit with the given code.
        ExtOutcome::Exit(code) => Err(InterpError::Exit(code)),
        ExtOutcome::Abort => Err(InterpError::Aborted),
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
            fn store(&mut self, _ty: Ty, _addr: Tagged, val: Tagged) {
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

    /// `main` calls `callee` (one add, then `term`) and returns its result.
    fn call_module(term: impl FnOnce(&mut Function) -> Term) -> Module {
        let mut m = Module::new();
        let mut callee = Function::new("callee");
        callee.push_inst(
            callee.entry,
            InstKind::Bin { op: BinOp::Add, a: Val::Const(1), b: Val::Const(2) },
        );
        callee.blocks[0].term = term(&mut callee);
        let callee_id = m.add_func(callee);
        let mut main = Function::new("main");
        let c = main.push_inst(main.entry, InstKind::Call { f: callee_id, args: vec![] });
        main.blocks[0].term = Term::Ret(Some(Val::Inst(c)));
        let id = m.add_func(main);
        m.entry = Some(id);
        m
    }

    #[test]
    fn swapping_phis_copy_in_parallel() {
        // a, b = 1, 2; three times: a, b = b, a. Sequential moves would
        // leave both equal.
        let m = simple_module(|f| {
            let header = f.add_block();
            let body = f.add_block();
            let exit = f.add_block();
            f.blocks[0].term = Term::Br(header);
            let a = f.push_inst(header, InstKind::Phi { incomings: vec![] });
            let b = f.push_inst(header, InstKind::Phi { incomings: vec![] });
            let i = f.push_inst(header, InstKind::Phi { incomings: vec![] });
            let done =
                f.push_inst(header, InstKind::Cmp { op: CmpOp::Eq, a: Val::Inst(i), b: 3.into() });
            f.blocks[header.index()].term = Term::CondBr { c: Val::Inst(done), t: exit, f: body };
            let i2 =
                f.push_inst(body, InstKind::Bin { op: BinOp::Add, a: Val::Inst(i), b: 1.into() });
            f.blocks[body.index()].term = Term::Br(header);
            let entry = BlockId(0);
            *f.inst_mut(a) =
                InstKind::Phi { incomings: vec![(entry, 1.into()), (body, Val::Inst(b))] };
            *f.inst_mut(b) =
                InstKind::Phi { incomings: vec![(entry, 2.into()), (body, Val::Inst(a))] };
            *f.inst_mut(i) =
                InstKind::Phi { incomings: vec![(entry, 0.into()), (body, Val::Inst(i2))] };
            let a10 =
                f.push_inst(exit, InstKind::Bin { op: BinOp::Mul, a: Val::Inst(a), b: 10.into() });
            let r = f.push_inst(
                exit,
                InstKind::Bin { op: BinOp::Add, a: Val::Inst(a10), b: Val::Inst(b) },
            );
            f.blocks[exit.index()].term = Term::Ret(Some(Val::Inst(r)));
        });
        crate::verify::verify_module(&m).unwrap();
        let out = run_entry(&m);
        assert_eq!((out.error, out.exit_code), (None, 21));
    }

    #[test]
    fn malformed_edges_fail_only_when_taken() {
        // A branch to a missing block, and one into a phi with no incoming
        // for it, both on the untaken side: the run completes.
        let m = simple_module(|f| {
            let ok = f.add_block();
            let phis = f.add_block();
            let done = f.add_block();
            f.blocks[0].term = Term::CondBr { c: 1.into(), t: ok, f: BlockId(99) };
            f.blocks[ok.index()].term = Term::CondBr { c: 0.into(), t: phis, f: done };
            let p = f.push_inst(phis, InstKind::Phi { incomings: vec![(BlockId(0), 4.into())] });
            f.blocks[phis.index()].term = Term::Ret(Some(Val::Inst(p)));
            f.blocks[done.index()].term = Term::Ret(Some(5.into()));
        });
        let out = run_entry(&m);
        assert_eq!((out.error, out.exit_code, out.steps), (None, 5, 3));

        let m = simple_module(|f| {
            let ok = f.add_block();
            let phis = f.add_block();
            f.blocks[0].term = Term::Switch {
                v: 2.into(),
                cases: vec![(1, BlockId(99)), (2, ok), (3, phis)],
                default: BlockId(98),
            };
            f.push_inst(phis, InstKind::Phi { incomings: vec![(ok, 4.into())] });
            f.blocks[phis.index()].term = Term::Ret(Some(5.into()));
            f.blocks[ok.index()].term = Term::Ret(Some(7.into()));
        });
        let out = run_entry(&m);
        assert_eq!((out.error, out.exit_code, out.steps), (None, 7, 2));

        // Taken, the same edges fail at the branch's own step.
        let m = simple_module(|f| {
            let phis = f.add_block();
            f.blocks[0].term =
                Term::Switch { v: 3.into(), cases: vec![(3, phis)], default: BlockId(98) };
            f.push_inst(phis, InstKind::Phi { incomings: vec![(phis, 4.into())] });
            f.blocks[phis.index()].term = Term::Ret(None);
        });
        let out = run_entry(&m);
        assert_eq!(
            (out.error, out.steps),
            (Some(InterpError::MissingBlockArg(FuncId(0), BlockId(1))), 1)
        );
    }

    #[test]
    fn missing_entry_block_fails_only_when_called() {
        #[derive(Default)]
        struct Entered(Vec<FuncId>);
        impl Hooks for Entered {
            fn fn_enter(&mut self, f: FuncId, _: Option<(FuncId, InstId)>, _: &Memory) {
                self.0.push(f);
            }
        }
        // `main` calls `broken`, whose entry block does not exist, if `call`.
        let module = |call: bool| {
            let mut m = Module::new();
            let mut broken = Function::new("broken");
            broken.entry = BlockId(9);
            let broken = m.add_func(broken);
            let mut main = Function::new("main");
            if call {
                main.push_inst(main.entry, InstKind::Call { f: broken, args: vec![] });
            }
            main.blocks[0].term = Term::Ret(None);
            m.entry = Some(m.add_func(main));
            m
        };
        assert_eq!(run_entry(&module(false)).error, None);

        // The error follows the callee's `fn_enter`, with no step of its own.
        let m = module(true);
        let mut it = Interp::new(&m, Vec::new(), Entered::default());
        let out = it.run();
        assert_eq!((out.error, out.steps), (Some(InterpError::BadIndex("block", 9)), 1));
        assert_eq!(it.hooks.0, vec![FuncId(1), FuncId(0)]);
    }

    #[test]
    fn fuel_boundary_is_exact_across_calls_returns_and_phi_edges() {
        // main: call callee (add; ret), br into a block whose phi takes
        // the call's result, add, ret: 7 steps.
        let mut m = call_module(|_| Term::Ret(Some(Val::Inst(InstId(0)))));
        let main = m.entry.unwrap();
        let f = &mut m.funcs[main.index()];
        let join = f.add_block();
        f.blocks[0].term = Term::Br(join);
        let p = f
            .push_inst(join, InstKind::Phi { incomings: vec![(BlockId(0), Val::Inst(InstId(0)))] });
        let r = f.push_inst(join, InstKind::Bin { op: BinOp::Add, a: Val::Inst(p), b: 10.into() });
        f.blocks[join.index()].term = Term::Ret(Some(Val::Inst(r)));
        crate::verify::verify_module(&m).unwrap();
        let full = run_entry(&m);
        assert_eq!((full.error, full.exit_code, full.steps), (None, 13, 7));
        for fuel in 0..=full.steps + 1 {
            let mut it = Interp::new(&m, Vec::new(), NoHooks);
            it.set_fuel(fuel);
            let out = it.run();
            if fuel >= full.steps {
                assert_eq!((out.error, out.steps), (None, full.steps), "fuel {fuel}");
            } else {
                assert_eq!((out.error, out.steps), (Some(InterpError::Fuel), fuel), "fuel {fuel}");
            }
        }
    }

    #[test]
    fn guard_hits_name_the_trapping_function() {
        let branch = TrapCode::UntracedBranch.code();
        let m = call_module(|_| Term::Trap(branch));
        let out = run_entry(&m);
        assert_eq!(out.error, Some(InterpError::Trap(branch)));
        assert_eq!(out.guard, Some(GuardHit { func: FuncId(0), kind: GuardKind::UntracedBranch }));

        // A non-guard trap carries no attribution.
        let m = call_module(|_| Term::Trap(7));
        assert_eq!(run_entry(&m).guard, None);

        // An indirect call to an unlifted address, from the callee.
        let m = call_module(|f| {
            let c =
                f.push_inst(f.entry, InstKind::CallInd { target: Val::Const(0xbad), args: vec![] });
            Term::Ret(Some(Val::Inst(c)))
        });
        let out = run_entry(&m);
        assert_eq!(out.error, Some(InterpError::BadIndirect(0xbad)));
        assert_eq!(
            out.guard,
            Some(GuardHit { func: FuncId(0), kind: GuardKind::UntracedIndirect })
        );
    }

    #[test]
    fn fn_enter_names_each_call_site_in_call_order() {
        // The entry, a direct call and an indirect call: `fn_enter` is the
        // one hook that tells an analysis which call site entered a frame.
        #[derive(Default)]
        struct Calls(Vec<(FuncId, Option<(FuncId, InstId)>)>);
        impl Hooks for Calls {
            fn fn_enter(&mut self, f: FuncId, callsite: Option<(FuncId, InstId)>, _: &Memory) {
                self.0.push((f, callsite));
            }
        }
        let mut m = Module::new();
        let mut target = Function::new("target");
        target.orig_addr = Some(0x1234);
        target.blocks[0].term = Term::Ret(Some(Val::Const(5)));
        let target = m.add_func(target);
        let mut f = Function::new("main");
        let direct = f.push_inst(f.entry, InstKind::Call { f: target, args: vec![] });
        let fa = f.push_inst(f.entry, InstKind::FuncAddr { f: target });
        let ind = f.push_inst(f.entry, InstKind::CallInd { target: Val::Inst(fa), args: vec![] });
        f.blocks[0].term = Term::Ret(Some(Val::Inst(ind)));
        let main = m.add_func(f);
        m.entry = Some(main);
        let mut it = Interp::new(&m, Vec::new(), Calls::default());
        let out = it.run();
        assert_eq!((out.error, out.exit_code), (None, 5));
        assert_eq!(
            it.hooks.0,
            vec![(main, None), (target, Some((main, direct))), (target, Some((main, ind)))]
        );
    }

    /// The cells of [`cell_module`].
    const CELLS: [u32; 3] = [0x2000, 0x2004, 0x2008];

    /// `main(c0, c1, c2, c1 + 1)` over three 4-byte globals of `kind` at
    /// [`CELLS`]: every I32 access to a cell goes through its constant
    /// address, or, if `computed`, through the parameter that holds it.
    /// Either way `main` stores a byte into `c1` and loads `c2` through
    /// computed addresses, has `read_bytes` write into `c2` right after a
    /// store to it, calls `bump(c0)` twice right after a store to `c1`,
    /// prints `c0`, has an unrecovered `read_bytes` write into `c0` right
    /// after a store to it, and ends with a store to `c0`.
    fn cell_module(kind: impl Fn(u8) -> GlobalKind, computed: bool) -> Module {
        let mut m = Module::new();
        for (k, &addr) in CELLS.iter().enumerate() {
            m.add_global(Global {
                name: format!("c{k}"),
                size: 4,
                init: vec![],
                fixed_addr: Some(addr),
                kind: kind(k as u8),
            });
        }
        let cell =
            |k: usize| if computed { Val::Param(k as u32) } else { Val::Const(CELLS[k] as i32) };
        let read_bytes = m.extern_index("read_bytes");
        let putchar = m.extern_index("putchar");

        // bump(c0): c0 += 1; return c0.
        let mut bump = Function::new("bump");
        bump.num_params = 1;
        let e = bump.entry;
        let v = bump.push_inst(e, InstKind::Load { ty: Ty::I32, addr: cell(0) });
        let v1 = bump.push_inst(e, InstKind::Bin { op: BinOp::Add, a: Val::Inst(v), b: 1.into() });
        bump.push_inst(e, InstKind::Store { ty: Ty::I32, addr: cell(0), val: Val::Inst(v1) });
        bump.blocks[0].term = Term::Ret(Some(Val::Inst(v1)));
        let bump = m.add_func(bump);

        let mut f = Function::new("main");
        f.num_params = 4;
        let e = f.entry;
        let mut push = |k| Val::Inst(f.push_inst(e, k));
        let x = push(InstKind::Load { ty: Ty::I32, addr: cell(0) });
        let y = push(InstKind::Bin { op: BinOp::Add, a: x, b: 2.into() });
        push(InstKind::Store { ty: Ty::I32, addr: cell(1), val: y });
        push(InstKind::Store { ty: Ty::I8, addr: Val::Param(3), val: 0x7f.into() });
        let z = push(InstKind::Load { ty: Ty::I32, addr: cell(1) });
        push(InstKind::Store { ty: Ty::I32, addr: cell(2), val: z });
        let args = vec![Val::Const(CELLS[2] as i32 + 1), 2.into()];
        push(InstKind::CallExt { ext: read_bytes, args });
        let w = push(InstKind::Load { ty: Ty::I32, addr: cell(2) });
        push(InstKind::Store { ty: Ty::I32, addr: cell(1), val: w });
        for _ in 0..2 {
            push(InstKind::Call { f: bump, args: vec![Val::Param(0)] });
        }
        let v = push(InstKind::Load { ty: Ty::I32, addr: cell(0) });
        push(InstKind::CallExt { ext: putchar, args: vec![v] });
        push(InstKind::Store { ty: Ty::I32, addr: cell(2), val: z });
        let z2 = push(InstKind::Load { ty: Ty::I32, addr: Val::Param(2) });
        // An unrecovered `read_bytes(c0 + 1, 1)` right after a store to c0.
        let sp = Val::Const(0x3000);
        push(InstKind::Store { ty: Ty::I32, addr: sp, val: Val::Const(CELLS[0] as i32 + 1) });
        push(InstKind::Store { ty: Ty::I32, addr: Val::Const(0x3004), val: 1.into() });
        push(InstKind::Store { ty: Ty::I32, addr: cell(0), val: z });
        push(InstKind::CallExtRaw { ext: read_bytes, sp });
        let u = push(InstKind::Load { ty: Ty::I32, addr: cell(0) });
        let mut r = z;
        for b in [w, v, z2, u] {
            r = push(InstKind::Bin { op: BinOp::Add, a: r, b });
        }
        push(InstKind::Store { ty: Ty::I32, addr: cell(0), val: r });
        f.blocks[0].term = Term::Ret(Some(r));
        m.entry = Some(m.add_func(f));
        crate::verify::verify_module(&m).unwrap();
        m
    }

    /// [`cell_module`]'s arguments.
    const CELL_ARGS: [u32; 4] = [CELLS[0], CELLS[1], CELLS[2], CELLS[1] + 1];

    /// Every hook event, in order. It shadows every load and bin result,
    /// so shadows flow through the cells too.
    #[derive(Default)]
    struct Recorder(Vec<String>);

    impl Hooks for Recorder {
        fn fn_enter(&mut self, f: FuncId, callsite: Option<(FuncId, InstId)>, mem: &Memory) {
            let cells = CELLS.map(|c| mem.read_u32(c));
            self.0.push(format!("enter {f} {callsite:?} {cells:?}"));
        }
        fn fn_exit(&mut self, f: FuncId) {
            self.0.push(format!("exit {f}"));
        }
        fn bin(
            &mut self,
            f: FuncId,
            inst: InstId,
            op: BinOp,
            a: Tagged,
            b: Tagged,
            res: u32,
        ) -> Option<Shadow> {
            self.0.push(format!("bin {f} {inst} {op:?} {a:?} {b:?} {res}"));
            Some(res)
        }
        fn cmp(&mut self, a: Tagged, b: Tagged) {
            self.0.push(format!("cmp {a:?} {b:?}"));
        }
        fn load(&mut self, f: FuncId, inst: InstId, ty: Ty, addr: Tagged) -> Option<Shadow> {
            self.0.push(format!("load {f} {inst} {ty:?} {addr:?}"));
            Some(addr.0 + 1)
        }
        fn store(&mut self, ty: Ty, addr: Tagged, val: Tagged) {
            self.0.push(format!("store {ty:?} {addr:?} {val:?}"));
        }
        fn transparent(&mut self, s: Option<Shadow>) -> Option<Shadow> {
            self.0.push(format!("transparent {s:?}"));
            s
        }
        fn ext_call(&mut self, ext: ExtId, args: &ExtArgs<'_>, mem: &Memory) {
            let cells = CELLS.map(|c| mem.read_u32(c));
            self.0.push(format!("ext {ext:?} {args:?} {cells:?}"));
        }
        fn ext_ret(
            &mut self,
            ext: ExtId,
            args: &ExtArgs<'_>,
            ret: u32,
            mem: &Memory,
        ) -> Option<Shadow> {
            let cells = CELLS.map(|c| mem.read_u32(c));
            self.0.push(format!("ret {ext:?} {args:?} {ret} {cells:?}"));
            None
        }
    }

    /// Counts the cell events.
    #[derive(Default)]
    struct CellEvents(u32);

    impl Hooks for CellEvents {
        fn cell_load(&mut self, _: FuncId, _: InstId, _: u32) -> Option<Shadow> {
            self.0 += 1;
            None
        }
        fn cell_store(&mut self, _: u32, _: Tagged) {
            self.0 += 1;
        }
    }

    #[test]
    fn promoted_cells_replay_exactly_like_memory_accesses() {
        type Replay = (Result<i32, InterpError>, Result<i32, InterpError>, u64, u64, u64);
        let replay = |m: &Module| -> (Replay, [u32; 3], Vec<u8>, Vec<String>) {
            let main = m.entry.unwrap();
            let input = vec![0x11, 0x22, 0x33, 0x44, 0x55, 0x66];
            let mut it = Interp::new(m, input, Recorder::default());
            // Memory written before each run: the run starts from it.
            it.mem.write_u32(CELLS[0], 40);
            let first = it.run_from(main, &CELL_ARGS);
            it.mem.write_u32(CELLS[0], 100);
            let second = it.run_from(main, &CELL_ARGS);
            let counts = (first, second, it.steps, it.loads(), it.stores());
            let cells = CELLS.map(|c| it.mem.read_u32(c));
            (counts, cells, it.io.output.clone(), it.hooks.0.clone())
        };
        let promoted = cell_module(GlobalKind::VcpuReg, false);
        let expected = replay(&promoted);
        // z = c1 = 42 | 0x7f << 8, w = z with 0x11, 0x22 read into its
        // middle bytes, v = c0 = 42 after two bumps, z again from c2, and
        // u = z with 0x33 read into its second byte; then the same from
        // c0 = 100, reading on from 0x44.
        let first = 2 * 0x7f2a + 0x0022_112a + 42 + 0x332a;
        let (w, second) = (0x0055_4466, 2 * 0x7f66 + 0x0055_4466 + 102 + 0x6666);
        assert_eq!((expected.0 .0.clone(), expected.0 .1.clone()), (Ok(first), Ok(second)));
        assert_eq!((expected.1, &expected.2[..]), ([second as u32, w, 0x7f66], &b"*f"[..]));
        assert_eq!(replay(&cell_module(GlobalKind::VcpuReg, true)), expected, "computed");
        assert_eq!(replay(&cell_module(|_| GlobalKind::Data, false)), expected, "data");

        // Only the promoted module has cell ops: five loads and six
        // stores in `main`, a load and a store per `bump`.
        for (m, events) in [
            (promoted, 15),
            (cell_module(GlobalKind::VcpuReg, true), 0),
            (cell_module(|_| GlobalKind::Data, false), 0),
        ] {
            let mut it = Interp::new(&m, vec![0; 6], CellEvents::default());
            it.run_from(m.entry.unwrap(), &CELL_ARGS).unwrap();
            assert_eq!(it.hooks.0, events);
        }
    }

    #[test]
    fn cell_stores_past_the_page_cap_read_back_what_memory_kept() {
        // No page can be allocated, so every write is dropped and every
        // cell reads 0, promoted or not. The second run gets a fresh
        // memory after a first run made the cells' page resident.
        let run = |m: &Module| {
            let mut it = Interp::new(m, vec![0x11, 0x22], NoHooks);
            it.mem.set_page_cap(0);
            let first = it.run_from(m.entry.unwrap(), &CELL_ARGS);
            let capped = it.mem.cap_hit();
            it.mem = Memory::new();
            it.run_from(m.entry.unwrap(), &CELL_ARGS).unwrap();
            it.mem = Memory::new();
            it.mem.set_page_cap(0);
            let second = it.run_from(m.entry.unwrap(), &CELL_ARGS);
            (first, second, capped, it.steps, it.io.output.clone())
        };
        let promoted = run(&cell_module(GlobalKind::VcpuReg, false));
        assert_eq!(promoted, run(&cell_module(|_| GlobalKind::Data, false)));
        assert_eq!((promoted.0, promoted.1, promoted.2), (Ok(0), Ok(0), true));
    }

    #[test]
    fn only_disjoint_cell_words_are_promoted() {
        let promoted = |globals: &[(u32, GlobalKind)]| {
            let mut m = Module::new();
            for &(addr, kind) in globals {
                let init = vec![];
                let fixed_addr = Some(addr);
                m.add_global(Global { name: String::new(), size: 4, init, fixed_addr, kind });
            }
            cell_addrs(&m, &layout_globals(&m.globals))
        };
        let cell = GlobalKind::VcpuReg;
        // 0x14 and 0x16 overlap; 0x20 is named twice; 0x30 is not a cell;
        // the word at 0x1ffe straddles two pages.
        let globals = [(0x10, cell(0)), (0x14, cell(1)), (0x16, cell(2)), (0x20, cell(3))];
        let more = [(0x20, cell(4)), (0x30, GlobalKind::Data), (0x1ffe, cell(5))];
        assert_eq!(promoted(&[&globals[..], &more[..]].concat()), vec![0x10, 0x20]);
        // The last word before the top of memory, and one that wraps.
        assert_eq!(promoted(&[(u32::MAX - 3, cell(0))]), vec![u32::MAX - 3]);
        assert_eq!(promoted(&[(u32::MAX - 2, cell(0))]), vec![]);
        // At most MAX_CELLS words.
        let many: Vec<_> = (0..MAX_CELLS as u32 + 1).map(|k| (4 * k, cell(0))).collect();
        assert_eq!(promoted(&many), (0..MAX_CELLS as u32).map(|k| 4 * k).collect::<Vec<_>>());
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
