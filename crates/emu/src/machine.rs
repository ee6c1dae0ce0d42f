//! The machine emulator: fetch/decode/execute with tracing hooks and a
//! deterministic cycle cost model.

use crate::ext::{dispatch, ExtId, ExtIo, ExtOutcome};
use crate::memory::Memory;
use std::fmt;
use wyt_isa::image::{Image, STACK_TOP};
use wyt_isa::{AluOp, Cc, Inst, Mem, Operand, Reg, ShiftAmount, ShiftOp, Size};
use wyt_obs::MemStats;

/// Size of the machine-stack window used for access classification:
/// addresses in `(STACK_TOP - STACK_CLASSIFY_WINDOW, STACK_TOP]` count as
/// native stack-slot traffic. 64 MiB reaches far below any real frame
/// depth while staying above the heap.
pub const STACK_CLASSIFY_WINDOW: u32 = 1 << 26;

/// Sentinel return address pushed below the entry frame; `ret`-ing to it
/// ends the program with `eax` as the exit code.
pub const RETURN_SENTINEL: u32 = 0xffff_fff0;

/// Kind of an observed control transfer (what the paper's binary tracer
/// records, §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TransferKind {
    /// Unconditional direct jump.
    Jump,
    /// Conditional branch, taken.
    CondTaken,
    /// Conditional branch, fallthrough.
    CondFall,
    /// Indirect jump (jump table).
    IndJump,
    /// Direct call.
    Call,
    /// Indirect call.
    IndCall,
    /// Return.
    Ret,
}

impl TransferKind {
    /// Smallest variant in `Ord` order — lower bound for edge-set range
    /// queries keyed `(from, to, kind)`.
    pub const MIN: TransferKind = TransferKind::Jump;
    /// Largest variant in `Ord` order — upper bound for edge-set range
    /// queries keyed `(from, to, kind)`.
    pub const MAX: TransferKind = TransferKind::Ret;

    /// `true` for [`TransferKind::Call`] and [`TransferKind::IndCall`].
    pub fn is_call(self) -> bool {
        matches!(self, TransferKind::Call | TransferKind::IndCall)
    }
}

/// Receiver for dynamic trace events.
pub trait TraceSink {
    /// A control transfer from the instruction at `from` to `to`.
    fn transfer(&mut self, from: u32, to: u32, kind: TransferKind) {
        let _ = (from, to, kind);
    }
    /// An external call at `pc` to import `idx`, resolved to `ext`, with
    /// the stack pointer at the time of the call (arguments live at
    /// `[esp]`, `[esp+4]`, ... in `mem`).
    fn ext_call(&mut self, pc: u32, idx: u16, ext: ExtId, esp: u32, mem: &Memory) {
        let _ = (pc, idx, ext, esp, mem);
    }
}

/// A [`TraceSink`] that discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// Machine flags (subset of EFLAGS).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Flags {
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Overflow flag.
    pub of: bool,
    /// Carry flag.
    pub cf: bool,
}

impl Flags {
    /// Evaluate a condition code against the flags.
    pub fn cond(&self, cc: Cc) -> bool {
        match cc {
            Cc::E => self.zf,
            Cc::Ne => !self.zf,
            Cc::L => self.sf != self.of,
            Cc::Le => self.zf || self.sf != self.of,
            Cc::G => !self.zf && self.sf == self.of,
            Cc::Ge => self.sf == self.of,
            Cc::B => self.cf,
            Cc::Be => self.cf || self.zf,
            Cc::A => !self.cf && !self.zf,
            Cc::Ae => !self.cf,
            Cc::S => self.sf,
            Cc::Ns => !self.sf,
        }
    }
}

/// A fatal execution condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// The program counter left the text segment.
    BadPc(u32),
    /// Undecodable bytes at the program counter.
    BadDecode(u32),
    /// Signed division by zero or overflow.
    DivideError(u32),
    /// Call to an import the host does not implement.
    UnknownImport(u32, u16),
    /// The instruction budget was exhausted (runaway program).
    OutOfFuel,
    /// The program exceeded the resident-memory ceiling (address-space
    /// sweep); `pc` is the instruction whose write blew the cap.
    MemLimit(u32),
    /// The program called `abort()`.
    Aborted,
    /// An explicit [`Inst::Trap`] executed (recompiler guard on an
    /// untraced path).
    TrapInst { pc: u32, code: u8 },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::BadPc(pc) => write!(f, "pc {pc:#x} outside text"),
            Trap::BadDecode(pc) => write!(f, "bad instruction at {pc:#x}"),
            Trap::DivideError(pc) => write!(f, "divide error at {pc:#x}"),
            Trap::UnknownImport(pc, idx) => write!(f, "unknown import {idx} at {pc:#x}"),
            Trap::OutOfFuel => write!(f, "instruction budget exhausted"),
            Trap::MemLimit(pc) => write!(f, "memory ceiling exceeded at {pc:#x}"),
            Trap::Aborted => write!(f, "abort() called"),
            Trap::TrapInst { pc, code } => write!(f, "trap {code} at {pc:#x}"),
        }
    }
}

impl std::error::Error for Trap {}

/// Outcome of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Exit code (0 if the program trapped).
    pub exit_code: i32,
    /// The trap that ended the run, if it did not exit cleanly.
    pub trap: Option<Trap>,
    /// Deterministic cycle count — the reproduction's "runtime".
    pub cycles: u64,
    /// Number of retired instructions.
    pub inst_count: u64,
    /// Memory-access telemetry. Load/store totals are always counted;
    /// the stack-region classification is populated only when the caller
    /// set an emulated-stack range ([`Machine::set_emu_stack_range`]; it
    /// costs range checks on the hot path).
    pub mem: MemStats,
    /// Bytes written to the output stream.
    pub output: Vec<u8>,
}

impl RunResult {
    /// `true` if the program exited without trapping.
    pub fn ok(&self) -> bool {
        self.trap.is_none()
    }
}

enum Status {
    Running,
    Exited(i32),
}

/// The emulator. Owns the memory image, register file and I/O state of one
/// program execution.
pub struct Machine<'img> {
    img: &'img Image,
    /// Decoded-instruction cache indexed by text offset.
    icache: Vec<Option<(Inst, u8)>>,
    ext_ids: Vec<Option<ExtId>>,
    /// General purpose registers.
    pub regs: [u32; 8],
    /// The 64-bit vector register backing `vmov`.
    pub vreg: u64,
    /// Condition flags.
    pub flags: Flags,
    /// Program counter.
    pub pc: u32,
    /// Memory.
    pub mem: Memory,
    /// I/O and heap state.
    pub io: ExtIo,
    cycles: u64,
    inst_count: u64,
    fuel: u64,
    cycle_budget: u64,
    mem_stats: MemStats,
    /// Emulated-stack global's address range in this image, when the
    /// caller wants stack-access classification (recompiled binaries
    /// keep the global at a fixed address). `None` costs one branch per
    /// access.
    emu_range: Option<(u32, u32)>,
}

impl fmt::Debug for Machine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.pc)
            .field("regs", &self.regs)
            .field("cycles", &self.cycles)
            .finish_non_exhaustive()
    }
}

impl<'img> Machine<'img> {
    /// Prepare a machine to run `img` with the given input stream.
    ///
    /// The data segment is loaded, `esp` points at the top of the stack
    /// with the [`RETURN_SENTINEL`] pushed, and `pc` is the entry point.
    pub fn new(img: &'img Image, input: Vec<u8>) -> Machine<'img> {
        let mut mem = Memory::new();
        mem.write_bytes(img.data_base, &img.data);
        let mut regs = [0u32; 8];
        let sp = STACK_TOP - 4;
        mem.write_u32(sp, RETURN_SENTINEL);
        regs[Reg::Esp.index()] = sp;
        let ext_ids = img.imports.iter().map(|n| ExtId::from_name(n)).collect();
        Machine {
            icache: vec![None; img.text.len()],
            img,
            ext_ids,
            regs,
            vreg: 0,
            flags: Flags::default(),
            pc: img.entry,
            mem,
            io: ExtIo::new(input),
            cycles: 0,
            inst_count: 0,
            fuel: 500_000_000,
            cycle_budget: u64::MAX,
            mem_stats: MemStats::default(),
            emu_range: None,
        }
    }

    /// Override the instruction budget (default 500 million).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Cap total *cycles* as well as retired instructions (default
    /// unlimited). Bulk external calls (`memset`, `memcpy`, ...) charge
    /// cycles proportional to the bytes they touch but retire only one
    /// instruction, so a fuel budget alone does not bound a hostile
    /// program's work; harnesses executing untrusted images set this.
    pub fn set_cycle_budget(&mut self, cycles: u64) {
        self.cycle_budget = cycles;
    }

    /// Classify stack accesses from now on: accesses in `[lo, hi)` count
    /// as emulated-stack traffic and accesses to the machine stack as
    /// native-slot traffic (used when running recompiled images, whose
    /// emulated-stack global keeps its fixed address). Without this call
    /// only loads and stores are counted.
    pub fn set_emu_stack_range(&mut self, lo: u32, hi: u32) {
        self.emu_range = Some((lo, hi));
    }

    #[inline]
    fn note_mem(&mut self, addr: u32, is_store: bool) {
        if is_store {
            self.mem_stats.stores += 1;
        } else {
            self.mem_stats.loads += 1;
        }
        let Some((lo, hi)) = self.emu_range else {
            return;
        };
        let native = addr <= STACK_TOP && addr > STACK_TOP - STACK_CLASSIFY_WINDOW;
        let emu = addr >= lo && addr < hi;
        self.mem_stats.native_slot += native as u64;
        self.mem_stats.emu_stack += emu as u64;
        self.mem_stats.stack_total += (native || emu) as u64;
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired so far.
    pub fn inst_count(&self) -> u64 {
        self.inst_count
    }

    fn reg_read(&self, r: Reg, size: Size) -> u32 {
        self.regs[r.index()] & size.mask()
    }

    fn reg_write(&mut self, r: Reg, v: u32, size: Size) {
        // Sub-register writes leave the upper bits stale (x86 semantics,
        // and the root cause of the paper's "false derives", §4.2.3).
        let mask = size.mask();
        let slot = &mut self.regs[r.index()];
        *slot = (*slot & !mask) | (v & mask);
    }

    fn ea(&self, m: &Mem) -> u32 {
        let mut a = m.disp as u32;
        if let Some(b) = m.base {
            a = a.wrapping_add(self.regs[b.index()]);
        }
        if let Some((i, s)) = m.index {
            a = a.wrapping_add(self.regs[i.index()].wrapping_mul(s as u32));
        }
        a
    }

    fn read_operand(&mut self, op: &Operand, size: Size) -> (u32, u64) {
        match op {
            Operand::Reg(r) => (self.reg_read(*r, size), 0),
            Operand::Imm(i) => ((*i as u32) & size.mask(), 0),
            Operand::Mem(m) => {
                let a = self.ea(m);
                self.note_mem(a, false);
                (self.mem.read_sized(a, size), 2)
            }
        }
    }

    fn write_operand(&mut self, op: &Operand, v: u32, size: Size) -> u64 {
        match op {
            Operand::Reg(r) => {
                self.reg_write(*r, v, size);
                0
            }
            // INVARIANT: `wyt_isa::decode` rejects immediate
            // destinations (`BadField("destination")`), and the machine
            // only executes decoded bytes, so this arm is unreachable
            // for any input.
            Operand::Imm(_) => unreachable!("write to immediate operand"),
            Operand::Mem(m) => {
                let a = self.ea(m);
                self.note_mem(a, true);
                self.mem.write_sized(a, v, size);
                2
            }
        }
    }

    fn set_flags_logic(&mut self, res: u32, size: Size) {
        let bits = size.bytes() * 8;
        let res = res & size.mask();
        self.flags.zf = res == 0;
        self.flags.sf = (res >> (bits - 1)) & 1 == 1;
        self.flags.of = false;
        self.flags.cf = false;
    }

    fn set_flags_add(&mut self, a: u32, b: u32, size: Size) -> u32 {
        let mask = size.mask();
        let bits = size.bytes() * 8;
        let (a, b) = (a & mask, b & mask);
        let res = a.wrapping_add(b) & mask;
        self.flags.zf = res == 0;
        self.flags.sf = (res >> (bits - 1)) & 1 == 1;
        self.flags.cf = (a as u64 + b as u64) > mask as u64;
        let sa = (a >> (bits - 1)) & 1;
        let sb = (b >> (bits - 1)) & 1;
        let sr = (res >> (bits - 1)) & 1;
        self.flags.of = sa == sb && sr != sa;
        res
    }

    fn set_flags_sub(&mut self, a: u32, b: u32, size: Size) -> u32 {
        let mask = size.mask();
        let bits = size.bytes() * 8;
        let (a, b) = (a & mask, b & mask);
        let res = a.wrapping_sub(b) & mask;
        self.flags.zf = res == 0;
        self.flags.sf = (res >> (bits - 1)) & 1 == 1;
        self.flags.cf = a < b;
        let sa = (a >> (bits - 1)) & 1;
        let sb = (b >> (bits - 1)) & 1;
        let sr = (res >> (bits - 1)) & 1;
        self.flags.of = sa != sb && sr != sa;
        res
    }

    fn push(&mut self, v: u32) {
        let sp = self.regs[Reg::Esp.index()].wrapping_sub(4);
        self.regs[Reg::Esp.index()] = sp;
        self.note_mem(sp, true);
        self.mem.write_u32(sp, v);
    }

    fn pop(&mut self) -> u32 {
        let sp = self.regs[Reg::Esp.index()];
        self.note_mem(sp, false);
        let v = self.mem.read_u32(sp);
        self.regs[Reg::Esp.index()] = sp.wrapping_add(4);
        v
    }

    fn fetch(&mut self) -> Result<(Inst, u8), Trap> {
        if !self.img.contains_code(self.pc) {
            return Err(Trap::BadPc(self.pc));
        }
        let off = (self.pc - self.img.text_base) as usize;
        if let Some(hit) = self.icache[off] {
            return Ok(hit);
        }
        match wyt_isa::decode(&self.img.text[off..]) {
            Ok((inst, len)) => {
                let entry = (inst, len as u8);
                self.icache[off] = Some(entry);
                Ok(entry)
            }
            Err(_) => Err(Trap::BadDecode(self.pc)),
        }
    }

    fn step<S: TraceSink>(&mut self, sink: &mut S) -> Result<Status, Trap> {
        if self.inst_count >= self.fuel || self.cycles >= self.cycle_budget {
            return Err(Trap::OutOfFuel);
        }
        let (inst, len) = self.fetch()?;
        let pc = self.pc;
        let next = pc.wrapping_add(len as u32);
        self.inst_count += 1;
        let mut cost: u64 = 1;
        let mut new_pc = next;

        match inst {
            Inst::Nop => {}
            Inst::Halt => {
                self.cycles += 1;
                return Ok(Status::Exited(self.regs[Reg::Eax.index()] as i32));
            }
            Inst::Mov { size, dst, src } => {
                let (v, c1) = self.read_operand(&src, size);
                let c2 = self.write_operand(&dst, v, size);
                cost += c1 + c2;
            }
            Inst::Movzx { from, dst, src } => {
                let (v, c1) = self.read_operand(&src, from);
                self.reg_write(dst, v, Size::D);
                cost += c1;
            }
            Inst::Movsx { from, dst, src } => {
                let (v, c1) = self.read_operand(&src, from);
                let bits = from.bytes() * 8;
                let sext = ((v as i32) << (32 - bits)) >> (32 - bits);
                self.reg_write(dst, sext as u32, Size::D);
                cost += c1;
            }
            Inst::Lea { dst, mem } => {
                let a = self.ea(&mem);
                self.reg_write(dst, a, Size::D);
            }
            Inst::Alu { op, size, dst, src } => {
                let (b, c1) = self.read_operand(&src, size);
                let (a, c2) = self.read_operand(&dst, size);
                let res = match op {
                    AluOp::Add => self.set_flags_add(a, b, size),
                    AluOp::Sub => self.set_flags_sub(a, b, size),
                    AluOp::And => {
                        let r = a & b;
                        self.set_flags_logic(r, size);
                        r
                    }
                    AluOp::Or => {
                        let r = a | b;
                        self.set_flags_logic(r, size);
                        r
                    }
                    AluOp::Xor => {
                        let r = a ^ b;
                        self.set_flags_logic(r, size);
                        r
                    }
                };
                let c3 = self.write_operand(&dst, res, size);
                cost += c1 + c2.max(c3); // a mem dst is read+written once
            }
            Inst::Cmp { size, a, b } => {
                let (bv, c1) = self.read_operand(&b, size);
                let (av, c2) = self.read_operand(&a, size);
                self.set_flags_sub(av, bv, size);
                cost += c1 + c2;
            }
            Inst::Test { size, a, b } => {
                let (bv, c1) = self.read_operand(&b, size);
                let (av, c2) = self.read_operand(&a, size);
                self.set_flags_logic(av & bv, size);
                cost += c1 + c2;
            }
            Inst::Imul { dst, src } => {
                let (b, c1) = self.read_operand(&src, Size::D);
                let a = self.reg_read(dst, Size::D);
                self.reg_write(dst, a.wrapping_mul(b), Size::D);
                cost += 2 + c1;
            }
            Inst::ImulI { dst, src, imm } => {
                let (a, c1) = self.read_operand(&src, Size::D);
                self.reg_write(dst, a.wrapping_mul(imm as u32), Size::D);
                cost += 2 + c1;
            }
            Inst::Idiv { src } => {
                let (d, c1) = self.read_operand(&src, Size::D);
                let a = self.regs[Reg::Eax.index()] as i32;
                let d = d as i32;
                if d == 0 || (a == i32::MIN && d == -1) {
                    return Err(Trap::DivideError(pc));
                }
                self.regs[Reg::Eax.index()] = (a / d) as u32;
                self.regs[Reg::Edx.index()] = (a % d) as u32;
                cost += 11 + c1;
            }
            Inst::Neg { size, dst } => {
                let (a, c1) = self.read_operand(&dst, size);
                let res = self.set_flags_sub(0, a, size);
                let c2 = self.write_operand(&dst, res, size);
                cost += c1.max(c2);
            }
            Inst::Not { size, dst } => {
                let (a, c1) = self.read_operand(&dst, size);
                let c2 = self.write_operand(&dst, !a, size);
                cost += c1.max(c2);
            }
            Inst::Shift { op, size, dst, amount } => {
                let amt = match amount {
                    ShiftAmount::Imm(i) => i as u32,
                    ShiftAmount::Cl => self.regs[Reg::Ecx.index()] & 0xff,
                } & 31;
                let (a, c1) = self.read_operand(&dst, size);
                let bits = size.bytes() * 8;
                let res = match op {
                    ShiftOp::Shl => a.wrapping_shl(amt),
                    ShiftOp::Shr => (a & size.mask()).wrapping_shr(amt),
                    ShiftOp::Sar => {
                        let sext = ((a as i32) << (32 - bits)) >> (32 - bits);
                        (sext >> amt.min(31)) as u32
                    }
                } & size.mask();
                if amt != 0 {
                    let masked = res & size.mask();
                    self.flags.zf = masked == 0;
                    self.flags.sf = (masked >> (bits - 1)) & 1 == 1;
                }
                let c2 = self.write_operand(&dst, res, size);
                cost += c1.max(c2);
            }
            Inst::Push { src } => {
                let (v, c1) = self.read_operand(&src, Size::D);
                self.push(v);
                cost += 2 + c1;
            }
            Inst::Pop { dst } => {
                let v = self.pop();
                let c1 = self.write_operand(&dst, v, Size::D);
                cost += 2 + c1;
            }
            Inst::Call { target } => {
                self.push(next);
                sink.transfer(pc, target, TransferKind::Call);
                new_pc = target;
                cost += 3;
            }
            Inst::CallInd { target } => {
                let (t, c1) = self.read_operand(&target, Size::D);
                self.push(next);
                sink.transfer(pc, t, TransferKind::IndCall);
                new_pc = t;
                cost += 4 + c1;
            }
            Inst::CallExt { idx } => {
                let Some(ext) = self.ext_ids.get(idx as usize).copied().flatten() else {
                    return Err(Trap::UnknownImport(pc, idx));
                };
                let esp = self.regs[Reg::Esp.index()];
                sink.ext_call(pc, idx, ext, esp, &self.mem);
                // Split borrows: argument reads and handler effects both
                // touch memory, so stage the arguments eagerly.
                let outcome = {
                    let mut staged = [0u32; 16];
                    for (i, slot) in staged.iter_mut().enumerate() {
                        *slot = self.mem.read_u32(esp.wrapping_add(4 * i as u32));
                    }
                    let mut src: &[u32] = &staged;
                    dispatch(ext, &mut self.mem, &mut self.io, &mut src)
                };
                match outcome {
                    ExtOutcome::Ret { value, cost: c } => {
                        self.regs[Reg::Eax.index()] = value;
                        cost += 5 + c;
                    }
                    ExtOutcome::Exit(code) => {
                        self.cycles += cost + 5;
                        return Ok(Status::Exited(code));
                    }
                    ExtOutcome::Abort => return Err(Trap::Aborted),
                }
            }
            Inst::Ret { pop } => {
                let ra = self.pop();
                let sp = self.regs[Reg::Esp.index()];
                self.regs[Reg::Esp.index()] = sp.wrapping_add(pop as u32);
                cost += 3;
                if ra == RETURN_SENTINEL {
                    self.cycles += cost;
                    return Ok(Status::Exited(self.regs[Reg::Eax.index()] as i32));
                }
                sink.transfer(pc, ra, TransferKind::Ret);
                new_pc = ra;
            }
            Inst::Jmp { target } => {
                sink.transfer(pc, target, TransferKind::Jump);
                new_pc = target;
            }
            Inst::JmpInd { target } => {
                let (t, c1) = self.read_operand(&target, Size::D);
                sink.transfer(pc, t, TransferKind::IndJump);
                new_pc = t;
                cost += 1 + c1;
            }
            Inst::Jcc { cc, target } => {
                if self.flags.cond(cc) {
                    sink.transfer(pc, target, TransferKind::CondTaken);
                    new_pc = target;
                } else {
                    sink.transfer(pc, next, TransferKind::CondFall);
                }
            }
            Inst::Setcc { cc, dst } => {
                let v = self.flags.cond(cc) as u32;
                self.reg_write(dst, v, Size::B);
            }
            Inst::Leave => {
                self.regs[Reg::Esp.index()] = self.regs[Reg::Ebp.index()];
                let v = self.pop();
                self.regs[Reg::Ebp.index()] = v;
                cost += 2;
            }
            Inst::VmovLd { mem } => {
                let a = self.ea(&mem);
                self.note_mem(a, false);
                self.vreg = self.mem.read_u64(a);
                cost += 2;
            }
            Inst::VmovSt { mem } => {
                let a = self.ea(&mem);
                self.note_mem(a, true);
                self.mem.write_u64(a, self.vreg);
                cost += 2;
            }
            Inst::Trap { code } => return Err(Trap::TrapInst { pc, code }),
        }

        if self.mem.cap_hit() {
            return Err(Trap::MemLimit(pc));
        }
        self.cycles += cost;
        self.pc = new_pc;
        Ok(Status::Running)
    }

    /// Run to completion, reporting trace events to `sink`.
    pub fn run_with<S: TraceSink>(&mut self, sink: &mut S) -> RunResult {
        loop {
            let (exit_code, trap) = match self.step(sink) {
                Ok(Status::Running) => continue,
                Ok(Status::Exited(code)) => (code, None),
                Err(trap) => (0, Some(trap)),
            };
            self.flush_obs(trap.as_ref());
            return RunResult {
                exit_code,
                trap,
                cycles: self.cycles,
                inst_count: self.inst_count,
                mem: self.mem_stats,
                output: std::mem::take(&mut self.io.output),
            };
        }
    }

    /// Report run totals and the trap class to the global obs sink.
    fn flush_obs(&self, trap: Option<&Trap>) {
        if !wyt_obs::enabled() {
            return;
        }
        wyt_obs::counter("emu.runs", 1);
        wyt_obs::counter("emu.retired", self.inst_count);
        wyt_obs::counter("emu.cycles", self.cycles);
        wyt_obs::counter("emu.loads", self.mem_stats.loads);
        wyt_obs::counter("emu.stores", self.mem_stats.stores);
        wyt_obs::counter("emu.stack.native_slot", self.mem_stats.native_slot);
        wyt_obs::counter("emu.stack.emulated", self.mem_stats.emu_stack);
        let class = match trap {
            None => "emu.trap.exit",
            Some(Trap::OutOfFuel) => "emu.trap.fuel",
            Some(Trap::MemLimit(_)) => "emu.trap.memlimit",
            Some(Trap::DivideError(_)) => "emu.trap.divide",
            Some(Trap::Aborted) => "emu.trap.abort",
            Some(Trap::TrapInst { code, .. }) => match wyt_isa::TrapCode::guard_kind(*code) {
                Some(wyt_isa::GuardKind::UntracedBranch) => "emu.trap.guard.branch",
                Some(wyt_isa::GuardKind::UntracedIndirect) => "emu.trap.guard.indirect",
                None => "emu.trap.other",
            },
            Some(_) => "emu.trap.other",
        };
        wyt_obs::counter(class, 1);
    }

    /// Run to completion without tracing.
    pub fn run(&mut self) -> RunResult {
        self.run_with(&mut NullSink)
    }
}

/// Convenience: run `img` on `input` and return the result.
pub fn run_image(img: &Image, input: Vec<u8>) -> RunResult {
    Machine::new(img, input).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_isa::asm::Asm;
    use wyt_isa::image::Image;

    fn image_of(asm: Asm) -> Image {
        let mut img = Image::new();
        let out = asm.finish(img.text_base);
        img.text = out.bytes;
        img.entry = img.text_base;
        img
    }

    fn movri(r: Reg, v: i32) -> Inst {
        Inst::Mov { size: Size::D, dst: Operand::Reg(r), src: Operand::Imm(v) }
    }

    #[test]
    fn loop_and_flags() {
        // ecx = 5; eax = 0; loop: eax += ecx; ecx -= 1; jne loop; halt
        let mut a = Asm::new();
        a.emit(movri(Reg::Ecx, 5));
        a.emit(movri(Reg::Eax, 0));
        let top = a.here();
        a.emit(Inst::Alu {
            op: AluOp::Add,
            size: Size::D,
            dst: Operand::Reg(Reg::Eax),
            src: Operand::Reg(Reg::Ecx),
        });
        a.emit(Inst::Alu {
            op: AluOp::Sub,
            size: Size::D,
            dst: Operand::Reg(Reg::Ecx),
            src: Operand::Imm(1),
        });
        a.jcc(Cc::Ne, top);
        a.emit(Inst::Halt);
        let img = image_of(a);
        let r = run_image(&img, vec![]);
        assert!(r.ok());
        assert_eq!(r.exit_code, 15);
        assert!(r.cycles > 0 && r.inst_count > 0);
    }

    #[test]
    fn call_ret_and_stack() {
        // main: push 41; call f; halt      f: mov eax,[esp+4]; add eax,1; ret
        let mut a = Asm::new();
        let f = a.fresh_label();
        a.emit(Inst::Push { src: Operand::Imm(41) });
        a.call(f);
        a.emit(Inst::Halt);
        a.bind(f);
        a.emit(Inst::Mov {
            size: Size::D,
            dst: Operand::Reg(Reg::Eax),
            src: Operand::Mem(Mem::base_disp(Reg::Esp, 4)),
        });
        a.emit(Inst::Alu {
            op: AluOp::Add,
            size: Size::D,
            dst: Operand::Reg(Reg::Eax),
            src: Operand::Imm(1),
        });
        a.emit(Inst::Ret { pop: 0 });
        let r = run_image(&image_of(a), vec![]);
        assert!(r.ok(), "{:?}", r.trap);
        assert_eq!(r.exit_code, 42);
    }

    #[test]
    fn subregister_write_keeps_upper_bits() {
        let mut a = Asm::new();
        a.emit(movri(Reg::Eax, 0x11223344u32 as i32));
        a.emit(Inst::Mov { size: Size::B, dst: Operand::Reg(Reg::Eax), src: Operand::Imm(0x99) });
        a.emit(Inst::Halt);
        let r = run_image(&image_of(a), vec![]);
        assert_eq!(r.exit_code as u32, 0x1122_3399);
    }

    #[test]
    fn movsx_movzx() {
        let mut a = Asm::new();
        a.emit(movri(Reg::Ebx, 0x80)); // sign bit of a byte
        a.emit(Inst::Movsx { from: Size::B, dst: Reg::Eax, src: Operand::Reg(Reg::Ebx) });
        a.emit(Inst::Movzx { from: Size::B, dst: Reg::Ecx, src: Operand::Reg(Reg::Ebx) });
        a.emit(Inst::Alu {
            op: AluOp::Sub,
            size: Size::D,
            dst: Operand::Reg(Reg::Eax),
            src: Operand::Reg(Reg::Ecx),
        });
        a.emit(Inst::Halt);
        let r = run_image(&image_of(a), vec![]);
        assert_eq!(r.exit_code, (-0x80i32) - 0x80);
    }

    #[test]
    fn signed_and_unsigned_conditions() {
        for (a_val, b_val, cc, expect) in [
            (-1i32, 1i32, Cc::L, 1),
            (-1, 1, Cc::B, 0), // unsigned: 0xffffffff is not below 1
            (2, 2, Cc::Le, 1),
            (3, 2, Cc::A, 1),
        ] {
            let mut a = Asm::new();
            a.emit(movri(Reg::Eax, a_val));
            a.emit(Inst::Cmp { size: Size::D, a: Operand::Reg(Reg::Eax), b: Operand::Imm(b_val) });
            a.emit(Inst::Setcc { cc, dst: Reg::Edx });
            a.emit(Inst::Movzx { from: Size::B, dst: Reg::Eax, src: Operand::Reg(Reg::Edx) });
            a.emit(Inst::Halt);
            let r = run_image(&image_of(a), vec![]);
            assert_eq!(r.exit_code, expect, "cmp {a_val},{b_val} set{cc}");
        }
    }

    #[test]
    fn idiv_and_divide_error() {
        let mut a = Asm::new();
        a.emit(movri(Reg::Eax, 17));
        a.emit(movri(Reg::Ebx, 5));
        a.emit(Inst::Idiv { src: Operand::Reg(Reg::Ebx) });
        a.emit(Inst::Halt);
        let r = run_image(&image_of(a), vec![]);
        assert_eq!(r.exit_code, 3);

        let mut a = Asm::new();
        a.emit(movri(Reg::Eax, 1));
        a.emit(movri(Reg::Ebx, 0));
        a.emit(Inst::Idiv { src: Operand::Reg(Reg::Ebx) });
        a.emit(Inst::Halt);
        let r = run_image(&image_of(a), vec![]);
        assert!(matches!(r.trap, Some(Trap::DivideError(_))));
    }

    #[test]
    fn leave_matches_prologue() {
        // push ebp; mov ebp,esp; sub esp,16; leave; halt — esp restored
        let mut a = Asm::new();
        a.emit(movri(Reg::Eax, 0));
        a.emit(Inst::Push { src: Operand::Reg(Reg::Ebp) });
        a.emit(Inst::Mov {
            size: Size::D,
            dst: Operand::Reg(Reg::Ebp),
            src: Operand::Reg(Reg::Esp),
        });
        a.emit(Inst::Alu {
            op: AluOp::Sub,
            size: Size::D,
            dst: Operand::Reg(Reg::Esp),
            src: Operand::Imm(16),
        });
        a.emit(Inst::Leave);
        a.emit(Inst::Halt);
        let img = image_of(a);
        let mut m = Machine::new(&img, vec![]);
        let sp0 = m.regs[Reg::Esp.index()];
        let r = m.run();
        assert!(r.ok());
        assert_eq!(m.regs[Reg::Esp.index()], sp0);
    }

    #[test]
    fn vmov_moves_8_bytes() {
        let mut img = Image::new();
        img.data = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let mut a = Asm::new();
        a.emit(Inst::VmovLd { mem: Mem::abs(img.data_base as i32) });
        a.emit(Inst::VmovSt { mem: Mem::abs(img.data_base as i32 + 8) });
        a.emit(Inst::Mov {
            size: Size::D,
            dst: Operand::Reg(Reg::Eax),
            src: Operand::Mem(Mem::abs(img.data_base as i32 + 12)),
        });
        a.emit(Inst::Halt);
        let out = a.finish(img.text_base);
        img.text = out.bytes;
        img.entry = img.text_base;
        let r = run_image(&img, vec![]);
        assert_eq!(r.exit_code as u32, u32::from_le_bytes([5, 6, 7, 8]));
    }

    #[test]
    fn ext_call_printf() {
        let mut img = Image::new();
        img.imports = vec!["printf".into()];
        img.data = b"n=%d\n\0".to_vec();
        let mut a = Asm::new();
        a.emit(Inst::Push { src: Operand::Imm(7) });
        a.emit(Inst::Push { src: Operand::Imm(img.data_base as i32) });
        a.emit(Inst::CallExt { idx: 0 });
        a.emit(Inst::Alu {
            op: AluOp::Add,
            size: Size::D,
            dst: Operand::Reg(Reg::Esp),
            src: Operand::Imm(8),
        });
        a.emit(movri(Reg::Eax, 0));
        a.emit(Inst::Halt);
        let out = a.finish(img.text_base);
        img.text = out.bytes;
        img.entry = img.text_base;
        let r = run_image(&img, vec![]);
        assert!(r.ok());
        assert_eq!(r.output, b"n=7\n");
    }

    #[test]
    fn fuel_exhaustion_traps() {
        let mut a = Asm::new();
        let top = a.here();
        a.jmp(top);
        let img = image_of(a);
        let mut m = Machine::new(&img, vec![]);
        m.set_fuel(1000);
        let r = m.run();
        assert_eq!(r.trap, Some(Trap::OutOfFuel));
    }

    #[test]
    fn cycle_budget_bounds_bulk_ext_work() {
        // One `memset` retires a single call instruction but charges
        // cycles proportional to the bytes it touches; a cycle budget
        // catches the work where an instruction budget cannot.
        let mut img = Image::new();
        img.imports = vec!["memset".into()];
        img.data = vec![0u8; 4096];
        let mut a = Asm::new();
        let top = a.here();
        a.emit(Inst::Push { src: Operand::Imm(4096) });
        a.emit(Inst::Push { src: Operand::Imm(0) });
        a.emit(Inst::Push { src: Operand::Imm(img.data_base as i32) });
        a.emit(Inst::CallExt { idx: 0 });
        a.emit(Inst::Alu {
            op: AluOp::Add,
            size: Size::D,
            dst: Operand::Reg(Reg::Esp),
            src: Operand::Imm(12),
        });
        a.jmp(top);
        let out = a.finish(img.text_base);
        img.text = out.bytes;
        img.entry = img.text_base;
        let mut m = Machine::new(&img, vec![]);
        m.set_fuel(u64::MAX);
        m.set_cycle_budget(100_000);
        let r = m.run();
        assert_eq!(r.trap, Some(Trap::OutOfFuel));
        assert!(r.cycles < 110_000, "budget overshoot: {}", r.cycles);
    }

    #[test]
    fn fuel_boundary_is_exact() {
        // `fuel` is the maximum number of *retired* instructions: a program
        // that retires exactly N instructions completes with fuel == N and
        // traps OutOfFuel with fuel == N - 1. The IR interpreter's fuel
        // tests pin the same contract so the differential oracle can treat
        // the budgets uniformly.
        let mut a = Asm::new();
        a.emit(movri(Reg::Eax, 1));
        a.emit(movri(Reg::Ecx, 2));
        a.emit(movri(Reg::Edx, 3));
        a.emit(Inst::Halt);
        let img = image_of(a);

        let unbounded = run_image(&img, vec![]);
        assert!(unbounded.ok());
        let n = unbounded.inst_count;
        assert_eq!(n, 4);

        let mut exact = Machine::new(&img, vec![]);
        exact.set_fuel(n);
        let r = exact.run();
        assert!(r.ok(), "fuel == retired count must complete: {:?}", r.trap);
        assert_eq!(r.inst_count, n);

        let mut starved = Machine::new(&img, vec![]);
        starved.set_fuel(n - 1);
        let r = starved.run();
        assert_eq!(r.trap, Some(Trap::OutOfFuel));
        assert_eq!(r.inst_count, n - 1, "trap must fire before retiring inst N");
    }

    #[test]
    fn fuel_zero_retires_nothing() {
        let mut a = Asm::new();
        a.emit(Inst::Halt);
        let img = image_of(a);
        let mut m = Machine::new(&img, vec![]);
        m.set_fuel(0);
        let r = m.run();
        assert_eq!(r.trap, Some(Trap::OutOfFuel));
        assert_eq!(r.inst_count, 0);
    }

    #[test]
    fn address_space_sweep_traps_mem_limit() {
        // eax = 0; loop: mov [eax], al; eax += PAGE_SIZE; jmp loop —
        // touches a fresh page every iteration, which must hit the
        // resident-page ceiling as a typed trap, not exhaust host RAM.
        let mut a = Asm::new();
        a.emit(movri(Reg::Eax, 0));
        let top = a.here();
        a.emit(Inst::Mov {
            size: Size::B,
            dst: Operand::Mem(Mem::base_disp(Reg::Eax, 0)),
            src: Operand::Reg(Reg::Eax),
        });
        a.emit(Inst::Alu {
            op: AluOp::Add,
            size: Size::D,
            dst: Operand::Reg(Reg::Eax),
            src: Operand::Imm(crate::PAGE_SIZE as i32),
        });
        a.jmp(top);
        let img = image_of(a);
        let mut m = Machine::new(&img, vec![]);
        m.mem.set_page_cap(64);
        let r = m.run();
        assert!(matches!(r.trap, Some(Trap::MemLimit(_))), "{:?}", r.trap);
        assert!(m.mem.resident_pages() <= 64);
    }

    #[test]
    fn trace_sink_sees_transfers() {
        #[derive(Default)]
        struct Rec(Vec<(u32, u32, TransferKind)>);
        impl TraceSink for Rec {
            fn transfer(&mut self, from: u32, to: u32, kind: TransferKind) {
                self.0.push((from, to, kind));
            }
        }
        let mut a = Asm::new();
        let f = a.fresh_label();
        a.call(f);
        a.emit(Inst::Halt);
        a.bind(f);
        a.emit(Inst::Ret { pop: 0 });
        let img = image_of(a);
        let mut m = Machine::new(&img, vec![]);
        let mut rec = Rec::default();
        let r = m.run_with(&mut rec);
        assert!(r.ok());
        assert_eq!(rec.0.len(), 2);
        assert_eq!(rec.0[0].2, TransferKind::Call);
        assert_eq!(rec.0[1].2, TransferKind::Ret);
    }

    #[test]
    fn trap_instruction() {
        let mut a = Asm::new();
        a.emit(Inst::Trap { code: 9 });
        let img = image_of(a);
        let r = run_image(&img, vec![]);
        assert!(matches!(r.trap, Some(Trap::TrapInst { code: 9, .. })));
    }
}
