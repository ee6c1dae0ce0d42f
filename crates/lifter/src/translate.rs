//! Machine code → IR translation using the instruction-emulation approach
//! of the paper's §2.1.
//!
//! The lifted module mirrors Fig. 1's process image:
//! - virtual CPU registers are 4-byte globals at fixed addresses
//!   ([`VCPU_BASE`]); every machine register read loads the cell and every
//!   write stores it back (redundancy is cleaned up later, exactly as the
//!   paper describes);
//! - the original call stack lives in the *emulated stack* global at
//!   [`EMU_STACK_BASE`]; push/pop/call/ret manipulate the virtual `esp`
//!   cell and the byte array;
//! - the original data segment is a fixed-address global so absolute
//!   pointers embedded in the code stay valid;
//! - calls to recovered functions become IR calls (the ret-address slot is
//!   still reserved on the emulated stack, but its contents are never
//!   read); tail calls become call+return; indirect control flow is
//!   restricted to traced targets (untraced ⇒ trap).
//!
//! Flags are translated symbolically: a compare/test records its operands
//! and the consuming `jcc`/`setcc` becomes an `icmp`. This supports the
//! flag patterns compilers emit (flag-setter and consumer in one block).

use crate::cfg::{BlockEnd, MachCfg};
use crate::funcrec::FuncMap;
use std::collections::BTreeMap;
use std::fmt;
use wyt_ir::{
    BinOp, BlockId, CmpOp, FuncId, Function, Global, GlobalKind, InstId, InstKind, Module, Term,
    Ty, Val,
};
use wyt_isa::image::Image;
use wyt_isa::{AluOp, Cc, Inst, Mem, Operand, Reg, ShiftAmount, ShiftOp, Size, TrapCode};

/// Base address of the virtual CPU register cells (8 GPRs + the two
/// halves of the `vmov` register).
pub const VCPU_BASE: u32 = 0x0280_0000;
/// Base address of the emulated stack global.
pub const EMU_STACK_BASE: u32 = 0x0500_0000;
/// Size of the emulated stack.
pub const EMU_STACK_SIZE: u32 = 1 << 20;
/// Initial virtual `esp`: top of the emulated stack with a slot reserved
/// for the never-read sentinel return address.
pub const EMU_STACK_TOP: u32 = EMU_STACK_BASE + EMU_STACK_SIZE - 16;

/// Address of the virtual register cell for `r`.
pub fn vcpu_reg_addr(r: Reg) -> u32 {
    VCPU_BASE + 4 * r.index() as u32
}

/// Address of half `i` (0 = low, 1 = high) of the virtual vector register.
pub fn vcpu_vreg_addr(i: u32) -> u32 {
    VCPU_BASE + 32 + 4 * i
}

/// `true` if `addr` falls inside the emulated stack.
pub fn is_emustack_addr(addr: u32) -> bool {
    (EMU_STACK_BASE..EMU_STACK_BASE + EMU_STACK_SIZE).contains(&addr)
}

/// Metadata about the lifted module the refinement passes need.
#[derive(Debug, Clone)]
pub struct LiftedMeta {
    /// Function entry address → IR function.
    pub func_by_addr: BTreeMap<u32, FuncId>,
    /// The synthetic `_lifted_start` wrapper.
    pub start: FuncId,
    /// `ret pop` immediate per lifted function (needed by the sp0 folding
    /// pass to track `esp` across calls).
    pub ret_pop: BTreeMap<FuncId, u16>,
    /// Import-index mapping from the original image into the module's
    /// extern table.
    pub ext_map: Vec<u16>,
    /// Every emitted `callext_raw`: the machine pc of its call
    /// instruction and where it sits in the module, in emission order.
    /// Joined with [`crate::Trace::ext_calls`] by pc, this gives each
    /// site its traced arity.
    pub ext_sites: Vec<(u32, FuncId, InstId)>,
}

/// A translation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiftError {
    /// A conditional consumer executed without a flag-setting instruction
    /// in the same block.
    NoFlags(u32),
    /// A flag pattern we cannot express (never emitted by compilers).
    BadFlagUse(u32, Cc),
    /// A direct call targets an address that is not a recovered function.
    CallToNonFunction(u32, u32),
    /// `leave`/`pop esp`-style manipulation we do not model.
    Unsupported(u32, &'static str),
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiftError::NoFlags(pc) => write!(f, "jcc/setcc without flags at {pc:#x}"),
            LiftError::BadFlagUse(pc, cc) => write!(f, "unsupported flag use {cc} at {pc:#x}"),
            LiftError::CallToNonFunction(pc, t) => {
                write!(f, "call at {pc:#x} to non-function {t:#x}")
            }
            LiftError::Unsupported(pc, what) => write!(f, "unsupported {what} at {pc:#x}"),
        }
    }
}

impl std::error::Error for LiftError {}

#[derive(Debug, Clone)]
enum FlagState {
    None,
    /// Flags from `a - b` (cmp/sub/neg).
    Cmp {
        a: Val,
        b: Val,
        size: Size,
    },
    /// Flags from a logical op / shift result `r` (cf = of = 0).
    Logic {
        r: Val,
        size: Size,
    },
    /// Flags from an addition result `r` (only zf/sf usable).
    Add {
        r: Val,
        size: Size,
    },
}

struct FnTranslator<'a> {
    f: Function,
    module_externs: &'a mut Vec<String>,
    ext_map: &'a [u16],
    cur: BlockId,
    flags: FlagState,
    /// machine block addr -> IR block
    block_map: BTreeMap<u32, BlockId>,
    /// Guard for untraced direct branch / fall-through targets.
    trap_block: BlockId,
    /// Guard for untraced indirect-jump targets.
    trap_ind_block: BlockId,
    /// `(pc, inst)` of each `callext_raw` emitted so far.
    ext_sites: Vec<(u32, InstId)>,
}

impl<'a> FnTranslator<'a> {
    fn emit(&mut self, kind: InstKind) -> Val {
        Val::Inst(self.f.push_inst(self.cur, kind))
    }

    fn load_reg(&mut self, r: Reg) -> Val {
        self.emit(InstKind::Load { ty: Ty::I32, addr: Val::Const(vcpu_reg_addr(r) as i32) })
    }

    fn store_reg(&mut self, r: Reg, v: Val) {
        self.emit(InstKind::Store {
            ty: Ty::I32,
            addr: Val::Const(vcpu_reg_addr(r) as i32),
            val: v,
        });
    }

    fn bin(&mut self, op: BinOp, a: Val, b: Val) -> Val {
        self.emit(InstKind::Bin { op, a, b })
    }

    fn icmp(&mut self, op: CmpOp, a: Val, b: Val) -> Val {
        self.emit(InstKind::Cmp { op, a, b })
    }

    /// Effective address of a memory operand.
    fn ea(&mut self, m: &Mem) -> Val {
        let mut addr = match m.base {
            Some(b) => {
                let v = self.load_reg(b);
                if m.disp != 0 {
                    self.bin(BinOp::Add, v, Val::Const(m.disp))
                } else {
                    v
                }
            }
            None => Val::Const(m.disp),
        };
        if let Some((i, s)) = m.index {
            let iv = self.load_reg(i);
            let scaled = if s == 1 { iv } else { self.bin(BinOp::Mul, iv, Val::Const(s as i32)) };
            addr = self.bin(BinOp::Add, addr, scaled);
        }
        addr
    }

    /// Read an operand, zero-extended to 32 bits.
    fn read(&mut self, op: &Operand, size: Size) -> Val {
        match op {
            Operand::Imm(i) => Val::Const((*i as u32 & size.mask()) as i32),
            Operand::Reg(r) => {
                let v = self.load_reg(*r);
                match size {
                    Size::D => v,
                    Size::W => self.emit(InstKind::Ext { signed: false, from: Ty::I16, v }),
                    Size::B => self.emit(InstKind::Ext { signed: false, from: Ty::I8, v }),
                }
            }
            Operand::Mem(m) => {
                let addr = self.ea(m);
                let ty = size_to_ty(size);
                self.emit(InstKind::Load { ty, addr })
            }
        }
    }

    /// Write an operand with sub-register merge semantics.
    fn write(&mut self, op: &Operand, v: Val, size: Size) {
        match op {
            Operand::Reg(r) => match size {
                Size::D => self.store_reg(*r, v),
                _ => {
                    // Stale upper bits: old & !mask | v & mask — the false
                    // dependency of §4.2.3, reproduced faithfully.
                    let old = self.load_reg(*r);
                    let kept = self.bin(BinOp::And, old, Val::Const(!(size.mask() as i32)));
                    let low = self.bin(BinOp::And, v, Val::Const(size.mask() as i32));
                    let merged = self.bin(BinOp::Or, kept, low);
                    self.store_reg(*r, merged);
                }
            },
            Operand::Mem(m) => {
                let addr = self.ea(m);
                self.emit(InstKind::Store { ty: size_to_ty(size), addr, val: v });
            }
            // INVARIANT: the decoder rejects immediate destinations
            // (`DecodeError::BadField("destination")`), and every inst
            // reaching the translator came through `Image::decode_at`,
            // so this arm cannot fire on any input, hostile or not.
            Operand::Imm(_) => unreachable!("write to immediate"),
        }
    }

    /// Translate a condition code into a 0/1 value from the live flags.
    fn cond_value(&mut self, pc: u32, cc: Cc) -> Result<Val, LiftError> {
        match self.flags.clone() {
            FlagState::None => Err(LiftError::NoFlags(pc)),
            FlagState::Cmp { a, b, size } => {
                let signed = matches!(cc, Cc::L | Cc::Le | Cc::G | Cc::Ge);
                let (a, b) = if size == Size::D {
                    (a, b)
                } else {
                    let ty = size_to_ty(size);
                    let ea = self.emit(InstKind::Ext { signed, from: ty, v: a });
                    let eb = self.emit(InstKind::Ext { signed, from: ty, v: b });
                    (ea, eb)
                };
                let op = match cc {
                    Cc::E => CmpOp::Eq,
                    Cc::Ne => CmpOp::Ne,
                    Cc::L => CmpOp::SLt,
                    Cc::Le => CmpOp::SLe,
                    Cc::G => CmpOp::SGt,
                    Cc::Ge => CmpOp::SGe,
                    Cc::B => CmpOp::ULt,
                    Cc::Be => CmpOp::ULe,
                    Cc::A => CmpOp::UGt,
                    Cc::Ae => CmpOp::UGe,
                    Cc::S | Cc::Ns => return Err(LiftError::BadFlagUse(pc, cc)),
                };
                Ok(self.icmp(op, a, b))
            }
            FlagState::Logic { r, size } | FlagState::Add { r, size } => {
                let logic = matches!(self.flags, FlagState::Logic { .. });
                let rs = if size == Size::D {
                    r
                } else {
                    self.emit(InstKind::Ext { signed: true, from: size_to_ty(size), v: r })
                };
                let op = match cc {
                    Cc::E => CmpOp::Eq,
                    Cc::Ne => CmpOp::Ne,
                    Cc::S => CmpOp::SLt,
                    Cc::Ns => CmpOp::SGe,
                    // cf = of = 0 for logical ops.
                    Cc::L if logic => CmpOp::SLt,
                    Cc::Ge if logic => CmpOp::SGe,
                    Cc::Le if logic => CmpOp::SLe,
                    Cc::G if logic => CmpOp::SGt,
                    Cc::B if logic => return Ok(Val::Const(0)),
                    Cc::Ae if logic => return Ok(Val::Const(1)),
                    Cc::Be if logic => CmpOp::Eq,
                    Cc::A if logic => CmpOp::Ne,
                    other => return Err(LiftError::BadFlagUse(pc, other)),
                };
                Ok(self.icmp(op, rs, Val::Const(0)))
            }
        }
    }

    fn intern_ext(&mut self, img_idx: u16) -> u16 {
        self.ext_map[img_idx as usize]
    }

    /// IR block for a machine target, or the trap block if untraced.
    fn target_block(&self, addr: u32) -> BlockId {
        self.block_map.get(&addr).copied().unwrap_or(self.trap_block)
    }

    fn extern_index_of(&mut self, name: &str) -> u16 {
        if let Some(i) = self.module_externs.iter().position(|e| e == name) {
            return i as u16;
        }
        self.module_externs.push(name.to_string());
        self.module_externs.len() as u16 - 1
    }
}

fn size_to_ty(size: Size) -> Ty {
    match size {
        Size::B => Ty::I8,
        Size::W => Ty::I16,
        Size::D => Ty::I32,
    }
}

/// Translate a traced, function-recovered image into a lifted module.
///
/// # Errors
/// Returns a [`LiftError`] for machine idioms outside the supported set
/// (the paper's §7.1 compatibility assumptions).
pub fn translate(
    img: &Image,
    cfg: &MachCfg,
    funcs: &FuncMap,
) -> Result<(Module, LiftedMeta), LiftError> {
    let mut module = Module::new();

    // Globals: vCPU cells, emulated stack, original data.
    for r in Reg::ALL {
        module.add_global(Global {
            name: format!("vcpu.{r}"),
            size: 4,
            init: Vec::new(),
            fixed_addr: Some(vcpu_reg_addr(r)),
            kind: GlobalKind::VcpuReg(r.index() as u8),
        });
    }
    for i in 0..2 {
        module.add_global(Global {
            name: format!("vcpu.v0{}", if i == 0 { "lo" } else { "hi" }),
            size: 4,
            init: Vec::new(),
            fixed_addr: Some(vcpu_vreg_addr(i)),
            kind: GlobalKind::VcpuReg(8 + i as u8),
        });
    }
    module.add_global(Global {
        name: "__emustack".into(),
        size: EMU_STACK_SIZE,
        init: Vec::new(),
        fixed_addr: Some(EMU_STACK_BASE),
        kind: GlobalKind::EmuStack,
    });
    module.add_global(Global {
        name: "__orig_data".into(),
        size: (img.data.len() as u32 + img.bss_size).max(1),
        init: img.data.clone(),
        fixed_addr: Some(img.data_base),
        kind: GlobalKind::Data,
    });

    // Externs: copy the image's import table.
    let ext_map: Vec<u16> = img.imports.iter().map(|n| module.extern_index(n)).collect();

    // Pre-create IR functions.
    let mut func_by_addr = BTreeMap::new();
    let mut ret_pop = BTreeMap::new();
    for (entry, mf) in &funcs.funcs {
        let name = img
            .symbol_name_at(*entry)
            .map(|s| format!("lifted_{s}"))
            .unwrap_or_else(|| format!("fn_{entry:#x}"));
        let mut f = Function::new(name);
        f.orig_addr = Some(*entry);
        let id = module.add_func(f);
        func_by_addr.insert(*entry, id);
        ret_pop.insert(id, mf.ret_pop);
    }

    // Translate each function.
    let mut ext_sites = Vec::new();
    for (entry, mf) in &funcs.funcs {
        let fid = func_by_addr[entry];
        let mut f = Function::new(module.funcs[fid.index()].name.clone());
        f.orig_addr = Some(*entry);

        // Create IR blocks: entry must be block 0's target.
        let mut block_map = BTreeMap::new();
        for &baddr in &mf.blocks {
            let b = if baddr == *entry { f.entry } else { f.add_block() };
            block_map.insert(baddr, b);
            f.blocks[b.index()].orig_addr = Some(baddr);
        }
        // Guard blocks for untraced paths, one per guard kind so a firing
        // trap attributes the site (direct edge vs indirect target).
        let trap_block = f.add_block();
        f.blocks[trap_block.index()].term = Term::Trap(TrapCode::UntracedBranch.code());
        let trap_ind_block = f.add_block();
        f.blocks[trap_ind_block.index()].term = Term::Trap(TrapCode::UntracedIndirect.code());

        let mut tr = FnTranslator {
            f,
            module_externs: &mut module.externs,
            ext_map: &ext_map,
            cur: BlockId(0),
            flags: FlagState::None,
            block_map,
            trap_block,
            trap_ind_block,
            ext_sites: Vec::new(),
        };

        for &baddr in &mf.blocks {
            tr.cur = tr.block_map[&baddr];
            tr.flags = FlagState::None;
            let mblock = &cfg.blocks[&baddr];
            for (pc, inst) in &mblock.insts {
                translate_inst(&mut tr, img, funcs, &func_by_addr, *pc, inst, mf)?;
            }
            // Terminator.
            let term = match &mblock.end {
                BlockEnd::FallInto(n) => Term::Br(tr.target_block(*n)),
                BlockEnd::Jmp(t) => {
                    // INVARIANT: build_cfg pushes the terminator inst
                    // before breaking with a non-fallthrough end, so
                    // `insts` is non-empty for Jmp/Jcc/JmpInd blocks.
                    let (jaddr, _) = mblock.insts.last().expect("jmp");
                    if let Some(target) = mf.tail_calls.get(jaddr) {
                        // Tail call: call the target, then return.
                        let callee = func_by_addr[target];
                        tr.emit(InstKind::Call { f: callee, args: Vec::new() });
                        Term::Ret(None)
                    } else {
                        Term::Br(tr.target_block(*t))
                    }
                }
                BlockEnd::Jcc { taken_addr, fall_addr, .. } => {
                    // INVARIANT: as above; and a Jcc end is only built
                    // from an `Inst::Jcc` terminator.
                    let (jpc, jinst) = mblock.insts.last().expect("jcc");
                    let Inst::Jcc { cc, .. } = jinst else { unreachable!() };
                    let c = tr.cond_value(*jpc, *cc)?;
                    Term::CondBr {
                        c,
                        t: tr.target_block(*taken_addr),
                        f: tr.target_block(*fall_addr),
                    }
                }
                BlockEnd::JmpInd(targets) => {
                    // Re-compute the jump target value and switch over the
                    // traced targets.
                    // INVARIANT: as above; a JmpInd end is only built
                    // from an `Inst::JmpInd` terminator.
                    let (jpc, jinst) = mblock.insts.last().expect("jmpind");
                    let Inst::JmpInd { target } = jinst else { unreachable!() };
                    let _ = jpc;
                    let tv = tr.read(target, Size::D);
                    let cases = targets.iter().map(|t| (*t as i32, tr.target_block(*t))).collect();
                    Term::Switch { v: tv, cases, default: tr.trap_ind_block }
                }
                BlockEnd::Ret(pop) => {
                    // esp <- sp_at_ret + 4 + pop (skip the ret slot).
                    let esp = tr.load_reg(Reg::Esp);
                    let new = tr.bin(BinOp::Add, esp, Val::Const(4 + *pop as i32));
                    tr.store_reg(Reg::Esp, new);
                    Term::Ret(None)
                }
                BlockEnd::Halt => {
                    // Exit with the value in eax.
                    let code = tr.load_reg(Reg::Eax);
                    let exit = tr.extern_index_of("exit");
                    tr.emit(InstKind::CallExt { ext: exit, args: vec![code] });
                    Term::Unreachable
                }
                BlockEnd::Trap(c) => Term::Trap(*c),
            };
            tr.f.blocks[tr.cur.index()].term = term;
        }

        ext_sites.extend(tr.ext_sites.iter().map(|&(pc, inst)| (pc, fid, inst)));
        module.funcs[fid.index()] = tr.f;
    }

    // Entry wrapper.
    let main_fid = func_by_addr[&img.entry];
    let mut start = Function::new("_lifted_start");
    let b = start.entry;
    start.push_inst(
        b,
        InstKind::Store {
            ty: Ty::I32,
            addr: Val::Const(vcpu_reg_addr(Reg::Esp) as i32),
            val: Val::Const((EMU_STACK_TOP - 4) as i32),
        },
    );
    start.push_inst(b, InstKind::Call { f: main_fid, args: Vec::new() });
    let code = start.push_inst(
        b,
        InstKind::Load { ty: Ty::I32, addr: Val::Const(vcpu_reg_addr(Reg::Eax) as i32) },
    );
    start.blocks[b.index()].term = Term::Ret(Some(Val::Inst(code)));
    let start_id = module.add_func(start);
    module.entry = Some(start_id);

    Ok((module, LiftedMeta { func_by_addr, start: start_id, ret_pop, ext_map, ext_sites }))
}

fn translate_inst(
    tr: &mut FnTranslator<'_>,
    _img: &Image,
    _funcs: &FuncMap,
    func_by_addr: &BTreeMap<u32, FuncId>,
    pc: u32,
    inst: &Inst,
    _mf: &crate::funcrec::MachFunc,
) -> Result<(), LiftError> {
    match inst {
        Inst::Nop => {}
        // Terminators are handled by the block-end logic; cmp-like state
        // feeding them is recorded here.
        Inst::Jmp { .. }
        | Inst::JmpInd { .. }
        | Inst::Jcc { .. }
        | Inst::Ret { .. }
        | Inst::Halt
        | Inst::Trap { .. } => {}
        Inst::Mov { size, dst, src } => {
            let v = tr.read(src, *size);
            tr.write(dst, v, *size);
        }
        Inst::Movzx { from, dst, src } => {
            let v = tr.read(src, *from);
            // `read` already zero-extends.
            tr.store_reg(*dst, v);
        }
        Inst::Movsx { from, dst, src } => {
            let v = tr.read(src, *from);
            let s = tr.emit(InstKind::Ext { signed: true, from: size_to_ty(*from), v });
            tr.store_reg(*dst, s);
        }
        Inst::Lea { dst, mem } => {
            let a = tr.ea(mem);
            tr.store_reg(*dst, a);
        }
        Inst::Alu { op, size, dst, src } => {
            let b = tr.read(src, *size);
            let a = tr.read(dst, *size);
            let op_ir = match op {
                AluOp::Add => BinOp::Add,
                AluOp::Sub => BinOp::Sub,
                AluOp::And => BinOp::And,
                AluOp::Or => BinOp::Or,
                AluOp::Xor => BinOp::Xor,
            };
            let r = tr.bin(op_ir, a, b);
            let r = if *size == Size::D {
                r
            } else {
                tr.bin(BinOp::And, r, Val::Const(size.mask() as i32))
            };
            tr.write(dst, r, *size);
            tr.flags = match op {
                AluOp::Add => FlagState::Add { r, size: *size },
                AluOp::Sub => FlagState::Cmp { a, b, size: *size },
                _ => FlagState::Logic { r, size: *size },
            };
        }
        Inst::Cmp { size, a, b } => {
            let bv = tr.read(b, *size);
            let av = tr.read(a, *size);
            tr.flags = FlagState::Cmp { a: av, b: bv, size: *size };
        }
        Inst::Test { size, a, b } => {
            let bv = tr.read(b, *size);
            let av = tr.read(a, *size);
            let r = tr.bin(BinOp::And, av, bv);
            tr.flags = FlagState::Logic { r, size: *size };
        }
        Inst::Imul { dst, src } => {
            let b = tr.read(src, Size::D);
            let a = tr.load_reg(*dst);
            let r = tr.bin(BinOp::Mul, a, b);
            tr.store_reg(*dst, r);
        }
        Inst::ImulI { dst, src, imm } => {
            let a = tr.read(src, Size::D);
            let r = tr.bin(BinOp::Mul, a, Val::Const(*imm));
            tr.store_reg(*dst, r);
        }
        Inst::Idiv { src } => {
            let d = tr.read(src, Size::D);
            let a = tr.load_reg(Reg::Eax);
            let q = tr.bin(BinOp::DivS, a, d);
            let r = tr.bin(BinOp::RemS, a, d);
            tr.store_reg(Reg::Eax, q);
            tr.store_reg(Reg::Edx, r);
        }
        Inst::Neg { size, dst } => {
            let a = tr.read(dst, *size);
            let r = tr.bin(BinOp::Sub, Val::Const(0), a);
            let r = if *size == Size::D {
                r
            } else {
                tr.bin(BinOp::And, r, Val::Const(size.mask() as i32))
            };
            tr.write(dst, r, *size);
            tr.flags = FlagState::Cmp { a: Val::Const(0), b: a, size: *size };
        }
        Inst::Not { size, dst } => {
            let a = tr.read(dst, *size);
            let r = tr.bin(BinOp::Xor, a, Val::Const(-1));
            tr.write(dst, r, *size);
        }
        Inst::Shift { op, size, dst, amount } => {
            let a = tr.read(dst, *size);
            let amt = match amount {
                ShiftAmount::Imm(i) => Val::Const((*i & 31) as i32),
                ShiftAmount::Cl => {
                    let c = tr.load_reg(Reg::Ecx);
                    tr.bin(BinOp::And, c, Val::Const(31))
                }
            };
            let r = match op {
                ShiftOp::Shl => tr.bin(BinOp::Shl, a, amt),
                ShiftOp::Shr => tr.bin(BinOp::ShrL, a, amt),
                ShiftOp::Sar => {
                    // Sign-extend sub-width operands first.
                    let av = if *size == Size::D {
                        a
                    } else {
                        tr.emit(InstKind::Ext { signed: true, from: size_to_ty(*size), v: a })
                    };
                    tr.bin(BinOp::ShrA, av, amt)
                }
            };
            let r = if *size == Size::D {
                r
            } else {
                tr.bin(BinOp::And, r, Val::Const(size.mask() as i32))
            };
            tr.write(dst, r, *size);
            tr.flags = FlagState::Logic { r, size: *size };
        }
        Inst::Push { src } => {
            let v = tr.read(src, Size::D);
            let esp = tr.load_reg(Reg::Esp);
            let ne = tr.bin(BinOp::Sub, esp, Val::Const(4));
            tr.store_reg(Reg::Esp, ne);
            tr.emit(InstKind::Store { ty: Ty::I32, addr: ne, val: v });
        }
        Inst::Pop { dst } => {
            let esp = tr.load_reg(Reg::Esp);
            let v = tr.emit(InstKind::Load { ty: Ty::I32, addr: esp });
            let ne = tr.bin(BinOp::Add, esp, Val::Const(4));
            tr.store_reg(Reg::Esp, ne);
            tr.write(dst, v, Size::D);
        }
        Inst::Leave => {
            let ebp = tr.load_reg(Reg::Ebp);
            let v = tr.emit(InstKind::Load { ty: Ty::I32, addr: ebp });
            let ne = tr.bin(BinOp::Add, ebp, Val::Const(4));
            tr.store_reg(Reg::Esp, ne);
            tr.store_reg(Reg::Ebp, v);
        }
        Inst::Call { target } => {
            let Some(&callee) = func_by_addr.get(target) else {
                return Err(LiftError::CallToNonFunction(pc, *target));
            };
            // Reserve the return-address slot (contents never read).
            let esp = tr.load_reg(Reg::Esp);
            let ne = tr.bin(BinOp::Sub, esp, Val::Const(4));
            tr.store_reg(Reg::Esp, ne);
            tr.emit(InstKind::Call { f: callee, args: Vec::new() });
        }
        Inst::CallInd { target } => {
            let tv = tr.read(target, Size::D);
            let esp = tr.load_reg(Reg::Esp);
            let ne = tr.bin(BinOp::Sub, esp, Val::Const(4));
            tr.store_reg(Reg::Esp, ne);
            tr.emit(InstKind::CallInd { target: tv, args: Vec::new() });
        }
        Inst::CallExt { idx } => {
            // Stack switching analogue (§5.2): the external reads its
            // arguments straight off the emulated stack.
            let ext = tr.intern_ext(*idx);
            let esp = tr.load_reg(Reg::Esp);
            let call = tr.f.push_inst(tr.cur, InstKind::CallExtRaw { ext, sp: esp });
            tr.ext_sites.push((pc, call));
            tr.store_reg(Reg::Eax, Val::Inst(call));
        }
        Inst::Setcc { cc, dst } => {
            let v = tr.cond_value(pc, *cc)?;
            // Writes the low byte only (stale upper bits).
            tr.write(&Operand::Reg(*dst), v, Size::B);
        }
        Inst::VmovLd { mem } => {
            let addr = tr.ea(mem);
            let lo = tr.emit(InstKind::Load { ty: Ty::I32, addr });
            let hiaddr = tr.bin(BinOp::Add, addr, Val::Const(4));
            let hi = tr.emit(InstKind::Load { ty: Ty::I32, addr: hiaddr });
            tr.emit(InstKind::Store {
                ty: Ty::I32,
                addr: Val::Const(vcpu_vreg_addr(0) as i32),
                val: lo,
            });
            tr.emit(InstKind::Store {
                ty: Ty::I32,
                addr: Val::Const(vcpu_vreg_addr(1) as i32),
                val: hi,
            });
        }
        Inst::VmovSt { mem } => {
            let addr = tr.ea(mem);
            let lo =
                tr.emit(InstKind::Load { ty: Ty::I32, addr: Val::Const(vcpu_vreg_addr(0) as i32) });
            let hi =
                tr.emit(InstKind::Load { ty: Ty::I32, addr: Val::Const(vcpu_vreg_addr(1) as i32) });
            tr.emit(InstKind::Store { ty: Ty::I32, addr, val: lo });
            let hiaddr = tr.bin(BinOp::Add, addr, Val::Const(4));
            tr.emit(InstKind::Store { ty: Ty::I32, addr: hiaddr, val: hi });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::lift_image;
    use std::collections::BTreeMap;
    use wyt_ir::InstKind;
    use wyt_minicc::{compile, Profile};

    /// Every traced external-call pc names exactly one lifted
    /// `callext_raw`, and no two lifted sites share a pc — on a program
    /// whose tail calls make function recovery split shared tails into
    /// their own entries (`shared` is only ever jumped to, from two
    /// callers) and keep a called-and-tail-called body (`report`) whole.
    /// Trace-derived arities are keyed by pc, so this is what lets them
    /// stand in for a per-instruction replay.
    #[test]
    fn each_traced_ext_call_pc_is_one_lifted_site() {
        let src = r#"
            int report(int a, int b) {
                int i;
                int acc = 0;
                for (i = 0; i < a; i++) acc += b;
                printf("report %d %d\n", a, acc);
                return acc;
            }
            int hop(int a, int b) { return report(a + 1, b); }
            int shared(int a) {
                int i;
                int s = 0;
                for (i = 0; i < a; i++) s += i ^ a;
                printf("%d\n", s);
                return s;
            }
            int left(int a) { return shared(a * 2); }
            int right(int a) { return shared(a + 3); }
            int is_even(int n) {
                if (n == 0) { putchar(69); return 1; }
                return is_odd(n - 1);
            }
            int is_odd(int n) {
                if (n == 0) { putchar(79); return 0; }
                return is_even(n - 1);
            }
            int main() {
                int c = getchar() & 7;
                int x = hop(c, 2) + report(1, c) + left(c) + right(c);
                printf("%d %d\n", x, is_even(c));
                return x & 0x7f;
            }
        "#;
        for profile in [Profile::gcc12_o3(), Profile::clang16_o3()] {
            let img = compile(src, &profile).unwrap().stripped();
            let inputs = vec![b"a".to_vec(), b"d".to_vec()];
            let lifted = lift_image(&img, &inputs).unwrap();
            assert!(
                lifted.funcs.funcs.values().any(|f| !f.tail_calls.is_empty()),
                "{}: the program must exercise tail calls",
                profile.name
            );

            let mut raw = 0;
            for f in &lifted.module.funcs {
                for b in &f.blocks {
                    raw += b
                        .insts
                        .iter()
                        .filter(|&&i| matches!(f.inst(i), InstKind::CallExtRaw { .. }))
                        .count();
                }
            }
            let meta = &lifted.meta;
            assert_eq!(meta.ext_sites.len(), raw, "every emitted callext_raw is recorded");
            let mut by_pc = BTreeMap::new();
            for &(pc, f, inst) in &meta.ext_sites {
                assert!(by_pc.insert(pc, (f, inst)).is_none(), "two lifted sites share pc {pc:#x}");
            }
            assert!(!lifted.trace.ext_calls.is_empty());
            for (pc, call) in &lifted.trace.ext_calls {
                let Some(&(f, inst)) = by_pc.get(pc) else {
                    panic!("{}: traced ext call at {pc:#x} has no lifted site", profile.name)
                };
                let InstKind::CallExtRaw { ext, .. } = lifted.module.funcs[f.index()].inst(inst)
                else {
                    panic!("site for {pc:#x} is not a callext_raw");
                };
                assert_eq!(*ext, meta.ext_map[call.import as usize], "site calls its import");
            }
        }
    }
}
