//! Instruction, operand and register definitions.

use std::fmt;

/// A general purpose register. Mirrors the x86-32 GPR file: [`Reg::Esp`] is
/// the hardware stack pointer used by `push`/`pop`/`call`/`ret`, and
/// [`Reg::Ebp`] is conventionally (but not necessarily) the frame pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Reg {
    /// Accumulator; return values live here by convention.
    Eax = 0,
    /// Count register; shift-by-register amounts use its low byte (`cl`).
    Ecx = 1,
    /// Data register.
    Edx = 2,
    /// Callee-saved by the default convention.
    Ebx = 3,
    /// Stack pointer.
    Esp = 4,
    /// Frame pointer by convention; callee-saved.
    Ebp = 5,
    /// Callee-saved.
    Esi = 6,
    /// Callee-saved.
    Edi = 7,
}

impl Reg {
    /// All registers in encoding order.
    pub const ALL: [Reg; 8] =
        [Reg::Eax, Reg::Ecx, Reg::Edx, Reg::Ebx, Reg::Esp, Reg::Ebp, Reg::Esi, Reg::Edi];

    /// The register with encoding `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= 8`.
    pub fn from_index(idx: u8) -> Reg {
        Self::ALL[idx as usize]
    }

    /// The encoding index of the register (0..8).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Reg::Eax => "eax",
            Reg::Ecx => "ecx",
            Reg::Edx => "edx",
            Reg::Ebx => "ebx",
            Reg::Esp => "esp",
            Reg::Ebp => "ebp",
            Reg::Esi => "esi",
            Reg::Edi => "edi",
        };
        f.write_str(s)
    }
}

/// Operand size. Sub-register writes ([`Size::B`], [`Size::W`]) leave the
/// upper bits of the destination register *stale*, exactly like x86 — this
/// is the source of the "false derives" discussed in §4.2.3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Size {
    /// 1 byte.
    B = 0,
    /// 2 bytes.
    W = 1,
    /// 4 bytes.
    D = 2,
}

impl Size {
    /// Width in bytes (1, 2 or 4).
    pub fn bytes(self) -> u32 {
        match self {
            Size::B => 1,
            Size::W => 2,
            Size::D => 4,
        }
    }

    /// Mask selecting the low `bytes()` of a 32-bit value.
    pub fn mask(self) -> u32 {
        match self {
            Size::B => 0xff,
            Size::W => 0xffff,
            Size::D => 0xffff_ffff,
        }
    }
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Size::B => "b",
            Size::W => "w",
            Size::D => "d",
        })
    }
}

/// A memory operand: `[base + index*scale + disp]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Mem {
    /// Optional base register.
    pub base: Option<Reg>,
    /// Optional scaled index: `(register, scale)` with scale ∈ {1, 2, 4, 8}.
    pub index: Option<(Reg, u8)>,
    /// Constant displacement.
    pub disp: i32,
}

impl Mem {
    /// `[base + disp]`.
    pub fn base_disp(base: Reg, disp: i32) -> Mem {
        Mem { base: Some(base), index: None, disp }
    }

    /// `[disp]` — an absolute address.
    pub fn abs(disp: i32) -> Mem {
        Mem { base: None, index: None, disp }
    }

    /// `[base + index*scale + disp]`.
    pub fn base_index(base: Reg, index: Reg, scale: u8, disp: i32) -> Mem {
        Mem { base: Some(base), index: Some((index, scale)), disp }
    }
}

impl fmt::Display for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut first = true;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            first = false;
        }
        if let Some((i, s)) = self.index {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{i}*{s}")?;
            first = false;
        }
        if self.disp != 0 || first {
            if !first && self.disp >= 0 {
                write!(f, "+")?;
            }
            write!(f, "{}", self.disp)?;
        }
        write!(f, "]")
    }
}

/// An instruction operand: register, immediate or memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// An immediate constant.
    Imm(i32),
    /// A memory operand.
    Mem(Mem),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "${i}"),
            Operand::Mem(m) => write!(f, "{m}"),
        }
    }
}

/// Two-operand ALU operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AluOp {
    /// Addition.
    Add = 0,
    /// Subtraction.
    Sub = 1,
    /// Bitwise and. Used with constant masks for alignment — the bounds
    /// recovery runtime records alignment factors from these (§4.2.2).
    And = 2,
    /// Bitwise or.
    Or = 3,
    /// Bitwise xor.
    Xor = 4,
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
        })
    }
}

/// Shift operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ShiftOp {
    /// Logical left shift.
    Shl = 0,
    /// Logical right shift.
    Shr = 1,
    /// Arithmetic right shift.
    Sar = 2,
}

impl fmt::Display for ShiftOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShiftOp::Shl => "shl",
            ShiftOp::Shr => "shr",
            ShiftOp::Sar => "sar",
        })
    }
}

/// Shift amount: an immediate or the low byte of `ecx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftAmount {
    /// Constant shift amount (masked to 0..32).
    Imm(u8),
    /// Shift by `cl`.
    Cl,
}

/// Condition code for [`Inst::Jcc`] and [`Inst::Setcc`]. Signed and
/// unsigned comparisons are distinguished exactly as on x86.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cc {
    /// Equal (ZF).
    E = 0,
    /// Not equal.
    Ne = 1,
    /// Signed less-than.
    L = 2,
    /// Signed less-or-equal.
    Le = 3,
    /// Signed greater-than.
    G = 4,
    /// Signed greater-or-equal.
    Ge = 5,
    /// Unsigned below.
    B = 6,
    /// Unsigned below-or-equal.
    Be = 7,
    /// Unsigned above.
    A = 8,
    /// Unsigned above-or-equal.
    Ae = 9,
    /// Sign flag set.
    S = 10,
    /// Sign flag clear.
    Ns = 11,
}

impl Cc {
    /// The condition testing the negation of `self`.
    pub fn negate(self) -> Cc {
        match self {
            Cc::E => Cc::Ne,
            Cc::Ne => Cc::E,
            Cc::L => Cc::Ge,
            Cc::Le => Cc::G,
            Cc::G => Cc::Le,
            Cc::Ge => Cc::L,
            Cc::B => Cc::Ae,
            Cc::Be => Cc::A,
            Cc::A => Cc::Be,
            Cc::Ae => Cc::B,
            Cc::S => Cc::Ns,
            Cc::Ns => Cc::S,
        }
    }

    /// All condition codes.
    pub const ALL: [Cc; 12] =
        [Cc::E, Cc::Ne, Cc::L, Cc::Le, Cc::G, Cc::Ge, Cc::B, Cc::Be, Cc::A, Cc::Ae, Cc::S, Cc::Ns];
}

impl fmt::Display for Cc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cc::E => "e",
            Cc::Ne => "ne",
            Cc::L => "l",
            Cc::Le => "le",
            Cc::G => "g",
            Cc::Ge => "ge",
            Cc::B => "b",
            Cc::Be => "be",
            Cc::A => "a",
            Cc::Ae => "ae",
            Cc::S => "s",
            Cc::Ns => "ns",
        })
    }
}

/// A machine instruction.
///
/// The set is the subset of x86-32 that optimizing C compilers actually emit
/// for integer programs, plus [`Inst::VmovLd`]/[`Inst::VmovSt`] which stand
/// in for the 64-bit SSE moves modern compilers use for block copies (the
/// paper's SIMD-lifting pathology, §6.2), and [`Inst::Trap`] which the
/// recompiler emits on untraced paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// No operation.
    Nop,
    /// Stop execution with exit code in `eax`.
    Halt,
    /// `dst <- src`. Sub-register stores/loads only move the low bytes;
    /// register destinations keep stale upper bits. `Mem <- Mem` is invalid.
    Mov { size: Size, dst: Operand, src: Operand },
    /// Zero-extending load of a `from`-sized value into a full register.
    Movzx { from: Size, dst: Reg, src: Operand },
    /// Sign-extending load of a `from`-sized value into a full register.
    Movsx { from: Size, dst: Reg, src: Operand },
    /// `dst <- effective address of mem` (no memory access).
    Lea { dst: Reg, mem: Mem },
    /// `dst <- dst op src`, setting flags. `Mem op Mem` is invalid.
    Alu { op: AluOp, size: Size, dst: Operand, src: Operand },
    /// Compare `a` with `b` (computes `a - b`, sets flags, no writeback).
    Cmp { size: Size, a: Operand, b: Operand },
    /// Test `a` against `b` (computes `a & b`, sets flags, no writeback).
    Test { size: Size, a: Operand, b: Operand },
    /// 32-bit `dst <- dst * src` (low 32 bits).
    Imul { dst: Reg, src: Operand },
    /// 32-bit three-operand `dst <- src * imm`.
    ImulI { dst: Reg, src: Operand, imm: i32 },
    /// Signed division: `eax <- eax / src`, `edx <- eax % src`.
    /// (Simplification of x86 `cdq; idiv`: the dividend is `eax` alone.)
    Idiv { src: Operand },
    /// Two's complement negation (sets flags).
    Neg { size: Size, dst: Operand },
    /// Bitwise complement (no flags).
    Not { size: Size, dst: Operand },
    /// Shift `dst` by `amount` (sets ZF/SF on result).
    Shift { op: ShiftOp, size: Size, dst: Operand, amount: ShiftAmount },
    /// Push a 32-bit value: `esp -= 4; [esp] <- src`.
    Push { src: Operand },
    /// Pop a 32-bit value: `dst <- [esp]; esp += 4`.
    Pop { dst: Operand },
    /// Direct call: push return address, jump to `target`.
    Call { target: u32 },
    /// Indirect call through a register or memory operand.
    CallInd { target: Operand },
    /// Call an imported external function (index into the image's import
    /// table). Does *not* push a return address; arguments start at `[esp]`.
    CallExt { idx: u16 },
    /// Return: pop return address, then pop `pop` extra bytes of arguments.
    Ret { pop: u16 },
    /// Unconditional direct jump.
    Jmp { target: u32 },
    /// Indirect jump (jump tables, computed gotos).
    JmpInd { target: Operand },
    /// Conditional direct jump.
    Jcc { cc: Cc, target: u32 },
    /// Set the low byte of `dst` to 0/1 according to `cc` (upper bits stale).
    Setcc { cc: Cc, dst: Reg },
    /// `esp <- ebp; ebp <- pop()` — the x86 frame epilogue.
    Leave,
    /// Load 8 bytes at `mem` into the vector register `v0`.
    VmovLd { mem: Mem },
    /// Store the 8 bytes of `v0` to `mem`.
    VmovSt { mem: Mem },
    /// Abort execution with a trap code (recompiler-emitted guard).
    Trap { code: u8 },
}

impl Inst {
    /// `true` if the instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Halt
                | Inst::Ret { .. }
                | Inst::Jmp { .. }
                | Inst::JmpInd { .. }
                | Inst::Jcc { .. }
                | Inst::Trap { .. }
        )
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Nop => write!(f, "nop"),
            Inst::Halt => write!(f, "halt"),
            Inst::Mov { size, dst, src } => write!(f, "mov{size} {dst}, {src}"),
            Inst::Movzx { from, dst, src } => write!(f, "movzx{from} {dst}, {src}"),
            Inst::Movsx { from, dst, src } => write!(f, "movsx{from} {dst}, {src}"),
            Inst::Lea { dst, mem } => write!(f, "lea {dst}, {mem}"),
            Inst::Alu { op, size, dst, src } => write!(f, "{op}{size} {dst}, {src}"),
            Inst::Cmp { size, a, b } => write!(f, "cmp{size} {a}, {b}"),
            Inst::Test { size, a, b } => write!(f, "test{size} {a}, {b}"),
            Inst::Imul { dst, src } => write!(f, "imul {dst}, {src}"),
            Inst::ImulI { dst, src, imm } => write!(f, "imul {dst}, {src}, {imm}"),
            Inst::Idiv { src } => write!(f, "idiv {src}"),
            Inst::Neg { size, dst } => write!(f, "neg{size} {dst}"),
            Inst::Not { size, dst } => write!(f, "not{size} {dst}"),
            Inst::Shift { op, size, dst, amount } => match amount {
                ShiftAmount::Imm(i) => write!(f, "{op}{size} {dst}, {i}"),
                ShiftAmount::Cl => write!(f, "{op}{size} {dst}, cl"),
            },
            Inst::Push { src } => write!(f, "push {src}"),
            Inst::Pop { dst } => write!(f, "pop {dst}"),
            Inst::Call { target } => write!(f, "call {target:#x}"),
            Inst::CallInd { target } => write!(f, "call {target}"),
            Inst::CallExt { idx } => write!(f, "callext #{idx}"),
            Inst::Ret { pop } => {
                if *pop == 0 {
                    write!(f, "ret")
                } else {
                    write!(f, "ret {pop}")
                }
            }
            Inst::Jmp { target } => write!(f, "jmp {target:#x}"),
            Inst::JmpInd { target } => write!(f, "jmp {target}"),
            Inst::Jcc { cc, target } => write!(f, "j{cc} {target:#x}"),
            Inst::Setcc { cc, dst } => write!(f, "set{cc} {dst}"),
            Inst::Leave => write!(f, "leave"),
            Inst::VmovLd { mem } => write!(f, "vmov v0, {mem}"),
            Inst::VmovSt { mem } => write!(f, "vmov {mem}, v0"),
            Inst::Trap { code } => write!(f, "trap {code}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_roundtrip() {
        for r in Reg::ALL {
            assert_eq!(Reg::from_index(r.index() as u8), r);
        }
    }

    #[test]
    fn cc_negate_is_involution() {
        for cc in Cc::ALL {
            assert_eq!(cc.negate().negate(), cc);
        }
    }

    #[test]
    fn size_masks() {
        assert_eq!(Size::B.mask(), 0xff);
        assert_eq!(Size::W.mask(), 0xffff);
        assert_eq!(Size::D.mask(), u32::MAX);
        assert_eq!(Size::B.bytes() + Size::W.bytes() + Size::D.bytes(), 7);
    }

    #[test]
    fn display_formats() {
        let m = Mem::base_index(Reg::Ebp, Reg::Eax, 8, -44);
        assert_eq!(m.to_string(), "[ebp+eax*8-44]");
        let i = Inst::Mov { size: Size::D, dst: Operand::Mem(m), src: Operand::Reg(Reg::Ecx) };
        assert_eq!(i.to_string(), "movd [ebp+eax*8-44], ecx");
        assert_eq!(Inst::Ret { pop: 0 }.to_string(), "ret");
        assert_eq!(Inst::Jcc { cc: Cc::Le, target: 0x40 }.to_string(), "jle 0x40");
    }

    #[test]
    fn terminators() {
        assert!(Inst::Ret { pop: 0 }.is_terminator());
        assert!(Inst::Jmp { target: 0 }.is_terminator());
        assert!(!Inst::Call { target: 0 }.is_terminator());
        assert!(!Inst::Nop.is_terminator());
    }
}
