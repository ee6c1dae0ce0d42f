//! Core identifier and operator types of the IR.

use std::fmt;

/// Memory access width. All SSA values are 32 bits wide; narrow loads
/// zero-extend and narrow stores truncate, so `Ty` only matters at memory
/// operations (and for `ext`/`sext` casts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 1 byte.
    I8,
    /// 2 bytes.
    I16,
    /// 4 bytes.
    I32,
}

impl Ty {
    /// Width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            Ty::I8 => 1,
            Ty::I16 => 2,
            Ty::I32 => 4,
        }
    }

    /// Mask selecting the low `bytes()` of a 32-bit value.
    pub fn mask(self) -> u32 {
        match self {
            Ty::I8 => 0xff,
            Ty::I16 => 0xffff,
            Ty::I32 => u32::MAX,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Ty::I8 => "i8",
            Ty::I16 => "i16",
            Ty::I32 => "i32",
        })
    }
}

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Index of an instruction within its function's arena.
    InstId,
    "%"
);
id_type!(
    /// Index of a basic block within its function.
    BlockId,
    "bb"
);
id_type!(
    /// Index of a function within the module.
    FuncId,
    "@f"
);
id_type!(
    /// Index of a global within the module.
    GlobalId,
    "@g"
);

/// An SSA value: an instruction result, a function parameter, or a
/// constant. All values are 32-bit. The order is arbitrary but total
/// (passes use it to canonicalize commutative operands).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Val {
    /// Result of the instruction.
    Inst(InstId),
    /// The n-th parameter of the enclosing function.
    Param(u32),
    /// A 32-bit constant.
    Const(i32),
}

impl Val {
    /// The instruction id, if this value is an instruction result.
    pub fn as_inst(self) -> Option<InstId> {
        match self {
            Val::Inst(i) => Some(i),
            _ => None,
        }
    }

    /// The constant, if this value is a constant.
    pub fn as_const(self) -> Option<i32> {
        match self {
            Val::Const(c) => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Inst(i) => write!(f, "{i}"),
            Val::Param(p) => write!(f, "$arg{p}"),
            Val::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<i32> for Val {
    fn from(c: i32) -> Val {
        Val::Const(c)
    }
}

impl From<InstId> for Val {
    fn from(i: InstId) -> Val {
        Val::Inst(i)
    }
}

/// Binary integer operation. All operate on 32-bit values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low 32 bits).
    Mul,
    /// Signed division (traps on zero / overflow).
    DivS,
    /// Signed remainder (traps on zero / overflow).
    RemS,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (amount masked to 0..32).
    Shl,
    /// Logical right shift.
    ShrL,
    /// Arithmetic right shift.
    ShrA,
}

impl BinOp {
    /// `true` if `a op b == b op a`.
    pub fn commutative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor)
    }

    /// Constant-fold the operation; `None` for division traps.
    pub fn eval(self, a: u32, b: u32) -> Option<u32> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::DivS => {
                let (a, b) = (a as i32, b as i32);
                if b == 0 || (a == i32::MIN && b == -1) {
                    return None;
                }
                (a / b) as u32
            }
            BinOp::RemS => {
                let (a, b) = (a as i32, b as i32);
                if b == 0 || (a == i32::MIN && b == -1) {
                    return None;
                }
                (a % b) as u32
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b & 31),
            BinOp::ShrL => a.wrapping_shr(b & 31),
            BinOp::ShrA => ((a as i32).wrapping_shr(b & 31)) as u32,
        })
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::DivS => "sdiv",
            BinOp::RemS => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::ShrL => "lshr",
            BinOp::ShrA => "ashr",
        })
    }
}

/// Integer comparison predicate; result is 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    SLt,
    /// Signed less-or-equal.
    SLe,
    /// Signed greater-than.
    SGt,
    /// Signed greater-or-equal.
    SGe,
    /// Unsigned less-than.
    ULt,
    /// Unsigned less-or-equal.
    ULe,
    /// Unsigned greater-than.
    UGt,
    /// Unsigned greater-or-equal.
    UGe,
}

impl CmpOp {
    /// Evaluate the predicate.
    pub fn eval(self, a: u32, b: u32) -> bool {
        let (sa, sb) = (a as i32, b as i32);
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::SLt => sa < sb,
            CmpOp::SLe => sa <= sb,
            CmpOp::SGt => sa > sb,
            CmpOp::SGe => sa >= sb,
            CmpOp::ULt => a < b,
            CmpOp::ULe => a <= b,
            CmpOp::UGt => a > b,
            CmpOp::UGe => a >= b,
        }
    }

    /// Swap operand order (`a op b` ⇔ `b op.swapped() a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::SLt => CmpOp::SGt,
            CmpOp::SLe => CmpOp::SGe,
            CmpOp::SGt => CmpOp::SLt,
            CmpOp::SGe => CmpOp::SLe,
            CmpOp::ULt => CmpOp::UGt,
            CmpOp::ULe => CmpOp::UGe,
            CmpOp::UGt => CmpOp::ULt,
            CmpOp::UGe => CmpOp::ULe,
        }
    }

    /// The negated predicate.
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::SLt => CmpOp::SGe,
            CmpOp::SLe => CmpOp::SGt,
            CmpOp::SGt => CmpOp::SLe,
            CmpOp::SGe => CmpOp::SLt,
            CmpOp::ULt => CmpOp::UGe,
            CmpOp::ULe => CmpOp::UGt,
            CmpOp::UGt => CmpOp::ULe,
            CmpOp::UGe => CmpOp::ULt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::SLt => "slt",
            CmpOp::SLe => "sle",
            CmpOp::SGt => "sgt",
            CmpOp::SGe => "sge",
            CmpOp::ULt => "ult",
            CmpOp::ULe => "ule",
            CmpOp::UGt => "ugt",
            CmpOp::UGe => "uge",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_division_guards() {
        assert_eq!(BinOp::DivS.eval(7, 2), Some(3));
        assert_eq!(BinOp::DivS.eval(1, 0), None);
        assert_eq!(BinOp::DivS.eval(i32::MIN as u32, -1i32 as u32), None);
        assert_eq!(BinOp::RemS.eval(7, 2), Some(1));
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(BinOp::Shl.eval(1, 33), Some(2));
        assert_eq!(BinOp::ShrA.eval(0x8000_0000, 31), Some(0xffff_ffff));
        assert_eq!(BinOp::ShrL.eval(0x8000_0000, 31), Some(1));
    }

    #[test]
    fn cmp_signedness() {
        assert!(CmpOp::SLt.eval(-1i32 as u32, 1));
        assert!(!CmpOp::ULt.eval(-1i32 as u32, 1));
        for op in [CmpOp::Eq, CmpOp::SLt, CmpOp::UGe, CmpOp::Ne] {
            assert_eq!(op.negated().negated(), op);
            assert_eq!(op.swapped().swapped(), op);
            assert_eq!(op.eval(3, 8), op.swapped().eval(8, 3));
            assert_eq!(op.eval(3, 8), !op.negated().eval(3, 8));
        }
    }

    #[test]
    fn val_constructors() {
        assert_eq!(Val::from(5), Val::Const(5));
        assert_eq!(Val::Const(5).as_const(), Some(5));
        assert_eq!(Val::Inst(InstId(3)).as_inst(), Some(InstId(3)));
        assert_eq!(Val::Param(1).as_const(), None);
        assert_eq!(format!("{}", Val::Inst(InstId(3))), "%3");
        assert_eq!(format!("{}", Val::Param(0)), "$arg0");
    }
}
