//! # wyt-ir — the compiler-level intermediate representation
//!
//! The reproduction's analogue of LLVM IR: an SSA IR with explicit memory
//! (`alloca`/`load`/`store`), module-level globals, direct, indirect and
//! external calls, phis, and a total 32-bit integer semantics.
//!
//! Three design points follow the paper directly:
//!
//! - **Lifted programs live here.** The lifter translates machine code into
//!   this IR using the emulation approach of §2.1 (virtual CPU registers as
//!   globals, the emulated stack as a byte-array global); WYTIWYG's
//!   refinements then transform it in place.
//! - **Instrumentation is a [`interp::Hooks`] implementation.** The paper
//!   instruments LLVM IR and links a runtime; we interpret the IR and hand
//!   every executed operation, with per-value shadow metadata, to the
//!   analysis (see [`interp`]).
//! - **A [`verify`] pass** enforces SSA dominance after every transform,
//!   which is what keeps a multi-stage refinement pipeline honest.
//!
//! ```
//! use wyt_ir::{Function, InstKind, Module, Term, Val, BinOp};
//! let mut m = Module::new();
//! let mut f = Function::new("answer");
//! let v = f.push_inst(f.entry, InstKind::Bin { op: BinOp::Add, a: Val::Const(40), b: Val::Const(2) });
//! f.blocks[0].term = Term::Ret(Some(Val::Inst(v)));
//! let id = m.add_func(f);
//! m.entry = Some(id);
//! wyt_ir::verify::verify_module(&m)?;
//! let out = wyt_ir::interp::Interp::new(&m, Vec::new(), wyt_ir::interp::NoHooks).run();
//! assert_eq!(out.exit_code, 42);
//! # Ok::<(), wyt_ir::verify::VerifyError>(())
//! ```

pub mod interp;
mod module;
pub mod print;
mod types;
pub mod verify;

pub use module::{Block, Function, Global, GlobalKind, InstKind, Module, Subst, Term};
pub use types::{BinOp, BlockId, CmpOp, FuncId, GlobalId, InstId, Ty, Val};
