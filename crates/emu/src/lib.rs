//! # wyt-emu — concrete execution substrate
//!
//! The emulator plays the role of QEMU/S2E in the paper's toolchain: it
//! executes [`wyt_isa::image::Image`] binaries with faithful machine
//! semantics, reports every control transfer to a pluggable [`TraceSink`]
//! (the input to CFG recovery), services calls to an emulated C library
//! ([`ext`]), and charges a deterministic cycle cost per instruction.
//! Cycle counts are the reproduction's "runtime": the paper uses wall-clock
//! performance purely as a proxy for IR quality, and a deterministic cost
//! model preserves the comparisons while making them exactly reproducible.
//!
//! ```
//! use wyt_isa::{asm::Asm, Inst};
//! let mut a = Asm::new();
//! a.emit(Inst::Mov {
//!     size: wyt_isa::Size::D,
//!     dst: wyt_isa::Operand::Reg(wyt_isa::Reg::Eax),
//!     src: wyt_isa::Operand::Imm(7),
//! });
//! a.emit(Inst::Halt);
//! let mut img = wyt_isa::image::Image::new();
//! let asm = a.finish(img.text_base);
//! img.text = asm.bytes;
//! img.entry = img.text_base;
//! let result = wyt_emu::run_image(&img, Vec::new());
//! assert_eq!(result.exit_code, 7);
//! ```

pub mod ext;
mod machine;
mod memory;

pub use ext::{call_arity, dispatch, parse_format, ArgSource, ExtId, ExtIo, ExtOutcome, FmtArg};
pub use machine::{
    run_image, Flags, Machine, NullSink, RunResult, TraceSink, TransferKind, Trap, RETURN_SENTINEL,
};
pub use memory::{Memory, PAGE_SIZE};
