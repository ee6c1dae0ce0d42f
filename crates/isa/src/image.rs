//! The executable image format and its ground-truth debug sidecar.
//!
//! An [`Image`] is the reproduction's stand-in for a COTS ELF binary: a text
//! segment of encoded instructions, an initialized data segment, a BSS size,
//! an import table of external ("libc") functions, an entry point and an
//! optional symbol table. [`FrameLayout`] records, per function, the
//! compiler's actual placement of stack objects — the analogue of LLVM 16's
//! Stack Frame Layout analysis that the paper compares against in §6.3. It
//! is **never** consulted by the lifter or by WYTIWYG itself, only by the
//! accuracy evaluation.

use std::fmt;

/// Default load address of the text segment.
pub const TEXT_BASE: u32 = 0x0010_0000;
/// Default load address of the data segment (globals, string literals,
/// jump tables).
pub const DATA_BASE: u32 = 0x0040_0000;
/// Start of the heap served by the emulated `malloc`.
pub const HEAP_BASE: u32 = 0x0080_0000;
/// Initial stack pointer of a native run (the stack grows down).
pub const STACK_TOP: u32 = 0x0ff0_0000;

/// A named code address (function symbols).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Virtual address.
    pub addr: u32,
}

/// Classification of a ground-truth stack object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GtVarKind {
    /// A named source-level local (scalar, array or struct).
    Named,
    /// A compiler-introduced spill slot.
    Spill,
}

/// A ground-truth stack object within one frame.
///
/// Offsets are relative to `sp0`, the value of `esp` immediately after the
/// `call` into the function (so the return address occupies `[sp0, sp0+4)`
/// and locals live at negative offsets), matching the paper's convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GtVar {
    /// Source name, or a synthesized name for spill slots.
    pub name: String,
    /// Offset of the object's lowest byte relative to sp0 (negative for
    /// locals).
    pub sp0_offset: i32,
    /// Object size in bytes.
    pub size: u32,
    /// Whether this is a source local or a spill slot.
    pub kind: GtVarKind,
}

/// Ground-truth stack layout of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameLayout {
    /// Entry address of the function.
    pub func: u32,
    /// Function name (for reporting).
    pub func_name: String,
    /// Stack objects, in no particular order.
    pub vars: Vec<GtVar>,
}

/// A recorded "relocation": the word at `data_offset` within the data
/// segment holds an absolute code address (jump-table entries). Binaries
/// built as position independent code omit these records and store
/// table-relative offsets instead — which is exactly what defeats
/// SecondWrite-style static jump-table recovery in the paper's §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeReloc {
    /// Byte offset of the 32-bit slot within the data segment.
    pub data_offset: u32,
}

/// An executable image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Image {
    /// Load address of `text`.
    pub text_base: u32,
    /// Encoded instruction stream.
    pub text: Vec<u8>,
    /// Load address of `data`.
    pub data_base: u32,
    /// Initialized data.
    pub data: Vec<u8>,
    /// Size of zero-initialized memory following `data`.
    pub bss_size: u32,
    /// Entry point address.
    pub entry: u32,
    /// Imported external function names; `CallExt { idx }` indexes this.
    pub imports: Vec<String>,
    /// Function symbols (may be empty for "stripped" images).
    pub symbols: Vec<Symbol>,
    /// Ground-truth stack layouts (debug sidecar; evaluation only).
    pub frame_layouts: Vec<FrameLayout>,
    /// Absolute-address relocations in `data` (absent under PIC).
    pub code_relocs: Vec<CodeReloc>,
    /// Whether the image was built as position independent code.
    pub pic: bool,
    /// Guard trap sites emitted by the recompiler, sorted by address.
    /// Empty for original (non-recompiled) images.
    pub guard_sites: Vec<crate::trap::GuardSite>,
}

impl Image {
    /// An empty image with the default segment bases.
    pub fn new() -> Image {
        Image { text_base: TEXT_BASE, data_base: DATA_BASE, ..Image::default() }
    }

    /// End address (exclusive) of the text segment. Saturates at
    /// `u32::MAX` for images whose text would wrap the address space
    /// (such images fail `DecodeLimits::validate_image`; this keeps
    /// inspection of them panic-free in the meantime).
    pub fn text_end(&self) -> u32 {
        let end = u64::from(self.text_base) + self.text.len() as u64;
        u32::try_from(end).unwrap_or(u32::MAX)
    }

    /// `true` if `addr` lies within the text segment.
    pub fn contains_code(&self, addr: u32) -> bool {
        addr >= self.text_base && addr < self.text_end()
    }

    /// Decode the instruction at virtual address `addr`.
    ///
    /// # Errors
    /// Returns an error if `addr` is outside the text segment or the bytes
    /// do not form a valid instruction.
    pub fn decode_at(&self, addr: u32) -> Result<(crate::Inst, usize), ImageError> {
        if !self.contains_code(addr) {
            return Err(ImageError::BadCodeAddress(addr));
        }
        let off = (addr - self.text_base) as usize;
        crate::decode(&self.text[off..]).map_err(|e| ImageError::Decode(addr, e))
    }

    /// Look up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.iter().find(|s| s.name == name).map(|s| s.addr)
    }

    /// Look up the name of the symbol at `addr`, if any.
    pub fn symbol_name_at(&self, addr: u32) -> Option<&str> {
        self.symbols.iter().find(|s| s.addr == addr).map(|s| s.name.as_str())
    }

    /// The ground-truth frame layout for the function at `addr`, if any.
    pub fn frame_layout_at(&self, addr: u32) -> Option<&FrameLayout> {
        self.frame_layouts.iter().find(|f| f.func == addr)
    }

    /// Return a copy with symbol table and ground truth removed, as a
    /// "stripped COTS binary" (what the recompiler actually consumes).
    pub fn stripped(&self) -> Image {
        let mut img = self.clone();
        img.symbols.clear();
        img.frame_layouts.clear();
        img
    }
}

/// Errors raised by image inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The address is not inside the text segment.
    BadCodeAddress(u32),
    /// The bytes at the address are not a valid instruction.
    Decode(u32, crate::DecodeError),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::BadCodeAddress(a) => write!(f, "address {a:#x} is not code"),
            ImageError::Decode(a, e) => write!(f, "bad instruction at {a:#x}: {e}"),
        }
    }
}

impl std::error::Error for ImageError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode, Inst};

    fn tiny_image() -> Image {
        let mut img = Image::new();
        encode(&Inst::Nop, &mut img.text);
        encode(&Inst::Halt, &mut img.text);
        img.entry = img.text_base;
        img.symbols.push(Symbol { name: "main".into(), addr: img.text_base });
        img.frame_layouts.push(FrameLayout {
            func: img.text_base,
            func_name: "main".into(),
            vars: vec![GtVar { name: "x".into(), sp0_offset: -8, size: 4, kind: GtVarKind::Named }],
        });
        img
    }

    #[test]
    fn decode_at_walks_text() {
        let img = tiny_image();
        let (i0, l0) = img.decode_at(img.text_base).unwrap();
        assert_eq!(i0, Inst::Nop);
        let (i1, _) = img.decode_at(img.text_base + l0 as u32).unwrap();
        assert_eq!(i1, Inst::Halt);
        assert!(img.decode_at(0).is_err());
    }

    #[test]
    fn symbols_and_ground_truth() {
        let img = tiny_image();
        assert_eq!(img.symbol("main"), Some(img.text_base));
        assert_eq!(img.symbol("absent"), None);
        assert_eq!(img.symbol_name_at(img.text_base), Some("main"));
        assert_eq!(img.frame_layout_at(img.text_base).unwrap().vars.len(), 1);
    }

    #[test]
    fn stripped_removes_debug_info() {
        let img = tiny_image().stripped();
        assert!(img.symbols.is_empty());
        assert!(img.frame_layouts.is_empty());
        assert_eq!(img.text.len(), 2 + 0); // nop + halt are 1 byte each
    }
}
