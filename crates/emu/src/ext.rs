//! The emulated C library.
//!
//! Externals are host-implemented functions reachable through an image's
//! import table. They are shared between the machine emulator and the IR
//! interpreter (lifted and recompiled programs call the *same* handlers),
//! so differences in measured runtime come from generated code only.
//!
//! The set corresponds to the external-function database of the paper's
//! §5.3: it includes representatives of every effect class the WYTIWYG
//! runtime has to model (`memset` ⇒ `Clear`, `memcpy` ⇒ `Copy`, `strchr` ⇒
//! `Derive`, `read_bytes` ⇒ `ObjectSize`, strings ⇒ `ZeroTerminated`,
//! `printf` ⇒ `FormatStr`).

use crate::memory::Memory;
use std::fmt;

/// Identifier of an emulated external function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtId {
    /// `int printf(const char *fmt, ...)` — variadic; arguments described
    /// by the format string.
    Printf,
    /// `int putchar(int c)`.
    Putchar,
    /// `int puts(const char *s)`.
    Puts,
    /// `int getchar(void)` — reads the run's input stream, -1 at EOF.
    Getchar,
    /// `int read_bytes(void *buf, int n)` — `fread`-like bulk input; returns
    /// the number of bytes stored.
    ReadBytes,
    /// `void *malloc(int n)`.
    Malloc,
    /// `void *calloc(int n, int sz)`.
    Calloc,
    /// `void free(void *p)` — a no-op in the bump allocator.
    Free,
    /// `void *realloc(void *p, int n)`.
    Realloc,
    /// `void *memcpy(void *dst, const void *src, int n)`.
    Memcpy,
    /// `void *memset(void *p, int c, int n)`.
    Memset,
    /// `void *memmove(void *dst, const void *src, int n)`.
    Memmove,
    /// `int strlen(const char *s)`.
    Strlen,
    /// `char *strcpy(char *dst, const char *src)`.
    Strcpy,
    /// `int strcmp(const char *a, const char *b)`.
    Strcmp,
    /// `char *strchr(const char *s, int c)` — returns a pointer *derived*
    /// from its argument.
    Strchr,
    /// `void exit(int code)`.
    Exit,
    /// `void abort(void)`.
    Abort,
}

impl ExtId {
    /// All externals.
    pub const ALL: [ExtId; 18] = [
        ExtId::Printf,
        ExtId::Putchar,
        ExtId::Puts,
        ExtId::Getchar,
        ExtId::ReadBytes,
        ExtId::Malloc,
        ExtId::Calloc,
        ExtId::Free,
        ExtId::Realloc,
        ExtId::Memcpy,
        ExtId::Memset,
        ExtId::Memmove,
        ExtId::Strlen,
        ExtId::Strcpy,
        ExtId::Strcmp,
        ExtId::Strchr,
        ExtId::Exit,
        ExtId::Abort,
    ];

    /// The import-table name of the external.
    pub fn name(self) -> &'static str {
        match self {
            ExtId::Printf => "printf",
            ExtId::Putchar => "putchar",
            ExtId::Puts => "puts",
            ExtId::Getchar => "getchar",
            ExtId::ReadBytes => "read_bytes",
            ExtId::Malloc => "malloc",
            ExtId::Calloc => "calloc",
            ExtId::Free => "free",
            ExtId::Realloc => "realloc",
            ExtId::Memcpy => "memcpy",
            ExtId::Memset => "memset",
            ExtId::Memmove => "memmove",
            ExtId::Strlen => "strlen",
            ExtId::Strcpy => "strcpy",
            ExtId::Strcmp => "strcmp",
            ExtId::Strchr => "strchr",
            ExtId::Exit => "exit",
            ExtId::Abort => "abort",
        }
    }

    /// Resolve an import-table name.
    pub fn from_name(name: &str) -> Option<ExtId> {
        ExtId::ALL.iter().copied().find(|e| e.name() == name)
    }

    /// Number of *fixed* (named) arguments. `printf` has one fixed argument
    /// plus varargs described by the format string.
    pub fn fixed_args(self) -> usize {
        match self {
            ExtId::Printf => 1,
            ExtId::Putchar => 1,
            ExtId::Puts => 1,
            ExtId::Getchar => 0,
            ExtId::ReadBytes => 2,
            ExtId::Malloc => 1,
            ExtId::Calloc => 2,
            ExtId::Free => 1,
            ExtId::Realloc => 2,
            ExtId::Memcpy => 3,
            ExtId::Memset => 3,
            ExtId::Memmove => 3,
            ExtId::Strlen => 1,
            ExtId::Strcpy => 2,
            ExtId::Strcmp => 2,
            ExtId::Strchr => 2,
            ExtId::Exit => 1,
            ExtId::Abort => 0,
        }
    }

    /// `true` for functions with a variable argument list.
    pub fn is_variadic(self) -> bool {
        matches!(self, ExtId::Printf)
    }
}

impl fmt::Display for ExtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The kind of one `printf`-style conversion argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FmtArg {
    /// `%d` — signed decimal.
    Int,
    /// `%u` — unsigned decimal.
    Uint,
    /// `%x` — lowercase hex.
    Hex,
    /// `%c` — a character.
    Char,
    /// `%s` — a NUL-terminated string pointer.
    Str,
}

/// Parse the conversions of a `printf` format string.
///
/// Supports `%[0][width]{d,u,x,c,s}` and the literal `%%`. This is the same
/// routine WYTIWYG's variadic-call refinement uses to recover exact
/// signatures at call sites (paper §5.2).
pub fn parse_format(fmt: &[u8]) -> Vec<FmtArg> {
    let mut args = Vec::new();
    let mut i = 0;
    while i < fmt.len() {
        if fmt[i] == b'%' {
            i += 1;
            while i < fmt.len() && (fmt[i] == b'0' || fmt[i].is_ascii_digit()) {
                i += 1;
            }
            if i < fmt.len() {
                match fmt[i] {
                    b'd' => args.push(FmtArg::Int),
                    b'u' => args.push(FmtArg::Uint),
                    b'x' => args.push(FmtArg::Hex),
                    b'c' => args.push(FmtArg::Char),
                    b's' => args.push(FmtArg::Str),
                    b'%' => {}
                    _ => {}
                }
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    args
}

/// How many arguments a call to `ext` reads when it executes with its
/// arguments at `[esp]`, `[esp+4]`, ...: the fixed arity, plus one per
/// conversion of the format string at `[esp]` when `ext` is variadic.
/// This is the per-execution signature WYTIWYG's variadic-call
/// refinement keeps the per-site maximum of (paper §5.2).
pub fn call_arity(ext: ExtId, mem: &Memory, esp: u32) -> usize {
    let mut n = ext.fixed_args();
    if ext.is_variadic() {
        n += parse_format(&mem.read_cstr(mem.read_u32(esp))).len();
    }
    n
}

/// I/O and allocator state shared by a program run.
#[derive(Debug, Clone)]
pub struct ExtIo {
    /// Input stream consumed by `getchar`/`read_bytes`.
    pub input: Vec<u8>,
    /// Read cursor into `input`.
    pub input_pos: usize,
    /// Everything the program printed.
    pub output: Vec<u8>,
    /// Bump-allocator frontier for `malloc`.
    pub heap_next: u32,
}

impl ExtIo {
    /// A fresh I/O state with the given input stream.
    pub fn new(input: Vec<u8>) -> ExtIo {
        ExtIo { input, input_pos: 0, output: Vec::new(), heap_next: wyt_isa::image::HEAP_BASE }
    }
}

impl Default for ExtIo {
    fn default() -> ExtIo {
        ExtIo::new(Vec::new())
    }
}

/// Source of call arguments: index 0 is the first argument. The machine
/// emulator reads them from the stack; the IR interpreter supplies explicit
/// values once calls have been refined.
pub trait ArgSource {
    /// The `i`-th 32-bit argument.
    fn arg(&mut self, i: usize) -> u32;
}

impl ArgSource for &[u32] {
    fn arg(&mut self, i: usize) -> u32 {
        // Arguments past the supplied list read as zero: a call site with
        // an under-recovered arity must degrade deterministically (and be
        // caught by behavioral validation), not abort the host process.
        self.get(i).copied().unwrap_or(0)
    }
}

/// Result of dispatching an external call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtOutcome {
    /// Normal return: value and extra cycle cost.
    Ret {
        /// Return value placed in `eax`.
        value: u32,
        /// Cycle cost charged for the call's internal work.
        cost: u64,
    },
    /// The program called `exit(code)`.
    Exit(i32),
    /// The program called `abort()`.
    Abort,
}

fn ret(value: u32, cost: u64) -> ExtOutcome {
    ExtOutcome::Ret { value, cost }
}

fn format_one(out: &mut Vec<u8>, spec: FmtArg, width: usize, zero: bool, v: u32, mem: &Memory) {
    let body = match spec {
        FmtArg::Int => format!("{}", v as i32).into_bytes(),
        FmtArg::Uint => format!("{v}").into_bytes(),
        FmtArg::Hex => format!("{v:x}").into_bytes(),
        FmtArg::Char => vec![v as u8],
        FmtArg::Str => mem.read_cstr(v),
    };
    if body.len() < width {
        let pad = if zero && !matches!(spec, FmtArg::Str | FmtArg::Char) { b'0' } else { b' ' };
        out.extend(std::iter::repeat(pad).take(width - body.len()));
    }
    out.extend_from_slice(&body);
}

fn do_printf(mem: &Memory, io: &mut ExtIo, args: &mut dyn ArgSource) -> (u32, u64) {
    let fmt_ptr = args.arg(0);
    let fmt = mem.read_cstr(fmt_ptr);
    let mut out = Vec::new();
    let mut next_arg = 1usize;
    let mut i = 0;
    while i < fmt.len() {
        if fmt[i] == b'%' {
            i += 1;
            let zero = i < fmt.len() && fmt[i] == b'0';
            if zero {
                i += 1;
            }
            let mut width = 0usize;
            while i < fmt.len() && fmt[i].is_ascii_digit() {
                width = width * 10 + (fmt[i] - b'0') as usize;
                i += 1;
            }
            if i < fmt.len() {
                let spec = match fmt[i] {
                    b'd' => Some(FmtArg::Int),
                    b'u' => Some(FmtArg::Uint),
                    b'x' => Some(FmtArg::Hex),
                    b'c' => Some(FmtArg::Char),
                    b's' => Some(FmtArg::Str),
                    b'%' => {
                        out.push(b'%');
                        None
                    }
                    other => {
                        out.push(b'%');
                        out.push(other);
                        None
                    }
                };
                if let Some(spec) = spec {
                    let v = args.arg(next_arg);
                    next_arg += 1;
                    format_one(&mut out, spec, width, zero, v, mem);
                }
                i += 1;
            }
        } else {
            out.push(fmt[i]);
            i += 1;
        }
    }
    let cost = 4 + out.len() as u64;
    let n = out.len() as u32;
    io.output.extend_from_slice(&out);
    (n, cost)
}

/// Execute the external `ext`.
///
/// Reads arguments from `args`, performs the effect against `mem`/`io`, and
/// returns the outcome. The cycle `cost` in [`ExtOutcome::Ret`] is charged
/// identically whether the caller is a native binary, a lifted program or a
/// recompiled binary.
pub fn dispatch(
    ext: ExtId,
    mem: &mut Memory,
    io: &mut ExtIo,
    args: &mut dyn ArgSource,
) -> ExtOutcome {
    match ext {
        ExtId::Printf => {
            let (n, cost) = do_printf(mem, io, args);
            ret(n, cost)
        }
        ExtId::Putchar => {
            let c = args.arg(0);
            io.output.push(c as u8);
            ret(c, 2)
        }
        ExtId::Puts => {
            let s = mem.read_cstr(args.arg(0));
            let cost = 2 + s.len() as u64;
            io.output.extend_from_slice(&s);
            io.output.push(b'\n');
            ret(0, cost)
        }
        ExtId::Getchar => {
            if io.input_pos < io.input.len() {
                let b = io.input[io.input_pos];
                io.input_pos += 1;
                ret(b as u32, 2)
            } else {
                ret(-1i32 as u32, 2)
            }
        }
        ExtId::ReadBytes => {
            let buf = args.arg(0);
            let n = args.arg(1) as usize;
            let start = io.input_pos.min(io.input.len());
            let take = n.min(io.input.len() - start);
            mem.write_bytes(buf, &io.input[start..start + take]);
            io.input_pos += take;
            ret(take as u32, 2 + (take as u64 / 4))
        }
        ExtId::Malloc => {
            let n = args.arg(0);
            ret(alloc(io, mem, n), 6)
        }
        ExtId::Calloc => {
            let total = args.arg(0).wrapping_mul(args.arg(1));
            // The bump allocator never reuses memory, and fresh pages read
            // as zero, so calloc is just malloc.
            ret(alloc(io, mem, total), 6 + total as u64 / 8)
        }
        ExtId::Free => ret(0, 2),
        ExtId::Realloc => {
            let old = args.arg(0);
            let n = args.arg(1);
            if old == 0 {
                return ret(alloc(io, mem, n), 6);
            }
            // `old_size` comes from guest-writable memory; clamp it like
            // any other hostile length before driving the copy loop.
            let old_size = clamp_len(mem, mem.read_u32(old.wrapping_sub(4)));
            let new = alloc(io, mem, n);
            let copy = old_size.min(n);
            // Buffered like memmove, so a forged header whose ranges
            // overlap still copies the old contents.
            let bytes = mem.read_bytes(old, copy);
            mem.write_bytes(new, &bytes);
            ret(new, 6 + copy as u64 / 4)
        }
        ExtId::Memcpy | ExtId::Memmove => {
            let dst = args.arg(0);
            let src = args.arg(1);
            let n = clamp_len(mem, args.arg(2));
            // Read in full before writing, so overlapping ranges are
            // memmove-safe.
            let bytes = mem.read_bytes(src, n);
            mem.write_bytes(dst, &bytes);
            ret(dst, 2 + n as u64 / 4)
        }
        ExtId::Memset => {
            let dst = args.arg(0);
            let c = args.arg(1) as u8;
            let n = clamp_len(mem, args.arg(2));
            mem.fill(dst, n, c);
            ret(dst, 2 + n as u64 / 4)
        }
        ExtId::Strlen => {
            let s = mem.read_cstr(args.arg(0));
            ret(s.len() as u32, 2 + s.len() as u64 / 4)
        }
        ExtId::Strcpy => {
            let dst = args.arg(0);
            let s = mem.read_cstr(args.arg(1));
            mem.write_bytes(dst, &s);
            mem.write_u8(dst.wrapping_add(s.len() as u32), 0);
            ret(dst, 2 + s.len() as u64 / 4)
        }
        ExtId::Strcmp => {
            let a = mem.read_cstr(args.arg(0));
            let b = mem.read_cstr(args.arg(1));
            let r = match a.cmp(&b) {
                std::cmp::Ordering::Less => -1i32,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            };
            ret(r as u32, 2 + a.len().min(b.len()) as u64 / 4)
        }
        ExtId::Strchr => {
            let p = args.arg(0);
            let c = args.arg(1) as u8;
            let s = mem.read_cstr(p);
            let r = match s.iter().position(|&b| b == c) {
                Some(i) => p.wrapping_add(i as u32),
                None if c == 0 => p.wrapping_add(s.len() as u32),
                None => 0,
            };
            ret(r, 2 + s.len() as u64 / 4)
        }
        ExtId::Exit => ExtOutcome::Exit(args.arg(0) as i32),
        ExtId::Abort => ExtOutcome::Abort,
    }
}

/// Clamp a guest-supplied byte count for a bulk operation. Any length
/// beyond [`Memory::cap_bytes`] is guaranteed to latch the page cap
/// mid-operation (the machine then raises `Trap::MemLimit`), so the
/// tail carries no observable effect — clamping bounds host time and
/// allocation without changing guest-visible behaviour.
fn clamp_len(mem: &Memory, n: u32) -> u32 {
    u32::try_from((n as u64).min(mem.cap_bytes())).unwrap_or(u32::MAX)
}

/// Bump-allocate `n` bytes (8-byte aligned) with a hidden size header, so
/// `realloc` can find the old length. Arithmetic wraps with the 32-bit
/// guest address space — a hostile allocation size must not overflow
/// host arithmetic.
fn alloc(io: &mut ExtIo, mem: &mut Memory, n: u32) -> u32 {
    let header = io.heap_next;
    mem.write_u32(header, n);
    let ptr = header.wrapping_add(4);
    let size = ((n as u64 + 4 + 7) & !7) as u32;
    io.heap_next = header.wrapping_add(size.max(8));
    ptr
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(ext: ExtId, mem: &mut Memory, io: &mut ExtIo, args: &[u32]) -> ExtOutcome {
        let mut a = args;
        dispatch(ext, mem, io, &mut a)
    }

    #[test]
    fn name_roundtrip() {
        for e in ExtId::ALL {
            assert_eq!(ExtId::from_name(e.name()), Some(e));
        }
        assert_eq!(ExtId::from_name("nonsense"), None);
    }

    #[test]
    fn format_parser() {
        assert_eq!(
            parse_format(b"x=%d s=%s %% %04x %c %u"),
            vec![FmtArg::Int, FmtArg::Str, FmtArg::Hex, FmtArg::Char, FmtArg::Uint]
        );
        assert_eq!(parse_format(b"no args"), vec![]);
    }

    #[test]
    fn printf_formats() {
        let mut mem = Memory::new();
        let mut io = ExtIo::default();
        mem.write_bytes(0x1000, b"v=%d h=%04x c=%c s=%s %%\0");
        mem.write_bytes(0x2000, b"str\0");
        let out = call(
            ExtId::Printf,
            &mut mem,
            &mut io,
            &[0x1000, (-5i32) as u32, 0xab, b'Q' as u32, 0x2000],
        );
        assert!(matches!(out, ExtOutcome::Ret { .. }));
        assert_eq!(io.output, b"v=-5 h=00ab c=Q s=str %");
    }

    #[test]
    fn getchar_and_read_bytes() {
        let mut mem = Memory::new();
        let mut io = ExtIo::new(b"abcdef".to_vec());
        assert_eq!(
            call(ExtId::Getchar, &mut mem, &mut io, &[]),
            ExtOutcome::Ret { value: b'a' as u32, cost: 2 }
        );
        let out = call(ExtId::ReadBytes, &mut mem, &mut io, &[0x3000, 10]);
        assert_eq!(out, ExtOutcome::Ret { value: 5, cost: 3 });
        assert_eq!(mem.read_bytes(0x3000, 5), b"bcdef");
        assert_eq!(
            call(ExtId::Getchar, &mut mem, &mut io, &[]),
            ExtOutcome::Ret { value: u32::MAX, cost: 2 }
        );
    }

    #[test]
    fn malloc_realloc_preserves_contents() {
        let mut mem = Memory::new();
        let mut io = ExtIo::default();
        let ExtOutcome::Ret { value: p, .. } = call(ExtId::Malloc, &mut mem, &mut io, &[8]) else {
            panic!()
        };
        assert_eq!(p % 4, 0);
        mem.write_u32(p, 0x1234_5678);
        let ExtOutcome::Ret { value: q, .. } = call(ExtId::Realloc, &mut mem, &mut io, &[p, 64])
        else {
            panic!()
        };
        assert_ne!(p, q);
        assert_eq!(mem.read_u32(q), 0x1234_5678);
    }

    #[test]
    fn realloc_with_a_forged_overlapping_header_copies_like_memmove() {
        let mut mem = Memory::new();
        let mut io = ExtIo::default();
        let ExtOutcome::Ret { value: p, .. } = call(ExtId::Malloc, &mut mem, &mut io, &[8]) else {
            panic!()
        };
        // The guest claims 64 bytes, so the copy's source runs over the
        // new block's header and its destination.
        let pattern: Vec<u8> = (1..=64).collect();
        mem.write_bytes(p, &pattern);
        mem.write_u32(p - 4, 64);
        let ExtOutcome::Ret { value: q, .. } = call(ExtId::Realloc, &mut mem, &mut io, &[p, 64])
        else {
            panic!()
        };
        assert!(p < q && q < p + 64, "the ranges must overlap");
        // The source is read once, after the new header is written into
        // it; a forward byte loop would repeat its first `q - p` bytes.
        let mut expected = pattern;
        let header = (q - 4 - p) as usize;
        expected[header..header + 4].copy_from_slice(&64u32.to_le_bytes());
        assert_eq!(mem.read_bytes(q, 64), expected);
    }

    #[test]
    fn string_functions() {
        let mut mem = Memory::new();
        let mut io = ExtIo::default();
        mem.write_bytes(0x100, b"hello\0");
        assert_eq!(
            call(ExtId::Strlen, &mut mem, &mut io, &[0x100]),
            ExtOutcome::Ret { value: 5, cost: 3 }
        );
        call(ExtId::Strcpy, &mut mem, &mut io, &[0x200, 0x100]);
        assert_eq!(mem.read_cstr(0x200), b"hello");
        let ExtOutcome::Ret { value, .. } = call(ExtId::Strcmp, &mut mem, &mut io, &[0x100, 0x200])
        else {
            panic!()
        };
        assert_eq!(value, 0);
        let ExtOutcome::Ret { value: at, .. } =
            call(ExtId::Strchr, &mut mem, &mut io, &[0x100, b'l' as u32])
        else {
            panic!()
        };
        assert_eq!(at, 0x102);
    }

    #[test]
    fn exit_and_abort() {
        let mut mem = Memory::new();
        let mut io = ExtIo::default();
        assert_eq!(call(ExtId::Exit, &mut mem, &mut io, &[3]), ExtOutcome::Exit(3));
        assert_eq!(call(ExtId::Abort, &mut mem, &mut io, &[]), ExtOutcome::Abort);
    }

    #[test]
    fn memset_and_memcpy() {
        let mut mem = Memory::new();
        let mut io = ExtIo::default();
        call(ExtId::Memset, &mut mem, &mut io, &[0x500, 0xaa, 8]);
        assert_eq!(mem.read_u64(0x500), 0xaaaa_aaaa_aaaa_aaaa);
        call(ExtId::Memcpy, &mut mem, &mut io, &[0x600, 0x500, 8]);
        assert_eq!(mem.read_u64(0x600), 0xaaaa_aaaa_aaaa_aaaa);
    }
}
