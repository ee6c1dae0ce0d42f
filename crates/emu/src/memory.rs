//! The emulated 32-bit address space: guest bytes in a [`Pages`] table.
//!
//! Directory slots and pages are allocated on first write, so an access
//! costs two array indexes and no hashing. A page cap bounds the table: a
//! write that would need a page beyond it latches [`Memory::cap_hit`] and
//! lands in a scratch page that is never read back, so untouched and
//! dropped bytes both read as zero and every access stays infallible.

use crate::pages::{self, chunks, new_page, Page, Pages, PAGE_BITS, PAGE_SIZE};

/// A sparse, zero-initialized 32-bit address space.
///
/// Pages are allocated on first write; untouched memory reads as zero.
/// Both the machine emulator and the IR interpreter execute against this
/// type, so a lifted program literally shares the address-space model of
/// the binary it was lifted from (the paper's Fig. 1 process image).
#[derive(Clone)]
pub struct Memory {
    pages: Pages<u8>,
    /// Maximum resident pages before writes are discarded and
    /// [`Memory::cap_hit`] latches. A hostile program sweeping the 4 GiB
    /// address space would otherwise allocate a page per write.
    page_cap: usize,
    /// Sticky flag: a write needed a new page beyond `page_cap`. The
    /// write went to a scratch page (so every access stays infallible);
    /// the machine checks this each step and raises a typed trap.
    cap_hit: bool,
    /// Overflow scratch page, lazily allocated on the first over-cap
    /// write. Never read back through `pages`.
    scratch: Option<Box<Page<u8>>>,
}

/// Default resident-page ceiling: 64 Ki pages = 256 MiB, far above any
/// legitimate in-tree workload but small enough that a hostile image
/// cannot exhaust host memory.
pub const DEFAULT_PAGE_CAP: usize = 1 << 16;

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            pages: Pages::default(),
            page_cap: DEFAULT_PAGE_CAP,
            cap_hit: false,
            scratch: None,
        }
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("resident", &self.pages.resident())
            .field("page_cap", &self.page_cap)
            .field("cap_hit", &self.cap_hit)
            .finish_non_exhaustive()
    }
}

impl Memory {
    /// An empty (all-zero) address space.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Lower (or raise) the resident-page ceiling. Existing pages stay.
    pub fn set_page_cap(&mut self, pages: usize) {
        self.page_cap = pages;
    }

    /// `true` once a write has been dropped because the address space
    /// exceeded the page cap. Sticky.
    pub fn cap_hit(&self) -> bool {
        self.cap_hit
    }

    /// Number of currently resident (allocated) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.resident()
    }

    /// Whether the page holding `addr` is resident, so a write there
    /// lands whatever the page cap.
    #[inline]
    pub fn is_resident(&self, addr: u32) -> bool {
        self.pages.page(addr).is_some()
    }

    /// Bytes beyond which any bulk operation is guaranteed to blow the
    /// page cap; callers clamp their loops to this to bound time as
    /// well as space.
    pub fn cap_bytes(&self) -> u64 {
        (self.page_cap as u64 + 2) << PAGE_BITS
    }

    /// The page holding `addr`, allocated if absent; the scratch page
    /// (with `cap_hit` latched) if that would exceed the cap.
    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut Page<u8> {
        let Memory { pages, page_cap, cap_hit, scratch } = self;
        let alloc = pages.resident() < *page_cap;
        match pages.page_mut(addr, alloc) {
            Some(page) => page,
            None => over_cap(cap_hit, scratch),
        }
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.pages.get(addr).unwrap_or(0)
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        self.page_mut(addr)[pages::offset(addr)] = v;
    }

    /// Read `N` little-endian bytes: one page probe when they share a
    /// page, byte by byte (wrapping) when they straddle two.
    #[inline]
    fn read_le<const N: usize>(&self, addr: u32) -> [u8; N] {
        let off = pages::offset(addr);
        let mut b = [0u8; N];
        if off + N <= PAGE_SIZE as usize {
            if let Some(p) = self.pages.page(addr) {
                b.copy_from_slice(&p[off..off + N]);
            }
        } else {
            for (i, byte) in b.iter_mut().enumerate() {
                *byte = self.read_u8(addr.wrapping_add(i as u32));
            }
        }
        b
    }

    /// Write `N` little-endian bytes; the page-crossing counterpart of
    /// [`Memory::read_le`] writes byte by byte, so each page is
    /// allocated (or the cap latched) in address order.
    #[inline]
    fn write_le<const N: usize>(&mut self, addr: u32, b: [u8; N]) {
        let off = pages::offset(addr);
        if off + N <= PAGE_SIZE as usize {
            self.page_mut(addr)[off..off + N].copy_from_slice(&b);
        } else {
            for (i, byte) in b.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *byte);
            }
        }
    }

    /// Read a little-endian 16-bit value.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.read_le(addr))
    }

    /// Write a little-endian 16-bit value.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, v: u16) {
        self.write_le(addr, v.to_le_bytes());
    }

    /// Read a little-endian 32-bit value.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.read_le(addr))
    }

    /// Write a little-endian 32-bit value.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        self.write_le(addr, v.to_le_bytes());
    }

    /// Read a little-endian 64-bit value (the `vmov` register width).
    pub fn read_u64(&self, addr: u32) -> u64 {
        (self.read_u32(addr) as u64) | ((self.read_u32(addr.wrapping_add(4)) as u64) << 32)
    }

    /// Write a little-endian 64-bit value.
    pub fn write_u64(&mut self, addr: u32, v: u64) {
        self.write_u32(addr, v as u32);
        self.write_u32(addr.wrapping_add(4), (v >> 32) as u32);
    }

    /// Read a sized value (1, 2 or 4 bytes), zero-extended.
    #[inline]
    pub fn read_sized(&self, addr: u32, size: wyt_isa::Size) -> u32 {
        match size {
            wyt_isa::Size::B => self.read_u8(addr) as u32,
            wyt_isa::Size::W => self.read_u16(addr) as u32,
            wyt_isa::Size::D => self.read_u32(addr),
        }
    }

    /// Write the low `size` bytes of `v`.
    #[inline]
    pub fn write_sized(&mut self, addr: u32, v: u32, size: wyt_isa::Size) {
        match size {
            wyt_isa::Size::B => self.write_u8(addr, v as u8),
            wyt_isa::Size::W => self.write_u16(addr, v as u16),
            wyt_isa::Size::D => self.write_u32(addr, v),
        }
    }

    /// Copy `bytes` into memory starting at `addr` (wrapping), one page
    /// slice at a time.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let mut a = addr;
        for chunk in chunks(addr, bytes.len()) {
            self.page_mut(a)[chunk.off..chunk.off + chunk.len]
                .copy_from_slice(&bytes[chunk.done..chunk.done + chunk.len]);
            a = a.wrapping_add(chunk.len as u32);
        }
    }

    /// Set `len` bytes starting at `addr` (wrapping) to `v`, one page
    /// slice at a time. Every touched page becomes resident, as if each
    /// byte had been written.
    pub fn fill(&mut self, addr: u32, len: u32, v: u8) {
        let mut a = addr;
        for chunk in chunks(addr, len as usize) {
            self.page_mut(a)[chunk.off..chunk.off + chunk.len].fill(v);
            a = a.wrapping_add(chunk.len as u32);
        }
    }

    /// Read `len` bytes starting at `addr` (wrapping).
    pub fn read_bytes(&self, addr: u32, len: u32) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        let mut a = addr;
        for chunk in chunks(addr, len as usize) {
            if let Some(p) = self.pages.page(a) {
                out[chunk.done..chunk.done + chunk.len]
                    .copy_from_slice(&p[chunk.off..chunk.off + chunk.len]);
            }
            a = a.wrapping_add(chunk.len as u32);
        }
        out
    }

    /// Read a NUL-terminated C string (capped at 1 MiB to bound runaway
    /// reads of unterminated data).
    pub fn read_cstr(&self, addr: u32) -> Vec<u8> {
        const CAP: usize = 1 << 20;
        let mut out = Vec::new();
        let mut a = addr;
        for chunk in chunks(addr, CAP) {
            let Some(p) = self.pages.page(a) else { break };
            let bytes = &p[chunk.off..chunk.off + chunk.len];
            match bytes.iter().position(|&b| b == 0) {
                Some(n) => {
                    out.extend_from_slice(&bytes[..n]);
                    break;
                }
                None => out.extend_from_slice(bytes),
            }
            a = a.wrapping_add(chunk.len as u32);
        }
        out
    }
}

/// Absorb a write that would exceed the page cap: latch the flag and hand
/// out the scratch page.
#[cold]
fn over_cap<'a>(cap_hit: &mut bool, scratch: &'a mut Option<Box<Page<u8>>>) -> &'a mut Page<u8> {
    *cap_hit = true;
    scratch.get_or_insert_with(new_page)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};
    use wyt_isa::Size;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xdead_beef), 0);
    }

    #[test]
    fn roundtrip_all_widths() {
        let mut m = Memory::new();
        m.write_u8(10, 0xab);
        m.write_u16(20, 0xbeef);
        m.write_u32(30, 0xdead_beef);
        m.write_u64(40, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u16(20), 0xbeef);
        assert_eq!(m.read_u32(30), 0xdead_beef);
        assert_eq!(m.read_u64(40), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn page_boundary_crossing() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 2;
        m.write_u32(addr, 0x1122_3344);
        assert_eq!(m.read_u32(addr), 0x1122_3344);
        assert_eq!(m.read_u16(addr), 0x3344);
        assert_eq!(m.read_u16(addr + 2), 0x1122);
    }

    #[test]
    fn sized_access_masks() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0xffff_ffff);
        m.write_sized(0x100, 0x12, Size::B);
        assert_eq!(m.read_u32(0x100), 0xffff_ff12);
        assert_eq!(m.read_sized(0x100, Size::W), 0xff12);
    }

    #[test]
    fn page_cap_latches_instead_of_allocating() {
        let mut m = Memory::new();
        m.set_page_cap(2);
        m.write_u8(0, 1);
        m.write_u8(PAGE_SIZE, 2);
        assert!(!m.cap_hit());
        assert_eq!(m.resident_pages(), 2);
        // Third page: the write is absorbed, the flag latches, nothing
        // new is resident.
        m.write_u8(PAGE_SIZE * 2, 3);
        assert!(m.cap_hit());
        assert_eq!(m.resident_pages(), 2);
        // Earlier pages still read back; the dropped write reads zero.
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(PAGE_SIZE * 2), 0);
        // Writes to already-resident pages still land.
        m.write_u8(1, 9);
        assert_eq!(m.read_u8(1), 9);
    }

    /// splitmix64: a deterministic stream for the differential tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u32 {
            (self.next() % n) as u32
        }
    }

    /// Addresses clustered on the edges: a page boundary, a
    /// directory-slot boundary, the top of the address space (where
    /// multi-byte accesses wrap to 0) and a few far-apart pages.
    fn addr(rng: &mut Rng) -> u32 {
        let bases = [PAGE_SIZE - 2, 0x0040_0000 - 2, 0xffff_fffe, 0x0800_0000, 0x1234_5000];
        bases[rng.below(bases.len() as u64) as usize].wrapping_add(rng.below(12)).wrapping_sub(6)
    }

    /// A byte-granular model of the address space.
    #[derive(Default)]
    struct Bytes(BTreeMap<u32, u8>);

    impl Bytes {
        fn write(&mut self, addr: u32, bytes: &[u8]) {
            for (i, &b) in bytes.iter().enumerate() {
                self.0.insert(addr.wrapping_add(i as u32), b);
            }
        }

        fn read(&self, addr: u32, len: u32) -> Vec<u8> {
            (0..len).map(|i| self.0.get(&addr.wrapping_add(i)).copied().unwrap_or(0)).collect()
        }
    }

    /// One random operation applied to both `m` and the model `r`.
    fn step(rng: &mut Rng, m: &mut Memory, r: &mut Bytes) {
        let a = addr(rng);
        let v = rng.next();
        match rng.below(10) {
            0 => {
                m.write_u8(a, v as u8);
                r.write(a, &[v as u8]);
            }
            1 => {
                m.write_u16(a, v as u16);
                r.write(a, &(v as u16).to_le_bytes());
            }
            2 => {
                m.write_u32(a, v as u32);
                r.write(a, &(v as u32).to_le_bytes());
            }
            3 => {
                m.write_u64(a, v);
                r.write(a, &v.to_le_bytes());
            }
            4 => {
                let bytes: Vec<u8> = (0..rng.below(20)).map(|i| (v >> (i % 8)) as u8 | 1).collect();
                m.write_bytes(a, &bytes);
                r.write(a, &bytes);
            }
            5 => {
                let len = rng.below(20);
                m.fill(a, len, v as u8);
                r.write(a, &vec![v as u8; len as usize]);
            }
            6 => assert_eq!(m.read_u16(a).to_le_bytes().to_vec(), r.read(a, 2), "u16 {a:#x}"),
            7 => assert_eq!(m.read_u32(a).to_le_bytes().to_vec(), r.read(a, 4), "u32 {a:#x}"),
            8 => assert_eq!(m.read_u64(a).to_le_bytes().to_vec(), r.read(a, 8), "u64 {a:#x}"),
            _ => {
                let len = rng.below(24);
                assert_eq!(m.read_bytes(a, len), r.read(a, len), "bytes {a:#x}+{len}");
                let nul = (0..).position(|i| r.read(a.wrapping_add(i), 1)[0] == 0).unwrap_or(0);
                assert_eq!(m.read_cstr(a), r.read(a, nul as u32), "cstr {a:#x}");
            }
        }
    }

    #[test]
    fn matches_a_byte_map_reference() {
        let mut rng = Rng(0x5eed_0002);
        let (mut m, mut r) = (Memory::new(), Bytes::default());
        for _ in 0..20_000 {
            step(&mut rng, &mut m, &mut r);
        }
        for (&a, &b) in &r.0 {
            assert_eq!(m.read_u8(a), b, "byte {a:#x}");
        }
    }

    #[test]
    fn wraps_at_the_top_of_the_address_space() {
        let mut m = Memory::new();
        m.write_u64(0xffff_fffe, 0x0807_0605_0403_0201);
        assert_eq!(m.read_u16(0xffff_ffff), 0x0302);
        assert_eq!(m.read_u32(0), 0x0605_0403);
        assert_eq!(m.read_bytes(0xffff_fffe, 4), [1, 2, 3, 4]);
        assert_eq!(m.resident_pages(), 2);
    }

    /// The hash-map-backed address space the page table replaced: one
    /// map probe per page, allocation and capping byte by byte.
    struct HashPaged {
        pages: HashMap<u32, Box<[u8; PAGE_SIZE as usize]>>,
        page_cap: usize,
        cap_hit: bool,
    }

    impl HashPaged {
        fn write(&mut self, addr: u32, bytes: &[u8]) {
            for (i, &b) in bytes.iter().enumerate() {
                let a = addr.wrapping_add(i as u32);
                let key = a >> PAGE_BITS;
                if !self.pages.contains_key(&key) && self.pages.len() >= self.page_cap {
                    self.cap_hit = true;
                    continue;
                }
                let page = self.pages.entry(key).or_insert_with(|| Box::new([0; 4096]));
                page[pages::offset(a)] = b;
            }
        }

        fn read_u8(&self, a: u32) -> u8 {
            self.pages.get(&(a >> PAGE_BITS)).map_or(0, |p| p[pages::offset(a)])
        }
    }

    #[test]
    fn page_cap_latches_like_the_hash_map_it_replaced() {
        for seed in 0..8 {
            let mut rng = Rng(0xcafe + seed);
            let cap = 1 + rng.below(6) as usize;
            let mut m = Memory::new();
            m.set_page_cap(cap);
            let mut old = HashPaged { pages: HashMap::new(), page_cap: cap, cap_hit: false };
            for _ in 0..400 {
                let a = addr(&mut rng);
                let v = rng.next();
                let bytes = match rng.below(4) {
                    0 => {
                        m.write_u32(a, v as u32);
                        (v as u32).to_le_bytes().to_vec()
                    }
                    1 => {
                        m.write_u64(a, v);
                        v.to_le_bytes().to_vec()
                    }
                    2 => {
                        let bytes = v.to_le_bytes()[..rng.below(9) as usize].to_vec();
                        m.write_bytes(a, &bytes);
                        bytes
                    }
                    _ => {
                        m.fill(a, 7, v as u8);
                        vec![v as u8; 7]
                    }
                };
                old.write(a, &bytes);
                assert_eq!(m.resident_pages(), old.pages.len(), "seed {seed}");
                assert_eq!(m.cap_hit(), old.cap_hit, "seed {seed}");
                for i in 0..8 {
                    let at = a.wrapping_add(i);
                    assert_eq!(m.read_u8(at), old.read_u8(at), "seed {seed} byte {at:#x}");
                }
            }
            assert!(m.cap_hit(), "seed {seed}: the op mix must reach the cap");
        }
    }

    #[test]
    fn clones_are_independent() {
        let mut a = Memory::new();
        a.write_u32(0x1000, 1);
        let mut b = a.clone();
        b.write_u32(0x1000, 2);
        b.write_u32(0x9000, 3);
        a.write_u32(0x2000, 4);
        assert_eq!((a.read_u32(0x1000), a.read_u32(0x9000), a.resident_pages()), (1, 0, 2));
        assert_eq!((b.read_u32(0x1000), b.read_u32(0x2000), b.resident_pages()), (2, 0, 2));
    }

    #[test]
    fn cstr_reads_until_nul() {
        let mut m = Memory::new();
        m.write_bytes(0x200, b"hello\0world");
        assert_eq!(m.read_cstr(0x200), b"hello");
        assert_eq!(m.read_cstr(0x206), b"world");
    }
}
