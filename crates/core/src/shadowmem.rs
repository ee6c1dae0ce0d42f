//! Paged shadow memory: the refinement hooks' address → [`Shadow`] map.
//!
//! Both the saved-register analysis (§4.1, spilled register tokens) and
//! the bounds runtime (§4.2, pointers that round-trip through memory)
//! attach a shadow to 32-bit words in guest memory, and both keep them
//! in one `ShadowMem`. It holds the shadows keyed at the lifter's
//! virtual register cells, which lifted code touches on nearly every
//! step, in an array that the hooks' cell events reach with one index
//! ([`ShadowMem::cell`], [`ShadowMem::store_cell`]). Every other key
//! lives in a [`Pages`] table on the same grid as [`wyt_emu::Memory`], so
//! a lookup is two array indexes. A page entry holds `shadow + 1`; 0
//! means "none", so a fresh page is all-absent.
//!
//! A generic effect whose keys reach the cell words, or the three bytes
//! below them that a store to the first cell invalidates, runs on the
//! table with the cells spilled into it, and takes them back out after.
//! So the map answers every key as one table would.

use crate::regsave::{cell_of_addr, NUM_CELLS};
use wyt_emu::{pages, Pages, PAGE_SIZE};
use wyt_ir::interp::Shadow;
use wyt_lifter::VCPU_BASE;

/// The keys a generic effect must spill the cells for: the cell words,
/// and the three bytes below them that a store to the first cell
/// invalidates.
const CELL_ZONE: (u64, u64) = (VCPU_BASE as u64 - 3, VCPU_BASE as u64 + 4 * NUM_CELLS as u64);

/// Whether the `len` keys from `addr` (wrapping) may reach [`CELL_ZONE`].
#[inline]
fn near_cells(addr: u32, len: u64) -> bool {
    let end = addr as u64 + len;
    end > 1 << 32 || (end > CELL_ZONE.0 && (addr as u64) < CELL_ZONE.1)
}

/// The word of register cell `cell`.
fn cell_addr(cell: usize) -> u32 {
    VCPU_BASE + 4 * cell as u32
}

/// A sparse map from guest byte addresses to shadows.
#[derive(Default)]
pub struct ShadowMem {
    /// Every key but the cell words.
    pages: Pages<u32>,
    /// The shadow keyed at each cell word (see [`cell_of_addr`]).
    cells: [Option<Shadow>; NUM_CELLS],
    /// A generic effect reached the cells, so `pages` may hold a key that
    /// a cell store invalidates.
    stray: bool,
}

impl ShadowMem {
    /// An empty map.
    pub fn new() -> ShadowMem {
        ShadowMem::default()
    }

    /// The shadow stored at `addr`, if any.
    #[inline]
    pub fn get(&self, addr: u32) -> Option<Shadow> {
        match cell_of_addr(addr) {
            Some(cell) => self.cells[cell],
            None => self.pages.get(addr)?.checked_sub(1),
        }
    }

    /// The shadow stored at register cell `cell`'s word.
    #[inline]
    pub fn cell(&self, cell: usize) -> Option<Shadow> {
        self.cells[cell]
    }

    /// A guest store of `size` bytes at `addr`: forget every shadow whose
    /// word overlaps it (see [`ShadowMem::invalidate_range`]), then attach
    /// `s`, if given, to `addr`.
    #[inline]
    pub fn store(&mut self, addr: u32, size: u32, s: Option<Shadow>) {
        if near_cells(addr.saturating_sub(3), size as u64 + 3) {
            self.spilled(|m| m.store_paged(addr, size, s));
        } else {
            self.store_paged(addr, size, s);
        }
    }

    /// A 4-byte store to register cell `cell`: what [`ShadowMem::store`]
    /// does at its word.
    #[inline]
    pub fn store_cell(&mut self, cell: usize, s: Option<Shadow>) {
        if self.stray {
            self.clear_stray(cell);
        }
        self.cells[cell] = s;
    }

    /// The keys a store to `cell` invalidates in the page table, which
    /// only a generic effect that reached the cells can have set. Out of
    /// line, so the hooks' inlined cell store stays small.
    #[cold]
    #[inline(never)]
    fn clear_stray(&mut self, cell: usize) {
        self.invalidate_paged(cell_addr(cell), 4);
    }

    /// Forget every shadow whose 4-byte word overlaps `[addr, addr +
    /// size)`: the keys `addr.saturating_sub(3)..addr.wrapping_add(size)`.
    /// A range that wraps past the top of the address space is empty.
    pub fn invalidate_range(&mut self, addr: u32, size: u32) {
        if near_cells(addr.saturating_sub(3), size as u64 + 3) {
            self.spilled(|m| m.invalidate_paged(addr, size));
        } else {
            self.invalidate_paged(addr, size);
        }
    }

    /// Move the shadows of `[src, src + len)` to `[dst, dst + len)`
    /// (both wrapping), as `memcpy` moves the bytes: the source is read
    /// in full before the destination is invalidated and written. Only
    /// resident shadow pages are walked, however large `len` is.
    pub fn copy(&mut self, dst: u32, src: u32, len: u32) {
        if near_cells(src, len as u64) || near_cells(dst.saturating_sub(3), len as u64 + 3) {
            self.spilled(|m| m.copy_paged(dst, src, len));
        } else {
            self.copy_paged(dst, src, len);
        }
    }

    /// Run `effect` on the page table with the cells spilled into it.
    #[cold]
    fn spilled(&mut self, effect: impl FnOnce(&mut ShadowMem)) {
        for cell in 0..NUM_CELLS {
            if let Some(s) = self.cells[cell] {
                self.insert(cell_addr(cell), s);
            }
        }
        effect(self);
        for cell in 0..NUM_CELLS {
            self.cells[cell] = self.take(cell_addr(cell));
        }
        self.stray = true;
    }

    // The page table alone: the cell words are the caller's concern.

    fn insert(&mut self, addr: u32, s: Shadow) {
        // Shadows index the hooks' own tables, which never reach 2^32
        // entries, so `s + 1` cannot wrap to the "none" encoding.
        debug_assert!(s != Shadow::MAX);
        self.set(addr, s.wrapping_add(1));
    }

    fn take(&mut self, addr: u32) -> Option<Shadow> {
        let page = self.pages.page_mut(addr, false)?;
        std::mem::take(&mut page[pages::offset(addr)]).checked_sub(1)
    }

    fn set(&mut self, addr: u32, v: u32) {
        if let Some(page) = self.pages.page_mut(addr, true) {
            page[pages::offset(addr)] = v;
        }
    }

    fn invalidate_paged(&mut self, addr: u32, size: u32) {
        let (lo, hi) = (addr.saturating_sub(3), addr.wrapping_add(size));
        if hi > lo {
            self.pages.for_each_resident(lo, hi - lo, |_, entries| entries.fill(0));
        }
    }

    /// When the invalidated keys lie in `addr`'s page, as they do for any
    /// word not at a page's edge, one page probe.
    #[inline]
    fn store_paged(&mut self, addr: u32, size: u32, s: Option<Shadow>) {
        let off = pages::offset(addr);
        // `addr - 3 .. addr + size` within the page; `<` keeps `addr +
        // size` from wrapping past the top of the address space.
        if off < 3 || off + size as usize >= PAGE_SIZE as usize {
            self.invalidate_paged(addr, size);
            if let Some(s) = s {
                self.insert(addr, s);
            }
            return;
        }
        debug_assert!(s != Some(Shadow::MAX));
        if let Some(page) = self.pages.page_mut(addr, s.is_some()) {
            page[off - 3..off + size as usize].fill(0);
            if let Some(s) = s {
                page[off] = s.wrapping_add(1);
            }
        }
    }

    fn copy_paged(&mut self, dst: u32, src: u32, len: u32) {
        let mut moved = Vec::new();
        self.pages.for_each_resident(src, len, |k, entries| {
            for (i, &v) in entries.iter().enumerate() {
                if v != 0 {
                    moved.push((k.wrapping_add(i as u32), v));
                }
            }
        });
        self.invalidate_paged(dst, len);
        for (k, v) in moved {
            self.set(dst.wrapping_add(k), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The map `ShadowMem` replaced, with its exact key arithmetic.
    #[derive(Default)]
    struct Reference(HashMap<u32, Shadow>);

    impl Reference {
        fn invalidate_range(&mut self, addr: u32, size: u32) {
            for k in addr.saturating_sub(3)..addr.wrapping_add(size) {
                self.0.remove(&k);
            }
        }

        fn store(&mut self, addr: u32, size: u32, s: Option<Shadow>) {
            self.invalidate_range(addr, size);
            if let Some(s) = s {
                self.0.insert(addr, s);
            }
        }

        fn copy(&mut self, d: u32, s: u32, sz: u32) {
            let entries: Vec<(u32, Shadow)> =
                (0..sz).filter_map(|k| self.0.get(&s.wrapping_add(k)).map(|sh| (k, *sh))).collect();
            self.invalidate_range(d, sz);
            for (k, sh) in entries {
                self.0.insert(d.wrapping_add(k), sh);
            }
        }
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

        fn shadow(&mut self) -> Option<Shadow> {
            (self.below(3) != 0).then(|| self.below(1000))
        }
    }

    /// Addresses clustered where the key arithmetic has edges: near 0
    /// (saturating), near `u32::MAX` (wrapping), across a page and a
    /// directory-slot boundary, and over the register cells and the bytes
    /// around them.
    const BASES: [u32; 6] = [0, 0x1000, 0x40_0000, VCPU_BASE, VCPU_BASE + 20, u32::MAX - 15];

    fn addr(rng: &mut Rng) -> u32 {
        BASES[rng.below(BASES.len() as u64) as usize].wrapping_add(rng.below(24)).wrapping_sub(4)
    }

    /// Page-edge and top-of-memory offsets, where the one-probe store
    /// path must give way to the general one.
    const EDGES: [u32; 4] = [0, 0xff8, 0xffc, 0xffd];

    /// A store to a random register cell, on both maps.
    fn store_cell(shadow: &mut ShadowMem, reference: &mut Reference, rng: &mut Rng) {
        let (cell, s) = (rng.below(NUM_CELLS as u64) as usize, rng.shadow());
        shadow.store_cell(cell, s);
        reference.store(cell_addr(cell), 4, s);
    }

    /// Every key the streams can set, and the reference's.
    fn assert_same(shadow: &ShadowMem, reference: &Reference) {
        for (&k, &v) in &reference.0 {
            assert_eq!(shadow.get(k), Some(v), "key {k:#x}");
        }
        for (base, edge) in BASES.into_iter().flat_map(|b| EDGES.map(|e| (b, e))) {
            for a in (0..24).map(|k| base.wrapping_add(edge + k).wrapping_sub(4)) {
                assert_eq!(shadow.get(a), reference.0.get(&a).copied(), "key {a:#x}");
            }
        }
        for cell in 0..NUM_CELLS {
            assert_eq!(shadow.cell(cell), reference.0.get(&cell_addr(cell)).copied());
        }
    }

    #[test]
    fn matches_the_hash_map_it_replaced() {
        // Short streams from an empty map, so each one checks the cells
        // both before and after its first spill.
        let mut rng = Rng(0x5eed_0001);
        let mut spilled = 0;
        for _ in 0..400 {
            let mut shadow = ShadowMem::new();
            let mut reference = Reference::default();
            for _ in 0..10 {
                let a = addr(&mut rng);
                match rng.below(5) {
                    0 => store_cell(&mut shadow, &mut reference, &mut rng),
                    1 => {
                        let (size, s) = ([1, 2, 4][rng.below(3) as usize], rng.shadow());
                        shadow.store(a, size, s);
                        reference.store(a, size, s);
                    }
                    2 => {
                        let size = [1, 2, 4, 9, 64][rng.below(5) as usize];
                        shadow.invalidate_range(a, size);
                        reference.invalidate_range(a, size);
                    }
                    _ => {
                        let (src, len) = (addr(&mut rng), rng.below(48));
                        shadow.copy(a, src, len);
                        reference.copy(a, src, len);
                    }
                }
                assert_same(&shadow, &reference);
            }
            spilled += shadow.stray as u32;
        }
        assert!(spilled > 0, "the streams reached the spill path");
    }

    #[test]
    fn store_is_invalidate_then_insert() {
        let mut rng = Rng(0x5eed_0002);
        let mut shadow = ShadowMem::new();
        let mut reference = Reference::default();
        for step in 0..4000 {
            if rng.below(4) == 0 {
                store_cell(&mut shadow, &mut reference, &mut rng);
                continue;
            }
            let a = addr(&mut rng).wrapping_add(EDGES[rng.below(4) as usize]);
            let (size, s) = ([1, 2, 4][rng.below(3) as usize], rng.shadow());
            shadow.store(a, size, s);
            reference.store(a, size, s);
            if step % 200 == 0 {
                assert_same(&shadow, &reference);
            }
        }
        assert_same(&shadow, &reference);
        assert!(shadow.stray, "the stream reached the spill path");
    }

    #[test]
    fn a_cell_store_clears_the_bytes_below_it_before_any_spill() {
        // A store into the three bytes below the first cell sets a key
        // that a store to that cell invalidates, so it is a spill too.
        for (below, size) in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)] {
            let mut shadow = ShadowMem::new();
            shadow.store(VCPU_BASE - below, size, Some(7));
            shadow.store_cell(0, Some(8));
            assert_eq!(shadow.get(VCPU_BASE - below), None, "{below} below, {size} bytes");
        }
    }

    #[test]
    fn invalidation_saturates_at_zero_and_is_empty_when_it_wraps() {
        let mut shadow = ShadowMem::new();
        for k in [0, 1, 2, 3, u32::MAX - 3, u32::MAX - 1, u32::MAX] {
            shadow.insert(k, 7);
        }
        // Near 0 the three leading keys saturate: 1..3 clears 0, 1 and 2.
        shadow.invalidate_range(1, 2);
        assert_eq!([0, 1, 2, 3].map(|k| shadow.get(k)), [None, None, None, Some(7)]);
        // `addr + size` wraps past the top, so the key range is empty and
        // nothing is cleared — not even `addr` itself.
        shadow.invalidate_range(u32::MAX - 1, 4);
        assert_eq!(shadow.get(u32::MAX - 3), Some(7));
        assert_eq!(shadow.get(u32::MAX - 1), Some(7));
        assert_eq!(shadow.get(u32::MAX), Some(7));
        // Ending exactly at the top does not wrap: `addr - 3..u32::MAX`.
        shadow.invalidate_range(u32::MAX - 1, 1);
        assert_eq!(shadow.get(u32::MAX - 3), None);
        assert_eq!(shadow.get(u32::MAX - 1), None);
        assert_eq!(shadow.get(u32::MAX), Some(7));
    }

    #[test]
    fn bulk_effects_walk_only_resident_pages() {
        // A guest-sized clear and copy over the whole address space: with
        // the byte-by-byte walk these were 2^32 probes each.
        let mut shadow = ShadowMem::new();
        shadow.insert(0x10, 1);
        shadow.insert(0x8000_0000, 2);
        shadow.store_cell(3, Some(3));
        shadow.copy(0x100, 0x8000_0000, u32::MAX);
        assert_eq!(shadow.get(0x100), Some(2));
        // A cell's shadow is copied like any other.
        let from_cell = cell_addr(3).wrapping_sub(0x8000_0000);
        assert_eq!(shadow.get(0x100u32.wrapping_add(from_cell)), Some(3));
        // Copying from a wrapped source lands at the wrapped offset too.
        shadow.copy(0x9000_0000, 0xffff_fff0, 0x21);
        assert_eq!(shadow.get(0x9000_0020), Some(1));
        shadow.invalidate_range(0, u32::MAX);
        assert_eq!(shadow.get(0x10), None);
        assert_eq!(shadow.get(0x100), None);
        assert_eq!(shadow.get(0x9000_0020), None);
    }
}
