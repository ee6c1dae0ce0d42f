//! Paged shadow memory: the refinement hooks' address → [`Shadow`] map.
//!
//! Both the saved-register analysis (§4.1, spilled register tokens) and
//! the bounds runtime (§4.2, pointers that round-trip through memory)
//! attach a shadow to 32-bit words in guest memory. `ShadowMem` keeps
//! them in a [`Pages`] table on the same grid as [`wyt_emu::Memory`], so
//! a lookup is two array indexes. The page of the virtual register cells,
//! which lifted code touches on nearly every step, is kept outside the
//! table, always resident. An entry holds `shadow + 1`; 0 means "none",
//! so a fresh page is all-absent.

use wyt_emu::pages::Page;
use wyt_emu::{pages, Pages, PAGE_SIZE};
use wyt_ir::interp::Shadow;
use wyt_lifter::VCPU_BASE;

/// First address of the page holding the lifter's virtual register
/// cells. Nearly every lifted instruction reads or writes a cell, so this
/// page is kept out of the table: a probe is a compare and one index.
const HOT: u32 = VCPU_BASE & !(PAGE_SIZE - 1);

/// A sparse map from guest byte addresses to shadows.
pub struct ShadowMem {
    /// Every page but the [`HOT`] one.
    pages: Pages<u32>,
    /// The [`HOT`] page, always resident.
    hot: Box<Page<u32>>,
}

impl Default for ShadowMem {
    fn default() -> ShadowMem {
        ShadowMem { pages: Pages::default(), hot: Box::new([0; PAGE_SIZE as usize]) }
    }
}

/// `addr`'s index in the [`HOT`] page, if it lies there.
#[inline]
fn hot_offset(addr: u32) -> Option<usize> {
    (addr & !(PAGE_SIZE - 1) == HOT).then(|| pages::offset(addr))
}

impl ShadowMem {
    /// An empty map.
    pub fn new() -> ShadowMem {
        ShadowMem::default()
    }

    /// The shadow stored at `addr`, if any.
    #[inline]
    pub fn get(&self, addr: u32) -> Option<Shadow> {
        match hot_offset(addr) {
            Some(off) => self.hot[off],
            None => self.pages.get(addr)?,
        }
        .checked_sub(1)
    }

    /// Attach `s` to `addr`, replacing any previous shadow.
    #[inline]
    pub fn insert(&mut self, addr: u32, s: Shadow) {
        // Shadows index the hooks' own tables, which never reach 2^32
        // entries, so `s + 1` cannot wrap to the "none" encoding.
        debug_assert!(s != Shadow::MAX);
        self.set(addr, s.wrapping_add(1));
    }

    fn set(&mut self, addr: u32, v: u32) {
        if let Some(page) = self.page_mut(addr, true) {
            page[pages::offset(addr)] = v;
        }
    }

    /// The page holding `addr`; an absent one is allocated if `alloc`.
    #[inline]
    fn page_mut(&mut self, addr: u32, alloc: bool) -> Option<&mut Page<u32>> {
        match hot_offset(addr) {
            Some(_) => Some(&mut self.hot),
            None => self.pages.page_mut(addr, alloc),
        }
    }

    /// Forget every shadow whose 4-byte word overlaps `[addr, addr +
    /// size)`: the keys `addr.saturating_sub(3)..addr.wrapping_add(size)`.
    /// A range that wraps past the top of the address space is empty.
    pub fn invalidate_range(&mut self, addr: u32, size: u32) {
        let (lo, hi) = (addr.saturating_sub(3), addr.wrapping_add(size));
        if hi > lo {
            self.pages.for_each_resident(lo, hi - lo, |_, entries| entries.fill(0));
            let (lo, hi) = (lo.max(HOT), (hi as u64).min(HOT as u64 + PAGE_SIZE as u64) as u32);
            if hi > lo {
                self.hot[(lo - HOT) as usize..(hi - HOT) as usize].fill(0);
            }
        }
    }

    /// A guest store of `size` bytes at `addr`: [`ShadowMem::invalidate_range`],
    /// then attach `s`, if given, to `addr`. When the invalidated keys
    /// lie in `addr`'s page, as they do for any word not at a page's
    /// edge, that is one page probe.
    #[inline]
    pub fn store(&mut self, addr: u32, size: u32, s: Option<Shadow>) {
        let off = pages::offset(addr);
        // `addr - 3 .. addr + size` within the page; `<` keeps `addr +
        // size` from wrapping past the top of the address space.
        if off < 3 || off + size as usize >= PAGE_SIZE as usize {
            self.invalidate_range(addr, size);
            if let Some(s) = s {
                self.insert(addr, s);
            }
            return;
        }
        debug_assert!(s != Some(Shadow::MAX));
        if let Some(page) = self.page_mut(addr, s.is_some()) {
            page[off - 3..off + size as usize].fill(0);
            if let Some(s) = s {
                page[off] = s.wrapping_add(1);
            }
        }
    }

    /// Move the shadows of `[src, src + len)` to `[dst, dst + len)`
    /// (both wrapping), as `memcpy` moves the bytes: the source is read
    /// in full before the destination is invalidated and written. Only
    /// resident shadow pages are walked, however large `len` is.
    pub fn copy(&mut self, dst: u32, src: u32, len: u32) {
        let mut moved = Vec::new();
        self.pages.for_each_resident(src, len, |k, entries| {
            for (i, &v) in entries.iter().enumerate() {
                if v != 0 {
                    moved.push((k.wrapping_add(i as u32), v));
                }
            }
        });
        for (i, &v) in self.hot.iter().enumerate() {
            let k = (HOT + i as u32).wrapping_sub(src);
            if v != 0 && k < len {
                moved.push((k, v));
            }
        }
        self.invalidate_range(dst, len);
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
    }

    /// Addresses clustered where the key arithmetic has edges: near 0
    /// (saturating), near `u32::MAX` (wrapping), and across a page and a
    /// directory-slot boundary.
    fn addr(rng: &mut Rng) -> u32 {
        let bases = [0u32, 0x1000, 0x40_0000, HOT, HOT + PAGE_SIZE, u32::MAX - 15];
        bases[rng.below(bases.len() as u64) as usize].wrapping_add(rng.below(24)).wrapping_sub(4)
    }

    fn assert_same(shadow: &ShadowMem, reference: &Reference, rng: &mut Rng) {
        for (&k, &v) in &reference.0 {
            assert_eq!(shadow.get(k), Some(v), "key {k:#x}");
        }
        for _ in 0..64 {
            let a = addr(rng);
            assert_eq!(shadow.get(a), reference.0.get(&a).copied(), "key {a:#x}");
        }
    }

    #[test]
    fn matches_the_hash_map_it_replaced() {
        let mut rng = Rng(0x5eed_0001);
        let mut shadow = ShadowMem::new();
        let mut reference = Reference::default();
        for step in 0..4000 {
            let a = addr(&mut rng);
            match rng.below(4) {
                0 | 1 => {
                    let s = rng.below(1000);
                    shadow.insert(a, s);
                    reference.0.insert(a, s);
                }
                2 => {
                    let size = [1, 2, 4, 9][rng.below(4) as usize];
                    shadow.invalidate_range(a, size);
                    reference.invalidate_range(a, size);
                }
                _ => {
                    let (src, len) = (addr(&mut rng), rng.below(40));
                    shadow.copy(a, src, len);
                    reference.copy(a, src, len);
                }
            }
            if step % 200 == 0 {
                assert_same(&shadow, &reference, &mut rng);
            }
        }
        assert_same(&shadow, &reference, &mut rng);
    }

    #[test]
    fn store_is_invalidate_then_insert() {
        let mut rng = Rng(0x5eed_0002);
        let mut shadow = ShadowMem::new();
        let mut reference = Reference::default();
        for step in 0..4000 {
            // Page-edge and top-of-memory offsets, where the one-probe
            // path must give way to the general one.
            let a = addr(&mut rng).wrapping_add([0, 0xff8, 0xffc, 0xffd][rng.below(4) as usize]);
            let size = [1, 2, 4][rng.below(3) as usize];
            let s = (rng.below(3) != 0).then(|| rng.below(1000));
            shadow.store(a, size, s);
            reference.invalidate_range(a, size);
            if let Some(s) = s {
                reference.0.insert(a, s);
            }
            if step % 200 == 0 {
                assert_same(&shadow, &reference, &mut rng);
            }
        }
        assert_same(&shadow, &reference, &mut rng);
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
        shadow.copy(0x100, 0x8000_0000, u32::MAX);
        assert_eq!(shadow.get(0x100), Some(2));
        // Copying from a wrapped source lands at the wrapped offset too.
        shadow.copy(0x9000_0000, 0xffff_fff0, 0x21);
        assert_eq!(shadow.get(0x9000_0020), Some(1));
        shadow.invalidate_range(0, u32::MAX);
        assert_eq!(shadow.get(0x10), None);
        assert_eq!(shadow.get(0x100), None);
        assert_eq!(shadow.get(0x9000_0020), None);
    }
}
