//! A sparse table over the 32-bit address space, on one page grid.
//!
//! A guest address splits 10 / 10 / 12: the top ten bits pick one of
//! 1024 directory slots, the next ten one of that slot's 1024 page slots,
//! and the low twelve an entry of a 4096-entry page. Directory slots and
//! pages are allocated on demand, so a lookup is two array indexes and no
//! hashing. [`crate::Memory`] keeps the guest's bytes in a `Pages<u8>`;
//! the refinement hooks keep a shadow word per address in a `Pages<u32>`.

pub(crate) const PAGE_BITS: u32 = 12;
/// Entries per page (bytes, for guest memory).
pub const PAGE_SIZE: u32 = 1 << PAGE_BITS;
const PAGE_MASK: u32 = PAGE_SIZE - 1;
/// Page slots per directory slot (and directory slots per address space).
const SLOTS: usize = 1 << 10;
/// Addresses covered by one directory slot.
const LEAF_SPAN: u64 = (SLOTS as u64) << PAGE_BITS;

/// One page of entries.
pub type Page<T> = [T; PAGE_SIZE as usize];
type Leaf<T> = [Option<Box<Page<T>>>; SLOTS];

/// Directory and page-slot indexes of `addr`.
#[inline]
fn slots(addr: u32) -> (usize, usize) {
    ((addr >> 22) as usize, ((addr >> PAGE_BITS) as usize) & (SLOTS - 1))
}

/// The index of `addr` within its page.
#[inline]
pub fn offset(addr: u32) -> usize {
    (addr & PAGE_MASK) as usize
}

/// A fresh page of default entries.
pub(crate) fn new_page<T: Copy + Default>() -> Box<Page<T>> {
    Box::new([T::default(); PAGE_SIZE as usize])
}

/// A sparse map from 32-bit addresses to `T`; absent entries are
/// `T::default()`.
#[derive(Clone)]
pub struct Pages<T> {
    dir: Box<[Option<Box<Leaf<T>>>; SLOTS]>,
    /// Pages currently allocated in `dir`.
    resident: usize,
}

impl<T: Copy + Default> Default for Pages<T> {
    fn default() -> Pages<T> {
        Pages { dir: Box::new([const { None }; SLOTS]), resident: 0 }
    }
}

impl<T: Copy + Default> Pages<T> {
    /// Number of allocated pages.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// The page holding `addr`, if allocated.
    #[inline]
    pub fn page(&self, addr: u32) -> Option<&Page<T>> {
        let (d, p) = slots(addr);
        self.dir[d].as_ref()?[p].as_deref()
    }

    /// The entry at `addr`, if its page is allocated.
    #[inline]
    pub fn get(&self, addr: u32) -> Option<T> {
        Some(self.page(addr)?[offset(addr)])
    }

    /// The page holding `addr`. An absent page is allocated when `alloc`
    /// is set and is `None` otherwise, so a caller can refuse to grow.
    #[inline]
    pub fn page_mut(&mut self, addr: u32, alloc: bool) -> Option<&mut Page<T>> {
        let (d, p) = slots(addr);
        let Pages { dir, resident } = self;
        let leaf = match &mut dir[d] {
            Some(leaf) => leaf,
            slot if alloc => slot.insert(Box::new([const { None }; SLOTS])),
            _ => return None,
        };
        match &mut leaf[p] {
            Some(page) => Some(page),
            slot if alloc => {
                *resident += 1;
                Some(slot.insert(new_page()))
            }
            _ => None,
        }
    }

    /// Visit the allocated pages' entries for `len` addresses from
    /// `start` (wrapping), in address order, as `(offset from start,
    /// entries)`. Absent pages and directory slots are skipped whole, so
    /// the cost follows what is resident, not `len`.
    pub fn for_each_resident(&mut self, start: u32, len: u32, mut f: impl FnMut(u32, &mut [T])) {
        let (len, mut done) = (len as u64, 0u64);
        while done < len {
            let a = start.wrapping_add(done as u32);
            let (d, p) = slots(a);
            let Some(leaf) = self.dir[d].as_mut() else {
                done += LEAF_SPAN - a as u64 % LEAF_SPAN;
                continue;
            };
            let off = offset(a);
            let n = (len - done).min((PAGE_SIZE as usize - off) as u64) as usize;
            if let Some(page) = leaf[p].as_mut() {
                f(done as u32, &mut page[off..off + n]);
            }
            done += n as u64;
        }
    }
}

/// One page-contained piece of an address range.
pub(crate) struct Chunk {
    /// Addresses of the range before this piece.
    pub(crate) done: usize,
    /// Offset of the piece within its page.
    pub(crate) off: usize,
    /// Length of the piece.
    pub(crate) len: usize,
}

/// Split `len` addresses from `addr` into page-contained pieces, in
/// address order (wrapping past the top of the address space), whether
/// or not their pages are allocated.
pub(crate) fn chunks(addr: u32, len: usize) -> impl Iterator<Item = Chunk> {
    let mut done = 0;
    let mut off = offset(addr);
    std::iter::from_fn(move || {
        if done >= len {
            return None;
        }
        let n = (len - done).min(PAGE_SIZE as usize - off);
        let chunk = Chunk { done, off, len: n };
        done += n;
        off = 0;
        Some(chunk)
    })
}
