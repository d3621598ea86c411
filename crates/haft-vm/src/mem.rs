//! Flat simulated memory with bounds checking.

use haft_ir::module::{GlobalInit, Module};

/// A run-time fault the "operating system" would catch (paper Table 1:
/// *OS-detected*).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trap {
    /// Access outside the mapped region.
    OutOfBounds { addr: u64, len: u64 },
    /// Integer division or remainder by zero.
    DivByZero,
    /// Indirect call through a value that is not a function address.
    BadIndirectCall { target: u64 },
    /// Call-stack depth exceeded the limit.
    StackOverflow,
    /// Heap exhausted.
    OutOfMemory,
    /// Executed a phi outside the normal branch protocol (malformed IR).
    MalformedIr,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::OutOfBounds { addr, len } => {
                write!(f, "out-of-bounds access at {addr:#x} len {len}")
            }
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::BadIndirectCall { target } => {
                write!(f, "indirect call to non-function {target:#x}")
            }
            Trap::StackOverflow => write!(f, "call stack overflow"),
            Trap::OutOfMemory => write!(f, "heap exhausted"),
            Trap::MalformedIr => write!(f, "malformed IR"),
        }
    }
}

/// Byte-addressable flat memory holding globals and the bump heap.
///
/// Address 0 is never mapped so that null-pointer dereferences trap, the
/// way they would under an MMU. Globals are laid out from address 64 with
/// 64-byte alignment, so distinct globals never share a cache line; any
/// sharing a workload exhibits is therefore deliberate.
#[derive(Clone, Debug)]
pub struct Memory {
    /// Physical backing: grows on demand up to `size`. Untouched memory
    /// reads as zero either way, so laziness is unobservable; it exists
    /// because zeroing the full address space on every `Vm::run` costs
    /// more than short workloads themselves.
    bytes: Vec<u8>,
    /// One flag per [`PAGE`] of `bytes`, set by every store into the page
    /// (a plain store, no read-modify-write on the store path): the pages
    /// written since [`Memory::new`], which a clone inherits. So an arena
    /// cloned from an image differs from it only in pages flagged here,
    /// and a checkpoint copies those ([`Memory::diff_from`]).
    written: Vec<bool>,
    /// Logical size: the bounds-check limit.
    size: u64,
    heap_next: u64,
    /// Base address of each global, indexed by `GlobalId`.
    pub global_bases: Vec<u64>,
}

impl Memory {
    /// Creates a memory of `size` bytes and lays out the module's globals.
    /// The backing covers the globals and the first page of heap, so a
    /// small heap's first store does not grow it.
    ///
    /// # Panics
    ///
    /// Panics if the globals do not fit.
    pub fn new(m: &Module, size: u64) -> Self {
        let (global_bases, next) = Self::layout(m);
        let mut bytes = vec![0u8; (next as usize + 4096).min(size as usize)];
        for (g, &base) in m.globals.iter().zip(&global_bases) {
            assert!(
                base + g.size <= size,
                "globals exceed memory: need {} have {}",
                base + g.size,
                size
            );
            if let GlobalInit::Bytes(init) = &g.init {
                // An initialiser longer than its global (which the parser
                // and verifier reject) is cut at the global's end.
                let init = &init[..init.len().min(g.size as usize)];
                bytes[base as usize..base as usize + init.len()].copy_from_slice(init);
            }
        }
        let written = vec![false; bytes.len().div_ceil(PAGE)];
        Memory { bytes, written, size, heap_next: next, global_bases }
    }

    /// Where [`Memory::new`] places the module's globals: the base
    /// address of each, indexed by `GlobalId`, and the first address past
    /// them. A function of the globals' *sizes* only — neither their
    /// initial bytes nor the memory size move a base.
    pub fn layout(m: &Module) -> (Vec<u64>, u64) {
        let mut next = 64u64;
        let mut global_bases = Vec::with_capacity(m.globals.len());
        for g in &m.globals {
            global_bases.push(next);
            next = (next + g.size + 63) & !63;
        }
        (global_bases, next)
    }

    /// Total mapped size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Ensures the backing store physically covers `end` bytes.
    /// `end` has already passed the bounds check against `size`.
    #[cold]
    fn grow_to(&mut self, end: usize) {
        // Geometric growth bounded by the logical size keeps the
        // amortized cost O(high-water mark).
        let target = (self.bytes.len() * 2).clamp(end, self.size as usize).max(end);
        self.bytes.resize(target, 0);
        self.written.resize(target.div_ceil(PAGE), false);
    }

    /// Marks the pages holding bytes `first` and `last` written (an
    /// access is at most 8 bytes, so it touches no page between them).
    #[inline(always)]
    fn mark(&mut self, first: usize, last: usize) {
        self.written[first / PAGE] = true;
        self.written[last / PAGE] = true;
    }

    /// Where the next allocation starts: the heap's bump pointer.
    pub(crate) fn heap_next(&self) -> u64 {
        self.heap_next
    }

    /// Bump-allocates `size` bytes, 64-byte aligned.
    pub fn alloc(&mut self, size: u64) -> Result<u64, Trap> {
        let base = self.heap_next;
        let end = base.checked_add(size).ok_or(Trap::OutOfMemory)?;
        if end > self.size() {
            return Err(Trap::OutOfMemory);
        }
        self.heap_next = (end + 63) & !63;
        Ok(base)
    }

    /// The bounds check every access starts with: what [`Memory::load`]
    /// and [`Memory::store`] of `len` bytes at `addr` would refuse.
    #[inline]
    pub(crate) fn check(&self, addr: u64, len: u64) -> Result<(), Trap> {
        // Address 0..64 is the unmapped "null page".
        if addr < 64 || addr.saturating_add(len) > self.size() {
            return Err(Trap::OutOfBounds { addr, len });
        }
        Ok(())
    }

    /// Loads `len` bytes (1, 2, 4, or 8) little-endian.
    #[inline]
    pub fn load(&self, addr: u64, len: u32) -> Result<u64, Trap> {
        self.check(addr, len as u64)?;
        let a = addr as usize;
        if a + len as usize > self.bytes.len() {
            // In bounds but physically untouched: reads as zero.
            return Ok(self.load_cold(a, len));
        }
        // Word-width fast paths: same bytes, same little-endian value,
        // without the shift loop (this is on every interpreted load).
        Ok(match len {
            8 => u64::from_le_bytes(self.bytes[a..a + 8].try_into().unwrap()),
            4 => u32::from_le_bytes(self.bytes[a..a + 4].try_into().unwrap()) as u64,
            _ => {
                let mut v = 0u64;
                for i in (0..len as usize).rev() {
                    v = (v << 8) | self.bytes[a + i] as u64;
                }
                v
            }
        })
    }

    /// Load straddling or beyond the physical high-water mark.
    #[cold]
    fn load_cold(&self, a: usize, len: u32) -> u64 {
        let mut v = 0u64;
        for i in (0..len as usize).rev() {
            let byte = self.bytes.get(a + i).copied().unwrap_or(0);
            v = (v << 8) | byte as u64;
        }
        v
    }

    /// Stores the low `len` bytes of `val` little-endian.
    #[inline]
    pub fn store(&mut self, addr: u64, len: u32, val: u64) -> Result<(), Trap> {
        self.check(addr, len as u64)?;
        let a = addr as usize;
        if a + len as usize > self.bytes.len() {
            self.grow_to(a + len as usize);
        }
        self.mark(a, a + len as usize - 1);
        match len {
            8 => self.bytes[a..a + 8].copy_from_slice(&val.to_le_bytes()),
            4 => self.bytes[a..a + 4].copy_from_slice(&(val as u32).to_le_bytes()),
            _ => {
                for i in 0..len as usize {
                    self.bytes[a + i] = (val >> (8 * i)) as u8;
                }
            }
        }
        Ok(())
    }

    /// Reads a raw byte (no null-page check; used by diagnostics).
    pub fn byte(&self, addr: u64) -> u8 {
        assert!(addr < self.size, "byte read past memory end");
        self.bytes.get(addr as usize).copied().unwrap_or(0)
    }

    /// Writes one byte with bounds checking (used for commit of tx write
    /// buffers).
    pub fn store_byte(&mut self, addr: u64, val: u8) -> Result<(), Trap> {
        self.check(addr, 1)?;
        let a = addr as usize;
        if a >= self.bytes.len() {
            self.grow_to(a + 1);
        }
        self.mark(a, a);
        self.bytes[a] = val;
        Ok(())
    }

    /// This arena in two parts: itself without its backing bytes, and
    /// the [`PAGE`]-byte pages of those bytes it has written
    /// ([`Memory::store`], [`Memory::store_byte`]). [`Memory::restored`]
    /// puts the two back together over `base`, which must be the arena
    /// this one was cloned from before those writes: every other page is
    /// `base`'s, or zero past its end. Copying the written pages, found
    /// without reading the others, is what makes a checkpoint cheap.
    ///
    /// # Panics
    ///
    /// Panics if `base` has another size or global layout, and in debug
    /// builds if a page not written differs from `base`'s.
    pub(crate) fn diff_from(&self, base: &Memory) -> (Memory, PageDiff) {
        assert!(
            self.size == base.size && self.global_bases == base.global_bases,
            "a page diff against an arena of another size or layout"
        );
        let at: Vec<usize> = (0..self.written.len()).filter(|&i| self.written[i]).collect();
        let mut bytes = Vec::with_capacity(at.len() * PAGE);
        for &i in &at {
            bytes.extend_from_slice(&self.bytes[i * PAGE..self.bytes.len().min((i + 1) * PAGE)]);
        }
        let hollow = Memory {
            bytes: Vec::new(),
            written: self.written.clone(),
            global_bases: self.global_bases.clone(),
            ..*self
        };
        let diff = PageDiff { len: self.bytes.len(), at, bytes };
        debug_assert!(
            hollow.restored(base, &diff).bytes == self.bytes,
            "an unwritten page differs from the base: not the arena the run started from"
        );
        (hollow, diff)
    }

    /// The arena [`Memory::diff_from`] split into `self` and `diff`:
    /// `base`'s bytes, cut or zero-extended to the arena's length, with
    /// `diff`'s pages written back.
    pub(crate) fn restored(&self, base: &Memory, diff: &PageDiff) -> Memory {
        let mut bytes = Vec::with_capacity(diff.len);
        bytes.extend_from_slice(&base.bytes[..base.bytes.len().min(diff.len)]);
        bytes.resize(diff.len, 0);
        for (&i, page) in diff.at.iter().zip(diff.bytes.chunks(PAGE)) {
            bytes[i * PAGE..][..page.len()].copy_from_slice(page);
        }
        Memory {
            bytes,
            written: self.written.clone(),
            global_bases: self.global_bases.clone(),
            ..*self
        }
    }
}

/// Bytes per page of a [`PageDiff`].
const PAGE: usize = 4096;

/// The pages an arena has written, apart from the rest of it
/// ([`Memory::diff_from`]).
#[derive(Clone, Debug)]
pub(crate) struct PageDiff {
    /// The backing's length.
    len: usize,
    /// Each written page's index, ascending.
    at: Vec<usize>,
    /// Those pages' bytes, one after another; the last may be short.
    bytes: Vec<u8>,
}

impl PageDiff {
    /// The indices of the pages kept, ascending.
    #[cfg(test)]
    pub(crate) fn pages(&self) -> &[usize] {
        &self.at
    }

    /// Bytes the kept pages take.
    pub(crate) fn held_bytes(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft_ir::module::Module;

    fn module_with_globals() -> Module {
        let mut m = Module::new("t");
        m.add_global("a", 100);
        m.add_global_init("b", vec![0xaa, 0xbb]);
        m
    }

    #[test]
    fn globals_are_cache_line_aligned_and_initialized() {
        let m = module_with_globals();
        let mem = Memory::new(&m, 4096);
        assert_eq!(mem.global_bases[0], 64);
        assert_eq!(mem.global_bases[1] % 64, 0);
        assert!(mem.global_bases[1] >= 64 + 100);
        assert_eq!(mem.load(mem.global_bases[1], 2).unwrap(), 0xbbaa);
    }

    #[test]
    fn initialiser_longer_than_its_global_stops_at_its_end() {
        for len in [100, 9000] {
            let mut m = Module::new("t");
            m.add_global_init("a", vec![0xff; len]);
            m.add_global("b", 64);
            m.globals[0].size = 8;
            let mem = Memory::new(&m, 1 << 16);
            assert_eq!(mem.load(mem.global_bases[0], 8).unwrap(), u64::MAX, "{len}");
            assert_eq!(mem.load(mem.global_bases[0] + 8, 8).unwrap(), 0, "{len}");
            assert_eq!(mem.load(mem.global_bases[1], 8).unwrap(), 0, "{len}");
        }
    }

    #[test]
    fn null_page_traps() {
        let m = Module::new("t");
        let mem = Memory::new(&m, 4096);
        assert!(matches!(mem.load(0, 8), Err(Trap::OutOfBounds { .. })));
        assert!(matches!(mem.load(63, 1), Err(Trap::OutOfBounds { .. })));
        assert!(mem.load(64, 8).is_ok());
    }

    #[test]
    fn oob_traps() {
        let m = Module::new("t");
        let mut mem = Memory::new(&m, 4096);
        assert!(matches!(mem.load(4090, 8), Err(Trap::OutOfBounds { .. })));
        assert!(matches!(mem.store(u64::MAX - 3, 8, 1), Err(Trap::OutOfBounds { .. })));
        assert!(mem.store(4088, 8, 1).is_ok());
    }

    #[test]
    fn little_endian_roundtrip() {
        let m = Module::new("t");
        let mut mem = Memory::new(&m, 4096);
        mem.store(100, 8, 0x1122334455667788).unwrap();
        assert_eq!(mem.load(100, 8).unwrap(), 0x1122334455667788);
        assert_eq!(mem.load(100, 1).unwrap(), 0x88);
        assert_eq!(mem.load(104, 4).unwrap(), 0x11223344);
    }

    #[test]
    fn alloc_bumps_aligned_and_exhausts() {
        let m = module_with_globals();
        let mut mem = Memory::new(&m, 1024);
        let a = mem.alloc(10).unwrap();
        let b = mem.alloc(10).unwrap();
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
        assert!(matches!(mem.alloc(100_000), Err(Trap::OutOfMemory)));
    }

    /// A page diff keeps exactly the pages written since the clone —
    /// one written back to what the base holds included, both pages of a
    /// store across a page boundary — and restores the arena byte for
    /// byte, its marks included: a grown backing, a store past the base's
    /// end, a byte store.
    #[test]
    fn a_page_diff_keeps_the_written_pages_and_restores_the_arena() {
        let m = module_with_globals();
        let base = Memory::new(&m, 1 << 20);
        let mut mem = base.clone();
        let b = mem.global_bases[1];
        mem.store(b, 2, 0x1234).unwrap();
        mem.store(b, 2, 0xbbaa).unwrap();
        mem.store(3 * 4096 + 8, 8, 7).unwrap();
        mem.store(6 * 4096 - 4, 8, u64::MAX).unwrap();
        mem.store_byte(9 * 4096 - 1, 1).unwrap();
        mem.alloc(100).unwrap();
        let (hollow, diff) = mem.diff_from(&base);
        assert!(hollow.bytes.is_empty());
        assert_eq!(diff.pages(), [0, 3, 5, 6, 8]);
        assert_eq!(diff.held_bytes(), 5 * 4096);
        let back = hollow.restored(&base, &diff);
        assert_eq!(back.bytes, mem.bytes);
        assert_eq!((back.size, back.heap_next), (mem.size, mem.heap_next));
        assert_eq!((&back.global_bases, &back.written), (&mem.global_bases, &mem.written));
        assert_eq!(base.diff_from(&base).1.pages(), [] as [usize; 0], "the image wrote nothing");
    }

    /// A diff against an arena the run did not start from is caught in
    /// debug builds: an unwritten page would be restored from the wrong
    /// bytes.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "an unwritten page differs from the base")]
    fn a_page_diff_against_another_base_is_refused() {
        let m = module_with_globals();
        let mut other = Memory::new(&m, 1 << 20);
        other.bytes[100] = 1;
        Memory::new(&m, 1 << 20).diff_from(&other);
    }

    #[test]
    #[should_panic(expected = "globals exceed memory")]
    fn oversized_globals_panic() {
        let mut m = Module::new("t");
        m.add_global("big", 1 << 20);
        Memory::new(&m, 4096);
    }
}
