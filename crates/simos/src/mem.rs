//! Per-process virtual memory: pages, permissions, and `mprotect`.
//!
//! Each [`AddressSpace`] is a sparse map of 4 KiB pages, each carrying an
//! independent [`Perms`] word. All loads and stores are mediated here; a
//! permission miss produces the [`FaultKind`]
//! that the kernel turns into a process crash — this is the mechanism
//! FreePart's temporal read-only enforcement leans on.
//!
//! Addresses are process-virtual: the same numeric address in two address
//! spaces names unrelated storage, which is precisely the isolation
//! property cross-process exploits run into.

use crate::commit::{fold_bytes, mix, FINGERPRINT_SEED};
use crate::error::FaultKind;
use std::collections::BTreeMap;
use std::fmt;

/// Size of a simulated page in bytes (matches x86-64 Linux).
pub const PAGE_SIZE: u64 = 4096;

/// Base of the simulated heap in every address space.
const HEAP_BASE: u64 = 0x1000_0000;

/// A process-virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The base address of the page containing this address.
    pub fn page_base(self) -> u64 {
        self.0 & !(PAGE_SIZE - 1)
    }

    /// Byte offset within the containing page.
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// This address advanced by `n` bytes.
    pub fn offset(self, n: u64) -> Addr {
        Addr(self.0 + n)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Page permissions, a miniature `PROT_*` word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perms(u8);

impl Perms {
    /// No access at all (`PROT_NONE`).
    pub const NONE: Perms = Perms(0);
    /// Read-only.
    pub const R: Perms = Perms(0b001);
    /// Write-only (rarely used, but expressible).
    pub const W: Perms = Perms(0b010);
    /// Execute-only.
    pub const X: Perms = Perms(0b100);
    /// Read + write — the default for data pages.
    pub const RW: Perms = Perms(0b011);
    /// Read + execute — code pages.
    pub const RX: Perms = Perms(0b101);
    /// Read + write + execute (what a code-rewriting exploit needs).
    pub const RWX: Perms = Perms(0b111);

    /// True if reads are allowed.
    pub fn readable(self) -> bool {
        self.0 & 1 != 0
    }

    /// True if writes are allowed.
    pub fn writable(self) -> bool {
        self.0 & 2 != 0
    }

    /// True if execution is allowed.
    pub fn executable(self) -> bool {
        self.0 & 4 != 0
    }

    /// Union of two permission words.
    pub fn union(self, other: Perms) -> Perms {
        Perms(self.0 | other.0)
    }

    /// True when `self` allows everything `needed` requires.
    pub fn allows(self, needed: Perms) -> bool {
        self.0 & needed.0 == needed.0
    }

    /// The raw permission bits (`r = 1`, `w = 2`, `x = 4`), for hashing
    /// and compact serialization.
    pub fn bits(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.readable() { 'r' } else { '-' },
            if self.writable() { 'w' } else { '-' },
            if self.executable() { 'x' } else { '-' },
        )
    }
}

/// One 4 KiB page: backing bytes plus its protection word and a
/// write-generation counter (the soft-dirty bit of this simulation:
/// incremental snapshots compare generations across an interval to
/// prove a payload unchanged without reading it).
#[derive(Clone)]
struct Page {
    perms: Perms,
    data: Vec<u8>,
    writes: u64,
}

impl Page {
    fn new(perms: Perms) -> Page {
        Page {
            perms,
            data: vec![0; PAGE_SIZE as usize],
            writes: 0,
        }
    }
}

/// First and last page bases covering `[addr, addr+len)`; an empty
/// range covers the page holding `addr`. `None` when the range runs past
/// the end of the address space.
fn page_span(addr: Addr, len: u64) -> Option<(u64, u64)> {
    let end = addr.0.checked_add(len.saturating_sub(1))?;
    Some((addr.page_base(), Addr(end).page_base()))
}

/// Outcome of a raw memory access attempt.
pub(crate) type AccessResult<T> = Result<T, FaultKind>;

/// A sparse, paged, per-process address space with a bump allocator.
///
/// # Example
///
/// ```
/// use freepart_simos::{AddressSpace, Perms};
///
/// let mut asp = AddressSpace::new();
/// let a = asp.alloc(100, Perms::RW);
/// asp.write(a, b"abc").unwrap();
/// assert_eq!(asp.read(a, 3).unwrap(), b"abc");
/// ```
#[derive(Clone)]
pub struct AddressSpace {
    pages: BTreeMap<u64, Page>,
    brk: u64,
    /// Incrementally-maintained mutation fingerprint: every mutating
    /// operation folds an op tag plus its arguments in, so two address
    /// spaces built by the same mutation sequence hash identically
    /// without walking page contents. Feeds `KernelState::digest`.
    fp: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Creates an empty address space with the heap cursor at its base.
    pub fn new() -> AddressSpace {
        AddressSpace {
            pages: BTreeMap::new(),
            brk: HEAP_BASE,
            fp: FINGERPRINT_SEED,
        }
    }

    /// The mutation fingerprint (see the field docs on `fp`). Two address
    /// spaces that underwent the same mutation sequence report the same
    /// fingerprint; any divergence in writes, allocations, unmaps, or
    /// protection changes separates them.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Allocates `len` bytes of fresh zeroed memory with permissions
    /// `perms`, returning the base address. Allocations are page-aligned
    /// and never reuse addresses (a monotone bump allocator keeps
    /// addresses stable and unambiguous for the whole simulation).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero: a zero-sized mapping has no meaningful
    /// address and indicates a harness bug.
    pub fn alloc(&mut self, len: u64, perms: Perms) -> Addr {
        assert!(len > 0, "zero-length allocation");
        let base = self.brk;
        let pages = len.div_ceil(PAGE_SIZE);
        for i in 0..pages {
            self.pages.insert(base + i * PAGE_SIZE, Page::new(perms));
        }
        self.brk = base + pages * PAGE_SIZE;
        self.fp = mix(
            mix(mix(mix(self.fp, 1), base), pages),
            u64::from(perms.bits()),
        );
        Addr(base)
    }

    /// Unmaps the pages covering `[addr, addr+len)`. Unmapped holes are
    /// ignored (like `munmap`).
    pub fn unmap(&mut self, addr: Addr, len: u64) {
        let first = addr.page_base();
        let last = Addr(addr.0 + len.saturating_sub(1)).page_base();
        let mut removed = 0u64;
        let mut p = first;
        while p <= last {
            if self.pages.remove(&p).is_some() {
                removed += 1;
            }
            p += PAGE_SIZE;
        }
        if removed > 0 {
            self.fp = mix(mix(mix(self.fp, 2), first), removed);
        }
    }

    /// Changes the protection of every page covering `[addr, addr+len)`.
    ///
    /// Returns the number of pages whose permissions actually *changed*
    /// (the differential page delta — already-correct pages are free, so
    /// a no-op transition reports zero), or a fault if any page in the
    /// range is unmapped (Linux returns `ENOMEM`; we treat it as a
    /// harness fault because our callers always pass mapped ranges).
    pub fn protect(&mut self, addr: Addr, len: u64, perms: Perms) -> AccessResult<u64> {
        // Validate first so the operation is atomic.
        let Some((first, last)) = self.mapped_span(addr, len) else {
            return Err(FaultKind::Unmapped);
        };
        let mut changed = 0;
        for page in self.pages.range_mut(first..=last).map(|(_, page)| page) {
            if page.perms != perms {
                page.perms = perms;
                changed += 1;
            }
        }
        if changed > 0 {
            self.fp = mix(
                mix(mix(mix(self.fp, 3), first), changed),
                u64::from(perms.bits()),
            );
        }
        Ok(changed)
    }

    /// True when every page covering `[addr, addr+len)` is mapped and
    /// already at exactly `perms` — i.e. a [`AddressSpace::protect`] call
    /// with these arguments would change nothing.
    pub fn perms_match(&self, addr: Addr, len: u64, perms: Perms) -> bool {
        let first = addr.page_base();
        let last = Addr(addr.0 + len.saturating_sub(1)).page_base();
        let mut p = first;
        while p <= last {
            match self.pages.get(&p) {
                Some(page) if page.perms == perms => {}
                _ => return false,
            }
            p += PAGE_SIZE;
        }
        true
    }

    /// Current permissions of the page containing `addr`, if mapped.
    pub fn perms_at(&self, addr: Addr) -> Option<Perms> {
        self.pages.get(&addr.page_base()).map(|p| p.perms)
    }

    /// True when the full range is mapped (an empty range: the page
    /// holding `addr`).
    pub fn is_mapped(&self, addr: Addr, len: u64) -> bool {
        self.mapped_span(addr, len).is_some()
    }

    /// The [`page_span`] of a range, when every page in it is mapped.
    fn mapped_span(&self, addr: Addr, len: u64) -> Option<(u64, u64)> {
        let (first, last) = page_span(addr, len)?;
        // Keys are page bases, so the span is mapped exactly when it
        // holds one key per page.
        let pages = self.pages.range(first..=last).count() as u64;
        (pages == (last - first) / PAGE_SIZE + 1).then_some((first, last))
    }

    /// Reads `len` bytes starting at `addr`, checking read permission on
    /// every touched page.
    ///
    /// # Errors
    ///
    /// [`FaultKind::Unmapped`] if any page is missing,
    /// [`FaultKind::Protection`] if any page is not readable.
    pub fn read(&self, addr: Addr, len: u64) -> AccessResult<Vec<u8>> {
        self.check(addr, len, Perms::R)?;
        let mut out = Vec::with_capacity(len as usize);
        let mut cur = addr;
        let mut remaining = len;
        while remaining > 0 {
            let page = self.pages.get(&cur.page_base()).expect("checked");
            let off = cur.page_offset() as usize;
            let take = remaining.min(PAGE_SIZE - cur.page_offset()) as usize;
            out.extend_from_slice(&page.data[off..off + take]);
            cur = cur.offset(take as u64);
            remaining -= take as u64;
        }
        Ok(out)
    }

    /// Writes `bytes` starting at `addr`, checking write permission on
    /// every touched page.
    ///
    /// # Errors
    ///
    /// Same fault model as [`AddressSpace::read`]. On error nothing is
    /// written (the check precedes the copy).
    pub fn write(&mut self, addr: Addr, bytes: &[u8]) -> AccessResult<()> {
        self.check(addr, bytes.len() as u64, Perms::W)?;
        self.fp = fold_bytes(mix(mix(self.fp, 4), addr.0), bytes);
        let mut cur = addr;
        let mut src = bytes;
        while !src.is_empty() {
            let base = cur.page_base();
            let off = cur.page_offset() as usize;
            let take = src.len().min((PAGE_SIZE - cur.page_offset()) as usize);
            let page = self.pages.get_mut(&base).expect("checked");
            page.data[off..off + take].copy_from_slice(&src[..take]);
            page.writes += 1;
            cur = cur.offset(take as u64);
            src = &src[take..];
        }
        Ok(())
    }

    /// Simulates an instruction fetch: checks execute permission at `addr`.
    pub fn fetch(&self, addr: Addr) -> AccessResult<()> {
        self.check(addr, 1, Perms::X)
    }

    /// Sum of the per-page write generations over `[addr, addr+len)`,
    /// or `None` if any page in the range is unmapped. A page whose
    /// permissions stayed read-only over an interval trivially keeps its
    /// generation; the counter also catches writable-but-unwritten pages,
    /// so an unchanged sum proves the range's bytes did not change (the
    /// bump allocator never reuses addresses, ruling out remap aliasing).
    pub fn write_epoch(&self, addr: Addr, len: u64) -> Option<u64> {
        let first = addr.page_base();
        let last = Addr(addr.0 + len.saturating_sub(1)).page_base();
        let mut sum = 0u64;
        let mut p = first;
        while p <= last {
            sum += self.pages.get(&p)?.writes;
            p += PAGE_SIZE;
        }
        Some(sum)
    }

    /// Number of mapped pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }

    fn check(&self, addr: Addr, len: u64, needed: Perms) -> AccessResult<()> {
        if len == 0 {
            return Ok(());
        }
        let first = addr.page_base();
        let last = Addr(addr.0 + len - 1).page_base();
        let mut p = first;
        while p <= last {
            match self.pages.get(&p) {
                None => return Err(FaultKind::Unmapped),
                Some(page) if !page.perms.allows(needed) => {
                    return Err(FaultKind::Protection);
                }
                Some(_) => {}
            }
            p += PAGE_SIZE;
        }
        Ok(())
    }
}

impl fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AddressSpace")
            .field("pages", &self.pages.len())
            .field("brk", &format_args!("{:#x}", self.brk))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned_and_monotone() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(1, Perms::RW);
        let b = asp.alloc(PAGE_SIZE + 1, Perms::RW);
        assert_eq!(a.page_offset(), 0);
        assert_eq!(b.page_offset(), 0);
        assert!(b.0 >= a.0 + PAGE_SIZE);
        let c = asp.alloc(1, Perms::RW);
        assert!(c.0 >= b.0 + 2 * PAGE_SIZE, "two pages for PAGE_SIZE+1");
    }

    #[test]
    fn read_write_roundtrip_across_page_boundary() {
        let mut asp = AddressSpace::new();
        let base = asp.alloc(2 * PAGE_SIZE, Perms::RW);
        let addr = base.offset(PAGE_SIZE - 3);
        let data = b"span-the-boundary";
        asp.write(addr, data).unwrap();
        assert_eq!(asp.read(addr, data.len() as u64).unwrap(), data);
    }

    #[test]
    fn unmapped_access_faults() {
        let asp = AddressSpace::new();
        assert_eq!(asp.read(Addr(0xdead_0000), 4), Err(FaultKind::Unmapped));
    }

    #[test]
    fn protection_fault_on_readonly_write() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(64, Perms::RW);
        asp.write(a, b"ok").unwrap();
        asp.protect(a, 64, Perms::R).unwrap();
        assert_eq!(asp.write(a, b"no"), Err(FaultKind::Protection));
        // Reads still fine; data intact.
        assert_eq!(&asp.read(a, 2).unwrap(), b"ok");
    }

    #[test]
    fn protect_is_atomic_over_partially_unmapped_range() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(PAGE_SIZE, Perms::RW);
        // Range extends past the single mapped page.
        assert_eq!(
            asp.protect(a, 2 * PAGE_SIZE, Perms::R),
            Err(FaultKind::Unmapped)
        );
        // Mapped page unchanged.
        assert_eq!(asp.perms_at(a), Some(Perms::RW));
        // A range running past the end of the address space is refused,
        // not wrapped.
        assert!(!asp.is_mapped(a, u64::MAX));
        assert_eq!(asp.protect(a, u64::MAX, Perms::R), Err(FaultKind::Unmapped));
    }

    #[test]
    fn fetch_requires_execute() {
        let mut asp = AddressSpace::new();
        let data = asp.alloc(16, Perms::RW);
        let code = asp.alloc(16, Perms::RX);
        assert_eq!(asp.fetch(data), Err(FaultKind::Protection));
        assert!(asp.fetch(code).is_ok());
    }

    #[test]
    fn write_to_execute_only_page_faults() {
        let mut asp = AddressSpace::new();
        let code = asp.alloc(16, Perms::RX);
        assert_eq!(asp.write(code, b"\x90"), Err(FaultKind::Protection));
    }

    #[test]
    fn unmap_removes_pages() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(2 * PAGE_SIZE, Perms::RW);
        asp.unmap(a, PAGE_SIZE);
        assert!(!asp.is_mapped(a, 1));
        assert!(asp.is_mapped(a.offset(PAGE_SIZE), 1));
    }

    #[test]
    fn perms_display_and_predicates() {
        assert_eq!(Perms::RW.to_string(), "rw-");
        assert_eq!(Perms::RX.to_string(), "r-x");
        assert_eq!(Perms::NONE.to_string(), "---");
        assert!(Perms::RWX.allows(Perms::RW));
        assert!(!Perms::R.allows(Perms::W));
        assert_eq!(Perms::R.union(Perms::X), Perms::RX);
    }

    #[test]
    fn zero_length_read_of_mapped_page_ok() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(8, Perms::RW);
        assert_eq!(asp.read(a, 0).unwrap(), Vec::<u8>::new());
    }
}
