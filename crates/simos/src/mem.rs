//! Per-process virtual memory: pages, permissions, `mprotect`, and page
//! groups.
//!
//! Each [`AddressSpace`] is a dense table of 4 KiB pages, each carrying an
//! independent [`Perms`] word. The table is indexed by page number above
//! the heap base: every mapping comes from a bump allocator and addresses
//! are never reused, so the table only grows at its end and an unmapped
//! page leaves a hole. Every page lookup is index arithmetic. The table
//! is capped at [`MAX_PAGES`] slots per process, past which an allocation
//! fails with `ENOMEM` (the simulation's `RLIMIT_AS`), and a page gets its
//! 4 KiB of backing bytes only on its first write: untouched pages read
//! as zeros, so a huge `brk` that is never written costs one table slot
//! per page.
//!
//! All loads and stores are mediated here; a permission miss produces the
//! [`FaultKind`] that the kernel turns into a process crash — this is the
//! mechanism FreePart's temporal read-only enforcement leans on.
//!
//! ## Page groups
//!
//! A *page group* is a named list of table-slot runs ([`GroupKey`] →
//! slots), the MPK-style handle temporal protection flips instead of
//! walking its objects. [`AddressSpace::join`] adds the pages of a mapped
//! range, [`AddressSpace::leave`] drops one, and [`AddressSpace::flip`]
//! moves every page of one group to a permission and empties the group
//! into another. A group is only an index: the per-page [`Perms`] word
//! stays the single source of truth, so a flip changes, counts and
//! faults exactly like [`AddressSpace::protect`] over the group's member
//! ranges, and `protect`/`unmap` on grouped pages need no special case.
//!
//! Addresses are process-virtual: the same numeric address in two address
//! spaces names unrelated storage, which is precisely the isolation
//! property cross-process exploits run into.

use crate::commit::{fold_bytes, mix, FINGERPRINT_SEED};
use crate::error::{Errno, FaultKind};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// Size of a simulated page in bytes (matches x86-64 Linux).
pub const PAGE_SIZE: u64 = 4096;

/// Base of the simulated heap in every address space.
const HEAP_BASE: u64 = 0x1000_0000;

/// Page-table slots one address space may ever allocate (4 GiB of
/// address space): a fixed per-process budget, like `RLIMIT_AS`. The
/// bump allocator never reuses an address, so unmapped holes count
/// against it too. The largest address space any test, report binary or
/// benchmark workload builds has 10,308 slots (about 40 MiB).
pub const MAX_PAGES: u64 = 1 << 20;

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

/// Names a page group of one address space. Keys are chosen by the
/// caller and mean nothing to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupKey(pub u64);

/// One 4 KiB page: its protection word, its backing bytes once first
/// written (demand-zero), and a write-generation counter (the soft-dirty
/// bit of this simulation: incremental snapshots compare generations
/// across an interval to prove a payload unchanged without reading it).
#[derive(Clone)]
struct Page {
    perms: Perms,
    data: Option<Box<[u8]>>,
    writes: u64,
}

impl Page {
    fn new(perms: Perms) -> Page {
        Page {
            perms,
            data: None,
            writes: 0,
        }
    }
}

/// A run of page-table slots `[lo, hi)`, a page group's member.
type Slots = (usize, usize);

/// First and last page bases covering `[addr, addr+len)`; an empty
/// range covers the page holding `addr`. `None` when the range runs past
/// the end of the address space.
fn page_span(addr: Addr, len: u64) -> Option<(u64, u64)> {
    let end = addr.0.checked_add(len.saturating_sub(1))?;
    Some((addr.page_base(), Addr(end).page_base()))
}

/// Table slot of the page at `base` (at or above [`HEAP_BASE`]).
fn slot_of(base: u64) -> u64 {
    (base - HEAP_BASE) / PAGE_SIZE
}

/// Outcome of a raw memory access attempt.
pub(crate) type AccessResult<T> = Result<T, FaultKind>;

/// A dense, paged, per-process address space with a bump allocator.
///
/// # Example
///
/// ```
/// use freepart_simos::{AddressSpace, Perms};
///
/// let mut asp = AddressSpace::new();
/// let a = asp.alloc(100, Perms::RW).unwrap();
/// asp.write(a, b"abc").unwrap();
/// assert_eq!(asp.read(a, 3).unwrap(), b"abc");
/// ```
#[derive(Clone)]
pub struct AddressSpace {
    /// The page table: slot `i` is the page at `HEAP_BASE + i *
    /// PAGE_SIZE`. Every mapping comes from the bump allocator, which
    /// appends slots and never reuses an address, so the table ends at
    /// the heap cursor and an unmapped page stays a `None` hole.
    pages: Vec<Option<Page>>,
    /// Number of `Some` slots in `pages`.
    mapped: usize,
    /// Page groups: each key's member slot runs, in join order. Every
    /// run was mapped when it joined; the table never shrinks, so runs
    /// always index inside it. Empty groups are removed.
    groups: BTreeMap<GroupKey, Vec<Slots>>,
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
            pages: Vec::new(),
            mapped: 0,
            groups: BTreeMap::new(),
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

    /// The heap cursor: the address the next allocation starts at.
    fn brk(&self) -> u64 {
        HEAP_BASE + self.pages.len() as u64 * PAGE_SIZE
    }

    /// The table slots of the pages covering `[addr, addr+len)`, in
    /// address order and cut at the first page outside the table, plus
    /// whether the table holds the whole span. A span starting below
    /// the heap yields no slots; one running past the end of the address
    /// space is cut at the end of the table.
    fn span(&self, addr: Addr, len: u64) -> (Range<usize>, bool) {
        let n = self.pages.len() as u64;
        let first = addr.page_base();
        if first < HEAP_BASE {
            return (0..0, false);
        }
        let lo = slot_of(first).min(n) as usize;
        match page_span(addr, len) {
            Some((_, last)) if slot_of(last) < n => (lo..slot_of(last) as usize + 1, true),
            _ => (lo..n as usize, false),
        }
    }

    /// The pages of a span, when every one of them is mapped.
    fn mapped_pages(&self, addr: Addr, len: u64) -> Option<Range<usize>> {
        let (slots, whole) = self.span(addr, len);
        (whole && self.pages[slots.clone()].iter().all(Option::is_some)).then_some(slots)
    }

    /// The mapped page at `base`, if any.
    fn page(&self, base: u64) -> Option<&Page> {
        let slot = base.checked_sub(HEAP_BASE)? / PAGE_SIZE;
        self.pages.get(usize::try_from(slot).ok()?)?.as_ref()
    }

    /// Allocates `len` bytes of fresh zeroed memory with permissions
    /// `perms`, returning the base address. Allocations are page-aligned
    /// and never reuse addresses (a monotone bump allocator keeps
    /// addresses stable and unambiguous for the whole simulation).
    ///
    /// # Errors
    ///
    /// `ENOMEM`, with nothing changed, when the allocation would take the
    /// table past [`MAX_PAGES`] slots.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero: a zero-sized mapping has no meaningful
    /// address and indicates a harness bug.
    pub fn alloc(&mut self, len: u64, perms: Perms) -> Result<Addr, Errno> {
        assert!(len > 0, "zero-length allocation");
        let base = self.brk();
        let pages = len.div_ceil(PAGE_SIZE);
        if pages > MAX_PAGES - self.pages.len() as u64 {
            return Err(Errno::Enomem);
        }
        let end = self.pages.len() + pages as usize;
        self.pages.resize_with(end, || Some(Page::new(perms)));
        self.mapped += pages as usize;
        self.fp = mix(
            mix(mix(mix(self.fp, 1), base), pages),
            u64::from(perms.bits()),
        );
        Ok(Addr(base))
    }

    /// Unmaps the pages covering `[addr, addr+len)`. Unmapped holes are
    /// ignored (like `munmap`); a range running past the end of the
    /// address space unmaps nothing. The walk covers only the part of
    /// the range that lies in the page table, however long the range.
    pub fn unmap(&mut self, addr: Addr, len: u64) {
        let Some((first, last)) = page_span(addr, len) else {
            return;
        };
        let mut removed = 0u64;
        if last >= HEAP_BASE {
            let n = self.pages.len() as u64;
            let lo = slot_of(first.max(HEAP_BASE)).min(n) as usize;
            let hi = (slot_of(last) + 1).min(n) as usize;
            for page in &mut self.pages[lo..hi] {
                if page.take().is_some() {
                    removed += 1;
                }
            }
        }
        if removed > 0 {
            self.mapped -= removed as usize;
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
        let slots = self.mapped_pages(addr, len).ok_or(FaultKind::Unmapped)?;
        let mut changed = 0;
        for page in self.pages[slots].iter_mut().flatten() {
            if page.perms != perms {
                page.perms = perms;
                changed += 1;
            }
        }
        if changed > 0 {
            self.fp = mix(
                mix(mix(mix(self.fp, 3), addr.page_base()), changed),
                u64::from(perms.bits()),
            );
        }
        Ok(changed)
    }

    /// Adds the pages covering `[addr, addr+len)` to group `key`, as one
    /// member run.
    ///
    /// # Errors
    ///
    /// [`FaultKind::Unmapped`], with nothing changed, unless every page
    /// of the range is mapped.
    pub fn join(&mut self, key: GroupKey, addr: Addr, len: u64) -> AccessResult<()> {
        let slots = self.mapped_pages(addr, len).ok_or(FaultKind::Unmapped)?;
        self.groups
            .entry(key)
            .or_default()
            .push((slots.start, slots.end));
        self.fp = mix(
            mix(mix(mix(self.fp, 5), key.0), addr.page_base()),
            slots.len() as u64,
        );
        Ok(())
    }

    /// The member run a range would join a group as, whether or not its
    /// pages are still mapped; `None` for a range outside the table.
    fn run_of(&self, addr: Addr, len: u64) -> Option<Slots> {
        let (slots, whole) = self.span(addr, len);
        whole.then_some((slots.start, slots.end))
    }

    /// Drops the member run the pages covering `[addr, addr+len)` joined
    /// group `key` as. A range that is not a member is ignored; its
    /// pages need not be mapped any more.
    pub fn leave(&mut self, key: GroupKey, addr: Addr, len: u64) {
        let Some(run) = self.run_of(addr, len) else {
            return;
        };
        let Some(members) = self.groups.get_mut(&key) else {
            return;
        };
        let Some(i) = members.iter().position(|&m| m == run) else {
            return;
        };
        members.swap_remove(i);
        if members.is_empty() {
            self.groups.remove(&key);
        }
        self.fp = mix(mix(mix(self.fp, 6), key.0), addr.page_base());
    }

    /// True when every page of group `key` is mapped once the `leaving`
    /// ranges have left it, one member run each (an empty group is
    /// mapped).
    pub fn group_mapped(&self, key: GroupKey, leaving: &[(Addr, u64)]) -> bool {
        let Some(members) = self.groups.get(&key) else {
            return true;
        };
        let mut leaving: Vec<Slots> = leaving
            .iter()
            .filter_map(|&(addr, len)| self.run_of(addr, len))
            .collect();
        members.iter().all(|&(lo, hi)| {
            if let Some(i) = leaving.iter().position(|&run| run == (lo, hi)) {
                leaving.swap_remove(i);
                return true;
            }
            self.pages[lo..hi].iter().all(Option::is_some)
        })
    }

    /// Moves every page of group `from` to `perms` and empties `from`
    /// into group `to` (it becomes `to` when `to` is empty). Returns the
    /// number of pages whose permissions changed, exactly as
    /// [`AddressSpace::protect`] over each member run would.
    ///
    /// # Errors
    ///
    /// [`FaultKind::Unmapped`], with nothing changed, if any page of
    /// `from` is unmapped.
    pub fn flip(&mut self, from: GroupKey, to: GroupKey, perms: Perms) -> AccessResult<u64> {
        if !self.group_mapped(from, &[]) {
            return Err(FaultKind::Unmapped);
        }
        let Some(mut members) = self.groups.remove(&from) else {
            return Ok(0);
        };
        let mut changed = 0;
        for &(lo, hi) in &members {
            for page in self.pages[lo..hi].iter_mut().flatten() {
                if page.perms != perms {
                    page.perms = perms;
                    changed += 1;
                }
            }
        }
        match self.groups.get_mut(&to) {
            Some(dst) => dst.append(&mut members),
            None => {
                self.groups.insert(to, members);
            }
        }
        self.fp = mix(
            mix(mix(mix(mix(self.fp, 7), from.0), to.0), changed),
            u64::from(perms.bits()),
        );
        Ok(changed)
    }

    /// The member runs of group `key` as `(first page base, pages)`, in
    /// join order (those of a flip's `from` follow `to`'s own).
    pub fn group(&self, key: GroupKey) -> Vec<(Addr, u64)> {
        self.groups.get(&key).map_or_else(Vec::new, |members| {
            members
                .iter()
                .map(|&(lo, hi)| (Addr(HEAP_BASE + lo as u64 * PAGE_SIZE), (hi - lo) as u64))
                .collect()
        })
    }

    /// True when every page covering `[addr, addr+len)` is mapped and
    /// already at exactly `perms` — i.e. a [`AddressSpace::protect`] call
    /// with these arguments would change nothing.
    pub fn perms_match(&self, addr: Addr, len: u64, perms: Perms) -> bool {
        let (slots, whole) = self.span(addr, len);
        whole
            && self.pages[slots]
                .iter()
                .all(|page| page.as_ref().is_some_and(|page| page.perms == perms))
    }

    /// Current permissions of the page containing `addr`, if mapped.
    pub fn perms_at(&self, addr: Addr) -> Option<Perms> {
        self.page(addr.page_base()).map(|p| p.perms)
    }

    /// True when the full range is mapped (an empty range: the page
    /// holding `addr`).
    pub fn is_mapped(&self, addr: Addr, len: u64) -> bool {
        self.mapped_pages(addr, len).is_some()
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
            let page = self.page(cur.page_base()).expect("checked");
            let off = cur.page_offset() as usize;
            let take = remaining.min(PAGE_SIZE - cur.page_offset()) as usize;
            match &page.data {
                Some(data) => out.extend_from_slice(&data[off..off + take]),
                None => out.resize(out.len() + take, 0),
            }
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
            let off = cur.page_offset() as usize;
            let take = src.len().min((PAGE_SIZE - cur.page_offset()) as usize);
            let page = self.pages[slot_of(cur.page_base()) as usize]
                .as_mut()
                .expect("checked");
            let data = page
                .data
                .get_or_insert_with(|| vec![0; PAGE_SIZE as usize].into_boxed_slice());
            data[off..off + take].copy_from_slice(&src[..take]);
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
        let (slots, whole) = self.span(addr, len);
        if !whole {
            return None;
        }
        self.pages[slots]
            .iter()
            .map(|page| page.as_ref().map(|page| page.writes))
            .sum()
    }

    /// Number of mapped pages.
    pub fn page_count(&self) -> usize {
        self.mapped
    }

    /// Total mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.mapped as u64 * PAGE_SIZE
    }

    /// Checks `needed` on every page covering a non-empty range, faulting
    /// at the first page, in address order, that is unmapped or lacks it.
    fn check(&self, addr: Addr, len: u64, needed: Perms) -> AccessResult<()> {
        if len == 0 {
            return Ok(());
        }
        let (slots, whole) = self.span(addr, len);
        for page in &self.pages[slots] {
            match page {
                None => return Err(FaultKind::Unmapped),
                Some(page) if !page.perms.allows(needed) => {
                    return Err(FaultKind::Protection);
                }
                Some(_) => {}
            }
        }
        if whole {
            Ok(())
        } else {
            Err(FaultKind::Unmapped)
        }
    }
}

impl fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AddressSpace")
            .field("pages", &self.mapped)
            .field("brk", &format_args!("{:#x}", self.brk()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned_and_monotone() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(1, Perms::RW).unwrap();
        let b = asp.alloc(PAGE_SIZE + 1, Perms::RW).unwrap();
        assert_eq!(a.page_offset(), 0);
        assert_eq!(b.page_offset(), 0);
        assert!(b.0 >= a.0 + PAGE_SIZE);
        let c = asp.alloc(1, Perms::RW).unwrap();
        assert!(c.0 >= b.0 + 2 * PAGE_SIZE, "two pages for PAGE_SIZE+1");
    }

    #[test]
    fn read_write_roundtrip_across_page_boundary() {
        let mut asp = AddressSpace::new();
        let base = asp.alloc(2 * PAGE_SIZE, Perms::RW).unwrap();
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
        let a = asp.alloc(64, Perms::RW).unwrap();
        asp.write(a, b"ok").unwrap();
        asp.protect(a, 64, Perms::R).unwrap();
        assert_eq!(asp.write(a, b"no"), Err(FaultKind::Protection));
        // Reads still fine; data intact.
        assert_eq!(&asp.read(a, 2).unwrap(), b"ok");
    }

    #[test]
    fn protect_is_atomic_over_partially_unmapped_range() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(PAGE_SIZE, Perms::RW).unwrap();
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
        let data = asp.alloc(16, Perms::RW).unwrap();
        let code = asp.alloc(16, Perms::RX).unwrap();
        assert_eq!(asp.fetch(data), Err(FaultKind::Protection));
        assert!(asp.fetch(code).is_ok());
    }

    #[test]
    fn write_to_execute_only_page_faults() {
        let mut asp = AddressSpace::new();
        let code = asp.alloc(16, Perms::RX).unwrap();
        assert_eq!(asp.write(code, b"\x90"), Err(FaultKind::Protection));
    }

    #[test]
    fn unmap_removes_pages() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(2 * PAGE_SIZE, Perms::RW).unwrap();
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
    fn alloc_past_the_page_budget_is_enomem_and_changes_nothing() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(PAGE_SIZE, Perms::RW).unwrap();
        let fp = asp.fingerprint();
        assert_eq!(
            asp.alloc(MAX_PAGES * PAGE_SIZE, Perms::RW),
            Err(Errno::Enomem)
        );
        assert_eq!(asp.alloc(u64::MAX, Perms::RW), Err(Errno::Enomem));
        assert_eq!((asp.page_count(), asp.fingerprint()), (1, fp));
        let b = asp.alloc((MAX_PAGES - 1) * PAGE_SIZE, Perms::RW).unwrap();
        assert_eq!(
            b.0,
            a.0 + PAGE_SIZE,
            "the budget is usable to its last page"
        );
        assert_eq!(asp.alloc(1, Perms::RW), Err(Errno::Enomem));
    }

    #[test]
    fn untouched_pages_read_as_zeros() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(3 * PAGE_SIZE, Perms::RW).unwrap();
        asp.write(a.offset(PAGE_SIZE + 10), b"xy").unwrap();
        let bytes = asp.read(a.offset(PAGE_SIZE - 2), 16).unwrap();
        assert_eq!(
            bytes,
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, b'x', b'y', 0, 0]
        );
        assert_eq!(asp.write_epoch(a, 3 * PAGE_SIZE), Some(1));
    }

    #[test]
    fn zero_length_read_of_mapped_page_ok() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(8, Perms::RW).unwrap();
        assert_eq!(asp.read(a, 0).unwrap(), Vec::<u8>::new());
    }
}
