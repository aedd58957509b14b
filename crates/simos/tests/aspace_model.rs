//! `AddressSpace` against a reference model, and the `munmap` lengths an
//! agent can pass to the host.
//!
//! The model keeps its pages in a plain `BTreeMap` keyed by page base and
//! spells out the fault order and fingerprint folds of the address space's
//! contract, so random operation sequences show that the page table's
//! representation changes nothing observable.

use freepart_simos::commit::{fold_bytes, mix, FINGERPRINT_SEED};
use freepart_simos::error::Errno;
use freepart_simos::{
    Addr, AddressSpace, FaultKind, Kernel, Perms, SimError, SimResult, Syscall, SyscallRet,
    PAGE_SIZE,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;

/// Base of the simulated heap in every address space.
const HEAP_BASE: u64 = 0x1000_0000;

/// `(perms, bytes, write generation)` per mapped page base.
#[derive(Default)]
struct Model {
    pages: BTreeMap<u64, (Perms, Vec<u8>, u64)>,
    brk: u64,
    fp: u64,
}

/// The last page base of `[addr, addr+len)`, `None` when it overflows.
fn last_page(addr: u64, len: u64) -> Option<u64> {
    addr.checked_add(len.saturating_sub(1))
        .map(|end| end & !(PAGE_SIZE - 1))
}

impl Model {
    fn new() -> Model {
        Model {
            pages: BTreeMap::new(),
            brk: HEAP_BASE,
            fp: FINGERPRINT_SEED,
        }
    }

    /// The pages of the span in address order, stopping after the first
    /// unmapped one (`None`), which a span running off the end of the
    /// address space always reaches.
    fn walk(&self, addr: u64, len: u64) -> Vec<Option<&(Perms, Vec<u8>, u64)>> {
        let last = last_page(addr, len);
        let mut out = Vec::new();
        let mut p = addr & !(PAGE_SIZE - 1);
        loop {
            let page = self.pages.get(&p);
            out.push(page);
            if page.is_none() || Some(p) == last {
                return out;
            }
            p += PAGE_SIZE;
        }
    }

    fn whole(&self, addr: u64, len: u64) -> bool {
        last_page(addr, len).is_some() && self.walk(addr, len).iter().all(Option::is_some)
    }

    fn alloc(&mut self, len: u64, perms: Perms) -> Addr {
        let base = self.brk;
        let pages = len.div_ceil(PAGE_SIZE);
        for i in 0..pages {
            let page = (perms, vec![0; PAGE_SIZE as usize], 0);
            self.pages.insert(base + i * PAGE_SIZE, page);
        }
        self.brk = base + pages * PAGE_SIZE;
        self.fp = mix(
            mix(mix(mix(self.fp, 1), base), pages),
            u64::from(perms.bits()),
        );
        Addr(base)
    }

    fn unmap(&mut self, addr: u64, len: u64) {
        let first = addr & !(PAGE_SIZE - 1);
        let Some(last) = last_page(addr, len) else {
            return;
        };
        let doomed: Vec<u64> = self.pages.range(first..=last).map(|(&p, _)| p).collect();
        for p in &doomed {
            self.pages.remove(p);
        }
        if !doomed.is_empty() {
            self.fp = mix(mix(mix(self.fp, 2), first), doomed.len() as u64);
        }
    }

    fn protect(&mut self, addr: u64, len: u64, perms: Perms) -> Result<u64, FaultKind> {
        if !self.whole(addr, len) {
            return Err(FaultKind::Unmapped);
        }
        let first = addr & !(PAGE_SIZE - 1);
        let last = last_page(addr, len).expect("whole");
        let mut changed = 0;
        for (_, page) in self.pages.range_mut(first..=last) {
            if page.0 != perms {
                page.0 = perms;
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

    fn check(&self, addr: u64, len: u64, needed: Perms) -> Result<(), FaultKind> {
        if len == 0 {
            return Ok(());
        }
        for page in self.walk(addr, len) {
            match page {
                None => return Err(FaultKind::Unmapped),
                Some(page) if !page.0.allows(needed) => return Err(FaultKind::Protection),
                Some(_) => {}
            }
        }
        Ok(())
    }

    fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, FaultKind> {
        self.check(addr, len, Perms::R)?;
        Ok((addr..addr + len)
            .map(|a| self.pages[&(a & !(PAGE_SIZE - 1))].1[(a % PAGE_SIZE) as usize])
            .collect())
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), FaultKind> {
        self.check(addr, bytes.len() as u64, Perms::W)?;
        self.fp = fold_bytes(mix(mix(self.fp, 4), addr), bytes);
        let mut touched = Vec::new();
        for (i, &b) in bytes.iter().enumerate() {
            let a = addr + i as u64;
            let base = a & !(PAGE_SIZE - 1);
            let page = self.pages.get_mut(&base).expect("checked");
            page.1[(a % PAGE_SIZE) as usize] = b;
            if touched.last() != Some(&base) {
                touched.push(base);
                page.2 += 1;
            }
        }
        Ok(())
    }

    fn perms_match(&self, addr: u64, len: u64, perms: Perms) -> bool {
        self.whole(addr, len)
            && self
                .walk(addr, len)
                .iter()
                .all(|page| page.is_some_and(|page| page.0 == perms))
    }

    fn write_epoch(&self, addr: u64, len: u64) -> Option<u64> {
        if !self.whole(addr, len) {
            return None;
        }
        Some(
            self.walk(addr, len)
                .iter()
                .map(|page| page.unwrap().2)
                .sum(),
        )
    }
}

#[derive(Debug, Clone)]
enum Op {
    Alloc(u16, u8),
    Unmap(Span),
    Protect(Span, u8),
    Write(Span, Vec<u8>),
    Read(Span),
    PermsMatch(Span, u8),
    WriteEpoch(Span),
    PermsAt(Span),
}

/// A range placed relative to the heap: starting `page - 2` pages from
/// the heap base (so possibly below it, or past the cursor), `offset`
/// bytes in, `len` long.
#[derive(Debug, Clone, Copy)]
struct Span {
    page: u16,
    offset: u16,
    len: u64,
}

impl Span {
    fn addr(self) -> u64 {
        HEAP_BASE - 2 * PAGE_SIZE + u64::from(self.page) * PAGE_SIZE + u64::from(self.offset)
    }
}

fn perms_of(p: u8) -> Perms {
    [Perms::NONE, Perms::R, Perms::RW, Perms::RX, Perms::RWX][p as usize % 5]
}

fn arb_span() -> impl Strategy<Value = Span> {
    // Mostly short ranges, plus lengths that run off the end of the
    // address space or far past the heap cursor.
    let short = || 0u64..3 * PAGE_SIZE;
    let len = prop_oneof![
        short(),
        short(),
        short(),
        Just(u64::MAX),
        Just(u64::MAX - HEAP_BASE),
        Just(1u64 << 50),
    ];
    (0u16..26, 0u16..PAGE_SIZE as u16, len).prop_map(|(page, offset, len)| Span {
        page,
        offset,
        len,
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    let bytes = proptest::collection::vec(any::<u8>(), 0..96);
    let alloc = || (1u16..3 * PAGE_SIZE as u16, any::<u8>()).prop_map(|(n, p)| Op::Alloc(n, p));
    prop_oneof![
        alloc(),
        alloc(),
        arb_span().prop_map(Op::Unmap),
        (arb_span(), any::<u8>()).prop_map(|(s, p)| Op::Protect(s, p)),
        (arb_span(), bytes).prop_map(|(s, b)| Op::Write(s, b)),
        arb_span().prop_map(Op::Read),
        (arb_span(), any::<u8>()).prop_map(|(s, p)| Op::PermsMatch(s, p)),
        arb_span().prop_map(Op::WriteEpoch),
        arb_span().prop_map(Op::PermsAt),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random operation sequences give the same results, faults,
    /// fingerprint, page count and mapped bytes as the reference model
    /// after every step.
    #[test]
    fn address_space_matches_reference_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let mut asp = AddressSpace::new();
        let mut model = Model::new();
        for op in ops {
            match op {
                Op::Alloc(len, p) => {
                    let len = u64::from(len);
                    prop_assert_eq!(asp.alloc(len, perms_of(p)), model.alloc(len, perms_of(p)));
                }
                Op::Unmap(s) => {
                    asp.unmap(Addr(s.addr()), s.len);
                    model.unmap(s.addr(), s.len);
                }
                Op::Protect(s, p) => prop_assert_eq!(
                    asp.protect(Addr(s.addr()), s.len, perms_of(p)),
                    model.protect(s.addr(), s.len, perms_of(p))
                ),
                Op::Write(s, bytes) => prop_assert_eq!(
                    asp.write(Addr(s.addr()), &bytes),
                    model.write(s.addr(), &bytes)
                ),
                Op::Read(s) => {
                    // Reads stay short enough to materialise.
                    let len = s.len.min(3 * PAGE_SIZE);
                    prop_assert_eq!(asp.read(Addr(s.addr()), len), model.read(s.addr(), len));
                }
                Op::PermsMatch(s, p) => prop_assert_eq!(
                    asp.perms_match(Addr(s.addr()), s.len, perms_of(p)),
                    model.perms_match(s.addr(), s.len, perms_of(p))
                ),
                Op::WriteEpoch(s) => prop_assert_eq!(
                    asp.write_epoch(Addr(s.addr()), s.len),
                    model.write_epoch(s.addr(), s.len)
                ),
                Op::PermsAt(s) => {
                    let at = s.addr() & !(PAGE_SIZE - 1);
                    prop_assert_eq!(
                        asp.perms_at(Addr(s.addr())),
                        model.pages.get(&at).map(|page| page.0)
                    );
                    prop_assert_eq!(asp.is_mapped(Addr(s.addr()), s.len), model.whole(s.addr(), s.len));
                }
            }
            prop_assert_eq!(asp.fingerprint(), model.fp);
            prop_assert_eq!(asp.page_count(), model.pages.len());
            prop_assert_eq!(asp.mapped_bytes(), model.pages.len() as u64 * PAGE_SIZE);
        }
    }
}

/// Runs one agent `munmap` of `len` bytes from the middle page of a
/// fresh three-page mapping on its own thread. Reports the result, the
/// pages left mapped and whether the agent still runs, or `None` when the
/// call panicked or had not returned after 10 s (a stalled thread cannot
/// be stopped, so it is left behind rather than joined).
fn munmap_mid_page(len: u64) -> Option<(SimResult<SyscallRet>, usize, bool)> {
    let (done, finished) = mpsc::channel();
    let call = std::thread::spawn(move || {
        let mut k = Kernel::new();
        let pid = k.spawn("agent");
        let base = k.alloc(pid, 3 * PAGE_SIZE, Perms::RW).unwrap();
        let ret = k.syscall(
            pid,
            Syscall::Munmap {
                addr: base.offset(PAGE_SIZE),
                len,
            },
        );
        let pages = k.process(pid).unwrap().aspace.page_count();
        done.send((ret, pages, k.is_running(pid))).unwrap();
    });
    let out = finished.recv_timeout(Duration::from_secs(10)).ok()?;
    call.join()
        .expect("the call thread already sent its result");
    Some(out)
}

/// An agent's `munmap` can neither panic the host nor stall it: a length
/// that wraps the address space is refused with `EINVAL`, as on Linux,
/// and a huge in-range length walks only the pages actually mapped.
#[test]
fn munmap_with_huge_lengths_neither_panics_nor_stalls() {
    let wrapped = munmap_mid_page(u64::MAX).expect("munmap of u64::MAX bytes panicked");
    assert_eq!(wrapped, (Err(SimError::Errno(Errno::Einval)), 3, true));
    let huge = munmap_mid_page(1 << 50).expect("munmap of 2^50 bytes stalled");
    assert_eq!(huge, (Ok(SyscallRet::Ok), 1, true));
}
