//! The kernel state digest, maintained incrementally.
//!
//! [`KernelState::digest`] is asked for after every recorded op and
//! every replayed step, so it must not cost a walk over the whole
//! kernel. It is a keyed **additive set hash**: the wrapping sum of one
//! term `H(tag, key, fingerprint)` per entity —
//!
//! * each process (`key` = pid): name, lifecycle state, no-new-privs
//!   bit, cpu time, address-space fingerprint and page count, fd table,
//!   and filter (its allowlist fingerprint is cached at install);
//! * each IPC channel (`key` = channel id): traffic fingerprint and
//!   both endpoints;
//! * each shared-memory segment (`key` = segment id): payload
//!   fingerprint, write epoch, and the grant table with mapped flags;
//! * each per-process timeline (`key` = pid): its virtual time;
//! * each scalar (`key` = its slot): the metrics counters, the global
//!   clock, timeline mode, time context, id high-water marks, entropy
//!   stream, and the file-system, camera, display and network
//!   fingerprints.
//!
//! A changed entity swaps its old term for its new one in O(1), so a
//! digest costs O(entities changed since the last digest), not
//! O(kernel).
//!
//! **The dirty-mark invariant.** Every mutation of a process, channel,
//! segment or timeline through `&mut KernelState` marks that entity
//! before the next digest is taken: the core reaches them only through
//! the marking accessors below ([`KernelState::process_mut`] and
//! friends) or marks explicitly where it inserts or removes one.
//! Scalars need no marks: a fold reads them all and diffs them against
//! the values it folded last, so even the public device and file-system
//! fields stay covered however they are reached. Marks are
//! kept only once a digest has been asked for: a kernel that never
//! records pays one flag test per mark, and its first digest folds
//! everything from scratch.
//!
//! [`KernelState::digest_reference`] recomputes the same sum from
//! scratch, with no cache; it is the oracle the incremental digest is
//! tested against, and what [`audit`](crate::replay::audit) checks the
//! digest against once per trace.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::commit::{fold_word as fold, hash_str, OpSummary};
use crate::cost::VirtualClock;
use crate::error::{SimError, SimResult};
use crate::filter::SyscallFilter;
use crate::ipc::{ChannelId, RingChannel};
use crate::metrics::COUNTERS;
use crate::process::{FdTarget, Pid, ProcessState, SimProcess};
use crate::shm::{ShmId, ShmSegment};

use super::state::{KernelState, TimelineMode};

const TAG_SCALAR: u64 = 1;
const TAG_TIMELINE: u64 = 3;
const TAG_PROCESS: u64 = 4;
const TAG_CHANNEL: u64 = 5;
const TAG_SEGMENT: u64 = 6;

/// The murmur3 64-bit finalizer: a bijective avalanche.
fn fmix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// One entity's contribution to the digest sum. Bijective in `fp` for
/// a fixed `(tag, key)`, so an entity that changes always moves the sum.
fn term(tag: u64, key: u64, fp: u64) -> u64 {
    fmix(fp ^ fmix(key ^ tag.rotate_right(8)))
}

/// Fingerprint of a filter's allowlist (the lock bit is folded
/// separately, since `prctl` can flip it on an installed filter).
pub(crate) fn filter_fingerprint(filter: &SyscallFilter) -> u64 {
    filter
        .allowed_numbers()
        .fold(filter.len() as u64, |h, no| fold(h, no as u64))
}

/// Fingerprint of a process, given its name and filter fingerprints
/// (cached by the incremental digest, recomputed by the reference).
fn process_fp(p: &SimProcess, name_fp: u64, filter_fp: u64) -> u64 {
    let mut h = fold(name_fp, u64::from(p.no_new_privs));
    h = match &p.state {
        ProcessState::Running => fold(h, 1),
        ProcessState::Exited(code) => fold(fold(h, 2), *code as u64),
        ProcessState::Crashed(f) => fold(fold(h, 3), f.summary()),
    };
    h = fold(h, p.cpu_ns);
    h = fold(h, p.aspace.fingerprint());
    h = fold(h, p.aspace.page_count() as u64);
    h = fold(h, u64::from(p.next_fd));
    h = fold(h, p.fd_table.len() as u64);
    for (fd, target) in &p.fd_table {
        h = fold(h, u64::from(fd.0));
        h = match target {
            FdTarget::File { path, offset } => fold(fold(fold(h, 1), hash_str(path)), *offset),
            FdTarget::Device(kind) => fold(fold(h, 2), *kind as u64),
            FdTarget::Socket { dest } => fold(fold(h, 3), hash_str(dest)),
        };
    }
    match &p.filter {
        None => fold(h, 0),
        Some(f) => fold(fold(fold(h, 1), u64::from(f.is_locked())), filter_fp),
    }
}

fn channel_fp(ch: &RingChannel) -> u64 {
    fold(fold(ch.fingerprint(), u64::from(ch.a.0)), u64::from(ch.b.0))
}

fn segment_fp(seg: &ShmSegment) -> u64 {
    let mut h = fold(seg.fingerprint(), seg.write_epoch());
    for (pid, perms) in seg.grants() {
        h = fold(fold(h, u64::from(pid.0)), u64::from(perms.bits()));
        h = fold(h, u64::from(seg.is_mapped(pid)));
    }
    h
}

fn timeline_term(pid: Pid, clock: &VirtualClock) -> u64 {
    term(TAG_TIMELINE, u64::from(pid.0), clock.now_ns())
}

fn scalar_term(slot: usize, value: u64) -> u64 {
    term(TAG_SCALAR, slot as u64, value)
}

/// Scalar slots: the counters, then the header words.
const SCALARS: usize = COUNTERS + 16;

/// One entity kind's folded terms and dirty marks, by id. Sparse, since
/// ids come from ops: a forged log can name any pid or segment.
#[derive(Default)]
struct Slots {
    /// The term each id last contributed to the sum (absent: 0).
    terms: BTreeMap<u64, u64>,
    /// Ids marked since the last fold, repeats allowed; compacted as it
    /// grows so it stays within twice the distinct ids marked.
    marked: Vec<u64>,
    /// Length at which `marked` is next compacted.
    compact_at: usize,
}

impl Slots {
    fn mark(&mut self, id: u64) {
        if self.marked.last() == Some(&id) {
            return;
        }
        if self.marked.len() >= self.compact_at {
            self.marked.sort_unstable();
            self.marked.dedup();
            self.compact_at = (2 * self.marked.len()).max(64);
        }
        self.marked.push(id);
    }

    /// Swaps every marked id's old term in `sum` for `term_of(id)`
    /// (0 for an entity that no longer exists) and clears the marks.
    fn refold(&mut self, sum: &mut u64, term_of: impl Fn(u64) -> u64) {
        self.marked.sort_unstable();
        self.marked.dedup();
        for &id in &self.marked {
            let new = term_of(id);
            let old = if new == 0 {
                self.terms.remove(&id)
            } else {
                self.terms.insert(id, new)
            };
            *sum = sum.wrapping_sub(old.unwrap_or(0)).wrapping_add(new);
        }
        self.marked.clear();
    }
}

/// The incremental digest's cache: the running sum, per-entity terms,
/// the dirty marks not yet folded, and the scalar values folded last.
pub(crate) struct DigestCache {
    /// False until the first digest; while false nothing is marked.
    on: bool,
    /// Sum of every folded entity and scalar term.
    sum: u64,
    procs: Slots,
    channels: Slots,
    segments: Slots,
    timelines: Slots,
    scalars: [u64; SCALARS],
}

impl Default for DigestCache {
    fn default() -> Self {
        DigestCache {
            on: false,
            sum: 0,
            procs: Slots::default(),
            channels: Slots::default(),
            segments: Slots::default(),
            timelines: Slots::default(),
            scalars: [0; SCALARS],
        }
    }
}

/// The cache as a field of [`KernelState`]: written through `&mut` by
/// the marking accessors, folded through `&self` by
/// [`KernelState::digest`].
pub(crate) type Cache = RefCell<DigestCache>;

impl KernelState {
    /// Digest of the complete observable kernel state: clocks and
    /// timelines, counters, every process (address-space fingerprint,
    /// state, filter, fd table), channels, segments and their grant
    /// tables, the file system, and devices. Two states that evolved
    /// through the same transition sequence report the same digest; the
    /// replayer compares this after every re-applied op.
    ///
    /// Incremental (see the [module docs](self)): the cost is
    /// O(entities changed since the previous digest) — a process, a
    /// channel, a segment or a timeline each refold in O(its own size),
    /// never O(memory) — plus a constant for the scalars. The first
    /// digest of a state folds everything once.
    pub fn digest(&self) -> u64 {
        let mut cache = self.digest_cache.borrow_mut();
        let c = &mut *cache;
        if !c.on {
            *c = DigestCache {
                on: true,
                ..DigestCache::default()
            };
            c.sum = (0..SCALARS)
                .map(|i| scalar_term(i, 0))
                .fold(0, u64::wrapping_add);
            self.procs.keys().for_each(|p| c.procs.mark(p.0.into()));
            self.channels
                .keys()
                .for_each(|i| c.channels.mark(i.0.into()));
            self.shm.keys().for_each(|i| c.segments.mark(i.0));
            self.timelines
                .keys()
                .for_each(|p| c.timelines.mark(p.0.into()));
        }
        let scalars = self.scalars();
        for (i, (&new, old)) in scalars.iter().zip(c.scalars.iter_mut()).enumerate() {
            if new != *old {
                c.sum = c
                    .sum
                    .wrapping_sub(scalar_term(i, *old))
                    .wrapping_add(scalar_term(i, new));
                *old = new;
            }
        }
        c.procs.refold(&mut c.sum, |id| {
            self.procs.get(&Pid(id as u32)).map_or(0, |p| {
                term(TAG_PROCESS, id, process_fp(p, p.name_fp, p.filter_fp))
            })
        });
        c.channels.refold(&mut c.sum, |id| {
            self.channels
                .get(&ChannelId(id as u32))
                .map_or(0, |ch| term(TAG_CHANNEL, id, channel_fp(ch)))
        });
        c.segments.refold(&mut c.sum, |id| {
            self.shm
                .get(&ShmId(id))
                .map_or(0, |seg| term(TAG_SEGMENT, id, segment_fp(seg)))
        });
        c.timelines.refold(&mut c.sum, |id| {
            let pid = Pid(id as u32);
            self.timelines
                .get(&pid)
                .map_or(0, |clock| timeline_term(pid, clock))
        });
        c.sum
    }

    /// [`KernelState::digest`] recomputed from scratch: every entity's
    /// term, name and filter fingerprints included, with no cache and no
    /// marks. Equal to `digest()` whenever the dirty-mark invariant
    /// holds — the oracle for tests and for the once-per-trace
    /// `digest-drift` audit rule. O(kernel); never on a hot path.
    pub fn digest_reference(&self) -> u64 {
        let mut sum = 0u64;
        for (i, &v) in self.scalars().iter().enumerate() {
            sum = sum.wrapping_add(scalar_term(i, v));
        }
        for (pid, clock) in &self.timelines {
            sum = sum.wrapping_add(timeline_term(*pid, clock));
        }
        for (pid, p) in &self.procs {
            let filter_fp = p.filter.as_ref().map_or(0, filter_fingerprint);
            let fp = process_fp(p, hash_str(&p.name), filter_fp);
            sum = sum.wrapping_add(term(TAG_PROCESS, u64::from(pid.0), fp));
        }
        for (id, ch) in &self.channels {
            sum = sum.wrapping_add(term(TAG_CHANNEL, u64::from(id.0), channel_fp(ch)));
        }
        for (id, seg) in &self.shm {
            sum = sum.wrapping_add(term(TAG_SEGMENT, id.0, segment_fp(seg)));
        }
        sum
    }

    /// Every scalar slot: the counters, then the clock, timeline mode,
    /// time context, id high-water marks, entropy stream, and the
    /// file-system, camera, display and network fingerprints (each O(1)
    /// or tiny), read afresh on every digest.
    fn scalars(&self) -> [u64; SCALARS] {
        let mut out = [0; SCALARS];
        out[..COUNTERS].copy_from_slice(&self.metrics.counters());
        let [e0, e1, e2, e3] = self.entropy.words();
        let (ctx_set, ctx) = self.time_ctx.map_or((0, 0), |pid| (1, u64::from(pid.0)));
        let (cam_set, cam) = self
            .camera
            .as_ref()
            .map_or((0, 0), |c| (1, c.fingerprint()));
        out[COUNTERS..].copy_from_slice(&[
            self.clock.now_ns(),
            u64::from(self.mode == TimelineMode::PerProcess),
            ctx_set,
            ctx,
            u64::from(self.next_pid),
            u64::from(self.next_channel),
            self.next_shm,
            e0,
            e1,
            e2,
            e3,
            self.fs.fingerprint(),
            cam_set,
            cam,
            self.display.fingerprint(),
            self.network.fingerprint(),
        ]);
        out
    }

    // ------------------------------------------------------------------
    // Marking accessors: the only ways the core mutates an entity
    // ------------------------------------------------------------------

    fn marks(&mut self) -> Option<&mut DigestCache> {
        let c = self.digest_cache.get_mut();
        c.on.then_some(c)
    }

    /// Marks `pid`'s process entry for the next digest fold (spawn and
    /// reap, which insert or remove it).
    pub(crate) fn mark_process(&mut self, pid: Pid) {
        if let Some(c) = self.marks() {
            c.procs.mark(pid.0.into());
        }
    }

    /// Marks segment `id` (creation, destruction, reap purges).
    pub(crate) fn mark_segment(&mut self, id: ShmId) {
        if let Some(c) = self.marks() {
            c.segments.mark(id.0);
        }
    }

    /// Marks channel `id` (creation).
    pub(crate) fn mark_channel(&mut self, id: ChannelId) {
        if let Some(c) = self.marks() {
            c.channels.mark(id.0.into());
        }
    }

    /// Marks `pid`'s timeline (creation, reset).
    pub(crate) fn mark_timeline(&mut self, pid: Pid) {
        if let Some(c) = self.marks() {
            c.timelines.mark(pid.0.into());
        }
    }

    /// Mutable access to a process, marked for the next digest.
    pub(crate) fn process_mut(&mut self, pid: Pid) -> SimResult<&mut SimProcess> {
        self.mark_process(pid);
        self.procs.get_mut(&pid).ok_or(SimError::NoSuchProcess(pid))
    }

    /// Mutable access to a segment if it exists, marked for the next
    /// digest.
    pub(crate) fn segment_mut(&mut self, id: ShmId) -> Option<&mut ShmSegment> {
        self.mark_segment(id);
        self.shm.get_mut(&id)
    }

    /// Mutable access to a channel if it exists, marked for the next
    /// digest.
    pub(crate) fn channel_mut(&mut self, id: ChannelId) -> Option<&mut RingChannel> {
        self.mark_channel(id);
        self.channels.get_mut(&id)
    }

    /// `pid`'s timeline, created at zero if missing, marked for the
    /// next digest.
    pub(crate) fn timeline_mut(&mut self, pid: Pid) -> &mut VirtualClock {
        self.mark_timeline(pid);
        self.timelines.entry(pid).or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::CommitOp;
    use crate::core::effects::{Counter, Effects};
    use crate::core::step::step;
    use crate::error::FaultKind;
    use crate::filter::SyscallFilter;
    use crate::mem::Perms;
    use crate::syscall::{Fd, SyscallNo};

    /// The entities of a [`populated`] state.
    struct Ids {
        a: Pid,
        b: Pid,
        ch: ChannelId,
        id: ShmId,
    }

    /// A state with one of everything the digest covers: two processes
    /// (one with an open file and a filter), a channel, a segment
    /// granted and mapped to both, and per-process timelines.
    fn populated() -> (KernelState, Ids) {
        let mut s = KernelState::new();
        let mut fx = Effects::new();
        let mut run = |s: &mut KernelState, op| step(s, op, &mut fx).expect("fixture op");
        run(&mut s, CommitOp::EnablePerProcessTime);
        run(&mut s, CommitOp::Spawn { name: "a".into() });
        run(&mut s, CommitOp::Spawn { name: "b".into() });
        let (a, b) = (Pid(1), Pid(2));
        run(
            &mut s,
            CommitOp::FsPut {
                path: "/f".into(),
                bytes: vec![1; 64],
            },
        );
        run(
            &mut s,
            CommitOp::Syscall {
                pid: a,
                call: crate::Syscall::Openat {
                    path: "/f".into(),
                    create: false,
                },
            },
        );
        let filter = SyscallFilter::allowing([SyscallNo::Read, SyscallNo::Lseek]);
        run(&mut s, CommitOp::InstallFilter { pid: a, filter });
        run(
            &mut s,
            CommitOp::CreateChannel {
                a,
                b,
                capacity: 1 << 12,
            },
        );
        run(
            &mut s,
            CommitOp::ShmCreate {
                owner: a,
                bytes: vec![7; 100],
            },
        );
        let id = ShmId(0);
        run(
            &mut s,
            CommitOp::ShmGrant {
                id,
                pid: b,
                perms: Perms::R,
            },
        );
        run(&mut s, CommitOp::ShmMap { pid: b, id });
        let ch = ChannelId(0);
        (s, Ids { a, b, ch, id })
    }

    /// Applies `change` to a fresh [`populated`] state, digested before
    /// and after, and asserts the digest moved and still equals the
    /// from-scratch reference.
    fn assert_covered(what: &str, change: impl FnOnce(&mut KernelState, &Ids)) {
        let (mut s, ids) = populated();
        let before = s.digest();
        assert_eq!(before, s.digest_reference(), "{what}: fixture drifted");
        change(&mut s, &ids);
        let after = s.digest();
        assert_ne!(before, after, "{what}: digest blind to the change");
        assert_eq!(after, s.digest_reference(), "{what}: incremental drifted");
    }

    #[test]
    fn every_covered_field_moves_the_digest() {
        assert_covered("timeline", |s, x| s.timeline_mut(x.a).charge(1));
        assert_covered("fd offset", |s, x| {
            match s.process_mut(x.a).unwrap().fd_table.get_mut(&Fd(3)) {
                Some(FdTarget::File { offset, .. }) => *offset += 1,
                other => panic!("fixture fd: {other:?}"),
            }
        });
        assert_covered("filter lock", |s, x| {
            s.process_mut(x.a).unwrap().filter.as_mut().unwrap().lock();
        });
        assert_covered("process state", |s, x| {
            let fault = crate::Fault {
                pid: x.b,
                kind: FaultKind::Abort,
                addr: None,
            };
            s.process_mut(x.b).unwrap().state = ProcessState::Crashed(fault);
        });
        assert_covered("cpu time", |s, x| s.process_mut(x.b).unwrap().cpu_ns += 1);
        assert_covered("grant perms", |s, x| {
            s.segment_mut(x.id).unwrap().grants.insert(x.b, Perms::RW);
        });
        assert_covered("mapped flag", |s, x| {
            s.segment_mut(x.id).unwrap().mapped.remove(&x.b);
        });
        assert_covered("channel endpoint", |s, x| {
            s.channel_mut(x.ch).unwrap().rebind_b(x.a);
        });
        // Pid 1 on purpose: its outcome summary aliases `None`.
        assert_covered("time context", |s, x| s.time_ctx = Some(x.a));
        assert_covered("global clock", |s, _| s.clock.charge(1));
        assert_covered("display", |s, _| s.display.push_key(b'q'));
        assert_covered("network", |s, _| s.network.record(1, "x", b"y"));
        assert_covered("file system", |s, _| s.fs.put("/g", vec![1]));
        assert_covered("camera", |s, _| s.camera = Some(crate::Camera::new(1, 8)));
        for counter in Counter::ALL {
            assert_covered(&format!("{counter:?}"), |s, _| {
                counter.apply(&mut s.metrics, 1)
            });
        }
    }

    #[test]
    fn ids_far_past_any_minted_one_are_marked_sparsely() {
        // Ops name ids freely (a forged log can name any): a mark must
        // not size anything by the id it names.
        let (mut s, Ids { b, .. }) = populated();
        let _ = s.digest();
        let mut fx = Effects::new();
        let kill = crate::Syscall::Kill {
            target_pid: u32::MAX,
        };
        for op in [
            CommitOp::Syscall { pid: b, call: kill },
            CommitOp::AdvanceTimeline {
                pid: Pid(u32::MAX),
                ns: 5,
            },
            CommitOp::ShmGrant {
                id: ShmId(u64::MAX),
                pid: b,
                perms: Perms::R,
            },
            CommitOp::IpcRecv {
                pid: b,
                chan: ChannelId(u32::MAX),
            },
        ] {
            let _ = step(&mut s, op, &mut fx);
        }
        assert_eq!(s.digest(), s.digest_reference());
    }

    #[test]
    fn first_digest_folds_a_state_built_unmarked() {
        // Nothing is marked before the first digest; it folds all.
        let (s, _) = populated();
        assert_eq!(s.digest(), s.digest_reference());
        assert_eq!(s.digest(), s.digest(), "a digest changes nothing");
    }

    #[test]
    fn removed_entities_leave_the_sum() {
        let (mut s, Ids { b, ch, id, .. }) = populated();
        let full = s.digest();
        let mut fx = Effects::new();
        step(
            &mut s,
            CommitOp::DeliverFault {
                pid: b,
                kind: FaultKind::Abort,
                addr: None,
            },
            &mut fx,
        )
        .unwrap();
        step(&mut s, CommitOp::Reap { pid: b }, &mut fx).unwrap();
        step(&mut s, CommitOp::ShmDestroy { id }, &mut fx).unwrap();
        assert_ne!(s.digest(), full);
        assert_eq!(s.digest(), s.digest_reference());
        assert!(s.channels.contains_key(&ch));
    }
}
