//! The object plane: host-side data definition, host dereferences,
//! the data plane's delivery choice and payload moves, re-protection
//! after moves, and the temporal-grant sweep that tears shared-memory
//! views down at framework-state transitions.
//!
//! Every payload delivery is one of three [`Delivery`] outcomes — the
//! paper's Lazy Data Copy decision (§4.3.2) plus a shared-memory
//! extension — and every byte-copying move goes through one counted
//! primitive, `copy_payload`.

use super::{CallError, Runtime, ThreadId};
use crate::partition::PartitionId;
use crate::policy::HostDataPlacement;
use crate::state::StateMachine;
use crate::trace::{AuditRecord, SpanPhase};
use freepart_frameworks::api::ApiId;
use freepart_frameworks::{ObjectId, ObjectKind, ObjectMeta};
use freepart_simos::{Perms, Pid, ShmId};

/// How one object's payload becomes visible to the process about to
/// use it. Chosen per object by `delivery_for`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delivery {
    /// Deep copy through the host on every call (the no-LDC ablation,
    /// Fig. 11-b): up to two counted copies, host-relayed.
    Eager,
    /// Lazy Data Copy: one direct agent→agent copy at dereference time
    /// (Fig. 11-a).
    Lazy,
    /// Zero-copy: the payload is promoted once into a kernel-owned
    /// shared-memory segment, and delivery grants + page-maps the
    /// consumer a view. Grants are *temporal*: out-of-state views are
    /// revoked at every framework-state transition.
    Shm,
}

impl Runtime {
    // ------------------------------------------------------------------
    // Host-side data
    // ------------------------------------------------------------------

    /// Allocates host-resident application data (the paper's annotated
    /// critical data structures, e.g. OMRChecker's `template`). The
    /// object participates in temporal protection.
    pub fn host_data(&mut self, label: &str, bytes: &[u8]) -> ObjectId {
        let home = match self.policy.host_data {
            HostDataPlacement::Host => self.host,
            HostDataPlacement::WithType(t) => {
                let p = self.policy.plan.partition_of_type(t);
                self.agents.get(&p).map_or(self.host, |a| a.pid)
            }
            HostDataPlacement::OwnProcessEach => self.kernel.spawn(&format!("data:{label}")),
        };
        let id = self
            .objects
            .create_with_data(&mut self.kernel, home, ObjectKind::Blob, label, bytes)
            .expect("data home is alive");
        if self.policy.host_data == HostDataPlacement::OwnProcessEach {
            self.pinned.insert(id, home);
        }
        self.define_everywhere(id);
        id
    }

    /// Creates a host-homed object of an arbitrary kind (driver-level
    /// plumbing for pipelines that need a pre-existing tensor/Mat).
    pub fn host_object(&mut self, kind: ObjectKind, label: &str, bytes: &[u8]) -> ObjectId {
        let id = self
            .objects
            .create_with_data(&mut self.kernel, self.host, kind, label, bytes)
            .expect("host is alive");
        self.define_everywhere(id);
        id
    }

    pub(super) fn define_on(&mut self, thread: ThreadId, id: ObjectId) {
        // First definer wins the ownership record: the owner index is
        // what lets the pooled hot paths (capability gate, per-tenant
        // grant sweeps, re-protection) skip every other tenant's state.
        self.owner_of.entry(id).or_insert(thread);
        self.states
            .entry(thread)
            .or_insert_with(|| StateMachine::new(self.policy.temporal_protection))
            .define(id);
    }

    /// Registers annotated host data with *every* live thread's state
    /// machine: critical data must stay protected no matter which thread
    /// drives the pipeline past its defining state.
    fn define_everywhere(&mut self, id: ObjectId) {
        self.shared_objs.insert(id);
        for sm in self.states.values_mut() {
            sm.define(id);
        }
    }

    /// Reads an object's payload from the host's perspective — a host
    /// dereference. Host-resident payloads short-circuit to a plain
    /// local read: no IPC, no timeline merge, no trace. Remote
    /// buffer-backed payloads are *copied* to the host (a counted
    /// non-lazy copy) without moving the object's home; remote
    /// shm-resident payloads are read through a host-mapped view of the
    /// segment — zero bytes copied.
    ///
    /// # Errors
    ///
    /// [`CallError::StateLost`] when the payload died with a crashed
    /// agent.
    pub fn fetch_bytes(&mut self, id: ObjectId) -> Result<Vec<u8>, CallError> {
        let meta = self
            .objects
            .meta(id)
            .ok_or(CallError::StateLost(id))?
            .clone();
        // Reading your own memory is just a read: skip the hazard merge
        // and the fetch machinery entirely. (A producer call can only
        // have made the host the home by migrating the payload back on
        // the host's own timeline, so the merge would be a no-op.)
        if meta.home == self.host {
            return self
                .objects
                .read_bytes(&mut self.kernel, id)
                .map_err(|_| CallError::StateLost(id));
        }
        // Batch hazard: dereferencing an object an open batch's member
        // touched forces the batch's frames out before the host reads.
        self.flush_batch_if_touched(id);
        // LDC-deref ordering: dereferencing a payload touched by an
        // in-flight call orders the host after that producing call.
        if let Some(&ns) = self.last_touch.get(&id) {
            self.kernel.advance_timeline_to(self.host, ns);
        }
        let fetch_t0 = self.trace_t0();
        let (bytes, len) = if let Some((seg, len)) = meta.shm {
            // Zero-copy host deref: grant the host a read-only view of
            // the segment once, then read through the mapping.
            self.grant_view(id, seg, self.host, Perms::R, len)?;
            let bytes = self
                .kernel
                .shm_read(self.host, seg)
                .map_err(|_| CallError::StateLost(id))?;
            (bytes, len)
        } else if let Some((addr, len)) = meta.buffer {
            let bytes = self
                .kernel
                .mem_read(meta.home, addr, len)
                .map_err(|_| CallError::StateLost(id))?;
            self.kernel.charge_copy(len);
            self.stats.host_copies += 1;
            self.charge_transport(len);
            (bytes, len)
        } else {
            return self
                .objects
                .read_bytes(&mut self.kernel, id)
                .map_err(|_| CallError::StateLost(id));
        };
        let (seq, thread, span) = (self.seq, ThreadId::MAIN, (None, None));
        self.trace_span(SpanPhase::HostFetch, seq, span, thread, fetch_t0, len);
        Ok(bytes)
    }

    /// Ships a pinned object back to its dedicated data process after a
    /// use (the per-access IPC of the code-based API+data baseline).
    pub(super) fn return_pinned(
        &mut self,
        seq: u64,
        thread: ThreadId,
        id: ObjectId,
    ) -> Result<(), CallError> {
        if let Some(&pin) = self.pinned.get(&id) {
            let home = self.objects.meta(id).map(|m| m.home);
            if home != Some(pin) && self.kernel.is_running(pin) {
                self.copy_back(seq, id, pin, thread, (None, None))?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Delivery choice and payload moves
    // ------------------------------------------------------------------

    /// Picks how one object bound for `partition` is delivered:
    /// segments stay on shared memory once promoted; payloads at or
    /// above the threshold in force for the partition (static policy,
    /// or the adaptive controller's per-partition knob) are promoted;
    /// everything else follows the LDC flag.
    fn delivery_for(&self, partition: PartitionId, meta: &ObjectMeta) -> Delivery {
        let promote = meta.buffer.is_some()
            && self
                .shm_threshold_for(partition)
                .is_some_and(|t| meta.len() >= t);
        if meta.shm.is_some() || promote {
            Delivery::Shm
        } else if self.policy.lazy_data_copy {
            Delivery::Lazy
        } else {
            Delivery::Eager
        }
    }

    /// Moves one object into the executing agent by the delivery its
    /// payload calls for, re-applying temporal protection afterwards.
    pub(super) fn move_to_agent(
        &mut self,
        thread: ThreadId,
        partition: PartitionId,
        seq: u64,
        obj: ObjectId,
        agent_pid: Pid,
    ) -> Result<(), CallError> {
        let meta = self
            .objects
            .meta(obj)
            .ok_or(CallError::StateLost(obj))?
            .clone();
        if meta.home == agent_pid {
            return Ok(());
        }
        if meta.is_empty() {
            // Buffer-less handles (windows, captures) carry no payload:
            // re-homing them is free and never lossy.
            self.objects
                .migrate_direct(&mut self.kernel, obj, agent_pid)
                .map_err(|_| CallError::StateLost(obj))?;
            return Ok(());
        }
        // A dead home loses buffer-backed payloads; segment payloads are
        // kernel-owned and survive their last user's crash.
        if meta.shm.is_none() && !self.kernel.is_running(meta.home) {
            return Err(CallError::StateLost(obj));
        }
        let copy_t0 = self.trace_t0();
        let phase = match self.delivery_for(partition, &meta) {
            Delivery::Shm => {
                self.deliver_shm(seq, obj, &meta, agent_pid)?;
                SpanPhase::ShmMap
            }
            Delivery::Eager => {
                // Through the host relay: hop 1 is skipped when the
                // payload already lives there.
                if meta.home != self.host {
                    self.copy_payload(seq, obj, self.host, Delivery::Eager)?;
                }
                self.copy_payload(seq, obj, agent_pid, Delivery::Eager)?;
                SpanPhase::DataCopy
            }
            Delivery::Lazy => {
                self.copy_payload(seq, obj, agent_pid, Delivery::Lazy)?;
                SpanPhase::DataCopy
            }
        };
        // The move span closes *before* re-protection so Reprotect time
        // attributes to the mprotect bucket, not the copy one.
        self.trace_span(phase, seq, (None, None), thread, copy_t0, meta.len());
        // Delivery is the only shm-promotion site: index the segment so
        // the revocation sweeps never rescan the whole object table.
        if self.objects.meta(obj).is_some_and(|m| m.shm.is_some()) {
            self.shm_index.insert(obj);
            if let Some(&owner) = self.owner_of.get(&obj) {
                self.shm_owned.entry(owner).or_default().insert(obj);
            }
        }
        self.reapply_all(obj);
        Ok(())
    }

    /// Zero-copy delivery: promotes a buffer-backed payload into a
    /// segment once (the kernel adopts the pages, so promotion copies
    /// nothing), grants + maps `agent` a view, and re-homes the object
    /// there. No payload byte crosses an address space.
    fn deliver_shm(
        &mut self,
        seq: u64,
        obj: ObjectId,
        meta: &ObjectMeta,
        agent: Pid,
    ) -> Result<(), CallError> {
        let len = meta.len();
        let seg = match meta.shm {
            Some((seg, _)) => seg,
            None => {
                let seg = self
                    .objects
                    .promote_to_shm(&mut self.kernel, obj)
                    .map_err(|_| CallError::StateLost(obj))?
                    .ok_or(CallError::StateLost(obj))?;
                self.audit_shm_grant(obj, seg, meta.home, len);
                seg
            }
        };
        // New grants inherit the segment's current lock level (the
        // current user's perms), so delivery cannot widen a temporal
        // read-only lock.
        let perms = self
            .kernel
            .shm_segment(seg)
            .and_then(|s| s.grant_of(meta.home))
            .unwrap_or(Perms::RW);
        self.grant_view(obj, seg, agent, perms, len)?;
        // Re-home: the agent is now the segment's current user. The
        // payload itself never moved — the registry records the mapped
        // length under `bytes_shm` so payload-size estimators keep
        // seeing this object's traffic after promotion.
        self.tracer.add_shm_bytes(seq, len);
        self.objects.rehome(obj, agent, None);
        Ok(())
    }

    /// Grants + maps `pid` a view of `obj`'s segment `seg`, unless it
    /// already holds one, auditing the new grant.
    pub(super) fn grant_view(
        &mut self,
        obj: ObjectId,
        seg: ShmId,
        pid: Pid,
        perms: Perms,
        bytes: u64,
    ) -> Result<(), CallError> {
        let viewed = self
            .kernel
            .shm_segment(seg)
            .is_some_and(|s| s.grant_of(pid).is_some() && s.is_mapped(pid));
        if !viewed {
            self.kernel
                .shm_grant(seg, pid, perms)
                .and_then(|()| self.kernel.shm_map(pid, seg))
                .map_err(|_| CallError::StateLost(obj))?;
            self.audit_shm_grant(obj, seg, pid, bytes);
        }
        Ok(())
    }

    /// Audits `pid`'s grant on `obj`'s segment (no-op when not tracing).
    fn audit_shm_grant(&mut self, object: ObjectId, segment: ShmId, pid: Pid, bytes: u64) {
        if self.tracer.enabled() {
            let at_ns = self.kernel.now_ns();
            self.tracer.record_audit(AuditRecord::ShmGrant {
                at_ns,
                object,
                segment,
                pid,
                bytes,
            });
        }
    }

    /// The one byte-copying payload move: migrates `obj` to `to` and,
    /// only when a payload buffer actually moved, counts the copy
    /// (`ldc_copies` for a lazy move, `host_copies` otherwise), bills the
    /// pipe penalty, and attributes the bytes to call `seq`.
    fn copy_payload(
        &mut self,
        seq: u64,
        obj: ObjectId,
        to: Pid,
        delivery: Delivery,
    ) -> Result<(), CallError> {
        let meta = self.objects.meta(obj).ok_or(CallError::StateLost(obj))?;
        let moved = meta.buffer.filter(|_| meta.home != to).map(|(_, len)| len);
        self.objects
            .migrate_direct(&mut self.kernel, obj, to)
            .map_err(|_| CallError::StateLost(obj))?;
        if let Some(len) = moved {
            if delivery == Delivery::Lazy {
                self.stats.ldc_copies += 1;
                self.tracer.add_lazy_bytes(seq, len);
            } else {
                self.stats.host_copies += 1;
                self.tracer.add_eager_bytes(seq, len);
            }
            self.charge_transport(len);
        }
        Ok(())
    }

    /// Copies `obj` back out of the agent that used it (to the host
    /// without LDC, or to a pinned object's data process) under a
    /// `DataCopy` span, then re-applies its temporal protection.
    pub(super) fn copy_back(
        &mut self,
        seq: u64,
        obj: ObjectId,
        to: Pid,
        thread: ThreadId,
        span: (Option<ApiId>, Option<PartitionId>),
    ) -> Result<(), CallError> {
        let len = self.objects.meta(obj).map_or(0, ObjectMeta::len);
        let copy_t0 = self.trace_t0();
        self.copy_payload(seq, obj, to, Delivery::Eager)?;
        self.trace_span(SpanPhase::DataCopy, seq, span, thread, copy_t0, len);
        self.reapply_all(obj);
        Ok(())
    }

    /// Charges the transport penalty for moving `bytes` over a pipe
    /// instead of shared memory.
    fn charge_transport(&mut self, bytes: u64) {
        let factor = self.policy.transport.penalty_factor();
        if factor > 1 {
            let base = self.kernel.cost_model().copy_cost(bytes);
            self.kernel.charge_time(base * (factor - 1));
        }
    }

    /// Re-applies temporal protection from whichever thread's machine
    /// tracks the object (after a migration re-materialized it writable).
    /// Owned objects consult only their owner's machine — O(1) in the
    /// thread/tenant count; shared (annotated host) data still scans
    /// every machine, as any thread may be protecting it.
    pub(super) fn reapply_all(&mut self, obj: ObjectId) {
        let threads: Vec<ThreadId> = match self.owner_of.get(&obj) {
            Some(&owner) if !self.shared_objs.contains(&obj) => self
                .states
                .get(&owner)
                .filter(|s| s.is_protected(obj))
                .map(|_| vec![owner])
                .unwrap_or_default(),
            _ => self
                .states
                .iter()
                .filter(|(_, s)| s.is_protected(obj))
                .map(|(t, _)| *t)
                .collect(),
        };
        if threads.is_empty() {
            return;
        }
        let tracing = self.tracer.enabled();
        let before = if tracing {
            Some((self.kernel.now_ns(), self.kernel.metrics().protected_pages))
        } else {
            None
        };
        for t in &threads {
            if let Some(sm) = self.states.get(t) {
                sm.reapply(&mut self.kernel, &self.objects, obj).ok();
            }
        }
        if let Some((t0, pages0)) = before {
            let pages = self.kernel.metrics().protected_pages - pages0;
            self.tracer.record_audit(AuditRecord::Reprotect {
                at_ns: t0,
                object: obj,
                pages,
            });
            let (seq, thread) = (self.seq, threads[0]);
            self.trace_span(SpanPhase::Reprotect, seq, (None, None), thread, t0, 0);
        }
    }

    /// Revokes every shared-memory view a dead process still holds —
    /// the shm half of reaping a crashed agent, run inside the same
    /// drain barrier as the respawn. One audit record per revoked view,
    /// exactly as at framework-state transitions. (The kernel's `reap`
    /// would drop the table entries silently; sweeping here first keeps
    /// revocation audited.)
    pub(super) fn revoke_views_of(&mut self, dead: Pid, seq: u64) {
        debug_assert!(self.shm_index_consistent(), "shm index drifted");
        let shm_objs: Vec<(ObjectId, ShmId)> = self
            .shm_index
            .iter()
            .filter_map(|&id| {
                self.objects
                    .meta(id)
                    .and_then(|m| m.shm.map(|(seg, _)| (id, seg)))
            })
            .collect();
        for (obj, seg) in shm_objs {
            self.revoke_view(obj, seg, dead, seq);
        }
    }

    /// The temporal-grant sweep: at a framework-state transition, every
    /// shared-memory view held by a process other than the segment's
    /// current user is revoked — the segment analogue of the mprotect
    /// storm. Runs inside the drain barrier (no call in flight), so a
    /// stale agent's next access faults instead of racing the sweep.
    /// One audit record per revoked `(segment, pid)` pair.
    pub(super) fn revoke_out_of_state_grants(&mut self, seq: u64) {
        debug_assert!(self.shm_index_consistent(), "shm index drifted");
        let objs: Vec<ObjectId> = self.shm_index.iter().copied().collect();
        self.revoke_stale_grants_on(&objs, seq);
    }

    /// Per-tenant grant sweep for pooled mode: only the transitioning
    /// tenant's segments (plus shared annotated data, which its state
    /// machine also locks) are swept — O(1) in the tenant count, where
    /// the global sweep is O(total shm objects).
    pub(super) fn revoke_out_of_state_grants_for(&mut self, thread: ThreadId, seq: u64) {
        let mut objs: Vec<ObjectId> = self
            .shm_owned
            .get(&thread)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for &obj in &self.shared_objs {
            if self.shm_index.contains(&obj) {
                objs.push(obj);
            }
        }
        objs.sort_unstable();
        objs.dedup();
        self.revoke_stale_grants_on(&objs, seq);
    }

    /// Revokes every grant on `objs`' segments held by a process other
    /// than the segment's current home. Ascending object order — the
    /// same order the pre-index full table scan produced, so audit logs
    /// and replay digests are unchanged.
    fn revoke_stale_grants_on(&mut self, objs: &[ObjectId], seq: u64) {
        for &obj in objs {
            let Some((seg, home)) = self
                .objects
                .meta(obj)
                .and_then(|m| m.shm.map(|(seg, _)| (seg, m.home)))
            else {
                continue;
            };
            let stale: Vec<Pid> = self
                .kernel
                .shm_segment(seg)
                .map(|s| s.grants().map(|(p, _)| p).filter(|p| *p != home).collect())
                .unwrap_or_default();
            for pid in stale {
                self.revoke_view(obj, seg, pid, seq);
            }
        }
    }

    /// Revokes `pid`'s view of `obj`'s segment, auditing it when a grant
    /// was actually held.
    fn revoke_view(&mut self, object: ObjectId, segment: ShmId, pid: Pid, seq: u64) {
        if self.kernel.shm_revoke(segment, pid).unwrap_or(false) && self.tracer.enabled() {
            let at_ns = self.kernel.now_ns();
            self.tracer.record_audit(AuditRecord::ShmRevoke {
                at_ns,
                object,
                segment,
                pid,
                seq,
            });
        }
    }

    /// Debug-build invariant: the shm index names exactly the objects the
    /// store holds segment-backed.
    fn shm_index_consistent(&self) -> bool {
        let full: std::collections::BTreeSet<ObjectId> = self
            .objects
            .iter()
            .filter_map(|m| m.shm.map(|_| m.id))
            .collect();
        full == self.shm_index
    }
}
