//! Pooled multi-tenant serving: N concurrent pipelines share the four
//! `part0..part3` agent processes instead of spawning a set each.
//!
//! The per-thread model (§6 of the paper) isolates threads by giving
//! each its own agents — 5N processes for N pipelines. The pooled mode
//! keeps the paper's isolation *boundaries* (address spaces, temporal
//! permissions, sealed filters) but shares the agent processes: 4 + N
//! processes, where each tenant contributes only its own lightweight
//! pipeline context. Three mechanisms make the sharing safe and fair:
//!
//! * **Tenant namespaces** — every object records its defining tenant
//!   (`Runtime::owner_of`); the dispatch gate refuses any call that
//!   names another tenant's object before a single payload byte moves,
//!   with a [`AuditRecord::CrossTenantDenied`] audit entry.
//! * **Capability slots** — each shared agent keeps a per-tenant table
//!   of admitted object handles (`Agent::caps`), minted on the owning
//!   tenant's own calls and carried across restarts with the journal,
//!   so a respawned agent re-admits every namespace.
//! * **Fair scheduling** — submissions enqueue into per-pool
//!   deficit-round-robin run queues
//!   ([`DrrScheduler`](freepart_simos::DrrScheduler)); `pump` drains
//!   them so a chatty tenant cannot starve the rest (bounded by the
//!   quantum, asserted by the starvation-freedom proptests).

use super::{CallError, Runtime, ThreadId};
use crate::partition::PartitionId;
use crate::trace::AuditRecord;
use freepart_frameworks::api::ApiId;
use freepart_frameworks::{ObjectId, Value};
use freepart_simos::Perms;
use std::fmt;

/// Identifier of one tenant pipeline in pooled mode. Wraps the tenant's
/// application-thread number: tenant `t` drives framework state and
/// owns objects as `ThreadId(t)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The application thread this tenant's calls run on.
    pub fn thread(self) -> ThreadId {
        ThreadId(self.0)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Handle to a queued pooled call ([`Runtime::tenant_submit`]). Redeem
/// with [`Runtime::tenant_wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantHandle(pub(super) u64);

impl TenantHandle {
    /// The ticket id of the queued call.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// One queued (or completed) pooled call, with the scheduler snapshots
/// that turn its completion into a fairness measurement.
#[derive(Debug)]
pub(super) struct Ticket {
    tenant: TenantId,
    api: ApiId,
    args: Vec<Value>,
    /// Items already queued for this tenant at submission (backlog
    /// position — feeds the starvation bound).
    own_ahead: usize,
    /// Virtual time at submission.
    enqueue_ns: u64,
    /// Pool items served when this ticket enqueued.
    pool_served_at: u64,
    /// This tenant's served cost on the pool when the ticket enqueued.
    tenant_served_at: u64,
    /// The outcome, once pumped.
    done: Option<Result<Value, CallError>>,
    /// Enqueue → retirement, virtual ns.
    latency_ns: Option<u64>,
    /// Items served to *other* tenants of the same pool between this
    /// ticket's enqueue and its dequeue.
    foreign_served: Option<u64>,
}

impl Runtime {
    // ------------------------------------------------------------------
    // Tenant lifecycle
    // ------------------------------------------------------------------

    /// Admits a new tenant pipeline to the shared pools: one fresh
    /// framework-state machine and one lightweight pipeline process —
    /// *no* agent set. The whole point of pooling: process count grows
    /// 4 + N, not 5N.
    ///
    /// # Panics
    ///
    /// When the runtime was not installed with [`crate::policy::Policy::pooled`]
    /// set (use [`crate::policy::Policy::freepart_pooled`]).
    pub fn spawn_tenant(&mut self) -> TenantId {
        assert!(
            self.pool_sched.is_some(),
            "spawn_tenant requires Policy::pooled (see Policy::freepart_pooled)"
        );
        let thread = ThreadId(self.next_thread);
        self.next_thread += 1;
        self.states.insert(
            thread,
            crate::state::StateMachine::new(self.policy.temporal_protection),
        );
        let pid = self.kernel.spawn(&format!("tenant:{}", thread.0));
        self.tenant_pids.insert(thread.0, pid);
        TenantId(thread.0)
    }

    /// One tenant's pipeline process. Grants in the kernel's segment
    /// tables name this pid, which is what lets a leak verdict ("no
    /// view of the victim's segment was ever granted to the attacker")
    /// be re-derived from a commit-log replay alone.
    pub fn tenant_pid(&self, tenant: TenantId) -> Option<freepart_simos::Pid> {
        self.tenant_pids.get(&tenant.0).copied()
    }

    /// Pooled process census: `(shared agents, tenant processes)`. The
    /// deployment's total is the sum plus the host — versus
    /// `5N` (agents × tenants + contexts) for per-tenant agent sets.
    pub fn pooled_process_count(&self) -> (usize, usize) {
        (self.agents.len(), self.tenant_pids.len())
    }

    // ------------------------------------------------------------------
    // The pooled call interface
    // ------------------------------------------------------------------

    /// Queues one hooked call for `tenant` into its API's pool run
    /// queue. The call executes when the deficit-round-robin scheduler
    /// reaches it (see [`Runtime::pump_one`] / [`Runtime::tenant_wait`]).
    ///
    /// # Errors
    ///
    /// [`CallError::UnknownApi`] for names outside the registry.
    pub fn tenant_submit(
        &mut self,
        tenant: TenantId,
        name: &str,
        args: &[Value],
    ) -> Result<TenantHandle, CallError> {
        let api = self
            .reg
            .id_of(name)
            .ok_or_else(|| CallError::UnknownApi(name.to_owned()))?;
        let pool = self.partition_of(api);
        let sched = self
            .pool_sched
            .as_mut()
            .expect("tenant_submit requires pooled mode");
        let ticket_id = self.next_ticket;
        self.next_ticket += 1;
        let own_ahead = sched.enqueue(pool.0, tenant.0, ticket_id, 1);
        let pool_served_at = sched.served(pool.0);
        let tenant_served_at = sched.served_cost(pool.0, tenant.0);
        self.tickets.insert(
            ticket_id,
            Ticket {
                tenant,
                api,
                args: args.to_vec(),
                own_ahead,
                enqueue_ns: self.kernel.now_ns(),
                pool_served_at,
                tenant_served_at,
                done: None,
                latency_ns: None,
                foreign_served: None,
            },
        );
        Ok(TenantHandle(ticket_id))
    }

    /// Serves the next queued pooled call in scheduler order: pools are
    /// visited round-robin, tenants within a pool deficit-round-robin.
    /// Returns the completed call's handle, or `None` when every run
    /// queue is idle.
    pub fn pump_one(&mut self) -> Option<TenantHandle> {
        let pools: Vec<PartitionId> = self.routes.partitions.iter().copied().collect();
        if pools.is_empty() {
            return None;
        }
        let n = pools.len();
        for i in 0..n {
            let pool = pools[(self.pool_cursor + i) % n];
            let dequeued = self.pool_sched.as_mut()?.dequeue(pool.0);
            let Some((_, ticket_id)) = dequeued else {
                continue;
            };
            self.pool_cursor = (self.pool_cursor + i + 1) % n;
            let t = self.tickets.get_mut(&ticket_id).expect("queued ticket");
            let tenant = t.tenant;
            let api = t.api;
            let args = std::mem::take(&mut t.args);
            // Fairness accounting happens at dequeue: the sum below
            // includes this item for both counters, so they cancel.
            let sched = self.pool_sched.as_ref().expect("pooled");
            let foreign = (sched.served(pool.0) - t.pool_served_at)
                .saturating_sub(sched.served_cost(pool.0, tenant.0) - t.tenant_served_at);
            let outcome = self
                .submit(tenant.thread(), api, &args, &[])
                .and_then(|h| self.wait(h));
            let now = self.kernel.now_ns();
            let t = self.tickets.get_mut(&ticket_id).expect("queued ticket");
            let latency = now.saturating_sub(t.enqueue_ns);
            t.done = Some(outcome);
            t.latency_ns = Some(latency);
            t.foreign_served = Some(foreign);
            self.tenant_lat.entry(tenant.0).or_default().push(latency);
            return Some(TenantHandle(ticket_id));
        }
        None
    }

    /// Drains every pool run queue ([`Runtime::pump_one`] to idle).
    pub fn pump_all(&mut self) {
        while self.pump_one().is_some() {}
    }

    /// Retires a pooled call: pumps the scheduler until `handle`'s
    /// ticket completes and returns its outcome. Waiting on an
    /// already-completed ticket returns the cached outcome.
    ///
    /// # Errors
    ///
    /// The queued call's own [`CallError`], or [`CallError::UnknownApi`]
    /// for a handle this runtime never issued.
    pub fn tenant_wait(&mut self, handle: TenantHandle) -> Result<Value, CallError> {
        loop {
            match self.tickets.get(&handle.0) {
                None => {
                    return Err(CallError::UnknownApi(format!(
                        "unknown pooled ticket {}",
                        handle.0
                    )))
                }
                Some(t) if t.done.is_some() => {
                    return self.tickets[&handle.0].done.clone().expect("checked above");
                }
                Some(_) => {
                    if self.pump_one().is_none() {
                        return Err(CallError::UnknownApi(format!(
                            "pooled ticket {} stuck: scheduler idle",
                            handle.0
                        )));
                    }
                }
            }
        }
    }

    /// Synchronous pooled call: [`Runtime::tenant_submit`] followed by
    /// [`Runtime::tenant_wait`]. Note the wait may serve *other*
    /// tenants' queued calls first — that is the fairness contract.
    ///
    /// # Errors
    ///
    /// See [`CallError`].
    pub fn call_tenant(
        &mut self,
        tenant: TenantId,
        name: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        let h = self.tenant_submit(tenant, name, args)?;
        self.tenant_wait(h)
    }

    // ------------------------------------------------------------------
    // Tenant data plane
    // ------------------------------------------------------------------

    /// Reads an object's payload from one tenant's perspective, through
    /// the capability gate: foreign objects are denied (and audited)
    /// without touching a byte. Segment-backed payloads are read through
    /// a view granted to the *tenant's own process* — so the grant
    /// table itself records which tenant can see which segment, and the
    /// cross-tenant-leak verdict can be re-derived from the commit log.
    ///
    /// # Errors
    ///
    /// [`CallError::TenantDenied`] for foreign objects;
    /// [`CallError::StateLost`] when the payload died with its process.
    pub fn tenant_fetch(&mut self, tenant: TenantId, id: ObjectId) -> Result<Vec<u8>, CallError> {
        let thread = tenant.thread();
        if !self.tenant_may_access(thread, id) {
            let pool = self
                .objects
                .meta(id)
                .map(|m| {
                    self.agents
                        .values()
                        .find(|a| a.pid == m.home)
                        .map_or(PartitionId(0), |a| a.partition)
                })
                .unwrap_or(PartitionId(0));
            return Err(self.deny_cross_tenant(thread, pool, id));
        }
        let meta = self
            .objects
            .meta(id)
            .ok_or(CallError::StateLost(id))?
            .clone();
        let tpid = self.tenant_pids.get(&tenant.0).copied();
        if let (Some((seg, len)), Some(pid)) = (meta.shm, tpid) {
            self.grant_view(id, seg, pid, Perms::R, len)?;
            return self
                .kernel
                .shm_read(pid, seg)
                .map_err(|_| CallError::StateLost(id));
        }
        self.fetch_bytes(id)
    }

    // ------------------------------------------------------------------
    // The capability gate
    // ------------------------------------------------------------------

    /// Whether `thread`'s namespace admits `obj`: its own objects,
    /// shared annotated host data, objects owned by the main thread
    /// (service-global fixtures), and untracked objects pass; another
    /// tenant's objects do not.
    pub fn tenant_may_access(&self, thread: ThreadId, obj: ObjectId) -> bool {
        if thread == ThreadId::MAIN || self.shared_objs.contains(&obj) {
            return true;
        }
        match self.owner_of.get(&obj) {
            None => true,
            Some(&owner) => owner == thread || owner == ThreadId::MAIN,
        }
    }

    /// Books one cross-tenant denial: bumps the stats counter, writes
    /// the [`AuditRecord::CrossTenantDenied`] audit entry, and builds
    /// the error. The deny happens *before* any payload movement.
    pub(super) fn deny_cross_tenant(
        &mut self,
        thread: ThreadId,
        partition: PartitionId,
        obj: ObjectId,
    ) -> CallError {
        self.stats.tenant_denials += 1;
        let owner = self.owner_of.get(&obj).map_or(0, |t| t.0);
        if self.tracer.enabled() {
            let at_ns = self.kernel.now_ns();
            self.tracer.record_audit(AuditRecord::CrossTenantDenied {
                at_ns,
                tenant: thread.0,
                partition,
                object: obj,
                owner,
            });
        }
        CallError::TenantDenied {
            tenant: thread.0,
            object: obj,
        }
    }

    // ------------------------------------------------------------------
    // Fairness observability
    // ------------------------------------------------------------------

    /// Per-call latencies (enqueue → retirement, virtual ns) recorded
    /// for one tenant, in completion order.
    pub fn tenant_latencies(&self, tenant: TenantId) -> &[u64] {
        self.tenant_lat.get(&tenant.0).map_or(&[], |v| v.as_slice())
    }

    /// Fairness measurement for a completed ticket:
    /// `(foreign_served, own_ahead)` — how many items the scheduler
    /// served to *other* tenants of the same pool between this call's
    /// enqueue and its dequeue, and how many of the tenant's own items
    /// were queued ahead of it. The starvation-freedom proptest bounds
    /// `foreign_served` by the DRR window. `None` until pumped.
    pub fn ticket_fairness(&self, handle: TenantHandle) -> Option<(u64, usize)> {
        let t = self.tickets.get(&handle.0)?;
        Some((t.foreign_served?, t.own_ahead))
    }
}
