//! The transaction executor shared by the Aurora writer, its read replicas
//! and the MySQL baseline.
//!
//! §5: Aurora is MySQL/InnoDB with a different IO subsystem underneath.
//! This module is the part above that line: the per-connection op state
//! machine, row locks, logical undo and rollback, and the vCPU model. Each
//! instance embeds one [`TxnCore`] and implements [`TxnBackend`]; the
//! backend's hooks are the only places they differ (see DESIGN.md, "The
//! executor/backend seam"). Dispatch is static, so the seam costs nothing
//! on the hot path.
//!
//! ## CPU model
//!
//! The paper's Figures 6–7 scale with instance vCPUs. An instance is
//! modelled as `vcpus` processors: each statement costs `cpu_per_op` (or
//! `cpu_per_read`, `cpu_per_commit`) of processor time, scheduled on the
//! earliest-free vCPU. Waits (page fetches, lock queues, commit
//! durability) consume no CPU.
//!
//! ## Rollback
//!
//! Aborts (user aborts, lock-timeout deadlock breaks, crash recovery) are
//! *logical*: every forward change logs a [`RecordBody::Undo`] record
//! carrying the inverse operation, and rollback executes those inverses as
//! a synthetic transaction through the ordinary write path. Physical
//! unapply would be unsound here because two transactions can shift rows
//! within the same leaf.

use std::collections::VecDeque;

use aurora_log::{Lsn, Page, PageId, Patch, RecordBody, TxnId};
use aurora_sim::hash::FxHashMap as HashMap;
use aurora_sim::{Ctx, MetricId, NodeId, SimDuration, SimTime, Tag};
use bytes::Bytes;

use crate::btree::{BTree, BTreeError, PageEditor, PageMiss, PageProvider, TreeMeta};
use crate::buffer::BufferPool;
use crate::locks::{LockOutcome, LockTable};
use crate::wire::{ClientRequest, ClientResponse, Op, OpResult, TxnResult, TxnSpec};

/// Timer tags at or above this value are CPU-slice completions for
/// connection `tag - TAG_CPU_BASE`.
pub const TAG_CPU_BASE: Tag = 1 << 48;

/// Client connection ids must stay below this; higher ids are reserved
/// for the executor's synthetic rollback transactions.
pub const CONN_SYNTHETIC_BASE: u64 = 1 << 40;

// ------------------------------------------------------------------
// Running transactions
// ------------------------------------------------------------------

/// Why a running transaction is parked.
#[derive(Debug)]
enum Phase {
    /// A CPU slice is scheduled; the op body runs when the timer fires.
    Cpu,
    /// Waiting for a page fetch (the page id aids debugging).
    PageWait(#[allow(dead_code)] PageId),
    /// Waiting in a lock queue.
    LockWait { key: u64, since: SimTime },
    /// Waiting for the backend's seal to accept records again.
    SealWait,
}

/// One transaction in flight on a connection.
pub struct RunningTxn {
    pub conn: u64,
    pub client: NodeId,
    pub issued_at: SimTime,
    pub results: Vec<OpResult>,
    pub txn: TxnId,
    spec: TxnSpec,
    pc: usize,
    phase: Phase,
    op_started: SimTime,
    /// Logical inverse ops, newest last.
    undo_ops: Vec<Op>,
    /// LSN of the first record this transaction sealed.
    pub(crate) first_lsn: Lsn,
    pub(crate) wrote: bool,
    /// True for synthetic rollback transactions: ends with `TxnAbort`,
    /// responds to nobody, never itself aborts.
    rollback: bool,
}

// ------------------------------------------------------------------
// The one PageProvider over the buffer pool: cache + record capture
// ------------------------------------------------------------------

/// Runs B+-tree operations against the buffer pool and captures every
/// page change as a redo body, ready to be sealed into log records.
pub struct PoolProvider<'a> {
    pool: &'a mut BufferPool,
    pub bodies: Vec<RecordBody>,
}

impl<'a> PoolProvider<'a> {
    pub fn new(pool: &'a mut BufferPool) -> Self {
        PoolProvider {
            pool,
            bodies: Vec::new(),
        }
    }
}

impl<'a> PageProvider for PoolProvider<'a> {
    fn read(&mut self, id: PageId) -> Result<&Page, PageMiss> {
        self.pool.get(id).ok_or(PageMiss(id))
    }

    fn write(
        &mut self,
        id: PageId,
        f: &mut dyn FnMut(&mut PageEditor<'_>),
    ) -> Result<(), PageMiss> {
        let Some(page) = self.pool.get_mut(id) else {
            return Err(PageMiss(id));
        };
        let mut patches = Vec::new();
        {
            let mut editor = PageEditor::new(page, &mut patches);
            f(&mut editor);
        }
        if !patches.is_empty() {
            self.bodies.push(RecordBody::PageWrite {
                page: id,
                patches: patches
                    .into_iter()
                    .map(|(offset, before, after)| Patch {
                        offset,
                        before: Bytes::from(before),
                        after: Bytes::from(after),
                    })
                    .collect(),
            });
        }
        Ok(())
    }

    fn allocate(&mut self) -> Result<PageId, PageMiss> {
        // Allocator state lives in the meta page (page 0) so that recovery
        // finds it; the new page is formatted through the log.
        let off = crate::btree::OFF_META_NEXT_FREE;
        let next = {
            let meta = self.pool.get(PageId(0)).ok_or(PageMiss(PageId(0)))?;
            let stored =
                u64::from_le_bytes(meta.bytes()[off..off + 8].try_into().expect("8 bytes"));
            stored.max(1)
        };
        let id = PageId(next);
        self.write(PageId(0), &mut |e| {
            e.set_u64(off, next + 1);
        })?;
        self.bodies.push(RecordBody::PageFormat {
            page: id,
            init: Bytes::new(),
        });
        // make the fresh page resident without evicting (eviction mid-op
        // could pull a page out from under the B+-tree)
        self.pool.insert_unchecked(id, Page::new());
        Ok(id)
    }
}

// ------------------------------------------------------------------
// Undo-op (logical inverse) encoding for RecordBody::Undo
// ------------------------------------------------------------------

/// Encode a write's logical inverse: `txn (8) | tag (1) | key (8) | row`.
pub fn encode_undo(txn: TxnId, op: &Op) -> Bytes {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&txn.0.to_le_bytes());
    match op {
        Op::Insert(k, v) => {
            out.push(0);
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(v);
        }
        Op::Update(k, v) => {
            out.push(1);
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(v);
        }
        Op::Delete(k) => {
            out.push(2);
            out.extend_from_slice(&k.to_le_bytes());
        }
        _ => unreachable!("only write inverses are encoded"),
    }
    Bytes::from(out)
}

/// Decode [`encode_undo`]'s bytes. Anything it could not have produced
/// (short input, unknown tag, trailing bytes after a delete) is `None`.
pub fn decode_undo(data: &[u8]) -> Option<(TxnId, Op)> {
    if data.len() < 17 {
        return None;
    }
    let txn = TxnId(u64::from_le_bytes(data[0..8].try_into().ok()?));
    let k = u64::from_le_bytes(data[9..17].try_into().ok()?);
    let op = match (data[8], data.len()) {
        (0, _) => Op::Insert(k, data[17..].to_vec()),
        (1, _) => Op::Update(k, data[17..].to_vec()),
        (2, 17) => Op::Delete(k),
        _ => return None,
    };
    Some((txn, op))
}

/// Why an op could not complete now.
pub enum ExecStall {
    Miss(PageId),
    /// The backend's seal refused the records (Aurora: LAL back-pressure).
    Seal,
    Abort(String),
}

fn stall_from(e: BTreeError) -> ExecStall {
    match e {
        BTreeError::Miss(m) => ExecStall::Miss(m.0),
        other => ExecStall::Abort(other.to_string()),
    }
}

/// Pad or truncate a client row to the table's fixed row size.
pub(crate) fn fit_row(v: &[u8], row_size: usize) -> Vec<u8> {
    let mut row = vec![0u8; row_size];
    let n = v.len().min(row_size);
    row[..n].copy_from_slice(&v[..n]);
    row
}

// ------------------------------------------------------------------
// Shared state and metrics
// ------------------------------------------------------------------

/// The executor's metrics: names per backend (`engine.*` for Aurora,
/// `mysql.*` for the baseline), resolved once into handles.
#[derive(Clone, Copy)]
pub struct TxnMetrics<T> {
    pub txn_ns: T,
    pub commit_ns: T,
    pub commits: T,
    pub read_txns: T,
    pub write_txns: T,
    pub aborts: T,
    pub rollback_errors: T,
    pub lock_waits: T,
    pub lock_timeouts: T,
    pub lal_stalls: T,
    pub select_ns: T,
    pub scan_ns: T,
    pub insert_ns: T,
    pub update_ns: T,
    pub delete_ns: T,
}

/// A backend's metric names.
pub type TxnMetricNames = TxnMetrics<&'static str>;
/// Resolved handles (see [`Ctx::inc_id`]).
pub type TxnIds = TxnMetrics<MetricId>;

impl TxnMetricNames {
    fn resolve(&self, ctx: &mut Ctx<'_>) -> TxnIds {
        TxnMetrics {
            txn_ns: ctx.metric_id(self.txn_ns),
            commit_ns: ctx.metric_id(self.commit_ns),
            commits: ctx.metric_id(self.commits),
            read_txns: ctx.metric_id(self.read_txns),
            write_txns: ctx.metric_id(self.write_txns),
            aborts: ctx.metric_id(self.aborts),
            rollback_errors: ctx.metric_id(self.rollback_errors),
            lock_waits: ctx.metric_id(self.lock_waits),
            lock_timeouts: ctx.metric_id(self.lock_timeouts),
            lal_stalls: ctx.metric_id(self.lal_stalls),
            select_ns: ctx.metric_id(self.select_ns),
            scan_ns: ctx.metric_id(self.scan_ns),
            insert_ns: ctx.metric_id(self.insert_ns),
            update_ns: ctx.metric_id(self.update_ns),
            delete_ns: ctx.metric_id(self.delete_ns),
        }
    }
}

/// Executor knobs, copied from the engine's configuration.
#[derive(Debug, Clone)]
pub struct TxnParams {
    pub row_size: usize,
    pub vcpus: usize,
    pub buffer_pages: usize,
    pub cpu_per_op: SimDuration,
    pub cpu_per_read: SimDuration,
    pub cpu_per_commit: SimDuration,
    /// Abort a lock waiter after this long (deadlock breaker).
    pub lock_wait_timeout: SimDuration,
}

/// The executor state each engine embeds.
pub struct TxnCore {
    pub tree: BTree,
    pub pool: BufferPool,
    pub locks: LockTable,
    pub running: HashMap<u64, RunningTxn>,
    pub next_txn: u64,
    /// Connections parked on `Phase::SealWait`; the backend resumes
    /// them when its log has room again.
    pub(crate) seal_waiters: VecDeque<u64>,
    vcpu_free: Vec<SimTime>,
    next_synthetic_conn: u64,
    params: TxnParams,
    names: &'static TxnMetricNames,
    /// Lazily resolved metric handles (not state: survives crashes).
    ids: Option<TxnIds>,
}

impl TxnCore {
    pub fn new(params: TxnParams, names: &'static TxnMetricNames) -> Self {
        TxnCore {
            tree: BTree::new(TreeMeta::for_row_size(params.row_size, PageId(0))),
            pool: BufferPool::new(params.buffer_pages),
            locks: LockTable::new(),
            running: HashMap::default(),
            next_txn: 1,
            seal_waiters: VecDeque::new(),
            vcpu_free: vec![SimTime::ZERO; params.vcpus],
            next_synthetic_conn: CONN_SYNTHETIC_BASE,
            params,
            names,
            ids: None,
        }
    }

    /// Resolve (once) and copy out the metric handles.
    pub fn ids(&mut self, ctx: &mut Ctx<'_>) -> TxnIds {
        *self.ids.get_or_insert_with(|| self.names.resolve(ctx))
    }

    /// Drop everything volatile: a crashed instance loses its cache, its
    /// locks, its running transactions and its CPU queue.
    pub fn crash(&mut self) {
        self.pool.clear();
        self.locks = LockTable::new();
        self.running.clear();
        self.seal_waiters.clear();
        self.vcpu_free = vec![SimTime::ZERO; self.params.vcpus];
    }

    fn schedule_cpu(&mut self, ctx: &mut Ctx<'_>, conn: u64, cost: SimDuration) {
        let now = ctx.now();
        let (idx, free) = self
            .vcpu_free
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, t)| (i, *t))
            .expect("an instance has at least one vCPU");
        let start = if free > now { free } else { now };
        let end = start + cost;
        self.vcpu_free[idx] = end;
        ctx.set_timer(end - now, TAG_CPU_BASE + conn);
    }

    fn park(&mut self, conn: u64, phase: Phase) {
        if let Some(rt) = self.running.get_mut(&conn) {
            rt.phase = phase;
        }
    }
}

impl RunningTxn {
    fn new(conn: u64, client: NodeId, issued_at: SimTime, spec: TxnSpec, txn: TxnId) -> Self {
        RunningTxn {
            conn,
            client,
            issued_at,
            results: Vec::new(),
            txn,
            spec,
            pc: 0,
            phase: Phase::Cpu,
            op_started: issued_at,
            undo_ops: Vec::new(),
            first_lsn: Lsn::ZERO,
            wrote: false,
            rollback: false,
        }
    }
}

// ------------------------------------------------------------------
// The backend seam
// ------------------------------------------------------------------

/// An instance's IO backend under the shared executor. The hooks are
/// where the Aurora writer, its read replicas and MySQL differ; a hook
/// with a body is neutral until a backend overrides it. The rest of the
/// provided methods are the executor itself.
pub trait TxnBackend {
    /// The embedded executor state.
    fn core(&mut self) -> &mut TxnCore;

    /// Turn redo bodies into log records: allocate LSNs, stage them for
    /// the backend's log, stamp cached pages. Returns the (first, last)
    /// LSNs, or `None` when the log cannot take them yet; the executor
    /// then parks the connection until the backend resumes it.
    fn seal(&mut self, txn: TxnId, bodies: Vec<RecordBody>) -> Option<(Lsn, Lsn)>;

    /// May this (non-rollback) write run now? A backend that says no owns
    /// the connection and resumes it with `exec_current_op` later.
    fn admit_write(&mut self, _ctx: &mut Ctx<'_>, _conn: u64) -> bool {
        true
    }

    /// The CPU cost of a statement whose base cost is `base`.
    fn cpu_cost(&mut self, base: SimDuration) -> SimDuration {
        base
    }

    /// Called after each op completes. Returns whether the executor should
    /// start the connection's next op now; if not, the backend does it
    /// later with `start_op`.
    fn after_op(&mut self, _ctx: &mut Ctx<'_>, _conn: u64, _write: bool) -> bool {
        true
    }

    /// A writing transaction sealed its commit record at `commit_lsn`:
    /// the backend owns it from here (lock release, durability, response).
    fn commit_write(&mut self, ctx: &mut Ctx<'_>, rt: RunningTxn, commit_lsn: Lsn);

    /// Fetch `page` from storage and resume `conn` when it is cached.
    fn request_page(&mut self, ctx: &mut Ctx<'_>, page: PageId, conn: u64);

    /// A synthetic rollback sealed its `TxnAbort` and released its locks.
    fn on_rollback_done(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A transaction left the running set (commit handed off, read-only
    /// commit, or abort without writes).
    fn after_txn_end(&mut self, _ctx: &mut Ctx<'_>) {}

    // ---- provided: the executor ----

    /// Start a client transaction (the backend has already admitted it).
    fn begin_request(&mut self, ctx: &mut Ctx<'_>, client: NodeId, req: ClientRequest) {
        let core = self.core();
        let txn = TxnId(core.next_txn);
        core.next_txn += 1;
        let rt = RunningTxn::new(req.conn, client, req.issued_at, req.txn, txn);
        core.running.insert(req.conn, rt);
        self.start_op(ctx, req.conn);
    }

    /// Charge CPU for the current op; its body runs when the slice ends.
    fn start_op(&mut self, ctx: &mut Ctx<'_>, conn: u64) {
        let now = ctx.now();
        let core = self.core();
        let Some(rt) = core.running.get_mut(&conn) else {
            return;
        };
        rt.op_started = now;
        rt.phase = Phase::Cpu;
        let base = if rt.pc >= rt.spec.ops.len() {
            core.params.cpu_per_commit
        } else if rt.spec.ops[rt.pc].is_read() {
            core.params.cpu_per_read
        } else {
            core.params.cpu_per_op
        };
        let cost = self.cpu_cost(base);
        self.core().schedule_cpu(ctx, conn, cost);
    }

    /// Execute the op at `pc` (after its CPU slice, a page arrival, a lock
    /// grant, or the backend's resume).
    fn exec_current_op(&mut self, ctx: &mut Ctx<'_>, conn: u64) {
        let core = self.core();
        let ids = core.ids(ctx);
        let Some(rt) = core.running.get(&conn) else {
            return;
        };
        if rt.pc >= rt.spec.ops.len() {
            self.finish_txn(ctx, conn);
            return;
        }
        let op = rt.spec.ops[rt.pc].clone();
        let txn = rt.txn;
        let rollback = rt.rollback;

        // --- admission and lock acquisition for writes ---
        if let Some(key) = op.write_key() {
            if !rollback && !self.admit_write(ctx, conn) {
                return;
            }
            let core = self.core();
            if let LockOutcome::Queued = core.locks.acquire(key, txn) {
                ctx.inc_id(ids.lock_waits, 1);
                let since = ctx.now();
                core.park(conn, Phase::LockWait { key, since });
                return;
            }
        }

        match self.try_exec_op(conn, &op) {
            Ok(result) => {
                let kind = match &op {
                    Op::Get(_) => ids.select_ns,
                    Op::Scan(_, _) => ids.scan_ns,
                    Op::Insert(_, _) => ids.insert_ns,
                    Op::Update(_, _) | Op::Upsert(_, _) => ids.update_ns,
                    Op::Delete(_) => ids.delete_ns,
                };
                let rt = self.core().running.get_mut(&conn).expect("op ran");
                let elapsed = ctx.now().since(rt.op_started).nanos();
                rt.results.push(result);
                rt.pc += 1;
                ctx.record_id(kind, elapsed);
                if self.after_op(ctx, conn, op.write_key().is_some()) {
                    self.start_op(ctx, conn);
                }
            }
            Err(ExecStall::Miss(page)) => {
                self.core().park(conn, Phase::PageWait(page));
                self.request_page(ctx, page, conn);
            }
            Err(ExecStall::Seal) => {
                let core = self.core();
                core.park(conn, Phase::SealWait);
                core.seal_waiters.push_back(conn);
                ctx.inc_id(ids.lal_stalls, 1);
            }
            Err(ExecStall::Abort(reason)) => {
                self.abort_txn(ctx, conn, reason);
            }
        }
    }

    fn try_exec_op(&mut self, conn: u64, op: &Op) -> Result<OpResult, ExecStall> {
        let core = self.core();
        let tree = core.tree;
        match op {
            Op::Get(k) => tree
                .get(&mut PoolProvider::new(&mut core.pool), *k)
                .map(OpResult::Row)
                .map_err(stall_from),
            Op::Scan(k, n) => tree
                .scan(&mut PoolProvider::new(&mut core.pool), *k, *n)
                .map(OpResult::Rows)
                .map_err(stall_from),
            Op::Insert(k, _) | Op::Update(k, _) | Op::Upsert(k, _) | Op::Delete(k) => {
                self.write_op(conn, *k, op)
            }
        }
    }

    /// Run structural splits (SYSTEM MTRs) until `key`'s leaf has room.
    fn ensure_leaf_room(&mut self, key: u64) -> Result<(), ExecStall> {
        loop {
            let core = self.core();
            let tree = core.tree;
            let mut p = PoolProvider::new(&mut core.pool);
            if !tree.needs_split(&mut p, key).map_err(stall_from)? {
                return Ok(());
            }
            tree.prepare_split(&mut p, key).map_err(stall_from)?;
            let bodies = p.bodies;
            if self.seal(TxnId::SYSTEM, bodies).is_none() {
                return Err(ExecStall::Seal);
            }
        }
    }

    /// The write path: read the old row, prepare the leaf, then seal the
    /// row change and its logical undo as one user MTR.
    fn write_op(&mut self, conn: u64, key: u64, op: &Op) -> Result<OpResult, ExecStall> {
        let core = self.core();
        let tree = core.tree;
        let row_size = core.params.row_size;
        let txn = core.running.get(&conn).expect("running txn").txn;
        // Phase 1: read the old row (may miss; nothing mutated yet).
        let old = tree
            .get(&mut PoolProvider::new(&mut core.pool), key)
            .map_err(stall_from)?;
        enum Act {
            Ins(Vec<u8>),
            Upd(Vec<u8>),
            Del,
        }
        let (inverse, action) = match (op, old) {
            (Op::Insert(_, row) | Op::Upsert(_, row), None) => {
                (Op::Delete(key), Act::Ins(fit_row(row, row_size)))
            }
            (Op::Update(_, row) | Op::Upsert(_, row), Some(old)) => {
                (Op::Update(key, old), Act::Upd(fit_row(row, row_size)))
            }
            (Op::Delete(_), Some(old)) => (Op::Insert(key, old), Act::Del),
            (Op::Insert(..), Some(_)) => {
                return Err(ExecStall::Abort(format!("duplicate key {key}")))
            }
            _ => return Err(ExecStall::Abort(format!("key {key} not found"))),
        };

        // Phase 2: structural preparation as SYSTEM mini-transactions, so
        // user MTRs only touch row bytes (undo never reverts tree shape).
        if matches!(action, Act::Ins(_)) {
            self.ensure_leaf_room(key)?;
        }

        // Phase 3: the row change + its logical undo record, one user MTR.
        let core = self.core();
        let mut p = PoolProvider::new(&mut core.pool);
        match &action {
            Act::Ins(row) => tree.insert_no_split(&mut p, key, row),
            Act::Upd(row) => tree.update(&mut p, key, row),
            Act::Del => tree.delete(&mut p, key),
        }
        .map_err(stall_from)?;
        let mut bodies = p.bodies;
        bodies.push(RecordBody::Undo {
            data: encode_undo(txn, &inverse),
        });
        let rt = core.running.get_mut(&conn).expect("running txn");
        let first_write = !rt.wrote;
        let mut all = Vec::with_capacity(bodies.len() + 1);
        if first_write && !rt.rollback {
            all.push(RecordBody::TxnBegin);
        }
        all.extend(bodies);
        let (first, _last) = self.seal(txn, all).ok_or(ExecStall::Seal)?;
        let rt = self.core().running.get_mut(&conn).expect("running txn");
        if first_write {
            rt.first_lsn = first;
            rt.wrote = true;
        }
        rt.undo_ops.push(inverse);
        Ok(OpResult::Done)
    }

    fn finish_txn(&mut self, ctx: &mut Ctx<'_>, conn: u64) {
        let Some(mut rt) = self.core().running.remove(&conn) else {
            return;
        };
        if rt.rollback {
            // synthetic rollback: end with a TxnAbort, free locks
            let _ = self.seal(rt.txn, vec![RecordBody::TxnAbort]);
            self.core().locks.release_all(rt.txn);
            self.resume_lock_waiters(ctx);
            self.on_rollback_done(ctx);
            self.after_txn_end(ctx);
            return;
        }
        if !rt.wrote {
            // read-only: respond immediately, nothing to make durable
            let ids = self.core().ids(ctx);
            ctx.inc_id(ids.read_txns, 1);
            ctx.inc_id(ids.commits, 1);
            ctx.record_id(ids.txn_ns, ctx.now().since(rt.issued_at).nanos());
            ctx.send(
                rt.client,
                ClientResponse {
                    conn: rt.conn,
                    result: TxnResult::Committed(rt.results),
                    issued_at: rt.issued_at,
                },
            );
            self.after_txn_end(ctx);
            return;
        }
        // write txn: log the commit record; the backend takes it from here
        match self.seal(rt.txn, vec![RecordBody::TxnCommit]) {
            Some((_, commit_lsn)) => {
                self.commit_write(ctx, rt, commit_lsn);
                self.after_txn_end(ctx);
            }
            None => {
                rt.phase = Phase::SealWait;
                let core = self.core();
                core.running.insert(conn, rt);
                core.seal_waiters.push_back(conn);
            }
        }
    }

    fn abort_txn(&mut self, ctx: &mut Ctx<'_>, conn: u64, reason: String) {
        let core = self.core();
        let ids = core.ids(ctx);
        let Some(rt) = core.running.remove(&conn) else {
            return;
        };
        if rt.rollback {
            // a rollback op failed (should not happen) — drop it, free locks
            ctx.inc_id(ids.rollback_errors, 1);
            core.locks.release_all(rt.txn);
            self.resume_lock_waiters(ctx);
            return;
        }
        ctx.inc_id(ids.aborts, 1);
        ctx.send(
            rt.client,
            ClientResponse {
                conn: rt.conn,
                result: TxnResult::Aborted(reason),
                issued_at: rt.issued_at,
            },
        );
        if !rt.wrote {
            core.locks.release_all(rt.txn);
            self.resume_lock_waiters(ctx);
            self.after_txn_end(ctx);
            return;
        }
        // logical rollback as a synthetic transaction reusing the same
        // TxnId (so it already owns every needed lock), newest first
        let inverse_ops: Vec<Op> = rt.undo_ops.into_iter().rev().collect();
        self.spawn_rollback(ctx, rt.txn, inverse_ops);
    }

    /// Run `inverse_ops` (newest first) as a synthetic transaction that
    /// ends with a `TxnAbort` for `txn`.
    fn spawn_rollback(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, inverse_ops: Vec<Op>) {
        let core = self.core();
        let conn = core.next_synthetic_conn;
        core.next_synthetic_conn += 1;
        let spec = TxnSpec { ops: inverse_ops };
        let mut rt = RunningTxn::new(conn, aurora_sim::sim::EXTERNAL, ctx.now(), spec, txn);
        rt.wrote = true; // suppress TxnBegin; the forward txn logged it
        rt.rollback = true;
        core.running.insert(conn, rt);
        self.start_op(ctx, conn);
    }

    /// Re-run every lock waiter that now owns the lock it queued for.
    fn resume_lock_waiters(&mut self, ctx: &mut Ctx<'_>) {
        let core = self.core();
        let resumable: Vec<u64> = core
            .running
            .iter()
            .filter(|(_, rt)| {
                matches!(rt.phase, Phase::LockWait { key, .. }
                    if core.locks.owner(key) == Some(rt.txn))
            })
            .map(|(c, _)| *c)
            .collect();
        for conn in resumable {
            self.exec_current_op(ctx, conn);
        }
    }

    /// Abort every transaction that has waited on a lock longer than the
    /// lock-wait timeout (the deadlock breaker), from the periodic sweep.
    fn expire_lock_waits(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let core = self.core();
        let ids = core.ids(ctx);
        let timeout = core.params.lock_wait_timeout;
        let mut timed_out: Vec<u64> = core
            .running
            .iter()
            .filter(|(_, rt)| {
                matches!(rt.phase, Phase::LockWait { since, .. } if now.since(since) > timeout)
            })
            .map(|(c, _)| *c)
            .collect();
        // Process in connection order, not HashMap order: aborts release
        // locks and send responses, both of which must replay identically.
        timed_out.sort_unstable();
        for conn in timed_out {
            ctx.inc_id(ids.lock_timeouts, 1);
            self.abort_txn(ctx, conn, "lock wait timeout".into());
        }
    }
}
