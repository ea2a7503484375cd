//! The traditional MySQL/InnoDB-style engine.
//!
//! Runs the transaction executor of `aurora-core` (`aurora_core::txn`:
//! the same B+-tree, buffer pool, row locks, undo and rollback as Aurora)
//! as one of its two backends, and does IO the way Figure 2 describes:
//!
//! * commits require the redo log *and* binlog durably on EBS, and — in
//!   the mirrored configuration — shipped synchronously to the standby's
//!   EBS pair first (steps 1–5, sequential, additive latency),
//! * row locks are held until the commit chain completes (no early
//!   release: this is what makes hot rows so expensive, Table 5),
//! * dirty pages are flushed by a background flusher, on eviction (a
//!   foreground stall), and wholesale at checkpoints (which gate new
//!   writes — "checkpointing [has] positive correlation with the
//!   foreground load"),
//! * crash recovery replays the redo log from the last checkpoint before
//!   the engine opens, then rolls back in-flight transactions.
//!
//! Group-commit quality is the `group_commit_limit` knob: MySQL 5.6's
//! binlog serialization (the `prepare_commit_mutex` era) batches poorly;
//! 5.7 batches better. Both are far from Aurora's fully asynchronous
//! pipeline.

use std::collections::VecDeque;

use aurora_core::engine::{bootstrap_row, InstanceSpec};
use aurora_core::txn::{
    decode_undo, PoolProvider, RunningTxn, TxnBackend, TxnCore, TxnMetricNames, TxnParams,
    TAG_CPU_BASE,
};
use aurora_core::wire::{ClientRequest, ClientResponse, Op, TxnResult};
use aurora_log::{LogRecord, Lsn, Page, PageId, PgId, RecordBody, TxnId};
use aurora_sim::hash::FxHashMap as HashMap;
use aurora_sim::{Actor, ActorEvent, Ctx, NodeId, SimDuration, SimTime, Tag};

use crate::wire::*;

const TAG_FLUSHER: Tag = 1;
const TAG_SWEEP: Tag = 2;
const TAG_REPLAY_DONE: Tag = 3;
const TAG_BOOTSTRAP: Tag = 4;
const TAG_MUTEX_BASE: Tag = 1 << 46;

/// Which MySQL the baseline imitates (§6.1 compares 5.6 and 5.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MysqlFlavor {
    V56,
    V57,
}

/// Baseline engine configuration.
#[derive(Debug, Clone)]
pub struct MysqlConfig {
    pub instance: InstanceSpec,
    pub flavor: MysqlFlavor,
    pub row_size: usize,
    pub bootstrap_rows: u64,
    pub cpu_per_op: SimDuration,
    pub cpu_per_read: SimDuration,
    pub cpu_per_commit: SimDuration,
    /// Thread-per-connection scheduling overhead: effective CPU cost is
    /// multiplied by `1 + (active_conns / thrash_conns)^2` (§7.2 — MySQL
    /// cannot "handle many concurrent connections"; Aurora can).
    pub thrash_conns: u64,
    /// Primary EBS volume node.
    pub ebs: NodeId,
    /// Standby instance node (mirrored configuration; None = single-AZ).
    pub standby: Option<NodeId>,
    /// Binlog replication targets.
    pub binlog_replicas: Vec<NodeId>,
    /// Max transactions folded into one commit-chain round (group commit).
    pub group_commit_limit: usize,
    /// Serialized time each write statement spends holding the redo/binlog
    /// mutex (the InnoDB `log_sys`/`prepare_commit_mutex` path): a single
    /// resource regardless of vCPUs, and the main reason MySQL write
    /// throughput does not scale with instance size (Figure 7's flat
    /// MySQL lines).
    pub serial_log_cost: SimDuration,
    /// Redo records between checkpoints.
    pub checkpoint_every_records: u64,
    /// Background flusher cadence and batch size.
    pub flusher_interval: SimDuration,
    pub flusher_batch: usize,
    pub lock_wait_timeout: SimDuration,
    /// Recovery replay speed (records/second).
    pub replay_rate: u64,
}

impl MysqlConfig {
    /// Flavor-tuned defaults: 5.6 has the `prepare_commit_mutex`-era group
    /// commit (poor batching) and slightly higher per-op cost; 5.7 batches
    /// commits well. Mirrored configurations should additionally set
    /// `standby` (which serializes the chain across AZs).
    pub fn tuned(ebs: NodeId, flavor: MysqlFlavor) -> Self {
        let mut cfg = Self::new(ebs);
        cfg.flavor = flavor;
        match flavor {
            MysqlFlavor::V56 => {
                cfg.group_commit_limit = 24;
                cfg.serial_log_cost = SimDuration::from_micros(120);
                cfg.cpu_per_op = SimDuration::from_micros(70);
            }
            MysqlFlavor::V57 => {
                cfg.group_commit_limit = 64;
                cfg.serial_log_cost = SimDuration::from_micros(30);
                cfg.cpu_per_op = SimDuration::from_micros(60);
            }
        }
        cfg
    }

    pub fn new(ebs: NodeId) -> Self {
        MysqlConfig {
            instance: InstanceSpec::r3_8xlarge(),
            flavor: MysqlFlavor::V57,
            row_size: 96,
            bootstrap_rows: 0,
            cpu_per_op: SimDuration::from_micros(60),
            cpu_per_read: SimDuration::from_micros(40),
            cpu_per_commit: SimDuration::from_micros(30),
            thrash_conns: 2_500,
            ebs,
            standby: None,
            binlog_replicas: Vec::new(),
            group_commit_limit: 32,
            serial_log_cost: SimDuration::from_micros(50),
            checkpoint_every_records: 400_000,
            flusher_interval: SimDuration::from_millis(2),
            flusher_batch: 64,
            lock_wait_timeout: SimDuration::from_secs(2),
            replay_rate: 2_000_000,
        }
    }
}

/// The executor's metric names on the MySQL engine.
static MYSQL_TXN_METRICS: TxnMetricNames = TxnMetricNames {
    txn_ns: "mysql.txn_ns",
    commit_ns: "mysql.commit_ns",
    commits: "mysql.commits",
    read_txns: "mysql.read_txns",
    write_txns: "mysql.write_txns",
    aborts: "mysql.aborts",
    rollback_errors: "mysql.rollback_errors",
    lock_waits: "mysql.lock_waits",
    lock_timeouts: "mysql.lock_timeouts",
    // never fires: the local log buffer has no allocation limit
    lal_stalls: "mysql.lal_stalls",
    select_ns: "mysql.select_ns",
    scan_ns: "mysql.scan_ns",
    insert_ns: "mysql.insert_ns",
    update_ns: "mysql.update_ns",
    delete_ns: "mysql.delete_ns",
};

/// One in-flight commit-chain round.
struct FlushRound {
    /// 0 = waiting log ack, 1 = waiting binlog ack, 2 = waiting standby.
    stage: u8,
    /// Sealed transactions riding this round; they hold their locks until
    /// it completes.
    commits: Vec<RunningTxn>,
    bytes: usize,
}

struct PendingRead {
    page: PageId,
    conns: Vec<u64>,
}

/// A page write-out waiting for its (doublewrite, in-place) acks.
struct PendingFlush {
    remaining: u8,
    /// Connections parked on a foreground eviction, resumed on completion.
    conns: Vec<u64>,
    checkpoint: bool,
}

pub struct MysqlEngine {
    cfg: MysqlConfig,
    /// The shared executor: buffer pool, locks, running transactions.
    txn: TxnCore,
    // ---- survives crash (the checkpoint record lives in the log header)
    durable_checkpoint: Lsn,
    // ---- volatile
    status: Status,
    next_lsn: u64,
    log_buffer: Vec<LogRecord>,
    log_buffer_bytes: usize,
    commit_queue: VecDeque<RunningTxn>,
    flush: Option<FlushRound>,
    next_req: u64,
    reads: HashMap<u64, PendingRead>,
    page_waits: HashMap<PageId, u64>,
    flushes: HashMap<u64, PendingFlush>,
    redo_since_checkpoint: u64,
    checkpoint_active: bool,
    checkpoint_queue: Vec<PageId>,
    stalled_writes: VecDeque<u64>,
    flusher_outstanding: u64,
    binlog_seq: u64,
    replay_started: SimTime,
    pending_rollbacks: Vec<(TxnId, Vec<Op>)>,
    bootstrap_next: u64,
    /// The single log mutex: free-at timestamp.
    log_mutex_free: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Bootstrapping,
    Ready,
    Recovering,
}

impl MysqlEngine {
    pub fn new(cfg: MysqlConfig) -> Self {
        let params = TxnParams {
            row_size: cfg.row_size,
            vcpus: cfg.instance.vcpus as usize,
            buffer_pages: cfg.instance.buffer_pages,
            cpu_per_op: cfg.cpu_per_op,
            cpu_per_read: cfg.cpu_per_read,
            cpu_per_commit: cfg.cpu_per_commit,
            lock_wait_timeout: cfg.lock_wait_timeout,
        };
        MysqlEngine {
            txn: TxnCore::new(params, &MYSQL_TXN_METRICS),
            durable_checkpoint: Lsn::ZERO,
            status: Status::Bootstrapping,
            next_lsn: 1,
            log_buffer: Vec::new(),
            log_buffer_bytes: 0,
            commit_queue: VecDeque::new(),
            flush: None,
            next_req: 1,
            reads: HashMap::default(),
            page_waits: HashMap::default(),
            flushes: HashMap::default(),
            redo_since_checkpoint: 0,
            checkpoint_active: false,
            checkpoint_queue: Vec::new(),
            stalled_writes: VecDeque::new(),
            flusher_outstanding: 0,
            binlog_seq: 0,
            replay_started: SimTime::ZERO,
            pending_rollbacks: Vec::new(),
            bootstrap_next: 0,
            log_mutex_free: SimTime::ZERO,
            cfg,
        }
    }

    /// Inspection.
    pub fn is_ready(&self) -> bool {
        self.status == Status::Ready
    }

    /// Admit a client transaction into the executor, or refuse it while
    /// recovery replays the log.
    fn on_client_request(&mut self, ctx: &mut Ctx<'_>, client: NodeId, req: ClientRequest) {
        if self.status == Status::Recovering {
            ctx.send(
                client,
                ClientResponse {
                    conn: req.conn,
                    result: TxnResult::Aborted("recovering".into()),
                    issued_at: req.issued_at,
                },
            );
            return;
        }
        self.begin_request(ctx, client, req);
    }

    fn req_id(&mut self) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    fn alloc_lsns(&mut self, bodies: Vec<RecordBody>, txn: TxnId) -> (Lsn, Lsn) {
        let first = Lsn(self.next_lsn);
        for body in bodies {
            let lsn = Lsn(self.next_lsn);
            self.next_lsn += 1;
            let rec = LogRecord {
                lsn,
                prev_in_pg: Lsn(lsn.0 - 1),
                pg: PgId(0),
                txn,
                is_cpl: true,
                body,
            };
            if let Some(page) = rec.page() {
                self.txn.pool.set_lsn(page, rec.lsn);
            }
            self.log_buffer_bytes += rec.wire_size();
            self.log_buffer.push(rec);
            self.redo_since_checkpoint += 1;
        }
        (first, Lsn(self.next_lsn - 1))
    }

    /// Append the whole log buffer to EBS as one sequential write of at
    /// least `min_bytes`; returns the bytes written.
    fn ship_log(&mut self, ctx: &mut Ctx<'_>, min_bytes: usize) -> usize {
        let records = std::mem::take(&mut self.log_buffer);
        let bytes = std::mem::take(&mut self.log_buffer_bytes).max(min_bytes);
        let req_id = self.req_id();
        ctx.send(
            self.cfg.ebs,
            EbsAppend {
                req_id,
                bytes,
                records,
                binlog: false,
            },
        );
        bytes
    }

    // ---- the commit chain (Figure 2) ----

    fn maybe_start_flush(&mut self, ctx: &mut Ctx<'_>) {
        if self.flush.is_some() || self.commit_queue.is_empty() {
            return;
        }
        let take = self
            .cfg
            .group_commit_limit
            .max(1)
            .min(self.commit_queue.len());
        let commits: Vec<RunningTxn> = self.commit_queue.drain(..take).collect();
        // everything staged so far rides along (log writes are sequential)
        ctx.inc("mysql.log_flushes", 1);
        let bytes = self.ship_log(ctx, 512);
        self.flush = Some(FlushRound {
            stage: 0,
            commits,
            bytes,
        });
    }

    fn on_flush_ack(&mut self, ctx: &mut Ctx<'_>) {
        let Some(round) = self.flush.as_mut() else {
            return;
        };
        match round.stage {
            0 => {
                // stage 2: binlog fsync (its own sequential write — the
                // "statement log archived to S3" of Figure 2)
                round.stage = 1;
                let bytes = (round.commits.len() * 128).max(512);
                let req_id = self.req_id();
                ctx.send(
                    self.cfg.ebs,
                    EbsAppend {
                        req_id,
                        bytes,
                        records: Vec::new(),
                        binlog: true,
                    },
                );
            }
            1 => {
                if let Some(standby) = self.cfg.standby {
                    // stage 3: synchronous block shipping to the standby
                    round.stage = 2;
                    let bytes = round.bytes;
                    let req_id = self.req_id();
                    ctx.send(standby, StandbyShip { req_id, bytes });
                } else {
                    self.complete_flush(ctx);
                }
            }
            _ => self.complete_flush(ctx),
        }
    }

    fn complete_flush(&mut self, ctx: &mut Ctx<'_>) {
        let Some(round) = self.flush.take() else {
            return;
        };
        let now = ctx.now();
        let ids = self.txn.ids(ctx);
        for rt in round.commits {
            // traditional: locks are held until the commit is durable
            self.txn.locks.release_all(rt.txn);
            let latency = now.since(rt.issued_at).nanos();
            ctx.inc_id(ids.commits, 1);
            ctx.inc_id(ids.write_txns, 1);
            ctx.record_id(ids.txn_ns, latency);
            ctx.record_id(ids.commit_ns, latency);
            ctx.send(
                rt.client,
                ClientResponse {
                    conn: rt.conn,
                    result: TxnResult::Committed(rt.results),
                    issued_at: rt.issued_at,
                },
            );
            // asynchronous binlog shipping to replication replicas
            self.binlog_seq += 1;
            for r in &self.cfg.binlog_replicas {
                ctx.send(
                    *r,
                    BinlogEvent {
                        seq: self.binlog_seq,
                        bytes: 128,
                        committed_at: now,
                    },
                );
            }
        }
        self.resume_lock_waiters(ctx);
        self.maybe_start_flush(ctx);
        self.maybe_checkpoint(ctx);
    }

    // ---- checkpointing ----

    fn maybe_checkpoint(&mut self, ctx: &mut Ctx<'_>) {
        if self.checkpoint_active || self.redo_since_checkpoint < self.cfg.checkpoint_every_records
        {
            return;
        }
        self.checkpoint_active = true;
        self.checkpoint_queue = self.txn.pool.dirty_pages();
        ctx.inc("mysql.checkpoints", 1);
        self.drive_checkpoint(ctx);
    }

    fn drive_checkpoint(&mut self, ctx: &mut Ctx<'_>) {
        if !self.checkpoint_active {
            return;
        }
        // issue up to flusher_batch page flushes per call
        let mut issued = 0;
        while issued < self.cfg.flusher_batch {
            let Some(page_id) = self.checkpoint_queue.pop() else {
                break;
            };
            if self.flush_page(ctx, page_id, true, Vec::new()) {
                issued += 1;
            }
        }
        if self.checkpoint_queue.is_empty() && self.flusher_outstanding == 0 {
            // checkpoint complete: durable position advances
            self.checkpoint_active = false;
            self.durable_checkpoint = Lsn(self.next_lsn - 1);
            self.redo_since_checkpoint = 0;
            // release stalled writers
            let stalled: Vec<u64> = self.stalled_writes.drain(..).collect();
            for conn in stalled {
                self.exec_current_op(ctx, conn);
            }
        }
    }

    /// Write a dirty page out: double-write first, then in place (2 IOs).
    /// A flush that parks `conns` is a foreground eviction (counted in
    /// `mysql.evict_flushes`); the rest are background or checkpoint
    /// flushes (`mysql.page_flushes`). Returns false if the page is no
    /// longer resident.
    fn flush_page(
        &mut self,
        ctx: &mut Ctx<'_>,
        page_id: PageId,
        checkpoint: bool,
        conns: Vec<u64>,
    ) -> bool {
        let Some(page) = self.txn.pool.peek(page_id) else {
            return false;
        };
        let page = page.clone();
        let req_id = self.req_id();
        self.flusher_outstanding += 2;
        let counter = if conns.is_empty() {
            "mysql.page_flushes"
        } else {
            "mysql.evict_flushes"
        };
        ctx.inc(counter, 1);
        self.flushes.insert(
            req_id,
            PendingFlush {
                remaining: 2,
                conns,
                checkpoint,
            },
        );
        ctx.send(
            self.cfg.ebs,
            EbsWritePage {
                req_id,
                page_id,
                page: page.clone(),
                doublewrite: true,
            },
        );
        ctx.send(
            self.cfg.ebs,
            EbsWritePage {
                req_id,
                page_id,
                page,
                doublewrite: false,
            },
        );
        self.txn.pool.mark_clean(page_id);
        true
    }

    // ---- reads / eviction ----

    fn on_read_resp(&mut self, ctx: &mut Ctx<'_>, resp: EbsReadResp) {
        let Some(pr) = self.reads.remove(&resp.req_id) else {
            return;
        };
        self.page_waits.remove(&pr.page);
        // room must be made: a dirty LRU victim forces a foreground flush
        // before the fetched page can come in ("the extra penalty of
        // evicting and flushing a dirty cache page")
        while self.txn.pool.len() >= self.txn.pool.capacity() {
            let Some((victim, dirty)) = self.txn.pool.lru_victim() else {
                break;
            };
            if dirty {
                // flush synchronously from the txn's perspective: the
                // conns stay parked until the page write completes
                self.flush_page(ctx, victim, false, pr.conns);
                self.txn.pool.remove(victim);
                // stash the fetched page for when the flush acks
                self.txn.pool.insert_unchecked(resp.page_id, resp.page);
                return;
            }
            self.txn.pool.remove(victim);
        }
        self.txn.pool.insert_unchecked(resp.page_id, resp.page);
        for conn in pr.conns {
            self.exec_current_op(ctx, conn);
        }
    }

    fn on_ebs_ack(&mut self, ctx: &mut Ctx<'_>, req_id: u64) {
        // anything but a page flush is the commit chain's log/binlog ack
        let Some(mut flush) = self.flushes.remove(&req_id) else {
            self.on_flush_ack(ctx);
            return;
        };
        flush.remaining -= 1;
        self.flusher_outstanding = self.flusher_outstanding.saturating_sub(1);
        if flush.remaining > 0 {
            self.flushes.insert(req_id, flush);
            return;
        }
        for conn in flush.conns {
            self.exec_current_op(ctx, conn);
        }
        if flush.checkpoint {
            self.drive_checkpoint(ctx);
        }
    }

    // ---- bootstrap / recovery ----

    fn bootstrap(&mut self, ctx: &mut Ctx<'_>) {
        let tree = self.txn.tree;
        self.txn.pool.insert_unchecked(PageId(0), Page::new());
        let mut p = PoolProvider::new(&mut self.txn.pool);
        tree.create(&mut p).expect("create");
        let bodies = p.bodies;
        self.alloc_lsns(bodies, TxnId::SYSTEM);
        self.bootstrap_next = 0;
        self.bootstrap_chunk(ctx);
    }

    fn bootstrap_chunk(&mut self, ctx: &mut Ctx<'_>) {
        const CHUNK: u64 = 4_000;
        let tree = self.txn.tree;
        let rows = self.cfg.bootstrap_rows;
        let end = (self.bootstrap_next + CHUNK).min(rows);
        for k in self.bootstrap_next..end {
            let row = bootstrap_row(k, self.cfg.row_size);
            let mut p = PoolProvider::new(&mut self.txn.pool);
            tree.insert(&mut p, k, &row).expect("bootstrap insert");
            let bodies = p.bodies;
            self.alloc_lsns(bodies, TxnId::SYSTEM);
            // ship the log in chunks so the EBS actor isn't flooded
            if self.log_buffer.len() >= 4_096 {
                self.ship_log(ctx, 0);
            }
        }
        self.bootstrap_next = end;
        if end < rows {
            // flush dirty pages in the background as the load proceeds so
            // the final checkpoint is not one giant burst
            let dirty = self.txn.pool.dirty_pages();
            self.write_back(ctx, dirty.into_iter().take(512));
            ctx.set_timer(SimDuration::from_millis(2), TAG_BOOTSTRAP);
            return;
        }
        // final flush: bootstrap pages durable, checkpoint taken
        let dirty = self.txn.pool.dirty_pages();
        self.write_back(ctx, dirty);
        if !self.log_buffer.is_empty() {
            self.ship_log(ctx, 0);
        }
        self.durable_checkpoint = Lsn(self.next_lsn - 1);
        self.redo_since_checkpoint = 0;
        self.txn.pool.shrink_to_capacity(Lsn(u64::MAX));
        self.status = Status::Ready;
        ctx.inc("mysql.bootstrap_rows", self.cfg.bootstrap_rows);
    }

    /// Bootstrap write-back: pages go straight to their home location,
    /// without the doublewrite copy.
    fn write_back(&mut self, ctx: &mut Ctx<'_>, pages: impl IntoIterator<Item = PageId>) {
        for page_id in pages {
            let Some(page) = self.txn.pool.peek(page_id) else {
                continue;
            };
            let page = page.clone();
            let req_id = self.req_id();
            ctx.send(
                self.cfg.ebs,
                EbsWritePage {
                    req_id,
                    page_id,
                    page,
                    doublewrite: false,
                },
            );
            self.txn.pool.mark_clean(page_id);
        }
    }

    fn start_recovery(&mut self, ctx: &mut Ctx<'_>) {
        self.status = Status::Recovering;
        self.replay_started = ctx.now();
        let req_id = self.req_id();
        ctx.send(
            self.cfg.ebs,
            ReplayReq {
                req_id,
                from_lsn: Lsn::ZERO,
            },
        );
    }

    fn on_replay(&mut self, ctx: &mut Ctx<'_>, records: Vec<LogRecord>) {
        // charge replay time for the tail since the checkpoint — this is
        // the cost Aurora eliminates (§4.3)
        let tail = records
            .iter()
            .filter(|r| r.lsn > self.durable_checkpoint)
            .count() as u64;
        let replay = SimDuration::from_secs_f64(tail as f64 / self.cfg.replay_rate.max(1) as f64);
        // fold the tail into the EBS page images
        let apply: Vec<LogRecord> = records
            .iter()
            .filter(|r| r.lsn > self.durable_checkpoint)
            .cloned()
            .collect();
        ctx.send(self.cfg.ebs, crate::ebs::ApplyToPages { records: apply });
        // reconstruct txn status + logical undo set
        let mut begun: Vec<TxnId> = Vec::new();
        let mut finished: Vec<TxnId> = Vec::new();
        let mut undos: Vec<(Lsn, TxnId, Op)> = Vec::new();
        let mut max_lsn = 0u64;
        let mut max_txn = 0u64;
        for r in &records {
            max_lsn = max_lsn.max(r.lsn.0);
            max_txn = max_txn.max(r.txn.0);
            match &r.body {
                RecordBody::TxnBegin => begun.push(r.txn),
                RecordBody::TxnCommit | RecordBody::TxnAbort => finished.push(r.txn),
                RecordBody::Undo { data } => {
                    if let Some((t, op)) = decode_undo(data) {
                        undos.push((r.lsn, t, op));
                    }
                }
                _ => {}
            }
        }
        self.next_lsn = max_lsn + 1;
        self.txn.next_txn = max_txn + 1;
        let in_flight: Vec<TxnId> = begun
            .into_iter()
            .filter(|t| !finished.contains(t))
            .collect();
        // stash rollbacks to run after the replay pause (BTreeMap so the
        // rollback order is txn-id order, not hash order)
        let mut per_txn: std::collections::BTreeMap<TxnId, Vec<(Lsn, Op)>> =
            std::collections::BTreeMap::new();
        for (lsn, t, op) in undos {
            if in_flight.contains(&t) {
                per_txn.entry(t).or_default().push((lsn, op));
            }
        }
        self.pending_rollbacks = per_txn
            .into_iter()
            .map(|(t, mut ops)| {
                ops.sort_by_key(|(l, _)| std::cmp::Reverse(*l));
                (t, ops.into_iter().map(|(_, op)| op).collect())
            })
            .collect();
        ctx.set_timer(replay, TAG_REPLAY_DONE);
    }
}

/// MySQL as the executor's backend: redo goes to a local log buffer (no
/// back-pressure), writes wait out checkpoints and serialise on the log
/// mutex, and a commit holds its locks until the flush round that makes
/// it durable completes.
impl TxnBackend for MysqlEngine {
    fn core(&mut self) -> &mut TxnCore {
        &mut self.txn
    }

    fn seal(&mut self, txn: TxnId, bodies: Vec<RecordBody>) -> Option<(Lsn, Lsn)> {
        Some(self.alloc_lsns(bodies, txn))
    }

    /// Checkpoint gate: new writes stall while a checkpoint drains
    /// ("reduce … interference with foreground transactions" is exactly
    /// what this engine cannot do).
    fn admit_write(&mut self, ctx: &mut Ctx<'_>, conn: u64) -> bool {
        if !self.checkpoint_active {
            return true;
        }
        ctx.inc("mysql.checkpoint_stalls", 1);
        self.stalled_writes.push_back(conn);
        false
    }

    /// Thread-per-connection scheduling overhead at high concurrency.
    fn cpu_cost(&mut self, base: SimDuration) -> SimDuration {
        let active = self.txn.running.len() as f64;
        let thrash = 1.0 + (active / self.cfg.thrash_conns.max(1) as f64).powi(2);
        base.mul_f64(thrash)
    }

    /// A write copies its records into the redo/binlog buffers under the
    /// single log mutex — serialized across all vCPUs; the next op starts
    /// when the mutex is released.
    fn after_op(&mut self, ctx: &mut Ctx<'_>, conn: u64, write: bool) -> bool {
        if !write || self.cfg.serial_log_cost == SimDuration::ZERO {
            return true;
        }
        let now = ctx.now();
        let end = self.log_mutex_free.max(now) + self.cfg.serial_log_cost;
        self.log_mutex_free = end;
        ctx.set_timer(end - now, TAG_MUTEX_BASE + conn);
        false
    }

    /// The transaction keeps its locks and joins the next flush round.
    fn commit_write(&mut self, ctx: &mut Ctx<'_>, rt: RunningTxn, _commit_lsn: Lsn) {
        self.commit_queue.push_back(rt);
        self.maybe_start_flush(ctx);
    }

    fn request_page(&mut self, ctx: &mut Ctx<'_>, page: PageId, conn: u64) {
        if let Some(req_id) = self.page_waits.get(&page) {
            if let Some(pr) = self.reads.get_mut(req_id) {
                if !pr.conns.contains(&conn) {
                    pr.conns.push(conn);
                }
                return;
            }
        }
        let req_id = self.req_id();
        self.page_waits.insert(page, req_id);
        self.reads.insert(
            req_id,
            PendingRead {
                page,
                conns: vec![conn],
            },
        );
        ctx.inc("mysql.page_fetches", 1);
        ctx.send(
            self.cfg.ebs,
            EbsReadPage {
                req_id,
                page_id: page,
            },
        );
    }
}

impl Actor for MysqlEngine {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Start => {
                self.bootstrap(ctx);
                ctx.set_timer(self.cfg.flusher_interval, TAG_FLUSHER);
                ctx.set_timer(SimDuration::from_millis(5), TAG_SWEEP);
            }
            ActorEvent::Restarted => {
                self.start_recovery(ctx);
                ctx.set_timer(self.cfg.flusher_interval, TAG_FLUSHER);
                ctx.set_timer(SimDuration::from_millis(5), TAG_SWEEP);
            }
            ActorEvent::Timer { tag } => match tag {
                TAG_FLUSHER => {
                    if !self.checkpoint_active {
                        let dirty = self.txn.pool.dirty_pages();
                        for page_id in dirty.into_iter().take(self.cfg.flusher_batch) {
                            self.flush_page(ctx, page_id, false, Vec::new());
                        }
                    }
                    ctx.set_timer(self.cfg.flusher_interval, TAG_FLUSHER);
                }
                TAG_SWEEP => {
                    self.expire_lock_waits(ctx);
                    ctx.set_timer(SimDuration::from_millis(5), TAG_SWEEP);
                }
                TAG_BOOTSTRAP if self.status == Status::Bootstrapping => {
                    self.bootstrap_chunk(ctx);
                }
                TAG_REPLAY_DONE => {
                    self.status = Status::Ready;
                    ctx.inc("mysql.recoveries", 1);
                    ctx.record(
                        "mysql.recovery_ns",
                        ctx.now().since(self.replay_started).nanos(),
                    );
                    let rollbacks = std::mem::take(&mut self.pending_rollbacks);
                    for (t, ops) in rollbacks {
                        self.spawn_rollback(ctx, t, ops);
                    }
                }
                t if t >= TAG_CPU_BASE => {
                    self.exec_current_op(ctx, t - TAG_CPU_BASE);
                }
                t if t >= TAG_MUTEX_BASE => {
                    // log mutex released: proceed to the next op
                    self.start_op(ctx, t - TAG_MUTEX_BASE);
                }
                _ => {}
            },
            ActorEvent::Message { from, msg } => {
                let msg = match msg.downcast::<ClientRequest>() {
                    Ok(req) => {
                        self.on_client_request(ctx, from, req);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<EbsAck>() {
                    Ok(a) => {
                        self.on_ebs_ack(ctx, a.req_id);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<EbsReadResp>() {
                    Ok(r) => {
                        self.on_read_resp(ctx, r);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<StandbyAck>() {
                    Ok(_) => {
                        self.on_flush_ack(ctx);
                        return;
                    }
                    Err(m) => m,
                };
                if let Ok(r) = msg.downcast::<ReplayResp>() {
                    self.on_replay(ctx, r.records);
                }
            }
            ActorEvent::DiskDone { .. } => {}
        }
    }

    fn on_crash(&mut self) {
        self.status = Status::Recovering;
        self.txn.crash();
        self.log_buffer.clear();
        self.log_buffer_bytes = 0;
        self.commit_queue.clear();
        self.flush = None;
        self.reads.clear();
        self.page_waits.clear();
        self.flushes.clear();
        self.stalled_writes.clear();
        self.checkpoint_active = false;
        self.checkpoint_queue.clear();
        self.flusher_outstanding = 0;
        self.pending_rollbacks.clear();
        self.log_mutex_free = SimTime::ZERO;
        // durable_checkpoint survives (it lives in the log header on EBS)
    }
}
