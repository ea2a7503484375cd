//! The Aurora writer instance.
//!
//! One actor hosts the full engine: connections execute transactions
//! against the B+-tree in the buffer cache through the shared executor
//! ([`crate::txn`]); every mutation becomes redo records (the only thing
//! that ever crosses the network to storage, §3.2); commits are
//! asynchronous (§4.2.2); reads are served at a read point from a single
//! complete segment (§4.2.3); crash recovery rebuilds the durable point
//! from a read quorum, truncates with a fresh epoch, and rolls back
//! in-flight transactions with logical undo (§4.3).
//!
//! The commit pipeline is [`crate::commit`], member health
//! [`crate::health`], recovery [`crate::recovery`]; this file is the actor
//! shell around them and the executor's Aurora backend. Waits consume no
//! CPU — the asynchrony the paper credits for Aurora's throughput.

use std::collections::BTreeMap;

use aurora_sim::hash::{FxHashMap as HashMap, FxHashSet as HashSet};
use std::sync::Arc;

use aurora_log::{
    mtr::CplMode, LogRecord, Lsn, LsnAllocator, MtrBuilder, Page, PageId, PgId, RecordBody,
    SegmentId, TxnId, LAL_DEFAULT,
};
use aurora_quorum::{QuorumConfig, TruncationRange, VolumeEpoch};
use aurora_sim::{Actor, ActorEvent, Ctx, Msg, NodeId, SimDuration, SimTime, SpanId, Tag, TimerId};
use aurora_storage::wire as swire;
use aurora_storage::{PgMembership, VolumeLayout};

use crate::commit::{CommitPipeline, ShipReason, Shipment, Step};
use crate::health::Health;
pub use crate::health::HealthState;
use crate::read_path::{PageReads, SclMap, READ_TIMEOUT};
use crate::recovery::{Advance, Recovered, Recovery, Reply};
pub use crate::txn::CONN_SYNTHETIC_BASE;
use crate::txn::{
    PoolProvider, RunningTxn, TxnBackend, TxnCore, TxnMetricNames, TxnParams, TAG_CPU_BASE,
};
use crate::wire::*;

const TAG_FLUSH: Tag = 1;
const TAG_SWEEP: Tag = 2;
const TAG_ZDP_RESUME: Tag = 4;
const TAG_RECOVERY_RESEND: Tag = 5;
const TAG_BOOTSTRAP: Tag = 6;

/// EC2 instance model (§6.1: the r3 family, each size doubling the last).
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    pub name: &'static str,
    pub vcpus: u32,
    /// Buffer cache capacity in pages.
    pub buffer_pages: usize,
}

impl InstanceSpec {
    pub fn r3(name: &'static str, vcpus: u32, buffer_pages: usize) -> Self {
        InstanceSpec {
            name,
            vcpus,
            buffer_pages,
        }
    }

    /// The five sizes used by Figure 6/7, with cache scaled to vCPUs.
    pub fn r3_family() -> Vec<InstanceSpec> {
        vec![
            InstanceSpec::r3("r3.large", 2, 4_000),
            InstanceSpec::r3("r3.xlarge", 4, 8_000),
            InstanceSpec::r3("r3.2xlarge", 8, 16_000),
            InstanceSpec::r3("r3.4xlarge", 16, 32_000),
            InstanceSpec::r3("r3.8xlarge", 32, 64_000),
        ]
    }

    pub fn r3_8xlarge() -> InstanceSpec {
        InstanceSpec::r3("r3.8xlarge", 32, 64_000)
    }
}

/// `pg`'s current membership. Every PG of the volume has one.
pub(crate) fn membership(members: &[PgMembership], pg: PgId) -> &PgMembership {
    members
        .iter()
        .find(|m| m.pg == pg)
        .expect("membership for every pg")
}

/// The node hosting `segment` now.
pub(crate) fn node_of(members: &[PgMembership], segment: SegmentId) -> NodeId {
    membership(members, segment.pg).slots[segment.replica as usize]
}

/// Install a membership the control plane sent. It re-sends memberships
/// on every sweep, so this reports whether `update` changed its PG's.
pub(crate) fn adopt_membership(members: &mut [PgMembership], update: PgMembership) -> bool {
    match members.iter_mut().find(|m| m.pg == update.pg) {
        Some(m) if *m != update => {
            *m = update;
            true
        }
        _ => false,
    }
}

/// Send a page read ([`PageReads`] builds them) to the node hosting its
/// segment now.
pub(crate) fn send_read(ctx: &mut Ctx<'_>, members: &[PgMembership], req: swire::ReadPageReq) {
    ctx.send(node_of(members, req.segment), req);
}

/// Compact (pg, slot) key for `engine.health` trace instants.
fn health_key(segment: SegmentId) -> u64 {
    ((segment.pg.0 as u64) << 8) | segment.replica as u64
}

/// Trace a member's health transition.
fn trace_health(ctx: &mut Ctx<'_>, segment: SegmentId, state: HealthState) {
    let key = health_key(segment);
    ctx.trace_instant("engine.health", SpanId::NONE, key, state as u64);
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub instance: InstanceSpec,
    pub quorum: QuorumConfig,
    pub layout: VolumeLayout,
    pub memberships: Vec<PgMembership>,
    /// Read replica nodes receiving the log stream.
    pub replicas: Vec<NodeId>,
    /// Control-plane node: recovery truncations are durably recorded there
    /// (the paper's DynamoDB role) so laggard segments still learn them.
    pub control: Option<NodeId>,
    /// Fixed row payload size.
    pub row_size: usize,
    /// LSN Allocation Limit (§4.2.1).
    pub lal: u64,
    pub cpl_mode: CplMode,
    /// CPU cost of one write statement.
    pub cpu_per_op: SimDuration,
    /// CPU cost of one read statement.
    pub cpu_per_read: SimDuration,
    /// Extra CPU per commit.
    pub cpu_per_commit: SimDuration,
    /// Group-commit deadline: once the pipe is full, staged records wait
    /// at most this long before they ship (a one-shot timer armed by the
    /// first record that could not ship immediately).
    pub flush_interval: SimDuration,
    /// Ship immediately once this many records are staged.
    pub max_batch_records: usize,
    /// The pipe counts as idle — staged records ship with no added delay —
    /// while fewer than this many batches are outstanding (shipped but not
    /// yet durable).
    pub ship_pipeline_depth: usize,
    /// Re-issue a storage read after this long.
    pub read_timeout: SimDuration,
    /// Abort a lock waiter after this long (deadlock breaker).
    pub lock_wait_timeout: SimDuration,
    /// Create the tree and load this many rows at start.
    pub bootstrap_rows: u64,
    /// Simulated duration of a ZDP engine swap (§7.4).
    pub zdp_pause: SimDuration,
    /// Start idle as a failover standby: the engine does nothing until a
    /// [`Promote`] message arrives, then recovers the volume and serves.
    pub standby: bool,
}

impl EngineConfig {
    /// Reasonable defaults for tests; experiments override.
    pub fn new(layout: VolumeLayout, memberships: Vec<PgMembership>) -> Self {
        EngineConfig {
            instance: InstanceSpec::r3_8xlarge(),
            quorum: QuorumConfig::aurora(),
            layout,
            memberships,
            replicas: Vec::new(),
            control: None,
            row_size: 96,
            lal: LAL_DEFAULT,
            cpl_mode: CplMode::LastOnly,
            cpu_per_op: SimDuration::from_micros(60),
            cpu_per_read: SimDuration::from_micros(40),
            cpu_per_commit: SimDuration::from_micros(30),
            flush_interval: SimDuration::from_micros(500),
            max_batch_records: 256,
            ship_pipeline_depth: 4,
            read_timeout: READ_TIMEOUT,
            lock_wait_timeout: SimDuration::from_millis(100),
            bootstrap_rows: 0,
            zdp_pause: SimDuration::from_millis(3),
            standby: false,
        }
    }
}

/// Externally visible engine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStatus {
    Bootstrapping,
    Ready,
    Recovering,
    Patching,
    /// Idle failover target; promotes on [`Promote`].
    Standby,
}

struct PendingCommit {
    conn: u64,
    client: NodeId,
    issued_at: SimTime,
    results: Vec<OpResult>,
    /// Open `engine.commit` trace span; a crash or fence drops it unclosed,
    /// which is exactly what the trace should show.
    span: SpanId,
}

/// Pre-resolved handles ([`Ctx::inc_id`]) for the per-event counters,
/// resolved on first use; they stay valid across crashes.
#[derive(Clone, Copy)]
struct HotIds {
    ack_ns: aurora_sim::MetricId,
    log_write_ios: aurora_sim::MetricId,
    batches: aurora_sim::MetricId,
    records_shipped: aurora_sim::MetricId,
    /// By [`ShipReason`].
    ship: [aurora_sim::MetricId; 4],
    page_fetches: aurora_sim::MetricId,
    page_fetch_ns: aurora_sim::MetricId,
    health_strikes: aurora_sim::MetricId,
    suspect_reports: aurora_sim::MetricId,
    hedged_ships: aurora_sim::MetricId,
    retransmits: aurora_sim::MetricId,
    sweep_ticks: aurora_sim::MetricId,
}

impl HotIds {
    fn resolve(ctx: &mut Ctx<'_>) -> Self {
        HotIds {
            ack_ns: ctx.metric_id("engine.ack_ns"),
            log_write_ios: ctx.metric_id("engine.log_write_ios"),
            batches: ctx.metric_id("engine.batches"),
            records_shipped: ctx.metric_id("engine.records_shipped"),
            ship: [
                ctx.metric_id("engine.ship_immediate"),
                ctx.metric_id("engine.ship_size"),
                ctx.metric_id("engine.ship_deadline"),
                ctx.metric_id("engine.ship_forced"),
            ],
            page_fetches: ctx.metric_id("engine.page_fetches"),
            page_fetch_ns: ctx.metric_id("engine.page_fetch_ns"),
            health_strikes: ctx.metric_id("engine.health_strikes"),
            suspect_reports: ctx.metric_id("engine.suspect_reports"),
            hedged_ships: ctx.metric_id("engine.hedged_ships"),
            retransmits: ctx.metric_id("engine.log_write_retransmits"),
            sweep_ticks: ctx.metric_id("engine.sweep_ticks"),
        }
    }
}

/// The executor's metric names on the Aurora writer.
static ENGINE_TXN_METRICS: TxnMetricNames = TxnMetricNames {
    txn_ns: "engine.txn_ns",
    commit_ns: "engine.commit_ns",
    commits: "engine.commits",
    read_txns: "engine.read_txns",
    write_txns: "engine.write_txns",
    aborts: "engine.aborts",
    rollback_errors: "engine.rollback_errors",
    lock_waits: "engine.lock_waits",
    lock_timeouts: "engine.lock_timeouts",
    lal_stalls: "engine.lal_stalls",
    select_ns: "engine.select_ns",
    scan_ns: "engine.scan_ns",
    insert_ns: "engine.insert_ns",
    update_ns: "engine.update_ns",
    delete_ns: "engine.delete_ns",
};

/// The writer-instance actor.
pub struct EngineActor {
    cfg: EngineConfig,
    /// Lazily resolved metric handles (not state: survives crashes).
    hot: Option<HotIds>,
    /// Test-only fault: `flush_staging` ships nothing. Survives crashes
    /// (a persistent defect the DST liveness oracle must catch).
    stall_ship: bool,
    status: EngineStatus,
    engine_version: u64,
    /// The shared executor: buffer pool, locks, running transactions.
    txn: TxnCore,

    // ---- volatile state (rebuilt by recovery) ----
    alloc: LsnAllocator,
    chain_tails: HashMap<PgId, Lsn>,
    /// Staging, the outstanding window, the durability tracker.
    commit: CommitPipeline,
    epoch: VolumeEpoch,
    /// The armed TAG_FLUSH timer: every arm goes through
    /// [`EngineActor::arm_flush_timer`], so none is ever stacked.
    flush_timer: Option<TimerId>,
    /// The armed TAG_SWEEP timer, armed only by [`EngineActor::arm_sweep`]:
    /// one sweep chain however often the writer is fenced and promoted.
    sweep_timer: Option<TimerId>,
    commit_waiters: BTreeMap<Lsn, Vec<PendingCommit>>,
    /// Each segment's last reported SCL: where reads may go.
    scls: SclMap,
    page_reads: PageReads,
    pending_inserts: Vec<(PageId, Page)>,
    health: Health,
    recovery: Option<Recovery>,
    /// The truncation range this writer's recovery issued, replayed to
    /// segments that missed it ([`swire::EpochBehind`]).
    last_truncation: Option<TruncationRange>,
    zdp: Option<(NodeId, u64)>,
    patch_queue: Vec<(NodeId, ClientRequest)>,
    known_conns: HashSet<u64>,
    bootstrap_next: u64,
}

/// Deterministic bootstrap row content.
pub fn bootstrap_row(key: u64, row_size: usize) -> Vec<u8> {
    let mut row = vec![0u8; row_size];
    row[..8].copy_from_slice(&key.to_le_bytes());
    row[8..16].copy_from_slice(&key.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes());
    row
}

impl EngineActor {
    /// Resolve (once) and copy out the hot metric handles.
    fn hot(&mut self, ctx: &mut Ctx<'_>) -> HotIds {
        *self.hot.get_or_insert_with(|| HotIds::resolve(ctx))
    }

    pub fn new(cfg: EngineConfig) -> Self {
        let params = TxnParams {
            row_size: cfg.row_size,
            vcpus: cfg.instance.vcpus as usize,
            buffer_pages: cfg.instance.buffer_pages,
            cpu_per_op: cfg.cpu_per_op,
            cpu_per_read: cfg.cpu_per_read,
            cpu_per_commit: cfg.cpu_per_commit,
            lock_wait_timeout: cfg.lock_wait_timeout,
        };
        EngineActor {
            hot: None,
            stall_ship: false,
            txn: TxnCore::new(params, &ENGINE_TXN_METRICS),
            alloc: LsnAllocator::new(Lsn::ZERO, cfg.lal),
            commit: CommitPipeline::new(&cfg),
            status: EngineStatus::Bootstrapping,
            engine_version: 1,
            chain_tails: HashMap::default(),
            epoch: VolumeEpoch(0),
            flush_timer: None,
            sweep_timer: None,
            commit_waiters: BTreeMap::new(),
            scls: SclMap::default(),
            page_reads: PageReads::default(),
            pending_inserts: Vec::new(),
            health: Health::default(),
            recovery: None,
            last_truncation: None,
            zdp: None,
            patch_queue: Vec::new(),
            known_conns: HashSet::default(),
            bootstrap_next: 0,
            cfg,
        }
    }

    /// Current VDL (inspection).
    pub fn vdl(&self) -> Lsn {
        self.commit.vdl()
    }

    /// Current status (inspection).
    pub fn status(&self) -> EngineStatus {
        self.status
    }

    /// Current volume epoch (inspection): bumped by every completed
    /// recovery, never regresses — the DST epoch oracle watches it.
    pub fn current_epoch(&self) -> VolumeEpoch {
        self.epoch
    }

    /// Engine version (for ZDP tests).
    pub fn version(&self) -> u64 {
        self.engine_version
    }

    /// Test-only failure injection: staged records never ship. The DST
    /// negative test proves the liveness oracle catches a stuck flush.
    #[doc(hidden)]
    pub fn test_stall_ship(&mut self, stalled: bool) {
        self.stall_ship = stalled;
    }

    /// Number of staged-but-unshipped records — inspection for tests.
    #[doc(hidden)]
    pub fn staged_records(&self) -> usize {
        self.commit.staged()
    }

    /// Members the health tracker currently holds in a non-healthy state —
    /// inspection for the DST health-convergence oracle.
    pub fn suspect_count(&self) -> usize {
        self.health.non_healthy()
    }

    /// Health state of one member — inspection for tests.
    pub fn health_state(&self, segment: SegmentId) -> HealthState {
        self.health.state(segment)
    }

    /// Test-only failure injection: a member degraded for good. The DST
    /// negative test proves the health oracle catches lingering suspects.
    #[doc(hidden)]
    pub fn test_taint_health(&mut self, segment: SegmentId) {
        self.health.taint(segment);
    }

    /// Buffer cache (hits, misses) — inspection.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.txn.pool.hits, self.txn.pool.misses)
    }

    /// Active (running, non-synthetic) transactions — inspection.
    pub fn active_txns(&self) -> usize {
        self.txn
            .running
            .iter()
            .filter(|(c, _)| **c < CONN_SYNTHETIC_BASE)
            .count()
    }

    /// The watermarks every write carries: the VDL, and §4.2.3's PGMRPL
    /// (below it no read is issued and storage may GC), held below the
    /// oldest uncommitted transaction so its undo records survive.
    fn watermarks(&self) -> (Lsn, Lsn) {
        let vdl = self.commit.vdl();
        let mut low = vdl;
        for rt in self.txn.running.values() {
            if rt.wrote && !rt.first_lsn.is_zero() {
                low = low.min(Lsn(rt.first_lsn.0.saturating_sub(1)));
            }
        }
        (vdl, low)
    }

    /// The one place a `WriteBatch` is built: every ship and re-ship goes
    /// out under this writer's epoch, carrying `watermarks`.
    fn send_batch(&self, ctx: &mut Ctx<'_>, s: Shipment, (vdl, pgmrpl): (Lsn, Lsn)) {
        let batch = swire::WriteBatch {
            segment: s.segment,
            records: s.records,
            batch_end: s.batch_end,
            epoch: self.epoch,
            vdl,
            pgmrpl,
        };
        ctx.send(s.node, batch);
    }

    // ---- log staging / shipping ----

    /// Seal a mini-transaction: allocate LSNs, thread backlinks, stage the
    /// records, stamp cached pages. Returns (first, last) LSNs, or `None`
    /// under LAL back-pressure.
    fn seal_mtr(&mut self, txn: TxnId, bodies: Vec<RecordBody>) -> Option<(Lsn, Lsn)> {
        if bodies.is_empty() {
            return Some((Lsn::ZERO, Lsn::ZERO));
        }
        let mut b = MtrBuilder::new();
        for body in bodies {
            b.push(txn, body);
        }
        let layout = self.cfg.layout.clone();
        let records = b
            .finish(
                &mut self.alloc,
                |p| layout.pg_of(p),
                &mut self.chain_tails,
                self.cfg.cpl_mode,
            )
            .ok()?; // LAL back-pressure
        let first = records.first().unwrap().lsn;
        let last = records.last().unwrap().lsn;
        for rec in &records {
            if let Some(page) = rec.page() {
                self.txn.pool.set_lsn(page, rec.lsn);
            }
        }
        self.commit.stage(records);
        Some((first, last))
    }

    /// §2.2: PGs are "allocated as the volume grows". Staged records past
    /// the provisioned PGs mint a membership (striped over the same storage
    /// nodes, 2 per AZ), wire its gossip peers, and tell the control plane.
    fn ensure_memberships(&mut self, ctx: &mut Ctx<'_>) {
        let new_pgs: Vec<PgId> = self
            .commit
            .staged_pgs()
            .iter()
            .filter(|pg| self.cfg.memberships.iter().all(|m| m.pg != **pg))
            .copied()
            .collect();
        for pg in new_pgs {
            // reuse an existing PG's slot->node pattern, rotated by index
            let template = self.cfg.memberships[pg.0 as usize % self.cfg.memberships.len()].clone();
            let m = PgMembership::new(pg, template.slots.clone());
            for (replica, node) in m.slots.iter().enumerate() {
                ctx.send(
                    *node,
                    swire::SegmentPeers {
                        segment: SegmentId::new(pg, replica as u8),
                        peers: m.peers_of(replica as u8),
                    },
                );
            }
            if let Some(control) = self.cfg.control {
                ctx.send(
                    control,
                    swire::MembershipUpdate {
                        membership: m.clone(),
                    },
                );
            }
            self.cfg.memberships.push(m);
            self.cfg.layout.grow_to_cover(aurora_log::PageId(
                (pg.0 as u64 + 1) * self.cfg.layout.pages_per_pg - 1,
            ));
            ctx.inc("engine.volume_growths", 1);
        }
    }

    fn flush_staging(&mut self, ctx: &mut Ctx<'_>, reason: ShipReason) {
        let ids = self.hot(ctx);
        if self.commit.staged() == 0 || self.stall_ship {
            return; // `stall_ship`: the injected defect of `test_stall_ship`
        }
        // a deadline covers only the records staged when it was armed;
        // shipping them by any other route disarms it
        self.cancel_flush_timer(ctx);
        ctx.inc_id(ids.ship[reason as usize], 1);
        self.ensure_memberships(ctx);
        let Some((batch_end, records)) = self.commit.cut() else {
            return;
        };
        let wm @ (vdl, pgmrpl) = self.watermarks();
        // closes when the 4/6 write quorum has acked the batch
        let span = ctx.trace_begin(
            "engine.batch_quorum",
            SpanId::NONE,
            batch_end.0,
            records.len() as u64,
        );
        ctx.trace_instant("wm.pgmrpl", span, pgmrpl.0, 0);
        ctx.gauge("engine.pgmrpl", pgmrpl.0);
        ctx.gauge("engine.inflight_batches", self.commit.in_flight() as u64);
        ctx.trace_instant("engine.ship", span, reason as u64, records.len() as u64);
        // each PG's shard goes to all six of its replicas
        self.commit.open(batch_end, &records, ctx.now(), span);
        for s in self.commit.shipments(batch_end, &self.cfg.memberships) {
            self.send_batch(ctx, s, wm);
            ctx.inc_id(ids.log_write_ios, 1);
        }
        // stream to read replicas (off the commit path), one shared slice
        let now = ctx.now();
        let record_count = records.len();
        let stream: Arc<[LogRecord]> = records.into();
        for replica in self.cfg.replicas.clone() {
            ctx.send(
                replica,
                LogStream {
                    records: Arc::clone(&stream),
                    vdl,
                    sent_at: now,
                },
            );
        }
        ctx.inc_id(ids.batches, 1);
        ctx.inc_id(ids.records_shipped, record_count as u64);
    }

    /// The group-commit decision point, after every staging step and every
    /// ack (a drained pipe releases staging early: the path self-clocks).
    fn maybe_flush(&mut self, ctx: &mut Ctx<'_>) {
        match self.commit.ship_decision() {
            None => {}
            Some(ShipReason::Deadline) => self.arm_flush_timer(ctx),
            Some(reason) => self.flush_staging(ctx, reason),
        }
    }

    /// Arm the group-commit deadline unless one is already armed.
    fn arm_flush_timer(&mut self, ctx: &mut Ctx<'_>) {
        if self.flush_timer.is_none() {
            self.flush_timer = Some(ctx.set_timer(self.cfg.flush_interval, TAG_FLUSH));
        }
    }

    /// Arm the next periodic sweep unless one is already armed.
    fn arm_sweep(&mut self, ctx: &mut Ctx<'_>) {
        if self.sweep_timer.is_none() {
            self.sweep_timer = Some(ctx.set_timer(SimDuration::from_millis(5), TAG_SWEEP));
        }
    }

    fn cancel_flush_timer(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(id) = self.flush_timer.take() {
            ctx.cancel_timer(id);
        }
    }

    // ---- VDL advance reactions ----

    fn on_vdl_advance(&mut self, ctx: &mut Ctx<'_>, vdl: Lsn) {
        let ids = self.txn.ids(ctx);
        self.alloc.advance_vdl(vdl);
        ctx.trace_instant("wm.vdl", SpanId::NONE, vdl.0, 0);
        ctx.gauge("engine.vdl", vdl.0);
        // complete asynchronous commits (§4.2.2)
        let ready: Vec<Lsn> = self.commit_waiters.range(..=vdl).map(|(l, _)| *l).collect();
        let now = ctx.now();
        for lsn in ready {
            for pc in self.commit_waiters.remove(&lsn).unwrap() {
                let latency = now.since(pc.issued_at).nanos();
                ctx.record_id(ids.txn_ns, latency);
                ctx.record_id(ids.commit_ns, latency);
                ctx.inc_id(ids.commits, 1);
                ctx.trace_end("engine.commit", pc.span, lsn.0, latency);
                ctx.send(
                    pc.client,
                    ClientResponse {
                        conn: pc.conn,
                        result: TxnResult::Committed(pc.results),
                        issued_at: pc.issued_at,
                    },
                );
            }
        }
        // retry stalled cache inserts (eviction was blocked on durability)
        if !self.pending_inserts.is_empty() {
            let pending = std::mem::take(&mut self.pending_inserts);
            for (id, page) in pending {
                if let Err(p) = self.txn.pool.insert(id, page, vdl) {
                    self.pending_inserts.push((id, p));
                }
            }
        }
        // trim any bootstrap overshoot
        self.txn.pool.shrink_to_capacity(vdl);
        // wake LAL waiters
        let waiters: Vec<u64> = self.txn.seal_waiters.drain(..).collect();
        for conn in waiters {
            self.exec_current_op(ctx, conn);
        }
        // tell replicas even when no records flowed
        for replica in self.cfg.replicas.clone() {
            ctx.send(replica, VdlUpdate { vdl, sent_at: now });
        }
    }

    // ---- client requests ----

    /// Admit a client transaction into the executor, or queue it across a
    /// ZDP swap, or refuse it while the engine cannot serve.
    fn on_client_request(&mut self, ctx: &mut Ctx<'_>, client: NodeId, req: ClientRequest) {
        if self.status == EngineStatus::Patching {
            self.patch_queue.push((client, req));
            return;
        }
        if self.status == EngineStatus::Recovering || self.status == EngineStatus::Standby {
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
        debug_assert!(req.conn < CONN_SYNTHETIC_BASE, "reserved conn space");
        self.known_conns.insert(req.conn);
        self.begin_request(ctx, client, req);
    }

    fn apply_zdp(&mut self, ctx: &mut Ctx<'_>) {
        let (requester, version) = self.zdp.take().unwrap();
        // §7.4: spool sessions, swap the engine, reload — requests arriving
        // during the swap are queued, never dropped
        self.status = EngineStatus::Patching;
        self.engine_version = version;
        ctx.set_timer(self.cfg.zdp_pause, TAG_ZDP_RESUME);
        ctx.inc("engine.zdp_patches", 1);
        ctx.send(
            requester,
            ZdpDone {
                version,
                sessions_preserved: self.known_conns.len() as u64,
                connections_dropped: 0,
            },
        );
    }

    // ---- storage reads ----

    /// §4.2.3: a segment complete at `read_point`, never slot `avoid`. The
    /// bar is the newest record this writer wrote to the PG (its chain
    /// tail), clamped by the read point.
    fn route(&self, ctx: &mut Ctx<'_>, pg: PgId, read_point: Lsn, avoid: Option<u8>) -> SegmentId {
        let tail = self.chain_tails.get(&pg).copied().unwrap_or(Lsn::ZERO);
        let slots = membership(&self.cfg.memberships, pg).slots.len() as u8;
        let bar = tail.min(read_point);
        self.scls
            .pick(pg, slots, bar, avoid, &self.health, ctx.rng())
    }

    fn on_page_resp(&mut self, ctx: &mut Ctx<'_>, resp: swire::ReadPageResp) {
        let Some(done) = self.page_reads.complete(resp.req_id, resp.page.lsn) else {
            return; // stale retry
        };
        let ids = self.hot(ctx);
        ctx.record_id(ids.page_fetch_ns, ctx.now().since(done.sent_at).nanos());
        if done.past_read_point {
            ctx.inc("oracle.read_past_read_point", 1);
        }
        let vdl = self.commit.vdl();
        if let Err(page) = self.txn.pool.insert(resp.page_id, resp.page, vdl) {
            self.pending_inserts.push((resp.page_id, page));
        }
        for conn in done.conns {
            self.exec_current_op(ctx, conn);
        }
    }

    // ---- gray-failure health (§4.1 monitoring): the scores are [`crate::health`] ----

    /// Strike `segment`. A member newly degraded on its own is reported to
    /// the control plane, which fences the segment and repairs it onto a
    /// spare *before* the node fails hard.
    fn strike(&mut self, ctx: &mut Ctx<'_>, segment: SegmentId) {
        let (changed, report) = self.health.strike(segment, ctx.now());
        let ids = self.hot(ctx);
        ctx.inc_id(ids.health_strikes, 1);
        if let Some(state) = changed {
            trace_health(ctx, segment, state);
        }
        if let (true, Some(control)) = (report, self.cfg.control) {
            ctx.inc_id(ids.suspect_reports, 1);
            ctx.trace_instant("engine.suspect", SpanId::NONE, health_key(segment), 0);
            let node = node_of(&self.cfg.memberships, segment);
            ctx.send(control, swire::SuspectReport { segment, node });
        }
    }

    // ---- periodic sweep: lock timeouts, read retries, retransmits ----

    fn sweep(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let steps = self.commit.sweep(now, &self.cfg.memberships, &self.health);
        self.carry_out(ctx, steps);
        for segment in self.health.decay(now) {
            trace_health(ctx, segment, HealthState::Healthy);
        }
        self.expire_lock_waits(ctx);
        for stale in self.page_reads.expired(now, self.cfg.read_timeout) {
            self.strike(ctx, stale.segment);
            self.retry_read(ctx, stale);
        }
    }

    /// Send a read in flight to another member: on a timeout (the sweep)
    /// and on a [`swire::ReadPageNack`] from a segment incomplete at the
    /// read point. Either way the member it went to is avoided.
    fn retry_read(&mut self, ctx: &mut Ctx<'_>, stale: swire::ReadPageReq) {
        let avoid = Some(stale.segment.replica);
        let target = self.route(ctx, stale.segment.pg, stale.read_point, avoid);
        if let Some(req) = self.page_reads.redirect(stale.req_id, target, ctx.now()) {
            ctx.inc("engine.read_retries", 1);
            send_read(ctx, &self.cfg.memberships, req);
        }
    }

    /// Carry out re-ship steps in order: strikes, and each tier's sends
    /// with its counters. Every re-ship carries the watermarks of now.
    fn carry_out(&mut self, ctx: &mut Ctx<'_>, steps: Vec<Step>) {
        let ids = self.hot(ctx);
        if steps.is_empty() {
            return;
        }
        let wm = self.watermarks();
        let now = ctx.now();
        for step in steps {
            match step {
                Step::Strike(segment) => self.strike(ctx, segment),
                Step::Lost(s) => {
                    let key = health_key(s.segment);
                    ctx.trace_instant("engine.loss_reship", s.span, s.batch_end.0, key);
                    ctx.inc_id(ids.hedged_ships, 1);
                    ctx.inc("engine.loss_reships", 1);
                    self.send_batch(ctx, s, wm);
                }
                Step::Retransmit(s) => {
                    ctx.inc_id(ids.retransmits, 1);
                    self.send_batch(ctx, s, wm);
                }
                Step::Hedge(s) => {
                    ctx.inc_id(ids.hedged_ships, 1);
                    self.send_batch(ctx, s, wm);
                }
                Step::Backoff(batch_end) => self.commit.backoff(batch_end, now, ctx.rng()),
            }
        }
    }

    // ---- bootstrap ----

    fn bootstrap(&mut self, ctx: &mut Ctx<'_>) {
        let tree = self.txn.tree;
        self.txn.pool.insert_unchecked(PageId(0), Page::new());
        let mut p = PoolProvider::new(&mut self.txn.pool);
        tree.create(&mut p).expect("create never misses");
        let bodies = p.bodies;
        self.seal_mtr(TxnId::SYSTEM, bodies).expect("LAL headroom");
        self.bootstrap_next = 0;
        self.bootstrap_chunk(ctx);
    }

    /// Load rows in chunks so acknowledgements, coalescing and GC on the
    /// storage fleet interleave with the load (keeps memory bounded for
    /// the out-of-cache experiments).
    fn bootstrap_chunk(&mut self, ctx: &mut Ctx<'_>) {
        const CHUNK: u64 = 4_000;
        let rows = self.cfg.bootstrap_rows;
        let row_size = self.cfg.row_size;
        let tree = self.txn.tree;
        let end = (self.bootstrap_next + CHUNK).min(rows);
        for k in self.bootstrap_next..end {
            self.ensure_leaf_room(k)
                .unwrap_or_else(|_| panic!("bootstrap split failed at {k}"));
            let bodies = {
                let mut p = PoolProvider::new(&mut self.txn.pool);
                let row = bootstrap_row(k, row_size);
                tree.insert_no_split(&mut p, k, &row)
                    .expect("bootstrap insert");
                p.bodies
            };
            self.seal_mtr(TxnId::SYSTEM, bodies).expect("LAL");
            if self.commit.staged() >= 512 {
                self.flush_staging(ctx, ShipReason::Forced);
            }
        }
        self.flush_staging(ctx, ShipReason::Forced);
        self.bootstrap_next = end;
        if end < rows {
            ctx.set_timer(SimDuration::from_millis(2), TAG_BOOTSTRAP);
        } else {
            self.status = EngineStatus::Ready;
            ctx.inc("engine.bootstrap_rows", rows);
        }
    }

    // ---- recovery (§4.3): the state machine is [`crate::recovery`] ----

    fn start_recovery(&mut self, ctx: &mut Ctx<'_>) {
        self.status = EngineStatus::Recovering;
        let span = ctx.trace_begin("engine.recovery", SpanId::NONE, 0, 0);
        self.recovery = Some(Recovery::start(&self.cfg, ctx.now(), span));
        self.send_recovery_requests(ctx);
        ctx.set_timer(SimDuration::from_millis(50), TAG_RECOVERY_RESEND);
    }

    /// Send what the current recovery phase still needs answered, on phase
    /// entry and every 50 ms (requests are fire-and-forget).
    fn send_recovery_requests(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(rec) = &self.recovery {
            for (segment, msg) in rec.requests() {
                ctx.send_msg(node_of(&self.cfg.memberships, segment), msg);
            }
        }
    }

    fn on_recovery_reply(&mut self, ctx: &mut Ctx<'_>, reply: Reply) {
        if let Reply::Truncated(ack) = &reply {
            // post-truncation SCL: the freshest completeness signal
            self.scls.insert(ack.segment, ack.scl);
        }
        let Some(rec) = self.recovery.as_mut() else {
            return;
        };
        let span = rec.span;
        match rec.on_reply(reply) {
            None => {}
            Some(Advance::Vcl(vcl)) => {
                ctx.trace_instant("wm.vcl", span, vcl.0, 0);
                self.send_recovery_requests(ctx);
            }
            Some(Advance::Truncate(range)) => {
                ctx.trace_instant("wm.vdl", span, range.above.0, 0);
                self.send_recovery_requests(ctx);
                // durably record the truncation in the control plane (§4.3:
                // "written durably to the storage service so that there is no
                // confusion … in case recovery is interrupted and restarted")
                if let Some(control) = self.cfg.control {
                    let segment = SegmentId::new(PgId(0), 0);
                    ctx.send(control, swire::Truncate { segment, range });
                }
                self.epoch = range.epoch;
                self.last_truncation = Some(range);
            }
            Some(Advance::Scan) => self.send_recovery_requests(ctx),
            Some(Advance::Recovered(done)) => self.finish_recovery(ctx, done),
        }
    }

    /// Install the recovered volume, then undo in-flight transactions
    /// online through the normal write path.
    fn finish_recovery(&mut self, ctx: &mut Ctx<'_>, done: Recovered) {
        let Some(rec) = self.recovery.take() else {
            return;
        };
        self.alloc = LsnAllocator::new(done.vdl, self.cfg.lal);
        self.commit.reset(done.vdl);
        self.chain_tails = done.tails;
        self.txn.next_txn = done.next_txn;
        self.status = EngineStatus::Ready;
        for (txn, inverse_ops) in done.rollbacks {
            self.spawn_rollback(ctx, txn, inverse_ops);
        }
        for txn in done.begin_only {
            let _ = self.seal_mtr(txn, vec![RecordBody::TxnAbort]);
        }
        self.flush_staging(ctx, ShipReason::Forced);
        ctx.inc("engine.recoveries", 1);
        ctx.inc("engine.recovery_undone_ops", done.undone_ops);
        ctx.record("engine.recovery_ns", ctx.now().since(rec.started).nanos());
        ctx.trace_end("engine.recovery", rec.span, done.vdl.0, done.undone_ops);
    }

    /// Drop everything but configuration: a crash loses it, and a fenced
    /// writer must not serve from it if it is promoted again.
    fn reset_volatile(&mut self) {
        self.txn.crash();
        self.commit.reset(Lsn::ZERO);
        // a crash's timers die with it; a fence cancels its own
        self.flush_timer = None;
        self.commit_waiters.clear();
        self.scls.clear();
        self.page_reads.clear();
        self.pending_inserts.clear();
        self.health.clear();
        self.recovery = None;
        self.zdp = None;
        self.patch_queue.clear();
        self.alloc = LsnAllocator::new(Lsn::ZERO, self.cfg.lal);
        self.chain_tails.clear();
    }

    /// A write ack: take it (latency, health, loss re-ships carrying the
    /// pre-ack VDL), count it toward the quorum (a VDL advance releases
    /// commits, which may ship), then drain the durable batches — last,
    /// because the ship decision counts the outstanding window.
    fn on_write_ack(&mut self, ctx: &mut Ctx<'_>, ack: swire::WriteAck) {
        let ids = self.hot(ctx);
        let (segment, batch_end) = (ack.segment, ack.batch_end);
        self.scls.insert(segment, ack.scl);
        let memberships = &self.cfg.memberships;
        let now = ctx.now();
        if let Some(fresh) =
            self.commit
                .on_ack(&mut self.health, memberships, segment, batch_end, now)
        {
            ctx.record_id(ids.ack_ns, fresh.latency_ns);
            if let Some(state) = fresh.health {
                trace_health(ctx, segment, state);
            }
            self.carry_out(ctx, fresh.lost);
        }
        if let Some(vdl) = self.commit.count_ack(segment, batch_end) {
            self.on_vdl_advance(ctx, vdl);
        }
        while let Some((end, span, acks)) = self.commit.pop_durable() {
            ctx.trace_end("engine.batch_quorum", span, end.0, acks as u64);
        }
        // freed pipeline slots: staged records may ship at once
        self.maybe_flush(ctx);
    }

    /// A newer writer owns the volume: answer running transactions and end
    /// the incarnation as a crash would, so a promotion serves no stale cache.
    fn on_fenced(&mut self, ctx: &mut Ctx<'_>, epoch: VolumeEpoch) {
        if epoch <= self.epoch || self.status != EngineStatus::Ready {
            return;
        }
        ctx.inc("engine.fenced", 1);
        let mut conns: Vec<u64> = self.txn.running.keys().copied().collect();
        conns.sort_unstable();
        for conn in conns {
            let Some(rt) = self.txn.running.remove(&conn) else {
                continue;
            };
            if rt.client != aurora_sim::sim::EXTERNAL {
                let reason = "fenced: a newer writer owns the volume".into();
                let resp = ClientResponse {
                    conn: rt.conn,
                    result: TxnResult::Aborted(reason),
                    issued_at: rt.issued_at,
                };
                ctx.send(rt.client, resp);
            }
        }
        self.cancel_flush_timer(ctx);
        self.reset_volatile();
        self.status = EngineStatus::Standby;
    }

    fn on_storage_msg(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Msg) {
        let msg = match msg.downcast::<swire::WriteAck>() {
            Ok(ack) => return self.on_write_ack(ctx, ack),
            Err(m) => m,
        };
        let msg = match msg.downcast::<swire::WriteFenced>() {
            Ok(f) => return self.on_fenced(ctx, f.epoch),
            Err(m) => m,
        };
        let msg = match msg.downcast::<swire::ReadPageResp>() {
            Ok(resp) => return self.on_page_resp(ctx, resp),
            Err(m) => m,
        };
        let msg = match msg.downcast::<swire::MembershipUpdate>() {
            Ok(mu) => {
                // only a real change may reset health state
                let pg = mu.membership.pg;
                if adopt_membership(&mut self.cfg.memberships, mu.membership) {
                    self.health.forget_pg(pg);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match Reply::from_msg(msg) {
            Ok(reply) => return self.on_recovery_reply(ctx, reply),
            Err(m) => m,
        };
        let msg = match msg.downcast::<swire::ReadPageNack>() {
            Ok(nack) => {
                // The segment told us exactly how far behind it is; refresh
                // our view and redirect the read immediately instead of
                // waiting out the read timeout.
                self.scls.insert(nack.segment, nack.scl);
                let read = self.page_reads.in_flight(nack.req_id);
                if let Some(read) = read.filter(|r| r.segment == nack.segment) {
                    ctx.inc("engine.read_nacks", 1);
                    self.strike(ctx, nack.segment);
                    self.retry_read(ctx, read);
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(behind) = msg.downcast::<swire::EpochBehind>() {
            // The segment missed our recovery's truncation: replay it. The
            // refused batch itself goes again with the sweep's retransmit.
            if let Some(range) = self.last_truncation {
                ctx.inc("engine.epoch_replays", 1);
                ctx.send(
                    from,
                    swire::Truncate {
                        segment: behind.segment,
                        range,
                    },
                );
            }
        }
    }
}

/// Aurora as the executor's backend: redo is sealed into the staging
/// buffer under LAL back-pressure, locks drop when the commit record is
/// sealed, and commits are acknowledged when the VDL passes them.
impl TxnBackend for EngineActor {
    fn core(&mut self) -> &mut TxnCore {
        &mut self.txn
    }

    fn seal(&mut self, txn: TxnId, bodies: Vec<RecordBody>) -> Option<(Lsn, Lsn)> {
        self.seal_mtr(txn, bodies)
    }

    /// Every statement is a group-commit decision point.
    fn after_op(&mut self, ctx: &mut Ctx<'_>, _conn: u64, _write: bool) -> bool {
        self.maybe_flush(ctx);
        true
    }

    fn commit_write(&mut self, ctx: &mut Ctx<'_>, rt: RunningTxn, commit_lsn: Lsn) {
        let ids = self.txn.ids(ctx);
        ctx.inc_id(ids.write_txns, 1);
        // early lock release is safe: the VDL advances in LSN order, so a
        // dependent commit can never out-run this one
        self.txn.locks.release_all(rt.txn);
        self.resume_lock_waiters(ctx);
        let span = ctx.trace_begin("engine.commit", SpanId::NONE, commit_lsn.0, rt.txn.0);
        self.commit_waiters
            .entry(commit_lsn)
            .or_default()
            .push(PendingCommit {
                conn: rt.conn,
                client: rt.client,
                issued_at: rt.issued_at,
                results: rt.results,
                span,
            });
        // the group-commit window (flush timer / batch cap) ships this;
        // forcing a flush here would defeat batching
        self.maybe_flush(ctx);
    }

    /// Read `page` at the VDL from one complete segment.
    fn request_page(&mut self, ctx: &mut Ctx<'_>, page: PageId, conn: u64) {
        if self.page_reads.join(page, conn) {
            return;
        }
        let read_point = self.commit.vdl();
        let pg = self.cfg.layout.pg_of(page);
        let target = self.route(ctx, pg, read_point, None);
        let req = self
            .page_reads
            .start(page, read_point, target, conn, ctx.now());
        let ids = self.hot(ctx);
        ctx.inc_id(ids.page_fetches, 1);
        send_read(ctx, &self.cfg.memberships, req);
    }

    /// A rollback's records ship at once: its locks are already free.
    fn on_rollback_done(&mut self, ctx: &mut Ctx<'_>) {
        self.flush_staging(ctx, ShipReason::Forced);
        ctx.inc("engine.rollbacks_completed", 1);
    }

    /// A pending ZDP swap applies once no transaction is running.
    fn after_txn_end(&mut self, ctx: &mut Ctx<'_>) {
        if self.zdp.is_some() && self.txn.running.is_empty() && self.status == EngineStatus::Ready {
            self.apply_zdp(ctx);
        }
    }
}

impl Actor for EngineActor {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Start => {
                if self.cfg.standby {
                    self.status = EngineStatus::Standby;
                    return;
                }
                self.bootstrap(ctx);
                self.arm_sweep(ctx);
            }
            ActorEvent::Restarted => {
                if self.cfg.standby && self.status == EngineStatus::Standby {
                    return; // unpromoted standby: still idle after a blip
                }
                self.start_recovery(ctx);
                self.arm_sweep(ctx);
            }
            ActorEvent::Timer { tag } => match tag {
                TAG_FLUSH => {
                    // counted even with nothing staged: the tick cadence is
                    // what the double-armed-timer regression test watches
                    ctx.inc("engine.flush_ticks", 1);
                    self.flush_timer = None;
                    self.flush_staging(ctx, ShipReason::Deadline);
                }
                TAG_SWEEP => {
                    // counted for the double-armed-sweep regression test
                    let ids = self.hot(ctx);
                    ctx.inc_id(ids.sweep_ticks, 1);
                    self.sweep_timer = None;
                    self.sweep(ctx);
                    self.arm_sweep(ctx);
                }
                TAG_ZDP_RESUME => {
                    self.status = EngineStatus::Ready;
                    let queued = std::mem::take(&mut self.patch_queue);
                    for (client, req) in queued {
                        self.on_client_request(ctx, client, req);
                    }
                }
                TAG_BOOTSTRAP if self.status == EngineStatus::Bootstrapping => {
                    self.bootstrap_chunk(ctx);
                }
                TAG_RECOVERY_RESEND if self.recovery.is_some() => {
                    self.send_recovery_requests(ctx);
                    ctx.set_timer(SimDuration::from_millis(50), TAG_RECOVERY_RESEND);
                }
                t if t >= TAG_CPU_BASE => {
                    let conn = t - TAG_CPU_BASE;
                    self.exec_current_op(ctx, conn);
                }
                _ => {}
            },
            ActorEvent::Message { from, msg } => {
                let msg = match msg.downcast::<ClientRequest>() {
                    Ok(req) => return self.on_client_request(ctx, from, req),
                    Err(m) => m,
                };
                let msg = match msg.downcast::<Promote>() {
                    Ok(_) => {
                        if self.status == EngineStatus::Standby {
                            // recovery's epoch bump doubles as the fence
                            // on the old writer
                            self.start_recovery(ctx);
                            self.arm_sweep(ctx);
                        }
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<ZdpPatch>() {
                    Ok(p) => {
                        self.zdp = Some((from, p.version));
                        if self.txn.running.is_empty() && self.status == EngineStatus::Ready {
                            self.apply_zdp(ctx);
                        }
                        return;
                    }
                    Err(m) => m,
                };
                self.on_storage_msg(ctx, from, msg);
            }
            ActorEvent::DiskDone { .. } => {}
        }
    }

    fn on_crash(&mut self) {
        // a crashed engine is not Ready until recovery completes
        self.status = EngineStatus::Recovering;
        self.reset_volatile();
        // a fence keeps its sweep chain running; a crash's dies with it
        self.sweep_timer = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{decode_undo, encode_undo, fit_row};

    #[test]
    fn undo_codec_roundtrip() {
        for op in [
            Op::Insert(42, vec![1, 2, 3]),
            Op::Update(7, vec![9; 16]),
            Op::Delete(u64::MAX),
        ] {
            let data = encode_undo(TxnId(99), &op);
            let (txn, back) = decode_undo(&data).expect("decodes");
            assert_eq!(txn, TxnId(99));
            assert_eq!(back, op);
        }
    }

    #[test]
    fn undo_codec_rejects_short_input() {
        assert!(decode_undo(&[]).is_none());
        assert!(decode_undo(&[0u8; 8]).is_none());
        assert!(decode_undo(&[0u8; 16]).is_none());
    }

    #[test]
    fn undo_codec_rejects_bad_tag() {
        let mut data = encode_undo(TxnId(1), &Op::Delete(5)).to_vec();
        data.push(0);
        assert!(
            decode_undo(&data).is_none(),
            "trailing bytes after a delete"
        );
        data.pop();
        data[8] = 99;
        assert!(decode_undo(&data).is_none());
    }

    #[test]
    fn bootstrap_rows_are_deterministic_and_key_tagged() {
        let a = bootstrap_row(123, 96);
        let b = bootstrap_row(123, 96);
        assert_eq!(a, b);
        assert_eq!(&a[..8], &123u64.to_le_bytes());
        assert_ne!(bootstrap_row(124, 96), a);
        assert_eq!(a.len(), 96);
    }

    #[test]
    fn fit_row_pads_and_truncates() {
        assert_eq!(fit_row(b"ab", 4), vec![b'a', b'b', 0, 0]);
        assert_eq!(fit_row(b"abcdef", 4), b"abcd".to_vec());
    }

    #[test]
    fn r3_family_doubles() {
        let fam = InstanceSpec::r3_family();
        assert_eq!(fam.len(), 5);
        for w in fam.windows(2) {
            assert_eq!(w[1].vcpus, w[0].vcpus * 2);
        }
        assert_eq!(fam[4].vcpus, 32);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn synthetic_conn_space_is_disjoint() {
        assert!(CONN_SYNTHETIC_BASE > u32::MAX as u64);
        assert!(TAG_CPU_BASE > CONN_SYNTHETIC_BASE);
    }
}
