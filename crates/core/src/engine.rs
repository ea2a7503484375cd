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
//! This file is the executor's Aurora backend: sealing with LAL
//! back-pressure, early lock release on commit-record seal, commits parked
//! on the VDL, and page fetches from one complete segment. Waits consume
//! no CPU — exactly the asynchrony the paper credits for Aurora's
//! throughput.

use std::collections::BTreeMap;

use aurora_sim::hash::{FxHashMap as HashMap, FxHashSet as HashSet};
use std::sync::Arc;

use aurora_log::{
    mtr::CplMode, LogRecord, Lsn, LsnAllocator, MtrBuilder, Page, PageId, PgId, RecordBody,
    SegmentId, TxnId, LAL_DEFAULT,
};
use aurora_quorum::{AckOutcome, DurabilityTracker, QuorumConfig, TruncationRange, VolumeEpoch};
use aurora_sim::{Actor, ActorEvent, Ctx, Msg, NodeId, SimDuration, SimTime, SpanId, Tag, TimerId};
use aurora_storage::wire as swire;
use aurora_storage::{PgMembership, VolumeLayout};

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

/// Health classification of one (PG, replica-slot) storage member, as seen
/// from the engine's ack/nack/timeout stream (§4.1's monitoring loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    Healthy = 0,
    /// Enough recent strikes that reads prefer other members.
    Suspect = 1,
    /// Persistently bad: reported to the control plane for proactive
    /// fencing (repair onto a spare before the node fails hard).
    Degraded = 2,
}

/// EWMA weight for ack-latency samples.
const HEALTH_EWMA_ALPHA: f64 = 0.2;
/// Strikes at which a member becomes [`HealthState::Suspect`].
const HEALTH_SUSPECT_STRIKES: u32 = 3;
/// Strikes at which a member becomes [`HealthState::Degraded`]. Backoff
/// spacing keeps a typical crash window (~5 strikes before the control
/// plane's 600ms dead-node path fires) below this, so hard deaths are
/// still handled by the dead path; only *persistent* gray behavior —
/// long brownouts, nack storms — accumulates past it.
const HEALTH_DEGRADE_STRIKES: u32 = 8;
/// Strike counter ceiling (so recovery does not take forever).
const HEALTH_STRIKE_CAP: u32 = 16;
/// A non-healthy member with no strikes for this long resets to healthy
/// (the fault window ended; convergence oracle relies on this).
const HEALTH_IDLE_CLEAR: SimDuration = SimDuration::from_secs(1);

/// First backoff step before an outstanding batch is fully re-shipped to
/// every unacked member; each full retransmit doubles it (plus seeded
/// jitter of up to a quarter of this) up to [`RETRANSMIT_MAX`].
const RETRANSMIT_BASE: SimDuration = SimDuration::from_millis(15);
/// Backoff ceiling for full retransmits.
const RETRANSMIT_MAX: SimDuration = SimDuration::from_millis(120);
/// The sweep's tail probe: a batch still below write quorum this long
/// after its last batch-wide (re)ship is hedged, re-shipped early to just
/// its slowest unacked members. Losses that a later ack exposes are
/// re-shipped sooner, by [`EngineActor::reship_lost`].
const HEDGE_AFTER: SimDuration = SimDuration::from_millis(4);
/// Floor of the reordering window in ack-clocked loss detection: how long
/// a member may keep a batch unacked after it acked a batch sent later
/// before the batch counts as lost there. Links are FIFO, so only the
/// member's disk can reorder its acks, and a healthy disk reorders
/// completions by < 0.4 ms. A slow member's window grows to half its ack
/// EWMA.
const LOSS_REORDER: SimDuration = SimDuration::from_millis(1);
/// Per-sweep cap on re-ships (retransmits + hedges) per storage node, so a
/// brownout cannot trigger a retry storm against the very node that is
/// struggling.
const RETRANSMIT_NODE_CAP: usize = 4;

/// Per-(PG, slot) health tracker entry.
#[derive(Debug, Clone)]
struct NodeHealth {
    /// Ack-latency EWMA in nanoseconds (0 = no samples yet).
    ewma_ns: f64,
    /// Saturating counter of recent timeouts / nacks / re-ships.
    strikes: u32,
    state: HealthState,
    last_strike: SimTime,
    /// Suspect report already sent for the current degradation episode.
    reported: bool,
}

impl Default for NodeHealth {
    fn default() -> Self {
        NodeHealth {
            ewma_ns: 0.0,
            strikes: 0,
            state: HealthState::Healthy,
            last_strike: SimTime::ZERO,
            reported: false,
        }
    }
}

fn health_state_for(strikes: u32) -> HealthState {
    if strikes >= HEALTH_DEGRADE_STRIKES {
        HealthState::Degraded
    } else if strikes >= HEALTH_SUSPECT_STRIKES {
        HealthState::Suspect
    } else {
        HealthState::Healthy
    }
}

/// Compact (pg, slot) key for `engine.health` trace instants.
fn health_key(segment: SegmentId) -> u64 {
    ((segment.pg.0 as u64) << 8) | segment.replica as u64
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
            read_timeout: SimDuration::from_millis(20),
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
    is_write: bool,
    /// Open `engine.commit` trace span (NONE when tracing is off). Lives
    /// and dies with the waiter: crash/fence clears the map and the span
    /// simply never closes, which is exactly what the trace should show.
    span: SpanId,
}

struct OutBatch {
    // BTreeMap, not HashMap: (re)shipping iterates this map and sends a
    // WriteBatch per entry — send order must be deterministic for replay.
    // The shared slices are the same allocations the original sends
    // carried: retransmissions re-reference them instead of re-cloning
    // the records (watermark piggybacks are rebuilt fresh each send).
    by_pg: BTreeMap<PgId, Arc<[LogRecord]>>,
    acked: HashSet<(u32, u8)>,
    /// When this batch first shipped. Loss detection orders batches by
    /// it: an ack of a re-sent batch may answer any of its copies, so the
    /// first ship is the only send time the ack certainly follows.
    shipped_at: SimTime,
    /// When this batch was last (re)shipped to every member it went to.
    /// `engine.ack_ns` measures from here (or from a later loss re-ship
    /// to that member): a late ack for a retransmitted batch is
    /// attributed to the send that plausibly elicited it, not the original
    /// ship — measuring from first ship would smear every network-loss
    /// retry (15ms+) into the commit-path histogram.
    last_sent: SimTime,
    /// Members that acked a batch sent after this one while this one
    /// stays unacked there, in the current backoff window (see
    /// [`EngineActor::reship_lost`]). Empty unless a member's acks came
    /// out of order.
    overtaken: Vec<Overtaken>,
    /// Full retransmits so far (drives the exponential backoff).
    attempts: u32,
    /// Next full-retransmit deadline.
    next_retry: SimTime,
    /// A hedge already went out for the current (re)ship cycle; reset by
    /// every full retransmit so each backoff window hedges at most once.
    hedged: bool,
    /// Open `engine.batch_quorum` trace span (NONE when tracing is off).
    span: SpanId,
}

/// One member that acked a later batch before this one.
struct Overtaken {
    /// (pg, replica), as in [`OutBatch::acked`].
    member: (u32, u8),
    /// When the first such ack arrived (since this batch last went to
    /// the member).
    at: SimTime,
    /// When loss detection re-shipped this batch to the member alone.
    reshipped: Option<SimTime>,
}

impl OutBatch {
    /// When this batch last went to `member`: its own loss re-ship, or
    /// the last batch-wide send if that came later.
    fn sent_to(&self, member: (u32, u8)) -> SimTime {
        self.overtaken
            .iter()
            .find(|o| o.member == member)
            .and_then(|o| o.reshipped)
            .map_or(self.last_sent, |t| t.max(self.last_sent))
    }
}

/// Why a staged batch left the engine now. Traced per ship decision
/// (`engine.ship` instants) and counted per reason, so the policy's
/// immediate/deadline split is visible in both forensics and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShipReason {
    /// Pipe idle: shipped with no added delay.
    Immediate = 0,
    /// `max_batch_records` reached.
    Size = 1,
    /// Group-commit deadline fired.
    Deadline = 2,
    /// Forced outside the policy: rollback end, bootstrap, recovery.
    Forced = 3,
}

struct PendingRead {
    page: PageId,
    read_point: Lsn,
    conns: Vec<u64>,
    sent_at: SimTime,
    target: SegmentId,
    attempts: u32,
}

/// The writer-instance actor.
/// Pre-resolved handles for the engine's per-event counters (see
/// [`Ctx::inc_id`]): the commit/exec/flush loops run several metric
/// updates per event, and a handle turns each into a direct slot index.
/// Resolved lazily on first use; handles stay valid across stat clears
/// and crash/restart cycles.
#[derive(Clone, Copy)]
struct HotIds {
    ack_ns: aurora_sim::MetricId,
    log_write_ios: aurora_sim::MetricId,
    batches: aurora_sim::MetricId,
    records_shipped: aurora_sim::MetricId,
    ship_immediate: aurora_sim::MetricId,
    ship_size: aurora_sim::MetricId,
    ship_deadline: aurora_sim::MetricId,
    ship_forced: aurora_sim::MetricId,
    page_fetches: aurora_sim::MetricId,
    page_fetch_ns: aurora_sim::MetricId,
    health_strikes: aurora_sim::MetricId,
    suspect_reports: aurora_sim::MetricId,
    hedged_ships: aurora_sim::MetricId,
    retransmits: aurora_sim::MetricId,
}

impl HotIds {
    fn resolve(ctx: &mut Ctx<'_>) -> Self {
        HotIds {
            ack_ns: ctx.metric_id("engine.ack_ns"),
            log_write_ios: ctx.metric_id("engine.log_write_ios"),
            batches: ctx.metric_id("engine.batches"),
            records_shipped: ctx.metric_id("engine.records_shipped"),
            ship_immediate: ctx.metric_id("engine.ship_immediate"),
            ship_size: ctx.metric_id("engine.ship_size"),
            ship_deadline: ctx.metric_id("engine.ship_deadline"),
            ship_forced: ctx.metric_id("engine.ship_forced"),
            page_fetches: ctx.metric_id("engine.page_fetches"),
            page_fetch_ns: ctx.metric_id("engine.page_fetch_ns"),
            health_strikes: ctx.metric_id("engine.health_strikes"),
            suspect_reports: ctx.metric_id("engine.suspect_reports"),
            hedged_ships: ctx.metric_id("engine.hedged_ships"),
            retransmits: ctx.metric_id("engine.log_write_retransmits"),
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

pub struct EngineActor {
    cfg: EngineConfig,
    /// Lazily resolved metric handles (not state: survives crashes).
    hot: Option<HotIds>,
    /// Test-only fault: when set, `flush_staging` silently drops its ship
    /// decision and records stay staged forever. Deliberately NOT cleared
    /// by `on_crash` — it models a persistent ship-path defect, so the
    /// DST liveness oracle must catch it even across restarts.
    stall_ship: bool,
    /// Test-only fault: freeze the health tracker (no good-ack decay, no
    /// idle reset) so seeded suspect state lingers forever. Like
    /// `stall_ship`, NOT cleared by `on_crash` — the DST health-convergence
    /// oracle must catch the lingering suspects even across restarts.
    health_frozen: bool,
    status: EngineStatus,
    engine_version: u64,
    /// The shared executor: buffer pool, locks, running transactions.
    txn: TxnCore,

    // ---- volatile state (rebuilt by recovery) ----
    alloc: LsnAllocator,
    chain_tails: HashMap<PgId, Lsn>,
    tracker: DurabilityTracker,
    epoch: VolumeEpoch,
    staging: Vec<LogRecord>,
    staging_cpl: Option<Lsn>,
    staging_pgs: Vec<PgId>,
    /// The armed TAG_FLUSH timer, if any (the armed-guard: every arm site
    /// funnels through [`EngineActor::arm_flush_timer`], so re-entering
    /// the ready path after recovery/failover can never stack a second
    /// flush timer). Volatile: stale timers die with the incarnation.
    flush_timer: Option<TimerId>,
    commit_waiters: BTreeMap<Lsn, Vec<PendingCommit>>,
    next_req: u64,
    scls: HashMap<SegmentId, Lsn>,
    reads: HashMap<u64, PendingRead>,
    page_waits: HashMap<PageId, u64>,
    pending_inserts: Vec<(PageId, Page)>,
    /// Shipped but not-yet-durable batches, for retransmission to segments
    /// that were down or lost the delivery.
    outstanding: BTreeMap<Lsn, OutBatch>,
    /// Per-(PG, slot) gray-failure tracker fed by the ack/nack/timeout
    /// stream. BTreeMap: the decay sweep iterates it and emits trace
    /// instants, so iteration order must be deterministic. Volatile —
    /// a restarted engine re-learns member health from scratch.
    health: BTreeMap<SegmentId, NodeHealth>,
    recovery: Option<Recovery>,
    /// The truncation range this writer's recovery issued — replayed to
    /// segments that report [`swire::EpochBehind`] (they missed the
    /// recovery and must install the range before ingesting new-epoch
    /// writes).
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
        let alloc = LsnAllocator::new(Lsn::ZERO, cfg.lal);
        let tracker = DurabilityTracker::new(cfg.quorum, Lsn::ZERO);
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
            health_frozen: false,
            txn: TxnCore::new(params, &ENGINE_TXN_METRICS),
            alloc,
            tracker,
            status: EngineStatus::Bootstrapping,
            engine_version: 1,
            chain_tails: HashMap::default(),
            epoch: VolumeEpoch(0),
            staging: Vec::new(),
            staging_cpl: None,
            staging_pgs: Vec::new(),
            flush_timer: None,
            commit_waiters: BTreeMap::new(),
            next_req: 1,
            scls: HashMap::default(),
            reads: HashMap::default(),
            page_waits: HashMap::default(),
            pending_inserts: Vec::new(),
            outstanding: BTreeMap::new(),
            health: BTreeMap::new(),
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
        self.tracker.vdl()
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

    /// Test-only failure injection: stall the ship path so staged records
    /// are never shipped (batch staged, never flushed). The DST negative
    /// test uses this to prove the liveness oracle catches a stuck flush.
    #[doc(hidden)]
    pub fn test_stall_ship(&mut self, stalled: bool) {
        self.stall_ship = stalled;
    }

    /// Number of staged-but-unshipped records — inspection for tests.
    #[doc(hidden)]
    pub fn staged_records(&self) -> usize {
        self.staging.len()
    }

    /// Members the health tracker currently holds in a non-healthy state —
    /// inspection for the DST health-convergence oracle.
    pub fn suspect_count(&self) -> usize {
        self.health
            .values()
            .filter(|h| h.state != HealthState::Healthy)
            .count()
    }

    /// Health state of one member — inspection for tests.
    pub fn health_state(&self, segment: SegmentId) -> HealthState {
        self.health
            .get(&segment)
            .map(|h| h.state)
            .unwrap_or(HealthState::Healthy)
    }

    /// Test-only failure injection: mark a member degraded and freeze the
    /// tracker so it never recovers. The DST negative test uses this to
    /// prove the health-convergence oracle catches lingering suspects.
    #[doc(hidden)]
    pub fn test_taint_health(&mut self, segment: SegmentId) {
        self.health_frozen = true;
        let h = self.health.entry(segment).or_default();
        h.strikes = HEALTH_DEGRADE_STRIKES;
        h.state = HealthState::Degraded;
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

    fn membership(&self, pg: PgId) -> &PgMembership {
        self.cfg
            .memberships
            .iter()
            .find(|m| m.pg == pg)
            .expect("membership for every pg")
    }

    /// §4.2.3: the PGMRPL low-water mark below which no read will ever be
    /// issued and whose records storage may GC. Bounded by the oldest
    /// uncommitted transaction so logical undo records survive.
    fn pgmrpl(&self) -> Lsn {
        let mut low = self.tracker.vdl();
        for rt in self.txn.running.values() {
            if rt.wrote && !rt.first_lsn.is_zero() {
                low = low.min(Lsn(rt.first_lsn.0.saturating_sub(1)));
            }
        }
        low
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
            if rec.is_cpl {
                self.staging_cpl = Some(rec.lsn);
            }
            if !self.staging_pgs.contains(&rec.pg) {
                self.staging_pgs.push(rec.pg);
            }
        }
        self.staging.extend(records);
        Some((first, last))
    }

    /// §2.2: "The PGs that constitute a volume are allocated as the volume
    /// grows." When staged records touch a protection group beyond the
    /// provisioned set, mint its membership (striped over the same storage
    /// nodes, preserving the 2-per-AZ layout), wire gossip peers, and tell
    /// the control plane.
    fn ensure_memberships(&mut self, ctx: &mut Ctx<'_>) {
        let new_pgs: Vec<PgId> = self
            .staging_pgs
            .iter()
            .filter(|pg| self.cfg.memberships.iter().all(|m| m.pg != **pg))
            .copied()
            .collect();
        for pg in new_pgs {
            // stripe like the original allocation: reuse the slot->node
            // pattern of an existing PG, rotated by the new PG's index so
            // load spreads across the fleet
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
        if self.staging.is_empty() {
            return;
        }
        if self.stall_ship {
            return; // injected ship-path defect (see `test_stall_ship`)
        }
        // a deadline covers only the records staged when it was armed;
        // shipping them by any other route disarms it
        self.cancel_flush_timer(ctx);
        match reason {
            ShipReason::Immediate => ctx.inc_id(ids.ship_immediate, 1),
            ShipReason::Size => ctx.inc_id(ids.ship_size, 1),
            ShipReason::Deadline => ctx.inc_id(ids.ship_deadline, 1),
            ShipReason::Forced => ctx.inc_id(ids.ship_forced, 1),
        }
        self.ensure_memberships(ctx);
        let records = std::mem::take(&mut self.staging);
        let cpl = self.staging_cpl.take();
        let pgs = std::mem::take(&mut self.staging_pgs);
        let batch_end = records.last().unwrap().lsn;
        self.tracker.register(batch_end, cpl, &pgs);
        let vdl = self.tracker.vdl();
        let pgmrpl = self.pgmrpl();
        // the batch-quorum span opens when the first copy leaves the
        // engine and closes when the 4/6 write quorum has acked it
        let span = ctx.trace_begin(
            "engine.batch_quorum",
            SpanId::NONE,
            batch_end.0,
            records.len() as u64,
        );
        ctx.trace_instant("wm.pgmrpl", span, pgmrpl.0, 0);
        ctx.gauge("engine.pgmrpl", pgmrpl.0);
        ctx.gauge("engine.inflight_batches", self.tracker.outstanding() as u64);
        ctx.trace_instant("engine.ship", span, reason as u64, records.len() as u64);
        // shard by PG (§5) and ship to all six replicas of each PG —
        // each PG's shard is assembled once and every send (and any later
        // retransmission) shares the same allocation
        let mut shards: BTreeMap<PgId, Vec<LogRecord>> = BTreeMap::new();
        for r in &records {
            shards.entry(r.pg).or_default().push(r.clone());
        }
        let by_pg: BTreeMap<PgId, Arc<[LogRecord]>> =
            shards.into_iter().map(|(pg, v)| (pg, v.into())).collect();
        for (pg, recs) in &by_pg {
            let m = self.membership(*pg).clone();
            for (slot, node) in m.slots.iter().enumerate() {
                ctx.send(
                    *node,
                    swire::WriteBatch {
                        segment: SegmentId::new(*pg, slot as u8),
                        records: Arc::clone(recs),
                        batch_end,
                        epoch: self.epoch,
                        vdl,
                        pgmrpl,
                    },
                );
                ctx.inc_id(ids.log_write_ios, 1);
            }
        }
        self.outstanding.insert(
            batch_end,
            OutBatch {
                by_pg,
                acked: HashSet::default(),
                shipped_at: ctx.now(),
                last_sent: ctx.now(),
                overtaken: Vec::new(),
                attempts: 0,
                next_retry: ctx.now() + RETRANSMIT_BASE,
                hedged: false,
                span,
            },
        );
        // stream to read replicas (not part of the commit path); the
        // whole-batch slice is likewise shared across every replica send
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

    /// The group-commit decision point, run after every staging step (and
    /// after acks drain the pipe, so freed slots release staged records
    /// without waiting out the deadline). §4.2.2 group commit amortizes
    /// quorum round-trips, but only once the pipe is busy: while fewer than
    /// `ship_pipeline_depth` batches are in flight, records ship at once;
    /// after that they batch until `max_batch_records` or the one-shot
    /// `flush_interval` deadline, whichever comes first. Acks draining the
    /// pipe release the staged batch early, so the path is self-clocked.
    fn maybe_flush(&mut self, ctx: &mut Ctx<'_>) {
        if self.staging.is_empty() {
            return;
        }
        if self.staging.len() >= self.cfg.max_batch_records {
            self.flush_staging(ctx, ShipReason::Size);
        } else if self.outstanding.len() < self.cfg.ship_pipeline_depth {
            self.flush_staging(ctx, ShipReason::Immediate);
        } else {
            // pipe full: hold for the size cap or the deadline
            self.arm_flush_timer(ctx);
        }
    }

    /// Arm the group-commit deadline unless one is already armed, so
    /// re-entering the ready path after recovery or failover can never
    /// stack a second flush timer.
    fn arm_flush_timer(&mut self, ctx: &mut Ctx<'_>) {
        if self.flush_timer.is_none() {
            self.flush_timer = Some(ctx.set_timer(self.cfg.flush_interval, TAG_FLUSH));
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
                if pc.is_write {
                    ctx.record_id(ids.commit_ns, latency);
                }
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

    /// §4.2.3: choose a segment whose SCL covers the read point — no
    /// quorum read needed in the normal path. The SCL is a *per-PG* LSN,
    /// so the bar is the newest record this engine ever wrote to the PG
    /// (its chain tail), clamped by the read point: a segment holding the
    /// full PG chain is complete with respect to any global read point.
    fn pick_segment(
        &mut self,
        ctx: &mut Ctx<'_>,
        pg: PgId,
        read_point: Lsn,
        avoid: Option<u8>,
    ) -> SegmentId {
        let bar = self
            .chain_tails
            .get(&pg)
            .copied()
            .unwrap_or(Lsn::ZERO)
            .min(read_point);
        let slots = self.membership(pg).slots.len() as u8;
        let candidates: Vec<u8> = (0..slots)
            .filter(|r| Some(*r) != avoid)
            .filter(|r| {
                self.scls
                    .get(&SegmentId::new(pg, *r))
                    .is_some_and(|scl| *scl >= bar)
            })
            .collect();
        if !candidates.is_empty() {
            // prefer members the health tracker considers healthy; fall
            // back to the full complete set when none qualifies
            let healthy: Vec<u8> = candidates
                .iter()
                .copied()
                .filter(|r| {
                    self.health
                        .get(&SegmentId::new(pg, *r))
                        .is_none_or(|h| h.state == HealthState::Healthy)
                })
                .collect();
            let pool = if healthy.is_empty() {
                &candidates
            } else {
                &healthy
            };
            let pick = pool[ctx.rng().index(pool.len())];
            return SegmentId::new(pg, pick);
        }
        // cold path (post-recovery): highest known SCL, else slot 0
        let best = (0..slots)
            .filter(|r| Some(*r) != avoid)
            .max_by_key(|r| self.scls.get(&SegmentId::new(pg, *r)).copied())
            .unwrap_or(0);
        SegmentId::new(pg, best)
    }

    fn on_page_resp(&mut self, ctx: &mut Ctx<'_>, resp: swire::ReadPageResp) {
        let Some(pr) = self.reads.remove(&resp.req_id) else {
            return; // stale retry
        };
        self.page_waits.remove(&pr.page);
        let ids = self.hot(ctx);
        ctx.record_id(ids.page_fetch_ns, ctx.now().since(pr.sent_at).nanos());
        // DST snapshot-safety oracle tap: a storage node must never serve
        // a page image materialized past the requested read point.
        if resp.page.lsn > pr.read_point {
            ctx.inc("oracle.read_past_read_point", 1);
        }
        let vdl = self.tracker.vdl();
        if let Err(page) = self.txn.pool.insert(resp.page_id, resp.page, vdl) {
            self.pending_inserts.push((resp.page_id, page));
        }
        for conn in pr.conns {
            self.exec_current_op(ctx, conn);
        }
    }

    // ---- gray-failure health tracking (§4.1 monitoring) ----

    /// Record one bad signal (timeout, nack, unacked slot at a full
    /// retransmit) against a member, escalating healthy → suspect →
    /// degraded by strike thresholds. Entering degraded reports the member
    /// to the control plane once per episode, which fences the segment and
    /// repairs it onto a spare *before* the node fails hard.
    fn strike(&mut self, ctx: &mut Ctx<'_>, segment: SegmentId) {
        let now = ctx.now();
        let h = self.health.entry(segment).or_default();
        h.strikes = (h.strikes + 1).min(HEALTH_STRIKE_CAP);
        h.last_strike = now;
        let new_state = health_state_for(h.strikes);
        let changed = new_state != h.state;
        h.state = new_state;
        let wants_report = new_state == HealthState::Degraded && !h.reported;
        let ids = self.hot(ctx);
        ctx.inc_id(ids.health_strikes, 1);
        if changed {
            ctx.trace_instant(
                "engine.health",
                SpanId::NONE,
                health_key(segment),
                new_state as u64,
            );
        }
        if !wants_report {
            return;
        }
        // Differential observability: a member is only a *suspect* if its
        // peers look fine. When several members of the same PG are striking
        // at once the fault is the network (or this writer), not that one
        // disk — fencing would burn spares on a fault no repair can fix.
        // `reported` stays unset on suppression, so the report re-arms on
        // the next strike once the member is the lone outlier.
        let isolated = !self.health.iter().any(|(seg, peer)| {
            seg.pg == segment.pg
                && seg.replica != segment.replica
                && peer.state != HealthState::Healthy
        });
        if !isolated {
            return;
        }
        if let Some(control) = self.cfg.control {
            if let Some(h) = self.health.get_mut(&segment) {
                h.reported = true;
            }
            ctx.inc_id(ids.suspect_reports, 1);
            ctx.trace_instant("engine.suspect", SpanId::NONE, health_key(segment), 0);
            let node = self.membership(segment.pg).slots[segment.replica as usize];
            ctx.send(control, swire::SuspectReport { segment, node });
        }
    }

    /// Fold a fresh (non-duplicate) write-ack into the member's EWMA and
    /// decay its strike counter — good signals walk a member back down
    /// through suspect to healthy.
    fn note_ack_health(&mut self, ctx: &mut Ctx<'_>, segment: SegmentId, latency_ns: u64) {
        let h = self.health.entry(segment).or_default();
        h.ewma_ns = if h.ewma_ns == 0.0 {
            latency_ns as f64
        } else {
            HEALTH_EWMA_ALPHA * latency_ns as f64 + (1.0 - HEALTH_EWMA_ALPHA) * h.ewma_ns
        };
        if self.health_frozen {
            return;
        }
        if h.strikes > 0 {
            h.strikes -= 1;
        }
        let new_state = health_state_for(h.strikes);
        let changed = new_state != h.state;
        h.state = new_state;
        if new_state == HealthState::Healthy {
            h.reported = false;
        }
        if changed {
            ctx.trace_instant(
                "engine.health",
                SpanId::NONE,
                health_key(segment),
                new_state as u64,
            );
        }
    }

    /// Sweep-driven idle reset: a non-healthy member with no strikes for
    /// [`HEALTH_IDLE_CLEAR`] returns to healthy (its fault window ended
    /// and traffic may no longer flow its way, so ack-driven decay alone
    /// cannot clear it). The DST health-convergence oracle relies on this.
    fn decay_health(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        if self.health_frozen {
            return;
        }
        let mut cleared: Vec<SegmentId> = Vec::new();
        for (seg, h) in self.health.iter_mut() {
            if h.state != HealthState::Healthy && now.since(h.last_strike) > HEALTH_IDLE_CLEAR {
                h.strikes = 0;
                h.state = HealthState::Healthy;
                h.reported = false;
                cleared.push(*seg);
            }
        }
        for seg in cleared {
            ctx.trace_instant(
                "engine.health",
                SpanId::NONE,
                health_key(seg),
                HealthState::Healthy as u64,
            );
        }
    }

    // ---- periodic sweep: lock timeouts, read retries, retransmits ----

    fn sweep(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.retransmit_hedged(ctx, now);
        self.decay_health(ctx, now);
        self.expire_lock_waits(ctx);
        let mut expired: Vec<u64> = self
            .reads
            .iter()
            .filter(|(_, pr)| now.since(pr.sent_at) > self.cfg.read_timeout)
            .map(|(id, _)| *id)
            .collect();
        expired.sort_unstable();
        for req_id in expired {
            let target = self.reads.get(&req_id).map(|pr| pr.target);
            if let Some(t) = target {
                self.strike(ctx, t);
            }
            self.retry_read(ctx, req_id, target.map(|t| t.replica));
        }
    }

    /// Redirect a pending read to another replica — used both by the sweep
    /// (timeout) and by explicit [`swire::ReadPageNack`]s from a replica
    /// that knows it is incomplete at the read point.
    fn retry_read(&mut self, ctx: &mut Ctx<'_>, req_id: u64, avoid: Option<u8>) {
        let Some((page, read_point)) = self.reads.get(&req_id).map(|pr| (pr.page, pr.read_point))
        else {
            return;
        };
        let pg = self.cfg.layout.pg_of(page);
        let target = self.pick_segment(ctx, pg, read_point, avoid);
        let node = self.membership(pg).slots[target.replica as usize];
        let now = ctx.now();
        let pr = self.reads.get_mut(&req_id).unwrap();
        pr.sent_at = now;
        pr.target = target;
        pr.attempts += 1;
        ctx.inc("engine.read_retries", 1);
        ctx.send(
            node,
            swire::ReadPageReq {
                req_id,
                segment: target,
                page,
                read_point,
            },
        );
    }

    /// Exponential backoff for the current attempt count, plus seeded
    /// jitter of up to a quarter of the base interval so retransmit waves
    /// across batches de-synchronize deterministically.
    fn backoff_delay(&mut self, ctx: &mut Ctx<'_>, attempts: u32) -> SimDuration {
        let base = RETRANSMIT_BASE.nanos();
        let capped = base
            .saturating_mul(1u64 << attempts.min(6))
            .min(RETRANSMIT_MAX.nanos());
        let jitter = ctx.rng().range_u64(0, base / 4 + 1);
        SimDuration::from_nanos(capped + jitter)
    }

    /// Ack-clocked loss detection, the first of three re-ship tiers (this,
    /// then the sweep's hedge and backoff retransmit in
    /// [`Self::retransmit_hedged`]). It is RACK (RFC 8985) specialised to
    /// FIFO links. `segment` just acked `acked_end`, a batch first shipped
    /// at `acked_shipped`. An older outstanding batch that this member has
    /// not acked was sent to it first, so it arrived first: either a packet
    /// of it (or of its ack) was lost, or the member's disk has not
    /// completed it yet. Storage acks a batch once that batch's records
    /// are durable, even above a hole, so a disk reorders acks by no more
    /// than its latency spread. A batch still unacked a reordering window
    /// `max(LOSS_REORDER, ewma / 2)` after the first ack that overtook it is
    /// therefore lost at this member, and is re-shipped to it alone, here,
    /// on an ack: no timer, and no re-ship without a loss.
    ///
    /// The window runs from the overtaking ack, not from the lost batch's
    /// send as in plain RACK. A queue ahead of the disk (a coalesce pass)
    /// collapses send gaps: counting from the send would declare batches
    /// lost that are merely queued behind one sent later.
    ///
    /// A re-ship goes out only while the batch's PG is below write quorum,
    /// and at most once per (batch, member) per backoff window. It does
    /// not strike the member or advance the backoff, and the member's next
    /// ack is timed from it.
    fn reship_lost(
        &mut self,
        ctx: &mut Ctx<'_>,
        segment: SegmentId,
        acked_end: Lsn,
        acked_shipped: SimTime,
    ) {
        let now = ctx.now();
        let member = (segment.pg.0, segment.replica);
        let ewma = self.health.get(&segment).map_or(0.0, |h| h.ewma_ns);
        let reorder = SimDuration::from_nanos((ewma / 2.0) as u64).max(LOSS_REORDER);
        let write_quorum = self.cfg.quorum.write_quorum as usize;
        let mut lost: Vec<Lsn> = Vec::new();
        for (&end, ob) in self.outstanding.range_mut(..acked_end) {
            if ob.acked.contains(&member) || !ob.by_pg.contains_key(&segment.pg) {
                continue;
            }
            let sent = ob.sent_to(member);
            if sent >= acked_shipped {
                continue; // the ack may predate this batch's last send
            }
            let Some(o) = ob.overtaken.iter_mut().find(|o| o.member == member) else {
                ob.overtaken.push(Overtaken {
                    member,
                    at: now,
                    reshipped: None,
                });
                continue;
            };
            if o.reshipped.is_some() {
                continue;
            }
            if o.at < sent {
                o.at = now; // overtaken again since a re-send went out
                continue;
            }
            let acks = ob.acked.iter().filter(|(pg, _)| *pg == member.0).count();
            if now >= o.at + reorder && acks < write_quorum {
                o.reshipped = Some(now);
                lost.push(end);
            }
        }
        if lost.is_empty() {
            return;
        }
        let ids = self.hot(ctx);
        let (vdl, pgmrpl, epoch) = (self.tracker.vdl(), self.pgmrpl(), self.epoch);
        let node = self.membership(segment.pg).slots[segment.replica as usize];
        for batch_end in lost {
            let ob = &self.outstanding[&batch_end];
            ctx.trace_instant(
                "engine.loss_reship",
                ob.span,
                batch_end.0,
                health_key(segment),
            );
            ctx.inc_id(ids.hedged_ships, 1);
            ctx.inc("engine.loss_reships", 1);
            ctx.send(
                node,
                swire::WriteBatch {
                    segment,
                    records: Arc::clone(&ob.by_pg[&segment.pg]),
                    batch_end,
                    epoch,
                    vdl,
                    pgmrpl,
                },
            );
        }
    }

    /// Re-ship batches that have waited too long without reaching
    /// durability — covers storage nodes that were down (an AZ outage),
    /// slow (a brownout) or lost the delivery, where no later ack exposed
    /// the loss to [`Self::reship_lost`]. Idempotent at the receiver
    /// (duplicate records are ignored; the ack is regenerated — a batch
    /// already covered by the durable prefix is fast-acked without a disk
    /// write). §2.2/§4.1: a 4/6 write quorum lets the engine treat *slow*
    /// nodes like *dead* ones. Two passes over the outstanding window,
    /// sharing one per-node re-ship budget:
    ///
    /// 1. **Full retransmits** (the third tier) — batches past their
    ///    backoff deadline are re-shipped to every unacked member; each
    ///    such member takes a health strike (it sat on a delivery for a
    ///    whole backoff window) and the deadline doubles, so a browned-out
    ///    node sees geometrically *fewer* re-ships the longer it lags.
    /// 2. **Hedges** (the second tier, a tail-loss probe) — a batch still
    ///    below write quorum [`HEDGE_AFTER`] past its last batch-wide
    ///    (re)ship gets an early re-ship to just the slowest (highest
    ///    ack-EWMA) unacked members of the short PG — §2.2's "treat slow
    ///    like dead" without waiting out the timer. Hedges do not advance
    ///    the backoff clock and each backoff window hedges at most once.
    ///    Slowest-first is kept on purpose: ack-clocked detection already
    ///    covers a fast member that lost a packet, so what is left below
    ///    quorum at 4 ms is a batch no later ack overtook, stuck on slow
    ///    members; and the hedge fires on loss-free runs too (a coalesce
    ///    pass stalls every disk at once), where another order would move
    ///    their trajectories.
    fn retransmit_hedged(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        let ids = self.hot(ctx);
        let mut node_budget: BTreeMap<NodeId, usize> = BTreeMap::new();

        // pass 1: full retransmits past the backoff deadline
        let due: Vec<Lsn> = self
            .outstanding
            .iter()
            .filter(|(_, b)| now >= b.next_retry)
            .map(|(l, _)| *l)
            .take(32)
            .collect();
        for batch_end in due {
            let vdl = self.tracker.vdl();
            let pgmrpl = self.pgmrpl();
            let epoch = self.epoch;
            let Some(ob) = self.outstanding.get(&batch_end) else {
                continue;
            };
            let mut sends: Vec<(NodeId, swire::WriteBatch)> = Vec::new();
            let mut strikes: Vec<SegmentId> = Vec::new();
            for (pg, recs) in &ob.by_pg {
                let m = self.membership(*pg);
                for (slot, node) in m.slots.iter().enumerate() {
                    if ob.acked.contains(&(pg.0, slot as u8)) {
                        continue;
                    }
                    strikes.push(SegmentId::new(*pg, slot as u8));
                    let used = node_budget.entry(*node).or_insert(0);
                    if *used >= RETRANSMIT_NODE_CAP {
                        continue; // budget spent: strike, but do not pile on
                    }
                    *used += 1;
                    sends.push((
                        *node,
                        swire::WriteBatch {
                            segment: SegmentId::new(*pg, slot as u8),
                            records: Arc::clone(recs),
                            batch_end,
                            epoch,
                            vdl,
                            pgmrpl,
                        },
                    ));
                }
            }
            for seg in strikes {
                self.strike(ctx, seg);
            }
            for (node, wb) in sends {
                ctx.inc_id(ids.retransmits, 1);
                ctx.send(node, wb);
            }
            let attempts;
            {
                let ob = self.outstanding.get_mut(&batch_end).unwrap();
                ob.attempts += 1;
                ob.last_sent = now;
                ob.overtaken.clear();
                ob.hedged = false;
                attempts = ob.attempts;
            }
            let delay = self.backoff_delay(ctx, attempts);
            self.outstanding.get_mut(&batch_end).unwrap().next_retry = now + delay;
        }

        // pass 2: hedge batches sitting below write quorum
        let write_quorum = self.cfg.quorum.write_quorum as usize;
        let hedge_due: Vec<Lsn> = self
            .outstanding
            .iter()
            .filter(|(_, b)| {
                !b.hedged && now < b.next_retry && now.since(b.last_sent) > HEDGE_AFTER
            })
            .map(|(l, _)| *l)
            .take(32)
            .collect();
        for batch_end in hedge_due {
            let vdl = self.tracker.vdl();
            let pgmrpl = self.pgmrpl();
            let epoch = self.epoch;
            let Some(ob) = self.outstanding.get(&batch_end) else {
                continue;
            };
            let mut sends: Vec<(NodeId, swire::WriteBatch)> = Vec::new();
            for (pg, recs) in &ob.by_pg {
                let acks = ob.acked.iter().filter(|(p, _)| *p == pg.0).count();
                if acks >= write_quorum {
                    continue; // this PG already made quorum
                }
                let m = self.membership(*pg);
                // unacked members, slowest first (ack-EWMA descending,
                // slot id as the deterministic tie-break)
                let mut lagging: Vec<(f64, u8, NodeId)> = m
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(slot, _)| !ob.acked.contains(&(pg.0, *slot as u8)))
                    .map(|(slot, node)| {
                        let ewma = self
                            .health
                            .get(&SegmentId::new(*pg, slot as u8))
                            .map(|h| h.ewma_ns)
                            .unwrap_or(0.0);
                        (ewma, slot as u8, *node)
                    })
                    .collect();
                lagging.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                for (_, slot, node) in lagging.into_iter().take(write_quorum - acks) {
                    let used = node_budget.entry(node).or_insert(0);
                    if *used >= RETRANSMIT_NODE_CAP {
                        continue;
                    }
                    *used += 1;
                    sends.push((
                        node,
                        swire::WriteBatch {
                            segment: SegmentId::new(*pg, slot),
                            records: Arc::clone(recs),
                            batch_end,
                            epoch,
                            vdl,
                            pgmrpl,
                        },
                    ));
                }
            }
            let shipped = !sends.is_empty();
            for (node, wb) in sends {
                ctx.inc_id(ids.hedged_ships, 1);
                ctx.send(node, wb);
            }
            let ob = self.outstanding.get_mut(&batch_end).unwrap();
            // one hedge per backoff window, even if the budget ate it all
            ob.hedged = true;
            if shipped {
                // PR6 ack-attribution: a late ack is credited to the send
                // that plausibly elicited it
                ob.last_sent = now;
            }
        }
    }

    // ---- bootstrap ----

    fn bootstrap(&mut self, ctx: &mut Ctx<'_>) {
        let tree = self.txn.tree;
        {
            self.txn.pool.insert_unchecked(PageId(0), Page::new());
            let mut p = PoolProvider::new(&mut self.txn.pool);
            tree.create(&mut p).expect("create never misses");
            let bodies = p.bodies;
            self.seal_mtr(TxnId::SYSTEM, bodies).expect("LAL headroom");
        }
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
            if self.staging.len() >= 512 {
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

    /// Send what the current recovery phase still needs answered: on phase
    /// entry, and every 50 ms (requests are fire-and-forget over a lossy
    /// network to nodes that may be down), each to the node hosting its
    /// segment now.
    fn send_recovery_requests(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(rec) = &self.recovery {
            for (segment, msg) in rec.requests() {
                let node = self.membership(segment.pg).slots[segment.replica as usize];
                ctx.send_msg(node, msg);
            }
        }
    }

    fn on_recovery_reply(&mut self, ctx: &mut Ctx<'_>, reply: Reply) {
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
        self.tracker.reset(done.vdl);
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

    fn on_storage_msg(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Msg) {
        let msg = match msg.downcast::<swire::WriteAck>() {
            Ok(ack) => {
                let ids = self.hot(ctx);
                self.scls.insert(ack.segment, ack.scl);
                let member = (ack.segment.pg.0, ack.segment.replica);
                let mut fresh = None;
                if let Some(ob) = self.outstanding.get_mut(&ack.batch_end) {
                    // `acked.insert` dedups: a duplicated ack (network
                    // chaos, regenerated by a retransmit) records nothing
                    if ob.acked.insert(member) {
                        let ack_latency = ctx.now().since(ob.sent_to(member)).nanos();
                        ctx.record_id(ids.ack_ns, ack_latency);
                        fresh = Some((ack_latency, ob.shipped_at));
                    }
                }
                if let Some((ns, shipped_at)) = fresh {
                    self.note_ack_health(ctx, ack.segment, ns);
                    self.reship_lost(ctx, ack.segment, ack.batch_end, shipped_at);
                }
                match self
                    .tracker
                    .ack(ack.batch_end, ack.segment.pg, ack.segment.replica)
                {
                    AckOutcome::VdlAdvanced(vdl) => self.on_vdl_advance(ctx, vdl),
                    AckOutcome::Pending | AckOutcome::QuorumReached => {}
                }
                // drop fully durable batches from the retransmit window
                let durable_to = self.tracker.durable_to();
                while let Some((&first, _)) = self.outstanding.iter().next() {
                    if first <= durable_to {
                        if let Some(ob) = self.outstanding.remove(&first) {
                            ctx.trace_end(
                                "engine.batch_quorum",
                                ob.span,
                                first.0,
                                ob.acked.len() as u64,
                            );
                        }
                    } else {
                        break;
                    }
                }
                // the drain freed pipeline slots: staged records may now
                // ship immediately instead of waiting out the deadline
                self.maybe_flush(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<swire::WriteFenced>() {
            Ok(f) => {
                if f.epoch > self.epoch && self.status == EngineStatus::Ready {
                    // a newer writer owns the volume: step down immediately;
                    // in-flight transactions will never be acknowledged
                    ctx.inc("engine.fenced", 1);
                    self.status = EngineStatus::Standby;
                    let mut conns: Vec<u64> = self.txn.running.keys().copied().collect();
                    conns.sort_unstable();
                    for conn in conns {
                        if let Some(rt) = self.txn.running.remove(&conn) {
                            if rt.client != aurora_sim::sim::EXTERNAL {
                                ctx.send(
                                    rt.client,
                                    ClientResponse {
                                        conn: rt.conn,
                                        result: TxnResult::Aborted(
                                            "fenced: a newer writer owns the volume".into(),
                                        ),
                                        issued_at: rt.issued_at,
                                    },
                                );
                            }
                        }
                    }
                    self.commit_waiters.clear();
                    self.outstanding.clear();
                    self.staging.clear();
                    self.staging_cpl = None;
                    self.staging_pgs.clear();
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<swire::ReadPageResp>() {
            Ok(resp) => {
                self.on_page_resp(ctx, resp);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<swire::MembershipUpdate>() {
            Ok(mu) => {
                if let Some(m) = self
                    .cfg
                    .memberships
                    .iter_mut()
                    .find(|m| m.pg == mu.membership.pg)
                {
                    // the control plane re-delivers memberships on every
                    // sweep (the one-shot broadcast at repair completion is
                    // droppable); only a real change may reset health state
                    if *m != mu.membership {
                        let pg = m.pg;
                        *m = mu.membership;
                        // the slot→node mapping changed: stale health
                        // verdicts must not follow the slot onto its
                        // replacement node
                        self.health.retain(|seg, _| seg.pg != pg);
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match Reply::from_msg(msg) {
            Ok(reply) => {
                if let Reply::Truncated(ack) = &reply {
                    // post-truncation SCL: the freshest completeness signal
                    self.scls.insert(ack.segment, ack.scl);
                }
                self.on_recovery_reply(ctx, reply);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<swire::ReadPageNack>() {
            Ok(nack) => {
                // The segment told us exactly how far behind it is; refresh
                // our view and redirect the read immediately instead of
                // waiting out the read timeout.
                self.scls.insert(nack.segment, nack.scl);
                let stale = self
                    .reads
                    .get(&nack.req_id)
                    .is_none_or(|pr| pr.target != nack.segment);
                if !stale {
                    ctx.inc("engine.read_nacks", 1);
                    self.strike(ctx, nack.segment);
                    self.retry_read(ctx, nack.req_id, Some(nack.segment.replica));
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(behind) = msg.downcast::<swire::EpochBehind>() {
            // A segment refused a batch because it has not yet learned of
            // our truncation (it was down during recovery). Replay the
            // durable truncation range; the batch itself is retransmitted
            // by the regular outstanding-write sweep.
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

    /// No checkpoints and no log mutex: writes are never gated.
    fn admit_write(&mut self, _ctx: &mut Ctx<'_>, _conn: u64) -> bool {
        true
    }

    fn cpu_cost(&mut self, base: SimDuration) -> SimDuration {
        base
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
                is_write: true,
                span,
            });
        // the group-commit window (flush timer / batch cap) ships this;
        // forcing a flush here would defeat batching
        self.maybe_flush(ctx);
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
        let read_point = self.tracker.vdl();
        let pg = self.cfg.layout.pg_of(page);
        let target = self.pick_segment(ctx, pg, read_point, None);
        let req_id = self.next_req;
        self.next_req += 1;
        self.page_waits.insert(page, req_id);
        self.reads.insert(
            req_id,
            PendingRead {
                page,
                read_point,
                conns: vec![conn],
                sent_at: ctx.now(),
                target,
                attempts: 1,
            },
        );
        let node = self.membership(pg).slots[target.replica as usize];
        let ids = self.hot(ctx);
        ctx.inc_id(ids.page_fetches, 1);
        ctx.send(
            node,
            swire::ReadPageReq {
                req_id,
                segment: target,
                page,
                read_point,
            },
        );
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
                ctx.set_timer(SimDuration::from_millis(5), TAG_SWEEP);
            }
            ActorEvent::Restarted => {
                if self.cfg.standby && self.status == EngineStatus::Standby {
                    return; // unpromoted standby: still idle after a blip
                }
                self.start_recovery(ctx);
                ctx.set_timer(SimDuration::from_millis(5), TAG_SWEEP);
            }
            ActorEvent::Timer { tag } => match tag {
                TAG_FLUSH => {
                    // counted even when staging is empty: the tick cadence
                    // itself is the observable for the double-armed-timer
                    // regression test
                    ctx.inc("engine.flush_ticks", 1);
                    self.flush_timer = None;
                    self.flush_staging(ctx, ShipReason::Deadline);
                }
                TAG_SWEEP => {
                    self.sweep(ctx);
                    ctx.set_timer(SimDuration::from_millis(5), TAG_SWEEP);
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
                    Ok(req) => {
                        self.on_client_request(ctx, from, req);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<Promote>() {
                    Ok(_) => {
                        if self.status == EngineStatus::Standby {
                            // take over the volume: recovery doubles as the
                            // fence (epoch bump annuls the old writer's
                            // unacknowledged tail and rejects its future
                            // writes)
                            self.start_recovery(ctx);
                            ctx.set_timer(SimDuration::from_millis(5), TAG_SWEEP);
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
        // everything except configuration is volatile; a crashed engine is
        // not Ready until recovery completes
        self.status = EngineStatus::Recovering;
        self.txn.crash();
        self.staging.clear();
        self.staging_cpl = None;
        self.staging_pgs.clear();
        // the armed timer itself dies with the incarnation (stale timers
        // are filtered); only the guard needs resetting
        self.flush_timer = None;
        self.commit_waiters.clear();
        self.scls.clear();
        self.reads.clear();
        self.page_waits.clear();
        self.pending_inserts.clear();
        self.outstanding.clear();
        self.health.clear();
        self.recovery = None;
        self.zdp = None;
        self.patch_queue.clear();
        self.tracker.reset(Lsn::ZERO);
        self.alloc = LsnAllocator::new(Lsn::ZERO, self.cfg.lal);
        self.chain_tails.clear();
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
