//! The storage node actor — Fig. 4 of the paper.
//!
//! "Let's examine the various activities on the storage node … (1) receive
//! log record and add to an in-memory queue, (2) persist record on disk
//! and acknowledge, (3) organize records and identify gaps in the log …
//! (4) gossip with peers to fill in gaps, (5) coalesce log records into
//! new data pages, (6) periodically stage log and new pages to S3, (7)
//! periodically garbage collect old versions, and finally (8) periodically
//! validate CRC codes on pages. Note that not only are each of the steps
//! above asynchronous, only steps (1) and (2) are in the foreground path
//! potentially impacting latency."
//!
//! The actor reproduces that split precisely: a `WriteBatch` costs one
//! simulated disk write before the ack goes out; everything else runs on
//! timers and is skipped while the foreground queue is deep (§3.3:
//! "background processing has negative correlation with foreground
//! processing"). Log and page writes share the node's one disk queue, so
//! a coalesce pass's page writes go out as 64 KiB chunks, one in flight
//! at a time ([`PageWrites`]): a log write waits behind at most one chunk,
//! never behind a whole pass.
//!
//! Every per-segment decision (admit, fence, fast-ack, read nack, gossip,
//! install, truncate, the recovery answers, coalesce, GC, backup, scrub)
//! lives in [`Segment`]. This file is the shell around it: it routes
//! messages to the segment, turns the answer into sends and disk ops,
//! holds the in-flight ops while the disk works, drives the timers, and
//! emits every metric and trace event.

use std::collections::BTreeMap;
use std::sync::Arc;

use aurora_log::{codec, LogRecord, Lsn, Page, PageId, SegmentId};
use aurora_quorum::TruncationGuard;
use aurora_sim::hash::FxHashMap;
use aurora_sim::{Actor, ActorEvent, Ctx, Msg, NodeId, SimDuration, SimTime, SpanId, Tag};

use crate::object_store::ObjectStore;
use crate::page_writes::PageWrites;
use crate::segment::{Gossip, Segment, Write};
use crate::wire::*;

const TAG_GOSSIP: Tag = 1;
const TAG_COALESCE: Tag = 2;
const TAG_BACKUP: Tag = 3;
const TAG_SCRUB: Tag = 4;
const TAG_HEARTBEAT: Tag = 5;
/// Disk-op tags start here so they never collide with timer tags.
const TAG_OP_BASE: Tag = 1 << 20;

/// Tunables for a storage node.
#[derive(Debug, Clone)]
pub struct StorageNodeConfig {
    pub gossip_interval: SimDuration,
    pub coalesce_interval: SimDuration,
    /// 0 disables backups.
    pub backup_interval: SimDuration,
    /// 0 disables scrubbing.
    pub scrub_interval: SimDuration,
    /// 0 disables heartbeats.
    pub heartbeat_interval: SimDuration,
    /// Control plane node (heartbeat destination).
    pub control: Option<NodeId>,
    /// Object store for backups (None disables).
    pub store: Option<ObjectStore>,
    /// Every k-th backup increment includes a full page snapshot.
    pub snapshot_every: u32,
    /// Cap on records per gossip push.
    pub gossip_batch_limit: usize,
    /// Background work is deferred while more foreground ops than this are
    /// in flight.
    pub busy_threshold: usize,
}

impl Default for StorageNodeConfig {
    fn default() -> Self {
        StorageNodeConfig {
            gossip_interval: SimDuration::from_millis(50),
            coalesce_interval: SimDuration::from_millis(20),
            backup_interval: SimDuration::from_secs(2),
            scrub_interval: SimDuration::from_secs(10),
            heartbeat_interval: SimDuration::from_millis(100),
            control: None,
            store: None,
            snapshot_every: 4,
            gossip_batch_limit: 512,
            busy_threshold: 32,
        }
    }
}

/// In-flight foreground operations (volatile: lost on crash).
enum PendingOp {
    PersistBatch {
        from: NodeId,
        segment: SegmentId,
        /// Shared with the sender's wire message (and, on the common
        /// all-admitted path, with every other replica's copy).
        records: Arc<[LogRecord]>,
        batch_end: Lsn,
        received_at: SimTime,
        /// Open `storage.persist` trace span (NONE when tracing is off).
        /// Volatile like the op itself: a crash drops it unclosed.
        span: SpanId,
    },
    PersistGossip {
        segment: SegmentId,
        records: Arc<[LogRecord]>,
    },
    ReadPage {
        from: NodeId,
        req: ReadPageReq,
    },
    PersistTruncate {
        from: NodeId,
        t: Truncate,
    },
    PersistRepair(RepairFetchResp),
    /// One chunk of the coalesce passes' page writes.
    PageWrite,
}

/// Every message a storage node acts on, tried in this order: the
/// foreground path first.
enum Inbound {
    Write(WriteBatch),
    Read(ReadPageReq),
    Pull(GossipPull),
    Push(GossipPush),
    State(SegmentStateReq),
    CplBelow(CplBelowReq),
    TxnScan(TxnScanReq),
    UndoScan(UndoScanReq),
    Truncate(Truncate),
    Peers(SegmentPeers),
    RepairFetch(RepairFetchReq),
    Repair(RepairFetchResp),
}

impl Inbound {
    /// `None` for a message this node does not know (forward
    /// compatibility: it is ignored).
    fn from_msg(msg: Msg) -> Option<Self> {
        msg.downcast()
            .map(Inbound::Write)
            .or_else(|m| m.downcast().map(Inbound::Read))
            .or_else(|m| m.downcast().map(Inbound::Pull))
            .or_else(|m| m.downcast().map(Inbound::Push))
            .or_else(|m| m.downcast().map(Inbound::State))
            .or_else(|m| m.downcast().map(Inbound::CplBelow))
            .or_else(|m| m.downcast().map(Inbound::TxnScan))
            .or_else(|m| m.downcast().map(Inbound::UndoScan))
            .or_else(|m| m.downcast().map(Inbound::Truncate))
            .or_else(|m| m.downcast().map(Inbound::Peers))
            .or_else(|m| m.downcast().map(Inbound::RepairFetch))
            .or_else(|m| m.downcast().map(Inbound::Repair))
            .ok()
    }
}

/// Precomputed metric handles for the per-event hot paths. Resolved once
/// per process (lazily) so the hot loops never hash metric-name strings.
#[derive(Clone, Copy)]
struct HotIds {
    batches_in: aurora_sim::MetricId,
    fast_acks: aurora_sim::MetricId,
    page_reads: aurora_sim::MetricId,
    persist_ns: aurora_sim::MetricId,
    gossip_filled: aurora_sim::MetricId,
    coalesced: aurora_sim::MetricId,
    gc_records: aurora_sim::MetricId,
    page_write_chunks: aurora_sim::MetricId,
}

impl HotIds {
    fn resolve(ctx: &mut Ctx<'_>) -> Self {
        HotIds {
            batches_in: ctx.metric_id("storage.batches_in"),
            fast_acks: ctx.metric_id("storage.fast_acks"),
            page_reads: ctx.metric_id("storage.page_reads"),
            persist_ns: ctx.metric_id("storage.persist_ns"),
            gossip_filled: ctx.metric_id("storage.gossip_filled"),
            coalesced: ctx.metric_id("storage.coalesced"),
            gc_records: ctx.metric_id("storage.gc_records"),
            page_write_chunks: ctx.metric_id("storage.page_write_chunks"),
        }
    }
}

/// The storage node actor.
pub struct StorageNode {
    /// Lazily resolved metric handles (not state: survives crashes).
    hot: Option<HotIds>,
    cfg: StorageNodeConfig,
    /// Durable state (survives crashes). BTreeMap, not HashMap: the
    /// gossip/coalesce/backup timers iterate hosted segments and draw from
    /// the shared RNG or emit IO per entry, so iteration order must be
    /// deterministic for seed-replay.
    segments: BTreeMap<SegmentId, Segment>,
    /// Volatile.
    pending: FxHashMap<Tag, PendingOp>,
    /// Volatile: the coalesce passes' unwritten pages.
    page_writes: PageWrites,
    next_op: Tag,
    /// Test hook: serve reads materialized past the read point (see
    /// [`StorageNode::test_serve_future`]).
    serve_future: bool,
    /// Test hook: nack every page read (see
    /// [`StorageNode::test_nack_reads`]).
    nack_reads: bool,
}

impl StorageNode {
    pub fn new(cfg: StorageNodeConfig) -> Self {
        StorageNode {
            hot: None,
            cfg,
            segments: BTreeMap::new(),
            pending: FxHashMap::default(),
            page_writes: PageWrites::default(),
            next_op: TAG_OP_BASE,
            serve_future: false,
            nack_reads: false,
        }
    }

    /// Resolve (once) and copy out the hot metric handles.
    fn hot(&mut self, ctx: &mut Ctx<'_>) -> HotIds {
        *self.hot.get_or_insert_with(|| HotIds::resolve(ctx))
    }

    /// Test/inspection: the SCL of a hosted segment.
    pub fn scl(&self, segment: SegmentId) -> Option<Lsn> {
        self.segments.get(&segment).map(|s| s.log().scl())
    }

    /// Test/inspection: materialize a page image at a read point.
    pub fn page_at(&self, segment: SegmentId, page: PageId, read_point: Lsn) -> Option<Page> {
        self.segments
            .get(&segment)
            .map(|s| s.materialize(page, read_point))
    }

    /// Test/inspection: log records currently held for a segment.
    pub fn log_len(&self, segment: SegmentId) -> usize {
        self.segments.get(&segment).map_or(0, |s| s.log().len())
    }

    /// Test/inspection: hosted segments.
    pub fn hosted(&self) -> Vec<SegmentId> {
        let mut v: Vec<SegmentId> = self.segments.keys().copied().collect();
        v.sort();
        v
    }

    /// Test/inspection: the truncation-guard epoch of a hosted segment.
    pub fn guard_epoch(&self, segment: SegmentId) -> Option<aurora_quorum::VolumeEpoch> {
        self.segments.get(&segment).map(|s| s.guard.epoch())
    }

    /// Test/inspection: a hosted segment's GC floor.
    pub fn gc_floor(&self, segment: SegmentId) -> Option<Lsn> {
        self.segments.get(&segment).map(|s| s.gc_floor)
    }

    /// Test/inspection: does the segment hold stranded records above its
    /// SCL (i.e. it knows it is missing something)?
    pub fn has_gap(&self, segment: SegmentId) -> Option<bool> {
        self.segments.get(&segment).map(|s| s.log().has_gap())
    }

    /// Fault-injection hook for the DST oracle negative tests: silently
    /// drop every log record above `above`, as a buggy (or bit-rotted)
    /// storage node would. Bypasses the truncation guard on purpose.
    #[doc(hidden)]
    pub fn test_forget_tail(&mut self, segment: SegmentId, above: Lsn) {
        if let Some(seg) = self.segments.get_mut(&segment) {
            seg.drop_above(above);
        }
    }

    /// Fault-injection hook: serve page reads materialized at `Lsn::MAX`
    /// instead of the requested read point — the snapshot-isolation bug
    /// the stale-read oracle exists to catch.
    #[doc(hidden)]
    pub fn test_serve_future(&mut self, on: bool) {
        self.serve_future = on;
    }

    /// Fault-injection hook: nack every page read, as a replica that
    /// persistently cannot serve (bit rot, overload shedding) would —
    /// exercises the engine's health tracker and read-retry routing.
    #[doc(hidden)]
    pub fn test_nack_reads(&mut self, on: bool) {
        self.nack_reads = on;
    }

    /// Fault-injection hook: reset a segment's truncation guard to a
    /// fresh (epoch 0) guard, simulating an epoch regression.
    #[doc(hidden)]
    pub fn test_reset_epoch(&mut self, segment: SegmentId) {
        if let Some(seg) = self.segments.get_mut(&segment) {
            seg.guard = TruncationGuard::new();
        }
    }

    /// This node's replica of the given PG (a node hosts at most one
    /// replica of any PG — the placement invariant of §2.2).
    fn segment_for_pg(&self, pg: aurora_log::PgId) -> Option<(SegmentId, &Segment)> {
        self.segments
            .iter()
            .find(|(id, _)| id.pg == pg)
            .map(|(id, seg)| (*id, seg))
    }

    /// Answer a recovery query. An unknown segment is an empty segment:
    /// recovery must be able to establish that a PG was simply never
    /// written.
    fn query<R>(&self, segment: SegmentId, answer: impl FnOnce(&Segment) -> R) -> R {
        match self.segments.get(&segment) {
            Some(seg) => answer(seg),
            None => answer(&Segment::default()),
        }
    }

    fn op(&mut self, op: PendingOp) -> Tag {
        let tag = self.next_op;
        self.next_op += 1;
        self.pending.insert(tag, op);
        tag
    }

    /// Put the next page-write chunk on the disk, unless one is there.
    fn write_next_chunk(&mut self, ctx: &mut Ctx<'_>, ids: HotIds) {
        if let Some(bytes) = self.page_writes.next_chunk() {
            let tag = self.op(PendingOp::PageWrite);
            ctx.inc_id(ids.page_write_chunks, 1);
            ctx.disk_write(bytes, tag);
        }
    }

    fn schedule_all_timers(&self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.cfg.gossip_interval, TAG_GOSSIP);
        ctx.set_timer(self.cfg.coalesce_interval, TAG_COALESCE);
        if self.cfg.backup_interval > SimDuration::ZERO && self.cfg.store.is_some() {
            ctx.set_timer(self.cfg.backup_interval, TAG_BACKUP);
        }
        if self.cfg.scrub_interval > SimDuration::ZERO {
            ctx.set_timer(self.cfg.scrub_interval, TAG_SCRUB);
        }
        if self.cfg.heartbeat_interval > SimDuration::ZERO && self.cfg.control.is_some() {
            ctx.set_timer(self.cfg.heartbeat_interval, TAG_HEARTBEAT);
        }
    }

    fn busy(&self) -> bool {
        self.pending.len() > self.cfg.busy_threshold
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Msg) {
        let ids = self.hot(ctx);
        let Some(msg) = Inbound::from_msg(msg) else {
            return;
        };
        match msg {
            Inbound::Write(wb) => {
                ctx.inc_id(ids.batches_in, 1);
                match self.segments.entry(wb.segment).or_default().write(&wb) {
                    Write::Behind(reply) => {
                        ctx.inc("storage.epoch_behind", 1);
                        ctx.send(from, reply);
                    }
                    Write::Fenced(reply) => {
                        ctx.inc("storage.fenced_batches", 1);
                        ctx.send(from, reply);
                    }
                    Write::Ack(ack) => {
                        ctx.inc_id(ids.fast_acks, 1);
                        let pg = wb.segment.pg.0 as u64;
                        ctx.trace_instant("storage.fast_ack", SpanId::NONE, wb.batch_end.0, pg);
                        ctx.send(from, ack);
                    }
                    Write::Persist(records) => {
                        let bytes = codec::batch_wire_size(&records);
                        let span = ctx.trace_begin(
                            "storage.persist",
                            SpanId::NONE,
                            wb.batch_end.0,
                            wb.segment.pg.0 as u64,
                        );
                        let tag = self.op(PendingOp::PersistBatch {
                            from,
                            segment: wb.segment,
                            records,
                            batch_end: wb.batch_end,
                            received_at: ctx.now(),
                            span,
                        });
                        // Step (2): persist on disk, ack on completion.
                        ctx.disk_write(bytes.max(64), tag);
                    }
                }
            }
            Inbound::Read(req) => {
                ctx.inc_id(ids.page_reads, 1);
                let seg = self.segments.get(&req.segment);
                if let Some(nack) = Segment::read_nack(seg, &req, self.nack_reads) {
                    ctx.inc("storage.read_rejected", 1);
                    ctx.send(from, nack);
                    return;
                }
                let tag = self.op(PendingOp::ReadPage { from, req });
                ctx.disk_read(aurora_log::PAGE_SIZE, tag);
            }
            Inbound::Pull(pull) => {
                let Some((_, seg)) = self.segment_for_pg(pull.pg) else {
                    return;
                };
                match seg.gossip(&pull, self.cfg.gossip_batch_limit) {
                    Some(Gossip::CatchUp(copy)) => {
                        ctx.inc("storage.catchup_copies", 1);
                        ctx.send(from, copy);
                    }
                    Some(Gossip::Push(push)) => {
                        ctx.inc("storage.gossip_served", push.records.len() as u64);
                        ctx.send(from, push);
                    }
                    None => {}
                }
            }
            Inbound::Push(push) => {
                let Some((segment, seg)) = self.segment_for_pg(push.pg) else {
                    return; // we no longer host this PG
                };
                let records = seg.admit(&push.records, push.epoch);
                if !records.is_empty() {
                    let bytes = codec::batch_wire_size(&records);
                    let tag = self.op(PendingOp::PersistGossip { segment, records });
                    ctx.disk_write(bytes, tag);
                }
            }
            Inbound::State(req) => ctx.send(from, self.query(req.segment, |s| s.state(&req))),
            Inbound::CplBelow(req) => {
                ctx.send(from, self.query(req.segment, |s| s.cpl_below(&req)));
            }
            Inbound::TxnScan(req) => ctx.send(from, self.query(req.segment, |s| s.txn_scan(&req))),
            Inbound::UndoScan(req) => {
                ctx.send(from, self.query(req.segment, |s| s.undo_scan(&req)));
            }
            Inbound::Truncate(t) => {
                self.segments.entry(t.segment).or_default();
                let tag = self.op(PendingOp::PersistTruncate { from, t });
                ctx.disk_write(64, tag);
            }
            Inbound::Peers(sp) => self.segments.entry(sp.segment).or_default().peers = sp.peers,
            Inbound::RepairFetch(req) => {
                if let Some(seg) = self.segments.get(&req.src_segment) {
                    ctx.inc("storage.repair_served", 1);
                    ctx.send(req.dest, seg.full_copy(req.dest_segment, false));
                }
            }
            Inbound::Repair(copy) => {
                let bytes = aurora_sim::Payload::wire_size(&copy);
                let tag = self.op(PendingOp::PersistRepair(copy));
                ctx.disk_write(bytes, tag);
            }
        }
    }

    fn on_disk_done(&mut self, ctx: &mut Ctx<'_>, tag: Tag) {
        let ids = self.hot(ctx);
        let Some(op) = self.pending.remove(&tag) else {
            return;
        };
        match op {
            PendingOp::PersistBatch {
                from,
                segment,
                records,
                batch_end,
                received_at,
                span,
            } => {
                let seg = self.segments.entry(segment).or_default();
                let before = seg.log().scl();
                seg.ingest(&records);
                let scl = seg.log().scl();
                ctx.record_id(ids.persist_ns, ctx.now().since(received_at).nanos());
                ctx.trace_end("storage.persist", span, batch_end.0, scl.0);
                if scl > before {
                    ctx.trace_instant("wm.scl", span, scl.0, segment.pg.0 as u64);
                }
                ctx.send(
                    from,
                    WriteAck {
                        segment,
                        batch_end,
                        scl,
                    },
                );
            }
            PendingOp::PersistGossip { segment, records } => {
                let seg = self.segments.entry(segment).or_default();
                let before = seg.log().scl();
                let n = seg.ingest(&records);
                let scl = seg.log().scl();
                if n > 0 {
                    ctx.trace_instant("storage.gossip_fill", SpanId::NONE, n, segment.pg.0 as u64);
                }
                if scl > before {
                    ctx.trace_instant("wm.scl", SpanId::NONE, scl.0, segment.pg.0 as u64);
                }
                ctx.inc_id(ids.gossip_filled, n);
            }
            PendingOp::ReadPage { from, mut req } => {
                if self.serve_future {
                    req.read_point = Lsn(u64::MAX);
                }
                if let Some(seg) = self.segments.get_mut(&req.segment) {
                    ctx.send(from, seg.serve(&req));
                }
            }
            PendingOp::PersistTruncate { from, t } => {
                if let Some(seg) = self.segments.get_mut(&t.segment) {
                    let ack = seg.truncate(&t);
                    // post-truncation completeness: the timeline must show
                    // the SCL resetting, not only advancing
                    ctx.trace_instant("wm.scl", SpanId::NONE, ack.scl.0, t.segment.pg.0 as u64);
                    ctx.send(from, ack);
                }
            }
            PendingOp::PersistRepair(copy) => {
                let (segment, scl) = (copy.segment, copy.scl.0);
                let pg = segment.pg.0 as u64;
                if copy.catch_up {
                    // Gossip catch-up: this member fell behind the donor's
                    // GC horizon, so the missing chain prefix can never be
                    // refilled record by record. Merge into the live
                    // segment.
                    let Some(seg) = self.segments.get_mut(&segment) else {
                        return;
                    };
                    seg.install(copy);
                    ctx.trace_instant("storage.catchup_install", SpanId::NONE, scl, pg);
                    ctx.inc("storage.catchups_installed", 1);
                } else {
                    let mut seg = Segment::default();
                    seg.install(copy);
                    self.segments.insert(segment, seg);
                    ctx.trace_instant("storage.repair_install", SpanId::NONE, scl, pg);
                    ctx.inc("storage.repairs_installed", 1);
                    if let Some(control) = self.cfg.control {
                        ctx.send(control, RepairDone { segment });
                    }
                }
            }
            PendingOp::PageWrite => {
                self.page_writes.done();
                self.write_next_chunk(ctx, ids);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: Tag) {
        let ids = self.hot(ctx);
        match tag {
            TAG_GOSSIP => {
                // Queue-depth gauge for the telemetry windows: in-flight
                // foreground/background ops on this node right now.
                ctx.gauge("storage.pending_ops", self.pending.len() as u64);
                if !self.busy() {
                    // Collect pulls first to satisfy the borrow checker.
                    let mut pulls: Vec<(NodeId, GossipPull)> = Vec::new();
                    for (id, seg) in self.segments.iter() {
                        if seg.peers.is_empty() {
                            continue;
                        }
                        let peer = seg.peers[ctx.rng().index(seg.peers.len())];
                        pulls.push((
                            peer,
                            GossipPull {
                                pg: id.pg,
                                scl: seg.log().scl(),
                                segment: *id,
                            },
                        ));
                    }
                    for (peer, pull) in pulls {
                        ctx.send(peer, pull);
                    }
                }
                ctx.set_timer(self.cfg.gossip_interval, TAG_GOSSIP);
            }
            TAG_COALESCE => {
                // Bytes earlier passes have not yet issued: 0 unless a
                // pass outran the disk.
                ctx.gauge(
                    "storage.page_write_backlog",
                    self.page_writes.backlog() as u64,
                );
                if !self.busy() {
                    let mut total_applied = 0usize;
                    let mut total_dirty = 0usize;
                    let mut total_gc = 0usize;
                    let archiving = self.cfg.store.is_some();
                    for seg in self.segments.values_mut() {
                        let (applied, dirty) = seg.coalesce();
                        total_applied += applied;
                        total_dirty += dirty;
                        total_gc += seg.gc(archiving);
                    }
                    // Background page materialization IO, chunked so the
                    // log writes behind it wait for one chunk at most.
                    self.page_writes.add(total_dirty * aurora_log::PAGE_SIZE);
                    self.write_next_chunk(ctx, ids);
                    if total_applied > 0 {
                        ctx.trace_instant(
                            "storage.coalesce",
                            SpanId::NONE,
                            total_applied as u64,
                            total_dirty as u64,
                        );
                    }
                    ctx.inc_id(ids.coalesced, total_applied as u64);
                    ctx.inc_id(ids.gc_records, total_gc as u64);
                }
                ctx.set_timer(self.cfg.coalesce_interval, TAG_COALESCE);
            }
            TAG_BACKUP => {
                if !self.busy() {
                    if let Some(store) = self.cfg.store.clone() {
                        for (id, seg) in self.segments.iter_mut() {
                            if let Some(backup) = seg.backup(*id, self.cfg.snapshot_every) {
                                store.put(backup);
                                ctx.inc("storage.backups", 1);
                            }
                        }
                    }
                }
                ctx.set_timer(self.cfg.backup_interval, TAG_BACKUP);
            }
            TAG_SCRUB => {
                if !self.busy() {
                    let (mut pages, mut records) = (0, 0);
                    let mut scratch = Vec::new();
                    for seg in self.segments.values() {
                        let (p, r) = seg.scrub(&mut scratch);
                        pages += p;
                        records += r;
                    }
                    ctx.inc("storage.scrubbed_pages", pages);
                    ctx.inc("storage.scrubbed_records", records);
                }
                ctx.set_timer(self.cfg.scrub_interval, TAG_SCRUB);
            }
            TAG_HEARTBEAT => {
                if let Some(control) = self.cfg.control {
                    ctx.send(
                        control,
                        Heartbeat {
                            hosted: self.hosted(),
                        },
                    );
                }
                ctx.set_timer(self.cfg.heartbeat_interval, TAG_HEARTBEAT);
            }
            _ => {}
        }
    }
}

impl Actor for StorageNode {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Start | ActorEvent::Restarted => self.schedule_all_timers(ctx),
            ActorEvent::Message { from, msg } => self.on_message(ctx, from, msg),
            ActorEvent::Timer { tag } => self.on_timer(ctx, tag),
            ActorEvent::DiskDone { tag, .. } => self.on_disk_done(ctx, tag),
        }
    }

    fn on_crash(&mut self) {
        // Volatile: in-flight (unacked) operations vanish; durable segment
        // state — log, pages, truncation guard — survives.
        self.pending.clear();
        self.page_writes.crash();
    }
}
