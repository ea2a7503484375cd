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
//! processing").

use std::collections::{BTreeMap, VecDeque};

use aurora_sim::hash::{FxHashMap, FxHashSet};
use std::sync::Arc;

use aurora_log::{
    apply_record, codec, ApplyError, LogRecord, Lsn, Page, PageId, SegmentId, SegmentLog,
};
use aurora_quorum::TruncationGuard;
use aurora_sim::{Actor, ActorEvent, Ctx, NodeId, SimDuration, SimTime, SpanId, Tag};

use crate::object_store::{ObjectStore, SegmentBackup};
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

/// Durable per-segment state.
struct SegmentState {
    log: SegmentLog,
    /// Materialized pages — "simply a cache of log applications" (§3.2),
    /// but durable on this node's disk.
    pages: FxHashMap<PageId, Page>,
    /// Per-page LSN index into the log, for on-demand materialization.
    page_index: FxHashMap<PageId, Vec<Lsn>>,
    guard: TruncationGuard,
    /// All records at or below this have been coalesced into `pages`.
    applied_upto: Lsn,
    /// Piggybacked watermarks from the writer.
    vdl_hint: Lsn,
    pgmrpl_hint: Lsn,
    /// Gossip peers (the PG's other five replicas).
    peers: Vec<NodeId>,
    /// Backup bookkeeping.
    archived_upto: Lsn,
    backup_count: u32,
    /// Records at or below this were GC'd out of the log; gossip cannot
    /// serve a peer whose SCL is below it (the chain link is gone) — such
    /// a peer needs a full catch-up copy instead.
    gc_floor: Lsn,
    /// Bounded cache of materialized read images (§3.2: pages are "simply
    /// a cache of log applications" — this caches the applications too).
    /// Invalidated per page on record arrival and wholesale on truncation;
    /// purely an ingest-side accelerator, never observable in results.
    mat_cache: FxHashMap<PageId, Page>,
    /// Insertion-order eviction queue for `mat_cache`. Cache keys are
    /// always a subset of the queued ids, so bounding the queue bounds
    /// the cache.
    mat_order: VecDeque<PageId>,
}

/// Per-segment cap on cached materialized page images.
const MAT_CACHE_PAGES: usize = 64;

impl SegmentState {
    fn new() -> Self {
        SegmentState {
            log: SegmentLog::new(),
            pages: FxHashMap::default(),
            page_index: FxHashMap::default(),
            guard: TruncationGuard::new(),
            applied_upto: Lsn::ZERO,
            vdl_hint: Lsn::ZERO,
            pgmrpl_hint: Lsn::ZERO,
            peers: Vec::new(),
            archived_upto: Lsn::ZERO,
            backup_count: 0,
            gc_floor: Lsn::ZERO,
            mat_cache: FxHashMap::default(),
            mat_order: VecDeque::new(),
        }
    }

    fn ingest(&mut self, rec: LogRecord) -> bool {
        let page = rec.page();
        let lsn = rec.lsn;
        if self.log.insert(rec) {
            if let Some(p) = page {
                // Keep the index LSN-sorted: gossip and retransmissions
                // fill holes out of arrival order, and materialization
                // must apply records in LSN order.
                let idx = self.page_index.entry(p).or_default();
                match idx.binary_search(&lsn) {
                    Ok(_) => {}
                    Err(pos) => idx.insert(pos, lsn),
                }
                // A new record can land *below* a cached image's LSN (a
                // gossip-filled hole), which the image silently lacks —
                // drop the entry rather than track chain completeness.
                self.mat_cache.remove(&p);
            }
            true
        } else {
            false
        }
    }

    /// Materialize a page image as of `read_point` (pure; used by the
    /// inspection hooks and as the cache's compute path).
    fn materialize(&self, page_id: PageId, read_point: Lsn) -> Page {
        let page = self.pages.get(&page_id).cloned().unwrap_or_default();
        self.materialize_from(page, page_id, read_point)
    }

    /// Roll `page` forward through the indexed records in
    /// `(page.lsn, read_point]`, seeking with `partition_point` instead of
    /// scanning the whole per-page history.
    fn materialize_from(&self, mut page: Page, page_id: PageId, read_point: Lsn) -> Page {
        if let Some(lsns) = self.page_index.get(&page_id) {
            // index is kept LSN-sorted by `ingest`
            let start = lsns.partition_point(|&l| l <= page.lsn);
            let end = lsns.partition_point(|&l| l <= read_point);
            for &lsn in &lsns[start..end] {
                if let Some(rec) = self.log.get(lsn) {
                    // AlreadyApplied can't happen (the seek skipped those);
                    // other errors indicate a malformed chain and are
                    // surfaced by tests.
                    let _ = apply_record(&mut page, rec);
                }
            }
        }
        page
    }

    /// Serve a read through the materialization cache. The image a read
    /// observes is a pure function of the page's record chain at or below
    /// `read_point`, so a cached image whose LSN matches the newest
    /// applicable record can be returned verbatim; a colder one is rolled
    /// forward instead of re-applying the whole history.
    fn materialize_cached(&mut self, page_id: PageId, read_point: Lsn) -> Page {
        let base = self.pages.get(&page_id).cloned().unwrap_or_default();
        let want = match self.page_index.get(&page_id) {
            Some(lsns) => {
                let end = lsns.partition_point(|&l| l <= read_point);
                if end > 0 {
                    lsns[end - 1].max(base.lsn)
                } else {
                    base.lsn
                }
            }
            None => base.lsn,
        };
        let seed = match self.mat_cache.get(&page_id) {
            Some(c) if c.lsn == want => return c.clone(),
            // Warm-forward: sound because every record arrival for this
            // page invalidates the entry, so the cached image covers
            // exactly the indexed records at or below its LSN.
            Some(c) if c.lsn >= base.lsn && c.lsn < want => c.clone(),
            _ => base,
        };
        let image = self.materialize_from(seed, page_id, read_point);
        let cached_lsn = self.mat_cache.get(&page_id).map_or(Lsn::ZERO, |c| c.lsn);
        if image.lsn >= cached_lsn {
            self.cache_insert(page_id, image.clone());
        }
        image
    }

    fn cache_insert(&mut self, page_id: PageId, image: Page) {
        if self.mat_cache.insert(page_id, image).is_none() {
            self.mat_order.push_back(page_id);
        }
        while self.mat_order.len() > MAT_CACHE_PAGES {
            match self.mat_order.pop_front() {
                Some(old) => {
                    self.mat_cache.remove(&old);
                }
                None => break,
            }
        }
    }

    /// Coalesce (Fig. 4 step 5): fold records up to min(SCL, VDL) into the
    /// materialized pages. Returns (records applied, dirty pages).
    fn coalesce(&mut self) -> (usize, usize) {
        let target = self.log.scl().min(self.vdl_hint);
        if target <= self.applied_upto {
            return (0, 0);
        }
        let mut applied = 0;
        let mut dirty = FxHashSet::default();
        // Split borrows: the scan borrows the log while pages mutate.
        let (log, pages) = (&self.log, &mut self.pages);
        for rec in log.range_iter(self.applied_upto, target) {
            if let Some(page_id) = rec.page() {
                let page = pages.entry(page_id).or_default();
                match apply_record(page, rec) {
                    Ok(()) => {
                        applied += 1;
                        dirty.insert(page_id);
                    }
                    Err(ApplyError::AlreadyApplied { .. }) => {}
                    Err(_) => {}
                }
            }
        }
        self.applied_upto = target;
        (applied, dirty.len())
    }

    /// GC (Fig. 4 step 7): drop log below min(PGMRPL, applied point), and
    /// never beyond what the backup archiver has staged to the object
    /// store (`archive_floor`) — continuous backup must see every record.
    fn gc(&mut self, archive_floor: Option<Lsn>) -> usize {
        let mut upto = self.pgmrpl_hint.min(self.applied_upto);
        if let Some(floor) = archive_floor {
            upto = upto.min(floor);
        }
        let dropped = self.log.gc_upto(upto);
        if dropped > 0 {
            if upto > self.gc_floor {
                self.gc_floor = upto;
            }
            // rebuild the page index lazily: prune entries below upto
            for lsns in self.page_index.values_mut() {
                lsns.retain(|l| *l > upto);
            }
            self.page_index.retain(|_, v| !v.is_empty());
        }
        dropped
    }

    fn truncate(&mut self, range: aurora_quorum::TruncationRange) {
        use aurora_quorum::epoch::GuardOutcome;
        // Idempotent re-delivery: the control plane re-sends its durable
        // range every sweep, and the guard accepts same-epoch offers. The
        // log chop must only run on first acceptance — re-chopping would
        // destroy records legitimately written *after* the recovery at
        // the same epoch (their LSNs sit inside the annulled range, which
        // only fences *prior*-epoch history).
        if self.guard.range() == Some(range) {
            return;
        }
        if self.guard.offer(range) == GuardOutcome::StaleEpoch {
            return;
        }
        self.drop_above(range.above);
    }

    /// Drop every log record above `above`.
    fn drop_above(&mut self, above: Lsn) {
        // Records leave without going through `ingest`, so cached images
        // could silently include dropped history.
        self.mat_cache.clear();
        self.mat_order.clear();
        self.log.truncate_above(above);
        for lsns in self.page_index.values_mut() {
            lsns.retain(|l| *l <= above);
        }
        self.page_index.retain(|_, v| !v.is_empty());
        if self.applied_upto > above {
            // Materialized pages may include dropped records. Since
            // coalescing is bounded by the VDL hint and truncation is
            // always above the final VDL, this only happens if hints ran
            // ahead of a recovery decision; rebuild pages from scratch.
            self.pages.clear();
            self.applied_upto = Lsn::ZERO;
            self.page_index.clear();
            for rec in self.log.iter() {
                if let Some(p) = rec.page() {
                    self.page_index.entry(p).or_default().push(rec.lsn);
                }
            }
        }
        if self.vdl_hint > above {
            self.vdl_hint = above;
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
        req_id: u64,
        segment: SegmentId,
        page: PageId,
        read_point: Lsn,
    },
    PersistTruncate {
        from: NodeId,
        segment: SegmentId,
        range: aurora_quorum::TruncationRange,
    },
    PersistRepair {
        segment: SegmentId,
        pages: Vec<(PageId, Page)>,
        records: Arc<[LogRecord]>,
        applied_upto: Lsn,
        guard_epoch: aurora_quorum::VolumeEpoch,
        guard_range: Option<aurora_quorum::TruncationRange>,
        scl: Lsn,
        gc_floor: Lsn,
        catch_up: bool,
    },
    Background,
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
    segments: BTreeMap<SegmentId, SegmentState>,
    /// Volatile.
    pending: FxHashMap<Tag, PendingOp>,
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
        self.segments.get(&segment).map(|s| s.log.scl())
    }

    /// Test/inspection: materialize a page image at a read point.
    pub fn page_at(&self, segment: SegmentId, page: PageId, read_point: Lsn) -> Option<Page> {
        self.segments
            .get(&segment)
            .map(|s| s.materialize(page, read_point))
    }

    /// Test/inspection: log records currently held for a segment.
    pub fn log_len(&self, segment: SegmentId) -> usize {
        self.segments.get(&segment).map_or(0, |s| s.log.len())
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
        self.segments.get(&segment).map(|s| s.log.has_gap())
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
    fn segment_id_for_pg(&self, pg: aurora_log::PgId) -> Option<SegmentId> {
        self.segments.keys().find(|s| s.pg == pg).copied()
    }

    fn segment_for_pg(&self, pg: aurora_log::PgId) -> Option<&SegmentState> {
        self.segment_id_for_pg(pg)
            .and_then(|id| self.segments.get(&id))
    }

    /// A full segment copy for repair (`catch_up == false`) or gossip
    /// catch-up of a member stranded behind the GC horizon (`true`).
    fn full_copy(seg: &SegmentState, dest_segment: SegmentId, catch_up: bool) -> RepairFetchResp {
        RepairFetchResp {
            segment: dest_segment,
            pages: seg.pages.iter().map(|(k, v)| (*k, v.clone())).collect(),
            records: seg.log.iter().cloned().collect(),
            applied_upto: seg.applied_upto,
            guard_epoch: seg.guard.epoch(),
            guard_range: seg.guard.range(),
            scl: seg.log.scl(),
            gc_floor: seg.gc_floor,
            catch_up,
        }
    }

    fn op(&mut self, op: PendingOp) -> Tag {
        let tag = self.next_op;
        self.next_op += 1;
        self.pending.insert(tag, op);
        tag
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

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: aurora_sim::Msg) {
        let ids = self.hot(ctx);
        // Foreground path: write batches and page reads.
        let msg = match msg.downcast::<WriteBatch>() {
            Ok(wb) => {
                ctx.inc_id(ids.batches_in, 1);
                let seg = self
                    .segments
                    .entry(wb.segment)
                    .or_insert_with(SegmentState::new);
                if wb.pgmrpl > seg.pgmrpl_hint {
                    seg.pgmrpl_hint = wb.pgmrpl;
                }
                // A batch from an epoch *newer* than our guard means we
                // missed a recovery's truncation. Ingesting now would be
                // unsound: records annulled by that recovery may still be
                // in our log, and new-epoch LSNs can sit at or below our
                // stale SCL, where `SegmentLog::insert` silently ignores
                // them — we would acknowledge data we did not store. Ask
                // the writer for the truncation range instead; the batch
                // comes back via its retransmission path.
                if wb.epoch > seg.guard.epoch() {
                    ctx.inc("storage.epoch_behind", 1);
                    let epoch = seg.guard.epoch();
                    ctx.send(
                        from,
                        EpochBehind {
                            segment: wb.segment,
                            epoch,
                        },
                    );
                    return;
                }
                // Recovery trusts this hint: everything at or below it
                // reached a write quorum. A zombie writer's VDL may cover
                // records our truncation annulled, so only a writer of the
                // current epoch moves it.
                if wb.epoch == seg.guard.epoch() && wb.vdl > seg.vdl_hint {
                    seg.vdl_hint = wb.vdl;
                }
                // Fence zombie writers from a previous epoch whose records
                // were annulled. A fenced batch is NOT acknowledged — the
                // stale writer must never assemble a quorum — and the
                // rejection tells it to step down.
                let had_records = !wb.records.is_empty();
                // Common case: every record is admitted, and the shared
                // slice is reference-counted straight into the pending op
                // — no copy of the batch is ever made on this node.
                let admitted: Arc<[LogRecord]> =
                    if wb.records.iter().all(|r| seg.guard.admits(r.lsn, wb.epoch)) {
                        Arc::clone(&wb.records)
                    } else {
                        wb.records
                            .iter()
                            .filter(|r| seg.guard.admits(r.lsn, wb.epoch))
                            .cloned()
                            .collect()
                    };
                if had_records && admitted.is_empty() {
                    ctx.inc("storage.fenced_batches", 1);
                    let epoch = seg.guard.epoch();
                    ctx.send(
                        from,
                        WriteFenced {
                            segment: wb.segment,
                            batch_end: wb.batch_end,
                            epoch,
                        },
                    );
                    return;
                }
                // Pipelined ack: when every admitted record is already
                // durably present — a retransmission of a batch whose
                // first copy landed, or a chaos-duplicated delivery — the
                // batch needs no new IO. Ack straight away instead of
                // queueing a redundant write behind a possibly-degraded
                // disk (the convoy that turns one slow fsync into a
                // latency tail for every batch behind it). Out-of-order
                // acks are safe by construction: records enter `seg.log`
                // only after their own disk write completed, and the
                // writer's VDL advances only over the gapless durable
                // prefix, so an early ack can never claim durability the
                // SCL math doesn't already support.
                if admitted
                    .iter()
                    .all(|r| r.lsn <= seg.log.scl() || seg.log.get(r.lsn).is_some())
                {
                    ctx.inc_id(ids.fast_acks, 1);
                    let scl = seg.log.scl();
                    ctx.trace_instant(
                        "storage.fast_ack",
                        SpanId::NONE,
                        wb.batch_end.0,
                        wb.segment.pg.0 as u64,
                    );
                    ctx.send(
                        from,
                        WriteAck {
                            segment: wb.segment,
                            batch_end: wb.batch_end,
                            scl,
                        },
                    );
                    return;
                }
                let bytes = aurora_log::codec::batch_wire_size(&admitted);
                let span = ctx.trace_begin(
                    "storage.persist",
                    SpanId::NONE,
                    wb.batch_end.0,
                    wb.segment.pg.0 as u64,
                );
                let tag = self.op(PendingOp::PersistBatch {
                    from,
                    segment: wb.segment,
                    records: admitted,
                    batch_end: wb.batch_end,
                    received_at: ctx.now(),
                    span,
                });
                // Step (2): persist on disk, ack on completion.
                ctx.disk_write(bytes.max(64), tag);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<ReadPageReq>() {
            Ok(req) => {
                ctx.inc_id(ids.page_reads, 1);
                if self.nack_reads {
                    ctx.inc("storage.read_rejected", 1);
                    let scl = self
                        .segments
                        .get(&req.segment)
                        .map_or(Lsn::ZERO, |s| s.log.scl());
                    ctx.send(
                        from,
                        ReadPageNack {
                            req_id: req.req_id,
                            segment: req.segment,
                            scl,
                        },
                    );
                    return;
                }
                let Some(seg) = self.segments.get(&req.segment) else {
                    // not hosted (repair in progress): nack so the engine
                    // redirects immediately instead of waiting out the
                    // read timeout
                    ctx.inc("storage.read_rejected", 1);
                    ctx.send(
                        from,
                        ReadPageNack {
                            req_id: req.req_id,
                            segment: req.segment,
                            scl: Lsn::ZERO,
                        },
                    );
                    return;
                };
                // The engine directs reads only to segments it knows are
                // complete (§4.2.3), so serving is the default. Reject only
                // when this segment *knows* it has a hole below the read
                // point (stranded records past a gap) — the nack redirects
                // the engine to a complete peer and refreshes its SCL map.
                if seg.log.has_gap()
                    && seg.log.scl() < req.read_point
                    && seg.applied_upto < req.read_point
                {
                    ctx.inc("storage.read_rejected", 1);
                    let scl = seg.log.scl().max(seg.applied_upto);
                    ctx.send(
                        from,
                        ReadPageNack {
                            req_id: req.req_id,
                            segment: req.segment,
                            scl,
                        },
                    );
                    return;
                }
                let tag = self.op(PendingOp::ReadPage {
                    from,
                    req_id: req.req_id,
                    segment: req.segment,
                    page: req.page,
                    read_point: req.read_point,
                });
                ctx.disk_read(aurora_log::PAGE_SIZE, tag);
                return;
            }
            Err(m) => m,
        };
        // Background / control path.
        let msg = match msg.downcast::<GossipPull>() {
            Ok(pull) => {
                if let Some(seg) = self.segment_for_pg(pull.pg) {
                    let my_scl = seg.log.scl();
                    if my_scl > pull.scl {
                        if pull.scl < seg.gc_floor {
                            // The chain link the puller needs is GC'd out
                            // of our log: incremental gossip can never
                            // advance its SCL. Ship a full catch-up copy
                            // (the repair mechanism, §2.3) instead.
                            ctx.inc("storage.catchup_copies", 1);
                            let resp = Self::full_copy(seg, pull.segment, true);
                            ctx.send(from, resp);
                            return;
                        }
                        let mut records = seg.log.range(pull.scl, my_scl);
                        records.truncate(self.cfg.gossip_batch_limit);
                        if !records.is_empty() {
                            ctx.inc("storage.gossip_served", records.len() as u64);
                            ctx.send(
                                from,
                                GossipPush {
                                    pg: pull.pg,
                                    records: records.into(),
                                    epoch: seg.guard.epoch(),
                                },
                            );
                        }
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<GossipPush>() {
            Ok(push) => {
                let Some(segment) = self.segment_id_for_pg(push.pg) else {
                    return; // we no longer host this PG
                };
                let seg = self.segments.get_mut(&segment).expect("just looked up");
                let admitted: Arc<[LogRecord]> = if push
                    .records
                    .iter()
                    .all(|r| seg.guard.admits(r.lsn, push.epoch))
                {
                    Arc::clone(&push.records)
                } else {
                    push.records
                        .iter()
                        .filter(|r| seg.guard.admits(r.lsn, push.epoch))
                        .cloned()
                        .collect()
                };
                if !admitted.is_empty() {
                    let bytes = aurora_log::codec::batch_wire_size(&admitted);
                    let tag = self.op(PendingOp::PersistGossip {
                        segment,
                        records: admitted,
                    });
                    ctx.disk_write(bytes, tag);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SegmentStateReq>() {
            Ok(req) => {
                // an unknown segment is an empty segment: recovery must be
                // able to establish that a PG was simply never written
                let (scl, highest, epoch, vdl) = match self.segments.get(&req.segment) {
                    Some(seg) => (
                        seg.log.scl().max(seg.applied_upto),
                        seg.log.highest().max(seg.applied_upto),
                        seg.guard.epoch(),
                        seg.vdl_hint,
                    ),
                    None => (Lsn::ZERO, Lsn::ZERO, Default::default(), Lsn::ZERO),
                };
                ctx.send(
                    from,
                    SegmentStateResp {
                        segment: req.segment,
                        scl,
                        highest,
                        epoch,
                        vdl,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CplBelowReq>() {
            Ok(req) => {
                let cpl = self
                    .segments
                    .get(&req.segment)
                    .and_then(|seg| {
                        seg.log
                            .iter()
                            .filter(|r| r.is_cpl && r.lsn <= req.at)
                            .map(|r| r.lsn)
                            .last()
                    })
                    .unwrap_or(Lsn::ZERO);
                ctx.send(
                    from,
                    CplBelowResp {
                        segment: req.segment,
                        cpl,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<TxnScanReq>() {
            Ok(req) => {
                use aurora_log::RecordBody;
                let mut begun = Vec::new();
                let mut finished = Vec::new();
                if let Some(seg) = self.segments.get(&req.segment) {
                    for r in seg.log.iter().filter(|r| r.lsn <= req.upto) {
                        match r.body {
                            RecordBody::TxnBegin => begun.push(r.txn),
                            RecordBody::TxnCommit | RecordBody::TxnAbort => finished.push(r.txn),
                            _ => {}
                        }
                    }
                }
                ctx.send(
                    from,
                    TxnScanResp {
                        segment: req.segment,
                        begun,
                        finished,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<UndoScanReq>() {
            Ok(req) => {
                let records: Vec<LogRecord> = self
                    .segments
                    .get(&req.segment)
                    .map(|seg| {
                        seg.log
                            .iter()
                            .filter(|r| r.lsn <= req.upto && req.txns.contains(&r.txn))
                            .cloned()
                            .collect()
                    })
                    .unwrap_or_default();
                ctx.send(
                    from,
                    UndoScanResp {
                        segment: req.segment,
                        records,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Truncate>() {
            Ok(t) => {
                let _ = self
                    .segments
                    .entry(t.segment)
                    .or_insert_with(SegmentState::new);
                let tag = self.op(PendingOp::PersistTruncate {
                    from,
                    segment: t.segment,
                    range: t.range,
                });
                ctx.disk_write(64, tag);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SegmentPeers>() {
            Ok(sp) => {
                let seg = self
                    .segments
                    .entry(sp.segment)
                    .or_insert_with(SegmentState::new);
                seg.peers = sp.peers;
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RepairFetchReq>() {
            Ok(req) => {
                if let Some(seg) = self.segments.get(&req.src_segment) {
                    ctx.inc("storage.repair_served", 1);
                    let resp = Self::full_copy(seg, req.dest_segment, false);
                    ctx.send(req.dest, resp);
                }
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<RepairFetchResp>() {
            Ok(resp) => {
                let bytes = aurora_sim::Payload::wire_size(&resp);
                let tag = self.op(PendingOp::PersistRepair {
                    segment: resp.segment,
                    pages: resp.pages,
                    records: resp.records,
                    applied_upto: resp.applied_upto,
                    guard_epoch: resp.guard_epoch,
                    guard_range: resp.guard_range,
                    scl: resp.scl,
                    gc_floor: resp.gc_floor,
                    catch_up: resp.catch_up,
                });
                ctx.disk_write(bytes, tag);
            }
            Err(_) => {
                // Unknown message: ignore (forward compatibility).
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
                let seg = self
                    .segments
                    .entry(segment)
                    .or_insert_with(SegmentState::new);
                let before = seg.log.scl();
                for r in records.iter() {
                    seg.ingest(r.clone());
                }
                let scl = seg.log.scl();
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
                let seg = self
                    .segments
                    .entry(segment)
                    .or_insert_with(SegmentState::new);
                let before = seg.log.scl();
                let mut n = 0;
                for r in records.iter() {
                    if seg.ingest(r.clone()) {
                        n += 1;
                    }
                }
                let scl = seg.log.scl();
                if n > 0 {
                    ctx.trace_instant("storage.gossip_fill", SpanId::NONE, n, segment.pg.0 as u64);
                }
                if scl > before {
                    ctx.trace_instant("wm.scl", SpanId::NONE, scl.0, segment.pg.0 as u64);
                }
                ctx.inc_id(ids.gossip_filled, n);
            }
            PendingOp::ReadPage {
                from,
                req_id,
                segment,
                page,
                read_point,
            } => {
                if let Some(seg) = self.segments.get_mut(&segment) {
                    let read_point = if self.serve_future {
                        Lsn(u64::MAX)
                    } else {
                        read_point
                    };
                    let image = seg.materialize_cached(page, read_point);
                    ctx.send(
                        from,
                        ReadPageResp {
                            req_id,
                            segment,
                            page_id: page,
                            page: image,
                        },
                    );
                }
            }
            PendingOp::PersistTruncate {
                from,
                segment,
                range,
            } => {
                if let Some(seg) = self.segments.get_mut(&segment) {
                    seg.truncate(range);
                    let scl = seg.log.scl();
                    // post-truncation completeness: the timeline must show
                    // the SCL resetting, not only advancing
                    ctx.trace_instant("wm.scl", SpanId::NONE, scl.0, segment.pg.0 as u64);
                    ctx.send(
                        from,
                        TruncateAck {
                            segment,
                            epoch: range.epoch,
                            scl,
                        },
                    );
                }
            }
            PendingOp::PersistRepair {
                segment,
                pages,
                records,
                applied_upto,
                guard_epoch,
                guard_range,
                scl,
                gc_floor,
                catch_up,
            } => {
                if catch_up {
                    // Gossip catch-up: this member fell behind the donor's
                    // GC horizon, so the missing chain prefix can never be
                    // refilled record-by-record. Merge the donor's copy
                    // into the *existing* segment — never replace it: a
                    // wholesale install could drop records this node acked
                    // after the donor took its snapshot, a durability
                    // break.
                    let Some(seg) = self.segments.get_mut(&segment) else {
                        return;
                    };
                    if let Some(range) = guard_range {
                        // Applies a missed recovery truncation (and its
                        // chop) if the donor's epoch is newer; idempotent
                        // no-op if we already hold the same range.
                        seg.truncate(range);
                    }
                    for r in records.iter() {
                        seg.ingest(r.clone());
                    }
                    for (id, p) in pages {
                        let mine = seg.pages.entry(id).or_default();
                        if p.lsn > mine.lsn {
                            *mine = p;
                        }
                    }
                    // The donor certified completeness through its SCL;
                    // local records above it may now chain further.
                    seg.log.adopt_scl(scl);
                    if applied_upto > seg.applied_upto {
                        seg.applied_upto = applied_upto;
                    }
                    if gc_floor > seg.gc_floor {
                        seg.gc_floor = gc_floor;
                    }
                    ctx.trace_instant(
                        "storage.catchup_install",
                        SpanId::NONE,
                        scl.0,
                        segment.pg.0 as u64,
                    );
                    ctx.inc("storage.catchups_installed", 1);
                } else {
                    let mut seg = SegmentState::new();
                    // Adopt the donor's truncation guard *before*
                    // ingesting: a fresh guard at epoch 0 would both admit
                    // records the donor's recovery annulled and leave the
                    // new replica fenceable by a stale pre-recovery
                    // truncation.
                    if let Some(range) = guard_range {
                        seg.guard.offer(range);
                    }
                    debug_assert_eq!(seg.guard.epoch(), guard_epoch);
                    for (id, p) in pages {
                        seg.pages.insert(id, p);
                    }
                    for r in records.iter() {
                        seg.ingest(r.clone());
                    }
                    // Completeness below the donor's GC floor cannot be
                    // re-derived from the shipped records (the chain links
                    // are gone); the donor's SCL is adopted as a certified
                    // floor.
                    seg.log.adopt_scl(scl);
                    seg.applied_upto = applied_upto;
                    seg.gc_floor = gc_floor;
                    self.segments.insert(segment, seg);
                    ctx.trace_instant(
                        "storage.repair_install",
                        SpanId::NONE,
                        scl.0,
                        segment.pg.0 as u64,
                    );
                    ctx.inc("storage.repairs_installed", 1);
                    if let Some(control) = self.cfg.control {
                        ctx.send(control, RepairDone { segment });
                    }
                }
            }
            PendingOp::Background => {}
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
                                scl: seg.log.scl(),
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
                if !self.busy() {
                    let mut total_applied = 0usize;
                    let mut total_dirty = 0usize;
                    let mut total_gc = 0usize;
                    let archiving = self.cfg.store.is_some();
                    for seg in self.segments.values_mut() {
                        let (applied, dirty) = seg.coalesce();
                        total_applied += applied;
                        total_dirty += dirty;
                        total_gc += seg.gc(archiving.then_some(seg.archived_upto));
                    }
                    if total_dirty > 0 {
                        // Background page materialization IO (never on the
                        // foreground path).
                        let tag = self.op(PendingOp::Background);
                        ctx.disk_write(total_dirty * aurora_log::PAGE_SIZE, tag);
                    }
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
                            let upto = seg.applied_upto.max(seg.log.scl());
                            let records: Vec<LogRecord> = seg.log.range(seg.archived_upto, upto);
                            let snapshot = seg.backup_count % self.cfg.snapshot_every.max(1) == 0;
                            if records.is_empty() && !snapshot {
                                continue;
                            }
                            let pages = if snapshot {
                                seg.pages.iter().map(|(k, v)| (*k, v.clone())).collect()
                            } else {
                                Vec::new()
                            };
                            store.put(SegmentBackup {
                                segment: *id,
                                pages,
                                snapshot_lsn: seg.applied_upto,
                                records,
                            });
                            seg.archived_upto = upto;
                            seg.backup_count += 1;
                            ctx.inc("storage.backups", 1);
                        }
                    }
                }
                ctx.set_timer(self.cfg.backup_interval, TAG_BACKUP);
            }
            TAG_SCRUB => {
                if !self.busy() {
                    let mut pages = 0u64;
                    let mut records = 0u64;
                    let mut scratch = Vec::new();
                    for seg in self.segments.values() {
                        for p in seg.pages.values() {
                            let _ = p.crc();
                            pages += 1;
                        }
                        // validate the codec on a sample of records,
                        // reusing one scratch buffer across segments
                        if let Some(r) = seg.log.iter().next() {
                            let buf = codec::encode_scratch(r, &mut scratch);
                            debug_assert!(codec::decode(buf).is_ok());
                            records += 1;
                        }
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
    }
}
