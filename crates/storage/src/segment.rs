//! One storage segment and its decisions.
//!
//! A [`Segment`] is one replica of a protection group as a storage node
//! keeps it: the log, the materialized pages, the truncation guard and the
//! watermarks the writer piggybacks. It is a plain struct with no `Ctx` and
//! no simulator. Each handler takes a wire message and returns what the
//! node should do: a wire reply to send (`WriteAck`, `WriteFenced`,
//! `EpochBehind`, `ReadPageNack`, the recovery responses) or records to
//! persist. The actor shell in [`crate::node`] owns timers, the disk,
//! metrics and traces, and carries the answers out.

use std::collections::VecDeque;
use std::sync::Arc;

use aurora_log::{apply_record, codec, LogRecord, Lsn, Page, PageId, SegmentId, SegmentLog};
use aurora_quorum::epoch::GuardOutcome;
use aurora_quorum::{TruncationGuard, TruncationRange, VolumeEpoch};
use aurora_sim::hash::{FxHashMap, FxHashSet};
use aurora_sim::NodeId;

use crate::object_store::SegmentBackup;
use crate::wire::*;

/// Per-segment cap on cached materialized page images.
const MAT_CACHE_PAGES: usize = 64;

/// Durable per-segment state (survives a node crash).
#[derive(Default)]
pub(crate) struct Segment {
    /// Private: `page_index` and `mat_cache` must follow every change.
    log: SegmentLog,
    /// Materialized pages — "simply a cache of log applications" (§3.2),
    /// but durable on this node's disk.
    pages: FxHashMap<PageId, Page>,
    /// Per-page LSN index into the log, for on-demand materialization.
    page_index: FxHashMap<PageId, Vec<Lsn>>,
    pub(crate) guard: TruncationGuard,
    /// All records at or below this have been coalesced into `pages`.
    applied_upto: Lsn,
    /// Piggybacked watermarks from the writer.
    vdl_hint: Lsn,
    pgmrpl_hint: Lsn,
    /// Gossip peers (the PG's other five replicas).
    pub(crate) peers: Vec<NodeId>,
    /// Backup bookkeeping.
    archived_upto: Lsn,
    backup_count: u32,
    /// Records at or below this were GC'd out of the log; gossip cannot
    /// serve a peer whose SCL is below it (the chain link is gone) — such
    /// a peer needs a full catch-up copy instead.
    pub(crate) gc_floor: Lsn,
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

/// What a `WriteBatch` asks of the node.
#[derive(Debug)]
pub(crate) enum Write {
    /// The writer is at a newer epoch than this segment's guard.
    Behind(EpochBehind),
    /// Every record is fenced: a zombie writer must step down.
    Fenced(WriteFenced),
    /// Every admitted record is already durable: ack without new IO.
    Ack(WriteAck),
    /// Persist these records, then ack.
    Persist(Arc<[LogRecord]>),
}

/// How a segment answers a peer's gossip pull.
#[derive(Debug)]
pub(crate) enum Gossip {
    /// The records the puller is missing, up to the batch limit.
    Push(GossipPush),
    /// The puller is behind our GC floor: a full copy to merge.
    CatchUp(RepairFetchResp),
}

impl Segment {
    pub(crate) fn log(&self) -> &SegmentLog {
        &self.log
    }

    /// Fig. 4 steps (1)–(2) for a writer's batch, in order: a batch from
    /// a newer epoch means this segment missed a recovery's truncation;
    /// a batch whose every record is fenced is a zombie's; a batch whose
    /// admitted records are all durable already (a retransmission, a
    /// duplicated delivery) acks at once; anything else is persisted.
    pub(crate) fn write(&mut self, wb: &WriteBatch) -> Write {
        if wb.pgmrpl > self.pgmrpl_hint {
            self.pgmrpl_hint = wb.pgmrpl;
        }
        let epoch = self.guard.epoch();
        // Ingesting now would be unsound: records annulled by the missed
        // recovery may still be in our log, and new-epoch LSNs can sit at
        // or below our stale SCL, where `SegmentLog::insert` silently
        // ignores them — we would acknowledge data we did not store. Ask
        // the writer for the truncation range instead; the batch comes
        // back via its retransmission path.
        if wb.epoch > epoch {
            return Write::Behind(EpochBehind {
                segment: wb.segment,
                epoch,
            });
        }
        // Recovery trusts this hint: everything at or below it reached a
        // write quorum. A zombie writer's VDL may cover records our
        // truncation annulled, so only a writer of the current epoch
        // moves it.
        if wb.epoch == epoch && wb.vdl > self.vdl_hint {
            self.vdl_hint = wb.vdl;
        }
        let admitted = self.admit(&wb.records, wb.epoch);
        // A fenced batch is NOT acknowledged — the stale writer must never
        // assemble a quorum — and the rejection tells it to step down.
        if !wb.records.is_empty() && admitted.is_empty() {
            return Write::Fenced(WriteFenced {
                segment: wb.segment,
                batch_end: wb.batch_end,
                epoch,
            });
        }
        // Acking early instead of queueing a redundant write behind a
        // possibly-degraded disk avoids the convoy that turns one slow
        // fsync into a latency tail for every batch behind it. It is safe:
        // records enter the log only after their own disk write completed,
        // and the writer's VDL advances only over the gapless durable
        // prefix, so an early ack never claims durability the SCL math
        // does not already support.
        let scl = self.log.scl();
        if admitted
            .iter()
            .all(|r| r.lsn <= scl || self.log.get(r.lsn).is_some())
        {
            return Write::Ack(WriteAck {
                segment: wb.segment,
                batch_end: wb.batch_end,
                scl,
            });
        }
        Write::Persist(admitted)
    }

    /// The truncation guard's filter, shared by writer batches and gossip:
    /// the records a sender at `epoch` may still land here. In the common
    /// case every record passes and the sender's slice is shared, never
    /// copied.
    pub(crate) fn admit(&self, records: &Arc<[LogRecord]>, epoch: VolumeEpoch) -> Arc<[LogRecord]> {
        if records.iter().all(|r| self.guard.admits(r.lsn, epoch)) {
            Arc::clone(records)
        } else {
            records
                .iter()
                .filter(|r| self.guard.admits(r.lsn, epoch))
                .cloned()
                .collect()
        }
    }

    /// Store records whose disk write completed. Returns how many were new.
    pub(crate) fn ingest(&mut self, records: &[LogRecord]) -> u64 {
        let mut new = 0;
        for r in records {
            if self.ingest_one(r.clone()) {
                new += 1;
            }
        }
        new
    }

    fn ingest_one(&mut self, rec: LogRecord) -> bool {
        let page = rec.page();
        let lsn = rec.lsn;
        if !self.log.insert(rec) {
            return false;
        }
        if let Some(p) = page {
            // Keep the index LSN-sorted: gossip and retransmissions fill
            // holes out of arrival order, and materialization must apply
            // records in LSN order.
            let idx = self.page_index.entry(p).or_default();
            if let Err(pos) = idx.binary_search(&lsn) {
                idx.insert(pos, lsn);
            }
            // A new record can land *below* a cached image's LSN (a
            // gossip-filled hole), which the image silently lacks — drop
            // the entry rather than track chain completeness.
            self.mat_cache.remove(&p);
        }
        true
    }

    /// The read decision: `None` serves the page, `Some` refuses it with
    /// the SCL the engine should record. A segment not hosted here (repair
    /// in progress) refuses with SCL 0, so the engine redirects at once
    /// instead of waiting out its read timeout; `refuse_all` is the
    /// nack-every-read fault hook. Otherwise the engine directs reads only
    /// to segments it knows are complete (§4.2.3), so a segment refuses
    /// only when it *knows* it has a hole below the read point.
    pub(crate) fn read_nack(
        seg: Option<&Segment>,
        req: &ReadPageReq,
        refuse_all: bool,
    ) -> Option<ReadPageNack> {
        let scl = match seg {
            None => Lsn::ZERO,
            Some(s) if refuse_all => s.log.scl(),
            Some(s)
                if s.log.has_gap()
                    && s.log.scl() < req.read_point
                    && s.applied_upto < req.read_point =>
            {
                s.log.scl().max(s.applied_upto)
            }
            Some(_) => return None,
        };
        Some(ReadPageNack {
            req_id: req.req_id,
            segment: req.segment,
            scl,
        })
    }

    /// Serve a page read whose disk read completed.
    pub(crate) fn serve(&mut self, req: &ReadPageReq) -> ReadPageResp {
        ReadPageResp {
            req_id: req.req_id,
            segment: req.segment,
            page_id: req.page,
            page: self.materialize_cached(req.page, req.read_point),
        }
    }

    /// Materialize a page image as of `read_point` (pure; used by the
    /// inspection hooks and as the cache's compute path).
    pub(crate) fn materialize(&self, page_id: PageId, read_point: Lsn) -> Page {
        let page = self.pages.get(&page_id).cloned().unwrap_or_default();
        self.materialize_from(page, page_id, read_point)
    }

    /// Roll `page` forward through the indexed records in
    /// `(page.lsn, read_point]`, seeking with `partition_point` instead of
    /// scanning the whole per-page history. A read point below the page's
    /// coalesced base gets the base unchanged (what it gets anyway once GC
    /// has pruned the records in between).
    fn materialize_from(&self, mut page: Page, page_id: PageId, read_point: Lsn) -> Page {
        if let Some(lsns) = self.page_index.get(&page_id) {
            // index is kept LSN-sorted by `ingest_one`
            let start = lsns.partition_point(|&l| l <= page.lsn);
            let end = lsns.partition_point(|&l| l <= read_point).max(start);
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
    /// forward instead of re-applying the whole history. With no indexed
    /// record in (base LSN, `read_point`] the coalesced base is the image:
    /// it is returned as is, sharing its bytes, and not cached.
    fn materialize_cached(&mut self, page_id: PageId, read_point: Lsn) -> Page {
        let base = self.pages.get(&page_id).cloned().unwrap_or_default();
        let newest = self.page_index.get(&page_id).and_then(|lsns| {
            let end = lsns.partition_point(|&l| l <= read_point);
            end.checked_sub(1).map(|i| lsns[i])
        });
        let want = match newest {
            Some(lsn) if lsn > base.lsn => lsn,
            _ => return base,
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

    /// Answer a peer's gossip pull (Fig. 4 step 4): the records in
    /// `(pull.scl, our SCL]`, cloning only the `limit` that go out. A
    /// puller below our GC floor needs a chain link we no longer hold, so
    /// incremental gossip could never advance its SCL: it gets a full
    /// catch-up copy (the repair mechanism, §2.3) instead.
    pub(crate) fn gossip(&self, pull: &GossipPull, limit: usize) -> Option<Gossip> {
        let scl = self.log.scl();
        if scl <= pull.scl {
            return None;
        }
        if pull.scl < self.gc_floor {
            return Some(Gossip::CatchUp(self.full_copy(pull.segment, true)));
        }
        let records: Arc<[LogRecord]> = self
            .log
            .range_iter(pull.scl, scl)
            .take(limit)
            .cloned()
            .collect();
        (!records.is_empty()).then(|| {
            Gossip::Push(GossipPush {
                pg: pull.pg,
                records,
                epoch: self.guard.epoch(),
            })
        })
    }

    /// A full segment copy for repair (`catch_up == false`) or gossip
    /// catch-up of a member stranded behind the GC horizon (`true`).
    pub(crate) fn full_copy(&self, dest_segment: SegmentId, catch_up: bool) -> RepairFetchResp {
        RepairFetchResp {
            segment: dest_segment,
            pages: self.page_copies(),
            records: self.log.iter().cloned().collect(),
            applied_upto: self.applied_upto,
            guard_epoch: self.guard.epoch(),
            guard_range: self.guard.range(),
            scl: self.log.scl(),
            gc_floor: self.gc_floor,
            catch_up,
        }
    }

    fn page_copies(&self) -> Vec<(PageId, Page)> {
        self.pages.iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    /// Merge a donor's full copy. The only install path: a repair merges
    /// into an empty segment and replaces the old one wholesale; a gossip
    /// catch-up merges into the live segment and never replaces it, since
    /// a wholesale install could drop records this node acked after the
    /// donor took its copy — a durability break.
    pub(crate) fn install(&mut self, copy: RepairFetchResp) {
        // Adopt the donor's truncation before ingesting: a fresh guard at
        // epoch 0 would both admit records the donor's recovery annulled
        // and leave the segment fenceable by a stale pre-recovery
        // truncation. A live segment applies a recovery it missed (and its
        // chop); one that already holds the range is left alone.
        if let Some(range) = copy.guard_range {
            self.offer_truncation(range);
        }
        debug_assert!(self.guard.epoch() >= copy.guard_epoch);
        self.ingest(&copy.records);
        for (id, p) in copy.pages {
            let mine = self.pages.entry(id).or_default();
            if p.lsn > mine.lsn {
                *mine = p;
            }
        }
        // Completeness below the donor's GC floor cannot be re-derived
        // from the shipped records (the chain links are gone): the
        // donor's SCL is a certified floor, and local records above it
        // may now chain further.
        self.log.adopt_scl(copy.scl);
        self.applied_upto = self.applied_upto.max(copy.applied_upto);
        self.gc_floor = self.gc_floor.max(copy.gc_floor);
    }

    /// §4.3 recovery, phase 1: this segment's completeness and epoch.
    pub(crate) fn state(&self, req: &SegmentStateReq) -> SegmentStateResp {
        SegmentStateResp {
            segment: req.segment,
            scl: self.log.scl().max(self.applied_upto),
            highest: self.log.highest().max(self.applied_upto),
            epoch: self.guard.epoch(),
            vdl: self.vdl_hint,
        }
    }

    /// Phase 2: the highest CPL at or below the VCL.
    pub(crate) fn cpl_below(&self, req: &CplBelowReq) -> CplBelowResp {
        let cpl = self
            .log
            .iter()
            .filter(|r| r.is_cpl && r.lsn <= req.at)
            .map(|r| r.lsn)
            .last()
            .unwrap_or(Lsn::ZERO);
        CplBelowResp {
            segment: req.segment,
            cpl,
        }
    }

    /// Phase 4a: which transactions began and which finished.
    pub(crate) fn txn_scan(&self, req: &TxnScanReq) -> TxnScanResp {
        use aurora_log::RecordBody;
        let mut begun = Vec::new();
        let mut finished = Vec::new();
        for r in self.log.iter().filter(|r| r.lsn <= req.upto) {
            match r.body {
                RecordBody::TxnBegin => begun.push(r.txn),
                RecordBody::TxnCommit | RecordBody::TxnAbort => finished.push(r.txn),
                _ => {}
            }
        }
        TxnScanResp {
            segment: req.segment,
            begun,
            finished,
        }
    }

    /// Phase 4b: the in-flight transactions' records, for undo.
    pub(crate) fn undo_scan(&self, req: &UndoScanReq) -> UndoScanResp {
        UndoScanResp {
            segment: req.segment,
            records: self
                .log
                .iter()
                .filter(|r| r.lsn <= req.upto && req.txns.contains(&r.txn))
                .cloned()
                .collect(),
        }
    }

    /// Phase 3: apply a durable truncation and report the SCL it leaves.
    pub(crate) fn truncate(&mut self, t: &Truncate) -> TruncateAck {
        self.offer_truncation(t.range);
        TruncateAck {
            segment: t.segment,
            epoch: t.range.epoch,
            scl: self.log.scl(),
        }
    }

    fn offer_truncation(&mut self, range: TruncationRange) {
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
    pub(crate) fn drop_above(&mut self, above: Lsn) {
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

    /// Coalesce (Fig. 4 step 5): fold records up to min(SCL, VDL) into the
    /// materialized pages. Returns (records applied, dirty pages).
    pub(crate) fn coalesce(&mut self) -> (usize, usize) {
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
                // AlreadyApplied and malformed records leave the page as is
                if apply_record(pages.entry(page_id).or_default(), rec).is_ok() {
                    applied += 1;
                    dirty.insert(page_id);
                }
            }
        }
        self.applied_upto = target;
        (applied, dirty.len())
    }

    /// GC (Fig. 4 step 7): drop log below min(PGMRPL, applied point), and,
    /// while backups run, never beyond what the archiver has staged to the
    /// object store — continuous backup must see every record.
    pub(crate) fn gc(&mut self, archiving: bool) -> usize {
        let mut upto = self.pgmrpl_hint.min(self.applied_upto);
        if archiving {
            upto = upto.min(self.archived_upto);
        }
        // Every index entry is a held record, so the pages of the records
        // at or below `upto` are the only ones with entries to prune.
        let touched: Vec<PageId> = self
            .log
            .iter()
            .take_while(|r| r.lsn <= upto)
            .filter_map(LogRecord::page)
            .collect();
        let dropped = self.log.gc_upto(upto);
        if dropped > 0 {
            if upto > self.gc_floor {
                self.gc_floor = upto;
            }
            for page in touched {
                if let Some(lsns) = self.page_index.get_mut(&page) {
                    lsns.drain(..lsns.partition_point(|l| *l <= upto));
                    if lsns.is_empty() {
                        self.page_index.remove(&page);
                    }
                }
            }
        }
        dropped
    }

    /// Stage to the object store (Fig. 4 step 6): the log since the last
    /// increment and, every `snapshot_every`-th increment, a full page
    /// snapshot. `None` when there is nothing to stage.
    pub(crate) fn backup(
        &mut self,
        segment: SegmentId,
        snapshot_every: u32,
    ) -> Option<SegmentBackup> {
        let upto = self.applied_upto.max(self.log.scl());
        let records: Vec<LogRecord> = self
            .log
            .range_iter(self.archived_upto, upto)
            .cloned()
            .collect();
        let snapshot = self.backup_count.is_multiple_of(snapshot_every.max(1));
        if records.is_empty() && !snapshot {
            return None;
        }
        let pages = if snapshot {
            self.page_copies()
        } else {
            Vec::new()
        };
        self.archived_upto = upto;
        self.backup_count += 1;
        Some(SegmentBackup {
            segment,
            pages,
            snapshot_lsn: self.applied_upto,
            records,
        })
    }

    /// Scrub (Fig. 4 step 8): check every page's CRC and validate the codec
    /// on one sample record, reusing the caller's scratch buffer. Returns
    /// (pages, records) checked.
    pub(crate) fn scrub(&self, scratch: &mut Vec<u8>) -> (u64, u64) {
        for p in self.pages.values() {
            let _ = p.crc();
        }
        let records = match self.log.iter().next() {
            Some(r) => {
                let buf = codec::encode_scratch(r, scratch);
                debug_assert!(codec::decode(buf).is_ok());
                1
            }
            None => 0,
        };
        (self.pages.len() as u64, records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_log::{PgId, RecordBody, TxnId};
    use aurora_quorum::recovery::{self, SegmentStates};
    use aurora_quorum::{DurabilityTracker, QuorumConfig};
    use bytes::Bytes;

    const PG: PgId = PgId(0);

    fn slot(replica: u8) -> SegmentId {
        SegmentId::new(PG, replica)
    }

    /// A record of PG 0's chain, backlinked to `lsn - 1`, formatting one
    /// of three pages.
    fn rec(lsn: u64) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            prev_in_pg: Lsn(lsn - 1),
            pg: PG,
            txn: TxnId(1),
            is_cpl: true,
            body: RecordBody::PageFormat {
                page: PageId(lsn % 3),
                init: Bytes::from(vec![lsn as u8; 8]),
            },
        }
    }

    fn chain(lsns: impl IntoIterator<Item = u64>) -> Arc<[LogRecord]> {
        lsns.into_iter().map(rec).collect()
    }

    fn batch(records: Arc<[LogRecord]>, epoch: u64, vdl: Lsn) -> WriteBatch {
        WriteBatch {
            segment: slot(0),
            batch_end: records.last().map_or(Lsn::ZERO, |r| r.lsn),
            records,
            epoch: VolumeEpoch(epoch),
            vdl,
            pgmrpl: Lsn::ZERO,
        }
    }

    /// Deliver `wb`, complete the disk write it asks for, and return the
    /// ack the node would send.
    fn persist(seg: &mut Segment, wb: &WriteBatch) -> WriteAck {
        match seg.write(wb) {
            Write::Persist(records) => {
                seg.ingest(&records);
                WriteAck {
                    segment: wb.segment,
                    batch_end: wb.batch_end,
                    scl: seg.log.scl(),
                }
            }
            other => panic!("expected a persist, got {other:?}"),
        }
    }

    fn truncation(epoch: u64, above: u64, ceiling: u64) -> Truncate {
        Truncate {
            segment: slot(0),
            range: TruncationRange {
                epoch: VolumeEpoch(epoch),
                above: Lsn(above),
                ceiling: Lsn(ceiling),
            },
        }
    }

    fn lsns(records: &[LogRecord]) -> Vec<u64> {
        records.iter().map(|r| r.lsn.0).collect()
    }

    #[test]
    fn an_all_admitted_batch_shares_the_senders_slice() {
        let mut seg = Segment::default();
        let wb = batch(chain(1..=3), 0, Lsn::ZERO);
        match seg.write(&wb) {
            Write::Persist(records) => assert!(Arc::ptr_eq(&records, &wb.records)),
            other => panic!("expected a persist, got {other:?}"),
        }
    }

    #[test]
    fn a_mixed_batch_is_filtered_by_the_guard() {
        let mut seg = Segment::default();
        seg.truncate(&truncation(1, 2, 5));
        // a zombie at epoch 0: 4 and 5 were annulled, 6 and 7 were not
        let wb = batch(chain(4..=7), 0, Lsn::ZERO);
        match seg.write(&wb) {
            Write::Persist(records) => {
                assert_eq!(lsns(&records), [6, 7]);
                assert!(!Arc::ptr_eq(&records, &wb.records));
            }
            other => panic!("expected a persist, got {other:?}"),
        }
        // gossip shares the same filter
        let admitted = seg.admit(&wb.records, VolumeEpoch(0));
        assert_eq!(lsns(&admitted), [6, 7]);
        assert!(Arc::ptr_eq(
            &seg.admit(&wb.records, VolumeEpoch(1)),
            &wb.records
        ));
    }

    #[test]
    fn an_all_fenced_batch_yields_write_fenced() {
        let mut seg = Segment::default();
        seg.truncate(&truncation(1, 2, 5));
        match seg.write(&batch(chain(3..=5), 0, Lsn(5))) {
            Write::Fenced(f) => {
                assert_eq!((f.batch_end, f.epoch), (Lsn(5), VolumeEpoch(1)));
            }
            other => panic!("expected a fence, got {other:?}"),
        }
        // a zombie's VDL never becomes the recovery hint
        assert_eq!(seg.vdl_hint, Lsn::ZERO);
    }

    #[test]
    fn a_newer_epoch_yields_epoch_behind() {
        let mut seg = Segment::default();
        let mut wb = batch(chain(1..=2), 2, Lsn(2));
        wb.pgmrpl = Lsn(1);
        match seg.write(&wb) {
            Write::Behind(b) => assert_eq!(b.epoch, VolumeEpoch(0)),
            other => panic!("expected epoch-behind, got {other:?}"),
        }
        assert_eq!(seg.pgmrpl_hint, Lsn(1), "the GC bound is taken anyway");
        assert_eq!(seg.vdl_hint, Lsn::ZERO, "the VDL hint is not");
        assert!(seg.log.is_empty());
    }

    #[test]
    fn an_already_durable_batch_acks_at_once_with_the_scl() {
        let mut seg = Segment::default();
        persist(&mut seg, &batch(chain(1..=3), 0, Lsn::ZERO));
        persist(&mut seg, &batch(chain([5]), 0, Lsn::ZERO));
        assert_eq!(seg.log.scl(), Lsn(3));
        // a re-shipped batch below the SCL, and one stranded above a hole
        for lsns in [vec![2, 3], vec![5]] {
            match seg.write(&batch(chain(lsns), 0, Lsn::ZERO)) {
                Write::Ack(ack) => assert_eq!(ack.scl, Lsn(3)),
                other => panic!("expected a fast ack, got {other:?}"),
            }
        }
        // one new record is enough to need the disk
        assert!(matches!(
            seg.write(&batch(chain([4, 5]), 0, Lsn::ZERO)),
            Write::Persist(_)
        ));
    }

    #[test]
    fn a_read_above_a_known_hole_nacks_with_the_higher_watermark() {
        let mut seg = Segment::default();
        persist(&mut seg, &batch(chain([1, 2, 5]), 0, Lsn::ZERO));
        assert_eq!(seg.log.scl(), Lsn(2));
        seg.applied_upto = Lsn(3);
        let req = |read_point| ReadPageReq {
            req_id: 9,
            segment: slot(0),
            page: PageId(1),
            read_point: Lsn(read_point),
        };
        let nack = Segment::read_nack(Some(&seg), &req(5), false).expect("a nack");
        assert_eq!((nack.req_id, nack.scl), (9, Lsn(3)));
        assert!(Segment::read_nack(Some(&seg), &req(3), false).is_none());
        // the fault hook refuses everything, with the plain SCL
        let hook = Segment::read_nack(Some(&seg), &req(1), true).expect("a nack");
        assert_eq!(hook.scl, Lsn(2));
        // a segment not hosted here refuses with nothing
        let gone = Segment::read_nack(None, &req(1), false).expect("a nack");
        assert_eq!(gone.scl, Lsn::ZERO);
        // a complete segment serves
        let mut whole = Segment::default();
        persist(&mut whole, &batch(chain(1..=5), 0, Lsn::ZERO));
        assert!(Segment::read_nack(Some(&whole), &req(5), false).is_none());
        let resp = whole.serve(&req(4));
        assert_eq!((resp.page_id, resp.page.lsn), (PageId(1), Lsn(4)));
    }

    /// Everything a segment's answers depend on, comparably.
    #[allow(clippy::type_complexity)]
    fn image(
        s: &Segment,
    ) -> (
        Vec<LogRecord>,
        Lsn,
        Vec<(PageId, Page)>,
        Vec<(PageId, Vec<Lsn>)>,
        (Lsn, Lsn, Option<TruncationRange>),
    ) {
        let mut pages = s.page_copies();
        pages.sort_by_key(|(id, _)| *id);
        let mut index: Vec<_> = s.page_index.iter().map(|(k, v)| (*k, v.clone())).collect();
        index.sort();
        (
            s.log.iter().cloned().collect(),
            s.log.scl(),
            pages,
            index,
            (s.applied_upto, s.gc_floor, s.guard.range()),
        )
    }

    /// A donor that truncated once, coalesced and GC'd a prefix, and holds
    /// a record stranded above a hole.
    fn donor() -> Segment {
        let mut d = Segment::default();
        persist(&mut d, &batch(chain(1..=6), 0, Lsn::ZERO));
        d.truncate(&truncation(1, 4, 8));
        let mut wb = batch(chain([5, 6, 7, 9]), 1, Lsn(6));
        wb.pgmrpl = Lsn(3);
        persist(&mut d, &wb);
        assert_eq!(d.coalesce(), (6, 3));
        assert_eq!(d.gc(false), 3);
        assert_eq!((d.log.scl(), d.gc_floor), (Lsn(7), Lsn(3)));
        d
    }

    #[test]
    fn a_repair_install_equals_a_catch_up_merge_into_an_empty_segment() {
        let d = donor();
        let installed = |catch_up| {
            let mut s = Segment::default();
            s.install(d.full_copy(slot(1), catch_up));
            s
        };
        let (repair, catch_up) = (installed(false), installed(true));
        assert_eq!(image(&repair), image(&catch_up));
        assert_eq!(image(&repair), image(&d));
        assert_eq!(repair.guard.epoch(), VolumeEpoch(1));
    }

    #[test]
    fn a_catch_up_merge_keeps_what_the_donor_lacks() {
        let d = donor();
        let mut live = Segment::default();
        live.truncate(&truncation(1, 4, 8));
        persist(&mut live, &batch(chain([8]), 1, Lsn::ZERO));
        live.install(d.full_copy(slot(1), true));
        assert_eq!(
            lsns(&live.log.iter().cloned().collect::<Vec<_>>()),
            [4, 5, 6, 7, 8, 9]
        );
        assert_eq!(
            live.log.scl(),
            Lsn(9),
            "the certified floor lets 8 and 9 chain"
        );
    }

    #[test]
    fn a_second_delivery_of_the_same_truncation_is_a_no_op() {
        let mut seg = Segment::default();
        persist(&mut seg, &batch(chain(1..=4), 0, Lsn::ZERO));
        let t = truncation(1, 2, 6);
        assert_eq!(seg.truncate(&t).scl, Lsn(2));
        // the new epoch writes inside the range it annulled for epoch 0
        persist(&mut seg, &batch(chain(3..=4), 1, Lsn::ZERO));
        let before = image(&seg);
        let ack = seg.truncate(&t);
        assert_eq!((ack.epoch, ack.scl), (VolumeEpoch(1), Lsn(4)));
        assert_eq!(image(&seg), before);
        // a stale epoch's range is ignored too
        seg.truncate(&truncation(0, 1, 6));
        assert_eq!(image(&seg), before);
    }

    #[test]
    fn gossip_clones_only_what_it_sends() {
        let mut seg = Segment::default();
        persist(&mut seg, &batch(chain(1..=10), 0, Lsn::ZERO));
        let pull = |scl| GossipPull {
            pg: PG,
            scl: Lsn(scl),
            segment: slot(1),
        };
        match seg.gossip(&pull(2), 4) {
            Some(Gossip::Push(p)) => assert_eq!(lsns(&p.records), [3, 4, 5, 6]),
            other => panic!("expected a push, got {other:?}"),
        }
        assert!(seg.gossip(&pull(10), 4).is_none(), "nothing to send");
        seg.gc_floor = Lsn(5);
        assert!(matches!(seg.gossip(&pull(2), 4), Some(Gossip::CatchUp(c)) if c.catch_up));
    }

    #[test]
    fn an_unknown_segment_answers_recovery_as_an_empty_one() {
        let empty = Segment::default();
        let s = empty.state(&SegmentStateReq { segment: slot(2) });
        assert_eq!((s.scl, s.highest, s.epoch, s.vdl), Default::default());
        let c = empty.cpl_below(&CplBelowReq {
            segment: slot(2),
            at: Lsn(9),
        });
        assert_eq!(c.cpl, Lsn::ZERO);
    }

    /// GC prunes the page index only for the pages of the records it
    /// drops. After a truncation, a catch-up install and three GC passes
    /// the index equals a full `retain` over every page, and every entry
    /// is still a held record.
    #[test]
    fn gc_prunes_the_index_as_a_full_retain_would() {
        let mut seg = Segment::default();
        seg.truncate(&truncation(1, 4, 8));
        persist(&mut seg, &batch(chain([8]), 1, Lsn::ZERO));
        seg.install(donor().full_copy(slot(1), true));
        for (lsns, pgmrpl) in [(10..=14, 6), (15..=20, 17), (21..=21, 20)] {
            let vdl = Lsn(20).min(Lsn(*lsns.end()));
            let mut wb = batch(chain(lsns), 1, vdl);
            wb.pgmrpl = Lsn(pgmrpl);
            persist(&mut seg, &wb);
            seg.coalesce();
            let upto = seg.pgmrpl_hint.min(seg.applied_upto);
            let mut want = seg.page_index.clone();
            for v in want.values_mut() {
                v.retain(|l| *l > upto);
            }
            want.retain(|_, v| !v.is_empty());
            assert!(seg.gc(false) > 0);
            let sorted = |m: &FxHashMap<PageId, Vec<Lsn>>| {
                let mut v: Vec<_> = m.iter().map(|(k, v)| (*k, v.clone())).collect();
                v.sort();
                v
            };
            assert_eq!(sorted(&seg.page_index), sorted(&want));
            assert!(seg
                .page_index
                .values()
                .flatten()
                .all(|l| seg.log.get(*l).is_some()));
        }
        assert_eq!(seg.gc_floor, Lsn(20));
    }

    /// A read point below a page's coalesced base, while the index still
    /// holds a record between the two (the PGMRPL lags the read point, so
    /// GC has not pruned it), gets the base rather than a panic.
    #[test]
    fn a_read_below_the_coalesced_base_returns_the_base() {
        let mut seg = Segment::default();
        let mut wb = batch(chain(1..=6), 0, Lsn(6));
        wb.pgmrpl = Lsn(1);
        persist(&mut seg, &wb);
        assert_eq!(seg.coalesce(), (6, 3));
        assert_eq!(seg.gc(false), 1);
        assert_eq!(seg.page_index[&PageId(0)], [Lsn(3), Lsn(6)]);
        let base = seg.pages[&PageId(0)].clone();
        assert_eq!(base.lsn, Lsn(6));
        assert_eq!(seg.materialize(PageId(0), Lsn(4)), base);
        let resp = seg.serve(&ReadPageReq {
            req_id: 1,
            segment: slot(0),
            page: PageId(0),
            read_point: Lsn(4),
        });
        assert_eq!(resp.page, base);
    }

    /// A read with no record above the coalesced base is served the base
    /// itself, sharing its bytes and bypassing the cache; coalescing newer
    /// records into that page afterwards copies the base, leaving the
    /// served image as it was.
    #[test]
    fn a_read_at_the_base_shares_it_and_a_later_coalesce_leaves_it_intact() {
        let mut seg = Segment::default();
        persist(&mut seg, &batch(chain(1..=6), 0, Lsn(6)));
        assert_eq!(seg.coalesce(), (6, 3));
        let served = seg
            .serve(&ReadPageReq {
                req_id: 1,
                segment: slot(0),
                page: PageId(0),
                read_point: Lsn(6),
            })
            .page;
        assert_eq!(served.lsn, Lsn(6));
        assert_eq!(
            served.bytes().as_ptr(),
            seg.pages[&PageId(0)].bytes().as_ptr()
        );
        assert!(seg.mat_cache.is_empty());
        let before = served.bytes().to_vec();
        persist(&mut seg, &batch(chain(7..=9), 0, Lsn(9)));
        assert_eq!(seg.coalesce(), (3, 3));
        let base = &seg.pages[&PageId(0)];
        assert_eq!(base.lsn, Lsn(9));
        assert_ne!(base.bytes(), &before[..]);
        assert_eq!(served.bytes(), &before[..]);
        assert_eq!(served.lsn, Lsn(6));
    }

    /// ROADMAP 2(a), without a simulator: batch b1 (LSNs 1–3) lands on
    /// slots 1–4 and b2 (4–6) on slots 3–6. Both reach 4/6 and the VDL
    /// covers b2, so its commit is acknowledged. A pipelined writer ships
    /// b2 before b1's acks return, so both carry the VDL published before
    /// b1, and the writer crashes before any later batch. Recovery hears
    /// from the read quorum {1, 5, 6} first.
    #[test]
    #[ignore = "ROADMAP 2(b)"]
    fn an_acked_batch_over_a_complementary_gap_survives_recovery() {
        let mut slots: Vec<Segment> = (0..6).map(|_| Segment::default()).collect();
        let mut tracker = DurabilityTracker::new(QuorumConfig::aurora(), Lsn::ZERO);
        let b1 = batch(chain(1..=3), 0, tracker.vdl());
        let b2 = batch(chain(4..=6), 0, tracker.vdl());
        for (wb, members) in [(&b1, 0..4), (&b2, 2..6)] {
            tracker.register(wb.batch_end, Some(wb.batch_end), &[PG]);
            for i in members {
                let to = WriteBatch {
                    segment: slot(i),
                    ..wb.clone()
                };
                let ack = persist(&mut slots[i as usize], &to);
                tracker.ack(ack.batch_end, ack.segment.pg, ack.segment.replica);
            }
        }
        assert_eq!(tracker.vdl(), Lsn(6), "b2's commit is acknowledged");

        let replies: Vec<SegmentStateResp> = [0u8, 4, 5]
            .iter()
            .map(|&i| slots[i as usize].state(&SegmentStateReq { segment: slot(i) }))
            .collect();
        let states: SegmentStates = replies
            .iter()
            .map(|r| (r.segment.replica, (r.scl, r.highest)))
            .collect();
        let published = replies.iter().map(|r| r.vdl).max().unwrap_or_default();
        let vcl = recovery::vcl([&states], published);
        assert!(
            vcl >= Lsn(6),
            "acked b2 truncated: (SCL, highest) by slot {states:?}, published VDL {published:?}, VCL {vcl:?}"
        );
    }
}
