//! Storage service wire protocol.
//!
//! Every message implements [`Payload`] with a realistic `wire_size` and a
//! statistics class; the Table 1 experiment counts `log_write` packets
//! leaving the database node, exactly as the paper counts write IOs.

use std::sync::Arc;

use aurora_log::{LogRecord, Lsn, Page, PageId, SegmentId, TxnId, PAGE_SIZE};
use aurora_quorum::{TruncationRange, VolumeEpoch};
use aurora_sim::{Msg, NodeId, Payload};

use crate::volume::PgMembership;

/// Wire footprint of a record batch: the delta/varint batch encoding
/// (`aurora_log::codec::batch_wire_size`), which collapses the correlated
/// per-record headers (ascending LSNs, short backlinks, runs of the same
/// pg/txn/page) into a few bytes each. This is what actually crosses the
/// network, so bytes/txn accounting and simulated transfer times use it.
fn records_size(records: &[LogRecord]) -> usize {
    aurora_log::codec::batch_wire_size(records)
}

/// A batch of redo records for one segment (§3.2: "The IO flow batches
/// fully ordered log records based on a common destination (a logical
/// segment, i.e., a PG) and delivers each batch to all 6 replicas").
/// `records` is a shared slice: the engine encodes a PG's batch once and
/// every replica send, the retransmission window, and chaos-duplicated
/// copies of this message reference the same allocation.
#[derive(Debug, Clone)]
pub struct WriteBatch {
    pub segment: SegmentId,
    pub records: Arc<[LogRecord]>,
    /// Last LSN of the *volume-level* batch this shipment belongs to (the
    /// ack key for the durability tracker).
    pub batch_end: Lsn,
    /// Writer's volume epoch (zombie writers are fenced by the guard).
    pub epoch: VolumeEpoch,
    /// Piggybacked watermarks: current VDL (safe-to-coalesce bound) and
    /// PGMRPL (safe-to-GC bound).
    pub vdl: Lsn,
    pub pgmrpl: Lsn,
}

impl Payload for WriteBatch {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        48 + records_size(&self.records)
    }
    fn class(&self) -> &'static str {
        "log_write"
    }
}

/// A batch was rejected because the writer's epoch is stale (a zombie
/// writer from before a failover). The writer must step down.
#[derive(Debug, Clone)]
pub struct WriteFenced {
    pub segment: SegmentId,
    pub batch_end: Lsn,
    /// The epoch the segment currently enforces.
    pub epoch: VolumeEpoch,
}

impl Payload for WriteFenced {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        32
    }
    fn class(&self) -> &'static str {
        "log_ack"
    }
}

/// Per-segment acknowledgement (§4.2.1: acks establish the write quorum
/// for each batch and advance the VDL).
#[derive(Debug, Clone)]
pub struct WriteAck {
    pub segment: SegmentId,
    pub batch_end: Lsn,
    /// The segment's SCL after ingesting the batch.
    pub scl: Lsn,
}

impl Payload for WriteAck {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        32
    }
    fn class(&self) -> &'static str {
        "log_ack"
    }
}

/// Read a page version at a read point (§4.2.3: the database "can issue a
/// read request directly to a segment that has sufficient data").
#[derive(Debug, Clone)]
pub struct ReadPageReq {
    pub req_id: u64,
    pub segment: SegmentId,
    pub page: PageId,
    pub read_point: Lsn,
}

impl Payload for ReadPageReq {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        40
    }
    fn class(&self) -> &'static str {
        "page_read"
    }
}

/// The materialized page as of the read point.
#[derive(Debug, Clone)]
pub struct ReadPageResp {
    pub req_id: u64,
    pub segment: SegmentId,
    pub page_id: PageId,
    pub page: Page,
}

impl Payload for ReadPageResp {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        32 + PAGE_SIZE
    }
    fn class(&self) -> &'static str {
        "page_resp"
    }
}

/// Explicit negative acknowledgement of a page read: the segment cannot
/// serve the read point (it is not hosted, or the segment knows it has a
/// hole below the read point). Carries the segment's SCL so the engine can
/// refresh its completeness map and immediately redirect the read to a
/// better replica instead of waiting out the read timeout.
#[derive(Debug, Clone)]
pub struct ReadPageNack {
    pub req_id: u64,
    pub segment: SegmentId,
    /// The segment's current SCL (`Lsn::ZERO` when not hosted).
    pub scl: Lsn,
}

impl Payload for ReadPageNack {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        32
    }
    fn class(&self) -> &'static str {
        "page_resp"
    }
}

/// Gossip: "they gossip with the other members of their PG, looking for
/// gaps and fill in the holes" (§4.1). The pull advertises our SCL; the
/// peer pushes back what we are missing.
#[derive(Debug, Clone)]
pub struct GossipPull {
    /// Gossip is PG-scoped: replicas of one PG have distinct segment ids,
    /// so peers address each other by protection group.
    pub pg: aurora_log::PgId,
    pub scl: Lsn,
    /// The puller's own replica of the PG, so a peer that cannot bridge
    /// the puller's hole from its retained log (the needed records were
    /// GC'd) can ship a full catch-up copy addressed to the right
    /// segment.
    pub segment: SegmentId,
}

impl Payload for GossipPull {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        24
    }
    fn class(&self) -> &'static str {
        "gossip"
    }
}

/// Gossip response with the missing chain records. Carries the sender's
/// truncation epoch so receivers can filter records annulled by a
/// recovery the sender has not yet heard about.
#[derive(Debug, Clone)]
pub struct GossipPush {
    pub pg: aurora_log::PgId,
    pub records: Arc<[LogRecord]>,
    pub epoch: VolumeEpoch,
}

impl Payload for GossipPush {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        16 + records_size(&self.records)
    }
    fn class(&self) -> &'static str {
        "gossip"
    }
}

/// Recovery: ask a segment for its durable state (read-quorum discovery,
/// §4.3: the database "contacts for each PG a read quorum of segments").
#[derive(Debug, Clone)]
pub struct SegmentStateReq {
    pub segment: SegmentId,
}

impl Payload for SegmentStateReq {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        24
    }
    fn class(&self) -> &'static str {
        "recovery"
    }
}

/// A segment's durable state summary.
#[derive(Debug, Clone)]
pub struct SegmentStateResp {
    pub segment: SegmentId,
    pub scl: Lsn,
    pub highest: Lsn,
    pub epoch: VolumeEpoch,
    /// The segment's VDL hint: the highest VDL a writer of `epoch`
    /// published to it, capped by that epoch's truncation.
    pub vdl: Lsn,
}

impl Payload for SegmentStateResp {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        48
    }
    fn class(&self) -> &'static str {
        "recovery"
    }
}

/// Recovery: highest CPL at or below `at` held by this segment.
#[derive(Debug, Clone)]
pub struct CplBelowReq {
    pub segment: SegmentId,
    pub at: Lsn,
}

impl Payload for CplBelowReq {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        32
    }
    fn class(&self) -> &'static str {
        "recovery"
    }
}

/// Response to [`CplBelowReq`] (`Lsn::ZERO` if none).
#[derive(Debug, Clone)]
pub struct CplBelowResp {
    pub segment: SegmentId,
    pub cpl: Lsn,
}

impl Payload for CplBelowResp {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        32
    }
    fn class(&self) -> &'static str {
        "recovery"
    }
}

/// Recovery: scan the transaction-control chain (PG 0) up to `upto` so the
/// engine can rebuild its in-flight transaction list for undo.
#[derive(Debug, Clone)]
pub struct TxnScanReq {
    pub segment: SegmentId,
    pub upto: Lsn,
}

impl Payload for TxnScanReq {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        32
    }
    fn class(&self) -> &'static str {
        "recovery"
    }
}

/// Transactions that began / finished at or below the scan point.
#[derive(Debug, Clone)]
pub struct TxnScanResp {
    pub segment: SegmentId,
    pub begun: Vec<TxnId>,
    pub finished: Vec<TxnId>,
}

impl Payload for TxnScanResp {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        24 + 8 * (self.begun.len() + self.finished.len())
    }
    fn class(&self) -> &'static str {
        "recovery"
    }
}

/// Recovery: fetch all records of the given transactions (for undo).
#[derive(Debug, Clone)]
pub struct UndoScanReq {
    pub segment: SegmentId,
    pub txns: Vec<TxnId>,
    pub upto: Lsn,
}

impl Payload for UndoScanReq {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        32 + 8 * self.txns.len()
    }
    fn class(&self) -> &'static str {
        "recovery"
    }
}

/// Records belonging to the requested transactions.
#[derive(Debug, Clone)]
pub struct UndoScanResp {
    pub segment: SegmentId,
    pub records: Vec<LogRecord>,
}

impl Payload for UndoScanResp {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        24 + records_size(&self.records)
    }
    fn class(&self) -> &'static str {
        "recovery"
    }
}

/// Epoch-versioned truncation order (§4.3).
#[derive(Debug, Clone)]
pub struct Truncate {
    pub segment: SegmentId,
    pub range: TruncationRange,
}

impl Payload for Truncate {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        48
    }
    fn class(&self) -> &'static str {
        "recovery"
    }
}

/// Acknowledgement of a durable truncation. Reports the segment's
/// post-truncation SCL — for a segment that was complete through the new
/// VDL this is the PG's true chain tail, which the recovering writer needs
/// to thread the new epoch's backlinks.
#[derive(Debug, Clone)]
pub struct TruncateAck {
    pub segment: SegmentId,
    pub epoch: VolumeEpoch,
    pub scl: Lsn,
}

impl Payload for TruncateAck {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        32
    }
    fn class(&self) -> &'static str {
        "recovery"
    }
}

/// A segment received a write batch from an epoch newer than its
/// truncation guard: it missed a recovery and must not ingest (its SCL
/// bookkeeping could silently skip or false-ack records). The writer
/// answers with the missing [`Truncate`] range; the batch is re-delivered
/// by the normal retransmission path.
#[derive(Debug, Clone)]
pub struct EpochBehind {
    pub segment: SegmentId,
    /// The epoch the segment currently enforces.
    pub epoch: VolumeEpoch,
}

impl Payload for EpochBehind {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        24
    }
    fn class(&self) -> &'static str {
        "recovery"
    }
}

/// Setup / membership change: tells a storage node which peers replicate
/// each of its segments (gossip targets).
#[derive(Debug, Clone)]
pub struct SegmentPeers {
    pub segment: SegmentId,
    pub peers: Vec<NodeId>,
}

impl Payload for SegmentPeers {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        16 + 4 * self.peers.len()
    }
    fn class(&self) -> &'static str {
        "ctrl"
    }
}

/// Storage node heartbeat to the control plane.
#[derive(Debug, Clone)]
pub struct Heartbeat {
    pub hosted: Vec<SegmentId>,
}

impl Payload for Heartbeat {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        8 + 8 * self.hosted.len()
    }
    fn class(&self) -> &'static str {
        "ctrl"
    }
}

/// Control plane asks a healthy peer to ship a full copy of a segment to a
/// replacement node (re-replication after failure, §2.3 heat management).
#[derive(Debug, Clone)]
pub struct RepairFetchReq {
    /// The donor's own replica of the PG.
    pub src_segment: SegmentId,
    /// The replica slot being rebuilt on `dest`.
    pub dest_segment: SegmentId,
    pub dest: NodeId,
}

impl Payload for RepairFetchReq {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        24
    }
    fn class(&self) -> &'static str {
        "repair"
    }
}

/// The full segment copy (pages + log). Its wire size dominates repair
/// traffic, which is what makes MTTR proportional to segment size.
#[derive(Debug, Clone)]
pub struct RepairFetchResp {
    pub segment: SegmentId,
    pub pages: Vec<(PageId, Page)>,
    pub records: Arc<[LogRecord]>,
    pub applied_upto: Lsn,
    /// The donor's truncation-guard epoch. The replacement adopts it so a
    /// freshly repaired segment cannot be rolled back by a stale
    /// pre-recovery truncation (epoch fencing, §4.2.3).
    pub guard_epoch: VolumeEpoch,
    /// The donor's accepted truncation range, if any.
    pub guard_range: Option<TruncationRange>,
    /// The donor's SCL. The chain links below the donor's GC floor are
    /// gone, so the receiver cannot re-derive completeness from the
    /// shipped records alone — it adopts this as a certified
    /// completeness floor ([`SegmentLog::adopt_scl`]).
    ///
    /// [`SegmentLog::adopt_scl`]: aurora_log::SegmentLog::adopt_scl
    pub scl: Lsn,
    /// The donor's GC floor: records at or below it are gone from the
    /// donor's log, so the receiver cannot serve gossip below it either.
    pub gc_floor: Lsn,
    /// `false`: repair install (fresh segment, report `RepairDone`).
    /// `true`: gossip catch-up for a member that fell behind the fleet's
    /// GC horizon — merged into the existing segment, no `RepairDone`.
    pub catch_up: bool,
}

impl Payload for RepairFetchResp {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        32 + self.pages.len() * (8 + PAGE_SIZE) + records_size(&self.records)
    }
    fn class(&self) -> &'static str {
        "repair"
    }
}

/// Replacement node tells control the segment is installed.
#[derive(Debug, Clone)]
pub struct RepairDone {
    pub segment: SegmentId,
}

impl Payload for RepairDone {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        16
    }
    fn class(&self) -> &'static str {
        "repair"
    }
}

/// Database engine reports a persistently unhealthy segment member to the
/// control plane (§4.1's monitoring loop: a node that is alive but slow is
/// fenced and repaired before it fails hard).
#[derive(Debug, Clone)]
pub struct SuspectReport {
    pub segment: SegmentId,
    /// The node currently holding that replica slot, as the engine sees it.
    pub node: NodeId,
}

impl Payload for SuspectReport {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        24
    }
    fn class(&self) -> &'static str {
        "ctrl"
    }
}

/// Control plane broadcasts new membership for a PG after repair.
#[derive(Debug, Clone)]
pub struct MembershipUpdate {
    pub membership: PgMembership,
}

impl Payload for MembershipUpdate {
    fn clone_boxed(&self) -> Option<Msg> {
        Some(Msg::new(self.clone()))
    }
    fn wire_size(&self) -> usize {
        16 + 4 * 6
    }
    fn class(&self) -> &'static str {
        "ctrl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_log::{PgId, RecordBody};

    fn seg() -> SegmentId {
        SegmentId::new(PgId(0), 0)
    }

    fn rec(lsn: u64) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            prev_in_pg: Lsn(lsn - 1),
            pg: PgId(0),
            txn: TxnId(1),
            is_cpl: true,
            body: RecordBody::TxnBegin,
        }
    }

    #[test]
    fn classes_are_distinct_where_it_matters() {
        let wb = WriteBatch {
            segment: seg(),
            records: vec![rec(1)].into(),
            batch_end: Lsn(1),
            epoch: VolumeEpoch(0),
            vdl: Lsn::ZERO,
            pgmrpl: Lsn::ZERO,
        };
        assert_eq!(wb.class(), "log_write");
        assert_eq!(
            WriteAck {
                segment: seg(),
                batch_end: Lsn(1),
                scl: Lsn(1)
            }
            .class(),
            "log_ack"
        );
        assert_eq!(
            ReadPageReq {
                req_id: 0,
                segment: seg(),
                page: PageId(0),
                read_point: Lsn(1)
            }
            .class(),
            "page_read"
        );
    }

    #[test]
    fn page_resp_costs_a_page() {
        let resp = ReadPageResp {
            req_id: 0,
            segment: seg(),
            page_id: PageId(0),
            page: Page::new(),
        };
        assert!(resp.wire_size() >= PAGE_SIZE);
    }

    #[test]
    fn batch_size_scales_with_records() {
        let one = WriteBatch {
            segment: seg(),
            records: vec![rec(1)].into(),
            batch_end: Lsn(1),
            epoch: VolumeEpoch(0),
            vdl: Lsn::ZERO,
            pgmrpl: Lsn::ZERO,
        };
        let three = WriteBatch {
            records: vec![rec(1), rec(2), rec(3)].into(),
            ..one.clone()
        };
        assert!(three.wire_size() > one.wire_size());
    }

    #[test]
    fn repair_resp_dominated_by_pages() {
        let resp = RepairFetchResp {
            segment: seg(),
            pages: vec![(PageId(0), Page::new()), (PageId(1), Page::new())],
            records: Vec::new().into(),
            applied_upto: Lsn::ZERO,
            guard_epoch: VolumeEpoch(0),
            guard_range: None,
            scl: Lsn::ZERO,
            gc_floor: Lsn::ZERO,
            catch_up: false,
        };
        assert!(resp.wire_size() > 2 * PAGE_SIZE);
    }
}
