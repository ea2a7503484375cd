//! A storage segment's slice of the redo log.
//!
//! §4.2.1: "each segment of each PG only sees a subset of log records in
//! the volume … Each log record contains a backlink that identifies the
//! previous log record for that PG. These backlinks can be used to track
//! the point of completeness of the log records that have reached each
//! segment to establish a Segment Complete LSN (SCL) … The SCL is used by
//! the storage nodes when they gossip with each other in order to find and
//! exchange log records that they are missing."
//!
//! [`SegmentLog`] keeps a segment's received records, maintains the SCL by
//! chasing backlinks, reports holes for the gossip protocol, supports the
//! recovery-time truncation of records above the new VDL, and garbage
//! collection below the PGMRPL once records are materialized into pages.

use std::collections::{btree_map, hash_map, BTreeMap};

use aurora_sim::hash::FxHashMap;

use crate::lsn::Lsn;
use crate::record::LogRecord;

/// Per-segment log state. All contents are *durable* in the simulation's
/// sense: a storage node keeps its `SegmentLog`s across crash/restart.
#[derive(Debug, Default, Clone)]
pub struct SegmentLog {
    records: BTreeMap<Lsn, LogRecord>,
    /// chain index: prev_in_pg -> lsn (the chain is a linked list, so the
    /// mapping is injective within one PG). Only a backlink at or above the
    /// SCL is ever looked up, so an entry leaves as the SCL passes it: the
    /// map holds the records stranded above a hole, not the whole log.
    by_prev: FxHashMap<Lsn, Lsn>,
    /// Segment Complete LSN: every chain record at or below this is present
    /// (or was present before being garbage-collected).
    scl: Lsn,
}

impl SegmentLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one record. Returns `true` if it was new. Records at or
    /// below the SCL (duplicates, or already GC'd territory) are ignored.
    pub fn insert(&mut self, rec: LogRecord) -> bool {
        if rec.lsn <= self.scl {
            return false;
        }
        let btree_map::Entry::Vacant(slot) = self.records.entry(rec.lsn) else {
            return false;
        };
        self.by_prev.insert(rec.prev_in_pg, rec.lsn);
        slot.insert(rec);
        self.advance_scl();
        true
    }

    fn advance_scl(&mut self) {
        while let hash_map::Entry::Occupied(link) = self.by_prev.entry(self.scl) {
            if *link.get() <= self.scl {
                break; // defensive: malformed chain
            }
            self.scl = link.remove();
        }
    }

    /// The Segment Complete LSN.
    pub fn scl(&self) -> Lsn {
        self.scl
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Highest LSN held (may be above the SCL if there are holes).
    pub fn highest(&self) -> Lsn {
        self.records.keys().next_back().copied().unwrap_or(self.scl)
    }

    /// Does the segment hold stranded records above its SCL (i.e. it knows
    /// it is missing something)? This is what triggers a gossip pull.
    pub fn has_gap(&self) -> bool {
        self.highest() > self.scl
    }

    /// Look up a record.
    pub fn get(&self, lsn: Lsn) -> Option<&LogRecord> {
        self.records.get(&lsn)
    }

    /// Records in `(from, to]` in LSN order, borrowed: callers clone only
    /// what they keep (gossip clones at most its batch limit). Empty, never
    /// a panic, when the range is empty or inverted.
    pub fn range_iter(
        &self,
        from_exclusive: Lsn,
        to_inclusive: Lsn,
    ) -> impl Iterator<Item = &LogRecord> {
        let inner = if from_exclusive >= to_inclusive {
            None
        } else {
            Some(self.records.range(from_exclusive.next()..=to_inclusive))
        };
        inner.into_iter().flatten().map(|(_, r)| r)
    }

    /// All records in LSN order (recovery / coalescing scans).
    pub fn iter(&self) -> impl Iterator<Item = &LogRecord> {
        self.records.values()
    }

    /// Recovery truncation (§4.1): remove every record with LSN greater
    /// than `vdl`. Returns how many records were dropped.
    ///
    /// The SCL is rewound to the **highest surviving record's LSN** (the
    /// segment's genuine chain tail), never to `vdl` itself: `vdl` is a
    /// volume-level LSN that usually belongs to another PG's chain, and an
    /// SCL that is not an actual chain LSN can never be chained past by
    /// [`SegmentLog::insert`] — the segment would be stuck incomplete
    /// forever. A segment that was complete through `vdl` holds its full
    /// chain prefix, so its highest survivor *is* the PG chain tail at the
    /// truncation point. (If every survivor was already garbage-collected
    /// the tail is unknowable locally and `vdl` is the best available
    /// floor.)
    pub fn truncate_above(&mut self, vdl: Lsn) -> usize {
        let doomed: Vec<Lsn> = self.records.range(vdl.next()..).map(|(l, _)| *l).collect();
        for lsn in &doomed {
            if let Some(r) = self.records.remove(lsn) {
                self.by_prev.remove(&r.prev_in_pg);
            }
        }
        if self.scl > vdl {
            self.scl = self
                .records
                .keys()
                .next_back()
                .copied()
                .unwrap_or(vdl)
                .min(vdl);
        }
        doomed.len()
    }

    /// Garbage collection (Fig. 4 step 7): once every record at or below
    /// `upto` has been coalesced into materialized pages and the database
    /// has advanced the PGMRPL past it, the log prefix can be dropped. The
    /// SCL does not move backwards — completeness was already established.
    /// Records above the SCL are never GC'd (they may still be needed to
    /// fill peers' holes). Returns how many records were dropped. The
    /// prefix leaves in one `split_off`, so the cost follows the records
    /// dropped rather than one tree removal each.
    pub fn gc_upto(&mut self, upto: Lsn) -> usize {
        let limit = if upto < self.scl { upto } else { self.scl };
        let kept = self.records.split_off(&limit.next());
        let doomed = std::mem::replace(&mut self.records, kept);
        for r in doomed.values() {
            self.by_prev.remove(&r.prev_in_pg);
        }
        doomed.len()
    }

    /// Adopt a completeness floor learned out-of-band (repair or gossip
    /// catch-up install): the donor certified that every chain record at
    /// or below `floor` reached it before being coalesced and GC'd, so
    /// local completeness through `floor` is established even though the
    /// chain links below it were never received here. `floor` must be a
    /// real chain LSN (the donor's SCL) or `Lsn::ZERO`. Never moves the
    /// SCL backwards; chases backlinks past the floor afterwards in case
    /// stranded records now connect.
    pub fn adopt_scl(&mut self, floor: Lsn) {
        if floor > self.scl {
            self.scl = floor;
            self.advance_scl();
        }
    }

    /// Total payload bytes held (capacity accounting / GC pressure).
    pub fn bytes(&self) -> usize {
        self.records.values().map(|r| r.wire_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsn::{PgId, TxnId};
    use crate::record::RecordBody;

    /// Build a chain record: lsn with explicit backlink.
    fn rec(lsn: u64, prev: u64) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            prev_in_pg: Lsn(prev),
            pg: PgId(0),
            txn: TxnId(1),
            is_cpl: true,
            body: RecordBody::TxnBegin,
        }
    }

    #[test]
    fn scl_advances_through_contiguous_chain() {
        let mut s = SegmentLog::new();
        assert_eq!(s.scl(), Lsn::ZERO);
        s.insert(rec(1, 0));
        s.insert(rec(2, 1));
        s.insert(rec(3, 2));
        assert_eq!(s.scl(), Lsn(3));
        assert!(!s.has_gap());
    }

    #[test]
    fn the_chain_index_holds_only_records_above_the_scl() {
        let mut s = SegmentLog::new();
        for l in 1..=5 {
            s.insert(rec(l, l - 1));
        }
        assert!(s.by_prev.is_empty());
        s.insert(rec(7, 6));
        s.insert(rec(8, 7));
        assert_eq!((s.scl(), s.by_prev.len()), (Lsn(5), 2));
        s.insert(rec(6, 5));
        assert_eq!(s.scl(), Lsn(8));
        assert!(s.by_prev.is_empty());
    }

    #[test]
    fn gap_stalls_scl_and_fill_resumes() {
        let mut s = SegmentLog::new();
        s.insert(rec(1, 0));
        s.insert(rec(3, 2)); // 2 missing
        assert_eq!(s.scl(), Lsn(1));
        assert!(s.has_gap());
        assert_eq!(s.highest(), Lsn(3));
        s.insert(rec(2, 1)); // hole filled
        assert_eq!(s.scl(), Lsn(3));
        assert!(!s.has_gap());
    }

    #[test]
    fn sparse_pg_chain_lsns() {
        // A segment only sees its PG's records, so LSNs are sparse: chain
        // 5 -> 9 -> 20 with backlinks 0, 5, 9.
        let mut s = SegmentLog::new();
        s.insert(rec(5, 0));
        s.insert(rec(20, 9));
        assert_eq!(s.scl(), Lsn(5));
        s.insert(rec(9, 5));
        assert_eq!(s.scl(), Lsn(20));
    }

    #[test]
    fn duplicates_ignored() {
        let mut s = SegmentLog::new();
        assert!(s.insert(rec(1, 0)));
        assert!(!s.insert(rec(1, 0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn range_is_exclusive_inclusive() {
        let mut s = SegmentLog::new();
        for (l, p) in [(1, 0), (2, 1), (3, 2), (4, 3)] {
            s.insert(rec(l, p));
        }
        let got =
            |from, to| -> Vec<u64> { s.range_iter(Lsn(from), Lsn(to)).map(|r| r.lsn.0).collect() };
        assert_eq!(got(1, 3), vec![2, 3]);
        assert_eq!(got(0, 4), vec![1, 2, 3, 4]);
        assert!(got(2, 2).is_empty(), "empty range");
        assert!(got(3, 1).is_empty(), "inverted range");
    }

    #[test]
    fn truncate_above_drops_and_rewinds_scl() {
        let mut s = SegmentLog::new();
        for (l, p) in [(1, 0), (2, 1), (3, 2), (5, 4)] {
            s.insert(rec(l, p));
        }
        assert_eq!(s.scl(), Lsn(3));
        let dropped = s.truncate_above(Lsn(2));
        assert_eq!(dropped, 2);
        assert_eq!(s.scl(), Lsn(2));
        assert_eq!(s.highest(), Lsn(2));
        // re-inserting after truncation works (new epoch writes)
        assert!(s.insert(rec(3, 2)));
        assert_eq!(s.scl(), Lsn(3));
    }

    #[test]
    fn truncate_rewinds_scl_to_surviving_chain_tail() {
        // Chain 1 -> 2 -> 5, complete (scl 5). Truncating above a volume
        // LSN that is NOT a record of this chain (4) must rewind the SCL
        // to the highest survivor (2), not to 4: the next writer links its
        // first record to the chain tail, and an SCL parked on a
        // non-chain LSN could never advance again.
        let mut s = SegmentLog::new();
        for (l, p) in [(1, 0), (2, 1), (5, 2)] {
            s.insert(rec(l, p));
        }
        assert_eq!(s.scl(), Lsn(5));
        s.truncate_above(Lsn(4));
        assert_eq!(s.scl(), Lsn(2), "SCL must land on a real chain record");
        assert!(!s.has_gap());
        // the new epoch's chain continues from the tail and the SCL follows
        assert!(s.insert(rec(6, 2)));
        assert_eq!(s.scl(), Lsn(6));
    }

    #[test]
    fn truncate_of_empty_log_clamps_scl_to_vdl() {
        // All survivors were GC'd: the tail is unknowable locally, the
        // best available floor is the truncation point itself.
        let mut s = SegmentLog::new();
        for (l, p) in [(1, 0), (2, 1), (3, 2)] {
            s.insert(rec(l, p));
        }
        s.gc_upto(Lsn(3));
        assert_eq!(s.len(), 0);
        s.truncate_above(Lsn(2));
        assert_eq!(s.scl(), Lsn(2));
    }

    #[test]
    fn gc_drops_prefix_but_never_above_scl() {
        let mut s = SegmentLog::new();
        for (l, p) in [(1, 0), (2, 1), (3, 2), (7, 5)] {
            s.insert(rec(l, p));
        }
        assert_eq!(s.scl(), Lsn(3));
        // asking to GC beyond the SCL only drops the complete prefix
        let dropped = s.gc_upto(Lsn(100));
        assert_eq!(dropped, 3);
        assert_eq!(s.len(), 1); // the stranded record at 7 remains
        assert_eq!(s.scl(), Lsn(3), "SCL survives GC");
        // late duplicate of a GC'd record is ignored
        assert!(!s.insert(rec(2, 1)));
    }

    #[test]
    fn gc_partial_prefix() {
        let mut s = SegmentLog::new();
        for (l, p) in [(1, 0), (2, 1), (3, 2)] {
            s.insert(rec(l, p));
        }
        assert_eq!(s.gc_upto(Lsn(1)), 1);
        assert_eq!(s.len(), 2);
        assert!(s.get(Lsn(1)).is_none());
        assert!(s.get(Lsn(2)).is_some());
    }

    #[test]
    fn bytes_accounting() {
        let mut s = SegmentLog::new();
        assert_eq!(s.bytes(), 0);
        s.insert(rec(1, 0));
        assert!(s.bytes() > 0);
    }
}
