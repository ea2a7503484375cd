//! Property-based tests on the core data structures and protocol
//! invariants, spanning crates (hence at the workspace root).

use aurora::log::{
    apply_record, codec, unapply_record, LogRecord, Lsn, Page, PageId, Patch, PgId, RecordBody,
    SegmentLog, TxnId, PAGE_SIZE,
};
use aurora::quorum::{AckOutcome, DurabilityTracker, QuorumConfig};
use aurora::sim::Histogram;
use bytes::Bytes;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// codec: every record round-trips; corruption is always detected
// ---------------------------------------------------------------------

fn arb_body() -> impl Strategy<Value = RecordBody> {
    prop_oneof![
        (
            any::<u64>(),
            proptest::collection::vec(
                (0u32..4000, proptest::collection::vec(any::<u8>(), 1..32)),
                1..4
            )
        )
            .prop_map(|(page, raw)| {
                RecordBody::PageWrite {
                    page: PageId(page % 10_000),
                    patches: raw
                        .into_iter()
                        .map(|(offset, bytes)| Patch {
                            offset: offset % (PAGE_SIZE as u32 - 64),
                            before: Bytes::from(vec![0u8; bytes.len()]),
                            after: Bytes::from(bytes),
                        })
                        .collect(),
                }
            }),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|init| RecordBody::PageFormat {
            page: PageId(3),
            init: Bytes::from(init),
        }),
        Just(RecordBody::TxnBegin),
        Just(RecordBody::TxnCommit),
        Just(RecordBody::TxnAbort),
        proptest::collection::vec(any::<u8>(), 0..48).prop_map(|d| RecordBody::Undo {
            data: Bytes::from(d)
        }),
    ]
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    (
        1u64..1_000_000,
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
        arb_body(),
    )
        .prop_map(|(lsn, txn, pg, is_cpl, body)| LogRecord {
            lsn: Lsn(lsn),
            prev_in_pg: Lsn(lsn.saturating_sub(1)),
            pg: PgId(pg % 64),
            txn: TxnId(txn),
            is_cpl,
            body,
        })
}

proptest! {
    #[test]
    fn codec_roundtrip(rec in arb_record()) {
        let buf = codec::encode(&rec);
        let (back, consumed) = codec::decode(&buf).unwrap();
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn codec_detects_any_single_byte_corruption(rec in arb_record(), flip in any::<(usize, u8)>()) {
        let mut buf = codec::encode(&rec);
        let idx = flip.0 % buf.len();
        let bit = flip.1 | 1; // guarantee a real change
        buf[idx] ^= bit;
        // either the CRC catches it, the length field truncates it, or the
        // decoded record differs — silent identical decode is the only
        // forbidden outcome
        match codec::decode(&buf) {
            Err(_) => {}
            Ok((back, _)) => prop_assert_ne!(back, rec),
        }
    }

    #[test]
    fn batch_roundtrip(recs in proptest::collection::vec(arb_record(), 0..16)) {
        let buf = codec::encode_batch(&recs);
        let back = codec::decode_batch(&buf).unwrap();
        prop_assert_eq!(back, recs);
    }
}

// ---------------------------------------------------------------------
// applicator: apply is idempotent-guarded and unapply inverts it
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn apply_then_unapply_is_identity(
        writes in proptest::collection::vec((0u32..((PAGE_SIZE - 32) as u32), proptest::collection::vec(any::<u8>(), 1..24)), 1..12)
    ) {
        let mut page = Page::new();
        let mut records = Vec::new();
        for (i, (offset, bytes)) in writes.iter().enumerate() {
            let patch = Patch::capture(&page, *offset as usize, bytes);
            let rec = LogRecord {
                lsn: Lsn(i as u64 + 1),
                prev_in_pg: Lsn(i as u64),
                pg: PgId(0),
                txn: TxnId(1),
                is_cpl: true,
                body: RecordBody::PageWrite { page: PageId(0), patches: vec![patch] },
            };
            apply_record(&mut page, &rec).unwrap();
            records.push(rec);
        }
        // undo everything newest-first: page returns to all-zeroes
        for rec in records.iter().rev() {
            unapply_record(&mut page, rec).unwrap();
        }
        prop_assert!(page.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn apply_rejects_stale_records(lsn in 2u64..100) {
        let mut page = Page::new();
        let rec = |l: u64| LogRecord {
            lsn: Lsn(l),
            prev_in_pg: Lsn(l - 1),
            pg: PgId(0),
            txn: TxnId(1),
            is_cpl: true,
            body: RecordBody::PageWrite {
                page: PageId(0),
                patches: vec![Patch {
                    offset: 0,
                    before: Bytes::from_static(&[0]),
                    after: Bytes::from_static(&[1]),
                }],
            },
        };
        apply_record(&mut page, &rec(lsn)).unwrap();
        // anything at or below the page LSN is refused
        prop_assert!(apply_record(&mut page, &rec(lsn)).is_err());
        prop_assert!(apply_record(&mut page, &rec(lsn - 1)).is_err());
    }
}

// ---------------------------------------------------------------------
// segment log: SCL == longest chain prefix, under any arrival order
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn scl_is_arrival_order_independent(
        n in 1usize..60,
        order in proptest::collection::vec(any::<u64>(), 60),
        missing in proptest::collection::hash_set(0usize..60, 0..8)
    ) {
        // chain 1..=n with backlinks i-1; deliver in a scrambled order,
        // skipping `missing`
        let chain: Vec<LogRecord> = (1..=n as u64)
            .map(|l| LogRecord {
                lsn: Lsn(l),
                prev_in_pg: Lsn(l - 1),
                pg: PgId(0),
                txn: TxnId(1),
                is_cpl: true,
                body: RecordBody::TxnBegin,
            })
            .collect();
        let mut idx: Vec<usize> = (0..n).collect();
        // scramble deterministically from `order`
        for i in (1..n).rev() {
            let j = (order[i] as usize) % (i + 1);
            idx.swap(i, j);
        }
        let mut log = SegmentLog::new();
        for &i in &idx {
            if !missing.contains(&i) {
                log.insert(chain[i].clone());
            }
        }
        // expected SCL = first missing index (i.e. chain prefix length)
        let expected = (0..n).take_while(|i| !missing.contains(i)).count() as u64;
        prop_assert_eq!(log.scl(), Lsn(expected));
        // filling the holes completes the chain
        for &i in &idx {
            if missing.contains(&i) {
                log.insert(chain[i].clone());
            }
        }
        prop_assert_eq!(log.scl(), Lsn(n as u64));
    }

    #[test]
    fn truncate_then_reinsert_is_consistent(cut in 1u64..40) {
        let mut log = SegmentLog::new();
        for l in 1..=40u64 {
            log.insert(LogRecord {
                lsn: Lsn(l),
                prev_in_pg: Lsn(l - 1),
                pg: PgId(0),
                txn: TxnId(1),
                is_cpl: true,
                body: RecordBody::TxnBegin,
            });
        }
        log.truncate_above(Lsn(cut));
        prop_assert_eq!(log.scl(), Lsn(cut));
        prop_assert_eq!(log.len() as u64, cut);
        // a new history reusing the annulled LSNs chains on cleanly
        for l in (cut + 1)..=(cut + 5) {
            log.insert(LogRecord {
                lsn: Lsn(l),
                prev_in_pg: Lsn(l - 1),
                pg: PgId(0),
                txn: TxnId(2),
                is_cpl: true,
                body: RecordBody::TxnCommit,
            });
        }
        prop_assert_eq!(log.scl(), Lsn(cut + 5));
    }
}

// ---------------------------------------------------------------------
// durability tracker: VDL advances monotonically, never past acks
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn vdl_monotone_and_bounded(acks in proptest::collection::vec((0u64..20, 0u8..6), 0..200)) {
        let mut t = DurabilityTracker::new(QuorumConfig::aurora(), Lsn::ZERO);
        let batch_ends: Vec<Lsn> = (1..=20u64).map(|i| Lsn(i * 10)).collect();
        for end in &batch_ends {
            t.register(*end, Some(*end), &[PgId(0)]);
        }
        let mut last_vdl = Lsn::ZERO;
        for (batch, replica) in acks {
            let end = batch_ends[(batch % 20) as usize];
            if let AckOutcome::VdlAdvanced(v) = t.ack(end, PgId(0), replica) {
                prop_assert!(v >= last_vdl, "VDL went backwards");
                last_vdl = v;
            }
            // the durable prefix never exceeds the highest fully-acked point
            prop_assert!(t.vdl() <= Lsn(200));
            prop_assert_eq!(t.vdl(), t.durable_to());
        }
    }
}

// ---------------------------------------------------------------------
// histogram: quantiles are order statistics within the error bound
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn histogram_quantile_error_bounded(values in proptest::collection::vec(1u64..1_000_000_000, 1..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5f64, 0.95, 0.99] {
            let approx = h.quantile(q) as f64;
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let err = (approx - exact).abs() / exact.max(1.0);
            prop_assert!(err < 0.15, "q={q}: approx {approx} exact {exact} err {err}");
        }
        prop_assert_eq!(h.min(), *sorted.first().unwrap());
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        prop_assert_eq!(h.count(), values.len() as u64);
    }
}

// ---------------------------------------------------------------------
// quorum config: generated configs satisfying Gifford's rules always
// tolerate what they claim
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn valid_quorums_intersect(copies in 1u8..12, write in 1u8..12, read in 1u8..12) {
        let cfg = QuorumConfig {
            copies,
            write_quorum: write,
            read_quorum: read,
            azs: 1,
            copies_per_az: copies,
        };
        if cfg.validate().is_ok() {
            // any write set of size Vw and read set of size Vr intersect
            prop_assert!(read as u16 + write as u16 > copies as u16);
            // two write sets intersect (no split brain)
            prop_assert!(2 * write as u16 > copies as u16);
        }
    }
}

// ---------------------------------------------------------------------
// undo codec: arbitrary bytes decode to None or to something that
// re-encodes to exactly those bytes; the decoder never panics
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn undo_decode_rejects_or_roundtrips(
        mut data in proptest::collection::vec(any::<u8>(), 0..48),
        tag in 0u8..4,
    ) {
        // bias the tag byte toward the three valid kinds, else almost
        // every input would be rejected on the tag alone
        if data.len() > 8 && tag < 3 {
            data[8] = tag;
        }
        if let Some((txn, op)) = aurora::core::txn::decode_undo(&data) {
            prop_assert_eq!(aurora::core::txn::encode_undo(txn, &op).to_vec(), data);
        }
    }
}

// ---------------------------------------------------------------------
// B+-tree vs a BTreeMap model, under random operation sequences
// ---------------------------------------------------------------------

use aurora::core::btree::{BTree, MemProvider, TreeMeta};

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u64, u8),
    Update(u64, u8),
    Delete(u64),
    Get(u64),
    Scan(u64, usize),
}

fn arb_tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (0u64..200, any::<u8>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        (0u64..200, any::<u8>()).prop_map(|(k, v)| TreeOp::Update(k, v)),
        (0u64..200).prop_map(TreeOp::Delete),
        (0u64..200).prop_map(TreeOp::Get),
        (0u64..200, 0usize..20).prop_map(|(k, n)| TreeOp::Scan(k, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn btree_matches_model(ops in proptest::collection::vec(arb_tree_op(), 1..300)) {
        const ROW: usize = 24;
        let tree = BTree::new(TreeMeta::for_row_size(ROW, PageId(0)));
        let mut p = MemProvider::new();
        tree.create(&mut p).unwrap();
        let mut model = std::collections::BTreeMap::<u64, Vec<u8>>::new();
        let row = |v: u8| vec![v; ROW];
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    let r = tree.insert(&mut p, k, &row(v));
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                        prop_assert!(r.is_ok());
                        e.insert(row(v));
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
                TreeOp::Update(k, v) => {
                    let r = tree.update(&mut p, k, &row(v));
                    if let std::collections::btree_map::Entry::Occupied(mut e) = model.entry(k) {
                        prop_assert!(r.is_ok());
                        e.insert(row(v));
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
                TreeOp::Delete(k) => {
                    let r = tree.delete(&mut p, k);
                    prop_assert_eq!(r.is_ok(), model.remove(&k).is_some());
                }
                TreeOp::Get(k) => {
                    prop_assert_eq!(tree.get(&mut p, k).unwrap(), model.get(&k).cloned());
                }
                TreeOp::Scan(k, n) => {
                    let got = tree.scan(&mut p, k, n).unwrap();
                    let expect: Vec<(u64, Vec<u8>)> = model
                        .range(k..)
                        .take(n)
                        .map(|(k, v)| (*k, v.clone()))
                        .collect();
                    prop_assert_eq!(got, expect);
                }
            }
        }
        // the patch journal replays to the exact same page images
        let mut replay: std::collections::HashMap<PageId, Page> = Default::default();
        for (pid, patches) in &p.journal {
            let page = replay.entry(*pid).or_default();
            for (off, _before, after) in patches {
                page.write_range(*off as usize, after);
            }
        }
        for (pid, page) in &p.pages {
            prop_assert_eq!(replay.entry(*pid).or_default().bytes(), page.bytes());
        }
    }
}

// ---------------------------------------------------------------------
// buffer pool: the recency list picks the victims a full scan would
// ---------------------------------------------------------------------

use aurora::core::BufferPool;

/// The pool's eviction rule as a full scan: every frame carries the tick
/// of its last use, and a victim is the smallest tick among the frames
/// the rule allows.
#[derive(Default)]
struct ScanPool {
    /// id → (page LSN, last use, dirty)
    frames: std::collections::HashMap<u64, (u64, u64, bool)>,
    tick: u64,
    evictions: u64,
}

impl ScanPool {
    fn oldest(&self, evictable: impl Fn(u64) -> bool) -> Option<u64> {
        self.frames
            .iter()
            .filter(|(id, f)| **id != 0 && evictable(f.0))
            .min_by_key(|(_, f)| f.1)
            .map(|(id, _)| *id)
    }

    fn touch(&mut self, id: u64, dirty: bool) {
        self.tick += 1;
        if let Some(f) = self.frames.get_mut(&id) {
            f.1 = self.tick;
            f.2 |= dirty;
        }
    }

    /// Insert without evicting; a resident frame keeps its recency and
    /// takes the newer LSN.
    fn insert_unchecked(&mut self, id: u64, lsn: u64) {
        if let Some(f) = self.frames.get_mut(&id) {
            f.0 = f.0.max(lsn);
            return;
        }
        self.tick += 1;
        self.frames.insert(id, (lsn, self.tick, false));
    }

    fn evict_one(&mut self, vdl: u64) -> bool {
        match self.oldest(|lsn| lsn <= vdl) {
            Some(id) => {
                self.frames.remove(&id);
                self.evictions += 1;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, id: u64, lsn: u64, vdl: u64, capacity: usize) -> bool {
        if !self.frames.contains_key(&id) && self.frames.len() >= capacity && !self.evict_one(vdl) {
            return false;
        }
        self.insert_unchecked(id, lsn);
        true
    }

    fn lru_victim(&self) -> Option<(PageId, bool)> {
        let id = self.oldest(|_| true)?;
        Some((PageId(id), self.frames[&id].2))
    }
}

#[derive(Debug, Clone)]
enum PoolOp {
    Get(u64),
    GetMut(u64),
    /// id, page LSN, VDL
    Insert(u64, u64, u64),
    /// `insert_unchecked` past capacity, then `shrink_to_capacity(vdl)`
    Overshoot(Vec<(u64, u64)>, u64),
    SetLsn(u64, u64),
    Remove(u64),
    Clear,
}

fn arb_pool_op() -> impl Strategy<Value = PoolOp> {
    const PAGES: u64 = 12;
    prop_oneof![
        (0u64..PAGES).prop_map(PoolOp::Get),
        (0u64..PAGES).prop_map(PoolOp::GetMut),
        (0u64..PAGES, 0u64..20, 0u64..20).prop_map(|(id, lsn, vdl)| PoolOp::Insert(id, lsn, vdl)),
        (
            proptest::collection::vec((0u64..PAGES, 0u64..20), 1..6),
            0u64..20
        )
            .prop_map(|(pages, vdl)| PoolOp::Overshoot(pages, vdl)),
        (0u64..PAGES, 0u64..20).prop_map(|(id, lsn)| PoolOp::SetLsn(id, lsn)),
        (0u64..PAGES).prop_map(PoolOp::Remove),
        Just(PoolOp::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn buffer_pool_victims_match_the_full_scan_rule(
        capacity in 1usize..6,
        ops in proptest::collection::vec(arb_pool_op(), 1..200),
    ) {
        let page = |lsn: u64| {
            let mut p = Page::new();
            p.lsn = Lsn(lsn);
            p
        };
        let mut pool = BufferPool::new(capacity);
        let mut model = ScanPool::default();
        // page 0, the meta page, is always resident, as in the engines
        pool.insert_unchecked(PageId(0), page(0));
        model.insert_unchecked(0, 0);
        for op in ops {
            match op {
                PoolOp::Get(id) => {
                    prop_assert_eq!(pool.get(PageId(id)).is_some(), model.frames.contains_key(&id));
                    model.touch(id, false);
                }
                PoolOp::GetMut(id) => {
                    prop_assert_eq!(pool.get_mut(PageId(id)).is_some(), model.frames.contains_key(&id));
                    model.touch(id, true);
                }
                PoolOp::Insert(id, lsn, vdl) => {
                    let ok = pool.insert(PageId(id), page(lsn), Lsn(vdl)).is_ok();
                    prop_assert_eq!(ok, model.insert(id, lsn, vdl, capacity));
                }
                PoolOp::Overshoot(pages, vdl) => {
                    for (id, lsn) in pages {
                        pool.insert_unchecked(PageId(id), page(lsn));
                        model.insert_unchecked(id, lsn);
                    }
                    pool.shrink_to_capacity(Lsn(vdl));
                    while model.frames.len() > capacity && model.evict_one(vdl) {}
                }
                PoolOp::SetLsn(id, lsn) => {
                    pool.set_lsn(PageId(id), Lsn(lsn));
                    if let Some(f) = model.frames.get_mut(&id) {
                        f.0 = f.0.max(lsn);
                    }
                }
                PoolOp::Remove(id) => {
                    let removed = pool.remove(PageId(id)).map(|p| p.lsn);
                    let expect = model.frames.remove(&id).map(|f| Lsn(f.0));
                    if expect.is_some() {
                        model.evictions += 1;
                    }
                    prop_assert_eq!(removed, expect);
                    if id == 0 {
                        pool.insert_unchecked(PageId(0), page(0));
                        model.insert_unchecked(0, 0);
                    }
                }
                PoolOp::Clear => {
                    pool.clear();
                    model.frames.clear();
                    pool.insert_unchecked(PageId(0), page(0));
                    model.insert_unchecked(0, 0);
                }
            }
            let resident: std::collections::BTreeMap<u64, Lsn> = model
                .frames
                .iter()
                .map(|(id, f)| (*id, Lsn(f.0)))
                .collect();
            let in_pool: std::collections::BTreeMap<u64, Lsn> = (0..12)
                .filter_map(|id| pool.peek(PageId(id)).map(|p| (id, p.lsn)))
                .collect();
            prop_assert_eq!(pool.len(), resident.len());
            prop_assert_eq!(in_pool, resident);
            prop_assert_eq!(pool.evictions, model.evictions);
            prop_assert_eq!(pool.lru_victim(), model.lru_victim());
        }
    }
}
