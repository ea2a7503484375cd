//! The read path (§4.2.3–4.2.4), as plain structs with no `Ctx`.
//!
//! An instance reads a page at a read point from one segment that is
//! complete at that point: no quorum read. The writer and every replica
//! read the shared volume the same way, through one [`PageReads`] table of
//! reads in flight. They differ only in how they pick the segment. The
//! writer keeps each segment's SCL from its acks and nacks ([`SclMap`]) and
//! picks a complete member. A replica sees no acks, so it reads a random
//! slot and moves to the next slot on a timeout; that rule lives in
//! `replica.rs`. DESIGN.md §4f has the timers, constants and metrics.

use aurora_log::{Lsn, PageId, PgId, SegmentId};
use aurora_sim::hash::FxHashMap as HashMap;
use aurora_sim::{SimDuration, SimRng, SimTime};
use aurora_storage::wire::ReadPageReq;

use crate::health::{Health, HealthState};

/// A read unanswered this long is sent again, to another segment.
pub(crate) const READ_TIMEOUT: SimDuration = SimDuration::from_millis(20);

/// A page read in flight: the request as last sent, and who waits on it.
struct PendingRead {
    req: ReadPageReq,
    conns: Vec<u64>,
    sent_at: SimTime,
}

/// A page image arrived for a read in flight.
pub(crate) struct Completed {
    /// The connections to resume, in the order they missed the page.
    pub conns: Vec<u64>,
    /// When the answered request was sent.
    pub sent_at: SimTime,
    /// The image is newer than the read point: storage broke snapshot
    /// isolation (the `oracle.read_past_read_point` tap).
    pub past_read_point: bool,
}

/// The in-flight page-read table. It builds every [`ReadPageReq`] an
/// instance sends; the caller picks the segment and sends it.
#[derive(Default)]
pub(crate) struct PageReads {
    /// The last request id handed out.
    last_req: u64,
    reads: HashMap<u64, PendingRead>,
    /// The read in flight for each page: a second connection that misses
    /// the same page joins it instead of sending another.
    page_waits: HashMap<PageId, u64>,
}

impl PageReads {
    /// Join `conn` to the read of `page` in flight, if there is one.
    pub fn join(&mut self, page: PageId, conn: u64) -> bool {
        let waiting = self.page_waits.get(&page);
        let Some(pr) = waiting.and_then(|id| self.reads.get_mut(id)) else {
            return false;
        };
        if !pr.conns.contains(&conn) {
            pr.conns.push(conn);
        }
        true
    }

    /// Read `page` at `read_point` for `conn` from `segment`, sent `now`.
    pub fn start(
        &mut self,
        page: PageId,
        read_point: Lsn,
        segment: SegmentId,
        conn: u64,
        now: SimTime,
    ) -> ReadPageReq {
        self.last_req += 1;
        let req_id = self.last_req;
        let req = ReadPageReq {
            req_id,
            segment,
            page,
            read_point,
        };
        self.page_waits.insert(page, req_id);
        let (conns, sent_at) = (vec![conn], now);
        let pr = PendingRead {
            req,
            conns,
            sent_at,
        };
        let req = pr.req.clone();
        self.reads.insert(req_id, pr);
        req
    }

    /// The requests sent more than `timeout` before `now`, as last sent,
    /// in request-id order.
    pub fn expired(&self, now: SimTime, timeout: SimDuration) -> Vec<ReadPageReq> {
        let mut expired: Vec<ReadPageReq> = self
            .reads
            .values()
            .filter(|pr| now.since(pr.sent_at) > timeout)
            .map(|pr| pr.req.clone())
            .collect();
        expired.sort_unstable_by_key(|r| r.req_id);
        expired
    }

    /// The request `req_id` as last sent, while it is in flight.
    pub fn in_flight(&self, req_id: u64) -> Option<ReadPageReq> {
        self.reads.get(&req_id).map(|pr| pr.req.clone())
    }

    /// Send a read in flight again, to segment `to`, `now` (on a timeout or
    /// a nack). `None` once it has been answered.
    pub fn redirect(&mut self, req_id: u64, to: SegmentId, now: SimTime) -> Option<ReadPageReq> {
        let pr = self.reads.get_mut(&req_id)?;
        pr.req.segment = to;
        pr.sent_at = now;
        Some(pr.req.clone())
    }

    /// The answer to `req_id` carried an image at `image_lsn`. `None` for
    /// a stale answer: the read was answered already, or a crash dropped it.
    pub fn complete(&mut self, req_id: u64, image_lsn: Lsn) -> Option<Completed> {
        let pr = self.reads.remove(&req_id)?;
        self.page_waits.remove(&pr.req.page);
        Some(Completed {
            conns: pr.conns,
            sent_at: pr.sent_at,
            past_read_point: image_lsn > pr.req.read_point,
        })
    }

    /// Forget every read in flight (a crash). Request ids keep counting,
    /// so an answer to a forgotten read stays stale.
    pub fn clear(&mut self) {
        self.reads.clear();
        self.page_waits.clear();
    }
}

/// The writer's view of how complete each segment is: the SCL its last
/// write ack, read nack or truncation ack reported.
#[derive(Default)]
pub(crate) struct SclMap {
    scls: HashMap<SegmentId, Lsn>,
}

impl SclMap {
    pub fn insert(&mut self, segment: SegmentId, scl: Lsn) {
        self.scls.insert(segment, scl);
    }

    pub fn clear(&mut self) {
        self.scls.clear();
    }

    /// §4.2.3: pick one of `pg`'s `slots` members, never `avoid`, whose
    /// SCL reaches `bar`. The SCL is a per-PG LSN, so the writer's bar is
    /// the newest record it wrote to the PG (its chain tail) clamped by the
    /// read point: a segment holding the whole PG chain is complete at any
    /// read point. Among complete members it prefers the ones `health`
    /// holds healthy, and draws one at random. With no complete member (the
    /// cold path after recovery) it draws nothing and takes the highest
    /// known SCL; ties, unknown SCLs included, go to the highest slot.
    pub fn pick(
        &self,
        pg: PgId,
        slots: u8,
        bar: Lsn,
        avoid: Option<u8>,
        health: &Health,
        rng: &mut SimRng,
    ) -> SegmentId {
        let scl = |r: &u8| self.scls.get(&SegmentId::new(pg, *r)).copied();
        let complete: Vec<u8> = (0..slots)
            .filter(|r| Some(*r) != avoid)
            .filter(|r| scl(r).is_some_and(|s| s >= bar))
            .collect();
        if !complete.is_empty() {
            let healthy: Vec<u8> = complete
                .iter()
                .copied()
                .filter(|r| health.state(SegmentId::new(pg, *r)) == HealthState::Healthy)
                .collect();
            let pool = if healthy.is_empty() {
                &complete
            } else {
                &healthy
            };
            return SegmentId::new(pg, pool[rng.index(pool.len())]);
        }
        let best = (0..slots)
            .filter(|r| Some(*r) != avoid)
            .max_by_key(scl)
            .unwrap_or(0);
        SegmentId::new(pg, best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(replica: u8) -> SegmentId {
        SegmentId::new(PgId(1), replica)
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn ids(reqs: &[ReadPageReq]) -> Vec<u64> {
        reqs.iter().map(|r| r.req_id).collect()
    }

    #[test]
    fn a_second_miss_on_a_page_joins_the_read_in_flight() {
        let mut reads = PageReads::default();
        assert!(!reads.join(PageId(7), 1), "nothing in flight yet");
        let req = reads.start(PageId(7), Lsn(40), seg(2), 1, at_ms(0));
        assert_eq!(
            (req.req_id, req.segment, req.page, req.read_point),
            (1, seg(2), PageId(7), Lsn(40))
        );
        assert!(reads.join(PageId(7), 2));
        assert!(reads.join(PageId(7), 1), "a repeat join adds nothing");
        assert!(!reads.join(PageId(8), 3), "another page is not joined");
        let done = reads.complete(1, Lsn(40)).expect("in flight");
        assert_eq!(done.conns, vec![1, 2]);
        assert_eq!(done.sent_at, at_ms(0));
        assert!(
            !reads.join(PageId(7), 4),
            "the page wait left with the read"
        );
    }

    #[test]
    fn expired_reads_come_out_in_request_order() {
        let mut reads = PageReads::default();
        for page in 0..40 {
            reads.start(PageId(page), Lsn(1), seg(0), page, at_ms(page % 3));
        }
        // sent at 0 or 1 ms, and 20 ms have passed since: expired
        let expired = reads.expired(at_ms(22), READ_TIMEOUT);
        let want: Vec<u64> = (1..=40).filter(|id| (id - 1) % 3 < 2).collect();
        assert_eq!(ids(&expired), want);
        assert!(reads.expired(at_ms(20), READ_TIMEOUT).is_empty());
        // a redirect restarts the clock
        reads.redirect(1, seg(3), at_ms(22));
        assert_eq!(ids(&reads.expired(at_ms(22), READ_TIMEOUT))[0], 2);
    }

    #[test]
    fn a_redirect_moves_the_read_and_keeps_its_waiters() {
        let mut reads = PageReads::default();
        reads.start(PageId(7), Lsn(40), seg(2), 1, at_ms(0));
        reads.join(PageId(7), 2);
        let again = reads.redirect(1, seg(5), at_ms(25)).expect("in flight");
        assert_eq!(
            (again.req_id, again.segment, again.page, again.read_point),
            (1, seg(5), PageId(7), Lsn(40))
        );
        assert_eq!(reads.in_flight(1).map(|r| r.segment), Some(seg(5)));
        let done = reads.complete(1, Lsn(40)).expect("in flight");
        assert_eq!((done.conns, done.sent_at), (vec![1, 2], at_ms(25)));
        assert!(reads.redirect(1, seg(0), at_ms(30)).is_none(), "answered");
    }

    #[test]
    fn a_stale_answer_completes_nothing() {
        let mut reads = PageReads::default();
        reads.start(PageId(7), Lsn(40), seg(2), 1, at_ms(0));
        assert!(reads.complete(1, Lsn(40)).is_some());
        assert!(reads.complete(1, Lsn(40)).is_none(), "answered twice");
        reads.start(PageId(7), Lsn(40), seg(2), 1, at_ms(1));
        reads.clear();
        assert!(reads.complete(2, Lsn(40)).is_none(), "dropped by a crash");
        let req = reads.start(PageId(7), Lsn(40), seg(2), 1, at_ms(2));
        assert_eq!(req.req_id, 3, "ids keep counting across a crash");
    }

    #[test]
    fn completion_flags_an_image_past_the_read_point() {
        let mut reads = PageReads::default();
        for (req_id, lsn) in [(1, 39), (2, 40), (3, 41)] {
            reads.start(PageId(req_id), Lsn(40), seg(0), 1, at_ms(0));
            let done = reads.complete(req_id, Lsn(lsn)).expect("in flight");
            assert_eq!(done.past_read_point, lsn > 40, "image at {lsn}");
        }
    }

    fn scls(pairs: &[(u8, u64)]) -> SclMap {
        let mut m = SclMap::default();
        for (r, scl) in pairs {
            m.insert(seg(*r), Lsn(*scl));
        }
        m
    }

    /// Where `draws` picks land, each from a fresh seed.
    fn picks(m: &SclMap, bar: u64, avoid: Option<u8>, health: &Health) -> Vec<u8> {
        let mut out: Vec<u8> = (0..64)
            .map(|seed| {
                let mut rng = SimRng::new(seed);
                m.pick(PgId(1), 6, Lsn(bar), avoid, health, &mut rng)
                    .replica
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn the_pick_draws_among_healthy_complete_members() {
        let m = scls(&[(0, 50), (1, 49), (2, 50), (3, 60), (5, 10)]);
        let mut health = Health::default();
        assert_eq!(picks(&m, 50, None, &health), vec![0, 2, 3]);
        assert_eq!(picks(&m, 50, Some(2), &health), vec![0, 3]);
        for ms in 1..=3 {
            health.strike(seg(3), at_ms(ms));
        }
        assert_ne!(health.state(seg(3)), HealthState::Healthy);
        assert_eq!(picks(&m, 50, None, &health), vec![0, 2]);
    }

    #[test]
    fn the_pick_falls_back_to_every_complete_member_when_none_is_healthy() {
        let m = scls(&[(0, 50), (2, 50), (4, 10)]);
        let mut health = Health::default();
        for r in [0, 2] {
            for ms in 1..=3 {
                health.strike(seg(r), at_ms(ms));
            }
        }
        assert_eq!(picks(&m, 50, None, &health), vec![0, 2]);
    }

    #[test]
    fn the_pick_draws_exactly_once_and_only_among_complete_members() {
        let m = scls(&[(0, 50), (2, 50)]);
        let health = Health::default();
        let mut rng = SimRng::new(9);
        let mut twin = SimRng::new(9);
        m.pick(PgId(1), 6, Lsn(50), None, &health, &mut rng);
        twin.index(2);
        assert_eq!(rng.index(1 << 20), twin.index(1 << 20));
        // the cold path draws nothing
        m.pick(PgId(1), 6, Lsn(99), None, &health, &mut rng);
        assert_eq!(rng.index(1 << 20), twin.index(1 << 20));
    }

    #[test]
    fn with_no_complete_member_the_pick_takes_the_highest_scl() {
        let health = Health::default();
        let m = scls(&[(0, 10), (3, 30), (4, 20)]);
        assert_eq!(picks(&m, 50, None, &health), vec![3]);
        assert_eq!(picks(&m, 50, Some(3), &health), vec![4]);
        // nothing known at all: the last slot not avoided (a tie of
        // unknowns goes to the highest slot)
        let empty = SclMap::default();
        assert_eq!(picks(&empty, 1, None, &health), vec![5]);
        assert_eq!(picks(&empty, 1, Some(5), &health), vec![4]);
    }
}
