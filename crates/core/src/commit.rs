//! Group commit (§4.2.2) and the three re-ship tiers of the 4/6 write
//! quorum (§4.1), as a plain struct with no `Ctx`: each call returns what
//! the engine should record, trace and send. DESIGN.md §5f has the why.

use std::collections::BTreeMap;
use std::sync::Arc;

use aurora_log::{LogRecord, Lsn, PgId, SegmentId};
use aurora_quorum::{AckOutcome, DurabilityTracker};
use aurora_sim::hash::FxHashSet as HashSet;
use aurora_sim::{NodeId, SimDuration, SimRng, SimTime, SpanId};
use aurora_storage::PgMembership;

use crate::engine::{membership, EngineConfig};
use crate::health::{Health, HealthState};

/// First full-retransmit backoff; each retransmit doubles it, plus seeded
/// jitter of up to a quarter of this, up to [`RETRANSMIT_MAX`].
const RETRANSMIT_BASE: SimDuration = SimDuration::from_millis(15);
const RETRANSMIT_MAX: SimDuration = SimDuration::from_millis(120);
/// A PG still below write quorum this long after its batch's last
/// batch-wide (re)ship is hedged.
const HEDGE_AFTER: SimDuration = SimDuration::from_millis(4);
/// Floor of loss detection's reordering window (a healthy disk reorders
/// completions by < 0.4 ms); a slow member's grows to half its ack EWMA.
const LOSS_REORDER: SimDuration = SimDuration::from_millis(1);
/// Per-sweep cap on re-ships per storage node, so a brownout cannot draw a
/// retry storm onto the node that is struggling.
const RETRANSMIT_NODE_CAP: usize = 4;
/// Most batches one sweep pass retransmits, and most it hedges.
const SWEEP_BATCHES: usize = 32;

/// Why a staged batch ships now: counted per reason and traced as the
/// `engine.ship` instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShipReason {
    /// Pipe idle: shipped with no added delay.
    Immediate = 0,
    /// `max_batch_records` reached.
    Size = 1,
    /// Group-commit deadline fired.
    Deadline = 2,
    /// Forced outside the policy: rollback end, bootstrap, recovery.
    Forced = 3,
}

/// A shipped, not yet durable batch.
struct OutBatch {
    /// Each PG's shard, shared by every send of it. BTreeMap: re-ships
    /// iterate it, and send order must be deterministic for replay.
    by_pg: BTreeMap<PgId, Arc<[LogRecord]>>,
    /// (pg, replica) of every member that acked.
    acked: HashSet<(u32, u8)>,
    /// First ship: the only send time an ack of this batch surely follows.
    shipped_at: SimTime,
    /// Last batch-wide (re)ship; `engine.ack_ns` is timed from it, so a
    /// late ack is credited to the send that plausibly elicited it.
    last_sent: SimTime,
    /// Members that acked a later batch first, this backoff window.
    overtaken: Vec<Overtaken>,
    /// Full retransmits so far.
    attempts: u32,
    next_retry: SimTime,
    /// A hedge went out this backoff window.
    hedged: bool,
    /// Open `engine.batch_quorum` trace span.
    span: SpanId,
}

/// One member that acked a later batch before this one.
struct Overtaken {
    member: (u32, u8),
    /// The first such ack since this batch last went to the member.
    at: SimTime,
    /// When loss detection re-shipped this batch to the member.
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

    /// Shipments of this batch to every member that has not acked it, PG
    /// by PG in slot order.
    fn unacked<'a>(
        &'a self,
        batch_end: Lsn,
        members: &'a [PgMembership],
    ) -> impl Iterator<Item = Shipment> + 'a {
        let all = self.by_pg.iter().flat_map(move |(pg, records)| {
            let slots = membership(members, *pg).slots.iter().enumerate();
            slots.map(move |(slot, &node)| Shipment {
                node,
                segment: SegmentId::new(*pg, slot as u8),
                batch_end,
                records: Arc::clone(records),
                span: self.span,
            })
        });
        all.filter(|s| !self.acked.contains(&(s.segment.pg.0, s.segment.replica)))
    }
}

/// Acks `pg` has given a batch.
fn acks_in(acked: &HashSet<(u32, u8)>, pg: PgId) -> usize {
    acked.iter().filter(|(p, _)| *p == pg.0).count()
}

/// Backoff after `attempts` full retransmits; the jitter de-synchronizes
/// retransmit waves across batches.
fn backoff_delay(attempts: u32, rng: &mut SimRng) -> SimDuration {
    let base = RETRANSMIT_BASE.nanos();
    let capped = base
        .saturating_mul(1u64 << attempts.min(6))
        .min(RETRANSMIT_MAX.nanos());
    let jitter = rng.range_u64(0, base / 4 + 1);
    SimDuration::from_nanos(capped + jitter)
}

/// One PG's shard of a batch, addressed to one member.
pub(crate) struct Shipment {
    pub(crate) node: NodeId,
    pub(crate) segment: SegmentId,
    pub(crate) batch_end: Lsn,
    pub(crate) records: Arc<[LogRecord]>,
    /// The batch's `engine.batch_quorum` span.
    pub(crate) span: SpanId,
}

/// A fresh (first from its member) write ack.
pub(crate) struct Fresh {
    /// Timed from the send the ack answers.
    pub(crate) latency_ns: u64,
    /// The member's new health state, if the ack moved it.
    pub(crate) health: Option<HealthState>,
    /// [`Step::Lost`] for each older batch it exposed as lost there.
    pub(crate) lost: Vec<Step>,
}

/// One step of a re-ship tier, to carry out in order.
pub(crate) enum Step {
    /// A full retransmit found this member unacked.
    Strike(SegmentId),
    /// Loss re-ship to the one member the batch was lost at.
    Lost(Shipment),
    /// Full retransmit past the backoff deadline.
    Retransmit(Shipment),
    /// Early re-ship to a slow member of a PG below write quorum.
    Hedge(Shipment),
    /// Draw the retransmitted batch's next backoff ([`CommitPipeline::backoff`]).
    Backoff(Lsn),
}

pub(crate) struct CommitPipeline {
    staging: Vec<LogRecord>,
    /// Highest CPL among the staged records.
    staging_cpl: Option<Lsn>,
    /// PGs the staged records touch, in first-touch order.
    staging_pgs: Vec<PgId>,
    tracker: DurabilityTracker,
    /// Shipped but not yet durable batches, by batch end.
    outstanding: BTreeMap<Lsn, OutBatch>,
    write_quorum: usize,
    max_batch_records: usize,
    ship_pipeline_depth: usize,
}

impl CommitPipeline {
    pub(crate) fn new(cfg: &EngineConfig) -> Self {
        CommitPipeline {
            staging: Vec::new(),
            staging_cpl: None,
            staging_pgs: Vec::new(),
            tracker: DurabilityTracker::new(cfg.quorum, Lsn::ZERO),
            outstanding: BTreeMap::new(),
            write_quorum: cfg.quorum.write_quorum as usize,
            max_batch_records: cfg.max_batch_records,
            ship_pipeline_depth: cfg.ship_pipeline_depth,
        }
    }

    pub(crate) fn vdl(&self) -> Lsn {
        self.tracker.vdl()
    }

    pub(crate) fn staged(&self) -> usize {
        self.staging.len()
    }

    pub(crate) fn staged_pgs(&self) -> &[PgId] {
        &self.staging_pgs
    }

    /// Batches shipped and not yet folded into the durable prefix.
    pub(crate) fn in_flight(&self) -> usize {
        self.tracker.outstanding()
    }

    /// Forget everything in flight and restart the VDL at `start`.
    pub(crate) fn reset(&mut self, start: Lsn) {
        self.staging.clear();
        self.staging_cpl = None;
        self.staging_pgs.clear();
        self.outstanding.clear();
        self.tracker.reset(start);
    }

    /// Append one sealed mini-transaction's records.
    pub(crate) fn stage(&mut self, records: Vec<LogRecord>) {
        for rec in &records {
            if rec.is_cpl {
                self.staging_cpl = Some(rec.lsn);
            }
            if !self.staging_pgs.contains(&rec.pg) {
                self.staging_pgs.push(rec.pg);
            }
        }
        self.staging.extend(records);
    }

    /// The group-commit rule: ship at once while fewer than
    /// `ship_pipeline_depth` batches are outstanding (`Immediate`) or once
    /// `max_batch_records` are staged (`Size`); otherwise wait for the
    /// deadline (`Deadline`). `None` with nothing staged.
    pub(crate) fn ship_decision(&self) -> Option<ShipReason> {
        if self.staging.is_empty() {
            None
        } else if self.staging.len() >= self.max_batch_records {
            Some(ShipReason::Size)
        } else if self.outstanding.len() < self.ship_pipeline_depth {
            Some(ShipReason::Immediate)
        } else {
            Some(ShipReason::Deadline)
        }
    }

    /// Take everything staged as one batch and register it with the
    /// tracker: its end and its records, or `None` with nothing staged.
    pub(crate) fn cut(&mut self) -> Option<(Lsn, Vec<LogRecord>)> {
        let end = self.staging.last()?.lsn;
        let pgs = std::mem::take(&mut self.staging_pgs);
        self.tracker.register(end, self.staging_cpl.take(), &pgs);
        Some((end, std::mem::take(&mut self.staging)))
    }

    /// Open the outstanding entry of a batch about to ship, split by PG
    /// (§5); its first ship is [`Self::shipments`].
    pub(crate) fn open(&mut self, end: Lsn, records: &[LogRecord], now: SimTime, span: SpanId) {
        let mut shards: BTreeMap<PgId, Vec<LogRecord>> = BTreeMap::new();
        for r in records {
            shards.entry(r.pg).or_default().push(r.clone());
        }
        let batch = OutBatch {
            by_pg: shards.into_iter().map(|(pg, v)| (pg, v.into())).collect(),
            acked: HashSet::default(),
            shipped_at: now,
            last_sent: now,
            overtaken: Vec::new(),
            attempts: 0,
            next_retry: now + RETRANSMIT_BASE,
            hedged: false,
            span,
        };
        self.outstanding.insert(end, batch);
    }

    /// Every shipment of `batch_end` to a member that has not acked it, PG
    /// by PG: on the batch's first ship, all of them.
    pub(crate) fn shipments<'a>(
        &'a self,
        batch_end: Lsn,
        members: &'a [PgMembership],
    ) -> impl Iterator<Item = Shipment> + 'a {
        let ob = self.outstanding.get(&batch_end);
        ob.into_iter()
            .flat_map(move |ob| ob.unacked(batch_end, members))
    }

    /// Take `segment`'s ack of `batch_end`, before it counts toward the
    /// quorum: `None` for a duplicate or a batch no longer outstanding. A
    /// fresh ack feeds the member's health, then loss detection, the first
    /// re-ship tier (RACK on FIFO links): an older batch the member has
    /// not acked `max(LOSS_REORDER, ewma / 2)` after the first ack that
    /// overtook it is lost there, and goes to it alone, while its PG is
    /// below write quorum and at most once per backoff window.
    pub(crate) fn on_ack(
        &mut self,
        health: &mut Health,
        members: &[PgMembership],
        segment: SegmentId,
        batch_end: Lsn,
        now: SimTime,
    ) -> Option<Fresh> {
        let member = (segment.pg.0, segment.replica);
        let ob = self.outstanding.get_mut(&batch_end)?;
        if !ob.acked.insert(member) {
            return None;
        }
        let latency_ns = now.since(ob.sent_to(member)).nanos();
        let acked_shipped = ob.shipped_at;
        let changed = health.note_ack(segment, latency_ns);
        let reorder = SimDuration::from_nanos((health.ewma_ns(segment) / 2.0) as u64);
        let reorder = reorder.max(LOSS_REORDER);
        let mut lost = Vec::new();
        for (&end, ob) in self.outstanding.range_mut(..batch_end) {
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
            if now >= o.at + reorder && acks_in(&ob.acked, segment.pg) < self.write_quorum {
                o.reshipped = Some(now);
                let mut unacked = ob.unacked(end, members);
                lost.extend(unacked.find(|s| s.segment == segment).map(Step::Lost));
            }
        }
        Some(Fresh {
            latency_ns,
            health: changed,
            lost,
        })
    }

    /// Count `segment`'s ack of `batch_end` toward its write quorum: the
    /// new VDL if it moved.
    pub(crate) fn count_ack(&mut self, segment: SegmentId, batch_end: Lsn) -> Option<Lsn> {
        match self.tracker.ack(batch_end, segment.pg, segment.replica) {
            AckOutcome::VdlAdvanced(vdl) => Some(vdl),
            AckOutcome::Pending | AckOutcome::QuorumReached => None,
        }
    }

    /// Drop the oldest batch if the durable prefix covers it: its end, its
    /// span and how many members acked it.
    pub(crate) fn pop_durable(&mut self) -> Option<(Lsn, SpanId, usize)> {
        let entry = self.outstanding.first_entry()?;
        if *entry.key() > self.tracker.durable_to() {
            return None;
        }
        let (end, ob) = entry.remove_entry();
        Some((end, ob.span, ob.acked.len()))
    }

    /// The sweep's two passes, sharing one per-node budget of
    /// [`RETRANSMIT_NODE_CAP`] re-ships:
    /// 1. full retransmit (third tier) of each batch past its backoff
    ///    deadline to every unacked member within budget; every unacked
    ///    member is struck, over budget or not, and the backoff doubles;
    /// 2. hedge (second tier) of each PG below write quorum
    ///    [`HEDGE_AFTER`] after its batch's last batch-wide (re)ship, to
    ///    its `write_quorum - acks` slowest unacked members (highest ack
    ///    EWMA, then lowest slot), once per backoff window.
    pub(crate) fn sweep(
        &mut self,
        now: SimTime,
        members: &[PgMembership],
        health: &Health,
    ) -> Vec<Step> {
        let mut steps = Vec::new();
        let mut node_budget: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut spend = |node: NodeId| {
            let used = node_budget.entry(node).or_insert(0);
            if *used >= RETRANSMIT_NODE_CAP {
                return false;
            }
            *used += 1;
            true
        };
        let due = self
            .outstanding
            .iter_mut()
            .filter(|(_, b)| now >= b.next_retry);
        for (&end, ob) in due.take(SWEEP_BATCHES) {
            let unacked = || ob.unacked(end, members);
            steps.extend(unacked().map(|s| Step::Strike(s.segment)));
            steps.extend(unacked().filter(|s| spend(s.node)).map(Step::Retransmit));
            ob.attempts += 1;
            ob.last_sent = now;
            ob.overtaken.clear();
            ob.hedged = false;
            steps.push(Step::Backoff(end));
        }
        // a batch retransmitted above has `last_sent == now`
        let hedge_due = self.outstanding.iter_mut().filter(|(_, b)| {
            !b.hedged && now < b.next_retry && now.since(b.last_sent) > HEDGE_AFTER
        });
        for (&end, ob) in hedge_due.take(SWEEP_BATCHES) {
            let before = steps.len();
            for pg in ob.by_pg.keys() {
                let acks = acks_in(&ob.acked, *pg);
                if acks >= self.write_quorum {
                    continue;
                }
                let mut lagging: Vec<(f64, Shipment)> = ob
                    .unacked(end, members)
                    .filter(|s| s.segment.pg == *pg)
                    .map(|s| (health.ewma_ns(s.segment), s))
                    .collect();
                lagging.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.segment.cmp(&b.1.segment)));
                let slowest = lagging.into_iter().take(self.write_quorum - acks);
                steps.extend(
                    slowest
                        .filter(|(_, s)| spend(s.node))
                        .map(|(_, s)| Step::Hedge(s)),
                );
            }
            // one hedge per backoff window, even if the budget ate it all
            ob.hedged = true;
            if steps.len() > before {
                ob.last_sent = now;
            }
        }
        steps
    }

    /// Set the next full-retransmit deadline of a batch the sweep just
    /// retransmitted, drawing its jitter from `rng`.
    pub(crate) fn backoff(&mut self, batch_end: Lsn, now: SimTime, rng: &mut SimRng) {
        if let Some(ob) = self.outstanding.get_mut(&batch_end) {
            ob.next_retry = now + backoff_delay(ob.attempts, rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use aurora_log::{RecordBody, TxnId};
    use aurora_quorum::QuorumConfig;
    use aurora_storage::VolumeLayout;

    use super::*;

    /// PG 0 on nodes 10..16 and PG 1 on nodes 20..26.
    fn members() -> Vec<PgMembership> {
        vec![
            PgMembership::new(PgId(0), (10..16).collect()),
            PgMembership::new(PgId(1), (20..26).collect()),
        ]
    }

    fn config(max_batch_records: usize, ship_pipeline_depth: usize) -> EngineConfig {
        let layout = VolumeLayout::new(1_000, 2, QuorumConfig::aurora());
        let mut cfg = EngineConfig::new(layout, members());
        cfg.max_batch_records = max_batch_records;
        cfg.ship_pipeline_depth = ship_pipeline_depth;
        cfg
    }

    fn pipeline() -> CommitPipeline {
        CommitPipeline::new(&config(256, 4))
    }

    fn rec(lsn: u64, pg: u32) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            prev_in_pg: Lsn::ZERO,
            pg: PgId(pg),
            txn: TxnId(1),
            is_cpl: true,
            body: RecordBody::TxnAbort,
        }
    }

    fn at_us(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn at_ms(ms: u64) -> SimTime {
        at_us(ms * 1_000)
    }

    fn seg(pg: u32, replica: u8) -> SegmentId {
        SegmentId::new(PgId(pg), replica)
    }

    /// Stage one record of `pg` at `lsn` and ship it as a batch at `now`.
    fn ship(p: &mut CommitPipeline, lsn: u64, pg: u32, now: SimTime) -> Lsn {
        p.stage(vec![rec(lsn, pg)]);
        let (end, records) = p.cut().expect("staged");
        p.open(end, &records, now, SpanId::NONE);
        end
    }

    fn ack(
        p: &mut CommitPipeline,
        h: &mut Health,
        s: SegmentId,
        end: Lsn,
        now: SimTime,
    ) -> Option<Fresh> {
        p.on_ack(h, &members(), s, end, now)
    }

    /// The loss re-ships in `steps`, as (segment, batch end, node).
    fn lost(steps: &[Step]) -> Vec<(SegmentId, Lsn, NodeId)> {
        steps
            .iter()
            .filter_map(|s| match s {
                Step::Lost(s) => Some((s.segment, s.batch_end, s.node)),
                _ => None,
            })
            .collect()
    }

    fn count(steps: &[Step], f: impl Fn(&Step) -> bool) -> usize {
        steps.iter().filter(|s| f(s)).count()
    }

    #[test]
    fn ship_decision_is_immediate_then_deadline_or_size() {
        let mut p = CommitPipeline::new(&config(3, 2));
        assert_eq!(p.ship_decision(), None, "nothing staged");
        p.stage(vec![rec(1, 0)]);
        assert_eq!(p.ship_decision(), Some(ShipReason::Immediate));
        let (end, records) = p.cut().expect("staged");
        assert_eq!((end, records.len(), p.staged()), (Lsn(1), 1, 0));
        p.open(end, &records, at_ms(0), SpanId::NONE);
        ship(&mut p, 2, 1, at_ms(0));
        assert_eq!(p.in_flight(), 2);
        p.stage(vec![rec(3, 0)]);
        assert_eq!(p.ship_decision(), Some(ShipReason::Deadline), "pipe full");
        p.stage(vec![rec(4, 0), rec(5, 1)]);
        assert_eq!(p.staged_pgs(), &[PgId(0), PgId(1)]);
        assert_eq!(
            p.ship_decision(),
            Some(ShipReason::Size),
            "3 records staged"
        );
    }

    #[test]
    fn first_ship_goes_to_every_member_in_pg_then_slot_order() {
        let mut p = pipeline();
        p.stage(vec![rec(1, 1), rec(2, 0)]);
        let (end, records) = p.cut().expect("staged");
        p.open(end, &records, at_ms(0), SpanId::NONE);
        let members = members();
        let sent: Vec<(SegmentId, NodeId, usize)> = p
            .shipments(end, &members)
            .map(|s| (s.segment, s.node, s.records.len()))
            .collect();
        let want: Vec<(SegmentId, NodeId, usize)> = (0..2)
            .flat_map(|pg| (0..6).map(move |r| (seg(pg, r), 10 * (pg + 1) + r as u32, 1)))
            .collect();
        assert_eq!(sent, want);
    }

    #[test]
    fn a_duplicate_ack_records_no_latency() {
        let (mut p, mut h) = (pipeline(), Health::default());
        let end = ship(&mut p, 1, 0, at_ms(0));
        let fresh = ack(&mut p, &mut h, seg(0, 1), end, at_ms(2)).expect("fresh");
        assert_eq!(fresh.latency_ns, 2_000_000);
        assert_eq!(h.ewma_ns(seg(0, 1)), 2_000_000.0);
        assert!(ack(&mut p, &mut h, seg(0, 1), end, at_ms(3)).is_none());
        assert!(ack(&mut p, &mut h, seg(0, 1), Lsn(9), at_ms(3)).is_none());
        assert_eq!(h.ewma_ns(seg(0, 1)), 2_000_000.0, "no second sample");
    }

    #[test]
    fn a_loss_reships_once_after_the_reordering_window() {
        let (mut p, mut h) = (pipeline(), Health::default());
        let m = seg(0, 2);
        let a = ship(&mut p, 1, 0, at_ms(0));
        let later: Vec<Lsn> = (0..5)
            .map(|i| ship(&mut p, 2 + i, 0, at_us(1_000 + 100 * i)))
            .collect();
        // first overtaking ack: 1 ms latency, so the window is 1 ms from here
        let f = ack(&mut p, &mut h, m, later[0], at_ms(2)).expect("fresh");
        assert!(f.lost.is_empty());
        let f = ack(&mut p, &mut h, m, later[1], at_us(2_900)).expect("fresh");
        assert!(f.lost.is_empty(), "inside the window");
        let f = ack(&mut p, &mut h, m, later[2], at_us(3_000)).expect("fresh");
        assert_eq!(lost(&f.lost), vec![(m, a, 12)]);
        // the member's next ack of `a` is timed from the re-ship
        let f = ack(&mut p, &mut h, m, later[3], at_ms(9)).expect("fresh");
        assert!(f.lost.is_empty(), "once per backoff window");
        let f = ack(&mut p, &mut h, m, a, at_us(3_500)).expect("fresh");
        assert_eq!(f.latency_ns, 500_000);
    }

    #[test]
    fn a_slow_members_window_is_half_its_ewma() {
        let (mut p, mut h) = (pipeline(), Health::default());
        let m = seg(0, 4);
        let a = ship(&mut p, 1, 0, at_ms(0));
        let [b, c, d, e] = [1, 2, 3, 4].map(|i| ship(&mut p, 1 + i, 0, at_ms(i)));
        // ~6 ms acks: the window is ~3 ms from the first overtaking ack (7 ms)
        let f = ack(&mut p, &mut h, m, b, at_ms(7)).expect("fresh");
        assert!(f.lost.is_empty());
        let f = ack(&mut p, &mut h, m, c, at_ms(8)).expect("fresh");
        assert!(f.lost.is_empty(), "the 1 ms floor would fire here");
        let f = ack(&mut p, &mut h, m, d, at_us(9_900)).expect("fresh");
        assert!(
            f.lost.is_empty(),
            "ewma 6.18 ms: the window ends at 10.09 ms"
        );
        let f = ack(&mut p, &mut h, m, e, at_us(10_100)).expect("fresh");
        assert_eq!(lost(&f.lost), vec![(m, a, 14)]);
    }

    #[test]
    fn no_loss_reship_once_the_pg_has_write_quorum() {
        let (mut p, mut h) = (pipeline(), Health::default());
        let a = ship(&mut p, 1, 0, at_ms(0));
        let b = ship(&mut p, 2, 0, at_ms(1));
        let c = ship(&mut p, 3, 0, at_ms(2));
        for r in [0, 1, 3, 4] {
            ack(&mut p, &mut h, seg(0, r), a, at_ms(1));
        }
        assert_eq!(p.count_ack(seg(0, 4), a), None, "the tracker saw no acks");
        ack(&mut p, &mut h, seg(0, 2), b, at_ms(2));
        let f = ack(&mut p, &mut h, seg(0, 2), c, at_ms(5)).expect("fresh");
        assert!(f.lost.is_empty());
    }

    #[test]
    fn a_hedge_goes_to_the_slowest_unacked_members() {
        let (mut p, mut h) = (pipeline(), Health::default());
        let end = ship(&mut p, 1, 0, at_ms(0));
        ack(&mut p, &mut h, seg(0, 0), end, at_ms(1));
        for (r, ewma_ms) in [(1, 5), (2, 9), (3, 9), (4, 1)] {
            h.note_ack(seg(0, r), ewma_ms * 1_000_000);
        }
        assert!(p.sweep(at_ms(4), &members(), &h).is_empty(), "not yet");
        let steps = p.sweep(at_ms(5), &members(), &h);
        let hedged: Vec<SegmentId> = steps
            .iter()
            .map(|s| match s {
                Step::Hedge(s) => s.segment,
                _ => panic!("only hedges"),
            })
            .collect();
        // write quorum 4 minus 1 ack: the three slowest, slot 2 before 3
        assert_eq!(hedged, vec![seg(0, 2), seg(0, 3), seg(0, 1)]);
        assert!(
            p.sweep(at_ms(10), &members(), &h).is_empty(),
            "once per window"
        );
    }

    #[test]
    fn both_sweep_passes_share_one_per_node_cap() {
        let (mut p, h) = (pipeline(), Health::default());
        for lsn in 1..=3 {
            ship(&mut p, lsn, 0, at_ms(0));
        }
        for lsn in 4..=5 {
            ship(&mut p, lsn, 0, at_ms(10));
        }
        let steps = p.sweep(at_ms(15), &members(), &h);
        let strikes = count(&steps, |s| matches!(s, Step::Strike(_)));
        let retransmits = count(&steps, |s| matches!(s, Step::Retransmit(_)));
        let hedges: Vec<(Lsn, NodeId)> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Hedge(s) => Some((s.batch_end, s.node)),
                _ => None,
            })
            .collect();
        assert_eq!((strikes, retransmits), (18, 18));
        // three retransmits used three of each node's four: the first
        // hedged batch takes slots 0..4 to the cap, the second gets none
        assert_eq!(
            hedges,
            vec![(Lsn(4), 10), (Lsn(4), 11), (Lsn(4), 12), (Lsn(4), 13)]
        );
    }

    #[test]
    fn a_full_retransmit_strikes_members_over_budget_too() {
        let (mut p, h) = (pipeline(), Health::default());
        for lsn in 1..=5 {
            ship(&mut p, lsn, 0, at_ms(0));
        }
        let steps = p.sweep(at_ms(15), &members(), &h);
        let strikes = count(&steps, |s| matches!(s, Step::Strike(_)));
        let retransmits = count(&steps, |s| matches!(s, Step::Retransmit(_)));
        let backoffs = count(&steps, |s| matches!(s, Step::Backoff(_)));
        assert_eq!((strikes, retransmits, backoffs), (30, 24, 5));
        // per batch: strikes, then its re-ships, then its backoff
        assert!(matches!(steps[0], Step::Strike(_)));
        assert!(matches!(steps[6], Step::Retransmit(_)));
        assert!(matches!(steps[12], Step::Backoff(end) if end == Lsn(1)));
    }

    #[test]
    fn backoff_doubles_from_15ms_to_the_120ms_cap() {
        let mut rng = SimRng::new(7);
        for (attempts, ms) in [(0, 15), (1, 30), (2, 60), (3, 120), (4, 120), (9, 120)] {
            let extra = backoff_delay(attempts, &mut rng).nanos() - ms * 1_000_000;
            assert!(
                extra <= RETRANSMIT_BASE.nanos() / 4,
                "{attempts}: jitter {extra}"
            );
        }
        // the pipeline: first retransmit at 15 ms, the next 30 ms later
        let (mut p, h) = (pipeline(), Health::default());
        ship(&mut p, 1, 0, at_ms(0));
        let retransmits = |steps: Vec<Step>| count(&steps, |s| matches!(s, Step::Retransmit(_)));
        // hedges aside (the batch is below quorum), nothing is due before 15 ms
        assert_eq!(retransmits(p.sweep(at_us(14_999), &members(), &h)), 0);
        for step in p.sweep(at_ms(15), &members(), &h) {
            if let Step::Backoff(end) = step {
                p.backoff(end, at_ms(15), &mut rng);
            }
        }
        // and then nothing before 45 ms
        assert_eq!(retransmits(p.sweep(at_ms(44), &members(), &h)), 0);
        assert_eq!(retransmits(p.sweep(at_us(48_750), &members(), &h)), 6);
    }

    #[test]
    fn durable_batches_drain_in_order() {
        let (mut p, mut h) = (pipeline(), Health::default());
        let a = ship(&mut p, 1, 0, at_ms(0));
        let b = ship(&mut p, 2, 0, at_ms(0));
        for r in 0..4 {
            ack(&mut p, &mut h, seg(0, r), b, at_ms(1));
            assert_eq!(p.count_ack(seg(0, r), b), None, "a is not durable");
        }
        assert!(p.pop_durable().is_none());
        for r in 0..3 {
            ack(&mut p, &mut h, seg(0, r), a, at_ms(2));
            assert_eq!(p.count_ack(seg(0, r), a), None);
        }
        ack(&mut p, &mut h, seg(0, 3), a, at_ms(2));
        assert_eq!(p.count_ack(seg(0, 3), a), Some(Lsn(2)));
        assert_eq!(p.pop_durable().map(|(end, _, n)| (end, n)), Some((a, 4)));
        assert_eq!(p.pop_durable().map(|(end, _, n)| (end, n)), Some((b, 4)));
        assert!(p.pop_durable().is_none());
    }
}
