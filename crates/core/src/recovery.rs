//! Writer crash recovery (§4.3) as a plain state machine: SCL discovery
//! (→ VCL), CPL probes (→ VDL), truncation under a new epoch, then the
//! transaction and undo scans whose logical undo the engine replays online
//! (DESIGN.md §4d). The decision itself lives in [`aurora_quorum::recovery`];
//! this struct folds replies and says what to ask next. [`Recovery::requests`]
//! is the only code that builds a recovery request, so a phase's entry and
//! its 50 ms resend send the same thing.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet};

use aurora_log::{LogRecord, Lsn, PgId, RecordBody, SegmentId, TxnId};
use aurora_quorum::recovery::{self as decide, SegmentStates};
use aurora_quorum::{TruncationRange, VolumeEpoch};
use aurora_sim::hash::FxHashMap as HashMap;
use aurora_sim::{Msg, SimTime, SpanId};
use aurora_storage::wire as swire;

use crate::engine::EngineConfig;
use crate::txn::decode_undo;
use crate::wire::Op;

/// A storage reply to one of recovery's requests.
pub(crate) enum Reply {
    State(swire::SegmentStateResp),
    Cpl(swire::CplBelowResp),
    Truncated(swire::TruncateAck),
    TxnScan(swire::TxnScanResp),
    UndoScan(swire::UndoScanResp),
}

impl Reply {
    /// Take `msg` if it is a recovery reply; hand it back otherwise.
    pub(crate) fn from_msg(msg: Msg) -> Result<Reply, Msg> {
        msg.downcast()
            .map(Reply::State)
            .or_else(|m| m.downcast().map(Reply::Cpl))
            .or_else(|m| m.downcast().map(Reply::Truncated))
            .or_else(|m| m.downcast().map(Reply::TxnScan))
            .or_else(|m| m.downcast().map(Reply::UndoScan))
    }
}

/// What a reply moved recovery on to.
pub(crate) enum Advance {
    /// Phase 1 closed at this VCL; the CPL probes are due.
    Vcl(Lsn),
    /// Phase 2 closed: truncate above the new VDL (`range.above`).
    Truncate(TruncationRange),
    /// Truncation or the transaction scan closed; the next scan is due.
    Scan,
    /// Every phase is done.
    Recovered(Recovered),
}

/// The recovered volume, for the engine to install.
#[derive(Debug, PartialEq)]
pub(crate) struct Recovered {
    pub(crate) vdl: Lsn,
    /// Each PG's true chain tail (`Lsn::ZERO` for a provably empty PG):
    /// the new epoch's first record per PG backlinks here.
    pub(crate) tails: HashMap<PgId, Lsn>,
    pub(crate) next_txn: u64,
    /// In-flight transactions with logged undo, ascending, each with its
    /// inverse ops newest first.
    pub(crate) rollbacks: Vec<(TxnId, Vec<Op>)>,
    /// In-flight transactions that logged nothing to undo.
    pub(crate) begin_only: Vec<TxnId>,
    pub(crate) undone_ops: u64,
}

/// Where a recovery stands; each phase carries what its requests need.
#[derive(Default)]
enum Phase {
    /// 1: collecting SCLs from a read quorum of every PG.
    #[default]
    Scl,
    /// 2: probing each PG's highest CPL at or below this VCL.
    Cpl(Lsn),
    /// 3: truncating under this range.
    Truncate(TruncationRange),
    /// 4a: scanning PG 0's transaction chain up to this VDL.
    TxnScan(Lsn),
    /// 4b: fetching these in-flight transactions' records up to this VDL.
    UndoScan(Lsn, Vec<TxnId>),
}

/// One recovery in progress.
#[derive(Default)]
pub(crate) struct Recovery {
    read_quorum: usize,
    write_quorum: usize,
    lal: u64,
    /// The volume's PGs, in membership order, each with its slot count.
    pgs: Vec<(PgId, u8)>,
    pub(crate) started: SimTime,
    /// Open `engine.recovery` trace span (NONE when tracing is off).
    pub(crate) span: SpanId,
    phase: Phase,
    /// Phase-1 replies per PG. Keeps folding in later phases, which pick
    /// their targets from it.
    scls: BTreeMap<PgId, SegmentStates>,
    max_epoch: VolumeEpoch,
    /// The highest VDL hint any segment at `max_epoch` reported. A segment
    /// at an older epoch missed a truncation that may have annulled
    /// records below its hint, so its hint does not count.
    published: Lsn,
    cpls: BTreeMap<PgId, Lsn>,
    truncate_acks: BTreeMap<PgId, BTreeSet<u8>>,
    /// Post-truncation SCL of a replica that held the PG's whole chain up to
    /// the new VDL (a scan candidate): the PG's true chain tail.
    tails: BTreeMap<PgId, Lsn>,
    max_txn_seen: u64,
    undo_records: Vec<LogRecord>,
    undo_done: BTreeSet<PgId>,
}

impl Recovery {
    pub(crate) fn start(cfg: &EngineConfig, started: SimTime, span: SpanId) -> Self {
        let pgs = cfg.memberships.iter().map(|m| (m.pg, m.slots.len() as u8));
        Recovery {
            read_quorum: cfg.quorum.read_quorum as usize,
            write_quorum: cfg.quorum.write_quorum as usize,
            lal: cfg.lal,
            pgs: pgs.collect(),
            started,
            span,
            ..Default::default()
        }
    }

    /// Replicas holding `pg`'s whole chain up to `bar`
    /// ([`decide::scan_candidates`]); phase 1 heard from every PG.
    fn complete(&self, pg: PgId, bar: Lsn) -> Vec<u8> {
        decide::scan_candidates(&self.scls[&pg], bar)
    }

    /// Every request the current phase still needs answered, addressed to
    /// a segment (the engine maps it to the node hosting it now). Phases 1
    /// and 3 ask each slot that has not answered; phases 2, 4a and 4b ask
    /// every complete replica of each PG still owing an answer, so one
    /// dead replica costs nothing while another can serve.
    pub(crate) fn requests(&self) -> Vec<(SegmentId, Msg)> {
        let mut out = Vec::new();
        for (i, &(pg, slots)) in self.pgs.iter().enumerate() {
            let all = 0..slots;
            let slots: Vec<u8> = match &self.phase {
                Phase::Scl => all
                    .filter(|s| !self.scls.get(&pg).is_some_and(|h| h.contains_key(s)))
                    .collect(),
                Phase::Cpl(vcl) if !self.cpls.contains_key(&pg) => self.complete(pg, *vcl),
                Phase::Truncate(_) => all
                    .filter(|s| !self.truncate_acks.get(&pg).is_some_and(|a| a.contains(s)))
                    .collect(),
                Phase::TxnScan(vdl) if i == 0 => self.complete(pg, *vdl),
                Phase::UndoScan(vdl, _) if !self.undo_done.contains(&pg) => self.complete(pg, *vdl),
                _ => Vec::new(),
            };
            for slot in slots {
                let segment = SegmentId::new(pg, slot);
                let msg = match self.phase {
                    Phase::Scl => Msg::new(swire::SegmentStateReq { segment }),
                    Phase::Cpl(at) => Msg::new(swire::CplBelowReq { segment, at }),
                    Phase::Truncate(range) => Msg::new(swire::Truncate { segment, range }),
                    Phase::TxnScan(upto) => Msg::new(swire::TxnScanReq { segment, upto }),
                    Phase::UndoScan(upto, ref txns) => Msg::new(swire::UndoScanReq {
                        segment,
                        txns: txns.clone(),
                        upto,
                    }),
                };
                out.push((segment, msg));
            }
        }
        out
    }

    /// Fold one reply. Segment states fold in every phase; every other
    /// reply folds only in the phase that asked for it, so duplicates and
    /// stragglers are inert. Several complete replicas may answer one PG:
    /// CPLs fold by max (each is a real CPL at or below the VCL), the
    /// first transaction scan wins and undo scans are keyed by PG — every
    /// complete replica holds the same chain prefix up to the VDL, so
    /// their scans agree.
    pub(crate) fn on_reply(&mut self, reply: Reply) -> Option<Advance> {
        match (reply, &self.phase) {
            (Reply::State(r), _) => {
                let pg = self.scls.entry(r.segment.pg).or_default();
                pg.insert(r.segment.replica, (r.scl, r.highest));
                match r.epoch.cmp(&self.max_epoch) {
                    Ordering::Greater => (self.max_epoch, self.published) = (r.epoch, r.vdl),
                    Ordering::Equal => self.published = self.published.max(r.vdl),
                    Ordering::Less => {}
                }
            }
            (Reply::Cpl(r), Phase::Cpl(_)) => {
                let cpl = self.cpls.entry(r.segment.pg).or_default();
                *cpl = (*cpl).max(r.cpl);
            }
            (Reply::Truncated(ack), Phase::Truncate(range)) => {
                let (pg, slot, vdl) = (ack.segment.pg, ack.segment.replica, range.above);
                self.truncate_acks.entry(pg).or_default().insert(slot);
                if self.complete(pg, vdl).contains(&slot) {
                    let tail = self.tails.entry(pg).or_default();
                    *tail = (*tail).max(ack.scl);
                }
            }
            (Reply::TxnScan(r), Phase::TxnScan(vdl)) => {
                let finished: BTreeSet<TxnId> = r.finished.iter().copied().collect();
                let begun = r.begun.iter().filter(|t| !finished.contains(t));
                self.phase = Phase::UndoScan(*vdl, begun.copied().collect());
                let seen = r.begun.iter().chain(&r.finished).map(|t| t.0).max();
                self.max_txn_seen = seen.unwrap_or(0);
                return Some(Advance::Scan);
            }
            (Reply::UndoScan(r), Phase::UndoScan(..)) => {
                if self.undo_done.insert(r.segment.pg) {
                    self.undo_records.extend(r.records);
                }
            }
            _ => return None,
        }
        self.close_phase()
    }

    /// Close the current phase if every PG has what it needs.
    fn close_phase(&mut self) -> Option<Advance> {
        let mut pgs = self.pgs.iter().map(|(pg, _)| pg);
        match self.phase {
            Phase::Scl => {
                if !pgs.all(|pg| self.scls.get(pg).map_or(0, BTreeMap::len) >= self.read_quorum) {
                    return None;
                }
                let states = self.pgs.iter().map(|(pg, _)| &self.scls[pg]);
                let vcl = decide::vcl(states, self.published);
                self.phase = Phase::Cpl(vcl);
                Some(Advance::Vcl(vcl))
            }
            Phase::Cpl(vcl) => {
                if !pgs.all(|pg| self.cpls.contains_key(pg)) {
                    return None;
                }
                let vdl = decide::vdl(vcl, self.cpls.values().copied());
                let range = decide::truncation_range(self.max_epoch, vdl, self.lal);
                self.phase = Phase::Truncate(range);
                Some(Advance::Truncate(range))
            }
            Phase::Truncate(range) => {
                let done = pgs.all(|pg| {
                    let acks = self.truncate_acks.get(pg).map_or(0, BTreeSet::len);
                    acks >= self.write_quorum && self.tails.contains_key(pg)
                });
                if !done {
                    return None;
                }
                self.phase = Phase::TxnScan(range.above);
                Some(Advance::Scan)
            }
            Phase::TxnScan(_) => None,
            Phase::UndoScan(vdl, ref mut in_flight) => {
                if !pgs.all(|pg| self.undo_done.contains(pg)) {
                    return None;
                }
                let in_flight = std::mem::take(in_flight);
                Some(Advance::Recovered(self.recovered(vdl, in_flight)))
            }
        }
    }

    fn recovered(&self, vdl: Lsn, in_flight: Vec<TxnId>) -> Recovered {
        // logical undo, grouped per transaction, newest first within each
        let mut per_txn: BTreeMap<TxnId, Vec<(Lsn, Op)>> = BTreeMap::new();
        for r in &self.undo_records {
            if let RecordBody::Undo { data } = &r.body {
                if let Some((t, op)) = decode_undo(data) {
                    if in_flight.contains(&t) {
                        per_txn.entry(t).or_default().push((r.lsn, op));
                    }
                }
            }
        }
        let mut undone_ops = 0;
        let rollbacks: Vec<(TxnId, Vec<Op>)> = per_txn
            .into_iter()
            .map(|(t, mut ops)| {
                ops.sort_by_key(|(lsn, _)| Reverse(*lsn));
                ops.dedup_by_key(|(lsn, _)| *lsn);
                undone_ops += ops.len() as u64;
                (t, ops.into_iter().map(|(_, op)| op).collect())
            })
            .collect();
        let begin_only = in_flight
            .into_iter()
            .filter(|t| rollbacks.binary_search_by_key(t, |(r, _)| *r).is_err())
            .collect();
        Recovered {
            vdl,
            tails: self.tails.iter().map(|(pg, tail)| (*pg, *tail)).collect(),
            next_txn: self.max_txn_seen + 1,
            rollbacks,
            begin_only,
            undone_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::encode_undo;
    use aurora_quorum::QuorumConfig;
    use aurora_storage::{PgMembership, VolumeLayout};

    /// A volume of two PGs of six slots each.
    fn start() -> Recovery {
        let memberships = (0..2u32)
            .map(|p| PgMembership::new(PgId(p), (0..6).map(|s| 10 * p + s).collect()))
            .collect();
        let layout = VolumeLayout::new(16, 2, QuorumConfig::aurora());
        let cfg = EngineConfig::new(layout, memberships);
        Recovery::start(&cfg, SimTime::ZERO, SpanId::NONE)
    }

    fn seg(pg: u32, slot: u8) -> SegmentId {
        SegmentId::new(PgId(pg), slot)
    }

    fn state(pg: u32, slot: u8, scl: u64, highest: u64) -> Reply {
        hinted(pg, slot, scl, highest, 3, 0)
    }

    /// A phase-1 reply from a segment at `epoch` holding VDL hint `vdl`.
    fn hinted(pg: u32, slot: u8, scl: u64, highest: u64, epoch: u64, vdl: u64) -> Reply {
        Reply::State(swire::SegmentStateResp {
            segment: seg(pg, slot),
            scl: Lsn(scl),
            highest: Lsn(highest),
            epoch: VolumeEpoch(epoch),
            vdl: Lsn(vdl),
        })
    }

    fn cpl(pg: u32, slot: u8, cpl: u64) -> Reply {
        Reply::Cpl(swire::CplBelowResp {
            segment: seg(pg, slot),
            cpl: Lsn(cpl),
        })
    }

    fn truncated(pg: u32, slot: u8, scl: u64) -> Reply {
        Reply::Truncated(swire::TruncateAck {
            segment: seg(pg, slot),
            epoch: VolumeEpoch(4),
            scl: Lsn(scl),
        })
    }

    /// An undo scan answered by `slot` of `pg`: one undo record of txn 6,
    /// deleting `key`.
    fn undo_scan(pg: u32, slot: u8, lsn: u64, key: u64) -> Reply {
        let record = LogRecord {
            lsn: Lsn(lsn),
            prev_in_pg: Lsn::ZERO,
            pg: PgId(pg),
            txn: TxnId(6),
            is_cpl: true,
            body: RecordBody::Undo {
                data: encode_undo(TxnId(6), &Op::Delete(key)),
            },
        };
        Reply::UndoScan(swire::UndoScanResp {
            segment: seg(pg, slot),
            records: vec![record],
        })
    }

    /// Phase-1 replies: PG 0's max SCL, 80, caps the VCL. PG 0 slots
    /// {0, 4} and PG 1 slots {1, 2} cover it; the others lag.
    fn phase1() -> Vec<Reply> {
        vec![
            state(0, 0, 80, 80),
            state(0, 3, 50, 84),
            state(1, 1, 90, 90),
            state(1, 2, 85, 85),
            state(0, 4, 80, 80),
            state(1, 5, 70, 70),
        ]
    }

    /// A whole recovery: txns 6 and 7 are in flight; 6 logged an undo
    /// record in each PG, 7 logged none.
    fn script() -> Vec<Reply> {
        let mut replies = phase1();
        replies.extend([cpl(0, 0, 75), cpl(0, 4, 78), cpl(1, 1, 70)]);
        for (pg, slot, scl) in [(0, 0, 78), (0, 1, 0), (0, 2, 0), (0, 3, 0)] {
            replies.push(truncated(pg, slot, scl));
        }
        for (pg, slot, scl) in [(1, 1, 70), (1, 3, 0), (1, 4, 0), (1, 5, 0)] {
            replies.push(truncated(pg, slot, scl));
        }
        replies.push(Reply::TxnScan(swire::TxnScanResp {
            segment: seg(0, 0),
            begun: vec![TxnId(5), TxnId(6), TxnId(7)],
            finished: vec![TxnId(5)],
        }));
        replies.push(undo_scan(0, 0, 60, 1));
        replies.push(undo_scan(1, 1, 65, 2));
        replies
    }

    /// Feed `replies` in order; the outcome, once recovery finishes.
    fn run(replies: Vec<Reply>) -> Option<Recovered> {
        let mut rec = start();
        replies
            .into_iter()
            .find_map(|reply| match rec.on_reply(reply) {
                Some(Advance::Recovered(done)) => Some(done),
                _ => None,
            })
    }

    /// Feed `replies` in order; the first VCL and truncation they reach.
    fn decisions(replies: Vec<Reply>) -> (Option<Lsn>, Option<TruncationRange>) {
        let mut rec = start();
        let (mut vcl, mut range) = (None, None);
        for reply in replies {
            match rec.on_reply(reply) {
                Some(Advance::Vcl(at)) => vcl = vcl.or(Some(at)),
                Some(Advance::Truncate(r)) => range = range.or(Some(r)),
                _ => {}
            }
        }
        (vcl, range)
    }

    /// The segments `rec` asks next.
    fn targets(rec: &Recovery) -> Vec<SegmentId> {
        rec.requests().iter().map(|r| r.0).collect()
    }

    /// (segment, rendered request) pairs, comparable across calls.
    fn render(reqs: Vec<(SegmentId, Msg)>) -> Vec<(SegmentId, String)> {
        let text = |m: &Msg| {
            let state = m
                .downcast_ref::<swire::SegmentStateReq>()
                .map(|r| format!("{r:?}"));
            let cpl = || {
                m.downcast_ref::<swire::CplBelowReq>()
                    .map(|r| format!("{r:?}"))
            };
            let trunc = || {
                m.downcast_ref::<swire::Truncate>()
                    .map(|r| format!("{r:?}"))
            };
            let txns = || {
                m.downcast_ref::<swire::TxnScanReq>()
                    .map(|r| format!("{r:?}"))
            };
            let undo = || {
                m.downcast_ref::<swire::UndoScanReq>()
                    .map(|r| format!("{r:?}"))
            };
            state
                .or_else(cpl)
                .or_else(trunc)
                .or_else(txns)
                .or_else(undo)
        };
        reqs.iter()
            .map(|(seg, m)| (*seg, text(m).expect("a recovery request")))
            .collect()
    }

    #[test]
    fn requests_depend_on_state_only() {
        let mut rec = start();
        let entry = render(rec.requests());
        assert_eq!(entry.len(), 12, "phase 1 asks every slot");
        assert_eq!(render(rec.requests()), entry, "a resend repeats the entry");
        assert!(rec.on_reply(state(0, 0, 80, 80)).is_none());
        let mut unanswered: Vec<SegmentId> = (1..6).map(|s| seg(0, s)).collect();
        unanswered.extend((0..6).map(|s| seg(1, s)));
        assert_eq!(targets(&rec), unanswered);
        for reply in script() {
            let advance = rec.on_reply(reply);
            let entry = render(rec.requests());
            assert_eq!(render(rec.requests()), entry, "a resend repeats the entry");
            if matches!(
                advance,
                Some(Advance::Vcl(_) | Advance::Truncate(_) | Advance::Scan)
            ) {
                assert!(!entry.is_empty(), "a new phase asks for something");
            }
        }
    }

    #[test]
    fn cpl_probes_ask_every_slot_whose_scl_covers_the_vcl() {
        let mut rec = start();
        let advances: Vec<_> = phase1().into_iter().map(|r| rec.on_reply(r)).collect();
        assert!(matches!(advances.last(), Some(Some(Advance::Vcl(Lsn(80))))));
        let requests = rec.requests();
        for (segment, m) in &requests {
            let probe: &swire::CplBelowReq = m.downcast_ref().expect("a CPL probe");
            assert_eq!((probe.segment, probe.at), (*segment, Lsn(80)));
        }
        let want = [seg(0, 0), seg(0, 4), seg(1, 1), seg(1, 2)];
        assert_eq!(targets(&rec), want);
        // a PG that has answered is not asked again
        assert!(rec.on_reply(cpl(1, 2, 70)).is_none());
        assert_eq!(targets(&rec), [seg(0, 0), seg(0, 4)]);
    }

    #[test]
    fn full_recovery_outcome() {
        let done = run(script()).expect("recovers");
        assert_eq!(
            done.vdl,
            Lsn(78),
            "the highest CPL any complete replica holds"
        );
        assert_eq!(done.tails[&PgId(0)], Lsn(78));
        assert_eq!(done.tails[&PgId(1)], Lsn(70));
        assert_eq!(done.next_txn, 8);
        let newest_first = vec![Op::Delete(2), Op::Delete(1)];
        assert_eq!(done.rollbacks, vec![(TxnId(6), newest_first)]);
        assert_eq!(done.begin_only, vec![TxnId(7)]);
        assert_eq!(done.undone_ops, 2);
    }

    /// PG 1's read quorum (slots 1, 2, 5) shows nothing past 60 while PG 0
    /// went on to 80; PG 0's slot 0 reports VDL hint `hint` at `epoch`.
    fn quiet_pg1(epoch: u64, hint: u64) -> Vec<Reply> {
        vec![
            hinted(0, 0, 80, 80, epoch, hint),
            state(0, 3, 50, 84),
            state(0, 4, 80, 80),
            state(1, 1, 60, 60),
            state(1, 2, 60, 60),
            state(1, 5, 40, 60),
        ]
    }

    #[test]
    fn an_unseen_record_above_a_quiet_pg_is_truncated() {
        // slots 0, 3 and 4 of PG 1 did not answer and may hold a minority
        // record at 70: PG 1 caps the VCL at its max SCL, so the record
        // falls inside the truncation
        let mut replies = quiet_pg1(3, 0);
        replies.extend([cpl(0, 4, 58), cpl(1, 2, 55)]);
        let (vcl, range) = decisions(replies);
        assert_eq!(vcl, Some(Lsn(60)));
        let range = range.expect("truncates");
        assert_eq!(range.above, Lsn(58));
        assert!(range.annuls(Lsn(70)));
    }

    #[test]
    fn a_published_vdl_keeps_commits_past_a_quiet_pg() {
        // the writer published VDL 78, so nothing of PG 1 lies in (60, 78]:
        // PG 1's complete replicas are the ones holding all of it, and one
        // of their truncation acks gives its tail
        let mut replies = quiet_pg1(3, 78);
        replies.extend([cpl(0, 4, 78), cpl(1, 2, 55)]);
        for (pg, slot, scl) in [(0, 0, 78), (0, 1, 0), (0, 2, 0), (0, 3, 0)] {
            replies.push(truncated(pg, slot, scl));
        }
        for (pg, slot, scl) in [(1, 5, 40), (1, 3, 0), (1, 4, 0), (1, 2, 60)] {
            replies.push(truncated(pg, slot, scl));
        }
        replies.extend(script().split_off(17));
        let done = run(replies).expect("recovers");
        assert_eq!(done.vdl, Lsn(78), "the published VDL survives");
        assert_eq!(done.tails[&PgId(1)], Lsn(60));
    }

    #[test]
    fn a_hint_from_a_stale_epoch_does_not_count() {
        // slot 0 of PG 0 missed the epoch-3 truncation: its hint may cover
        // records that truncation annulled; the order replies arrive in
        // does not matter
        let reversed = |replies: Vec<Reply>| replies.into_iter().rev().collect();
        assert_eq!(decisions(quiet_pg1(2, 78)).0, Some(Lsn(60)));
        assert_eq!(decisions(reversed(quiet_pg1(2, 78))).0, Some(Lsn(60)));
        assert_eq!(decisions(reversed(quiet_pg1(3, 78))).0, Some(Lsn(78)));
    }

    #[test]
    fn duplicate_replies_are_idempotent() {
        let once = run(script()).expect("recovers");
        let twice = script().into_iter().zip(script()).flat_map(|(a, b)| [a, b]);
        assert_eq!(run(twice.collect()), Some(once));
    }

    #[test]
    fn reply_order_does_not_change_the_outcome() {
        let forward = run(script()).expect("recovers");
        // PG 0's two CPL answers swap (last-wins would take 75, not 78),
        // as do its first two truncation acks; another complete replica's
        // undo scan of PG 0 arrives before slot 0's
        let mut replies = script();
        replies.swap(6, 7);
        replies.swap(9, 10);
        replies.insert(replies.len() - 2, undo_scan(0, 4, 60, 1));
        assert_eq!(run(replies), Some(forward));
    }
}
