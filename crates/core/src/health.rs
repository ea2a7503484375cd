//! Storage-member health as the writer sees it (§4.1's monitoring loop),
//! as a plain struct with no `Ctx`: each call returns the transition (and
//! any suspect report) for the engine to trace and send. DESIGN.md §5g has
//! the why.

use std::collections::BTreeMap;

use aurora_log::{PgId, SegmentId};
use aurora_sim::{SimDuration, SimTime};

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
/// Strikes at which a member becomes [`HealthState::Degraded`]: above the
/// ~5 a crash collects before the control plane's dead-node path fires.
const HEALTH_DEGRADE_STRIKES: u32 = 8;
/// Strike counter ceiling (so recovery does not take forever).
const HEALTH_STRIKE_CAP: u32 = 16;
/// A non-healthy member with no strike for this long resets to healthy.
const HEALTH_IDLE_CLEAR: SimDuration = SimDuration::from_secs(1);

/// One member's score.
#[derive(Debug, Clone, Default)]
struct NodeHealth {
    /// Ack-latency EWMA in nanoseconds (0 = no samples yet).
    ewma_ns: f64,
    /// Saturating counter of recent timeouts / nacks / re-ships; the
    /// state follows from it.
    strikes: u32,
    last_strike: SimTime,
    /// Suspect report already sent for the current degradation episode.
    reported: bool,
}

impl NodeHealth {
    fn state(&self) -> HealthState {
        if self.strikes >= HEALTH_DEGRADE_STRIKES {
            HealthState::Degraded
        } else if self.strikes >= HEALTH_SUSPECT_STRIKES {
            HealthState::Suspect
        } else {
            HealthState::Healthy
        }
    }

    /// Move the strike count by `f`: the new state, if it changed.
    fn restrike(&mut self, f: impl FnOnce(u32) -> u32) -> Option<HealthState> {
        let before = self.state();
        self.strikes = f(self.strikes);
        let after = self.state();
        if after == HealthState::Healthy {
            self.reported = false;
        }
        (after != before).then_some(after)
    }
}

/// Per-(PG, slot) health scores.
#[derive(Default)]
pub(crate) struct Health {
    /// BTreeMap: the idle sweep emits a trace instant per cleared member,
    /// so iteration order must be deterministic.
    members: BTreeMap<SegmentId, NodeHealth>,
    /// Test-only fault (`EngineActor::test_taint_health`): no decay and no
    /// idle reset. Survives [`Health::clear`], so the DST health-convergence
    /// oracle sees the lingering suspects across restarts.
    frozen: bool,
}

impl Health {
    /// Record one bad signal (timeout, nack, unacked slot at a full
    /// retransmit) against `segment`: its new state if that changed, and
    /// whether to report it as suspect. A newly degraded member is reported
    /// only while its PG peers all look healthy (several at once means the
    /// network or this writer is at fault); a suppressed report re-arms on
    /// the member's next strike.
    pub(crate) fn strike(
        &mut self,
        segment: SegmentId,
        now: SimTime,
    ) -> (Option<HealthState>, bool) {
        let h = self.members.entry(segment).or_default();
        h.last_strike = now;
        let changed = h.restrike(|n| (n + 1).min(HEALTH_STRIKE_CAP));
        let wants_report = h.state() == HealthState::Degraded && !h.reported;
        let report = wants_report
            && !self.members.iter().any(|(seg, peer)| {
                seg.pg == segment.pg
                    && seg.replica != segment.replica
                    && peer.state() != HealthState::Healthy
            });
        if report {
            if let Some(h) = self.members.get_mut(&segment) {
                h.reported = true;
            }
        }
        (changed, report)
    }

    /// Fold a fresh (non-duplicate) write-ack's latency into `segment`'s
    /// EWMA and take one strike off: good signals walk a member back down
    /// through suspect to healthy. Returns the new state if it changed.
    pub(crate) fn note_ack(&mut self, segment: SegmentId, latency_ns: u64) -> Option<HealthState> {
        let h = self.members.entry(segment).or_default();
        h.ewma_ns = if h.ewma_ns == 0.0 {
            latency_ns as f64
        } else {
            HEALTH_EWMA_ALPHA * latency_ns as f64 + (1.0 - HEALTH_EWMA_ALPHA) * h.ewma_ns
        };
        if self.frozen {
            return None;
        }
        h.restrike(|n| n.saturating_sub(1))
    }

    /// Idle reset: a non-healthy member with no strike for
    /// [`HEALTH_IDLE_CLEAR`] returns to healthy, since traffic may no
    /// longer flow its way for acks to clear it. Returns those cleared.
    pub(crate) fn decay(&mut self, now: SimTime) -> Vec<SegmentId> {
        let mut cleared = Vec::new();
        if self.frozen {
            return cleared;
        }
        for (seg, h) in self.members.iter_mut() {
            if h.state() != HealthState::Healthy && now.since(h.last_strike) > HEALTH_IDLE_CLEAR {
                h.restrike(|_| 0);
                cleared.push(*seg);
            }
        }
        cleared
    }

    /// `segment`'s ack-latency EWMA in nanoseconds (0 before any ack).
    pub(crate) fn ewma_ns(&self, segment: SegmentId) -> f64 {
        self.members.get(&segment).map_or(0.0, |h| h.ewma_ns)
    }

    pub(crate) fn state(&self, segment: SegmentId) -> HealthState {
        self.members
            .get(&segment)
            .map_or(HealthState::Healthy, NodeHealth::state)
    }

    /// Members currently in a non-healthy state.
    pub(crate) fn non_healthy(&self) -> usize {
        self.members
            .values()
            .filter(|h| h.state() != HealthState::Healthy)
            .count()
    }

    /// Mark `segment` degraded and freeze every score (see `frozen`).
    pub(crate) fn taint(&mut self, segment: SegmentId) {
        self.frozen = true;
        self.members.entry(segment).or_default().strikes = HEALTH_DEGRADE_STRIKES;
    }

    /// Forget `pg`'s scores: its slot→node mapping changed.
    pub(crate) fn forget_pg(&mut self, pg: PgId) {
        self.members.retain(|seg, _| seg.pg != pg);
    }

    /// Forget every score; the frozen fault stays.
    pub(crate) fn clear(&mut self) {
        self.members.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(pg: u32, replica: u8) -> SegmentId {
        SegmentId::new(PgId(pg), replica)
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn strikes_escalate_to_suspect_then_degraded_and_cap() {
        let mut h = Health::default();
        let s = seg(0, 2);
        let mut changes = Vec::new();
        for i in 1..=20u64 {
            let (changed, _) = h.strike(s, at_ms(i));
            if let Some(state) = changed {
                changes.push((i, state));
            }
        }
        assert_eq!(
            changes,
            vec![(3, HealthState::Suspect), (8, HealthState::Degraded)]
        );
        // capped at 16: eight good acks leave it degraded, the ninth not
        for _ in 0..8 {
            h.note_ack(s, 1_000);
        }
        assert_eq!(h.state(s), HealthState::Degraded, "16 - 8 = 8 strikes");
        assert_eq!(h.note_ack(s, 1_000), Some(HealthState::Suspect));
        assert_eq!(h.non_healthy(), 1);
    }

    #[test]
    fn acks_fold_into_the_ewma() {
        let mut h = Health::default();
        let s = seg(0, 0);
        assert_eq!(h.ewma_ns(s), 0.0);
        assert_eq!(h.note_ack(s, 1_000), None);
        assert_eq!(h.ewma_ns(s), 1_000.0);
        h.note_ack(s, 2_000);
        assert!((h.ewma_ns(s) - 1_200.0).abs() < 1e-9);
    }

    #[test]
    fn idle_members_clear_after_one_second() {
        let mut h = Health::default();
        let s = seg(1, 4);
        for _ in 0..3 {
            h.strike(s, at_ms(10));
        }
        assert_eq!(h.state(s), HealthState::Suspect);
        assert!(h.decay(at_ms(1_010)).is_empty(), "exactly 1 s is not idle");
        assert_eq!(h.decay(at_ms(1_011)), vec![s]);
        assert_eq!(h.state(s), HealthState::Healthy);
        assert!(h.decay(at_ms(5_000)).is_empty(), "healthy stays quiet");
    }

    #[test]
    fn report_waits_for_isolated_degradation_and_rearms() {
        let mut h = Health::default();
        let (bad, peer) = (seg(0, 1), seg(0, 5));
        for _ in 0..3 {
            h.strike(peer, at_ms(0));
        }
        for i in 0..7 {
            assert!(!h.strike(bad, at_ms(i)).1, "not degraded yet");
        }
        let eighth = h.strike(bad, at_ms(7));
        assert_eq!(eighth.0, Some(HealthState::Degraded));
        assert!(!eighth.1, "a suspect peer suppresses the report");
        for _ in 0..3 {
            h.note_ack(peer, 1_000);
        }
        assert_eq!(h.state(peer), HealthState::Healthy);
        assert!(h.strike(bad, at_ms(8)).1, "re-armed: reported now");
        assert!(!h.strike(bad, at_ms(9)).1, "once per episode");
        // another PG's trouble does not count
        let mut h = Health::default();
        for _ in 0..3 {
            h.strike(seg(1, 5), at_ms(0));
        }
        let reports = (0..8).filter(|i| h.strike(bad, at_ms(*i)).1).count();
        assert_eq!(reports, 1);
    }

    #[test]
    fn a_frozen_tracker_neither_decays_nor_clears() {
        let mut h = Health::default();
        let s = seg(0, 3);
        h.taint(s);
        assert_eq!(h.state(s), HealthState::Degraded);
        assert_eq!(h.note_ack(s, 500), None);
        assert_eq!(h.ewma_ns(s), 500.0, "samples still fold in");
        assert!(h.decay(at_ms(10_000)).is_empty());
        assert_eq!(h.state(s), HealthState::Degraded);
        h.clear();
        for _ in 0..3 {
            h.strike(s, at_ms(10_000));
        }
        assert!(h.decay(at_ms(20_000)).is_empty(), "frozen survives clear");
        assert_eq!(h.state(s), HealthState::Suspect);
    }

    #[test]
    fn forgetting_a_pg_keeps_the_others() {
        let mut h = Health::default();
        for _ in 0..3 {
            h.strike(seg(0, 0), at_ms(0));
            h.strike(seg(1, 0), at_ms(0));
        }
        h.forget_pg(PgId(0));
        assert_eq!(h.state(seg(0, 0)), HealthState::Healthy);
        assert_eq!(h.state(seg(1, 0)), HealthState::Suspect);
    }
}
