//! The §4.3 recovery decision as pure functions.
//!
//! A recovering writer "contacts for each PG a read quorum of segments",
//! takes the highest CPL at or below the volume complete LSN as the new
//! VDL, and truncates everything above it under a fresh epoch. These
//! functions are that decision and nothing else: they see only the replies
//! collected so far, so a bounded explorer can drive them without a
//! simulator.

use std::collections::BTreeMap;

use aurora_log::{Lsn, LAL_DEFAULT};

use crate::epoch::{TruncationRange, VolumeEpoch};

/// One PG's phase-1 replies: replica slot → (SCL, highest LSN held).
/// Ordered by slot, so every walk over it is deterministic.
pub type SegmentStates = BTreeMap<u8, (Lsn, Lsn)>;

/// The highest SCL any replying segment of the PG reported.
fn max_scl(states: &SegmentStates) -> Lsn {
    states
        .values()
        .map(|(scl, _)| *scl)
        .max()
        .unwrap_or(Lsn::ZERO)
}

/// The volume complete LSN from a read quorum of every PG, given
/// `published`, the highest VDL the dead writer is known to have
/// published. Per PG, the max SCL `m` across a read quorum bounds every
/// record that could have reached a write quorum (any 3 of 6 intersect any
/// 4 of 6); the VCL is the least `m`. A provably empty PG (no replying
/// segment holds any record) does not cap it. Every record at or below a
/// published VDL reached a write quorum, so the VCL is never below
/// `published`: a PG the newest batches skipped cannot cap it under
/// commits the writer already acknowledged.
pub fn vcl<'a>(pgs: impl IntoIterator<Item = &'a SegmentStates>, published: Lsn) -> Lsn {
    let cap = pgs
        .into_iter()
        .filter(|states| states.values().any(|(_, highest)| !highest.is_zero()))
        .map(max_scl)
        .min()
        .unwrap_or(Lsn::ZERO);
    cap.max(published)
}

/// The new VDL: the highest CPL at or below the VCL.
pub fn vdl(vcl: Lsn, cpls: impl IntoIterator<Item = Lsn>) -> Lsn {
    cpls.into_iter()
        .filter(|cpl| *cpl <= vcl)
        .max()
        .unwrap_or(Lsn::ZERO)
}

/// The truncation a recovery issues: an epoch above every epoch a segment
/// reported, annulling `(vdl, vdl + lal + LAL_DEFAULT]` — provably above
/// any LSN the dead incarnation could have allocated.
pub fn truncation_range(max_epoch: VolumeEpoch, vdl: Lsn, lal: u64) -> TruncationRange {
    TruncationRange {
        epoch: max_epoch.next(),
        above: vdl,
        ceiling: Lsn(vdl.0 + lal + LAL_DEFAULT),
    }
}

/// Replicas of one PG that hold its whole chain up to `bar`, in slot
/// order: every replica whose SCL reaches `bar`, clamped to the PG's max
/// SCL — a PG whose last record lies below `bar` (it took none up to a
/// published VDL, or was never written) is served by every replica
/// holding all of it. They hold the same chain prefix, so any of them can
/// answer a recovery scan, and a truncation ack from one reports the PG's
/// true chain tail.
pub fn scan_candidates(states: &SegmentStates, bar: Lsn) -> Vec<u8> {
    let bar = bar.min(max_scl(states));
    states
        .iter()
        .filter(|(_, (scl, _))| *scl >= bar)
        .map(|(slot, _)| *slot)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn states(replies: &[(u8, u64, u64)]) -> SegmentStates {
        replies
            .iter()
            .map(|&(slot, scl, highest)| (slot, (Lsn(scl), Lsn(highest))))
            .collect()
    }

    #[test]
    fn vcl_is_min_over_non_empty_pgs_of_the_max_scl() {
        let a = states(&[(0, 40, 50), (3, 70, 75), (5, 60, 80)]);
        let b = states(&[(1, 90, 90), (2, 55, 95), (4, 10, 99)]);
        let empty = states(&[(0, 0, 0), (1, 0, 0), (2, 0, 0)]);
        assert_eq!(vcl([&a, &b], Lsn::ZERO), Lsn(70));
        assert_eq!(vcl([&b, &empty], Lsn::ZERO), Lsn(90));
    }

    #[test]
    fn a_written_pg_caps_the_vcl_whatever_its_read_quorum_holds() {
        // PG `quiet` shows nothing past 60, but slots 0, 3 and 4 did not
        // answer and may hold a minority record at 70: it still caps
        let quiet = states(&[(1, 60, 60), (2, 60, 60), (5, 40, 60)]);
        let busy = states(&[(0, 80, 80), (3, 50, 84), (4, 80, 80)]);
        assert_eq!(vcl([&busy, &quiet], Lsn::ZERO), Lsn(60));
        assert_eq!(vcl([&busy, &quiet], Lsn(55)), Lsn(60));
    }

    #[test]
    fn a_published_vdl_lifts_the_vcl() {
        // the writer published VDL 78: everything at or below it reached a
        // write quorum, so `quiet` took nothing in (60, 78]
        let quiet = states(&[(1, 60, 60), (2, 60, 60), (5, 40, 60)]);
        let busy = states(&[(0, 80, 80), (3, 50, 84), (4, 80, 80)]);
        assert_eq!(vcl([&busy, &quiet], Lsn(78)), Lsn(78));
        let empty = states(&[(0, 0, 0), (1, 0, 0), (2, 0, 0)]);
        assert_eq!(vcl([&empty], Lsn(5)), Lsn(5));
    }

    #[test]
    fn all_empty_volume_recovers_to_zero() {
        let empty = states(&[(0, 0, 0), (1, 0, 0), (2, 0, 0)]);
        assert_eq!(vcl([&empty, &empty], Lsn::ZERO), Lsn::ZERO);
        assert_eq!(vcl(std::iter::empty(), Lsn::ZERO), Lsn::ZERO);
    }

    #[test]
    fn vdl_is_the_highest_cpl_at_or_below_the_vcl() {
        assert_eq!(vdl(Lsn(70), [Lsn(30), Lsn(68), Lsn(0)]), Lsn(68));
        assert_eq!(vdl(Lsn(70), [Lsn(70)]), Lsn(70));
        assert_eq!(vdl(Lsn(70), [Lsn(71)]), Lsn::ZERO);
        assert_eq!(vdl(Lsn(70), []), Lsn::ZERO);
    }

    #[test]
    fn truncation_ceiling_clears_the_dead_writers_lal() {
        let r = truncation_range(VolumeEpoch(4), Lsn(1_000), 500);
        assert_eq!(r.epoch, VolumeEpoch(5));
        assert_eq!(r.above, Lsn(1_000));
        assert_eq!(r.ceiling, Lsn(1_000 + 500 + LAL_DEFAULT));
        assert!(!r.annuls(Lsn(1_000)));
        assert!(r.annuls(Lsn(1_001 + 500)));
    }

    #[test]
    fn scan_candidates_are_every_complete_replica_in_slot_order() {
        let s = states(&[(5, 80, 80), (0, 40, 50), (3, 70, 70), (1, 90, 90)]);
        assert_eq!(scan_candidates(&s, Lsn(70)), vec![1, 3, 5]);
        assert_eq!(scan_candidates(&s, Lsn(0)), vec![0, 1, 3, 5]);
    }

    #[test]
    fn scan_candidates_below_the_bar_are_the_replicas_holding_the_whole_pg() {
        let quiet = states(&[(4, 30, 30), (2, 30, 30), (0, 10, 10)]);
        assert_eq!(scan_candidates(&quiet, Lsn(50)), vec![2, 4]);
        let empty = states(&[(1, 0, 0), (3, 0, 0), (5, 0, 0)]);
        assert_eq!(scan_candidates(&empty, Lsn(50)), vec![1, 3, 5]);
        assert!(scan_candidates(&SegmentStates::new(), Lsn(1)).is_empty());
    }
}
