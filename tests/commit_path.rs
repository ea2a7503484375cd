//! Commit-path regression tests for group commit: the flush-timer
//! armed-guard (no doubled deadline across failover), ack latency
//! attribution under packet chaos (retransmits must not smear the
//! histogram, duplicated acks must not inflate it), the idle-pipe fast
//! path, and bit-identical replay of the timer logic.

use aurora::core::cluster::{Cluster, ClusterConfig};
use aurora::core::engine::{EngineActor, EngineStatus};
use aurora::core::wire::{Op, Promote, TxnResult, TxnSpec};
use aurora::log::{Lsn, PgId, SegmentId};
use aurora::quorum::VolumeEpoch;
use aurora::sim::{FaultPlan, PacketChaos, SimDuration};

fn value_of(version: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&version.to_le_bytes());
    v[8..16].copy_from_slice(&version.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
    v
}

/// Submit two single-upsert transactions per simulated millisecond for
/// `ms` milliseconds: a steady trickle that keeps the pipe busy.
fn trickle(c: &mut Cluster, conn: &mut u64, ms: u64) {
    for _ in 0..ms {
        for _ in 0..2 {
            *conn += 1;
            c.submit(
                *conn,
                TxnSpec::single(Op::Upsert(*conn % 1_024, value_of(*conn))),
            );
        }
        c.sim.run_for(SimDuration::from_millis(1));
    }
}

/// Regression for the double-armed flush timer: Start, Restarted and
/// Promote each used to arm TAG_FLUSH unconditionally, so a writer that
/// was fenced to standby and promoted back could hold **two** flush
/// timers — extra ticks, different batching per seed. With a one-batch
/// pipe a steady trickle arms the group-commit deadline over and over;
/// the armed-guard must keep the tick rate flat across the fence/promote
/// cycle, and the deadline must stop firing once the load stops.
#[test]
fn promote_after_fence_does_not_double_arm_the_flush_timer() {
    let mut c = Cluster::build_with(ClusterConfig::default(), |e| {
        e.ship_pipeline_depth = 1;
    });
    c.sim.run_for(SimDuration::from_millis(300));
    assert_eq!(
        c.sim.actor::<EngineActor>(c.engine).status(),
        EngineStatus::Ready
    );

    let mut conn = 0u64;
    let mut ticks_over_300ms = |c: &mut Cluster| {
        let before = c.sim.metrics.counter_total("engine.flush_ticks");
        trickle(c, &mut conn, 300);
        c.sim.metrics.counter_total("engine.flush_ticks") - before
    };
    ticks_over_300ms(&mut c); // reach steady state
    let baseline = ticks_over_300ms(&mut c);
    assert!(baseline > 0, "a full pipe must arm the flush deadline");

    // a newer writer owns the volume: fence this one down to standby
    c.sim.tell(
        c.engine,
        aurora::storage::wire::WriteFenced {
            segment: SegmentId::new(PgId(0), 0),
            batch_end: Lsn(0),
            epoch: VolumeEpoch(7),
        },
    );
    c.sim.run_for(SimDuration::from_millis(5));
    assert_eq!(
        c.sim.actor::<EngineActor>(c.engine).status(),
        EngineStatus::Standby
    );

    // ... and promote it back: pre-guard this could arm a second timer
    c.sim.tell(c.engine, Promote);
    let mut ready = false;
    for _ in 0..400 {
        c.sim.run_for(SimDuration::from_millis(10));
        if c.sim.actor::<EngineActor>(c.engine).status() == EngineStatus::Ready {
            ready = true;
            break;
        }
    }
    assert!(ready, "promoted writer must recover to Ready");

    ticks_over_300ms(&mut c); // reach steady state again
    let after = ticks_over_300ms(&mut c);
    assert!(
        after <= baseline + baseline / 10,
        "flush cadence grew after fence/promote (double-armed timer): \
         {baseline} ticks/300ms before, {after} after"
    );
    assert!(
        after + baseline / 10 >= baseline,
        "flush deadline stopped arming across fence/promote: {baseline} -> {after}"
    );

    // load stops: once the pipe drains the deadline is never re-armed
    c.sim.run_for(SimDuration::from_millis(100));
    let idle = c.sim.metrics.counter_total("engine.flush_ticks");
    c.sim.run_for(SimDuration::from_millis(100));
    assert_eq!(
        c.sim.metrics.counter_total("engine.flush_ticks"),
        idle,
        "flush timer kept ticking with nothing staged"
    );
}

/// Ack-latency attribution under packet chaos. Two invariants:
///
/// * a retransmitted batch attributes its late acks to the send that
///   plausibly elicited them (`last_sent`), not the original ship —
///   otherwise every network-loss retry smears a 15ms+ outlier into the
///   commit-path histogram;
/// * duplicated acks (chaos copies, retransmit-regenerated acks) record
///   **nothing**: at most one `engine.ack_ns` sample per (batch, pg,
///   replica) send, so the histogram count never exceeds the original
///   send count.
#[test]
fn ack_latency_attribution_survives_drops_and_duplicates() {
    let mut c = Cluster::build(ClusterConfig {
        seed: 99,
        bootstrap_rows: 0,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(300));
    let ms = SimDuration::from_millis;
    let plan = FaultPlan::new().packet_chaos_for(
        ms(10),
        ms(1500),
        PacketChaos {
            drop: 0.25,
            duplicate: 0.25,
            delay: 0.20,
            delay_by: ms(2),
        },
    );
    c.sim.install_fault_plan(&plan);

    let mut conn = 0u64;
    for round in 0..75u64 {
        for k in 0..8u64 {
            conn += 1;
            c.submit(conn, TxnSpec::single(Op::Upsert(k, value_of(round + 1))));
        }
        c.sim.run_for(ms(20));
    }
    c.sim.run_for(SimDuration::from_secs(2));

    assert!(
        c.sim.net().chaos_duplicated > 0,
        "packet duplication must have fired"
    );
    let retransmits = c.sim.metrics.counter_total("engine.log_write_retransmits");
    assert!(retransmits > 0, "drops must have forced retransmissions");

    let ack = c.sim.metrics.histogram_total("engine.ack_ns");
    let sends = c.sim.metrics.counter_total("engine.log_write_ios");
    assert!(ack.count() > 0, "acks must have been recorded");
    assert!(
        ack.count() <= sends,
        "more ack samples ({}) than original sends ({sends}): \
         a duplicated or regenerated ack was recorded twice",
        ack.count()
    );
    // The retransmit deadline is 15ms (sweeped every 5ms): an ack
    // attributed to the send that elicited it stays far below that, while
    // first-ship attribution would record the full 15ms+ retry gap.
    let bound = SimDuration::from_millis(10).nanos();
    assert!(
        ack.max() < bound,
        "ack {}us recorded against a stale ship time (retransmit smear)",
        ack.max() / 1_000
    );
}

/// An idle pipe ships a lone commit immediately instead of waiting out
/// the group-commit deadline, which is set deliberately long here so a
/// wait would be unmistakable.
#[test]
fn adaptive_policy_ships_idle_commits_without_deadline_wait() {
    let mut c = Cluster::build_with(
        ClusterConfig {
            seed: 7,
            bootstrap_rows: 0,
            ..Default::default()
        },
        |e| {
            e.flush_interval = SimDuration::from_millis(20);
        },
    );
    c.sim.run_for(SimDuration::from_millis(300));
    let count = |c: &Cluster, name: &'static str| c.sim.metrics.counter_total(name);
    let immediate = count(&c, "engine.ship_immediate");
    let deadline = count(&c, "engine.ship_deadline");
    c.submit(1, TxnSpec::single(Op::Upsert(1, value_of(1))));
    c.sim.run_for(SimDuration::from_millis(100));
    let rs = c.responses();
    let resp = rs.first().expect("commit response");
    assert!(matches!(resp.result, TxnResult::Committed(_)));
    let h = c.sim.metrics.histogram_total("engine.commit_ns");
    assert_eq!(h.count(), 1);
    assert!(
        h.max() < SimDuration::from_millis(5).nanos(),
        "lone commit must ship immediately, took {}us",
        h.max() / 1_000
    );
    assert!(
        count(&c, "engine.ship_immediate") > immediate,
        "the lone commit must leave on the idle-pipe path"
    );
    assert_eq!(
        count(&c, "engine.ship_deadline"),
        deadline,
        "nothing may wait out the group-commit deadline"
    );
}

/// Same seed => bit-identical run with a pipeline depth of 1 — the
/// configuration that maximally exercises the group-commit timer logic
/// (immediate ships, deadline arms, ack-drain re-flushes, timer cancels). Both ship reasons must actually fire, and every
/// per-node counter must replay exactly.
#[test]
fn adaptive_timer_logic_replays_bit_identically() {
    type Digest = (Vec<(u32, String, u64)>, u64, u64, u64, u64, u64);
    fn run() -> Digest {
        let mut c = Cluster::build_with(
            ClusterConfig {
                seed: 512,
                bootstrap_rows: 0,
                ..Default::default()
            },
            |e| {
                e.ship_pipeline_depth = 1;
            },
        );
        c.sim.run_for(SimDuration::from_millis(300));
        let mut conn = 0u64;
        for round in 0..40u64 {
            for k in 0..16u64 {
                conn += 1;
                c.submit(conn, TxnSpec::single(Op::Upsert(k, value_of(round + 1))));
            }
            c.sim.run_for(SimDuration::from_millis(5));
        }
        c.sim.run_for(SimDuration::from_secs(1));
        let counters: Vec<(u32, String, u64)> = c
            .sim
            .metrics
            .counters_snapshot()
            .into_iter()
            .map(|(o, n, v)| (o, n.to_string(), v))
            .collect();
        (
            counters,
            c.sim.metrics.counter_total("engine.commits"),
            c.sim.metrics.counter_total("engine.ship_immediate"),
            c.sim.metrics.counter_total("engine.ship_deadline"),
            c.sim.net().packets,
            c.sim.now().nanos(),
        )
    }

    let a = run();
    let b = run();
    assert!(a.1 > 0, "workload must commit");
    assert!(a.2 > 0, "immediate ships must fire (idle-pipe path)");
    assert!(a.3 > 0, "deadline ships must fire (full-pipe path)");
    assert_eq!(a, b, "adaptive timer logic diverged between same-seed runs");
}
