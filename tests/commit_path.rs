//! Commit-path regression tests for group commit: the flush-timer and
//! sweep armed-guards (no doubled timer chain across failover), ack latency
//! attribution under packet chaos (retransmits must not smear the
//! histogram, duplicated acks must not inflate it), the idle-pipe fast
//! path, bit-identical replay of the timer logic, ack-clocked loss
//! detection (a lost batch is re-shipped on a later ack; a reordering
//! disk is never taken for a loss), and background page writes that
//! never stall the log persists behind them.

use std::collections::HashMap;

use aurora::bench::harness::{run_aurora_with, AuroraParams};
use aurora::bench::workload::Mix;
use aurora::core::cluster::{Cluster, ClusterConfig};
use aurora::core::engine::{EngineActor, EngineStatus};
use aurora::core::wire::{Op, OpResult, Promote, TxnResult, TxnSpec};
use aurora::log::{Lsn, PgId, SegmentId};
use aurora::quorum::VolumeEpoch;
use aurora::sim::{BrownoutSpec, FaultPlan, PacketChaos, SimDuration, TracePhase};

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

/// Submit one single-upsert transaction every `every_us` µs for `steps`
/// steps.
fn trickle_every(c: &mut Cluster, conn: &mut u64, steps: u64, every_us: u64) {
    for _ in 0..steps {
        *conn += 1;
        c.submit(
            *conn,
            TxnSpec::single(Op::Upsert(*conn % 1_024, value_of(*conn))),
        );
        c.sim.run_for(SimDuration::from_micros(every_us));
    }
}

/// Ack-clocked loss detection. Under a steady trickle the writer's path
/// to three of the six members is cut while one transaction ships, so its
/// batches get three acks each and sit below their 4/6 quorum. The batches after it reach
/// those members, and their acks expose the loss: the batch is re-shipped
/// to each member that missed it once a 1 ms reordering window has passed
/// since the first overtaking ack, and reaches quorum well before the
/// sweep's 4 ms hedge (let alone the 15 ms retransmit) would have fired.
#[test]
fn lost_batch_is_reshipped_on_the_next_later_ack() {
    let mut c = Cluster::build(ClusterConfig {
        seed: 31,
        bootstrap_rows: 0,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(300));
    let mut conn = 0u64;
    trickle_every(&mut c, &mut conn, 40, 250);
    let count = |c: &Cluster, name: &'static str| c.sim.metrics.counter_total(name);
    let retransmits = count(&c, "engine.log_write_retransmits");
    let reships = count(&c, "engine.loss_reships");
    c.sim.trace.enable(1 << 16);

    // one member in the writer's AZ and two across. A partition drops
    // what it would deliver, so the cut outlasts the cross-AZ flight of
    // the one transaction submitted inside it: exactly that transaction's
    // batches lose three of their six copies
    let cut = [c.storage[0], c.storage[1], c.storage[2]];
    for n in cut {
        c.sim.partition(c.engine, n, true);
    }
    conn += 1;
    c.submit(conn, TxnSpec::single(Op::Upsert(conn, value_of(conn))));
    c.sim.run_for(SimDuration::from_millis(1));
    for n in cut {
        c.sim.partition(c.engine, n, false);
    }
    trickle_every(&mut c, &mut conn, 80, 250);
    c.sim.run_for(SimDuration::from_millis(50));

    let trace = &c.sim.trace;
    assert_eq!(trace.dropped(), 0, "trace ring too small for the run");
    let mut shipped: HashMap<u64, u64> = HashMap::new();
    let (mut spans, mut slowest) = (0, 0);
    for e in trace
        .events()
        .filter(|e| trace.kind_name(e.kind) == "engine.batch_quorum")
    {
        match e.phase {
            TracePhase::Begin => {
                shipped.insert(e.span, e.at_ns);
            }
            TracePhase::End => {
                spans += 1;
                slowest = slowest.max(e.at_ns - shipped[&e.span]);
            }
            TracePhase::Instant => {}
        }
    }
    assert!(spans > 100, "the trickle shipped only {spans} batches");
    assert_eq!(spans, shipped.len(), "a batch never reached quorum");
    assert!(
        slowest < SimDuration::from_millis(3).nanos(),
        "the batch that lost three copies took {}us to reach quorum",
        slowest / 1_000
    );
    assert!(
        count(&c, "engine.loss_reships") > reships,
        "no loss re-ship went out"
    );
    let detections = trace
        .events()
        .filter(|e| trace.kind_name(e.kind) == "engine.loss_reship")
        .count();
    assert!(detections > 0, "no engine.loss_reship trace instant");
    assert_eq!(
        count(&c, "engine.log_write_retransmits"),
        retransmits,
        "the loss must be repaired without a backoff retransmit"
    );
}

/// No loss, no loss re-ship. A browned-out disk (8×) reorders its acks by
/// far more than a healthy one, and a saturated writer queues batches
/// behind each other and behind page writes on every disk, which
/// collapses the gaps between their sends. Neither may pass for a lost packet: each run must
/// end with `engine.loss_reships == 0`.
#[test]
fn loss_detection_never_fires_without_loss() {
    // an open trickle against one browned-out member in the writer's AZ,
    // whose short round trip keeps its ack EWMA (and so the EWMA half of
    // its reordering window) below its disk's reordering
    let mut c = Cluster::build(ClusterConfig {
        seed: 32,
        bootstrap_rows: 0,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(300));
    let plan = FaultPlan::new().brownout_for(
        SimDuration::ZERO,
        SimDuration::from_secs(2),
        c.storage[0],
        BrownoutSpec {
            ramp_secs: 0.05,
            peak_factor: 8.0,
        },
    );
    c.sim.install_fault_plan(&plan);
    // 10k tps: the members in the writer's AZ ack every few tens of µs,
    // so a disk that completes two batches out of order is seen at once
    let mut conn = 0u64;
    trickle_every(&mut c, &mut conn, 4_000, 100);
    c.sim.run_for(SimDuration::from_millis(50));
    let m = &c.sim.metrics;
    assert!(m.counter_total("engine.commits") > 3_900);
    assert_eq!(
        m.counter_total("engine.loss_reships"),
        0,
        "brownout: a slow disk's reordering was taken for loss"
    );

    // a saturated closed loop on a clean network
    let mut p = AuroraParams::new(Mix::WriteOnly { writes: 2 });
    p.seed = 33;
    p.rows = 1_000;
    p.warmup = SimDuration::from_millis(20);
    p.window = SimDuration::from_millis(100);
    let s = run_aurora_with(&p, |_| {}, |_, _| {});
    assert!(s.commits > 1_000);
    assert_eq!(
        s.extra["engine.loss_reships"], 0.0,
        "saturated: a queued batch was taken for a lost one"
    );
}

/// Regression for the double-armed flush timer: Start, Restarted and
/// Promote each used to arm TAG_FLUSH unconditionally, so a writer that
/// was fenced to standby and promoted back could hold **two** flush
/// timers — extra ticks, different batching per seed. With a one-batch
/// pipe a steady trickle arms the group-commit deadline over and over;
/// the armed-guard must keep the tick rate flat across the fence/promote
/// cycle, and the deadline must stop firing once the load stops. The
/// periodic sweep had the same bug (a fence keeps its chain running and
/// Promote armed a second), so its 5 ms cadence is pinned too.
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
    // (flush ticks, sweep ticks) over 300 ms of trickle
    let mut ticks_over_300ms = |c: &mut Cluster| {
        let ticks = |c: &Cluster| {
            let m = &c.sim.metrics;
            (
                m.counter_total("engine.flush_ticks"),
                m.counter_total("engine.sweep_ticks"),
            )
        };
        let before = ticks(c);
        trickle(c, &mut conn, 300);
        let after = ticks(c);
        (after.0 - before.0, after.1 - before.1)
    };
    ticks_over_300ms(&mut c); // reach steady state
    let (baseline, sweeps) = ticks_over_300ms(&mut c);
    assert!(baseline > 0, "a full pipe must arm the flush deadline");
    assert_eq!(sweeps, 60, "one sweep every 5 ms");

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
    let (after, sweeps) = ticks_over_300ms(&mut c);
    assert_eq!(
        sweeps, 60,
        "sweep cadence changed after fence/promote (double-armed sweep)"
    );
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

/// A writer fenced while a sealed write sits staged, then promoted back,
/// must not serve that write: it never reached storage and its client was
/// never answered. Fencing ends the incarnation, so it drops the same
/// volatile state a crash does, the buffer cache included; recovery then
/// reads the row back from storage.
#[test]
fn fenced_then_promoted_writer_does_not_serve_an_unshipped_write() {
    let mut c = Cluster::build(ClusterConfig::default());
    c.sim.run_for(SimDuration::from_millis(300));
    c.submit(1, TxnSpec::single(Op::Upsert(5, vec![1; 8])));
    c.sim.run_for(SimDuration::from_millis(50));
    assert!(
        matches!(c.responses()[0].result, TxnResult::Committed(_)),
        "the first write must commit"
    );

    c.sim
        .actor_mut::<EngineActor>(c.engine)
        .test_stall_ship(true);
    c.submit(2, TxnSpec::single(Op::Upsert(5, vec![2; 8])));
    c.sim.run_for(SimDuration::from_millis(20));
    assert!(c.sim.actor::<EngineActor>(c.engine).staged_records() > 0);
    assert!(c.responses().iter().all(|r| r.conn != 2));

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

    c.sim
        .actor_mut::<EngineActor>(c.engine)
        .test_stall_ship(false);
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

    c.submit(3, TxnSpec::single(Op::Get(5)));
    c.sim.run_for(SimDuration::from_millis(100));
    let rs = c.responses();
    let resp = rs
        .iter()
        .find(|r| r.conn == 3)
        .expect("the read is answered");
    let TxnResult::Committed(results) = &resp.result else {
        panic!("read aborted: {:?}", resp.result);
    };
    let Some(OpResult::Row(Some(row))) = results.first() else {
        panic!("row 5 is gone: {results:?}");
    };
    assert_eq!(
        &row[..8],
        &[1; 8],
        "the writer served a write that never shipped"
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

/// A coalesce pass's page writes yield to the log. Every storage node's
/// 20 ms coalesce timer fires in phase, and a saturated closed loop over
/// 32 000 rows dirties over a thousand pages per node per pass. Written as
/// one disk write, a pass held every log write behind it on all six nodes:
/// the persist p99 was 45x its median and the sweep hedged 36 batches on
/// a loss-free network. Written in 64 KiB chunks, one in flight, a log
/// write waits for one chunk at most.
#[test]
fn page_writes_do_not_stall_log_persists() {
    let mut p = AuroraParams::new(Mix::WriteOnly { writes: 2 });
    p.seed = 34;
    p.rows = 32_000;
    p.warmup = SimDuration::from_millis(40);
    // the closure below runs the measured window itself, so that it can
    // read the storage histogram; the harness's own window is empty
    p.window = SimDuration::ZERO;
    let (mut persist, mut hedges, mut chunks) = (None, 0, 0);
    run_aurora_with(
        &p,
        |_| {},
        |c, _| {
            c.sim.run_for(SimDuration::from_millis(60));
            let m = &c.sim.metrics;
            persist = Some(m.histogram_total("storage.persist_ns"));
            hedges = m.counter_total("engine.hedged_ships");
            chunks = m.counter_total("storage.page_write_chunks");
        },
    );
    let persist = persist.expect("the window ran");
    assert!(persist.count() > 1_000);
    assert!(
        persist.p99() <= 3 * persist.p50(),
        "persist p99 {} ns against p50 {} ns",
        persist.p99(),
        persist.p50()
    );
    assert_eq!(hedges, 0, "a loss-free run hedged");
    assert!(chunks > 0, "no coalesce pass wrote pages");
}
