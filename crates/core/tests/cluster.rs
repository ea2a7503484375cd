//! End-to-end tests: the full Aurora stack (writer, storage fleet across
//! three AZs, replicas, control plane) running in the simulator.

use aurora_core::cluster::{Cluster, ClusterConfig};
use aurora_core::engine::{bootstrap_row, EngineActor, EngineStatus};
use aurora_core::replica::ReplicaActor;
use aurora_core::wire::*;
use aurora_log::SegmentId;
use aurora_sim::{Probe, Relay, SimDuration, Zone};
use aurora_storage::StorageNode;

fn small_cluster(seed: u64) -> Cluster {
    Cluster::build(ClusterConfig {
        seed,
        pgs: 2,
        pages_per_pg: 100_000,
        storage_nodes: 6,
        bootstrap_rows: 200,
        ..Default::default()
    })
}

fn committed_rows(resp: &ClientResponse) -> &[OpResult] {
    match &resp.result {
        TxnResult::Committed(rs) => rs,
        TxnResult::Aborted(m) => panic!("unexpected abort: {m}"),
    }
}

#[test]
fn bootstrap_then_read_write_cycle() {
    let mut c = small_cluster(1);
    c.sim.run_for(SimDuration::from_millis(200)); // bootstrap + acks

    // read a bootstrap row
    c.submit(1, TxnSpec::single(Op::Get(42)));
    // write + read back in separate txns
    c.submit(2, TxnSpec::single(Op::Insert(10_000, b"hello".to_vec())));
    c.sim.run_for(SimDuration::from_millis(100));
    c.submit(3, TxnSpec::single(Op::Get(10_000)));
    c.submit(4, TxnSpec::single(Op::Update(10_000, b"world".to_vec())));
    c.sim.run_for(SimDuration::from_millis(100));
    c.submit(5, TxnSpec::single(Op::Get(10_000)));
    c.sim.run_for(SimDuration::from_millis(100)); // sequence Get before Delete
    c.submit(6, TxnSpec::single(Op::Delete(10_000)));
    c.sim.run_for(SimDuration::from_millis(100));
    c.submit(7, TxnSpec::single(Op::Get(10_000)));
    c.sim.run_for(SimDuration::from_millis(100));

    let rs = c.responses();
    assert_eq!(rs.len(), 7, "all transactions answered");
    let by_conn = |conn: u64| rs.iter().find(|r| r.conn == conn).unwrap();

    // bootstrap row content matches the deterministic generator
    match &committed_rows(by_conn(1))[0] {
        OpResult::Row(Some(row)) => assert_eq!(row, &bootstrap_row(42, 96)),
        other => panic!("want row, got {other:?}"),
    }
    match &committed_rows(by_conn(3))[0] {
        OpResult::Row(Some(row)) => assert_eq!(&row[..5], b"hello"),
        other => panic!("{other:?}"),
    }
    match &committed_rows(by_conn(5))[0] {
        OpResult::Row(Some(row)) => assert_eq!(&row[..5], b"world"),
        other => panic!("{other:?}"),
    }
    match &committed_rows(by_conn(7))[0] {
        OpResult::Row(None) => {}
        other => panic!("deleted row visible: {other:?}"),
    }
}

#[test]
fn multi_op_transactions_and_scans() {
    let mut c = small_cluster(2);
    c.sim.run_for(SimDuration::from_millis(200));
    c.submit(
        1,
        TxnSpec {
            ops: vec![
                Op::Insert(1_000, b"a".to_vec()),
                Op::Insert(1_001, b"b".to_vec()),
                Op::Insert(1_002, b"c".to_vec()),
                Op::Scan(1_000, 3),
            ],
        },
    );
    c.sim.run_for(SimDuration::from_millis(100));
    let rs = c.responses();
    assert_eq!(rs.len(), 1);
    let results = committed_rows(&rs[0]);
    match &results[3] {
        OpResult::Rows(rows) => {
            assert_eq!(rows.len(), 3);
            assert_eq!(rows[0].0, 1_000);
            assert_eq!(&rows[2].1[..1], b"c");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn duplicate_insert_aborts_and_rolls_back() {
    let mut c = small_cluster(3);
    c.sim.run_for(SimDuration::from_millis(200));
    // txn inserts a fresh key then collides with a bootstrap key: whole
    // txn aborts, so the fresh key must not survive
    c.submit(
        1,
        TxnSpec {
            ops: vec![
                Op::Insert(5_000, b"x".to_vec()),
                Op::Insert(7, b"collision".to_vec()), // bootstrap key
            ],
        },
    );
    c.sim.run_for(SimDuration::from_millis(100));
    c.submit(2, TxnSpec::single(Op::Get(5_000)));
    c.submit(3, TxnSpec::single(Op::Get(7)));
    c.sim.run_for(SimDuration::from_millis(100));

    let rs = c.responses();
    let by_conn = |conn: u64| rs.iter().find(|r| r.conn == conn).unwrap();
    assert!(matches!(&by_conn(1).result, TxnResult::Aborted(m) if m.contains("duplicate")));
    match &committed_rows(by_conn(2))[0] {
        OpResult::Row(None) => {}
        other => panic!("rolled-back insert visible: {other:?}"),
    }
    match &committed_rows(by_conn(3))[0] {
        OpResult::Row(Some(row)) => assert_eq!(row, &bootstrap_row(7, 96), "original intact"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn network_ios_counted_per_batch_not_per_txn() {
    // The heart of Table 1: many transactions share one quorum-replicated
    // batch, so log_write IOs per transaction land well below 6.
    let mut c = small_cluster(4);
    c.sim.run_for(SimDuration::from_millis(200));
    c.sim.clear_stats();
    for i in 0..200u64 {
        c.submit(i, TxnSpec::single(Op::Upsert(20_000 + i, vec![i as u8])));
    }
    c.sim.run_for(SimDuration::from_millis(500));
    let commits = c.sim.metrics.counter_total("engine.write_txns");
    assert_eq!(commits, 200);
    let ios = c.sim.metrics.counter_total("engine.log_write_ios");
    // ≥ 6 (one batch × 6 replicas) but far below 200 × 6
    assert!(ios >= 6, "{ios}");
    assert!(
        (ios as f64) < 0.5 * 200.0 * 6.0,
        "batching should amortize: {ios} IOs for {commits} txns"
    );
}

#[test]
fn out_of_cache_reads_hit_storage() {
    let mut c = Cluster::build_with(
        ClusterConfig {
            seed: 5,
            pgs: 2,
            pages_per_pg: 100_000,
            storage_nodes: 6,
            bootstrap_rows: 5_000,
            ..Default::default()
        },
        |e| {
            e.instance.buffer_pages = 32; // tiny cache: force misses
        },
    );
    c.sim.run_for(SimDuration::from_millis(2_000));
    c.sim.clear_stats();
    for i in 0..50u64 {
        c.submit(i, TxnSpec::single(Op::Get(i * 97 % 5_000)));
    }
    c.sim.run_for(SimDuration::from_millis(2_000));
    let rs = c.responses();
    assert_eq!(rs.len(), 50);
    for r in &rs {
        match &committed_rows(r)[0] {
            OpResult::Row(Some(_)) => {}
            other => panic!("missing row: {other:?}"),
        }
    }
    assert!(
        c.sim.metrics.counter_total("engine.page_fetches") > 0,
        "tiny cache must fetch from storage"
    );
}

#[test]
fn crash_recovery_committed_data_survives() {
    let mut c = small_cluster(6);
    c.sim.run_for(SimDuration::from_millis(200));
    for i in 0..20u64 {
        c.submit(i, TxnSpec::single(Op::Insert(30_000 + i, vec![7u8; 8])));
    }
    c.sim.run_for(SimDuration::from_millis(300));
    assert_eq!(c.sim.metrics.counter_total("engine.write_txns"), 20);

    // crash the writer, restart, wait for recovery
    c.sim.crash(c.engine);
    c.sim.run_for(SimDuration::from_millis(50));
    c.sim.restart(c.engine);
    c.sim.run_for(SimDuration::from_millis(500));
    assert_eq!(
        c.sim.actor::<EngineActor>(c.engine).status(),
        EngineStatus::Ready,
        "recovery must complete"
    );
    assert!(c.sim.metrics.counter_total("engine.recoveries") >= 1);

    // all committed rows are readable (cold cache: served from storage)
    for i in 0..20u64 {
        c.submit(1_000 + i, TxnSpec::single(Op::Get(30_000 + i)));
    }
    c.sim.run_for(SimDuration::from_millis(2_000));
    let rs = c.responses();
    let reads: Vec<_> = rs.iter().filter(|r| r.conn >= 1_000).collect();
    assert_eq!(reads.len(), 20);
    for r in reads {
        match &committed_rows(r)[0] {
            OpResult::Row(Some(row)) => assert_eq!(row[0], 7),
            other => panic!("committed row lost after crash: {other:?}"),
        }
    }
}

#[test]
fn crash_recovery_uncommitted_rolled_back() {
    let mut c = small_cluster(7);
    c.sim.run_for(SimDuration::from_millis(200));
    // a long transaction: 40 inserts, then crash mid-flight
    let ops: Vec<Op> = (0..40u64)
        .map(|i| Op::Insert(40_000 + i, vec![9u8; 8]))
        .collect();
    c.submit(1, TxnSpec { ops });
    // run long enough for some ops to execute & ship, NOT long enough to
    // commit (40 ops × 60µs plus batching ≈ 2.5ms+)
    c.sim.run_for(SimDuration::from_millis(1));
    c.sim.crash(c.engine);
    c.sim.run_for(SimDuration::from_millis(50));
    c.sim.restart(c.engine);
    c.sim.run_for(SimDuration::from_millis(1_000));
    assert_eq!(
        c.sim.actor::<EngineActor>(c.engine).status(),
        EngineStatus::Ready
    );

    // none of the transaction's keys may be visible
    for i in 0..40u64 {
        c.submit(2_000 + i, TxnSpec::single(Op::Get(40_000 + i)));
    }
    c.sim.run_for(SimDuration::from_millis(2_000));
    let rs = c.responses();
    let reads: Vec<_> = rs.iter().filter(|r| r.conn >= 2_000).collect();
    assert_eq!(reads.len(), 40);
    for r in reads {
        match &committed_rows(r)[0] {
            OpResult::Row(None) => {}
            other => panic!("uncommitted write survived crash: {other:?}"),
        }
    }
}

#[test]
fn recovery_does_not_wait_on_a_replica_gone_silent() {
    // The replica a single-target probe would pick (highest SCL, lowest
    // slot) answers recovery's SCL round, then hears nothing more from the
    // writer. Recovery asks every complete replica for the CPL probe and
    // the scans, so it finishes in a few round trips instead of waiting
    // out a 50 ms resend tick.
    let mut c = small_cluster(8);
    c.sim.run_for(SimDuration::from_millis(200));
    for i in 0..20u64 {
        c.submit(i, TxnSpec::single(Op::Insert(50_000 + i, vec![5u8; 8])));
    }
    c.sim.run_for(SimDuration::from_millis(300));
    assert_eq!(c.sim.metrics.counter_total("engine.write_txns"), 20);
    c.sim.crash(c.engine);
    c.sim.run_for(SimDuration::from_millis(50));

    let pg0 = c.memberships[0].clone();
    let scl = |c: &Cluster, slot: u8| {
        c.sim
            .actor::<StorageNode>(pg0.slots[slot as usize])
            .scl(SegmentId::new(pg0.pg, slot))
    };
    let best = (0..pg0.slots.len() as u8)
        .max_by_key(|s| (scl(&c, *s), std::cmp::Reverse(*s)))
        .unwrap();
    let silent = pg0.slots[best as usize];
    let sent = c.sim.net().sent_by(silent).0;
    c.sim.restart(c.engine);
    // step until the replica has answered the SCL round, then stall it
    while c.sim.net().sent_by(silent).0 == sent {
        assert!(c.sim.step(), "the SCL request must reach the replica");
    }
    c.sim.stall_node(silent);
    c.sim.run_for(SimDuration::from_millis(500));
    assert_eq!(
        c.sim.actor::<EngineActor>(c.engine).status(),
        EngineStatus::Ready
    );
    let recovery = c.sim.metrics.histogram_total("engine.recovery_ns");
    assert_eq!(recovery.count(), 1);
    assert!(
        recovery.max() < 50_000_000,
        "recovery waited for a resend: {} ns",
        recovery.max()
    );

    for i in 0..20u64 {
        c.submit(1_000 + i, TxnSpec::single(Op::Get(50_000 + i)));
    }
    c.sim.run_for(SimDuration::from_millis(2_000));
    let rs = c.responses();
    let reads: Vec<_> = rs.iter().filter(|r| r.conn >= 1_000).collect();
    assert_eq!(reads.len(), 20);
    for r in reads {
        match &committed_rows(r)[0] {
            OpResult::Row(Some(row)) => assert_eq!(row[0], 5),
            other => panic!("committed row lost after crash: {other:?}"),
        }
    }
}

#[test]
fn replicas_see_commits_with_small_lag() {
    let mut c = Cluster::build(ClusterConfig {
        seed: 8,
        pgs: 2,
        pages_per_pg: 100_000,
        storage_nodes: 6,
        bootstrap_rows: 100,
        replicas: 2,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(200));
    for i in 0..50u64 {
        c.submit(i, TxnSpec::single(Op::Upsert(i, vec![i as u8])));
    }
    c.sim.run_for(SimDuration::from_millis(500));

    // replicas observed the commits
    let lag = c.sim.metrics.histogram_total("replica.lag_ns");
    assert!(lag.count() >= 50, "lag samples: {}", lag.count());
    // lag is small (paper: ~20ms or less; here low single-digit ms)
    assert!(
        lag.p95() < 20_000_000,
        "p95 lag {}ms",
        lag.p95() / 1_000_000
    );

    // replica serves consistent reads
    c.submit_to_replica(0, 9_000, TxnSpec::single(Op::Get(5)));
    c.sim.run_for(SimDuration::from_millis(200));
    let rs = c.responses();
    let rep = rs.iter().find(|r| r.conn == 9_000).unwrap();
    match &committed_rows(rep)[0] {
        OpResult::Row(Some(row)) => assert_eq!(row[0], 5),
        other => panic!("replica read failed: {other:?}"),
    }
    // replica rejects writes
    c.submit_to_replica(0, 9_001, TxnSpec::single(Op::Insert(99_999, vec![1])));
    c.sim.run_for(SimDuration::from_millis(100));
    let rs = c.responses();
    let rej = rs.iter().find(|r| r.conn == 9_001).unwrap();
    assert!(matches!(&rej.result, TxnResult::Aborted(m) if m.contains("read-only")));
}

#[test]
fn az_failure_preserves_write_availability() {
    let mut c = small_cluster(9);
    c.sim.run_for(SimDuration::from_millis(200));

    // lose an entire AZ (2 of 6 replicas per PG): writes must continue
    c.sim.zone_down(Zone(1));
    for i in 0..20u64 {
        c.submit(i, TxnSpec::single(Op::Upsert(60_000 + i, vec![1])));
    }
    c.sim.run_for(SimDuration::from_millis(500));
    assert_eq!(
        c.sim.metrics.counter_total("engine.write_txns"),
        20,
        "4/6 quorum survives an AZ loss"
    );
    let before = c.responses().len();
    assert_eq!(before, 20);

    // AZ + one more node: only 3 replicas left, below the write quorum —
    // commits stall (no data loss, no false acks)
    let extra = c
        .storage
        .iter()
        .position(|n| c.sim.zone_of(*n) == Zone(0))
        .unwrap();
    let extra = c.storage[extra];
    c.sim.crash(extra);
    c.submit(100, TxnSpec::single(Op::Upsert(61_000, vec![2])));
    c.sim.run_for(SimDuration::from_millis(500));
    assert_eq!(
        c.responses().len(),
        before,
        "commit must not be acknowledged without a write quorum"
    );

    // heal the AZ: the stalled commit completes
    c.sim.zone_up(Zone(1));
    c.sim.run_for(SimDuration::from_millis(1_000));
    assert_eq!(
        c.responses().len(),
        before + 1,
        "commit completes after heal"
    );
}

#[test]
fn single_storage_node_crash_is_transparent() {
    let mut c = small_cluster(10);
    c.sim.run_for(SimDuration::from_millis(200));
    c.sim.crash(c.storage[3]);
    for i in 0..30u64 {
        c.submit(i, TxnSpec::single(Op::Upsert(70_000 + i, vec![3])));
    }
    c.sim.run_for(SimDuration::from_millis(500));
    assert_eq!(c.sim.metrics.counter_total("engine.write_txns"), 30);

    // restart the node; gossip fills its holes
    c.sim.restart(c.storage[3]);
    c.sim.run_for(SimDuration::from_secs(2));
    assert!(
        c.sim.metrics.counter_total("storage.gossip_filled") > 0,
        "gossip must repair the lagging replica"
    );
}

#[test]
fn zero_downtime_patch_drops_no_connections() {
    let mut c = small_cluster(11);
    c.sim.run_for(SimDuration::from_millis(200));
    // a stream of transactions around the patch request
    for i in 0..10u64 {
        c.submit(i, TxnSpec::single(Op::Upsert(80_000 + i, vec![4])));
    }
    let engine = c.engine;
    let client = c.client;
    c.sim
        .tell(client, Relay::new(engine, ZdpPatch { version: 2 }));
    for i in 10..20u64 {
        c.submit(i, TxnSpec::single(Op::Upsert(80_000 + i, vec![4])));
    }
    c.sim.run_for(SimDuration::from_millis(500));

    let probe = c.sim.actor::<Probe>(c.client);
    let done = probe.received::<ZdpDone>();
    assert_eq!(done.len(), 1, "patch applied");
    assert_eq!(done[0].1.connections_dropped, 0);
    assert_eq!(done[0].1.version, 2);
    assert_eq!(c.sim.actor::<EngineActor>(c.engine).version(), 2);
    // every transaction, including ones queued during the patch, completed
    assert_eq!(c.responses().len(), 20);
    assert_eq!(c.sim.metrics.counter_total("engine.write_txns"), 20);
}

#[test]
fn lock_conflicts_serialize_same_key_writes() {
    let mut c = small_cluster(12);
    c.sim.run_for(SimDuration::from_millis(200));
    // ten transactions all updating the same hot row
    for i in 0..10u64 {
        c.submit(i, TxnSpec::single(Op::Upsert(90_000, vec![i as u8])));
    }
    c.sim.run_for(SimDuration::from_millis(500));
    assert_eq!(c.sim.metrics.counter_total("engine.write_txns"), 10);
    assert!(
        c.sim.metrics.counter_total("engine.lock_waits") > 0,
        "hot row must cause lock waits"
    );
    // final value is one of the writers' (serialized, not lost)
    c.submit(100, TxnSpec::single(Op::Get(90_000)));
    c.sim.run_for(SimDuration::from_millis(100));
    let rs = c.responses();
    let last = rs.iter().find(|r| r.conn == 100).unwrap();
    match &committed_rows(last)[0] {
        OpResult::Row(Some(row)) => assert!(row[0] < 10),
        other => panic!("{other:?}"),
    }
}

#[test]
fn storage_replicas_converge_to_identical_pages() {
    // Regression test for out-of-order delivery: network reordering and
    // retransmits must not make replicas' materialized pages diverge.
    use aurora_log::{Lsn, PageId, SegmentId};
    use aurora_storage::StorageNode;
    let mut c = Cluster::build(ClusterConfig {
        seed: 99,
        pgs: 2,
        pages_per_pg: 100_000,
        storage_nodes: 6,
        bootstrap_rows: 3_000,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(500));
    for i in 0..100u64 {
        c.submit(
            i,
            TxnSpec::single(Op::Upsert(i * 31 % 3_000, vec![i as u8])),
        );
    }
    c.sim.run_for(SimDuration::from_secs(2));
    let vdl = c.engine_actor().vdl();
    let membership = c.memberships[0].clone();
    // every page image must be byte-identical across the six replicas
    for page in (0..80u64).map(PageId) {
        let mut images: Vec<(u8, Vec<u8>, Lsn)> = Vec::new();
        for (slot, node) in membership.slots.iter().enumerate() {
            let sn = c.sim.actor::<StorageNode>(*node);
            let seg = SegmentId::new(membership.pg, slot as u8);
            if let Some(img) = sn.page_at(seg, page, vdl) {
                images.push((slot as u8, img.bytes().to_vec(), img.lsn));
            }
        }
        assert_eq!(images.len(), 6);
        for w in images.windows(2) {
            assert_eq!(
                w[0].2, w[1].2,
                "page {page:?} lsn diverged: slots {} vs {}",
                w[0].0, w[1].0
            );
            assert_eq!(
                w[0].1, w[1].1,
                "page {page:?} bytes diverged: slots {} vs {}",
                w[0].0, w[1].0
            );
        }
    }
}

#[test]
fn replica_actor_tracks_writer_vdl() {
    let mut c = Cluster::build(ClusterConfig {
        seed: 13,
        replicas: 1,
        bootstrap_rows: 50,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(300));
    let writer_vdl = c.sim.actor::<EngineActor>(c.engine).vdl();
    let replica_vdl = c.sim.actor::<ReplicaActor>(c.replicas[0]).vdl();
    assert!(writer_vdl.0 > 0);
    assert_eq!(replica_vdl, writer_vdl, "replica caught up while idle");
}

#[test]
fn lal_back_pressure_throttles_but_completes() {
    // A tiny LSN Allocation Limit forces the writer to stall allocation
    // until the VDL catches up (§4.2.1); nothing is lost, just throttled.
    let mut c = Cluster::build_with(
        ClusterConfig {
            seed: 55,
            pgs: 2,
            pages_per_pg: 100_000,
            storage_nodes: 6,
            bootstrap_rows: 0,
            ..Default::default()
        },
        |e| {
            e.lal = 50; // absurdly small: about a dozen records of headroom
        },
    );
    c.sim.run_for(SimDuration::from_millis(200));
    for i in 0..100u64 {
        c.submit(i, TxnSpec::single(Op::Upsert(i, vec![1])));
    }
    c.sim.run_for(SimDuration::from_secs(3));
    assert_eq!(
        c.sim.metrics.counter_total("engine.commits"),
        100,
        "all transactions must eventually commit"
    );
    assert!(
        c.sim.metrics.counter_total("engine.lal_stalls") > 0,
        "the tiny LAL must actually throttle"
    );
}

#[test]
fn replica_crash_rewarns_from_stream_and_storage() {
    let mut c = Cluster::build(ClusterConfig {
        seed: 56,
        pgs: 2,
        pages_per_pg: 100_000,
        storage_nodes: 6,
        bootstrap_rows: 500,
        replicas: 1,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(300));
    for i in 0..50u64 {
        c.submit(i, TxnSpec::single(Op::Upsert(i % 500, vec![3])));
    }
    c.sim.run_for(SimDuration::from_millis(300));

    // crash the replica (fully volatile) and restart it
    let rep = c.replicas[0];
    c.sim.crash(rep);
    c.sim.run_for(SimDuration::from_millis(100));
    c.sim.restart(rep);
    // more writes re-warm its VDL via the stream
    for i in 100..150u64 {
        c.submit(i, TxnSpec::single(Op::Upsert(i % 500, vec![4])));
    }
    c.sim.run_for(SimDuration::from_millis(500));

    // the replica serves reads again (cold pages come from storage)
    c.submit_to_replica(0, 9_100, TxnSpec::single(Op::Get(120)));
    c.sim.run_for(SimDuration::from_millis(500));
    let rs = c.responses();
    let resp = rs.iter().find(|r| r.conn == 9_100).unwrap();
    match &resp.result {
        TxnResult::Committed(results) => match &results[0] {
            OpResult::Row(Some(row)) => assert_eq!(row[0], 4),
            other => panic!("{other:?}"),
        },
        TxnResult::Aborted(m) => panic!("replica read failed: {m}"),
    }
    let writer_vdl = c.engine_actor().vdl();
    let replica_vdl = c.sim.actor::<ReplicaActor>(c.replicas[0]).vdl();
    assert_eq!(replica_vdl, writer_vdl, "replica re-synced after crash");
}

#[test]
fn scans_span_leaf_boundaries_under_load() {
    let mut c = small_cluster(57);
    c.sim.run_for(SimDuration::from_millis(300));
    // bootstrap loaded 200 rows; scan across several leaves
    c.submit(1, TxnSpec::single(Op::Scan(10, 120)));
    c.sim.run_for(SimDuration::from_millis(200));
    let rs = c.responses();
    match &rs[0].result {
        TxnResult::Committed(results) => match &results[0] {
            OpResult::Rows(rows) => {
                assert_eq!(rows.len(), 120);
                assert_eq!(rows[0].0, 10);
                assert_eq!(rows[119].0, 129);
                for w in rows.windows(2) {
                    assert!(w[0].0 < w[1].0, "scan must be ordered");
                }
            }
            other => panic!("{other:?}"),
        },
        TxnResult::Aborted(m) => panic!("{m}"),
    }
}

#[test]
fn volume_grows_by_appending_protection_groups() {
    // §2.2: start with one small PG and insert far past its capacity —
    // the engine mints new PGs on the fly and everything stays readable.
    let mut c = Cluster::build(ClusterConfig {
        seed: 58,
        pgs: 1,
        pages_per_pg: 40, // tiny: ~40 pages per PG
        storage_nodes: 6,
        bootstrap_rows: 0,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(200));
    // ~3000 rows ≈ 150+ leaves: several PGs worth
    for i in 0..3_000u64 {
        c.submit(i, TxnSpec::single(Op::Insert(i, vec![i as u8])));
        if i % 64 == 0 {
            c.sim.run_for(SimDuration::from_millis(20));
        }
    }
    c.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(c.sim.metrics.counter_total("engine.commits"), 3_000);
    assert!(
        c.sim.metrics.counter_total("engine.volume_growths") >= 2,
        "growth must have appended PGs: {}",
        c.sim.metrics.counter_total("engine.volume_growths")
    );
    // read across PG boundaries
    for (i, key) in [5u64, 1_500, 2_900].iter().enumerate() {
        c.submit(10_000 + i as u64, TxnSpec::single(Op::Get(*key)));
    }
    c.sim.run_for(SimDuration::from_millis(500));
    let rs = c.responses();
    for (i, key) in [5u64, 1_500, 2_900].iter().enumerate() {
        let resp = rs.iter().find(|r| r.conn == 10_000 + i as u64).unwrap();
        match &resp.result {
            TxnResult::Committed(results) => match &results[0] {
                OpResult::Row(Some(row)) => assert_eq!(row[0], *key as u8),
                other => panic!("key {key}: {other:?}"),
            },
            TxnResult::Aborted(m) => panic!("key {key}: {m}"),
        }
    }
}

#[test]
fn failover_to_standby_without_data_loss() {
    // The abstract's headline: "failovers to replicas without loss of
    // data". All state lives in the storage fleet; promotion is recovery
    // on a fresh instance, and the epoch bump fences the old writer.
    let mut c = Cluster::build(ClusterConfig {
        seed: 60,
        pgs: 2,
        pages_per_pg: 100_000,
        storage_nodes: 6,
        bootstrap_rows: 200,
        with_standby: true,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(300));
    for i in 0..25u64 {
        c.submit(i, TxnSpec::single(Op::Insert(80_000 + i, vec![6; 4])));
    }
    c.sim.run_for(SimDuration::from_millis(300));
    assert_eq!(c.responses().len(), 25, "all commits acked pre-failover");

    // the primary dies; promote the standby (in another AZ)
    c.sim.crash(c.engine);
    let new_writer = c.promote_standby();
    let mut guard = 0;
    while c.sim.actor::<EngineActor>(new_writer).status() != EngineStatus::Ready {
        c.sim.run_for(SimDuration::from_millis(10));
        guard += 1;
        assert!(guard < 10_000, "promotion must complete");
    }

    // every acknowledged commit is readable on the new writer, and new
    // writes flow
    for i in 0..25u64 {
        c.submit_to(new_writer, 1_000 + i, TxnSpec::single(Op::Get(80_000 + i)));
    }
    c.submit_to(
        new_writer,
        2_000,
        TxnSpec::single(Op::Insert(81_000, vec![7; 4])),
    );
    c.sim.run_for(SimDuration::from_secs(2));
    let rs = c.responses();
    for i in 0..25u64 {
        let resp = rs.iter().find(|r| r.conn == 1_000 + i).unwrap();
        match &resp.result {
            TxnResult::Committed(results) => match &results[0] {
                OpResult::Row(Some(row)) => assert_eq!(row[0], 6),
                other => panic!("key {} lost in failover: {other:?}", 80_000 + i),
            },
            TxnResult::Aborted(m) => panic!("read failed post-failover: {m}"),
        }
    }
    assert!(rs.iter().any(|r| r.conn == 2_000), "new writes must flow");
}

#[test]
fn zombie_writer_is_fenced_after_failover() {
    // The old writer comes back from a network partition and keeps
    // writing with its stale epoch: the storage fleet must reject its
    // batches so the volume never forks.
    let mut c = Cluster::build(ClusterConfig {
        seed: 61,
        pgs: 2,
        pages_per_pg: 100_000,
        storage_nodes: 6,
        bootstrap_rows: 100,
        with_standby: true,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(300));
    for i in 0..10u64 {
        c.submit(i, TxnSpec::single(Op::Upsert(i, vec![1])));
    }
    c.sim.run_for(SimDuration::from_millis(300));

    // partition the old writer from every storage node ("suspected dead")
    let old = c.engine;
    for &s in &c.storage.clone() {
        c.sim.partition_both(old, s, true);
    }
    // promote the standby; it recovers at a new epoch
    let new_writer = c.promote_standby();
    let mut guard = 0;
    while c.sim.actor::<EngineActor>(new_writer).status() != EngineStatus::Ready {
        c.sim.run_for(SimDuration::from_millis(10));
        guard += 1;
        assert!(guard < 10_000);
    }
    // the new writer commits
    c.submit_to(new_writer, 500, TxnSpec::single(Op::Upsert(50, vec![9])));
    c.sim.run_for(SimDuration::from_millis(300));
    assert!(c
        .responses()
        .iter()
        .any(|r| r.conn == 500 && matches!(r.result, TxnResult::Committed(_))));

    // heal the partition: the zombie (which still thinks it is Ready)
    // tries to commit with its stale epoch — its batches must be fenced
    // and the transaction never acknowledged
    for &s in &c.storage.clone() {
        c.sim.partition_both(old, s, false);
    }
    let before = c.responses().len();
    c.submit_to(old, 600, TxnSpec::single(Op::Upsert(51, vec![13])));
    c.sim.run_for(SimDuration::from_secs(1));
    let committed_on_zombie = c
        .responses()
        .iter()
        .any(|r| r.conn == 600 && matches!(r.result, TxnResult::Committed(_)));
    assert!(
        !committed_on_zombie,
        "a stale-epoch writer must never achieve quorum"
    );
    let _ = before;

    // and the key the zombie touched reads as the new writer's history
    c.submit_to(new_writer, 700, TxnSpec::single(Op::Get(51)));
    c.sim.run_for(SimDuration::from_millis(500));
    let rs = c.responses();
    let resp = rs.iter().find(|r| r.conn == 700).unwrap();
    match &resp.result {
        TxnResult::Committed(results) => match &results[0] {
            OpResult::Row(None) => {} // zombie write invisible
            OpResult::Row(Some(row)) => {
                assert_ne!(row[0], 13, "zombie write leaked into the volume")
            }
            other => panic!("{other:?}"),
        },
        TxnResult::Aborted(m) => panic!("{m}"),
    }
}
