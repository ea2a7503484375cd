//! End-to-end tests for the traditional (mirrored MySQL) stack.

use aurora_baseline::{MysqlCluster, MysqlClusterConfig, MysqlEngine};
use aurora_core::wire::*;
use aurora_sim::SimDuration;

fn committed(resp: &ClientResponse) -> &[OpResult] {
    match &resp.result {
        TxnResult::Committed(rs) => rs,
        TxnResult::Aborted(m) => panic!("unexpected abort: {m}"),
    }
}

#[test]
fn basic_read_write_cycle() {
    let mut c = MysqlCluster::build(MysqlClusterConfig {
        seed: 1,
        bootstrap_rows: 100,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(200));
    c.submit(1, TxnSpec::single(Op::Insert(500, b"mysql".to_vec())));
    c.sim.run_for(SimDuration::from_millis(100));
    c.submit(2, TxnSpec::single(Op::Get(500)));
    c.sim.run_for(SimDuration::from_millis(100));
    let rs = c.responses();
    assert_eq!(rs.len(), 2);
    match &committed(&rs[1])[0] {
        OpResult::Row(Some(row)) => assert_eq!(&row[..5], b"mysql"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn mirrored_commit_latency_exceeds_single_az() {
    let run = |mirrored: bool| {
        let mut c = MysqlCluster::build(MysqlClusterConfig {
            seed: 2,
            mirrored,
            bootstrap_rows: 100,
            ..Default::default()
        });
        c.sim.run_for(SimDuration::from_millis(200));
        c.sim.clear_stats();
        for i in 0..50u64 {
            c.submit(i, TxnSpec::single(Op::Upsert(i, vec![1])));
            c.sim.run_for(SimDuration::from_millis(20));
        }
        c.sim.metrics.histogram_total("mysql.commit_ns").p50()
    };
    let single = run(false);
    let mirrored = run(true);
    // Figure 2: the standby chain adds a synchronous cross-AZ leg plus a
    // second EBS pair — latency is additive.
    assert!(
        mirrored as f64 > single as f64 * 1.3,
        "mirrored {mirrored}ns vs single {single}ns"
    );
}

#[test]
fn write_path_issues_log_binlog_and_page_ios() {
    let mut c = MysqlCluster::build(MysqlClusterConfig {
        seed: 3,
        mirrored: true,
        bootstrap_rows: 100,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(200));
    c.sim.clear_stats();
    for i in 0..100u64 {
        c.submit(i, TxnSpec::single(Op::Upsert(i, vec![2])));
        c.sim.run_for(SimDuration::from_millis(5));
    }
    c.sim.run_for(SimDuration::from_millis(500));
    let commits = c.sim.metrics.counter_total("mysql.write_txns");
    assert_eq!(commits, 100);
    // the amplified write kinds of Figure 2 all occur
    let log = c.sim.net().class_packets("ebs_log_write");
    let pages = c.sim.net().class_packets("ebs_page_write");
    let ship = c.sim.net().class_packets("standby_ship");
    assert!(log >= 100, "log flushes {log}"); // log + binlog appends
    assert!(pages > 0, "page flushes {pages}");
    assert!(ship > 0, "standby shipping {ship}");
}

#[test]
fn crash_recovery_replays_and_rolls_back() {
    let mut c = MysqlCluster::build(MysqlClusterConfig {
        seed: 4,
        bootstrap_rows: 100,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(200));
    // committed work
    for i in 0..10u64 {
        c.submit(i, TxnSpec::single(Op::Insert(1_000 + i, vec![5])));
    }
    c.sim.run_for(SimDuration::from_millis(300));
    assert_eq!(c.sim.metrics.counter_total("mysql.write_txns"), 10);
    // an in-flight transaction at crash time
    let ops: Vec<Op> = (0..30u64).map(|i| Op::Insert(2_000 + i, vec![6])).collect();
    c.submit(99, TxnSpec { ops });
    c.sim.run_for(SimDuration::from_micros(800));
    c.sim.crash(c.engine);
    c.sim.run_for(SimDuration::from_millis(20));
    c.sim.restart(c.engine);
    c.sim.run_for(SimDuration::from_millis(1_000));
    assert!(c.sim.actor::<MysqlEngine>(c.engine).is_ready());
    assert!(c.sim.metrics.counter_total("mysql.recoveries") >= 1);

    // committed rows visible, uncommitted rolled back
    for i in 0..10u64 {
        c.submit(3_000 + i, TxnSpec::single(Op::Get(1_000 + i)));
    }
    for i in 0..30u64 {
        c.submit(4_000 + i, TxnSpec::single(Op::Get(2_000 + i)));
    }
    c.sim.run_for(SimDuration::from_millis(2_000));
    let rs = c.responses();
    for r in rs.iter().filter(|r| (3_000..3_010).contains(&r.conn)) {
        match &committed(r)[0] {
            OpResult::Row(Some(row)) => assert_eq!(row[0], 5),
            other => panic!("committed row lost: {other:?}"),
        }
    }
    let rolled: Vec<_> = rs.iter().filter(|r| r.conn >= 4_000).collect();
    assert_eq!(rolled.len(), 30);
    for r in rolled {
        match &committed(r)[0] {
            OpResult::Row(None) => {}
            other => panic!("uncommitted write survived: {other:?}"),
        }
    }
}

#[test]
fn checkpoints_stall_foreground_writes() {
    let mut c = MysqlCluster::build_with(
        MysqlClusterConfig {
            seed: 5,
            bootstrap_rows: 8_000,
            checkpoint_every_records: Some(400), // checkpoint frequently
            ..Default::default()
        },
        |e| {
            e.flusher_interval = SimDuration::from_millis(1_000); // lazy flusher
            e.flusher_batch = 4; // slow checkpoint drain
        },
    );
    c.sim.run_for(SimDuration::from_millis(1_000));
    c.sim.clear_stats();
    // writes scattered widely dirty many pages; continuous submission
    // guarantees writes arrive while a checkpoint is draining
    for i in 0..300u64 {
        c.submit(
            i,
            TxnSpec::single(Op::Upsert(i * 53 % 8_000, vec![i as u8])),
        );
        c.sim.run_for(SimDuration::from_micros(500));
    }
    c.sim.run_for(SimDuration::from_secs(2));
    assert!(c.sim.metrics.counter_total("mysql.checkpoints") >= 1);
    assert!(
        c.sim.metrics.counter_total("mysql.checkpoint_stalls") > 0,
        "checkpointing must interfere with foreground writes"
    );
    assert_eq!(c.sim.metrics.counter_total("mysql.write_txns"), 300);
}

#[test]
fn binlog_replica_lags_under_write_pressure() {
    let mut c = MysqlCluster::build(MysqlClusterConfig {
        seed: 6,
        bootstrap_rows: 100,
        binlog_replicas: 1,
        replica_apply_cost: SimDuration::from_millis(2), // 500/s capacity
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(200));
    // ~2000 commits/s demand for 1 simulated second
    for burst in 0..100u64 {
        for i in 0..20u64 {
            c.submit(burst * 20 + i, TxnSpec::single(Op::Upsert(i, vec![1])));
        }
        c.sim.run_for(SimDuration::from_millis(10));
    }
    let lag = c.sim.metrics.histogram_total("mysql.replica_lag_ns");
    assert!(lag.count() > 0);
    assert!(
        lag.max() > SimDuration::from_millis(300).nanos(),
        "overloaded single-threaded apply must lag: max {}ms",
        lag.max() / 1_000_000
    );
}

/// The counters a MySQL fingerprint pins, in table order.
const PINNED_COUNTERS: [&str; 7] = [
    "mysql.log_flushes",
    "mysql.page_flushes",
    "mysql.evict_flushes",
    "mysql.checkpoints",
    "mysql.checkpoint_stalls",
    "mysql.lock_waits",
    "mysql.lock_timeouts",
];

/// The write kinds of Figure 2, counted as packets per network class.
const PINNED_CLASSES: [&str; 3] = ["ebs_log_write", "ebs_page_write", "standby_ship"];

/// What one seeded MySQL run leaves behind: client commits and aborts,
/// the [`PINNED_COUNTERS`], packets per [`PINNED_CLASSES`], the final sim
/// clock and the number of dispatched events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    commits: u64,
    aborts: u64,
    counters: [u64; 7],
    packets: [u64; 3],
    clock_ns: u64,
    events: u64,
}

fn fingerprint_of(c: &MysqlCluster) -> Fingerprint {
    let rs = c.responses();
    let commits = rs
        .iter()
        .filter(|r| matches!(r.result, TxnResult::Committed(_)))
        .count() as u64;
    Fingerprint {
        commits,
        aborts: rs.len() as u64 - commits,
        counters: PINNED_COUNTERS.map(|n| c.sim.metrics.counter_total(n)),
        packets: PINNED_CLASSES.map(|n| c.sim.net().class_packets(n)),
        clock_ns: c.sim.now().nanos(),
        events: c.sim.events_dispatched(),
    }
}

/// Mirrored write-only: two-row upserts in key order (no deadlocks), each
/// commit walking the full log → binlog → standby chain.
fn mirrored_write_only() -> Fingerprint {
    let mut c = MysqlCluster::build(MysqlClusterConfig {
        seed: 21,
        mirrored: true,
        bootstrap_rows: 400,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(200));
    for i in 0..120u64 {
        let (a, b) = (i * 7 % 400, i * 13 % 400);
        let mut ops = vec![Op::Upsert(a.min(b), vec![i as u8])];
        if a != b {
            ops.push(Op::Upsert(a.max(b), vec![i as u8]));
        }
        c.submit(i, TxnSpec { ops });
        c.sim.run_for(SimDuration::from_millis(2));
    }
    c.sim.run_for(SimDuration::from_millis(300));
    fingerprint_of(&c)
}

/// A 24-page cache under scattered reads and writes: dirty LRU victims
/// flush in the foreground and frequent checkpoints gate new writes.
fn small_cache_read_write() -> Fingerprint {
    let mut c = MysqlCluster::build_with(
        MysqlClusterConfig {
            seed: 22,
            bootstrap_rows: 3_000,
            checkpoint_every_records: Some(300),
            ..Default::default()
        },
        |e| {
            e.instance.buffer_pages = 24;
            e.flusher_interval = SimDuration::from_secs(1);
            e.flusher_batch = 8;
        },
    );
    c.sim.run_for(SimDuration::from_millis(200));
    for i in 0..150u64 {
        let ops = vec![
            Op::Get(i * 37 % 3_000),
            Op::Upsert(i * 53 % 3_000, vec![i as u8]),
        ];
        c.submit(i, TxnSpec { ops });
        c.sim.run_for(SimDuration::from_millis(3));
    }
    c.sim.run_for(SimDuration::from_secs(1));
    fingerprint_of(&c)
}

/// Committed upserts, then a long transaction in flight at the crash:
/// restart replays the log from the checkpoint and rolls it back.
fn crash_replay_rollback() -> Fingerprint {
    let mut c = MysqlCluster::build(MysqlClusterConfig {
        seed: 23,
        bootstrap_rows: 400,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(200));
    for i in 0..20u64 {
        c.submit(i, TxnSpec::single(Op::Upsert(i, vec![5])));
    }
    c.sim.run_for(SimDuration::from_millis(200));
    let ops: Vec<Op> = (100..130u64).map(|k| Op::Upsert(k, vec![6])).collect();
    c.submit(99, TxnSpec { ops });
    c.sim.run_for(SimDuration::from_micros(800));
    c.sim.crash(c.engine);
    c.sim.run_for(SimDuration::from_millis(20));
    c.sim.restart(c.engine);
    c.sim.run_for(SimDuration::from_secs(1));
    for k in 100..130u64 {
        c.submit(1_000 + k, TxnSpec::single(Op::Get(k)));
    }
    c.sim.run_for(SimDuration::from_millis(200));
    fingerprint_of(&c)
}

/// Two-row upserts over four hot rows in arbitrary order: deadlock cycles
/// that only the 2 s lock-wait timeout breaks, several expiring together.
fn hot_row_contention() -> Fingerprint {
    let mut c = MysqlCluster::build(MysqlClusterConfig {
        seed: 24,
        bootstrap_rows: 100,
        ..Default::default()
    });
    c.sim.run_for(SimDuration::from_millis(200));
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for wave in 0..12u64 {
        for j in 0..8u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = x % 4;
            let b = (a + 1 + (x >> 8) % 3) % 4;
            let mut ops = vec![Op::Upsert(a, vec![j as u8])];
            if x >> 20 & 1 == 1 {
                ops.push(Op::Upsert(b, vec![j as u8]));
            }
            c.submit(wave * 8 + j, TxnSpec { ops });
        }
        c.sim.run_for(SimDuration::from_millis(400));
    }
    c.sim.run_for(SimDuration::from_secs(5));
    fingerprint_of(&c)
}

/// Same-seed replay of the MySQL path, pinned. Four seeded configurations
/// each run twice and must agree with themselves and with the table; a
/// refactor of the baseline engine that changes any of these numbers
/// changed its behaviour.
#[test]
fn mysql_fingerprint_is_pinned() {
    type Config = (&'static str, fn() -> Fingerprint, Fingerprint);
    const PINNED: [Config; 4] = [
        (
            "mirrored write-only",
            mirrored_write_only,
            Fingerprint {
                commits: 120,
                aborts: 0,
                counters: [77, 234, 0, 0, 0, 1, 0],
                packets: [232, 490, 154],
                clock_ns: 740_000_000,
                events: 5_969,
            },
        ),
        (
            "small-cache read/write",
            small_cache_read_write,
            Fingerprint {
                commits: 150,
                aborts: 0,
                counters: [150, 19, 128, 1, 1, 0, 0],
                packets: [301, 453, 0],
                clock_ns: 1_650_000_000,
                events: 6_767,
            },
        ),
        (
            "crash/replay/rollback",
            crash_replay_rollback,
            Fingerprint {
                commits: 50,
                aborts: 0,
                counters: [2, 2, 0, 0, 0, 0, 0],
                packets: [5, 26, 0],
                clock_ns: 1_620_800_000,
                events: 1_618,
            },
        ),
        (
            "hot-row contention",
            hot_row_contention,
            Fingerprint {
                commits: 27,
                aborts: 69,
                counters: [27, 24, 0, 0, 0, 107, 69],
                packets: [55, 55, 0],
                clock_ns: 10_000_000_000,
                events: 8_158,
            },
        ),
    ];
    let mut diverged = Vec::new();
    for (name, run, pinned) in PINNED {
        let first = run();
        assert_eq!(first, run(), "{name}: two same-seed runs disagree");
        if first != pinned {
            diverged.push(format!("{name}: {first:?}"));
        }
    }
    assert!(
        diverged.is_empty(),
        "fingerprints moved:\n{}",
        diverged.join("\n")
    );
}

#[test]
fn tiny_cache_forces_eviction_flushes() {
    let mut c = MysqlCluster::build_with(
        MysqlClusterConfig {
            seed: 7,
            bootstrap_rows: 4_000,
            ..Default::default()
        },
        |e| {
            e.instance.buffer_pages = 16;
            e.flusher_interval = SimDuration::from_secs(10); // keep pages dirty
        },
    );
    c.sim.run_for(SimDuration::from_millis(3_000));
    c.sim.clear_stats();
    // writes scattered across the keyspace dirty many pages; reads of cold
    // pages then force dirty evictions
    for i in 0..100u64 {
        c.submit(i, TxnSpec::single(Op::Upsert(i * 37 % 4_000, vec![1])));
        c.sim.run_for(SimDuration::from_millis(5));
    }
    c.sim.run_for(SimDuration::from_millis(2_000));
    assert!(
        c.sim.metrics.counter_total("mysql.page_fetches") > 0,
        "cold reads must fetch"
    );
    assert!(
        c.sim.metrics.counter_total("mysql.evict_flushes") > 0,
        "dirty victims must be flushed in the foreground"
    );
}
