//! The contract between the program and its benchmark (`benchmark/`).
//!
//! The benchmark reads registry metrics, trace kinds and network classes
//! by string (`benchmark/src/pass.rs`, `benchmark/src/waterfall.rs`), and
//! a name it cannot find reads as 0, silently. This test drives the two
//! shapes the benchmark drives — a single cluster (here with a replica,
//! packet loss, a browned-out storage node and a writer crash) and a
//! two-shard cluster behind a proxy — and asserts every such name is
//! still emitted: non-zero wherever a shape exercises it, and at least
//! present in the emitting source where neither shape does. A rename in
//! a refactor then fails here instead of zeroing a ledger column.

use aurora::core::cluster::{Cluster, ClusterConfig, ShardedCluster, ShardedConfig};
use aurora::core::engine::EngineStatus;
use aurora::core::proxy::ProxyConfig;
use aurora::core::wire::{Op, TxnSpec};
use aurora::sim::{BrownoutSpec, FaultPlan, PacketChaos, SimDuration, TracePhase};
use aurora::storage::StorageNodeConfig;

/// Which shape must make a name non-zero.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Single,
    Sharded,
    /// Exercised by neither shape: only its presence in the source is
    /// checked.
    Quiet,
}

const COUNTERS: &[(&str, Shape)] = &[
    ("engine.batches", Shape::Single),
    ("engine.records_shipped", Shape::Single),
    ("engine.ship_immediate", Shape::Single),
    ("engine.ship_size", Shape::Single),
    ("engine.ship_deadline", Shape::Single),
    ("engine.ship_forced", Shape::Single),
    ("engine.log_write_retransmits", Shape::Single),
    ("engine.hedged_ships", Shape::Single),
    ("engine.health_strikes", Shape::Single),
    ("engine.lal_stalls", Shape::Quiet),
    ("engine.lock_waits", Shape::Single),
    ("engine.lock_timeouts", Shape::Single),
    ("engine.read_retries", Shape::Single),
    ("replica.applied", Shape::Single),
    ("replica.discarded", Shape::Single),
    ("proxy.shed_full", Shape::Sharded),
    ("proxy.shed_deadline", Shape::Sharded),
    ("proxy.shard_forwarded", Shape::Sharded),
    ("storage.batches_in", Shape::Single),
    ("storage.fast_acks", Shape::Single),
    ("storage.page_reads", Shape::Single),
    ("storage.coalesced", Shape::Single),
    ("storage.gc_records", Shape::Single),
    ("storage.gossip_filled", Shape::Single),
    ("storage.read_rejected", Shape::Single),
    ("control.repairs_completed", Shape::Single),
    ("control.fences", Shape::Single),
];

const HISTOGRAMS: &[(&str, Shape)] = &[
    ("engine.commit_ns", Shape::Single),
    ("engine.ack_ns", Shape::Single),
    ("engine.select_ns", Shape::Single),
    ("engine.update_ns", Shape::Single),
    ("engine.page_fetch_ns", Shape::Single),
    ("engine.recovery_ns", Shape::Single),
    ("replica.lag_ns", Shape::Single),
    ("storage.persist_ns", Shape::Single),
    ("proxy.queue_ns", Shape::Sharded),
];

/// Trace kinds the commit waterfall folds, with the phase it keys on.
const TRACE_KINDS: &[(&str, TracePhase)] = &[
    ("engine.commit", TracePhase::Begin),
    ("engine.commit", TracePhase::End),
    ("engine.batch_quorum", TracePhase::Begin),
    ("engine.batch_quorum", TracePhase::End),
    ("storage.persist", TracePhase::Begin),
    ("storage.persist", TracePhase::End),
    ("storage.fast_ack", TracePhase::Instant),
    ("wm.vdl", TracePhase::Instant),
];

/// Network classes the benchmark divides by committed transactions.
const NET_CLASSES: &[&str] = &[
    "log_write",
    "log_ack",
    "page_read",
    "page_resp",
    "replica_stream",
    "gossip",
];

/// The files that emit every name above.
const SOURCES: &[&str] = &[
    include_str!("../crates/core/src/engine.rs"),
    include_str!("../crates/core/src/replica.rs"),
    include_str!("../crates/core/src/proxy.rs"),
    include_str!("../crates/core/src/wire.rs"),
    include_str!("../crates/storage/src/node.rs"),
    include_str!("../crates/storage/src/control.rs"),
    include_str!("../crates/storage/src/wire.rs"),
];

fn value(v: u64) -> Vec<u8> {
    v.to_le_bytes().repeat(4)
}

fn in_source(name: &str) -> bool {
    let quoted = format!("\"{name}\"");
    SOURCES.iter().any(|s| s.contains(&quoted))
}

/// One seeded single cluster: a replica, a small buffer cache (reads
/// miss), hot-key contention with a short lock timeout, a small batch
/// size cap, a browned-out storage node (fenced and repaired), lossy
/// writer-to-storage links with one member cut off for a while, half the
/// members partitioned from the writer past the first backoff step, and
/// a writer crash mid-load.
fn single() -> Cluster {
    let ms = SimDuration::from_millis;
    let mut c = Cluster::build_with(
        ClusterConfig {
            seed: 42,
            pgs: 2,
            pages_per_pg: 2_000,
            replicas: 1,
            spares: 3,
            with_control: true,
            bootstrap_rows: 4_000,
            // peers keep a record past one 50 ms gossip round before
            // coalescing and GC drop it, so a member's holes are filled by
            // gossip rather than by a full catch-up copy
            storage_cfg: StorageNodeConfig {
                coalesce_interval: SimDuration::from_millis(60),
                ..Default::default()
            },
            ..Default::default()
        },
        |e| {
            e.instance.buffer_pages = 48;
            e.lock_wait_timeout = ms(2);
            e.max_batch_records = 24;
        },
    );
    let mut guard = 0;
    while c.engine_actor().status() != EngineStatus::Ready {
        c.sim.run_for(ms(50));
        guard += 1;
        assert!(guard < 200, "bootstrap never finished");
    }
    c.sim.trace.enable(1 << 20);

    let mut plan = FaultPlan::new().brownout_for(
        ms(10),
        ms(600),
        c.storage[0],
        BrownoutSpec {
            ramp_secs: 0.1,
            peak_factor: 8.0,
        },
    );
    let lossy = PacketChaos {
        drop: 0.05,
        ..Default::default()
    };
    let (cut, rest) = c.storage.split_last().expect("storage nodes");
    for s in rest {
        plan = plan.flaky_link_for(ms(10), ms(600), c.engine, *s, lossy);
    }
    // one member hears nothing from the writer for a while: its peers
    // catch it up
    let silent = PacketChaos {
        drop: 1.0,
        ..Default::default()
    };
    plan = plan.flaky_link_for(ms(10), ms(200), c.engine, *cut, silent);
    // later, half the members are cut off for longer than the first
    // backoff step: no ack exposes the loss, so a full retransmit fires
    for s in &rest[..3] {
        plan = plan.partition_pair_for(ms(450), ms(40), c.engine, *s);
    }
    c.sim.install_fault_plan(&plan);

    let mut conn = 0u64;
    for round in 0..300u64 {
        if round == 150 {
            c.sim.crash(c.engine);
            c.sim.run_for(ms(10));
            c.sim.restart(c.engine);
            while c.engine_actor().status() != EngineStatus::Ready {
                c.sim.run_for(ms(5));
            }
        }
        // a burst every 50 rounds fills the pipe past the size cap
        let txns = if round % 50 == 0 { 300 } else { 6 };
        for i in 0..txns {
            conn += 1;
            let key = (round * 131 + i * 17) % 4_000;
            let ops = match i % 3 {
                // two writers on one hot key: lock waits and timeouts
                0 => vec![Op::Upsert(7, value(conn)), Op::Get(key)],
                1 => vec![Op::Get(key), Op::Get((key + 2_000) % 4_000)],
                _ => vec![Op::Upsert(key, value(conn))],
            };
            c.submit(conn, TxnSpec { ops });
        }
        // replica reads fill its cache, so streamed records apply
        conn += 1;
        c.submit_to_replica(0, conn, TxnSpec::single(Op::Get(round % 4_000)));
        c.sim.run_for(ms(2));
    }
    c.sim.run_for(ms(500));
    c
}

/// Two shards behind one proxy with a tight queue, offered far more than
/// the lanes admit, so the proxy both queues and sheds.
fn sharded() -> ShardedCluster {
    let ms = SimDuration::from_millis;
    let mut c = ShardedCluster::build(ShardedConfig {
        seed: 42,
        shards: 2,
        proxies: 1,
        shard: ClusterConfig {
            bootstrap_rows: 1_000,
            ..Default::default()
        },
        proxy: ProxyConfig {
            slots_per_shard: 2,
            queue_watermark: 16,
            queue_deadline: ms(4),
            ..ProxyConfig::default()
        },
        expected_sessions: 0,
    });
    let mut guard = 0;
    while !c.all_ready() {
        c.sim.run_for(ms(50));
        guard += 1;
        assert!(guard < 200, "sharded bootstrap never finished");
    }
    let mut conn = 0u64;
    for round in 0..20u64 {
        for i in 0..40u64 {
            conn += 1;
            let key = (round * 40 + i) % 1_000;
            c.submit_via(0, conn, TxnSpec::single(Op::Upsert(key, value(conn))));
        }
        c.sim.run_for(ms(5));
    }
    c.sim.run_for(ms(200));
    c
}

#[test]
fn benchmark_names_are_emitted() {
    let s = single();
    let p = sharded();
    let mut missing = Vec::new();

    for &(name, shape) in COUNTERS {
        let got = match shape {
            Shape::Single => s.sim.metrics.counter_total(name),
            Shape::Sharded => p.sim.metrics.counter_total(name),
            Shape::Quiet => 1,
        };
        if got == 0 || !in_source(name) {
            missing.push(format!("counter {name}: {got}"));
        }
    }
    for &(name, shape) in HISTOGRAMS {
        let got = match shape {
            Shape::Single => s.sim.metrics.histogram_total(name).count(),
            Shape::Sharded => p.sim.metrics.histogram_total(name).count(),
            Shape::Quiet => 1,
        };
        if got == 0 || !in_source(name) {
            missing.push(format!("histogram {name}: {got} samples"));
        }
    }
    let trace = &s.sim.trace;
    assert_eq!(trace.dropped(), 0, "trace ring too small for the run");
    for &(kind, phase) in TRACE_KINDS {
        let got = trace
            .events()
            .filter(|e| e.phase == phase && trace.kind_name(e.kind) == kind)
            .count();
        if got == 0 || !in_source(kind) {
            missing.push(format!("trace {kind} {phase:?}: {got} events"));
        }
    }
    for &class in NET_CLASSES {
        let got = s.sim.net().class_packets(class);
        if got == 0 || !in_source(class) {
            missing.push(format!("net class {class}: {got} packets"));
        }
    }
    assert!(
        missing.is_empty(),
        "names the benchmark reads are no longer emitted:\n  {}",
        missing.join("\n  ")
    );
}
