//! Same-seed fingerprints of the Aurora workload shapes the benchmark
//! measures (`benchmark/src/workloads.rs`): saturated writes, read misses,
//! SysBench OLTP, open-loop commits at 2k and 48k tps, open-loop commits
//! under a disk brownout and lossy storage links, writer crashes under load,
//! and a session fleet on a sharded deployment behind a proxy.
//!
//! Each shape runs a short seeded window and reports client commits and
//! aborts, events dispatched, the final sim clock and packets per network
//! class. Two runs must agree, and both must match the pins below. A change
//! that claims to leave the simulation alone (a host-cost optimisation, a
//! refactor) proves it by leaving this test green; a change that moves a
//! pin changed behaviour and must say so. The gray shape is the only one
//! that drops packets or slows a disk, so it is the one that pins gossip
//! fill, gossip catch-up copies and fast acks of re-shipped duplicates.
//!
//! Windows are sized to keep the whole test under five seconds in a debug
//! build; the shapes run on parallel threads.

use aurora::bench::fleet::{FleetConfig, SessionFleet};
use aurora::bench::harness::{calib, run_aurora_with, AuroraParams, NET_CLASSES};
use aurora::bench::workload::Mix;
use aurora::core::cluster::{ClusterConfig, ShardedCluster, ShardedConfig};
use aurora::core::engine::InstanceSpec;
use aurora::core::proxy::ProxyConfig;
use aurora::sim::{BrownoutSpec, FaultPlan, NodeId, NodeOpts, PacketChaos, SimDuration, Zone};

/// What one seeded run leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    commits: u64,
    aborts: u64,
    events: u64,
    clock_ns: u64,
    /// Packets per class, in [`NET_CLASSES`] order.
    packets: [u64; 10],
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// A single-volume shape through the bench harness, on the benchmark's
/// calibrated statement costs.
fn harness_run(p: AuroraParams) -> Fingerprint {
    let s = run_aurora_with(&p, |_| {}, |_, _| {});
    let x = |k: &str| s.extra[k] as u64;
    Fingerprint {
        commits: s.commits,
        aborts: s.aborts,
        events: x("sim.events_dispatched"),
        clock_ns: x("sim.clock_ns"),
        packets: NET_CLASSES.map(|c| x(&format!("net.{c}.packets"))),
    }
}

fn params(mix: Mix, rows: u64, callers: usize, seed: u64) -> AuroraParams {
    let mut p = AuroraParams::new(mix);
    p.seed = seed;
    p.rows = rows;
    p.connections = callers;
    p.warmup = ms(20);
    p.window = ms(40);
    p
}

/// Closed callers, two upserts each, two replicas streaming.
fn write_sat() -> Fingerprint {
    let mut p = params(Mix::WriteOnly { writes: 2 }, 1_000, 64, 11);
    p.replicas = 2;
    p.window = ms(25);
    harness_run(p)
}

/// Ten selects per transaction against a cache far smaller than the rows.
fn read_miss() -> Fingerprint {
    let mut p = params(Mix::ReadOnly { selects: 10 }, 2_000, 32, 12);
    p.buffer_pages = Some(30);
    harness_run(p)
}

/// SysBench OLTP beside two replicas.
fn oltp_mixed() -> Fingerprint {
    let mut p = params(Mix::Oltp, 1_000, 16, 13);
    p.replicas = 2;
    harness_run(p)
}

/// Open loop at an offered rate.
fn open(tps: f64, seed: u64) -> Fingerprint {
    let mut p = params(Mix::WriteOnly { writes: 2 }, 1_000, 64, seed);
    p.rate = Some(tps);
    p.window = ms(if tps > 10_000.0 { 25 } else { 100 });
    harness_run(p)
}

/// Open loop at 4k tps while storage node 1's disk browns out to 8x and
/// every writer-storage and storage-storage link drops 4% of its packets,
/// from 10% to 90% of a window long enough for two gossip rounds.
fn gray_loss() -> Fingerprint {
    let mut p = params(Mix::WriteOnly { writes: 2 }, 1_000, 64, 33);
    p.rate = Some(4_000.0);
    p.window = ms(150);
    let (onset, dur) = (ms(15), ms(120));
    // node ids: the client probe, six storage nodes, then the writer
    let members: [NodeId; 7] = [7, 1, 2, 3, 4, 5, 6];
    let mut plan = FaultPlan::new().brownout_for(
        onset,
        dur,
        1,
        BrownoutSpec {
            ramp_secs: dur.secs_f64() / 3.0,
            peak_factor: 8.0,
        },
    );
    let chaos = PacketChaos {
        drop: 0.04,
        ..Default::default()
    };
    for (i, a) in members.iter().enumerate() {
        for b in &members[i + 1..] {
            plan = plan.flaky_link_for(onset, dur, *a, *b, chaos);
        }
    }
    p.fault_plan = Some(plan);
    harness_run(p)
}

/// The writer crashes twice under closed load and recovers each time.
fn writer_crashes() -> Fingerprint {
    let mut p = params(Mix::WriteOnly { writes: 2 }, 1_000, 64, 15);
    p.window = ms(120);
    // node ids: the client probe, six storage nodes, then the writer
    let writer: NodeId = 7;
    p.fault_plan = Some(
        FaultPlan::new()
            .crash_for(ms(10), ms(10), writer)
            .crash_for(ms(60), ms(10), writer),
    );
    harness_run(p)
}

/// Two shards behind one proxy, driven by a session fleet.
fn sharded_fleet() -> Fingerprint {
    let seed = 16;
    let mut c = ShardedCluster::build_with(
        ShardedConfig {
            seed,
            shards: 2,
            proxies: 1,
            shard: ClusterConfig {
                bootstrap_rows: 1_000,
                instance: InstanceSpec::r3("r3.2xlarge", 8, 16_000),
                ..Default::default()
            },
            proxy: ProxyConfig {
                slots_per_shard: 8,
                queue_watermark: 64,
                queue_deadline: ms(20),
                ..ProxyConfig::default()
            },
            expected_sessions: 1_000,
        },
        |_, e| {
            e.cpu_per_op = calib::aurora_write();
            e.cpu_per_read = calib::aurora_read();
            e.cpu_per_commit = calib::commit();
        },
    );
    let mut guard = 0;
    while !c.all_ready() {
        c.sim.run_for(ms(50));
        guard += 1;
        assert!(guard < 200, "sharded bootstrap never finished");
    }
    let mut fc = FleetConfig::new(c.proxies[0], 1_000);
    fc.keyspace = 1_000;
    fc.think = ms(100);
    fc.ramp = ms(100);
    fc.seed = seed;
    c.sim.add_node(
        "fleet",
        Zone(0),
        Box::new(SessionFleet::new(fc)),
        NodeOpts::default(),
    );
    c.sim.run_for(ms(100));
    let m = &c.sim.metrics;
    Fingerprint {
        commits: m.counter_total("fleet.commits"),
        aborts: m.counter_total("fleet.aborts") + m.counter_total("fleet.sheds"),
        events: c.sim.events_dispatched(),
        clock_ns: c.sim.now().nanos(),
        packets: NET_CLASSES.map(|class| c.sim.net().class_packets(class)),
    }
}

/// Same seed, same fingerprint, equal to the pins.
#[test]
fn workload_fingerprints_are_pinned() {
    type Shape = (&'static str, fn() -> Fingerprint, Fingerprint);
    let pinned: [Shape; 8] = [
        (
            "write_sat",
            write_sat,
            Fingerprint {
                commits: 932,
                aborts: 0,
                events: 13_773,
                clock_ns: 345_000_000,
                packets: [1864, 798, 800, 0, 0, 522, 0, 0, 0, 0],
            },
        ),
        (
            "read_miss",
            read_miss,
            Fingerprint {
                commits: 280,
                aborts: 0,
                events: 12_155,
                clock_ns: 360_000_000,
                packets: [559, 0, 0, 1440, 1438, 0, 6, 0, 0, 0],
            },
        ),
        (
            "oltp_mixed",
            oltp_mixed,
            Fingerprint {
                commits: 252,
                aborts: 0,
                events: 14_261,
                clock_ns: 360_000_000,
                packets: [508, 1284, 1290, 0, 0, 842, 12, 0, 0, 0],
            },
        ),
        (
            "open 2k tps",
            || open(2_000.0, 14),
            Fingerprint {
                commits: 179,
                aborts: 0,
                events: 9302,
                clock_ns: 420_000_000,
                packets: [354, 2034, 2048, 0, 0, 0, 18, 0, 0, 0],
            },
        ),
        (
            "open 48k tps",
            || open(48_000.0, 17),
            Fingerprint {
                commits: 1168,
                aborts: 0,
                events: 17_886,
                clock_ns: 345_000_000,
                packets: [2373, 810, 811, 0, 0, 0, 0, 0, 0, 0],
            },
        ),
        (
            "gray loss",
            gray_loss,
            Fingerprint {
                commits: 556,
                aborts: 0,
                events: 18_520,
                clock_ns: 470_000_000,
                packets: [1120, 4063, 3949, 0, 0, 0, 19, 0, 11, 0],
            },
        ),
        (
            "writer crashes",
            writer_crashes,
            Fingerprint {
                commits: 413,
                aborts: 0,
                events: 9616,
                clock_ns: 440_000_000,
                packets: [804, 330, 346, 3, 3, 0, 12, 108, 0, 0],
            },
        ),
        (
            "sharded fleet",
            sharded_fleet,
            Fingerprint {
                commits: 943,
                aborts: 305,
                events: 17_994,
                clock_ns: 150_000_000,
                packets: [4613, 3702, 3696, 0, 0, 0, 77, 0, 0, 0],
            },
        ),
    ];
    // The shapes are independent simulations: run them side by side.
    let runs: Vec<(Fingerprint, Fingerprint)> = std::thread::scope(|s| {
        let handles: Vec<_> = pinned
            .iter()
            .map(|(_, run, _)| s.spawn(move || (run(), run())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a shape's thread panicked"))
            .collect()
    });
    let mut diverged = Vec::new();
    for ((name, _, pin), (first, second)) in pinned.iter().zip(runs) {
        assert_eq!(first, second, "{name}: two same-seed runs disagree");
        assert!(first.commits > 0, "{name}: nothing committed");
        if first != *pin {
            diverged.push(format!("{name}: {first:?}"));
        }
    }
    assert!(
        diverged.is_empty(),
        "fingerprints moved:\n{}",
        diverged.join("\n")
    );
}
