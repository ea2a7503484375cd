//! One function per table and figure of the paper's evaluation (§6), plus
//! the §4.3 recovery claim, the §2.2 durability analysis, and the
//! design-choice ablations from DESIGN.md.
//!
//! Every function prints the same rows/series the paper reports and
//! returns them for programmatic use. The `scale` parameter multiplies
//! measurement windows: `1.0` for the real runs recorded in
//! EXPERIMENTS.md, smaller for the `cargo bench` smoke suite.

use aurora_baseline::MysqlFlavor;
use aurora_core::engine::InstanceSpec;
use aurora_quorum::{mc_quorum_loss, p_double_fault, repair_time_secs, McParams, QuorumConfig};
use aurora_sim::{BrownoutSpec, FaultPlan, PacketChaos, SimDuration};

use crate::harness::{self, AuroraParams, MysqlParams, RunStats};
use crate::workload::Mix;

thread_local! {
    /// Per-thread capture buffer for suite output. `None` (the default)
    /// means lines go straight to stdout; [`captured`] installs a buffer
    /// so the worker pool can run suites concurrently and print their
    /// outputs in suite order — byte-identical to a sequential run.
    static SINK: std::cell::RefCell<Option<String>> = const { std::cell::RefCell::new(None) };
}

/// Emit one suite-output line: into this thread's capture buffer if one
/// is installed, else to stdout.
#[doc(hidden)]
pub fn emit_line(line: std::fmt::Arguments<'_>) {
    SINK.with(|s| match s.borrow_mut().as_mut() {
        Some(buf) => {
            use std::fmt::Write as _;
            let _ = writeln!(buf, "{line}");
        }
        None => println!("{line}"),
    });
}

/// Run `f` with this thread's suite output captured; returns the captured
/// text alongside `f`'s result.
pub fn captured<R>(f: impl FnOnce() -> R) -> (String, R) {
    SINK.with(|s| *s.borrow_mut() = Some(String::new()));
    let r = f();
    let text = SINK.with(|s| s.borrow_mut().take().unwrap_or_default());
    (text, r)
}

/// `println!` for suite output, routed through the capture sink.
macro_rules! say {
    () => { crate::experiments::emit_line(format_args!("")) };
    ($($arg:tt)*) => { crate::experiments::emit_line(format_args!($($arg)*)) };
}

fn window(scale: f64, secs: f64) -> SimDuration {
    SimDuration::from_secs_f64((secs * scale).max(0.2))
}

fn hdr(title: &str) {
    say!();
    say!("================================================================");
    say!("{title}");
    say!("================================================================");
}

/// Table 1 — network IOs for Aurora vs mirrored MySQL.
///
/// Paper: SysBench write-only, 100 GB, 30 minutes. Aurora sustained 35×
/// the transactions with 7.7× fewer IOs/transaction at the database tier
/// (0.95 vs 7.4).
pub fn table1(scale: f64) -> Vec<(String, RunStats)> {
    hdr("Table 1: SysBench write-only — transactions & IOs/transaction");
    let mut aurora = AuroraParams::new(Mix::WriteOnly { writes: 2 });
    aurora.rows = 60_000; // "100 GB": cached (the paper's 100GB fits RAM)
    aurora.replicas = 2; // "Aurora with Replicas"
    aurora.window = window(scale, 4.0);
    let a = harness::run_aurora(&aurora);

    let mut mysql = MysqlParams::new(Mix::WriteOnly { writes: 2 });
    mysql.flavor = MysqlFlavor::V56;
    mysql.mirrored = true;
    mysql.rows = 60_000;
    mysql.window = window(scale, 4.0);
    // sync_binlog + DRBD-era 5.6 barely group-commits
    let m = harness::run_mysql_with(&mysql, |e| {
        e.group_commit_limit = 4;
    });

    say!(
        "{:<24} {:>14} {:>16}",
        "Configuration",
        "Transactions",
        "IOs/Transaction"
    );
    say!(
        "{:<24} {:>14} {:>16.2}",
        "Mirrored MySQL",
        m.commits,
        m.ios_per_txn
    );
    say!(
        "{:<24} {:>14} {:>16.2}",
        "Aurora with Replicas",
        a.commits,
        a.ios_per_txn
    );
    say!(
        "-> Aurora/MySQL transactions: {:.1}x ; MySQL/Aurora IOs per txn: {:.1}x",
        a.commits as f64 / m.commits.max(1) as f64,
        m.ios_per_txn / a.ios_per_txn.max(1e-9)
    );
    vec![("aurora".into(), a), ("mirrored-mysql-5.6".into(), m)]
}

/// Figure 6 — read-only reads/sec across instance sizes.
pub fn fig6(scale: f64) -> Vec<(String, RunStats)> {
    hdr("Figure 6: SysBench read-only — reads/sec vs instance size");
    let mut out = Vec::new();
    say!(
        "{:<12} {:>14} {:>14} {:>14}",
        "instance",
        "aurora",
        "mysql 5.6",
        "mysql 5.7"
    );
    for inst in InstanceSpec::r3_family() {
        let mut a = AuroraParams::new(Mix::ReadOnly { selects: 10 });
        a.instance = inst.clone();
        a.rows = 10_000; // "1 GB", fully cached
        a.connections = 256;
        a.window = window(scale, 1.5);
        let ra = harness::run_aurora(&a);

        let mut rows = Vec::new();
        for flavor in [MysqlFlavor::V56, MysqlFlavor::V57] {
            let mut m = MysqlParams::new(Mix::ReadOnly { selects: 10 });
            m.instance = inst.clone();
            m.flavor = flavor;
            m.rows = 10_000;
            m.connections = 256;
            m.window = window(scale, 1.5);
            rows.push(harness::run_mysql(&m));
        }
        say!(
            "{:<12} {:>14.0} {:>14.0} {:>14.0}",
            inst.name,
            ra.rps,
            rows[0].rps,
            rows[1].rps
        );
        out.push((format!("aurora/{}", inst.name), ra));
        out.push((format!("mysql56/{}", inst.name), rows.remove(0)));
        out.push((format!("mysql57/{}", inst.name), rows.remove(0)));
    }
    out
}

/// Figure 7 — write-only writes/sec across instance sizes.
pub fn fig7(scale: f64) -> Vec<(String, RunStats)> {
    hdr("Figure 7: SysBench write-only — writes/sec vs instance size");
    let mut out = Vec::new();
    say!(
        "{:<12} {:>14} {:>14} {:>14}",
        "instance",
        "aurora",
        "mysql 5.6",
        "mysql 5.7"
    );
    for inst in InstanceSpec::r3_family() {
        let mut a = AuroraParams::new(Mix::WriteOnly { writes: 2 });
        a.instance = inst.clone();
        a.rows = 10_000;
        a.connections = 256;
        a.window = window(scale, 1.5);
        let ra = harness::run_aurora(&a);

        let mut rows = Vec::new();
        for flavor in [MysqlFlavor::V56, MysqlFlavor::V57] {
            let mut m = MysqlParams::new(Mix::WriteOnly { writes: 2 });
            m.instance = inst.clone();
            m.flavor = flavor;
            m.rows = 10_000;
            m.connections = 256;
            m.window = window(scale, 1.5);
            rows.push(harness::run_mysql(&m));
        }
        say!(
            "{:<12} {:>14.0} {:>14.0} {:>14.0}",
            inst.name,
            ra.wps,
            rows[0].wps,
            rows[1].wps
        );
        out.push((format!("aurora/{}", inst.name), ra));
        out.push((format!("mysql56/{}", inst.name), rows.remove(0)));
        out.push((format!("mysql57/{}", inst.name), rows.remove(0)));
    }
    out
}

/// Table 2 — write-only writes/sec vs data size.
///
/// Paper sizes map to cache-to-data ratios: the 170 GB buffer fully caches
/// 1–100 GB and covers ~17% of 1 TB.
pub fn table2(scale: f64) -> Vec<(String, RunStats)> {
    hdr("Table 2: SysBench write-only (writes/sec) vs DB size");
    // Paper sizes map to cache-to-data ratios (the 170 GB buffer caches
    // 1-100 GB fully and ~17% of 1 TB). Keyspaces stay large enough that
    // row-lock collisions remain as rare as in the real 1M+-row datasets.
    // (label, rows, buffer_pages)
    let sizes: [(&str, u64, usize); 4] = [
        ("1 GB", 30_000, 3_000),
        ("10 GB", 60_000, 3_000),
        ("100 GB", 120_000, 3_000),
        ("1 TB", 300_000, 2_500),
    ];
    let mut out = Vec::new();
    say!("{:<8} {:>14} {:>14}", "DB size", "aurora", "mysql");
    for (label, rows, buffer) in sizes {
        let mut a = AuroraParams::new(Mix::WriteOnly { writes: 2 });
        a.rows = rows;
        a.buffer_pages = Some(buffer);
        a.connections = 256;
        a.window = window(scale, 2.0);
        let ra = harness::run_aurora(&a);

        let mut m = MysqlParams::new(Mix::WriteOnly { writes: 2 });
        m.flavor = MysqlFlavor::V56;
        m.rows = rows;
        m.buffer_pages = Some(buffer);
        m.connections = 256;
        m.window = window(scale, 2.0);
        let rm = harness::run_mysql(&m);

        say!("{:<8} {:>14.0} {:>14.0}", label, ra.wps, rm.wps);
        out.push((format!("aurora/{label}"), ra));
        out.push((format!("mysql/{label}"), rm));
    }
    out
}

/// Table 3 — OLTP writes/sec vs connection count.
pub fn table3(scale: f64) -> Vec<(String, RunStats)> {
    hdr("Table 3: SysBench OLTP (writes/sec) vs connections");
    let mut out = Vec::new();
    say!("{:<12} {:>14} {:>14}", "connections", "aurora", "mysql");
    for conns in [50usize, 500, 5_000] {
        // thousands of connections take a while to reach steady state
        // (the convoy at start is itself the thrashing the paper
        // observes) — warm adaptively until every connection has cycled
        // and the completion rate settles; the formula below is only the
        // safety cap for wedged runs
        let warm_cap = SimDuration::from_secs_f64(1.0 + conns as f64 * 0.002);
        let mut a = AuroraParams::new(Mix::Oltp);
        a.connections = conns;
        a.rows = 30_000;
        a.warmup = warm_cap;
        a.warmup_auto = true;
        a.window = window(scale, 2.0);
        let ra = harness::run_aurora(&a);

        let mut m = MysqlParams::new(Mix::Oltp);
        m.flavor = MysqlFlavor::V56;
        m.connections = conns;
        m.rows = 30_000;
        m.warmup = warm_cap;
        m.warmup_auto = true;
        m.window = window(scale, 2.0);
        let rm = harness::run_mysql(&m);

        say!("{:<12} {:>14.0} {:>14.0}", conns, ra.wps, rm.wps);
        out.push((format!("aurora/{conns}"), ra));
        out.push((format!("mysql/{conns}"), rm));
    }
    out
}

/// Table 4 — replica lag vs writes/sec.
pub fn table4(scale: f64) -> Vec<(String, RunStats)> {
    hdr("Table 4: replica lag (ms) vs writes/sec");
    let mut out = Vec::new();
    say!(
        "{:<12} {:>16} {:>18}",
        "writes/sec",
        "aurora lag (ms)",
        "mysql lag (ms)"
    );
    for rate in [1_000.0f64, 2_000.0, 5_000.0, 10_000.0] {
        let mut a = AuroraParams::new(Mix::WriteOnly { writes: 1 });
        a.rows = 20_000;
        a.replicas = 1;
        a.rate = Some(rate);
        a.window = window(scale, 3.0);
        let ra = harness::run_aurora(&a);

        let mut m = MysqlParams::new(Mix::WriteOnly { writes: 1 });
        m.rows = 20_000;
        m.binlog_replicas = 1;
        m.replica_apply_cost = SimDuration::from_micros(400); // 2.5K/s cap
        m.rate = Some(rate);
        m.window = window(scale, 3.0);
        let rm = harness::run_mysql(&m);

        say!(
            "{:<12.0} {:>16.2} {:>18.0}",
            rate,
            ra.lag_p50_ms.unwrap_or(0.0),
            rm.lag_max_ms.unwrap_or(0.0),
        );
        out.push((format!("aurora/{rate}"), ra));
        out.push((format!("mysql/{rate}"), rm));
    }
    say!("(aurora column: P50 lag; mysql column: max lag — the paper's MySQL numbers are runaway queues)");
    out
}

/// Table 5 — TPC-C-like tpmC under hot-row contention.
pub fn table5(scale: f64) -> Vec<(String, RunStats)> {
    hdr("Table 5: TPC-C-like (tpmC) — connections/size/warehouses");
    let cases: [(&str, usize, u64, u64); 4] = [
        ("500c/10GB/100wh", 500, 30_000, 100),
        ("5000c/10GB/100wh", 5_000, 30_000, 100),
        ("500c/100GB/1000wh", 500, 80_000, 1_000),
        ("5000c/100GB/1000wh", 5_000, 80_000, 1_000),
    ];
    let mut out = Vec::new();
    say!(
        "{:<22} {:>12} {:>12} {:>12}",
        "case",
        "aurora",
        "mysql 5.6",
        "mysql 5.7"
    );
    for (label, conns, rows, wh) in cases {
        let mix = Mix::TpccLike {
            warehouses: wh,
            items: 5,
        };
        // adaptive warmup (see table3); the formula is only the cap
        let warm_cap = SimDuration::from_secs_f64(1.0 + conns as f64 * 0.002);
        let mut a = AuroraParams::new(mix.clone());
        a.connections = conns;
        a.rows = rows;
        a.warmup = warm_cap;
        a.warmup_auto = true;
        a.window = window(scale, 2.0);
        let ra = harness::run_aurora(&a);

        let mut results = Vec::new();
        for flavor in [MysqlFlavor::V56, MysqlFlavor::V57] {
            let mut m = MysqlParams::new(mix.clone());
            m.flavor = flavor;
            m.connections = conns;
            m.rows = rows;
            m.warmup = warm_cap;
            m.warmup_auto = true;
            m.window = window(scale, 2.0);
            results.push(harness::run_mysql(&m));
        }
        say!(
            "{:<22} {:>12.0} {:>12.0} {:>12.0}",
            label,
            ra.tps * 60.0,
            results[0].tps * 60.0,
            results[1].tps * 60.0
        );
        out.push((format!("aurora/{label}"), ra));
        out.push((format!("mysql56/{label}"), results.remove(0)));
        out.push((format!("mysql57/{label}"), results.remove(0)));
    }
    out
}

/// Figures 8, 9, 10 — the §6.2 customer migration: web response time and
/// per-statement P50/P95 before (MySQL on a gray EBS volume) and after
/// (Aurora) migration.
pub fn fig8_9_10(scale: f64) -> Vec<(String, RunStats)> {
    hdr("Figures 8-10: customer migration — web response & stmt latency");
    let mix = Mix::Web {
        reads: 6,
        writes: 2,
    };

    // Before: MySQL with an out-of-cache working set on a volume with
    // occasional 25 ms outliers (the "poor outlier performance" of §6.2).
    let mut m = MysqlParams::new(mix.clone());
    m.rows = 60_000;
    m.connections = 100;
    m.window = window(scale, 3.0);
    let rm = {
        let mut c = aurora_baseline::MysqlCluster::build_with(
            aurora_baseline::MysqlClusterConfig {
                seed: m.seed,
                instance: m.instance.clone(),
                flavor: m.flavor,
                mirrored: false,
                bootstrap_rows: m.rows,
                ebs_outlier: Some((25, 0.02)),
                ..Default::default()
            },
            |e| {
                e.cpu_per_op = harness::calib::aurora_write();
                e.cpu_per_read = harness::calib::mysql_read();
                e.cpu_per_commit = harness::calib::commit();
                e.instance.buffer_pages = 1_500;
            },
        );
        run_mysql_cluster(&mut c, &m)
    };

    // After: Aurora, same cache-to-data ratio; the quorum and read-
    // redirect absorb storage outliers.
    let mut a = AuroraParams::new(mix);
    a.rows = 60_000;
    a.buffer_pages = Some(1_500);
    a.connections = 100;
    a.window = window(scale, 3.0);
    let ra = harness::run_aurora_with(
        &a,
        |e| {
            e.read_timeout = SimDuration::from_millis(5); // fast redirect
        },
        |_, _| {},
    );

    say!("Figure 8 (web transaction response time, ms):");
    say!(
        "  before (MySQL):  P50 {:>7.2}  P95 {:>7.2}",
        rm.txn_p50_ms,
        rm.txn_p95_ms
    );
    say!(
        "  after  (Aurora): P50 {:>7.2}  P95 {:>7.2}",
        ra.txn_p50_ms,
        ra.txn_p95_ms
    );
    say!("Figure 9 (SELECT latency, µs):");
    say!(
        "  before: P50 {:>8.0}  P95 {:>8.0}",
        rm.select_p50_us,
        rm.select_p95_us
    );
    say!(
        "  after:  P50 {:>8.0}  P95 {:>8.0}",
        ra.select_p50_us,
        ra.select_p95_us
    );
    say!("Figure 10 (per-record write latency, µs):");
    say!(
        "  before: P50 {:>8.0}  P95 {:>8.0}",
        rm.insert_p50_us,
        rm.insert_p95_us
    );
    say!(
        "  after:  P50 {:>8.0}  P95 {:>8.0}",
        ra.insert_p50_us,
        ra.insert_p95_us
    );
    vec![("mysql-before".into(), rm), ("aurora-after".into(), ra)]
}

// helper: run a prepared MysqlCluster with the standard workload loop
fn run_mysql_cluster(c: &mut aurora_baseline::MysqlCluster, p: &MysqlParams) -> RunStats {
    use aurora_sim::{NodeOpts, Zone};
    let mut guard = 0;
    while !c
        .sim
        .actor::<aurora_baseline::MysqlEngine>(c.engine)
        .is_ready()
    {
        c.sim.run_for(SimDuration::from_millis(100));
        guard += 1;
        assert!(guard < 10_000);
    }
    let engine = c.engine;
    c.sim.add_node(
        "workload",
        Zone(0),
        Box::new(crate::workload::WorkloadActor::new(
            crate::workload::WorkloadConfig {
                target: engine,
                connections: p.connections,
                mix: p.mix.clone(),
                keyspace: p.rows,
                rate: p.rate,
                seed: p.seed,
                value_size: 64,
            },
        )),
        NodeOpts::default(),
    );
    c.sim.run_for(p.warmup);
    c.sim.clear_stats();
    c.sim.run_for(p.window);
    let m = &c.sim.metrics;
    let commits = m.counter_total("client.commits");
    let txn = m.histogram_total("client.txn_ns");
    let sel = m.histogram_total("mysql.select_ns");
    let ins = m.histogram_total("mysql.update_ns");
    let tps = commits as f64 / p.window.secs_f64();
    RunStats {
        label: "mysql".into(),
        window_secs: p.window.secs_f64(),
        commits,
        aborts: m.counter_total("client.aborts"),
        tps,
        wps: tps * p.mix.writes_per_txn() as f64,
        rps: tps * p.mix.reads_per_txn() as f64,
        txn_p50_ms: txn.p50() as f64 / 1e6,
        txn_p95_ms: txn.p95() as f64 / 1e6,
        select_p50_us: sel.p50() as f64 / 1e3,
        select_p95_us: sel.p95() as f64 / 1e3,
        insert_p50_us: ins.p50() as f64 / 1e3,
        insert_p95_us: ins.p95() as f64 / 1e3,
        ..Default::default()
    }
}

/// Figure 11 — maximum replica lag across 4 Aurora replicas, per interval.
pub fn fig11(scale: f64) -> Vec<(String, f64)> {
    hdr("Figure 11: max Aurora replica lag across 4 replicas (per interval)");
    let mut a = AuroraParams::new(Mix::WriteOnly { writes: 1 });
    a.rows = 20_000;
    a.replicas = 4;
    a.window = window(scale, 2.0);

    let rates = [500.0f64, 2_000.0, 5_000.0, 2_000.0, 800.0];
    let mut out = Vec::new();
    say!("{:<10} {:>16}", "interval", "max lag (ms)");
    for (i, rate) in rates.iter().enumerate() {
        let mut p = a.clone();
        p.seed = a.seed + i as u64;
        p.rate = Some(*rate);
        let r = harness::run_aurora(&p);
        let max = r.lag_max_ms.unwrap_or(0.0);
        say!("{:<10} {:>16.2}", i, max);
        out.push((format!("interval-{i}"), max));
    }
    say!("(paper: maximum replica lag never exceeded 20 ms)");
    out
}

/// Figure 12 — Zero-Downtime Patching under load.
pub fn fig12(scale: f64) -> Vec<(String, f64)> {
    hdr("Figure 12: Zero-Downtime Patch under load");
    use aurora_core::wire::{ZdpDone, ZdpPatch};
    use aurora_sim::{NodeOpts, Probe, Relay, Zone};

    let p = {
        let mut p = AuroraParams::new(Mix::Oltp);
        p.connections = 64;
        p.rows = 10_000;
        p.window = window(scale, 2.0);
        p
    };
    let mut c = aurora_core::cluster::Cluster::build_with(
        aurora_core::cluster::ClusterConfig {
            seed: p.seed,
            pgs: 2,
            pages_per_pg: 4_000,
            storage_nodes: 6,
            bootstrap_rows: p.rows,
            ..Default::default()
        },
        |e| {
            e.cpu_per_op = harness::calib::aurora_write();
            e.cpu_per_read = harness::calib::aurora_read();
            e.cpu_per_commit = harness::calib::commit();
        },
    );
    let mut guard = 0;
    while c.engine_actor().status() != aurora_core::engine::EngineStatus::Ready {
        c.sim.run_for(SimDuration::from_millis(100));
        guard += 1;
        assert!(guard < 10_000);
    }
    let engine = c.engine;
    c.sim.add_node(
        "workload",
        Zone(0),
        Box::new(crate::workload::WorkloadActor::new(
            crate::workload::WorkloadConfig {
                target: engine,
                connections: p.connections,
                mix: p.mix.clone(),
                keyspace: p.rows,
                rate: None,
                seed: p.seed,
                value_size: 64,
            },
        )),
        NodeOpts::default(),
    );
    c.sim.run_for(p.warmup);
    c.sim.clear_stats();
    c.sim.run_for(p.window.mul_f64(0.5));
    let client = c.client;
    c.sim
        .tell(client, Relay::new(engine, ZdpPatch { version: 2 }));
    c.sim.run_for(p.window.mul_f64(0.5));

    let commits = c.sim.metrics.counter_total("client.commits");
    let probe = c.sim.actor::<Probe>(c.client);
    let done = probe.received::<ZdpDone>();
    let (preserved, dropped) = done
        .first()
        .map(|(_, d)| (d.sessions_preserved, d.connections_dropped))
        .unwrap_or((0, u64::MAX));
    say!("patched under load: sessions preserved = {preserved}, connections dropped = {dropped}");
    say!("transactions completed around the patch window: {commits}");
    vec![
        ("connections_dropped".into(), dropped as f64),
        ("sessions_preserved".into(), preserved as f64),
        ("commits".into(), commits as f64),
    ]
}

/// §4.3 — crash recovery time: Aurora (no replay) vs MySQL (checkpoint
/// replay), at comparable write load.
pub fn recovery(scale: f64) -> Vec<(String, f64)> {
    hdr("Recovery: crash under write load (§4.3: Aurora < 10 s, no replay)");
    let mut a = AuroraParams::new(Mix::WriteOnly { writes: 2 });
    a.rows = 30_000;
    a.connections = 256;
    a.window = window(scale, 2.0);
    let (a_ms, a_wps) = harness::aurora_recovery_time(&a);

    let mut out = vec![("aurora_recovery_ms".into(), a_ms)];
    say!(
        "aurora : recovery {:>9.1} ms  (~{:.0} writes/sec before crash; no log replay)",
        a_ms,
        a_wps
    );
    for checkpoint_every in [5_000u64, 20_000, 80_000] {
        let mut m = MysqlParams::new(Mix::WriteOnly { writes: 2 });
        m.rows = 30_000;
        m.connections = 256;
        m.window = window(scale, 2.0);
        let (m_ms, m_wps) = harness::mysql_recovery_time(&m, checkpoint_every);
        say!(
            "mysql  : recovery {:>9.1} ms  (checkpoint every {:>9} records, ~{:.0} writes/sec)",
            m_ms,
            checkpoint_every,
            m_wps
        );
        out.push((format!("mysql_recovery_ms/cp{checkpoint_every}"), m_ms));
    }
    say!("(longer checkpoint intervals = longer replay; Aurora needs none)");
    out
}

/// §2.2 — durability math: double-fault probability vs repair speed, and
/// the AZ+1 Monte-Carlo.
pub fn durability(_scale: f64) -> Vec<(String, f64)> {
    hdr("Durability (§2.2): segment size, MTTR and quorum loss");
    let mttf = 500_000.0; // ~6 days MTTF per segment replica: pessimistic
    say!("analytic P(durability loss | AZ down) with V=6/4/3:");
    let mut out = Vec::new();
    for (label, seg_bytes) in [
        ("10 GB segment", 10_u64.pow(10)),
        ("100 GB segment", 10_u64.pow(11)),
        ("1 TB (unsegmented)", 10_u64.pow(12)),
    ] {
        let mttr = repair_time_secs(seg_bytes, 1_250_000_000);
        let p = p_double_fault(&QuorumConfig::aurora(), mttf, mttr);
        say!("  {label:<20} MTTR {mttr:>8.0}s  P = {p:.3e}");
        out.push((format!("p_double_fault/{label}"), p));
    }
    say!();
    say!("Monte-Carlo, 1 simulated month per trial, AZ outage injected:");
    for (label, cfg, mttr) in [
        ("aurora 6/4/3, 10s repair", QuorumConfig::aurora(), 10.0),
        ("aurora 6/4/3, 1d repair", QuorumConfig::aurora(), 86_400.0),
        (
            "2/3 quorum,   10s repair",
            QuorumConfig::two_of_three(),
            10.0,
        ),
        (
            "2/3 quorum,   1d repair",
            QuorumConfig::two_of_three(),
            86_400.0,
        ),
    ] {
        let r = mc_quorum_loss(&McParams {
            cfg,
            mttf_secs: mttf,
            mttr_secs: mttr,
            horizon_secs: 3_600.0 * 24.0 * 30.0,
            az_outage_secs: 3_600.0,
            trials: 2_000,
            seed: 7,
        });
        say!(
            "  {label:<26} P(lose durability) = {:>7.4}   P(lose writes) = {:>7.4}",
            r.p_quorum_loss,
            r.p_write_loss
        );
        out.push((format!("mc_quorum_loss/{label}"), r.p_quorum_loss));
    }
    out
}

// helper mirroring run_mysql_cluster for prepared Aurora clusters
fn run_aurora_cluster(c: &mut aurora_core::cluster::Cluster, p: &AuroraParams) -> RunStats {
    use aurora_sim::{NodeOpts, Zone};
    let mut guard = 0;
    while c.engine_actor().status() != aurora_core::engine::EngineStatus::Ready {
        c.sim.run_for(SimDuration::from_millis(100));
        guard += 1;
        assert!(guard < 10_000);
    }
    let engine = c.engine;
    c.sim.add_node(
        "workload",
        Zone(0),
        Box::new(crate::workload::WorkloadActor::new(
            crate::workload::WorkloadConfig {
                target: engine,
                connections: p.connections,
                mix: p.mix.clone(),
                keyspace: p.rows,
                rate: p.rate,
                seed: p.seed,
                value_size: 64,
            },
        )),
        NodeOpts::default(),
    );
    c.sim.run_for(p.warmup);
    c.sim.clear_stats();
    c.sim.run_for(p.window);
    let m = &c.sim.metrics;
    let commits = m.counter_total("client.commits");
    let txn = m.histogram_total("client.txn_ns");
    let tps = commits as f64 / p.window.secs_f64();
    RunStats {
        label: "aurora".into(),
        window_secs: p.window.secs_f64(),
        commits,
        aborts: m.counter_total("client.aborts"),
        tps,
        wps: tps * p.mix.writes_per_txn() as f64,
        rps: tps * p.mix.reads_per_txn() as f64,
        txn_p50_ms: txn.p50() as f64 / 1e6,
        txn_p95_ms: txn.p95() as f64 / 1e6,
        ..Default::default()
    }
}

/// Ablation — quorum shape under outlier-prone storage disks: 4/6 absorbs
/// the tail; waiting for all six inherits it (the mirrored-MySQL 4/4
/// failure mode of §3.1).
pub fn ablation_quorum(scale: f64) -> Vec<(String, RunStats)> {
    hdr("Ablation: quorum shape vs slow storage (commit latency)");
    let slow_disk = {
        let mut d = aurora_sim::DiskSpec::default();
        d.write_latency = d
            .write_latency
            .with_outlier(aurora_sim::Dist::const_millis(20), 0.10);
        d
    };
    let mut out = Vec::new();
    for (label, quorum) in [
        ("4/6 (aurora)", QuorumConfig::aurora()),
        (
            "6/6 (wait for all)",
            QuorumConfig {
                copies: 6,
                write_quorum: 6,
                read_quorum: 1,
                azs: 3,
                copies_per_az: 2,
            },
        ),
    ] {
        let mut p = AuroraParams::new(Mix::WriteOnly { writes: 2 });
        p.rows = 10_000;
        p.quorum = quorum;
        p.connections = 128;
        p.window = window(scale, 2.0);
        let r = {
            let mut c = aurora_core::cluster::Cluster::build_with(
                aurora_core::cluster::ClusterConfig {
                    seed: p.seed,
                    pgs: 2,
                    pages_per_pg: 4_000,
                    storage_nodes: 6,
                    bootstrap_rows: p.rows,
                    quorum: p.quorum,
                    storage_disk: Some(slow_disk.clone()),
                    ..Default::default()
                },
                |e| {
                    e.cpu_per_op = harness::calib::aurora_write();
                    e.cpu_per_read = harness::calib::aurora_read();
                    e.cpu_per_commit = harness::calib::commit();
                    e.quorum = p.quorum;
                },
            );
            run_aurora_cluster(&mut c, &p)
        };
        say!(
            "{:<20} commit P50 {:>8.2} ms   P95 {:>8.2} ms   ({:.0} writes/sec)",
            label,
            r.txn_p50_ms,
            r.txn_p95_ms,
            r.wps
        );
        out.push((label.to_string(), r));
    }
    out
}

/// One measured point on the latency-vs-throughput frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Offered open-loop arrival rate (txn/s).
    pub offered_tps: f64,
    pub stats: RunStats,
}

/// Frontier — ack and commit latency vs offered throughput.
///
/// §4.2.2's asynchronous group commit means the only synchronous work on
/// the commit path is shipping redo to the 4/6 quorum; the group-commit
/// rule decides how long a sealed commit record waits before that ship
/// starts. Sweeping an open-loop arrival rate maps the engine's position
/// on the latency/throughput plane: at low load records ship as soon as
/// they are sealed, and toward saturation the full pipe batches them up
/// to the size cap or the `flush_interval` deadline.
pub fn frontier(scale: f64) -> Vec<FrontierPoint> {
    hdr("Frontier: ack/commit latency vs offered throughput");
    let mut out = Vec::new();
    say!(
        "{:<22} {:>9} {:>11} {:>11} {:>12} {:>12}",
        "offered rate",
        "tps",
        "ack p50 µs",
        "ack p99 µs",
        "commit p50ms",
        "commit p99ms"
    );
    for offered in [500.0f64, 2_000.0, 8_000.0, 16_000.0] {
        let mut p = AuroraParams::new(Mix::WriteOnly { writes: 2 });
        p.rows = 10_000;
        p.connections = 128;
        p.rate = Some(offered);
        p.window = window(scale, 1.5);
        let stats = harness::run_aurora(&p);
        say!(
            "{:<22.0} {:>9.0} {:>11.1} {:>11.1} {:>12.3} {:>12.3}",
            offered,
            stats.tps,
            stats.ack_p50_us.unwrap_or(f64::NAN),
            stats.ack_p99_us.unwrap_or(f64::NAN),
            stats.commit_p50_ms.unwrap_or(f64::NAN),
            stats.commit_p99_ms.unwrap_or(f64::NAN),
        );
        out.push(FrontierPoint {
            offered_tps: offered,
            stats,
        });
    }
    out
}

/// One measured point from the gray-failure sweep.
#[derive(Debug, Clone)]
pub struct GrayfailPoint {
    /// `clean`, `brownout` (one storage node at 8× disk latency), or
    /// `brownout+loss` (same brownout plus 4% global packet drop).
    pub scenario: &'static str,
    pub stats: RunStats,
}

/// Gray failure — commit latency under a single-node brownout.
///
/// §4.1: with a 4/6 write quorum "we are insensitive to ... a slow disk
/// or network path" — one browned-out node alone barely moves commit
/// latency, because every batch reaches quorum on the five healthy
/// segments. Re-shipping starts to matter when batches sit *below*
/// quorum: pairing the brownout with a few percent of global packet loss
/// produces exactly those batches. There the engine re-ships a batch that
/// a later ack shows lost, hedges to the slowest unacked members when no
/// ack does, and backs off exponentially on the browned-out one.
pub fn grayfail(scale: f64) -> Vec<GrayfailPoint> {
    hdr("Gray failure: commit latency under brownout");
    let mut out = Vec::new();
    say!(
        "{:<26} {:>9} {:>12} {:>12} {:>11} {:>9} {:>8}",
        "scenario",
        "tps",
        "commit p50ms",
        "commit p99ms",
        "ack p99 µs",
        "retrans",
        "hedges"
    );
    let win = window(scale, 2.0);
    // Fault span: onset at 10% of the window, heal at 90% — long enough
    // that the ramped brownout dominates the measured distribution.
    let onset = SimDuration::from_nanos(win.nanos() / 10);
    let dur = SimDuration::from_nanos(win.nanos() * 8 / 10);
    let browned_node = 1; // first storage node (Cluster::build layout)
    let brownout = BrownoutSpec {
        ramp_secs: dur.secs_f64() / 3.0,
        peak_factor: 8.0,
    };
    let loss = PacketChaos {
        drop: 0.04,
        ..Default::default()
    };
    for scenario in ["clean", "brownout", "brownout+loss"] {
        let mut p = AuroraParams::new(Mix::WriteOnly { writes: 2 });
        p.rows = 10_000;
        p.connections = 128;
        p.rate = Some(4_000.0);
        p.window = win;
        let mut plan = FaultPlan::new();
        if scenario != "clean" {
            plan = plan.brownout_for(onset, dur, browned_node, brownout);
        }
        if scenario == "brownout+loss" {
            plan = plan.packet_chaos_for(onset, dur, loss);
        }
        if !plan.entries().is_empty() {
            p.fault_plan = Some(plan);
        }
        let stats = harness::run_aurora(&p);
        say!(
            "{:<26} {:>9.0} {:>12.3} {:>12.3} {:>11.1} {:>9.0} {:>8.0}",
            scenario,
            stats.tps,
            stats.commit_p50_ms.unwrap_or(f64::NAN),
            stats.commit_p99_ms.unwrap_or(f64::NAN),
            stats.ack_p99_us.unwrap_or(f64::NAN),
            stats.extra["engine.log_write_retransmits"],
            stats.extra["engine.hedged_ships"],
        );
        out.push(GrayfailPoint { scenario, stats });
    }
    out
}

/// One measured step of the connection-scale ladder.
#[derive(Debug, Clone)]
pub struct ConnscalePoint {
    pub sessions: u32,
    pub shards: usize,
    pub stats: crate::connscale::ConnscaleStats,
}

/// Connection scale-out — sessions vs throughput across a sharded,
/// proxied deployment (§6.3's "thousands of connections" lesson pushed
/// to its logical end).
///
/// Each step builds N independent volumes behind a proxy tier, attaches
/// a memory-lean session fleet (think time 1 s, one upsert per
/// transaction), warms up until the admitted-session count and commit
/// rate stabilize, then measures. The 5k → 250k steps stay under fleet
/// capacity (throughput grows with sessions); the 1M step oversubscribes
/// 16 shards ~3.6× and must *degrade gracefully* — the proxy admission
/// queues shed the excess while committed throughput holds near
/// capacity.
///
/// Suite text carries only simulation-derived numbers (RSS is
/// process-global and scheduling-dependent; it goes to bench-json only),
/// so reports stay byte-identical across `--jobs` settings.
pub fn connscale(scale: f64) -> Vec<ConnscalePoint> {
    connscale_ladder(
        scale,
        &[(5_000, 1), (50_000, 4), (250_000, 16), (1_000_000, 16)],
    )
}

/// CI smoke slice of [`connscale`]: 5k sessions over 2 shards.
pub fn connscale_smoke(scale: f64) -> Vec<ConnscalePoint> {
    connscale_ladder(scale, &[(5_000, 2)])
}

/// Nightly slice of [`connscale`]: the 50k/4-shard step.
pub fn connscale_nightly(scale: f64) -> Vec<ConnscalePoint> {
    connscale_ladder(scale, &[(50_000, 4)])
}

fn connscale_ladder(scale: f64, steps: &[(u32, usize)]) -> Vec<ConnscalePoint> {
    hdr("Connection scale: sessions vs throughput (sharded + proxy tier)");
    let mut out = Vec::new();
    say!(
        "{:<10} {:>7} {:>10} {:>12} {:>12} {:>11} {:>8} {:>9} {:>9}",
        "sessions",
        "shards",
        "tps",
        "commit p50",
        "commit p99",
        "txn p99",
        "shed %",
        "warmup s",
        "admitted"
    );
    for &(sessions, shards) in steps {
        let mut p = crate::connscale::ConnscaleParams::new(sessions, shards);
        p.window = window(scale, 0.4);
        let s = crate::connscale::run_connscale_step(&p);
        say!(
            "{:<10} {:>7} {:>10.0} {:>9.2} ms {:>9.2} ms {:>8.2} ms {:>8.2} {:>9.2} {:>9}",
            sessions,
            shards,
            s.tps,
            s.commit_p50_ms.unwrap_or(f64::NAN),
            s.commit_p99_ms.unwrap_or(f64::NAN),
            s.txn_p99_ms.unwrap_or(f64::NAN),
            s.shed_rate * 100.0,
            s.warmup_s,
            s.admitted
        );
        for r in &s.per_shard {
            say!(
                "    shard {:>2}: forwarded {:>8}  shed {:>7}  commits {:>7}  commit p99 {:>7.2} ms",
                r.shard,
                r.forwarded,
                r.sheds,
                r.commits,
                r.commit_p99_ms.unwrap_or(f64::NAN)
            );
        }
        out.push(ConnscalePoint {
            sessions,
            shards,
            stats: s,
        });
    }
    out
}

/// Ablation — CPL granularity (§4.1: a client "can simply mark every log
/// record as a CPL").
pub fn ablation_cpl(scale: f64) -> Vec<(String, RunStats)> {
    hdr("Ablation: CPL granularity (per-MTR vs every record)");
    let mut out = Vec::new();
    for (label, mode) in [
        ("CPL per MTR", aurora_log::mtr::CplMode::LastOnly),
        ("CPL on every record", aurora_log::mtr::CplMode::Every),
    ] {
        let mut p = AuroraParams::new(Mix::WriteOnly { writes: 2 });
        p.rows = 10_000;
        p.connections = 128;
        p.window = window(scale, 1.5);
        let r = harness::run_aurora_with(
            &p,
            |e| {
                e.cpl_mode = mode;
            },
            |_, _| {},
        );
        say!(
            "{:<22} {:>10.0} writes/s   commit P50 {:>8.2} ms",
            label,
            r.wps,
            r.txn_p50_ms
        );
        out.push((label.to_string(), r));
    }
    out
}

/// Ablation — lossy network: gossip + retransmission keep the quorum
/// moving despite drops.
pub fn ablation_loss(scale: f64) -> Vec<(String, RunStats)> {
    hdr("Ablation: packet loss tolerance (gossip + retransmit)");
    let mut out = Vec::new();
    for loss in [0.0f64, 0.01, 0.05] {
        let mut p = AuroraParams::new(Mix::WriteOnly { writes: 2 });
        p.rows = 10_000;
        p.connections = 128;
        p.window = window(scale, 1.5);
        let r = harness::run_aurora_with(
            &p,
            |_| {},
            move |c, engine| {
                // drop packets only on the database<->storage paths; client
                // connections stay reliable (they have their own retries in
                // real deployments, which the workload driver does not model)
                let spec_for = |d: aurora_sim::Dist| aurora_sim::LinkSpec::new(d).with_loss(loss);
                let storage = c.storage.clone();
                for node in storage {
                    let to = c.sim.policy_mut().inter_zone.latency.clone();
                    c.sim
                        .policy_mut()
                        .set_override(engine, node, spec_for(to.clone()));
                    c.sim.policy_mut().set_override(node, engine, spec_for(to));
                }
            },
        );
        say!(
            "loss {:>4.1}%: {:>10.0} writes/s   commit P95 {:>8.2} ms   ({} aborts)",
            loss * 100.0,
            r.wps,
            r.txn_p95_ms,
            r.aborts
        );
        out.push((format!("loss-{loss}"), r));
    }
    out
}

/// Run everything.
pub fn run_all(scale: f64) {
    table1(scale);
    fig6(scale);
    fig7(scale);
    table2(scale);
    table3(scale);
    table4(scale);
    table5(scale);
    fig8_9_10(scale);
    fig11(scale);
    fig12(scale);
    recovery(scale);
    durability(scale);
    ablation_quorum(scale);
    ablation_cpl(scale);
    ablation_loss(scale);
    frontier(scale);
}
