//! Experiment harness: build a deployment, warm it up, measure a window,
//! extract the paper's metrics.
//!
//! ## Calibration
//!
//! The simulator cannot reproduce AWS's absolute numbers, so per-statement
//! CPU costs are calibrated once, here, against two anchors from §6.1 and
//! then **held fixed for every experiment**:
//!
//! * Aurora r3.8xlarge write-only ≈ 120K writes/sec  → write stmt 230 µs,
//!   commit 70 µs (32 vCPUs),
//! * Aurora r3.8xlarge read-only ≈ 600K reads/sec    → read stmt 50 µs.
//!
//! MySQL shares the write/commit costs (it is the same engine above the
//! IO layer) but pays more CPU per read (buffer-pool latching — the
//! paper's MySQL tops out around 125K reads/sec) and suffers
//! thread-per-connection scheduling overhead at thousands of connections
//! (§7.2). Everything else — commit chains, page flushing, checkpoints,
//! quorum writes — is emergent from the modeled IO paths, not calibrated.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use aurora_baseline::{MysqlCluster, MysqlClusterConfig, MysqlEngine, MysqlFlavor};
use aurora_core::cluster::{Cluster, ClusterConfig};
use aurora_core::engine::{EngineActor, EngineStatus, InstanceSpec};
use aurora_quorum::QuorumConfig;
use aurora_sim::{FaultPlan, NodeOpts, SimDuration, Zone};

use crate::workload::{Mix, WorkloadActor, WorkloadConfig};

/// Calibrated per-statement CPU costs (see module docs).
pub mod calib {
    use aurora_sim::SimDuration;

    pub fn aurora_write() -> SimDuration {
        SimDuration::from_micros(230)
    }
    pub fn aurora_read() -> SimDuration {
        SimDuration::from_micros(50)
    }
    pub fn commit() -> SimDuration {
        SimDuration::from_micros(70)
    }
    pub fn mysql_read() -> SimDuration {
        SimDuration::from_micros(250)
    }
}

/// Parameters for one Aurora run.
#[derive(Clone)]
pub struct AuroraParams {
    pub seed: u64,
    pub instance: InstanceSpec,
    pub connections: usize,
    pub mix: Mix,
    /// Bootstrap rows == workload keyspace.
    pub rows: u64,
    /// Buffer cache pages (None = instance default).
    pub buffer_pages: Option<usize>,
    pub replicas: usize,
    /// Open-loop rate (txns/sec); None = closed loop.
    pub rate: Option<f64>,
    pub warmup: SimDuration,
    pub window: SimDuration,
    pub quorum: QuorumConfig,
    /// Storage-fleet size (>= 6, multiple of 3).
    pub storage_nodes: usize,
    /// Declarative fault schedule installed at the end of warmup (offsets
    /// are relative to the measurement window start), replayable
    /// bit-for-bit from the run's seed.
    pub fault_plan: Option<FaultPlan>,
    /// Derive warmup from the workload instead of running `warmup`
    /// verbatim: warm in slices until every connection has completed at
    /// least one transaction and the completion rate stabilizes, with
    /// `warmup` as the cap (see [`warm_adaptive`]).
    pub warmup_auto: bool,
}

impl AuroraParams {
    pub fn new(mix: Mix) -> Self {
        AuroraParams {
            seed: 42,
            instance: InstanceSpec::r3_8xlarge(),
            connections: 256,
            mix,
            rows: 20_000,
            buffer_pages: None,
            replicas: 0,
            rate: None,
            warmup: SimDuration::from_millis(500),
            window: SimDuration::from_secs(2),
            quorum: QuorumConfig::aurora(),
            storage_nodes: 6,
            fault_plan: None,
            warmup_auto: false,
        }
    }
}

/// Parameters for one MySQL run.
#[derive(Clone)]
pub struct MysqlParams {
    pub seed: u64,
    pub instance: InstanceSpec,
    pub flavor: MysqlFlavor,
    pub mirrored: bool,
    pub connections: usize,
    pub mix: Mix,
    pub rows: u64,
    pub buffer_pages: Option<usize>,
    pub binlog_replicas: usize,
    pub replica_apply_cost: SimDuration,
    pub rate: Option<f64>,
    pub warmup: SimDuration,
    pub window: SimDuration,
    /// See [`AuroraParams::warmup_auto`].
    pub warmup_auto: bool,
}

impl MysqlParams {
    pub fn new(mix: Mix) -> Self {
        MysqlParams {
            seed: 42,
            instance: InstanceSpec::r3_8xlarge(),
            flavor: MysqlFlavor::V57,
            mirrored: false,
            connections: 256,
            mix,
            rows: 20_000,
            buffer_pages: None,
            binlog_replicas: 0,
            replica_apply_cost: SimDuration::from_micros(400),
            rate: None,
            warmup: SimDuration::from_millis(500),
            window: SimDuration::from_secs(2),
            warmup_auto: false,
        }
    }
}

/// Measured outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    pub label: String,
    pub window_secs: f64,
    pub commits: u64,
    pub aborts: u64,
    /// Committed transactions/sec.
    pub tps: f64,
    /// Write statements/sec (tps × writes-per-txn).
    pub wps: f64,
    /// Read statements/sec.
    pub rps: f64,
    /// Client-observed transaction latency.
    pub txn_p50_ms: f64,
    pub txn_p95_ms: f64,
    /// Engine-side per-statement latency (µs).
    pub select_p50_us: f64,
    pub select_p95_us: f64,
    pub insert_p50_us: f64,
    pub insert_p95_us: f64,
    /// Write IOs issued by the database node per committed transaction.
    pub ios_per_txn: f64,
    /// Commit latency distribution (ms) of write transactions, from the
    /// transaction's issue to the VDL covering its commit record
    /// (`engine.commit_ns`: execution plus commit wait). `None` when the
    /// window saw no commits — read-only mixes and wedged runs must not
    /// masquerade as zero-latency ones.
    pub commit_p50_ms: Option<f64>,
    pub commit_p95_ms: Option<f64>,
    pub commit_p99_ms: Option<f64>,
    pub commit_max_ms: Option<f64>,
    /// Storage ack latency distribution (µs): batch send to each segment
    /// ack at the writer (retransmitted batches measure from the resend).
    /// `None` when no acks arrived in the window.
    pub ack_p50_us: Option<f64>,
    pub ack_p95_us: Option<f64>,
    pub ack_p99_us: Option<f64>,
    pub ack_max_us: Option<f64>,
    /// Replica lag (ms), if replicas were present.
    pub lag_p50_ms: Option<f64>,
    pub lag_p95_ms: Option<f64>,
    pub lag_p99_ms: Option<f64>,
    pub lag_max_ms: Option<f64>,
    /// Anything else an experiment wants to carry.
    pub extra: BTreeMap<String, f64>,
}

/// Every network class an Aurora deployment sends on. [`run_aurora_with`]
/// reports packets per class as `net.<class>.packets` in
/// [`RunStats::extra`].
pub const NET_CLASSES: [&str; 10] = [
    "client",
    "log_write",
    "log_ack",
    "page_read",
    "page_resp",
    "replica_stream",
    "gossip",
    "recovery",
    "repair",
    "ctrl",
];

fn ns_ms(v: u64) -> f64 {
    v as f64 / 1e6
}
fn ns_us(v: u64) -> f64 {
    v as f64 / 1e3
}

/// Process-global trace capture directory for harness runs (set by
/// `experiments --trace DIR`). When set, every Aurora run records a
/// causal trace over its measurement window and writes the artifacts
/// (Chrome JSON, NDJSON, watermark table) into the directory, named
/// after the run label. Reporting-only: tracing records simulated time,
/// so enabling it never changes measured results.
static TRACE_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
/// Distinguishes multiple runs with the same label within one process.
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

pub fn set_trace_dir(dir: Option<PathBuf>) {
    *TRACE_DIR.lock().unwrap() = dir;
}

fn trace_dir() -> Option<PathBuf> {
    TRACE_DIR.lock().unwrap().clone()
}

/// Process-global timeline switch (set by `experiments --timeline`).
/// When on, every Aurora run samples windowed telemetry (100ms windows,
/// the default Aurora SLO probes) over its measurement window and prints
/// the sparkline timeline after its stats. Reporting-only: the sampler
/// observes simulated time without scheduling events, so enabling it
/// never changes measured results — and output rides the suite capture
/// sink, so it stays byte-identical across `--jobs`.
static TIMELINE: AtomicBool = AtomicBool::new(false);

pub fn set_timeline(on: bool) {
    TIMELINE.store(on, Ordering::Relaxed);
}

fn timeline_on() -> bool {
    TIMELINE.load(Ordering::Relaxed)
}

fn write_run_trace(dir: &PathBuf, label: &str, c: &Cluster) {
    let dump = crate::dst::render_trace(c);
    let slug: String = label
        .chars()
        .map(|ch| if ch.is_ascii_alphanumeric() { ch } else { '-' })
        .collect();
    let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
    let base = format!("{slug}_{seq:03}");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let _ = std::fs::write(dir.join(format!("{base}.trace.json")), &dump.chrome);
    let _ = std::fs::write(dir.join(format!("{base}.trace.ndjson")), &dump.ndjson);
    let _ = std::fs::write(dir.join(format!("{base}.watermarks.txt")), &dump.watermarks);
}

/// Peak resident set size in kB, from `/proc/self/status` VmHWM
/// (Linux-only; 0 where unavailable). Process-global and monotone —
/// callers measure growth via before/after deltas. Reporting-only:
/// never fold it into deterministic comparison digests.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Warm a freshly-built deployment until it reaches steady state, the
/// criterion *derived* from the connection count rather than a
/// hardcoded seconds-per-connection formula (Tables 3/5 run up to
/// thousands of connections whose start-up convoy length depends on the
/// mix and the engine, not just the count): run in 100 ms slices until
///
/// * every connection has completed at least one transaction
///   (closed-loop, so completions ≥ connections means every session has
///   been admitted and cycled at least once), and
/// * the completion rate moved < 8% between two consecutive slices.
///
/// Capped at `cap` so a wedged deployment cannot warm forever. Returns
/// the warmup actually spent.
pub fn warm_adaptive(
    sim: &mut aurora_sim::Sim,
    connections: usize,
    cap: SimDuration,
) -> SimDuration {
    let slice = SimDuration::from_millis(100);
    let mut spent = SimDuration::ZERO;
    let mut prev_total = 0u64;
    let mut prev_slice: Option<u64> = None;
    while spent < cap {
        sim.run_for(slice);
        spent = spent + slice;
        let total = sim.metrics.counter_total("client.commits")
            + sim.metrics.counter_total("client.aborts");
        let this = total - prev_total;
        prev_total = total;
        let all_cycled = total >= connections as u64;
        let flat = matches!(prev_slice, Some(prev) if prev > 0 && this > 0 && {
            let (hi, lo) = (this.max(prev) as f64, this.min(prev) as f64);
            (hi - lo) / hi <= 0.08
        });
        prev_slice = Some(this);
        if all_cycled && flat {
            break;
        }
    }
    spent
}

/// Run an Aurora configuration and return its statistics.
pub fn run_aurora(p: &AuroraParams) -> RunStats {
    run_aurora_with(p, |_| {}, |_, _| {})
}

/// Like [`run_aurora`] but with an engine-config tweak and a post-warmup
/// hook (used by the ablations to, e.g., slow down one storage path).
pub fn run_aurora_with(
    p: &AuroraParams,
    tweak: impl FnOnce(&mut aurora_core::engine::EngineConfig),
    after_warmup: impl FnOnce(&mut Cluster, aurora_sim::NodeId),
) -> RunStats {
    // Sequential bootstrap leaves B+-tree leaves ~half-full (~19 rows per
    // 4 KiB leaf at 96-byte rows); size the volume with headroom.
    let total_pages_hint = p.rows / 12 + 256;
    let pgs = ((total_pages_hint / 2_000) + 1).min(16) as u32;
    let mut c = Cluster::build_with(
        ClusterConfig {
            seed: p.seed,
            pgs,
            pages_per_pg: (total_pages_hint / pgs as u64 + 1).max(1_000),
            storage_nodes: p.storage_nodes,
            replicas: p.replicas,
            instance: p.instance.clone(),
            bootstrap_rows: p.rows,
            quorum: p.quorum,
            ..Default::default()
        },
        |e| {
            e.cpu_per_op = calib::aurora_write();
            e.cpu_per_read = calib::aurora_read();
            e.cpu_per_commit = calib::commit();
            if let Some(bp) = p.buffer_pages {
                e.instance.buffer_pages = bp;
            }
            tweak(e);
        },
    );

    // wait for bootstrap to finish
    let mut guard = 0;
    while c.engine_actor().status() != EngineStatus::Ready {
        c.sim.run_for(SimDuration::from_millis(100));
        guard += 1;
        assert!(guard < 10_000, "bootstrap never finished");
    }
    // let the storage fleet coalesce & drain
    c.sim.run_for(SimDuration::from_millis(200));

    // attach the workload
    let engine = c.engine;
    let wl = c.sim.add_node(
        "workload",
        Zone(0),
        Box::new(WorkloadActor::new(WorkloadConfig {
            target: engine,
            connections: p.connections,
            mix: p.mix.clone(),
            keyspace: p.rows,
            rate: p.rate,
            seed: p.seed,
            value_size: 64,
        })),
        NodeOpts::default(),
    );
    let _ = wl;

    if p.warmup_auto {
        warm_adaptive(&mut c.sim, p.connections, p.warmup);
    } else {
        c.sim.run_for(p.warmup);
    }
    c.sim.clear_stats();
    let tracing_to = trace_dir();
    if tracing_to.is_some() {
        c.sim.trace.enable(crate::dst::TRACE_CAPACITY);
    }
    if timeline_on() {
        c.sim.enable_telemetry(aurora_sim::TelemetryConfig {
            slos: aurora_sim::SloSpec::aurora_defaults(),
            ..Default::default()
        });
    }
    if let Some(plan) = &p.fault_plan {
        plan.validate(p.window)
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        c.sim.install_fault_plan(plan);
    }
    after_warmup(&mut c, engine);
    c.sim.run_for(p.window);

    let m = &c.sim.metrics;
    let commits = m.counter_total("client.commits");
    let aborts = m.counter_total("client.aborts");
    let secs = p.window.secs_f64();
    let txn = m.histogram_total("client.txn_ns");
    let sel = m.histogram_total("engine.select_ns");
    let ins = m.histogram_total("engine.update_ns");
    let commit = m.histogram_total("engine.commit_ns");
    let ack = m.histogram_total("engine.ack_ns");
    let log_ios = c.sim.net().class_packets("log_write");
    let lag = m.histogram_total("replica.lag_ns");

    let tps = commits as f64 / secs;
    let mut extra = BTreeMap::new();
    for name in [
        "engine.page_fetches",
        "engine.read_retries",
        "engine.lal_stalls",
        "engine.lock_waits",
        "engine.lock_timeouts",
        "engine.batches",
        "engine.write_txns",
        "engine.aborts",
        "engine.log_write_retransmits",
        "engine.hedged_ships",
        "engine.loss_reships",
        "engine.health_strikes",
        "engine.suspect_reports",
        "storage.read_rejected",
        "storage.gc_records",
    ] {
        extra.insert(name.to_string(), m.counter_total(name) as f64);
    }
    // where the run ended, for same-seed fingerprints (exact in an f64)
    extra.insert(
        "sim.events_dispatched".into(),
        c.sim.events_dispatched() as f64,
    );
    extra.insert("sim.clock_ns".into(), c.sim.now().nanos() as f64);
    for class in NET_CLASSES {
        extra.insert(
            format!("net.{class}.packets"),
            c.sim.net().class_packets(class) as f64,
        );
    }
    let label = format!("aurora/{}", p.instance.name);
    if let Some(dir) = tracing_to {
        write_run_trace(&dir, &label, &c);
    }
    if timeline_on() {
        crate::experiments::emit_line(format_args!("-- timeline: {label} --"));
        for line in c.sim.telemetry.render_table().lines() {
            crate::experiments::emit_line(format_args!("{line}"));
        }
    }
    RunStats {
        label,
        window_secs: secs,
        commits,
        aborts,
        tps,
        wps: tps * p.mix.writes_per_txn() as f64,
        rps: tps * p.mix.reads_per_txn() as f64,
        txn_p50_ms: ns_ms(txn.p50()),
        txn_p95_ms: ns_ms(txn.p95()),
        select_p50_us: ns_us(sel.p50()),
        select_p95_us: ns_us(sel.p95()),
        insert_p50_us: ns_us(ins.p50()),
        insert_p95_us: ns_us(ins.p95()),
        ios_per_txn: if commits > 0 {
            log_ios as f64 / commits as f64
        } else {
            0.0
        },
        commit_p50_ms: commit.try_quantile(0.50).map(ns_ms),
        commit_p95_ms: commit.try_quantile(0.95).map(ns_ms),
        commit_p99_ms: commit.try_quantile(0.99).map(ns_ms),
        commit_max_ms: (commit.count() > 0).then(|| ns_ms(commit.max())),
        ack_p50_us: ack.try_quantile(0.50).map(ns_us),
        ack_p95_us: ack.try_quantile(0.95).map(ns_us),
        ack_p99_us: ack.try_quantile(0.99).map(ns_us),
        ack_max_us: (ack.count() > 0).then(|| ns_us(ack.max())),
        lag_p50_ms: (lag.count() > 0).then(|| ns_ms(lag.p50())),
        lag_p95_ms: (lag.count() > 0).then(|| ns_ms(lag.p95())),
        lag_p99_ms: (lag.count() > 0).then(|| ns_ms(lag.p99())),
        lag_max_ms: (lag.count() > 0).then(|| ns_ms(lag.max())),
        extra,
    }
}

/// Run a MySQL configuration and return its statistics.
pub fn run_mysql(p: &MysqlParams) -> RunStats {
    run_mysql_with(p, |_| {})
}

pub fn run_mysql_with(
    p: &MysqlParams,
    tweak: impl FnOnce(&mut aurora_baseline::MysqlConfig),
) -> RunStats {
    let mut c = MysqlCluster::build_with(
        MysqlClusterConfig {
            seed: p.seed,
            instance: p.instance.clone(),
            flavor: p.flavor,
            mirrored: p.mirrored,
            binlog_replicas: p.binlog_replicas,
            replica_apply_cost: p.replica_apply_cost,
            bootstrap_rows: p.rows,
            ..Default::default()
        },
        |e| {
            e.cpu_per_op = calib::aurora_write();
            e.cpu_per_read = calib::mysql_read();
            e.cpu_per_commit = calib::commit();
            if p.flavor == MysqlFlavor::V56 {
                e.cpu_per_op = e.cpu_per_op.mul_f64(1.15);
                e.cpu_per_read = e.cpu_per_read.mul_f64(1.15);
            }
            if let Some(bp) = p.buffer_pages {
                e.instance.buffer_pages = bp;
            }
            tweak(e);
        },
    );

    let mut guard = 0;
    while !c.sim.actor::<MysqlEngine>(c.engine).is_ready() {
        c.sim.run_for(SimDuration::from_millis(100));
        guard += 1;
        assert!(guard < 10_000, "bootstrap never finished");
    }
    c.sim.run_for(SimDuration::from_millis(200));

    let engine = c.engine;
    c.sim.add_node(
        "workload",
        Zone(0),
        Box::new(WorkloadActor::new(WorkloadConfig {
            target: engine,
            connections: p.connections,
            mix: p.mix.clone(),
            keyspace: p.rows,
            rate: p.rate,
            seed: p.seed,
            value_size: 64,
        })),
        NodeOpts::default(),
    );

    if p.warmup_auto {
        warm_adaptive(&mut c.sim, p.connections, p.warmup);
    } else {
        c.sim.run_for(p.warmup);
    }
    c.sim.clear_stats();
    c.sim.run_for(p.window);

    let m = &c.sim.metrics;
    let commits = m.counter_total("client.commits");
    let aborts = m.counter_total("client.aborts");
    let secs = p.window.secs_f64();
    let txn = m.histogram_total("client.txn_ns");
    let sel = m.histogram_total("mysql.select_ns");
    let ins = m.histogram_total("mysql.update_ns");
    // write IOs issued by the database node (Figure 2's write kinds)
    let ios = c.sim.net().class_packets("ebs_log_write")
        + c.sim.net().class_packets("ebs_page_write")
        + c.sim.net().class_packets("standby_ship");
    let lag = m.histogram_total("mysql.replica_lag_ns");

    let label = match (p.flavor, p.mirrored) {
        (MysqlFlavor::V56, true) => "mirrored mysql 5.6",
        (MysqlFlavor::V57, true) => "mirrored mysql 5.7",
        (MysqlFlavor::V56, false) => "mysql 5.6",
        (MysqlFlavor::V57, false) => "mysql 5.7",
    };
    let tps = commits as f64 / secs;
    let mut extra = BTreeMap::new();
    for name in [
        "mysql.log_flushes",
        "mysql.page_flushes",
        "mysql.evict_flushes",
        "mysql.page_fetches",
        "mysql.checkpoints",
        "mysql.checkpoint_stalls",
        "mysql.lock_waits",
    ] {
        extra.insert(name.to_string(), m.counter_total(name) as f64);
    }
    RunStats {
        label: label.to_string(),
        window_secs: secs,
        commits,
        aborts,
        tps,
        wps: tps * p.mix.writes_per_txn() as f64,
        rps: tps * p.mix.reads_per_txn() as f64,
        txn_p50_ms: ns_ms(txn.p50()),
        txn_p95_ms: ns_ms(txn.p95()),
        select_p50_us: ns_us(sel.p50()),
        select_p95_us: ns_us(sel.p95()),
        insert_p50_us: ns_us(ins.p50()),
        insert_p95_us: ns_us(ins.p95()),
        ios_per_txn: if commits > 0 {
            ios as f64 / commits as f64
        } else {
            0.0
        },
        lag_p50_ms: (lag.count() > 0).then(|| ns_ms(lag.p50())),
        lag_p95_ms: (lag.count() > 0).then(|| ns_ms(lag.p95())),
        lag_p99_ms: (lag.count() > 0).then(|| ns_ms(lag.p99())),
        lag_max_ms: (lag.count() > 0).then(|| ns_ms(lag.max())),
        extra,
        // MySQL has no quorum ack path; commit latency is inside txn_ns
        ..Default::default()
    }
}

/// Crash the Aurora writer under load and measure recovery time.
/// Returns (recovery_ms, writes_per_sec_before_crash).
pub fn aurora_recovery_time(p: &AuroraParams) -> (f64, f64) {
    let mut stats = (0.0, 0.0);
    let r = run_aurora_with(p, |_| {}, |_, _| {});
    stats.1 = r.wps;
    // rebuild and crash mid-window
    let mut c = Cluster::build_with(
        ClusterConfig {
            seed: p.seed + 1,
            pgs: 4,
            pages_per_pg: (p.rows / 12 / 4 + 1_000).max(1_000),
            storage_nodes: p.storage_nodes,
            instance: p.instance.clone(),
            bootstrap_rows: p.rows,
            quorum: p.quorum,
            ..Default::default()
        },
        |e| {
            e.cpu_per_op = calib::aurora_write();
            e.cpu_per_read = calib::aurora_read();
            e.cpu_per_commit = calib::commit();
        },
    );
    let mut guard = 0;
    while c.engine_actor().status() != EngineStatus::Ready {
        c.sim.run_for(SimDuration::from_millis(100));
        guard += 1;
        assert!(guard < 10_000);
    }
    let engine = c.engine;
    c.sim.add_node(
        "workload",
        Zone(0),
        Box::new(WorkloadActor::new(WorkloadConfig {
            target: engine,
            connections: p.connections,
            mix: p.mix.clone(),
            keyspace: p.rows,
            rate: None,
            seed: p.seed,
            value_size: 64,
        })),
        NodeOpts::default(),
    );
    c.sim.run_for(p.warmup);
    c.sim.run_for(p.window);
    c.sim.crash(engine);
    c.sim.run_for(SimDuration::from_millis(20));
    c.sim.restart(engine);
    let mut guard = 0;
    while c.sim.actor::<EngineActor>(engine).status() != EngineStatus::Ready {
        c.sim.run_for(SimDuration::from_millis(10));
        guard += 1;
        assert!(guard < 100_000, "recovery never finished");
    }
    let rec = c.sim.metrics.histogram_total("engine.recovery_ns");
    if rec.count() == 0 {
        eprintln!(
            "warn: no recovery sample; recoveries={} status ready",
            c.sim.metrics.counter_total("engine.recoveries")
        );
    }
    stats.0 = ns_ms(rec.max());
    stats
}

/// Crash the MySQL primary under load and measure recovery (checkpoint
/// replay) time. Returns (recovery_ms, writes_per_sec_before_crash).
pub fn mysql_recovery_time(p: &MysqlParams, checkpoint_every: u64) -> (f64, f64) {
    let mut c = MysqlCluster::build_with(
        MysqlClusterConfig {
            seed: p.seed,
            instance: p.instance.clone(),
            flavor: p.flavor,
            mirrored: p.mirrored,
            bootstrap_rows: p.rows,
            checkpoint_every_records: Some(checkpoint_every),
            ..Default::default()
        },
        |e| {
            e.cpu_per_op = calib::aurora_write();
            e.cpu_per_read = calib::mysql_read();
            e.cpu_per_commit = calib::commit();
        },
    );
    let mut guard = 0;
    while !c.sim.actor::<MysqlEngine>(c.engine).is_ready() {
        c.sim.run_for(SimDuration::from_millis(100));
        guard += 1;
        assert!(guard < 10_000);
    }
    let engine = c.engine;
    c.sim.add_node(
        "workload",
        Zone(0),
        Box::new(WorkloadActor::new(WorkloadConfig {
            target: engine,
            connections: p.connections,
            mix: p.mix.clone(),
            keyspace: p.rows,
            rate: None,
            seed: p.seed,
            value_size: 64,
        })),
        NodeOpts::default(),
    );
    c.sim.run_for(p.warmup);
    c.sim.clear_stats();
    c.sim.run_for(p.window);
    let commits = c.sim.metrics.counter_total("mysql.write_txns");
    let wps = commits as f64 / p.window.secs_f64() * p.mix.writes_per_txn() as f64;
    c.sim.crash(engine);
    c.sim.run_for(SimDuration::from_millis(20));
    c.sim.restart(engine);
    let mut guard = 0;
    while !c.sim.actor::<MysqlEngine>(c.engine).is_ready() {
        c.sim.run_for(SimDuration::from_millis(10));
        guard += 1;
        assert!(guard < 1_000_000, "recovery never finished");
    }
    let rec = c.sim.metrics.histogram_total("mysql.recovery_ns");
    (ns_ms(rec.max()), wps)
}
