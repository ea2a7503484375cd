//! The metric catalogue: every name the benchmark reports, with its unit,
//! clock, direction, bound and — for layer metrics — the end-to-end metric
//! it should move and the workload to look at. `BENCHMARK.json` and the
//! README tables are checked against this file by `cargo test`.
//!
//! Two clocks, named in every metric. `sim_*` and the unprefixed paper
//! metrics are **simulated** time and counts: exact for a given seed and
//! `--seconds`. `host_*`, `setup_s` and `peak_rss_mb` are **real** time
//! and memory on whatever box runs the benchmark.

use crate::json::Json;
use crate::workloads::{Faults, Spec, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Sim,
    Host,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse a metric may get before `compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the baseline value.
    Rel(f64),
    /// Absolute amount, for metrics whose baseline is zero.
    Abs(f64),
}

/// Which workloads an end-to-end metric is defined on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    All,
    /// Every workload that commits writes (all but `read_miss`).
    Writes,
    SingleVolume,
    Replicas,
    Crashes,
    OpenLoop,
}

impl On {
    pub fn covers(self, spec: &Spec) -> bool {
        match self {
            On::All => true,
            On::Writes => !matches!(spec.mix, crate::load::Mix::ReadOnly { .. }),
            On::SingleVolume => spec.sharding.is_none(),
            On::Replicas => spec.replicas > 0,
            On::Crashes => matches!(spec.faults, Faults::WriterCrashes { .. }),
            On::OpenLoop => spec.open_loop(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// The bound `compare` and `selfcheck` apply. The issue asked for 10 %
    /// on the two host-time rates; two best-of-3 sets of one commit came
    /// out up to 12.4 % apart on the 2-core sandbox (`SELFCHECK.txt`), so
    /// they are 15 %.
    pub bound: Bound,
    pub on: On,
    /// Bound declared to the driver in `BENCHMARK.json`, for the metrics
    /// that are defined and non-zero on every workload (the driver wants
    /// each of its end-to-end metrics from each workload). The driver's
    /// runs differ in seed, so these cover what the seed does to the
    /// noisiest workload as well as host noise; they are set from the
    /// spreads in the README. The other metrics are listed under
    /// `per_layer` there and gated by `compare`.
    pub driver_bound: Option<f64>,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 14] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        better: Better::Lower,
        bound: Bound::Rel(0.15),
        on: On::All,
        driver_bound: Some(0.25),
        what: "process start to measured-window start: build, bootstrap, attach load, warm up",
    },
    EndToEnd {
        name: "host_s_per_sim_s",
        unit: "s/s",
        clock: Clock::Host,
        better: Better::Lower,
        bound: Bound::Rel(0.15),
        on: On::All,
        driver_bound: Some(0.25),
        what: "host seconds per simulated second, median over the window's slices",
    },
    EndToEnd {
        name: "host_events_per_s",
        unit: "events/s",
        clock: Clock::Host,
        better: Better::Higher,
        bound: Bound::Rel(0.15),
        on: On::All,
        driver_bound: Some(0.25),
        what: "kernel events dispatched per host second, median over the window's slices",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        clock: Clock::Host,
        better: Better::Lower,
        bound: Bound::Rel(0.05),
        on: On::All,
        driver_bound: Some(0.20),
        what: "VmHWM of the measuring process at the end of the window",
    },
    EndToEnd {
        name: "sim_tps",
        unit: "txn/sim-s",
        clock: Clock::Sim,
        better: Better::Higher,
        bound: Bound::Rel(0.01),
        on: On::All,
        driver_bound: Some(0.15),
        what: "transactions committed per simulated second",
    },
    EndToEnd {
        name: "sim_txn_p50_ms",
        unit: "ms",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: Bound::Rel(0.07),
        on: On::All,
        driver_bound: Some(0.15),
        what: "client-observed latency from the due instant, median (exact samples)",
    },
    EndToEnd {
        name: "sim_txn_p99_ms",
        unit: "ms",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: Bound::Rel(0.07),
        on: On::All,
        driver_bound: Some(0.25),
        what: "client-observed latency from the due instant, p99 (exact samples)",
    },
    EndToEnd {
        name: "sim_commit_p50_ms",
        unit: "ms",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: Bound::Rel(0.07),
        on: On::Writes,
        driver_bound: None,
        what: "engine.commit_ns median: issue instant to VDL covering the commit, at the writer",
    },
    EndToEnd {
        name: "sim_commit_p99_ms",
        unit: "ms",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: Bound::Rel(0.07),
        on: On::Writes,
        driver_bound: None,
        what: "engine.commit_ns p99",
    },
    EndToEnd {
        name: "fail_ratio",
        unit: "fraction",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: Bound::Abs(0.001),
        on: On::All,
        driver_bound: None,
        what: "aborts + sheds + failed correctness checks, over transactions attempted",
    },
    EndToEnd {
        name: "net_ios_per_txn",
        unit: "packets/txn",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: Bound::Rel(0.01),
        on: On::SingleVolume,
        driver_bound: None,
        what: "log_write + page_read packets per commit (the paper's Table 1)",
    },
    EndToEnd {
        name: "replica_lag_p99_ms",
        unit: "ms",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: Bound::Rel(0.07),
        on: On::Replicas,
        driver_bound: None,
        what: "replica.lag_ns p99: writer durability point to visibility at a replica",
    },
    EndToEnd {
        name: "unavail_ms",
        unit: "ms",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: Bound::Rel(0.07),
        on: On::Crashes,
        driver_bound: None,
        what: "writer crash to the first commit acknowledged to a client after it, median of the crashes",
    },
    EndToEnd {
        name: "sim_txn_gap_p99_ms",
        unit: "ms",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: Bound::Abs(0.5),
        on: On::OpenLoop,
        driver_bound: None,
        what: "generator lateness, due instant to first send, p99; must stay near 0 or the load was not the one named",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Where the number comes from: counts and sim-time read from the
    /// registry (`count`), the trace fold (`fold`), a host-time probe
    /// (`probe`) or the traced pass's own accounting (`host`).
    pub source: &'static str,
    /// End-to-end metric(s) this should move.
    pub moves: &'static str,
    /// Workload(s) to look at.
    pub on: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
        on,
    }
}

use Better::{Higher as H, Lower as L};

const COMMIT_MOVES: &str = "sim_commit_p50_ms, sim_commit_p99_ms";

pub const PER_LAYER: [PerLayer; 95] = [
    // ---- commit (trace fold) ------------------------------------------------
    pl(
        "commit.pre_seal_p50_us",
        "us",
        L,
        "fold",
        COMMIT_MOVES,
        "write_sat, oltp_mixed",
    ),
    pl(
        "commit.pre_seal_p99_us",
        "us",
        L,
        "fold",
        COMMIT_MOVES,
        "write_sat, oltp_mixed",
    ),
    pl(
        "commit.staging_wait_p50_us",
        "us",
        L,
        "fold",
        COMMIT_MOVES,
        "commit_low, commit_high",
    ),
    pl(
        "commit.staging_wait_p99_us",
        "us",
        L,
        "fold",
        COMMIT_MOVES,
        "commit_low, commit_high",
    ),
    pl(
        "commit.net_out_p50_us",
        "us",
        L,
        "fold",
        COMMIT_MOVES,
        "commit_low",
    ),
    pl(
        "commit.net_out_p99_us",
        "us",
        L,
        "fold",
        COMMIT_MOVES,
        "commit_low",
    ),
    pl(
        "commit.disk_persist_p50_us",
        "us",
        L,
        "fold",
        COMMIT_MOVES,
        "commit_low, gray_loss",
    ),
    pl(
        "commit.disk_persist_p99_us",
        "us",
        L,
        "fold",
        COMMIT_MOVES,
        "commit_low, gray_loss",
    ),
    pl(
        "commit.quorum_spread_p50_us",
        "us",
        L,
        "fold",
        COMMIT_MOVES,
        "gray_loss",
    ),
    pl(
        "commit.quorum_spread_p99_us",
        "us",
        L,
        "fold",
        COMMIT_MOVES,
        "gray_loss",
    ),
    pl(
        "commit.vdl_publish_p50_us",
        "us",
        L,
        "fold",
        COMMIT_MOVES,
        "commit_high",
    ),
    pl(
        "commit.vdl_publish_p99_us",
        "us",
        L,
        "fold",
        COMMIT_MOVES,
        "commit_high",
    ),
    pl(
        "commit.ack_return_p50_us",
        "us",
        L,
        "fold",
        COMMIT_MOVES,
        "gray_loss",
    ),
    pl(
        "commit.ack_return_p99_us",
        "us",
        L,
        "fold",
        COMMIT_MOVES,
        "gray_loss",
    ),
    pl(
        "commit.covered_ratio",
        "ratio",
        H,
        "fold",
        "trust in the commit.* rows",
        "commit_low, commit_high, write_sat",
    ),
    pl(
        "commit.stage_sum_ratio",
        "ratio",
        H,
        "fold",
        "stage medians over the commit median; near 1 when the stages explain it",
        "commit_low",
    ),
    // ---- core.engine ----------------------------------------------------------
    pl(
        "core.engine.records_per_batch",
        "count",
        H,
        "count",
        "net_ios_per_txn, sim_commit_p50_ms",
        "write_sat, commit_high",
    ),
    pl(
        "core.engine.batches_per_txn",
        "count",
        L,
        "count",
        "net_ios_per_txn, host_s_per_sim_s",
        "write_sat, commit_low",
    ),
    pl(
        "core.engine.ship_immediate_ratio",
        "ratio",
        H,
        "count",
        "sim_commit_p50_ms",
        "commit_low",
    ),
    pl(
        "core.engine.ack_p50_us",
        "us",
        L,
        "count",
        COMMIT_MOVES,
        "commit_low",
    ),
    pl(
        "core.engine.ack_p99_us",
        "us",
        L,
        "count",
        "sim_commit_p99_ms",
        "write_sat, gray_loss",
    ),
    pl(
        "core.engine.retransmits_per_ktxn",
        "1/ktxn",
        L,
        "count",
        "sim_commit_p99_ms, fail_ratio",
        "gray_loss",
    ),
    pl(
        "core.engine.hedged_per_ktxn",
        "1/ktxn",
        L,
        "count",
        "sim_commit_p99_ms",
        "gray_loss",
    ),
    pl(
        "core.engine.health_strikes",
        "count",
        L,
        "count",
        "sim_commit_p99_ms",
        "gray_loss",
    ),
    pl(
        "core.engine.lal_stalls_per_ktxn",
        "1/ktxn",
        L,
        "count",
        "sim_txn_p99_ms",
        "write_sat",
    ),
    pl(
        "core.engine.lock_waits_per_ktxn",
        "1/ktxn",
        L,
        "count",
        "sim_txn_p99_ms, fail_ratio",
        "oltp_mixed",
    ),
    pl(
        "core.engine.lock_timeouts",
        "count",
        L,
        "count",
        "fail_ratio",
        "oltp_mixed",
    ),
    pl(
        "core.engine.select_p50_us",
        "us",
        L,
        "count",
        "sim_txn_p50_ms",
        "read_miss, oltp_mixed",
    ),
    pl(
        "core.engine.select_p99_us",
        "us",
        L,
        "count",
        "sim_txn_p99_ms",
        "read_miss, oltp_mixed",
    ),
    pl(
        "core.engine.update_p50_us",
        "us",
        L,
        "count",
        "sim_txn_p50_ms",
        "write_sat, oltp_mixed",
    ),
    pl(
        "core.engine.update_p99_us",
        "us",
        L,
        "count",
        "sim_txn_p99_ms",
        "write_sat, oltp_mixed",
    ),
    pl(
        "core.engine.page_fetch_p99_us",
        "us",
        L,
        "count",
        "sim_txn_p99_ms",
        "read_miss",
    ),
    pl(
        "core.engine.read_retries_per_ktxn",
        "1/ktxn",
        L,
        "count",
        "sim_txn_p99_ms",
        "read_miss",
    ),
    pl(
        "core.engine.recovery_ms",
        "ms",
        L,
        "count",
        "unavail_ms",
        "crash_recovery",
    ),
    // ---- core.buffer / core.btree / core.locks -------------------------------------
    pl(
        "core.buffer.miss_ratio",
        "ratio",
        L,
        "count",
        "sim_txn_p50_ms",
        "read_miss (0 on commit_low)",
    ),
    pl(
        "core.buffer.churn_ns",
        "ns",
        L,
        "probe",
        "host_s_per_sim_s",
        "read_miss",
    ),
    pl(
        "core.btree.get_ns",
        "ns",
        L,
        "probe",
        "host_s_per_sim_s",
        "read_miss, oltp_mixed",
    ),
    pl(
        "core.btree.insert_ns",
        "ns",
        L,
        "probe",
        "setup_s, host_s_per_sim_s",
        "oltp_mixed",
    ),
    pl(
        "core.locks.acquire_release_ns",
        "ns",
        L,
        "probe",
        "host_s_per_sim_s",
        "oltp_mixed",
    ),
    // ---- core.replica ------------------------------------------------------------
    pl(
        "core.replica.lag_p50_ms",
        "ms",
        L,
        "count",
        "replica_lag_p99_ms",
        "write_sat, oltp_mixed",
    ),
    pl(
        "core.replica.applied_per_txn",
        "count",
        H,
        "count",
        "replica_lag_p99_ms",
        "write_sat, oltp_mixed",
    ),
    pl(
        "core.replica.discarded",
        "count",
        L,
        "count",
        "replica_lag_p99_ms",
        "write_sat, oltp_mixed",
    ),
    // ---- core.proxy --------------------------------------------------------------
    pl(
        "core.proxy.queue_p99_ms",
        "ms",
        L,
        "count",
        "sim_txn_p99_ms",
        "conn_fleet",
    ),
    pl(
        "core.proxy.shed_full",
        "count",
        L,
        "count",
        "fail_ratio",
        "conn_fleet",
    ),
    pl(
        "core.proxy.shed_deadline",
        "count",
        L,
        "count",
        "fail_ratio",
        "conn_fleet",
    ),
    pl(
        "core.proxy.shard_spread",
        "ratio",
        L,
        "count",
        "sim_txn_p99_ms",
        "conn_fleet",
    ),
    // ---- storage -------------------------------------------------------------------
    pl(
        "storage.node.batches_in_per_txn",
        "count",
        L,
        "count",
        "net_ios_per_txn",
        "write_sat, commit_low",
    ),
    pl(
        "storage.node.fast_ack_ratio",
        "ratio",
        H,
        "count",
        "sim_commit_p99_ms",
        "gray_loss",
    ),
    pl(
        "storage.node.persist_p50_us",
        "us",
        L,
        "count",
        "sim_commit_p50_ms",
        "commit_low",
    ),
    pl(
        "storage.node.persist_p99_us",
        "us",
        L,
        "count",
        "sim_commit_p99_ms",
        "write_sat, gray_loss",
    ),
    pl(
        "storage.node.page_reads_per_txn",
        "count",
        L,
        "count",
        "sim_txn_p50_ms, host_s_per_sim_s",
        "read_miss",
    ),
    pl(
        "storage.node.coalesced_per_txn",
        "count",
        H,
        "count",
        "sim_txn_p50_ms (cheaper page reads)",
        "write_sat",
    ),
    pl(
        "storage.node.gc_records_per_txn",
        "count",
        H,
        "count",
        "peak_rss_mb",
        "write_sat",
    ),
    pl(
        "storage.node.gossip_filled",
        "count",
        L,
        "count",
        "sim_commit_p99_ms",
        "gray_loss",
    ),
    pl(
        "storage.node.read_rejected",
        "count",
        L,
        "count",
        "sim_txn_p99_ms",
        "read_miss",
    ),
    pl(
        "storage.node.write_batch_us",
        "us",
        L,
        "probe",
        "host_events_per_s",
        "write_sat",
    ),
    pl(
        "storage.node.page_read_us",
        "us",
        L,
        "probe",
        "host_s_per_sim_s",
        "read_miss",
    ),
    pl(
        "storage.control.repairs_completed",
        "count",
        L,
        "count",
        "sim_commit_p99_ms",
        "gray_loss",
    ),
    pl(
        "storage.control.fences",
        "count",
        L,
        "count",
        "sim_commit_p99_ms, fail_ratio",
        "gray_loss",
    ),
    // ---- quorum ----------------------------------------------------------------------
    pl(
        "quorum.tracker.ack_cycle_ns",
        "ns",
        L,
        "probe",
        "host_events_per_s",
        "write_sat",
    ),
    pl(
        "quorum.acks_at_close",
        "count",
        L,
        "fold",
        "sim_commit_p99_ms",
        "gray_loss",
    ),
    // ---- log -------------------------------------------------------------------------
    pl(
        "log.codec.encode_ns_per_rec",
        "ns/rec",
        L,
        "probe",
        "host_s_per_sim_s",
        "write_sat",
    ),
    pl(
        "log.codec.decode_ns_per_rec",
        "ns/rec",
        L,
        "probe",
        "host_s_per_sim_s",
        "write_sat",
    ),
    pl(
        "log.codec.wire_bytes_per_rec",
        "bytes/rec",
        L,
        "probe",
        "commit.net_out_*, sim_commit_p50_ms",
        "commit_low",
    ),
    pl(
        "log.segment_log.insert_ns_per_rec",
        "ns/rec",
        L,
        "probe",
        "host_s_per_sim_s",
        "write_sat",
    ),
    pl(
        "log.segment_log.gc_ns_per_rec",
        "ns/rec",
        L,
        "probe",
        "host_s_per_sim_s",
        "write_sat",
    ),
    pl(
        "log.applicator.apply_ns_per_rec",
        "ns/rec",
        L,
        "probe",
        "host_s_per_sim_s",
        "read_miss",
    ),
    // ---- sim ---------------------------------------------------------------------------
    pl(
        "sim.kernel.events_per_txn",
        "events/txn",
        L,
        "count",
        "host_s_per_sim_s",
        "write_sat, conn_fleet",
    ),
    pl(
        "sim.kernel.queue_high_water",
        "count",
        L,
        "count",
        "peak_rss_mb",
        "conn_fleet",
    ),
    pl(
        "sim.kernel.events_overflowed",
        "count",
        L,
        "count",
        "host_events_per_s",
        "conn_fleet",
    ),
    pl(
        "sim.kernel.event_pool_peak_mb",
        "MB",
        L,
        "count",
        "peak_rss_mb",
        "conn_fleet",
    ),
    pl(
        "sim.kernel.dispatch_ns",
        "ns",
        L,
        "probe",
        "host_events_per_s",
        "conn_fleet",
    ),
    pl(
        "sim.queue.churn_near_ns",
        "ns",
        L,
        "probe",
        "host_events_per_s",
        "write_sat",
    ),
    pl(
        "sim.queue.churn_overflow_ns",
        "ns",
        L,
        "probe",
        "host_events_per_s",
        "conn_fleet",
    ),
    pl(
        "sim.metrics.record_ns",
        "ns",
        L,
        "probe",
        "host_events_per_s",
        "write_sat",
    ),
    pl(
        "sim.metrics.inc_ns",
        "ns",
        L,
        "probe",
        "host_events_per_s",
        "write_sat",
    ),
    pl(
        "sim.telemetry.close_us",
        "us",
        L,
        "probe",
        "host_s_per_sim_s (when telemetry is on)",
        "none of the eight: telemetry is off",
    ),
    pl(
        "sim.trace.span_pair_ns",
        "ns",
        L,
        "probe",
        "host.trace_overhead_ratio",
        "write_sat",
    ),
    pl(
        "sim.net.log_write_pkts_per_txn",
        "packets/txn",
        L,
        "count",
        "net_ios_per_txn",
        "write_sat, commit_low",
    ),
    pl(
        "sim.net.log_write_bytes_per_txn",
        "bytes/txn",
        L,
        "count",
        "commit.net_out_*",
        "commit_low",
    ),
    pl(
        "sim.net.log_ack_pkts_per_txn",
        "packets/txn",
        L,
        "count",
        "host_events_per_s",
        "write_sat",
    ),
    pl(
        "sim.net.page_read_pkts_per_txn",
        "packets/txn",
        L,
        "count",
        "net_ios_per_txn",
        "read_miss",
    ),
    pl(
        "sim.net.page_resp_bytes_per_txn",
        "bytes/txn",
        L,
        "count",
        "sim_txn_p50_ms",
        "read_miss",
    ),
    pl(
        "sim.net.replica_stream_bytes_per_txn",
        "bytes/txn",
        L,
        "count",
        "replica_lag_p99_ms",
        "write_sat",
    ),
    pl(
        "sim.net.gossip_pkts_per_txn",
        "packets/txn",
        L,
        "count",
        "host_events_per_s",
        "gray_loss",
    ),
    pl(
        "sim.disk.writes_per_txn",
        "count",
        L,
        "count",
        "sim_commit_p50_ms",
        "write_sat, commit_low",
    ),
    pl(
        "sim.disk.reads_per_txn",
        "count",
        L,
        "count",
        "sim_txn_p50_ms",
        "read_miss",
    ),
    // ---- host (traced pass only) ------------------------------------------------------------
    pl(
        "host.allocs_per_event",
        "count",
        L,
        "host",
        "host_s_per_sim_s",
        "write_sat, read_miss, conn_fleet",
    ),
    pl(
        "host.alloc_bytes_per_txn",
        "bytes/txn",
        L,
        "host",
        "host_s_per_sim_s, peak_rss_mb",
        "write_sat, read_miss",
    ),
    pl(
        "host.heap_peak_mb",
        "MB",
        L,
        "host",
        "peak_rss_mb",
        "read_miss, conn_fleet",
    ),
    pl(
        "host.slice_p50_ms",
        "ms",
        L,
        "host",
        "host_s_per_sim_s",
        "all",
    ),
    pl(
        "host.slice_p99_ms",
        "ms",
        L,
        "host",
        "host_s_per_sim_s (periodic stalls a median hides)",
        "all",
    ),
    pl(
        "host.trace_overhead_ratio",
        "ratio",
        L,
        "host",
        "cost of the traced pass itself",
        "write_sat",
    ),
    // ---- load (the generator's own view) ------------------------------------------------------
    pl(
        "load.unavail_max_ms",
        "ms",
        L,
        "count",
        "unavail_ms",
        "crash_recovery",
    ),
    pl(
        "load.retries_per_ktxn",
        "1/ktxn",
        L,
        "count",
        "unavail_ms, sim_txn_p99_ms",
        "crash_recovery",
    ),
];

/// The driver runs this from the root of a checkout and appends
/// `--workload W --seed N --seconds S --trace 0|1`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// Host seconds one run measures for (see `Spec::sim_ms_per_host_s`).
pub const RUN_SECONDS: u64 = 5;

/// (name, unit, better) of every metric a `--trace 0` run prints: the
/// end-to-end metrics with a driver bound.
pub fn driver_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|m| m.driver_bound.is_some())
}

/// (name, unit, better) of every metric a `--trace 1` run prints: the
/// rest of the end-to-end set, then every layer metric.
pub fn driver_per_layer() -> impl Iterator<Item = (&'static str, &'static str, Better)> {
    END_TO_END
        .iter()
        .filter(|m| m.driver_bound.is_none())
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
}

/// `BENCHMARK.json`, from this catalogue and the workload table.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                driver_end_to_end()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.driver_bound.expect("filtered on it"))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                driver_per_layer()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The README's tables, as markdown.
pub fn catalogue_markdown() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| end-to-end metric | unit | clock | better | bound | driver bound | defined on | what |\n|---|---|---|---|---|---|---|---|"
    );
    for m in &END_TO_END {
        let bound = match m.bound {
            Bound::Rel(r) => format!("{:.0} %", r * 100.0),
            Bound::Abs(a) => format!("+{a} abs"),
        };
        let on: Vec<&str> = WORKLOADS
            .iter()
            .filter(|w| m.on.covers(w))
            .map(|w| w.name)
            .collect();
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} | {} | {} |",
            m.name,
            m.unit,
            if m.clock == Clock::Sim { "sim" } else { "host" },
            m.better.as_str(),
            bound,
            m.driver_bound
                .map_or("(per-layer list)".to_string(), |b| format!(
                    "{:.0} %",
                    b * 100.0
                )),
            if on.len() == WORKLOADS.len() {
                "all".to_string()
            } else {
                on.join(", ")
            },
            m.what
        );
    }
    let _ = writeln!(
        out,
        "\n| layer metric | unit | better | source | should move | look at |\n|---|---|---|---|---|---|"
    );
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.source,
            m.moves,
            m.on
        );
    }
    out
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")));
        for (name, unit) in all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        assert!(driver_per_layer().count() <= 128);
        for m in driver_end_to_end() {
            assert!(m.driver_bound.unwrap() <= 0.25, "{}", m.name);
            assert_eq!(
                m.on,
                On::All,
                "{}: the driver wants it from every workload",
                m.name
            );
        }
    }

    /// `BENCHMARK.json` at the repo root is this catalogue, written down
    /// (`aurora-benchmark manifest > BENCHMARK.json` rewrites it).
    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(Json::parse(&text).expect("valid JSON"), manifest());
        assert!(text.len() <= 64 * 1024);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
    }

    /// The README documents every workload and every metric by name.
    #[test]
    fn readme_names_everything() {
        let readme = include_str!("../README.md");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not mention `{name}`"
            );
        }
    }
}
