//! The eight named workloads: what each one builds, offers and injects.
//!
//! Everything a workload needs is in its [`Spec`]; `pass.rs` runs any spec
//! the same way. All of them pin the calibrated statement costs the
//! repo's experiments use (write 230 µs, read 50 µs, commit 70 µs on a
//! 32-vCPU r3.8xlarge) so a change to a default elsewhere cannot move the
//! benchmark. Links and disks are the simulator's defaults: one way ~50 µs
//! within an AZ and ~300 µs across AZs (log-normal, sigma 0.35), storage
//! on a local-SSD model (~90 µs writes, ~80 µs reads, 100 k IOPS, 1 GB/s);
//! a storage node acknowledges a batch only after its disk write
//! completes (no write-back cache), and the writer ships a batch at once
//! while fewer than 4 are in flight, else on a 500 µs deadline or at 256
//! records (`ShipPolicy::Adaptive`, the engine default).

use aurora_sim::SimDuration;

use crate::load::{Arrival, Mix};

/// Statement costs, from `aurora_bench::harness::calib`.
pub const CPU_WRITE: SimDuration = SimDuration::from_micros(230);
pub const CPU_READ: SimDuration = SimDuration::from_micros(50);
pub const CPU_COMMIT: SimDuration = SimDuration::from_micros(70);

/// Faults a workload injects inside its measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Faults {
    None,
    /// Storage node 1's disk browned out (latency ramped to `factor`x over
    /// the first third of the fault span) and `drop` of the packets on
    /// every writer-storage and storage-storage link lost, from 10 % to
    /// 90 % of the window. The client link stays clean so that no client
    /// operation is lost with its packet.
    GrayLoss {
        factor: f64,
        drop: f64,
    },
    /// The writer is crashed `crashes` times, evenly spaced, and restarted
    /// `down` later each time.
    WriterCrashes {
        crashes: u32,
        down: SimDuration,
    },
}

/// A sharded deployment behind the proxy tier (`conn_fleet`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sharding {
    pub shards: usize,
    pub proxies: usize,
    pub sessions: u32,
    pub think: SimDuration,
    /// vCPUs and buffer pages of each shard's writer (an r3.2xlarge).
    pub vcpus: u32,
    pub buffer_pages: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    pub mix: Mix,
    /// Rows preloaded (per shard when sharded) = generator keyspace.
    pub rows: u64,
    /// Writer buffer cache in pages (`None`: the instance's 64 000).
    pub buffer_pages: Option<usize>,
    pub replicas: usize,
    pub callers: usize,
    pub arrival: Arrival,
    pub sharding: Option<Sharding>,
    pub faults: Faults,
    /// Simulated warm-up between attaching the load and opening the
    /// window. For the fleet this is the cap of a derived warm-up.
    pub warmup: SimDuration,
    /// Granularity at which the harness can act on the world (crash or
    /// restart the writer, collect read-backs). Divides [`SLICE`].
    pub step: SimDuration,
    /// How many times an untraced run sets the world up (the last one is
    /// measured, `setup_s` is the median). Fixed per workload so that a
    /// run is the same work every time: many for the cheap set-ups, whose
    /// timings are the noisiest, one for the fleet, whose set-up is the
    /// bulk of its run.
    pub setup_repeats: u32,
    /// How much simulated time this box gets through per host second on
    /// this workload. `--seconds` times this is the measured window, so
    /// the window is a fixed amount of simulated work — identical for a
    /// given seed, whatever the host does — sized to take about
    /// `--seconds` of host time at the commit that pinned it.
    pub sim_ms_per_host_s: f64,
}

/// Host time is sampled per slice of this much simulated time. Every
/// periodic activity in the program (10 ms fleet ticks, 20 ms coalescing,
/// 50 ms gossip and sweeps, 100 ms heartbeats) fits a whole number of times,
/// so all slices carry the same mix of work and their median is not a coin
/// toss between a "light" and a "heavy" kind of slice.
pub const SLICE: SimDuration = SimDuration::from_millis(100);

impl Spec {
    /// The measured window for a run of `seconds`, in whole slices.
    pub fn window(&self, seconds: f64) -> SimDuration {
        let slice_ms = SLICE.nanos() as f64 / 1e6;
        let slices = (seconds * self.sim_ms_per_host_s / slice_ms)
            .round()
            .max(10.0);
        SimDuration::from_nanos(slices as u64 * SLICE.nanos())
    }

    pub fn open_loop(&self) -> bool {
        matches!(self.arrival, Arrival::Open { .. }) || self.sharding.is_some()
    }
}

#[allow(non_snake_case)]
const fn MS(ms: u64) -> SimDuration {
    SimDuration::from_millis(ms)
}

pub const WORKLOADS: [Spec; 8] = [
    Spec {
        name: "write_sat",
        why: "closed 256 callers, 2 upserts/txn on 60k cached rows, 2 replicas: commit pipeline, codec, quorum, storage ingest and net/disk saturated; read path idle",
        mix: Mix::WriteOnly { writes: 2 },
        rows: 60_000,
        buffer_pages: None,
        replicas: 2,
        callers: 256,
        arrival: Arrival::Closed,
        sharding: None,
        faults: Faults::None,
        warmup: MS(300),
        step: MS(20),
        setup_repeats: 3,
        sim_ms_per_host_s: 400.0,
    },
    Spec {
        name: "read_miss",
        why: "closed 256 callers, 10 selects/txn on 100k rows against a 1000-page cache: page materialisation, eviction and read routing; commit pipeline must stay idle",
        mix: Mix::ReadOnly { selects: 10 },
        rows: 100_000,
        buffer_pages: Some(1_000),
        replicas: 0,
        callers: 256,
        arrival: Arrival::Closed,
        sharding: None,
        faults: Faults::None,
        warmup: MS(200),
        step: MS(20),
        setup_repeats: 3,
        sim_ms_per_host_s: 220.0,
    },
    Spec {
        name: "oltp_mixed",
        why: "closed 128 callers, SysBench OLTP (10 selects, scan, 4 upserts) on 100k cached rows, 2 replicas: reads beside writes on one engine, B-tree and lock table",
        mix: Mix::Oltp,
        rows: 100_000,
        buffer_pages: None,
        replicas: 2,
        callers: 128,
        arrival: Arrival::Closed,
        sharding: None,
        faults: Faults::None,
        warmup: MS(300),
        step: MS(20),
        setup_repeats: 3,
        sim_ms_per_host_s: 380.0,
    },
    Spec {
        name: "commit_low",
        why: "open 2000 tps, 2 upserts/txn: unloaded commit floor = staging wait + wire + disk + quorum; ship policy and wire size show, CPU queueing does not",
        mix: Mix::WriteOnly { writes: 2 },
        rows: 10_000,
        buffer_pages: None,
        replicas: 0,
        callers: 128,
        arrival: Arrival::Open { tps: 2_000.0 },
        sharding: None,
        faults: Faults::None,
        warmup: MS(200),
        step: MS(100),
        setup_repeats: 7,
        sim_ms_per_host_s: 11_800.0,
    },
    Spec {
        name: "commit_high",
        why: "open 48000 tps (~80% of capacity), 2 upserts/txn: pipe full, deadline batching; queueing and batch amortisation set the tail",
        mix: Mix::WriteOnly { writes: 2 },
        rows: 10_000,
        buffer_pages: None,
        replicas: 0,
        callers: 128,
        arrival: Arrival::Open { tps: 48_000.0 },
        sharding: None,
        faults: Faults::None,
        warmup: MS(200),
        step: MS(20),
        setup_repeats: 7,
        sim_ms_per_host_s: 720.0,
    },
    Spec {
        name: "gray_loss",
        why: "open 4000 tps under an 8x disk brownout on one storage node plus 4% loss on storage links: retransmit, backoff, hedging and health scoring do the work",
        mix: Mix::WriteOnly { writes: 2 },
        rows: 10_000,
        buffer_pages: None,
        replicas: 0,
        callers: 128,
        arrival: Arrival::Open { tps: 4_000.0 },
        sharding: None,
        faults: Faults::GrayLoss {
            factor: 8.0,
            drop: 0.04,
        },
        warmup: MS(200),
        step: MS(100),
        setup_repeats: 7,
        sim_ms_per_host_s: 4_350.0,
    },
    Spec {
        name: "crash_recovery",
        why: "closed 256 callers, 2 upserts/txn, writer crashed 5 times under load and acked writes read back: redo-less recovery, epoch bump, truncation, durability",
        mix: Mix::WriteOnly { writes: 2 },
        rows: 30_000,
        buffer_pages: None,
        replicas: 0,
        callers: 256,
        arrival: Arrival::Closed,
        sharding: None,
        faults: Faults::WriterCrashes {
            crashes: 5,
            down: MS(20),
        },
        warmup: MS(300),
        step: MS(20),
        setup_repeats: 5,
        sim_ms_per_host_s: 460.0,
    },
    Spec {
        name: "conn_fleet",
        why: "100k sessions (think 1 s) through 8 proxies onto 8 shards, 1 upsert/txn: proxy ring and admission, session fleet, kernel timer wheel and event pool at scale",
        mix: Mix::WriteOnly { writes: 1 },
        rows: 10_000,
        buffer_pages: None,
        replicas: 0,
        callers: 0,
        arrival: Arrival::Closed,
        sharding: Some(Sharding {
            shards: 8,
            proxies: 8,
            sessions: 100_000,
            think: SimDuration::from_secs(1),
            vcpus: 8,
            buffer_pages: 16_000,
        }),
        faults: Faults::None,
        warmup: MS(3_000),
        step: MS(20),
        setup_repeats: 1,
        sim_ms_per_host_s: 290.0,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
