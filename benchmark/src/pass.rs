//! One pass of one workload: set up, measure a window, read everything
//! out, verify.
//!
//! The program is driven only through its public API — `Cluster::build_with`
//! / `ShardedCluster::build_with`, `Sim::{add_node, run_for, crash, restart,
//! install_fault_plan, clear_stats}` — and read only through `sim.metrics`,
//! `sim.net()`, `sim.disk_ops`, `sim.trace` and the actors' inspection
//! methods. Nothing here changes what the simulation does: slicing the
//! window into `run_for` calls, timing the slices on the host clock and
//! switching the trace ring on all leave the event order untouched, which
//! the callers check by comparing [`Pass::fingerprint`]s.

use std::collections::BTreeMap;
use std::time::Instant;

use aurora_bench::harness::peak_rss_kb;
use aurora_bench::Oracles;
use aurora_core::cluster::{Cluster, ClusterConfig, ShardedCluster, ShardedConfig};
use aurora_core::engine::{EngineActor, EngineConfig, EngineStatus, InstanceSpec};
use aurora_core::proxy::ProxyConfig;
use aurora_core::wire::{Op, TxnSpec};
use aurora_quorum::QuorumConfig;
use aurora_sim::{
    BrownoutSpec, FaultPlan, Histogram, NodeId, NodeOpts, PacketChaos, Sim, SimDuration, SimRng,
    SimTime, TracePhase, Zone,
};

use crate::alloc;
use crate::load::{
    ledger_version, rows_of, Fleet, FleetConfig, Generator, GeneratorConfig, LoadStats, Retry,
};
use crate::stats::{median, pick_exact, pick_hist, quantile_sorted, Picked};
use crate::waterfall::{self, Waterfall};
use crate::workloads::{Faults, Spec, CPU_COMMIT, CPU_READ, CPU_WRITE, SLICE};

/// Room for every event of the longest traced window; the ring grows as
/// it fills, so the size costs nothing up front. `dropped() == 0` is
/// checked after the window.
const TRACE_RING: usize = 1 << 27;
/// Connection ids of the harness's own read-back transactions, far above
/// anything a generator hands out.
const READBACK_CONN: u64 = 1 << 39;
/// Events kept when the traced window is written out as NDJSON.
const TRACE_SAMPLE: usize = 250_000;
const READBACK_KEYS_PER_TXN: usize = 16;
const READBACK_SAMPLE_TXNS: usize = 4;

/// A reported number: value, and for percentiles which one and from how
/// many samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: Option<u64>,
    /// Set when the sample did not support the percentile in the metric's
    /// name and a lower one was reported (e.g. `p95`).
    pub fell_back_to: Option<&'static str>,
}

impl Value {
    pub fn plain(value: f64) -> Value {
        Value {
            value,
            samples: None,
            fell_back_to: None,
        }
    }
}

pub type Values = BTreeMap<&'static str, Value>;

/// What must be identical between two passes of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub commits: u64,
    pub events: u64,
    pub clock_ns: u64,
}

pub struct Pass {
    pub setup_s: f64,
    /// Events dispatched and clock when the window opened.
    pub setup_fingerprint: Fingerprint,
    pub fingerprint: Fingerprint,
    pub window_host_s: f64,
    pub load: LoadStats,
    /// Operations that failed a correctness check (lost writes, ...).
    pub check_failed: u64,
    pub failures: Vec<String>,
    /// Every metric this pass can give, by catalogue name. Host-clock
    /// end-to-end metrics are this pass's own sample.
    pub values: Values,
    /// NDJSON of the start of the traced window, when asked for.
    pub trace_ndjson: Option<String>,
}

enum World {
    Single {
        c: Box<Cluster>,
        gen: NodeId,
    },
    Sharded {
        c: Box<ShardedCluster>,
        fleets: Vec<NodeId>,
    },
}

impl World {
    fn sim(&mut self) -> &mut Sim {
        match self {
            World::Single { c, .. } => &mut c.sim,
            World::Sharded { c, .. } => &mut c.sim,
        }
    }

    fn sim_ref(&self) -> &Sim {
        match self {
            World::Single { c, .. } => &c.sim,
            World::Sharded { c, .. } => &c.sim,
        }
    }

    fn writers(&self) -> Vec<NodeId> {
        match self {
            World::Single { c, .. } => vec![c.engine],
            World::Sharded { c, .. } => c.shards.iter().map(|s| s.engine).collect(),
        }
    }

    fn reset_load_window(&mut self) {
        match self {
            World::Single { c, gen } => c.sim.actor_mut::<Generator>(*gen).reset_window(),
            World::Sharded { c, fleets } => {
                for f in fleets.iter() {
                    c.sim.actor_mut::<Fleet>(*f).reset_window();
                }
            }
        }
    }

    fn load(&self) -> (LoadStats, u64) {
        match self {
            World::Single { c, gen } => {
                let g = c.sim.actor::<Generator>(*gen);
                (g.stats().clone(), g.in_flight())
            }
            World::Sharded { c, fleets } => {
                let mut all = LoadStats::default();
                let mut in_flight = 0;
                for f in fleets {
                    let fleet = c.sim.actor::<Fleet>(*f);
                    all.merge(fleet.stats());
                    in_flight += fleet.in_flight();
                }
                (all, in_flight)
            }
        }
    }

    /// Node id -> the volume (shard index) the node belongs to: LSNs are
    /// per volume. Nodes outside any volume map to `u32::MAX`.
    fn volumes(&self) -> Vec<u32> {
        let mut of = vec![u32::MAX; self.sim_ref().node_count()];
        match self {
            World::Single { .. } => of.fill(0),
            World::Sharded { c, .. } => {
                for (i, shard) in c.shards.iter().enumerate() {
                    for node in shard.storage.iter().chain([&shard.engine]) {
                        of[*node as usize] = i as u32;
                    }
                }
            }
        }
        of
    }

    /// (hits, misses) of every writer's buffer cache, summed.
    fn cache_stats(&self) -> (u64, u64) {
        self.writers().iter().fold((0, 0), |(h, m), w| {
            let (hits, misses) = self.sim_ref().actor::<EngineActor>(*w).cache_stats();
            (h + hits, m + misses)
        })
    }

    /// (reads, writes) issued to every node's disk, summed.
    fn disk_ops(&self) -> (u64, u64) {
        let sim = self.sim_ref();
        (0..sim.node_count() as NodeId).fold((0, 0), |(r, w), n| {
            let (reads, writes) = sim.disk_ops(n);
            (r + reads, w + writes)
        })
    }
}

fn pin_costs(e: &mut EngineConfig, buffer_pages: Option<usize>) {
    e.cpu_per_op = CPU_WRITE;
    e.cpu_per_read = CPU_READ;
    e.cpu_per_commit = CPU_COMMIT;
    if let Some(bp) = buffer_pages {
        e.instance.buffer_pages = bp;
    }
}

/// Volume geometry for `rows` preloaded rows: sequential bootstrap leaves
/// B+-tree leaves about half full (~19 rows per 4 KiB leaf), so size with
/// headroom (the rule `aurora_bench::harness` uses).
fn geometry(rows: u64) -> (u32, u64) {
    let pages = rows / 12 + 256;
    let pgs = ((pages / 2_000) + 1).min(16) as u32;
    (pgs, (pages / pgs as u64 + 1).max(1_000))
}

fn run_until(sim: &mut Sim, what: &str, mut done: impl FnMut(&Sim) -> bool) {
    let mut guard = 0;
    while !done(sim) {
        sim.run_for(SimDuration::from_millis(100));
        guard += 1;
        assert!(guard < 10_000, "{what} never finished");
    }
}

fn build_single(spec: &Spec, seed: u64) -> World {
    let (pgs, pages_per_pg) = geometry(spec.rows);
    let gray = matches!(spec.faults, Faults::GrayLoss { .. });
    let mut c = Cluster::build_with(
        ClusterConfig {
            seed,
            pgs,
            pages_per_pg,
            storage_nodes: 6,
            // the gray workload runs with the control plane and one spare
            // per AZ, so fencing and repair can happen and convergence
            // can be checked afterwards
            spares: if gray { 3 } else { 0 },
            with_control: gray,
            replicas: spec.replicas,
            instance: InstanceSpec::r3_8xlarge(),
            bootstrap_rows: spec.rows,
            quorum: QuorumConfig::aurora(),
            ..Default::default()
        },
        |e| pin_costs(e, spec.buffer_pages),
    );
    let engine = c.engine;
    run_until(&mut c.sim, "bootstrap", |sim| {
        sim.actor::<EngineActor>(engine).status() == EngineStatus::Ready
    });
    // let the storage fleet coalesce and drain
    c.sim.run_for(SimDuration::from_millis(200));
    let retry = matches!(spec.faults, Faults::WriterCrashes { .. }).then_some(Retry {
        timeout: SimDuration::from_millis(10),
        sweep: SimDuration::from_millis(1),
    });
    let gen = c.sim.add_node(
        "load",
        Zone(0),
        Box::new(Generator::new(GeneratorConfig {
            target: engine,
            callers: spec.callers,
            arrival: spec.arrival,
            mix: spec.mix,
            keyspace: spec.rows,
            seed,
            retry,
            ledger: retry.is_some(),
        })),
        NodeOpts::default(),
    );
    c.sim.run_for(spec.warmup);
    World::Single {
        c: Box::new(c),
        gen,
    }
}

fn build_sharded(spec: &Spec, seed: u64) -> World {
    let sh = spec.sharding.expect("sharded spec");
    let (pgs, pages_per_pg) = geometry(spec.rows);
    let mut c = ShardedCluster::build_with(
        ShardedConfig {
            seed,
            shards: sh.shards,
            proxies: sh.proxies,
            shard: ClusterConfig {
                seed,
                pgs,
                pages_per_pg,
                storage_nodes: 6,
                instance: InstanceSpec::r3("r3.2xlarge", sh.vcpus, sh.buffer_pages),
                bootstrap_rows: spec.rows,
                quorum: QuorumConfig::aurora(),
                ..Default::default()
            },
            proxy: ProxyConfig {
                slots_per_shard: 32,
                queue_watermark: 1_024,
                queue_deadline: SimDuration::from_millis(200),
                ..ProxyConfig::default()
            },
            expected_sessions: sh.sessions as usize,
        },
        |_, e| pin_costs(e, None),
    );
    let writers: Vec<NodeId> = c.shards.iter().map(|s| s.engine).collect();
    run_until(&mut c.sim, "sharded bootstrap", |sim| {
        writers
            .iter()
            .all(|w| sim.actor::<EngineActor>(*w).status() == EngineStatus::Ready)
    });
    c.sim.run_for(SimDuration::from_millis(200));

    // one fleet per proxy, dense connection ids across fleets
    let proxies = c.proxies.clone();
    let per = sh.sessions / proxies.len() as u32;
    let rem = sh.sessions % proxies.len() as u32;
    let mut base_conn = 0u64;
    let mut fleets = Vec::new();
    for (i, &proxy) in proxies.iter().enumerate() {
        let sessions = per + u32::from((i as u32) < rem);
        fleets.push(c.sim.add_node(
            format!("fleet-{i}"),
            Zone((i % 3) as u8),
            Box::new(Fleet::new(FleetConfig {
                proxy,
                sessions,
                base_conn,
                mix: spec.mix,
                keyspace: spec.rows,
                think: sh.think,
                ramp: SimDuration::from_millis(400),
                tick: SimDuration::from_millis(10),
                seed,
            })),
            NodeOpts::default(),
        ));
        base_conn += sessions as u64;
    }

    // Derived warm-up (the connscale criterion): until >= 99 % of the
    // sessions have been admitted by the proxy tier and the completion
    // rate moved < 8 % between consecutive slices, twice in a row.
    let slice = SimDuration::from_millis(150);
    let mut spent = SimDuration::ZERO;
    let (mut prev_total, mut prev_slice, mut stable) = (0u64, None::<u64>, 0u32);
    while spent < spec.warmup {
        c.sim.run_for(slice);
        spent = spent + slice;
        let total: u64 = fleets
            .iter()
            .map(|f| {
                let s = c.sim.actor::<Fleet>(*f).stats();
                s.commits + s.sheds + s.aborts
            })
            .sum();
        let this = total - prev_total;
        prev_total = total;
        let admitted: u64 = (0..proxies.len())
            .map(|i| c.proxy_actor(i).sessions_seen)
            .sum();
        let flat = matches!(prev_slice, Some(prev) if prev > 0 && this > 0 && {
            let (hi, lo) = (this.max(prev) as f64, this.min(prev) as f64);
            (hi - lo) / hi <= 0.08
        });
        prev_slice = Some(this);
        if admitted >= sh.sessions as u64 * 99 / 100 && flat {
            stable += 1;
            if stable >= 2 {
                break;
            }
        } else {
            stable = 0;
        }
    }
    World::Sharded {
        c: Box::new(c),
        fleets,
    }
}

/// Process start to measured-window start for one world: build, bootstrap,
/// attach the load, warm up.
fn set_up(spec: &Spec, seed: u64) -> (World, f64) {
    let t = Instant::now();
    let world = if spec.sharding.is_some() {
        build_sharded(spec, seed)
    } else {
        build_single(spec, seed)
    };
    (world, t.elapsed().as_secs_f64())
}

/// Set up and throw away: one more `setup_s` sample.
pub fn time_setup(spec: &Spec, seed: u64) -> (f64, Fingerprint) {
    let (world, secs) = set_up(spec, seed);
    let sim = world.sim_ref();
    let fp = Fingerprint {
        commits: 0,
        events: sim.events_dispatched(),
        clock_ns: sim.now().nanos(),
    };
    (secs, fp)
}

/// The gray-failure plan, offsets relative to the window start.
fn gray_plan(c: &Cluster, window: SimDuration, factor: f64, drop: f64) -> FaultPlan {
    let onset = SimDuration::from_nanos(window.nanos() / 10);
    let dur = SimDuration::from_nanos(window.nanos() * 8 / 10);
    let chaos = PacketChaos {
        drop,
        ..Default::default()
    };
    let mut plan = FaultPlan::new().brownout_for(
        onset,
        dur,
        c.storage[0],
        BrownoutSpec {
            ramp_secs: dur.secs_f64() / 3.0,
            peak_factor: factor,
        },
    );
    let mut members = vec![c.engine];
    members.extend(&c.storage);
    for (i, a) in members.iter().enumerate() {
        for b in &members[i + 1..] {
            plan = plan.flaky_link_for(onset, dur, *a, *b, chaos);
        }
    }
    plan
}

/// Steps (from the window start) at which the writer goes down and comes
/// back: evenly spaced, the last one early enough to recover in-window.
fn crash_schedule(steps: u64, crashes: u32, down_steps: u64) -> Vec<(u64, u64)> {
    (0..crashes as u64)
        .map(|k| {
            let at = (2 * k + 1) * steps * 9 / (20 * crashes as u64);
            (at, at + down_steps.max(1))
        })
        .collect()
}

/// A read-back the harness itself sent, waiting for its answer.
struct Readback {
    conn: u64,
    keys: Vec<u64>,
    /// Lowest version each key may hold.
    floor: Vec<u32>,
    /// The row must hold exactly `floor` (final check) rather than at
    /// least that (checks while the load is still writing).
    exact: bool,
    sent: SimTime,
    /// Answered with an abort (the writer was recovering).
    refused: bool,
}

/// A read-back unanswered for this long was lost with a crashed writer.
const READBACK_TIMEOUT: SimDuration = SimDuration::from_millis(50);

struct Durability {
    rng: SimRng,
    next_conn: u64,
    cursor: usize,
    pending: Vec<Readback>,
    /// Snapshot of acknowledged versions taken at the last crash, checked
    /// once the writer is back.
    owed: Option<Vec<u32>>,
    lost: u64,
}

impl Durability {
    fn new(seed: u64) -> Durability {
        Durability {
            rng: SimRng::new(seed ^ 0xD07A_B1E5),
            next_conn: READBACK_CONN,
            cursor: 0,
            pending: Vec::new(),
            owed: None,
            lost: 0,
        }
    }

    fn submit(&mut self, c: &mut Cluster, keys: Vec<u64>, floor: Vec<u32>, exact: bool) {
        let conn = self.next_conn;
        self.next_conn += 1;
        c.submit(
            conn,
            TxnSpec {
                ops: keys.iter().map(|k| Op::Get(*k)).collect(),
            },
        );
        self.pending.push(Readback {
            conn,
            keys,
            floor,
            exact,
            sent: c.sim.now(),
            refused: false,
        });
    }

    /// After a recovery: read back a seeded sample of the keys that had an
    /// acknowledged write when the writer went down.
    fn sample_after_recovery(&mut self, c: &mut Cluster, snapshot: &[u32]) {
        let written: Vec<u64> = (0..snapshot.len() as u64)
            .filter(|k| snapshot[*k as usize] > 0)
            .collect();
        if written.is_empty() {
            return;
        }
        for _ in 0..READBACK_SAMPLE_TXNS {
            let keys: Vec<u64> = (0..READBACK_KEYS_PER_TXN)
                .map(|_| written[self.rng.index(written.len())])
                .collect();
            let floor = keys.iter().map(|k| snapshot[*k as usize]).collect();
            self.submit(c, keys, floor, false);
        }
    }

    /// Match answers that have arrived against what was owed.
    fn collect(&mut self, c: &Cluster, failures: &mut Vec<String>) {
        let (responses, cursor) = c.responses_since(self.cursor);
        self.cursor = cursor;
        for resp in responses {
            let Some(i) = self.pending.iter().position(|p| p.conn == resp.conn) else {
                continue;
            };
            let Some(rows) = rows_of(&resp.result) else {
                // refused (writer recovering): ask again, nothing is lost yet
                self.pending[i].refused = true;
                continue;
            };
            let rb = self.pending.swap_remove(i);
            for ((key, floor), row) in rb.keys.iter().zip(&rb.floor).zip(rows) {
                let got = row.map_or(0, |r| ledger_version(*key, r));
                let ok = if rb.exact {
                    got == *floor
                } else {
                    got >= *floor
                };
                if !ok {
                    self.lost += 1;
                    if failures.len() < 20 {
                        failures.push(format!(
                            "durability: key {key} acknowledged at version {floor}, read back {got}"
                        ));
                    }
                }
            }
        }
    }

    /// Re-send read-backs the writer refused while recovering, or that
    /// went down with it. Call only while the writer is up and ready.
    fn resend_unanswered(&mut self, c: &mut Cluster) {
        let now = c.sim.now();
        let (stuck, waiting): (Vec<Readback>, Vec<Readback>) = self
            .pending
            .drain(..)
            .partition(|rb| rb.refused || now.since(rb.sent) >= READBACK_TIMEOUT);
        self.pending = waiting;
        for rb in stuck {
            self.submit(c, rb.keys, rb.floor, rb.exact);
        }
    }
}

const NS_PER_MS: f64 = 1e6;
const NS_PER_US: f64 = 1e3;

/// Percentile `want` of a registry histogram of nanoseconds, if it has
/// samples, in the unit `ns_per_unit` stands for.
fn put_hist(values: &mut Values, name: &'static str, h: &Histogram, want: f64, ns_per_unit: f64) {
    if let Some(p) = pick_hist(h, want) {
        put_picked(values, name, p, ns_per_unit);
    }
}

fn put_picked(values: &mut Values, name: &'static str, p: Picked, ns_per_unit: f64) {
    values.insert(
        name,
        Value {
            value: p.value / ns_per_unit,
            samples: Some(p.samples),
            fell_back_to: p.fell_back_to,
        },
    );
}

fn put(values: &mut Values, name: &'static str, v: f64) {
    values.insert(name, Value::plain(v));
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub struct PassOptions {
    pub seed: u64,
    pub seconds: f64,
    /// Switch `sim.trace` on over the window and fold the waterfall.
    pub traced: bool,
    /// Count allocations (both passes of a traced measurement do, so that
    /// their timings compare; the heap figures come from the untraced one,
    /// whose heap does not hold the trace ring).
    pub count_allocs: bool,
    /// Keep the start of the traced window as NDJSON.
    pub keep_ndjson: bool,
}

/// Run one pass. See the module docs.
pub fn run(spec: &Spec, opt: &PassOptions) -> Pass {
    if opt.count_allocs {
        alloc::start();
    }
    let (mut world, setup_s) = set_up(spec, opt.seed);
    let window = spec.window(opt.seconds);
    let steps = window.nanos() / spec.step.nanos();
    let steps_per_slice = SLICE.nanos() / spec.step.nanos();
    assert_eq!(
        SLICE.nanos() % spec.step.nanos(),
        0,
        "steps must tile a slice"
    );
    let mut failures: Vec<String> = Vec::new();

    // ---- open the window -------------------------------------------------
    world.sim().clear_stats();
    world.reset_load_window();
    if opt.traced {
        world.sim().trace.enable(TRACE_RING);
    }
    let events0 = world.sim_ref().events_dispatched();
    let overflow0 = world.sim_ref().events_overflowed();
    let clock0 = world.sim_ref().now();
    let cache0 = world.cache_stats();
    let disk0 = world.disk_ops();
    let alloc0 = alloc::snapshot();
    let setup_fingerprint = Fingerprint {
        commits: 0,
        events: events0,
        clock_ns: clock0.nanos(),
    };

    let mut crashes: Vec<(u64, u64)> = Vec::new();
    let mut durability = None;
    match (spec.faults, &mut world) {
        (Faults::GrayLoss { factor, drop }, World::Single { c, .. }) => {
            let plan = gray_plan(c, window, factor, drop);
            plan.validate(window)
                .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
            c.sim.install_fault_plan(&plan);
        }
        (Faults::WriterCrashes { crashes: n, down }, World::Single { .. }) => {
            crashes = crash_schedule(steps, n, down.nanos() / spec.step.nanos());
            durability = Some(Durability::new(opt.seed));
        }
        _ => {}
    }

    // ---- the window: act between steps, time whole slices -------------------
    let mut slice_host_s: Vec<f64> = Vec::new();
    let mut slice_events: Vec<u64> = Vec::new();
    let (mut host_in_slice, mut events_in_slice) = (0.0, 0);
    let window_started = Instant::now();
    for i in 0..steps {
        if let World::Single { c, gen } = &mut world {
            if crashes.iter().any(|(at, _)| *at == i) {
                let now = c.sim.now();
                let g = c.sim.actor_mut::<Generator>(*gen);
                g.mark_outage(now);
                let snapshot = g.acked_versions().to_vec();
                c.sim.crash(c.engine);
                if let Some(d) = durability.as_mut() {
                    d.owed = Some(snapshot);
                }
            }
            if crashes.iter().any(|(_, back)| *back == i) {
                c.sim.restart(c.engine);
            }
            if let Some(d) = durability.as_mut() {
                d.collect(c, &mut failures);
                if c.sim.is_up(c.engine) && c.engine_actor().status() == EngineStatus::Ready {
                    if let Some(snapshot) = d.owed.take() {
                        d.sample_after_recovery(c, &snapshot);
                    }
                    d.resend_unanswered(c);
                }
            }
        }
        let before = world.sim_ref().events_dispatched();
        let t = Instant::now();
        world.sim().run_for(spec.step);
        host_in_slice += t.elapsed().as_secs_f64();
        events_in_slice += world.sim_ref().events_dispatched() - before;
        if (i + 1) % steps_per_slice == 0 {
            slice_host_s.push(std::mem::take(&mut host_in_slice));
            slice_events.push(std::mem::take(&mut events_in_slice));
        }
    }
    let window_host_s = window_started.elapsed().as_secs_f64();

    // ---- read out --------------------------------------------------------
    let alloc1 = alloc::snapshot();
    let peak_rss_kb = peak_rss_kb();
    let (mut load, in_flight) = world.load();
    load.latency_ns.sort_unstable();
    load.gap_ns.sort_unstable();
    load.outages_ns.sort_unstable();
    let events = world.sim_ref().events_dispatched() - events0;
    let window_sim_s = window.secs_f64();
    let fingerprint = Fingerprint {
        commits: load.commits,
        events,
        clock_ns: world.sim_ref().now().nanos(),
    };
    if !load.conserved(in_flight) {
        failures.push(format!(
            "conservation: attempted {} + carried in {} != commits {} + aborts {} + sheds {} + in flight {}",
            load.attempted, load.carried_in, load.commits, load.aborts, load.sheds, in_flight
        ));
    }

    let mut values = Values::new();
    let slice_sim_s = SLICE.secs_f64();
    let per_sim: Vec<f64> = slice_host_s.iter().map(|h| h / slice_sim_s).collect();
    let per_host: Vec<f64> = slice_events
        .iter()
        .zip(&slice_host_s)
        .map(|(e, h)| *e as f64 / h.max(1e-9))
        .collect();
    put(&mut values, "setup_s", setup_s);
    put(&mut values, "host_s_per_sim_s", median(&per_sim));
    put(&mut values, "host_events_per_s", median(&per_host));
    put(&mut values, "peak_rss_mb", peak_rss_kb as f64 / 1024.0);
    sim_readout(spec, &world, &load, window_sim_s, &mut values);

    let commits = load.commits;
    let cache1 = world.cache_stats();
    let (hits, misses) = (
        cache1.0.saturating_sub(cache0.0),
        cache1.1.saturating_sub(cache0.1),
    );
    put(
        &mut values,
        "core.buffer.miss_ratio",
        ratio(misses, hits + misses),
    );
    let disk1 = world.disk_ops();
    put(
        &mut values,
        "sim.disk.reads_per_txn",
        ratio(disk1.0 - disk0.0, commits),
    );
    put(
        &mut values,
        "sim.disk.writes_per_txn",
        ratio(disk1.1 - disk0.1, commits),
    );
    let sim = world.sim_ref();
    put(
        &mut values,
        "sim.kernel.events_per_txn",
        ratio(events, commits),
    );
    put(
        &mut values,
        "sim.kernel.queue_high_water",
        sim.events_queue_high_water() as f64,
    );
    put(
        &mut values,
        "sim.kernel.events_overflowed",
        (sim.events_overflowed() - overflow0) as f64,
    );
    put(
        &mut values,
        "sim.kernel.event_pool_peak_mb",
        sim.events_reserved_bytes() as f64 / 1e6,
    );

    // host ms per slice (100 simulated ms)
    let mut slice_ns: Vec<u64> = slice_host_s.iter().map(|s| (s * 1e9) as u64).collect();
    slice_ns.sort_unstable();
    put(
        &mut values,
        "host.slice_p50_ms",
        quantile_sorted(&slice_ns, 0.5) as f64 / NS_PER_MS,
    );
    if let Some(p) = pick_exact(&slice_ns, 0.99) {
        put_picked(&mut values, "host.slice_p99_ms", p, NS_PER_MS);
    }

    let mut trace_ndjson = None;
    if opt.count_allocs {
        put(
            &mut values,
            "host.allocs_per_event",
            ratio(alloc1.calls - alloc0.calls, events),
        );
        put(
            &mut values,
            "host.alloc_bytes_per_txn",
            ratio(alloc1.bytes - alloc0.bytes, commits),
        );
        put(
            &mut values,
            "host.heap_peak_mb",
            alloc1.peak_live as f64 / 1e6,
        );
    }
    if opt.traced {
        let dropped = sim.trace.dropped();
        if dropped > 0 {
            failures.push(format!("trace ring dropped {dropped} events"));
        }
        let volumes = world.volumes();
        let w = waterfall::fold(
            &sim.trace,
            QuorumConfig::aurora().write_quorum as usize,
            |node| volumes.get(node as usize).copied().unwrap_or(u32::MAX),
        );
        waterfall_readout(&w, &mut values);
        if opt.keep_ndjson {
            trace_ndjson = Some(trace_sample_ndjson(sim));
        }
    }
    // the ring is not needed past this point; free it before verifying
    world.sim().trace.disable();
    world.sim().trace.clear_events();
    alloc::stop();

    // ---- verify (not timed) ----------------------------------------------
    let mut check_failed = 0;
    if let World::Single { c, gen } = &mut world {
        c.sim.actor_mut::<Generator>(*gen).stop();
        let gen = *gen;
        run_until(&mut c.sim, "draining the load", |sim| {
            sim.actor::<Generator>(gen).in_flight() == 0
        });
        if let Some(mut d) = durability {
            check_failed += verify_durability(c, gen, &mut d, &mut failures);
        }
        if matches!(spec.faults, Faults::GrayLoss { .. }) {
            verify_convergence(c, &mut failures);
        }
    }

    let failed = load.aborts + load.sheds + check_failed;
    put(
        &mut values,
        "fail_ratio",
        ratio(failed, load.attempted + load.carried_in),
    );

    Pass {
        setup_s,
        setup_fingerprint,
        fingerprint,
        window_host_s,
        load,
        check_failed,
        failures,
        values,
        trace_ndjson,
    }
}

/// Every acknowledged upsert must read back, exactly, once the load has
/// drained: versions of one key are written strictly one after another,
/// so the row holds the last acknowledged version or the write was lost.
fn verify_durability(
    c: &mut Cluster,
    gen: NodeId,
    d: &mut Durability,
    failures: &mut Vec<String>,
) -> u64 {
    let acked = c.sim.actor::<Generator>(gen).acked_versions().to_vec();
    let written: Vec<u64> = (0..acked.len() as u64)
        .filter(|k| acked[*k as usize] > 0)
        .collect();
    if written.is_empty() {
        failures.push("durability: no write was ever acknowledged".into());
        return 1;
    }
    for keys in written.chunks(READBACK_KEYS_PER_TXN) {
        let floor = keys.iter().map(|k| acked[*k as usize]).collect();
        d.submit(c, keys.to_vec(), floor, true);
    }
    let mut guard = 0;
    while !d.pending.is_empty() {
        c.sim.run_for(SimDuration::from_millis(20));
        d.collect(c, failures);
        if c.engine_actor().status() == EngineStatus::Ready {
            d.resend_unanswered(c);
        }
        guard += 1;
        if guard > 1_000 {
            failures.push(format!(
                "durability: {} read-backs never answered",
                d.pending.len()
            ));
            return d.lost + d.pending.len() as u64;
        }
    }
    d.lost
}

/// After the faults heal and the load stops, every protection group must
/// come back to full, equal membership (`Oracles::check_convergence`).
fn verify_convergence(c: &mut Cluster, failures: &mut Vec<String>) {
    let deadline = c.sim.now() + SimDuration::from_secs(10);
    loop {
        c.sim.run_for(SimDuration::from_millis(50));
        let violations = Oracles::check_convergence(c);
        let writer_quiet = c.engine_actor().status() == EngineStatus::Ready
            && c.engine_actor().staged_records() == 0;
        if violations.is_empty() && writer_quiet {
            return;
        }
        if c.sim.now() >= deadline {
            failures.extend(violations.iter().map(|v| format!("convergence: {v:?}")));
            if !writer_quiet {
                failures.push("convergence: writer not quiescent".into());
            }
            return;
        }
    }
}

/// Simulated-clock metrics and counts, read from the registry, the
/// network statistics and the load generator's own (sorted) samples.
fn sim_readout(spec: &Spec, world: &World, load: &LoadStats, window_sim_s: f64, v: &mut Values) {
    let sim = world.sim_ref();
    let m = &sim.metrics;
    let net = sim.net();
    let commits = load.commits;
    let ktxn = |n: u64| ratio(n * 1_000, commits);
    let per_txn = |n: u64| ratio(n, commits);
    let single = spec.sharding.is_none();

    // ---- end to end --------------------------------------------------
    put(v, "sim_tps", commits as f64 / window_sim_s);
    for (name, want) in [("sim_txn_p50_ms", 0.5), ("sim_txn_p99_ms", 0.99)] {
        if let Some(p) = pick_exact(&load.latency_ns, want) {
            put_picked(v, name, p, NS_PER_MS);
        }
    }
    let commit = m.histogram_total("engine.commit_ns");
    put_hist(v, "sim_commit_p50_ms", &commit, 0.5, NS_PER_MS);
    put_hist(v, "sim_commit_p99_ms", &commit, 0.99, NS_PER_MS);
    if single {
        put(
            v,
            "net_ios_per_txn",
            per_txn(net.class_packets("log_write") + net.class_packets("page_read")),
        );
    }
    let lag = m.histogram_total("replica.lag_ns");
    put_hist(v, "replica_lag_p99_ms", &lag, 0.99, NS_PER_MS);
    put_hist(v, "core.replica.lag_p50_ms", &lag, 0.5, NS_PER_MS);
    if let Some(longest) = load.outages_ns.last() {
        let o = &load.outages_ns;
        v.insert(
            "unavail_ms",
            Value {
                value: quantile_sorted(o, 0.5) as f64 / NS_PER_MS,
                samples: Some(o.len() as u64),
                fell_back_to: None,
            },
        );
        put(v, "load.unavail_max_ms", *longest as f64 / NS_PER_MS);
        put(v, "load.retries_per_ktxn", ktxn(load.retries));
    }
    if spec.open_loop() {
        if let Some(p) = pick_exact(&load.gap_ns, 0.99) {
            put_picked(v, "sim_txn_gap_p99_ms", p, NS_PER_MS);
        }
    }

    // ---- core.engine ---------------------------------------------------
    let c = |name: &'static str| m.counter_total(name);
    let batches = c("engine.batches");
    put(
        v,
        "core.engine.records_per_batch",
        ratio(c("engine.records_shipped"), batches),
    );
    put(v, "core.engine.batches_per_txn", per_txn(batches));
    let ships = c("engine.ship_immediate")
        + c("engine.ship_size")
        + c("engine.ship_deadline")
        + c("engine.ship_forced");
    put(
        v,
        "core.engine.ship_immediate_ratio",
        ratio(c("engine.ship_immediate"), ships),
    );
    let ack = m.histogram_total("engine.ack_ns");
    put_hist(v, "core.engine.ack_p50_us", &ack, 0.5, NS_PER_US);
    put_hist(v, "core.engine.ack_p99_us", &ack, 0.99, NS_PER_US);
    put(
        v,
        "core.engine.retransmits_per_ktxn",
        ktxn(c("engine.log_write_retransmits")),
    );
    put(
        v,
        "core.engine.hedged_per_ktxn",
        ktxn(c("engine.hedged_ships")),
    );
    put(
        v,
        "core.engine.health_strikes",
        c("engine.health_strikes") as f64,
    );
    put(
        v,
        "core.engine.lal_stalls_per_ktxn",
        ktxn(c("engine.lal_stalls")),
    );
    put(
        v,
        "core.engine.lock_waits_per_ktxn",
        ktxn(c("engine.lock_waits")),
    );
    put(
        v,
        "core.engine.lock_timeouts",
        c("engine.lock_timeouts") as f64,
    );
    let select = m.histogram_total("engine.select_ns");
    put_hist(v, "core.engine.select_p50_us", &select, 0.5, NS_PER_US);
    put_hist(v, "core.engine.select_p99_us", &select, 0.99, NS_PER_US);
    let update = m.histogram_total("engine.update_ns");
    put_hist(v, "core.engine.update_p50_us", &update, 0.5, NS_PER_US);
    put_hist(v, "core.engine.update_p99_us", &update, 0.99, NS_PER_US);
    put_hist(
        v,
        "core.engine.page_fetch_p99_us",
        &m.histogram_total("engine.page_fetch_ns"),
        0.99,
        NS_PER_US,
    );
    put(
        v,
        "core.engine.read_retries_per_ktxn",
        ktxn(c("engine.read_retries")),
    );
    let recovery = m.histogram_total("engine.recovery_ns");
    if recovery.count() > 0 {
        v.insert(
            "core.engine.recovery_ms",
            Value {
                value: recovery.mean() / NS_PER_MS,
                samples: Some(recovery.count()),
                fell_back_to: None,
            },
        );
    }

    // ---- core.replica / core.proxy --------------------------------------
    if spec.replicas > 0 {
        put(
            v,
            "core.replica.applied_per_txn",
            per_txn(c("replica.applied")),
        );
        put(v, "core.replica.discarded", c("replica.discarded") as f64);
    }
    if let World::Sharded { c: sharded, .. } = world {
        put_hist(
            v,
            "core.proxy.queue_p99_ms",
            &m.histogram_total("proxy.queue_ns"),
            0.99,
            NS_PER_MS,
        );
        put(v, "core.proxy.shed_full", c("proxy.shed_full") as f64);
        put(
            v,
            "core.proxy.shed_deadline",
            c("proxy.shed_deadline") as f64,
        );
        let forwarded: Vec<u64> = sharded
            .shards
            .iter()
            .map(|s| m.counter(s.engine, "proxy.shard_forwarded"))
            .collect();
        let (max, min) = (
            forwarded.iter().max().copied().unwrap_or(0),
            forwarded.iter().min().copied().unwrap_or(0),
        );
        put(v, "core.proxy.shard_spread", ratio(max, min));
    }

    // ---- storage ---------------------------------------------------------
    let batches_in = c("storage.batches_in");
    put(v, "storage.node.batches_in_per_txn", per_txn(batches_in));
    put(
        v,
        "storage.node.fast_ack_ratio",
        ratio(c("storage.fast_acks"), batches_in),
    );
    let persist = m.histogram_total("storage.persist_ns");
    put_hist(v, "storage.node.persist_p50_us", &persist, 0.5, NS_PER_US);
    put_hist(v, "storage.node.persist_p99_us", &persist, 0.99, NS_PER_US);
    put(
        v,
        "storage.node.page_reads_per_txn",
        per_txn(c("storage.page_reads")),
    );
    put(
        v,
        "storage.node.coalesced_per_txn",
        per_txn(c("storage.coalesced")),
    );
    put(
        v,
        "storage.node.gc_records_per_txn",
        per_txn(c("storage.gc_records")),
    );
    put(
        v,
        "storage.node.gossip_filled",
        c("storage.gossip_filled") as f64,
    );
    put(
        v,
        "storage.node.read_rejected",
        c("storage.read_rejected") as f64,
    );
    put(
        v,
        "storage.control.repairs_completed",
        c("control.repairs_completed") as f64,
    );
    put(v, "storage.control.fences", c("control.fences") as f64);

    // ---- sim.net ---------------------------------------------------------
    put(
        v,
        "sim.net.log_write_pkts_per_txn",
        per_txn(net.class_packets("log_write")),
    );
    put(
        v,
        "sim.net.log_write_bytes_per_txn",
        per_txn(net.class_bytes("log_write")),
    );
    put(
        v,
        "sim.net.log_ack_pkts_per_txn",
        per_txn(net.class_packets("log_ack")),
    );
    put(
        v,
        "sim.net.page_read_pkts_per_txn",
        per_txn(net.class_packets("page_read")),
    );
    put(
        v,
        "sim.net.page_resp_bytes_per_txn",
        per_txn(net.class_bytes("page_resp")),
    );
    put(
        v,
        "sim.net.replica_stream_bytes_per_txn",
        per_txn(net.class_bytes("replica_stream")),
    );
    put(
        v,
        "sim.net.gossip_pkts_per_txn",
        per_txn(net.class_packets("gossip")),
    );
}

fn waterfall_readout(w: &Waterfall, v: &mut Values) {
    const NAMES: [(&str, &str); 7] = [
        ("commit.pre_seal_p50_us", "commit.pre_seal_p99_us"),
        ("commit.staging_wait_p50_us", "commit.staging_wait_p99_us"),
        ("commit.net_out_p50_us", "commit.net_out_p99_us"),
        ("commit.disk_persist_p50_us", "commit.disk_persist_p99_us"),
        ("commit.quorum_spread_p50_us", "commit.quorum_spread_p99_us"),
        ("commit.vdl_publish_p50_us", "commit.vdl_publish_p99_us"),
        ("commit.ack_return_p50_us", "commit.ack_return_p99_us"),
    ];
    if w.covered + w.uncovered == 0 {
        return; // a workload that commits no writes has no waterfall
    }
    put(v, "commit.covered_ratio", w.covered_ratio());
    put(v, "quorum.acks_at_close", w.acks_at_close);
    let mut sum_of_medians = 0.0;
    for (samples, (p50, p99)) in w.stages.iter().zip(NAMES) {
        if let Some(p) = pick_exact(samples, 0.5) {
            sum_of_medians += p.value;
            put_picked(v, p50, p, NS_PER_US);
        }
        if let Some(p) = pick_exact(samples, 0.99) {
            put_picked(v, p99, p, NS_PER_US);
        }
    }
    if let Some(total) = pick_exact(&w.total_ns, 0.5) {
        put(
            v,
            "commit.stage_sum_ratio",
            sum_of_medians / total.value.max(1.0),
        );
    }
}

/// The first [`TRACE_SAMPLE`] events of the traced window, one JSON object
/// per line, in the shape of `aurora_sim::trace::ndjson` (which renders the
/// whole ring: gigabytes for the long windows).
fn trace_sample_ndjson(sim: &Sim) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for e in sim.trace.events().take(TRACE_SAMPLE) {
        let phase = match e.phase {
            TracePhase::Begin => "begin",
            TracePhase::End => "end",
            TracePhase::Instant => "instant",
        };
        let _ = writeln!(
            out,
            "{{\"at_ns\":{},\"actor\":{},\"actor_name\":\"{}\",\"kind\":\"{}\",\
             \"phase\":\"{phase}\",\"span\":{},\"parent\":{},\"a0\":{},\"a1\":{}}}",
            e.at_ns,
            e.actor,
            sim.name_of(e.actor),
            sim.trace.kind_name(e.kind),
            e.span,
            e.parent,
            e.a0,
            e.a1,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crashes_are_spread_and_leave_room_to_recover() {
        let s = crash_schedule(100, 5, 1);
        assert_eq!(s, vec![(9, 10), (27, 28), (45, 46), (63, 64), (81, 82)]);
        // short windows still get distinct, ordered crash points
        let s = crash_schedule(40, 5, 1);
        assert!(s.windows(2).all(|w| w[0].1 < w[1].0), "{s:?}");
        assert!(s.last().unwrap().1 < 40);
    }
}
