//! Deterministic simulation testing (DST) harness.
//!
//! FoundationDB-style correctness sweeps over the Aurora reproduction: a
//! seed expands into a random-but-legal [`FaultPlan`] (via
//! [`aurora_sim::schedule::generate`]), the plan runs against a full
//! cluster under a sequentially-versioned key workload, and a set of
//! **invariant oracles** watches the run:
//!
//! * **durability** — no committed (acknowledged) version is ever lost,
//!   checked by a final read-back after the world heals (§2 "data, once
//!   written, can be read"),
//! * **snapshot safety** — storage never serves a page image materialized
//!   past the requested read point (watched via the
//!   `oracle.read_past_read_point` taps in the engine and replica),
//! * **epoch monotonicity** — per-segment truncation-guard epochs and the
//!   writer's volume epoch never regress (§4.3 epoch fencing),
//! * **SCL monotonicity** — a segment's SCL only moves backwards together
//!   with an epoch bump (a recovery truncation), never silently,
//! * **convergence** — after the plan completes and transient faults heal,
//!   every PG returns to full membership, all slots alive and hosting,
//!   with equal SCLs (§2.2 "quickly repaired"),
//! * **liveness** — a watchdog flags a cluster that wedges (writer never
//!   Ready again, repairs never drain),
//! * **bounded degradation** — under gray faults (brownouts, flaky links,
//!   stalls) commits must keep flowing and commit p99 must stay within a
//!   configured multiple of a clean same-seed baseline ([`DegradationBudget`];
//!   §4.1 "avoid ... disks with poor performance"),
//! * **health convergence** — once the world heals, the writer's gray-
//!   failure tracker must clear every suspect segment,
//! * **SLO burns** — with telemetry enabled, the windowed sampler's SLO
//!   probes watch each 100ms window *during* the run; a sustained breach
//!   (e.g. commit p99 blowing its ceiling for K consecutive windows)
//!   surfaces as a violation even when the end-state checks all pass.
//!   The last [`FLIGHT_RING`] windows ride back on
//!   [`DstReport::telemetry`] as flight-recorder artifacts.
//!
//! Same seed ⇒ same plan ⇒ same verdict, bit for bit: a failing seed from
//! a thousand-run sweep replays exactly, and
//! [`shrink_failing`] reduces its schedule to a minimal reproducer by
//! delta debugging.

use std::collections::BTreeMap;

use aurora_core::cluster::{Cluster, ClusterConfig};
use aurora_core::engine::{EngineActor, EngineStatus};
use aurora_core::wire::{Op, OpResult, TxnResult, TxnSpec};
use aurora_log::{Lsn, SegmentId};
use aurora_quorum::VolumeEpoch;
use aurora_sim::schedule::{self, Intensity, ScheduleSpec};
use aurora_sim::{
    trace, FaultAction, FaultPlan, NodeId, SimDuration, SloSpec, TelemetryConfig, Zone,
};
use aurora_storage::{ControlConfig, ControlPlane, StorageNode};

/// One DST run's shape: the world to build and how hard to shake it.
#[derive(Debug, Clone)]
pub struct DstConfig {
    pub seed: u64,
    pub intensity: Intensity,
    /// Fault window: the plan executes inside it, under load.
    pub window: SimDuration,
    /// Logical keys, each written sequentially by its own client.
    pub keys: u64,
    pub pgs: u32,
    pub storage_nodes: usize,
    pub spares: usize,
    pub replicas: usize,
    /// Control-plane repair supervision deadline (None = unsupervised,
    /// only for negative tests).
    pub repair_timeout: Option<SimDuration>,
    /// How long after heal the cluster gets to converge before the
    /// liveness watchdog calls it wedged.
    pub converge_budget: SimDuration,
    /// Capture a causal trace of the run (spans + watermark timeline);
    /// the rendered artifacts ride back on [`DstReport::trace`]. Tracing
    /// records only simulated time, so it never perturbs the verdict.
    pub trace: bool,
    /// Bounded-degradation budget (gray-fault sweeps): when set, the run
    /// is compared against a clean twin (same seed, empty plan) and must
    /// keep committing within the budget. `None` skips the comparison.
    pub degradation: Option<DegradationBudget>,
    /// Enable the windowed telemetry sampler (100ms sim-time windows,
    /// ring of [`FLIGHT_RING`]). Observation-only: the verdict — commits,
    /// final clock, every non-SLO violation — is bit-identical with it on
    /// or off. The rendered dump rides back on [`DstReport::telemetry`].
    pub telemetry: bool,
    /// SLO probes evaluated per closed window when `telemetry` is on.
    /// Sustained breaches surface as [`OracleViolation::SloBurn`] mid-run.
    /// `None` = sample only (the default, so sweep/replay verdicts can't
    /// pick up latency-sensitive failures unless a test opts in).
    pub slo: Option<Vec<SloSpec>>,
    /// Always render the flight-recorder dump, even for clean runs.
    /// Without this, a telemetry-enabled run renders
    /// [`DstReport::telemetry`] only when an oracle fired — sampling is
    /// cheap enough for every sweep seed, stringifying three artifacts per
    /// seed is not, and a flight recorder's dump is for crashes anyway.
    pub telemetry_dump: bool,
}

/// How much a gray fault is allowed to hurt before the run counts as a
/// failure. Aurora's §4.1 design goal is that a single slow node is
/// *masked* by the 4/6 quorum, not merely survived — these bounds encode
/// "masked" quantitatively against a clean same-seed baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationBudget {
    /// Commit p99 may be at most this multiple of the clean run's p99...
    pub p99_multiple: f64,
    /// ...or this absolute floor, whichever is larger (a clean p99 of a
    /// few hundred microseconds would otherwise make the multiple absurdly
    /// tight).
    pub p99_floor_ms: f64,
    /// Fault-window commits must be at least this fraction of the clean
    /// run's (commits must keep *flowing*, not trickle).
    pub min_commit_fraction: f64,
}

impl Default for DegradationBudget {
    fn default() -> Self {
        DegradationBudget {
            p99_multiple: 10.0,
            p99_floor_ms: 50.0,
            min_commit_fraction: 0.3,
        }
    }
}

/// Ring capacity for traced DST runs: large enough to hold the causal
/// window around a violation, small enough to render instantly.
pub const TRACE_CAPACITY: usize = 65_536;

/// Telemetry ring for DST runs: the flight recorder keeps the last 64
/// windows (6.4s at the default 100ms interval) — the causal tail that
/// matters when an oracle fires.
pub const FLIGHT_RING: usize = 64;

impl Default for DstConfig {
    fn default() -> Self {
        DstConfig {
            seed: 0,
            intensity: Intensity::moderate(),
            window: SimDuration::from_secs(2),
            keys: 12,
            pgs: 2,
            storage_nodes: 6,
            spares: 3,
            replicas: 1,
            repair_timeout: Some(SimDuration::from_millis(400)),
            converge_budget: SimDuration::from_secs(20),
            trace: false,
            degradation: None,
            telemetry: false,
            slo: None,
            telemetry_dump: false,
        }
    }
}

/// One invariant broken during a run.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleViolation {
    /// A key's final read returned a version older than its last
    /// acknowledged commit.
    DurabilityLoss { key: u64, acked: u64, got: u64 },
    /// Storage served `count` page images materialized past the read point.
    StaleRead { count: u64 },
    /// A segment's truncation-guard epoch moved backwards.
    EpochRegressed {
        node: NodeId,
        segment: SegmentId,
        was: VolumeEpoch,
        now: VolumeEpoch,
    },
    /// The writer's volume epoch moved backwards across recoveries.
    WriterEpochRegressed { was: VolumeEpoch, now: VolumeEpoch },
    /// A segment's SCL moved backwards without an epoch bump (i.e. not a
    /// recovery truncation — durable log state silently vanished).
    SclRegressed {
        node: NodeId,
        segment: SegmentId,
        was: Lsn,
        now: Lsn,
    },
    /// A PG failed to return to full healthy membership after heal.
    NotConverged { pg: u32, detail: String },
    /// The cluster wedged: the liveness watchdog gave up.
    Wedged { detail: String },
    /// Bounded degradation: the faulted run committed too little compared
    /// to its clean same-seed twin (gray fault starved the commit path).
    DegradedCommits { got: u64, clean: u64, floor: u64 },
    /// Bounded degradation: commit p99 blew past the budget.
    DegradedLatency { p99_ms: f64, limit_ms: f64 },
    /// Health convergence: the writer still marks segments suspect after
    /// the fault window healed and the convergence budget elapsed.
    SuspectsLinger { count: usize },
    /// Shard isolation: a fault plan scoped to one shard moved commit p99
    /// on a *different* (healthy) shard beyond the budget vs a clean
    /// same-seed twin.
    ShardLatencyLeak {
        shard: usize,
        p99_ms: f64,
        limit_ms: f64,
    },
    /// Shard isolation: a healthy shard's window commits fell below the
    /// budget fraction of its clean same-seed twin.
    ShardThroughputLeak {
        shard: usize,
        got: u64,
        clean: u64,
        floor: u64,
    },
    /// An SLO probe burned mid-run: `sustained` consecutive telemetry
    /// windows breached the probe's limit. Caught *while the fault was
    /// active* — by the time convergence checks run the signal is gone.
    SloBurn {
        probe: &'static str,
        /// Window index of the burn (the `sustained`-th breach).
        window: u64,
        value: f64,
        limit: f64,
        sustained: u32,
    },
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleViolation::DurabilityLoss { key, acked, got } => write!(
                f,
                "durability: key {key} acked version {acked} but read back {got}"
            ),
            OracleViolation::StaleRead { count } => {
                write!(f, "snapshot: {count} page reads served past the read point")
            }
            OracleViolation::EpochRegressed {
                node,
                segment,
                was,
                now,
            } => write!(
                f,
                "epoch: node {node} segment {segment:?} regressed {was} -> {now}"
            ),
            OracleViolation::WriterEpochRegressed { was, now } => {
                write!(f, "epoch: writer volume epoch regressed {was} -> {now}")
            }
            OracleViolation::SclRegressed {
                node,
                segment,
                was,
                now,
            } => write!(
                f,
                "scl: node {node} segment {segment:?} regressed {was:?} -> {now:?} without epoch bump"
            ),
            OracleViolation::NotConverged { pg, detail } => {
                write!(f, "convergence: pg {pg} not healthy: {detail}")
            }
            OracleViolation::Wedged { detail } => write!(f, "liveness: {detail}"),
            OracleViolation::DegradedCommits { got, clean, floor } => write!(
                f,
                "degradation: {got} commits in fault window vs {clean} clean (floor {floor})"
            ),
            OracleViolation::DegradedLatency { p99_ms, limit_ms } => write!(
                f,
                "degradation: commit p99 {p99_ms:.2}ms exceeds budget {limit_ms:.2}ms"
            ),
            OracleViolation::SuspectsLinger { count } => write!(
                f,
                "health: {count} segment(s) still suspect/degraded after convergence budget"
            ),
            OracleViolation::ShardLatencyLeak {
                shard,
                p99_ms,
                limit_ms,
            } => write!(
                f,
                "isolation: healthy shard {shard} commit p99 {p99_ms:.2}ms exceeds budget {limit_ms:.2}ms"
            ),
            OracleViolation::ShardThroughputLeak {
                shard,
                got,
                clean,
                floor,
            } => write!(
                f,
                "isolation: healthy shard {shard} committed {got} vs {clean} clean (floor {floor})"
            ),
            OracleViolation::SloBurn {
                probe,
                window,
                value,
                limit,
                sustained,
            } => write!(
                f,
                "slo: {probe} burned at window {window}: value {value:.3} breaches limit {limit:.3} (sustained {sustained} windows)"
            ),
        }
    }
}

/// Verdict of one run: deterministic for `(DstConfig, FaultPlan)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DstReport {
    pub seed: u64,
    pub plan_len: usize,
    /// Committed transactions during the fault window (progress signal
    /// and part of the determinism digest).
    pub commits: u64,
    /// Commits sampled at the end of the fault window, before heal and
    /// convergence (the bounded-degradation oracle's numerator).
    pub window_commits: u64,
    /// Commit-path p99 (`engine.commit_ns`) at the end of the fault
    /// window, in nanoseconds.
    pub commit_p99_ns: u64,
    /// Final simulated clock. Every run stops at the same fixed length,
    /// so this pins only that the run reached its end.
    pub clock_ns: u64,
    /// Events the kernel dispatched over the whole run — the strongest
    /// cheap witness of the event order: a run that schedules, drops or
    /// reorders even one event differently dispatches a different count.
    pub events: u64,
    pub violations: Vec<OracleViolation>,
    /// Rendered trace artifacts (only when [`DstConfig::trace`] is set).
    /// Part of the `PartialEq` digest: two same-seed traced runs must
    /// produce byte-identical artifacts.
    pub trace: Option<TraceDump>,
    /// Flight-recorder dump: the sampler ring's last [`FLIGHT_RING`]
    /// windows rendered to portable artifacts. Present when
    /// [`DstConfig::telemetry`] is on and either the run failed an oracle
    /// or [`DstConfig::telemetry_dump`] forced a render. Part of the
    /// `PartialEq` digest — same seed ⇒ byte-identical dumps.
    pub telemetry: Option<TelemetryDump>,
}

impl DstReport {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Rendered trace artifacts captured from a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDump {
    /// Chrome `trace_event` JSON — open in `chrome://tracing` / Perfetto.
    /// When telemetry is also on, fleet counter tracks ("C" events) are
    /// spliced in so throughput/latency plot next to the spans.
    pub chrome: String,
    /// Newline-delimited JSON, one event per line (grep/jq-friendly).
    pub ndjson: String,
    /// Per-PG watermark timeline table (VDL/VCL/SCL/PGMRPL advances).
    pub watermarks: String,
}

/// Flight-recorder artifacts captured from a telemetry-enabled run: the
/// sampler ring rendered at the end of the run (window points, fleet
/// rollups, and any SLO burns).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryDump {
    /// One JSON object per line: per-owner points, fleet rollups, burns.
    pub ndjson: String,
    /// Flat `window,scope,owner,metric,...` table (spreadsheet-friendly).
    pub csv: String,
    /// Terminal sparkline/table render — what `dst --replay N
    /// --telemetry` prints.
    pub timeline: String,
}

/// Human-readable role of a node in the DST topology (for trace actor
/// names): the layout mirrors [`Cluster::build`].
pub fn node_name(c: &Cluster, node: NodeId) -> String {
    if node == c.client {
        return "client".into();
    }
    if node == c.engine {
        return "writer".into();
    }
    if Some(node) == c.standby {
        return "standby".into();
    }
    if Some(node) == c.control {
        return "control".into();
    }
    if let Some(i) = c.replicas.iter().position(|n| *n == node) {
        return format!("replica-{i}");
    }
    if let Some(i) = c.storage.iter().position(|n| *n == node) {
        return format!("storage-{i}");
    }
    if let Some(i) = c.spares.iter().position(|n| *n == node) {
        return format!("spare-{i}");
    }
    format!("node-{node}")
}

/// Render the cluster's trace ring into portable artifacts. If the
/// telemetry sampler is live, its fleet counter tracks are spliced into
/// the chrome trace.
pub fn render_trace(c: &Cluster) -> TraceDump {
    let name_of = |n: u32| node_name(c, n as NodeId);
    let counters = c.sim.telemetry.chrome_counter_events();
    TraceDump {
        chrome: trace::chrome_trace_with(&c.sim.trace, name_of, &counters),
        ndjson: trace::ndjson(&c.sim.trace, name_of),
        watermarks: trace::watermark_table(&c.sim.trace),
    }
}

/// Render the telemetry sampler ring into flight-recorder artifacts.
pub fn render_telemetry(c: &Cluster) -> TelemetryDump {
    let name_of = |n: u32| node_name(c, n as NodeId);
    TelemetryDump {
        ndjson: c.sim.telemetry.ndjson(name_of),
        csv: c.sim.telemetry.csv(name_of),
        timeline: c.sim.telemetry.render_table(),
    }
}

/// Incremental invariant tracking across a run. `poll` cheaply samples
/// cluster state between workload ticks; violations accumulate.
pub struct Oracles {
    /// Last `(guard_epoch, scl)` seen per hosted segment replica.
    scls: BTreeMap<(NodeId, SegmentId), (VolumeEpoch, Lsn)>,
    /// Last writer volume epoch observed while Ready.
    engine_epoch: Option<VolumeEpoch>,
    /// `storage.repairs_installed` counter per node at last poll: a bump
    /// means the node hosts a freshly installed copy whose guard/SCL
    /// legitimately differ from the segment it replaced.
    repairs_installed: BTreeMap<NodeId, u64>,
    violations: Vec<OracleViolation>,
}

impl Oracles {
    pub fn new() -> Self {
        Oracles {
            scls: BTreeMap::new(),
            engine_epoch: None,
            repairs_installed: BTreeMap::new(),
            violations: Vec::new(),
        }
    }

    /// Sample monotonicity invariants (epochs, SCLs). Call between ticks.
    pub fn poll(&mut self, c: &Cluster) {
        let mut nodes: Vec<NodeId> = c.storage.clone();
        nodes.extend(c.spares.iter().copied());
        for node in nodes {
            let installed = c.sim.metrics.counter(node, "storage.repairs_installed");
            let prev_installed = self.repairs_installed.insert(node, installed);
            if prev_installed.is_some_and(|p| installed > p) {
                // fresh copies installed: reset this node's tracking
                self.scls.retain(|(tracked, _), _| *tracked != node);
            }
            let actor = c.sim.actor::<StorageNode>(node);
            for segment in actor.hosted() {
                let (Some(scl), Some(epoch)) = (actor.scl(segment), actor.guard_epoch(segment))
                else {
                    continue;
                };
                if let Some((was_epoch, was_scl)) = self.scls.insert((node, segment), (epoch, scl))
                {
                    if epoch < was_epoch {
                        self.violations.push(OracleViolation::EpochRegressed {
                            node,
                            segment,
                            was: was_epoch,
                            now: epoch,
                        });
                    } else if scl < was_scl && epoch == was_epoch {
                        // SCL may only shrink via an epoch-bumping
                        // recovery truncation
                        self.violations.push(OracleViolation::SclRegressed {
                            node,
                            segment,
                            was: was_scl,
                            now: scl,
                        });
                    }
                }
            }
        }
        if c.sim.is_up(c.engine) {
            let engine = c.sim.actor::<EngineActor>(c.engine);
            if engine.status() == EngineStatus::Ready {
                let epoch = engine.current_epoch();
                if let Some(was) = self.engine_epoch {
                    if epoch < was {
                        self.violations
                            .push(OracleViolation::WriterEpochRegressed { was, now: epoch });
                    }
                }
                self.engine_epoch = Some(epoch);
            }
        }
        // dedup: a persisting regression would otherwise flood the report
        self.violations.dedup();
    }

    /// Post-heal convergence check: every PG at full healthy membership
    /// (per the control plane's view), all slots alive, hosting their
    /// segment, with equal SCLs; no repairs still in flight.
    pub fn check_convergence(c: &Cluster) -> Vec<OracleViolation> {
        let Some(control_id) = c.control else {
            return Vec::new();
        };
        let control = c.sim.actor::<ControlPlane>(control_id);
        let mut violations = Vec::new();
        for m in control.memberships() {
            let pg = m.pg.0;
            let mut slots = m.slots.clone();
            slots.sort_unstable();
            slots.dedup();
            if slots.len() != m.slots.len() {
                violations.push(OracleViolation::NotConverged {
                    pg,
                    detail: format!("duplicate slots {:?}", m.slots),
                });
                continue;
            }
            if let Some(dead) = m.slots.iter().find(|n| !c.sim.is_up(**n)) {
                violations.push(OracleViolation::NotConverged {
                    pg,
                    detail: format!("member {dead} is down"),
                });
                continue;
            }
            let mut scls = Vec::new();
            for (replica, node) in m.slots.iter().enumerate() {
                let segment = SegmentId::new(m.pg, replica as u8);
                match c.sim.actor::<StorageNode>(*node).scl(segment) {
                    Some(scl) => scls.push((node, scl)),
                    None => violations.push(OracleViolation::NotConverged {
                        pg,
                        detail: format!("member {node} does not host {segment:?}"),
                    }),
                }
            }
            if scls.len() == m.slots.len() && !scls.windows(2).all(|w| w[0].1 == w[1].1) {
                violations.push(OracleViolation::NotConverged {
                    pg,
                    detail: format!("unequal SCLs {scls:?}"),
                });
            }
        }
        if control.in_repair_count() > 0 {
            violations.push(OracleViolation::Wedged {
                detail: format!(
                    "{} repair job(s) still in flight after convergence budget",
                    control.in_repair_count()
                ),
            });
        }
        violations
    }

    pub fn violations(&self) -> &[OracleViolation] {
        &self.violations
    }

    pub fn into_violations(self) -> Vec<OracleViolation> {
        self.violations
    }
}

impl Default for Oracles {
    fn default() -> Self {
        Self::new()
    }
}

/// Undo every *transient* fault the plan left active. Nodes the plan
/// killed (a `Crash` with no later `Restart`) stay down — the cluster is
/// supposed to have repaired around them, and reviving a dead member
/// would mask the very convergence failures the oracles exist to catch.
pub fn heal_world(c: &mut Cluster, plan: &FaultPlan) {
    let mut crashed: Vec<NodeId> = Vec::new();
    let mut zones_down: Vec<Zone> = Vec::new();
    let mut isolated: Vec<Zone> = Vec::new();
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut degraded: Vec<NodeId> = Vec::new();
    let mut browned: Vec<NodeId> = Vec::new();
    let mut flaky: Vec<(NodeId, NodeId)> = Vec::new();
    let mut stalled: Vec<NodeId> = Vec::new();
    let mut chaos = false;
    for (_, action) in plan.entries() {
        match action {
            FaultAction::Crash(n) => crashed.push(*n),
            FaultAction::Restart(n) => crashed.retain(|x| x != n),
            FaultAction::ZoneDown(z) => zones_down.push(*z),
            FaultAction::ZoneUp(z) => zones_down.retain(|x| x != z),
            FaultAction::PartitionPair(a, b) => pairs.push((*a, *b)),
            FaultAction::HealPair(a, b) => pairs.retain(|(x, y)| !(x == a && y == b)),
            FaultAction::IsolateZone(z) => isolated.push(*z),
            FaultAction::HealZone(z) => isolated.retain(|x| x != z),
            FaultAction::DegradeDisk(n, _) => degraded.push(*n),
            FaultAction::RestoreDisk(n) => degraded.retain(|x| x != n),
            FaultAction::StartPacketChaos(_) => chaos = true,
            FaultAction::StopPacketChaos => chaos = false,
            FaultAction::BrownoutDisk(n, _) => browned.push(*n),
            FaultAction::HealBrownout(n) => browned.retain(|x| x != n),
            FaultAction::FlakyLink(a, b, _) => flaky.push((*a, *b)),
            FaultAction::HealLink(a, b) => flaky.retain(|(x, y)| !(x == a && y == b)),
            FaultAction::StallNode(n) => stalled.push(*n),
            FaultAction::UnstallNode(n) => stalled.retain(|x| x != n),
        }
    }
    for (a, b) in pairs {
        c.sim.partition_both(a, b, false);
    }
    for z in isolated {
        c.sim.isolate_zone(z, false);
    }
    for z in zones_down {
        c.sim.zone_up(z);
    }
    for n in degraded {
        c.sim.restore_disk(n);
    }
    for n in browned {
        c.sim.heal_brownout(n);
    }
    for (a, b) in flaky {
        c.sim.heal_link(a, b);
    }
    for n in stalled {
        c.sim.unstall_node(n);
    }
    if chaos {
        c.sim.set_packet_chaos(None);
    }
    // Plan kills stay down; everything else that is down comes back.
    for n in 0..c.sim.node_count() as NodeId {
        if !c.sim.is_up(n) && !crashed.contains(&n) {
            c.sim.restart(n);
        }
    }
}

/// Run the cluster until convergence (or the budget runs out → wedged /
/// not-converged violations). Keeps the monotonicity oracles polling.
pub fn await_convergence(
    c: &mut Cluster,
    budget: SimDuration,
    oracles: &mut Oracles,
) -> Vec<OracleViolation> {
    let step = SimDuration::from_millis(50);
    let deadline = c.sim.now() + budget;
    loop {
        c.sim.run_for(step);
        oracles.poll(c);
        let writer_ready = c.sim.is_up(c.engine)
            && c.sim.actor::<EngineActor>(c.engine).status() == EngineStatus::Ready;
        // Commit-path liveness: with no load offered, a Ready writer must
        // drain its group-commit staging buffer within any flush deadline.
        // A batch that stays staged forever is a wedged commit path even
        // though every storage-side convergence check looks healthy.
        let staged = if c.sim.is_up(c.engine) {
            c.sim.actor::<EngineActor>(c.engine).staged_records()
        } else {
            0
        };
        // Health convergence: once the world heals, the writer's gray-
        // failure tracker must stop suspecting anyone (idle decay clears
        // stale strikes; a suspicion that survives quiescence is a bug).
        let suspects = if c.sim.is_up(c.engine) {
            c.sim.actor::<EngineActor>(c.engine).suspect_count()
        } else {
            0
        };
        let remaining = Oracles::check_convergence(c);
        if writer_ready && staged == 0 && suspects == 0 && remaining.is_empty() {
            return Vec::new();
        }
        if c.sim.now() >= deadline {
            let mut v = remaining;
            if !writer_ready {
                v.push(OracleViolation::Wedged {
                    detail: "writer never returned to Ready".into(),
                });
            } else if staged > 0 {
                v.push(OracleViolation::Wedged {
                    detail: format!(
                        "{staged} staged record(s) never shipped (group commit stalled)"
                    ),
                });
            }
            if suspects > 0 {
                v.push(OracleViolation::SuspectsLinger { count: suspects });
            }
            return v;
        }
    }
}

/// The cluster configuration a [`DstConfig`] expands to (exposed for
/// tests that need direct cluster access alongside the oracles).
pub fn cluster_config(cfg: &DstConfig) -> ClusterConfig {
    ClusterConfig {
        seed: cfg.seed.wrapping_mul(2).wrapping_add(1),
        pgs: cfg.pgs,
        pages_per_pg: 50_000,
        storage_nodes: cfg.storage_nodes,
        spares: cfg.spares,
        replicas: cfg.replicas,
        bootstrap_rows: 0,
        with_control: true,
        control_cfg: ControlConfig {
            repair_timeout: cfg.repair_timeout,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The fault plan seed `cfg.seed` expands to, against this config's
/// topology (the node-id layout matches [`Cluster::build`]).
pub fn plan_for_seed(cfg: &DstConfig) -> FaultPlan {
    let azs = 3usize;
    let storage: Vec<(NodeId, Zone)> = (0..cfg.storage_nodes)
        .map(|i| (1 + i as NodeId, Zone((i % azs) as u8)))
        .collect();
    let writer = (1 + cfg.storage_nodes + cfg.spares + cfg.replicas) as NodeId;
    let mut intensity = cfg.intensity.clone();
    // Never kill more nodes than the spare pool can replace: repair is
    // per-segment and every storage node hosts one segment per PG, so a
    // single kill consumes `pgs` spares.
    let per_kill = (cfg.pgs as usize).max(1);
    intensity.max_kills = intensity.max_kills.min(cfg.spares / per_kill);
    let spec = ScheduleSpec {
        window: cfg.window,
        storage,
        writer: Some(writer),
        zones: azs as u8,
        intensity,
        shard: None,
    };
    schedule::generate(&spec, cfg.seed)
}

/// Version v of key k encodes both halves for torn-row detection.
fn value_of(version: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&version.to_le_bytes());
    v[8..16].copy_from_slice(&version.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
    v
}

fn decode_version(row: &[u8]) -> u64 {
    u64::from_le_bytes(row[..8].try_into().unwrap())
}

const FINAL_READ_VERSION: u64 = 900_000;

/// Execute one plan under workload and return the oracle verdict.
/// Deterministic: the same `(cfg, plan)` always yields the same report.
pub fn run_plan(cfg: &DstConfig, plan: &FaultPlan) -> DstReport {
    plan.validate(cfg.window)
        .unwrap_or_else(|e| panic!("seed {}: invalid plan: {e}", cfg.seed));
    let mut c = Cluster::build(cluster_config(cfg));
    if cfg.trace {
        c.sim.trace.enable(TRACE_CAPACITY);
    }
    if cfg.telemetry {
        c.sim.enable_telemetry(TelemetryConfig {
            ring: FLIGHT_RING,
            slos: cfg.slo.clone().unwrap_or_default(),
            ..TelemetryConfig::default()
        });
    }
    c.sim.run_for(SimDuration::from_millis(300));
    let mut oracles = Oracles::new();
    oracles.poll(&c);
    let mut burns_seen = 0usize;
    c.sim.install_fault_plan(plan);

    // conn encoding: key * 1_000_000 + version (chaos.rs idiom)
    let conn_of = |key: u64, version: u64| key * 1_000_000 + version;
    let keys = cfg.keys as usize;
    let mut next_version = vec![1u64; keys];
    let mut last_acked = vec![0u64; keys];
    // Some(tick it was submitted at); resubmitting the same conn after a
    // writer crash is safe — conn ids are idempotent at the engine.
    let mut in_flight: Vec<Option<u64>> = vec![None; keys];
    let mut replica_conn = 500_000_000u64;

    let tick = SimDuration::from_millis(20);
    let ticks = cfg.window.nanos() / tick.nanos();
    let mut resp_cursor = 0usize;
    for t in 0..ticks {
        for k in 0..cfg.keys {
            let ki = k as usize;
            let resubmit = match in_flight[ki] {
                None => true,
                // a request lost to a writer crash would stall the key
                // forever; re-issue after ~300ms of silence
                Some(at) => t - at >= 15,
            };
            if resubmit {
                let v = next_version[ki];
                c.submit(conn_of(k, v), TxnSpec::single(Op::Upsert(k, value_of(v))));
                in_flight[ki] = Some(t);
            }
        }
        // read-your-snapshot traffic through a replica keeps the
        // snapshot-safety tap exercised
        if cfg.replicas > 0 && t % 5 == 0 {
            let r = (t / 5) as usize % cfg.replicas;
            if c.sim.is_up(c.replicas[r]) {
                replica_conn += 1;
                let key = t % cfg.keys;
                c.submit_to_replica(r, replica_conn, TxnSpec::single(Op::Get(key)));
            }
        }
        c.sim.run_for(tick);
        oracles.poll(&c);
        // SLO burns are caught *here*, mid-run, while the fault is live —
        // this is the anomaly class the post-heal checks can never see.
        drain_slo_burns(&c, &mut burns_seen, &mut oracles.violations);
        let (fresh, next_cursor) = c.responses_since(resp_cursor);
        resp_cursor = next_cursor;
        for resp in fresh {
            if resp.conn >= 500_000_000 {
                continue; // replica reads are fire-and-forget
            }
            let key = (resp.conn / 1_000_000) as usize;
            let version = resp.conn % 1_000_000;
            if version != next_version[key] {
                continue; // chaos can duplicate a response
            }
            in_flight[key] = None;
            match resp.result {
                TxnResult::Committed(_) => {
                    last_acked[key] = version;
                    next_version[key] = version + 1;
                }
                TxnResult::Aborted(_) => {
                    next_version[key] = version + 1;
                }
            }
        }
    }

    // flush any same-instant stragglers, then heal and converge
    c.sim.run_for(SimDuration::from_millis(1));
    // Window-scoped progress snapshot for the bounded-degradation oracle:
    // taken before heal so convergence traffic can't pad the numbers.
    let window_commits = c.sim.metrics.counter_total("engine.commits");
    let commit_p99_ns = c.sim.metrics.histogram_total("engine.commit_ns").p99();
    heal_world(&mut c, plan);
    let convergence = await_convergence(&mut c, cfg.converge_budget, &mut oracles);
    oracles.violations.extend(convergence);
    drain_slo_burns(&c, &mut burns_seen, &mut oracles.violations);

    // late acks that arrived during convergence still count
    for resp in c.responses() {
        if resp.conn >= 500_000_000 {
            continue;
        }
        let key = (resp.conn / 1_000_000) as usize;
        let version = resp.conn % 1_000_000;
        if version >= FINAL_READ_VERSION {
            continue;
        }
        if let TxnResult::Committed(_) = resp.result {
            if version > last_acked[key] {
                last_acked[key] = version;
            }
        }
    }

    // durability read-back
    let writer_ready = c.sim.is_up(c.engine)
        && c.sim.actor::<EngineActor>(c.engine).status() == EngineStatus::Ready;
    if writer_ready {
        for k in 0..cfg.keys {
            c.submit(conn_of(k, FINAL_READ_VERSION), TxnSpec::single(Op::Get(k)));
        }
        c.sim.run_for(SimDuration::from_secs(3));
        let rs = c.responses();
        for k in 0..cfg.keys {
            let acked = last_acked[k as usize];
            let resp = rs.iter().find(|r| r.conn == conn_of(k, FINAL_READ_VERSION));
            let got = match resp.map(|r| &r.result) {
                Some(TxnResult::Committed(results)) => match &results[0] {
                    OpResult::Row(Some(row)) => decode_version(row),
                    OpResult::Row(None) => 0,
                    _ => 0,
                },
                _ => {
                    oracles.violations.push(OracleViolation::Wedged {
                        detail: format!("final read of key {k} got no committed response"),
                    });
                    continue;
                }
            };
            if got < acked {
                oracles
                    .violations
                    .push(OracleViolation::DurabilityLoss { key: k, acked, got });
            }
        }
    }

    let stale = c.sim.metrics.counter_total("oracle.read_past_read_point");
    if stale > 0 {
        oracles
            .violations
            .push(OracleViolation::StaleRead { count: stale });
    }

    // Bounded degradation (§4.1 "masked, not merely survived"): compare
    // against a clean same-seed twin — identical topology and workload,
    // empty fault plan — so the budget is relative to what this exact
    // world does when nothing goes wrong.
    if let Some(budget) = &cfg.degradation {
        if !plan.entries().is_empty() {
            let mut clean_cfg = cfg.clone();
            clean_cfg.degradation = None; // no recursion
            clean_cfg.trace = false;
            let clean = run_plan(&clean_cfg, &FaultPlan::new());
            let floor = (budget.min_commit_fraction * clean.window_commits as f64) as u64;
            if window_commits < floor {
                oracles.violations.push(OracleViolation::DegradedCommits {
                    got: window_commits,
                    clean: clean.window_commits,
                    floor,
                });
            }
            let limit_ms =
                (budget.p99_multiple * clean.commit_p99_ns as f64 / 1e6).max(budget.p99_floor_ms);
            let p99_ms = commit_p99_ns as f64 / 1e6;
            if p99_ms > limit_ms {
                oracles
                    .violations
                    .push(OracleViolation::DegradedLatency { p99_ms, limit_ms });
            }
        }
    }

    drain_slo_burns(&c, &mut burns_seen, &mut oracles.violations);
    let trace = cfg.trace.then(|| render_trace(&c));
    // Flight-recorder semantics: sample every run, dump on anomaly (or on
    // explicit request — replay/forensics). Rendering is deterministic
    // either way because the decision depends only on the verdict.
    let telemetry = (cfg.telemetry && (cfg.telemetry_dump || !oracles.violations().is_empty()))
        .then(|| render_telemetry(&c));
    DstReport {
        seed: cfg.seed,
        plan_len: plan.len(),
        commits: c.sim.metrics.counter_total("engine.commits"),
        window_commits,
        commit_p99_ns,
        clock_ns: c.sim.now().nanos(),
        events: c.sim.events_dispatched(),
        violations: oracles.into_violations(),
        trace,
        telemetry,
    }
}

/// Fold SLO burns recorded since the last drain into oracle violations.
fn drain_slo_burns(c: &Cluster, seen: &mut usize, out: &mut Vec<OracleViolation>) {
    let burns = c.sim.telemetry.burns();
    for b in &burns[*seen..] {
        out.push(OracleViolation::SloBurn {
            probe: b.probe,
            window: b.window,
            value: b.value,
            limit: b.limit,
            sustained: b.sustained,
        });
    }
    *seen = burns.len();
}

/// Expand `cfg.seed` into a plan and run it.
pub fn run_seed(cfg: &DstConfig) -> DstReport {
    let plan = plan_for_seed(cfg);
    run_plan(cfg, &plan)
}

/// Delta-debug a failing plan down to a minimal reproducer: the returned
/// plan still fails at least one oracle, and removing any single entry
/// makes the failure disappear.
pub fn shrink_failing(cfg: &DstConfig, plan: &FaultPlan) -> FaultPlan {
    schedule::shrink(plan, |candidate| {
        !run_plan(cfg, candidate).violations.is_empty()
    })
}

/// Render a plan for bug reports / artifacts.
pub fn format_plan(plan: &FaultPlan) -> String {
    let mut out = String::new();
    for (at, action) in plan.entries() {
        out.push_str(&format!("+{:>8}us  {:?}\n", at.nanos() / 1_000, action));
    }
    out
}

// ---------------------------------------------------------------------------
// Shard isolation (sharded deployments behind the proxy tier)
// ---------------------------------------------------------------------------

/// One shard-isolation run: a fault plan **scoped to one shard** (see
/// [`aurora_sim::schedule::ShardScope`]) executes against a sharded
/// deployment under session-fleet load through the proxy tier. The
/// isolation oracle holds every *other* shard to a degradation budget
/// against a clean same-seed twin: shards are independent volumes, so a
/// fault in shard i must not move commit p99 (or starve commits) on
/// shard j.
#[derive(Debug, Clone)]
pub struct ShardIsolationConfig {
    pub seed: u64,
    pub shards: usize,
    /// The shard the fault plan targets.
    pub target: usize,
    /// Generation intensity. Kills are always clamped to zero: this
    /// topology carries no spares, so every crash must restart.
    pub intensity: Intensity,
    /// Fault window, run under load.
    pub window: SimDuration,
    /// Logical sessions across the proxy tier (mean think time 1 s, so
    /// offered load ≈ `sessions` tps spread over the shards by key hash).
    pub sessions: u32,
    /// Bootstrap rows per shard == fleet keyspace.
    pub rows_per_shard: u64,
    /// What healthy shards are held to vs the clean twin. Tighter than
    /// the gray-failure default: an untouched shard should barely move.
    pub budget: DegradationBudget,
}

impl Default for ShardIsolationConfig {
    fn default() -> Self {
        ShardIsolationConfig {
            seed: 0,
            shards: 3,
            target: 0,
            intensity: Intensity::moderate(),
            window: SimDuration::from_secs(2),
            sessions: 600,
            rows_per_shard: 2_000,
            budget: DegradationBudget {
                p99_multiple: 3.0,
                p99_floor_ms: 20.0,
                min_commit_fraction: 0.5,
            },
        }
    }
}

/// Verdict of one shard-isolation run. Deterministic for a given config
/// (everything here derives from simulated state — `PartialEq` is the
/// replay digest).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardIsolationReport {
    pub seed: u64,
    pub target: usize,
    pub plan_len: usize,
    /// Per-shard window commits, faulted run.
    pub commits: Vec<u64>,
    /// Per-shard window commits, clean twin.
    pub clean_commits: Vec<u64>,
    /// Per-shard commit p99 (ns) over the window, faulted run (0 = no
    /// samples).
    pub p99_ns: Vec<u64>,
    pub clean_p99_ns: Vec<u64>,
    pub clock_ns: u64,
    pub violations: Vec<OracleViolation>,
}

impl ShardIsolationReport {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The shard-scoped [`ScheduleSpec`] a config expands to against a built
/// sharded world: the target shard's own storage nodes (AZ layout
/// mirrors `build_topology`: node i sits in zone i mod 3) and writer,
/// plus the proxy tier for `ProxyPartition` incidents.
pub fn shard_schedule_spec(
    c: &aurora_core::cluster::ShardedCluster,
    cfg: &ShardIsolationConfig,
) -> ScheduleSpec {
    let azs = 3usize;
    let shard = &c.shards[cfg.target];
    let mut intensity = cfg.intensity.clone();
    intensity.max_kills = 0; // no spares here: every crash must restart
    ScheduleSpec {
        window: cfg.window,
        storage: shard
            .storage
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, Zone((i % azs) as u8)))
            .collect(),
        writer: Some(shard.engine),
        zones: azs as u8,
        intensity,
        shard: Some(aurora_sim::schedule::ShardScope {
            shard: cfg.target,
            proxies: c.proxies.clone(),
        }),
    }
}

/// Build the sharded world, attach the fleets, warm it, optionally
/// install the scoped plan, run the window, and return per-shard
/// `(commits, commit p99 ns)` plus the plan length and final clock.
fn run_shard_world(
    cfg: &ShardIsolationConfig,
    with_plan: bool,
) -> (usize, Vec<u64>, Vec<u64>, u64) {
    use crate::fleet::{FleetConfig, SessionFleet};
    use crate::harness::calib;
    use aurora_core::cluster::{ShardedCluster, ShardedConfig};
    use aurora_core::engine::InstanceSpec;
    use aurora_core::proxy::ProxyConfig;

    let total_pages_hint = cfg.rows_per_shard / 12 + 256;
    let shard_cfg = ClusterConfig {
        seed: cfg.seed.wrapping_mul(2).wrapping_add(1),
        pgs: 2,
        pages_per_pg: (total_pages_hint / 2 + 1).max(1_000),
        storage_nodes: 6,
        replicas: 0,
        instance: InstanceSpec::r3("r3.xlarge", 4, 8_000),
        bootstrap_rows: cfg.rows_per_shard,
        ..Default::default()
    };
    let mut c = ShardedCluster::build_with(
        ShardedConfig {
            seed: cfg.seed.wrapping_mul(2).wrapping_add(1),
            shards: cfg.shards,
            proxies: cfg.shards,
            shard: shard_cfg,
            proxy: ProxyConfig {
                slots_per_shard: 32,
                queue_watermark: 1_024,
                queue_deadline: SimDuration::from_millis(200),
                ..ProxyConfig::default()
            },
            expected_sessions: cfg.sessions as usize,
        },
        |_, e| {
            e.cpu_per_op = calib::aurora_write();
            e.cpu_per_read = calib::aurora_read();
            e.cpu_per_commit = calib::commit();
        },
    );
    let mut guard = 0;
    while !c.all_ready() {
        c.sim.run_for(SimDuration::from_millis(100));
        guard += 1;
        assert!(guard < 10_000, "sharded bootstrap never finished");
    }
    c.sim.run_for(SimDuration::from_millis(200));

    let proxies = c.proxies.clone();
    let per = cfg.sessions / proxies.len() as u32;
    let rem = cfg.sessions % proxies.len() as u32;
    let mut base_conn = 0u64;
    for (i, &proxy) in proxies.iter().enumerate() {
        let count = per + u32::from((i as u32) < rem);
        if count == 0 {
            continue;
        }
        let mut fc = FleetConfig::new(proxy, count);
        fc.base_conn = base_conn;
        fc.keyspace = cfg.rows_per_shard;
        fc.seed = cfg.seed;
        c.sim.add_node(
            format!("fleet-{i}"),
            Zone((i % 3) as u8),
            Box::new(SessionFleet::new(fc)),
            aurora_sim::NodeOpts::default(),
        );
        base_conn += count as u64;
    }

    // Warm until every session has cycled at least once (1s mean think),
    // then measure only the fault window.
    c.sim.run_for(SimDuration::from_millis(1_500));
    c.sim.clear_stats();

    let plan_len = if with_plan {
        let spec = shard_schedule_spec(&c, cfg);
        let plan = schedule::generate(&spec, cfg.seed);
        plan.validate(cfg.window)
            .unwrap_or_else(|e| panic!("seed {}: invalid scoped plan: {e}", cfg.seed));
        c.sim.install_fault_plan(&plan);
        plan.len()
    } else {
        0
    };
    c.sim.run_for(cfg.window);

    let commits: Vec<u64> = c
        .shards
        .iter()
        .map(|s| c.sim.metrics.counter(s.engine, "engine.commits"))
        .collect();
    let p99: Vec<u64> = c
        .shards
        .iter()
        .map(|s| {
            c.sim
                .metrics
                .histogram(s.engine, "engine.commit_ns")
                .map(|h| h.p99())
                .unwrap_or(0)
        })
        .collect();
    (plan_len, commits, p99, c.sim.now().nanos())
}

/// Run the shard-isolation oracle for one seed: faulted run vs clean
/// same-seed twin, then hold every shard *other than the target* to the
/// budget. Deterministic: the same config always yields the same report.
pub fn run_shard_isolation(cfg: &ShardIsolationConfig) -> ShardIsolationReport {
    assert!(cfg.shards >= 2, "isolation needs a healthy shard to watch");
    assert!(cfg.target < cfg.shards);
    let (plan_len, commits, p99_ns, clock_ns) = run_shard_world(cfg, true);
    let (_, clean_commits, clean_p99_ns, _) = run_shard_world(cfg, false);

    let mut violations = Vec::new();
    for j in 0..cfg.shards {
        if j == cfg.target {
            continue; // the faulted shard may degrade; its siblings may not
        }
        let floor = (cfg.budget.min_commit_fraction * clean_commits[j] as f64) as u64;
        if commits[j] < floor {
            violations.push(OracleViolation::ShardThroughputLeak {
                shard: j,
                got: commits[j],
                clean: clean_commits[j],
                floor,
            });
        }
        let limit_ms =
            (cfg.budget.p99_multiple * clean_p99_ns[j] as f64 / 1e6).max(cfg.budget.p99_floor_ms);
        let p99_ms = p99_ns[j] as f64 / 1e6;
        if p99_ms > limit_ms {
            violations.push(OracleViolation::ShardLatencyLeak {
                shard: j,
                p99_ms,
                limit_ms,
            });
        }
    }

    ShardIsolationReport {
        seed: cfg.seed,
        target: cfg.target,
        plan_len,
        commits,
        clean_commits,
        p99_ns,
        clean_p99_ns,
        clock_ns,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_sim::BrownoutSpec;

    /// Brown out 4 of the 6 storage nodes: every 4/6 write quorum must
    /// include at least two slow disks, so commit latency balloons while
    /// the fault is live — then everything heals before the window ends.
    fn majority_brownout() -> FaultPlan {
        let mut plan = FaultPlan::new();
        for node in 1..=4 as NodeId {
            plan = plan.brownout_for(
                SimDuration::from_millis(200),
                SimDuration::from_millis(1_300),
                node,
                BrownoutSpec {
                    ramp_secs: 0.05,
                    peak_factor: 60.0,
                },
            );
        }
        plan
    }

    #[test]
    fn slo_burn_oracle_catches_brownout_that_convergence_misses() {
        let base = DstConfig {
            seed: 901,
            ..Default::default()
        };
        let plan = majority_brownout();
        plan.validate(base.window).unwrap();

        // End-state oracles alone: the brownout heals mid-window, nothing
        // is lost, every PG converges — the run *passes*.
        let quiet = run_plan(&base, &plan);
        assert!(
            quiet.passed(),
            "convergence-only run must pass: {:?}",
            quiet.violations
        );
        assert!(quiet.commits > 0);

        // Same world, telemetry + a commit-p99 SLO probe: the brownout is
        // caught in flight as a sustained burn.
        let mut cfg = base.clone();
        cfg.telemetry = true;
        // Ceiling between the healthy p99 (~1.6ms in this world) and the
        // browned-out p99 (~6-9ms): only the fault windows breach.
        cfg.slo = Some(vec![SloSpec::commit_p99_ceiling(5_000_000, 3)]);
        let seen = run_plan(&cfg, &plan);
        assert!(
            seen.violations
                .iter()
                .any(|v| matches!(v, OracleViolation::SloBurn { .. })),
            "slo probe must burn under a majority brownout: {:?}",
            seen.violations
        );

        // The flight recorder captured the episode.
        let dump = seen.telemetry.as_ref().expect("telemetry dump");
        assert!(dump.ndjson.contains("slo_burn"));
        assert!(dump.timeline.contains("burn"));
        assert!(dump.csv.lines().count() > 1);

        // Observation-only: sampling + probes never perturb the world.
        assert_eq!(quiet.commits, seen.commits);
        assert_eq!(quiet.clock_ns, seen.clock_ns);
    }

    #[test]
    fn telemetry_dumps_replay_bit_identically_across_jobs() {
        let mk = |seed| DstConfig {
            seed,
            window: SimDuration::from_secs(1),
            trace: true,
            telemetry: true,
            telemetry_dump: true,
            ..Default::default()
        };
        let seeds = [5u64, 9];
        let sequential: Vec<DstReport> = seeds.iter().map(|&s| run_seed(&mk(s))).collect();
        let parallel = crate::sweep::parallel_map(&seeds, 4, |&s| run_seed(&mk(s)), |_, _| {});
        // Full-report equality covers the rendered ndjson/csv/timeline
        // byte for byte, and the spliced chrome counter tracks.
        assert_eq!(sequential, parallel);
        for r in &sequential {
            let dump = r.telemetry.as_ref().expect("telemetry dump");
            assert!(dump.ndjson.contains("\"scope\":\"fleet\""));
            let chrome = &r.trace.as_ref().expect("trace dump").chrome;
            assert!(
                chrome.contains("\"ph\":\"C\""),
                "chrome trace must carry telemetry counter tracks"
            );
        }

        // A clean run without the dump flag samples but skips rendering —
        // the flight recorder writes artifacts only on anomaly or request.
        let mut norender = mk(5);
        norender.telemetry_dump = false;
        norender.trace = false;
        let r = run_seed(&norender);
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert!(
            r.telemetry.is_none(),
            "clean sweep seeds must not render dumps"
        );
    }

    fn small() -> ShardIsolationConfig {
        ShardIsolationConfig {
            shards: 2,
            sessions: 200,
            rows_per_shard: 1_000,
            window: SimDuration::from_secs(1),
            ..Default::default()
        }
    }

    #[test]
    fn shard_isolation_holds_and_replays() {
        let cfg = small();
        let a = run_shard_isolation(&cfg);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert!(a.plan_len > 0, "seed 0 must generate a non-empty plan");
        // the healthy shard saw real traffic in both runs
        let j = 1 - cfg.target;
        assert!(a.commits[j] > 0 && a.clean_commits[j] > 0);
        let b = run_shard_isolation(&cfg);
        assert_eq!(a, b, "same config must replay bit-identically");
    }

    #[test]
    fn scoped_plan_stays_inside_the_target_shard() {
        // The generated spec must list only the target shard's nodes (plus
        // the proxies), so the legality proof from the schedule tests
        // carries over to the real node-id layout.
        use aurora_core::cluster::Cluster;
        let c = Cluster::build_sharded(3);
        assert_eq!(c.shards.len(), 3);
        let cfg = ShardIsolationConfig {
            target: 1,
            ..small()
        };
        let spec = shard_schedule_spec(&c, &cfg);
        let shard = &c.shards[1];
        for (n, _) in &spec.storage {
            assert!(shard.storage.contains(n));
        }
        assert_eq!(spec.writer, Some(shard.engine));
        let scope = spec.shard.as_ref().unwrap();
        assert_eq!(scope.shard, 1);
        assert_eq!(scope.proxies, c.proxies);
        // and plans generated from it validate
        for seed in 0..10 {
            schedule::generate(&spec, seed)
                .validate(spec.window)
                .unwrap();
        }
    }
}
