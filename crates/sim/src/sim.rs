//! The discrete-event simulation kernel.
//!
//! A [`Sim`] owns a set of nodes, each with an [`Actor`], a [`Zone`]
//! placement, and a simulated disk. Actors react to events — message
//! deliveries, timers, disk completions — and schedule new ones through
//! their [`Ctx`]. Virtual time advances from event to event.
//!
//! ## Failure model (paper §2.1)
//!
//! * [`Sim::crash`] takes a node down: messages in flight to it are lost,
//!   timers and disk completions belonging to the old incarnation are
//!   discarded.
//! * [`Sim::restart`] brings it back: the actor's [`Actor::on_crash`] hook
//!   runs first, which by convention clears *volatile* state and keeps
//!   *durable* state (the simulated disk contents), then the actor sees
//!   [`ActorEvent::Restarted`].
//! * [`Sim::zone_down`]/[`Sim::zone_up`] fail a whole Availability Zone —
//!   the paper's correlated failure.
//! * [`Sim::partition`] blocks a directed pair of nodes.

use std::any::Any;

use crate::hash::{FxHashMap, FxHashSet};
use crate::queue::{EventQueue, WheelItem};

use crate::dist::Dist;
use crate::fault::{BrownoutSpec, FaultAction, FaultPlan, PacketChaos};
use crate::metrics::MetricsRegistry;
use crate::msg::{Msg, Payload};
use crate::net::{NetPolicy, NetStats};
use crate::rng::SimRng;
use crate::telemetry::{TelemetryConfig, TelemetrySampler};
use crate::time::{SimDuration, SimTime};
use crate::trace::{SpanId, TraceBuffer};

/// Identifier of a simulated node.
pub type NodeId = u32;
/// Actor-chosen discriminator carried by timers and disk completions.
pub type Tag = u64;

/// Sender id used for messages injected from outside the simulation
/// (test harnesses, experiment drivers).
pub const EXTERNAL: NodeId = u32::MAX;

/// An Availability Zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Zone(pub u8);

/// Handle for cancelling a timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// What happened to an actor.
#[derive(Debug)]
pub enum ActorEvent {
    /// The simulation started (delivered once per node at t=0).
    Start,
    /// A message arrived.
    Message { from: NodeId, msg: Msg },
    /// A timer fired.
    Timer { tag: Tag },
    /// A disk read or write completed.
    DiskDone { tag: Tag, read: bool },
    /// The node came back up after a crash; volatile state was cleared by
    /// [`Actor::on_crash`], durable state persists.
    Restarted,
}

/// A simulated process. Implementors hold both durable state (survives
/// crashes) and volatile state (cleared in [`Actor::on_crash`]).
pub trait Actor: Any {
    /// Handle one event.
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent);

    /// Called at restart after a crash: clear volatile state here.
    fn on_crash(&mut self) {}
}

/// Disk performance model: a single service queue with an IOPS cap, a
/// per-operation latency distribution, and a transfer bandwidth.
#[derive(Debug, Clone)]
pub struct DiskSpec {
    pub read_latency: Dist,
    pub write_latency: Dist,
    /// Operations per second the device can service.
    pub iops: u64,
    /// Transfer bandwidth in bytes/second.
    pub bytes_per_sec: u64,
}

impl Default for DiskSpec {
    /// A local NVMe-class SSD: ~90µs media latency, 100K IOPS, 1 GB/s.
    fn default() -> Self {
        DiskSpec {
            read_latency: Dist::lognormal_micros(80, 0.3),
            write_latency: Dist::lognormal_micros(90, 0.3),
            iops: 100_000,
            bytes_per_sec: 1_000_000_000,
        }
    }
}

impl DiskSpec {
    /// An EBS-like networked volume with provisioned IOPS (the paper's
    /// baseline uses 30K provisioned IOPS, §6.1): sub-millisecond access
    /// with a heavier tail, capped IOPS.
    pub fn ebs_provisioned(iops: u64) -> DiskSpec {
        DiskSpec {
            read_latency: Dist::lognormal_micros(450, 0.4),
            write_latency: Dist::lognormal_micros(500, 0.4),
            iops,
            bytes_per_sec: 500_000_000,
        }
    }
}

/// Per-node configuration.
#[derive(Debug, Clone, Default)]
pub struct NodeOpts {
    pub disk: DiskSpec,
}

/// An active gray-fault latency ramp: at `started + ramp_secs` the disk's
/// sampled latencies are multiplied by the full `peak_factor`; before that
/// the multiplier climbs linearly from 1.
struct Brownout {
    started: SimTime,
    spec: BrownoutSpec,
}

struct Disk {
    spec: DiskSpec,
    /// The healthy spec, saved by the first `DegradeDisk` fault so
    /// `RestoreDisk` can undo any number of stacked degradations.
    saved_spec: Option<DiskSpec>,
    /// Gray fault: latency-multiplier ramp (see [`BrownoutSpec`]).
    brownout: Option<Brownout>,
    busy_until: SimTime,
    pub reads: u64,
    pub writes: u64,
}

struct Node {
    name: String,
    zone: Zone,
    up: bool,
    incarnation: u32,
    actor: Option<Box<dyn Actor>>,
    disk: Disk,
}

enum EventKind {
    Deliver {
        src: NodeId,
        msg: Msg,
    },
    Timer {
        tag: Tag,
        id: u64,
        incarnation: u32,
    },
    DiskDone {
        tag: Tag,
        read: bool,
        incarnation: u32,
    },
    Restarted {
        incarnation: u32,
    },
}

struct Event {
    at: SimTime,
    seq: u64,
    dst: NodeId,
    kind: EventKind,
}

/// A plan entry resolved to absolute simulated time.
struct ScheduledFault {
    at: SimTime,
    seq: u64,
    action: FaultAction,
}

// Events are totally ordered by (at, seq) on the timer wheel; seq is the
// kernel's global push counter, so ties never happen.
impl WheelItem for Event {
    #[inline]
    fn at_nanos(&self) -> u64 {
        self.at.nanos()
    }
    #[inline]
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// Topology hints passed by cluster builders so the kernel can pre-size
/// its hot-loop structures (timer wheel, FIFO matrix) instead of growing
/// them mid-run. Purely a capacity optimization: hints never change
/// behavior, only allocation patterns.
#[derive(Debug, Clone, Copy)]
pub struct SimHints {
    /// Expected number of nodes (pre-sizes the dense FIFO matrix).
    pub nodes: usize,
    /// Expected peak of simultaneously pending events (pre-sizes the
    /// wheel's merge batch and overflow/overlay heaps).
    pub expected_events: usize,
}

impl Default for SimHints {
    fn default() -> Self {
        SimHints {
            nodes: 0,
            expected_events: 1024,
        }
    }
}

/// The simulator.
pub struct Sim {
    time: SimTime,
    seq: u64,
    events: EventQueue<Event>,
    nodes: Vec<Node>,
    policy: NetPolicy,
    rng: SimRng,
    /// Named counters/histograms written by actors and read by harnesses.
    pub metrics: MetricsRegistry,
    /// Deterministic causal trace, recorded on simulated time. Off by
    /// default (`trace.enable(cap)` turns it on); see [`crate::trace`].
    pub trace: TraceBuffer,
    /// Windowed time-series sampler on simulated time. Off by default
    /// ([`Sim::enable_telemetry`] turns it on); flushed from the dispatch
    /// loop so it never perturbs event order — see [`crate::telemetry`].
    pub telemetry: TelemetrySampler,
    net: NetStats,
    cancelled_timers: FxHashSet<u64>,
    next_timer_id: u64,
    partitions: FxHashSet<(NodeId, NodeId)>,
    /// FIFO (TCP-like) delivery per ordered node pair: a message never
    /// overtakes an earlier one on the same (src, dst) stream. On by
    /// default; disable to model pure datagram reordering.
    pub fifo_links: bool,
    /// Dense last-delivery matrix, `src * fifo_stride + dst` — replaces a
    /// per-packet `HashMap<(src, dst), _>` probe on the hot send path.
    fifo_last: Vec<SimTime>,
    fifo_stride: usize,
    /// FIFO clamp for endpoints outside the dense matrix (e.g. messages
    /// whose src is [`EXTERNAL`]); cold path.
    fifo_overflow: FxHashMap<(NodeId, NodeId), SimTime>,
    /// Pending fault-plan entries, sorted by (at, seq) **descending** so
    /// the next due entry pops from the back in O(1).
    faults: Vec<ScheduledFault>,
    fault_seq: u64,
    /// Active packet-chaos overlay (see [`PacketChaos`]).
    net_chaos: Option<PacketChaos>,
    /// Per-link chaos overlays (gray fault: flaky NIC / bad ToR port),
    /// keyed by directed `(src, dst)`; [`FaultAction::FlakyLink`] installs
    /// both directions.
    link_chaos: FxHashMap<(NodeId, NodeId), PacketChaos>,
    /// Nodes that are alive but unresponsive ([`FaultAction::StallNode`]):
    /// their events are parked in `held` instead of dispatched.
    stalled: FxHashSet<NodeId>,
    /// Events addressed to stalled nodes, in arrival order; re-pushed at
    /// the release instant by [`Sim::unstall_node`].
    held: Vec<Event>,
    /// Events dispatched by this `Sim` (flushed into the process-wide
    /// total on drop; see [`events_dispatched_total`]).
    events_dispatched: u64,
}

/// Process-wide tally of events dispatched across every `Sim` that has
/// been dropped, plus explicit flushes. The benchmark JSON reports
/// events/sec from this; it is reporting-only and never read by the
/// simulation itself, so determinism is unaffected.
static EVENTS_DISPATCHED_TOTAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
/// Process-wide maximum of per-`Sim` event-queue high-water marks
/// (reporting-only, flushed on drop like [`EVENTS_DISPATCHED_TOTAL`]).
static EVENTS_QUEUE_HIGH_WATER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
/// Process-wide count of events routed past the timer-wheel horizon into
/// the overflow heap (reporting-only).
static EVENTS_OVERFLOW_TOTAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
/// Process-wide maximum of per-`Sim` reserved event-storage bytes
/// (batch + overlay + overflow + bucket slots; reporting-only).
static EVENTS_RESERVED_BYTES_PEAK: std::sync::atomic::AtomicU64 =
    std::sync::atomic::AtomicU64::new(0);

/// Total events dispatched by all completed simulations in this process.
pub fn events_dispatched_total() -> u64 {
    EVENTS_DISPATCHED_TOTAL.load(std::sync::atomic::Ordering::Relaxed)
}

/// Largest event-queue depth observed by any completed simulation in
/// this process.
pub fn events_queue_high_water_total() -> u64 {
    EVENTS_QUEUE_HIGH_WATER.load(std::sync::atomic::Ordering::Relaxed)
}

/// Total events that overflowed the timer-wheel horizon across all
/// completed simulations in this process.
pub fn events_overflow_total() -> u64 {
    EVENTS_OVERFLOW_TOTAL.load(std::sync::atomic::Ordering::Relaxed)
}

/// Largest reserved event-storage footprint (bytes) observed by any
/// completed simulation in this process.
pub fn events_reserved_bytes_peak() -> u64 {
    EVENTS_RESERVED_BYTES_PEAK.load(std::sync::atomic::Ordering::Relaxed)
}

impl Drop for Sim {
    fn drop(&mut self) {
        use std::sync::atomic::Ordering::Relaxed;
        EVENTS_DISPATCHED_TOTAL.fetch_add(self.events_dispatched, Relaxed);
        EVENTS_QUEUE_HIGH_WATER.fetch_max(self.events.high_water() as u64, Relaxed);
        EVENTS_OVERFLOW_TOTAL.fetch_add(self.events.overflow_pushes(), Relaxed);
        EVENTS_RESERVED_BYTES_PEAK.fetch_max(self.events.reserved_bytes() as u64, Relaxed);
    }
}

impl Sim {
    /// Create a simulator with the given RNG seed and default network policy.
    pub fn new(seed: u64) -> Sim {
        Sim::with_hints(seed, SimHints::default())
    }

    /// Create a simulator with capacity hints from the topology builder.
    /// Hints only pre-size internal structures (event wheel, FIFO matrix);
    /// they never affect the event order or the RNG stream, so a hinted
    /// and an unhinted run of the same seed are bit-identical.
    pub fn with_hints(seed: u64, hints: SimHints) -> Sim {
        let mut sim = Sim {
            time: SimTime::ZERO,
            seq: 0,
            events: EventQueue::with_hint(hints.expected_events),
            nodes: Vec::new(),
            policy: NetPolicy::default(),
            rng: SimRng::new(seed),
            metrics: MetricsRegistry::new(),
            trace: TraceBuffer::new(),
            telemetry: TelemetrySampler::default(),
            net: NetStats::new(),
            cancelled_timers: FxHashSet::default(),
            next_timer_id: 0,
            partitions: FxHashSet::default(),
            fifo_links: true,
            fifo_last: Vec::new(),
            fifo_stride: 0,
            fifo_overflow: FxHashMap::default(),
            faults: Vec::new(),
            fault_seq: 0,
            net_chaos: None,
            link_chaos: FxHashMap::default(),
            stalled: FxHashSet::default(),
            held: Vec::new(),
            events_dispatched: 0,
        };
        if hints.nodes > 0 {
            sim.grow_fifo(hints.nodes);
            sim.nodes.reserve(hints.nodes);
        }
        sim
    }

    /// Events dispatched by this simulation so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Maximum number of simultaneously pending events seen so far.
    pub fn events_queue_high_water(&self) -> usize {
        self.events.high_water()
    }

    /// Events routed past the timer-wheel horizon into the overflow heap.
    pub fn events_overflowed(&self) -> u64 {
        self.events.overflow_pushes()
    }

    /// Approximate bytes of event storage currently reserved by the
    /// kernel's recycled slot pool.
    pub fn events_reserved_bytes(&self) -> usize {
        self.events.reserved_bytes()
    }

    /// Grow the dense FIFO matrix to cover `n` nodes, remapping existing
    /// clamp times. Node additions are rare; sends are not.
    fn grow_fifo(&mut self, n: usize) {
        let new_stride = n.next_power_of_two();
        let mut grown = vec![SimTime::ZERO; new_stride * new_stride];
        for s in 0..self.fifo_stride {
            for d in 0..self.fifo_stride {
                grown[s * new_stride + d] = self.fifo_last[s * self.fifo_stride + d];
            }
        }
        self.fifo_last = grown;
        self.fifo_stride = new_stride;
    }

    /// Add a node; its actor receives [`ActorEvent::Start`] at the current time.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        zone: Zone,
        actor: Box<dyn Actor>,
        opts: NodeOpts,
    ) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node {
            name: name.into(),
            zone,
            up: true,
            incarnation: 0,
            actor: Some(actor),
            disk: Disk {
                spec: opts.disk,
                saved_spec: None,
                brownout: None,
                busy_until: SimTime::ZERO,
                reads: 0,
                writes: 0,
            },
        });
        // Deliver Start through the queue so ordering is well-defined.
        let inc = 0;
        self.push(Event {
            at: self.time,
            seq: 0, // replaced by push
            dst: id,
            kind: EventKind::Restarted { incarnation: inc },
        });
        id
    }

    fn push(&mut self, mut ev: Event) {
        ev.seq = self.seq;
        self.seq += 1;
        self.events.push(ev);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node's zone.
    pub fn zone_of(&self, node: NodeId) -> Zone {
        self.nodes[node as usize].zone
    }

    /// The node's configured name.
    pub fn name_of(&self, node: NodeId) -> &str {
        &self.nodes[node as usize].name
    }

    /// Is the node currently up?
    pub fn is_up(&self, node: NodeId) -> bool {
        self.nodes[node as usize].up
    }

    /// Network statistics (per-class packet/byte counters).
    pub fn net(&self) -> &NetStats {
        &self.net
    }

    /// Clear metrics, network statistics, and recorded trace events —
    /// used at warm-up boundaries. Interned metric ids and trace kinds
    /// stay valid.
    pub fn clear_stats(&mut self) {
        self.metrics.clear();
        self.net.clear();
        self.trace.clear_events();
        // Telemetry windows number from the measurement boundary, and the
        // sampler's delta mirrors must reset with the counters they shadow.
        self.telemetry.rebase(self.time.nanos());
    }

    /// Mutable access to the network policy (for ablations that slow down
    /// a path mid-run).
    pub fn policy_mut(&mut self) -> &mut NetPolicy {
        &mut self.policy
    }

    /// Borrow an actor's concrete type for inspection. Panics if the node
    /// doesn't host a `T` or the actor is currently being dispatched.
    pub fn actor<T: Actor>(&self, node: NodeId) -> &T {
        let a = self.nodes[node as usize]
            .actor
            .as_ref()
            .expect("actor is being dispatched");
        (a.as_ref() as &dyn Any)
            .downcast_ref::<T>()
            .expect("actor type mismatch")
    }

    /// Mutable variant of [`Sim::actor`].
    pub fn actor_mut<T: Actor>(&mut self, node: NodeId) -> &mut T {
        let a = self.nodes[node as usize]
            .actor
            .as_mut()
            .expect("actor is being dispatched");
        (a.as_mut() as &mut dyn Any)
            .downcast_mut::<T>()
            .expect("actor type mismatch")
    }

    /// Inject a message from outside the simulation; delivered at the
    /// current time with no network latency (sender = [`EXTERNAL`]).
    pub fn tell(&mut self, dst: NodeId, payload: impl Payload) {
        let msg = Msg::new(payload);
        self.push(Event {
            at: self.time,
            seq: 0,
            dst,
            kind: EventKind::Deliver { src: EXTERNAL, msg },
        });
    }

    /// Crash a node: it stops receiving events until restarted.
    pub fn crash(&mut self, node: NodeId) {
        self.nodes[node as usize].up = false;
    }

    /// Restart a crashed node: volatile state is cleared via
    /// [`Actor::on_crash`], then the actor sees [`ActorEvent::Restarted`].
    pub fn restart(&mut self, node: NodeId) {
        let n = &mut self.nodes[node as usize];
        if n.up {
            return;
        }
        n.up = true;
        n.incarnation += 1;
        n.disk.busy_until = self.time;
        if let Some(a) = n.actor.as_mut() {
            a.on_crash();
        }
        let inc = n.incarnation;
        self.push(Event {
            at: self.time,
            seq: 0,
            dst: node,
            kind: EventKind::Restarted { incarnation: inc },
        });
    }

    /// Fail every node in an Availability Zone (correlated failure, §2.1).
    pub fn zone_down(&mut self, zone: Zone) {
        for id in 0..self.nodes.len() as NodeId {
            if self.nodes[id as usize].zone == zone {
                self.crash(id);
            }
        }
    }

    /// Restore every node in a zone.
    pub fn zone_up(&mut self, zone: Zone) {
        for id in 0..self.nodes.len() as NodeId {
            if self.nodes[id as usize].zone == zone && !self.nodes[id as usize].up {
                self.restart(id);
            }
        }
    }

    /// Block or unblock the directed network path `src -> dst`.
    pub fn partition(&mut self, src: NodeId, dst: NodeId, blocked: bool) {
        if blocked {
            self.partitions.insert((src, dst));
        } else {
            self.partitions.remove(&(src, dst));
        }
    }

    /// Block both directions between two nodes.
    pub fn partition_both(&mut self, a: NodeId, b: NodeId, blocked: bool) {
        self.partition(a, b, blocked);
        self.partition(b, a, blocked);
    }

    /// Cut every link between `zone` and the rest of the cluster (both
    /// directions); the zone's processes keep running. A pure network
    /// partition, as opposed to [`Sim::zone_down`].
    pub fn isolate_zone(&mut self, zone: Zone, isolated: bool) {
        for a in 0..self.nodes.len() as NodeId {
            for b in 0..self.nodes.len() as NodeId {
                let az = self.nodes[a as usize].zone;
                let bz = self.nodes[b as usize].zone;
                if (az == zone) != (bz == zone) {
                    self.partition(a, b, isolated);
                }
            }
        }
    }

    /// Degrade a node's disk to `spec`; the healthy spec is saved once so
    /// [`Sim::restore_disk`] undoes any number of stacked degradations.
    pub fn degrade_disk(&mut self, node: NodeId, spec: DiskSpec) {
        let d = &mut self.nodes[node as usize].disk;
        if d.saved_spec.is_none() {
            d.saved_spec = Some(d.spec.clone());
        }
        d.spec = spec;
    }

    /// Restore the disk spec saved by the first [`Sim::degrade_disk`].
    pub fn restore_disk(&mut self, node: NodeId) {
        let d = &mut self.nodes[node as usize].disk;
        if let Some(spec) = d.saved_spec.take() {
            d.spec = spec;
        }
    }

    /// Install (or clear) a packet-chaos overlay by hand; fault plans use
    /// [`FaultAction::StartPacketChaos`] for the same effect.
    pub fn set_packet_chaos(&mut self, chaos: Option<PacketChaos>) {
        self.net_chaos = chaos;
    }

    /// Start a disk brownout on a node: sampled latencies are multiplied
    /// by a factor ramping linearly from 1 to `spec.peak_factor` over
    /// `spec.ramp_secs`. The node keeps serving — just ever slower.
    pub fn brownout_disk(&mut self, node: NodeId, spec: BrownoutSpec) {
        self.nodes[node as usize].disk.brownout = Some(Brownout {
            started: self.time,
            spec,
        });
    }

    /// Remove a brownout installed by [`Sim::brownout_disk`].
    pub fn heal_brownout(&mut self, node: NodeId) {
        self.nodes[node as usize].disk.brownout = None;
    }

    /// Install a per-link chaos overlay on `a <-> b` (both directions).
    /// Stacks with the global overlay: a packet crossing a flaky link
    /// under global chaos rolls both.
    pub fn set_link_chaos(&mut self, a: NodeId, b: NodeId, chaos: PacketChaos) {
        self.link_chaos.insert((a, b), chaos);
        self.link_chaos.insert((b, a), chaos);
    }

    /// Remove the per-link overlay on `a <-> b`.
    pub fn heal_link(&mut self, a: NodeId, b: NodeId) {
        self.link_chaos.remove(&(a, b));
        self.link_chaos.remove(&(b, a));
    }

    /// Stall a node: it stays up (volatile state intact, no restart later)
    /// but deliveries, timers, and disk completions addressed to it are
    /// held until [`Sim::unstall_node`]. Models a long GC pause or a hung
    /// IO stack; the node's own heartbeat timers stall with it, so binary
    /// failure detectors eventually fire even though it never died.
    pub fn stall_node(&mut self, node: NodeId) {
        self.stalled.insert(node);
    }

    /// Release a stalled node: held events re-enter the queue at the
    /// current instant, in their original arrival order. Staleness checks
    /// (incarnation, cancelled timers) run at release time, so events held
    /// across a crash of the stalled node die as usual.
    pub fn unstall_node(&mut self, node: NodeId) {
        if !self.stalled.remove(&node) {
            return;
        }
        let held = std::mem::take(&mut self.held);
        for mut ev in held {
            if ev.dst == node {
                ev.at = self.time;
                self.push(ev);
            } else {
                self.held.push(ev);
            }
        }
    }

    /// Is the node currently stalled?
    pub fn is_stalled(&self, node: NodeId) -> bool {
        self.stalled.contains(&node)
    }

    /// Install a [`FaultPlan`]: each entry's offset is resolved against
    /// the **current** simulated time and the action is executed by the
    /// event loop at exactly that instant — before ordinary events
    /// scheduled for the same time, in plan order among simultaneous
    /// faults. Plans can be installed at any point, and several plans can
    /// be active at once.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        let base = self.time;
        for (after, action) in plan.entries() {
            let seq = self.fault_seq;
            self.fault_seq += 1;
            self.faults.push(ScheduledFault {
                at: base + *after,
                seq,
                action: action.clone(),
            });
        }
        // Descending (at, seq): the next due entry sits at the back, so
        // the hot loop pops it in O(1) instead of `Vec::remove(0)`.
        self.faults
            .sort_by_key(|f| std::cmp::Reverse((f.at, f.seq)));
    }

    /// Fault-plan entries not yet executed.
    pub fn pending_faults(&self) -> usize {
        self.faults.len()
    }

    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::Crash(n) => self.crash(n),
            FaultAction::Restart(n) => self.restart(n),
            FaultAction::ZoneDown(z) => self.zone_down(z),
            FaultAction::ZoneUp(z) => self.zone_up(z),
            FaultAction::PartitionPair(a, b) => self.partition_both(a, b, true),
            FaultAction::HealPair(a, b) => self.partition_both(a, b, false),
            FaultAction::IsolateZone(z) => self.isolate_zone(z, true),
            FaultAction::HealZone(z) => self.isolate_zone(z, false),
            FaultAction::DegradeDisk(n, spec) => self.degrade_disk(n, spec),
            FaultAction::RestoreDisk(n) => self.restore_disk(n),
            FaultAction::StartPacketChaos(c) => self.net_chaos = Some(c),
            FaultAction::StopPacketChaos => self.net_chaos = None,
            FaultAction::BrownoutDisk(n, spec) => self.brownout_disk(n, spec),
            FaultAction::HealBrownout(n) => self.heal_brownout(n),
            FaultAction::FlakyLink(a, b, c) => self.set_link_chaos(a, b, c),
            FaultAction::HealLink(a, b) => self.heal_link(a, b),
            FaultAction::StallNode(n) => self.stall_node(n),
            FaultAction::UnstallNode(n) => self.unstall_node(n),
        }
    }

    /// Time of the next pending fault, if any.
    fn next_fault_at(&self) -> Option<SimTime> {
        self.faults.last().map(|f| f.at)
    }

    fn pop_fault(&mut self) -> ScheduledFault {
        self.faults.pop().expect("checked non-empty")
    }

    fn enqueue_send(&mut self, src: NodeId, dst: NodeId, msg: Msg) {
        if dst as usize >= self.nodes.len() {
            // addressed outside the simulation (e.g. EXTERNAL): count & drop
            self.net.on_send(src, msg.class(), msg.wire_size());
            self.net.on_drop();
            return;
        }
        let src_zone = self.nodes[src as usize].zone;
        let dst_zone = self.nodes[dst as usize].zone;
        self.net.on_send(src, msg.class(), msg.wire_size());
        let Some(mut latency) = self
            .policy
            .sample(src, dst, src_zone, dst_zone, &mut self.rng)
        else {
            self.net.on_drop();
            return;
        };
        // Packet-chaos overlays: the RNG is the seeded simulation RNG, so
        // a given seed mangles exactly the same packets on every run. The
        // global overlay rolls first, then the per-link one, each drawing
        // drop/delay/duplicate in that fixed order.
        let mut copy = None;
        if let Some(ch) = self.net_chaos {
            match self.chaos_roll(ch, latency, &msg) {
                None => return,
                Some((l, c)) => {
                    latency = l;
                    copy = c;
                }
            }
        }
        if !self.link_chaos.is_empty() {
            if let Some(ch) = self.link_chaos.get(&(src, dst)).copied() {
                match self.chaos_roll(ch, latency, &msg) {
                    None => return,
                    Some((l, c)) => {
                        latency = l;
                        // at most one duplicate per packet, whichever
                        // overlay rolled it first
                        if copy.is_none() {
                            copy = c;
                        }
                    }
                }
            }
        }
        self.deliver_after(src, dst, msg, latency);
        if let Some(dup) = copy {
            // the duplicate rides the same link; FIFO makes it trail the
            // original, datagram mode lets the seq order decide
            self.deliver_after(src, dst, dup, latency);
        }
    }

    /// Roll one chaos overlay for a packet: `None` means dropped;
    /// otherwise the (possibly delayed) latency and a duplicate if rolled.
    /// Draw order (drop, delay, duplicate) is fixed — it is part of the
    /// seed-replay contract.
    fn chaos_roll(
        &mut self,
        ch: PacketChaos,
        mut latency: SimDuration,
        msg: &Msg,
    ) -> Option<(SimDuration, Option<Msg>)> {
        if self.rng.chance(ch.drop) {
            self.net.on_drop();
            self.net.chaos_dropped += 1;
            return None;
        }
        if self.rng.chance(ch.delay) {
            latency = latency + ch.delay_by;
            self.net.chaos_delayed += 1;
        }
        let mut copy = None;
        if self.rng.chance(ch.duplicate) {
            copy = msg.try_clone();
            if copy.is_some() {
                self.net.chaos_duplicated += 1;
            }
        }
        Some((latency, copy))
    }

    fn deliver_after(&mut self, src: NodeId, dst: NodeId, msg: Msg, latency: SimDuration) {
        let mut at = self.time + latency;
        if self.fifo_links {
            let (s, d) = (src as usize, dst as usize);
            let n = self.nodes.len();
            let last = if s < n && d < n {
                if self.fifo_stride < n {
                    self.grow_fifo(n);
                }
                &mut self.fifo_last[s * self.fifo_stride + d]
            } else {
                self.fifo_overflow
                    .entry((src, dst))
                    .or_insert(SimTime::ZERO)
            };
            if at < *last {
                at = *last;
            }
            *last = at;
        }
        self.push(Event {
            at,
            seq: 0,
            dst,
            kind: EventKind::Deliver { src, msg },
        });
    }

    fn schedule_disk(&mut self, node: NodeId, bytes: usize, read: bool, tag: Tag) {
        let now = self.time;
        let n = &mut self.nodes[node as usize];
        let d = &mut n.disk;
        let start = if d.busy_until > now {
            d.busy_until
        } else {
            now
        };
        let service = SimDuration::from_nanos(1_000_000_000 / d.spec.iops.max(1));
        let transfer =
            SimDuration::from_nanos(bytes as u64 * 1_000_000_000 / d.spec.bytes_per_sec.max(1));
        d.busy_until = start + service + transfer;
        let mut latency = if read {
            d.spec.read_latency.sample(&mut self.rng)
        } else {
            d.spec.write_latency.sample(&mut self.rng)
        };
        if let Some(b) = &d.brownout {
            // Gray fault: multiply the sampled latency by a factor that
            // ramps linearly from 1 at onset to peak_factor at full ramp.
            let frac = if b.spec.ramp_secs <= 0.0 {
                1.0
            } else {
                (now.since(b.started).secs_f64() / b.spec.ramp_secs).min(1.0)
            };
            latency = latency.mul_f64(1.0 + (b.spec.peak_factor - 1.0) * frac);
        }
        if read {
            d.reads += 1;
        } else {
            d.writes += 1;
        }
        let at = start + latency + transfer;
        let incarnation = n.incarnation;
        self.push(Event {
            at,
            seq: 0,
            dst: node,
            kind: EventKind::DiskDone {
                tag,
                read,
                incarnation,
            },
        });
    }

    /// Total disk (reads, writes) issued by a node.
    pub fn disk_ops(&self, node: NodeId) -> (u64, u64) {
        let d = &self.nodes[node as usize].disk;
        (d.reads, d.writes)
    }

    /// Dispatch the next event or scheduled fault (faults win ties).
    /// Returns `false` when both queues are empty.
    pub fn step(&mut self) -> bool {
        let (next_at, fault_due) = match (self.next_fault_at(), self.events.peek().map(|e| e.at)) {
            (Some(f), Some(e)) => (f.min(e), f <= e),
            (Some(f), None) => (f, true),
            (None, Some(e)) => (e, false),
            (None, None) => return false,
        };
        if self.telemetry.due(next_at.nanos(), false) {
            // Close every sample window strictly before the next event:
            // events at exactly a boundary T belong to the window ending
            // at T (run_until flushes it when the clock lands on T).
            self.flush_telemetry(next_at.nanos(), false);
        }
        if fault_due {
            let f = self.pop_fault();
            debug_assert!(f.at >= self.time, "time went backwards");
            self.time = f.at;
            self.apply_fault(f.action);
        } else {
            let ev = self.events.pop().expect("checked non-empty");
            debug_assert!(ev.at >= self.time, "time went backwards");
            self.time = ev.at;
            self.dispatch(ev);
        }
        self.events_dispatched += 1;
        true
    }

    /// Run until the given time (inclusive); the clock lands exactly on `t`.
    pub fn run_until(&mut self, t: SimTime) {
        loop {
            let next = match (self.next_fault_at(), self.events.peek().map(|e| e.at)) {
                (Some(f), Some(e)) => f.min(e),
                (Some(f), None) => f,
                (None, Some(e)) => e,
                (None, None) => break,
            };
            if next > t {
                break;
            }
            self.step();
        }
        if self.telemetry.due(t.nanos(), true) {
            // The clock lands exactly on `t`: close windows through it.
            self.flush_telemetry(t.nanos(), true);
        }
        self.time = t;
    }

    /// Close every due telemetry window up to `upto_ns` (exclusive, or
    /// inclusive when the clock is landing exactly on `upto_ns`). Sets
    /// the kernel self-observation gauges first so each window carries
    /// the event-queue state at its close.
    fn flush_telemetry(&mut self, upto_ns: u64, inclusive: bool) {
        use crate::metrics::GLOBAL;
        while let Some(end) = self.telemetry.next_boundary(upto_ns, inclusive) {
            self.metrics
                .set_gauge(GLOBAL, "kernel.events_pending", self.events.len() as u64);
            self.metrics.set_gauge(
                GLOBAL,
                "kernel.events_high_water",
                self.events.high_water() as u64,
            );
            self.metrics.set_gauge(
                GLOBAL,
                "kernel.events_overflowed",
                self.events.overflow_pushes(),
            );
            self.metrics.set_gauge(
                GLOBAL,
                "kernel.event_pool_reserved_bytes",
                self.events.reserved_bytes() as u64,
            );
            self.metrics
                .set_gauge(GLOBAL, "kernel.events_dispatched", self.events_dispatched);
            self.telemetry.close_window(end, &self.metrics);
        }
    }

    /// Turn on the windowed telemetry sampler (see [`crate::telemetry`]);
    /// the first window opens at the current simulated time. Sampling is
    /// observation-only: enabling it never changes event order, the RNG
    /// stream, or any metric the simulation reads back.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.telemetry.enable(cfg, self.time.nanos());
    }

    /// Run for a span of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.time + d;
        self.run_until(t);
    }

    /// Run until no events remain (careful: periodic timers never drain).
    /// Returns the number of events dispatched. A safety cap guards against
    /// livelock in tests.
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    fn dispatch(&mut self, ev: Event) {
        if !self.stalled.is_empty() && self.stalled.contains(&ev.dst) {
            // Alive but unresponsive: park the event. unstall_node
            // re-pushes it at the release instant; staleness checks
            // (incarnation, cancelled timers, partitions) run then.
            self.held.push(ev);
            return;
        }
        let dst = ev.dst as usize;
        let node_up = self.nodes[dst].up;
        let cur_inc = self.nodes[dst].incarnation;
        let actor_event = match ev.kind {
            EventKind::Deliver { src, msg } => {
                if !node_up {
                    self.net.on_drop();
                    return;
                }
                if src != EXTERNAL
                    && !self.partitions.is_empty()
                    && self.partitions.contains(&(src, ev.dst))
                {
                    self.net.on_drop();
                    return;
                }
                self.net.on_recv(ev.dst, msg.wire_size());
                ActorEvent::Message { from: src, msg }
            }
            EventKind::Timer {
                tag,
                id,
                incarnation,
            } => {
                if !self.cancelled_timers.is_empty() && self.cancelled_timers.remove(&id) {
                    return;
                }
                if !node_up || incarnation != cur_inc {
                    return;
                }
                ActorEvent::Timer { tag }
            }
            EventKind::DiskDone {
                tag,
                read,
                incarnation,
            } => {
                if !node_up || incarnation != cur_inc {
                    return;
                }
                ActorEvent::DiskDone { tag, read }
            }
            EventKind::Restarted { incarnation } => {
                if !node_up || incarnation != cur_inc {
                    return;
                }
                if incarnation == 0 {
                    ActorEvent::Start
                } else {
                    ActorEvent::Restarted
                }
            }
        };
        let mut actor = self.nodes[dst]
            .actor
            .take()
            .expect("re-entrant dispatch on one node");
        let mut ctx = Ctx {
            sim: self,
            node: ev.dst,
        };
        actor.on_event(&mut ctx, actor_event);
        self.nodes[dst].actor = Some(actor);
    }
}

/// The interface an actor uses to affect the world while handling an event.
pub struct Ctx<'a> {
    sim: &'a mut Sim,
    node: NodeId,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.time
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// This node's zone.
    pub fn zone(&self) -> Zone {
        self.sim.nodes[self.node as usize].zone
    }

    /// Send a payload over the simulated network.
    pub fn send(&mut self, dst: NodeId, payload: impl Payload) {
        self.sim.enqueue_send(self.node, dst, Msg::new(payload));
    }

    /// Send an already-boxed message.
    pub fn send_msg(&mut self, dst: NodeId, msg: Msg) {
        self.sim.enqueue_send(self.node, dst, msg);
    }

    /// Schedule a timer after `delay`; the actor will see
    /// [`ActorEvent::Timer`] with this `tag`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: Tag) -> TimerId {
        let id = self.sim.next_timer_id;
        self.sim.next_timer_id += 1;
        let incarnation = self.sim.nodes[self.node as usize].incarnation;
        let at = self.sim.time + delay;
        self.sim.push(Event {
            at,
            seq: 0,
            dst: self.node,
            kind: EventKind::Timer {
                tag,
                id,
                incarnation,
            },
        });
        TimerId(id)
    }

    /// Cancel a previously scheduled timer (no-op if it already fired).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.sim.cancelled_timers.insert(id.0);
    }

    /// Issue a durable write of `bytes` to this node's disk; completion is
    /// reported as [`ActorEvent::DiskDone`] with `read == false`.
    pub fn disk_write(&mut self, bytes: usize, tag: Tag) {
        self.sim.schedule_disk(self.node, bytes, false, tag);
    }

    /// Issue a disk read; completion is [`ActorEvent::DiskDone`] with
    /// `read == true`.
    pub fn disk_read(&mut self, bytes: usize, tag: Tag) {
        self.sim.schedule_disk(self.node, bytes, true, tag);
    }

    /// The simulation RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.sim.rng
    }

    /// Increment a per-node counter.
    pub fn inc(&mut self, name: &'static str, v: u64) {
        self.sim.metrics.inc(self.node, name, v);
    }

    /// Record into a per-node histogram.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.sim.metrics.record(self.node, name, value);
    }

    /// Resolve a metric name to a reusable handle. Hot actors resolve
    /// their counters once and use [`Ctx::inc_id`]/[`Ctx::record_id`]
    /// per event, skipping the name lookup entirely.
    pub fn metric_id(&mut self, name: &'static str) -> crate::metrics::MetricId {
        self.sim.metrics.metric_id(name)
    }

    /// Increment a per-node counter through a pre-resolved handle.
    #[inline]
    pub fn inc_id(&mut self, id: crate::metrics::MetricId, v: u64) {
        self.sim.metrics.inc_id(self.node, id, v);
    }

    /// Record into a per-node histogram through a pre-resolved handle.
    #[inline]
    pub fn record_id(&mut self, id: crate::metrics::MetricId, value: u64) {
        self.sim.metrics.record_id(self.node, id, value);
    }

    /// Set a per-node gauge to its current reading (telemetry windows
    /// sample the latest value at each close).
    #[inline]
    pub fn gauge(&mut self, name: &'static str, value: u64) {
        self.sim.metrics.set_gauge(self.node, name, value);
    }

    /// Set a gauge through a pre-resolved handle.
    #[inline]
    pub fn gauge_id(&mut self, id: crate::metrics::MetricId, value: u64) {
        self.sim.metrics.set_gauge_id(self.node, id, value);
    }

    /// Increment a counter attributed to another owner — used by tier
    /// actors (proxies) to roll work up to the shard they routed it to.
    #[inline]
    pub fn inc_for(&mut self, owner: NodeId, name: &'static str, v: u64) {
        self.sim.metrics.inc(owner, name, v);
    }

    /// Read one of this node's counters back.
    pub fn counter(&self, name: &'static str) -> u64 {
        self.sim.metrics.counter(self.node, name)
    }

    /// Is some other node currently up? (Used by control-plane actors that
    /// model RDS health monitoring; data-plane actors should rely on
    /// timeouts instead.)
    pub fn peer_up(&self, node: NodeId) -> bool {
        self.sim.nodes[node as usize].up
    }

    /// Is causal tracing currently recording? Emit sites that need to
    /// compute attributes may gate on this; the `trace_*` emitters below
    /// already cost only one branch when tracing is off.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.sim.trace.is_enabled()
    }

    /// Open a trace span at the current simulated time. Returns
    /// [`SpanId::NONE`] when tracing is off; threading that sentinel
    /// through pending-operation state and later ending it is a no-op.
    #[inline]
    pub fn trace_begin(&mut self, name: &'static str, parent: SpanId, a0: u64, a1: u64) -> SpanId {
        let at = self.sim.time.nanos();
        self.sim.trace.begin(at, self.node, name, parent, a0, a1)
    }

    /// Close a trace span at the current simulated time.
    #[inline]
    pub fn trace_end(&mut self, name: &'static str, span: SpanId, a0: u64, a1: u64) {
        let at = self.sim.time.nanos();
        self.sim.trace.end(at, self.node, name, span, a0, a1);
    }

    /// Record a standalone trace event (watermark advance, apply mark).
    #[inline]
    pub fn trace_instant(&mut self, name: &'static str, parent: SpanId, a0: u64, a1: u64) {
        let at = self.sim.time.nanos();
        self.sim.trace.instant(at, self.node, name, parent, a0, a1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryValue;

    #[derive(Debug)]
    struct Hello(u64);
    impl Payload for Hello {
        fn wire_size(&self) -> usize {
            16
        }
        fn class(&self) -> &'static str {
            "hello"
        }
    }

    /// Echoes every Hello back to its sender, incremented.
    struct Echo;
    impl Actor for Echo {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
            if let ActorEvent::Message { from, msg } = ev {
                if from == EXTERNAL {
                    return;
                }
                let h = msg.downcast::<Hello>().unwrap();
                ctx.send(from, Hello(h.0 + 1));
            }
        }
    }

    /// Sends Hello(0) to a peer at start; records replies.
    struct Pinger {
        peer: NodeId,
        replies: u64,
        timer_fired: bool,
        disk_done: u64,
        restarted: bool,
    }
    impl Pinger {
        fn new(peer: NodeId) -> Self {
            Pinger {
                peer,
                replies: 0,
                timer_fired: false,
                disk_done: 0,
                restarted: false,
            }
        }
    }
    impl Actor for Pinger {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
            match ev {
                ActorEvent::Start => {
                    ctx.send(self.peer, Hello(0));
                    ctx.set_timer(SimDuration::from_millis(5), 7);
                    ctx.disk_write(4096, 1);
                }
                ActorEvent::Message { .. } => {
                    self.replies += 1;
                    ctx.inc("replies", 1);
                }
                ActorEvent::Timer { tag } => {
                    assert_eq!(tag, 7);
                    self.timer_fired = true;
                }
                ActorEvent::DiskDone { .. } => self.disk_done += 1,
                ActorEvent::Restarted => self.restarted = true,
            }
        }
        fn on_crash(&mut self) {
            self.replies = 0;
        }
    }

    fn two_node_sim() -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(1);
        let echo = sim.add_node("echo", Zone(1), Box::new(Echo), NodeOpts::default());
        let pinger = sim.add_node(
            "pinger",
            Zone(0),
            Box::new(Pinger::new(echo)),
            NodeOpts::default(),
        );
        (sim, echo, pinger)
    }

    #[test]
    fn ping_pong_and_timer_and_disk() {
        let (mut sim, _echo, pinger) = two_node_sim();
        sim.run_for(SimDuration::from_millis(50));
        let p = sim.actor::<Pinger>(pinger);
        assert_eq!(p.replies, 1);
        assert!(p.timer_fired);
        assert_eq!(p.disk_done, 1);
        assert_eq!(sim.metrics.counter(pinger, "replies"), 1);
        // network accounting saw both the hello and the reply
        assert_eq!(sim.net().class_packets("hello"), 2);
        assert_eq!(sim.net().class_bytes("hello"), 32);
        let (_, wr) = sim.disk_ops(pinger);
        assert_eq!(wr, 1);
    }

    #[test]
    fn time_advances_to_run_until_target() {
        let (mut sim, _, _) = two_node_sim();
        sim.run_until(SimTime(123_000_000));
        assert_eq!(sim.now(), SimTime(123_000_000));
    }

    #[test]
    fn crash_drops_messages_and_restart_clears_volatile() {
        let (mut sim, echo, pinger) = two_node_sim();
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.actor::<Pinger>(pinger).replies, 1);
        // Crash the pinger; a message sent to it is dropped.
        sim.crash(pinger);
        sim.tell(echo, Hello(5)); // external sender: echo replies to EXTERNAL? no — from==EXTERNAL is ignored
        sim.run_for(SimDuration::from_millis(10));
        sim.restart(pinger);
        sim.run_for(SimDuration::from_millis(10));
        let p = sim.actor::<Pinger>(pinger);
        assert!(p.restarted);
        assert_eq!(p.replies, 0, "volatile state cleared by on_crash");
    }

    #[test]
    fn stale_timers_die_across_restart() {
        let (mut sim, _echo, pinger) = two_node_sim();
        // Crash before the 5ms timer fires; restart after. The timer from
        // incarnation 0 must not be delivered to incarnation 1.
        sim.run_for(SimDuration::from_millis(1));
        sim.crash(pinger);
        sim.run_for(SimDuration::from_millis(1));
        sim.restart(pinger);
        sim.run_for(SimDuration::from_millis(20));
        let p = sim.actor::<Pinger>(pinger);
        assert!(!p.timer_fired);
    }

    #[test]
    fn partition_blocks_delivery() {
        let (mut sim, echo, pinger) = two_node_sim();
        sim.partition(echo, pinger, true);
        sim.run_for(SimDuration::from_millis(20));
        assert_eq!(sim.actor::<Pinger>(pinger).replies, 0);
        // heal and re-ping
        sim.partition(echo, pinger, false);
        sim.tell(pinger, Hello(0));
        sim.run_for(SimDuration::from_millis(20));
        // external message delivered; no reply counted because sender external
        assert_eq!(sim.actor::<Pinger>(pinger).replies, 1);
    }

    #[test]
    fn zone_down_crashes_all_members() {
        let (mut sim, echo, pinger) = two_node_sim();
        sim.zone_down(Zone(1));
        assert!(!sim.is_up(echo));
        assert!(sim.is_up(pinger));
        sim.zone_up(Zone(1));
        assert!(sim.is_up(echo));
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct T {
            fired: bool,
        }
        impl Actor for T {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
                match ev {
                    ActorEvent::Start => {
                        let id = ctx.set_timer(SimDuration::from_millis(1), 1);
                        ctx.cancel_timer(id);
                    }
                    ActorEvent::Timer { .. } => self.fired = true,
                    _ => {}
                }
            }
        }
        let mut sim = Sim::new(3);
        let n = sim.add_node(
            "t",
            Zone(0),
            Box::new(T { fired: false }),
            NodeOpts::default(),
        );
        sim.run_for(SimDuration::from_millis(10));
        assert!(!sim.actor::<T>(n).fired);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let (mut sim, _, pinger) = two_node_sim();
            let _ = seed;
            sim.run_for(SimDuration::from_millis(50));
            (sim.net().packets, sim.net().bytes, sim.now(), {
                let p = sim.actor::<Pinger>(pinger);
                (p.replies, p.disk_done)
            })
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn disk_iops_cap_serializes_requests() {
        struct D {
            done: Vec<SimTime>,
        }
        impl Actor for D {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
                match ev {
                    ActorEvent::Start => {
                        for i in 0..10 {
                            ctx.disk_write(512, i);
                        }
                    }
                    ActorEvent::DiskDone { .. } => self.done.push(ctx.now()),
                    _ => {}
                }
            }
        }
        let mut sim = Sim::new(4);
        let opts = NodeOpts {
            disk: DiskSpec {
                read_latency: Dist::const_micros(10),
                write_latency: Dist::const_micros(10),
                iops: 1000, // 1ms service time each
                bytes_per_sec: 1_000_000_000,
            },
        };
        let n = sim.add_node("d", Zone(0), Box::new(D { done: vec![] }), opts);
        sim.run_for(SimDuration::from_secs(1));
        let d = sim.actor::<D>(n);
        assert_eq!(d.done.len(), 10);
        // 10 ops at 1000 IOPS => last completes around 9-10ms, not 10us.
        let last = *d.done.last().unwrap();
        assert!(last.millis() >= 9, "{last:?}");
    }

    #[test]
    fn fifo_links_preserve_send_order() {
        #[derive(Debug)]
        struct Seq(u64);
        impl Payload for Seq {
            fn wire_size(&self) -> usize {
                8
            }
        }
        struct Sender {
            peer: NodeId,
        }
        impl Actor for Sender {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
                if let ActorEvent::Start = ev {
                    for i in 0..200 {
                        ctx.send(self.peer, Seq(i));
                    }
                }
            }
        }
        struct Receiver {
            got: Vec<u64>,
        }
        impl Actor for Receiver {
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, ev: ActorEvent) {
                if let ActorEvent::Message { msg, .. } = ev {
                    self.got.push(msg.downcast::<Seq>().unwrap().0);
                }
            }
        }
        let mut sim = Sim::new(9);
        let rx = sim.add_node(
            "rx",
            Zone(1),
            Box::new(Receiver { got: vec![] }),
            NodeOpts::default(),
        );
        let _tx = sim.add_node(
            "tx",
            Zone(0),
            Box::new(Sender { peer: rx }),
            NodeOpts::default(),
        );
        sim.run_for(SimDuration::from_millis(100));
        let got = &sim.actor::<Receiver>(rx).got;
        assert_eq!(got.len(), 200);
        // despite per-message random latencies, FIFO links deliver in order
        for w in got.windows(2) {
            assert!(w[0] < w[1], "reordered: {} then {}", w[0], w[1]);
        }
    }

    #[test]
    fn datagram_mode_can_reorder() {
        #[derive(Debug)]
        struct Seq(u64);
        impl Payload for Seq {
            fn wire_size(&self) -> usize {
                8
            }
        }
        struct Sender {
            peer: NodeId,
        }
        impl Actor for Sender {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
                if let ActorEvent::Start = ev {
                    for i in 0..200 {
                        ctx.send(self.peer, Seq(i));
                    }
                }
            }
        }
        struct Receiver {
            got: Vec<u64>,
        }
        impl Actor for Receiver {
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, ev: ActorEvent) {
                if let ActorEvent::Message { msg, .. } = ev {
                    self.got.push(msg.downcast::<Seq>().unwrap().0);
                }
            }
        }
        let mut sim = Sim::new(9);
        sim.fifo_links = false;
        let rx = sim.add_node(
            "rx",
            Zone(1),
            Box::new(Receiver { got: vec![] }),
            NodeOpts::default(),
        );
        let _tx = sim.add_node(
            "tx",
            Zone(0),
            Box::new(Sender { peer: rx }),
            NodeOpts::default(),
        );
        sim.run_for(SimDuration::from_millis(100));
        let got = &sim.actor::<Receiver>(rx).got;
        assert_eq!(got.len(), 200);
        assert!(
            got.windows(2).any(|w| w[0] > w[1]),
            "lognormal latencies should reorder at least one pair"
        );
    }

    #[test]
    fn fault_plan_executes_at_exact_times() {
        use crate::fault::FaultPlan;
        let (mut sim, _echo, pinger) = two_node_sim();
        let plan = FaultPlan::new().crash_for(
            SimDuration::from_millis(10),
            SimDuration::from_millis(10),
            pinger,
        );
        sim.install_fault_plan(&plan);
        assert_eq!(sim.pending_faults(), 2);
        sim.run_for(SimDuration::from_millis(15));
        assert!(!sim.is_up(pinger), "crashed at +10ms");
        assert_eq!(sim.pending_faults(), 1);
        sim.run_for(SimDuration::from_millis(10));
        assert!(sim.is_up(pinger), "restarted at +20ms");
        assert_eq!(sim.pending_faults(), 0);
        assert!(sim.actor::<Pinger>(pinger).restarted);
    }

    #[test]
    fn fault_plan_offsets_resolve_against_install_time() {
        use crate::fault::{FaultAction, FaultPlan};
        let (mut sim, _echo, pinger) = two_node_sim();
        sim.run_for(SimDuration::from_millis(100));
        let plan = FaultPlan::new().at(SimDuration::from_millis(5), FaultAction::Crash(pinger));
        sim.install_fault_plan(&plan);
        sim.run_for(SimDuration::from_millis(4));
        assert!(sim.is_up(pinger));
        sim.run_for(SimDuration::from_millis(2));
        assert!(!sim.is_up(pinger));
    }

    #[test]
    fn degrade_disk_throttles_and_restore_heals() {
        struct D {
            done: u64,
        }
        impl Actor for D {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
                match ev {
                    ActorEvent::Start | ActorEvent::DiskDone { .. } => {
                        if let ActorEvent::DiskDone { .. } = ev {
                            self.done += 1;
                        }
                        ctx.disk_write(512, 0);
                    }
                    _ => {}
                }
            }
        }
        let fast = DiskSpec {
            read_latency: Dist::const_micros(10),
            write_latency: Dist::const_micros(10),
            iops: 100_000,
            bytes_per_sec: 1_000_000_000,
        };
        let slow = DiskSpec {
            read_latency: Dist::const_micros(10),
            write_latency: Dist::const_micros(10),
            iops: 100,
            bytes_per_sec: 1_000_000,
        };
        let mut sim = Sim::new(7);
        let n = sim.add_node(
            "d",
            Zone(0),
            Box::new(D { done: 0 }),
            NodeOpts { disk: fast },
        );
        sim.run_for(SimDuration::from_millis(100));
        let healthy = sim.actor::<D>(n).done;
        sim.degrade_disk(n, slow);
        sim.run_for(SimDuration::from_millis(100));
        let degraded = sim.actor::<D>(n).done - healthy;
        sim.restore_disk(n);
        sim.run_for(SimDuration::from_millis(100));
        let restored = sim.actor::<D>(n).done - healthy - degraded;
        assert!(
            degraded * 10 < healthy,
            "degraded disk should be far slower: healthy={healthy} degraded={degraded}"
        );
        assert!(
            restored * 2 > healthy,
            "restored disk should recover: healthy={healthy} restored={restored}"
        );
    }

    #[test]
    fn isolate_zone_cuts_links_but_keeps_nodes_up() {
        let (mut sim, echo, pinger) = two_node_sim();
        sim.isolate_zone(Zone(1), true);
        sim.run_for(SimDuration::from_millis(20));
        assert!(sim.is_up(echo), "isolation is a partition, not an outage");
        assert_eq!(sim.actor::<Pinger>(pinger).replies, 0);
        sim.isolate_zone(Zone(1), false);
        sim.tell(pinger, Hello(0));
        sim.run_for(SimDuration::from_millis(20));
        assert_eq!(sim.actor::<Pinger>(pinger).replies, 1);
    }

    #[test]
    fn packet_chaos_duplicates_cloneable_payloads() {
        use crate::fault::PacketChaos;
        #[derive(Debug, Clone)]
        struct Dup(#[allow(dead_code)] u64);
        impl Payload for Dup {
            fn wire_size(&self) -> usize {
                8
            }
            fn clone_boxed(&self) -> Option<Msg> {
                Some(Msg::new(self.clone()))
            }
        }
        struct Rx {
            got: u64,
        }
        impl Actor for Rx {
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, ev: ActorEvent) {
                if let ActorEvent::Message { msg, .. } = ev {
                    if msg.is::<Dup>() {
                        self.got += 1;
                    }
                }
            }
        }
        struct Tx {
            peer: NodeId,
        }
        impl Actor for Tx {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
                if let ActorEvent::Start = ev {
                    for i in 0..50 {
                        ctx.send(self.peer, Dup(i));
                    }
                }
            }
        }
        let mut sim = Sim::new(21);
        let rx = sim.add_node("rx", Zone(0), Box::new(Rx { got: 0 }), NodeOpts::default());
        sim.add_node(
            "tx",
            Zone(0),
            Box::new(Tx { peer: rx }),
            NodeOpts::default(),
        );
        sim.set_packet_chaos(Some(PacketChaos {
            duplicate: 1.0,
            ..Default::default()
        }));
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(sim.actor::<Rx>(rx).got, 100, "every packet delivered twice");
        assert_eq!(sim.net().chaos_duplicated, 50);
    }

    #[test]
    fn packet_chaos_drops_and_delays() {
        use crate::fault::PacketChaos;
        let (mut sim, _echo, pinger) = two_node_sim();
        sim.set_packet_chaos(Some(PacketChaos {
            drop: 1.0,
            ..Default::default()
        }));
        sim.run_for(SimDuration::from_millis(20));
        assert_eq!(sim.actor::<Pinger>(pinger).replies, 0);
        assert!(sim.net().chaos_dropped > 0);
        // a fresh sim under pure delay chaos: traffic arrives, later
        let (mut sim, _echo, pinger) = two_node_sim();
        sim.set_packet_chaos(Some(PacketChaos {
            delay: 1.0,
            delay_by: SimDuration::from_millis(5),
            ..Default::default()
        }));
        sim.run_for(SimDuration::from_millis(30));
        assert_eq!(sim.actor::<Pinger>(pinger).replies, 1);
        assert!(sim.net().chaos_delayed >= 2, "ping and reply both delayed");
    }

    #[test]
    fn fault_plan_replay_is_deterministic() {
        use crate::fault::{FaultPlan, PacketChaos};
        let run = || {
            let (mut sim, _echo, pinger) = two_node_sim();
            let plan = FaultPlan::new()
                .crash_for(
                    SimDuration::from_millis(3),
                    SimDuration::from_millis(4),
                    pinger,
                )
                .packet_chaos_for(
                    SimDuration::from_millis(1),
                    SimDuration::from_millis(30),
                    PacketChaos {
                        drop: 0.2,
                        delay: 0.3,
                        delay_by: SimDuration::from_millis(1),
                        ..Default::default()
                    },
                );
            sim.install_fault_plan(&plan);
            for i in 0..20 {
                sim.tell(pinger, Hello(i));
                sim.run_for(SimDuration::from_millis(2));
            }
            let p = sim.actor::<Pinger>(pinger);
            (
                p.replies,
                sim.net().packets,
                sim.net().bytes,
                sim.net().dropped,
                sim.net().chaos_dropped,
                sim.net().chaos_delayed,
                sim.now(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn brownout_ramps_disk_latency_and_heal_restores() {
        struct D {
            done: Vec<SimTime>,
        }
        impl Actor for D {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
                match ev {
                    ActorEvent::Start | ActorEvent::DiskDone { .. } => {
                        if let ActorEvent::DiskDone { .. } = ev {
                            self.done.push(ctx.now());
                        }
                        ctx.disk_write(512, 0);
                    }
                    _ => {}
                }
            }
        }
        let opts = NodeOpts {
            disk: DiskSpec {
                read_latency: Dist::const_micros(100),
                write_latency: Dist::const_micros(100),
                iops: 1_000_000,
                bytes_per_sec: 1_000_000_000,
            },
        };
        let mut sim = Sim::new(11);
        let n = sim.add_node("d", Zone(0), Box::new(D { done: vec![] }), opts);
        sim.run_for(SimDuration::from_millis(100));
        let healthy = sim.actor::<D>(n).done.len();
        // ramp to 10x over 50ms: ops/sec fall well below healthy rate
        sim.brownout_disk(
            n,
            BrownoutSpec {
                ramp_secs: 0.05,
                peak_factor: 10.0,
            },
        );
        sim.run_for(SimDuration::from_millis(100));
        let soured = sim.actor::<D>(n).done.len() - healthy;
        sim.heal_brownout(n);
        sim.run_for(SimDuration::from_millis(100));
        let healed = sim.actor::<D>(n).done.len() - healthy - soured;
        assert!(
            soured * 3 < healthy,
            "brownout should slow the disk: healthy={healthy} soured={soured}"
        );
        assert!(
            healed * 2 > healthy,
            "heal should restore the rate: healthy={healthy} healed={healed}"
        );
    }

    #[test]
    fn flaky_link_drops_only_on_that_link() {
        use crate::fault::PacketChaos;
        let mut sim = Sim::new(13);
        let echo_a = sim.add_node("echo-a", Zone(1), Box::new(Echo), NodeOpts::default());
        let echo_b = sim.add_node("echo-b", Zone(2), Box::new(Echo), NodeOpts::default());
        let pinger_a = sim.add_node(
            "pinger-a",
            Zone(0),
            Box::new(Pinger::new(echo_a)),
            NodeOpts::default(),
        );
        let pinger_b = sim.add_node(
            "pinger-b",
            Zone(0),
            Box::new(Pinger::new(echo_b)),
            NodeOpts::default(),
        );
        sim.set_link_chaos(
            pinger_a,
            echo_a,
            PacketChaos {
                drop: 1.0,
                ..Default::default()
            },
        );
        sim.run_for(SimDuration::from_millis(20));
        assert_eq!(
            sim.actor::<Pinger>(pinger_a).replies,
            0,
            "flaky link eats it"
        );
        assert_eq!(
            sim.actor::<Pinger>(pinger_b).replies,
            1,
            "other link is clean"
        );
        // heal and re-ping: the pair works again
        sim.heal_link(pinger_a, echo_a);
        sim.tell(echo_a, Hello(0));
        sim.run_for(SimDuration::from_millis(20));
        assert!(sim.net().chaos_dropped > 0);
    }

    #[test]
    fn stalled_node_holds_events_until_release() {
        let (mut sim, _echo, pinger) = two_node_sim();
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.actor::<Pinger>(pinger).replies, 1);
        sim.stall_node(pinger);
        assert!(sim.is_stalled(pinger));
        sim.tell(pinger, Hello(1));
        sim.tell(pinger, Hello(2));
        sim.run_for(SimDuration::from_millis(10));
        // still up, but nothing got through — and nothing was dropped
        assert!(sim.is_up(pinger));
        assert_eq!(sim.actor::<Pinger>(pinger).replies, 1);
        sim.unstall_node(pinger);
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(
            sim.actor::<Pinger>(pinger).replies,
            3,
            "held deliveries replayed at release"
        );
    }

    #[test]
    fn stall_across_crash_discards_stale_held_events() {
        let (mut sim, _echo, pinger) = two_node_sim();
        sim.run_for(SimDuration::from_millis(10));
        sim.stall_node(pinger);
        sim.tell(pinger, Hello(1));
        sim.run_for(SimDuration::from_millis(5));
        // crash + restart while stalled: held events carry incarnation 0
        // context only for timers/disk; deliveries to an up node still land
        sim.crash(pinger);
        sim.run_for(SimDuration::from_millis(5));
        sim.restart(pinger);
        sim.run_for(SimDuration::from_millis(5));
        sim.unstall_node(pinger);
        sim.run_for(SimDuration::from_millis(10));
        // the held Hello is re-delivered after restart (network messages
        // carry no incarnation), but replies was reset by on_crash first
        assert_eq!(sim.actor::<Pinger>(pinger).replies, 1);
    }

    #[test]
    fn run_until_idle_caps() {
        // An actor that reschedules itself forever.
        struct Loopy;
        impl Actor for Loopy {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
                match ev {
                    ActorEvent::Start | ActorEvent::Timer { .. } => {
                        ctx.set_timer(SimDuration::from_micros(1), 0);
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Sim::new(5);
        sim.add_node("l", Zone(0), Box::new(Loopy), NodeOpts::default());
        let n = sim.run_until_idle(100);
        assert_eq!(n, 100);
    }

    /// A periodic actor whose behavior consumes randomness and writes
    /// counters, histograms, and gauges — the full surface the telemetry
    /// sampler observes.
    struct Chatty {
        ticks: u64,
    }
    impl Actor for Chatty {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
            match ev {
                ActorEvent::Start | ActorEvent::Timer { .. } => {
                    self.ticks += 1;
                    let r = ctx.rng().range_u64(0, 1_000_000);
                    ctx.inc("work", 1);
                    ctx.record("lat_ns", r);
                    ctx.gauge("depth", self.ticks % 7);
                    ctx.set_timer(SimDuration::from_millis(3), 0);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn telemetry_is_observation_only_and_windows_close_on_time() {
        let run = |telemetry: bool| {
            let mut sim = Sim::new(42);
            sim.add_node(
                "c",
                Zone(0),
                Box::new(Chatty { ticks: 0 }),
                NodeOpts::default(),
            );
            if telemetry {
                sim.enable_telemetry(TelemetryConfig {
                    interval_ns: 100_000_000,
                    ring: 16,
                    slos: vec![],
                });
            }
            sim.run_for(SimDuration::from_secs(1));
            sim
        };
        let plain = run(false);
        let sampled = run(true);
        // Same seed, telemetry on vs off: identical event counts, metric
        // state, and RNG-derived histograms — sampling perturbed nothing.
        assert_eq!(plain.events_dispatched(), sampled.events_dispatched());
        assert_eq!(
            plain.metrics.counters_snapshot(),
            sampled.metrics.counters_snapshot()
        );
        assert_eq!(
            plain.metrics.histograms_snapshot(),
            sampled.metrics.histograms_snapshot()
        );
        // 1s at 100ms windows: exactly 10 windows, the last closed by
        // run_until landing on the boundary.
        assert_eq!(sampled.telemetry.total_windows(), 10);
        let w = sampled.telemetry.windows().back().unwrap();
        assert_eq!(w.end_ns, 1_000_000_000);
        // every window saw the periodic work and the kernel gauges
        for w in sampled.telemetry.windows() {
            assert!(w
                .points
                .iter()
                .any(|p| p.metric == "work" && matches!(p.value, TelemetryValue::Delta(_))));
            assert!(w.rollups.iter().any(|p| p.metric == "kernel.events_pending"
                && matches!(p.value, TelemetryValue::Gauge(_))));
            assert!(w
                .rollups
                .iter()
                .any(|p| p.metric == "kernel.events_high_water"));
        }
        // byte-identical dumps across two same-seed runs
        let again = run(true);
        let names = |o: u32| format!("n{o}");
        assert_eq!(
            sampled.telemetry.ndjson(names),
            again.telemetry.ndjson(names)
        );
        assert_eq!(sampled.telemetry.csv(names), again.telemetry.csv(names));
    }
}
