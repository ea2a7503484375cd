//! Cluster builder: one Aurora deployment inside a simulation.
//!
//! Assembles the full Figure 5 topology — a writer instance, up to 15 read
//! replicas, a storage fleet striped across three AZs with two replicas of
//! every protection group per AZ, spare storage nodes, and the control
//! plane — and returns handles for driving it. Integration tests, the
//! benchmark harness and the examples all build their worlds through this
//! module.
//!
//! For scale-out, [`ShardedCluster`] builds N independent volumes (each a
//! full topology as above, with its own writer, PG set, storage fleet and
//! replicas) inside **one** simulation, fronted by a proxy/router tier
//! ([`crate::proxy`]) that owns session state, consistent-hash key
//! routing, per-shard connection pooling and admission control. Shards
//! share nothing but the simulated network fabric, so per-shard
//! durability substrates stay independent and throughput scales with the
//! shard count.

use aurora_log::PgId;
use aurora_quorum::QuorumConfig;
use aurora_sim::{NodeId, NodeOpts, Probe, Sim, Zone};
use aurora_storage::{
    ControlConfig, ControlPlane, ObjectStore, PgMembership, StorageNode, StorageNodeConfig,
    VolumeLayout,
};

use crate::engine::{EngineActor, EngineConfig, InstanceSpec};
use crate::proxy::{ProxyActor, ProxyConfig};
use crate::replica::{ReplicaActor, ReplicaConfig};

/// What to build.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub seed: u64,
    /// Protection groups in the volume.
    pub pgs: u32,
    /// Pages per PG (the scale stand-in for 10 GB segments).
    pub pages_per_pg: u64,
    /// Storage nodes (>= 6; must be a multiple of 3 to balance AZs).
    pub storage_nodes: usize,
    /// Spare storage nodes for repair.
    pub spares: usize,
    /// Read replicas.
    pub replicas: usize,
    /// Add an idle standby writer (promote with [`Cluster::promote_standby`]).
    pub with_standby: bool,
    /// Writer instance size.
    pub instance: InstanceSpec,
    /// Rows preloaded at bootstrap.
    pub bootstrap_rows: u64,
    pub row_size: usize,
    /// Attach a control plane (heartbeats, repair)?
    pub with_control: bool,
    /// Control-plane tunables (timeouts, repair supervision). The builder
    /// fills in `watchers`, `zones`, and `spares` from the topology; only
    /// the scalar knobs of this template are honored.
    pub control_cfg: ControlConfig,
    /// Attach an object store (backups / PITR)?
    pub store: Option<ObjectStore>,
    /// Storage node tunables.
    pub storage_cfg: StorageNodeConfig,
    /// Disk model for storage nodes (None = simulator default SSD).
    pub storage_disk: Option<aurora_sim::DiskSpec>,
    /// Callback to tweak the engine config before the actor is built.
    pub quorum: QuorumConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            seed: 1,
            pgs: 2,
            pages_per_pg: 100_000,
            storage_nodes: 6,
            spares: 0,
            replicas: 0,
            with_standby: false,
            instance: InstanceSpec::r3_8xlarge(),
            bootstrap_rows: 0,
            row_size: 96,
            with_control: false,
            control_cfg: ControlConfig::default(),
            store: None,
            storage_cfg: StorageNodeConfig::default(),
            storage_disk: None,
            quorum: QuorumConfig::aurora(),
        }
    }
}

/// A built cluster.
pub struct Cluster {
    pub sim: Sim,
    /// A probe node for injecting client requests and collecting responses.
    pub client: NodeId,
    pub engine: NodeId,
    /// Idle failover target, if configured.
    pub standby: Option<NodeId>,
    pub replicas: Vec<NodeId>,
    pub storage: Vec<NodeId>,
    pub spares: Vec<NodeId>,
    pub control: Option<NodeId>,
    pub memberships: Vec<PgMembership>,
    pub layout: VolumeLayout,
}

impl Cluster {
    /// Build the topology. Engine bootstrap (tree creation + row load)
    /// happens at simulated t=0; run the sim briefly before driving load.
    pub fn build(cfg: ClusterConfig) -> Cluster {
        Self::build_with(cfg, |_| {})
    }

    /// Like [`Cluster::build`] but lets the caller tweak the engine config.
    pub fn build_with(cfg: ClusterConfig, tweak: impl FnOnce(&mut EngineConfig)) -> Cluster {
        // Node id layout (sequential allocation):
        //   0: client probe
        //   1 ..= storage_nodes: storage
        //   then spares, then replicas, then engine, [standby], then control
        let standby_slots = cfg.with_standby as usize;
        let total_nodes = 1 + cfg.storage_nodes + cfg.spares + cfg.replicas + 1 + standby_slots + 1;

        // Pre-size the kernel from the topology: each storage node keeps a
        // handful of in-flight deliveries plus flush/gossip timers; the
        // engine fans out to every segment. ~96 pending events per node is
        // comfortably above observed high-water marks.
        let mut sim = Sim::with_hints(
            cfg.seed,
            aurora_sim::SimHints {
                nodes: total_nodes,
                expected_events: 1024.max(total_nodes * 96),
            },
        );

        let client = sim.add_node(
            "client",
            Zone(0),
            Box::new(Probe::new()),
            NodeOpts::default(),
        );

        let shard = build_topology(&mut sim, &cfg, "", tweak);
        Cluster {
            sim,
            client,
            engine: shard.engine,
            standby: shard.standby,
            replicas: shard.replicas,
            storage: shard.storage,
            spares: shard.spares,
            control: shard.control,
            memberships: shard.memberships,
            layout: shard.layout,
        }
    }
}

/// One volume's worth of topology handles (everything a [`Cluster`] has
/// except the simulation and the client probe). The unit of sharding.
pub struct Shard {
    pub engine: NodeId,
    pub standby: Option<NodeId>,
    pub replicas: Vec<NodeId>,
    pub storage: Vec<NodeId>,
    pub spares: Vec<NodeId>,
    pub control: Option<NodeId>,
    pub memberships: Vec<PgMembership>,
    pub layout: VolumeLayout,
}

/// Build one full volume topology (storage fleet, spares, replicas,
/// writer, optional standby and control plane) into an existing
/// simulation. Node names get `prefix` (empty for the classic
/// single-volume cluster, `"s3-"` for shard 3 of a sharded build); node
/// ids are allocated sequentially from the simulation's current count, so
/// multiple shards stack without colliding.
fn build_topology(
    sim: &mut Sim,
    cfg: &ClusterConfig,
    prefix: &str,
    tweak: impl FnOnce(&mut EngineConfig),
) -> Shard {
    cfg.quorum
        .validate()
        .unwrap_or_else(|e| panic!("invalid quorum config: {e}"));
    assert!(cfg.storage_nodes >= cfg.quorum.copies as usize);
    assert_eq!(
        cfg.storage_nodes % cfg.quorum.azs as usize,
        0,
        "storage nodes must balance across AZs"
    );
    // Sequential layout within this shard: storage, spares, replicas,
    // engine, [standby], control — offset by whatever the sim holds.
    let standby_slots = cfg.with_standby as usize;
    let control_id: NodeId =
        (sim.node_count() + cfg.storage_nodes + cfg.spares + cfg.replicas + 1 + standby_slots)
            as NodeId;

    let mut storage_cfg = cfg.storage_cfg.clone();
    storage_cfg.store = cfg.store.clone();
    if cfg.store.is_none() {
        storage_cfg.backup_interval = aurora_sim::SimDuration::ZERO;
    }
    storage_cfg.control = cfg.with_control.then_some(control_id);

    let azs = cfg.quorum.azs;
    let mut storage = Vec::new();
    let mut zone_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); azs as usize];
    let storage_opts = || NodeOpts {
        disk: cfg.storage_disk.clone().unwrap_or_default(),
    };
    for i in 0..cfg.storage_nodes {
        let zone = Zone((i % azs as usize) as u8);
        let id = sim.add_node(
            format!("{prefix}store-{i}"),
            zone,
            Box::new(StorageNode::new(storage_cfg.clone())),
            storage_opts(),
        );
        zone_nodes[zone.0 as usize].push(id);
        storage.push(id);
    }
    let mut spares = Vec::new();
    for s in 0..cfg.spares {
        let zone = Zone((s % azs as usize) as u8);
        let id = sim.add_node(
            format!("{prefix}spare-{s}"),
            zone,
            Box::new(StorageNode::new(storage_cfg.clone())),
            storage_opts(),
        );
        spares.push(id);
    }

    // PG memberships: slot s lives in AZ s % azs (matching
    // QuorumConfig::az_of_replica); round-robin across that AZ's nodes
    // with an offset so the two same-AZ slots of a PG differ.
    let layout = VolumeLayout::new(cfg.pages_per_pg, cfg.pgs, cfg.quorum);
    let mut memberships = Vec::new();
    for pg in 0..cfg.pgs {
        let mut slots = Vec::with_capacity(cfg.quorum.copies as usize);
        for s in 0..cfg.quorum.copies {
            let z = (s % azs) as usize;
            let ring = &zone_nodes[z];
            let idx = (pg as usize + (s / azs) as usize * (ring.len() / 2).max(1)) % ring.len();
            slots.push(ring[idx]);
        }
        memberships.push(PgMembership::new(PgId(pg), slots));
    }

    // replicas (placed across AZs like real Aurora readers)
    let mut replica_ids = Vec::new();
    let replica_cfg_proto = ReplicaConfig {
        instance: cfg.instance.clone(),
        layout: layout.clone(),
        memberships: memberships.clone(),
        row_size: cfg.row_size,
    };
    for r in 0..cfg.replicas {
        let zone = Zone(((r + 1) % azs as usize) as u8);
        let id = sim.add_node(
            format!("{prefix}replica-{r}"),
            zone,
            Box::new(ReplicaActor::new(replica_cfg_proto.clone())),
            NodeOpts::default(),
        );
        replica_ids.push(id);
    }

    // the writer
    let mut engine_cfg = EngineConfig::new(layout.clone(), memberships.clone());
    engine_cfg.instance = cfg.instance.clone();
    engine_cfg.quorum = cfg.quorum;
    engine_cfg.replicas = replica_ids.clone();
    engine_cfg.control = cfg.with_control.then_some(control_id);
    engine_cfg.row_size = cfg.row_size;
    engine_cfg.bootstrap_rows = cfg.bootstrap_rows;
    tweak(&mut engine_cfg);
    let engine = sim.add_node(
        format!("{prefix}writer"),
        Zone(0),
        Box::new(EngineActor::new(engine_cfg.clone())),
        NodeOpts::default(),
    );

    // idle failover standby in another AZ (promoted on demand)
    let standby = if cfg.with_standby {
        let mut standby_cfg = engine_cfg.clone();
        standby_cfg.standby = true;
        standby_cfg.bootstrap_rows = 0;
        Some(sim.add_node(
            format!("{prefix}standby-writer"),
            Zone(1),
            Box::new(EngineActor::new(standby_cfg)),
            NodeOpts::default(),
        ))
    } else {
        None
    };

    // control plane
    let control = if cfg.with_control {
        let mut ctl_cfg = ControlConfig {
            watchers: vec![engine],
            ..cfg.control_cfg.clone()
        };
        ctl_cfg.watchers.extend(replica_ids.iter().copied());
        for (i, n) in storage.iter().enumerate() {
            ctl_cfg.zones.insert(*n, Zone((i % azs as usize) as u8));
        }
        for (s, n) in spares.iter().enumerate() {
            let z = Zone((s % azs as usize) as u8);
            ctl_cfg.zones.insert(*n, z);
            ctl_cfg.spares.push((*n, z));
        }
        let id = sim.add_node(
            format!("{prefix}control"),
            Zone(0),
            Box::new(ControlPlane::new(ctl_cfg, memberships.clone())),
            NodeOpts::default(),
        );
        assert_eq!(id, control_id, "node id layout drifted");
        Some(id)
    } else {
        // without control, hand out gossip peer lists directly
        for m in &memberships {
            for (replica, node) in m.slots.iter().enumerate() {
                sim.tell(
                    *node,
                    aurora_storage::wire::SegmentPeers {
                        segment: aurora_log::SegmentId::new(m.pg, replica as u8),
                        peers: m.peers_of(replica as u8),
                    },
                );
            }
        }
        None
    };

    Shard {
        engine,
        standby,
        replicas: replica_ids,
        storage,
        spares,
        control,
        memberships,
        layout,
    }
}

impl Cluster {
    /// Promote the standby to writer (failover). Returns the standby's
    /// node id, which is the new write endpoint once its recovery ends.
    pub fn promote_standby(&mut self) -> NodeId {
        let standby = self.standby.expect("built with with_standby");
        self.sim.tell(standby, crate::wire::Promote);
        standby
    }

    /// Send a transaction to an arbitrary database node.
    pub fn submit_to(&mut self, target: NodeId, conn: u64, spec: crate::wire::TxnSpec) {
        let req = crate::wire::ClientRequest {
            conn,
            txn: spec,
            issued_at: self.sim.now(),
        };
        self.sim
            .tell(self.client, aurora_sim::Relay::new(target, req));
    }

    /// Send a transaction to the writer from the client probe.
    pub fn submit(&mut self, conn: u64, spec: crate::wire::TxnSpec) {
        let req = crate::wire::ClientRequest {
            conn,
            txn: spec,
            issued_at: self.sim.now(),
        };
        let engine = self.engine;
        self.sim
            .tell(self.client, aurora_sim::Relay::new(engine, req));
    }

    /// Send a read-only transaction to a replica.
    pub fn submit_to_replica(&mut self, replica: usize, conn: u64, spec: crate::wire::TxnSpec) {
        let req = crate::wire::ClientRequest {
            conn,
            txn: spec,
            issued_at: self.sim.now(),
        };
        let dst = self.replicas[replica];
        self.sim.tell(self.client, aurora_sim::Relay::new(dst, req));
    }

    /// All client responses received so far, in order.
    pub fn responses(&self) -> Vec<crate::wire::ClientResponse> {
        self.sim
            .actor::<Probe>(self.client)
            .received::<crate::wire::ClientResponse>()
            .into_iter()
            .map(|(_, r)| r.clone())
            .collect()
    }

    /// Client responses received at or after probe-inbox position
    /// `cursor`, plus the new cursor. Polling loops should prefer this
    /// over [`Cluster::responses`]: the cumulative form re-clones the
    /// entire response history on every call.
    pub fn responses_since(&self, cursor: usize) -> (Vec<crate::wire::ClientResponse>, usize) {
        let (new, next) = self
            .sim
            .actor::<Probe>(self.client)
            .received_since::<crate::wire::ClientResponse>(cursor);
        (new.into_iter().map(|(_, r)| r.clone()).collect(), next)
    }

    /// The writer actor, for inspection.
    pub fn engine_actor(&self) -> &EngineActor {
        self.sim.actor::<EngineActor>(self.engine)
    }
}

/// What a sharded deployment builds.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    pub seed: u64,
    /// Independent volumes (each its own writer, PG set, storage fleet,
    /// replicas).
    pub shards: usize,
    /// Proxy/router nodes fronting the shards. Each proxy routes to every
    /// shard; sessions are spread across proxies by their driver.
    pub proxies: usize,
    /// Per-shard topology template (`seed` is ignored — the sharded
    /// cluster's own seed drives the one simulation).
    pub shard: ClusterConfig,
    /// Proxy tunables. `shards` is filled in by the builder.
    pub proxy: ProxyConfig,
    /// Expected logical sessions, for kernel pre-sizing only (capacity
    /// hint, never behavioral).
    pub expected_sessions: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            seed: 1,
            shards: 2,
            proxies: 1,
            shard: ClusterConfig::default(),
            proxy: ProxyConfig::default(),
            expected_sessions: 0,
        }
    }
}

/// N independent volumes behind a proxy/router tier, in one simulation.
///
/// Node id layout: client probe (0), then shard 0's full topology, shard
/// 1's, ..., then the proxies. Shard node names carry an `s{i}-` prefix
/// (`s0-store-3`, `s1-writer`, ...).
pub struct ShardedCluster {
    pub sim: Sim,
    /// Probe node for injecting requests and collecting responses.
    pub client: NodeId,
    pub shards: Vec<Shard>,
    pub proxies: Vec<NodeId>,
}

impl Cluster {
    /// Build `n` shards with default per-shard topology behind a single
    /// proxy, a convenience for tests and examples. Use
    /// [`ShardedCluster::build`] for full control.
    pub fn build_sharded(n: usize) -> ShardedCluster {
        ShardedCluster::build(ShardedConfig {
            shards: n,
            ..ShardedConfig::default()
        })
    }
}

impl ShardedCluster {
    pub fn build(cfg: ShardedConfig) -> ShardedCluster {
        Self::build_with(cfg, |_, _| {})
    }

    /// Like [`ShardedCluster::build`] but lets the caller tweak each
    /// shard's engine config (the shard index is passed along).
    pub fn build_with(
        cfg: ShardedConfig,
        mut tweak: impl FnMut(usize, &mut EngineConfig),
    ) -> ShardedCluster {
        assert!(cfg.shards > 0 && cfg.proxies > 0);
        let s = &cfg.shard;
        let per_shard = s.storage_nodes + s.spares + s.replicas + 1 + s.with_standby as usize + 1;
        let total_nodes = 1 + cfg.shards * per_shard + cfg.proxies;
        // Events scale with topology like the single cluster, plus a
        // small per-session budget (one think-timer tick bucket entry and
        // an in-flight request or two per thousand sessions at any
        // instant — sessions are mostly idle by construction).
        let mut sim = Sim::with_hints(
            cfg.seed,
            aurora_sim::SimHints {
                nodes: total_nodes,
                expected_events: 1024.max(total_nodes * 96 + cfg.expected_sessions / 8),
            },
        );
        let client = sim.add_node(
            "client",
            Zone(0),
            Box::new(Probe::new()),
            NodeOpts::default(),
        );

        let mut shards = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let mut shard_cfg = cfg.shard.clone();
            shard_cfg.seed = cfg.seed;
            let prefix = format!("s{i}-");
            shards.push(build_topology(&mut sim, &shard_cfg, &prefix, |e| {
                tweak(i, e)
            }));
        }

        let mut proxy_cfg = cfg.proxy.clone();
        proxy_cfg.shards = shards.iter().map(|s| s.engine).collect();
        let mut proxies = Vec::with_capacity(cfg.proxies);
        for p in 0..cfg.proxies {
            proxies.push(sim.add_node(
                format!("proxy-{p}"),
                Zone((p % s.quorum.azs as usize) as u8),
                Box::new(ProxyActor::new(proxy_cfg.clone())),
                NodeOpts::default(),
            ));
        }

        ShardedCluster {
            sim,
            client,
            shards,
            proxies,
        }
    }

    /// Every shard's writer has finished bootstrap and serves traffic.
    pub fn all_ready(&self) -> bool {
        self.shards.iter().all(|s| {
            self.sim.actor::<EngineActor>(s.engine).status() == crate::engine::EngineStatus::Ready
        })
    }

    /// Send a transaction through proxy `proxy` from the client probe.
    pub fn submit_via(&mut self, proxy: usize, conn: u64, spec: crate::wire::TxnSpec) {
        let req = crate::wire::ClientRequest {
            conn,
            txn: spec,
            issued_at: self.sim.now(),
        };
        let dst = self.proxies[proxy];
        self.sim.tell(self.client, aurora_sim::Relay::new(dst, req));
    }

    /// Client responses received at or after probe-inbox position
    /// `cursor`, plus the new cursor.
    pub fn responses_since(&self, cursor: usize) -> (Vec<crate::wire::ClientResponse>, usize) {
        let (new, next) = self
            .sim
            .actor::<Probe>(self.client)
            .received_since::<crate::wire::ClientResponse>(cursor);
        (new.into_iter().map(|(_, r)| r.clone()).collect(), next)
    }

    /// Shard `i`'s writer actor, for inspection.
    pub fn engine_actor(&self, shard: usize) -> &EngineActor {
        self.sim.actor::<EngineActor>(self.shards[shard].engine)
    }

    /// Proxy `i`'s actor, for inspection.
    pub fn proxy_actor(&self, proxy: usize) -> &ProxyActor {
        self.sim.actor::<ProxyActor>(self.proxies[proxy])
    }
}
