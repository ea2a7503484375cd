//! # aurora-core — the Aurora database engine
//!
//! §5: "the database engine is a fork of 'community' MySQL/InnoDB and
//! diverges primarily in how InnoDB reads and writes data to disk." This
//! crate is that engine: it keeps the upper three quarters of a classical
//! kernel — access methods, buffer cache, transactions, locking — and
//! replaces the IO subsystem with the paper's log-only write path:
//!
//! * [`btree`] — a B+-tree access method whose structural changes
//!   (splits) are mini-transactions, expressed against a [`PageProvider`]
//!   so the same tree code runs over the Aurora write path and over the
//!   traditional path in `aurora-baseline`,
//! * [`buffer`] — the buffer cache with Aurora's eviction rule (§4.2.3: a
//!   page may be evicted, *without being written back*, only if its page
//!   LSN is at or below the VDL),
//! * [`locks`] — row-level exclusive locks with FIFO waiters and timeout
//!   aborts,
//! * [`wire`] — the client / replication protocol,
//! * [`txn`] — the transaction executor every instance shares:
//!   per-connection op state machine, row locks, logical undo and
//!   rollback, vCPU model; each plugs in as a [`txn::TxnBackend`] (the
//!   writer and its replicas here, MySQL in `aurora-baseline`),
//! * [`engine`] — the writer instance: LSN allocation with LAL
//!   back-pressure, MTR construction, per-PG batch shipping with 4/6
//!   quorum writes, asynchronous commit on VDL advance, read-point
//!   single-segment reads, crash recovery (read-quorum VDL discovery,
//!   epoch-versioned truncation, compensating undo), and Zero-Downtime
//!   Patching (§7.4),
//! * [`replica`] — read replicas (§4.2.4): consume the writer's log
//!   stream, apply records at or below the VDL to cached pages with
//!   MTR atomicity, serve reads on the same executor and read path.
//!
//! ## Isolation scope
//!
//! Aurora supports all MySQL isolation levels in the engine. This
//! reproduction implements write locking with read-committed reads on the
//! writer and consistent (VDL-snapshot) reads on replicas — the strongest
//! semantics any reproduced experiment exercises; full MVCC undo-based
//! snapshot reads on the writer are out of scope and documented in
//! DESIGN.md.

pub mod btree;
pub mod buffer;
pub mod cluster;
mod commit;
pub mod engine;
mod health;
pub mod locks;
pub mod proxy;
mod read_path;
mod recovery;
pub mod replica;
pub mod txn;
pub mod wire;

pub use btree::{BTree, BTreeError, PageEditor, PageMiss, PageProvider, TreeMeta};
pub use buffer::BufferPool;
pub use cluster::{Cluster, ClusterConfig, Shard, ShardedCluster, ShardedConfig};
pub use engine::{EngineActor, EngineConfig, EngineStatus, HealthState, InstanceSpec};
pub use locks::{LockOutcome, LockTable};
pub use proxy::{HashRing, ProxyActor, ProxyConfig};
pub use replica::{ReplicaActor, ReplicaConfig};
pub use wire::{ClientRequest, ClientResponse, Op, OpResult, TxnResult, TxnSpec};
