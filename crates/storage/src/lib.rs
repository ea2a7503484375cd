//! # aurora-storage — the multi-tenant, scale-out storage service
//!
//! §3 of the paper: "we offload log processing to the storage service …
//! the log applicator is pushed to the storage tier where it can be used
//! to generate database pages in background or on demand."
//!
//! This crate implements that service on the [`aurora_sim`] substrate:
//!
//! * [`wire`] — the storage network protocol: log-write batches and acks,
//!   read-point page reads, peer gossip, recovery state/truncation, and
//!   repair traffic. Message classes feed the Table 1 network-IO counters.
//! * [`volume`] — segmented volumes: fixed-size segments replicated 6 ways
//!   into Protection Groups striped across three AZs (§2.2), with
//!   volume growth by appending PGs.
//! * [`node`] — the storage node actor implementing the Fig. 4 pipeline:
//!   (1) receive & queue, (2) persist & ACK, (3) sort / find gaps,
//!   (4) gossip with peers to fill holes, (5) coalesce log into pages,
//!   (6) stage to S3, (7) garbage-collect below the PGMRPL,
//!   (8) scrub CRCs. Only (1)–(2) sit on the foreground latency path;
//!   a pass's page writes go to disk in 64 KiB chunks, one in flight, so
//!   a log write waits behind at most one of them.
//!   Every per-segment decision lives in the private `segment` module, a
//!   plain struct with no `Ctx`; the actor is the shell that carries its
//!   answers out (DESIGN §4e).
//! * [`object_store`] — the in-simulation S3: segment snapshots plus
//!   archived log, and point-in-time restore.
//! * [`control`] — the control plane (the paper uses RDS + SWF +
//!   DynamoDB): heartbeat monitoring, failure detection, segment repair
//!   orchestration onto spare nodes, and membership epochs.

pub mod control;
pub mod node;
pub mod object_store;
mod page_writes;
mod segment;
pub mod volume;
pub mod wire;

pub use control::{ControlConfig, ControlPlane};
pub use node::{StorageNode, StorageNodeConfig};
pub use object_store::{ObjectStore, SegmentBackup, SharedObjectStore};
pub use volume::{PgMembership, VolumeLayout};
