//! # aurora-baseline — the paper's comparison system
//!
//! A traditional MySQL/InnoDB-style engine on networked block storage,
//! faithful to Figure 2 of the paper ("Network IO in mirrored MySQL"):
//!
//! * the engine writes a **redo log (WAL)**, a **binlog**, **data pages**,
//!   a **double-write** of each page, and metadata — "many different types
//!   of writes often representing the same information in multiple ways",
//! * in the *mirrored* configuration, every block write is issued to the
//!   primary EBS volume (which chains to an in-AZ mirror), then shipped
//!   synchronously to a standby instance in another AZ whose own EBS pair
//!   must also complete — "steps 1, 3, and 5 are sequential and
//!   synchronous. Latency is additive … the system is at the mercy of
//!   outliers", a de-facto 4/4 write quorum,
//! * dirty pages must be flushed on eviction and at checkpoints, which
//!   stalls foreground work ("background writes of pages and checkpointing
//!   have positive correlation with the foreground load"),
//! * crash recovery replays the redo log from the last checkpoint before
//!   the database can open (ARIES-style), unlike Aurora's instant start,
//! * replication is by binlog shipping to a replica that applies
//!   transactions single-threaded — the source of the paper's multi-minute
//!   replica lag (Table 4, Figure 11).
//!
//! Everything above the IO path — B+-tree, buffer pool, row locks, undo,
//! rollback, the vCPU model — is `aurora-core`'s transaction executor
//! (`aurora_core::txn`), which this engine plugs into as a second backend.
//! That is the paper's own framing: Aurora *is* MySQL above the IO
//! subsystem, so the IO path is the only experimental variable.

pub mod ebs;
pub mod engine;
pub mod mysql_cluster;
pub mod replica;
pub mod wire;

pub use ebs::{EbsMirror, EbsVolume};
pub use engine::{MysqlConfig, MysqlEngine, MysqlFlavor};
pub use mysql_cluster::{MysqlCluster, MysqlClusterConfig};
pub use replica::BinlogReplica;
