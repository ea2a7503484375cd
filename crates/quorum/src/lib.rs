//! # aurora-quorum — quorum models and durability at scale
//!
//! §2 of the paper ("Durability at Scale") argues that 2/3 quorums are
//! inadequate under correlated AZ failures and derives Aurora's design
//! point: **V = 6, V<sub>w</sub> = 4, V<sub>r</sub> = 3**, two copies in
//! each of three AZs, which tolerates (a) an AZ plus one more node without
//! losing data, and (b) an entire AZ without losing the ability to write.
//!
//! This crate owns:
//!
//! * [`QuorumConfig`] — generalized (V, V_w, V_r, AZ layout) with Gifford's
//!   consistency rules (`V_r + V_w > V`, `V_w > V/2`) enforced,
//! * [`DurabilityTracker`] — the asynchronous-consensus bookkeeping of
//!   §4.2.1: batches of log records are acknowledged out of order by
//!   individual segments; the tracker advances the gapless durable prefix
//!   and the VDL (highest CPL inside that prefix),
//! * [`epoch`] — epoch-versioned truncation ranges (§4.3: "the truncation
//!   ranges are versioned with epoch numbers"),
//! * [`recovery`] — the §4.3 recovery decision as pure functions: the VCL
//!   from a read quorum of SCLs, the VDL as the highest CPL at or below it,
//!   the truncation range, and which replicas may serve a recovery scan,
//! * [`durability`] — the §2.2 MTTF/MTTR analysis: an analytic double-fault
//!   model and a Monte-Carlo simulation of AZ+1 failures that shows why
//!   small segments (fast MTTR) make quorum loss vanishingly rare.

pub mod config;
pub mod durability;
pub mod epoch;
pub mod recovery;
pub mod tracker;

pub use config::{ConfigError, QuorumConfig};
pub use durability::{mc_quorum_loss, p_double_fault, repair_time_secs, McParams, McReport};
pub use epoch::{TruncationGuard, TruncationRange, VolumeEpoch};
pub use tracker::{AckOutcome, DurabilityTracker};
