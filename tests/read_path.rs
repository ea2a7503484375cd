//! The replica read path end to end: page fetches from storage at the
//! replica's read point, the timeout redirect past a dead storage node,
//! and membership changes the control plane pushes after a repair.

use aurora::core::cluster::{Cluster, ClusterConfig};
use aurora::core::engine::bootstrap_row;
use aurora::core::wire::{Op, OpResult, TxnResult, TxnSpec};
use aurora::sim::SimDuration;

const ROWS: u64 = 20_000;
/// Every 97th key: 207 point reads spread over the whole key space, so
/// nearly every one misses the replica's cache.
const STRIDE: usize = 97;

/// Seed 11: 2 PGs on 6 storage nodes, one replica, 20 000 bootstrap rows.
fn replica_cluster(with_control: bool) -> Cluster {
    Cluster::build(ClusterConfig {
        seed: 11,
        pgs: 2,
        storage_nodes: 6,
        spares: if with_control { 3 } else { 0 },
        replicas: 1,
        bootstrap_rows: ROWS,
        with_control,
        ..ClusterConfig::default()
    })
}

/// Send one replica `Get` every 2 ms, run 1 s more, and check that every
/// read committed with the bootstrap row it asked for.
fn read_every_stride(c: &mut Cluster) {
    let keys: Vec<u64> = (0..ROWS).step_by(STRIDE).collect();
    for (i, k) in keys.iter().enumerate() {
        c.submit_to_replica(0, i as u64 + 1, TxnSpec::single(Op::Get(*k)));
        c.sim.run_for(SimDuration::from_millis(2));
    }
    c.sim.run_for(SimDuration::from_secs(1));
    let responses = c.responses();
    assert_eq!(responses.len(), keys.len(), "every replica read answers");
    for resp in responses {
        let k = keys[resp.conn as usize - 1];
        match resp.result {
            TxnResult::Committed(rs) => assert_eq!(
                rs,
                vec![OpResult::Row(Some(bootstrap_row(k, 96)))],
                "key {k}"
            ),
            TxnResult::Aborted(m) => panic!("replica read of key {k} aborted: {m}"),
        }
    }
}

/// A replica has no SCL map: it reads a random slot and moves to the next
/// slot when a read times out. With one storage node dead, the reads that
/// hit its slots retry and still return the right rows. Pinned, so a
/// refactor of the read path proves it changed nothing.
#[test]
fn replica_reads_retry_past_a_dead_storage_node() {
    let mut c = replica_cluster(false);
    c.sim.run_for(SimDuration::from_secs(2));
    c.sim.crash(c.storage[0]);
    read_every_stride(&mut c);
    let m = &c.sim.metrics;
    assert_eq!(
        (
            m.counter_total("replica.page_fetches"),
            m.counter_total("replica.read_retries"),
            c.sim.events_dispatched(),
            c.sim.now().nanos(),
        ),
        (217, 41, 6_418, 3_414_000_000),
        "(page fetches, read retries, events dispatched, final clock)"
    );
}

/// After the control plane repairs the dead node's segments onto spares,
/// the replica reads from the new members: no read waits out a timeout
/// on the node that is gone.
#[test]
fn replica_follows_membership_updates_after_a_repair() {
    let mut c = replica_cluster(true);
    c.sim.run_for(SimDuration::from_secs(2));
    c.sim.crash(c.storage[0]);
    c.sim.run_for(SimDuration::from_secs(4));
    assert!(
        c.sim.metrics.counter_total("control.repairs_completed") >= 2,
        "both of the dead node's segments are repaired"
    );
    read_every_stride(&mut c);
    assert_eq!(c.sim.metrics.counter_total("replica.read_retries"), 0);
}
