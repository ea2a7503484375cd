//! Integration tests for the storage service: a probe plays the database
//! instance against real storage-node and control-plane actors on the
//! simulated network.

use aurora_log::{LogRecord, Lsn, PageId, Patch, PgId, RecordBody, SegmentId, TxnId};
use aurora_quorum::{TruncationRange, VolumeEpoch};
use aurora_sim::{NodeId, NodeOpts, Probe, Relay, Sim, SimDuration, Zone};
use aurora_storage::wire::*;
use aurora_storage::{ControlConfig, ControlPlane, PgMembership, StorageNode, StorageNodeConfig};
use bytes::Bytes;

const PG: PgId = PgId(0);

fn seg(replica: u8) -> SegmentId {
    SegmentId::new(PG, replica)
}

/// Build a page-write record with explicit chain position.
fn page_write(
    lsn: u64,
    prev: u64,
    page: u64,
    offset: u32,
    before: &[u8],
    after: &[u8],
) -> LogRecord {
    LogRecord {
        lsn: Lsn(lsn),
        prev_in_pg: Lsn(prev),
        pg: PG,
        txn: TxnId(1),
        is_cpl: true,
        body: RecordBody::PageWrite {
            page: PageId(page),
            patches: vec![Patch {
                offset,
                before: Bytes::copy_from_slice(before),
                after: Bytes::copy_from_slice(after),
            }],
        },
    }
}

struct Fixture {
    sim: Sim,
    engine: NodeId,
    nodes: Vec<NodeId>, // 6 storage nodes
    control: Option<NodeId>,
    spares: Vec<NodeId>,
}

/// 6 storage nodes (2 per AZ), a probe engine, optionally a control plane
/// with `n_spares` spare nodes.
fn fixture(with_control: bool, n_spares: usize) -> Fixture {
    let mut sim = Sim::new(42);
    let engine = sim.add_node(
        "engine",
        Zone(0),
        Box::new(Probe::new()),
        NodeOpts::default(),
    );
    let mut nodes = Vec::new();
    let mut cfg = StorageNodeConfig {
        store: None,
        backup_interval: SimDuration::ZERO,
        ..Default::default()
    };
    // control node id is allocated after storage nodes; fill in later
    for i in 0..6u8 {
        let zone = Zone(i % 3);
        let id = sim.add_node(
            format!("store-{i}"),
            zone,
            Box::new(StorageNode::new(cfg.clone())),
            NodeOpts::default(),
        );
        nodes.push(id);
    }
    let mut spares = Vec::new();
    let control = if with_control {
        let mut ctl_cfg = ControlConfig {
            watchers: vec![engine],
            ..Default::default()
        };
        for s in 0..n_spares {
            let zone = Zone((s % 3) as u8);
            // spare nodes also need the control field set below; create
            // them first with a placeholder config
            let id = sim.add_node(
                format!("spare-{s}"),
                zone,
                Box::new(StorageNode::new(cfg.clone())),
                NodeOpts::default(),
            );
            ctl_cfg.spares.push((id, zone));
            ctl_cfg.zones.insert(id, zone);
            spares.push(id);
        }
        for (i, n) in nodes.iter().enumerate() {
            ctl_cfg.zones.insert(*n, Zone((i % 3) as u8));
        }
        let membership = PgMembership::new(PG, nodes.clone());
        let ctl = sim.add_node(
            "control",
            Zone(0),
            Box::new(ControlPlane::new(ctl_cfg, vec![membership])),
            NodeOpts::default(),
        );
        // storage nodes need to heartbeat to control: rebuild them with the
        // control field (they have no state yet, so replacing configs via
        // fresh actors is equivalent; instead we recreate the fixture nodes
        // with control wired in). Simpler: set control on the shared cfg
        // and rebuild — but nodes are already added. We instead rely on
        // SegmentPeers broadcast for gossip and heartbeats configured here:
        cfg.control = Some(ctl);
        Some(ctl)
    } else {
        None
    };
    let _ = cfg;
    Fixture {
        sim,
        engine,
        nodes,
        control,
        spares,
    }
}

/// Like `fixture(true, ..)` but storage nodes are constructed knowing the
/// control node (heartbeats on). Control id is pre-reserved by creating it
/// last; we exploit deterministic id allocation: engine=0, stores=1..=6,
/// spares next, control last.
fn fixture_with_control(n_spares: usize) -> Fixture {
    let mut sim = Sim::new(43);
    let engine = sim.add_node(
        "engine",
        Zone(0),
        Box::new(Probe::new()),
        NodeOpts::default(),
    );
    let control_id: NodeId = 1 + 6 + n_spares as NodeId; // predicted
    let cfg = StorageNodeConfig {
        store: None,
        backup_interval: SimDuration::ZERO,
        control: Some(control_id),
        ..Default::default()
    };
    let mut nodes = Vec::new();
    for i in 0..6u8 {
        let id = sim.add_node(
            format!("store-{i}"),
            Zone(i % 3),
            Box::new(StorageNode::new(cfg.clone())),
            NodeOpts::default(),
        );
        nodes.push(id);
    }
    let mut ctl_cfg = ControlConfig {
        watchers: vec![engine],
        ..Default::default()
    };
    let mut spares = Vec::new();
    for s in 0..n_spares {
        let zone = Zone((s % 3) as u8);
        let id = sim.add_node(
            format!("spare-{s}"),
            zone,
            Box::new(StorageNode::new(cfg.clone())),
            NodeOpts::default(),
        );
        ctl_cfg.spares.push((id, zone));
        ctl_cfg.zones.insert(id, zone);
        spares.push(id);
    }
    for (i, n) in nodes.iter().enumerate() {
        ctl_cfg.zones.insert(*n, Zone((i % 3) as u8));
    }
    let membership = PgMembership::new(PG, nodes.clone());
    let ctl = sim.add_node(
        "control",
        Zone(0),
        Box::new(ControlPlane::new(ctl_cfg, vec![membership])),
        NodeOpts::default(),
    );
    assert_eq!(ctl, control_id, "node id prediction broke");
    Fixture {
        sim,
        engine,
        nodes,
        control: Some(ctl),
        spares,
    }
}

fn send_batch(f: &mut Fixture, records: Vec<LogRecord>, vdl: u64, targets: &[usize]) {
    let batch_end = records.last().unwrap().lsn;
    for &i in targets {
        let wb = WriteBatch {
            segment: seg(i as u8),
            records: records.clone().into(),
            batch_end,
            epoch: VolumeEpoch(0),
            vdl: Lsn(vdl),
            pgmrpl: Lsn::ZERO,
        };
        let dst = f.nodes[i];
        let engine = f.engine;
        f.sim.tell(engine, Relay::new(dst, wb));
    }
}

fn wire_peers(f: &mut Fixture) {
    // without a control plane, hand out gossip peer lists directly
    for (i, &n) in f.nodes.iter().enumerate() {
        let peers: Vec<NodeId> = f
            .nodes
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, n)| *n)
            .collect();
        f.sim.tell(
            n,
            SegmentPeers {
                segment: seg(i as u8),
                peers,
            },
        );
    }
}

#[test]
fn write_batches_are_acked_with_scl() {
    let mut f = fixture(false, 0);
    let recs = vec![
        page_write(1, 0, 0, 0, &[0], &[1]),
        page_write(2, 1, 0, 1, &[0], &[2]),
    ];
    send_batch(&mut f, recs, 0, &[0, 1, 2, 3, 4, 5]);
    f.sim.run_for(SimDuration::from_millis(20));
    let probe = f.sim.actor::<Probe>(f.engine);
    let acks = probe.received::<WriteAck>();
    assert_eq!(acks.len(), 6);
    for (_, ack) in &acks {
        assert_eq!(ack.batch_end, Lsn(2));
        assert_eq!(ack.scl, Lsn(2));
    }
}

#[test]
fn ack_requires_durable_write_first() {
    // Crash a node before its disk write completes: no ack ever arrives.
    let mut f = fixture(false, 0);
    let recs = vec![page_write(1, 0, 0, 0, &[0], &[1])];
    send_batch(&mut f, recs, 0, &[0]);
    // crash immediately — the disk write (~100µs) has not finished
    let victim = f.nodes[0];
    f.sim.run_for(SimDuration::from_micros(80));
    f.sim.crash(victim);
    f.sim.run_for(SimDuration::from_millis(10));
    f.sim.restart(victim);
    f.sim.run_for(SimDuration::from_millis(10));
    let probe = f.sim.actor::<Probe>(f.engine);
    assert_eq!(probe.count::<WriteAck>(), 0);
    // and the record was never made durable
    let node = f.sim.actor::<StorageNode>(victim);
    assert_eq!(node.log_len(seg(0)), 0);
}

#[test]
fn gossip_fills_holes_on_lagging_replicas() {
    let mut f = fixture(false, 0);
    wire_peers(&mut f);
    let b1 = vec![page_write(1, 0, 0, 0, &[0], &[1])];
    let b2 = vec![page_write(2, 1, 0, 1, &[0], &[2])];
    let b3 = vec![page_write(3, 2, 0, 2, &[0], &[3])];
    send_batch(&mut f, b1, 0, &[0, 1, 2, 3, 4, 5]);
    // replicas 4 and 5 miss batches 2 and 3
    send_batch(&mut f, b2, 0, &[0, 1, 2, 3]);
    send_batch(&mut f, b3, 0, &[0, 1, 2, 3]);
    f.sim.run_for(SimDuration::from_millis(500));
    for (i, &n) in f.nodes.iter().enumerate() {
        let node = f.sim.actor::<StorageNode>(n);
        assert_eq!(
            node.scl(seg(i as u8)),
            Some(Lsn(3)),
            "replica {i} should have caught up via gossip"
        );
    }
    assert!(f.sim.metrics.counter_total("storage.gossip_filled") >= 4);
}

#[test]
fn gossip_converges_under_sustained_packet_loss() {
    use aurora_sim::PacketChaos;

    let mut f = fixture(false, 0);
    wire_peers(&mut f);

    // 60 chain records, each delivered to a rotating 4-of-6 subset: every
    // node misses a third of the chain, every record survives somewhere
    for r in 0u64..60 {
        let rec = vec![page_write(r + 1, r, r % 8, 0, &[0], &[r as u8])];
        let targets: Vec<usize> = (0..4).map(|j| ((r as usize) + j) % 6).collect();
        send_batch(&mut f, rec, 0, &targets);
        f.sim.run_for(SimDuration::from_millis(2));
    }

    // sustained lossy network: gossip itself runs under 30% drop and
    // must still converge by retrying every interval
    f.sim.set_packet_chaos(Some(PacketChaos {
        drop: 0.3,
        duplicate: 0.02,
        delay: 0.2,
        delay_by: SimDuration::from_millis(2),
    }));
    f.sim.run_for(SimDuration::from_secs(8));

    for (i, &n) in f.nodes.iter().enumerate() {
        let node = f.sim.actor::<StorageNode>(n);
        assert_eq!(
            node.scl(seg(i as u8)),
            Some(Lsn(60)),
            "replica {i} should have converged despite sustained packet loss"
        );
    }
    assert!(
        f.sim.metrics.counter_total("storage.gossip_filled") > 0,
        "holes must have been filled by gossip"
    );
    f.sim.set_packet_chaos(None);
}

#[test]
fn read_point_reads_return_correct_versions() {
    let mut f = fixture(false, 0);
    // format page 0, then two successive writes
    let recs = vec![
        LogRecord {
            lsn: Lsn(1),
            prev_in_pg: Lsn(0),
            pg: PG,
            txn: TxnId(1),
            is_cpl: true,
            body: RecordBody::PageFormat {
                page: PageId(0),
                init: Bytes::from_static(b"base"),
            },
        },
        page_write(2, 1, 0, 0, b"b", b"X"),
        page_write(3, 2, 0, 1, b"a", b"Y"),
    ];
    send_batch(&mut f, recs, 3, &[0]);
    f.sim.run_for(SimDuration::from_millis(10));
    // read at LSN 2: sees "Xase"; read at 3: "XYse"
    for (req_id, read_point) in [(1u64, 2u64), (2, 3)] {
        let req = ReadPageReq {
            req_id,
            segment: seg(0),
            page: PageId(0),
            read_point: Lsn(read_point),
        };
        let dst = f.nodes[0];
        let engine = f.engine;
        f.sim.tell(engine, Relay::new(dst, req));
    }
    f.sim.run_for(SimDuration::from_millis(10));
    let probe = f.sim.actor::<Probe>(f.engine);
    let resps = probe.received::<ReadPageResp>();
    assert_eq!(resps.len(), 2);
    let at2 = resps.iter().find(|(_, r)| r.req_id == 1).unwrap().1;
    let at3 = resps.iter().find(|(_, r)| r.req_id == 2).unwrap().1;
    assert_eq!(&at2.page.bytes()[..4], b"Xase");
    assert_eq!(at2.page.lsn, Lsn(2));
    assert_eq!(&at3.page.bytes()[..4], b"XYse");
    assert_eq!(at3.page.lsn, Lsn(3));
}

#[test]
fn segment_with_known_gap_rejects_read() {
    let mut f = fixture(false, 0);
    // lsn 1 present, lsn 3 stranded (2 missing): a known hole
    send_batch(&mut f, vec![page_write(1, 0, 0, 0, &[0], &[1])], 1, &[0]);
    send_batch(&mut f, vec![page_write(3, 2, 0, 2, &[0], &[3])], 1, &[0]);
    f.sim.run_for(SimDuration::from_millis(10));
    let req = ReadPageReq {
        req_id: 9,
        segment: seg(0),
        page: PageId(0),
        read_point: Lsn(3), // above the SCL, below the stranded record
    };
    let dst = f.nodes[0];
    let engine = f.engine;
    f.sim.tell(engine, Relay::new(dst, req));
    f.sim.run_for(SimDuration::from_millis(10));
    assert_eq!(f.sim.actor::<Probe>(f.engine).count::<ReadPageResp>(), 0);
    assert_eq!(f.sim.metrics.counter_total("storage.read_rejected"), 1);
    // a read at the complete prefix is served
    let req = ReadPageReq {
        req_id: 10,
        segment: seg(0),
        page: PageId(0),
        read_point: Lsn(1),
    };
    f.sim.tell(engine, Relay::new(dst, req));
    f.sim.run_for(SimDuration::from_millis(10));
    assert_eq!(f.sim.actor::<Probe>(f.engine).count::<ReadPageResp>(), 1);
}

#[test]
fn durable_log_survives_crash_restart() {
    let mut f = fixture(false, 0);
    let recs = vec![
        page_write(1, 0, 0, 0, &[0], &[1]),
        page_write(2, 1, 0, 1, &[0], &[2]),
    ];
    send_batch(&mut f, recs, 2, &[0]);
    f.sim.run_for(SimDuration::from_millis(50));
    let victim = f.nodes[0];
    f.sim.crash(victim);
    f.sim.run_for(SimDuration::from_millis(50));
    f.sim.restart(victim);
    f.sim.run_for(SimDuration::from_millis(50));
    let node = f.sim.actor::<StorageNode>(victim);
    assert_eq!(node.scl(seg(0)), Some(Lsn(2)));
    // and it still serves correct reads
    let page = node.page_at(seg(0), PageId(0), Lsn(2)).unwrap();
    assert_eq!(page.bytes()[0], 1);
    assert_eq!(page.bytes()[1], 2);
}

#[test]
fn coalescing_materializes_and_gc_drops_log() {
    let mut f = fixture(false, 0);
    let recs = vec![
        page_write(1, 0, 0, 0, &[0], &[1]),
        page_write(2, 1, 0, 1, &[0], &[2]),
    ];
    // vdl hint = 2 lets the node coalesce; pgmrpl = 2 lets it GC
    let batch_end = Lsn(2);
    let wb = WriteBatch {
        segment: seg(0),
        records: recs.into(),
        batch_end,
        epoch: VolumeEpoch(0),
        vdl: Lsn(2),
        pgmrpl: Lsn(2),
    };
    let dst = f.nodes[0];
    let engine = f.engine;
    f.sim.tell(engine, Relay::new(dst, wb));
    f.sim.run_for(SimDuration::from_millis(200));
    let node = f.sim.actor::<StorageNode>(dst);
    assert_eq!(node.log_len(seg(0)), 0, "log GC'd after coalescing");
    // materialized page still serves reads
    let page = node.page_at(seg(0), PageId(0), Lsn(2)).unwrap();
    assert_eq!(&page.bytes()[..2], &[1, 2]);
    assert!(f.sim.metrics.counter_total("storage.coalesced") >= 2);
    assert!(f.sim.metrics.counter_total("storage.gc_records") >= 2);
}

#[test]
fn truncation_fences_stale_epoch_writes() {
    let mut f = fixture(false, 0);
    send_batch(&mut f, vec![page_write(1, 0, 0, 0, &[0], &[1])], 0, &[0]);
    f.sim.run_for(SimDuration::from_millis(10));
    // recovery truncates everything above 1 at epoch 1
    let trunc = Truncate {
        segment: seg(0),
        range: TruncationRange {
            epoch: VolumeEpoch(1),
            above: Lsn(1),
            ceiling: Lsn(1000),
        },
    };
    let dst = f.nodes[0];
    let engine = f.engine;
    f.sim.tell(engine, Relay::new(dst, trunc));
    f.sim.run_for(SimDuration::from_millis(10));
    assert_eq!(f.sim.actor::<Probe>(f.engine).count::<TruncateAck>(), 1);
    // a zombie writer from epoch 0 tries to append lsn 2: fenced
    let wb = WriteBatch {
        segment: seg(0),
        records: vec![page_write(2, 1, 0, 1, &[0], &[9])].into(),
        batch_end: Lsn(2),
        epoch: VolumeEpoch(0),
        vdl: Lsn::ZERO,
        pgmrpl: Lsn::ZERO,
    };
    f.sim.tell(engine, Relay::new(dst, wb));
    f.sim.run_for(SimDuration::from_millis(10));
    let node = f.sim.actor::<StorageNode>(dst);
    assert_eq!(node.scl(seg(0)), Some(Lsn(1)), "zombie write fenced");
    // the new-epoch writer reuses lsn 2 legitimately
    let wb = WriteBatch {
        segment: seg(0),
        records: vec![page_write(2, 1, 0, 1, &[0], &[7])].into(),
        batch_end: Lsn(2),
        epoch: VolumeEpoch(1),
        vdl: Lsn::ZERO,
        pgmrpl: Lsn::ZERO,
    };
    f.sim.tell(engine, Relay::new(dst, wb));
    f.sim.run_for(SimDuration::from_millis(10));
    let node = f.sim.actor::<StorageNode>(dst);
    assert_eq!(node.scl(seg(0)), Some(Lsn(2)));
    let page = node.page_at(seg(0), PageId(0), Lsn(2)).unwrap();
    assert_eq!(page.bytes()[1], 7);
}

#[test]
fn recovery_state_queries() {
    let mut f = fixture(false, 0);
    let recs = vec![
        LogRecord {
            lsn: Lsn(1),
            prev_in_pg: Lsn(0),
            pg: PG,
            txn: TxnId(7),
            is_cpl: false,
            body: RecordBody::TxnBegin,
        },
        LogRecord {
            txn: TxnId(7),
            ..page_write(2, 1, 0, 0, &[0], &[1])
        },
        LogRecord {
            lsn: Lsn(3),
            prev_in_pg: Lsn(2),
            pg: PG,
            txn: TxnId(7),
            is_cpl: true,
            body: RecordBody::TxnCommit,
        },
        LogRecord {
            lsn: Lsn(4),
            prev_in_pg: Lsn(3),
            pg: PG,
            txn: TxnId(8),
            is_cpl: false,
            body: RecordBody::TxnBegin,
        },
    ];
    send_batch(&mut f, recs, 0, &[0]);
    f.sim.run_for(SimDuration::from_millis(10));
    let dst = f.nodes[0];
    let engine = f.engine;
    f.sim
        .tell(engine, Relay::new(dst, SegmentStateReq { segment: seg(0) }));
    f.sim.tell(
        engine,
        Relay::new(
            dst,
            CplBelowReq {
                segment: seg(0),
                at: Lsn(4),
            },
        ),
    );
    f.sim.tell(
        engine,
        Relay::new(
            dst,
            TxnScanReq {
                segment: seg(0),
                upto: Lsn(4),
            },
        ),
    );
    f.sim.tell(
        engine,
        Relay::new(
            dst,
            UndoScanReq {
                segment: seg(0),
                txns: vec![TxnId(7)],
                upto: Lsn(4),
            },
        ),
    );
    f.sim.run_for(SimDuration::from_millis(10));
    let probe = f.sim.actor::<Probe>(f.engine);
    let state = probe.received::<SegmentStateResp>()[0].1;
    assert_eq!(state.scl, Lsn(4));
    assert_eq!(state.highest, Lsn(4));
    let cpl = probe.received::<CplBelowResp>()[0].1;
    assert_eq!(cpl.cpl, Lsn(3), "highest CPL at or below 4");
    let txns = probe.received::<TxnScanResp>()[0].1;
    assert_eq!(txns.begun, vec![TxnId(7), TxnId(8)]);
    assert_eq!(txns.finished, vec![TxnId(7)]);
    let undo = probe.received::<UndoScanResp>()[0].1;
    assert_eq!(undo.records.len(), 3, "records of txn 7");
}

#[test]
fn control_plane_repairs_failed_node() {
    let mut f = fixture_with_control(3);
    let recs = vec![
        page_write(1, 0, 0, 0, &[0], &[1]),
        page_write(2, 1, 0, 1, &[0], &[2]),
    ];
    send_batch(&mut f, recs, 2, &[0, 1, 2, 3, 4, 5]);
    f.sim.run_for(SimDuration::from_millis(300));
    // kill replica 2's host
    let victim = f.nodes[2];
    f.sim.crash(victim);
    f.sim.run_for(SimDuration::from_secs(3));
    let ctl = f.sim.actor::<ControlPlane>(f.control.unwrap());
    assert!(ctl.repairs_completed >= 1, "repair should have completed");
    let m = ctl.membership(PG).unwrap().clone();
    assert_ne!(m.slots[2], victim, "membership updated away from victim");
    assert!(f.spares.contains(&m.slots[2]), "replacement is a spare");
    // replacement holds the data
    let node = f.sim.actor::<StorageNode>(m.slots[2]);
    let page = node.page_at(seg(2), PageId(0), Lsn(2)).unwrap();
    assert_eq!(&page.bytes()[..2], &[1, 2]);
    // the engine was told
    let probe = f.sim.actor::<Probe>(f.engine);
    assert!(probe.count::<MembershipUpdate>() >= 2); // initial + post-repair
}

#[test]
fn backup_to_object_store_and_pitr_restore() {
    let mut sim = Sim::new(44);
    let store = aurora_storage::ObjectStore::new();
    let engine = sim.add_node(
        "engine",
        Zone(0),
        Box::new(Probe::new()),
        NodeOpts::default(),
    );
    let cfg = StorageNodeConfig {
        store: Some(store.clone()),
        backup_interval: SimDuration::from_millis(100),
        snapshot_every: 1,
        ..Default::default()
    };
    let node = sim.add_node(
        "store-0",
        Zone(0),
        Box::new(StorageNode::new(cfg)),
        NodeOpts::default(),
    );
    let recs = vec![
        page_write(1, 0, 0, 0, &[0], &[1]),
        page_write(2, 1, 0, 1, &[0], &[2]),
        page_write(3, 2, 0, 2, &[0], &[3]),
    ];
    let wb = WriteBatch {
        segment: seg(0),
        records: recs.into(),
        batch_end: Lsn(3),
        epoch: VolumeEpoch(0),
        vdl: Lsn(3),
        pgmrpl: Lsn::ZERO,
    };
    sim.tell(engine, Relay::new(node, wb));
    sim.run_for(SimDuration::from_secs(1));
    assert!(store.increments(seg(0)) >= 1);
    // PITR to LSN 2
    let (pages, records) = store.restore(seg(0), Lsn(2)).expect("restorable");
    let mut page = pages
        .into_iter()
        .find(|(id, _)| *id == PageId(0))
        .map(|(_, p)| p)
        .unwrap_or_default();
    for r in &records {
        let _ = aurora_log::apply_record(&mut page, r);
    }
    assert_eq!(&page.bytes()[..3], &[1, 2, 0], "state as of LSN 2");
}

#[test]
fn busy_node_defers_background_work() {
    // With a tiny busy threshold and a flood of writes, gossip/coalesce
    // rounds are skipped while the queue is deep.
    let mut f = fixture(false, 0);
    wire_peers(&mut f);
    let mut prev = 0u64;
    for lsn in 1..=200u64 {
        let rec = page_write(lsn, prev, 0, (lsn % 4000) as u32, &[0], &[lsn as u8]);
        send_batch(&mut f, vec![rec], 0, &[0]);
        prev = lsn;
    }
    f.sim.run_for(SimDuration::from_millis(100));
    let probe = f.sim.actor::<Probe>(f.engine);
    assert_eq!(probe.count::<WriteAck>(), 200, "all writes acked");
}

#[test]
fn volume_growth_appends_pgs() {
    use aurora_storage::VolumeLayout;
    let mut layout = VolumeLayout::new(1_000, 2, aurora_quorum::QuorumConfig::aurora());
    assert!(!layout.covers(PageId(2_500)));
    let added = layout.grow_to_cover(PageId(2_500));
    assert_eq!(added.len(), 1);
    assert_eq!(layout.pg_count(), 3);
    assert_eq!(layout.pg_of(PageId(2_500)), PgId(2));
}

#[test]
fn heat_management_migrates_segment_off_hot_node() {
    // §2.3: "we can mark one of the segments on a hot disk or node as bad,
    // and the quorum will be quickly repaired by migration to some other
    // colder node" — model the mark-as-bad by killing the node; the
    // control plane migrates its segments to a spare.
    let mut f = fixture_with_control(3);
    let recs = vec![page_write(1, 0, 0, 0, &[0], &[1])];
    send_batch(&mut f, recs, 1, &[0, 1, 2, 3, 4, 5]);
    f.sim.run_for(SimDuration::from_millis(300));

    let hot = f.nodes[5];
    f.sim.crash(hot); // "marked bad"
    f.sim.run_for(SimDuration::from_secs(3));
    let ctl = f.sim.actor::<ControlPlane>(f.control.unwrap());
    assert!(ctl.repairs_completed >= 1);
    let m = ctl.membership(PG).unwrap();
    assert!(!m.slots.contains(&hot), "hot node evicted from the PG");
    // the spare that took over is in the same AZ (placement invariant)
    let replacement = m.slots[5];
    assert_eq!(f.sim.zone_of(replacement), f.sim.zone_of(hot));
}

#[test]
fn scrubber_validates_pages_in_background() {
    let mut f = fixture(false, 0);
    let recs = vec![
        page_write(1, 0, 0, 0, &[0], &[1]),
        page_write(2, 1, 1, 0, &[0], &[2]),
    ];
    // vdl hint lets the node coalesce the pages that scrub then validates
    let wb = WriteBatch {
        segment: seg(0),
        records: recs.into(),
        batch_end: Lsn(2),
        epoch: VolumeEpoch(0),
        vdl: Lsn(2),
        pgmrpl: Lsn::ZERO,
    };
    let dst = f.nodes[0];
    let engine = f.engine;
    f.sim.tell(engine, Relay::new(dst, wb));
    f.sim.run_for(SimDuration::from_secs(21)); // two 10s scrub cycles
    assert!(
        f.sim.metrics.counter_total("storage.scrubbed_pages") >= 2,
        "scrubber must have validated the materialized pages"
    );
}
