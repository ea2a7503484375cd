//! Layer probes: host nanoseconds per call into each layer's public
//! functions, on seed-generated inputs.
//!
//! A probe times a batch of calls and is repeated five times; the
//! **minimum** is reported, since interference on a shared box only ever
//! adds time. Probes answer "did this layer's code get cheaper", the
//! workloads answer "did it matter": a probe that moves without
//! `host_events_per_s` or `host_s_per_sim_s` moving on the workload named
//! beside it in the README is a layer that was not on the critical path.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aurora_core::btree::{BTree, MemProvider, TreeMeta};
use aurora_core::buffer::BufferPool;
use aurora_core::locks::LockTable;
use aurora_log::{
    apply_record, codec, LogRecord, Lsn, Page, PageId, Patch, PgId, RecordBody, SegmentId,
    SegmentLog, TxnId,
};
use aurora_quorum::{DurabilityTracker, QuorumConfig, VolumeEpoch};
use aurora_sim::{
    Actor, ActorEvent, Ctx, EventQueue, MetricsRegistry, NodeOpts, Payload, Probe, Relay, Sim,
    SimDuration, SimRng, SpanId, TelemetryConfig, TraceBuffer, WheelItem, Zone,
};
use aurora_storage::wire::{ReadPageReq, ReadPageResp, WriteAck, WriteBatch};
use aurora_storage::{StorageNode, StorageNodeConfig};

const REPEATS: usize = 5;

/// Time `calls()`, which returns how many calls it made.
fn timed(calls: impl FnOnce() -> u64) -> (Duration, u64) {
    let t = Instant::now();
    let n = calls();
    (t.elapsed(), n)
}

/// Minimum over [`REPEATS`] batches of (host ns) / (calls in the batch).
/// A batch that needs set-up does it before its `timed` part.
fn best_of(mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
    (0..REPEATS)
        .map(|_| {
            let (took, calls) = batch();
            took.as_nanos() as f64 / calls.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `n` chained single-patch page writes on `pages` pages of PG 0, LSNs
/// `1..=n`, patch positions and contents drawn from `rng`.
fn records(rng: &mut SimRng, n: u64, pages: u64, patch_len: usize) -> Vec<LogRecord> {
    let blank = Page::new();
    (1..=n)
        .map(|lsn| {
            let mut after = vec![0u8; patch_len];
            rng.bytes(&mut after);
            LogRecord {
                lsn: Lsn(lsn),
                prev_in_pg: Lsn(lsn - 1),
                pg: PgId(0),
                txn: TxnId(1 + lsn / 3),
                is_cpl: lsn % 3 == 0,
                body: RecordBody::PageWrite {
                    page: PageId(rng.range_u64(0, pages)),
                    patches: vec![Patch::capture(
                        &blank,
                        rng.range_u64(0, 3_500) as usize,
                        &after,
                    )],
                },
            }
        })
        .collect()
}

#[derive(Debug)]
struct Ball;
impl Payload for Ball {
    fn wire_size(&self) -> usize {
        4
    }
}

/// Echoes every ball until its rally budget runs out: two of them measure
/// the kernel's cost per event with a trivial actor body.
struct PingPong {
    peer: Option<u32>,
    remaining: u32,
}

impl Actor for PingPong {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Start => {
                if let Some(peer) = self.peer {
                    ctx.send(peer, Ball);
                }
            }
            ActorEvent::Message { from, msg }
                if self.remaining > 0 && msg.downcast_ref::<Ball>().is_some() =>
            {
                self.remaining -= 1;
                ctx.send(from, Ball);
            }
            _ => {}
        }
    }
}

#[derive(Clone, Copy)]
struct QItem {
    at: u64,
    seq: u64,
}
impl WheelItem for QItem {
    fn at_nanos(&self) -> u64 {
        self.at
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// 20k pop+push pairs on a standing queue; `delay(i)` is how far ahead of
/// the popped event the replacement lands.
fn queue_churn(standing: u64, first_at: impl Fn(u64) -> u64, delay: impl Fn(u64) -> u64) -> f64 {
    const OPS: u64 = 20_000;
    best_of(|| {
        let mut q: EventQueue<QItem> = EventQueue::with_hint(standing as usize);
        let mut seq = 0u64;
        for i in 0..standing {
            q.push(QItem {
                at: first_at(i),
                seq,
            });
            seq += 1;
        }
        timed(|| {
            let mut now = 0u64;
            for i in 0..OPS {
                now = q.pop().expect("standing population").at;
                q.push(QItem {
                    at: now + delay(i),
                    seq,
                });
                seq += 1;
            }
            black_box(now);
            OPS
        })
    })
}

/// One storage node and a probe node playing the writer.
fn storage_world(seed: u64) -> (Sim, u32, u32) {
    let mut sim = Sim::new(seed);
    let probe = sim.add_node(
        "probe",
        Zone(0),
        Box::new(Probe::new()),
        NodeOpts::default(),
    );
    let node = sim.add_node(
        "store",
        Zone(0),
        Box::new(StorageNode::new(StorageNodeConfig::default())),
        NodeOpts::default(),
    );
    (sim, probe, node)
}

/// Ship `recs` to the node in batches of `per_batch` and run until every
/// batch is acknowledged. Returns the number of batches.
fn ship(sim: &mut Sim, probe: u32, node: u32, recs: &[LogRecord], per_batch: usize) -> u64 {
    let segment = SegmentId::new(PgId(0), 0);
    let mut batches = 0;
    for chunk in recs.chunks(per_batch) {
        let records: Arc<[LogRecord]> = chunk.to_vec().into();
        let batch_end = chunk.last().expect("non-empty chunk").lsn;
        sim.tell(
            probe,
            Relay::new(
                node,
                WriteBatch {
                    segment,
                    records,
                    batch_end,
                    epoch: VolumeEpoch::default(),
                    // no VDL hint: the node must not coalesce, so that the
                    // page read below has the deltas left to apply
                    vdl: Lsn::ZERO,
                    pgmrpl: Lsn::ZERO,
                },
            ),
        );
        batches += 1;
    }
    sim.run_for(SimDuration::from_millis(15));
    assert_eq!(
        sim.actor::<Probe>(probe).count::<WriteAck>() as u64,
        batches,
        "storage probe: every batch acknowledged"
    );
    batches
}

/// Every probe, by catalogue name. `wire_bytes_per_rec` is a count, not a
/// time, and repeats exactly for a seed.
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    let mut rng = SimRng::new(seed ^ 0x009E_0BE5);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // ---- log ---------------------------------------------------------------
    let recs = records(&mut rng, 2_000, 8, 64);
    let n = recs.len() as u64;
    let wire = codec::encode_batch_delta(&recs);
    out.push(("log.codec.wire_bytes_per_rec", wire.len() as f64 / n as f64));
    out.push((
        "log.codec.encode_ns_per_rec",
        best_of(|| {
            timed(|| {
                black_box(codec::encode_batch_delta(black_box(&recs)));
                n
            })
        }),
    ));
    out.push((
        "log.codec.decode_ns_per_rec",
        best_of(|| {
            timed(|| {
                black_box(codec::decode_batch_delta(black_box(&wire)).expect("own encoding"));
                n
            })
        }),
    ));
    out.push((
        "log.segment_log.insert_ns_per_rec",
        best_of(|| {
            let mut log = SegmentLog::new();
            timed(|| {
                for r in &recs {
                    log.insert(r.clone());
                }
                assert_eq!(log.scl(), Lsn(n));
                n
            })
        }),
    ));
    out.push((
        "log.segment_log.gc_ns_per_rec",
        best_of(|| {
            let mut log = SegmentLog::new();
            for r in &recs {
                log.insert(r.clone());
            }
            timed(|| log.gc_upto(Lsn(n * 3 / 4)) as u64)
        }),
    ));
    out.push((
        "log.applicator.apply_ns_per_rec",
        best_of(|| {
            let mut pages: Vec<Page> = (0..8).map(|_| Page::new()).collect();
            timed(|| {
                for r in &recs {
                    if let Some(p) = r.page() {
                        apply_record(&mut pages[p.0 as usize], black_box(r))
                            .expect("ascending LSNs apply");
                    }
                }
                black_box(&pages);
                n
            })
        }),
    ));

    // ---- quorum ------------------------------------------------------------
    out.push((
        "quorum.tracker.ack_cycle_ns",
        best_of(|| {
            const BATCHES: u64 = 2_000;
            let mut t = DurabilityTracker::new(QuorumConfig::aurora(), Lsn::ZERO);
            timed(|| {
                for i in 1..=BATCHES {
                    t.register(Lsn(i * 10), Some(Lsn(i * 10)), &[PgId(0)]);
                    for replica in 0..6 {
                        black_box(t.ack(Lsn(i * 10), PgId(0), replica));
                    }
                }
                assert_eq!(t.vdl(), Lsn(BATCHES * 10));
                BATCHES
            })
        }),
    ));

    // ---- core --------------------------------------------------------------
    out.push((
        "core.buffer.churn_ns",
        best_of(|| {
            const OPS: u64 = 4_000;
            let mut pool = BufferPool::new(512);
            timed(|| {
                for i in 0..OPS {
                    let mut page = Page::new();
                    page.lsn = Lsn(i);
                    let _ = pool.insert(PageId(i), page, Lsn(u64::MAX));
                    black_box(pool.get(PageId(i / 2)));
                }
                OPS
            })
        }),
    ));
    const TREE_ROWS: u64 = 20_000;
    let row = [7u8; 96];
    let keys: Vec<u64> = (0..TREE_ROWS).map(|_| rng.range_u64(0, 1 << 40)).collect();
    let fresh_tree = || {
        let t = BTree::new(TreeMeta::for_row_size(96, PageId(0)));
        let mut p = MemProvider::new();
        t.create(&mut p).expect("fresh tree");
        (t, p)
    };
    out.push((
        "core.btree.insert_ns",
        best_of(|| {
            let (t, mut p) = fresh_tree();
            timed(|| {
                for k in &keys {
                    let _ = t.insert(&mut p, *k, &row);
                }
                black_box(p.pages.len());
                TREE_ROWS
            })
        }),
    ));
    let (tree, mut provider) = fresh_tree();
    for k in &keys {
        let _ = tree.insert(&mut provider, *k, &row);
    }
    out.push((
        "core.btree.get_ns",
        best_of(|| {
            timed(|| {
                for k in &keys {
                    black_box(tree.get(&mut provider, *k).expect("in-memory provider"));
                }
                TREE_ROWS
            })
        }),
    ));
    out.push((
        "core.locks.acquire_release_ns",
        best_of(|| {
            const TXNS: u64 = 5_000;
            let mut locks = LockTable::new();
            timed(|| {
                for t in 0..TXNS {
                    for k in 0..4 {
                        let key = keys[((t * 4 + k) % TREE_ROWS) as usize];
                        black_box(locks.acquire(key, TxnId(t)));
                    }
                    black_box(locks.release_all(TxnId(t)));
                }
                TXNS
            })
        }),
    ));

    // ---- storage.node (through a Probe actor) --------------------------------
    // 200 batches of 16 records over 200 pages: ~16 deltas a page, which the
    // node never coalesces (see `ship`), so each page's first read has them
    // all to apply; a fresh node per repeat keeps its image cache cold
    const READ_PAGES: u64 = 200;
    let batch_recs = records(&mut rng, 16 * READ_PAGES, READ_PAGES, 64);
    out.push((
        "storage.node.write_batch_us",
        best_of(|| {
            let (mut sim, probe, node) = storage_world(seed);
            timed(|| ship(&mut sim, probe, node, &batch_recs, 16))
        }) / 1e3,
    ));
    out.push((
        "storage.node.page_read_us",
        best_of(|| {
            let (mut sim, probe, node) = storage_world(seed);
            ship(&mut sim, probe, node, &batch_recs, 16);
            timed(|| {
                for page in 0..READ_PAGES {
                    sim.tell(
                        probe,
                        Relay::new(
                            node,
                            ReadPageReq {
                                req_id: page,
                                segment: SegmentId::new(PgId(0), 0),
                                page: PageId(page),
                                read_point: Lsn(16 * READ_PAGES),
                            },
                        ),
                    );
                }
                sim.run_for(SimDuration::from_millis(10));
                let answered = sim.actor::<Probe>(probe).count::<ReadPageResp>() as u64;
                assert_eq!(answered, READ_PAGES, "storage probe: every read answered");
                READ_PAGES
            })
        }) / 1e3,
    ));

    // ---- sim ---------------------------------------------------------------
    out.push((
        "sim.kernel.dispatch_ns",
        best_of(|| {
            const RALLY: u32 = 10_000;
            let mut sim = Sim::new(seed);
            let a = sim.add_node(
                "a",
                Zone(0),
                Box::new(PingPong {
                    peer: None,
                    remaining: RALLY,
                }),
                NodeOpts::default(),
            );
            sim.add_node(
                "b",
                Zone(1),
                Box::new(PingPong {
                    peer: Some(a),
                    remaining: RALLY,
                }),
                NodeOpts::default(),
            );
            timed(|| sim.run_until_idle(u64::MAX))
        }),
    ));
    // near-term delivery churn on a 256-event queue
    out.push((
        "sim.queue.churn_near_ns",
        queue_churn(256, |i| i * 3_000, |i| 1_000 + (i % 7) * 20_000),
    ));
    // a standing population of far timers (think times, past the wheel's
    // horizon) replenished while near-term deliveries drain
    out.push((
        "sim.queue.churn_overflow_ns",
        queue_churn(
            4_096,
            |i| 100_000_000 + (i * 219_727) % 900_000_000,
            |i| {
                if i % 4 == 0 {
                    500_000_000 + (i * 99_991) % 400_000_000
                } else {
                    1_000 + (i % 5) * 9_000
                }
            },
        ),
    ));
    let samples: Vec<u64> = (0..10_000)
        .map(|_| rng.range_u64(1_000, 50_000_000))
        .collect();
    out.push((
        "sim.metrics.record_ns",
        best_of(|| {
            let mut m = MetricsRegistry::new();
            let id = m.metric_id("probe.latency_ns");
            timed(|| {
                for s in &samples {
                    m.record_id(3, id, *s);
                }
                black_box(m.histogram_total("probe.latency_ns").count())
            })
        }),
    ));
    out.push((
        "sim.metrics.inc_ns",
        best_of(|| {
            let mut m = MetricsRegistry::new();
            let id = m.metric_id("probe.count");
            timed(|| {
                for s in &samples {
                    m.inc_id((*s % 8) as u32, id, 1);
                }
                black_box(m.counter_total("probe.count"))
            })
        }),
    ));
    out.push((
        "sim.telemetry.close_us",
        best_of(|| {
            // a registry the shape of a small cluster's, then 200 empty
            // 100 ms windows: each boundary closes one window over it
            const WINDOWS: u64 = 200;
            const NAMES: [&str; 8] = [
                "probe.a", "probe.b", "probe.c", "probe.d", "probe.e", "probe.f", "probe.g",
                "probe.h",
            ];
            let mut sim = Sim::new(seed);
            for owner in 0..8u32 {
                for name in NAMES {
                    sim.metrics.inc(owner, name, 1);
                    sim.metrics.record(owner, name, samples[owner as usize]);
                }
            }
            sim.enable_telemetry(TelemetryConfig::default());
            timed(|| {
                sim.run_for(SimDuration::from_millis(100 * WINDOWS));
                assert!(sim.telemetry.total_windows() >= WINDOWS);
                WINDOWS
            })
        }) / 1e3,
    ));
    out.push((
        "sim.trace.span_pair_ns",
        best_of(|| {
            const PAIRS: u64 = 20_000;
            let mut t = TraceBuffer::new();
            t.enable(2 * PAIRS as usize);
            timed(|| {
                for i in 0..PAIRS {
                    let s = t.begin(i, 3, "engine.commit", SpanId::NONE, i, 7);
                    t.end(i + 1, 3, "engine.commit", s, i, 1);
                }
                black_box(t.len());
                PAIRS
            })
        }),
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_probe_reports_a_positive_number() {
        for (name, v) in super::run(7) {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }
}
