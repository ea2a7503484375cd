//! Criterion benchmarks for the DES substrate hot paths this repo's
//! experiments live on: raw event-kernel dispatch, the zero-copy log
//! fan-out building blocks (exact-size encode, scratch reuse, shared
//! batch slices), the coalesce-style apply loop, the interned-metrics
//! fast path, the trace emit path (enabled vs disabled), and one full
//! DST seed as the end-to-end harness window (plain and traced).
//!
//! The bench CI job re-runs these in quick mode on every PR. Comparable
//! numbers live in the benchmark ledger, `benchmark/LEDGER.ndjson`, whose
//! `probes` rows carry the same kernels measured from outside.

use std::sync::Arc;

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use aurora_bench::dst::{self, DstConfig};
use aurora_log::{
    apply_record, codec, LogRecord, Lsn, Page, PageId, Patch, PgId, RecordBody, SegmentLog, TxnId,
};
use aurora_sim::{
    Actor, ActorEvent, Ctx, EventQueue, MetricsRegistry, NodeOpts, Payload, Sim, SpanId,
    TraceBuffer, WheelItem, Zone,
};

fn write_record(lsn: u64, patch_len: usize) -> LogRecord {
    LogRecord {
        lsn: Lsn(lsn),
        prev_in_pg: Lsn(lsn.saturating_sub(1)),
        pg: PgId(0),
        txn: TxnId(1),
        is_cpl: true,
        body: RecordBody::PageWrite {
            page: PageId(lsn % 8),
            patches: vec![Patch {
                offset: ((lsn * 97) % 3_500) as u32,
                before: Bytes::from(vec![0u8; patch_len]),
                after: Bytes::from(vec![(lsn % 251) as u8; patch_len]),
            }],
        },
    }
}

// ---------------------------------------------------------------------
// Event kernel: raw dispatch overhead
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Ball;
impl Payload for Ball {
    fn wire_size(&self) -> usize {
        4
    }
}

/// Ping-pong actor: echoes every ball back until the rally budget runs
/// out. Two of these exchanging N messages measure per-event kernel cost
/// (heap push/pop, delivery, actor swap) with a trivial actor body.
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

fn bench_event_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_kernel");
    const RALLY: u32 = 2_000;
    g.throughput(Throughput::Elements(RALLY as u64 * 2));
    g.bench_function("ping_pong_4000_events", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            let a = sim.add_node(
                "a",
                Zone(0),
                Box::new(PingPong {
                    peer: None,
                    remaining: RALLY,
                }),
                NodeOpts::default(),
            );
            let _b = sim.add_node(
                "b",
                Zone(1),
                Box::new(PingPong {
                    peer: Some(a),
                    remaining: RALLY,
                }),
                NodeOpts::default(),
            );
            sim.run_until_idle(100_000);
            black_box(sim.events_dispatched())
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Zero-copy fan-out building blocks
// ---------------------------------------------------------------------

fn bench_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("fanout");
    let records: Vec<LogRecord> = (1..=1_000).map(|l| write_record(l, 64)).collect();
    let total: usize = records.iter().map(codec::encoded_size).sum();

    g.throughput(Throughput::Bytes(total as u64));
    g.bench_function("encode_batch_1000_presized", |b| {
        b.iter(|| black_box(codec::encode_batch(black_box(&records))))
    });

    let rec = write_record(42, 128);
    g.throughput(Throughput::Elements(1));
    g.bench_function("encode_scratch_reuse", |b| {
        let mut scratch = Vec::new();
        b.iter(|| black_box(codec::encode_scratch(black_box(&rec), &mut scratch).len()))
    });
    g.bench_function("encoded_size_exact", |b| {
        b.iter(|| black_box(codec::encoded_size(black_box(&rec))))
    });

    // sharing one batch across a six-way segment fan-out: the unit the
    // engine ships per protection group, cloned per storage node
    let batch: Arc<[LogRecord]> = records.clone().into();
    g.throughput(Throughput::Elements(6));
    g.bench_function("share_batch_6_nodes_arc", |b| {
        b.iter(|| {
            let mut sum = 0usize;
            for _ in 0..6 {
                let shared = Arc::clone(&batch);
                sum += shared.len();
            }
            black_box(sum)
        })
    });
    g.bench_function("share_batch_6_nodes_clone", |b| {
        // the pre-PR behaviour, kept for comparison: deep-copy per node
        b.iter(|| {
            let mut sum = 0usize;
            for _ in 0..6 {
                let copied: Vec<LogRecord> = batch.iter().cloned().collect();
                sum += copied.len();
            }
            black_box(sum)
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Coalesce-style apply loop: ingest into a segment log, then apply the
// indexed range onto page images (the storage node's background path)
// ---------------------------------------------------------------------

fn bench_apply_coalesce(c: &mut Criterion) {
    let mut g = c.benchmark_group("coalesce");
    let records: Vec<LogRecord> = (1..=2_000).map(|l| write_record(l, 32)).collect();
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("ingest_apply_gc_2000", |b| {
        b.iter(|| {
            let mut log = SegmentLog::new();
            for r in &records {
                log.insert(r.clone());
            }
            let mut pages: Vec<Page> = (0..8).map(|_| Page::new()).collect();
            for r in log.range_iter(Lsn::ZERO, Lsn(2_000)) {
                if let RecordBody::PageWrite { page, .. } = &r.body {
                    let _ = apply_record(&mut pages[(page.0 % 8) as usize], r);
                }
            }
            let dropped = log.gc_upto(Lsn(1_500));
            black_box((dropped, pages[0].lsn))
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Metrics: interned-handle fast path vs string-keyed path
// ---------------------------------------------------------------------

fn bench_metrics(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics");
    g.throughput(Throughput::Elements(1));
    g.bench_function("inc_by_name", |b| {
        let mut m = MetricsRegistry::new();
        b.iter(|| {
            m.inc(3, "engine.commits", 1);
            black_box(m.counter(3, "engine.commits"))
        })
    });
    g.bench_function("inc_by_id", |b| {
        let mut m = MetricsRegistry::new();
        let id = m.metric_id("engine.commits");
        b.iter(|| {
            m.inc_id(3, id, 1);
            black_box(id)
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Trace: per-emit cost on vs off, and the end-to-end tax on a DST seed
// ---------------------------------------------------------------------

/// Ping-pong with one trace instant per ball: the kernel rally with the
/// per-event emit site the instrumented actors pay.
struct TracingPingPong {
    peer: Option<u32>,
    remaining: u32,
}

impl Actor for TracingPingPong {
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
                ctx.trace_instant("bench.ball", SpanId::NONE, self.remaining as u64, 0);
                ctx.send(from, Ball);
            }
            _ => {}
        }
    }
}

fn traced_rally(rally: u32, traced: bool) -> u64 {
    let mut sim = Sim::new(1);
    if traced {
        sim.trace.enable(65_536);
    }
    let a = sim.add_node(
        "a",
        Zone(0),
        Box::new(TracingPingPong {
            peer: None,
            remaining: rally,
        }),
        NodeOpts::default(),
    );
    let _b = sim.add_node(
        "b",
        Zone(1),
        Box::new(TracingPingPong {
            peer: Some(a),
            remaining: rally,
        }),
        NodeOpts::default(),
    );
    sim.run_until_idle(100_000);
    sim.events_dispatched()
}

fn bench_trace(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace");
    const RALLY: u32 = 2_000;
    g.throughput(Throughput::Elements(RALLY as u64 * 2));
    g.bench_function("ping_pong_4000_events_trace_off", |b| {
        b.iter(|| black_box(traced_rally(RALLY, false)))
    });
    g.bench_function("ping_pong_4000_events_trace_on", |b| {
        b.iter(|| black_box(traced_rally(RALLY, true)))
    });
    g.throughput(Throughput::Elements(1));
    // the instrumented hot paths pay exactly this when tracing is off:
    // one enabled-check branch per emit site
    g.bench_function("span_pair_disabled", |b| {
        let mut t = TraceBuffer::new();
        b.iter(|| {
            let s = t.begin(1_000, 3, "engine.commit", SpanId::NONE, 42, 7);
            t.end(2_000, 3, "engine.commit", s, 42, 1);
            black_box(t.len())
        })
    });
    g.bench_function("span_pair_enabled", |b| {
        let mut t = TraceBuffer::new();
        t.enable(65_536);
        b.iter(|| {
            let s = t.begin(1_000, 3, "engine.commit", SpanId::NONE, 42, 7);
            t.end(2_000, 3, "engine.commit", s, 42, 1);
            black_box(t.len())
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// End-to-end harness window: one DST seed, moderate intensity. The
// traced variant measures the full tracing tax (emit + ring + render);
// the plain one is the untraced reference, tracked in the benchmark
// ledger (`benchmark/LEDGER.ndjson`).
// ---------------------------------------------------------------------

fn bench_e2e_dst_seed(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2e");
    g.bench_function("dst_seed_moderate", |b| {
        b.iter(|| {
            let report = dst::run_seed(&DstConfig {
                seed: 7,
                ..DstConfig::default()
            });
            assert!(report.violations.is_empty(), "oracle failure in bench");
            black_box(report.commits)
        })
    });
    g.bench_function("dst_seed_moderate_traced", |b| {
        b.iter(|| {
            let report = dst::run_seed(&DstConfig {
                seed: 7,
                trace: true,
                ..DstConfig::default()
            });
            assert!(report.violations.is_empty(), "oracle failure in bench");
            black_box(report.trace.map(|d| d.ndjson.len()))
        })
    });
    g.finish();
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

/// The timer-wheel scheduler in isolation, on the kernel's dominant
/// access patterns: near-term message-delivery churn (a few µs to a few
/// slots ahead) and a mixed pattern that adds flush-cadence timers plus
/// occasional beyond-horizon events hitting the overflow heap. Each
/// iteration sustains a 256-event steady-state queue through 20k
/// push/pop pairs, matching how the sim runs (the old global heap paid
/// two O(log n) sifts per event here).
fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    const OPS: u64 = 20_000;
    const PENDING: u64 = 256;
    g.throughput(Throughput::Elements(OPS));

    g.bench_function("wheel_churn_near", |b| {
        b.iter(|| {
            let mut q: EventQueue<QItem> = EventQueue::with_hint(PENDING as usize);
            let mut seq = 0u64;
            for _ in 0..PENDING {
                q.push(QItem {
                    at: seq * 3_000,
                    seq,
                });
                seq += 1;
            }
            let mut now = 0u64;
            for i in 0..OPS {
                let it = q.pop().expect("steady state");
                now = it.at;
                q.push(QItem {
                    at: now + 1_000 + (i % 7) * 20_000,
                    seq,
                });
                seq += 1;
            }
            black_box(now)
        })
    });

    // Reference point: the exact structure the wheel replaced (a max-heap
    // on inverted (at, seq)), driven by the same near-term churn pattern.
    g.bench_function("binary_heap_churn_near", |b| {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        b.iter(|| {
            let mut q: BinaryHeap<Reverse<(u64, u64)>> =
                BinaryHeap::with_capacity(PENDING as usize);
            let mut seq = 0u64;
            for _ in 0..PENDING {
                q.push(Reverse((seq * 3_000, seq)));
                seq += 1;
            }
            let mut now = 0u64;
            for i in 0..OPS {
                let Reverse((at, _)) = q.pop().expect("steady state");
                now = at;
                q.push(Reverse((now + 1_000 + (i % 7) * 20_000, seq)));
                seq += 1;
            }
            black_box(now)
        })
    });

    // Overflow churn: a standing population of far-future timers (session
    // think times, 100 ms – 1 s out — far past the 67 ms default horizon)
    // being continuously replenished while near-term delivery churn
    // drains. Exercises the batch re-bucketing path: each far timer must
    // pay the overflow heap once, not once per cursor advance.
    g.bench_function("wheel_overflow_churn", |b| {
        const FAR: u64 = 4_096;
        b.iter(|| {
            let mut q: EventQueue<QItem> = EventQueue::with_geometry(FAR as usize, 1_024);
            let mut seq = 0u64;
            for i in 0..FAR {
                q.push(QItem {
                    at: 100_000_000 + (i * 219_727) % 900_000_000,
                    seq,
                });
                seq += 1;
            }
            let mut now = 0u64;
            for i in 0..OPS {
                let it = q.pop().expect("steady state");
                now = it.at;
                let delay = if i % 4 == 0 {
                    500_000_000 + (i * 99_991) % 400_000_000 // far: think time
                } else {
                    1_000 + (i % 5) * 9_000 // near: delivery latency
                };
                q.push(QItem {
                    at: now + delay,
                    seq,
                });
                seq += 1;
            }
            black_box(now)
        })
    });

    // Reference point for the overflow-churn pattern: the plain binary
    // heap pays O(log n) on every push/pop with n inflated by the whole
    // far-timer population.
    g.bench_function("binary_heap_overflow_churn", |b| {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        const FAR: u64 = 4_096;
        b.iter(|| {
            let mut q: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::with_capacity(FAR as usize);
            let mut seq = 0u64;
            for i in 0..FAR {
                q.push(Reverse((100_000_000 + (i * 219_727) % 900_000_000, seq)));
                seq += 1;
            }
            let mut now = 0u64;
            for i in 0..OPS {
                let Reverse((at, _)) = q.pop().expect("steady state");
                now = at;
                let delay = if i % 4 == 0 {
                    500_000_000 + (i * 99_991) % 400_000_000
                } else {
                    1_000 + (i % 5) * 9_000
                };
                q.push(Reverse((now + delay, seq)));
                seq += 1;
            }
            black_box(now)
        })
    });

    g.bench_function("wheel_churn_mixed_horizon", |b| {
        b.iter(|| {
            let mut q: EventQueue<QItem> = EventQueue::with_hint(PENDING as usize);
            let mut seq = 0u64;
            for _ in 0..PENDING {
                q.push(QItem {
                    at: seq * 3_000,
                    seq,
                });
                seq += 1;
            }
            let mut now = 0u64;
            for i in 0..OPS {
                let it = q.pop().expect("steady state");
                now = it.at;
                let delay = match i % 16 {
                    0 => 120_000_000,             // past the horizon → overflow
                    1..=3 => 10_000_000,          // flush-cadence timer
                    _ => 1_000 + (i % 5) * 9_000, // delivery latency
                };
                q.push(QItem {
                    at: now + delay,
                    seq,
                });
                seq += 1;
            }
            black_box(now)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_event_kernel,
        bench_scheduler,
        bench_fanout,
        bench_apply_coalesce,
        bench_metrics,
        bench_trace,
        bench_e2e_dst_seed
}
criterion_main!(benches);
