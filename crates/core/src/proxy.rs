//! Simulated proxy/router tier for sharded deployments.
//!
//! Real Aurora fleets put a connection tier between applications and the
//! database: it owns session state, routes statements to the shard that
//! holds the data, and multiplexes a very large number of logical
//! sessions over a bounded number of engine-side connections (§6.3's
//! "thousands of connections" lesson). This module models that tier:
//!
//! * **Consistent-hash routing** — a [`HashRing`] with virtual nodes maps
//!   a transaction's routing key to one of N shards; adding or removing a
//!   shard moves only ~1/N of the keyspace (tested).
//! * **Connection pooling / multiplexing** — each proxy holds
//!   `slots_per_shard` engine-side slots per shard; at most that many
//!   transactions are in flight to a shard's writer at once, however many
//!   logical sessions are connected.
//! * **Admission control / backpressure** — arrivals beyond the slot pool
//!   queue FIFO per shard up to `queue_watermark`; beyond the watermark
//!   they are *shed* immediately with an `Aborted("shed: ...")` response.
//!   Queued work carries a deadline (`queue_deadline`); a periodic sweep
//!   expires stale entries so a stalled shard degrades into fast sheds
//!   instead of unbounded queue growth — load sheds, the tier never
//!   collapses.
//!
//! Per-request state is O(1) and per-session state is one bit (the
//! distinct-session bitmap), so a proxy comfortably fronts hundreds of
//! thousands of sessions.
//!
//! ```text
//!            arrival ──▶ in_flight < slots ──────────▶ forward to shard
//!                │ no                                        ▲
//!                ▼                                           │ slot freed
//!            depth < watermark ──▶ queue (deadline) ──▶ dequeue: expired?
//!                │ no                                      │ yes
//!                ▼                                         ▼
//!            shed: queue full                     shed: queue deadline
//! ```

use std::collections::VecDeque;

use aurora_sim::{Actor, ActorEvent, Ctx, FxHashMap, NodeId, SimDuration, SimTime, Tag};

use crate::wire::{ClientRequest, ClientResponse, TxnResult};

const TAG_SWEEP: Tag = 1;

/// SplitMix64 finalizer: a cheap, well-mixed hash for ring points and
/// routing keys. Fixed constants — the ring must be stable across
/// processes and runs.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Consistent-hash ring over shard indices, with virtual nodes.
///
/// Every shard contributes `vnodes` points whose positions depend only on
/// `(shard, vnode)`, so growing the ring from N to N+1 shards leaves all
/// existing points in place — only keys that now fall to one of the new
/// shard's points move (≈ 1/(N+1) of the keyspace).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard)` sorted by point; ties broken by shard index.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        assert!(shards > 0 && vnodes > 0);
        let mut points = Vec::with_capacity(shards * vnodes);
        for s in 0..shards as u32 {
            for v in 0..vnodes as u32 {
                points.push((mix64(((s as u64) << 32) | v as u64), s));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// The shard owning `key`: the first ring point clockwise of the
    /// key's hash (wrapping).
    pub fn shard_of(&self, key: u64) -> usize {
        let h = mix64(key);
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.points[idx % self.points.len()];
        shard as usize
    }
}

/// Proxy tunables and topology.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Shard write endpoints (the per-shard writer engines), shard-index
    /// order. The ring routes over `shards.len()`.
    pub shards: Vec<NodeId>,
    /// Engine-side connection slots per shard: at most this many
    /// transactions in flight from this proxy to one shard's writer.
    pub slots_per_shard: usize,
    /// Per-shard queue depth at which new arrivals shed instead of queue.
    pub queue_watermark: usize,
    /// Queued transactions expire (shed) after waiting this long.
    pub queue_deadline: SimDuration,
    /// Deadline sweep cadence (bounds how stale an expired entry can sit
    /// when no responses are flowing to trigger dequeues).
    pub sweep_every: SimDuration,
    /// Virtual nodes per shard on the routing ring.
    pub vnodes: usize,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            shards: Vec::new(),
            slots_per_shard: 64,
            queue_watermark: 512,
            queue_deadline: SimDuration::from_millis(250),
            sweep_every: SimDuration::from_millis(50),
            vnodes: 64,
        }
    }
}

struct Queued {
    origin: NodeId,
    req: ClientRequest,
    enqueued: SimTime,
}

/// Per-shard pooling/queue state.
struct Lane {
    in_flight: usize,
    queue: VecDeque<Queued>,
}

/// Distinct sessions are tracked in a growable bitmap (fleet connection
/// ids are dense, starting at 0); ids past this bound are still served,
/// just not counted, keeping the bitmap's memory hard-capped at 2 MiB.
const SESSION_BITMAP_CAP: u64 = 1 << 24;

/// The proxy actor. Routes [`ClientRequest`]s from any origin to the
/// owning shard's writer and relays [`ClientResponse`]s back, applying
/// the pooling/admission state machine above.
///
/// Metrics: `proxy.requests`, `proxy.forwarded`, `proxy.queued`,
/// `proxy.shed_full`, `proxy.shed_deadline`, `proxy.responses`,
/// `proxy.sessions` (distinct), and `proxy.queue_ns` (queue wait of
/// forwarded requests). Per-shard rollups are attributed to the shard's
/// writer engine node: `proxy.shard_forwarded`, `proxy.shard_sheds`.
/// Gauges `proxy.in_flight` / `proxy.queued_depth` (refreshed each
/// sweep) expose pool pressure to the telemetry windows.
pub struct ProxyActor {
    cfg: ProxyConfig,
    ring: HashRing,
    lanes: Vec<Lane>,
    /// conn → (origin node, shard) for every in-flight transaction.
    pending: FxHashMap<u64, (NodeId, u32)>,
    /// Distinct-session bitmap (1 bit per seen connection id).
    seen: Vec<u64>,
    /// Distinct sessions admitted (== bits set in `seen`).
    pub sessions_seen: u64,
    /// Deepest any shard queue has been.
    pub queue_high_water: usize,
}

impl ProxyActor {
    pub fn new(cfg: ProxyConfig) -> ProxyActor {
        assert!(!cfg.shards.is_empty(), "proxy needs at least one shard");
        assert!(cfg.slots_per_shard > 0);
        let ring = HashRing::new(cfg.shards.len(), cfg.vnodes);
        let lanes = (0..cfg.shards.len())
            .map(|_| Lane {
                in_flight: 0,
                queue: VecDeque::new(),
            })
            .collect();
        ProxyActor {
            cfg,
            ring,
            lanes,
            pending: FxHashMap::default(),
            seen: Vec::new(),
            sessions_seen: 0,
            queue_high_water: 0,
        }
    }

    /// (in_flight, queued) per shard — inspection for tests.
    pub fn lane_depths(&self) -> Vec<(usize, usize)> {
        self.lanes
            .iter()
            .map(|l| (l.in_flight, l.queue.len()))
            .collect()
    }

    fn note_session(&mut self, ctx: &mut Ctx<'_>, conn: u64) {
        if conn >= SESSION_BITMAP_CAP {
            return;
        }
        let (word, bit) = ((conn / 64) as usize, 1u64 << (conn % 64));
        if word >= self.seen.len() {
            self.seen.resize(word + 1, 0);
        }
        if self.seen[word] & bit == 0 {
            self.seen[word] |= bit;
            self.sessions_seen += 1;
            ctx.inc("proxy.sessions", 1);
        }
    }

    fn shed(
        &self,
        ctx: &mut Ctx<'_>,
        shard: usize,
        origin: NodeId,
        req: &ClientRequest,
        reason: &str,
    ) {
        // Attribute the shed to the shard that was overloaded (owner =
        // that shard's writer engine) so per-shard telemetry rollups can
        // show *which* shard degraded, not just that the fleet shed.
        ctx.inc_for(self.cfg.shards[shard], "proxy.shard_sheds", 1);
        ctx.send(
            origin,
            ClientResponse {
                conn: req.conn,
                result: TxnResult::Aborted(reason.into()),
                issued_at: req.issued_at,
            },
        );
    }

    fn forward(&mut self, ctx: &mut Ctx<'_>, shard: usize, origin: NodeId, req: ClientRequest) {
        self.pending.insert(req.conn, (origin, shard as u32));
        self.lanes[shard].in_flight += 1;
        ctx.inc("proxy.forwarded", 1);
        ctx.inc_for(self.cfg.shards[shard], "proxy.shard_forwarded", 1);
        ctx.send(self.cfg.shards[shard], req);
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, origin: NodeId, req: ClientRequest) {
        ctx.inc("proxy.requests", 1);
        self.note_session(ctx, req.conn);
        let shard = self.ring.shard_of(req.txn.routing_key());
        let lane = &self.lanes[shard];
        if lane.in_flight < self.cfg.slots_per_shard {
            self.forward(ctx, shard, origin, req);
        } else if lane.queue.len() < self.cfg.queue_watermark {
            ctx.inc("proxy.queued", 1);
            let lane = &mut self.lanes[shard];
            lane.queue.push_back(Queued {
                origin,
                req,
                enqueued: ctx.now(),
            });
            self.queue_high_water = self.queue_high_water.max(lane.queue.len());
        } else {
            ctx.inc("proxy.shed_full", 1);
            self.shed(ctx, shard, origin, &req, "shed: admission queue full");
        }
    }

    /// A slot freed on `shard`: pull queued work forward, expiring stale
    /// entries. FIFO deadlines are monotone, so expired entries are
    /// always a prefix of the queue.
    fn drain(&mut self, ctx: &mut Ctx<'_>, shard: usize) {
        while self.lanes[shard].in_flight < self.cfg.slots_per_shard {
            let Some(q) = self.lanes[shard].queue.pop_front() else {
                break;
            };
            let waited = ctx.now().since(q.enqueued);
            if waited > self.cfg.queue_deadline {
                ctx.inc("proxy.shed_deadline", 1);
                self.shed(ctx, shard, q.origin, &q.req, "shed: queue deadline");
                continue;
            }
            ctx.record("proxy.queue_ns", waited.nanos());
            self.forward(ctx, shard, q.origin, q.req);
        }
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, resp: ClientResponse) {
        let Some((origin, shard)) = self.pending.remove(&resp.conn) else {
            return; // stale (e.g. engine restarted and re-acked)
        };
        let shard = shard as usize;
        self.lanes[shard].in_flight = self.lanes[shard].in_flight.saturating_sub(1);
        ctx.inc("proxy.responses", 1);
        ctx.send(origin, resp);
        self.drain(ctx, shard);
    }

    /// Expire queued entries that blew their deadline while no responses
    /// were flowing (stalled or partitioned shard).
    fn sweep(&mut self, ctx: &mut Ctx<'_>) {
        for shard in 0..self.lanes.len() {
            loop {
                let lane = &self.lanes[shard];
                let Some(front) = lane.queue.front() else {
                    break;
                };
                if ctx.now().since(front.enqueued) <= self.cfg.queue_deadline {
                    break;
                }
                let q = self.lanes[shard].queue.pop_front().expect("peeked");
                ctx.inc("proxy.shed_deadline", 1);
                self.shed(ctx, shard, q.origin, &q.req, "shed: queue deadline");
            }
        }
        // Pool-pressure gauges, sampled by the telemetry windows: how
        // much work this proxy is holding right now.
        let (in_flight, queued) = self.lanes.iter().fold((0u64, 0u64), |(f, q), l| {
            (f + l.in_flight as u64, q + l.queue.len() as u64)
        });
        ctx.gauge("proxy.in_flight", in_flight);
        ctx.gauge("proxy.queued_depth", queued);
        ctx.set_timer(self.cfg.sweep_every, TAG_SWEEP);
    }
}

impl Actor for ProxyActor {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Start | ActorEvent::Restarted => {
                ctx.set_timer(self.cfg.sweep_every, TAG_SWEEP);
            }
            ActorEvent::Timer { tag: TAG_SWEEP } => self.sweep(ctx),
            ActorEvent::Message { from, msg } => {
                let msg = match msg.downcast::<ClientRequest>() {
                    Ok(req) => {
                        self.on_request(ctx, from, req);
                        return;
                    }
                    Err(msg) => msg,
                };
                if let Ok(resp) = msg.downcast::<ClientResponse>() {
                    self.on_response(ctx, resp);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_covers_all_shards_roughly_evenly() {
        let ring = HashRing::new(16, 64);
        let mut hits = vec![0u32; 16];
        for k in 0..100_000u64 {
            hits[ring.shard_of(k)] += 1;
        }
        let (min, max) = (
            *hits.iter().min().unwrap() as f64,
            *hits.iter().max().unwrap() as f64,
        );
        // 64 vnodes keeps the spread within ~2x.
        assert!(min > 0.0 && max / min < 2.5, "{hits:?}");
    }

    #[test]
    fn ring_is_stable_under_shard_add() {
        // Growing N → N+1 shards must move only ~1/(N+1) of the keys
        // (bounded key movement, the consistent-hashing contract).
        for n in [2usize, 4, 8, 16] {
            let before = HashRing::new(n, 64);
            let after = HashRing::new(n + 1, 64);
            let keys = 50_000u64;
            let mut moved = 0u64;
            for k in 0..keys {
                let (b, a) = (before.shard_of(k), after.shard_of(k));
                if b != a {
                    // every moved key must land on the NEW shard — old
                    // shards never exchange keys among themselves
                    assert_eq!(a, n, "key {k} moved {b} → {a} with new shard {n}");
                    moved += 1;
                }
            }
            let frac = moved as f64 / keys as f64;
            let ideal = 1.0 / (n + 1) as f64;
            assert!(
                frac < 2.0 * ideal,
                "n={n}: moved {frac:.3}, ideal {ideal:.3}"
            );
            assert!(
                frac > 0.2 * ideal,
                "n={n}: moved {frac:.3} suspiciously few"
            );
        }
    }

    #[test]
    fn ring_is_stable_under_shard_remove() {
        // Shrinking N → N-1 moves exactly the removed shard's keys.
        let n = 8usize;
        let before = HashRing::new(n, 64);
        let after = HashRing::new(n - 1, 64);
        for k in 0..50_000u64 {
            let b = before.shard_of(k);
            if b != n - 1 {
                assert_eq!(after.shard_of(k), b, "surviving shard's key {k} moved");
            }
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let a = HashRing::new(4, 64);
        let b = HashRing::new(4, 64);
        for k in 0..10_000u64 {
            assert_eq!(a.shard_of(k), b.shard_of(k));
        }
    }
}
