//! Seed-driven load generators that speak `aurora_core::wire::ClientRequest`.
//!
//! The benchmark owns its load: the transaction generator and the session
//! fleet started as copies of `aurora_bench::workload::gen_txn` and
//! `aurora_bench::fleet::SessionFleet`, so a later edit to `crates/bench`
//! cannot change what is offered here. `--seed` is the only input; the
//! program under test sees nothing but the generated requests.
//!
//! Two actors:
//!
//! * [`Generator`] — `callers` connection slots driven either **closed
//!   loop** (a caller sends its next transaction when the previous one
//!   completes) or **open loop** (arrivals on a fixed, seed-drawn Poisson
//!   schedule; an arrival that finds every slot busy waits in a backlog).
//!   Latency is timed from the instant the transaction was *due*, so a
//!   stall is charged to every arrival it delayed, and how late the
//!   generator ran is recorded per transaction (`gap_ns`).
//! * [`Fleet`] — a lean session fleet (one `u32` per idle session, one
//!   kernel timer per tick) for the proxy tier.
//!
//! Both keep exact client-side samples (not registry histograms), so the
//! reported percentiles have no bucket error, and both keep the counts
//! the conservation check needs: every transaction attempted is committed,
//! aborted, shed or still in flight.

use std::collections::VecDeque;

use aurora_core::wire::{ClientRequest, ClientResponse, Op, OpResult, TxnResult, TxnSpec};
use aurora_sim::{Actor, ActorEvent, Ctx, NodeId, SimDuration, SimRng, SimTime, Tag};

/// Payload bytes per written value (rows are 96 bytes; the engine pads).
pub const VALUE_SIZE: usize = 64;

const TAG_ARRIVAL: Tag = 1;
const TAG_SWEEP: Tag = 2;
const TAG_TICK: Tag = 3;

/// Marks a value written by the ledgered generator (see [`ledger_value`]).
const LEDGER_MAGIC: u64 = 0xA0B0_1ED6_E12D_57A7;

/// Transaction mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `selects` point reads.
    ReadOnly { selects: usize },
    /// `writes` upserts.
    WriteOnly { writes: usize },
    /// SysBench OLTP: 10 point selects, one scan(10), 4 upserts.
    Oltp,
}

/// One transaction of `mix` over keys `[0, keyspace)`.
///
/// Differs from the `crates/bench` original in one respect: a
/// transaction's upserts are issued in key order, so two transactions can
/// never wait on each other's row locks in a cycle. A deadlock would be
/// broken only by the 100 ms lock timeout and abort the transaction, and
/// the benchmark's workloads are meant to run without failed operations.
pub fn gen_txn(mix: Mix, keyspace: u64, rng: &mut SimRng) -> TxnSpec {
    let ks = keyspace.max(1);
    let mut val_rng = rng.fork();
    let mut upserts = |n: usize, rng: &mut SimRng| -> Vec<Op> {
        let mut keys: Vec<u64> = (0..n).map(|_| rng.range_u64(0, ks)).collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| {
                let mut v = vec![0u8; VALUE_SIZE];
                val_rng.bytes(&mut v);
                Op::Upsert(k, v)
            })
            .collect()
    };
    let ops = match mix {
        Mix::ReadOnly { selects } => (0..selects)
            .map(|_| Op::Get(rng.range_u64(0, ks)))
            .collect(),
        Mix::WriteOnly { writes } => upserts(writes, rng),
        Mix::Oltp => {
            let mut ops: Vec<Op> = (0..10).map(|_| Op::Get(rng.range_u64(0, ks))).collect();
            ops.push(Op::Scan(rng.range_u64(0, ks), 10));
            ops.extend(upserts(4, rng));
            ops
        }
    };
    TxnSpec { ops }
}

/// The value the ledgered generator writes for version `ver` of `key`.
pub fn ledger_value(key: u64, ver: u32) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_SIZE];
    v[..8].copy_from_slice(&(ver as u64).to_le_bytes());
    v[8..16].copy_from_slice(&key.to_le_bytes());
    v[16..24].copy_from_slice(&LEDGER_MAGIC.to_le_bytes());
    v
}

/// The version stored in a row read back for `key`; a row the ledgered
/// generator never wrote (the bootstrap image) is version 0.
pub fn ledger_version(key: u64, row: &[u8]) -> u32 {
    let word = |i: usize| {
        row.get(i..i + 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    };
    if word(8) == Some(key) && word(16) == Some(LEDGER_MAGIC) {
        word(0).unwrap_or(0) as u32
    } else {
        0
    }
}

/// Counts and exact samples of one measured window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadStats {
    /// Transactions that became due inside the window.
    pub attempted: u64,
    /// Transactions already in flight when the window opened.
    pub carried_in: u64,
    pub commits: u64,
    /// Aborted by the engine and not retried.
    pub aborts: u64,
    /// Refused by proxy admission control.
    pub sheds: u64,
    /// Re-sends of a transaction (lost to a crash, or refused while the
    /// writer recovered). A retried transaction still counts once.
    pub retries: u64,
    /// Responses that matched no in-flight transaction.
    pub stale: u64,
    /// Due instant → commit response, per committed transaction.
    pub latency_ns: Vec<u64>,
    /// Due instant → first send, per transaction sent.
    pub gap_ns: Vec<u64>,
    /// Marked outage start → next commit response.
    pub outages_ns: Vec<u64>,
}

impl LoadStats {
    /// Every transaction is accounted for exactly once.
    pub fn conserved(&self, in_flight: u64) -> bool {
        self.attempted + self.carried_in == self.commits + self.aborts + self.sheds + in_flight
    }

    pub fn merge(&mut self, other: &LoadStats) {
        self.attempted += other.attempted;
        self.carried_in += other.carried_in;
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.sheds += other.sheds;
        self.retries += other.retries;
        self.stale += other.stale;
        self.latency_ns.extend_from_slice(&other.latency_ns);
        self.gap_ns.extend_from_slice(&other.gap_ns);
        self.outages_ns.extend_from_slice(&other.outages_ns);
    }
}

/// When the generator sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Each caller sends its next transaction when the last completes.
    Closed,
    /// Poisson arrivals at `tps`, drawn from the seed before the run.
    Open { tps: f64 },
}

/// Client-side retry, for workloads that crash the writer: a transaction
/// with no answer after `timeout`, or refused because the writer is
/// recovering, is sent again (same operations) until it commits.
#[derive(Debug, Clone, Copy)]
pub struct Retry {
    pub timeout: SimDuration,
    /// Sweep period: retries and timeouts are acted on at this grain.
    pub sweep: SimDuration,
}

#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    pub target: NodeId,
    pub callers: usize,
    pub arrival: Arrival,
    pub mix: Mix,
    pub keyspace: u64,
    pub seed: u64,
    pub retry: Option<Retry>,
    /// Write versioned values to caller-private keys and remember what was
    /// acknowledged (the durability ledger). `WriteOnly` mixes only.
    pub ledger: bool,
}

struct InFlight {
    conn: u64,
    txn: TxnSpec,
    due: SimTime,
    sent: SimTime,
    /// Waiting for the next sweep to be sent again.
    resend: bool,
}

/// Closed- or open-loop generator. See the module docs.
pub struct Generator {
    cfg: GeneratorConfig,
    txn_rng: SimRng,
    schedule_rng: SimRng,
    slots: Vec<Option<InFlight>>,
    /// Sends so far per slot; makes every connection id unique.
    slot_seq: Vec<u64>,
    free: Vec<u32>,
    /// Open loop: due instants of arrivals waiting for a free slot.
    backlog: VecDeque<SimTime>,
    next_due: SimTime,
    stopped: bool,
    outage_since: Option<SimTime>,
    /// Highest acknowledged version per key (ledger mode).
    acked: Vec<u32>,
    stats: LoadStats,
}

impl Generator {
    pub fn new(cfg: GeneratorConfig) -> Generator {
        assert!(cfg.callers > 0);
        assert!(
            !cfg.ledger || matches!(cfg.mix, Mix::WriteOnly { .. }),
            "the ledger tracks upserts only"
        );
        let mut root = SimRng::new(cfg.seed ^ 0x10AD_6E4E_7A70_0001);
        let txn_rng = root.fork();
        let schedule_rng = root.fork();
        let n = cfg.callers;
        Generator {
            txn_rng,
            schedule_rng,
            slots: (0..n).map(|_| None).collect(),
            slot_seq: vec![0; n],
            free: (0..n as u32).rev().collect(),
            backlog: VecDeque::new(),
            next_due: SimTime::ZERO,
            stopped: false,
            outage_since: None,
            acked: if cfg.ledger {
                vec![0; cfg.keyspace as usize]
            } else {
                Vec::new()
            },
            stats: LoadStats::default(),
            cfg,
        }
    }

    /// Open the measured window: forget samples, keep what is in flight.
    pub fn reset_window(&mut self) {
        self.stats = LoadStats {
            carried_in: self.in_flight(),
            ..LoadStats::default()
        };
    }

    pub fn stats(&self) -> &LoadStats {
        &self.stats
    }

    /// Transactions due but not yet answered (sent, or waiting for a slot).
    pub fn in_flight(&self) -> u64 {
        (self.slots.iter().filter(|s| s.is_some()).count() + self.backlog.len()) as u64
    }

    /// Start nothing new; transactions already sent still complete. Call
    /// after the window's statistics have been read: arrivals still waiting
    /// for a slot are dropped, which the window's books do not record.
    pub fn stop(&mut self) {
        self.stopped = true;
        self.backlog.clear();
    }

    /// The writer just went down: time from now to the next commit
    /// response is one `outages_ns` sample.
    pub fn mark_outage(&mut self, now: SimTime) {
        self.outage_since = Some(now);
    }

    /// Highest acknowledged version per key (ledger mode).
    pub fn acked_versions(&self) -> &[u32] {
        &self.acked
    }

    fn next_txn(&mut self, slot: u32) -> TxnSpec {
        if !self.cfg.ledger {
            return gen_txn(self.cfg.mix, self.cfg.keyspace, &mut self.txn_rng);
        }
        // caller-private keys: slot, slot + callers, slot + 2*callers, ...
        // so versions of one key are written strictly one after another
        let Mix::WriteOnly { writes } = self.cfg.mix else {
            unreachable!("checked in new()")
        };
        let stride = self.cfg.callers as u64;
        let own = (self.cfg.keyspace - slot as u64).div_ceil(stride);
        let mut keys: Vec<u64> = Vec::with_capacity(writes);
        while keys.len() < writes.min(own as usize) {
            let k = slot as u64 + stride * self.txn_rng.range_u64(0, own);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        keys.sort_unstable();
        TxnSpec {
            ops: keys
                .into_iter()
                .map(|k| Op::Upsert(k, ledger_value(k, self.acked[k as usize] + 1)))
                .collect(),
        }
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, slot: u32) {
        let seq = self.slot_seq[slot as usize];
        self.slot_seq[slot as usize] += 1;
        let conn = slot as u64 + seq * self.cfg.callers as u64;
        let inf = self.slots[slot as usize].as_mut().expect("slot in flight");
        inf.conn = conn;
        inf.sent = ctx.now();
        inf.resend = false;
        ctx.send(
            self.cfg.target,
            ClientRequest {
                conn,
                txn: inf.txn.clone(),
                issued_at: inf.due,
            },
        );
    }

    /// Begin the transaction that was due at `due` on a free slot.
    fn start(&mut self, ctx: &mut Ctx<'_>, slot: u32, due: SimTime) {
        let txn = self.next_txn(slot);
        self.slots[slot as usize] = Some(InFlight {
            conn: 0,
            txn,
            due,
            sent: ctx.now(),
            resend: false,
        });
        self.stats.gap_ns.push(ctx.now().since(due).nanos());
        self.send(ctx, slot);
    }

    /// A transaction became due now (closed loop) or at `due` (open loop).
    fn arrive(&mut self, ctx: &mut Ctx<'_>, due: SimTime) {
        self.stats.attempted += 1;
        match self.free.pop() {
            Some(slot) => self.start(ctx, slot, due),
            None => self.backlog.push_back(due),
        }
    }

    fn slot_freed(&mut self, ctx: &mut Ctx<'_>, slot: u32) {
        self.slots[slot as usize] = None;
        self.free.push(slot);
        if self.stopped {
            return;
        }
        match self.cfg.arrival {
            Arrival::Closed => self.arrive(ctx, ctx.now()),
            Arrival::Open { .. } => {
                if let Some(due) = self.backlog.pop_front() {
                    let slot = self.free.pop().expect("just freed");
                    self.start(ctx, slot, due);
                }
            }
        }
    }

    fn on_arrival_timer(&mut self, ctx: &mut Ctx<'_>) {
        let Arrival::Open { tps } = self.cfg.arrival else {
            return;
        };
        if self.stopped {
            return;
        }
        // everything due by now is sent now, each timed from its own due
        // instant: a stalled generator catches up instead of thinning the load
        while self.next_due <= ctx.now() {
            let due = self.next_due;
            self.arrive(ctx, due);
            let gap = self.schedule_rng.exponential(1.0 / tps.max(1e-9));
            self.next_due = due + SimDuration::from_secs_f64(gap).max(SimDuration::from_nanos(1));
        }
        ctx.set_timer(self.next_due.since(ctx.now()), TAG_ARRIVAL);
    }

    fn on_sweep(&mut self, ctx: &mut Ctx<'_>) {
        let Some(retry) = self.cfg.retry else { return };
        let now = ctx.now();
        for slot in 0..self.slots.len() as u32 {
            let due_for_resend = match &self.slots[slot as usize] {
                Some(inf) => inf.resend || now.since(inf.sent) >= retry.timeout,
                None => false,
            };
            if due_for_resend {
                self.stats.retries += 1;
                self.send(ctx, slot);
            }
        }
        if self.in_flight() > 0 || !self.stopped {
            ctx.set_timer(retry.sweep, TAG_SWEEP);
        }
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, resp: ClientResponse) {
        let slot = (resp.conn % self.cfg.callers as u64) as u32;
        let matches = self.slots[slot as usize]
            .as_ref()
            .is_some_and(|inf| inf.conn == resp.conn);
        if !matches {
            self.stats.stale += 1;
            return;
        }
        match resp.result {
            TxnResult::Committed(_) => {
                let inf = self.slots[slot as usize].take().expect("matched above");
                self.stats.commits += 1;
                self.stats.latency_ns.push(ctx.now().since(inf.due).nanos());
                if let Some(t) = self.outage_since.take() {
                    self.stats.outages_ns.push(ctx.now().since(t).nanos());
                }
                if self.cfg.ledger {
                    for op in &inf.txn.ops {
                        if let Op::Upsert(k, _) = op {
                            self.acked[*k as usize] += 1;
                        }
                    }
                }
                self.slot_freed(ctx, slot);
            }
            TxnResult::Aborted(ref reason) if reason.starts_with("shed") => {
                self.stats.sheds += 1;
                self.slot_freed(ctx, slot);
            }
            TxnResult::Aborted(_) if self.cfg.retry.is_some() => {
                // refused (the writer is recovering): same transaction
                // again at the next sweep
                self.slots[slot as usize]
                    .as_mut()
                    .expect("matched above")
                    .resend = true;
            }
            TxnResult::Aborted(_) => {
                self.stats.aborts += 1;
                self.slot_freed(ctx, slot);
            }
        }
    }
}

impl Actor for Generator {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Start => {
                if let Some(retry) = self.cfg.retry {
                    ctx.set_timer(retry.sweep, TAG_SWEEP);
                }
                match self.cfg.arrival {
                    Arrival::Closed => {
                        for _ in 0..self.cfg.callers {
                            self.arrive(ctx, ctx.now());
                        }
                    }
                    Arrival::Open { .. } => {
                        self.next_due = ctx.now();
                        self.on_arrival_timer(ctx);
                    }
                }
            }
            ActorEvent::Timer { tag: TAG_ARRIVAL } => self.on_arrival_timer(ctx),
            ActorEvent::Timer { tag: TAG_SWEEP } => self.on_sweep(ctx),
            ActorEvent::Message { msg, .. } => {
                if let Ok(resp) = msg.downcast::<ClientResponse>() {
                    self.on_response(ctx, resp);
                }
            }
            _ => {}
        }
    }
}

/// Fleet configuration: `sessions` logical sessions through one proxy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    pub proxy: NodeId,
    pub sessions: u32,
    /// First wire connection id (`conn = base_conn + idx`), so ids stay
    /// dense across fleets and the proxy's session bitmap stays small.
    pub base_conn: u64,
    pub mix: Mix,
    pub keyspace: u64,
    /// Mean think time between a response and the session's next
    /// transaction (exponential, clamped to 8x the mean).
    pub think: SimDuration,
    /// First sends are spread evenly over this ramp.
    pub ramp: SimDuration,
    /// Think-wheel grain: one kernel timer per tick.
    pub tick: SimDuration,
    pub seed: u64,
}

/// Lean session fleet: idle sessions sit in a coarse think wheel
/// (`Vec<Vec<u32>>`, one bucket per tick) behind a single kernel timer; a
/// session has at most one transaction in flight and re-enters the wheel
/// when its response (commit, abort or shed) arrives.
pub struct Fleet {
    cfg: FleetConfig,
    rng: SimRng,
    buckets: Vec<Vec<u32>>,
    tick_no: u64,
    started: SimTime,
    scratch: Vec<u32>,
    in_flight: u64,
    stats: LoadStats,
}

impl Fleet {
    pub fn new(cfg: FleetConfig) -> Fleet {
        assert!(cfg.sessions > 0 && cfg.tick.nanos() > 0);
        let rng = SimRng::new(cfg.seed ^ 0x5EED_F1EE_7000_0001 ^ cfg.base_conn);
        // the wheel spans the think clamp (8x mean) and the ramp
        let horizon = cfg.think.nanos().saturating_mul(8).max(cfg.ramp.nanos());
        let slots = (horizon / cfg.tick.nanos() + 2).max(4) as usize;
        Fleet {
            cfg,
            rng,
            buckets: (0..slots).map(|_| Vec::new()).collect(),
            tick_no: 0,
            started: SimTime::ZERO,
            scratch: Vec::new(),
            in_flight: 0,
            stats: LoadStats::default(),
        }
    }

    pub fn reset_window(&mut self) {
        self.stats = LoadStats {
            carried_in: self.in_flight,
            ..LoadStats::default()
        };
    }

    pub fn stats(&self) -> &LoadStats {
        &self.stats
    }

    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    fn park(&mut self, idx: u32, delay_ticks: u64) {
        let w = self.buckets.len() as u64;
        let slot = ((self.tick_no + delay_ticks.clamp(1, w - 1)) % w) as usize;
        self.buckets[slot].push(idx);
    }

    fn think_ticks(&mut self) -> u64 {
        let mean = self.cfg.think.secs_f64();
        let d = self.rng.exponential(mean).min(mean * 8.0);
        ((d / self.cfg.tick.secs_f64()).round() as u64).max(1)
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        self.tick_no += 1;
        let slot = (self.tick_no % self.buckets.len() as u64) as usize;
        self.scratch.clear();
        std::mem::swap(&mut self.scratch, &mut self.buckets[slot]);
        // a session is due at its tick; a fleet that ticks late is late
        let tick_due = self.started + SimDuration::from_nanos(self.tick_no * self.cfg.tick.nanos());
        let gap = ctx.now().since(tick_due).nanos();
        for i in 0..self.scratch.len() {
            let idx = self.scratch[i];
            let txn = gen_txn(self.cfg.mix, self.cfg.keyspace, &mut self.rng);
            self.stats.attempted += 1;
            self.stats.gap_ns.push(gap);
            self.in_flight += 1;
            ctx.send(
                self.cfg.proxy,
                ClientRequest {
                    conn: self.cfg.base_conn + idx as u64,
                    txn,
                    issued_at: tick_due,
                },
            );
        }
        ctx.set_timer(self.cfg.tick, TAG_TICK);
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, resp: ClientResponse) {
        let Some(off) = resp.conn.checked_sub(self.cfg.base_conn) else {
            return;
        };
        if off >= self.cfg.sessions as u64 {
            return;
        }
        self.in_flight -= 1;
        match &resp.result {
            TxnResult::Committed(_) => {
                self.stats.commits += 1;
                self.stats
                    .latency_ns
                    .push(ctx.now().since(resp.issued_at).nanos());
            }
            TxnResult::Aborted(reason) if reason.starts_with("shed") => self.stats.sheds += 1,
            TxnResult::Aborted(_) => self.stats.aborts += 1,
        }
        let d = self.think_ticks();
        self.park(off as u32, d);
    }
}

impl Actor for Fleet {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Start => {
                self.started = ctx.now();
                let tick_ns = self.cfg.tick.nanos();
                let n = self.cfg.sessions as u64;
                for idx in 0..self.cfg.sessions {
                    let at_ns = self.cfg.ramp.nanos().saturating_mul(idx as u64) / n;
                    self.park(idx, at_ns / tick_ns + 1);
                }
                ctx.set_timer(self.cfg.tick, TAG_TICK);
            }
            ActorEvent::Timer { tag: TAG_TICK } => self.on_tick(ctx),
            ActorEvent::Message { msg, .. } => {
                if let Ok(resp) = msg.downcast::<ClientResponse>() {
                    self.on_response(ctx, resp);
                }
            }
            _ => {}
        }
    }
}

/// The rows of a committed read-back transaction (`Get`s only), in order.
pub fn rows_of(result: &TxnResult) -> Option<Vec<Option<&[u8]>>> {
    let TxnResult::Committed(results) = result else {
        return None;
    };
    Some(
        results
            .iter()
            .map(|r| match r {
                OpResult::Row(row) => row.as_deref(),
                _ => None,
            })
            .collect(),
    )
}
