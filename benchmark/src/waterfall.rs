//! Commit waterfall: where a commit's simulated time goes, folded from the
//! span chain the program already emits (`sim.trace`, read from outside).
//!
//! For every finished `engine.commit` span the fold finds the covering
//! `engine.batch_quorum` span (the first batch whose end LSN reaches the
//! commit LSN) and that batch's `storage.persist` spans (same `a0`), and
//! cuts the commit into consecutive stages:
//!
//! ```text
//! issued ─pre_seal─▶ seal ─staging_wait─▶ ship ─net_out─▶ first copy arrives
//!   ─disk_persist─▶ first copy durable ─quorum_spread─▶ write quorum durable
//!   ─vdl_publish─▶ every earlier batch at quorum too ─ack_return─▶ VDL covers
//! ```
//!
//! * `pre_seal` is not part of the span (it opens at seal) but of the
//!   `engine.commit_ns` sample, which the program times from the client's
//!   issue instant and carries as the span's closing `a1`; with it the
//!   stages of one commit sum exactly to its `engine.commit_ns` sample.
//! * "Quorum durable" is storage-side: the 4th distinct node's persist
//!   end, in the slowest protection group of the batch.
//! * `vdl_publish` is the in-order wait: the VDL cannot pass a batch before
//!   every earlier batch has its quorum. `ack_return` is what is left — the
//!   deciding ack's way back and the engine's handling of it.
//!
//! A commit whose chain cannot be rebuilt (batch or persists missing from
//! the ring, fewer than a quorum of persists, timestamps out of order) is
//! counted as uncovered, never guessed at.

use std::collections::{BTreeMap, HashMap};

use aurora_sim::{TraceBuffer, TracePhase};

#[derive(Debug, Default, Clone, PartialEq)]
pub struct Waterfall {
    /// Per-stage samples in ns, one per covered commit, in the order of
    /// the module docs: pre_seal, staging_wait, net_out, disk_persist,
    /// quorum_spread, vdl_publish, ack_return.
    pub stages: [Vec<u64>; 7],
    /// `engine.commit_ns` of the covered commits (the stages' sum).
    pub total_ns: Vec<u64>,
    pub covered: u64,
    pub uncovered: u64,
    /// Mean acks held when `engine.batch_quorum` closed.
    pub acks_at_close: f64,
    pub batches: u64,
}

impl Waterfall {
    pub fn covered_ratio(&self) -> f64 {
        let all = self.covered + self.uncovered;
        if all == 0 {
            0.0
        } else {
            self.covered as f64 / all as f64
        }
    }
}

#[derive(Default)]
struct Batch {
    ship_ns: u64,
    /// (pg, node, begin, end) of every persist (or fast ack) seen.
    persists: Vec<(u64, u32, u64, u64)>,
}

/// Storage-side milestones of one batch.
#[derive(Clone, Copy)]
struct Milestones {
    ship: u64,
    first_arrive: u64,
    first_durable: u64,
    quorum_durable: u64,
}

fn milestones(b: &Batch, write_quorum: usize) -> Option<Milestones> {
    // earliest persist per (pg, node): a retransmitted copy may persist twice
    let mut per_member: BTreeMap<(u64, u32), (u64, u64)> = BTreeMap::new();
    for &(pg, node, begin, end) in &b.persists {
        let e = per_member.entry((pg, node)).or_insert((begin, end));
        if end < e.1 {
            *e = (begin, end);
        }
    }
    let &(first_arrive, first_durable) = per_member.values().min_by_key(|(_, end)| *end)?;
    let mut by_pg: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for ((pg, _), (_, end)) in &per_member {
        by_pg.entry(*pg).or_default().push(*end);
    }
    let mut quorum_durable = 0;
    for ends in by_pg.values_mut() {
        ends.sort_unstable();
        quorum_durable = quorum_durable.max(*ends.get(write_quorum - 1)?);
    }
    Some(Milestones {
        ship: b.ship_ns,
        first_arrive,
        first_durable,
        quorum_durable,
    })
}

/// Fold the retained events of `buf`. `write_quorum` is the number of
/// copies a batch needs per protection group (4 of 6). `volume_of` maps a
/// node (writer or storage node) to its volume: LSNs are per volume, so a
/// sharded deployment has as many LSN spaces as shards.
pub fn fold(buf: &TraceBuffer, write_quorum: usize, volume_of: impl Fn(u32) -> u32) -> Waterfall {
    // kinds are compared by name: ids are interned per buffer
    let kind = |k: u32| buf.kind_name(k);

    let mut open_commits: HashMap<u64, (u64, u64)> = HashMap::new(); // span -> (seal, lsn)
                                                                     // (volume, seal, end, lsn, commit_ns)
    let mut commits: Vec<(u32, u64, u64, u64, u64)> = Vec::new();
    let mut batches: BTreeMap<(u32, u64), Batch> = BTreeMap::new(); // by (volume, end LSN)
    let mut open_persists: HashMap<u64, (u64, u64, u32, u64)> = HashMap::new();
    let (mut acks_sum, mut acks_n) = (0u64, 0u64);

    for e in buf.events() {
        match (kind(e.kind), e.phase) {
            ("engine.commit", TracePhase::Begin) => {
                open_commits.insert(e.span, (e.at_ns, e.a0));
            }
            ("engine.commit", TracePhase::End) => {
                if let Some((seal, lsn)) = open_commits.remove(&e.span) {
                    commits.push((volume_of(e.actor), seal, e.at_ns, lsn, e.a1));
                }
            }
            ("engine.batch_quorum", TracePhase::Begin) => {
                // a recovery may reuse an annulled LSN: the newer batch wins
                batches.insert(
                    (volume_of(e.actor), e.a0),
                    Batch {
                        ship_ns: e.at_ns,
                        persists: Vec::new(),
                    },
                );
            }
            ("engine.batch_quorum", TracePhase::End) => {
                acks_sum += e.a1;
                acks_n += 1;
            }
            ("storage.persist", TracePhase::Begin) => {
                open_persists.insert(e.span, (e.a0, e.a1, e.actor, e.at_ns));
            }
            ("storage.persist", TracePhase::End) => {
                if let Some((batch_end, pg, node, begin)) = open_persists.remove(&e.span) {
                    if let Some(b) = batches.get_mut(&(volume_of(node), batch_end)) {
                        b.persists.push((pg, node, begin, e.at_ns));
                    }
                }
            }
            ("storage.fast_ack", TracePhase::Instant) => {
                if let Some(b) = batches.get_mut(&(volume_of(e.actor), e.a0)) {
                    b.persists.push((e.a1, e.actor, e.at_ns, e.at_ns));
                }
            }
            _ => {}
        }
    }

    // storage-side milestones per batch, and per volume the running "every
    // batch up to here has its quorum" instant the VDL is bound by
    let mut marks: BTreeMap<(u32, u64), (Milestones, u64)> = BTreeMap::new();
    let (mut volume, mut prefix_quorum) = (None, 0u64);
    for (key, b) in &batches {
        if volume != Some(key.0) {
            (volume, prefix_quorum) = (Some(key.0), 0);
        }
        if let Some(m) = milestones(b, write_quorum) {
            prefix_quorum = prefix_quorum.max(m.quorum_durable);
            marks.insert(*key, (m, prefix_quorum));
        }
    }

    let mut out = Waterfall {
        batches: batches.len() as u64,
        acks_at_close: if acks_n == 0 {
            0.0
        } else {
            acks_sum as f64 / acks_n as f64
        },
        ..Waterfall::default()
    };
    for (volume, seal, end, lsn, commit_ns) in commits {
        // the covering batch must exist *and* be rebuilt: falling through to
        // a later batch would charge this commit with someone else's IO
        let covering = batches
            .range((volume, lsn)..=(volume, u64::MAX))
            .next()
            .map(|(k, _)| *k);
        let Some((m, prefix)) = covering.and_then(|k| marks.get(&k)) else {
            out.uncovered += 1;
            continue;
        };
        let chain = [
            seal,
            m.ship,
            m.first_arrive,
            m.first_durable,
            m.quorum_durable,
            *prefix,
            end,
        ];
        let span = end - seal;
        if chain.windows(2).any(|w| w[0] > w[1]) || commit_ns < span {
            out.uncovered += 1;
            continue;
        }
        out.covered += 1;
        out.stages[0].push(commit_ns - span);
        for (i, w) in chain.windows(2).enumerate() {
            out.stages[i + 1].push(w[1] - w[0]);
        }
        out.total_ns.push(commit_ns);
    }
    for s in out.stages.iter_mut() {
        s.sort_unstable();
    }
    out.total_ns.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_sim::SpanId;

    /// One batch (end LSN 100, one PG) shipped at `ship`, persisted on six
    /// nodes: copy `i` arrives at `arrive[i]` and is durable at `done[i]`.
    fn batch(t: &mut TraceBuffer, lsn: u64, ship: u64, arrive: [u64; 6], done: [u64; 6]) -> SpanId {
        let b = t.begin(ship, 9, "engine.batch_quorum", SpanId::NONE, lsn, 3);
        let mut evs: Vec<(u64, bool, usize)> = Vec::new();
        for i in 0..6 {
            evs.push((arrive[i], true, i));
            evs.push((done[i], false, i));
        }
        evs.sort();
        let mut spans = [SpanId::NONE; 6];
        for (at, begin, i) in evs {
            if begin {
                spans[i] = t.begin(at, 1 + i as u32, "storage.persist", SpanId::NONE, lsn, 0);
            } else {
                t.end(at, 1 + i as u32, "storage.persist", spans[i], lsn, 0);
            }
        }
        b
    }

    #[test]
    fn stages_sum_to_the_commit_sample_and_uncovered_is_counted() {
        let mut t = TraceBuffer::new();
        t.enable(1 << 12);
        // commit A: issued at 400 (600 before seal), sealed at 1000, LSN 95
        let a = t.begin(1_000, 9, "engine.commit", SpanId::NONE, 95, 1);
        // its batch ships at 1200; the 4th copy is durable at 2300
        let b = batch(
            &mut t,
            100,
            1_200,
            [1_300, 1_350, 1_400, 1_900, 1_950, 2_000],
            [1_500, 1_600, 1_700, 2_300, 2_400, 9_000],
        );
        t.end(2_700, 9, "engine.batch_quorum", b, 100, 4);
        t.end(2_700, 9, "engine.commit", a, 95, 2_700 - 400);
        // commit B: LSN 500, no batch reaches it -> uncovered
        let c = t.begin(3_000, 9, "engine.commit", SpanId::NONE, 500, 2);
        t.end(3_500, 9, "engine.commit", c, 500, 900);
        // commit C never ends: neither covered nor uncovered
        t.begin(3_600, 9, "engine.commit", SpanId::NONE, 600, 3);

        let w = fold(&t, 4, |_| 0);
        assert_eq!((w.covered, w.uncovered), (1, 1));
        assert_eq!(w.covered_ratio(), 0.5);
        let got: Vec<u64> = w.stages.iter().map(|s| s[0]).collect();
        //          pre_seal staging net_out disk spread publish ack_return
        assert_eq!(got, vec![600, 200, 100, 200, 800, 0, 400]);
        assert_eq!(got.iter().sum::<u64>(), w.total_ns[0]);
        assert_eq!(w.total_ns[0], 2_300);
        assert_eq!(w.acks_at_close, 4.0);
    }

    #[test]
    fn a_later_batch_waits_for_the_earlier_one() {
        let mut t = TraceBuffer::new();
        t.enable(1 << 12);
        // batch 100 is slow (quorum at 5000); batch 200 has its own quorum
        // at 2000 but the VDL cannot pass it before 5000
        let b1 = batch(&mut t, 100, 1_000, [1_100; 6], [5_000; 6]);
        let c = t.begin(1_400, 9, "engine.commit", SpanId::NONE, 200, 1);
        let b2 = batch(&mut t, 200, 1_500, [1_600; 6], [2_000; 6]);
        t.end(5_300, 9, "engine.batch_quorum", b1, 100, 6);
        t.end(5_300, 9, "engine.batch_quorum", b2, 200, 6);
        t.end(5_300, 9, "engine.commit", c, 200, 5_300 - 1_400);
        let w = fold(&t, 4, |_| 0);
        assert_eq!(w.covered, 1);
        assert_eq!(w.stages[5][0], 3_000, "vdl_publish = in-order wait");
        assert_eq!(w.stages[6][0], 300, "ack_return");
    }

    #[test]
    fn volumes_have_their_own_lsn_space() {
        let mut t = TraceBuffer::new();
        t.enable(1 << 12);
        // two writers (nodes 9 and 19) both ship a batch ending at LSN 100;
        // storage nodes 1-6 belong to the first, 11-16 to the second
        let volume_of = |node: u32| node / 10;
        for (writer, base, quorum_at) in [(9u32, 0u32, 2_000u64), (19, 10, 3_000)] {
            let c = t.begin(1_000, writer, "engine.commit", SpanId::NONE, 100, 1);
            let b = t.begin(1_100, writer, "engine.batch_quorum", SpanId::NONE, 100, 1);
            for i in 1..=6u32 {
                let s = t.begin(1_200, base + i, "storage.persist", SpanId::NONE, 100, 0);
                t.end(quorum_at, base + i, "storage.persist", s, 100, 0);
            }
            t.end(quorum_at + 300, writer, "engine.batch_quorum", b, 100, 6);
            t.end(
                quorum_at + 300,
                writer,
                "engine.commit",
                c,
                100,
                quorum_at + 300 - 1_000,
            );
        }
        let w = fold(&t, 4, volume_of);
        assert_eq!((w.covered, w.uncovered), (2, 0));
        // disk_persist differs per volume; folded as one volume the second
        // writer's batch would have replaced the first's
        assert_eq!(w.stages[3], vec![800, 1_800]);
    }

    #[test]
    fn below_quorum_is_uncovered() {
        let mut t = TraceBuffer::new();
        t.enable(1 << 12);
        let c = t.begin(1_000, 9, "engine.commit", SpanId::NONE, 100, 1);
        let b = t.begin(1_100, 9, "engine.batch_quorum", SpanId::NONE, 100, 1);
        for node in 1..=3u32 {
            let s = t.begin(1_200, node, "storage.persist", SpanId::NONE, 100, 0);
            t.end(1_400, node, "storage.persist", s, 100, 0);
        }
        t.end(2_000, 9, "engine.batch_quorum", b, 100, 4);
        t.end(2_000, 9, "engine.commit", c, 100, 1_000);
        let w = fold(&t, 4, |_| 0);
        assert_eq!((w.covered, w.uncovered), (0, 1));
    }
}
