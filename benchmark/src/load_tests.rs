//! Generator tests against a stand-in engine that commits everything after
//! a fixed service time.

use std::collections::VecDeque;

use aurora_core::wire::{ClientRequest, ClientResponse, OpResult, TxnResult};
use aurora_sim::{
    Actor, ActorEvent, Ctx, NodeId, NodeOpts, Sim, SimDuration, SimRng, SimTime, Zone,
};

use crate::load::*;

const SERVICE: SimDuration = SimDuration::from_micros(500);

/// Commits (or refuses) every request `SERVICE` after it arrives.
struct Echo {
    queue: VecDeque<(NodeId, ClientRequest)>,
    refuse: bool,
}

impl Actor for Echo {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ActorEvent) {
        match ev {
            ActorEvent::Message { from, msg } => {
                if let Ok(req) = msg.downcast::<ClientRequest>() {
                    self.queue.push_back((from, req));
                    ctx.set_timer(SERVICE, 0);
                }
            }
            ActorEvent::Timer { .. } => {
                let (from, req) = self.queue.pop_front().expect("one timer per request");
                let result = if self.refuse {
                    TxnResult::Aborted("recovering".into())
                } else {
                    TxnResult::Committed(req.txn.ops.iter().map(|_| OpResult::Done).collect())
                };
                ctx.send(
                    from,
                    ClientResponse {
                        conn: req.conn,
                        result,
                        issued_at: req.issued_at,
                    },
                );
            }
            _ => {}
        }
    }
}

fn world(cfg: impl FnOnce(NodeId) -> GeneratorConfig) -> (Sim, NodeId, NodeId) {
    let mut sim = Sim::new(7);
    let echo = sim.add_node(
        "echo",
        Zone(0),
        Box::new(Echo {
            queue: VecDeque::new(),
            refuse: false,
        }),
        NodeOpts::default(),
    );
    let gen = sim.add_node(
        "load",
        Zone(0),
        Box::new(Generator::new(cfg(echo))),
        NodeOpts::default(),
    );
    (sim, echo, gen)
}

fn config(target: NodeId, arrival: Arrival) -> GeneratorConfig {
    GeneratorConfig {
        target,
        callers: 8,
        arrival,
        mix: Mix::WriteOnly { writes: 2 },
        keyspace: 1_000,
        seed: 3,
        retry: None,
        ledger: false,
    }
}

#[test]
fn mixes_have_the_named_shapes_and_ordered_writes() {
    let mut rng = SimRng::new(1);
    for _ in 0..200 {
        let t = gen_txn(Mix::Oltp, 1_000, &mut rng);
        assert_eq!(t.ops.len(), 15);
        assert_eq!(t.ops.iter().filter(|o| o.is_read()).count(), 11);
        let writes: Vec<u64> = t.ops.iter().filter_map(|o| o.write_key()).collect();
        assert!(writes.windows(2).all(|w| w[0] <= w[1]), "{writes:?}");
        assert!(t.ops.iter().all(|o| o.key() < 1_000));
    }
    let t = gen_txn(Mix::ReadOnly { selects: 10 }, 50, &mut rng);
    assert!(t.ops.len() == 10 && t.ops.iter().all(|o| o.is_read()));
}

#[test]
fn same_seed_same_requests() {
    let draw = |seed| {
        let mut rng = SimRng::new(seed);
        (0..50)
            .map(|_| gen_txn(Mix::Oltp, 10_000, &mut rng))
            .collect::<Vec<_>>()
    };
    assert_eq!(draw(11), draw(11));
    assert_ne!(draw(11), draw(12));
}

#[test]
fn ledger_values_carry_their_version() {
    let v = ledger_value(77, 9);
    assert_eq!(v.len(), VALUE_SIZE);
    // the engine pads a value to the row size
    let mut row = v.clone();
    row.resize(96, 0);
    assert_eq!(ledger_version(77, &row), 9);
    // another key's row, a bootstrap row and a short row all read as "never written"
    assert_eq!(ledger_version(78, &row), 0);
    assert_eq!(ledger_version(77, &[0u8; 96]), 0);
    assert_eq!(ledger_version(77, &row[..10]), 0);
}

#[test]
fn closed_loop_keeps_every_caller_busy_and_the_books_balance() {
    let (mut sim, _, gen) = world(|t| config(t, Arrival::Closed));
    sim.run_for(SimDuration::from_millis(20));
    sim.actor_mut::<Generator>(gen).reset_window();
    sim.run_for(SimDuration::from_millis(50));
    let g = sim.actor::<Generator>(gen);
    let s = g.stats();
    assert_eq!(g.in_flight(), 8);
    assert_eq!(s.carried_in, 8);
    assert!(s.commits > 100, "{}", s.commits);
    assert!(s.conserved(g.in_flight()), "{s:?}");
    assert_eq!(s.latency_ns.len() as u64, s.commits);
    // a closed loop is never late
    assert!(s.gap_ns.iter().all(|g| *g == 0));
}

/// A generator stalled for 20 ms must send, on waking, every transaction
/// that fell due meanwhile, and time each from its own due instant: the
/// stall is charged to the requests it delayed, and reported as lateness.
#[test]
fn open_loop_times_from_the_due_instant_across_a_stall() {
    let tps = 2_000.0;
    let (mut sim, _, gen) = world(|t| GeneratorConfig {
        callers: 64,
        ..config(t, Arrival::Open { tps })
    });
    sim.run_for(SimDuration::from_millis(50));
    sim.actor_mut::<Generator>(gen).reset_window();
    let quiet = sim.actor::<Generator>(gen).stats().clone();
    assert!(quiet.gap_ns.is_empty());

    sim.run_for(SimDuration::from_millis(30));
    let before = sim.actor::<Generator>(gen).stats().clone();
    assert!(
        before.gap_ns.iter().all(|g| *g == 0),
        "on time while not stalled"
    );
    let unloaded_max = *before.latency_ns.iter().max().unwrap();
    assert!(unloaded_max < 1_000_000, "{unloaded_max}");

    sim.stall_node(gen);
    sim.run_for(SimDuration::from_millis(20));
    sim.unstall_node(gen);
    sim.run_for(SimDuration::from_millis(30));

    let g = sim.actor::<Generator>(gen);
    let s = g.stats();
    // the offered load is the schedule's, stall or no stall: ~2000/s over 80 ms
    assert!((140..=180).contains(&s.attempted), "{}", s.attempted);
    assert!(s.conserved(g.in_flight()), "{s:?}");
    // ~40 arrivals fell due during the stall; the earliest waited almost all of it
    let late: Vec<u64> = s.gap_ns.iter().copied().filter(|g| *g > 0).collect();
    assert!((25..=60).contains(&late.len()), "{}", late.len());
    let worst_gap = *late.iter().max().unwrap();
    assert!(
        (15_000_000..=20_000_000).contains(&worst_gap),
        "{worst_gap}"
    );
    // and its latency includes that wait, although its service was as quick as ever
    let worst_latency = *s.latency_ns.iter().max().unwrap();
    assert!(
        worst_latency >= worst_gap + SERVICE.nanos(),
        "{worst_latency} vs {worst_gap}"
    );
}

#[test]
fn open_loop_backlog_waits_for_a_free_slot() {
    // 1 caller, service 0.5 ms => capacity 2000/s; offer 4000/s
    let (mut sim, _, gen) = world(|t| GeneratorConfig {
        callers: 1,
        ..config(t, Arrival::Open { tps: 4_000.0 })
    });
    sim.run_for(SimDuration::from_millis(100));
    let g = sim.actor::<Generator>(gen);
    let s = g.stats();
    assert!(s.conserved(g.in_flight()), "{s:?}");
    assert!(g.in_flight() > 50, "backlog grows: {}", g.in_flight());
    // lateness grows with the backlog and is part of the latency
    assert!(*s.gap_ns.last().unwrap() > 10_000_000);
    assert!(*s.latency_ns.last().unwrap() > *s.gap_ns.last().unwrap());
}

#[test]
fn refused_transactions_are_retried_until_they_commit_and_the_ledger_follows() {
    let (mut sim, echo, gen) = world(|t| GeneratorConfig {
        callers: 4,
        keyspace: 64,
        retry: Some(Retry {
            timeout: SimDuration::from_millis(10),
            sweep: SimDuration::from_millis(1),
        }),
        ledger: true,
        ..config(t, Arrival::Closed)
    });
    sim.run_for(SimDuration::from_millis(10));
    let acked_before: u64 = sim
        .actor::<Generator>(gen)
        .acked_versions()
        .iter()
        .map(|v| *v as u64)
        .sum();
    assert!(acked_before > 0);

    // the engine refuses everything for a while: nothing is acknowledged,
    // nothing is given up
    sim.actor_mut::<Echo>(echo).refuse = true;
    sim.actor_mut::<Generator>(gen)
        .mark_outage(SimTime(10_000_000));
    sim.run_for(SimDuration::from_millis(10));
    let g = sim.actor::<Generator>(gen);
    let acked_during: u64 = g.acked_versions().iter().map(|v| *v as u64).sum();
    assert!(acked_during <= acked_before + 8);
    assert!(g.stats().retries > 10);
    assert_eq!(g.stats().aborts, 0);
    assert_eq!(g.in_flight(), 4);

    sim.actor_mut::<Echo>(echo).refuse = false;
    sim.run_for(SimDuration::from_millis(10));
    let g = sim.actor::<Generator>(gen);
    let s = g.stats();
    assert!(s.conserved(g.in_flight()), "{s:?}");
    assert_eq!(s.outages_ns.len(), 1);
    assert!(s.outages_ns[0] >= 10_000_000, "{}", s.outages_ns[0]);
    // 2 upserts per commit, each bumping its key's version by one
    let acked_after: u64 = g.acked_versions().iter().map(|v| *v as u64).sum();
    assert_eq!(acked_after, 2 * s.commits);
}

#[test]
fn fleet_sessions_think_between_transactions_and_the_books_balance() {
    let mut sim = Sim::new(5);
    let echo = sim.add_node(
        "echo",
        Zone(0),
        Box::new(Echo {
            queue: VecDeque::new(),
            refuse: false,
        }),
        NodeOpts::default(),
    );
    let fleet = sim.add_node(
        "fleet",
        Zone(0),
        Box::new(Fleet::new(FleetConfig {
            proxy: echo,
            sessions: 1_000,
            base_conn: 5_000,
            mix: Mix::WriteOnly { writes: 1 },
            keyspace: 100,
            think: SimDuration::from_millis(100),
            ramp: SimDuration::from_millis(50),
            tick: SimDuration::from_millis(10),
            seed: 9,
        })),
        NodeOpts::default(),
    );
    sim.run_for(SimDuration::from_millis(300));
    sim.actor_mut::<Fleet>(fleet).reset_window();
    sim.run_for(SimDuration::from_secs(1));
    let f = sim.actor::<Fleet>(fleet);
    let s = f.stats();
    assert!(s.conserved(f.in_flight()), "{s:?}");
    // 1000 sessions, ~100 ms think + ~1 ms service => ~10k txn/s
    assert!((8_000..=11_000).contains(&s.commits), "{}", s.commits);
    assert!(s.gap_ns.iter().all(|g| *g == 0));
    assert!(s.latency_ns.iter().all(|l| *l >= SERVICE.nanos()));
}
