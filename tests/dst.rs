//! DST harness tests: the sweep passes on healthy code, verdicts are
//! deterministic, every invariant oracle detects a seeded violation
//! (negative tests), failing schedules shrink to minimal reproducers,
//! and the repair lifecycle survives a donor crash mid-repair.
//!
//! The scaled-up version of the sweep runs in CI
//! (`.github/workflows/dst.yml`); see `tests/README.md`.

use aurora::bench::dst::{self, DegradationBudget, DstConfig, OracleViolation, Oracles};
use aurora::core::cluster::Cluster;
use aurora::core::engine::{EngineActor, EngineStatus, HealthState};
use aurora::core::wire::{Op, OpResult, TxnResult, TxnSpec};
use aurora::log::{Lsn, PgId, SegmentId};
use aurora::sim::{trace, FaultAction, FaultPlan, Intensity, PacketChaos, SimDuration};
use aurora::storage::{ControlPlane, StorageNode};

fn conn_of(key: u64, version: u64) -> u64 {
    key * 1_000_000 + version
}

fn value_of(version: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&version.to_le_bytes());
    v[8..16].copy_from_slice(&version.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
    v
}

fn decode_version(row: &[u8]) -> u64 {
    u64::from_le_bytes(row[..8].try_into().unwrap())
}

/// Build the DST cluster, warm it up, and run `ticks` x 20ms of
/// sequential writes. Returns the cluster and last acked version per key.
fn cluster_with_load(cfg: &DstConfig, ticks: u64) -> (Cluster, Vec<u64>) {
    let mut c = Cluster::build(dst::cluster_config(cfg));
    if cfg.trace {
        c.sim.trace.enable(dst::TRACE_CAPACITY);
    }
    c.sim.run_for(SimDuration::from_millis(300));
    let keys = cfg.keys as usize;
    let mut next_version = vec![1u64; keys];
    let mut last_acked = vec![0u64; keys];
    for _ in 0..ticks {
        for k in 0..cfg.keys {
            let ki = k as usize;
            let v = next_version[ki];
            c.submit(conn_of(k, v), TxnSpec::single(Op::Upsert(k, value_of(v))));
        }
        c.sim.run_for(SimDuration::from_millis(20));
        for resp in c.responses() {
            let key = (resp.conn / 1_000_000) as usize;
            let version = resp.conn % 1_000_000;
            if key >= keys || version != next_version[key] {
                continue;
            }
            if let TxnResult::Committed(_) = resp.result {
                last_acked[key] = version;
            }
            next_version[key] = version + 1;
        }
    }
    (c, last_acked)
}

// ---------------------------------------------------------------- sweep

/// A healthy build passes a multi-seed sweep: every oracle quiet on every
/// generated schedule. (CI runs hundreds of seeds; this is the smoke
/// slice that keeps tier-1 fast.)
#[test]
fn sweep_passes_all_oracles() {
    for seed in 0..4 {
        let report = dst::run_seed(&DstConfig {
            seed,
            ..Default::default()
        });
        assert!(
            report.passed(),
            "seed {seed} failed: {:?}",
            report.violations
        );
        assert!(report.commits > 0, "seed {seed}: no forward progress");
    }
}

/// Same seed => same plan => bit-identical verdict, including the final
/// simulated clock (the strongest cheap digest of the event order).
#[test]
fn same_seed_gives_identical_report() {
    let cfg = DstConfig {
        seed: 7,
        ..Default::default()
    };
    let a = dst::run_seed(&cfg);
    let b = dst::run_seed(&cfg);
    assert_eq!(a, b, "replay diverged");
}

/// Same seed with tracing on => byte-identical rendered traces (Chrome
/// JSON, NDJSON, watermark timeline). The trace rides on simulated time
/// and interned kinds only, so it is as deterministic as the run itself
/// — and it must capture the commit causal chain, not just be empty.
#[test]
fn same_seed_gives_identical_trace() {
    let cfg = DstConfig {
        seed: 7,
        trace: true,
        ..Default::default()
    };
    let a = dst::run_seed(&cfg);
    let b = dst::run_seed(&cfg);
    let dump = a.trace.as_ref().expect("traced run must carry a dump");
    for kind in ["engine.commit", "engine.batch_quorum", "storage.persist"] {
        assert!(
            dump.ndjson.contains(kind),
            "trace missing {kind} spans from the commit chain"
        );
    }
    assert!(
        dump.watermarks.contains("wm.vdl"),
        "watermark timeline must record VDL advances"
    );
    assert_eq!(a.trace, b.trace, "traces diverged between same-seed runs");
    assert_eq!(a, b, "replay diverged");
}

/// Same seed => bit-identical *per-node metric counters* and network
/// accounting, not just the report digest. This pins the substrate fast
/// paths (interned metric ids, shared log batches, materialization
/// cache, fast-hash maps): none of them may shift a single counter on
/// any node between two runs of the same seed.
#[test]
fn same_seed_gives_identical_metric_counters() {
    type Digest = (Vec<(u32, String, u64)>, u64, u64, u64, u64);
    fn digest() -> Digest {
        let cfg = DstConfig {
            seed: 11,
            ..Default::default()
        };
        let (c, acked) = cluster_with_load(&cfg, 25);
        let counters: Vec<(u32, String, u64)> = c
            .sim
            .metrics
            .counters_snapshot()
            .into_iter()
            .map(|(o, n, v)| (o, n.to_string(), v))
            .collect();
        (
            counters,
            acked.iter().sum::<u64>(),
            c.sim.net().packets,
            c.sim.net().bytes,
            c.sim.now().nanos(),
        )
    }
    let a = digest();
    let b = digest();
    assert!(a.1 > 0, "load must make progress");
    assert!(!a.0.is_empty(), "counters must have been recorded");
    assert_eq!(a, b, "per-node counters diverged between same-seed runs");
}

// ------------------------------------------------- oracle negative tests

/// The SCL oracle flags a storage node that silently loses durable log
/// tail (no epoch bump to justify it). Runs traced so the failure
/// message carries the per-PG watermark timeline — the same forensics
/// the DST runner dumps for failing seeds.
#[test]
fn scl_oracle_detects_forgotten_tail() {
    let cfg = DstConfig {
        trace: true,
        ..Default::default()
    };
    let (mut c, _) = cluster_with_load(&cfg, 20);
    let mut oracles = Oracles::new();
    oracles.poll(&c);

    let node = c.storage[0];
    let segment = {
        let actor = c.sim.actor::<StorageNode>(node);
        actor
            .hosted()
            .into_iter()
            .find(|s| actor.scl(*s).is_some_and(|scl| scl > Lsn(20)))
            .expect("a segment with written records")
    };
    c.sim
        .actor_mut::<StorageNode>(node)
        .test_forget_tail(segment, Lsn(1));
    oracles.poll(&c);

    assert!(
        oracles.violations().iter().any(
            |v| matches!(v, OracleViolation::SclRegressed { node: n, segment: s, .. }
                if *n == node && *s == segment)
        ),
        "SCL regression not detected: {:?}\nwatermark timeline at failure:\n{}",
        oracles.violations(),
        trace::watermark_table(&c.sim.trace)
    );
}

/// The epoch oracle flags a truncation guard that moves backwards (here:
/// a bit-rotted node forgetting its epoch after a real recovery bumped
/// it).
#[test]
fn epoch_oracle_detects_guard_reset() {
    let cfg = DstConfig::default();
    let (mut c, _) = cluster_with_load(&cfg, 10);

    // force a recovery so guards sit at a non-zero epoch
    c.sim.crash(c.engine);
    c.sim.run_for(SimDuration::from_millis(200));
    c.sim.restart(c.engine);
    for _ in 0..100 {
        c.sim.run_for(SimDuration::from_millis(100));
        if c.sim.actor::<EngineActor>(c.engine).status() == EngineStatus::Ready {
            break;
        }
    }

    let node = c.storage[0];
    let segment = {
        let actor = c.sim.actor::<StorageNode>(node);
        actor
            .hosted()
            .into_iter()
            .find(|s| actor.guard_epoch(*s).is_some_and(|e| e.0 > 0))
            .expect("recovery should have bumped at least one guard epoch")
    };

    let mut oracles = Oracles::new();
    oracles.poll(&c);
    c.sim
        .actor_mut::<StorageNode>(node)
        .test_reset_epoch(segment);
    oracles.poll(&c);

    assert!(
        oracles.violations().iter().any(
            |v| matches!(v, OracleViolation::EpochRegressed { node: n, segment: s, .. }
                if *n == node && *s == segment)
        ),
        "epoch regression not detected: {:?}",
        oracles.violations()
    );
}

/// The snapshot-safety tap fires when storage serves page images
/// materialized past the requested read point.
#[test]
fn snapshot_oracle_detects_reads_past_read_point() {
    let cfg = DstConfig::default();
    let mut c = Cluster::build(dst::cluster_config(&cfg));
    c.sim.run_for(SimDuration::from_millis(300));
    assert_eq!(
        c.sim.metrics.counter_total("oracle.read_past_read_point"),
        0
    );

    for node in c.storage.clone() {
        c.sim.actor_mut::<StorageNode>(node).test_serve_future(true);
    }

    // freeze the replica's view of the VDL, keep writing, then read
    // through it: its read points are now far behind the page images a
    // future-serving storage node returns
    let replica = c.replicas[0];
    c.sim.partition_both(replica, c.engine, true);
    for version in 1..=50u64 {
        for k in 0..cfg.keys {
            c.submit(
                conn_of(k, version),
                TxnSpec::single(Op::Upsert(k, value_of(version))),
            );
        }
        c.sim.run_for(SimDuration::from_millis(20));
    }
    let mut replica_conn = 500_000_000u64;
    for k in 0..cfg.keys {
        replica_conn += 1;
        c.submit_to_replica(0, replica_conn, TxnSpec::single(Op::Get(k)));
        c.sim.run_for(SimDuration::from_millis(20));
    }

    let stale = c.sim.metrics.counter_total("oracle.read_past_read_point");
    assert!(
        stale > 0,
        "future-serving storage never tripped the snapshot tap"
    );
    // exactly what run_plan turns the tap into
    let violation = OracleViolation::StaleRead { count: stale };
    assert!(matches!(
        violation,
        OracleViolation::StaleRead { count } if count > 0
    ));
}

/// The durability oracle catches committed data vanishing: every replica
/// of every segment forgets its log tail across a writer restart, and the
/// final read-back comes up short.
#[test]
fn durability_oracle_detects_lost_commits() {
    let cfg = DstConfig::default();
    let (mut c, last_acked) = cluster_with_load(&cfg, 25);
    assert!(
        last_acked.iter().any(|v| *v > 0),
        "workload never committed"
    );

    c.sim.crash(c.engine);
    c.sim.run_for(SimDuration::from_millis(100));
    for node in c.storage.clone() {
        let hosted = c.sim.actor::<StorageNode>(node).hosted();
        let actor = c.sim.actor_mut::<StorageNode>(node);
        for segment in hosted {
            actor.test_forget_tail(segment, Lsn(4));
        }
    }
    c.sim.restart(c.engine);
    for _ in 0..200 {
        c.sim.run_for(SimDuration::from_millis(100));
        if c.sim.actor::<EngineActor>(c.engine).status() == EngineStatus::Ready {
            break;
        }
    }
    assert_eq!(
        c.sim.actor::<EngineActor>(c.engine).status(),
        EngineStatus::Ready,
        "writer must recover to Ready for the read-back"
    );

    // the durability read-back, as run_plan performs it
    let mut violations = Vec::new();
    for k in 0..cfg.keys {
        c.submit(conn_of(k, 900_000), TxnSpec::single(Op::Get(k)));
    }
    c.sim.run_for(SimDuration::from_secs(3));
    let rs = c.responses();
    for k in 0..cfg.keys {
        let acked = last_acked[k as usize];
        let got = rs
            .iter()
            .find(|r| r.conn == conn_of(k, 900_000))
            .and_then(|r| match &r.result {
                TxnResult::Committed(results) => match &results[0] {
                    OpResult::Row(Some(row)) => Some(decode_version(row)),
                    _ => Some(0),
                },
                _ => None,
            })
            .unwrap_or(0);
        if got < acked {
            violations.push(OracleViolation::DurabilityLoss { key: k, acked, got });
        }
    }
    assert!(
        !violations.is_empty(),
        "forgetting every log tail must surface as durability loss"
    );
}

/// The convergence oracle flags a PG that cannot return to full healthy
/// membership (a permanent kill with an empty spare pool).
#[test]
fn convergence_oracle_detects_unhealed_membership() {
    let cfg = DstConfig {
        seed: 11,
        spares: 0,
        converge_budget: SimDuration::from_secs(3),
        ..Default::default()
    };
    let victim = 1; // first storage node (layout: client=0, storage=1..)
    let plan = FaultPlan::new().at(SimDuration::from_millis(100), FaultAction::Crash(victim));
    let report = dst::run_plan(&cfg, &plan);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, OracleViolation::NotConverged { .. })),
        "dead member with no spare must fail convergence: {:?}",
        report.violations
    );
}

/// The liveness oracle flags a wedged repair: without the supervision
/// deadline (repair_timeout = None), a donor crash mid-repair stalls the
/// job forever.
#[test]
fn liveness_oracle_detects_wedged_repair() {
    let cfg = DstConfig {
        repair_timeout: None, // unsupervised: this is the bug the deadline fixes
        ..Default::default()
    };
    let (mut c, _) = cluster_with_load(&cfg, 10);
    let control_id = c.control.expect("DST clusters run a control plane");

    let victim = c.storage[0];
    c.sim.crash(victim);
    let (donor, replacement) =
        await_repair_job(&mut c, control_id).expect("control never started a repair");
    // kill both ends of the copy: the job can never report RepairDone
    c.sim.crash(donor);
    c.sim.crash(replacement);
    c.sim.run_for(SimDuration::from_secs(5));
    c.sim.restart(donor);
    c.sim.restart(replacement);
    c.sim.run_for(SimDuration::from_secs(5));

    assert!(
        c.sim.actor::<ControlPlane>(control_id).in_repair_count() > 0,
        "without a deadline the orphaned repair job should still be wedged"
    );
    let violations = Oracles::check_convergence(&c);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::Wedged { .. })),
        "wedged repair not flagged: {violations:?}"
    );
}

/// The liveness oracle flags a stuck group-commit flush: a seeded
/// ship-path defect leaves batches staged forever, the writer looks
/// perfectly Ready, every storage-side convergence check passes — but
/// commits can never become durable again. `await_convergence` must call
/// that wedged.
#[test]
fn liveness_oracle_detects_stuck_flush() {
    let cfg = DstConfig::default();
    let (mut c, _) = cluster_with_load(&cfg, 10);

    // inject the defect, then offer writes that stage but never ship
    c.sim
        .actor_mut::<EngineActor>(c.engine)
        .test_stall_ship(true);
    for k in 0..cfg.keys {
        c.submit(
            conn_of(k, 800_000),
            TxnSpec::single(Op::Upsert(k, value_of(1))),
        );
    }
    c.sim.run_for(SimDuration::from_millis(500));
    assert!(
        c.sim.actor::<EngineActor>(c.engine).staged_records() > 0,
        "the stalled ship path must leave records staged"
    );
    assert_eq!(
        c.sim.actor::<EngineActor>(c.engine).status(),
        EngineStatus::Ready,
        "the defect is silent: the writer still reports Ready"
    );

    let mut oracles = Oracles::new();
    let violations = dst::await_convergence(&mut c, SimDuration::from_secs(2), &mut oracles);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::Wedged { detail } if detail.contains("staged"))),
        "stuck flush not flagged as wedged: {violations:?}"
    );
}

// ------------------------------------------------------------ gray faults

/// Gray-fault sweeps (brownouts, flaky links, stalls under load) pass
/// every oracle, including bounded degradation against the clean twin.
/// (CI runs 100 gray seeds nightly; this is the tier-1 smoke slice.)
#[test]
fn gray_sweep_passes_all_oracles() {
    for seed in 0..3 {
        let report = dst::run_seed(&DstConfig {
            seed,
            intensity: Intensity::gray(),
            degradation: Some(DegradationBudget::default()),
            ..Default::default()
        });
        assert!(
            report.passed(),
            "gray seed {seed} failed: {:?}",
            report.violations
        );
        assert!(report.commits > 0, "gray seed {seed}: no forward progress");
    }
}

/// Same gray seed => bit-identical verdict: the new retransmit paths
/// (exponential backoff with seeded jitter, hedged re-ships) and the
/// health tracker replay deterministically.
#[test]
fn same_seed_gray_run_is_identical() {
    let cfg = DstConfig {
        seed: 3,
        intensity: Intensity::gray(),
        degradation: Some(DegradationBudget::default()),
        ..Default::default()
    };
    let a = dst::run_seed(&cfg);
    let b = dst::run_seed(&cfg);
    assert_eq!(a, b, "gray replay diverged");
}

/// The bounded-degradation oracle fires when a fault starves the commit
/// path: heavy packet loss for most of the window pushes both commits
/// and commit p99 far outside a tight budget.
#[test]
fn degradation_oracle_detects_starved_commits() {
    let ms = SimDuration::from_millis;
    let cfg = DstConfig {
        window: SimDuration::from_secs(1),
        degradation: Some(DegradationBudget {
            p99_multiple: 1.0,
            p99_floor_ms: 0.01,
            min_commit_fraction: 0.9,
        }),
        ..Default::default()
    };
    let plan = FaultPlan::new().packet_chaos_for(
        ms(100),
        ms(800),
        PacketChaos {
            drop: 0.4,
            duplicate: 0.0,
            delay: 0.2,
            delay_by: ms(5),
        },
    );
    let report = dst::run_plan(&cfg, &plan);
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            OracleViolation::DegradedCommits { .. } | OracleViolation::DegradedLatency { .. }
        )),
        "heavy loss under a tight budget must trip the degradation oracle: {:?}",
        report.violations
    );
}

/// The health-convergence oracle flags a writer whose gray-failure
/// tracker never clears a suspect (seeded via the frozen-health hook —
/// the decay/clear path is disabled, as a bookkeeping bug would).
#[test]
fn health_oracle_detects_lingering_suspects() {
    let cfg = DstConfig::default();
    let (mut c, _) = cluster_with_load(&cfg, 10);
    c.sim
        .actor_mut::<EngineActor>(c.engine)
        .test_taint_health(SegmentId::new(PgId(0), 0));
    assert!(c.sim.actor::<EngineActor>(c.engine).suspect_count() > 0);

    let mut oracles = Oracles::new();
    let violations = dst::await_convergence(&mut c, SimDuration::from_secs(2), &mut oracles);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::SuspectsLinger { count } if *count > 0)),
        "a suspect that never clears must fail health convergence: {violations:?}"
    );
}

/// Repeated read nacks from one storage node route retries away from it:
/// every nack is answered by a retry on a different replica (the reads
/// all still commit), each nack strikes the node's health entry, and a
/// writer that already knows a segment is unhealthy avoids it entirely.
#[test]
fn read_nacks_route_retries_away_from_bad_replica() {
    let cfg = DstConfig {
        seed: 5,
        ..Default::default()
    };
    let (mut c, _) = cluster_with_load(&cfg, 15);
    // Every storage node nacks except the last: any fetch that does not
    // start on the good node is forced through the nack -> strike ->
    // retry-elsewhere loop until it lands there. (A single nacking node
    // would make the test hinge on the RNG picking it first.)
    let good = *c.storage.last().unwrap();
    let victim = c.storage[0];
    for node in c.storage.clone() {
        if node != good {
            c.sim.actor_mut::<StorageNode>(node).test_nack_reads(true);
        }
    }

    // Cold-cache the writer so Gets must fetch pages from storage.
    let recycle = |c: &mut Cluster| {
        c.sim.crash(c.engine);
        c.sim.run_for(SimDuration::from_millis(100));
        c.sim.restart(c.engine);
        for _ in 0..200 {
            c.sim.run_for(SimDuration::from_millis(50));
            if c.sim.actor::<EngineActor>(c.engine).status() == EngineStatus::Ready {
                return;
            }
        }
        panic!("writer never recovered");
    };
    recycle(&mut c);

    // Phase 1: fetches that land on the nacking node get retried
    // elsewhere — retry and strike counts match the nacks exactly.
    let nacks0 = c.sim.metrics.counter_total("engine.read_nacks");
    let retries0 = c.sim.metrics.counter_total("engine.read_retries");
    let strikes0 = c.sim.metrics.counter_total("engine.health_strikes");
    for k in 0..cfg.keys {
        c.submit(conn_of(k, 800_000), TxnSpec::single(Op::Get(k)));
    }
    c.sim.run_for(SimDuration::from_millis(500));
    let nacks = c.sim.metrics.counter_total("engine.read_nacks") - nacks0;
    let retries = c.sim.metrics.counter_total("engine.read_retries") - retries0;
    let strikes = c.sim.metrics.counter_total("engine.health_strikes") - strikes0;
    assert!(
        nacks > 0,
        "seed 5 must land at least one read on the nacker"
    );
    assert_eq!(retries, nacks, "every nack must be answered by a retry");
    assert_eq!(strikes, nacks, "every nack must strike the node's health");
    let rs = c.responses();
    for k in 0..cfg.keys {
        let resp = rs.iter().find(|r| r.conn == conn_of(k, 800_000));
        assert!(
            matches!(resp.map(|r| &r.result), Some(TxnResult::Committed(_))),
            "key {k}: read must succeed despite the nacking replica"
        );
    }

    // Phase 2: a writer that already believes a node is degraded never
    // sends it a read in the first place (restart clears the cache again;
    // the taint hook reinstates the health verdict the nacks had built).
    // Only the victim keeps nacking — everyone else heals.
    for node in c.storage.clone() {
        if node != victim {
            c.sim.actor_mut::<StorageNode>(node).test_nack_reads(false);
        }
    }
    recycle(&mut c);
    let hosted = c.sim.actor::<StorageNode>(victim).hosted();
    for seg in &hosted {
        c.sim
            .actor_mut::<EngineActor>(c.engine)
            .test_taint_health(*seg);
        assert_eq!(
            c.sim.actor::<EngineActor>(c.engine).health_state(*seg),
            HealthState::Degraded
        );
    }
    let rejected0 = c.sim.metrics.counter(victim, "storage.read_rejected");
    for k in 0..cfg.keys {
        c.submit(conn_of(k, 810_000), TxnSpec::single(Op::Get(k)));
    }
    c.sim.run_for(SimDuration::from_millis(500));
    let rejected = c.sim.metrics.counter(victim, "storage.read_rejected") - rejected0;
    assert_eq!(
        rejected, 0,
        "no read may reach a node the writer already marks degraded"
    );
    let rs = c.responses();
    for k in 0..cfg.keys {
        let resp = rs.iter().find(|r| r.conn == conn_of(k, 810_000));
        assert!(
            matches!(resp.map(|r| &r.result), Some(TxnResult::Committed(_))),
            "key {k}: read must succeed while avoiding the degraded node"
        );
    }
}

// ------------------------------------------------------ repair lifecycle

/// Regression for the stuck-repair bug: a donor crash mid-repair no
/// longer wedges the PG — the deadline requeues the job onto a new donor,
/// the PG converges, and the crashed donor is reclaimed as a spare once
/// it comes back.
#[test]
fn repair_survives_donor_crash() {
    let cfg = DstConfig::default(); // repair_timeout = Some(400ms)
    let (mut c, _) = cluster_with_load(&cfg, 10);
    let control_id = c.control.expect("DST clusters run a control plane");

    let victim = c.storage[0];
    c.sim.crash(victim);
    let (donor, replacement) =
        await_repair_job(&mut c, control_id).expect("control never started a repair");
    // the donor dies mid-copy (and takes the half-installed replacement
    // with it, so the copy can't complete either way)
    c.sim.crash(donor);
    c.sim.crash(replacement);

    // deadlines fire, jobs requeue onto live donors/spares, repairs drain
    let mut requeued = 0;
    for _ in 0..400 {
        c.sim.run_for(SimDuration::from_millis(50));
        let control = c.sim.actor::<ControlPlane>(control_id);
        requeued = control.repairs_requeued;
        if requeued >= 1 && control.in_repair_count() == 0 {
            break;
        }
    }
    assert!(requeued >= 1, "the orphaned job must have been requeued");

    // everyone that died comes back; ex-members that host nothing in the
    // new memberships are reclaimed into the spare pool (the leak fix)
    c.sim.restart(victim);
    c.sim.restart(donor);
    c.sim.restart(replacement);
    let mut converged = false;
    for _ in 0..400 {
        c.sim.run_for(SimDuration::from_millis(50));
        let control = c.sim.actor::<ControlPlane>(control_id);
        if control.in_repair_count() == 0
            && control.spares_reclaimed >= 1
            && Oracles::check_convergence(&c).is_empty()
        {
            converged = true;
            break;
        }
    }
    assert!(
        converged,
        "PG must converge and ex-members be reclaimed after a donor crash; \
         violations: {:?}, reclaimed: {}",
        Oracles::check_convergence(&c),
        c.sim.actor::<ControlPlane>(control_id).spares_reclaimed,
    );
}

/// Run until the control plane has a repair job in flight, polling at
/// 1ms so the job is caught before the copy completes. Returns the
/// job's (donor, replacement).
fn await_repair_job(c: &mut Cluster, control_id: u32) -> Option<(u32, u32)> {
    for _ in 0..2000 {
        c.sim.run_for(SimDuration::from_millis(1));
        let jobs = c.sim.actor::<ControlPlane>(control_id).repair_jobs();
        if let Some((_, donor, replacement)) = jobs.first() {
            return Some((*donor, *replacement));
        }
    }
    None
}

// --------------------------------------------------------------- shrink

/// A failing schedule shrinks to a minimal reproducer: only the fatal
/// entry (a permanent kill with no spare to replace it) survives ddmin.
#[test]
fn failing_schedule_shrinks_to_minimal_reproducer() {
    let cfg = DstConfig {
        seed: 13,
        spares: 0,
        window: SimDuration::from_secs(1),
        converge_budget: SimDuration::from_secs(2),
        ..Default::default()
    };
    let ms = SimDuration::from_millis;
    // one fatal entry buried in transient noise that heals on its own
    let plan = FaultPlan::new()
        .crash_for(ms(50), ms(100), 2)
        .at(ms(300), FaultAction::Crash(1))
        .packet_chaos_for(
            ms(400),
            ms(150),
            PacketChaos {
                drop: 0.05,
                duplicate: 0.0,
                delay: 0.1,
                delay_by: SimDuration::from_millis(1),
            },
        )
        .crash_for(ms(600), ms(100), 4);
    let report = dst::run_plan(&cfg, &plan);
    assert!(!report.passed(), "the seeded kill must fail convergence");

    // ddmin may legally isolate either the seeded kill or a kill it
    // creates by stripping a crash_for's restart — both are minimal
    // one-entry reproducers
    let minimal = dst::shrink_failing(&cfg, &plan);
    assert_eq!(
        minimal.entries().len(),
        1,
        "shrink should isolate a single fatal entry: {}",
        dst::format_plan(&minimal)
    );
    assert!(
        matches!(minimal.entries()[0].1, FaultAction::Crash(_)),
        "wrong surviving entry: {}",
        dst::format_plan(&minimal)
    );
    assert!(
        !dst::run_plan(&cfg, &minimal).passed(),
        "the minimal plan must still reproduce the failure"
    );
}

/// Golden digests captured on the pre-timer-wheel kernel (global
/// `BinaryHeap` scheduler): moderate-intensity runs of ten
/// seeds, digested as (commits, final simulated clock, events dispatched).
/// Every run stops at the same fixed length, so the clock column pins only
/// that the run reached its end. The event count is the strongest cheap
/// witness of the event order: a scheduler that reorders even one pair of
/// same-timestamp events, or an engine that sends, re-ships or strikes
/// differently, dispatches a different number of events. The events column
/// was added later and captured on the same engine that produced the
/// commit column. A legitimate behavioral change (new engine feature,
/// retuned timer) updates this table knowingly; a scheduler or refactor
/// bug does not get to.
#[test]
fn kernel_scheduler_swap_preserves_golden_digests() {
    const GOLDEN: &[(u64, u64, u64, u64)] = &[
        // (seed, commits, clock_ns, events)
        (0, 871, 5_351_000_000, 21_187),
        (1, 852, 5_351_000_000, 20_323),
        (2, 852, 5_351_000_000, 20_785),
        (3, 1182, 5_351_000_000, 24_609),
        (5, 1212, 5_351_000_000, 24_256),
        (7, 831, 5_351_000_000, 21_164),
        (11, 648, 5_351_000_000, 17_876),
        (17, 1124, 5_351_000_000, 23_417),
        (23, 672, 5_351_000_000, 17_729),
        (42, 631, 5_351_000_000, 18_880),
    ];
    for &(seed, commits, clock_ns, events) in GOLDEN {
        let report = dst::run_seed(&DstConfig {
            seed,
            ..Default::default()
        });
        assert!(report.passed(), "seed {seed}: {:?}", report.violations);
        assert_eq!(
            (report.commits, report.clock_ns, report.events),
            (commits, clock_ns, events),
            "seed {seed}: digest diverged from the golden"
        );
    }
}

/// The worker pool is pure scheduling: sweeping the same seeds with
/// `jobs = 1` (inline) and `jobs = 4` (threaded) must produce identical
/// reports — including full trace dumps, which `DstReport`'s `PartialEq`
/// compares byte-for-byte — in the same seed order.
#[test]
fn parallel_sweep_report_is_bit_identical_to_sequential() {
    use aurora::bench::sweep;

    let seeds: Vec<u64> = vec![0, 1, 2, 3, 5, 7, 11, 17];
    let run = |jobs: usize| -> Vec<dst::DstReport> {
        sweep::parallel_map(
            &seeds,
            jobs,
            |&seed| {
                dst::run_seed(&DstConfig {
                    seed,
                    // Trace two of the seeds so the comparison covers the
                    // rendered Chrome/NDJSON/watermark artifacts too.
                    trace: seed == 5 || seed == 7,
                    ..Default::default()
                })
            },
            |_, _| {},
        )
    };
    let sequential = run(1);
    let parallel = run(4);
    assert!(
        sequential.iter().any(|r| r.trace.is_some()),
        "traced seeds must carry dumps for the byte comparison to bite"
    );
    assert_eq!(
        sequential, parallel,
        "parallel sweep diverged from sequential"
    );
}
