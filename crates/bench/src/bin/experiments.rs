//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p aurora-bench --bin experiments -- all
//! cargo run --release -p aurora-bench --bin experiments -- table1 fig7
//! cargo run --release -p aurora-bench --bin experiments -- --scale 0.5 all
//! cargo run --release -p aurora-bench --bin experiments -- --scale 0.6 --bench-json BENCH.json all
//! ```
//!
//! `--bench-json PATH` additionally records a wall-clock benchmark
//! profile of the run — total and per-suite elapsed time, events
//! dispatched by the simulator, events/sec, peak RSS, and a latency
//! section (commit / storage-ack / replica-lag percentiles from one
//! representative run) — and writes it as JSON. It is a per-run profile
//! for inspection; the comparable performance record is the benchmark
//! ledger, `benchmark/LEDGER.ndjson`.
//!
//! `--trace DIR` captures a deterministic causal trace of every Aurora
//! run's measurement window into DIR (Chrome `trace_event` JSON +
//! NDJSON + watermark timeline per run).
//!
//! `--timeline` samples windowed telemetry (100ms sim-time windows, the
//! default Aurora SLO probes) over every Aurora run's measurement window
//! and prints a sparkline timeline after each run's stats. Observation
//! only: measured numbers are identical with or without it, and the
//! timeline rides the suite capture sink so output stays byte-identical
//! across `--jobs`.

use std::time::Instant;

use aurora_bench::experiments as ex;
use aurora_bench::harness::{self, run_aurora, AuroraParams};
use aurora_bench::sweep;
use aurora_bench::workload::Mix;

const ALL_SUITES: &[&str] = &[
    "table1",
    "fig6",
    "fig7",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig8",
    "fig11",
    "fig12",
    "recovery",
    "durability",
    "ablation_quorum",
    "ablation_cpl",
    "ablation_loss",
    "frontier",
    "grayfail",
    "connscale",
];

/// Run one named suite; false if the name is unknown.
fn run_suite(name: &str, scale: f64) -> bool {
    match name {
        "table1" => {
            ex::table1(scale);
        }
        "fig6" => {
            ex::fig6(scale);
        }
        "fig7" => {
            ex::fig7(scale);
        }
        "table2" => {
            ex::table2(scale);
        }
        "table3" => {
            ex::table3(scale);
        }
        "table4" => {
            ex::table4(scale);
        }
        "table5" => {
            ex::table5(scale);
        }
        "fig8" | "fig9" | "fig10" => {
            ex::fig8_9_10(scale);
        }
        "fig11" => {
            ex::fig11(scale);
        }
        "fig12" => {
            ex::fig12(scale);
        }
        "recovery" => {
            ex::recovery(scale);
        }
        "durability" => {
            ex::durability(scale);
        }
        "ablation_quorum" => {
            ex::ablation_quorum(scale);
        }
        "ablation_cpl" => {
            ex::ablation_cpl(scale);
        }
        "ablation_loss" => {
            ex::ablation_loss(scale);
        }
        "frontier" => {
            ex::frontier(scale);
        }
        "grayfail" => {
            ex::grayfail(scale);
        }
        _ => return false,
    }
    true
}

use aurora_bench::harness::peak_rss_kb;

/// Which connscale step ladder to run (`--smoke` / `--nightly`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnscaleLadder {
    Full,
    Smoke,
    Nightly,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// JSON number or `null` — absent percentiles (no samples) must not be
/// conflated with a measured 0.
fn json_f64(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.3}"),
        _ => "null".to_string(),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    if let Some(pos) = args.iter().position(|a| a == "--scale") {
        if pos + 1 < args.len() {
            scale = args[pos + 1].parse().unwrap_or(1.0);
            args.drain(pos..=pos + 1);
        }
    }
    let mut bench_json: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--bench-json") {
        if pos + 1 < args.len() {
            bench_json = Some(args[pos + 1].clone());
            args.drain(pos..=pos + 1);
        }
    }
    let mut jobs = sweep::default_jobs();
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        if pos + 1 < args.len() {
            jobs = args[pos + 1].parse().expect("--jobs N");
            args.drain(pos..=pos + 1);
        }
    }
    // connscale ladder selection: full (default), --smoke (5k/2sh, the
    // CI lane), or --nightly (50k/4sh)
    let mut connscale_ladder = ConnscaleLadder::Full;
    if let Some(pos) = args.iter().position(|a| a == "--smoke") {
        connscale_ladder = ConnscaleLadder::Smoke;
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--nightly") {
        connscale_ladder = ConnscaleLadder::Nightly;
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--timeline") {
        args.remove(pos);
        harness::set_timeline(true);
    }
    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        if pos + 1 < args.len() {
            let dir = std::path::PathBuf::from(&args[pos + 1]);
            args.drain(pos..=pos + 1);
            harness::set_trace_dir(Some(dir));
            // Trace artifact filenames come from a process-global sequence
            // whose order is scheduling-dependent; tracing forces a
            // sequential run so artifacts stay deterministic.
            jobs = 1;
        }
    }
    if args.is_empty() {
        eprintln!(
            "usage: experiments [--scale F] [--bench-json PATH] [--trace DIR] [--timeline] \
             [--jobs N] <name>... | all"
        );
        eprintln!("names: {}", ALL_SUITES.join(" "));
        std::process::exit(2);
    }

    // expand `all` so per-suite timings stay meaningful in bench mode
    let suites: Vec<String> = args
        .iter()
        .flat_map(|a| {
            if a == "all" {
                ALL_SUITES.iter().map(|s| s.to_string()).collect()
            } else {
                vec![a.clone()]
            }
        })
        .collect();

    // Validate names before fanning out so an unknown suite still exits
    // with a clean error instead of a worker panic.
    for name in &suites {
        let known =
            ALL_SUITES.contains(&name.as_str()) || matches!(name.as_str(), "fig9" | "fig10");
        if !known {
            eprintln!("unknown experiment: {name}");
            std::process::exit(2);
        }
    }

    /// One suite's captured run: output text, elapsed seconds, and the
    /// point series bench-json wants without re-running the sweep.
    struct SuiteRun {
        text: String,
        secs: f64,
        frontier: Option<Vec<ex::FrontierPoint>>,
        grayfail: Option<Vec<ex::GrayfailPoint>>,
        connscale: Option<Vec<ex::ConnscalePoint>>,
    }

    // Fan independent suites across the worker pool. Each suite's output
    // is captured on its worker and printed here in suite order, so the
    // report is byte-identical whatever `--jobs` says (`--jobs 1` runs
    // inline through the same capture path).
    let started = Instant::now();
    let runs = sweep::parallel_map(
        &suites,
        jobs,
        |name| {
            let t0 = Instant::now();
            let (text, (frontier, grayfail, connscale)) = ex::captured(|| match name.as_str() {
                "frontier" => (Some(ex::frontier(scale)), None, None),
                "grayfail" => (None, Some(ex::grayfail(scale)), None),
                "connscale" => {
                    let points = match connscale_ladder {
                        ConnscaleLadder::Full => ex::connscale(scale),
                        ConnscaleLadder::Smoke => ex::connscale_smoke(scale),
                        ConnscaleLadder::Nightly => ex::connscale_nightly(scale),
                    };
                    (None, None, Some(points))
                }
                _ => {
                    run_suite(name, scale);
                    (None, None, None)
                }
            });
            SuiteRun {
                text,
                secs: t0.elapsed().as_secs_f64(),
                frontier,
                grayfail,
                connscale,
            }
        },
        |_, run| print!("{}", run.text),
    );
    let wall = started.elapsed().as_secs_f64();
    let timings: Vec<(String, f64)> = suites
        .iter()
        .cloned()
        .zip(runs.iter().map(|r| r.secs))
        .collect();
    let mut frontier_points: Option<Vec<ex::FrontierPoint>> = None;
    let mut grayfail_points: Option<Vec<ex::GrayfailPoint>> = None;
    let mut connscale_points: Option<Vec<ex::ConnscalePoint>> = None;
    for run in runs {
        frontier_points = frontier_points.or(run.frontier);
        grayfail_points = grayfail_points.or(run.grayfail);
        connscale_points = connscale_points.or(run.connscale);
    }

    if let Some(path) = bench_json {
        let events = aurora_sim::sim::events_dispatched_total();
        let eps = if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        };
        // One representative run for the latency section: a write mix
        // with a replica exercises the full commit chain (commit, ack)
        // and the replica-lag path.
        let mut lat = AuroraParams::new(Mix::WriteOnly { writes: 1 });
        lat.replicas = 1;
        let ls = run_aurora(&lat);
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"aurora-bench/v1\",\n");
        out.push_str(&format!("  \"scale\": {scale},\n"));
        out.push_str(&format!("  \"wall_clock_s\": {wall:.3},\n"));
        out.push_str(&format!("  \"events_dispatched\": {events},\n"));
        out.push_str(&format!("  \"events_per_sec\": {eps:.0},\n"));
        out.push_str(&format!("  \"jobs\": {jobs},\n"));
        // Kernel queue/allocation gauges: the deepest event queue any
        // simulation reached, how many events fell past the timer-wheel
        // horizon into the overflow heap, and the largest recycled
        // event-storage pool — tracked so queue/memory growth regressions
        // show up in CI's profile diff, not just peak RSS.
        out.push_str(&format!(
            "  \"events_queue_high_water\": {},\n",
            aurora_sim::sim::events_queue_high_water_total()
        ));
        out.push_str(&format!(
            "  \"events_overflowed\": {},\n",
            aurora_sim::sim::events_overflow_total()
        ));
        out.push_str(&format!(
            "  \"kernel_event_pool_peak_bytes\": {},\n",
            aurora_sim::sim::events_reserved_bytes_peak()
        ));
        out.push_str(&format!("  \"peak_rss_kb\": {},\n", peak_rss_kb()));
        out.push_str("  \"latency\": {\n");
        out.push_str(&format!(
            "    \"commit_ms\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}},\n",
            json_f64(ls.commit_p50_ms),
            json_f64(ls.commit_p95_ms),
            json_f64(ls.commit_p99_ms),
            json_f64(ls.commit_max_ms)
        ));
        out.push_str(&format!(
            "    \"ack_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}},\n",
            json_f64(ls.ack_p50_us),
            json_f64(ls.ack_p95_us),
            json_f64(ls.ack_p99_us),
            json_f64(ls.ack_max_us)
        ));
        out.push_str(&format!(
            "    \"replica_lag_ms\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}\n",
            json_f64(ls.lag_p50_ms),
            json_f64(ls.lag_p95_ms),
            json_f64(ls.lag_p99_ms),
            json_f64(ls.lag_max_ms)
        ));
        out.push_str("  },\n");
        // The latency-vs-throughput frontier: ack and commit latency at
        // each offered open-loop rate.
        let points = frontier_points.unwrap_or_else(|| ex::frontier(scale));
        out.push_str("  \"frontier\": [\n");
        for (i, pt) in points.iter().enumerate() {
            let comma = if i + 1 == points.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"offered_tps\": {:.0}, \"tps\": {:.0}, \
                 \"ack_p50_us\": {}, \"ack_p99_us\": {}, \
                 \"commit_p50_ms\": {}, \"commit_p99_ms\": {}}}{}\n",
                pt.offered_tps,
                pt.stats.tps,
                json_f64(pt.stats.ack_p50_us),
                json_f64(pt.stats.ack_p99_us),
                json_f64(pt.stats.commit_p50_ms),
                json_f64(pt.stats.commit_p99_ms),
                comma
            ));
        }
        out.push_str("  ],\n");
        // Gray-failure sweep: commit/ack percentiles, retransmits and
        // hedges per fault scenario.
        let gpoints = grayfail_points.unwrap_or_else(|| ex::grayfail(scale));
        out.push_str("  \"grayfail\": [\n");
        for (i, pt) in gpoints.iter().enumerate() {
            let comma = if i + 1 == gpoints.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"tps\": {:.0}, \
                 \"ack_p50_us\": {}, \"ack_p99_us\": {}, \
                 \"commit_p50_ms\": {}, \"commit_p99_ms\": {}, \
                 \"retransmits\": {:.0}, \"hedged_ships\": {:.0}}}{}\n",
                json_escape(pt.scenario),
                pt.stats.tps,
                json_f64(pt.stats.ack_p50_us),
                json_f64(pt.stats.ack_p99_us),
                json_f64(pt.stats.commit_p50_ms),
                json_f64(pt.stats.commit_p99_ms),
                pt.stats.extra["engine.log_write_retransmits"],
                pt.stats.extra["engine.hedged_ships"],
                comma
            ));
        }
        out.push_str("  ],\n");
        // Connection-scale ladder: per-step throughput, latency, shed
        // rate and peak-RSS growth (the PR9 acceptance measurement:
        // monotone tps under capacity, graceful shedding past it, and
        // per-session memory within the ceiling). Only populated when
        // the connscale suite ran — the 1M step is too expensive to run
        // as an implicit bench-json side effect.
        let cpoints = connscale_points.unwrap_or_default();
        out.push_str("  \"connscale\": [\n");
        for (i, pt) in cpoints.iter().enumerate() {
            let comma = if i + 1 == cpoints.len() { "" } else { "," };
            // Per-shard rollups: the CI gate asserts the hash ring kept
            // the spread bounded (every shard admitted traffic, no shard
            // dominating).
            let per_shard: Vec<String> = pt
                .stats
                .per_shard
                .iter()
                .map(|r| {
                    format!(
                        "{{\"shard\": {}, \"forwarded\": {}, \"sheds\": {}, \
                         \"commits\": {}, \"commit_p99_ms\": {}}}",
                        r.shard,
                        r.forwarded,
                        r.sheds,
                        r.commits,
                        json_f64(r.commit_p99_ms)
                    )
                })
                .collect();
            out.push_str(&format!(
                "    {{\"sessions\": {}, \"shards\": {}, \"tps\": {:.0}, \
                 \"commit_p50_ms\": {}, \"commit_p99_ms\": {}, \"txn_p99_ms\": {}, \
                 \"queue_p99_ms\": {}, \"shed_rate\": {:.4}, \"warmup_s\": {:.2}, \
                 \"admitted\": {}, \"commits\": {}, \"sheds\": {}, \
                 \"rss_delta_kb\": {}, \"per_shard\": [{}]}}{}\n",
                pt.sessions,
                pt.shards,
                pt.stats.tps,
                json_f64(pt.stats.commit_p50_ms),
                json_f64(pt.stats.commit_p99_ms),
                json_f64(pt.stats.txn_p99_ms),
                json_f64(pt.stats.queue_p99_ms),
                pt.stats.shed_rate,
                pt.stats.warmup_s,
                pt.stats.admitted,
                pt.stats.commits,
                pt.stats.sheds,
                pt.stats.rss_delta_kb,
                per_shard.join(", "),
                comma
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"suites\": [\n");
        for (i, (name, secs)) in timings.iter().enumerate() {
            let comma = if i + 1 == timings.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_s\": {:.3}}}{}\n",
                json_escape(name),
                secs,
                comma
            ));
        }
        out.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(&path, &out) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "bench profile: {wall:.2}s wall, {events} events ({eps:.0}/s), \
             peak RSS {} kB -> {path}",
            peak_rss_kb()
        );
    }
}
