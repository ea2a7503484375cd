//! The repo's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! aurora-benchmark --workload W --seed N --seconds S --trace 0|1   one measurement (the driver's form)
//! aurora-benchmark run [--seed S] [--seconds X] [--repeats N] [--workload W] [--out FILE]
//! aurora-benchmark compare A.json B.json
//! aurora-benchmark selfcheck [--seconds X] [--repeats N] [--workload W]
//! aurora-benchmark manifest      BENCHMARK.json, from the catalogue in metrics.rs
//! aurora-benchmark catalogue     the README's tables, as markdown
//! ```

mod alloc;
mod json;
mod ledger;
mod load;
mod measure;
mod metrics;
mod pass;
mod probes;
mod stats;
mod waterfall;
mod workloads;

#[cfg(test)]
mod load_tests;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use json::Json;
use ledger::{MetricRow, Row, Verdict, WorkloadRow};
use metrics::{Better, Bound, Clock, END_TO_END, PER_LAYER};
use workloads::{Spec, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = metrics::RUN_SECONDS as f64;
const DEFAULT_REPEATS: u64 = 3;

struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), v.clone());
                }
                None => positional.push(a.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read '{v}'")),
        }
    }

    fn workloads(&self) -> Result<Vec<&'static Spec>, String> {
        match self.flags.get("workload") {
            None => Ok(WORKLOADS.iter().collect()),
            Some(name) => workloads::find(name).map(|w| vec![w]).ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload '{name}' (known: {})", known.join(", "))
            }),
        }
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || (0.001..1e7).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// `name workload value unit samples`, one metric per line.
fn print_metric(name: &str, workload: &str, m: &MetricRow) {
    let mut notes = Vec::new();
    if let Some(p) = &m.pct {
        notes.push(format!("reported {p}"));
    }
    if let Some(n) = m.n {
        notes.push(format!("n={n}"));
    }
    if !m.samples.is_empty() {
        let s: Vec<String> = m.samples.iter().map(|s| fmt_value(*s)).collect();
        notes.push(format!("[{}]", s.join(" ")));
    }
    println!(
        "{name:<40} {workload:<15} {:>14} {:<12} {}",
        fmt_value(m.value),
        m.unit,
        notes.join(" ")
    );
}

/// The driver's form: one measurement in this process.
fn cmd_measure(args: &Args) -> Result<ExitCode, String> {
    let name: String = args.get("workload", String::new())?;
    let spec = workloads::find(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = args.get("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.get("seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: want 0 < seconds <= 60"));
    }
    let traced = args.get("trace", 0u8)? != 0;
    let full: String = args.get("emit", "contract".to_string())?;
    let trace_out: Option<&String> = args.flags.get("trace-out");
    let m = measure::measure(spec, seed, seconds, traced, trace_out.is_some());
    if let (Some(path), Some(nd)) = (trace_out, &m.trace_ndjson) {
        std::fs::write(path, nd).map_err(|e| format!("{path}: {e}"))?;
    }
    for (k, v) in &m.values {
        let row = MetricRow {
            value: v.value,
            unit: metrics::unit_of(k).unwrap_or("?").to_string(),
            samples: if *k == "setup_s" {
                m.setup_samples.clone()
            } else {
                Vec::new()
            },
            n: v.samples,
            pct: v.fell_back_to.map(String::from),
        };
        print_metric(k, m.workload, &row);
    }
    for f in &m.failures {
        println!("FAILED CHECK {}: {f}", m.workload);
    }
    let last = if full == "full" {
        m.full_json()
    } else {
        m.contract_json()
    };
    println!("{}", last.render());
    Ok(ExitCode::SUCCESS)
}

/// Run one measurement in a fresh child process (so peak RSS and
/// allocator state are per run) and read its full report back.
fn child(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<&str>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name, "--emit", "full"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(path) = trace_out {
        cmd.args(["--trace-out", path]);
    }
    // `output` waits for the child to end
    let out = cmd
        .output()
        .map_err(|e| format!("spawning a measurement: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} measurement exited with {}: {}",
            spec.name,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = stdout.lines().last().ok_or("measurement printed nothing")?;
    Json::parse(last)
}

fn civil_date_utc() -> String {
    // days since 1970-01-01 -> y-m-d (Howard Hinnant's civil_from_days)
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn value_rows(report: &Json) -> BTreeMap<String, MetricRow> {
    let mut out = BTreeMap::new();
    for (name, v) in report
        .get("values")
        .and_then(Json::as_obj)
        .unwrap_or_default()
    {
        out.insert(
            name.clone(),
            MetricRow {
                value: v.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                unit: v.get("unit").and_then(Json::as_str).unwrap_or("?").into(),
                samples: Vec::new(),
                n: v.get("n").and_then(Json::as_u64),
                pct: v.get("pct").and_then(Json::as_str).map(String::from),
            },
        );
    }
    out
}

/// All repeats and the traced pass of one workload, folded into its row.
/// Host-clock metrics: best (minimum, or maximum where higher is better)
/// over the repeats with every sample kept, because interference on a
/// shared box is one-sided. Simulated metrics: must agree everywhere.
fn run_workload(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    repeats: u64,
    trace_out: Option<&str>,
    failures: &mut Vec<String>,
) -> Result<WorkloadRow, String> {
    let mut reports = Vec::new();
    for r in 0..repeats {
        eprintln!("  {}: untraced repeat {}/{repeats}", spec.name, r + 1);
        reports.push(child(spec, seed, seconds, false, None)?);
    }
    eprintln!("  {}: traced pass", spec.name);
    let traced = child(spec, seed, seconds, true, trace_out)?;

    let count = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
    let fingerprint = |j: &Json| {
        (
            count(j, "commits"),
            count(j, "events"),
            count(j, "clock_ns"),
        )
    };
    let first = &reports[0];
    for (i, r) in reports.iter().chain([&traced]).enumerate() {
        for f in r.get("failures").and_then(Json::as_arr).unwrap_or_default() {
            failures.push(format!(
                "{} (pass {i}): {}",
                spec.name,
                f.as_str().unwrap_or("?")
            ));
        }
        if fingerprint(r) != fingerprint(first) {
            failures.push(format!(
                "{}: determinism: pass {i} ended at {:?}, pass 0 at {:?}",
                spec.name,
                fingerprint(r),
                fingerprint(first)
            ));
        }
    }

    let per_repeat: Vec<BTreeMap<String, MetricRow>> = reports.iter().map(value_rows).collect();
    let traced_values = value_rows(&traced);
    let mut metrics = BTreeMap::new();
    for def in END_TO_END.iter().filter(|d| d.on.covers(spec)) {
        let Some(base) = per_repeat[0].get(def.name) else {
            failures.push(format!("{}: {} was not reported", spec.name, def.name));
            continue;
        };
        let mut row = base.clone();
        match def.clock {
            Clock::Host => {
                row.samples = per_repeat
                    .iter()
                    .filter_map(|r| r.get(def.name).map(|m| m.value))
                    .collect();
                let best = match def.better {
                    Better::Lower => f64::min,
                    Better::Higher => f64::max,
                };
                row.value = row
                    .samples
                    .iter()
                    .copied()
                    .reduce(best)
                    .unwrap_or(row.value);
            }
            Clock::Sim => {
                for (i, other) in per_repeat.iter().chain([&traced_values]).enumerate() {
                    let v = other.get(def.name).map(|m| m.value.to_bits());
                    if v != Some(base.value.to_bits()) {
                        failures.push(format!(
                            "{}: determinism: {} differs in pass {i}",
                            spec.name, def.name
                        ));
                    }
                }
            }
        }
        metrics.insert(def.name.to_string(), row);
    }
    for def in &PER_LAYER {
        if let Some(m) = traced_values.get(def.name) {
            metrics.insert(def.name.to_string(), m.clone());
        }
    }
    let (commits, events, clock_ns) = fingerprint(first);
    Ok(WorkloadRow {
        commits,
        events,
        clock_ns,
        metrics,
    })
}

fn run_set(
    args: &Args,
    failures: &mut Vec<String>,
    trace_dir: Option<&str>,
) -> Result<Row, String> {
    let seed = args.get("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.get("seconds", DEFAULT_SECONDS)?;
    let repeats: u64 = args.get("repeats", DEFAULT_REPEATS)?;
    if repeats == 0 {
        return Err("--repeats 0: want at least one".into());
    }
    let mut row = Row {
        commit: git_commit(),
        date: civil_date_utc(),
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        seed,
        seconds,
        repeats,
        backfilled: false,
        note: String::new(),
        workloads: BTreeMap::new(),
    };
    for spec in args.workloads()? {
        let trace_out = trace_dir.map(|d| format!("{d}/{}.trace.ndjson", spec.name));
        let w = run_workload(spec, seed, seconds, repeats, trace_out.as_deref(), failures)?;
        for (name, m) in &w.metrics {
            print_metric(name, spec.name, m);
        }
        row.workloads.insert(spec.name.to_string(), w);
    }
    Ok(row)
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let out: String = args.get("out", format!("{out_dir}/row.json"))?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
    let mut failures = Vec::new();
    let row = run_set(args, &mut failures, Some(out_dir))?;
    let line = row.to_json().render();
    std::fs::write(&out, format!("{line}\n")).map_err(|e| format!("{out}: {e}"))?;
    println!("{line}");
    eprintln!("row written to {out}");
    for f in &failures {
        eprintln!("FAILED CHECK {f}");
    }
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare wants two files: compare A.json B.json".into());
    };
    let (ra, rb) = (Row::read(a)?, Row::read(b)?);
    println!(
        "A = {} ({}{}), B = {} ({}{})",
        ra.commit,
        ra.date,
        if ra.backfilled { ", back-filled" } else { "" },
        rb.commit,
        rb.date,
        if rb.backfilled { ", back-filled" } else { "" },
    );
    let lines = ledger::compare(&ra, &rb);
    let mut worse = 0;
    for l in &lines {
        let change = if l.a != 0.0 {
            format!("{:+.2}%", (l.b - l.a) / l.a.abs() * 100.0)
        } else {
            format!("{:+.4}", l.b - l.a)
        };
        println!(
            "{:<22} {:<15} {:>14} -> {:>14} {:<12} {:>9}  {}",
            l.metric,
            l.workload,
            fmt_value(l.a),
            fmt_value(l.b),
            l.unit,
            change,
            l.verdict.as_str()
        );
        worse += u32::from(l.verdict == Verdict::Worse);
    }
    let tally = |v: Verdict| lines.iter().filter(|l| l.verdict == v).count();
    println!(
        "{} better, {} same, {} worse, {} unresolved",
        tally(Verdict::Better),
        tally(Verdict::Same),
        worse,
        tally(Verdict::Unresolved)
    );
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Two full sets of runs of one commit must agree: every simulated
/// metric and exact count identical, every host-clock metric within its
/// declared bound.
fn cmd_selfcheck(args: &Args) -> Result<ExitCode, String> {
    let mut failures = Vec::new();
    eprintln!("selfcheck: first set");
    let a = run_set(args, &mut failures, None)?;
    eprintln!("selfcheck: second set");
    let b = run_set(args, &mut failures, None)?;
    println!("\nselfcheck: set 1 against set 2");
    for (name, wa) in &a.workloads {
        let wb = &b.workloads[name];
        if (wa.commits, wa.events, wa.clock_ns) != (wb.commits, wb.events, wb.clock_ns) {
            failures.push(format!(
                "{name}: commits/events/clock differ between the sets"
            ));
        }
        for def in &END_TO_END {
            let (Some(ma), Some(mb)) = (wa.metrics.get(def.name), wb.metrics.get(def.name)) else {
                continue;
            };
            let (ok, how) = match (def.clock, def.bound) {
                (Clock::Sim, _) => (
                    ma.value.to_bits() == mb.value.to_bits(),
                    "identical".to_string(),
                ),
                (Clock::Host, Bound::Rel(r) | Bound::Abs(r)) => {
                    let diff = (mb.value - ma.value).abs() / ma.value.abs().max(1e-12);
                    (
                        diff <= r,
                        format!("{:.2}% apart, bound {:.0}%", diff * 100.0, r * 100.0),
                    )
                }
            };
            println!(
                "{:<22} {:<15} {:>14} {:>14} {:<12} {} {}",
                def.name,
                name,
                fmt_value(ma.value),
                fmt_value(mb.value),
                def.unit,
                if ok { "ok  " } else { "FAIL" },
                how
            );
            if !ok {
                failures.push(format!("{name}: {} {} vs {}", def.name, ma.value, mb.value));
            }
        }
        // exact counts from the traced pass
        for def in PER_LAYER
            .iter()
            .filter(|d| d.source == "count" || d.source == "fold")
        {
            let (va, vb) = (wa.metrics.get(def.name), wb.metrics.get(def.name));
            if va.map(|m| m.value.to_bits()) != vb.map(|m| m.value.to_bits()) {
                failures.push(format!("{name}: {} differs between the sets", def.name));
            }
        }
    }
    for f in &failures {
        println!("FAILED CHECK {f}");
    }
    println!(
        "selfcheck: {}",
        if failures.is_empty() {
            "passed"
        } else {
            "FAILED"
        }
    );
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match raw.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "selfcheck" | "manifest" | "catalogue")) => (c, &raw[1..]),
        _ => ("measure", &raw[..]),
    };
    let result = Args::parse(rest).and_then(|args| match cmd {
        "run" => cmd_run(&args),
        "compare" => cmd_compare(&args),
        "selfcheck" => cmd_selfcheck(&args),
        "manifest" => {
            print!("{}", metrics::manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        "catalogue" => {
            print!("{}", metrics::catalogue_markdown());
            Ok(ExitCode::SUCCESS)
        }
        _ => cmd_measure(&args),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("aurora-benchmark: {e}");
            eprintln!(
                "usage: aurora-benchmark --workload W --seed N --seconds S --trace 0|1\n       \
                 aurora-benchmark run [--seed S] [--seconds X] [--repeats N] [--workload W] [--out FILE]\n       \
                 aurora-benchmark compare A.json B.json\n       \
                 aurora-benchmark selfcheck [--seconds X] [--repeats N] [--workload W]\n       \
                 aurora-benchmark manifest | catalogue"
            );
            ExitCode::from(2)
        }
    }
}
