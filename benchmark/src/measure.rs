//! One measurement = what one process reports for one workload.
//!
//! Untraced (`--trace 0`): the world is set up `setup_repeats` times, the
//! last one is measured, `setup_s` is the median of the set-up times and
//! the other host-clock metrics are medians over the window's slices.
//!
//! Traced (`--trace 1`): an untraced reference pass, then the same pass
//! again with `sim.trace` on, then the layer probes. Tracing records only
//! simulated time, so the two passes must agree on every simulated number
//! exactly (checked here); what differs is host time, reported as
//! `host.trace_overhead_ratio`. Both passes count allocations, so that
//! their times compare; the heap figures reported are the reference
//! pass's, whose heap does not hold the trace ring.

use crate::json::Json;
use crate::metrics::{self, Clock, END_TO_END};
use crate::pass::{self, Fingerprint, Pass, PassOptions, Value, Values};
use crate::probes;
use crate::stats::median;
use crate::workloads::Spec;

pub struct Measurement {
    pub workload: &'static str,
    pub traced: bool,
    pub fingerprint: Fingerprint,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub setup_samples: Vec<f64>,
    pub values: Values,
    pub trace_ndjson: Option<String>,
}

impl Measurement {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

fn book(pass: &Pass) -> (u64, u64) {
    (
        pass.load.attempted + pass.load.carried_in,
        pass.load.aborts + pass.load.sheds + pass.check_failed,
    )
}

/// Simulated end-to-end values of two passes of one seed must be equal.
fn same_simulation(a: &Pass, b: &Pass, what: &str, failures: &mut Vec<String>) {
    if a.fingerprint != b.fingerprint {
        failures.push(format!(
            "determinism ({what}): {:?} != {:?}",
            a.fingerprint, b.fingerprint
        ));
    }
    for def in END_TO_END.iter().filter(|d| d.clock == Clock::Sim) {
        let (va, vb) = (a.values.get(def.name), b.values.get(def.name));
        if va.map(|v| v.value.to_bits()) != vb.map(|v| v.value.to_bits()) {
            failures.push(format!(
                "determinism ({what}): {} {:?} != {:?}",
                def.name,
                va.map(|v| v.value),
                vb.map(|v| v.value)
            ));
        }
    }
}

pub fn measure(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    keep_ndjson: bool,
) -> Measurement {
    let mut failures = Vec::new();
    let mut setup_samples = Vec::new();
    let pass = if traced {
        let reference = pass::run(
            spec,
            &PassOptions {
                seed,
                seconds,
                traced: false,
                count_allocs: true,
                keep_ndjson: false,
            },
        );
        failures.extend(
            reference
                .failures
                .iter()
                .map(|f| format!("reference pass: {f}")),
        );
        let mut traced_pass = pass::run(
            spec,
            &PassOptions {
                seed,
                seconds,
                traced: true,
                count_allocs: true,
                keep_ndjson,
            },
        );
        same_simulation(
            &reference,
            &traced_pass,
            "traced vs untraced",
            &mut failures,
        );
        traced_pass.values.insert(
            "host.trace_overhead_ratio",
            Value::plain(traced_pass.window_host_s / reference.window_host_s.max(1e-9)),
        );
        for name in [
            "host.allocs_per_event",
            "host.alloc_bytes_per_txn",
            "host.heap_peak_mb",
        ] {
            if let Some(v) = reference.values.get(name) {
                traced_pass.values.insert(name, v.clone());
            }
        }
        for (name, v) in probes::run(seed) {
            traced_pass.values.insert(name, Value::plain(v));
        }
        setup_samples.push(traced_pass.setup_s);
        traced_pass
    } else {
        let mut opened_at = Vec::new();
        for _ in 1..spec.setup_repeats {
            let (secs, fp) = pass::time_setup(spec, seed);
            setup_samples.push(secs);
            opened_at.push(fp);
        }
        let mut measured = pass::run(
            spec,
            &PassOptions {
                seed,
                seconds,
                traced: false,
                count_allocs: false,
                keep_ndjson: false,
            },
        );
        setup_samples.push(measured.setup_s);
        // every set-up of one seed must reach the window at the same event
        // and the same instant
        if let Some(odd) = opened_at
            .iter()
            .find(|fp| **fp != measured.setup_fingerprint)
        {
            failures.push(format!(
                "determinism (set-up): {odd:?} != {:?}",
                measured.setup_fingerprint
            ));
        }
        measured
            .values
            .insert("setup_s", Value::plain(median(&setup_samples)));
        measured
    };
    failures.extend(pass.failures.iter().cloned());
    let (attempted, failed) = book(&pass);
    Measurement {
        workload: spec.name,
        traced,
        fingerprint: pass.fingerprint,
        attempted,
        failed,
        failures,
        setup_samples,
        values: pass.values,
        trace_ndjson: pass.trace_ndjson,
    }
}

impl Measurement {
    /// The driver's contract: exactly `correct`, `attempted`, `failed` and
    /// `metrics`; the end-to-end metrics untraced, the per-layer ones
    /// traced. A layer metric a workload cannot give (no replicas, no
    /// proxy, no writes) reads 0.
    pub fn contract_json(&self) -> Json {
        let metric = |name: &str, unit: &str| {
            let value = self.values.get(name).map_or(0.0, |v| v.value);
            (
                name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        };
        let metrics: Vec<(String, Json)> = if self.traced {
            metrics::driver_per_layer()
                .map(|(n, u, _)| metric(n, u))
                .collect()
        } else {
            metrics::driver_end_to_end()
                .map(|m| metric(m.name, m.unit))
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Everything, for the parent of a `run`.
    pub fn full_json(&self) -> Json {
        let values = self.values.iter().map(|(name, v)| {
            let mut pairs = vec![
                ("value".to_string(), Json::Num(v.value)),
                (
                    "unit".to_string(),
                    Json::str(metrics::unit_of(name).unwrap_or("?")),
                ),
            ];
            if let Some(n) = v.samples {
                pairs.push(("n".into(), Json::Num(n as f64)));
            }
            if let Some(p) = v.fell_back_to {
                pairs.push(("pct".into(), Json::str(p)));
            }
            (name.to_string(), Json::Obj(pairs))
        });
        Json::obj([
            ("workload", Json::str(self.workload)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("commits", Json::Num(self.fingerprint.commits as f64)),
            ("events", Json::Num(self.fingerprint.events as f64)),
            ("clock_ns", Json::Num(self.fingerprint.clock_ns as f64)),
            ("values", Json::Obj(values.collect())),
        ])
    }
}
