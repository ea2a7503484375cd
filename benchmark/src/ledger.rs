//! Ledger rows and their comparison.
//!
//! A [`Row`] is one full run of the benchmark at one commit: every
//! workload's fingerprint and every metric, host-clock ones with each
//! repeat's sample beside the reported minimum. `LEDGER.ndjson` is one row
//! per line. [`compare`] applies each end-to-end metric's declared bound
//! and direction to two rows.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Better, Bound, Clock, EndToEnd, END_TO_END};

pub const SCHEMA: u64 = 1;

#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricRow {
    pub value: f64,
    pub unit: String,
    /// Host-clock metrics: every repeat's sample (`value` is their
    /// minimum, or maximum for a higher-is-better metric).
    pub samples: Vec<f64>,
    /// Percentiles: how many samples the percentile was taken from.
    pub n: Option<u64>,
    /// Percentiles: the percentile actually reported, when the sample did
    /// not support the one in the metric's name.
    pub pct: Option<String>,
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadRow {
    pub commits: u64,
    pub events: u64,
    pub clock_ns: u64,
    pub metrics: BTreeMap<String, MetricRow>,
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    pub commit: String,
    pub date: String,
    pub nproc: u64,
    pub seed: u64,
    pub seconds: f64,
    pub repeats: u64,
    /// Reconstructed from an older `BENCH_PR*.json`, not measured by this
    /// program: comparable in name and unit only.
    pub backfilled: bool,
    pub note: String,
    pub workloads: BTreeMap<String, WorkloadRow>,
}

impl MetricRow {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("value".to_string(), Json::Num(self.value)),
            ("unit".to_string(), Json::str(&self.unit)),
        ];
        if !self.samples.is_empty() {
            pairs.push((
                "samples".into(),
                Json::Arr(self.samples.iter().map(|s| Json::Num(*s)).collect()),
            ));
        }
        if let Some(n) = self.n {
            pairs.push(("n".into(), Json::Num(n as f64)));
        }
        if let Some(p) = &self.pct {
            pairs.push(("pct".into(), Json::str(p)));
        }
        Json::Obj(pairs)
    }

    fn from_json(j: &Json) -> Result<MetricRow, String> {
        Ok(MetricRow {
            value: j
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?,
            unit: j
                .get("unit")
                .and_then(Json::as_str)
                .ok_or("metric without unit")?
                .into(),
            samples: j
                .get("samples")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default(),
            n: j.get("n").and_then(Json::as_u64),
            pct: j.get("pct").and_then(Json::as_str).map(String::from),
        })
    }
}

impl Row {
    pub fn to_json(&self) -> Json {
        let workloads = self.workloads.iter().map(|(name, w)| {
            (
                name.clone(),
                Json::obj([
                    ("commits", Json::Num(w.commits as f64)),
                    ("events", Json::Num(w.events as f64)),
                    ("clock_ns", Json::Num(w.clock_ns as f64)),
                    (
                        "metrics",
                        Json::Obj(
                            w.metrics
                                .iter()
                                .map(|(k, m)| (k.clone(), m.to_json()))
                                .collect(),
                        ),
                    ),
                ]),
            )
        });
        Json::obj([
            ("schema", Json::Num(SCHEMA as f64)),
            ("commit", Json::str(&self.commit)),
            ("date", Json::str(&self.date)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("repeats", Json::Num(self.repeats as f64)),
            ("backfilled", Json::Bool(self.backfilled)),
            ("note", Json::str(&self.note)),
            ("workloads", Json::Obj(workloads.collect())),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Row, String> {
        let schema = j
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("row without schema")?;
        if schema != SCHEMA {
            return Err(format!("row schema {schema}, this program reads {SCHEMA}"));
        }
        let text = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let num = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or_default();
        let mut workloads = BTreeMap::new();
        for (name, w) in j
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("row without workloads")?
        {
            let count = |k: &str| w.get(k).and_then(Json::as_u64).unwrap_or_default();
            let mut metrics = BTreeMap::new();
            for (k, m) in w
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("workload without metrics")?
            {
                metrics.insert(
                    k.clone(),
                    MetricRow::from_json(m).map_err(|e| format!("{name}/{k}: {e}"))?,
                );
            }
            workloads.insert(
                name.clone(),
                WorkloadRow {
                    commits: count("commits"),
                    events: count("events"),
                    clock_ns: count("clock_ns"),
                    metrics,
                },
            );
        }
        Ok(Row {
            commit: text("commit"),
            date: text("date"),
            nproc: num("nproc"),
            seed: num("seed"),
            seconds: j.get("seconds").and_then(Json::as_f64).unwrap_or_default(),
            repeats: num("repeats"),
            backfilled: j.get("backfilled").and_then(Json::as_bool).unwrap_or(false),
            note: text("note"),
            workloads,
        })
    }

    /// The last row of an NDJSON ledger, or the single row of a JSON file.
    pub fn read(path: &str) -> Result<Row, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("{path}: empty"))?;
        let j = Json::parse(line)
            .or_else(|_| Json::parse(&text))
            .map_err(|e| format!("{path}: {e}"))?;
        Row::from_json(&j).map_err(|e| format!("{path}: {e}"))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Run-to-run spread on either side is wider than the bound: the
    /// metric cannot be called unchanged, or changed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// (max - min) / min of a side's samples; 0 with fewer than two.
fn sample_spread(samples: &[f64]) -> f64 {
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| {
            (lo.min(*s), hi.max(*s))
        });
    if samples.len() < 2 || lo <= 0.0 {
        0.0
    } else {
        (hi - lo) / lo
    }
}

/// How much worse `b` is than `a`, in the bound's terms (negative: better).
fn worse_by(def: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    match def.bound {
        Bound::Abs(_) => delta,
        Bound::Rel(_) if a == 0.0 => {
            if delta == 0.0 {
                0.0
            } else {
                delta.signum() * f64::INFINITY
            }
        }
        Bound::Rel(_) => delta / a.abs(),
    }
}

/// Verdict for one (metric, workload) pair: `a` is the baseline.
pub fn verdict(def: &EndToEnd, a: &MetricRow, b: &MetricRow) -> Verdict {
    let limit = match def.bound {
        Bound::Rel(r) | Bound::Abs(r) => r,
    };
    if def.clock == Clock::Host && sample_spread(&a.samples).max(sample_spread(&b.samples)) > limit
    {
        return Verdict::Unresolved;
    }
    let w = worse_by(def, a.value, b.value);
    if w > limit {
        Verdict::Worse
    } else if w < -limit {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub metric: &'static str,
    pub workload: String,
    pub a: f64,
    pub b: f64,
    pub unit: &'static str,
    pub verdict: Verdict,
}

/// One line per (end-to-end metric, workload) present in both rows.
pub fn compare(a: &Row, b: &Row) -> Vec<Line> {
    let mut out = Vec::new();
    for def in &END_TO_END {
        for (name, wa) in &a.workloads {
            let Some(wb) = b.workloads.get(name) else {
                continue;
            };
            let (Some(ma), Some(mb)) = (wa.metrics.get(def.name), wb.metrics.get(def.name)) else {
                continue;
            };
            out.push(Line {
                metric: def.name,
                workload: name.clone(),
                a: ma.value,
                b: mb.value,
                unit: def.unit,
                verdict: verdict(def, ma, mb),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64) -> MetricRow {
        MetricRow {
            value,
            unit: "x".into(),
            ..MetricRow::default()
        }
    }

    #[test]
    fn rows_round_trip_through_json() {
        let mut row = Row {
            commit: "ee3debc".into(),
            date: "2026-09-25".into(),
            nproc: 2,
            seed: 42,
            seconds: 5.0,
            repeats: 3,
            backfilled: false,
            note: "first \"baseline\" row".into(),
            workloads: BTreeMap::new(),
        };
        let mut w = WorkloadRow {
            commits: 56_172,
            events: 456_821,
            clock_ns: 1_860_000_000,
            metrics: BTreeMap::new(),
        };
        w.metrics.insert(
            "host_s_per_sim_s".into(),
            MetricRow {
                value: 2.4794123456789,
                unit: "s/s".into(),
                samples: vec![2.4794123456789, 2.51, 2.9],
                n: None,
                pct: None,
            },
        );
        w.metrics.insert(
            "sim_txn_p99_ms".into(),
            MetricRow {
                value: 10.2925,
                unit: "ms".into(),
                samples: vec![],
                n: Some(412),
                pct: Some("p95".into()),
            },
        );
        row.workloads.insert("write_sat".into(), w);
        let line = row.to_json().render();
        assert!(!line.contains('\n'));
        assert_eq!(Row::from_json(&Json::parse(&line).unwrap()).unwrap(), row);
    }

    #[test]
    fn verdicts_at_and_around_each_bound() {
        for def in &END_TO_END {
            let base = 100.0;
            // `step(x)`: the value that is worse than base by x, in the
            // metric's own direction and bound kind
            let step = |x: f64| match (def.bound, def.better) {
                (Bound::Rel(_), Better::Lower) => base * (1.0 + x),
                (Bound::Rel(_), Better::Higher) => base * (1.0 - x),
                (Bound::Abs(_), Better::Lower) => base + x,
                (Bound::Abs(_), Better::Higher) => base - x,
            };
            let limit = match def.bound {
                Bound::Rel(r) | Bound::Abs(r) => r,
            };
            let v = |x: f64| verdict(def, &m(base), &m(step(x)));
            assert_eq!(v(0.0), Verdict::Same, "{}", def.name);
            assert_eq!(v(limit * 0.99), Verdict::Same, "{} just inside", def.name);
            assert_eq!(v(limit * 1.01), Verdict::Worse, "{} just outside", def.name);
            assert_eq!(v(-limit * 0.99), Verdict::Same, "{} gain inside", def.name);
            assert_eq!(
                v(-limit * 1.01),
                Verdict::Better,
                "{} gain outside",
                def.name
            );
        }
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_on_the_host_clock_only() {
        let host = END_TO_END
            .iter()
            .find(|d| d.name == "host_s_per_sim_s")
            .unwrap();
        let sim = END_TO_END.iter().find(|d| d.name == "sim_tps").unwrap();
        let noisy = MetricRow {
            samples: vec![100.0, 103.0, 125.0],
            ..m(100.0)
        };
        assert_eq!(verdict(host, &noisy, &m(150.0)), Verdict::Unresolved);
        assert_eq!(verdict(host, &m(100.0), &noisy), Verdict::Unresolved);
        let steady = MetricRow {
            samples: vec![100.0, 101.0, 104.0],
            ..m(100.0)
        };
        assert_eq!(verdict(host, &steady, &m(150.0)), Verdict::Worse);
        // simulated metrics have no run-to-run spread to hide behind
        assert_eq!(verdict(sim, &noisy, &m(50.0)), Verdict::Worse);
    }

    #[test]
    fn a_zero_baseline_only_moves_by_an_absolute_bound() {
        let fail = END_TO_END.iter().find(|d| d.name == "fail_ratio").unwrap();
        assert_eq!(verdict(fail, &m(0.0), &m(0.0009)), Verdict::Same);
        assert_eq!(verdict(fail, &m(0.0), &m(0.0011)), Verdict::Worse);
    }

    #[test]
    fn compare_pairs_up_what_both_rows_have() {
        let mut a = Row::default();
        let mut b = Row::default();
        let mut wa = WorkloadRow::default();
        wa.metrics.insert("sim_tps".into(), m(1_000.0));
        wa.metrics.insert("unavail_ms".into(), m(25.0));
        let mut wb = WorkloadRow::default();
        wb.metrics.insert("sim_tps".into(), m(900.0));
        a.workloads.insert("write_sat".into(), wa.clone());
        a.workloads.insert("only_in_a".into(), wa);
        b.workloads.insert("write_sat".into(), wb);
        let lines = compare(&a, &b);
        assert_eq!(lines.len(), 1);
        assert_eq!(
            (lines[0].metric, lines[0].verdict),
            ("sim_tps", Verdict::Worse)
        );
    }
}
