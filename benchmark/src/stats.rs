//! Percentiles and spreads.
//!
//! A percentile is reported only when at least ten samples lie beyond it;
//! otherwise the next lower one on the ladder is used and named, so a p99
//! is never the maximum of a few hundred samples in disguise.

use aurora_sim::Histogram;

/// Percentiles the benchmark may fall back through, highest first.
const LADDER: [(f64, &str); 5] = [
    (0.99, "p99"),
    (0.95, "p95"),
    (0.90, "p90"),
    (0.75, "p75"),
    (0.50, "p50"),
];

const SAMPLES_BEYOND: f64 = 10.0;

/// A percentile actually reported: the value, which percentile it is, and
/// how many samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Picked {
    pub value: f64,
    /// The percentile reported, when it is lower than the one asked for.
    pub fell_back_to: Option<&'static str>,
    pub samples: u64,
}

/// The highest percentile on the ladder that is at most `want` and has ten
/// samples beyond it; the median when nothing qualifies. `None` if empty.
pub fn supported(want: f64, count: u64) -> Option<(f64, &'static str)> {
    if count == 0 {
        return None;
    }
    LADDER
        .iter()
        .find(|(q, _)| *q <= want && count as f64 * (1.0 - q) >= SAMPLES_BEYOND)
        .or(LADDER.last())
        .copied()
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `want` (or the percentile the sample supports) of exact samples.
pub fn pick_exact(sorted: &[u64], want: f64) -> Option<Picked> {
    let (q, label) = supported(want, sorted.len() as u64)?;
    Some(Picked {
        value: quantile_sorted(sorted, q) as f64,
        fell_back_to: (q < want).then_some(label),
        samples: sorted.len() as u64,
    })
}

/// The same over a registry histogram (values within one bucket, 6.25 %).
pub fn pick_hist(h: &Histogram, want: f64) -> Option<Picked> {
    let (q, label) = supported(want, h.count())?;
    Some(Picked {
        value: h.try_quantile(q)? as f64,
        fell_back_to: (q < want).then_some(label),
        samples: h.count(),
    })
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0);
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1000 samples, p95 200, p90 100, p75 40, p50 20
        assert_eq!(supported(0.99, 1_000).unwrap().1, "p99");
        assert_eq!(supported(0.99, 999).unwrap().1, "p95");
        assert_eq!(supported(0.99, 200).unwrap().1, "p95");
        assert_eq!(supported(0.99, 199).unwrap().1, "p90");
        assert_eq!(supported(0.99, 99).unwrap().1, "p75");
        assert_eq!(supported(0.99, 39).unwrap().1, "p50");
        // too few for any: the median, named as such
        assert_eq!(supported(0.99, 5).unwrap().1, "p50");
        assert_eq!(supported(0.99, 0), None);
        // never climbs above what was asked for
        assert_eq!(supported(0.50, 1_000_000).unwrap().1, "p50");
    }

    #[test]
    fn exact_quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 500);
        assert_eq!(quantile_sorted(&v, 0.99), 990);
        let p = pick_exact(&v, 0.99).unwrap();
        assert_eq!((p.value, p.fell_back_to, p.samples), (990.0, None, 1_000));
        let p = pick_exact(&v[..300], 0.99).unwrap();
        assert_eq!((p.value, p.fell_back_to), (285.0, Some("p95")));
        assert_eq!(pick_exact(&[], 0.99), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
