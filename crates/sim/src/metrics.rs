//! Counters and histograms for the simulation.
//!
//! The experiment harness reads everything it reports — throughput, network
//! IOs per transaction, P50/P95 latencies, replica lag — out of this
//! registry. Histograms are log-bucketed (HDR-style: power-of-two buckets
//! each split into 16 linear sub-buckets), which keeps relative error under
//! ~6% across the nanosecond-to-minute range we record.
//!
//! Metric names are `&'static str` at the API surface but are interned to
//! dense `u32` ids internally: the first touch of a name resolves it
//! through a pointer-keyed map (string literals have stable addresses, so
//! repeat touches never hash the string content), and counter storage is a
//! dense `Vec<u64>` per owner. Hot actors can go one step further and
//! cache a [`MetricId`] so the per-event cost is a bounds-checked add.
//! Interning survives [`MetricsRegistry::clear`], so handles resolved
//! before a warm-up boundary stay valid after it.

use std::collections::HashMap;

pub(crate) use crate::hash::FxHashMap as FxMap;

/// A log-bucketed histogram of `u64` values (we record nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// counts[bucket][sub]; bucket = floor(log2(v)) clamped, 16 sub-buckets.
    counts: Vec<[u64; 16]>,
    /// Bit `b` set once `counts[b]` holds any sample — lets windowed scans
    /// skip the (many) never-touched power-of-two rows.
    occupied: u64,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const BUCKETS: usize = 64;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![[0u64; 16]; BUCKETS],
            occupied: 0,
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Windowed summary a [`Histogram::fold_window`] call reports: the same
/// numbers `delta_since(prev)` + quantile calls would produce, without
/// materializing the intermediate histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStats {
    pub count: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub min: u64,
    pub max: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    fn locate(value: u64) -> (usize, usize) {
        if value < 16 {
            // values 0..16 go to bucket 0, sub = value
            return (0, value as usize);
        }
        let bucket = 63 - value.leading_zeros() as usize; // floor(log2)
                                                          // sub-bucket: next 4 bits below the leading one
        let sub = ((value >> (bucket - 4)) & 0xF) as usize;
        (bucket.min(BUCKETS - 1), sub)
    }

    pub(crate) fn bucket_value(bucket: usize, sub: usize) -> u64 {
        if bucket == 0 {
            return sub as u64;
        }
        // representative value: midpoint of the sub-bucket
        let base = 1u64 << bucket;
        let step = base >> 4;
        base + step * sub as u64 + step / 2
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        let (b, s) = Self::locate(value);
        self.counts[b][s] += 1;
        self.occupied |= 1 << b;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]`, or `None` if no samples were
    /// recorded — callers that export must use this (or gate on
    /// [`Histogram::count`]) so "no data" is never conflated with a real
    /// measured 0.
    ///
    /// Approximate to the sub-bucket representative value, with exact
    /// ends: a rank that resolves to the first or last sample returns the
    /// tracked min/max rather than a bucket representative, so a
    /// small-count p99 is the exact maximum instead of the lower bound of
    /// whatever bucket the maximum landed in.
    pub fn try_quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        if target >= self.total {
            return Some(self.max);
        }
        if target == 1 {
            return Some(self.min);
        }
        let mut seen = 0u64;
        for (b, subs) in self.counts.iter().enumerate() {
            for (s, &c) in subs.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return Some(Self::bucket_value(b, s).clamp(self.min, self.max));
                }
            }
        }
        Some(self.max)
    }

    /// Value at quantile `q` in `[0, 1]`. Returns 0 if the histogram is
    /// empty — ambiguous with a real 0; exporters should prefer
    /// [`Histogram::try_quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        self.try_quantile(q).unwrap_or(0)
    }

    /// Shorthand for common percentiles.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, subs) in other.counts.iter().enumerate() {
            for (s, &c) in subs.iter().enumerate() {
                self.counts[b][s] += c;
            }
        }
        self.occupied |= other.occupied;
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The histogram of values recorded since `prev` was cloned from this
    /// histogram — the windowed delta the telemetry sampler snapshots every
    /// `sample_interval`. `prev` must be an earlier state of `self` (same
    /// metric, monotonically growing); bucket counts, total and sum
    /// subtract exactly.
    ///
    /// Min/max cannot always be recovered exactly from cumulative state:
    /// * if the window set a new global extreme (`self.min < prev.min`, or
    ///   `self.max > prev.max`, or `prev` was empty) the exact tracked
    ///   value is used;
    /// * otherwise the extreme of the window is approximated by the
    ///   representative value of the first/last non-empty delta bucket —
    ///   the same ≤~6% relative error as any interior quantile.
    ///
    /// An empty delta (no samples in the window) returns an empty
    /// histogram: `count() == 0`, `try_quantile` is `None`.
    pub fn delta_since(&self, prev: &Histogram) -> Histogram {
        debug_assert!(
            self.total >= prev.total,
            "delta_since: prev is not an earlier state"
        );
        let mut out = Histogram::new();
        if self.total == prev.total {
            return out; // empty window
        }
        let mut first: Option<(usize, usize)> = None;
        let mut last: Option<(usize, usize)> = None;
        for (b, subs) in self.counts.iter().enumerate() {
            for (s, &c) in subs.iter().enumerate() {
                let d = c - prev.counts[b][s];
                if d != 0 {
                    out.counts[b][s] = d;
                    out.occupied |= 1 << b;
                    if first.is_none() {
                        first = Some((b, s));
                    }
                    last = Some((b, s));
                }
            }
        }
        out.total = self.total - prev.total;
        out.sum = self.sum - prev.sum;
        out.min = if prev.total == 0 || self.min < prev.min {
            self.min
        } else {
            let (b, s) = first.expect("non-empty delta has a first bucket");
            Self::bucket_value(b, s)
        };
        out.max = if prev.total == 0 || self.max > prev.max {
            self.max
        } else {
            let (b, s) = last.expect("non-empty delta has a last bucket");
            Self::bucket_value(b, s)
        };
        // Bucket representatives can land outside the cumulative envelope
        // (midpoint above a max that set no new extreme); keep the
        // invariant min <= max within [self.min, self.max].
        out.min = out.min.clamp(self.min, self.max);
        out.max = out.max.clamp(out.min, self.max);
        out
    }

    /// The telemetry sampler's fused twin of [`Histogram::delta_since`]:
    /// one sparse scan (only occupied buckets) that
    ///
    /// * reports the window's [`WindowStats`] — bit-identical to what
    ///   `delta_since(prev)` followed by `p50/p95/p99/max` would return,
    /// * appends the window's non-zero `(linear slot, delta)` pairs to
    ///   `slots` in value order (for fleet rollup accumulation), and
    /// * advances `prev` in place to match `self`,
    ///
    /// without allocating or copying the full bucket table. `prev` must be
    /// an earlier state of `self`; returns `None` for an empty window.
    pub(crate) fn fold_window(
        &self,
        prev: &mut Histogram,
        slots: &mut Vec<(u32, u64)>,
    ) -> Option<WindowStats> {
        debug_assert!(
            self.total >= prev.total,
            "fold_window: prev is not an earlier state"
        );
        if self.total == prev.total {
            return None;
        }
        let start = slots.len();
        let mut first: Option<(usize, usize)> = None;
        let mut last: Option<(usize, usize)> = None;
        let mut occ = self.occupied;
        while occ != 0 {
            let b = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let cur_row = &self.counts[b];
            let prev_row = &mut prev.counts[b];
            if cur_row == prev_row {
                continue;
            }
            for (s, (&c, p)) in cur_row.iter().zip(prev_row.iter_mut()).enumerate() {
                let d = c - *p;
                if d != 0 {
                    slots.push(((b * 16 + s) as u32, d));
                    if first.is_none() {
                        first = Some((b, s));
                    }
                    last = Some((b, s));
                    *p = c;
                }
            }
        }
        let total = self.total - prev.total;
        // Same min/max envelope rules as delta_since.
        let min = if prev.total == 0 || self.min < prev.min {
            self.min
        } else {
            let (b, s) = first.expect("non-empty delta has a first bucket");
            Self::bucket_value(b, s)
        };
        let max = if prev.total == 0 || self.max > prev.max {
            self.max
        } else {
            let (b, s) = last.expect("non-empty delta has a last bucket");
            Self::bucket_value(b, s)
        };
        let min = min.clamp(self.min, self.max);
        let max = max.clamp(min, self.max);
        prev.occupied = self.occupied;
        prev.total = self.total;
        prev.sum = self.sum;
        prev.min = self.min;
        prev.max = self.max;
        let window = &slots[start..];
        let q = |qv: f64| sparse_quantile(window, total, min, max, qv);
        Some(WindowStats {
            count: total,
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            min,
            max,
        })
    }

    /// Reset to empty (used for warm-up windows).
    pub fn clear(&mut self) {
        for subs in self.counts.iter_mut() {
            *subs = [0; 16];
        }
        self.occupied = 0;
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

/// Quantile over a sparse `(linear slot, count)` representation of a
/// bucket table — the same answer [`Histogram::try_quantile`] gives on the
/// materialized histogram with that table and `min`/`max` envelope.
/// `slots` must be sorted by slot index (duplicate indices add, so
/// concatenated-then-sorted per-owner runs behave like a merged histogram).
pub(crate) fn sparse_quantile(slots: &[(u32, u64)], total: u64, min: u64, max: u64, q: f64) -> u64 {
    debug_assert!(total > 0);
    if q <= 0.0 {
        return min;
    }
    if q >= 1.0 {
        return max;
    }
    let target = ((q * total as f64).ceil() as u64).max(1);
    if target >= total {
        return max;
    }
    if target == 1 {
        return min;
    }
    let mut seen = 0u64;
    for &(slot, c) in slots {
        seen += c;
        if seen >= target {
            return Histogram::bucket_value((slot / 16) as usize, (slot % 16) as usize)
                .clamp(min, max);
        }
    }
    max
}

/// An interned metric name: a dense index into the registry's tables.
/// Resolve once with [`MetricsRegistry::metric_id`] (or `Ctx::metric_id`)
/// and use `inc_id`/`record_id` in hot loops. Ids are stable across
/// [`MetricsRegistry::clear`] but are only meaningful for the registry
/// that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(pub(crate) u32);

/// Registry of named counters and histograms, keyed by `(owner, name)`.
/// `owner` is a node id in practice; `u32::MAX` is used for global metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Fast path: `&'static str` address -> id. Literals have one address
    /// per crate at least; duplicates fall through to `by_name` once.
    by_ptr: FxMap<(usize, usize), u32>,
    /// Content-keyed map: the source of truth for name -> id.
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
    /// counters[owner_slot][metric_id]; slot 0 is GLOBAL, slot n+1 node n.
    counters: Vec<Vec<u64>>,
    /// `true` once any owner touched the id since the last clear — keeps
    /// `counter_names` faithful to the old map-of-entries behaviour.
    counter_touched: Vec<bool>,
    histograms: Vec<Vec<Option<Box<Histogram>>>>,
    /// hist_totals[owner_slot][metric_id] mirrors `histograms[s][i].count()`
    /// densely. The telemetry sampler's per-window scan compares these rows
    /// against its own mirror sequentially and only dereferences the boxed
    /// histograms that actually changed — chasing every `Box<Histogram>`
    /// just to read its count costs two cold cache lines per pair.
    hist_totals: Vec<Vec<u64>>,
    /// gauges[owner_slot][metric_id]: last-write-wins point-in-time values
    /// (queue depths, watermarks, repair counts). `None` = never set, so a
    /// telemetry window can tell "no reading" apart from a real 0.
    gauges: Vec<Vec<Option<u64>>>,
}

/// Owner id used for simulation-global metrics.
pub const GLOBAL: u32 = u32::MAX;

#[inline]
fn slot(owner: u32) -> usize {
    if owner == GLOBAL {
        0
    } else {
        owner as usize + 1
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a metric name to a dense id (idempotent).
    pub fn metric_id(&mut self, name: &'static str) -> MetricId {
        let key = (name.as_ptr() as usize, name.len());
        if let Some(&id) = self.by_ptr.get(&key) {
            return MetricId(id);
        }
        let id = match self.by_name.get(name) {
            Some(&id) => id,
            None => {
                let id = self.names.len() as u32;
                self.names.push(name);
                self.by_name.insert(name, id);
                self.counter_touched.push(false);
                id
            }
        };
        self.by_ptr.insert(key, id);
        MetricId(id)
    }

    /// Look up an already-interned name without mutating (readers).
    fn lookup(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Add `v` to a counter.
    #[inline]
    pub fn inc(&mut self, owner: u32, name: &'static str, v: u64) {
        let id = self.metric_id(name);
        self.inc_id(owner, id, v);
    }

    /// Add `v` to a counter through a pre-resolved handle (no hashing).
    #[inline]
    pub fn inc_id(&mut self, owner: u32, id: MetricId, v: u64) {
        let s = slot(owner);
        let i = id.0 as usize;
        if s >= self.counters.len() {
            self.counters.resize_with(s + 1, Vec::new);
        }
        let row = &mut self.counters[s];
        if i >= row.len() {
            row.resize(self.names.len().max(i + 1), 0);
        }
        row[i] += v;
        self.counter_touched[i] = true;
    }

    /// Read a counter (0 if never written).
    pub fn counter(&self, owner: u32, name: &'static str) -> u64 {
        let Some(id) = self.lookup(name) else {
            return 0;
        };
        self.counters
            .get(slot(owner))
            .and_then(|row| row.get(id as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of a counter across all owners.
    pub fn counter_total(&self, name: &'static str) -> u64 {
        let Some(id) = self.lookup(name) else {
            return 0;
        };
        self.counters
            .iter()
            .filter_map(|row| row.get(id as usize))
            .sum()
    }

    /// Record into a histogram.
    #[inline]
    pub fn record(&mut self, owner: u32, name: &'static str, value: u64) {
        let id = self.metric_id(name);
        self.record_id(owner, id, value);
    }

    /// Record into a histogram through a pre-resolved handle.
    #[inline]
    pub fn record_id(&mut self, owner: u32, id: MetricId, value: u64) {
        let s = slot(owner);
        let i = id.0 as usize;
        if s >= self.histograms.len() {
            self.histograms.resize_with(s + 1, Vec::new);
        }
        let row = &mut self.histograms[s];
        if i >= row.len() {
            row.resize_with(self.names.len().max(i + 1), || None);
        }
        row[i].get_or_insert_with(Default::default).record(value);
        if s >= self.hist_totals.len() {
            self.hist_totals.resize_with(s + 1, Vec::new);
        }
        let totals = &mut self.hist_totals[s];
        if i >= totals.len() {
            totals.resize(self.names.len().max(i + 1), 0);
        }
        totals[i] += 1;
    }

    /// Set a gauge to its current reading (last write wins).
    #[inline]
    pub fn set_gauge(&mut self, owner: u32, name: &'static str, value: u64) {
        let id = self.metric_id(name);
        self.set_gauge_id(owner, id, value);
    }

    /// Set a gauge through a pre-resolved handle (no hashing).
    #[inline]
    pub fn set_gauge_id(&mut self, owner: u32, id: MetricId, value: u64) {
        let s = slot(owner);
        let i = id.0 as usize;
        if s >= self.gauges.len() {
            self.gauges.resize_with(s + 1, Vec::new);
        }
        let row = &mut self.gauges[s];
        if i >= row.len() {
            row.resize(self.names.len().max(i + 1), None);
        }
        row[i] = Some(value);
    }

    /// Read a gauge, `None` if it was never set (or cleared since).
    pub fn gauge(&self, owner: u32, name: &'static str) -> Option<u64> {
        let id = self.lookup(name)?;
        self.gauges
            .get(slot(owner))?
            .get(id as usize)
            .copied()
            .flatten()
    }

    /// Deterministic dump of every set gauge as `(owner, name, value)`,
    /// sorted by `(owner, name)`.
    pub fn gauges_snapshot(&self) -> Vec<(u32, &'static str, u64)> {
        let mut out = Vec::new();
        for (s, row) in self.gauges.iter().enumerate() {
            let owner = if s == 0 { GLOBAL } else { (s - 1) as u32 };
            for (i, v) in row.iter().enumerate() {
                if let Some(v) = v {
                    out.push((owner, self.names[i], *v));
                }
            }
        }
        out.sort_unstable_by_key(|(o, n, _)| (*o, *n));
        out
    }

    /// Read a histogram, if any values were recorded.
    pub fn histogram(&self, owner: u32, name: &'static str) -> Option<&Histogram> {
        let id = self.lookup(name)?;
        self.histograms
            .get(slot(owner))?
            .get(id as usize)?
            .as_deref()
            .filter(|h| h.count() > 0)
    }

    /// Merged histogram across all owners with this name.
    pub fn histogram_total(&self, name: &'static str) -> Histogram {
        let mut out = Histogram::new();
        let Some(id) = self.lookup(name) else {
            return out;
        };
        for row in self.histograms.iter() {
            if let Some(Some(h)) = row.get(id as usize) {
                out.merge(h);
            }
        }
        out
    }

    /// Clear every metric (warm-up boundary). Interned ids stay valid —
    /// only the recorded values reset.
    pub fn clear(&mut self) {
        for row in self.counters.iter_mut() {
            row.iter_mut().for_each(|v| *v = 0);
        }
        for row in self.histograms.iter_mut() {
            for h in row.iter_mut().flatten() {
                h.clear();
            }
        }
        for row in self.hist_totals.iter_mut() {
            row.iter_mut().for_each(|v| *v = 0);
        }
        self.counter_touched.iter_mut().for_each(|t| *t = false);
        for row in self.gauges.iter_mut() {
            row.iter_mut().for_each(|v| *v = None);
        }
    }

    /// Raw dense tables for the telemetry sampler's delta pass — iterating
    /// the slots directly avoids re-sorting snapshots every 100ms window.
    pub(crate) fn raw_counters(&self) -> &[Vec<u64>] {
        &self.counters
    }

    pub(crate) fn raw_histograms(&self) -> &[Vec<Option<Box<Histogram>>>] {
        &self.histograms
    }

    /// Dense per-(owner, metric) histogram sample counts, parallel to
    /// `raw_histograms` (rows may be shorter — absent means 0).
    pub(crate) fn raw_hist_totals(&self) -> &[Vec<u64>] {
        &self.hist_totals
    }

    pub(crate) fn raw_gauges(&self) -> &[Vec<Option<u64>>] {
        &self.gauges
    }

    pub(crate) fn name_of(&self, id: u32) -> &'static str {
        self.names[id as usize]
    }

    pub(crate) fn names_len(&self) -> usize {
        self.names.len()
    }

    pub(crate) fn lookup_id(&self, name: &str) -> Option<u32> {
        self.lookup(name)
    }

    /// All counter names currently present (sorted, deduped) — handy for
    /// debugging experiments.
    pub fn counter_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .names
            .iter()
            .enumerate()
            .filter(|(i, _)| self.counter_touched[*i])
            .map(|(_, n)| *n)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Deterministic dump of every non-zero counter as
    /// `(owner, name, value)`, sorted by `(owner, name)`. The replay
    /// regression tests compare this across same-seed runs bit-for-bit.
    pub fn counters_snapshot(&self) -> Vec<(u32, &'static str, u64)> {
        let mut out = Vec::new();
        for (s, row) in self.counters.iter().enumerate() {
            let owner = if s == 0 { GLOBAL } else { (s - 1) as u32 };
            for (i, &v) in row.iter().enumerate() {
                if v != 0 {
                    out.push((owner, self.names[i], v));
                }
            }
        }
        out.sort_unstable_by_key(|(o, n, _)| (*o, *n));
        out
    }

    /// Deterministic dump of every non-empty histogram as
    /// `(owner, name, count, p50, p95, p99, max)`, sorted by
    /// `(owner, name)` — the percentile twin of
    /// [`MetricsRegistry::counters_snapshot`] for latency reports.
    pub fn histograms_snapshot(&self) -> Vec<(u32, &'static str, u64, u64, u64, u64, u64)> {
        let mut out = Vec::new();
        for (s, row) in self.histograms.iter().enumerate() {
            let owner = if s == 0 { GLOBAL } else { (s - 1) as u32 };
            for (i, h) in row.iter().enumerate() {
                if let Some(h) = h {
                    if h.count() > 0 {
                        out.push((
                            owner,
                            self.names[i],
                            h.count(),
                            h.p50(),
                            h.p95(),
                            h.p99(),
                            h.max(),
                        ));
                    }
                }
            }
        }
        out.sort_unstable_by_key(|(o, n, ..)| (*o, *n));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn try_quantile_distinguishes_empty_from_zero() {
        let mut h = Histogram::new();
        // empty: no quantile exists, even though `quantile` degrades to 0
        assert_eq!(h.try_quantile(0.5), None);
        assert_eq!(h.try_quantile(0.99), None);
        // a real measured zero is Some(0), not None
        h.record(0);
        assert_eq!(h.try_quantile(0.5), Some(0));
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn small_count_p99_is_exact_max() {
        // 10_000 lands in a wide bucket whose representative (9_984) is
        // below the sample; with 3 samples, p99's rank IS the max sample,
        // so the answer must be the exact tracked max, not the bucket.
        let mut h = Histogram::new();
        for v in [1u64, 100, 10_000] {
            h.record(v);
        }
        assert_eq!(h.p99(), 10_000);
        assert_eq!(h.p95(), 10_000);
        // the first rank likewise resolves to the exact min
        assert_eq!(h.try_quantile(0.01), Some(1));
    }

    #[test]
    fn bucket_boundary_values_are_representative() {
        // 16 is the first value past the exact range: it sits at the
        // lower edge of bucket 4 / sub 0, whose representative is 16
        // itself (step = 1, midpoint truncates to the boundary).
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(16);
        }
        assert_eq!(h.p50(), 16);
        // one step up: 17 shares the sub-bucket; interior ranks answer
        // with the representative clamped into [min, max]
        let mut h = Histogram::new();
        for v in [16u64, 16, 17, 17] {
            h.record(v);
        }
        let p50 = h.try_quantile(0.5).unwrap();
        assert!((16..=17).contains(&p50), "p50 {p50}");
        // 2^10 boundary: interior rank at a power of two reports inside
        // the sub-bucket containing it, never below min or above max
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(1024);
        }
        h.record(1);
        h.record(1_000_000);
        let p50 = h.try_quantile(0.5).unwrap();
        assert!((1024..1088).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.count(), 16);
    }

    #[test]
    fn quantiles_reasonable() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000); // 1k .. 10M
        }
        let p50 = h.p50();
        assert!((4_500_000..5_700_000).contains(&p50), "p50 {p50}");
        let p95 = h.p95();
        assert!((9_000_000..10_100_000).contains(&p95), "p95 {p95}");
        assert_eq!(h.quantile(0.0), 1000);
        assert_eq!(h.quantile(1.0), 10_000_000);
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = Histogram::new();
        let v = 123_456_789u64;
        h.record(v);
        let got = h.p50();
        let err = (got as f64 - v as f64).abs() / v as f64;
        assert!(err < 0.07, "err {err}");
    }

    #[test]
    fn merge_and_clear() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 100);
        assert_eq!(a.max(), 300);
        a.clear();
        assert_eq!(a.count(), 0);
        assert_eq!(a.max(), 0);
    }

    #[test]
    fn delta_since_empty_window_is_empty() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(5_000);
        let prev = h.clone();
        // no samples between the snapshots → empty delta, not zeros
        let d = h.delta_since(&prev);
        assert_eq!(d.count(), 0);
        assert_eq!(d.try_quantile(0.5), None);
        assert_eq!(d.min(), 0);
        assert_eq!(d.max(), 0);
        // and a delta against a fresh prev of an empty histogram is empty
        let e = Histogram::new();
        let d = e.delta_since(&Histogram::new());
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn delta_since_single_sample_is_exact() {
        let mut h = Histogram::new();
        h.record(10);
        let prev = h.clone();
        h.record(123_456_789);
        let d = h.delta_since(&prev);
        // one sample in the window: it set a new global max, so min, max
        // and every quantile are the exact value
        assert_eq!(d.count(), 1);
        assert_eq!(d.min(), 123_456_789);
        assert_eq!(d.max(), 123_456_789);
        assert_eq!(d.try_quantile(0.5), Some(123_456_789));
        assert!((d.mean() - 123_456_789.0).abs() < 1e-6);
    }

    #[test]
    fn delta_since_prev_empty_copies_exact_extremes() {
        let mut h = Histogram::new();
        let prev = h.clone(); // empty
        h.record(7);
        h.record(999_999);
        let d = h.delta_since(&prev);
        assert_eq!(d.count(), 2);
        assert_eq!(d.min(), 7);
        assert_eq!(d.max(), 999_999);
    }

    #[test]
    fn delta_since_interior_window_preserves_minmax_envelope() {
        // The window's samples sit strictly inside the cumulative
        // [min, max]: exact extremes are unrecoverable, so the delta
        // reports bucket representatives — within ~6% relative error and
        // always inside the cumulative envelope.
        let mut h = Histogram::new();
        h.record(1); // global min
        h.record(100_000_000); // global max
        let prev = h.clone();
        for v in [50_000u64, 60_000, 70_000] {
            h.record(v);
        }
        let d = h.delta_since(&prev);
        assert_eq!(d.count(), 3);
        let min = d.min();
        let max = d.max();
        let min_err = (min as f64 - 50_000.0).abs() / 50_000.0;
        let max_err = (max as f64 - 70_000.0).abs() / 70_000.0;
        assert!(min_err < 0.07, "delta min {min} err {min_err}");
        assert!(max_err < 0.07, "delta max {max} err {max_err}");
        assert!(min <= max);
        // quantiles stay inside the delta's own [min, max]
        let p99 = d.try_quantile(0.99).unwrap();
        assert!(p99 >= min && p99 <= max, "p99 {p99} not in [{min}, {max}]");
    }

    #[test]
    fn delta_since_sums_and_buckets_subtract_exactly() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        let prev = h.clone();
        for v in 1..=50u64 {
            h.record(v * 2000);
        }
        let d = h.delta_since(&prev);
        assert_eq!(d.count(), 50);
        let want_sum: u128 = (1..=50u128).map(|v| v * 2000).sum();
        assert!((d.mean() - want_sum as f64 / 50.0).abs() < 1e-6);
        // merging the delta back onto prev reproduces the cumulative state
        let mut rebuilt = prev.clone();
        rebuilt.merge(&d);
        assert_eq!(rebuilt.count(), h.count());
        assert_eq!(rebuilt.p50(), h.p50());
        assert_eq!(rebuilt.p99(), h.p99());
    }

    #[test]
    fn fold_window_matches_delta_since() {
        // Deterministic pseudo-random value stream spanning many buckets.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 50_000_000
        };
        let mut h = Histogram::new();
        let mut prev = Histogram::new();
        let mut slots = Vec::new();
        for window in 0..20 {
            let snapshot = h.clone();
            for _ in 0..(window % 5) * 3 {
                h.record(next());
            }
            let d = h.delta_since(&snapshot);
            slots.clear();
            let got = h.fold_window(&mut prev, &mut slots);
            if d.count() == 0 {
                assert_eq!(got, None, "empty window");
                continue;
            }
            let want = WindowStats {
                count: d.count(),
                p50: d.p50(),
                p95: d.p95(),
                p99: d.p99(),
                min: d.min(),
                max: d.max(),
            };
            assert_eq!(got, Some(want), "window {window}");
            // the sparse slot run carries exactly the delta's bucket mass
            assert_eq!(slots.iter().map(|&(_, c)| c).sum::<u64>(), d.count());
            // sparse quantiles over the run agree with the materialized delta
            for q in [0.01, 0.25, 0.5, 0.9, 0.99] {
                assert_eq!(
                    sparse_quantile(&slots, d.count(), d.min(), d.max(), q),
                    d.quantile(q),
                    "q={q} window {window}"
                );
            }
            // and the mirror advanced to match the cumulative state
            assert_eq!(prev.count(), h.count());
            assert_eq!(prev.p99(), h.p99());
        }
    }

    #[test]
    fn registry_gauges() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.gauge(1, "depth"), None);
        m.set_gauge(1, "depth", 42);
        m.set_gauge(1, "depth", 17); // last write wins
        m.set_gauge(GLOBAL, "depth", 5);
        m.set_gauge(2, "vdl", 0);
        assert_eq!(m.gauge(1, "depth"), Some(17));
        assert_eq!(m.gauge(2, "vdl"), Some(0)); // real zero, not "unset"
        assert_eq!(m.gauge(3, "depth"), None);
        let snap = m.gauges_snapshot();
        assert_eq!(
            snap,
            vec![(1, "depth", 17), (2, "vdl", 0), (GLOBAL, "depth", 5)]
        );
        m.clear();
        assert_eq!(m.gauge(1, "depth"), None);
        assert!(m.gauges_snapshot().is_empty());
        // ids stay valid across clear
        let id = m.metric_id("depth");
        m.set_gauge_id(1, id, 9);
        assert_eq!(m.gauge(1, "depth"), Some(9));
    }

    #[test]
    fn registry_counters() {
        let mut m = MetricsRegistry::new();
        m.inc(1, "ios", 3);
        m.inc(2, "ios", 4);
        m.inc(1, "txns", 1);
        assert_eq!(m.counter(1, "ios"), 3);
        assert_eq!(m.counter(3, "ios"), 0);
        assert_eq!(m.counter_total("ios"), 7);
        assert_eq!(m.counter_names(), vec!["ios", "txns"]);
        m.clear();
        assert_eq!(m.counter_total("ios"), 0);
    }

    #[test]
    fn registry_histograms() {
        let mut m = MetricsRegistry::new();
        m.record(1, "lat", 10);
        m.record(2, "lat", 1000);
        assert_eq!(m.histogram(1, "lat").unwrap().count(), 1);
        assert!(m.histogram(9, "lat").is_none());
        let total = m.histogram_total("lat");
        assert_eq!(total.count(), 2);
        assert_eq!(total.min(), 10);
    }

    #[test]
    fn mean_accumulates() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn ids_are_stable_and_aliased_literals_unify() {
        let mut m = MetricsRegistry::new();
        let a = m.metric_id("engine.commits");
        let b = m.metric_id("engine.commits");
        assert_eq!(a, b);
        m.inc_id(GLOBAL, a, 2);
        m.inc(7, "engine.commits", 3);
        assert_eq!(m.counter_total("engine.commits"), 5);
        // handles survive a warm-up clear
        m.clear();
        assert_eq!(m.counter_total("engine.commits"), 0);
        m.inc_id(7, b, 1);
        assert_eq!(m.counter(7, "engine.commits"), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_skips_zeroes() {
        let mut m = MetricsRegistry::new();
        m.inc(2, "b", 1);
        m.inc(1, "a", 4);
        m.inc(GLOBAL, "a", 9);
        m.inc(1, "zero", 0);
        let snap = m.counters_snapshot();
        assert_eq!(snap, vec![(1, "a", 4), (2, "b", 1), (GLOBAL, "a", 9)]);
    }

    #[test]
    fn histograms_snapshot_is_sorted_and_skips_empties() {
        let mut m = MetricsRegistry::new();
        m.record(2, "b_ns", 100);
        m.record(1, "a_ns", 50);
        m.record(1, "a_ns", 150);
        m.inc(1, "counter_only", 1);
        let snap = m.histograms_snapshot();
        assert_eq!(snap.len(), 2);
        let (owner, name, count, p50, _p95, _p99, max) = snap[0];
        assert_eq!((owner, name, count), (1, "a_ns", 2));
        assert!(p50 >= 50 && max == 150, "p50={p50} max={max}");
        assert_eq!((snap[1].0, snap[1].1), (2, "b_ns"));
        m.clear();
        assert!(m.histograms_snapshot().is_empty());
    }

    #[test]
    fn histogram_after_clear_reports_none() {
        let mut m = MetricsRegistry::new();
        m.record(1, "lat", 10);
        m.clear();
        assert!(m.histogram(1, "lat").is_none());
        assert_eq!(m.histogram_total("lat").count(), 0);
    }
}
