//! Windowed time-series telemetry: a deterministic sampler on simulated
//! time, SLO probes evaluated per window, and flight-recorder exporters.
//!
//! The paper's operational story (§6) is continuous fleet observation —
//! operators watch per-node metrics evolve and catch gray degradation
//! *while it happens*, not from end-of-run totals. [`MetricsRegistry`]
//! is cumulative; this module adds the time axis: every
//! `sample_interval` of **simulated** time the sampler snapshots
//!
//! * counter **deltas** (work done in the window),
//! * **gauge** readings (queue depths, watermarks — point-in-time), and
//! * per-window **histogram quantiles** (via [`Histogram::delta_since`])
//!
//! into a bounded ring of [`TelemetryWindow`]s keyed by `(owner, metric)`,
//! with cross-owner fleet rollups per metric.
//!
//! ## Determinism argument
//!
//! The sampler is driven by the kernel's dispatch loop, **not** by timer
//! events: `Sim::step` flushes every sample boundary strictly below the
//! next event's timestamp before dispatching it, and `Sim::run_until`
//! flushes boundaries `<= t` when the clock lands on `t`. Closing a
//! window allocates no events, draws no randomness, sends no messages
//! and never mutates counter state — so enabling telemetry cannot shift
//! the global event sequence, the RNG stream, or any verdict. Two
//! same-seed runs (with telemetry on or off, sequential or under a
//! `--jobs N` sweep) dispatch identical event sequences; with telemetry
//! on they close identical windows and export byte-identical dumps.
//! Events scheduled exactly *at* a boundary `T` belong to the window
//! ending at `T` only if the clock passes `T` via `run_until(T)`;
//! otherwise the window closes when the kernel first advances beyond
//! `T`. Either way the rule is a pure function of the event timeline.
//!
//! ## SLO probes
//!
//! Each [`SloSpec`] is evaluated per window against the fleet rollups: a
//! quantile ceiling (commit p99, replica lag), a ratio floor
//! (availability = admitted/offered) or a ratio ceiling (shed-rate
//! burn). A probe with no signal in a window (empty denominator or
//! empty histogram) holds its streak; `sustain` consecutive breaching
//! windows record an [`SloBurn`] — the mid-run anomaly signal the DST
//! harness surfaces as an oracle violation and the flight recorder dumps
//! windows for.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::metrics::{sparse_quantile, Histogram, MetricsRegistry, GLOBAL};

/// Default sample interval: 100ms of simulated time.
pub const DEFAULT_INTERVAL_NS: u64 = 100_000_000;
/// Default ring capacity (windows kept for the flight recorder).
pub const DEFAULT_RING: usize = 256;

/// Sampler configuration.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Window length in simulated nanoseconds.
    pub interval_ns: u64,
    /// Number of most-recent windows kept (older windows are evicted but
    /// still counted, so exports say "showing last K of N").
    pub ring: usize,
    /// SLO probes evaluated at every window close.
    pub slos: Vec<SloSpec>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval_ns: DEFAULT_INTERVAL_NS,
            ring: DEFAULT_RING,
            slos: Vec::new(),
        }
    }
}

/// One sampled value inside a window.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryValue {
    /// Counter increase over the window.
    Delta(u64),
    /// Gauge reading at window close (piecewise-constant series).
    Gauge(u64),
    /// Summary of the histogram samples recorded inside the window.
    Quantiles {
        count: u64,
        p50: u64,
        p95: u64,
        p99: u64,
        max: u64,
    },
}

/// A `(owner, metric)` sample. In [`TelemetryWindow::rollups`] the owner
/// is [`GLOBAL`] and the value aggregates every owner (counters and
/// gauges sum; histograms merge before quantiling).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryPoint {
    pub owner: u32,
    pub metric: &'static str,
    pub value: TelemetryValue,
}

/// One closed sample window.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryWindow {
    /// 0-based window number since enable/rebase.
    pub index: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Per-owner points, sorted by `(owner, metric)` (GLOBAL last).
    pub points: Vec<TelemetryPoint>,
    /// Fleet rollups, sorted by metric.
    pub rollups: Vec<TelemetryPoint>,
}

/// What an SLO probe measures.
#[derive(Debug, Clone)]
pub enum SloKind {
    /// `quantile(metric, q)` of the window must stay `<= ceiling_ns`.
    QuantileCeiling {
        metric: &'static str,
        q: f64,
        ceiling_ns: u64,
    },
    /// `num / denom` (window counter deltas) must stay `>= floor`.
    RatioFloor {
        num: &'static str,
        denom: &'static str,
        floor: f64,
    },
    /// `num / denom` (window counter deltas) must stay `<= ceiling`.
    RatioCeiling {
        num: &'static str,
        denom: &'static str,
        ceiling: f64,
    },
}

/// A windowed service-level objective: `kind` must hold in every window;
/// `sustain` consecutive breaches record an [`SloBurn`].
#[derive(Debug, Clone)]
pub struct SloSpec {
    pub name: &'static str,
    pub sustain: u32,
    pub kind: SloKind,
}

impl SloSpec {
    /// Commit p99 must stay under `ceiling_ns` (fleet-merged
    /// `engine.commit_ns` window histogram).
    pub fn commit_p99_ceiling(ceiling_ns: u64, sustain: u32) -> SloSpec {
        SloSpec {
            name: "commit-p99",
            sustain,
            kind: SloKind::QuantileCeiling {
                metric: "engine.commit_ns",
                q: 0.99,
                ceiling_ns,
            },
        }
    }

    /// Availability: fraction of offered requests the proxy tier admitted.
    pub fn availability_floor(floor: f64, sustain: u32) -> SloSpec {
        SloSpec {
            name: "availability",
            sustain,
            kind: SloKind::RatioFloor {
                num: "proxy.forwarded",
                denom: "proxy.requests",
                floor,
            },
        }
    }

    /// Replica lag p99 must stay under `ceiling_ns`.
    pub fn replica_lag_ceiling(ceiling_ns: u64, sustain: u32) -> SloSpec {
        SloSpec {
            name: "replica-lag",
            sustain,
            kind: SloKind::QuantileCeiling {
                metric: "replica.lag_ns",
                q: 0.99,
                ceiling_ns,
            },
        }
    }

    /// Shed-rate burn: sheds per offered request must stay under `ceiling`.
    pub fn shed_rate_ceiling(ceiling: f64, sustain: u32) -> SloSpec {
        SloSpec {
            name: "shed-rate",
            sustain,
            kind: SloKind::RatioCeiling {
                num: "proxy.shard_sheds",
                denom: "proxy.requests",
                ceiling,
            },
        }
    }

    /// The default probe set for experiment timelines: generous fleet
    /// objectives (commit p99 ≤ 250ms, availability ≥ 99%, replica lag
    /// ≤ 1s, shed rate ≤ 5%) sustained for 3 windows.
    pub fn aurora_defaults() -> Vec<SloSpec> {
        vec![
            SloSpec::commit_p99_ceiling(250_000_000, 3),
            SloSpec::availability_floor(0.99, 3),
            SloSpec::replica_lag_ceiling(1_000_000_000, 3),
            SloSpec::shed_rate_ceiling(0.05, 3),
        ]
    }
}

/// Unit of an [`SloBurn`]'s value/limit pair (for rendering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloUnit {
    Nanos,
    Ratio,
}

/// A sustained SLO violation: `sustain` consecutive windows breached,
/// recorded once per episode (the streak must recover before the same
/// probe can burn again).
#[derive(Debug, Clone, PartialEq)]
pub struct SloBurn {
    pub probe: &'static str,
    /// Window index of the burn (the `sustain`-th consecutive breach).
    pub window: u64,
    pub end_ns: u64,
    pub value: f64,
    pub limit: f64,
    pub sustained: u32,
    pub unit: SloUnit,
}

/// The windowed sampler. Owned by `Sim` (`sim.telemetry`), flushed from
/// the kernel dispatch loop; off (and costing one branch per step) until
/// [`Sim::enable_telemetry`] is called.
#[derive(Debug)]
pub struct TelemetrySampler {
    enabled: bool,
    interval_ns: u64,
    ring_cap: usize,
    slos: Vec<SloSpec>,
    streaks: Vec<u32>,
    next_due_ns: u64,
    window_index: u64,
    window_start_ns: u64,
    /// Mirror of the registry's dense counter table at the last close.
    prev_counters: Vec<Vec<u64>>,
    /// Mirror of the registry's histograms at the last close.
    prev_hists: Vec<Vec<Option<Box<Histogram>>>>,
    /// Dense mirror of the registry's `hist_totals` rows at the last
    /// close. The per-window scan compares these sequential u64 rows and
    /// only dereferences the boxed histograms whose counts moved — after
    /// 100ms of simulation everything is cache-cold, and two dependent
    /// loads per (owner, histogram) pair dominate an idle close.
    prev_hist_totals: Vec<Vec<u64>>,
    /// Metric ids in display (name) order — the emit order of every
    /// window, cached so closes never sort. Rebuilt when ids are interned.
    rank: Vec<u32>,
    /// Reusable per-window fleet accumulators, indexed by metric id.
    roll_deltas: Vec<u64>,
    roll_delta_seen: Vec<bool>,
    roll_gauges: Vec<Option<u64>>,
    roll_hists: Vec<SparseRoll>,
    windows: VecDeque<TelemetryWindow>,
    evicted: u64,
    burns: Vec<SloBurn>,
}

/// Fleet-merged window histogram in sparse form: the concatenated
/// `(linear slot, delta)` runs of every owner's window, plus the merged
/// count/min/max envelope — everything [`sparse_quantile`] needs, with no
/// full bucket table ever materialized.
#[derive(Debug, Default)]
struct SparseRoll {
    slots: Vec<(u32, u64)>,
    count: u64,
    min: u64,
    max: u64,
}

impl Default for TelemetrySampler {
    fn default() -> Self {
        TelemetrySampler {
            enabled: false,
            interval_ns: 0,
            ring_cap: 0,
            slos: Vec::new(),
            streaks: Vec::new(),
            // Sentinel: the kernel's per-event `due` check is a single
            // compare against this field, so "disabled" must read as
            // "never due" without consulting `enabled`.
            next_due_ns: u64::MAX,
            window_index: 0,
            window_start_ns: 0,
            prev_counters: Vec::new(),
            prev_hists: Vec::new(),
            prev_hist_totals: Vec::new(),
            rank: Vec::new(),
            roll_deltas: Vec::new(),
            roll_delta_seen: Vec::new(),
            roll_gauges: Vec::new(),
            roll_hists: Vec::new(),
            windows: VecDeque::new(),
            evicted: 0,
            burns: Vec::new(),
        }
    }
}

impl SparseRoll {
    fn reset(&mut self) {
        self.slots.clear();
        self.count = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    fn quantile(&self, q: f64) -> u64 {
        sparse_quantile(&self.slots, self.count, self.min, self.max, q)
    }
}

impl TelemetrySampler {
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turn the sampler on (or reconfigure it): the first window starts
    /// at `now_ns` and closes at `now_ns + interval`.
    pub fn enable(&mut self, cfg: TelemetryConfig, now_ns: u64) {
        assert!(cfg.interval_ns > 0, "telemetry interval must be > 0");
        assert!(cfg.ring > 0, "telemetry ring must hold at least 1 window");
        self.enabled = true;
        self.interval_ns = cfg.interval_ns;
        self.ring_cap = cfg.ring;
        self.streaks = vec![0; cfg.slos.len()];
        self.slos = cfg.slos;
        self.rebase(now_ns);
    }

    /// Restart the window clock at `now_ns` and forget accumulated
    /// windows/burns. Called by `Sim::clear_stats` at warm-up boundaries
    /// so window 0 starts at the measurement window, aligned with the
    /// metric reset.
    pub fn rebase(&mut self, now_ns: u64) {
        if !self.enabled {
            return;
        }
        self.next_due_ns = now_ns + self.interval_ns;
        self.window_index = 0;
        self.window_start_ns = now_ns;
        self.prev_counters.clear();
        self.prev_hists.clear();
        self.prev_hist_totals.clear();
        self.windows.clear();
        self.evicted = 0;
        self.burns.clear();
        self.streaks.iter_mut().for_each(|s| *s = 0);
    }

    /// Whether any window boundary is due before `upto_ns` (`<=` when
    /// `inclusive`). The kernel's per-event fast path: a single compare —
    /// a disabled sampler holds `next_due_ns == u64::MAX`, so there is no
    /// separate enabled check to pay on the dispatch loop.
    #[inline]
    pub(crate) fn due(&self, upto_ns: u64, inclusive: bool) -> bool {
        let due = self.next_due_ns;
        due < upto_ns || (inclusive && due == upto_ns)
    }

    /// The next window boundary due before `upto_ns` (`<=` when
    /// `inclusive`), if any. Kernel-facing.
    #[inline]
    pub(crate) fn next_boundary(&self, upto_ns: u64, inclusive: bool) -> Option<u64> {
        let due = self.next_due_ns;
        if due < upto_ns || (inclusive && due == upto_ns) {
            Some(due)
        } else {
            None
        }
    }

    /// Sample interval in simulated nanoseconds (0 when disabled).
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Windows currently held in the ring (oldest first).
    pub fn windows(&self) -> &VecDeque<TelemetryWindow> {
        &self.windows
    }

    /// Total windows closed since enable/rebase (≥ `windows().len()`).
    pub fn total_windows(&self) -> u64 {
        self.window_index
    }

    /// Sustained SLO violations so far, in window order.
    pub fn burns(&self) -> &[SloBurn] {
        &self.burns
    }

    /// Close the window ending at `end_ns` against the current registry
    /// state. Kernel-facing: pure observation, no simulation side effects.
    ///
    /// One fused pass in emit order: node slots ascending (GLOBAL last,
    /// matching its `u32::MAX` owner id) and, per owner, metric ids
    /// through the cached name-rank permutation — so points come out
    /// `(owner, metric)`-sorted without a sort, counter mirrors advance in
    /// place, and histogram windows fold through
    /// [`Histogram::fold_window`] into sparse fleet accumulators. No full
    /// bucket table is allocated, copied or scanned in the steady state.
    pub(crate) fn close_window(&mut self, end_ns: u64, metrics: &MetricsRegistry) {
        let n_ids = metrics.names_len();
        if self.rank.len() != n_ids {
            // New metrics were interned since the last close (first-touch
            // order is deterministic, but display order is by name).
            self.rank = (0..n_ids as u32).collect();
            self.rank.sort_unstable_by_key(|&i| metrics.name_of(i));
        }
        self.roll_deltas.clear();
        self.roll_deltas.resize(n_ids, 0);
        self.roll_delta_seen.clear();
        self.roll_delta_seen.resize(n_ids, false);
        self.roll_gauges.clear();
        self.roll_gauges.resize(n_ids, None);
        if self.roll_hists.len() < n_ids {
            self.roll_hists.resize_with(n_ids, SparseRoll::default);
        }
        self.roll_hists.iter_mut().for_each(SparseRoll::reset);

        let counters = metrics.raw_counters();
        let gauges = metrics.raw_gauges();
        let hists = metrics.raw_histograms();
        let n_slots = counters.len().max(gauges.len()).max(hists.len());
        if self.prev_counters.len() < counters.len() {
            self.prev_counters.resize_with(counters.len(), Vec::new);
        }
        for (mine, theirs) in self.prev_counters.iter_mut().zip(counters) {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), 0);
            }
        }
        if self.prev_hists.len() < hists.len() {
            self.prev_hists.resize_with(hists.len(), Vec::new);
        }
        for (mine, theirs) in self.prev_hists.iter_mut().zip(hists) {
            if mine.len() < theirs.len() {
                mine.resize_with(theirs.len(), || None);
            }
        }
        let hist_totals = metrics.raw_hist_totals();
        if self.prev_hist_totals.len() < hist_totals.len() {
            self.prev_hist_totals
                .resize_with(hist_totals.len(), Vec::new);
        }
        for (mine, theirs) in self.prev_hist_totals.iter_mut().zip(hist_totals) {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), 0);
            }
        }

        let TelemetrySampler {
            rank,
            prev_counters,
            prev_hists,
            prev_hist_totals,
            roll_deltas,
            roll_delta_seen,
            roll_gauges,
            roll_hists,
            slos,
            streaks,
            burns,
            ..
        } = self;

        let mut points: Vec<TelemetryPoint> = Vec::new();
        // Slot 0 is GLOBAL (owner u32::MAX): emit it after the nodes.
        for s in (1..n_slots).chain((0..n_slots).take(1)) {
            let owner = owner_of(s);
            let crow: &[u64] = counters.get(s).map_or(&[], |r| &r[..]);
            let grow: &[Option<u64>] = gauges.get(s).map_or(&[], |r| &r[..]);
            let hrow: &[Option<Box<Histogram>>] = hists.get(s).map_or(&[], |r| &r[..]);
            let trow: &[u64] = hist_totals.get(s).map_or(&[], |r| &r[..]);
            for &id in rank.iter() {
                let i = id as usize;
                if let Some(&cur) = crow.get(i) {
                    let p = &mut prev_counters[s][i];
                    let d = cur.saturating_sub(*p);
                    *p = cur;
                    if d != 0 {
                        points.push(TelemetryPoint {
                            owner,
                            metric: metrics.name_of(id),
                            value: TelemetryValue::Delta(d),
                        });
                        roll_deltas[i] += d;
                        roll_delta_seen[i] = true;
                    }
                }
                if let Some(Some(v)) = grow.get(i) {
                    points.push(TelemetryPoint {
                        owner,
                        metric: metrics.name_of(id),
                        value: TelemetryValue::Gauge(*v),
                    });
                    *roll_gauges[i].get_or_insert(0) += *v;
                }
                if let Some(&tot) = trow.get(i) {
                    // Every record() bumps the dense total by one, so an
                    // unchanged total means an untouched histogram — the
                    // boxed tables stay cold unless this window has data.
                    let pt = &mut prev_hist_totals[s][i];
                    if tot != *pt {
                        *pt = tot;
                        let h = hrow[i]
                            .as_deref()
                            .expect("hist total moved but histogram absent");
                        let p = prev_hists[s][i].get_or_insert_with(|| Box::new(Histogram::new()));
                        let roll = &mut roll_hists[i];
                        if let Some(st) = h.fold_window(p, &mut roll.slots) {
                            points.push(TelemetryPoint {
                                owner,
                                metric: metrics.name_of(id),
                                value: TelemetryValue::Quantiles {
                                    count: st.count,
                                    p50: st.p50,
                                    p95: st.p95,
                                    p99: st.p99,
                                    max: st.max,
                                },
                            });
                            roll.count += st.count;
                            roll.min = roll.min.min(st.min);
                            roll.max = roll.max.max(st.max);
                        }
                    }
                }
            }
        }

        // Per-owner runs are slot-sorted but concatenated; order the
        // merged run once so cumulative quantile scans see value order.
        for roll in roll_hists.iter_mut() {
            if roll.count != 0 {
                roll.slots.sort_unstable_by_key(|&(slot, _)| slot);
            }
        }

        // Fleet rollups in the same name order as the per-owner points.
        let mut rollups: Vec<TelemetryPoint> = Vec::new();
        for &id in rank.iter() {
            let i = id as usize;
            let metric = metrics.name_of(id);
            if roll_delta_seen[i] {
                rollups.push(TelemetryPoint {
                    owner: GLOBAL,
                    metric,
                    value: TelemetryValue::Delta(roll_deltas[i]),
                });
            }
            if let Some(g) = roll_gauges[i] {
                rollups.push(TelemetryPoint {
                    owner: GLOBAL,
                    metric,
                    value: TelemetryValue::Gauge(g),
                });
            }
            let roll = &roll_hists[i];
            if roll.count != 0 {
                rollups.push(TelemetryPoint {
                    owner: GLOBAL,
                    metric,
                    value: TelemetryValue::Quantiles {
                        count: roll.count,
                        p50: roll.quantile(0.50),
                        p95: roll.quantile(0.95),
                        p99: roll.quantile(0.99),
                        max: roll.max,
                    },
                });
            }
        }

        // SLO probes against the fleet accumulators.
        for (k, spec) in slos.iter().enumerate() {
            let signal = match &spec.kind {
                SloKind::QuantileCeiling {
                    metric,
                    q,
                    ceiling_ns,
                } => metrics
                    .lookup_id(metric)
                    .and_then(|id| roll_hists.get(id as usize))
                    .filter(|roll| roll.count != 0)
                    .map(|roll| {
                        let v = roll.quantile(*q) as f64;
                        (
                            v,
                            *ceiling_ns as f64,
                            v > *ceiling_ns as f64,
                            SloUnit::Nanos,
                        )
                    }),
                SloKind::RatioFloor { num, denom, floor } => {
                    ratio(metrics, roll_deltas, num, denom)
                        .map(|r| (r, *floor, r < *floor, SloUnit::Ratio))
                }
                SloKind::RatioCeiling {
                    num,
                    denom,
                    ceiling,
                } => ratio(metrics, roll_deltas, num, denom)
                    .map(|r| (r, *ceiling, r > *ceiling, SloUnit::Ratio)),
            };
            match signal {
                Some((value, limit, true, unit)) => {
                    streaks[k] += 1;
                    if streaks[k] == spec.sustain {
                        burns.push(SloBurn {
                            probe: spec.name,
                            window: self.window_index,
                            end_ns,
                            value,
                            limit,
                            sustained: spec.sustain,
                            unit,
                        });
                    }
                }
                Some((_, _, false, _)) => streaks[k] = 0,
                // No signal (idle window): hold the streak.
                None => {}
            }
        }

        self.windows.push_back(TelemetryWindow {
            index: self.window_index,
            start_ns: self.window_start_ns,
            end_ns,
            points,
            rollups,
        });
        if self.windows.len() > self.ring_cap {
            self.windows.pop_front();
            self.evicted += 1;
        }

        self.window_index += 1;
        self.window_start_ns = end_ns;
        self.next_due_ns = end_ns + self.interval_ns;
    }

    // ---------------------------------------------------------------
    // Exporters. All output is a pure function of the ring contents, so
    // same-seed runs dump byte-identical artifacts.
    // ---------------------------------------------------------------

    /// NDJSON: one object per point (scope `node` or `fleet`), then one
    /// per SLO burn. `name_of` maps a node id to its display name.
    pub fn ndjson(&self, name_of: impl Fn(u32) -> String) -> String {
        let mut out = String::new();
        for w in &self.windows {
            for (scope, pts) in [("node", &w.points), ("fleet", &w.rollups)] {
                for p in pts {
                    let owner = if scope == "fleet" || p.owner == GLOBAL {
                        "fleet".to_string()
                    } else {
                        name_of(p.owner)
                    };
                    let _ = write!(
                        out,
                        "{{\"window\":{},\"start_ns\":{},\"end_ns\":{},\"scope\":\"{}\",\"owner\":\"{}\",\"metric\":\"{}\"",
                        w.index, w.start_ns, w.end_ns, scope, owner, p.metric
                    );
                    match &p.value {
                        TelemetryValue::Delta(d) => {
                            let _ = write!(out, ",\"kind\":\"delta\",\"value\":{d}");
                        }
                        TelemetryValue::Gauge(g) => {
                            let _ = write!(out, ",\"kind\":\"gauge\",\"value\":{g}");
                        }
                        TelemetryValue::Quantiles {
                            count,
                            p50,
                            p95,
                            p99,
                            max,
                        } => {
                            let _ = write!(
                                out,
                                ",\"kind\":\"quantiles\",\"count\":{count},\"p50_ns\":{p50},\"p95_ns\":{p95},\"p99_ns\":{p99},\"max_ns\":{max}"
                            );
                        }
                    }
                    out.push_str("}\n");
                }
            }
        }
        for b in &self.burns {
            let _ = writeln!(
                out,
                "{{\"slo_burn\":\"{}\",\"window\":{},\"end_ns\":{},\"value\":{:.6},\"limit\":{:.6},\"sustained\":{}}}",
                b.probe, b.window, b.end_ns, b.value, b.limit, b.sustained
            );
        }
        out
    }

    /// CSV twin of [`TelemetrySampler::ndjson`] (spreadsheet-friendly).
    pub fn csv(&self, name_of: impl Fn(u32) -> String) -> String {
        let mut out = String::from(
            "window,start_ns,end_ns,scope,owner,metric,kind,value,count,p50_ns,p95_ns,p99_ns,max_ns\n",
        );
        for w in &self.windows {
            for (scope, pts) in [("node", &w.points), ("fleet", &w.rollups)] {
                for p in pts {
                    let owner = if scope == "fleet" || p.owner == GLOBAL {
                        "fleet".to_string()
                    } else {
                        name_of(p.owner)
                    };
                    let _ = write!(
                        out,
                        "{},{},{},{},{},{},",
                        w.index, w.start_ns, w.end_ns, scope, owner, p.metric
                    );
                    match &p.value {
                        TelemetryValue::Delta(d) => {
                            let _ = writeln!(out, "delta,{d},,,,,");
                        }
                        TelemetryValue::Gauge(g) => {
                            let _ = writeln!(out, "gauge,{g},,,,,");
                        }
                        TelemetryValue::Quantiles {
                            count,
                            p50,
                            p95,
                            p99,
                            max,
                        } => {
                            let _ = writeln!(out, "quantiles,,{count},{p50},{p95},{p99},{max}");
                        }
                    }
                }
            }
        }
        out
    }

    /// Chrome-trace counter events ("C" phase) from the fleet rollups,
    /// one JSON object per line element, ready to splice into the PR5
    /// chrome trace so counter tracks plot next to spans in Perfetto.
    /// Counters export as `<metric>/win`, histograms as `<metric>.p99_ms`,
    /// gauges as the raw reading.
    pub fn chrome_counter_events(&self) -> Vec<String> {
        let mut out = Vec::new();
        for w in &self.windows {
            for p in &w.rollups {
                let (suffix, value) = match &p.value {
                    TelemetryValue::Delta(d) => ("/win".to_string(), *d as f64),
                    TelemetryValue::Gauge(g) => ("".to_string(), *g as f64),
                    TelemetryValue::Quantiles { p99, .. } => {
                        (".p99_ms".to_string(), *p99 as f64 / 1e6)
                    }
                };
                out.push(format!(
                    "{{\"name\":\"{}{}\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\"args\":{{\"value\":{:.3}}}}}",
                    p.metric,
                    suffix,
                    ts_us(w.end_ns),
                    value
                ));
            }
        }
        out
    }

    /// Terminal sparkline/table render of the fleet rollup series plus
    /// any SLO burns — the flight recorder's human-facing view.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let shown = self.windows.len();
        let total = self.window_index;
        if shown == 0 {
            let _ = writeln!(out, "== telemetry: no closed windows ==");
            return out;
        }
        let _ = writeln!(
            out,
            "== telemetry: {} window(s) x {}ms (showing last {} of {}), {} slo probe(s), {} burn(s) ==",
            shown,
            self.interval_ns / 1_000_000,
            shown,
            total,
            self.slos.len(),
            self.burns.len()
        );

        // Collect the union of rollup metrics (per kind) across the ring.
        let mut series: Vec<(&'static str, u8)> = Vec::new();
        for w in &self.windows {
            for p in &w.rollups {
                let kind = kind_tag(&p.value);
                if !series.contains(&(p.metric, kind)) {
                    series.push((p.metric, kind));
                }
            }
        }
        series.sort_unstable();

        const SPARK_W: usize = 64;
        let first = shown.saturating_sub(SPARK_W);
        let _ = writeln!(
            out,
            "  {:<34} {:>10}  {:<w$} {:>12} {:>12}",
            "metric",
            "unit",
            "spark",
            "last",
            "peak",
            w = shown.min(SPARK_W)
        );
        for (metric, kind) in &series {
            let mut vals: Vec<Option<f64>> = Vec::with_capacity(shown);
            for w in self.windows.iter().skip(first) {
                let v = w.rollups.iter().find_map(|p| {
                    if p.metric == *metric && kind_tag(&p.value) == *kind {
                        Some(plot_value(&p.value))
                    } else {
                        None
                    }
                });
                vals.push(v);
            }
            let peak = vals.iter().flatten().cloned().fold(0.0f64, f64::max);
            let last = vals.iter().rev().flatten().next().copied().unwrap_or(0.0);
            let unit = match kind {
                0 => "delta/win",
                1 => "gauge",
                _ => "p99 ms",
            };
            let spark: String = vals
                .iter()
                .map(|v| match v {
                    None => ' ',
                    Some(v) => spark_char(*v, peak),
                })
                .collect();
            let name = match kind {
                2 => format!("{metric}.p99"),
                _ => metric.to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<34} {:>10}  {:<w$} {:>12.2} {:>12.2}",
                name,
                unit,
                spark,
                last,
                peak,
                w = shown.min(SPARK_W)
            );
        }
        if !self.burns.is_empty() {
            let _ = writeln!(out, "slo burns:");
            for b in &self.burns {
                let (v, l) = match b.unit {
                    SloUnit::Nanos => (
                        format!("{:.2}ms", b.value / 1e6),
                        format!("{:.2}ms", b.limit / 1e6),
                    ),
                    SloUnit::Ratio => (format!("{:.4}", b.value), format!("{:.4}", b.limit)),
                };
                let _ = writeln!(
                    out,
                    "  [w{} @ {:.2}s] {}: value {} breaches limit {} (sustained {} windows)",
                    b.window,
                    b.end_ns as f64 / 1e9,
                    b.probe,
                    v,
                    l,
                    b.sustained
                );
            }
        }
        out
    }
}

#[inline]
fn owner_of(slot: usize) -> u32 {
    if slot == 0 {
        GLOBAL
    } else {
        (slot - 1) as u32
    }
}

fn ratio(metrics: &MetricsRegistry, deltas: &[u64], num: &str, denom: &str) -> Option<f64> {
    let d = metrics
        .lookup_id(denom)
        .and_then(|id| deltas.get(id as usize))
        .copied()
        .unwrap_or(0);
    if d == 0 {
        return None;
    }
    let n = metrics
        .lookup_id(num)
        .and_then(|id| deltas.get(id as usize))
        .copied()
        .unwrap_or(0);
    Some(n as f64 / d as f64)
}

fn kind_tag(v: &TelemetryValue) -> u8 {
    match v {
        TelemetryValue::Delta(_) => 0,
        TelemetryValue::Gauge(_) => 1,
        TelemetryValue::Quantiles { .. } => 2,
    }
}

/// Scalar plotted in the sparkline for each value kind (p99 in ms for
/// histograms so rows stay readable).
fn plot_value(v: &TelemetryValue) -> f64 {
    match v {
        TelemetryValue::Delta(d) => *d as f64,
        TelemetryValue::Gauge(g) => *g as f64,
        TelemetryValue::Quantiles { p99, .. } => *p99 as f64 / 1e6,
    }
}

fn spark_char(v: f64, peak: f64) -> char {
    const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if peak <= 0.0 {
        return RAMP[0];
    }
    let idx = ((v / peak) * 7.0).round() as usize;
    RAMP[idx.min(7)]
}

/// Chrome-trace microsecond timestamp with sub-µs fraction — matches the
/// span exporter in [`crate::trace`] so counters and spans align.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(s: &mut TelemetrySampler, end_ns: u64, m: &MetricsRegistry) {
        s.close_window(end_ns, m);
    }

    fn enabled(slos: Vec<SloSpec>) -> TelemetrySampler {
        let mut s = TelemetrySampler::default();
        s.enable(
            TelemetryConfig {
                interval_ns: 100_000_000,
                ring: 8,
                slos,
            },
            0,
        );
        s
    }

    #[test]
    fn windows_capture_counter_deltas_not_totals() {
        let mut m = MetricsRegistry::new();
        let mut s = enabled(vec![]);
        m.inc(1, "c", 5);
        close(&mut s, 100_000_000, &m);
        m.inc(1, "c", 3);
        close(&mut s, 200_000_000, &m);
        close(&mut s, 300_000_000, &m); // idle window
        let w: Vec<_> = s.windows().iter().collect();
        assert_eq!(w.len(), 3);
        assert_eq!(
            w[0].points,
            vec![TelemetryPoint {
                owner: 1,
                metric: "c",
                value: TelemetryValue::Delta(5)
            }]
        );
        assert_eq!(w[1].points[0].value, TelemetryValue::Delta(3));
        assert!(w[2].points.is_empty(), "idle window has no points");
        assert_eq!(w[2].index, 2);
        assert_eq!(w[2].start_ns, 200_000_000);
        assert_eq!(w[2].end_ns, 300_000_000);
    }

    #[test]
    fn histogram_points_are_windowed_quantiles() {
        let mut m = MetricsRegistry::new();
        let mut s = enabled(vec![]);
        m.record(3, "lat", 1_000);
        close(&mut s, 100_000_000, &m);
        m.record(3, "lat", 9_000_000);
        close(&mut s, 200_000_000, &m);
        let w: Vec<_> = s.windows().iter().collect();
        match &w[1].points[0].value {
            TelemetryValue::Quantiles { count, p99, .. } => {
                assert_eq!(*count, 1);
                // second window saw only the 9ms sample — a cumulative
                // p99 would still be dominated by it, but count proves
                // the 1µs sample was excluded
                assert_eq!(*p99, 9_000_000);
            }
            v => panic!("expected quantiles, got {v:?}"),
        }
    }

    #[test]
    fn rollups_aggregate_across_owners() {
        let mut m = MetricsRegistry::new();
        let mut s = enabled(vec![]);
        m.inc(1, "c", 5);
        m.inc(2, "c", 7);
        m.set_gauge(1, "depth", 3);
        m.set_gauge(2, "depth", 4);
        m.record(1, "lat", 100);
        m.record(2, "lat", 300);
        close(&mut s, 100_000_000, &m);
        let w = s.windows().front().unwrap();
        assert_eq!(w.points.len(), 6);
        assert_eq!(
            w.rollups,
            vec![
                TelemetryPoint {
                    owner: GLOBAL,
                    metric: "c",
                    value: TelemetryValue::Delta(12)
                },
                TelemetryPoint {
                    owner: GLOBAL,
                    metric: "depth",
                    value: TelemetryValue::Gauge(7)
                },
                TelemetryPoint {
                    owner: GLOBAL,
                    metric: "lat",
                    value: TelemetryValue::Quantiles {
                        count: 2,
                        p50: 100,
                        p95: 300,
                        p99: 300,
                        max: 300
                    }
                },
            ]
        );
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut m = MetricsRegistry::new();
        let mut s = TelemetrySampler::default();
        s.enable(
            TelemetryConfig {
                interval_ns: 100,
                ring: 2,
                slos: vec![],
            },
            0,
        );
        for k in 1..=5u64 {
            m.inc(1, "c", k);
            close(&mut s, k * 100, &m);
        }
        assert_eq!(s.windows().len(), 2);
        assert_eq!(s.total_windows(), 5);
        assert_eq!(s.windows().front().unwrap().index, 3);
        assert_eq!(s.windows().back().unwrap().index, 4);
    }

    #[test]
    fn slo_burn_fires_after_sustained_breach_and_rearms() {
        let mut m = MetricsRegistry::new();
        let slo = SloSpec {
            name: "commit-p99",
            sustain: 2,
            kind: SloKind::QuantileCeiling {
                metric: "engine.commit_ns",
                q: 0.99,
                ceiling_ns: 1_000_000,
            },
        };
        let mut s = enabled(vec![slo]);
        // window 0: healthy
        m.record(1, "engine.commit_ns", 500_000);
        close(&mut s, 100_000_000, &m);
        // windows 1-2: breach (10ms)
        m.record(1, "engine.commit_ns", 10_000_000);
        close(&mut s, 200_000_000, &m);
        m.record(1, "engine.commit_ns", 10_000_000);
        close(&mut s, 300_000_000, &m);
        assert_eq!(s.burns().len(), 1, "burn on the 2nd consecutive breach");
        let b = &s.burns()[0];
        assert_eq!(b.probe, "commit-p99");
        assert_eq!(b.window, 2);
        assert_eq!(b.unit, SloUnit::Nanos);
        assert!(b.value > b.limit);
        // window 3: still breaching — no second burn mid-episode
        m.record(1, "engine.commit_ns", 10_000_000);
        close(&mut s, 400_000_000, &m);
        assert_eq!(s.burns().len(), 1);
        // windows 4 (recover) then 5-6 (breach again): a second burn
        m.record(1, "engine.commit_ns", 500_000);
        close(&mut s, 500_000_000, &m);
        m.record(1, "engine.commit_ns", 10_000_000);
        close(&mut s, 600_000_000, &m);
        m.record(1, "engine.commit_ns", 10_000_000);
        close(&mut s, 700_000_000, &m);
        assert_eq!(s.burns().len(), 2);
    }

    #[test]
    fn slo_idle_window_holds_streak() {
        let mut m = MetricsRegistry::new();
        let slo = SloSpec {
            name: "commit-p99",
            sustain: 2,
            kind: SloKind::QuantileCeiling {
                metric: "engine.commit_ns",
                q: 0.99,
                ceiling_ns: 1_000_000,
            },
        };
        let mut s = enabled(vec![slo]);
        m.record(1, "engine.commit_ns", 10_000_000);
        close(&mut s, 100_000_000, &m);
        // idle window: no samples — must not reset the streak
        close(&mut s, 200_000_000, &m);
        m.record(1, "engine.commit_ns", 10_000_000);
        close(&mut s, 300_000_000, &m);
        assert_eq!(s.burns().len(), 1, "streak held across the idle window");
    }

    #[test]
    fn availability_ratio_probe() {
        let mut m = MetricsRegistry::new();
        let mut s = enabled(vec![SloSpec::availability_floor(0.99, 1)]);
        m.inc(1, "proxy.requests", 100);
        m.inc(1, "proxy.forwarded", 100);
        close(&mut s, 100_000_000, &m);
        assert!(s.burns().is_empty());
        m.inc(1, "proxy.requests", 100);
        m.inc(1, "proxy.forwarded", 50);
        close(&mut s, 200_000_000, &m);
        assert_eq!(s.burns().len(), 1);
        let b = &s.burns()[0];
        assert_eq!(b.unit, SloUnit::Ratio);
        assert!((b.value - 0.5).abs() < 1e-9);
    }

    #[test]
    fn exports_are_pure_functions_of_the_ring() {
        let mut m = MetricsRegistry::new();
        let mut s = enabled(vec![SloSpec::commit_p99_ceiling(1_000_000, 1)]);
        m.inc(1, "c", 5);
        m.set_gauge(2, "depth", 9);
        m.record(1, "engine.commit_ns", 50_000_000);
        close(&mut s, 100_000_000, &m);
        let names = |o: u32| format!("node{o}");
        let nd1 = s.ndjson(names);
        let nd2 = s.ndjson(names);
        assert_eq!(nd1, nd2);
        assert!(nd1.contains("\"scope\":\"fleet\""));
        assert!(nd1.contains("\"slo_burn\":\"commit-p99\""));
        assert!(nd1.contains("\"owner\":\"node1\""));
        let csv = s.csv(names);
        assert!(csv.starts_with("window,start_ns,end_ns,"));
        assert!(csv.lines().count() > 3);
        let chrome = s.chrome_counter_events();
        assert!(chrome.iter().any(|e| e.contains("\"ph\":\"C\"")));
        assert!(chrome.iter().any(|e| e.contains("engine.commit_ns.p99_ms")));
        let table = s.render_table();
        assert!(table.contains("slo burns:"));
        assert!(table.contains("commit-p99"));
    }

    #[test]
    fn rebase_restarts_window_numbering_and_forgets_state() {
        let mut m = MetricsRegistry::new();
        let mut s = enabled(vec![SloSpec::commit_p99_ceiling(1, 1)]);
        m.record(1, "engine.commit_ns", 100);
        m.inc(1, "c", 5);
        close(&mut s, 100_000_000, &m);
        assert_eq!(s.burns().len(), 1);
        // warm-up boundary: metrics clear + rebase together
        m.clear();
        s.rebase(150_000_000);
        assert!(s.windows().is_empty());
        assert!(s.burns().is_empty());
        assert_eq!(s.next_boundary(250_000_001, false), Some(250_000_000));
        // counters restarted from zero must not produce negative deltas
        m.inc(1, "c", 2);
        close(&mut s, 250_000_000, &m);
        let w = s.windows().front().unwrap();
        assert_eq!(w.index, 0);
        assert_eq!(w.points[0].value, TelemetryValue::Delta(2));
    }

    #[test]
    fn boundary_arithmetic() {
        let mut s = TelemetrySampler::default();
        s.enable(
            TelemetryConfig {
                interval_ns: 100,
                ring: 4,
                slos: vec![],
            },
            1_000,
        );
        assert_eq!(s.next_boundary(1_100, false), None);
        assert_eq!(s.next_boundary(1_100, true), Some(1_100));
        assert_eq!(s.next_boundary(1_101, false), Some(1_100));
        let m = MetricsRegistry::new();
        s.close_window(1_100, &m);
        assert_eq!(s.next_boundary(1_101, false), None);
        assert_eq!(s.next_boundary(1_201, false), Some(1_200));
    }
}
