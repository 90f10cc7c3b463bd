//! The registry: atomic metric primitives, families, span guards.

use crate::ring::{EventKind, EventRing, ObsEvent};
use energydx_stats::histogram::{Buckets, HistogramCells};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// The family every [`MetricsRegistry::span`] guard records into.
pub const STAGE_FAMILY: &str = "energydx_stage_duration_seconds";

/// The default duration bucket layout: 1 µs growing ×4 up to ~1074 s.
/// Sixteen buckets cover a cache-hit map shard and a stuck checkpoint
/// alike without per-family tuning.
pub fn duration_buckets() -> Buckets {
    Buckets::exponential(1e-6, 4.0, 16)
        .expect("static layout parameters are valid")
}

/// A monotonically increasing integer. Increments are single atomic
/// adds; reads are relaxed loads.
#[derive(Debug, Default)]
pub struct Counter {
    cell: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A settable float, stored as its bit pattern in an atomic word.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `v` (compare-and-swap loop; gauges are low-traffic).
    pub fn add(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram with atomic cells. Bucket math lives in
/// [`energydx_stats::histogram`]; this adds the concurrent recording.
#[derive(Debug)]
pub struct Histogram {
    buckets: Buckets,
    cells: Vec<AtomicU64>,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(buckets: Buckets) -> Self {
        let cells = (0..buckets.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets,
            cells,
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation: one atomic add on the bucket cell plus
    /// a CAS loop on the sum.
    pub fn observe(&self, v: f64) {
        let idx = self.buckets.index_for(v);
        self.cells[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The bucket layout.
    pub fn buckets(&self) -> &Buckets {
        &self.buckets
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of the cells, as the plain mergeable type.
    pub fn snapshot(&self) -> HistogramCells {
        let counts = self
            .cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed));
        HistogramCells::from_parts(self.buckets.clone(), counts, sum)
            .expect("cells match their own layout")
    }
}

/// What a family holds; fixed by the first registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Sorted `(label, value)` pairs identifying one series in a family.
pub(crate) type LabelSet = Vec<(String, String)>;

#[derive(Debug)]
pub(crate) struct Family {
    pub(crate) kind: Kind,
    pub(crate) series: BTreeMap<LabelSet, Metric>,
}

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

/// Named families of counters, gauges, and histograms, plus the event
/// ring. Lookup takes a read lock; first registration of a series
/// takes the write lock once. Handles are `Arc`s — cache them in hot
/// loops and the registry is never touched at all.
pub struct MetricsRegistry {
    zero_time: bool,
    pub(crate) families: RwLock<BTreeMap<String, Family>>,
    events: EventRing,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("zero_time", &self.zero_time)
            .field(
                "families",
                &self.families.read().expect("registry lock").len(),
            )
            .finish()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A registry on the wall clock — unless
    /// `ENERGYDX_DETERMINISTIC_TIME=1` is set, in which case spans
    /// record zero (checked once, here, so a registry's behavior never
    /// changes mid-flight).
    pub fn new() -> Self {
        let zero = std::env::var("ENERGYDX_DETERMINISTIC_TIME")
            .map(|v| v == "1")
            .unwrap_or(false);
        Self::with_zero_time(zero)
    }

    /// A registry whose spans always record zero duration, for
    /// byte-stable expositions in tests regardless of environment.
    pub fn deterministic() -> Self {
        Self::with_zero_time(true)
    }

    fn with_zero_time(zero_time: bool) -> Self {
        MetricsRegistry {
            zero_time,
            families: RwLock::new(BTreeMap::new()),
            events: EventRing::new(64),
        }
    }

    /// True when spans record zero duration.
    pub fn is_deterministic(&self) -> bool {
        self.zero_time
    }

    fn get_or_register(
        &self,
        family: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: impl Fn() -> Metric,
    ) -> Metric {
        let set = label_set(labels);
        {
            let fams = self.families.read().expect("registry lock");
            if let Some(fam) = fams.get(family) {
                if fam.kind != kind {
                    // Type clash: hand back a detached primitive so
                    // the caller keeps working; the registered family
                    // keeps its original type.
                    return make();
                }
                if let Some(m) = fam.series.get(&set) {
                    return m.clone();
                }
            }
        }
        let mut fams = self.families.write().expect("registry lock");
        let fam = fams.entry(family.to_string()).or_insert_with(|| Family {
            kind,
            series: BTreeMap::new(),
        });
        if fam.kind != kind {
            return make();
        }
        fam.series.entry(set).or_insert_with(make).clone()
    }

    /// The counter for `family{labels}`, registering it on first use.
    pub fn counter(
        &self,
        family: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        match self.get_or_register(family, labels, Kind::Counter, || {
            Metric::Counter(Arc::new(Counter::default()))
        }) {
            Metric::Counter(c) => c,
            _ => Arc::new(Counter::default()),
        }
    }

    /// The gauge for `family{labels}`, registering it on first use.
    pub fn gauge(&self, family: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_register(family, labels, Kind::Gauge, || {
            Metric::Gauge(Arc::new(Gauge::default()))
        }) {
            Metric::Gauge(g) => g,
            _ => Arc::new(Gauge::default()),
        }
    }

    /// The histogram for `family{labels}` over `buckets`, registering
    /// it on first use (an existing series keeps its original layout).
    pub fn histogram(
        &self,
        family: &str,
        labels: &[(&str, &str)],
        buckets: &Buckets,
    ) -> Arc<Histogram> {
        match self.get_or_register(family, labels, Kind::Histogram, || {
            Metric::Histogram(Arc::new(Histogram::new(buckets.clone())))
        }) {
            Metric::Histogram(h) => h,
            _ => Arc::new(Histogram::new(buckets.clone())),
        }
    }

    /// An RAII guard timing one pipeline stage into
    /// [`STAGE_FAMILY`]`{stage=...}`.
    pub fn span(&self, stage: &str) -> SpanGuard {
        self.timer(STAGE_FAMILY, &[("stage", stage)])
    }

    /// An RAII guard timing into an arbitrary duration family.
    pub fn timer(&self, family: &str, labels: &[(&str, &str)]) -> SpanGuard {
        let hist = self.histogram(family, labels, &duration_buckets());
        SpanGuard {
            hist: Some(hist),
            start: if self.zero_time {
                None
            } else {
                Some(Instant::now())
            },
        }
    }

    /// Records a notable event into the ring and bumps
    /// `energydx_events_total{kind=...}`.
    pub fn event(&self, kind: EventKind, detail: impl Into<String>) {
        self.events.push(kind, detail.into());
        self.counter("energydx_events_total", &[("kind", kind.as_str())])
            .inc();
    }

    /// The most recent events, oldest first.
    pub fn recent_events(&self) -> Vec<ObsEvent> {
        self.events.snapshot()
    }

    /// The value of a registered counter, if any — for assertions.
    pub fn counter_value(
        &self,
        family: &str,
        labels: &[(&str, &str)],
    ) -> Option<u64> {
        let fams = self.families.read().expect("registry lock");
        match fams.get(family)?.series.get(&label_set(labels))? {
            Metric::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// The value of a registered gauge, if any — for assertions.
    pub fn gauge_value(
        &self,
        family: &str,
        labels: &[(&str, &str)],
    ) -> Option<f64> {
        let fams = self.families.read().expect("registry lock");
        match fams.get(family)?.series.get(&label_set(labels))? {
            Metric::Gauge(g) => Some(g.get()),
            _ => None,
        }
    }

    /// A snapshot of a registered histogram, if any — for assertions.
    pub fn histogram_snapshot(
        &self,
        family: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramCells> {
        let fams = self.families.read().expect("registry lock");
        match fams.get(family)?.series.get(&label_set(labels))? {
            Metric::Histogram(h) => Some(h.snapshot()),
            _ => None,
        }
    }

    /// Folds another registry's numeric series into this one by
    /// addition: counters and gauges add, histogram cells add
    /// bucket-wise. Families whose type (or bucket layout) disagrees
    /// are skipped rather than corrupted. The event ring is *not*
    /// merged — rings are per-registry recency windows, but the
    /// mirrored `energydx_events_total` counters do merge, so counts
    /// survive the fold. Addition is commutative and associative, so
    /// folding shard registries in any order yields the same totals.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        let theirs = other.families.read().expect("registry lock");
        for (name, fam) in theirs.iter() {
            for (set, metric) in &fam.series {
                let labels: Vec<(&str, &str)> =
                    set.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                match metric {
                    Metric::Counter(c) => {
                        self.counter(name, &labels).add(c.get());
                    }
                    Metric::Gauge(g) => {
                        self.gauge(name, &labels).add(g.get());
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        let mine =
                            self.histogram(name, &labels, snap.buckets());
                        if mine.buckets() == snap.buckets() {
                            for (i, n) in snap.counts().iter().enumerate() {
                                mine.cells[i].fetch_add(*n, Ordering::Relaxed);
                            }
                            let mut cur = mine.sum_bits.load(Ordering::Relaxed);
                            loop {
                                let next = (f64::from_bits(cur) + snap.sum())
                                    .to_bits();
                                match mine.sum_bits.compare_exchange_weak(
                                    cur,
                                    next,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                ) {
                                    Ok(_) => break,
                                    Err(seen) => cur = seen,
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Renders the registry in Prometheus text format.
    pub fn render_prometheus(&self) -> String {
        crate::expo::render_prometheus(self)
    }
}

/// RAII span: records elapsed seconds into its histogram on drop (or
/// exactly zero on a deterministic-time registry).
#[derive(Debug)]
pub struct SpanGuard {
    hist: Option<Arc<Histogram>>,
    start: Option<Instant>,
}

impl SpanGuard {
    /// A guard that records nothing — the disabled-metrics case.
    pub fn noop() -> Self {
        SpanGuard {
            hist: None,
            start: None,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(h) = self.hist.take() {
            let secs =
                self.start.map(|s| s.elapsed().as_secs_f64()).unwrap_or(0.0);
            h.observe(secs);
        }
    }
}

/// An optional handle to a shared registry: `Clone` is an `Arc` clone,
/// and every recording method is a no-op when disabled, so structs can
/// carry one unconditionally (the default is disabled).
#[derive(Clone, Default)]
pub struct Metrics {
    reg: Option<Arc<MetricsRegistry>>,
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Metrics")
            .field("enabled", &self.reg.is_some())
            .finish()
    }
}

impl Metrics {
    /// The no-op handle.
    pub fn disabled() -> Self {
        Metrics { reg: None }
    }

    /// A handle recording into `reg`.
    pub fn enabled(reg: Arc<MetricsRegistry>) -> Self {
        Metrics { reg: Some(reg) }
    }

    /// True when recordings land somewhere.
    pub fn is_enabled(&self) -> bool {
        self.reg.is_some()
    }

    /// The underlying registry, when enabled.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.reg.as_ref()
    }

    /// Bumps a counter by one.
    pub fn inc(&self, family: &str, labels: &[(&str, &str)]) {
        if let Some(reg) = &self.reg {
            reg.counter(family, labels).inc();
        }
    }

    /// Bumps a counter by `n`.
    pub fn add(&self, family: &str, labels: &[(&str, &str)], n: u64) {
        if let Some(reg) = &self.reg {
            reg.counter(family, labels).add(n);
        }
    }

    /// Sets a gauge.
    pub fn set_gauge(&self, family: &str, labels: &[(&str, &str)], v: f64) {
        if let Some(reg) = &self.reg {
            reg.gauge(family, labels).set(v);
        }
    }

    /// Records into a histogram over the default duration buckets.
    pub fn observe(&self, family: &str, labels: &[(&str, &str)], v: f64) {
        if let Some(reg) = &self.reg {
            reg.histogram(family, labels, &duration_buckets())
                .observe(v);
        }
    }

    /// Times a pipeline stage (see [`MetricsRegistry::span`]).
    pub fn span(&self, stage: &str) -> SpanGuard {
        match &self.reg {
            Some(reg) => reg.span(stage),
            None => SpanGuard::noop(),
        }
    }

    /// Times into an arbitrary duration family.
    pub fn timer(&self, family: &str, labels: &[(&str, &str)]) -> SpanGuard {
        match &self.reg {
            Some(reg) => reg.timer(family, labels),
            None => SpanGuard::noop(),
        }
    }

    /// Records a notable event (see [`MetricsRegistry::event`]).
    pub fn event(&self, kind: EventKind, detail: impl Into<String>) {
        if let Some(reg) = &self.reg {
            reg.event(kind, detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::EventKind;

    #[test]
    fn counter_registers_once_and_accumulates() {
        let reg = MetricsRegistry::deterministic();
        let a = reg.counter("hits_total", &[("app", "mail")]);
        let b = reg.counter("hits_total", &[("app", "mail")]);
        a.inc();
        b.add(2);
        assert_eq!(
            reg.counter_value("hits_total", &[("app", "mail")]),
            Some(3)
        );
        assert_eq!(reg.counter_value("hits_total", &[]), None);
        assert_eq!(reg.counter_value("absent", &[]), None);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let reg = MetricsRegistry::deterministic();
        reg.counter("x_total", &[("a", "1"), ("b", "2")]).inc();
        reg.counter("x_total", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(
            reg.counter_value("x_total", &[("a", "1"), ("b", "2")]),
            Some(2)
        );
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = MetricsRegistry::deterministic();
        let g = reg.gauge("depth", &[]);
        g.set(4.0);
        g.add(-1.5);
        assert_eq!(reg.gauge_value("depth", &[]), Some(2.5));
    }

    #[test]
    fn kind_clash_returns_detached_handle() {
        let reg = MetricsRegistry::deterministic();
        reg.counter("thing", &[]).inc();
        // Asking for the same family as a gauge must not panic or
        // clobber the counter.
        reg.gauge("thing", &[]).set(9.0);
        assert_eq!(reg.counter_value("thing", &[]), Some(1));
        assert_eq!(reg.gauge_value("thing", &[]), None);
    }

    #[test]
    fn deterministic_spans_record_zero() {
        let reg = MetricsRegistry::deterministic();
        {
            let _s = reg.span("detect");
        }
        let snap = reg
            .histogram_snapshot(STAGE_FAMILY, &[("stage", "detect")])
            .unwrap();
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.sum(), 0.0);
        assert_eq!(snap.counts()[0], 1); // zero lands in the first bucket
    }

    #[test]
    fn wall_clock_spans_record_positive_elapsed() {
        let reg = MetricsRegistry::with_zero_time(false);
        {
            let _s = reg.span("sleepy");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = reg
            .histogram_snapshot(STAGE_FAMILY, &[("stage", "sleepy")])
            .unwrap();
        assert_eq!(snap.count(), 1);
        assert!(snap.sum() >= 0.002);
    }

    #[test]
    fn events_feed_ring_and_counter() {
        let reg = MetricsRegistry::deterministic();
        reg.event(EventKind::Shed, "app=mail");
        reg.event(EventKind::Shed, "app=gps");
        reg.event(EventKind::Spill, "traces=3");
        let events = reg.recent_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[2].kind, EventKind::Spill);
        assert_eq!(
            reg.counter_value("energydx_events_total", &[("kind", "shed")]),
            Some(2)
        );
    }

    #[test]
    fn merge_adds_counters_gauges_and_cells() {
        let a = MetricsRegistry::deterministic();
        let b = MetricsRegistry::deterministic();
        a.counter("n_total", &[]).add(2);
        b.counter("n_total", &[]).add(3);
        b.counter("only_b_total", &[("x", "y")]).inc();
        a.gauge("level", &[]).set(1.5);
        b.gauge("level", &[]).set(2.0);
        let layout = duration_buckets();
        a.histogram("dur", &[], &layout).observe(0.5);
        b.histogram("dur", &[], &layout).observe(0.5);
        b.histogram("dur", &[], &layout).observe(2e-6);

        a.merge_from(&b);
        assert_eq!(a.counter_value("n_total", &[]), Some(5));
        assert_eq!(a.counter_value("only_b_total", &[("x", "y")]), Some(1));
        assert_eq!(a.gauge_value("level", &[]), Some(3.5));
        let snap = a.histogram_snapshot("dur", &[]).unwrap();
        assert_eq!(snap.count(), 3);
        assert!((snap.sum() - 1.000002).abs() < 1e-9);
    }

    #[test]
    fn disabled_metrics_are_noops() {
        let m = Metrics::disabled();
        m.inc("a_total", &[]);
        m.set_gauge("g", &[], 1.0);
        m.observe("h", &[], 1.0);
        m.event(EventKind::Shed, "x");
        drop(m.span("stage"));
        assert!(!m.is_enabled());
        assert!(m.registry().is_none());

        let reg = Arc::new(MetricsRegistry::deterministic());
        let m = Metrics::enabled(Arc::clone(&reg));
        m.inc("a_total", &[]);
        drop(m.span("stage"));
        assert_eq!(reg.counter_value("a_total", &[]), Some(1));
        assert!(m.is_enabled());
    }
}
