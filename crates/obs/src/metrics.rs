//! Lock-light metrics primitives and the registry that names them.
//!
//! The MSU's disk and network processes run on a real-time duty cycle,
//! so instrumentation must never block: every update here is a relaxed
//! atomic operation on a handle the caller obtained once at startup.
//! The only mutex in the module guards the name→metric map, touched at
//! registration and snapshot time.

use calliope_check::sync::atomic::{AtomicU64, Ordering};
use calliope_types::wire::stats::{HistBucket, MetricEntry, MetricValue, StatsSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bucket bounds (microseconds) for latency-style histograms: packet
/// lateness, disk service time, queue wait. 50 µs resolution at the
/// bottom, stretching to one second; an implicit overflow bucket
/// catches the rest.
pub const LATENCY_US_BUCKETS: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        // relaxed: a statistic — atomicity (no lost increments) is all
        // that is needed; nothing is published through the counter.
        // Model-checked in tests/model.rs.
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // relaxed: see `inc`.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // relaxed: snapshot readers tolerate slightly stale values.
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        // relaxed: see `Registry::reset` — benchmark boundaries only.
        self.value.store(0, Ordering::Relaxed);
    }
}

/// An instantaneous level that also remembers its high-water mark.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high_water: AtomicU64,
}

impl Gauge {
    /// Sets the current level, raising the high-water mark if exceeded.
    #[inline]
    pub fn set(&self, v: u64) {
        // relaxed: last-writer-wins level; readers tolerate staleness.
        self.value.store(v, Ordering::Relaxed);
        // relaxed: fetch_max is atomic, so the mark is monotone even
        // when setters race. Model-checked in tests/model.rs.
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Raises only the high-water mark (for externally tracked levels).
    #[inline]
    pub fn observe_peak(&self, v: u64) {
        // relaxed: see `set`.
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        // relaxed: snapshot readers tolerate slightly stale values.
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever set.
    pub fn high_water(&self) -> u64 {
        // relaxed: snapshot readers tolerate slightly stale values.
        self.high_water.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        // relaxed: benchmark warmup boundaries only, like Counter.
        self.value.store(0, Ordering::Relaxed);
        // relaxed: see above.
        self.high_water.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram of `u64` samples.
///
/// Bounds are chosen at registration; recording is a short linear scan
/// (bounds lists are small) plus two relaxed `fetch_add`s. Values above
/// the last bound land in an implicit overflow bucket.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One per bound, plus the overflow bucket at the end.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        // relaxed: statistics — atomicity per cell is enough; bucket and
        // sum are not read as a consistent pair.
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // relaxed: see above.
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        // relaxed: snapshot readers tolerate slightly stale values.
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for b in &self.buckets {
            // relaxed: benchmark warmup boundaries only.
            b.store(0, Ordering::Relaxed);
        }
        // relaxed: see above.
        self.sum.store(0, Ordering::Relaxed);
    }

    /// Renders the cumulative wire form.
    pub fn snapshot_value(&self) -> MetricValue {
        let mut cum = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.iter().enumerate() {
            // relaxed: snapshot readers tolerate slightly stale values.
            cum += b.load(Ordering::Relaxed);
            out.push(HistBucket {
                le: self.bounds.get(i).copied().unwrap_or(u64::MAX),
                count: cum,
            });
        }
        MetricValue::Histogram {
            buckets: out,
            count: cum,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Estimates the `q`-quantile (`0.0..=1.0`) of a wire-form histogram by
/// linear interpolation within the containing bucket, in the style of
/// Prometheus's `histogram_quantile`:
///
/// * the target rank is `q × count`, found in the first bucket whose
///   cumulative count reaches it;
/// * the estimate interpolates linearly between the bucket's lower and
///   upper bounds according to where the rank falls inside it;
/// * ranks landing in the overflow bucket clamp to its lower bound —
///   there is no upper bound to interpolate toward.
///
/// Returns `None` for empty histograms and non-histogram values.
pub fn histogram_quantile(value: &MetricValue, q: f64) -> Option<f64> {
    let MetricValue::Histogram { buckets, count, .. } = value else {
        return None;
    };
    if *count == 0 || buckets.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * *count as f64).max(f64::MIN_POSITIVE);
    let mut lower = 0u64;
    let mut prev_cum = 0u64;
    for b in buckets {
        if (b.count as f64) >= rank {
            if b.le == u64::MAX {
                // Overflow bucket: clamp to its lower bound.
                return Some(lower as f64);
            }
            let in_bucket = (b.count - prev_cum) as f64;
            let frac = if in_bucket > 0.0 {
                (rank - prev_cum as f64) / in_bucket
            } else {
                1.0
            };
            return Some(lower as f64 + (b.le - lower) as f64 * frac);
        }
        lower = b.le;
        prev_cum = b.count;
    }
    Some(lower as f64)
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn snapshot_value(&self) -> MetricValue {
        match self {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge {
                value: g.get(),
                high_water: g.high_water(),
            },
            Metric::Histogram(h) => h.snapshot_value(),
        }
    }

    fn reset(&self) {
        match self {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

/// A named collection of metrics belonging to one component.
///
/// `counter`/`gauge`/`histogram` are get-or-create: asking twice for
/// the same name returns the same underlying metric, so independent
/// subsystems can share a series. Asking for an existing name with a
/// different kind panics — that is a programming error, not a runtime
/// condition.
pub struct Registry {
    /// Uptime epoch. Behind a mutex so [`Registry::reset`] can restart
    /// the clock; touched only at snapshot/reset time.
    started: Mutex<Instant>,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry; uptime counts from now.
    pub fn new() -> Registry {
        Registry {
            started: Mutex::new(Instant::now()),
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Zeroes every registered metric and restarts the uptime clock
    /// together, so rates derived from a snapshot (counter ÷
    /// `uptime_us`) never mix since-reset counts with
    /// since-construction time. Not linearizable against concurrent
    /// updates; meant for benchmark warmup boundaries.
    pub fn reset(&self) {
        for metric in self.metrics.lock().unwrap().values() {
            metric.reset();
        }
        *self.started.lock().unwrap() = Instant::now();
    }

    /// Gets or creates a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Gets or creates a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Gets or creates a histogram with the given bucket bounds (bounds
    /// are fixed by whoever registers first).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Microseconds since construction or the last [`Registry::reset`],
    /// for snapshot stamping and rates.
    pub fn uptime_us(&self) -> u64 {
        self.started.lock().unwrap().elapsed().as_micros() as u64
    }

    /// Flattens every metric into the wire snapshot form, sorted by
    /// name.
    pub fn snapshot(&self, source: &str) -> StatsSnapshot {
        let metrics = {
            let m = self.metrics.lock().unwrap();
            m.iter()
                .map(|(name, metric)| MetricEntry {
                    name: name.clone(),
                    value: metric.snapshot_value(),
                })
                .collect()
        };
        StatsSnapshot {
            source: source.to_owned(),
            uptime_us: self.uptime_us(),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn concurrent_counter_increments_are_all_counted() {
        let reg = Arc::new(Registry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = reg.counter("hits");
                thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("hits").get(), threads * per_thread);
        let snap = reg.snapshot("test");
        assert_eq!(snap.counter("hits"), threads * per_thread);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[10, 100, 1000]);
        // A value exactly equal to a bound belongs to that bound.
        h.record(10);
        h.record(11);
        h.record(100);
        h.record(1000);
        h.record(1001); // overflow
        h.record(0);
        let MetricValue::Histogram {
            buckets,
            count,
            sum,
        } = h.snapshot_value()
        else {
            panic!("expected histogram")
        };
        assert_eq!(count, 6);
        assert_eq!(sum, 10 + 11 + 100 + 1000 + 1001);
        // Cumulative: le=10 holds {0,10}; le=100 adds {11,100}; le=1000
        // adds {1000}; overflow adds {1001}.
        assert_eq!(buckets[0], HistBucket { le: 10, count: 2 });
        assert_eq!(buckets[1], HistBucket { le: 100, count: 4 });
        assert_eq!(buckets[2], HistBucket { le: 1000, count: 5 });
        assert_eq!(
            buckets[3],
            HistBucket {
                le: u64::MAX,
                count: 6
            }
        );
    }

    #[test]
    fn concurrent_histogram_records_preserve_count() {
        let reg = Arc::new(Registry::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = reg.histogram("svc", LATENCY_US_BUCKETS);
                thread::spawn(move || {
                    for i in 0..5_000u64 {
                        h.record(t * 997 + i % 2_000_000);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let h = reg.histogram("svc", LATENCY_US_BUCKETS);
        assert_eq!(h.count(), 20_000);
        let snap = reg.snapshot("test").get("svc").cloned().unwrap();
        let MetricValue::Histogram { buckets, count, .. } = snap else {
            panic!("expected histogram")
        };
        assert_eq!(count, 20_000);
        assert_eq!(buckets.last().unwrap().count, 20_000);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(3);
        g.set(17);
        g.set(5);
        assert_eq!(g.get(), 5);
        assert_eq!(g.high_water(), 17);
        g.observe_peak(40);
        assert_eq!(g.get(), 5);
        assert_eq!(g.high_water(), 40);
    }

    #[test]
    fn snapshot_is_sorted_and_same_name_shares_metric() {
        let reg = Registry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").add(2);
        reg.counter("a.first").inc();
        let snap = reg.snapshot("sorted");
        let names: Vec<_> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a.first", "z.last"]);
        assert_eq!(snap.counter("a.first"), 3);
        assert_eq!(snap.source, "sorted");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[100, 200, 400]);
        // 10 samples uniformly in (100, 200]: the bucket holds ranks
        // 1..=10, so p50 lands at rank 5 → 50% through the bucket.
        for _ in 0..10 {
            h.record(150);
        }
        let q = |p| histogram_quantile(&h.snapshot_value(), p).unwrap();
        assert!((q(0.50) - 150.0).abs() < 1e-9, "p50 = {}", q(0.50));
        // p100 interpolates to the bucket's upper bound.
        assert!((q(1.0) - 200.0).abs() < 1e-9);
        // p0 (well, rank→0+) degenerates to the bucket's lower bound.
        assert!((q(0.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_spanning_buckets_and_overflow() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[100, 200]);
        h.record(50); // le=100
        h.record(150); // le=200
        h.record(10_000); // overflow
        let q = |p| histogram_quantile(&h.snapshot_value(), p);
        // rank(0.5) = 1.5 → 2nd bucket, halfway between ranks 1 and 2:
        // 50% through (100, 200].
        assert!((q(0.5).unwrap() - 150.0).abs() < 1e-9);
        // The overflow bucket clamps to its lower bound.
        assert!((q(0.99).unwrap() - 200.0).abs() < 1e-9);
        // Empty histograms have no quantiles.
        let empty = reg.histogram("empty", &[10]).snapshot_value();
        assert_eq!(histogram_quantile(&empty, 0.5), None);
    }

    #[test]
    fn quantiles_pick_the_right_bucket() {
        // A wire-form histogram as a peer sends it: 10 samples, 4 <= 100,
        // 9 <= 1000, 1 overflow.
        let h = MetricValue::Histogram {
            buckets: vec![
                HistBucket { le: 100, count: 4 },
                HistBucket { le: 1000, count: 9 },
                HistBucket {
                    le: u64::MAX,
                    count: 10,
                },
            ],
            count: 10,
            sum: 5000,
        };
        let q = |p| histogram_quantile(&h, p).unwrap();
        // rank 5 is the first of the five samples in (100, 1000].
        assert!((q(0.5) - 280.0).abs() < 1e-9, "p50 = {}", q(0.5));
        // rank 4 is the last sample of the first bucket.
        assert!((q(0.4) - 100.0).abs() < 1e-9);
        // rank 10 is in the overflow bucket: clamped to its lower bound.
        assert!((q(1.0) - 1000.0).abs() < 1e-9);
        assert_eq!(h.mean(), Some(500.0));
        let empty = MetricValue::Histogram {
            buckets: vec![HistBucket {
                le: u64::MAX,
                count: 0,
            }],
            count: 0,
            sum: 0,
        };
        assert_eq!(histogram_quantile(&empty, 0.99), None);
        assert_eq!(empty.mean(), None);
    }

    #[test]
    fn histogram_quantile_ignores_non_histograms() {
        assert_eq!(histogram_quantile(&MetricValue::Counter(5), 0.5), None);
    }

    #[test]
    fn reset_zeroes_every_metric_and_restarts_the_clock() {
        let reg = Registry::new();
        let c = reg.counter("late.counter");
        let g = reg.gauge("late.gauge");
        let h = reg.histogram("late.hist", &[10, 100]);
        c.add(7);
        g.set(9);
        g.set(4);
        h.record(50);
        h.record(5_000);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let before = reg.uptime_us();
        assert!(before >= 20_000);
        reg.reset();
        let after = reg.uptime_us();
        assert!(after < before, "uptime restarted: {after} < {before}");
        assert_eq!(c.get(), 0);
        assert_eq!((g.get(), g.high_water()), (0, 0));
        assert_eq!(h.count(), 0);
        let snap = reg.snapshot("after");
        assert_eq!(snap.counter("late.counter"), 0);
        assert_eq!(
            snap.get("late.hist"),
            Some(&MetricValue::Histogram {
                buckets: [10, 100, u64::MAX]
                    .map(|le| HistBucket { le, count: 0 })
                    .to_vec(),
                count: 0,
                sum: 0,
            })
        );
        // The handles stay live: counting resumes from zero.
        c.inc();
        assert_eq!(reg.snapshot("again").counter("late.counter"), 1);
    }
}
