//! Coordinator load accounting — the instrumentation behind §3.3.
//!
//! "We measured the Coordinator's CPU utilization at 14% and the
//! network utilization at 6%." The Coordinator tallies the CPU time it
//! spends processing requests and the intra-server bytes it moves;
//! utilization is busy time (or bytes) over the registry's uptime.
//!
//! All counters live in a [`calliope_obs::Registry`], so the same
//! figures the §3.3 benchmark reads are exported over the wire by
//! `ClientRequest::Stats` alongside the admission-control metrics
//! (grants, rejections, and queue-wait histogram).

use calliope_obs::{Counter, Histogram, Registry, LATENCY_US_BUCKETS};
use calliope_types::wire::stats::StatsSnapshot;
use std::sync::Arc;
use std::time::Duration;

/// The intra-server network modeled for utilization reporting:
/// 10 Mbit/s Ethernet, as in the paper.
pub const INTRA_SERVER_BYTES_PER_SEC: f64 = 1.25e6;

/// The three §3.3 load figures, derived together from one elapsed
/// reading so they are mutually consistent.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Rates {
    /// CPU utilization: busy time / elapsed time.
    pub cpu_utilization: f64,
    /// Network utilization against the modeled 10 Mbit/s intra-server
    /// Ethernet.
    pub network_utilization: f64,
    /// Offered request rate, requests/second.
    pub request_rate: f64,
}

/// Accumulates Coordinator load figures.
pub struct CoordStats {
    /// The registry every figure is registered in, and whose uptime
    /// clock every rate is taken over; snapshotted by the `Stats` wire
    /// request.
    pub registry: Registry,
    /// Nanosecond resolution: individual requests are far shorter than
    /// a microsecond of CPU, so a µs counter would round them all to 0.
    busy_ns: Arc<Counter>,
    /// Bytes of every frame the Coordinator sends or receives on a
    /// client or MSU connection, length prefix included.
    pub intra_net_bytes: Arc<Counter>,
    requests: Arc<Counter>,
    streams_started: Arc<Counter>,
    streams_done: Arc<Counter>,
    /// Admission groups granted (one per Play/Record that got through).
    pub admissions: Arc<Counter>,
    /// Admission requests that failed outright (bad request, MSU gone).
    pub rejections: Arc<Counter>,
    /// Time spent parked in the §2.2 admission queue, µs, including the
    /// zero-wait fast path so percentiles reflect real client latency.
    pub queue_wait_us: Arc<Histogram>,
    /// Heartbeat probes that went unanswered (one per missed beat, not
    /// per downed MSU).
    pub heartbeat_misses: Arc<Counter>,
    /// Playback streams successfully re-admitted on a replica after
    /// their disk or MSU failed.
    pub failovers: Arc<Counter>,
    /// Reservations reaped from downed MSUs by `mark_down`.
    pub grants_reaped: Arc<Counter>,
    /// MSU stats snapshots folded into the cluster view (one per
    /// heartbeat `Pong` that piggybacked a snapshot).
    pub snapshots_merged: Arc<Counter>,
}

impl Default for CoordStats {
    fn default() -> Self {
        Self::new()
    }
}

impl CoordStats {
    /// Creates zeroed statistics starting now.
    pub fn new() -> CoordStats {
        let registry = Registry::new();
        CoordStats {
            busy_ns: registry.counter("coord.busy_ns"),
            intra_net_bytes: registry.counter("coord.intra_net_bytes"),
            requests: registry.counter("coord.requests"),
            streams_started: registry.counter("coord.streams_started"),
            streams_done: registry.counter("coord.streams_done"),
            admissions: registry.counter("admission.granted"),
            rejections: registry.counter("admission.rejected"),
            queue_wait_us: registry.histogram("admission.queue_wait_us", LATENCY_US_BUCKETS),
            heartbeat_misses: registry.counter("coord.heartbeat_misses"),
            failovers: registry.counter("coord.failovers"),
            grants_reaped: registry.counter("coord.grants_reaped"),
            snapshots_merged: registry.counter("coord.snapshots_merged"),
            registry,
        }
    }

    /// Zeroes every figure and restarts the clock rates are taken over
    /// (benchmarks call this after warmup).
    pub fn reset(&self) {
        self.registry.reset();
    }

    /// Records one processed request and the CPU time it took.
    pub fn note_request(&self, busy: Duration) {
        self.requests.inc();
        self.note_busy(busy);
    }

    /// Records CPU time outside the request path (e.g. notification
    /// handling).
    pub fn note_busy(&self, busy: Duration) {
        self.busy_ns.add(busy.as_nanos() as u64);
    }

    /// Records a stream admission.
    pub fn note_stream_started(&self) {
        self.streams_started.inc();
    }

    /// Records a stream termination.
    pub fn note_stream_done(&self) {
        self.streams_done.inc();
    }

    /// Total requests processed.
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Streams started.
    pub fn streams_started(&self) -> u64 {
        self.streams_started.get()
    }

    /// Streams terminated.
    pub fn streams_done(&self) -> u64 {
        self.streams_done.get()
    }

    /// The §3.3 figures over the registry's uptime: since construction
    /// or the last [`reset`](Self::reset).
    pub fn rates(&self) -> Rates {
        self.rates_over(Duration::from_micros(self.registry.uptime_us()))
    }

    /// The §3.3 figures over an injected elapsed time — the one place
    /// the three utilization formulas live, and deterministic under
    /// test.
    pub fn rates_over(&self, elapsed: Duration) -> Rates {
        let e = elapsed.as_secs_f64();
        if e == 0.0 {
            return Rates::default();
        }
        Rates {
            cpu_utilization: self.busy_ns.get() as f64 / 1e9 / e,
            network_utilization: self.intra_net_bytes.get() as f64 / INTRA_SERVER_BYTES_PER_SEC / e,
            request_rate: self.requests.get() as f64 / e,
        }
    }

    /// Every registered figure in wire form, tagged with `source`.
    pub fn snapshot(&self, source: &str) -> StatsSnapshot {
        self.registry.snapshot(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calliope_obs::histogram_quantile;
    use calliope_types::wire::stats::MetricValue;

    #[test]
    fn utilization_math() {
        let s = CoordStats::new();
        s.note_request(Duration::from_millis(10));
        s.note_request(Duration::from_millis(30));
        s.intra_net_bytes.add(125_000);
        // Injected elapsed: no sleeping, no tolerance bands.
        let r = s.rates_over(Duration::from_millis(100));
        assert!((r.cpu_utilization - 0.4).abs() < 1e-9, "{r:?}");
        // 125 kB over 0.1 s on a 1.25 MB/s link ⇒ exactly 100%.
        assert!((r.network_utilization - 1.0).abs() < 1e-9, "{r:?}");
        assert!((r.request_rate - 20.0).abs() < 1e-9, "{r:?}");
        assert_eq!(s.requests(), 2);
        // Busy time is a registry counter, readable from a live cluster.
        assert_eq!(s.snapshot("c").counter("coord.busy_ns"), 40_000_000);
        // Zero elapsed never divides by zero.
        assert_eq!(s.rates_over(Duration::ZERO), Rates::default());
        // The wall-clock path reports through the same helper.
        assert!(s.rates().cpu_utilization > 0.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = CoordStats::new();
        s.note_request(Duration::from_millis(5));
        s.intra_net_bytes.add(100);
        s.note_stream_started();
        s.note_stream_done();
        s.admissions.inc();
        s.rejections.inc();
        s.queue_wait_us.record(300);
        // Registered outside `CoordStats::new`, as the flight
        // recorder's counter is.
        s.registry.counter("obs.flight_dropped").inc();
        s.reset();
        let snap = s.snapshot("c");
        for m in &snap.metrics {
            let zero = match &m.value {
                MetricValue::Counter(v) => *v == 0,
                MetricValue::Gauge { value, high_water } => *value == 0 && *high_water == 0,
                MetricValue::Histogram { count, .. } => *count == 0,
            };
            assert!(zero, "{} survived the reset: {:?}", m.name, m.value);
        }
        assert_eq!(s.requests(), 0);
        assert_eq!(s.rates(), Rates::default());
    }

    /// Rates after a reset divide since-reset counts by the registry's
    /// since-reset uptime, not by time since construction.
    #[test]
    fn rates_after_reset_use_the_registry_uptime() {
        // A second clock started with the stats, never reset.
        let since_built = Registry::new();
        let s = CoordStats::new();
        std::thread::sleep(Duration::from_millis(300));
        s.reset();
        s.note_request(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(1));
        let before = s.registry.uptime_us() as f64 / 1e6;
        let r = s.rates();
        let after = s.registry.uptime_us() as f64 / 1e6;
        assert!(
            after < since_built.uptime_us() as f64 / 1e6 - 0.3,
            "{after} s"
        );
        assert!(
            0.01 / after <= r.cpu_utilization && r.cpu_utilization <= 0.01 / before,
            "{r:?} over {before}..{after} s"
        );
        assert!(
            1.0 / after <= r.request_rate && r.request_rate <= 1.0 / before,
            "{r:?}"
        );
    }

    #[test]
    fn snapshot_carries_admission_metrics() {
        let s = CoordStats::new();
        s.admissions.inc();
        s.admissions.inc();
        s.rejections.inc();
        s.queue_wait_us.record(80);
        s.queue_wait_us.record(120_000);
        let snap = s.snapshot("coordinator");
        assert_eq!(snap.source, "coordinator");
        assert_eq!(snap.counter("admission.granted"), 2);
        assert_eq!(snap.counter("admission.rejected"), 1);
        let wait = snap.get("admission.queue_wait_us").unwrap();
        assert_eq!(wait.as_counter(), None, "histograms are not counters");
        // The 120 ms sample sits in the (100 ms, 250 ms] bucket.
        assert!(histogram_quantile(wait, 0.99).unwrap() > 100_000.0);
        assert!(wait.mean().unwrap() > 0.0);
    }
}
