//! Metrics snapshot types carried by the `Stats` wire messages.
//!
//! Every Calliope component keeps live counters, gauges, and fixed-bucket
//! histograms (the `calliope-obs` registry). A snapshot flattens those
//! into self-describing name/value pairs so any component's internals can
//! be inspected over the existing TCP control plane — the Coordinator
//! forwards `GetStats` to MSUs and merges their answers, and
//! `calliope-cli stats` renders the result.
//!
//! Histograms travel as cumulative buckets, Prometheus-style: each
//! [`HistBucket`] counts the samples `<= le`, and the final bucket has
//! `le == u64::MAX` so the series always covers every sample. That makes
//! a quantile estimate a single scan (`calliope_obs::histogram_quantile`
//! interpolates within the containing bucket), and lets two snapshots be
//! subtracted bucket-wise to get a rate window.

use super::{Reader, Wire, WireError};

/// One cumulative histogram bucket: how many samples were `<= le`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistBucket {
    /// Inclusive upper bound of the bucket (`u64::MAX` for the overflow
    /// bucket).
    pub le: u64,
    /// Cumulative sample count for this bound.
    pub count: u64,
}

impl Wire for HistBucket {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.le.encode(buf);
        self.count.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(HistBucket {
            le: u64::decode(r)?,
            count: u64::decode(r)?,
        })
    }
}

/// The value of one named metric in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Instantaneous level plus the highest level ever observed.
    Gauge {
        /// Current value.
        value: u64,
        /// High-water mark since the component started.
        high_water: u64,
    },
    /// Distribution of recorded values (units are per-metric; the MSU
    /// and Coordinator record microseconds).
    Histogram {
        /// Cumulative buckets, ascending `le`, ending at `u64::MAX`.
        buckets: Vec<HistBucket>,
        /// Total samples recorded.
        count: u64,
        /// Sum of all recorded values.
        sum: u64,
    },
}

impl MetricValue {
    /// Mean of a histogram's samples, `None` if empty or not a
    /// histogram.
    pub fn mean(&self) -> Option<f64> {
        match self {
            MetricValue::Histogram { count, sum, .. } if *count > 0 => {
                Some(*sum as f64 / *count as f64)
            }
            _ => None,
        }
    }

    /// The counter's value, `None` for other kinds.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }
}

impl Wire for MetricValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            MetricValue::Counter(v) => {
                buf.push(0);
                v.encode(buf);
            }
            MetricValue::Gauge { value, high_water } => {
                buf.push(1);
                value.encode(buf);
                high_water.encode(buf);
            }
            MetricValue::Histogram {
                buckets,
                count,
                sum,
            } => {
                buf.push(2);
                buckets.encode(buf);
                count.encode(buf);
                sum.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8("metric value")? {
            0 => MetricValue::Counter(u64::decode(r)?),
            1 => MetricValue::Gauge {
                value: u64::decode(r)?,
                high_water: u64::decode(r)?,
            },
            2 => MetricValue::Histogram {
                buckets: Vec::<HistBucket>::decode(r)?,
                count: u64::decode(r)?,
                sum: u64::decode(r)?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "metric value",
                    tag,
                })
            }
        })
    }
}

/// One named metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricEntry {
    /// Dotted metric name, e.g. `net.deadline_misses`.
    pub name: String,
    /// Its value.
    pub value: MetricValue,
}

impl Wire for MetricEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        self.value.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(MetricEntry {
            name: String::decode(r)?,
            value: MetricValue::decode(r)?,
        })
    }
}

/// A full metrics snapshot from one component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Who produced it: `coordinator`, `msu-3`, `client`, ….
    pub source: String,
    /// Microseconds since the component started.
    pub uptime_us: u64,
    /// All metrics, sorted by name.
    pub metrics: Vec<MetricEntry>,
}

impl StatsSnapshot {
    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// Convenience: a counter's value, zero if absent or another kind.
    pub fn counter(&self, name: &str) -> u64 {
        self.get(name)
            .and_then(MetricValue::as_counter)
            .unwrap_or(0)
    }
}

impl Wire for StatsSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.source.encode(buf);
        self.uptime_us.encode(buf);
        self.metrics.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(StatsSnapshot {
            source: String::decode(r)?,
            uptime_us: u64::decode(r)?,
            metrics: Vec::<MetricEntry>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + core::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        assert_eq!(&T::from_bytes(&bytes).expect("decode"), v);
    }

    fn sample_histogram() -> MetricValue {
        // 10 samples: 4 <= 100, 9 <= 1000, 1 overflow.
        MetricValue::Histogram {
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
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = StatsSnapshot {
            source: "msu-2".into(),
            uptime_us: 1_234_567,
            metrics: vec![
                MetricEntry {
                    name: "net.packets_sent".into(),
                    value: MetricValue::Counter(42),
                },
                MetricEntry {
                    name: "spsc.net_queue_depth".into(),
                    value: MetricValue::Gauge {
                        value: 3,
                        high_water: 17,
                    },
                },
                MetricEntry {
                    name: "net.lateness_us".into(),
                    value: sample_histogram(),
                },
            ],
        };
        round_trip(&snap);
        assert_eq!(snap.counter("net.packets_sent"), 42);
        assert_eq!(snap.counter("missing"), 0);
        assert!(snap.get("net.lateness_us").is_some());
    }

    #[test]
    fn metric_values_round_trip_and_reject_bad_tags() {
        round_trip(&MetricValue::Counter(u64::MAX));
        round_trip(&MetricValue::Gauge {
            value: 0,
            high_water: 9,
        });
        round_trip(&sample_histogram());
        assert!(matches!(
            MetricValue::from_bytes(&[9]),
            Err(WireError::BadTag {
                what: "metric value",
                ..
            })
        ));
    }
}
