//! Cumulative packet-lateness distributions.
//!
//! Graphs 1 and 2 plot "the percent of packets delivered within a given
//! number of milliseconds of their deadline", binned at one
//! millisecond. [`LatenessCdf`] collects per-packet lateness samples and
//! reports exactly that curve.

/// A histogram of packet lateness with 1 ms bins, reporting cumulative
/// percentages like the paper's graphs.
#[derive(Clone, Debug)]
pub struct LatenessCdf {
    /// `bins[i]` counts packets `i` ms late (bin 0 = on time or early).
    /// Later packets count only toward `total`.
    bins: Vec<u64>,
    total: u64,
    max_late_us: u64,
    sum_late_us: u64,
}

impl LatenessCdf {
    /// Creates a CDF covering `0..max_ms` milliseconds of lateness.
    pub fn new(max_ms: usize) -> LatenessCdf {
        LatenessCdf {
            bins: vec![0; max_ms.max(1)],
            total: 0,
            max_late_us: 0,
            sum_late_us: 0,
        }
    }

    /// Records one packet delivered `late_us` microseconds after its
    /// deadline (0 for on-time or early packets).
    pub fn record(&mut self, late_us: u64) {
        let bin = (late_us / 1_000) as usize;
        if let Some(count) = self.bins.get_mut(bin) {
            *count += 1;
        }
        self.total += 1;
        self.max_late_us = self.max_late_us.max(late_us);
        self.sum_late_us += late_us;
    }

    /// Total packets recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The worst lateness seen, in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_late_us as f64 / 1_000.0
    }

    /// Mean lateness in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_late_us as f64 / self.total as f64 / 1_000.0
        }
    }

    /// Percentage of packets delivered within `ms` milliseconds of their
    /// deadline (inclusive of the `ms`-th one-millisecond bin, matching
    /// the paper's "delivered within 50 milliseconds").
    pub fn pct_within_ms(&self, ms: usize) -> f64 {
        if self.total == 0 {
            return 100.0;
        }
        let count: u64 = self.bins.iter().take(ms + 1).sum();
        count as f64 * 100.0 / self.total as f64
    }

    /// The cumulative curve: one `(ms, cumulative %)` point per bin —
    /// the series plotted in Graphs 1 and 2.
    pub fn curve(&self) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(self.bins.len());
        let mut acc = 0u64;
        for (ms, &c) in self.bins.iter().enumerate() {
            acc += c;
            let pct = if self.total == 0 {
                100.0
            } else {
                acc as f64 * 100.0 / self.total as f64
            };
            out.push((ms, pct));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_time_packets_are_100_percent_within_zero() {
        let mut c = LatenessCdf::new(300);
        for _ in 0..100 {
            c.record(0);
        }
        assert_eq!(c.total(), 100);
        assert_eq!(c.pct_within_ms(0), 100.0);
        assert_eq!(c.max_ms(), 0.0);
    }

    #[test]
    fn paper_style_query() {
        let mut c = LatenessCdf::new(300);
        // 996 on time, 4 at 120 ms: "0.4 percent of the packets are
        // delivered more than 50 milliseconds late".
        for _ in 0..996 {
            c.record(0);
        }
        for _ in 0..4 {
            c.record(120_000);
        }
        assert!((c.pct_within_ms(50) - 99.6).abs() < 1e-9);
        assert_eq!(c.pct_within_ms(150), 100.0);
        assert!((c.max_ms() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn sub_millisecond_lateness_lands_in_bin_zero() {
        let mut c = LatenessCdf::new(10);
        c.record(999);
        assert_eq!(c.pct_within_ms(0), 100.0);
        c.record(1_000);
        assert_eq!(c.pct_within_ms(0), 50.0);
        assert_eq!(c.pct_within_ms(1), 100.0);
    }

    #[test]
    fn overflow_is_counted_in_total_but_not_curve() {
        let mut c = LatenessCdf::new(10);
        c.record(5_000_000); // 5 s late
        c.record(0);
        assert_eq!(c.total(), 2);
        assert_eq!(c.pct_within_ms(9), 50.0);
        let curve = c.curve();
        assert_eq!(curve.len(), 10);
        assert_eq!(curve.last().unwrap().1, 50.0);
    }

    #[test]
    fn curve_is_monotone() {
        let mut c = LatenessCdf::new(50);
        for i in 0..1000u64 {
            c.record((i * 97) % 60_000);
        }
        let curve = c.curve();
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn empty_cdf_reports_cleanly() {
        let c = LatenessCdf::new(5);
        assert_eq!(c.total(), 0);
        assert_eq!(c.pct_within_ms(3), 100.0);
        assert_eq!(c.mean_ms(), 0.0);
    }
}
