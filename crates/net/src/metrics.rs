//! Lock-cheap serving metrics: a log₂-bucketed latency histogram plus
//! the aggregate counter snapshot the server exposes through
//! [`crate::NetServer::metrics`] and the wire `Stats` op.

/// A 64-bucket base-2 latency histogram.
///
/// Bucket `i` counts samples with `floor(log2(ns)) == i` (bucket 0 also
/// takes 0 ns). Recording is one increment; quantiles walk the
/// cumulative counts and report the bucket's geometric midpoint
/// (`1.5 · 2^i`), so a quantile is exact to within its power-of-two
/// bucket — plenty for p50/p99 service-time reporting, with no
/// per-sample allocation and no unbounded reservoir.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    samples: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 64],
            samples: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample, in nanoseconds.
    pub fn record(&mut self, nanos: u64) {
        let bucket = 63u32.saturating_sub(nanos.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.samples += 1;
    }

    /// Samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds, resolved to its
    /// bucket's midpoint; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.samples == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.samples as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let base = 1u64 << i;
                return base + base / 2;
            }
        }
        u64::MAX
    }
}

/// A point-in-time snapshot of the server's aggregate counters, as
/// returned by [`crate::NetServer::metrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Requests answered across all connections.
    pub requests: u64,
    /// Frame bytes read (header + payload) across all connections.
    pub bytes_in: u64,
    /// Frame bytes written across all connections.
    pub bytes_out: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Connections accepted since the server started.
    pub connections_total: u64,
    /// Connections refused at the door with a typed
    /// [`crate::WireError::Overloaded`] frame because the connection cap
    /// was saturated.
    pub connections_refused: u64,
    /// Requests shed with [`crate::WireError::Overloaded`] for breaking a
    /// per-request budget (oversized batch).
    pub requests_shed: u64,
    /// Median request service time (decode start → response encoded).
    pub p50_service_ns: u64,
    /// 99th-percentile request service time.
    pub p99_service_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_resolve_to_bucket_midpoints() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for _ in 0..99 {
            h.record(1_000); // bucket 9 (512..1024)
        }
        h.record(1 << 20); // one outlier in bucket 20
        assert_eq!(h.samples(), 100);
        let p50 = h.quantile(0.5);
        assert_eq!(p50, (1 << 9) + (1 << 8));
        // p99 still lands in the dense bucket (99 of 100 samples).
        assert_eq!(h.quantile(0.99), p50);
        // p100 reaches the outlier bucket.
        assert_eq!(h.quantile(1.0), (1 << 20) + (1 << 19));
    }

    #[test]
    fn zero_and_max_do_not_panic() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.samples(), 2);
        assert!(h.quantile(0.0) >= 1);
    }
}
