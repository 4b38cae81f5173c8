//! Serving telemetry: request counters, batch sizes and a latency histogram.

use serde::Value;

/// A log₂-bucketed latency histogram over microseconds.
///
/// Bucket `i` covers `[2^i, 2^(i+1))` µs (bucket 0 also absorbs sub-µs
/// samples), which resolves quantiles to within a factor of two across nine
/// decades — plenty for p50/p99 serving telemetry — with a fixed 64-slot
/// footprint and O(1) recording.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 64],
            count: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, micros: u64) {
        let bucket = (64 - micros.leading_zeros()).saturating_sub(1).min(63);
        self.buckets[bucket as usize] += 1;
        self.count += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// An upper bound (bucket ceiling) on the `q`-quantile latency in µs,
    /// with `q` in `[0, 1]`. Returns 0 on an empty histogram.
    pub fn quantile_upper_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Ceiling of bucket i = 2^(i+1) - 1 µs; the top bucket is
                // unbounded.
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        u64::MAX
    }
}

/// The daemon's counters, reported by the `{"cmd":"stats"}` control line.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Request lines received (control lines included).
    pub requests: u64,
    /// Successful scheduling responses.
    pub ok: u64,
    /// Error responses (malformed or rejected requests).
    pub errors: u64,
    /// Responses served entirely from the schedule cache.
    pub cache_hits: u64,
    /// Responses scheduled by warm-replaying cached commit logs.
    pub warm_starts: u64,
    /// Responses scheduled from scratch.
    pub cold_runs: u64,
    /// Batches dispatched to the engine pool.
    pub batches: u64,
    /// Largest batch dispatched so far.
    pub max_batch: usize,
    /// Per-request latency: one sample per line, from its batch's admission
    /// to the moment its own response is ready. Hits, errors and control
    /// lines are ready once classified; scheduled lines once their job has
    /// been merged and the response rendered.
    pub latency: LatencyHistogram,
}

impl ServerStats {
    /// Renders the stats response as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let stats = Value::Map(vec![
            ("requests".into(), Value::U64(self.requests)),
            ("ok".into(), Value::U64(self.ok)),
            ("errors".into(), Value::U64(self.errors)),
            ("cache_hits".into(), Value::U64(self.cache_hits)),
            ("warm_starts".into(), Value::U64(self.warm_starts)),
            ("cold_runs".into(), Value::U64(self.cold_runs)),
            ("batches".into(), Value::U64(self.batches)),
            ("max_batch".into(), Value::U64(self.max_batch as u64)),
            (
                "p50_us".into(),
                Value::U64(self.latency.quantile_upper_micros(0.50)),
            ),
            (
                "p99_us".into(),
                Value::U64(self.latency.quantile_upper_micros(0.99)),
            ),
        ]);
        let doc = Value::Map(vec![
            ("status".into(), Value::Str("ok".into())),
            ("stats".into(), stats),
        ]);
        serde_json::to_string(&doc).expect("stats rendering is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_upper_micros(0.5), 0);
        for _ in 0..99 {
            h.record(100); // bucket [64, 128)
        }
        h.record(1_000_000); // bucket [2^19, 2^20)
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_upper_micros(0.50);
        assert!((100..=255).contains(&p50), "p50 bound {p50}");
        // The single slow sample sits exactly at the p99 rank boundary.
        assert!(h.quantile_upper_micros(0.999) >= 1_000_000);
        assert!(h.quantile_upper_micros(1.0) >= 1_000_000);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_upper_micros(0.1) >= 1);
        assert_eq!(h.quantile_upper_micros(1.0), u64::MAX);
    }

    #[test]
    fn stats_render_is_stable() {
        let s = ServerStats {
            requests: 3,
            ok: 2,
            errors: 1,
            batches: 1,
            max_batch: 3,
            ..Default::default()
        };
        let line = s.render();
        assert!(line.starts_with(r#"{"status":"ok","stats":{"requests":3,"ok":2,"errors":1"#));
        assert!(line.contains(r#""p50_us":0,"p99_us":0"#));
    }
}
