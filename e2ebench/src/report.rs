//! Percentiles and the result line.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two nearest order statistics. Sorts `samples` in place.
/// Returns 0 for an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// Buckets per e-fold of a [`Histogram`]: 1% relative resolution, well
/// inside the run-to-run spread of any timing here.
const BUCKETS_PER_E: f64 = 100.0;
/// Largest recordable sample, 100 s in nanoseconds.
const MAX_NS: f64 = 1e11;

/// A latency histogram of fixed size with 1% relative resolution. Its
/// memory does not grow with the number of samples, so a run's resident
/// set does not depend on how many operations it timed.
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (MAX_NS.ln() * BUCKETS_PER_E) as usize + 1],
            total: 0,
        }
    }
}

impl Histogram {
    /// Record one sample, in nanoseconds (clamped to `[1, 1e11]`).
    pub fn record(&mut self, ns: f64) {
        let last = self.counts.len() - 1;
        let i = (ns.clamp(1.0, MAX_NS).ln() * BUCKETS_PER_E) as usize;
        self.counts[i.min(last)] += 1;
        self.total += 1;
    }

    /// Add `other`'s samples to this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile, placing a bucket's samples evenly across its
    /// width. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > rank {
                let frac = (rank - below as f64 + 0.5) / c as f64;
                return ((i as f64 + frac) / BUCKETS_PER_E).exp();
            }
            below += c;
        }
        MAX_NS
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`. Values print with every
/// digit Rust's shortest round-trip formatting gives them.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result object printed as the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn histogram_quantiles_within_resolution() {
        let mut h = Histogram::default();
        for ns in 1..=1000 {
            h.record(ns as f64 * 1000.0);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        assert!((p50 / 500_500.0 - 1.0).abs() < 0.01, "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 / 990_010.0 - 1.0).abs() < 0.01, "p99 {p99}");
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
