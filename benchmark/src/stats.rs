//! Order statistics used by every workload and by `--compare`.

/// Sorts a sample in place, ascending. Latencies are never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `q` of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Median of an unsorted sample (mean of the middle two when even).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method),
/// so `--compare` sees the spreads the driver sees.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the driver holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// What one timed run of a workload collected.
#[derive(Debug, Default, Clone)]
pub struct Timed {
    /// Ops per second of each segment (ops in the segment over its wall
    /// time, checks included).
    pub segment_rates: Vec<f64>,
    /// (p50, p95, p99) of each segment's op latencies, microseconds.
    pub segment_latency_us: Vec<[f64; 3]>,
    /// Latency of every op of the open segment, microseconds.
    op_us: Vec<f64>,
    pub attempted: u64,
    /// Ops that errored or returned a wrong output.
    pub failed: u64,
    /// Ops the system refused (serving admission). Counted as failed in
    /// the result document.
    pub refused: u64,
    /// Process CPU time spent over the timed segments, seconds.
    pub cpu_s: f64,
    /// Wall time over the timed segments, seconds.
    pub wall_s: f64,
}

impl Timed {
    /// Times one segment of `ops` ops run back to back. `op` returns its
    /// own latency in microseconds (the call into the product, without
    /// the output check) and whether the output was right; the
    /// segment's wall time includes the checks.
    pub fn segment(&mut self, ops: usize, mut op: impl FnMut() -> (f64, bool)) {
        let start = std::time::Instant::now();
        for _ in 0..ops {
            let (us, ok) = op();
            self.op(us, ok);
        }
        self.close_segment(ops, start.elapsed().as_secs_f64());
    }

    /// Closes the open segment: `ops` ops that took `wall_s`.
    pub fn close_segment(&mut self, ops: usize, wall_s: f64) {
        self.segment_rates.push(ops as f64 / wall_s);
        self.wall_s += wall_s;
        sort(&mut self.op_us);
        self.segment_latency_us
            .push([0.50, 0.95, 0.99].map(|q| percentile(&self.op_us, q)));
        self.op_us.clear();
    }

    /// Records one op. A failed or refused op keeps its latency: it is
    /// excluded from no statistic.
    pub fn op(&mut self, us: f64, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.op_us.push(us);
    }

    pub fn ops_per_s(&self) -> f64 {
        median(&self.segment_rates)
    }

    /// (p50, p95, p99) of the median segment.
    pub fn latency_us(&self) -> (f64, f64, f64) {
        let of = |i: usize| {
            let column: Vec<f64> = self.segment_latency_us.iter().map(|s| s[i]).collect();
            median(&column)
        };
        (of(0), of(1), of(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segment_arithmetic() {
        let mut t = Timed::default();
        // Three segments of 100 ops at 1 s, 2 s and 4 s: rates 100, 50, 25.
        for wall in [1.0, 2.0, 4.0] {
            for i in 0..100 {
                t.op(f64::from(i), i != 7);
            }
            t.close_segment(100, wall);
        }
        assert_eq!(t.ops_per_s(), 50.0, "median segment, not the mean");
        assert_eq!((t.attempted, t.failed), (300, 3));
        assert_eq!(t.wall_s, 7.0);
        assert_eq!(t.latency_us(), (49.0, 94.0, 98.0));
        // A fourth segment ten times slower moves the mean, not the median.
        for i in 0..100 {
            t.op(f64::from(i) * 10.0, true);
        }
        t.close_segment(100, 40.0);
        assert_eq!(t.ops_per_s(), 37.5);
        assert_eq!(t.latency_us(), (49.0, 94.0, 98.0));
        assert_eq!(
            t.segment_latency_us[3],
            [490.0, 940.0, 980.0],
            "failed ops keep their latency"
        );
    }
}
