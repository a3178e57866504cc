//! Order statistics and the serving peel arithmetic.

/// Percentiles are handled in parts per 100 000 so that ranks are exact
/// integers (99.9 % of 10 000 samples is rank 9 990, not 9 990.000…01).
const SCALE: u64 = 100_000;

fn scaled(p: f64) -> u64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    (p * 1000.0).round() as u64
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples:
/// the smallest rank with at least `p` % of samples at or below it.
fn rank(n: usize, p: f64) -> usize {
    let n64 = n as u64;
    (n64 * scaled(p)).div_ceil(SCALE).clamp(1, n64) as usize
}

/// Nearest-rank percentile of samples sorted ascending.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Percentiles tried, highest last, for the tail report.
const TAIL_LADDER: [f64; 7] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Summary of one latency sample: median, p99 and the highest
/// percentile the sample supports, with the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    pub p99: f64,
    /// `(percentile, value)`: the highest percentile with at least ten
    /// samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Latency {
    pub fn of(values: &[f64]) -> Latency {
        let sorted = sorted(values);
        Latency {
            samples: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
            tail: tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
        }
    }
}

/// Mean time per request at each serving entry point, for the same
/// request stream: the compiled kernel alone, the in-process server, a
/// direct wire client to one backend, and a client of the router.
/// Each layer's own cost is the difference between the entry point
/// that includes it and the one just inside it; means are used because
/// differences of means add up exactly, so the parts sum to the router
/// round trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peel {
    pub kernel: f64,
    pub server: f64,
    pub net: f64,
    pub router: f64,
}

impl Peel {
    /// Shard hop and caches: server minus kernel.
    pub fn engine(&self) -> f64 {
        self.server - self.kernel
    }

    /// Framing, codec and loopback socket: direct client minus server.
    pub fn wire(&self) -> f64 {
        self.net - self.server
    }

    /// The router's extra hop: router client minus direct client.
    pub fn hop(&self) -> f64 {
        self.router - self.net
    }

    /// `[kernel, engine, wire, hop]`, which sum to `router`.
    pub fn parts(&self) -> [f64; 4] {
        [self.kernel, self.engine(), self.wire(), self.hop()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Rank is exact where float arithmetic would overshoot by one.
        let xs = ramp(10_000);
        assert_eq!(percentile(&xs, 99.9), 9_990.0);
        assert_eq!(percentile(&ramp(5), 50.0), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_400_000), Some(99.999));
        for n in [20, 100, 1_000, 12_345, 1_000_000] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn latency_summary() {
        let mut xs = ramp(1_000);
        xs.reverse();
        let l = Latency::of(&xs);
        assert_eq!(l.samples, 1_000);
        assert_eq!(l.p50, 500.0);
        assert_eq!(l.p99, 990.0);
        assert_eq!(l.tail, Some((99.0, 990.0)));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn peel_parts_sum_to_router_round_trip() {
        let peel = Peel {
            kernel: 6.5,
            server: 120.25,
            net: 410.0,
            router: 655.5,
        };
        assert_eq!(peel.engine(), 113.75);
        assert_eq!(peel.wire(), 289.75);
        assert_eq!(peel.hop(), 245.5);
        let sum: f64 = peel.parts().iter().sum();
        assert!((sum - peel.router).abs() < 1e-9);
    }
}
