//! CPU time the hypervisor gives to other guests ("steal"), read from
//! `/proc/stat`, and the quiet-sample selection built on it.
//!
//! On a shared host a burst of steal can halve a run's throughput, and
//! whole runs land in such bursts. Every timed sample (a `run_gps` call,
//! a set-up, a half-second serving window) therefore records the steal
//! it suffered, and the reported figures are medians over the samples
//! that suffered no more steal than the median sample. With no steal at
//! all every sample is kept and the figure is a plain median.

/// Steal ticks (`USER_HZ`, summed over CPUs) since boot; 0 where the
/// kernel does not report steal.
pub fn ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| parse(&text))
        .unwrap_or(0)
}

/// The eighth counter of the aggregate `cpu` line.
fn parse(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The items whose steal is at most the median steal, in their order.
pub fn quiet<T: Clone>(samples: &[(T, u64)]) -> Vec<T> {
    assert!(!samples.is_empty(), "quiet samples of no samples");
    let mut steal: Vec<u64> = samples.iter().map(|s| s.1).collect();
    steal.sort_unstable();
    let cut = steal[(steal.len() - 1) / 2];
    samples
        .iter()
        .filter(|s| s.1 <= cut)
        .map(|s| s.0.clone())
        .collect()
}

/// Median of the quiet samples.
pub fn quiet_median(samples: &[(f64, u64)]) -> f64 {
    crate::stats::median(&quiet(samples))
}

/// Time `f` and the steal during it: `(result, seconds, steal ticks)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, u64) {
    let steal = ticks();
    let started = std::time::Instant::now();
    let result = f();
    let seconds = started.elapsed().as_secs_f64();
    (result, seconds, ticks().saturating_sub(steal))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_steal_column() {
        let stat = "cpu  591901 0 130813 773256 503 0 46564 26940 0 0\n\
                    cpu0 295950 0 65406 386628 251 0 23282 13470 0 0\n";
        assert_eq!(parse(stat), Some(26940));
        assert_eq!(parse("intr 1 2 3\n"), None);
    }

    #[test]
    fn quiet_keeps_samples_at_or_below_the_median_steal() {
        let samples = [(10.0, 0), (30.0, 9), (11.0, 1), (12.0, 0), (40.0, 20)];
        assert_eq!(quiet(&samples), vec![10.0, 11.0, 12.0]);
        assert_eq!(quiet_median(&samples), 11.0);
        // No steal anywhere: every sample counts.
        let calm = [(3.0, 0), (1.0, 0), (2.0, 0), (4.0, 0)];
        assert_eq!(quiet(&calm).len(), 4);
        assert_eq!(quiet_median(&calm), 2.0);
        // Even counts cut at the lower median.
        assert_eq!(quiet(&[(1.0, 5), (2.0, 3)]), vec![2.0]);
    }
}
