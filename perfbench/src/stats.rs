//! Order statistics for the reported timings.
//!
//! Every timing is reported as a median plus a `_tail`: the highest
//! percentile from [`TAIL_CANDIDATES`] that still has at least
//! [`TAIL_MIN_BEYOND`] samples strictly beyond it, so a tail is never
//! read off a handful of samples.

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_CANDIDATES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps `99.9% of 10000` at rank 9990, not 9991.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile of `values` (need not be sorted). NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len())]
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond its rank among `n` samples. Falls back to the median
/// when `n` is too small for any candidate (the sample count is reported
/// next to every tail, so such a tail is visibly thin).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - (rank(p, n) + 1) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// A timing summary: median, tail, the tail's percentile and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub n: usize,
}

impl Timing {
    pub fn of(values: &[f64]) -> Self {
        let tail_pct = tail_percentile(values.len());
        Self {
            p50: median(values),
            tail: percentile(values, tail_pct),
            tail_pct,
            n: values.len(),
        }
    }
}

/// Work rate robust to a transient stall of the host: the ops (each
/// `units[i]` of work taking `secs[i]`) are split into `windows`
/// contiguous groups and the median of the groups' rates is returned.
pub fn windowed_rate(units: &[f64], secs: &[f64], windows: usize) -> f64 {
    let n = units.len().min(secs.len());
    let windows = windows.clamp(1, n.max(1));
    let rates: Vec<f64> = (0..windows)
        .map(|w| {
            let (lo, hi) = (w * n / windows, (w + 1) * n / windows);
            units[lo..hi].iter().sum::<f64>() / secs[lo..hi].iter().sum::<f64>()
        })
        .collect();
    median(&rates)
}

/// Windows a phase's throughput is split into.
pub const RATE_WINDOWS: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // n = 20: p50 leaves exactly 10 beyond; p75 leaves 5.
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(39), 50.0);
        // n = 40: p75 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn tail_falls_back_to_median_when_thin() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn the_chosen_tail_really_has_ten_beyond() {
        for n in 20..2000 {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = Timing::of(&values);
            let beyond = values.iter().filter(|&&v| v > t.tail).count();
            assert!(
                beyond >= TAIL_MIN_BEYOND,
                "n={n} p{} has {beyond} beyond",
                t.tail_pct
            );
            // And the next candidate up would not have had enough.
            if let Some(&next) = TAIL_CANDIDATES.iter().find(|&&p| p > t.tail_pct) {
                let v = percentile(&values, next);
                let beyond_next = values.iter().filter(|&&x| x > v).count();
                assert!(
                    beyond_next < TAIL_MIN_BEYOND,
                    "n={n}: p{next} also qualifies"
                );
            }
        }
    }

    #[test]
    fn windowed_rate_ignores_one_stalled_window() {
        let units = vec![1.0; 80];
        let mut secs = vec![0.1; 80];
        for s in &mut secs[0..10] {
            *s = 1.0; // one window ten times slower
        }
        assert!((windowed_rate(&units, &secs, 8) - 10.0).abs() < 1e-9);
        // The plain mean would have been dragged down to ~4.7/s.
        assert!(80.0 / secs.iter().sum::<f64>() < 5.0);
        assert!((windowed_rate(&[2.0], &[0.5], 8) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
